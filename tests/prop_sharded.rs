//! Property tests for the sharded serving layer: a [`ShardedStore`] fed
//! any update stream over any shard count must present *exactly* the
//! graph that a single [`GraphStore`] and a from-scratch CSR rebuild
//! present — same routed adjacency slices, same edge count, and
//! bit-identical SimPush answers — no matter how updates distribute over
//! shards, where per-shard compaction fires, or how many cross-shard
//! edges get mirrored. This is the determinism guarantee that makes
//! sharding a pure scalability choice, extending `prop_store`'s
//! overlay-vs-rebuild contract one level up. Concurrent commits keep it:
//! every cut a reader acquires is one logical graph.

use proptest::prelude::*;
use simpush::{Config, SimPush};
use simrank_suite::prelude::*;

/// Strategy: a random directed base graph as a built CSR.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as NodeId, 0..n as NodeId), 0..max_m).prop_map(
            move |edges| {
                GraphBuilder::new()
                    .with_num_nodes(n)
                    .with_edges(edges)
                    .build()
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Random update streams chopped into random commit batches, applied
    // three ways — ShardedStore (random K over a range partitioner, with a
    // compaction threshold low enough to fire mid-stream), single
    // GraphStore, MutableGraph replay. After every batch boundary the
    // sharded composite must match the single store structurally; at the
    // end all three representations must be bit-identical under SimPush.
    #[test]
    fn sharded_matches_single_store_and_fresh_rebuild_bit_for_bit(
        base in arb_graph(26, 80),
        ops in proptest::collection::vec((0u8..3, 0usize..10_000, 0usize..10_000), 0..50),
        batch_size in 1usize..12,
        shards in 1usize..9,
        eps in 0.02f64..0.1,
        threshold in 1usize..10,
    ) {
        let n = base.num_nodes();
        let partitioner = RangePartitioner::new(n, shards);
        let sharded = ShardedStore::with_compaction_threshold(&base, partitioner, threshold);
        let single = GraphStore::with_compaction_threshold(base.clone(), threshold);
        let mut replica = MutableGraph::from_csr(&base);

        let updates: Vec<GraphUpdate> = ops
            .into_iter()
            .map(|(kind, a, b)| {
                let (s, t) = ((a % n) as NodeId, (b % n) as NodeId);
                // Inserts twice as likely as removes so edges accumulate.
                if kind == 2 {
                    GraphUpdate::Remove(s, t)
                } else {
                    GraphUpdate::Insert(s, t)
                }
            })
            .collect();

        for batch in updates.chunks(batch_size) {
            let (sharded_eff, _) = sharded.commit(batch);
            let (single_eff, _) = single.commit(batch);
            prop_assert_eq!(sharded_eff, single_eff, "effective counts diverged");
            for &u in batch {
                let (s, t) = u.endpoints();
                match u {
                    GraphUpdate::Insert(..) => replica.insert_edge(s, t),
                    GraphUpdate::Remove(..) => replica.remove_edge(s, t),
                };
            }
            // Composite view == single-store view at every cut.
            let snap = sharded.snapshot();
            let solo = single.snapshot();
            prop_assert_eq!(snap.num_edges(), solo.num_edges());
            for v in 0..n as NodeId {
                prop_assert_eq!(snap.out_neighbors(v), solo.out_neighbors(v), "out({})", v);
                prop_assert_eq!(snap.in_neighbors(v), solo.in_neighbors(v), "in({})", v);
            }
        }

        // Final structural identity against the replay, via both paths.
        let want = replica.snapshot();
        let snap = sharded.snapshot();
        prop_assert_eq!(snap.num_nodes(), want.num_nodes());
        prop_assert_eq!(snap.num_edges(), want.num_edges());
        let rebuilt = snap.to_csr();
        prop_assert_eq!(&rebuilt, &want);
        prop_assert!(rebuilt.validate().is_ok());

        // Query identity: same scores on the sharded composite, the
        // single-store snapshot, and the fresh CSR rebuild.
        let engine = SimPush::new(Config::new(eps));
        let solo = single.snapshot();
        for u in [0, n / 2, n - 1] {
            let on_sharded = engine.query_seeded(&*snap, u as NodeId);
            let on_single = engine.query_seeded(&*solo, u as NodeId);
            let on_rebuild = engine.query_seeded(&want, u as NodeId);
            prop_assert_eq!(&on_sharded.scores, &on_single.scores, "vs single, u={}", u);
            prop_assert_eq!(&on_sharded.scores, &on_rebuild.scores, "vs rebuild, u={}", u);
        }
    }

    // Every commit publishes exactly one new cut — an empty or no-op
    // batch included — the version hint follows it, and a cut a reader
    // holds never changes.
    #[test]
    fn composite_cuts_advance_once_per_commit(
        base in arb_graph(16, 40),
        ops in proptest::collection::vec((0usize..10_000, 0usize..10_000), 1..16),
        shards in 1usize..4,
    ) {
        let n = base.num_nodes();
        let store = ShardedStore::new(&base, RangePartitioner::new(n, shards));
        let before = store.snapshot();
        let mut edges = base.num_edges();
        for (i, (a, b)) in ops.into_iter().enumerate() {
            let u = GraphUpdate::Insert((a % n) as NodeId, (b % n) as NodeId);
            let batch = if i % 3 == 2 { Vec::new() } else { vec![u] };
            let (effective, info) = store.commit(&batch);
            edges += effective;
            prop_assert_eq!(info.cut, i as u64 + 1, "one cut per commit");
            prop_assert_eq!(store.version_hint(), info.cut);
            prop_assert_eq!(store.snapshot().cut(), info.cut);
            prop_assert_eq!(store.snapshot().num_edges(), edges);
            prop_assert_eq!(before.num_edges(), base.num_edges(), "old Arc unchanged");
            prop_assert_eq!(before.cut(), 0);
        }
    }
}

/// Two writers race [`ShardedStore::commit`] on cross-shard edges while a
/// reader checks every cut it acquires: each edge is seen from both of its
/// shards or from neither, and the edge count is the out-list sum.
#[test]
fn concurrent_commits_never_publish_a_torn_cut() {
    const COMMITS: usize = 2_000;
    const N: NodeId = 8;
    let base = GraphBuilder::new().with_num_nodes(N as usize).build();
    // Two range shards, {0..3} and {4..7}: every edge below crosses them.
    let store = ShardedStore::new(&base, RangePartitioner::new(N as usize, 2));
    let writer_edges = [[(0, 4), (1, 5)], [(6, 2), (7, 3)]];
    let torn = std::thread::scope(|scope| {
        let writers: Vec<_> = writer_edges
            .into_iter()
            .map(|[a, b]| {
                let store = &store;
                scope.spawn(move || {
                    store.commit(&[GraphUpdate::Insert(a.0, a.1)]);
                    for i in 0..COMMITS {
                        // Swap which of this writer's two edges is present.
                        let (on, off) = if i % 2 == 0 { (b, a) } else { (a, b) };
                        store.commit(&[
                            GraphUpdate::Insert(on.0, on.1),
                            GraphUpdate::Remove(off.0, off.1),
                        ]);
                    }
                })
            })
            .collect();
        let (mut torn, mut last_cut) = (0, 0);
        while !writers.iter().all(|w| w.is_finished()) {
            let snap = store.snapshot();
            assert!(snap.cut() >= last_cut, "cuts go backwards");
            last_cut = snap.cut();
            let symmetric = (0..N).all(|v| {
                let (out, inn) = (snap.out_neighbors(v), snap.in_neighbors(v));
                out.iter().all(|&t| snap.in_neighbors(t).contains(&v))
                    && inn.iter().all(|&s| snap.out_neighbors(s).contains(&v))
            });
            let out_sum: usize = (0..N).map(|v| snap.out_degree(v)).sum();
            torn += usize::from(!symmetric || out_sum != snap.num_edges());
        }
        torn
    });
    assert_eq!(
        torn, 0,
        "cuts with a half-mirrored edge or a wrong edge count"
    );
    let commits = (writer_edges.len() * (COMMITS + 1)) as u64;
    assert_eq!(store.snapshot().cut(), commits, "one cut per commit");
    assert_eq!(store.version_hint(), commits);
    assert_eq!(store.snapshot().num_edges(), 2, "one edge per writer");
}
