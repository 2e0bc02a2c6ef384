//! Property tests for the sharded serving layer: a [`ShardedStore`] fed
//! any update stream through any partitioner must present *exactly* the
//! graph that a single [`GraphStore`] and a from-scratch CSR rebuild
//! present — same routed adjacency slices, same edge count, and
//! bit-identical SimPush answers — no matter how updates distribute over
//! shards, where per-shard compaction fires, or how many cross-shard
//! edges get mirrored. This is the determinism guarantee that makes
//! sharding a pure scalability choice, extending `prop_store`'s
//! overlay-vs-rebuild contract one level up.

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

/// Either partitioner flavour, over `n` nodes and `k` shards.
#[derive(Debug, Clone, Copy)]
enum AnyPartitioner {
    Hash(HashPartitioner),
    Range(RangePartitioner),
}

impl Partitioner for AnyPartitioner {
    fn num_shards(&self) -> usize {
        match self {
            AnyPartitioner::Hash(p) => p.num_shards(),
            AnyPartitioner::Range(p) => p.num_shards(),
        }
    }

    fn shard_of(&self, v: NodeId) -> usize {
        match self {
            AnyPartitioner::Hash(p) => p.shard_of(v),
            AnyPartitioner::Range(p) => p.shard_of(v),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Random update streams chopped into random commit batches, applied
    // three ways — ShardedStore (random K and partitioner flavour, with a
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
        use_range in any::<bool>(),
        eps in 0.02f64..0.1,
        threshold in 1usize..10,
    ) {
        let n = base.num_nodes();
        let partitioner = if use_range {
            AnyPartitioner::Range(RangePartitioner::new(n, shards))
        } else {
            AnyPartitioner::Hash(HashPartitioner::new(shards))
        };
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

    // Applied-but-unrefreshed updates must be invisible: the composite
    // only advances on refresh, and old cuts never change.
    #[test]
    fn composite_cuts_only_advance_on_refresh(
        base in arb_graph(16, 40),
        ops in proptest::collection::vec((0usize..10_000, 0usize..10_000), 1..16),
        shards in 1usize..4,
    ) {
        let n = base.num_nodes();
        let store = ShardedStore::new(&base, HashPartitioner::new(shards));
        let before = store.snapshot();
        for (a, b) in ops {
            let u = GraphUpdate::Insert((a % n) as NodeId, (b % n) as NodeId);
            let routed = store.route_batch(std::slice::from_ref(&u));
            for (k, sub) in routed.iter().enumerate() {
                store.apply_shard(k, sub);
                store.publish_shard(k);
            }
            prop_assert_eq!(store.snapshot().cut(), 0, "cut advanced without refresh");
            prop_assert_eq!(store.snapshot().num_edges(), base.num_edges());
        }
        store.refresh();
        prop_assert_eq!(before.num_edges(), base.num_edges(), "old Arc unchanged");
        prop_assert_eq!(before.cut(), 0);
        prop_assert_eq!(store.snapshot().cut(), 1);
    }
}
