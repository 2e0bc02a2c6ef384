//! Property tests for the epoch-snapshot [`GraphStore`]: any interleaving
//! of `insert_edge` / `remove_edge` / `publish` must leave the store
//! presenting *exactly* the graph a from-scratch rebuild would — same
//! sorted adjacency, same edge count, and bit-identical SimPush answers —
//! no matter where compaction fires. This is the determinism guarantee
//! that makes overlay snapshots a pure performance choice over full CSR
//! rebuilds, in the spirit of `prop_workspace`'s cold/warm contract.
//!
//! The concurrent test at the bottom runs the real serving shape — 4
//! reader threads racing 1 writer — and checks every recorded answer
//! against a fresh CSR rebuild of the epoch it was answered on.

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
    #![proptest_config(ProptestConfig::with_cases(20))]

    // Random interleavings of updates and publishes, with the compaction
    // threshold low enough that compaction fires mid-sequence: the final
    // snapshot must equal a MutableGraph replay both structurally (every
    // adjacency list) and as a rebuilt CSR, and SimPush answers on the
    // snapshot must be bit-identical to answers on the rebuild.
    #[test]
    fn interleaved_updates_match_fresh_rebuild_bit_for_bit(
        base in arb_graph(28, 90),
        ops in proptest::collection::vec((0u8..4, 0usize..10_000, 0usize..10_000), 0..60),
        eps in 0.02f64..0.1,
        threshold in 1usize..12,
    ) {
        let n = base.num_nodes();
        let store = GraphStore::with_compaction_threshold(base.clone(), threshold);
        let mut replica = MutableGraph::from_csr(&base);
        for (kind, a, b) in ops {
            let (s, t) = ((a % n) as NodeId, (b % n) as NodeId);
            match kind {
                // Inserts twice as likely as removes so edges accumulate.
                0 | 1 => {
                    let effective = store.insert_edge(s, t);
                    prop_assert_eq!(effective, replica.insert_edge(s, t));
                }
                2 => {
                    let effective = store.remove_edge(s, t);
                    prop_assert_eq!(effective, replica.remove_edge(s, t));
                }
                _ => { store.publish(); }
            }
        }
        store.publish();
        let snap = store.snapshot();
        let want = replica.snapshot();

        // Structural identity: the overlay view IS the rebuilt graph.
        prop_assert_eq!(snap.num_nodes(), want.num_nodes());
        prop_assert_eq!(snap.num_edges(), want.num_edges());
        for v in 0..n as NodeId {
            prop_assert_eq!(snap.out_neighbors(v), want.out_neighbors(v), "out({})", v);
            prop_assert_eq!(snap.in_neighbors(v), want.in_neighbors(v), "in({})", v);
        }
        let rebuilt = snap.to_csr();
        prop_assert_eq!(&rebuilt, &want);
        prop_assert!(rebuilt.validate().is_ok());

        // Query identity: same scores on overlay snapshot and CSR rebuild.
        let engine = SimPush::new(Config::new(eps));
        for u in [0, n / 2, n - 1] {
            let on_snapshot = engine.query_seeded(&*snap, u as NodeId);
            let on_rebuild = engine.query_seeded(&want, u as NodeId);
            prop_assert_eq!(on_snapshot.scores, on_rebuild.scores, "u={}", u);
        }
    }

    // Buffered-but-unpublished updates must be invisible: a snapshot taken
    // mid-batch equals the last published state, not the working overlay.
    #[test]
    fn snapshots_only_see_published_epochs(
        base in arb_graph(16, 40),
        ops in proptest::collection::vec((0usize..10_000, 0usize..10_000), 1..20),
    ) {
        let n = base.num_nodes();
        let store = GraphStore::new(base.clone());
        let before = store.snapshot();
        for (a, b) in ops {
            store.insert_edge((a % n) as NodeId, (b % n) as NodeId);
            prop_assert_eq!(store.snapshot().num_edges(), base.num_edges());
        }
        store.publish();
        prop_assert_eq!(before.num_edges(), base.num_edges(), "old Arc unchanged");
        prop_assert_eq!(before.epoch(), 0);
        prop_assert_eq!(store.snapshot().epoch(), 1);
    }

    // Copy-on-write: the snapshot of every epoch is held next to a replica
    // of the graph it published, while later batches keep re-touching the
    // same lists — the in-list of hub node 0, toggled edge by edge, and
    // insert-then-remove pairs that return a list to its base — across
    // publishes and compactions. No held snapshot may ever change.
    #[test]
    fn held_snapshots_never_change_under_later_publishes(
        base in arb_graph(20, 60),
        ops in proptest::collection::vec((0u8..3, 0usize..10_000), 1..60),
        threshold in 1usize..16,
    ) {
        let n = base.num_nodes();
        let store = GraphStore::with_compaction_threshold(base.clone(), threshold);
        let mut replica = MutableGraph::from_csr(&base);
        let mut held = vec![(store.snapshot(), base.clone())];
        for (kind, a) in ops {
            let (s, t) = ((a % n) as NodeId, (a / n % n) as NodeId);
            let updates = match kind {
                0 if replica.has_edge(s, 0) => vec![GraphUpdate::Remove(s, 0)],
                0 => vec![GraphUpdate::Insert(s, 0)],
                1 if replica.has_edge(s, t) => {
                    vec![GraphUpdate::Remove(s, t), GraphUpdate::Insert(s, t)]
                }
                1 => vec![GraphUpdate::Insert(s, t), GraphUpdate::Remove(s, t)],
                _ => {
                    store.publish();
                    held.push((store.snapshot(), replica.snapshot()));
                    for (snap, want) in &held {
                        let e = snap.epoch();
                        prop_assert_eq!(snap.num_edges(), want.num_edges(), "epoch {}", e);
                        for v in 0..n as NodeId {
                            let (got, exp) = (snap.out_neighbors(v), want.out_neighbors(v));
                            prop_assert_eq!(got, exp, "epoch {} out({})", e, v);
                            let (got, exp) = (snap.in_neighbors(v), want.in_neighbors(v));
                            prop_assert_eq!(got, exp, "epoch {} in({})", e, v);
                        }
                    }
                    continue;
                }
            };
            for u in updates {
                let effective = match u {
                    GraphUpdate::Insert(s, t) => replica.insert_edge(s, t),
                    GraphUpdate::Remove(s, t) => replica.remove_edge(s, t),
                };
                prop_assert_eq!(store.apply(&[u]), usize::from(effective));
            }
        }
    }
}

/// The acceptance-criteria test: ≥ 4 reader threads and 1 writer race on
/// one [`GraphStore`]; every reader records `(epoch, node, scores)` and the
/// writer records a full CSR rebuild per published epoch. Afterwards every
/// recorded answer must be bit-identical to querying that epoch's rebuild.
#[test]
fn concurrent_readers_match_per_epoch_csr_rebuilds() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    let base = simrank_suite::graph::gen::gnm(300, 1800, 11);
    let n = base.num_nodes();
    let store = GraphStore::with_compaction_threshold(base.clone(), 48);
    let engine = SimPush::new(Config::new(0.05));

    // A deterministic update stream: mostly inserts, some removes.
    let updates: Vec<GraphUpdate> = (0..20 * 8)
        .map(|i| {
            let s = (i * 17 + 3) % n;
            let t = (i * 29 + 7) % n;
            if i % 4 == 3 {
                GraphUpdate::Remove(s as NodeId, t as NodeId)
            } else {
                GraphUpdate::Insert(s as NodeId, t as NodeId)
            }
        })
        .collect();

    let done = AtomicBool::new(false);
    let completed = AtomicUsize::new(0);
    let (epoch_graphs, observations) = std::thread::scope(|scope| {
        // Writer: one batch of 8 per publish, recording each epoch's CSR.
        let writer = scope.spawn(|| {
            let mut rebuilds: Vec<(u64, CsrGraph)> = vec![(0, base.clone())];
            let mut mark = 0;
            for batch in updates.chunks(8) {
                let (_, info) = store.commit(batch);
                // The writer is the only publisher, so the current snapshot
                // is exactly the epoch this commit produced.
                let snap = store.snapshot();
                assert_eq!(snap.epoch(), info.epoch);
                rebuilds.push((info.epoch, snap.to_csr()));
                // Pace the race: wait for at least one query to complete
                // before the next publish, so reader observations are
                // guaranteed to spread over epochs (a query completing
                // here snapshotted before the next publish exists, hence
                // observed an epoch ≤ the current one). Readers never stop
                // before `done`, so this always terminates.
                while completed.load(Ordering::Acquire) <= mark {
                    std::thread::yield_now();
                }
                mark = completed.load(Ordering::Acquire);
            }
            done.store(true, Ordering::Release);
            rebuilds
        });

        // Readers: 4 threads querying snapshots while the writer runs, each
        // keeping the full score vector for post-hoc verification.
        let mut readers = Vec::new();
        for r in 0..4u32 {
            let done = &done;
            let completed = &completed;
            let store = &store;
            let engine = &engine;
            readers.push(scope.spawn(move || {
                let mut ws = simpush::QueryWorkspace::new();
                let mut seen = Vec::new();
                let mut i = 0u32;
                // Keep querying until the writer is done, then a few more
                // on the final epoch so late epochs are covered too.
                let mut drain = 3;
                loop {
                    let writer_done = done.load(Ordering::Acquire);
                    let u = ((i * 37 + r * 101) % n as u32) as NodeId;
                    let snap = store.snapshot();
                    let res = engine.query_seeded_with(&*snap, u, &mut ws);
                    seen.push((snap.epoch(), u, res.scores));
                    completed.fetch_add(1, Ordering::Release);
                    i += 1;
                    if writer_done {
                        drain -= 1;
                        if drain == 0 {
                            return seen;
                        }
                    }
                }
            }));
        }

        let epoch_graphs = writer.join().expect("writer panicked");
        let observations: Vec<(u64, NodeId, Vec<f64>)> = readers
            .into_iter()
            .flat_map(|h| h.join().expect("reader panicked"))
            .collect();
        (epoch_graphs, observations)
    });

    assert_eq!(epoch_graphs.len(), 21, "base + one epoch per batch");
    assert!(
        store.compactions() >= 1,
        "threshold 48 with ~120 effective updates must have compacted"
    );
    // Each of the 4 readers answered at least once; epochs actually spread
    // over the run (not everything piled on epoch 0 or the final one).
    assert!(observations.len() >= 12);
    let distinct: std::collections::BTreeSet<u64> =
        observations.iter().map(|&(e, _, _)| e).collect();
    assert!(
        distinct.len() >= 2,
        "readers should observe multiple epochs; saw {distinct:?}"
    );

    // The contract: every concurrent answer equals a cold query on a full
    // CSR rebuild of the very epoch it was answered on.
    for (epoch, u, scores) in &observations {
        let (_, g) = epoch_graphs
            .iter()
            .find(|(e, _)| e == epoch)
            .unwrap_or_else(|| panic!("observed unpublished epoch {epoch}"));
        let fresh = engine.query_seeded(g, *u);
        assert_eq!(
            &fresh.scores, scores,
            "epoch {epoch}, u={u}: concurrent answer drifted from rebuild"
        );
    }
}
