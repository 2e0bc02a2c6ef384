//! Property tests for the epoch-tagged [`AnswerCache`]: under arbitrary
//! interleavings of edge updates, publishes and queries — with the
//! compaction threshold low enough that overlay rebuilds fire
//! mid-sequence and the staleness bound pinned to 0 — every answer the
//! cache-enabled path produces must be bit-identical to a cache-disabled
//! query on the very same epoch, and a *poisoned* entry (one whose
//! support set intersected a publish's touched delta) must never be
//! served again until it is recomputed.
//!
//! The test mirrors the `Frontend` worker loop single-threadedly: look
//! up at the store's version hint, on miss compute through a
//! [`SupportTracer`] and insert at the snapshot's epoch, on publish
//! forward the touched delta via `on_publish`. A shadow model tracks
//! which keys are poisoned so the "never served" claim is checked
//! directly, not just through answer equality.

use proptest::prelude::*;
use simpush::{AnswerCache, AnswerCacheOptions, CacheKey, Config, SimPush, SupportTracer};
use simrank_suite::prelude::*;
use std::collections::HashMap;

const TOP_K: usize = 5;

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

/// What the shadow model remembers about a cached key: the support set
/// it was inserted with and whether a later publish poisoned it.
struct ShadowEntry {
    support: Vec<NodeId>,
    poisoned: bool,
}

fn sorted_intersects(a: &[NodeId], b: &[NodeId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The replay contract under churn: with `max_stale_epochs = 0` a
    // cache hit is only legal when the entry is exact at the current
    // epoch, so every answer — hit or recompute — must equal a fresh
    // cache-disabled `query_seeded` on the current snapshot, bit for
    // bit. The shadow model additionally rejects any hit on a key whose
    // support intersected a publish since its insertion.
    #[test]
    fn cached_answers_stay_bit_identical_and_poisoned_entries_never_serve(
        base in arb_graph(24, 70),
        ops in proptest::collection::vec((0u8..8, 0usize..10_000, 0usize..10_000), 1..80),
        eps in 0.03f64..0.1,
        threshold in 1usize..6,
    ) {
        let n = base.num_nodes();
        let store = GraphStore::with_compaction_threshold(base, threshold);
        let engine = SimPush::new(Config::new(eps));
        let fingerprint = engine.config().fingerprint();
        let cache = AnswerCache::new(AnswerCacheOptions {
            capacity: 16, // small enough that CLOCK eviction can fire too
            shards: 2,
            max_stale_epochs: 0,
        });
        let mut ws = simpush::QueryWorkspace::new();
        let mut shadow: HashMap<CacheKey, ShadowEntry> = HashMap::new();
        let mut hits = 0u64;

        for (kind, a, b) in ops {
            let (s, t) = ((a % n) as NodeId, (b % n) as NodeId);
            match kind {
                0 | 1 => {
                    store.insert_edge(s, t);
                }
                2 => {
                    store.remove_edge(s, t);
                }
                3 => {
                    let info = store.publish();
                    cache.on_publish(info.epoch, &info.touched);
                    for entry in shadow.values_mut() {
                        if sorted_intersects(&entry.support, &info.touched) {
                            entry.poisoned = true;
                        }
                    }
                }
                _ => {
                    // Query `s`, mirroring the Frontend worker loop.
                    let hint = store.version_hint();
                    let key = CacheKey { node: s, top_k: TOP_K, fingerprint };
                    let answer = match cache.lookup(&key, hint) {
                        Some(hit) => {
                            prop_assert_eq!(hit.stale_by, 0, "bound 0 admits exact hits only");
                            let known = shadow.get(&key).expect("hit on a key we never inserted");
                            prop_assert!(
                                !known.poisoned,
                                "poisoned entry served: node {} at epoch {}", s, hint
                            );
                            hits += 1;
                            hit.top
                        }
                        None => {
                            let snap = store.snapshot();
                            prop_assert_eq!(snap.epoch(), hint, "single-threaded hint is exact");
                            let tracer = SupportTracer::new(&*snap);
                            let top =
                                engine.query_seeded_with(&tracer, s, &mut ws).top_k(TOP_K);
                            let support = tracer.take_support();
                            cache.insert(key, snap.epoch(), support.clone(), top.clone());
                            shadow.insert(key, ShadowEntry { support, poisoned: false });
                            top
                        }
                    };
                    // Cache-disabled reference on the same epoch.
                    let fresh = engine.query_seeded(&*store.snapshot(), s).top_k(TOP_K);
                    prop_assert_eq!(answer, fresh, "node {} drifted at epoch {}", s, hint);
                }
            }
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.hits, hits);
    }
}

/// Deterministic poisoning regression: an answer whose support set is
/// touched by the next publish must be invalidated (counted) and miss at
/// the new epoch under a staleness bound of 0, while a disjoint answer
/// is promoted and keeps hitting.
#[test]
fn publish_poisons_exactly_the_intersecting_support_sets() {
    // Two disjoint stars: 1..=4 → 0 and 11..=14 → 10.
    let mut edges: Vec<(NodeId, NodeId)> = (1..=4).map(|v| (v, 0)).collect();
    edges.extend((11..=14).map(|v| (v, 10)));
    let base = GraphBuilder::new()
        .with_num_nodes(20)
        .with_edges(edges)
        .build();
    let store = GraphStore::new(base);
    let engine = SimPush::new(Config::new(0.05));
    let fingerprint = engine.config().fingerprint();
    let cache = AnswerCache::new(AnswerCacheOptions {
        capacity: 64,
        shards: 2,
        max_stale_epochs: 0,
    });
    let mut ws = simpush::QueryWorkspace::new();

    for node in [0u32, 10u32] {
        let snap = store.snapshot();
        let tracer = SupportTracer::new(&*snap);
        let top = engine
            .query_seeded_with(&tracer, node, &mut ws)
            .top_k(TOP_K);
        let key = CacheKey {
            node,
            top_k: TOP_K,
            fingerprint,
        };
        cache.insert(key, snap.epoch(), tracer.take_support(), top);
    }

    // Touch node 0's star only.
    assert!(store.insert_edge(5, 0));
    let info = store.publish();
    assert!(info.touched.contains(&0));
    cache.on_publish(info.epoch, &info.touched);

    let epoch = store.version_hint();
    assert_eq!(epoch, info.epoch);
    let key = |node| CacheKey {
        node,
        top_k: TOP_K,
        fingerprint,
    };
    assert!(
        cache.lookup(&key(0), epoch).is_none(),
        "poisoned entry must not serve at the new epoch"
    );
    let survivor = cache
        .lookup(&key(10), epoch)
        .expect("disjoint entry is promoted across the publish");
    assert_eq!(survivor.stale_by, 0);
    assert_eq!(survivor.computed_epoch, 0);
    assert!(cache.stats().invalidations >= 1);
}

/// Whether Source-Push samples or settles exactly depends on in-degrees its
/// budget pre-scan reads, so those reads must be part of the support set: an
/// update that only changes the in-degree of a node on the last exact
/// frontier — flipping the query between the two paths — has to invalidate
/// the cached answer, in both directions.
#[test]
fn degree_change_that_flips_exact_and_fallback_invalidates_the_entry() {
    let engine = SimPush::new(Config::new(0.05));
    let budget = simpush::source_push::detection_edge_budget(engine.config());
    // 0 ← 1 ← hub 2 ← `budget − 2` sources: 1 + 1 + (budget − 2) in-edges,
    // exactly what the exact phase may scan. `spare` is isolated.
    let sources = budget as NodeId - 2;
    let (hub, spare) = (2, 3 + sources);
    let base = GraphBuilder::new()
        .with_num_nodes(spare as usize + 1)
        .with_edges([(1, 0), (hub, 1)])
        .with_edges((0..sources).map(|s| (3 + s, hub)))
        .build();
    let store = GraphStore::new(base);
    let cache = AnswerCache::new(AnswerCacheOptions {
        capacity: 8,
        shards: 1,
        max_stale_epochs: 0,
    });
    let key = CacheKey {
        node: 0,
        top_k: TOP_K,
        fingerprint: engine.config().fingerprint(),
    };
    let mut ws = simpush::QueryWorkspace::new();
    // Computes and caches node 0's answer; returns the walks it drew.
    let mut miss = |expect_epoch: u64| {
        assert!(cache.lookup(&key, store.version_hint()).is_none());
        let snap = store.snapshot();
        assert_eq!(snap.epoch(), expect_epoch);
        let tracer = SupportTracer::new(&*snap);
        let result = engine.query_seeded_with(&tracer, 0, &mut ws);
        let support = tracer.take_support();
        assert!(
            support.binary_search(&hub).is_ok(),
            "the hub's degree decided the path: it must be in the support set"
        );
        cache.insert(key, snap.epoch(), support, result.top_k(TOP_K));
        assert!(cache.lookup(&key, store.version_hint()).is_some());
        result.stats.num_walks
    };

    assert_eq!(miss(0), 0, "within the budget: settled exactly");

    // One more in-edge on the hub and level 3 no longer fits.
    assert!(store.insert_edge(spare, hub));
    let info = store.publish();
    cache.on_publish(info.epoch, &info.touched);
    assert!(miss(1) > 0, "over the budget: residual walks");

    assert!(store.remove_edge(spare, hub));
    let info = store.publish();
    cache.on_publish(info.epoch, &info.touched);
    assert_eq!(miss(2), 0, "back within the budget");
    assert_eq!(cache.stats().invalidations, 2);
}

/// Stage 1's read set on one fixed query against the read set it had when
/// it drew the whole walk budget before pushing (rebuilt here from the same
/// pieces: `R` walks from `u`, then a push of every level below the detected
/// one). At the commit before the push became its own detector this query's
/// support set held 392 nodes, 97 of them read by stage 1; with it 377 and
/// 82 (sizes recorded here, not asserted: they move with stages 2–4 and the
/// generator).
#[test]
fn stage_one_reads_a_subset_of_what_the_full_walk_budget_read() {
    use simrank_suite::walks::LevelVisits;
    let g = simrank_suite::graph::gen::copying_web(20_000, 8, 0.75, 11);
    let cfg = Config::new(0.02);
    let u: NodeId = 3_007;

    let walk_era = SupportTracer::new(&g);
    let walks = cfg.num_detection_walks();
    let mut visits = LevelVisits::default();
    visits.sample_into(
        &walk_era,
        u,
        WalkParams::new(cfg.c),
        walks,
        cfg.l_star(),
        cfg.seed,
        &mut Vec::new(),
    );
    let detected = visits.deepest_level_with_count(cfg.detection_threshold(walks));
    let mut frontier = vec![u];
    for _ in 0..detected {
        let mut next: Vec<NodeId> = frontier
            .iter()
            .flat_map(|&v| walk_era.in_neighbors(v).iter().copied())
            .collect();
        next.sort_unstable();
        next.dedup();
        frontier = next;
    }
    let walk_era = walk_era.take_support();

    let tracer = SupportTracer::new(&g);
    let pushed = simpush::source_push::source_push(&tracer, u, &cfg);
    assert_eq!(pushed.num_walks, 0);
    let now = tracer.take_support();
    assert!(now.iter().all(|v| walk_era.binary_search(v).is_ok()));
}
