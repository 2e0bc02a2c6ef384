//! Deterministic mixed update/query workloads for dynamic serving
//! scenarios.
//!
//! The paper's dynamic story needs a repeatable stream of edge updates and
//! query nodes to drive a [`GraphStore`](simrank_graph::GraphStore):
//! benchmarks, the concurrency tests and the serving example all want the
//! *same* workload for a given seed so runs are comparable across PRs.
//! [`mixed_workload`] generates one by replaying candidate updates against
//! a private [`MutableGraph`] replica, which guarantees every emitted
//! update is **effective** (inserts name absent edges, removes name present
//! ones) — a stream of no-ops would make update-latency numbers
//! meaninglessly cheap.
//!
//! [`open_loop_arrivals`] adds the *when* to the workload's *what*: a
//! deterministic Poisson-like arrival schedule (with a burstiness knob)
//! that the serving front-end benchmarks replay open-loop to sweep offered
//! load past the saturation knee.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simrank_common::NodeId;
use simrank_graph::{
    CsrGraph, GraphUpdate, GraphView, MutableGraph, Partitioner, RangePartitioner,
};
use std::time::Duration;

/// A mixed serving workload: an update stream and a query stream.
#[derive(Debug, Clone)]
pub struct MixedWorkload {
    /// Edge updates, in arrival order; every one is effective when the
    /// stream is replayed in order from the generating base graph.
    pub updates: Vec<GraphUpdate>,
    /// Query nodes (uniform over the node universe).
    pub queries: Vec<NodeId>,
}

impl MixedWorkload {
    /// Replays the update stream onto a copy of `base`, returning the graph
    /// a store serving this workload ends at.
    pub fn final_graph(&self, base: &CsrGraph) -> CsrGraph {
        self.graph_after(base, self.updates.len())
    }

    /// Replays the first `count` updates (clamped to the stream's length)
    /// onto a copy of `base` — the graph of the epoch or cut that exactly
    /// that prefix had been committed at.
    pub fn graph_after(&self, base: &CsrGraph, count: usize) -> CsrGraph {
        let mut replica = MutableGraph::from_csr(base);
        for &u in &self.updates[..count.min(self.updates.len())] {
            let effective = match u {
                GraphUpdate::Insert(s, t) => replica.insert_edge(s, t),
                GraphUpdate::Remove(s, t) => replica.remove_edge(s, t),
            };
            debug_assert!(effective, "generated workloads contain no no-ops");
        }
        replica.snapshot()
    }
}

/// Generates a deterministic mixed workload over `base`.
///
/// Each update is a removal with probability `remove_fraction` (when the
/// evolving graph still has edges), otherwise an insertion of a currently
/// absent edge; targets are chosen uniformly. When the evolving graph
/// saturates (every non-self-loop edge present) a removal is forced
/// regardless of `remove_fraction`, so generation always terminates. Same
/// `(base, sizes, seed)` → same workload, byte for byte.
///
/// # Panics
/// Panics if `base` has fewer than 2 nodes or `remove_fraction` is outside
/// `[0, 1]`.
pub fn mixed_workload(
    base: &CsrGraph,
    num_updates: usize,
    num_queries: usize,
    remove_fraction: f64,
    seed: u64,
) -> MixedWorkload {
    // On one shard no insert can cross, so the shard-aware generator
    // draws exactly this stream.
    sharded_workload(
        base,
        &RangePartitioner::new(base.num_nodes(), 1),
        num_updates,
        num_queries,
        remove_fraction,
        0.0,
        seed,
    )
}

/// Generates a deterministic **shard-aware** mixed workload over `base`:
/// like [`mixed_workload`], but each inserted edge crosses shard
/// boundaries of `partitioner` with probability `cross_fraction` (and
/// stays shard-local otherwise). Removals target uniformly random present
/// edges, so over time they inherit the insert mix.
///
/// This is the knob sharded serving benchmarks sweep: cross-shard updates
/// must be mirrored into both incident shards of a
/// [`ShardedStore`](simrank_graph::ShardedStore), so `cross_fraction`
/// directly sets the replication tax, and a locality-friendly partitioner
/// (e.g. [`RangePartitioner`], whose
/// chunks nest across shard counts when the node count divides evenly)
/// keeps one generated stream shard-local at every smaller shard count
/// too — see the nesting caveat on `RangePartitioner` itself.
///
/// Locality is best-effort under pressure: if rejection sampling cannot
/// find an absent edge with the requested side-ness (e.g. a shard's local
/// edge space saturates), the generator progressively relaxes the
/// constraint rather than livelocking — every emitted update is still
/// guaranteed effective. Same `(base, partitioner, sizes, seed)` → same
/// workload, byte for byte.
///
/// # Panics
/// Panics if `base` has fewer than 2 nodes or `remove_fraction` /
/// `cross_fraction` is outside `[0, 1]`.
pub fn sharded_workload<P: Partitioner>(
    base: &CsrGraph,
    partitioner: &P,
    num_updates: usize,
    num_queries: usize,
    remove_fraction: f64,
    cross_fraction: f64,
    seed: u64,
) -> MixedWorkload {
    let n = base.num_nodes();
    assert!(n >= 2, "need at least two nodes to generate edge updates");
    assert!(
        (0.0..=1.0).contains(&remove_fraction),
        "remove_fraction must be a probability"
    );
    assert!(
        (0.0..=1.0).contains(&cross_fraction),
        "cross_fraction must be a probability"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut replica = MutableGraph::from_csr(base);
    let mut updates = Vec::with_capacity(num_updates);
    // Insertions only ever target absent non-self-loop edges, so once the
    // replica holds them all the insert branch can never make progress —
    // force removals past that point instead of livelocking.
    let insert_capacity = n * (n - 1);
    // Consecutive failed insert attempts; past the patience budget the
    // side-ness constraint is dropped so local saturation cannot livelock
    // the generator either.
    let mut stuck = 0usize;
    const PATIENCE: usize = 64;
    while updates.len() < num_updates {
        let saturated = replica.num_edges() >= insert_capacity;
        if replica.num_edges() > 0 && (saturated || rng.gen_bool(remove_fraction)) {
            // Remove a present edge: rejection-sample a node with
            // out-degree > 0, then one of its targets.
            let s = loop {
                let s = rng.gen_range(0..n) as NodeId;
                if replica.out_degree(s) > 0 {
                    break s;
                }
            };
            let outs = replica.out_neighbors(s);
            let t = outs[rng.gen_range(0..outs.len())];
            replica.remove_edge(s, t);
            updates.push(GraphUpdate::Remove(s, t));
            stuck = 0;
        } else {
            let s = rng.gen_range(0..n) as NodeId;
            // Short-circuits before any draw on one shard, which is what
            // makes `mixed_workload` this generator on one shard.
            let want_cross = partitioner.num_shards() > 1
                && cross_fraction > 0.0
                && rng.gen_bool(cross_fraction);
            let t = rng.gen_range(0..n) as NodeId;
            let crosses = partitioner.shard_of(s) != partitioner.shard_of(t);
            let side_ok = crosses == want_cross || stuck >= PATIENCE;
            if s != t && side_ok && replica.insert_edge(s, t) {
                updates.push(GraphUpdate::Insert(s, t));
                stuck = 0;
            } else {
                stuck += 1;
            }
        }
    }
    let queries = (0..num_queries)
        .map(|_| rng.gen_range(0..n) as NodeId)
        .collect();
    MixedWorkload { updates, queries }
}

/// Deterministic open-loop arrival schedule: `count` absolute offsets
/// from the run start, in nondecreasing order, with Poisson-like
/// exponential interarrival gaps of mean `mean_gap` drawn from the
/// vendored RNG (inverse-CDF sampling, so the stream is identical on
/// every platform for a fixed seed).
///
/// `burstiness` is the burst knob in `[0, 1)`: with that probability an
/// arrival lands **simultaneously** with its predecessor (gap zero — the
/// thundering-herd shape), and the remaining gaps are stretched by
/// `1 / (1 − burstiness)` so the *mean* offered rate is unchanged —
/// turning the knob up makes traffic spikier at constant load, which is
/// exactly what stresses a bounded admission queue.
///
/// Open loop means the schedule never reacts to the server: a driver
/// submits at (or as soon as possible after) each offset regardless of
/// how the previous requests fared, which is what makes saturation
/// visible — a closed loop would self-throttle and hide the knee.
///
/// # Panics
/// Panics if `mean_gap` is zero or `burstiness` is outside `[0, 1)`.
pub fn open_loop_arrivals(
    count: usize,
    mean_gap: Duration,
    burstiness: f64,
    seed: u64,
) -> Vec<Duration> {
    assert!(!mean_gap.is_zero(), "mean interarrival gap must be > 0");
    assert!(
        (0.0..1.0).contains(&burstiness),
        "burstiness must be in [0, 1)"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let stretched_mean = mean_gap.as_secs_f64() / (1.0 - burstiness);
    let mut at = 0.0f64;
    let mut arrivals = Vec::with_capacity(count);
    for _ in 0..count {
        if burstiness == 0.0 || !rng.gen_bool(burstiness) {
            // Exponential via inverse CDF; gen::<f64>() ∈ [0, 1) so the
            // log argument is in (0, 1] and the gap is finite and ≥ 0.
            let u: f64 = rng.gen();
            at += -stretched_mean * (1.0 - u).ln();
        }
        arrivals.push(Duration::from_secs_f64(at));
    }
    arrivals
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrank_graph::gen;

    #[test]
    fn same_seed_same_workload() {
        let g = gen::gnm(100, 500, 3);
        let a = mixed_workload(&g, 50, 10, 0.3, 42);
        let b = mixed_workload(&g, 50, 10, 0.3, 42);
        assert_eq!(a.updates, b.updates);
        assert_eq!(a.queries, b.queries);
        let c = mixed_workload(&g, 50, 10, 0.3, 43);
        assert_ne!(a.updates, c.updates, "different seed, different stream");
    }

    #[test]
    fn every_update_is_effective_on_replay() {
        let g = gen::gnm(80, 400, 5);
        let wl = mixed_workload(&g, 120, 5, 0.4, 9);
        assert_eq!(wl.updates.len(), 120);
        let mut replica = MutableGraph::from_csr(&g);
        for (i, &u) in wl.updates.iter().enumerate() {
            let effective = match u {
                GraphUpdate::Insert(s, t) => replica.insert_edge(s, t),
                GraphUpdate::Remove(s, t) => replica.remove_edge(s, t),
            };
            assert!(effective, "update {i} ({u:?}) was a no-op");
        }
        assert_eq!(wl.final_graph(&g), replica.snapshot());
    }

    #[test]
    fn fractions_steer_the_mix() {
        let g = gen::gnm(60, 600, 1);
        let all_inserts = mixed_workload(&g, 40, 0, 0.0, 7);
        assert!(all_inserts
            .updates
            .iter()
            .all(|u| matches!(u, GraphUpdate::Insert(..))));
        let all_removes = mixed_workload(&g, 40, 0, 1.0, 7);
        assert!(all_removes
            .updates
            .iter()
            .all(|u| matches!(u, GraphUpdate::Remove(..))));
    }

    #[test]
    fn saturated_graph_forces_removals_instead_of_livelocking() {
        // 3 nodes, all 6 non-self-loop edges present: with remove_fraction
        // 0 an insert can never succeed, so removals must be forced for
        // generation to terminate.
        let g = simrank_graph::GraphBuilder::new()
            .with_edges([(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)])
            .build();
        let wl = mixed_workload(&g, 4, 2, 0.0, 3);
        assert_eq!(wl.updates.len(), 4);
        assert!(matches!(wl.updates[0], GraphUpdate::Remove(..)));
        // …and once an edge is free again, inserts resume.
        assert!(wl
            .updates
            .iter()
            .any(|u| matches!(u, GraphUpdate::Insert(..))));
        wl.final_graph(&g); // replays without a no-op (debug_assert inside)
    }

    #[test]
    fn queries_are_in_range() {
        let g = gen::gnm(30, 100, 2);
        let wl = mixed_workload(&g, 10, 100, 0.2, 11);
        assert_eq!(wl.queries.len(), 100);
        assert!(wl.queries.iter().all(|&q| (q as usize) < 30));
    }

    mod sharded {
        use super::*;
        use simrank_graph::{Partitioner, RangePartitioner};

        #[test]
        fn same_seed_same_workload_and_every_update_effective() {
            let g = gen::gnm(64, 320, 8);
            let p = RangePartitioner::new(64, 4);
            let a = sharded_workload(&g, &p, 100, 10, 0.3, 0.2, 5);
            let b = sharded_workload(&g, &p, 100, 10, 0.3, 0.2, 5);
            assert_eq!(a.updates, b.updates);
            assert_eq!(a.queries, b.queries);
            assert_eq!(a.updates.len(), 100);
            let mut replica = MutableGraph::from_csr(&g);
            for (i, &u) in a.updates.iter().enumerate() {
                let (s, t) = u.endpoints();
                let effective = match u {
                    GraphUpdate::Insert(..) => replica.insert_edge(s, t),
                    GraphUpdate::Remove(..) => replica.remove_edge(s, t),
                };
                assert!(effective, "update {i} ({u:?}) was a no-op");
            }
        }

        #[test]
        fn zero_cross_fraction_keeps_inserts_shard_local() {
            let g = gen::gnm(64, 100, 3);
            let p = RangePartitioner::new(64, 4);
            let wl = sharded_workload(&g, &p, 120, 0, 0.2, 0.0, 7);
            for u in &wl.updates {
                if matches!(u, GraphUpdate::Insert(..)) {
                    let (s, t) = u.endpoints();
                    assert_eq!(
                        p.shard_of(s),
                        p.shard_of(t),
                        "cross insert {u:?} despite cross_fraction = 0"
                    );
                }
            }
        }

        #[test]
        fn full_cross_fraction_makes_inserts_cross_shard() {
            let g = gen::gnm(64, 100, 3);
            let p = RangePartitioner::new(64, 2);
            let wl = sharded_workload(&g, &p, 80, 0, 0.0, 1.0, 9);
            assert!(wl
                .updates
                .iter()
                .all(|u| matches!(u, GraphUpdate::Insert(..))));
            for u in &wl.updates {
                let (s, t) = u.endpoints();
                assert_ne!(p.shard_of(s), p.shard_of(t), "local insert {u:?}");
            }
        }

        #[test]
        fn locality_survives_shard_count_halving_with_nested_ranges() {
            // A stream generated local at 8 range shards is local at 4, 2
            // and 1 — the property that lets one workload be reused across
            // shard counts.
            let g = gen::gnm(160, 400, 12);
            let fine = RangePartitioner::new(160, 8);
            let wl = sharded_workload(&g, &fine, 150, 0, 0.25, 0.0, 13);
            for k in [1usize, 2, 4] {
                let coarse = RangePartitioner::new(160, k);
                for u in &wl.updates {
                    if matches!(u, GraphUpdate::Insert(..)) {
                        let (s, t) = u.endpoints();
                        assert_eq!(coarse.shard_of(s), coarse.shard_of(t), "K={k}: {u:?}");
                    }
                }
            }
        }

        #[test]
        fn arrivals_are_deterministic_monotone_and_rate_faithful() {
            let mean = Duration::from_micros(500);
            let a = open_loop_arrivals(4000, mean, 0.0, 11);
            let b = open_loop_arrivals(4000, mean, 0.0, 11);
            assert_eq!(a, b, "same seed, same schedule");
            assert_ne!(a, open_loop_arrivals(4000, mean, 0.0, 12));
            assert_eq!(a.len(), 4000);
            assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets nondecreasing");
            // Mean gap over 4000 exponential draws lands within 10% of the
            // target (deterministic for the fixed seed).
            let mean_gap = a.last().unwrap().as_secs_f64() / a.len() as f64;
            let target = mean.as_secs_f64();
            assert!(
                (mean_gap - target).abs() < 0.1 * target,
                "mean gap {mean_gap} vs target {target}"
            );
        }

        #[test]
        fn burstiness_adds_zero_gaps_but_preserves_the_mean_rate() {
            let mean = Duration::from_micros(500);
            let smooth = open_loop_arrivals(4000, mean, 0.0, 7);
            let bursty = open_loop_arrivals(4000, mean, 0.5, 7);
            let zero_gaps = |s: &[Duration]| s.windows(2).filter(|w| w[0] == w[1]).count();
            assert_eq!(zero_gaps(&smooth), 0, "no coincident arrivals at b=0");
            let bursts = zero_gaps(&bursty);
            assert!(
                (1600..2400).contains(&bursts),
                "≈half the arrivals should be coincident at b=0.5, got {bursts}"
            );
            // The stretch factor keeps the long-run rate the same.
            let rate = |s: &[Duration]| s.len() as f64 / s.last().unwrap().as_secs_f64();
            let (rs, rb) = (rate(&smooth), rate(&bursty));
            assert!(
                (rs - rb).abs() < 0.15 * rs,
                "bursty rate {rb} drifted from smooth rate {rs}"
            );
        }

        #[test]
        #[should_panic(expected = "burstiness must be")]
        fn rejects_full_burstiness() {
            open_loop_arrivals(10, Duration::from_millis(1), 1.0, 1);
        }

        #[test]
        fn local_saturation_relaxes_instead_of_livelocking() {
            // 4 nodes, 2 range shards of {0,1} and {2,3}. With
            // cross_fraction 0 only 4 local non-self-loop edges exist;
            // asking for more forces the generator to relax.
            let g = simrank_graph::GraphBuilder::new().with_num_nodes(4).build();
            let p = RangePartitioner::new(4, 2);
            let wl = sharded_workload(&g, &p, 6, 0, 0.0, 0.0, 1);
            assert_eq!(wl.updates.len(), 6, "generation must terminate");
            wl.final_graph(&g); // replays without a no-op (debug_assert inside)
        }
    }
}
