//! Core √c-walk stepping and level-visit counting.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simrank_common::{FxHashMap, NodeId};
use simrank_graph::GraphView;

/// Walk parameters derived from the SimRank decay factor `c`.
#[derive(Debug, Clone, Copy)]
pub struct WalkParams {
    /// Decay factor `c ∈ (0, 1)` (the paper fixes 0.6).
    pub c: f64,
    /// Continuation probability `√c` per step.
    pub sqrt_c: f64,
}

impl WalkParams {
    /// Creates parameters for decay factor `c`.
    ///
    /// # Panics
    /// Panics unless `0 < c < 1`.
    pub fn new(c: f64) -> Self {
        assert!(
            c > 0.0 && c < 1.0,
            "decay factor must lie in (0,1), got {c}"
        );
        Self {
            c,
            sqrt_c: c.sqrt(),
        }
    }
}

impl Default for WalkParams {
    /// The paper's standard setting `c = 0.6`.
    fn default() -> Self {
        Self::new(0.6)
    }
}

/// Performs one √c-walk transition from `node`.
///
/// Returns `None` when the walk terminates — by the `1 − √c` stop coin or
/// because `node` has no in-neighbours (a walk at a source node has nowhere
/// to go; SimRank gives such nodes zero similarity mass beyond themselves).
#[inline]
pub fn step_walk<G: GraphView, R: Rng + ?Sized>(
    g: &G,
    node: NodeId,
    sqrt_c: f64,
    rng: &mut R,
) -> Option<NodeId> {
    if rng.gen::<f64>() >= sqrt_c {
        return None;
    }
    let ins = g.in_neighbors(node);
    if ins.is_empty() {
        return None;
    }
    Some(ins[rng.gen_range(0..ins.len())])
}

/// Samples a full √c-walk from `start` into a caller-provided buffer,
/// truncated after `max_steps` transitions. The buffer is cleared first;
/// afterwards it holds `start` at index 0, so the node at index `ℓ` is the
/// walk's position at step `ℓ`.
///
/// This is the reusable-scratch variant of [`sample_walk`]: a sampling loop
/// that hands the same buffer back in every iteration performs no heap
/// allocation once the buffer has grown to the longest walk seen.
pub fn sample_walk_into<G: GraphView, R: Rng + ?Sized>(
    g: &G,
    start: NodeId,
    params: WalkParams,
    max_steps: usize,
    rng: &mut R,
    walk: &mut Vec<NodeId>,
) {
    walk.clear();
    walk.push(start);
    let mut cur = start;
    while walk.len() <= max_steps {
        match step_walk(g, cur, params.sqrt_c, rng) {
            Some(next) => {
                walk.push(next);
                cur = next;
            }
            None => break,
        }
    }
}

/// Samples a full √c-walk from `start`, truncated after `max_steps`
/// transitions. The returned positions include `start` at index 0, so the
/// node at index `ℓ` is the walk's position at step `ℓ`.
///
/// Allocates a fresh vector per call; hot loops should prefer
/// [`sample_walk_into`] with a reused buffer.
pub fn sample_walk<G: GraphView, R: Rng + ?Sized>(
    g: &G,
    start: NodeId,
    params: WalkParams,
    max_steps: usize,
    rng: &mut R,
) -> Vec<NodeId> {
    let mut walk = Vec::with_capacity(8);
    sample_walk_into(g, start, params, max_steps, rng, &mut walk);
    walk
}

/// Per-level visit counters `H^(ℓ)(u, v)` over a batch of √c-walks — the
/// statistic Source-Push (paper Algorithm 2, lines 1–8) uses to detect the
/// maximum attention level `L`.
#[derive(Debug, Clone, Default)]
pub struct LevelVisits {
    /// `levels[ℓ − 1][v]` = number of sampled walks that were at `v` on
    /// level `ℓ` of the walk tree rooted at the query node (level 0 is
    /// excluded: it is always the query node itself).
    // simcheck: allow(nondet-iteration) — rows take keyed increments and
    // are read via keyed gets or the order-free any() level probe.
    pub levels: Vec<FxHashMap<NodeId, u32>>,
    /// Number of walks sampled.
    pub num_walks: usize,
}

impl LevelVisits {
    /// Samples `num_walks` √c-walks from `start` (each truncated at
    /// `max_level` steps) and tallies per-level visits.
    ///
    /// Allocates fresh counters per call; repeated-query paths should hold a
    /// `LevelVisits` in their workspace and call
    /// [`sample_into`](Self::sample_into) instead.
    pub fn sample<G: GraphView>(
        g: &G,
        start: NodeId,
        params: WalkParams,
        num_walks: usize,
        max_level: usize,
        seed: u64,
    ) -> Self {
        let mut visits = Self::default();
        visits.sample_into(
            g,
            start,
            params,
            num_walks,
            max_level,
            seed,
            &mut Vec::new(),
        );
        visits
    }

    /// Re-runs the sampling of [`sample`](Self::sample) in place, reusing
    /// `self`'s per-level visit maps and the caller-provided walk buffer.
    ///
    /// This is [`sample_residual_into`](Self::sample_residual_into) with the
    /// whole unit of mass still sitting on `start` at level 0 — the same
    /// loop, not a second one — so it is bit-identical to
    /// [`sample`](Self::sample) for the same arguments and steady-state
    /// reuse performs no heap allocation.
    #[allow(clippy::too_many_arguments)]
    pub fn sample_into<G: GraphView>(
        &mut self,
        g: &G,
        start: NodeId,
        params: WalkParams,
        num_walks: usize,
        max_level: usize,
        seed: u64,
        walk_buf: &mut Vec<NodeId>,
    ) {
        self.sample_residual_into(
            g,
            [(start, 1.0)],
            0,
            params,
            num_walks,
            max_level,
            seed,
            walk_buf,
        );
    }

    /// Samples only the part of the walk tree a deterministic push has not
    /// resolved yet. `frontier` holds the nodes the push reached on level
    /// `frontier_level` with their hitting probabilities `h`; each draws
    /// `⌈budget·h⌉` √c-walks of at most `max_level − frontier_level` steps,
    /// tallied at their absolute levels `frontier_level + 1 ..= max_level`
    /// (the rows up to `frontier_level` stay empty).
    ///
    /// A visit count on level `ℓ` is then a sum of independent Bernoullis
    /// with mean `Σ_v ⌈budget·h(v)⌉·h^(ℓ − frontier_level)(v, w) ≥
    /// budget·h^(ℓ)(u, w)` — at least what `budget` walks from the query
    /// node give, so any lower-tail bound stated for those carries over.
    /// With `frontier = [(u, 1.0)]` at level 0 it *is* those walks:
    /// `⌈budget·1⌉ = budget`, one RNG stream, one [`step_walk`] sequence
    /// per walk.
    ///
    /// `self.num_walks` reports the walks actually started. Counter maps
    /// keep their capacity across calls and the walk buffer only grows to
    /// the longest walk ever seen.
    #[allow(clippy::too_many_arguments)]
    pub fn sample_residual_into<G: GraphView>(
        &mut self,
        g: &G,
        frontier: impl IntoIterator<Item = (NodeId, f64)>,
        frontier_level: usize,
        params: WalkParams,
        budget: usize,
        max_level: usize,
        seed: u64,
        walk_buf: &mut Vec<NodeId>,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for level in &mut self.levels {
            level.clear();
        }
        // `deepest_level_with_count` scans every map, so the logical length
        // must match `max_level` exactly: shrink (rare — only when a caller
        // lowers ε between queries on one workspace) and grow as needed.
        self.levels.truncate(max_level);
        while self.levels.len() < max_level {
            // simcheck: allow(nondet-iteration) — empty row constructor.
            self.levels.push(FxHashMap::default());
        }
        self.num_walks = 0;
        let max_steps = max_level.saturating_sub(frontier_level);
        for (start, h) in frontier {
            let walks = (budget as f64 * h).ceil() as usize;
            self.num_walks += walks;
            for _ in 0..walks {
                sample_walk_into(g, start, params, max_steps, &mut rng, walk_buf);
                for (step, &v) in walk_buf.iter().enumerate().skip(1) {
                    *self.levels[frontier_level + step - 1].entry(v).or_insert(0) += 1;
                }
            }
        }
    }

    /// Deepest level (1-based) on which some node was visited at least
    /// `threshold` times; 0 when no level qualifies.
    pub fn deepest_level_with_count(&self, threshold: u32) -> usize {
        for (idx, level) in self.levels.iter().enumerate().rev() {
            if level.values().any(|&cnt| cnt >= threshold) {
                return idx + 1;
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrank_graph::gen::shapes;

    #[test]
    fn walk_params_validation() {
        let p = WalkParams::new(0.6);
        assert!((p.sqrt_c - 0.6f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "decay factor")]
    fn rejects_bad_decay() {
        WalkParams::new(1.5);
    }

    #[test]
    fn walk_stops_at_source_nodes() {
        // Path 0→1→2: in-neighbour chains lead back towards 0, which has no
        // in-neighbours, so no walk can exceed `start` steps.
        let g = shapes::path(3);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            let w = sample_walk(&g, 2, WalkParams::default(), 50, &mut rng);
            assert!(w.len() <= 3, "walk {w:?} exceeded the chain length");
            // Positions must follow in-edges: 2 ← 1 ← 0.
            for (i, &v) in w.iter().enumerate() {
                assert_eq!(v as usize, 2 - i);
            }
        }
    }

    #[test]
    fn walk_truncates_at_max_steps() {
        let g = shapes::cycle(3);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..50 {
            let w = sample_walk(&g, 0, WalkParams::new(0.99), 4, &mut rng);
            assert!(w.len() <= 5, "start + at most 4 transitions");
        }
    }

    #[test]
    fn continuation_rate_matches_sqrt_c() {
        // On a cycle every node has an in-neighbour, so termination is purely
        // the 1−√c coin; mean walk transitions = √c/(1−√c).
        let g = shapes::cycle(10);
        let params = WalkParams::new(0.6);
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 50_000;
        let total: usize = (0..n)
            .map(|_| sample_walk(&g, 0, params, 1000, &mut rng).len() - 1)
            .sum();
        let mean = total as f64 / n as f64;
        let expect = params.sqrt_c / (1.0 - params.sqrt_c);
        assert!(
            (mean - expect).abs() < 0.05,
            "mean transitions {mean:.3} vs expected {expect:.3}"
        );
    }

    #[test]
    fn level_visits_count_walk_mass() {
        // star_in(5): centre 0 has in-neighbours {1,2,3,4}; walks from 0 hit
        // one of them at step 1 and then stop (leaves have no in-edges).
        let g = shapes::star_in(5);
        let params = WalkParams::new(0.6);
        let visits = LevelVisits::sample(&g, 0, params, 40_000, 5, 7);
        assert_eq!(visits.num_walks, 40_000);
        let level1: u32 = visits.levels[0].values().sum();
        let frac = level1 as f64 / 40_000.0;
        assert!(
            (frac - params.sqrt_c).abs() < 0.01,
            "step-1 survival {frac:.3} vs √c {:.3}",
            params.sqrt_c
        );
        assert!(
            visits.levels[1].is_empty(),
            "leaves are sources; no level 2"
        );
        // Each leaf gets ≈ √c/4 of the walks.
        for leaf in 1..5 {
            let cnt = *visits.levels[0].get(&(leaf as NodeId)).unwrap_or(&0);
            let f = cnt as f64 / 40_000.0;
            assert!(
                (f - params.sqrt_c / 4.0).abs() < 0.01,
                "leaf {leaf}: {f:.3}"
            );
        }
    }

    #[test]
    fn deepest_level_detection() {
        let g = shapes::cycle(4);
        let visits = LevelVisits::sample(&g, 0, WalkParams::new(0.6), 5000, 8, 9);
        let deep_all = visits.deepest_level_with_count(1);
        let deep_heavy = visits.deepest_level_with_count(2000);
        assert!(deep_all >= deep_heavy);
        assert!(deep_heavy >= 1, "level 1 holds ~√c of 5000 walks");
        assert_eq!(visits.deepest_level_with_count(u32::MAX), 0);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let g = shapes::cycle(6);
        let a = LevelVisits::sample(&g, 0, WalkParams::default(), 500, 6, 11);
        let b = LevelVisits::sample(&g, 0, WalkParams::default(), 500, 6, 11);
        assert_eq!(a.levels, b.levels);
    }

    #[test]
    fn sample_walk_into_matches_sample_walk() {
        let g = shapes::cycle(5);
        let params = WalkParams::default();
        let mut buf = Vec::new();
        for seed in 0..20u64 {
            let mut r1 = SmallRng::seed_from_u64(seed);
            let mut r2 = SmallRng::seed_from_u64(seed);
            let owned = sample_walk(&g, 2, params, 10, &mut r1);
            sample_walk_into(&g, 2, params, 10, &mut r2, &mut buf);
            assert_eq!(owned, buf, "seed {seed}");
        }
    }

    fn sorted_rows(visits: &LevelVisits) -> Vec<Vec<(NodeId, u32)>> {
        visits
            .levels
            .iter()
            .map(|level| {
                let mut row: Vec<_> = level.iter().map(|(&v, &cnt)| (v, cnt)).collect();
                row.sort_unstable();
                row
            })
            .collect()
    }

    #[test]
    fn unit_mass_at_level_zero_reproduces_the_pre_residual_sampler() {
        // Golden tallies captured from `sample_into` as it was before the
        // sampler learned to start from a frontier (1,000 walks from node 2
        // of the Jeh–Widom graph, 5 levels, seed 0xD1CE): the generalised
        // loop started from {(u, 1.0)} must consume the RNG identically.
        let golden: [&[(NodeId, u32)]; 5] = [
            &[(0, 389), (4, 390)],
            &[(2, 299), (3, 312)],
            &[(0, 108), (1, 239), (4, 121)],
            &[(0, 185), (2, 97), (3, 79)],
            &[(0, 46), (1, 57), (3, 144), (4, 37)],
        ];
        let g = shapes::jeh_widom();
        let params = WalkParams::new(0.6);
        let mut visits = LevelVisits::default();
        visits.sample_residual_into(&g, [(2, 1.0)], 0, params, 1000, 5, 0xD1CE, &mut Vec::new());
        assert_eq!(visits.num_walks, 1000);
        assert_eq!(sorted_rows(&visits), golden);
        let wrapped = LevelVisits::sample(&g, 2, params, 1000, 5, 0xD1CE);
        assert_eq!(wrapped.levels, visits.levels);
    }

    #[test]
    fn residual_walks_are_tallied_at_absolute_levels() {
        // A made-up level-2 frontier on a 6-cycle: {4: 0.5, 1: 0.001}.
        // ⌈100·0.5⌉ + ⌈100·0.001⌉ = 51 walks, each at most 5 − 2 = 3 steps,
        // landing on levels 3..=5 only.
        let g = shapes::cycle(6);
        let mut visits = LevelVisits::default();
        visits.sample_residual_into(
            &g,
            [(4, 0.5), (1, 0.001)],
            2,
            WalkParams::new(0.99),
            100,
            5,
            13,
            &mut Vec::new(),
        );
        assert_eq!(visits.num_walks, 51);
        assert_eq!(visits.levels.len(), 5);
        assert!(visits.levels[0].is_empty() && visits.levels[1].is_empty());
        // In-neighbour of v on the cycle is v − 1: from 4 the walks sit on
        // 3, 2, 1 at levels 3, 4, 5; the single walk from 1 on 0, 5, 4.
        for (level, from_4, from_1) in [(3, 3, 0), (4, 2, 5), (5, 1, 4)] {
            let row = &visits.levels[level - 1];
            assert!(row.keys().all(|&v| v == from_4 || v == from_1), "{row:?}");
            assert!(row[&from_4] <= 50 && row.get(&from_1).is_none_or(|&c| c == 1));
        }
        assert!(visits.levels[2][&3] >= 40, "√c = 0.995: most walks move");
        assert_eq!(visits.deepest_level_with_count(30), 5);
    }

    #[test]
    fn reused_visits_are_bit_identical_to_fresh_ones() {
        // A workspace-held LevelVisits cycled across mismatched shapes must
        // report exactly what a fresh sample reports: stale counts cleared,
        // logical level count re-sized both ways.
        let g1 = shapes::cycle(7);
        let g2 = shapes::star_in(6);
        let mut reused = LevelVisits::default();
        let mut buf = Vec::new();
        let params = WalkParams::default();
        for (g, max_level, seed) in [(&g1, 6usize, 3u64), (&g2, 3, 4), (&g1, 5, 5)] {
            reused.sample_into(g, 0, params, 400, max_level, seed, &mut buf);
            let fresh = LevelVisits::sample(g, 0, params, 400, max_level, seed);
            assert_eq!(reused.levels, fresh.levels);
            assert_eq!(reused.num_walks, fresh.num_walks);
            assert_eq!(reused.levels.len(), max_level);
        }
    }
}
