//! The benchmark's own seeded generators: query keys and the stationary
//! toggle update stream.
//!
//! They live here, not in the library, because the benchmark is frozen: a
//! later PR may rewrite `simrank_eval`'s generators, and the inputs of this
//! measuring stick must not move with it. Everything is a pure function of
//! its seed.

use simrank_suite::graph::{CsrGraph, GraphUpdate, GraphView};
use std::collections::HashSet;

/// SplitMix64 (Steele, Lea, Flood 2014): the one PRNG the benchmark uses.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2⁻³² for every
    /// `n` the benchmark uses).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// An independent stream seed for `label` under the run seed, so keys and
/// updates never share random numbers.
pub fn derive(seed: u64, label: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in label.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    SplitMix64::new(seed ^ h).next_u64()
}

/// Zipf(`s`) over ranks `0..n` by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs a non-empty universe");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += (rank as f64).powf(-s);
            cdf.push(acc);
        }
        for p in &mut cdf {
            *p /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&p| p <= u)
            .min(self.cdf.len() - 1)
    }
}

/// An endless seeded stream of query nodes over a fixed node universe. The
/// universe is fixed by the graph seed, not the run seed: every run asks
/// about the same nodes and only the order changes, so the cost of a run's
/// queries does not depend on which nodes its seed happened to draw.
#[derive(Debug, Clone)]
pub enum KeyStream {
    /// Seeded shuffles of the universe, one after the other: uniform, and
    /// every pass visits every node exactly once.
    Cycle {
        rng: SplitMix64,
        universe: Vec<u32>,
        next: usize,
    },
    /// Zipf-ranked draws with replacement (rank 0, the universe's first
    /// node, is the hottest).
    Zipf {
        rng: SplitMix64,
        zipf: Zipf,
        universe: Vec<u32>,
    },
}

impl KeyStream {
    pub fn cycle(stream_seed: u64, universe: Vec<u32>) -> Self {
        assert!(
            !universe.is_empty(),
            "a key stream needs a non-empty universe"
        );
        Self::Cycle {
            rng: SplitMix64::new(stream_seed),
            next: universe.len(),
            universe,
        }
    }

    pub fn zipf(stream_seed: u64, universe: Vec<u32>, s: f64) -> Self {
        Self::Zipf {
            rng: SplitMix64::new(stream_seed),
            zipf: Zipf::new(universe.len(), s),
            universe,
        }
    }

    pub fn next_key(&mut self) -> u32 {
        match self {
            Self::Cycle {
                rng,
                universe,
                next,
            } => {
                if *next == universe.len() {
                    shuffle(universe, rng);
                    *next = 0;
                }
                *next += 1;
                universe[*next - 1]
            }
            Self::Zipf {
                rng,
                zipf,
                universe,
            } => universe[zipf.sample(rng)],
        }
    }

    pub fn take_keys(&mut self, count: usize) -> Vec<u32> {
        (0..count).map(|_| self.next_key()).collect()
    }
}

/// Fisher–Yates.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// `size` distinct nodes of an `n`-node graph, fixed by `universe_seed`.
pub fn node_universe(universe_seed: u64, n: usize, size: usize) -> Vec<u32> {
    let mut rng = SplitMix64::new(derive(universe_seed, "key-universe"));
    distinct_below(&mut rng, n, size.min(n))
        .into_iter()
        .map(|v| v as u32)
        .collect()
}

/// `count` distinct values below `n`, in draw order.
pub fn distinct_below(rng: &mut SplitMix64, n: usize, count: usize) -> Vec<usize> {
    assert!(count <= n, "cannot draw {count} distinct values below {n}");
    let mut seen = HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let v = rng.below(n);
        if seen.insert(v) {
            out.push(v);
        }
    }
    out
}

/// The stationary update stream: a pool of `P` distinct edges of the base
/// graph, each either present or absent; an update flips one uniformly
/// chosen slot. Every update is effective, the edge count stays within
/// `±P/2` of `m − P/2` and the degree distribution does not drift — unlike
/// uniformly random inserts, which densify a copying-web graph and make
/// service time grow inside one run.
#[derive(Debug, Clone)]
pub struct ToggleStream {
    pool: Vec<(u32, u32)>,
    present: Vec<bool>,
    rng: SplitMix64,
}

impl ToggleStream {
    /// Draws the pool and returns the stream together with the initial
    /// batch that removes every second pool edge (applied during set-up).
    pub fn new(base: &CsrGraph, pool_size: usize, seed: u64) -> (Self, Vec<GraphUpdate>) {
        let mut rng = SplitMix64::new(derive(seed, "updates"));
        let mut picks = distinct_below(&mut rng, base.num_edges(), pool_size);
        picks.sort_unstable();
        let mut pool = Vec::with_capacity(pool_size);
        let mut next = picks.iter().copied().peekable();
        for (i, e) in base.edges().enumerate() {
            if next.peek() == Some(&i) {
                pool.push(e);
                next.next();
            }
        }
        // `picks` was sorted to walk the edge list once; restore a seeded
        // order so slot index carries no information about node id.
        shuffle(&mut pool, &mut rng);
        let present: Vec<bool> = (0..pool_size).map(|i| i % 2 == 0).collect();
        let initial = pool
            .iter()
            .zip(&present)
            .filter(|(_, &p)| !p)
            .map(|(&(s, t), _)| GraphUpdate::Remove(s, t))
            .collect();
        (Self { pool, present, rng }, initial)
    }

    pub fn next_update(&mut self) -> GraphUpdate {
        let slot = self.rng.below(self.pool.len());
        let (s, t) = self.pool[slot];
        self.present[slot] = !self.present[slot];
        if self.present[slot] {
            GraphUpdate::Insert(s, t)
        } else {
            GraphUpdate::Remove(s, t)
        }
    }

    pub fn next_batch(&mut self, size: usize) -> Vec<GraphUpdate> {
        (0..size).map(|_| self.next_update()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrank_suite::graph::gen::copying_web;
    use simrank_suite::graph::MutableGraph;
    use simrank_suite::simpush::{source_push::source_push, Config};

    #[test]
    fn same_seed_gives_identical_streams() {
        let g = copying_web(5_000, 6, 0.75, 7);
        let universe = node_universe(7, 5_000, 512);
        assert_eq!(universe, node_universe(7, 5_000, 512));
        for seed in [1u64, 99] {
            let run = |seed| {
                let keys = KeyStream::cycle(seed, universe.clone()).take_keys(1_000);
                let hot = KeyStream::zipf(seed, universe.clone(), 1.1).take_keys(1_000);
                let (mut toggle, initial) = ToggleStream::new(&g, 256, seed);
                (keys, hot, initial, toggle.next_batch(1_000))
            };
            assert_eq!(run(seed), run(seed));
        }
        assert_ne!(
            KeyStream::cycle(1, universe.clone()).take_keys(64),
            KeyStream::cycle(2, universe.clone()).take_keys(64)
        );
    }

    #[test]
    fn every_pass_of_a_cycle_visits_the_whole_universe_once() {
        let universe = node_universe(7, 5_000, 100);
        let mut want = universe.clone();
        want.sort_unstable();
        let mut stream = KeyStream::cycle(3, universe);
        let mut passes = Vec::new();
        for _ in 0..3 {
            let mut pass = stream.take_keys(100);
            passes.push(pass.clone());
            pass.sort_unstable();
            assert_eq!(pass, want);
        }
        assert_ne!(passes[0], passes[1], "each pass is shuffled afresh");
    }

    #[test]
    fn every_toggle_is_effective_and_edge_count_is_stationary() {
        let g = copying_web(5_000, 6, 0.75, 7);
        let pool = 512;
        let (mut toggle, initial) = ToggleStream::new(&g, pool, 3);
        let mut replica = MutableGraph::from_csr(&g);
        let apply = |replica: &mut MutableGraph, u: GraphUpdate| match u {
            GraphUpdate::Insert(s, t) => replica.insert_edge(s, t),
            GraphUpdate::Remove(s, t) => replica.remove_edge(s, t),
        };
        assert_eq!(initial.len(), pool / 2);
        for u in initial {
            assert!(apply(&mut replica, u), "initial removal must be effective");
        }
        let start = replica.num_edges();
        for i in 0..20_000 {
            assert!(apply(&mut replica, toggle.next_update()), "update {i}");
            let m = replica.num_edges();
            assert!(
                m.abs_diff(start) <= pool / 2,
                "edge count {m} left the band"
            );
        }
    }

    #[test]
    fn zipf_frequencies_follow_rank_order() {
        let zipf = Zipf::new(64, 1.1);
        let mut rng = SplitMix64::new(5);
        let mut counts = [0usize; 64];
        for _ in 0..200_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // Adjacent low ranks are far enough apart to order strictly; the
        // tail is compared in blocks.
        for r in 0..7 {
            assert!(counts[r] > counts[r + 1], "rank {r}: {counts:?}");
        }
        let block = |lo: usize| counts[lo..lo + 8].iter().sum::<usize>();
        for lo in (8..56).step_by(8) {
            assert!(block(lo) > block(lo + 8), "block {lo}: {counts:?}");
        }
        let expect0 = 200_000.0 / (1..=64).map(|r| (r as f64).powf(-1.1)).sum::<f64>();
        assert!((counts[0] as f64 / expect0 - 1.0).abs() < 0.03);
    }

    fn mean_gu_entries(g: &impl GraphView, keys: &[u32]) -> f64 {
        let cfg = Config::new(0.02);
        let total: usize = keys
            .iter()
            .map(|&u| source_push(g, u, &cfg).gu.total_entries())
            .sum();
        total as f64 / keys.len() as f64
    }

    /// The drift that motivated the toggle stream. `Gu` size is the work a
    /// query does. Over 20k toggles its mean over 500 fixed keys moves from
    /// 387.4 to 384.9; over 20k uniformly random inserts (what
    /// `simrank_eval::mixed::mixed_workload` offers) it grows from 394 to
    /// 14,011, because the inserts give in-edges to the copying web's many
    /// source nodes, where walks used to end. Latency measured late in such
    /// a run is not latency of the system measured early in it.
    #[test]
    fn toggle_stream_does_not_drift_but_random_inserts_do() {
        let g = copying_web(20_000, 10, 0.75, 7);
        let keys = node_universe(7, 20_000, 500);
        let apply = |graph: &mut MutableGraph, updates: Vec<GraphUpdate>| {
            for u in updates {
                match u {
                    GraphUpdate::Insert(s, t) => graph.insert_edge(s, t),
                    GraphUpdate::Remove(s, t) => graph.remove_edge(s, t),
                };
            }
        };

        // The stream's stationary state has half the pool absent, so the
        // reference point is the graph after the initial batch.
        let (mut toggle, initial) = ToggleStream::new(&g, 2_048, 1);
        let mut toggled = MutableGraph::from_csr(&g);
        apply(&mut toggled, initial);
        let before = mean_gu_entries(&toggled.snapshot(), &keys);
        apply(&mut toggled, toggle.next_batch(20_000));
        let after_toggle = mean_gu_entries(&toggled.snapshot(), &keys);
        assert!(
            (after_toggle / before - 1.0).abs() < 0.03,
            "toggle stream drifted: {before} -> {after_toggle}"
        );

        let mut rng = SplitMix64::new(derive(1, "random-inserts"));
        let mut densified = MutableGraph::from_csr(&g);
        let start = mean_gu_entries(&g, &keys);
        for _ in 0..20_000 {
            densified.insert_edge(rng.below(20_000) as u32, rng.below(20_000) as u32);
        }
        let after_inserts = mean_gu_entries(&densified.snapshot(), &keys);
        assert!(
            after_inserts > 10.0 * start,
            "random inserts no longer drift: {start} -> {after_inserts}"
        );
    }
}
