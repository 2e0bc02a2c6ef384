//! Full SimPush query assembly (paper Algorithm 1) with per-stage
//! instrumentation.

use crate::config::Config;
use crate::gamma::compute_gammas_with;
use crate::hitting::attention_hitting_with;
use crate::reverse_push::reverse_push_with;
use crate::source_push::source_push_with;
use crate::workspace::QueryWorkspace;
use simrank_common::seeds::splitmix64;
use simrank_common::{NodeId, Timer};
use simrank_graph::GraphView;
use std::sync::{Mutex, TryLockError};
use std::time::Duration;

/// The SimPush query engine. Holds the configuration plus a lazily-grown
/// internal [`QueryWorkspace`] — there is no index, which is the point:
/// construction is free and any [`GraphView`] (including a live, mutating
/// graph) can be queried directly, while repeated [`query`](Self::query)
/// calls reuse the engine's scratch buffers instead of reallocating them.
///
/// Callers that manage their own scratch (one workspace per serving thread)
/// use [`query_with`](Self::query_with); both paths return bit-identical
/// results.
pub struct SimPush {
    config: Config,
    /// Engine-internal scratch for [`query`](Self::query). A `Mutex` rather
    /// than a `RefCell` so the engine stays `Sync`; acquired with
    /// `try_lock` only — a contended call (several threads sharing one
    /// engine) falls back to a fresh cold workspace instead of serializing,
    /// so concurrent `query` calls stay as parallel as they were before the
    /// engine held scratch. Serving workers use their own per-thread
    /// workspaces and never touch this one.
    workspace: Mutex<QueryWorkspace>,
}

impl Clone for SimPush {
    /// Clones the configuration; the clone starts with a fresh (empty)
    /// internal workspace.
    fn clone(&self) -> Self {
        Self::new(self.config.clone())
    }
}

impl std::fmt::Debug for SimPush {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimPush")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// Structural and timing statistics of one query — the source of the paper's
/// Table 3 (stage breakdown) and in-text §5.2 claims (average `L`,
/// attention-node counts).
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Residual √c-walks actually started for level detection: 0 when the
    /// exact phase of Source-Push settled the depth (always, in exact mode).
    pub num_walks: usize,
    /// Levels actually pushed, before the attention-based trim.
    pub detected_level: usize,
    /// Final max level `L` of `Gu`.
    pub level: usize,
    /// Theoretical cap `L*`.
    pub l_star: usize,
    /// Attention nodes per level (index 0 always 0).
    pub attention_per_level: Vec<usize>,
    /// Total attention nodes.
    pub num_attention: usize,
    /// `Gu` population per level.
    pub gu_nodes_per_level: Vec<usize>,
    /// Total `(level, node)` entries in `Gu`.
    pub gu_total_entries: usize,
    /// Stage 1 sampling time: the walk sampler call itself, timed directly
    /// (zero when no walk was drawn).
    pub time_sampling: Duration,
    /// Stage 1 push time (hitting probabilities from `u`): stage 1 minus
    /// [`time_sampling`](Self::time_sampling).
    pub time_source_push: Duration,
    /// Stage 2a time (hitting probabilities inside `Gu`).
    pub time_hitting: Duration,
    /// Stage 2b time (`γ` recursion).
    pub time_gamma: Duration,
    /// Stage 3 time (Reverse-Push).
    pub time_reverse_push: Duration,
    /// End-to-end query time.
    pub time_total: Duration,
}

impl QueryStats {
    /// Stage-1 total (sampling + push), as reported in the paper's Table 3
    /// "Source-Push" row.
    pub fn time_stage1(&self) -> Duration {
        self.time_sampling + self.time_source_push
    }

    /// Stage-2 total (hitting + `γ`), Table 3 "γ computation" row.
    pub fn time_stage2(&self) -> Duration {
        self.time_hitting + self.time_gamma
    }
}

/// Result of a single-source query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The query node.
    pub query: NodeId,
    /// `s̃(u, v)` for every `v` (dense; `scores[u] = 1`).
    pub scores: Vec<f64>,
    /// Structural/timing statistics.
    pub stats: QueryStats,
}

impl QueryResult {
    /// Top-`k` nodes by estimated SimRank, excluding the query node itself
    /// (whose similarity is 1 by definition). Ties break towards smaller
    /// node ids; zero-score nodes are never returned, so fewer than `k`
    /// entries may come back on sparse graphs.
    ///
    /// Cost is `O(n + p + k log k)` for `n` nodes and `p` positive-score
    /// entries: one scan of all `n` scores collects the `p` candidates, a
    /// selection pass partitions the true top `k` to the front (the
    /// tie-break keeps the selection total-order), and only those `k` are
    /// sorted — on web-scale score vectors this avoids the `O(p log p)`
    /// full sort a serving loop would pay per query.
    pub fn top_k(&self, k: usize) -> Vec<(NodeId, f64)> {
        let mut entries: Vec<(NodeId, f64)> = self
            .scores
            .iter()
            .enumerate()
            .filter(|&(v, &s)| v as NodeId != self.query && s > 0.0)
            .map(|(v, &s)| (v as NodeId, s))
            .collect();
        if k == 0 {
            return Vec::new();
        }
        let rank = |a: &(NodeId, f64), b: &(NodeId, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
        if entries.len() > k {
            entries.select_nth_unstable_by(k - 1, rank);
            entries.truncate(k);
        }
        entries.sort_unstable_by(rank);
        entries
    }
}

impl SimPush {
    /// Creates an engine with the given configuration.
    pub fn new(config: Config) -> Self {
        config.validate();
        Self {
            config,
            workspace: Mutex::new(QueryWorkspace::new()),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Answers a single-source SimRank query for `u` (paper Algorithm 1)
    /// using the engine's internal workspace: the first query grows the
    /// scratch buffers, subsequent queries reuse them.
    ///
    /// Concurrent callers sharing one engine never serialize on the
    /// internal workspace: if another query holds it, this call falls back
    /// to a fresh (cold) workspace — results are bit-identical either way,
    /// so the fallback costs allocation churn, not correctness or
    /// parallelism. Threads that want guaranteed warm queries should own a
    /// [`QueryWorkspace`] and call [`query_with`](Self::query_with).
    pub fn query<G: GraphView>(&self, g: &G, u: NodeId) -> QueryResult {
        let cfg = &self.config;
        match self.workspace.try_lock() {
            Ok(mut ws) => run_pipeline(cfg, g, u, &mut ws),
            // A poisoning panic mid-query can only leave stale scratch
            // behind, and every stage clears its scratch before use — safe
            // to reuse.
            Err(TryLockError::Poisoned(poisoned)) => {
                run_pipeline(cfg, g, u, &mut poisoned.into_inner())
            }
            Err(TryLockError::WouldBlock) => run_pipeline(cfg, g, u, &mut QueryWorkspace::new()),
        }
    }

    /// Answers a single-source SimRank query for `u` with caller-managed
    /// scratch — the warm path for serving loops that hold one
    /// [`QueryWorkspace`] per thread.
    ///
    /// Results are **bit-identical** to [`query`](Self::query) (pinned by
    /// the `prop_workspace` property suite), and a steady-state call
    /// performs zero heap allocations in the push stages: only the returned
    /// score vector and the stats are freshly allocated.
    pub fn query_with<G: GraphView>(
        &self,
        g: &G,
        u: NodeId,
        ws: &mut QueryWorkspace,
    ) -> QueryResult {
        run_pipeline(&self.config, g, u, ws)
    }

    /// Answers `u` under a per-query seed derived from `(config seed, u)`,
    /// so the answer does not depend on which queries ran before it, on
    /// which thread, or in what order — the replay handle of the serving
    /// layers. Runs cold, on a fresh workspace dropped with the call: this
    /// is the reference the warm paths are compared against, and a replay
    /// check on a large graph leaves no scratch resident in the engine.
    pub fn query_seeded<G: GraphView>(&self, g: &G, u: NodeId) -> QueryResult {
        run_pipeline(&self.config_for(u), g, u, &mut QueryWorkspace::new())
    }

    /// [`query_seeded`](Self::query_seeded) on caller-managed scratch —
    /// what every serving worker runs; bit-identical to it.
    pub fn query_seeded_with<G: GraphView>(
        &self,
        g: &G,
        u: NodeId,
        ws: &mut QueryWorkspace,
    ) -> QueryResult {
        run_pipeline(&self.config_for(u), g, u, ws)
    }

    /// The configuration one seeded query runs under: this engine's, with
    /// the detection-walk seed derived from the query node. Nothing else
    /// changes, so the value needs no second [`Config::validate`].
    fn config_for(&self, u: NodeId) -> Config {
        let mut state = self.config.seed ^ ((u as u64) << 24);
        Config {
            seed: splitmix64(&mut state),
            ..self.config.clone()
        }
    }
}

/// The one query pipeline (paper Algorithm 1) behind the four entry points:
/// answers `u` on `g` under `cfg`, on the scratch in `ws`.
fn run_pipeline<G: GraphView>(
    cfg: &Config,
    g: &G,
    u: NodeId,
    ws: &mut QueryWorkspace,
) -> QueryResult {
    // Validate up front: an out-of-range u would otherwise die deep in
    // the push stages with an opaque slice index panic.
    let n = g.num_nodes();
    assert!(
        (u as usize) < n,
        "query node {u} out of range for graph with {n} nodes"
    );
    let total = Timer::start();
    let mut stats = QueryStats {
        l_star: cfg.l_star(),
        ..QueryStats::default()
    };

    // Stage 1: Source-Push. The push detects its own depth and reports
    // how long it spent in the walk sampler, if it needed it at all.
    let t = Timer::start();
    let sp = source_push_with(g, u, cfg, &mut ws.source);
    stats.time_sampling = sp.time_sampling;
    stats.time_source_push = t.elapsed().saturating_sub(sp.time_sampling);

    let gu = sp.gu;
    stats.num_walks = sp.num_walks;
    stats.detected_level = sp.detected_level;
    stats.level = gu.max_level();
    stats.attention_per_level = gu.attention_per_level();
    stats.num_attention = gu.num_attention();
    stats.gu_nodes_per_level = gu.levels.iter().map(|l| l.h.len()).collect();
    stats.gu_total_entries = gu.total_entries();

    // Stage 2: hitting probabilities within Gu, then γ.
    let t = Timer::start();
    ws.att.build_into(&gu);
    attention_hitting_with(g, &gu, &ws.att, cfg.sqrt_c(), &mut ws.hitting);
    stats.time_hitting = t.elapsed();

    let t = Timer::start();
    compute_gammas_with(&ws.att, ws.hitting.att_hit(), gu.max_level(), &mut ws.gamma);
    stats.time_gamma = t.elapsed();

    // Stage 3: Reverse-Push.
    let t = Timer::start();
    reverse_push_with(g, &gu, &ws.att, ws.gamma.gammas(), cfg, &mut ws.reverse);
    let mut scores = ws.reverse.materialize(g.num_nodes());
    scores[u as usize] = 1.0;
    stats.time_reverse_push = t.elapsed();

    // Hand Gu's buffers back to the pools for the next query.
    ws.recycle(gu);

    stats.time_total = total.elapsed();
    QueryResult {
        query: u,
        scores,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrank_graph::gen::shapes;
    use simrank_walks::{pairwise_simrank_mc, WalkParams};

    #[test]
    fn diagonal_is_one_everything_else_bounded() {
        let g = simrank_graph::gen::gnm(100, 600, 5);
        let engine = SimPush::new(Config::new(0.02));
        let res = engine.query(&g, 17);
        assert_eq!(res.scores[17], 1.0);
        for (v, &s) in res.scores.iter().enumerate() {
            assert!((0.0..=1.0).contains(&s), "s̃({v}) = {s}");
        }
    }

    #[test]
    fn hand_values_exact_mode() {
        let engine = SimPush::new(Config::exact(0.001));
        let g1 = shapes::single_parent();
        let r1 = engine.query(&g1, 0);
        assert!((r1.scores[1] - 0.6).abs() < 1e-12);
        let g2 = shapes::shared_parents();
        let r2 = engine.query(&g2, 0);
        assert!((r2.scores[1] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn error_bound_holds_one_sided_vs_monte_carlo() {
        // Exact-mode SimPush must satisfy 0 ≤ s − s̃ ≤ ε deterministically;
        // the MC reference adds its own ~3σ ≈ 0.005 noise at 100k samples.
        let g = shapes::jeh_widom();
        let eps = 0.01;
        let engine = SimPush::new(Config::exact(eps));
        let params = WalkParams::new(0.6);
        for u in 0..5u32 {
            let res = engine.query(&g, u);
            for v in 0..5u32 {
                if v == u {
                    continue;
                }
                let truth = pairwise_simrank_mc(&g, u, v, params, 100_000, 1000 + u as u64);
                let err = truth - res.scores[v as usize];
                assert!(
                    err > -0.006 && err < eps + 0.006,
                    "u={u} v={v}: s̃={} truth≈{truth}",
                    res.scores[v as usize]
                );
            }
        }
    }

    #[test]
    fn monte_carlo_mode_matches_exact_mode_closely() {
        let g = simrank_graph::gen::copying_web(2000, 5, 0.7, 21);
        let u = 42;
        let eps = 0.02;
        let exact = SimPush::new(Config::exact(eps)).query(&g, u);
        let mc = SimPush::new(Config::new(eps)).query(&g, u);
        // MC detection can only miss low-mass levels; scores differ at most
        // by the tail mass, well under ε.
        for v in 0..g.num_nodes() {
            let d = (exact.scores[v] - mc.scores[v]).abs();
            assert!(
                d <= eps,
                "v={v}: exact {} mc {}",
                exact.scores[v],
                mc.scores[v]
            );
        }
    }

    #[test]
    fn top_k_excludes_query_and_sorts_descending() {
        let g = shapes::jeh_widom();
        let res = SimPush::new(Config::exact(0.001)).query(&g, 1);
        let top = res.top_k(10);
        assert!(top.iter().all(|&(v, _)| v != 1));
        for w in top.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    #[should_panic(expected = "query node 5 out of range")]
    fn out_of_range_query_panics_with_clear_message() {
        let g = shapes::jeh_widom(); // 5 nodes: valid ids are 0..5
        SimPush::new(Config::new(0.02)).query(&g, 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_query_with_panics_too() {
        let g = shapes::cycle(3);
        let mut ws = crate::QueryWorkspace::new();
        SimPush::new(Config::new(0.02)).query_with(&g, 99, &mut ws);
    }

    /// Reference implementation of `top_k`: the straightforward full sort
    /// the selection-based version must match entry for entry.
    fn top_k_full_sort(res: &QueryResult, k: usize) -> Vec<(NodeId, f64)> {
        let mut entries: Vec<(NodeId, f64)> = res
            .scores
            .iter()
            .enumerate()
            .filter(|&(v, &s)| v as NodeId != res.query && s > 0.0)
            .map(|(v, &s)| (v as NodeId, s))
            .collect();
        entries.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        entries.truncate(k);
        entries
    }

    #[test]
    fn top_k_selection_matches_full_sort_including_ties() {
        // Dense tie groups are where a sloppy selection diverges: every
        // repeated score must still order by ascending node id across the
        // k boundary.
        let scores: Vec<f64> = (0..200)
            .map(|v| match v % 5 {
                0 => 0.5,
                1 => 0.25,
                2 => 0.25,
                3 => 0.125,
                _ => 0.0,
            })
            .collect();
        let res = QueryResult {
            query: 10, // sits inside the 0.5 tie group and must be excluded
            scores,
            stats: QueryStats::default(),
        };
        for k in [0, 1, 2, 3, 39, 40, 41, 100, 119, 120, 121, 500] {
            assert_eq!(res.top_k(k), top_k_full_sort(&res, k), "k={k}");
        }
    }

    #[test]
    fn top_k_selection_matches_full_sort_on_real_queries() {
        let g = simrank_graph::gen::copying_web(2000, 5, 0.7, 13);
        let res = SimPush::new(Config::new(0.02)).query(&g, 42);
        for k in [1, 5, 50, 1999, 5000] {
            assert_eq!(res.top_k(k), top_k_full_sort(&res, k), "k={k}");
        }
    }

    #[test]
    fn stats_are_populated() {
        let g = simrank_graph::gen::copying_web(1000, 5, 0.7, 3);
        let res = SimPush::new(Config::new(0.02)).query(&g, 10);
        let st = &res.stats;
        // 5,000 edges in all: the exact phase settles the depth on its own.
        assert_eq!(st.num_walks, 0);
        assert_eq!(st.time_sampling, Duration::ZERO);
        assert!(st.detected_level >= st.level);
        assert_eq!(st.attention_per_level.len(), st.level + 1);
        assert_eq!(st.gu_nodes_per_level.len(), st.level + 1);
        assert_eq!(
            st.num_attention,
            st.attention_per_level.iter().sum::<usize>()
        );
        assert!(st.level <= st.l_star);
        assert!(st.time_total >= st.time_reverse_push);
    }

    #[test]
    fn sampling_time_is_measured_when_walks_are_drawn() {
        // A hub whose in-degree alone exceeds the edge budget samples.
        let g = shapes::star_in(10_000);
        let cfg = Config::new(0.02);
        let res = SimPush::new(cfg.clone()).query(&g, 0);
        let st = &res.stats;
        assert_eq!(st.num_walks, cfg.num_detection_walks());
        assert!(st.time_sampling > Duration::ZERO);
        assert!(st.time_stage1() <= st.time_total);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = simrank_graph::gen::rmat(10, 4000, simrank_graph::gen::RmatParams::social(), 2);
        let engine = SimPush::new(Config::new(0.02));
        let a = engine.query(&g, 99);
        let b = engine.query(&g, 99);
        assert_eq!(a.scores, b.scores);
    }

    /// A funnel whose push depth is decided by the walks: the hub's
    /// in-degree alone breaks the edge budget (so stage 1 samples from the
    /// query node, the paper's algorithm walk for walk), every walk that
    /// survives two steps sits on `w`, fans out over `w`'s 148
    /// in-neighbours and only through `x_1` reaches `z` — where
    /// `h⁽⁴⁾(hub, z) = c²/148 ≈ ε_h/2`, i.e. an expected visit count within
    /// one of the detection threshold. Returns the graph and the hub.
    fn seed_sensitive_funnel() -> (simrank_graph::CsrGraph, NodeId) {
        const FAN: u32 = 148;
        let (z, w, hub) = (0, FAN + 1, FAN + 2);
        let mut edges = vec![(z, 1)];
        edges.extend((1..=FAN).map(|x| (x, w)));
        edges.extend((hub + 1..hub + 1 + 3400).flat_map(|leaf| [(w, leaf), (leaf, hub)]));
        (
            simrank_graph::GraphBuilder::new().with_edges(edges).build(),
            hub,
        )
    }

    #[test]
    fn seeded_queries_equal_an_engine_built_on_the_derived_seed() {
        let (g, hub) = seed_sensitive_funnel();
        let cfg = Config {
            seed: 1,
            ..Config::new(0.05)
        };
        let derived = splitmix64(&mut (cfg.seed ^ ((hub as u64) << 24)));
        let reference = SimPush::new(Config {
            seed: derived,
            ..cfg.clone()
        })
        .query_with(&g, hub, &mut QueryWorkspace::new());
        // The seed is live on this key. Scores and the trimmed `Gu` move
        // with it only when a true attention node is missed (probability
        // ≤ δ by construction); what the walks do decide is how deep the
        // push goes before the trim — and the engine's own seed, used
        // underived, decides differently.
        let underived = SimPush::new(cfg.clone()).query(&g, hub);
        assert_eq!(reference.stats.num_walks, cfg.num_detection_walks());
        assert_eq!(
            (
                reference.stats.detected_level,
                underived.stats.detected_level
            ),
            (4, 3)
        );

        let same = |got: &QueryResult, what: &str| {
            assert_eq!(got.scores, reference.scores, "{what}");
            assert_eq!(got.stats.num_walks, reference.stats.num_walks, "{what}");
            assert_eq!(got.stats.level, reference.stats.level, "{what}");
            assert_eq!(
                got.stats.detected_level, reference.stats.detected_level,
                "{what}"
            );
        };
        let engine = SimPush::new(cfg);
        let mut ws = QueryWorkspace::new();
        same(&engine.query_seeded(&g, hub), "query_seeded, cold");
        same(
            &engine.query_seeded_with(&g, hub, &mut ws),
            "query_seeded_with, cold",
        );
        for other in [0, 1, hub - 1, hub + 7] {
            engine.query_seeded_with(&g, other, &mut ws);
        }
        same(
            &engine.query_seeded_with(&g, hub, &mut ws),
            "query_seeded_with, warm",
        );
    }

    #[test]
    fn isolated_query_node() {
        let g = simrank_graph::GraphBuilder::new()
            .with_num_nodes(5)
            .with_edges([(1, 2)])
            .build();
        let res = SimPush::new(Config::new(0.01)).query(&g, 4);
        assert_eq!(res.scores[4], 1.0);
        assert_eq!(res.scores.iter().sum::<f64>(), 1.0);
        assert!(res.top_k(3).is_empty());
    }
}
