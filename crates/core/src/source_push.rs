//! Stage 1: Source-Push (paper Algorithm 2).
//!
//! Pushes hitting probabilities `h^(ℓ)(u, ·)` from the query node along
//! **in**-edges, level by level, producing the source graph `Gu` and the
//! per-level attention sets — and decides, inside the same loop, how deep
//! the push has to go.
//!
//! # The push is its own level detector
//!
//! The paper learns the maximum useful level `L` first, from
//! `R = `[`Config::num_detection_walks`] independent √c-walks (Alg. 2 lines
//! 1–8; 69,879 of them at ε = 0.02), and pushes afterwards. On almost every
//! query the push that follows touches a few hundred `Gu` entries over two
//! or three levels and computes exactly what the walks estimated. So the
//! loop here pushes first and samples only what the push could not afford:
//!
//! * **Mass bound (when to stop).** Let `M = Σ_w h^(ℓ)(u, w)` be the mass
//!   that arrived on the level just pushed. A √c-walk survives a step with
//!   probability at most `√c`, so every deeper level carries at most `√c·M`
//!   in total and no node on it can hold more. Once `√c·M < ε_h` no deeper
//!   node can be an attention node (`h ≥ ε_h`), every deeper level would be
//!   trimmed, and the push stops for good. The bound is deterministic — it
//!   is Lemma 2's `√c^ℓ < ε_h` cap with the measured mass in place of the
//!   worst case — and it is on *mass*, not on attention: a level of many
//!   thin nodes (none reaching `ε_h`) whose mass reconcentrates on one node
//!   a level later does not stop it. The comparison keeps a relative margin
//!   of `1e-9` so the order of floating-point summation can never make it
//!   fire where a full push would have found an attention node.
//! * **Edge budget (when exactness stops being cheap).** Before a level is
//!   pushed, the in-degrees of its frontier are summed through the same
//!   [`GraphView`] (so a traced view records the reads the decision rests
//!   on). The push goes ahead while the in-edges scanned so far plus that
//!   sum stay within `R / 8` ([`detection_edge_budget`]). A scanned edge costs
//!   a map add where a walk costs an RNG draw, an adjacency lookup and a
//!   hash bump per step for ≈3.4 steps, so a budget's worth of edges is a
//!   few percent of what `R` walks cost — and the levels it buys are levels
//!   of `Gu` the push needed anyway; all a fallback query pays extra is the
//!   degree pre-scan. A
//!   `/1 … /128` sweep of the divisor (mean stage-1 time over 1,000 uniform
//!   keys at ε = 0.02) was flat between `/4` and `/32` with its minimum at
//!   `/8` — 35 µs against 67 µs at `/1` and 65 µs at `/128` on the
//!   benchmark's web-200k, 570 µs against 755 µs and 675 µs on web-1m:
//!   smaller divisors let hub frontiers burn more than the walks cost,
//!   larger ones send cheap queries to the sampler. Hence a documented
//!   constant, not a knob.
//! * **Residual walks (past the budget).** When level `ℓ₀ + 1` would break
//!   the budget, the frontier of level `ℓ₀` is exact and only the walk
//!   tree beyond it is still unknown: each frontier node `v` starts
//!   `⌈R·h^(ℓ₀)(u, v)⌉` walks of at most `L* − ℓ₀` steps
//!   ([`LevelVisits::sample_residual_into`](simrank_walks::LevelVisits::sample_residual_into)),
//!   tallied at their absolute levels against the unchanged threshold
//!   `⌈ε_h·R/2⌉` ([`Config::detection_threshold`]). The push then continues
//!   to the deepest level on which some count reaches it, as the paper's
//!   does. `ℓ₀ = 0` — the query node's own in-degree exceeds the budget —
//!   is the paper's algorithm, walk for walk.
//! * **Why the guarantee carries over.** A visit count on level `ℓ` is a
//!   sum of independent Bernoullis with mean
//!   `Σ_v ⌈R·h^(ℓ₀)(u, v)⌉·h^(ℓ−ℓ₀)(v, w) ≥ R·h^(ℓ)(u, w)`. For a node with
//!   `h ≥ ε_h` the mean `μ` is at least `ε_h·R`, the threshold at most
//!   `μ/2`, and the multiplicative Chernoff lower tail gives a miss
//!   probability `≤ exp(−μ/8) ≤ exp(−ε_h·R/8)` — the inequality
//!   [`Config::num_detection_walks`] sizes `R` with, so the union bound
//!   over the `≤ √c/((1−√c)·ε_h)` attention nodes and the failure
//!   probability `δ` are unchanged.
//! * **What comes out.** Levels past the deepest attention level are trimmed
//!   either way, so whenever the exact phase settles the result *is*
//!   [`LevelDetection::Exact`]'s, and otherwise it equals it with
//!   probability `≥ 1 − δ`. `Exact` runs this loop with an unlimited budget
//!   (and, thanks to the mass bound, no longer pays for all `L*` levels);
//!   [`LevelDetection::MonteCarlo`] differs from it in the budget only.
//!
//! Measured at ε = 0.02 on the benchmark's copying-web graphs, 1,000 uniform
//! keys each: on web-1m 9.3% of the queries fall back to sampling, at a mean
//! of 14.8k walks each; on web-200k 3.0%, at 8.8k. The rest draw none.
//!
//! That share is a property of the graph: the mass bound fires early only
//! where mass dies at source nodes, as it does on web graphs. Where no walk
//! ever dies (`gnm` at average degree 10: mass decays by exactly `√c` a
//! level) every query runs out of budget first and samples, `R·√c^ℓ₀` walks
//! instead of `R` — the steps it saves are the first `ℓ₀` of each walk, the
//! cheap ones, so such a query costs what the paper's did, not less: 0.79×
//! of it on `gnm(200k, 2M)`, 0.98× on `rmat` social (CHANGES.md § PR 17).

use crate::config::{Config, LevelDetection};
use crate::source_graph::{Level, SourceGraph};
use crate::workspace::SourcePushScratch;
use simrank_common::{NodeId, Timer};
use simrank_graph::GraphView;
use simrank_walks::WalkParams;
use std::time::Duration;

/// In-edges the exact phase of Monte-Carlo detection may scan before it
/// falls back to residual walks: an eighth of the walk budget
/// `R = `[`Config::num_detection_walks`]; see the [module docs](self) for
/// why 8.
pub fn detection_edge_budget(cfg: &Config) -> usize {
    cfg.num_detection_walks() / 8
}

/// Relative safety margin of the mass bound against floating-point
/// summation order (see the [module docs](self)).
const MASS_BOUND_MARGIN: f64 = 1.0 - 1e-9;

/// Result of Source-Push, with the sampling statistics the paper reports.
pub struct SourcePushOutput {
    /// The source graph `Gu` (levels `0..=L` after trimming).
    pub gu: SourceGraph,
    /// Residual √c-walks actually started for level detection: 0 whenever
    /// the exact phase settled the depth (always, in exact mode).
    pub num_walks: usize,
    /// Time spent inside the walk sampler (zero when no walk was drawn).
    pub time_sampling: Duration,
    /// Levels actually pushed, before the attention-based trim.
    pub detected_level: usize,
}

/// Runs Source-Push for query node `u` with a fresh scratch (cold path).
///
/// Repeated-query callers should hold a
/// [`QueryWorkspace`](crate::QueryWorkspace) and use [`source_push_with`] —
/// same result, bit for bit, but no per-query allocation.
///
/// # Panics
/// Panics if `u` is outside the graph's node range.
pub fn source_push<G: GraphView>(g: &G, u: NodeId, cfg: &Config) -> SourcePushOutput {
    source_push_with(g, u, cfg, &mut SourcePushScratch::default())
}

/// Runs Source-Push for query node `u`, borrowing every buffer — detection
/// walk scratch, the `Gu` level maps and the attention lists — from `ws`.
///
/// The returned [`SourceGraph`] owns buffers taken from the workspace pools;
/// hand it back via [`QueryWorkspace::recycle`](crate::QueryWorkspace::recycle)
/// once the query is done so the next one can reuse them.
///
/// # Panics
/// Panics if `u` is outside the graph's node range.
pub fn source_push_with<G: GraphView>(
    g: &G,
    u: NodeId,
    cfg: &Config,
    ws: &mut SourcePushScratch,
) -> SourcePushOutput {
    let n = g.num_nodes();
    assert!(
        (u as usize) < n,
        "query node {u} outside graph with {n} nodes"
    );
    let l_star = cfg.l_star();
    let eps_h = cfg.eps_h();
    let sqrt_c = cfg.sqrt_c();

    let mut levels = std::mem::take(&mut ws.levels_buf);
    debug_assert!(levels.is_empty(), "levels spine must come back recycled");
    let mut level0 = ws.take_map(n);
    level0.set(u, 1.0);
    levels.push(Level {
        h: level0,
        attention: ws.take_attention(), // trivial ℓ = 0 excluded (Eq. 7)
    });

    // In-edges the exact phase may still scan; `None` is "no limit" — exact
    // mode from the start, Monte-Carlo mode once the walks have spoken.
    let mut edges_left = match cfg.level_detection {
        LevelDetection::Exact => None,
        LevelDetection::MonteCarlo => Some(detection_edge_budget(cfg)),
    };
    let mut target_level = l_star;
    let mut num_walks = 0;
    let mut time_sampling = Duration::ZERO;

    // Level-wise residue propagation along in-edges (Alg. 2 lines 9–21),
    // deciding its own depth on the way (lines 1–8; see the module docs).
    while levels.len() <= target_level {
        let ell = levels.len() - 1;
        let frontier = &levels[ell].h;

        if let Some(left) = edges_left {
            let mut next_edges = 0usize;
            for (v, _) in frontier.iter() {
                next_edges += g.in_degree(v);
                if next_edges > left {
                    break;
                }
            }
            edges_left = left.checked_sub(next_edges);
            if edges_left.is_none() {
                // Level ℓ+1 would break the budget: sample the unresolved
                // rest of the walk tree from this frontier instead.
                let walk_budget = cfg.num_detection_walks();
                let t = Timer::start();
                ws.visits.sample_residual_into(
                    g,
                    frontier.iter(),
                    ell,
                    WalkParams::new(cfg.c),
                    walk_budget,
                    l_star,
                    cfg.seed,
                    &mut ws.walk_buf,
                );
                time_sampling = t.elapsed();
                num_walks = ws.visits.num_walks;
                let threshold = cfg.detection_threshold(walk_budget);
                target_level = ws.visits.deepest_level_with_count(threshold).max(ell);
                continue;
            }
        }

        let mut next = ws.take_map(n);
        for (v, h) in frontier.iter() {
            let ins = g.in_neighbors(v);
            if ins.is_empty() {
                continue; // √c-walks die at source nodes
            }
            let inc = sqrt_c * h / ins.len() as f64;
            for &vp in ins {
                next.add(vp, inc);
            }
        }
        if next.is_empty() {
            ws.put_map(next);
            break; // frontier exhausted (pure-source level)
        }
        let mut attention = ws.take_attention();
        let mut mass = 0.0;
        for (w, h) in next.iter() {
            mass += h;
            if h >= eps_h {
                attention.push(w);
            }
        }
        attention.sort_unstable();
        levels.push(Level { h: next, attention });
        if sqrt_c * mass < eps_h * MASS_BOUND_MARGIN {
            break; // no deeper node can reach ε_h
        }
    }
    let detected_level = levels.len() - 1;

    // Trailing levels without attention nodes cannot contribute to any
    // estimate (no residue seeds, no attention meetings), so trim them; this
    // keeps the later stages' level loops tight without changing the result.
    // Level 0's attention list is empty by construction and always stays.
    // Deepest first, like `SourcePushScratch::recycle`: the pool then hands
    // every level of the next query the map that level used in this one.
    let keep = levels
        .iter()
        .rposition(|level| !level.attention.is_empty())
        .map_or(1, |deepest| deepest + 1);
    for level in levels.drain(keep..).rev() {
        ws.put_level(level);
    }

    SourcePushOutput {
        gu: SourceGraph {
            query: u,
            levels,
            universe: n,
        },
        num_walks,
        time_sampling,
        detected_level,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrank_graph::gen::shapes;

    const SQRT_C: f64 = 0.774_596_669_241_483_4; // √0.6

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn layered_dag_hitting_probabilities_are_exact() {
        // layered_dag(3, 2): layer 0 = {0,1}, layer 1 = {2,3}, layer 2 = {4,5};
        // edges go layer ℓ → ℓ+1, so in-neighbours point towards layer 0.
        // From u = 4: h^(1)(u, each layer-1 node) = √c/2,
        //             h^(2)(u, each layer-0 node) = √c·(√c/2)/2·2 = c/2.
        let g = shapes::layered_dag(3, 2);
        let cfg = Config::exact(0.001);
        let out = source_push(&g, 4, &cfg);
        let gu = &out.gu;
        assert!(gu.max_level() >= 2);
        assert!(close(gu.levels[1].h.get(2).unwrap(), SQRT_C / 2.0));
        assert!(close(gu.levels[1].h.get(3).unwrap(), SQRT_C / 2.0));
        assert!(close(gu.levels[2].h.get(0).unwrap(), 0.3));
        assert!(close(gu.levels[2].h.get(1).unwrap(), 0.3));
        assert_eq!(gu.levels[0].h.get(4), Some(1.0));
    }

    #[test]
    fn level_mass_sums_to_sqrt_c_powers() {
        // On a graph where no walk dies (cycle), Σ_w h^(ℓ)(u,w) = √c^ℓ.
        let g = shapes::cycle(7);
        let cfg = Config::exact(0.01);
        let gu = source_push(&g, 0, &cfg).gu;
        for (ell, level) in gu.levels.iter().enumerate() {
            let mass: f64 = level.h.iter().map(|(_, h)| h).sum();
            assert!(
                close(mass, SQRT_C.powi(ell as i32)),
                "level {ell}: mass {mass}"
            );
        }
    }

    #[test]
    fn attention_threshold_is_respected() {
        let g = shapes::cycle(5);
        let cfg = Config::exact(0.05);
        let eps_h = cfg.eps_h();
        let gu = source_push(&g, 0, &cfg).gu;
        for (ell, level) in gu.levels.iter().enumerate().skip(1) {
            for (w, h) in level.h.iter() {
                let marked = level.attention.binary_search(&w).is_ok();
                assert_eq!(marked, h >= eps_h, "level {ell} node {w} h={h}");
            }
        }
        // Cycle walks never split, so every visited node is attention until
        // √c^ℓ < ε_h, i.e. exactly L* levels.
        assert_eq!(gu.max_level(), cfg.l_star());
    }

    #[test]
    fn source_node_query_yields_trivial_gu() {
        // Node 0 of a path has no in-neighbours: Gu is just level 0.
        let g = shapes::path(4);
        let out = source_push(&g, 0, &Config::exact(0.01));
        assert_eq!(out.gu.max_level(), 0);
        assert_eq!(out.gu.num_attention(), 0);
    }

    #[test]
    fn monte_carlo_detection_matches_exact_on_easy_graph() {
        // The cycle keeps all mass on one node per level, making detection
        // easy: MC must find the same L as the exact oracle.
        let g = shapes::cycle(9);
        let exact = source_push(&g, 0, &Config::exact(0.02)).gu.max_level();
        let mc = source_push(&g, 0, &Config::new(0.02)).gu.max_level();
        assert_eq!(mc, exact);
    }

    #[test]
    fn trailing_attention_free_levels_are_trimmed() {
        // star_in(6) query at centre: level 1 holds the five leaves with
        // h = √c/5 each; with ε large enough they are below ε_h → trimmed.
        let g = shapes::star_in(6);
        let cfg = Config::exact(0.9); // ε_h ≈ 0.0873 < √c/5 ≈ 0.155 — attention kept
        let gu = source_push(&g, 0, &cfg).gu;
        assert_eq!(gu.max_level(), 1);

        let g2 = shapes::star_in(20); // √c/19 ≈ 0.041 < ε_h → trimmed
        let gu2 = source_push(&g2, 0, &cfg).gu;
        assert_eq!(gu2.max_level(), 0, "below-threshold level must be trimmed");
    }

    #[test]
    fn settled_exact_phase_draws_no_walks() {
        // Four in-edges in the whole graph: the budget is never in sight, the
        // push settles its own depth and the sampler is never called.
        let g = shapes::cycle(4);
        let cfg = Config::new(0.05);
        let out = source_push(&g, 0, &cfg);
        assert_eq!(out.num_walks, 0);
        assert_eq!(out.time_sampling, Duration::ZERO);
        let exact = source_push(&g, 0, &Config::exact(0.05));
        assert_eq!(exact.num_walks, 0);
        assert_eq!(out.detected_level, exact.detected_level);
        assert_eq!(out.gu.max_level(), exact.gu.max_level());
    }

    /// `u = 0` ← `fan` middle nodes ← the same `width` sources each.
    fn two_level_fan(fan: u32, width: u32) -> simrank_graph::CsrGraph {
        let mut edges = Vec::new();
        for mid in 1..=fan {
            edges.push((mid, 0));
            edges.extend((0..width).map(|src| (fan + 1 + src, mid)));
        }
        simrank_graph::GraphBuilder::new().with_edges(edges).build()
    }

    #[test]
    fn fallback_walk_count_follows_the_frontier_mass() {
        // Level 0 costs 100 in-edges, level 1 would cost 100·40 more than
        // the budget has left: the push falls back at ℓ₀ = 1 with 100
        // frontier nodes holding √c in total.
        let g = two_level_fan(100, 40);
        let cfg = Config::new(0.05);
        assert!((100..100 + 100 * 40).contains(&detection_edge_budget(&cfg)));
        let out = source_push(&g, 0, &cfg);
        let frontier = &out.gu.levels[1].h;
        let mass: f64 = frontier.iter().map(|(_, h)| h).sum();
        assert!(close(mass, SQRT_C));
        let floor = (cfg.num_detection_walks() as f64 * mass).ceil() as usize;
        assert!(
            (floor..=floor + frontier.len()).contains(&out.num_walks),
            "{} walks for mass {mass} over {} nodes",
            out.num_walks,
            frontier.len()
        );
        assert!(out.time_sampling > Duration::ZERO);
        // The 40 sources hold c/40 each, found by the residual walks.
        assert_eq!(out.gu.max_level(), 2);
        assert_eq!(out.gu.levels[2].attention.len(), 40);
    }

    #[test]
    fn hub_query_is_the_papers_algorithm_walk_for_walk() {
        // The query node's own in-degree exceeds the budget: ℓ₀ = 0, exactly
        // R walks from u, tallied as `LevelVisits::sample` tallies them.
        let g = shapes::star_in(4_000);
        let cfg = Config::new(0.05);
        let walks = cfg.num_detection_walks();
        assert!(g.in_degree(0) > detection_edge_budget(&cfg));
        let mut ws = SourcePushScratch::default();
        let out = source_push_with(&g, 0, &cfg, &mut ws);
        assert_eq!(out.num_walks, walks);
        let paper = simrank_walks::LevelVisits::sample(
            &g,
            0,
            WalkParams::new(cfg.c),
            walks,
            cfg.l_star(),
            cfg.seed,
        );
        assert_eq!(ws.visits.levels, paper.levels);
        // Every leaf holds √c/3999 < ε_h: nothing detected, nothing pushed.
        assert_eq!(out.detected_level, 0);
        assert_eq!(out.gu.max_level(), 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = simrank_graph::gen::gnm(200, 1000, 3);
        let cfg = Config::new(0.02);
        let a = source_push(&g, 5, &cfg);
        let b = source_push(&g, 5, &cfg);
        assert_eq!(a.gu.max_level(), b.gu.max_level());
        for (la, lb) in a.gu.levels.iter().zip(b.gu.levels.iter()) {
            assert_eq!(la.attention, lb.attention);
            let mut ha: Vec<_> = la.h.iter().collect();
            let mut hb: Vec<_> = lb.h.iter().collect();
            ha.sort_by_key(|&(k, _)| k);
            hb.sort_by_key(|&(k, _)| k);
            assert_eq!(ha, hb);
        }
    }

    #[test]
    #[should_panic(expected = "outside graph")]
    fn rejects_out_of_range_query() {
        let g = shapes::path(3);
        source_push(&g, 9, &Config::new(0.01));
    }

    #[test]
    fn warm_scratch_is_bit_identical_to_cold() {
        // The same query run cold (fresh scratch) and warm (pooled maps that
        // kept capacity, possibly already dense) must agree bit for bit,
        // including iteration order of the level maps — the property the
        // whole workspace design rests on.
        let g = simrank_graph::gen::gnm(300, 1800, 11);
        let cfg = Config::new(0.02);
        let mut ws = crate::workspace::SourcePushScratch::default();
        for &u in &[5u32, 250, 5, 42] {
            let cold = source_push(&g, u, &cfg);
            let warm = source_push_with(&g, u, &cfg, &mut ws);
            assert_eq!(cold.gu.max_level(), warm.gu.max_level(), "u={u}");
            assert_eq!(cold.detected_level, warm.detected_level, "u={u}");
            assert_eq!(cold.num_walks, warm.num_walks, "u={u}");
            for (ell, (lc, lw)) in cold.gu.levels.iter().zip(warm.gu.levels.iter()).enumerate() {
                assert_eq!(lc.attention, lw.attention, "u={u} level {ell}");
                let hc: Vec<_> = lc.h.iter().collect();
                let hw: Vec<_> = lw.h.iter().collect();
                assert_eq!(hc, hw, "u={u} level {ell} (values and order)");
            }
            ws.recycle(warm.gu);
        }
    }
}
