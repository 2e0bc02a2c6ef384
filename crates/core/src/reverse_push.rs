//! Stage 3: Reverse-Push (paper Algorithm 5).
//!
//! Every attention node `w` on level `ℓ` starts with residue
//! `r^(ℓ)(w) = h^(ℓ)(u, w)·γ^(ℓ)(w)`. Residues are pushed down the levels
//! along **out**-edges of `G` — the push increment into `v` is
//! `√c·r/d_I(v)`, mirroring the hitting-probability recursion — so that the
//! mass arriving at level 0 at node `v` estimates
//! `h^(ℓ)(u,w)·γ^(ℓ)(w)·ĥ^(ℓ)(v,w)`, summed over all attention nodes at
//! once. Residues with `√c·r < ε_h` are dropped; Lemma 4 charges this loss
//! (together with the attention truncation) against the `ε` budget.

use crate::config::Config;
use crate::hitting::AttentionIndex;
use crate::source_graph::SourceGraph;
use crate::workspace::ReverseScratch;
use simrank_common::HybridMap;
use simrank_graph::GraphView;

/// Runs Reverse-Push with a fresh scratch (cold path) and returns the raw
/// score vector (diagonal not yet set — the caller finalises `s̃(u,u) = 1`).
///
/// Repeated-query callers should hold a
/// [`QueryWorkspace`](crate::QueryWorkspace) and use [`reverse_push_with`] —
/// same scores, bit for bit, but no per-query allocation in the push loop.
pub fn reverse_push<G: GraphView>(
    g: &G,
    gu: &SourceGraph,
    att: &AttentionIndex,
    gammas: &[f64],
    cfg: &Config,
) -> Vec<f64> {
    let mut ws = ReverseScratch::default();
    reverse_push_with(g, gu, att, gammas, cfg, &mut ws);
    ws.materialize(g.num_nodes())
}

/// Runs Reverse-Push, borrowing the per-level residue maps and the score
/// accumulator from `ws`; afterwards `ws.scores()` holds the raw scores
/// (diagonal not set).
///
/// The level loop reads level `ℓ`'s residues while writing level `ℓ − 1`'s
/// through a `split_at_mut` borrow — a proper take-and-return on the pooled
/// maps, replacing the old drain hack that swapped each processed level for
/// a throwaway `HybridMap::new(0)` placeholder.
pub fn reverse_push_with<G: GraphView>(
    g: &G,
    gu: &SourceGraph,
    att: &AttentionIndex,
    gammas: &[f64],
    cfg: &Config,
    ws: &mut ReverseScratch,
) {
    let n = g.num_nodes();
    ws.scores.ensure_len(n);
    ws.scores.clear(); // O(1): epoch bump, not a memset
    let max_level = gu.max_level();
    if max_level == 0 || att.is_empty() {
        return;
    }

    // Residue maps per level (index 0 unused — level-0 arrivals go straight
    // into `scores`). Pooled maps are re-targeted at the current universe;
    // maps past `max_level` stay untouched (never read).
    while ws.residues.len() <= max_level {
        ws.residues.push(HybridMap::new(n));
    }
    for residue in ws.residues.iter_mut().take(max_level + 1) {
        residue.reset(n);
    }
    for (id, &(lvl, w)) in att.nodes.iter().enumerate() {
        // Attention nodes are drawn from their level's `h`, so `w` is there.
        let h = gu.levels[lvl as usize].h.get(w);
        debug_assert!(h.is_some(), "attention node missing from its level");
        let Some(h) = h else {
            continue;
        };
        let r = h * gammas[id];
        if r > 0.0 {
            ws.residues[lvl as usize].add(w, r);
        }
    }

    let sqrt_c = cfg.sqrt_c();
    let eps_h = cfg.eps_h();
    let ReverseScratch { residues, scores } = ws;
    for level in (1..=max_level).rev() {
        // Read this level's map while writing into `level − 1`.
        let (lower, upper) = residues.split_at_mut(level);
        let current = &upper[0];
        for (vp, r) in current.iter() {
            let pushed = sqrt_c * r;
            if pushed < eps_h {
                continue; // below-threshold residues are dropped (Alg. 5 line 4)
            }
            for &v in g.out_neighbors(vp) {
                let inc = pushed / g.in_degree(v) as f64;
                if level > 1 {
                    lower[level - 1].add(v, inc);
                } else {
                    scores.add(v as usize, inc);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::gamma::compute_gammas;
    use crate::hitting::{attention_hitting, AttentionIndex};
    use crate::source_push::source_push;
    use simrank_graph::gen::shapes;
    use simrank_graph::GraphView;

    fn run<G: GraphView>(g: &G, u: u32, eps: f64) -> Vec<f64> {
        let cfg = Config::exact(eps);
        let gu = source_push(g, u, &cfg).gu;
        let att = AttentionIndex::build(&gu);
        let hit = attention_hitting(g, &gu, &att, cfg.sqrt_c());
        let gammas = compute_gammas(&att, &hit, gu.max_level());
        reverse_push(g, &gu, &att, &gammas, &cfg)
    }

    #[test]
    fn single_parent_reproduces_hand_value() {
        // c(2)→a(0), c→b(1): s(a,b) = 0.6. From u=a, the only attention node
        // is c on level 1 with h = √c and γ = 1; pushing back down gives
        // both out-neighbours √c·√c/1 = c. The a-entry is the diagonal mass
        // (overwritten by the caller), the b-entry is the estimate.
        let g = shapes::single_parent();
        let scores = run(&g, 0, 0.01);
        assert!((scores[1] - 0.6).abs() < 1e-12, "s̃(a,b) = {}", scores[1]);
    }

    #[test]
    fn shared_parents_reproduces_hand_value() {
        // s(a,b) = c/2 = 0.3 (see shapes::shared_parents docs).
        let g = shapes::shared_parents();
        let scores = run(&g, 0, 0.001);
        assert!((scores[1] - 0.3).abs() < 1e-12, "s̃(a,b) = {}", scores[1]);
    }

    #[test]
    fn no_attention_yields_zero_scores() {
        let g = shapes::path(5);
        let scores = run(&g, 0, 0.01); // query node has no in-neighbours
        assert!(scores.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn threshold_drops_small_residues() {
        // With a huge ε the push threshold exceeds every residue: only the
        // (dropped-later) diagonal mass at level 0 differs.
        let g = shapes::shared_parents();
        let tight = run(&g, 0, 1e-6);
        assert!(tight[1] > 0.0);
        // ε = 0.9 ⇒ ε_h ≈ 0.087; residue at c is √c·γ… pushed mass √c·r ≈
        // 0.6·0.7 > ε_h, so still pushed; use the 20-leaf star to get tiny
        // residues instead.
        let star = shapes::star_in(40);
        let scores = run(&star, 0, 0.9);
        assert!(
            scores.iter().all(|&s| s == 0.0),
            "sub-threshold residues must be dropped"
        );
    }

    #[test]
    fn scores_are_nonnegative_and_bounded() {
        let g = simrank_graph::gen::gnm(150, 900, 17);
        for u in [0u32, 42, 149] {
            let scores = run(&g, u, 0.02);
            for (v, &s) in scores.iter().enumerate() {
                assert!(s >= 0.0, "negative score at {v}");
                assert!(s <= 1.0 + 1e-9, "score {s} > 1 at {v}");
            }
        }
    }

    #[test]
    fn take_and_return_matches_cold_path_across_reuse() {
        // Regression test for the residue-drain rework: the old code swapped
        // each processed level's map for a throwaway `HybridMap::new(0)`
        // placeholder; the workspace path reads it in place through a
        // `split_at_mut` borrow. A deep Gu (layered DAG) forces residues to
        // cascade through every intermediate level map — the exact path the
        // placeholder hack used to cover — and reusing the scratch across
        // queries must not drift by a single bit.
        let g = shapes::layered_dag(5, 3);
        let u = g.num_nodes() as u32 - 1; // deepest layer → max levels
        let cfg = Config::exact(0.0005);
        let gu = source_push(&g, u, &cfg).gu;
        assert!(gu.max_level() >= 3, "need a multi-level residue cascade");
        let att = AttentionIndex::build(&gu);
        let hit = attention_hitting(&g, &gu, &att, cfg.sqrt_c());
        let gammas = compute_gammas(&att, &hit, gu.max_level());

        let cold = reverse_push(&g, &gu, &att, &gammas, &cfg);
        assert!(
            cold.iter().any(|&s| s > 0.0),
            "cascade must deposit level-0 mass"
        );
        let mut ws = crate::workspace::ReverseScratch::default();
        for round in 0..3 {
            reverse_push_with(&g, &gu, &att, &gammas, &cfg, &mut ws);
            let warm = ws.materialize(g.num_nodes());
            assert_eq!(cold, warm, "round {round} drifted from the cold path");
        }
    }

    #[test]
    fn estimates_underestimate_meeting_mass_on_layers() {
        // layered_dag(3, 2) from u=4: nodes 4,5 share in-neighbourhood
        // {2,3}. Exact s(4,5): walks meet at step 1 w.p. c·1/2; if they miss
        // (different parents), they meet at step 2 w.p. c²·(1/2)… exact
        // value: c/2 + (c/2)·(c·(1/2·… )) — just assert the estimate is
        // within ε below the Monte-Carlo truth (cross-checked further in the
        // query-level tests).
        let g = shapes::layered_dag(3, 2);
        let eps = 0.005;
        let scores = run(&g, 4, eps);
        let mc = simrank_walks::pairwise_simrank_mc(
            &g,
            4,
            5,
            simrank_walks::WalkParams::new(0.6),
            400_000,
            7,
        );
        let diff = mc - scores[5];
        assert!(
            diff > -0.01 && diff < eps + 0.01,
            "s̃ = {}, MC ≈ {mc}",
            scores[5]
        );
    }
}
