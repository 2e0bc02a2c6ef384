//! Source-Push as its own level detector: the exact phase, the edge budget
//! and the residual-walk fallback (`crates/core/src/source_push.rs`).
//!
//! Pinned here: Monte-Carlo mode answers exactly like exact mode on seeded
//! graphs whether or not it had to sample; the mass bound agrees with a
//! naive push of all `L*` levels; a level of thin nodes whose mass
//! reconcentrates is found on both sides of the budget; the exact phase
//! never scans more in-edges than the budget before the first walk; and the
//! four public stage functions chained by hand answer exactly like
//! `query_seeded_with`, settled or sampled.

use simpush::gamma::compute_gammas_with;
use simpush::hitting::attention_hitting_with;
use simpush::reverse_push::reverse_push_with;
use simpush::source_push::{detection_edge_budget, source_push, source_push_with};
use simpush::{Config, QueryWorkspace, SimPush};
use simrank_suite::common::seeds::splitmix64;
use simrank_suite::graph::gen::{copying_web, gnm, rmat, RmatParams};
use simrank_suite::prelude::*;
use std::cell::Cell;

/// Scores and every `Gu` level (attention list, entries in iteration order)
/// of Monte-Carlo mode against exact mode, bit for bit. Returns whether the
/// Monte-Carlo run sampled.
fn monte_carlo_equals_exact(g: &CsrGraph, u: NodeId, eps: f64) -> bool {
    let (mc_cfg, exact_cfg) = (Config::new(eps), Config::exact(eps));
    let context = format!("u={u} eps={eps}");
    let mc = SimPush::new(mc_cfg.clone()).query(g, u);
    let exact = SimPush::new(exact_cfg.clone()).query(g, u);
    let bits = |scores: &[f64]| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&mc.scores), bits(&exact.scores), "scores, {context}");
    assert_eq!(exact.stats.num_walks, 0, "{context}");

    let (mc_gu, exact_gu) = (
        source_push(g, u, &mc_cfg).gu,
        source_push(g, u, &exact_cfg).gu,
    );
    assert_eq!(mc_gu.max_level(), exact_gu.max_level(), "L, {context}");
    for (ell, (a, b)) in mc_gu.levels.iter().zip(&exact_gu.levels).enumerate() {
        assert_eq!(a.attention, b.attention, "level {ell}, {context}");
        let entries = |level: &simpush::source_graph::Level| {
            level
                .h
                .iter()
                .map(|(w, h)| (w, h.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(entries(a), entries(b), "level {ell}, {context}");
    }
    mc.stats.num_walks > 0
}

/// The heaviest in-degree node, a node it links to (so it sits on that
/// node's level 1) and a few arbitrary ones.
fn hub_and_plain_queries(g: &CsrGraph) -> Vec<NodeId> {
    let hub = g
        .nodes()
        .max_by_key(|&v| g.in_degree(v))
        .expect("non-empty graph");
    let n = g.num_nodes() as NodeId;
    let mut queries = vec![hub, n / 3, n / 2, n - 1];
    queries.extend(g.out_neighbors(hub).iter().find(|&&v| v != hub));
    queries.sort_unstable();
    queries.dedup();
    queries
}

#[test]
fn monte_carlo_mode_equals_exact_mode_bit_for_bit_on_both_paths() {
    // Hub graphs run both paths. `gnm` at this density has neither hubs nor
    // dead ends: mass decays by exactly √c a level, the budget always runs
    // out before the mass bound can fire, and every query samples.
    let graphs = [
        ("gnm", gnm(1_000, 8_000, 5), false),
        ("copying_web", copying_web(8_000, 8, 0.75, 11), true),
        ("rmat", rmat(13, 20_000, RmatParams::high_skew(), 3), true),
    ];
    for (family, g, settles_too) in &graphs {
        let (mut sampled, mut settled) = (0, 0);
        for eps in [0.05, 0.02, 0.01] {
            for u in hub_and_plain_queries(g) {
                if monte_carlo_equals_exact(g, u, eps) {
                    sampled += 1;
                } else {
                    settled += 1;
                }
            }
        }
        assert!(
            sampled > 0 && (settled > 0) == *settles_too,
            "{family}: {sampled} queries sampled, {settled} settled exactly"
        );
    }
}

/// Attention lists per level from a dense push of all `L*` levels, trimmed
/// like `Gu` — what exact mode computed before it had the mass bound.
fn full_push_attention(g: &CsrGraph, u: NodeId, cfg: &Config) -> Vec<Vec<NodeId>> {
    let n = g.num_nodes();
    let mut h = vec![0.0; n];
    h[u as usize] = 1.0;
    let mut attention = vec![Vec::new()];
    for _ in 0..cfg.l_star() {
        let mut next = vec![0.0; n];
        for v in g.nodes().filter(|&v| h[v as usize] > 0.0) {
            let ins = g.in_neighbors(v);
            for &w in ins {
                next[w as usize] += cfg.sqrt_c() * h[v as usize] / ins.len() as f64;
            }
        }
        h = next;
        attention.push(
            g.nodes()
                .filter(|&w| h[w as usize] >= cfg.eps_h())
                .collect(),
        );
    }
    while attention.len() > 1 && attention.last().is_some_and(Vec::is_empty) {
        attention.pop();
    }
    attention
}

#[test]
fn mass_bound_stops_where_a_full_push_finds_nothing_more() {
    let graphs = [
        gnm(400, 2_400, 9),
        copying_web(1_500, 5, 0.7, 17),
        rmat(10, 5_000, RmatParams::social(), 23),
        shapes::cycle(7), // no mass ever dies: all L* levels are needed
    ];
    for g in &graphs {
        for eps in [0.05, 0.01] {
            let cfg = Config::exact(eps);
            let n = g.num_nodes() as NodeId;
            for u in [0, n / 3, n / 2, n - 1] {
                let out = source_push(g, u, &cfg);
                let got: Vec<Vec<NodeId>> = out
                    .gu
                    .levels
                    .iter()
                    .map(|level| level.attention.clone())
                    .collect();
                assert_eq!(got, full_push_attention(g, u, &cfg), "u={u} eps={eps}");
                assert!(out.detected_level <= cfg.l_star());
            }
        }
    }
}

/// `u = 0` ← `fan` thin nodes ← one node `w = fan + 1`.
fn reconcentration(fan: u32) -> CsrGraph {
    let w = fan + 1;
    GraphBuilder::new()
        .with_edges((1..=fan).flat_map(|thin| [(thin, 0), (w, thin)]))
        .build()
}

#[test]
fn reconcentrated_mass_is_found_below_and_above_the_budget() {
    let cfg = Config::new(0.05);
    let (budget, walks) = (detection_edge_budget(&cfg), cfg.num_detection_walks());
    // Every thin node holds √c/fan < ε_h, w holds all of it again: c.
    let thin_above = (cfg.sqrt_c() / cfg.eps_h()).ceil() as usize;
    for fan in [500usize, 2_000, 5_000] {
        assert!(fan > thin_above, "level 1 must be thin at fan {fan}");
        let g = reconcentration(fan as u32);
        let out = source_push(&g, 0, &cfg);
        let context = format!("fan {fan}, budget {budget}, {} walks", out.num_walks);
        if 2 * fan <= budget {
            // Both levels fit: settled exactly, the mass bound did not fire
            // on the attention-free level 1.
            assert_eq!(out.num_walks, 0, "{context}");
        } else if fan <= budget {
            // Level 1 is exact, level 2 would not fit: ⌈R·√c/fan⌉ residual
            // walks from each thin node.
            let per_node = (walks as f64 * cfg.sqrt_c() / fan as f64).ceil() as usize;
            assert_eq!(out.num_walks, per_node * fan, "{context}");
        } else {
            assert_eq!(out.num_walks, walks, "{context}");
        }
        let gu = &out.gu;
        assert_eq!(gu.max_level(), 2, "{context}");
        assert!(gu.levels[1].attention.is_empty(), "{context}");
        assert_eq!(gu.levels[2].attention, [fan as NodeId + 1], "{context}");
        let h = gu.levels[2].h.get(fan as NodeId + 1).expect("w on level 2");
        assert!((h - cfg.c).abs() < 1e-9, "h(w) = {h}, {context}");
    }
}

/// Counts what a query asks of the graph: degree probes apart from adjacency
/// reads, and the in-edges handed out before `marked`'s adjacency is first
/// read.
struct CountingView<'g> {
    inner: &'g CsrGraph,
    marked: NodeId,
    degree_probes: Cell<usize>,
    in_edges_read: Cell<usize>,
    in_edges_before_marked: Cell<Option<usize>>,
}

impl GraphView for CountingView<'_> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }
    fn num_edges(&self) -> usize {
        self.inner.num_edges()
    }
    fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.inner.out_neighbors(v)
    }
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        if v == self.marked && self.in_edges_before_marked.get().is_none() {
            self.in_edges_before_marked
                .set(Some(self.in_edges_read.get()));
        }
        let ins = self.inner.in_neighbors(v);
        self.in_edges_read.set(self.in_edges_read.get() + ins.len());
        ins
    }
    fn in_degree(&self, v: NodeId) -> usize {
        self.degree_probes.set(self.degree_probes.get() + 1);
        self.inner.in_degree(v)
    }
}

#[test]
fn exact_phase_scans_at_most_the_budget_before_the_first_walk() {
    // u = 0 ← 1 ← hub 2 ← `leaves` sources. The exact phase can afford the
    // chain; the hub's adjacency is first read by a walk.
    let cfg = Config::new(0.05);
    let budget = detection_edge_budget(&cfg);
    let leaves = budget as u32; // 2 + leaves > budget
    let g = GraphBuilder::new()
        .with_edges([(1, 0), (2, 1)])
        .with_edges((0..leaves).map(|leaf| (3 + leaf, 2)))
        .build();
    let view = CountingView {
        inner: &g,
        marked: 2,
        degree_probes: Cell::new(0),
        in_edges_read: Cell::new(0),
        in_edges_before_marked: Cell::new(None),
    };
    let out = source_push(&view, 0, &cfg);

    // The whole level-2 mass c sits on the hub: ⌈R·c⌉ residual walks.
    let expected_walks = (cfg.num_detection_walks() as f64 * cfg.c).ceil() as usize;
    assert_eq!(out.num_walks, expected_walks);
    let scanned = view
        .in_edges_before_marked
        .get()
        .expect("walks read the hub");
    assert_eq!(scanned, 2, "only the chain was pushed exactly");
    assert!(scanned <= budget);
    assert_eq!(
        view.degree_probes.get(),
        3,
        "one pre-scan per frontier node"
    );
    // No leaf reaches ε_h, so the walks detect nothing deeper and the hub is
    // never expanded: had the push scanned it, level 3 would exist.
    assert_eq!(out.detected_level, 2);
    assert_eq!(out.gu.max_level(), 2);
    assert_eq!(out.gu.levels[2].attention, [2]);
}

/// The equality `benchmark/src/trace.rs::staged_pipeline_equals_query_seeded_bit_for_bit`
/// checks, on its graph and its four keys plus the heaviest hub: that test
/// first asserts that every key draws walks, which no longer holds (its
/// directory is frozen), so it stops before it gets to the comparison.
#[test]
fn staged_pipeline_equals_query_seeded_bit_for_bit_on_both_paths() {
    let g = copying_web(3_000, 6, 0.75, 7);
    let engine = SimPush::new(Config::new(0.02));
    let (mut warm, mut ws) = (QueryWorkspace::new(), QueryWorkspace::new());
    let hub = g
        .nodes()
        .max_by_key(|&v| g.in_degree(v))
        .expect("non-empty graph");
    let (mut sampled, mut settled) = (0, 0);
    for u in [0, 17, 1_234, 2_999, hub] {
        let want = engine.query_seeded_with(&g, u, &mut warm);

        // The per-query configuration `query_seeded` derives.
        let mut state = engine.config().seed ^ ((u as u64) << 24);
        let cfg = Config {
            seed: splitmix64(&mut state),
            ..engine.config().clone()
        };
        let pushed = source_push_with(&g, u, &cfg, &mut ws.source);
        assert_eq!(pushed.num_walks, want.stats.num_walks, "u={u}");
        if pushed.num_walks > 0 {
            sampled += 1;
        } else {
            settled += 1;
        }
        let gu = pushed.gu;
        ws.att.build_into(&gu);
        attention_hitting_with(&g, &gu, &ws.att, cfg.sqrt_c(), &mut ws.hitting);
        compute_gammas_with(&ws.att, ws.hitting.att_hit(), gu.max_level(), &mut ws.gamma);
        reverse_push_with(&g, &gu, &ws.att, ws.gamma.gammas(), &cfg, &mut ws.reverse);
        let acc = ws.reverse.scores();
        let mut got: Vec<f64> = g.nodes().map(|v| acc.get(v as usize)).collect();
        got[u as usize] = 1.0;
        ws.recycle(gu);

        let bits = |scores: &[f64]| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&want.scores), bits(&got), "u={u}");
    }
    assert!(
        sampled > 0 && settled > 0,
        "{sampled} keys sampled, {settled} settled: both paths must run"
    );
}
