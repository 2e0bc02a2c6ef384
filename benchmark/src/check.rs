//! The correctness gate: every number the benchmark prints is about answers
//! that these checks accepted.

use crate::gen::{derive, distinct_below, SplitMix64};
use crate::spec::{CHECKED_ANSWERS, EPSILON, GRAPH_SEED, TOP_K, WEB_1K};
use simrank_suite::baselines::power::power_method;
use simrank_suite::graph::gen::copying_web;
use simrank_suite::graph::{CsrGraph, GraphUpdate, GraphView};
use simrank_suite::simpush::SimPush;
use std::collections::HashMap;

pub type TopK = Vec<(u32, f64)>;

/// Cheap enough to run on every answer: at most `TOP_K` entries, never the
/// query node, scores in `(0, 1]`, ordered by score then node id.
pub fn well_formed(node: u32, top: &[(u32, f64)]) -> bool {
    top.len() <= TOP_K
        && top.iter().all(|&(v, s)| v != node && s > 0.0 && s <= 1.0)
        && top
            .windows(2)
            .all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0))
}

/// Bitwise equality of two answers.
pub fn same_answer(a: &[(u32, f64)], b: &[(u32, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// Rebuilds the graph of an epoch from nothing but the base CSR and the
/// update batches, without going through any store.
#[derive(Debug)]
pub struct Replayer<'a> {
    base: &'a CsrGraph,
    /// Edges whose presence differs from, or was rewritten over, the base.
    present: HashMap<(u32, u32), bool>,
}

impl<'a> Replayer<'a> {
    pub fn new(base: &'a CsrGraph) -> Self {
        Self {
            base,
            present: HashMap::new(),
        }
    }

    pub fn apply(&mut self, batch: &[GraphUpdate]) {
        for &u in batch {
            match u {
                GraphUpdate::Insert(s, t) => self.present.insert((s, t), true),
                GraphUpdate::Remove(s, t) => self.present.insert((s, t), false),
            };
        }
    }

    pub fn build(&self) -> CsrGraph {
        let mut edges: Vec<(u32, u32)> = self
            .base
            .edges()
            .filter(|e| self.present.get(e) != Some(&false))
            .collect();
        let before = edges.len();
        edges.extend(
            self.present
                .iter()
                .filter(|(&(s, t), &p)| p && !self.base.has_edge(s, t))
                .map(|(&e, _)| e),
        );
        if edges.len() > before {
            edges.sort_unstable();
        }
        CsrGraph::from_sorted_edges(self.base.num_nodes(), &edges)
    }
}

/// The paper's guarantee on a graph small enough for the power method:
/// `s̃ ≤ s` and `s − s̃ ≤ ε` for every pair. Returns the largest error as a
/// share of `ε` and whether any estimate exceeded the truth.
pub fn epsilon_guarantee(engine: &SimPush, seed: u64) -> (f64, bool) {
    let g = copying_web(WEB_1K.nodes, WEB_1K.out_links, 0.75, GRAPH_SEED);
    let exact = power_method(&g, engine.config().c, 1e-12, 120);
    let mut rng = SplitMix64::new(derive(seed, "epsilon"));
    let mut worst = 0.0f64;
    let mut overshoot = false;
    for u in distinct_below(&mut rng, g.num_nodes(), CHECKED_ANSWERS) {
        let truth = exact.single_source(u as u32);
        let got = engine.query_seeded(&g, u as u32).scores;
        for (s, s_hat) in truth.iter().zip(&got) {
            overshoot |= *s_hat > s + 1e-9;
            worst = worst.max((s - s_hat) / EPSILON);
        }
    }
    (worst, overshoot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrank_suite::graph::MutableGraph;

    #[test]
    fn well_formed_rejects_each_violation() {
        assert!(well_formed(1, &[(2, 0.5), (3, 0.5), (4, 0.1)]));
        assert!(well_formed(1, &[]));
        assert!(!well_formed(1, &[(1, 0.5)]), "self");
        assert!(!well_formed(1, &[(2, 0.1), (3, 0.5)]), "order");
        assert!(!well_formed(1, &[(3, 0.5), (2, 0.5)]), "tie order");
        assert!(!well_formed(1, &[(2, 0.0)]), "zero score");
        assert!(!well_formed(1, &[(2, 1.5)]), "score above one");
        let long: TopK = (0..=TOP_K as u32)
            .map(|i| (i + 2, 1.0 / (i + 2) as f64))
            .collect();
        assert!(!well_formed(1, &long), "too long");
    }

    #[test]
    fn replayer_matches_a_mutable_graph() {
        let g = copying_web(2_000, 5, 0.75, 7);
        let (mut toggle, initial) = crate::gen::ToggleStream::new(&g, 256, 9);
        let mut batches = vec![initial];
        batches.extend((0..20).map(|_| toggle.next_batch(64)));
        // An insert of an edge the base never had, then its removal.
        batches.push(vec![
            GraphUpdate::Insert(1_999, 0),
            GraphUpdate::Insert(5, 1_998),
        ]);
        batches.push(vec![GraphUpdate::Remove(1_999, 0)]);
        let mut replayer = Replayer::new(&g);
        let mut replica = MutableGraph::from_csr(&g);
        for batch in &batches {
            replayer.apply(batch);
            for &u in batch {
                match u {
                    GraphUpdate::Insert(s, t) => replica.insert_edge(s, t),
                    GraphUpdate::Remove(s, t) => replica.remove_edge(s, t),
                };
            }
            assert_eq!(replayer.build(), replica.snapshot());
        }
    }

    #[test]
    fn epsilon_guarantee_holds_at_two_seeds() {
        let engine = SimPush::new(simrank_suite::simpush::Config::new(EPSILON));
        for seed in [1, 2] {
            let (worst, overshoot) = epsilon_guarantee(&engine, seed);
            assert!(!overshoot);
            assert!(worst > 0.0 && worst <= 1.0, "max error {worst} of ε");
        }
    }
}
