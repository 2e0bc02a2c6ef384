//! PRSim (Wei et al., SIGMOD 2019) — the fastest index-based competitor
//! (paper §2.2).
//!
//! PRSim links SimRank to reverse personalized PageRank (Eq. 4) and splits
//! the work: *hub* nodes get their reverse-push lists precomputed; every
//! other meeting node is probed online. Queries sample √c-walks from `u` —
//! a walk visit at `(w, ℓ)` is an unbiased sample of `h^(ℓ)(u, w)` — and
//! resolve each visit either from the hub index or by a bounded online
//! reverse push, weighting by the last-meeting correction `η(w)`.
//!
//! Fidelity notes: hubs are the top `j₀ = √n` nodes by
//! in-degree (a stand-in for the original's PageRank ordering — identical on
//! the power-law graphs both papers target); `η` is estimated by paired-walk
//! sampling at preprocessing time, as in our SLING.

use crate::api::SimRankMethod;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use simrank_common::seeds::splitmix64;
use simrank_common::{FxHashMap, NodeId};
use simrank_graph::{CsrGraph, GraphView};
use simrank_walks::{sample_walk, WalkParams};

/// Walk-length safety cap (mass beyond is `< c^32`).
const MAX_WALK_STEPS: usize = 64;

/// The PRSim method.
pub struct PrSim {
    /// Query error target ε (drives the walk count).
    pub epsilon: f64,
    /// Failure probability δ.
    pub delta: f64,
    /// Reverse-push threshold for hub lists and online probes.
    pub eps_push: f64,
    /// Number of hub nodes (`None` = ⌈√n⌉, the paper's default `j₀`).
    pub num_hubs: Option<usize>,
    /// Paired-walk samples per node for `η(w)`.
    pub eta_samples: usize,
    /// Decay factor.
    pub c: f64,
    /// Master seed.
    pub seed: u64,
    index: Option<PrSimIndex>,
}

struct PrSimIndex {
    is_hub: Vec<bool>,
    /// `(hub, ℓ) → [(v, h^(ℓ)(v, hub))]`.
    hub_lists: FxHashMap<(NodeId, u8), Vec<(NodeId, f64)>>,
    /// Lazily memoised `η(w)` per meeting node. The original PRSim folds the
    /// last-meeting correction into query-time sampling; memoising the
    /// per-node estimate across queries is the equivalent cached form.
    eta: FxHashMap<NodeId, f64>,
    bytes: usize,
}

impl PrSim {
    /// Standard configuration (`c = 0.6`, `δ = 10⁻⁴`, `j₀ = √n`).
    pub fn new(epsilon: f64, eps_push: f64, eta_samples: usize, seed: u64) -> Self {
        Self {
            epsilon,
            delta: 1e-4,
            eps_push,
            num_hubs: None,
            eta_samples,
            c: 0.6,
            seed,
            index: None,
        }
    }

    /// Query walk count, same Hoeffding form as ProbeSim.
    pub fn num_walks(&self, n: usize) -> usize {
        let r = (2.0 * n as f64 / self.delta).ln() / (2.0 * self.epsilon * self.epsilon);
        (r.ceil() as usize).max(1)
    }

    fn push_levels(&self) -> usize {
        ((1.0 / self.eps_push).ln() / (1.0 / self.c.sqrt()).ln()).floor() as usize
    }

    /// Threshold reverse push from `w`: returns, per level, the nodes `v`
    /// with `h^(ℓ)(v, w) ≥ eps_push`.
    fn reverse_push_from<G: GraphView>(
        g: &G,
        w: NodeId,
        sqrt_c: f64,
        eps_push: f64,
        max_level: usize,
    ) -> Vec<Vec<(NodeId, f64)>> {
        let mut out = Vec::new();
        let mut cur: FxHashMap<NodeId, f64> = FxHashMap::default();
        cur.insert(w, 1.0);
        for _ in 1..=max_level {
            let mut next: FxHashMap<NodeId, f64> = FxHashMap::default();
            for (&x, &p) in &cur {
                for &v in g.out_neighbors(x) {
                    *next.entry(v).or_insert(0.0) += sqrt_c * p / g.in_degree(v) as f64;
                }
            }
            next.retain(|_, p| *p >= eps_push);
            if next.is_empty() {
                break;
            }
            let mut entries: Vec<(NodeId, f64)> = next.iter().map(|(&v, &p)| (v, p)).collect();
            entries.sort_unstable_by_key(|&(v, _)| v);
            out.push(entries);
            cur = next;
        }
        out
    }

    /// Online probe: `h^(ℓ)(·, w)` for one specific level `ℓ` (bounded push
    /// with the same threshold as the hub lists).
    fn online_probe<G: GraphView>(
        g: &G,
        w: NodeId,
        level: usize,
        sqrt_c: f64,
        eps_push: f64,
    ) -> FxHashMap<NodeId, f64> {
        let mut cur: FxHashMap<NodeId, f64> = FxHashMap::default();
        cur.insert(w, 1.0);
        for _ in 0..level {
            let mut next: FxHashMap<NodeId, f64> = FxHashMap::default();
            for (&x, &p) in &cur {
                if p < eps_push {
                    continue;
                }
                for &v in g.out_neighbors(x) {
                    *next.entry(v).or_insert(0.0) += sqrt_c * p / g.in_degree(v) as f64;
                }
            }
            cur = next;
            if cur.is_empty() {
                break;
            }
        }
        cur
    }
}

impl SimRankMethod for PrSim {
    fn name(&self) -> String {
        format!("PRSim(ε={},εp={})", self.epsilon, self.eps_push)
    }

    fn is_indexed(&self) -> bool {
        true
    }

    fn preprocess(&mut self, g: &CsrGraph) {
        let n = g.num_nodes();
        let sqrt_c = self.c.sqrt();
        let j0 = self
            .num_hubs
            .unwrap_or_else(|| (n as f64).sqrt().ceil() as usize)
            .min(n);

        // Hubs: top-j₀ by in-degree.
        let mut order: Vec<NodeId> = (0..n as NodeId).collect();
        order.sort_unstable_by_key(|&v| std::cmp::Reverse(g.in_degree(v)));
        let mut is_hub = vec![false; n];
        for &w in order.iter().take(j0) {
            is_hub[w as usize] = true;
        }

        let max_level = self.push_levels();
        let mut hub_lists: FxHashMap<(NodeId, u8), Vec<(NodeId, f64)>> = FxHashMap::default();
        for &w in order.iter().take(j0) {
            let levels = Self::reverse_push_from(g, w, sqrt_c, self.eps_push, max_level);
            for (i, entries) in levels.into_iter().enumerate() {
                hub_lists.insert((w, (i + 1) as u8), entries);
            }
        }

        let bytes = hub_lists
            .values()
            .map(|v| v.capacity() * std::mem::size_of::<(NodeId, f64)>() + 24)
            .sum::<usize>()
            + is_hub.capacity();
        self.index = Some(PrSimIndex {
            is_hub,
            hub_lists,
            eta: FxHashMap::default(),
            bytes,
        });
    }

    fn query(&mut self, g: &CsrGraph, u: NodeId) -> Vec<f64> {
        let n = g.num_nodes();
        let eta_samples = self.eta_samples;
        let sqrt_c = self.c.sqrt();
        let params = WalkParams::new(self.c);
        let walks = self.num_walks(n);
        let weight = 1.0 / walks as f64;
        let idx = self
            .index
            .as_mut()
            .expect("PRSim requires preprocess() before query()");

        let mut state = self.seed ^ ((u as u64) << 17);
        let mut rng = SmallRng::seed_from_u64(splitmix64(&mut state));
        let mut eta_state = self.seed ^ 0x9e37;
        let mut eta_rng = SmallRng::seed_from_u64(splitmix64(&mut eta_state));
        let mut scores = vec![0.0; n];
        for _ in 0..walks {
            let walk = sample_walk(g, u, params, MAX_WALK_STEPS, &mut rng);
            for (ell, &w) in walk.iter().enumerate().skip(1) {
                let eta_w = *idx.eta.entry(w).or_insert_with(|| {
                    crate::sling::eta_by_sampling(g, w, sqrt_c, eta_samples, &mut eta_rng)
                });
                if eta_w == 0.0 {
                    continue;
                }
                let scale = weight * eta_w;
                if idx.is_hub[w as usize] {
                    if let Some(list) = idx.hub_lists.get(&(w, ell as u8)) {
                        for &(v, h) in list {
                            scores[v as usize] += scale * h;
                        }
                    }
                } else {
                    let probe = Self::online_probe(g, w, ell, sqrt_c, self.eps_push);
                    for (&v, &h) in &probe {
                        scores[v as usize] += scale * h;
                    }
                }
            }
        }
        scores[u as usize] = 1.0;
        scores
    }

    fn index_bytes(&self) -> usize {
        self.index.as_ref().map_or(0, |i| i.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::power_method;
    use simrank_graph::gen::shapes;

    #[test]
    fn matches_power_method_on_small_graphs() {
        let g = shapes::jeh_widom();
        let exact = power_method(&g, 0.6, 1e-12, 100);
        let mut pr = PrSim::new(0.05, 1e-4, 3000, 1);
        pr.preprocess(&g);
        for u in 0..5 as NodeId {
            let scores = pr.query(&g, u);
            for v in 0..5 as NodeId {
                let diff = (scores[v as usize] - exact.get(u, v)).abs();
                assert!(
                    diff < 0.06,
                    "u={u} v={v}: prsim {} exact {}",
                    scores[v as usize],
                    exact.get(u, v)
                );
            }
        }
    }

    #[test]
    fn hub_selection_prefers_high_in_degree() {
        let g = shapes::star_in(30); // node 0 has in-degree 29
        let mut pr = PrSim::new(0.1, 0.01, 50, 2);
        pr.num_hubs = Some(3);
        pr.preprocess(&g);
        assert!(pr.index.as_ref().unwrap().is_hub[0]);
    }

    #[test]
    fn hand_value_shared_parents() {
        let g = shapes::shared_parents();
        let mut pr = PrSim::new(0.05, 1e-4, 4000, 3);
        pr.preprocess(&g);
        let scores = pr.query(&g, 0);
        assert!((scores[1] - 0.3).abs() < 0.03, "s̃(a,b) = {}", scores[1]);
    }

    #[test]
    #[should_panic(expected = "preprocess")]
    fn query_without_index_panics() {
        let g = shapes::path(3);
        PrSim::new(0.1, 0.01, 10, 0).query(&g, 0);
    }

    #[test]
    fn index_bytes_reported() {
        let g = simrank_graph::gen::gnm(100, 600, 4);
        let mut pr = PrSim::new(0.1, 0.01, 20, 1);
        pr.preprocess(&g);
        assert!(pr.index_bytes() > 0);
        assert!(pr.is_indexed());
    }
}
