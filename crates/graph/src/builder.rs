//! Edge-list accumulation with normalisation policies.

use crate::csr::CsrGraph;
use simrank_common::NodeId;

/// Accumulates edges and normalises them into a [`CsrGraph`].
///
/// Normalisation applied at [`build`](GraphBuilder::build) time:
/// duplicate edges are always collapsed; self loops are dropped unless
/// [`keep_self_loops`](GraphBuilder::keep_self_loops) is set; with
/// [`symmetrize`](GraphBuilder::symmetrize) every edge `(u,v)` also yields
/// `(v,u)` — the paper's convention for undirected inputs (§2.1).
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    edges: Vec<(NodeId, NodeId)>,
    min_nodes: usize,
    keep_self_loops: bool,
    symmetrize: bool,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures the built graph has at least `n` nodes even if some have no
    /// edges.
    pub fn with_num_nodes(mut self, n: usize) -> Self {
        self.min_nodes = n;
        self
    }

    /// Keeps self loops instead of dropping them (default: drop — the
    /// SimRank definition sums over in-neighbour pairs of *distinct* walks
    /// and the standard datasets are loop-free).
    pub fn keep_self_loops(mut self) -> Self {
        self.keep_self_loops = true;
        self
    }

    /// Treats the input as undirected: each added edge also adds its
    /// reverse.
    pub fn symmetrize(mut self) -> Self {
        self.symmetrize = true;
        self
    }

    /// Adds one directed edge.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId) -> &mut Self {
        self.edges.push((src, dst));
        self
    }

    /// Adds many edges (builder-style).
    pub fn with_edges<I: IntoIterator<Item = (NodeId, NodeId)>>(mut self, it: I) -> Self {
        self.edges.extend(it);
        self
    }

    /// Normalises and freezes into a [`CsrGraph`].
    pub fn build(self) -> CsrGraph {
        let Self {
            mut edges,
            min_nodes,
            keep_self_loops,
            symmetrize,
        } = self;

        if symmetrize {
            let rev: Vec<_> = edges.iter().map(|&(s, t)| (t, s)).collect();
            edges.extend(rev);
        }
        if !keep_self_loops {
            edges.retain(|&(s, t)| s != t);
        }
        edges.sort_unstable();
        edges.dedup();

        let n = edges
            .iter()
            .map(|&(s, t)| s.max(t) as usize + 1)
            .max()
            .unwrap_or(0)
            .max(min_nodes);
        CsrGraph::from_sorted_edges(n, &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphView;

    #[test]
    fn dedups_and_sizes_from_max_id() {
        let g = GraphBuilder::new()
            .with_edges([(0, 1), (0, 1), (1, 2), (0, 1)])
            .build();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn drops_self_loops_by_default() {
        let g = GraphBuilder::new().with_edges([(0, 0), (0, 1)]).build();
        assert_eq!(g.num_edges(), 1);
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn keeps_self_loops_when_asked() {
        let g = GraphBuilder::new()
            .keep_self_loops()
            .with_edges([(0, 0), (0, 1)])
            .build();
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 0));
    }

    #[test]
    fn symmetrize_adds_reverse_edges_once() {
        let g = GraphBuilder::new()
            .symmetrize()
            .with_edges([(0, 1), (1, 0), (1, 2)])
            .build();
        // {0,1} both ways (dedup'd) + {1,2} both ways
        assert_eq!(g.num_edges(), 4);
        assert!(g.has_edge(2, 1));
    }

    #[test]
    fn with_num_nodes_pads_isolated_nodes() {
        let g = GraphBuilder::new()
            .with_num_nodes(10)
            .with_edges([(0, 1)])
            .build();
        assert_eq!(g.num_nodes(), 10);
        assert!(g.out_neighbors(9).is_empty());
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn incremental_add_edge() {
        let mut b = GraphBuilder::new();
        b.add_edge(3, 1).add_edge(1, 3);
        let g = b.build();
        assert_eq!(g.num_nodes(), 4);
        assert!(g.has_edge(3, 1) && g.has_edge(1, 3));
    }
}
