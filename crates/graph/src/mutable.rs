//! [`MutableGraph`]: an adjacency-list graph supporting in-place updates.
//!
//! The paper's target scenario is "the underlying graph G is massive, with
//! frequent updates" — index-free algorithms answer queries on the *current*
//! graph with no rebuild step. `MutableGraph` implements [`GraphView`], so
//! SimPush and ProbeSim run on it directly; the `dynamic_updates` example and
//! the dynamic integration tests exercise exactly this path.

use crate::csr::CsrGraph;
use crate::view::GraphView;
use simrank_common::mem::LogicalBytes;
use simrank_common::NodeId;

/// Directed graph with O(d) edge insertion/removal.
///
/// Neighbour lists are kept sorted so that lookups are `O(log d)` and
/// iteration order matches [`CsrGraph`], which keeps deterministic algorithms
/// bit-identical across the two representations.
#[derive(Debug, Default, Clone)]
pub struct MutableGraph {
    outs: Vec<Vec<NodeId>>,
    ins: Vec<Vec<NodeId>>,
    m: usize,
}

impl MutableGraph {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Self {
            outs: vec![Vec::new(); n],
            ins: vec![Vec::new(); n],
            m: 0,
        }
    }

    /// Builds a mutable copy of a CSR snapshot.
    pub fn from_csr(g: &CsrGraph) -> Self {
        let n = g.num_nodes();
        let mut out = Self::new(n);
        for v in 0..n as NodeId {
            out.outs[v as usize] = g.out_neighbors(v).to_vec();
            out.ins[v as usize] = g.in_neighbors(v).to_vec();
        }
        out.m = g.num_edges();
        out
    }

    /// Appends an isolated node, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        self.outs.push(Vec::new());
        self.ins.push(Vec::new());
        (self.outs.len() - 1) as NodeId
    }

    /// Inserts edge `(src, dst)`. Returns `false` (and changes nothing) if
    /// the edge already exists.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn insert_edge(&mut self, src: NodeId, dst: NodeId) -> bool {
        let n = self.num_nodes();
        assert!(
            (src as usize) < n && (dst as usize) < n,
            "edge endpoint out of range"
        );
        let outs = &mut self.outs[src as usize];
        match outs.binary_search(&dst) {
            Ok(_) => false,
            Err(pos) => {
                outs.insert(pos, dst);
                let ins = &mut self.ins[dst as usize];
                let ipos = ins.binary_search(&src).unwrap_err();
                ins.insert(ipos, src);
                self.m += 1;
                true
            }
        }
    }

    /// Removes edge `(src, dst)`. Returns `false` if it did not exist.
    pub fn remove_edge(&mut self, src: NodeId, dst: NodeId) -> bool {
        let n = self.num_nodes();
        assert!(
            (src as usize) < n && (dst as usize) < n,
            "edge endpoint out of range"
        );
        let outs = &mut self.outs[src as usize];
        match outs.binary_search(&dst) {
            Err(_) => false,
            Ok(pos) => {
                outs.remove(pos);
                // The in-list mirrors the out-list, so `src` is present.
                let ins = &mut self.ins[dst as usize];
                let found = ins.binary_search(&src);
                debug_assert!(found.is_ok(), "in-list of {dst} lacks {src}");
                if let Ok(ipos) = found {
                    ins.remove(ipos);
                }
                self.m -= 1;
                true
            }
        }
    }

    /// True if edge `(src, dst)` exists.
    pub fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.outs[src as usize].binary_search(&dst).is_ok()
    }

    /// Freezes the current state into a CSR snapshot (for index-based
    /// baselines, which is precisely the conversion they must redo on every
    /// update).
    pub fn snapshot(&self) -> CsrGraph {
        let mut edges = Vec::with_capacity(self.m);
        for (s, outs) in self.outs.iter().enumerate() {
            for &t in outs {
                edges.push((s as NodeId, t));
            }
        }
        CsrGraph::from_sorted_edges(self.num_nodes(), &edges)
    }
}

impl GraphView for MutableGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.outs.len()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.m
    }

    #[inline]
    fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.outs[v as usize]
    }

    #[inline]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.ins[v as usize]
    }
}

impl LogicalBytes for MutableGraph {
    fn logical_bytes(&self) -> usize {
        let lists: usize = self
            .outs
            .iter()
            .chain(self.ins.iter())
            .map(|l| l.logical_bytes() + std::mem::size_of::<Vec<NodeId>>())
            .sum();
        lists
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn insert_and_remove_maintain_both_directions() {
        let mut g = MutableGraph::new(4);
        assert!(g.insert_edge(0, 2));
        assert!(g.insert_edge(1, 2));
        assert!(!g.insert_edge(0, 2), "duplicate insert is a no-op");
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.in_neighbors(2), &[0, 1]);
        assert!(g.remove_edge(0, 2));
        assert!(!g.remove_edge(0, 2), "double remove is a no-op");
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.in_neighbors(2), &[1]);
        assert!(g.out_neighbors(0).is_empty());
    }

    #[test]
    fn lists_stay_sorted() {
        let mut g = MutableGraph::new(5);
        for s in [4, 1, 3, 0] {
            g.insert_edge(s, 2);
        }
        assert_eq!(g.in_neighbors(2), &[0, 1, 3, 4]);
        g.insert_edge(2, 4);
        g.insert_edge(2, 0);
        assert_eq!(g.out_neighbors(2), &[0, 4]);
    }

    #[test]
    fn snapshot_round_trips_with_csr() {
        let csr = GraphBuilder::new()
            .with_edges([(0, 1), (1, 2), (2, 0), (0, 2)])
            .build();
        let m = MutableGraph::from_csr(&csr);
        assert_eq!(m.num_edges(), csr.num_edges());
        assert_eq!(m.snapshot(), csr);
    }

    #[test]
    fn add_node_grows_the_universe() {
        let mut g = MutableGraph::new(1);
        let v = g.add_node();
        assert_eq!(v, 1);
        assert_eq!(g.num_nodes(), 2);
        g.insert_edge(0, 1);
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn updates_then_snapshot_equal_fresh_build() {
        let mut g = MutableGraph::new(3);
        g.insert_edge(0, 1);
        g.insert_edge(1, 2);
        g.insert_edge(0, 2);
        g.remove_edge(0, 1);
        let want = GraphBuilder::new()
            .with_num_nodes(3)
            .with_edges([(1, 2), (0, 2)])
            .build();
        assert_eq!(g.snapshot(), want);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_insert() {
        MutableGraph::new(2).insert_edge(0, 7);
    }
}
