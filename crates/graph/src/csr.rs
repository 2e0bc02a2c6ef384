//! Compressed-sparse-row storage with both edge directions.
//!
//! SimRank algorithms traverse both directions in the hot path: √c-walks and
//! Source-Push follow **in**-edges, Reverse-Push follows **out**-edges. A
//! [`CsrGraph`] therefore materialises both adjacency arrays. Built from an
//! edge list, the in-arrays are derived from the out-arrays by a
//! counting-sort transpose; compacted from a view that already has both
//! directions as sorted lists, both are copied list by list. Either way
//! construction stays `O(n + m)` with no per-edge allocation.

use crate::view::GraphView;
use simrank_common::mem::LogicalBytes;
use simrank_common::NodeId;

/// Immutable directed graph in CSR form (out- and in-adjacency).
///
/// Invariants (enforced by the constructors, relied upon everywhere):
/// * `out_offsets.len() == in_offsets.len() == n + 1`, both monotone, ending
///   at `m`.
/// * Every neighbour list is sorted ascending (enables binary-search
///   membership tests and deterministic iteration order).
/// * Out- and in-adjacency describe the same edge multiset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    out_offsets: Vec<usize>,
    out_targets: Vec<NodeId>,
    in_offsets: Vec<usize>,
    in_sources: Vec<NodeId>,
}

impl CsrGraph {
    /// Builds a graph from a sorted, deduplicated edge list.
    ///
    /// `edges` must be sorted by `(src, dst)` and free of duplicates; callers
    /// should normally go through [`GraphBuilder`](crate::GraphBuilder),
    /// which establishes that. Node ids must be `< n`.
    ///
    /// # Panics
    /// Panics if an edge endpoint is out of range or the edge list is not
    /// sorted/deduplicated.
    pub fn from_sorted_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let m = edges.len();
        let mut out_offsets = vec![0usize; n + 1];
        for w in edges.windows(2) {
            assert!(w[0] < w[1], "edge list must be sorted and deduplicated");
        }
        for &(s, t) in edges {
            assert!(
                (s as usize) < n && (t as usize) < n,
                "edge ({s},{t}) out of range for n={n}"
            );
            out_offsets[s as usize + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        let out_targets: Vec<NodeId> = edges.iter().map(|&(_, t)| t).collect();

        // Transpose via counting sort over destinations. Because the input is
        // sorted by (src, dst), filling in source order makes each in-list
        // sorted by source automatically.
        let mut in_offsets = vec![0usize; n + 1];
        for &(_, t) in edges {
            in_offsets[t as usize + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut cursor = in_offsets.clone();
        let mut in_sources = vec![0 as NodeId; m];
        for &(s, t) in edges {
            let c = &mut cursor[t as usize];
            in_sources[*c] = s;
            *c += 1;
        }

        Self {
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
        }
    }

    /// Copies the out-lists `outs` and in-lists `ins` of nodes `0, 1, …`
    /// into a standalone graph with `m` edges: one sequential pass per
    /// direction, with no edge list and no transpose. The compaction path
    /// of the stores.
    ///
    /// The lists must be sorted, duplicate-free and in range, one per node
    /// in each direction, and describe the same edges — the [`GraphView`]
    /// contract every view in this crate keeps. Unlike
    /// [`from_sorted_edges`](Self::from_sorted_edges), which takes outside
    /// input, only debug builds check it.
    pub(crate) fn from_sorted_lists<'g>(
        m: usize,
        outs: impl ExactSizeIterator<Item = &'g [NodeId]>,
        ins: impl ExactSizeIterator<Item = &'g [NodeId]>,
    ) -> Self {
        let n = outs.len();
        let csr = Self::from_lists(m, outs, ins);
        debug_assert!(csr.num_nodes() == n && csr.num_edges() == m && csr.validate().is_ok());
        csr
    }

    /// [`from_sorted_lists`](Self::from_sorted_lists) for lists read from
    /// outside input: every build checks them, and a broken invariant is
    /// the error, never a graph.
    pub(crate) fn from_lists_checked<'g>(
        m: usize,
        outs: impl ExactSizeIterator<Item = &'g [NodeId]>,
        ins: impl ExactSizeIterator<Item = &'g [NodeId]>,
    ) -> Result<Self, String> {
        let csr = Self::from_lists(m, outs, ins);
        csr.validate()?;
        Ok(csr)
    }

    fn from_lists<'g>(
        m: usize,
        outs: impl ExactSizeIterator<Item = &'g [NodeId]>,
        ins: impl ExactSizeIterator<Item = &'g [NodeId]>,
    ) -> Self {
        let (out_offsets, out_targets) = concat(m, outs);
        let (in_offsets, in_sources) = concat(m, ins);
        Self {
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
        }
    }

    /// Builds the graph with `n` nodes and no edges.
    pub fn empty(n: usize) -> Self {
        Self::from_sorted_edges(n, &[])
    }

    /// True if the directed edge `(s, t)` exists (binary search, `O(log d)`).
    pub fn has_edge(&self, s: NodeId, t: NodeId) -> bool {
        self.out_neighbors(s).binary_search(&t).is_ok()
    }

    /// Iterator over all edges in `(src, dst)` order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.num_nodes() as NodeId)
            .flat_map(move |s| self.out_neighbors(s).iter().map(move |&t| (s, t)))
    }

    /// Returns the transposed graph (every edge reversed). `O(n + m)` — the
    /// two CSR halves simply swap roles, then lists are re-sorted to restore
    /// the sortedness invariant.
    pub fn transpose(&self) -> Self {
        let mut edges: Vec<(NodeId, NodeId)> = self.edges().map(|(s, t)| (t, s)).collect();
        edges.sort_unstable();
        Self::from_sorted_edges(self.num_nodes(), &edges)
    }

    /// Maximum in-degree over all nodes (0 for the empty graph).
    pub fn max_in_degree(&self) -> usize {
        (0..self.num_nodes())
            .map(|v| self.in_degree(v as NodeId))
            .max()
            .unwrap_or(0)
    }

    /// Maximum out-degree over all nodes (0 for the empty graph).
    pub fn max_out_degree(&self) -> usize {
        (0..self.num_nodes())
            .map(|v| self.out_degree(v as NodeId))
            .max()
            .unwrap_or(0)
    }

    /// Internal accessor used by [`crate::io`] and [`crate::storage`] for
    /// serialisation.
    pub(crate) fn raw_out(&self) -> (&[usize], &[NodeId]) {
        (&self.out_offsets, &self.out_targets)
    }

    /// Internal accessor used by [`crate::storage`] for serialisation.
    pub(crate) fn raw_in(&self) -> (&[usize], &[NodeId]) {
        (&self.in_offsets, &self.in_sources)
    }

    /// Checks every structural invariant; used by tests and after IO loads.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_nodes();
        let m = self.num_edges();
        if self.in_offsets.len() != n + 1 {
            return Err("offset array length mismatch".into());
        }
        if self.out_offsets.last().copied() != Some(m) || self.in_offsets.last().copied() != Some(m)
        {
            return Err("offset arrays do not end at m".into());
        }
        for offs in [&self.out_offsets, &self.in_offsets] {
            if offs.windows(2).any(|w| w[0] > w[1]) {
                return Err("offsets not monotone".into());
            }
        }
        for v in 0..n as NodeId {
            if self.out_neighbors(v).windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("out-neighbours of {v} not sorted/unique"));
            }
            if self.in_neighbors(v).windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("in-neighbours of {v} not sorted/unique"));
            }
            if self.out_neighbors(v).iter().any(|&t| t as usize >= n) {
                return Err(format!("out-neighbour of {v} out of range"));
            }
        }
        // The two halves must describe the same edge multiset.
        let mut fwd: Vec<(NodeId, NodeId)> = self.edges().collect();
        let mut bwd: Vec<(NodeId, NodeId)> = (0..n as NodeId)
            .flat_map(|t| self.in_neighbors(t).iter().map(move |&s| (s, t)))
            .collect();
        fwd.sort_unstable();
        bwd.sort_unstable();
        if fwd != bwd {
            return Err("out/in adjacency disagree".into());
        }
        Ok(())
    }
}

/// The offsets and concatenation of `lists`, which hold `m` ids in all.
fn concat<'g>(
    m: usize,
    lists: impl ExactSizeIterator<Item = &'g [NodeId]>,
) -> (Vec<usize>, Vec<NodeId>) {
    let mut offsets = Vec::with_capacity(lists.len() + 1);
    let mut ids = Vec::with_capacity(m);
    offsets.push(0);
    for list in lists {
        ids.extend_from_slice(list);
        offsets.push(ids.len());
    }
    (offsets, ids)
}

impl GraphView for CsrGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.out_offsets.len() - 1
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    #[inline]
    fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.out_targets[self.out_offsets[v]..self.out_offsets[v + 1]]
    }

    #[inline]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.in_sources[self.in_offsets[v]..self.in_offsets[v + 1]]
    }
}

impl LogicalBytes for CsrGraph {
    fn logical_bytes(&self) -> usize {
        self.out_offsets.logical_bytes()
            + self.out_targets.logical_bytes()
            + self.in_offsets.logical_bytes()
            + self.in_sources.logical_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // 0 → 1, 0 → 2, 1 → 3, 2 → 3
        CsrGraph::from_sorted_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn adjacency_both_directions() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.out_neighbors(3), &[] as &[NodeId]);
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.in_neighbors(0), &[] as &[NodeId]);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.out_degree(0), 2);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(3);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 0);
        assert!(g.validate().is_ok());
        for v in 0..3 {
            assert!(g.out_neighbors(v).is_empty());
            assert!(g.in_neighbors(v).is_empty());
        }
    }

    #[test]
    fn has_edge_binary_search() {
        let g = diamond();
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(2, 0));
        assert!(!g.has_edge(3, 3));
    }

    #[test]
    fn edges_iterates_in_order() {
        let g = diamond();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn transpose_reverses_everything() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.out_neighbors(3), &[1, 2]);
        assert_eq!(t.in_neighbors(1), &[3]);
        assert!(t.validate().is_ok());
        assert_eq!(t.transpose(), g, "double transpose is identity");
    }

    #[test]
    fn in_lists_are_sorted() {
        // Sources arrive out of order for node 1's in-list unless the
        // transpose preserves source order.
        let g = CsrGraph::from_sorted_edges(5, &[(0, 1), (2, 1), (4, 1)]);
        assert_eq!(g.in_neighbors(1), &[0, 2, 4]);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn validate_passes_on_well_formed() {
        assert!(diamond().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "sorted and deduplicated")]
    fn rejects_unsorted_edges() {
        CsrGraph::from_sorted_edges(3, &[(1, 0), (0, 1)]);
    }

    #[test]
    #[should_panic(expected = "sorted and deduplicated")]
    fn rejects_duplicate_edges() {
        CsrGraph::from_sorted_edges(3, &[(0, 1), (0, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_nodes() {
        CsrGraph::from_sorted_edges(2, &[(0, 5)]);
    }

    #[test]
    fn max_degrees() {
        let g = diamond();
        assert_eq!(g.max_in_degree(), 2);
        assert_eq!(g.max_out_degree(), 2);
        assert_eq!(CsrGraph::empty(0).max_in_degree(), 0);
    }

    #[test]
    fn self_loops_are_representable() {
        let g = CsrGraph::from_sorted_edges(2, &[(0, 0), (0, 1)]);
        assert_eq!(g.out_neighbors(0), &[0, 1]);
        assert_eq!(g.in_neighbors(0), &[0]);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn logical_bytes_scales_with_m() {
        let small = diamond();
        let edges: Vec<_> = (0..100).map(|i| (i as NodeId, (i + 1) as NodeId)).collect();
        let big = CsrGraph::from_sorted_edges(101, &edges);
        assert!(big.logical_bytes() > small.logical_bytes());
    }
}
