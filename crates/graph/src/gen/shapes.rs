//! Small deterministic graphs used by the test suites and examples.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use simrank_common::NodeId;

/// Directed path `0 → 1 → … → n−1`.
pub fn path(n: usize) -> CsrGraph {
    GraphBuilder::new()
        .with_num_nodes(n)
        .with_edges((1..n).map(|v| ((v - 1) as NodeId, v as NodeId)))
        .build()
}

/// Directed cycle `0 → 1 → … → n−1 → 0`.
pub fn cycle(n: usize) -> CsrGraph {
    assert!(n >= 2, "a cycle needs at least two nodes");
    GraphBuilder::new()
        .with_num_nodes(n)
        .with_edges((0..n).map(|v| (v as NodeId, ((v + 1) % n) as NodeId)))
        .build()
}

/// In-star: every leaf `1..n` points at the centre `0`.
pub fn star_in(n: usize) -> CsrGraph {
    assert!(n >= 2, "a star needs a centre and at least one leaf");
    GraphBuilder::new()
        .with_num_nodes(n)
        .with_edges((1..n).map(|v| (v as NodeId, 0)))
        .build()
}

/// Complete digraph on `n` nodes (all ordered pairs, no loops).
pub fn complete(n: usize) -> CsrGraph {
    let mut b = GraphBuilder::new().with_num_nodes(n);
    for s in 0..n as NodeId {
        for t in 0..n as NodeId {
            if s != t {
                b.add_edge(s, t);
            }
        }
    }
    b.build()
}

/// Bidirectional grid of `rows × cols` nodes (edges both ways between
/// 4-neighbours). Node `(r, c)` has id `r * cols + c`.
pub fn grid(rows: usize, cols: usize) -> CsrGraph {
    let id = |r: usize, c: usize| (r * cols + c) as NodeId;
    let mut b = GraphBuilder::new().with_num_nodes(rows * cols).symmetrize();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(id(r, c), id(r, c + 1));
            }
            if r + 1 < rows {
                b.add_edge(id(r, c), id(r + 1, c));
            }
        }
    }
    b.build()
}

/// The classic five-node example from Jeh & Widom's SimRank paper
/// (Univ=0, ProfA=1, ProfB=2, StudentA=3, StudentB=4):
/// Univ→ProfA, Univ→ProfB, ProfA→StudentA, ProfB→StudentB, StudentA→Univ,
/// StudentB→ProfB.
pub fn jeh_widom() -> CsrGraph {
    GraphBuilder::new()
        .with_edges([(0, 1), (0, 2), (1, 3), (2, 4), (3, 0), (4, 2)])
        .build()
}

/// Hand-verifiable four-node graph: `c(2)→a(0), c→b(1), d(3)→a, d→b`.
///
/// Exact SimRank: `s(a,b) = c_decay/2` because
/// `s(a,b) = c/4 · (s(c,c) + s(c,d) + s(d,c) + s(d,d)) = c/4 · (1+0+0+1)`
/// (nodes `c`, `d` have no in-neighbours, so `s(c,d)=0`).
pub fn shared_parents() -> CsrGraph {
    GraphBuilder::new()
        .with_edges([(2, 0), (2, 1), (3, 0), (3, 1)])
        .build()
}

/// Hand-verifiable three-node graph: `c(2)→a(0), c→b(1)`.
///
/// Exact SimRank: `s(a,b) = c_decay · s(c,c) = c_decay`.
pub fn single_parent() -> CsrGraph {
    GraphBuilder::new().with_edges([(2, 0), (2, 1)]).build()
}

/// Layered DAG: `layers` layers of `width` nodes, each node pointing to
/// every node of the next layer. Useful for exercising multi-level pushes
/// with predictable hitting probabilities.
pub fn layered_dag(layers: usize, width: usize) -> CsrGraph {
    assert!(layers >= 1 && width >= 1);
    let id = |l: usize, i: usize| (l * width + i) as NodeId;
    let mut b = GraphBuilder::new().with_num_nodes(layers * width);
    for l in 0..layers.saturating_sub(1) {
        for i in 0..width {
            for j in 0..width {
                b.add_edge(id(l, i), id(l + 1, j));
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphView;

    #[test]
    fn path_shape() {
        let g = path(4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_neighbors(0), &[1]);
        assert_eq!(g.in_neighbors(3), &[2]);
        assert!(g.in_neighbors(0).is_empty());
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(3);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(2, 0));
        for v in g.nodes() {
            assert_eq!(g.in_degree(v), 1);
            assert_eq!(g.out_degree(v), 1);
        }
    }

    #[test]
    fn stars() {
        let g_in = star_in(5);
        assert_eq!(g_in.in_degree(0), 4);
        assert_eq!(g_in.out_degree(0), 0);
    }

    #[test]
    fn complete_counts() {
        let g = complete(4);
        assert_eq!(g.num_edges(), 12);
        for v in g.nodes() {
            assert_eq!(g.in_degree(v), 3);
            assert_eq!(g.out_degree(v), 3);
        }
    }

    #[test]
    fn grid_shape() {
        let g = grid(2, 3);
        assert_eq!(g.num_nodes(), 6);
        // 2 rows × 2 horizontal + 3 vertical = 7 undirected = 14 directed
        assert_eq!(g.num_edges(), 14);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(g.has_edge(0, 3) && g.has_edge(3, 0));
    }

    #[test]
    fn jeh_widom_shape() {
        let g = jeh_widom();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.in_neighbors(2), &[0, 4]); // ProfB ← Univ, StudentB
    }

    #[test]
    fn hand_graphs() {
        let g = shared_parents();
        assert_eq!(g.in_neighbors(0), &[2, 3]);
        assert_eq!(g.in_neighbors(1), &[2, 3]);
        let h = single_parent();
        assert_eq!(h.in_neighbors(0), &[2]);
        assert_eq!(h.in_neighbors(1), &[2]);
    }

    #[test]
    fn layered_dag_shape() {
        let g = layered_dag(3, 2);
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.num_edges(), 8);
        assert_eq!(g.in_neighbors(4), &[2, 3]);
        assert!(g.in_neighbors(0).is_empty());
    }
}
