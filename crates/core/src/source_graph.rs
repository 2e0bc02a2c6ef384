//! The source graph `Gu` produced by Source-Push.
//!
//! `Gu` is the level-structured subgraph of `G` visited while pushing
//! hitting probabilities from the query node: level `ℓ` holds every node `w`
//! with `h^(ℓ)(u, w) > 0`, and conceptually there is an edge from each
//! level-`(ℓ+1)` node to each of its `G`-out-neighbours on level `ℓ`.
//!
//! We never materialise those edges. Source-Push pushes every frontier node
//! to **all** of its in-neighbours, so for every node on levels `< L` the
//! in-neighbourhood within `Gu` equals its in-neighbourhood in `G`
//! (paper §4.2, note (ii) under Eq. 12). Membership tests against the
//! per-level hitting maps therefore reconstruct `Gu`'s adjacency exactly,
//! at zero storage cost.

use simrank_common::{HybridMap, NodeId};

/// One level of the source graph.
pub struct Level {
    /// Hitting probabilities `h^(ℓ)(u, w)` for every node on this level
    /// (strictly positive entries only); doubles as the level's membership
    /// set.
    pub h: HybridMap,
    /// Attention nodes on this level (`h ≥ ε_h`), sorted by node id.
    pub attention: Vec<NodeId>,
}

/// The source graph `Gu` of a query node.
pub struct SourceGraph {
    /// The query node `u`.
    pub query: NodeId,
    /// Levels `0..=L`; `levels\[0\]` holds only `u` with `h = 1`.
    pub levels: Vec<Level>,
    /// Node universe size `n` (for sizing downstream maps).
    pub universe: usize,
}

impl SourceGraph {
    /// The max level `L` (0 when only the trivial level exists).
    pub fn max_level(&self) -> usize {
        self.levels.len() - 1
    }

    /// Total number of attention nodes across levels 1..=L.
    pub fn num_attention(&self) -> usize {
        self.levels.iter().skip(1).map(|l| l.attention.len()).sum()
    }

    /// Attention count per level (index 0 is always 0: the trivial `ℓ = 0`
    /// case is excluded per paper Eq. 7).
    pub fn attention_per_level(&self) -> Vec<usize> {
        let mut counts: Vec<usize> = self.levels.iter().map(|l| l.attention.len()).collect();
        if let Some(first) = counts.first_mut() {
            *first = 0;
        }
        counts
    }

    /// Number of (level, node) entries in `Gu`.
    pub fn total_entries(&self) -> usize {
        self.levels.iter().map(|l| l.h.len()).sum()
    }

    /// Approximate heap footprint in bytes.
    pub fn logical_bytes(&self) -> usize {
        self.levels
            .iter()
            .map(|l| l.h.logical_bytes() + l.attention.capacity() * std::mem::size_of::<NodeId>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SourceGraph {
        let mut l0 = HybridMap::new(10);
        l0.set(3, 1.0);
        let mut l1 = HybridMap::new(10);
        l1.set(1, 0.4);
        l1.set(2, 0.05);
        let mut l2 = HybridMap::new(10);
        l2.set(0, 0.2);
        SourceGraph {
            query: 3,
            universe: 10,
            levels: vec![
                Level {
                    h: l0,
                    attention: vec![3],
                },
                Level {
                    h: l1,
                    attention: vec![1],
                },
                Level {
                    h: l2,
                    attention: vec![0],
                },
            ],
        }
    }

    #[test]
    fn level_accounting() {
        let gu = tiny();
        assert_eq!(gu.max_level(), 2);
        assert_eq!(gu.num_attention(), 2, "level-0 attention excluded");
        assert_eq!(gu.attention_per_level(), vec![0, 1, 1]);
        assert_eq!(gu.total_entries(), 4);
    }

    #[test]
    fn logical_bytes_positive() {
        assert!(tiny().logical_bytes() > 0);
    }
}
