//! [`QueryWorkspace`]: reusable per-query scratch for the whole SimPush
//! pipeline.
//!
//! A cold [`SimPush::query`](crate::SimPush::query) rebuilds its entire
//! working set from scratch — per-level [`HybridMap`]s for `Gu`, nested row
//! maps for the attention-hitting stage, residue maps and a dense score
//! vector for Reverse-Push, plus the level-detection walk buffers (used only
//! by queries that fall back to sampling). For a
//! serving loop answering queries back to back, that allocation churn is the
//! dominant self-inflicted cost. `QueryWorkspace` owns all of that state and
//! survives across queries: every stage borrows its buffers from the
//! workspace, clears them logically (O(touched), or O(1) via
//! [`EpochVec`]) and hands them back, so a steady-state
//! [`query_with`](crate::SimPush::query_with) performs **zero heap
//! allocations** in the push stages.
//!
//! Reuse is exact, not approximate: warm results are **bit-identical** to
//! cold ones. Two properties make that hold. First, [`HybridMap`] iterates
//! in first-touch order regardless of backend or retained capacity, so the
//! floating-point fold order of every push loop is a pure function of the
//! algorithm. Second, the attention-hitting frontier (`RowFrontier`,
//! private to this module) is an insertion-ordered map, not a hash-ordered
//! one, for the same reason. The
//! `prop_workspace` property suite pins this down across random graphs,
//! seeds and query sequences.
//!
//! The workspace is deliberately **not** shared between threads: every
//! [`Frontend`](crate::Frontend) worker owns one — one workspace per
//! serving thread, zero cross-thread coordination.

use crate::hitting::AttentionIndex;
use crate::source_graph::{Level, SourceGraph};
use simrank_common::{EpochVec, FxHashMap, HybridMap, NodeId};
use simrank_walks::LevelVisits;

/// All reusable scratch for one in-flight SimPush query.
///
/// Construction is allocation-free; every buffer grows lazily on first use
/// and is retained afterwards. Hold one per thread and pass it to
/// [`SimPush::query_with`](crate::SimPush::query_with), or let
/// [`SimPush::query`](crate::SimPush::query) manage an engine-internal one.
#[derive(Default)]
pub struct QueryWorkspace {
    /// Stage-1 scratch: detection walks plus the `Gu` level/attention pools.
    pub source: SourcePushScratch,
    /// Attention-node index, rebuilt in place each query.
    pub att: AttentionIndex,
    /// Stage-2a scratch: attention-hitting rows.
    pub hitting: HittingScratch,
    /// Stage-2b scratch: `γ` recursion state.
    pub gamma: GammaScratch,
    /// Stage-3 scratch: residue maps and the score accumulator.
    pub reverse: ReverseScratch,
}

impl QueryWorkspace {
    /// Creates an empty workspace (no allocation; buffers grow on demand).
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a finished query's source graph to the internal pools so the
    /// next query can reuse its maps. Called at the end of
    /// [`SimPush::query_with`](crate::SimPush::query_with); direct stage
    /// drivers should call it once `gu` is no longer needed.
    pub fn recycle(&mut self, gu: SourceGraph) {
        self.source.recycle(gu);
    }
}

/// Reusable scratch for Source-Push (stage 1): level-detection sampling
/// buffers plus pools for the `Gu` level maps and attention lists.
#[derive(Default)]
pub struct SourcePushScratch {
    /// Residual-walk tallies; touched only by queries whose exact phase
    /// runs out of edge budget, always sized to `L*` rows.
    pub(crate) visits: LevelVisits,
    pub(crate) walk_buf: Vec<NodeId>,
    /// Spare `Vec<Level>` spine (capacity retained across queries).
    pub(crate) levels_buf: Vec<Level>,
    /// Cleared level maps awaiting reuse.
    pub(crate) map_pool: Vec<HybridMap>,
    /// Cleared attention lists awaiting reuse.
    pub(crate) attention_pool: Vec<Vec<NodeId>>,
}

impl SourcePushScratch {
    /// Takes a cleared map over `0..universe` from the pool (or allocates on
    /// a cold path).
    pub(crate) fn take_map(&mut self, universe: usize) -> HybridMap {
        match self.map_pool.pop() {
            Some(mut m) => {
                m.reset(universe);
                m
            }
            None => HybridMap::new(universe),
        }
    }

    /// Returns a map to the pool.
    pub(crate) fn put_map(&mut self, mut m: HybridMap) {
        m.clear();
        self.map_pool.push(m);
    }

    /// Takes a cleared attention list from the pool.
    pub(crate) fn take_attention(&mut self) -> Vec<NodeId> {
        self.attention_pool.pop().unwrap_or_default()
    }

    /// Returns one `Gu` level's buffers to the pools.
    pub(crate) fn put_level(&mut self, level: Level) {
        let Level { h, mut attention } = level;
        self.put_map(h);
        attention.clear();
        self.attention_pool.push(attention);
    }

    /// Returns a whole source graph's buffers to the pools (see
    /// [`QueryWorkspace::recycle`]).
    pub(crate) fn recycle(&mut self, gu: SourceGraph) {
        let mut levels = gu.levels;
        // Deepest level first, so the LIFO pool hands level ℓ of the next
        // query the map level ℓ used in this one: each pooled map then
        // retains the capacity of the largest level ℓ it has seen, not —
        // as a rotating assignment ends up with — of the largest level of
        // any depth.
        for level in levels.drain(..).rev() {
            self.put_level(level);
        }
        // Keep the emptied spine so the next query's `Vec<Level>` push loop
        // stays allocation-free too.
        self.levels_buf = levels;
    }
}

/// Reusable scratch for the attention-hitting stage (2a).
#[derive(Default)]
pub struct HittingScratch {
    /// `att_hit[id]` rows; only the first [`live`](Self::att_hit) entries
    /// belong to the current query, the tail is spare capacity.
    // simcheck: allow(nondet-iteration) — rows are filled by keyed
    // inserts and consumed keyed or sorted by id first (see gamma.rs).
    pub(crate) att_hit: Vec<FxHashMap<u32, f64>>,
    pub(crate) live: usize,
    pub(crate) rows: RowFrontier,
    pub(crate) next: RowFrontier,
}

impl HittingScratch {
    /// Clears the scratch for a query with `len` attention nodes.
    pub(crate) fn reset(&mut self, len: usize) {
        for row in self.att_hit.iter_mut().take(len) {
            row.clear();
        }
        while self.att_hit.len() < len {
            // simcheck: allow(nondet-iteration) — empty row constructor.
            self.att_hit.push(FxHashMap::default());
        }
        self.live = len;
        self.rows.clear();
        self.next.clear();
    }

    /// The current query's attention-to-attention hitting rows:
    /// `att_hit()[src][tgt] = h̃^(Δℓ)(src, tgt)` for targets on strictly
    /// higher levels (same layout as
    /// [`AttentionHitting`](crate::hitting::AttentionHitting)).
    // simcheck: allow(nondet-iteration) — borrow of the keyed rows above.
    pub fn att_hit(&self) -> &[FxHashMap<u32, f64>] {
        &self.att_hit[..self.live]
    }
}

/// An insertion-ordered `node → row` frontier for the attention-hitting
/// push.
///
/// Iteration runs in first-touch order — **not** hash order — because the
/// push loop folds floating-point mass row by row and the fold order must
/// not depend on retained hash capacity (cold/warm bit-identity; see the
/// [module docs](self)). Cleared rows stay allocated past the live prefix of
/// `rows` and are reused in place on the next query.
#[derive(Default)]
pub(crate) struct RowFrontier {
    // simcheck: allow(nondet-iteration) — node → row-index map; iter()
    // walks `nodes` in first-touch order, never this map.
    slot: FxHashMap<NodeId, u32>,
    nodes: Vec<NodeId>,
    /// `rows[..nodes.len()]` are live; the tail holds cleared spares.
    // simcheck: allow(nondet-iteration) — per-row accumulation is a
    // distinct-key `entry().or_insert(0.0) +=` fold, order-free per key;
    // cross-row order comes from `nodes`.
    rows: Vec<FxHashMap<u32, f64>>,
}

impl RowFrontier {
    pub(crate) fn clear(&mut self) {
        for row in self.rows.iter_mut().take(self.nodes.len()) {
            row.clear();
        }
        self.nodes.clear();
        self.slot.clear();
    }

    // simcheck: allow(nondet-iteration) — keyed lookup into `slot`.
    pub(crate) fn get(&self, v: NodeId) -> Option<&FxHashMap<u32, f64>> {
        self.slot.get(&v).map(|&i| &self.rows[i as usize])
    }

    /// The row for `v`, created empty (from a spare when available) on first
    /// touch.
    // simcheck: allow(nondet-iteration) — keyed entry() insert; the row
    // index is recorded in first-touch order via `nodes`.
    pub(crate) fn row_mut(&mut self, v: NodeId) -> &mut FxHashMap<u32, f64> {
        let Self { slot, nodes, rows } = self;
        let idx = *slot.entry(v).or_insert_with(|| {
            let i = nodes.len();
            if rows.len() == i {
                // simcheck: allow(nondet-iteration) — empty row constructor.
                rows.push(FxHashMap::default());
            }
            nodes.push(v);
            i as u32
        });
        &mut rows[idx as usize]
    }

    /// Iterates `(node, row)` in first-touch order.
    // simcheck: allow(nondet-iteration) — iteration is over `nodes`
    // (first-touch order); rows are only read keyed downstream.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (NodeId, &FxHashMap<u32, f64>)> {
        self.nodes.iter().zip(&self.rows).map(|(&v, row)| (v, row))
    }
}

/// Reusable scratch for the `γ` recursion (stage 2b).
#[derive(Default)]
pub struct GammaScratch {
    pub(crate) gammas: Vec<f64>,
    // simcheck: allow(nondet-iteration) — keyed get/insert only; the γ
    // fold iterates sorted `by_i` rows, never this map.
    pub(crate) rho: FxHashMap<u32, f64>,
    pub(crate) by_i: Vec<Vec<(u32, f64)>>,
}

impl GammaScratch {
    /// The current query's `γ` values, indexed like
    /// [`AttentionIndex::nodes`](crate::hitting::AttentionIndex::nodes).
    pub fn gammas(&self) -> &[f64] {
        &self.gammas
    }
}

/// Reusable scratch for Reverse-Push (stage 3).
#[derive(Default)]
pub struct ReverseScratch {
    /// Per-level residue maps (`residues[0]` unused — level-0 arrivals go
    /// straight into `scores`).
    pub(crate) residues: Vec<HybridMap>,
    pub(crate) scores: EpochVec<f64>,
}

impl ReverseScratch {
    /// The current query's raw score accumulator (diagonal not set).
    pub fn scores(&self) -> &EpochVec<f64> {
        &self.scores
    }

    /// Copies the accumulator out into a dense `Vec<f64>` of length `n` —
    /// the one unavoidable per-query allocation, owned by the caller as part
    /// of the query result.
    pub(crate) fn materialize(&self, n: usize) -> Vec<f64> {
        (0..n).map(|v| self.scores.get(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_frontier_is_insertion_ordered_and_reusable() {
        let mut f = RowFrontier::default();
        f.row_mut(9).insert(0, 1.0);
        f.row_mut(2).insert(1, 2.0);
        f.row_mut(9).insert(1, 3.0);
        let order: Vec<NodeId> = f.iter().map(|(v, _)| v).collect();
        assert_eq!(order, vec![9, 2], "first-touch order, no re-touch shuffle");
        assert_eq!(f.get(9).unwrap()[&1], 3.0);
        assert!(f.get(7).is_none());

        f.clear();
        assert!(f.iter().next().is_none());
        // Spare rows are reused cleared.
        let row = f.row_mut(2);
        assert!(row.is_empty(), "recycled spare must come back empty");
        row.insert(4, 4.0);
        assert_eq!(f.get(2).unwrap()[&4], 4.0);
    }

    #[test]
    fn source_scratch_pools_round_trip() {
        let mut ws = SourcePushScratch::default();
        let mut m = ws.take_map(10);
        m.add(3, 1.0);
        let mut attention = ws.take_attention();
        attention.push(3);
        let gu = SourceGraph {
            query: 3,
            universe: 10,
            levels: vec![Level { h: m, attention }],
        };
        ws.recycle(gu);
        assert_eq!(ws.map_pool.len(), 1);
        assert_eq!(ws.attention_pool.len(), 1);
        let m = ws.take_map(20);
        assert!(m.is_empty(), "pooled map must come back cleared");
        assert_eq!(m.universe(), 20, "pooled map must be re-targeted");
        assert!(ws.take_attention().is_empty());
    }

    #[test]
    fn recycled_maps_return_to_the_level_they_served() {
        // Three queries with level populations 1, 300, 2, 3. A pool that
        // reversed the assignment on every query would have grown the maps
        // of levels 1 *and* 2 by now; a stable one grows level 1's only.
        let sizes = [1u32, 300, 2, 3];
        let mut ws = SourcePushScratch::default();
        for _ in 0..3 {
            let mut levels = std::mem::take(&mut ws.levels_buf);
            for &size in &sizes {
                let mut h = ws.take_map(1_000);
                (0..size).for_each(|v| h.add(v, 1.0));
                levels.push(Level {
                    h,
                    attention: ws.take_attention(),
                });
            }
            ws.recycle(SourceGraph {
                query: 0,
                universe: 1_000,
                levels,
            });
        }
        let bytes: Vec<usize> = sizes
            .iter()
            .map(|_| ws.take_map(1_000).logical_bytes())
            .collect();
        for ell in [0, 2, 3] {
            assert!(bytes[ell] * 4 < bytes[1], "level {ell}: {bytes:?}");
        }
    }

    #[test]
    fn hitting_scratch_live_prefix_tracks_query_size() {
        let mut ws = HittingScratch::default();
        ws.reset(3);
        ws.att_hit[1].insert(0, 0.5);
        assert_eq!(ws.att_hit().len(), 3);
        ws.reset(2);
        assert_eq!(ws.att_hit().len(), 2);
        assert!(
            ws.att_hit().iter().all(|r| r.is_empty()),
            "stale rows must be cleared on reset"
        );
    }
}
