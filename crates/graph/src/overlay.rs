//! [`DeltaOverlay`]: a sorted per-node edge delta over an immutable CSR base.
//!
//! The paper's serving scenario is a massive graph "with frequent updates"
//! queried continuously. [`MutableGraph`](crate::MutableGraph) supports
//! in-place updates but cannot be shared with concurrent readers; an
//! immutable [`CsrGraph`] can be shared but not updated.
//! `DeltaOverlay` is the piece in between: an `Arc`-shared **base** — a
//! [`GraphBase`], either an in-memory CSR or a storage-tiered
//! [`DiskGraph`](crate::storage::DiskGraph) — plus a small map of *touched*
//! nodes whose current neighbour lists are materialised in full, sorted.
//! Untouched nodes read straight from the base, so the overlay's memory
//! scales with the update churn, not with the graph; the lists are shared
//! copy-on-write, so a clone costs a pointer per touched node.
//!
//! # Determinism
//!
//! Every neighbour list — base slice or materialised delta list — is sorted
//! ascending, exactly like [`CsrGraph`] and [`MutableGraph`](crate::MutableGraph).
//! The hash maps are only ever used for point lookups, never iterated in the
//! read path, so an overlay presents the *same deterministic
//! [`GraphView`]* as a full CSR rebuild of the same logical graph: any
//! seed-deterministic algorithm (SimPush included) produces bit-identical
//! results on either representation. The `prop_store` property suite pins
//! this.

use crate::base::GraphBase;
use crate::csr::CsrGraph;
use crate::view::GraphView;
use simrank_common::{FxHashMap, NodeId};
use std::sync::Arc;

/// Materialised *current* neighbour lists of touched nodes, each sorted and
/// shared with every published snapshot that has not seen it change since.
// simcheck: allow(nondet-iteration) — reads are keyed; the only
// iteration is `merged`, which sorts by node first.
type Lists = FxHashMap<NodeId, Arc<Vec<NodeId>>>;

/// A copy-on-write edge delta layered over an immutable base.
///
/// Cloning is what epoch publishing does, and it copies pointers only: the
/// base and every materialised list are [`Arc`]s, so a clone costs one
/// pointer copy per touched node — never a list copy, never `O(m)`. The
/// writer unshares a list (one copy) the first time an update touches it
/// after a publish, so a held clone never changes, and a publish pays
/// `O(batch + touched nodes)`.
#[derive(Debug, Clone)]
pub struct DeltaOverlay {
    base: Arc<GraphBase>,
    /// Out-lists of touched nodes.
    outs: Lists,
    /// In-lists of touched nodes.
    ins: Lists,
    /// Current edge count (base ± applied deltas).
    m: usize,
    /// Number of effective updates applied since the base was frozen; the
    /// compaction heuristic. Note this counts *churn*, not net delta: an
    /// insert followed by a remove of the same edge counts twice even
    /// though the overlay is logically back at the base.
    churn: usize,
    /// Endpoints of effective updates since the last
    /// [`take_recent`](Self::take_recent) — unsorted, possibly repeated.
    /// This is the *per-publish delta* feed for answer-cache invalidation,
    /// distinct from the cumulative keys of `outs` and `ins`.
    recent: Vec<NodeId>,
}

/// `v`'s list in `lists`, materialised from `base` on first touch and
/// unshared from every snapshot still holding it, ready to be written.
fn list_mut<'a, 'b>(
    lists: &'a mut Lists,
    v: NodeId,
    base: impl FnOnce() -> &'b [NodeId],
) -> &'a mut Vec<NodeId> {
    Arc::make_mut(lists.entry(v).or_insert_with(|| Arc::new(base().to_vec())))
}

/// Every node's current list in one direction, `0..n` in order: `lists`'
/// entries merged by sorted node id into the `base` lists, with no hash
/// probe per node.
fn merged<'a>(
    lists: &'a Lists,
    base: impl Fn(NodeId) -> &'a [NodeId] + 'a,
    n: usize,
) -> impl ExactSizeIterator<Item = &'a [NodeId]> + 'a {
    let mut touched: Vec<_> = lists.iter().collect();
    touched.sort_unstable_by_key(|&(&v, _)| v);
    let mut touched = touched.into_iter().peekable();
    (0..n as NodeId).map(move |v| match touched.next_if(|&(&t, _)| t == v) {
        Some((_, list)) => list.as_slice(),
        None => base(v),
    })
}

impl DeltaOverlay {
    /// Creates an empty overlay over `base` (reads are pure pass-through).
    pub fn new(base: Arc<GraphBase>) -> Self {
        let m = base.num_edges();
        Self {
            base,
            outs: Lists::default(),
            ins: Lists::default(),
            m,
            churn: 0,
            recent: Vec::new(),
        }
    }

    /// The immutable base this overlay layers on top of (RAM or disk).
    pub fn base(&self) -> &Arc<GraphBase> {
        &self.base
    }

    /// Effective updates applied since the base was frozen (the compaction
    /// heuristic input). Zero means reads are pure base pass-through.
    pub fn churn(&self) -> usize {
        self.churn
    }

    /// True if no update has touched the overlay (every read hits the base).
    pub fn is_clean(&self) -> bool {
        self.churn == 0
    }

    /// Drains the endpoints touched by effective updates since the last
    /// call (or construction), sorted and deduplicated — the per-publish
    /// delta [`GraphStore::publish`](crate::GraphStore::publish) exposes in
    /// [`PublishInfo::touched`](crate::PublishInfo). Unlike the materialised
    /// lists, which reflect *cumulative* churn since the base was frozen,
    /// this resets on every call, so two
    /// consecutive publishes report disjoint responsibility for the same
    /// overlay — and a compaction publish that applied no new updates
    /// reports an empty delta.
    pub fn take_recent(&mut self) -> Vec<NodeId> {
        let mut recent = std::mem::take(&mut self.recent);
        recent.sort_unstable();
        recent.dedup();
        recent
    }

    /// True if the directed edge `(src, dst)` currently exists.
    pub fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.out_neighbors(src).binary_search(&dst).is_ok()
    }

    fn assert_in_range(&self, src: NodeId, dst: NodeId) {
        let n = self.num_nodes();
        assert!(
            (src as usize) < n && (dst as usize) < n,
            "edge endpoint out of range"
        );
    }

    /// Inserts edge `(src, dst)`. Returns `false` (and changes nothing,
    /// materialising no list) if the edge already exists.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range — same contract as
    /// [`MutableGraph::insert_edge`](crate::MutableGraph::insert_edge).
    pub fn insert_edge(&mut self, src: NodeId, dst: NodeId) -> bool {
        self.assert_in_range(src, dst);
        let Err(pos) = self.out_neighbors(src).binary_search(&dst) else {
            return false;
        };
        let base = &self.base;
        list_mut(&mut self.outs, src, || base.out_neighbors(src)).insert(pos, dst);
        let ins = list_mut(&mut self.ins, dst, || base.in_neighbors(dst));
        // The in-list mirrors the out-list, so `src` is absent.
        let found = ins.binary_search(&src);
        debug_assert!(found.is_err(), "in-list of {dst} already has {src}");
        if let Err(ipos) = found {
            ins.insert(ipos, src);
        }
        self.m += 1;
        self.churn += 1;
        self.recent.push(src);
        self.recent.push(dst);
        true
    }

    /// Removes edge `(src, dst)`. Returns `false` if it did not exist.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range — same contract as
    /// [`MutableGraph::remove_edge`](crate::MutableGraph::remove_edge).
    pub fn remove_edge(&mut self, src: NodeId, dst: NodeId) -> bool {
        self.assert_in_range(src, dst);
        let Ok(pos) = self.out_neighbors(src).binary_search(&dst) else {
            return false;
        };
        let base = &self.base;
        list_mut(&mut self.outs, src, || base.out_neighbors(src)).remove(pos);
        let ins = list_mut(&mut self.ins, dst, || base.in_neighbors(dst));
        // The in-list mirrors the out-list, so `src` is present.
        let found = ins.binary_search(&src);
        debug_assert!(found.is_ok(), "in-list of {dst} lacks {src}");
        if let Ok(ipos) = found {
            ins.remove(ipos);
        }
        self.m -= 1;
        self.churn += 1;
        self.recent.push(src);
        self.recent.push(dst);
        true
    }

    /// Compacts the overlay into a fresh standalone [`CsrGraph`] — the same
    /// graph a from-scratch rebuild of the current logical state would
    /// produce (pinned by the `prop_store` and `prop_disk` suites). One
    /// sequential `O(n + m)` copy of every current list, base or
    /// materialised, into the two CSR halves.
    pub fn rebuild(&self) -> CsrGraph {
        let base = &*self.base;
        CsrGraph::from_sorted_lists(
            self.m,
            merged(&self.outs, |v| base.out_neighbors(v), self.num_nodes()),
            merged(&self.ins, |v| base.in_neighbors(v), self.num_nodes()),
        )
    }

    /// The shared list behind `v`'s out- (`out`) or in-neighbours, if the
    /// overlay materialised one.
    #[cfg(test)]
    pub(crate) fn materialised(&self, v: NodeId, out: bool) -> Option<&Arc<Vec<NodeId>>> {
        if out { &self.outs } else { &self.ins }.get(&v)
    }
}

impl GraphView for DeltaOverlay {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.base.num_nodes()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.m
    }

    #[inline]
    fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        match self.outs.get(&v) {
            Some(list) => list,
            None => self.base.out_neighbors(v),
        }
    }

    #[inline]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        match self.ins.get(&v) {
            Some(list) => list,
            None => self.base.in_neighbors(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn base() -> Arc<GraphBase> {
        // 0 → 1, 0 → 2, 1 → 3, 2 → 3
        Arc::new(GraphBase::from(
            GraphBuilder::new()
                .with_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
                .build(),
        ))
    }

    #[test]
    fn clean_overlay_is_pass_through() {
        let b = base();
        let o = DeltaOverlay::new(b.clone());
        assert!(o.is_clean());
        assert_eq!(o.num_nodes(), b.num_nodes());
        assert_eq!(o.num_edges(), b.num_edges());
        for v in 0..4 {
            assert_eq!(o.out_neighbors(v), b.out_neighbors(v));
            assert_eq!(o.in_neighbors(v), b.in_neighbors(v));
        }
    }

    #[test]
    fn insert_and_remove_update_both_directions() {
        let mut o = DeltaOverlay::new(base());
        assert!(o.insert_edge(3, 0));
        assert!(!o.insert_edge(3, 0), "duplicate insert is a no-op");
        assert_eq!(o.out_neighbors(3), &[0]);
        assert_eq!(o.in_neighbors(0), &[3]);
        assert_eq!(o.num_edges(), 5);

        assert!(o.remove_edge(0, 2));
        assert!(!o.remove_edge(0, 2), "double remove is a no-op");
        assert_eq!(o.out_neighbors(0), &[1]);
        assert_eq!(o.in_neighbors(2), &[] as &[NodeId]);
        assert_eq!(o.num_edges(), 4);
        assert_eq!(o.churn(), 2);
    }

    #[test]
    fn noop_updates_do_not_materialise_lists() {
        let mut o = DeltaOverlay::new(base());
        assert!(!o.insert_edge(0, 1), "edge already in base");
        assert!(!o.remove_edge(3, 0), "edge not present");
        assert!(o.is_clean());
        for v in 0..4 {
            assert!(o.materialised(v, true).is_none() && o.materialised(v, false).is_none());
        }
    }

    #[test]
    fn take_recent_drains_the_per_publish_delta() {
        let mut o = DeltaOverlay::new(base());
        assert!(o.take_recent().is_empty(), "clean overlay has no delta");
        o.insert_edge(3, 0);
        o.insert_edge(3, 2);
        assert!(!o.insert_edge(3, 0), "no-op must not enter the delta");
        assert_eq!(o.take_recent(), vec![0, 2, 3], "sorted, deduplicated");
        assert!(
            o.take_recent().is_empty(),
            "second take reports nothing: responsibility was drained"
        );
        // Cumulative touched lists are unaffected by the drain.
        assert!(o.materialised(3, true).is_some());
        assert!(o.materialised(0, false).is_some() && o.materialised(2, false).is_some());
        o.remove_edge(0, 1);
        assert_eq!(o.take_recent(), vec![0, 1]);
    }

    #[test]
    fn lists_stay_sorted_through_mixed_updates() {
        let mut o = DeltaOverlay::new(base());
        o.insert_edge(0, 3);
        o.insert_edge(0, 0);
        assert_eq!(o.out_neighbors(0), &[0, 1, 2, 3]);
        assert_eq!(o.in_neighbors(3), &[0, 1, 2]);
        o.remove_edge(1, 3);
        assert_eq!(o.in_neighbors(3), &[0, 2]);
    }

    #[test]
    fn rebuild_matches_scratch_construction() {
        let mut o = DeltaOverlay::new(base());
        o.insert_edge(3, 1);
        o.remove_edge(0, 1);
        let want = GraphBuilder::new()
            .with_num_nodes(4)
            .with_edges([(0, 2), (1, 3), (2, 3), (3, 1)])
            .build();
        let got = o.rebuild();
        assert_eq!(got, want);
        assert!(got.validate().is_ok());
    }

    #[test]
    fn rebuild_of_clean_overlay_equals_base() {
        let b = base();
        let o = DeltaOverlay::new(b.clone());
        assert_eq!(Some(&o.rebuild()), b.as_ram());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_insert() {
        DeltaOverlay::new(base()).insert_edge(0, 99);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_remove() {
        DeltaOverlay::new(base()).remove_edge(99, 0);
    }
}
