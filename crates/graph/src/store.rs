//! [`GraphStore`]: concurrent update/query serving over epoch snapshots.
//!
//! The paper's pitch is that index-free SimRank serves queries on graphs
//! "with frequent updates" — no rebuild step between an edge arriving and a
//! query seeing it. This module supplies the serving substrate that makes
//! that concurrent in practice:
//!
//! * One **writer** applies [`insert_edge`](GraphStore::insert_edge) /
//!   [`remove_edge`](GraphStore::remove_edge) batches to a private working
//!   [`DeltaOverlay`] and [`publish`](GraphStore::publish)es the result as a
//!   new immutable epoch.
//! * Many **readers** grab the current epoch with
//!   [`snapshot`](GraphStore::snapshot) — an `Arc` clone behind a read
//!   lock, no copying — and run whole queries against it while the writer
//!   keeps mutating. A snapshot never changes underneath its holder.
//! * Past a churn threshold the writer **compacts** the overlay back into a
//!   fresh CSR base (`O(n + m)`), so read-path indirection and per-publish
//!   clone cost stay bounded no matter how long the store lives.
//!
//! Because [`DeltaOverlay`] presents the same sorted, deterministic
//! [`GraphView`] as a CSR rebuild, a query answered on
//! any snapshot is **bit-identical** to rebuilding a [`CsrGraph`] of that
//! epoch's logical graph and querying it — the `prop_store` suite pins this
//! under random interleavings and under a live 4-reader/1-writer race.

use crate::base::GraphBase;
use crate::csr::CsrGraph;
use crate::overlay::DeltaOverlay;
use crate::storage::DiskGraph;
use crate::view::GraphView;
use simrank_common::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// One edge update in a dynamic stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphUpdate {
    /// Insert the directed edge `(src, dst)`.
    Insert(NodeId, NodeId),
    /// Remove the directed edge `(src, dst)`.
    Remove(NodeId, NodeId),
}

impl GraphUpdate {
    /// The `(src, dst)` endpoints of the edge this update names,
    /// independent of direction of change — what
    /// [`ShardedStore::commit`](crate::ShardedStore::commit) routes on.
    #[inline]
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        match *self {
            GraphUpdate::Insert(s, t) | GraphUpdate::Remove(s, t) => (s, t),
        }
    }
}

/// An immutable epoch of a [`GraphStore`]: a [`DeltaOverlay`] frozen at
/// publish time, tagged with its epoch number.
///
/// Implements [`GraphView`], so any algorithm (SimPush, the baselines'
/// index-free methods) queries it directly; the result is bit-identical to
/// querying [`to_csr`](GraphSnapshot::to_csr).
#[derive(Debug, Clone)]
pub struct GraphSnapshot {
    overlay: DeltaOverlay,
    epoch: u64,
}

impl GraphSnapshot {
    /// The publish sequence number of this snapshot (0 = the initial base).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Updates applied on top of this snapshot's CSR base (0 right after a
    /// compaction: reads are pure CSR pass-through).
    pub fn churn(&self) -> usize {
        self.overlay.churn()
    }

    /// Rebuilds this epoch's logical graph as a standalone [`CsrGraph`] —
    /// what an index-based method would have to do before answering.
    pub fn to_csr(&self) -> CsrGraph {
        match (self.overlay.is_clean(), self.overlay.base().as_ram()) {
            // Clean RAM base: the CSR already exists, just clone it. A
            // disk base has no in-memory CSR to share, clean or not.
            (true, Some(csr)) => csr.clone(),
            _ => self.overlay.rebuild(),
        }
    }

    /// True if the directed edge `(src, dst)` exists in this epoch.
    pub fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.overlay.has_edge(src, dst)
    }
}

impl GraphView for GraphSnapshot {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.overlay.num_nodes()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.overlay.num_edges()
    }

    #[inline]
    fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.overlay.out_neighbors(v)
    }

    #[inline]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.overlay.in_neighbors(v)
    }
}

/// What one [`publish`](GraphStore::publish) did.
#[derive(Debug, Clone)]
pub struct PublishInfo {
    /// Epoch number of the snapshot this publish made current.
    pub epoch: u64,
    /// Whether the overlay was compacted into a fresh CSR base first.
    pub compacted: bool,
    /// Time spent compacting (zero when `compacted` is false).
    pub compaction_time: Duration,
    /// Distinct endpoints of the effective updates this publish made
    /// visible (sorted ascending). This is the **per-publish delta**, not
    /// cumulative overlay churn: a compaction-only publish (or any publish
    /// with no new effective updates) reports an empty set, which is what
    /// lets delta-aware caches keep answers whose neighbourhoods did not
    /// actually change — compaction rewrites the representation, never the
    /// logical graph.
    pub touched: Vec<NodeId>,
}

#[derive(Debug)]
struct WriterState {
    working: DeltaOverlay,
    epoch: u64,
    compactions: u64,
    compaction_time: Duration,
}

/// Epoch-snapshot dynamic graph store: single writer, many readers.
///
/// ```
/// use simrank_graph::{gen, GraphStore, GraphView};
///
/// let store = GraphStore::new(gen::gnm(100, 400, 1));
/// let before = store.snapshot();           // epoch 0
/// store.insert_edge(0, 99);
/// store.publish();                          // epoch 1 becomes current
/// let after = store.snapshot();
/// assert_eq!(before.epoch(), 0);
/// assert_eq!(after.epoch(), 1);
/// assert_eq!(before.num_edges() + 1, after.num_edges());
/// assert!(after.has_edge(0, 99) && !before.has_edge(0, 99));
/// ```
///
/// Updates buffered by `insert_edge`/`remove_edge` are invisible to readers
/// until [`publish`](GraphStore::publish) — snapshots are transactional
/// batch boundaries, not torn mid-batch states.
#[derive(Debug)]
pub struct GraphStore {
    writer: Mutex<WriterState>,
    /// The current epoch; readers clone the `Arc` under a read lock.
    published: RwLock<Arc<GraphSnapshot>>,
    /// Lock-free mirror of the published epoch number — the
    /// [`version_hint`](Self::version_hint) fast path.
    version: AtomicU64,
    compact_threshold: usize,
}

/// Default churn threshold past which [`GraphStore::publish`] folds the
/// overlay back into a fresh CSR base.
pub const DEFAULT_COMPACT_THRESHOLD: usize = 8_192;

impl GraphStore {
    /// Creates a store serving `base` as epoch 0, with the
    /// [default](DEFAULT_COMPACT_THRESHOLD) compaction threshold.
    pub fn new(base: CsrGraph) -> Self {
        Self::with_compaction_threshold(base, DEFAULT_COMPACT_THRESHOLD)
    }

    /// Creates a store that compacts once at least `threshold` effective
    /// updates have accumulated on the current base (`threshold ≥ 1`).
    ///
    /// # Panics
    /// Panics if `threshold` is 0 (that would compact on every publish,
    /// which is the "snapshot per update" anti-pattern the store exists to
    /// avoid; ask for `1` explicitly if that's really what you want to
    /// measure).
    pub fn with_compaction_threshold(base: CsrGraph, threshold: usize) -> Self {
        Self::from_base(GraphBase::Ram(base), threshold)
    }

    /// Creates a store serving a **disk-resident** base (see
    /// [`crate::storage`]) as epoch 0, with the
    /// [default](DEFAULT_COMPACT_THRESHOLD) compaction threshold: live
    /// updates accumulate in an in-RAM [`DeltaOverlay`] while untouched
    /// neighbour reads fault through the storage tier.
    ///
    /// Compaction folds the overlay into a fresh **in-memory** CSR base —
    /// an out-of-core store that churns past its threshold is telling you
    /// the delta working set is large enough to deserve RAM. Re-tier with
    /// [`storage::write_disk_graph`](crate::storage::write_disk_graph) if
    /// the compacted graph should go back to disk.
    pub fn open_disk(disk: DiskGraph) -> Self {
        Self::from_base(GraphBase::Disk(disk), DEFAULT_COMPACT_THRESHOLD)
    }

    /// [`open_disk`](Self::open_disk) with an explicit compaction
    /// threshold (same contract as
    /// [`with_compaction_threshold`](Self::with_compaction_threshold)).
    pub fn open_disk_with_threshold(disk: DiskGraph, threshold: usize) -> Self {
        Self::from_base(GraphBase::Disk(disk), threshold)
    }

    fn from_base(base: GraphBase, threshold: usize) -> Self {
        assert!(threshold > 0, "compaction threshold must be ≥ 1");
        let base = Arc::new(base);
        let working = DeltaOverlay::new(base);
        let snapshot = Arc::new(GraphSnapshot {
            overlay: working.clone(),
            epoch: 0,
        });
        Self {
            writer: Mutex::new(WriterState {
                working,
                epoch: 0,
                compactions: 0,
                compaction_time: Duration::ZERO,
            }),
            published: RwLock::new(snapshot),
            version: AtomicU64::new(0),
            compact_threshold: threshold,
        }
    }

    /// The churn threshold that triggers compaction at publish time.
    pub fn compaction_threshold(&self) -> usize {
        self.compact_threshold
    }

    /// The current epoch, as an `Arc` the caller can hold for as long as it
    /// likes — concurrent publishes never mutate it. This is the reader
    /// fast path: a read lock and an `Arc` clone.
    pub fn snapshot(&self) -> Arc<GraphSnapshot> {
        self.published
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Current epoch number (the one [`snapshot`](Self::snapshot) returns).
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// Lock-free hint of the current epoch number: a relaxed atomic load,
    /// no `RwLock`, no `Arc` clone. Readers that cached a snapshot skip
    /// reacquisition while the hint matches their snapshot's epoch.
    ///
    /// The hint is updated *after* the publish swap, so it may briefly lag
    /// the truly published epoch (never lead it past a reader's view in a
    /// harmful way): acting on a stale hint just means serving from the
    /// previous epoch's snapshot, indistinguishable from having dequeued
    /// the request a moment earlier. It advances by exactly 1 per
    /// [`publish`](Self::publish) — pinned by a unit test.
    pub fn version_hint(&self) -> u64 {
        // relaxed: a hint may lag the published epoch, as documented
        // above — staleness is bounded and benign, nothing orders on it.
        self.version.load(Ordering::Relaxed)
    }

    /// How many times the overlay has been compacted into a fresh base.
    pub fn compactions(&self) -> u64 {
        self.lock_writer().compactions
    }

    /// Total time spent in compaction since the store was created.
    pub fn compaction_time(&self) -> Duration {
        self.lock_writer().compaction_time
    }

    fn lock_writer(&self) -> std::sync::MutexGuard<'_, WriterState> {
        // A panic while holding the writer lock can only abandon buffered
        // (never published) updates; the shared state stays consistent.
        self.writer.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Buffers an edge insertion into the working overlay (invisible to
    /// readers until [`publish`](Self::publish)). Returns `false` if the
    /// edge already exists.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range — same contract as
    /// [`MutableGraph::insert_edge`](crate::MutableGraph::insert_edge).
    pub fn insert_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.lock_writer().working.insert_edge(src, dst)
    }

    /// Buffers an edge removal into the working overlay (invisible to
    /// readers until [`publish`](Self::publish)). Returns `false` if the
    /// edge did not exist.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range — same contract as
    /// [`MutableGraph::remove_edge`](crate::MutableGraph::remove_edge).
    pub fn remove_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.lock_writer().working.remove_edge(src, dst)
    }

    /// Applies a batch of updates to the working overlay without
    /// publishing. Returns how many were *effective* (inserting a present
    /// edge / removing an absent one is a counted-out no-op).
    ///
    /// # Panics
    /// Panics if any update names an out-of-range endpoint.
    pub fn apply(&self, updates: &[GraphUpdate]) -> usize {
        let mut state = self.lock_writer();
        let mut applied = 0;
        for &u in updates {
            let effective = match u {
                GraphUpdate::Insert(s, t) => state.working.insert_edge(s, t),
                GraphUpdate::Remove(s, t) => state.working.remove_edge(s, t),
            };
            applied += usize::from(effective);
        }
        applied
    }

    /// Makes the working overlay the current epoch, compacting it into a
    /// fresh CSR base first if its churn reached the threshold.
    ///
    /// Cost: `O(churned adjacency)` to clone the overlay for the snapshot
    /// (plus `O(n + m)` on the publishes that compact). Readers are only
    /// blocked for the pointer swap, never for the clone or the rebuild.
    pub fn publish(&self) -> PublishInfo {
        let mut state = self.lock_writer();
        // Drain the per-publish delta *before* any compaction: a rebuild
        // replaces the working overlay (which would discard the pending
        // delta), and the snapshot clone below must carry an already-empty
        // delta so no endpoint is ever reported twice.
        let touched = state.working.take_recent();
        let mut info = PublishInfo {
            epoch: 0,
            compacted: false,
            compaction_time: Duration::ZERO,
            touched,
        };
        if state.working.churn() >= self.compact_threshold {
            let t = Instant::now();
            // Compaction always lands in RAM, even over a disk base: the
            // rebuild is already an in-memory CSR, and a store churning
            // past its threshold has a delta working set that earns it.
            let fresh = Arc::new(GraphBase::Ram(state.working.rebuild()));
            state.working = DeltaOverlay::new(fresh);
            info.compacted = true;
            info.compaction_time = t.elapsed();
            state.compactions += 1;
            state.compaction_time += info.compaction_time;
        }
        state.epoch += 1;
        info.epoch = state.epoch;
        let snapshot = Arc::new(GraphSnapshot {
            overlay: state.working.clone(),
            epoch: state.epoch,
        });
        // Swap while still holding the writer lock so epochs publish in
        // order; the write lock is held only for the pointer assignment.
        *self.published.write().unwrap_or_else(|p| p.into_inner()) = snapshot;
        // relaxed: hint stored after the swap (still under the writer
        // lock, so hints advance in order); a reader seeing the new value
        // can race an older snapshot only in the benign stale-by-one
        // direction — no memory is published through this store.
        self.version.store(state.epoch, Ordering::Relaxed);
        info
    }

    /// [`apply`](Self::apply) + [`publish`](Self::publish) in one call: the
    /// per-batch writer step of a serving loop. Returns the effective
    /// update count and what the publish did.
    pub fn commit(&self, updates: &[GraphUpdate]) -> (usize, PublishInfo) {
        let applied = self.apply(updates);
        (applied, self.publish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, GraphBuilder, MutableGraph};

    #[test]
    fn snapshots_are_immutable_epochs() {
        let store = GraphStore::new(GraphBuilder::new().with_num_nodes(4).build());
        let e0 = store.snapshot();
        store.insert_edge(0, 1);
        assert_eq!(
            e0.num_edges(),
            store.snapshot().num_edges(),
            "buffered updates are invisible until publish"
        );
        let info = store.publish();
        assert_eq!(info.epoch, 1);
        let e1 = store.snapshot();
        assert_eq!(e0.num_edges(), 0, "old epoch untouched");
        assert_eq!(e1.num_edges(), 1);
        assert!(e1.has_edge(0, 1));
    }

    #[test]
    fn commit_reports_effective_updates() {
        let store = GraphStore::new(GraphBuilder::new().with_num_nodes(3).build());
        let (applied, info) = store.commit(&[
            GraphUpdate::Insert(0, 1),
            GraphUpdate::Insert(0, 1), // duplicate: no-op
            GraphUpdate::Remove(1, 2), // absent: no-op
            GraphUpdate::Insert(1, 2),
            GraphUpdate::Remove(0, 1),
        ]);
        assert_eq!(applied, 3);
        assert_eq!(info.epoch, 1);
        let snap = store.snapshot();
        assert!(snap.has_edge(1, 2) && !snap.has_edge(0, 1));
    }

    #[test]
    fn compaction_fires_past_threshold_and_preserves_the_graph() {
        let base = gen::gnm(60, 240, 7);
        let store = GraphStore::with_compaction_threshold(base.clone(), 4);
        let mut replica = MutableGraph::from_csr(&base);
        let updates = [
            GraphUpdate::Insert(0, 59),
            GraphUpdate::Insert(1, 58),
            GraphUpdate::Remove(0, 59),
            GraphUpdate::Insert(2, 57),
            GraphUpdate::Insert(3, 56),
        ];
        for &u in &updates {
            match u {
                GraphUpdate::Insert(s, t) => replica.insert_edge(s, t),
                GraphUpdate::Remove(s, t) => replica.remove_edge(s, t),
            };
        }
        let (_, info) = store.commit(&updates);
        assert!(info.compacted, "5 effective updates ≥ threshold 4");
        assert_eq!(store.compactions(), 1);
        let snap = store.snapshot();
        assert_eq!(snap.churn(), 0, "post-compaction epoch is pure CSR");
        assert_eq!(snap.to_csr(), replica.snapshot());
        // Further publishes without churn don't re-compact.
        store.publish();
        assert_eq!(store.compactions(), 1);
    }

    #[test]
    fn publish_reports_the_per_publish_touched_delta() {
        let store = GraphStore::new(GraphBuilder::new().with_num_nodes(6).build());
        store.insert_edge(0, 1);
        store.insert_edge(2, 3);
        let info = store.publish();
        assert_eq!(info.touched, vec![0, 1, 2, 3], "sorted distinct endpoints");
        // The next publish is only responsible for what changed since.
        store.remove_edge(2, 3);
        let info = store.publish();
        assert_eq!(info.touched, vec![2, 3]);
        // No-op updates and empty publishes report an empty delta.
        store.insert_edge(0, 1); // already present
        let info = store.publish();
        assert!(info.touched.is_empty());
    }

    #[test]
    fn compaction_publish_reports_only_new_updates_as_touched() {
        let base = GraphBuilder::new().with_num_nodes(40).build();
        let store = GraphStore::with_compaction_threshold(base, 2);
        assert!(store.insert_edge(0, 39));
        assert!(store.insert_edge(1, 38));
        let info = store.publish();
        assert!(info.compacted);
        assert_eq!(info.touched, vec![0, 1, 38, 39]);
        // A later compaction triggered by *already-published* churn must
        // not re-report old endpoints: compaction rewrites representation,
        // not the logical graph.
        assert!(store.insert_edge(2, 37));
        assert!(store.insert_edge(3, 36));
        let info = store.publish();
        assert!(info.compacted, "threshold 2 reached again");
        assert_eq!(info.touched, vec![2, 3, 36, 37]);
    }

    #[test]
    fn version_hint_advances_exactly_on_publish() {
        let store = GraphStore::new(GraphBuilder::new().with_num_nodes(4).build());
        assert_eq!(store.version_hint(), 0);
        store.insert_edge(0, 1);
        assert_eq!(
            store.version_hint(),
            0,
            "buffered updates must not move the hint"
        );
        for want in 1..=3u64 {
            let info = store.publish();
            assert_eq!(info.epoch, want);
            assert_eq!(store.version_hint(), want, "hint == published epoch");
            assert_eq!(store.snapshot().epoch(), store.version_hint());
        }
    }

    #[test]
    fn epochs_count_publishes() {
        let store = GraphStore::new(CsrGraph::empty(2));
        assert_eq!(store.epoch(), 0);
        for want in 1..=3 {
            let info = store.publish();
            assert_eq!(info.epoch, want);
            assert_eq!(store.snapshot().epoch(), want);
        }
    }

    #[test]
    fn disk_backed_store_serves_updates_and_compacts_to_ram() {
        use crate::storage::{write_disk_graph, DiskGraph, DiskGraphOptions};
        let g = gen::gnm(80, 400, 11);
        let path = std::env::temp_dir().join("simrank-store-disk-test.srgd");
        write_disk_graph(&g, &path, 512).unwrap();
        let disk = DiskGraph::open_mem(&path, DiskGraphOptions::default()).unwrap();
        let store = GraphStore::open_disk_with_threshold(disk, 3);

        let snap = store.snapshot();
        assert!(snap.overlay.base().is_disk(), "epoch 0 serves from disk");
        assert_eq!(snap.to_csr(), g, "disk epoch rebuilds the same graph");

        // A replica store over the RAM copy must stay equivalent.
        let ram = GraphStore::with_compaction_threshold(g, 3);
        let updates = [
            GraphUpdate::Insert(0, 79),
            GraphUpdate::Insert(1, 78),
            GraphUpdate::Remove(0, 79),
        ];
        let (applied_d, info_d) = store.commit(&updates);
        let (applied_r, info_r) = ram.commit(&updates);
        assert_eq!(applied_d, applied_r);
        assert_eq!(info_d.compacted, info_r.compacted);
        assert!(info_d.compacted, "3 effective updates ≥ threshold 3");
        let snap = store.snapshot();
        assert!(
            !snap.overlay.base().is_disk(),
            "compaction folds the base into RAM"
        );
        assert_eq!(snap.to_csr(), ram.snapshot().to_csr());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_update() {
        GraphStore::new(CsrGraph::empty(2)).insert_edge(0, 9);
    }

    #[test]
    #[should_panic(expected = "threshold must be")]
    fn rejects_zero_threshold() {
        GraphStore::with_compaction_threshold(CsrGraph::empty(1), 0);
    }
}
