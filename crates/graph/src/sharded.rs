//! [`ShardedStore`]: the node universe partitioned across K [`GraphStore`]
//! shards behind one write door, queried through composite
//! consistent-cut snapshots.
//!
//! `ShardedStore` partitions the **node universe** (not the edge set)
//! across K shards with a [`Partitioner`]: shard `k` owns every node `v`
//! with `shard_of(v) == k` and stores the full adjacency — out- *and*
//! in-neighbour lists — of its owned nodes. An edge `(s, t)` therefore
//! lives in shard `p(s)` (which serves `out_neighbors(s)`) and is
//! *mirrored* into shard `p(t)` when the edge crosses shards, so that
//! `in_neighbors(t)` is always answerable from `t`'s own shard. This is
//! the standard edge-replication vertex partitioning of distributed graph
//! stores; the replication factor is `1 + cross`, where `cross` is the
//! fraction of edges whose endpoints land in different shards — which is
//! exactly what a locality-aware [`RangePartitioner`] minimises.
//!
//! # What sharding buys
//!
//! **Smaller compaction domains.** A shard compaction rebuilds
//! `O(n + m_k)` instead of `O(n + m)`; with a locality-friendly
//! partitioner `m_k ≈ m / K`, so the amortised compaction cost per update
//! drops by up to K× (the benchmark's `ingest_sharded` workload reads it
//! off `sharded.*`). Writes are not parallel: there is one writer.
//!
//! # One write door, consistent cuts
//!
//! [`commit`](ShardedStore::commit) is the only way to change the store.
//! It holds one writer lock from routing the batch, through every shard's
//! apply and publish, to the swap of the composite cut, so concurrent
//! commits serialise exactly like [`GraphStore::commit`]s and every cut
//! carries both sides of every mirrored cross-shard edge. A reader
//! acquires a [`ShardedSnapshot`]: an `Arc`'d vector of per-shard epoch
//! [`GraphSnapshot`]s plus the partitioner. It implements [`GraphView`] by
//! routing node id → shard, so SimPush queries run unchanged — and
//! bit-identically to a single [`GraphStore`] or a fresh CSR rebuild of
//! the same logical graph (`tests/prop_sharded.rs` pins this, and that
//! racing commits never publish a torn cut).

use crate::csr::CsrGraph;
use crate::store::{GraphSnapshot, GraphStore, GraphUpdate};
use crate::view::GraphView;
use simrank_common::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Duration;

/// Maps node ids to shard indices. Implementations must be pure functions
/// of the node id (same id → same shard, forever): routing happens on
/// every neighbour-list access of a sharded query, so implementations
/// should also be branch-light and `#[inline]`.
pub trait Partitioner: Send + Sync {
    /// Number of shards this partitioner maps onto (≥ 1).
    fn num_shards(&self) -> usize;

    /// The shard owning node `v`; must be `< num_shards()`.
    fn shard_of(&self, v: NodeId) -> usize;
}

/// Contiguous-range partitioner: shard `k` owns ids
/// `[k·⌈n/K⌉, (k+1)·⌈n/K⌉)`. Chunks **nest** when `n` is divisible by
/// the shard counts involved: halving the shard count then exactly
/// merges neighbouring chunks, so an update stream that is shard-local
/// at `2K` shards stays local at `K` — which is what lets one generated
/// workload be replayed across every shard count. With a ragged `n` the
/// coarser boundaries shift and nesting is only approximate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangePartitioner {
    chunk: usize,
    shards: usize,
}

impl RangePartitioner {
    /// A range partitioner splitting `num_nodes` ids into `shards`
    /// contiguous chunks of `⌈num_nodes/shards⌉`.
    ///
    /// # Panics
    /// Panics if `shards` or `num_nodes` is 0.
    pub fn new(num_nodes: usize, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(num_nodes >= 1, "need a non-empty node universe");
        Self {
            chunk: num_nodes.div_ceil(shards),
            shards,
        }
    }
}

impl Partitioner for RangePartitioner {
    #[inline]
    fn num_shards(&self) -> usize {
        self.shards
    }

    #[inline]
    fn shard_of(&self, v: NodeId) -> usize {
        // `min` guards ids ≥ num_nodes (stores assert id ranges
        // themselves, but the partitioner alone must never go out of
        // bounds).
        (v as usize / self.chunk).min(self.shards - 1)
    }
}

/// What one [`commit`](ShardedStore::commit) published — the sharded
/// analogue of [`PublishInfo`](crate::PublishInfo).
#[derive(Debug, Clone)]
pub struct CutInfo {
    /// The new consistent-cut number readers now acquire.
    pub cut: u64,
    /// Distinct endpoints of the effective updates this cut made visible
    /// (sorted ascending), aggregated across the commit's shard publishes.
    /// Mirror-side applies touch the same endpoints as their owner-side
    /// twin, so aggregation dedups rather than double-reports. Empty when
    /// the commit changed nothing.
    pub touched: Vec<NodeId>,
}

/// An immutable consistent cut of a [`ShardedStore`]: one epoch
/// [`GraphSnapshot`] per shard plus the partitioner that routes between
/// them.
///
/// Implements [`GraphView`] — `out_neighbors(v)` and `in_neighbors(v)`
/// both come from `v`'s owning shard, which stores the full adjacency of
/// its nodes — so any [`GraphView`] algorithm runs on it unchanged and
/// answers are bit-identical to a fresh CSR rebuild of the cut's logical
/// graph.
#[derive(Debug, Clone)]
pub struct ShardedSnapshot<P: Partitioner> {
    shards: Vec<Arc<GraphSnapshot>>,
    partitioner: P,
    n: usize,
    m: usize,
    cut: u64,
}

impl<P: Partitioner> ShardedSnapshot<P> {
    /// The cut sequence number (0 = the initial base; +1 per
    /// [`commit`](ShardedStore::commit)).
    pub fn cut(&self) -> u64 {
        self.cut
    }

    /// Number of shards in the composite.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard epoch snapshot backing shard `k`.
    pub fn shard(&self, k: usize) -> &Arc<GraphSnapshot> {
        &self.shards[k]
    }

    /// True if the directed edge `(src, dst)` exists at this cut.
    pub fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.shards[self.partitioner.shard_of(src)].has_edge(src, dst)
    }

    /// Rebuilds the cut's logical graph as a standalone [`CsrGraph`] —
    /// what a query on this snapshot is bit-identical to querying.
    pub fn to_csr(&self) -> CsrGraph {
        let nodes = 0..self.n as NodeId;
        CsrGraph::from_sorted_lists(
            self.m,
            nodes.clone().map(|v| self.out_neighbors(v)),
            nodes.map(|v| self.in_neighbors(v)),
        )
    }
}

impl<P: Partitioner> GraphView for ShardedSnapshot<P> {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.n
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.m
    }

    #[inline]
    fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.shards[self.partitioner.shard_of(v)].out_neighbors(v)
    }

    #[inline]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.shards[self.partitioner.shard_of(v)].in_neighbors(v)
    }
}

/// K [`GraphStore`] shards behind one composite consistent-cut snapshot
/// and one write door, [`commit`](Self::commit).
///
/// ```
/// use simrank_graph::{gen, GraphUpdate, GraphView, RangePartitioner, ShardedStore};
///
/// let base = gen::gnm(100, 400, 1);
/// let store = ShardedStore::new(&base, RangePartitioner::new(100, 4));
/// let before = store.snapshot(); // cut 0
/// store.commit(&[GraphUpdate::Insert(0, 99)]);
/// let after = store.snapshot();
/// assert_eq!(before.cut(), 0);
/// assert_eq!(after.cut(), 1);
/// assert_eq!(before.num_edges() + 1, after.num_edges());
/// assert!(after.has_edge(0, 99) && !before.has_edge(0, 99));
/// ```
#[derive(Debug)]
pub struct ShardedStore<P: Partitioner + Clone> {
    partitioner: P,
    shards: Vec<GraphStore>,
    n: usize,
    /// The write door: held by [`commit`](Self::commit) from routing to
    /// the cut swap. Guards the logical edge count (each cross-shard edge
    /// counted once).
    writer: Mutex<usize>,
    /// The current consistent cut; readers clone the `Arc` under a read
    /// lock, exactly like [`GraphStore::snapshot`].
    published: RwLock<Arc<ShardedSnapshot<P>>>,
    /// Lock-free mirror of the published cut number — the
    /// [`version_hint`](Self::version_hint) fast path.
    version: AtomicU64,
}

impl<P: Partitioner + Clone> ShardedStore<P> {
    /// Creates a sharded store serving `base` as cut 0, with the
    /// [default](crate::store::DEFAULT_COMPACT_THRESHOLD) per-shard
    /// compaction threshold.
    ///
    /// # Panics
    /// Panics if the partitioner maps any node of `base` outside
    /// `0..num_shards()`.
    pub fn new(base: &CsrGraph, partitioner: P) -> Self {
        Self::with_compaction_threshold(base, partitioner, crate::store::DEFAULT_COMPACT_THRESHOLD)
    }

    /// Creates a sharded store whose shards each compact past `threshold`
    /// effective updates. The threshold is **per shard**: the composite
    /// tolerates up to `K × threshold` total churn between compactions
    /// while each individual rebuild stays `O(n + m_k)`.
    ///
    /// # Panics
    /// Panics if `threshold` is 0 (same contract as
    /// [`GraphStore::with_compaction_threshold`]) or the partitioner
    /// misroutes a node.
    pub fn with_compaction_threshold(base: &CsrGraph, partitioner: P, threshold: usize) -> Self {
        let n = base.num_nodes();
        let k = partitioner.num_shards();
        // Split the base: every edge goes to its source's owner shard,
        // plus a mirror into the target's owner when the edge crosses
        // shards. Iterating sources (then targets) ascending keeps every
        // per-shard edge list sorted, as `from_sorted_edges` requires.
        let mut shard_edges: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); k];
        for s in 0..n as NodeId {
            let ps = partitioner.shard_of(s);
            assert!(ps < k, "partitioner routed node {s} to shard {ps} ≥ {k}");
            for &t in base.out_neighbors(s) {
                shard_edges[ps].push((s, t));
                let pt = partitioner.shard_of(t);
                assert!(pt < k, "partitioner routed node {t} to shard {pt} ≥ {k}");
                if pt != ps {
                    shard_edges[pt].push((s, t));
                }
            }
        }
        let shards: Vec<GraphStore> = shard_edges
            .into_iter()
            .map(|edges| {
                GraphStore::with_compaction_threshold(
                    CsrGraph::from_sorted_edges(n, &edges),
                    threshold,
                )
            })
            .collect();
        let initial = Arc::new(ShardedSnapshot {
            shards: shards.iter().map(|s| s.snapshot()).collect(),
            partitioner: partitioner.clone(),
            n,
            m: base.num_edges(),
            cut: 0,
        });
        Self {
            partitioner,
            shards,
            n,
            writer: Mutex::new(base.num_edges()),
            published: RwLock::new(initial),
            version: AtomicU64::new(0),
        }
    }

    /// Total compactions across all shards.
    pub fn compactions(&self) -> u64 {
        self.shards.iter().map(|s| s.compactions()).sum()
    }

    /// Total time spent compacting across all shards.
    pub fn compaction_time(&self) -> Duration {
        self.shards.iter().map(|s| s.compaction_time()).sum()
    }

    /// The current consistent cut, as an `Arc` the caller can hold
    /// indefinitely — commits never mutate a published snapshot.
    pub fn snapshot(&self) -> Arc<ShardedSnapshot<P>> {
        self.published
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Lock-free hint of the current cut number — same contract as
    /// [`GraphStore::version_hint`]: a relaxed load that may briefly lag a
    /// concurrent commit and advances by exactly 1 per
    /// [`commit`](Self::commit).
    pub fn version_hint(&self) -> u64 {
        // relaxed: a hint may lag the published cut, as documented above
        // — staleness is bounded and benign, nothing orders on it.
        self.version.load(Ordering::Relaxed)
    }

    fn lock_writer(&self) -> MutexGuard<'_, usize> {
        // The panic `commit` documents (an out-of-range endpoint) fires
        // while routing, before any shard is touched, so a poisoned lock
        // still guards an exact edge count.
        self.writer.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Applies `updates` and publishes them as the next consistent cut:
    /// update `(s, t)` goes to shard `p(s)` and, when the edge crosses
    /// shards, is mirrored to `p(t)`, in stream order; every shard then
    /// publishes and the composite swaps to the new cut. Semantically
    /// identical to [`GraphStore::commit`] on an unsharded store, also
    /// under concurrent callers. Returns the logically effective update
    /// count and the new cut's [`CutInfo`].
    ///
    /// # Panics
    /// Panics if any update names an out-of-range endpoint; the store is
    /// then left unchanged.
    pub fn commit(&self, updates: &[GraphUpdate]) -> (usize, CutInfo) {
        // Lock order: this writer lock, then each shard's own writer and
        // `published` locks, then our `published` swap — the order
        // `GraphStore::publish` takes.
        let mut m = self.lock_writer();
        let mut routed: Vec<Vec<GraphUpdate>> = vec![Vec::new(); self.shards.len()];
        for &u in updates {
            let (s, t) = u.endpoints();
            assert!(
                (s as usize) < self.n && (t as usize) < self.n,
                "edge endpoint out of range"
            );
            let (ps, pt) = (self.partitioner.shard_of(s), self.partitioner.shard_of(t));
            routed[ps].push(u);
            if pt != ps {
                routed[pt].push(u);
            }
        }
        // Only the owner-side (source shard) apply counts, so a mirrored
        // update is neither counted twice nor moves the edge count twice.
        let mut effective = 0;
        let mut touched = Vec::new();
        for (k, (shard, sub)) in self.shards.iter().zip(&routed).enumerate() {
            for &u in sub {
                let (s, t) = u.endpoints();
                let applied = match u {
                    GraphUpdate::Insert(..) => shard.insert_edge(s, t),
                    GraphUpdate::Remove(..) => shard.remove_edge(s, t),
                };
                if applied && self.partitioner.shard_of(s) == k {
                    effective += 1;
                    match u {
                        GraphUpdate::Insert(..) => *m += 1,
                        GraphUpdate::Remove(..) => *m -= 1,
                    }
                }
            }
            touched.extend_from_slice(&shard.publish().touched);
        }
        // A mirrored apply touches the same endpoints as its owner-side twin.
        touched.sort_unstable();
        touched.dedup();
        let shards = self.shards.iter().map(GraphStore::snapshot).collect();
        let mut published = self.published.write().unwrap_or_else(|p| p.into_inner());
        let cut = published.cut + 1;
        *published = Arc::new(ShardedSnapshot {
            shards,
            partitioner: self.partitioner.clone(),
            n: self.n,
            m: *m,
            cut,
        });
        // relaxed: hint stored after the swap, under both locks, so hints
        // advance in cut order; staleness is benign (same rationale as
        // GraphStore) and no memory is published through this store.
        self.version.store(cut, Ordering::Relaxed);
        (effective, CutInfo { cut, touched })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, GraphBuilder, MutableGraph};

    fn replay(base: &CsrGraph, updates: &[GraphUpdate]) -> CsrGraph {
        let mut replica = MutableGraph::from_csr(base);
        for &u in updates {
            let (s, t) = u.endpoints();
            match u {
                GraphUpdate::Insert(..) => replica.insert_edge(s, t),
                GraphUpdate::Remove(..) => replica.remove_edge(s, t),
            };
        }
        replica.snapshot()
    }

    #[test]
    fn range_partitioner_is_contiguous_and_nests() {
        let p = RangePartitioner::new(24, 4);
        assert_eq!(p.shard_of(0), 0);
        assert_eq!(p.shard_of(5), 0);
        assert_eq!(p.shard_of(6), 1);
        assert_eq!(p.shard_of(23), 3);
        // Nesting: same-shard at 4 shards → same-shard at 2 shards.
        let coarse = RangePartitioner::new(24, 2);
        for a in 0..24u32 {
            for b in 0..24u32 {
                if p.shard_of(a) == p.shard_of(b) {
                    assert_eq!(coarse.shard_of(a), coarse.shard_of(b));
                }
            }
        }
        // Ragged split: 10 nodes over 3 shards → chunks of 4, last short.
        let ragged = RangePartitioner::new(10, 3);
        assert_eq!(ragged.shard_of(9), 2);
    }

    #[test]
    fn composite_view_equals_base_at_cut_zero() {
        let base = gen::gnm(60, 300, 5);
        for k in [1, 2, 4] {
            let store = ShardedStore::new(&base, RangePartitioner::new(60, k));
            let snap = store.snapshot();
            assert_eq!(snap.cut(), 0);
            assert_eq!(snap.num_shards(), k);
            assert_eq!(snap.num_nodes(), base.num_nodes());
            assert_eq!(snap.num_edges(), base.num_edges());
            for v in 0..60 {
                assert_eq!(snap.out_neighbors(v), base.out_neighbors(v), "out({v})");
                assert_eq!(snap.in_neighbors(v), base.in_neighbors(v), "in({v})");
            }
            assert_eq!(snap.to_csr(), base);
        }
    }

    #[test]
    fn commit_matches_mutable_replay_at_three_and_four_shards() {
        let base = gen::gnm(40, 160, 9);
        let updates = [
            GraphUpdate::Insert(0, 39),
            GraphUpdate::Insert(39, 0),
            GraphUpdate::Remove(0, 39),
            GraphUpdate::Insert(1, 38),
            GraphUpdate::Insert(0, 39), // re-insert after remove
        ];
        let want = replay(&base, &updates);
        let three = ShardedStore::new(&base, RangePartitioner::new(40, 3));
        let (eff, cut) = three.commit(&updates);
        assert_eq!(eff, 5, "every update in the stream is effective");
        assert_eq!(cut.cut, 1);
        assert_eq!(
            cut.touched,
            vec![0, 1, 38, 39],
            "aggregated distinct endpoints, mirrors deduplicated"
        );
        assert_eq!(three.snapshot().to_csr(), want);
        assert_eq!(three.snapshot().num_edges(), want.num_edges());

        let four = ShardedStore::new(&base, RangePartitioner::new(40, 4));
        four.commit(&updates);
        assert_eq!(four.snapshot().to_csr(), want);
        assert_eq!(four.snapshot().num_edges(), want.num_edges());
    }

    #[test]
    fn noop_updates_do_not_change_the_logical_edge_count() {
        let base = GraphBuilder::new().with_edges([(0, 1), (2, 3)]).build();
        let store = ShardedStore::new(&base, RangePartitioner::new(4, 2));
        let (eff, _) = store.commit(&[
            GraphUpdate::Insert(0, 1), // already present
            GraphUpdate::Remove(1, 2), // absent
        ]);
        assert_eq!(eff, 0);
        assert_eq!(store.snapshot().num_edges(), 2);
    }

    #[test]
    fn cross_shard_edges_are_mirrored_into_both_shards() {
        // Range split of 4 nodes over 2 shards: {0,1} and {2,3}.
        let base = GraphBuilder::new()
            .with_num_nodes(4)
            .with_edges([(0, 3)])
            .build();
        let p = RangePartitioner::new(4, 2);
        assert_eq!(p.shard_of(0), 0);
        assert_eq!(p.shard_of(3), 1);
        let store = ShardedStore::new(&base, p);
        // Each shard holds the full cross edge; the composite counts it once.
        let snap = store.snapshot();
        assert_eq!(snap.shard(0).num_edges(), 1);
        assert_eq!(snap.shard(1).num_edges(), 1);
        assert_eq!(snap.num_edges(), 1);
        // Routed reads come from the owner of each endpoint.
        assert_eq!(snap.out_neighbors(0), &[3]);
        assert_eq!(snap.in_neighbors(3), &[0]);
        // A commit routes each update to its source's shard and mirrors
        // only the cross one; removing the cross edge empties both shards.
        store.commit(&[
            GraphUpdate::Insert(0, 1), // shard 0 only
            GraphUpdate::Remove(0, 3), // cross: shards 0 and 1
            GraphUpdate::Insert(2, 3), // shard 1 only
        ]);
        let snap = store.snapshot();
        assert_eq!(snap.shard(0).to_csr().edges().collect::<Vec<_>>(), [(0, 1)]);
        assert_eq!(snap.shard(1).to_csr().edges().collect::<Vec<_>>(), [(2, 3)]);
        assert_eq!(snap.num_edges(), 2);
    }

    #[test]
    fn snapshots_are_immutable_cuts() {
        let base = gen::gnm(30, 120, 2);
        let store = ShardedStore::new(&base, RangePartitioner::new(30, 2));
        let before = store.snapshot();
        store.commit(&[GraphUpdate::Insert(0, 29)]);
        // The commit is visible at the next cut, and old cuts never change.
        assert_eq!(store.snapshot().cut(), 1);
        assert_eq!(store.snapshot().num_edges(), base.num_edges() + 1);
        assert_eq!(before.cut(), 0);
        assert_eq!(before.num_edges(), base.num_edges());
        assert!(!before.has_edge(0, 29));
    }

    #[test]
    fn version_hint_advances_exactly_once_per_commit() {
        let base = gen::gnm(30, 120, 4);
        let store = ShardedStore::new(&base, RangePartitioner::new(30, 2));
        assert_eq!(store.version_hint(), 0);
        let (_, info) = store.commit(&[GraphUpdate::Insert(0, 29)]);
        assert_eq!(info.cut, 1);
        assert_eq!(store.version_hint(), 1);
        assert_eq!(info.touched, vec![0, 29]);
        // An empty commit still publishes a cut, with an empty delta.
        let (eff, empty) = store.commit(&[]);
        assert_eq!((eff, empty.cut), (0, 2));
        assert_eq!(store.version_hint(), 2);
        assert!(
            empty.touched.is_empty(),
            "nothing changed since the last cut"
        );
    }

    #[test]
    fn per_shard_compaction_fires_independently() {
        let base = gen::gnm(24, 60, 3);
        // Threshold 2 per shard; a burst of same-shard inserts compacts
        // only the shard that absorbed them.
        let p = RangePartitioner::new(24, 2);
        let store = ShardedStore::with_compaction_threshold(&base, p, 2);
        let updates: Vec<GraphUpdate> = (0..4)
            .map(|i| GraphUpdate::Insert(i as NodeId, (i + 5) as NodeId))
            .collect(); // all endpoints < 12 → shard 0 only
        store.commit(&updates);
        assert_eq!(store.compactions(), 1, "shard 1 saw no churn");
        assert_eq!(store.snapshot().shard(0).churn(), 0, "shard 0 compacted");
    }

    #[test]
    fn single_shard_store_degenerates_to_graph_store_semantics() {
        let base = gen::gnm(50, 200, 7);
        let sharded = ShardedStore::new(&base, RangePartitioner::new(50, 1));
        let single = GraphStore::new(base.clone());
        let updates: Vec<GraphUpdate> = (0..10)
            .map(|i| GraphUpdate::Insert((i * 3 % 50) as NodeId, ((i * 7 + 1) % 50) as NodeId))
            .collect();
        let (eff_sharded, _) = sharded.commit(&updates);
        let (eff_single, _) = single.commit(&updates);
        assert_eq!(eff_sharded, eff_single);
        assert_eq!(sharded.snapshot().to_csr(), single.snapshot().to_csr());
    }

    #[test]
    fn rejects_out_of_range_update_and_stays_unchanged() {
        let base = GraphBuilder::new().with_num_nodes(4).build();
        let store = ShardedStore::new(&base, RangePartitioner::new(4, 2));
        let batch = [GraphUpdate::Insert(0, 1), GraphUpdate::Insert(0, 9)];
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.commit(&batch);
        }));
        assert!(panicked.is_err(), "an out-of-range endpoint must panic");
        // Nothing of the batch was applied: the next commit publishes only
        // its own update.
        let (eff, info) = store.commit(&[GraphUpdate::Insert(2, 3)]);
        assert_eq!((eff, info.cut), (1, 1));
        assert_eq!(info.touched, vec![2, 3]);
        assert_eq!(store.snapshot().num_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn rejects_zero_shards() {
        RangePartitioner::new(4, 0);
    }
}
