//! Directed-graph substrate for the SimPush workspace.
//!
//! The paper's algorithms are all neighbourhood-walk and residue-push
//! procedures over a *static snapshot* of a directed graph, while its
//! motivating scenario is a graph that "can change frequently and
//! unpredictably". This crate serves both:
//!
//! * [`CsrGraph`] — an immutable compressed-sparse-row snapshot with both
//!   out- and in-adjacency, the representation every algorithm queries.
//! * [`MutableGraph`] — an adjacency-list graph supporting edge insertion
//!   and deletion in place. Index-free methods (SimPush, ProbeSim) run on it
//!   directly through the [`GraphView`] trait; index-based baselines cannot,
//!   which is exactly the paper's point.
//! * [`GraphStore`] — the concurrent serving layer: a single writer batches
//!   updates into a [`DeltaOverlay`] over an `Arc`-shared CSR base and
//!   publishes immutable epoch [`GraphSnapshot`]s that many reader threads
//!   query while the writer keeps mutating, with automatic compaction back
//!   into CSR past a churn threshold.
//! * [`ShardedStore`] — the node universe partitioned across K
//!   [`GraphStore`] shards by a [`Partitioner`] (contiguous ranges in
//!   [`RangePartitioner`]), so each compaction rebuilds one shard; one
//!   write door, `commit`, publishes composite consistent-cut
//!   [`ShardedSnapshot`]s that route node id → shard.
//! * [`GraphBuilder`] — edge accumulation with deduplication, self-loop
//!   policy and undirected symmetrisation (paper §2.1 converts undirected
//!   inputs to edge pairs).
//! * [`gen`] — deterministic synthetic generators standing in for the
//!   paper's nine datasets (see `docs/REPRODUCING.md`).
//! * [`io`] — whitespace edge-list text format (SNAP-style, `#` comments)
//!   and [`io::IoError`].
//! * [`storage`] — the out-of-core tier: the `SRGD` on-disk CSR layout (the
//!   one binary graph format, which also caches the datasets) with
//!   a checksummed superblock, pluggable storage [`Adaptor`]s (heap,
//!   buffered file, mmap), one-rule segment pinning under a byte budget, and
//!   [`DiskGraph`], which serves [`GraphView`] queries straight off the file
//!   so every algorithm runs on graphs larger than RAM unchanged.
//! * [`base`] — [`GraphBase`], the RAM-or-disk snapshot base that
//!   [`DeltaOverlay`] and [`GraphStore`] layer live updates onto.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod base;
pub mod builder;
pub mod csr;
pub mod gen;
pub mod io;
pub mod mutable;
pub mod overlay;
pub mod sharded;
pub mod stats;
pub mod storage;
pub mod store;
pub mod view;

pub use base::GraphBase;
pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use mutable::MutableGraph;
pub use overlay::DeltaOverlay;
pub use sharded::{CutInfo, Partitioner, RangePartitioner, ShardedSnapshot, ShardedStore};
pub use simrank_common::NodeId;
pub use stats::GraphStats;
pub use storage::{
    Adaptor, DiskGraph, DiskGraphOptions, FsAdaptor, MemAdaptor, MmapAdaptor, PlacementReport,
    SegmentId, TierStats,
};
pub use store::{GraphSnapshot, GraphStore, GraphUpdate, PublishInfo};
pub use view::GraphView;
