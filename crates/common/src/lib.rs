//! Shared substrate for the SimPush workspace.
//!
//! This crate deliberately has **zero third-party dependencies**. It provides
//! the small, hot building blocks that every other crate in the workspace
//! leans on:
//!
//! * [`hash`] — an Fx-style fast hasher plus [`FxHashMap`]/[`FxHashSet`]
//!   aliases. SimRank query state is keyed by dense integer node ids, for
//!   which SipHash (the std default) is needlessly slow.
//! * [`hybrid`] — [`HybridMap`], a node→score accumulator that starts as a
//!   hash map and migrates itself to a dense array once it covers enough of
//!   the node universe. Residue-push workloads oscillate between very sparse
//!   frontiers (deep levels) and near-full frontiers (level 1 of a hub-heavy
//!   graph); neither a pure hash map nor a pure dense array is right for both.
//! * [`timer`] — wall-clock stage timing used by the per-stage breakdowns
//!   (paper Table 3).
//! * [`mem`] — `/proc/self/status` peak-RSS probe used for the memory plots
//!   (paper Figure 6) plus a [`mem::LogicalBytes`] trait for index
//!   accounting.
//! * [`seeds`] — SplitMix64 seed derivation so that parallel samplers and
//!   dataset generators are deterministic from a single master seed.
//! * [`stats`] — the shared nearest-rank latency summary every scenario
//!   report (whole runs, ramp segments, the calibration) goes through, so
//!   `p50`/`p99` mean the same thing everywhere.
//! * [`workspace`] — [`EpochVec`], an epoch-stamped dense scratch vector
//!   with O(1) logical clear; the building block of the reusable per-query
//!   workspaces that let a steady-state query loop allocate nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod hybrid;
pub mod mem;
pub mod seeds;
pub mod stats;
pub mod timer;
pub mod workspace;

pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use hybrid::HybridMap;
pub use timer::Timer;
pub use workspace::EpochVec;

/// Node identifier used across the workspace.
///
/// `u32` keeps hot per-node state at half the width of `usize` (the paper's
/// largest graph has 1.68 G nodes, which still fits) and follows the
/// perf-book guidance of using the smallest index type that fits.
pub type NodeId = u32;
