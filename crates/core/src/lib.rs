//! **SimPush** — realtime, index-free single-source SimRank.
//!
//! Reproduction of *"Realtime Index-Free Single Source SimRank Processing on
//! Web-Scale Graphs"* (Shi, Jin, Yang, Xiao, Yang — PVLDB 2020).
//!
//! Given a directed graph `G`, a query node `u`, an absolute error budget
//! `ε` and a failure probability `δ`, a query returns `s̃(u, v)` for every
//! `v` with `s(u,v) − ε ≤ s̃(u,v) ≤ s(u,v)` (one-sided underestimate), with
//! probability `≥ 1 − δ`, **without any preprocessing or index**.
//!
//! # Quick start
//!
//! ```
//! use simpush::{Config, SimPush};
//! use simrank_graph::gen::shapes;
//!
//! let g = shapes::jeh_widom();
//! let engine = SimPush::new(Config::new(0.01));
//! let result = engine.query(&g, 1); // single-source query from ProfA
//! for (node, score) in result.top_k(3) {
//!     println!("node {node}: s̃ = {score:.4}");
//! }
//! ```
//!
//! # Pipeline (paper §3–4)
//!
//! 1. [`source_push`](source_push::source_push) — pushes hitting
//!    probabilities `h^(ℓ)(u,·)` level by level along in-edges, recording
//!    the *source graph* `Gu` and the *attention nodes* (`h ≥ ε_h`). The
//!    push detects the max useful level `L` itself — exactly while it stays
//!    within an edge budget, from residual √c-walks past it (see the
//!    [`source_push`] module docs).
//! 2. [`hitting`] + [`gamma`] — computes hitting probabilities between
//!    attention nodes *inside* `Gu` and from them the last-meeting
//!    corrections `γ^(ℓ)(w)` via the first-meeting recursion, with no
//!    random walks.
//! 3. [`reverse_push`](reverse_push::reverse_push) — seeds residues
//!    `r^(ℓ)(w) = h^(ℓ)(u,w)·γ^(ℓ)(w)` and pushes them along out-edges down
//!    to level 0, producing `s̃(u, ·)` in one pass for all attention nodes
//!    simultaneously.
//!
//! Each stage is timed; [`QueryStats`] exposes the breakdown used to
//! reproduce the paper's Table 3 and its in-text structural claims (average
//! `L`, attention-node counts).
//!
//! # Workspace reuse (serving)
//!
//! Every stage borrows its buffers from a reusable [`QueryWorkspace`]
//! instead of allocating per query: [`SimPush::query`] manages a
//! lazily-grown engine-internal workspace, and serving loops hold one per
//! thread and call [`SimPush::query_with`] (or
//! [`SimPush::query_seeded_with`], whose per-query seed makes the answer
//! independent of query order). Steady-state warm queries perform zero
//! heap allocations in the push stages, and warm results are bit-identical
//! to cold ones — see the [`workspace`] module docs for why.
//!
//! # Serving front-end (dynamic graphs, admission control)
//!
//! The [`Frontend`] serves the paper's "frequent updates" scenario end to
//! end: writers commit edge-update batches to a
//! [`GraphStore`](simrank_graph::GraphStore) or to the K shards of a
//! [`ShardedStore`](simrank_graph::ShardedStore) while it answers queries
//! on immutable epoch / consistent-cut snapshots, under real arrival
//! traffic: a bounded admission queue with non-blocking backpressure
//! ([`Frontend::try_submit`] returns [`SubmitError::Overloaded`] when
//! full), a worker pool answering on per-request fresh snapshots, and
//! per-query deadlines whose expirations are dropped at dequeue and
//! counted — see the [`frontend`] module docs.
//!
//! # Elastic control plane
//!
//! The [`control`] module makes one serving knob *live*: an
//! [`AdmissionQuota`] that every submission reads with one atomic load,
//! set by a closed-loop [`Controller`] that samples the per-interval
//! sojourn histogram and the queue depth and shrinks or regrows the quota
//! CoDel-style.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answer_cache;
pub mod config;
pub mod control;
pub mod frontend;
pub mod gamma;
pub mod hitting;
pub mod query;
pub mod reverse_push;
pub mod source_graph;
pub mod source_push;
pub mod workspace;

pub use answer_cache::{
    AnswerCache, AnswerCacheOptions, CacheHit, CacheKey, CacheStats, SupportTracer,
};
pub use config::{Config, LevelDetection};
pub use control::{
    step, AdmissionQuota, ControlLog, ControlReason, ControlRecord, ControlState, Controller,
    ControllerOptions, HistogramSnapshot, IntervalHistogram, TickObservation,
};
pub use frontend::{
    Frontend, FrontendObserver, FrontendOptions, FrontendOptionsBuilder, FrontendResponse,
    FrontendStats, IntervalSample, QueryOutcome, SnapshotSource, SubmitError, Ticket,
};
pub use query::{QueryResult, QueryStats, SimPush};
pub use source_graph::SourceGraph;
pub use workspace::QueryWorkspace;
