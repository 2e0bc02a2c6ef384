//! Async serving front-end: bounded admission queue, worker pool,
//! backpressure and per-query deadlines.
//!
//! A real service does not drain a fixed query list as fast as it can:
//! requests arrive on their own clock, pile up when they outrun capacity,
//! and become worthless once they are too old. The [`Frontend`] models
//! exactly that, over a store whose writers keep committing:
//!
//! * **Bounded queue** — submissions go through a fixed-capacity MPMC
//!   channel ([`crossbeam::channel`]). [`try_submit`](Frontend::try_submit)
//!   never blocks: a full queue is an immediate
//!   [`SubmitError::Overloaded`], the backpressure signal callers shed load
//!   with. [`submit_timeout`](Frontend::submit_timeout) waits a bounded
//!   time for a slot instead.
//! * **Worker pool** — N threads each hold one warm
//!   [`QueryWorkspace`] and, per request, acquire a *fresh* epoch /
//!   consistent-cut snapshot from the backing store (a read lock plus an
//!   `Arc` clone — see [`SnapshotSource`]), so every answer reflects the
//!   newest published graph at service time and remains replayable: the
//!   response records the epoch it was answered from, and re-running
//!   [`SimPush::query_seeded`] on that epoch's graph reproduces it bit for
//!   bit (`tests/integration_serve.rs`).
//! * **Deadlines** — a request whose deadline has passed by the time a
//!   worker dequeues it is **dropped, not answered**: the caller gets
//!   [`QueryOutcome::DeadlineMissed`] and the miss is counted in
//!   [`FrontendStats`]. Expired work is the first thing an overloaded
//!   service must stop paying for.
//!
//! Shutdown drains: [`shutdown`](Frontend::shutdown) (or dropping the
//! front-end) closes the queue, lets the workers finish every accepted
//! request — each ticket resolves exactly once, to an answer or a miss —
//! and joins them.
//!
//! # Construction: the options builder
//!
//! [`FrontendOptions`] is `#[non_exhaustive]`: outside this crate it is
//! built through the validating [`FrontendOptions::builder`], never by
//! struct literal. That is deliberate API design — new knobs (the control
//! plane added several) land as new builder methods without breaking a
//! single call site, and the builder rejects nonsense (`workers == 0`,
//! zero capacity, a zero deadline) at construction instead of at
//! `Frontend::start`.
//!
//! # The live admission quota (the control plane)
//!
//! Workers, deadline and cache are fixed at construction. One admission
//! limit is runtime state: an [`AdmissionQuota`]
//! ([`Frontend::admission_quota`]), no quota at start, that every
//! submission reads with one atomic load. A
//! [`Controller`](crate::control::Controller) samples this front-end
//! through a [`FrontendObserver`] (queue depth plus the per-interval
//! sojourn histogram, [`FrontendObserver::sample`]) and sets the quota
//! closed-loop. The worker pool is fixed: an idle worker blocks in `recv`
//! and costs nothing.
//!
//! ```
//! use simpush::{Config, Frontend, FrontendOptions, QueryOutcome, SimPush};
//! use simrank_graph::{gen, GraphStore};
//! use std::sync::Arc;
//!
//! let store = Arc::new(GraphStore::new(gen::gnm(100, 400, 1)));
//! let engine = SimPush::new(Config::new(0.05));
//! let frontend = Frontend::start(&engine, store, FrontendOptions::default());
//! let ticket = frontend.try_submit(7).expect("queue has space");
//! match ticket.wait() {
//!     QueryOutcome::Answered(r) => {
//!         assert_eq!(r.node, 7);
//!         assert_eq!(r.epoch, 0); // nothing was published yet
//!     }
//!     other => unreachable!("no deadline set, workers healthy: {other:?}"),
//! }
//! frontend.shutdown();
//! ```

use crate::answer_cache::{AnswerCache, CacheKey, SupportTracer};
use crate::control::{AdmissionQuota, HistogramSnapshot, IntervalHistogram};
use crate::query::SimPush;
use crate::workspace::QueryWorkspace;
use crossbeam::channel::{self, SendTimeoutError, TrySendError};
use simrank_common::NodeId;
use simrank_graph::{
    GraphSnapshot, GraphStore, GraphView, Partitioner, ShardedSnapshot, ShardedStore,
};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A store the front-end workers can acquire immutable graph snapshots
/// from, tagged with a replayable version number.
///
/// Implemented for [`GraphStore`] (the tag is the **epoch**) and
/// [`ShardedStore`] (the tag is the **consistent-cut** number), so one
/// front-end drives either backend. `acquire` must be cheap and
/// non-blocking with respect to writers — both implementations are a read
/// lock plus an `Arc` clone — because the workers call it once per
/// request to pick up the freshest published graph.
pub trait SnapshotSource: Send + Sync + 'static {
    /// The immutable snapshot type queries run against.
    type View: GraphView;

    /// Acquires the current snapshot and its version tag (epoch or cut).
    fn acquire(&self) -> (Arc<Self::View>, u64);

    /// Lock-free hint of the current version tag — a relaxed atomic load
    /// that may briefly lag a concurrent publish or commit but never runs
    /// ahead of one. Workers use it to skip the read lock + `Arc` clone
    /// of [`acquire`](Self::acquire) when the version is unchanged since
    /// their last acquire, and to probe the answer cache before touching
    /// the store at all.
    fn version_hint(&self) -> u64;
}

impl SnapshotSource for GraphStore {
    type View = GraphSnapshot;

    fn acquire(&self) -> (Arc<GraphSnapshot>, u64) {
        let snap = self.snapshot();
        let epoch = snap.epoch();
        (snap, epoch)
    }

    fn version_hint(&self) -> u64 {
        GraphStore::version_hint(self)
    }
}

impl<P: Partitioner + Clone + Send + Sync + 'static> SnapshotSource for ShardedStore<P> {
    type View = ShardedSnapshot<P>;

    fn acquire(&self) -> (Arc<ShardedSnapshot<P>>, u64) {
        let snap = self.snapshot();
        let cut = snap.cut();
        (snap, cut)
    }

    fn version_hint(&self) -> u64 {
        ShardedStore::version_hint(self)
    }
}

/// Knobs for [`Frontend::start`], built through the validating
/// [`FrontendOptions::builder`].
///
/// `#[non_exhaustive]` so future knobs are additive: external call sites
/// construct via the builder (struct literals won't compile outside this
/// crate) and therefore keep compiling when a field lands. The fields
/// stay `pub` for *reading*.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct FrontendOptions {
    /// Query worker threads (≥ 1), each holding one warm workspace.
    pub workers: usize,
    /// Admission-queue capacity (≥ 1): requests buffered beyond the ones
    /// being served. When full, [`Frontend::try_submit`] rejects with
    /// [`SubmitError::Overloaded`].
    pub queue_capacity: usize,
    /// Deadline applied to every request; `None` means requests never
    /// expire.
    pub default_deadline: Option<Duration>,
    /// How many top-scoring nodes each answer keeps.
    pub top_k: usize,
    /// Fault-injection knob: extra service delay a worker sleeps per
    /// request *after* the deadline check, counted in the response's
    /// service time. Zero (the default) in any real deployment; tests use
    /// it to age the queue deterministically and the smoke-scale scenarios
    /// to give tiny-graph queries a paceable cost.
    pub synthetic_service_delay: Duration,
    /// Shared hot-answer cache ([`AnswerCache`]). When set, workers probe
    /// it at the store's [version hint](SnapshotSource::version_hint)
    /// *before* acquiring a snapshot — a hit skips the snapshot and the
    /// query entirely — and insert after answering a miss, tracing the
    /// answer's support set so delta-aware invalidation can promote it
    /// across publishes. `None` (the default) disables caching.
    pub cache: Option<Arc<AnswerCache>>,
}

impl Default for FrontendOptions {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 1024,
            default_deadline: None,
            top_k: 1,
            synthetic_service_delay: Duration::ZERO,
            cache: None,
        }
    }
}

impl FrontendOptions {
    /// Starts a builder seeded with the defaults (4 workers, capacity
    /// 1024, no deadline, `top_k = 1`, no delay, no cache).
    pub fn builder() -> FrontendOptionsBuilder {
        FrontendOptionsBuilder {
            opts: Self::default(),
        }
    }

    /// Validates an options value; shared by [`build`][b] and
    /// [`Frontend::start`] (which also guards in-crate literals).
    ///
    /// [b]: FrontendOptionsBuilder::build
    fn validate(&self) {
        assert!(self.workers >= 1, "need at least one worker thread");
        assert!(
            self.queue_capacity >= 1,
            "admission queue capacity must be ≥ 1"
        );
        assert!(self.top_k >= 1, "answers must keep at least one node");
        if let Some(d) = self.default_deadline {
            // Zero would expire every request at dequeue — backlog tests
            // that want that use a short-but-positive deadline instead.
            assert!(!d.is_zero(), "a default deadline must be positive");
        }
    }
}

/// Validating builder for [`FrontendOptions`] — the only way to construct
/// them outside this crate.
///
/// ```
/// use simpush::FrontendOptions;
/// use std::time::Duration;
///
/// let opts = FrontendOptions::builder()
///     .workers(2)
///     .queue_capacity(64)
///     .default_deadline(Some(Duration::from_millis(250)))
///     .top_k(3)
///     .build();
/// assert_eq!(opts.workers, 2);
/// ```
#[derive(Debug, Clone)]
pub struct FrontendOptionsBuilder {
    opts: FrontendOptions,
}

impl FrontendOptionsBuilder {
    /// Query worker threads (validated ≥ 1 at build).
    pub fn workers(mut self, workers: usize) -> Self {
        self.opts.workers = workers;
        self
    }

    /// Admission-queue capacity (validated ≥ 1 at build).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.opts.queue_capacity = capacity;
        self
    }

    /// Deadline applied to every request; `None` never expires. Validated
    /// positive at build.
    pub fn default_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.opts.default_deadline = deadline;
        self
    }

    /// How many top-scoring nodes each answer keeps (validated ≥ 1).
    pub fn top_k(mut self, top_k: usize) -> Self {
        self.opts.top_k = top_k;
        self
    }

    /// Fault-injection service delay (tests and smoke-scale scenarios).
    pub fn synthetic_service_delay(mut self, delay: Duration) -> Self {
        self.opts.synthetic_service_delay = delay;
        self
    }

    /// Attaches a shared hot-answer cache.
    pub fn cache(mut self, cache: Arc<AnswerCache>) -> Self {
        self.opts.cache = Some(cache);
        self
    }

    /// Validates and produces the options.
    ///
    /// # Panics
    /// Panics if `workers` or `queue_capacity` is 0, `top_k` is 0, or the
    /// deadline is zero.
    pub fn build(self) -> FrontendOptions {
        self.opts.validate();
        self.opts
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is full — shed load or retry later. This is the
    /// backpressure signal; it costs one failed `try_send`, no allocation,
    /// no worker time.
    Overloaded,
    /// The front-end has shut down; no request can be accepted.
    ShutDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded => write!(f, "admission queue full (overloaded)"),
            SubmitError::ShutDown => write!(f, "front-end has shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A successfully served request.
#[derive(Debug, Clone)]
pub struct FrontendResponse {
    /// The query node.
    pub node: NodeId,
    /// Epoch (single store) or consistent cut (sharded store) the answer
    /// was computed on — the replay handle: rebuilding this version's
    /// graph and re-running [`SimPush::query_seeded`] reproduces `top`
    /// bit for bit.
    pub epoch: u64,
    /// Time the request spent queued before a worker dequeued it.
    pub queue_wait: Duration,
    /// Time the worker spent answering (snapshot acquisition + query,
    /// plus any [synthetic delay](FrontendOptions::synthetic_service_delay)).
    pub service: Duration,
    /// Top-`k` similar nodes (per [`FrontendOptions::top_k`]).
    pub top: Vec<(NodeId, f64)>,
}

/// Terminal state of an accepted request: exactly one of these per ticket.
#[derive(Debug, Clone)]
pub enum QueryOutcome {
    /// The request was served; the response carries the replayable answer.
    Answered(FrontendResponse),
    /// The request's deadline had already passed when a worker dequeued
    /// it; it was dropped without being answered (and never will be).
    DeadlineMissed {
        /// The query node that expired.
        node: NodeId,
        /// How long the request sat in the queue before being dropped.
        queue_wait: Duration,
    },
    /// The worker serving this request died (panicked) before producing
    /// an answer. The request was not answered and never will be; the
    /// panic itself surfaces from [`Frontend::shutdown`]'s join. Exists
    /// so [`Ticket::wait`] can never hang on a worker failure.
    Failed {
        /// The query node whose service failed.
        node: NodeId,
    },
}

/// One-shot completion slot a worker fills exactly once.
#[derive(Debug)]
struct Slot {
    outcome: Mutex<Option<QueryOutcome>>,
    done: Condvar,
}

impl Slot {
    fn fill(&self, outcome: QueryOutcome) {
        let filled = self.fill_if_empty(outcome);
        assert!(
            filled,
            "frontend bug: a request resolved twice (answered after a miss, or vice versa)"
        );
    }

    /// Fills the slot unless it already resolved; returns whether this
    /// call was the one that resolved it. The tolerant path exists for
    /// the [`Request`] drop guard, which runs after a normal resolve too.
    fn fill_if_empty(&self, outcome: QueryOutcome) -> bool {
        let mut guard = self.outcome.lock().unwrap_or_else(|p| p.into_inner());
        if guard.is_some() {
            return false;
        }
        *guard = Some(outcome);
        drop(guard);
        self.done.notify_all();
        true
    }
}

/// Handle to one accepted request; resolves to exactly one
/// [`QueryOutcome`].
#[derive(Debug)]
pub struct Ticket {
    slot: Arc<Slot>,
}

impl Ticket {
    /// Blocks until the request resolves (answered, deadline-missed, or
    /// failed).
    ///
    /// Never hangs: shutdown drains the queue so every accepted request
    /// resolves before the workers exit, and a request abandoned by a
    /// panicking worker resolves to [`QueryOutcome::Failed`] via the
    /// request's drop guard.
    pub fn wait(self) -> QueryOutcome {
        let mut guard = self.slot.outcome.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            // Clone rather than take: a resolved slot stays resolved, so
            // the request's drop guard can never mistake a consumed slot
            // for an unresolved one.
            if let Some(outcome) = guard.as_ref() {
                return outcome.clone();
            }
            guard = self
                .slot
                .done
                .wait(guard)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// True once the request has resolved ([`wait`](Self::wait) would
    /// return immediately).
    pub fn is_done(&self) -> bool {
        self.slot
            .outcome
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .is_some()
    }
}

struct Request {
    node: NodeId,
    submitted_at: Instant,
    deadline: Option<Instant>,
    slot: Arc<Slot>,
}

impl Drop for Request {
    /// The no-hang backstop: if this request is dropped without having
    /// been resolved — a worker panicked between dequeue and fill, or the
    /// request never reached the queue — the ticket resolves to
    /// [`QueryOutcome::Failed`] instead of leaving a waiter blocked
    /// forever. After a normal resolve this is a no-op.
    fn drop(&mut self) {
        self.slot
            .fill_if_empty(QueryOutcome::Failed { node: self.node });
    }
}

#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    rejected: AtomicU64,
    answered: AtomicU64,
    deadline_misses: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    queue_depth: AtomicUsize,
    max_queue_depth: AtomicUsize,
    /// Per-interval queue-wait histogram, recorded at every dequeue and
    /// drained each controller tick.
    interval_sojourn: IntervalHistogram,
}

fn snapshot_stats(counters: &Counters) -> FrontendStats {
    // relaxed: monotone stat counters + advisory gauges; a snapshot
    // is inherently racy, no other memory depends on these values.
    let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
    let gauge = |c: &AtomicUsize| c.load(Ordering::Relaxed);
    FrontendStats {
        accepted: count(&counters.accepted),
        rejected: count(&counters.rejected),
        answered: count(&counters.answered),
        deadline_misses: count(&counters.deadline_misses),
        cache_hits: count(&counters.cache_hits),
        cache_misses: count(&counters.cache_misses),
        queue_depth: gauge(&counters.queue_depth),
        max_queue_depth: gauge(&counters.max_queue_depth),
    }
}

/// Read-only telemetry handle onto a front-end, cheap to clone and safe
/// to hold past the front-end's shutdown (it shares the counters by
/// `Arc`). This is what the [`Controller`](crate::control::Controller)
/// samples.
#[derive(Debug, Clone)]
pub struct FrontendObserver {
    counters: Arc<Counters>,
}

impl FrontendObserver {
    /// Reads the queue-depth gauge **and drains** the per-interval
    /// sojourn histogram — the controller's per-tick read.
    ///
    /// Draining consumes the interval: two concurrent samplers would
    /// split the samples between them, so run one controller per
    /// front-end.
    pub fn sample(&self) -> IntervalSample {
        IntervalSample {
            // relaxed: racy advisory gauge, see `Frontend::queue_depth`.
            queue_depth: self.counters.queue_depth.load(Ordering::Relaxed),
            sojourn: self.counters.interval_sojourn.drain(),
        }
    }
}

/// One [`FrontendObserver::sample`]: the queue depth plus the drained
/// sojourn histogram.
#[derive(Debug, Clone)]
pub struct IntervalSample {
    /// Requests queued at drain time (racy gauge).
    pub queue_depth: usize,
    /// Queue-wait distribution of the interval (everything dequeued).
    pub sojourn: HistogramSnapshot,
}

/// A point-in-time view of the front-end's admission/service counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontendStats {
    /// Requests accepted into the queue (each resolves exactly once).
    pub accepted: u64,
    /// Submissions rejected with [`SubmitError::Overloaded`].
    pub rejected: u64,
    /// Requests answered.
    pub answered: u64,
    /// Requests dropped at dequeue because their deadline had passed.
    pub deadline_misses: u64,
    /// Requests answered straight from the [`AnswerCache`] (no snapshot
    /// acquired, no query run). Always 0 without a configured cache.
    pub cache_hits: u64,
    /// Requests that probed the cache and had to compute. Always 0
    /// without a configured cache; `answered = cache_hits + cache_misses`
    /// when one is set.
    pub cache_misses: u64,
    /// Requests currently queued (racy gauge).
    pub queue_depth: usize,
    /// High-water mark of the queue depth since start. Measured at
    /// submission time, and a worker's dequeue decrements the gauge just
    /// after the queue slot actually frees — so under saturation this
    /// reads ≈ the configured capacity, and may exceed it by up to the
    /// number of concurrently in-flight submitters (it is a gauge of
    /// admission pressure, not an exact buffer-occupancy bound).
    pub max_queue_depth: usize,
}

impl FrontendStats {
    /// `cache_hits / (cache_hits + cache_misses)`; 0 when no cache was
    /// configured (or nothing was served yet).
    pub fn cache_hit_rate(&self) -> f64 {
        let probes = self.cache_hits + self.cache_misses;
        if probes == 0 {
            0.0
        } else {
            self.cache_hits as f64 / probes as f64
        }
    }
}

/// The serving front-end: admission queue + worker pool over a
/// [`SnapshotSource`]. See the [module docs](self) for the full model.
pub struct Frontend {
    tx: Option<channel::Sender<Request>>,
    workers: Vec<JoinHandle<()>>,
    counters: Arc<Counters>,
    quota: Arc<AdmissionQuota>,
    deadline: Option<Duration>,
    num_nodes: usize,
}

impl std::fmt::Debug for Frontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frontend")
            .field("workers", &self.workers.len())
            .field("deadline", &self.deadline)
            .field("admission_quota", &self.quota.get())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Frontend {
    /// Starts `opts.workers` query threads over `source` and returns the
    /// handle submissions go through.
    ///
    /// The engine's configuration is copied into every worker; per-request
    /// seeds are derived exactly like [`SimPush::query_seeded`], so
    /// front-end answers are bit-identical to direct seeded queries on the
    /// same snapshot, whatever worker served them.
    ///
    /// # Panics
    /// Panics if `opts.workers` or `opts.queue_capacity` is 0.
    pub fn start<S: SnapshotSource>(
        engine: &SimPush,
        source: Arc<S>,
        opts: FrontendOptions,
    ) -> Self {
        opts.validate();
        let (tx, rx) = channel::bounded::<Request>(opts.queue_capacity);
        let counters = Arc::new(Counters::default());
        let num_nodes = source.acquire().0.num_nodes();
        let mut workers = Vec::with_capacity(opts.workers);
        for _ in 0..opts.workers {
            let ctx = WorkerContext {
                rx: rx.clone(),
                engine: engine.clone(),
                counters: counters.clone(),
                top_k: opts.top_k,
                synthetic_delay: opts.synthetic_service_delay,
                cache: opts.cache.clone(),
            };
            let source = source.clone();
            workers.push(std::thread::spawn(move || {
                worker_loop(&*source, ctx);
            }));
        }
        Self {
            tx: Some(tx),
            workers,
            counters,
            quota: Arc::new(AdmissionQuota::new(opts.queue_capacity)),
            deadline: opts.default_deadline,
            num_nodes,
        }
    }

    /// The live admission quota every submission reads: set it (directly
    /// or via a [`Controller`](crate::control::Controller)) and the next
    /// submission is shed against it.
    pub fn admission_quota(&self) -> Arc<AdmissionQuota> {
        self.quota.clone()
    }

    /// A read-only telemetry handle (queue depth + sojourn histogram)
    /// that outlives the front-end — what a controller samples.
    pub fn observer(&self) -> FrontendObserver {
        FrontendObserver {
            counters: self.counters.clone(),
        }
    }

    /// The one submit routine behind [`try_submit`](Self::try_submit)
    /// and [`submit_timeout`](Self::submit_timeout): admit → gauge →
    /// quota → send → accept / reject / shut-down rollback. `patience` is
    /// how long the send may wait for a queue slot; `None` never blocks.
    fn submit(&self, node: NodeId, patience: Option<Duration>) -> Result<Ticket, SubmitError> {
        assert!(
            (node as usize) < self.num_nodes,
            "query node {node} out of range for graph with {} nodes",
            self.num_nodes
        );
        let submitted_at = Instant::now();
        let slot = Arc::new(Slot {
            outcome: Mutex::new(None),
            done: Condvar::new(),
        });
        let request = Request {
            node,
            submitted_at,
            deadline: self.deadline.map(|d| submitted_at + d),
            slot: slot.clone(),
        };
        let counters = &*self.counters;
        // The depth gauge must rise *before* the request becomes visible
        // to a worker (whose dequeue decrements it) — incrementing after a
        // successful send would race a fast worker into underflow. A
        // failed send takes the increment back.
        // relaxed: advisory gauge — admission is enforced by the bounded
        // channel itself, nothing synchronizes on this value.
        let depth = counters.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        // The live admission quota: when the depth at increment time
        // exceeds it, the submission is shed *before* touching the
        // channel — even the blocking submit, because a
        // controller-imposed quota exists precisely to stop cooperative
        // clients from queueing into an overloaded service.
        let sent = if self.quota.get().is_some_and(|quota| depth > quota) {
            Err(SubmitError::Overloaded)
        } else {
            let tx = self.tx.as_ref().expect("sender lives until shutdown");
            match patience {
                None => tx.try_send(request).map_err(|e| match e {
                    TrySendError::Full(_) => SubmitError::Overloaded,
                    TrySendError::Disconnected(_) => SubmitError::ShutDown,
                }),
                Some(patience) => tx.send_timeout(request, patience).map_err(|e| match e {
                    SendTimeoutError::Timeout(_) => SubmitError::Overloaded,
                    SendTimeoutError::Disconnected(_) => SubmitError::ShutDown,
                }),
            }
        };
        match sent {
            Ok(()) => {
                // relaxed: monotone stat counter, read only by advisory
                // stats snapshots.
                counters.accepted.fetch_add(1, Ordering::Relaxed);
                // relaxed: monotone high-water mark, advisory reads only —
                // recorded on *accepted* sends (a rejected probe must not
                // inflate it).
                counters.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
                Ok(Ticket { slot })
            }
            Err(e) => {
                // relaxed: advisory gauge rollback + monotone stat counter;
                // no other memory depends on either value.
                counters.queue_depth.fetch_sub(1, Ordering::Relaxed);
                if e == SubmitError::Overloaded {
                    counters.rejected.fetch_add(1, Ordering::Relaxed);
                }
                Err(e)
            }
        }
    }

    /// Submits a query without blocking, applying the default deadline.
    ///
    /// A full queue returns [`SubmitError::Overloaded`] immediately — the
    /// caller sheds the request (and typically counts it rejected) instead
    /// of queueing unbounded work.
    ///
    /// # Panics
    /// Panics if `node` is out of range for the backing store's graph.
    pub fn try_submit(&self, node: NodeId) -> Result<Ticket, SubmitError> {
        self.submit(node, None)
    }

    /// Submits a query, blocking up to `timeout` for queue space — the
    /// cooperative client that would rather wait briefly than be rejected.
    /// Timing out still counts as a rejection in [`FrontendStats`].
    ///
    /// # Panics
    /// Panics if `node` is out of range for the backing store's graph.
    pub fn submit_timeout(&self, node: NodeId, timeout: Duration) -> Result<Ticket, SubmitError> {
        self.submit(node, Some(timeout))
    }

    /// Requests currently queued (racy gauge; exact only at quiescence).
    pub fn queue_depth(&self) -> usize {
        // relaxed: racy advisory gauge, exactly as documented above.
        self.counters.queue_depth.load(Ordering::Relaxed)
    }

    /// Drives `keys` through the front-end **closed-loop**: `clients`
    /// threads each submit one request, wait for its outcome, then submit
    /// the next — the batch/bulk-client shape (and the capacity
    /// calibration the scenario matrix scales its offered loads from),
    /// as opposed to the open-loop arrival schedules of
    /// `simrank_eval::mixed::open_loop_arrivals`.
    ///
    /// Client `c` serves keys `c, c + clients, c + 2·clients, …`, so the
    /// returned vector lines up with `keys` index for index: each entry is
    /// the request's [`QueryOutcome`], or the [`SubmitError`] if admission
    /// failed within `submit_timeout` (a closed loop self-throttles, so
    /// with `clients ≤ queue capacity` and a generous timeout that arm is
    /// unreachable in practice — but a hung writer or a shut-down
    /// front-end still surfaces as data instead of a panic).
    ///
    /// # Panics
    /// Panics if `clients` is 0, or if any key is out of range for the
    /// backing store's graph (same contract as
    /// [`try_submit`](Self::try_submit)).
    pub fn run_closed_loop(
        &self,
        keys: &[NodeId],
        clients: usize,
        submit_timeout: Duration,
    ) -> Vec<Result<QueryOutcome, SubmitError>> {
        assert!(clients >= 1, "need at least one closed-loop client");
        let mut slots: Vec<Option<Result<QueryOutcome, SubmitError>>> = Vec::new();
        slots.resize_with(keys.len(), || None);
        std::thread::scope(|scope| {
            let mut rest = slots.as_mut_slice();
            let mut offset = 0usize;
            // Hand each client a strided view by repeatedly splitting off
            // the smallest remaining index — disjoint &mut slots without
            // any locking.
            let mut client_slots: Vec<Vec<(usize, &mut Option<_>)>> =
                (0..clients).map(|_| Vec::new()).collect();
            while !rest.is_empty() {
                let (head, tail) = rest.split_at_mut(1);
                client_slots[offset % clients].push((offset, &mut head[0]));
                rest = tail;
                offset += 1;
            }
            for mine in client_slots {
                scope.spawn(move || {
                    for (i, slot) in mine {
                        *slot = Some(match self.submit_timeout(keys[i], submit_timeout) {
                            Ok(ticket) => Ok(ticket.wait()),
                            Err(e) => Err(e),
                        });
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every key was assigned to a client"))
            .collect()
    }

    /// A snapshot of the admission/service counters.
    pub fn stats(&self) -> FrontendStats {
        snapshot_stats(&self.counters)
    }

    /// Stops accepting requests, drains the queue (every accepted request
    /// resolves — answered or deadline-missed), joins the workers and
    /// returns the final stats.
    pub fn shutdown(mut self) -> FrontendStats {
        self.shutdown_in_place();
        self.stats()
    }

    fn shutdown_in_place(&mut self) {
        // Dropping the only sender disconnects the channel; workers drain
        // what is buffered, then their `recv` errors out and they exit.
        drop(self.tx.take());
        let mut worker_panicked = false;
        for handle in self.workers.drain(..) {
            worker_panicked |= handle.join().is_err();
        }
        // Surface a worker panic — but never from inside an unwind (a
        // panic-in-drop while already panicking aborts the process, and
        // the original panic is the interesting one anyway). Any request
        // the dead worker abandoned has already resolved to
        // `QueryOutcome::Failed` via its drop guard.
        if worker_panicked && !std::thread::panicking() {
            panic!("frontend worker panicked");
        }
    }
}

impl Drop for Frontend {
    /// Same contract as [`shutdown`](Self::shutdown): drain, then join.
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Everything one worker thread owns, bundled so spawning stays readable.
struct WorkerContext {
    rx: channel::Receiver<Request>,
    engine: SimPush,
    counters: Arc<Counters>,
    top_k: usize,
    synthetic_delay: Duration,
    cache: Option<Arc<AnswerCache>>,
}

/// Answers `node` on `g` under the per-request derived seed and keeps the
/// top `k` — generic so the cached path can run it on a [`SupportTracer`]
/// and the uncached path on the bare snapshot.
fn answer<G: GraphView>(
    ctx: &WorkerContext,
    g: &G,
    node: NodeId,
    ws: &mut QueryWorkspace,
) -> Vec<(NodeId, f64)> {
    ctx.engine.query_seeded_with(g, node, ws).top_k(ctx.top_k)
}

fn worker_loop<S: SnapshotSource + ?Sized>(source: &S, ctx: WorkerContext) {
    let counters = &*ctx.counters;
    let mut ws = QueryWorkspace::new();
    let fingerprint = ctx.engine.config().fingerprint();
    // Fast-path reacquire state: the snapshot served last, tagged with
    // its version. While the store's lock-free version hint matches, the
    // worker reuses it instead of paying the read lock + `Arc` clone.
    let mut held: Option<(Arc<S::View>, u64)> = None;
    // A bare `recv`: requests wake it, and shutdown is the channel
    // disconnect, after the buffered requests have drained.
    while let Ok(request) = ctx.rx.recv() {
        // relaxed: advisory gauge decrement (see `Frontend::submit`).
        counters.queue_depth.fetch_sub(1, Ordering::Relaxed);
        let dequeued_at = Instant::now();
        let queue_wait = dequeued_at.duration_since(request.submitted_at);
        // Sojourn telemetry covers *everything* dequeued — answered or
        // expired — because queue aging is exactly what the controller
        // needs to see.
        counters.interval_sojourn.record(queue_wait);
        if let Some(deadline) = request.deadline {
            if dequeued_at > deadline {
                // relaxed: monotone stat counter, advisory reads only.
                counters.deadline_misses.fetch_add(1, Ordering::Relaxed);
                request.slot.fill(QueryOutcome::DeadlineMissed {
                    node: request.node,
                    queue_wait,
                });
                continue;
            }
        }
        let service_start = Instant::now();
        if !ctx.synthetic_delay.is_zero() {
            std::thread::sleep(ctx.synthetic_delay);
        }
        let hint = source.version_hint();
        let key = CacheKey {
            node: request.node,
            top_k: ctx.top_k,
            fingerprint,
        };
        let hit = ctx.cache.as_deref().and_then(|cache| {
            let hit = cache.lookup(&key, hint);
            let probes = match hit {
                Some(_) => &counters.cache_hits,
                None => &counters.cache_misses,
            };
            // relaxed: monotone stat counter, advisory reads only.
            probes.fetch_add(1, Ordering::Relaxed);
            hit
        });
        let (epoch, top, service) = match hit {
            // Served without touching the store: no snapshot, no query.
            // The response's epoch is the one the answer was *computed*
            // at, preserving the replay contract.
            Some(hit) => (hit.computed_epoch, hit.top, service_start.elapsed()),
            None => {
                if !matches!(&held, Some((_, version)) if *version == hint) {
                    held = Some(source.acquire());
                }
                let (snap, epoch) = held.as_ref().map(|(s, v)| (s, *v)).expect("just acquired");
                let (top, service) = match ctx.cache.as_deref() {
                    Some(cache) => {
                        let tracer = SupportTracer::new(&**snap);
                        let top = answer(&ctx, &tracer, request.node, &mut ws);
                        let support = tracer.take_support();
                        // The insert is not part of the service time.
                        let service = service_start.elapsed();
                        cache.insert(key, epoch, support, top.clone());
                        (top, service)
                    }
                    None => {
                        let top = answer(&ctx, &**snap, request.node, &mut ws);
                        (top, service_start.elapsed())
                    }
                };
                (epoch, top, service)
            }
        };
        // relaxed: monotone stat counter, advisory reads only.
        counters.answered.fetch_add(1, Ordering::Relaxed);
        request.slot.fill(QueryOutcome::Answered(FrontendResponse {
            node: request.node,
            epoch,
            queue_wait,
            service,
            top,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Config;
    use simrank_graph::{gen, GraphUpdate, RangePartitioner};

    fn options(workers: usize, cap: usize) -> FrontendOptionsBuilder {
        FrontendOptions::builder()
            .workers(workers)
            .queue_capacity(cap)
    }

    #[test]
    fn answers_match_direct_seeded_queries_on_a_quiescent_store() {
        // Once over the in-RAM CSR, once over a disk-backed store written
        // from it: the storage tier sits below `SnapshotSource`, so both
        // serve the direct answers on the RAM CSR.
        use simrank_graph::storage::{write_disk_graph, DiskGraph, DiskGraphOptions};
        let g = gen::gnm(150, 700, 5);
        let path = std::env::temp_dir().join("simpush-frontend-quiescent-test.srgd");
        write_disk_graph(&g, &path, 1024).unwrap();
        let disk = DiskGraph::open_mem(&path, DiskGraphOptions::default()).unwrap();
        let engine = SimPush::new(Config::new(0.05));
        let queries: Vec<NodeId> = (0..20).map(|i| (i * 17) % 150).collect();
        for store in [GraphStore::new(g.clone()), GraphStore::open_disk(disk)] {
            let frontend =
                Frontend::start(&engine, Arc::new(store), options(3, 64).top_k(3).build());
            let tickets: Vec<Ticket> = queries
                .iter()
                .map(|&u| frontend.try_submit(u).expect("queue has space"))
                .collect();
            for (ticket, &u) in tickets.into_iter().zip(&queries) {
                match ticket.wait() {
                    QueryOutcome::Answered(r) => {
                        assert_eq!(r.node, u);
                        assert_eq!(r.epoch, 0);
                        let solo = engine.query_seeded(&g, u);
                        assert_eq!(r.top, solo.top_k(3), "u={u}");
                    }
                    other => panic!("no deadline set, expected an answer: {other:?}"),
                }
            }
            let stats = frontend.shutdown();
            assert_eq!(stats.accepted, 20);
            assert_eq!(stats.answered, 20);
            assert_eq!(stats.rejected, 0);
            assert_eq!(stats.deadline_misses, 0);
            assert_eq!(stats.queue_depth, 0);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sharded_source_reports_cuts_and_matches_direct_queries() {
        let base = gen::gnm(120, 500, 9);
        let store = Arc::new(ShardedStore::new(&base, RangePartitioner::new(120, 3)));
        store.commit(&[GraphUpdate::Insert(0, 119), GraphUpdate::Insert(1, 118)]);
        let engine = SimPush::new(Config::new(0.05));
        let frontend = Frontend::start(&engine, store.clone(), options(2, 16).build());
        let ticket = frontend.try_submit(42).unwrap();
        match ticket.wait() {
            QueryOutcome::Answered(r) => {
                assert_eq!(r.epoch, 1, "one commit ⇒ cut 1");
                let solo = engine.query_seeded(&*store.snapshot(), 42);
                assert_eq!(r.top, solo.top_k(1));
            }
            other => panic!("no deadline set, expected an answer: {other:?}"),
        }
        frontend.shutdown();
    }

    #[test]
    fn full_queue_rejects_with_overloaded_and_counts_it() {
        // One worker stuck on a long synthetic delay; capacity 2. The
        // first request occupies the worker, two more fill the queue, and
        // whichever door the fourth comes through — the reject arm of the
        // one submit routine — it must bounce, be counted once and leave
        // the depth gauge where it was. The blocking door gives up well
        // inside the synthetic delay, so the queue is still full.
        type Door = fn(&Frontend, NodeId) -> Result<Ticket, SubmitError>;
        let doors: [(&str, Door); 2] = [
            ("try_submit", |f, u| f.try_submit(u)),
            ("submit_timeout", |f, u| {
                f.submit_timeout(u, Duration::from_millis(5))
            }),
        ];
        for (name, door) in doors {
            let store = Arc::new(GraphStore::new(gen::gnm(50, 200, 1)));
            let engine = SimPush::new(Config::new(0.05));
            let frontend = Frontend::start(
                &engine,
                store,
                options(1, 2)
                    .synthetic_service_delay(Duration::from_millis(100))
                    .build(),
            );
            let mut tickets = vec![occupy_worker(&frontend)];
            tickets.push(frontend.try_submit(1).unwrap());
            tickets.push(frontend.try_submit(2).unwrap());
            assert!(
                matches!(door(&frontend, 3), Err(SubmitError::Overloaded)),
                "{name}"
            );
            let stats = frontend.stats();
            assert_eq!(stats.rejected, 1, "{name}");
            assert_eq!(stats.accepted, 3, "{name}");
            assert_eq!(stats.queue_depth, 2, "{name}: the reject rolled back");
            assert_eq!(stats.max_queue_depth, 2, "{name}");
            for ticket in tickets {
                assert!(matches!(ticket.wait(), QueryOutcome::Answered(_)));
            }
            frontend.shutdown();
        }
    }

    #[test]
    fn delayed_worker_turns_queued_requests_into_deadline_misses() {
        // The deterministic deadline scenario: a single worker is held for
        // 60 ms per request (synthetic delay), every request carries a
        // 15 ms deadline. The first request is dequeued immediately (wait
        // ≈ 0 < 15 ms) and answered; the two behind it age ≥ 60 ms in the
        // queue, so both are dropped at dequeue — recorded as misses,
        // never answered, each ticket resolving exactly once (Slot::fill
        // panics the worker on a double resolve, which shutdown's join
        // would surface).
        let store = Arc::new(GraphStore::new(gen::gnm(60, 240, 2)));
        let engine = SimPush::new(Config::new(0.05));
        let frontend = Frontend::start(
            &engine,
            store,
            options(1, 8)
                .default_deadline(Some(Duration::from_millis(15)))
                .synthetic_service_delay(Duration::from_millis(60))
                .build(),
        );
        let first = occupy_worker(&frontend);
        let second = frontend.try_submit(2).unwrap();
        let third = frontend.try_submit(3).unwrap();

        // The synthetic delay counts as service time.
        assert!(matches!(first.wait(),
            QueryOutcome::Answered(r) if r.service >= Duration::from_millis(60)));
        for (ticket, node) in [(second, 2), (third, 3)] {
            match ticket.wait() {
                QueryOutcome::DeadlineMissed {
                    node: missed,
                    queue_wait,
                } => {
                    assert_eq!(missed, node);
                    assert!(
                        queue_wait >= Duration::from_millis(15),
                        "missed before its deadline: {queue_wait:?}"
                    );
                }
                other => panic!("request {node} should have expired, got {other:?}"),
            }
        }
        let stats = frontend.shutdown();
        assert_eq!(stats.answered, 1);
        assert_eq!(stats.deadline_misses, 2);
        assert_eq!(stats.accepted, 3);
    }

    #[test]
    fn worker_panic_resolves_the_ticket_as_failed_and_surfaces_at_shutdown() {
        // A source whose snapshot acquisition panics after the probe call
        // Frontend::start makes — so the single worker dies mid-request.
        // The no-hang contract: the ticket must still resolve (Failed),
        // and the panic must surface from shutdown's join rather than
        // hanging or aborting.
        struct ExplodingSource {
            inner: GraphStore,
            calls: AtomicU64,
        }
        impl SnapshotSource for ExplodingSource {
            type View = GraphSnapshot;
            fn acquire(&self) -> (Arc<GraphSnapshot>, u64) {
                if self.calls.fetch_add(1, Ordering::Relaxed) > 0 {
                    panic!("injected snapshot failure");
                }
                self.inner.acquire()
            }
            fn version_hint(&self) -> u64 {
                // Never matches a held snapshot, so every request
                // reacquires (and the second acquire explodes).
                u64::MAX
            }
        }
        let source = Arc::new(ExplodingSource {
            inner: GraphStore::new(gen::gnm(30, 120, 1)),
            calls: AtomicU64::new(0),
        });
        let engine = SimPush::new(Config::new(0.05));
        let frontend = Frontend::start(&engine, source, options(1, 4).build());
        let ticket = frontend.try_submit(5).unwrap();
        match ticket.wait() {
            QueryOutcome::Failed { node } => assert_eq!(node, 5),
            other => panic!("expected Failed, got {other:?}"),
        }
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            frontend.shutdown();
        }));
        assert!(caught.is_err(), "shutdown must surface the worker panic");
    }

    #[test]
    fn cached_repeat_queries_hit_and_stay_bit_identical() {
        use crate::answer_cache::{AnswerCache, AnswerCacheOptions};
        let store = Arc::new(GraphStore::new(gen::gnm(100, 400, 5)));
        let engine = SimPush::new(Config::new(0.05));
        let cache = Arc::new(AnswerCache::new(AnswerCacheOptions::default()));
        let frontend = Frontend::start(
            &engine,
            store.clone(),
            options(1, 16).top_k(3).cache(cache.clone()).build(),
        );
        let first = match frontend.try_submit(7).unwrap().wait() {
            QueryOutcome::Answered(r) => r,
            other => panic!("expected an answer: {other:?}"),
        };
        let second = match frontend.try_submit(7).unwrap().wait() {
            QueryOutcome::Answered(r) => r,
            other => panic!("expected an answer: {other:?}"),
        };
        assert_eq!(first.top, second.top, "cache hit replays the answer");
        assert_eq!(second.epoch, 0, "hit advertises the computed epoch");
        let solo = engine.query_seeded(&*store.snapshot(), 7);
        assert_eq!(first.top, solo.top_k(3), "cached path is bit-identical");
        let stats = frontend.shutdown();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.answered, 2);
        assert_eq!(stats.cache_hit_rate(), 0.5);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn publish_notification_invalidates_touched_answers_and_promotes_the_rest() {
        use crate::answer_cache::{AnswerCache, AnswerCacheOptions};
        // Two far-apart stars so their query support sets are disjoint.
        let mut edges = Vec::new();
        for leaf in 1..=6u32 {
            edges.push((leaf, 0)); // star into node 0
            edges.push((100 + leaf, 100)); // star into node 100
        }
        let base = simrank_graph::GraphBuilder::new()
            .with_num_nodes(200)
            .with_edges(edges)
            .build();
        let store = Arc::new(GraphStore::new(base));
        let engine = SimPush::new(Config::new(0.05));
        let cache = Arc::new(AnswerCache::new(AnswerCacheOptions::default()));
        let frontend = Frontend::start(
            &engine,
            store.clone(),
            options(1, 16).top_k(3).cache(cache.clone()).build(),
        );
        // Warm both keys at epoch 0.
        let warm0 = match frontend.try_submit(0).unwrap().wait() {
            QueryOutcome::Answered(r) => r,
            other => panic!("{other:?}"),
        };
        assert!(matches!(
            frontend.try_submit(100).unwrap().wait(),
            QueryOutcome::Answered(_)
        ));
        // An update inside node 0's neighbourhood; node 100's star is
        // untouched.
        let (_, info) = store.commit(&[GraphUpdate::Insert(7, 0)]);
        cache.on_publish(info.epoch, &info.touched);
        let re0 = match frontend.try_submit(0).unwrap().wait() {
            QueryOutcome::Answered(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(re0.epoch, 1, "touched key recomputed at the new epoch");
        let solo = engine.query_seeded(&*store.snapshot(), 0);
        assert_eq!(re0.top, solo.top_k(3));
        let re100 = match frontend.try_submit(100).unwrap().wait() {
            QueryOutcome::Answered(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            re100.epoch, 0,
            "untouched key still serves its promoted epoch-0 answer"
        );
        let stats = frontend.shutdown();
        assert_eq!(stats.cache_hits, 1, "only the untouched key hit");
        assert_eq!(stats.cache_misses, 3);
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(warm0.epoch, 0);
    }

    #[test]
    fn staleness_bound_keeps_serving_during_churn() {
        use crate::answer_cache::{AnswerCache, AnswerCacheOptions};
        let store = Arc::new(GraphStore::new(gen::gnm(80, 320, 6)));
        let engine = SimPush::new(Config::new(0.05));
        let cache = Arc::new(AnswerCache::new(AnswerCacheOptions {
            max_stale_epochs: 8,
            ..AnswerCacheOptions::default()
        }));
        let frontend = Frontend::start(
            &engine,
            store.clone(),
            options(1, 16).cache(cache.clone()).build(),
        );
        assert!(matches!(
            frontend.try_submit(3).unwrap().wait(),
            QueryOutcome::Answered(_)
        ));
        // Churn likely touching the whole neighbourhood; within the
        // staleness bound the cached answer keeps serving.
        let (_, info) = store.commit(&[GraphUpdate::Insert(3, 50), GraphUpdate::Insert(50, 3)]);
        cache.on_publish(info.epoch, &info.touched);
        let stale = match frontend.try_submit(3).unwrap().wait() {
            QueryOutcome::Answered(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(stale.epoch, 0, "stale hit replays the epoch-0 answer");
        let stats = frontend.shutdown();
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn shutdown_drains_every_accepted_request() {
        let store = Arc::new(GraphStore::new(gen::gnm(80, 320, 4)));
        let engine = SimPush::new(Config::new(0.05));
        let frontend = Frontend::start(&engine, store, options(2, 64).build());
        let tickets: Vec<Ticket> = (0..30u32)
            .map(|i| frontend.try_submit(i % 80).unwrap())
            .collect();
        // Shut down immediately — most requests are still queued; all of
        // them must still resolve.
        let stats = frontend.shutdown();
        assert_eq!(stats.accepted, 30);
        assert_eq!(stats.answered + stats.deadline_misses, 30);
        assert_eq!(stats.queue_depth, 0);
        for ticket in tickets {
            assert!(ticket.is_done(), "shutdown left a ticket unresolved");
            assert!(matches!(ticket.wait(), QueryOutcome::Answered(_)));
        }
    }

    #[test]
    fn submit_timeout_waits_for_a_slot() {
        let store = Arc::new(GraphStore::new(gen::gnm(40, 160, 3)));
        let engine = SimPush::new(Config::new(0.05));
        let frontend = Frontend::start(
            &engine,
            store,
            options(1, 1)
                .synthetic_service_delay(Duration::from_millis(20))
                .build(),
        );
        // Saturate: one in service, one queued.
        let a = occupy_worker(&frontend);
        let b = frontend.try_submit(1).unwrap();
        assert!(matches!(
            frontend.try_submit(2),
            Err(SubmitError::Overloaded)
        ));
        // A blocking submit outlasts the ~20 ms the worker needs to free a
        // slot.
        let c = frontend.submit_timeout(3, Duration::from_secs(5)).unwrap();
        for ticket in [a, b, c] {
            assert!(matches!(ticket.wait(), QueryOutcome::Answered(_)));
        }
        frontend.shutdown();
    }

    #[test]
    fn closed_loop_outcomes_line_up_with_keys_and_match_direct_queries() {
        let store = Arc::new(GraphStore::new(gen::gnm(90, 400, 6)));
        let engine = SimPush::new(Config::new(0.05));
        let frontend = Frontend::start(&engine, store.clone(), options(2, 8).build());
        let keys: Vec<NodeId> = (0..25).map(|i| (i * 13) % 90).collect();
        let outcomes = frontend.run_closed_loop(&keys, 3, Duration::from_secs(30));
        assert_eq!(outcomes.len(), keys.len());
        let snap = store.snapshot();
        for (outcome, &u) in outcomes.iter().zip(&keys) {
            match outcome {
                Ok(QueryOutcome::Answered(r)) => {
                    assert_eq!(r.node, u, "outcome order drifted from key order");
                    let solo = engine.query_seeded(&*snap, u);
                    assert_eq!(r.top, solo.top_k(1), "u={u}");
                }
                other => panic!("quiescent store, no deadline: {other:?}"),
            }
        }
        let stats = frontend.shutdown();
        assert_eq!(stats.accepted, 25);
        assert_eq!(stats.answered, 25);
        assert_eq!(stats.rejected, 0, "a closed loop never overruns the queue");
    }

    #[test]
    fn closed_loop_with_more_clients_than_keys_still_covers_everything() {
        let store = Arc::new(GraphStore::new(gen::gnm(20, 80, 2)));
        let engine = SimPush::new(Config::new(0.05));
        let frontend = Frontend::start(&engine, store, options(2, 16).build());
        let outcomes = frontend.run_closed_loop(&[3, 7], 8, Duration::from_secs(30));
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, Ok(QueryOutcome::Answered(_)))));
        assert!(frontend
            .run_closed_loop(&[], 4, Duration::from_secs(1))
            .is_empty());
        frontend.shutdown();
    }

    #[test]
    #[should_panic(expected = "at least one closed-loop client")]
    fn closed_loop_rejects_zero_clients() {
        let store = Arc::new(GraphStore::new(gen::gnm(10, 30, 1)));
        let engine = SimPush::new(Config::new(0.05));
        let frontend = Frontend::start(&engine, store, options(1, 4).build());
        frontend.run_closed_loop(&[1], 0, Duration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_nodes_at_submission() {
        let store = Arc::new(GraphStore::new(gen::gnm(10, 30, 1)));
        let engine = SimPush::new(Config::new(0.05));
        let frontend = Frontend::start(&engine, store, options(1, 4).build());
        let _ = frontend.try_submit(10);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn rejects_zero_workers() {
        let store = Arc::new(GraphStore::new(gen::gnm(10, 30, 1)));
        let engine = SimPush::new(Config::new(0.05));
        Frontend::start(&engine, store, options(0, 4).build());
    }

    #[test]
    #[should_panic(expected = "queue capacity must be")]
    fn builder_rejects_zero_capacity() {
        let _ = options(1, 0).build();
    }

    #[test]
    #[should_panic(expected = "deadline must be positive")]
    fn builder_rejects_zero_deadline() {
        let _ = options(1, 4).default_deadline(Some(Duration::ZERO)).build();
    }

    /// Parks the single worker on a long synthetic delay and returns once
    /// the queue gauge shows the first request was dequeued, so queue
    /// occupancy is deterministic for what the test submits next.
    fn occupy_worker(frontend: &Frontend) -> Ticket {
        let ticket = frontend.try_submit(0).unwrap();
        let t = Instant::now();
        while frontend.queue_depth() > 0 {
            assert!(t.elapsed() < Duration::from_secs(5), "worker never started");
            std::thread::yield_now();
        }
        ticket
    }

    #[test]
    fn admission_quota_sheds_submissions_the_channel_would_accept() {
        let store = Arc::new(GraphStore::new(gen::gnm(50, 200, 1)));
        let engine = SimPush::new(Config::new(0.05));
        let frontend = Frontend::start(
            &engine,
            store,
            options(1, 16)
                .synthetic_service_delay(Duration::from_millis(60))
                .build(),
        );
        assert_eq!(frontend.admission_quota().set(Some(1)), Some(1));
        let first = occupy_worker(&frontend);
        // Depth 1 is within quota; depth 2 exceeds it even though the
        // 16-slot channel has plenty of room.
        let second = frontend.try_submit(1).unwrap();
        assert!(matches!(
            frontend.try_submit(2),
            Err(SubmitError::Overloaded)
        ));
        // The blocking submit is shed too — a quota exists to stop
        // cooperative clients from queueing into an overloaded service.
        assert!(matches!(
            frontend.submit_timeout(3, Duration::from_secs(5)),
            Err(SubmitError::Overloaded)
        ));
        for t in [first, second] {
            assert!(matches!(t.wait(), QueryOutcome::Answered(_)));
        }
        let stats = frontend.shutdown();
        assert_eq!(stats.rejected, 2);
        assert_eq!(stats.accepted, 2);
    }

    #[test]
    fn observer_sample_drains_the_interval_histograms() {
        let store = Arc::new(GraphStore::new(gen::gnm(80, 320, 4)));
        let engine = SimPush::new(Config::new(0.05));
        let frontend = Frontend::start(&engine, store, options(2, 32).build());
        let observer = frontend.observer();
        let outcomes = frontend.run_closed_loop(
            &(0..12).collect::<Vec<NodeId>>(),
            2,
            Duration::from_secs(30),
        );
        assert_eq!(outcomes.len(), 12);
        let sample = observer.sample();
        assert_eq!(sample.queue_depth, 0, "a closed loop leaves nothing queued");
        assert_eq!(sample.sojourn.count, 12, "every dequeue records sojourn");
        assert!(sample.sojourn.percentile(99).is_some());
        // The drain consumed the interval.
        assert_eq!(observer.sample().sojourn.count, 0);
        // The observer outlives the front-end.
        frontend.shutdown();
        assert_eq!(observer.sample().queue_depth, 0);
    }
}
