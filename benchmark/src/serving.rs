//! The three serving workloads: a `Frontend` with one worker over a
//! `GraphStore` or a `ShardedStore`, one closed-loop client and one paced
//! writer.

use crate::check::{same_answer, Replayer};
use crate::gen::{derive, distinct_below, KeyStream, SplitMix64};
use crate::host::{self, HostDelta, HostSnapshot};
use crate::report::Report;
use crate::spec::{
    WorkloadSpec, CACHE_CAPACITY, CACHE_MAX_STALE_EPOCHS, CACHE_SHARDS, CHECKED_ANSWERS,
    COMPACTION_THRESHOLD, DEADLINE, QUEUE_CAPACITY, SHARDS, TOP_K,
};
use crate::stats::{self, Sample};
use crate::trace::Tracer;
use simrank_suite::graph::{
    CsrGraph, GraphStore, GraphUpdate, GraphView, RangePartitioner, ShardedStore,
};
use simrank_suite::simpush::answer_cache::{AnswerCache, AnswerCacheOptions};
use simrank_suite::simpush::frontend::{
    Frontend, FrontendOptions, FrontendResponse, FrontendStats, QueryOutcome, SnapshotSource,
};
use simrank_suite::simpush::SimPush;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one commit made visible.
#[derive(Debug)]
pub struct Committed {
    pub effective: usize,
    /// Epoch of a `GraphStore`, consistent cut of a `ShardedStore`.
    pub version: u64,
    pub touched: Vec<u32>,
    /// Time this commit spent compacting, where the store reports it.
    pub compaction: Option<Duration>,
}

/// The two stores behind one writer and one front-end.
pub trait Store: SnapshotSource {
    const IS_SHARDED: bool;
    fn build(base: CsrGraph) -> Self;
    fn commit_batch(&self, batch: &[GraphUpdate]) -> Committed;
    /// [`commit_batch`](Self::commit_batch) with a span around each public
    /// call it is made of.
    fn commit_traced(&self, batch: &[GraphUpdate], tracer: &mut Tracer, request: u32) -> Committed;
    fn compaction_totals(&self) -> (u64, Duration);
}

fn committed(effective: usize, info: simrank_suite::graph::PublishInfo) -> Committed {
    Committed {
        effective,
        version: info.epoch,
        touched: info.touched,
        compaction: info.compacted.then_some(info.compaction_time),
    }
}

impl Store for GraphStore {
    const IS_SHARDED: bool = false;

    fn build(base: CsrGraph) -> Self {
        GraphStore::with_compaction_threshold(base, COMPACTION_THRESHOLD)
    }

    fn commit_batch(&self, batch: &[GraphUpdate]) -> Committed {
        let (effective, info) = self.commit(batch);
        committed(effective, info)
    }

    fn commit_traced(&self, batch: &[GraphUpdate], tracer: &mut Tracer, request: u32) -> Committed {
        let effective = tracer.span("store.apply", request, || self.apply(batch));
        let info = tracer.span("store.publish", request, || self.publish());
        committed(effective, info)
    }

    fn compaction_totals(&self) -> (u64, Duration) {
        (self.compactions(), self.compaction_time())
    }
}

pub type Sharded = ShardedStore<RangePartitioner>;

impl Store for Sharded {
    const IS_SHARDED: bool = true;

    fn build(base: CsrGraph) -> Self {
        let partitioner = RangePartitioner::new(base.num_nodes(), SHARDS);
        ShardedStore::with_compaction_threshold(&base, partitioner, COMPACTION_THRESHOLD)
    }

    fn commit_batch(&self, batch: &[GraphUpdate]) -> Committed {
        let (effective, info) = self.commit(batch);
        Committed {
            effective,
            version: info.cut,
            touched: info.touched,
            compaction: None,
        }
    }

    fn commit_traced(&self, batch: &[GraphUpdate], tracer: &mut Tracer, request: u32) -> Committed {
        tracer.span("sharded.commit", request, || self.commit_batch(batch))
    }

    fn compaction_totals(&self) -> (u64, Duration) {
        (self.compactions(), self.compaction_time())
    }
}

pub fn new_cache() -> Arc<AnswerCache> {
    Arc::new(AnswerCache::new(AnswerCacheOptions {
        capacity: CACHE_CAPACITY,
        shards: CACHE_SHARDS,
        max_stale_epochs: CACHE_MAX_STALE_EPOCHS,
    }))
}

/// One commit as the writer saw it; entry `i` belongs to batch `i`.
#[derive(Debug, Clone, Copy)]
pub struct LogEntry {
    pub version: u64,
    pub published_at: Instant,
    /// `commit` plus, with a cache, `on_publish`: what it costs to make the
    /// batch visible.
    pub latency: Duration,
    pub compaction: Option<Duration>,
    pub all_effective: bool,
}

/// A commit and the batch it made visible.
pub type Commit<'a> = (LogEntry, &'a [GraphUpdate]);

pub fn commit_logged<S: Store>(
    store: &S,
    cache: Option<&AnswerCache>,
    batch: &[GraphUpdate],
) -> LogEntry {
    let t = Instant::now();
    let c = store.commit_batch(batch);
    if let Some(cache) = cache {
        cache.on_publish(c.version, &c.touched);
    }
    LogEntry {
        version: c.version,
        latency: t.elapsed(),
        published_at: Instant::now(),
        compaction: c.compaction,
        all_effective: c.effective == batch.len(),
    }
}

/// The system under test of a serving workload, set up and warm.
pub struct Serving<S: Store> {
    pub store: Arc<S>,
    pub cache: Option<Arc<AnswerCache>>,
    pub frontend: Frontend,
    pub initial: LogEntry,
}

/// Everything between a base graph and the first timed request: store (or
/// shard) build, the initial removal of half the toggle pool, the cache,
/// `Frontend::start` and the fixed warm-up requests. Returns how many
/// warm-up requests were not answered.
pub fn set_up<S: Store>(
    base: CsrGraph,
    spec: &WorkloadSpec,
    engine: &SimPush,
    initial: &[GraphUpdate],
    warm_keys: &[u32],
) -> (Serving<S>, Duration, u64) {
    let t = Instant::now();
    let store = Arc::new(S::build(base));
    let cache = spec.cache.then(new_cache);
    let first = commit_logged(&*store, cache.as_deref(), initial);
    let mut opts = FrontendOptions::builder()
        .workers(1)
        .queue_capacity(QUEUE_CAPACITY)
        .default_deadline(Some(DEADLINE))
        .top_k(TOP_K);
    if let Some(cache) = &cache {
        opts = opts.cache(cache.clone());
    }
    let frontend = Frontend::start(engine, store.clone(), opts.build());
    let mut unanswered = 0;
    for &u in warm_keys {
        let answered = frontend
            .submit_timeout(u, Duration::from_secs(1))
            .is_ok_and(|ticket| matches!(ticket.wait(), QueryOutcome::Answered(_)));
        unanswered += u64::from(!answered);
    }
    let serving = Serving {
        store,
        cache,
        frontend,
        initial: first,
    };
    (serving, t.elapsed(), unanswered)
}

/// One answered request of the timed window.
#[derive(Debug)]
pub struct Answer {
    /// Seconds into the window at which the request was sent.
    pub start_s: f64,
    pub submitted_at: Instant,
    /// Submit → reply at the client.
    pub latency: Duration,
    pub response: FrontendResponse,
}

impl Answer {
    /// When the worker took the request off the queue.
    fn dequeued_at(&self) -> Instant {
        self.submitted_at + self.response.queue_wait
    }
}

#[derive(Debug, Default)]
pub struct ClientOutcome {
    pub answers: Vec<Answer>,
    pub attempted: u64,
    /// Rejected, deadline-missed, failed or cancelled.
    pub unanswered: u64,
}

/// One client that keeps `burst` requests in flight: it submits that many,
/// waits for every reply in submission order (the one worker answers in that
/// order too), and starts over.
fn closed_loop(
    frontend: &Frontend,
    mut next_key: impl FnMut() -> u32,
    burst: usize,
    t0: Instant,
    seconds: f64,
) -> ClientOutcome {
    let mut out = ClientOutcome::default();
    let end = t0 + Duration::from_secs_f64(seconds);
    let mut pending = Vec::with_capacity(burst);
    while Instant::now() < end {
        for _ in 0..burst {
            let submitted_at = Instant::now();
            out.attempted += 1;
            match frontend.submit_timeout(next_key(), Duration::from_secs(1)) {
                Ok(ticket) => pending.push((submitted_at, ticket)),
                Err(_) => out.unanswered += 1,
            }
        }
        for (submitted_at, ticket) in pending.drain(..) {
            match ticket.wait() {
                QueryOutcome::Answered(response) => out.answers.push(Answer {
                    start_s: (submitted_at - t0).as_secs_f64(),
                    submitted_at,
                    latency: submitted_at.elapsed(),
                    response,
                }),
                _ => out.unanswered += 1,
            }
        }
    }
    out
}

/// Commits batch `i` at `t0 + i·period` until told to stop or out of
/// batches. An overrunning commit makes the next one late, never skipped.
fn writer_loop<S: Store>(
    store: &S,
    cache: Option<&AnswerCache>,
    batches: &[Vec<GraphUpdate>],
    period: Duration,
    t0: Instant,
    stop: &AtomicBool,
) -> Vec<LogEntry> {
    let mut log = Vec::with_capacity(batches.len());
    for (i, batch) in batches.iter().enumerate() {
        let due = t0 + period.mul_f64(i as f64);
        let wait = due.saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        log.push(commit_logged(store, cache, batch));
    }
    log
}

/// The timed window of a serving workload and what was read around it.
pub struct ServeWindow {
    pub client: ClientOutcome,
    /// Commits made inside the window, in batch order.
    pub log: Vec<LogEntry>,
    pub host: HostDelta,
    pub peak_rss_mb: f64,
    pub frontend: FrontendStats,
}

/// Runs the timed window on a set-up system and shuts the front-end down.
pub fn run_window<S: Store>(
    serving: Serving<S>,
    spec: &WorkloadSpec,
    seconds: f64,
    mut keys: KeyStream,
    batches: &[Vec<GraphUpdate>],
) -> (ServeWindow, Arc<S>, Option<Arc<AnswerCache>>) {
    let writer = spec.writer.expect("serving workloads have a writer");
    let period = Duration::from_secs_f64(writer.batch as f64 / writer.updates_per_s);
    let stop = AtomicBool::new(false);
    let Serving {
        store,
        cache,
        frontend,
        ..
    } = serving;
    let before = HostSnapshot::take();
    let t0 = Instant::now();
    let (client, log, host, peak_rss_mb) = std::thread::scope(|scope| {
        let writer =
            scope.spawn(|| writer_loop(&*store, cache.as_deref(), batches, period, t0, &stop));
        let client = closed_loop(&frontend, || keys.next_key(), spec.burst, t0, seconds);
        let host = HostDelta::between(&before, &HostSnapshot::take());
        let peak = host::peak_rss_mb();
        stop.store(true, Ordering::SeqCst);
        let log = writer.join().expect("writer thread panicked");
        (client, log, host, peak)
    });
    let window = ServeWindow {
        client,
        log,
        host,
        peak_rss_mb,
        frontend: frontend.shutdown(),
    };
    (window, store, cache)
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Layer metrics a serving window yields at no extra cost: they are read
/// off `FrontendResponse`, `FrontendStats`, `CacheStats` and the writer log
/// (`commits` is every commit since the store was built, the window's last).
pub fn layer_metrics<S: Store>(
    report: &mut Report,
    window: &ServeWindow,
    seconds: f64,
    commits: &[Commit],
    store: &S,
    cache: Option<&AnswerCache>,
) {
    let answers = &window.client.answers;
    let n = answers.len();
    let queue_wait: Vec<f64> = answers
        .iter()
        .map(|a| micros(a.response.queue_wait))
        .collect();
    let service: Vec<f64> = answers.iter().map(|a| micros(a.response.service)).collect();
    let handoff: Vec<f64> = answers
        .iter()
        .map(|a| {
            micros(
                a.latency
                    .saturating_sub(a.response.queue_wait + a.response.service),
            )
        })
        .collect();
    report.push(
        "frontend.queue_wait_p50_us",
        stats::percentile(&queue_wait, 0.5),
        n,
    );
    report.push(
        "frontend.queue_wait_p99_us",
        stats::percentile(&queue_wait, 0.99),
        n,
    );
    report.push(
        "frontend.service_p50_us",
        stats::percentile(&service, 0.5),
        n,
    );
    report.push(
        "frontend.service_p99_us",
        stats::percentile(&service, 0.99),
        n,
    );
    report.push(
        "frontend.handoff_p50_us",
        stats::percentile(&handoff, 0.5),
        n,
    );
    report.push(
        "frontend.max_queue_depth",
        window.frontend.max_queue_depth as f64,
        1,
    );
    report.push("frontend.rejected", window.frontend.rejected as f64, 1);
    report.push(
        "frontend.deadline_missed",
        window.frontend.deadline_misses as f64,
        1,
    );

    // Stationarity of the update stream shows as a flat service time.
    let service_samples: Vec<Sample> = answers
        .iter()
        .map(|a| Sample {
            start_s: a.start_s,
            value: micros(a.response.service),
        })
        .collect();
    let per_segment: Vec<String> = stats::segments(&service_samples, seconds)
        .iter()
        .map(|s| format!("{:.1}", stats::percentile(s, 0.5)))
        .collect();
    report.note(format!(
        "frontend.service_p50_us per segment: {}",
        per_segment.join(" ")
    ));

    let (compactions, compaction_time) = store.compaction_totals();
    if S::IS_SHARDED {
        report.push("sharded.compactions", compactions as f64, 1);
    } else {
        let timed: Vec<f64> = window
            .log
            .iter()
            .filter_map(|e| e.compaction)
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        report.push("store.epochs_published", window.log.len() as f64, 1);
        report.push("store.compactions", timed.len() as f64, 1);
        report.push("store.compaction_mean_ms", stats::mean(&timed), timed.len());
        report.push(
            "store.compaction_max_ms",
            timed.iter().copied().fold(0.0, f64::max),
            timed.len(),
        );
    }
    report.note(format!(
        "compactions since store build: {compactions} taking {:.1} ms in all",
        compaction_time.as_secs_f64() * 1e3
    ));

    if let Some(cache) = cache {
        let s = cache.stats();
        report.push("cache.hit_rate", window.frontend.cache_hit_rate(), n);
        report.push("cache.evictions", s.evictions as f64, 1);
        report.push("cache.invalidations", s.invalidations as f64, 1);
        // Epochs published before the worker took the request, minus the
        // epoch the answer was computed at. This is the answer's age, not
        // its staleness: an entry whose support no publish touched is
        // promoted and stays exact however old it is, so the cache's
        // bound does not apply to it. `replay_gate` checks the bound.
        let age: Vec<f64> = answers
            .iter()
            .map(|a| version_at(commits, a.dequeued_at()).saturating_sub(a.response.epoch) as f64)
            .collect();
        report.push("cache.stale_epochs_p99", stats::percentile(&age, 0.99), n);
    }
}

/// The version the store had published by `at`, as far as the writer's log
/// can tell (0 before the first commit). A log entry is stamped after its
/// commit returned, so this never runs ahead of what a worker saw.
fn version_at(commits: &[Commit], at: Instant) -> u64 {
    commits[..commits.partition_point(|(e, _)| e.published_at <= at)]
        .last()
        .map_or(0, |(e, _)| e.version)
}

/// Replay gate: a seeded sample of answers must equal, bit for bit, a cold
/// `query_seeded` on a CSR rebuilt from the base graph and the update
/// batches committed up to the answer's epoch.
///
/// With a cache, `bounded_staleness`, an answer may be older than the epoch
/// current at its dequeue, but it must still be exact at some epoch no more
/// than `CACHE_MAX_STALE_EPOCHS` behind it. The cache serves an entry only
/// while it was valid that recently and an entry is exact from the epoch it
/// was computed at to the last it was valid at, so the answer is replayed a
/// second time at `max(computed, current − bound)`.
pub fn replay_gate(
    report: &mut Report,
    engine: &SimPush,
    base: &CsrGraph,
    seed: u64,
    answers: &[Answer],
    commits: &[Commit],
    bounded_staleness: bool,
) {
    let mut rng = SplitMix64::new(derive(seed, "replay"));
    let picked = distinct_below(&mut rng, answers.len(), CHECKED_ANSWERS.min(answers.len()));
    let mut checks: Vec<(u64, usize)> = Vec::new();
    for &i in &picked {
        let a = &answers[i];
        checks.push((a.response.epoch, i));
        let floor = version_at(commits, a.dequeued_at()).saturating_sub(CACHE_MAX_STALE_EPOCHS);
        if bounded_staleness && floor > a.response.epoch {
            checks.push((floor, i));
        }
    }
    checks.sort_unstable();
    let mut replayer = Replayer::new(base);
    let mut applied = 0;
    let mut mismatches = 0usize;
    for &(epoch, i) in &checks {
        let r = &answers[i].response;
        while applied < commits.len() && commits[applied].0.version <= epoch {
            replayer.apply(commits[applied].1);
            applied += 1;
        }
        let rebuilt = replayer.build();
        let want = engine.query_seeded(&rebuilt, r.node).top_k(TOP_K);
        if !same_answer(&want, &r.top) {
            mismatches += 1;
            report.gate(false, || {
                format!(
                    "replay mismatch: node {} computed at epoch {} replayed at epoch {epoch} ({} edges)",
                    r.node,
                    r.epoch,
                    rebuilt.num_edges()
                )
            });
        }
    }
    report.push("accuracy.replay_checked", checks.len() as f64, picked.len());
    report.push("accuracy.replay_mismatch", mismatches as f64, checks.len());
}
