//! Elastic serving control plane: live tuning + closed-loop SLO
//! controller.
//!
//! The [`Frontend`](crate::Frontend) used to freeze every serving knob at
//! construction time — admission limit, deadline, the answer cache's
//! staleness bound. This module makes those knobs **live** (the worker
//! pool stays fixed: an idle worker blocked in `recv` costs nothing):
//!
//! * [`ActiveTuning`] is the set of runtime knobs, published through a
//!   [`TuningHandle`] as an atomically swappable `Arc`. Every submission
//!   reads the *current* tuning once (one mutex-guarded `Arc` clone) and
//!   the staleness bound is pushed into the cache at swap, so a
//!   [`TuningHandle::swap`] takes effect on the very next request without
//!   restarting the front-end.
//! * [`Controller`] is the closed loop: a thread that samples the
//!   front-end's counters and per-interval sojourn/latency histograms
//!   (via [`FrontendObserver`]) at a
//!   fixed tick and actuates the tuning. The policy lives in the **pure**
//!   [`step`] function so tests can drive it with synthetic observation
//!   streams and assert the exact actuation sequence.
//!
//! # Policy (CoDel-style)
//!
//! The controller watches the p99 **sojourn** (queue wait observed at
//! dequeue) the way CoDel watches packet sojourn in a router queue:
//!
//! * sojourn above [`ControllerOptions::target_sojourn`] for
//!   [`overload_ticks`](ControllerOptions::overload_ticks) consecutive
//!   ticks ⇒ **tighten**: the deadline drops along the CoDel control law
//!   `base / √(k+1)` for the `k`-th consecutive tightening, the admission
//!   quota shrinks multiplicatively from the observed queue depth, the
//!   cache staleness bound widens one epoch (serving slightly-old answers
//!   beats serving none).
//! * sojourn below half the target for
//!   [`calm_ticks`](ControllerOptions::calm_ticks) consecutive ticks ⇒
//!   **relax**: one backoff level is undone, the quota grows
//!   multiplicatively (fully reopening once it reaches the queue
//!   capacity), and the staleness bound narrows back toward its
//!   configured baseline.
//!
//! Between those two bands nothing happens — that dead zone, the
//! consecutive-tick streaks (a single noisy tick resets them), and a
//! per-actuation [`cooldown_ticks`](ControllerOptions::cooldown_ticks)
//! are the hysteresis that keeps the controller from oscillating
//! (pinned by the unit tests below).
//!
//! Every actuation is appended to a [`ControlLog`] with the observation
//! that triggered it, so a run's control decisions can be replayed and
//! audited offline (`elastic_serve` prints and judges the summary).

use crate::answer_cache::AnswerCache;
use crate::frontend::FrontendObserver;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// The runtime-tunable serving knobs, swapped as one atomic unit.
///
/// Constructed initially by [`Frontend::start`](crate::Frontend::start)
/// from the static options, then re-published by the [`Controller`] (or
/// by hand through [`TuningHandle::swap`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveTuning {
    /// Deadline applied to requests submitted without an explicit one;
    /// `None` means such requests never expire.
    pub deadline: Option<Duration>,
    /// Admission quota: submissions are shed (`Overloaded`) once the
    /// queue-depth gauge exceeds this, *before* touching the channel.
    /// `None` disables the quota — the bounded channel's capacity is then
    /// the only admission limit (the static front-end's behaviour).
    pub admission_quota: Option<usize>,
    /// Staleness bound pushed through to the attached
    /// [`AnswerCache`] on every swap.
    pub max_stale_epochs: u64,
}

/// The atomically-swappable publication point for [`ActiveTuning`].
///
/// One handle is shared by the front-end's submit path and the
/// [`Controller`]; [`load`](Self::load) is a mutex-guarded `Arc` clone.
#[derive(Debug)]
pub struct TuningHandle {
    current: Mutex<Arc<ActiveTuning>>,
    cache: Option<Arc<AnswerCache>>,
    /// Admission-queue capacity, fixed at
    /// [`Frontend::start`](crate::Frontend::start): the ceiling every
    /// swapped [`ActiveTuning::admission_quota`] is clamped against.
    queue_capacity: usize,
}

impl TuningHandle {
    /// Builds a handle whose first published tuning is `initial` (its
    /// quota clamped against `queue_capacity`); `cache` — when the
    /// front-end has one — receives every future `max_stale_epochs`
    /// actuation.
    ///
    /// # Panics
    /// Panics if `queue_capacity` is 0.
    pub fn new(
        initial: ActiveTuning,
        queue_capacity: usize,
        cache: Option<Arc<AnswerCache>>,
    ) -> Self {
        assert!(queue_capacity >= 1, "admission queue capacity must be ≥ 1");
        let initial = clamp_tuning(initial, queue_capacity);
        if let Some(cache) = cache.as_deref() {
            cache.set_max_stale_epochs(initial.max_stale_epochs);
        }
        Self {
            current: Mutex::new(Arc::new(initial)),
            cache,
            queue_capacity,
        }
    }

    /// The admission-queue capacity swapped quotas are clamped against.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// The currently published tuning.
    pub fn load(&self) -> Arc<ActiveTuning> {
        self.current
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Publishes a new tuning (quota clamped against the queue capacity),
    /// pushes the staleness bound into the attached cache, and returns
    /// what was actually applied.
    ///
    /// Takes effect on the next request each worker/submitter processes;
    /// requests already past their tuning read keep the old values.
    pub fn swap(&self, tuning: ActiveTuning) -> Arc<ActiveTuning> {
        let applied = Arc::new(clamp_tuning(tuning, self.queue_capacity));
        if let Some(cache) = self.cache.as_deref() {
            cache.set_max_stale_epochs(applied.max_stale_epochs);
        }
        *self.current.lock().unwrap_or_else(|p| p.into_inner()) = applied.clone();
        applied
    }
}

fn clamp_tuning(mut t: ActiveTuning, queue_capacity: usize) -> ActiveTuning {
    t.admission_quota = t.admission_quota.map(|q| q.clamp(1, queue_capacity));
    t
}

/// Number of power-of-two latency buckets: bucket `i` counts durations in
/// `[2^i, 2^{i+1})` microseconds, so 40 buckets span 1 µs to ≈ 12.7 days.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A lock-free, drainable log₂ latency histogram.
///
/// Workers [`record`](Self::record) into it on the hot path (one relaxed
/// `fetch_add` per sample); the controller [`drain`](Self::drain)s it
/// once per tick, turning the interval's samples into a
/// [`HistogramSnapshot`] and resetting the buckets to zero. Power-of-two
/// buckets make a percentile estimate at worst a factor of 2 off — far
/// inside the decision bands the [`Controller`] uses, and allocation-free.
#[derive(Debug)]
pub struct IntervalHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Default for IntervalHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }
}

impl IntervalHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample (saturating above the last bucket; sub-µs
    /// samples land in bucket 0).
    pub fn record(&self, d: Duration) {
        let micros = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let idx = (micros.max(1).ilog2() as usize).min(HISTOGRAM_BUCKETS - 1);
        // relaxed: telemetry counters — the controller's drained snapshot
        // is advisory, nothing synchronizes on these values.
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Takes the interval's samples and resets the histogram.
    ///
    /// Not atomic across buckets: a sample recorded concurrently may
    /// straddle two drains (counted in this snapshot's `count` but the
    /// next one's bucket, or vice versa). That skew is at most the
    /// in-flight worker count and irrelevant to control decisions.
    pub fn drain(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            // relaxed: advisory telemetry drain, see above.
            counts: std::array::from_fn(|i| self.buckets[i].swap(0, Ordering::Relaxed)),
            // relaxed: advisory telemetry drain, see above.
            count: self.count.swap(0, Ordering::Relaxed),
            // relaxed: advisory telemetry drain, see above.
            sum_micros: self.sum_micros.swap(0, Ordering::Relaxed),
        }
    }
}

/// One drained interval of an [`IntervalHistogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts; bucket `i` is `[2^i, 2^{i+1})` µs.
    pub counts: [u64; HISTOGRAM_BUCKETS],
    /// Total samples in the interval.
    pub count: u64,
    /// Sum of all samples, in µs.
    pub sum_micros: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            counts: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum_micros: 0,
        }
    }
}

impl HistogramSnapshot {
    /// True when the interval recorded no samples.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Nearest-rank percentile estimate, reported as the **upper bound**
    /// of the bucket the rank lands in (conservative: never understates).
    /// `None` on an empty interval, same contract as
    /// [`duration_percentile`](simrank_common::stats::duration_percentile).
    ///
    /// # Panics
    /// Panics if `pct > 100`.
    pub fn percentile(&self, pct: u8) -> Option<Duration> {
        assert!(pct <= 100, "percentile must be in [0, 100], got {pct}");
        if self.count == 0 {
            return None;
        }
        let rank = (self.count - 1) * pct as u64 / 100;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Some(Duration::from_micros(
                    1u64 << ((i + 1).min(HISTOGRAM_BUCKETS)),
                ));
            }
        }
        // counts/count can disagree by in-flight skew; fall back to the
        // top recorded bucket.
        let top = self.counts.iter().rposition(|&c| c > 0)?;
        Some(Duration::from_micros(1u64 << (top + 1)))
    }

    /// Mean of the interval's samples; `Duration::ZERO` when empty.
    pub fn mean(&self) -> Duration {
        self.sum_micros
            .checked_div(self.count)
            .map_or(Duration::ZERO, Duration::from_micros)
    }
}

/// Knobs for the [`Controller`]. The defaults are placeholders for toy
/// runs; real deployments derive `target_sojourn`/`slo_p99` from a
/// calibrated mean service time the way `elastic_serve` does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControllerOptions {
    /// Sampling/actuation interval of the controller thread.
    pub tick: Duration,
    /// CoDel target: p99 sojourn above this reads as overload.
    pub target_sojourn: Duration,
    /// The p99 end-to-end latency objective the controller defends
    /// (recorded in the log; the sojourn target is the actuation signal).
    pub slo_p99: Duration,
    /// Floor the CoDel backoff never tightens the deadline below.
    pub min_deadline: Duration,
    /// Ceiling the relax path never raises the deadline above; also the
    /// backoff base when the front-end started with no deadline.
    pub max_deadline: Duration,
    /// Floor for the admission quota (≥ 1).
    pub quota_floor: usize,
    /// Ceiling for cache-staleness widening under overload.
    pub stale_bound: u64,
    /// Consecutive overloaded ticks required before tightening.
    pub overload_ticks: u32,
    /// Consecutive calm ticks required before relaxing.
    pub calm_ticks: u32,
    /// Ticks after any actuation during which no further one may fire.
    pub cooldown_ticks: u32,
}

impl Default for ControllerOptions {
    fn default() -> Self {
        Self {
            tick: Duration::from_millis(100),
            target_sojourn: Duration::from_millis(10),
            slo_p99: Duration::from_millis(50),
            min_deadline: Duration::from_millis(1),
            max_deadline: Duration::from_secs(1),
            quota_floor: 1,
            stale_bound: 8,
            overload_ticks: 2,
            calm_ticks: 5,
            cooldown_ticks: 2,
        }
    }
}

/// What the controller saw in one tick — counter deltas plus the drained
/// interval histograms' percentiles. Pure data, so tests synthesize
/// streams of these and feed them to [`step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TickObservation {
    /// p99 of the sojourn (queue wait at dequeue) histogram this tick;
    /// `None` when nothing was dequeued.
    pub sojourn_p99: Option<Duration>,
    /// p99 of the end-to-end (wait + service) histogram this tick.
    pub latency_p99: Option<Duration>,
    /// Queue-depth gauge at sample time.
    pub queue_depth: usize,
    /// Requests accepted during the tick.
    pub accepted: u64,
    /// Submissions rejected during the tick.
    pub rejected: u64,
    /// Requests answered during the tick.
    pub answered: u64,
    /// Deadline misses during the tick.
    pub deadline_misses: u64,
}

/// Which way an actuation moved the tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlReason {
    /// Overload: deadline tightened, quota shrunk, staleness widened.
    Tighten,
    /// Sustained calm: one backoff level undone, quota regrown.
    Relax,
}

/// One actuation: the tick it fired on, what was observed, and the tuning
/// that was applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlRecord {
    /// 1-based controller tick the actuation fired on.
    pub tick: u64,
    /// The observation that triggered it.
    pub observation: TickObservation,
    /// The tuning as applied (post-clamping).
    pub applied: ActiveTuning,
    /// Tighten or relax.
    pub reason: ControlReason,
}

/// The full decision history of one controller run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ControlLog {
    /// Every actuation, in tick order.
    pub records: Vec<ControlRecord>,
    /// Total ticks the controller ran for.
    pub ticks: u64,
}

impl ControlLog {
    /// Actuations that tightened.
    pub fn tighten_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.reason == ControlReason::Tighten)
            .count()
    }

    /// Actuations that relaxed.
    pub fn relax_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.reason == ControlReason::Relax)
            .count()
    }
}

/// The controller's mutable state between ticks. Everything [`step`]
/// needs is in here or in the observation — no clocks, no randomness —
/// which is what makes the policy replay-deterministic.
#[derive(Debug, Clone)]
pub struct ControlState {
    tuning: ActiveTuning,
    queue_capacity: usize,
    /// CoDel backoff level `k`: the deadline sits at `base / √(k+1)`.
    tighten_level: u32,
    overload_streak: u32,
    calm_streak: u32,
    cooldown: u32,
    base_deadline: Duration,
    baseline_stale: u64,
}

impl ControlState {
    /// Starts from the tuning currently published (pre-clamped by the
    /// handle) under the front-end's admission-queue capacity.
    pub fn new(initial: ActiveTuning, queue_capacity: usize, opts: &ControllerOptions) -> Self {
        let base_deadline = initial
            .deadline
            .unwrap_or(opts.max_deadline)
            .clamp(opts.min_deadline, opts.max_deadline);
        Self {
            baseline_stale: initial.max_stale_epochs,
            tuning: initial,
            queue_capacity,
            tighten_level: 0,
            overload_streak: 0,
            calm_streak: 0,
            cooldown: 0,
            base_deadline,
        }
    }

    /// The tuning the state believes is currently applied.
    pub fn tuning(&self) -> &ActiveTuning {
        &self.tuning
    }
}

/// Deadline given the CoDel backoff level: `base / √(k+1)`, clamped.
fn codel_deadline(state: &ControlState, opts: &ControllerOptions) -> Duration {
    let scaled = state
        .base_deadline
        .div_f64((state.tighten_level as f64 + 1.0).sqrt());
    scaled.clamp(opts.min_deadline, opts.max_deadline)
}

/// One pure decision step: classifies the observation, advances the
/// hysteresis streaks, and — when a streak crosses its threshold outside
/// the cooldown window — produces the next [`ActiveTuning`].
///
/// Deterministic by construction (no clocks, no randomness): the same
/// `(state, observations)` stream always yields the same actuation
/// sequence, which the unit tests pin exactly.
pub fn step(
    state: &mut ControlState,
    obs: &TickObservation,
    opts: &ControllerOptions,
) -> Option<(ActiveTuning, ControlReason)> {
    let overloaded = obs.sojourn_p99.is_some_and(|p| p > opts.target_sojourn);
    // Calm means comfortably under target — or a genuinely idle tick.
    let calm = match obs.sojourn_p99 {
        Some(p) => p * 2 <= opts.target_sojourn,
        None => obs.queue_depth == 0,
    };
    if overloaded {
        state.overload_streak += 1;
        state.calm_streak = 0;
    } else if calm {
        state.calm_streak += 1;
        state.overload_streak = 0;
    } else {
        // The dead zone between the bands: evidence for neither
        // direction, so both streaks restart — the core anti-oscillation
        // guard.
        state.overload_streak = 0;
        state.calm_streak = 0;
    }
    if state.cooldown > 0 {
        state.cooldown -= 1;
        return None;
    }

    let cap = state.queue_capacity;
    if state.overload_streak >= opts.overload_ticks {
        state.overload_streak = 0;
        state.cooldown = opts.cooldown_ticks;
        state.tighten_level = state.tighten_level.saturating_add(1);
        let quota = state.tuning.admission_quota.unwrap_or(cap);
        // Shrink from the *observed* backlog when it is the binding
        // constraint, else multiplicatively from the current quota.
        let pressure = quota.min(obs.queue_depth.max(1));
        let next = ActiveTuning {
            deadline: Some(codel_deadline(state, opts)),
            admission_quota: Some((pressure * 3 / 4).max(opts.quota_floor.max(1))),
            max_stale_epochs: (state.tuning.max_stale_epochs + 1).min(opts.stale_bound),
        };
        if next != state.tuning {
            state.tuning = next.clone();
            return Some((next, ControlReason::Tighten));
        }
        return None;
    }
    if state.calm_streak >= opts.calm_ticks {
        state.calm_streak = 0;
        state.cooldown = opts.cooldown_ticks;
        state.tighten_level = state.tighten_level.saturating_sub(1);
        let deadline = if state.tighten_level == 0 {
            // Fully relaxed: restore the configured deadline (which may
            // be "none at all").
            if state.base_deadline >= opts.max_deadline {
                None
            } else {
                Some(state.base_deadline)
            }
        } else {
            Some(codel_deadline(state, opts))
        };
        let quota = match state.tuning.admission_quota {
            // Multiplicative growth; reaching capacity reopens fully.
            Some(q) => {
                let grown = (q + q / 2 + 1).min(cap);
                (grown < cap).then_some(grown)
            }
            None => None,
        };
        let next = ActiveTuning {
            deadline,
            admission_quota: quota,
            max_stale_epochs: state
                .tuning
                .max_stale_epochs
                .saturating_sub(1)
                .max(state.baseline_stale),
        };
        if next != state.tuning {
            state.tuning = next.clone();
            return Some((next, ControlReason::Relax));
        }
        return None;
    }
    None
}

/// The closed-loop controller thread. See the [module docs](self).
#[derive(Debug)]
pub struct Controller {
    handle: Option<JoinHandle<ControlLog>>,
    stop: Arc<AtomicBool>,
}

impl Controller {
    /// Starts the control loop: every `opts.tick` it samples `observer`
    /// (counter deltas + drained interval histograms), runs [`step`], and
    /// applies any resulting tuning through `tuning`.
    ///
    /// The observer and handle should come from the same front-end
    /// ([`Frontend::observer`](crate::Frontend::observer) /
    /// [`Frontend::tuning_handle`](crate::Frontend::tuning_handle)); stop
    /// the controller before shutting the front-end down so the last
    /// decisions land in the log.
    pub fn start(
        observer: FrontendObserver,
        tuning: Arc<TuningHandle>,
        opts: ControllerOptions,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut log = ControlLog::default();
            let mut state =
                ControlState::new((*tuning.load()).clone(), tuning.queue_capacity(), &opts);
            let mut prev = observer.stats();
            // relaxed: advisory stop flag — one extra tick after the
            // store is harmless.
            while !stop_flag.load(Ordering::Relaxed) {
                std::thread::sleep(opts.tick);
                let sample = observer.sample();
                let stats = sample.stats;
                let obs = TickObservation {
                    sojourn_p99: sample.sojourn.percentile(99),
                    latency_p99: sample.latency.percentile(99),
                    queue_depth: stats.queue_depth,
                    accepted: stats.accepted - prev.accepted,
                    rejected: stats.rejected - prev.rejected,
                    answered: stats.answered - prev.answered,
                    deadline_misses: stats.deadline_misses - prev.deadline_misses,
                };
                prev = stats;
                log.ticks += 1;
                if let Some((next, reason)) = step(&mut state, &obs, &opts) {
                    let applied = tuning.swap(next);
                    state.tuning = (*applied).clone();
                    log.records.push(ControlRecord {
                        tick: log.ticks,
                        observation: obs,
                        applied: (*applied).clone(),
                        reason,
                    });
                }
            }
            log
        });
        Self {
            handle: Some(handle),
            stop,
        }
    }

    /// Stops the loop and returns the decision log.
    ///
    /// # Panics
    /// Panics if the controller thread itself panicked.
    pub fn stop(mut self) -> ControlLog {
        // relaxed: advisory stop flag, see the loop.
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .take()
            // simcheck: allow(panic-in-library) — unreachable: `stop`
            // consumes `self`, so the handle is present unless `Drop`
            // already ran, which consumption makes impossible.
            .expect("controller joined exactly once")
            .join()
            // simcheck: allow(panic-in-library) — deliberate propagation:
            // the documented contract is that `stop` surfaces a panicked
            // controller thread instead of silently dropping its log.
            .expect("controller thread panicked")
    }
}

impl Drop for Controller {
    /// Best-effort stop-and-join so a dropped controller can't outlive
    /// its front-end; panics are swallowed (use [`stop`](Self::stop) to
    /// surface them and get the log).
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            // relaxed: advisory stop flag.
            self.stop.store(true, Ordering::Relaxed);
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    const CAPACITY: usize = 64;

    fn opts() -> ControllerOptions {
        ControllerOptions {
            tick: ms(10),
            target_sojourn: ms(10),
            slo_p99: ms(40),
            min_deadline: ms(2),
            max_deadline: ms(400),
            quota_floor: 2,
            stale_bound: 4,
            overload_ticks: 2,
            calm_ticks: 3,
            cooldown_ticks: 1,
        }
    }

    fn initial() -> ActiveTuning {
        ActiveTuning {
            deadline: Some(ms(200)),
            admission_quota: None,
            max_stale_epochs: 0,
        }
    }

    fn hot(depth: usize) -> TickObservation {
        TickObservation {
            sojourn_p99: Some(ms(50)),
            latency_p99: Some(ms(80)),
            queue_depth: depth,
            accepted: 100,
            rejected: 0,
            answered: 90,
            deadline_misses: 0,
        }
    }

    fn cool() -> TickObservation {
        TickObservation {
            sojourn_p99: Some(ms(2)),
            latency_p99: Some(ms(4)),
            queue_depth: 0,
            accepted: 20,
            rejected: 0,
            answered: 20,
            deadline_misses: 0,
        }
    }

    fn idle() -> TickObservation {
        TickObservation {
            sojourn_p99: None,
            latency_p99: None,
            queue_depth: 0,
            accepted: 0,
            rejected: 0,
            answered: 0,
            deadline_misses: 0,
        }
    }

    #[test]
    fn sustained_overload_tightens_on_the_exact_tick_and_backs_off_sqrt() {
        let o = opts();
        let mut state = ControlState::new(initial(), CAPACITY, &o);
        // Tick 1: streak 1 — no actuation yet (deadband).
        assert_eq!(step(&mut state, &hot(60), &o), None);
        // Tick 2: streak reaches overload_ticks — first tighten.
        let (t1, r1) = step(&mut state, &hot(60), &o).expect("tighten on tick 2");
        assert_eq!(r1, ControlReason::Tighten);
        // base 200 ms / √2 ≈ 141.4 ms.
        let d1 = t1.deadline.unwrap();
        assert!(d1 < ms(200) && d1 > ms(100), "√2 backoff, got {d1:?}");
        // Quota engages from the observed depth: 60 * 3/4 = 45.
        assert_eq!(t1.admission_quota, Some(45));
        assert_eq!(t1.max_stale_epochs, 1);
        // Tick 3: cooldown absorbs the actuation (the streak still
        // counts underneath it).
        assert_eq!(step(&mut state, &hot(60), &o), None);
        // Tick 4: streak ≥ 2 again and the cooldown expired — second
        // tighten, one level deeper (√3).
        let (t2, _) = step(&mut state, &hot(60), &o).expect("second tighten");
        assert!(t2.deadline.unwrap() < d1, "backoff is monotone under load");
        assert_eq!(t2.admission_quota, Some(33), "45.min(60) * 3/4");
        assert_eq!(t2.max_stale_epochs, 2);
    }

    #[test]
    fn sustained_calm_relaxes_back_to_the_configured_tuning() {
        let o = opts();
        let mut state = ControlState::new(initial(), CAPACITY, &o);
        // Drive into a tightened regime first.
        for _ in 0..2 {
            step(&mut state, &hot(60), &o);
        }
        assert!(state.tuning().admission_quota.is_some());
        // Calm ticks: threshold 3, then cooldown 1 between actuations.
        let mut relaxed = Vec::new();
        for _ in 0..20 {
            if let Some((t, r)) = step(&mut state, &cool(), &o) {
                assert_eq!(r, ControlReason::Relax);
                relaxed.push(t);
            }
        }
        let last = relaxed.last().expect("calm stream must relax");
        assert_eq!(last.deadline, Some(ms(200)), "deadline restored to base");
        assert_eq!(last.admission_quota, None, "quota fully reopened");
        assert_eq!(last.max_stale_epochs, 0, "staleness back to baseline");
        // Once fully relaxed, further calm produces no actuations.
        for _ in 0..10 {
            assert_eq!(step(&mut state, &cool(), &o), None);
        }
    }

    #[test]
    fn alternating_load_never_oscillates() {
        // The hysteresis pin: strictly alternating hot/cool ticks keep
        // resetting both streaks (each needs ≥ 2 consecutive), so the
        // controller must not actuate even once.
        let o = opts();
        let mut state = ControlState::new(initial(), CAPACITY, &o);
        for i in 0..200 {
            let obs = if i % 2 == 0 { hot(60) } else { cool() };
            assert_eq!(step(&mut state, &obs, &o), None, "oscillated at tick {i}");
        }
        assert_eq!(state.tuning(), &initial());
    }

    #[test]
    fn dead_zone_between_bands_resets_both_streaks() {
        let o = opts();
        let mut state = ControlState::new(initial(), CAPACITY, &o);
        // Sojourn between target/2 and target: neither hot nor calm.
        let neutral = TickObservation {
            sojourn_p99: Some(ms(7)),
            ..cool()
        };
        // One hot tick, then neutral forever: the overload streak dies.
        step(&mut state, &hot(60), &o);
        for _ in 0..50 {
            assert_eq!(step(&mut state, &neutral, &o), None);
        }
        assert_eq!(state.tuning(), &initial());
    }

    #[test]
    fn same_stream_replays_to_the_identical_actuation_sequence() {
        let o = opts();
        let stream: Vec<TickObservation> = (0..60usize)
            .map(|i| match i % 7 {
                0..=3 => hot(40 + i),
                4 => idle(),
                _ => cool(),
            })
            .collect();
        let run = |stream: &[TickObservation]| {
            let mut state = ControlState::new(initial(), CAPACITY, &o);
            stream
                .iter()
                .filter_map(|obs| step(&mut state, obs, &o))
                .collect::<Vec<_>>()
        };
        let a = run(&stream);
        let b = run(&stream);
        assert_eq!(a, b, "step must be a pure function of (state, stream)");
        assert!(!a.is_empty(), "the mixed stream actuates at least once");
    }

    #[test]
    fn deadline_never_leaves_the_configured_bounds() {
        let o = opts();
        let mut state = ControlState::new(initial(), CAPACITY, &o);
        for _ in 0..500 {
            if let Some((t, _)) = step(&mut state, &hot(64), &o) {
                let d = t.deadline.expect("tightened tuning has a deadline");
                assert!(d >= o.min_deadline && d <= o.max_deadline);
                assert!(t.admission_quota.unwrap() >= o.quota_floor);
                assert!(t.max_stale_epochs <= o.stale_bound);
            }
        }
        // The backoff tightened well below the base, and the quota sits
        // at its floor.
        assert!(state.tuning().deadline.unwrap() < ms(50));
        assert_eq!(state.tuning().admission_quota, Some(o.quota_floor));
    }

    #[test]
    fn tuning_handle_swaps_clamp_and_publish() {
        let handle = TuningHandle::new(initial(), CAPACITY, None);
        let applied = handle.swap(ActiveTuning {
            deadline: None,
            admission_quota: Some(10_000),
            max_stale_epochs: 3,
        });
        assert_eq!(applied.admission_quota, Some(64), "clamped to capacity");
        assert_eq!(*handle.load(), *applied);
    }

    #[test]
    fn tuning_handle_pushes_staleness_into_the_cache() {
        use crate::answer_cache::{AnswerCache, AnswerCacheOptions};
        let cache = Arc::new(AnswerCache::new(AnswerCacheOptions::default()));
        assert_eq!(cache.max_stale_epochs(), 0);
        let handle = TuningHandle::new(initial(), CAPACITY, Some(cache.clone()));
        handle.swap(ActiveTuning {
            max_stale_epochs: 5,
            ..initial()
        });
        assert_eq!(cache.max_stale_epochs(), 5);
    }

    #[test]
    fn histogram_percentiles_are_conservative_and_drain_resets() {
        let h = IntervalHistogram::new();
        for _ in 0..99 {
            h.record(Duration::from_micros(100)); // bucket 6: [64, 128)
        }
        h.record(Duration::from_millis(50)); // bucket 15: [32768, 65536)
        let snap = h.drain();
        assert_eq!(snap.count, 100);
        let p50 = snap.percentile(50).unwrap();
        assert!(p50 >= Duration::from_micros(100) && p50 <= Duration::from_micros(128));
        let p99 = snap.percentile(99).unwrap();
        assert!(p99 >= Duration::from_micros(100));
        let p100 = snap.percentile(100).unwrap();
        assert!(p100 >= Duration::from_millis(50), "max lands in its bucket");
        // Drained: the next interval starts empty.
        let empty = h.drain();
        assert!(empty.is_empty());
        assert_eq!(empty.percentile(99), None);
        assert_eq!(empty.mean(), Duration::ZERO);
    }

    #[test]
    fn histogram_mean_tracks_the_sum() {
        let h = IntervalHistogram::new();
        h.record(Duration::from_micros(10));
        h.record(Duration::from_micros(30));
        let snap = h.drain();
        assert_eq!(snap.mean(), Duration::from_micros(20));
        assert_eq!(snap.sum_micros, 40);
    }
}
