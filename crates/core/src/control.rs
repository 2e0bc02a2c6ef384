//! Elastic serving control plane: a live admission quota + the
//! closed-loop SLO controller that actuates it.
//!
//! The [`Frontend`](crate::Frontend) fixes its worker pool, deadline and
//! cache staleness bound at construction. One knob is **live**:
//!
//! * [`AdmissionQuota`] caps the queue depth a submission may find before
//!   it is shed, *below* the channel's capacity. Every submission reads it
//!   with one relaxed atomic load, so a [`AdmissionQuota::set`] takes
//!   effect on the very next request without restarting the front-end.
//! * [`Controller`] is the closed loop: a thread that drains the
//!   front-end's per-interval sojourn histogram and reads its queue-depth
//!   gauge (via [`FrontendObserver`]) at a fixed tick and sets the quota.
//!   The policy lives in the **pure** [`step`] function so tests can drive
//!   it with synthetic observation streams and assert the exact actuation
//!   sequence.
//!
//! # Policy (CoDel-style)
//!
//! The controller watches the p99 **sojourn** (queue wait observed at
//! dequeue) the way CoDel watches packet sojourn in a router queue:
//!
//! * sojourn above [`ControllerOptions::target_sojourn`] for
//!   [`overload_ticks`](ControllerOptions::overload_ticks) consecutive
//!   ticks ⇒ **tighten**: the quota shrinks to ¾ of the smaller of itself
//!   and the observed queue depth, never below 1.
//! * sojourn below half the target for
//!   [`calm_ticks`](ControllerOptions::calm_ticks) consecutive ticks ⇒
//!   **relax**: the quota grows to `q + q/2 + 1`, fully reopening once it
//!   reaches the queue capacity.
//!
//! Between those two bands nothing happens — that dead zone, the
//! consecutive-tick streaks (a single noisy tick resets them), and a
//! per-actuation [`cooldown_ticks`](ControllerOptions::cooldown_ticks)
//! are the hysteresis that keeps the controller from oscillating
//! (pinned by the unit tests below).
//!
//! Every actuation is appended to a [`ControlLog`] with the two inputs
//! the decision read, so a run's control decisions can be replayed and
//! audited offline (`scenario_serve` prints and judges the summary of
//! its controlled `ramp` run).

use crate::frontend::FrontendObserver;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The live admission quota shared by a front-end's submit path and its
/// [`Controller`].
///
/// Once the queue-depth gauge exceeds the quota, submissions are shed
/// (`Overloaded`) *before* touching the channel. `None` — the state at
/// [`Frontend::start`](crate::Frontend::start) — disables it: the bounded
/// channel's capacity is then the only admission limit. A set quota is
/// always in `[1, queue_capacity]`.
#[derive(Debug)]
pub struct AdmissionQuota {
    /// The quota, or 0 for none (0 is never a legal quota).
    quota: AtomicUsize,
    queue_capacity: usize,
}

impl AdmissionQuota {
    /// No quota, under an admission queue of `queue_capacity` slots.
    ///
    /// # Panics
    /// Panics if `queue_capacity` is 0.
    pub fn new(queue_capacity: usize) -> Self {
        assert!(queue_capacity >= 1, "admission queue capacity must be ≥ 1");
        Self {
            quota: AtomicUsize::new(0),
            queue_capacity,
        }
    }

    /// The current quota.
    pub fn get(&self) -> Option<usize> {
        // relaxed: a standalone knob, no other memory is published through
        // it — a submission racing a `set` sheds against the old or the
        // new quota, and both are legal.
        match self.quota.load(Ordering::Relaxed) {
            0 => None,
            q => Some(q),
        }
    }

    /// Publishes a new quota, clamped to `[1, queue_capacity]`, and
    /// returns what was applied. Takes effect on the next submission.
    pub fn set(&self, quota: Option<usize>) -> Option<usize> {
        let applied = quota.map(|q| q.clamp(1, self.queue_capacity));
        // relaxed: standalone knob, see `get`.
        self.quota.store(applied.unwrap_or(0), Ordering::Relaxed);
        applied
    }
}

/// Number of power-of-two latency buckets: bucket `i` counts durations in
/// `[2^i, 2^{i+1})` microseconds, so 40 buckets span 1 µs to ≈ 12.7 days.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A lock-free, drainable log₂ latency histogram.
///
/// Workers [`record`](Self::record) into it on the hot path (two relaxed
/// `fetch_add`s per sample); the controller [`drain`](Self::drain)s it
/// once per tick, turning the interval's samples into a
/// [`HistogramSnapshot`] and resetting the buckets to zero. Power-of-two
/// buckets make a percentile estimate at worst a factor of 2 off — far
/// inside the decision bands the [`Controller`] uses, and allocation-free.
#[derive(Debug)]
pub struct IntervalHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
}

impl Default for IntervalHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
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
}

impl HistogramSnapshot {
    /// Nearest-rank percentile estimate, reported as the **upper bound**
    /// of the bucket the rank lands in (conservative: never understates).
    /// `None` on an empty interval, same contract as
    /// [`LatencySummary`](simrank_common::stats::LatencySummary).
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
}

/// Knobs for the [`Controller`]. The defaults are placeholders for toy
/// runs; real deployments derive `target_sojourn` from a calibrated mean
/// service time the way the scenario layer's `Calibration::controller`
/// does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControllerOptions {
    /// Sampling/actuation interval of the controller thread.
    pub tick: Duration,
    /// CoDel target: p99 sojourn above this reads as overload.
    pub target_sojourn: Duration,
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
            overload_ticks: 2,
            calm_ticks: 5,
            cooldown_ticks: 2,
        }
    }
}

/// What the controller saw in one tick: exactly the two inputs [`step`]
/// reads. Pure data, so tests synthesize streams of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TickObservation {
    /// p99 of the sojourn (queue wait at dequeue) histogram this tick;
    /// `None` when nothing was dequeued.
    pub sojourn_p99: Option<Duration>,
    /// Queue-depth gauge at sample time.
    pub queue_depth: usize,
}

/// Which way an actuation moved the quota.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlReason {
    /// Overload: the quota shrank.
    Tighten,
    /// Sustained calm: the quota grew (or reopened).
    Relax,
}

/// One actuation: the tick it fired on, what was observed, and the quota
/// that was applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlRecord {
    /// 1-based controller tick the actuation fired on.
    pub tick: u64,
    /// The observation that triggered it.
    pub observation: TickObservation,
    /// The quota as applied (`None`: reopened to the channel capacity).
    pub quota: Option<usize>,
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
    quota: Option<usize>,
    queue_capacity: usize,
    overload_streak: u32,
    calm_streak: u32,
    cooldown: u32,
}

impl ControlState {
    /// Starts from the quota currently applied under the front-end's
    /// admission-queue capacity.
    pub fn new(quota: Option<usize>, queue_capacity: usize) -> Self {
        Self {
            quota,
            queue_capacity,
            overload_streak: 0,
            calm_streak: 0,
            cooldown: 0,
        }
    }

    /// The quota the state believes is currently applied.
    pub fn quota(&self) -> Option<usize> {
        self.quota
    }
}

/// One pure decision step: classifies the observation, advances the
/// hysteresis streaks, and — when a streak crosses its threshold outside
/// the cooldown window and the quota would move — produces the next
/// quota.
///
/// Deterministic by construction (no clocks, no randomness): the same
/// `(state, observations)` stream always yields the same actuation
/// sequence, which the unit tests pin exactly.
pub fn step(
    state: &mut ControlState,
    obs: &TickObservation,
    opts: &ControllerOptions,
) -> Option<(Option<usize>, ControlReason)> {
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
    let (next, reason) = if state.overload_streak >= opts.overload_ticks {
        state.overload_streak = 0;
        // Shrink from the *observed* backlog when it is the binding
        // constraint, else multiplicatively from the current quota.
        let pressure = state.quota.unwrap_or(cap).min(obs.queue_depth.max(1));
        (Some((pressure * 3 / 4).max(1)), ControlReason::Tighten)
    } else if state.calm_streak >= opts.calm_ticks {
        state.calm_streak = 0;
        // Multiplicative growth; reaching capacity reopens fully.
        let next = state.quota.and_then(|q| {
            let grown = (q + q / 2 + 1).min(cap);
            (grown < cap).then_some(grown)
        });
        (next, ControlReason::Relax)
    } else {
        return None;
    };
    state.cooldown = opts.cooldown_ticks;
    if next == state.quota {
        return None;
    }
    state.quota = next;
    Some((next, reason))
}

/// The closed-loop controller thread. See the [module docs](self).
#[derive(Debug)]
pub struct Controller {
    handle: Option<JoinHandle<ControlLog>>,
    stop: Arc<AtomicBool>,
}

impl Controller {
    /// Starts the control loop: every `opts.tick` it samples `observer`
    /// (queue depth + drained sojourn histogram), runs [`step`], and sets
    /// any resulting quota through `quota`.
    ///
    /// The observer and quota should come from the same front-end
    /// ([`Frontend::observer`](crate::Frontend::observer) /
    /// [`Frontend::admission_quota`](crate::Frontend::admission_quota));
    /// stop the controller before shutting the front-end down so the last
    /// decisions land in the log.
    pub fn start(
        observer: FrontendObserver,
        quota: Arc<AdmissionQuota>,
        opts: ControllerOptions,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut log = ControlLog::default();
            let mut state = ControlState::new(quota.get(), quota.queue_capacity);
            // relaxed: advisory stop flag — one extra tick after the
            // store is harmless.
            while !stop_flag.load(Ordering::Relaxed) {
                std::thread::sleep(opts.tick);
                let sample = observer.sample();
                let obs = TickObservation {
                    sojourn_p99: sample.sojourn.percentile(99),
                    queue_depth: sample.queue_depth,
                };
                log.ticks += 1;
                if let Some((next, reason)) = step(&mut state, &obs, &opts) {
                    let applied = quota.set(next);
                    state.quota = applied;
                    log.records.push(ControlRecord {
                        tick: log.ticks,
                        observation: obs,
                        quota: applied,
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
            overload_ticks: 2,
            calm_ticks: 3,
            cooldown_ticks: 1,
        }
    }

    fn hot(depth: usize) -> TickObservation {
        TickObservation {
            sojourn_p99: Some(ms(50)),
            queue_depth: depth,
        }
    }

    fn cool() -> TickObservation {
        TickObservation {
            sojourn_p99: Some(ms(2)),
            queue_depth: 0,
        }
    }

    fn idle() -> TickObservation {
        TickObservation {
            sojourn_p99: None,
            queue_depth: 0,
        }
    }

    #[test]
    fn sustained_overload_tightens_on_the_exact_tick() {
        let o = opts();
        let mut state = ControlState::new(None, CAPACITY);
        // Tick 1: streak 1 — no actuation yet (deadband).
        assert_eq!(step(&mut state, &hot(60), &o), None);
        // Tick 2: streak reaches overload_ticks — first tighten. The quota
        // engages from the observed depth: 60 * 3/4 = 45.
        assert_eq!(
            step(&mut state, &hot(60), &o),
            Some((Some(45), ControlReason::Tighten))
        );
        // Tick 3: cooldown absorbs the actuation (the streak still
        // counts underneath it).
        assert_eq!(step(&mut state, &hot(60), &o), None);
        // Tick 4: streak ≥ 2 again and the cooldown expired — second
        // tighten, from the smaller of quota and depth.
        assert_eq!(
            step(&mut state, &hot(60), &o),
            Some((Some(33), ControlReason::Tighten)),
            "45.min(60) * 3/4"
        );
    }

    #[test]
    fn sustained_calm_relaxes_back_to_the_configured_tuning() {
        let o = opts();
        let mut state = ControlState::new(None, CAPACITY);
        // Drive into a tightened regime first: 45, then 33.
        for _ in 0..4 {
            step(&mut state, &hot(60), &o);
        }
        assert_eq!(state.quota(), Some(33));
        // Calm ticks: threshold 3, then cooldown 1 between actuations.
        let mut relaxed = Vec::new();
        for _ in 0..20 {
            if let Some((q, r)) = step(&mut state, &cool(), &o) {
                assert_eq!(r, ControlReason::Relax);
                relaxed.push(q);
            }
        }
        // 33 + 16 + 1 = 50; 50 + 25 + 1 ≥ 64 reopens fully.
        assert_eq!(relaxed, [Some(50), None]);
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
        let mut state = ControlState::new(None, CAPACITY);
        for i in 0..200 {
            let obs = if i % 2 == 0 { hot(60) } else { cool() };
            assert_eq!(step(&mut state, &obs, &o), None, "oscillated at tick {i}");
        }
        assert_eq!(state.quota(), None);
    }

    #[test]
    fn dead_zone_between_bands_resets_both_streaks() {
        let o = opts();
        let mut state = ControlState::new(None, CAPACITY);
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
        assert_eq!(state.quota(), None);
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
            let mut state = ControlState::new(None, CAPACITY);
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
    fn quota_never_leaves_its_bounds() {
        let o = opts();
        let mut state = ControlState::new(None, CAPACITY);
        for _ in 0..500 {
            if let Some((q, _)) = step(&mut state, &hot(CAPACITY), &o) {
                assert!((1..=CAPACITY).contains(&q.expect("tightened quota is set")));
            }
        }
        assert_eq!(state.quota(), Some(1), "500 hot ticks reach the floor");
    }

    #[test]
    fn admission_quota_clamps_and_publishes() {
        let quota = AdmissionQuota::new(CAPACITY);
        assert_eq!(quota.get(), None);
        assert_eq!(quota.set(Some(10_000)), Some(64), "clamped to capacity");
        assert_eq!(quota.get(), Some(64));
        assert_eq!(quota.set(Some(0)), Some(1), "clamped to the floor");
        assert_eq!(quota.get(), Some(1));
        assert_eq!(quota.set(None), None);
        assert_eq!(quota.get(), None);
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
        assert_eq!(empty.count, 0);
        assert_eq!(empty.percentile(99), None);
    }
}
