//! Named workload scenarios: the regression-tested traffic surface of the
//! serving stack.
//!
//! An offered-load sweep maps *how much* traffic the front-end survives;
//! this module fixes *what shape* that traffic has. A
//! [`Scenario`] is a declarative description — traffic mix, key
//! distribution, arrival shape, outcome ceilings — and [`run_scenario`]
//! drives it through the **real** [`Frontend`] (bounded admission queue,
//! worker pool, deadlines, a live update writer, optionally the SLO
//! [`Controller`]), never a bespoke loop, so every number a scenario
//! reports is a number the production admission path produced.
//!
//! The [`catalog`] is the YCSB-style matrix the roadmap calls for, seven
//! named scenarios every later optimization must hold up against:
//!
//! | scenario | models |
//! |---|---|
//! | `read_heavy` | interactive browsing: almost-pure queries, smooth arrivals |
//! | `update_heavy` | ingest-dominated operation: ~2 graph updates per query |
//! | `zipf_hot` | power-law key skew: a few nodes absorb most queries |
//! | `bursty` | diurnal/thundering-herd arrivals at constant mean rate |
//! | `batch_scan` | closed-loop bulk clients scanning the key space |
//! | `hot_flood` | adversarial repeated floods of the highest-degree nodes, offered past capacity |
//! | `ramp` | a 0.5× → 2.5× capacity ramp, run static and under the SLO controller |
//!
//! Rates are expressed as **multiples of calibrated capacity**
//! ([`calibrate`]: a closed-loop run through the same front-end), so
//! "0.7× load" means the same thing on a laptop and a CI runner, and the
//! saturation knee sits at 1.0 by construction. Every scenario is
//! seed-deterministic end to end: same `(graph, scenario, scale, seed)` →
//! the same update stream, the same key sequence and the same arrival
//! schedule, byte for byte — so the `ramp` run with and without a
//! controller sees identical traffic. Answers stay replayable: each one
//! records the epoch it was served from, and `tests/integration_serve.rs`
//! pins that a cold rebuild of that epoch reproduces it bit for bit.
//!
//! Each run is judged by [`violations`] (shape rules and the scenario's
//! [`Ceilings`]); the `ramp` pair is judged once more by
//! [`ramp_violations`], the controlled-vs-static rule.

use crate::mixed::{mixed_workload, open_loop_arrivals, MixedWorkload};
use crate::zipf::ZipfKeys;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simpush::{
    ControlLog, Controller, ControllerOptions, Frontend, FrontendOptions, QueryOutcome, SimPush,
};
use simrank_common::stats::LatencySummary;
use simrank_common::NodeId;
use simrank_graph::{CsrGraph, GraphStore, GraphUpdate, GraphView};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fraction of each ramp segment's arrivals whose answers are left out of
/// its steady-state p99, so the controller's convergence transient (and
/// the static queue's fill transient) don't pollute it. Applied
/// identically to both sides.
const WARMUP_FRACTION: f64 = 0.25;
/// The load factor from which a ramp segment carries the
/// controlled-vs-static rule of [`ramp_violations`].
const VERDICT_LOAD: f64 = 1.5;

/// How a scenario picks query keys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Uniform over the node universe — the no-skew baseline, and the
    /// distribution [`calibrate`] measures.
    Uniform,
    /// Zipf-distributed hotness with the given exponent (rank 0 hottest),
    /// ranks scrambled across the id space — see [`crate::zipf`].
    Zipf {
        /// Skew exponent (`1.2` ≈ strongly skewed web traffic).
        exponent: f64,
    },
    /// Round-robin over the `size` highest **in-degree** nodes — the
    /// adversarial shape: repeated queries against the most expensive
    /// neighborhoods in the graph.
    ///
    /// **Pinned behavior:** the hot set is computed once, from the
    /// scenario's *initial* snapshot, and never recomputed as the paced
    /// writer mutates degrees mid-run. This keeps the key sequence a pure
    /// function of `(base, scenario, seed)` and models the realistic
    /// adversary, who floods the keys that were hot when the flood
    /// started. The regression test
    /// `hot_flood_hot_set_is_pinned_to_the_initial_snapshot` guards this.
    HotSet {
        /// How many top-degree nodes the flood cycles through.
        size: usize,
    },
    /// Sequential wrap-around over node ids — the scan/bulk-export shape.
    Scan,
}

/// How a scenario's requests arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalShape {
    /// Open-loop arrivals (requests never wait for the server) at
    /// `load_factor ×` calibrated capacity, with the
    /// [`open_loop_arrivals`] burstiness knob.
    OpenLoop {
        /// Offered rate as a multiple of calibrated capacity (1.0 = the
        /// saturation knee).
        load_factor: f64,
        /// Fraction of arrivals that land coincident with their
        /// predecessor (mean rate preserved) — see [`open_loop_arrivals`].
        burstiness: f64,
    },
    /// Closed-loop clients: each submits, waits for the answer, then
    /// submits the next ([`Frontend::run_closed_loop`]). Self-throttling —
    /// the bulk/batch shape.
    ClosedLoop {
        /// Number of concurrent clients.
        clients: usize,
    },
    /// Open-loop segments back to back through one store and one
    /// front-end, one per load factor, each spanning
    /// [`ScenarioScale::segment`]; the report carries each segment's
    /// [`Outcomes`].
    Ramp {
        /// Offered rate of each segment, as multiples of calibrated
        /// capacity.
        load_factors: &'static [f64],
        /// The [`open_loop_arrivals`] burstiness knob of every segment.
        burstiness: f64,
    },
}

/// The outcome ceilings a scenario's run is gated on ([`violations`]):
/// conservative per-shape ranges — a closed-loop scan can never reject,
/// below-knee open loops must shed almost nothing, a flood must still
/// answer something.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ceilings {
    /// Highest allowed fraction of submissions rejected at admission.
    pub max_reject_rate: f64,
    /// Highest allowed fraction of accepted requests expiring in queue.
    pub max_deadline_miss_rate: f64,
}

impl Ceilings {
    /// The ceilings as gated at the given scale. The scenario deadlines
    /// are generous vs. worst-case queueing, so even at CI (`smoke`) scale
    /// overload must surface as cheap rejection, never as a majority of
    /// accepted-then-expired requests — that would mean the deadline
    /// machinery is broken.
    pub fn gated(self, smoke: bool) -> Self {
        Self {
            max_deadline_miss_rate: if smoke {
                self.max_deadline_miss_rate.min(0.5)
            } else {
                self.max_deadline_miss_rate
            },
            ..self
        }
    }
}

/// A named, declarative workload scenario. Build them via [`catalog`].
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable snake_case name.
    pub name: &'static str,
    /// One-line description of what the scenario models.
    pub about: &'static str,
    /// Query-key distribution.
    pub keys: KeyDist,
    /// Arrival process.
    pub arrivals: ArrivalShape,
    /// Graph updates committed per query request (traffic mix knob): the
    /// writer paces `requests × updates_per_query` effective updates
    /// across the scenario's expected duration.
    pub updates_per_query: f64,
    /// Fraction of those updates that are removals.
    pub remove_fraction: f64,
    /// The outcome ceilings its runs are gated on.
    pub ceilings: Ceilings,
}

/// The named-scenario catalog: the seven workload shapes the serving stack
/// is regression-gated on. Names are stable — the bin's table and the
/// catalog unit test key on them.
pub fn catalog() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "read_heavy",
            about: "interactive browsing: almost-pure uniform queries below the knee",
            keys: KeyDist::Uniform,
            arrivals: ArrivalShape::OpenLoop {
                load_factor: 0.7,
                burstiness: 0.05,
            },
            updates_per_query: 0.02,
            remove_fraction: 0.3,
            ceilings: Ceilings {
                max_reject_rate: 0.25,
                max_deadline_miss_rate: 0.1,
            },
        },
        Scenario {
            name: "update_heavy",
            about: "ingest-dominated: ~2 committed graph updates per query",
            keys: KeyDist::Uniform,
            arrivals: ArrivalShape::OpenLoop {
                load_factor: 0.5,
                burstiness: 0.05,
            },
            updates_per_query: 2.0,
            remove_fraction: 0.3,
            ceilings: Ceilings {
                max_reject_rate: 0.25,
                max_deadline_miss_rate: 1.0,
            },
        },
        Scenario {
            name: "zipf_hot",
            about: "power-law key skew: a handful of nodes absorb most queries",
            keys: KeyDist::Zipf { exponent: 1.2 },
            // Skew shifts the knee: the hot keys are not average-cost
            // keys, so the same nominal load sits closer to saturation
            // than a uniform mix would; the offered load acknowledges it.
            arrivals: ArrivalShape::OpenLoop {
                load_factor: 0.6,
                burstiness: 0.1,
            },
            updates_per_query: 0.1,
            remove_fraction: 0.3,
            ceilings: Ceilings {
                max_reject_rate: 0.25,
                max_deadline_miss_rate: 1.0,
            },
        },
        Scenario {
            name: "bursty",
            about: "diurnal/thundering-herd arrivals at constant mean rate",
            keys: KeyDist::Uniform,
            arrivals: ArrivalShape::OpenLoop {
                load_factor: 0.9,
                burstiness: 0.7,
            },
            updates_per_query: 0.1,
            remove_fraction: 0.3,
            ceilings: Ceilings {
                max_reject_rate: 0.6,
                max_deadline_miss_rate: 1.0,
            },
        },
        Scenario {
            name: "batch_scan",
            about: "closed-loop bulk clients scanning the key space in id order",
            keys: KeyDist::Scan,
            arrivals: ArrivalShape::ClosedLoop { clients: 4 },
            updates_per_query: 0.05,
            remove_fraction: 0.3,
            ceilings: Ceilings {
                max_reject_rate: 0.0,
                max_deadline_miss_rate: 0.0,
            },
        },
        Scenario {
            name: "hot_flood",
            about: "adversarial flood of the highest in-degree nodes at 1.6x capacity",
            keys: KeyDist::HotSet { size: 4 },
            arrivals: ArrivalShape::OpenLoop {
                load_factor: 1.6,
                burstiness: 0.3,
            },
            updates_per_query: 0.1,
            remove_fraction: 0.3,
            ceilings: Ceilings {
                max_reject_rate: 0.95,
                max_deadline_miss_rate: 1.0,
            },
        },
        Scenario {
            name: "ramp",
            about: "0.5x to 2.5x capacity ramp; run static and with the SLO controller",
            keys: KeyDist::Uniform,
            // Mildly bursty. Above the knee the static queue pins full;
            // the pair is judged by `ramp_violations`, so a run on its own
            // has no reject or expiry ceiling.
            arrivals: ArrivalShape::Ramp {
                load_factors: &[0.5, 1.0, 1.5, 2.0, 2.5],
                burstiness: 0.1,
            },
            updates_per_query: 0.01,
            remove_fraction: 0.3,
            ceilings: Ceilings {
                max_reject_rate: 1.0,
                max_deadline_miss_rate: 1.0,
            },
        },
    ]
}

/// Size knobs shared by every scenario in one run — the bench bin's
/// `--smoke` flag swaps one of these for a smaller one.
#[derive(Debug, Clone)]
pub struct ScenarioScale {
    /// Requests per scenario (open-loop arrival count / closed-loop
    /// total); a ramp sizes its segments by [`segment`](Self::segment).
    pub requests: usize,
    /// Floor on the update-stream length (so even `read_heavy` exercises
    /// the writer at least one batch's worth).
    pub min_updates: usize,
    /// Cap on the update-stream length (bounds `update_heavy` generation).
    pub max_updates: usize,
    /// Updates per committed batch (one epoch per batch).
    pub updates_per_batch: usize,
    /// Front-end worker threads.
    pub workers: usize,
    /// Admission-queue capacity.
    pub queue_capacity: usize,
    /// `GraphStore` compaction threshold.
    pub compaction_threshold: usize,
    /// Requests in the closed-loop calibration run.
    pub calib_requests: usize,
    /// Concurrent clients in the calibration run.
    pub calib_clients: usize,
    /// Top-k size each answer keeps.
    pub top_k: usize,
    /// Span of one ramp segment (at least 32 arrivals).
    pub segment: Duration,
    /// The SLO controller's tick ([`Calibration::controller`]); a segment
    /// spans at least 16 of them.
    pub tick: Duration,
    /// Extra service time per request, calibration included
    /// ([`FrontendOptions::synthetic_service_delay`]). Zero at full scale.
    /// A tiny graph answers in microseconds, so arrivals at multiples of
    /// its capacity would be due microseconds apart — closer than a
    /// sleeping load generator can pace; this gives every request a cost
    /// that can be paced, and the load factors stay real.
    pub service_delay: Duration,
}

/// Measured service capacity the scenario load factors scale from.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Closed-loop achieved throughput through the front-end.
    pub capacity_qps: f64,
    /// Mean per-request service time (snapshot acquisition + query +
    /// [`ScenarioScale::service_delay`]).
    pub mean_service: Duration,
    /// Nearest-rank p99 of the per-request service times.
    pub service_p99: Duration,
}

impl Calibration {
    /// The deadline of every open-loop request: `4 × queue_capacity ×`
    /// mean service — generous vs. worst-case queueing, so below the knee
    /// nothing expires and overload is *rejected*, not accepted-then-dropped.
    pub fn deadline(&self, scale: &ScenarioScale) -> Duration {
        self.mean_service * 4 * scale.queue_capacity as u32
    }

    /// The p99 latency objective a controlled ramp is held to, anchored
    /// twice: 2× the p99 *service* time (one tail service plus equal
    /// queueing headroom — no controller can shrink the service tail
    /// itself) with a floor of 16× mean service (the p99 of a small
    /// calibration sample is noisy; the mean is not). Both sit far below
    /// what a pinned-full static queue imposes (`queue_capacity ×
    /// mean_service / workers`), so bounding the queue — which shedding
    /// can do — achieves it, and the static configuration above the knee
    /// does not.
    pub fn slo_p99(&self) -> Duration {
        (self.service_p99 * 2).max(self.mean_service * 16)
    }

    /// The SLO controller a ramp runs with: CoDel target 2× mean service,
    /// ticking every [`ScenarioScale::tick`], default hysteresis.
    pub fn controller(&self, scale: &ScenarioScale) -> ControllerOptions {
        ControllerOptions {
            tick: scale.tick,
            target_sojourn: self.mean_service * 2,
            ..ControllerOptions::default()
        }
    }

    /// The verdict rules a calibration breaks (empty = usable): positive
    /// mean and p99 service times, a capacity of at least 0.1 q/s and a
    /// deadline of at least 1 µs. The SLO (≥ 16× mean service) and the
    /// controller target (2× mean) are positive whenever the mean is.
    pub fn violations(&self, scale: &ScenarioScale) -> Vec<String> {
        [
            (!self.mean_service.is_zero(), "mean service time is zero"),
            (!self.service_p99.is_zero(), "p99 service time is zero"),
            (self.capacity_qps >= 0.1, "capacity < 0.1 q/s"),
            (
                self.deadline(scale) >= Duration::from_micros(1),
                "deadline < 1 µs",
            ),
        ]
        .iter()
        .filter(|(holds, _)| !holds)
        .map(|(_, rule)| format!("calibration: {rule}"))
        .collect()
    }
}

/// Calibrates service capacity: a closed-loop run of uniform-key queries
/// through a fresh [`Frontend`] on a quiescent store ([`Frontend::run_closed_loop`]
/// keeps the pipeline full, so the achieved rate *is* the capacity).
///
/// # Panics
/// Panics if calibration traffic is rejected or unanswered (impossible on
/// a healthy quiescent front-end) or if `scale.calib_requests` is 0.
pub fn calibrate(
    engine: &SimPush,
    base: &CsrGraph,
    scale: &ScenarioScale,
    seed: u64,
) -> Calibration {
    assert!(scale.calib_requests > 0, "calibration needs requests");
    let n = base.num_nodes();
    let mut rng = SmallRng::seed_from_u64(seed);
    let keys: Vec<NodeId> = (0..scale.calib_requests)
        .map(|_| rng.gen_range(0..n) as NodeId)
        .collect();
    let store = Arc::new(GraphStore::new(base.clone()));
    let frontend = Frontend::start(
        engine,
        store,
        FrontendOptions::builder()
            .workers(scale.workers)
            .queue_capacity(scale.queue_capacity)
            .default_deadline(None)
            .top_k(scale.top_k)
            .synthetic_service_delay(scale.service_delay)
            .build(),
    );
    let start = Instant::now();
    let outcomes = frontend.run_closed_loop(&keys, scale.calib_clients, Duration::from_secs(60));
    let wall = start.elapsed();
    frontend.shutdown();
    let services = outcomes.iter().map(|outcome| match outcome {
        Ok(QueryOutcome::Answered(r)) => r.service,
        other => panic!("calibration request not answered: {other:?}"),
    });
    let service = LatencySummary::from_samples(services);
    Calibration {
        capacity_qps: scale.calib_requests as f64 / wall.as_secs_f64(),
        mean_service: service.mean(),
        service_p99: service.p99().unwrap_or_default(),
    }
}

/// One answered request, recorded for replay: rebuilding epoch `epoch`'s
/// graph and re-running the seeded query on `node` must reproduce `top`
/// bit for bit.
#[derive(Debug, Clone)]
pub struct AnswerRecord {
    /// The query node.
    pub node: NodeId,
    /// Epoch the answer was computed on (`e` = base + first `e` committed
    /// update batches).
    pub epoch: u64,
    /// The recorded top-k answer.
    pub top: Vec<(NodeId, f64)>,
}

/// What one run, or one ramp segment, did with the requests it drove.
#[derive(Debug, Clone)]
pub struct Outcomes {
    /// Requests driven at the front-end (accepted + rejected).
    pub requests: usize,
    /// Requests accepted into the queue.
    pub accepted: u64,
    /// Submissions rejected at admission (backpressure).
    pub rejected: u64,
    /// Requests answered.
    pub answered: u64,
    /// Accepted requests that expired in queue.
    pub deadline_misses: u64,
    /// Answered requests per second: of wall-clock time for a run, of
    /// scheduled span for a ramp segment.
    pub throughput_qps: f64,
    /// 99th-percentile end-to-end latency (queue wait + service) — for a
    /// ramp segment, of the answers to the arrivals after its warm-up
    /// quarter (steady state); `None` when none was answered.
    pub p99_latency: Option<Duration>,
}

impl Outcomes {
    /// Fraction of submissions rejected at admission.
    pub fn reject_rate(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.rejected as f64 / self.requests as f64
    }

    /// Fraction of *accepted* requests that expired in queue.
    pub fn deadline_miss_rate(&self) -> f64 {
        if self.accepted == 0 {
            return 0.0;
        }
        self.deadline_misses as f64 / self.accepted as f64
    }

    /// Whether reject and miss rates are both at or under `ceilings` —
    /// the same comparison [`violations`] gates on.
    pub fn within(&self, ceilings: &Ceilings) -> bool {
        self.ceiling_rules(ceilings).iter().all(|(holds, _)| *holds)
    }

    /// The two outcome-ceiling rules: reject and miss rates at or under
    /// `ceilings`.
    fn ceiling_rules(&self, ceilings: &Ceilings) -> [(bool, String); 2] {
        let (reject, miss) = (self.reject_rate(), self.deadline_miss_rate());
        let (max_reject, max_miss) = (ceilings.max_reject_rate, ceilings.max_deadline_miss_rate);
        [
            (
                reject <= max_reject,
                format!("reject_rate {reject:.4} > allowed maximum {max_reject}"),
            ),
            (
                miss <= max_miss,
                format!("deadline_miss_rate {miss:.4} > allowed maximum {max_miss}"),
            ),
        ]
    }

    /// The counter rules every run and every ramp segment obeys: it
    /// answered at a positive rate with a p99 sample, and its counters are
    /// consistent.
    fn rules(&self) -> [(bool, String); 5] {
        let Self {
            requests,
            accepted,
            rejected,
            answered,
            deadline_misses,
            throughput_qps,
            p99_latency,
        } = self;
        [
            (*answered >= 1, "answered nothing".to_owned()),
            (
                *throughput_qps >= 0.1,
                format!("throughput {throughput_qps:.3} q/s < 0.1"),
            ),
            (
                p99_latency.is_some_and(|p99| !p99.is_zero()),
                "no p99 latency sample".to_owned(),
            ),
            (
                *rejected <= *requests as u64,
                format!("rejected {rejected} > requests {requests}"),
            ),
            (
                *deadline_misses <= *accepted,
                format!("deadline_misses {deadline_misses} > accepted {accepted}"),
            ),
        ]
    }
}

/// Everything one scenario run produced: SLO metrics plus the replayable
/// answer records and the exact update stream that was committed.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The scenario's stable name.
    pub name: &'static str,
    /// Planned mean offered rate (open loop and ramp; `0.0` for closed
    /// loop, which has no offered rate distinct from its achieved one).
    pub offered_qps: f64,
    /// The committed update stream (exactly what the writer applied, in
    /// order) — the replay handle for [`AnswerRecord`] epochs.
    pub updates: Vec<GraphUpdate>,
    /// Updates per committed batch (epoch `e` ⇔ first `e · batch` updates).
    pub updates_per_batch: usize,
    /// The whole run's counters, throughput and p99 latency.
    pub outcomes: Outcomes,
    /// Median end-to-end latency; `None` when nothing was answered.
    pub p50_latency: Option<Duration>,
    /// Epochs published by the end of the run.
    pub final_epoch: u64,
    /// Replayable records of every answered request, in submission order.
    pub answers: Vec<AnswerRecord>,
    /// `(load factor, outcomes)` of each ramp segment, in order, from the
    /// outcomes of its arrivals (empty unless the scenario is an
    /// [`ArrivalShape::Ramp`]).
    pub segments: Vec<(f64, Outcomes)>,
    /// The controller's decisions, when the run had one.
    pub control: Option<ControlLog>,
}

impl ScenarioReport {
    /// The run's name in tables and verdicts: the scenario name, marked
    /// when a controller was attached.
    pub fn label(&self) -> String {
        match self.control {
            Some(_) => format!("{} controlled", self.name),
            None => self.name.to_owned(),
        }
    }
}

/// Every rule of the scenario verdict that `report` breaks, one message
/// each; empty means the verdict holds. `scenario_serve` exits on it.
///
/// *Shape rules*, every scenario: the run drove requests and updates,
/// published an epoch, answered at a positive rate with a p99 sample, and
/// its counters are consistent — and so does every ramp segment, on its
/// steady-state p99. *Outcome ceilings*: the scenario's [`Ceilings`], as
/// [`gated`](Ceilings::gated) at the run's scale.
pub fn violations(scenario: &Scenario, report: &ScenarioReport, smoke: bool) -> Vec<String> {
    let run = &report.outcomes;
    let rules = [
        (run.requests >= 1, "drove no requests".to_owned()),
        (
            !report.updates.is_empty(),
            "committed no updates".to_owned(),
        ),
        (report.final_epoch >= 1, "published no epoch".to_owned()),
    ]
    .into_iter()
    .chain(run.rules())
    .chain(run.ceiling_rules(&scenario.ceilings.gated(smoke)));
    let label = report.label();
    let mut broken: Vec<String> = rules
        .filter(|(holds, _)| !holds)
        .map(|(_, rule)| format!("{label}: {rule}"))
        .collect();
    for (load_factor, segment) in &report.segments {
        broken.extend(
            segment
                .rules()
                .into_iter()
                .filter(|(holds, _)| !holds)
                .map(|(_, rule)| format!("{label} {load_factor:.1}x: {rule}")),
        );
    }
    broken
}

/// The controlled-vs-static rule of a `ramp` run both ways on the same
/// seed, one message per broken part; empty means it holds.
///
/// Only segments offered at ≥ 1.5× capacity carry it, and
/// there must be one. On each, a **full** run must show the controlled
/// side meeting `slo_p99` (steady-state p99 at or under it) that the
/// static side misses — a static side that meets it means the ramp is not
/// saturating and proves nothing — with controlled p99 no worse than
/// static. A `smoke` run on a CI box is too noisy for an absolute SLO, so
/// there only the sign of the effect is pinned: controlled p99 at most
/// 1.5× static, and at least one tighten. At both scales the controller
/// must have ticked.
pub fn ramp_violations(
    fixed: &ScenarioReport,
    controlled: &ScenarioReport,
    slo_p99: Duration,
    smoke: bool,
) -> Vec<String> {
    let mut broken = Vec::new();
    let high: Vec<_> = fixed
        .segments
        .iter()
        .zip(&controlled.segments)
        .filter(|((load_factor, _), _)| *load_factor >= VERDICT_LOAD - 1e-9)
        .collect();
    if high.is_empty() {
        broken.push(format!("no ramp segment reaches {VERDICT_LOAD}x load"));
    }
    let meets = |seg: &Outcomes| seg.p99_latency.is_some_and(|p99| p99 <= slo_p99);
    for ((load_factor, f), (_, c)) in high {
        let at = format!("ramp {load_factor:.1}x");
        let fixed_p99 = f.p99_latency.unwrap_or_default();
        let controlled_p99 = c.p99_latency.unwrap_or_default();
        if smoke {
            if controlled_p99.as_secs_f64() > 1.5 * fixed_p99.as_secs_f64() {
                broken.push(format!(
                    "{at}: controlled p99 {controlled_p99:.3?} exceeds 1.5x static p99 \
                     {fixed_p99:.3?} — the control plane is not helping"
                ));
            }
            continue;
        }
        if controlled_p99 > fixed_p99 {
            broken.push(format!(
                "{at}: controlled p99 {controlled_p99:.3?} exceeds static p99 {fixed_p99:.3?}"
            ));
        }
        if !meets(c) {
            broken.push(format!(
                "{at}: controlled run misses the p99 SLO ({controlled_p99:.3?} > {slo_p99:.3?})"
            ));
        }
        if meets(f) {
            broken.push(format!(
                "{at}: static run meets the p99 SLO — the ramp is not saturating and proves nothing"
            ));
        }
    }
    let log = controlled.control.clone().unwrap_or_default();
    if log.ticks == 0 {
        broken.push("controller never ticked".to_owned());
    }
    if smoke && log.tighten_count() == 0 {
        broken.push("controller never tightened under a 2.5x overload ramp".to_owned());
    }
    broken
}

/// The `size` highest in-degree nodes of `g`, ties broken toward smaller
/// ids — the deterministic hot set [`KeyDist::HotSet`] floods.
///
/// # Panics
/// Panics if `size` is 0 or exceeds the node count.
pub fn hottest_in_degree_nodes<G: GraphView>(g: &G, size: usize) -> Vec<NodeId> {
    assert!(size > 0, "hot set must be non-empty");
    assert!(size <= g.num_nodes(), "hot set larger than the graph");
    let mut nodes: Vec<NodeId> = g.nodes().collect();
    nodes.sort_by(|&a, &b| g.in_degree(b).cmp(&g.in_degree(a)).then(a.cmp(&b)));
    nodes.truncate(size);
    nodes
}

/// Materializes the scenario's deterministic key sequence from the
/// **initial** base graph — [`KeyDist::HotSet`]'s hot set is derived here,
/// once, and stays fixed while the run's writer mutates degrees (the
/// pinned behavior documented on the variant).
fn key_sequence(scenario: &Scenario, base: &CsrGraph, count: usize, seed: u64) -> Vec<NodeId> {
    let n = base.num_nodes();
    match scenario.keys {
        KeyDist::Uniform => {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..count).map(|_| rng.gen_range(0..n) as NodeId).collect()
        }
        KeyDist::Zipf { exponent } => ZipfKeys::new(n, exponent, seed).take_keys(count),
        KeyDist::HotSet { size } => {
            let hot = hottest_in_degree_nodes(base, size.min(n));
            (0..count).map(|i| hot[i % hot.len()]).collect()
        }
        KeyDist::Scan => (0..count).map(|i| (i % n) as NodeId).collect(),
    }
}

/// The open-loop arrival schedule of `arrivals` (empty for a closed loop)
/// and, for a ramp, each segment's load factor and end index into it.
fn arrival_schedule(
    arrivals: ArrivalShape,
    scale: &ScenarioScale,
    capacity_qps: f64,
    seed: u64,
) -> (Vec<Duration>, Vec<(f64, usize)>) {
    let mut schedule: Vec<Duration> = Vec::new();
    let mut append = |load_factor: f64, count: usize, burstiness: f64, seed: u64| {
        let mean_gap = Duration::from_secs_f64(1.0 / (load_factor * capacity_qps));
        let start = schedule.last().copied().unwrap_or_default();
        let segment = open_loop_arrivals(count, mean_gap, burstiness, seed);
        schedule.extend(segment.into_iter().map(|offset| start + offset));
        schedule.len()
    };
    let mut segments = Vec::new();
    match arrivals {
        ArrivalShape::OpenLoop {
            load_factor,
            burstiness,
        } => {
            append(load_factor, scale.requests, burstiness, seed);
        }
        ArrivalShape::Ramp {
            load_factors,
            burstiness,
        } => {
            for (k, &load_factor) in load_factors.iter().enumerate() {
                let offered = load_factor * capacity_qps;
                let count = ((offered * scale.segment.as_secs_f64()) as usize).max(32);
                let end = append(load_factor, count, burstiness, seed.wrapping_add(k as u64));
                segments.push((load_factor, end));
            }
        }
        ArrivalShape::ClosedLoop { .. } => {}
    }
    (schedule, segments)
}

/// `count` per second of `span`; 0 over an empty span.
fn rate(count: u64, span: Duration) -> f64 {
    if span.is_zero() {
        0.0
    } else {
        count as f64 / span.as_secs_f64()
    }
}

/// Each ramp segment's `(load factor, outcomes)` from the run's
/// `(arrival index, outcome)` pairs (accepted arrivals only, in arrival
/// order).
fn segment_outcomes(
    schedule: &[Duration],
    segments: &[(f64, usize)],
    outcomes: &[(usize, QueryOutcome)],
) -> Vec<(f64, Outcomes)> {
    let mut begin = 0;
    let mut stats = Vec::with_capacity(segments.len());
    for &(load_factor, end) in segments {
        let steady_from = begin + ((end - begin) as f64 * WARMUP_FRACTION) as usize;
        let lo = outcomes.partition_point(|(i, _)| *i < begin);
        let hi = outcomes.partition_point(|(i, _)| *i < end);
        let (mut answered, mut deadline_misses) = (0, 0);
        let mut steady = Vec::new();
        for (i, outcome) in &outcomes[lo..hi] {
            match outcome {
                QueryOutcome::Answered(r) => {
                    answered += 1;
                    if *i >= steady_from {
                        steady.push(r.queue_wait + r.service);
                    }
                }
                QueryOutcome::DeadlineMissed { .. } => deadline_misses += 1,
                QueryOutcome::Failed { .. } => {}
            }
        }
        let span = schedule[end - 1] - begin.checked_sub(1).map_or(Duration::ZERO, |i| schedule[i]);
        let accepted = (hi - lo) as u64;
        let segment = Outcomes {
            requests: end - begin,
            accepted,
            rejected: (end - begin) as u64 - accepted,
            answered,
            deadline_misses,
            throughput_qps: rate(answered, span),
            p99_latency: LatencySummary::from_samples(steady).p99(),
        };
        stats.push((load_factor, segment));
        begin = end;
    }
    stats
}

/// The open-loop load generator: sleeps to each arrival offset (measured
/// from `start`), `try_submit`s that arrival's key and never waits for the
/// server; a rejected submission is dropped (the front-end counts it).
/// Returns the outcome of every *accepted* arrival with its index, in
/// arrival order; the tickets are waited on once every arrival is in.
///
/// # Panics
/// Panics if `keys` is shorter than `arrivals`.
fn submit_open_loop(
    frontend: &Frontend,
    start: Instant,
    arrivals: &[Duration],
    keys: &[NodeId],
) -> Vec<(usize, QueryOutcome)> {
    let mut tickets = Vec::with_capacity(arrivals.len());
    for (i, &offset) in arrivals.iter().enumerate() {
        let target = start + offset;
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
        tickets.extend(frontend.try_submit(keys[i]).ok().map(|ticket| (i, ticket)));
    }
    tickets
        .into_iter()
        .map(|(i, ticket)| (i, ticket.wait()))
        .collect()
}

/// Runs one scenario through a fresh store + [`Frontend`], with a paced
/// writer committing the scenario's update stream throughout and, when
/// `controller` is `Some`, a [`Controller`] setting the front-end's
/// admission quota for the whole run (so a ramp's controller state carries
/// across its load levels; the report carries its [`ControlLog`]).
///
/// Deterministic inputs: same `(engine config, base, scenario, scale,
/// calibration, seed)` produce the same update stream, key sequence and
/// (for open loop and ramp) arrival schedule, with or without a
/// controller. The run asserts that the final store state equals a
/// sequential replay of the update stream, so a scenario can never
/// silently diverge from its own workload.
///
/// # Panics
/// Panics on internal serving-contract violations (a worker failure, a
/// store diverging from replay) — never on SLO misses, which are data.
pub fn run_scenario(
    engine: &SimPush,
    base: &CsrGraph,
    scenario: &Scenario,
    scale: &ScenarioScale,
    calibration: &Calibration,
    seed: u64,
    controller: Option<ControllerOptions>,
) -> ScenarioReport {
    let (schedule, segments) = arrival_schedule(
        scenario.arrivals,
        scale,
        calibration.capacity_qps,
        seed.wrapping_add(2),
    );
    let closed_loop = match scenario.arrivals {
        ArrivalShape::ClosedLoop { clients } => Some(clients),
        _ => None,
    };
    let requests = match closed_loop {
        Some(_) => scale.requests,
        None => schedule.len(),
    };
    let num_updates = ((requests as f64 * scenario.updates_per_query) as usize)
        .clamp(scale.min_updates, scale.max_updates);
    let workload: MixedWorkload =
        mixed_workload(base, num_updates, 0, scenario.remove_fraction, seed);
    let keys = key_sequence(scenario, base, requests, seed.wrapping_add(1));

    // Expected duration, used only to pace the writer: open loop knows its
    // schedule span; closed loop is estimated from calibrated capacity.
    let (offered_qps, expected_wall) = match schedule.last() {
        Some(&span) => (requests as f64 / span.as_secs_f64(), span),
        None => (
            0.0,
            Duration::from_secs_f64(requests as f64 / calibration.capacity_qps.max(1.0)),
        ),
    };

    let store = Arc::new(GraphStore::with_compaction_threshold(
        base.clone(),
        scale.compaction_threshold,
    ));
    let frontend = Frontend::start(
        engine,
        store.clone(),
        FrontendOptions::builder()
            .workers(scale.workers)
            .queue_capacity(scale.queue_capacity)
            .default_deadline(closed_loop.is_none().then(|| calibration.deadline(scale)))
            .top_k(scale.top_k)
            .synthetic_service_delay(scale.service_delay)
            .build(),
    );
    let controller = controller
        .map(|opts| Controller::start(frontend.observer(), frontend.admission_quota(), opts));

    // Writer: pace the whole update stream across the expected duration so
    // epochs advance under live traffic.
    let writer = {
        let store = store.clone();
        let updates = workload.updates.clone();
        let batch = scale.updates_per_batch;
        let num_batches = updates.len().div_ceil(batch).max(1);
        let pace = expected_wall / num_batches as u32;
        std::thread::spawn(move || {
            for chunk in updates.chunks(batch) {
                store.commit(chunk);
                std::thread::sleep(pace);
            }
        })
    };

    // Drive the traffic and collect (arrival index, outcome) pairs in
    // submission order.
    let start = Instant::now();
    let outcomes: Vec<(usize, QueryOutcome)> = match closed_loop {
        None => submit_open_loop(&frontend, start, &schedule, &keys),
        Some(clients) => frontend
            .run_closed_loop(&keys, clients, Duration::from_secs(60))
            .into_iter()
            .map(|r| r.expect("closed-loop admission cannot time out at these scales"))
            .enumerate()
            .collect(),
    };
    let wall = start.elapsed();
    writer.join().expect("scenario writer panicked");
    let control = controller.map(Controller::stop);
    let stats = frontend.shutdown();
    assert_eq!(
        stats.accepted + stats.rejected,
        requests as u64,
        "every submission is accepted or rejected"
    );

    // The store must end exactly where a sequential replay of the stream
    // ends — a diverged scenario would be benchmarking a different graph.
    let final_snapshot = store.snapshot();
    let final_epoch = final_snapshot.epoch();
    assert_eq!(
        final_snapshot.to_csr(),
        workload.final_graph(base),
        "scenario {}: store diverged from sequential replay",
        scenario.name
    );

    let segments = segment_outcomes(&schedule, &segments, &outcomes);
    let mut latencies = Vec::with_capacity(outcomes.len());
    let mut answers = Vec::with_capacity(outcomes.len());
    for (_, outcome) in outcomes {
        match outcome {
            QueryOutcome::Answered(r) => {
                latencies.push(r.queue_wait + r.service);
                answers.push(AnswerRecord {
                    node: r.node,
                    epoch: r.epoch,
                    top: r.top,
                });
            }
            QueryOutcome::DeadlineMissed { .. } => {}
            QueryOutcome::Failed { node } => panic!("worker failed serving node {node}"),
        }
    }
    let latency_summary = LatencySummary::from_samples(latencies);

    ScenarioReport {
        name: scenario.name,
        offered_qps,
        updates: workload.updates,
        updates_per_batch: scale.updates_per_batch,
        outcomes: Outcomes {
            requests,
            accepted: stats.accepted,
            rejected: stats.rejected,
            answered: stats.answered,
            deadline_misses: stats.deadline_misses,
            throughput_qps: rate(stats.answered, wall),
            p99_latency: latency_summary.p99(),
        },
        p50_latency: latency_summary.p50(),
        final_epoch,
        answers,
        segments,
        control,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simpush::{Config, ControlReason, ControlRecord, TickObservation};
    use simrank_graph::gen;

    fn tiny_scale() -> ScenarioScale {
        ScenarioScale {
            requests: 40,
            min_updates: 8,
            max_updates: 64,
            updates_per_batch: 8,
            workers: 2,
            queue_capacity: 16,
            compaction_threshold: 32,
            calib_requests: 20,
            calib_clients: 4,
            top_k: 2,
            segment: Duration::from_millis(20),
            tick: Duration::from_millis(1),
            service_delay: Duration::ZERO,
        }
    }

    fn named(name: &str) -> Scenario {
        catalog().into_iter().find(|s| s.name == name).unwrap()
    }

    #[test]
    fn catalog_names_are_unique_and_cover_the_required_matrix() {
        let scenarios = catalog();
        assert!(scenarios.len() >= 7, "the matrix needs at least 7 entries");
        let names: Vec<&str> = scenarios.iter().map(|s| s.name).collect();
        for required in [
            "read_heavy",
            "update_heavy",
            "zipf_hot",
            "bursty",
            "batch_scan",
            "hot_flood",
            "ramp",
        ] {
            assert!(names.contains(&required), "catalog is missing {required}");
        }
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "duplicate scenario names");
        // Shape sanity, so no scenario can be quietly de-fanged: the flood
        // is offered well past capacity, the below-knee shapes stay below
        // the knee, the burst knob is meaningfully high in `bursty`,
        // `batch_scan` is the one closed-loop entry and the ramp climbs
        // from below the knee past the verdict load on the calibration's
        // own key distribution.
        for s in &scenarios {
            for ceiling in [
                s.ceilings.max_reject_rate,
                s.ceilings.max_deadline_miss_rate,
            ] {
                assert!(
                    (0.0..=1.0).contains(&ceiling),
                    "{}: a ceiling is a rate",
                    s.name
                );
            }
            let (load_factor, burstiness) = match s.arrivals {
                ArrivalShape::OpenLoop {
                    load_factor,
                    burstiness,
                } => (load_factor, burstiness),
                // NaN is outside every range below: a scenario pinned as
                // open loop fails if it turns closed loop or ramp.
                _ => (f64::NAN, f64::NAN),
            };
            match s.name {
                "hot_flood" => {
                    assert!(load_factor >= 1.2, "a flood must exceed capacity");
                    assert!(matches!(s.keys, KeyDist::HotSet { size } if size >= 1));
                }
                "bursty" => {
                    assert!((0.5..=1.0).contains(&load_factor));
                    assert!(burstiness >= 0.5, "bursty needs a high burst knob");
                }
                "batch_scan" => {
                    assert!(
                        matches!(s.arrivals, ArrivalShape::ClosedLoop { clients } if clients >= 2)
                    );
                    assert_eq!(s.keys, KeyDist::Scan);
                }
                "zipf_hot" => {
                    assert!((0.3..=0.99).contains(&load_factor));
                    assert!(matches!(s.keys, KeyDist::Zipf { exponent } if exponent >= 1.0));
                }
                "update_heavy" => {
                    assert!((0.2..=0.99).contains(&load_factor));
                    assert!(s.updates_per_query >= 1.0);
                }
                "read_heavy" => {
                    assert!((0.3..=0.99).contains(&load_factor));
                    assert!(s.updates_per_query <= 0.1);
                }
                "ramp" => {
                    let ArrivalShape::Ramp { load_factors, .. } = s.arrivals else {
                        panic!("ramp must be a ramp");
                    };
                    assert!(load_factors[0] < 1.0, "the ramp starts below the knee");
                    assert!(load_factors.iter().any(|&l| l >= VERDICT_LOAD));
                    assert_eq!(s.keys, KeyDist::Uniform);
                }
                _ => {}
            }
        }
    }

    /// 100 requests, all answered, with the given p99.
    fn healthy(p99: Duration) -> Outcomes {
        Outcomes {
            requests: 100,
            accepted: 100,
            rejected: 0,
            answered: 100,
            deadline_misses: 0,
            throughput_qps: 50.0,
            p99_latency: Some(p99),
        }
    }

    /// A report no rule objects to: everything offered was answered.
    fn clean_report(scenario: &Scenario) -> ScenarioReport {
        ScenarioReport {
            name: scenario.name,
            offered_qps: 0.0,
            updates: vec![GraphUpdate::Insert(0, 1)],
            updates_per_batch: 1,
            outcomes: healthy(Duration::from_millis(2)),
            p50_latency: Some(Duration::from_millis(1)),
            final_epoch: 1,
            answers: Vec::new(),
            segments: Vec::new(),
            control: None,
        }
    }

    /// `clean_report` with `rejected` of its 100 requests shed at admission
    /// and `expired` of the accepted ones missing their deadline.
    fn shedding(scenario: &Scenario, rejected: u64, expired: u64) -> ScenarioReport {
        let clean = clean_report(scenario);
        ScenarioReport {
            outcomes: Outcomes {
                accepted: 100 - rejected,
                rejected,
                answered: 100 - rejected - expired,
                deadline_misses: expired,
                ..clean.outcomes
            },
            ..clean
        }
    }

    #[test]
    fn violations_pin_every_outcome_ceiling_on_both_sides() {
        let scenarios = catalog();
        let named = |name: &str| scenarios.iter().find(|s| s.name == name).unwrap();
        for s in &scenarios {
            for smoke in [false, true] {
                let broken = violations(s, &clean_report(s), smoke);
                assert!(broken.is_empty(), "{broken:?}");
            }
        }
        // (scenario, rate, counts just inside the ceiling, counts just past).
        for (name, rate, inside, past) in [
            ("read_heavy", "reject_rate", (25, 0), (26, 0)),
            ("read_heavy", "deadline_miss_rate", (0, 10), (0, 11)),
            ("update_heavy", "reject_rate", (25, 0), (26, 0)),
            ("zipf_hot", "reject_rate", (25, 0), (26, 0)),
            ("bursty", "reject_rate", (60, 0), (61, 0)),
            ("batch_scan", "reject_rate", (0, 0), (1, 0)),
            ("batch_scan", "deadline_miss_rate", (0, 0), (0, 1)),
            ("hot_flood", "reject_rate", (95, 0), (96, 0)),
        ] {
            let s = named(name);
            let broken = violations(s, &shedding(s, inside.0, inside.1), false);
            assert!(broken.is_empty(), "{broken:?}");
            let broken = violations(s, &shedding(s, past.0, past.1), false);
            assert_eq!(broken.len(), 1, "{broken:?}");
            assert!(
                broken[0].starts_with(name) && broken[0].contains(rate),
                "{broken:?}"
            );
        }
        // A majority of accepted requests expiring is a smoke-only rule.
        let s = named("update_heavy");
        assert!(violations(s, &shedding(s, 0, 60), false).is_empty());
        assert!(violations(s, &shedding(s, 0, 50), true).is_empty());
        let broken = violations(s, &shedding(s, 0, 60), true);
        assert_eq!(broken.len(), 1, "{broken:?}");
        assert!(broken[0].contains("deadline_miss_rate 0.6000 > allowed maximum 0.5"));
    }

    #[test]
    fn violations_flag_every_shape_rule_whatever_the_scenario() {
        type Mutation = fn(&mut ScenarioReport);
        let rules: [(Mutation, &str); 8] = [
            (|r| r.outcomes.requests = 0, "drove no requests"),
            (|r| r.updates.clear(), "committed no updates"),
            (|r| r.final_epoch = 0, "published no epoch"),
            (|r| r.outcomes.answered = 0, "answered nothing"),
            (
                |r| r.outcomes.throughput_qps = 0.09,
                "throughput 0.090 q/s < 0.1",
            ),
            (|r| r.outcomes.p99_latency = None, "no p99 latency sample"),
            (|r| r.outcomes.rejected = 101, "rejected 101 > requests 100"),
            (
                |r| r.outcomes.deadline_misses = 101,
                "deadline_misses 101 > accepted 100",
            ),
        ];
        for s in catalog() {
            for (mutate, rule) in rules {
                let mut report = clean_report(&s);
                mutate(&mut report);
                let broken = violations(&s, &report, false);
                assert!(
                    broken.iter().any(|v| *v == format!("{}: {rule}", s.name)),
                    "{rule}: {broken:?}"
                );
            }
        }
    }

    #[test]
    fn a_calibration_must_be_positive() {
        // Deadline = 4 × 16 queue slots × mean: 16 ns is the shortest mean
        // whose deadline reaches 1 µs.
        let scale = tiny_scale();
        let ns = Duration::from_nanos(1);
        let measured = Calibration {
            capacity_qps: 0.1,
            mean_service: ns * 16,
            service_p99: ns,
        };
        assert!(measured.violations(&scale).is_empty());
        let broken = Calibration {
            capacity_qps: 0.09,
            mean_service: Duration::ZERO,
            service_p99: Duration::ZERO,
        }
        .violations(&scale);
        assert_eq!(
            broken,
            [
                "calibration: mean service time is zero",
                "calibration: p99 service time is zero",
                "calibration: capacity < 0.1 q/s",
                "calibration: deadline < 1 µs",
            ]
        );
        // The deadline rule on its own.
        let short = Calibration {
            mean_service: measured.mean_service - ns,
            ..measured
        };
        assert_eq!(short.violations(&scale), ["calibration: deadline < 1 µs"]);
        // The SLO (max of 2× service p99 and 16× mean) and the controller
        // target (2× mean) are anchored on it.
        let tail = Calibration {
            service_p99: ns * 144,
            ..measured
        };
        assert_eq!((measured.slo_p99(), tail.slo_p99()), (ns * 256, ns * 288));
        assert_eq!(measured.controller(&scale).target_sojourn, ns * 32);
    }

    const SLO: Duration = Duration::from_micros(100);

    /// A log of `ticks` ticks whose only actuations are `tightens` tightens.
    fn log(ticks: u64, tightens: u64) -> ControlLog {
        let record = |tick| ControlRecord {
            tick,
            observation: TickObservation {
                sojourn_p99: None,
                queue_depth: 0,
            },
            quota: Some(1),
            reason: ControlReason::Tighten,
        };
        ControlLog {
            records: (1..=tightens).map(record).collect(),
            ticks,
        }
    }

    /// The static and controlled ramp reports of `(load, static p99 µs,
    /// controlled p99 µs)` segments, the controlled one carrying `log`.
    fn pair(segments: &[(f64, u64, u64)], log: ControlLog) -> (ScenarioReport, ScenarioReport) {
        let side = |p99: fn(&(f64, u64, u64)) -> u64, control| ScenarioReport {
            segments: segments
                .iter()
                .map(|s| (s.0, healthy(Duration::from_micros(p99(s)))))
                .collect(),
            control,
            ..clean_report(&named("ramp"))
        };
        (side(|s| s.1, None), side(|s| s.2, Some(log)))
    }

    #[track_caller]
    fn assert_broken(broken: &[String], rules: &[&str]) {
        assert_eq!(broken.len(), rules.len(), "{broken:?}");
        for (got, want) in broken.iter().zip(rules) {
            assert!(got.contains(want), "{got:?} does not name {want:?}");
        }
    }

    #[test]
    fn smoke_pins_only_the_sign_of_the_effect() {
        // Static saturated far past the SLO, controlled at 1.5× static and
        // missing the SLO too: fine at smoke scale.
        let (f, c) = pair(&[(0.5, 50, 50), (1.5, 400, 600)], log(10, 1));
        assert_broken(&ramp_violations(&f, &c, SLO, true), &[]);
        let (f, c) = pair(&[(1.5, 400, 640)], log(10, 1));
        assert_broken(
            &ramp_violations(&f, &c, SLO, true),
            &["ramp 1.5x: controlled p99 640.000µs exceeds 1.5x static p99 400.000µs"],
        );
        let (f, c) = pair(&[(0.5, 50, 50), (1.5, 400, 600)], log(10, 0));
        assert_broken(
            &ramp_violations(&f, &c, SLO, true),
            &["controller never tightened"],
        );
    }

    #[test]
    fn full_run_holds_the_slo_verdict_on_every_high_ramp_segment() {
        let (f, c) = pair(
            &[(1.0, 90, 200), (1.5, 400, 100), (2.5, 900, 80)],
            log(10, 0),
        );
        assert_broken(&ramp_violations(&f, &c, SLO, false), &[]);
        let (f, c) = pair(&[(2.0, 400, 101)], log(10, 3));
        assert_broken(
            &ramp_violations(&f, &c, SLO, false),
            &["ramp 2.0x: controlled run misses the p99 SLO"],
        );
        let (f, c) = pair(&[(1.5, 100, 60)], log(10, 3));
        assert_broken(
            &ramp_violations(&f, &c, SLO, false),
            &["ramp 1.5x: static run meets the p99 SLO"],
        );
        let (f, c) = pair(&[(1.5, 150, 160)], log(10, 3));
        assert_broken(
            &ramp_violations(&f, &c, SLO, false),
            &["exceeds static p99", "controlled run misses the p99 SLO"],
        );
    }

    #[test]
    fn only_ramp_segments_at_verdict_load_carry_the_verdict() {
        // Segments below the verdict load that would break every headline
        // rule: the ramp never reaches the comparison load.
        let (f, c) = pair(&[(0.5, 50, 900), (1.4, 50, 900)], log(10, 1));
        for smoke in [false, true] {
            assert_broken(
                &ramp_violations(&f, &c, SLO, smoke),
                &["no ramp segment reaches 1.5x load"],
            );
        }
    }

    #[test]
    fn every_segment_must_have_answered_on_both_sides_and_the_controller_ticked() {
        let (mut fixed, mut controlled) = pair(&[(0.5, 50, 50), (1.5, 400, 90)], log(0, 0));
        fixed.segments[0].1.rejected = 101;
        fixed.segments[0].1.deadline_misses = 101;
        controlled.segments[0].1 = Outcomes {
            answered: 0,
            throughput_qps: 0.0,
            p99_latency: None,
            ..healthy(SLO)
        };
        let ramp = named("ramp");
        assert_broken(
            &violations(&ramp, &fixed, false),
            &[
                "ramp 0.5x: rejected 101 > requests 100",
                "ramp 0.5x: deadline_misses 101 > accepted 100",
            ],
        );
        assert_broken(
            &violations(&ramp, &controlled, false),
            &[
                "ramp controlled 0.5x: answered nothing",
                "ramp controlled 0.5x: throughput 0.000 q/s < 0.1",
                "ramp controlled 0.5x: no p99 latency sample",
            ],
        );
        assert_broken(
            &ramp_violations(&fixed, &controlled, SLO, false),
            &["controller never ticked"],
        );
    }

    #[test]
    fn hottest_nodes_are_sorted_by_in_degree_with_id_tiebreak() {
        // Star-ish graph: node 5 has in-degree 3, node 2 has 2, nodes
        // 0 and 1 have 1 each (tie → smaller id first).
        let g = simrank_graph::GraphBuilder::new()
            .with_num_nodes(6)
            .with_edges([(0, 5), (1, 5), (2, 5), (3, 2), (4, 2), (5, 0), (2, 1)])
            .build();
        assert_eq!(hottest_in_degree_nodes(&g, 4), vec![5, 2, 0, 1]);
    }

    #[test]
    fn key_sequences_are_deterministic_and_in_range() {
        let g = gen::gnm(60, 300, 4);
        for scenario in catalog() {
            let a = key_sequence(&scenario, &g, 100, 9);
            let b = key_sequence(&scenario, &g, 100, 9);
            assert_eq!(a, b, "{}: same seed, same keys", scenario.name);
            assert_eq!(a.len(), 100);
            assert!(
                a.iter().all(|&k| (k as usize) < 60),
                "{}: key out of range",
                scenario.name
            );
        }
    }

    #[test]
    fn hot_set_keys_cycle_the_top_degree_nodes() {
        let g = gen::gnm(50, 400, 8);
        let scenario = Scenario {
            keys: KeyDist::HotSet { size: 3 },
            ..named("hot_flood")
        };
        let keys = key_sequence(&scenario, &g, 30, 1);
        let hot = hottest_in_degree_nodes(&g, 3);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(k, hot[i % 3]);
        }
    }

    #[test]
    fn closed_loop_scenario_runs_deterministic_workload_end_to_end() {
        let base = gen::gnm(80, 400, 5);
        let engine = SimPush::new(Config::new(0.05));
        let scale = tiny_scale();
        let calibration = calibrate(&engine, &base, &scale, 3);
        assert!(calibration.violations(&scale).is_empty());

        let scenario = named("batch_scan");
        let report = run_scenario(&engine, &base, &scenario, &scale, &calibration, 11, None);
        let run = &report.outcomes;
        assert_eq!(run.requests, 40);
        assert_eq!(run.accepted, 40, "closed loop never rejects");
        assert_eq!(run.answered, 40);
        assert_eq!(run.deadline_misses, 0);
        assert_eq!(report.answers.len(), 40);
        assert!(run.within(&scenario.ceilings));
        assert!(run.throughput_qps > 0.0);
        assert!(run.p99_latency.is_some());
        assert!(report.p50_latency <= run.p99_latency);
        assert!(report.segments.is_empty() && report.control.is_none());
        // Scan keys: submission order is id order, wrap-around.
        for (i, rec) in report.answers.iter().enumerate() {
            assert_eq!(rec.node as usize, i % 80);
        }
        // The update stream is the seed-deterministic one.
        let expected = mixed_workload(&base, 8, 0, scenario.remove_fraction, 11);
        assert_eq!(report.updates, expected.updates);
    }

    #[test]
    fn hot_flood_hot_set_is_pinned_to_the_initial_snapshot() {
        let base = gen::gnm(80, 400, 5);
        let engine = SimPush::new(Config::new(0.05));
        let scale = tiny_scale();
        let calibration = calibrate(&engine, &base, &scale, 3);
        let scenario = named("hot_flood");
        let KeyDist::HotSet { size } = scenario.keys else {
            panic!("hot_flood must flood a hot set");
        };
        // The pinned contract: keys come from the *initial* base's top
        // in-degree nodes, even though the paced writer mutates degrees
        // throughout the run.
        let initial_hot = hottest_in_degree_nodes(&base, size);
        let report = run_scenario(&engine, &base, &scenario, &scale, &calibration, 31, None);
        assert!(
            report.final_epoch > 0,
            "the writer must actually mutate degrees mid-run"
        );
        assert!(!report.answers.is_empty());
        for rec in &report.answers {
            assert!(
                initial_hot.contains(&rec.node),
                "answered key {} outside the initial hot set {initial_hot:?}",
                rec.node
            );
        }
        // And the sequence itself is reproducible from (base, seed) alone.
        assert_eq!(
            key_sequence(&scenario, &base, 10, 31 + 1),
            key_sequence(&scenario, &base, 10, 31 + 1),
        );
    }

    #[test]
    fn open_loop_scenario_reports_consistent_counters() {
        let base = gen::gnm(80, 400, 5);
        let engine = SimPush::new(Config::new(0.05));
        let scale = tiny_scale();
        let calibration = calibrate(&engine, &base, &scale, 3);
        let report = run_scenario(
            &engine,
            &base,
            &named("read_heavy"),
            &scale,
            &calibration,
            21,
            None,
        );
        let run = &report.outcomes;
        assert_eq!(run.accepted + run.rejected, 40);
        assert_eq!(
            run.answered + run.deadline_misses,
            run.accepted,
            "every accepted request resolves exactly once"
        );
        assert_eq!(report.answers.len(), run.answered as usize);
        assert!(report.offered_qps > 0.0);
        assert!((0.0..=1.0).contains(&run.reject_rate()));
        assert!((0.0..=1.0).contains(&run.deadline_miss_rate()));
        assert!(
            report.final_epoch as usize <= report.updates.len().div_ceil(report.updates_per_batch)
        );
    }

    #[test]
    fn ramp_segments_partition_the_run_and_the_controller_logs_it() {
        let base = gen::gnm(80, 400, 5);
        let engine = SimPush::new(Config::new(0.05));
        let scale = tiny_scale();
        let calibration = calibrate(&engine, &base, &scale, 3);
        let ramp = named("ramp");
        let ArrivalShape::Ramp { load_factors, .. } = ramp.arrivals else {
            panic!("ramp must be a ramp");
        };
        let fixed = run_scenario(&engine, &base, &ramp, &scale, &calibration, 5, None);
        let opts = calibration.controller(&scale);
        let controlled = run_scenario(&engine, &base, &ramp, &scale, &calibration, 5, Some(opts));
        assert!(fixed.control.is_none());
        assert!(controlled.control.as_ref().is_some_and(|log| log.ticks > 0));
        // Same seed, same traffic on both sides; the segments partition it.
        assert_eq!(fixed.updates, controlled.updates);
        for report in [&fixed, &controlled] {
            let (loads, segments): (Vec<f64>, Vec<&Outcomes>) =
                report.segments.iter().map(|(l, s)| (*l, s)).unzip();
            assert_eq!(loads, load_factors);
            assert!(segments.iter().all(|s| s.requests >= 32));
            let sum = |f: fn(&Outcomes) -> u64| segments.iter().copied().map(f).sum::<u64>();
            let run = &report.outcomes;
            assert_eq!(sum(|s| s.requests as u64), fixed.outcomes.requests as u64);
            assert_eq!(sum(|s| s.accepted), run.accepted);
            assert_eq!(sum(|s| s.rejected), run.rejected);
            assert_eq!(sum(|s| s.answered), run.answered);
            assert_eq!(sum(|s| s.deadline_misses), run.deadline_misses);
        }
    }
}
