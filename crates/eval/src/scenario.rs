//! Named workload scenarios: the regression-tested traffic surface of the
//! serving stack.
//!
//! An offered-load sweep maps *how much* traffic the front-end survives;
//! this module fixes *what shape* that traffic has. A
//! [`Scenario`] is a declarative description — traffic mix, key
//! distribution, arrival shape, SLO targets — and [`run_scenario`] drives
//! it through the **real** [`Frontend`] (bounded admission queue, worker
//! pool, deadlines, a live update writer), never a bespoke loop, so every
//! number a scenario reports is a number the production admission path
//! produced.
//!
//! The [`catalog`] is the YCSB-style matrix the roadmap calls for, six
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
//!
//! Rates are expressed as **multiples of calibrated capacity**
//! ([`calibrate`]: a closed-loop run through the same front-end), so
//! "0.7× load" means the same thing on a laptop and a CI runner, and the
//! saturation knee sits at 1.0 by construction. Every scenario is
//! seed-deterministic end to end: same `(graph, scenario, scale, seed)` →
//! the same update stream, the same key sequence and the same arrival
//! schedule, byte for byte. Answers stay replayable: each one records the
//! epoch it was served from, and `tests/integration_serve.rs` pins that a
//! cold rebuild of that epoch reproduces it bit for bit.

use crate::mixed::{mixed_workload, open_loop_arrivals, MixedWorkload};
use crate::zipf::ZipfKeys;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simpush::{
    AnswerCache, AnswerCacheOptions, Frontend, FrontendOptions, QueryOutcome, SimPush, Ticket,
};
use simrank_common::stats::LatencySummary;
use simrank_common::NodeId;
use simrank_graph::{CsrGraph, GraphStore, GraphUpdate, GraphView};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a scenario picks query keys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Uniform over the node universe — the no-skew baseline.
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
    /// function of `(base, scenario, seed)` — so cached-run hit rates are
    /// seed-deterministic across the writer's epochs — and models the
    /// realistic adversary, who floods the keys that were hot when the
    /// flood started. The regression test
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
}

/// Per-scenario service-level objective, evaluated on the report.
///
/// Targets are part of the scenario *description*: they state what
/// "healthy" means for that traffic shape (a flood is healthy when it
/// sheds load cheaply; a read-heavy workload is healthy only when almost
/// nothing is shed). `scenario_serve` prints whether each run met them
/// (`slo_met`); what fails a run is the looser per-name ceiling of
/// [`violations`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloTarget {
    /// Highest acceptable fraction of submissions rejected at admission.
    pub max_reject_rate: f64,
    /// Highest acceptable fraction of accepted requests expiring in queue.
    pub max_deadline_miss_rate: f64,
}

/// A named, declarative workload scenario. Build them via [`catalog`].
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable snake_case name ([`violations`] keys its ceilings on it).
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
    /// What "healthy" means for this scenario.
    pub slo: SloTarget,
}

/// The named-scenario catalog: the six workload shapes the serving stack
/// is regression-gated on. Names are stable — the outcome ceilings of
/// [`violations`] and the catalog unit test key on them.
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
            slo: SloTarget {
                max_reject_rate: 0.05,
                max_deadline_miss_rate: 0.01,
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
            slo: SloTarget {
                max_reject_rate: 0.05,
                max_deadline_miss_rate: 0.01,
            },
        },
        Scenario {
            name: "zipf_hot",
            about: "power-law key skew: a handful of nodes absorb most queries",
            keys: KeyDist::Zipf { exponent: 1.2 },
            // Skew shifts the knee: the hot keys are not average-cost
            // keys, so the same nominal load sits closer to saturation
            // than a uniform mix would. Offered load and the reject
            // target both acknowledge that.
            arrivals: ArrivalShape::OpenLoop {
                load_factor: 0.6,
                burstiness: 0.1,
            },
            updates_per_query: 0.1,
            remove_fraction: 0.3,
            slo: SloTarget {
                max_reject_rate: 0.15,
                max_deadline_miss_rate: 0.01,
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
            slo: SloTarget {
                max_reject_rate: 0.35,
                max_deadline_miss_rate: 0.05,
            },
        },
        Scenario {
            name: "batch_scan",
            about: "closed-loop bulk clients scanning the key space in id order",
            keys: KeyDist::Scan,
            arrivals: ArrivalShape::ClosedLoop { clients: 4 },
            updates_per_query: 0.05,
            remove_fraction: 0.3,
            slo: SloTarget {
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
            slo: SloTarget {
                max_reject_rate: 0.9,
                max_deadline_miss_rate: 0.1,
            },
        },
    ]
}

/// Size knobs shared by every scenario in one run — the bench bin's
/// `--smoke` flag swaps one of these for a smaller one.
#[derive(Debug, Clone)]
pub struct ScenarioScale {
    /// Requests per scenario (open-loop arrival count / closed-loop total).
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
    /// Open-loop deadline = `mean service × queue_capacity × this factor`
    /// — generous vs. worst-case queueing, so below the knee nothing
    /// expires and overload is *rejected*, not accepted-then-dropped.
    pub deadline_queue_factor: u32,
    /// Top-k size each answer keeps.
    pub top_k: usize,
}

/// Measured service capacity the scenario load factors scale from.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Closed-loop achieved throughput through the front-end.
    pub capacity_qps: f64,
    /// Mean per-request service time (snapshot acquisition + query).
    pub mean_service: Duration,
    /// Requests the calibration run answered.
    pub requests: usize,
}

impl Calibration {
    /// The verdict rules a calibration breaks (empty = usable): a positive
    /// mean service time and a capacity of at least 0.1 q/s.
    pub fn violations(&self) -> Vec<String> {
        let mut broken = Vec::new();
        if self.mean_service.is_zero() {
            broken.push("calibration: mean service time is zero".to_owned());
        }
        if self.capacity_qps < 0.1 {
            broken.push(format!(
                "calibration: capacity {:.3} q/s < 0.1",
                self.capacity_qps
            ));
        }
        broken
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
            .build(),
    );
    let start = Instant::now();
    let outcomes = frontend.run_closed_loop(&keys, scale.calib_clients, Duration::from_secs(60));
    let wall = start.elapsed();
    frontend.shutdown();
    let mut service_total = Duration::ZERO;
    for outcome in &outcomes {
        match outcome {
            Ok(QueryOutcome::Answered(r)) => service_total += r.service,
            other => panic!("calibration request not answered: {other:?}"),
        }
    }
    Calibration {
        capacity_qps: scale.calib_requests as f64 / wall.as_secs_f64(),
        mean_service: service_total / scale.calib_requests as u32,
        requests: scale.calib_requests,
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

/// Everything one scenario run produced: SLO metrics plus the replayable
/// answer records and the exact update stream that was committed.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The scenario's stable name.
    pub name: &'static str,
    /// Requests driven at the front-end (accepted + rejected).
    pub requests: usize,
    /// Planned offered rate (open loop; `0.0` for closed loop, which has
    /// no offered rate distinct from its achieved one).
    pub offered_qps: f64,
    /// The committed update stream (exactly what the writer applied, in
    /// order) — the replay handle for [`AnswerRecord`] epochs.
    pub updates: Vec<GraphUpdate>,
    /// Updates per committed batch (epoch `e` ⇔ first `e · batch` updates).
    pub updates_per_batch: usize,
    /// Requests accepted into the queue.
    pub accepted: u64,
    /// Submissions rejected at admission (backpressure).
    pub rejected: u64,
    /// Requests answered.
    pub answered: u64,
    /// Accepted requests that expired in queue.
    pub deadline_misses: u64,
    /// Answered requests per wall-clock second.
    pub throughput_qps: f64,
    /// Median end-to-end latency (queue wait + service); `None` when
    /// nothing was answered.
    pub p50_latency: Option<Duration>,
    /// 99th-percentile end-to-end latency; `None` when nothing answered.
    pub p99_latency: Option<Duration>,
    /// Epochs published by the end of the run.
    pub final_epoch: u64,
    /// Answers served straight from the [`AnswerCache`] (0 when the run
    /// was uncached).
    pub cache_hits: u64,
    /// Answers that probed the cache and recomputed (0 when uncached).
    pub cache_misses: u64,
    /// Replayable records of every answered request, in submission order.
    pub answers: Vec<AnswerRecord>,
}

impl ScenarioReport {
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

    /// Whether the run met `slo` (reject and miss rates both inside their
    /// targets).
    pub fn meets(&self, slo: &SloTarget) -> bool {
        self.reject_rate() <= slo.max_reject_rate
            && self.deadline_miss_rate() <= slo.max_deadline_miss_rate
    }

    /// Fraction of answers served from the cache; 0 for uncached runs.
    pub fn cache_hit_rate(&self) -> f64 {
        let probes = self.cache_hits + self.cache_misses;
        if probes == 0 {
            0.0
        } else {
            self.cache_hits as f64 / probes as f64
        }
    }
}

/// Every rule of the scenario verdict that `report` breaks, one message
/// each; empty means the verdict holds. `scenario_serve` exits on it.
///
/// *Shape rules*, every scenario: the run drove requests and updates,
/// published an epoch, answered at a positive rate with a p99 sample, and
/// its counters are consistent. *Outcome ceilings*, keyed on the scenario
/// name: conservative per-shape ranges (a closed-loop scan can never
/// reject; below-knee open loops must shed almost nothing; a flood must
/// still answer something) — deliberately looser than the scenario's own
/// [`SloTarget`], which is reported, not gated. *Smoke only*: the
/// scenario deadlines are generous vs. worst-case queueing, so even at CI
/// scale overload must surface as cheap rejection, never as a majority of
/// accepted-then-expired requests — that would mean the deadline
/// machinery is broken.
pub fn violations(scenario: &Scenario, report: &ScenarioReport, smoke: bool) -> Vec<String> {
    let (max_reject, max_miss): (f64, f64) = match scenario.name {
        "read_heavy" => (0.25, 0.1),
        "update_heavy" | "zipf_hot" => (0.25, 1.0),
        "bursty" => (0.6, 1.0),
        "batch_scan" => (0.0, 0.0),
        "hot_flood" => (0.95, 1.0),
        _ => (1.0, 1.0),
    };
    let max_miss = if smoke { max_miss.min(0.5) } else { max_miss };
    let (reject, miss) = (report.reject_rate(), report.deadline_miss_rate());
    let rules = [
        (report.requests >= 1, "drove no requests".to_owned()),
        (
            !report.updates.is_empty(),
            "committed no updates".to_owned(),
        ),
        (report.final_epoch >= 1, "published no epoch".to_owned()),
        (report.answered >= 1, "answered nothing".to_owned()),
        (
            report.throughput_qps >= 0.1,
            format!("throughput {:.3} q/s < 0.1", report.throughput_qps),
        ),
        (
            report.p99_latency.is_some_and(|p99| !p99.is_zero()),
            "no p99 latency sample".to_owned(),
        ),
        (
            report.rejected <= report.requests as u64,
            format!(
                "rejected {} > requests {}",
                report.rejected, report.requests
            ),
        ),
        (
            report.deadline_misses <= report.accepted,
            format!(
                "deadline_misses {} > accepted {}",
                report.deadline_misses, report.accepted
            ),
        ),
        (
            reject <= max_reject,
            format!("reject_rate {reject:.4} > allowed maximum {max_reject}"),
        ),
        (
            miss <= max_miss,
            format!("deadline_miss_rate {miss:.4} > allowed maximum {max_miss}"),
        ),
    ];
    rules
        .into_iter()
        .filter(|(holds, _)| !holds)
        .map(|(_, broken)| format!("{}: {broken}", scenario.name))
        .collect()
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

/// The open-loop load generator: sleeps to each arrival offset (measured
/// from `start`), `try_submit`s that arrival's key and never waits for the
/// server. Returns every *accepted* ticket with its arrival index, in
/// arrival order; a rejected submission is dropped (the front-end counts
/// it).
///
/// # Panics
/// Panics if `keys` is shorter than `arrivals`.
pub fn submit_open_loop(
    frontend: &Frontend,
    start: Instant,
    arrivals: &[Duration],
    keys: &[NodeId],
) -> Vec<(usize, Ticket)> {
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
}

/// Runs one scenario through a fresh store + [`Frontend`], with a paced
/// writer committing the scenario's update stream throughout.
///
/// Deterministic inputs: same `(engine config, base, scenario, scale,
/// calibration-independent seed)` produce the same update stream, key
/// sequence and (for open loop) arrival schedule. The run asserts that the
/// final store state equals a sequential replay of the update stream, so a
/// scenario can never silently diverge from its own workload.
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
) -> ScenarioReport {
    run_scenario_cached(engine, base, scenario, scale, calibration, seed, None)
}

/// [`run_scenario`] with an optional [`AnswerCache`]: when `cache_opts` is
/// `Some`, a fresh cache is attached to the front-end, the paced writer
/// notifies it of every publish's touched-node delta
/// ([`AnswerCache::on_publish`]), and the report's `cache_*` fields carry
/// the run's hit/miss counts. `None` reproduces [`run_scenario`] exactly.
///
/// # Panics
/// Same contract as [`run_scenario`].
pub fn run_scenario_cached(
    engine: &SimPush,
    base: &CsrGraph,
    scenario: &Scenario,
    scale: &ScenarioScale,
    calibration: &Calibration,
    seed: u64,
    cache_opts: Option<AnswerCacheOptions>,
) -> ScenarioReport {
    let requests = scale.requests;
    let num_updates = ((requests as f64 * scenario.updates_per_query) as usize)
        .clamp(scale.min_updates, scale.max_updates);
    let workload: MixedWorkload =
        mixed_workload(base, num_updates, 0, scenario.remove_fraction, seed);
    let keys = key_sequence(scenario, base, requests, seed.wrapping_add(1));

    // Expected duration, used only to pace the writer: open loop knows its
    // schedule span; closed loop is estimated from calibrated capacity.
    let (arrivals, offered_qps, deadline) = match scenario.arrivals {
        ArrivalShape::OpenLoop {
            load_factor,
            burstiness,
        } => {
            let offered = load_factor * calibration.capacity_qps;
            let mean_gap = Duration::from_secs_f64(1.0 / offered);
            let schedule = open_loop_arrivals(requests, mean_gap, burstiness, seed.wrapping_add(2));
            let deadline = calibration.mean_service
                * scale.deadline_queue_factor
                * scale.queue_capacity as u32;
            (Some(schedule), offered, Some(deadline))
        }
        ArrivalShape::ClosedLoop { .. } => (None, 0.0, None),
    };
    let expected_wall = match &arrivals {
        Some(schedule) => schedule.last().copied().unwrap_or_default(),
        None => Duration::from_secs_f64(requests as f64 / calibration.capacity_qps.max(1.0)),
    };

    let store = Arc::new(GraphStore::with_compaction_threshold(
        base.clone(),
        scale.compaction_threshold,
    ));
    let cache = cache_opts.map(|opts| Arc::new(AnswerCache::new(opts)));
    let mut frontend_opts = FrontendOptions::builder()
        .workers(scale.workers)
        .queue_capacity(scale.queue_capacity)
        .default_deadline(deadline)
        .top_k(scale.top_k);
    if let Some(cache) = cache.clone() {
        frontend_opts = frontend_opts.cache(cache);
    }
    let frontend = Frontend::start(engine, store.clone(), frontend_opts.build());

    // Writer: pace the whole update stream across the expected duration so
    // epochs advance under live traffic. In cached runs the writer is also
    // the invalidation source: each commit hands its touched-node delta to
    // the cache, so only entries whose support intersects the publish stop
    // being served.
    let writer = {
        let store = store.clone();
        let updates = workload.updates.clone();
        let batch = scale.updates_per_batch;
        let num_batches = updates.len().div_ceil(batch).max(1);
        let pace = expected_wall / num_batches as u32;
        std::thread::spawn(move || {
            for chunk in updates.chunks(batch) {
                let (_, info) = store.commit(chunk);
                if let Some(cache) = &cache {
                    cache.on_publish(info.epoch, &info.touched);
                }
                std::thread::sleep(pace);
            }
        })
    };

    // Drive the traffic and collect outcomes in submission order.
    let start = Instant::now();
    let outcomes: Vec<QueryOutcome> = match scenario.arrivals {
        ArrivalShape::OpenLoop { .. } => {
            let schedule = arrivals.expect("open loop has a schedule");
            submit_open_loop(&frontend, start, &schedule, &keys)
                .into_iter()
                .map(|(_, ticket)| ticket.wait())
                .collect()
        }
        ArrivalShape::ClosedLoop { clients } => frontend
            .run_closed_loop(&keys, clients, Duration::from_secs(60))
            .into_iter()
            .map(|r| r.expect("closed-loop admission cannot time out at these scales"))
            .collect(),
    };
    let wall = start.elapsed();
    writer.join().expect("scenario writer panicked");
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

    let mut latencies = Vec::with_capacity(outcomes.len());
    let mut answers = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
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
        requests,
        offered_qps,
        updates: workload.updates,
        updates_per_batch: scale.updates_per_batch,
        accepted: stats.accepted,
        rejected: stats.rejected,
        answered: stats.answered,
        deadline_misses: stats.deadline_misses,
        throughput_qps: if wall.is_zero() {
            0.0
        } else {
            stats.answered as f64 / wall.as_secs_f64()
        },
        p50_latency: latency_summary.p50(),
        p99_latency: latency_summary.p99(),
        final_epoch,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        answers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simpush::Config;
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
            deadline_queue_factor: 4,
            top_k: 2,
        }
    }

    #[test]
    fn catalog_names_are_unique_and_cover_the_required_matrix() {
        let scenarios = catalog();
        assert!(scenarios.len() >= 6, "the matrix needs at least 6 entries");
        let names: Vec<&str> = scenarios.iter().map(|s| s.name).collect();
        for required in [
            "read_heavy",
            "update_heavy",
            "zipf_hot",
            "bursty",
            "batch_scan",
            "hot_flood",
        ] {
            assert!(names.contains(&required), "catalog is missing {required}");
        }
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "duplicate scenario names");
        // Shape sanity, so no scenario can be quietly de-fanged: the flood
        // is offered well past capacity, the below-knee shapes stay below
        // the knee, the burst knob is meaningfully high in `bursty`, and
        // `batch_scan` is the one closed-loop entry.
        for s in &scenarios {
            for target in [s.slo.max_reject_rate, s.slo.max_deadline_miss_rate] {
                assert!((0.0..=1.0).contains(&target), "{}: SLO is a rate", s.name);
            }
            let (load_factor, burstiness) = match s.arrivals {
                ArrivalShape::OpenLoop {
                    load_factor,
                    burstiness,
                } => (load_factor, burstiness),
                // NaN is outside every range below: a scenario pinned as
                // open loop fails if it turns closed loop.
                ArrivalShape::ClosedLoop { .. } => (f64::NAN, f64::NAN),
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
                _ => {}
            }
        }
    }

    /// A report no rule objects to: everything offered was answered.
    fn clean_report(scenario: &Scenario) -> ScenarioReport {
        ScenarioReport {
            name: scenario.name,
            requests: 100,
            offered_qps: 0.0,
            updates: vec![GraphUpdate::Insert(0, 1)],
            updates_per_batch: 1,
            accepted: 100,
            rejected: 0,
            answered: 100,
            deadline_misses: 0,
            throughput_qps: 50.0,
            p50_latency: Some(Duration::from_millis(1)),
            p99_latency: Some(Duration::from_millis(2)),
            final_epoch: 1,
            cache_hits: 0,
            cache_misses: 0,
            answers: Vec::new(),
        }
    }

    /// `clean_report` with `rejected` of its 100 requests shed at admission
    /// and `expired` of the accepted ones missing their deadline.
    fn shedding(scenario: &Scenario, rejected: u64, expired: u64) -> ScenarioReport {
        ScenarioReport {
            accepted: 100 - rejected,
            rejected,
            answered: 100 - rejected - expired,
            deadline_misses: expired,
            ..clean_report(scenario)
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
            (|r| r.requests = 0, "drove no requests"),
            (|r| r.updates.clear(), "committed no updates"),
            (|r| r.final_epoch = 0, "published no epoch"),
            (|r| r.answered = 0, "answered nothing"),
            (|r| r.throughput_qps = 0.09, "throughput 0.090 q/s < 0.1"),
            (|r| r.p99_latency = None, "no p99 latency sample"),
            (|r| r.rejected = 101, "rejected 101 > requests 100"),
            (
                |r| r.deadline_misses = 101,
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
        let measured = Calibration {
            capacity_qps: 0.1,
            mean_service: Duration::from_nanos(1),
            requests: 1,
        };
        assert!(measured.violations().is_empty());
        let broken = Calibration {
            capacity_qps: 0.09,
            mean_service: Duration::ZERO,
            ..measured
        }
        .violations();
        assert_eq!(broken.len(), 2, "{broken:?}");
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
            ..catalog()
                .into_iter()
                .find(|s| s.name == "hot_flood")
                .unwrap()
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
        assert!(calibration.capacity_qps > 0.0);
        assert!(calibration.mean_service > Duration::ZERO);

        let scenario = catalog()
            .into_iter()
            .find(|s| s.name == "batch_scan")
            .unwrap();
        let report = run_scenario(&engine, &base, &scenario, &scale, &calibration, 11);
        assert_eq!(report.requests, 40);
        assert_eq!(report.accepted, 40, "closed loop never rejects");
        assert_eq!(report.answered, 40);
        assert_eq!(report.deadline_misses, 0);
        assert_eq!(report.answers.len(), 40);
        assert!(report.meets(&scenario.slo));
        assert!(report.throughput_qps > 0.0);
        assert!(report.p99_latency.is_some());
        assert!(report.p50_latency <= report.p99_latency);
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
        let scenario = catalog()
            .into_iter()
            .find(|s| s.name == "hot_flood")
            .unwrap();
        let KeyDist::HotSet { size } = scenario.keys else {
            panic!("hot_flood must flood a hot set");
        };
        // The pinned contract: keys come from the *initial* base's top
        // in-degree nodes, even though the paced writer mutates degrees
        // throughout the run.
        let initial_hot = hottest_in_degree_nodes(&base, size);
        let report = run_scenario(&engine, &base, &scenario, &scale, &calibration, 31);
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
    fn cached_scenario_counts_hits_and_stays_consistent() {
        let base = gen::gnm(80, 400, 5);
        let engine = SimPush::new(Config::new(0.05));
        let scale = tiny_scale();
        let calibration = calibrate(&engine, &base, &scale, 3);
        // A closed-loop flood of 2 keys: deterministic answered count and
        // plenty of repeats, so hits are guaranteed.
        let scenario = Scenario {
            name: "hot_flood",
            keys: KeyDist::HotSet { size: 2 },
            arrivals: ArrivalShape::ClosedLoop { clients: 2 },
            ..catalog()
                .into_iter()
                .find(|s| s.name == "hot_flood")
                .unwrap()
        };
        let report = run_scenario_cached(
            &engine,
            &base,
            &scenario,
            &scale,
            &calibration,
            41,
            Some(AnswerCacheOptions {
                max_stale_epochs: 1_000, // churn-proof: repeats must hit
                ..AnswerCacheOptions::default()
            }),
        );
        assert_eq!(report.answered, 40, "closed loop answers everything");
        assert_eq!(
            report.cache_hits + report.cache_misses,
            report.answered,
            "every answer either hit or probed-and-computed"
        );
        assert!(
            report.cache_hits >= 30,
            "2 keys over 40 requests: repeats must hit (got {})",
            report.cache_hits
        );
        assert!((0.0..=1.0).contains(&report.cache_hit_rate()));
        // The uncached entry point reports zeroed cache counters.
        let uncached = run_scenario(&engine, &base, &scenario, &scale, &calibration, 41);
        assert_eq!(uncached.cache_hits + uncached.cache_misses, 0);
        assert_eq!(uncached.cache_hit_rate(), 0.0);
    }

    #[test]
    fn open_loop_scenario_reports_consistent_counters() {
        let base = gen::gnm(80, 400, 5);
        let engine = SimPush::new(Config::new(0.05));
        let scale = tiny_scale();
        let calibration = calibrate(&engine, &base, &scale, 3);
        let scenario = catalog()
            .into_iter()
            .find(|s| s.name == "read_heavy")
            .unwrap();
        let report = run_scenario(&engine, &base, &scenario, &scale, &calibration, 21);
        assert_eq!(report.accepted + report.rejected, 40);
        assert_eq!(
            report.answered + report.deadline_misses,
            report.accepted,
            "every accepted request resolves exactly once"
        );
        assert_eq!(report.answers.len(), report.answered as usize);
        assert!(report.offered_qps > 0.0);
        assert!((0.0..=1.0).contains(&report.reject_rate()));
        assert!((0.0..=1.0).contains(&report.deadline_miss_rate()));
        assert!(
            report.final_epoch as usize <= report.updates.len().div_ceil(report.updates_per_batch)
        );
    }
}
