//! `elastic_serve` — closed-loop SLO controller vs. a static configuration
//! on the same load ramp.
//!
//! Drives the [`Frontend`] through an open-loop **load ramp** (0.5× →
//! 2.5× calibrated capacity, plus the catalog's `bursty` arrival shape)
//! twice over identical arrival schedules and key sequences:
//!
//! * **static** — the construction-time configuration never changes:
//!   generous deadline, no admission quota, all workers. Above the knee
//!   the bounded queue pins full, every answered request pays the whole
//!   queue, and p99 collapses to `queue_capacity × mean_service /
//!   workers` — far past any interactive SLO.
//! * **controlled** — a [`Controller`] thread samples the front-end's
//!   per-interval sojourn/latency histograms every tick and actuates the
//!   live [`simpush::TuningHandle`]: CoDel-style deadline backoff, a queue-depth
//!   driven admission quota, widened answer-cache staleness, and worker
//!   park/unpark when idle. Overload is shed at admission and at dequeue,
//!   so the requests that *are* answered keep their latency budget.
//!
//! The emitted `BENCH_elastic_serve.json` records both sides of every
//! ramp segment plus an SLO verdict: at ≥ 1.5× capacity the controlled
//! run must meet the p99 objective that the static run misses. CI runs
//! `--smoke` and validates schema + ranges with `check_bench_json`; the
//! committed full run is the regression baseline.
//!
//! Answers stay replayable under every tuning schedule: each response
//! records its epoch, and a sample of answers is re-checked against a
//! cold rebuild of that epoch's graph before the JSON is written
//! (`tests/prop_control.rs` pins the same property under adversarial
//! schedules).
//!
//! ```text
//! cargo run --release -p simrank_bench --bin elastic_serve [--smoke] [OUT.json]
//! ```

use simpush::{
    Config, ControlLog, Controller, ControllerOptions, Frontend, FrontendOptions, QueryOutcome,
    SimPush, Ticket,
};
use simrank_common::stats::LatencySummary;
use simrank_common::NodeId;
use simrank_eval::mixed::{mixed_workload, open_loop_arrivals, MixedWorkload};
use simrank_graph::{gen, CsrGraph, GraphStore, GraphView};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Scale {
    nodes: usize,
    out_deg: usize,
    updates: usize,
    query_pool: usize,
    updates_per_batch: usize,
    compact_threshold: usize,
    workers: usize,
    queue_capacity: usize,
    calib_requests: usize,
    segment_secs: f64,
    tick: Duration,
    epsilon: f64,
}

const FULL: Scale = Scale {
    nodes: 20_000,
    out_deg: 8,
    updates: 2_048,
    query_pool: 64,
    updates_per_batch: 64,
    compact_threshold: 512,
    workers: 2,
    queue_capacity: 64,
    calib_requests: 200,
    segment_secs: 6.0,
    tick: Duration::from_millis(50),
    epsilon: 0.02,
};

/// CI scale: tiny graph, short segments, fast controller tick — enough to
/// exercise calibration, both ramp passes, the controller loop and the
/// JSON schema end to end in a few seconds.
const SMOKE: Scale = Scale {
    nodes: 400,
    out_deg: 4,
    updates: 64,
    query_pool: 8,
    updates_per_batch: 16,
    compact_threshold: 16,
    workers: 2,
    queue_capacity: 16,
    calib_requests: 80,
    segment_secs: 0.8,
    tick: Duration::from_millis(20),
    epsilon: 0.05,
};

/// The ramp, in multiples of calibrated capacity. The SLO verdict compares
/// the two modes on every segment at or above [`VERDICT_LOAD`].
const RAMP: &[f64] = &[0.5, 1.0, 1.5, 2.0, 2.5];
const VERDICT_LOAD: f64 = 1.5;
/// The `bursty` scenario's arrival shape (`simrank_eval::scenario`
/// catalog): constant mean rate, 70 % of arrivals coincident.
const BURSTY_LOAD: f64 = 0.9;
const BURSTY_BURSTINESS: f64 = 0.7;
/// Ramp-segment burstiness (mildly bursty).
const RAMP_BURSTINESS: f64 = 0.1;
/// Fraction of each segment's span discarded as warm-up, so the
/// controller's convergence transient (and the static queue's fill
/// transient) don't pollute the steady-state percentiles. Applied
/// identically to both modes.
const WARMUP_FRACTION: f64 = 0.25;
/// Answered records replay-checked per mode before the JSON is written.
const REPLAY_SAMPLES: usize = 8;

const COPY_PROB: f64 = 0.75;
const GRAPH_SEED: u64 = 7;
const WORKLOAD_SEED: u64 = 4242;

fn ns(d: Duration) -> u128 {
    d.as_nanos()
}

/// One ramp segment's pre-generated traffic.
struct SegmentPlan {
    name: &'static str,
    load_factor: f64,
    burstiness: f64,
    arrivals: Vec<Duration>,
    keys: Vec<NodeId>,
}

/// One (segment, mode) measurement.
struct SegmentReport {
    requests: usize,
    accepted: u64,
    rejected: u64,
    answered: u64,
    deadline_misses: u64,
    cancelled: u64,
    throughput_qps: f64,
    /// Steady-state (post-warm-up) answered latencies.
    latency: LatencySummary,
    slo_met: bool,
    wall: Duration,
}

/// A replayable answered record: epoch `epoch` is the base graph plus the
/// first `epoch` committed update batches.
struct ReplayRecord {
    node: NodeId,
    epoch: u64,
    top: Vec<(NodeId, f64)>,
}

/// Runs every segment of the ramp against ONE long-lived front-end (the
/// elastic story needs the controller's state to persist across load
/// levels), with a writer pacing the update stream across the whole run.
/// Returns per-segment reports plus sampled replay records.
#[allow(clippy::too_many_arguments)]
fn run_ramp(
    engine: &SimPush,
    base: &CsrGraph,
    workload: &Arc<MixedWorkload>,
    plans: &[SegmentPlan],
    scale: &Scale,
    static_deadline: Duration,
    slo_p99: Duration,
    controller_opts: Option<ControllerOptions>,
) -> (Vec<SegmentReport>, Vec<ReplayRecord>, Option<ControlLog>) {
    let store = Arc::new(GraphStore::with_compaction_threshold(
        base.clone(),
        scale.compact_threshold,
    ));
    let frontend = Frontend::start(
        engine,
        store.clone(),
        FrontendOptions::builder()
            .workers(scale.workers)
            .queue_capacity(scale.queue_capacity)
            .default_deadline(Some(static_deadline))
            .top_k(1)
            .build(),
    );
    let controller = controller_opts
        .map(|opts| Controller::start(frontend.observer(), frontend.tuning_handle(), opts));

    // One writer paces the whole update stream across the expected span of
    // the full ramp, so epochs advance under live traffic in every segment.
    let expected_total: Duration = plans
        .iter()
        .map(|p| p.arrivals.last().copied().unwrap_or_default())
        .sum();
    let writer = {
        let store = store.clone();
        let workload = workload.clone();
        let batch = scale.updates_per_batch;
        let num_batches = workload.updates.len().div_ceil(batch).max(1);
        let pace = expected_total / num_batches as u32;
        std::thread::spawn(move || {
            for chunk in workload.updates.chunks(batch) {
                store.commit(chunk);
                std::thread::sleep(pace);
            }
        })
    };

    let mut reports = Vec::with_capacity(plans.len());
    let mut replays: Vec<ReplayRecord> = Vec::new();
    for plan in plans {
        let span = plan.arrivals.last().copied().unwrap_or_default();
        let warmup = span.mul_f64(WARMUP_FRACTION);
        let before = frontend.stats();
        let start = Instant::now();
        let mut tickets: Vec<(Duration, Ticket)> = Vec::with_capacity(plan.arrivals.len());
        for (i, &offset) in plan.arrivals.iter().enumerate() {
            let target = start + offset;
            let now = Instant::now();
            if target > now {
                std::thread::sleep(target - now);
            }
            if let Ok(ticket) = frontend.try_submit(plan.keys[i]) {
                tickets.push((offset, ticket));
            }
        }
        // Drain the segment: every accepted request resolves exactly once.
        let mut steady = Vec::with_capacity(tickets.len());
        let mut steady_service = Vec::with_capacity(tickets.len());
        for (arrival, ticket) in tickets {
            match ticket.wait() {
                QueryOutcome::Answered(r) => {
                    if arrival >= warmup {
                        steady.push(r.queue_wait + r.service);
                        steady_service.push(r.service);
                    }
                    replays.push(ReplayRecord {
                        node: r.node,
                        epoch: r.epoch,
                        top: r.top,
                    });
                }
                QueryOutcome::DeadlineMissed { .. } | QueryOutcome::Cancelled { .. } => {}
                QueryOutcome::Failed { node } => panic!("worker failed serving node {node}"),
            }
        }
        let wall = start.elapsed();
        let after = frontend.stats();
        let latency = LatencySummary::from_samples(steady.iter().copied());
        eprintln!(
            "[elastic_serve]   {} {:.1}x service p99 {:?}",
            plan.name,
            plan.load_factor,
            LatencySummary::from_samples(steady_service.iter().copied())
                .p99()
                .unwrap_or_default()
        );
        let answered = after.answered - before.answered;
        reports.push(SegmentReport {
            requests: plan.arrivals.len(),
            accepted: after.accepted - before.accepted,
            rejected: after.rejected - before.rejected,
            answered,
            deadline_misses: after.deadline_misses - before.deadline_misses,
            cancelled: after.cancelled - before.cancelled,
            throughput_qps: if wall.is_zero() {
                0.0
            } else {
                answered as f64 / wall.as_secs_f64()
            },
            latency,
            // A segment that answered nothing did not meet its SLO.
            slo_met: latency.p99().is_some_and(|p99| p99 <= slo_p99),
            wall,
        });
    }

    writer.join().expect("writer thread panicked");
    let log = controller.map(Controller::stop);
    frontend.shutdown();

    // Replay spot-check: a spread of answered records must reproduce bit
    // for bit from a cold rebuild of their epoch's graph, no matter what
    // tuning schedule was live when they were answered.
    let step = (replays.len() / REPLAY_SAMPLES).max(1);
    for rec in replays.iter().step_by(step) {
        let g = workload.graph_after(base, rec.epoch as usize * scale.updates_per_batch);
        let solo = engine.query_seeded(&g, rec.node);
        assert_eq!(
            rec.top,
            solo.top_k(1),
            "epoch {} answer for node {} drifted from its replay",
            rec.epoch,
            rec.node
        );
    }
    (reports, replays, log)
}

fn segment_json(json: &mut String, indent: &str, r: &SegmentReport) {
    let accepted = r.accepted.max(1) as f64;
    writeln!(json, "{indent}{{").unwrap();
    writeln!(json, "{indent}  \"requests\": {},", r.requests).unwrap();
    writeln!(json, "{indent}  \"accepted\": {},", r.accepted).unwrap();
    writeln!(json, "{indent}  \"rejected\": {},", r.rejected).unwrap();
    writeln!(json, "{indent}  \"answered\": {},", r.answered).unwrap();
    writeln!(
        json,
        "{indent}  \"deadline_misses\": {},",
        r.deadline_misses
    )
    .unwrap();
    writeln!(json, "{indent}  \"cancelled\": {},", r.cancelled).unwrap();
    writeln!(
        json,
        "{indent}  \"reject_rate\": {:.4},",
        r.rejected as f64 / r.requests as f64
    )
    .unwrap();
    writeln!(
        json,
        "{indent}  \"deadline_miss_rate\": {:.4},",
        r.deadline_misses as f64 / accepted
    )
    .unwrap();
    writeln!(
        json,
        "{indent}  \"throughput_qps\": {:.1},",
        r.throughput_qps
    )
    .unwrap();
    writeln!(
        json,
        "{indent}  \"p50_latency_ns\": {},",
        ns(r.latency.p50().unwrap_or_default())
    )
    .unwrap();
    writeln!(
        json,
        "{indent}  \"p95_latency_ns\": {},",
        ns(r.latency.p95().unwrap_or_default())
    )
    .unwrap();
    writeln!(
        json,
        "{indent}  \"p99_latency_ns\": {},",
        ns(r.latency.p99().unwrap_or_default())
    )
    .unwrap();
    writeln!(json, "{indent}  \"slo_met\": {},", r.slo_met).unwrap();
    writeln!(json, "{indent}  \"wall_ns\": {}", ns(r.wall)).unwrap();
    write!(json, "{indent}}}").unwrap();
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_elastic_serve.json".to_owned();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else if arg.starts_with("--") {
            eprintln!("unknown option {arg}\nusage: elastic_serve [--smoke] [OUT.json]");
            std::process::exit(2);
        } else {
            out_path = arg;
        }
    }
    let scale = if smoke { SMOKE } else { FULL };

    let base = gen::copying_web(scale.nodes, scale.out_deg, COPY_PROB, GRAPH_SEED);
    let workload = Arc::new(mixed_workload(
        &base,
        scale.updates,
        scale.query_pool,
        0.3,
        WORKLOAD_SEED,
    ));
    let engine = SimPush::new(Config::new(scale.epsilon));
    eprintln!(
        "[elastic_serve] graph n={} m={}, {} updates, query pool {}{}",
        base.num_nodes(),
        base.num_edges(),
        workload.updates.len(),
        workload.queries.len(),
        if smoke { " (smoke)" } else { "" }
    );

    // Calibration: closed-loop through the same front-end shape (quiescent
    // store) — the achieved rate IS the capacity the ramp's load factors
    // scale from.
    let calib_store = Arc::new(GraphStore::new(base.clone()));
    let calib_frontend = Frontend::start(
        &engine,
        calib_store,
        FrontendOptions::builder()
            .workers(scale.workers)
            .queue_capacity(scale.queue_capacity)
            .default_deadline(None)
            .top_k(1)
            .build(),
    );
    let calib_start = Instant::now();
    let tickets: Vec<Ticket> = (0..scale.calib_requests)
        .map(|i| {
            calib_frontend
                .submit_timeout(
                    workload.queries[i % workload.queries.len()],
                    Duration::from_secs(60),
                )
                .expect("calibration submission failed")
        })
        .collect();
    let mut services = Vec::with_capacity(scale.calib_requests);
    for ticket in tickets {
        match ticket.wait() {
            QueryOutcome::Answered(r) => services.push(r.service),
            other => panic!("calibration request not answered: {other:?}"),
        }
    }
    let calib_wall = calib_start.elapsed();
    calib_frontend.shutdown();
    let capacity_qps = scale.calib_requests as f64 / calib_wall.as_secs_f64();
    let service_summary = LatencySummary::from_samples(services.iter().copied());
    let mean_service = service_summary.mean();
    let service_p99 = service_summary.p99().expect("calibration answered");

    // The static configuration: a deadline generous vs. worst-case
    // queueing (so a static run never sheds by expiry below the knee) and
    // no admission quota. The SLO the controller defends is much tighter,
    // anchored twice: 2× the calibrated p99 *service* time (one tail
    // service plus equal queueing headroom — no controller can shrink the
    // service tail itself) with a floor of 16× mean service (the p99 of a
    // small calibration sample is noisy; the mean is not). Both anchors
    // sit far below what a pinned-full static queue imposes
    // (`queue_capacity × mean_service / workers` ≥ 32× mean here), so the
    // SLO is achievable by bounding the queue — which shedding can do —
    // and unachievable by the static configuration above the knee.
    let static_deadline = mean_service * (4 * scale.queue_capacity) as u32;
    let slo_p99 = (service_p99 * 2).max(mean_service * 16);
    let controller_opts = ControllerOptions {
        tick: scale.tick,
        target_sojourn: mean_service * 2,
        slo_p99,
        min_deadline: mean_service * 2,
        max_deadline: static_deadline,
        quota_floor: 1,
        stale_bound: 8,
        worker_floor: 1,
        overload_ticks: 2,
        calm_ticks: 5,
        cooldown_ticks: 2,
    };
    eprintln!(
        "[elastic_serve] calibrated: capacity {capacity_qps:.0} q/s, mean service {mean_service:?}, SLO p99 {slo_p99:?}, static deadline {static_deadline:?}"
    );

    // Pre-generate every segment's traffic once: both modes replay the
    // SAME arrival offsets and key sequence, so the comparison isolates
    // the control plane.
    let mut plans: Vec<SegmentPlan> = Vec::new();
    let make_plan = |name: &'static str, load_factor: f64, burstiness: f64, seed: u64| {
        let offered = load_factor * capacity_qps;
        let requests = ((offered * scale.segment_secs) as usize).max(32);
        let mean_gap = Duration::from_secs_f64(1.0 / offered);
        SegmentPlan {
            name,
            load_factor,
            burstiness,
            arrivals: open_loop_arrivals(requests, mean_gap, burstiness, seed),
            keys: (0..requests)
                .map(|i| workload.queries[(i + seed as usize) % workload.queries.len()])
                .collect(),
        }
    };
    for (i, &load) in RAMP.iter().enumerate() {
        plans.push(make_plan(
            "ramp",
            load,
            RAMP_BURSTINESS,
            WORKLOAD_SEED + 100 + i as u64,
        ));
    }
    plans.push(make_plan(
        "bursty",
        BURSTY_LOAD,
        BURSTY_BURSTINESS,
        WORKLOAD_SEED + 200,
    ));

    eprintln!("[elastic_serve] static ramp…");
    let (static_reports, _, _) = run_ramp(
        &engine,
        &base,
        &workload,
        &plans,
        &scale,
        static_deadline,
        slo_p99,
        None,
    );
    eprintln!("[elastic_serve] controlled ramp…");
    let (controlled_reports, _, control_log) = run_ramp(
        &engine,
        &base,
        &workload,
        &plans,
        &scale,
        static_deadline,
        slo_p99,
        Some(controller_opts),
    );
    let control_log = control_log.expect("controlled ramp has a log");

    for ((plan, s), c) in plans.iter().zip(&static_reports).zip(&controlled_reports) {
        eprintln!(
            "[elastic_serve] {} {:.1}x: static p99 {:?} (slo_met {}) | controlled p99 {:?} (slo_met {}, rejected {})",
            plan.name,
            plan.load_factor,
            s.latency.p99().unwrap_or_default(),
            s.slo_met,
            c.latency.p99().unwrap_or_default(),
            c.slo_met,
            c.rejected,
        );
    }
    eprintln!(
        "[elastic_serve] controller: {} ticks, {} tightens, {} relaxes",
        control_log.ticks,
        control_log.tighten_count(),
        control_log.relax_count()
    );

    // The verdict the acceptance criterion (and CI's range rule) reads:
    // on every ramp segment at ≥ VERDICT_LOAD× capacity the controlled
    // run holds the p99 SLO the static run misses.
    let high = |name: &str, load: f64| name == "ramp" && load >= VERDICT_LOAD - 1e-9;
    let controlled_holds = plans
        .iter()
        .zip(&controlled_reports)
        .filter(|(p, _)| high(p.name, p.load_factor))
        .all(|(_, r)| r.slo_met);
    let static_misses = plans
        .iter()
        .zip(&static_reports)
        .filter(|(p, _)| high(p.name, p.load_factor))
        .all(|(_, r)| !r.slo_met);
    let controlled_never_slower = plans
        .iter()
        .zip(static_reports.iter().zip(&controlled_reports))
        .filter(|(p, _)| high(p.name, p.load_factor))
        .all(|(_, (s, c))| c.latency.p99() <= s.latency.p99());

    let mut json = String::new();
    // Hand-rolled JSON: the workspace intentionally has no serde. The
    // check_bench_json binary validates schema AND numeric ranges in CI.
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"bench\": \"elastic_serve\",").unwrap();
    writeln!(json, "  \"smoke\": {smoke},").unwrap();
    writeln!(
        json,
        "  \"graph\": {{ \"family\": \"copying_web\", \"nodes\": {}, \"out_degree\": {}, \"copy_prob\": {COPY_PROB}, \"seed\": {GRAPH_SEED} }},",
        scale.nodes, scale.out_deg
    )
    .unwrap();
    writeln!(
        json,
        "  \"workload\": {{ \"queries\": {}, \"updates\": {}, \"updates_per_batch\": {}, \"seed\": {WORKLOAD_SEED} }},",
        workload.queries.len(),
        workload.updates.len(),
        scale.updates_per_batch
    )
    .unwrap();
    writeln!(json, "  \"epsilon\": {},", scale.epsilon).unwrap();
    writeln!(
        json,
        "  \"options\": {{ \"workers\": {}, \"queue_capacity\": {}, \"static_deadline_ms\": {:.3}, \"top_k\": 1 }},",
        scale.workers,
        scale.queue_capacity,
        static_deadline.as_secs_f64() * 1e3
    )
    .unwrap();
    writeln!(
        json,
        "  \"calibration\": {{ \"requests\": {}, \"mean_service_ns\": {}, \"p99_service_ns\": {}, \"capacity_qps\": {capacity_qps:.1} }},",
        scale.calib_requests,
        ns(mean_service),
        ns(service_p99)
    )
    .unwrap();
    writeln!(
        json,
        "  \"slo\": {{ \"p99_ns\": {}, \"target_sojourn_ns\": {}, \"tick_ms\": {:.1}, \"warmup_fraction\": {WARMUP_FRACTION} }},",
        ns(slo_p99),
        ns(mean_service * 2),
        scale.tick.as_secs_f64() * 1e3
    )
    .unwrap();
    writeln!(json, "  \"ramp\": [").unwrap();
    let ramp_count = plans.len();
    for (i, ((plan, s), c)) in plans
        .iter()
        .zip(&static_reports)
        .zip(&controlled_reports)
        .enumerate()
    {
        writeln!(json, "    {{").unwrap();
        writeln!(json, "      \"segment\": \"{}\",", plan.name).unwrap();
        writeln!(json, "      \"load_factor\": {},", plan.load_factor).unwrap();
        writeln!(json, "      \"burstiness\": {},", plan.burstiness).unwrap();
        writeln!(json, "      \"static\":").unwrap();
        segment_json(&mut json, "      ", s);
        writeln!(json, ",").unwrap();
        writeln!(json, "      \"controlled\":").unwrap();
        segment_json(&mut json, "      ", c);
        writeln!(json).unwrap();
        writeln!(json, "    }}{}", if i + 1 == ramp_count { "" } else { "," }).unwrap();
    }
    writeln!(json, "  ],").unwrap();
    let final_tuning = control_log.records.last().map(|r| r.applied.clone());
    writeln!(
        json,
        "  \"control\": {{ \"ticks\": {}, \"actuations\": {}, \"tightens\": {}, \"relaxes\": {}, \"final_deadline_ms\": {:.3}, \"final_quota\": {} }},",
        control_log.ticks,
        control_log.records.len(),
        control_log.tighten_count(),
        control_log.relax_count(),
        final_tuning
            .as_ref()
            .and_then(|t| t.deadline)
            .unwrap_or(static_deadline)
            .as_secs_f64()
            * 1e3,
        final_tuning
            .as_ref()
            .and_then(|t| t.admission_quota)
            .map_or_else(|| "null".to_owned(), |q| q.to_string())
    )
    .unwrap();
    writeln!(
        json,
        "  \"verdict\": {{ \"comparison_load\": {VERDICT_LOAD}, \"controlled_holds_slo_at_high_load\": {controlled_holds}, \"static_misses_slo_at_high_load\": {static_misses}, \"controlled_p99_not_above_static_at_high_load\": {controlled_never_slower} }}"
    )
    .unwrap();
    writeln!(json, "}}").unwrap();

    std::fs::write(&out_path, &json).expect("write benchmark snapshot");
    print!("{json}");
    eprintln!("wrote {out_path}");
}
