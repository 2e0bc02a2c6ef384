//! `elastic_serve` — closed-loop SLO controller vs. a static configuration
//! on the same load ramp.
//!
//! Drives the [`Frontend`] through an open-loop **load ramp** (0.5× →
//! 2.5× calibrated capacity, plus the catalog's `bursty` arrival shape)
//! twice over identical arrival schedules and key sequences:
//!
//! * **static** — the construction-time configuration never changes:
//!   generous deadline, no admission quota. Above the knee
//!   the bounded queue pins full, every answered request pays the whole
//!   queue, and p99 collapses to `queue_capacity × mean_service /
//!   workers` — far past any interactive SLO.
//! * **controlled** — a [`Controller`] thread samples the front-end's
//!   per-interval sojourn histogram and queue depth every tick and sets
//!   the live [`simpush::AdmissionQuota`] CoDel-style, shrinking it toward
//!   the observed backlog. Overload is shed at admission, so the requests
//!   that *are* answered keep their latency budget.
//!
//! One row per segment puts both sides next to each other, and the typed
//! reports are judged in place (`ramp_violations`): on every `ramp`
//! segment at ≥ 1.5× capacity a **full** run must show the controlled
//! side meeting the p99 objective that the static side misses (a static
//! side that meets it means the ramp is not saturating and proves
//! nothing), with controlled p99 no worse than static. A `--smoke` run
//! on a CI box is too noisy for an absolute SLO, so there only the sign
//! of the effect is pinned: controlled p99 at most 1.5× static on those
//! segments, and at least one tighten. At both scales both sides of every
//! segment must have answered at a positive rate with a steady-state p99
//! sample, the controller must have ticked and calibration must be
//! positive. At full scale the verdict has not held since the median
//! query became ≈25× cheaper than the tail the SLO is anchored on
//! (ROADMAP open items).
//!
//! Answers stay replayable under every quota schedule: each response
//! records its epoch, and a sample of answers is re-checked against a
//! cold rebuild of that epoch's graph before anything is judged
//! (`tests/prop_control.rs` pins the same property under adversarial
//! schedules).
//!
//! ```text
//! cargo run --release -p simrank_bench --bin elastic_serve [--smoke]
//! ```
//!
//! Exit code 0: the verdict holds. 1: a rule is violated; every violated
//! rule is printed last as `VERDICT FAILED: <rule>`. 2: usage.

use simpush::{
    Config, ControlLog, Controller, ControllerOptions, Frontend, FrontendOptions, QueryOutcome,
    SimPush, Ticket,
};
use simrank_common::stats::LatencySummary;
use simrank_common::NodeId;
use simrank_eval::mixed::{mixed_workload, open_loop_arrivals, MixedWorkload};
use simrank_eval::scenario::submit_open_loop;
use simrank_graph::{gen, CsrGraph, GraphStore, GraphView};
use std::process::ExitCode;
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
/// exercise calibration, both ramp passes, the controller loop and every
/// verdict rule end to end in a few seconds.
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
/// Answered records replay-checked per mode before anything is judged.
const REPLAY_SAMPLES: usize = 8;

const COPY_PROB: f64 = 0.75;
const GRAPH_SEED: u64 = 7;
const WORKLOAD_SEED: u64 = 4242;

/// One ramp segment's pre-generated traffic.
struct SegmentPlan {
    name: &'static str,
    load_factor: f64,
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
    throughput_qps: f64,
    /// Steady-state (post-warm-up) answered latencies.
    latency: LatencySummary,
}

impl SegmentReport {
    /// Steady-state p99 within `slo_p99`; a segment that answered nothing
    /// did not meet its SLO.
    fn meets(&self, slo_p99: Duration) -> bool {
        self.latency.p99().is_some_and(|p99| p99 <= slo_p99)
    }
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
/// Returns per-segment reports plus the controller's log, after
/// replay-checking a sample of the answers.
fn run_ramp(
    engine: &SimPush,
    base: &CsrGraph,
    workload: &Arc<MixedWorkload>,
    plans: &[SegmentPlan],
    scale: &Scale,
    static_deadline: Duration,
    controller_opts: Option<ControllerOptions>,
) -> (Vec<SegmentReport>, Option<ControlLog>) {
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
        .map(|opts| Controller::start(frontend.observer(), frontend.admission_quota(), opts));

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
        let tickets = submit_open_loop(&frontend, start, &plan.arrivals, &plan.keys);
        // Drain the segment: every accepted request resolves exactly once.
        let mut steady = Vec::with_capacity(tickets.len());
        let mut steady_service = Vec::with_capacity(tickets.len());
        for (i, ticket) in tickets {
            match ticket.wait() {
                QueryOutcome::Answered(r) => {
                    if plan.arrivals[i] >= warmup {
                        steady.push(r.queue_wait + r.service);
                        steady_service.push(r.service);
                    }
                    replays.push(ReplayRecord {
                        node: r.node,
                        epoch: r.epoch,
                        top: r.top,
                    });
                }
                QueryOutcome::DeadlineMissed { .. } => {}
                QueryOutcome::Failed { node } => panic!("worker failed serving node {node}"),
            }
        }
        let wall = start.elapsed();
        let after = frontend.stats();
        eprintln!(
            "[elastic_serve]   {} {:.1}x service p99 {:?}",
            plan.name,
            plan.load_factor,
            LatencySummary::from_samples(steady_service)
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
            throughput_qps: if wall.is_zero() {
                0.0
            } else {
                answered as f64 / wall.as_secs_f64()
            },
            latency: LatencySummary::from_samples(steady),
        });
    }

    writer.join().expect("writer thread panicked");
    let log = controller.map(Controller::stop);
    frontend.shutdown();

    // Replay spot-check: a spread of answered records must reproduce bit
    // for bit from a cold rebuild of their epoch's graph, no matter what
    // quota was live when they were answered.
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
    (reports, log)
}

/// One ramp segment measured both ways.
struct Segment {
    name: &'static str,
    load_factor: f64,
    fixed: SegmentReport,
    controlled: SegmentReport,
}

/// Every rule of the ramp verdict (module docs) that the run breaks, one
/// message each; empty means the verdict holds. Only the steady `ramp`
/// segments offered at ≥ [`VERDICT_LOAD`]× capacity carry the headline
/// rules — `bursty` rides along for colour — and there must be one.
fn ramp_violations(
    segments: &[Segment],
    slo_p99: Duration,
    log: &ControlLog,
    smoke: bool,
) -> Vec<String> {
    let mut broken = Vec::new();
    let mut high_segments = 0;
    for seg in segments {
        let at = format!("{} {:.1}x", seg.name, seg.load_factor);
        for (side, r) in [("static", &seg.fixed), ("controlled", &seg.controlled)] {
            let rules = [
                (r.answered >= 1, "answered nothing"),
                (r.throughput_qps >= 0.1, "throughput < 0.1 q/s"),
                (
                    r.latency.p99().is_some_and(|p99| !p99.is_zero()),
                    "no steady-state p99 sample",
                ),
                (r.rejected <= r.requests as u64, "rejected > requests"),
                (
                    r.deadline_misses <= r.accepted,
                    "deadline_misses > accepted",
                ),
            ];
            broken.extend(
                rules
                    .iter()
                    .filter(|(holds, _)| !holds)
                    .map(|(_, rule)| format!("{at}: {side} run {rule}")),
            );
        }
        if seg.name != "ramp" || seg.load_factor < VERDICT_LOAD - 1e-9 {
            continue;
        }
        high_segments += 1;
        let fixed_p99 = seg.fixed.latency.p99().unwrap_or_default();
        let controlled_p99 = seg.controlled.latency.p99().unwrap_or_default();
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
        if !seg.controlled.meets(slo_p99) {
            broken.push(format!(
                "{at}: controlled run misses the p99 SLO ({controlled_p99:.3?} > {slo_p99:.3?})"
            ));
        }
        if seg.fixed.meets(slo_p99) {
            broken.push(format!(
                "{at}: static run meets the p99 SLO — the ramp is not saturating and proves nothing"
            ));
        }
    }
    if high_segments == 0 {
        broken.push(format!("no ramp segment reaches {VERDICT_LOAD}x load"));
    }
    if log.ticks == 0 {
        broken.push("controller never ticked".to_owned());
    }
    if smoke && log.tighten_count() == 0 {
        broken.push("controller never tightened under a 2.5x overload ramp".to_owned());
    }
    broken
}

/// The rules a usable calibration obeys, one message per broken one. The
/// SLO (≥ 16× mean service) and the sojourn target (2× mean) are positive
/// whenever the mean is, so they need no rule of their own.
fn calibration_violations(
    capacity_qps: f64,
    mean_service: Duration,
    service_p99: Duration,
    static_deadline: Duration,
) -> Vec<String> {
    [
        (!mean_service.is_zero(), "mean service time is zero"),
        (!service_p99.is_zero(), "p99 service time is zero"),
        (capacity_qps >= 0.1, "capacity < 0.1 q/s"),
        (
            static_deadline >= Duration::from_micros(1),
            "static deadline < 1 µs",
        ),
    ]
    .iter()
    .filter(|(holds, _)| !holds)
    .map(|(_, rule)| format!("calibration: {rule}"))
    .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|arg| arg != "--smoke") {
        eprintln!("usage: elastic_serve [--smoke]");
        return ExitCode::from(2);
    }
    let smoke = !args.is_empty();
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
    let service_summary = LatencySummary::from_samples(services);
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
        overload_ticks: 2,
        calm_ticks: 5,
        cooldown_ticks: 2,
    };
    let mut broken =
        calibration_violations(capacity_qps, mean_service, service_p99, static_deadline);

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
    let (static_reports, _) = run_ramp(
        &engine,
        &base,
        &workload,
        &plans,
        &scale,
        static_deadline,
        None,
    );
    eprintln!("[elastic_serve] controlled ramp…");
    let (controlled_reports, control_log) = run_ramp(
        &engine,
        &base,
        &workload,
        &plans,
        &scale,
        static_deadline,
        Some(controller_opts),
    );
    let control_log = control_log.expect("controlled ramp has a log");
    let segments: Vec<Segment> = plans
        .iter()
        .zip(static_reports.into_iter().zip(controlled_reports))
        .map(|(plan, (fixed, controlled))| Segment {
            name: plan.name,
            load_factor: plan.load_factor,
            fixed,
            controlled,
        })
        .collect();

    println!(
        "{:<7} {:>5} | {:>12} {:>7} {:>8} | {:>12} {:>7} {:>8}",
        "segment",
        "load",
        "static p99",
        "slo_met",
        "reject %",
        "control p99",
        "slo_met",
        "reject %"
    );
    // A side that answered nothing in steady state has no p99; `-` next
    // to slo_met false is unambiguous.
    let side = |r: &SegmentReport| {
        format!(
            "{:>12} {:>7} {:>8.1}",
            r.latency
                .p99()
                .map_or("-".to_owned(), |p99| format!("{p99:.3?}")),
            r.meets(slo_p99),
            100.0 * r.rejected as f64 / r.requests as f64
        )
    };
    for seg in &segments {
        println!(
            "{:<7} {:>4.1}x | {} | {}",
            seg.name,
            seg.load_factor,
            side(&seg.fixed),
            side(&seg.controlled)
        );
    }
    println!(
        "calibration: capacity {capacity_qps:.0} q/s, mean service {mean_service:.3?}, service p99 {service_p99:.3?}, SLO p99 {slo_p99:.3?}, static deadline {static_deadline:.3?}"
    );
    println!(
        "controller: {} ticks, {} tightens, {} relaxes",
        control_log.ticks,
        control_log.tighten_count(),
        control_log.relax_count()
    );

    broken.extend(ramp_violations(&segments, slo_p99, &control_log, smoke));
    simrank_bench::verdict_exit_code(&broken)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simpush::{ControlReason, ControlRecord, TickObservation};

    const SLO: Duration = Duration::from_micros(100);

    /// A healthy side whose steady-state p99 is `p99_us`.
    fn side(p99_us: u64) -> SegmentReport {
        SegmentReport {
            requests: 100,
            accepted: 100,
            rejected: 0,
            answered: 100,
            deadline_misses: 0,
            throughput_qps: 50.0,
            latency: LatencySummary::from_samples([Duration::from_micros(p99_us)]),
        }
    }

    fn ramp(load_factor: f64, fixed_us: u64, controlled_us: u64) -> Segment {
        Segment {
            name: "ramp",
            load_factor,
            fixed: side(fixed_us),
            controlled: side(controlled_us),
        }
    }

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
        let ok = [ramp(0.5, 50, 50), ramp(1.5, 400, 600)];
        assert_broken(&ramp_violations(&ok, SLO, &log(10, 1), true), &[]);
        let slower = [ramp(1.5, 400, 640)];
        assert_broken(
            &ramp_violations(&slower, SLO, &log(10, 1), true),
            &["ramp 1.5x: controlled p99 640.000µs exceeds 1.5x static p99 400.000µs"],
        );
        assert_broken(
            &ramp_violations(&ok, SLO, &log(10, 0), true),
            &["controller never tightened"],
        );
    }

    #[test]
    fn full_run_holds_the_slo_verdict_on_every_high_ramp_segment() {
        let held = [ramp(1.0, 90, 200), ramp(1.5, 400, 100), ramp(2.5, 900, 80)];
        assert_broken(&ramp_violations(&held, SLO, &log(10, 0), false), &[]);
        assert_broken(
            &ramp_violations(&[ramp(2.0, 400, 101)], SLO, &log(10, 3), false),
            &["ramp 2.0x: controlled run misses the p99 SLO"],
        );
        assert_broken(
            &ramp_violations(&[ramp(1.5, 100, 60)], SLO, &log(10, 3), false),
            &["ramp 1.5x: static run meets the p99 SLO"],
        );
        assert_broken(
            &ramp_violations(&[ramp(1.5, 150, 160)], SLO, &log(10, 3), false),
            &["exceeds static p99", "controlled run misses the p99 SLO"],
        );
    }

    #[test]
    fn only_steady_ramp_segments_at_verdict_load_carry_the_verdict() {
        // A `bursty` segment that would break every headline rule, next to
        // a ramp that never reaches the comparison load.
        let segments = [
            ramp(1.4, 50, 900),
            Segment {
                name: "bursty",
                ..ramp(2.0, 50, 900)
            },
        ];
        for smoke in [false, true] {
            assert_broken(
                &ramp_violations(&segments, SLO, &log(10, 1), smoke),
                &["no ramp segment reaches 1.5x load"],
            );
        }
    }

    #[test]
    fn every_segment_must_have_answered_on_both_sides_and_the_controller_ticked() {
        let mut starved = ramp(0.5, 50, 50);
        starved.controlled = SegmentReport {
            answered: 0,
            throughput_qps: 0.0,
            latency: LatencySummary::default(),
            ..side(50)
        };
        starved.fixed = SegmentReport {
            rejected: 101,
            deadline_misses: 101,
            ..side(50)
        };
        assert_broken(
            &ramp_violations(&[starved, ramp(1.5, 400, 90)], SLO, &log(0, 0), false),
            &[
                "ramp 0.5x: static run rejected > requests",
                "ramp 0.5x: static run deadline_misses > accepted",
                "ramp 0.5x: controlled run answered nothing",
                "ramp 0.5x: controlled run throughput < 0.1 q/s",
                "ramp 0.5x: controlled run no steady-state p99 sample",
                "controller never ticked",
            ],
        );
    }

    #[test]
    fn a_calibration_must_be_positive() {
        let (ns, us) = (Duration::from_nanos(1), Duration::from_micros(1));
        assert_broken(&calibration_violations(0.1, ns, ns, us), &[]);
        assert_broken(
            &calibration_violations(0.09, Duration::ZERO, Duration::ZERO, us - ns),
            &[
                "mean service time is zero",
                "p99 service time is zero",
                "capacity < 0.1 q/s",
                "static deadline < 1 µs",
            ],
        );
    }
}
