//! `scenario_serve` — runs the named workload-scenario matrix against the
//! serving front-end and judges it.
//!
//! This bin fixes *what shape* the traffic has, not how much of it the
//! `Frontend` can take: it runs every scenario in
//! [`simrank_eval::scenario::catalog`] — `read_heavy`, `update_heavy`,
//! `zipf_hot`, `bursty`, `batch_scan`, `hot_flood` — through the real
//! front-end (bounded admission queue, worker pool, deadlines, a paced
//! update writer), prints one row per scenario (offered and achieved
//! rate, reject and deadline-miss rate, p50/p99 latency, whether the
//! scenario's own SLO targets were met) and checks each typed report
//! against [`simrank_eval::scenario::violations`], and the calibration
//! against [`Calibration::violations`].
//!
//! Offered rates are multiples of calibrated capacity (a closed-loop run
//! of uniform keys through the same front-end), so the numbers mean the
//! same thing on a laptop and a CI runner — and never compare two
//! commits; `benchmark/` does that.
//!
//! ```text
//! cargo run --release -p simrank_bench --bin scenario_serve [--smoke]
//! ```
//!
//! Exit code 0: the verdict holds. 1: a rule is violated; every violated
//! rule is printed last as `VERDICT FAILED: <scenario>: <rule>`. 2: usage.
//! `--smoke` shrinks the graph and request counts to CI scale, paces the
//! open loops from at most 1,600 q/s (see `SMOKE`) and adds the
//! smoke-only rule; CI runs exactly that. At full scale the verdict has
//! not held since the median query became ≈25× cheaper than the hub
//! queries `zipf_hot` and `hot_flood` concentrate on (ROADMAP open items).

use simpush::{Config, SimPush};
use simrank_eval::scenario::{
    calibrate, catalog, run_scenario, violations, Calibration, ScenarioScale,
};
use simrank_graph::{gen, GraphView};
use std::process::ExitCode;
use std::time::Duration;

struct BinScale {
    nodes: usize,
    out_deg: usize,
    epsilon: f64,
    /// Shortest span an open loop's arrivals may be scheduled over: the
    /// capacity the load factors scale from is capped at
    /// `requests / min_window` (`None` = use the calibrated capacity as is).
    min_window: Option<Duration>,
    scenario: ScenarioScale,
}

const FULL: BinScale = BinScale {
    nodes: 20_000,
    out_deg: 8,
    epsilon: 0.02,
    min_window: None,
    scenario: ScenarioScale {
        requests: 2_400,
        min_updates: 64,
        max_updates: 4_096,
        updates_per_batch: 64,
        workers: 2,
        queue_capacity: 64,
        compaction_threshold: 512,
        calib_requests: 200,
        calib_clients: 8,
        deadline_queue_factor: 4,
        top_k: 8,
    },
};

/// CI scale: tiny graph, short scenarios — enough to exercise every
/// catalog entry, the writer, admission and every verdict rule end to end
/// in a few seconds. A query on this graph takes microseconds: scaled from
/// the calibrated capacity the 160 arrivals would be due within 4 ms, tens
/// of microseconds apart, which no sleeping load generator can pace — the
/// reject rate then measures scheduler jitter, not admission (and sending
/// more requests at that rate only measures more of it). So the smoke run
/// spreads them over a minimum window instead.
const SMOKE: BinScale = BinScale {
    nodes: 400,
    out_deg: 4,
    epsilon: 0.05,
    min_window: Some(Duration::from_millis(100)),
    scenario: ScenarioScale {
        requests: 160,
        min_updates: 16,
        max_updates: 512,
        updates_per_batch: 16,
        workers: 2,
        queue_capacity: 16,
        compaction_threshold: 16,
        calib_requests: 40,
        calib_clients: 4,
        deadline_queue_factor: 4,
        top_k: 8,
    },
};

const COPY_PROB: f64 = 0.75;
const GRAPH_SEED: u64 = 7;
const SCENARIO_SEED: u64 = 42;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|arg| arg != "--smoke") {
        eprintln!("usage: scenario_serve [--smoke]");
        return ExitCode::from(2);
    }
    let smoke = !args.is_empty();
    let scale = if smoke { SMOKE } else { FULL };

    let base = gen::copying_web(scale.nodes, scale.out_deg, COPY_PROB, GRAPH_SEED);
    let engine = SimPush::new(Config::new(scale.epsilon));
    eprintln!(
        "[scenario_serve] graph n={} m={}{}",
        base.num_nodes(),
        base.num_edges(),
        if smoke { " (smoke)" } else { "" }
    );

    let sizes = &scale.scenario;
    let measured = calibrate(&engine, &base, sizes, SCENARIO_SEED);
    // What the scenarios scale their load and deadlines from: the measured
    // calibration, unless arrivals at that rate would not span the minimum
    // window — then the fastest capacity that does, with the service time
    // that capacity implies.
    let paceable_qps = scale
        .min_window
        .map(|window| sizes.requests as f64 / window.as_secs_f64())
        .filter(|&qps| qps < measured.capacity_qps);
    let paced = match paceable_qps {
        Some(qps) => Calibration {
            capacity_qps: qps,
            mean_service: Duration::from_secs_f64(sizes.workers as f64 / qps),
            ..measured
        },
        None => measured,
    };

    let mut broken = measured.violations();

    println!(
        "{:<12} {:>11} {:>9} {:>8} {:>7} {:>12} {:>12}  slo_met",
        "scenario", "offered q/s", "q/s", "reject %", "miss %", "p50", "p99"
    );
    for (i, scenario) in catalog().iter().enumerate() {
        let report = run_scenario(
            &engine,
            &base,
            scenario,
            sizes,
            &paced,
            SCENARIO_SEED + 100 + i as u64,
        );
        // An all-rejected scenario has no latency sample (`-` next to a
        // 100 % reject rate is unambiguous); a closed loop has no offered
        // rate.
        let latency = |d: Option<Duration>| d.map_or("-".to_owned(), |d| format!("{d:.3?}"));
        let offered = match report.offered_qps {
            qps if qps > 0.0 => format!("{qps:.0}"),
            _ => "-".to_owned(),
        };
        println!(
            "{:<12} {:>11} {:>9.0} {:>8.1} {:>7.1} {:>12} {:>12}  {}",
            report.name,
            offered,
            report.throughput_qps,
            100.0 * report.reject_rate(),
            100.0 * report.deadline_miss_rate(),
            latency(report.p50_latency),
            latency(report.p99_latency),
            report.meets(&scenario.slo)
        );
        broken.extend(violations(scenario, &report, smoke));
    }
    println!(
        "calibration: {} requests, capacity {:.0} q/s, mean service {:.3?}; open loops paced from {:.0} q/s",
        measured.requests, measured.capacity_qps, measured.mean_service, paced.capacity_qps
    );

    simrank_bench::verdict_exit_code(&broken)
}
