//! `scenario_serve` — machine-readable run of the named workload-scenario
//! matrix against the serving front-end.
//!
//! This bin fixes *what shape* the traffic has, not how much of it the
//! `Frontend` can take: it runs every scenario in
//! [`simrank_eval::scenario::catalog`] — `read_heavy`, `update_heavy`,
//! `zipf_hot`, `bursty`, `batch_scan`, `hot_flood` — through the real
//! front-end (bounded admission queue, worker pool, deadlines, a paced
//! update writer) and writes one JSON snapshot (`BENCH_scenarios.json`)
//! with per-scenario SLO metrics: throughput, p95/p99 latency, reject
//! rate, deadline-miss rate, queue depth.
//!
//! Offered rates are multiples of calibrated capacity (a closed-loop run
//! through the same front-end), so the numbers mean the same thing on a
//! laptop and a CI runner. Each scenario's SLO *targets* are emitted next
//! to its measured rates together with a `slo_met` verdict, so a
//! regression reads directly off the snapshot.
//!
//! ```text
//! cargo run --release -p simrank_bench --bin scenario_serve [--smoke] [OUT.json]
//! ```
//!
//! `--smoke` shrinks the graph and request counts to CI scale; CI
//! validates the output with `check_bench_json` (schema + per-scenario
//! numeric ranges) and compares throughput against the committed full-run
//! snapshot.

use simpush::{Config, SimPush};
use simrank_eval::scenario::{
    calibrate, catalog, run_scenario, ArrivalShape, Calibration, KeyDist, Scenario, ScenarioReport,
    ScenarioScale,
};
use simrank_graph::{gen, GraphView};
use std::fmt::Write as _;
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
/// catalog entry, the writer, admission and the JSON schema end to end in
/// a few seconds. A query on this graph takes microseconds: scaled from the
/// calibrated capacity the 160 arrivals would be due within 4 ms, tens of
/// microseconds apart, which no sleeping load generator can pace — the
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

fn ns(d: Duration) -> u128 {
    d.as_nanos()
}

/// Emits one scenario entry. Every entry carries the same keys (knobs
/// that don't apply are 0), so `check_bench_json`'s `[*]` wildcard paths
/// hold over the whole array.
fn scenario_entry(json: &mut String, s: &Scenario, r: &ScenarioReport, last: bool) {
    let (load_factor, burstiness, clients) = match s.arrivals {
        ArrivalShape::OpenLoop {
            load_factor,
            burstiness,
        } => (load_factor, burstiness, 0usize),
        ArrivalShape::ClosedLoop { clients } => (0.0, 0.0, clients),
    };
    let (zipf_exponent, hot_set_size) = match s.keys {
        KeyDist::Zipf { exponent } => (exponent, 0usize),
        KeyDist::HotSet { size } => (0.0, size),
        KeyDist::Uniform | KeyDist::Scan => (0.0, 0),
    };
    writeln!(json, "    {{").unwrap();
    writeln!(json, "      \"name\": \"{}\",", r.name).unwrap();
    writeln!(json, "      \"about\": \"{}\",", s.about).unwrap();
    writeln!(json, "      \"key_dist\": \"{}\",", s.keys.label()).unwrap();
    writeln!(json, "      \"zipf_exponent\": {zipf_exponent},").unwrap();
    writeln!(json, "      \"hot_set_size\": {hot_set_size},").unwrap();
    writeln!(json, "      \"arrival\": \"{}\",", s.arrivals.label()).unwrap();
    writeln!(json, "      \"load_factor\": {load_factor},").unwrap();
    writeln!(json, "      \"burstiness\": {burstiness},").unwrap();
    writeln!(json, "      \"clients\": {clients},").unwrap();
    writeln!(
        json,
        "      \"updates_per_query\": {},",
        s.updates_per_query
    )
    .unwrap();
    writeln!(json, "      \"requests\": {},", r.requests).unwrap();
    writeln!(json, "      \"updates\": {},", r.updates.len()).unwrap();
    writeln!(json, "      \"offered_qps\": {:.1},", r.offered_qps).unwrap();
    writeln!(json, "      \"accepted\": {},", r.accepted).unwrap();
    writeln!(json, "      \"rejected\": {},", r.rejected).unwrap();
    writeln!(json, "      \"answered\": {},", r.answered).unwrap();
    writeln!(json, "      \"deadline_misses\": {},", r.deadline_misses).unwrap();
    writeln!(json, "      \"throughput_qps\": {:.1},", r.throughput_qps).unwrap();
    writeln!(json, "      \"reject_rate\": {:.4},", r.reject_rate()).unwrap();
    writeln!(
        json,
        "      \"deadline_miss_rate\": {:.4},",
        r.deadline_miss_rate()
    )
    .unwrap();
    // An all-rejected scenario has no latency sample; 0 ns next to
    // reject_rate = 1.0 is unambiguous in the snapshot.
    writeln!(
        json,
        "      \"p50_latency_ns\": {},",
        ns(r.p50_latency.unwrap_or_default())
    )
    .unwrap();
    writeln!(
        json,
        "      \"p95_latency_ns\": {},",
        ns(r.p95_latency.unwrap_or_default())
    )
    .unwrap();
    writeln!(
        json,
        "      \"p99_latency_ns\": {},",
        ns(r.p99_latency.unwrap_or_default())
    )
    .unwrap();
    writeln!(
        json,
        "      \"avg_queue_wait_ns\": {},",
        ns(r.avg_queue_wait)
    )
    .unwrap();
    writeln!(json, "      \"max_queue_depth\": {},", r.max_queue_depth).unwrap();
    writeln!(json, "      \"final_epoch\": {},", r.final_epoch).unwrap();
    writeln!(json, "      \"wall_ns\": {},", ns(r.wall)).unwrap();
    writeln!(
        json,
        "      \"slo\": {{ \"max_reject_rate\": {}, \"max_deadline_miss_rate\": {} }},",
        s.slo.max_reject_rate, s.slo.max_deadline_miss_rate
    )
    .unwrap();
    writeln!(json, "      \"slo_met\": {}", r.meets(&s.slo)).unwrap();
    writeln!(json, "    }}{}", if last { "" } else { "," }).unwrap();
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_scenarios.json".to_owned();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else if arg.starts_with("--") {
            eprintln!("unknown option {arg}\nusage: scenario_serve [--smoke] [OUT.json]");
            std::process::exit(2);
        } else {
            out_path = arg;
        }
    }
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
    eprintln!(
        "[scenario_serve] calibrated: capacity {:.0} q/s, mean service {:?}",
        measured.capacity_qps, measured.mean_service
    );
    // What the scenarios scale their load and deadlines from: the measured
    // calibration, unless arrivals at that rate would not span the minimum
    // window — then the fastest capacity that does, with the service time
    // that capacity implies. Both are emitted.
    let paceable_qps = scale
        .min_window
        .map(|window| sizes.requests as f64 / window.as_secs_f64())
        .filter(|&qps| qps < measured.capacity_qps);
    let paced = match paceable_qps {
        Some(qps) => {
            eprintln!("[scenario_serve] pacing the open loops from {qps:.0} q/s instead");
            Calibration {
                capacity_qps: qps,
                mean_service: Duration::from_secs_f64(sizes.workers as f64 / qps),
                ..measured
            }
        }
        None => measured,
    };

    let scenarios = catalog();
    let mut reports: Vec<ScenarioReport> = Vec::with_capacity(scenarios.len());
    for (i, scenario) in scenarios.iter().enumerate() {
        let report = run_scenario(
            &engine,
            &base,
            scenario,
            &scale.scenario,
            &paced,
            SCENARIO_SEED + 100 + i as u64,
        );
        eprintln!(
            "[scenario_serve] {:>12}: {:.0} q/s, reject {:.1}%, miss {:.1}%, p99 {:?}, slo_met {}",
            report.name,
            report.throughput_qps,
            100.0 * report.reject_rate(),
            100.0 * report.deadline_miss_rate(),
            report.p99_latency.unwrap_or_default(),
            report.meets(&scenario.slo)
        );
        reports.push(report);
    }

    let mut json = String::new();
    // Hand-rolled JSON: the workspace intentionally has no serde. The
    // check_bench_json binary validates schema AND numeric ranges in CI.
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"bench\": \"scenario_serve\",").unwrap();
    writeln!(json, "  \"smoke\": {smoke},").unwrap();
    writeln!(
        json,
        "  \"graph\": {{ \"family\": \"copying_web\", \"nodes\": {}, \"out_degree\": {}, \"copy_prob\": {COPY_PROB}, \"seed\": {GRAPH_SEED} }},",
        scale.nodes, scale.out_deg
    )
    .unwrap();
    writeln!(json, "  \"epsilon\": {},", scale.epsilon).unwrap();
    writeln!(
        json,
        "  \"options\": {{ \"workers\": {}, \"queue_capacity\": {}, \"requests_per_scenario\": {}, \"updates_per_batch\": {}, \"top_k\": {}, \"compaction_threshold\": {}, \"deadline_queue_factor\": {}, \"seed\": {SCENARIO_SEED} }},",
        scale.scenario.workers,
        scale.scenario.queue_capacity,
        scale.scenario.requests,
        scale.scenario.updates_per_batch,
        scale.scenario.top_k,
        scale.scenario.compaction_threshold,
        scale.scenario.deadline_queue_factor
    )
    .unwrap();
    writeln!(
        json,
        "  \"calibration\": {{ \"requests\": {}, \"mean_service_ns\": {}, \"capacity_qps\": {:.1}, \"paced_mean_service_ns\": {}, \"paced_capacity_qps\": {:.1} }},",
        measured.requests,
        ns(measured.mean_service),
        measured.capacity_qps,
        ns(paced.mean_service),
        paced.capacity_qps
    )
    .unwrap();
    writeln!(json, "  \"scenarios\": [").unwrap();
    let count = reports.len();
    for (i, (scenario, report)) in scenarios.iter().zip(&reports).enumerate() {
        scenario_entry(&mut json, scenario, report, i + 1 == count);
    }
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();

    std::fs::write(&out_path, &json).expect("write benchmark snapshot");
    print!("{json}");
    eprintln!("wrote {out_path}");
}
