//! `check_bench_json` — schema, range and regression gate for the two
//! verdict snapshots, `BENCH_scenarios.json` (`scenario_serve`) and
//! `BENCH_elastic_serve.json` (`elastic_serve`).
//!
//! The emitters hand-write their JSON, so CI validates every smoke output
//! with this checker before uploading it as an artifact. Performance is
//! not measured here — that is `BENCHMARK.json` + `benchmark/`. Two modes:
//!
//! **Validate** (default): each file must be non-empty, parse as JSON
//! (`simrank_bench::json`), name a known `bench` family, carry that
//! family's required keys **and** satisfy its numeric range assertions
//! (`reject_rate ∈ [0, 1]`, positive throughputs, …) — so a snapshot that
//! is schema-valid but numerically nonsense fails the gate too. Files
//! whose `smoke` flag is true get additional smoke-only bounds (the
//! scenarios' deadline-miss rate must stay ≤ 0.5 at CI scale).
//!
//! ```text
//! check_bench_json FILE.json [FILE.json …]
//! ```
//!
//! **Compare**: ratio the designated throughput metrics of a candidate
//! snapshot against a committed baseline of the same bench family, print
//! a summary table, and fail if any metric dropped more than the allowed
//! fraction (default 30 %). CI runs both smoke outputs against the
//! committed full-run snapshots — a coarse floor that catches a serving
//! path collapsing, since a smoke run on a tiny graph should never be
//! slower than the committed full run on a graph 50× larger.
//!
//! ```text
//! check_bench_json --compare BASELINE.json CANDIDATE.json [--max-drop 0.30]
//! ```
//!
//! Exit code 0 means every check passed; any failure prints the reason
//! and exits 1, failing the CI job.

use simrank_bench::json::{self, Bound, Json};
use std::process::ExitCode;

/// Keys every snapshot must carry regardless of family.
const COMMON: &[&str] = &["bench", "graph.nodes"];

/// Top-level dotted paths a `scenario_serve` snapshot must carry (beyond
/// [`COMMON`]).
const SCENARIO_REQUIRED: &[&str] = &[
    "smoke",
    "epsilon",
    "options.workers",
    "options.queue_capacity",
    "options.requests_per_scenario",
    "options.updates_per_batch",
    "calibration.requests",
    "calibration.mean_service_ns",
    "calibration.capacity_qps",
    "scenarios",
];

/// Top-level dotted paths an `elastic_serve` snapshot must carry (beyond
/// [`COMMON`]).
const ELASTIC_REQUIRED: &[&str] = &[
    "smoke",
    "workload.queries",
    "workload.updates",
    "options.workers",
    "options.queue_capacity",
    "options.static_deadline_ms",
    "calibration.requests",
    "calibration.mean_service_ns",
    "calibration.p99_service_ns",
    "calibration.capacity_qps",
    "slo.p99_ns",
    "slo.target_sojourn_ns",
    "slo.tick_ms",
    "ramp",
    "control.ticks",
    "control.actuations",
    "control.tightens",
    "control.relaxes",
    "verdict.comparison_load",
    "verdict.controlled_holds_slo_at_high_load",
    "verdict.static_misses_slo_at_high_load",
    "verdict.controlled_p99_not_above_static_at_high_load",
];

/// Keys every `scenarios` element of a `scenario_serve` snapshot must
/// carry — one named workload scenario each. Knobs that don't apply to a
/// scenario are emitted as 0, so the set is uniform across the array.
const SCENARIO_KEYS: &[&str] = &[
    "name",
    "about",
    "key_dist",
    "zipf_exponent",
    "hot_set_size",
    "arrival",
    "load_factor",
    "burstiness",
    "clients",
    "updates_per_query",
    "requests",
    "updates",
    "offered_qps",
    "accepted",
    "rejected",
    "answered",
    "deadline_misses",
    "throughput_qps",
    "reject_rate",
    "deadline_miss_rate",
    "p50_latency_ns",
    "p95_latency_ns",
    "p99_latency_ns",
    "avg_queue_wait_ns",
    "max_queue_depth",
    "final_epoch",
    "wall_ns",
    "slo.max_reject_rate",
    "slo.max_deadline_miss_rate",
    "slo_met",
];

/// The named scenarios every `scenario_serve` snapshot must report — the
/// workload matrix is only a regression surface if no scenario can
/// silently drop out of it.
const REQUIRED_SCENARIOS: &[&str] = &[
    "read_heavy",
    "update_heavy",
    "zipf_hot",
    "bursty",
    "batch_scan",
    "hot_flood",
];

/// Range assertions for `scenario_serve` snapshots, applied to the whole
/// document (every-scenario invariants use the `[*]` wildcard).
const SCENARIO_BOUNDS: &[Bound] = &[
    Bound::at_least("graph.nodes", 2.0),
    Bound::at_least("options.workers", 1.0),
    Bound::at_least("options.queue_capacity", 1.0),
    Bound::at_least("calibration.mean_service_ns", 1.0),
    Bound::at_least("calibration.capacity_qps", 0.1),
    Bound::between("scenarios[*].reject_rate", 0.0, 1.0),
    Bound::between("scenarios[*].deadline_miss_rate", 0.0, 1.0),
    Bound::at_least("scenarios[*].requests", 1.0),
    Bound::at_least("scenarios[*].updates", 1.0),
    Bound::at_least("scenarios[*].throughput_qps", 0.1),
    Bound::at_least("scenarios[*].answered", 1.0),
    Bound::at_least("scenarios[*].p99_latency_ns", 1.0),
    Bound::at_least("scenarios[*].final_epoch", 1.0),
    Bound::between("scenarios[*].slo.max_reject_rate", 0.0, 1.0),
    Bound::between("scenarios[*].slo.max_deadline_miss_rate", 0.0, 1.0),
];

/// The scenario deadlines are generous vs. worst-case queueing, so even at
/// CI scale overload must surface as cheap rejection, never as a majority
/// of accepted-then-expired requests — that would mean the deadline
/// machinery is broken.
const SCENARIO_SMOKE_BOUNDS: &[Bound] = &[Bound::at_most("scenarios[*].deadline_miss_rate", 0.5)];

/// Per-scenario-name range assertions, applied **element-relative** to the
/// matching `scenarios[]` entry. These pin both the workload *knobs* (so a
/// scenario can't be quietly de-fanged — `hot_flood` must stay offered
/// past capacity, `bursty` must keep a high burst knob, `zipf_hot` must
/// stay skewed) and conservative *outcome* ranges per shape (a closed-loop
/// scan can never reject; below-knee open loops must shed almost nothing).
const SCENARIO_NAMED_BOUNDS: &[(&str, &[Bound])] = &[
    (
        "read_heavy",
        &[
            Bound::at_most("updates_per_query", 0.1),
            Bound::between("load_factor", 0.3, 0.99),
            Bound::at_most("reject_rate", 0.25),
            Bound::at_most("deadline_miss_rate", 0.1),
        ],
    ),
    (
        "update_heavy",
        &[
            Bound::at_least("updates_per_query", 1.0),
            Bound::between("load_factor", 0.2, 0.99),
            Bound::at_most("reject_rate", 0.25),
        ],
    ),
    (
        "zipf_hot",
        &[
            Bound::at_least("zipf_exponent", 1.0),
            Bound::between("load_factor", 0.3, 0.99),
            Bound::at_most("reject_rate", 0.25),
        ],
    ),
    (
        "bursty",
        &[
            Bound::at_least("burstiness", 0.5),
            Bound::between("load_factor", 0.5, 1.0),
            Bound::at_most("reject_rate", 0.6),
        ],
    ),
    (
        "batch_scan",
        &[
            Bound::at_least("clients", 2.0),
            Bound::between("reject_rate", 0.0, 0.0),
            Bound::between("deadline_miss_rate", 0.0, 0.0),
        ],
    ),
    (
        "hot_flood",
        &[
            Bound::at_least("load_factor", 1.2),
            Bound::at_least("hot_set_size", 1.0),
            Bound::at_most("reject_rate", 0.95),
        ],
    ),
];

/// Required keys for every element of an `elastic_serve` snapshot's
/// `ramp` array — the segment identity plus the full static/controlled
/// side-by-side accounting.
const ELASTIC_SEGMENT_KEYS: &[&str] = &[
    "segment",
    "load_factor",
    "burstiness",
    "static.requests",
    "static.accepted",
    "static.rejected",
    "static.answered",
    "static.deadline_misses",
    "static.cancelled",
    "static.reject_rate",
    "static.deadline_miss_rate",
    "static.throughput_qps",
    "static.p50_latency_ns",
    "static.p95_latency_ns",
    "static.p99_latency_ns",
    "static.slo_met",
    "static.wall_ns",
    "controlled.requests",
    "controlled.accepted",
    "controlled.rejected",
    "controlled.answered",
    "controlled.deadline_misses",
    "controlled.cancelled",
    "controlled.reject_rate",
    "controlled.deadline_miss_rate",
    "controlled.throughput_qps",
    "controlled.p50_latency_ns",
    "controlled.p95_latency_ns",
    "controlled.p99_latency_ns",
    "controlled.slo_met",
    "controlled.wall_ns",
];

/// Range assertions for `elastic_serve` snapshots, applied to the whole
/// document at both scales.
const ELASTIC_BOUNDS: &[Bound] = &[
    Bound::at_least("graph.nodes", 2.0),
    Bound::at_least("options.workers", 1.0),
    Bound::at_least("options.queue_capacity", 1.0),
    Bound::at_least("options.static_deadline_ms", 0.001),
    Bound::at_least("calibration.mean_service_ns", 1.0),
    Bound::at_least("calibration.p99_service_ns", 1.0),
    Bound::at_least("calibration.capacity_qps", 0.1),
    Bound::at_least("slo.p99_ns", 1.0),
    Bound::at_least("slo.target_sojourn_ns", 1.0),
    Bound::at_least("control.ticks", 1.0),
    Bound::at_least("ramp[*].static.answered", 1.0),
    Bound::at_least("ramp[*].controlled.answered", 1.0),
    Bound::at_least("ramp[*].static.throughput_qps", 0.1),
    Bound::at_least("ramp[*].controlled.throughput_qps", 0.1),
    Bound::at_least("ramp[*].static.p99_latency_ns", 1.0),
    Bound::at_least("ramp[*].controlled.p99_latency_ns", 1.0),
    Bound::between("ramp[*].static.reject_rate", 0.0, 1.0),
    Bound::between("ramp[*].controlled.reject_rate", 0.0, 1.0),
    Bound::between("ramp[*].static.deadline_miss_rate", 0.0, 1.0),
    Bound::between("ramp[*].controlled.deadline_miss_rate", 0.0, 1.0),
];

/// Validates a `scenario_serve` snapshot's `scenarios` array: per-element
/// schema, presence of every [`REQUIRED_SCENARIOS`] name exactly once, and
/// the element-relative [`SCENARIO_NAMED_BOUNDS`] ranges.
fn check_scenarios(path: &str, doc: &Json) -> Result<(), String> {
    let scenarios = doc
        .path("scenarios")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: \"scenarios\" must be an array"))?;
    let mut names: Vec<&str> = Vec::with_capacity(scenarios.len());
    for (i, entry) in scenarios.iter().enumerate() {
        let missing = json::missing_paths(entry, SCENARIO_KEYS);
        if !missing.is_empty() {
            return Err(format!(
                "{path}: scenarios[{i}] missing required keys {missing:?}"
            ));
        }
        let name = entry
            .path("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: scenarios[{i}].name must be a string"))?;
        names.push(name);
        if let Some((_, bounds)) = SCENARIO_NAMED_BOUNDS.iter().find(|(n, _)| *n == name) {
            let violations = json::check_bounds(entry, bounds);
            if !violations.is_empty() {
                return Err(format!(
                    "{path}: scenario \"{name}\" range violations:\n  {}",
                    violations.join("\n  ")
                ));
            }
        }
    }
    for required in REQUIRED_SCENARIOS {
        match names.iter().filter(|n| *n == required).count() {
            1 => {}
            0 => return Err(format!("{path}: scenario \"{required}\" is missing")),
            k => {
                return Err(format!(
                    "{path}: scenario \"{required}\" appears {k} times (must be unique)"
                ))
            }
        }
    }
    Ok(())
}

/// Validates an `elastic_serve` snapshot's `ramp` array and closed-loop
/// verdict.
///
/// Per-element schema first, then the PR's acceptance rule on **full**
/// runs: every `ramp` segment offered at ≥ `verdict.comparison_load`
/// must show the controlled run holding the p99 SLO that the static run
/// misses, with controlled p99 no worse than static — and the emitter's
/// own verdict booleans must agree. **Smoke** runs on CI boxes are too
/// noisy for absolute SLO gates, so only the sign of the effect is
/// pinned: controlled p99 at most 1.5× static at high load, and the
/// controller must actually have tightened at least once.
fn check_elastic_ramp(path: &str, doc: &Json) -> Result<(), String> {
    let ramp = doc
        .path("ramp")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: \"ramp\" must be an array"))?;
    if ramp.is_empty() {
        return Err(format!("{path}: \"ramp\" must be non-empty"));
    }
    let smoke = doc.path("smoke").and_then(Json::as_bool) == Some(true);
    let comparison_load = doc
        .path("verdict.comparison_load")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{path}: verdict.comparison_load must be a number"))?;

    let mut high_segments = 0usize;
    for (i, entry) in ramp.iter().enumerate() {
        let missing = json::missing_paths(entry, ELASTIC_SEGMENT_KEYS);
        if !missing.is_empty() {
            return Err(format!(
                "{path}: ramp[{i}] missing required keys {missing:?}"
            ));
        }
        let segment = entry
            .path("segment")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: ramp[{i}].segment must be a string"))?;
        let load = entry
            .path("load_factor")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{path}: ramp[{i}].load_factor must be a number"))?;
        // The bursty scenario rides along for colour but only the steady
        // ramp segments carry the verdict, mirroring the emitter.
        if segment != "ramp" || load < comparison_load - 1e-9 {
            continue;
        }
        high_segments += 1;
        let static_p99 = entry
            .path("static.p99_latency_ns")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{path}: ramp[{i}].static.p99_latency_ns must be a number"))?;
        let controlled_p99 = entry
            .path("controlled.p99_latency_ns")
            .and_then(Json::as_f64)
            .ok_or_else(|| {
                format!("{path}: ramp[{i}].controlled.p99_latency_ns must be a number")
            })?;
        if smoke {
            if controlled_p99 > static_p99 * 1.5 {
                return Err(format!(
                    "{path}: ramp[{i}] at {load}x load: controlled p99 {controlled_p99}ns \
                     exceeds 1.5x static p99 {static_p99}ns — the control plane is not helping"
                ));
            }
            continue;
        }
        if controlled_p99 > static_p99 {
            return Err(format!(
                "{path}: ramp[{i}] at {load}x load: controlled p99 {controlled_p99}ns \
                 exceeds static p99 {static_p99}ns"
            ));
        }
        if entry.path("controlled.slo_met").and_then(Json::as_bool) != Some(true) {
            return Err(format!(
                "{path}: ramp[{i}] at {load}x load: controlled run misses the p99 SLO"
            ));
        }
        if entry.path("static.slo_met").and_then(Json::as_bool) != Some(false) {
            return Err(format!(
                "{path}: ramp[{i}] at {load}x load: static run meets the p99 SLO — \
                 the ramp is not saturating and proves nothing"
            ));
        }
    }
    if high_segments == 0 {
        return Err(format!(
            "{path}: no ramp segment reaches comparison_load {comparison_load}x"
        ));
    }

    if smoke {
        let tightens = doc
            .path("control.tightens")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{path}: control.tightens must be a number"))?;
        if tightens < 1.0 {
            return Err(format!(
                "{path}: controller never tightened under a 2.5x overload ramp"
            ));
        }
        return Ok(());
    }
    for flag in [
        "verdict.controlled_holds_slo_at_high_load",
        "verdict.static_misses_slo_at_high_load",
        "verdict.controlled_p99_not_above_static_at_high_load",
    ] {
        if doc.path(flag).and_then(Json::as_bool) != Some(true) {
            return Err(format!("{path}: {flag} must be true on a full run"));
        }
    }
    Ok(())
}

/// Everything the checker knows about one `bench` family.
struct Family {
    /// The snapshot's `bench` value.
    name: &'static str,
    /// Top-level dotted paths the document must carry (beyond [`COMMON`]).
    required: &'static [&'static str],
    /// Per-element schema and verdict rules for the family's array.
    check_elements: fn(&str, &Json) -> Result<(), String>,
    /// Range assertions at both scales. Each doubles as a presence check
    /// (a path resolving to nothing is a violation).
    bounds: &'static [Bound],
    /// Extra bounds applied only when the snapshot's `smoke` flag is true.
    smoke_bounds: &'static [Bound],
    /// Designated higher-is-better throughput metrics for `--compare`,
    /// chosen so a smoke run (tiny graph) compared against the committed
    /// full run (large graph) can only fail when something is genuinely
    /// broken: per-query and calibration throughputs scale *up* as graphs
    /// shrink.
    throughput: &'static [&'static str],
}

/// The families with a committed snapshot. Anything else is rejected: a
/// snapshot of a family nobody validates proves nothing.
const FAMILIES: &[Family] = &[
    Family {
        name: "scenario_serve",
        required: SCENARIO_REQUIRED,
        check_elements: check_scenarios,
        bounds: SCENARIO_BOUNDS,
        smoke_bounds: SCENARIO_SMOKE_BOUNDS,
        throughput: &["calibration.capacity_qps", "scenarios[*].throughput_qps"],
    },
    Family {
        name: "elastic_serve",
        required: ELASTIC_REQUIRED,
        check_elements: check_elastic_ramp,
        bounds: ELASTIC_BOUNDS,
        smoke_bounds: &[],
        // Only the calibration throughput is scale-robust here: ramp
        // segment qps is set by the offered load, not the machine.
        throughput: &["calibration.capacity_qps"],
    },
];

fn load(path: &str) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read file: {e}"))?;
    if text.trim().is_empty() {
        return Err(format!("{path}: file is empty"));
    }
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Looks up the document's `bench` family; a family the checker does not
/// know is an error, not a pass.
fn bench_family(path: &str, doc: &Json) -> Result<&'static Family, String> {
    let missing = json::missing_paths(doc, COMMON);
    if !missing.is_empty() {
        return Err(format!("{path}: missing required keys {missing:?}"));
    }
    let bench = doc
        .path("bench")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{path}: \"bench\" must be a string"))?;
    FAMILIES.iter().find(|f| f.name == bench).ok_or_else(|| {
        let known: Vec<&str> = FAMILIES.iter().map(|f| f.name).collect();
        format!("{path}: unknown bench family \"{bench}\" (known: {known:?})")
    })
}

fn check_doc(path: &str, doc: &Json) -> Result<String, String> {
    let family = bench_family(path, doc)?;
    let bench = family.name;
    let missing = json::missing_paths(doc, family.required);
    if !missing.is_empty() {
        return Err(format!(
            "{path}: bench \"{bench}\" missing required keys {missing:?}"
        ));
    }
    (family.check_elements)(path, doc)?;

    // Range assertions: schema-valid but numerically nonsense fails too.
    let mut violations = json::check_bounds(doc, family.bounds);
    if doc.path("smoke").and_then(Json::as_bool) == Some(true) {
        violations.extend(json::check_bounds(doc, family.smoke_bounds));
    }
    if !violations.is_empty() {
        return Err(format!(
            "{path}: bench \"{bench}\" range violations:\n  {}",
            violations.join("\n  ")
        ));
    }
    Ok(format!("{path}: ok (bench \"{bench}\", ranges checked)"))
}

fn check_file(path: &str) -> Result<String, String> {
    check_doc(path, &load(path)?)
}

/// The `--compare` mode: regression table + verdict. Returns `Ok(true)`
/// when the candidate holds up, `Ok(false)` on a regression.
fn compare(baseline_path: &str, candidate_path: &str, max_drop: f64) -> Result<bool, String> {
    let baseline = load(baseline_path)?;
    let candidate = load(candidate_path)?;
    let family = bench_family(baseline_path, &baseline)?;
    let base_bench = family.name;
    let cand_bench = bench_family(candidate_path, &candidate)?.name;
    if base_bench != cand_bench {
        return Err(format!(
            "bench family mismatch: baseline is \"{base_bench}\", candidate is \"{cand_bench}\""
        ));
    }
    let rows = json::compare_throughput(&baseline, &candidate, family.throughput, max_drop)
        .map_err(|e| format!("{candidate_path} vs {baseline_path}: {e}"))?;

    println!(
        "regression check: {candidate_path} vs baseline {baseline_path} (bench \"{base_bench}\", max drop {:.0}%)",
        max_drop * 100.0
    );
    println!(
        "{:<44} {:>14} {:>14} {:>8}  status",
        "metric", "baseline", "candidate", "ratio"
    );
    let mut ok = true;
    for row in &rows {
        println!(
            "{:<44} {:>14.1} {:>14.1} {:>7.2}x  {}",
            row.metric,
            row.baseline,
            row.candidate,
            row.ratio,
            if row.regressed { "REGRESSED" } else { "ok" }
        );
        ok &= !row.regressed;
    }
    Ok(ok)
}

fn usage() -> ExitCode {
    eprintln!("usage: check_bench_json FILE.json [FILE.json …]");
    eprintln!("       check_bench_json --compare BASELINE.json CANDIDATE.json [--max-drop 0.30]");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }

    if args[0] == "--compare" {
        let mut max_drop = 0.30;
        let mut files = Vec::new();
        let mut it = args[1..].iter();
        while let Some(arg) = it.next() {
            if arg == "--max-drop" {
                // Validate here: a fraction outside [0, 1) would hit the
                // library assert and die with a raw panic instead of a
                // clean usage error in the CI log.
                let Some(v) = it
                    .next()
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|v| (0.0..1.0).contains(v))
                else {
                    eprintln!("--max-drop must be a fraction in [0, 1)");
                    return usage();
                };
                max_drop = v;
            } else {
                files.push(arg.clone());
            }
        }
        let [baseline, candidate] = files.as_slice() else {
            return usage();
        };
        return match compare(baseline, candidate, max_drop) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => {
                eprintln!(
                    "FAIL: throughput regressed more than {:.0}%",
                    max_drop * 100.0
                );
                ExitCode::FAILURE
            }
            Err(msg) => {
                eprintln!("FAIL {msg}");
                ExitCode::FAILURE
            }
        };
    }

    let mut failed = false;
    for file in &args {
        match check_file(file) {
            Ok(msg) => println!("{msg}"),
            Err(msg) => {
                eprintln!("FAIL {msg}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(name: &str) -> String {
        format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"))
    }

    #[test]
    fn committed_snapshots_validate() {
        for name in ["BENCH_scenarios.json", "BENCH_elastic_serve.json"] {
            if let Err(msg) = check_file(&committed(name)) {
                panic!("{msg}");
            }
        }
    }

    #[test]
    fn a_dropped_scenario_is_rejected() {
        let Json::Obj(mut fields) = load(&committed("BENCH_scenarios.json")).unwrap() else {
            panic!("snapshot is not an object");
        };
        let Some((_, Json::Arr(scenarios))) = fields.iter_mut().find(|(k, _)| k == "scenarios")
        else {
            panic!("snapshot has no scenarios array");
        };
        scenarios.retain(|s| s.path("name").and_then(Json::as_str) != Some("bursty"));
        let err = check_doc("doc", &Json::Obj(fields)).unwrap_err();
        assert!(err.contains("scenario \"bursty\" is missing"), "{err}");
    }

    #[test]
    fn an_unknown_family_is_rejected_and_the_known_ones_are_listed() {
        let doc = json::parse(r#"{"bench": "no_such_bench", "graph": {"nodes": 500}}"#).unwrap();
        let err = check_doc("doc", &doc).unwrap_err();
        assert!(
            err.contains("unknown bench family \"no_such_bench\""),
            "{err}"
        );
        assert!(
            err.contains("scenario_serve") && err.contains("elastic_serve"),
            "{err}"
        );
    }
}
