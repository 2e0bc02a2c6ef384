//! Shared plumbing for the figure/table binaries (and the exit contract
//! of the verdict bin, [`verdict_exit_code`]).
//!
//! The paper's Figures 4, 5 and 6 are three views (error/time,
//! precision/time, error/memory) of the *same* experiment: every method ×
//! every setting × every dataset. [`run_figures_experiment`] runs it once
//! and caches the per-setting results as CSV under `target/results/`; the
//! `fig4`/`fig5`/`fig6` binaries then render their view from the cache, so
//! regenerating all three figures costs one experiment run.
//!
//! Knobs (environment): `SIMRANK_SCALE` (dataset size multiplier),
//! `SIMRANK_QUERIES`, `SIMRANK_GT_SAMPLES`, `SIMRANK_PRE_BUDGET_SECS`,
//! `SIMRANK_QUERY_BUDGET_SECS`, `SIMRANK_FRESH=1` (ignore the results
//! cache), `SIMRANK_DATASETS=a,b` (restrict datasets).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use simrank_eval::methods::{method_grid, MethodFamily, MethodSetting};
use simrank_eval::runner::{run_dataset, ExperimentConfig, MethodResult};
use simrank_eval::{datasets, report};
use std::path::PathBuf;
use std::process::ExitCode;

/// How the verdict bin (`scenario_serve`) ends: one
/// `VERDICT FAILED: <rule>` line per violated rule — the last thing on
/// stdout, so a CI log ends on the reason — and exit code 1, or exit code
/// 0 when no rule is violated.
pub fn verdict_exit_code(violations: &[String]) -> ExitCode {
    for rule in violations {
        println!("VERDICT FAILED: {rule}");
    }
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Results directory (`target/results`).
pub fn results_dir() -> PathBuf {
    PathBuf::from("target/results")
}

/// The settings evaluated on a dataset, mirroring the paper's resource
/// rules: every family runs on the four small graphs; on the large graphs
/// the heavy index-based/index-free methods keep only their two cheapest
/// settings (the paper drops settings that exceed memory or the 24 h
/// preprocessing limit); on the ClueWeb stand-in only SimPush, PRSim and
/// ProbeSim run at all (paper Figure 7: the others exceeded server memory).
pub fn settings_for(spec: &datasets::DatasetSpec) -> Vec<MethodSetting> {
    let mut out = Vec::new();
    let clueweb = spec.name == "clueweb-sim";
    for family in MethodFamily::all() {
        let grid = method_grid(family);
        let keep: usize = if clueweb {
            match family {
                MethodFamily::SimPush | MethodFamily::PrSim | MethodFamily::ProbeSim => 5,
                _ => 0,
            }
        } else if spec.large {
            match family {
                MethodFamily::SimPush | MethodFamily::PrSim | MethodFamily::ProbeSim => 5,
                MethodFamily::Reads | MethodFamily::Tsf | MethodFamily::TopSim => 2,
                MethodFamily::Sling => 1,
            }
        } else {
            5
        };
        out.extend(grid.into_iter().take(keep));
    }
    out
}

/// Runs (or loads from cache) the shared Fig-4/5/6 experiment over the full
/// dataset registry.
pub fn run_figures_experiment() -> Vec<MethodResult> {
    let cache = results_dir().join(format!(
        "fig456-scale{}-q{}.csv",
        datasets::env_scale(),
        ExperimentConfig::from_env().num_queries
    ));
    let fresh = std::env::var("SIMRANK_FRESH").is_ok_and(|v| v == "1");
    if !fresh {
        if let Some(results) = load_results_csv(&cache) {
            eprintln!("[bench] loaded cached results from {}", cache.display());
            return results;
        }
    }

    let cfg = ExperimentConfig::from_env();
    let data_dir = datasets::default_data_dir();
    let only: Option<Vec<String>> = std::env::var("SIMRANK_DATASETS")
        .ok()
        .map(|s| s.split(',').map(|x| x.trim().to_string()).collect());

    let mut all = Vec::new();
    for spec in datasets::registry() {
        if let Some(only) = &only {
            if !only.iter().any(|n| n == spec.name) {
                continue;
            }
        }
        eprintln!("[bench] dataset {} ({})…", spec.name, spec.paper_name);
        let g = spec.load_or_generate(&data_dir);
        let settings = settings_for(&spec);
        let results = run_dataset(spec.name, &g, &settings, &cfg);
        eprintln!("{}", report::results_table(&results));
        all.extend(results);
        // Persist incrementally so an interrupted run keeps its progress.
        report::write_csv(&all, &cache);
    }
    all
}

/// Parses a results CSV produced by [`report::results_csv`]. Returns `None`
/// when the file is absent or malformed.
pub fn load_results_csv(path: &std::path::Path) -> Option<Vec<MethodResult>> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut lines = text.lines();
    lines.next()?; // header
    let mut out = Vec::new();
    for line in lines {
        let fields = split_csv(line);
        if fields.len() < 13 {
            return None;
        }
        out.push(MethodResult {
            dataset: fields[0].clone(),
            family: fields[1].clone(),
            label: fields[2].clone(),
            setting_idx: fields[3].parse().ok()?,
            preprocess_secs: fields[4].parse().ok()?,
            avg_query_secs: fields[5].parse().ok()?,
            avg_error: fields[6].parse().ok()?,
            precision: fields[7].parse().ok()?,
            index_bytes: fields[8].parse().ok()?,
            graph_bytes: fields[9].parse().ok()?,
            peak_rss_bytes: fields[10].parse::<u64>().ok().filter(|&b| b > 0),
            queries_run: fields[11].parse().ok()?,
            excluded: if fields[12].is_empty() {
                None
            } else {
                Some(fields[12].clone())
            },
        });
    }
    Some(out)
}

/// Minimal CSV field splitter for our own output (quotes only around the
/// label and exclusion fields, no embedded quotes).
fn split_csv(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    for ch in line.chars() {
        match ch {
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => fields.push(std::mem::take(&mut cur)),
            _ => cur.push(ch),
        }
    }
    fields.push(cur);
    fields
}

/// Groups results by dataset preserving registry order.
pub fn by_dataset(results: &[MethodResult]) -> Vec<(String, Vec<&MethodResult>)> {
    let mut order: Vec<String> = Vec::new();
    for r in results {
        if !order.contains(&r.dataset) {
            order.push(r.dataset.clone());
        }
    }
    order
        .into_iter()
        .map(|d| {
            let rows: Vec<&MethodResult> = results.iter().filter(|r| r.dataset == d).collect();
            (d, rows)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settings_policy_matches_paper_rules() {
        let reg = datasets::registry_scaled(0.05);
        let small = reg.iter().find(|d| d.name == "dblp-sim").unwrap();
        assert_eq!(settings_for(small).len(), 35, "7 families × 5 settings");
        let large = reg.iter().find(|d| d.name == "uk-sim").unwrap();
        let ls = settings_for(large);
        assert!(ls.len() < 35 && ls.len() >= 15);
        let cw = reg.iter().find(|d| d.name == "clueweb-sim").unwrap();
        let cs = settings_for(cw);
        assert_eq!(cs.len(), 15, "only the Figure-7 trio");
        assert!(cs.iter().all(|s| matches!(
            s.family,
            MethodFamily::SimPush | MethodFamily::PrSim | MethodFamily::ProbeSim
        )));
    }

    #[test]
    fn csv_round_trip_through_loader() {
        let r = MethodResult {
            dataset: "d1".into(),
            label: "SimPush ε=0.02".into(),
            family: "SimPush".into(),
            setting_idx: 1,
            preprocess_secs: 0.5,
            avg_query_secs: 0.001234,
            avg_error: 0.0005,
            precision: 0.98,
            index_bytes: 10,
            graph_bytes: 20,
            peak_rss_bytes: Some(4096),
            queries_run: 10,
            excluded: None,
        };
        let dir = std::env::temp_dir().join(format!("simrank-benchlib-{}", std::process::id()));
        let path = dir.join("r.csv");
        simrank_eval::report::write_csv(std::slice::from_ref(&r), &path);
        let loaded = load_results_csv(&path).expect("parse back");
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].label, r.label);
        assert_eq!(loaded[0].avg_query_secs, r.avg_query_secs);
        assert_eq!(loaded[0].peak_rss_bytes, r.peak_rss_bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn grouping_preserves_order() {
        let mk = |d: &str| MethodResult {
            dataset: d.into(),
            label: "x".into(),
            family: "f".into(),
            setting_idx: 0,
            preprocess_secs: 0.0,
            avg_query_secs: 0.0,
            avg_error: 0.0,
            precision: 0.0,
            index_bytes: 0,
            graph_bytes: 0,
            peak_rss_bytes: None,
            queries_run: 0,
            excluded: None,
        };
        let rs = vec![mk("b"), mk("a"), mk("b")];
        let groups = by_dataset(&rs);
        assert_eq!(groups[0].0, "b");
        assert_eq!(groups[0].1.len(), 2);
        assert_eq!(groups[1].0, "a");
    }
}
