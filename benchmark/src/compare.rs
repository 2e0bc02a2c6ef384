//! `compare A B`: two directories of result lines (`<workload>.<seed>.json`,
//! as `run.sh` writes them) judged cell by cell against the bounds in
//! `BENCHMARK.json`.

use crate::json::Json;
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The runs of one side spread wider than the bound, so a difference
    /// within the bound cannot be told from noise.
    Unresolved,
}

/// Interquartile range over the median; with fewer than four runs the
/// full range, and with one run nothing.
fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (lo, hi) = if values.len() < 4 {
        (
            values.iter().copied().fold(f64::INFINITY, f64::min),
            values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        )
    } else {
        quartiles(values)
    };
    (hi - lo) / m.abs()
}

/// `b` against `a` for a metric that is better in direction `higher`.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (Verdict, f64, f64) {
    let (ma, mb) = (median(a), median(b));
    let ratio = if ma == 0.0 { 1.0 } else { mb / ma };
    let worse_by = if higher_is_better {
        1.0 - ratio
    } else {
        ratio - 1.0
    };
    let noise = spread(a).max(spread(b));
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let b_always_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let verdict = if noise > bound && !b_always_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (verdict, ratio, noise)
}

/// Metric values of every result file of `workload` in `dir`.
fn load(dir: &Path, workload: &str) -> Result<BTreeMap<String, Vec<f64>>, String> {
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with(&format!("{workload}.")) && name.ends_with(".json")) {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
        if let Some(Json::Obj(metrics)) = doc.get("metrics") {
            for (metric, entry) in metrics {
                if let Some(v) = entry.get("value").and_then(Json::as_f64) {
                    out.entry(metric.clone()).or_default().push(v);
                }
            }
        }
    }
    Ok(out)
}

/// Prints one row per workload and returns how many cells are worse.
pub fn compare(spec_path: &Path, a: &Path, b: &Path) -> Result<usize, String> {
    let text =
        std::fs::read_to_string(spec_path).map_err(|e| format!("{}: {e}", spec_path.display()))?;
    let spec = Json::parse(&text)?;
    let mut worse = 0;
    println!(
        "B = {} against A = {}; each cell: verdict B/A (A's median, spread, bound)",
        b.display(),
        a.display()
    );
    for workload in spec.get("workloads").map_or(&[][..], Json::as_array) {
        let workload = workload
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        let (ra, rb) = (load(a, workload)?, load(b, workload)?);
        let mut cells = Vec::new();
        for metric in spec.get("end_to_end").map_or(&[][..], Json::as_array) {
            let field = |f: &str| metric.get(f).and_then(Json::as_str).unwrap_or("");
            let (name, unit) = (field("name"), field("unit"));
            let bound = metric
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            let (Some(va), Some(vb)) = (ra.get(name), rb.get(name)) else {
                cells.push(format!("{name}: missing"));
                continue;
            };
            let (verdict, ratio, noise) = judge(va, vb, field("better") == "higher", bound);
            worse += usize::from(verdict == Verdict::Worse);
            let word = match verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            };
            cells.push(format!(
                "{name}: {word} {ratio:.3}x ({:.4} {unit}, n={}+{}, spread {:.1}%, bound {:.1}%)",
                median(va),
                va.len(),
                vb.len(),
                noise * 100.0,
                bound * 100.0
            ));
        }
        println!("{workload} | {}", cells.join(" | "));
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [10.0, 10.1, 9.9, 10.0];
        // Lower is better, bound 10%.
        assert_eq!(
            judge(&a, &[10.5, 10.6, 10.4, 10.5], false, 0.1).0,
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &[11.5, 11.6, 11.4, 11.5], false, 0.1).0,
            Verdict::Worse
        );
        assert_eq!(judge(&a, &[8.0, 8.1, 7.9, 8.0], false, 0.1).0, Verdict::Ok);
        // Higher is better: a drop is worse, a rise is fine.
        assert_eq!(
            judge(&a, &[8.0, 8.1, 7.9, 8.0], true, 0.1).0,
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &[12.0, 12.1, 11.9, 12.0], true, 0.1).0,
            Verdict::Ok
        );
        // A noisy side makes the cell unresolved unless B wins every pair.
        let noisy = [8.0, 12.0, 9.0, 13.0];
        assert_eq!(judge(&a, &noisy, false, 0.1).0, Verdict::Unresolved);
        assert_eq!(
            judge(&noisy, &[5.0, 5.1, 4.9, 5.0], false, 0.1).0,
            Verdict::Ok
        );
        // One run a side has no spread: the medians decide.
        assert_eq!(judge(&[10.0], &[10.5], false, 0.1).0, Verdict::Ok);
        assert_eq!(judge(&[10.0], &[11.5], false, 0.1).0, Verdict::Worse);
    }
}
