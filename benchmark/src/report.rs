//! What a run accumulates and how it is printed.

use crate::json::{result_line, Metric};
use crate::spec::{unit_of, END_TO_END, PER_LAYER};

#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    /// Requests sent in the timed window.
    pub attempted: u64,
    /// Requests not answered, answered wrongly, and failed gate checks.
    pub failed: u64,
    /// Correctness-gate failures; any of them makes the run exit non-zero.
    pub gate_failures: Vec<String>,
    /// Reasons the host made this run untrustworthy; it is still reported.
    pub suspect: Vec<String>,
    pub notes: Vec<String>,
    /// Seconds spent generating graphs and request streams.
    pub gen_s: f64,
}

impl Report {
    /// Records a metric under a name from one of the two tables in `spec`.
    /// A value that is not a number fails the run: the result object cannot
    /// carry it, and a 0 in its place would be compared as if measured.
    pub fn push(&mut self, name: &str, value: f64, samples: usize) {
        self.gate(value.is_finite(), || format!("metric {name} is {value}"));
        let unit = unit_of(&END_TO_END, name)
            .or_else(|| unit_of(&PER_LAYER, name))
            .unwrap_or_else(|| panic!("metric {name} is not in the benchmark's tables"));
        assert!(
            !self.metrics.iter().any(|m| m.name == name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// A correctness check; a failed one counts as a failed operation.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.gate_failures.push(what());
        }
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty()
    }

    /// The metrics of `table`, in table order. A per-layer metric nothing
    /// reported reads 0: the workload bypasses that layer.
    fn select(&self, table: &[(&'static str, &'static str)], must_exist: bool) -> Vec<Metric> {
        table
            .iter()
            .map(|&(name, unit)| {
                self.metrics
                    .iter()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or_else(|| {
                        assert!(!must_exist, "end-to-end metric {name} was not measured");
                        Metric {
                            name: name.to_string(),
                            value: 0.0,
                            unit,
                            samples: 0,
                        }
                    })
            })
            .collect()
    }

    /// Every metric by name with unit, sample count and workload, then the
    /// contract's result object as the last line.
    pub fn print(&self, workload: &str, traced: bool) {
        for m in &self.metrics {
            println!(
                "metric {workload} {} = {} {} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        for n in &self.notes {
            println!("note {workload} {n}");
        }
        for s in &self.suspect {
            println!("suspect {workload} {s}");
        }
        for f in &self.gate_failures {
            println!("GATE FAILED {workload} {f}");
        }
        let chosen = if traced {
            self.select(&PER_LAYER, false)
        } else {
            self.select(&END_TO_END, true)
        };
        println!(
            "{}",
            result_line(self.correct(), self.attempted.max(1), self.failed, &chosen)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_value_that_is_not_a_number_fails_the_run() {
        let mut report = Report::default();
        report.push("query_p50_ms", 1.5, 10);
        assert!(report.correct() && report.failed == 0);
        report.push("view.disk_fs_tax", 1.0 / 0.0, 10);
        assert!(!report.correct());
        assert_eq!(report.failed, 1);
    }
}
