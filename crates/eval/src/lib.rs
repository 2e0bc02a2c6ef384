//! Evaluation harness for the SimPush reproduction.
//!
//! Mirrors the paper's experimental methodology (§5.1):
//!
//! * [`metrics`] — `AvgError@k` and `Precision@k` against pooled ground
//!   truth.
//! * [`ground_truth`] — pooled pairwise Monte-Carlo ground truth with an
//!   on-disk cache.
//! * [`datasets`] — the nine deterministic synthetic stand-ins for the
//!   paper's Table 4 datasets (substitutions documented per dataset and in
//!   `docs/REPRODUCING.md`).
//! * [`methods`] — the seven methods with the paper's five-point parameter
//!   grids, behind one factory interface.
//! * [`mixed`] — deterministic mixed update/query workload generation for
//!   the dynamic serving scenario (a `Frontend` over a store whose
//!   writers keep committing).
//! * [`zipf`] — deterministic seeded Zipf key sampling for skewed
//!   workloads.
//! * [`scenario`] — the named workload-scenario matrix (`read_heavy`,
//!   `zipf_hot`, `hot_flood`, …) driven through the real `Frontend`.
//! * [`runner`] — per-dataset experiment driver: builds indexes, times
//!   queries, spills score vectors, pools ground truth, computes metrics,
//!   applies the paper's resource-exclusion rules.
//! * [`report`] — plain-text table/CSV emitters used by the `fig*`/`table*`
//!   binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datasets;
pub mod ground_truth;
pub mod methods;
pub mod metrics;
pub mod mixed;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod zipf;

pub use datasets::{registry, DatasetSpec};
pub use methods::{method_grid, MethodFamily, MethodSetting};
pub use mixed::{mixed_workload, MixedWorkload};
pub use runner::{run_dataset, ExperimentConfig, MethodResult};
pub use scenario::{
    calibrate, catalog, run_scenario, ArrivalShape, Calibration, KeyDist, Scenario, ScenarioReport,
    ScenarioScale, SloTarget,
};
pub use zipf::{ZipfDistribution, ZipfKeys};
