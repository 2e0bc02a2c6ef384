//! Reference implementations of the single-source SimRank methods the paper
//! evaluates SimPush against (paper §2.2 and §5), plus the exact power
//! method used as ground truth on small graphs.
//!
//! | Module | Method | Type | Citation in paper |
//! |--------|--------|------|-------------------|
//! | [`power`] | Power method | exact, all-pairs | \[10\] Jeh & Widom |
//! | [`montecarlo`] | Pairwise/pooled Monte-Carlo | ground truth | \[5\] Fogaras & Rácz |
//! | [`probesim`] | ProbeSim | index-free | \[21\] Liu et al. 2017 |
//! | [`topsim`] | TopSim | index-free | \[15\] Lee et al. 2012 |
//! | [`sling`] | SLING | index-based | \[31\] Tian & Xiao 2016 |
//! | [`prsim`] | PRSim | index-based | \[33\] Wei et al. 2019 |
//! | [`reads`] | READS (static) | index-based | \[12\] Jiang et al. 2017 |
//! | [`tsf`] | TSF | index-based | \[28\] Shao et al. 2015 |
//!
//! Every method implements [`SimRankMethod`], the uniform interface the
//! evaluation harness drives. Fidelity notes and deliberate simplifications
//! are documented per module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod montecarlo;
pub mod power;
pub mod probesim;
pub mod prsim;
pub mod reads;
pub mod sling;
pub mod topsim;
pub mod tsf;

pub use api::SimRankMethod;
pub use montecarlo::MonteCarloSS;
pub use power::{power_method, ExactSimRank};
pub use probesim::ProbeSim;
pub use prsim::PrSim;
pub use reads::Reads;
pub use sling::Sling;
pub use topsim::TopSim;
pub use tsf::Tsf;
