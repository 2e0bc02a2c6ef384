//! Deterministic synthetic graph generators.
//!
//! These stand in for the paper's nine real-world datasets
//! (`docs/REPRODUCING.md`):
//! web crawls are modelled by the [`copying`] model (power-law in-degrees
//! with locally dense neighbourhoods), social networks by [`rmat`](mod@rmat)
//! and [`ba`] (preferential attachment), collaboration networks by symmetrised
//! [`chung_lu`] power-law graphs. [`shapes`] provides the small deterministic
//! graphs used throughout the test suites.
//!
//! Every generator takes an explicit `u64` seed and is bit-reproducible.

pub mod alias;
pub mod ba;
pub mod chung_lu;
pub mod copying;
pub mod er;
pub mod rmat;
pub mod shapes;

pub use alias::AliasTable;
pub use ba::barabasi_albert;
pub use chung_lu::{chung_lu_directed, chung_lu_undirected};
pub use copying::{clustered_copying_web, copying_web};
pub use er::gnm;
pub use rmat::{rmat, RmatParams};
