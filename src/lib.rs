//! Umbrella crate for the SimPush workspace.
//!
//! Re-exports the public surface of every workspace crate so examples and
//! downstream users can depend on a single package:
//!
//! ```
//! use simrank_suite::prelude::*;
//!
//! let g = shapes::jeh_widom();
//! assert_eq!(g.num_nodes(), 5);
//! ```

#![warn(missing_docs)]

pub use simpush;
pub use simrank_baselines as baselines;
pub use simrank_common as common;
pub use simrank_eval as eval;
pub use simrank_graph as graph;
pub use simrank_walks as walks;

/// Common imports for examples and quick experiments.
pub mod prelude {
    pub use simrank_common::NodeId;
    pub use simrank_graph::gen::shapes;
    pub use simrank_graph::{
        CsrGraph, DeltaOverlay, DiskGraph, DiskGraphOptions, GraphBase, GraphBuilder,
        GraphSnapshot, GraphStore, GraphUpdate, GraphView, MutableGraph, Partitioner,
        RangePartitioner, ShardedSnapshot, ShardedStore,
    };
    pub use simrank_walks::{pairwise_simrank_mc, WalkParams};
}
