//! Quickstart: build a graph, run a single-source SimRank query, inspect
//! the result.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use simpush::{Config, SimPush};
use simrank_suite::prelude::*;

fn main() {
    // A small synthetic web graph: 10k pages, 5 out-links each, pages tend
    // to copy links from an existing page (power-law in-degrees).
    let graph = simrank_suite::graph::gen::copying_web(10_000, 5, 0.7, 42);
    println!(
        "graph: {} nodes, {} edges",
        graph.num_nodes(),
        graph.num_edges()
    );

    // SimPush needs no index: construct an engine with an error budget and
    // query immediately. ε = 0.01 means every returned score is within 0.01
    // of the true SimRank (with probability 1 − δ, δ = 1e-4).
    let engine = SimPush::new(Config::new(0.01));
    let query: NodeId = 4242;
    let result = engine.query(&graph, query);

    println!("\ntop-10 nodes most similar to node {query}:");
    for (rank, (node, score)) in result.top_k(10).iter().enumerate() {
        println!("  {:>2}. node {:>6}  s̃ = {score:.5}", rank + 1, node);
    }

    let st = &result.stats;
    println!("\nquery anatomy:");
    println!(
        "  level detection walks : {} ({})",
        st.num_walks,
        if st.num_walks > 0 {
            "the exact push ran out of edge budget and sampled the rest"
        } else {
            "the exact push settled the depth on its own"
        }
    );
    println!(
        "  max level L           : {} (cap L* = {})",
        st.level, st.l_star
    );
    println!("  attention nodes       : {}", st.num_attention);
    println!("  source-graph entries  : {}", st.gu_total_entries);
    println!("  total time            : {:.2?}", st.time_total);
}
