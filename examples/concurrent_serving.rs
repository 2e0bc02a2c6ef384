//! Concurrent update/query serving — the paper's "frequent updates"
//! scenario as a running system.
//!
//! A [`GraphStore`] serves a social graph: one writer thread commits edge
//! update batches and publishes immutable epoch snapshots, while four
//! reader threads answer single-source SimRank queries on whatever epoch
//! is current — no rebuild step, no locking beyond an `Arc` swap. At the
//! end we show the determinism contract: re-querying the final epoch on a
//! full CSR rebuild reproduces the served answer bit for bit.
//!
//! ```sh
//! cargo run --release --example concurrent_serving
//! ```

use simpush::{serve_mixed, Config, ServeOptions, SimPush};
use simrank_suite::common::stats::LatencySummary;
use simrank_suite::eval::mixed::mixed_workload;
use simrank_suite::prelude::*;

fn main() {
    let base = simrank_suite::graph::gen::rmat(
        13,
        60_000,
        simrank_suite::graph::gen::RmatParams::social(),
        5,
    );
    println!(
        "social graph: {} nodes, {} edges",
        base.num_nodes(),
        base.num_edges()
    );

    let workload = mixed_workload(&base, 1_024, 48, 0.3, 42);
    let store = GraphStore::with_compaction_threshold(base.clone(), 256);
    let engine = SimPush::new(Config::new(0.02));
    let opts = ServeOptions {
        reader_threads: 4,
        updates_per_batch: 32,
        top_k: 3,
    };

    println!(
        "serving {} queries ({} readers) against {} updates (batches of {})…\n",
        workload.queries.len(),
        opts.reader_threads,
        workload.updates.len(),
        opts.updates_per_batch
    );
    let report = serve_mixed(&engine, &store, &workload.queries, &workload.updates, &opts);

    println!("--- serving run ---");
    println!(
        "wall time            : {:>10.2?}  ({:.0} queries/s)",
        report.wall,
        report.queries_per_sec()
    );
    let latency = report.query_latencies();
    println!(
        "query latency        : {:>10.2?} avg, {:.2?} p95",
        latency.mean(),
        latency.p95().unwrap_or_default()
    );
    println!(
        "update batch latency : {:>10.2?} avg (apply + publish)",
        LatencySummary::from_samples(report.updates.iter().map(|u| u.latency)).mean()
    );
    println!(
        "epochs published     : {:>10}  ({} compactions, {:.2?} compacting)",
        report.final_epoch, report.compactions, report.compaction_time
    );
    let epochs: std::collections::BTreeSet<u64> = report.queries.iter().map(|q| q.epoch).collect();
    println!(
        "epochs observed      : {:>10} distinct ({:?}…)",
        epochs.len(),
        epochs.iter().take(6).collect::<Vec<_>>()
    );
    if let Some(rec) = report.queries.iter().find(|q| !q.top.is_empty()) {
        println!(
            "sample answer        : query {} @ epoch {} → top {:?}",
            rec.node, rec.epoch, rec.top
        );
    }

    // The determinism contract: a snapshot answer equals the answer on a
    // full CSR rebuild of the same epoch.
    let snap = store.snapshot();
    let rebuilt = snap.to_csr();
    let u = workload.queries[0];
    let on_snapshot = engine.query_seeded(&*snap, u);
    let on_rebuild = engine.query_seeded(&rebuilt, u);
    assert_eq!(on_snapshot.scores, on_rebuild.scores);
    println!(
        "\nfinal epoch {}: query {u} on overlay snapshot == on CSR rebuild, bit for bit ✓",
        snap.epoch()
    );
}
