//! Serving front-end demo: open-loop traffic through a bounded admission
//! queue with backpressure and deadlines, over a live-updating store.
//!
//! Three phases over one `GraphStore`:
//!
//! 1. **Comfortable load** — arrivals well under capacity: everything is
//!    answered, the queue stays shallow.
//! 2. **Burst** — a thundering herd dumped in at once: the bounded queue
//!    absorbs what fits, rejects the rest immediately (`Overloaded`), and
//!    a tight deadline expires some of what was accepted.
//! 3. **Replay check** — every answered request reproduces bit-for-bit
//!    from a fresh rebuild of the epoch it was served on.
//!
//! ```sh
//! cargo run --release --example frontend_serving
//! ```

use simpush::{Config, Frontend, FrontendOptions, QueryOutcome, SimPush, Ticket};
use simrank_eval::mixed::{mixed_workload, open_loop_arrivals};
use simrank_suite::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let n = 3_000;
    let base = simrank_suite::graph::gen::copying_web(n, 6, 0.7, 9);
    let workload = mixed_workload(&base, 256, 48, 0.3, 13);
    let store = Arc::new(GraphStore::with_compaction_threshold(base.clone(), 64));
    let engine = SimPush::new(Config::new(0.05));
    println!(
        "graph: n={} m={}; frontend: 2 workers, queue capacity 16, deadline 250ms",
        base.num_nodes(),
        base.num_edges()
    );

    let frontend = Frontend::start(
        &engine,
        store.clone(),
        FrontendOptions::builder()
            .workers(2)
            .queue_capacity(16)
            .default_deadline(Some(Duration::from_millis(250)))
            .top_k(3)
            .build(),
    );

    // A writer keeps committing update batches the whole time, so answers
    // span epochs.
    let writer = {
        let store = store.clone();
        let updates = workload.updates.clone();
        std::thread::spawn(move || {
            for chunk in updates.chunks(16) {
                store.commit(chunk);
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };

    // Phase 1: comfortable open-loop traffic.
    let arrivals = open_loop_arrivals(32, Duration::from_millis(4), 0.1, 21);
    let start = Instant::now();
    let mut tickets: Vec<(NodeId, Ticket)> = Vec::new();
    let mut rejected = 0usize;
    for (i, &offset) in arrivals.iter().enumerate() {
        let target = start + offset;
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
        let u = workload.queries[i % workload.queries.len()];
        match frontend.try_submit(u) {
            Ok(t) => tickets.push((u, t)),
            Err(_) => rejected += 1,
        }
    }
    println!(
        "phase 1 (comfortable): {} accepted, {rejected} rejected",
        tickets.len()
    );

    // Phase 2: a burst — everything at once, no pacing.
    let mut burst_rejected = 0usize;
    for i in 0..64 {
        let u = workload.queries[(i * 7) % workload.queries.len()];
        match frontend.try_submit(u) {
            Ok(t) => tickets.push((u, t)),
            Err(_) => burst_rejected += 1,
        }
    }
    println!(
        "phase 2 (burst of 64): {} rejected at admission (queue capacity 16)",
        burst_rejected
    );

    // Collect every outcome; the writer finishes on its own.
    type AnsweredRecord = (NodeId, u64, Vec<(NodeId, f64)>);
    let mut answered: Vec<AnsweredRecord> = Vec::new();
    let mut missed = 0usize;
    for (u, ticket) in tickets {
        match ticket.wait() {
            QueryOutcome::Answered(r) => answered.push((u, r.epoch, r.top)),
            QueryOutcome::DeadlineMissed { .. } => missed += 1,
            QueryOutcome::Failed { node } => panic!("worker failed serving node {node}"),
        }
    }
    writer.join().expect("writer panicked");
    let stats = frontend.shutdown();
    println!(
        "outcomes: {} answered, {missed} deadline-missed, max queue depth {}",
        answered.len(),
        stats.max_queue_depth
    );
    let epochs: Vec<u64> = {
        let mut e: Vec<u64> = answered.iter().map(|&(_, epoch, _)| epoch).collect();
        e.sort_unstable();
        e.dedup();
        e
    };
    println!(
        "answers observed {} distinct epochs: {epochs:?}",
        epochs.len()
    );

    // Phase 3: replay every answer on its epoch's rebuild (epoch e is the
    // base plus the first e batches of 16).
    for (u, epoch, top) in &answered {
        let rebuilt = workload.graph_after(&base, *epoch as usize * 16);
        let solo = engine.query_seeded(&rebuilt, *u);
        assert_eq!(*top, solo.top_k(3), "epoch {epoch} answer for u={u}");
    }
    println!(
        "replay: all {} answers bit-identical to their epoch's rebuild ✓",
        answered.len()
    );
}
