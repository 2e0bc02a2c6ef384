//! Deterministic integration tests for the serving entry points
//! (`serve_mixed`, `serve_sharded`, and the `Frontend` admission layer).
//!
//! `prop_store` races 4 readers against a writer to stress epoch
//! consistency; these tests pin the *deterministic* half of the serving
//! contract instead, on fixed workloads from `simrank_eval::mixed`:
//!
//! * record counts, the update-epoch sequence and the compaction count
//!   are exact, run after run;
//! * every query answer — whatever epoch/cut scheduling happened to give
//!   it — is bit-identical to a cold [`SimPush::query_seeded`] on a fresh
//!   CSR rebuild of exactly that epoch/cut's graph, reconstructed by
//!   replaying the committed update prefix. The front-end tests extend
//!   this replay harness through the admission queue: whatever worker
//!   served a request, and whatever epoch/cut its snapshot happened to
//!   be, the recorded answer must reproduce from that version's rebuild.

use simpush::{
    serve_mixed, serve_sharded, Config, Frontend, FrontendOptions, QueryOutcome, ServeOptions,
    ShardedServeOptions, SimPush, Ticket,
};
use simrank_eval::mixed::{mixed_workload, sharded_workload};
use simrank_eval::scenario::{calibrate, catalog, run_scenario, ScenarioScale};
use simrank_suite::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Replays the first `count` updates of `updates` onto `base`.
fn graph_after(base: &CsrGraph, updates: &[GraphUpdate], count: usize) -> CsrGraph {
    let mut replica = MutableGraph::from_csr(base);
    for &u in &updates[..count.min(updates.len())] {
        let (s, t) = u.endpoints();
        match u {
            GraphUpdate::Insert(..) => replica.insert_edge(s, t),
            GraphUpdate::Remove(..) => replica.remove_edge(s, t),
        };
    }
    replica.snapshot()
}

#[test]
fn single_reader_single_writer_serve_mixed_is_pinned() {
    const BATCH: usize = 8;
    const TOP_K: usize = 3;
    let base = simrank_suite::graph::gen::gnm(180, 900, 21);
    let workload = mixed_workload(&base, 64, 12, 0.3, 33);
    let store = GraphStore::with_compaction_threshold(base.clone(), 24);
    let engine = SimPush::new(Config::new(0.05));

    let report = serve_mixed(
        &engine,
        &store,
        &workload.queries,
        &workload.updates,
        &ServeOptions {
            reader_threads: 1,
            updates_per_batch: BATCH,
            top_k: TOP_K,
        },
    );

    // Pinned record counts: every query answered once, one update record
    // per batch, epochs published strictly in sequence.
    assert_eq!(report.queries.len(), 12);
    assert_eq!(report.updates.len(), 8, "64 updates / batches of 8");
    assert_eq!(report.final_epoch, 8);
    let epochs: Vec<u64> = report.updates.iter().map(|u| u.epoch).collect();
    assert_eq!(epochs, (1..=8).collect::<Vec<u64>>());
    // The generator emits only effective updates, so every batch applies
    // in full — and the compaction schedule is therefore deterministic:
    // threshold 24 over 64 effective updates fires exactly twice
    // (churn resets on compaction: 24 at epoch 3, 24 more by epoch 6).
    for rec in &report.updates {
        assert_eq!(rec.applied, BATCH);
    }
    assert_eq!(report.compactions, 2);
    let compacted: Vec<u64> = report
        .updates
        .iter()
        .filter(|u| u.compacted)
        .map(|u| u.epoch)
        .collect();
    assert_eq!(compacted, vec![3, 6]);

    // Latency records are measured, not defaulted.
    assert!(report.wall > std::time::Duration::ZERO);
    assert!(report
        .queries
        .iter()
        .all(|q| q.latency > std::time::Duration::ZERO));
    assert!(report
        .updates
        .iter()
        .all(|u| u.latency > std::time::Duration::ZERO));
    assert!(
        report.query_latencies().mean() >= report.queries.iter().map(|q| q.latency).min().unwrap()
    );

    // The serving contract: each answer is exact for its recorded epoch.
    // Epoch e is the base plus the first e batches.
    for rec in &report.queries {
        assert!(rec.epoch <= report.final_epoch);
        let g = graph_after(&base, &workload.updates, rec.epoch as usize * BATCH);
        let solo = engine.query_seeded(&g, rec.node);
        assert_eq!(
            rec.top,
            solo.top_k(TOP_K),
            "epoch {} answer for u={} drifted from rebuild",
            rec.epoch,
            rec.node
        );
    }
}

#[test]
fn sharded_serve_cuts_replay_to_exact_answers() {
    const BATCH: usize = 16;
    const TOP_K: usize = 2;
    const SHARDS: usize = 4;
    let n = 200;
    let base = simrank_suite::graph::gen::clustered_copying_web(n, SHARDS, 4, 0.7, 0.05, 17);
    let partitioner = RangePartitioner::new(n, SHARDS);
    let workload = sharded_workload(&base, &partitioner, 80, 10, 0.25, 0.2, 29);
    let store = ShardedStore::with_compaction_threshold(&base, partitioner, 10);
    let engine = SimPush::new(Config::new(0.05));

    let report = serve_sharded(
        &engine,
        &store,
        &workload.queries,
        &workload.updates,
        &ShardedServeOptions {
            reader_threads: 2,
            updates_per_batch: BATCH,
            top_k: TOP_K,
        },
    );

    // Pinned shape: 80 updates / 16 per global batch = 5 cuts, one commit
    // record per (shard, batch), all effective.
    assert_eq!(report.queries.len(), 10);
    assert_eq!(report.final_cut, 5);
    assert_eq!(report.shard_updates.len(), SHARDS * 5);
    assert_eq!(report.effective_updates, 80);
    for shard in 0..SHARDS {
        let batches: Vec<usize> = report
            .shard_updates
            .iter()
            .filter(|r| r.shard == shard)
            .map(|r| r.batch)
            .collect();
        assert_eq!(batches, vec![0, 1, 2, 3, 4], "shard {shard} commit order");
    }

    // Final state equals the sequential replay.
    assert_eq!(
        store.snapshot().to_csr(),
        workload.final_graph(&base),
        "sharded store diverged from replay"
    );

    // The consistent-cut contract: cut c is exactly the first c global
    // batches — every recorded answer must reproduce on that graph.
    for rec in &report.queries {
        assert!(rec.epoch <= report.final_cut, "cut from the future");
        let g = graph_after(&base, &workload.updates, rec.epoch as usize * BATCH);
        let solo = engine.query_seeded(&g, rec.node);
        assert_eq!(
            rec.top,
            solo.top_k(TOP_K),
            "cut {} answer for u={} drifted from rebuild",
            rec.epoch,
            rec.node
        );
    }
}

#[test]
fn frontend_answers_replay_bit_identically_on_their_epochs() {
    // The front-end restatement of the serving contract: a writer thread
    // commits batches into the store while queries flow through the
    // bounded queue and worker pool. Whatever epoch each answer happened
    // to be served on, re-running a cold seeded query on that epoch's
    // rebuild must reproduce it bit for bit.
    const BATCH: usize = 8;
    const TOP_K: usize = 3;
    let base = simrank_suite::graph::gen::gnm(160, 800, 51);
    let workload = mixed_workload(&base, 64, 24, 0.3, 77);
    let store = Arc::new(GraphStore::with_compaction_threshold(base.clone(), 24));
    let engine = SimPush::new(Config::new(0.05));
    let frontend = Frontend::start(
        &engine,
        store.clone(),
        FrontendOptions::builder()
            .workers(3)
            .queue_capacity(64)
            .default_deadline(None)
            .top_k(TOP_K)
            .build(),
    );

    // Writer: commit every batch with a small pause so queries land on a
    // spread of epochs, not just 0 and the final one.
    let writer = {
        let store = store.clone();
        let updates = workload.updates.clone();
        std::thread::spawn(move || {
            for chunk in updates.chunks(BATCH) {
                store.commit(chunk);
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };
    let tickets: Vec<Ticket> = workload
        .queries
        .iter()
        .map(|&u| {
            std::thread::sleep(Duration::from_millis(1));
            frontend
                .submit_timeout(u, Duration::from_secs(30))
                .expect("submission failed")
        })
        .collect();
    let outcomes: Vec<QueryOutcome> = tickets.into_iter().map(Ticket::wait).collect();
    writer.join().expect("writer panicked");
    let stats = frontend.shutdown();
    assert_eq!(stats.accepted, workload.queries.len() as u64);
    assert_eq!(
        stats.answered,
        workload.queries.len() as u64,
        "no deadline ⇒ no misses"
    );

    // Every answer reproduces from its recorded epoch: epoch e is the
    // base plus the first e committed batches.
    for (outcome, &u) in outcomes.iter().zip(&workload.queries) {
        let QueryOutcome::Answered(r) = outcome else {
            panic!("request {u} not answered");
        };
        assert_eq!(r.node, u);
        assert!(r.epoch as usize <= workload.updates.len() / BATCH);
        let g = graph_after(&base, &workload.updates, r.epoch as usize * BATCH);
        let solo = engine.query_seeded(&g, u);
        assert_eq!(
            r.top,
            solo.top_k(TOP_K),
            "epoch {} answer for u={} drifted from rebuild",
            r.epoch,
            u
        );
    }
    // The writer committed everything: final store state == full replay.
    assert_eq!(store.snapshot().to_csr(), workload.final_graph(&base));
}

#[test]
fn frontend_on_a_sharded_store_replays_cuts_identically() {
    // Same contract through the ShardedStore source: the response's
    // `epoch` field carries the consistent-cut number, and cut c is
    // exactly the first c global batches.
    const BATCH: usize = 16;
    const SHARDS: usize = 3;
    let n = 150;
    let base = simrank_suite::graph::gen::clustered_copying_web(n, SHARDS, 4, 0.7, 0.05, 23);
    let partitioner = RangePartitioner::new(n, SHARDS);
    let workload = sharded_workload(&base, &partitioner, 64, 16, 0.25, 0.2, 31);
    let store = Arc::new(ShardedStore::with_compaction_threshold(
        &base,
        partitioner,
        12,
    ));
    let engine = SimPush::new(Config::new(0.05));
    let frontend = Frontend::start(
        &engine,
        store.clone(),
        FrontendOptions::builder()
            .workers(2)
            .queue_capacity(32)
            .default_deadline(None)
            .top_k(2)
            .build(),
    );
    let writer = {
        let store = store.clone();
        let updates = workload.updates.clone();
        std::thread::spawn(move || {
            for chunk in updates.chunks(BATCH) {
                store.commit(chunk); // sequential consistent cut per batch
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };
    let outcomes: Vec<QueryOutcome> = workload
        .queries
        .iter()
        .map(|&u| {
            std::thread::sleep(Duration::from_millis(1));
            frontend
                .submit_timeout(u, Duration::from_secs(30))
                .expect("submission failed")
                .wait()
        })
        .collect();
    writer.join().expect("writer panicked");
    frontend.shutdown();

    for (outcome, &u) in outcomes.iter().zip(&workload.queries) {
        let QueryOutcome::Answered(r) = outcome else {
            panic!("request {u} not answered");
        };
        assert!(
            r.epoch as usize <= workload.updates.len() / BATCH,
            "cut from the future"
        );
        let g = graph_after(&base, &workload.updates, r.epoch as usize * BATCH);
        let solo = engine.query_seeded(&g, u);
        assert_eq!(
            r.top,
            solo.top_k(2),
            "cut {} answer for u={} drifted from rebuild",
            r.epoch,
            u
        );
    }
    assert_eq!(store.snapshot().to_csr(), workload.final_graph(&base));
}

#[test]
fn scenario_answers_replay_bit_identically_on_their_epochs() {
    // The workload-matrix restatement of the serving contract: whatever
    // scenario shape drove the front-end — closed-loop scan clients or
    // open-loop uniform arrivals racing the paced writer — every recorded
    // answer must reproduce bit for bit from a cold rebuild of the epoch
    // it was served on, and the recorded update stream is the scenario's
    // deterministic one, so the rebuild can be done by anyone from the
    // report alone.
    let scale = ScenarioScale {
        requests: 48,
        min_updates: 24,
        max_updates: 96,
        updates_per_batch: 8,
        workers: 2,
        queue_capacity: 16,
        compaction_threshold: 24,
        calib_requests: 24,
        calib_clients: 4,
        deadline_queue_factor: 4,
        top_k: 3,
    };
    let base = simrank_suite::graph::gen::gnm(160, 800, 51);
    let engine = SimPush::new(Config::new(0.05));
    let calibration = calibrate(&engine, &base, &scale, 13);

    for name in ["batch_scan", "read_heavy"] {
        let scenario = catalog()
            .into_iter()
            .find(|s| s.name == name)
            .expect("catalog scenario");
        let report = run_scenario(&engine, &base, &scenario, &scale, &calibration, 87);
        assert!(
            report.answered > 0,
            "{name}: a below-knee scenario must answer"
        );
        assert_eq!(report.answers.len(), report.answered as usize);

        // The recorded stream is the seed-deterministic workload — the
        // replay handle is reproducible from (base, seed) alone.
        let expected = mixed_workload(&base, report.updates.len(), 0, scenario.remove_fraction, 87);
        assert_eq!(report.updates, expected.updates, "{name}: stream drifted");

        let max_epoch = report.updates.len().div_ceil(report.updates_per_batch) as u64;
        for rec in &report.answers {
            assert!(rec.epoch <= max_epoch, "{name}: epoch from the future");
            let g = graph_after(
                &base,
                &report.updates,
                rec.epoch as usize * report.updates_per_batch,
            );
            let solo = engine.query_seeded(&g, rec.node);
            assert_eq!(
                rec.top,
                solo.top_k(scale.top_k),
                "{name}: epoch {} answer for u={} drifted from rebuild",
                rec.epoch,
                rec.node
            );
        }

        // Determinism of the workload surface itself: a second run drives
        // the same keys and stream (timing-dependent epochs may differ).
        let again = run_scenario(&engine, &base, &scenario, &scale, &calibration, 87);
        assert_eq!(again.updates, report.updates);
        assert_eq!(again.requests, report.requests);
    }
}

#[test]
fn sharded_and_unsharded_serving_agree_on_every_cut_boundary() {
    // Drive the same workload through serve_mixed (single store) and
    // serve_sharded (3 hash shards) with the same batch size: final
    // graphs must be identical, and sequential re-commits of each batch
    // must produce identical per-boundary graphs — the serving-level
    // restatement of the prop_sharded bit-identity contract.
    const BATCH: usize = 8;
    let base = simrank_suite::graph::gen::gnm(120, 600, 3);
    let workload = mixed_workload(&base, 48, 6, 0.35, 44);
    let engine = SimPush::new(Config::new(0.05));

    let single = GraphStore::with_compaction_threshold(base.clone(), 12);
    serve_mixed(
        &engine,
        &single,
        &workload.queries,
        &workload.updates,
        &ServeOptions {
            reader_threads: 2,
            updates_per_batch: BATCH,
            top_k: 1,
        },
    );
    let sharded = ShardedStore::with_compaction_threshold(&base, HashPartitioner::new(3), 12);
    serve_sharded(
        &engine,
        &sharded,
        &workload.queries,
        &workload.updates,
        &ShardedServeOptions {
            reader_threads: 2,
            updates_per_batch: BATCH,
            top_k: 1,
        },
    );
    assert_eq!(single.snapshot().to_csr(), sharded.snapshot().to_csr());

    // Boundary-by-boundary agreement via sequential commits.
    let single2 = GraphStore::new(base.clone());
    let sharded2 = ShardedStore::new(&base, HashPartitioner::new(3));
    for batch in workload.updates.chunks(BATCH) {
        single2.commit(batch);
        sharded2.commit(batch);
        let a = single2.snapshot().to_csr();
        let b = sharded2.snapshot().to_csr();
        assert_eq!(a, b);
    }
}
