//! Deterministic integration tests for serving through the [`Frontend`]
//! while writers commit into the store it reads.
//!
//! `prop_store` races 4 readers against a writer to stress epoch
//! consistency; these tests pin the *deterministic* half of the serving
//! contract instead, on fixed workloads from `simrank_eval::mixed`:
//!
//! * commit records, the epoch/cut sequence and the compaction count are
//!   exact, run after run;
//! * every answer — whatever worker served it, and whatever epoch/cut its
//!   snapshot happened to be — is bit-identical to a cold
//!   [`SimPush::query_seeded`] on a fresh CSR rebuild of exactly that
//!   version's graph, reconstructed by replaying the committed update
//!   prefix ([`MixedWorkload::graph_after`]).
//!
//! [`lockstep_writers`] is the concurrent K-writer protocol of
//! [`ShardedStore`] — one thread per shard, `apply_shard` →
//! `publish_shard` → barrier → one `refresh` → barrier — and the sharded
//! tests run it beside a live front-end.

use simpush::{
    Config, Frontend, FrontendOptions, FrontendResponse, QueryOutcome, SimPush, SnapshotSource,
    Ticket,
};
use simrank_eval::mixed::{mixed_workload, sharded_workload, MixedWorkload};
use simrank_eval::scenario::{calibrate, catalog, run_scenario, ScenarioScale};
use simrank_suite::prelude::*;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// The answer an accepted request for `u` resolved to; panics on any
/// other outcome (these tests set no deadline and never cancel).
fn answered(outcome: QueryOutcome, u: NodeId) -> FrontendResponse {
    match outcome {
        QueryOutcome::Answered(r) => {
            assert_eq!(r.node, u);
            r
        }
        other => panic!("request {u} not answered: {other:?}"),
    }
}

/// Asserts every answer reproduces on its version's rebuild: version `v`
/// (epoch or cut) is `base` plus the first `v` batches of `batch` updates.
fn assert_replays(
    engine: &SimPush,
    base: &CsrGraph,
    workload: &MixedWorkload,
    batch: usize,
    top_k: usize,
    answers: &[FrontendResponse],
) {
    let versions = workload.updates.len().div_ceil(batch) as u64;
    for r in answers {
        assert!(r.epoch <= versions, "version {} from the future", r.epoch);
        let g = workload.graph_after(base, r.epoch as usize * batch);
        assert_eq!(
            r.top,
            engine.query_seeded(&g, r.node).top_k(top_k),
            "version {} answer for u={} drifted from rebuild",
            r.epoch,
            r.node
        );
    }
}

/// Answers `queries` through a `workers`-thread front-end over `store`
/// (no deadline) while `write` runs on its own thread; returns what
/// `write` returned and the answers, in query order.
fn serve_while<S: SnapshotSource, W: Send>(
    engine: &SimPush,
    store: &Arc<S>,
    workers: usize,
    top_k: usize,
    queries: &[NodeId],
    write: impl FnOnce() -> W + Send,
) -> (W, Vec<FrontendResponse>) {
    let frontend = Frontend::start(
        engine,
        store.clone(),
        FrontendOptions::builder()
            .workers(workers)
            .default_deadline(None)
            .top_k(top_k)
            .build(),
    );
    let (written, answers) = std::thread::scope(|scope| {
        let writer = scope.spawn(write);
        let tickets: Vec<Ticket> = queries
            .iter()
            .map(|&u| frontend.try_submit(u).expect("queue has space"))
            .collect();
        let answers: Vec<FrontendResponse> = tickets
            .into_iter()
            .zip(queries)
            .map(|(ticket, &u)| answered(ticket.wait(), u))
            .collect();
        (writer.join().expect("writer panicked"), answers)
    });
    let stats = frontend.shutdown();
    assert_eq!(stats.answered, queries.len() as u64);
    (written, answers)
}

/// Commits `updates` in global batches of `batch` through the concurrent
/// K-writer protocol: each global batch is routed once, then one thread
/// per shard applies and publishes its sub-batch and waits on a barrier,
/// the barrier's leader refreshes the composite, and nobody starts the
/// next batch before a second wait — a publish racing the refresh would
/// tear the cut. Returns one `(shard, batch, applied)` record per shard
/// commit, grouped by shard, then batch; `applied` counts owner-effective
/// updates, so each logical update is counted once.
fn lockstep_writers<P: Partitioner + Clone>(
    store: &ShardedStore<P>,
    updates: &[GraphUpdate],
    batch: usize,
) -> Vec<(usize, usize, usize)> {
    let routed: Vec<Vec<Vec<GraphUpdate>>> = updates
        .chunks(batch)
        .map(|b| store.route_batch(b))
        .collect();
    let barrier = Barrier::new(store.num_shards());
    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..store.num_shards())
            .map(|shard| {
                let (routed, barrier) = (&routed, &barrier);
                scope.spawn(move || {
                    let mut commits = Vec::with_capacity(routed.len());
                    for (g, subs) in routed.iter().enumerate() {
                        let applied = store.apply_shard(shard, &subs[shard]);
                        store.publish_shard(shard);
                        commits.push((shard, g, applied));
                        if barrier.wait().is_leader() {
                            store.refresh();
                        }
                        barrier.wait();
                    }
                    commits
                })
            })
            .collect();
        writers
            .into_iter()
            .flat_map(|w| w.join().expect("shard writer panicked"))
            .collect()
    })
}

#[test]
fn single_reader_single_writer_serve_mixed_is_pinned() {
    const BATCH: usize = 8;
    const TOP_K: usize = 3;
    let base = simrank_suite::graph::gen::gnm(180, 900, 21);
    let workload = mixed_workload(&base, 64, 12, 0.3, 33);
    let store = Arc::new(GraphStore::with_compaction_threshold(base.clone(), 24));
    let engine = SimPush::new(Config::new(0.05));

    // The writer records (applied, epoch, compacted) per committed batch.
    let (commits, answers) = serve_while(&engine, &store, 1, TOP_K, &workload.queries, || {
        workload
            .updates
            .chunks(BATCH)
            .map(|batch| {
                let (applied, info) = store.commit(batch);
                (applied, info.epoch, info.compacted)
            })
            .collect::<Vec<_>>()
    });

    // Pinned record counts: every query answered once, one commit per
    // batch, epochs published strictly in sequence.
    assert_eq!(answers.len(), 12);
    assert_eq!(commits.len(), 8, "64 updates / batches of 8");
    assert_eq!(store.epoch(), 8);
    let epochs: Vec<u64> = commits.iter().map(|&(_, epoch, _)| epoch).collect();
    assert_eq!(epochs, (1..=8).collect::<Vec<u64>>());
    // The generator emits only effective updates, so every batch applies
    // in full — and the compaction schedule is therefore deterministic:
    // threshold 24 over 64 effective updates fires exactly twice
    // (churn resets on compaction: 24 at epoch 3, 24 more by epoch 6).
    for &(applied, _, _) in &commits {
        assert_eq!(applied, BATCH);
    }
    assert_eq!(store.compactions(), 2);
    let compacted: Vec<u64> = commits
        .iter()
        .filter(|&&(_, _, compacted)| compacted)
        .map(|&(_, epoch, _)| epoch)
        .collect();
    assert_eq!(compacted, vec![3, 6]);

    // Service times are measured, not defaulted.
    assert!(answers.iter().all(|r| r.service > Duration::ZERO));

    // The serving contract: each answer is exact for its recorded epoch.
    assert_replays(&engine, &base, &workload, BATCH, TOP_K, &answers);
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
    let store = Arc::new(ShardedStore::with_compaction_threshold(
        &base,
        partitioner,
        10,
    ));
    let engine = SimPush::new(Config::new(0.05));

    let (commits, answers) = serve_while(&engine, &store, 2, TOP_K, &workload.queries, || {
        lockstep_writers(&store, &workload.updates, BATCH)
    });

    // Pinned shape: 80 updates / 16 per global batch = 5 cuts, one commit
    // record per (shard, batch), all effective.
    assert_eq!(answers.len(), 10);
    assert_eq!(store.snapshot().cut(), 5);
    assert_eq!(commits.len(), SHARDS * 5);
    assert_eq!(
        commits
            .iter()
            .map(|&(_, _, applied)| applied)
            .sum::<usize>(),
        80
    );
    for shard in 0..SHARDS {
        let batches: Vec<usize> = commits
            .iter()
            .filter(|&&(s, _, _)| s == shard)
            .map(|&(_, batch, _)| batch)
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
    assert_replays(&engine, &base, &workload, BATCH, TOP_K, &answers);
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
    let answers: Vec<FrontendResponse> = tickets
        .into_iter()
        .zip(&workload.queries)
        .map(|(ticket, &u)| answered(ticket.wait(), u))
        .collect();
    writer.join().expect("writer panicked");
    let stats = frontend.shutdown();
    assert_eq!(stats.accepted, workload.queries.len() as u64);
    assert_eq!(
        stats.answered,
        workload.queries.len() as u64,
        "no deadline ⇒ no misses"
    );

    // Every answer reproduces from its recorded epoch.
    assert_replays(&engine, &base, &workload, BATCH, TOP_K, &answers);
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
    let answers: Vec<FrontendResponse> = workload
        .queries
        .iter()
        .map(|&u| {
            std::thread::sleep(Duration::from_millis(1));
            let ticket = frontend
                .submit_timeout(u, Duration::from_secs(30))
                .expect("submission failed");
            answered(ticket.wait(), u)
        })
        .collect();
    writer.join().expect("writer panicked");
    frontend.shutdown();

    assert_replays(&engine, &base, &workload, BATCH, 2, &answers);
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
            let g = expected.graph_after(&base, rec.epoch as usize * report.updates_per_batch);
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
    // Serve the same workload through a front-end over a single store
    // (one committing writer) and over 3 hash shards (the lockstep
    // writers) with the same batch size: every answer replays on its
    // version, the final graphs are identical, and sequential re-commits
    // of each batch produce identical per-boundary graphs — the
    // serving-level restatement of the prop_sharded bit-identity
    // contract.
    const BATCH: usize = 8;
    let base = simrank_suite::graph::gen::gnm(120, 600, 3);
    let workload = mixed_workload(&base, 48, 6, 0.35, 44);
    let engine = SimPush::new(Config::new(0.05));

    let single = Arc::new(GraphStore::with_compaction_threshold(base.clone(), 12));
    let ((), answers) = serve_while(&engine, &single, 2, 1, &workload.queries, || {
        for batch in workload.updates.chunks(BATCH) {
            single.commit(batch);
        }
    });
    assert_replays(&engine, &base, &workload, BATCH, 1, &answers);
    let sharded = Arc::new(ShardedStore::with_compaction_threshold(
        &base,
        HashPartitioner::new(3),
        12,
    ));
    let (_, answers) = serve_while(&engine, &sharded, 2, 1, &workload.queries, || {
        lockstep_writers(&sharded, &workload.updates, BATCH)
    });
    assert_replays(&engine, &base, &workload, BATCH, 1, &answers);
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
