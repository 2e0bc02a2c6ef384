//! Concurrent mixed update/query serving on a [`GraphStore`].
//!
//! This is the paper's headline scenario made operational: a single writer
//! applies edge-update batches to the store and publishes epochs, while a
//! pool of reader threads answers single-source SimRank queries on cheap
//! `Arc` epoch snapshots — no rebuild step, no reader/writer blocking
//! beyond a pointer swap.
//!
//! Each reader holds one warm [`QueryWorkspace`] (zero allocations in the
//! push stages at steady state, PR 2) and uses per-query derived seeds
//! ([`SimPush::query_seeded_with`]), so each answer is a deterministic
//! function of `(config, query node, epoch graph)` — the `prop_store`
//! suite replays recorded epochs against full CSR rebuilds and checks
//! bit-identity even under a live 4-reader/1-writer race.
//!
//! [`serve_sharded`] is the horizontally scaled variant: K writer threads
//! (one per [`ShardedStore`] shard) commit per-shard sub-batches in
//! parallel and synchronise on a barrier so every published composite cut
//! is consistent, while the reader pool answers on composite
//! [`ShardedSnapshot`](simrank_graph::ShardedSnapshot)s — bit-identically
//! to the single-store path (`tests/prop_sharded.rs`).

use crate::frontend::SnapshotSource;
use crate::query::SimPush;
use crate::workspace::QueryWorkspace;
use simrank_common::stats::LatencySummary;
use simrank_common::NodeId;
use simrank_graph::{GraphStore, GraphUpdate, Partitioner, ShardedStore};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Knobs for [`serve_mixed`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Reader threads answering queries concurrently (≥ 1).
    pub reader_threads: usize,
    /// Updates the writer applies per publish; 1 reproduces the
    /// "snapshot per update" regime, larger batches amortise the
    /// per-publish overlay clone.
    pub updates_per_batch: usize,
    /// How many top-scoring nodes each [`QueryRecord`] keeps (the full
    /// score vectors are dropped to keep long serving runs memory-flat).
    pub top_k: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            reader_threads: 4,
            updates_per_batch: 32,
            top_k: 1,
        }
    }
}

/// One answered query in a serving run.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// The query node.
    pub node: NodeId,
    /// Epoch of the snapshot the query ran against.
    pub epoch: u64,
    /// End-to-end latency (snapshot acquisition + query).
    pub latency: Duration,
    /// Top-`k` similar nodes (per [`ServeOptions::top_k`]).
    pub top: Vec<(NodeId, f64)>,
}

/// One committed update batch in a serving run.
#[derive(Debug, Clone, Copy)]
pub struct UpdateRecord {
    /// Updates in the batch that changed the graph.
    pub applied: usize,
    /// Epoch number the batch's publish produced.
    pub epoch: u64,
    /// Whether this publish compacted the overlay into a fresh CSR base.
    pub compacted: bool,
    /// Latency of apply + publish (includes compaction when it fired).
    pub latency: Duration,
}

/// Everything a [`serve_mixed`] run measured.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-query records, in query input order.
    pub queries: Vec<QueryRecord>,
    /// Per-batch update records, in stream order.
    pub updates: Vec<UpdateRecord>,
    /// Wall-clock duration of the whole mixed run.
    pub wall: Duration,
    /// Epoch current when the run finished.
    pub final_epoch: u64,
    /// Compactions the store performed during the run.
    pub compactions: u64,
    /// Total time the writer spent compacting during the run.
    pub compaction_time: Duration,
}

impl ServeReport {
    /// The whole-run query latency distribution (mean, p50, p95, p99, max
    /// by [`LatencySummary`]'s nearest-rank definition).
    pub fn query_latencies(&self) -> LatencySummary {
        LatencySummary::from_samples(self.queries.iter().map(|q| q.latency))
    }

    /// Query throughput over the run's wall clock.
    pub fn queries_per_sec(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.queries.len() as f64 / self.wall.as_secs_f64()
    }
}

/// Runs `write` on the calling thread while `reader_threads` workers drain
/// `queries` from a shared counter, each answering on the freshest snapshot
/// of `store` with its own warm workspace. Returns what `write` returned
/// and one [`QueryRecord`] per query, in input order.
fn serve_with_readers<S: SnapshotSource, W>(
    engine: &SimPush,
    store: &S,
    queries: &[NodeId],
    reader_threads: usize,
    top_k: usize,
    write: impl FnOnce() -> W,
) -> (W, Vec<QueryRecord>) {
    let next_query = AtomicUsize::new(0);
    let (written, mut indexed) = crossbeam::scope(|scope| {
        let mut readers = Vec::with_capacity(reader_threads);
        for _ in 0..reader_threads {
            let next_query = &next_query;
            readers.push(scope.spawn(move |_| {
                let mut ws = QueryWorkspace::new();
                let mut mine = Vec::new();
                loop {
                    // relaxed: the fetch_add's atomicity alone partitions
                    // indices between readers; the queries slice is
                    // immutable for the whole scope.
                    let i = next_query.fetch_add(1, Ordering::Relaxed);
                    if i >= queries.len() {
                        return mine;
                    }
                    let t = Instant::now();
                    let (snap, epoch) = store.acquire();
                    let result = engine.query_seeded_with(&*snap, queries[i], &mut ws);
                    mine.push((
                        i,
                        QueryRecord {
                            node: queries[i],
                            epoch,
                            latency: t.elapsed(),
                            top: result.top_k(top_k),
                        },
                    ));
                }
            }));
        }
        let written = write();
        let indexed: Vec<(usize, QueryRecord)> = readers
            .into_iter()
            .flat_map(|h| h.join().expect("reader thread panicked"))
            .collect();
        (written, indexed)
    })
    .expect("serving scope panicked");
    indexed.sort_unstable_by_key(|&(i, _)| i);
    (written, indexed.into_iter().map(|(_, q)| q).collect())
}

/// Drives a mixed update/query workload against `store`: one writer (the
/// calling thread) commits `updates` in batches of
/// [`updates_per_batch`](ServeOptions::updates_per_batch) while
/// [`reader_threads`](ServeOptions::reader_threads) workers drain
/// `queries` from a shared counter, each answering on its own epoch
/// snapshot with its own warm workspace.
///
/// Which epoch a given query observes depends on thread scheduling — that
/// is the nature of concurrent serving — but every answer is exact for the
/// epoch recorded next to it, and re-running
/// [`SimPush::query_seeded`] on that epoch's graph reproduces it bit for
/// bit.
///
/// # Panics
/// Panics if `reader_threads` or `updates_per_batch` is 0, or if any query
/// node or update endpoint is out of range for the store's graph.
pub fn serve_mixed(
    engine: &SimPush,
    store: &GraphStore,
    queries: &[NodeId],
    updates: &[GraphUpdate],
    opts: &ServeOptions,
) -> ServeReport {
    assert!(opts.reader_threads >= 1, "need at least one reader thread");
    assert!(
        opts.updates_per_batch >= 1,
        "update batches must be non-empty"
    );

    let compactions_before = store.compactions();
    let compaction_time_before = store.compaction_time();
    let start = Instant::now();

    // The writer: commit update batches, one publish per batch.
    let write = || {
        let mut records = Vec::with_capacity(updates.len() / opts.updates_per_batch + 1);
        for batch in updates.chunks(opts.updates_per_batch) {
            let t = Instant::now();
            let (applied, info) = store.commit(batch);
            records.push(UpdateRecord {
                applied,
                epoch: info.epoch,
                compacted: info.compacted,
                latency: t.elapsed(),
            });
        }
        records
    };
    let (update_records, query_records) = serve_with_readers(
        engine,
        store,
        queries,
        opts.reader_threads,
        opts.top_k,
        write,
    );

    ServeReport {
        queries: query_records,
        updates: update_records,
        wall: start.elapsed(),
        final_epoch: store.epoch(),
        compactions: store.compactions() - compactions_before,
        compaction_time: store.compaction_time() - compaction_time_before,
    }
}

/// Knobs for [`serve_sharded`].
#[derive(Debug, Clone)]
pub struct ShardedServeOptions {
    /// Reader threads answering queries concurrently (≥ 1).
    pub reader_threads: usize,
    /// Updates per **global** batch (≥ 1); each global batch is routed
    /// into per-shard sub-batches, committed by the K shard writers in
    /// parallel, and becomes exactly one consistent cut.
    pub updates_per_batch: usize,
    /// How many top-scoring nodes each [`QueryRecord`] keeps.
    pub top_k: usize,
}

impl Default for ShardedServeOptions {
    fn default() -> Self {
        Self {
            reader_threads: 4,
            updates_per_batch: 64,
            top_k: 1,
        }
    }
}

/// One shard writer's commit of its sub-batch of a global batch.
#[derive(Debug, Clone, Copy)]
pub struct ShardUpdateRecord {
    /// Which shard committed.
    pub shard: usize,
    /// Global batch index (== the cut number this batch produced, minus
    /// the off-by-one: batch `g` produces cut `g + 1`).
    pub batch: usize,
    /// Owner-effective updates in the sub-batch — each logical update
    /// counted once across shards, on its source's owner.
    pub applied: usize,
    /// Shard-local epoch the commit published.
    pub epoch: u64,
    /// Whether this shard's publish compacted its overlay.
    pub compacted: bool,
    /// Latency of the shard's apply + publish (excludes barrier waits).
    pub latency: Duration,
}

/// Everything a [`serve_sharded`] run measured.
#[derive(Debug, Clone)]
pub struct ShardedServeReport {
    /// Per-query records, in query input order. [`QueryRecord::epoch`]
    /// holds the **composite cut number** the query observed.
    pub queries: Vec<QueryRecord>,
    /// Per-shard per-batch commit records, grouped by shard then batch.
    pub shard_updates: Vec<ShardUpdateRecord>,
    /// Wall-clock duration of the whole mixed run (updates and queries).
    pub wall: Duration,
    /// Time from run start (before update routing) until every shard
    /// writer had committed its last batch and the final cut was
    /// published — the update-side wall, inclusive of the routing cost an
    /// unsharded store would not pay.
    pub update_wall: Duration,
    /// Cut current when the run finished (== number of global batches).
    pub final_cut: u64,
    /// Total logically effective updates across the run.
    pub effective_updates: usize,
    /// Compactions across all shards during the run.
    pub compactions: u64,
    /// Total time shard writers spent compacting during the run.
    pub compaction_time: Duration,
}

/// Drives a mixed update/query workload against a [`ShardedStore`]: K
/// writer threads (one per shard) commit the per-shard sub-batches of each
/// global batch in parallel, synchronise on a barrier, and exactly one of
/// them [`refresh`](ShardedStore::refresh)es the composite — so every cut
/// readers acquire is consistent (all shards at the same global batch
/// boundary, both sides of every mirrored cross-shard edge present).
/// Meanwhile [`reader_threads`](ShardedServeOptions::reader_threads)
/// workers drain `queries` on composite snapshots with per-thread warm
/// workspaces, exactly like [`serve_mixed`].
///
/// Which cut a given query observes depends on thread scheduling, but
/// every answer is exact for the cut recorded next to it: cut `c` is the
/// graph produced by replaying the first `c` global batches, and
/// re-running [`SimPush::query_seeded`] on that graph's CSR rebuild
/// reproduces the recorded answer bit for bit (`tests/integration_serve.rs`
/// pins this).
///
/// # Panics
/// Panics if `reader_threads` or `updates_per_batch` is 0, or if any query
/// node or update endpoint is out of range for the store's node universe.
pub fn serve_sharded<P: Partitioner + Clone + Sync + 'static>(
    engine: &SimPush,
    store: &ShardedStore<P>,
    queries: &[NodeId],
    updates: &[GraphUpdate],
    opts: &ShardedServeOptions,
) -> ShardedServeReport {
    assert!(opts.reader_threads >= 1, "need at least one reader thread");
    assert!(
        opts.updates_per_batch >= 1,
        "update batches must be non-empty"
    );

    let k = store.num_shards();
    let compactions_before = store.compactions();
    let compaction_time_before = store.compaction_time();
    let barrier = Barrier::new(k);
    let start = Instant::now();
    // Route every global batch up front so writer threads spend their time
    // applying, not partitioning. Routing is part of the serving cost —
    // an unsharded store doesn't pay it — so it runs *inside* the timed
    // window: `wall` and `update_wall` both include it, keeping the
    // sharded-vs-unsharded throughput comparison honest.
    let batches: Vec<Vec<Vec<GraphUpdate>>> = updates
        .chunks(opts.updates_per_batch)
        .map(|b| store.route_batch(b))
        .collect();

    // K shard writers in lockstep over the global batches.
    let write = || {
        let shard_records = crossbeam::scope(|scope| {
            let mut writers = Vec::with_capacity(k);
            for shard in 0..k {
                let barrier = &barrier;
                let batches = &batches;
                writers.push(scope.spawn(move |_| {
                    let mut records = Vec::with_capacity(batches.len());
                    for (g, routed) in batches.iter().enumerate() {
                        let sub = &routed[shard];
                        let t = Instant::now();
                        let applied = store.apply_shard(shard, sub);
                        let info = store.publish_shard(shard);
                        records.push(ShardUpdateRecord {
                            shard,
                            batch: g,
                            applied,
                            epoch: info.epoch,
                            compacted: info.compacted,
                            latency: t.elapsed(),
                        });
                        // Cut protocol: wait for every shard to publish batch
                        // g, let exactly one thread refresh the composite,
                        // and only then release anyone into batch g + 1 (a
                        // publish racing the refresh would tear the cut).
                        if barrier.wait().is_leader() {
                            store.refresh();
                        }
                        barrier.wait();
                    }
                    records
                }));
            }
            let mut shard_records: Vec<ShardUpdateRecord> = Vec::new();
            for w in writers {
                shard_records.extend(w.join().expect("shard writer panicked"));
            }
            shard_records
        })
        .expect("shard writer scope panicked");
        // Every writer has committed its last batch: the update-side wall.
        (shard_records, start.elapsed())
    };
    let ((shard_records, update_wall), query_records) = serve_with_readers(
        engine,
        store,
        queries,
        opts.reader_threads,
        opts.top_k,
        write,
    );

    ShardedServeReport {
        queries: query_records,
        effective_updates: shard_records.iter().map(|r| r.applied).sum(),
        shard_updates: shard_records,
        wall: start.elapsed(),
        update_wall,
        final_cut: store.cut(),
        compactions: store.compactions() - compactions_before,
        compaction_time: store.compaction_time() - compaction_time_before,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Config;
    use simrank_graph::{gen, GraphStore, MutableGraph};

    fn toggle_stream(n: usize, count: usize) -> Vec<GraphUpdate> {
        // Deterministic insert/remove pairs over distinct node pairs.
        (0..count)
            .map(|i| {
                let s = (i * 7 % n) as NodeId;
                let t = ((i * 13 + 1) % n) as NodeId;
                if i % 3 == 2 {
                    GraphUpdate::Remove(s, t)
                } else {
                    GraphUpdate::Insert(s, t)
                }
            })
            .collect()
    }

    #[test]
    fn serving_from_a_disk_backed_store_is_bit_identical_to_ram() {
        // The storage tier slots in underneath SnapshotSource without any
        // core change: a GraphStore opened over a DiskGraph serves the
        // same answers as one over the in-RAM CSR it was written from.
        use simrank_graph::storage::{write_disk_graph, DiskGraph, DiskGraphOptions};
        let g = gen::gnm(150, 900, 9);
        let path = std::env::temp_dir().join("simpush-serve-disk-test.srgd");
        write_disk_graph(&g, &path, 1024).unwrap();
        let disk = DiskGraph::open_mem(&path, DiskGraphOptions::default()).unwrap();
        let disk_store = GraphStore::open_disk(disk);
        let ram_store = GraphStore::new(g);
        let engine = SimPush::new(Config::new(0.05));
        let queries: Vec<NodeId> = (0..12).map(|i| (i * 13) % 150).collect();
        let opts = ServeOptions {
            reader_threads: 2,
            updates_per_batch: 8,
            top_k: 5,
        };
        // No updates: every answer is on epoch 0, so the two runs are
        // deterministic and directly comparable.
        let on_disk = serve_mixed(&engine, &disk_store, &queries, &[], &opts);
        let on_ram = serve_mixed(&engine, &ram_store, &queries, &[], &opts);
        assert_eq!(on_disk.queries.len(), on_ram.queries.len());
        for (d, r) in on_disk.queries.iter().zip(&on_ram.queries) {
            assert_eq!(d.node, r.node);
            assert_eq!(d.top, r.top, "node {}", d.node);
        }
    }

    #[test]
    fn every_query_is_answered_in_input_order() {
        let store = GraphStore::new(gen::gnm(200, 1000, 3));
        let engine = SimPush::new(Config::new(0.05));
        let queries: Vec<NodeId> = (0..17).map(|i| (i * 11) % 200).collect();
        let updates = toggle_stream(200, 40);
        let report = serve_mixed(
            &engine,
            &store,
            &queries,
            &updates,
            &ServeOptions {
                reader_threads: 4,
                updates_per_batch: 8,
                top_k: 3,
            },
        );
        assert_eq!(report.queries.len(), queries.len());
        for (rec, &u) in report.queries.iter().zip(&queries) {
            assert_eq!(rec.node, u);
            assert!(rec.epoch <= report.final_epoch);
            assert!(rec.top.len() <= 3);
        }
        assert_eq!(report.updates.len(), 5, "40 updates / batches of 8");
        assert_eq!(report.final_epoch, 5);
        assert!(report.query_latencies().mean() > Duration::ZERO);
        assert!(report.queries_per_sec() > 0.0);
    }

    #[test]
    fn final_store_state_matches_a_sequential_replay() {
        let base = gen::gnm(120, 500, 9);
        let store = GraphStore::with_compaction_threshold(base.clone(), 16);
        let engine = SimPush::new(Config::new(0.05));
        let updates = toggle_stream(120, 60);
        let queries: Vec<NodeId> = (0..8).collect();
        serve_mixed(
            &engine,
            &store,
            &queries,
            &updates,
            &ServeOptions::default(),
        );

        let mut replica = MutableGraph::from_csr(&base);
        for &u in &updates {
            match u {
                GraphUpdate::Insert(s, t) => replica.insert_edge(s, t),
                GraphUpdate::Remove(s, t) => replica.remove_edge(s, t),
            };
        }
        assert_eq!(store.snapshot().to_csr(), replica.snapshot());
    }

    #[test]
    fn single_reader_no_updates_degenerates_to_batch_queries() {
        let store = GraphStore::new(gen::gnm(100, 400, 1));
        let engine = SimPush::new(Config::new(0.05));
        let queries: Vec<NodeId> = vec![3, 50, 99];
        let report = serve_mixed(
            &engine,
            &store,
            &queries,
            &[],
            &ServeOptions {
                reader_threads: 1,
                updates_per_batch: 1,
                top_k: 1,
            },
        );
        assert!(report.updates.is_empty());
        assert_eq!(report.final_epoch, 0);
        let snap = store.snapshot();
        for rec in &report.queries {
            let solo = engine.query_seeded(&*snap, rec.node);
            assert_eq!(rec.top, solo.top_k(1), "u={}", rec.node);
        }
    }

    #[test]
    fn sharded_serve_matches_replay_and_answers_every_query() {
        use simrank_graph::{HashPartitioner, ShardedStore};
        let base = gen::gnm(150, 700, 4);
        let store = ShardedStore::with_compaction_threshold(&base, HashPartitioner::new(3), 16);
        let engine = SimPush::new(Config::new(0.05));
        let queries: Vec<NodeId> = (0..11).map(|i| (i * 13) % 150).collect();
        let updates = toggle_stream(150, 48);
        let report = serve_sharded(
            &engine,
            &store,
            &queries,
            &updates,
            &ShardedServeOptions {
                reader_threads: 2,
                updates_per_batch: 8,
                top_k: 2,
            },
        );
        assert_eq!(report.queries.len(), queries.len());
        for (rec, &u) in report.queries.iter().zip(&queries) {
            assert_eq!(rec.node, u);
            assert!(rec.epoch <= report.final_cut, "cut beyond final");
            assert!(rec.top.len() <= 2);
        }
        assert_eq!(report.final_cut, 6, "48 updates / batches of 8");
        // Every (shard, batch) pair commits exactly once, in batch order
        // per shard.
        assert_eq!(report.shard_updates.len(), 3 * 6);
        for rec in &report.shard_updates {
            assert!(rec.shard < 3 && rec.batch < 6);
        }
        assert!(report.update_wall <= report.wall);

        // Final state identical to a sequential replay.
        let mut replica = MutableGraph::from_csr(&base);
        for &u in &updates {
            let (s, t) = u.endpoints();
            match u {
                GraphUpdate::Insert(..) => replica.insert_edge(s, t),
                GraphUpdate::Remove(..) => replica.remove_edge(s, t),
            };
        }
        assert_eq!(store.snapshot().to_csr(), replica.snapshot());
        assert_eq!(
            report.effective_updates,
            updates
                .iter()
                .scan(MutableGraph::from_csr(&base), |g, &u| {
                    let (s, t) = u.endpoints();
                    Some(match u {
                        GraphUpdate::Insert(..) => g.insert_edge(s, t),
                        GraphUpdate::Remove(..) => g.remove_edge(s, t),
                    })
                })
                .filter(|&e| e)
                .count()
        );
    }

    #[test]
    fn sharded_serve_with_one_shard_and_no_updates_degenerates() {
        use simrank_graph::{RangePartitioner, ShardedStore};
        let base = gen::gnm(90, 360, 6);
        let store = ShardedStore::new(&base, RangePartitioner::new(90, 1));
        let engine = SimPush::new(Config::new(0.05));
        let queries: Vec<NodeId> = vec![1, 45, 89];
        let report = serve_sharded(
            &engine,
            &store,
            &queries,
            &[],
            &ShardedServeOptions {
                reader_threads: 1,
                updates_per_batch: 4,
                top_k: 1,
            },
        );
        assert!(report.shard_updates.is_empty());
        assert_eq!(report.final_cut, 0);
        assert_eq!(report.effective_updates, 0);
        let snap = store.snapshot();
        for rec in &report.queries {
            let solo = engine.query_seeded(&*snap, rec.node);
            assert_eq!(rec.top, solo.top_k(1), "u={}", rec.node);
        }
    }

    #[test]
    #[should_panic(expected = "at least one reader")]
    fn sharded_rejects_zero_readers() {
        use simrank_graph::{HashPartitioner, ShardedStore};
        let base = gen::gnm(10, 20, 1);
        let store = ShardedStore::new(&base, HashPartitioner::new(2));
        let engine = SimPush::new(Config::new(0.05));
        serve_sharded(
            &engine,
            &store,
            &[0],
            &[],
            &ShardedServeOptions {
                reader_threads: 0,
                updates_per_batch: 1,
                top_k: 1,
            },
        );
    }

    #[test]
    #[should_panic(expected = "at least one reader")]
    fn rejects_zero_readers() {
        let store = GraphStore::new(gen::gnm(10, 20, 1));
        let engine = SimPush::new(Config::new(0.05));
        serve_mixed(
            &engine,
            &store,
            &[0],
            &[],
            &ServeOptions {
                reader_threads: 0,
                updates_per_batch: 1,
                top_k: 1,
            },
        );
    }
}
