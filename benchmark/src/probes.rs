//! Fixed-size probes of single layers, run by a traced run on web-200k.
//! They do not depend on the workload, so all five traced runs report the
//! same probes: one fixed query set through every graph view (the ladder),
//! raw neighbour access, the store and shard write paths, the disk tier's
//! open and cold start, and the answer cache's primitives.

use crate::gen::{derive, node_universe, SplitMix64, ToggleStream};
use crate::report::Report;
use crate::serving::{new_cache, Sharded, Store};
use crate::spec::{CACHE_CAPACITY, COMPACTION_THRESHOLD, DISK_PAGE_BYTES, GRAPH_SEED, TOP_K};
use crate::stats;
use simrank_suite::graph::storage::write_disk_graph;
use simrank_suite::graph::{
    CsrGraph, DiskGraph, DiskGraphOptions, GraphStore, GraphView, RangePartitioner, ShardedStore,
};
use simrank_suite::simpush::answer_cache::CacheKey;
use simrank_suite::simpush::{QueryWorkspace, SimPush};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Queries per rung of the ladder: the first fifth warms the view and the
/// workspace, the rest are measured. A query is walk-bound (≈1.5 ms on any
/// graph size), so nine rungs of more than this do not fit a traced run.
const LADDER_QUERIES: usize = 250;
/// Length of the node sequence of the raw access probe.
const ACCESS_SEQUENCE: usize = 1_000_000;
/// `--quick` divides both by this.
const QUICK_DIVISOR: usize = 10;
/// Overlay churn of the loaded snapshot rung.
const LOADED_CHURN: usize = 4_096;
const STORE_BATCHES: usize = 200;
const SHARDED_BATCHES: usize = 100;

fn micros_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// One pass of the fixed query set over `view`: per-query microseconds.
fn pass<G: GraphView>(
    engine: &SimPush,
    view: &G,
    keys: &[u32],
    ws: &mut QueryWorkspace,
) -> Vec<f64> {
    keys.iter()
        .map(|&u| {
            let t = Instant::now();
            black_box(engine.query_seeded_with(view, u, ws).top_k(TOP_K));
            micros_since(t)
        })
        .collect()
}

/// Median query time on a warm view.
fn rung<G: GraphView>(engine: &SimPush, view: &G, keys: &[u32]) -> f64 {
    let mut ws = QueryWorkspace::new();
    pass(engine, view, &keys[..warm_up(keys)], &mut ws);
    stats::median(&pass(engine, view, &keys[warm_up(keys)..], &mut ws))
}

fn warm_up(keys: &[u32]) -> usize {
    keys.len() / 5
}

/// Nanoseconds per `in_degree` + `in_neighbors` over a fixed node sequence.
fn access_ns<G: GraphView>(view: &G, sequence: &[u32]) -> f64 {
    let t = Instant::now();
    let mut sink = 0usize;
    for &v in sequence {
        sink += view.in_degree(v) + view.in_neighbors(v).first().map_or(0, |&w| w as usize);
    }
    black_box(sink);
    t.elapsed().as_secs_f64() * 1e9 / sequence.len() as f64
}

fn views(report: &mut Report, engine: &SimPush, g: &CsrGraph, out_dir: &Path, quick: bool) {
    let n = g.num_nodes();
    let divisor = if quick { QUICK_DIVISOR } else { 1 };
    let keys = node_universe(GRAPH_SEED, n, LADDER_QUERIES / divisor);
    let measured = keys.len() - warm_up(&keys);
    let mut rng = SplitMix64::new(derive(GRAPH_SEED, "access"));
    let sequence: Vec<u32> = (0..ACCESS_SEQUENCE / divisor)
        .map(|_| rng.below(n) as u32)
        .collect();

    let csr_us = rung(engine, g, &keys);
    report.push("view.csr_us", csr_us, measured);
    let tax = |report: &mut Report, name: &str, us: f64| report.push(name, us / csr_us, measured);
    report.push(
        "view.access_ns.csr",
        access_ns(g, &sequence),
        sequence.len(),
    );

    let store = GraphStore::with_compaction_threshold(g.clone(), COMPACTION_THRESHOLD);
    tax(
        report,
        "view.snapshot_clean_tax",
        rung(engine, &*store.snapshot(), &keys),
    );
    // The initial batch of a pool of 2·churn removes `churn` edges and stays
    // below the compaction threshold, so the overlay holds all of them.
    let (_, removals) = ToggleStream::new(g, 2 * LOADED_CHURN, GRAPH_SEED);
    store.commit(&removals);
    let loaded = store.snapshot();
    assert_eq!(
        loaded.churn(),
        LOADED_CHURN,
        "loaded rung must not have compacted"
    );
    tax(
        report,
        "view.snapshot_loaded_tax",
        rung(engine, &*loaded, &keys),
    );
    report.push(
        "view.access_ns.snapshot_loaded",
        access_ns(&*loaded, &sequence),
        sequence.len(),
    );
    drop((store, loaded));

    for (shards, name) in [(1, "view.sharded_k1_tax"), (4, "view.sharded_k4_tax")] {
        let sharded = ShardedStore::with_compaction_threshold(
            g,
            RangePartitioner::new(n, shards),
            COMPACTION_THRESHOLD,
        );
        let cut = sharded.snapshot();
        tax(report, name, rung(engine, &*cut, &keys));
        if shards == 4 {
            report.push(
                "view.access_ns.sharded_k4",
                access_ns(&*cut, &sequence),
                sequence.len(),
            );
        }
    }

    std::fs::create_dir_all(out_dir).expect("creating the output directory");
    let path = out_dir.join(format!("ladder.{}.srgd", std::process::id()));
    write_disk_graph(g, &path, DISK_PAGE_BYTES).expect("writing the ladder graph file");
    let file_bytes = std::fs::metadata(&path)
        .expect("the ladder file exists")
        .len();
    let budget = DiskGraphOptions::with_budget(file_bytes / 4);
    let open = |what: &str, r: Result<DiskGraph, _>| -> DiskGraph {
        r.unwrap_or_else(|e| panic!("opening the ladder graph through {what}: {e}"))
    };
    tax(
        report,
        "view.disk_mem_tax",
        rung(
            engine,
            &open("mem", DiskGraph::open_mem(&path, budget)),
            &keys,
        ),
    );
    {
        let t = Instant::now();
        let disk = open("fs", DiskGraph::open_fs(&path, budget));
        report.push("disk.open_ms", micros_since(t) / 1e3, 1);
        // A pass over a freshly opened graph is the cold start.
        let mut ws = QueryWorkspace::new();
        let t = Instant::now();
        pass(engine, &disk, &keys, &mut ws);
        report.push("disk.cold_first_250_ms", micros_since(t) / 1e3, keys.len());
        tax(
            report,
            "view.disk_fs_tax",
            stats::median(&pass(engine, &disk, &keys[warm_up(&keys)..], &mut ws)),
        );
        report.push(
            "view.access_ns.disk_fs",
            access_ns(&disk, &sequence),
            sequence.len(),
        );
    }
    tax(
        report,
        "view.disk_mmap_tax",
        rung(
            engine,
            &open("mmap", DiskGraph::open_mmap(&path, budget)),
            &keys,
        ),
    );
    let pinned = DiskGraphOptions::fully_pinned();
    tax(
        report,
        "view.disk_fs_pinned_tax",
        rung(
            engine,
            &open("fs", DiskGraph::open_fs(&path, pinned)),
            &keys,
        ),
    );
    let _ = std::fs::remove_file(&path);
}

fn store_writes(report: &mut Report, g: &CsrGraph) {
    let store = GraphStore::with_compaction_threshold(g.clone(), COMPACTION_THRESHOLD);
    let (mut toggle, initial) = ToggleStream::new(g, 32_768, GRAPH_SEED);
    store.commit(&initial);
    let (mut apply_us, mut publish_us, mut churn) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..STORE_BATCHES {
        let batch = toggle.next_batch(64);
        let t = Instant::now();
        store.apply(&batch);
        apply_us.push(micros_since(t) / batch.len() as f64);
        let t = Instant::now();
        store.publish();
        publish_us.push(micros_since(t));
        churn.push(store.snapshot().churn() as f64);
    }
    report.push(
        "store.apply_us_per_update",
        stats::mean(&apply_us),
        STORE_BATCHES,
    );
    report.push(
        "store.publish_p50_us",
        stats::percentile(&publish_us, 0.5),
        STORE_BATCHES,
    );
    report.push(
        "store.publish_p99_us",
        stats::percentile(&publish_us, 0.99),
        STORE_BATCHES,
    );
    report.push(
        "store.churn_at_publish_p50",
        stats::median(&churn),
        STORE_BATCHES,
    );

    const ACQUIRES: usize = 200_000;
    let t = Instant::now();
    for _ in 0..ACQUIRES {
        black_box(store.snapshot());
    }
    report.push(
        "store.snapshot_acquire_ns",
        t.elapsed().as_secs_f64() * 1e9 / ACQUIRES as f64,
        ACQUIRES,
    );
}

fn sharded_writes(report: &mut Report, g: &CsrGraph) {
    let store = Sharded::build(g.clone());
    let (mut toggle, initial) = ToggleStream::new(g, 65_536, GRAPH_SEED);
    store.commit(&initial);
    let commit_us: Vec<f64> = (0..SHARDED_BATCHES)
        .map(|_| {
            let batch = toggle.next_batch(256);
            let t = Instant::now();
            store.commit(&batch);
            micros_since(t)
        })
        .collect();
    report.push(
        "sharded.commit_p50_us",
        stats::median(&commit_us),
        SHARDED_BATCHES,
    );
    report.push(
        "sharded.commit_us_per_update",
        stats::mean(&commit_us) / 256.0,
        SHARDED_BATCHES,
    );
}

fn cache_primitives(report: &mut Report, engine: &SimPush, n: usize) {
    const SUPPORT: usize = 256;
    const TOUCHED: usize = 128;
    const LOOKUPS: usize = 200_000;
    const PUBLISHES: usize = 100;
    let cache = new_cache();
    let fingerprint = engine.config().fingerprint();
    let key = |node: usize| CacheKey {
        node: node as u32,
        top_k: TOP_K,
        fingerprint,
    };
    let mut rng = SplitMix64::new(derive(GRAPH_SEED, "cache-probe"));
    let mut sorted_nodes = |count: usize| {
        let mut v: Vec<u32> = crate::gen::distinct_below(&mut rng, n, count)
            .into_iter()
            .map(|x| x as u32)
            .collect();
        v.sort_unstable();
        v
    };
    let top: Vec<(u32, f64)> = (0..TOP_K)
        .map(|i| (i as u32, 1.0 / (i + 2) as f64))
        .collect();
    let entries: Vec<Vec<u32>> = (0..CACHE_CAPACITY).map(|_| sorted_nodes(SUPPORT)).collect();

    let t = Instant::now();
    for (node, support) in entries.into_iter().enumerate() {
        cache.insert(key(node), 0, support, top.clone());
    }
    report.push(
        "cache.insert_us",
        micros_since(t) / CACHE_CAPACITY as f64,
        CACHE_CAPACITY,
    );

    // Insertion may have evicted within a full shard; hits are looked up
    // among the keys that are in fact resident.
    let resident: Vec<usize> = (0..CACHE_CAPACITY)
        .filter(|&node| cache.lookup(&key(node), 0).is_some())
        .collect();
    let t = Instant::now();
    for i in 0..LOOKUPS {
        black_box(cache.lookup(&key(resident[i % resident.len()]), 0));
    }
    report.push(
        "cache.lookup_hit_ns",
        micros_since(t) * 1e3 / LOOKUPS as f64,
        LOOKUPS,
    );
    let t = Instant::now();
    for i in 0..LOOKUPS {
        black_box(cache.lookup(&key(CACHE_CAPACITY + i), 0));
    }
    report.push(
        "cache.lookup_miss_ns",
        micros_since(t) * 1e3 / LOOKUPS as f64,
        LOOKUPS,
    );

    let touched: Vec<Vec<u32>> = (0..PUBLISHES).map(|_| sorted_nodes(TOUCHED)).collect();
    let t = Instant::now();
    for (epoch, touched) in touched.iter().enumerate() {
        cache.on_publish(epoch as u64 + 1, touched);
    }
    report.push(
        "cache.on_publish_us",
        micros_since(t) / PUBLISHES as f64,
        PUBLISHES,
    );
}

pub fn run_all(report: &mut Report, engine: &SimPush, g: &CsrGraph, out_dir: &Path, quick: bool) {
    views(report, engine, g, out_dir, quick);
    store_writes(report, g);
    sharded_writes(report, g);
    cache_primitives(report, engine, g.num_nodes());
}
