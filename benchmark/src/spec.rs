//! The fixed conditions of the benchmark. Nothing here is tunable from the
//! command line: a number is comparable across commits only if every run
//! that produced it used these values. `BENCHMARK.json` repeats the metric
//! names and a unit test keeps the two in step.

use std::time::Duration;

pub const DEFAULT_SEED: u64 = 1;
pub const DEFAULT_SECONDS: f64 = 12.0;
/// Every graph is generated from this seed; `--seed` moves the keys and
/// the updates only.
pub const GRAPH_SEED: u64 = 7;

pub const EPSILON: f64 = 0.02;
pub const TOP_K: usize = 10;
pub const QUEUE_CAPACITY: usize = 256;
pub const DEADLINE: Duration = Duration::from_millis(250);
pub const COMPACTION_THRESHOLD: usize = 8_192;
pub const DISK_PAGE_BYTES: u32 = 16 * 1024;
pub const SHARDS: usize = 4;

pub const CACHE_CAPACITY: usize = 2_048;
pub const CACHE_SHARDS: usize = 8;
pub const CACHE_MAX_STALE_EPOCHS: u64 = 8;
pub const ZIPF_EXPONENT: f64 = 1.1;

/// How often the set-up is repeated in one run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;
/// Answers per serving workload that are replayed on a rebuilt graph, and
/// keys per direct workload that are recomputed cold.
pub const CHECKED_ANSWERS: usize = 16;

/// A copying-web graph `copying_web(nodes, out_links, 0.75, GRAPH_SEED)`.
#[derive(Debug, Clone, Copy)]
pub struct GraphSpec {
    pub name: &'static str,
    pub nodes: usize,
    pub out_links: usize,
}

pub const WEB_1M: GraphSpec = GraphSpec {
    name: "web-1m",
    nodes: 1_000_000,
    out_links: 16,
};
pub const WEB_200K: GraphSpec = GraphSpec {
    name: "web-200k",
    nodes: 200_000,
    out_links: 10,
};
/// The graph the ε-guarantee is checked on against the power method.
pub const WEB_1K: GraphSpec = GraphSpec {
    name: "web-1k",
    nodes: 1_000,
    out_links: 5,
};

/// The paced writer of a serving workload, in absolute rates.
#[derive(Debug, Clone, Copy)]
pub struct WriterSpec {
    pub updates_per_s: f64,
    pub batch: usize,
    /// Size `P` of the toggle pool.
    pub pool: usize,
    /// The traced replay has no clock: it commits one batch every this many
    /// requests. It is the workload's measured closed-loop rate (the two
    /// ten-run medians in README's spread table, averaged) over its
    /// `updates_per_s / batch` commits a second, so the replay publishes,
    /// invalidates and hits as often per request as the timed window does.
    pub replay_requests_per_batch: usize,
}

/// Query keys come from a node universe fixed by the graph seed; the run
/// seed decides their order. Drawing the nodes themselves from the run
/// seed made `cpu_ms_per_query` differ by 11% between seeds on
/// `static_query`: a query's cost depends heavily on its node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Keys {
    /// Uniform: seeded shuffles of the universe, one pass after the other.
    Cycle { universe: usize },
    /// Zipf(`ZIPF_EXPONENT`) draws over the universe.
    Zipf { universe: usize },
}

/// Universe of the uniform workloads: large enough that a pass does not fit
/// any cache, small enough that every run makes at least one full pass.
const UNIFORM_UNIVERSE: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stack {
    /// `query_seeded_with` straight on the `CsrGraph`.
    DirectCsr,
    /// The same on a `DiskGraph` with a quarter of the file as pin budget.
    DirectDisk,
    /// `Frontend` over a `GraphStore`.
    Store,
    /// `Frontend` over a `ShardedStore` with a `RangePartitioner`.
    Sharded,
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub graph: GraphSpec,
    pub stack: Stack,
    pub cache: bool,
    pub keys: Keys,
    /// How many requests the closed-loop client has in flight: it submits
    /// this many, waits for all the replies, and starts over. One everywhere
    /// but on `serve_hot`. There three requests in four are cache hits of a
    /// few microseconds, and with one request in flight the median latency is
    /// the cost of two thread wake-ups: 4.7 µs, 7.5 µs, 45 µs or 84 µs
    /// depending on the run, with throughput following. In a burst of 16,
    /// hits queue behind the misses ahead of them on the one worker — what
    /// an open loop would show, without its instability — and the median
    /// request has waited for about two misses, which is the system's time.
    pub burst: usize,
    pub warmup: usize,
    pub writer: Option<WriterSpec>,
    /// Requests the traced run replays.
    pub traced_requests: usize,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "static_query",
        graph: WEB_1M,
        stack: Stack::DirectCsr,
        cache: false,
        keys: Keys::Cycle {
            universe: UNIFORM_UNIVERSE,
        },
        burst: 1,
        warmup: 300,
        writer: None,
        traced_requests: 400,
    },
    WorkloadSpec {
        name: "disk_query",
        graph: WEB_1M,
        stack: Stack::DirectDisk,
        cache: false,
        keys: Keys::Cycle {
            universe: UNIFORM_UNIVERSE,
        },
        burst: 1,
        warmup: 300,
        writer: None,
        traced_requests: 300,
    },
    WorkloadSpec {
        name: "serve_churn",
        graph: WEB_200K,
        stack: Stack::Store,
        cache: false,
        keys: Keys::Cycle {
            universe: UNIFORM_UNIVERSE,
        },
        burst: 1,
        warmup: 500,
        writer: Some(WriterSpec {
            updates_per_s: 2_000.0,
            batch: 64,
            pool: 32_768,
            // 556 q/s over 31.25 commits/s.
            replay_requests_per_batch: 18,
        }),
        traced_requests: 1_000,
    },
    WorkloadSpec {
        name: "serve_hot",
        graph: WEB_200K,
        stack: Stack::Store,
        cache: true,
        keys: Keys::Zipf { universe: 8_192 },
        burst: 16,
        warmup: 1_000,
        writer: Some(WriterSpec {
            updates_per_s: 200.0,
            batch: 64,
            pool: 32_768,
            // 2,630 q/s over 3.125 commits/s.
            replay_requests_per_batch: 840,
        }),
        traced_requests: 3_600,
    },
    WorkloadSpec {
        name: "ingest_sharded",
        graph: WEB_200K,
        stack: Stack::Sharded,
        cache: false,
        keys: Keys::Cycle {
            universe: UNIFORM_UNIVERSE,
        },
        burst: 1,
        warmup: 500,
        writer: Some(WriterSpec {
            updates_per_s: 10_000.0,
            batch: 256,
            pool: 65_536,
            // 409 q/s over 39.06 commits/s.
            replay_requests_per_batch: 10,
        }),
        traced_requests: 800,
    },
];

const QUICK_SMALL: GraphSpec = GraphSpec {
    name: "quick-20k",
    nodes: 20_000,
    out_links: 8,
};

/// The graph the view ladder and the layer probes of a traced run use.
pub fn ladder_graph(quick: bool) -> GraphSpec {
    if quick {
        QUICK_SMALL
    } else {
        WEB_200K
    }
}

impl WorkloadSpec {
    pub fn by_name(name: &str) -> Option<Self> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// `--quick`: the same code paths on tiny graphs, to test the harness.
    /// Its numbers are not comparable with anything.
    pub fn quick(mut self) -> Self {
        self.graph = match self.graph.name {
            "web-1m" => GraphSpec {
                name: "quick-40k",
                nodes: 40_000,
                out_links: 10,
            },
            _ => QUICK_SMALL,
        };
        self.warmup = 50;
        self.traced_requests = 50;
        if let Some(w) = &mut self.writer {
            w.pool = 4_096;
            w.replay_requests_per_batch = 10;
        }
        match &mut self.keys {
            Keys::Cycle { universe } => *universe = 128,
            Keys::Zipf { universe } => *universe = 2_048,
        }
        self
    }

    /// Threads that can be runnable at once: the one worker (or the direct
    /// loop) and the writer. The client blocks while the worker runs.
    pub fn busy_threads(&self) -> usize {
        1 + usize::from(self.writer.is_some())
    }
}

/// End-to-end metrics, reported by a `--trace 0` run of every workload.
pub const END_TO_END: [(&str, &str); 8] = [
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("cpu_ms_per_query", "ms"),
    ("update_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_share", "ratio"),
];

/// Per-layer metrics, reported by a `--trace 1` run of every workload. A
/// layer the workload bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 70] = [
    ("walks.sample_us", "us"),
    ("walks.steps_per_us", "1/us"),
    ("core.source_push_us", "us"),
    ("core.hitting_us", "us"),
    ("core.gamma_us", "us"),
    ("core.reverse_push_us", "us"),
    ("core.query_self_us", "us"),
    ("core.top_k_us", "us"),
    ("core.walks_per_query", "count"),
    ("core.attention_nodes", "count"),
    ("core.gu_entries", "count"),
    ("core.level", "count"),
    ("view.csr_us", "us"),
    ("view.snapshot_clean_tax", "ratio"),
    ("view.snapshot_loaded_tax", "ratio"),
    ("view.sharded_k1_tax", "ratio"),
    ("view.sharded_k4_tax", "ratio"),
    ("view.disk_mem_tax", "ratio"),
    ("view.disk_fs_tax", "ratio"),
    ("view.disk_mmap_tax", "ratio"),
    ("view.disk_fs_pinned_tax", "ratio"),
    ("view.access_ns.csr", "ns"),
    ("view.access_ns.snapshot_loaded", "ns"),
    ("view.access_ns.sharded_k4", "ns"),
    ("view.access_ns.disk_fs", "ns"),
    ("store.snapshot_acquire_ns", "ns"),
    ("store.apply_us_per_update", "us"),
    ("store.publish_p50_us", "us"),
    ("store.publish_p99_us", "us"),
    ("store.churn_at_publish_p50", "count"),
    ("store.epochs_published", "count"),
    ("store.compactions", "count"),
    ("store.compaction_mean_ms", "ms"),
    ("store.compaction_max_ms", "ms"),
    ("sharded.commit_p50_us", "us"),
    ("sharded.commit_us_per_update", "us"),
    ("sharded.compactions", "count"),
    ("disk.open_ms", "ms"),
    ("disk.cold_first_250_ms", "ms"),
    ("disk.page_faults", "count"),
    ("disk.page_hits_per_query", "count"),
    ("disk.spill_hits_per_query", "count"),
    ("disk.adaptor_bytes", "bytes"),
    ("disk.pinned_bytes", "bytes"),
    ("disk.resident_over_file", "ratio"),
    ("cache.lookup_hit_ns", "ns"),
    ("cache.lookup_miss_ns", "ns"),
    ("cache.insert_us", "us"),
    ("cache.on_publish_us", "us"),
    ("cache.hit_rate", "ratio"),
    ("cache.evictions", "count"),
    ("cache.invalidations", "count"),
    ("cache.stale_epochs_p99", "count"),
    ("frontend.queue_wait_p50_us", "us"),
    ("frontend.queue_wait_p99_us", "us"),
    ("frontend.service_p50_us", "us"),
    ("frontend.service_p99_us", "us"),
    ("frontend.handoff_p50_us", "us"),
    ("frontend.max_queue_depth", "count"),
    ("frontend.rejected", "count"),
    ("frontend.deadline_missed", "count"),
    ("loadgen.gen_s", "s"),
    ("host.nproc", "count"),
    ("host.steal_share", "ratio"),
    ("host.invol_ctx_switches", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.stage_sum_over_total", "ratio"),
    ("accuracy.max_err_over_eps", "ratio"),
    ("accuracy.replay_checked", "count"),
    ("accuracy.replay_mismatch", "count"),
];

pub fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> Option<&'static str> {
    table.iter().find(|(n, _)| *n == name).map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` is what the driver reads and this file is what the
    /// binary reports; a name or unit in one and not the other would only
    /// show up as a rejected run.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .unwrap()
                .as_array()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).unwrap().as_str().unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS.map(|w| w.name));
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(DEFAULT_SECONDS)
        );
    }
}
