//! One benchmark run: generate the inputs, set the system up, measure the
//! timed window, check the answers, and — in a traced run — replay the
//! same requests under spans and probe the layers.

use crate::check::{self, same_answer, well_formed, TopK};
use crate::gen::{derive, node_universe, KeyStream, ToggleStream};
use crate::host::{self, HostDelta, HostSnapshot};
use crate::probes;
use crate::report::Report;
use crate::serving::{self, Serving, Sharded, Store};
use crate::spec::{
    Keys, Stack, WorkloadSpec, CHECKED_ANSWERS, DISK_PAGE_BYTES, EPSILON, GRAPH_SEED,
    SETUP_REPEATS, TOP_K,
};
use crate::stats::{self, Sample};
use crate::traced;
use simrank_suite::graph::gen::copying_web;
use simrank_suite::graph::storage::write_disk_graph;
use simrank_suite::graph::{
    CsrGraph, DiskGraph, DiskGraphOptions, GraphStore, GraphUpdate, GraphView,
};
use simrank_suite::simpush::{Config, QueryWorkspace, SimPush};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A traced run spends this share of `--seconds` in the untraced window
/// that feeds the counters read off the serving layers; the rest of its
/// time goes to the replay and the probes, which have fixed sizes.
const TRACED_WINDOW_SHARE: f64 = 0.4;

pub struct Ctx {
    pub spec: WorkloadSpec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub out_dir: PathBuf,
}

impl Ctx {
    fn window_seconds(&self) -> f64 {
        if self.trace {
            self.seconds * TRACED_WINDOW_SHARE
        } else {
            self.seconds
        }
    }

    /// The set-up is repeated so `setup_s` can be a median; a traced run
    /// reports no `setup_s` and sets up once.
    fn setup_repeats(&self) -> usize {
        if self.trace {
            1
        } else {
            SETUP_REPEATS
        }
    }
}

/// Removes a scratch file when the run ends, however it ends.
struct ScratchFile(PathBuf);

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// From here on memory is the system's: without the reset `peak_rss_mb`
/// would be the high-water mark of graph generation.
fn reset_peak_rss(report: &mut Report) {
    if !host::reset_peak_rss() {
        report.suspect.push(
            "/proc/self/clear_refs refused the VmHWM reset: peak_rss_mb includes graph generation"
                .to_string(),
        );
    }
}

fn generate(report: &mut Report, spec: crate::spec::GraphSpec) -> CsrGraph {
    let (g, took) = timed(|| copying_web(spec.nodes, spec.out_links, 0.75, GRAPH_SEED));
    report.gen_s += took.as_secs_f64();
    report.note(format!(
        "graph {} = copying_web({}, {}, 0.75, {GRAPH_SEED}): {} edges",
        spec.name,
        spec.nodes,
        spec.out_links,
        g.num_edges()
    ));
    g
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let engine = SimPush::new(Config::new(EPSILON));

    let (worst, overshoot) = check::epsilon_guarantee(&engine, ctx.seed);
    report.push(
        "accuracy.max_err_over_eps",
        worst,
        CHECKED_ANSWERS * crate::spec::WEB_1K.nodes,
    );
    report.gate(!overshoot && worst <= 1.0, || {
        format!("epsilon guarantee broken: max error {worst} of epsilon, overshoot {overshoot}")
    });

    let base = generate(&mut report, ctx.spec.graph);
    match ctx.spec.stack {
        Stack::DirectCsr => direct_csr(ctx, &engine, &base, &mut report),
        Stack::DirectDisk => direct_disk(ctx, &engine, base, &mut report),
        Stack::Store => serve_workload::<GraphStore>(ctx, &engine, &base, &mut report),
        Stack::Sharded => serve_workload::<Sharded>(ctx, &engine, &base, &mut report),
    }
    if ctx.trace {
        let ladder = generate(&mut report, crate::spec::ladder_graph(ctx.quick));
        probes::run_all(&mut report, &engine, &ladder, &ctx.out_dir, ctx.quick);
    }
    report.push("loadgen.gen_s", report.gen_s, 1);
    report.push("host.nproc", host::nproc() as f64, 1);
    report
}

/// Closed loop, one thread, straight on a `GraphView`.
struct DirectWindow {
    samples: Vec<Sample>,
    attempted: u64,
    malformed: u64,
    /// The first answers of the window, for the bit-for-bit checks.
    first: Vec<(u32, TopK)>,
    host: HostDelta,
    peak_rss_mb: f64,
}

fn direct_window<G: GraphView>(
    view: &G,
    engine: &SimPush,
    ws: &mut QueryWorkspace,
    keys: &mut KeyStream,
    seconds: f64,
) -> DirectWindow {
    let mut out = DirectWindow {
        samples: Vec::new(),
        attempted: 0,
        malformed: 0,
        first: Vec::new(),
        host: HostDelta::default(),
        peak_rss_mb: 0.0,
    };
    let before = HostSnapshot::take();
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(seconds);
    loop {
        let start = Instant::now();
        if start >= end {
            break;
        }
        let u = keys.next_key();
        let top = engine.query_seeded_with(view, u, ws).top_k(TOP_K);
        let latency = start.elapsed();
        out.attempted += 1;
        if well_formed(u, &top) {
            out.samples.push(Sample {
                start_s: (start - t0).as_secs_f64(),
                value: ms(latency),
            });
        } else {
            out.malformed += 1;
        }
        if out.first.len() < CHECKED_ANSWERS {
            out.first.push((u, top));
        } else {
            black_box(top);
        }
    }
    out.host = HostDelta::between(&before, &HostSnapshot::take());
    out.peak_rss_mb = host::peak_rss_mb();
    out
}

/// Set-up of a direct workload: `open` the view, a fresh workspace and the
/// fixed warm-up queries, repeated; keeps the last.
fn direct_set_up<G: GraphView>(
    ctx: &Ctx,
    engine: &SimPush,
    warm_keys: &[u32],
    open: impl Fn() -> G,
) -> (G, QueryWorkspace, Vec<f64>) {
    let mut kept = None;
    let mut seconds = Vec::new();
    for _ in 0..ctx.setup_repeats() {
        drop(kept.take());
        let (pair, took) = timed(|| {
            let view = open();
            let mut ws = QueryWorkspace::new();
            for &u in warm_keys {
                black_box(engine.query_seeded_with(&view, u, &mut ws).top_k(TOP_K));
            }
            (view, ws)
        });
        seconds.push(took.as_secs_f64());
        kept = Some(pair);
    }
    let (view, ws) = kept.expect("at least one set-up");
    (view, ws, seconds)
}

/// What every workload hands over once its timed window is done.
struct Measured<'a> {
    /// Latency in ms of every correctly answered request.
    samples: &'a [Sample],
    attempted: u64,
    failed: u64,
    host: &'a HostDelta,
    peak_rss_mb: f64,
    /// Cost in ms of each event that made updates visible.
    update_ms: &'a [f64],
    setup_s: &'a [f64],
}

/// Counts the window's operations, records the host's noise and — in an
/// untraced run — reports the eight end-to-end metrics, by the same
/// definitions on every workload.
fn finish(ctx: &Ctx, report: &mut Report, m: Measured) {
    report.attempted += m.attempted;
    report.failed += m.failed;
    report.push("host.steal_share", m.host.steal_share, 1);
    report.push("host.invol_ctx_switches", m.host.involuntary_switches, 1);
    if m.host.steal_share > 0.5 {
        report.suspect.push(format!(
            "hypervisor stole {:.0}% of CPU time during the window",
            m.host.steal_share * 100.0
        ));
    }
    if ctx.trace {
        return;
    }
    let seconds = ctx.window_seconds();
    let latencies: Vec<f64> = m.samples.iter().map(|s| s.value).collect();
    let segs = stats::segments(m.samples, seconds);
    let answered = m.samples.len();
    report.push("query_p50_ms", stats::median(&latencies), answered);
    report.push(
        "query_p99_ms",
        stats::percentile(&latencies, 0.99),
        answered,
    );
    report.push(
        "throughput_qps",
        stats::segment_median_rate(&segs, seconds),
        answered,
    );
    report.push(
        "cpu_ms_per_query",
        m.host.cpu_s * 1e3 / answered.max(1) as f64,
        answered,
    );
    report.push("update_ms", stats::mean(m.update_ms), m.update_ms.len());
    report.push("setup_s", stats::median(m.setup_s), m.setup_s.len());
    report.push("peak_rss_mb", m.peak_rss_mb, 1);
    report.push(
        "success_share",
        answered as f64 / m.attempted.max(1) as f64,
        m.attempted as usize,
    );
    let per_segment =
        |f: &dyn Fn(&Vec<f64>) -> String| segs.iter().map(f).collect::<Vec<_>>().join(" ");
    report.note(format!(
        "samples per segment: {}",
        per_segment(&|s| s.len().to_string())
    ));
    report.note(format!(
        "p99 ms per segment: {}",
        per_segment(&|s| format!("{:.2}", stats::percentile(s, 0.99)))
    ));
}

/// The direct workloads' answer check: the first answers of the window
/// against the same queries answered another way, bit for bit.
fn bitwise_gate(report: &mut Report, first: &[(u32, TopK)], reference: &[TopK], other: &str) {
    let mut mismatches = 0;
    for ((u, top), want) in first.iter().zip(reference) {
        if !same_answer(want, top) {
            mismatches += 1;
            report.gate(false, || {
                format!("answer for node {u} differs from {other}")
            });
        }
    }
    report.push("accuracy.replay_checked", first.len() as f64, first.len());
    report.push("accuracy.replay_mismatch", mismatches as f64, first.len());
}

/// `static_query`: the paper's setting. The engine does all the work.
fn direct_csr(ctx: &Ctx, engine: &SimPush, base: &CsrGraph, report: &mut Report) {
    let mut keys = key_stream(ctx, base.num_nodes());
    let warm_keys = keys.take_keys(ctx.spec.warmup);

    // A static engine sees an update only through a rebuilt CSR: that is
    // this workload's cost of making a batch visible, and it is where any
    // pre-computation smuggled into graph construction would show.
    let rebuild_ms: Vec<f64> = {
        let edges: Vec<(u32, u32)> = base.edges().collect();
        (0..ctx.setup_repeats())
            .map(|_| {
                ms(timed(|| black_box(CsrGraph::from_sorted_edges(base.num_nodes(), &edges))).1)
            })
            .collect()
    };
    reset_peak_rss(report);

    let (view, mut ws, setup_s) = direct_set_up(ctx, engine, &warm_keys, || base);
    let replay_keys = keys.clone().take_keys(ctx.spec.traced_requests);
    let w = direct_window(view, engine, &mut ws, &mut keys, ctx.window_seconds());
    drop(ws);

    let cold: Vec<TopK> = w
        .first
        .iter()
        .map(|(u, _)| engine.query_seeded(base, *u).top_k(TOP_K))
        .collect();
    bitwise_gate(report, &w.first, &cold, "a cold query_seeded");
    finish(
        ctx,
        report,
        Measured {
            samples: &w.samples,
            attempted: w.attempted,
            failed: w.malformed,
            host: &w.host,
            peak_rss_mb: w.peak_rss_mb,
            update_ms: &[stats::median(&rebuild_ms)],
            setup_s: &setup_s,
        },
    );
    if ctx.trace {
        traced::replay_direct(ctx, engine, base, &replay_keys, report);
    }
}

fn disk_options(path: &Path) -> DiskGraphOptions {
    let file_bytes = std::fs::metadata(path)
        .expect("the graph file was just written")
        .len();
    DiskGraphOptions::with_budget(file_bytes / 4)
}

fn open_disk(path: &Path) -> DiskGraph {
    DiskGraph::open_fs(path, disk_options(path)).expect("opening the graph file just written")
}

/// `disk_query`: the same engine work through the storage tier.
fn direct_disk(ctx: &Ctx, engine: &SimPush, base: CsrGraph, report: &mut Report) {
    let mut keys = key_stream(ctx, base.num_nodes());
    let warm_keys = keys.take_keys(ctx.spec.warmup);
    let checked = keys.clone().take_keys(CHECKED_ANSWERS);
    let reference: Vec<TopK> = checked
        .iter()
        .map(|&u| engine.query_seeded(&base, u).top_k(TOP_K))
        .collect();

    std::fs::create_dir_all(&ctx.out_dir).expect("creating the output directory");
    let file = ScratchFile(ctx.out_dir.join(format!(
        "{}.{}.srgd",
        ctx.spec.graph.name,
        std::process::id()
    )));
    let path = file.0.as_path();
    // An on-disk graph sees an update only through a rewritten file that is
    // opened again.
    let rewrite_ms: Vec<f64> = (0..ctx.setup_repeats())
        .map(|_| {
            ms(timed(|| {
                write_disk_graph(&base, path, DISK_PAGE_BYTES).expect("writing the graph file");
                black_box(open_disk(path));
            })
            .1)
        })
        .collect();
    let file_bytes = std::fs::metadata(path)
        .expect("the graph file exists")
        .len();
    // From here on the file is the graph: the in-memory copy must not count
    // towards the memory of a disk-resident system.
    drop(base);
    reset_peak_rss(report);
    let rss_before = host::rss_mb();

    let (disk, mut ws, setup_s) = direct_set_up(ctx, engine, &warm_keys, || open_disk(path));
    let replay_keys = keys.clone().take_keys(ctx.spec.traced_requests);
    let tier_before = disk.stats();
    let w = direct_window(&disk, engine, &mut ws, &mut keys, ctx.window_seconds());
    let tier = disk.stats().delta_since(&tier_before);
    // Without the query workspace, what is left is pinned segments, spill
    // table and the tier's own page cache.
    drop(ws);
    let resident_mb = host::rss_mb() - rss_before;

    bitwise_gate(
        report,
        &w.first,
        &reference,
        "the answer on the in-memory CSR",
    );

    let answered = w.samples.len().max(1) as f64;
    report.push("disk.page_faults", tier.page_faults as f64, w.samples.len());
    report.push(
        "disk.page_hits_per_query",
        tier.page_hits as f64 / answered,
        w.samples.len(),
    );
    report.push(
        "disk.spill_hits_per_query",
        tier.spill_hits as f64 / answered,
        w.samples.len(),
    );
    report.push(
        "disk.adaptor_bytes",
        tier.adaptor_bytes as f64,
        w.samples.len(),
    );
    report.push("disk.pinned_bytes", disk.placement().pinned_bytes as f64, 1);
    report.push(
        "disk.resident_over_file",
        resident_mb * 1024.0 * 1024.0 / file_bytes as f64,
        1,
    );
    finish(
        ctx,
        report,
        Measured {
            samples: &w.samples,
            attempted: w.attempted,
            failed: w.malformed,
            host: &w.host,
            peak_rss_mb: w.peak_rss_mb,
            update_ms: &[stats::median(&rewrite_ms)],
            setup_s: &setup_s,
        },
    );
    if ctx.trace {
        traced::replay_direct(ctx, engine, &disk, &replay_keys, report);
    }
}

/// Key stream `index` of the workload under the run seed.
fn key_stream(ctx: &Ctx, n: usize) -> KeyStream {
    let stream_seed = derive(ctx.seed, "keys");
    match ctx.spec.keys {
        Keys::Cycle { universe } => {
            KeyStream::cycle(stream_seed, node_universe(GRAPH_SEED, n, universe))
        }
        Keys::Zipf { universe } => KeyStream::zipf(
            stream_seed,
            node_universe(GRAPH_SEED, n, universe),
            crate::spec::ZIPF_EXPONENT,
        ),
    }
}

/// `serve_churn`, `serve_hot`, `ingest_sharded`.
fn serve_workload<S: Store>(ctx: &Ctx, engine: &SimPush, base: &CsrGraph, report: &mut Report) {
    let spec = &ctx.spec;
    let writer = spec.writer.expect("serving workloads have a writer");
    let seconds = ctx.window_seconds();

    let t_gen = Instant::now();
    let mut keys = key_stream(ctx, base.num_nodes());
    let warm_keys = keys.take_keys(spec.warmup);
    let replay_keys = keys.clone().take_keys(spec.traced_requests);
    let (mut toggle, initial) = ToggleStream::new(base, writer.pool, ctx.seed);
    // One second more than the window, so the writer never runs dry.
    let batch_count =
        ((seconds + 1.0) * writer.updates_per_s / writer.batch as f64).ceil() as usize;
    let batches: Vec<Vec<GraphUpdate>> = (0..batch_count)
        .map(|_| toggle.next_batch(writer.batch))
        .collect();
    report.gen_s += t_gen.elapsed().as_secs_f64();
    reset_peak_rss(report);

    let mut kept: Option<Serving<S>> = None;
    let mut setup_s = Vec::new();
    let mut cold_unanswered = 0;
    for _ in 0..ctx.setup_repeats() {
        if let Some(previous) = kept.take() {
            previous.frontend.shutdown();
        }
        let (sut, took, unanswered) =
            serving::set_up::<S>(base.clone(), spec, engine, &initial, &warm_keys);
        setup_s.push(took.as_secs_f64());
        cold_unanswered += unanswered;
        kept = Some(sut);
    }
    let sut = kept.expect("at least one set-up");
    let first = sut.initial;
    report.gate(cold_unanswered == 0, || {
        format!("{cold_unanswered} warm-up requests were not answered")
    });

    let (window, store, cache) = serving::run_window(sut, spec, seconds, keys, &batches);

    let committed = window.log.len();
    let ineffective = std::iter::once(&first)
        .chain(&window.log)
        .filter(|e| !e.all_effective)
        .count();
    report.gate(ineffective == 0, || {
        format!("{ineffective} update batches had ineffective updates")
    });
    let mut commits: Vec<serving::Commit> = vec![(first, &initial)];
    commits.extend(
        window
            .log
            .iter()
            .copied()
            .zip(batches.iter().map(Vec::as_slice)),
    );
    serving::layer_metrics(
        report,
        &window,
        seconds,
        &commits,
        &*store,
        cache.as_deref(),
    );
    serving::replay_gate(
        report,
        engine,
        base,
        ctx.seed,
        &window.client.answers,
        &commits,
        spec.cache,
    );

    let samples: Vec<Sample> = window
        .client
        .answers
        .iter()
        .filter(|a| well_formed(a.response.node, &a.response.top))
        .map(|a| Sample {
            start_s: a.start_s,
            value: ms(a.latency),
        })
        .collect();
    let update_ms: Vec<f64> = window.log.iter().map(|e| ms(e.latency)).collect();
    report.note(format!(
        "writer committed {committed} batches of {} in {seconds} s ({:.0} updates/s offered)",
        writer.batch, writer.updates_per_s
    ));
    finish(
        ctx,
        report,
        Measured {
            samples: &samples,
            attempted: window.client.attempted,
            failed: window.client.unanswered + (window.client.answers.len() - samples.len()) as u64,
            host: &window.host,
            peak_rss_mb: window.peak_rss_mb,
            update_ms: &update_ms,
            setup_s: &setup_s,
        },
    );
    if ctx.trace {
        drop((store, cache));
        traced::replay_serving::<S>(ctx, engine, base, &initial, &batches, &replay_keys, report);
    }
}
