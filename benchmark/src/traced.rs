//! The traced replay: the first requests of a workload's seeded stream,
//! run synchronously on one thread with a span around every call into a
//! layer, next to an untraced reference execution of the same requests.

use crate::check::TopK;
use crate::report::Report;
use crate::run::Ctx;
use crate::serving::{self, Store};
use crate::spec::TOP_K;
use crate::trace::{seeded_config, staged_query, StagedCounts, Tracer};
use simrank_suite::graph::{CsrGraph, GraphUpdate, GraphView};
use simrank_suite::simpush::answer_cache::{AnswerCache, CacheKey, SupportTracer};
use simrank_suite::simpush::{QueryResult, QueryStats, QueryWorkspace, SimPush};
use simrank_suite::walks::{LevelVisits, WalkParams};
use std::time::Instant;

/// Writer batches get request ids from here up, so they never collide with
/// the ids of query requests.
const WRITER_ID_BASE: u32 = 1 << 30;
/// Keys the walk probe samples from.
const WALK_PROBE_KEYS: usize = 200;

/// Sums over the replayed requests that reached the engine.
#[derive(Debug, Default)]
struct EngineTotals {
    requests: usize,
    /// Untraced `query_seeded_with`, timed from outside.
    reference_query_ns: u64,
    /// Untraced `query_seeded_with` + `top_k`.
    reference_total_ns: u64,
    /// Traced stages + materialise + `top_k`.
    staged_total_ns: u64,
    score_mismatches: usize,
    counts: StagedCounts,
}

/// Two executions of one query on one view, in alternating order so that
/// neither always finds the graph warm: the library's `query_seeded_with`
/// untraced, and the staged pipeline under spans. Their scores must agree
/// bit for bit or the spans describe a different pipeline.
struct Engine<'a> {
    engine: &'a SimPush,
    reference_ws: QueryWorkspace,
    staged_ws: QueryWorkspace,
    totals: EngineTotals,
}

impl<'a> Engine<'a> {
    fn new(engine: &'a SimPush) -> Self {
        Self {
            engine,
            reference_ws: QueryWorkspace::new(),
            staged_ws: QueryWorkspace::new(),
            totals: EngineTotals::default(),
        }
    }

    fn reference<G: GraphView>(&mut self, view: &G, u: u32) -> Vec<f64> {
        let t = Instant::now();
        let result = self
            .engine
            .query_seeded_with(view, u, &mut self.reference_ws);
        self.totals.reference_query_ns += t.elapsed().as_nanos() as u64;
        std::hint::black_box(result.top_k(TOP_K));
        self.totals.reference_total_ns += t.elapsed().as_nanos() as u64;
        result.scores
    }

    fn staged<G: GraphView>(
        &mut self,
        view: &G,
        u: u32,
        tracer: &mut Tracer,
        request: u32,
    ) -> (Vec<f64>, TopK) {
        let t = Instant::now();
        let cfg = seeded_config(self.engine.config(), u);
        let (scores, counts) = staged_query(view, u, &cfg, &mut self.staged_ws, tracer, request);
        let result = QueryResult {
            query: u,
            scores,
            stats: QueryStats::default(),
        };
        let top = tracer.span("core.top_k", request, || result.top_k(TOP_K));
        self.totals.staged_total_ns += t.elapsed().as_nanos() as u64;
        let c = &mut self.totals.counts;
        c.walks += counts.walks;
        c.attention_nodes += counts.attention_nodes;
        c.gu_entries += counts.gu_entries;
        c.level += counts.level;
        (result.scores, top)
    }

    fn compare(&mut self, reference: &[f64], staged: &[f64]) {
        self.totals.requests += 1;
        let same_scores = reference.len() == staged.len()
            && reference
                .iter()
                .zip(staged)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        // Equal scores give equal top-k lists: `top_k` is a function of them.
        self.totals.score_mismatches += usize::from(!same_scores);
    }
}

fn push_engine_metrics(report: &mut Report, tracer: &Tracer, totals: &EngineTotals) {
    let spans = tracer.totals();
    let n = totals.requests;
    let per_request_us = |ns: u64| ns as f64 / n.max(1) as f64 / 1e3;
    let total_of = |name: &str| spans.get(name).map_or(0, |t| t.total_ns);
    let stages = [
        ("core.source_push", "core.source_push_us"),
        ("core.hitting", "core.hitting_us"),
        ("core.gamma", "core.gamma_us"),
        ("core.reverse_push", "core.reverse_push_us"),
        ("core.top_k", "core.top_k_us"),
    ];
    for (span, metric) in stages {
        report.push(metric, per_request_us(total_of(span)), n);
    }
    let four_stages: u64 = stages[..4].iter().map(|(span, _)| total_of(span)).sum();
    // `query_with` total minus the four stages: the dense materialisation
    // and the assembly of the result.
    report.push(
        "core.query_self_us",
        per_request_us(totals.reference_query_ns.saturating_sub(four_stages)),
        n,
    );
    let per_request = |count: usize| count as f64 / n.max(1) as f64;
    report.push("core.walks_per_query", per_request(totals.counts.walks), n);
    report.push(
        "core.attention_nodes",
        per_request(totals.counts.attention_nodes),
        n,
    );
    report.push("core.gu_entries", per_request(totals.counts.gu_entries), n);
    report.push("core.level", per_request(totals.counts.level), n);

    let staged_sum = four_stages + total_of("core.materialize");
    let ratio = staged_sum as f64 / totals.reference_query_ns.max(1) as f64;
    report.push("trace.stage_sum_over_total", ratio, n);
    report.push(
        "trace.overhead_share",
        totals.staged_total_ns as f64 / totals.reference_total_ns.max(1) as f64 - 1.0,
        n,
    );
    report.gate(totals.score_mismatches == 0, || {
        format!(
            "staged pipeline differs from query_seeded_with on {} of {n} requests",
            totals.score_mismatches
        )
    });
    // The scores above are the proof that both executions are the same
    // pipeline; their times are two measurements on a noisy host, so a
    // ratio off 1 makes the run suspect, not wrong.
    if n > 0 && !(0.95..=1.05).contains(&ratio) {
        report.suspect.push(format!(
            "stage spans sum to {ratio:.3} of query_with: the replay's times are not trustworthy"
        ));
    }

    report.note("span                 count    total_ms     self_ms".to_string());
    for (name, t) in &spans {
        report.note(format!(
            "{name:<20} {:>5} {:>11.3} {:>11.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
}

/// One `LevelVisits::sample_into` at the engine's own walk budget per key.
fn walk_probe<G: GraphView>(report: &mut Report, engine: &SimPush, view: &G, keys: &[u32]) {
    let cfg = engine.config();
    let mut visits = LevelVisits::default();
    let mut buf = Vec::new();
    let mut micros = Vec::new();
    let mut steps = 0u64;
    for &u in keys.iter().take(WALK_PROBE_KEYS) {
        let seed = seeded_config(cfg, u).seed;
        let t = Instant::now();
        visits.sample_into(
            view,
            u,
            WalkParams::new(cfg.c),
            cfg.num_detection_walks(),
            cfg.l_star(),
            seed,
            &mut buf,
        );
        micros.push(t.elapsed().as_secs_f64() * 1e6);
        steps += visits
            .levels
            .iter()
            .map(|level| level.values().map(|&c| c as u64).sum::<u64>())
            .sum::<u64>();
    }
    report.push(
        "walks.sample_us",
        crate::stats::median(&micros),
        micros.len(),
    );
    report.push(
        "walks.steps_per_us",
        steps as f64 / micros.iter().sum::<f64>().max(1e-9),
        micros.len(),
    );
}

fn write_spans(ctx: &Ctx, tracer: &Tracer, report: &mut Report) {
    let path = ctx.out_dir.join(format!("trace-{}.jsonl", ctx.spec.name));
    match tracer.write_jsonl(&path) {
        Ok(()) => report.note(format!(
            "{} spans written to {}",
            tracer.len(),
            path.display()
        )),
        Err(e) => report.gate(false, || format!("writing {}: {e}", path.display())),
    }
}

/// Replay of a direct workload: request → the staged engine → `top_k`.
pub fn replay_direct<G: GraphView>(
    ctx: &Ctx,
    engine: &SimPush,
    view: &G,
    keys: &[u32],
    report: &mut Report,
) {
    let mut tracer = Tracer::new();
    let mut both = Engine::new(engine);
    for (i, &u) in keys.iter().enumerate() {
        let request = i as u32;
        let reference_first = i % 2 == 0;
        let early = reference_first.then(|| both.reference(view, u));
        let root = tracer.enter("request", request);
        let staged = both.staged(view, u, &mut tracer, request);
        tracer.exit(root);
        let reference = early.unwrap_or_else(|| both.reference(view, u));
        both.compare(&reference, &staged.0);
    }
    push_engine_metrics(report, &tracer, &both.totals);
    walk_probe(report, engine, view, keys);
    write_spans(ctx, &tracer, report);
}

/// Replay of a serving workload on a fresh store: request →
/// `store.snapshot` → `cache.lookup` → the staged engine → `top_k` →
/// `cache.insert`, with one of the writer's batches (`apply` → `publish` →
/// `on_publish`) every `replay_requests_per_batch` requests.
pub fn replay_serving<S: Store>(
    ctx: &Ctx,
    engine: &SimPush,
    base: &CsrGraph,
    initial: &[GraphUpdate],
    batches: &[Vec<GraphUpdate>],
    keys: &[u32],
    report: &mut Report,
) {
    let spec = &ctx.spec;
    let writer = spec.writer.expect("serving workloads have a writer");
    let store = S::build(base.clone());
    let cache = spec.cache.then(serving::new_cache);
    serving::commit_logged(&store, cache.as_deref(), initial);
    let fingerprint = engine.config().fingerprint();

    let mut tracer = Tracer::new();
    let mut both = Engine::new(engine);
    let mut next_batch = 0usize;
    let mut hits = 0usize;
    for (i, &u) in keys.iter().enumerate() {
        if i > 0 && i % writer.replay_requests_per_batch == 0 && next_batch < batches.len() {
            let id = WRITER_ID_BASE + next_batch as u32;
            let root = tracer.enter("update", id);
            let c = store.commit_traced(&batches[next_batch], &mut tracer, id);
            if let Some(cache) = cache.as_deref() {
                tracer.span("cache.on_publish", id, || {
                    cache.on_publish(c.version, &c.touched)
                });
            }
            tracer.exit(root);
            next_batch += 1;
        }

        let request = i as u32;
        let key = CacheKey {
            node: u,
            top_k: TOP_K,
            fingerprint,
        };
        // With a cache only a miss reaches the engine, and which requests
        // miss is not known before the lookup: the reference then always
        // runs second, on a graph the staged execution has just touched.
        let reference_first = cache.is_none() && i % 2 == 0;
        let early = reference_first.then(|| both.reference(&*store.acquire().0, u));
        let root = tracer.enter("request", request);
        let hint = store.version_hint();
        let hit = cache
            .as_deref()
            .and_then(|c| tracer.span("cache.lookup", request, || c.lookup(&key, hint)));
        if hit.is_some() {
            hits += 1;
            tracer.exit(root);
            continue;
        }
        let (snap, epoch) = tracer.span("store.snapshot", request, || store.acquire());
        let staged = match cache.as_deref() {
            Some(cache) => {
                let traced_view = SupportTracer::new(&*snap);
                let staged = both.staged(&traced_view, u, &mut tracer, request);
                let support = traced_view.take_support();
                tracer.span("cache.insert", request, || {
                    cache.insert(key, epoch, support, staged.1.clone())
                });
                staged
            }
            None => both.staged(&*snap, u, &mut tracer, request),
        };
        tracer.exit(root);
        let reference =
            early.unwrap_or_else(|| reference_on(&mut both, cache.as_deref(), &*snap, u));
        both.compare(&reference, &staged.0);
    }
    report.note(format!(
        "replayed {} requests ({hits} cache hits) and {next_batch} update batches",
        keys.len()
    ));
    push_engine_metrics(report, &tracer, &both.totals);
    walk_probe(report, engine, &*store.acquire().0, keys);
    write_spans(ctx, &tracer, report);
}

/// The reference execution sees the view the front-end's worker would: a
/// `SupportTracer` around the snapshot when answers are cached.
fn reference_on<G: GraphView>(
    both: &mut Engine,
    cache: Option<&AnswerCache>,
    snap: &G,
    u: u32,
) -> Vec<f64> {
    if cache.is_some() {
        both.reference(&SupportTracer::new(snap), u)
    } else {
        both.reference(snap, u)
    }
}
