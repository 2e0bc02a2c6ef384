//! Spans recorded from outside the library, around each call into a layer's
//! public function, and the staged query pipeline those spans wrap.
//!
//! Spans are held in memory and written when the run ends. End-to-end
//! metrics never come from a traced run.

use simrank_suite::common::seeds::splitmix64;
use simrank_suite::graph::GraphView;
use simrank_suite::simpush::gamma::compute_gammas_with;
use simrank_suite::simpush::hitting::attention_hitting_with;
use simrank_suite::simpush::reverse_push::reverse_push_with;
use simrank_suite::simpush::source_push::source_push_with;
use simrank_suite::simpush::{Config, QueryWorkspace};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Spans of one request (or one writer batch) share this.
    pub request: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Per span name: how often, how long, and how long outside child spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn enter(&mut self, name: &'static str, request: u32) -> u32 {
        let id = self.spans.len() as u32;
        let span = Span {
            name,
            request,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.spans.push(span);
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: u32) {
        let end = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id as usize].end_ns = end;
    }

    pub fn span<T>(&mut self, name: &'static str, request: u32, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, request);
        let out = f();
        self.exit(id);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of a span is its duration minus its children's.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut children_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                children_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(children_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// One JSON object per line: `{name, request, id, parent, start_ns, end_ns}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"name\": \"{}\", \"request\": {}, \"id\": {id}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// The per-query configuration `SimPush::query_seeded` derives: the walk
/// seed depends on the query node, so answers do not depend on query order.
/// The traced run checks every staged answer against `query_seeded_with`
/// bit for bit, so a change to the library's derivation cannot go unseen.
pub fn seeded_config(base: &Config, u: u32) -> Config {
    let mut state = base.seed ^ ((u as u64) << 24);
    Config {
        seed: splitmix64(&mut state),
        ..base.clone()
    }
}

/// What one staged query produced besides its scores.
#[derive(Debug, Clone, Copy, Default)]
pub struct StagedCounts {
    pub walks: usize,
    pub attention_nodes: usize,
    pub gu_entries: usize,
    pub level: usize,
}

/// `SimPush::query_with` taken apart: the four public stage functions plus
/// the dense materialisation, each inside its own span.
pub fn staged_query<G: GraphView>(
    g: &G,
    u: u32,
    cfg: &Config,
    ws: &mut QueryWorkspace,
    tracer: &mut Tracer,
    request: u32,
) -> (Vec<f64>, StagedCounts) {
    let id = tracer.enter("core.source_push", request);
    let pushed = source_push_with(g, u, cfg, &mut ws.source);
    tracer.exit(id);
    let gu = pushed.gu;
    let counts = StagedCounts {
        walks: pushed.num_walks,
        attention_nodes: gu.num_attention(),
        gu_entries: gu.total_entries(),
        level: gu.max_level(),
    };

    let id = tracer.enter("core.hitting", request);
    ws.att.build_into(&gu);
    attention_hitting_with(g, &gu, &ws.att, cfg.sqrt_c(), &mut ws.hitting);
    tracer.exit(id);

    let id = tracer.enter("core.gamma", request);
    compute_gammas_with(&ws.att, ws.hitting.att_hit(), gu.max_level(), &mut ws.gamma);
    tracer.exit(id);

    let id = tracer.enter("core.reverse_push", request);
    reverse_push_with(g, &gu, &ws.att, ws.gamma.gammas(), cfg, &mut ws.reverse);
    tracer.exit(id);

    let id = tracer.enter("core.materialize", request);
    let acc = ws.reverse.scores();
    let mut scores: Vec<f64> = (0..g.num_nodes()).map(|v| acc.get(v)).collect();
    scores[u as usize] = 1.0;
    ws.recycle(gu);
    tracer.exit(id);
    (scores, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrank_suite::graph::gen::copying_web;
    use simrank_suite::simpush::SimPush;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let outer = t.enter("outer", 0);
        t.span("inner", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("inner", 0, || ());
        t.exit(outer);
        let totals = t.totals();
        assert_eq!(totals["inner"].count, 2);
        assert_eq!(totals["inner"].self_ns, totals["inner"].total_ns);
        assert_eq!(
            totals["outer"].self_ns,
            totals["outer"].total_ns - totals["inner"].total_ns
        );
        assert!(totals["inner"].total_ns >= 2_000_000);
    }

    #[test]
    fn staged_pipeline_equals_query_seeded_bit_for_bit() {
        let g = copying_web(3_000, 6, 0.75, 7);
        let engine = SimPush::new(Config::new(0.02));
        let (mut warm, mut staged) = (QueryWorkspace::new(), QueryWorkspace::new());
        let mut tracer = Tracer::new();
        for u in [0u32, 17, 1_234, 2_999] {
            let want = engine.query_seeded_with(&g, u, &mut warm).scores;
            let cfg = seeded_config(engine.config(), u);
            let (got, counts) = staged_query(&g, u, &cfg, &mut staged, &mut tracer, u);
            assert!(counts.walks > 0);
            assert_eq!(
                want.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                got.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                "u={u}"
            );
        }
        assert_eq!(tracer.len(), 4 * 5);
    }
}
