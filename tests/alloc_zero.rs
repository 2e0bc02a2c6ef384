//! Proof of the workspace contract: a steady-state warm query performs
//! **zero heap allocations** in the push stages.
//!
//! A counting global allocator wraps the system one; after two warm-up
//! repetitions of the same query on one [`QueryWorkspace`] (the first grows
//! every pooled buffer, the second settles hash-map capacities), a third
//! run of the four stage entry points — `source_push_with`,
//! `attention_hitting_with`, `compute_gammas_with`, `reverse_push_with` —
//! must not allocate at all. Only materialising the dense result vector
//! (the caller-owned output) and the per-query stats may allocate, and they
//! are outside the measured region.
//!
//! The allocation counter is process-global, so the tests in this binary
//! serialize themselves through `MEASURE_LOCK` — libtest runs `#[test]`s
//! on parallel threads by default, and a concurrent test's allocations
//! must not land inside another's measured window.

use simpush::gamma::compute_gammas_with;
use simpush::hitting::attention_hitting_with;
use simpush::reverse_push::reverse_push_with;
use simpush::source_push::source_push_with;
use simpush::{Config, QueryWorkspace};
use simrank_graph::GraphView;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Serializes the measured regions (see the module docs).
static MEASURE_LOCK: Mutex<()> = Mutex::new(());

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth is as much churn as a fresh allocation.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs the four push stages for `u` on `ws`, recycling `Gu` at the end.
/// Returns the number of level-detection walks stage 1 drew.
fn run_stages<G: simrank_graph::GraphView>(
    g: &G,
    u: u32,
    cfg: &Config,
    ws: &mut QueryWorkspace,
) -> usize {
    let sp = source_push_with(g, u, cfg, &mut ws.source);
    let gu = sp.gu;
    ws.att.build_into(&gu);
    attention_hitting_with(g, &gu, &ws.att, cfg.sqrt_c(), &mut ws.hitting);
    compute_gammas_with(&ws.att, ws.hitting.att_hit(), gu.max_level(), &mut ws.gamma);
    reverse_push_with(g, &gu, &ws.att, ws.gamma.gammas(), cfg, &mut ws.reverse);
    ws.recycle(gu);
    sp.num_walks
}

#[test]
fn warm_push_stages_allocate_nothing() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    // A graph big enough that every stage does real work: a multi-level Gu,
    // attention hitting pairs and a residue cascade.
    let g = simrank_graph::gen::copying_web(5_000, 6, 0.7, 13);
    let cfg = Config::new(0.02);
    let u = 1_234u32;
    let mut ws = QueryWorkspace::new();

    // Warm-up: run 1 grows the pools, run 2 settles retained capacities
    // (hash tables only reach steady state once re-populated after a
    // clear).
    run_stages(&g, u, &cfg, &mut ws);
    run_stages(&g, u, &cfg, &mut ws);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    run_stages(&g, u, &cfg, &mut ws);
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "steady-state push stages must not touch the heap"
    );

    // Sanity: the run above actually computed something.
    let n = g.num_nodes();
    let touched = (0..n).filter(|&v| ws.reverse.scores().get(v) > 0.0).count();
    assert!(touched > 0, "query produced no score mass");
}

#[test]
fn warm_stages_still_allocate_nothing_across_different_queries() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    // Queries alternate between two nodes: pools must absorb the shape
    // changes (different Gu depths/populations) once both have been seen.
    let g = simrank_graph::gen::copying_web(3_000, 5, 0.75, 29);
    let cfg = Config::new(0.05);
    let nodes = [7u32, 2_500, 7, 2_500];
    let mut ws = QueryWorkspace::new();
    for &u in &nodes {
        run_stages(&g, u, &cfg, &mut ws);
    }
    for &u in &nodes {
        run_stages(&g, u, &cfg, &mut ws);
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for &u in &nodes {
        run_stages(&g, u, &cfg, &mut ws);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "alternating warm queries must not touch the heap"
    );
}

#[test]
fn warm_stages_allocate_nothing_whether_or_not_stage_one_samples() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    // The heaviest hub's frontier breaks the edge budget, so stage 1 falls
    // back to residual walks (visit maps, walk buffer); node 1234 settles in
    // the exact phase. One workspace serves both.
    let g = simrank_graph::gen::copying_web(5_000, 6, 0.7, 13);
    let cfg = Config::new(0.05);
    let hub = g
        .nodes()
        .max_by_key(|&v| g.in_degree(v))
        .expect("non-empty graph");
    let mut ws = QueryWorkspace::new();
    for _ in 0..2 {
        for u in [hub, 1_234] {
            run_stages(&g, u, &cfg, &mut ws);
        }
    }

    for (u, samples) in [(hub, true), (1_234, false)] {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let walks = run_stages(&g, u, &cfg, &mut ws);
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        assert_eq!(walks > 0, samples, "node {u} drew {walks} walks");
        assert_eq!(
            after - before,
            0,
            "warm query of node {u} ({walks} walks) must not touch the heap"
        );
    }
}
