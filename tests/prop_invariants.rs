//! Property-based tests (proptest) on the core invariants.

use proptest::prelude::*;
use simpush::{Config, SimPush};
use simrank_suite::baselines::power_method;
use simrank_suite::graph::storage::{write_disk_graph, DEFAULT_PAGE_SIZE};
use simrank_suite::graph::{DiskGraph, DiskGraphOptions};
use simrank_suite::prelude::*;

/// Strategy: a random directed graph as (n, edge list).
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as NodeId, 0..n as NodeId), 0..max_m).prop_map(
            move |edges| {
                GraphBuilder::new()
                    .with_num_nodes(n)
                    .with_edges(edges)
                    .build()
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // --- SimRank axioms (via power method) ---

    #[test]
    fn simrank_is_symmetric_bounded_and_reflexive(g in arb_graph(24, 80)) {
        let exact = power_method(&g, 0.6, 1e-10, 80);
        let n = g.num_nodes();
        for u in 0..n as NodeId {
            prop_assert_eq!(exact.get(u, u), 1.0);
            for v in 0..n as NodeId {
                let s = exact.get(u, v);
                prop_assert!((0.0..=1.0).contains(&s));
                prop_assert!((s - exact.get(v, u)).abs() < 1e-9);
            }
        }
    }

    // --- SimPush guarantee: one-sided ε bound under exact detection ---

    #[test]
    fn simpush_never_overestimates_and_meets_epsilon(
        g in arb_graph(20, 60),
        eps in 0.005f64..0.1,
    ) {
        let exact = power_method(&g, 0.6, 1e-10, 80);
        let engine = SimPush::new(Config::exact(eps));
        let u = 0 as NodeId;
        let result = engine.query(&g, u);
        for v in 0..g.num_nodes() {
            if v == u as usize { continue; }
            let diff = exact.get(u, v as NodeId) - result.scores[v];
            prop_assert!(diff >= -1e-9, "overestimate at v={}: {}", v, diff);
            prop_assert!(diff <= eps + 1e-9, "ε exceeded at v={}: {} > {}", v, diff, eps);
        }
    }

    // --- Graph substrate invariants ---

    #[test]
    fn csr_validates_and_round_trips_through_binary(g in arb_graph(40, 160)) {
        prop_assert!(g.validate().is_ok());
        let path = std::env::temp_dir()
            .join(format!("simrank-prop-invariants-{}.srgd", std::process::id()));
        write_disk_graph(&g, &path, DEFAULT_PAGE_SIZE).unwrap();
        let back = DiskGraph::open_mem(&path, DiskGraphOptions::default()).and_then(|d| d.to_csr());
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(back.unwrap(), g);
    }

    #[test]
    fn transpose_is_involutive_and_degree_swapping(g in arb_graph(30, 120)) {
        let t = g.transpose();
        for v in g.nodes() {
            prop_assert_eq!(g.in_degree(v), t.out_degree(v));
            prop_assert_eq!(g.out_degree(v), t.in_degree(v));
        }
        prop_assert_eq!(t.transpose(), g);
    }

    #[test]
    fn mutable_graph_matches_rebuilt_csr_after_random_ops(
        n in 3usize..20,
        ops in proptest::collection::vec((any::<bool>(), 0u32..20, 0u32..20), 0..60),
    ) {
        let mut live = MutableGraph::new(n);
        let mut reference: std::collections::BTreeSet<(NodeId, NodeId)> =
            std::collections::BTreeSet::new();
        for (insert, s, t) in ops {
            let (s, t) = (s % n as NodeId, t % n as NodeId);
            if s == t { continue; }
            if insert {
                live.insert_edge(s, t);
                reference.insert((s, t));
            } else {
                live.remove_edge(s, t);
                reference.remove(&(s, t));
            }
        }
        let edges: Vec<_> = reference.into_iter().collect();
        let want = CsrGraph::from_sorted_edges(n, &edges);
        prop_assert_eq!(live.snapshot(), want);
    }

    // --- Walk engine: estimates live in [0,1] and diagonal is 1 ---

    #[test]
    fn pairwise_mc_is_a_probability(g in arb_graph(16, 50), seed in any::<u64>()) {
        let est = pairwise_simrank_mc(&g, 0, 1, WalkParams::new(0.6), 300, seed);
        prop_assert!((0.0..=1.0).contains(&est));
        let diag = pairwise_simrank_mc(&g, 1, 1, WalkParams::new(0.6), 10, seed);
        prop_assert_eq!(diag, 1.0);
    }

    // --- Metrics axioms ---

    #[test]
    fn precision_bounds_and_perfect_match(
        ids in proptest::collection::btree_set(0u32..100, 1..20),
    ) {
        let truth: Vec<NodeId> = ids.iter().copied().collect();
        let k = truth.len();
        let p = simrank_suite::eval::metrics::precision_at_k(&truth, &truth, k);
        prop_assert_eq!(p, 1.0);
        let none: Vec<NodeId> = truth.iter().map(|v| v + 1000).collect();
        let p0 = simrank_suite::eval::metrics::precision_at_k(&truth, &none, k);
        prop_assert_eq!(p0, 0.0);
    }
}
