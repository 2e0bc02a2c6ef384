//! Pooled ground truth (paper §5.1).
//!
//! We follow the paper: pool the top-k candidates of every evaluated
//! method, estimate `s(u, v)` for each pooled `v` by high-sample pairwise
//! Monte-Carlo, and define the ground-truth top-k `Vk` as the best `k` of
//! the pool. Estimates are cached on disk keyed by
//! `(dataset, query, samples)` so repeated figure runs are cheap.

use simrank_common::{FxHashMap, FxHashSet, NodeId};
use simrank_graph::GraphView;
use simrank_walks::{pairwise_simrank_mc_parallel, WalkParams};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Ground truth for one query.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// The query node.
    pub query: NodeId,
    /// Ground-truth top-k `(node, s)` sorted by descending `s`.
    pub top_k: Vec<(NodeId, f64)>,
    /// All pooled values (superset of `top_k`).
    pub values: FxHashMap<NodeId, f64>,
}

/// Monte-Carlo pooled ground truth with disk cache.
///
/// `cache_dir = None` disables caching. `threads` parallelises the pairwise
/// sampling (ground truth is by far the most sample-hungry part of a figure
/// run).
#[allow(clippy::too_many_arguments)]
pub fn pooled_ground_truth<G: GraphView + Sync>(
    g: &G,
    dataset: &str,
    u: NodeId,
    pool: &FxHashSet<NodeId>,
    k: usize,
    samples: usize,
    seed: u64,
    threads: usize,
    cache_dir: Option<&Path>,
) -> GroundTruth {
    let cache_path = cache_dir.map(|d| cache_file(d, dataset, u, samples));
    let mut cached: FxHashMap<NodeId, f64> =
        cache_path.as_deref().map(load_cache).unwrap_or_default();

    let params = WalkParams::new(0.6);
    let mut fresh: Vec<(NodeId, f64)> = Vec::new();
    for &v in pool {
        if v == u || cached.contains_key(&v) {
            continue;
        }
        let pair_seed = seed ^ ((u as u64) << 32) ^ ((v as u64).rotate_left(17));
        let s = pairwise_simrank_mc_parallel(g, u, v, params, samples, pair_seed, threads);
        cached.insert(v, s);
        fresh.push((v, s));
    }
    if let (Some(path), false) = (cache_path.as_deref(), fresh.is_empty()) {
        append_cache(path, &fresh);
    }

    let values: FxHashMap<NodeId, f64> = pool
        .iter()
        .filter(|&&v| v != u)
        .filter_map(|&v| cached.get(&v).map(|&s| (v, s)))
        .collect();
    let top_k = select_top_k(&values, k);
    GroundTruth {
        query: u,
        top_k,
        values,
    }
}

fn select_top_k(values: &FxHashMap<NodeId, f64>, k: usize) -> Vec<(NodeId, f64)> {
    let mut entries: Vec<(NodeId, f64)> = values
        .iter()
        .filter(|&(_, &s)| s > 0.0)
        .map(|(&v, &s)| (v, s))
        .collect();
    entries.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    entries.truncate(k);
    entries
}

fn cache_file(dir: &Path, dataset: &str, u: NodeId, samples: usize) -> PathBuf {
    dir.join(dataset).join(format!("q{u}_s{samples}.txt"))
}

fn load_cache(path: &Path) -> FxHashMap<NodeId, f64> {
    let mut map = FxHashMap::default();
    let Ok(text) = std::fs::read_to_string(path) else {
        return map;
    };
    for line in text.lines() {
        let mut it = line.split_whitespace();
        if let (Some(v), Some(s)) = (it.next(), it.next()) {
            if let (Ok(v), Ok(s)) = (v.parse::<NodeId>(), s.parse::<f64>()) {
                map.insert(v, s);
            }
        }
    }
    map
}

fn append_cache(path: &Path, fresh: &[(NodeId, f64)]) {
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    else {
        return; // caching is best-effort
    };
    let mut buf = String::new();
    for &(v, s) in fresh {
        // Default f64 Display is the shortest exact round-trip form, so
        // cached values reload bit-identically.
        buf.push_str(&format!("{v} {s}\n"));
    }
    let _ = f.write_all(buf.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrank_graph::gen::shapes;

    #[test]
    fn pooled_matches_exact_within_noise() {
        let g = shapes::jeh_widom();
        let exact = simrank_baselines::power_method(&g, 0.6, 1e-12, 120).single_source(1);
        let pool: FxHashSet<NodeId> = [0, 2, 3, 4].into_iter().collect();
        let pooled = pooled_ground_truth(&g, "jw", 1, &pool, 4, 60_000, 5, 2, None);
        for (&v, &s) in &pooled.values {
            let e = exact[v as usize];
            assert!((s - e).abs() < 0.01, "v={v}: pooled {s} exact {e}");
        }
    }

    #[test]
    fn cache_round_trip() {
        let dir = std::env::temp_dir().join(format!("simrank-gt-test-{}", std::process::id()));
        let g = shapes::shared_parents();
        let pool: FxHashSet<NodeId> = [1, 2, 3].into_iter().collect();
        let a = pooled_ground_truth(&g, "sp", 0, &pool, 3, 20_000, 1, 1, Some(&dir));
        // Second call must read the cache (same values, even with a
        // different seed which would otherwise shift the estimates).
        let b = pooled_ground_truth(&g, "sp", 0, &pool, 3, 20_000, 999, 1, Some(&dir));
        assert_eq!(a.values, b.values);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pool_never_contains_query() {
        let g = shapes::shared_parents();
        let pool: FxHashSet<NodeId> = [0, 1].into_iter().collect();
        let gt = pooled_ground_truth(&g, "sp2", 0, &pool, 2, 10_000, 3, 1, None);
        assert!(!gt.values.contains_key(&0));
    }
}
