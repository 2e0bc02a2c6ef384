//! The nine synthetic benchmark datasets (stand-ins for paper Table 4).
//!
//! Every dataset is deterministic (fixed seed), scaled from the paper's
//! graphs by roughly 100–1000× (each [`DatasetSpec`] names the graph it
//! substitutes for and `docs/REPRODUCING.md` says what the substitution
//! preserves), and cached under a data directory as a checksummed `SRGD`
//! file so figure runs pay generation cost once.
//!
//! Scaling: set `SIMRANK_SCALE` (default 1.0) to shrink/grow every dataset
//! uniformly — e.g. `SIMRANK_SCALE=0.1` for a quick smoke run of all
//! figures.

use simrank_common::NodeId;
use simrank_graph::gen::{self, RmatParams};
use simrank_graph::storage::{write_disk_graph, DEFAULT_PAGE_SIZE};
use simrank_graph::{CsrGraph, DiskGraph, DiskGraphOptions, GraphView};
use std::path::{Path, PathBuf};

/// How a dataset is generated.
#[derive(Debug, Clone)]
pub enum DatasetKind {
    /// Copying-model web graph.
    Web {
        /// Number of pages.
        n: usize,
        /// Out-links per page.
        k: usize,
        /// Probability of copying a prototype link.
        copy_prob: f64,
    },
    /// R-MAT social graph.
    Social {
        /// `n = 2^scale` nodes.
        scale: u32,
        /// Number of edges.
        m: usize,
        /// Quadrant probabilities.
        params: RmatParams,
    },
    /// Undirected Chung-Lu power-law graph, symmetrised.
    Collab {
        /// Number of nodes.
        n: usize,
        /// Undirected edge pairs (directed edge count is double).
        pairs: usize,
        /// Power-law exponent.
        exponent: f64,
    },
    /// Directed Barabási–Albert preferential attachment.
    Citation {
        /// Number of nodes.
        n: usize,
        /// Edges attached per arriving node.
        k: usize,
    },
}

/// A named dataset specification.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Short name used in file paths and reports (e.g. `"uk-sim"`).
    pub name: &'static str,
    /// The paper dataset it stands in for (e.g. `"UK (133.6M, 5.5B)"`).
    pub paper_name: &'static str,
    /// Directed or symmetrised-undirected, as in Table 4.
    pub directed: bool,
    /// Generator recipe.
    pub kind: DatasetKind,
    /// Generation seed.
    pub seed: u64,
    /// True for the five "large" datasets (drives the paper's method
    /// exclusion rules at benchmark time).
    pub large: bool,
}

impl DatasetSpec {
    /// Generates the graph (no caching).
    pub fn generate(&self) -> CsrGraph {
        match &self.kind {
            DatasetKind::Web { n, k, copy_prob } => gen::copying_web(*n, *k, *copy_prob, self.seed),
            DatasetKind::Social { scale, m, params } => gen::rmat(*scale, *m, *params, self.seed),
            DatasetKind::Collab { n, pairs, exponent } => {
                gen::chung_lu_undirected(*n, *pairs, *exponent, self.seed)
            }
            DatasetKind::Citation { n, k } => gen::barabasi_albert(*n, *k, false, self.seed),
        }
    }

    /// Loads the graph from `dir`, generating and caching it on first use.
    ///
    /// The cache is `<name>.srgd`. It is served only if it opens (every
    /// segment checksum and bound holds) and its copy into RAM validates;
    /// any other file is regenerated and rewritten.
    pub fn load_or_generate(&self, dir: &Path) -> CsrGraph {
        let path = dir.join(format!("{}.srgd", self.name));
        let cached = DiskGraph::open_fs(&path, DiskGraphOptions::fully_pinned())
            .and_then(|disk| disk.to_csr());
        if let Ok(g) = cached {
            return g;
        }
        let g = self.generate();
        if let Err(e) = write_disk_graph(&g, &path, DEFAULT_PAGE_SIZE) {
            eprintln!("warning: could not cache dataset {}: {e}", self.name);
        }
        g
    }
}

/// Scale factor from `SIMRANK_SCALE` (default 1.0, clamped to a sane range).
pub fn env_scale() -> f64 {
    std::env::var("SIMRANK_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(1.0)
        .clamp(0.01, 10.0)
}

/// Default dataset cache directory (`$SIMRANK_DATA_DIR` or
/// `target/datasets/scale-<s>`).
pub fn default_data_dir() -> PathBuf {
    if let Ok(d) = std::env::var("SIMRANK_DATA_DIR") {
        return PathBuf::from(d);
    }
    PathBuf::from("target/datasets").join(format!("scale-{}", env_scale()))
}

fn sz(base: usize, scale: f64) -> usize {
    ((base as f64 * scale) as usize).max(64)
}

/// R-MAT scale exponent for ~`n` nodes.
fn rmat_scale(n: usize) -> u32 {
    (usize::BITS - n.next_power_of_two().leading_zeros() - 1).max(6)
}

/// The nine-dataset registry mirroring paper Table 4, scaled by `scale`
/// (1.0 = the sizes `table4` prints).
pub fn registry_scaled(scale: f64) -> Vec<DatasetSpec> {
    vec![
        DatasetSpec {
            name: "in2004-sim",
            paper_name: "In-2004 (1.4M, 16.5M) web",
            directed: true,
            kind: DatasetKind::Web {
                n: sz(40_000, scale),
                k: 12,
                copy_prob: 0.7,
            },
            seed: 0xA001,
            large: false,
        },
        DatasetSpec {
            name: "dblp-sim",
            paper_name: "DBLP (5.4M, 17.3M) collab",
            directed: false,
            kind: DatasetKind::Collab {
                n: sz(60_000, scale),
                pairs: sz(270_000, scale),
                exponent: 2.6,
            },
            seed: 0xA002,
            large: false,
        },
        DatasetSpec {
            name: "pokec-sim",
            paper_name: "Pokec (1.6M, 30.6M) social",
            directed: true,
            kind: DatasetKind::Social {
                scale: rmat_scale(sz(50_000, scale)),
                m: sz(950_000, scale),
                params: RmatParams::social(),
            },
            seed: 0xA003,
            large: false,
        },
        DatasetSpec {
            name: "livejournal-sim",
            paper_name: "LiveJournal (4.8M, 68.5M) social",
            directed: true,
            kind: DatasetKind::Citation {
                n: sz(70_000, scale),
                k: 14,
            },
            seed: 0xA004,
            large: false,
        },
        DatasetSpec {
            name: "it2004-sim",
            paper_name: "IT-2004 (41M, 1.14B) web",
            directed: true,
            kind: DatasetKind::Web {
                n: sz(200_000, scale),
                k: 12,
                copy_prob: 0.75,
            },
            seed: 0xA005,
            large: true,
        },
        DatasetSpec {
            name: "twitter-sim",
            paper_name: "Twitter (41.7M, 1.47B) social (locally dense)",
            directed: true,
            kind: DatasetKind::Social {
                scale: rmat_scale(sz(220_000, scale)),
                m: sz(2_600_000, scale),
                params: RmatParams::high_skew(),
            },
            seed: 0xA006,
            large: true,
        },
        DatasetSpec {
            name: "friendster-sim",
            paper_name: "Friendster (65.6M, 3.6B) social",
            directed: false,
            kind: DatasetKind::Collab {
                n: sz(300_000, scale),
                pairs: sz(1_600_000, scale),
                exponent: 2.4,
            },
            seed: 0xA007,
            large: true,
        },
        DatasetSpec {
            name: "uk-sim",
            paper_name: "UK (133.6M, 5.5B) web",
            directed: true,
            kind: DatasetKind::Web {
                n: sz(400_000, scale),
                k: 11,
                copy_prob: 0.75,
            },
            seed: 0xA008,
            large: true,
        },
        DatasetSpec {
            name: "clueweb-sim",
            paper_name: "ClueWeb (1.68B, 7.9B) web",
            directed: true,
            kind: DatasetKind::Web {
                n: sz(600_000, scale),
                k: 9,
                copy_prob: 0.8,
            },
            seed: 0xA009,
            large: true,
        },
    ]
}

/// Registry at the `SIMRANK_SCALE` environment scale.
pub fn registry() -> Vec<DatasetSpec> {
    registry_scaled(env_scale())
}

/// Uniform-random query nodes (the paper samples 100 per dataset; figure
/// binaries default to fewer, overridable via `SIMRANK_QUERIES`).
pub fn query_nodes(g: &CsrGraph, count: usize, seed: u64) -> Vec<NodeId> {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = g.num_nodes();
    assert!(n > 0, "cannot draw queries from an empty graph");
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(rng.gen_range(0..n) as NodeId);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_nine_named_datasets() {
        let reg = registry_scaled(0.05);
        assert_eq!(reg.len(), 9);
        let names: Vec<_> = reg.iter().map(|d| d.name).collect();
        assert!(names.contains(&"uk-sim") && names.contains(&"clueweb-sim"));
        assert_eq!(reg.iter().filter(|d| d.large).count(), 5);
    }

    #[test]
    fn small_scale_generation_works_for_every_dataset() {
        for spec in registry_scaled(0.02) {
            let g = spec.generate();
            assert!(g.num_nodes() >= 64, "{}: n = {}", spec.name, g.num_nodes());
            assert!(g.num_edges() > 0, "{}", spec.name);
            assert!(g.validate().is_ok(), "{}", spec.name);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = &registry_scaled(0.02)[0];
        assert_eq!(spec.generate(), spec.generate());
    }

    #[test]
    fn undirected_datasets_are_symmetric() {
        let reg = registry_scaled(0.02);
        let dblp = reg.iter().find(|d| d.name == "dblp-sim").unwrap();
        assert!(!dblp.directed);
        let g = dblp.generate();
        for (s, t) in g.edges().take(500) {
            assert!(g.has_edge(t, s));
        }
    }

    #[test]
    fn cache_round_trip() {
        let dir = std::env::temp_dir().join(format!("simrank-ds-test-{}", std::process::id()));
        let spec = &registry_scaled(0.02)[0];
        let want = spec.generate();
        let path = dir.join(format!("{}.srgd", spec.name));
        assert_eq!(spec.load_or_generate(&dir), want);
        let written = std::fs::read(&path).unwrap();
        assert_eq!(spec.load_or_generate(&dir), want, "second call hits cache");

        // A flipped element byte fails its segment checksum, and a cut file
        // its geometry: either is regenerated and rewritten, never served.
        let mut flipped = written.clone();
        let out_targets = u64::from_le_bytes(written[56..64].try_into().unwrap()) as usize;
        flipped[out_targets] ^= 0x01;
        let truncated = written[..written.len() / 2].to_vec();
        for (bad, what) in [(flipped, "flipped byte"), (truncated, "truncated")] {
            std::fs::write(&path, &bad).unwrap();
            assert_eq!(spec.load_or_generate(&dir), want, "{what}");
            assert!(
                std::fs::read(&path).unwrap() == written,
                "{what}: rewritten"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_nodes_in_range_and_deterministic() {
        let g = simrank_graph::gen::gnm(50, 200, 1);
        let q1 = query_nodes(&g, 10, 7);
        let q2 = query_nodes(&g, 10, 7);
        assert_eq!(q1, q2);
        assert!(q1.iter().all(|&u| (u as usize) < 50));
    }
}
