//! Property tests for the out-of-core storage tier: an `SRGD` file opened
//! through **any** adaptor backend at **any** pin budget must present
//! exactly the graph it was written from — every adjacency list
//! bit-identical, and SimPush answers bit-identical — and a disk-backed
//! [`GraphStore`] must stay equivalent to a RAM-backed one through
//! updates, publishes and compaction.
//!
//! The page size is pinned to the minimum (256 bytes) so that even the
//! small random graphs here exercise multi-page segments and
//! boundary-spanning neighbour lists (the spill-table path).

use proptest::prelude::*;
use simpush::{Config, SimPush};
use simrank_suite::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use simrank_suite::graph::io::IoError;
use simrank_suite::graph::storage::{write_disk_graph, SegmentId};
use simrank_suite::graph::{DiskGraph, DiskGraphOptions};

/// Strategy: a random directed base graph as a built CSR.
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

/// A fresh file path per case so parallel test binaries and successive
/// cases never collide.
fn scratch_file() -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "simrank-prop-disk-{}-{id}.srgd",
        std::process::id()
    ))
}

fn assert_same_graph(disk: &DiskGraph, want: &CsrGraph, label: &str) {
    assert_eq!(disk.num_nodes(), want.num_nodes(), "{label}: n");
    assert_eq!(disk.num_edges(), want.num_edges(), "{label}: m");
    for v in 0..want.num_nodes() as NodeId {
        assert_eq!(
            disk.out_neighbors(v),
            want.out_neighbors(v),
            "{label}: out-neighbours of {v}"
        );
        assert_eq!(
            disk.in_neighbors(v),
            want.in_neighbors(v),
            "{label}: in-neighbours of {v}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Round trip through every backend × budget combination: adjacency and
    // SimPush answers must be bit-identical to the source CSR.
    #[test]
    fn every_backend_and_budget_is_bit_identical(
        g in arb_graph(40, 200),
        eps in 0.02f64..0.1,
    ) {
        let path = scratch_file();
        write_disk_graph(&g, &path, 256).unwrap();
        // A mid-range budget that pins some segments but (for non-trivial
        // graphs) not all of them.
        let partial = (g.num_nodes() as u64 + 1) * 8 + g.num_edges() as u64 * 2;
        let engine = SimPush::new(Config::new(eps));
        let probes: Vec<NodeId> =
            vec![0, (g.num_nodes() / 2) as NodeId, (g.num_nodes() - 1) as NodeId];
        for budget in [0u64, partial, u64::MAX] {
            let opts = DiskGraphOptions::with_budget(budget);
            for (disk, backend) in [
                (DiskGraph::open_mem(&path, opts).unwrap(), "mem"),
                (DiskGraph::open_fs(&path, opts).unwrap(), "fs"),
                (DiskGraph::open_mmap(&path, opts).unwrap(), "mmap"),
            ] {
                let label = format!("{backend}/budget={budget}");
                assert_same_graph(&disk, &g, &label);
                for &u in &probes {
                    let on_disk = engine.query_seeded(&disk, u);
                    let on_ram = engine.query_seeded(&g, u);
                    prop_assert_eq!(
                        on_disk.scores,
                        on_ram.scores,
                        "{}: SimPush scores diverged at u={}",
                        &label,
                        u
                    );
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    // A disk-backed GraphStore must stay equivalent to a RAM-backed one
    // through the same update/publish/compaction sequence. Beside them, an
    // overlay straight over the disk base, never compacted, must rebuild()
    // to the MutableGraph replica: clean, at every publish, and with the
    // lists of nodes 0 and n − 1 touched first.
    #[test]
    fn disk_backed_store_tracks_ram_backed_store(
        base in arb_graph(24, 80),
        ops in proptest::collection::vec((0u8..4, 0usize..10_000, 0usize..10_000), 0..40),
        threshold in 1usize..10,
    ) {
        let path = scratch_file();
        write_disk_graph(&base, &path, 256).unwrap();
        let disk = DiskGraph::open_mem(&path, DiskGraphOptions::default()).unwrap();
        let disk_store = GraphStore::open_disk_with_threshold(disk, threshold);
        let ram_store = GraphStore::with_compaction_threshold(base.clone(), threshold);
        let disk = DiskGraph::open_mem(&path, DiskGraphOptions::default()).unwrap();
        let mut overlay = DeltaOverlay::new(std::sync::Arc::new(GraphBase::Disk(disk)));
        let mut replica = MutableGraph::from_csr(&base);
        prop_assert_eq!(&overlay.rebuild(), &base, "clean overlay over disk");
        let n = base.num_nodes();
        // Toggle the edges between the first and the last node.
        let toggle = |s: usize, t: usize| {
            let present = base.has_edge(s as NodeId, t as NodeId);
            (if present { 2 } else { 0 }, s, t)
        };
        let ends = [toggle(0, n - 1), toggle(n - 1, 0)];
        for (kind, a, b) in ends.into_iter().chain(ops) {
            let (s, t) = ((a % n) as NodeId, (b % n) as NodeId);
            match kind {
                0 | 1 => {
                    let x = disk_store.insert_edge(s, t);
                    let y = ram_store.insert_edge(s, t);
                    prop_assert_eq!(x, y, "insert ({}, {}) diverged", s, t);
                    prop_assert_eq!(overlay.insert_edge(s, t), replica.insert_edge(s, t));
                }
                2 => {
                    let x = disk_store.remove_edge(s, t);
                    let y = ram_store.remove_edge(s, t);
                    prop_assert_eq!(x, y, "remove ({}, {}) diverged", s, t);
                    prop_assert_eq!(overlay.remove_edge(s, t), replica.remove_edge(s, t));
                }
                _ => {
                    let x = disk_store.publish();
                    let y = ram_store.publish();
                    prop_assert_eq!(x.epoch, y.epoch);
                    prop_assert_eq!(x.compacted, y.compacted);
                    prop_assert_eq!(x.touched, y.touched);
                    prop_assert_eq!(&overlay.rebuild(), &replica.snapshot());
                }
            }
        }
        disk_store.publish();
        ram_store.publish();
        let d = disk_store.snapshot();
        let r = ram_store.snapshot();
        prop_assert_eq!(d.epoch(), r.epoch());
        let dc = d.to_csr();
        prop_assert_eq!(&dc, &r.to_csr());
        prop_assert!(dc.validate().is_ok());
        let want = replica.snapshot();
        prop_assert_eq!(&dc, &want);
        let rebuilt = overlay.rebuild();
        prop_assert!(rebuilt.validate().is_ok());
        prop_assert_eq!(&rebuilt, &want);
        let _ = std::fs::remove_file(&path);
    }
}

/// Little-endian `u64` at byte `at` of an `SRGD` superblock.
fn header_u64(bytes: &[u8], at: usize) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(a)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // One flipped bit anywhere inside any segment is caught by that
    // segment's checksum at open: a typed `Format` error naming the
    // segment — never a clean open, a panic, or a structural or id-bounds
    // diagnosis of the corrupt bytes.
    #[test]
    fn a_flipped_segment_bit_fails_that_segments_checksum(
        g in arb_graph(40, 200),
        pick in any::<usize>(),
        pos in any::<u64>(),
        bit in 0u32..8,
    ) {
        let path = scratch_file();
        write_disk_graph(&g, &path, 256).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Descriptor i sits at 32 + 24 i: { offset u64, len u64, checksum u64 }.
        let nonempty: Vec<usize> = (0..4)
            .filter(|&i| header_u64(&bytes, 32 + 24 * i + 8) > 0)
            .collect();
        let seg = nonempty[pick % nonempty.len()];
        let offset = header_u64(&bytes, 32 + 24 * seg);
        let len = header_u64(&bytes, 32 + 24 * seg + 8);
        bytes[(offset + pos % len) as usize] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();
        let opened = DiskGraph::open_fs(&path, DiskGraphOptions::default());
        let _ = std::fs::remove_file(&path);
        let want = format!("{} checksum mismatch", SegmentId::ALL[seg].name());
        match opened {
            Err(IoError::Format(msg)) => {
                prop_assert!(msg.contains(&want), "{:?} lacks {:?}", msg, want)
            }
            Err(e) => prop_assert!(false, "wanted a Format error {:?}, got {}", want, e),
            Ok(_) => prop_assert!(false, "a corrupt file opened (wanted {:?})", want),
        }
    }
}

/// The spill path specifically: a star whose hub list is much larger than
/// a page must round-trip through every backend with zero pinning.
#[test]
fn page_spanning_hub_round_trips_unpinned() {
    let hub_degree = 500;
    let edges: Vec<(NodeId, NodeId)> = (0..hub_degree).map(|t| (0, t + 1)).collect();
    let g = GraphBuilder::new()
        .with_num_nodes(hub_degree as usize + 1)
        .with_edges(edges)
        .build();
    let path = scratch_file();
    write_disk_graph(&g, &path, 256).unwrap();
    let opts = DiskGraphOptions::default();
    for (disk, backend) in [
        (DiskGraph::open_mem(&path, opts).unwrap(), "mem"),
        (DiskGraph::open_fs(&path, opts).unwrap(), "fs"),
        (DiskGraph::open_mmap(&path, opts).unwrap(), "mmap"),
    ] {
        assert_same_graph(&disk, &g, backend);
        assert!(
            disk.stats().spill_hits > 0,
            "{backend}: the hub list must be served from the spill table"
        );
    }
    let _ = std::fs::remove_file(&path);
}
