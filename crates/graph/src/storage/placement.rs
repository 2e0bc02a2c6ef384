//! Segment placement and tier observability counters.
//!
//! An `SRGD` file holds four segments (out/in offsets and elements). Under
//! a RAM byte budget, [`plan_placement`] decides which of them to pin
//! fully in memory at open and which to leave on the storage tier behind
//! the page cache, by one rule: offsets before elements (resolving any
//! neighbour list reads two offset words, but element bytes only of the
//! list asked for), out before in, each segment pinned if it still fits.
//! With a budget of a quarter of the file, that is the intuitive layout:
//! index in RAM, data on disk.

use std::sync::atomic::{AtomicU64, Ordering};

/// The four segments of an `SRGD` file, in on-disk order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SegmentId {
    /// CSR out-offset array, `(n + 1) × u64`.
    OutOffsets,
    /// CSR out-target array, `m × u32`.
    OutTargets,
    /// CSR in-offset array, `(n + 1) × u64`.
    InOffsets,
    /// CSR in-source array, `m × u32`.
    InSources,
}

impl SegmentId {
    /// All segments in on-disk order.
    pub const ALL: [SegmentId; 4] = [
        SegmentId::OutOffsets,
        SegmentId::OutTargets,
        SegmentId::InOffsets,
        SegmentId::InSources,
    ];

    /// Stable lower-case name used in stats, logs and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            SegmentId::OutOffsets => "out_offsets",
            SegmentId::OutTargets => "out_targets",
            SegmentId::InOffsets => "in_offsets",
            SegmentId::InSources => "in_sources",
        }
    }
}

/// What [`plan_placement`] decided for one segment.
#[derive(Debug, Clone)]
pub struct SegmentPlacement {
    /// Which segment.
    pub segment: SegmentId,
    /// Exact segment payload size in bytes (excluding page padding).
    pub bytes: u64,
    /// True if the segment is decoded fully into RAM at open.
    pub pinned: bool,
}

/// The placement decision for a whole file under one budget.
#[derive(Debug, Clone)]
pub struct PlacementReport {
    /// The RAM budget the plan was computed against, in bytes.
    pub budget_bytes: u64,
    /// Total bytes of segments chosen for pinning (≤ `budget_bytes`).
    pub pinned_bytes: u64,
    /// Per-segment decisions, in on-disk segment order.
    pub entries: Vec<SegmentPlacement>,
}

impl PlacementReport {
    /// True if `segment` was chosen for pinning.
    pub fn is_pinned(&self, segment: SegmentId) -> bool {
        self.entries
            .iter()
            .any(|e| e.segment == segment && e.pinned)
    }

    /// How many of the four segments are pinned.
    pub fn pinned_segments(&self) -> usize {
        self.entries.iter().filter(|e| e.pinned).count()
    }
}

/// Decides which segments to pin in RAM: out-offsets, in-offsets,
/// out-targets, in-sources, in that order, each one if it still fits in
/// what is left of `budget_bytes`. `seg_bytes` are the exact payload
/// sizes in [`SegmentId::ALL`] order.
pub fn plan_placement(seg_bytes: [u64; 4], budget_bytes: u64) -> PlacementReport {
    let mut entries: Vec<SegmentPlacement> = SegmentId::ALL
        .iter()
        .zip(seg_bytes)
        .map(|(&segment, bytes)| SegmentPlacement {
            segment,
            bytes,
            pinned: false,
        })
        .collect();
    let mut pinned_bytes = 0u64;
    for segment in [
        SegmentId::OutOffsets,
        SegmentId::InOffsets,
        SegmentId::OutTargets,
        SegmentId::InSources,
    ] {
        // `SegmentId` discriminants are the on-disk order of `entries`.
        let e = &mut entries[segment as usize];
        if pinned_bytes.saturating_add(e.bytes) <= budget_bytes {
            e.pinned = true;
            pinned_bytes += e.bytes;
        }
    }
    PlacementReport {
        budget_bytes,
        pinned_bytes,
        entries,
    }
}

/// Shared atomic counters behind a [`DiskGraph`](super::DiskGraph)'s read
/// path. All increments and loads are relaxed: these are advisory
/// observability counters — nothing synchronises on them, and a snapshot
/// taken during concurrent reads is allowed to be approximate.
#[derive(Debug, Default)]
pub(crate) struct TierCounters {
    pub(crate) pinned_reads: AtomicU64,
    pub(crate) page_hits: AtomicU64,
    pub(crate) page_faults: AtomicU64,
    pub(crate) spill_hits: AtomicU64,
    pub(crate) adaptor_reads: AtomicU64,
    pub(crate) adaptor_bytes: AtomicU64,
}

impl TierCounters {
    #[inline]
    pub(crate) fn bump(counter: &AtomicU64) {
        // relaxed: advisory observability counter — no ordering, nothing
        // reads it to synchronise (see the struct docs).
        counter.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add(counter: &AtomicU64, v: u64) {
        // relaxed: advisory observability counter — as in `bump`.
        counter.fetch_add(v, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> TierStats {
        // relaxed: the six loads need not be mutually consistent; stats
        // sampled mid-read are documented as approximate.
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        TierStats {
            pinned_reads: load(&self.pinned_reads),
            page_hits: load(&self.page_hits),
            page_faults: load(&self.page_faults),
            spill_hits: load(&self.spill_hits),
            adaptor_reads: load(&self.adaptor_reads),
            adaptor_bytes: load(&self.adaptor_bytes),
        }
    }
}

/// A point-in-time snapshot of a disk graph's tier counters.
///
/// Counts cover query-path activity only — the open-time validation and
/// pinning streams are not included, so a freshly opened graph reads all
/// zeros and `cold − warm` deltas measure exactly the page-cache effect.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Reads answered from a pinned (RAM-resident) segment.
    pub pinned_reads: u64,
    /// Reads answered from an already-faulted cached page.
    pub page_hits: u64,
    /// Pages decoded from the adaptor on first touch.
    pub page_faults: u64,
    /// Neighbour lists answered from the spill table (lists spanning a
    /// page boundary, materialised at open).
    pub spill_hits: u64,
    /// `read_at` calls issued to the adaptor by page faults.
    pub adaptor_reads: u64,
    /// Bytes requested from the adaptor by page faults.
    pub adaptor_bytes: u64,
}

impl TierStats {
    /// Counter-wise difference `self − earlier` (saturating), for
    /// before/after measurements around a query batch.
    pub fn delta_since(&self, earlier: &TierStats) -> TierStats {
        TierStats {
            pinned_reads: self.pinned_reads.saturating_sub(earlier.pinned_reads),
            page_hits: self.page_hits.saturating_sub(earlier.page_hits),
            page_faults: self.page_faults.saturating_sub(earlier.page_faults),
            spill_hits: self.spill_hits.saturating_sub(earlier.spill_hits),
            adaptor_reads: self.adaptor_reads.saturating_sub(earlier.adaptor_reads),
            adaptor_bytes: self.adaptor_bytes.saturating_sub(earlier.adaptor_bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_budget_pins_nothing() {
        let plan = plan_placement([800, 40_000, 800, 40_000], 0);
        assert_eq!(plan.pinned_segments(), 0);
        assert_eq!(plan.pinned_bytes, 0);
    }

    #[test]
    fn unlimited_budget_pins_everything() {
        let plan = plan_placement([800, 40_000, 800, 40_000], u64::MAX);
        assert_eq!(plan.pinned_segments(), 4);
        assert_eq!(plan.pinned_bytes, 81_600);
    }

    #[test]
    fn tight_budget_prefers_offset_segments() {
        // Budget fits both offset arrays but neither element array.
        let plan = plan_placement([800, 40_000, 800, 40_000], 2_000);
        assert!(plan.is_pinned(SegmentId::OutOffsets));
        assert!(plan.is_pinned(SegmentId::InOffsets));
        assert!(!plan.is_pinned(SegmentId::OutTargets));
        assert!(!plan.is_pinned(SegmentId::InSources));
        assert_eq!(plan.pinned_bytes, 1_600);
    }

    #[test]
    fn budget_spills_over_to_element_segments_in_disk_order() {
        let plan = plan_placement([800, 40_000, 800, 40_000], 45_000);
        assert!(plan.is_pinned(SegmentId::OutOffsets));
        assert!(plan.is_pinned(SegmentId::InOffsets));
        assert!(
            plan.is_pinned(SegmentId::OutTargets),
            "out-targets are offered the budget before in-sources"
        );
        assert!(!plan.is_pinned(SegmentId::InSources));
    }

    #[test]
    fn a_segment_that_does_not_fit_is_skipped_not_a_stop() {
        let plan = plan_placement([800, 40_000, 800, 300], 2_000);
        assert!(!plan.is_pinned(SegmentId::OutTargets));
        assert!(plan.is_pinned(SegmentId::InSources));
        assert_eq!(plan.pinned_bytes, 1_900);
    }

    #[test]
    fn report_entries_stay_in_disk_order() {
        let plan = plan_placement([1, 2, 3, 4], u64::MAX);
        let order: Vec<SegmentId> = plan.entries.iter().map(|e| e.segment).collect();
        assert_eq!(order, SegmentId::ALL);
    }

    #[test]
    fn tier_stats_delta() {
        let a = TierStats {
            pinned_reads: 10,
            page_hits: 5,
            page_faults: 2,
            spill_hits: 1,
            adaptor_reads: 2,
            adaptor_bytes: 8192,
        };
        let b = TierStats {
            pinned_reads: 15,
            page_hits: 9,
            page_faults: 2,
            spill_hits: 1,
            adaptor_reads: 2,
            adaptor_bytes: 8192,
        };
        let d = b.delta_since(&a);
        assert_eq!(d.pinned_reads, 5);
        assert_eq!(d.page_hits, 4);
        assert_eq!(d.page_faults, 0);
        assert_eq!(TierStats::default().delta_since(&b).page_hits, 0);
    }

    #[test]
    fn counters_snapshot_round_trips() {
        let c = TierCounters::default();
        TierCounters::bump(&c.page_faults);
        TierCounters::bump(&c.page_faults);
        TierCounters::add(&c.adaptor_bytes, 4096);
        let s = c.snapshot();
        assert_eq!(s.page_faults, 2);
        assert_eq!(s.adaptor_bytes, 4096);
        assert_eq!(s.pinned_reads, 0);
    }
}
