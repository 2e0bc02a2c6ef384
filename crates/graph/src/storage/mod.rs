//! Out-of-core storage tier: on-disk CSR graphs served through [`GraphView`].
//!
//! Everything else in this workspace assumes the graph fits in RAM.
//! "Web-scale" does not: the paper's motivating graphs have CSR footprints
//! past commodity memory, so this module adds a storage tier the query path
//! can read *through* without deserialising the whole file:
//!
//! * [`Adaptor`] — byte-level read-at-offset access to a storage device.
//!   Three backends: [`MemAdaptor`] (heap), [`FsAdaptor`] (buffered positional
//!   file reads), [`MmapAdaptor`] (demand-paged mapping).
//! * [`disk`] — the `SRGD` on-disk CSR layout: a checksummed superblock,
//!   four page-aligned segments (out/in offsets and elements), per-segment
//!   XXH64 checksums, and [`DiskGraph`], which implements [`GraphView`] by
//!   faulting fixed-size pages in on demand, so SimPush and the walk
//!   engines run on it unchanged.
//! * [`placement`] — the one rule deciding which segments to pin fully in
//!   RAM under a byte budget, plus tier/page-fault counters
//!   ([`TierStats`]) for observability.
//!
//! The full layout, failure-mode, and placement story lives in
//! `docs/STORAGE.md`. `SRGD` is the workspace's one binary graph format:
//! the dataset registry caches its graphs in it too.
//!
//! [`GraphView`]: crate::view::GraphView

pub mod adaptor;
pub mod disk;
pub mod placement;

pub use adaptor::{Adaptor, FsAdaptor, MemAdaptor, MmapAdaptor};
pub use disk::{
    write_disk_graph, DiskGraph, DiskGraphOptions, DEFAULT_PAGE_SIZE, MAX_PAGE_SIZE, MIN_PAGE_SIZE,
};
pub use placement::{PlacementReport, SegmentId, SegmentPlacement, TierStats};

/// Streaming XXH64 (seed 0) — the integrity primitive of the `SRGD`
/// format (superblock and per-segment checksums).
///
/// XXH64 is not cryptographic; it defends against torn writes, truncation
/// and bit rot, not adversaries. It is chosen for speed: four independent
/// 64-bit lanes each fold one word of every 32-byte stripe, so the
/// multiplies of a stripe overlap instead of forming one dependent chain
/// per byte. It streams, so the writer computes it while emitting
/// segments and the reader while validating them, in one pass each; any
/// chunking of the input gives the same digest.
#[derive(Debug, Clone)]
pub struct Xxh64 {
    /// The four lane accumulators.
    lanes: [u64; 4],
    /// Bytes folded in so far.
    total: u64,
    /// Tail of the input not yet forming a whole stripe:
    /// `pending[..pending_len]`.
    pending: [u8; 32],
    pending_len: usize,
}

impl Xxh64 {
    const P1: u64 = 0x9e37_79b1_85eb_ca87;
    const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    const P3: u64 = 0x1656_67b1_9e37_79f9;
    const P4: u64 = 0x85eb_ca77_c2b2_ae63;
    const P5: u64 = 0x27d4_eb2f_1656_67c5;

    /// Starts a fresh checksum with seed 0.
    pub fn new() -> Self {
        Self {
            lanes: [
                Self::P1.wrapping_add(Self::P2),
                Self::P2,
                0,
                Self::P1.wrapping_neg(),
            ],
            total: 0,
            pending: [0; 32],
            pending_len: 0,
        }
    }

    fn round(acc: u64, word: u64) -> u64 {
        acc.wrapping_add(word.wrapping_mul(Self::P2))
            .rotate_left(31)
            .wrapping_mul(Self::P1)
    }

    fn merge(acc: u64, lane: u64) -> u64 {
        (acc ^ Self::round(0, lane))
            .wrapping_mul(Self::P1)
            .wrapping_add(Self::P4)
    }

    fn word(bytes: &[u8]) -> u64 {
        let mut a = [0u8; 8];
        a.copy_from_slice(&bytes[..8]);
        u64::from_le_bytes(a)
    }

    fn stripe(lanes: &mut [u64; 4], stripe: &[u8]) {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = Self::round(*lane, Self::word(&stripe[i * 8..]));
        }
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = bytes.len().min(32 - self.pending_len);
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < 32 {
                return;
            }
            let stripe = self.pending;
            Self::stripe(&mut self.lanes, &stripe);
            self.pending_len = 0;
        }
        let mut stripes = bytes.chunks_exact(32);
        // Lanes copied to a local stay in registers across the hot loop.
        let mut lanes = self.lanes;
        for stripe in &mut stripes {
            Self::stripe(&mut lanes, stripe);
        }
        self.lanes = lanes;
        let rest = stripes.remainder();
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    /// The checksum of everything folded in so far.
    pub fn finish(&self) -> u64 {
        let [v1, v2, v3, v4] = self.lanes;
        let mut h = if self.total >= 32 {
            let h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            self.lanes.iter().fold(h, |h, &v| Self::merge(h, v))
        } else {
            Self::P5
        };
        h = h.wrapping_add(self.total);
        let mut tail = &self.pending[..self.pending_len];
        while tail.len() >= 8 {
            h ^= Self::round(0, Self::word(tail));
            h = h
                .rotate_left(27)
                .wrapping_mul(Self::P1)
                .wrapping_add(Self::P4);
            tail = &tail[8..];
        }
        if tail.len() >= 4 {
            let mut a = [0u8; 4];
            a.copy_from_slice(&tail[..4]);
            h ^= u64::from(u32::from_le_bytes(a)).wrapping_mul(Self::P1);
            h = h
                .rotate_left(23)
                .wrapping_mul(Self::P2)
                .wrapping_add(Self::P3);
            tail = &tail[4..];
        }
        for &b in tail {
            h ^= u64::from(b).wrapping_mul(Self::P5);
            h = h.rotate_left(11).wrapping_mul(Self::P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(Self::P2);
        h ^= h >> 29;
        h = h.wrapping_mul(Self::P3);
        h ^ (h >> 32)
    }

    /// One-shot convenience: checksum of a single byte slice.
    pub fn digest(bytes: &[u8]) -> u64 {
        let mut x = Self::new();
        x.update(bytes);
        x.finish()
    }
}

impl Default for Xxh64 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::Xxh64;

    #[test]
    fn matches_reference_vectors() {
        // Published XXH64 test vectors, seed 0.
        assert_eq!(Xxh64::digest(b""), 0xef46_db37_51d8_e999);
        assert_eq!(Xxh64::digest(b"abc"), 0x44bc_2cf5_ad77_0999);
        // 39 bytes: one whole stripe through the lanes, then a 7-byte tail.
        assert_eq!(
            Xxh64::digest(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
    }

    #[test]
    fn streaming_equals_one_shot_for_chunkings_that_split_stripes() {
        let data: Vec<u8> = (0..200_003u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let whole = Xxh64::digest(&data);
        for chunk in [1, 7, 31, 33, 64 * 1024 + 3] {
            let mut x = Xxh64::new();
            for piece in data.chunks(chunk) {
                x.update(piece);
            }
            assert_eq!(x.finish(), whole, "chunk {chunk}");
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_digest() {
        let mut data: Vec<u8> = (0..96u8).collect();
        let clean = Xxh64::digest(&data);
        for bit in 0..data.len() * 8 {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(Xxh64::digest(&data), clean, "bit {bit}");
            data[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
