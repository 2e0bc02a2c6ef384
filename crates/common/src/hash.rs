//! Fx-style hashing.
//!
//! The algorithm is the well-known "FxHash" multiply-rotate word hash used by
//! the Rust compiler (public domain). It is not HashDoS-resistant, which is
//! fine here: keys are internal node ids, never attacker-controlled input.

// simcheck: allow-file(nondet-iteration) — definition site of the
// fixed-seed Fx wrappers; the hazard lives at use sites, which are
// policed individually.
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Firefox/rustc Fx hash.
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, non-cryptographic hasher for small integer-like keys.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Consume 8-byte words, then the tail. Node-id keys never hit the
        // byte path (they use the fixed-width methods below), so this loop is
        // only exercised by string keys in cold configuration code.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` with Fx hashing.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Drop-in `HashSet` with Fx hashing.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Convenience constructor: an [`FxHashSet`] with `cap` reserved slots.
pub fn fx_set_with_capacity<T>(cap: usize) -> FxHashSet<T> {
    FxHashSet::with_capacity_and_hasher(cap, FxBuildHasher::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_one<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_one(42u32), hash_one(42u32));
        assert_eq!(hash_one("node"), hash_one("node"));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        // Not a statistical test, just a sanity check that the mixer moves
        // low-bit differences into distinct buckets for small tables.
        let a = hash_one(1u32);
        let b = hash_one(2u32);
        assert_ne!(a, b);
        assert_ne!(a & 0xff, b & 0xff, "low byte should differ for 1 vs 2");
    }

    #[test]
    fn byte_path_matches_padded_words() {
        // The tail path zero-pads; identical prefixes with different lengths
        // must not collide trivially.
        let h1 = hash_one([1u8, 2, 3]);
        let h2 = hash_one([1u8, 2, 3, 0]);
        // Not required to differ by the algorithm, but they do for this
        // input because `Hash for [u8]` writes the length first.
        assert_ne!(h1, h2);
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<u32, f64> = FxHashMap::default();
        m.insert(7, 0.5);
        assert_eq!(m[&7], 0.5);
        let mut s: FxHashSet<u32> = fx_set_with_capacity(16);
        s.insert(7);
        assert!(s.contains(&7));
    }

    #[test]
    fn u32_spread_is_reasonable() {
        // 1024 consecutive node ids should occupy many distinct buckets of a
        // 256-bucket table; an identity hash would occupy all 256, a broken
        // one very few.
        let mut buckets = [0u32; 256];
        for id in 0u32..1024 {
            buckets[(hash_one(id) % 256) as usize] += 1;
        }
        let occupied = buckets.iter().filter(|&&c| c > 0).count();
        assert!(occupied > 200, "only {occupied} buckets occupied");
    }
}
