//! [`EpochVec`]: an epoch-stamped dense scratch vector with O(1) logical
//! clear.
//!
//! Query pipelines that run millions of times over the same node universe
//! want a dense `node → value` accumulator they can wipe between queries
//! without paying an O(n) memset. `EpochVec` stamps every slot with the
//! generation in which it was last written; [`EpochVec::clear`] just bumps
//! the generation counter, which logically resets every slot to
//! `T::default()` in constant time. Slots whose stamp is stale read as
//! default and are re-initialised on the next write.
//!
//! The stamp is a `u32`; after `u32::MAX` generations the counter would wrap
//! and stale slots could masquerade as fresh, so `clear` falls back to one
//! real O(n) stamp reset at that point — once every ~4 billion queries.
//!
//! ```
//! use simrank_common::EpochVec;
//!
//! let mut v: EpochVec<f64> = EpochVec::with_len(8);
//! v.add(3, 0.5);
//! assert_eq!(v.get(3), 0.5);
//! v.clear(); // O(1): no slot is touched
//! assert_eq!(v.get(3), 0.0);
//! ```

/// Dense scratch vector over `0..len` with O(1) logical clear via a
/// generation counter (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct EpochVec<T> {
    values: Vec<T>,
    stamps: Vec<u32>,
    epoch: u32,
}

impl<T: Copy + Default> Default for EpochVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default> EpochVec<T> {
    /// Creates an empty vector; grow it with [`ensure_len`](Self::ensure_len).
    pub fn new() -> Self {
        Self {
            values: Vec::new(),
            stamps: Vec::new(),
            // Slots start stamped 0, so the live epoch must start above it.
            epoch: 1,
        }
    }

    /// Creates a vector covering `0..len`.
    pub fn with_len(len: usize) -> Self {
        let mut v = Self::new();
        v.ensure_len(len);
        v
    }

    /// Number of addressable slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no slot is addressable.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Grows the vector to cover `0..len` (never shrinks). New slots read as
    /// `T::default()`.
    pub fn ensure_len(&mut self, len: usize) {
        if len > self.values.len() {
            self.values.resize(len, T::default());
            self.stamps.resize(len, 0);
        }
    }

    /// Logically resets every slot to `T::default()`.
    ///
    /// O(1) except once every `u32::MAX` generations, when the stamps are
    /// physically rewritten to keep stale slots from aliasing a wrapped
    /// counter.
    pub fn clear(&mut self) {
        if self.epoch == u32::MAX {
            self.stamps.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Reads slot `i` (`T::default()` when it was not written this
    /// generation).
    ///
    /// # Panics
    /// Panics when `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        if self.stamps[i] == self.epoch {
            self.values[i]
        } else {
            T::default()
        }
    }

    /// Overwrites slot `i` with `value`.
    ///
    /// # Panics
    /// Panics when `i >= len()`.
    #[inline]
    pub fn set(&mut self, i: usize, value: T) {
        self.stamps[i] = self.epoch;
        self.values[i] = value;
    }

    /// Mutable access to slot `i`, re-initialising it to `T::default()`
    /// first when it is stale.
    ///
    /// # Panics
    /// Panics when `i >= len()`.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        if self.stamps[i] != self.epoch {
            self.stamps[i] = self.epoch;
            self.values[i] = T::default();
        }
        &mut self.values[i]
    }
}

impl EpochVec<f64> {
    /// Adds `delta` to slot `i` (stale slots count from `0.0`).
    ///
    /// # Panics
    /// Panics when `i >= len()`.
    #[inline]
    pub fn add(&mut self, i: usize, delta: f64) {
        *self.get_mut(i) += delta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_clear_resets_reads() {
        let mut v: EpochVec<f64> = EpochVec::with_len(4);
        v.set(0, 1.5);
        v.add(2, 0.25);
        v.add(2, 0.25);
        assert_eq!(v.get(0), 1.5);
        assert_eq!(v.get(2), 0.5);
        assert_eq!(v.get(1), 0.0, "untouched slots read default");
        v.clear();
        for i in 0..4 {
            assert_eq!(v.get(i), 0.0, "slot {i} must be logically cleared");
        }
        // Reuse after clear starts from default again.
        v.add(2, 1.0);
        assert_eq!(v.get(2), 1.0);
    }

    #[test]
    fn grow_on_demand_preserves_contents() {
        let mut v: EpochVec<u32> = EpochVec::new();
        assert!(v.is_empty());
        v.ensure_len(3);
        v.set(1, 7);
        v.ensure_len(10);
        assert_eq!(v.len(), 10);
        assert_eq!(v.get(1), 7, "growth must not disturb live slots");
        assert_eq!(v.get(9), 0);
        v.ensure_len(5);
        assert_eq!(v.len(), 10, "ensure_len never shrinks");
    }

    #[test]
    fn generation_wraparound_stays_sound() {
        let mut v: EpochVec<f64> = EpochVec::with_len(2);
        v.set(0, 9.0);
        // Force the counter to the wrap point: the next clear must physically
        // reset stamps instead of wrapping to a value old slots could alias.
        v.epoch = u32::MAX;
        // Slot 1 written at the (forced) final epoch, slot 0 stale.
        v.set(1, 3.0);
        assert_eq!(v.get(0), 0.0);
        assert_eq!(v.get(1), 3.0);
        v.clear();
        assert_eq!(v.epoch, 1, "wrap falls back to the initial epoch");
        assert_eq!(v.get(0), 0.0, "pre-wrap stamp must not alias epoch 1");
        assert_eq!(v.get(1), 0.0, "wrap-epoch stamp must not alias epoch 1");
        v.set(0, 2.0);
        assert_eq!(v.get(0), 2.0);
        v.clear();
        assert_eq!(v.get(0), 0.0);
    }

    #[test]
    fn get_mut_reinitialises_stale_slots() {
        let mut v: EpochVec<u32> = EpochVec::with_len(1);
        *v.get_mut(0) += 5;
        assert_eq!(v.get(0), 5);
        v.clear();
        *v.get_mut(0) += 5;
        assert_eq!(v.get(0), 5, "stale slot must restart from default");
    }

    #[test]
    #[should_panic]
    fn out_of_range_access_panics() {
        let v: EpochVec<f64> = EpochVec::with_len(2);
        v.get(2);
    }
}
