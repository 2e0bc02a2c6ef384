//! [`HybridMap`]: a node→`f64` accumulator that adapts its backing store.
//!
//! Residue-push algorithms (SimPush's Source-Push and Reverse-Push, SLING's
//! index construction, ProbeSim's probe) accumulate floating-point mass into
//! per-level frontiers. Frontier population varies wildly: a deep level of
//! the source graph may hold a handful of nodes, while level 1 of a query on
//! a hub can hold a large fraction of the whole graph. A hash map wins on the
//! former, a dense array on the latter. `HybridMap` starts sparse and
//! migrates itself to a dense array (with a touched-list for iteration) once
//! its population crosses `universe / DENSE_DIVISOR`.
//!
//! # Iteration order and reuse
//!
//! Iteration always runs in **first-touch order**, in both backends. This is
//! a hard guarantee, not an implementation detail: the push stages fold
//! floating-point mass in iteration order, so any order that depended on
//! hash-table capacity would make results drift between a cold query (fresh
//! maps) and a warm query on a reused map whose tables kept their previous
//! capacity. First-touch order is a pure function of the insertion sequence,
//! which the push algorithms fully determine — so cold and warm runs are
//! bit-identical, and so are runs before and after a sparse→dense migration.
//!
//! Maps are built to be pooled across queries: [`HybridMap::clear`] drops
//! the entries but keeps every allocation (including the dense arrays once
//! migrated), and [`HybridMap::reset`] additionally re-targets the map at a
//! different node universe.

use crate::hash::FxHashMap;
use crate::NodeId;

/// Population threshold divisor: migrate to dense storage once
/// `len > universe / DENSE_DIVISOR`.
///
/// At 1/8 occupancy a hash map holding `(u32, f64)` entries already spends
/// roughly as much memory as the dense `f64` array, and loses on access
/// locality, so this is the break-even neighbourhood rather than a tuned
/// constant.
pub const DENSE_DIVISOR: usize = 8;

enum Backend {
    /// `slots` maps a key to its index in `touched`/`values`; `values[i]`
    /// belongs to `touched[i]`, so iteration walks two parallel arrays in
    /// first-touch order with no hash probes.
    Sparse {
        // simcheck: allow(nondet-iteration) — key → index map; iteration
        // always walks the parallel touched/values arrays in first-touch
        // order, never this map.
        slots: FxHashMap<NodeId, u32>,
        values: Vec<f64>,
    },
    Dense {
        values: Vec<f64>,
        present: Vec<bool>,
    },
}

/// Adaptive node→score accumulator over a fixed universe `0..universe`.
///
/// Iterates in first-touch order in both backends; see the
/// [module docs](self) for why that matters.
pub struct HybridMap {
    universe: usize,
    dense_at: usize,
    /// Keys with a live entry, in first-touch order. Drives iteration (both
    /// backends) and O(touched) clearing of the dense backend.
    touched: Vec<NodeId>,
    backend: Backend,
}

impl HybridMap {
    /// Creates an empty map over node ids `0..universe`.
    pub fn new(universe: usize) -> Self {
        Self {
            universe,
            dense_at: universe / DENSE_DIVISOR,
            touched: Vec::new(),
            backend: Backend::Sparse {
                // simcheck: allow(nondet-iteration) — empty constructor
                // for the slot map above; never iterated.
                slots: FxHashMap::default(),
                values: Vec::new(),
            },
        }
    }

    /// Creates an empty map that migrates to dense storage once the
    /// population exceeds `dense_at` (use `universe` to never migrate, `0` to
    /// migrate immediately on first insert).
    #[cfg(test)]
    pub fn with_threshold(universe: usize, dense_at: usize) -> Self {
        Self {
            dense_at,
            ..Self::new(universe)
        }
    }

    /// Number of nodes in the universe.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Whether the map has migrated to the dense backend.
    pub fn is_dense(&self) -> bool {
        matches!(self.backend, Backend::Dense { .. })
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// True when no entry is live.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Adds `delta` to the entry for `key`, creating it if absent.
    ///
    /// # Panics
    /// Panics if `key >= universe` (debug and release: the dense backend
    /// would index out of bounds otherwise, so we check explicitly in the
    /// sparse path too).
    #[inline]
    pub fn add(&mut self, key: NodeId, delta: f64) {
        assert!(
            (key as usize) < self.universe,
            "key {key} outside universe {}",
            self.universe
        );
        match &mut self.backend {
            Backend::Sparse { slots, values } => {
                let slot = *slots.entry(key).or_insert_with(|| {
                    let i = values.len() as u32;
                    values.push(0.0);
                    self.touched.push(key);
                    i
                });
                values[slot as usize] += delta;
                if self.touched.len() > self.dense_at {
                    self.migrate();
                }
            }
            Backend::Dense { values, present } => {
                let i = key as usize;
                if !present[i] {
                    present[i] = true;
                    self.touched.push(key);
                    values[i] = delta;
                } else {
                    values[i] += delta;
                }
            }
        }
    }

    /// Overwrites the entry for `key` with `value`.
    #[inline]
    pub fn set(&mut self, key: NodeId, value: f64) {
        assert!(
            (key as usize) < self.universe,
            "key {key} outside universe {}",
            self.universe
        );
        match &mut self.backend {
            Backend::Sparse { slots, values } => {
                let slot = *slots.entry(key).or_insert_with(|| {
                    let i = values.len() as u32;
                    values.push(0.0);
                    self.touched.push(key);
                    i
                });
                values[slot as usize] = value;
                if self.touched.len() > self.dense_at {
                    self.migrate();
                }
            }
            Backend::Dense { values, present } => {
                let i = key as usize;
                if !present[i] {
                    present[i] = true;
                    self.touched.push(key);
                }
                values[i] = value;
            }
        }
    }

    /// Returns the value for `key`, or `None` if absent.
    #[inline]
    pub fn get(&self, key: NodeId) -> Option<f64> {
        match &self.backend {
            Backend::Sparse { slots, values } => slots.get(&key).map(|&slot| values[slot as usize]),
            Backend::Dense { values, present } => {
                let i = key as usize;
                if i < present.len() && present[i] {
                    Some(values[i])
                } else {
                    None
                }
            }
        }
    }

    /// True when `key` has a live entry.
    #[inline]
    pub fn contains(&self, key: NodeId) -> bool {
        self.get(key).is_some()
    }

    /// Iterates over `(key, value)` pairs in first-touch (insertion) order —
    /// identical in both backends, so results never depend on hash-table
    /// capacity or on when a migration happened.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        // Both arms walk `touched` with a direct value array at hand — no
        // hash probes on this hot path.
        match &self.backend {
            Backend::Sparse { values, .. } => HybridIter::Sparse {
                touched: self.touched.iter(),
                values: values.iter(),
            },
            Backend::Dense { values, .. } => HybridIter::Dense {
                touched: self.touched.iter(),
                values,
            },
        }
    }

    /// Removes all entries, keeping allocations (hash capacity, dense
    /// arrays) for reuse.
    pub fn clear(&mut self) {
        match &mut self.backend {
            Backend::Sparse { slots, values } => {
                slots.clear();
                values.clear();
            }
            Backend::Dense { present, .. } => {
                for &k in &self.touched {
                    present[k as usize] = false;
                }
            }
        }
        self.touched.clear();
    }

    /// Clears the map and re-targets it at node ids `0..universe`, keeping
    /// every allocation that can be kept. A map that migrated to the dense
    /// backend stays dense (its arrays are resized to the new universe) —
    /// values and iteration order are backend-independent, so reusing a
    /// dense map for a query that would have stayed sparse is safe.
    ///
    /// When the universe changes, the migration threshold follows it
    /// (`universe / DENSE_DIVISOR`).
    pub fn reset(&mut self, universe: usize) {
        self.clear();
        if universe != self.universe {
            self.universe = universe;
            self.dense_at = universe / DENSE_DIVISOR;
            if let Backend::Dense { values, present } = &mut self.backend {
                values.clear();
                values.resize(universe, 0.0);
                present.clear();
                present.resize(universe, false);
            }
        }
    }

    /// Approximate heap footprint in bytes (used by the Figure 6 memory
    /// accounting).
    pub fn logical_bytes(&self) -> usize {
        let touched = self.touched.capacity() * std::mem::size_of::<NodeId>();
        match &self.backend {
            Backend::Sparse { slots, values } => {
                // Slot entry (u32 key + u32 index) plus ~1 byte control per
                // slot at the std hashbrown layout, plus the value array.
                touched
                    + slots.capacity() * (std::mem::size_of::<(NodeId, u32)>() + 1)
                    + values.capacity() * std::mem::size_of::<f64>()
            }
            Backend::Dense { values, present } => {
                touched + values.capacity() * std::mem::size_of::<f64>() + present.capacity()
            }
        }
    }

    #[cold]
    fn migrate(&mut self) {
        let Backend::Sparse {
            values: sparse_values,
            ..
        } = &mut self.backend
        else {
            return;
        };
        let mut values = vec![0.0; self.universe];
        let mut present = vec![false; self.universe];
        for (&k, &v) in self.touched.iter().zip(sparse_values.iter()) {
            values[k as usize] = v;
            present[k as usize] = true;
        }
        self.backend = Backend::Dense { values, present };
    }
}

enum HybridIter<'a> {
    Sparse {
        touched: std::slice::Iter<'a, NodeId>,
        values: std::slice::Iter<'a, f64>,
    },
    Dense {
        touched: std::slice::Iter<'a, NodeId>,
        values: &'a [f64],
    },
}

impl Iterator for HybridIter<'_> {
    type Item = (NodeId, f64);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        match self {
            HybridIter::Sparse { touched, values } => touched
                .next()
                .map(|&k| (k, *values.next().expect("parallel"))),
            HybridIter::Dense { touched, values } => {
                touched.next().map(|&k| (k, values[k as usize]))
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            HybridIter::Sparse { touched, .. } | HybridIter::Dense { touched, .. } => {
                touched.size_hint()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_sparse_and_accumulates() {
        let mut m = HybridMap::new(1000);
        assert!(!m.is_dense());
        m.add(5, 0.25);
        m.add(5, 0.25);
        assert_eq!(m.get(5), Some(0.5));
        assert_eq!(m.get(6), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn migrates_to_dense_past_threshold() {
        let mut m = HybridMap::new(64); // threshold = 8
        for k in 0..8 {
            m.add(k, 1.0);
        }
        assert!(!m.is_dense());
        m.add(8, 1.0);
        assert!(m.is_dense(), "9 > 64/8 should trigger migration");
        // Values survive migration.
        for k in 0..9 {
            assert_eq!(m.get(k), Some(1.0), "key {k}");
        }
        m.add(3, 0.5);
        assert_eq!(m.get(3), Some(1.5));
        assert_eq!(m.len(), 9);
    }

    #[test]
    fn set_overwrites_in_both_backends() {
        let mut m = HybridMap::with_threshold(16, 1);
        m.set(2, 1.0);
        m.set(2, 3.0); // still sparse (len 1 == threshold, migrate at >)
        assert_eq!(m.get(2), Some(3.0));
        m.set(4, 1.0); // len 2 > 1 → dense
        assert!(m.is_dense());
        m.set(4, 9.0);
        assert_eq!(m.get(4), Some(9.0));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn iteration_matches_contents() {
        for threshold in [0usize, 100] {
            let mut m = HybridMap::with_threshold(100, threshold);
            for k in (0..40).step_by(4) {
                m.add(k, k as f64);
            }
            let mut got: Vec<_> = m.iter().collect();
            got.sort_unstable_by_key(|&(k, _)| k);
            let want: Vec<_> = (0..40).step_by(4).map(|k| (k, k as f64)).collect();
            assert_eq!(got, want, "threshold {threshold}");
        }
    }

    #[test]
    fn iteration_is_first_touch_order_in_both_backends() {
        // The push stages fold floating-point mass in iteration order; the
        // order must be the insertion sequence, independent of backend and
        // of hash-table capacity (cold/warm bit-identity).
        let keys = [13u32, 2, 99, 7, 50];
        for threshold in [0usize, 2, 100] {
            let mut m = HybridMap::with_threshold(100, threshold);
            for (i, &k) in keys.iter().enumerate() {
                m.add(k, i as f64);
                m.add(k, 0.0); // re-touch must not reorder
            }
            let got: Vec<NodeId> = m.iter().map(|(k, _)| k).collect();
            assert_eq!(got, keys, "threshold {threshold}");
        }
    }

    #[test]
    fn order_survives_mid_stream_migration() {
        let mut m = HybridMap::new(32); // threshold 4: migrates on 5th key
        let keys = [9u32, 1, 30, 4, 17, 2, 25];
        for &k in &keys {
            m.add(k, 1.0);
        }
        assert!(m.is_dense());
        let got: Vec<NodeId> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(got, keys, "migration must preserve first-touch order");
    }

    #[test]
    fn clear_retains_backend_and_is_reusable() {
        let mut m = HybridMap::with_threshold(32, 0);
        m.add(1, 1.0);
        assert!(m.is_dense());
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(1), None);
        m.add(1, 2.0);
        assert_eq!(m.get(1), Some(2.0));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn reset_retargets_universe_in_sparse_backend() {
        let mut m = HybridMap::new(8);
        m.add(7, 1.0);
        m.reset(100);
        assert!(m.is_empty());
        assert_eq!(m.universe(), 100);
        m.add(99, 2.0); // would have panicked before the reset
        assert_eq!(m.get(99), Some(2.0));
        assert_eq!(m.get(7), None);
    }

    #[test]
    fn reset_resizes_dense_arrays_up_and_down() {
        let mut m = HybridMap::with_threshold(8, 0);
        m.add(3, 7.0);
        assert!(m.is_dense());

        // Grow: dense map must accept keys in the larger universe.
        m.reset(64);
        assert!(m.is_dense(), "dense backend survives reuse");
        assert_eq!(m.get(3), None, "reset clears old entries");
        m.add(63, 1.5);
        m.add(3, 2.5);
        assert_eq!(m.get(63), Some(1.5));
        assert_eq!(m.get(3), Some(2.5));
        let got: Vec<NodeId> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(got, vec![63, 3], "first-touch order after reset");

        // Shrink: out-of-universe keys must be rejected again.
        m.reset(4);
        m.add(3, 1.0);
        assert_eq!(m.get(3), Some(1.0));
        assert_eq!(m.len(), 1);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn reset_shrink_enforces_new_bound() {
        let mut m = HybridMap::with_threshold(16, 0);
        m.add(9, 1.0);
        m.reset(4);
        m.add(9, 1.0);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn rejects_out_of_universe_keys() {
        let mut m = HybridMap::new(4);
        m.add(4, 1.0);
    }

    #[test]
    fn dense_reinsert_after_clear_resets_value() {
        // Regression guard: after clear(), stale dense values must not leak
        // into re-inserted keys (add must overwrite, not accumulate).
        let mut m = HybridMap::with_threshold(8, 0);
        m.add(3, 7.0);
        m.clear();
        m.add(3, 1.0);
        assert_eq!(m.get(3), Some(1.0));
    }

    #[test]
    fn logical_bytes_is_monotone_in_population() {
        let mut m = HybridMap::new(1 << 16);
        let empty = m.logical_bytes();
        for k in 0..1000 {
            m.add(k, 1.0);
        }
        assert!(m.logical_bytes() >= empty);
    }
}
