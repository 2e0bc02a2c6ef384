//! [`AnswerCache`]: epoch-tagged hot-answer cache with delta-aware
//! invalidation.
//!
//! The serving front-end recomputes every answer from scratch even though
//! real traffic is zipf-skewed — the same few hot keys account for most
//! requests. A SimPush answer is a pure function of `(graph at epoch e,
//! query node, engine config, per-query seed)`, and the per-query seed is
//! itself derived from `(config seed, node)` — so an answer computed once
//! at epoch `e` can be replayed verbatim for every later request of the
//! same key **as long as the graph the query actually read is unchanged**.
//!
//! That "actually read" part is what makes invalidation surgical instead
//! of a full flush: each cached entry carries the answer's **support
//! set** — every node whose adjacency the query read, harvested by
//! wrapping the snapshot in a [`SupportTracer`] during the miss that
//! computed it. The engine's pipeline touches the graph *only* through
//! [`GraphView::out_neighbors`]/[`GraphView::in_neighbors`] (plus the
//! constant `num_nodes`), so if a publish touched none of those nodes,
//! re-running the query at the new epoch would read byte-identical
//! inputs and produce a bit-identical answer — the entry is *promoted*
//! to the new epoch without recomputation. Only entries whose support
//! intersects the publish's touched-node delta
//! ([`PublishInfo::touched`](simrank_graph::PublishInfo) /
//! [`CutInfo::touched`](simrank_graph::CutInfo)) are invalidated;
//! untouched hot answers survive compaction (a compaction-only publish
//! reports an empty delta) and keep serving.
//!
//! # Validity and staleness
//!
//! An entry tracks the half-open history interval it is known-exact for:
//! `computed_epoch` (where it was computed) through `valid_epoch` (the
//! newest epoch it was promoted to). A lookup at `epoch` is
//!
//! * an **exact hit** when `epoch ≤ valid_epoch` — the answer at `epoch`
//!   is bit-identical to recomputing;
//! * a **stale hit** when `epoch − valid_epoch ≤ max_stale_epochs` — the
//!   staleness-bound mode that keeps serving slightly-old answers during
//!   churn (the returned [`CacheHit::stale_by`] says how far behind);
//! * otherwise a **miss** (the entry is dropped lazily).
//!
//! With `max_stale_epochs = 0` only exact hits are served — the setting
//! `tests/prop_cache.rs` uses to pin bit-identity with uncached queries.
//! Either way [`CacheHit::computed_epoch`] preserves the replay contract:
//! responses advertise the epoch the answer was *computed* at, and
//! re-running the query on that epoch's graph reproduces it bit for bit.
//!
//! # Concurrency
//!
//! The map is lock-striped into [`AnswerCacheOptions::shards`] shards
//! keyed by a hash of the cache key; each shard is an independent
//! `Mutex<FxHashMap + slot arena>` with CLOCK (second-chance) eviction at
//! bounded capacity. Writers publish first, then call
//! [`on_publish`](AnswerCache::on_publish); a racing reader that already
//! looked up at the old epoch serves an answer that was exact a moment
//! ago (the same benignity as acquiring a snapshot just before the
//! publish), and a reader whose version hint lags behind simply misses —
//! races degrade to recomputation, never to wrong answers.

use crate::config::Config;
use simrank_common::seeds::splitmix64;
use simrank_common::{FxHashMap, NodeId};
use simrank_graph::GraphView;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What a cached answer is keyed by: the query node, how many top entries
/// the caller asked for, and a fingerprint of the engine configuration
/// (seed included), so engines with different error budgets or seeds never
/// share entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The query node.
    pub node: NodeId,
    /// The `top_k` the answer was materialised for.
    pub top_k: usize,
    /// [`Config::fingerprint`] of the engine that computed the answer.
    pub fingerprint: u64,
}

/// Knobs for [`AnswerCache::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnswerCacheOptions {
    /// Total entry capacity across all shards (≥ 1). When a shard is
    /// full, CLOCK second-chance eviction frees a slot.
    pub capacity: usize,
    /// Lock stripes (≥ 1). More shards = less contention between worker
    /// threads; capacity is split evenly across them.
    pub shards: usize,
    /// How many epochs behind the current one an entry may serve
    /// (`0` = exact answers only). An entry whose support set intersects
    /// a publish stops being promoted; it keeps serving *stale* hits
    /// until it lags more than this bound, then drops out.
    pub max_stale_epochs: u64,
}

impl Default for AnswerCacheOptions {
    fn default() -> Self {
        Self {
            capacity: 4096,
            shards: 8,
            max_stale_epochs: 0,
        }
    }
}

/// A successful [`AnswerCache::lookup`].
#[derive(Debug, Clone)]
pub struct CacheHit {
    /// Epoch/cut the answer was computed at — the replay handle a
    /// response should advertise.
    pub computed_epoch: u64,
    /// How many epochs the lookup was behind the entry's promoted
    /// validity (`0` = exact hit).
    pub stale_by: u64,
    /// The cached top-`k` answer.
    pub top: Vec<(NodeId, f64)>,
}

/// Point-in-time counter snapshot of an [`AnswerCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache (exact or stale).
    pub hits: u64,
    /// Lookups that found nothing servable.
    pub misses: u64,
    /// Entries written (first-time inserts and recompute refreshes).
    pub insertions: u64,
    /// Entries evicted by CLOCK to make room at capacity.
    pub evictions: u64,
    /// Delta-aware invalidations: promotions refused because the entry's
    /// support set intersected a publish's touched set.
    pub invalidations: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Entry {
    key: CacheKey,
    computed_epoch: u64,
    valid_epoch: u64,
    /// Sorted ascending; every node whose adjacency the computing query
    /// read.
    support: Vec<NodeId>,
    top: Vec<(NodeId, f64)>,
    /// CLOCK second-chance bit: set on hit, cleared when the hand sweeps
    /// past.
    referenced: bool,
}

#[derive(Debug, Default)]
struct Shard {
    // simcheck: allow(nondet-iteration) — keyed lookups/removals only;
    // the CLOCK and invalidation sweeps walk the slots Vec, never this.
    map: FxHashMap<CacheKey, usize>,
    slots: Vec<Option<Entry>>,
    hand: usize,
}

/// The shared, epoch-tagged result cache. See the [module docs](self).
#[derive(Debug)]
pub struct AnswerCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    max_stale_epochs: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

fn shard_index(key: &CacheKey, shards: usize) -> usize {
    let mut state =
        (key.node as u64) ^ key.fingerprint.rotate_left(17) ^ ((key.top_k as u64) << 40);
    (splitmix64(&mut state) % shards as u64) as usize
}

/// True when two sorted ascending slices share an element. Iterates the
/// smaller side and gallops through the larger: from the last position the
/// step doubles until it passes the probe, then the bracket is
/// binary-searched. A probe costs `O(log gap)` and stays next to the
/// previous one, so a publish delta swept against every cached support set
/// walks each set front to back instead of bisecting it cold every time.
fn sorted_intersects(a: &[NodeId], b: &[NodeId]) -> bool {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut rest = large;
    for &x in small {
        // Everything before `lo` is below `x`; `hi` is past it or past the end.
        let (mut lo, mut hi) = (0usize, 1usize);
        while hi <= rest.len() && rest[hi - 1] < x {
            lo = hi;
            hi *= 2;
        }
        match rest[lo..hi.min(rest.len())].binary_search(&x) {
            Ok(_) => return true,
            Err(pos) => rest = &rest[lo + pos..],
        }
        if rest.is_empty() {
            return false;
        }
    }
    false
}

impl AnswerCache {
    /// Creates a cache with the given capacity/striping/staleness knobs.
    ///
    /// # Panics
    /// Panics if `capacity` or `shards` is 0.
    pub fn new(opts: AnswerCacheOptions) -> Self {
        assert!(opts.capacity >= 1, "cache capacity must be ≥ 1");
        assert!(opts.shards >= 1, "need at least one cache shard");
        let shards = opts.shards.min(opts.capacity);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity: opts.capacity.div_ceil(shards),
            max_stale_epochs: opts.max_stale_epochs,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Entries currently cached (sums shard sizes; exact only at
    /// quiescence).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).map.len())
            .sum()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up `key` for a request observing `epoch` (the store's
    /// current epoch or a lock-free version hint). Returns an exact hit,
    /// a stale hit within the staleness bound, or `None` — recording the
    /// outcome in the counters and dropping entries that have lagged past
    /// the bound.
    pub fn lookup(&self, key: &CacheKey, epoch: u64) -> Option<CacheHit> {
        let mut shard = self.shards[shard_index(key, self.shards.len())]
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let Some(&idx) = shard.map.get(key) else {
            // relaxed: monotone stat counter, advisory reads only.
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        debug_assert!(shard.slots[idx].is_some(), "map points at a live slot");
        let Some(entry) = shard.slots[idx].as_mut() else {
            // A broken map→slot link is a miss that drops the map entry.
            shard.map.remove(key);
            // relaxed: monotone stat counter, advisory reads only.
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let stale_by = epoch.saturating_sub(entry.valid_epoch);
        if stale_by <= self.max_stale_epochs {
            entry.referenced = true;
            let hit = CacheHit {
                computed_epoch: entry.computed_epoch,
                stale_by,
                top: entry.top.clone(),
            };
            // relaxed: monotone stat counter, advisory reads only.
            self.hits.fetch_add(1, Ordering::Relaxed);
            Some(hit)
        } else {
            // Lagged past the staleness bound (e.g. the publisher never
            // notified us) — drop lazily and miss.
            shard.slots[idx] = None;
            shard.map.remove(key);
            // relaxed: monotone stat counter, advisory reads only.
            self.misses.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// Inserts an answer computed at `computed_epoch` with the given
    /// sorted support set. A racing insert of the same key keeps
    /// whichever answer was computed at the newer epoch; capacity
    /// pressure evicts via CLOCK second-chance.
    pub fn insert(
        &self,
        key: CacheKey,
        computed_epoch: u64,
        mut support: Vec<NodeId>,
        top: Vec<(NodeId, f64)>,
    ) {
        debug_assert!(support.windows(2).all(|w| w[0] < w[1]), "support sorted");
        // Entries are resident for as long as their answers stay valid: drop
        // the growth slack of the list the tracer built (up to half of it).
        support.shrink_to_fit();
        let entry = Entry {
            key,
            computed_epoch,
            valid_epoch: computed_epoch,
            support,
            top,
            referenced: false,
        };
        let mut shard = self.shards[shard_index(&key, self.shards.len())]
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        if let Some(&idx) = shard.map.get(&key) {
            debug_assert!(shard.slots[idx].is_some(), "map points at a live slot");
            if let Some(existing) = shard.slots[idx].as_mut() {
                if existing.computed_epoch < computed_epoch {
                    *existing = entry;
                    // relaxed: monotone stat counter, advisory reads only.
                    self.insertions.fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
            // A broken map→slot link drops the map entry; the insert below
            // takes a fresh slot.
            shard.map.remove(&key);
        }
        let idx = if shard.slots.len() < self.per_shard_capacity {
            shard.slots.push(None);
            shard.slots.len() - 1
        } else {
            // CLOCK: sweep until a slot without its second chance. Free
            // slots (left by invalidation) are taken immediately; a full
            // sweep of referenced entries clears their bits, so the
            // second pass always finds a victim.
            loop {
                let hand = shard.hand;
                shard.hand = (hand + 1) % shard.slots.len();
                match &mut shard.slots[hand] {
                    Some(e) if e.referenced => e.referenced = false,
                    Some(e) => {
                        let victim = e.key;
                        shard.map.remove(&victim);
                        // relaxed: monotone stat counter, advisory only.
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                        break hand;
                    }
                    None => break hand,
                }
            }
        };
        shard.slots[idx] = Some(entry);
        shard.map.insert(key, idx);
        // relaxed: monotone stat counter, advisory reads only.
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Notifies the cache that `epoch` was published with the given
    /// sorted touched-node delta ([`PublishInfo::touched`] for a
    /// [`GraphStore`], [`CutInfo::touched`] for a sharded cut). Entries
    /// valid at the previous epoch whose support is disjoint from
    /// `touched` are **promoted** — still exact at `epoch`, no
    /// recomputation. Entries that intersect are invalidated (counted)
    /// and linger only as far as the staleness bound allows.
    ///
    /// Call after every publish, from the publishing thread (or any
    /// single thread observing publishes in order).
    ///
    /// [`PublishInfo::touched`]: simrank_graph::PublishInfo
    /// [`CutInfo::touched`]: simrank_graph::CutInfo
    /// [`GraphStore`]: simrank_graph::GraphStore
    pub fn on_publish(&self, epoch: u64, touched: &[NodeId]) {
        debug_assert!(touched.windows(2).all(|w| w[0] < w[1]), "touched sorted");
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap_or_else(|p| p.into_inner());
            for idx in 0..shard.slots.len() {
                let Some(entry) = shard.slots[idx].as_mut() else {
                    continue;
                };
                if entry.valid_epoch >= epoch {
                    continue;
                }
                if entry.valid_epoch + 1 == epoch {
                    if !sorted_intersects(&entry.support, touched) {
                        entry.valid_epoch = epoch;
                        continue;
                    }
                    // relaxed: monotone stat counter, advisory only.
                    self.invalidations.fetch_add(1, Ordering::Relaxed);
                }
                // Invalidated now, or left behind by an earlier publish:
                // keep serving stale within the bound, drop past it.
                if epoch - entry.valid_epoch > self.max_stale_epochs {
                    let key = entry.key;
                    shard.slots[idx] = None;
                    shard.map.remove(&key);
                }
            }
        }
    }

    /// A snapshot of the hit/miss/evict/invalidate counters.
    pub fn stats(&self) -> CacheStats {
        // relaxed: monotone stat counters; a snapshot is inherently racy
        // and advisory, no other memory depends on these values.
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        CacheStats {
            hits: count(&self.hits),
            misses: count(&self.misses),
            insertions: count(&self.insertions),
            evictions: count(&self.evictions),
            invalidations: count(&self.invalidations),
        }
    }
}

impl Config {
    /// A seed-grade fingerprint of every field (floats by bit pattern,
    /// enums by discriminant), chained through splitmix64. Two configs
    /// compare equal iff they fingerprint equal (up to 64-bit collision),
    /// so cache keys from different engines never alias in practice.
    pub fn fingerprint(&self) -> u64 {
        let detection = match self.level_detection {
            crate::config::LevelDetection::MonteCarlo => 0u64,
            crate::config::LevelDetection::Exact => 1u64,
        };
        let mut state = 0xA115_3EED_CAC4_E5EEu64;
        for field in [
            self.c.to_bits(),
            self.epsilon.to_bits(),
            self.delta.to_bits(),
            detection,
            self.seed,
        ] {
            state ^= field;
            splitmix64(&mut state);
        }
        splitmix64(&mut state)
    }
}

/// [`GraphView`] adaptor that records the **read set** of a query: every
/// node whose out- or in-adjacency the algorithm asked for. Wrap a
/// snapshot, run the query against the wrapper, then
/// [`take_support`](Self::take_support) — the sorted result is the
/// cached answer's support set.
///
/// Why the read set is a sound support set: the engine's pipeline
/// consults the graph only through `out_neighbors`/`in_neighbors` (and
/// the fixed `num_nodes`) — degree probes included, which is why this
/// adaptor leaves `in_degree`/`out_degree` at the trait defaults that
/// forward to them: Source-Push decides between its exact and its sampled
/// path on in-degrees alone — and it is deterministic given the config and
/// per-query seed. If no recorded node's adjacency changed, a replay at
/// the new epoch reads byte-identical inputs at every step, takes the
/// same branches, and emits the same answer — so disjointness from a
/// publish's touched set certifies the cached answer exactly.
///
/// Single-threaded by design (`RefCell`); each front-end worker traces
/// its own misses.
#[derive(Debug)]
pub struct SupportTracer<'g, G: GraphView> {
    inner: &'g G,
    /// Dense membership bitmap + insertion-order list, so recording is
    /// O(1) per read and extraction is one sort of the distinct nodes.
    seen: RefCell<(Vec<bool>, Vec<NodeId>)>,
}

impl<'g, G: GraphView> SupportTracer<'g, G> {
    /// Wraps `inner`, recording nothing yet.
    pub fn new(inner: &'g G) -> Self {
        Self {
            inner,
            seen: RefCell::new((vec![false; inner.num_nodes()], Vec::new())),
        }
    }

    #[inline]
    fn record(&self, v: NodeId) {
        let mut seen = self.seen.borrow_mut();
        let (bitmap, list) = &mut *seen;
        if !bitmap[v as usize] {
            bitmap[v as usize] = true;
            list.push(v);
        }
    }

    /// The distinct nodes read so far, sorted ascending; consumes the
    /// tracer.
    pub fn take_support(self) -> Vec<NodeId> {
        let (_, mut list) = self.seen.into_inner();
        list.sort_unstable();
        list
    }
}

impl<G: GraphView> GraphView for SupportTracer<'_, G> {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.inner.num_edges()
    }

    #[inline]
    fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.record(v);
        self.inner.out_neighbors(v)
    }

    #[inline]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.record(v);
        self.inner.in_neighbors(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(node: NodeId) -> CacheKey {
        CacheKey {
            node,
            top_k: 4,
            fingerprint: 0xFEED,
        }
    }

    fn opts(capacity: usize, max_stale: u64) -> AnswerCacheOptions {
        AnswerCacheOptions {
            capacity,
            shards: 1, // deterministic eviction order for tests
            max_stale_epochs: max_stale,
        }
    }

    fn top(v: NodeId) -> Vec<(NodeId, f64)> {
        vec![(v, 0.5)]
    }

    #[test]
    fn lookup_hits_exactly_within_validity_and_counts() {
        let cache = AnswerCache::new(opts(8, 0));
        assert!(cache.lookup(&key(1), 0).is_none(), "cold cache misses");
        cache.insert(key(1), 0, vec![1, 2], top(2));
        let hit = cache.lookup(&key(1), 0).expect("fresh entry hits");
        assert_eq!(hit.computed_epoch, 0);
        assert_eq!(hit.stale_by, 0);
        assert_eq!(hit.top, top(2));
        // Same node, different top_k or fingerprint: distinct keys.
        assert!(cache.lookup(&CacheKey { top_k: 9, ..key(1) }, 0).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 2, 1));
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_publish_promotes_and_intersecting_publish_invalidates() {
        let cache = AnswerCache::new(opts(8, 0));
        cache.insert(key(1), 0, vec![1, 2, 3], top(2));
        cache.insert(key(9), 0, vec![7, 8], top(8));
        // Publish touching {5, 7}: entry 9 intersects (7), entry 1 does not.
        cache.on_publish(1, &[5, 7]);
        assert!(
            cache.lookup(&key(1), 1).is_some(),
            "disjoint support survives the publish exactly"
        );
        assert!(
            cache.lookup(&key(9), 1).is_none(),
            "intersecting support is invalidated at staleness 0"
        );
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn empty_touched_set_promotes_everything() {
        // A compaction-only publish reports an empty delta — every entry
        // survives (the "untouched hot answers survive compaction" claim).
        let cache = AnswerCache::new(opts(8, 0));
        cache.insert(key(1), 0, vec![1, 2], top(2));
        cache.insert(key(2), 0, vec![3, 4], top(4));
        cache.on_publish(1, &[]);
        assert!(cache.lookup(&key(1), 1).is_some());
        assert!(cache.lookup(&key(2), 1).is_some());
        assert_eq!(cache.stats().invalidations, 0);
    }

    #[test]
    fn staleness_bound_serves_invalidated_entries_then_drops_them() {
        let cache = AnswerCache::new(opts(8, 2));
        cache.insert(key(1), 0, vec![1, 2], top(2));
        cache.on_publish(1, &[2]); // invalidated, but within the bound
        let hit = cache.lookup(&key(1), 1).expect("stale hit within bound");
        assert_eq!(hit.stale_by, 1);
        assert_eq!(
            hit.computed_epoch, 0,
            "replay handle stays the computed epoch"
        );
        cache.on_publish(2, &[99]);
        assert_eq!(cache.lookup(&key(1), 2).unwrap().stale_by, 2);
        // One past the bound: dropped at publish time.
        cache.on_publish(3, &[99]);
        assert!(cache.lookup(&key(1), 3).is_none());
        assert_eq!(cache.len(), 0);
        assert_eq!(
            cache.stats().invalidations,
            1,
            "counted once, at intersection"
        );
    }

    #[test]
    fn lagging_lookup_past_the_bound_drops_lazily() {
        // No on_publish notifications at all: the entry simply ages out
        // of the lookup window.
        let cache = AnswerCache::new(opts(8, 1));
        cache.insert(key(1), 0, vec![1], top(1));
        assert!(cache.lookup(&key(1), 1).is_some(), "within bound");
        assert!(cache.lookup(&key(1), 3).is_none(), "past bound: dropped");
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn insert_keeps_the_newer_answer_on_key_collision() {
        let cache = AnswerCache::new(opts(8, 0));
        cache.insert(key(1), 5, vec![1], vec![(2, 0.9)]);
        // A racing late insert computed at an older epoch must not clobber.
        cache.insert(key(1), 3, vec![1], vec![(3, 0.1)]);
        let hit = cache.lookup(&key(1), 5).unwrap();
        assert_eq!((hit.computed_epoch, &hit.top[..]), (5, &[(2, 0.9)][..]));
        // A newer recompute replaces.
        cache.insert(key(1), 7, vec![1], vec![(4, 0.2)]);
        assert_eq!(cache.lookup(&key(1), 7).unwrap().top, vec![(4, 0.2)]);
    }

    #[test]
    fn clock_eviction_respects_second_chances() {
        let cache = AnswerCache::new(opts(3, 0));
        for v in 0..3 {
            cache.insert(key(v), 0, vec![v], top(v));
        }
        // Touch 0 and 2 so only 1 lacks a second chance.
        assert!(cache.lookup(&key(0), 0).is_some());
        assert!(cache.lookup(&key(2), 0).is_some());
        cache.insert(key(3), 0, vec![3], top(3));
        assert_eq!(cache.len(), 3, "bounded capacity");
        assert_eq!(cache.stats().evictions, 1);
        assert!(
            cache.lookup(&key(1), 0).is_none(),
            "the unreferenced entry was the victim"
        );
        assert!(cache.lookup(&key(0), 0).is_some());
        assert!(cache.lookup(&key(2), 0).is_some());
        assert!(cache.lookup(&key(3), 0).is_some());
    }

    #[test]
    fn eviction_reuses_slots_freed_by_invalidation() {
        let cache = AnswerCache::new(opts(2, 0));
        cache.insert(key(0), 0, vec![0], top(0));
        cache.insert(key(1), 0, vec![1], top(1));
        cache.on_publish(1, &[0]); // frees key(0)'s slot
        cache.insert(key(2), 1, vec![2], top(2));
        assert_eq!(cache.stats().evictions, 0, "hole reused, nothing evicted");
        assert!(cache.lookup(&key(1), 1).is_some());
        assert!(cache.lookup(&key(2), 1).is_some());
    }

    #[test]
    fn sorted_intersects_matches_naive() {
        let cases: &[(&[NodeId], &[NodeId])] = &[
            (&[], &[]),
            (&[1], &[]),
            (&[1, 5, 9], &[2, 6, 10]),
            (&[1, 5, 9], &[9]),
            (&[1, 5, 9], &[0, 1]),
            (&[4], &[1, 2, 3, 4, 5]),
            (&[0, 2, 4, 6, 8], &[1, 3, 5, 7]),
        ];
        for (a, b) in cases {
            let naive = a.iter().any(|x| b.contains(x));
            assert_eq!(sorted_intersects(a, b), naive, "a={a:?} b={b:?}");
            assert_eq!(sorted_intersects(b, a), naive, "symmetric");
        }
        // Every gallop bracket: a long run against one probe at each
        // position, present (even values) and absent (odd ones).
        let long: Vec<NodeId> = (0..70).map(|v| 2 * v).collect();
        for x in 0..142 {
            let expect = x % 2 == 0 && x < 140;
            assert_eq!(sorted_intersects(&long, &[x]), expect, "x={x}");
            assert_eq!(sorted_intersects(&[x, 1_000], &long), expect, "x={x}");
            assert!(!sorted_intersects(&[1, x | 1, 999], &long), "x={x}");
        }
    }

    #[test]
    fn config_fingerprint_separates_every_field() {
        let base = Config::new(0.02);
        assert_eq!(base.fingerprint(), Config::new(0.02).fingerprint());
        let variants = [
            Config {
                c: 0.7,
                ..base.clone()
            },
            Config {
                epsilon: 0.03,
                ..base.clone()
            },
            Config {
                delta: 1e-3,
                ..base.clone()
            },
            Config::exact(0.02),
            Config {
                seed: 1,
                ..base.clone()
            },
        ];
        for v in &variants {
            assert_ne!(v.fingerprint(), base.fingerprint(), "{v:?}");
        }
    }

    #[test]
    fn support_tracer_records_the_read_set_sorted() {
        use simrank_graph::GraphBuilder;
        let g = GraphBuilder::new()
            .with_num_nodes(6)
            .with_edges([(0, 1), (1, 2), (2, 3)])
            .build();
        let tracer = SupportTracer::new(&g);
        assert_eq!(tracer.out_neighbors(2), g.out_neighbors(2));
        assert_eq!(tracer.in_neighbors(1), g.in_neighbors(1));
        assert_eq!(tracer.in_neighbors(2), g.in_neighbors(2)); // repeat: no dup
        assert_eq!(tracer.out_neighbors(0), g.out_neighbors(0));
        // A degree probe is a read too: Source-Push's budget pre-scan
        // branches on in-degrees alone.
        assert_eq!(tracer.in_degree(3), 1);
        assert_eq!(tracer.out_degree(5), 0);
        assert_eq!(tracer.num_nodes(), 6);
        assert_eq!(tracer.num_edges(), 3);
        assert_eq!(
            tracer.take_support(),
            vec![0, 1, 2, 3, 5],
            "sorted distinct reads"
        );
    }

    #[test]
    fn traced_query_is_bit_identical_and_support_covers_the_answer() {
        use crate::{Config, SimPush};
        use simrank_graph::gen;
        let g = gen::gnm(80, 320, 3);
        let engine = SimPush::new(Config::new(0.05));
        let plain = engine.query_seeded(&g, 7);
        let tracer = SupportTracer::new(&g);
        let traced = engine.query_seeded(&tracer, 7);
        assert_eq!(traced.scores, plain.scores, "tracing never perturbs");
        let support = tracer.take_support();
        assert!(support.binary_search(&7).is_ok(), "query node is read");
        for (v, _) in plain.top_k(8) {
            assert!(
                support.binary_search(&v).is_ok(),
                "top-k node {v} outside the read set"
            );
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be")]
    fn rejects_zero_capacity() {
        AnswerCache::new(AnswerCacheOptions {
            capacity: 0,
            ..AnswerCacheOptions::default()
        });
    }
}
