//! Memoisation of expensive per-graph features — budgeted, LRU.
//!
//! The HAQJSK pipeline's cost is dominated by per-*pair* kernel evaluations,
//! but the per-*graph* inputs to those evaluations — CTQW density matrices
//! (`O(n^3)` eigendecompositions), depth-based vertex representations,
//! aligned structure families — are reusable across every pair and every
//! request that involves the same graph. [`FeatureCache`] memoises them
//! under a [`GraphKey`] and guarantees each value is
//! computed **exactly once per resident key** even under concurrent access.
//!
//! One mutex guards the table, an intrusive LRU list and the approximate
//! resident bytes of its values (via the [`CacheWeight`] trait); it is held
//! only for lookup and bookkeeping, never across a compute. When a byte
//! budget is configured — the cache's only setting, see [`CacheConfig`] —
//! an insert that pushes the cache over it evicts least-recently-used
//! entries until it fits, so long-running serving processes handle
//! unbounded graph streams with bounded memory. Evicted values stay alive
//! for callers already holding their `Arc`; only residency is bounded.
//!
//! The exactly-once guarantee is scoped to residency: while a key stays
//! resident, concurrent requests for it block on the first compute instead
//! of recomputing; once evicted, a later request recomputes (and the
//! eviction counters make that observable).

use crate::hash::GraphKey;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Approximate resident size of a cached value, in bytes.
///
/// Implementations should count the value's owned heap data plus its inline
/// size; exact malloc-level accounting is not required — budgets are
/// capacity planning, not allocation control. The default counts only the
/// inline size, which is right for plain scalar types.
pub trait CacheWeight {
    /// Approximate bytes this value keeps resident.
    fn weight(&self) -> usize {
        std::mem::size_of_val(self)
    }
}

macro_rules! inline_weight {
    ($($t:ty),*) => {$(
        impl CacheWeight for $t {}
    )*};
}

inline_weight!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, f32, f64, bool);

impl CacheWeight for String {
    fn weight(&self) -> usize {
        std::mem::size_of::<String>() + self.capacity()
    }
}

impl<T: CacheWeight> CacheWeight for Vec<T> {
    fn weight(&self) -> usize {
        std::mem::size_of::<Vec<T>>() + self.iter().map(CacheWeight::weight).sum::<usize>()
    }
}

impl<T: CacheWeight> CacheWeight for Arc<T> {
    fn weight(&self) -> usize {
        std::mem::size_of::<Arc<T>>() + T::weight(self)
    }
}

impl CacheWeight for haqjsk_linalg::Matrix {
    fn weight(&self) -> usize {
        std::mem::size_of::<haqjsk_linalg::Matrix>()
            + self.rows() * self.cols() * std::mem::size_of::<f64>()
    }
}

/// Environment variable overriding the byte budget of environment-configured
/// caches (see [`CacheConfig::from_env`]); accepts plain bytes or
/// `k`/`m`/`g` suffixes (e.g. `256m`).
pub const CACHE_BUDGET_ENV_VAR: &str = "HAQJSK_CACHE_BUDGET";

/// The byte budget of a [`FeatureCache`], its only setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheConfig {
    /// Byte bound on the resident values; `None` = unbounded.
    pub budget_bytes: Option<usize>,
}

impl CacheConfig {
    /// A byte budget.
    pub fn with_budget(budget_bytes: usize) -> Self {
        CacheConfig {
            budget_bytes: Some(budget_bytes),
        }
    }

    /// Reads `HAQJSK_CACHE_BUDGET` (unset = unbounded) — how the
    /// process-global caches configure themselves.
    pub fn from_env() -> Self {
        CacheConfig {
            budget_bytes: std::env::var(CACHE_BUDGET_ENV_VAR)
                .ok()
                .and_then(|raw| parse_byte_size(&raw)),
        }
    }
}

/// Parses `"1024"`, `"64k"`, `"256m"`, `"2g"` (case-insensitive) to bytes.
pub fn parse_byte_size(raw: &str) -> Option<usize> {
    let raw = raw.trim().to_ascii_lowercase();
    let (digits, multiplier) = match raw.strip_suffix(['k', 'm', 'g']) {
        Some(prefix) => {
            let multiplier = match raw.as_bytes()[raw.len() - 1] {
                b'k' => 1usize << 10,
                b'm' => 1 << 20,
                _ => 1 << 30,
            };
            (prefix, multiplier)
        }
        None => (raw.as_str(), 1),
    };
    digits
        .trim()
        .parse::<usize>()
        .ok()
        .and_then(|n| n.checked_mul(multiplier))
}

/// Aggregate hit/miss/eviction counters of a [`FeatureCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that had to compute the value.
    pub misses: usize,
    /// Number of distinct keys currently resident.
    pub entries: usize,
    /// Entries evicted to satisfy the budget since creation (or since the
    /// last [`FeatureCache::clear`], which resets this counter).
    pub evictions: usize,
    /// Approximate bytes currently resident.
    pub resident_bytes: usize,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0 when empty).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

const NIL: usize = usize::MAX;

/// One node of an intrusive LRU list, slab-allocated so that map
/// entries can hold a stable index instead of a pointer.
struct LruNode {
    key: GraphKey,
    prev: usize,
    next: usize,
}

/// Doubly linked LRU order over a slab of nodes: head = most recently
/// used, tail = eviction candidate.
pub struct LruList {
    nodes: Vec<LruNode>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl Default for LruList {
    fn default() -> Self {
        LruList::new()
    }
}

impl LruList {
    /// An empty list.
    pub fn new() -> Self {
        LruList {
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Inserts `key` at the front (most recently used); returns the node's
    /// stable slab index for [`LruList::touch`] / [`LruList::remove`].
    pub fn push_front(&mut self, key: GraphKey) -> usize {
        let node = LruNode {
            key,
            prev: NIL,
            next: self.head,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.nodes[idx] = node;
                idx
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
        idx
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Removes the node and recycles its slot; returns its key.
    pub fn remove(&mut self, idx: usize) -> GraphKey {
        self.unlink(idx);
        self.free.push(idx);
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = NIL;
        self.nodes[idx].key
    }

    /// Moves the node to the front (most recently used).
    pub fn touch(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        self.unlink(idx);
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// The least-recently-used key (the next eviction candidate).
    pub fn tail_key(&self) -> Option<GraphKey> {
        (self.tail != NIL).then(|| self.nodes[self.tail].key)
    }

    /// The slab index of the least-recently-used node.
    pub fn tail_idx(&self) -> Option<usize> {
        (self.tail != NIL).then_some(self.tail)
    }

    /// The next node toward the most-recently-used end — walks the list in
    /// eviction-priority order when started from [`LruList::tail_idx`].
    /// The index must name a live node.
    pub fn toward_head(&self, idx: usize) -> Option<usize> {
        let prev = self.nodes[idx].prev;
        (prev != NIL).then_some(prev)
    }

    /// The key stored at a live node index.
    pub fn key_at(&self, idx: usize) -> GraphKey {
        self.nodes[idx].key
    }
}

/// One resident (or in-flight) cache entry. `weight == 0` means the value
/// is still being computed and has not been accounted yet.
struct Entry<V> {
    slot: Arc<OnceLock<Arc<V>>>,
    weight: usize,
    node: usize,
}

/// Everything the cache's one mutex guards.
struct State<V> {
    entries: HashMap<GraphKey, Entry<V>>,
    lru: LruList,
    resident_bytes: usize,
    evictions: usize,
    /// `None` = unbounded.
    budget: Option<usize>,
}

impl<V> State<V> {
    /// Evicts LRU-tail entries until `resident_bytes` is within the budget.
    /// The entry just inserted sits at the LRU head, so it is evicted only
    /// when it alone exceeds the budget — in which case residency is given
    /// up (the caller still holds the value through its `Arc`).
    fn enforce_budget(&mut self) {
        let Some(budget) = self.budget else {
            return;
        };
        while self.resident_bytes > budget {
            let Some(key) = self.lru.tail_key() else {
                break;
            };
            self.evict(key);
        }
    }

    fn evict(&mut self, key: GraphKey) {
        if let Some(entry) = self.entries.remove(&key) {
            self.lru.remove(entry.node);
            self.resident_bytes -= entry.weight;
            self.evictions += 1;
        }
    }
}

/// A concurrent, instrumented memo table from [`GraphKey`] to a feature
/// value of type `V`, with optional LRU byte-budget eviction.
///
/// The mutex is held only for entry lookup/insertion and LRU/budget
/// bookkeeping; the (potentially very expensive) compute runs outside it,
/// serialised per key by a [`OnceLock`] so concurrent requests for the
/// *same* graph block until the first finishes rather than recomputing.
pub struct FeatureCache<V> {
    state: Mutex<State<V>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl<V> Default for FeatureCache<V> {
    fn default() -> Self {
        FeatureCache::new()
    }
}

impl<V> std::fmt::Debug for FeatureCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("FeatureCache")
            .field("entries", &stats.entries)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .field("evictions", &stats.evictions)
            .field("resident_bytes", &stats.resident_bytes)
            .field("budget_bytes", &self.budget_bytes())
            .finish()
    }
}

impl<V> FeatureCache<V> {
    /// Creates an unbounded cache.
    pub fn new() -> Self {
        FeatureCache::with_config(CacheConfig::default())
    }

    /// Creates a cache with the given byte budget.
    pub fn with_config(config: CacheConfig) -> Self {
        FeatureCache {
            state: Mutex::new(State {
                entries: HashMap::new(),
                lru: LruList::new(),
                resident_bytes: 0,
                evictions: 0,
                budget: config.budget_bytes,
            }),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<V>> {
        self.state.lock().expect("feature cache poisoned")
    }

    /// The byte budget, if one is configured.
    pub fn budget_bytes(&self) -> Option<usize> {
        self.lock().budget
    }

    /// Re-budgets the cache at runtime (`None` lifts the bound), evicting
    /// immediately if the cache is now over it. This is the
    /// memory-pressure lever for long-running processes.
    pub fn set_budget(&self, budget_bytes: Option<usize>) {
        let mut state = self.lock();
        state.budget = budget_bytes;
        state.enforce_budget();
    }

    /// Returns the cached value for `key` if present, counting a hit and
    /// refreshing the key's LRU position.
    pub fn get(&self, key: GraphKey) -> Option<Arc<V>> {
        let value = {
            let mut state = self.lock();
            let (node, value) = {
                let entry = state.entries.get(&key)?;
                (entry.node, entry.slot.get().cloned()?)
            };
            state.lru.touch(node);
            value
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(value)
    }

    /// Looks `key` up for a caller that extends values in place of
    /// recomputing them: a resident value that `covers` accepts is a hit
    /// (counted, LRU position refreshed) and comes back as `Ok`. Anything
    /// else is a miss (counted) and comes back as `Err` with the resident
    /// value, if any, for the caller to extend and
    /// [`store_if`](FeatureCache::store_if).
    pub fn get_covering(
        &self,
        key: GraphKey,
        covers: impl FnOnce(&V) -> bool,
    ) -> Result<Arc<V>, Option<Arc<V>>> {
        let mut state = self.lock();
        let resident = state
            .entries
            .get(&key)
            .and_then(|entry| Some((entry.node, entry.slot.get().cloned()?)));
        match resident {
            Some((node, value)) if covers(&value) => {
                state.lru.touch(node);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Ok(value)
            }
            resident => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Err(resident.map(|(_, value)| value))
            }
        }
    }

    /// Returns the cached value for `key` without computing, if present.
    /// Unlike [`FeatureCache::get`] this touches neither the hit counter
    /// nor the LRU order — it is for introspection, not for serving
    /// lookups.
    pub fn peek(&self, key: GraphKey) -> Option<Arc<V>> {
        let state = self.lock();
        state.entries.get(&key).and_then(|e| e.slot.get().cloned())
    }

    /// The cache's counters.
    pub fn stats(&self) -> CacheStats {
        let state = self.lock();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: state.entries.len(),
            evictions: state.evictions,
            resident_bytes: state.resident_bytes,
        }
    }

    /// Evicts every resident value through the normal eviction path and
    /// resets the hit/miss/eviction counters to zero. Prefer [`set_budget`]
    /// for memory pressure — `clear` is for hard boundaries (model
    /// replacement, benchmark isolation) where stale features must not
    /// survive.
    ///
    /// [`set_budget`]: FeatureCache::set_budget
    pub fn clear(&self) {
        let mut state = self.lock();
        // Draining the LRU through evict() empties the entry map and the
        // byte counter too (including weight-0 in-flight entries).
        while let Some(key) = state.lru.tail_key() {
            state.evict(key);
        }
        state.evictions = 0;
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

impl<V: CacheWeight> FeatureCache<V> {
    /// Returns the cached value for `key`, computing it with `compute` on
    /// the first request. While `key` stays resident, `compute` runs
    /// exactly once across all threads: concurrent requesters block on the
    /// first compute instead of duplicating it. If the budget evicts `key`,
    /// a later request recomputes (observable through
    /// [`CacheStats::evictions`]).
    pub fn get_or_compute(&self, key: GraphKey, compute: impl FnOnce() -> V) -> Arc<V> {
        let slot = {
            let mut state = self.lock();
            match state.entries.get(&key) {
                Some(entry) => {
                    let node = entry.node;
                    let slot = Arc::clone(&entry.slot);
                    state.lru.touch(node);
                    slot
                }
                None => {
                    let slot: Arc<OnceLock<Arc<V>>> = Arc::new(OnceLock::new());
                    let node = state.lru.push_front(key);
                    state.entries.insert(
                        key,
                        Entry {
                            slot: Arc::clone(&slot),
                            weight: 0,
                            node,
                        },
                    );
                    slot
                }
            }
        };

        let mut computed_here = false;
        let value = Arc::clone(slot.get_or_init(|| {
            computed_here = true;
            Arc::new(compute())
        }));

        if computed_here {
            self.misses.fetch_add(1, Ordering::Relaxed);
            let weight = CacheWeight::weight(value.as_ref()).max(1);
            let mut state = self.lock();
            // Account the weight only if our entry is still the resident
            // one (it may have been evicted, or evicted-and-replaced by a
            // fresh entry, while we computed).
            if let Some(entry) = state.entries.get_mut(&key) {
                if Arc::ptr_eq(&entry.slot, &slot) && entry.weight == 0 {
                    entry.weight = weight;
                    state.resident_bytes += weight;
                    state.enforce_budget();
                }
            }
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    /// Stores `value` under `key` when nothing is resident there or
    /// `replaces(resident)` holds; returns whether it stored. The stored
    /// entry is re-weighed, moves to the LRU head and the budget is
    /// enforced, so the budget stays an exact bound. A replaced entry is
    /// not counted as an eviction; a compute still in flight for `key`
    /// counts as nothing resident (its result is then not accounted).
    pub fn store_if(&self, key: GraphKey, value: V, replaces: impl FnOnce(&V) -> bool) -> bool {
        let weight = CacheWeight::weight(&value).max(1);
        let mut state = self.lock();
        if let Some(entry) = state.entries.get(&key) {
            if entry.slot.get().is_some_and(|resident| !replaces(resident)) {
                return false;
            }
            let node = entry.node;
            let replaced = entry.weight;
            state.lru.remove(node);
            state.resident_bytes -= replaced;
        }
        let node = state.lru.push_front(key);
        let slot = Arc::new(OnceLock::from(Arc::new(value)));
        state.entries.insert(key, Entry { slot, weight, node });
        state.resident_bytes += weight;
        state.enforce_budget();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::GraphKey;

    #[test]
    fn computes_once_and_counts() {
        let cache: FeatureCache<u64> = FeatureCache::new();
        let key = GraphKey(42);
        let calls = AtomicUsize::new(0);
        for _ in 0..5 {
            let v = cache.get_or_compute(key, || {
                calls.fetch_add(1, Ordering::SeqCst);
                99
            });
            assert_eq!(*v, 99);
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.resident_bytes, 8);
        assert!((stats.hit_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn concurrent_requests_compute_exactly_once() {
        let cache: Arc<FeatureCache<u64>> = Arc::new(FeatureCache::new());
        let calls = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let calls = Arc::clone(&calls);
            handles.push(std::thread::spawn(move || {
                let v = cache.get_or_compute(GraphKey(7), || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    123
                });
                assert_eq!(*v, 123);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 7);
    }

    #[test]
    fn peek_and_clear() {
        let cache: FeatureCache<String> = FeatureCache::new();
        assert!(cache.peek(GraphKey(1)).is_none());
        cache.get_or_compute(GraphKey(1), || "x".to_string());
        assert_eq!(cache.peek(GraphKey(1)).as_deref(), Some(&"x".to_string()));
        cache.clear();
        assert!(cache.peek(GraphKey(1)).is_none());
        assert_eq!(cache.stats().hits + cache.stats().misses, 0);
        assert_eq!(cache.stats().resident_bytes, 0);
    }

    #[test]
    fn budget_evicts_least_recently_used() {
        let cache: FeatureCache<u64> = FeatureCache::with_config(CacheConfig::with_budget(3 * 8));
        for i in 0..3u64 {
            cache.get_or_compute(GraphKey(i as u128), || i);
        }
        assert_eq!(cache.stats().entries, 3);
        // Touch key 0 so key 1 becomes the LRU candidate.
        assert!(cache.get(GraphKey(0)).is_some());
        cache.get_or_compute(GraphKey(3), || 3);
        let stats = cache.stats();
        assert_eq!(stats.entries, 3, "budget holds three 8-byte values");
        assert_eq!(stats.evictions, 1);
        assert!(stats.resident_bytes <= 24);
        assert!(cache.peek(GraphKey(1)).is_none(), "LRU key evicted");
        assert!(cache.peek(GraphKey(0)).is_some(), "touched key survives");
        assert!(cache.peek(GraphKey(2)).is_some());
        assert!(cache.peek(GraphKey(3)).is_some());
        // The evicted key recomputes on the next request.
        let calls = AtomicUsize::new(0);
        cache.get_or_compute(GraphKey(1), || {
            calls.fetch_add(1, Ordering::SeqCst);
            1
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn oversized_value_is_returned_but_not_retained() {
        let cache: FeatureCache<String> = FeatureCache::with_config(CacheConfig::with_budget(16));
        let v = cache.get_or_compute(GraphKey(9), || "x".repeat(4096));
        assert_eq!(v.len(), 4096, "caller still gets the value");
        let stats = cache.stats();
        assert_eq!(stats.entries, 0, "value larger than the budget");
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.resident_bytes, 0);
    }

    #[test]
    fn set_budget_evicts_immediately_and_lifts() {
        let cache: FeatureCache<u64> = FeatureCache::new();
        for i in 0..10u64 {
            cache.get_or_compute(GraphKey(i as u128), || i);
        }
        assert_eq!(cache.stats().entries, 10);
        cache.set_budget(Some(4 * 8));
        let stats = cache.stats();
        assert_eq!(stats.entries, 4);
        assert_eq!(stats.evictions, 6);
        assert_eq!(cache.budget_bytes(), Some(32));
        cache.set_budget(None);
        assert_eq!(cache.budget_bytes(), None);
        for i in 0..10u64 {
            cache.get_or_compute(GraphKey((100 + i) as u128), || i);
        }
        assert_eq!(cache.stats().entries, 14, "unbounded again");
    }

    #[test]
    fn store_if_extends_reweighs_and_keeps_the_budget_exact() {
        let row = |len: usize| vec![1.0f64; len];
        let weight = |len: usize| row(len).weight();
        let cache: FeatureCache<Vec<f64>> =
            FeatureCache::with_config(CacheConfig::with_budget(weight(4) + weight(2)));
        let longer = |len: usize| move |resident: &Vec<f64>| resident.len() < len;

        assert_eq!(cache.get_covering(GraphKey(1), |r| r.len() >= 2), Err(None));
        assert!(cache.store_if(GraphKey(1), row(2), longer(2)));
        assert!(cache.store_if(GraphKey(2), row(2), longer(2)));
        let hit = cache.get_covering(GraphKey(1), |r| r.len() >= 2);
        assert_eq!(hit.map(|r| r.len()), Ok(2));
        let short = cache.get_covering(GraphKey(1), |r| r.len() >= 3);
        assert_eq!(short.map_err(|r| r.map(|r| r.len())), Err(Some(2)));

        // A shorter or equal value never replaces the resident one.
        assert!(!cache.store_if(GraphKey(1), row(1), longer(1)));
        assert!(!cache.store_if(GraphKey(1), row(2), longer(2)));
        assert_eq!(cache.stats().resident_bytes, 2 * weight(2));

        // Extending key 1 re-weighs it; key 2 (least recently used) goes.
        assert!(cache.store_if(GraphKey(1), row(4), longer(4)));
        let stats = cache.stats();
        assert_eq!(
            (stats.entries, stats.resident_bytes, stats.evictions),
            (2, weight(4) + weight(2), 0)
        );
        assert!(cache.store_if(GraphKey(1), row(5), longer(5)));
        let stats = cache.stats();
        assert_eq!(
            (stats.entries, stats.resident_bytes, stats.evictions),
            (1, weight(5), 1)
        );
        assert!(cache.peek(GraphKey(2)).is_none());
        assert_eq!((stats.hits, stats.misses), (1, 2));
    }

    #[test]
    fn parse_byte_sizes() {
        assert_eq!(parse_byte_size("1024"), Some(1024));
        assert_eq!(parse_byte_size(" 64k "), Some(64 << 10));
        assert_eq!(parse_byte_size("256M"), Some(256 << 20));
        assert_eq!(parse_byte_size("2g"), Some(2 << 30));
        assert_eq!(parse_byte_size("nope"), None);
        assert_eq!(parse_byte_size(""), None);
    }

    #[test]
    fn weights_account_heap_data() {
        assert_eq!(7u64.weight(), 8);
        assert!(String::from("hello").weight() >= 5);
        let m = haqjsk_linalg::Matrix::zeros(4, 5);
        assert!(m.weight() >= 4 * 5 * 8);
        let v: Vec<f64> = vec![0.0; 10];
        assert!(v.weight() >= 80);
    }
}
