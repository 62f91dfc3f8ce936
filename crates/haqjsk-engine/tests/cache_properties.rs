//! Property tests for the budgeted feature cache: under any
//! interleaving of `get_or_compute` / `get` / eviction pressure,
//!
//! * the exactly-once guarantee holds per **resident** key — a key whose
//!   value is resident never recomputes,
//! * LRU order is respected — the resident set always equals a reference
//!   model that evicts strictly least-recently-used-first,
//! * the budget is never exceeded after an insert completes.
//!
//! The deterministic single-threaded properties drive a shadow model; a
//! separate multi-threaded stress test checks the invariants that survive
//! nondeterminism (bounded residency, no lost values, no deadlock).

use haqjsk_engine::{CacheConfig, CacheWeight, FeatureCache, GraphKey};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A test value with an arbitrary advertised weight.
#[derive(Debug, Clone, PartialEq)]
struct Blob {
    payload: u64,
    advertised: usize,
}

impl CacheWeight for Blob {
    fn weight(&self) -> usize {
        self.advertised
    }
}

/// Reference single-threaded model of one cache: one LRU queue (front =
/// most recent) evicting from the back while over the whole budget.
struct ModelCache {
    /// Keys most-recent-first, with their weights.
    lru: Vec<(GraphKey, usize)>,
    bytes: usize,
    evictions: usize,
    budget: usize,
}

impl ModelCache {
    fn new(budget: usize) -> ModelCache {
        ModelCache {
            lru: Vec::new(),
            bytes: 0,
            evictions: 0,
            budget,
        }
    }

    /// Returns true when the key was resident (a hit).
    fn access(&mut self, key: GraphKey, weight: usize) -> bool {
        if let Some(pos) = self.lru.iter().position(|&(k, _)| k == key) {
            let entry = self.lru.remove(pos);
            self.lru.insert(0, entry);
            return true;
        }
        let weight = weight.max(1);
        self.lru.insert(0, (key, weight));
        self.bytes += weight;
        while self.bytes > self.budget {
            let (_, w) = self.lru.pop().expect("bytes > 0 implies entries");
            self.bytes -= w;
            self.evictions += 1;
        }
        false
    }

    fn resident(&self, key: GraphKey) -> bool {
        self.lru.iter().any(|&(k, _)| k == key)
    }
}

/// Small key indices scattered over the 128-bit key space, like the
/// structural hashes real callers use.
fn spread_key(i: u64) -> GraphKey {
    GraphKey(((i.wrapping_mul(0x9E3779B97F4A7C15)) as u128) << 64 | i as u128)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The real cache and the shadow model agree on hits, residency, LRU
    /// eviction order and byte accounting for every op sequence, and the
    /// budget invariant holds after every insert. Budgets span 8..640
    /// bytes: from under one value's weight to more than the 24 keys'
    /// mean total, so runs range from constant eviction to none.
    #[test]
    fn eviction_respects_lru_budget_and_exactly_once(
        budget in 8usize..640,
        ops in proptest::collection::vec((0u64..24, 1usize..48), 1..120),
    ) {
        let cache: FeatureCache<Blob> = FeatureCache::with_config(CacheConfig::with_budget(budget));
        let mut model = ModelCache::new(budget);
        let mut computes: HashMap<GraphKey, usize> = HashMap::new();

        for (case, &(key_index, weight)) in ops.iter().enumerate() {
            let key = spread_key(key_index);
            let was_resident = cache.peek(key).is_some();
            prop_assert_eq!(
                was_resident, model.resident(key),
                "residency diverged before op {} (key {})", case, key_index
            );

            let mut computed = false;
            let value = cache.get_or_compute(key, || {
                computed = true;
                *computes.entry(key).or_insert(0) += 1;
                Blob { payload: key_index, advertised: weight }
            });
            prop_assert_eq!(value.payload, key_index);

            // Exactly-once per resident key: a resident key never
            // recomputes; a non-resident key always does (single thread).
            prop_assert_eq!(
                computed, !was_resident,
                "op {}: compute ran {} for a key that was{} resident",
                case, computed, if was_resident { "" } else { " not" }
            );

            let model_hit = model.access(key, weight);
            prop_assert_eq!(model_hit, was_resident);

            // Budgets never exceeded after the insert finished.
            let resident = cache.stats().resident_bytes;
            prop_assert!(
                resident <= budget,
                "op {}: {} bytes resident over budget {}", case, resident, budget
            );

            // The resident sets agree key by key (this is exactly the LRU
            // order check: any deviation from least-recently-used-first
            // eviction makes the sets diverge for some op sequence).
            for probe in 0u64..24 {
                let probe_key = spread_key(probe);
                prop_assert_eq!(
                    cache.peek(probe_key).is_some(),
                    model.resident(probe_key),
                    "op {}: resident set diverged at key {}", case, probe
                );
            }
        }

        // Counter cross-checks: model and cache agree on evictions; every
        // compute was for a non-resident key at its time.
        let stats = cache.stats();
        prop_assert_eq!(stats.evictions, model.evictions);
        prop_assert_eq!(stats.resident_bytes, model.bytes);
        prop_assert_eq!(stats.misses, computes.values().sum::<usize>());
    }
}

/// Multithreaded stress: concurrent get_or_compute over an overlapping key
/// set with a tight budget must terminate, keep the cache within budget
/// at quiescence, and never return a wrong value. Exactly-once is asserted
/// in its residency-scoped form: recomputes require an eviction in between,
/// so computes never exceed evictions + resident entries.
#[test]
fn concurrent_eviction_preserves_value_integrity_and_budget() {
    // About 24 values resident against 48 keys.
    let budget = 24 * 48;
    let cache: Arc<FeatureCache<Blob>> =
        Arc::new(FeatureCache::with_config(CacheConfig::with_budget(budget)));
    let computes = Arc::new(AtomicUsize::new(0));

    let threads: Vec<_> = (0..8)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let computes = Arc::clone(&computes);
            std::thread::spawn(move || {
                for round in 0..300u64 {
                    let key_index = (round * 7 + t * 13) % 48;
                    let key = spread_key(key_index);
                    let value = cache.get_or_compute(key, || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        Blob {
                            payload: key_index,
                            advertised: 40 + (key_index as usize % 16),
                        }
                    });
                    assert_eq!(value.payload, key_index, "wrong value for key");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    let stats = cache.stats();
    assert!(
        stats.resident_bytes <= budget,
        "{} bytes resident over budget {budget}",
        stats.resident_bytes
    );
    // Residency-scoped exactly-once: every compute beyond the first for a
    // key must have been preceded by that key's eviction.
    assert!(
        computes.load(Ordering::SeqCst) <= stats.evictions + stats.entries,
        "{} computes but only {} evictions + {} residents",
        computes.load(Ordering::SeqCst),
        stats.evictions,
        stats.entries
    );
    assert_eq!(stats.misses, computes.load(Ordering::SeqCst));
    assert_eq!(stats.hits + stats.misses, 8 * 300);
}
