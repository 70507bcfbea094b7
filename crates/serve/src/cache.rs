//! LRU cache of prepared mitigations keyed by `(method id, measured set)`.
//!
//! The expensive part of answering a calibrate request is not the apply but
//! re-deriving the method's calibration data for the request's measured set
//! ([`qufem_core::Mitigator::prepare`] — for QuFEM, the per-iteration
//! sub-noise matrices and execution plans). Each catalog version entry
//! keeps the most recently used prepared objects across *all* methods in
//! one LRU; preparation is deterministic per `(method, measured set)`, so
//! serving from the cache cannot change any response bit. Nothing below
//! the cache retains a prepared plan, so eviction frees it: the capacity
//! bounds the entry's plan memory.

use qufem_core::PreparedMitigator;
use qufem_types::{QubitSet, Result};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Cache key: method id plus measured qubit set. Two methods prepared for
/// the same measured set occupy distinct entries.
type PlanKey = (String, QubitSet);

/// Thread-safe LRU map from `(method id, measured [`QubitSet`])` to a
/// shared prepared mitigation.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<Lru>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct Lru {
    plans: HashMap<PlanKey, Arc<dyn PreparedMitigator>>,
    /// Keys ordered least-recently-used first.
    order: Vec<PlanKey>,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` prepared mitigations
    /// (`capacity` of 0 behaves like 1: the current entry is always kept).
    pub fn new(capacity: usize) -> Self {
        PlanCache { inner: Mutex::new(Lru::default()), capacity: capacity.max(1) }
    }

    /// Maximum number of cached entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of entries currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("plan cache lock").plans.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        let lru = self.inner.lock().expect("plan cache lock");
        (lru.hits, lru.misses)
    }

    /// Returns the cached preparation for `(method, measured)`, building
    /// and inserting it with `build` on a miss (evicting the least recently
    /// used entry once over capacity).
    ///
    /// `build` runs outside the cache lock, so a slow preparation does not
    /// stall requests for already-cached keys; if two workers race on the
    /// same missing key the loser's build is discarded in favour of the
    /// winner's (both are bit-identical by construction).
    ///
    /// # Errors
    ///
    /// Propagates `build` errors without caching anything.
    pub fn get_or_build(
        &self,
        method: &str,
        measured: &QubitSet,
        build: impl FnOnce() -> Result<Arc<dyn PreparedMitigator>>,
    ) -> Result<Arc<dyn PreparedMitigator>> {
        let key: PlanKey = (method.to_string(), measured.clone());
        {
            let mut lru = self.inner.lock().expect("plan cache lock");
            if let Some(plan) = lru.plans.get(&key).cloned() {
                lru.hits += 1;
                lru.touch(&key);
                return Ok(plan);
            }
            lru.misses += 1;
        }
        let built = build()?;
        let mut lru = self.inner.lock().expect("plan cache lock");
        let plan = match lru.plans.get(&key).cloned() {
            Some(existing) => existing, // lost a race; keep the first insert
            None => {
                lru.plans.insert(key.clone(), Arc::clone(&built));
                lru.order.push(key.clone());
                while lru.plans.len() > self.capacity {
                    let evicted = lru.order.remove(0);
                    lru.plans.remove(&evicted);
                }
                built
            }
        };
        lru.touch(&key);
        Ok(plan)
    }
}

impl Lru {
    /// Moves `key` to the most-recently-used end.
    fn touch(&mut self, key: &PlanKey) {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            let k = self.order.remove(pos);
            self.order.push(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qufem_core::{Mitigator, QuFem, QuFemConfig};
    use qufem_device::presets;

    fn qufem() -> QuFem {
        let config = QuFemConfig::builder()
            .characterization_threshold(5e-4)
            .shots(300)
            .seed(11)
            .build()
            .unwrap();
        QuFem::characterize(&presets::ibmq_7(11), config).unwrap()
    }

    #[test]
    fn caches_and_evicts_in_lru_order() {
        let qufem = qufem();
        let cache = PlanCache::new(2);
        let sets: Vec<QubitSet> = vec![
            [0usize, 1].into_iter().collect(),
            [2usize, 3].into_iter().collect(),
            [4usize, 5].into_iter().collect(),
        ];
        for s in &sets {
            cache.get_or_build("qufem", s, || Mitigator::prepare(&qufem, s)).unwrap();
        }
        assert_eq!(cache.len(), 2, "capacity bound");
        // sets[0] was least recently used and must have been evicted:
        // rebuilding it counts a miss, sets[2] a hit.
        let (_, misses_before) = cache.stats();
        cache.get_or_build("qufem", &sets[2], || Mitigator::prepare(&qufem, &sets[2])).unwrap();
        cache.get_or_build("qufem", &sets[0], || Mitigator::prepare(&qufem, &sets[0])).unwrap();
        let (hits, misses) = cache.stats();
        assert_eq!(misses, misses_before + 1, "evicted set rebuilt");
        assert_eq!(hits, 1, "cached set served without rebuild");
    }

    #[test]
    fn touch_on_hit_protects_recently_used_entries() {
        let qufem = qufem();
        let cache = PlanCache::new(2);
        let a: QubitSet = [0usize, 1].into_iter().collect();
        let b: QubitSet = [2usize, 3].into_iter().collect();
        let c: QubitSet = [4usize, 5].into_iter().collect();
        cache.get_or_build("qufem", &a, || Mitigator::prepare(&qufem, &a)).unwrap();
        cache.get_or_build("qufem", &b, || Mitigator::prepare(&qufem, &b)).unwrap();
        // Touch `a`, then insert `c`: `b` is now the LRU victim.
        cache.get_or_build("qufem", &a, || Mitigator::prepare(&qufem, &a)).unwrap();
        cache.get_or_build("qufem", &c, || Mitigator::prepare(&qufem, &c)).unwrap();
        let mut rebuilt_b = false;
        cache
            .get_or_build("qufem", &b, || {
                rebuilt_b = true;
                Mitigator::prepare(&qufem, &b)
            })
            .unwrap();
        assert!(rebuilt_b, "b should have been evicted after a was touched");
        let mut rebuilt_c = false;
        cache
            .get_or_build("qufem", &c, || {
                rebuilt_c = true;
                Mitigator::prepare(&qufem, &c)
            })
            .unwrap();
        assert!(!rebuilt_c, "c must still be cached");
    }

    #[test]
    fn method_id_is_part_of_the_key() {
        let qufem = qufem();
        let cache = PlanCache::new(4);
        let s: QubitSet = [0usize, 1].into_iter().collect();
        cache.get_or_build("qufem", &s, || Mitigator::prepare(&qufem, &s)).unwrap();
        let mut built_other = false;
        cache
            .get_or_build("other", &s, || {
                built_other = true;
                Mitigator::prepare(&qufem, &s)
            })
            .unwrap();
        assert!(built_other, "same measured set under another method id must miss");
        assert_eq!(cache.len(), 2);
        let (hits, _) = cache.stats();
        assert_eq!(hits, 0);
    }

    #[test]
    fn build_errors_are_not_cached() {
        let qufem = qufem();
        let cache = PlanCache::new(2);
        let out_of_range: QubitSet = [0usize, 99].into_iter().collect();
        assert!(cache
            .get_or_build("qufem", &out_of_range, || Mitigator::prepare(&qufem, &out_of_range))
            .is_err());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn evicted_plans_are_freed() {
        let qufem = qufem();
        let cache = PlanCache::new(1);
        let a: QubitSet = [0usize, 1].into_iter().collect();
        let b: QubitSet = [2usize, 3].into_iter().collect();
        let plan = cache.get_or_build("qufem", &a, || Mitigator::prepare(&qufem, &a)).unwrap();
        let weak = Arc::downgrade(&plan);
        drop(plan);
        assert!(weak.upgrade().is_some(), "cached plan stays alive");
        cache.get_or_build("qufem", &b, || Mitigator::prepare(&qufem, &b)).unwrap();
        assert!(weak.upgrade().is_none(), "evicted plan must be freed");
    }
}
