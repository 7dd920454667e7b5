//! The server's two LRU maps: the plan-hash-keyed result cache and the
//! compiled-program memo, one `Lru` each.
//!
//! [`ResultCache`] keys are the 64-bit chain `fold(plan_hash, input
//! fingerprints…)` built by the server (see [`crate::planhash`]); values
//! are the **encoded outputs section** of a `RunOk` payload — every
//! visible program variable of a finished run, as the bytes that go on the
//! wire. A hit, a coalesced waiter and the miss that filled the entry all
//! answer by framing those bytes with the request's stats and warnings;
//! no output is rebuilt or re-encoded. Entries are charged their real byte
//! length against a byte budget; inserting past the budget evicts
//! least-recently-used entries first, and an entry larger than the whole
//! budget is simply not cached (the run still happened — caching is an
//! optimization, never a correctness gate).
//!
//! Reads and writes take one mutex; the critical sections are hash-map
//! lookups and `Arc` clones, never byte copies, so the lock is invisible
//! next to program execution. A hit returns the `Arc` — concurrent
//! requests serving the same program share one allocation.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A cached run result: the encoded outputs section of one program
/// execution's `RunOk` payload (see [`crate::proto`]).
#[derive(Debug)]
pub struct CachedRun {
    /// `(name, output)` per visible program variable, sorted by name, as
    /// the wire encodes them.
    pub section: Vec<u8>,
}

struct Entry<V> {
    value: V,
    cost: u64,
    /// Last-touch tick for LRU ordering.
    touched: u64,
}

struct Inner<K, V> {
    map: HashMap<K, Entry<V>>,
    clock: u64,
    cost: u64,
}

/// A cost-budgeted LRU map: every entry is charged a cost, and inserting
/// past the budget evicts least-recently-touched entries until the new
/// one fits.
pub(crate) struct Lru<K, V> {
    budget: u64,
    inner: Mutex<Inner<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> Lru<K, V> {
    pub(crate) fn new(budget: u64) -> Lru<K, V> {
        Lru {
            budget,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                clock: 0,
                cost: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks up a key, refreshing its recency; `count` says whether the
    /// lookup feeds the hit/miss counters.
    fn lookup<Q>(&self, key: &Q, count: bool) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut inner = self.inner.lock().expect("lru lock");
        inner.clock += 1;
        let clock = inner.clock;
        let found = inner.map.get_mut(key).map(|e| {
            e.touched = clock;
            e.value.clone()
        });
        if count {
            let counter = if found.is_some() {
                &self.hits
            } else {
                &self.misses
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Looks up a key, refreshing its recency and counting a hit or miss.
    pub(crate) fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.lookup(key, true)
    }

    /// Inserts `value` at `cost`, evicting LRU entries until it fits. A
    /// value costing more than the whole budget is not stored.
    pub(crate) fn put(&self, key: K, value: V, cost: u64) {
        if cost > self.budget {
            return;
        }
        let mut inner = self.inner.lock().expect("lru lock");
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(old) = inner.map.remove(&key) {
            inner.cost -= old.cost;
        }
        while inner.cost + cost > self.budget {
            // O(n) LRU scan: entry counts are small (whole run results or
            // whole programs, not rows), so a scan beats maintaining an
            // ordered list.
            let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.touched)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            let e = inner.map.remove(&victim).expect("victim present");
            inner.cost -= e.cost;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        inner.cost += cost;
        inner.map.insert(
            key,
            Entry {
                value,
                cost,
                touched: clock,
            },
        );
    }

    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub(crate) fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub(crate) fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Current `(entries, cost)` occupancy.
    pub(crate) fn occupancy(&self) -> (u64, u64) {
        let inner = self.inner.lock().expect("lru lock");
        (inner.map.len() as u64, inner.cost)
    }
}

/// A byte-budgeted LRU map from cache key to encoded run result.
pub struct ResultCache {
    lru: Lru<u64, Arc<CachedRun>>,
}

impl ResultCache {
    /// Creates a cache holding at most `budget` bytes of encoded outputs.
    /// A zero budget disables caching entirely (every insert is a no-op).
    pub fn new(budget: u64) -> ResultCache {
        ResultCache {
            lru: Lru::new(budget),
        }
    }

    /// Looks up a key, refreshing its recency on a hit.
    pub fn get(&self, key: u64) -> Option<Arc<CachedRun>> {
        self.lru.get(&key)
    }

    /// Looks up a key, refreshing recency but **not** the hit/miss
    /// counters — for the server's coalescing double-check, which
    /// re-probes right after the counted [`ResultCache::get`] and would
    /// otherwise count every cold request as two misses.
    pub fn peek(&self, key: u64) -> Option<Arc<CachedRun>> {
        self.lru.lookup(&key, false)
    }

    /// Inserts an encoded outputs section under a key, charged at its
    /// length, evicting LRU entries until it fits. Oversized results
    /// (bigger than the whole budget) are not cached.
    pub fn put(&self, key: u64, section: Vec<u8>) -> Arc<CachedRun> {
        let bytes = section.len() as u64;
        let run = Arc::new(CachedRun { section });
        self.lru.put(key, run.clone(), bytes);
        run
    }

    /// Cache hits served so far.
    pub fn hits(&self) -> u64 {
        self.lru.hits()
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.lru.misses()
    }

    /// Entries evicted by the byte budget so far.
    pub fn evictions(&self) -> u64 {
        self.lru.evictions()
    }

    /// Current `(entries, bytes)` occupancy.
    pub fn occupancy(&self) -> (u64, u64) {
        self.lru.occupancy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{encode_outputs, Output};
    use diablo_runtime::Value;

    fn run_of(n: i64, rows: usize) -> Vec<u8> {
        encode_outputs(&[(
            format!("v{n}"),
            Output::Rows(
                (0..rows)
                    .map(|i| Value::pair(Value::Long(i as i64), Value::Long(n)))
                    .collect(),
            ),
        )])
        .expect("encodes")
    }

    #[test]
    fn hit_returns_the_same_rows() {
        let cache = ResultCache::new(1 << 20);
        assert!(cache.get(7).is_none());
        let put = cache.put(7, run_of(1, 4));
        let got = cache.get(7).expect("hit");
        assert!(Arc::ptr_eq(&got, &put), "a hit shares the stored bytes");
        assert_eq!(got.section, run_of(1, 4));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn budget_evicts_least_recently_used() {
        let one = run_of(0, 10).len() as u64;
        let cache = ResultCache::new(2 * one + 1);
        cache.put(1, run_of(1, 10));
        cache.put(2, run_of(2, 10));
        cache.get(1); // refresh 1: victim becomes 2
        cache.put(3, run_of(3, 10));
        assert!(cache.get(1).is_some());
        assert!(cache.get(2).is_none(), "LRU entry evicted");
        assert!(cache.get(3).is_some());
        assert_eq!(cache.evictions(), 1);
        let (entries, bytes) = cache.occupancy();
        assert_eq!(entries, 2);
        assert!(bytes <= 2 * one + 1);
    }

    #[test]
    fn oversized_and_zero_budget_results_are_not_cached() {
        let cache = ResultCache::new(8);
        cache.put(1, run_of(1, 100));
        assert!(cache.get(1).is_none());
        let off = ResultCache::new(0);
        off.put(2, run_of(2, 1));
        assert!(off.get(2).is_none());
    }

    #[test]
    fn reinsert_replaces_without_double_charge() {
        let cache = ResultCache::new(1 << 20);
        cache.put(5, run_of(1, 10));
        cache.put(5, run_of(2, 10));
        let (entries, bytes) = cache.occupancy();
        assert_eq!(entries, 1);
        assert_eq!(
            bytes,
            run_of(2, 10).len() as u64,
            "charged its encoded length"
        );
    }
}
