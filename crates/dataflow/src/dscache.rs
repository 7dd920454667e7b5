//! The shared, byte-budgeted dataset cache: where forced materializations
//! live, instead of per-dataset `Arc<OnceLock>` pins that nothing could
//! ever release.
//!
//! One [`DatasetCache`] is owned by a [`Context`](crate::Context) and
//! shared by every [`fork`](crate::Context::fork)ed tenant context, so a
//! multi-tenant server runs all sessions under **one** budget. Entries are
//! keyed by a dataset's stable cache id (a [`CacheSlot`], shared by clones
//! of the dataset and embedded in downstream plans through
//! `PlanOp::Cached`) and live in two tiers:
//!
//! * **memory** — the materialized `Arc<Vec<Vec<Value>>>`, charged its
//!   sampled in-memory byte estimate against the budget
//!   (`DIABLO_DATASET_BUDGET` / [`Context::set_dataset_budget`]);
//! * **disk** — the partitions encoded with the exchange's canonical
//!   binary codec ([`crate::encode_value`]) into one file per entry, with
//!   a per-partition `(offset, len, rows)` index so reads decode segment
//!   by segment. Disk entries are charged their encoded size against a
//!   ledger of [`DISK_BUDGET_FACTOR`] × the memory budget.
//!
//! Inserting past the memory budget **demotes** least-recently-used
//! memory entries to disk (a dataset spill); past the disk ledger, LRU
//! disk entries are **evicted** outright and marked, so the next read
//! misses and the owner transparently **recomputes** the dataset from its
//! plan lineage and reinserts it. A budget of `0` disables caching
//! entirely (every insert is an immediate eviction; deterministic
//! recompute keeps results byte-identical), and an unbounded budget (the
//! default) keeps every entry in memory forever — the pre-cache behavior.
//!
//! Eviction, spill, and recompute events are counted on the **calling
//! context's** statistics (the cache itself is shared across tenants, the
//! counters are not), as `dataset_spills` / `dataset_spilled_bytes` /
//! `dataset_evictions` / `dataset_recomputes`.
//!
//! Entry lifetime is tied to its [`CacheSlot`]: when the last dataset
//! clone *and* the last plan referencing the slot drop, the slot's `Drop`
//! removes the entry — a re-bound session variable frees its old
//! materialization instead of pinning it for the life of the process.
//!
//! No code under the cache's lock panics. Should a thread panic there
//! anyway, the poisoned cache is bypassed: every read misses and every
//! insert stores nothing, so each dataset is recomputed from its lineage.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use diablo_runtime::{RuntimeError, Value};

use crate::dataset::estimate_bytes;
use crate::exchange::{decode_value, encode_value};
use crate::plan::Result;
use crate::Context;

/// How many memory budgets' worth of **encoded** bytes the disk tier may
/// hold before LRU disk entries are dropped outright. Disk is cheap but
/// not free: without a cap, a long-lived session would fill the temp
/// volume exactly the way the old pinned cache filled RAM.
const DISK_BUDGET_FACTOR: u64 = 8;

/// Process-wide counter behind every dataset cache id.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// Process-wide counter naming each cache's temp directory.
static CACHE_ID: AtomicU64 = AtomicU64::new(0);

/// A dataset's stable cache identity. Clones of a dataset share one slot;
/// `PlanOp::Cached` nodes in downstream plans hold the slot too, so the
/// entry outlives the dataset handle for exactly as long as some plan can
/// still read it. Dropping the last reference removes the entry.
pub(crate) struct CacheSlot {
    id: u64,
    cache: Arc<DatasetCache>,
}

impl CacheSlot {
    pub(crate) fn new(cache: Arc<DatasetCache>) -> CacheSlot {
        CacheSlot {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            cache,
        }
    }

    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    pub(crate) fn cache(&self) -> &Arc<DatasetCache> {
        &self.cache
    }
}

impl Drop for CacheSlot {
    fn drop(&mut self) {
        // Nothing can read this entry again — not an eviction, so no
        // counter and no evicted mark (a mark would count phantom
        // recomputes for an id that can never be forced again).
        self.cache.forget(self.id);
    }
}

/// Where one entry's partitions live.
/// One spilled partition inside an entry's file: byte offset, encoded
/// length, and row count.
type Segment = (u64, u64, usize);

enum Tier {
    /// In memory, charged its sampled byte estimate.
    Mem(Arc<Vec<Vec<Value>>>),
    /// On disk: one encoded file with a per-partition segment index.
    Disk {
        path: PathBuf,
        /// `(offset, encoded len, rows)` per partition.
        index: Vec<Segment>,
    },
}

struct Entry {
    tier: Tier,
    /// Bytes charged against the tier's ledger.
    bytes: u64,
    /// LRU clock value of the last touch.
    touched: u64,
}

struct Inner {
    entries: HashMap<u64, Entry>,
    /// Ids the cache dropped under pressure: a read of one of these is a
    /// **recompute**, counted on the reader's stats.
    evicted: HashSet<u64>,
    clock: u64,
    mem_bytes: u64,
    disk_bytes: u64,
    /// The cache's temp directory, created on first spill.
    dir: Option<PathBuf>,
}

/// The shared dataset cache. See the module docs for the tiering and
/// eviction contract.
pub(crate) struct DatasetCache {
    /// Memory budget in bytes; `u64::MAX` means unbounded.
    budget: AtomicU64,
    /// Names this cache's temp directory.
    cache_id: u64,
    inner: Mutex<Inner>,
}

impl DatasetCache {
    pub(crate) fn new(budget: u64) -> DatasetCache {
        DatasetCache {
            budget: AtomicU64::new(budget),
            cache_id: CACHE_ID.fetch_add(1, Ordering::Relaxed),
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                evicted: HashSet::new(),
                clock: 0,
                mem_bytes: 0,
                disk_bytes: 0,
                dir: None,
            }),
        }
    }

    /// Sets the memory budget; `u64::MAX` means unbounded. Applies to the
    /// next insert — already-resident entries are not re-evaluated until
    /// something new comes in.
    pub(crate) fn set_budget(&self, bytes: u64) {
        self.budget.store(bytes, Ordering::Relaxed);
    }

    /// The memory budget in bytes (`u64::MAX` = unbounded).
    pub(crate) fn budget(&self) -> u64 {
        self.budget.load(Ordering::Relaxed)
    }

    /// Whether the id currently has a readable entry (either tier).
    pub(crate) fn contains(&self, id: u64) -> bool {
        self.inner
            .lock()
            .is_ok_and(|inner| inner.entries.contains_key(&id))
    }

    /// `(partitions, total rows)` of a resident entry, without touching
    /// the LRU clock or reading disk — for `Debug` rendering.
    pub(crate) fn shape(&self, id: u64) -> Option<(usize, usize)> {
        let inner = self.inner.lock().ok()?;
        inner.entries.get(&id).map(|e| match &e.tier {
            Tier::Mem(parts) => (parts.len(), parts.iter().map(Vec::len).sum()),
            Tier::Disk { index, .. } => (index.len(), index.iter().map(|&(_, _, r)| r).sum()),
        })
    }

    /// Reads an entry: a memory hit is a clone of the shared `Arc`, a
    /// disk hit decodes the entry's file segment by segment. A disk entry
    /// whose file cannot be read back whole is dropped and counted as an
    /// eviction. A miss on an **evicted** id counts one recompute on
    /// `ctx`'s stats (the caller is about to re-derive the dataset from
    /// its lineage).
    pub(crate) fn get(&self, id: u64, ctx: &Context) -> Result<Option<Arc<Vec<Vec<Value>>>>> {
        let Ok(mut inner) = self.inner.lock() else {
            return Ok(None);
        };
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(entry) = inner.entries.get_mut(&id) {
            entry.touched = clock;
            let read = match &entry.tier {
                Tier::Mem(parts) => return Ok(Some(parts.clone())),
                Tier::Disk { path, index } => read_entry(id, path, index)?,
            };
            if let Some(parts) = read {
                return Ok(Some(Arc::new(parts)));
            }
            remove_entry(&mut inner, id);
            inner.evicted.insert(id);
            ctx.stats().record_dataset_eviction();
        }
        if inner.evicted.contains(&id) {
            ctx.stats().record_dataset_recompute();
        }
        Ok(None)
    }

    /// Inserts a freshly materialized dataset, then enforces both
    /// ledgers: memory overflow demotes LRU memory entries to disk
    /// (counted as dataset spills), disk overflow drops LRU disk entries
    /// outright (counted as evictions, marked for recompute accounting).
    pub(crate) fn insert(&self, id: u64, parts: Arc<Vec<Vec<Value>>>, ctx: &Context) -> Result<()> {
        let budget = self.budget();
        let Ok(mut inner) = self.inner.lock() else {
            return Ok(());
        };
        inner.clock += 1;
        let clock = inner.clock;
        inner.evicted.remove(&id);
        remove_entry(&mut inner, id);
        if budget == 0 {
            // Caching is off: the insert itself is the eviction, and the
            // mark makes the next read count a recompute.
            inner.evicted.insert(id);
            ctx.stats().record_dataset_eviction();
            return Ok(());
        }
        let bytes = estimate_bytes(&parts);
        if budget == u64::MAX || bytes <= budget {
            inner.mem_bytes += bytes;
            inner.entries.insert(
                id,
                Entry {
                    tier: Tier::Mem(parts),
                    bytes,
                    touched: clock,
                },
            );
        } else {
            // Bigger than the whole memory budget: straight to disk.
            let dir = self.dir(&mut inner)?;
            let (path, index, encoded) = spill_entry(&dir, id, &parts)?;
            ctx.stats().record_dataset_spill(encoded);
            inner.disk_bytes += encoded;
            inner.entries.insert(
                id,
                Entry {
                    tier: Tier::Disk { path, index },
                    bytes: encoded,
                    touched: clock,
                },
            );
        }
        if budget == u64::MAX {
            return Ok(());
        }
        // Demote LRU memory entries until memory fits the budget.
        while inner.mem_bytes > budget {
            let Some(victim) = lru_id(&inner, true) else {
                break;
            };
            // `lru_id(_, true)` only names memory entries.
            let Some(Entry {
                tier: Tier::Mem(vparts),
                bytes,
                touched,
            }) = inner.entries.remove(&victim)
            else {
                break;
            };
            inner.mem_bytes -= bytes;
            let dir = self.dir(&mut inner)?;
            let (path, index, encoded) = spill_entry(&dir, victim, &vparts)?;
            ctx.stats().record_dataset_spill(encoded);
            inner.disk_bytes += encoded;
            inner.entries.insert(
                victim,
                Entry {
                    tier: Tier::Disk { path, index },
                    bytes: encoded,
                    touched,
                },
            );
        }
        // Drop LRU disk entries until the disk ledger fits its cap.
        let disk_cap = budget.saturating_mul(DISK_BUDGET_FACTOR);
        while inner.disk_bytes > disk_cap {
            let Some(victim) = lru_id(&inner, false) else {
                break;
            };
            remove_entry(&mut inner, victim);
            inner.evicted.insert(victim);
            ctx.stats().record_dataset_eviction();
        }
        Ok(())
    }

    /// Slot-drop cleanup: drops an entry and clears its evicted mark —
    /// the id can never be read again, so the entry and any mark are dead
    /// weight.
    fn forget(&self, id: u64) {
        if let Ok(mut inner) = self.inner.lock() {
            remove_entry(&mut inner, id);
            inner.evicted.remove(&id);
        }
    }

    /// The cache's temp directory, created on first spill.
    fn dir(&self, inner: &mut Inner) -> Result<PathBuf> {
        if let Some(dir) = &inner.dir {
            return Ok(dir.clone());
        }
        let dir = std::env::temp_dir().join(format!(
            "diablo-dataset-cache-{}-{}",
            std::process::id(),
            self.cache_id
        ));
        std::fs::create_dir_all(&dir).map_err(io_err)?;
        inner.dir = Some(dir.clone());
        Ok(dir)
    }
}

impl Drop for DatasetCache {
    fn drop(&mut self) {
        // A poisoned cache still owns its files.
        let inner = self.inner.get_mut().unwrap_or_else(PoisonError::into_inner);
        if let Some(dir) = &inner.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The least-recently-touched entry id in one tier (`mem` selects the
/// memory tier). O(entries), like the serve result cache — entry counts
/// are session-variable counts, not row counts.
fn lru_id(inner: &Inner, mem: bool) -> Option<u64> {
    inner
        .entries
        .iter()
        .filter(|(_, e)| matches!(e.tier, Tier::Mem(_)) == mem)
        .min_by_key(|(_, e)| e.touched)
        .map(|(id, _)| *id)
}

/// Removes an entry, unwinding its ledger charge and deleting its file.
fn remove_entry(inner: &mut Inner, id: u64) {
    if let Some(entry) = inner.entries.remove(&id) {
        match &entry.tier {
            Tier::Mem(_) => inner.mem_bytes -= entry.bytes,
            Tier::Disk { path, .. } => {
                inner.disk_bytes -= entry.bytes;
                let _ = std::fs::remove_file(path);
            }
        }
    }
}

/// Encodes every partition of an entry into one file, returning the
/// per-partition segment index and the encoded size.
fn spill_entry(dir: &Path, id: u64, parts: &[Vec<Value>]) -> Result<(PathBuf, Vec<Segment>, u64)> {
    let mut buf = Vec::new();
    let mut index = Vec::with_capacity(parts.len());
    for part in parts {
        let off = buf.len() as u64;
        for row in part {
            encode_value(row, &mut buf)?;
        }
        index.push((off, buf.len() as u64 - off, part.len()));
    }
    let path = dir.join(format!("ds-{id}.bin"));
    std::fs::write(&path, &buf).map_err(io_err)?;
    Ok((path, index, buf.len() as u64))
}

/// Decodes a disk entry back into partitions, segment by segment. `None`
/// when the file cannot be read back whole: missing or unreadable, a
/// segment past its end, bytes the codec rejects, or a partition whose
/// row count differs from the spilled index's (under the plan verifier
/// that last one is an error).
fn read_entry(id: u64, path: &Path, index: &[Segment]) -> Result<Option<Vec<Vec<Value>>>> {
    let Ok(data) = std::fs::read(path) else {
        return Ok(None);
    };
    let mut parts = Vec::with_capacity(index.len());
    for (p, &(off, len, rows)) in index.iter().enumerate() {
        let Some(mut cur) = data.get(off as usize..(off + len) as usize) else {
            return Ok(None);
        };
        let mut out = Vec::with_capacity(rows);
        while !cur.is_empty() {
            let Ok(row) = decode_value(&mut cur) else {
                return Ok(None);
            };
            out.push(row);
        }
        crate::verify::verify_cached_partition(id, p, rows, out.len())?;
        if out.len() != rows {
            return Ok(None);
        }
        parts.push(out);
    }
    Ok(Some(parts))
}

fn io_err(e: std::io::Error) -> RuntimeError {
    RuntimeError::new(format!("dataset cache I/O: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Context {
        Context::new(2, 2)
    }

    fn rows(n: i64) -> Arc<Vec<Vec<Value>>> {
        Arc::new(vec![(0..n).map(Value::Long).collect(), Vec::new()])
    }

    #[test]
    fn unbounded_cache_keeps_everything_in_memory() {
        let c = ctx();
        let cache = DatasetCache::new(u64::MAX);
        cache.insert(1, rows(100), &c).unwrap();
        cache.insert(2, rows(100), &c).unwrap();
        assert!(cache.contains(1) && cache.contains(2));
        let got = cache.get(1, &c).unwrap().unwrap();
        assert_eq!(got[0].len(), 100);
        let snap = c.stats().snapshot();
        assert_eq!(snap.dataset_spills, 0);
        assert_eq!(snap.dataset_evictions, 0);
    }

    #[test]
    fn memory_pressure_demotes_lru_to_disk_byte_identically() {
        let c = ctx();
        let parts = rows(64);
        let budget = estimate_bytes(&parts) + 1;
        let cache = DatasetCache::new(budget);
        cache.insert(1, parts.clone(), &c).unwrap();
        // The second insert pushes entry 1 (LRU) to disk.
        cache.insert(2, rows(64), &c).unwrap();
        let snap = c.stats().snapshot();
        assert!(snap.dataset_spills >= 1, "{snap:?}");
        assert!(snap.dataset_spilled_bytes > 0);
        let got = cache.get(1, &c).unwrap().expect("still readable");
        assert_eq!(got.as_ref(), parts.as_ref(), "disk round-trip is exact");
    }

    #[test]
    fn disk_overflow_evicts_and_counts_recompute_on_next_read() {
        let c = ctx();
        // Budget so small everything demotes, disk cap 8× still tiny.
        let cache = DatasetCache::new(1);
        cache.insert(1, rows(64), &c).unwrap();
        cache.insert(2, rows(64), &c).unwrap();
        let snap = c.stats().snapshot();
        assert!(snap.dataset_evictions >= 1, "{snap:?}");
        // At least one id is gone; reading it counts one recompute.
        let victim = if cache.contains(1) { 2 } else { 1 };
        assert!(cache.get(victim, &c).unwrap().is_none());
        assert_eq!(c.stats().snapshot().dataset_recomputes, 1);
        // Reinserting clears the mark.
        cache.insert(victim, rows(64), &c).unwrap();
    }

    #[test]
    fn zero_budget_disables_caching() {
        let c = ctx();
        let cache = DatasetCache::new(0);
        cache.insert(7, rows(10), &c).unwrap();
        assert!(!cache.contains(7));
        assert_eq!(c.stats().snapshot().dataset_evictions, 1);
        assert!(cache.get(7, &c).unwrap().is_none());
        assert_eq!(c.stats().snapshot().dataset_recomputes, 1);
    }

    /// A cache holding entry 1 on disk (demoted by entry 2), and the
    /// entry's file.
    fn spilled(c: &Context) -> (DatasetCache, PathBuf) {
        let cache = DatasetCache::new(estimate_bytes(&rows(64)) + 1);
        cache.insert(1, rows(64), c).unwrap();
        cache.insert(2, rows(64), c).unwrap();
        let inner = cache.inner.lock().unwrap();
        let Tier::Disk { path, .. } = &inner.entries[&1].tier else {
            panic!("entry 1 stayed in memory");
        };
        let path = path.clone();
        drop(inner);
        (cache, path)
    }

    /// Reading entry 1 misses: one eviction, one recompute; a reinsert
    /// reads back.
    fn read_is_an_eviction(c: &Context, cache: &DatasetCache) {
        let before = c.stats().snapshot();
        assert!(cache.get(1, c).unwrap().is_none());
        let snap = c.stats().snapshot().since(&before);
        assert_eq!((snap.dataset_evictions, snap.dataset_recomputes), (1, 1));
        assert!(!cache.contains(1));
        cache.insert(1, rows(64), c).unwrap();
        assert_eq!(
            cache.get(1, c).unwrap().unwrap().as_ref(),
            rows(64).as_ref()
        );
    }

    #[test]
    fn a_deleted_cache_file_is_an_eviction() {
        let c = ctx();
        let (cache, path) = spilled(&c);
        std::fs::remove_file(&path).unwrap();
        read_is_an_eviction(&c, &cache);
    }

    #[test]
    fn a_truncated_or_garbled_cache_file_is_an_eviction() {
        let c = ctx();
        let garble = |bytes: Vec<u8>| vec![0xff; bytes.len()];
        let truncate = |mut bytes: Vec<u8>| {
            bytes.truncate(bytes.len() / 2);
            bytes
        };
        for damage in [&truncate as &dyn Fn(Vec<u8>) -> Vec<u8>, &garble] {
            let (cache, path) = spilled(&c);
            std::fs::write(&path, damage(std::fs::read(&path).unwrap())).unwrap();
            read_is_an_eviction(&c, &cache);
        }
    }

    #[test]
    fn a_dataset_whose_cache_file_is_gone_recomputes_from_lineage() {
        let c = Context::new(2, 2).with_dataset_budget(256);
        let d = c.range(0, 99).unwrap().map(|v| Ok(v.clone())).unwrap();
        let want = d.materialize().unwrap().collect();
        let inner = c.dataset_cache().inner.lock().unwrap();
        let paths: Vec<PathBuf> = inner
            .entries
            .values()
            .filter_map(|e| match &e.tier {
                Tier::Disk { path, .. } => Some(path.clone()),
                Tier::Mem(_) => None,
            })
            .collect();
        drop(inner);
        assert!(!paths.is_empty(), "the dataset spilled");
        paths.iter().for_each(|p| std::fs::remove_file(p).unwrap());
        assert_eq!(d.collect(), want);
        assert!(c.stats().snapshot().dataset_recomputes >= 1);
    }

    #[test]
    fn a_poisoned_cache_is_bypassed_and_datasets_recompute() {
        let c = Context::new(2, 2).with_dataset_budget(256);
        let d = c.range(0, 99).unwrap().map(|v| Ok(v.clone())).unwrap();
        let want: Vec<Value> = (0..=99).map(Value::Long).collect();
        assert_eq!(d.materialize().unwrap().collect(), want);
        let cache = c.dataset_cache().clone();
        let (dir, held) = {
            let inner = cache.inner.lock().unwrap();
            (inner.dir.clone().expect("spilled"), inner.entries.len())
        };
        let holder = cache.clone();
        let poisoner = std::thread::spawn(move || {
            let _held = holder.inner.lock().unwrap();
            panic!("a thread panics holding the dataset cache lock");
        });
        assert!(poisoner.join().is_err());
        assert!(cache.inner.is_poisoned());
        // Nothing reads as cached, nothing is stored, and every force
        // recomputes the same rows from lineage.
        let e = d.map(|v| Ok(v.clone())).unwrap().materialize().unwrap();
        for _ in 0..2 {
            assert_eq!(d.collect(), want);
            assert_eq!(e.collect(), want);
        }
        let inner = cache.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let ids: Vec<u64> = inner.entries.keys().copied().collect();
        assert_eq!(ids.len(), held, "no insert stored anything");
        drop(inner);
        for id in ids {
            assert!(!cache.contains(id));
            assert_eq!(cache.shape(id), None);
            cache.forget(id);
        }
        // The temp dir goes with the cache, poisoned or not.
        drop((d, e, c, cache));
        assert!(!dir.exists(), "{dir:?}");
    }

    #[test]
    fn remove_clears_entry_and_mark() {
        let c = ctx();
        let cache = DatasetCache::new(0);
        cache.insert(3, rows(4), &c).unwrap();
        cache.forget(3);
        assert!(cache.get(3, &c).unwrap().is_none());
        assert_eq!(
            c.stats().snapshot().dataset_recomputes,
            0,
            "a forgotten id is not a cache-pressure recompute"
        );
    }
}
