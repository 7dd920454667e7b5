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
//! * **memory** — the materialized rows as a [`Base`] (one row vector
//!   and its partition ends), charged its sampled in-memory byte estimate
//!   against the budget (`DIABLO_DATASET_BUDGET` /
//!   [`Context::set_dataset_budget`]);
//! * **disk** — the row vector written as one frame of its boxed lane
//!   ([`chunk::encode_frame`], the format of the exchange's spill runs)
//!   into one file per entry, which keeps its partition ends; a read
//!   decodes exactly the entry's row count back into one vector
//!   ([`chunk::decode_frame`]). Disk entries are charged their encoded
//!   size against a ledger of [`DISK_BUDGET_FACTOR`] × the memory budget.
//!
//! Inserting past the memory budget **demotes** least-recently-used
//! memory entries to disk (a dataset spill); past the disk ledger, LRU
//! disk entries are **evicted** outright and marked, so the next read
//! misses and the owner transparently **recomputes** the dataset from its
//! plan lineage and reinserts it. A file that cannot be written, or read
//! back whole, is an eviction too: the rows were computed correctly, so a
//! lost file costs one recompute, never a query error. A budget of `0`
//! disables caching entirely (every insert is an immediate eviction;
//! deterministic recompute keeps results byte-identical), and an
//! unbounded budget (the default) keeps every entry in memory forever —
//! the pre-cache behavior.
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

use diablo_runtime::size::{sampled_size, serialized_size};

use crate::chunk::{self, Chunk};
use crate::columnar::VCol;
use crate::plan::Base;
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

/// Where one entry's rows live.
enum Tier {
    /// In memory, charged its sampled byte estimate.
    Mem(Base),
    /// On disk: one frame of the rows' boxed lane, and where each
    /// partition ends.
    Disk { path: PathBuf, ends: Arc<[usize]> },
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
    /// The cache's temp directory while it holds a file: made by a spill,
    /// removed with the last file.
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
        inner.entries.get(&id).map(|e| {
            let ends = match &e.tier {
                Tier::Mem(base) => base.ends(),
                Tier::Disk { ends, .. } => ends,
            };
            (ends.len(), ends.last().copied().unwrap_or(0))
        })
    }

    /// Reads an entry: a memory hit is a clone of the shared [`Base`], a
    /// disk hit decodes the entry's frame into a new one. A disk entry
    /// whose file cannot be read back whole is dropped and counted as an
    /// eviction. A miss on an **evicted** id counts one recompute on
    /// `ctx`'s stats (the caller is about to re-derive the dataset from
    /// its lineage).
    pub(crate) fn get(&self, id: u64, ctx: &Context) -> Option<Base> {
        let mut inner = self.inner.lock().ok()?;
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(entry) = inner.entries.get_mut(&id) {
            entry.touched = clock;
            let read = match &entry.tier {
                Tier::Mem(base) => return Some(base.clone()),
                Tier::Disk { path, ends } => read_entry(path, ends),
            };
            if read.is_some() {
                return read;
            }
            evict(&mut inner, id, ctx);
        }
        if inner.evicted.contains(&id) {
            ctx.stats().record_dataset_recompute();
        }
        None
    }

    /// Inserts a freshly materialized dataset, then enforces both
    /// ledgers: memory overflow demotes LRU memory entries to disk
    /// (counted as dataset spills), disk overflow drops LRU disk entries
    /// outright (counted as evictions, marked for recompute accounting).
    /// An entry whose file cannot be written is evicted the same way.
    pub(crate) fn insert(&self, id: u64, base: Base, ctx: &Context) {
        let budget = self.budget();
        let Ok(mut inner) = self.inner.lock() else {
            return;
        };
        inner.clock += 1;
        let clock = inner.clock;
        inner.evicted.remove(&id);
        remove_entry(&mut inner, id);
        if budget == 0 {
            // Caching is off: the insert itself is the eviction, and the
            // mark makes the next read count a recompute.
            evict(&mut inner, id, ctx);
            return;
        }
        let bytes = estimate_bytes(&base);
        if budget == u64::MAX || bytes <= budget {
            inner.mem_bytes += bytes;
            inner.entries.insert(
                id,
                Entry {
                    tier: Tier::Mem(base),
                    bytes,
                    touched: clock,
                },
            );
        } else {
            // Bigger than the whole memory budget: straight to disk.
            self.spill(&mut inner, id, &base, clock, ctx);
        }
        if budget == u64::MAX {
            return;
        }
        // Demote LRU memory entries until memory fits the budget.
        while inner.mem_bytes > budget {
            let Some(victim) = lru_id(&inner, true) else {
                break;
            };
            // `lru_id(_, true)` only names memory entries.
            let Some(Entry {
                tier: Tier::Mem(vbase),
                bytes,
                touched,
            }) = inner.entries.remove(&victim)
            else {
                break;
            };
            inner.mem_bytes -= bytes;
            self.spill(&mut inner, victim, &vbase, touched, ctx);
        }
        // Drop LRU disk entries until the disk ledger fits its cap.
        let disk_cap = budget.saturating_mul(DISK_BUDGET_FACTOR);
        while inner.disk_bytes > disk_cap {
            let Some(victim) = lru_id(&inner, false) else {
                break;
            };
            evict(&mut inner, victim, ctx);
        }
    }

    /// Writes `base` to disk as entry `id`, touched at `touched`, counting
    /// a dataset spill; when its file cannot be written, evicts it instead.
    fn spill(&self, inner: &mut Inner, id: u64, base: &Base, touched: u64, ctx: &Context) {
        let Some((path, encoded)) = self.dir(inner).and_then(|dir| spill_entry(&dir, id, base))
        else {
            evict(inner, id, ctx);
            return;
        };
        ctx.stats().record_dataset_spill(encoded);
        inner.disk_bytes += encoded;
        let tier = Tier::Disk {
            path,
            ends: base.ends().clone(),
        };
        inner.entries.insert(
            id,
            Entry {
                tier,
                bytes: encoded,
                touched,
            },
        );
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

    /// The cache's temp directory, made when a spill finds none; `None`
    /// when it cannot be.
    fn dir(&self, inner: &mut Inner) -> Option<PathBuf> {
        if let Some(dir) = &inner.dir {
            return Some(dir.clone());
        }
        let dir = std::env::temp_dir().join(format!(
            "diablo-dataset-cache-{}-{}",
            std::process::id(),
            self.cache_id
        ));
        std::fs::create_dir_all(&dir).ok()?;
        inner.dir = Some(dir.clone());
        Some(dir)
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

/// Drops an entry under pressure and marks it, so the next read counts a
/// recompute; counts one eviction.
fn evict(inner: &mut Inner, id: u64, ctx: &Context) {
    remove_entry(inner, id);
    inner.evicted.insert(id);
    ctx.stats().record_dataset_eviction();
}

/// Removes an entry, unwinding its ledger charge and deleting its file.
/// The last file to go takes the cache's directory with it, so a process
/// that exits with the cache still alive leaves no empty directory behind;
/// the next spill makes it again.
fn remove_entry(inner: &mut Inner, id: u64) {
    if let Some(entry) = inner.entries.remove(&id) {
        match &entry.tier {
            Tier::Mem(_) => inner.mem_bytes -= entry.bytes,
            Tier::Disk { path, .. } => {
                inner.disk_bytes -= entry.bytes;
                let _ = std::fs::remove_file(path);
                let on_disk = |e: &Entry| matches!(e.tier, Tier::Disk { .. });
                let removed = |dir: &Path| std::fs::remove_dir(dir).is_ok();
                let last = !inner.entries.values().any(on_disk);
                if last && inner.dir.as_deref().is_some_and(removed) {
                    inner.dir = None;
                }
            }
        }
    }
}

/// Sampled byte estimate of an entry's rows ([`sampled_size`] per
/// partition).
fn estimate_bytes(base: &Base) -> u64 {
    base.parts()
        .iter()
        .map(|p| sampled_size(p.len(), |i| serialized_size(&p[i])))
        .sum()
}

/// Writes an entry's rows to its file as one frame of their boxed lane,
/// returning the path and the encoded size; `None` when a row cannot be
/// encoded or the file cannot be written.
fn spill_entry(dir: &Path, id: u64, base: &Base) -> Option<(PathBuf, u64)> {
    let rows = Chunk {
        len: base.rows().len(),
        lanes: VCol::Val(base.rows().clone()),
    };
    let mut buf = Vec::new();
    chunk::encode_frame(&rows, &mut buf).ok()?;
    let path = dir.join(format!("ds-{id}.bin"));
    if std::fs::write(&path, &buf).is_err() {
        let _ = std::fs::remove_file(&path);
        return None;
    }
    Some((path, buf.len() as u64))
}

/// Decodes a disk entry back into its rows, cut at `ends`. `None` when
/// the file cannot be read back whole: missing or unreadable, or not
/// exactly one boxed-lane frame of the entry's row count
/// ([`chunk::decode_frame`] reads exactly that count or fails).
fn read_entry(path: &Path, ends: &Arc<[usize]>) -> Option<Base> {
    let data = std::fs::read(path).ok()?;
    let n = ends.last().copied().unwrap_or(0);
    match chunk::decode_frame(&data, n).ok()?.lanes {
        VCol::Val(rows) => Some(Base::cut(rows, ends.clone())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diablo_runtime::Value;

    fn ctx() -> Context {
        Context::new(2, 2)
    }

    /// `0..n` in the first of two partitions.
    fn rows(n: i64) -> Base {
        Base::joined(vec![(0..n).map(Value::Long).collect(), Vec::new()])
    }

    #[test]
    fn unbounded_cache_keeps_everything_in_memory() {
        let c = ctx();
        let cache = DatasetCache::new(u64::MAX);
        cache.insert(1, rows(100), &c);
        cache.insert(2, rows(100), &c);
        assert!(cache.contains(1) && cache.contains(2));
        let got = cache.get(1, &c).unwrap();
        assert_eq!(got.part(0).len(), 100);
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
        cache.insert(1, parts.clone(), &c);
        // The second insert pushes entry 1 (LRU) to disk.
        cache.insert(2, rows(64), &c);
        let snap = c.stats().snapshot();
        assert!(snap.dataset_spills >= 1, "{snap:?}");
        assert!(snap.dataset_spilled_bytes > 0);
        let got = cache.get(1, &c).expect("still readable");
        assert_eq!(got.parts(), parts.parts(), "disk round-trip is exact");
    }

    #[test]
    fn disk_overflow_evicts_and_counts_recompute_on_next_read() {
        let c = ctx();
        // Budget so small everything demotes, disk cap 8× still tiny.
        let cache = DatasetCache::new(1);
        cache.insert(1, rows(64), &c);
        cache.insert(2, rows(64), &c);
        let snap = c.stats().snapshot();
        assert!(snap.dataset_evictions >= 1, "{snap:?}");
        // At least one id is gone; reading it counts one recompute.
        let victim = if cache.contains(1) { 2 } else { 1 };
        assert!(cache.get(victim, &c).is_none());
        assert_eq!(c.stats().snapshot().dataset_recomputes, 1);
        // Reinserting clears the mark.
        cache.insert(victim, rows(64), &c);
    }

    #[test]
    fn zero_budget_disables_caching() {
        let c = ctx();
        let cache = DatasetCache::new(0);
        cache.insert(7, rows(10), &c);
        assert!(!cache.contains(7));
        assert_eq!(c.stats().snapshot().dataset_evictions, 1);
        assert!(cache.get(7, &c).is_none());
        assert_eq!(c.stats().snapshot().dataset_recomputes, 1);
    }

    /// A cache holding entry 1 on disk (demoted by entry 2), and the
    /// entry's file.
    fn spilled(c: &Context) -> (DatasetCache, PathBuf) {
        let cache = DatasetCache::new(estimate_bytes(&rows(64)) + 1);
        cache.insert(1, rows(64), c);
        cache.insert(2, rows(64), c);
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
        assert!(cache.get(1, c).is_none());
        let snap = c.stats().snapshot().since(&before);
        assert_eq!((snap.dataset_evictions, snap.dataset_recomputes), (1, 1));
        assert!(!cache.contains(1));
        cache.insert(1, rows(64), c);
        assert_eq!(cache.get(1, c).unwrap().parts(), rows(64).parts());
    }

    #[test]
    fn a_deleted_cache_file_is_an_eviction() {
        let c = ctx();
        let (cache, path) = spilled(&c);
        std::fs::remove_file(&path).unwrap();
        read_is_an_eviction(&c, &cache);
    }

    #[test]
    fn the_last_disk_entry_takes_the_directory_with_it() {
        let c = ctx();
        let (cache, path) = spilled(&c);
        let dir = path.parent().unwrap().to_path_buf();
        cache.forget(1);
        assert!(!dir.exists(), "{dir:?}");
        assert!(cache.inner.lock().unwrap().dir.is_none());
        // The next spill makes it again: entry 3 demotes entry 2, which
        // reads back as it went in.
        cache.insert(3, rows(64), &c);
        assert!(matches!(
            cache.inner.lock().unwrap().entries[&2].tier,
            Tier::Disk { .. }
        ));
        assert!(dir.exists(), "{dir:?}");
        assert_eq!(cache.get(2, &c).unwrap().parts(), rows(64).parts());
    }

    #[test]
    fn a_truncated_or_garbled_cache_file_is_an_eviction() {
        // The frame is the boxed-lane tag, then 64 longs of 9 bytes each.
        let row = 9;
        let garble = |bytes: Vec<u8>| vec![0xff; bytes.len()];
        let truncate = |mut bytes: Vec<u8>| {
            bytes.truncate(bytes.len() / 2);
            bytes
        };
        let cut_at_a_row = |mut bytes: Vec<u8>| {
            bytes.truncate(bytes.len() - row);
            bytes
        };
        let one_row_more = |mut bytes: Vec<u8>| {
            crate::exchange::encode_value(&Value::Long(64), &mut bytes).unwrap();
            bytes
        };
        let unknown_lane = |mut bytes: Vec<u8>| {
            bytes[0] = 0x7f;
            bytes
        };
        let damages: [&dyn Fn(Vec<u8>) -> Vec<u8>; 5] = [
            &truncate,
            &garble,
            &cut_at_a_row,
            &one_row_more,
            &unknown_lane,
        ];
        for damage in damages {
            // Under the plan verifier too (the debug default): a frame
            // reads exactly its entry's row count or fails.
            let c = ctx();
            let (cache, path) = spilled(&c);
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(bytes.len(), 1 + 64 * row);
            std::fs::write(&path, damage(bytes)).unwrap();
            read_is_an_eviction(&c, &cache);
        }
    }

    #[test]
    fn a_cache_file_that_cannot_be_written_is_an_eviction() {
        let c = ctx();
        let blocker = std::env::temp_dir().join(format!(
            "diablo-dataset-cache-blocker-{}",
            std::process::id()
        ));
        std::fs::write(&blocker, b"a file, not a directory").unwrap();
        let base = rows(64);
        let cache = DatasetCache::new(estimate_bytes(&base) + 1);
        cache.inner.lock().unwrap().dir = Some(blocker.clone());
        cache.insert(1, base.clone(), &c);
        // Entry 2 demotes entry 1, whose file cannot be written: the
        // insert succeeds and entry 1 is evicted.
        cache.insert(2, rows(64), &c);
        let snap = c.stats().snapshot();
        assert_eq!((snap.dataset_spills, snap.dataset_evictions), (0, 1));
        assert!(!cache.contains(1) && cache.contains(2));
        assert!(cache.get(1, &c).is_none());
        assert_eq!(c.stats().snapshot().dataset_recomputes, 1);
        // An entry over the whole budget cannot go straight to disk either.
        cache.insert(3, rows(128), &c);
        assert!(!cache.contains(3));
        assert_eq!(c.stats().snapshot().dataset_evictions, 2);
        // The dataset a write failed for recomputes the same rows.
        let d = Context::new(2, 2).with_dataset_budget(256);
        let dataset = d.range(0, 99).unwrap().map(|v| Ok(v.clone())).unwrap();
        d.dataset_cache().inner.lock().unwrap().dir = Some(blocker.clone());
        let want: Vec<Value> = (0..=99).map(Value::Long).collect();
        assert_eq!(dataset.materialize().unwrap().collect(), want);
        let before = d.stats().snapshot();
        assert_eq!(dataset.collect(), want);
        assert_eq!(d.stats().snapshot().since(&before).dataset_recomputes, 1);
        // The cache's `Drop` removes its directory: take the file back
        // first.
        for cache in [&cache, &**d.dataset_cache()] {
            cache.inner.lock().unwrap().dir = None;
        }
        std::fs::remove_file(&blocker).unwrap();
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
        cache.insert(3, rows(4), &c);
        cache.forget(3);
        assert!(cache.get(3, &c).is_none());
        assert_eq!(
            c.stats().snapshot().dataset_recomputes,
            0,
            "a forgotten id is not a cache-pressure recompute"
        );
    }
}
