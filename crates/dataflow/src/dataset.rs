//! The partitioned [`Dataset`] and its operators, built over the lazy
//! physical plan of [`crate::plan`] and executed by its plan walker in the
//! context's [`Layout`](crate::Layout).
//!
//! Rows are [`Value`]s. Keyed operators (`reduce_by_key`, `group_by_key`,
//! `join`, `merge`) expect rows shaped as `(key, value)` pairs —
//! exactly the sparse-array representation of §3.4 — and hash-partition
//! rows by key before the reduction stage, which is the engine's shuffle.
//! [`Dataset::join_on`] is the same join told as data — both keys as
//! [`RowExpr`]s over rows of any shape — and [`Dataset::join_probe`] the
//! same join against a side small enough to share: one key table built
//! on the driver, probed by a transparent step of the other side's chain.
//! [`Dataset::cross`] is that probe on the constant key `()`.
//!
//! Narrow operators (`map`, `filter`, `flat_map`) are
//! **lazy**: they append a node to the dataset's plan and
//! return immediately. So are the **post-shuffle stages** of the keyed
//! operators: `reduce_by_key` runs its combine+scatter eagerly (the data
//! must move) but leaves the shuffle-read reduction as a pending
//! partition-wise plan node, so `reduce_by_key → map → shuffle` executes
//! in two physical stages, with the reduction fused into the next
//! scatter. Work happens at materialization points — shuffles,
//! [`Dataset::collect`], [`Dataset::reduce`], [`Dataset::broadcast`] —
//! where the walker fuses the pending chain into one physical
//! per-partition stage. Results are deterministic and bit-identical to
//! operator-at-a-time execution: a shuffle distributes rows by key hash,
//! and output order within a partition follows (source partition, source
//! position) order.
//!
//! A lazy dataset consumed by **several** downstream operators re-runs its
//! pending stage per consumer (each derivation captures the plan; only
//! [`Dataset::materialize`]/`force` fills the shared cache). Pin a reused
//! result with [`Dataset::materialize`] — the engine's equivalent of
//! Spark's `cache()` — as the hand-written baselines do for loop-carried
//! datasets. Pinned results live in the context's shared **dataset
//! cache** (an LRU under `DIABLO_DATASET_BUDGET` /
//! [`Context::with_dataset_budget`]): entries past the memory budget
//! demote to disk files, entries past the disk ledger are dropped and
//! transparently **recomputed from the plan** on the next read, and an
//! entry is released as soon as its last referencing dataset or plan is
//! dropped.
//!
//! Errors raised inside a fused chain surface at the materialization point
//! (which is why shuffles and `reduce` return `Result`); the infallible
//! accessors (`collect`, `count`) panic if a pending chain fails — use
//! [`Dataset::try_collect`] / [`Dataset::materialize`] where a deferred
//! error must be handled gracefully.

use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use diablo_runtime::array::key_value_ref;
use diablo_runtime::{AggOp, BinOp, RuntimeError, Value};

use crate::block::{self, BlockContract, BlockZip, ElementCols, Packer};
use crate::chunk::{Bucket, Chunk};
use crate::columnar::{KeyedFold, Probe, ProbeKeys, RowExpr, RowFold, Shape, TileSink};
use crate::exchange::{Exchange, ExchangeWriter, HashPartitioner, KeyedScatter};
use crate::keytable::{Key, KeyTable};
use crate::plan::{self, Base, PartFn, PartOp, PartitionRows, PlanOp, Step, StepOp, Udf};
use crate::Context;

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, RuntimeError>;

/// A combiner of two values of one key, as `reduce_by_key` takes it.
type CombineFn = dyn Fn(&Value, &Value) -> Result<Value> + Send + Sync;

/// How a keyed reduction folds the values of one key.
enum KeyFold {
    /// An opaque combiner (`reduce_by_key`).
    Closure(Arc<CombineFn>),
    /// One monoid per field of the value tuple, visible to the engine
    /// (`aggregate_by_key`).
    Monoids(Arc<[BinOp]>),
}

/// Folds one more `(key, value)` into `acc` with `f`; a key's first value
/// is kept as it is.
fn fold_pair(
    f: &CombineFn,
    acc: &mut KeyTable<Value>,
    k: Key<'_>,
    v: Cow<'_, Value>,
) -> Result<()> {
    let hit = acc.upsert(k, || v.clone().into_owned());
    if !hit.new {
        *hit.value = f(hit.value, &v)?;
    }
    Ok(())
}

impl KeyFold {
    /// The map-side combine: folds a partition's transformed rows per key
    /// and sends every distinct key and its folded value to its bucket
    /// among `partitions`, in first-seen order — as lanes when the
    /// monoids' accumulators are lanes on the columnar layout, as boxed
    /// `(key, folded)` rows otherwise.
    fn combine(
        &self,
        rows: &PartitionRows<'_>,
        sink: &mut ExchangeWriter<'_>,
        partitions: usize,
    ) -> Result<()> {
        let mut emit = |k: Value, v| {
            let b = HashPartitioner.partition(&k, partitions);
            sink.emit(b, Value::pair(k, v))
        };
        match self {
            KeyFold::Monoids(ops) => {
                let mut fold = KeyedFold::new(ops);
                rows.drive(&mut fold)?;
                if rows.columnar() {
                    fold.scatter(sink, partitions)
                } else {
                    fold.finish(&mut emit)
                }
            }
            KeyFold::Closure(f) => {
                let mut acc = KeyTable::new();
                rows.for_each(&mut |row| {
                    let (k, v) = key_value_ref(&row)?;
                    fold_pair(&**f, &mut acc, Key::from(k), Cow::Borrowed(v))
                })?;
                acc.into_entries().try_for_each(|(k, v)| emit(k, v))
            }
        }
    }

    /// The post-shuffle reduce: one `(key, folded)` row per distinct key
    /// of a gathered bucket, in first-seen order — a bucket of lanes
    /// folded as one tile.
    fn reduce(&self, bucket: &Chunk) -> Result<Vec<Value>> {
        let mut out = Vec::new();
        let mut emit = |k, v| {
            out.push(Value::pair(k, v));
            Ok(())
        };
        match self {
            KeyFold::Monoids(ops) => {
                let mut fold = KeyedFold::new(ops);
                fold.tile(&bucket.lanes, bucket.len)?;
                fold.finish(&mut emit)?;
            }
            KeyFold::Closure(f) => {
                let mut acc = KeyTable::new();
                bucket.each_pair(&mut |k, v| fold_pair(&**f, &mut acc, k, v))?;
                acc.into_entries().try_for_each(|(k, v)| emit(k, v))?;
            }
        }
        Ok(out)
    }
}

/// What one side of a keyed operator sends through the exchange.
#[derive(Clone, Copy)]
enum Crossing<'a> {
    /// Its `(key, value)` rows, as they are: a merge or group-by side.
    Pairs,
    /// One `(key, folded)` row per distinct key of a source partition:
    /// `reduce_by_key`'s map-side combine.
    Combined(&'a KeyFold),
    /// The row of each of its `(key, row)` pairs: a join side.
    Rows,
}

/// An equi-join described by data, as [`Dataset::join_on`] takes it: the
/// engine sees both keys and the shape of the right rows, so both scatters
/// are transparent steps of their chains and the rows cross the exchange
/// without a key wrapper.
#[derive(Clone, Debug)]
pub struct JoinOn {
    /// The key of a left row.
    pub left_key: RowExpr,
    /// The shape every right row must have; the leaves it binds are what a
    /// match appends to the left row.
    pub right: Shape,
    /// The key of a right row, over the tuple of its bound leaves.
    pub right_key: RowExpr,
    /// The error text preceding a right row that `right` does not fit.
    pub mismatch: Arc<str>,
}

/// What `Dataset::join` says about a row that is not a `(key, value)`
/// pair — `key_value_ref`'s words, as every pair-keyed operator has them —
/// in [`RowExpr::Unpack`]'s form.
const NOT_A_PAIR: &str = "sparse array element must be a (key, value) pair, got";

/// An immutable, partitioned bag of rows with a lazy physical plan.
#[derive(Clone)]
pub struct Dataset {
    ctx: Context,
    plan: Arc<PlanOp>,
    /// This dataset's slot in the context's shared dataset cache: forcing
    /// fills the slot's entry (so a plan executes at most once no matter
    /// how many readers force it, while the entry stays resident), and
    /// dropping the last clone — of the dataset or of a plan derived
    /// from it — releases the entry. Unlike the old `Arc<OnceLock>` pin
    /// this keeps nothing alive the cache cannot evict.
    slot: Arc<crate::dscache::CacheSlot>,
    /// What is known of the rows without running the plan; shared by the
    /// clones, and new for every derived dataset.
    known: Arc<Known>,
    /// Set once the plan has run without error: forced, or fused into a
    /// stage that finished on every partition ([`Dataset::has_run`]).
    ran: Arc<AtomicBool>,
}

/// The fact record of one dataset: what is known of its rows without
/// running its plan. Each fact is set where it becomes known and stays
/// known, even after the cache evicts the rows; a derived dataset starts a
/// new record, so every operator drops every fact unless it sets one.
#[derive(Debug, Default)]
struct Known {
    /// The count and index kind of the rows ([`Dataset::rows_known`]):
    /// base data's once asked, a forced dataset's when it is forced.
    rows: OnceLock<Rows>,
    /// The range of the rows' long keys ([`Dataset::key_range`]): a
    /// fill's bounds and a merge's union when it is built, a forced
    /// dataset's or base data's read from the rows the first time it is
    /// asked for; `Some(None)` once the rows are found to hold a key that
    /// is not a long.
    keys: OnceLock<Option<KeyRange>>,
    /// Set on a range fill when it is built ([`Dataset::fill`]).
    fill: Option<RangeFill>,
}

/// What [`Dataset::rows_known`] knows of a dataset's rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rows {
    /// The number of rows.
    pub len: usize,
    /// Whether every row is a matrix element `((i, j), v)` whose indices
    /// are both longs.
    pub long_indices: bool,
}

impl Rows {
    /// Counts the rows and checks their indices. Most datasets are no
    /// matrix, and their first row says so; otherwise every row is read,
    /// a partition per task on `ctx`'s workers (the check reads each
    /// row's key, a pointer away from the row), and a partition's check
    /// stops at its first row that fails it.
    fn of(ctx: &Context, base: &Base) -> Rows {
        let long_indices = |row: &Value| match row.as_tuple() {
            Some([key, _]) => matches!(key.as_tuple(), Some([Value::Long(_), Value::Long(_)])),
            _ => false,
        };
        let parts = &base.parts();
        let all_long = || {
            let (checked, _) = ctx.pool().run(
                parts,
                |p| parts[p].len() as u64,
                |_, part, _| Ok::<_, std::convert::Infallible>(part.iter().all(long_indices)),
            );
            checked.is_ok_and(|parts| parts.into_iter().all(|ok| ok))
        };
        Rows {
            len: base.rows().len(),
            long_indices: base.rows().first().is_none_or(long_indices) && all_long(),
        }
    }
}

/// The least and the greatest key of `(key, value)` rows whose keys are
/// all longs ([`Dataset::key_range`]); `min > max` for no rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyRange {
    /// The least key.
    pub min: i64,
    /// The greatest key.
    pub max: i64,
}

impl KeyRange {
    /// The range of no keys: the identity of [`KeyRange::union`].
    pub(crate) const EMPTY: KeyRange = KeyRange {
        min: i64::MAX,
        max: i64::MIN,
    };

    /// The keys `lo..=hi`; [`KeyRange::EMPTY`] when `hi < lo`.
    pub(crate) fn of(lo: i64, hi: i64) -> KeyRange {
        if hi < lo {
            KeyRange::EMPTY
        } else {
            KeyRange { min: lo, max: hi }
        }
    }

    /// The least range holding both.
    pub(crate) fn union(self, other: KeyRange) -> KeyRange {
        KeyRange {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// True when every key of this range lies in `lo..=hi`.
    pub(crate) fn within(self, lo: i64, hi: i64) -> bool {
        self.min > self.max || (lo <= self.min && self.max <= hi)
    }

    /// The range of the rows' keys, or `None` when a row is no pair or
    /// its key is no long.
    fn read(base: &Base) -> Option<KeyRange> {
        base.rows()
            .iter()
            .try_fold(KeyRange::EMPTY, |keys, row| match row.as_tuple() {
                Some([Value::Long(k), _]) => Some(keys.union(KeyRange::of(*k, *k))),
                _ => None,
            })
    }
}

/// A range fill: the rows `(k, value)` for every long `k` in `lo..=hi`,
/// in ascending `k` — what the §3.4 translation of a loop initialization
/// `for i = lo, hi do X[i] := value` merges into its array. The value
/// reads no key, so the fill is its bounds and its value until a reader
/// needs rows ([`Dataset::range_fill`]).
#[derive(Clone, Debug, PartialEq)]
pub struct RangeFill {
    /// The least key.
    pub lo: i64,
    /// The greatest key; below `lo` for a fill of no rows.
    pub hi: i64,
    /// Every row's value.
    pub value: Value,
}

impl RangeFill {
    /// The fill's keys by hash bucket among `partitions`, each bucket's
    /// in ascending order — the order in which the fill's scattered rows
    /// reach it, since its source partitions hold ascending runs of keys.
    /// One hash per key, as the scatter paid.
    fn bucket_keys(&self, partitions: usize) -> Vec<Vec<i64>> {
        let mut buckets = vec![Vec::new(); partitions];
        // A fill holds at most `i64::MAX` keys, as `range` checked.
        let n = range_len(self.lo, self.hi).unwrap_or(0);
        for j in 0..n {
            // `j < n` keeps every sum inside `lo..=hi`.
            let k = self.lo.wrapping_add_unsigned(j);
            buckets[HashPartitioner.partition(&Value::Long(k), partitions)].push(k);
        }
        buckets
    }
}

pub(crate) fn key_hash(v: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

impl Dataset {
    /// Builds a dataset over `rows`, cut into the context's partitions of
    /// `⌈n / p⌉` rows each. The rows stay in the vector the caller built:
    /// every partition is read where it lies.
    pub fn from_vec(ctx: Context, rows: Vec<Value>) -> Dataset {
        Dataset::from_shared(ctx, Arc::new(rows))
    }

    /// [`Dataset::from_vec`] over a **shared** row vector, not one row of
    /// it copied. The serving layer holds each named dataset as one
    /// `Arc<Vec<Value>>` and hands every concurrent request a view over the
    /// same allocation; requests clone only the `Arc`. Base data is never
    /// entered into the dataset cache — a `Scan` plan reads it directly.
    pub fn from_shared(ctx: Context, rows: Arc<Vec<Value>>) -> Dataset {
        let p = ctx.partitions();
        Dataset::from_base(ctx, Base::even(rows, p))
    }

    /// Builds a dataset over partitions as they are, of any lengths:
    /// their rows are moved into one vector, each partition keeping its
    /// rows in their order. The partition list must not be empty.
    pub fn from_partitions(ctx: Context, parts: Vec<Vec<Value>>) -> Dataset {
        Dataset::from_base(ctx, Base::joined(parts))
    }

    /// Builds the dataset `{lo, ..., hi}` of longs, range-partitioned;
    /// more than `i64::MAX` rows is an error.
    pub fn range(ctx: Context, lo: i64, hi: i64) -> Result<Dataset> {
        let n = range_len(lo, hi)?;
        // Every offset added to `lo` is below `n`, so each sum is exact
        // even where `lo + n` would overflow.
        let rows = (0..n)
            .map(|j| Value::Long(lo.wrapping_add_unsigned(j)))
            .collect();
        Ok(Dataset::from_vec(ctx, rows))
    }

    /// Builds the range fill `{(k, value) | k ← lo..=hi}` ([`RangeFill`]):
    /// a reader scans it as `range(lo, hi)` keyed by each long, in one
    /// more step of that reader's chain, and a merge whose old side it is
    /// generates each bucket's rows instead ([`Dataset::merge`]). Its key
    /// range is its bounds, and it can raise no error, so it counts as a
    /// plan that has run ([`Dataset::has_run`]). More than `i64::MAX` rows
    /// is an error.
    pub fn range_fill(ctx: Context, lo: i64, hi: i64, value: Value) -> Result<Dataset> {
        let row = RowExpr::Tuple(vec![RowExpr::Input, RowExpr::Const(value.clone())]);
        let rows = Dataset::range(ctx, lo, hi)?.map_expr(row)?;
        let known = Known {
            keys: OnceLock::from(Some(KeyRange::of(lo, hi))),
            fill: Some(RangeFill { lo, hi, value }),
            ..Known::default()
        };
        Ok(Dataset {
            known: Arc::new(known),
            ..rows
        })
    }

    /// Wraps base data (internal): the plan is a `Scan`, so forcing is
    /// free.
    fn from_base(ctx: Context, base: Base) -> Dataset {
        assert!(base.partitions() > 0, "need at least one partition");
        let slot = Arc::new(crate::dscache::CacheSlot::new(ctx.dataset_cache().clone()));
        Dataset {
            ctx,
            plan: Arc::new(PlanOp::Scan(base)),
            slot,
            known: Arc::default(),
            ran: Arc::default(),
        }
    }

    /// Test-only hook: a dataset over a deliberately **malformed plan** —
    /// a zero-partition `Scan`, a shape the public constructors assert
    /// away — so integration tests can prove the plan verifier catches
    /// corrupt plans with a structured error instead of failing obscurely
    /// downstream. Hidden from docs; never use outside tests.
    #[doc(hidden)]
    pub fn malformed_zero_partition_scan_for_tests(ctx: Context) -> Dataset {
        let slot = Arc::new(crate::dscache::CacheSlot::new(ctx.dataset_cache().clone()));
        Dataset {
            ctx,
            plan: Arc::new(PlanOp::Scan(Base::joined(Vec::new()))),
            slot,
            known: Arc::default(),
            ran: Arc::default(),
        }
    }

    /// The plan downstream consumers should build on: once this dataset
    /// has been forced, a [`PlanOp::Cached`] barrier over its cache slot
    /// stands in for the original chain, so no operator re-executes an
    /// already-materialized upstream while the entry is resident — yet
    /// the cache can still evict the entry (the barrier carries the
    /// lineage to recompute it). An unforced dataset hands out its plan
    /// under a [`PlanOp::Pending`] node, so narrow chains keep fusing
    /// across the derivation and the stage that runs them sets this
    /// dataset's ran fact.
    fn effective_plan(&self) -> Arc<PlanOp> {
        if matches!(self.plan.as_ref(), PlanOp::Scan(_)) {
            self.plan.clone()
        } else if self.ctx.dataset_cache().contains(self.slot.id()) {
            Arc::new(PlanOp::Cached(self.slot.clone(), self.plan.clone()))
        } else {
            Arc::new(PlanOp::Pending(self.plan.clone(), self.ran.clone()))
        }
    }

    /// A new dataset one plan node deeper (internal).
    fn derived(&self, op: PlanOp) -> Dataset {
        let slot = Arc::new(crate::dscache::CacheSlot::new(
            self.ctx.dataset_cache().clone(),
        ));
        Dataset {
            ctx: self.ctx.clone(),
            plan: Arc::new(op),
            slot,
            known: Arc::default(),
            ran: Arc::default(),
        }
    }

    /// The source-statement tag for plan nodes built right now.
    fn tag(&self) -> plan::Tag {
        self.ctx.statement_label()
    }

    /// Executes the pending plan through the plan walker (fusing
    /// the narrow chain into one physical stage per base) and enters
    /// the rows into the context's dataset cache. A cache hit
    /// skips execution; base data (`Scan` plans) bypasses the cache —
    /// it is already materialized and the cache could only evict what
    /// the plan holds anyway.
    pub(crate) fn force(&self) -> Result<Base> {
        if matches!(self.plan.as_ref(), PlanOp::Scan(_)) {
            return plan::materialize(&self.ctx, &self.plan);
        }
        if let Some(base) = self.ctx.dataset_cache().get(self.slot.id(), &self.ctx) {
            return Ok(base);
        }
        let base = plan::materialize(&self.ctx, &self.plan)?;
        self.enter(&base);
        Ok(base)
    }

    /// Enters `base`, this dataset's rows, into the dataset cache.
    fn enter(&self, base: &Base) {
        let cache = self.ctx.dataset_cache();
        cache.insert(self.slot.id(), base.clone(), &self.ctx);
        self.known.rows.get_or_init(|| Rows::of(&self.ctx, base));
        self.ran.store(true, Ordering::Release);
    }

    /// This dataset's rows for a reader that reads them once and whole —
    /// a join's build side — with their count known
    /// ([`Dataset::rows_known`]).
    /// Base data and a dataset forced before are read as they are. A
    /// pending plan runs now, in one fused stage, and records that it ran,
    /// as any stage that fuses it does. At most `keep` rows are handed
    /// over as base data, outside the dataset cache: the reader holds them
    /// whole anyway, their rows moved into one vector. More enter the
    /// cache as [`Dataset::materialize`] enters them, charged to its
    /// budget and spilled under it.
    pub fn computed(&self, keep: usize) -> Result<Dataset> {
        if self.rows_known().is_some() {
            return Ok(self.clone());
        }
        let base = plan::materialize(&self.ctx, &self.effective_plan())?;
        if base.rows().len() <= keep {
            return Ok(Dataset::from_base(self.ctx.clone(), base));
        }
        self.enter(&base);
        Ok(self.clone())
    }

    /// True when the plan has run without error: base data, a dataset
    /// forced before, or a pending plan that a stage fused — a shuffle,
    /// reduction or materialization of some dataset derived from it — and
    /// finished on every partition. Such a plan can raise no error its
    /// run did not, so forcing it would only run the chain again. A stage
    /// that failed or was cancelled leaves the fact unset. A range fill,
    /// which can raise no error, counts as run.
    pub fn has_run(&self) -> bool {
        matches!(self.plan.as_ref(), PlanOp::Scan(_))
            || self.known.fill.is_some()
            || self.ran.load(Ordering::Acquire)
    }

    /// What the rows are when it is known without running anything: base
    /// data, or a dataset forced before (even if the cache has evicted its
    /// rows since). `None` for a plan still pending and for a range fill
    /// no reader has forced.
    pub fn rows_known(&self) -> Option<Rows> {
        match self.plan.as_ref() {
            PlanOp::Scan(base) => Some(*self.known.rows.get_or_init(|| Rows::of(&self.ctx, base))),
            _ => self.known.rows.get().copied(),
        }
    }

    /// The range of the `(key, value)` rows' long keys, when it is known
    /// without running a stage: a range fill's bounds, a merge's union of
    /// its sides' ranges if both were known when it was built, or — the
    /// first time it is asked for, then kept — read from the rows of base
    /// data or of a forced dataset the cache still holds. `None` for a
    /// pending plan, and when a row is no pair keyed by a long.
    pub fn key_range(&self) -> Option<KeyRange> {
        if let Some(keys) = self.known.keys.get() {
            return *keys;
        }
        let keys = match self.plan.as_ref() {
            PlanOp::Scan(base) => KeyRange::read(base),
            _ if self.known.rows.get().is_some() => {
                let cache = self.ctx.dataset_cache();
                if !cache.contains(self.slot.id()) {
                    // Evicted: no rows to read short of recomputing them.
                    return None;
                }
                KeyRange::read(&cache.get(self.slot.id(), &self.ctx)?)
            }
            _ => return None,
        };
        *self.known.keys.get_or_init(|| keys)
    }

    /// The range fill this dataset is, when it is one
    /// ([`Dataset::range_fill`]).
    pub fn fill(&self) -> Option<&RangeFill> {
        self.known.fill.as_ref()
    }

    /// True when every key of the `(key, value)` rows is known to lie in
    /// `lo..=hi` ([`Dataset::key_range`]). Under the plan verifier the
    /// fact is checked on the rows — a fill's bounds, or every key of the
    /// forced rows — and a key outside is an error, not a `true` that
    /// would drop its row.
    pub fn keys_within(&self, lo: i64, hi: i64) -> Result<bool> {
        if !self.key_range().is_some_and(|keys| keys.within(lo, hi)) {
            return Ok(false);
        }
        // A fill's rows are its bounds' keys, which the range just
        // compared; any other dataset's rows are read.
        if crate::verify::enabled() && self.fill().is_none() {
            crate::verify::verify_keys_within(&self.force()?, lo, hi)?;
        }
        Ok(true)
    }

    /// Test-only hook: this dataset with a **wrong fact** — its key range
    /// said to be `keys`, whatever its rows hold — so integration tests can
    /// prove the plan verifier refuses a rule that trusts it. Hidden from
    /// docs; never use outside tests.
    #[doc(hidden)]
    pub fn with_key_range_for_tests(&self, keys: KeyRange) -> Dataset {
        let known = Known {
            rows: self.known.rows.clone(),
            keys: OnceLock::from(Some(keys)),
            fill: None,
        };
        Dataset {
            known: Arc::new(known),
            ..self.clone()
        }
    }

    /// Forces the pending plan now, surfacing any deferred operator error,
    /// and returns a handle to the (now materialized) dataset.
    pub fn materialize(&self) -> Result<Dataset> {
        self.force()?;
        Ok(self.clone())
    }

    /// Renders the pending physical plan (the chains a materialization
    /// point would fuse) as text.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        plan::render(&self.effective_plan(), &mut out);
        out
    }

    /// True when this dataset is known to hold no rows without running a
    /// stage: base data or a forced dataset with no rows, or a dataset
    /// whose key range is known to be empty (a fill over an empty range).
    /// A pending plan reads `false`, even one that would turn out empty.
    pub fn is_known_empty(&self) -> bool {
        match self.plan.as_ref() {
            PlanOp::Scan(base) => base.rows().is_empty(),
            _ => {
                self.known.rows.get().is_some_and(|rows| rows.len == 0)
                    || self.known.keys.get() == Some(&Some(KeyRange::EMPTY))
            }
        }
    }

    /// Under the plan verifier, checks that base data holds no key twice
    /// — the §3.4 contract of an array bound from rows — and names the
    /// input and the first repeated key otherwise. Runs no stage: a plan
    /// that is not a `Scan` passes unread.
    pub fn verify_unique_keys(&self, input: &str) -> Result<()> {
        match self.plan.as_ref() {
            PlanOp::Scan(base) => crate::verify::verify_unique_keys(base, input),
            _ => Ok(()),
        }
    }

    /// The engine context this dataset belongs to.
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    /// Number of rows.
    ///
    /// # Panics
    /// Panics if a pending operator in the plan fails; see
    /// [`Dataset::try_collect`].
    pub fn count(&self) -> usize {
        self.force()
            .expect("dataset materialization failed")
            .rows()
            .len()
    }

    /// Materializes all rows in partition order.
    ///
    /// # Panics
    /// Panics if a pending operator in the plan fails; see
    /// [`Dataset::try_collect`].
    pub fn collect(&self) -> Vec<Value> {
        self.try_collect().expect("dataset materialization failed")
    }

    /// Materializes all rows in partition order, surfacing deferred
    /// operator errors.
    pub fn try_collect(&self) -> Result<Vec<Value>> {
        Ok(self.force()?.rows().to_vec())
    }

    /// Materializes all rows sorted (for deterministic comparisons).
    ///
    /// # Panics
    /// Panics if a pending operator in the plan fails.
    pub fn collect_sorted(&self) -> Vec<Value> {
        let mut rows = self.collect();
        sort_rows(&mut rows);
        rows
    }

    /// Shares the whole dataset with every task — Spark's broadcast: its
    /// rows in partition order, as the vector the forced dataset holds,
    /// not a copy of it.
    pub fn broadcast(&self) -> Result<Arc<Vec<Value>>> {
        let rows = self.force()?.rows().clone();
        self.ctx.stats().record_broadcast(rows.len() as u64);
        self.ctx
            .plan_note_with(|| format!("broadcast: {} rows to all workers", rows.len()));
        Ok(rows)
    }

    // ------------------------------------------------------------- narrow

    /// Applies `f` to every row (lazy: appends a plan node).
    pub fn map<F>(&self, f: F) -> Result<Dataset>
    where
        F: Fn(&Value) -> Result<Value> + Send + Sync + 'static,
    {
        self.map_as("map", f)
    }

    /// [`Dataset::map`] with a name for what the closure does (`keyed
    /// map`, `group bind`, …): the plan trace quotes it when this opaque
    /// step keeps a stage on the row path.
    pub fn map_as<F>(&self, what: &'static str, f: F) -> Result<Dataset>
    where
        F: Fn(&Value) -> Result<Value> + Send + Sync + 'static,
    {
        self.step(StepOp::Udf(Udf::Map(Arc::new(f)), what))
    }

    /// Applies a **transparent** row expression to every row (lazy). The
    /// step is the expression itself, so the columnar layout lowers it to
    /// per-column inner loops and the row layout evaluates it row by row
    /// ([`RowExpr::eval`](crate::RowExpr::eval)).
    pub fn map_expr(&self, expr: crate::RowExpr) -> Result<Dataset> {
        self.step(StepOp::Map(Arc::new(expr)))
    }

    /// Applies `f` to every row, flattening the results (lazy).
    pub fn flat_map<F>(&self, f: F) -> Result<Dataset>
    where
        F: Fn(&Value) -> Result<Vec<Value>> + Send + Sync + 'static,
    {
        self.flat_map_as("flat_map", f)
    }

    /// [`Dataset::flat_map`] with a name for what the closure does, as in
    /// [`Dataset::map_as`].
    pub fn flat_map_as<F>(&self, what: &'static str, f: F) -> Result<Dataset>
    where
        F: Fn(&Value) -> Result<Vec<Value>> + Send + Sync + 'static,
    {
        self.step(StepOp::Udf(Udf::FlatMap(Arc::new(f)), what))
    }

    /// Crosses every row with `items` — the broadcast nested loop behind a
    /// generator that no equality links to the rows bound so far — as a
    /// **transparent** expansion (lazy): each row, a tuple, is followed by
    /// the leaves `shape` binds in an item, once per item and in item
    /// order. It is [`Dataset::join_probe`] on the constant key `()`, which
    /// every item holds. An item `shape` does not fit is the error
    /// `"{mismatch} {item}"`, raised by the first row that reaches the step.
    pub fn cross(
        &self,
        items: Arc<Vec<Value>>,
        shape: Shape,
        mismatch: impl Into<Arc<str>>,
    ) -> Result<Dataset> {
        let probe = Probe::build(items.iter(), &shape, None, &mismatch.into());
        self.probing(probe)
    }

    /// Appends a probe of a built side as a transparent expansion step
    /// (lazy): the step is the probe, so a columnar stage expands whole
    /// tiles and the row layout expands each row ([`Probe::expand`]).
    fn probing(&self, probe: Probe) -> Result<Dataset> {
        self.step(StepOp::Probe(Arc::new(probe)))
    }

    /// Follows every row — a tuple — with the fold of its own expansion
    /// (lazy): a **per-row fold**, with no shuffle and no key table.
    ///
    /// `expand` builds the expansion of one row, as narrow steps over the
    /// dataset it is handed, whose rows stand for the tuple of the row's
    /// fields `input`: crosses, probes, maps and filters. It returns that
    /// chain and `values`, the tuple of values an expanded row
    /// contributes, one per monoid of `ops`. Every row starts from the
    /// tuple of accumulators `init` computes over it, folds its values in
    /// expansion order, and leaves followed by its accumulators, whether
    /// its expansion is empty or not. The rows keep their partitions, and
    /// the fold is one more transparent step of the chain: a columnar
    /// stage folds whole tiles' expansions into typed accumulator lanes.
    /// An expansion that is not narrow (a shuffle inside it) is an error.
    pub fn fold_rows(
        &self,
        input: Vec<usize>,
        expand: impl FnOnce(Dataset) -> Result<(Dataset, RowExpr)>,
        ops: &[AggOp],
        init: RowExpr,
    ) -> Result<Dataset> {
        let row = self.ctx.empty();
        let base = row.plan.clone();
        let (expanded, values) = expand(row)?;
        let chain = plan::collapse(&expanded.effective_plan());
        if !Arc::ptr_eq(&chain.base, &base) {
            return Err(RuntimeError::new(
                "a fold per row expands each row through narrow steps only",
            ));
        }
        self.step(StepOp::Fold(Arc::new(RowFold {
            input,
            steps: chain.steps,
            values,
            ops: ops.iter().map(|o| o.op).collect(),
            init,
        })))
    }

    /// Keeps the rows satisfying `f` (lazy).
    pub fn filter<F>(&self, f: F) -> Result<Dataset>
    where
        F: Fn(&Value) -> Result<bool> + Send + Sync + 'static,
    {
        self.step(StepOp::Udf(Udf::Filter(Arc::new(f)), "filter"))
    }

    /// Keeps the rows satisfying a **transparent** predicate expression
    /// (lazy) — the filter counterpart of [`Dataset::map_expr`]. The
    /// expression must evaluate to a boolean per row; anything else is
    /// the usual `condition must be boolean` error.
    pub fn filter_expr(&self, expr: crate::RowExpr) -> Result<Dataset> {
        self.step(StepOp::Filter(Arc::new(expr)))
    }

    /// Appends one narrow step, tagged with the current statement (lazy).
    fn step(&self, op: StepOp) -> Result<Dataset> {
        self.ctx.record_logical_op();
        let step = Step {
            op,
            tag: self.tag(),
        };
        Ok(self.derived(PlanOp::Step(self.effective_plan(), step)))
    }

    /// Total reduction with a binary combiner: fused per-partition folds
    /// (including any pending narrow chain) followed by a driver-side fold
    /// over partial results (Spark's `reduce`). Returns `None` on an empty
    /// dataset.
    pub fn reduce<F>(&self, f: F) -> Result<Option<Value>>
    where
        F: Fn(&Value, &Value) -> Result<Value> + Sync,
    {
        let f = &f;
        self.fold_partitions(
            &|rows| {
                let mut acc: Option<Value> = None;
                rows.for_each(&mut |row| {
                    acc = Some(match acc.take() {
                        None => row,
                        Some(a) => f(&a, &row)?,
                    });
                    Ok(())
                })?;
                Ok(acc)
            },
            f,
        )
    }

    /// [`Dataset::reduce`] with a monoid the engine can see: the same
    /// stage, partials and result as `reduce(|a, b| op.op.apply(a, b))`,
    /// but a columnar stage folds its last column as a typed lane instead
    /// of boxing every row for a closure.
    pub fn aggregate(&self, op: AggOp) -> Result<Option<Value>> {
        self.fold_partitions(&|rows| rows.fold(op.op), &|a, b| op.op.apply(a, b))
    }

    /// One fused stage folding each partition with `partial`, then a
    /// driver-side fold of the partials, in partition order, with
    /// `combine`.
    fn fold_partitions(
        &self,
        partial: &(dyn Fn(&plan::PartitionRows<'_>) -> Result<Option<Value>> + Sync),
        combine: &dyn Fn(&Value, &Value) -> Result<Value>,
    ) -> Result<Option<Value>> {
        self.ctx.record_logical_op();
        let partials = plan::consume(
            &self.ctx,
            &self.effective_plan(),
            "reduce (partial fold)",
            |_, rows, _| partial(rows),
        )?;
        let mut acc: Option<Value> = None;
        for p in partials.into_iter().flatten() {
            acc = Some(match acc {
                None => p,
                Some(a) => combine(&a, &p)?,
            });
        }
        Ok(acc)
    }

    // ------------------------------------------------------------ shuffles

    /// The exchange primitive under every hash shuffle: runs `scatter`
    /// once per source partition over the plan's *transformed* rows — the
    /// scatter pass fuses the pending narrow chain, so a chain ending in a
    /// shuffle costs exactly one pass over the source rows — streaming the
    /// emitted rows through an [`Exchange`] bounded by
    /// [`Context::memory_budget`] (buckets past the budget spill to sorted
    /// run files), and merge-reads the destination buckets back in source
    /// order, one chunk each.
    fn exchange(
        &self,
        label: &str,
        scatter: impl Fn(&PartitionRows<'_>, &mut ExchangeWriter<'_>) -> Result<()> + Sync,
    ) -> Result<Vec<Chunk>> {
        let ex = Exchange::new(self.ctx.partitions(), self.ctx.memory_budget());
        plan::consume(&self.ctx, &self.effective_plan(), label, |src, rows, _| {
            let mut writer = ex.writer(src);
            scatter(rows, &mut writer)?;
            writer.close()
        })?;
        ex.finish(&self.ctx)
    }

    /// The shuffle under every keyed operator, one side of it: the
    /// pending chain, the map-side combine if any, and the hash scatter by
    /// key in one stage; returns the side's destination buckets. A
    /// columnar stage reads each key from its column and sends its tiles'
    /// columns as lanes: no `(key, row)` pair, and no row, is boxed.
    fn scatter_keyed(&self, label: &str, crossing: Crossing<'_>) -> Result<Vec<Chunk>> {
        let p = self.ctx.partitions();
        match crossing {
            Crossing::Pairs => self.exchange(label, |rows, sink| {
                rows.drive(&mut KeyedScatter::new(sink, p, true))
            }),
            // Map-side combine, then stream the combined keys straight
            // into the exchange sink: no all-partitions bucket matrix is
            // ever built, and buckets past the memory budget spill to disk.
            Crossing::Combined(fold) => {
                self.exchange(label, |rows, sink| fold.combine(rows, sink, p))
            }
            // Only the row crosses.
            Crossing::Rows => self.exchange(label, |rows, sink| {
                rows.drive(&mut KeyedScatter::new(sink, p, false))
            }),
        }
    }

    /// Wraps gathered shuffle buckets in a lazy bucket-wise stage named
    /// `label`: the post-shuffle work becomes a pending plan node that
    /// fuses with whatever consumes it next (shuffle-read fusion).
    fn post_shuffle(&self, buckets: Vec<Bucket>, op: PartOp, label: &'static str) -> Dataset {
        self.derived(PlanOp::Shuffled(Arc::new(buckets), op, label, self.tag()))
    }

    /// Pairs the buckets of two exchanges, left and right.
    fn two_sided(left: Vec<Chunk>, right: Vec<Chunk>) -> Vec<Bucket> {
        left.into_iter()
            .zip(right)
            .map(|(l, r)| Bucket::Two(l, r))
            .collect()
    }

    /// `reduceByKey`: combines values of equal keys with `f`, using
    /// map-side combining before the shuffle. Rows must be `(key, value)`
    /// pairs; the output has one `(key, combined)` row per distinct key.
    ///
    /// The pending narrow chain, the map-side combine, and the scatter all
    /// run in **one** fused physical stage. The post-shuffle reduction is
    /// lazy: it runs inside whatever stage consumes this dataset next, so
    /// `reduce_by_key → map → shuffle` costs two physical stages, not
    /// three.
    pub fn reduce_by_key<F>(&self, f: F) -> Result<Dataset>
    where
        F: Fn(&Value, &Value) -> Result<Value> + Send + Sync + 'static,
    {
        self.reduce_by_key_with(KeyFold::Closure(Arc::new(f)))
    }

    /// [`Dataset::reduce_by_key`] with monoids the engine can see: rows
    /// are `(key, (v1, …, vn))`, `ops[i]` folds the `i`-th value field,
    /// and the output has one `(key, (a1, …, an))` row per distinct key —
    /// the same stages, shuffle and rows as `reduce_by_key` with the
    /// element-wise closure. What changes is the map-side combine: a
    /// columnar stage hashes its key column in place and folds typed value
    /// lanes into per-key accumulators instead of boxing every row for a
    /// closure.
    pub fn aggregate_by_key(&self, ops: Vec<AggOp>) -> Result<Dataset> {
        self.reduce_by_key_with(KeyFold::Monoids(ops.iter().map(|o| o.op).collect()))
    }

    fn reduce_by_key_with(&self, fold: KeyFold) -> Result<Dataset> {
        self.ctx.record_logical_op();
        let dest = self.scatter_keyed(
            "reduce_by_key (combine + scatter)",
            Crossing::Combined(&fold),
        )?;
        let reduce_fn: PartFn = Arc::new(move |_, bucket: &Bucket| fold.reduce(bucket.one()?));
        let dest = dest.into_iter().map(Bucket::One).collect();
        Ok(self.post_shuffle(dest, PartOp::Rows(reduce_fn), "reduce_by_key (reduce)"))
    }

    /// `groupByKey`: shuffles `(key, value)` rows and produces one
    /// `(key, bag-of-values)` row per distinct key. The grouping stage is
    /// lazy and fuses with the next consumer.
    pub fn group_by_key(&self) -> Result<Dataset> {
        self.ctx.record_logical_op();
        let dest = self.scatter_keyed("group_by_key (scatter)", Crossing::Pairs)?;
        let group_fn: PartFn = Arc::new(|_, bucket: &Bucket| {
            let mut groups: KeyTable<Vec<Value>> = KeyTable::new();
            bucket.one()?.each_pair(&mut |k, v| {
                groups.upsert(k, Vec::new).value.push(v.into_owned());
                Ok(())
            })?;
            Ok(groups
                .into_entries()
                .map(|(k, vs)| Value::pair(k, Value::bag(vs)))
                .collect())
        });
        let dest = dest.into_iter().map(Bucket::One).collect();
        Ok(self.post_shuffle(dest, PartOp::Rows(group_fn), "group_by_key (group)"))
    }

    /// Inner equi-join on `(key, value)` rows: produces
    /// `(key, (left, right))` for every matching pair, the key as the left
    /// row spells it — [`Dataset::join_on`] over the unpacked pairs, keyed
    /// by their first field, followed by one transparent step that makes
    /// each match its `(k, (l, r))` row. The same stages, shuffles and
    /// order as `join_on`, and the matching stage is lazy, so a `map`
    /// after a join fuses with it.
    pub fn join(&self, other: &Dataset) -> Result<Dataset> {
        let pair = || Shape::Tuple(vec![Shape::Bind, Shape::Bind]);
        let on = JoinOn {
            left_key: RowExpr::Col(0),
            right: pair(),
            right_key: RowExpr::Col(0),
            mismatch: NOT_A_PAIR.into(),
        };
        let left = self.map_expr(RowExpr::Unpack {
            shape: pair(),
            mismatch: NOT_A_PAIR.into(),
        })?;
        // `(k, l, k', r)` → `(k, (l, r))`.
        let nest = RowExpr::Tuple(vec![
            RowExpr::Col(0),
            RowExpr::Tuple(vec![RowExpr::Col(1), RowExpr::Col(3)]),
        ]);
        left.join_on(other, on)?.map_expr(nest)
    }

    /// Inner equi-join described by data: every left row (a tuple) whose
    /// `on.left_key` equals the `on.right_key` of a right row is emitted
    /// followed by the leaves `on.right` binds in that right row.
    ///
    /// Both sides compute their key as one more transparent step of their
    /// pending chain and scatter by it (eagerly; a columnar stage reads the
    /// key column in place and never boxes a `(key, row)` pair, nor a key
    /// of primitive lanes), and the rows cross the exchange as themselves,
    /// the right ones as the tuples of their leaves. The lazy post-shuffle
    /// stage builds one probe per bucket from its right rows — the build
    /// [`Dataset::join_probe`] makes on the driver — and runs the bucket's
    /// left rows through it ahead of the chain above: an eligible columnar
    /// chain reads the left rows' lanes and gathers each match's columns
    /// by index, and no row of a match is built before the chain needs it.
    /// Output order is hash buckets ascending, then each left row in bucket
    /// order, followed by the right rows its key matches, in bucket order.
    ///
    /// A right row `on.right` does not fit is the error
    /// `"{on.mismatch} {row}"`, raised by the right scatter; a left row
    /// that is not a tuple is an error whether or not its key matches.
    pub fn join_on(&self, other: &Dataset, on: JoinOn) -> Result<Dataset> {
        let right = other.map_expr(RowExpr::Unpack {
            shape: on.right.clone(),
            mismatch: on.mismatch.clone(),
        })?;
        let keyed = |key: &RowExpr| RowExpr::Tuple(vec![key.clone(), RowExpr::Input]);
        let left = self.map_expr(keyed(&on.left_key))?;
        let right = right.map_expr(keyed(&on.right_key))?;
        self.ctx.record_logical_op();
        let lrows = left.scatter_keyed("join (scatter left)", Crossing::Rows)?;
        let rrows = right.scatter_keyed("join (scatter right)", Crossing::Rows)?;
        // The right rows cross as the tuples of their leaves.
        let on = JoinOn {
            right: Shape::Tuple(vec![Shape::Bind; on.right.binds()]),
            ..on
        };
        Ok(self.post_shuffle(
            Dataset::two_sided(lrows, rrows),
            PartOp::Join(Arc::new(on)),
            "join (build + probe)",
        ))
    }

    /// [`Dataset::join_on`] against a side that is built, not scattered:
    /// `build` is forced, and one key table over its rows' `on.right_key`
    /// — holding their bound leaves as owned columns — is shared by every
    /// task. Probing it is one more transparent step of `self`'s pending
    /// chain (lazy), so neither side crosses an exchange and the output is
    /// partitioned as `self` is. Each left row is followed by the leaves
    /// of every build row its key matches, in build order; keys match as
    /// in [`Dataset::join_on`]. The build counts as a broadcast of its
    /// rows.
    ///
    /// A build row `on.right` does not fit is the error
    /// `"{on.mismatch} {row}"`, raised by the first left row that reaches
    /// the probe — and by none if no row does.
    pub fn join_probe(&self, build: &Dataset, on: JoinOn) -> Result<Dataset> {
        let base = build.force()?;
        self.ctx.stats().record_broadcast(base.rows().len() as u64);
        let keys = ProbeKeys {
            probe: on.left_key,
            build: on.right_key,
        };
        let probe = Probe::build(base.rows().iter(), &on.right, Some(keys), &on.mismatch);
        self.probing(probe)
    }

    /// An element-wise statement on §5 blocks: `((i, j), x op y)` for every
    /// element `(i, j)` inside `zip.rows × zip.cols` that both `self`
    /// (`x`) and `other` (`y`) hold. Rows are tuples; [`BlockZip`] says
    /// where an element's indices and value lie in each, and elements
    /// outside the ranges are dropped.
    ///
    /// Each side's pending chain packs its rows into blocks inside its
    /// scatter stage, and one row per partial block crosses the exchange,
    /// by the block's place. The lazy post-shuffle stage overlays the
    /// partial blocks, combines each pair of blocks with one unboxed loop
    /// when both hold only doubles (through [`BinOp::apply`] otherwise),
    /// and unpacks only the result elements: the stages and shuffles of
    /// the join it replaces, without its per-element rows. Output is the
    /// left blocks in first-seen order, each block's cells row-major.
    pub fn block_zip(&self, other: &Dataset, zip: BlockZip) -> Result<Dataset> {
        self.ctx.record_logical_op();
        let p = self.ctx.partitions();
        let scatter = |side: &Dataset, at: ElementCols, label| {
            side.exchange(label, |rows, sink| {
                let mut packer = Packer::new(at, zip.rows, zip.cols);
                rows.drive(&mut packer)?;
                block::zip_rows(packer, p, &mut |b, row| sink.emit(b, row))
            })
        };
        let left = scatter(self, zip.left, "block zip (pack + scatter left)")?;
        let right = scatter(other, zip.right, "block zip (pack + scatter right)")?;
        let combine: PartFn = Arc::new(move |_, bucket: &Bucket| {
            let (lefts, rights) = bucket.two()?;
            block::zip_bucket(&zip, &lefts.rows(), &rights.rows())
        });
        Ok(self.post_shuffle(
            Dataset::two_sided(left, right),
            PartOp::Rows(combine),
            "block zip (combine blocks)",
        ))
    }

    /// A contraction on §5 blocks: `((i, j), +/ x × y)` over every `k` for
    /// which `self` holds `(i, k)` (`x`) and `other` holds `(k, j)` (`y`),
    /// inside the ranges of [`BlockContract`]; a pair `(i, j)` no `k` joins
    /// has no row.
    ///
    /// Each side packs its rows into blocks inside its scatter stage and
    /// sends each partial block to every product block it takes part in:
    /// a left block `(I, K)` to `(I, J)` for each block column `J`, a
    /// right block `(K, J)` to `(I, J)` for each block row `I`. The lazy
    /// post-shuffle stage multiplies each product block's operands in
    /// ascending `K` — the dense kernel of `TiledMatrix::multiply` when
    /// both blocks are full of doubles — and unpacks the result elements.
    /// So each sum adds its terms in ascending `k`, whatever the
    /// partitioning, and the statement takes two shuffles, one fewer than
    /// the join and reduce it replaces; a sum may round differently from
    /// theirs, which follow the data's order.
    pub fn block_contract(&self, other: &Dataset, spec: BlockContract) -> Result<Dataset> {
        self.ctx.record_logical_op();
        let p = self.ctx.partitions();
        let scatter = |side: &Dataset, left: bool, label| {
            let (at, rows, cols, fan_out) = if left {
                (spec.left, spec.rows, spec.inner, spec.cols.blocks())
            } else {
                (spec.right, spec.inner, spec.cols, spec.rows.blocks())
            };
            side.exchange(label, |parts, sink| {
                let mut packer = Packer::new(at, rows, cols);
                parts.drive(&mut packer)?;
                block::contract_rows(packer, left, fan_out, p, &mut |b, row| sink.emit(b, row))
            })
        };
        let left = scatter(self, true, "block contraction (pack + scatter left)")?;
        let right = scatter(other, false, "block contraction (pack + scatter right)")?;
        let multiply: PartFn = Arc::new(move |_, bucket: &Bucket| {
            let (lefts, rights) = bucket.two()?;
            block::contract_bucket(&spec, &lefts.rows(), &rights.rows())
        });
        Ok(self.post_shuffle(
            Dataset::two_sided(left, right),
            PartOp::Rows(multiply),
            "block contraction (multiply blocks)",
        ))
    }

    /// The array merge `self ⊳ updates` (§3.4): both sides scattered by
    /// key, then each bucket's slots combined.
    ///
    /// With `combine = None`, colliding keys take the update value
    /// (right-biased, the paper's `⊳`). With `combine = Some(f)`, colliding
    /// keys become `f(old, new)` — the merge form used for incremental
    /// updates `d ⊕= e` (§3.7); duplicate update keys are also combined
    /// with `f` first.
    ///
    /// Both scatters are eager; the slot-combining stage is lazy, so the
    /// merged array fuses into whatever reads it next. An old side that is
    /// a range fill ([`Dataset::range_fill`]) is not scattered: the
    /// slot-combining stage generates each bucket's old rows — the fill's
    /// keys of that bucket, in the ascending order its scatter would have
    /// delivered them — so the merge is one scatter and its rows are the
    /// same. The merge's key range is the union of its sides' when both
    /// are known ([`Dataset::key_range`]).
    pub fn merge<F>(&self, updates: &Dataset, combine: Option<F>) -> Result<Dataset>
    where
        F: Fn(&Value, &Value) -> Result<Value> + Send + Sync + 'static,
    {
        self.ctx.record_logical_op();
        let fill = self.fill().cloned();
        let old = match fill {
            Some(_) => None,
            None => Some(self.scatter_keyed("merge (scatter old)", Crossing::Pairs)?),
        };
        let new = updates.scatter_keyed("merge (scatter updates)", Crossing::Pairs)?;
        let partitions = self.ctx.partitions();
        // The first bucket task splits the fill's keys by bucket, and the
        // others wait for it: the stage hashes each key once.
        let fill_keys = OnceLock::new();
        let merge_fn: PartFn = Arc::new(move |p, bucket: &Bucket| {
            let (mut slots, news) = match &fill {
                Some(fill) => {
                    let keys = &fill_keys.get_or_init(|| fill.bucket_keys(partitions))[p];
                    let mut slots = KeyTable::with_capacity(keys.len());
                    for &k in keys {
                        slots.upsert(Key::from(Cow::Owned(Value::Long(k))), || fill.value.clone());
                    }
                    (slots, bucket.one()?)
                }
                None => {
                    let (olds, news) = bucket.two()?;
                    let mut slots = KeyTable::with_capacity(olds.len());
                    olds.each_pair(&mut |k, v| {
                        let hit = slots.upsert(k, || v.clone().into_owned());
                        if !hit.new {
                            // Arrays have unique keys; keep the last if not.
                            *hit.value = v.into_owned();
                        }
                        Ok(())
                    })?;
                    (slots, news)
                }
            };
            news.each_pair(&mut |k, v| {
                let hit = slots.upsert(k, || v.clone().into_owned());
                if !hit.new {
                    *hit.value = match &combine {
                        Some(f) => f(hit.value, &v)?,
                        None => v.into_owned(),
                    };
                }
                Ok(())
            })?;
            Ok(slots
                .into_entries()
                .map(|(k, v)| Value::pair(k, v))
                .collect())
        });
        let (buckets, label) = match old {
            Some(old) => (Dataset::two_sided(old, new), "merge ⊳ (combine slots)"),
            None => (
                new.into_iter().map(Bucket::One).collect(),
                "merge ⊳ (generate fill + combine slots)",
            ),
        };
        let merged = self.post_shuffle(buckets, PartOp::Rows(merge_fn), label);
        let side = |d: &Dataset| d.known.keys.get().copied().flatten();
        if let (Some(a), Some(b)) = (side(self), side(updates)) {
            _ = merged.known.keys.set(Some(a.union(b)));
        }
        Ok(merged)
    }
}

impl std::fmt::Debug for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let shape = match self.plan.as_ref() {
            // Base data is never cached; its shape is on the plan itself.
            PlanOp::Scan(base) => Some((base.partitions(), base.rows().len())),
            _ => self.ctx.dataset_cache().shape(self.slot.id()),
        };
        match shape {
            Some((partitions, rows)) => f
                .debug_struct("Dataset")
                .field("partitions", &partitions)
                .field("rows", &rows)
                .finish(),
            None => f
                .debug_struct("Dataset")
                .field("plan", &self.explain())
                .finish(),
        }
    }
}

/// The number of longs in `lo..=hi`, which `range(lo, hi)` sources and
/// expansions bind; more than `i64::MAX` is an error.
pub fn range_len(lo: i64, hi: i64) -> Result<u64> {
    let n = (i128::from(hi) - i128::from(lo) + 1).max(0);
    i64::try_from(n).map(|n| n as u64).map_err(|_| {
        RuntimeError::new(format!(
            "range({lo}, {hi}) has more than {} elements",
            i64::MAX
        ))
    })
}

/// The keys of rows that are all pairs keyed alike, read out for an
/// unboxed sort: longs, strings, or flat tuples of longs (every tuple's
/// fields end to end in `lanes`, row `r`'s at `ends[r]..ends[r + 1]`).
enum SortKeys<'r> {
    Longs(Vec<i64>),
    Strs(Vec<&'r str>),
    Tuples { lanes: Vec<i64>, ends: Vec<usize> },
}

impl<'r> SortKeys<'r> {
    /// The keys of `rows`, or `None` unless every row is a pair and every
    /// key has the first row's kind.
    fn of(rows: &'r [Value]) -> Option<SortKeys<'r>> {
        let key = |row: &'r Value| match row {
            Value::Tuple(kv) if kv.len() == 2 => Some(&kv[0]),
            _ => None,
        };
        let keys = rows.iter().map(key);
        Some(match key(rows.first()?)? {
            Value::Long(_) => SortKeys::Longs(
                keys.map(|k| match k? {
                    Value::Long(n) => Some(*n),
                    _ => None,
                })
                .collect::<Option<_>>()?,
            ),
            Value::Str(_) => SortKeys::Strs(
                keys.map(|k| match k? {
                    Value::Str(s) => Some(&**s),
                    _ => None,
                })
                .collect::<Option<_>>()?,
            ),
            Value::Tuple(_) => {
                let mut lanes = Vec::with_capacity(rows.len() * 2);
                let mut ends = Vec::with_capacity(rows.len() + 1);
                ends.push(0);
                for k in keys {
                    let Value::Tuple(fields) = k? else {
                        return None;
                    };
                    for f in fields.iter() {
                        match f {
                            Value::Long(n) => lanes.push(*n),
                            _ => return None,
                        }
                    }
                    ends.push(lanes.len());
                }
                SortKeys::Tuples { lanes, ends }
            }
            _ => return None,
        })
    }

    /// Rows `a` and `b` by key — `Value::cmp`'s order on keys of these
    /// kinds (tuples lexicographic, a prefix first).
    fn cmp(&self, a: usize, b: usize) -> std::cmp::Ordering {
        match self {
            SortKeys::Longs(k) => k[a].cmp(&k[b]),
            SortKeys::Strs(k) => k[a].cmp(k[b]),
            SortKeys::Tuples { lanes, ends } => {
                lanes[ends[a]..ends[a + 1]].cmp(&lanes[ends[b]..ends[b + 1]])
            }
        }
    }
}

/// Sorts rows into exactly the order `rows.sort()` gives. When every row
/// is a pair keyed by a long, a string or a flat tuple of longs (an
/// `(i, j)` index), the keys are read out once and compared unboxed, ties
/// broken by `Value::cmp` on the whole rows: a comparison then follows no
/// `Arc` unless the keys are equal. Both sorts are stable and the two
/// orders agree, so rows `Value::cmp` calls equal keep their input order
/// either way.
pub(crate) fn sort_rows(rows: &mut Vec<Value>) {
    let order = match SortKeys::of(rows) {
        None => return rows.sort(),
        Some(keys) => {
            let mut order: Vec<usize> = (0..rows.len()).collect();
            order.sort_by(|&a, &b| keys.cmp(a, b).then_with(|| rows[a].cmp(&rows[b])));
            order
        }
    };
    let mut unsorted = std::mem::take(rows);
    *rows = order
        .into_iter()
        .map(|i| std::mem::take(&mut unsorted[i]))
        .collect();
}

#[cfg(test)]
mod tests {
    use super::*;
    use diablo_runtime::array::key_value;
    use diablo_runtime::BinOp;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn ctx() -> Context {
        Context::new(4, 8)
    }

    #[test]
    fn from_vec_cuts_the_callers_rows_where_they_lie() {
        // The partitions the rows were copied into before binding kept the
        // caller's vector: `⌈n / p⌉` rows each, in order.
        fn copied(rows: &[Value], p: usize) -> Vec<Vec<Value>> {
            let chunk = rows.len().div_ceil(p).max(1);
            let mut it = rows.iter().cloned();
            (0..p).map(|_| it.by_ref().take(chunk).collect()).collect()
        }
        for p in [1, 2, 3, 4, 7] {
            for n in [0, 1, p - 1, p, p + 1, 1_000] {
                let rows: Vec<Value> = (0..n as i64).map(Value::Long).collect();
                let want = copied(&rows, p);
                let at = rows.as_ptr();
                let d = Dataset::from_vec(Context::new(2, p), rows);
                let PlanOp::Scan(base) = d.plan.as_ref() else {
                    panic!("bound rows are a scan");
                };
                assert_eq!(
                    base.rows().as_ptr(),
                    at,
                    "n {n}, p {p}: the caller's vector"
                );
                let forced = d.force().unwrap();
                let parts = forced.parts();
                assert_eq!(parts, want, "n {n}, p {p}");
                for (i, part) in parts.iter().enumerate() {
                    let start = want[..i].iter().map(Vec::len).sum::<usize>();
                    assert_eq!(part.as_ptr(), at.wrapping_add(start), "n {n}, p {p}");
                }
                let read = d.map(|v| Ok(v.clone())).unwrap().try_collect().unwrap();
                assert_eq!(read, want.concat(), "n {n}, p {p}");
            }
        }
    }

    fn pairs(ctx: &Context, entries: &[(i64, i64)]) -> Dataset {
        ctx.from_vec(
            entries
                .iter()
                .map(|&(k, v)| Value::pair(Value::Long(k), Value::Long(v)))
                .collect(),
        )
    }

    #[test]
    fn map_filter_flat_map() {
        let ctx = ctx();
        let d = ctx.range(1, 100).unwrap();
        let doubled = d.map(|v| BinOp::Mul.apply(v, &Value::Long(2))).unwrap();
        assert_eq!(doubled.count(), 100);
        let evens = d.filter(|v| Ok(v.as_long().unwrap() % 2 == 0)).unwrap();
        assert_eq!(evens.count(), 50);
        let dup = d.flat_map(|v| Ok(vec![v.clone(), v.clone()])).unwrap();
        assert_eq!(dup.count(), 200);
    }

    #[test]
    fn narrow_ops_are_lazy_until_materialized() {
        let ctx = ctx();
        let calls = Arc::new(AtomicUsize::new(0));
        let d = ctx.range(1, 10).unwrap();
        let c = calls.clone();
        let mapped = d
            .map(move |v| {
                c.fetch_add(1, Ordering::Relaxed);
                Ok(v.clone())
            })
            .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 0, "map must not run eagerly");
        assert_eq!(mapped.count(), 10);
        assert_eq!(calls.load(Ordering::Relaxed), 10);
        // The cache means a second read does not re-run the chain.
        assert_eq!(mapped.count(), 10);
        assert_eq!(calls.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn derived_ops_build_on_cached_materialization() {
        // Once a dataset is forced, downstream operators must read its
        // cached partitions, never re-execute the upstream chain.
        let ctx = ctx();
        let calls = Arc::new(AtomicUsize::new(0));
        let c = calls.clone();
        let mapped = ctx
            .range(1, 10)
            .unwrap()
            .map(move |v| {
                c.fetch_add(1, Ordering::Relaxed);
                Ok(v.clone())
            })
            .unwrap();
        assert_eq!(mapped.count(), 10);
        assert_eq!(calls.load(Ordering::Relaxed), 10);
        let downstream = mapped.filter(|_| Ok(true)).unwrap();
        assert_eq!(downstream.count(), 10);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            10,
            "deriving from a forced dataset must not re-run its chain"
        );
        let keyed = mapped
            .map(|v| Ok(Value::pair(v.clone(), Value::Long(1))))
            .unwrap();
        let _ = keyed
            .reduce_by_key(|a, b| BinOp::Add.apply(a, b))
            .unwrap()
            .collect();
        assert_eq!(
            calls.load(Ordering::Relaxed),
            10,
            "shuffles reuse the cache too"
        );
    }

    #[test]
    fn narrow_chain_fuses_into_one_physical_stage() {
        let ctx = ctx();
        let d = ctx.range(1, 1000).unwrap();
        let chained = d
            .map(|v| BinOp::Mul.apply(v, &Value::Long(3)))
            .unwrap()
            .filter(|v| Ok(v.as_long().unwrap() % 2 == 0))
            .unwrap()
            .flat_map(|v| Ok(vec![v.clone(), v.clone()]))
            .unwrap()
            .map(|v| BinOp::Add.apply(v, &Value::Long(1)))
            .unwrap();
        let before = ctx.stats().snapshot();
        let rows = chained.collect();
        let after = ctx.stats().snapshot().since(&before);
        assert_eq!(after.physical_stages, 1, "4 narrow ops fuse into 1 stage");
        assert_eq!(rows.len(), 1000);
    }

    #[test]
    fn fused_chain_matches_stepwise_materialization() {
        let ctx = ctx();
        let d = ctx.range(1, 200).unwrap();
        let fused = d
            .map(|v| BinOp::Mul.apply(v, &Value::Long(2)))
            .unwrap()
            .filter(|v| Ok(v.as_long().unwrap() % 3 == 0))
            .unwrap()
            .flat_map(|v| Ok(vec![v.clone(), Value::Long(-v.as_long().unwrap())]))
            .unwrap();
        let stepwise = d
            .map(|v| BinOp::Mul.apply(v, &Value::Long(2)))
            .unwrap()
            .materialize()
            .unwrap()
            .filter(|v| Ok(v.as_long().unwrap() % 3 == 0))
            .unwrap()
            .materialize()
            .unwrap()
            .flat_map(|v| Ok(vec![v.clone(), Value::Long(-v.as_long().unwrap())]))
            .unwrap();
        assert_eq!(fused.collect(), stepwise.collect());
    }

    #[test]
    fn explain_renders_pending_chain() {
        let ctx = ctx();
        let d = ctx.range(1, 10).unwrap();
        let chained = d
            .map(|v| Ok(v.clone()))
            .unwrap()
            .filter(|_| Ok(true))
            .unwrap();
        let plan = chained.explain();
        assert!(plan.contains("scan"), "{plan}");
        assert!(plan.contains("map"), "{plan}");
        assert!(plan.contains("filter"), "{plan}");
        assert!(plan.contains("fused"), "{plan}");
    }

    #[test]
    fn range_covers_inclusive_bounds() {
        let ctx = ctx();
        let d = ctx.range(5, 9).unwrap();
        assert_eq!(
            d.collect_sorted(),
            (5..=9).map(Value::Long).collect::<Vec<_>>()
        );
        assert_eq!(ctx.range(3, 2).unwrap().count(), 0, "empty range");
    }

    #[test]
    fn ranges_at_the_limits_of_long_hold_exactly_their_rows() {
        let ctx = ctx();
        for (lo, hi) in [(i64::MAX - 2, i64::MAX), (i64::MIN, i64::MIN + 2)] {
            let d = ctx.range(lo, hi).unwrap();
            assert_eq!(d.collect(), (lo..=hi).map(Value::Long).collect::<Vec<_>>());
        }
        assert_eq!(ctx.range(i64::MAX, i64::MIN).unwrap().count(), 0);
        for (lo, hi) in [(0, i64::MAX), (i64::MIN, i64::MAX), (-1, i64::MAX - 1)] {
            let err = ctx.range(lo, hi).unwrap_err().message;
            assert!(
                err.contains("more than 9223372036854775807 elements"),
                "{err}"
            );
        }
        assert_eq!(range_len(1, i64::MAX).unwrap(), i64::MAX as u64);
    }

    #[test]
    fn reduce_sums() {
        let ctx = ctx();
        let d = ctx.range(1, 1000).unwrap();
        let sum = d.reduce(|a, b| BinOp::Add.apply(a, b)).unwrap().unwrap();
        assert_eq!(sum, Value::Long(500500));
        assert_eq!(
            ctx.empty().reduce(|a, b| BinOp::Add.apply(a, b)).unwrap(),
            None
        );
    }

    #[test]
    fn reduce_fuses_pending_chain() {
        let ctx = ctx();
        let d = ctx.range(1, 100).unwrap();
        let before = ctx.stats().snapshot();
        let sum = d
            .map(|v| BinOp::Mul.apply(v, &Value::Long(2)))
            .unwrap()
            .filter(|v| Ok(v.as_long().unwrap() <= 100))
            .unwrap()
            .reduce(|a, b| BinOp::Add.apply(a, b))
            .unwrap()
            .unwrap();
        let after = ctx.stats().snapshot().since(&before);
        assert_eq!(sum, Value::Long((1..=50).map(|x| x * 2).sum::<i64>()));
        assert_eq!(
            after.physical_stages, 1,
            "chain + fold in one pass: {after:?}"
        );
    }

    #[test]
    fn reduce_by_key_combines_across_partitions() {
        let ctx = ctx();
        let entries: Vec<(i64, i64)> = (0..1000).map(|i| (i % 10, 1)).collect();
        let d = pairs(&ctx, &entries);
        let before = ctx.stats().snapshot();
        let r = d.reduce_by_key(|a, b| BinOp::Add.apply(a, b)).unwrap();
        let mut rows = r.collect_sorted();
        let after = ctx.stats().snapshot().since(&before);
        rows.sort();
        assert_eq!(rows.len(), 10);
        for row in rows {
            let (_, v) = key_value(&row).unwrap();
            assert_eq!(v, Value::Long(100));
        }
        // Map-side combining means at most partitions × keys rows shuffle.
        assert!(
            after.shuffled_records <= (8 * 10) as u64,
            "combiner limits shuffle: {after:?}"
        );
        // Combine+scatter fuse into one stage; the shuffle-read reduce is
        // the second (fused with the collect).
        assert_eq!(after.physical_stages, 2, "{after:?}");
    }

    #[test]
    fn reduce_by_key_then_map_then_shuffle_is_two_stages() {
        // Shuffle-read fusion: the post-shuffle reduce runs inside the
        // next scatter's stage, so reduce_by_key → map → shuffle costs 2
        // physical stages, not 3.
        let ctx = ctx();
        let entries: Vec<(i64, i64)> = (0..500).map(|i| (i % 20, 1)).collect();
        let d = pairs(&ctx, &entries);
        let before = ctx.stats().snapshot();
        let r = d
            .reduce_by_key(|a, b| BinOp::Add.apply(a, b))
            .unwrap()
            .map(|row| {
                let (k, v) = key_value(row)?;
                Ok(Value::pair(k, BinOp::Mul.apply(&v, &Value::Long(2))?))
            })
            .unwrap()
            .group_by_key()
            .unwrap();
        let after = ctx.stats().snapshot().since(&before);
        assert_eq!(
            after.physical_stages, 2,
            "combine+scatter, then reduce+map+scatter: {after:?}"
        );
        assert_eq!(r.count(), 20);

        // The same fusion on the materialize side: reduce_by_key → map →
        // collect is 2 stages, the reduce and the map inside the collect's.
        let stage_lines = |run: &dyn Fn()| {
            let before = ctx.stats().snapshot();
            ctx.start_plan_trace();
            run();
            let trace = ctx.take_plan_trace();
            let stages = ctx.stats().snapshot().since(&before).physical_stages;
            let lines: Vec<String> = trace
                .into_iter()
                .filter(|l| l.starts_with("stage "))
                .collect();
            assert_eq!(lines.len() as u64, stages, "{lines:?}");
            lines
        };
        let lines = stage_lines(&|| {
            let rows = d
                .reduce_by_key(|a, b| BinOp::Add.apply(a, b))
                .unwrap()
                .map(|row| Ok(row.clone()))
                .unwrap()
                .collect();
            assert_eq!(rows.len(), 20);
        });
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(
            lines[1].ends_with("→ reduce_by_key (reduce) → map ⇒ materialize (fused 2 narrow ops)"),
            "{lines:?}"
        );
        // A join forced by collect: its build–probe, and the step that
        // nests each match as `(k, (l, r))`, run inside the materialize
        // stage, after the two scatters — no extra stage.
        let other = pairs(&ctx, &[(3, 30), (4, 40), (99, 0)]);
        let lines = stage_lines(&|| assert_eq!(d.join(&other).unwrap().collect().len(), 50));
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(
            lines[2].ends_with("→ join (build + probe) → map ⇒ materialize (fused 2 narrow ops)"),
            "{lines:?}"
        );
    }

    #[test]
    fn group_by_key_collects_bags() {
        let ctx = ctx();
        let d = pairs(&ctx, &[(1, 10), (2, 20), (1, 30)]);
        let g = d.group_by_key().unwrap();
        let rows = g.collect_sorted();
        assert_eq!(rows.len(), 2);
        let (k, bag) = key_value(&rows[0]).unwrap();
        assert_eq!(k, Value::Long(1));
        let mut items = bag.as_bag().unwrap().to_vec();
        items.sort();
        assert_eq!(items, vec![Value::Long(10), Value::Long(30)]);
    }

    #[test]
    fn join_matches_keys() {
        let ctx = ctx();
        let l = pairs(&ctx, &[(1, 10), (2, 20), (3, 30)]);
        let r = pairs(&ctx, &[(2, 200), (3, 300), (4, 400)]);
        let j = l.join(&r).unwrap();
        let mut rows = j.collect_sorted();
        rows.sort();
        assert_eq!(
            rows,
            vec![
                Value::pair(
                    Value::Long(2),
                    Value::pair(Value::Long(20), Value::Long(200))
                ),
                Value::pair(
                    Value::Long(3),
                    Value::pair(Value::Long(30), Value::Long(300))
                ),
            ]
        );
    }

    #[test]
    fn join_duplicates_produce_cross_products() {
        let ctx = ctx();
        let l = pairs(&ctx, &[(1, 10), (1, 11)]);
        let r = pairs(&ctx, &[(1, 100), (1, 101)]);
        assert_eq!(l.join(&r).unwrap().count(), 4);
    }

    #[test]
    fn join_on_is_two_scatters_and_a_lazy_build_probe() {
        // Left rows (i, i % 3) joined on their second field with right
        // rows ((k, _), name) bound as (k, name): three stages — the
        // build–probe runs inside whatever reads it — and the rows that
        // cross the exchange are the rows themselves, not (key, row).
        let ctx = Context::new(2, 1);
        let left = ctx.from_vec(
            (0..9)
                .map(|i| Value::pair(Value::Long(i), Value::Long(i % 3)))
                .collect(),
        );
        let right = ctx.from_vec(
            [(2, "two"), (0, "zero"), (5, "five"), (2, "deux")]
                .iter()
                .map(|&(k, name)| {
                    Value::pair(Value::pair(Value::Long(k), Value::Unit), Value::str(name))
                })
                .collect(),
        );
        let on = JoinOn {
            left_key: RowExpr::Col(1),
            right: Shape::Tuple(vec![
                Shape::Tuple(vec![Shape::Bind, Shape::Skip]),
                Shape::Bind,
            ]),
            right_key: RowExpr::Col(0),
            mismatch: "join pattern ((k, _), name) does not match row".into(),
        };
        let before = ctx.stats().snapshot();
        let joined = left.join_on(&right, on).unwrap();
        let scattered = ctx.stats().snapshot().since(&before);
        assert_eq!(scattered.physical_stages, 2, "{scattered:?}");
        assert_eq!(scattered.shuffled_records, 9 + 4, "{scattered:?}");
        let rows = joined
            .map_expr(RowExpr::Tuple(vec![RowExpr::Col(0), RowExpr::Col(3)]))
            .unwrap()
            .collect();
        let after = ctx.stats().snapshot().since(&before);
        assert_eq!(after.physical_stages, 3, "{after:?}");
        // Each left row in arrival order (nothing matches key 1), followed
        // by every right row of its key, in arrival order.
        let want: Vec<Value> = [
            (0, "zero"),
            (2, "two"),
            (2, "deux"),
            (3, "zero"),
            (5, "two"),
            (5, "deux"),
            (6, "zero"),
            (8, "two"),
            (8, "deux"),
        ]
        .iter()
        .map(|&(i, name)| Value::pair(Value::Long(i), Value::str(name)))
        .collect();
        assert_eq!(rows, want);
    }

    #[test]
    fn cross_follows_every_row_with_every_items_leaves() {
        let ctx = ctx();
        let d = pairs(&ctx, &[(1, 10), (2, 20)]);
        let items = Arc::new(vec![
            Value::pair(Value::Long(7), Value::str("a")),
            Value::pair(Value::Long(8), Value::str("b")),
        ]);
        let shape = Shape::Tuple(vec![Shape::Skip, Shape::Bind]);
        let crossed = d.cross(items, shape, "pattern (_, s) does not match row");
        let s = |k, v, name| Value::tuple(vec![Value::Long(k), Value::Long(v), Value::str(name)]);
        assert_eq!(
            crossed.unwrap().collect(),
            vec![s(1, 10, "a"), s(1, 10, "b"), s(2, 20, "a"), s(2, 20, "b")]
        );
        // An item that does not fit is named, with the pattern's words.
        let bad = Arc::new(vec![Value::Long(3)]);
        let err = d
            .cross(
                bad,
                Shape::Tuple(vec![Shape::Bind]),
                "pattern (x) does not match row",
            )
            .unwrap()
            .try_collect()
            .unwrap_err();
        assert_eq!(err.message, "pattern (x) does not match row 3");
    }

    #[test]
    fn merge_replaces_and_combines() {
        let ctx = ctx();
        let old = pairs(&ctx, &[(1, 10), (2, 20)]);
        let upd = pairs(&ctx, &[(2, 5), (3, 30)]);
        let replaced = old
            .merge(&upd, None::<fn(&Value, &Value) -> Result<Value>>)
            .unwrap();
        assert_eq!(
            replaced.collect_sorted(),
            vec![
                Value::pair(Value::Long(1), Value::Long(10)),
                Value::pair(Value::Long(2), Value::Long(5)),
                Value::pair(Value::Long(3), Value::Long(30)),
            ]
        );
        let combined = old
            .merge(&upd, Some(|a: &Value, b: &Value| BinOp::Add.apply(a, b)))
            .unwrap();
        assert_eq!(
            combined.collect_sorted(),
            vec![
                Value::pair(Value::Long(1), Value::Long(10)),
                Value::pair(Value::Long(2), Value::Long(25)),
                Value::pair(Value::Long(3), Value::Long(30)),
            ]
        );
    }

    #[test]
    fn a_merge_into_a_fill_generates_the_scattered_fills_buckets() {
        // The fill's rows, generated bucket by bucket in the merge's slot
        // combine, against the same rows scattered as an ordinary old side:
        // the same rows in every bucket, in the same order, at the limits
        // of long, for no key, for one and for many, over several
        // partition counts.
        let add = Some(|a: &Value, b: &Value| BinOp::Add.apply(a, b));
        for (lo, hi) in [
            (i64::MAX - 2, i64::MAX),
            (i64::MIN, i64::MIN + 2),
            (5, 4),
            (7, 7),
            (-50, 200),
        ] {
            for partitions in [1, 2, 3, 4, 7] {
                let ctx = Context::new(2, partitions);
                let value = Value::Long(1);
                let fill = Dataset::range_fill(ctx.clone(), lo, hi, value.clone()).unwrap();
                assert_eq!(fill.key_range(), Some(KeyRange::of(lo, hi)));
                assert_eq!(fill.is_known_empty(), hi < lo);
                let row = RowExpr::Tuple(vec![RowExpr::Input, RowExpr::Const(value)]);
                let scattered = ctx.range(lo, hi).unwrap().map_expr(row).unwrap();
                assert!(scattered.fill().is_none());
                let updates = pairs(&ctx, &[(lo, 10), (hi, 20), (0, 30)]);
                let shuffles = || ctx.stats().snapshot().shuffles;
                let before = shuffles();
                let generated = fill.merge(&updates, add).unwrap().force().unwrap();
                assert_eq!(shuffles() - before, 1, "the fill is not scattered");
                let want = scattered.merge(&updates, add).unwrap().force().unwrap();
                assert_eq!(
                    generated.parts(),
                    want.parts(),
                    "[{lo}, {hi}] over {partitions} partitions"
                );
            }
        }
    }

    #[test]
    fn a_merge_of_two_known_key_ranges_knows_their_union() {
        let ctx = ctx();
        let none = None::<fn(&Value, &Value) -> Result<Value>>;
        let fill = Dataset::range_fill(ctx.clone(), 0, 9, Value::Long(0)).unwrap();
        let far = Dataset::range_fill(ctx.clone(), 20, 29, Value::Long(1)).unwrap();
        let merged = fill.merge(&far, none).unwrap();
        assert_eq!(merged.key_range(), Some(KeyRange::of(0, 29)));
        assert!(merged.fill().is_none(), "a merge is no fill");
        // A pending side's range is unknown, and so is the merge's until
        // it is forced and asked.
        let pending = pairs(&ctx, &[(40, 1)]).map_expr(RowExpr::Input).unwrap();
        let merged = fill.merge(&pending, none).unwrap();
        assert_eq!(merged.key_range(), None);
        merged.materialize().unwrap();
        assert_eq!(merged.key_range(), Some(KeyRange::of(0, 40)));
        assert!(merged.keys_within(0, 40).unwrap());
        assert!(!merged.keys_within(0, 39).unwrap());
        // A key that is not a long has no range.
        let doubles = ctx.from_vec(vec![Value::pair(Value::Double(1.0), Value::Long(1))]);
        assert_eq!(doubles.key_range(), None);
    }

    #[test]
    fn errors_surface_at_materialization() {
        let ctx = ctx();
        let d = ctx.range(0, 100).unwrap();
        let mapped = d
            .map(|v| {
                if v.as_long() == Some(50) {
                    Err(RuntimeError::new("boom"))
                } else {
                    Ok(v.clone())
                }
            })
            .unwrap();
        let err = mapped.try_collect();
        assert!(err.is_err());
        // Shuffle paths surface the same error through their Result.
        let keyed = ctx
            .range(0, 100)
            .unwrap()
            .map(|v| {
                if v.as_long() == Some(50) {
                    Err(RuntimeError::new("boom"))
                } else {
                    Ok(Value::pair(v.clone(), Value::Long(1)))
                }
            })
            .unwrap();
        assert!(keyed.reduce_by_key(|a, b| BinOp::Add.apply(a, b)).is_err());
    }

    #[test]
    fn fused_errors_carry_statement_tags() {
        // A statement label set while a plan node is built prefixes any
        // error that node later raises — error locality under laziness.
        let ctx = ctx();
        ctx.set_statement_label(Some("s1: X := boom"));
        let d = ctx
            .range(0, 10)
            .unwrap()
            .map(|v| {
                if v.as_long() == Some(5) {
                    Err(RuntimeError::new("boom"))
                } else {
                    Ok(v.clone())
                }
            })
            .unwrap();
        ctx.set_statement_label(None);
        // Materialization happens later, in a different "statement".
        let err = d.try_collect().unwrap_err();
        assert!(err.message.contains("s1: X := boom"), "{err}");
        assert!(err.message.contains("boom"), "{err}");
    }

    #[test]
    fn broadcast_counts_in_stats() {
        let ctx = ctx();
        let d = ctx.range(0, 9).unwrap();
        let before = ctx.stats().snapshot();
        let b = d.broadcast().unwrap();
        assert_eq!(b.len(), 10);
        let after = ctx.stats().snapshot().since(&before);
        assert_eq!(after.broadcasts, 1);
        assert_eq!(after.broadcast_records, 10);
    }

    #[test]
    fn a_broadcast_shares_the_forced_rows() {
        let ctx = ctx();
        ctx.set_dataset_budget(None);
        let forced = ctx
            .range(0, 99)
            .unwrap()
            .map(|v| Ok(v.clone()))
            .unwrap()
            .materialize()
            .unwrap();
        for d in [forced, ctx.range(0, 9).unwrap()] {
            let (a, b) = (d.broadcast().unwrap(), d.broadcast().unwrap());
            assert!(Arc::ptr_eq(&a, &b));
            assert_eq!(*a, d.collect());
        }
    }

    #[test]
    fn shuffle_determinism() {
        let ctx = ctx();
        let entries: Vec<(i64, i64)> = (0..500).map(|i| (i % 37, i)).collect();
        let d = pairs(&ctx, &entries);
        let a = d.group_by_key().unwrap().collect();
        let b = d.group_by_key().unwrap().collect();
        assert_eq!(a, b, "repeated shuffles are deterministic");
    }
}
