//! # diablo-dataflow
//!
//! A from-scratch, multi-threaded, partitioned data-parallel engine — the
//! substitute for Apache Spark in this reproduction (the paper's evaluation
//! platform, §6). It is deliberately shaped like Spark's core, including
//! Spark's **lazy evaluation**: transformations build a plan; actions run
//! it.
//!
//! ## Architecture: plan → fuse → execute
//!
//! * a [`Dataset`] is an immutable bag of rows split into hash partitions,
//!   described by a lazy **physical plan** — a DAG of `PlanOp` nodes
//!   (`Scan`, `Cached`, `Map`, `Filter`, `FlatMap`, `Shuffled`)
//!   built by the operator methods without running anything;
//! * *narrow* operations (`map`, `filter`, `flat_map`) append a
//!   plan node and return immediately — no data moves, no threads run;
//! * one **plan walker** runs the plan: at every materialization point it
//!   collapses the pending narrow chain into one fused stage per partition
//!   and schedules the partitions on the context's work-stealing pool. The
//!   [`Layout`] decides how a stage pushes rows through its chain:
//!   [`Layout::Columnar`] (the default) runs a chain whose steps are all
//!   transparent as typed column chunks with per-column inner loops and
//!   every other chain tuple-at-a-time, per stage; [`Layout::Row`] runs
//!   every chain tuple-at-a-time — the reference the conformance suites
//!   hold the default to through [`Context::with_layout`]; results are
//!   identical either way;
//! * data crosses partitions only through the **exchange**: a
//!   [`HashPartitioner`] picks each key's destination bucket, and a
//!   streaming sink/reader pair moves rows
//!   under a memory budget ([`Context::with_memory_budget`], `DIABLO_MEMORY_BUDGET`) —
//!   buckets past the budget spill to sorted run files and merge-read
//!   back in source order, byte-identical to the in-memory exchange;
//! * at every **materialization point** — a shuffle (`group_by_key`,
//!   `reduce_by_key`, `join`, the array-merge `⊳`), `collect`,
//!   `reduce`, or `broadcast` — the walker **fuses** the pending narrow
//!   chain into a single closure and runs it once per partition on the
//!   worker pool. A chain of N narrow operators costs one pass over the
//!   source rows and allocates no per-operator intermediate `Vec`;
//! * *shuffle* operations physically re-bucket rows by key hash before the
//!   next stage, exactly where Spark would exchange data across executors.
//!   Their scatter pass fuses the pending chain too, and the
//!   **shuffle-read side is lazy**: the post-shuffle reduce/group/combine
//!   is a pending plan node that fuses with the next consumer, so
//!   `reduce_by_key → map → shuffle` is two physical stages, not three;
//! * `reduce_by_key` performs map-side combining (Spark's combiner), which
//!   is what makes the Word-Count/Histogram/Group-By shapes of Figure 3
//!   come out right;
//! * a join is one operator ([`Dataset::join_on`], with [`Dataset::join`]
//!   as its `(key, value)` form): both keys are [`RowExpr`]s, so each side
//!   scatters its rows by a key computed as a column and the rows cross
//!   the exchange as themselves; the lazy post-shuffle stage is a
//!   build–probe over row indices whose output is a match list, not rows
//!   — a columnar chain above it gathers its columns from the two sides.
//!   Its keyless counterpart is
//!   [`Dataset::cross`], a broadcast nested loop as a transparent
//!   expansion step;
//! * a dense matrix statement can run on §5 blocks instead
//!   ([`Dataset::block_zip`], [`Dataset::block_contract`]): each side
//!   packs its elements into `BLOCK_SIDE` × `BLOCK_SIDE` blocks with a
//!   presence mask inside its scatter stage, blocks cross the exchange as
//!   ordinary rows, and the lazy post-shuffle stage combines them and
//!   unpacks only result elements;
//! * broadcasts materialize a dataset on "all workers" (here: one shared
//!   `Arc`), mirroring Spark's broadcast variables used by the hand-written
//!   K-Means baseline.
//!
//! Fusion never changes results: output rows, their order, and all error
//! messages are bit-identical to operator-at-a-time execution (the
//! property tests in `tests/prop_fusion.rs` check this against an eager
//! reference).
//!
//! ## Observability
//!
//! [`Stats`] separates **logical operators** (how many `Dataset` methods a
//! program called — the plan's shape) from **physical stages** (how many
//! fused per-partition passes actually ran), plus shuffled records/bytes
//! and broadcast sizes, so benchmarks can report both data movement and
//! fusion wins. [`Context::start_plan_trace`] records a textual line per
//! physical stage — the engine-level "explain" that `diabloc --explain`
//! prints — and [`Dataset::explain`] renders a still-pending plan.

// This crate holds the workspace's only unsafe code (the worker pool's
// result slots and type-erased stage tasks); every unsafe block must say
// why it is sound, and CI runs the pool's unit tests under Miri.
#![warn(clippy::undocumented_unsafe_blocks)]

mod block;
mod chunk;
mod columnar;
mod dataset;
mod dscache;
mod exchange;
mod join;
mod keytable;
mod plan;
mod pool;
mod stats;
mod verify;

pub use block::{BlockContract, BlockZip, ElementCols, IndexRange, BLOCK_SIDE};
pub use columnar::{FieldName, RowExpr, Shape};
pub use dataset::{range_len, Dataset, JoinOn, Known};
pub use exchange::{decode_value, encode_value, HashPartitioner, MAX_VALUE_DEPTH};
pub use stats::{Stats, StatsSnapshot};

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use diablo_runtime::{RuntimeError, Value};

/// How a fused stage pushes rows through its narrow chain. Layout is
/// execution policy only: rows, their order, stage and shuffle counts, and
/// first errors (statement tags included) are the same under both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// The default: a chain whose steps are all transparent
    /// ([`RowExpr`]-described) runs tile by tile over typed column chunks;
    /// a chain with an opaque step runs tuple-at-a-time, per stage
    /// (counted in [`StatsSnapshot::row_fallback_stages`] and noted as
    /// `layout: row (…)` in the plan trace).
    Columnar,
    /// Tuple-at-a-time everywhere: the reference the columnar layout is
    /// held byte-identical to.
    Row,
}

impl Layout {
    /// The backend name of this layout (`columnar`, or `local` for the
    /// row layout): what [`StatsSnapshot::backend`] and `explain` report.
    pub fn name(self) -> &'static str {
        match self {
            Layout::Columnar => "columnar",
            Layout::Row => "local",
        }
    }
}

/// Rows per column tile of the columnar layout, unless
/// [`Context::with_tile_width`] says otherwise.
pub const DEFAULT_TILE_WIDTH: usize = 4096;

/// Handle to the engine: worker count, partition count, execution
/// settings, and run statistics.
///
/// Cheap to clone; all clones share the same statistics and settings.
#[derive(Clone)]
pub struct Context {
    inner: Arc<ContextInner>,
}

struct ContextInner {
    workers: usize,
    partitions: usize,
    /// Shared so long-lived handles (e.g. a columnar `DriveMode` carried
    /// inside plan partitions) can record without holding the context.
    stats: Arc<Stats>,
    plan_trace: Mutex<Option<Vec<String>>>,
    stmt_label: Mutex<Option<Arc<str>>>,
    settings: Settings,
    /// The persistent work-stealing pool, built on first stage. Held in an
    /// `Arc` so [`Context::fork`]ed tenant contexts share one pool.
    pool: OnceLock<Arc<pool::WorkerPool>>,
    /// The shared dataset cache (built on first use). Held in an `Arc`
    /// so [`Context::fork`]ed tenant contexts share one cache — and one
    /// dataset budget — the way they share one worker pool.
    dscache: OnceLock<Arc<dscache::DatasetCache>>,
}

/// The per-context execution settings a [`Context::fork`] copies. The
/// dataset budget is not here: it belongs to the dataset cache, which
/// forks share.
struct Settings {
    /// [`Layout::Columnar`] when set, else [`Layout::Row`].
    columnar: AtomicBool,
    /// Rows per column tile of the columnar layout.
    tile_width: AtomicUsize,
    /// Exchange memory budget in bytes; `u64::MAX` means unbounded.
    memory_budget: AtomicU64,
}

impl Settings {
    /// The defaults, as the `DIABLO_*` environment variables amend them.
    fn from_env() -> Settings {
        Settings {
            columnar: AtomicBool::new(true),
            tile_width: AtomicUsize::new(DEFAULT_TILE_WIDTH),
            memory_budget: AtomicU64::new(memory_budget_from_env()),
        }
    }

    /// A copy of every setting, for a fork.
    fn copy(&self) -> Settings {
        Settings {
            columnar: AtomicBool::new(self.columnar.load(Ordering::Relaxed)),
            tile_width: AtomicUsize::new(self.tile_width.load(Ordering::Relaxed)),
            memory_budget: AtomicU64::new(self.memory_budget.load(Ordering::Relaxed)),
        }
    }
}

impl Context {
    /// Creates a context with `workers` threads and `partitions` hash
    /// partitions per dataset, in the [`Layout::Columnar`] layout
    /// ([`Context::with_layout`] selects the row reference).
    pub fn new(workers: usize, partitions: usize) -> Context {
        Context::with_settings(workers, partitions, Settings::from_env())
    }

    fn with_settings(workers: usize, partitions: usize, settings: Settings) -> Context {
        assert!(workers > 0, "need at least one worker");
        assert!(partitions > 0, "need at least one partition");
        Context {
            inner: Arc::new(ContextInner {
                workers,
                partitions,
                stats: Arc::new(Stats::default()),
                plan_trace: Mutex::new(None),
                stmt_label: Mutex::new(None),
                settings,
                pool: OnceLock::new(),
                dscache: OnceLock::new(),
            }),
        }
    }

    /// A context sized to the machine: one worker per available core and
    /// two partitions per worker.
    pub fn default_parallel() -> Context {
        Context::sized(None, None)
    }

    /// A context sized from optional worker/partition counts; whatever is
    /// missing falls back to [`Context::default_parallel`]'s policy (one
    /// worker per available core, two partitions per worker). This is the
    /// single home of that policy — driver layers (`diabloc --workers/
    /// --partitions`) build partially specified shapes through it.
    pub fn sized(workers: Option<usize>, partitions: Option<usize>) -> Context {
        let w =
            workers.unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()));
        Context::new(w, partitions.unwrap_or(w * 2))
    }

    /// Sets the [`Layout`] every later stage runs in (builder style).
    /// Affects every clone of this context; results never change.
    pub fn with_layout(self, layout: Layout) -> Context {
        self.inner
            .settings
            .columnar
            .store(layout == Layout::Columnar, Ordering::Relaxed);
        self
    }

    /// The layout stages run in.
    pub fn layout(&self) -> Layout {
        if self.inner.settings.columnar.load(Ordering::Relaxed) {
            Layout::Columnar
        } else {
            Layout::Row
        }
    }

    /// Sets the rows per column tile of the columnar layout (builder
    /// style; default [`DEFAULT_TILE_WIDTH`]). A width that cuts
    /// partitions into several tiles — 1 or 7 on small inputs — is how
    /// tests reach the tile-boundary replay of a failing tile; results
    /// never change.
    ///
    /// # Panics
    /// Panics on a zero width.
    pub fn with_tile_width(self, rows: usize) -> Context {
        assert!(rows > 0, "tile width must be positive");
        self.inner
            .settings
            .tile_width
            .store(rows, Ordering::Relaxed);
        self
    }

    /// Rows per column tile of the columnar layout.
    pub fn tile_width(&self) -> usize {
        self.inner.settings.tile_width.load(Ordering::Relaxed)
    }

    /// Caps the bytes of exchanged rows a shuffle may buffer in memory
    /// (builder style): buckets past the budget spill to sorted run files
    /// and are merge-read back in source order, so results are identical
    /// to an unbounded exchange. Defaults to the `DIABLO_MEMORY_BUDGET`
    /// environment variable, else unbounded.
    pub fn with_memory_budget(self, bytes: u64) -> Context {
        self.set_memory_budget(Some(bytes));
        self
    }

    /// Sets (or clears, with `None`) the exchange memory budget in place.
    pub fn set_memory_budget(&self, bytes: Option<u64>) {
        self.inner
            .settings
            .memory_budget
            .store(bytes.unwrap_or(u64::MAX), Ordering::Relaxed);
    }

    /// The exchange memory budget in bytes, if one is set.
    pub fn memory_budget(&self) -> Option<u64> {
        match self.inner.settings.memory_budget.load(Ordering::Relaxed) {
            u64::MAX => None,
            b => Some(b),
        }
    }
    /// Caps the bytes of **materialized datasets** the context keeps
    /// pinned in memory (builder style): forcing a dataset past the
    /// budget demotes the least-recently-used entries to disk files
    /// (re-read transparently), and entries past the disk ledger are
    /// dropped entirely and **recomputed from lineage** on the next
    /// read — so results are identical to an unbounded cache. A budget
    /// of `0` disables dataset caching: every re-read recomputes.
    /// Defaults to the `DIABLO_DATASET_BUDGET` environment variable,
    /// else unbounded.
    pub fn with_dataset_budget(self, bytes: u64) -> Context {
        self.set_dataset_budget(Some(bytes));
        self
    }

    /// Sets (or clears, with `None`) the dataset cache budget in place.
    pub fn set_dataset_budget(&self, bytes: Option<u64>) {
        self.dataset_cache().set_budget(bytes.unwrap_or(u64::MAX));
    }

    /// The dataset cache budget in bytes, if one is set.
    pub fn dataset_budget(&self) -> Option<u64> {
        match self.dataset_cache().budget() {
            u64::MAX => None,
            b => Some(b),
        }
    }

    /// The shared dataset cache (built on first use).
    pub(crate) fn dataset_cache(&self) -> &Arc<dscache::DatasetCache> {
        self.inner
            .dscache
            .get_or_init(|| Arc::new(dscache::DatasetCache::new(dataset_budget_from_env())))
    }

    /// The persistent work-stealing pool (built on first use).
    pub(crate) fn pool(&self) -> &pool::WorkerPool {
        self.inner
            .pool
            .get_or_init(|| Arc::new(pool::WorkerPool::new(self.inner.workers)))
    }

    /// A **tenant context**: a new context that shares this context's
    /// worker pool and dataset cache (and copies its shape and every
    /// setting — layout, tile width, memory budget) but
    /// owns fresh statistics, plan trace, and statement labels. This is
    /// the multi-tenant serving primitive: each request runs its session
    /// on a fork, so per-request statistics and statement-label plan
    /// tagging never interleave across concurrent requests, while every
    /// stage still schedules onto the one shared pool. (The pool itself
    /// already tolerates concurrent submitters: a stage submitted while
    /// another is in flight runs inline on the submitting thread.)
    pub fn fork(&self) -> Context {
        let child = Context::with_settings(
            self.workers(),
            self.partitions(),
            self.inner.settings.copy(),
        );
        // Share the parent's pool (forcing its creation): the OnceLock is
        // fresh on the child, so pre-filling it makes every child stage
        // schedule onto the parent's workers.
        let _ = self.pool();
        let shared = self.inner.pool.get().expect("pool just built").clone();
        let _ = child.inner.pool.set(shared);
        // Share the dataset cache too: all tenants cache under ONE
        // dataset budget, so concurrent sessions cannot multiply pinned
        // memory past it. (Cache-event counters still land on the
        // calling tenant's stats — the cache records against the
        // context passed into each operation.)
        let _ = child.inner.dscache.set(self.dataset_cache().clone());
        child
    }

    /// Sets (or clears) the source-statement label attached to plan nodes
    /// built from now on. Driver layers set this per statement so fused
    /// stages spanning several statements can report all of them, and so
    /// deferred operator errors name the statement they came from.
    pub fn set_statement_label(&self, label: Option<&str>) {
        *self.statement_label_lock() = label.map(Arc::from);
    }

    /// The current source-statement label, if any.
    pub(crate) fn statement_label(&self) -> Option<Arc<str>> {
        self.statement_label_lock().clone()
    }

    /// The statement label, even after a thread panicked holding it: its
    /// holders replace or clone one `Option` and panic nowhere in between,
    /// so the label a panic leaves behind is whole.
    fn statement_label_lock(&self) -> std::sync::MutexGuard<'_, Option<Arc<str>>> {
        self.inner
            .stmt_label
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The plan trace, even after a thread panicked holding it: its
    /// holders replace the `Option`, take it, or push one line onto its
    /// `Vec`, so a panic leaves it holding every line pushed before.
    fn plan_trace_lock(&self) -> std::sync::MutexGuard<'_, Option<Vec<String>>> {
        self.inner
            .plan_trace
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Number of partitions per dataset.
    pub fn partitions(&self) -> usize {
        self.inner.partitions
    }

    /// The run statistics.
    pub fn stats(&self) -> &Stats {
        &self.inner.stats
    }

    /// A shared handle to the run statistics — what the columnar drive
    /// mode carries so vectorized-batch counts land on this context even
    /// when recorded deep inside plan execution.
    pub(crate) fn stats_arc(&self) -> Arc<Stats> {
        self.inner.stats.clone()
    }

    /// A statistics snapshot with the **effective context settings**
    /// (backend, workers, partitions, memory and dataset budgets, and the
    /// scheduler's constants) filled in alongside the
    /// counters, so emitted benchmark rows are self-describing.
    /// [`Stats::snapshot`] alone leaves the settings at their empty
    /// defaults — it cannot see the context.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let mut snap = self.inner.stats.snapshot();
        snap.backend = self.layout().name().to_string();
        snap.workers = self.workers() as u64;
        snap.partitions = self.partitions() as u64;
        snap.morsel_size = u64::MAX;
        snap.memory_budget = self.memory_budget().unwrap_or(u64::MAX);
        snap.dataset_budget = self.dataset_budget().unwrap_or(u64::MAX);
        snap.scheduler = "morsel".to_string();
        snap
    }

    /// Counts one logical `Dataset` operator invocation.
    pub(crate) fn record_logical_op(&self) {
        self.inner.stats.record_logical_op();
    }

    /// Counts one physical per-partition pass.
    pub(crate) fn record_physical_stage(&self) {
        self.inner.stats.record_physical_stage();
    }

    /// Starts recording a textual line per physical stage / shuffle /
    /// broadcast — the executed-plan trace behind `diabloc --explain`.
    pub fn start_plan_trace(&self) {
        *self.plan_trace_lock() = Some(Vec::new());
    }

    /// Stops recording and returns the trace lines (empty if tracing was
    /// never started).
    pub fn take_plan_trace(&self) -> Vec<String> {
        self.plan_trace_lock().take().unwrap_or_default()
    }

    /// Appends a line to the plan trace; no-op unless tracing is active.
    /// Public so driver layers can interleave statement markers with the
    /// engine's stage lines.
    pub fn plan_note(&self, note: impl Into<String>) {
        if let Some(trace) = self.plan_trace_lock().as_mut() {
            trace.push(note.into());
        }
    }

    /// Creates a dataset from a vector of rows, chunk-partitioned.
    pub fn from_vec(&self, rows: Vec<Value>) -> Dataset {
        Dataset::from_vec(self.clone(), rows)
    }

    /// Creates a dataset of longs `lo..=hi`, range-partitioned; more than
    /// `i64::MAX` rows is an error.
    pub fn range(&self, lo: i64, hi: i64) -> Result<Dataset, RuntimeError> {
        Dataset::range(self.clone(), lo, hi)
    }

    /// Creates an empty dataset.
    pub fn empty(&self) -> Dataset {
        Dataset::from_vec(self.clone(), Vec::new())
    }
}

/// The exchange budget named by `DIABLO_MEMORY_BUDGET` (bytes), or
/// unbounded. Panics on an unparseable value so a typo in a CI job fails
/// loudly instead of silently testing the in-memory path.
fn memory_budget_from_env() -> u64 {
    match std::env::var("DIABLO_MEMORY_BUDGET") {
        Ok(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("DIABLO_MEMORY_BUDGET={s}: not a byte count")),
        Err(_) => u64::MAX,
    }
}

/// The dataset cache budget named by `DIABLO_DATASET_BUDGET` (bytes), or
/// unbounded. Panics on an unparseable value so a typo in a CI job fails
/// loudly instead of silently testing the unbounded cache.
fn dataset_budget_from_env() -> u64 {
    match std::env::var("DIABLO_DATASET_BUDGET") {
        Ok(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("DIABLO_DATASET_BUDGET={s}: not a byte count")),
        Err(_) => u64::MAX,
    }
}

impl std::fmt::Debug for Context {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Context")
            .field("workers", &self.inner.workers)
            .field("partitions", &self.inner.partitions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_reports_shape() {
        let ctx = Context::new(3, 7);
        assert_eq!(ctx.workers(), 3);
        assert_eq!(ctx.partitions(), 7);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = Context::new(0, 1);
    }

    #[test]
    fn memory_budget_round_trips() {
        let ctx = Context::new(1, 2);
        ctx.set_memory_budget(Some(4096));
        assert_eq!(ctx.memory_budget(), Some(4096));
        assert_eq!(
            ctx.clone().memory_budget(),
            Some(4096),
            "clones share the budget"
        );
        ctx.set_memory_budget(None);
        assert_eq!(ctx.memory_budget(), None);
        let built = Context::new(1, 2).with_memory_budget(0);
        assert_eq!(built.memory_budget(), Some(0), "0 is a real budget");
    }

    #[test]
    fn dataset_budget_round_trips() {
        let ctx = Context::new(1, 2);
        if std::env::var("DIABLO_DATASET_BUDGET").is_err() {
            assert_eq!(ctx.dataset_budget(), None, "unbounded by default");
        }
        ctx.set_dataset_budget(Some(4096));
        assert_eq!(ctx.dataset_budget(), Some(4096));
        assert_eq!(
            ctx.clone().dataset_budget(),
            Some(4096),
            "clones share the budget"
        );
        assert_eq!(
            ctx.fork().dataset_budget(),
            Some(4096),
            "tenant forks share the cache and its budget"
        );
        ctx.set_dataset_budget(None);
        assert_eq!(ctx.dataset_budget(), None);
        let built = Context::new(1, 2).with_dataset_budget(0);
        assert_eq!(built.dataset_budget(), Some(0), "0 disables caching");
    }

    #[test]
    fn layout_and_tile_width_round_trip() {
        let ctx = Context::new(2, 4)
            .with_layout(Layout::Row)
            .with_tile_width(7);
        assert_eq!(ctx.layout(), Layout::Row);
        assert_eq!(ctx.tile_width(), 7);
        assert_eq!(ctx.clone().tile_width(), 7, "clones share the width");
        let ctx = ctx.with_layout(Layout::Columnar);
        assert_eq!(ctx.stats_snapshot().backend, "columnar");
        assert_eq!(
            Context::new(1, 1).with_tile_width(64).tile_width(),
            64,
            "{DEFAULT_TILE_WIDTH} is only the default"
        );
    }

    #[test]
    fn a_fork_carries_every_setting() {
        // Every setting away from its default, whatever `DIABLO_*` the
        // suite runs under.
        let defaults = Context::new(3, 5);
        let parent = Context::new(3, 5)
            .with_layout(Layout::Row)
            .with_tile_width(7)
            .with_memory_budget(4321)
            .with_dataset_budget(1234);
        let (p, f) = (parent.stats_snapshot(), parent.fork().stats_snapshot());
        assert_ne!(p.backend, defaults.stats_snapshot().backend);
        assert_eq!(
            (&f.backend, f.workers, f.partitions, f.morsel_size),
            (&p.backend, p.workers, p.partitions, p.morsel_size)
        );
        assert_eq!(
            (&f.scheduler, f.memory_budget, f.dataset_budget),
            (&p.scheduler, p.memory_budget, p.dataset_budget)
        );
        assert_eq!(parent.fork().tile_width(), 7);
    }

    #[test]
    fn plan_trace_records_between_start_and_take() {
        let ctx = Context::new(2, 4);
        ctx.plan_note("dropped");
        ctx.start_plan_trace();
        let d = ctx.range(1, 100).unwrap();
        let _ = d
            .map(|v| Ok(v.clone()))
            .unwrap()
            .filter(|_| Ok(true))
            .unwrap()
            .collect();
        let trace = ctx.take_plan_trace();
        assert!(!trace.is_empty());
        assert!(trace.iter().any(|l| l.contains("fused")), "{trace:?}");
        assert!(ctx.take_plan_trace().is_empty(), "trace was taken");
    }

    #[test]
    fn a_thread_that_panicked_holding_a_context_lock_poisons_nothing() {
        let ctx = Context::new(2, 4);
        ctx.start_plan_trace();
        ctx.plan_note("before the panic");
        let poison = |lock: fn(&Context)| {
            let ctx = ctx.clone();
            let died = std::thread::spawn(move || lock(&ctx)).join();
            assert!(died.is_err(), "the thread panicked");
        };
        poison(|ctx| {
            let _held = ctx.inner.stmt_label.lock();
            panic!("poisons the statement label");
        });
        poison(|ctx| {
            let _held = ctx.inner.plan_trace.lock();
            panic!("poisons the plan trace");
        });
        assert!(ctx.inner.stmt_label.is_poisoned());
        assert!(ctx.inner.plan_trace.is_poisoned());
        // A traced, labelled stage runs as it would have.
        ctx.set_statement_label(Some("s1:X"));
        let rows = ctx
            .range(1, 10)
            .and_then(|d| {
                d.map_expr(RowExpr::Bin(
                    diablo_runtime::BinOp::Mul,
                    Box::new(RowExpr::Input),
                    Box::new(RowExpr::Const(Value::Long(2))),
                ))
            })
            .and_then(|d| d.try_collect())
            .unwrap();
        assert_eq!(
            rows,
            (1..=10).map(|i| Value::Long(2 * i)).collect::<Vec<_>>()
        );
        assert_eq!(ctx.statement_label().as_deref(), Some("s1:X"));
        let trace = ctx.take_plan_trace();
        assert_eq!(trace[0], "before the panic");
        assert!(
            trace.iter().any(|l| l.contains("⇒ materialize")),
            "{trace:?}"
        );
    }
}
