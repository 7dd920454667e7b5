//! The pluggable execution backend: the [`Executor`] trait plus the five
//! built-in implementations, [`LocalExecutor`] (tuple-at-a-time — the row
//! reference the conformance suites compare every other backend against),
//! [`TileExecutor`] (tile/batch-at-a-time, tuned for the §5
//! tiled-matrix workloads whose rows carry dense tile payloads),
//! [`SpillExecutor`] (tuple-at-a-time with always-budgeted spilling
//! exchanges and adaptive stage re-chunking, for inputs larger than RAM),
//! [`MorselExecutor`] (tuple-at-a-time with every narrow stage split
//! into fixed-size morsels for the work-stealing pool), and
//! [`ColumnarExecutor`](crate::ColumnarExecutor) (**the default**: typed
//! column chunks with per-column inner loops for transparent fused
//! chains, row-path fallback per stage for opaque UDFs — defined in
//! `columnar.rs`).
//!
//! A [`Context`] owns one `Arc<dyn Executor>`; every [`Dataset`]
//! materialization point routes through it, so a backend can be swapped
//! under the unchanged `Dataset`/`Session` API —
//! [`Context::with_executor`], the `DIABLO_BACKEND` environment variable,
//! or `diabloc --backend <name>` all select one.
//!
//! ## Contract
//!
//! Executors must be **plan-faithful**: for the same plan they must
//! produce the same rows in the same order as tuple-at-a-time evaluation,
//! move the same rows through shuffles, and surface the same first error
//! for deterministic operator chains (see `ARCHITECTURE.md` for the full
//! contract and the conformance suite in `tests/executor_conformance.rs`).
//! Stage accounting ([`Context::record_physical_stage`]) is the
//! executor's responsibility; the shared plan walkers in this crate do it
//! for the built-ins.
//!
//! [`Dataset`]: crate::Dataset

use std::sync::Arc;

use diablo_runtime::{RuntimeError, Value};

use crate::exchange::{Exchange, ExchangeWriter, HashPartitioner, Partitioner};
use crate::plan::{self, ChunkPolicy, DriveMode, PartitionRows, Parts, PlanOp, Result};
use crate::Context;

/// An opaque handle to a dataset's physical plan, as passed to executors.
pub struct PhysicalPlan {
    pub(crate) op: Arc<PlanOp>,
}

impl PhysicalPlan {
    pub(crate) fn new(op: Arc<PlanOp>) -> PhysicalPlan {
        PhysicalPlan { op }
    }
}

/// A partition-wise consumer run by [`Executor::consume`]: receives the
/// partition index and a cursor over the partition's transformed rows, and
/// returns any number of row groups (shuffle buckets, reduction partials).
pub type PartitionTask<'a> =
    dyn Fn(usize, &PartitionRows<'_>) -> Result<Vec<Vec<Value>>> + Sync + 'a;

/// A scatter run by [`Executor::exchange`]: receives the partition index,
/// a cursor over the partition's transformed rows, and the exchange
/// writer it emits `(bucket, row)`s into. This is how keyed operators
/// stream rows — optionally pre-combined — into a shuffle without ever
/// materializing an all-partitions bucket matrix.
pub type ScatterTask<'a> =
    dyn Fn(usize, &PartitionRows<'_>, &mut ExchangeWriter<'_>) -> Result<()> + Sync + 'a;

/// What an execution backend can do, for introspection (`explain`
/// headers, the bench harness, tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Processes rows tile-at-a-time with per-step inner loops instead of
    /// tuple-at-a-time recursion.
    pub vectorized: bool,
    /// Fuses the post-shuffle reduce with the next narrow chain and its
    /// consumer (shuffle-read fusion).
    pub fused_shuffle_read: bool,
    /// Reads `union` operands in place through segments instead of
    /// copying them into combined partitions.
    pub union_in_place: bool,
    /// Runs every exchange under a memory budget — buckets past it spill
    /// to sorted run files — even when the context sets none.
    pub spilling_exchange: bool,
    /// Re-chunks stage work adaptively at stage boundaries (splits skewed
    /// partitions, coalesces tiny ones) without changing recorded results.
    pub adaptive_chunking: bool,
    /// Supports key-ordered (sort-based) exchanges: range-scattered
    /// buckets whose pre-sorted chunks and spill runs merge back by key,
    /// so sorted keyed operators emit globally key-ordered output.
    pub ordered_exchange: bool,
    /// Splits every oversized partition into fixed-size morsel spans
    /// ([`Context::morsel_size`] rows) for the work-stealing pool,
    /// regardless of skew, without changing recorded results.
    pub morsel_scheduling: bool,
}

/// A pluggable execution backend for the [`PlanOp`] DAG.
///
/// All methods take the [`Context`] explicitly so one executor value can
/// serve many contexts; implementations must be stateless or internally
/// synchronized.
pub trait Executor: Send + Sync {
    /// Short stable identifier (`local`, `tile`, `spill` — see
    /// [`BACKEND_NAMES`]), used by `diabloc --backend`, `DIABLO_BACKEND`,
    /// and the bench harness.
    fn name(&self) -> &'static str;

    /// What this backend can do.
    fn capabilities(&self) -> Capabilities;

    /// Executes a plan into concrete partitions, fusing pending narrow
    /// chains however the backend sees fit. Must preserve row order:
    /// output partition `i` holds the transformed rows of input partition
    /// `i` in source order.
    fn materialize(&self, ctx: &Context, plan: &PhysicalPlan) -> Result<Parts>;

    /// Runs `task` once per partition over the plan's *transformed* rows
    /// without materializing them, returning each partition's row groups.
    /// This is the primitive under shuffle scatters and reductions.
    fn consume(
        &self,
        ctx: &Context,
        plan: &PhysicalPlan,
        label: &str,
        task: &PartitionTask<'_>,
    ) -> Result<Vec<Vec<Vec<Value>>>>;

    /// Hash-partitions `(key, value)` rows by key — the current default
    /// behavior, now a one-line special case of [`Executor::shuffle_by`].
    fn shuffle(&self, ctx: &Context, plan: &PhysicalPlan, label: &str) -> Result<Vec<Vec<Value>>> {
        self.shuffle_by(ctx, plan, label, &HashPartitioner)
    }

    /// Partitions `(key, value)` rows by key with a pluggable
    /// [`Partitioner`]: the default implementation streams each source
    /// partition's transformed rows into the exchange sink, bucket chosen
    /// per key.
    fn shuffle_by(
        &self,
        ctx: &Context,
        plan: &PhysicalPlan,
        label: &str,
        partitioner: &dyn Partitioner,
    ) -> Result<Vec<Vec<Value>>> {
        let p = ctx.partitions();
        self.exchange(ctx, plan, label, &|_, rows, sink| {
            rows.for_each(&mut |row| {
                let (k, _) = diablo_runtime::array::key_value_ref(&row)?;
                sink.emit(partitioner.partition(k, p)?, row)
            })
        })
    }

    /// The exchange primitive under every shuffle: runs `scatter` once
    /// per source partition over the plan's *transformed* rows, streaming
    /// emitted rows through an [`Exchange`] sink bounded by
    /// [`Executor::exchange_budget`] (buckets past the budget spill to
    /// sorted run files), and merge-reads the destination partitions back
    /// in source order. Replaces the old collect-everything `gather`.
    fn exchange(
        &self,
        ctx: &Context,
        plan: &PhysicalPlan,
        label: &str,
        scatter: &ScatterTask<'_>,
    ) -> Result<Vec<Vec<Value>>> {
        let ex = Exchange::new(ctx.partitions(), self.exchange_budget(ctx));
        self.consume(ctx, plan, label, &|src, rows| {
            let mut writer = ex.writer(src);
            scatter(src, rows, &mut writer)?;
            writer.close()?;
            Ok(Vec::new())
        })?;
        ex.finish(ctx)
    }

    /// The sort-based shuffle primitive: streams already key-sorted
    /// source partitions through a **key-ordered** [`Exchange`] (same
    /// budget rules as [`Executor::exchange`]; chunks past the budget
    /// spill as sorted runs and are merged straight from disk), scattered
    /// with `partitioner` — a [`RangePartitioner`](crate::RangePartitioner)
    /// keeps ordered keys in contiguous buckets, so the merged buckets
    /// concatenate into globally key-ordered output. Only backends whose
    /// [`Capabilities::ordered_exchange`] is set support it; the default
    /// implementation (used by all three built-ins) errors otherwise.
    fn exchange_sorted(
        &self,
        ctx: &Context,
        sources: Vec<Vec<Value>>,
        label: &str,
        partitioner: &dyn Partitioner,
    ) -> Result<Vec<Vec<Value>>> {
        if !self.capabilities().ordered_exchange {
            return Err(RuntimeError::new(format!(
                "backend `{}` does not support key-ordered exchanges ({label})",
                self.name()
            )));
        }
        let p = ctx.partitions();
        let ex = Exchange::new_ordered(p, self.exchange_budget(ctx));
        // Scatter sources in parallel like every other exchange: writers
        // are independent, chunks are tagged (source, sequence), and the
        // ordered merge breaks key ties by that tag, so the result is
        // independent of worker interleaving. Each task owns exactly its
        // source partition (taken out of the slot), so rows move into the
        // sink without a clone.
        let slots: Vec<std::sync::Mutex<Vec<Value>>> =
            sources.into_iter().map(std::sync::Mutex::new).collect();
        crate::pool::run_stage(ctx, &slots, |src, slot| {
            let rows = std::mem::take(&mut *slot.lock().expect("source slot"));
            let mut writer = ex.writer(src);
            for row in rows {
                let bucket = partitioner.partition(crate::exchange::pair_key(&row), p)?;
                writer.emit(bucket, row)?;
            }
            writer.close()?;
            Ok(())
        })?;
        ex.finish(ctx)
    }

    /// The memory budget this backend's exchanges buffer rows under. The
    /// default honours the context's budget ([`Context::memory_budget`],
    /// `DIABLO_MEMORY_BUDGET`); `None` means unbounded.
    fn exchange_budget(&self, ctx: &Context) -> Option<u64> {
        ctx.memory_budget()
    }
}

/// The row backend: fused tuple-at-a-time evaluation on the worker pool.
/// Every stage runs exactly as the default backend runs a stage it cannot
/// vectorize, which makes `local` the reference the conformance suites
/// hold the columnar default (and every other backend) byte-identical to.
#[derive(Debug, Default, Clone, Copy)]
pub struct LocalExecutor;

impl Executor for LocalExecutor {
    fn name(&self) -> &'static str {
        "local"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            vectorized: false,
            fused_shuffle_read: true,
            union_in_place: true,
            spilling_exchange: false,
            adaptive_chunking: false,
            ordered_exchange: true,
            morsel_scheduling: false,
        }
    }

    fn materialize(&self, ctx: &Context, plan: &PhysicalPlan) -> Result<Parts> {
        plan::materialize(ctx, &plan.op, &DriveMode::Tuple, ChunkPolicy::Fixed)
    }

    fn consume(
        &self,
        ctx: &Context,
        plan: &PhysicalPlan,
        label: &str,
        task: &PartitionTask<'_>,
    ) -> Result<Vec<Vec<Vec<Value>>>> {
        plan::consume(
            ctx,
            &plan.op,
            label,
            &DriveMode::Tuple,
            ChunkPolicy::Fixed,
            task,
        )
    }
}

/// The tiled backend: identical plans and stage structure, but rows move
/// through fused chains **tile-at-a-time** — fixed-width batches pushed
/// through each step with a tight inner loop, the execution shape of the
/// §5 tiled-matrix runtime (`diablo_runtime::tile`), where one row carries
/// a whole dense tile and per-row closure dispatch dominates.
///
/// The default tile width is 64 rows — one 8×8 [`TiledMatrix`] tile, the
/// shape the §5 ablation benchmark packs — and can be tuned with the
/// `DIABLO_TILE_BATCH` environment variable.
///
/// [`TiledMatrix`]: diablo_runtime::TiledMatrix
#[derive(Debug, Clone, Copy)]
pub struct TileExecutor {
    batch: usize,
}

impl TileExecutor {
    /// Default tile width: an 8×8 dense tile's worth of rows.
    pub const DEFAULT_BATCH: usize = 64;

    /// Creates a tile executor with the given batch width.
    pub fn new(batch: usize) -> TileExecutor {
        assert!(batch > 0, "tile batch must be positive");
        TileExecutor { batch }
    }

    /// Creates a tile executor sized from `DIABLO_TILE_BATCH` (default
    /// [`TileExecutor::DEFAULT_BATCH`]).
    pub fn from_env() -> TileExecutor {
        let batch = std::env::var("DIABLO_TILE_BATCH")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&b| b > 0)
            .unwrap_or(Self::DEFAULT_BATCH);
        TileExecutor::new(batch)
    }

    /// The configured tile width.
    pub fn batch(&self) -> usize {
        self.batch
    }
}

impl Default for TileExecutor {
    fn default() -> TileExecutor {
        TileExecutor::new(Self::DEFAULT_BATCH)
    }
}

impl Executor for TileExecutor {
    fn name(&self) -> &'static str {
        "tile"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            vectorized: true,
            fused_shuffle_read: true,
            union_in_place: true,
            spilling_exchange: false,
            adaptive_chunking: false,
            ordered_exchange: true,
            morsel_scheduling: false,
        }
    }

    fn materialize(&self, ctx: &Context, plan: &PhysicalPlan) -> Result<Parts> {
        plan::materialize(
            ctx,
            &plan.op,
            &DriveMode::Batch(self.batch),
            ChunkPolicy::Fixed,
        )
    }

    fn consume(
        &self,
        ctx: &Context,
        plan: &PhysicalPlan,
        label: &str,
        task: &PartitionTask<'_>,
    ) -> Result<Vec<Vec<Vec<Value>>>> {
        plan::consume(
            ctx,
            &plan.op,
            label,
            &DriveMode::Batch(self.batch),
            ChunkPolicy::Fixed,
            task,
        )
    }
}

/// The out-of-core backend: tuple-at-a-time like [`LocalExecutor`], but
/// every exchange runs under a memory budget even when the context sets
/// none — buckets past the budget spill to sorted run files and merge-read
/// back in source order — and stage work is re-chunked adaptively at stage
/// boundaries (skewed partitions split across workers, tiny ones coalesced
/// into one task), Spark-AQE style, without changing any recorded result.
///
/// The fallback budget (used when neither [`Context::memory_budget`] nor
/// `DIABLO_MEMORY_BUDGET` is set) defaults to
/// [`SpillExecutor::DEFAULT_BUDGET`].
#[derive(Debug, Clone, Copy)]
pub struct SpillExecutor {
    fallback_budget: u64,
}

impl SpillExecutor {
    /// Fallback exchange budget: 64 MiB of buffered exchange rows.
    pub const DEFAULT_BUDGET: u64 = 64 << 20;

    /// Creates a spill executor whose exchanges buffer at most
    /// `fallback_budget` bytes when the context sets no budget of its own.
    pub fn new(fallback_budget: u64) -> SpillExecutor {
        SpillExecutor { fallback_budget }
    }

    /// The fallback budget in bytes.
    pub fn fallback_budget(&self) -> u64 {
        self.fallback_budget
    }
}

impl Default for SpillExecutor {
    fn default() -> SpillExecutor {
        SpillExecutor::new(Self::DEFAULT_BUDGET)
    }
}

impl Executor for SpillExecutor {
    fn name(&self) -> &'static str {
        "spill"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            vectorized: false,
            fused_shuffle_read: true,
            union_in_place: true,
            spilling_exchange: true,
            adaptive_chunking: true,
            ordered_exchange: true,
            morsel_scheduling: false,
        }
    }

    fn materialize(&self, ctx: &Context, plan: &PhysicalPlan) -> Result<Parts> {
        plan::materialize(ctx, &plan.op, &DriveMode::Tuple, ChunkPolicy::Adaptive)
    }

    fn consume(
        &self,
        ctx: &Context,
        plan: &PhysicalPlan,
        label: &str,
        task: &PartitionTask<'_>,
    ) -> Result<Vec<Vec<Vec<Value>>>> {
        plan::consume(
            ctx,
            &plan.op,
            label,
            &DriveMode::Tuple,
            ChunkPolicy::Adaptive,
            task,
        )
    }

    fn exchange_budget(&self, ctx: &Context) -> Option<u64> {
        Some(ctx.memory_budget().unwrap_or(self.fallback_budget))
    }
}

/// The morsel backend: tuple-at-a-time like [`LocalExecutor`], but every
/// narrow stage is scheduled as fixed-size morsels
/// ([`Context::morsel_size`] rows, default 16384) on the work-stealing
/// pool — oversized and skewed partitions split automatically, idle
/// workers steal the excess, and the outputs stitch back in canonical
/// `(partition, span)` order, so results are byte-identical to
/// [`LocalExecutor`] for every plan, worker count, and morsel size.
/// Partition-atomic consumer stages (scatters with combiner state) are
/// never split; runs of tiny partitions coalesce into shared items.
#[derive(Debug, Default, Clone, Copy)]
pub struct MorselExecutor;

impl Executor for MorselExecutor {
    fn name(&self) -> &'static str {
        "morsel"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            vectorized: false,
            fused_shuffle_read: true,
            union_in_place: true,
            spilling_exchange: false,
            adaptive_chunking: true,
            ordered_exchange: true,
            morsel_scheduling: true,
        }
    }

    fn materialize(&self, ctx: &Context, plan: &PhysicalPlan) -> Result<Parts> {
        plan::materialize(ctx, &plan.op, &DriveMode::Tuple, ChunkPolicy::Morsel)
    }

    fn consume(
        &self,
        ctx: &Context,
        plan: &PhysicalPlan,
        label: &str,
        task: &PartitionTask<'_>,
    ) -> Result<Vec<Vec<Vec<Value>>>> {
        plan::consume(
            ctx,
            &plan.op,
            label,
            &DriveMode::Tuple,
            ChunkPolicy::Morsel,
            task,
        )
    }
}

/// The valid backend names, in the order help/error messages list them.
pub const BACKEND_NAMES: &[&str] = &["local", "tile", "spill", "morsel", "columnar"];

/// Resolves a backend by name (see [`BACKEND_NAMES`]); `None` for unknown
/// names.
pub fn executor_named(name: &str) -> Option<Arc<dyn Executor>> {
    match name {
        "local" => Some(Arc::new(LocalExecutor)),
        "tile" => Some(Arc::new(TileExecutor::from_env())),
        "spill" => Some(Arc::new(SpillExecutor::default())),
        "morsel" => Some(Arc::new(MorselExecutor)),
        "columnar" => Some(Arc::new(crate::columnar::ColumnarExecutor::from_env())),
        _ => None,
    }
}

/// The backend named by the `DIABLO_BACKEND` environment variable, or the
/// default: [`ColumnarExecutor`](crate::ColumnarExecutor), which runs each
/// stage columnar where every step is transparent and on the row path
/// otherwise.
///
/// # Panics
/// Panics on an unknown backend name so a typo in a CI matrix fails loudly
/// instead of silently testing the default backend.
pub(crate) fn executor_from_env() -> Arc<dyn Executor> {
    match std::env::var("DIABLO_BACKEND") {
        Ok(name) => executor_named(&name).unwrap_or_else(|| {
            panic!(
                "DIABLO_BACKEND={name}: unknown backend (try {})",
                BACKEND_NAMES.join(", ")
            )
        }),
        Err(_) => Arc::new(crate::columnar::ColumnarExecutor::from_env()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executor_lookup_by_name() {
        for &name in BACKEND_NAMES {
            assert_eq!(executor_named(name).unwrap().name(), name);
        }
        assert!(executor_named("spark").is_none());
    }

    #[test]
    fn capabilities_distinguish_backends() {
        assert!(!LocalExecutor.capabilities().vectorized);
        assert!(TileExecutor::default().capabilities().vectorized);
        assert!(LocalExecutor.capabilities().union_in_place);
        assert!(!LocalExecutor.capabilities().spilling_exchange);
        let spill = SpillExecutor::default().capabilities();
        assert!(spill.spilling_exchange && spill.adaptive_chunking);
        let morsel = MorselExecutor.capabilities();
        assert!(morsel.morsel_scheduling && morsel.adaptive_chunking);
        assert!(!morsel.spilling_exchange);
        assert!(!LocalExecutor.capabilities().morsel_scheduling);
        let columnar = crate::columnar::ColumnarExecutor::default().capabilities();
        assert!(columnar.vectorized && columnar.fused_shuffle_read);
        assert!(!columnar.spilling_exchange && !columnar.morsel_scheduling);
        for name in BACKEND_NAMES {
            let exec = executor_named(name).unwrap();
            assert!(
                exec.capabilities().ordered_exchange,
                "every built-in honours the ordered capability: {name}"
            );
        }
    }

    #[test]
    fn spill_executor_always_has_an_exchange_budget() {
        // Pin the context budget explicitly so the test is independent of
        // any DIABLO_MEMORY_BUDGET the suite itself runs under.
        let ctx = Context::new(1, 2);
        let spill = SpillExecutor::new(1234);
        ctx.set_memory_budget(None);
        assert_eq!(LocalExecutor.exchange_budget(&ctx), None);
        assert_eq!(spill.exchange_budget(&ctx), Some(1234), "fallback budget");
        ctx.set_memory_budget(Some(99));
        assert_eq!(LocalExecutor.exchange_budget(&ctx), Some(99));
        assert_eq!(
            spill.exchange_budget(&ctx),
            Some(99),
            "an explicit context budget wins over the fallback"
        );
    }

    #[test]
    #[should_panic(expected = "tile batch must be positive")]
    fn zero_batch_panics() {
        let _ = TileExecutor::new(0);
    }
}
