//! Engine run statistics: logical operators, physical stages, shuffles,
//! broadcast sizes.
//!
//! The paper's evaluation reasons about *data shuffling* as the dominant
//! cost of DISC programs (§1: "all data exchanges across compute nodes are
//! done in a controlled way using DISC operations"). These counters let the
//! benchmark harness report how much each plan shuffles, which explains the
//! Figure 3 gaps (e.g. DIABLO's K-Means shuffles the whole point set while
//! the hand-written version shuffles only centroid-sized partials).
//!
//! Since the engine went lazy, the counters distinguish the two layers the
//! plan/fusion architecture separates:
//!
//! * **logical ops** ([`StatsSnapshot::stages`]) — how many `Dataset`
//!   operators a program *called*. This is the shape of the translated
//!   program, independent of execution strategy.
//! * **physical stages** ([`StatsSnapshot::physical_stages`]) — how many
//!   parallel per-partition passes the engine actually *ran* after
//!   fusing narrow chains. A chain of N narrow ops contributes N logical
//!   ops but exactly 1 physical stage.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared, thread-safe counters for one engine context.
#[derive(Debug, Default)]
pub struct Stats {
    logical_ops: AtomicU64,
    physical_stages: AtomicU64,
    shuffles: AtomicU64,
    sorted_shuffles: AtomicU64,
    shuffled_records: AtomicU64,
    shuffled_bytes: AtomicU64,
    spilled_records: AtomicU64,
    spilled_bytes: AtomicU64,
    spill_files: AtomicU64,
    broadcasts: AtomicU64,
    broadcast_records: AtomicU64,
    morsels: AtomicU64,
    steals: AtomicU64,
    max_queue_depth: AtomicU64,
    sched_cost_us: AtomicU64,
    sched_critical_us: AtomicU64,
    dataset_spills: AtomicU64,
    dataset_spilled_bytes: AtomicU64,
    dataset_evictions: AtomicU64,
    dataset_recomputes: AtomicU64,
    vectorized_batches: AtomicU64,
    row_fallback_stages: AtomicU64,
}

impl Stats {
    pub(crate) fn record_logical_op(&self) {
        self.logical_ops.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_physical_stage(&self) {
        self.physical_stages.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_shuffle(&self, records: u64, bytes: u64) {
        self.shuffles.fetch_add(1, Ordering::Relaxed);
        self.shuffled_records.fetch_add(records, Ordering::Relaxed);
        self.shuffled_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn record_sorted_shuffle(&self) {
        self.sorted_shuffles.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_spill(&self, records: u64, bytes: u64, files: u64) {
        self.spilled_records.fetch_add(records, Ordering::Relaxed);
        self.spilled_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.spill_files.fetch_add(files, Ordering::Relaxed);
    }

    pub(crate) fn record_broadcast(&self, records: u64) {
        self.broadcasts.fetch_add(1, Ordering::Relaxed);
        self.broadcast_records.fetch_add(records, Ordering::Relaxed);
    }

    /// Records one scheduled stage: how many morsels ran, how many were
    /// stolen, the deepest worker queue at submission, and the stage's
    /// wall time split into total cost vs the critical (busiest-worker)
    /// share — the pair behind [`StatsSnapshot::sched_speedup`].
    pub(crate) fn record_stage_schedule(
        &self,
        morsels: u64,
        steals: u64,
        depth: u64,
        cost_us: u64,
        critical_us: u64,
    ) {
        self.morsels.fetch_add(morsels, Ordering::Relaxed);
        self.steals.fetch_add(steals, Ordering::Relaxed);
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
        self.sched_cost_us.fetch_add(cost_us, Ordering::Relaxed);
        self.sched_critical_us
            .fetch_add(critical_us, Ordering::Relaxed);
    }

    /// Records one dataset-cache demotion to disk of `bytes` encoded
    /// bytes.
    pub(crate) fn record_dataset_spill(&self, bytes: u64) {
        self.dataset_spills.fetch_add(1, Ordering::Relaxed);
        self.dataset_spilled_bytes
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one dataset-cache entry dropped outright under pressure.
    pub(crate) fn record_dataset_eviction(&self) {
        self.dataset_evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one evicted dataset re-derived from its plan lineage.
    pub(crate) fn record_dataset_recompute(&self) {
        self.dataset_recomputes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one column batch executed through the vectorized per-column
    /// loops (columnar layout only).
    pub(crate) fn record_vectorized_batch(&self) {
        self.vectorized_batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one fused stage the columnar layout had to run on the
    /// tuple-at-a-time row path because a step was opaque.
    pub(crate) fn record_row_fallback_stage(&self) {
        self.row_fallback_stages.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a point-in-time snapshot of the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            backend: String::new(),
            workers: 0,
            partitions: 0,
            morsel_size: 0,
            memory_budget: 0,
            dataset_budget: 0,
            scheduler: String::new(),
            ordered: false,
            stages: self.logical_ops.load(Ordering::Relaxed),
            physical_stages: self.physical_stages.load(Ordering::Relaxed),
            shuffles: self.shuffles.load(Ordering::Relaxed),
            sorted_shuffles: self.sorted_shuffles.load(Ordering::Relaxed),
            shuffled_records: self.shuffled_records.load(Ordering::Relaxed),
            shuffled_bytes: self.shuffled_bytes.load(Ordering::Relaxed),
            spilled_records: self.spilled_records.load(Ordering::Relaxed),
            spilled_bytes: self.spilled_bytes.load(Ordering::Relaxed),
            spill_files: self.spill_files.load(Ordering::Relaxed),
            broadcasts: self.broadcasts.load(Ordering::Relaxed),
            broadcast_records: self.broadcast_records.load(Ordering::Relaxed),
            morsels: self.morsels.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            sched_cost_us: self.sched_cost_us.load(Ordering::Relaxed),
            sched_critical_us: self.sched_critical_us.load(Ordering::Relaxed),
            dataset_spills: self.dataset_spills.load(Ordering::Relaxed),
            dataset_spilled_bytes: self.dataset_spilled_bytes.load(Ordering::Relaxed),
            dataset_evictions: self.dataset_evictions.load(Ordering::Relaxed),
            dataset_recomputes: self.dataset_recomputes.load(Ordering::Relaxed),
            vectorized_batches: self.vectorized_batches.load(Ordering::Relaxed),
            row_fallback_stages: self.row_fallback_stages.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.logical_ops.store(0, Ordering::Relaxed);
        self.physical_stages.store(0, Ordering::Relaxed);
        self.shuffles.store(0, Ordering::Relaxed);
        self.sorted_shuffles.store(0, Ordering::Relaxed);
        self.shuffled_records.store(0, Ordering::Relaxed);
        self.shuffled_bytes.store(0, Ordering::Relaxed);
        self.spilled_records.store(0, Ordering::Relaxed);
        self.spilled_bytes.store(0, Ordering::Relaxed);
        self.spill_files.store(0, Ordering::Relaxed);
        self.broadcasts.store(0, Ordering::Relaxed);
        self.broadcast_records.store(0, Ordering::Relaxed);
        self.morsels.store(0, Ordering::Relaxed);
        self.steals.store(0, Ordering::Relaxed);
        self.max_queue_depth.store(0, Ordering::Relaxed);
        self.sched_cost_us.store(0, Ordering::Relaxed);
        self.sched_critical_us.store(0, Ordering::Relaxed);
        self.dataset_spills.store(0, Ordering::Relaxed);
        self.dataset_spilled_bytes.store(0, Ordering::Relaxed);
        self.dataset_evictions.store(0, Ordering::Relaxed);
        self.dataset_recomputes.store(0, Ordering::Relaxed);
        self.vectorized_batches.store(0, Ordering::Relaxed);
        self.row_fallback_stages.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of [`Stats`], plus the **effective context
/// settings** that produced the counters. The settings fields default to
/// empty here and are filled by `Context::stats_snapshot`, which can see
/// the context; they make emitted `BENCH_*.json` rows self-describing
/// (a number without its backend/budget/scheduler is unreproducible).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// The layout's backend name (`columnar`, or `local` for the row
    /// layout — see [`Layout::name`](crate::Layout::name)); empty when the
    /// snapshot came from bare [`Stats::snapshot`].
    pub backend: String,
    /// Worker-thread count of the owning context (0 when unknown).
    pub workers: u64,
    /// Partition count of the owning context (0 when unknown).
    pub partitions: u64,
    /// Rows one scheduling item covers at most: a constant `u64::MAX`,
    /// since the engine schedules every partition whole and never splits
    /// one (0 when unknown).
    pub morsel_size: u64,
    /// Global memory budget in bytes; `u64::MAX` means unbounded.
    pub memory_budget: u64,
    /// Dataset-cache memory budget in bytes; `u64::MAX` means unbounded.
    pub dataset_budget: u64,
    /// The scheduler: a constant `morsel`, the work-stealing pool (empty
    /// when unknown).
    pub scheduler: String,
    /// Whether ordered (key-sorted) shuffle routing was in force.
    pub ordered: bool,
    /// Number of logical `Dataset` operator invocations (historically
    /// named `stages`; each operator call counts one regardless of how the
    /// walker fuses it).
    pub stages: u64,
    /// Number of physical per-partition passes the engine ran — a fused
    /// chain of narrow operators counts one.
    pub physical_stages: u64,
    /// Number of shuffle exchanges.
    pub shuffles: u64,
    /// Number of those exchanges that were key-ordered (sort-based
    /// shuffles whose buckets merge back globally key-sorted).
    pub sorted_shuffles: u64,
    /// Total rows moved across partitions by shuffles.
    pub shuffled_records: u64,
    /// Estimated bytes moved by shuffles.
    pub shuffled_bytes: u64,
    /// Rows written to spill runs by budget-bounded exchanges.
    pub spilled_records: u64,
    /// Encoded bytes written to spill runs.
    pub spilled_bytes: u64,
    /// Sorted spill runs written (each appended to its exchange's single
    /// spill file, so one run ≠ one open descriptor).
    pub spill_files: u64,
    /// Number of broadcasts.
    pub broadcasts: u64,
    /// Total rows broadcast.
    pub broadcast_records: u64,
    /// Scheduled stage tasks (morsels) executed by the worker pool. A
    /// stage that splits a partition into row spans counts one per span.
    pub morsels: u64,
    /// Morsels claimed from another worker's deque by an idle worker.
    pub steals: u64,
    /// High-water mark of a single worker deque's depth at stage
    /// submission (a gauge, not a counter — see [`StatsSnapshot::since`]).
    pub max_queue_depth: u64,
    /// Total wall microseconds spent inside scheduled stages.
    pub sched_cost_us: u64,
    /// The critical-path share of that time: each stage's wall time
    /// scaled by the busiest worker's fraction of the stage's scheduled
    /// rows. `sched_cost_us / sched_critical_us` is the speedup bound the
    /// schedule achieved (the load-balance limit, independent of how many
    /// hardware cores the host can actually run in parallel).
    pub sched_critical_us: u64,
    /// Dataset-cache entries demoted from memory to disk.
    pub dataset_spills: u64,
    /// Encoded bytes those demotions wrote.
    pub dataset_spilled_bytes: u64,
    /// Dataset-cache entries dropped outright under disk pressure (or a
    /// zero budget).
    pub dataset_evictions: u64,
    /// Evicted datasets re-derived from their plan lineage on a miss.
    pub dataset_recomputes: u64,
    /// Column batches executed through the vectorized per-column loops
    /// (the columnar layout; the row layout leaves this at zero).
    pub vectorized_batches: u64,
    /// Fused stages the columnar layout demoted to the tuple-at-a-time
    /// row path because a step carried no column expression (opaque UDF).
    pub row_fallback_stages: u64,
}

impl StatsSnapshot {
    /// The speedup bound the schedule achieved over the counted window:
    /// total scheduled-stage time divided by its busiest-worker share.
    /// `1.0` when everything ran on one worker; approaches the worker
    /// count as stages balance perfectly. Returns `None` when no stage
    /// ran (nothing to bound).
    pub fn sched_speedup(&self) -> Option<f64> {
        if self.sched_critical_us == 0 {
            return None;
        }
        Some(self.sched_cost_us as f64 / self.sched_critical_us as f64)
    }

    /// Difference of two snapshots (self - earlier). All counters
    /// subtract; `max_queue_depth` is a gauge and keeps `self`'s
    /// high-water value, and the settings fields carry over from `self`
    /// (a delta ran under the same effective configuration).
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            backend: self.backend.clone(),
            workers: self.workers,
            partitions: self.partitions,
            morsel_size: self.morsel_size,
            memory_budget: self.memory_budget,
            dataset_budget: self.dataset_budget,
            scheduler: self.scheduler.clone(),
            ordered: self.ordered,
            stages: self.stages - earlier.stages,
            physical_stages: self.physical_stages - earlier.physical_stages,
            shuffles: self.shuffles - earlier.shuffles,
            sorted_shuffles: self.sorted_shuffles - earlier.sorted_shuffles,
            shuffled_records: self.shuffled_records - earlier.shuffled_records,
            shuffled_bytes: self.shuffled_bytes - earlier.shuffled_bytes,
            spilled_records: self.spilled_records - earlier.spilled_records,
            spilled_bytes: self.spilled_bytes - earlier.spilled_bytes,
            spill_files: self.spill_files - earlier.spill_files,
            broadcasts: self.broadcasts - earlier.broadcasts,
            broadcast_records: self.broadcast_records - earlier.broadcast_records,
            morsels: self.morsels - earlier.morsels,
            steals: self.steals - earlier.steals,
            max_queue_depth: self.max_queue_depth,
            sched_cost_us: self.sched_cost_us - earlier.sched_cost_us,
            sched_critical_us: self.sched_critical_us - earlier.sched_critical_us,
            dataset_spills: self.dataset_spills - earlier.dataset_spills,
            dataset_spilled_bytes: self.dataset_spilled_bytes - earlier.dataset_spilled_bytes,
            dataset_evictions: self.dataset_evictions - earlier.dataset_evictions,
            dataset_recomputes: self.dataset_recomputes - earlier.dataset_recomputes,
            vectorized_batches: self.vectorized_batches - earlier.vectorized_batches,
            row_fallback_stages: self.row_fallback_stages - earlier.row_fallback_stages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let s = Stats::default();
        s.record_logical_op();
        s.record_physical_stage();
        s.record_physical_stage();
        s.record_shuffle(100, 800);
        s.record_shuffle(50, 400);
        s.record_sorted_shuffle();
        s.record_spill(40, 320, 2);
        s.record_broadcast(7);
        let snap = s.snapshot();
        assert_eq!(snap.stages, 1);
        assert_eq!(snap.physical_stages, 2);
        assert_eq!(snap.shuffles, 2);
        assert_eq!(snap.sorted_shuffles, 1);
        assert_eq!(snap.shuffled_records, 150);
        assert_eq!(snap.shuffled_bytes, 1200);
        assert_eq!(snap.spilled_records, 40);
        assert_eq!(snap.spilled_bytes, 320);
        assert_eq!(snap.spill_files, 2);
        assert_eq!(snap.broadcasts, 1);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn schedule_counters_accumulate() {
        let s = Stats::default();
        s.record_stage_schedule(8, 2, 5, 1000, 400);
        s.record_stage_schedule(4, 0, 3, 1000, 600);
        let snap = s.snapshot();
        assert_eq!(snap.morsels, 12);
        assert_eq!(snap.steals, 2);
        assert_eq!(snap.max_queue_depth, 5, "gauge keeps the high water");
        assert_eq!(snap.sched_cost_us, 2000);
        assert_eq!(snap.sched_critical_us, 1000);
        assert_eq!(snap.sched_speedup(), Some(2.0));
        s.reset();
        assert_eq!(s.snapshot().sched_speedup(), None);
    }

    #[test]
    fn since_subtracts() {
        let s = Stats::default();
        s.record_shuffle(10, 80);
        s.record_physical_stage();
        let a = s.snapshot();
        s.record_shuffle(5, 40);
        s.record_physical_stage();
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.shuffles, 1);
        assert_eq!(d.shuffled_records, 5);
        assert_eq!(d.physical_stages, 1);
    }
}
