//! Work-stealing stage execution.
//!
//! Every physical stage becomes a list of scheduling items — one per
//! partition (the stats call an executed item a *morsel*) — and runs on a
//! persistent [`WorkerPool`] built once per [`Context`] and reused across
//! stages.
//! Each worker owns a deque seeded with a contiguous block of items; the
//! owner pops from the front (so it walks its block in canonical order)
//! and idle workers steal from the back of the nearest non-empty victim,
//! Chase-Lev style. The submitting thread participates as worker 0, so a
//! stage never parks a core behind a condvar while work remains.
//!
//! ## Determinism contract
//!
//! Scheduling never changes results:
//!
//! * every item writes into its own pre-allocated result slot (no shared
//!   results lock), and the submitter stitches slots back in item order —
//!   which is canonical partition order;
//! * the first error is the error of the **lowest-indexed** failing item,
//!   not the first to fail on the wall clock: an item may be skipped or
//!   cancelled only when a *lower-indexed* item has already failed, so
//!   every item below the final minimum ran to completion and the minimum
//!   is exact;
//! * cancellation is cooperative: once an error is recorded, queued items
//!   above it are skipped at claim time and in-flight tasks above it can
//!   poll [`Cancel::cancelled`] mid-item and bail (their own results —
//!   including any bail-out error — are discarded, never surfaced).

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::Context;

/// Result slots, one per scheduling item. Safe because the deque protocol
/// hands every index to exactly one worker, which is the only writer of
/// that slot; the submitter reads only after all items completed.
struct Slots<X>(Vec<UnsafeCell<Option<X>>>);

// SAFETY: the deque protocol hands each index to exactly one worker (the
// sole writer of that `UnsafeCell`), and the submitter reads only after
// the stage's completion barrier, so no slot is ever aliased mutably.
unsafe impl<X: Send> Sync for Slots<X> {}

impl<X> Slots<X> {
    fn new(n: usize) -> Slots<X> {
        Slots((0..n).map(|_| UnsafeCell::new(None)).collect())
    }

    /// # Safety
    /// Each index must be written by at most one thread, and no thread may
    /// read it until the stage's completion barrier.
    unsafe fn put(&self, i: usize, v: X) {
        *self.0[i].get() = Some(v);
    }

    fn into_vec(self) -> Vec<Option<X>> {
        self.0.into_iter().map(|c| c.into_inner()).collect()
    }
}

/// Cooperative cancellation token handed to every stage task. `cancelled`
/// is true once a lower-indexed item has failed — this task's outcome can
/// no longer be surfaced, so it may stop mid-morsel and return any error.
pub(crate) struct Cancel<'a> {
    min_error: &'a AtomicUsize,
    idx: usize,
}

impl Cancel<'_> {
    pub fn cancelled(&self) -> bool {
        self.min_error.load(Ordering::Relaxed) < self.idx
    }
}

/// What one stage's schedule did, for [`Stats`](crate::Stats) and explain
/// notes.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct StageMetrics {
    /// Items actually executed (skipped-after-poison items not counted).
    pub morsels: u64,
    /// Items claimed from another worker's deque.
    pub steals: u64,
    /// Deepest single worker deque at submission.
    pub max_depth: u64,
    /// Total scheduled weight (caller-provided, usually rows).
    pub total_weight: u64,
    /// Largest per-worker share of that weight actually executed.
    pub max_worker_weight: u64,
}

/// Type-erased stage task pointer: `(worker index, item index)`. Only
/// dereferenced by workers holding a claimed item of the stage, and every
/// item finishes before the submitting `run` call returns, so the erased
/// borrow never outlives its stack frame.
struct TaskPtr(*const (dyn Fn(usize, usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from any thread are fine)
// and is only dereferenced while the submitting `run` frame — which owns
// the closure — is blocked waiting for the stage to drain, so sending the
// raw pointer across worker threads cannot outlive or alias the closure.
unsafe impl Send for TaskPtr {}
// SAFETY: same argument as `Send`; workers only ever call the closure
// through a shared reference, which `dyn Fn + Sync` permits concurrently.
unsafe impl Sync for TaskPtr {}

/// One in-flight stage: the erased task, the per-worker deques of item
/// indexes, and the completion/steal accounting.
struct ActiveStage {
    task: TaskPtr,
    deques: Vec<Mutex<VecDeque<usize>>>,
    pending: AtomicUsize,
    steals: AtomicU64,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

struct PoolState {
    stage: Option<Arc<ActiveStage>>,
    epoch: u64,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Wakes workers when a stage is published (or shutdown).
    work_cv: Condvar,
    /// Wakes the submitter when the last pending item completes.
    done_cv: Condvar,
}

thread_local! {
    /// True while this thread is executing pool work — a nested stage
    /// submitted from inside a task runs inline instead of deadlocking on
    /// the busy pool.
    static IN_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The persistent work-stealing pool: `width - 1` background threads plus
/// the submitting thread. Dropped (threads joined) with the last clone of
/// its owning [`Context`].
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: Vec<std::thread::JoinHandle<()>>,
    width: usize,
}

impl WorkerPool {
    pub fn new(workers: usize) -> WorkerPool {
        let width = workers.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                stage: None,
                epoch: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let threads = (1..width)
            .map(|me| {
                let sh = shared.clone();
                std::thread::Builder::new()
                    .name(format!("diablo-worker-{me}"))
                    .spawn(move || worker_loop(sh, me))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            threads,
            width,
        }
    }

    /// Runs `task` once per input item, work-stealing across the pool,
    /// and returns outputs in item order. `weight(i)` is the item's
    /// scheduling weight (rows) for the balance metrics. The first error
    /// by item index wins; later items are cancelled cooperatively.
    pub fn run<T, R, E, F, W>(
        &self,
        inputs: &[T],
        weight: W,
        task: F,
    ) -> (Result<Vec<R>, E>, StageMetrics)
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(usize, &T, &Cancel<'_>) -> Result<R, E> + Sync,
        W: Fn(usize) -> u64 + Sync,
    {
        let n = inputs.len();
        let mut metrics = StageMetrics {
            total_weight: (0..n).map(&weight).sum(),
            ..StageMetrics::default()
        };
        if n == 0 {
            return (Ok(Vec::new()), metrics);
        }
        if n == 1 || self.width == 1 || IN_POOL.get() {
            return (run_inline(inputs, &task, &mut metrics), metrics);
        }

        let min_error = AtomicUsize::new(usize::MAX);
        let slots: Slots<Result<R, E>> = Slots::new(n);
        let executed = AtomicU64::new(0);
        let worker_weight: Vec<AtomicU64> = (0..self.width).map(|_| AtomicU64::new(0)).collect();
        let body = |worker: usize, i: usize| {
            // Claim-time poison check: a lower item already failed, so
            // this item's outcome can never surface — skip it entirely.
            if min_error.load(Ordering::Acquire) < i {
                return;
            }
            let cancel = Cancel {
                min_error: &min_error,
                idx: i,
            };
            let out = task(i, &inputs[i], &cancel);
            if out.is_err() {
                min_error.fetch_min(i, Ordering::AcqRel);
            }
            executed.fetch_add(1, Ordering::Relaxed);
            worker_weight[worker].fetch_add(weight(i), Ordering::Relaxed);
            // SAFETY: item `i` was claimed from a deque exactly once, so
            // this worker is its only writer, and the submitter reads the
            // slot only after the stage's completion barrier.
            unsafe { slots.put(i, out) };
        };

        // Seed each worker's deque with a contiguous block of items, so
        // owners walk their block in canonical order and thieves take the
        // highest-indexed items from the back.
        let deques: Vec<Mutex<VecDeque<usize>>> = (0..self.width)
            .map(|k| {
                let lo = k * n / self.width;
                let hi = (k + 1) * n / self.width;
                Mutex::new((lo..hi).collect())
            })
            .collect();
        metrics.max_depth = deques
            .iter()
            .map(|d| d.lock().expect("pool deque").len() as u64)
            .max()
            .unwrap_or(0);
        // Erase the closure's borrow lifetime: workers only dereference
        // the pointer while holding a claimed item, and `run` does not
        // return until every item completed, so the borrow outlives every
        // dereference even though the type says 'static.
        //
        // SAFETY: only the lifetime is transmuted (same wide-pointer
        // layout); the resulting pointer never escapes this `run` frame,
        // which outlives all dereferences per the drain barrier below.
        let erased: *const (dyn Fn(usize, usize) + Sync) = unsafe {
            std::mem::transmute::<
                &(dyn Fn(usize, usize) + Sync + '_),
                *const (dyn Fn(usize, usize) + Sync + 'static),
            >(&body)
        };
        let stage = Arc::new(ActiveStage {
            task: TaskPtr(erased),
            deques,
            pending: AtomicUsize::new(n),
            steals: AtomicU64::new(0),
            panic: Mutex::new(None),
        });
        {
            let mut st = self.shared.state.lock().expect("pool state");
            if st.stage.is_some() {
                // Another driver thread has a stage in flight; don't
                // interleave two schedules — run this one inline.
                drop(st);
                return (run_inline(inputs, &task, &mut metrics), metrics);
            }
            st.stage = Some(stage.clone());
            st.epoch += 1;
            self.shared.work_cv.notify_all();
        }

        // Participate as worker 0, then wait out in-flight items.
        IN_POOL.set(true);
        work(&self.shared, &stage, 0);
        IN_POOL.set(false);
        {
            let mut st = self.shared.state.lock().expect("pool state");
            while stage.pending.load(Ordering::Acquire) != 0 {
                st = self.shared.done_cv.wait(st).expect("pool state");
            }
            st.stage = None;
        }
        if let Some(p) = stage.panic.lock().expect("pool panic slot").take() {
            std::panic::resume_unwind(p);
        }

        metrics.morsels = executed.load(Ordering::Relaxed);
        metrics.steals = stage.steals.load(Ordering::Relaxed);
        metrics.max_worker_weight = worker_weight
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0);
        (collect_slots(slots, &min_error), metrics)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool state");
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        if self.threads.is_empty() {
            return;
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        release_free_pages();
    }
}

/// Returns the allocator's free pages to the system once a pool's workers
/// are gone. glibc gives every thread an arena and parks a joined thread's
/// arena on a free list with the pages its tasks freed still resident;
/// which parked arena the next pool's worker is handed is arbitrary, so a
/// process that builds a second [`Context`] kept a share of the first
/// one's working set or not by chance (6 MB of 41 on the matrix programs).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_pages() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes the allocator's own locks and touches
    // only chunks that are free; it is safe to call from any thread.
    unsafe { malloc_trim(0) };
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_pages() {}

/// Sequential fallback (single worker, single item, or nested stage):
/// short-circuits at the first error, which is trivially the canonical
/// one.
fn run_inline<T, R, E, F>(inputs: &[T], task: &F, metrics: &mut StageMetrics) -> Result<Vec<R>, E>
where
    F: Fn(usize, &T, &Cancel<'_>) -> Result<R, E> + Sync,
{
    let never = AtomicUsize::new(usize::MAX);
    metrics.max_worker_weight = metrics.total_weight;
    metrics.max_depth = inputs.len() as u64;
    let mut out = Vec::with_capacity(inputs.len());
    for (i, t) in inputs.iter().enumerate() {
        let cancel = Cancel {
            min_error: &never,
            idx: i,
        };
        metrics.morsels += 1;
        out.push(task(i, t, &cancel)?);
    }
    Ok(out)
}

/// Stitches result slots back in item order. If any item failed, the
/// lowest failing index holds the canonical error (all items below it ran
/// to completion — see the module docs).
fn collect_slots<R, E>(slots: Slots<Result<R, E>>, min_error: &AtomicUsize) -> Result<Vec<R>, E> {
    let mut slots = slots.into_vec();
    let me = min_error.load(Ordering::Acquire);
    if me != usize::MAX {
        match slots[me].take() {
            Some(Err(e)) => return Err(e),
            _ => unreachable!("poison index always holds its error"),
        }
    }
    let mut collected = Vec::with_capacity(slots.len());
    for slot in slots {
        match slot.expect("every item processed") {
            Ok(r) => collected.push(r),
            Err(_) => unreachable!("errors imply a poison index"),
        }
    }
    Ok(collected)
}

fn worker_loop(shared: Arc<PoolShared>, me: usize) {
    IN_POOL.set(true);
    let mut seen = 0u64;
    loop {
        let stage = {
            let mut st = shared.state.lock().expect("pool state");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    if let Some(stage) = st.stage.clone() {
                        break stage;
                    }
                }
                st = shared.work_cv.wait(st).expect("pool state");
            }
        };
        work(&shared, &stage, me);
    }
}

/// One worker's participation in a stage: drain the own deque from the
/// front, then steal from the back of the nearest non-empty victim; stop
/// when no queued item remains anywhere.
fn work(shared: &PoolShared, stage: &ActiveStage, me: usize) {
    let width = stage.deques.len();
    loop {
        let mut claimed = stage.deques[me].lock().expect("pool deque").pop_front();
        let mut stolen = false;
        if claimed.is_none() {
            for off in 1..width {
                let v = (me + off) % width;
                if let Some(i) = stage.deques[v].lock().expect("pool deque").pop_back() {
                    claimed = Some(i);
                    stolen = true;
                    break;
                }
            }
        }
        let Some(item) = claimed else { return };
        if stolen {
            stage.steals.fetch_add(1, Ordering::Relaxed);
        }
        // Catch panics so a failing task can't wedge the persistent pool;
        // the submitter re-raises after the stage drains.
        //
        // SAFETY: holding a claimed, not-yet-completed item keeps the
        // submitting `run` frame — and therefore the erased closure the
        // pointer borrows — alive until after this call returns (the
        // `pending` decrement below is what releases the submitter).
        let run = unsafe { &*stage.task.0 };
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| run(me, item))) {
            let mut slot = stage.panic.lock().expect("pool panic slot");
            if slot.is_none() {
                *slot = Some(p);
            }
        }
        if stage.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last item: wake the submitter. Taking the state lock makes
            // the notify race-free against its pending re-check.
            let _st = shared.state.lock().expect("pool state");
            shared.done_cv.notify_all();
        }
    }
}

/// [`run_stage_weighted`] with every item weighing one row: how the tests
/// below drive the pool.
#[cfg(test)]
pub(crate) fn run_stage<T, R, E, F>(ctx: &Context, inputs: &[T], task: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    run_stage_weighted(ctx, inputs, |_| 1, |i, t, _| task(i, t))
}

/// Runs `task` once per input on the context's scheduler and returns the
/// outputs in input order; the first error by input index is returned.
/// Items carry scheduling weights (rows) and a [`Cancel`] token for
/// mid-morsel cancellation; the stage records schedule statistics and
/// (when a plan trace is active) an explain note.
pub(crate) fn run_stage_weighted<T, R, E, F, W>(
    ctx: &Context,
    inputs: &[T],
    weight: W,
    task: F,
) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T, &Cancel<'_>) -> Result<R, E> + Sync,
    W: Fn(usize) -> u64 + Sync,
{
    let start = Instant::now();
    let (out, m) = ctx.pool().run(inputs, weight, task);
    let cost_us = start.elapsed().as_micros() as u64;
    let critical_us = if m.total_weight == 0 {
        cost_us
    } else {
        ((cost_us as u128 * m.max_worker_weight as u128) / m.total_weight as u128) as u64
    };
    ctx.stats()
        .record_stage_schedule(m.morsels, m.steals, m.max_depth, cost_us, critical_us);
    if inputs.len() > 1 {
        ctx.plan_note(format!(
            "sched: {} item(s) across {} worker(s) — {} run, {} stolen, max queue {}",
            inputs.len(),
            ctx.workers(),
            m.morsels,
            m.steals,
            m.max_depth
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_ctx(workers: usize) -> Context {
        Context::new(workers, workers.max(2))
    }

    #[test]
    fn processes_all_partitions_in_order() {
        let inputs: Vec<usize> = (0..100).collect();
        let out = run_stage::<_, _, (), _>(&pool_ctx(8), &inputs, |i, &x| {
            assert_eq!(i, x);
            Ok(x * 2)
        })
        .unwrap();
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn propagates_errors() {
        let inputs: Vec<usize> = (0..10).collect();
        let err = run_stage(&pool_ctx(4), &inputs, |_, &x| {
            if x == 7 {
                Err("boom")
            } else {
                Ok(x)
            }
        });
        assert_eq!(err, Err("boom"));
    }

    #[test]
    fn empty_input_is_fine() {
        let out = run_stage::<usize, usize, (), _>(&pool_ctx(4), &[], |_, &x| Ok(x)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_runs_inline() {
        let inputs = vec![1, 2, 3];
        let out = run_stage::<_, _, (), _>(&pool_ctx(1), &inputs, |_, &x| Ok(x + 1)).unwrap();
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn first_error_keeps_item_index_identity() {
        // Two failing items: the lower index must win no matter which
        // fails first on the wall clock.
        let inputs: Vec<usize> = (0..64).collect();
        let err = run_stage(&pool_ctx(4), &inputs, |_, &x| {
            if x == 3 {
                // The later-indexed error tends to land first.
                std::thread::sleep(std::time::Duration::from_millis(5));
                Err("low")
            } else if x == 40 {
                Err("high")
            } else {
                Ok(x)
            }
        });
        assert_eq!(err, Err("low"));
    }

    #[test]
    fn poison_cancels_queued_work_after_a_failure() {
        // Regression for the old pool, which kept executing every queued
        // partition after the first error. Item 0 fails immediately; of
        // the remaining 500 items, only the handful already in flight may
        // still run.
        let executed = AtomicUsize::new(0);
        let inputs: Vec<usize> = (0..500).collect();
        let err = run_stage(&pool_ctx(4), &inputs, |_, &x| {
            if x == 0 {
                return Err("poison");
            }
            executed.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_micros(200));
            Ok(x)
        });
        assert_eq!(err, Err("poison"));
        let ran = executed.load(Ordering::Relaxed);
        assert!(ran < 100, "poison must cancel queued items (ran {ran}/500)");
    }

    #[test]
    fn cancel_token_stops_in_flight_morsels() {
        // A long-running item polls its token and bails once a lower item
        // has failed; its bail-out error must never surface.
        let ctx = pool_ctx(2);
        let inputs: Vec<usize> = (0..2).collect();
        let err = run_stage_weighted(
            &ctx,
            &inputs,
            |_| 1,
            |_, &x, cancel: &Cancel<'_>| {
                if x == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    return Err("real");
                }
                for _ in 0..10_000 {
                    if cancel.cancelled() {
                        return Err("cancelled");
                    }
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
                Ok(x)
            },
        );
        assert_eq!(err, Err("real"));
    }

    #[test]
    fn work_is_stolen_from_a_skewed_schedule() {
        // One contiguous block of slow items lands on one worker's deque;
        // with stealing, other workers must take some of them.
        let ctx = pool_ctx(4);
        let before = ctx.stats().snapshot();
        let inputs: Vec<usize> = (0..64).collect();
        let out = run_stage::<_, _, (), _>(&ctx, &inputs, |_, &x| {
            if x < 16 {
                std::thread::sleep(std::time::Duration::from_micros(500));
            }
            Ok(x)
        })
        .unwrap();
        assert_eq!(out.len(), 64);
        let after = ctx.stats().snapshot().since(&before);
        assert_eq!(after.morsels, 64);
        assert!(after.steals > 0, "idle workers must steal: {after:?}");
    }

    #[test]
    fn nested_stages_run_inline_without_deadlock() {
        let ctx = pool_ctx(4);
        let inputs: Vec<usize> = (0..8).collect();
        let out = run_stage::<_, _, (), _>(&ctx, &inputs, |_, &x| {
            let inner: Vec<usize> = (0..4).collect();
            let inner_out = run_stage::<_, _, (), _>(&ctx, &inner, |_, &y| Ok(y * 10))?;
            Ok(x + inner_out.iter().sum::<usize>())
        })
        .unwrap();
        assert_eq!(out, (0..8).map(|x| x + 60).collect::<Vec<_>>());
    }

    #[test]
    fn pool_survives_a_panicking_task() {
        let ctx = pool_ctx(4);
        let inputs: Vec<usize> = (0..16).collect();
        let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _ = run_stage::<_, _, (), _>(&ctx, &inputs, |_, &x| {
                if x == 5 {
                    panic!("task panic");
                }
                Ok(x)
            });
        }));
        assert!(panicked.is_err(), "the panic must propagate");
        // The pool must still schedule new stages afterwards.
        let out = run_stage::<_, _, (), _>(&ctx, &inputs, |_, &x| Ok(x + 1)).unwrap();
        assert_eq!(out.len(), 16);
    }

    #[test]
    fn schedule_metrics_reach_stats() {
        let ctx = pool_ctx(3);
        let before = ctx.stats().snapshot();
        let inputs: Vec<usize> = (0..30).collect();
        let _ = run_stage::<_, _, (), _>(&ctx, &inputs, |_, &x| Ok(x)).unwrap();
        let after = ctx.stats().snapshot().since(&before);
        assert_eq!(after.morsels, 30);
        assert_eq!(after.max_queue_depth, 10);
        assert!(after.sched_cost_us >= after.sched_critical_us);
    }
}
