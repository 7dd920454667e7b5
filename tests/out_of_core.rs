//! Out-of-core dataset-cache conformance: a dataset budget NEVER changes
//! results.
//!
//! The dataset cache (`DIABLO_DATASET_BUDGET` /
//! `Context::with_dataset_budget`) demotes materialized datasets past
//! the memory budget to disk, drops them past the disk ledger, and
//! recomputes dropped entries from their plan on the next read. All of
//! that must be invisible: Word Count and PageRank on inputs many times
//! the budget return byte-identical rows, in identical order, with the
//! identical first error, in every layout — at
//! an unbounded budget, at a 4 KiB budget (everything demotes), and at
//! a zero budget (caching disabled, every re-read recomputes).
//!
//! The second half regression-tests the cache-pinning bug this cache
//! replaced: a materialized dataset used to be pinned by an
//! `Arc<OnceLock>` forever, so loop-shaped sessions (diablod serving,
//! `while` programs) grew memory per iteration. Entries must now be
//! released the moment the last dataset or derived plan drops.

mod common;

use common::Engine;
use diablo_core::compile;
use diablo_dataflow::{Context, StatsSnapshot};
use diablo_exec::Session;
use diablo_runtime::Value;
use diablo_workloads as wl;

/// Runs a workload in one engine configuration / dataset budget; returns every output collection (in engine partition order)
/// plus the run's statistics delta.
fn run_budgeted(
    w: &wl::Workload,
    engine: Engine,
    budget: Option<u64>,
) -> (Vec<(String, Vec<Value>)>, StatsSnapshot) {
    let ctx = engine.context(3, 6);
    ctx.set_dataset_budget(budget);
    let compiled = compile(w.source).expect("compiles");
    let mut s = Session::new(ctx.clone());
    for (n, v) in &w.scalars {
        s.bind_scalar(n, v.clone());
    }
    for (n, rows) in &w.collections {
        s.bind_input(n, rows.clone());
    }
    let before = ctx.stats().snapshot();
    s.run(&compiled).expect("runs");
    let stats = ctx.stats().snapshot().since(&before);
    let outputs = w
        .outputs
        .iter()
        .map(|out| {
            (
                out.to_string(),
                s.dataset(out).expect("output bound").collect(),
            )
        })
        .collect();
    (outputs, stats)
}

/// The tentpole contract: Word Count, Group By and PageRank on inputs far past the
/// budget (the 4 KiB budget is ~10–100× smaller than the materialized
/// data) are byte-identical to the unbounded run, per layout, tile width
/// and exchange budget — and the budgeted runs actually exercised the
/// cache (spills or evictions fired).
#[test]
fn word_count_group_by_and_pagerank_are_budget_invariant_on_every_backend() {
    let workloads = [
        wl::word_count(1500, 7),
        wl::group_by(6000, 7),
        wl::pagerank(60, 3, 7),
    ];
    for w in &workloads {
        for engine in [
            Engine::ROW,
            Engine::COLUMNAR,
            Engine::COLUMNAR.tile(7).budget(Some(4096)),
        ] {
            let backend = engine.to_string();
            let (reference, base) = run_budgeted(w, engine, None);
            assert!(
                reference.iter().any(|(_, rows)| !rows.is_empty()),
                "{}: empty reference on {backend}",
                w.name
            );
            assert_eq!(base.dataset_spills, 0, "unbounded run never spills");
            assert_eq!(base.dataset_evictions, 0, "unbounded run never evicts");
            for budget in [Some(4096), Some(0)] {
                let (got, stats) = run_budgeted(w, engine, budget);
                assert_eq!(
                    got, reference,
                    "{} diverged on {backend} (budget={budget:?})",
                    w.name
                );
                match budget {
                    // 4 KiB: materialized datasets exceed the memory
                    // tier, so LRU demotion to disk must have fired.
                    Some(4096) => assert!(
                        stats.dataset_spills > 0,
                        "{} on {backend}: no spills under a 4 KiB budget: {stats:?}",
                        w.name
                    ),
                    // 0: caching is disabled — every insert is an
                    // eviction, nothing is ever held.
                    _ => assert!(
                        stats.dataset_evictions > 0,
                        "{} on {backend}: no evictions under a zero budget: {stats:?}",
                        w.name
                    ),
                }
            }
        }
    }
}

/// Columnar keyed aggregation under both budgets at once: Word Count and
/// Group By with 4 KiB for the exchange (every combined bucket spills) and
/// 4 KiB for the dataset cache return the unbounded run's rows, in its
/// order, which are the `local` row reference's — and every stage of the
/// default engine still runs columnar.
#[test]
fn keyed_aggregations_are_budget_invariant_on_the_columnar_path() {
    for w in [wl::word_count(1500, 7), wl::group_by(6000, 7)] {
        let run = |engine: Engine, budget: Option<u64>| {
            let ctx = engine.budget(budget).context(3, 6);
            ctx.set_dataset_budget(budget);
            let mut s = Session::new(ctx.clone());
            for (n, rows) in &w.collections {
                s.bind_input(n, rows.clone());
            }
            s.run(&compile(w.source).expect("compiles")).expect("runs");
            let rows = s.dataset(w.outputs[0]).expect("output bound").collect();
            (rows, ctx.stats().snapshot())
        };
        let (reference, _) = run(Engine::ROW, None);
        assert!(!reference.is_empty(), "{}", w.name);
        for budget in [None, Some(4096)] {
            let (got, stats) = run(Engine::COLUMNAR, budget);
            assert_eq!(
                format!("{got:?}"),
                format!("{reference:?}"),
                "{} diverged (budget={budget:?})",
                w.name
            );
            assert!(stats.vectorized_batches > 0, "{}: {stats:?}", w.name);
            assert_eq!(stats.row_fallback_stages, 0, "{}: {stats:?}", w.name);
            if budget.is_some() {
                assert!(stats.spilled_bytes > 0, "{}: {stats:?}", w.name);
                assert!(stats.dataset_spills > 0, "{}: {stats:?}", w.name);
            }
        }
    }
}

/// Joins and crosses under both budgets at once: PageRank (two joins per
/// step), Matrix Multiplication (a join into a group-by) and K-Means (a
/// broadcast cross folded per point) with 4 KiB for the exchange — the
/// joined rows cross it without a key wrapper and come back from spill
/// runs — and 4 KiB for the dataset cache return the `local` row
/// reference's rows, in its order, from a lazy and an eager session.
/// PageRank and K-Means run every stage columnar; Matrix Multiplication
/// keeps the one range expansion that zeroes its result. K-Means' shuffles
/// move only centroid rows (2 per step here), which the exchange budget
/// holds, so only the other two spill exchange runs. The eager session
/// materializes every step's arrays, so its dataset cache spills on the
/// other two, while K-Means' arrays (`avg` and the centroids) stay far
/// below the budget; the lazy one binds K-Means' step-local `avg`
/// unforced.
#[test]
fn joins_and_crosses_are_budget_invariant_on_the_columnar_path() {
    // (workload, row-fallback stages, exchange spills, the dataset cache
    // spills in a lazy and in an eager session)
    let workloads = [
        (wl::pagerank(60, 3, 7), 0, true, (true, true)),
        (wl::matrix_multiplication(24, 7), 1, true, (true, true)),
        // `true, (false, true)` before `closest` was spliced into `avg`:
        // its scatters moved every point, and the eager session cached it.
        (wl::kmeans(300, 2, 2, 7), 0, false, (false, false)),
    ];
    for (w, fallbacks, exchange_spills, (lazy_spills, eager_spills)) in &workloads {
        let run = |engine: Engine, budget: Option<u64>, lazy: bool| {
            let ctx = engine.budget(budget).context(3, 6);
            ctx.set_dataset_budget(budget);
            let mut s = match lazy {
                true => Session::new(ctx.clone()),
                false => Session::eager(ctx.clone()),
            };
            for (n, v) in &w.scalars {
                s.bind_scalar(n, v.clone());
            }
            for (n, rows) in &w.collections {
                s.bind_input(n, rows.clone());
            }
            s.run(&compile(w.source).expect("compiles")).expect("runs");
            let rows = s.dataset(w.outputs[0]).expect("output bound").collect();
            (rows, ctx.stats().snapshot())
        };
        let (reference, _) = run(Engine::ROW, None, true);
        assert!(!reference.is_empty(), "{}", w.name);
        for (budget, lazy) in [(None, true), (Some(4096), true), (Some(4096), false)] {
            let (got, stats) = run(Engine::COLUMNAR, budget, lazy);
            assert_eq!(
                format!("{got:?}"),
                format!("{reference:?}"),
                "{} diverged (budget={budget:?}, lazy={lazy})",
                w.name
            );
            assert!(stats.vectorized_batches > 0, "{}: {stats:?}", w.name);
            assert_eq!(
                stats.row_fallback_stages, *fallbacks,
                "{}: {stats:?}",
                w.name
            );
            if budget.is_some() {
                assert_eq!(
                    stats.spilled_bytes > 0,
                    *exchange_spills,
                    "{}: {stats:?}",
                    w.name
                );
                assert_eq!(
                    stats.dataset_spills > 0,
                    if lazy { *lazy_spills } else { *eager_spills },
                    "{} (lazy={lazy}): {stats:?}",
                    w.name
                );
            }
        }
    }
}

/// Deferred first errors are budget-invariant too: the recomputed plan
/// carries the same statement tags, so the error message — tag included —
/// matches the unbounded run exactly.
#[test]
fn first_error_is_budget_invariant() {
    const FAILING: &str = "
        input V: vector[long];
        var X: vector[long] = vector();
        for i = 0, 9 do X[i] := 100 / V[i];
    ";
    let rows: Vec<Value> = (0..10)
        .map(|i| Value::pair(Value::Long(i), Value::Long(i - 4)))
        .collect();
    let run = |budget: Option<u64>| -> String {
        let ctx = Context::new(3, 6);
        ctx.set_dataset_budget(budget);
        let mut s = Session::new(ctx);
        s.bind_input("V", rows.clone());
        s.run(&compile(FAILING).expect("compiles"))
            .expect_err("divides by zero")
            .to_string()
    };
    let reference = run(None);
    assert!(reference.contains(":X"), "tagged: {reference}");
    assert_eq!(run(Some(4096)), reference);
    assert_eq!(run(Some(0)), reference);
}

/// A dropped cache entry recomputes from lineage — and the recompute
/// counter proves it happened (a zero budget marks every insert evicted,
/// so the second read of a materialized dataset is a recompute).
#[test]
fn evicted_datasets_recompute_from_lineage() {
    let ctx = Context::new(2, 4).with_dataset_budget(0);
    let d = ctx
        .range(0, 499)
        .unwrap()
        .map(|v| Ok(Value::pair(v.clone(), v.clone())))
        .unwrap()
        .materialize()
        .expect("materializes");
    let first = d.collect();
    let again = d.collect();
    assert_eq!(first, again, "recomputed rows are byte-identical");
    let snap = ctx.stats_snapshot();
    assert!(snap.dataset_evictions > 0, "{snap:?}");
    assert!(snap.dataset_recomputes > 0, "{snap:?}");
    assert_eq!(snap.dataset_budget, 0);
}

/// The cache-pinning regression, engine level: a loop creating and
/// dropping one materialized dataset per iteration must hold at most one
/// live entry. Each iteration's ~9 KiB result alone fits the 16 KiB
/// budget, but any two leaked iterations would not — so a single spill
/// or eviction means superseded datasets were still pinned.
#[test]
fn dropped_datasets_release_their_cache_entries() {
    let ctx = Context::new(2, 4).with_dataset_budget(16 << 10);
    for i in 0..100 {
        let d = ctx
            .range(0, 499)
            .unwrap()
            .map(move |v| Ok(Value::pair(v.clone(), Value::Long(i))))
            .unwrap()
            .materialize()
            .expect("materializes");
        assert_eq!(d.count(), 500);
    }
    let snap = ctx.stats_snapshot();
    assert_eq!(
        snap.dataset_spills, 0,
        "leaked pins forced spills: {snap:?}"
    );
    assert_eq!(snap.dataset_evictions, 0, "{snap:?}");
}

/// The same regression through the serving shape diablod uses: one
/// session per request, loop-carried `while` programs re-assigning their
/// variables every iteration. Superseded per-iteration datasets must
/// release their entries as the loop overwrites them, so a long loop
/// under a budget sized for ONE iteration's live set never spills.
#[test]
fn looping_sessions_do_not_grow_the_dataset_cache() {
    const LOOP: &str = "
        input V: vector[long];
        var X: vector[long] = vector();
        var i: long = 0;
        for j = 0, 499 do X[j] := V[j];
        while (i < 40) {
            i += 1;
            for j = 0, 499 do X[j] := X[j] + 1;
        }
    ";
    let rows: Vec<Value> = (0..500)
        .map(|j| Value::pair(Value::Long(j), Value::Long(j)))
        .collect();
    let ctx = Context::new(2, 4).with_dataset_budget(64 << 10);
    let mut s = Session::new(ctx.clone());
    s.bind_input("V", rows.clone());
    s.run(&compile(LOOP).expect("compiles")).expect("runs");
    let got = s.dataset("X").expect("output bound").collect();

    // Ground truth from an unbounded run.
    let free = Session::new(Context::new(2, 4));
    let mut free = free;
    free.bind_input("V", rows);
    free.run(&compile(LOOP).expect("compiles")).expect("runs");
    assert_eq!(got, free.dataset("X").expect("output bound").collect());

    let snap = ctx.stats_snapshot();
    assert_eq!(
        snap.dataset_spills, 0,
        "loop iterations leaked cache entries: {snap:?}"
    );
    assert_eq!(snap.dataset_evictions, 0, "{snap:?}");
}
