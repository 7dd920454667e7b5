//! Exchange conformance under memory pressure: a budget so tiny that
//! every exchanged bucket goes through disk run files must yield rows,
//! order, shuffle counts, and first errors **identical** to the unbounded
//! in-memory exchange — on Word-Count and K-Means (the acceptance
//! workloads) and on raw `Dataset` pipelines — while the spill counters
//! prove the disk path actually ran.

use proptest::prelude::*;

use diablo_core::compile;
use diablo_dataflow::{Context, Dataset, HashPartitioner, Layout, StatsSnapshot};
use diablo_exec::Session;
use diablo_runtime::{array::key_value, BinOp, RuntimeError, Value};
use diablo_workloads as wl;

/// A context with an explicit exchange budget (`None` = unbounded),
/// pinned regardless of any suite-wide `DIABLO_MEMORY_BUDGET`.
fn ctx_with_budget(budget: Option<u64>) -> Context {
    let ctx = Context::new(3, 6);
    ctx.set_memory_budget(budget);
    ctx
}

/// Runs a workload through a session on the given context; returns the
/// named collection in engine (partition) order plus the stats delta.
fn run_workload(w: &wl::Workload, ctx: Context, out: &str) -> (Vec<Value>, StatsSnapshot) {
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
    let rows = s.dataset(out).expect("output bound").collect();
    (rows, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn word_count_spilled_matches_unbounded(n in 200usize..1200, seed in 1u64..500) {
        let w = wl::word_count(n, seed);
        let (mem_rows, mem) = run_workload(&w, ctx_with_budget(None), "C");
        let (spill_rows, spill) = run_workload(&w, ctx_with_budget(Some(0)), "C");
        prop_assert_eq!(spill_rows, mem_rows, "rows/order diverged under spilling");
        prop_assert_eq!(spill.shuffles, mem.shuffles);
        prop_assert_eq!(spill.shuffled_records, mem.shuffled_records);
        prop_assert_eq!(spill.physical_stages, mem.physical_stages);
        prop_assert_eq!(mem.spill_files, 0, "unbounded run must not spill");
        prop_assert!(spill.spill_files > 0, "budget 0 must spill: {:?}", spill);
        prop_assert!(spill.spilled_records > 0 && spill.spilled_bytes > 0, "{:?}", spill);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn kmeans_spilled_matches_unbounded(n in 60usize..220, steps in 1usize..3, seed in 1u64..200) {
        let w = wl::kmeans(n, 3, steps, seed);
        let (mem_rows, mem) = run_workload(&w, ctx_with_budget(None), "C");
        let (spill_rows, spill) = run_workload(&w, ctx_with_budget(Some(0)), "C");
        prop_assert_eq!(spill_rows, mem_rows, "rows/order diverged under spilling");
        prop_assert_eq!(spill.shuffles, mem.shuffles);
        prop_assert_eq!(spill.shuffled_records, mem.shuffled_records);
        prop_assert_eq!(spill.broadcasts, mem.broadcasts);
        prop_assert_eq!(mem.spill_files, 0);
        prop_assert!(spill.spill_files > 0, "budget 0 must spill: {:?}", spill);
    }
}

/// The row layout with every bucket on disk agrees with the unbounded
/// columnar default too.
#[test]
fn row_layout_spilled_agrees_with_columnar_on_word_count() {
    let w = wl::word_count(600, 42);
    let columnar = ctx_with_budget(None).with_layout(Layout::Columnar);
    let (mem_rows, _) = run_workload(&w, columnar, "C");
    let forced = ctx_with_budget(Some(0)).with_layout(Layout::Row);
    let (spill_rows, spill) = run_workload(&w, forced, "C");
    assert_eq!(spill_rows, mem_rows);
    assert!(spill.spill_files > 0, "{spill:?}");
}

#[test]
fn spilled_shuffle_surfaces_the_same_first_error() {
    // The scatter's key check fails on a non-pair row; the spilled and
    // in-memory exchanges must report the identical first error.
    let run = |budget: Option<u64>| -> RuntimeError {
        let ctx = ctx_with_budget(budget);
        let d = ctx.from_vec((0..300).map(Value::Long).collect());
        d.map(|v| {
            if v.as_long() == Some(137) {
                Ok(v.clone()) // non-pair row: the scatter rejects it
            } else {
                Ok(Value::pair(v.clone(), Value::Long(1)))
            }
        })
        .unwrap()
        .group_by_key()
        .unwrap_err()
    };
    assert_eq!(run(Some(0)).message, run(None).message);

    // An operator error inside the fused scatter chain, likewise.
    let run_step_err = |budget: Option<u64>| -> RuntimeError {
        let ctx = ctx_with_budget(budget);
        let d = ctx.from_vec((0..300).map(Value::Long).collect());
        d.map(|v| {
            if v.as_long() == Some(41) {
                Err(RuntimeError::new("boom at 41"))
            } else {
                Ok(Value::pair(v.clone(), Value::Long(1)))
            }
        })
        .unwrap()
        .reduce_by_key(|a, b| BinOp::Add.apply(a, b))
        .unwrap_err()
    };
    assert_eq!(run_step_err(Some(0)).message, run_step_err(None).message);
    assert!(run_step_err(Some(0)).message.contains("boom at 41"));
}

#[test]
fn spilled_pipeline_preserves_shuffle_read_fusion_and_caches() {
    // Spilling is invisible to the plan: reduce_by_key → map →
    // group_by_key is still 2 physical stages, and spilled results cache
    // like any other.
    let ctx = ctx_with_budget(Some(0));
    let entries: Vec<Value> = (0..500)
        .map(|i| Value::pair(Value::Long(i % 20), Value::Long(1)))
        .collect();
    let d = ctx.from_vec(entries);
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
    assert_eq!(after.physical_stages, 2, "{after:?}");
    assert!(after.spill_files > 0, "{after:?}");
    assert_eq!(r.count(), 20);
}

#[test]
fn spilled_group_by_key_keeps_each_key_in_its_hash_bucket() {
    // A keyed operator's output partition `b` holds exactly the keys the
    // hash partitioner sends to bucket `b`, so a partition-order collect
    // visits the buckets in ascending order.
    let rows = || -> Vec<Value> {
        (0..120)
            .map(|i| Value::pair(Value::Long((i * 7) % 120), Value::Long(i)))
            .collect()
    };
    let collected = ctx_with_budget(None)
        .from_vec(rows())
        .group_by_key()
        .unwrap()
        .collect();
    let buckets: Vec<usize> = collected
        .iter()
        .map(|r| {
            let (k, _) = key_value(r).unwrap();
            HashPartitioner.partition(&k, 6)
        })
        .collect();
    let mut sorted = buckets.clone();
    sorted.sort();
    assert_eq!(
        buckets, sorted,
        "hash buckets appear in ascending order across partitions"
    );
    // A spilled exchange is byte-identical to the in-memory one.
    let spill_ctx = ctx_with_budget(Some(0));
    let d = spill_ctx.from_vec(rows());
    let before = spill_ctx.stats().snapshot();
    let spilled = d.group_by_key().unwrap();
    let after = spill_ctx.stats().snapshot().since(&before);
    assert_eq!(spilled.collect(), collected);
    assert!(after.spill_files > 0, "{after:?}");
}

/// Two-sided exchanges (merge/join) spill independently per side and
/// still align their buckets.
#[test]
fn spilled_two_sided_exchanges_align() {
    let make = |ctx: &Context| -> (Dataset, Dataset) {
        let a = ctx.from_vec(
            (0..200)
                .map(|i| Value::pair(Value::Long(i % 50), Value::Long(i)))
                .collect(),
        );
        let b = ctx.from_vec(
            (0..100)
                .map(|i| Value::pair(Value::Long(i % 25), Value::Long(1000 + i)))
                .collect(),
        );
        (a, b)
    };
    let mem_ctx = ctx_with_budget(None);
    let (a, b) = make(&mem_ctx);
    let mem_join = a.join(&b).unwrap().collect();
    let mem_merge = a
        .merge(&b, Some(|x: &Value, y: &Value| BinOp::Add.apply(x, y)))
        .unwrap()
        .collect();
    let spill_ctx = ctx_with_budget(Some(0));
    let (a, b) = make(&spill_ctx);
    let before = spill_ctx.stats().snapshot();
    let spill_join = a.join(&b).unwrap().collect();
    let spill_merge = a
        .merge(&b, Some(|x: &Value, y: &Value| BinOp::Add.apply(x, y)))
        .unwrap()
        .collect();
    let after = spill_ctx.stats().snapshot().since(&before);
    assert_eq!(spill_join, mem_join);
    assert_eq!(spill_merge, mem_merge);
    assert!(after.spill_files > 0, "{after:?}");
}
