//! Property tests for narrow-stage fusion (alongside `prop_engine.rs`):
//! an arbitrary chain of `map` / `filter` / `flat_map` operators over
//! random rows must produce, under the lazy fused engine, results
//! identical to a reference eager evaluation — and must not shuffle at
//! all, while a chain ending in `reduce_by_key` must shuffle exactly as
//! often as the eager plan (fusion changes stage counts, never exchange
//! counts).

use proptest::prelude::*;

use diablo_dataflow::{Context, Dataset};
use diablo_runtime::{array::key_value, BinOp, Value};

/// One narrow operator, picked by a small integer code.
#[derive(Debug, Clone, Copy, PartialEq)]
enum NarrowOp {
    /// `v ↦ v + c`
    Add(i64),
    /// `v ↦ v * c` (c kept tiny to avoid overflow across deep chains)
    Mul(i64),
    /// keep rows with `v % c != 0`
    DropMultiples(i64),
    /// `v ↦ [v, -v]`
    Mirror,
    /// `v ↦ []` when `v % c == 0`, `[v]` otherwise (flat_map as filter)
    Erase(i64),
}

fn op_strategy() -> impl Strategy<Value = NarrowOp> {
    (0usize..5, 1i64..7).prop_map(|(code, c)| match code {
        0 => NarrowOp::Add(c),
        1 => NarrowOp::Mul(c % 3 + 1),
        2 => NarrowOp::DropMultiples(c + 1),
        3 => NarrowOp::Mirror,
        _ => NarrowOp::Erase(c + 1),
    })
}

/// Applies one op to a dataset (lazy engine path).
fn apply_engine(d: &Dataset, op: NarrowOp) -> Dataset {
    match op {
        NarrowOp::Add(c) => d
            .map(move |v| BinOp::Add.apply(v, &Value::Long(c)))
            .expect("map"),
        NarrowOp::Mul(c) => d
            .map(move |v| BinOp::Mul.apply(v, &Value::Long(c)))
            .expect("map"),
        NarrowOp::DropMultiples(c) => d
            .filter(move |v| Ok(v.as_long().unwrap_or(0) % c != 0))
            .expect("filter"),
        NarrowOp::Mirror => d
            .flat_map(|v| {
                let x = v.as_long().unwrap_or(0);
                Ok(vec![Value::Long(x), Value::Long(-x)])
            })
            .expect("flat_map"),
        NarrowOp::Erase(c) => d
            .flat_map(move |v| {
                let x = v.as_long().unwrap_or(0);
                Ok(if x % c == 0 {
                    vec![]
                } else {
                    vec![Value::Long(x)]
                })
            })
            .expect("flat_map"),
    }
}

/// Applies one op eagerly to an in-memory vector (the reference).
fn apply_reference(rows: &[i64], op: NarrowOp) -> Vec<i64> {
    match op {
        NarrowOp::Add(c) => rows.iter().map(|x| x + c).collect(),
        NarrowOp::Mul(c) => rows.iter().map(|x| x * c).collect(),
        NarrowOp::DropMultiples(c) => rows.iter().filter(|x| *x % c != 0).copied().collect(),
        NarrowOp::Mirror => rows.iter().flat_map(|&x| [x, -x]).collect(),
        NarrowOp::Erase(c) => rows.iter().filter(|x| *x % c != 0).copied().collect(),
    }
}

fn longs(rows: Vec<Value>) -> Vec<i64> {
    rows.into_iter().map(|v| v.as_long().unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fused_chains_match_eager_reference(
        rows in prop::collection::vec(-1000i64..1000, 0..120),
        ops in prop::collection::vec(op_strategy(), 0..8),
        workers in 1usize..4,
        partitions in 1usize..7,
    ) {
        let ctx = Context::new(workers, partitions);
        let mut d = ctx.from_vec(rows.iter().copied().map(Value::Long).collect());
        let mut want = rows.clone();
        for &op in &ops {
            d = apply_engine(&d, op);
            want = apply_reference(&want, op);
        }
        let before = ctx.stats().snapshot();
        let got = longs(d.collect());
        let after = ctx.stats().snapshot().since(&before);
        // Identical rows in identical order (fusion preserves (partition,
        // position) order exactly).
        prop_assert_eq!(&got, &want);
        // A pure narrow chain never shuffles and fuses to ≤ 1 stage.
        prop_assert_eq!(after.shuffles, 0);
        prop_assert!(
            after.physical_stages <= 1,
            "{} ops ran {} stages",
            ops.len(),
            after.physical_stages
        );
    }

    #[test]
    fn fused_and_stepwise_chains_shuffle_identically(
        pairs in prop::collection::vec((0i64..20, -100i64..100), 0..100),
        ops in prop::collection::vec(op_strategy(), 0..5),
    ) {
        // The same chain ending in reduce_by_key, run (a) fused and
        // (b) with a forced materialization between every operator, must
        // agree on results AND on how many shuffle exchanges happened —
        // fusion removes stages, never data exchanges.
        let key_of = |v: &Value| Value::Long(v.as_long().unwrap_or(0).rem_euclid(5));
        let run = |stepwise: bool| -> (Vec<Value>, u64, u64) {
            let ctx = Context::new(2, 4);
            let mut d = ctx.from_vec(
                pairs.iter().map(|&(_, v)| Value::Long(v)).collect(),
            );
            for &op in &ops {
                d = apply_engine(&d, op);
                if stepwise {
                    d = d.materialize().expect("materialize");
                }
            }
            let keyed = d
                .map(move |v| Ok(Value::pair(key_of(v), v.clone())))
                .expect("key");
            let before = ctx.stats().snapshot();
            let reduced = keyed
                .reduce_by_key(|a, b| BinOp::Add.apply(a, b))
                .expect("rbk");
            let after = ctx.stats().snapshot().since(&before);
            (reduced.collect_sorted(), after.shuffles, after.shuffled_records)
        };
        let (fused_rows, fused_shuffles, fused_moved) = run(false);
        let (eager_rows, eager_shuffles, eager_moved) = run(true);
        prop_assert_eq!(fused_rows, eager_rows);
        prop_assert_eq!(fused_shuffles, eager_shuffles);
        prop_assert_eq!(fused_moved, eager_moved);
    }

    #[test]
    fn chains_over_unions_match_reference(
        left in prop::collection::vec(-500i64..500, 0..60),
        right in prop::collection::vec(-500i64..500, 0..60),
        ops in prop::collection::vec(op_strategy(), 0..4),
    ) {
        // The bag union of two inputs, bound as one source.
        let ctx = Context::new(2, 4);
        let rows: Vec<i64> = left.iter().chain(&right).copied().collect();
        let mut d = ctx.from_vec(rows.iter().copied().map(Value::Long).collect());
        let mut want = rows;
        for &op in &ops {
            d = apply_engine(&d, op);
            want = apply_reference(&want, op);
        }
        prop_assert_eq!(longs(d.collect()), want);
    }

    #[test]
    fn keyed_ops_agree_after_fused_prologues(
        pairs in prop::collection::vec((0i64..12, -50i64..50), 0..80),
    ) {
        // group_by_key over a fused prologue vs over a pre-materialized
        // input: same groups, same members.
        let ctx = Context::new(3, 5);
        let mk = || {
            ctx.from_vec(
                pairs
                    .iter()
                    .map(|&(k, v)| Value::pair(Value::Long(k), Value::Long(v)))
                    .collect(),
            )
        };
        let prologue = |d: &Dataset| -> Dataset {
            d.filter(|row| Ok(key_value(row).is_ok()))
                .expect("filter")
                .map(|row| {
                    let (k, v) = key_value(row)?;
                    Ok(Value::pair(k, BinOp::Mul.apply(&v, &Value::Long(2))?))
                })
                .expect("map")
        };
        let fused = prologue(&mk()).group_by_key().expect("gbk").collect_sorted();
        let stepwise = prologue(&mk())
            .materialize()
            .expect("materialize")
            .group_by_key()
            .expect("gbk")
            .collect_sorted();
        prop_assert_eq!(fused, stepwise);
    }
}
