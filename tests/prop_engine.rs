//! Property tests for the dataflow engine: every keyed operator must agree
//! with a naive single-threaded reference implementation, regardless of
//! worker count and partitioning.

mod common;

use std::collections::HashMap;

use proptest::prelude::*;

use diablo_dataflow::Context;
use diablo_runtime::{array::key_value, BinOp, Value};

fn pairs_strategy() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..20, -100i64..100), 0..200)
}

fn dataset(ctx: &Context, pairs: &[(i64, i64)]) -> diablo_dataflow::Dataset {
    ctx.from_vec(
        pairs
            .iter()
            .map(|&(k, v)| Value::pair(Value::Long(k), Value::Long(v)))
            .collect(),
    )
}

fn rows_to_map(rows: Vec<Value>) -> HashMap<i64, Value> {
    rows.into_iter()
        .map(|r| {
            let (k, v) = key_value(&r).unwrap();
            (k.as_long().unwrap(), v)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reduce_by_key_matches_reference(
        pairs in pairs_strategy(),
        workers in 1usize..5,
        partitions in 1usize..9,
    ) {
        let ctx = Context::new(workers, partitions);
        let d = dataset(&ctx, &pairs);
        let got = rows_to_map(d.reduce_by_key(|a, b| BinOp::Add.apply(a, b)).unwrap().collect());
        let mut want: HashMap<i64, i64> = HashMap::new();
        for &(k, v) in &pairs {
            *want.entry(k).or_insert(0) += v;
        }
        prop_assert_eq!(got.len(), want.len());
        for (k, v) in want {
            prop_assert_eq!(got.get(&k), Some(&Value::Long(v)), "key {}", k);
        }
    }

    #[test]
    fn group_by_key_collects_every_value(
        pairs in pairs_strategy(),
        partitions in 1usize..9,
    ) {
        let ctx = Context::new(2, partitions);
        let d = dataset(&ctx, &pairs);
        let grouped = d.group_by_key().unwrap().collect();
        let mut want: HashMap<i64, Vec<i64>> = HashMap::new();
        for &(k, v) in &pairs {
            want.entry(k).or_default().push(v);
        }
        prop_assert_eq!(grouped.len(), want.len());
        for row in grouped {
            let (k, bag) = key_value(&row).unwrap();
            let mut got: Vec<i64> = bag
                .as_bag()
                .unwrap()
                .iter()
                .map(|v| v.as_long().unwrap())
                .collect();
            got.sort_unstable();
            let mut expect = want.remove(&k.as_long().unwrap()).unwrap();
            expect.sort_unstable();
            prop_assert_eq!(got, expect);
        }
    }

    #[test]
    fn join_matches_nested_loop_reference(
        left in pairs_strategy(),
        right in pairs_strategy(),
    ) {
        let ctx = Context::new(3, 5);
        let l = dataset(&ctx, &left);
        let r = dataset(&ctx, &right);
        let mut got: Vec<(i64, i64, i64)> = l
            .join(&r)
            .unwrap()
            .collect()
            .into_iter()
            .map(|row| {
                let (k, lr) = key_value(&row).unwrap();
                let f = lr.as_tuple().unwrap();
                (
                    k.as_long().unwrap(),
                    f[0].as_long().unwrap(),
                    f[1].as_long().unwrap(),
                )
            })
            .collect();
        got.sort_unstable();
        let mut want: Vec<(i64, i64, i64)> = Vec::new();
        for &(lk, lv) in &left {
            for &(rk, rv) in &right {
                if lk == rk {
                    want.push((lk, lv, rv));
                }
            }
        }
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn merge_is_right_biased_and_total(
        old in pairs_strategy(),
        new in pairs_strategy(),
    ) {
        let ctx = Context::new(2, 4);
        // Deduplicate input keys (arrays have unique keys).
        let dedup = |ps: &[(i64, i64)]| -> Vec<(i64, i64)> {
            let mut m: HashMap<i64, i64> = HashMap::new();
            for &(k, v) in ps {
                m.insert(k, v);
            }
            m.into_iter().collect()
        };
        let old = dedup(&old);
        let new = dedup(&new);
        let d = dataset(&ctx, &old)
            .merge(&dataset(&ctx, &new), None::<fn(&Value, &Value) -> Result<Value, diablo_runtime::RuntimeError>>)
            .unwrap();
        let got = rows_to_map(d.collect());
        let mut want: HashMap<i64, i64> = old.iter().copied().collect();
        for &(k, v) in &new {
            want.insert(k, v);
        }
        prop_assert_eq!(got.len(), want.len());
        for (k, v) in want {
            prop_assert_eq!(got.get(&k), Some(&Value::Long(v)));
        }
    }

    #[test]
    fn merge_with_combines_colliding_keys(
        old in pairs_strategy(),
        new in pairs_strategy(),
    ) {
        let ctx = Context::new(2, 4);
        let dedup = |ps: &[(i64, i64)]| -> Vec<(i64, i64)> {
            let mut m: HashMap<i64, i64> = HashMap::new();
            for &(k, v) in ps {
                m.insert(k, v);
            }
            m.into_iter().collect()
        };
        let old = dedup(&old);
        let new = dedup(&new);
        let d = dataset(&ctx, &old)
            .merge(&dataset(&ctx, &new), Some(|a: &Value, b: &Value| BinOp::Add.apply(a, b)))
            .unwrap();
        let got = rows_to_map(d.collect());
        let mut want: HashMap<i64, i64> = old.iter().copied().collect();
        for &(k, v) in &new {
            *want.entry(k).or_insert(0) += v;
        }
        for (k, v) in want {
            prop_assert_eq!(got.get(&k), Some(&Value::Long(v)), "key {}", k);
        }
    }

    #[test]
    fn reduce_matches_sequential_fold(pairs in pairs_strategy()) {
        let ctx = Context::new(4, 7);
        let d = dataset(&ctx, &pairs);
        let vals = d.map(|r| Ok(key_value(r)?.1)).unwrap();
        let got = vals.reduce(|a, b| BinOp::Add.apply(a, b)).unwrap();
        let want: i64 = pairs.iter().map(|&(_, v)| v).sum();
        if pairs.is_empty() {
            prop_assert_eq!(got, None);
        } else {
            prop_assert_eq!(got, Some(Value::Long(want)));
        }
    }

    #[test]
    fn partitioning_never_changes_results(
        pairs in pairs_strategy(),
        p1 in 1usize..8,
        p2 in 1usize..8,
    ) {
        let a = Context::new(1, p1);
        let b = Context::new(3, p2);
        let ra = dataset(&a, &pairs).reduce_by_key(|x, y| BinOp::Add.apply(x, y)).unwrap().collect_sorted();
        let rb = dataset(&b, &pairs).reduce_by_key(|x, y| BinOp::Add.apply(x, y)).unwrap().collect_sorted();
        prop_assert_eq!(ra, rb);
    }

    #[test]
    fn aggregate_by_key_equals_reduce_by_key(
        pairs in pairs_strategy(),
        workers in 1usize..5,
        partitions in 1usize..9,
        batch in 1usize..40,
    ) {
        use diablo_dataflow::{Layout, RowExpr};
        use diablo_runtime::AggOp;
        // (key, v, x): odd values key by the double their long key equals,
        // and x is a double whose sum depends on the order of addition.
        let rows: Vec<Value> = pairs
            .iter()
            .map(|&(k, v)| {
                let key = if v % 2 == 0 { Value::Long(k) } else { Value::Double(k as f64) };
                Value::tuple(vec![key, Value::Long(v), Value::Double(v as f64 * 1e-3 + (v % 7) as f64 * 1e9)])
            })
            .collect();
        let keyed = || RowExpr::Tuple(vec![
            RowExpr::Col(0),
            RowExpr::Tuple(vec![RowExpr::Col(1), RowExpr::Col(2), RowExpr::Col(1)]),
        ]);
        let ops = [BinOp::Add, BinOp::Add, BinOp::Max];
        let reference = Context::new(1, partitions)
            .with_layout(Layout::Row)
            .from_vec(rows.clone())
            .map_expr(keyed())
            .unwrap()
            .reduce_by_key(move |a, b| {
                let (xs, ys) = (a.as_tuple().unwrap(), b.as_tuple().unwrap());
                let fields = ops
                    .iter()
                    .zip(xs.iter().zip(ys))
                    .map(|(op, (x, y))| op.apply(x, y))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Value::tuple(fields))
            })
            .unwrap()
            .collect();
        let got = Context::new(workers, partitions)
            .with_layout(Layout::Columnar)
            .with_tile_width(batch)
            .from_vec(rows)
            .map_expr(keyed())
            .unwrap()
            .aggregate_by_key(ops.iter().map(|&op| AggOp::new(op).unwrap()).collect())
            .unwrap()
            .collect();
        // Same rows, same order, same bits.
        prop_assert_eq!(format!("{got:?}"), format!("{reference:?}"));
    }

    #[test]
    fn join_on_equals_cogroup_and_expansion(
        left in pairs_strategy(),
        right in pairs_strategy(),
        workers in 1usize..5,
        partitions in 1usize..9,
        batch in 1usize..40,
    ) {
        use diablo_dataflow::{JoinOn, Layout, RowExpr, Shape};
        // Left rows (key, v) keyed by `key`; right rows ((key, v), v) bound
        // by ((k, _), w). Odd values spell their key as the double it
        // equals, so one key has two spellings on either side.
        let spell = |k: i64, v: i64| if v % 2 == 0 { Value::Long(k) } else { Value::Double(k as f64) };
        let left_rows: Vec<Value> = left
            .iter()
            .map(|&(k, v)| Value::pair(spell(k, v), Value::Long(v)))
            .collect();
        let right_rows: Vec<Value> = right
            .iter()
            .map(|&(k, v)| Value::pair(Value::pair(spell(k, v), Value::Long(v)), Value::Long(-v)))
            .collect();
        let shape = Shape::Tuple(vec![Shape::Tuple(vec![Shape::Bind, Shape::Skip]), Shape::Bind]);
        // The reference: key both sides on the driver, match them with a
        // nested loop (the co-grouped keys in the join's documented
        // order), and expand every match's left × right rows.
        let reference: Vec<Value> = {
            let l: Vec<(Value, Value)> = left_rows
                .iter()
                .map(|row| (key_value(row).unwrap().0, row.clone()))
                .collect();
            let r: Vec<(Value, Value)> = right_rows
                .iter()
                .map(|row| {
                    let (kv, w) = key_value(row).unwrap();
                    let k = key_value(&kv).unwrap().0;
                    (k.clone(), Value::pair(k, w))
                })
                .collect();
            common::nested_loop_join(&l, &r, partitions)
                .into_iter()
                .map(|(_, l, r)| {
                    let mut fields = l.as_tuple().unwrap().to_vec();
                    fields.extend_from_slice(r.as_tuple().unwrap());
                    Value::tuple(fields)
                })
                .collect()
        };
        let ctx = Context::new(workers, partitions)
            .with_layout(Layout::Columnar)
            .with_tile_width(batch);
        let on = JoinOn {
            left_key: RowExpr::Col(0),
            right: shape,
            right_key: RowExpr::Col(0),
            mismatch: "join pattern ((k, _), w) does not match row".into(),
        };
        let got = ctx
            .from_vec(left_rows)
            .join_on(&ctx.from_vec(right_rows), on)
            .unwrap()
            .collect();
        // Same rows, same order, same bits.
        prop_assert_eq!(format!("{got:?}"), format!("{reference:?}"));
    }
}
