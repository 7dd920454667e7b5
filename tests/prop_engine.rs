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
        // (key, v, x, d, all, any): odd values key by the double their
        // long key equals; x is a double whose sum depends on the order of
        // addition; d is a distance with ties, NaN and -0.0; `all` and
        // `any` are bools for `&&` and `||`.
        let rows: Vec<Value> = pairs
            .iter()
            .map(|&(k, v)| {
                let key = if v % 2 == 0 { Value::Long(k) } else { Value::Double(k as f64) };
                let d = match v.rem_euclid(11) {
                    0 => f64::NAN,
                    1 => -0.0,
                    r => (r % 4) as f64,
                };
                Value::tuple(vec![
                    key,
                    Value::Long(v),
                    Value::Double(v as f64 * 1e-3 + (v % 7) as f64 * 1e9),
                    Value::Double(d),
                    Value::Bool(v % 5 != 0),
                    Value::Bool(v % 5 == 0),
                ])
            })
            .collect();
        let col = RowExpr::Col;
        let keyed = || RowExpr::Tuple(vec![
            col(0),
            RowExpr::Tuple(vec![
                col(1),
                col(2),
                col(1),
                col(1),
                col(2),
                col(3),
                col(4),
                col(5),
                RowExpr::Tuple(vec![col(1), col(3)]),
                RowExpr::Tuple(vec![col(1), col(2)]),
            ]),
        ]);
        let ops = [
            BinOp::Add,
            BinOp::Add,
            BinOp::Max,
            BinOp::Mul,
            BinOp::Min,
            BinOp::Min,
            BinOp::And,
            BinOp::Or,
            BinOp::ArgMin,
            BinOp::ArgMin,
        ];
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
        prop_assert_eq!(encoded(&got), encoded(&reference));
    }

    #[test]
    fn aggregate_equals_reduce(
        vals in prop::collection::vec((-50i64..50, 0u8..8), 0..200),
        monoid in 0usize..7,
        cut in 0usize..220,
        constant in prop::option::of(0u8..8),
        workers in 1usize..5,
        partitions in 1usize..9,
        batch in 1usize..41,
    ) {
        use diablo_dataflow::{Layout, RowExpr};
        use diablo_runtime::AggOp;
        let op = MONOIDS[monoid];
        // (i, v) rows; rows before `cut` are filtered out, so leading
        // partitions (and tiles) can be empty, and so can the whole input.
        let rows: Vec<Value> = vals
            .iter()
            .enumerate()
            .map(|(i, &(n, spell))| Value::pair(Value::Long(i as i64), monoid_value(op, n, spell)))
            .collect();
        let value = match constant {
            Some(spell) => RowExpr::Const(monoid_value(op, 5, spell)),
            None => RowExpr::Col(1),
        };
        let values = |ctx: Context| {
            ctx.from_vec(rows.clone())
                .filter_expr(RowExpr::Bin(
                    BinOp::Ge,
                    Box::new(RowExpr::Col(0)),
                    Box::new(RowExpr::Const(Value::Long(cut as i64))),
                ))
                .unwrap()
                .map_expr(value.clone())
                .unwrap()
        };
        let reference = values(Context::new(1, partitions).with_layout(Layout::Row))
            .reduce(|a, b| op.apply(a, b));
        let got = values(
            Context::new(workers, partitions)
                .with_layout(Layout::Columnar)
                .with_tile_width(batch),
        )
        .aggregate(AggOp::new(op).unwrap());
        prop_assert_eq!(format!("{got:?}"), format!("{reference:?}"), "{:?}", op);
        let bytes = |r: &diablo_runtime::Result<Option<Value>>| r.as_ref().ok().map(|v| encoded(v.as_slice()));
        prop_assert_eq!(bytes(&got), bytes(&reference), "{:?}", op);
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

    #[test]
    fn collect_sorted_is_exactly_the_value_order(
        main in 0u8..8,
        mixed in any::<bool>(),
        picks in prop::collection::vec((0u8..24, 0i64..4, 0i64..3, -3i64..3), 0..60),
        workers in 1usize..4,
        partitions in 1usize..6,
    ) {
        // One row kind, so the unboxed-key sort runs; or, when mixed,
        // intruders of other kinds among them, so it must step aside.
        let rows: Vec<Value> = picks
            .iter()
            .map(|&(pick, a, b, v)| {
                let kind = if mixed && pick >= 20 { pick % 8 } else { main };
                sort_row(kind, a, b, v)
            })
            .collect();
        let mut want = rows.clone();
        want.sort();
        let got = Context::new(workers, partitions).from_vec(rows).collect_sorted();
        // Same rows in the same order, told apart down to Long vs Double.
        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }
}

/// A row of kind `kind`: a pair keyed by a long, a double, a string, an
/// `(i, j)` or `(i, j, v)` tuple of longs, or a tuple with a double field;
/// or no pair at all (a long, a triple). Small ranges make duplicate keys
/// and rows `Value::cmp` calls equal (`Long(1)` and `Double(1.0)`).
fn sort_row(kind: u8, a: i64, b: i64, v: i64) -> Value {
    let (l, d) = (Value::Long, |n: i64| Value::Double(n as f64));
    match kind {
        0 => Value::pair(l(a), l(v)),
        1 => Value::pair(if v < 0 { d(a) } else { l(a) }, d(v)),
        2 => Value::pair(Value::str(format!("k{a}")), d(v)),
        3 => Value::pair(Value::pair(l(a), l(b)), if v < 0 { l(v) } else { d(v) }),
        4 => Value::pair(Value::tuple(vec![l(a), l(b), l(v)]), l(v)),
        5 => Value::pair(Value::pair(l(a), if v < 0 { d(b) } else { l(b) }), l(v)),
        6 => l(a),
        _ => Value::tuple(vec![l(a), l(b), l(v)]),
    }
}

/// `^` keeps the left (earlier) pair when distances are equal, and a NaN
/// on either side picks the right one — `BinOp::apply`'s `da <= db` — on
/// the row path and on every fold: the total fold and the keyed fold,
/// under both layouts, whatever the tile width.
#[test]
fn argmin_ties_keep_the_left_pair_and_nan_picks_the_right() {
    use diablo_dataflow::{Layout, RowExpr};
    use diablo_runtime::AggOp;
    let pair = |i: i64, d: f64| Value::pair(Value::Long(i), Value::Double(d));
    let nan = f64::NAN;
    let cases: [(Vec<Value>, Value); 6] = [
        (vec![pair(1, 0.5), pair(2, 0.5)], pair(1, 0.5)),
        (vec![pair(1, nan), pair(2, 0.5)], pair(2, 0.5)),
        (vec![pair(1, 0.5), pair(2, nan)], pair(2, nan)),
        (vec![pair(1, 0.0), pair(2, -0.0)], pair(1, 0.0)),
        (vec![pair(1, -0.0), pair(2, 0.0)], pair(1, -0.0)),
        (
            vec![
                pair(1, 0.5),
                pair(2, 0.5),
                pair(3, nan),
                pair(4, 0.9),
                pair(5, 0.9),
            ],
            pair(4, 0.9),
        ),
    ];
    let show = |v: &Value| format!("{v:?} {:?}", encoded(std::slice::from_ref(v)));
    for (pairs, want) in &cases {
        let folded = pairs[1..]
            .iter()
            .try_fold(pairs[0].clone(), |a, x| BinOp::ArgMin.apply(&a, x))
            .unwrap();
        assert_eq!(show(&folded), show(want), "row path over {pairs:?}");
        for layout in [Layout::Row, Layout::Columnar] {
            for (partitions, width) in [(1, 1), (1, 2), (1, 64), (2, 1), (2, 64)] {
                let ctx = Context::new(2, partitions)
                    .with_layout(layout)
                    .with_tile_width(width);
                let at = format!("{layout:?}, {partitions} partitions, width {width}, {pairs:?}");
                // The pairs rebuilt from their fields: `(long, double)`
                // lanes on the columnar layout.
                let lanes = RowExpr::Tuple(vec![RowExpr::Col(0), RowExpr::Col(1)]);
                let total = ctx
                    .from_vec(pairs.clone())
                    .map_expr(lanes.clone())
                    .unwrap()
                    .aggregate(AggOp::new(BinOp::ArgMin).unwrap())
                    .unwrap()
                    .unwrap();
                assert_eq!(show(&total), show(want), "total fold, {at}");
                // One key: every pair folds into one accumulator.
                let keyed = ctx
                    .from_vec(pairs.clone())
                    .map_expr(RowExpr::Tuple(vec![
                        RowExpr::Const(Value::Long(0)),
                        RowExpr::Tuple(vec![lanes]),
                    ]))
                    .unwrap()
                    .aggregate_by_key(vec![AggOp::new(BinOp::ArgMin).unwrap()])
                    .unwrap()
                    .collect();
                let want = Value::pair(Value::Long(0), Value::tuple(vec![want.clone()]));
                assert_eq!(keyed.len(), 1, "{at}");
                assert_eq!(show(&keyed[0]), show(&want), "keyed fold, {at}");
            }
        }
    }
}

/// Every monoid an aggregation folds with.
const MONOIDS: [BinOp; 7] = [
    BinOp::Add,
    BinOp::Mul,
    BinOp::Min,
    BinOp::Max,
    BinOp::And,
    BinOp::Or,
    BinOp::ArgMin,
];

/// A value for `op` to fold, picked by `spell`: for the numeric monoids
/// `n` as a long and as the double it equals, NaN, `-0.0`, `0.0`, a value
/// many rows share in either spelling, and a double whose sum depends on
/// the order of addition; `(n, distance)` pairs with those spellings as
/// distances for `^`; for `&&` and `||`, the bool the monoid keeps unless
/// a rare row flips it.
fn monoid_value(op: BinOp, n: i64, spell: u8) -> Value {
    let number = match spell {
        0 => Value::Long(n),
        1 => Value::Double(n as f64),
        2 => Value::Double(f64::NAN),
        3 => Value::Double(-0.0),
        4 => Value::Double(0.0),
        5 => Value::Long(3),
        6 => Value::Double(3.0),
        _ => Value::Double(n as f64 * 1e-3 + (n % 7) as f64 * 1e9),
    };
    match op {
        BinOp::And => Value::Bool(spell != 2 || n % 4 != 0),
        BinOp::Or => Value::Bool(spell == 2 && n % 4 == 0),
        BinOp::ArgMin => Value::pair(Value::Long(n), number),
        _ => number,
    }
}

/// The rows in `encode_value`'s bytes: equal bytes are equal rows, double
/// bits included.
fn encoded(rows: &[Value]) -> Vec<u8> {
    let mut out = Vec::new();
    for row in rows {
        diablo_dataflow::encode_value(row, &mut out).unwrap();
    }
    out
}
