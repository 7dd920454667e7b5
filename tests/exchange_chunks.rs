//! Shuffle buckets as column chunks: a columnar stage sends its tiles'
//! columns through keyed scatters as lanes, and the reduce, merge,
//! group-by and join read them where they lie. Every case runs in every
//! engine configuration — both layouts, a tile width that splits each
//! partition into several tiles, and exchange budgets none, 0 and 4096 (a
//! spilled piece comes back as the chunk it was written as and meets
//! in-memory pieces) — and must match the row layout's rows, order, first
//! error and shuffle counters byte for byte. `shuffled_bytes` agreeing
//! says a lane row is charged as the row it stands for.

mod common;

use std::sync::Arc;

use common::Engine;
use diablo_dataflow::{Context, Dataset, JoinOn, RowExpr, Shape};
use diablo_runtime::{AggOp, BinOp, RuntimeError, Value};

/// Every configuration a case runs in.
fn engines() -> Vec<Engine> {
    let mut out = Vec::new();
    for budget in [None, Some(0), Some(4096)] {
        out.push(Engine::ROW.budget(budget));
        for tile in [3, 4096] {
            out.push(Engine::COLUMNAR.tile(tile).budget(budget));
        }
    }
    out
}

/// Runs `case` in every configuration and holds each run to the row
/// layout's, unbounded: the same rendering of the result (rows, or the
/// first error) and, for a result, the same shuffle counters.
fn conforms(name: &str, case: impl Fn(&Context) -> Result<Vec<Value>, RuntimeError>) {
    let run = |e: Engine| {
        let ctx = e.context(2, 4);
        let before = ctx.stats().snapshot();
        let out = case(&ctx);
        let s = ctx.stats().snapshot().since(&before);
        let counters = out
            .is_ok()
            .then_some((s.shuffles, s.shuffled_records, s.shuffled_bytes));
        (format!("{out:?}"), counters)
    };
    let reference = run(Engine::ROW);
    for e in engines() {
        assert_eq!(run(e), reference, "{name}: {e}");
    }
}

fn l(n: i64) -> Value {
    Value::Long(n)
}

/// `(key, value)` rows through one transparent step, so a columnar stage
/// reads them as tiles of struct-of-arrays pairs.
fn pairs(ctx: &Context, rows: Vec<Value>) -> Result<Dataset, RuntimeError> {
    ctx.from_vec(rows)
        .map_expr(RowExpr::Tuple(vec![RowExpr::Col(0), RowExpr::Col(1)]))
}

/// The four keyed operators over `rows` of `(key, value)` pairs, their
/// outputs end to end: a count per key, the groups, a merge with the rows
/// in reverse order, and a join of the rows with themselves.
fn keyed_ops(ctx: &Context, rows: &[Value]) -> Result<Vec<Value>, RuntimeError> {
    let d = pairs(ctx, rows.to_vec())?;
    let mut out = Vec::new();
    // `aggregate_by_key` takes a tuple of values, one per monoid: here a
    // count, from a constant lane.
    let counted = d
        .map_expr(RowExpr::Tuple(vec![
            RowExpr::Col(0),
            RowExpr::Tuple(vec![RowExpr::Const(l(1))]),
        ]))?
        .aggregate_by_key(vec![AggOp { op: BinOp::Add }])?;
    out.extend(counted.try_collect()?);
    out.extend(d.group_by_key()?.try_collect()?);
    let later = pairs(ctx, rows.iter().rev().cloned().collect())?;
    out.extend(
        d.merge(&later, None::<fn(&Value, &Value) -> _>)?
            .try_collect()?,
    );
    let on = JoinOn {
        left_key: RowExpr::Col(0),
        right: Shape::Tuple(vec![Shape::Bind, Shape::Bind]),
        right_key: RowExpr::Col(0),
        mismatch: Arc::from("join pattern (k, v) does not match row"),
    };
    // A chain above the join gathers its columns from the two sides.
    let joined = d.join_on(&d, on)?;
    out.extend(joined.try_collect()?);
    let picked = RowExpr::Tuple(vec![RowExpr::Col(1), RowExpr::Col(0), RowExpr::Col(3)]);
    out.extend(joined.map_expr(picked)?.try_collect()?);
    Ok(out)
}

#[test]
fn a_key_long_in_one_tile_and_double_in_another_stays_one_key() {
    // Each partition's 8 rows: keys 0, 1, 2 as longs, then as doubles, so
    // one tile holds longs, a later one doubles, and one both.
    let rows: Vec<Value> = (0..32i64)
        .map(|i| {
            let k = i % 3;
            let key = if i % 8 < 4 {
                l(k)
            } else {
                Value::Double(k as f64)
            };
            Value::pair(key, l(i))
        })
        .collect();
    conforms("mixed key spellings", |ctx| keyed_ops(ctx, &rows));
    let ctx = Engine::COLUMNAR.tile(3).context(2, 4);
    let sums = pairs(&ctx, rows.clone())
        .unwrap()
        .map_expr(RowExpr::Tuple(vec![
            RowExpr::Col(0),
            RowExpr::Tuple(vec![RowExpr::Col(1)]),
        ]))
        .unwrap()
        .aggregate_by_key(vec![AggOp { op: BinOp::Add }])
        .unwrap()
        .collect();
    assert_eq!(sums.len(), 3, "`1` and `1.0` are one key: {sums:?}");
}

#[test]
fn string_keys_cross_in_the_boxed_lane() {
    let rows: Vec<Value> = (0..40i64)
        .map(|i| Value::pair(Value::str(format!("w{}", i % 5)), l(i)))
        .collect();
    conforms("string keys", |ctx| keyed_ops(ctx, &rows));
}

#[test]
fn nested_tuple_values_cross_as_nested_lanes() {
    let rows: Vec<Value> = (0..40i64)
        .map(|i| {
            let inner = Value::pair(l(i), Value::Double(i as f64 / 2.0));
            Value::pair(
                Value::pair(l(i % 4), l(i % 3)),
                Value::pair(inner, Value::str("x")),
            )
        })
        .collect();
    conforms("nested values", |ctx| keyed_ops(ctx, &rows));
}

#[test]
fn empty_buckets_and_empty_sides() {
    // One key over four partitions: three buckets of every exchange are
    // empty; then an empty dataset on either side of every operator.
    let rows: Vec<Value> = (0..12i64).map(|i| Value::pair(l(7), l(i))).collect();
    conforms("one key", |ctx| keyed_ops(ctx, &rows));
    conforms("no rows", |ctx| keyed_ops(ctx, &[]));
    conforms("empty side", |ctx| {
        let d = pairs(ctx, rows.clone())?;
        let none = pairs(ctx, Vec::new())?;
        let mut out = d
            .merge(&none, None::<fn(&Value, &Value) -> _>)?
            .try_collect()?;
        out.extend(
            none.merge(&d, None::<fn(&Value, &Value) -> _>)?
                .try_collect()?,
        );
        out.extend(none.join(&d)?.try_collect()?);
        out.extend(d.join(&none)?.try_collect()?);
        Ok(out)
    });
}

#[test]
fn a_replayed_tile_raises_the_row_paths_first_error() {
    // The key divides by the value, which is 0 at row 13: the tile fails
    // in its lanes, is replayed row by row, and raises the row path's
    // error, statement tag included.
    let rows: Vec<Value> = (0..32i64)
        .map(|i| Value::pair(l(i % 5), l(if i == 13 { 0 } else { i })))
        .collect();
    conforms("failing key", |ctx| {
        ctx.set_statement_label(Some("s4:K"));
        let keyed = pairs(ctx, rows.clone())?.map_expr(RowExpr::Tuple(vec![
            RowExpr::Bin(
                BinOp::Div,
                Box::new(RowExpr::Const(l(100))),
                Box::new(RowExpr::Col(1)),
            ),
            RowExpr::Col(1),
        ]));
        ctx.set_statement_label(None);
        keyed?.group_by_key()?.try_collect()
    });
    // A row that is no pair fails the keyed scatter itself, at that row.
    let mut bad = rows.clone();
    bad[21] = l(21);
    conforms("not a pair", |ctx| {
        ctx.from_vec(bad.clone())
            .map_expr(RowExpr::Input)?
            .group_by_key()?
            .try_collect()
    });
}

#[test]
fn a_heavy_right_key_is_probed_in_pieces_and_a_failing_piece_replays() {
    // Right key 7 holds 5 000 rows, more matches than either tile width
    // (3 and 4096), so the bucket's probe cuts each left row of key 7 into
    // batch-wide pieces. Then a later step divides by zero at right row
    // 4 500, in a later piece: the tile is replayed row by row and raises
    // the row path's first error, statement tag included.
    let left: Vec<Value> = (0..12i64)
        .map(|i| Value::pair(l(i % 4 + 5), l(i)))
        .collect();
    let right: Vec<Value> = (0..5000i64)
        .map(|j| Value::pair(l(7), l(j)))
        .chain((0..9i64).map(|j| Value::pair(l(j), l(-j))))
        .collect();
    let join = |ctx: &Context| {
        let on = JoinOn {
            left_key: RowExpr::Col(0),
            right: Shape::Tuple(vec![Shape::Bind, Shape::Bind]),
            right_key: RowExpr::Col(0),
            mismatch: Arc::from("join pattern (k, v) does not match row"),
        };
        pairs(ctx, left.clone())?.join_on(&pairs(ctx, right.clone())?, on)
    };
    conforms("a heavy key", |ctx| {
        let picked = RowExpr::Tuple(vec![RowExpr::Col(1), RowExpr::Col(3)]);
        let rows = join(ctx)?.map_expr(picked)?.try_collect()?;
        // Three left rows per key 5..=8; key 7 meets 5 001 right rows, the
        // others one each.
        assert_eq!(rows.len(), 3 * 5001 + 3 * 3);
        Ok(rows)
    });
    conforms("a failing later piece", |ctx| {
        let joined = join(ctx)?;
        ctx.set_statement_label(Some("s5:J"));
        let divided = joined.map_expr(RowExpr::Bin(
            BinOp::Div,
            Box::new(RowExpr::Const(l(1))),
            Box::new(RowExpr::Bin(
                BinOp::Sub,
                Box::new(RowExpr::Col(3)),
                Box::new(RowExpr::Const(l(4500))),
            )),
        ));
        ctx.set_statement_label(None);
        let err = divided?.try_collect().unwrap_err();
        assert!(err.message.contains("[s5:J] division by zero"), "{err}");
        Err(err)
    });
}

#[test]
fn a_join_of_a_row_path_side_and_a_columnar_side() {
    let rows: Vec<Value> = (0..30i64)
        .map(|i| Value::pair(l(i % 6), Value::Double(i as f64)))
        .collect();
    conforms("opaque left", |ctx| {
        let opaque = ctx.from_vec(rows.clone()).map(|r| Ok(r.clone()))?;
        let columnar = pairs(ctx, rows.clone())?;
        let on = || JoinOn {
            left_key: RowExpr::Col(0),
            right: Shape::Tuple(vec![Shape::Bind, Shape::Bind]),
            right_key: RowExpr::Col(0),
            mismatch: Arc::from("join pattern (k, v) does not match row"),
        };
        let picked = || RowExpr::Tuple(vec![RowExpr::Col(3), RowExpr::Col(0)]);
        let mut out = opaque.join_on(&columnar, on())?.try_collect()?;
        out.extend(columnar.join_on(&opaque, on())?.try_collect()?);
        out.extend(
            opaque
                .join_on(&columnar, on())?
                .map_expr(picked())?
                .try_collect()?,
        );
        out.extend(
            columnar
                .join_on(&opaque, on())?
                .map_expr(picked())?
                .try_collect()?,
        );
        Ok(out)
    });
}
