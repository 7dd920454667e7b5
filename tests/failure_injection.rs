//! Failure-path tests: bad programs, bad inputs, and runtime faults must
//! surface as errors (never panics), on both execution paths.

mod common;

use common::Engine;
use diablo_core::compile;
use diablo_dataflow::{Context, Dataset, JoinOn, RowExpr, Shape, DEFAULT_TILE_WIDTH};
use diablo_exec::Session;
use diablo_interp::Interpreter;
use diablo_lang::{parse, typecheck};
use diablo_runtime::{BinOp, RuntimeError, Value};

fn vec_rows(entries: &[(i64, i64)]) -> Vec<Value> {
    entries
        .iter()
        .map(|&(k, v)| Value::pair(Value::Long(k), Value::Long(v)))
        .collect()
}

#[test]
fn division_by_zero_is_an_error_on_both_paths() {
    let src = "input V: vector[long];
               var s: long = 0;
               for v in V do s += 100 / v;";
    let rows = vec_rows(&[(0, 4), (1, 0)]);

    let compiled = compile(src).unwrap();
    let mut session = Session::new(Context::new(2, 4));
    session.bind_input("V", rows.clone());
    let err = session.run(&compiled).unwrap_err();
    assert!(err.message.contains("zero"), "{err}");

    let tp = typecheck(parse(src).unwrap()).unwrap();
    let mut interp = Interpreter::new();
    interp.bind_collection("V", rows).unwrap();
    let err = interp.run(&tp).unwrap_err();
    assert!(err.message.contains("zero"), "{err}");
}

#[test]
fn malformed_collection_rows_are_rejected() {
    let src = "input V: vector[long];
               var s: long = 0;
               for v in V do s += v;";
    let compiled = compile(src).unwrap();
    let mut session = Session::new(Context::new(2, 4));
    // Rows must be (key, value) pairs; bare longs are not.
    session.bind_input("V", vec![Value::Long(5)]);
    assert!(session.run(&compiled).is_err());
}

#[test]
fn wrong_value_shapes_fail_cleanly() {
    // The program treats V as a vector of longs but the bound rows carry
    // strings; the engine must report an operator error, not panic.
    let src = "input V: vector[long];
               var s: long = 0;
               for v in V do s += v;";
    let compiled = compile(src).unwrap();
    let mut session = Session::new(Context::new(2, 4));
    session.bind_input(
        "V",
        vec![Value::pair(Value::Long(0), Value::str("not a number"))],
    );
    let err = session.run(&compiled).unwrap_err();
    assert!(err.message.contains("expects numbers"), "{err}");
}

#[test]
fn missing_scalar_input_is_reported_by_name() {
    let src = "input n: long;
               var x: long = 0;
               x := n + 1;";
    let compiled = compile(src).unwrap();
    let mut session = Session::new(Context::new(1, 1));
    let err = session.run(&compiled).unwrap_err();
    assert!(err.message.contains('n'), "{err}");
}

#[test]
fn non_boolean_while_condition_is_a_type_error() {
    let err = compile("var k: long = 0; while (k) k += 1;").unwrap_err();
    assert!(err.message.contains("bool"), "{err}");
}

#[test]
fn runtime_faults_propagate_from_worker_threads() {
    // The fault happens deep inside a shuffle stage on some partition; the
    // driver still receives a proper error.
    let src = "input K: vector[long];
               input V: vector[long];
               var C: vector[long] = vector();
               for i = 0, 9 do C[K[i]] += 100 / V[i];";
    let compiled = compile(src).unwrap();
    let mut session = Session::new(Context::new(4, 8));
    session.bind_input("K", vec_rows(&[(0, 1), (1, 2), (2, 3)]));
    session.bind_input("V", vec_rows(&[(0, 10), (1, 0), (2, 5)]));
    let err = session.run(&compiled).unwrap_err();
    assert!(err.message.contains("zero"), "{err}");
}

#[test]
fn interpreter_detects_collection_used_as_scalar() {
    let tp = typecheck(
        parse(
            "input V: vector[long];
             var s: long = 0;
             for v in V do s += v;",
        )
        .unwrap(),
    )
    .unwrap();
    let mut interp = Interpreter::new();
    // Bind V as a *scalar* — shape confusion must be caught.
    interp.bind_scalar("V", Value::Long(3));
    assert!(interp.run(&tp).is_err());
}

#[test]
fn empty_inputs_produce_empty_or_unchanged_outputs() {
    let src = "input V: vector[long];
               var C: vector[long] = vector();
               var s: long = 42;
               for v in V do { C[v] += 1; s += v; };";
    let compiled = compile(src).unwrap();
    let mut session = Session::new(Context::new(2, 4));
    session.bind_input("V", Vec::new());
    session.run(&compiled).unwrap();
    assert_eq!(session.collect("C").unwrap(), Vec::<Value>::new());
    // No iterations → the scalar keeps its initial value.
    assert_eq!(session.scalar("s"), Some(Value::Long(42)));
}

#[test]
fn empty_range_loops_are_no_ops() {
    let src = "var V: vector[long] = vector();
               var s: long = 7;
               for i = 5, 4 do { V[i] := 1; s += 1; };";
    let compiled = compile(src).unwrap();
    let mut session = Session::new(Context::new(2, 4));
    session.run(&compiled).unwrap();
    assert_eq!(session.collect("V").unwrap(), Vec::<Value>::new());
    assert_eq!(session.scalar("s"), Some(Value::Long(7)));
}

#[test]
fn while_loop_that_never_runs() {
    let src = "var k: long = 10;
               var body_ran: long = 0;
               while (k < 5) { k += 1; body_ran += 1; };";
    let compiled = compile(src).unwrap();
    let mut session = Session::new(Context::new(1, 1));
    session.run(&compiled).unwrap();
    assert_eq!(session.scalar("body_ran"), Some(Value::Long(0)));
}

/// Both layouts, unbounded and with a zero exchange budget so every
/// exchanged chunk goes through disk runs; the columnar layout with tiny
/// tiles so the opaque closures here exercise its per-stage row fallback.
fn keyed_failure_engines() -> Vec<Engine> {
    vec![
        Engine::ROW,
        Engine::ROW.budget(Some(0)),
        Engine::COLUMNAR.tile(4),
        Engine::COLUMNAR.tile(16).budget(Some(0)),
    ]
}

/// Runs `run` under every engine of [`keyed_failure_engines`]: each must
/// surface the row layout's first error, word for word, and that error
/// must say every one of `want` (its message and statement tag).
fn assert_first_error_everywhere(what: &str, want: &[&str], run: impl Fn(Engine) -> RuntimeError) {
    let reference = run(Engine::ROW);
    for w in want {
        assert!(reference.message.contains(w), "{what}: {reference}");
    }
    for engine in keyed_failure_engines() {
        assert_eq!(
            run(engine).message,
            reference.message,
            "{what}: `{engine}` changed the first error"
        );
    }
}

#[test]
fn keyed_scatter_surfaces_a_failing_chains_first_error_everywhere() {
    // A UDF that fails inside the fused chain feeding the keyed operator
    // (its scatter stage) surfaces the same first error — message and
    // statement tag — in every configuration.
    assert_first_error_everywhere(
        "reduce_by_key",
        &["boom mid-scatter", "s4: C := poisoned map"],
        |engine| {
            let ctx = engine.context(3, 6);
            ctx.set_statement_label(Some("s4: C := poisoned map"));
            let d = ctx
                .from_vec((0..300).map(Value::Long).collect())
                .map(|v| {
                    if v.as_long() == Some(137) {
                        Err(RuntimeError::new("boom mid-scatter"))
                    } else {
                        Ok(Value::pair(v.clone(), Value::Long(1)))
                    }
                })
                .unwrap();
            ctx.set_statement_label(None);
            d.reduce_by_key(|a, b| BinOp::Add.apply(a, b)).unwrap_err()
        },
    );
}

#[test]
fn keyed_reduce_surfaces_a_failing_combiners_error_everywhere() {
    // A combiner that fails during the post-shuffle reduction. The
    // poisoned key appears once per source partition, so the map-side
    // combine never touches it — the failure happens only while reducing
    // the shuffled bucket — and every configuration reports the same
    // tagged error.
    assert_first_error_everywhere(
        "reduce_by_key",
        &["boom mid-reduce", "s9: C := poisoned combine"],
        |engine| {
            let ctx = engine.context(3, 6);
            // 60 rows chunk into 6 partitions of 10; key 5 sits at one
            // index per partition (i % 10 == 0 → key 5).
            let rows: Vec<Value> = (0..60)
                .map(|i| {
                    if i % 10 == 0 {
                        Value::pair(Value::Long(5), Value::Long(-1))
                    } else {
                        Value::pair(Value::Long(i % 7 + 100), Value::Long(i))
                    }
                })
                .collect();
            ctx.set_statement_label(Some("s9: C := poisoned combine"));
            let d = ctx.from_vec(rows);
            let combiner = |a: &Value, b: &Value| {
                if a.as_long() == Some(-1) || b.as_long() == Some(-1) {
                    Err(RuntimeError::new("boom mid-reduce"))
                } else {
                    BinOp::Add.apply(a, b)
                }
            };
            let keyed = d.reduce_by_key(combiner).unwrap();
            ctx.set_statement_label(None);
            keyed.try_collect().unwrap_err()
        },
    );
}

#[test]
fn keyed_scatter_rejects_non_pair_rows_everywhere() {
    assert_first_error_everywhere("group_by_key", &["pair"], |engine| {
        let ctx = engine.context(2, 4);
        let d = ctx.from_vec(vec![
            Value::pair(Value::Long(1), Value::Long(10)),
            Value::Long(99), // not a (key, value) pair
        ]);
        d.group_by_key().unwrap_err()
    });
}

#[test]
fn two_sided_operators_surface_the_left_sides_first_error_everywhere() {
    // A poisoned row in the left chain, in the right chain, and in both:
    // each side's chain runs in its own scatter stage, the left side
    // first, so `merge` and `join_on` report the first error and statement
    // tag of the side that fails — the left one when both fail.
    type Op = fn(&Dataset, &Dataset) -> Result<Dataset, RuntimeError>;
    let ops: [(&str, Op); 2] = [
        ("merge", |l: &Dataset, r: &Dataset| {
            l.merge(r, Some(|a: &Value, b: &Value| BinOp::Add.apply(a, b)))
        }),
        ("join_on", |l: &Dataset, r: &Dataset| {
            let on = JoinOn {
                left_key: RowExpr::Col(0),
                right: Shape::Tuple(vec![Shape::Bind, Shape::Bind]),
                right_key: RowExpr::Col(0),
                mismatch: "join pattern (k, v) does not match row".into(),
            };
            l.join_on(r, on)
        }),
    ];
    const LEFT: &str = "boom in the left chain";
    const RIGHT: &str = "boom in the right chain";
    // Rows `(i % 17, i)` built under `tag`, failing with `what` at row
    // `poison`.
    let side = |ctx: &Context, n: i64, tag: &str, poison: Option<i64>, what: &'static str| {
        ctx.set_statement_label(Some(tag));
        let d = ctx
            .from_vec((0..n).map(Value::Long).collect())
            .map(move |v| match v.as_long() {
                Some(i) if Some(i) == poison => Err(RuntimeError::new(what)),
                Some(i) => Ok(Value::pair(Value::Long(i % 17), v.clone())),
                None => Err(RuntimeError::new("not a long")),
            })
            .unwrap();
        ctx.set_statement_label(None);
        d
    };
    let cases = [
        ("left", Some(61), None, LEFT, "s5: L := poisoned left"),
        ("right", None, Some(43), RIGHT, "s6: R := poisoned right"),
        ("both", Some(61), Some(43), LEFT, "s5: L := poisoned left"),
    ];
    for (name, op) in ops {
        for (case, left_poison, right_poison, want, tag) in cases {
            let what = format!("{name}, poisoned {case}");
            assert_first_error_everywhere(&what, &[want, tag], |engine| {
                let ctx = engine.context(3, 6);
                let l = side(&ctx, 120, "s5: L := poisoned left", left_poison, LEFT);
                let r = side(&ctx, 90, "s6: R := poisoned right", right_poison, RIGHT);
                match op(&l, &r) {
                    Err(e) => e,
                    Ok(d) => d.try_collect().unwrap_err(),
                }
            });
        }
    }
}

#[test]
fn columnar_mid_batch_failures_match_the_row_path_byte_for_byte() {
    // A fully transparent (vectorizable) fused chain whose 137th row
    // divides by zero. In the columnar layout the failure strikes in the
    // middle of a 64-row tile; the tile is replayed tuple-at-a-time, so the
    // surfaced first error — message and statement tag — must be
    // byte-identical to the row layout's, under every exchange budget.
    let expr = || {
        RowExpr::Tuple(vec![
            RowExpr::Bin(
                BinOp::Mod,
                Box::new(RowExpr::Input),
                Box::new(RowExpr::Const(Value::Long(7))),
            ),
            RowExpr::Bin(
                BinOp::Div,
                Box::new(RowExpr::Const(Value::Long(1000))),
                Box::new(RowExpr::Bin(
                    BinOp::Sub,
                    Box::new(RowExpr::Input),
                    Box::new(RowExpr::Const(Value::Long(137))),
                )),
            ),
        ])
    };
    for budget in [None, Some(4096), Some(0)] {
        let run = |engine: Engine| -> RuntimeError {
            let ctx = engine.budget(budget).context(3, 6);
            ctx.set_statement_label(Some("s3: C := 1000 / (V[i] - 137)"));
            let d = ctx
                .from_vec((0..300).map(Value::Long).collect())
                .map_expr(expr())
                .unwrap();
            ctx.set_statement_label(None);
            match d.reduce_by_key(|a, b| BinOp::Add.apply(a, b)) {
                Err(e) => e,
                Ok(k) => k.try_collect().unwrap_err(),
            }
        };
        let row_path = run(Engine::ROW);
        let columnar = run(Engine::COLUMNAR.tile(64));
        assert_eq!(
            columnar.message, row_path.message,
            "budget {budget:?}: columnar changed the first error"
        );
        assert!(columnar.message.contains("zero"), "{columnar}");
        assert!(
            columnar.message.contains("s3: C := 1000 / (V[i] - 137)"),
            "budget {budget:?}: statement tag lost mid-batch: {columnar}"
        );
    }
}

#[test]
fn poisoned_total_aggregation_fails_like_the_row_reference() {
    // `q += 1000 / (n - 137)`: the aggregated expression divides by zero
    // on the 137th row, mid-tile at every batch width but 1. The default
    // engine folds columns and replays the failing tile, and must raise
    // what the `local` row reference raises — message and statement tag
    // — at every batch width and pool width, leaving `q` unassigned.
    let compiled = compile(
        "input N: vector[long];
         var q: long = 7;
         for n in N do q += 1000 / (n - 137);",
    )
    .unwrap();
    let run = |engine: Engine, workers: usize| -> (RuntimeError, Option<Value>) {
        let mut s = Session::new(engine.context(workers, 5));
        s.bind_input("N", vec_rows(&(0..300).map(|i| (i, i)).collect::<Vec<_>>()));
        let err = s.run(&compiled).unwrap_err();
        (err, s.scalar("q"))
    };
    let (reference, q) = run(Engine::ROW, 1);
    assert!(
        reference.message.contains("division by zero"),
        "{reference}"
    );
    assert!(reference.message.contains("s1:q"), "{reference}");
    assert_eq!(q, Some(Value::Long(7)));
    for workers in [1, 2, 4] {
        for batch in [1, 7, DEFAULT_TILE_WIDTH] {
            let (err, q_after) = run(Engine::COLUMNAR.tile(batch), workers);
            assert_eq!(
                err.message, reference.message,
                "batch {batch}, {workers} workers"
            );
            assert_eq!(q_after, q);
        }
    }
}

#[test]
fn a_failing_fold_wins_over_a_later_failing_step() {
    // Row 1 cannot be `&&`-ed (the rows are longs), row 15 divides by
    // zero. Tuple-at-a-time execution folds row 1 before it ever maps row
    // 15, so the fold's error is the canonical first one — also when a
    // whole tile's steps ran (and failed) before any of it was folded.
    let and = diablo_runtime::AggOp::new(BinOp::And).unwrap();
    let run = |engine: Engine| -> RuntimeError {
        let ctx = engine.context(2, 1);
        ctx.set_statement_label(Some("s2: ok := &&/ 1000 / (V[i] - 15)"));
        let d = ctx
            .from_vec((0..40).map(Value::Long).collect())
            .map_expr(RowExpr::Bin(
                BinOp::Div,
                Box::new(RowExpr::Const(Value::Long(1000))),
                Box::new(RowExpr::Bin(
                    BinOp::Sub,
                    Box::new(RowExpr::Input),
                    Box::new(RowExpr::Const(Value::Long(15))),
                )),
            ))
            .unwrap();
        ctx.set_statement_label(None);
        d.aggregate(and).unwrap_err()
    };
    let reference = run(Engine::ROW);
    assert!(
        reference.message.contains("expects booleans"),
        "{reference}"
    );
    for batch in [1, 4, 64] {
        let got = run(Engine::COLUMNAR.tile(batch));
        assert_eq!(got.message, reference.message, "batch {batch}");
    }
}

#[test]
fn poisoned_keyed_aggregation_fails_like_the_row_reference() {
    // `C[n % 7] += 1000 / (n - 137)`: the keyed value divides by zero on
    // the 137th row, mid-tile at every batch width but 1. The default
    // engine keys and folds columns and replays the failing tile into the
    // same per-key accumulators, and must raise what the `local` row
    // reference raises — message and statement tag — under every exchange
    // budget, batch width and pool width.
    let compiled = compile(
        "input N: vector[long];
         var C: vector[long] = vector();
         for n in N do C[n % 7] += 1000 / (n - 137);",
    )
    .unwrap();
    for budget in [None, Some(4096), Some(0)] {
        let run = |engine: Engine, workers: usize| -> RuntimeError {
            let ctx = engine.budget(budget).context(workers, 5);
            let mut s = Session::new(ctx);
            s.bind_input("N", vec_rows(&(0..300).map(|i| (i, i)).collect::<Vec<_>>()));
            s.run(&compiled).unwrap_err()
        };
        let reference = run(Engine::ROW, 1);
        assert!(
            reference.message.contains("division by zero"),
            "{reference}"
        );
        assert!(reference.message.contains("s1:C"), "{reference}");
        for workers in [1, 2, 4] {
            for batch in [1, 7, DEFAULT_TILE_WIDTH] {
                let err = run(Engine::COLUMNAR.tile(batch), workers);
                assert_eq!(
                    err.message, reference.message,
                    "budget {budget:?}, batch {batch}, {workers} workers"
                );
            }
        }
    }
}

#[test]
fn a_combine_that_fails_mid_tile_fails_like_the_row_reference() {
    // Two sums per key, one partition. Row 140 offers the first a string
    // where every other row has a long, row 137 offers the second a string
    // among doubles, and row 250's key divides by zero. Tuple-at-a-time
    // execution folds row 137 before it ever sees rows 140 and 250, so
    // `+` over a double and a string is the canonical first error — also
    // when a whole tile's steps ran (and failed) before any of it was
    // folded (batch 4096), and when rows 137 and 140 share a tile whose
    // first lane comes first (batch 64).
    let rows: Vec<Value> = (0..300i64)
        .map(|i| {
            Value::tuple(vec![
                Value::Long(i),
                if i == 140 {
                    Value::str("one forty")
                } else {
                    Value::Long(i)
                },
                if i == 137 {
                    Value::str("one three seven")
                } else {
                    Value::Double(i as f64)
                },
            ])
        })
        .collect();
    let keyed = || {
        let key = RowExpr::Bin(
            BinOp::Mod,
            Box::new(RowExpr::Col(0)),
            Box::new(RowExpr::Bin(
                BinOp::Sub,
                Box::new(RowExpr::Col(0)),
                Box::new(RowExpr::Const(Value::Long(250))),
            )),
        );
        RowExpr::Tuple(vec![
            key,
            RowExpr::Tuple(vec![RowExpr::Col(1), RowExpr::Col(2)]),
        ])
    };
    let add = diablo_runtime::AggOp::new(BinOp::Add).unwrap();
    for budget in [None, Some(4096), Some(0)] {
        let run = |engine: Engine, workers: usize| -> RuntimeError {
            let ctx = engine.budget(budget).context(workers, 1);
            ctx.set_statement_label(Some("s4: C[k] += (a, b)"));
            let d = ctx.from_vec(rows.clone()).map_expr(keyed()).unwrap();
            ctx.set_statement_label(None);
            match d.aggregate_by_key(vec![add, add]) {
                Err(e) => e,
                Ok(k) => k.try_collect().unwrap_err(),
            }
        };
        let reference = run(Engine::ROW, 1);
        assert!(
            reference
                .message
                .contains("expects numbers, got double and string"),
            "{reference}"
        );
        for workers in [1, 2, 4] {
            for batch in [1, 7, 64, DEFAULT_TILE_WIDTH] {
                let got = run(Engine::COLUMNAR.tile(batch), workers);
                assert_eq!(
                    got.message, reference.message,
                    "budget {budget:?}, batch {batch}, {workers} workers"
                );
            }
        }
    }
}

#[test]
fn poisoned_joins_fail_like_the_row_reference() {
    // Left rows `(i, i²)`, right rows `(j, "r<j>")`, joined on `i == j`.
    // One case at a time: the left key divides by zero on row 137, the
    // right key does, right row 211 is no pair (and 250 is none either),
    // and all three at once — the left scatter runs first, so its error
    // wins. Each fault sits mid-tile at every batch width but 1, and a
    // later right row means tiles before it were already scattered. The
    // default engine computes the keys as columns and replays the failing
    // tile; it must raise what `local` raises, statement tag included,
    // under every exchange budget.
    // Past the build–probe: a step over the matches divides by zero on
    // the match of row 137 — mid-tile, so the tile gathered from the match
    // list is replayed match by match — and left row 150, a record whose
    // `_1` field still keys it, is no tuple to extend with the right row.
    let div_by = |e: RowExpr| {
        RowExpr::Bin(
            BinOp::Div,
            Box::new(RowExpr::Const(Value::Long(0))),
            Box::new(RowExpr::Bin(
                BinOp::Sub,
                Box::new(e),
                Box::new(RowExpr::Const(Value::Long(137))),
            )),
        )
    };
    let poisoned = |col: usize| {
        RowExpr::Bin(
            BinOp::Add,
            Box::new(RowExpr::Col(col)),
            Box::new(div_by(RowExpr::Col(col))),
        )
    };
    let left_rows: Vec<Value> = (0..300i64)
        .map(|i| Value::pair(Value::Long(i), Value::Long(i * i)))
        .collect();
    let mut record_row = left_rows.clone();
    record_row[150] = Value::record(vec![
        ("_1".into(), Value::Long(150)),
        ("_2".into(), Value::Long(150 * 150)),
    ]);
    let right_rows: Vec<Value> = (0..300i64)
        .map(|j| Value::pair(Value::Long(j), Value::str(format!("r{j}"))))
        .collect();
    let mut bad_rows = right_rows.clone();
    bad_rows[211] = Value::Long(211);
    bad_rows[250] = Value::Unit;
    let mismatch = "join pattern (j, r) does not match row";
    let first = || RowExpr::field(RowExpr::Input, "_1");
    type Case<'a> = (
        &'a str,
        &'a Vec<Value>,
        RowExpr,
        RowExpr,
        &'a Vec<Value>,
        Option<RowExpr>,
        &'a str,
    );
    let cases: Vec<Case> = vec![
        (
            "left key",
            &left_rows,
            poisoned(0),
            RowExpr::Col(0),
            &right_rows,
            None,
            "division by zero",
        ),
        (
            "right key",
            &left_rows,
            RowExpr::Col(0),
            poisoned(0),
            &right_rows,
            None,
            "division by zero",
        ),
        (
            "right pattern",
            &left_rows,
            RowExpr::Col(0),
            RowExpr::Col(0),
            &bad_rows,
            None,
            "join pattern (j, r) does not match row 211",
        ),
        (
            "everything",
            &left_rows,
            poisoned(0),
            poisoned(0),
            &bad_rows,
            None,
            "division by zero",
        ),
        (
            "a step over the matches",
            &left_rows,
            RowExpr::Col(0),
            RowExpr::Col(0),
            &right_rows,
            Some(div_by(RowExpr::Col(2))),
            "division by zero",
        ),
        (
            "a left row that is no tuple",
            &record_row,
            first(),
            RowExpr::Col(0),
            &right_rows,
            Some(div_by(RowExpr::Col(0))),
            "expected a tuple row to extend, got <|_1 = 150, _2 = 22500|>",
        ),
    ];
    for (case, left, left_key, right_key, right, step, expect) in cases {
        for budget in [None, Some(4096), Some(0)] {
            let run = |engine: Engine, workers: usize| -> RuntimeError {
                let ctx = engine.budget(budget).context(workers, 5);
                let (l, r) = (ctx.from_vec(left.clone()), ctx.from_vec(right.clone()));
                ctx.set_statement_label(Some("s3:W"));
                let on = JoinOn {
                    left_key: left_key.clone(),
                    right: Shape::Tuple(vec![Shape::Bind, Shape::Bind]),
                    right_key: right_key.clone(),
                    mismatch: mismatch.into(),
                };
                let joined = l.join_on(&r, on).and_then(|d| match &step {
                    Some(e) => d.map_expr(e.clone()),
                    None => Ok(d),
                });
                ctx.set_statement_label(None);
                match joined {
                    Err(e) => e,
                    Ok(d) => d.try_collect().unwrap_err(),
                }
            };
            let reference = run(Engine::ROW, 1);
            assert!(reference.message.contains(expect), "{case}: {reference}");
            assert!(reference.message.contains("[s3:W]"), "{case}: {reference}");
            for workers in [1, 2, 4] {
                for batch in [1, 7, 64, DEFAULT_TILE_WIDTH] {
                    let got = run(Engine::COLUMNAR.tile(batch), workers);
                    assert_eq!(
                        got.message, reference.message,
                        "{case}: budget {budget:?}, batch {batch}, \
                         {workers} workers"
                    );
                }
            }
        }
    }
}

#[test]
fn a_poisoned_join_or_cross_in_a_program_fails_like_the_row_reference() {
    // `B[1000 / (i - 137)]`: the subscript becomes the join key, and
    // dividing by zero on the 137th row fails the left scatter mid-tile.
    // In the second program a centroid row is no `(index, value)` pair,
    // which the first point to reach the cross reports.
    let join = compile(
        "input A: vector[long];
         input B: vector[long];
         var W: vector[long] = vector();
         for i = 0, 299 do W[i] := A[i] + B[1000 / (i - 137)];",
    )
    .unwrap();
    let cross = compile(
        "input P: vector[long];
         input C: vector[long];
         var D: vector[long] = vector();
         for i = 0, 299 do
             for j = 0, 3 do
                 D[i] += P[i] * C[j];",
    )
    .unwrap();
    let longs = |n: i64| vec_rows(&(0..n).map(|i| (i, i)).collect::<Vec<_>>());
    let mut centroids = longs(4);
    centroids[2] = Value::Long(2);
    let cases = [
        (&join, "A", "B", longs(300), "division by zero", "s1:W"),
        (&cross, "P", "C", centroids, "does not match row 2", "s1:D"),
    ];
    for (compiled, left, right, right_rows, expect, tag) in cases {
        for budget in [None, Some(4096), Some(0)] {
            let run = |engine: Engine, workers: usize| -> RuntimeError {
                let mut s = Session::new(engine.budget(budget).context(workers, 5));
                s.bind_input(left, longs(300));
                s.bind_input(right, right_rows.clone());
                s.run(compiled).unwrap_err()
            };
            let reference = run(Engine::ROW, 1);
            assert!(reference.message.contains(expect), "{reference}");
            assert!(reference.message.contains(tag), "{reference}");
            for workers in [1, 2, 4] {
                for batch in [1, 7, DEFAULT_TILE_WIDTH] {
                    let err = run(Engine::COLUMNAR.tile(batch), workers);
                    assert_eq!(
                        err.message, reference.message,
                        "budget {budget:?}, batch {batch}, {workers} workers"
                    );
                }
            }
        }
    }
}

#[test]
fn deep_nesting_is_handled() {
    // Four nested range loops, all eliminated into one bulk statement.
    let src = "var T: matrix[long] = matrix();
               for a = 0, 2 do
                 for b = 0, 2 do
                   for c = 0, 2 do
                     for d = 0, 2 do
                       T[a, b] += 1;";
    let compiled = compile(src).unwrap();
    let mut session = Session::new(Context::new(2, 4));
    session.run(&compiled).unwrap();
    let rows = session.collect("T").unwrap();
    assert_eq!(rows.len(), 9);
    for row in rows {
        let (_, v) = diablo_runtime::array::key_value(&row).unwrap();
        assert_eq!(v, Value::Long(9), "each (a, b) gets 3×3 increments");
    }
}
