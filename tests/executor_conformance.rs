//! Plan-walker conformance: every engine configuration must be
//! plan-faithful — same rows, same order, same shuffle counts, same first
//! error for deterministic chains — so the whole suite runs over the
//! walker's knobs (layout × tile width × exchange budget, and workers
//! where a test sweeps them) and compares every
//! configuration against the row layout.

mod common;

use std::sync::Arc;

use common::Engine;
use diablo_dataflow::{Context, Dataset, JoinOn, Layout, RowExpr, Shape, DEFAULT_TILE_WIDTH};
use diablo_runtime::{array::key_value, AggOp, BinOp, RuntimeError, Value};

/// The configurations under test. The columnar layout runs with tiny
/// tiles so partition sizes exercise partial and multi-tile paths (opaque
/// closures here exercise its per-stage row fallback, transparent
/// expressions its vectorized path), and at the default width; each
/// layout runs once with a zero exchange budget, so every exchanged
/// bucket goes through disk runs, and the columnar default once more
/// under a 4 KiB budget. Each runs whatever `DIABLO_MEMORY_BUDGET` the
/// suite is under: conformance must hold for the in-memory and the
/// spilled exchange alike.
fn engines() -> Vec<Engine> {
    vec![
        Engine::ROW,
        Engine::ROW.budget(Some(0)),
        Engine::COLUMNAR.tile(4),
        Engine::COLUMNAR.tile(16).budget(Some(0)),
        Engine::COLUMNAR,
        Engine::COLUMNAR.budget(Some(4096)),
    ]
}

fn ctx_for(engine: Engine) -> Context {
    engine.context(3, 5)
}

fn long_pairs(ctx: &Context, entries: &[(i64, i64)]) -> Dataset {
    ctx.from_vec(
        entries
            .iter()
            .map(|&(k, v)| Value::pair(Value::Long(k), Value::Long(v)))
            .collect(),
    )
}

/// A representative pipeline: narrow chain → keyed aggregation → map.
fn pipeline(ctx: &Context) -> Vec<Value> {
    let d = ctx.range(0, 199).unwrap();
    d.map(|v| BinOp::Mul.apply(v, &Value::Long(3)))
        .unwrap()
        .filter(|v| Ok(v.as_long().unwrap() % 2 == 0))
        .unwrap()
        .flat_map(|v| Ok(vec![v.clone(), v.clone()]))
        .unwrap()
        .map(|v| {
            Ok(Value::pair(
                Value::Long(v.as_long().unwrap() % 7),
                v.clone(),
            ))
        })
        .unwrap()
        .reduce_by_key(|a, b| BinOp::Add.apply(a, b))
        .unwrap()
        .map(|row| {
            let (k, v) = key_value(row)?;
            Ok(Value::pair(v, k))
        })
        .unwrap()
        .collect()
}

#[test]
fn backends_agree_on_a_full_pipeline() {
    let reference = pipeline(&ctx_for(Engine::ROW));
    assert!(!reference.is_empty());
    for engine in engines() {
        let got = pipeline(&ctx_for(engine));
        assert_eq!(got, reference, "`{engine}` diverged");
    }
}

#[test]
fn backends_agree_on_narrow_chain_order_and_stage_count() {
    let mut outputs: Vec<(String, Vec<Value>)> = Vec::new();
    for engine in engines() {
        let name = engine.to_string();
        let ctx = ctx_for(engine);
        let d = ctx.from_vec((0..137).map(Value::Long).collect());
        let chained = d
            .map(|v| BinOp::Add.apply(v, &Value::Long(10)))
            .unwrap()
            .filter(|v| Ok(v.as_long().unwrap() % 3 != 0))
            .unwrap()
            .flat_map(|v| {
                let x = v.as_long().unwrap();
                Ok(vec![Value::Long(x), Value::Long(-x)])
            })
            .unwrap();
        let before = ctx.stats().snapshot();
        let rows = chained.collect();
        let after = ctx.stats().snapshot().since(&before);
        assert_eq!(
            after.physical_stages, 1,
            "`{name}` must fuse the chain into one stage"
        );
        outputs.push((name, rows));
    }
    for (name, rows) in &outputs[1..] {
        assert_eq!(rows, &outputs[0].1, "`{name}` changed row order");
    }
}

#[test]
fn backends_agree_on_shuffle_volume() {
    let mut volumes = Vec::new();
    for engine in engines() {
        let name = engine.to_string();
        let ctx = ctx_for(engine);
        let entries: Vec<(i64, i64)> = (0..600).map(|i| (i % 13, i)).collect();
        let d = long_pairs(&ctx, &entries);
        let before = ctx.stats().snapshot();
        let r = d.reduce_by_key(|a, b| BinOp::Add.apply(a, b)).unwrap();
        let _ = r.collect();
        let after = ctx.stats().snapshot().since(&before);
        volumes.push((name, after.shuffles, after.shuffled_records));
    }
    for (name, shuffles, records) in &volumes[1..] {
        assert_eq!(
            (shuffles, records),
            (&volumes[0].1, &volumes[0].2),
            "`{name}` moved a different number of rows"
        );
    }
}

type BackendRows = (String, Vec<Value>, Vec<Value>, Vec<Value>);

#[test]
fn backends_agree_on_union_merge_and_join() {
    let mut outputs: Vec<BackendRows> = Vec::new();
    for engine in engines() {
        let name = engine.to_string();
        let ctx = ctx_for(engine);
        let a = long_pairs(&ctx, &[(1, 1), (2, 2), (3, 3), (4, 4)]);
        let b = long_pairs(&ctx, &[(2, 20), (3, 30), (5, 50)]);
        // The array union `a ⊳ b`: colliding keys take the update.
        let union_rows = a
            .merge(
                &b,
                None::<fn(&Value, &Value) -> Result<Value, RuntimeError>>,
            )
            .unwrap()
            .try_collect()
            .unwrap();
        let merged = a
            .merge(&b, Some(|x: &Value, y: &Value| BinOp::Add.apply(x, y)))
            .unwrap()
            .collect_sorted();
        let joined = a.join(&b).unwrap().collect_sorted();
        outputs.push((name, union_rows, merged, joined));
    }
    for (name, u, m, j) in &outputs[1..] {
        assert_eq!(u, &outputs[0].1, "`{name}` union diverged");
        assert_eq!(m, &outputs[0].2, "`{name}` merge diverged");
        assert_eq!(j, &outputs[0].3, "`{name}` join diverged");
    }
}

#[test]
fn backends_surface_the_same_first_error() {
    // Row 2 fails in the second step; row 7 fails in the first step.
    // Tuple-at-a-time order reaches row 2's second-step error first, and
    // the columnar layout must replay its tile to the same error.
    let mut messages = Vec::new();
    for engine in engines() {
        let name = engine.to_string();
        let ctx = ctx_for(engine);
        let d = ctx.from_vec((0..10).map(Value::Long).collect());
        let err = d
            .map(|v| {
                if v.as_long() == Some(7) {
                    Err(RuntimeError::new("first-step error"))
                } else {
                    Ok(v.clone())
                }
            })
            .unwrap()
            .map(|v| {
                if v.as_long() == Some(2) {
                    Err(RuntimeError::new("second-step error"))
                } else {
                    Ok(v.clone())
                }
            })
            .unwrap()
            .try_collect()
            .unwrap_err();
        messages.push((name, err.message));
    }
    for (name, msg) in &messages {
        assert_eq!(
            msg, "second-step error",
            "`{name}` surfaced the wrong first error"
        );
    }
}

#[test]
fn backends_surface_the_same_first_error_from_the_consumer_sink() {
    // The first error in canonical row order can come from the CONSUMER
    // (here the shuffle's key check on row 0), not from a step (row 1's
    // map error). The columnar layout's tile replay must reproduce the
    // sink's error, not short-circuit on the step's.
    let mut messages = Vec::new();
    for engine in engines() {
        let name = engine.to_string();
        // One partition, so both rows share a tile and the tile replay
        // path is what decides which error surfaces.
        let ctx = engine.context(2, 1);
        let d = ctx.from_vec(vec![Value::Long(0), Value::Long(1)]);
        let err = d
            .map(|v| match v.as_long() {
                // Row 0 becomes a non-pair value: the scatter rejects it.
                Some(0) => Ok(Value::Long(99)),
                // Row 1 fails inside the step itself.
                Some(1) => Err(RuntimeError::new("step error on row 1")),
                _ => Ok(v.clone()),
            })
            .unwrap()
            .group_by_key()
            .unwrap_err();
        messages.push((name, err.message));
    }
    for (name, msg) in &messages[1..] {
        assert_eq!(
            msg, &messages[0].1,
            "`{name}` surfaced a different first error"
        );
    }
    assert!(
        messages[0].1.contains("pair"),
        "row 0's sink error comes first in tuple order: {}",
        messages[0].1
    );
}

#[test]
fn backends_agree_under_reduce_and_group() {
    for engine in engines() {
        let name = engine.to_string();
        let ctx = ctx_for(engine);
        let d = ctx.range(1, 500).unwrap();
        let sum = d.reduce(|a, b| BinOp::Add.apply(a, b)).unwrap().unwrap();
        assert_eq!(sum, Value::Long(125250), "`{name}`");
        let entries: Vec<(i64, i64)> = (0..100).map(|i| (i % 4, i)).collect();
        let g = long_pairs(&ctx, &entries).group_by_key().unwrap();
        let rows = g.collect_sorted();
        assert_eq!(rows.len(), 4, "`{name}`");
        for row in rows {
            let (_, bag) = key_value(&row).unwrap();
            assert_eq!(bag.as_bag().unwrap().len(), 25, "`{name}`");
        }
    }
}

#[test]
fn introspection_is_stable() {
    assert_eq!(Layout::NAMES, ["columnar", "local"]);
    assert_eq!(Layout::named("local"), Some(Layout::Row));
    assert_eq!(Layout::Row.name(), "local");
    assert_eq!(Layout::named("columnar"), Some(Layout::Columnar));
    assert_eq!(Layout::Columnar.name(), "columnar");
    for gone in ["tile", "spill", "morsel", "flink"] {
        assert!(Layout::named(gone).is_none(), "{gone}");
    }
    let ctx = Context::new(1, 1);
    assert_eq!(ctx.tile_width(), DEFAULT_TILE_WIDTH);
    assert_eq!(ctx.stats_snapshot().backend, ctx.layout().name());
    assert_eq!(ctx.stats_snapshot().scheduler, "morsel");
}

/// A transparent chain (built via `map_expr` / `filter_expr`) must return
/// the same rows in the same order in every configuration — and actually
/// engage the columnar driver's vectorized path, with no row fallback, in
/// the columnar layout.
#[test]
fn backends_agree_on_a_transparent_expression_chain() {
    fn chain(ctx: &Context) -> Vec<Value> {
        let d = ctx.range(0, 499).unwrap();
        d.map_expr(RowExpr::Bin(
            BinOp::Mul,
            Box::new(RowExpr::Input),
            Box::new(RowExpr::Const(Value::Long(3))),
        ))
        .unwrap()
        .filter_expr(RowExpr::Bin(
            BinOp::Lt,
            Box::new(RowExpr::Bin(
                BinOp::Mod,
                Box::new(RowExpr::Input),
                Box::new(RowExpr::Const(Value::Long(7))),
            )),
            Box::new(RowExpr::Const(Value::Long(4))),
        ))
        .unwrap()
        .map_expr(RowExpr::Tuple(vec![
            RowExpr::Input,
            RowExpr::Bin(
                BinOp::Add,
                Box::new(RowExpr::Input),
                Box::new(RowExpr::Const(Value::Long(1))),
            ),
        ]))
        .unwrap()
        .collect()
    }
    let reference = chain(&ctx_for(Engine::ROW));
    assert!(!reference.is_empty());
    for engine in engines() {
        let ctx = ctx_for(engine);
        let before = ctx.stats().snapshot();
        let got = chain(&ctx);
        let after = ctx.stats().snapshot().since(&before);
        assert_eq!(got, reference, "`{engine}` diverged");
        if engine.columnar() {
            assert!(
                after.vectorized_batches > 0,
                "`{engine}` must vectorize a fully transparent chain"
            );
            assert_eq!(after.row_fallback_stages, 0, "no fallback expected");
        }
    }
}

/// An opaque closure in an otherwise transparent chain demotes the stage
/// to the row path — counted, and still row- and error-identical.
#[test]
fn columnar_falls_back_per_stage_on_opaque_steps() {
    let reference = {
        let ctx = ctx_for(Engine::ROW);
        let d = ctx.from_vec((0..200).map(Value::Long).collect());
        d.map(|v| BinOp::Add.apply(v, &Value::Long(5)))
            .unwrap()
            .collect()
    };
    let ctx = ctx_for(Engine::COLUMNAR.tile(32));
    let d = ctx.from_vec((0..200).map(Value::Long).collect());
    let before = ctx.stats().snapshot();
    let got = d
        .map(|v| BinOp::Add.apply(v, &Value::Long(5)))
        .unwrap()
        .collect();
    let after = ctx.stats().snapshot().since(&before);
    assert_eq!(got, reference);
    assert!(
        after.row_fallback_stages > 0,
        "opaque closure must be counted as a row fallback: {after:?}"
    );
    assert_eq!(after.vectorized_batches, 0, "{after:?}");
}

/// `Dataset::aggregate` is `Dataset::reduce` with a visible monoid: the
/// same value to the last bit in every configuration, whether the chain is
/// transparent (the columnar layout folds typed lanes), opaque (row
/// fallback), or the monoid has no lane kernel (tuple sums, `argmin`).
#[test]
fn backends_agree_on_total_aggregations() {
    // (i, x, flag) rows; x mixes magnitudes so a double sum depends on
    // the order it is added in.
    let rows: Vec<Value> = (0..600i64)
        .map(|i| {
            Value::tuple(vec![
                Value::Long(i),
                Value::Double((i * 7919 % 1000) as f64 * 1e-3 + (i % 13) as f64 * 1e6),
                Value::Bool(i % 97 != 96),
            ])
        })
        .collect();
    type Build = fn(&Dataset) -> Dataset;
    let cases: Vec<(&str, BinOp, Build)> = vec![
        ("f64 sum", BinOp::Add, |d| {
            d.map_expr(RowExpr::Col(1)).unwrap()
        }),
        ("f64 product", BinOp::Mul, |d| {
            d.map_expr(RowExpr::Bin(
                BinOp::Add,
                Box::new(RowExpr::Const(Value::Double(1.0))),
                Box::new(RowExpr::Bin(
                    BinOp::Mul,
                    Box::new(RowExpr::Col(1)),
                    Box::new(RowExpr::Const(Value::Double(1e-9))),
                )),
            ))
            .unwrap()
        }),
        ("long sum", BinOp::Add, |d| {
            d.map_expr(RowExpr::Col(0)).unwrap()
        }),
        ("f64 min", BinOp::Min, |d| {
            d.map_expr(RowExpr::Col(1)).unwrap()
        }),
        ("long max", BinOp::Max, |d| {
            d.map_expr(RowExpr::Col(0)).unwrap()
        }),
        ("and", BinOp::And, |d| d.map_expr(RowExpr::Col(2)).unwrap()),
        ("or", BinOp::Or, |d| d.map_expr(RowExpr::Col(2)).unwrap()),
        ("tuple sum", BinOp::Add, |d| {
            d.map_expr(RowExpr::Tuple(vec![RowExpr::Col(1), RowExpr::Col(0)]))
                .unwrap()
        }),
        ("argmin", BinOp::ArgMin, |d| {
            d.map_expr(RowExpr::Tuple(vec![RowExpr::Col(0), RowExpr::Col(1)]))
                .unwrap()
        }),
        ("mixed long + double", BinOp::Add, |d| {
            // Partition partials are doubles, the seed rows longs.
            d.map(|r| {
                let t = r.as_tuple().unwrap();
                Ok(if t[0].as_long().unwrap() % 2 == 0 {
                    t[0].clone()
                } else {
                    t[1].clone()
                })
            })
            .unwrap()
        }),
        ("filtered to nothing", BinOp::Add, |d| {
            d.filter_expr(RowExpr::Bin(
                BinOp::Lt,
                Box::new(RowExpr::Col(0)),
                Box::new(RowExpr::Const(Value::Long(0))),
            ))
            .unwrap()
            .map_expr(RowExpr::Col(1))
            .unwrap()
        }),
    ];
    for (what, op, build) in cases {
        let agg = AggOp::new(op).expect("commutative");
        let reference = {
            let ctx = ctx_for(Engine::ROW);
            build(&ctx.from_vec(rows.clone()))
                .reduce(|a, b| op.apply(a, b))
                .unwrap()
        };
        if what == "filtered to nothing" {
            assert_eq!(reference, None);
        } else {
            assert!(reference.is_some(), "{what}");
        }
        for engine in engines() {
            let ctx = ctx_for(engine);
            let got = build(&ctx.from_vec(rows.clone())).aggregate(agg).unwrap();
            // Debug, not `==`: `Long(2) == Double(2.0)`, and the claim is
            // the same bits.
            assert_eq!(
                format!("{got:?}"),
                format!("{reference:?}"),
                "{what}: `{engine}` diverged"
            );
        }
    }
}

/// The paper's total aggregations, source to scalar: the default columnar
/// layout (at tile widths that cut tiles mid-partition) against the row
/// layout at every pool width — byte-identical values, fully vectorized.
#[test]
fn total_aggregation_programs_match_the_row_reference() {
    const SRC: &str = r#"
        input V: vector[double];
        input N: vector[long];
        var sum: double = 0.0;
        var small: double = 0.0;
        var none: double = 0.0;
        var all: bool = true;
        var any: bool = false;
        var lo: double = 1000000000.0;
        var hi: long = 0;
        var prod: long = 1;
        for v in V do {
            sum += v;
            if (v < 0.5) small += v;
            if (v < 0.0 - 1.0) none += v;
            all := all && v < 900.0;
            any := any || v > 12000000.0;
            lo := min(lo, v);
        };
        for n in N do {
            hi := max(hi, n * 3);
            prod *= n % 3 + 1;
        };
    "#;
    const OUTPUTS: [&str; 8] = ["sum", "small", "none", "all", "any", "lo", "hi", "prod"];
    let compiled = diablo_core::compile(SRC).unwrap();
    let run = |engine: Engine, workers: usize, empty: bool| {
        let ctx = engine.context(workers, 5);
        let mut s = diablo_exec::Session::new(ctx.clone());
        let n = if empty { 0 } else { 1000i64 };
        s.bind_input(
            "V",
            (0..n)
                .map(|i| {
                    let x = (i * 7919 % 1000) as f64 * 1e-3 + (i % 13) as f64 * 1e6;
                    Value::pair(Value::Long(i), Value::Double(x))
                })
                .collect(),
        );
        s.bind_input(
            "N",
            (0..n)
                .map(|i| Value::pair(Value::Long(i), Value::Long(i * 31 % 977)))
                .collect(),
        );
        // On empty input `min` has no identity to fall back on: the run
        // stops there, with the same error and the same scalars so far.
        let outcome = s.run(&compiled).map_err(|e| e.message);
        assert_eq!(outcome.is_err(), empty, "{outcome:?}");
        let mut values = vec![format!("{outcome:?}")];
        values.extend(
            OUTPUTS
                .iter()
                .map(|name| format!("{name} = {:?}", s.scalar(name).unwrap())),
        );
        (values, ctx.stats().snapshot())
    };
    for empty in [false, true] {
        let (reference, _) = run(Engine::ROW, 1, empty);
        for workers in [1, 2, 4] {
            let (row, _) = run(Engine::ROW, workers, empty);
            assert_eq!(row, reference, "local at {workers} workers");
            for batch in [1, 7, DEFAULT_TILE_WIDTH] {
                let (got, stats) = run(Engine::COLUMNAR.tile(batch), workers, empty);
                assert_eq!(
                    got, reference,
                    "batch {batch}, {workers} workers, empty input: {empty}"
                );
                assert_eq!(stats.row_fallback_stages, 0, "{stats:?}");
                if !empty {
                    assert_eq!(stats.physical_stages, 8, "one stage per aggregation");
                    assert!(stats.vectorized_batches > 0, "{stats:?}");
                }
            }
        }
    }
}

/// `Dataset::aggregate_by_key` is `Dataset::reduce_by_key` with visible
/// monoids: the same rows in the same order, to the last bit, in every
/// configuration — whether the keyed map is transparent (the columnar layout
/// hashes the key column in place and folds typed lanes), opaque, or
/// absent; whatever the key type.
#[test]
fn backends_agree_on_keyed_aggregations() {
    // (i, x, flag, word, name, odd key, odd value) rows. x mixes magnitudes
    // so a double sum depends on the order it is added in; the odd key
    // column mixes longs with the doubles they equal, both zeros and two
    // NaNs; the odd value column alternates longs and doubles.
    let words = ["apple", "pear", "plum", "fig", "kiwi"];
    let odd_keys = [
        Value::Long(1),
        Value::Double(1.0),
        Value::Double(0.0),
        Value::Double(-0.0),
        Value::Long(0),
        Value::Double(f64::NAN),
        Value::Double(-f64::NAN),
        Value::Double(2.5),
    ];
    let rows: Vec<Value> = (0..600i64)
        .map(|i| {
            let x = (i * 7919 % 1000) as f64 * 1e-3 + (i % 13) as f64 * 1e6;
            Value::tuple(vec![
                Value::Long(i),
                Value::Double(x),
                Value::Bool(i % 97 != 96),
                Value::str(words[i as usize % words.len()]),
                Value::str(format!("w{i}")),
                odd_keys[(i * 5 % 8) as usize].clone(),
                if i % 2 == 0 {
                    Value::Long(i)
                } else {
                    Value::Double(x)
                },
            ])
        })
        .collect();
    let col = RowExpr::Col;
    let long = |n| RowExpr::Const(Value::Long(n));
    let bin = |op, a, b| RowExpr::Bin(op, Box::new(a), Box::new(b));
    let keys: Vec<(&str, RowExpr)> = vec![
        ("few longs", bin(BinOp::Mod, col(0), long(7))),
        ("distinct longs", col(0)),
        ("few strings", col(3)),
        ("distinct strings", col(4)),
        (
            "tuples",
            RowExpr::Tuple(vec![bin(BinOp::Mod, col(0), long(3)), col(3)]),
        ),
        ("longs, doubles, zeros and NaNs", col(5)),
        ("one key", long(0)),
    ];
    let values: Vec<(&str, Vec<BinOp>, Vec<RowExpr>)> = vec![
        (
            "sums and all",
            vec![BinOp::Add, BinOp::Add, BinOp::And],
            vec![col(0), col(1), col(2)],
        ),
        (
            "products and any",
            vec![BinOp::Mul, BinOp::Mul, BinOp::Or],
            vec![
                bin(BinOp::Add, bin(BinOp::Mod, col(0), long(3)), long(1)),
                bin(
                    BinOp::Add,
                    RowExpr::Const(Value::Double(1.0)),
                    bin(BinOp::Mul, col(1), RowExpr::Const(Value::Double(1e-9))),
                ),
                col(2),
            ],
        ),
        (
            "min and max",
            vec![BinOp::Min, BinOp::Min, BinOp::Max, BinOp::Max],
            vec![col(0), col(1), col(0), col(1)],
        ),
        (
            "tuple sum and argmin",
            vec![BinOp::Add, BinOp::ArgMin],
            vec![
                RowExpr::Tuple(vec![col(1), col(0)]),
                RowExpr::Tuple(vec![col(0), col(1)]),
            ],
        ),
        ("count", vec![BinOp::Add], vec![long(1)]),
        (
            "longs met by doubles",
            vec![BinOp::Add, BinOp::Max],
            vec![col(6), col(6)],
        ),
        ("no aggregate at all", vec![], vec![]),
    ];
    // How the `(key, (v1, …, vn))` rows come about.
    type Build = fn(&Dataset, RowExpr) -> Dataset;
    let shapes: Vec<(&str, Build)> = vec![
        ("transparent keyed map", |d, keyed| {
            d.map_expr(keyed).unwrap()
        }),
        ("filtered first", |d, keyed| {
            let keep = RowExpr::Bin(
                BinOp::Ne,
                Box::new(RowExpr::Bin(
                    BinOp::Mod,
                    Box::new(RowExpr::Col(0)),
                    Box::new(RowExpr::Const(Value::Long(3))),
                )),
                Box::new(RowExpr::Const(Value::Long(0))),
            );
            d.filter_expr(keep).unwrap().map_expr(keyed).unwrap()
        }),
        ("opaque keyed map", |d, keyed| {
            d.map(move |row| keyed.eval(row)).unwrap()
        }),
        ("boxed pairs passed through a filter", |d, keyed| {
            let pairs = d.map_expr(keyed).unwrap().materialize().unwrap();
            pairs
                .filter_expr(RowExpr::Const(Value::Bool(true)))
                .unwrap()
        }),
        ("boxed pairs, no step", |d, keyed| {
            d.map_expr(keyed).unwrap().materialize().unwrap()
        }),
        ("empty input", |d, keyed| {
            let none = RowExpr::Bin(
                BinOp::Lt,
                Box::new(RowExpr::Col(0)),
                Box::new(RowExpr::Const(Value::Long(0))),
            );
            d.filter_expr(none).unwrap().map_expr(keyed).unwrap()
        }),
    ];
    let context = |engine: Engine, workers: usize| engine.context(workers, 5);
    let mut vectorized = 0;
    for (k, (key_name, key)) in keys.iter().enumerate() {
        for (v, (value_name, ops, inputs)) in values.iter().enumerate() {
            let keyed = RowExpr::Tuple(vec![key.clone(), RowExpr::Tuple(inputs.clone())]);
            let aggs: Vec<AggOp> = ops.iter().map(|&op| AggOp::new(op).unwrap()).collect();
            // Every key meets every aggregate under the transparent keyed
            // map; the other shapes take a diagonal of that square.
            let shapes = shapes.iter().take(if k == v { shapes.len() } else { 1 });
            for (shape_name, build) in shapes {
                let what = format!("{value_name} by {key_name}, {shape_name}");
                let reference = {
                    let ctx = context(Engine::ROW, 1);
                    let ops = ops.clone();
                    build(&ctx.from_vec(rows.clone()), keyed.clone())
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
                        .collect()
                };
                assert_eq!(reference.is_empty(), *shape_name == "empty input", "{what}");
                for (engine, workers) in engines_and_workers() {
                    let ctx = context(engine, workers);
                    let got = build(&ctx.from_vec(rows.clone()), keyed.clone())
                        .aggregate_by_key(aggs.clone())
                        .unwrap()
                        .collect();
                    // Debug, not `==`: `Long(2) == Double(2.0)`, and the
                    // claim is the same bits.
                    assert_eq!(
                        format!("{got:?}"),
                        format!("{reference:?}"),
                        "{what}: `{engine}` at {workers} workers diverged"
                    );
                    vectorized += ctx.stats().snapshot().vectorized_batches;
                }
            }
        }
    }
    assert!(vectorized > 0, "the columnar legs never ran a tile");
}

/// `Dataset::join_on` on the driver: both sides collected and keyed as
/// the operator keys them (left rows first, so the first error is the
/// one the left scatter raises), then [`common::nested_loop_join`], each
/// match a left row followed by its right leaves. The reference the
/// operator is held to, row for row.
fn driver_join_on(
    left: &Dataset,
    right: &Dataset,
    on: &JoinOn,
) -> Result<Vec<Value>, RuntimeError> {
    let ctx = left.context();
    let unpack = RowExpr::Unpack {
        shape: on.right.clone(),
        mismatch: on.mismatch.clone(),
    };
    let keyed_left = left
        .try_collect()?
        .into_iter()
        .map(|row| Ok((on.left_key.eval(&row)?, row)))
        .collect::<Result<Vec<_>, RuntimeError>>()?;
    let keyed_right = right
        .try_collect()?
        .iter()
        .map(|raw| {
            let leaves = unpack.eval(raw)?;
            Ok((on.right_key.eval(&leaves)?, leaves))
        })
        .collect::<Result<Vec<_>, RuntimeError>>()?;
    let matches = common::nested_loop_join(&keyed_left, &keyed_right, ctx.partitions());
    Ok(matches
        .into_iter()
        .map(|(_, l, r)| {
            let mut fields = l.as_tuple().expect("left row").to_vec();
            fields.extend_from_slice(r.as_tuple().expect("right leaves"));
            Value::tuple(fields)
        })
        .collect())
}

/// `Dataset::join` on the driver: `(k, (l, r))` per match of
/// [`common::nested_loop_join`] over the `(key, value)` rows.
fn driver_join_pairs(left: &Dataset, right: &Dataset) -> Result<Vec<Value>, RuntimeError> {
    let ctx = left.context();
    let pairs = |d: &Dataset| -> Result<Vec<(Value, Value)>, RuntimeError> {
        d.try_collect()?.iter().map(key_value).collect()
    };
    let (l, r) = (pairs(left)?, pairs(right)?);
    let matches = common::nested_loop_join(&l, &r, ctx.partitions());
    Ok(matches
        .into_iter()
        .map(|(k, l, r)| Value::pair(k, Value::pair(l, r)))
        .collect())
}

/// `Dataset::cross` as a closure: what the pipeline builder's `broadcast
/// product` did.
fn closure_cross(
    left: &Dataset,
    items: Arc<Vec<Value>>,
    shape: &Shape,
    mismatch: &str,
) -> Result<Vec<Value>, RuntimeError> {
    let unpack = RowExpr::Unpack {
        shape: shape.clone(),
        mismatch: mismatch.into(),
    };
    left.flat_map(move |row| {
        let fields = row.as_tuple().expect("left row");
        items
            .iter()
            .map(|item| {
                let mut out = fields.to_vec();
                out.extend_from_slice(unpack.eval(item)?.as_tuple().expect("leaves"));
                Ok(Value::tuple(out))
            })
            .collect()
    })?
    .try_collect()
}

#[test]
fn backends_agree_on_joins_and_crosses() {
    let words = ["apple", "pear", "plum", "fig", "kiwi"];
    let odd_keys = [
        Value::Long(1),
        Value::Double(1.0),
        Value::Double(0.0),
        Value::Double(-0.0),
        Value::Long(0),
        Value::Double(f64::NAN),
        Value::Double(-f64::NAN),
        Value::Double(2.5),
    ];
    // Doubles only, so they make a double lane: `1.0` against a long `1`,
    // both zeros, a NaN.
    let doubles = [1.0, 0.0, -0.0, f64::NAN, 2.0];
    // Left rows `(i, long key, word, odd key, x, double)`: 12 rows per
    // long key 0..=9, so every matched key meets duplicates on both sides.
    let left_rows: Vec<Value> = (0..120i64)
        .map(|i| {
            Value::tuple(vec![
                Value::Long(i),
                Value::Long(i % 10),
                Value::str(words[i as usize % 5]),
                odd_keys[(i * 5 % 8) as usize].clone(),
                Value::Double(i as f64 / 4.0),
                Value::Double(doubles[i as usize % 5]),
            ])
        })
        .collect();
    // Right rows `((key, j), y)` per key kind. Long keys 4..=12: 0..=3 are
    // left-only, 10..=12 right-only. Words: "apple" and "kiwi" left-only,
    // "zzz" right-only. Odd keys: a different walk over the same values.
    let right_words = ["pear", "plum", "fig", "zzz"];
    let right_rows = |key: &dyn Fn(i64) -> Value| -> Vec<Value> {
        (0..45i64)
            .map(|j| {
                Value::pair(
                    Value::pair(key(j), Value::Long(j)),
                    Value::str(format!("y{j}")),
                )
            })
            .collect()
    };
    let col = RowExpr::Col;
    let long = |n| RowExpr::Const(Value::Long(n));
    let bin = |op, a, b| RowExpr::Bin(op, Box::new(a), Box::new(b));
    // The right key is the first leaf, a value of the row — or, rebuilt
    // from its fields, a column of lanes.
    let leaf = || RowExpr::Col(0);
    let rebuilt = || {
        RowExpr::Tuple(vec![
            RowExpr::field(RowExpr::Col(0), "_1"),
            RowExpr::field(RowExpr::Col(0), "_2"),
        ])
    };
    let kinds: Vec<(&str, RowExpr, RowExpr, Vec<Value>)> = vec![
        (
            "long keys",
            col(1),
            leaf(),
            right_rows(&|j| Value::Long(j % 9 + 4)),
        ),
        (
            "string keys",
            col(2),
            leaf(),
            right_rows(&|j| Value::str(right_words[j as usize % 4])),
        ),
        (
            "tuple keys",
            RowExpr::Tuple(vec![bin(BinOp::Mod, col(0), long(3)), col(2)]),
            leaf(),
            right_rows(&|j| {
                Value::pair(Value::Long(j % 4), Value::str(right_words[j as usize % 4]))
            }),
        ),
        (
            "longs, doubles, zeros and NaNs",
            col(3),
            leaf(),
            right_rows(&|j| odd_keys[(j * 3 % 8) as usize].clone()),
        ),
        (
            "(long, long) keys",
            RowExpr::Tuple(vec![col(1), bin(BinOp::Mod, col(0), long(2))]),
            rebuilt(),
            right_rows(&|j| Value::pair(Value::Long(j % 12), Value::Long(j / 3 % 2))),
        ),
        (
            "(long, double) keys against boxed ones",
            RowExpr::Tuple(vec![bin(BinOp::Mod, col(0), long(3)), col(5)]),
            leaf(),
            right_rows(&|j| {
                Value::pair(Value::Long(j % 3), odd_keys[(j * 3 % 8) as usize].clone())
            }),
        ),
        (
            "(long, long) keys against (long, double) lanes",
            RowExpr::Tuple(vec![col(1), bin(BinOp::Mod, col(0), long(3))]),
            rebuilt(),
            right_rows(&|j| {
                Value::pair(Value::Long(j % 10), Value::Double(doubles[j as usize % 5]))
            }),
        ),
        (
            "(long, string) keys",
            RowExpr::Tuple(vec![col(1), col(2)]),
            rebuilt(),
            right_rows(&|j| {
                Value::pair(Value::Long(j % 10), Value::str(right_words[j as usize % 4]))
            }),
        ),
        (
            "keys whose arity differs between the sides",
            RowExpr::Tuple(vec![col(1), bin(BinOp::Mod, col(0), long(2))]),
            leaf(),
            right_rows(&|j| {
                let (k, b) = (Value::Long(j % 10), Value::Long(j / 3 % 2));
                match j % 3 {
                    0 => Value::pair(k, b),
                    1 => Value::tuple(vec![k, b, Value::Long(0)]),
                    _ => k,
                }
            }),
        ),
    ];
    // ((key, _), y) binds (key, y); the key is the first leaf.
    let shape = Shape::Tuple(vec![
        Shape::Tuple(vec![Shape::Bind, Shape::Skip]),
        Shape::Bind,
    ]);
    let mismatch = "join pattern ((k, _), y) does not match row";
    // How the two sides come about.
    type Build = fn(&Context, &[Value], &[Value]) -> (Dataset, Dataset);
    let variants: Vec<(&str, Build)> = vec![
        ("as they are", |ctx, l, r| {
            (ctx.from_vec(l.to_vec()), ctx.from_vec(r.to_vec()))
        }),
        ("behind transparent and opaque steps", |ctx, l, r| {
            let keep = RowExpr::Bin(
                BinOp::Ne,
                Box::new(RowExpr::Bin(
                    BinOp::Mod,
                    Box::new(RowExpr::Col(0)),
                    Box::new(RowExpr::Const(Value::Long(7))),
                )),
                Box::new(RowExpr::Const(Value::Long(0))),
            );
            (
                ctx.from_vec(l.to_vec()).filter_expr(keep).unwrap(),
                ctx.from_vec(r.to_vec()).map(|v| Ok(v.clone())).unwrap(),
            )
        }),
        ("empty left", |ctx, l, r| {
            let none = RowExpr::Bin(
                BinOp::Lt,
                Box::new(RowExpr::Col(0)),
                Box::new(RowExpr::Const(Value::Long(0))),
            );
            (
                ctx.from_vec(l.to_vec()).filter_expr(none).unwrap(),
                ctx.from_vec(r.to_vec()),
            )
        }),
        ("empty right", |ctx, l, _| {
            (ctx.from_vec(l.to_vec()), ctx.from_vec(Vec::new()))
        }),
        ("a right row that is no pair", |ctx, l, r| {
            let mut r = r.to_vec();
            r[17] = Value::Long(17);
            r[31] = Value::str("thirty-one");
            (ctx.from_vec(l.to_vec()), ctx.from_vec(r))
        }),
    ];
    let context = |engine: Engine, workers: usize| engine.context(workers, 5);
    // Debug, not `==`: `Long(1) == Double(1.0)`, and the claim is the same
    // rows bit for bit — or the same first error.
    let show = |res: Result<Vec<Value>, RuntimeError>| match res {
        Ok(rows) => format!("{rows:?}"),
        Err(e) => format!("error: {e}"),
    };
    let mut vectorized = 0;
    for (kind, left_key, right_key, right) in &kinds {
        let on = JoinOn {
            left_key: left_key.clone(),
            right: shape.clone(),
            right_key: right_key.clone(),
            mismatch: mismatch.into(),
        };
        for (variant, build) in &variants {
            let what = format!("{kind}, {variant}");
            let reference = {
                let ctx = context(Engine::ROW, 1);
                let (l, r) = build(&ctx, &left_rows, right);
                show(driver_join_on(&l, &r, &on))
            };
            let fails = reference.starts_with("error");
            assert_eq!(fails, *variant == "a right row that is no pair", "{what}");
            if fails {
                assert_eq!(
                    reference,
                    format!("error: runtime error: {mismatch} 17"),
                    "{what}"
                );
            } else {
                assert_eq!(reference == "[]", variant.starts_with("empty"), "{what}");
            }
            for (engine, workers) in engines_and_workers() {
                let ctx = context(engine, workers);
                let (l, r) = build(&ctx, &left_rows, right);
                let joined = l.join_on(&r, on.clone());
                // Read through a transparent step that keeps every
                // row, a columnar stage gathers the matches into
                // columns instead of making rows of them; read bare,
                // every match becomes its row.
                let kept =
                    show(joined.clone().and_then(|d| {
                        d.filter_expr(bin(BinOp::Eq, col(0), col(0)))?.try_collect()
                    }));
                assert_eq!(
                    kept, reference,
                    "{what}, behind a filter: `{engine}` at {workers} workers diverged"
                );
                let got = show(joined.and_then(|d| d.try_collect()));
                assert_eq!(
                    got, reference,
                    "{what}: `{engine}` at {workers} workers diverged"
                );
                let stats = ctx.stats().snapshot();
                vectorized += stats.vectorized_batches;
                if *variant == "as they are" {
                    assert_eq!(stats.row_fallback_stages, 0, "{what}: `{engine}`");
                }
            }
        }
    }
    assert!(vectorized > 0, "the columnar legs never ran a tile");

    // `Dataset::join` keeps its `(k, (l, r))` rows and its words for a row
    // that is no pair, on either side.
    let pairs = |rows: &[Value], key: usize, value: usize| -> Vec<Value> {
        rows.iter()
            .map(|row| {
                let fields = row.as_tuple().unwrap();
                Value::pair(fields[key].clone(), fields[value].clone())
            })
            .collect()
    };
    let right_pairs: Vec<Value> = kinds[3]
        .3
        .iter()
        .map(|row| {
            let (kj, y) = key_value(row).unwrap();
            Value::pair(key_value(&kj).unwrap().0, y)
        })
        .collect();
    for bad in [None, Some(false), Some(true)] {
        let (mut l, mut r) = (pairs(&left_rows, 3, 0), right_pairs.clone());
        match bad {
            Some(false) => {
                l[40] = Value::tuple(vec![Value::Long(1), Value::Long(2), Value::Long(3)])
            }
            Some(true) => r[9] = Value::Unit,
            None => {}
        }
        let reference = {
            let ctx = context(Engine::ROW, 1);
            show(driver_join_pairs(
                &ctx.from_vec(l.clone()),
                &ctx.from_vec(r.clone()),
            ))
        };
        assert_eq!(reference.starts_with("error"), bad.is_some());
        for (engine, workers) in engines_and_workers() {
            let ctx = context(engine, workers);
            let joined = ctx.from_vec(l.clone()).join(&ctx.from_vec(r.clone()));
            assert_eq!(
                show(joined.and_then(|d| d.try_collect())),
                reference,
                "join with bad row {bad:?}: `{engine}` at {workers} workers"
            );
        }
    }

    // Crosses: every left row against every item, in item order; no items,
    // no rows; an item that does not fit is named by the first row to
    // reach it — and by none if no row does.
    let cross_mismatch = "broadcast pattern ((k, _), y) does not match row";
    let items: Vec<Value> = kinds[0].3[..7].to_vec();
    let mut bad_items = items.clone();
    bad_items[4] = Value::pair(Value::Long(4), Value::Long(4));
    let cases: Vec<(&str, Vec<Value>, bool)> = vec![
        ("seven items", items.clone(), false),
        ("no items", Vec::new(), false),
        ("an item that does not fit", bad_items.clone(), false),
        ("an item that does not fit, no rows", bad_items, true),
    ];
    for (case, items, no_rows) in cases {
        let items = Arc::new(items);
        let left = |ctx: &Context| {
            let keep = if no_rows {
                bin(BinOp::Lt, col(0), long(0))
            } else {
                bin(BinOp::Ne, bin(BinOp::Mod, col(0), long(3)), long(0))
            };
            ctx.from_vec(left_rows.clone()).filter_expr(keep).unwrap()
        };
        let reference = {
            let ctx = context(Engine::ROW, 1);
            show(closure_cross(
                &left(&ctx),
                items.clone(),
                &shape,
                cross_mismatch,
            ))
        };
        let fails = case == "an item that does not fit";
        assert_eq!(reference.starts_with("error"), fails, "{case}");
        if fails {
            assert_eq!(
                reference,
                format!("error: runtime error: {cross_mismatch} (4, 4)")
            );
        }
        for (engine, workers) in engines_and_workers() {
            let ctx = context(engine, workers);
            let crossed = left(&ctx).cross(items.clone(), shape.clone(), cross_mismatch);
            assert_eq!(
                show(crossed.and_then(|d| d.try_collect())),
                reference,
                "cross, {case}: `{engine}` at {workers} workers diverged"
            );
            assert_eq!(
                ctx.stats().snapshot().row_fallback_stages,
                0,
                "{case}: `{engine}`"
            );
        }
    }
}

#[test]
fn context_swaps_backends_in_place() {
    let ctx = Context::new(2, 4);
    let clone = ctx.clone();
    let ctx = ctx.with_layout(Layout::Columnar).with_tile_width(8);
    assert_eq!(clone.layout(), Layout::Columnar, "clones share the layout");
    assert_eq!(clone.tile_width(), 8);
    // Results stay correct after the swap.
    let d = ctx.range(1, 50).unwrap();
    assert_eq!(d.count(), 50);
    let ctx = ctx.with_layout(Layout::Row);
    assert_eq!(clone.stats_snapshot().backend, "local");
    assert_eq!(d.count(), 50);
    assert_eq!(ctx.layout(), Layout::Row);
}

/// The grid of the keyed-aggregation and join tests: every configuration
/// at 3 workers, plus the columnar layout at tile widths that cut
/// partitions into many, several, or one tile, at every pool width.
fn engines_and_workers() -> Vec<(Engine, usize)> {
    let mut grid: Vec<(Engine, usize)> = engines().into_iter().map(|e| (e, 3)).collect();
    for batch in [1, 7, DEFAULT_TILE_WIDTH] {
        for workers in [1, 2, 4] {
            grid.push((Engine::COLUMNAR.tile(batch), workers));
        }
    }
    grid
}

/// Deterministic skewed key distributions: `(key, i)` for `i` in `0..n`.
fn skewed_rows(dist: usize, n: usize, seed: u64) -> Vec<(i64, i64)> {
    let n = n as i64;
    (0..n)
        .map(|i| {
            let k = match dist {
                // zipf-ish skew: low keys vastly more common.
                0 => {
                    let r = (i.wrapping_mul(seed as i64 | 1).wrapping_add(i * i)) % 1024;
                    (1024 / (r.abs() + 1)) % 64
                }
                // all-equal.
                1 => 42,
                // pre-sorted (many duplicates).
                2 => i / 3,
                // reverse-sorted.
                _ => (n - i) / 2,
            };
            (k, i)
        })
        .collect()
}

/// `reduce_by_key`, `group_by_key`, `merge` and `join` of `left` and
/// `right` on `ctx`, each collected in partition order.
fn keyed_ops(ctx: &Context, left: &[(i64, i64)], right: &[(i64, i64)]) -> [Vec<Value>; 4] {
    let (a, b) = (long_pairs(ctx, left), long_pairs(ctx, right));
    let add = |x: &Value, y: &Value| BinOp::Add.apply(x, y);
    [
        a.reduce_by_key(add).unwrap().collect(),
        a.group_by_key().unwrap().collect(),
        a.merge(&b, Some(add)).unwrap().collect(),
        a.join(&b).unwrap().collect(),
    ]
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

    /// Skewed, all-equal, pre-sorted and reverse-sorted keys through the
    /// keyed operators: every layout × tile width, unbounded and with a
    /// zero exchange budget (every bucket through disk runs), returns the
    /// one-worker row layout's rows in its order.
    #[test]
    fn skewed_key_distributions_are_byte_identical_across_engines(
        dist in 0usize..4,
        n in 100usize..700,
        seed in 1u64..1000,
    ) {
        let left = skewed_rows(dist, n, seed);
        let right = skewed_rows(dist, 20, seed + 1);
        let reference = keyed_ops(&Engine::ROW.context(1, 5), &left, &right);
        for engine in [
            Engine::ROW,
            Engine::COLUMNAR.tile(4),
            Engine::COLUMNAR.tile(16),
            Engine::COLUMNAR,
        ] {
            for budget in [None, Some(0)] {
                let engine = engine.budget(budget);
                let ctx = engine.context(3, 5);
                let got = keyed_ops(&ctx, &left, &right);
                for ((got, want), op) in got.iter().zip(&reference).zip(["reduce", "group", "merge", "join"]) {
                    proptest::prop_assert_eq!(got, want, "{} under `{}`, distribution {}", op, engine, dist);
                }
                let stats = ctx.stats().snapshot();
                proptest::prop_assert!(
                    budget.is_none() || stats.spill_files > 0,
                    "`{}` must spill runs: {:?}", engine, stats
                );
            }
        }
    }
}
