//! The §5 block path: dense element-wise and contraction statements run on
//! packed blocks (`Dataset::block_zip`, `Dataset::block_contract`), and
//! must keep the sparse semantics of the join plan they replace — only
//! the summation order of a contraction may differ. The interpreter is
//! the reference; the plan trace says which path a statement took.

mod common;

use common::Engine;
use diablo_dataflow::{Context, Layout};
use diablo_exec::Session;
use diablo_interp::Interpreter;
use diablo_lang::{parse, typecheck};
use diablo_runtime::Value;
use diablo_workloads::{self as wl, Workload};

/// `R[i, j] := M[i, j] + N[i, j]` — Matrix Addition's source with its
/// element type and operator as parameters.
fn elementwise(ty: &str, op: &str) -> String {
    format!(
        "input M: matrix[{ty}]; input N: matrix[{ty}]; input n: long; input mm: long;
         var R: matrix[{ty}] = matrix();
         for i = 0, n-1 do for j = 0, mm-1 do R[i, j] := M[i, j] {op} N[i, j];"
    )
}

/// `R[i, j] += M[i, k] * N[k, j]` into an array that starts empty, so a
/// pair `(i, j)` that no `k` joins has no element.
fn contraction(ty: &str) -> String {
    format!(
        "input M: matrix[{ty}]; input N: matrix[{ty}]; input d: long;
         var R: matrix[{ty}] = matrix();
         for i = 0, d-1 do for j = 0, d-1 do for k = 0, d-1 do
             R[i, j] += M[i, k] * N[k, j];"
    )
}

/// A `rows × cols` matrix holding the elements `keep` admits, valued by
/// `value`.
fn matrix(
    rows: i64,
    cols: i64,
    keep: impl Fn(i64, i64) -> bool,
    value: impl Fn(i64, i64) -> Value,
) -> Vec<Value> {
    let mut out = Vec::new();
    for i in 0..rows {
        for j in 0..cols {
            if keep(i, j) {
                out.push(Value::pair(
                    Value::pair(Value::Long(i), Value::Long(j)),
                    value(i, j),
                ));
            }
        }
    }
    out
}

/// A deterministic pseudo-random share of the elements: about `pct`
/// percent of them.
fn share(pct: u64, salt: u64) -> impl Fn(i64, i64) -> bool {
    move |i, j| {
        let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (j as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ salt.wrapping_mul(0x1656_67B1_9E37_79F9);
        (h ^ (h >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 40 < pct * (1 << 24) / 100
    }
}

fn double(i: i64, j: i64) -> Value {
    Value::Double(((i * 37 + j * 11) % 23) as f64 * 0.37 - 2.5)
}

fn workload(
    source: String,
    scalars: Vec<(&'static str, i64)>,
    m: Vec<Value>,
    n: Vec<Value>,
) -> Workload {
    Workload {
        name: "block path",
        source: Box::leak(source.into_boxed_str()),
        scalars: scalars
            .into_iter()
            .map(|(k, v)| (k, Value::Long(v)))
            .collect(),
        collections: vec![("M", m), ("N", n)],
        outputs: vec!["R"],
    }
}

/// `R` on the engine, with the plan trace's block-path lines.
fn engine(w: &Workload, ctx: Context) -> (Vec<Value>, Vec<String>) {
    let compiled = diablo_core::compile(w.source).expect("compiles");
    let mut s = Session::new(ctx.clone());
    for (n, v) in &w.scalars {
        s.bind_scalar(n, v.clone());
    }
    for (n, rows) in &w.collections {
        s.bind_input(n, rows.clone());
    }
    ctx.start_plan_trace();
    let run = s.run(&compiled);
    let trace = ctx.take_plan_trace();
    run.expect("runs");
    let paths = trace.into_iter().filter(|l| l.contains("block ")).collect();
    (s.collect(w.outputs[0]).expect("an array"), paths)
}

/// `R` by the interpreter.
fn interpreter(w: &Workload) -> Vec<Value> {
    let tp = typecheck(parse(w.source).unwrap()).unwrap();
    let mut interp = Interpreter::new();
    for (n, v) in &w.scalars {
        interp.bind_scalar(n, v.clone());
    }
    for (n, rows) in &w.collections {
        interp.bind_collection(n, rows.clone()).unwrap();
    }
    interp.run(&tp).expect("interprets");
    interp.collection(w.outputs[0]).expect("an array")
}

fn default_engine(w: &Workload) -> (Vec<Value>, Vec<String>) {
    engine(w, Context::new(2, 4))
}

/// Same rows, order and bits — `Long` told from `Double`, NaN from NaN.
fn assert_bytes(got: &[Value], want: &[Value], what: &str) {
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}");
}

/// Same keys in the same order; values within a relative 1e-9.
fn assert_close(got: &[Value], want: &[Value], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: row counts");
    for (g, w) in got.iter().zip(want) {
        let (gk, gv) = diablo_runtime::array::key_value(g).unwrap();
        let (wk, wv) = diablo_runtime::array::key_value(w).unwrap();
        assert_eq!(gk, wk, "{what}: keys");
        let (x, y) = (gv.as_double().unwrap(), wv.as_double().unwrap());
        assert!(
            (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
            "{what}: {gk} is {x}, the interpreter says {y}"
        );
    }
}

fn assert_path(paths: &[String], want: &str) {
    assert!(
        paths.iter().any(|l| l.starts_with(want)),
        "expected `{want}…` in {paths:?}"
    );
}

#[test]
fn each_shape_matches_the_interpreter_with_ragged_edge_blocks() {
    for d in [33, 70] {
        let w = wl::matrix_addition(d, 5);
        let (got, paths) = default_engine(&w);
        assert_path(&paths, "block zip: 32×32 blocks, density M 1.00, N 1.00");
        assert_bytes(&got, &interpreter(&w), &format!("addition d = {d}"));

        let w = wl::matrix_multiplication(d, 5);
        let (got, paths) = default_engine(&w);
        assert_path(
            &paths,
            "block contraction: 32×32 blocks, density M 1.00, N 1.00",
        );
        assert_close(&got, &interpreter(&w), &format!("multiplication d = {d}"));
    }
}

#[test]
fn a_stored_zero_meets_a_nan_and_a_nan_sums_to_nan() {
    // A stored 0.0 is an element: 0.0 × NaN and 0.0 × ∞ are NaN, and so
    // is every sum they reach.
    let d = 33;
    let m = matrix(
        d,
        d,
        |_, _| true,
        |i, k| Value::Double(if (i, k) == (0, 5) { 0.0 } else { 1.0 }),
    );
    let n = matrix(
        d,
        d,
        |_, _| true,
        |k, j| {
            Value::Double(match (k, j) {
                (5, 7) => f64::NAN,
                (5, 8) => f64::INFINITY,
                _ => 2.0,
            })
        },
    );
    let w = workload(contraction("double"), vec![("d", d)], m.clone(), n.clone());
    let (got, paths) = default_engine(&w);
    assert_path(&paths, "block contraction");
    let at = |rows: &[Value], i: i64, j: i64| {
        let key = Value::pair(Value::Long(i), Value::Long(j));
        let row = rows
            .iter()
            .find(|r| diablo_runtime::array::key_value(r).unwrap().0 == key)
            .unwrap_or_else(|| panic!("no element ({i}, {j})"));
        diablo_runtime::array::key_value(row)
            .unwrap()
            .1
            .as_double()
            .unwrap()
    };
    assert!(at(&got, 0, 7).is_nan(), "0.0 × NaN");
    assert!(at(&got, 0, 8).is_nan(), "0.0 × ∞");
    assert!(at(&got, 1, 7).is_nan(), "1.0 × NaN");
    assert_eq!(at(&got, 0, 9), 64.0);
    // Element-wise: a NaN in the sum is NaN, a stored 0.0 sums as itself,
    // and the rest is the interpreter's, bit for bit.
    let w = workload(elementwise("double", "+"), vec![("n", d), ("mm", d)], m, n);
    let (got, paths) = default_engine(&w);
    assert_path(&paths, "block zip");
    assert!(at(&got, 5, 7).is_nan());
    assert_eq!(at(&got, 0, 5), 2.0);
    assert_bytes(&got, &interpreter(&w), "addition with a NaN");
}

#[test]
fn sixty_percent_dense_matrices_take_the_block_path_with_the_joins_keys() {
    for d in [6, 40] {
        let m = matrix(d, d, share(60, 1), double);
        let n = matrix(d, d, share(60, 2), double);
        let scalars = vec![("n", d), ("mm", d)];
        let w = workload(elementwise("double", "-"), scalars, m.clone(), n.clone());
        let (got, paths) = default_engine(&w);
        assert_path(&paths, "block zip: 32×32 blocks, density M 0.");
        let want = interpreter(&w);
        assert!(want.len() < (d * d) as usize / 2, "only common elements");
        assert_bytes(&got, &want, &format!("difference d = {d}"));

        let w = workload(contraction("double"), vec![("d", d)], m, n);
        let (got, paths) = default_engine(&w);
        assert_path(&paths, "block contraction: 32×32 blocks, density M 0.");
        let want = interpreter(&w);
        if d == 6 {
            assert!(want.len() < 36, "some (i, j) no k joins: {}", want.len());
        }
        assert_close(&got, &want, &format!("product d = {d}"));
    }
}

#[test]
fn long_matrices_keep_long_values() {
    let d = 35;
    let long = |i: i64, j: i64| Value::Long((i * 7 - j * 3) % 11);
    let m = matrix(d, d, |_, _| true, long);
    let n = matrix(d, d, |_, _| true, long);
    let w = workload(
        elementwise("long", "*"),
        vec![("n", d), ("mm", d)],
        m.clone(),
        n.clone(),
    );
    let (got, paths) = default_engine(&w);
    assert_path(&paths, "block zip");
    assert_bytes(&got, &interpreter(&w), "long product");
    let w = workload(contraction("long"), vec![("d", d)], m, n);
    let (got, paths) = default_engine(&w);
    assert_path(&paths, "block contraction");
    assert!(got.iter().all(|r| matches!(
        diablo_runtime::array::key_value(r).unwrap().1,
        Value::Long(_)
    )));
    // Sums of longs are exact in any order.
    assert_bytes(&got, &interpreter(&w), "long contraction");
}

#[test]
fn double_indices_keep_the_join_path() {
    // A CSV cell `3.0` binds as a double, which the join meets with the
    // long `3` and keeps as a double in the result: an operand with such
    // an index declines the block path and runs as the join did.
    let d = 33;
    let as_double = |rows: Vec<Value>, keep: &dyn Fn(i64, i64) -> bool| -> Vec<Value> {
        rows.into_iter()
            .map(|row| {
                let (k, v) = diablo_runtime::array::key_value(&row).unwrap();
                let ij = k.as_tuple().unwrap();
                let (i, j) = (ij[0].as_long().unwrap(), ij[1].as_long().unwrap());
                if !keep(i, j) {
                    return row;
                }
                let key = Value::pair(Value::Double(i as f64), Value::Long(j));
                Value::pair(key, v.clone())
            })
            .collect()
    };
    let m = as_double(matrix(d, d, |_, _| true, double), &|_, _| true);
    let n = as_double(matrix(d, d, |_, _| true, double), &|i, j| (i, j) == (5, 7));
    let scalars = vec![("n", d), ("mm", d)];
    let w = workload(elementwise("double", "+"), scalars, m.clone(), n.clone());
    let (got, paths) = default_engine(&w);
    assert_path(&paths, "block path declined: an index of `M` is not a long");
    // Equal as values: the interpreter keys the result by its loop
    // variables, longs, where the join keeps `M`'s doubles.
    assert_eq!(got, interpreter(&w), "addition with double indices");
    assert!(matches!(
        diablo_runtime::array::key_value(&got[0])
            .unwrap()
            .0
            .as_tuple(),
        Some([Value::Double(_), Value::Long(_)])
    ));
    let w = workload(contraction("double"), vec![("d", d)], n, m);
    let (got, paths) = default_engine(&w);
    assert_path(&paths, "block path declined: an index of `M` is not a long");
    assert_close(&got, &interpreter(&w), "product with a double index");
}

#[test]
fn elements_outside_the_bounds_are_dropped() {
    // 40 × 40 matrices with strays beyond them, under bounds that cut
    // into them: the strays and the cut elements meet nothing.
    let stray = |mut rows: Vec<Value>| {
        for (i, j) in [(-1, 3), (3, -1), (1000, 2), (2, 41)] {
            rows.push(Value::pair(
                Value::pair(Value::Long(i), Value::Long(j)),
                Value::Double(1e9),
            ));
        }
        rows
    };
    let m = stray(matrix(40, 40, |_, _| true, double));
    let n = stray(matrix(40, 40, |_, _| true, double));
    let w = workload(
        elementwise("double", "+"),
        vec![("n", 35), ("mm", 38)],
        m.clone(),
        n.clone(),
    );
    let (got, paths) = default_engine(&w);
    assert_path(&paths, "block zip");
    assert_eq!(got.len(), 35 * 38);
    assert_bytes(&got, &interpreter(&w), "bounded addition");
    let w = workload(contraction("double"), vec![("d", 30)], m, n);
    let (got, paths) = default_engine(&w);
    assert_path(&paths, "block contraction");
    assert_eq!(got.len(), 30 * 30);
    assert_close(&got, &interpreter(&w), "bounded product");
}

#[test]
fn blocks_are_byte_identical_across_layout_budget_and_workers() {
    const PARTITIONS: usize = 5;
    for w in [wl::matrix_addition(70, 9), wl::matrix_multiplication(70, 9)] {
        let (want, _) = engine(&w, Engine::ROW.context(1, PARTITIONS));
        for (l, layout) in [Layout::Row, Layout::Columnar].into_iter().enumerate() {
            for (b, budget) in [None, Some(4096), Some(0)].into_iter().enumerate() {
                for workers in [1, 2, 7] {
                    let engine_cfg = Engine {
                        layout,
                        tile_width: [1, 7, 4096][(l + b) % 3],
                        memory_budget: budget,
                    };
                    let ctx = engine_cfg.context(workers, PARTITIONS);
                    let (got, paths) = engine(&w, ctx.clone());
                    assert_path(&paths, "block ");
                    let what = format!("{}: {engine_cfg} w{workers}", w.name);
                    assert_bytes(&got, &want, &what);
                    if budget == Some(0) {
                        assert!(
                            ctx.stats().snapshot().spill_files > 0,
                            "{what} never spilled"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn sparse_and_other_shapes_keep_their_plans() {
    for w in [wl::pagerank(60, 2, 3), wl::kmeans(200, 3, 1, 3)] {
        let (_, paths) = default_engine(&w);
        assert!(paths.is_empty(), "{}: {paths:?}", w.name);
    }
    // Matrix Factorization's rating matrix holds 10 % of its elements:
    // `err` stays a join; the dense factor product runs on blocks.
    let (_, paths) = default_engine(&wl::matrix_factorization(20, 2, 1, 3));
    assert!(
        paths
            .iter()
            .any(|l| l.starts_with("block path declined: density R 0.1")),
        "{paths:?}"
    );
    assert_path(&paths, "block contraction");
    assert!(
        !paths.iter().any(|l| l.starts_with("block zip")),
        "{paths:?}"
    );
}

#[test]
fn a_pending_dense_operand_is_forced_onto_the_block_path() {
    // With a dense rating matrix, Matrix Factorization's `err := R - pq`
    // is a block zip. `pq` is step-local, so its binding is still pending
    // when `err` is planned: the block path forces it, once `R` has shown
    // itself dense, and matches the eager run, which materialized `pq`.
    let mut w = wl::matrix_factorization(20, 2, 2, 3);
    for (name, rows) in &mut w.collections {
        if *name == "R" {
            *rows = matrix(20, 20, share(90, 7), double);
        }
    }
    w.outputs = vec!["P", "Q"];
    let (_, paths) = default_engine(&w);
    let zips: Vec<&String> = paths
        .iter()
        .filter(|l| l.starts_with("block zip"))
        .collect();
    assert_eq!(zips.len(), 2, "one per step: {paths:?}");
    assert!(zips[0].ends_with("density R 0.91, pq 1.00"), "{zips:?}");
    let compiled = diablo_core::compile(w.source).expect("compiles");
    let outputs = |mut s: Session| {
        for (n, v) in &w.scalars {
            s.bind_scalar(n, v.clone());
        }
        for (n, rows) in &w.collections {
            s.bind_input(n, rows.clone());
        }
        s.run(&compiled).expect("runs");
        w.outputs.iter().map(|n| s.collect(n)).collect::<Vec<_>>()
    };
    let lazy = outputs(Session::new(Context::new(2, 4)));
    let eager = outputs(Session::eager(Context::new(2, 4)));
    assert_eq!(format!("{lazy:?}"), format!("{eager:?}"));
}
