//! Meaning preservation, empirically: every benchmark workload is compiled
//! by DIABLO and executed on the dataflow engine, then run sequentially by
//! the reference interpreter; the results must agree (Appendix A proves
//! this must hold; these tests check the implementation does too).

use diablo_dataflow::Context;
use diablo_exec::Session;
use diablo_interp::Interpreter;
use diablo_lang::{parse, typecheck};
use diablo_runtime::Value;
use diablo_workloads::Workload;

/// Approximate equality: doubles within relative 1e-9 (engine and
/// interpreter sum in different orders, so floats drift slightly).
fn approx_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Double(x), Value::Double(y)) => {
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() <= 1e-6 * scale
        }
        (Value::Long(_), Value::Long(_))
        | (Value::Bool(_), Value::Bool(_))
        | (Value::Str(_), Value::Str(_))
        | (Value::Unit, Value::Unit) => a == b,
        (Value::Long(x), Value::Double(y)) | (Value::Double(y), Value::Long(x)) => {
            (*x as f64 - y).abs() <= 1e-6
        }
        (Value::Tuple(xs), Value::Tuple(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys.iter()).all(|(x, y)| approx_eq(x, y))
        }
        (Value::Record(xs), Value::Record(ys)) => {
            xs.names() == ys.names()
                && xs
                    .values()
                    .iter()
                    .zip(ys.values())
                    .all(|(x, y)| approx_eq(x, y))
        }
        (Value::Bag(xs), Value::Bag(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys.iter()).all(|(x, y)| approx_eq(x, y))
        }
        _ => false,
    }
}

fn assert_rows_approx_eq(name: &str, var: &str, engine: &[Value], interp: &[Value]) {
    assert_eq!(
        engine.len(),
        interp.len(),
        "{name}/{var}: row counts differ (engine {} vs interpreter {})\nengine: {engine:?}\ninterp: {interp:?}",
        engine.len(),
        interp.len()
    );
    for (e, i) in engine.iter().zip(interp) {
        assert!(
            approx_eq(e, i),
            "{name}/{var}: rows differ\n  engine: {e}\n  interp: {i}"
        );
    }
}

/// Runs a workload both ways and compares every declared output.
fn check_equivalence(w: &Workload) {
    // Engine side.
    let compiled =
        diablo_core::compile(w.source).unwrap_or_else(|e| panic!("{}: compile: {e}", w.name));
    let mut session = Session::new(Context::new(4, 8));
    for (name, v) in &w.scalars {
        session.bind_scalar(name, v.clone());
    }
    for (name, rows) in &w.collections {
        session.bind_input(name, rows.clone());
    }
    session
        .run(&compiled)
        .unwrap_or_else(|e| panic!("{}: engine run: {e}", w.name));

    // Interpreter side.
    let tp = typecheck(parse(w.source).unwrap()).unwrap();
    let mut interp = Interpreter::new();
    for (name, v) in &w.scalars {
        interp.bind_scalar(name, v.clone());
    }
    for (name, rows) in &w.collections {
        interp.bind_collection(name, rows.clone()).unwrap();
    }
    interp
        .run(&tp)
        .unwrap_or_else(|e| panic!("{}: interpreter run: {e}", w.name));

    for out in &w.outputs {
        match (session.scalar(out), interp.scalar(out)) {
            (Some(e), Some(i)) => {
                assert!(
                    approx_eq(&e, &i),
                    "{}/{out}: scalar differs: engine {e} vs interpreter {i}",
                    w.name
                );
                continue;
            }
            (None, None) => {}
            (e, i) => {
                assert!(
                    e.is_none() && i.is_none() || e.is_some() == i.is_some(),
                    "{}/{out}: binding kinds differ ({e:?} vs {i:?})",
                    w.name
                );
            }
        }
        let engine_rows = session
            .collect(out)
            .unwrap_or_else(|| panic!("{}/{out}: engine has no collection", w.name));
        let interp_rows = interp
            .collection(out)
            .unwrap_or_else(|| panic!("{}/{out}: interpreter has no collection", w.name));
        assert_rows_approx_eq(w.name, out, &engine_rows, &interp_rows);
    }
}

#[test]
fn conditional_sum_matches_interpreter() {
    check_equivalence(&diablo_workloads::conditional_sum(3_000, 11));
}

#[test]
fn equal_matches_interpreter() {
    check_equivalence(&diablo_workloads::equal(2_000, 12));
}

#[test]
fn string_match_matches_interpreter() {
    check_equivalence(&diablo_workloads::string_match(2_000, 13));
}

#[test]
fn word_count_matches_interpreter() {
    check_equivalence(&diablo_workloads::word_count(3_000, 14));
}

#[test]
fn histogram_matches_interpreter() {
    check_equivalence(&diablo_workloads::histogram(2_000, 15));
}

#[test]
fn linear_regression_matches_interpreter() {
    check_equivalence(&diablo_workloads::linear_regression(2_000, 16));
}

#[test]
fn group_by_matches_interpreter() {
    check_equivalence(&diablo_workloads::group_by(3_000, 17));
}

#[test]
fn matrix_addition_matches_interpreter() {
    check_equivalence(&diablo_workloads::matrix_addition(20, 18));
}

#[test]
fn matrix_multiplication_matches_interpreter() {
    check_equivalence(&diablo_workloads::matrix_multiplication(10, 19));
}

#[test]
fn pagerank_matches_interpreter() {
    check_equivalence(&diablo_workloads::pagerank(60, 2, 20));
}

#[test]
fn kmeans_matches_interpreter() {
    check_equivalence(&diablo_workloads::kmeans(200, 3, 2, 21));
}

#[test]
fn matrix_factorization_matches_interpreter() {
    check_equivalence(&diablo_workloads::matrix_factorization(12, 2, 2, 22));
}

#[test]
fn table1_only_programs_match_interpreter() {
    for w in [
        diablo_workloads::average(2_000, 23),
        diablo_workloads::conditional_count(2_000, 24),
        diablo_workloads::count(2_000, 25),
        diablo_workloads::equal_frequency(2_000, 26),
        diablo_workloads::sum(2_000, 27),
        diablo_workloads::pca(2_000, 28),
    ] {
        check_equivalence(&w);
    }
}
