//! A generator linked by an equality to the rows bound so far is a join.
//! When its dataset holds few enough rows, the engine builds one key table
//! over them and every worker probes it from the other side's fused chain;
//! otherwise both sides are scattered by key. Either way the rows are the
//! reference evaluator's: each hand-built comprehension below runs through
//! `run_comp` on both layouts, over workers {1, 2, 7} and tile widths
//! {1, 7, default}, and is held to `comp::eval_comp` and, as a multiset,
//! to the partitioned `Dataset::join_on`.

mod common;

use common::Engine;
use diablo_comp::{eval_comp, CExpr, Comprehension, Env, Pattern, Qual};
use diablo_dataflow::{JoinOn, RowExpr, Shape};
use diablo_exec::{run_comp, Session};
use diablo_runtime::{BinOp, RuntimeError, Value};

/// Every configuration a case runs under: the row layout, and the
/// columnar one at three tile widths, each on 1, 2 and 7 workers.
fn configs() -> Vec<(Engine, usize)> {
    let engines = [
        Engine::ROW,
        Engine::COLUMNAR.tile(1),
        Engine::COLUMNAR.tile(7),
        Engine::COLUMNAR,
    ];
    engines
        .into_iter()
        .flat_map(|e| [1, 2, 7].map(|w| (e, w)))
        .collect()
}

fn bin(op: BinOp, a: CExpr, b: CExpr) -> CExpr {
    CExpr::Bin(op, Box::new(a), Box::new(b))
}

fn rbin(op: BinOp, a: RowExpr, b: RowExpr) -> RowExpr {
    RowExpr::Bin(op, Box::new(a), Box::new(b))
}

fn rows(pairs: impl IntoIterator<Item = (i64, Value)>) -> Vec<Value> {
    pairs
        .into_iter()
        .map(|(k, v)| Value::pair(Value::Long(k), v))
        .collect()
}

/// A join of `A`'s `(i, v)` with `B`'s `(j, w)`: the comprehension
/// `{ (i, v, j, w) | (i, v) ← A, guard…, (j, w) ← B, preds… }` and the
/// same join told to `join_on` by its keys.
struct Case {
    a: Vec<Value>,
    b: Vec<Value>,
    /// Conditions on `i` and `v` before `B`'s generator.
    guard: Vec<CExpr>,
    /// The equalities linking `B` to the rows bound so far.
    preds: Vec<CExpr>,
    /// `join_on`'s keys: over `(i, v)`, and over `(j, w)`.
    left_key: RowExpr,
    right_key: RowExpr,
}

impl Case {
    /// A case joining `v == w`.
    fn on_values(a: Vec<Value>, b: Vec<Value>) -> Case {
        Case {
            a,
            b,
            guard: Vec::new(),
            preds: vec![CExpr::eq(CExpr::var("v"), CExpr::var("w"))],
            left_key: RowExpr::Col(1),
            right_key: RowExpr::Col(1),
        }
    }

    fn comp(&self) -> Comprehension {
        let pair = |k: &str, v: &str| Pattern::pair(Pattern::var(k), Pattern::var(v));
        let mut quals = vec![Qual::Gen(pair("i", "v"), CExpr::var("A"))];
        quals.extend(self.guard.iter().cloned().map(Qual::Pred));
        quals.push(Qual::Gen(pair("j", "w"), CExpr::var("B")));
        quals.extend(self.preds.iter().cloned().map(Qual::Pred));
        let head = CExpr::Tuple(["i", "v", "j", "w"].map(CExpr::var).to_vec());
        Comprehension::new(head, quals)
    }

    /// The reference evaluator's rows, sorted.
    fn want(&self) -> Vec<Value> {
        let env = Env::from([
            ("A".to_string(), Value::bag(self.a.clone())),
            ("B".to_string(), Value::bag(self.b.clone())),
        ]);
        let mut want = eval_comp(&self.comp(), &env).expect("the reference evaluates");
        want.sort();
        want
    }

    fn session(&self, engine: Engine, workers: usize) -> Session {
        let mut s = Session::new(engine.context(workers, 4));
        s.bind_input("A", self.a.clone());
        s.bind_input("B", self.b.clone());
        s
    }

    /// The engine's rows, sorted, and the plan trace of the run.
    fn run(&self, engine: Engine, workers: usize) -> (Result<Vec<Value>, RuntimeError>, String) {
        let s = self.session(engine, workers);
        s.context().start_plan_trace();
        let got = run_comp(&self.comp(), &s).and_then(|d| d.try_collect());
        let trace = s.context().take_plan_trace().join("\n");
        let sorted = got.map(|mut rows| {
            rows.sort();
            rows
        });
        (sorted, trace)
    }

    /// The partitioned join's rows on the same engine, sorted; a guard
    /// case has none of these.
    fn partitioned(&self, engine: Engine, workers: usize) -> Vec<Value> {
        assert!(self.guard.is_empty());
        let ctx = engine.context(workers, 4);
        let on = JoinOn {
            left_key: self.left_key.clone(),
            right: Shape::Tuple(vec![Shape::Bind, Shape::Bind]),
            right_key: self.right_key.clone(),
            mismatch: "join pattern (j, w) does not match row".into(),
        };
        let mut rows = ctx
            .from_vec(self.a.clone())
            .join_on(&ctx.from_vec(self.b.clone()), on)
            .and_then(|d| d.try_collect())
            .expect("the partitioned join runs");
        rows.sort();
        rows
    }

    /// Runs the case everywhere, holds every run to both oracles, and
    /// returns one trace.
    fn check(&self, what: &str) -> String {
        let want = self.want();
        let mut trace = String::new();
        for (engine, workers) in configs() {
            let (got, t) = self.run(engine, workers);
            let got = got.unwrap_or_else(|e| panic!("{what}, {engine}, {workers} workers: {e}"));
            assert_eq!(got, want, "{what}, {engine}, {workers} workers");
            assert_eq!(
                got,
                self.partitioned(engine, workers),
                "{what}, {engine}, {workers} workers"
            );
            trace = t;
        }
        trace
    }
}

/// The trace of a join whose right side was built and probed.
fn assert_built(trace: &str, rows: usize) {
    assert!(
        trace.contains(&format!("join build: {rows} rows")),
        "{trace}"
    );
    assert!(!trace.contains("scatter"), "{trace}");
}

#[test]
fn duplicate_build_keys_match_every_build_row_of_the_key() {
    let a = rows((0..40).map(|i| (i, Value::Long(i % 5))));
    let b = rows((0..12).map(|j| (j, Value::Long(j % 3))));
    let case = Case::on_values(a, b);
    // Each left row with v < 3 meets the four build rows of its key.
    assert_eq!(case.want().len(), 24 * 4);
    assert_built(&case.check("duplicate keys"), 12);
}

#[test]
fn an_empty_build_side_matches_nothing() {
    let a = rows((0..40).map(|i| (i, Value::Long(i % 5))));
    let case = Case::on_values(a, Vec::new());
    assert!(case.want().is_empty());
    assert_built(&case.check("empty build side"), 0);
}

#[test]
fn string_and_tuple_keys_match_as_values() {
    let s = |n: i64| Value::str(format!("s{n}"));
    let strings = Case::on_values(
        rows((0..30).map(|i| (i, s(i % 4)))),
        rows((0..9).map(|j| (j, s(j % 6)))),
    );
    assert_built(&strings.check("string keys"), 9);

    let t = |n: i64| Value::pair(Value::Long(n % 3), s(n % 2));
    let tuples = Case::on_values(
        rows((0..30).map(|i| (i, t(i)))),
        rows((0..8).map(|j| (j, t(j)))),
    );
    assert_built(&tuples.check("tuple values"), 8);

    // Two equalities make one tuple key of two fields.
    let parity = |e: CExpr| bin(BinOp::Mod, e, CExpr::long(2));
    let rparity = |c: usize| rbin(BinOp::Mod, RowExpr::Col(c), RowExpr::Const(Value::Long(2)));
    let two = Case {
        preds: vec![
            CExpr::eq(CExpr::var("v"), CExpr::var("w")),
            CExpr::eq(parity(CExpr::var("i")), parity(CExpr::var("j"))),
        ],
        left_key: RowExpr::Tuple(vec![RowExpr::Col(1), rparity(0)]),
        right_key: RowExpr::Tuple(vec![RowExpr::Col(1), rparity(0)]),
        ..Case::on_values(
            rows((0..30).map(|i| (i, Value::Long(i % 4)))),
            rows((0..10).map(|j| (j, Value::Long(j % 3)))),
        )
    };
    assert!(!two.want().is_empty());
    assert_built(&two.check("two-field key"), 10);
}

#[test]
fn double_keys_match_exactly_as_the_partitioned_join_matches_them() {
    // NaN meets NaN, 0.0 and -0.0 are two keys, and 1 meets 1.0.
    let d = Value::Double;
    let a = rows(
        [d(f64::NAN), d(0.0), d(-0.0), Value::Long(1), d(1.0), d(2.5)]
            .into_iter()
            .enumerate()
            .map(|(i, v)| (i as i64, v)),
    );
    let b = rows(
        [d(f64::NAN), d(-0.0), d(1.0), Value::Long(1), d(0.0), d(7.0)]
            .into_iter()
            .enumerate()
            .map(|(j, v)| (j as i64, v)),
    );
    let case = Case::on_values(a.clone(), b);
    // NaN once, 0.0 once, -0.0 once, and 1 and 1.0 twice each.
    assert_eq!(case.want().len(), 7);
    assert_built(&case.check("double keys"), 6);

    // Longs on the build side, close together: 0.0 meets 0, 1 and 1.0
    // meet 1, and NaN, -0.0 and 2.5 meet nothing.
    let longs = Case::on_values(a, rows((-2..5).map(|j| (j, Value::Long(j)))));
    assert_eq!(longs.want().len(), 3);
    assert_built(&longs.check("long build keys"), 7);
}

#[test]
fn a_right_side_over_the_cap_takes_the_partitioned_join() {
    // One row over the engine's build cap of 1 << 16 rows.
    const OVER: i64 = (1 << 16) + 1;
    let a = rows((0..6).map(|i| (i, Value::Long(i * 1000))));
    let b = rows((0..OVER).map(|j| (j, Value::Long(j))));
    let case = Case::on_values(a, b);
    assert_eq!(case.want().len(), 6);
    let trace = case.check("over the cap");
    assert!(
        trace.contains(&format!("join partitioned: {OVER} rows over the cap")),
        "{trace}"
    );
    assert!(trace.contains("⇒ join (scatter left)"), "{trace}");
    assert!(trace.contains("⇒ join (scatter right)"), "{trace}");
}

#[test]
fn a_heavy_build_key_meets_its_probe_rows_in_batch_wide_pieces() {
    // Build key 0 holds 3 000 rows, keys 1..=40 one each: a probe row of
    // key 0 expands past any tile width, the others to one row or none.
    let a = rows((0..200).map(|i| (i, Value::Long(i % 50))));
    let b = rows(
        (0..3000)
            .map(|j| (j, 0))
            .chain((1..=40).map(|k| (3000 + k, k)))
            .map(|(j, k)| (j, Value::Long(k))),
    );
    let case = Case::on_values(a, b);
    assert_eq!(case.want().len(), 4 * 3000 + 160);
    assert_built(&case.check("a heavy key"), 3040);
}

#[test]
fn a_pending_right_side_over_the_cap_is_forced_into_the_dataset_cache() {
    // `B` is a plan still pending when the join reads it (its rows swapped
    // twice), under a dataset budget of 4 KiB. The join forces it once,
    // into the dataset cache, which charges and spills it; the partitioned
    // join then scatters the cached rows.
    const OVER: i64 = (1 << 16) + 1;
    let a = rows((0..6).map(|i| (i, Value::Long(i * 1000))));
    let case = Case::on_values(a, rows((0..OVER).map(|j| (j, Value::Long(j)))));
    let swap = RowExpr::Tuple(vec![RowExpr::Col(1), RowExpr::Col(0)]);
    for engine in [Engine::ROW, Engine::COLUMNAR] {
        let ctx = engine.context(2, 4).with_dataset_budget(4096);
        let b = ctx
            .from_vec(case.b.clone())
            .map_expr(swap.clone())
            .and_then(|b| b.map_expr(swap.clone()))
            .expect("a pending plan");
        let mut s = Session::new(ctx.clone());
        s.bind_input("A", case.a.clone());
        s.bind_dataset("B", b);
        let before = ctx.stats().snapshot();
        ctx.start_plan_trace();
        let mut got = run_comp(&case.comp(), &s)
            .and_then(|d| d.try_collect())
            .unwrap_or_else(|e| panic!("{engine}: {e}"));
        let trace = ctx.take_plan_trace().join("\n");
        let after = ctx.stats().snapshot();
        got.sort();
        assert_eq!(got, case.want(), "{engine}");
        assert!(
            trace.contains(&format!("join partitioned: {OVER} rows over the cap")),
            "{engine}: {trace}"
        );
        // `B`'s chain, then the two scatters, then the build–probe.
        assert_eq!(
            after.physical_stages - before.physical_stages,
            4,
            "{engine}: {trace}"
        );
        assert!(after.dataset_spills > before.dataset_spills, "{engine}");
    }
}

/// `B` with a row its pattern `(j, w)` does not fit.
fn unfit_b() -> Vec<Value> {
    let mut b = rows((0..6).map(|j| (j, Value::Long(j))));
    b.insert(3, Value::Long(77));
    b
}

#[test]
fn an_unfit_build_row_reached_by_a_probe_row_names_that_row() {
    let case = Case::on_values(rows((0..20).map(|i| (i, Value::Long(i % 4)))), unfit_b());
    for (engine, workers) in configs() {
        let (got, _) = case.run(engine, workers);
        let err = got.expect_err("an unfit build row fails the join");
        assert!(
            err.message.starts_with("join pattern")
                && err.message.ends_with("does not match row 77"),
            "{engine}, {workers} workers: {err}"
        );
    }
}

#[test]
fn an_unfit_build_row_no_probe_row_reaches_raises_nothing() {
    // No row of `A` passes the guard, so none reaches the join.
    let case = Case {
        guard: vec![bin(BinOp::Lt, CExpr::var("i"), CExpr::long(0))],
        ..Case::on_values(rows((0..20).map(|i| (i, Value::Long(i % 4)))), unfit_b())
    };
    for (engine, workers) in configs() {
        let (got, trace) = case.run(engine, workers);
        assert_eq!(got, Ok(Vec::new()), "{engine}, {workers} workers");
        assert_built(&trace, 7);
    }
}
