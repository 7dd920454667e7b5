//! The rewrite driver's work, asserted without a clock.
//!
//! `RewriteStats::visits` counts comprehension visits — the driver's unit
//! of work, and a deterministic one. These tests pin three things: the
//! fuel bound is far away from every real program, the work is linear in
//! the number of statements, and on the two programs with the longest
//! qualifier lists it is bounded by a recorded constant per qualifier.
//! The splice pass that follows the driver fires once per copy. A
//! pass that becomes super-linear in statements or in qualifiers per
//! comprehension fails here, on any machine.

use std::collections::HashSet;

use diablo_comp::ir::CExpr;
use diablo_comp::rewrite::FUEL;
use diablo_comp::RewriteStats;
use diablo_core::{optimize_program, translate_raw, CompiledProgram, TStmt};
use diablo_lang::{Program, Stmt};
use diablo_workloads::programs::{all_programs, KMEANS, MATRIX_FACTORIZATION};

fn raw(src: &str) -> CompiledProgram {
    let typed = diablo_lang::typecheck(diablo_lang::parse(src).expect("parses")).expect("types");
    translate_raw(&typed).expect("translates")
}

fn rewrites(src: &str) -> RewriteStats {
    optimize_program(raw(src)).1
}

/// Names a program declares: inputs, variables and loop indexes.
fn declared_names(p: &Program) -> HashSet<String> {
    fn walk(s: &Stmt, names: &mut HashSet<String>) {
        match s {
            Stmt::Decl { name, .. } => {
                names.insert(name.clone());
            }
            Stmt::For { var, body, .. } | Stmt::ForIn { var, body, .. } => {
                names.insert(var.clone());
                walk(body, names);
            }
            Stmt::While { body, .. } => walk(body, names),
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                walk(then_branch, names);
                else_branch.iter().for_each(|e| walk(e, names));
            }
            Stmt::Block(ss) => ss.iter().for_each(|s| walk(s, names)),
            Stmt::Incr { .. } | Stmt::Assign { .. } => {}
        }
    }
    let mut names: HashSet<String> = p.inputs.iter().map(|(n, _)| n.clone()).collect();
    p.body.iter().for_each(|s| walk(s, &mut names));
    names
}

/// `src` with `suffix` appended to every name it declares; a word after a
/// `.` is a record field and stays, as does the inside of a string literal.
fn renamed(src: &str, suffix: &str) -> String {
    let names = declared_names(&diablo_lang::parse(src).expect("parses"));
    let mut out = String::new();
    let (mut word, mut after_dot, mut in_string) = (String::new(), false, false);
    for c in src.chars().chain(std::iter::once('\n')) {
        if !in_string && (c.is_ascii_alphanumeric() || c == '_') {
            word.push(c);
            continue;
        }
        if !word.is_empty() {
            out.push_str(&word);
            if !after_dot && names.contains(&word) {
                out.push_str(suffix);
            }
            after_dot = false;
            word.clear();
        }
        out.push(c);
        in_string ^= c == '"';
        if !c.is_whitespace() {
            after_dot = c == '.';
        }
    }
    out
}

/// Several programs as one source: every `input` line first, then the rest.
fn one_source(programs: impl Iterator<Item = String>) -> String {
    let (mut inputs, mut body) = (String::new(), String::new());
    for program in programs {
        for line in program.lines() {
            let to = if line.trim_start().starts_with("input ") {
                &mut inputs
            } else {
                &mut body
            };
            to.push_str(line);
            to.push('\n');
        }
    }
    inputs + &body
}

/// `k` copies of `src`, renamed apart, in one source.
fn copies(src: &str, k: usize) -> String {
    one_source((0..k).map(|n| renamed(src, &format!("_{n}"))))
}

/// The spine's wide program in spirit: 40 renamed copies of the Table 1
/// programs, every one at least twice, in one source.
fn wide_program() -> String {
    let corpus = all_programs();
    one_source((0..40).map(|n| renamed(corpus[n % corpus.len()].1, &format!("_{n}"))))
}

/// Qualifiers of every comprehension in the target code.
fn qualifiers(stmts: &[TStmt]) -> usize {
    fn of(e: &CExpr) -> usize {
        match e {
            CExpr::Var(_) | CExpr::Const(_) => 0,
            CExpr::Bin(_, a, b) | CExpr::Range(a, b) => of(a) + of(b),
            CExpr::Merge { left, right, .. } => of(left) + of(right),
            CExpr::Un(_, a) | CExpr::Proj(a, _) | CExpr::Agg(_, a) => of(a),
            CExpr::Call(_, args) | CExpr::Tuple(args) => args.iter().map(of).sum(),
            CExpr::Record(fs) => fs.iter().map(|(_, f)| of(f)).sum(),
            CExpr::Comp(c) => {
                c.quals.len() + of(&c.head) + c.quals.iter().map(|q| of(q.expr())).sum::<usize>()
            }
        }
    }
    stmts
        .iter()
        .map(|s| match s {
            TStmt::Assign { value, .. } => of(value),
            TStmt::While { cond, body } => of(cond) + qualifiers(body),
        })
        .sum()
}

#[test]
fn every_rule_is_named_once() {
    let stats = RewriteStats::default();
    let names: HashSet<&str> = stats.fires.iter().map(|(name, _)| *name).collect();
    assert_eq!(names.len(), stats.fires.len(), "{:?}", stats.fires);
    for rule in ["unnest", "inline_lets", "push_preds", "rule16", "rule17"] {
        assert!(names.contains(rule), "{rule} missing from {names:?}");
    }
}

/// No program — in total, over all its statements — spends a tenth of the
/// fuel a *single* expression may spend.
#[test]
fn no_program_comes_near_the_fuel_bound() {
    for (name, src) in all_programs() {
        let visits = rewrites(src).visits;
        assert!(visits * 10 < FUEL, "{name}: {visits} visits, fuel {FUEL}");
    }
    let wide = rewrites(&wide_program());
    assert!(wide.visits > 500, "the wide program is wide: {wide}");
    assert!(wide.visits * 10 < FUEL, "wide program: {wide}, fuel {FUEL}");
}

/// Optimized target code is a fixpoint: a second run visits every
/// comprehension once and fires nothing.
#[test]
fn optimized_programs_are_fixpoints() {
    for (name, src) in all_programs() {
        let (optimized, _) = optimize_program(raw(src));
        let (again, second) = optimize_program(optimized.clone());
        assert_eq!(again.stmts, optimized.stmts, "{name}");
        assert!(
            second.fires.iter().all(|(_, n)| *n == 0),
            "{name}: {second}"
        );
    }
}

#[test]
fn work_is_linear_in_statements() {
    for (name, src) in all_programs() {
        let one = rewrites(src);
        for k in [1, 4, 16] {
            let many = rewrites(&copies(src, k));
            assert_eq!(many.visits, k as u64 * one.visits, "{name} × {k}");
            for (all, single) in many.fires.iter().zip(&one.fires) {
                assert_eq!(all.1, k as u64 * single.1, "{name} × {k}: {}", all.0);
            }
        }
    }
}

/// The splice pass (`splice_arrays`, run after the optimizer) fires on
/// K-Means' `closest` and on no other Table 1 array, once per renamed copy
/// in one source: its work follows the statements, as the driver's does.
#[test]
fn the_splice_fires_once_per_copy_of_kmeans() {
    let spliced = |src: &str| {
        let mut program = optimize_program(raw(src)).0;
        diablo_core::splice_arrays(&mut program)
    };
    for (name, src) in all_programs() {
        let want: &[&str] = if name == "KMeans" { &["closest"] } else { &[] };
        assert_eq!(spliced(src), want, "{name}");
    }
    for k in [1, 4, 16] {
        let want: Vec<String> = (0..k).map(|n| format!("closest_{n}")).collect();
        assert_eq!(spliced(&copies(KMEANS, k)), want, "KMeans × {k}");
    }
    // The wide program holds K-Means twice, as copies 12 and 30.
    assert_eq!(spliced(&wide_program()), ["closest_12", "closest_30"]);
}

/// Recorded with the driver: K-Means 27 visits for the 143 qualifiers of
/// its raw target code, Matrix Factorization 45 for 286 — the two longest
/// qualifier lists of the corpus. One visit per four raw qualifiers leaves
/// room for a rule or two more, not for a rule that costs its
/// comprehension a revisit per qualifier.
#[test]
fn work_is_bounded_per_qualifier() {
    for (name, src) in [
        ("KMeans", KMEANS),
        ("Matrix Factorization", MATRIX_FACTORIZATION),
    ] {
        let raw = raw(src);
        let quals = qualifiers(&raw.stmts) as u64;
        let visits = optimize_program(raw).1.visits;
        assert!(
            4 * visits <= quals,
            "{name}: {visits} visits for {quals} qualifiers"
        );
    }
}
