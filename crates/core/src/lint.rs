//! Program lints: warnings for *accepted* programs.
//!
//! The §3.2 analysis ([`crate::analysis`]) decides whether a loop is
//! parallelizable at all; these passes explain what the accepted program
//! will *cost* and flag likely mistakes:
//!
//! * **D020 shuffle forecast** — an incremental update whose compiled form
//!   still carries a group-by after optimization. Rule (17) eliminates the
//!   group-by when the key is the unique affine destination subscript;
//!   whatever survives re-partitions values by key on every execution.
//! * **D021 non-monoid aggregation** — a self-assignment `x := x - e` /
//!   `x := x / e` whose merge is not associative/commutative, so it can
//!   never become a parallel aggregation.
//! * **D022 unused** — a declared variable or bound input dataset never
//!   referenced by any statement.
//! * **D023 dead store** — a whole-variable assignment overwritten before
//!   the value is ever read.
//! * **D024 bounds** — an affine subscript over a constant-range loop that
//!   provably goes negative.
//! * **D025 row fallback** — a collection-scanning chain with a step the
//!   engine cannot see through — an opaque expression (a record
//!   constructor, bag aggregation, nested comprehension, …), a group-by
//!   that builds whole groups (one whose grouped variables are only folded
//!   by monoids is keyed and aggregated in typed columns), a second
//!   generator over a range or a per-row bag (one over a collection is a
//!   join or a broadcast cross the engine is told as data) — so the default
//!   (columnar) engine runs that stage tuple-at-a-time. Like the pipeline
//!   builder it starts at `Comprehension::first_source`: what precedes the
//!   source runs on the driver and is crossed into the source rows as
//!   data, so it never falls back. Fires exactly when the run reports
//!   `row_fallback_stages > 0` (held by `tests/lint_workloads.rs` and, on
//!   hand-built programs, `tests/opaque_rows.rs`).
//!
//! Lints only run on programs that already passed the restriction checks,
//! so patterns the analysis rejects (e.g. non-monoid updates *inside*
//! for-loops) never reach them.

use std::collections::HashSet;

use diablo_comp::ir::{CExpr, Comprehension, Pattern, Qual};
use diablo_comp::pushdown::{agg_col_name, join_keys, push_down_aggs};
use diablo_diag::{codes, Diagnostic, Span};
use diablo_lang::ast::{Const, DeclInit, Expr, Lhs, Stmt};
use diablo_lang::pretty::{pretty_expr, pretty_lhs};
use diablo_lang::types::TypedProgram;
use diablo_runtime::BinOp;

use crate::target::{CompiledProgram, TStmt};

/// Runs every lint pass over an accepted program. `compiled` must be the
/// result of translating `tp`. Diagnostics come back ordered by pass
/// (shuffle forecast, non-monoid, unused, dead store, bounds, row
/// fallback).
pub fn lint_program(tp: &TypedProgram, compiled: &CompiledProgram) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    shuffle_forecast(tp, compiled, &mut out);
    non_monoid(tp, &mut out);
    unused(tp, &mut out);
    dead_stores(tp, &mut out);
    bounds(tp, &mut out);
    row_fallback(tp, compiled, &mut out);
    out
}

// ------------------------------------------------------------- D020

fn shuffle_forecast(tp: &TypedProgram, compiled: &CompiledProgram, out: &mut Vec<Diagnostic>) {
    let mut shuffling: Vec<String> = Vec::new();
    collect_shuffling(&compiled.stmts, &mut shuffling);
    for name in shuffling {
        let incr = find_incr(&tp.program.body, &name);
        let (span, subscript) = match &incr {
            Some((dest, span)) => {
                let idxs: Vec<String> = dest.index_exprs().iter().map(|e| pretty_expr(e)).collect();
                let subscript = if idxs.is_empty() {
                    format!("`{}`", pretty_lhs(dest))
                } else {
                    format!("`[{}]`", idxs.join(", "))
                };
                (*span, subscript)
            }
            None => (Span::SYNTH, "its subscript".to_string()),
        };
        out.push(
            Diagnostic::warning(
                codes::SHUFFLE,
                format!(
                    "update of `{name}` compiles to a group-by shuffle: subscript {subscript} \
                     is not the unique affine key of the enclosing loop, so Rule (17) cannot \
                     eliminate the group-by"
                ),
                span,
            )
            .with_help(
                "every execution re-partitions the aggregated values by key; this is \
                 inherent when grouping by data (word count, histograms) but worth a look \
                 when the subscript could be rewritten to cover the loop indexes",
            ),
        );
    }
}

fn collect_shuffling(stmts: &[TStmt], out: &mut Vec<String>) {
    for s in stmts {
        match s {
            TStmt::Assign { name, value, .. } => {
                if value.contains_group_by() && !out.contains(name) {
                    out.push(name.clone());
                }
            }
            TStmt::While { cond, body } => {
                if cond.contains_group_by() {
                    out.push("<while condition>".to_string());
                }
                collect_shuffling(body, out);
            }
        }
    }
}

/// Finds the first incremental update of `name` (recursing into loop and
/// branch bodies) so the warning lands on the source statement.
fn find_incr<'a>(stmts: &'a [Stmt], name: &str) -> Option<(&'a Lhs, Span)> {
    for s in stmts {
        let found = match s {
            Stmt::Incr { dest, span, .. } if dest.base_var() == name => Some((dest, *span)),
            Stmt::For { body, .. } | Stmt::ForIn { body, .. } | Stmt::While { body, .. } => {
                find_incr(std::slice::from_ref(body), name)
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => find_incr(std::slice::from_ref(then_branch), name).or_else(|| {
                else_branch
                    .as_deref()
                    .and_then(|e| find_incr(std::slice::from_ref(e), name))
            }),
            Stmt::Block(ss) => find_incr(ss, name),
            _ => None,
        };
        if found.is_some() {
            return found;
        }
    }
    None
}

// ------------------------------------------------------------- D021

fn non_monoid(tp: &TypedProgram, out: &mut Vec<Diagnostic>) {
    visit_stmts(&tp.program.body, &mut |s| {
        let Stmt::Assign { dest, value, span } = s else {
            return;
        };
        let Expr::Bin(op, lhs, rhs) = value else {
            return;
        };
        if !matches!(op, BinOp::Sub | BinOp::Div | BinOp::Mod) {
            return;
        }
        let self_ref = |e: &Expr| matches!(e, Expr::Dest(d) if d == dest);
        if !self_ref(lhs) && !self_ref(rhs) {
            return;
        }
        let d = pretty_lhs(dest);
        let sym = match op {
            BinOp::Sub => "-",
            BinOp::Div => "/",
            _ => "%",
        };
        let mut diag = Diagnostic::warning(
            codes::NON_MONOID,
            format!(
                "`{d} := {d} {sym} ...`-style update: `{sym}` is not \
                 associative/commutative, so this cannot become a parallel aggregation"
            ),
            *span,
        );
        if *op == BinOp::Sub {
            diag = diag.with_help(format!(
                "rewrite as `{d} += -(...)` so the merge is a commutative sum"
            ));
        }
        out.push(diag);
    });
}

// ------------------------------------------------------------- D022

fn unused(tp: &TypedProgram, out: &mut Vec<Diagnostic>) {
    // A name is used when any statement reads it or writes it (writing an
    // output *is* its use — results are read by the driver).
    let mut used: HashSet<String> = HashSet::new();
    let mut decl_of: Vec<(String, Span, bool)> = tp
        .program
        .inputs
        .iter()
        .map(|(n, _)| (n.clone(), Span::SYNTH, true))
        .collect();
    visit_stmts(&tp.program.body, &mut |s| {
        match s {
            Stmt::Decl {
                name, span, init, ..
            } => {
                decl_of.push((name.clone(), *span, false));
                if let DeclInit::Expr(e) = init {
                    mark_expr(e, &mut used);
                }
            }
            Stmt::Assign { dest, value, .. } | Stmt::Incr { dest, value, .. } => {
                used.insert(dest.base_var().to_string());
                for e in dest.index_exprs() {
                    mark_expr(e, &mut used);
                }
                mark_expr(value, &mut used);
            }
            Stmt::For { lo, hi, .. } => {
                mark_expr(lo, &mut used);
                mark_expr(hi, &mut used);
            }
            Stmt::ForIn { source, .. } => mark_expr(source, &mut used),
            Stmt::While { cond, .. } | Stmt::If { cond, .. } => mark_expr(cond, &mut used),
            Stmt::Block(_) => {}
        };
    });
    for (name, span, is_input) in decl_of {
        if !used.contains(&name) {
            let what = if is_input {
                "input dataset"
            } else {
                "variable"
            };
            out.push(
                Diagnostic::warning(
                    codes::UNUSED,
                    format!("{what} `{name}` is never used"),
                    span,
                )
                .with_help("remove the declaration, or wire it into the computation"),
            );
        }
    }
}

fn mark_expr(e: &Expr, used: &mut HashSet<String>) {
    let mut vars = Vec::new();
    e.free_vars(&mut vars);
    used.extend(vars);
    let mut dests = Vec::new();
    e.destinations(&mut dests);
    for d in dests {
        used.insert(d.base_var().to_string());
    }
}

// ------------------------------------------------------------- D023

fn dead_stores(tp: &TypedProgram, out: &mut Vec<Diagnostic>) {
    dead_stores_seq(&tp.program.body, out);
    // Straight-line sequences also occur inside blocks; control-flow bodies
    // are scanned as their own sequences.
    visit_blocks(&tp.program.body, &mut |ss| dead_stores_seq(ss, out));
}

fn dead_stores_seq(stmts: &[Stmt], out: &mut Vec<Diagnostic>) {
    for (i, s) in stmts.iter().enumerate() {
        let (name, span) = match s {
            Stmt::Assign {
                dest: Lhs::Var(v),
                span,
                ..
            } => (v, *span),
            _ => continue,
        };
        for later in &stmts[i + 1..] {
            match later {
                // A later whole-variable overwrite whose value doesn't read
                // the variable: the earlier store is dead.
                Stmt::Assign {
                    dest: Lhs::Var(v),
                    value,
                    span: kill_span,
                    ..
                } if v == name => {
                    if !reads_var(value, name) {
                        out.push(
                            Diagnostic::warning(
                                codes::DEAD_STORE,
                                format!(
                                    "value assigned to `{name}` is overwritten before it is \
                                     ever read"
                                ),
                                span,
                            )
                            .with_label(*kill_span, format!("`{name}` is overwritten here")),
                        );
                    }
                    break;
                }
                // Any other statement that might read the variable — or any
                // control flow, treated conservatively as a read — keeps the
                // store alive.
                other => {
                    if stmt_may_read(other, name) {
                        break;
                    }
                }
            }
        }
    }
}

fn stmt_may_read(s: &Stmt, name: &str) -> bool {
    match s {
        Stmt::Assign { dest, value, .. } | Stmt::Incr { dest, value, .. } => {
            reads_var(value, name)
                || dest.index_exprs().iter().any(|e| reads_var(e, name))
                || (dest.base_var() == name && !matches!(dest, Lhs::Var(_)))
                || matches!(s, Stmt::Incr { .. }) && dest.base_var() == name
        }
        Stmt::Decl {
            init: DeclInit::Expr(e),
            ..
        } => reads_var(e, name),
        Stmt::Decl { .. } => false,
        // Control flow: conservatively a read (the body may use it any
        // number of iterations later).
        Stmt::For { .. } | Stmt::ForIn { .. } | Stmt::While { .. } | Stmt::If { .. } => true,
        Stmt::Block(_) => true,
    }
}

fn reads_var(e: &Expr, name: &str) -> bool {
    let mut vars = Vec::new();
    e.free_vars(&mut vars);
    if vars.iter().any(|v| v == name) {
        return true;
    }
    let mut dests = Vec::new();
    e.destinations(&mut dests);
    dests.iter().any(|d| d.base_var() == name)
}

// ------------------------------------------------------------- D024

#[derive(Clone, Copy)]
struct Interval {
    lo: i64,
    hi: i64,
}

fn bounds(tp: &TypedProgram, out: &mut Vec<Diagnostic>) {
    bounds_walk(&tp.program.body, &mut Vec::new(), out);
}

/// `ranges` holds `(loop var, interval)` for enclosing constant-range
/// for-loops.
fn bounds_walk(stmts: &[Stmt], ranges: &mut Vec<(String, Interval)>, out: &mut Vec<Diagnostic>) {
    for s in stmts {
        match s {
            Stmt::For {
                var, lo, hi, body, ..
            } => {
                let range = match (const_long(lo), const_long(hi)) {
                    (Some(lo), Some(hi)) if lo <= hi => Some(Interval { lo, hi }),
                    _ => None,
                };
                let pushed = range.is_some();
                if let Some(r) = range {
                    ranges.push((var.clone(), r));
                }
                bounds_walk(std::slice::from_ref(body), ranges, out);
                if pushed {
                    ranges.pop();
                }
            }
            Stmt::ForIn { body, .. } | Stmt::While { body, .. } => {
                bounds_walk(std::slice::from_ref(body), ranges, out);
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                bounds_walk(std::slice::from_ref(then_branch), ranges, out);
                if let Some(e) = else_branch {
                    bounds_walk(std::slice::from_ref(e), ranges, out);
                }
            }
            Stmt::Block(ss) => bounds_walk(ss, ranges, out),
            Stmt::Assign { dest, span, .. } | Stmt::Incr { dest, span, .. } => {
                for idx in dest.index_exprs() {
                    let Some(iv) = interval_of(idx, ranges) else {
                        continue;
                    };
                    if iv.hi < 0 {
                        out.push(Diagnostic::warning(
                            codes::BOUNDS,
                            format!(
                                "subscript `{}` of `{}` is always negative (range [{}, {}])",
                                pretty_expr(idx),
                                dest.base_var(),
                                iv.lo,
                                iv.hi
                            ),
                            *span,
                        ));
                    } else if iv.lo < 0 {
                        out.push(Diagnostic::warning(
                            codes::BOUNDS,
                            format!(
                                "subscript `{}` of `{}` can be negative (range [{}, {}]) for \
                                 some iterations of the enclosing constant-range loop",
                                pretty_expr(idx),
                                dest.base_var(),
                                iv.lo,
                                iv.hi
                            ),
                            *span,
                        ));
                    }
                }
            }
            Stmt::Decl { .. } => {}
        }
    }
}

fn const_long(e: &Expr) -> Option<i64> {
    match e {
        Expr::Const(Const::Long(n)) => Some(*n),
        Expr::Un(diablo_runtime::UnOp::Neg, a) => const_long(a)?.checked_neg(),
        Expr::Bin(op, a, b) => {
            let (a, b) = (const_long(a)?, const_long(b)?);
            match op {
                BinOp::Add => a.checked_add(b),
                BinOp::Sub => a.checked_sub(b),
                BinOp::Mul => a.checked_mul(b),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Interval-evaluates an affine subscript over the constant loop ranges.
/// Returns `None` when the expression mentions anything with an unknown
/// range.
fn interval_of(e: &Expr, ranges: &[(String, Interval)]) -> Option<Interval> {
    match e {
        Expr::Const(Const::Long(n)) => Some(Interval { lo: *n, hi: *n }),
        Expr::Dest(Lhs::Var(v)) => ranges.iter().find(|(n, _)| n == v).map(|(_, iv)| *iv),
        Expr::Un(diablo_runtime::UnOp::Neg, a) => {
            let iv = interval_of(a, ranges)?;
            Some(Interval {
                lo: iv.hi.checked_neg()?,
                hi: iv.lo.checked_neg()?,
            })
        }
        Expr::Bin(BinOp::Add, a, b) => {
            let (a, b) = (interval_of(a, ranges)?, interval_of(b, ranges)?);
            Some(Interval {
                lo: a.lo.checked_add(b.lo)?,
                hi: a.hi.checked_add(b.hi)?,
            })
        }
        Expr::Bin(BinOp::Sub, a, b) => {
            let (a, b) = (interval_of(a, ranges)?, interval_of(b, ranges)?);
            Some(Interval {
                lo: a.lo.checked_sub(b.hi)?,
                hi: a.hi.checked_sub(b.lo)?,
            })
        }
        Expr::Bin(BinOp::Mul, a, b) => {
            let (a, b) = (interval_of(a, ranges)?, interval_of(b, ranges)?);
            let corners = [
                a.lo.checked_mul(b.lo)?,
                a.lo.checked_mul(b.hi)?,
                a.hi.checked_mul(b.lo)?,
                a.hi.checked_mul(b.hi)?,
            ];
            Some(Interval {
                lo: *corners.iter().min().expect("non-empty"),
                hi: *corners.iter().max().expect("non-empty"),
            })
        }
        _ => None,
    }
}

// ------------------------------------------------------------- D025

/// Names the first opaque construct inside an expression with no `RowExpr`
/// form, for the warning text. Whether it has one is
/// [`CExpr::has_row_form`], the predicate the exec crate's pipeline
/// builder lowers by, so the forecast and the engine cannot disagree.
fn opaque_kind(e: &CExpr) -> &'static str {
    match e {
        CExpr::Record(_) => "a record constructor",
        CExpr::Agg(_, _) => "a bag aggregation",
        CExpr::Comp(_) => "a nested comprehension",
        CExpr::Merge { .. } => "an array merge",
        CExpr::Range(_, _) => "a range expression",
        CExpr::Bin(_, a, b) => {
            if a.has_row_form() {
                opaque_kind(b)
            } else {
                opaque_kind(a)
            }
        }
        CExpr::Un(_, a) | CExpr::Proj(a, _) => opaque_kind(a),
        CExpr::Call(_, args) | CExpr::Tuple(args) => args
            .iter()
            .find(|a| !a.has_row_form())
            .map(opaque_kind)
            .unwrap_or("an opaque expression"),
        CExpr::Var(_) | CExpr::Const(_) => "an opaque expression",
    }
}

/// What to do about an opaque expression.
const HELP_REWRITE: &str = "the stage still runs (row path; reported as `row_fallback_stages` in \
     the run stats and as `layout: row` in the plan trace); rewrite the opaque expression with \
     arithmetic/tuple/projection forms if scan performance matters";

/// What to expect of a step that moves boxed rows.
const HELP_INHERENT: &str = "the stage still runs (row path; reported as `row_fallback_stages` in \
     the run stats and as `layout: row` in the plan trace); range and bag expansions and \
     group-bys that build whole groups move boxed rows, so only the chain's arithmetic, its \
     joins with collections and its monoid aggregations (`+=`, `min=`, …) can be made columnar";

/// A D025 finding: why a stage falls back, and what to do about it.
type Fallback = (String, &'static str);

fn opaque_expr(e: &CExpr, what: &str) -> Option<Fallback> {
    (!e.has_row_form()).then(|| {
        (
            format!(
                "{what} contains {}, which has no columnar form",
                opaque_kind(e)
            ),
            HELP_REWRITE,
        )
    })
}

fn inherent(reason: &str) -> Option<Fallback> {
    Some((reason.to_string(), HELP_INHERENT))
}

/// The first step of a comprehension's engine pipeline that the pipeline
/// builder (the exec crate's `run_comp`) can only express as an opaque
/// closure — or `None` when every step of the chain is transparent, or
/// the comprehension never reaches the engine. `is_collection` recognizes
/// the program's dataset variables. Both split the comprehension at
/// [`Comprehension::first_source`]: the driver prefix before it runs on
/// the driver, and its bindings are crossed into the source rows as data.
fn first_opaque_step(c: &Comprehension, is_collection: &dyn Fn(&str) -> bool) -> Option<Fallback> {
    let first = c.first_source(is_collection)?;
    let mut cols = Vec::new();
    for q in &c.quals[..=first] {
        q.each_bound(&mut |v| cols.push(v.to_string()));
    }
    first_opaque_after_source(&c.quals[first + 1..], &c.head, cols, is_collection)
}

/// [`first_opaque_step`] once a source is being scanned: `quals` and
/// `head` are what follows, `cols` the variables the pipeline's rows
/// carry so far.
fn first_opaque_after_source(
    quals: &[Qual],
    head: &CExpr,
    mut cols: Vec<String>,
    is_collection: &dyn Fn(&str) -> bool,
) -> Option<Fallback> {
    // Equalities a join consumed: they never run as filters.
    let mut consumed: HashSet<usize> = HashSet::new();
    for (i, q) in quals.iter().enumerate() {
        let hit = match q {
            Qual::Gen(_, CExpr::Range(_, _)) => {
                inherent("a second generator expands every scanned row over a range")
            }
            // A second generator over a dataset: the pipeline builder
            // tells the engine the join keys (or, without any, the
            // broadcast rows) and the pattern's shape; a key that does not
            // convert is computed by a closure first.
            Qual::Gen(p, dom) if dom.is_source_domain(is_collection) => {
                let row_vars: HashSet<String> = cols.iter().cloned().collect();
                let pat_vars: HashSet<String> = p.var_list().into_iter().collect();
                let keys = join_keys(quals, i, &row_vars, &pat_vars, &|v| {
                    !row_vars.contains(v) && !pat_vars.contains(v) && !is_collection(v)
                });
                consumed.extend(keys.iter().map(|k| k.pred));
                cols.extend(p.var_list());
                keys.iter()
                    .map(|k| &k.left)
                    .chain(keys.iter().map(|k| &k.right))
                    .find_map(|key| opaque_expr(key, "a join key"))
            }
            Qual::Gen(_, _) => {
                inherent("a second generator expands every scanned row over a bag computed from it")
            }
            Qual::Let(Pattern::Var(v), e) => {
                cols.push(v.clone());
                opaque_expr(e, "a let binding")
            }
            Qual::Let(_, _) => inherent("a let binding destructures its value"),
            Qual::Pred(_) if consumed.contains(&i) => None,
            Qual::Pred(e) => opaque_expr(e, "a condition"),
            Qual::GroupBy(p, key) => {
                // What the pipeline builder does: when everything after
                // the group-by only aggregates the lifted variables with
                // monoids, it keys and folds typed columns and carries on
                // over the aggregates; otherwise it builds the groups.
                let key_vars = p.var_list();
                cols.retain(|c| !key_vars.contains(c));
                let lifted: HashSet<String> = cols.into_iter().collect();
                let Some(pushed) = push_down_aggs(&lifted, &quals[i + 1..], head) else {
                    return inherent(
                        "its group-by builds whole groups: a grouped variable is used outside \
                         a monoid aggregation",
                    );
                };
                let mut cols = key_vars;
                cols.extend((0..pushed.aggs.len()).map(agg_col_name));
                return opaque_expr(key, "the group-by key").or_else(|| {
                    first_opaque_after_source(&pushed.tail, &pushed.head, cols, is_collection)
                });
            }
        };
        if hit.is_some() {
            return hit;
        }
    }
    opaque_expr(head, "the head")
}

/// Visits every comprehension inside an expression, outermost first.
fn visit_comps(e: &CExpr, f: &mut dyn FnMut(&Comprehension)) {
    match e {
        CExpr::Comp(c) => {
            f(c);
            for q in &c.quals {
                match q {
                    Qual::Gen(_, d) | Qual::Let(_, d) | Qual::Pred(d) | Qual::GroupBy(_, d) => {
                        visit_comps(d, f)
                    }
                }
            }
            visit_comps(&c.head, f);
        }
        CExpr::Bin(_, a, b) | CExpr::Range(a, b) => {
            visit_comps(a, f);
            visit_comps(b, f);
        }
        CExpr::Un(_, a) | CExpr::Proj(a, _) | CExpr::Agg(_, a) => visit_comps(a, f),
        CExpr::Call(_, args) | CExpr::Tuple(args) => {
            for a in args {
                visit_comps(a, f);
            }
        }
        CExpr::Record(fs) => {
            for (_, a) in fs {
                visit_comps(a, f);
            }
        }
        CExpr::Merge { left, right, .. } => {
            visit_comps(left, f);
            visit_comps(right, f);
        }
        CExpr::Var(_) | CExpr::Const(_) => {}
    }
}

/// Finds the span of the first source statement writing `name`, so the
/// warning lands on the assignment whose chain falls back.
fn find_write(stmts: &[Stmt], name: &str) -> Option<Span> {
    for s in stmts {
        let found = match s {
            Stmt::Assign { dest, span, .. } | Stmt::Incr { dest, span, .. }
                if dest.base_var() == name =>
            {
                Some(*span)
            }
            Stmt::For { body, .. } | Stmt::ForIn { body, .. } | Stmt::While { body, .. } => {
                find_write(std::slice::from_ref(body), name)
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => find_write(std::slice::from_ref(then_branch), name).or_else(|| {
                else_branch
                    .as_deref()
                    .and_then(|e| find_write(std::slice::from_ref(e), name))
            }),
            Stmt::Block(ss) => find_write(ss, name),
            _ => None,
        };
        if found.is_some() {
            return found;
        }
    }
    None
}

fn row_fallback(tp: &TypedProgram, compiled: &CompiledProgram, out: &mut Vec<Diagnostic>) {
    let is_collection = |v: &str| compiled.is_collection(v);
    let mut assigns: Vec<(&String, &CExpr)> = Vec::new();
    collect_assign_values(&compiled.stmts, &mut assigns);
    let mut warned: HashSet<&String> = HashSet::new();
    for (name, value) in assigns {
        if warned.contains(name) {
            continue;
        }
        let mut hit = None;
        visit_comps(value, &mut |c| {
            if hit.is_none() {
                hit = first_opaque_step(c, &is_collection);
            }
        });
        let Some((reason, help)) = hit else { continue };
        warned.insert(name);
        let span = find_write(&tp.program.body, name).unwrap_or(Span::SYNTH);
        out.push(
            Diagnostic::warning(
                codes::ROW_FALLBACK,
                format!(
                    "the fused chain computing `{name}` falls back to tuple-at-a-time on the \
                     default (columnar) engine: {reason}"
                ),
                span,
            )
            .with_help(help),
        );
    }
}

/// Collects `(name, value)` for every assignment, recursing into while
/// bodies.
fn collect_assign_values<'a>(stmts: &'a [TStmt], out: &mut Vec<(&'a String, &'a CExpr)>) {
    for s in stmts {
        match s {
            TStmt::Assign { name, value, .. } => out.push((name, value)),
            TStmt::While { body, .. } => collect_assign_values(body, out),
        }
    }
}

// ------------------------------------------------------------- traversal

fn visit_stmts(stmts: &[Stmt], f: &mut dyn FnMut(&Stmt)) {
    for s in stmts {
        f(s);
        match s {
            Stmt::For { body, .. } | Stmt::ForIn { body, .. } | Stmt::While { body, .. } => {
                visit_stmts(std::slice::from_ref(body), f)
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                visit_stmts(std::slice::from_ref(then_branch), f);
                if let Some(e) = else_branch {
                    visit_stmts(std::slice::from_ref(e), f);
                }
            }
            Stmt::Block(ss) => visit_stmts(ss, f),
            _ => {}
        }
    }
}

fn visit_blocks(stmts: &[Stmt], f: &mut dyn FnMut(&[Stmt])) {
    for s in stmts {
        match s {
            Stmt::For { body, .. } | Stmt::ForIn { body, .. } | Stmt::While { body, .. } => {
                visit_blocks(std::slice::from_ref(body), f)
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                visit_blocks(std::slice::from_ref(then_branch), f);
                if let Some(e) = else_branch {
                    visit_blocks(std::slice::from_ref(e), f);
                }
            }
            Stmt::Block(ss) => {
                f(ss);
                visit_blocks(ss, f);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diablo_lang::{parse, typecheck};
    use diablo_runtime::Value;

    fn lints(src: &str) -> Vec<Diagnostic> {
        let tp = typecheck(parse(src).unwrap()).unwrap();
        crate::check_restrictions(&tp).unwrap();
        let compiled = crate::translate(&tp).unwrap();
        lint_program(&tp, &compiled)
    }

    fn codes_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn shuffle_forecast_fires_on_group_by_key() {
        // C's subscript is data (V[i].K), not the loop index — Rule (17)
        // does not apply, so the group-by survives and shuffles.
        let src = r#"
            input V: vector[<|K: long, A: double|>];
            var C: vector[double] = vector();
            for i = 0, 99 do C[V[i].K] += V[i].A;
        "#;
        let diags = lints(src);
        assert!(codes_of(&diags).contains(&codes::SHUFFLE), "{diags:?}");
        let d = diags.iter().find(|d| d.code == codes::SHUFFLE).unwrap();
        assert!(d.message.contains("`C`"), "{}", d.message);
        assert!(d.message.contains("V[i].K"), "{}", d.message);
        assert!(d.span.line > 0, "span must point at the increment");
    }

    #[test]
    fn shuffle_forecast_silent_on_affine_key() {
        // W[i] += V[i]: the group-by key is the unique affine subscript —
        // Rule (17) eliminates it, no shuffle.
        let src = r#"
            input V: vector[double];
            var W: vector[double] = vector();
            for i = 0, 99 do W[i] += V[i];
        "#;
        let diags = lints(src);
        assert!(!codes_of(&diags).contains(&codes::SHUFFLE), "{diags:?}");
    }

    #[test]
    fn non_monoid_fires_on_subtraction() {
        let src = r#"
            var x: long = 10;
            var k: long = 0;
            while (k < 3) { x := x - 2; k += 1; };
        "#;
        let diags = lints(src);
        let d = diags.iter().find(|d| d.code == codes::NON_MONOID).unwrap();
        assert!(d.message.contains('-'), "{}", d.message);
        assert!(
            d.help.as_deref().unwrap_or("").contains("+= -"),
            "{:?}",
            d.help
        );
    }

    #[test]
    fn non_monoid_silent_on_commutative() {
        // `x := x + 1` desugars to `x += 1` in the parser; division by a
        // fresh variable is flagged.
        let src = "var x: long = 1; x := x / 2;";
        let diags = lints(src);
        assert!(codes_of(&diags).contains(&codes::NON_MONOID), "{diags:?}");
    }

    #[test]
    fn unused_fires_on_dead_input_and_var() {
        let src = r#"
            input V: vector[double];
            input W: vector[double];
            var sum: double = 0.0;
            var ghost: long = 0;
            for v in V do sum += v;
        "#;
        let diags = lints(src);
        let unused: Vec<&str> = diags
            .iter()
            .filter(|d| d.code == codes::UNUSED)
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(unused.len(), 2, "{diags:?}");
        assert!(unused.iter().any(|m| m.contains("`W`")), "{unused:?}");
        assert!(unused.iter().any(|m| m.contains("`ghost`")), "{unused:?}");
    }

    #[test]
    fn unused_silent_on_pure_outputs() {
        // `C` is only ever written — that's an output, not dead code.
        let src = r#"
            input V: vector[long];
            var C: vector[long] = vector();
            for v in V do C[v] += 1;
        "#;
        let diags = lints(src);
        assert!(!codes_of(&diags).contains(&codes::UNUSED), "{diags:?}");
    }

    #[test]
    fn dead_store_fires_on_overwrite() {
        let src = r#"
            var x: long = 0;
            x := 1;
            x := 2;
            x += 1;
        "#;
        let diags = lints(src);
        let d = diags.iter().find(|d| d.code == codes::DEAD_STORE).unwrap();
        assert_eq!(d.span.line, 3, "{d:?}");
        assert_eq!(d.labels.len(), 1, "{d:?}");
    }

    #[test]
    fn dead_store_silent_when_read_between() {
        let src = r#"
            var x: long = 0;
            var y: long = 0;
            x := 1;
            y := x + 1;
            x := 2;
            y += x;
        "#;
        let diags = lints(src);
        assert!(!codes_of(&diags).contains(&codes::DEAD_STORE), "{diags:?}");
    }

    #[test]
    fn bounds_fires_on_negative_subscript() {
        let src = r#"
            input V: vector[long];
            var W: vector[long] = vector();
            for i = 0, 9 do W[i - 10] := V[i];
        "#;
        let diags = lints(src);
        let d = diags.iter().find(|d| d.code == codes::BOUNDS).unwrap();
        assert!(d.message.contains("always negative"), "{}", d.message);
    }

    #[test]
    fn bounds_warns_on_possibly_negative_subscript() {
        let src = r#"
            input V: vector[long];
            var W: vector[long] = vector();
            for i = 0, 9 do W[i - 1] := V[i];
        "#;
        let diags = lints(src);
        let d = diags.iter().find(|d| d.code == codes::BOUNDS).unwrap();
        assert!(d.message.contains("can be negative"), "{}", d.message);
    }

    #[test]
    fn row_fallback_fires_on_record_constructor() {
        // The value builds a record — opaque to the columnar engine.
        let src = r#"
            input V: vector[double];
            var W: vector[<|a: double|>] = vector();
            for i = 0, 99 do W[i] := <| a = V[i] * 2.0 |>;
        "#;
        let diags = lints(src);
        let d = diags
            .iter()
            .find(|d| d.code == codes::ROW_FALLBACK)
            .unwrap_or_else(|| panic!("{diags:?}"));
        assert!(d.message.contains("`W`"), "{}", d.message);
        assert!(d.message.contains("record constructor"), "{}", d.message);
        assert!(d.span.line > 0, "span must point at the assignment");
        assert!(
            d.help
                .as_deref()
                .unwrap_or("")
                .contains("row_fallback_stages"),
            "{:?}",
            d.help
        );
    }

    #[test]
    fn row_fallback_silent_on_fully_transparent_chain() {
        let src = r#"
            input V: vector[double];
            var W: vector[double] = vector();
            for i = 0, 99 do W[i] := V[i] * 2.0 + 1.0;
        "#;
        let diags = lints(src);
        assert!(
            !codes_of(&diags).contains(&codes::ROW_FALLBACK),
            "{diags:?}"
        );
    }

    #[test]
    fn row_fallback_silent_on_a_group_by_of_monoid_aggregations() {
        // Word-count-style: the key and the aggregated input are plain
        // expressions and the grouped values are only summed, so the
        // engine keys and folds typed columns.
        let src = r#"
            input V: vector[long];
            var C: vector[long] = vector();
            for i = 0, 99 do C[V[i]] += 1;
        "#;
        let diags = lints(src);
        assert!(
            !codes_of(&diags).contains(&codes::ROW_FALLBACK),
            "{diags:?}"
        );
    }

    fn fallback_of(quals: Vec<Qual>, head: CExpr) -> Option<String> {
        let c = Comprehension::new(head, quals);
        first_opaque_step(&c, &|v| v == "V" || v == "W").map(|(why, _)| why)
    }

    #[test]
    fn row_fallback_after_a_group_by_follows_the_pipeline_builder() {
        use diablo_runtime::AggOp;
        let sum = |v: &str| CExpr::Agg(AggOp::new(BinOp::Add).unwrap(), Box::new(CExpr::var(v)));
        let scan = || Qual::Gen(Pattern::var("v"), CExpr::var("V"));
        let by_v = || Qual::GroupBy(Pattern::var("k"), CExpr::var("v"));
        let one = || Qual::Let(Pattern::var("w"), CExpr::Const(Value::Long(1)));
        // Only aggregated: silent, also for what follows the group-by.
        let head = CExpr::pair(CExpr::var("k"), sum("w"));
        assert_eq!(fallback_of(vec![scan(), one(), by_v()], head.clone()), None);
        // A grouped variable used as a bag: the general groupByKey.
        let why = fallback_of(vec![scan(), one(), by_v()], CExpr::var("w")).unwrap();
        assert!(why.contains("builds whole groups"), "{why}");
        // An opaque key is computed by a closure first.
        let record = CExpr::Record(vec![("a".into(), CExpr::var("v"))]);
        let by_record = Qual::GroupBy(Pattern::var("k"), record);
        let why = fallback_of(vec![scan(), one(), by_record], head.clone()).unwrap();
        assert!(why.contains("the group-by key"), "{why}");
        // A second generator after the group-by: a cross with a collection
        // is transparent, an expansion over a range is not.
        let again = Qual::Gen(Pattern::var("u"), CExpr::var("V"));
        let quals = vec![scan(), one(), by_v(), again];
        assert_eq!(fallback_of(quals, head.clone()), None);
        let range = CExpr::Range(Box::new(CExpr::long(0)), Box::new(CExpr::var("k")));
        let again = Qual::Gen(Pattern::var("u"), range);
        let why = fallback_of(vec![scan(), one(), by_v(), again], head).unwrap();
        assert!(why.contains("over a range"), "{why}");
    }

    #[test]
    fn row_fallback_of_a_second_generator_follows_the_pipeline_builder() {
        let scan = || Qual::Gen(Pattern::var("v"), CExpr::var("V"));
        let other = || {
            Qual::Gen(
                Pattern::Tuple(vec![Pattern::var("i"), Pattern::var("w")]),
                CExpr::var("W"),
            )
        };
        let eq = |a: CExpr, b: CExpr| Qual::Pred(CExpr::Bin(BinOp::Eq, Box::new(a), Box::new(b)));
        let head = || CExpr::pair(CExpr::var("v"), CExpr::var("w"));
        let record = |v: &str| CExpr::Record(vec![("a".into(), CExpr::var(v))]);
        // No linking equality: a broadcast cross the engine expands itself.
        assert_eq!(fallback_of(vec![scan(), other()], head()), None);
        // A linking equality, either way round: a join on transparent keys.
        let join = vec![scan(), other(), eq(CExpr::var("i"), CExpr::var("v"))];
        assert_eq!(fallback_of(join, head()), None);
        // A key that does not convert is computed by a closure first — on
        // the left or on the right — and the equality is not a filter too.
        for (l, r) in [
            (record("v"), CExpr::var("i")),
            (CExpr::var("v"), record("i")),
        ] {
            let why = fallback_of(vec![scan(), other(), eq(r, l)], head()).unwrap();
            assert!(why.contains("a join key contains a record"), "{why}");
        }
        // An equality that links nothing stays a condition.
        let filter = eq(record("v"), CExpr::var("v"));
        let why = fallback_of(vec![scan(), other(), filter], head()).unwrap();
        assert!(why.contains("a condition contains a record"), "{why}");
        // A generator over a bag the row computes expands row by row.
        let bag = Qual::Gen(Pattern::var("u"), CExpr::var("v"));
        let why = fallback_of(vec![scan(), bag], head()).unwrap();
        assert!(why.contains("over a bag computed from it"), "{why}");
    }

    #[test]
    fn row_fallback_silent_on_total_aggregation() {
        // `sum += e` reduces where it scans: no keyed step, nothing opaque.
        let src = r#"
            input P: vector[(double, double)];
            var s: double = 0.0;
            for p in P do s += p._1 * p._2;
        "#;
        let diags = lints(src);
        assert!(
            !codes_of(&diags).contains(&codes::ROW_FALLBACK),
            "{diags:?}"
        );
    }

    #[test]
    fn bounds_silent_on_nonconstant_ranges() {
        let src = r#"
            input V: vector[long];
            input n: long;
            var W: vector[long] = vector();
            for i = 1, n-2 do W[i - 1] := V[i];
        "#;
        let diags = lints(src);
        assert!(!codes_of(&diags).contains(&codes::BOUNDS), "{diags:?}");
    }
}
