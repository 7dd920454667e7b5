//! Splicing a step-local array into its one reader: a def-use pass on
//! target code, run after [`optimize_program`](crate::optimize_program).
//!
//! K-Means (Fig. 3K) computes, every step, an array that one statement of
//! the same step reads through a join on its key:
//!
//! ```text
//! closest := {}                                                      (reset)
//! closest := closest ⊳ { (i, d) | i ← range(lo, hi) }                (range fill)
//! closest := closest ⊳[^] { (k, ^/w) | (i, v) ← P, q…, group by k : i }  (fold)
//! avg := avg ⊳[+] { … | (i', v') ← P, …, (c, x) ← closest, c == i', … }  (reader)
//! ```
//!
//! The fold groups by the key of its source `P`, which is unique (§3.4),
//! so the value of `closest` at a key the reader joins on is the range
//! default `d` merged with the fold of that one `P` row's expansion. The
//! pass writes exactly that into the reader, in place of its generator
//! over `closest`:
//!
//! ```text
//! inRange(i', lo, hi),
//! (c, x) ← { (i', d) } ⊳[^] { (k, ^/w) | q…[i := i', v := v'], group by k : i' }
//! ```
//!
//! and removes the array's three statements. The generator's domain is
//! the array's definition restricted to the reader's key, so the
//! reference evaluator gives it the meaning the array had; the engine runs
//! it as a fold per row of the reader's source (`diablo_exec`'s pipeline),
//! and `P` is read once.
//!
//! The pass fires on an array `X` in a `while` body only when all of this
//! holds:
//!
//! * `X` is assigned by exactly three statements of that body, in order:
//!   `X := {}`, a range fill `X := X ⊳ { (x, d) | x ← range(lo, hi),
//!   let … }` whose value `d` does not depend on `x` and reads no array,
//!   and a fold `X := X ⊳[⊕] { (k, ⊕/w) | (i, v) ← S, q…, group by k : i }`
//!   over an array `S`, whose conditions include `inRange(i, lo, hi)` —
//!   so every key the fold makes is one the fill made, and whose
//!   generators after `S` join on no key: a fold per row holds no
//!   partitioned join, so only crosses, broadcast as they are without
//!   the splice, come along;
//! * exactly one statement reads `X` — once, after the fold, in the same
//!   body — through a generator `(c, x) ← X` of a comprehension that
//!   binds `(i', v') ← S` before it and tests `c == i'` after it; nothing
//!   else reads `X` (the loop condition and the statements after the loop
//!   included), so `X` is no output of the program and is left unbound;
//! * nothing between the fill and the reader assigns a name the fill or
//!   the fold reads.

use std::collections::{HashMap, HashSet};

use diablo_comp::ir::{CExpr, Comprehension, Pattern, Qual};
use diablo_comp::pushdown::join_keys;
use diablo_runtime::{BinOp, Func};

use crate::target::{CompiledProgram, TStmt};

/// Splices every array the pass applies to into its reader, and returns
/// their names, in program order. The candidates are the arrays a `while`
/// body resets (`X := {}`); one pass over the program drops those another
/// top-level statement reads or assigns, so the work is linear in the
/// program.
pub fn splice_arrays(program: &mut CompiledProgram) -> Vec<String> {
    // Candidate name → (its loop, whether a statement outside touches it).
    let mut candidates: HashMap<&str, (usize, bool)> = HashMap::new();
    for (w, s) in program.stmts.iter().enumerate() {
        let TStmt::While { body, .. } = s else {
            continue;
        };
        for b in body {
            if let TStmt::Assign {
                name,
                value,
                collection: true,
            } = b
            {
                if is_empty_bag(value) {
                    let (at, outside) = candidates.entry(name).or_insert((w, false));
                    *outside |= *at != w;
                }
            }
        }
    }
    if candidates.is_empty() {
        return Vec::new();
    }
    for (k, s) in program.stmts.iter().enumerate() {
        each_name(s, &mut |name| {
            // A generated name (`v#12`) is never a program's array.
            if name.contains('#') {
                return;
            }
            if let Some((w, outside)) = candidates.get_mut(name) {
                *outside |= *w != k;
            }
        });
    }
    let local: HashMap<String, usize> = candidates
        .into_iter()
        .filter(|(_, (_, outside))| !outside)
        .map(|(name, (w, _))| (name.to_string(), w))
        .collect();
    let collections = program.collection_names();
    let mut spliced = Vec::new();
    for w in 0..program.stmts.len() {
        let only_here = |n: &str| local.get(n) == Some(&w);
        while let Some(name) = splice_one(&mut program.stmts[w], &only_here, &collections) {
            spliced.push(name);
        }
    }
    spliced
}

/// Calls `f` with every name statement `s` reads or assigns.
fn each_name(s: &TStmt, f: &mut dyn FnMut(&str)) {
    match s {
        TStmt::Assign { name, value, .. } => {
            f(name);
            value.each_free(&mut |v, _| f(v));
        }
        TStmt::While { cond, body } => {
            cond.each_free(&mut |v, _| f(v));
            body.iter().for_each(|s| each_name(s, f));
        }
    }
}

/// Splices one array of the body of `w`, if it is a `while` and the pass
/// applies to one of the arrays it resets; `local` tells which names no
/// statement outside `w` touches.
fn splice_one(
    w: &mut TStmt,
    local: &dyn Fn(&str) -> bool,
    collections: &HashSet<String>,
) -> Option<String> {
    let TStmt::While { cond, body } = w else {
        return None;
    };
    let (name, plan) = body.iter().find_map(|s| match s {
        TStmt::Assign { name, value, .. }
            if is_empty_bag(value) && local(name) && !cond.mentions(name) =>
        {
            Some((name.clone(), plan(body, name, collections)?))
        }
        _ => None,
    })?;
    let TStmt::Assign { value, .. } = &mut body[plan.reader] else {
        unreachable!("a reader is an assignment")
    };
    *value = plan.spliced;
    for k in [plan.fold, plan.fill, plan.reset] {
        body.remove(k);
    }
    Some(name)
}

/// `{}`, the value of a reset.
fn is_empty_bag(value: &CExpr) -> bool {
    matches!(value, CExpr::Const(v) if v.as_bag().is_some_and(<[_]>::is_empty))
}

/// What splicing one array does to a loop body.
struct Plan {
    reset: usize,
    fill: usize,
    fold: usize,
    reader: usize,
    /// The reader's value, spliced.
    spliced: CExpr,
}

/// The splice of array `x` in `body`, when the pass applies (see the
/// module docs).
fn plan(body: &[TStmt], x: &str, collections: &HashSet<String>) -> Option<Plan> {
    // The three assignments' shapes first: they are cheap to check.
    let value = |k: usize| match &body[k] {
        TStmt::Assign { name, value, .. } if name == x => Some(value),
        _ => None,
    };
    let assigned: Vec<usize> = (0..body.len()).filter(|&k| value(k).is_some()).collect();
    let [reset, fill, fold] = assigned.as_slice() else {
        return None;
    };
    let (reset, fill, fold) = (*reset, *fill, *fold);
    if !is_empty_bag(value(reset)?) {
        return None;
    }
    let (lo, hi, default) = range_fill(value(fill)?, x, collections)?;
    let (op, update) = merge_into(value(fold)?, x)?;
    let fold_comp = Fold::of(update, &lo, &hi, collections)?;
    let readers: Vec<usize> = (0..body.len())
        .filter(|&k| !assigned.contains(&k) && (stmt_mentions(&body[k], x) || assigns(&body[k], x)))
        .collect();
    let [reader] = readers.as_slice() else {
        return None;
    };
    let reader = *reader;
    if reader < fold {
        return None;
    }
    // The reader sees what the fill and the fold read.
    let mut read = default.free_vars();
    read.extend(lo.free_vars());
    read.extend(hi.free_vars());
    update.each_free(&mut |v, _| {
        read.insert(v.to_string());
    });
    let assigns_read = |s: &TStmt| match s {
        TStmt::Assign { name, .. } => name != x && read.contains(name),
        TStmt::While { .. } => read.iter().any(|v| assigns(s, v)),
    };
    if body[fill + 1..reader].iter().any(assigns_read) {
        return None;
    }
    let TStmt::Assign {
        name: reader_name,
        value: reader_value,
        ..
    } = &body[reader]
    else {
        return None;
    };
    if reader_name == x || reader_value.free_occurrences(x) != 1 {
        return None;
    }
    let mut spliced = reader_value.clone();
    let comp = reader_comp(&mut spliced, x)?;
    let at = comp
        .quals
        .iter()
        .position(|q| matches!(q, Qual::Gen(_, CExpr::Var(v)) if v == x))?;
    let Qual::Gen(Pattern::Tuple(xp), _) = &comp.quals[at] else {
        return None;
    };
    let [Pattern::Var(c), _] = xp.as_slice() else {
        return None;
    };
    if comp.quals[..at]
        .iter()
        .any(|q| matches!(q, Qual::GroupBy(..)))
    {
        return None;
    }
    // The reader's own row of the fold's source, joined on its key.
    let (key, subst) = comp.quals[..at].iter().find_map(|q| match q {
        Qual::Gen(Pattern::Tuple(ps), CExpr::Var(s)) if *s == fold_comp.source => {
            match ps.as_slice() {
                [Pattern::Var(key), vp] => {
                    let mut subst = vec![(fold_comp.key.clone(), CExpr::var(key))];
                    pattern_subst(&fold_comp.value, vp, &mut subst)?;
                    Some((key.clone(), subst))
                }
                _ => None,
            }
        }
        _ => None,
    })?;
    let joined = comp.quals[at + 1..]
        .iter()
        .take_while(|q| matches!(q, Qual::Pred(_)))
        .any(|q| is_eq(q, c, &key) || is_eq(q, &key, c));
    // The fold's binders come along, and the names it reads are read
    // inside the reader: neither may meet a name of the reader's.
    let mut reader_names: HashSet<&str> = HashSet::new();
    let mut reader_binders: HashSet<&str> = HashSet::new();
    comp.head.each_free(&mut |v, _| {
        reader_names.insert(v);
    });
    for q in &comp.quals {
        q.each_bound(&mut |v| {
            reader_binders.insert(v);
        });
        q.expr().each_free(&mut |v, _| {
            reader_names.insert(v);
        });
    }
    let mut fold_binders = vec![fold_comp.group.as_str()];
    for q in &fold_comp.inner {
        q.each_bound(&mut |v| fold_binders.push(v));
    }
    let clash = fold_binders
        .iter()
        .any(|v| reader_names.contains(v) || reader_binders.contains(v))
        || read.iter().any(|v| reader_binders.contains(v.as_str()));
    if !joined || clash {
        return None;
    }
    let mut inner = fold_comp.inner.clone();
    inner.push(Qual::GroupBy(
        Pattern::var(fold_comp.group.clone()),
        CExpr::var(fold_comp.key.clone()),
    ));
    let mut right = Comprehension::new((*update.head).clone(), inner);
    right.subst_from(0, &subst);
    let left = Comprehension::new(CExpr::pair(CExpr::var(&key), default), Vec::new());
    let domain = CExpr::Merge {
        left: Box::new(CExpr::Comp(left)),
        right: Box::new(CExpr::Comp(right)),
        combine: Some(op),
    };
    let Qual::Gen(p, _) = comp.quals.remove(at) else {
        unreachable!("found a generator")
    };
    comp.quals.insert(at, Qual::Gen(p, domain));
    comp.quals
        .insert(at, Qual::Pred(in_range(CExpr::var(&key), lo, hi)));
    Some(Plan {
        reset,
        fill,
        fold,
        reader,
        spliced,
    })
}

/// `X ⊳ { (i, d) | i ← range(lo, hi), let … }`: the bounds and `d`, its
/// `let`s inlined ([`Comprehension::range_fill`]), when `d` reads no array
/// and has a row form.
fn range_fill(
    value: &CExpr,
    x: &str,
    collections: &HashSet<String>,
) -> Option<(CExpr, CExpr, CExpr)> {
    let CExpr::Merge {
        left,
        right,
        combine: None,
    } = value
    else {
        return None;
    };
    let (CExpr::Var(l), CExpr::Comp(fill)) = (left.as_ref(), right.as_ref()) else {
        return None;
    };
    if l != x {
        return None;
    }
    let (lo, hi, d) = fill.range_fill()?;
    let fits = d.has_row_form() && !d.free_vars().iter().any(|v| collections.contains(v));
    fits.then(|| (lo.clone(), hi.clone(), d))
}

/// `X ⊳[⊕] u`: the monoid and `u`.
fn merge_into<'e>(value: &'e CExpr, x: &str) -> Option<(BinOp, &'e Comprehension)> {
    match value {
        CExpr::Merge {
            left,
            right,
            combine: Some(op),
        } => match (left.as_ref(), right.as_ref()) {
            (CExpr::Var(l), CExpr::Comp(u)) if l == x => Some((*op, u)),
            _ => None,
        },
        _ => None,
    }
}

/// A fold `{ (k, ⊕/w) | (i, v) ← S, q…, group by k : i }`, taken apart.
struct Fold {
    source: String,
    key: String,
    value: Pattern,
    inner: Vec<Qual>,
    group: String,
}

impl Fold {
    /// `u` as a fold over an array whose conditions keep its keys inside
    /// `lo … hi`, with the monoid of the merge.
    fn of(
        u: &Comprehension,
        lo: &CExpr,
        hi: &CExpr,
        collections: &HashSet<String>,
    ) -> Option<Fold> {
        let (Some((Qual::Gen(Pattern::Tuple(sp), CExpr::Var(source)), rest)), CExpr::Tuple(head)) =
            (u.quals.split_first(), u.head.as_ref())
        else {
            return None;
        };
        let ([Pattern::Var(key), value], Some((Qual::GroupBy(Pattern::Var(group), by), inner))) =
            (sp.as_slice(), rest.split_last())
        else {
            return None;
        };
        let [CExpr::Var(k), CExpr::Agg(_, w)] = head.as_slice() else {
            return None;
        };
        let kept = Qual::Pred(in_range(CExpr::var(key), lo.clone(), hi.clone()));
        let fits = collections.contains(source)
            && k == group
            && matches!(w.as_ref(), CExpr::Var(_))
            && *by == CExpr::var(key)
            && inner.iter().all(|q| !matches!(q, Qual::GroupBy(..)))
            && inner.contains(&kept)
            && only_crosses(&u.quals);
        fits.then(|| Fold {
            source: source.clone(),
            key: key.clone(),
            value: value.clone(),
            inner: inner.to_vec(),
            group: group.clone(),
        })
    }
}

/// True when no generator of `quals` after the first is joined on a key
/// (`join_keys`, as the engine finds them): each is a cross.
fn only_crosses(quals: &[Qual]) -> bool {
    let mut bound: HashSet<String> = HashSet::new();
    for (k, q) in quals.iter().enumerate() {
        if let (true, Qual::Gen(p, _)) = (k > 0, q) {
            let pat: HashSet<String> = p.var_list().into_iter().collect();
            let global = |v: &str| !bound.contains(v) && !pat.contains(v);
            if !join_keys(quals, k, &bound, &pat, &global).is_empty() {
                return false;
            }
        }
        q.each_bound(&mut |v| {
            bound.insert(v.to_string());
        });
    }
    true
}

/// `inRange(e, lo, hi)`.
fn in_range(e: CExpr, lo: CExpr, hi: CExpr) -> CExpr {
    CExpr::Call(Func::InRange, vec![e, lo, hi])
}

/// Extends `subst` so that what pattern `from` binds becomes what pattern
/// `to` binds; `None` when `to` does not bind all of it.
fn pattern_subst(from: &Pattern, to: &Pattern, subst: &mut Vec<(String, CExpr)>) -> Option<()> {
    match (from, to) {
        (Pattern::Wild, _) => Some(()),
        (Pattern::Var(v), to) if !has_wild(to) => {
            subst.push((v.clone(), to.to_expr()));
            Some(())
        }
        (Pattern::Tuple(fs), Pattern::Tuple(ts)) if fs.len() == ts.len() => fs
            .iter()
            .zip(ts)
            .try_for_each(|(f, t)| pattern_subst(f, t, subst)),
        _ => None,
    }
}

fn has_wild(p: &Pattern) -> bool {
    match p {
        Pattern::Wild => true,
        Pattern::Var(_) => false,
        Pattern::Tuple(ps) => ps.iter().any(has_wild),
    }
}

/// `q` is the condition `a == b` over two variables.
fn is_eq(q: &Qual, a: &str, b: &str) -> bool {
    matches!(q, Qual::Pred(CExpr::Bin(BinOp::Eq, l, r))
        if matches!((l.as_ref(), r.as_ref()), (CExpr::Var(l), CExpr::Var(r)) if l == a && r == b))
}

/// The comprehension of a reader's value that reads `x`: the value
/// itself, or the update of a merge into another array.
fn reader_comp<'e>(value: &'e mut CExpr, x: &str) -> Option<&'e mut Comprehension> {
    match value {
        CExpr::Comp(c) => Some(c),
        CExpr::Merge { left, right, .. } if !left.mentions(x) => match right.as_mut() {
            CExpr::Comp(c) => Some(c),
            _ => None,
        },
        _ => None,
    }
}

fn stmt_mentions(s: &TStmt, name: &str) -> bool {
    match s {
        TStmt::Assign { value, .. } => value.mentions(name),
        TStmt::While { cond, body } => {
            cond.mentions(name)
                || body
                    .iter()
                    .any(|s| stmt_mentions(s, name) || assigns(s, name))
        }
    }
}

fn assigns(s: &TStmt, name: &str) -> bool {
    match s {
        TStmt::Assign { name: n, .. } => n == name,
        TStmt::While { body, .. } => body.iter().any(|s| assigns(s, name)),
    }
}
