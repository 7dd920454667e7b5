//! Comprehension normalization.
//!
//! The workhorse is Rule (2) of §3.3:
//!
//! ```text
//! { e1 | q1, p ← { e2 | q3 }, q2 } = { e1 | q1, q3, let p = e2, q2 }
//! ```
//!
//! applicable when `q3` has no group-by or `q1` is empty, with renaming to
//! prevent variable capture. On top of unnesting this module performs:
//!
//! * **singleton-generator elimination** — `p ← {e}` becomes `let p = e`
//!   (the degenerate case of Rule (2));
//! * **tuple-let splitting** — `let (p1, p2) = (e1, e2)` becomes two lets;
//! * **let inlining** — lets whose right-hand side is a variable, constant,
//!   or projection chain are substituted downstream (never across a
//!   `group by`, which would change lifting);
//! * **aggregated-bag inlining** — `let v = {…}` whose only use is a total
//!   aggregation `⊕/v` in the same scope is substituted into it, so the bag
//!   is reduced where it is produced instead of being built first;
//! * **predicate pushdown** — conditions move to the earliest position
//!   where their free variables are bound (within their group-by segment),
//!   so joins see their equality predicates adjacent to the generators;
//! * **constant folding** and removal of trivially-true conditions.

use std::collections::HashSet;

use diablo_runtime::Value;

use crate::ir::{CExpr, Comprehension, NameGen, Pattern, Qual};

/// Normalizes an expression (all comprehensions inside it) to fixpoint.
pub fn normalize(e: &CExpr, ng: &mut NameGen) -> CExpr {
    let mut cur = e.clone();
    // The passes are individually terminating and jointly confluent enough
    // in practice; a small iteration cap guards against ping-ponging.
    for _ in 0..8 {
        let next = norm_expr(&cur, ng);
        if next == cur {
            return next;
        }
        cur = next;
    }
    cur
}

fn norm_expr(e: &CExpr, ng: &mut NameGen) -> CExpr {
    match e {
        CExpr::Var(_) | CExpr::Const(_) => e.clone(),
        CExpr::Bin(op, a, b) => {
            let a = norm_expr(a, ng);
            let b = norm_expr(b, ng);
            fold_bin(*op, a, b)
        }
        CExpr::Un(op, a) => {
            let a = norm_expr(a, ng);
            if let CExpr::Const(v) = &a {
                if let Ok(folded) = op.apply(v) {
                    return CExpr::Const(folded);
                }
            }
            CExpr::Un(*op, Box::new(a))
        }
        CExpr::Call(f, args) => CExpr::Call(*f, args.iter().map(|a| norm_expr(a, ng)).collect()),
        CExpr::Tuple(fs) => CExpr::Tuple(fs.iter().map(|f| norm_expr(f, ng)).collect()),
        CExpr::Record(fs) => CExpr::Record(
            fs.iter()
                .map(|(n, f)| (n.clone(), norm_expr(f, ng)))
                .collect(),
        ),
        CExpr::Proj(inner, field) => {
            let inner = norm_expr(inner, ng);
            // Project out of literal tuples/records.
            match &inner {
                CExpr::Tuple(fs) => {
                    if let Some(idx) = field
                        .strip_prefix('_')
                        .and_then(|s| s.parse::<usize>().ok())
                        .and_then(|i| i.checked_sub(1))
                    {
                        if let Some(f) = fs.get(idx) {
                            return f.clone();
                        }
                    }
                }
                CExpr::Record(fs) => {
                    if let Some((_, f)) = fs.iter().find(|(n, _)| n == field) {
                        return f.clone();
                    }
                }
                _ => {}
            }
            CExpr::Proj(Box::new(inner), field.clone())
        }
        CExpr::Agg(op, inner) => {
            let inner = norm_expr(inner, ng);
            // ⊕/{e} = e
            if let Some(head) = inner.as_singleton() {
                return head.clone();
            }
            CExpr::Agg(*op, Box::new(inner))
        }
        CExpr::Merge {
            left,
            right,
            combine,
        } => CExpr::Merge {
            left: Box::new(norm_expr(left, ng)),
            right: Box::new(norm_expr(right, ng)),
            combine: *combine,
        },
        CExpr::Range(lo, hi) => {
            CExpr::Range(Box::new(norm_expr(lo, ng)), Box::new(norm_expr(hi, ng)))
        }
        CExpr::Comp(c) => norm_comp(c, ng),
    }
}

fn fold_bin(op: diablo_runtime::BinOp, a: CExpr, b: CExpr) -> CExpr {
    if let (CExpr::Const(x), CExpr::Const(y)) = (&a, &b) {
        if let Ok(v) = op.apply(x, y) {
            return CExpr::Const(v);
        }
    }
    CExpr::Bin(op, Box::new(a), Box::new(b))
}

fn norm_comp(c: &Comprehension, ng: &mut NameGen) -> CExpr {
    // Normalize constituent expressions first (bottom-up).
    let mut quals: Vec<Qual> = c
        .quals
        .iter()
        .map(|q| match q {
            Qual::Gen(p, e) => Qual::Gen(p.clone(), norm_expr(e, ng)),
            Qual::Let(p, e) => Qual::Let(p.clone(), norm_expr(e, ng)),
            Qual::Pred(e) => Qual::Pred(norm_expr(e, ng)),
            Qual::GroupBy(p, e) => Qual::GroupBy(p.clone(), norm_expr(e, ng)),
        })
        .collect();
    let mut head = norm_expr(&c.head, ng);

    quals = unnest(quals, ng);
    quals = split_tuple_lets(quals);
    (quals, head) = inline_lets(quals, head);
    (quals, head) = inline_aggregated_bags(quals, head);
    quals = push_preds(quals);
    quals = drop_true_preds(quals);

    CExpr::Comp(Comprehension {
        head: Box::new(head),
        quals,
    })
}

/// Rule (2): splice generators over comprehensions into the qualifier list.
fn unnest(quals: Vec<Qual>, ng: &mut NameGen) -> Vec<Qual> {
    let mut out: Vec<Qual> = Vec::with_capacity(quals.len());
    for q in quals {
        match q {
            Qual::Gen(p, CExpr::Comp(inner)) => {
                let applicable = !inner.has_group_by() || out.is_empty();
                if !applicable {
                    out.push(Qual::Gen(p, CExpr::Comp(inner)));
                    continue;
                }
                // Alpha-rename the inner bound variables to fresh names to
                // prevent capture when splicing.
                let (inner_quals, inner_head) = alpha_rename(inner, ng);
                out.extend(inner_quals);
                out.push(Qual::Let(p, inner_head));
            }
            other => out.push(other),
        }
    }
    out
}

/// Renames all variables bound by the comprehension's qualifiers to fresh
/// names, returning the rewritten qualifiers and head.
fn alpha_rename(c: Comprehension, ng: &mut NameGen) -> (Vec<Qual>, CExpr) {
    let mut renames: Vec<(String, String)> = Vec::new();
    let apply = |e: &CExpr, renames: &[(String, String)]| -> CExpr {
        let mut out = e.clone();
        for (from, to) in renames {
            out = out.subst(from, &CExpr::Var(to.clone()));
        }
        out
    };
    let rename_pat = |p: &Pattern, renames: &mut Vec<(String, String)>, ng: &mut NameGen| {
        fn go(p: &Pattern, renames: &mut Vec<(String, String)>, ng: &mut NameGen) -> Pattern {
            match p {
                Pattern::Var(v) => {
                    let fresh = ng.fresh(v.split('#').next().unwrap_or(v));
                    renames.push((v.clone(), fresh.clone()));
                    Pattern::Var(fresh)
                }
                Pattern::Tuple(ps) => {
                    Pattern::Tuple(ps.iter().map(|p| go(p, renames, ng)).collect())
                }
                Pattern::Wild => Pattern::Wild,
            }
        }
        go(p, renames, ng)
    };
    let mut quals = Vec::with_capacity(c.quals.len());
    for q in &c.quals {
        let q2 = match q {
            Qual::Gen(p, e) => {
                let e = apply(e, &renames);
                let p = rename_pat(p, &mut renames, ng);
                Qual::Gen(p, e)
            }
            Qual::Let(p, e) => {
                let e = apply(e, &renames);
                let p = rename_pat(p, &mut renames, ng);
                Qual::Let(p, e)
            }
            Qual::Pred(e) => Qual::Pred(apply(e, &renames)),
            Qual::GroupBy(p, e) => {
                let e = apply(e, &renames);
                let p = rename_pat(p, &mut renames, ng);
                Qual::GroupBy(p, e)
            }
        };
        quals.push(q2);
    }
    let head = apply(&c.head, &renames);
    (quals, head)
}

/// `let (p1, ..., pn) = (e1, ..., en)` → `let p1 = e1, ..., let pn = en`.
fn split_tuple_lets(quals: Vec<Qual>) -> Vec<Qual> {
    let mut out = Vec::with_capacity(quals.len());
    for q in quals {
        match q {
            Qual::Let(Pattern::Tuple(ps), CExpr::Tuple(es)) if ps.len() == es.len() => {
                for (p, e) in ps.into_iter().zip(es) {
                    out.push(Qual::Let(p, e));
                }
            }
            other => out.push(other),
        }
    }
    out
}

/// True for right-hand sides cheap and safe to inline: variables,
/// constants, projection chains rooted at a variable, and shallow
/// arithmetic over those (e.g. the loop bound `d - 1`, which must inline
/// for the §3.6 range elimination to see invariant range bounds).
fn inlinable(e: &CExpr) -> bool {
    fn atom(e: &CExpr) -> bool {
        match e {
            CExpr::Var(_) | CExpr::Const(_) => true,
            CExpr::Proj(inner, _) => atom(inner),
            _ => false,
        }
    }
    match e {
        CExpr::Bin(_, a, b) => atom(a) && atom(b),
        CExpr::Un(_, a) => atom(a),
        other => atom(other),
    }
}

/// Inlines cheap lets downstream within their group-by segment.
fn inline_lets(quals: Vec<Qual>, head: CExpr) -> (Vec<Qual>, CExpr) {
    let mut out: Vec<Qual> = Vec::with_capacity(quals.len());
    // Pending substitutions (name → expr), cleared at group-by boundaries.
    let mut subs: Vec<(String, CExpr)> = Vec::new();
    let apply = |e: &CExpr, subs: &[(String, CExpr)]| -> CExpr {
        let mut out = e.clone();
        for (n, r) in subs {
            out = out.subst(n, r);
        }
        out
    };
    for q in quals {
        match q {
            Qual::Let(Pattern::Var(name), e) => {
                let e = apply(&e, &subs);
                if inlinable(&e) {
                    subs.push((name, e));
                } else {
                    out.push(Qual::Let(Pattern::Var(name), e));
                }
            }
            Qual::Let(p, e) => out.push(Qual::Let(p, apply(&e, &subs))),
            Qual::Gen(p, e) => out.push(Qual::Gen(p, apply(&e, &subs))),
            Qual::Pred(e) => out.push(Qual::Pred(apply(&e, &subs))),
            Qual::GroupBy(p, e) => {
                let e = apply(&e, &subs);
                // A variable lifted by the group-by must stay a let so the
                // lifting applies to it; re-materialize pending subs whose
                // value could be referenced after the group-by.
                let after_vars = p.var_list();
                for (n, r) in subs.drain(..) {
                    if !after_vars.contains(&n) {
                        out.push(Qual::Let(Pattern::Var(n), r));
                    }
                }
                out.push(Qual::GroupBy(p, e));
            }
        }
    }
    let head = apply(&head, &subs);
    (out, head)
}

/// Inlines `let v = {…}` into its only use when that use is a total
/// aggregation `⊕/v`: `let v = {e | q}, let s = a + +/v` becomes
/// `let s = a + +/{e | q}`. This is the shape Rule (16) leaves behind for
/// `sum += e`; with the bag no longer let-bound the executor runs the
/// aggregation as a distributed reduce instead of collecting `v` first.
fn inline_aggregated_bags(mut quals: Vec<Qual>, mut head: CExpr) -> (Vec<Qual>, CExpr) {
    let mut i = 0;
    while i < quals.len() {
        let Some(site) = sole_aggregation_of(&quals, &head, i) else {
            i += 1;
            continue;
        };
        let Qual::Let(Pattern::Var(name), bag) = quals.remove(i) else {
            unreachable!("sole_aggregation_of only accepts variable lets");
        };
        // `site` indexed the list before the let was removed.
        match quals.get_mut(site - 1) {
            Some(q) => *q = q.with_expr(q.expr().subst(&name, &bag)),
            None => head = head.subst(&name, &bag),
        }
    }
    (quals, head)
}

/// The position (a qualifier index, or `quals.len()` for the head) of the
/// only mention of the comprehension-valued let at `quals[i]`, provided
/// that mention is `⊕/v` and nothing between the let and it re-evaluates
/// or re-scopes the bag. A bag mentioned twice or outside an aggregation
/// must exist as a value; behind a generator inlining would rebuild it per
/// binding; behind a group-by `v` names the lifted bag of bags.
fn sole_aggregation_of(quals: &[Qual], head: &CExpr, i: usize) -> Option<usize> {
    let Qual::Let(Pattern::Var(name), bag @ CExpr::Comp(_)) = &quals[i] else {
        return None;
    };
    let captured = bag.free_vars();
    let mut site = None;
    let mut same_scope = true;
    for j in i + 1..=quals.len() {
        let e = quals.get(j).map_or(head, Qual::expr);
        match e.free_occurrences(name) {
            0 => {}
            1 if same_scope && site.is_none() && e.free_agg_occurrences(name) == 1 => {
                site = Some(j);
            }
            _ => return None,
        }
        if let Some(q) = quals.get(j) {
            let binds = q.bound_vars();
            if binds.iter().any(|v| v == name) {
                break; // shadowed: later mentions are a different variable
            }
            same_scope &= matches!(q, Qual::Let(_, _) | Qual::Pred(_))
                && !binds.iter().any(|v| captured.contains(v));
        }
    }
    site
}

/// Moves conditions to the earliest position where their free variables are
/// bound, within their group-by segment.
fn push_preds(quals: Vec<Qual>) -> Vec<Qual> {
    // Split into segments at group-by boundaries; push within each.
    let mut segments: Vec<Vec<Qual>> = vec![Vec::new()];
    for q in quals {
        let is_boundary = matches!(q, Qual::GroupBy(_, _));
        segments.last_mut().expect("nonempty").push(q);
        if is_boundary {
            segments.push(Vec::new());
        }
    }
    let mut out = Vec::new();
    for seg in segments {
        out.extend(push_preds_segment(seg));
    }
    out
}

fn push_preds_segment(quals: Vec<Qual>) -> Vec<Qual> {
    let mut others: Vec<Qual> = Vec::new();
    let mut preds: Vec<CExpr> = Vec::new();
    let mut trailing_group: Option<Qual> = None;
    for q in quals {
        match q {
            Qual::Pred(e) => preds.push(e),
            g @ Qual::GroupBy(_, _) => trailing_group = Some(g),
            other => others.push(other),
        }
    }
    // For each pred, find the first position after which all its free
    // variables are bound.
    let mut placed: Vec<Vec<CExpr>> = vec![Vec::new(); others.len() + 1];
    for pred in preds {
        let fv = pred.free_vars();
        let mut bound: HashSet<String> = HashSet::new();
        let mut pos = others.len();
        // Position 0 = before all quals (pred has no locally bound vars).
        let locally_bound: HashSet<String> = others.iter().flat_map(|q| q.bound_vars()).collect();
        let needed: HashSet<&String> = fv.iter().filter(|v| locally_bound.contains(*v)).collect();
        if needed.is_empty() {
            pos = 0;
        } else {
            for (i, q) in others.iter().enumerate() {
                for v in q.bound_vars() {
                    bound.insert(v);
                }
                if needed.iter().all(|v| bound.contains(*v)) {
                    pos = i + 1;
                    break;
                }
            }
        }
        placed[pos].push(pred);
    }
    let mut out = Vec::with_capacity(others.len() + placed.len());
    for p in placed[0].drain(..) {
        out.push(Qual::Pred(p));
    }
    for (i, q) in others.into_iter().enumerate() {
        out.push(q);
        for p in placed[i + 1].drain(..) {
            out.push(Qual::Pred(p));
        }
    }
    if let Some(g) = trailing_group {
        out.push(g);
    }
    out
}

fn drop_true_preds(quals: Vec<Qual>) -> Vec<Qual> {
    quals
        .into_iter()
        .filter(|q| !matches!(q, Qual::Pred(CExpr::Const(Value::Bool(true)))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, Env};
    use diablo_runtime::{AggOp, BinOp};

    fn assert_same_meaning(e: &CExpr, env: &Env) {
        let mut ng = NameGen::new();
        let n = normalize(e, &mut ng);
        let before = eval(e, env).unwrap();
        let after = eval(&n, env).unwrap();
        // Bags are compared up to reordering.
        let canon = |v: &Value| match v.as_bag() {
            Some(items) => {
                let mut s = items.to_vec();
                s.sort();
                Value::bag(s)
            }
            None => v.clone(),
        };
        assert_eq!(canon(&before), canon(&after), "normalized: {n:?}");
    }

    fn pairs(entries: &[(i64, i64)]) -> Value {
        Value::bag(
            entries
                .iter()
                .map(|&(k, v)| Value::pair(Value::Long(k), Value::Long(v)))
                .collect(),
        )
    }

    #[test]
    fn unnests_nested_generators() {
        // { a * b | a ← {m | (i,m) ← M, i == 1}, b ← {n | (j,n) ← N, j == 1} }
        let inner_m = CExpr::Comp(Comprehension::new(
            CExpr::var("m"),
            vec![
                Qual::Gen(
                    Pattern::pair(Pattern::var("i"), Pattern::var("m")),
                    CExpr::var("M"),
                ),
                Qual::Pred(CExpr::eq(CExpr::var("i"), CExpr::long(1))),
            ],
        ));
        let inner_n = CExpr::Comp(Comprehension::new(
            CExpr::var("n"),
            vec![
                Qual::Gen(
                    Pattern::pair(Pattern::var("j"), Pattern::var("n")),
                    CExpr::var("N"),
                ),
                Qual::Pred(CExpr::eq(CExpr::var("j"), CExpr::long(1))),
            ],
        ));
        let outer = CExpr::Comp(Comprehension::new(
            CExpr::Bin(
                BinOp::Mul,
                Box::new(CExpr::var("a")),
                Box::new(CExpr::var("b")),
            ),
            vec![
                Qual::Gen(Pattern::var("a"), inner_m),
                Qual::Gen(Pattern::var("b"), inner_n),
            ],
        ));
        let mut ng = NameGen::new();
        let n = normalize(&outer, &mut ng);
        let CExpr::Comp(c) = &n else { panic!() };
        assert!(
            c.quals
                .iter()
                .all(|q| !matches!(q, Qual::Gen(_, CExpr::Comp(_)))),
            "no nested generators remain: {c:?}"
        );
        let mut env = Env::new();
        env.insert("M".into(), pairs(&[(1, 2), (2, 3)]));
        env.insert("N".into(), pairs(&[(1, 10), (2, 20)]));
        assert_same_meaning(&outer, &env);
        let out = eval(&n, &env).unwrap();
        assert_eq!(out.as_bag().unwrap(), &[Value::Long(20)]);
    }

    #[test]
    fn singleton_generator_becomes_let_and_inlines() {
        // { x + 1 | x ← {41} } normalizes to { 42 | } effectively.
        let e = CExpr::Comp(Comprehension::new(
            CExpr::Bin(
                BinOp::Add,
                Box::new(CExpr::var("x")),
                Box::new(CExpr::long(1)),
            ),
            vec![Qual::Gen(
                Pattern::var("x"),
                CExpr::singleton(CExpr::long(41)),
            )],
        ));
        let mut ng = NameGen::new();
        let n = normalize(&e, &mut ng);
        let CExpr::Comp(c) = &n else { panic!() };
        assert!(c.quals.is_empty(), "{c:?}");
        assert_eq!(*c.head, CExpr::long(42));
    }

    #[test]
    fn preds_move_next_to_their_generators() {
        // { m | (i,m) ← M, (j,n) ← N, i == 1 } — the pred only needs i, so
        // it moves before N's generator.
        let e = CExpr::Comp(Comprehension::new(
            CExpr::var("m"),
            vec![
                Qual::Gen(
                    Pattern::pair(Pattern::var("i"), Pattern::var("m")),
                    CExpr::var("M"),
                ),
                Qual::Gen(
                    Pattern::pair(Pattern::var("j"), Pattern::var("n")),
                    CExpr::var("N"),
                ),
                Qual::Pred(CExpr::eq(CExpr::var("i"), CExpr::long(1))),
            ],
        ));
        let mut ng = NameGen::new();
        let n = normalize(&e, &mut ng);
        let CExpr::Comp(c) = &n else { panic!() };
        assert!(
            matches!(&c.quals[1], Qual::Pred(_)),
            "pred should sit right after M's generator: {:?}",
            c.quals
        );
    }

    #[test]
    fn does_not_unnest_group_by_under_prefix() {
        let inner = CExpr::Comp(Comprehension::new(
            CExpr::var("k"),
            vec![
                Qual::Gen(
                    Pattern::pair(Pattern::var("i"), Pattern::var("v")),
                    CExpr::var("V"),
                ),
                Qual::GroupBy(Pattern::var("k"), CExpr::var("i")),
            ],
        ));
        let outer = CExpr::Comp(Comprehension::new(
            CExpr::var("x"),
            vec![
                Qual::Gen(Pattern::var("w"), CExpr::var("W")),
                Qual::Gen(Pattern::var("x"), inner.clone()),
            ],
        ));
        let mut ng = NameGen::new();
        let n = normalize(&outer, &mut ng);
        let CExpr::Comp(c) = &n else { panic!() };
        assert!(
            matches!(&c.quals[1], Qual::Gen(_, CExpr::Comp(_))),
            "group-by under nonempty prefix must stay nested: {:?}",
            c.quals
        );
        // But with an empty prefix it may unnest.
        let outer2 = CExpr::Comp(Comprehension::new(
            CExpr::var("x"),
            vec![Qual::Gen(Pattern::var("x"), inner)],
        ));
        let n2 = normalize(&outer2, &mut ng);
        let CExpr::Comp(c2) = &n2 else { panic!() };
        assert!(c2.quals.iter().any(|q| matches!(q, Qual::GroupBy(_, _))));
    }

    #[test]
    fn normalization_preserves_group_by_meaning() {
        // { (k, +/v) | (i, v) ← { (a, b) | (a, b) ← V }, group by k : i }
        let inner = CExpr::Comp(Comprehension::new(
            CExpr::pair(CExpr::var("a"), CExpr::var("b")),
            vec![Qual::Gen(
                Pattern::pair(Pattern::var("a"), Pattern::var("b")),
                CExpr::var("V"),
            )],
        ));
        let outer = CExpr::Comp(Comprehension::new(
            CExpr::pair(
                CExpr::var("k"),
                CExpr::Agg(AggOp::new(BinOp::Add).unwrap(), Box::new(CExpr::var("v"))),
            ),
            vec![
                Qual::Gen(Pattern::pair(Pattern::var("i"), Pattern::var("v")), inner),
                Qual::GroupBy(Pattern::var("k"), CExpr::var("i")),
            ],
        ));
        let mut env = Env::new();
        env.insert("V".into(), pairs(&[(1, 10), (1, 20), (2, 5)]));
        assert_same_meaning(&outer, &env);
    }

    #[test]
    fn constant_folding() {
        let e = CExpr::Bin(
            BinOp::Add,
            Box::new(CExpr::long(40)),
            Box::new(CExpr::long(2)),
        );
        let mut ng = NameGen::new();
        assert_eq!(normalize(&e, &mut ng), CExpr::long(42));
    }

    #[test]
    fn projection_of_literal_tuple_folds() {
        let e = CExpr::Proj(
            Box::new(CExpr::Tuple(vec![CExpr::long(7), CExpr::long(8)])),
            "_2".into(),
        );
        let mut ng = NameGen::new();
        assert_eq!(normalize(&e, &mut ng), CExpr::long(8));
    }

    #[test]
    fn agg_of_singleton_folds() {
        let e = CExpr::Agg(
            AggOp::new(BinOp::Add).unwrap(),
            Box::new(CExpr::singleton(CExpr::var("x"))),
        );
        let mut ng = NameGen::new();
        assert_eq!(normalize(&e, &mut ng), CExpr::var("x"));
    }

    /// `let v = { w | (i, w) ← W }`
    fn let_bag(name: &str) -> Qual {
        Qual::Let(
            Pattern::var(name),
            CExpr::Comp(Comprehension::new(
                CExpr::var("w"),
                vec![Qual::Gen(
                    Pattern::pair(Pattern::var("i"), Pattern::var("w")),
                    CExpr::var("W"),
                )],
            )),
        )
    }

    fn agg(op: BinOp, e: CExpr) -> CExpr {
        CExpr::Agg(AggOp::new(op).unwrap(), Box::new(e))
    }

    /// Normalizes `e`, checks the meaning against `comp/eval.rs`, and says
    /// whether a let of `name` survived.
    fn still_lets(e: &CExpr, name: &str) -> bool {
        let mut env = Env::new();
        env.insert("W".into(), pairs(&[(0, 4), (1, 6), (2, 32)]));
        env.insert(
            "X".into(),
            Value::bag(vec![Value::Long(1), Value::Long(2), Value::Long(1)]),
        );
        assert_same_meaning(e, &env);
        let CExpr::Comp(c) = normalize(e, &mut NameGen::new()) else {
            panic!("comprehension expected");
        };
        c.quals
            .iter()
            .any(|q| matches!(q, Qual::Let(Pattern::Var(v), _) if v == name))
    }

    #[test]
    fn bag_used_once_under_an_aggregation_is_inlined() {
        // { s | let v = {…}, let s = 10 + +/v } → { s | let s = 10 + +/{…} }
        let e = CExpr::Comp(Comprehension::new(
            CExpr::var("s"),
            vec![
                let_bag("v"),
                Qual::Let(
                    Pattern::var("s"),
                    CExpr::Bin(
                        BinOp::Add,
                        Box::new(CExpr::long(10)),
                        Box::new(agg(BinOp::Add, CExpr::var("v"))),
                    ),
                ),
            ],
        ));
        assert!(!still_lets(&e, "v"));
        // In the head too.
        let e = CExpr::Comp(Comprehension::new(
            agg(BinOp::Max, CExpr::var("v")),
            vec![let_bag("v")],
        ));
        assert!(!still_lets(&e, "v"));
    }

    #[test]
    fn bag_used_twice_is_not_inlined() {
        // { +/v * max/v | let v = {…} } — scanning W twice is not a saving.
        let e = CExpr::Comp(Comprehension::new(
            CExpr::Bin(
                BinOp::Mul,
                Box::new(agg(BinOp::Add, CExpr::var("v"))),
                Box::new(agg(BinOp::Max, CExpr::var("v"))),
            ),
            vec![let_bag("v")],
        ));
        assert!(still_lets(&e, "v"));
    }

    #[test]
    fn bag_is_not_inlined_across_a_group_by() {
        // { (k, max/v) | x ← X, let v = {…}, group by k : x } — after the
        // group-by `v` is the bag of each group's bags, not the bag itself.
        let e = CExpr::Comp(Comprehension::new(
            CExpr::pair(CExpr::var("k"), agg(BinOp::Max, CExpr::var("v"))),
            vec![
                Qual::Gen(Pattern::var("x"), CExpr::var("X")),
                let_bag("v"),
                Qual::GroupBy(Pattern::var("k"), CExpr::var("x")),
            ],
        ));
        assert!(still_lets(&e, "v"));
    }

    #[test]
    fn bag_used_outside_an_aggregation_is_not_inlined() {
        // { b | let v = {…}, b ← v } — the bag is needed as a value.
        let e = CExpr::Comp(Comprehension::new(
            CExpr::var("b"),
            vec![let_bag("v"), Qual::Gen(Pattern::var("b"), CExpr::var("v"))],
        ));
        assert!(still_lets(&e, "v"));
    }

    #[test]
    fn bag_is_not_inlined_under_a_later_generator() {
        // { x + +/v | let v = {…}, x ← X } — inlining would rescan W per x.
        let e = CExpr::Comp(Comprehension::new(
            CExpr::Bin(
                BinOp::Add,
                Box::new(CExpr::var("x")),
                Box::new(agg(BinOp::Add, CExpr::var("v"))),
            ),
            vec![let_bag("v"), Qual::Gen(Pattern::var("x"), CExpr::var("X"))],
        ));
        assert!(still_lets(&e, "v"));
    }

    #[test]
    fn inlining_does_not_cross_group_by() {
        // { (k, +/w) | (i, v) ← V, let w = v, group by k : i } — w must be
        // lifted; the let may not be inlined past the group-by.
        let e = CExpr::Comp(Comprehension::new(
            CExpr::pair(
                CExpr::var("k"),
                CExpr::Agg(AggOp::new(BinOp::Add).unwrap(), Box::new(CExpr::var("w"))),
            ),
            vec![
                Qual::Gen(
                    Pattern::pair(Pattern::var("i"), Pattern::var("v")),
                    CExpr::var("V"),
                ),
                Qual::Let(Pattern::var("w"), CExpr::var("v")),
                Qual::GroupBy(Pattern::var("k"), CExpr::var("i")),
            ],
        ));
        let mut env = Env::new();
        env.insert("V".into(), pairs(&[(1, 10), (1, 20), (2, 5)]));
        assert_same_meaning(&e, &env);
    }
}
