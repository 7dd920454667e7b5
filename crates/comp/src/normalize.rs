//! Comprehension normalization: the first six rules of the rewrite table
//! (`crate::rewrite`) and the three expression folds.
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
//!
//! Every rule works on the term in place and returns whether it changed it.

use diablo_runtime::Value;

use crate::ir::{CExpr, Comprehension, NameGen, Pattern, Qual, Subst};
use crate::rewrite::{rewrite, RewriteStats};

/// Normalizes an expression (all comprehensions inside it) to fixpoint.
pub fn normalize(e: &CExpr, ng: &mut NameGen) -> CExpr {
    let mut out = e.clone();
    rewrite(&mut out, false, ng, &mut RewriteStats::default());
    out
}

// ------------------------------------------------------------ the folds

/// `c1 ⊕ c2` and `⊖c` over constants, where the operation is defined.
pub(crate) fn fold_constants(e: &mut CExpr) -> bool {
    let folded = match e {
        CExpr::Bin(op, a, b) => match (a.as_ref(), b.as_ref()) {
            (CExpr::Const(x), CExpr::Const(y)) => op.apply(x, y).ok(),
            _ => None,
        },
        CExpr::Un(op, a) => match a.as_ref() {
            CExpr::Const(v) => op.apply(v).ok(),
            _ => None,
        },
        _ => None,
    };
    folded.map(|v| *e = CExpr::Const(v)).is_some()
}

/// `(e1, …, en)._i = ei` and `<| …, A = e, … |>.A = e`.
pub(crate) fn project_literals(e: &mut CExpr) -> bool {
    let CExpr::Proj(inner, field) = e else {
        return false;
    };
    let picked = match inner.as_mut() {
        CExpr::Tuple(fs) => field
            .strip_prefix('_')
            .and_then(|s| s.parse::<usize>().ok())
            .and_then(|i| i.checked_sub(1))
            .filter(|i| *i < fs.len())
            .map(|i| fs.swap_remove(i)),
        CExpr::Record(fs) => fs
            .iter()
            .position(|(n, _)| n == field)
            .map(|i| fs.swap_remove(i).1),
        _ => None,
    };
    picked.map(|f| *e = f).is_some()
}

/// `⊕/{e} = e`.
pub(crate) fn aggregate_singletons(e: &mut CExpr) -> bool {
    let CExpr::Agg(_, inner) = e else {
        return false;
    };
    let head = match inner.as_mut() {
        CExpr::Comp(c) if c.quals.is_empty() => {
            std::mem::replace(c.head.as_mut(), CExpr::Const(Value::Unit))
        }
        _ => return false,
    };
    *e = head;
    true
}

// ------------------------------------------------------------ the rules

/// Rule (2): splice generators over comprehensions into the qualifier list.
pub(crate) fn unnest(c: &mut Comprehension, ng: &mut NameGen) -> bool {
    // A group-by inside may only surface when nothing is bound before it.
    fn applies((at, q): (usize, &Qual)) -> bool {
        matches!(q, Qual::Gen(_, CExpr::Comp(inner)) if at == 0 || !inner.has_group_by())
    }
    if !c.quals.iter().enumerate().any(applies) {
        return false;
    }
    let mut out: Vec<Qual> = Vec::with_capacity(c.quals.len() + 8);
    for (at, q) in std::mem::take(&mut c.quals).into_iter().enumerate() {
        match q {
            Qual::Gen(p, CExpr::Comp(inner)) if at == 0 || !inner.has_group_by() => {
                // Alpha-rename the inner bound variables to fresh names to
                // prevent capture when splicing.
                let (inner_quals, inner_head) = alpha_rename(inner, ng);
                out.extend(inner_quals);
                out.push(Qual::Let(p, inner_head));
            }
            other => out.push(other),
        }
    }
    c.quals = out;
    true
}

/// Renames all variables bound by the comprehension's qualifiers to fresh
/// names, returning the rewritten qualifiers and head. Each expression is
/// traversed once, with the renames in scope at its position.
fn alpha_rename(mut c: Comprehension, ng: &mut NameGen) -> (Vec<Qual>, CExpr) {
    fn fresh(p: &mut Pattern, renames: &mut Subst, ng: &mut NameGen) {
        match p {
            Pattern::Var(v) => {
                let new = ng.fresh(v.split('#').next().unwrap_or(v));
                renames.push((std::mem::replace(v, new.clone()), CExpr::Var(new)));
            }
            Pattern::Tuple(ps) => ps.iter_mut().for_each(|p| fresh(p, renames, ng)),
            Pattern::Wild => {}
        }
    }
    let mut renames = Subst::new();
    for q in &mut c.quals {
        match q {
            Qual::Gen(p, e) | Qual::Let(p, e) | Qual::GroupBy(p, e) => {
                e.subst_all(&renames);
                fresh(p, &mut renames, ng);
            }
            Qual::Pred(e) => {
                e.subst_all(&renames);
            }
        }
    }
    c.head.subst_all(&renames);
    (c.quals, *c.head)
}

/// `let (p1, ..., pn) = (e1, ..., en)` → `let p1 = e1, ..., let pn = en`.
pub(crate) fn split_tuple_lets(c: &mut Comprehension, _: &mut NameGen) -> bool {
    fn splits(q: &Qual) -> bool {
        matches!(q, Qual::Let(Pattern::Tuple(ps), CExpr::Tuple(es)) if ps.len() == es.len())
    }
    if !c.quals.iter().any(splits) {
        return false;
    }
    let mut out = Vec::with_capacity(c.quals.len() + 2);
    for q in std::mem::take(&mut c.quals) {
        match q {
            Qual::Let(Pattern::Tuple(ps), CExpr::Tuple(es)) if ps.len() == es.len() => {
                out.extend(ps.into_iter().zip(es).map(|(p, e)| Qual::Let(p, e)));
            }
            other => out.push(other),
        }
    }
    c.quals = out;
    true
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
///
/// A variable lifted by a group-by must stay a let so the lifting applies
/// to it: a pending let whose value could be referenced after the group-by
/// is put back in front of it. Putting it back where it came from, with
/// nothing substituted on the way, is not a rewrite — the rule has fired
/// only if an occurrence was replaced or a let moved or disappeared.
pub(crate) fn inline_lets(c: &mut Comprehension, _: &mut NameGen) -> bool {
    let candidate = |q: &Qual| matches!(q, Qual::Let(Pattern::Var(_), e) if inlinable(e));
    if !c.quals.iter().any(candidate) {
        return false; // substitution only grows a right-hand side
    }
    let mut fired = false;
    // Pending substitutions and the position each let was taken from,
    // cleared at group-by boundaries.
    let mut subs = Subst::new();
    let mut taken_from: Vec<usize> = Vec::new();
    let mut out: Vec<Qual> = Vec::with_capacity(c.quals.len());
    for (at, mut q) in std::mem::take(&mut c.quals).into_iter().enumerate() {
        fired |= q.expr_mut().subst_all(&subs);
        match q {
            Qual::Let(Pattern::Var(name), e) if inlinable(&e) => {
                subs.push((name, e));
                taken_from.push(at);
            }
            Qual::GroupBy(p, e) => {
                for ((name, e), from) in subs.drain(..).zip(taken_from.drain(..)) {
                    if p.binds(&name) {
                        fired = true; // rebound by the key pattern: gone
                    } else {
                        fired |= from != out.len();
                        out.push(Qual::Let(Pattern::Var(name), e));
                    }
                }
                out.push(Qual::GroupBy(p, e));
            }
            other => out.push(other),
        }
    }
    fired |= !subs.is_empty();
    c.head.subst_all(&subs);
    c.quals = out;
    fired
}

/// Inlines `let v = {…}` into its only use when that use is a total
/// aggregation `⊕/v`: `let v = {e | q}, let s = a + +/v` becomes
/// `let s = a + +/{e | q}`. This is the shape Rule (16) leaves behind for
/// `sum += e`; with the bag no longer let-bound the executor runs the
/// aggregation as a distributed reduce instead of collecting `v` first.
pub(crate) fn inline_aggregated_bags(c: &mut Comprehension, _: &mut NameGen) -> bool {
    let mut fired = false;
    let mut i = 0;
    while i < c.quals.len() {
        let Some(site) = sole_aggregation_of(&c.quals, &c.head, i) else {
            i += 1;
            continue;
        };
        let Qual::Let(Pattern::Var(name), bag) = c.quals.remove(i) else {
            unreachable!("sole_aggregation_of only accepts variable lets");
        };
        // `site` indexed the list before the let was removed.
        let target = match c.quals.get_mut(site - 1) {
            Some(q) => q.expr_mut(),
            None => c.head.as_mut(),
        };
        target.subst_all(&[(name, bag)]);
        fired = true;
    }
    fired
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
            if q.binds(name) {
                break; // shadowed: later mentions are a different variable
            }
            let mut captures = false;
            q.each_bound(&mut |v| captures |= bag.mentions(v));
            same_scope &= matches!(q, Qual::Let(_, _) | Qual::Pred(_)) && !captures;
        }
    }
    site
}

/// Moves conditions to the earliest position where their free variables are
/// bound, within their group-by segment. Binding positions are computed
/// once per segment; the rule fires only if some condition actually moves.
pub(crate) fn push_preds(c: &mut Comprehension, _: &mut NameGen) -> bool {
    if !c.quals.iter().any(|q| matches!(q, Qual::Pred(_))) {
        return false;
    }
    // `order[k]` is the current index of the qualifier that belongs k-th.
    let mut order: Vec<usize> = Vec::with_capacity(c.quals.len());
    let mut start = 0;
    while start < c.quals.len() {
        let end = (start..c.quals.len())
            .find(|&i| matches!(c.quals[i], Qual::GroupBy(_, _)))
            .unwrap_or(c.quals.len());
        push_preds_segment(&c.quals, start..end, &mut order);
        if end < c.quals.len() {
            order.push(end); // the group-by closes its segment
        }
        start = end + 1;
    }
    if order.iter().enumerate().all(|(k, &i)| k == i) {
        return false;
    }
    let mut old: Vec<Option<Qual>> = std::mem::take(&mut c.quals).into_iter().map(Some).collect();
    c.quals = order
        .iter()
        .map(|&i| old[i].take().expect("order is a permutation"))
        .collect();
    true
}

/// Appends to `order` the indexes of one group-by-free segment: its
/// generators and lets in place, each condition right after the last
/// binder it needs (or in front, when it needs none of the segment's).
fn push_preds_segment(quals: &[Qual], segment: std::ops::Range<usize>, order: &mut Vec<usize>) {
    // (name, number of binders up to and including the one that binds it)
    let mut bound_after: Vec<(&str, usize)> = Vec::new();
    let mut binders: Vec<usize> = Vec::new();
    let mut preds: Vec<usize> = Vec::new();
    for i in segment {
        if matches!(quals[i], Qual::Pred(_)) {
            preds.push(i);
        } else {
            binders.push(i);
            quals[i].each_bound(&mut |v| {
                if !bound_after.iter().any(|(name, _)| *name == v) {
                    bound_after.push((v, binders.len()));
                }
            });
        }
    }
    let mut slots: Vec<(usize, usize)> = Vec::with_capacity(preds.len());
    for i in preds {
        let mut slot = 0;
        quals[i].expr().each_free(&mut |v, _| {
            if let Some((_, after)) = bound_after.iter().find(|(name, _)| *name == v) {
                slot = slot.max(*after);
            }
        });
        slots.push((slot, i));
    }
    slots.sort_by_key(|(slot, _)| *slot); // stable: conditions keep their order
    let mut slots = slots.into_iter().peekable();
    for placed in 0..=binders.len() {
        if placed > 0 {
            order.push(binders[placed - 1]);
        }
        while let Some((_, i)) = slots.next_if(|(slot, _)| *slot == placed) {
            order.push(i);
        }
    }
}

pub(crate) fn drop_true_preds(c: &mut Comprehension, _: &mut NameGen) -> bool {
    let before = c.quals.len();
    c.quals
        .retain(|q| !matches!(q, Qual::Pred(CExpr::Const(Value::Bool(true)))));
    c.quals.len() != before
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
