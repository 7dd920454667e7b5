//! Comprehension optimization (§4 and §3.6).
//!
//! Three rewrites, each meaning-preserving:
//!
//! * **Rule (16)** — group-by on a constant key forms a single group, so the
//!   group-by is replaced by let-bindings that lift the prefix variables to
//!   bags directly. This is how `n += W[i]` becomes a total aggregation.
//! * **Rule (17)** — group-by on a *unique* key (an affine term consisting
//!   of all array indexes bound before the group-by) forms singleton groups;
//!   the group-by is replaced by lets and every lifted variable becomes a
//!   singleton bag. This is how `V[i] += W[i]` avoids a shuffle.
//! * **Loop-iteration elimination (§3.6)** — a generator `i ← range(lo, hi)`
//!   joined to an array traversal through an invertible affine index
//!   equation `I = f(i)` is eliminated: the traversal itself enumerates the
//!   indexes, guarded by `inRange(F(I), lo, hi)`.
//!
//! A final dead-let pass removes bindings introduced by the rewrites that
//! nothing references.

use std::collections::HashSet;

use diablo_runtime::{BinOp, Func};

use crate::ir::{CExpr, Comprehension, NameGen, Pattern, Qual};
use crate::normalize::normalize;

/// Optimizes an expression: normalizes, then applies Rule (16), Rule (17),
/// and range elimination to fixpoint.
pub fn optimize(e: &CExpr, ng: &mut NameGen) -> CExpr {
    let mut cur = normalize(e, ng);
    for _ in 0..8 {
        let next = opt_expr(&cur, ng);
        let next = normalize(&next, ng);
        if next == cur {
            return next;
        }
        cur = next;
    }
    cur
}

#[allow(clippy::only_used_in_recursion)]
fn opt_expr(e: &CExpr, ng: &mut NameGen) -> CExpr {
    match e {
        CExpr::Var(_) | CExpr::Const(_) => e.clone(),
        CExpr::Bin(op, a, b) => {
            CExpr::Bin(*op, Box::new(opt_expr(a, ng)), Box::new(opt_expr(b, ng)))
        }
        CExpr::Un(op, a) => CExpr::Un(*op, Box::new(opt_expr(a, ng))),
        CExpr::Call(f, args) => CExpr::Call(*f, args.iter().map(|a| opt_expr(a, ng)).collect()),
        CExpr::Tuple(fs) => CExpr::Tuple(fs.iter().map(|f| opt_expr(f, ng)).collect()),
        CExpr::Record(fs) => CExpr::Record(
            fs.iter()
                .map(|(n, f)| (n.clone(), opt_expr(f, ng)))
                .collect(),
        ),
        CExpr::Proj(inner, f) => CExpr::Proj(Box::new(opt_expr(inner, ng)), f.clone()),
        CExpr::Agg(op, inner) => CExpr::Agg(*op, Box::new(opt_expr(inner, ng))),
        CExpr::Merge {
            left,
            right,
            combine,
        } => CExpr::Merge {
            left: Box::new(opt_expr(left, ng)),
            right: Box::new(opt_expr(right, ng)),
            combine: *combine,
        },
        CExpr::Range(lo, hi) => {
            CExpr::Range(Box::new(opt_expr(lo, ng)), Box::new(opt_expr(hi, ng)))
        }
        CExpr::Comp(c) => {
            let mut c = Comprehension {
                head: Box::new(opt_expr(&c.head, ng)),
                quals: c
                    .quals
                    .iter()
                    .map(|q| match q {
                        Qual::Gen(p, e) => Qual::Gen(p.clone(), opt_expr(e, ng)),
                        Qual::Let(p, e) => Qual::Let(p.clone(), opt_expr(e, ng)),
                        Qual::Pred(e) => Qual::Pred(opt_expr(e, ng)),
                        Qual::GroupBy(p, e) => Qual::GroupBy(p.clone(), opt_expr(e, ng)),
                    })
                    .collect(),
            };
            c = dedup_array_accesses(c);
            c = eliminate_ranges(c);
            if let Some(rewritten) = rule16_constant_key(&c) {
                return CExpr::Comp(rewritten);
            }
            if let Some(rewritten) = rule17_unique_key(&c) {
                return CExpr::Comp(rewritten);
            }
            CExpr::Comp(drop_dead_lets(c))
        }
    }
}

/// Variables bound by the qualifiers `quals`.
fn bound_vars(quals: &[Qual]) -> HashSet<String> {
    quals.iter().flat_map(|q| q.bound_vars()).collect()
}

// --------------------------------------------------------------- Rule (16)

/// `{ e | q1, group by p : c, q2 } →
///  { e | let p = c, ∀vi: let vi = {vi | q1}, q2 }`
/// when the key `c` is constant with respect to the prefix `q1`.
fn rule16_constant_key(c: &Comprehension) -> Option<Comprehension> {
    let gpos = c
        .quals
        .iter()
        .position(|q| matches!(q, Qual::GroupBy(_, _)))?;
    let (q1, rest) = c.quals.split_at(gpos);
    let Qual::GroupBy(p, key) = &rest[0] else {
        unreachable!()
    };
    let q2 = &rest[1..];
    let prefix_vars = bound_vars(q1);
    if key.free_vars().iter().any(|v| prefix_vars.contains(v)) {
        return None; // key depends on the prefix — not constant
    }
    // Which lifted variables are actually used downstream?
    let key_vars: HashSet<String> = p.var_list().into_iter().collect();
    let mut used = (*c.head).free_vars();
    for q in q2 {
        match q {
            Qual::Gen(_, e) | Qual::Let(_, e) | Qual::Pred(e) | Qual::GroupBy(_, e) => {
                used.extend(e.free_vars());
            }
        }
    }
    let mut new_quals: Vec<Qual> = vec![Qual::Let(p.clone(), key.clone())];
    for q in q1 {
        for v in q.bound_vars() {
            if !key_vars.contains(&v) && used.contains(&v) {
                let lifted = CExpr::Comp(Comprehension::new(CExpr::Var(v.clone()), q1.to_vec()));
                new_quals.push(Qual::Let(Pattern::Var(v), lifted));
            }
        }
    }
    new_quals.extend(q2.iter().cloned());
    Some(Comprehension {
        head: c.head.clone(),
        quals: new_quals,
    })
}

// --------------------------------------------------------------- Rule (17)

/// The index variables contributed by a generator: the variables in the key
/// part of an array traversal `(k, v) ← A` / `((i, j), v) ← A`, or the
/// variable of a range generator. `None` means the generator's shape is not
/// recognized and the uniqueness analysis must bail.
fn generator_index_vars(q: &Qual) -> Option<Option<Vec<String>>> {
    match q {
        Qual::Gen(Pattern::Var(i), CExpr::Range(_, _)) => Some(Some(vec![i.clone()])),
        Qual::Gen(Pattern::Tuple(ps), dom) if ps.len() == 2 && matches!(dom, CExpr::Var(_)) => {
            // (key_pattern, value) ← Dataset
            let mut vars = Vec::new();
            ps[0].vars(&mut vars);
            Some(Some(vars))
        }
        Qual::Gen(_, _) => Some(None), // unrecognized generator
        _ => None,                     // not a generator
    }
}

/// Rule (17): a group-by whose key consists of exactly the index variables
/// of *all* generators before it is unique — each group is a singleton.
fn rule17_unique_key(c: &Comprehension) -> Option<Comprehension> {
    let gpos = c
        .quals
        .iter()
        .position(|q| matches!(q, Qual::GroupBy(_, _)))?;
    let (q1, rest) = c.quals.split_at(gpos);
    let Qual::GroupBy(p, key) = &rest[0] else {
        unreachable!()
    };
    let q2 = &rest[1..];

    // Gather index variables from every generator in the prefix.
    let mut index_vars: HashSet<String> = HashSet::new();
    for q in q1 {
        if let Some(vars) = generator_index_vars(q) {
            match vars {
                Some(vs) => index_vars.extend(vs),
                None => return None,
            }
        }
    }
    if index_vars.is_empty() {
        return None;
    }
    // The key must be a variable or tuple of variables covering exactly the
    // index variables.
    let key_vars = key_var_list(key)?;
    let key_set: HashSet<String> = key_vars.iter().cloned().collect();
    if key_set != index_vars {
        return None;
    }

    // Replace the group-by with a let for the key pattern. Every lifted
    // variable forms a singleton group, so downstream uses are substituted
    // with the singleton bag `{v}` directly (a let would shadow itself).
    let key_pat_vars: HashSet<String> = p.var_list().into_iter().collect();
    let lifted: Vec<String> = q1
        .iter()
        .flat_map(|q| q.bound_vars())
        .filter(|v| !key_pat_vars.contains(v))
        .collect();
    let subst_lifted = |e: &CExpr| -> CExpr {
        let mut out = e.clone();
        for v in &lifted {
            out = out.subst(v, &CExpr::singleton(CExpr::Var(v.clone())));
        }
        out
    };
    let mut new_quals: Vec<Qual> = q1.to_vec();
    new_quals.push(Qual::Let(p.clone(), key.clone()));
    for q in q2 {
        new_quals.push(match q {
            Qual::Gen(p, e) => Qual::Gen(p.clone(), subst_lifted(e)),
            Qual::Let(p, e) => Qual::Let(p.clone(), subst_lifted(e)),
            Qual::Pred(e) => Qual::Pred(subst_lifted(e)),
            Qual::GroupBy(p, e) => Qual::GroupBy(p.clone(), subst_lifted(e)),
        });
    }
    Some(Comprehension {
        head: Box::new(subst_lifted(&c.head)),
        quals: new_quals,
    })
}

/// If the expression is a variable or a tuple of variables, returns them.
fn key_var_list(e: &CExpr) -> Option<Vec<String>> {
    match e {
        CExpr::Var(v) => Some(vec![v.clone()]),
        CExpr::Tuple(fs) => {
            let mut out = Vec::with_capacity(fs.len());
            for f in fs {
                match f {
                    CExpr::Var(v) => out.push(v.clone()),
                    _ => return None,
                }
            }
            Some(out)
        }
        _ => None,
    }
}

// -------------------------------------- common array-access elimination

/// Deduplicates generators that access the *same array element*.
///
/// `E⟦·⟧` lifts every array read independently, so `P[i] * P[i]` produces
/// two traversals of `P` each pinned by `index = i`. Since arrays are
/// key-value maps with unique keys (§3.4), two generators over the same
/// array whose index variables are pinned (by equality conditions) to the
/// same expressions bind the same element; the second generator and its
/// conditions are removed and its variables aliased to the first's. This
/// is a correctness-preserving strength reduction of the "unnecessary
/// joins" the paper attributes to its translator (§6).
fn dedup_array_accesses(c: Comprehension) -> Comprehension {
    let mut c = c;
    loop {
        match try_dedup_one(&c) {
            Some(next) => c = next,
            None => return c,
        }
    }
}

/// The access signature of a dataset generator: array name, pinned index
/// expressions, the qualifier positions of the pins, the pattern's index
/// variables, and its value variable.
type AccessSig = (String, Vec<CExpr>, Vec<usize>, Vec<String>, String);

/// Computes the [`AccessSig`] of a dataset generator: the array name and,
/// for each index variable of the pattern, the expression it is pinned to
/// by a later equality condition. `None` when any index is unpinned.
fn access_signature(quals: &[Qual], gpos: usize, limit: usize) -> Option<AccessSig> {
    let Qual::Gen(Pattern::Tuple(ps), CExpr::Var(array)) = &quals[gpos] else {
        return None;
    };
    if ps.len() != 2 {
        return None;
    }
    let mut index_vars = Vec::new();
    ps[0].vars(&mut index_vars);
    let Pattern::Var(value_var) = &ps[1] else {
        return None;
    };
    let own_vars: HashSet<&String> = index_vars.iter().collect();
    let mut pins: Vec<CExpr> = Vec::new();
    let mut pin_positions: Vec<usize> = Vec::new();
    for iv in &index_vars {
        let mut found = false;
        for (qpos, q) in quals.iter().enumerate().take(limit).skip(gpos + 1) {
            let Qual::Pred(CExpr::Bin(BinOp::Eq, a, b)) = q else {
                continue;
            };
            for (lhs, rhs) in [(a, b), (b, a)] {
                if matches!(lhs.as_ref(), CExpr::Var(v) if v == iv)
                    && rhs.free_vars().iter().all(|v| !own_vars.contains(v))
                {
                    pins.push(rhs.as_ref().clone());
                    pin_positions.push(qpos);
                    found = true;
                    break;
                }
            }
            if found {
                break;
            }
        }
        if !found {
            return None;
        }
    }
    Some((
        array.clone(),
        pins,
        pin_positions,
        index_vars,
        value_var.clone(),
    ))
}

fn try_dedup_one(c: &Comprehension) -> Option<Comprehension> {
    let limit = c
        .quals
        .iter()
        .position(|q| matches!(q, Qual::GroupBy(_, _)))
        .unwrap_or(c.quals.len());
    // Collect signatures for all dataset generators before the group-by.
    let sigs: Vec<(usize, AccessSig)> = (0..limit)
        .filter_map(|g| access_signature(&c.quals, g, limit).map(|s| (g, s)))
        .collect();
    for (ai, (_ga, sa)) in sigs.iter().enumerate() {
        for (gb, sb) in sigs.iter().skip(ai + 1) {
            if sa.0 != sb.0 || sa.1 != sb.1 {
                continue;
            }
            // Generator *gb duplicates *ga: remove it and its pins, alias
            // its variables to *ga's.
            let drop: HashSet<usize> = std::iter::once(*gb).chain(sb.2.iter().copied()).collect();
            let renames: Vec<(String, String)> =
                sb.3.iter()
                    .cloned()
                    .zip(sa.3.iter().cloned())
                    .chain(std::iter::once((sb.4.clone(), sa.4.clone())))
                    .collect();
            let apply = |e: &CExpr| -> CExpr {
                let mut out = e.clone();
                for (from, to) in &renames {
                    out = out.subst(from, &CExpr::Var(to.clone()));
                }
                out
            };
            let quals: Vec<Qual> = c
                .quals
                .iter()
                .enumerate()
                .filter(|(i, _)| !drop.contains(i))
                .map(|(_, q)| match q {
                    Qual::Gen(p, e) => Qual::Gen(p.clone(), apply(e)),
                    Qual::Let(p, e) => Qual::Let(p.clone(), apply(e)),
                    Qual::Pred(e) => Qual::Pred(apply(e)),
                    Qual::GroupBy(p, e) => Qual::GroupBy(p.clone(), apply(e)),
                })
                .collect();
            let head = apply(&c.head);
            return Some(Comprehension {
                head: Box::new(head),
                quals,
            });
        }
    }
    None
}

// ------------------------------------------------- range elimination (§3.6)

/// An invertible affine use `I = f(i)`; `invert(I)` produces `F(I)` with
/// `f(F(k)) = k`.
fn invert_affine(
    f: &CExpr,
    i: &str,
    locals: &HashSet<String>,
) -> Option<Box<dyn Fn(CExpr) -> CExpr>> {
    let is_invariant = |e: &CExpr| e.free_vars().iter().all(|v| !locals.contains(v));
    match f {
        CExpr::Var(v) if v == i => Some(Box::new(|k| k)),
        CExpr::Bin(BinOp::Add, a, b) => {
            if matches!(a.as_ref(), CExpr::Var(v) if v == i) && is_invariant(b) {
                let c = b.as_ref().clone();
                return Some(Box::new(move |k| {
                    CExpr::Bin(BinOp::Sub, Box::new(k), Box::new(c.clone()))
                }));
            }
            if matches!(b.as_ref(), CExpr::Var(v) if v == i) && is_invariant(a) {
                let c = a.as_ref().clone();
                return Some(Box::new(move |k| {
                    CExpr::Bin(BinOp::Sub, Box::new(k), Box::new(c.clone()))
                }));
            }
            None
        }
        CExpr::Bin(BinOp::Sub, a, b) => {
            if matches!(a.as_ref(), CExpr::Var(v) if v == i) && is_invariant(b) {
                let c = b.as_ref().clone();
                return Some(Box::new(move |k| {
                    CExpr::Bin(BinOp::Add, Box::new(k), Box::new(c.clone()))
                }));
            }
            if matches!(b.as_ref(), CExpr::Var(v) if v == i) && is_invariant(a) {
                let c = a.as_ref().clone();
                return Some(Box::new(move |k| {
                    CExpr::Bin(BinOp::Sub, Box::new(c.clone()), Box::new(k))
                }));
            }
            None
        }
        _ => None,
    }
}

/// Eliminates `i ← range(lo, hi)` generators that are joined to an array
/// traversal through an equality `I = f(i)` with invertible affine `f`.
fn eliminate_ranges(c: Comprehension) -> Comprehension {
    let mut c = c;
    loop {
        match try_eliminate_one_range(&c) {
            Some(next) => c = next,
            None => return c,
        }
    }
}

fn try_eliminate_one_range(c: &Comprehension) -> Option<Comprehension> {
    let locals = bound_vars(&c.quals);
    // The rewrite is only valid before any group-by (generators after a
    // group-by see lifted variables; our translation never puts range
    // generators there, but be safe).
    let limit = c
        .quals
        .iter()
        .position(|q| matches!(q, Qual::GroupBy(_, _)))
        .unwrap_or(c.quals.len());

    for rpos in 0..limit {
        let Qual::Gen(Pattern::Var(i), CExpr::Range(lo, hi)) = &c.quals[rpos] else {
            continue;
        };
        // Range bounds must be loop-invariant (they are, by construction).
        if lo.free_vars().iter().any(|v| locals.contains(v))
            || hi.free_vars().iter().any(|v| locals.contains(v))
        {
            continue;
        }
        // Find a later equality pred `I = f(i)` (either side) where `I` is
        // an index variable of a dataset generator at position gpos.
        for ppos in rpos + 1..limit {
            let Qual::Pred(CExpr::Bin(BinOp::Eq, a, b)) = &c.quals[ppos] else {
                continue;
            };
            for (lhs, rhs) in [(a, b), (b, a)] {
                let CExpr::Var(index_var) = lhs.as_ref() else {
                    continue;
                };
                if index_var == i {
                    continue;
                }
                // index_var must come from a dataset traversal generator.
                let Some(gpos) = (0..limit).find(|&g| {
                    matches!(generator_index_vars(&c.quals[g]), Some(Some(ref vs))
                        if vs.contains(index_var)
                            && !matches!(&c.quals[g], Qual::Gen(_, CExpr::Range(_, _))))
                }) else {
                    continue;
                };
                // f(i) must be invertible and mention i.
                if !rhs.free_vars().contains(i) {
                    continue;
                }
                let mut invariant_locals = locals.clone();
                invariant_locals.remove(i);
                let Some(invert) = invert_affine(rhs, i, &invariant_locals) else {
                    continue;
                };
                // Every other use of `i` must be at a position after the
                // dataset generator (where `index_var` is in scope).
                let fi = invert(CExpr::Var(index_var.clone()));
                let mut ok = true;
                for (qpos, q) in c.quals.iter().enumerate() {
                    if qpos == rpos || qpos == ppos {
                        continue;
                    }
                    let uses_i = match q {
                        Qual::Gen(_, e) | Qual::Let(_, e) | Qual::Pred(e) | Qual::GroupBy(_, e) => {
                            e.free_vars().contains(i)
                        }
                    };
                    if uses_i && qpos <= gpos {
                        ok = false;
                        break;
                    }
                }
                if !ok {
                    continue;
                }
                // Rebuild: drop the range generator and the pred; insert
                // inRange right after the dataset generator; substitute i.
                let in_range = Qual::Pred(CExpr::Call(
                    Func::InRange,
                    vec![fi.clone(), lo.as_ref().clone(), hi.as_ref().clone()],
                ));
                let mut new_quals: Vec<Qual> = Vec::with_capacity(c.quals.len());
                for (qpos, q) in c.quals.iter().enumerate() {
                    if qpos == rpos || qpos == ppos {
                        // dropped
                    } else {
                        let q = subst_in_qual(q, i, &fi);
                        new_quals.push(q);
                    }
                    if qpos == gpos {
                        new_quals.push(in_range.clone());
                    }
                }
                let head = c.head.subst(i, &fi);
                return Some(Comprehension {
                    head: Box::new(head),
                    quals: new_quals,
                });
            }
        }
    }
    None
}

fn subst_in_qual(q: &Qual, name: &str, replacement: &CExpr) -> Qual {
    match q {
        Qual::Gen(p, e) => Qual::Gen(p.clone(), e.subst(name, replacement)),
        Qual::Let(p, e) => Qual::Let(p.clone(), e.subst(name, replacement)),
        Qual::Pred(e) => Qual::Pred(e.subst(name, replacement)),
        Qual::GroupBy(p, e) => Qual::GroupBy(p.clone(), e.subst(name, replacement)),
    }
}

// -------------------------------------------------------------- dead lets

/// Removes let-bindings whose variables are never used downstream.
fn drop_dead_lets(c: Comprehension) -> Comprehension {
    let mut keep: Vec<bool> = vec![true; c.quals.len()];
    // Walk backwards tracking used variables.
    let mut used: HashSet<String> = (*c.head).free_vars();
    for (idx, q) in c.quals.iter().enumerate().rev() {
        match q {
            Qual::Let(p, e) => {
                let vars = p.var_list();
                if vars.iter().all(|v| !used.contains(v)) {
                    keep[idx] = false;
                } else {
                    used.extend(e.free_vars());
                }
            }
            Qual::Gen(_, e) | Qual::Pred(e) | Qual::GroupBy(_, e) => {
                used.extend(e.free_vars());
            }
        }
    }
    let quals = c
        .quals
        .into_iter()
        .zip(keep)
        .filter_map(|(q, k)| k.then_some(q))
        .collect();
    Comprehension {
        head: c.head,
        quals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, Env};
    use diablo_runtime::{AggOp, Value};

    fn pairs(entries: &[(i64, i64)]) -> Value {
        Value::bag(
            entries
                .iter()
                .map(|&(k, v)| Value::pair(Value::Long(k), Value::Long(v)))
                .collect(),
        )
    }

    fn canon(v: &Value) -> Value {
        match v.as_bag() {
            Some(items) => {
                let mut s = items.to_vec();
                s.sort();
                Value::bag(s)
            }
            None => v.clone(),
        }
    }

    fn assert_same_meaning(e: &CExpr, env: &Env) -> CExpr {
        let mut ng = NameGen::new();
        let o = optimize(e, &mut ng);
        assert_eq!(
            canon(&eval(e, env).unwrap()),
            canon(&eval(&o, env).unwrap()),
            "optimized: {o:?}"
        );
        o
    }

    /// `{ (k, +/w) | (i, w) ← W, group by k : () }`
    fn total_agg_comp() -> CExpr {
        CExpr::Comp(Comprehension::new(
            CExpr::pair(
                CExpr::var("k"),
                CExpr::Agg(AggOp::new(BinOp::Add).unwrap(), Box::new(CExpr::var("w"))),
            ),
            vec![
                Qual::Gen(
                    Pattern::pair(Pattern::var("i"), Pattern::var("w")),
                    CExpr::var("W"),
                ),
                Qual::GroupBy(Pattern::var("k"), CExpr::Const(Value::Unit)),
            ],
        ))
    }

    #[test]
    fn rule16_eliminates_constant_key_group_by() {
        let e = total_agg_comp();
        let mut env = Env::new();
        env.insert("W".into(), pairs(&[(0, 1), (1, 2), (2, 3)]));
        let o = assert_same_meaning(&e, &env);
        let CExpr::Comp(c) = &o else { panic!() };
        assert!(
            c.quals.iter().all(|q| !matches!(q, Qual::GroupBy(_, _))),
            "group-by gone: {c:?}"
        );
        // The lifted bag is aggregated where it is produced, not let-bound.
        assert!(
            c.quals
                .iter()
                .all(|q| !matches!(q, Qual::Let(_, CExpr::Comp(_)))),
            "lifted bag inlined into its aggregation: {c:?}"
        );
        let out = eval(&o, &env).unwrap();
        assert_eq!(
            out.as_bag().unwrap(),
            &[Value::pair(Value::Unit, Value::Long(6))]
        );
    }

    #[test]
    fn rule17_eliminates_unique_key_group_by() {
        // { (k, +/w) | (i, w) ← W, group by k : i } — i is W's key.
        let e = CExpr::Comp(Comprehension::new(
            CExpr::pair(
                CExpr::var("k"),
                CExpr::Agg(AggOp::new(BinOp::Add).unwrap(), Box::new(CExpr::var("w"))),
            ),
            vec![
                Qual::Gen(
                    Pattern::pair(Pattern::var("i"), Pattern::var("w")),
                    CExpr::var("W"),
                ),
                Qual::GroupBy(Pattern::var("k"), CExpr::var("i")),
            ],
        ));
        let mut env = Env::new();
        env.insert("W".into(), pairs(&[(0, 5), (1, 7)]));
        let o = assert_same_meaning(&e, &env);
        let CExpr::Comp(c) = &o else { panic!() };
        assert!(
            c.quals.iter().all(|q| !matches!(q, Qual::GroupBy(_, _))),
            "{c:?}"
        );
        // The aggregation over a singleton should have been folded away.
        assert!(!format!("{c:?}").contains("Agg"), "{c:?}");
    }

    #[test]
    fn rule17_does_not_fire_on_non_unique_keys() {
        // Matrix-multiplication-shaped: key (i, j) but indexes {i, k, k2, j}.
        let e = CExpr::Comp(Comprehension::new(
            CExpr::Tuple(vec![
                CExpr::var("gi"),
                CExpr::var("gj"),
                CExpr::Agg(AggOp::new(BinOp::Add).unwrap(), Box::new(CExpr::var("v"))),
            ]),
            vec![
                Qual::Gen(
                    Pattern::pair(
                        Pattern::pair(Pattern::var("i"), Pattern::var("k")),
                        Pattern::var("m"),
                    ),
                    CExpr::var("M"),
                ),
                Qual::Gen(
                    Pattern::pair(
                        Pattern::pair(Pattern::var("k2"), Pattern::var("j")),
                        Pattern::var("n"),
                    ),
                    CExpr::var("N"),
                ),
                Qual::Pred(CExpr::eq(CExpr::var("k"), CExpr::var("k2"))),
                Qual::Let(
                    Pattern::var("v"),
                    CExpr::Bin(
                        BinOp::Mul,
                        Box::new(CExpr::var("m")),
                        Box::new(CExpr::var("n")),
                    ),
                ),
                Qual::GroupBy(
                    Pattern::pair(Pattern::var("gi"), Pattern::var("gj")),
                    CExpr::pair(CExpr::var("i"), CExpr::var("j")),
                ),
            ],
        ));
        let mut ng = NameGen::new();
        let o = optimize(&e, &mut ng);
        let CExpr::Comp(c) = &o else { panic!() };
        assert!(
            c.quals.iter().any(|q| matches!(q, Qual::GroupBy(_, _))),
            "group-by must remain: {c:?}"
        );
    }

    #[test]
    fn range_join_becomes_traversal() {
        // { (i, w) | i ← range(1, 10), (j, w) ← W, j == i }
        let e = CExpr::Comp(Comprehension::new(
            CExpr::pair(CExpr::var("i"), CExpr::var("w")),
            vec![
                Qual::Gen(
                    Pattern::var("i"),
                    CExpr::Range(Box::new(CExpr::long(1)), Box::new(CExpr::long(10))),
                ),
                Qual::Gen(
                    Pattern::pair(Pattern::var("j"), Pattern::var("w")),
                    CExpr::var("W"),
                ),
                Qual::Pred(CExpr::eq(CExpr::var("j"), CExpr::var("i"))),
            ],
        ));
        let mut env = Env::new();
        env.insert(
            "W".into(),
            pairs(&[(0, 100), (5, 500), (10, 1000), (11, 1100)]),
        );
        let o = assert_same_meaning(&e, &env);
        let CExpr::Comp(c) = &o else { panic!() };
        assert!(
            c.quals
                .iter()
                .all(|q| !matches!(q, Qual::Gen(_, CExpr::Range(_, _)))),
            "range generator eliminated: {c:?}"
        );
        assert!(
            c.quals
                .iter()
                .any(|q| matches!(q, Qual::Pred(CExpr::Call(Func::InRange, _)))),
            "inRange guard added: {c:?}"
        );
        let mut out = eval(&o, &env).unwrap().as_bag().unwrap().to_vec();
        out.sort();
        assert_eq!(out, pairs(&[(5, 500), (10, 1000)]).as_bag().unwrap());
    }

    #[test]
    fn offset_range_join_inverts_the_affine_index() {
        // { w | i ← range(0, 5), (j, w) ← W, j == i + 2 } — reads W[2..7].
        let e = CExpr::Comp(Comprehension::new(
            CExpr::var("w"),
            vec![
                Qual::Gen(
                    Pattern::var("i"),
                    CExpr::Range(Box::new(CExpr::long(0)), Box::new(CExpr::long(5))),
                ),
                Qual::Gen(
                    Pattern::pair(Pattern::var("j"), Pattern::var("w")),
                    CExpr::var("W"),
                ),
                Qual::Pred(CExpr::eq(
                    CExpr::var("j"),
                    CExpr::Bin(
                        BinOp::Add,
                        Box::new(CExpr::var("i")),
                        Box::new(CExpr::long(2)),
                    ),
                )),
            ],
        ));
        let mut env = Env::new();
        env.insert("W".into(), pairs(&[(1, 1), (2, 2), (7, 7), (8, 8)]));
        let o = assert_same_meaning(&e, &env);
        let mut out = eval(&o, &env).unwrap().as_bag().unwrap().to_vec();
        out.sort();
        assert_eq!(out, vec![Value::Long(2), Value::Long(7)]);
    }

    #[test]
    fn pure_range_sources_survive() {
        // { (i, 0) | i ← range(1, 3) } — nothing to join with.
        let e = CExpr::Comp(Comprehension::new(
            CExpr::pair(CExpr::var("i"), CExpr::long(0)),
            vec![Qual::Gen(
                Pattern::var("i"),
                CExpr::Range(Box::new(CExpr::long(1)), Box::new(CExpr::long(3))),
            )],
        ));
        let env = Env::new();
        let o = assert_same_meaning(&e, &env);
        let CExpr::Comp(c) = &o else { panic!() };
        assert!(matches!(&c.quals[0], Qual::Gen(_, CExpr::Range(_, _))));
    }

    #[test]
    fn matrix_multiplication_ranges_all_eliminate() {
        // The running example of §1.1, exactly as the translator builds it.
        let mm = CExpr::Comp(Comprehension::new(
            CExpr::pair(
                CExpr::pair(CExpr::var("gi"), CExpr::var("gj")),
                CExpr::Agg(AggOp::new(BinOp::Add).unwrap(), Box::new(CExpr::var("v"))),
            ),
            vec![
                Qual::Gen(
                    Pattern::var("i"),
                    CExpr::Range(Box::new(CExpr::long(0)), Box::new(CExpr::long(1))),
                ),
                Qual::Gen(
                    Pattern::var("j"),
                    CExpr::Range(Box::new(CExpr::long(0)), Box::new(CExpr::long(1))),
                ),
                Qual::Gen(
                    Pattern::var("k"),
                    CExpr::Range(Box::new(CExpr::long(0)), Box::new(CExpr::long(1))),
                ),
                Qual::Gen(
                    Pattern::pair(
                        Pattern::pair(Pattern::var("I"), Pattern::var("J")),
                        Pattern::var("m"),
                    ),
                    CExpr::var("M"),
                ),
                Qual::Pred(CExpr::eq(CExpr::var("I"), CExpr::var("i"))),
                Qual::Pred(CExpr::eq(CExpr::var("J"), CExpr::var("k"))),
                Qual::Gen(
                    Pattern::pair(
                        Pattern::pair(Pattern::var("I2"), Pattern::var("J2")),
                        Pattern::var("n"),
                    ),
                    CExpr::var("N"),
                ),
                Qual::Pred(CExpr::eq(CExpr::var("I2"), CExpr::var("k"))),
                Qual::Pred(CExpr::eq(CExpr::var("J2"), CExpr::var("j"))),
                Qual::Let(
                    Pattern::var("v"),
                    CExpr::Bin(
                        BinOp::Mul,
                        Box::new(CExpr::var("m")),
                        Box::new(CExpr::var("n")),
                    ),
                ),
                Qual::GroupBy(
                    Pattern::pair(Pattern::var("gi"), Pattern::var("gj")),
                    CExpr::pair(CExpr::var("i"), CExpr::var("j")),
                ),
            ],
        ));
        let mat = |vals: &[(i64, i64, i64)]| {
            Value::bag(
                vals.iter()
                    .map(|&(i, j, v)| {
                        Value::pair(Value::pair(Value::Long(i), Value::Long(j)), Value::Long(v))
                    })
                    .collect(),
            )
        };
        let mut env = Env::new();
        env.insert(
            "M".into(),
            mat(&[(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, 4)]),
        );
        env.insert(
            "N".into(),
            mat(&[(0, 0, 5), (0, 1, 6), (1, 0, 7), (1, 1, 8)]),
        );
        let o = assert_same_meaning(&mm, &env);
        let CExpr::Comp(c) = &o else { panic!() };
        assert!(
            c.quals
                .iter()
                .all(|q| !matches!(q, Qual::Gen(_, CExpr::Range(_, _)))),
            "all three ranges eliminated: {c:?}"
        );
        let mut out = eval(&o, &env).unwrap().as_bag().unwrap().to_vec();
        out.sort();
        assert_eq!(
            out,
            mat(&[(0, 0, 19), (0, 1, 22), (1, 0, 43), (1, 1, 50)])
                .as_bag()
                .unwrap()
        );
    }

    #[test]
    fn duplicate_array_accesses_are_merged() {
        // { v1 * v2 | (i1, v1) ← P, i1 == i, (i2, v2) ← P, i2 == i } — the
        // shape E⟦P[i] * P[i]⟧ produces. One access must remain.
        let e = CExpr::Comp(Comprehension::new(
            CExpr::Bin(
                BinOp::Mul,
                Box::new(CExpr::var("v1")),
                Box::new(CExpr::var("v2")),
            ),
            vec![
                Qual::Gen(
                    Pattern::pair(Pattern::var("i1"), Pattern::var("v1")),
                    CExpr::var("P"),
                ),
                Qual::Pred(CExpr::eq(CExpr::var("i1"), CExpr::var("i"))),
                Qual::Gen(
                    Pattern::pair(Pattern::var("i2"), Pattern::var("v2")),
                    CExpr::var("P"),
                ),
                Qual::Pred(CExpr::eq(CExpr::var("i2"), CExpr::var("i"))),
            ],
        ));
        let mut env = Env::new();
        env.insert("P".into(), pairs(&[(1, 3), (2, 5)]));
        env.insert("i".into(), Value::Long(2));
        let o = assert_same_meaning(&e, &env);
        let CExpr::Comp(c) = &o else { panic!() };
        let gens = c
            .quals
            .iter()
            .filter(|q| matches!(q, Qual::Gen(_, CExpr::Var(_))))
            .count();
        assert_eq!(gens, 1, "one traversal of P remains: {c:?}");
        assert_eq!(
            eval(&o, &env).unwrap().as_bag().unwrap(),
            &[Value::Long(25)]
        );
    }

    #[test]
    fn distinct_accesses_are_not_merged() {
        // P[i] * P[i+1] must keep two generators.
        let e = CExpr::Comp(Comprehension::new(
            CExpr::Bin(
                BinOp::Mul,
                Box::new(CExpr::var("v1")),
                Box::new(CExpr::var("v2")),
            ),
            vec![
                Qual::Gen(
                    Pattern::pair(Pattern::var("i1"), Pattern::var("v1")),
                    CExpr::var("P"),
                ),
                Qual::Pred(CExpr::eq(CExpr::var("i1"), CExpr::var("i"))),
                Qual::Gen(
                    Pattern::pair(Pattern::var("i2"), Pattern::var("v2")),
                    CExpr::var("P"),
                ),
                Qual::Pred(CExpr::eq(
                    CExpr::var("i2"),
                    CExpr::Bin(
                        BinOp::Add,
                        Box::new(CExpr::var("i")),
                        Box::new(CExpr::long(1)),
                    ),
                )),
            ],
        ));
        let mut ng = NameGen::new();
        let o = optimize(&e, &mut ng);
        let CExpr::Comp(c) = &o else { panic!() };
        let gens = c
            .quals
            .iter()
            .filter(|q| matches!(q, Qual::Gen(_, CExpr::Var(_))))
            .count();
        assert_eq!(gens, 2, "{c:?}");
    }

    #[test]
    fn dead_lets_are_removed() {
        let e = CExpr::Comp(Comprehension::new(
            CExpr::var("x"),
            vec![
                Qual::Gen(Pattern::var("x"), CExpr::var("X")),
                Qual::Let(Pattern::var("unused"), CExpr::long(3)),
            ],
        ));
        let mut ng = NameGen::new();
        let o = optimize(&e, &mut ng);
        let CExpr::Comp(c) = &o else { panic!() };
        assert_eq!(c.quals.len(), 1, "{c:?}");
    }
}
