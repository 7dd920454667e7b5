//! Comprehension optimization (§4 and §3.6): the last five rules of the
//! rewrite table (`crate::rewrite`), each meaning-preserving.
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
//! * **Common array-access elimination** — two traversals pinned to the
//!   same element of the same array become one.
//! * **Dead lets** — bindings the rewrites leave behind that nothing
//!   references are removed.
//!
//! The driver tries these only on a comprehension the normalization rules
//! have nothing left to do on.

use diablo_runtime::{BinOp, Func};

use crate::ir::{CExpr, Comprehension, NameGen, Pattern, Qual, Subst};
use crate::rewrite::{rewrite, RewriteStats};

/// Optimizes an expression: normalization, Rule (16), Rule (17), range
/// elimination, access deduplication and dead-let removal, to their joint
/// fixpoint.
pub fn optimize(e: &CExpr, ng: &mut NameGen) -> CExpr {
    optimize_counted(e.clone(), ng, &mut RewriteStats::default())
}

/// [`optimize`] over an owned term, adding the rules' fire counts and the
/// driver's visits to `stats`.
pub fn optimize_counted(mut e: CExpr, ng: &mut NameGen, stats: &mut RewriteStats) -> CExpr {
    rewrite(&mut e, true, ng, stats);
    e
}

/// Position of the first group-by, with its pattern and key.
fn first_group_by(quals: &[Qual]) -> Option<(usize, &Pattern, &CExpr)> {
    quals.iter().enumerate().find_map(|(at, q)| match q {
        Qual::GroupBy(p, key) => Some((at, p, key)),
        _ => None,
    })
}

/// Number of qualifiers before the first group-by (all of them if none).
fn before_group_by(quals: &[Qual]) -> usize {
    first_group_by(quals).map_or(quals.len(), |(at, _, _)| at)
}

/// Every variable the qualifiers bind, in binding order.
fn bound_names(quals: &[Qual]) -> Vec<&str> {
    let mut names = Vec::new();
    quals
        .iter()
        .for_each(|q| q.each_bound(&mut |v| names.push(v)));
    names
}

/// True if `e` mentions any of `names` free.
fn mentions_any(e: &CExpr, names: &[&str]) -> bool {
    let mut hit = false;
    e.each_free(&mut |v, _| hit |= names.contains(&v));
    hit
}

/// Removes the qualifiers at the given positions.
fn remove_at(quals: &mut Vec<Qual>, positions: &[usize]) {
    let mut at = 0;
    quals.retain(|_| {
        at += 1;
        !positions.contains(&(at - 1))
    });
}

/// Adds the free variables of `e` that `used` does not hold yet.
fn note_free<'a>(e: &'a CExpr, used: &mut Vec<&'a str>) {
    e.each_free(&mut |v, _| {
        if !used.contains(&v) {
            used.push(v);
        }
    });
}

/// The free variables of the head and of `quals`' expressions.
fn used_names<'a>(quals: &'a [Qual], head: &'a CExpr) -> Vec<&'a str> {
    let mut used = Vec::new();
    let exprs = quals.iter().map(Qual::expr).chain(std::iter::once(head));
    exprs.for_each(|e| note_free(e, &mut used));
    used
}

// --------------------------------------------------------------- Rule (16)

/// `{ e | q1, group by p : c, q2 } →
///  { e | let p = c, ∀vi: let vi = {vi | q1}, q2 }`
/// when the key `c` is constant with respect to the prefix `q1`.
pub(crate) fn rule16_constant_key(c: &mut Comprehension, _: &mut NameGen) -> bool {
    let Some((gpos, p, key)) = first_group_by(&c.quals) else {
        return false;
    };
    let (q1, rest) = c.quals.split_at(gpos);
    let prefix_vars = bound_names(q1);
    if mentions_any(key, &prefix_vars) {
        return false; // key depends on the prefix — not constant
    }
    // Only the lifted variables actually used downstream are built.
    let used = used_names(&rest[1..], &c.head);
    let mut new_quals: Vec<Qual> = vec![Qual::Let(p.clone(), key.clone())];
    for v in prefix_vars {
        if !p.binds(v) && used.contains(&v) {
            let lifted = CExpr::Comp(Comprehension::new(CExpr::var(v), q1.to_vec()));
            new_quals.push(Qual::Let(Pattern::var(v), lifted));
        }
    }
    new_quals.extend(c.quals.drain(gpos + 1..));
    c.quals = new_quals;
    true
}

// --------------------------------------------------------------- Rule (17)

/// What a qualifier contributes to the uniqueness analysis.
enum IndexVars<'a> {
    /// The key variables of an array traversal `(k, v) ← A` /
    /// `((i, j), v) ← A`, or the variable of a range generator.
    Of(Vec<&'a str>),
    /// A generator of a shape the analysis does not recognize.
    Unknown,
    /// Not a generator.
    NotAGenerator,
}

fn generator_index_vars(q: &Qual) -> IndexVars<'_> {
    match q {
        Qual::Gen(Pattern::Var(i), CExpr::Range(_, _)) => IndexVars::Of(vec![i]),
        Qual::Gen(Pattern::Tuple(ps), CExpr::Var(_)) if ps.len() == 2 => {
            // (key_pattern, value) ← Dataset
            let mut vars = Vec::new();
            ps[0].each_var(&mut |v| vars.push(v));
            IndexVars::Of(vars)
        }
        Qual::Gen(_, _) => IndexVars::Unknown,
        _ => IndexVars::NotAGenerator,
    }
}

/// Rule (17): a group-by whose key consists of exactly the index variables
/// of *all* generators before it is unique — each group is a singleton.
pub(crate) fn rule17_unique_key(c: &mut Comprehension, _: &mut NameGen) -> bool {
    let Some((gpos, p, key)) = first_group_by(&c.quals) else {
        return false;
    };
    let q1 = &c.quals[..gpos];
    // Gather index variables from every generator in the prefix.
    let mut index_vars: Vec<&str> = Vec::new();
    for q in q1 {
        match generator_index_vars(q) {
            IndexVars::Of(vars) => index_vars.extend(vars),
            IndexVars::Unknown => return false,
            IndexVars::NotAGenerator => {}
        }
    }
    // The key must be a variable or tuple of variables covering exactly the
    // index variables.
    let Some(key_vars) = key_var_list(key) else {
        return false;
    };
    if index_vars.is_empty()
        || !index_vars.iter().all(|v| key_vars.contains(v))
        || !key_vars.iter().all(|v| index_vars.contains(v))
    {
        return false;
    }
    // Replace the group-by with a let for the key pattern. Every lifted
    // variable forms a singleton group, so downstream uses are substituted
    // with the singleton bag `{v}` directly (a let would shadow itself).
    let lifted: Subst = bound_names(q1)
        .into_iter()
        .filter(|v| !p.binds(v))
        .map(|v| (v.to_string(), CExpr::singleton(CExpr::var(v))))
        .collect();
    let Qual::GroupBy(p, key) = std::mem::replace(&mut c.quals[gpos], Qual::Pred(CExpr::long(0)))
    else {
        unreachable!("first_group_by found a group-by here");
    };
    c.quals[gpos] = Qual::Let(p, key);
    c.subst_from(gpos + 1, &lifted);
    true
}

/// If the expression is a variable or a tuple of variables, returns them.
fn key_var_list(e: &CExpr) -> Option<Vec<&str>> {
    match e {
        CExpr::Var(v) => Some(vec![v]),
        CExpr::Tuple(fs) => fs
            .iter()
            .map(|f| match f {
                CExpr::Var(v) => Some(v.as_str()),
                _ => None,
            })
            .collect(),
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
pub(crate) fn dedup_array_accesses(c: &mut Comprehension, _: &mut NameGen) -> bool {
    let mut fired = false;
    while let Some((dropped, renames)) = find_duplicate_access(&c.quals) {
        remove_at(&mut c.quals, &dropped);
        c.subst_from(0, &renames);
        fired = true;
    }
    fired
}

/// A dataset generator whose every index variable is pinned by a later
/// equality condition.
struct Access<'a> {
    array: &'a str,
    /// The expression each index variable is pinned to.
    pins: Vec<&'a CExpr>,
    /// The qualifier positions of the pinning conditions.
    pin_positions: Vec<usize>,
    /// The pattern's index variables, then its value variable.
    vars: Vec<&'a str>,
}

/// The [`Access`] of the generator at `gpos`; `None` when it is not a
/// dataset traversal or any index is unpinned before `limit`.
fn access_signature(quals: &[Qual], gpos: usize, limit: usize) -> Option<Access<'_>> {
    let Qual::Gen(Pattern::Tuple(ps), CExpr::Var(array)) = &quals[gpos] else {
        return None;
    };
    let [key, Pattern::Var(value_var)] = ps.as_slice() else {
        return None;
    };
    let mut vars = Vec::new();
    key.each_var(&mut |v| vars.push(v));
    let mut pins = Vec::with_capacity(vars.len());
    let mut pin_positions = Vec::with_capacity(vars.len());
    for iv in &vars {
        let (qpos, pin) = (gpos + 1..limit).find_map(|qpos| {
            let Qual::Pred(CExpr::Bin(BinOp::Eq, a, b)) = &quals[qpos] else {
                return None;
            };
            [(a, b), (b, a)].into_iter().find_map(|(lhs, rhs)| {
                (matches!(lhs.as_ref(), CExpr::Var(v) if v == iv) && !mentions_any(rhs, &vars))
                    .then_some((qpos, rhs.as_ref()))
            })
        })?;
        pins.push(pin);
        pin_positions.push(qpos);
    }
    vars.push(value_var);
    Some(Access {
        array,
        pins,
        pin_positions,
        vars,
    })
}

/// The first pair of generators before the group-by that read the same
/// element: the positions to drop (the later generator and its pins) and
/// the renaming of its variables to the earlier one's.
fn find_duplicate_access(quals: &[Qual]) -> Option<(Vec<usize>, Subst)> {
    let limit = before_group_by(quals);
    let accesses: Vec<(usize, Access)> = (0..limit)
        .filter_map(|g| access_signature(quals, g, limit).map(|a| (g, a)))
        .collect();
    for (n, (_, first)) in accesses.iter().enumerate() {
        for (gpos, second) in &accesses[n + 1..] {
            if first.array == second.array && first.pins == second.pins {
                let mut dropped = second.pin_positions.clone();
                dropped.push(*gpos);
                let renames = second.vars.iter().zip(&first.vars);
                let renames = renames.map(|(from, to)| (from.to_string(), CExpr::var(*to)));
                return Some((dropped, renames.collect()));
            }
        }
    }
    None
}

// ------------------------------------------------- range elimination (§3.6)

/// For an invertible affine use `I = f(i)` returns `F(I)` with
/// `f(F(k)) = k`; every other variable of `f` must be none of `locals`.
fn invert_affine(f: &CExpr, i: &str, index: CExpr, locals: &[&str]) -> Option<CExpr> {
    let is_i = |e: &CExpr| matches!(e, CExpr::Var(v) if v == i);
    let invariant = |e: &CExpr| !mentions_any(e, locals);
    let bin = |op, a: CExpr, b: &CExpr| CExpr::Bin(op, Box::new(a), Box::new(b.clone()));
    match f {
        f if is_i(f) => Some(index),
        // i + c = I and c + i = I give i = I - c
        CExpr::Bin(BinOp::Add, a, b) if is_i(a) && invariant(b) => Some(bin(BinOp::Sub, index, b)),
        CExpr::Bin(BinOp::Add, a, b) if is_i(b) && invariant(a) => Some(bin(BinOp::Sub, index, a)),
        // i - c = I gives i = I + c; c - i = I gives i = c - I
        CExpr::Bin(BinOp::Sub, a, b) if is_i(a) && invariant(b) => Some(bin(BinOp::Add, index, b)),
        CExpr::Bin(BinOp::Sub, a, b) if is_i(b) && invariant(a) => {
            Some(bin(BinOp::Sub, a.as_ref().clone(), &index))
        }
        _ => None,
    }
}

/// Eliminates `i ← range(lo, hi)` generators that are joined to an array
/// traversal through an equality `I = f(i)` with invertible affine `f`.
pub(crate) fn eliminate_ranges(c: &mut Comprehension, _: &mut NameGen) -> bool {
    let mut fired = false;
    while let Some(found) = find_range_join(c) {
        let RangeJoin {
            rpos,
            ppos,
            gpos,
            var,
            inverse,
            in_range,
        } = found;
        let mut out = Vec::with_capacity(c.quals.len());
        for (qpos, q) in std::mem::take(&mut c.quals).into_iter().enumerate() {
            if qpos != rpos && qpos != ppos {
                out.push(q);
            }
            if qpos == gpos {
                out.push(Qual::Pred(in_range.clone()));
            }
        }
        c.quals = out;
        c.subst_from(0, &[(var, inverse)]);
        fired = true;
    }
    fired
}

/// A range generator at `rpos` joined by the condition at `ppos` to an
/// index variable of the dataset traversal at `gpos`.
struct RangeJoin {
    rpos: usize,
    ppos: usize,
    gpos: usize,
    /// The range variable `i`, and `F(I)` to put in its place.
    var: String,
    inverse: CExpr,
    /// `inRange(F(I), lo, hi)`, to go right after the traversal.
    in_range: CExpr,
}

fn find_range_join(c: &Comprehension) -> Option<RangeJoin> {
    // The rewrite is only valid before any group-by (generators after a
    // group-by see lifted variables; our translation never puts range
    // generators there, but be safe).
    let limit = before_group_by(&c.quals);
    let quals = &c.quals[..limit];
    if !quals
        .iter()
        .any(|q| matches!(q, Qual::Gen(Pattern::Var(_), CExpr::Range(_, _))))
    {
        return None;
    }
    let locals = bound_names(&c.quals);
    for (rpos, q) in quals.iter().enumerate() {
        let Qual::Gen(Pattern::Var(i), CExpr::Range(lo, hi)) = q else {
            continue;
        };
        // Range bounds must be loop-invariant (they are, by construction).
        if mentions_any(lo, &locals) || mentions_any(hi, &locals) {
            continue;
        }
        let other_locals: Vec<&str> = locals.iter().copied().filter(|l| l != i).collect();
        // Find a later equality pred `I = f(i)` (either side) where `I` is
        // an index variable of a dataset generator at position gpos.
        for ppos in rpos + 1..limit {
            let Qual::Pred(CExpr::Bin(BinOp::Eq, a, b)) = &quals[ppos] else {
                continue;
            };
            for (lhs, rhs) in [(a, b), (b, a)] {
                let CExpr::Var(index_var) = lhs.as_ref() else {
                    continue;
                };
                if index_var == i || !rhs.mentions(i) {
                    continue;
                }
                // index_var must come from a dataset traversal generator.
                let Some(gpos) = quals.iter().position(|g| {
                    let traversal = !matches!(g, Qual::Gen(_, CExpr::Range(_, _)));
                    traversal
                        && matches!(generator_index_vars(g), IndexVars::Of(vs)
                            if vs.contains(&index_var.as_str()))
                }) else {
                    continue;
                };
                // f(i) must be invertible.
                let Some(inverse) = invert_affine(rhs, i, CExpr::var(index_var), &other_locals)
                else {
                    continue;
                };
                // Every other use of `i` must be at a position after the
                // dataset generator (where `index_var` is in scope).
                let early_use = c.quals[..=gpos]
                    .iter()
                    .enumerate()
                    .any(|(qpos, q)| qpos != rpos && qpos != ppos && q.expr().mentions(i));
                if early_use {
                    continue;
                }
                let bounds = [inverse.clone(), lo.as_ref().clone(), hi.as_ref().clone()];
                return Some(RangeJoin {
                    rpos,
                    ppos,
                    gpos,
                    var: i.clone(),
                    inverse,
                    in_range: CExpr::Call(Func::InRange, bounds.into()),
                });
            }
        }
    }
    None
}

// -------------------------------------------------------------- dead lets

/// Removes let-bindings whose variables are never used downstream.
pub(crate) fn drop_dead_lets(c: &mut Comprehension, _: &mut NameGen) -> bool {
    if !c.quals.iter().any(|q| matches!(q, Qual::Let(_, _))) {
        return false;
    }
    // Walk backwards tracking used variables.
    let mut used: Vec<&str> = Vec::new();
    note_free(&c.head, &mut used);
    let mut dead: Vec<usize> = Vec::new();
    for (at, q) in c.quals.iter().enumerate().rev() {
        let mut live = !matches!(q, Qual::Let(_, _));
        q.each_bound(&mut |v| live |= used.contains(&v));
        if live {
            note_free(q.expr(), &mut used);
        } else {
            dead.push(at);
        }
    }
    remove_at(&mut c.quals, &dead);
    !dead.is_empty()
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
