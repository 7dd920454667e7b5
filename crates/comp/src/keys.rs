//! Array-key uniqueness (§3.4): when the head keys of an update
//! comprehension `{ (k, v) | … }` are distinct by construction.
//!
//! The translator writes every update as a merge, `X := X ⊳ e`. When the
//! old side holds no rows and no two rows of `e` share a key, the merge
//! returns `e` unchanged — its two-sided shuffle is pure overhead.
//! [`unique_keys`] proves the second half from the comprehension's syntax alone, by one
//! of two rules:
//!
//! 1. **Group-by.** The head key is exactly the pattern of the last
//!    `group by`, and no generator follows it: a group-by emits one
//!    binding per key, and conditions and `let`s after it only filter or
//!    extend those bindings.
//! 2. **Generator keys.** After inlining `let`s, the head key is a
//!    variable or a tuple of variables, and every generator is either
//!    `x ← range(…)` (key variable `x`) or `(kp, _) ← A` over an array `A`
//!    with a wildcard-free key pattern `kp` (key variables: `kp`'s). Each
//!    generator's key variables appear in the head key or are equated, by
//!    an `x == y` condition, to a variable bound before that generator.
//!    Arrays have unique keys and ranges are sets, so two bindings with
//!    the same head key agree on the first generator's key, hence on its
//!    element and on every `let` over it, hence on the next generator's
//!    key — by induction on every generator, so they are the same binding.
//!
//! Anything else is not proven: other domains, a computed key, a join on
//! part of a key, a wildcard in a key pattern, a generator after the
//! group-by, or a name bound twice.
//!
//! [`unique_keys`]: Comprehension::unique_keys

use std::collections::{HashMap, HashSet};

use diablo_runtime::BinOp;

use crate::ir::{CExpr, Comprehension, Pattern, Qual};

/// Which rule proved an update's head keys unique.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyProof {
    /// The head key is the last group-by's key (rule 1).
    GroupBy,
    /// Fixing the head key fixes every generator's element (rule 2).
    GeneratorKeys,
}

impl KeyProof {
    /// The rule's name as `explain` prints it.
    pub fn name(self) -> &'static str {
        match self {
            KeyProof::GroupBy => "group-by",
            KeyProof::GeneratorKeys => "generator keys",
        }
    }
}

impl Comprehension {
    /// Proves that no two elements of this comprehension share a key, or
    /// returns `None`. The head must be a pair `(key, _)`; `is_array`
    /// tells which free names are arrays — datasets whose keys are unique
    /// (§3.4). See the module docs for the two rules.
    pub fn unique_keys(&self, is_array: &dyn Fn(&str) -> bool) -> Option<KeyProof> {
        let CExpr::Tuple(head) = self.head.as_ref() else {
            return None;
        };
        let [key, _] = head.as_slice() else {
            return None;
        };
        match self
            .quals
            .iter()
            .rposition(|q| matches!(q, Qual::GroupBy(..)))
        {
            Some(g) => self.group_by_key(g, key).then_some(KeyProof::GroupBy),
            None => self
                .generator_keys(key, is_array)
                .then_some(KeyProof::GeneratorKeys),
        }
    }

    /// Rule 1: `key` is the pattern of the group-by at `g`, no generator
    /// follows it, and nothing after it rebinds the pattern's variables.
    fn group_by_key(&self, g: usize, key: &CExpr) -> bool {
        let Qual::GroupBy(p, _) = &self.quals[g] else {
            return false;
        };
        let after = &self.quals[g + 1..];
        !has_wildcard(p)
            && *key == p.to_expr()
            && !after.iter().any(|q| matches!(q, Qual::Gen(..)))
            && !after
                .iter()
                .any(|q| q.pattern().is_some_and(|later| shares_var(later, p)))
    }

    /// Rule 2, for a comprehension without a group-by.
    fn generator_keys(&self, key: &CExpr, is_array: &dyn Fn(&str) -> bool) -> bool {
        // Each name bound once, so "the" binder of a variable is defined.
        let mut bound: HashSet<&str> = HashSet::new();
        let mut unique = true;
        for q in &self.quals {
            q.each_bound(&mut |v| unique &= bound.insert(v));
        }
        if !unique {
            return false;
        }
        let mut lets: HashMap<&str, &CExpr> = self
            .quals
            .iter()
            .filter_map(|q| match q {
                Qual::Let(Pattern::Var(v), e) => Some((v.as_str(), e)),
                _ => None,
            })
            .collect();
        let mut in_key = HashSet::new();
        if !key_vars(key, &mut lets, &mut in_key) {
            return false;
        }
        let mut before: HashSet<&str> = HashSet::new();
        for (g, q) in self.quals.iter().enumerate() {
            if let Qual::Gen(p, dom) = q {
                let gen_keys = match (p, dom) {
                    (Pattern::Var(x), CExpr::Range(..)) => vec![x.as_str()],
                    (Pattern::Tuple(ps), CExpr::Var(a))
                        if ps.len() == 2
                            && !has_wildcard(&ps[0])
                            && !bound.contains(a.as_str())
                            && is_array(a) =>
                    {
                        let mut vs = Vec::new();
                        ps[0].each_var(&mut |v| vs.push(v));
                        vs
                    }
                    _ => return false,
                };
                let fixed = |x: &str| {
                    in_key.contains(x)
                        || self.quals[g + 1..]
                            .iter()
                            .any(|q| equated_to(q, x).is_some_and(|y| before.contains(y)))
                };
                if !gen_keys.into_iter().all(fixed) {
                    return false;
                }
            }
            q.each_bound(&mut |v| {
                before.insert(v);
            });
        }
        true
    }
}

/// Collects the variables of a key that is a variable or a tuple of
/// variables once `let`-bound variables are replaced by their definitions;
/// false for a computed key. Each definition is inlined once (a later
/// occurrence counts as the variable itself), so a definition that
/// mentions a free variable of its own name cannot loop.
fn key_vars<'a>(
    key: &'a CExpr,
    lets: &mut HashMap<&str, &'a CExpr>,
    out: &mut HashSet<&'a str>,
) -> bool {
    match key {
        CExpr::Var(v) => match lets.remove(v.as_str()) {
            Some(def) => key_vars(def, lets, out),
            None => {
                out.insert(v);
                true
            }
        },
        CExpr::Tuple(fields) => fields.iter().all(|f| key_vars(f, lets, out)),
        _ => false,
    }
}

/// The variable `x` is equated to by the condition `q`, if `q` is
/// `x == y` or `y == x` over two variables.
fn equated_to<'a>(q: &'a Qual, x: &str) -> Option<&'a str> {
    let Qual::Pred(CExpr::Bin(BinOp::Eq, a, b)) = q else {
        return None;
    };
    match (a.as_ref(), b.as_ref()) {
        (CExpr::Var(l), CExpr::Var(r)) if l == x => Some(r),
        (CExpr::Var(l), CExpr::Var(r)) if r == x => Some(l),
        _ => None,
    }
}

fn has_wildcard(p: &Pattern) -> bool {
    match p {
        Pattern::Wild => true,
        Pattern::Var(_) => false,
        Pattern::Tuple(ps) => ps.iter().any(has_wildcard),
    }
}

fn shares_var(a: &Pattern, b: &Pattern) -> bool {
    let mut shared = false;
    a.each_var(&mut |v| shared |= b.binds(v));
    shared
}

#[cfg(test)]
mod tests {
    use super::*;
    use diablo_runtime::AggOp;

    fn var(v: &str) -> CExpr {
        CExpr::var(v)
    }

    fn pair(a: Pattern, b: Pattern) -> Pattern {
        Pattern::pair(a, b)
    }

    fn pv(v: &str) -> Pattern {
        Pattern::var(v)
    }

    /// `((i, j), v) <- A`.
    fn matrix_gen(i: &str, j: &str, v: &str, a: &str) -> Qual {
        Qual::Gen(pair(pair(pv(i), pv(j)), pv(v)), var(a))
    }

    fn eq(a: &str, b: &str) -> Qual {
        Qual::Pred(CExpr::eq(var(a), var(b)))
    }

    fn range(n: i64) -> CExpr {
        CExpr::Range(Box::new(CExpr::long(0)), Box::new(CExpr::long(n)))
    }

    fn proof(head_key: CExpr, quals: Vec<Qual>) -> Option<KeyProof> {
        let arrays = ["A", "M", "N", "V"];
        Comprehension::new(CExpr::pair(head_key, var("out")), quals)
            .unique_keys(&|n| arrays.contains(&n))
    }

    #[test]
    fn group_by_key_is_unique() {
        // { (k, +/v) | (_, w) <- V, let v = 1, group by k : w }
        let sum = AggOp::new(BinOp::Add).expect("+ is a monoid");
        let c = Comprehension::new(
            CExpr::pair(var("k"), CExpr::Agg(sum, Box::new(var("v")))),
            vec![
                Qual::Gen(pair(Pattern::Wild, pv("w")), var("V")),
                Qual::Let(pv("v"), CExpr::long(1)),
                Qual::GroupBy(pv("k"), var("w")),
            ],
        );
        assert_eq!(c.unique_keys(&|n| n == "V"), Some(KeyProof::GroupBy));
        // A group-by rebinding a `let` of its own key (`group by k : k`).
        let rebinding = vec![
            matrix_gen("i", "j", "v", "M"),
            Qual::Let(pv("k"), CExpr::pair(var("i"), var("j"))),
            Qual::GroupBy(pv("k"), var("k")),
        ];
        assert_eq!(proof(var("k"), rebinding), Some(KeyProof::GroupBy));
    }

    #[test]
    fn generator_keys_are_unique() {
        // Matrix Addition: { (k, …) | ((i, j), a) <- M, ((i', j'), b) <- N,
        // i' == i, j' == j, let k = (i, j) }.
        let quals = vec![
            matrix_gen("i", "j", "a", "M"),
            matrix_gen("i2", "j2", "b", "N"),
            eq("i2", "i"),
            eq("j", "j2"),
            Qual::Let(pv("k"), CExpr::pair(var("i"), var("j"))),
        ];
        assert_eq!(proof(var("k"), quals), Some(KeyProof::GeneratorKeys));
        // Two nested ranges keyed by both indexes.
        let zero_fill = vec![Qual::Gen(pv("i"), range(3)), Qual::Gen(pv("j"), range(3))];
        assert_eq!(
            proof(CExpr::pair(var("i"), var("j")), zero_fill),
            Some(KeyProof::GeneratorKeys)
        );
    }

    #[test]
    fn a_head_key_that_drops_a_generator_key_is_not_proven() {
        // { (i, v) | ((i, j), v) <- M }
        assert_eq!(proof(var("i"), vec![matrix_gen("i", "j", "v", "M")]), None);
    }

    #[test]
    fn a_join_on_part_of_a_key_is_not_proven() {
        // (i', j') <- N joined on i' == i only.
        let quals = vec![
            Qual::Gen(pair(pv("i"), pv("v")), var("V")),
            matrix_gen("i2", "j2", "w", "N"),
            eq("i2", "i"),
        ];
        assert_eq!(proof(var("i"), quals), None);
    }

    #[test]
    fn a_wildcard_key_is_not_proven() {
        // (_, v) <- A: the key is not bound, so nothing can fix it.
        let quals = vec![Qual::Gen(pair(Pattern::Wild, pv("v")), var("A"))];
        assert_eq!(proof(var("v"), quals), None);
    }

    #[test]
    fn a_domain_that_is_not_an_array_is_not_proven() {
        // (i, v) <- B, where B is no array (a bag, or a variable bound in
        // the comprehension), and (i, v) <- { … }.
        let not_array = vec![Qual::Gen(pair(pv("i"), pv("v")), var("B"))];
        assert_eq!(proof(var("i"), not_array), None);
        let nested = vec![Qual::Gen(
            pair(pv("i"), pv("v")),
            CExpr::singleton(CExpr::pair(CExpr::long(1), CExpr::long(2))),
        )];
        assert_eq!(proof(var("i"), nested), None);
    }

    #[test]
    fn a_generator_after_the_group_by_is_not_proven() {
        let quals = vec![
            Qual::Gen(pair(pv("i"), pv("v")), var("V")),
            Qual::GroupBy(pv("k"), var("v")),
            Qual::Gen(pair(pv("j"), pv("w")), var("A")),
        ];
        assert_eq!(proof(var("k"), quals), None);
    }

    #[test]
    fn a_computed_key_is_not_proven() {
        // (i + 1, v): injective here, but the proof does not look inside.
        let plus_one = CExpr::Bin(BinOp::Add, Box::new(var("i")), Box::new(CExpr::long(1)));
        let quals = vec![Qual::Gen(pair(pv("i"), pv("v")), var("V"))];
        assert_eq!(proof(plus_one.clone(), quals.clone()), None);
        // The same through a `let`.
        let mut via_let = quals;
        via_let.push(Qual::Let(pv("k"), plus_one));
        assert_eq!(proof(var("k"), via_let), None);
    }

    #[test]
    fn shadowing_and_non_pair_heads_are_not_proven() {
        // A later `let` rebinding the group-by key.
        let rebound = vec![
            Qual::Gen(pair(pv("i"), pv("v")), var("V")),
            Qual::GroupBy(pv("k"), var("v")),
            Qual::Let(pv("k"), CExpr::long(0)),
        ];
        assert_eq!(proof(var("k"), rebound), None);
        // A generator key bound twice.
        let twice = vec![
            Qual::Gen(pair(pv("i"), pv("v")), var("V")),
            Qual::Gen(pair(pv("i"), pv("w")), var("A")),
        ];
        assert_eq!(proof(var("i"), twice), None);
        // The head is no pair.
        let c = Comprehension::new(var("i"), vec![Qual::Gen(pair(pv("i"), pv("v")), var("V"))]);
        assert_eq!(c.unique_keys(&|n| n == "V"), None);
    }

    #[test]
    fn a_let_mentioning_its_own_name_is_inlined_once() {
        // `let k = (k, i)` over a free `k`: the key is (free k, i), one row
        // per i — and inlining stops instead of looping.
        let quals = vec![
            Qual::Gen(pair(pv("i"), pv("v")), var("V")),
            Qual::Let(pv("k"), CExpr::pair(var("k"), var("i"))),
        ];
        assert_eq!(proof(var("k"), quals), Some(KeyProof::GeneratorKeys));
    }
}
