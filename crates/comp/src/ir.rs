//! The comprehension IR.
//!
//! This mirrors the calculus of §3.3 plus the handful of extra forms the
//! translation rules of Fig. 2 need: total aggregations `⊕/e`, the array
//! merge `X ⊳ Y` (optionally merging colliding keys with a monoid — see
//! `MERGE.md` note in the crate docs), and `range(lo, hi)` sources standing
//! for for-loop iteration spaces.

use std::collections::HashSet;

use diablo_runtime::{AggOp, BinOp, Func, UnOp, Value};

/// A pattern bound by a generator, let-binding, or group-by.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// A variable pattern.
    Var(String),
    /// A tuple pattern `(p1, ..., pn)`.
    Tuple(Vec<Pattern>),
    /// The wildcard `_`.
    Wild,
}

impl Pattern {
    /// A pair pattern `(a, b)` — the shape of sparse-array traversals.
    pub fn pair(a: Pattern, b: Pattern) -> Pattern {
        Pattern::Tuple(vec![a, b])
    }

    /// A variable pattern.
    pub fn var(name: impl Into<String>) -> Pattern {
        Pattern::Var(name.into())
    }

    /// Collects the variables bound by this pattern, in order.
    pub fn vars(&self, out: &mut Vec<String>) {
        match self {
            Pattern::Var(v) => out.push(v.clone()),
            Pattern::Tuple(ps) => {
                for p in ps {
                    p.vars(out);
                }
            }
            Pattern::Wild => {}
        }
    }

    /// The bound variables as a vector.
    pub fn var_list(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.vars(&mut out);
        out
    }

    /// Binds the pattern against a value, appending `(name, value)` pairs.
    /// Returns `false` on shape mismatch.
    pub fn bind(&self, v: &Value, out: &mut Vec<(String, Value)>) -> bool {
        match self {
            Pattern::Var(name) => {
                out.push((name.clone(), v.clone()));
                true
            }
            Pattern::Wild => true,
            Pattern::Tuple(ps) => match v.as_tuple() {
                Some(fields) if fields.len() == ps.len() => {
                    ps.iter().zip(fields).all(|(p, f)| p.bind(f, out))
                }
                _ => false,
            },
        }
    }

    /// Binds the pattern against a value, appending the bound values in
    /// [`Pattern::var_list`] order without cloning variable names — the
    /// allocation-free form used on the per-row hot path of the executor.
    pub fn bind_values(&self, v: &Value, out: &mut Vec<Value>) -> bool {
        match self {
            Pattern::Var(_) => {
                out.push(v.clone());
                true
            }
            Pattern::Wild => true,
            Pattern::Tuple(ps) => match v.as_tuple() {
                Some(fields) if fields.len() == ps.len() => {
                    ps.iter().zip(fields).all(|(p, f)| p.bind_values(f, out))
                }
                _ => false,
            },
        }
    }

    /// Rebuilds the pattern as an expression (tuples of variables).
    pub fn to_expr(&self) -> CExpr {
        match self {
            Pattern::Var(v) => CExpr::Var(v.clone()),
            Pattern::Tuple(ps) => CExpr::Tuple(ps.iter().map(Pattern::to_expr).collect()),
            Pattern::Wild => CExpr::Const(Value::Unit),
        }
    }
}

/// A qualifier of a comprehension.
#[derive(Debug, Clone, PartialEq)]
pub enum Qual {
    /// Generator `p ← e`; `e` must evaluate to a bag.
    Gen(Pattern, CExpr),
    /// Let-binding `let p = e`.
    Let(Pattern, CExpr),
    /// Condition (filter).
    Pred(CExpr),
    /// `group by p : e` — groups the bindings produced so far by the value
    /// of `e`, binds `p` to the key, and lifts every previously bound
    /// variable not in `p` to a bag.
    GroupBy(Pattern, CExpr),
}

impl Qual {
    /// Variables bound by this qualifier (empty for conditions).
    pub fn bound_vars(&self) -> Vec<String> {
        match self {
            Qual::Gen(p, _) | Qual::Let(p, _) | Qual::GroupBy(p, _) => p.var_list(),
            Qual::Pred(_) => Vec::new(),
        }
    }

    /// The qualifier's expression: domain, bound value, condition, or key.
    pub fn expr(&self) -> &CExpr {
        match self {
            Qual::Gen(_, e) | Qual::Let(_, e) | Qual::Pred(e) | Qual::GroupBy(_, e) => e,
        }
    }

    /// The same qualifier over a different expression.
    pub fn with_expr(&self, e: CExpr) -> Qual {
        match self {
            Qual::Gen(p, _) => Qual::Gen(p.clone(), e),
            Qual::Let(p, _) => Qual::Let(p.clone(), e),
            Qual::Pred(_) => Qual::Pred(e),
            Qual::GroupBy(p, _) => Qual::GroupBy(p.clone(), e),
        }
    }
}

/// A comprehension `{ head | quals }`.
#[derive(Debug, Clone, PartialEq)]
pub struct Comprehension {
    /// The head expression.
    pub head: Box<CExpr>,
    /// The qualifiers, processed left to right.
    pub quals: Vec<Qual>,
}

impl Comprehension {
    /// Builds a comprehension.
    pub fn new(head: CExpr, quals: Vec<Qual>) -> Comprehension {
        Comprehension {
            head: Box::new(head),
            quals,
        }
    }

    /// True if any qualifier is a group-by.
    pub fn has_group_by(&self) -> bool {
        self.quals.iter().any(|q| matches!(q, Qual::GroupBy(_, _)))
    }
}

/// An expression of the comprehension calculus.
#[derive(Debug, Clone, PartialEq)]
pub enum CExpr {
    /// A variable (a pattern variable, or a program variable resolved from
    /// the driver state σ — scalars are values, arrays are bags of pairs).
    Var(String),
    /// A constant.
    Const(Value),
    /// Binary operation.
    Bin(BinOp, Box<CExpr>, Box<CExpr>),
    /// Unary operation.
    Un(UnOp, Box<CExpr>),
    /// Builtin function call.
    Call(Func, Vec<CExpr>),
    /// Tuple construction.
    Tuple(Vec<CExpr>),
    /// Record construction.
    Record(Vec<(String, CExpr)>),
    /// Field projection `e.A` / `e._1`.
    Proj(Box<CExpr>, String),
    /// A comprehension (bag-valued).
    Comp(Comprehension),
    /// Total aggregation `⊕/e` of a bag-valued expression.
    Agg(AggOp, Box<CExpr>),
    /// Array merge `left ⊳ right`. With `combine: Some(⊕)`, colliding keys
    /// are merged as `old ⊕ new` instead of replaced — the update form
    /// produced for incremental array updates (§3.7); with `None` it is the
    /// plain right-biased `⊳` of §3.4.
    Merge {
        /// The old array.
        left: Box<CExpr>,
        /// The update bag.
        right: Box<CExpr>,
        /// Optional combining monoid for keys present on both sides.
        combine: Option<BinOp>,
    },
    /// `range(lo, hi)` — the bag `{lo, lo+1, ..., hi}` (inclusive), the
    /// image of a for-loop iteration space (rule (15d)).
    Range(Box<CExpr>, Box<CExpr>),
}

impl CExpr {
    /// The singleton bag `{e}`.
    pub fn singleton(e: CExpr) -> CExpr {
        CExpr::Comp(Comprehension::new(e, Vec::new()))
    }

    /// A long constant.
    pub fn long(n: i64) -> CExpr {
        CExpr::Const(Value::Long(n))
    }

    /// A variable reference.
    pub fn var(name: impl Into<String>) -> CExpr {
        CExpr::Var(name.into())
    }

    /// Pair construction `(a, b)`.
    pub fn pair(a: CExpr, b: CExpr) -> CExpr {
        CExpr::Tuple(vec![a, b])
    }

    /// Equality test `a == b`.
    pub fn eq(a: CExpr, b: CExpr) -> CExpr {
        CExpr::Bin(BinOp::Eq, Box::new(a), Box::new(b))
    }

    /// True if this is a singleton-bag comprehension `{e}`, returning the
    /// head.
    pub fn as_singleton(&self) -> Option<&CExpr> {
        match self {
            CExpr::Comp(c) if c.quals.is_empty() => Some(&c.head),
            _ => None,
        }
    }

    /// True if any comprehension anywhere in this expression still carries a
    /// group-by qualifier after optimization — i.e. executing it performs a
    /// key re-partitioning (shuffle). Rule (17) eliminates the group-by when
    /// the key is the unique affine destination subscript; whatever survives
    /// is a real shuffle, which the shuffle-forecast lint reports.
    pub fn contains_group_by(&self) -> bool {
        match self {
            CExpr::Var(_) | CExpr::Const(_) => false,
            CExpr::Bin(_, a, b) => a.contains_group_by() || b.contains_group_by(),
            CExpr::Un(_, a) | CExpr::Agg(_, a) => a.contains_group_by(),
            CExpr::Call(_, args) => args.iter().any(|a| a.contains_group_by()),
            CExpr::Tuple(fs) => fs.iter().any(|a| a.contains_group_by()),
            CExpr::Record(fs) => fs.iter().any(|(_, a)| a.contains_group_by()),
            CExpr::Proj(a, _) => a.contains_group_by(),
            CExpr::Comp(c) => {
                c.has_group_by()
                    || c.head.contains_group_by()
                    || c.quals.iter().any(|q| match q {
                        Qual::Gen(_, e) | Qual::Let(_, e) | Qual::Pred(e) => e.contains_group_by(),
                        Qual::GroupBy(_, _) => true,
                    })
            }
            CExpr::Merge { left, right, .. } => {
                left.contains_group_by() || right.contains_group_by()
            }
            CExpr::Range(a, b) => a.contains_group_by() || b.contains_group_by(),
        }
    }

    /// Collects free variables (variables not bound by an enclosing
    /// comprehension qualifier within this expression).
    pub fn free_vars(&self) -> HashSet<String> {
        let mut out = HashSet::new();
        self.visit_free(&mut HashSet::new(), &mut |v, _| {
            out.insert(v.to_string());
        });
        out
    }

    /// Number of free occurrences of `name`, with multiplicity (an
    /// expression mentioning a variable twice counts 2) — the consumer
    /// count behind the driver's cross-statement fusion analysis.
    pub fn free_occurrences(&self, name: &str) -> usize {
        let mut n = 0;
        self.visit_free(&mut HashSet::new(), &mut |v, _| {
            if v == name {
                n += 1;
            }
        });
        n
    }

    /// Number of free occurrences of `name` that are the direct operand of
    /// a total aggregation, `⊕/name` — the only position where a let-bound
    /// bag can be inlined without being built first.
    pub fn free_agg_occurrences(&self, name: &str) -> usize {
        let mut n = 0;
        self.visit_free(&mut HashSet::new(), &mut |v, aggregated| {
            if aggregated && v == name {
                n += 1;
            }
        });
        n
    }

    /// Calls `visit` for every free variable occurrence, left to right;
    /// the flag is true when the occurrence is the whole operand of an
    /// [`CExpr::Agg`].
    fn visit_free(&self, bound: &mut HashSet<String>, visit: &mut dyn FnMut(&str, bool)) {
        match self {
            CExpr::Var(v) => {
                if !bound.contains(v) {
                    visit(v, false);
                }
            }
            CExpr::Const(_) => {}
            CExpr::Bin(_, a, b) => {
                a.visit_free(bound, visit);
                b.visit_free(bound, visit);
            }
            CExpr::Un(_, a) => a.visit_free(bound, visit),
            CExpr::Call(_, args) => {
                for a in args {
                    a.visit_free(bound, visit);
                }
            }
            CExpr::Tuple(fs) => {
                for f in fs {
                    f.visit_free(bound, visit);
                }
            }
            CExpr::Record(fs) => {
                for (_, f) in fs {
                    f.visit_free(bound, visit);
                }
            }
            CExpr::Proj(e, _) => e.visit_free(bound, visit),
            CExpr::Agg(_, e) => match e.as_ref() {
                CExpr::Var(v) => {
                    if !bound.contains(v) {
                        visit(v, true);
                    }
                }
                e => e.visit_free(bound, visit),
            },
            CExpr::Merge { left, right, .. } => {
                left.visit_free(bound, visit);
                right.visit_free(bound, visit);
            }
            CExpr::Range(lo, hi) => {
                lo.visit_free(bound, visit);
                hi.visit_free(bound, visit);
            }
            CExpr::Comp(c) => {
                // Qualifiers bind left to right; a generator's domain sees
                // only the bindings before it.
                let mut newly: Vec<String> = Vec::new();
                for q in &c.quals {
                    match q {
                        Qual::Gen(p, e) | Qual::Let(p, e) | Qual::GroupBy(p, e) => {
                            e.visit_free(bound, visit);
                            for v in p.var_list() {
                                if bound.insert(v.clone()) {
                                    newly.push(v);
                                }
                            }
                        }
                        Qual::Pred(e) => e.visit_free(bound, visit),
                    }
                }
                c.head.visit_free(bound, visit);
                for v in newly {
                    bound.remove(&v);
                }
            }
        }
    }

    /// Capture-avoiding substitution of variable `name` by `replacement`.
    ///
    /// Comprehension qualifiers that rebind `name` shadow it for the rest of
    /// that comprehension. Pattern variables are assumed globally fresh
    /// (the translator and normalizer generate unique names), so no
    /// alpha-renaming is performed here.
    pub fn subst(&self, name: &str, replacement: &CExpr) -> CExpr {
        match self {
            CExpr::Var(v) => {
                if v == name {
                    replacement.clone()
                } else {
                    self.clone()
                }
            }
            CExpr::Const(_) => self.clone(),
            CExpr::Bin(op, a, b) => CExpr::Bin(
                *op,
                Box::new(a.subst(name, replacement)),
                Box::new(b.subst(name, replacement)),
            ),
            CExpr::Un(op, a) => CExpr::Un(*op, Box::new(a.subst(name, replacement))),
            CExpr::Call(f, args) => CExpr::Call(
                *f,
                args.iter().map(|a| a.subst(name, replacement)).collect(),
            ),
            CExpr::Tuple(fs) => {
                CExpr::Tuple(fs.iter().map(|f| f.subst(name, replacement)).collect())
            }
            CExpr::Record(fs) => CExpr::Record(
                fs.iter()
                    .map(|(n, f)| (n.clone(), f.subst(name, replacement)))
                    .collect(),
            ),
            CExpr::Proj(e, f) => CExpr::Proj(Box::new(e.subst(name, replacement)), f.clone()),
            CExpr::Agg(op, e) => CExpr::Agg(*op, Box::new(e.subst(name, replacement))),
            CExpr::Merge {
                left,
                right,
                combine,
            } => CExpr::Merge {
                left: Box::new(left.subst(name, replacement)),
                right: Box::new(right.subst(name, replacement)),
                combine: *combine,
            },
            CExpr::Range(lo, hi) => CExpr::Range(
                Box::new(lo.subst(name, replacement)),
                Box::new(hi.subst(name, replacement)),
            ),
            CExpr::Comp(c) => {
                let mut shadowed = false;
                let mut quals = Vec::with_capacity(c.quals.len());
                for q in &c.quals {
                    let q = if shadowed {
                        q.clone()
                    } else {
                        match q {
                            Qual::Gen(p, e) => Qual::Gen(p.clone(), e.subst(name, replacement)),
                            Qual::Let(p, e) => Qual::Let(p.clone(), e.subst(name, replacement)),
                            Qual::Pred(e) => Qual::Pred(e.subst(name, replacement)),
                            Qual::GroupBy(p, e) => {
                                Qual::GroupBy(p.clone(), e.subst(name, replacement))
                            }
                        }
                    };
                    if !shadowed && q.bound_vars().iter().any(|v| v == name) {
                        shadowed = true;
                    }
                    quals.push(q);
                }
                let head = if shadowed {
                    (*c.head).clone()
                } else {
                    c.head.subst(name, replacement)
                };
                CExpr::Comp(Comprehension {
                    head: Box::new(head),
                    quals,
                })
            }
        }
    }

    /// True if the expression contains any of the given dataset names as a
    /// free variable (used to decide local vs. distributed evaluation).
    pub fn mentions_any(&self, names: &HashSet<String>) -> bool {
        self.free_vars().iter().any(|v| names.contains(v))
    }
}

/// A counter handing out globally fresh variable names.
#[derive(Debug, Default)]
pub struct NameGen {
    next: u64,
}

impl NameGen {
    /// Creates a fresh-name generator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Produces a fresh name with the given prefix, e.g. `v#12`. The `#`
    /// cannot appear in surface identifiers, so fresh names never collide
    /// with program variables.
    pub fn fresh(&mut self, prefix: &str) -> String {
        let n = self.next;
        self.next += 1;
        format!("{prefix}#{n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_binds_tuples() {
        let p = Pattern::pair(
            Pattern::pair(Pattern::var("i"), Pattern::var("j")),
            Pattern::var("v"),
        );
        let v = Value::pair(
            Value::pair(Value::Long(1), Value::Long(2)),
            Value::Double(3.0),
        );
        let mut binds = Vec::new();
        assert!(p.bind(&v, &mut binds));
        assert_eq!(
            binds,
            vec![
                ("i".to_string(), Value::Long(1)),
                ("j".to_string(), Value::Long(2)),
                ("v".to_string(), Value::Double(3.0)),
            ]
        );
    }

    #[test]
    fn pattern_mismatch_reports_false() {
        let p = Pattern::pair(Pattern::var("a"), Pattern::var("b"));
        let mut binds = Vec::new();
        assert!(!p.bind(&Value::Long(5), &mut binds));
    }

    #[test]
    fn wildcard_binds_nothing() {
        let p = Pattern::pair(Pattern::Wild, Pattern::var("v"));
        let mut binds = Vec::new();
        assert!(p.bind(&Value::pair(Value::Long(1), Value::Long(2)), &mut binds));
        assert_eq!(binds, vec![("v".to_string(), Value::Long(2))]);
    }

    #[test]
    fn free_vars_respect_generator_binding() {
        // { x + y | x ← X } : free = {X, y}
        let comp = CExpr::Comp(Comprehension::new(
            CExpr::Bin(
                BinOp::Add,
                Box::new(CExpr::var("x")),
                Box::new(CExpr::var("y")),
            ),
            vec![Qual::Gen(Pattern::var("x"), CExpr::var("X"))],
        ));
        let fv = comp.free_vars();
        assert!(fv.contains("X"));
        assert!(fv.contains("y"));
        assert!(!fv.contains("x"));
    }

    #[test]
    fn subst_stops_at_shadowing() {
        // { x | x ← X }[x := 9] leaves the bound x alone but hits X's side.
        let comp = CExpr::Comp(Comprehension::new(
            CExpr::var("x"),
            vec![Qual::Gen(Pattern::var("x"), CExpr::var("x"))],
        ));
        let out = comp.subst("x", &CExpr::long(9));
        let CExpr::Comp(c) = out else { panic!() };
        assert_eq!(c.quals[0], Qual::Gen(Pattern::var("x"), CExpr::long(9)));
        assert_eq!(*c.head, CExpr::var("x"), "head is shadowed");
    }

    #[test]
    fn fresh_names_are_distinct() {
        let mut ng = NameGen::new();
        let a = ng.fresh("v");
        let b = ng.fresh("v");
        assert_ne!(a, b);
        assert!(a.contains('#'));
    }

    #[test]
    fn singleton_detection() {
        let s = CExpr::singleton(CExpr::long(3));
        assert_eq!(s.as_singleton(), Some(&CExpr::long(3)));
        assert!(CExpr::long(3).as_singleton().is_none());
    }
}
