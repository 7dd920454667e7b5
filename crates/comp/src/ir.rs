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

    /// Calls `f` with every variable bound by this pattern, in order.
    pub fn each_var<'a>(&'a self, f: &mut impl FnMut(&'a str)) {
        match self {
            Pattern::Var(v) => f(v),
            Pattern::Tuple(ps) => ps.iter().for_each(|p| p.each_var(f)),
            Pattern::Wild => {}
        }
    }

    /// Collects the variables bound by this pattern, in order.
    pub fn vars(&self, out: &mut Vec<String>) {
        self.each_var(&mut |v| out.push(v.to_string()));
    }

    /// True if the pattern binds `name`.
    pub fn binds(&self, name: &str) -> bool {
        let mut found = false;
        self.each_var(&mut |v| found |= v == name);
        found
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
    /// The qualifier's expression: domain, bound value, condition, or key.
    pub fn expr(&self) -> &CExpr {
        match self {
            Qual::Gen(_, e) | Qual::Let(_, e) | Qual::Pred(e) | Qual::GroupBy(_, e) => e,
        }
    }

    /// The qualifier's expression, for rewriting in place.
    pub fn expr_mut(&mut self) -> &mut CExpr {
        match self {
            Qual::Gen(_, e) | Qual::Let(_, e) | Qual::Pred(e) | Qual::GroupBy(_, e) => e,
        }
    }

    /// The pattern this qualifier binds — the one place that knows which
    /// qualifiers are binding positions (conditions bind nothing).
    pub fn pattern(&self) -> Option<&Pattern> {
        match self {
            Qual::Gen(p, _) | Qual::Let(p, _) | Qual::GroupBy(p, _) => Some(p),
            Qual::Pred(_) => None,
        }
    }

    /// Calls `f` with every variable this qualifier binds, in order.
    pub fn each_bound<'a>(&'a self, f: &mut impl FnMut(&'a str)) {
        if let Some(p) = self.pattern() {
            p.each_var(f);
        }
    }

    /// True if this qualifier binds `name`.
    pub fn binds(&self, name: &str) -> bool {
        self.pattern().is_some_and(|p| p.binds(name))
    }
}

/// A simultaneous substitution: `(name, replacement)` pairs, a later pair
/// for the same name overriding an earlier one.
pub type Subst = Vec<(String, CExpr)>;

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

    /// [`CExpr::each_free`] over the comprehension.
    pub fn each_free<'a>(&'a self, visit: &mut dyn FnMut(&'a str, bool)) {
        self.visit_free(&mut Vec::new(), visit);
    }

    /// `bound` is the stack of names in scope, innermost last.
    fn visit_free<'a>(&'a self, bound: &mut Vec<&'a str>, visit: &mut dyn FnMut(&'a str, bool)) {
        // Qualifiers bind left to right; a generator's domain sees only
        // the bindings before it.
        let mark = bound.len();
        for q in &self.quals {
            q.expr().visit_free(bound, visit);
            q.each_bound(&mut |v| bound.push(v));
        }
        self.head.visit_free(bound, visit);
        bound.truncate(mark);
    }

    /// The position of the comprehension's **first source**: the first
    /// generator whose domain the engine reads
    /// ([`CExpr::is_source_domain`]) and which mentions no variable an
    /// earlier qualifier binds, before any group-by. The qualifiers before
    /// it are the driver prefix; `None` means the whole comprehension is
    /// evaluated on the driver. The pipeline builder and the row-fallback
    /// lint both split a comprehension here.
    pub fn first_source(&self, is_dataset: &dyn Fn(&str) -> bool) -> Option<usize> {
        for (i, q) in self.quals.iter().enumerate() {
            match q {
                Qual::GroupBy(_, _) => return None,
                Qual::Gen(_, dom) if dom.is_source_domain(is_dataset) => {
                    let mut reads_prefix = false;
                    dom.each_free(&mut |v, _| {
                        reads_prefix |= self.quals[..i].iter().any(|q| q.binds(v));
                    });
                    if !reads_prefix {
                        return Some(i);
                    }
                }
                _ => {}
            }
        }
        None
    }

    /// True if any qualifier is a group-by.
    pub fn has_group_by(&self) -> bool {
        self.quals.iter().any(|q| matches!(q, Qual::GroupBy(_, _)))
    }

    /// `{ (i, d) | i ← range(lo, hi), let … }` — the §3.4 translation of a
    /// loop initialization `for i = lo, hi do X[i] := d` — as its bounds
    /// and `d`, the `let`s inlined, when neither `d` nor a `let` reads `i`
    /// and no `let` binds it again.
    pub fn range_fill(&self) -> Option<(&CExpr, &CExpr, CExpr)> {
        let (Some((Qual::Gen(Pattern::Var(i), CExpr::Range(lo, hi)), lets)), CExpr::Tuple(head)) =
            (self.quals.split_first(), self.head.as_ref())
        else {
            return None;
        };
        let [CExpr::Var(k), d] = head.as_slice() else {
            return None;
        };
        if k != i {
            return None;
        }
        let mut d = d.clone();
        for q in lets.iter().rev() {
            match q {
                Qual::Let(Pattern::Var(v), e) if v != i && !e.mentions(i) => {
                    d.subst_all(&[(v.clone(), e.clone())]);
                }
                _ => return None,
            }
        }
        (!d.mentions(i)).then_some((lo.as_ref(), hi.as_ref(), d))
    }

    /// [`CExpr::subst_all`] over the qualifiers from position `from` on
    /// and the head — the scope of a binding made just before `from`.
    pub fn subst_from(&mut self, from: usize, subs: &[(String, CExpr)]) -> bool {
        let exprs = self.quals[from..].iter_mut().map(Qual::expr_mut);
        exprs
            .chain(std::iter::once(self.head.as_mut()))
            .fold(false, |changed, e| e.subst_all(subs) | changed)
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

    /// True when the expression has a form in the engine's transparent
    /// `RowExpr` IR: arithmetic, comparisons, builtin calls, tuples and
    /// projections over variables and constants. Record constructors, bag
    /// aggregations, nested comprehensions, merges and ranges have none; a
    /// pipeline stage evaluates them per row with [`crate::eval_in`].
    pub fn has_row_form(&self) -> bool {
        match self {
            CExpr::Var(_) | CExpr::Const(_) => true,
            CExpr::Bin(_, a, b) => a.has_row_form() && b.has_row_form(),
            CExpr::Un(_, a) | CExpr::Proj(a, _) => a.has_row_form(),
            CExpr::Call(_, args) | CExpr::Tuple(args) => args.iter().all(CExpr::has_row_form),
            CExpr::Record(_)
            | CExpr::Agg(_, _)
            | CExpr::Comp(_)
            | CExpr::Merge { .. }
            | CExpr::Range(_, _) => false,
        }
    }

    /// True for a generator domain the engine reads as a distributed
    /// source: a dataset variable, a `range`, or a comprehension or merge
    /// that mentions a dataset.
    pub fn is_source_domain(&self, is_dataset: &dyn Fn(&str) -> bool) -> bool {
        match self {
            CExpr::Var(v) => is_dataset(v),
            CExpr::Range(_, _) => true,
            CExpr::Comp(_) | CExpr::Merge { .. } => {
                let mut found = false;
                self.each_free(&mut |v, _| found |= is_dataset(v));
                found
            }
            _ => false,
        }
    }

    /// Collects free variables (variables not bound by an enclosing
    /// comprehension qualifier within this expression).
    pub fn free_vars(&self) -> HashSet<String> {
        let mut out = HashSet::new();
        self.each_free(&mut |v, _| {
            if !out.contains(v) {
                out.insert(v.to_string());
            }
        });
        out
    }

    /// True if `name` occurs free in this expression.
    pub fn mentions(&self, name: &str) -> bool {
        self.free_occurrences(name) > 0
    }

    /// Number of free occurrences of `name`, with multiplicity (an
    /// expression mentioning a variable twice counts 2) — the consumer
    /// count behind the driver's cross-statement fusion analysis.
    pub fn free_occurrences(&self, name: &str) -> usize {
        let mut n = 0;
        self.each_free(&mut |v, _| n += usize::from(v == name));
        n
    }

    /// Number of free occurrences of `name` that are the direct operand of
    /// a total aggregation, `⊕/name` — the only position where a let-bound
    /// bag can be inlined without being built first.
    pub fn free_agg_occurrences(&self, name: &str) -> usize {
        let mut n = 0;
        self.each_free(&mut |v, aggregated| n += usize::from(aggregated && v == name));
        n
    }

    /// Calls `visit` for every free variable occurrence, left to right,
    /// without allocating; the flag is true when the occurrence is the
    /// whole operand of an [`CExpr::Agg`].
    pub fn each_free<'a>(&'a self, visit: &mut dyn FnMut(&'a str, bool)) {
        self.visit_free(&mut Vec::new(), visit);
    }

    /// `bound` is the stack of names in scope, innermost last.
    fn visit_free<'a>(&'a self, bound: &mut Vec<&'a str>, visit: &mut dyn FnMut(&'a str, bool)) {
        match self {
            CExpr::Var(v) if !bound.contains(&v.as_str()) => visit(v, false),
            CExpr::Var(_) => {}
            CExpr::Const(_) => {}
            CExpr::Bin(_, a, b) | CExpr::Range(a, b) => {
                a.visit_free(bound, visit);
                b.visit_free(bound, visit);
            }
            CExpr::Merge { left, right, .. } => {
                left.visit_free(bound, visit);
                right.visit_free(bound, visit);
            }
            CExpr::Un(_, a) | CExpr::Proj(a, _) => a.visit_free(bound, visit),
            CExpr::Call(_, args) | CExpr::Tuple(args) => {
                args.iter().for_each(|a| a.visit_free(bound, visit));
            }
            CExpr::Record(fs) => fs.iter().for_each(|(_, f)| f.visit_free(bound, visit)),
            CExpr::Agg(_, e) => match e.as_ref() {
                CExpr::Var(v) if !bound.contains(&v.as_str()) => visit(v, true),
                CExpr::Var(_) => {}
                e => e.visit_free(bound, visit),
            },
            CExpr::Comp(c) => c.visit_free(bound, visit),
        }
    }

    /// Simultaneous substitution, in place and in one traversal: every free
    /// occurrence of a name in `subs` becomes a clone of its replacement
    /// (a later entry for the same name overrides an earlier one), and a
    /// subtree without an occurrence is not touched. Returns whether any
    /// occurrence was replaced.
    ///
    /// Scope-aware: a qualifier that rebinds a name hides it for the rest
    /// of its comprehension. Bound names are assumed fresh with respect to
    /// the replacements' free variables (the translator and the normalizer
    /// draw them from [`NameGen`]), so no binder is renamed here.
    pub fn subst_all(&mut self, subs: &[(String, CExpr)]) -> bool {
        !subs.is_empty() && self.subst_in(subs, &mut Vec::new())
    }

    /// `hidden` holds the indexes of `subs` shadowed at this point.
    fn subst_in(&mut self, subs: &[(String, CExpr)], hidden: &mut Vec<usize>) -> bool {
        match self {
            CExpr::Var(v) => match subs.iter().rposition(|(n, _)| n == v) {
                Some(i) if !hidden.contains(&i) => {
                    *self = subs[i].1.clone();
                    true
                }
                _ => false,
            },
            CExpr::Const(_) => false,
            CExpr::Bin(_, a, b) | CExpr::Range(a, b) => {
                a.subst_in(subs, hidden) | b.subst_in(subs, hidden)
            }
            CExpr::Merge { left, right, .. } => {
                left.subst_in(subs, hidden) | right.subst_in(subs, hidden)
            }
            CExpr::Un(_, a) | CExpr::Proj(a, _) | CExpr::Agg(_, a) => a.subst_in(subs, hidden),
            CExpr::Call(_, args) | CExpr::Tuple(args) => args
                .iter_mut()
                .fold(false, |changed, a| a.subst_in(subs, hidden) | changed),
            CExpr::Record(fs) => fs
                .iter_mut()
                .fold(false, |changed, (_, f)| f.subst_in(subs, hidden) | changed),
            CExpr::Comp(c) => {
                let mark = hidden.len();
                let mut changed = false;
                for q in &mut c.quals {
                    changed |= q.expr_mut().subst_in(subs, hidden);
                    q.each_bound(&mut |v| {
                        for (i, (n, _)) in subs.iter().enumerate() {
                            if n == v && !hidden.contains(&i) {
                                hidden.push(i);
                            }
                        }
                    });
                    if hidden.len() == subs.len() {
                        break; // everything is shadowed from here on
                    }
                }
                if hidden.len() < subs.len() {
                    changed |= c.head.subst_in(subs, hidden);
                }
                hidden.truncate(mark);
                changed
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
#[derive(Debug, Clone, Default)]
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
        let mut comp = CExpr::Comp(Comprehension::new(
            CExpr::var("x"),
            vec![Qual::Gen(Pattern::var("x"), CExpr::var("x"))],
        ));
        assert!(comp.subst_all(&[("x".to_string(), CExpr::long(9))]));
        let CExpr::Comp(c) = comp else { panic!() };
        assert_eq!(c.quals[0], Qual::Gen(Pattern::var("x"), CExpr::long(9)));
        assert_eq!(*c.head, CExpr::var("x"), "head is shadowed");
    }

    #[test]
    fn subst_all_is_simultaneous() {
        // (x, y)[x := y, y := x] swaps; applied one after the other it would
        // collapse both to the same variable.
        let mut e = CExpr::pair(CExpr::var("x"), CExpr::var("y"));
        let swap = [
            ("x".to_string(), CExpr::var("y")),
            ("y".to_string(), CExpr::var("x")),
        ];
        assert!(e.subst_all(&swap));
        assert_eq!(e, CExpr::pair(CExpr::var("y"), CExpr::var("x")));
        assert!(!e.subst_all(&[("z".to_string(), CExpr::long(1))]));
    }

    #[test]
    fn fresh_names_are_distinct() {
        let mut ng = NameGen::new();
        let a = ng.fresh("v");
        let b = ng.fresh("v");
        assert_ne!(a, b);
        assert!(a.contains('#'));
    }

    mod first_source {
        use super::*;

        fn first(quals: Vec<Qual>) -> Option<usize> {
            Comprehension::new(CExpr::long(0), quals).first_source(&|v| v == "V")
        }

        fn scan_v() -> Qual {
            Qual::Gen(
                Pattern::pair(Pattern::var("i"), Pattern::var("v")),
                CExpr::var("V"),
            )
        }

        fn bag() -> Qual {
            let items = Value::bag((0..6).map(Value::Long).collect());
            Qual::Gen(Pattern::var("x"), CExpr::Const(items))
        }

        fn range(lo: CExpr, hi: CExpr) -> CExpr {
            CExpr::Range(Box::new(lo), Box::new(hi))
        }

        fn over_v(head: CExpr) -> CExpr {
            CExpr::Comp(Comprehension::new(head, vec![scan_v()]))
        }

        #[test]
        fn a_dataset_variable() {
            let y = Qual::Let(Pattern::var("y"), CExpr::long(2));
            assert_eq!(first(vec![scan_v()]), Some(0));
            assert_eq!(first(vec![y, bag(), scan_v()]), Some(2));
        }

        #[test]
        fn a_range() {
            let r = range(CExpr::long(0), CExpr::var("n"));
            assert_eq!(first(vec![bag(), Qual::Gen(Pattern::var("j"), r)]), Some(1));
        }

        #[test]
        fn a_range_that_reads_a_prefix_variable_is_a_driver_generator() {
            let r = range(CExpr::long(0), CExpr::var("x"));
            let quals = vec![bag(), Qual::Gen(Pattern::var("j"), r.clone())];
            assert_eq!(first(quals), None);
            let quals = vec![bag(), Qual::Gen(Pattern::var("j"), r), scan_v()];
            assert_eq!(first(quals), Some(2));
        }

        #[test]
        fn a_comprehension_that_mentions_a_dataset() {
            let inner = Qual::Gen(Pattern::var("w"), over_v(CExpr::var("v")));
            assert_eq!(first(vec![bag(), inner]), Some(1));
            // Reading the prefix's `x`, it runs per driver binding.
            let x_v = CExpr::Bin(
                BinOp::Mul,
                Box::new(CExpr::var("v")),
                Box::new(CExpr::var("x")),
            );
            let inner = Qual::Gen(Pattern::var("w"), over_v(x_v));
            assert_eq!(first(vec![bag(), inner.clone()]), None);
            assert_eq!(first(vec![bag(), inner, scan_v()]), Some(2));
            // A comprehension over no dataset is a driver bag.
            let local = CExpr::Comp(Comprehension::new(CExpr::var("x"), vec![bag()]));
            assert_eq!(first(vec![Qual::Gen(Pattern::var("w"), local)]), None);
        }

        #[test]
        fn a_group_by_before_any_source() {
            let by = Qual::GroupBy(Pattern::var("k"), CExpr::var("x"));
            assert_eq!(first(vec![bag(), by, scan_v()]), None);
        }

        #[test]
        fn no_source() {
            let y = Qual::Let(Pattern::var("y"), CExpr::var("x"));
            assert_eq!(first(vec![bag(), y, Qual::Pred(CExpr::var("b"))]), None);
            assert_eq!(first(Vec::new()), None);
        }
    }

    #[test]
    fn singleton_detection() {
        let s = CExpr::singleton(CExpr::long(3));
        assert_eq!(s.as_singleton(), Some(&CExpr::long(3)));
        assert!(CExpr::long(3).as_singleton().is_none());
    }
}
