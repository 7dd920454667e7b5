//! Direct in-memory evaluation of comprehension expressions.
//!
//! This gives the calculus its reference semantics, and it is the only
//! evaluator of a [`CExpr`]: the test suite checks normalization and
//! optimization against it, the driver evaluates its scalar statements,
//! `while` conditions and comprehensions before their first distributed
//! source with it, and a pipeline stage whose expression has no `RowExpr`
//! form runs it once per row.
//!
//! Environments map variable names to [`Value`]s. Program arrays appear as
//! bags of `(key, value)` pairs. What no binder and no environment entry
//! binds, a [`Scope`] answers: the driver's session state, a pipeline row,
//! or [`Closed`], for which every such variable is unbound.

use std::collections::HashMap;

use diablo_runtime::{merge_pairs, AggOp, BinOp, RuntimeError, Value};

use crate::ir::{CExpr, Comprehension, Qual};

/// An evaluation environment.
pub type Env = HashMap<String, Value>;

/// Result alias for evaluation.
pub type Result<T> = std::result::Result<T, RuntimeError>;

/// What an evaluation reads from outside its own bindings.
pub trait Scope {
    /// A variable that no binder and no environment entry binds.
    fn var(&self, name: &str) -> Result<Value>;

    /// Asked at a `Comp(c)` node, and at an `Agg(op, Comp(c))` node with
    /// `agg: Some(op)`, before the evaluator runs `c` itself: `Some` is the
    /// node's value, computed by the scope; `None` leaves it to the
    /// evaluator.
    fn comp(&self, _c: &Comprehension, _agg: Option<AggOp>, _env: &Env) -> Option<Result<Value>> {
        None
    }
}

/// The scope with nothing in it: every variable outside the environment
/// is unbound.
pub struct Closed;

impl Scope for Closed {
    fn var(&self, name: &str) -> Result<Value> {
        Err(RuntimeError::new(format!(
            "unbound variable `{name}` in comprehension"
        )))
    }
}

/// Evaluates an expression under an environment.
pub fn eval(e: &CExpr, env: &Env) -> Result<Value> {
    eval_in(e, env, &Closed)
}

/// Evaluates an expression under an environment and a scope.
pub fn eval_in(e: &CExpr, env: &Env, scope: &dyn Scope) -> Result<Value> {
    let eval = |e: &CExpr| eval_in(e, env, scope);
    match e {
        CExpr::Var(v) => match env.get(v) {
            Some(val) => Ok(val.clone()),
            None => scope.var(v),
        },
        CExpr::Const(v) => Ok(v.clone()),
        CExpr::Bin(op, a, b) => {
            let a = eval(a)?;
            let b = eval(b)?;
            op.apply(&a, &b)
        }
        CExpr::Un(op, a) => op.apply(&eval(a)?),
        CExpr::Call(f, args) => {
            let vals = args.iter().map(eval).collect::<Result<Vec<_>>>()?;
            f.apply(&vals)
        }
        CExpr::Tuple(fs) => {
            let vals = fs.iter().map(eval).collect::<Result<Vec<_>>>()?;
            Ok(Value::tuple(vals))
        }
        CExpr::Record(fs) => {
            let vals = fs
                .iter()
                .map(|(n, f)| Ok((n.clone(), eval(f)?)))
                .collect::<Result<Vec<_>>>()?;
            Ok(Value::record(vals))
        }
        CExpr::Proj(e, field) => {
            let v = eval(e)?;
            v.field(field)
                .cloned()
                .ok_or_else(|| RuntimeError::new(format!("value {v} has no field `{field}`")))
        }
        CExpr::Comp(c) => match scope.comp(c, None, env) {
            Some(v) => v,
            None => Ok(Value::bag(eval_comp_in(c, env, scope)?)),
        },
        CExpr::Agg(op, e) => {
            if let CExpr::Comp(c) = e.as_ref() {
                if let Some(v) = scope.comp(c, Some(*op), env) {
                    return v;
                }
            }
            let v = eval(e)?;
            let items = v
                .as_bag()
                .ok_or_else(|| RuntimeError::new("aggregation over a non-bag"))?;
            op.reduce(items.iter())
        }
        CExpr::Merge {
            left,
            right,
            combine,
        } => {
            let l = eval(left)?;
            let r = eval(right)?;
            let (Some(xs), Some(ys)) = (l.as_bag(), r.as_bag()) else {
                return Err(RuntimeError::new("⊳ expects bags"));
            };
            match combine {
                None => Ok(Value::bag(merge_pairs(xs, ys)?)),
                Some(op) => Ok(Value::bag(merge_with(xs, ys, *op)?)),
            }
        }
        CExpr::Range(lo, hi) => {
            let lo = eval(lo)?
                .as_long()
                .ok_or_else(|| RuntimeError::new("range bound must be long"))?;
            let hi = eval(hi)?
                .as_long()
                .ok_or_else(|| RuntimeError::new("range bound must be long"))?;
            Ok(Value::bag((lo..=hi).map(Value::Long).collect()))
        }
    }
}

/// Merge with a combining monoid: keys on both sides combine `old ⊕ new`;
/// keys on one side pass through. Duplicate keys within `ys` also combine.
fn merge_with(xs: &[Value], ys: &[Value], op: BinOp) -> Result<Vec<Value>> {
    let mut index: HashMap<Value, usize> = HashMap::with_capacity(xs.len() + ys.len());
    let mut out: Vec<(Value, Value)> = Vec::with_capacity(xs.len() + ys.len());
    for p in xs {
        let (k, v) = diablo_runtime::array::key_value(p)?;
        match index.get(&k) {
            Some(&i) => out[i].1 = v, // right bias within the old side
            None => {
                index.insert(k.clone(), out.len());
                out.push((k, v));
            }
        }
    }
    for p in ys {
        let (k, v) = diablo_runtime::array::key_value(p)?;
        match index.get(&k) {
            Some(&i) => {
                let combined = op.apply(&out[i].1, &v)?;
                out[i].1 = combined;
            }
            None => {
                index.insert(k.clone(), out.len());
                out.push((k, v));
            }
        }
    }
    Ok(out.into_iter().map(|(k, v)| Value::pair(k, v)).collect())
}

/// Evaluates a comprehension to the vector of its produced values.
pub fn eval_comp(c: &Comprehension, env: &Env) -> Result<Vec<Value>> {
    eval_comp_in(c, env, &Closed)
}

/// Evaluates a comprehension under an environment and a scope.
pub fn eval_comp_in(c: &Comprehension, env: &Env, scope: &dyn Scope) -> Result<Vec<Value>> {
    let eval = |e: &CExpr, env: &Env| eval_in(e, env, scope);
    // Each in-flight binding set extends the outer environment.
    let mut envs: Vec<Env> = vec![env.clone()];
    // Variables bound since the start (or the last group-by), in order —
    // these are the ones a group-by lifts to bags.
    let mut local_vars: Vec<String> = Vec::new();
    for q in &c.quals {
        match q {
            Qual::Gen(p, dom) => {
                let mut next = Vec::new();
                for env in &envs {
                    let d = eval(dom, env)?;
                    let items = d.as_bag().ok_or_else(|| {
                        RuntimeError::new(format!(
                            "generator domain must be a bag, got {}",
                            d.type_name()
                        ))
                    })?;
                    for item in items {
                        let mut binds = Vec::new();
                        if !p.bind(item, &mut binds) {
                            return Err(RuntimeError::new(format!(
                                "pattern {p:?} does not match {item}"
                            )));
                        }
                        let mut e2 = env.clone();
                        for (n, v) in binds {
                            e2.insert(n, v);
                        }
                        next.push(e2);
                    }
                }
                envs = next;
                for v in p.var_list() {
                    local_vars.push(v);
                }
            }
            Qual::Let(p, e) => {
                for env in &mut envs {
                    let v = eval(e, env)?;
                    let mut binds = Vec::new();
                    if !p.bind(&v, &mut binds) {
                        return Err(RuntimeError::new(format!(
                            "let pattern {p:?} does not match {v}"
                        )));
                    }
                    for (n, v) in binds {
                        env.insert(n, v);
                    }
                }
                for v in p.var_list() {
                    local_vars.push(v);
                }
            }
            Qual::Pred(e) => {
                let mut next = Vec::with_capacity(envs.len());
                for env in envs {
                    let v = eval(e, &env)?;
                    match v.as_bool() {
                        Some(true) => next.push(env),
                        Some(false) => {}
                        None => {
                            return Err(RuntimeError::new(format!(
                                "condition evaluated to {}, not bool",
                                v.type_name()
                            )))
                        }
                    }
                }
                envs = next;
            }
            Qual::GroupBy(p, key) => {
                let key_vars: Vec<String> = p.var_list();
                // Group environments by key; preserve first-seen key order
                // for determinism.
                let mut order: Vec<Value> = Vec::new();
                let mut groups: HashMap<Value, Vec<Env>> = HashMap::new();
                for env in envs {
                    let k = eval(key, &env)?;
                    match groups.get_mut(&k) {
                        Some(g) => g.push(env),
                        None => {
                            order.push(k.clone());
                            groups.insert(k, vec![env]);
                        }
                    }
                }
                let lifted: Vec<String> = local_vars
                    .iter()
                    .filter(|v| !key_vars.contains(v))
                    .cloned()
                    .collect();
                let mut next = Vec::with_capacity(order.len());
                for k in order {
                    let members = &groups[&k];
                    // Start from the shared outer environment.
                    let mut e2 = env.clone();
                    let mut binds = Vec::new();
                    if !p.bind(&k, &mut binds) {
                        return Err(RuntimeError::new(format!(
                            "group-by pattern {p:?} does not match key {k}"
                        )));
                    }
                    for (n, v) in binds {
                        e2.insert(n, v);
                    }
                    for var in &lifted {
                        let bag: Vec<Value> =
                            members.iter().filter_map(|m| m.get(var).cloned()).collect();
                        e2.insert(var.clone(), Value::bag(bag));
                    }
                    next.push(e2);
                }
                envs = next;
                local_vars = key_vars;
                for v in &lifted {
                    local_vars.push(v.clone());
                }
            }
        }
    }
    envs.iter().map(|env| eval(&c.head, env)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Pattern;
    use diablo_runtime::AggOp;

    fn long_pairs(entries: &[(i64, i64)]) -> Value {
        Value::bag(
            entries
                .iter()
                .map(|&(k, v)| Value::pair(Value::Long(k), Value::Long(v)))
                .collect(),
        )
    }

    #[test]
    fn generator_and_filter() {
        // { v | (i, v) ← V, v > 10 }
        let comp = Comprehension::new(
            CExpr::var("v"),
            vec![
                Qual::Gen(
                    Pattern::pair(Pattern::var("i"), Pattern::var("v")),
                    CExpr::var("V"),
                ),
                Qual::Pred(CExpr::Bin(
                    BinOp::Gt,
                    Box::new(CExpr::var("v")),
                    Box::new(CExpr::long(10)),
                )),
            ],
        );
        let mut env = Env::new();
        env.insert("V".into(), long_pairs(&[(0, 5), (1, 15), (2, 25)]));
        let out = eval_comp(&comp, &env).unwrap();
        assert_eq!(out, vec![Value::Long(15), Value::Long(25)]);
    }

    #[test]
    fn group_by_lifts_and_aggregates() {
        // { (k, +/v) | (i, v) ← V, group by k : i % 2 } with V indexed 0..=3.
        let comp = Comprehension::new(
            CExpr::pair(
                CExpr::var("k"),
                CExpr::Agg(AggOp::new(BinOp::Add).unwrap(), Box::new(CExpr::var("v"))),
            ),
            vec![
                Qual::Gen(
                    Pattern::pair(Pattern::var("i"), Pattern::var("v")),
                    CExpr::var("V"),
                ),
                Qual::GroupBy(
                    Pattern::var("k"),
                    CExpr::Bin(
                        BinOp::Mod,
                        Box::new(CExpr::var("i")),
                        Box::new(CExpr::long(2)),
                    ),
                ),
            ],
        );
        let mut env = Env::new();
        env.insert(
            "V".into(),
            long_pairs(&[(0, 1), (1, 10), (2, 100), (3, 1000)]),
        );
        let mut out = eval_comp(&comp, &env).unwrap();
        out.sort();
        assert_eq!(
            out,
            vec![
                Value::pair(Value::Long(0), Value::Long(101)),
                Value::pair(Value::Long(1), Value::Long(1010)),
            ]
        );
    }

    #[test]
    fn join_via_two_generators() {
        // { m * n | (i, m) ← M, (j, n) ← N, i == j }
        let comp = Comprehension::new(
            CExpr::Bin(
                BinOp::Mul,
                Box::new(CExpr::var("m")),
                Box::new(CExpr::var("n")),
            ),
            vec![
                Qual::Gen(
                    Pattern::pair(Pattern::var("i"), Pattern::var("m")),
                    CExpr::var("M"),
                ),
                Qual::Gen(
                    Pattern::pair(Pattern::var("j"), Pattern::var("n")),
                    CExpr::var("N"),
                ),
                Qual::Pred(CExpr::eq(CExpr::var("i"), CExpr::var("j"))),
            ],
        );
        let mut env = Env::new();
        env.insert("M".into(), long_pairs(&[(1, 2), (2, 3)]));
        env.insert("N".into(), long_pairs(&[(1, 10), (3, 100)]));
        let out = eval_comp(&comp, &env).unwrap();
        assert_eq!(out, vec![Value::Long(20)]);
    }

    #[test]
    fn nested_comprehension_in_head() {
        // { (i, {v | v ← inner}) | (i, v0) ← V } — bags nest.
        let inner = CExpr::Comp(Comprehension::new(
            CExpr::var("w"),
            vec![Qual::Gen(Pattern::var("w"), CExpr::var("W"))],
        ));
        let comp = Comprehension::new(
            CExpr::Agg(AggOp::new(BinOp::Add).unwrap(), Box::new(inner)),
            vec![],
        );
        let mut env = Env::new();
        env.insert(
            "W".into(),
            Value::bag(vec![Value::Long(1), Value::Long(2), Value::Long(3)]),
        );
        let out = eval_comp(&comp, &env).unwrap();
        assert_eq!(out, vec![Value::Long(6)]);
    }

    #[test]
    fn range_generates_inclusive() {
        let e = CExpr::Range(Box::new(CExpr::long(2)), Box::new(CExpr::long(4)));
        let v = eval(&e, &Env::new()).unwrap();
        assert_eq!(
            v.as_bag().unwrap(),
            &[Value::Long(2), Value::Long(3), Value::Long(4)]
        );
    }

    #[test]
    fn merge_plain_and_combining() {
        let mut env = Env::new();
        env.insert("X".into(), long_pairs(&[(1, 10), (2, 20)]));
        env.insert("Y".into(), long_pairs(&[(2, 5), (3, 30)]));
        let plain = CExpr::Merge {
            left: Box::new(CExpr::var("X")),
            right: Box::new(CExpr::var("Y")),
            combine: None,
        };
        let mut got = eval(&plain, &env).unwrap().as_bag().unwrap().to_vec();
        got.sort();
        assert_eq!(
            got,
            long_pairs(&[(1, 10), (2, 5), (3, 30)]).as_bag().unwrap()
        );

        let combining = CExpr::Merge {
            left: Box::new(CExpr::var("X")),
            right: Box::new(CExpr::var("Y")),
            combine: Some(BinOp::Add),
        };
        let mut got = eval(&combining, &env).unwrap().as_bag().unwrap().to_vec();
        got.sort();
        assert_eq!(
            got,
            long_pairs(&[(1, 10), (2, 25), (3, 30)]).as_bag().unwrap()
        );
    }

    #[test]
    fn group_by_key_tuple_pattern() {
        // Matrix-multiplication-shaped group-by: group by (i, j).
        let comp = Comprehension::new(
            CExpr::Tuple(vec![
                CExpr::var("i"),
                CExpr::var("j"),
                CExpr::Agg(AggOp::new(BinOp::Add).unwrap(), Box::new(CExpr::var("v"))),
            ]),
            vec![
                Qual::Gen(
                    Pattern::Tuple(vec![
                        Pattern::var("i"),
                        Pattern::var("j"),
                        Pattern::var("v"),
                    ]),
                    CExpr::var("T"),
                ),
                Qual::GroupBy(
                    Pattern::pair(Pattern::var("i"), Pattern::var("j")),
                    CExpr::pair(CExpr::var("i"), CExpr::var("j")),
                ),
            ],
        );
        let mut env = Env::new();
        let t = Value::bag(vec![
            Value::tuple(vec![Value::Long(0), Value::Long(0), Value::Long(1)]),
            Value::tuple(vec![Value::Long(0), Value::Long(0), Value::Long(2)]),
            Value::tuple(vec![Value::Long(0), Value::Long(1), Value::Long(5)]),
        ]);
        env.insert("T".into(), t);
        let mut out = eval_comp(&comp, &env).unwrap();
        out.sort();
        assert_eq!(
            out,
            vec![
                Value::tuple(vec![Value::Long(0), Value::Long(0), Value::Long(3)]),
                Value::tuple(vec![Value::Long(0), Value::Long(1), Value::Long(5)]),
            ]
        );
    }

    #[test]
    fn unbound_variable_is_an_error() {
        assert!(eval(&CExpr::var("nope"), &Env::new()).is_err());
    }

    #[test]
    fn pattern_mismatch_is_an_error() {
        let comp = Comprehension::new(
            CExpr::var("a"),
            vec![Qual::Gen(
                Pattern::pair(Pattern::var("a"), Pattern::var("b")),
                CExpr::Comp(Comprehension::new(CExpr::long(1), vec![])),
            )],
        );
        assert!(eval_comp(&comp, &Env::new()).is_err());
    }
}
