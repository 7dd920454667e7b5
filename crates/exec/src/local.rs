//! Local (driver-side) evaluation of comprehension expressions, with
//! dataset awareness.
//!
//! Scalar target expressions (while conditions, total aggregations after
//! Rule (16), scalar assignments) are evaluated on the driver — but their
//! sub-expressions may still reference datasets, e.g.
//! `sum := { sum + (+/{ v | (i, v) ← V }) }` after Rule (16). This module
//! routes such sub-comprehensions to the engine:
//!
//! * a comprehension that mentions a dataset runs as a pipeline
//!   ([`crate::pipeline::run_comp`]) and is collected back;
//! * an aggregation over such a comprehension becomes a *distributed
//!   reduce* (with map-side partials) instead of collect-then-fold;
//! * everything else is evaluated in memory.

use std::collections::HashMap;

use diablo_comp::ir::{CExpr, Comprehension, Qual};
use diablo_comp::Env;
use diablo_runtime::{RuntimeError, Value};

use crate::pipeline::run_comp;
use crate::{Binding, Result, Session};

/// Evaluates an expression on the driver. `env` holds local bindings
/// (e.g. comprehension variables); session scalars act as globals.
pub fn eval_local(e: &CExpr, env: &Env, sess: &Session) -> Result<Value> {
    match e {
        CExpr::Var(v) => {
            if let Some(val) = env.get(v) {
                return Ok(val.clone());
            }
            match sess.binding(v) {
                Some(Binding::Scalar(val)) => Ok(val.clone()),
                // Materializing a whole dataset on the driver is allowed
                // but only happens for small arrays used in scalar context.
                Some(Binding::Data(d)) => Ok(Value::bag(d.try_collect()?)),
                None => Err(RuntimeError::new(format!("undefined variable `{v}`"))),
            }
        }
        CExpr::Const(v) => Ok(v.clone()),
        CExpr::Bin(op, a, b) => {
            let a = eval_local(a, env, sess)?;
            let b = eval_local(b, env, sess)?;
            op.apply(&a, &b)
        }
        CExpr::Un(op, a) => op.apply(&eval_local(a, env, sess)?),
        CExpr::Call(f, args) => {
            let vals = args
                .iter()
                .map(|a| eval_local(a, env, sess))
                .collect::<Result<Vec<_>>>()?;
            f.apply(&vals)
        }
        CExpr::Tuple(fs) => Ok(Value::tuple(
            fs.iter()
                .map(|f| eval_local(f, env, sess))
                .collect::<Result<Vec<_>>>()?,
        )),
        CExpr::Record(fs) => Ok(Value::record(
            fs.iter()
                .map(|(n, f)| Ok((n.clone(), eval_local(f, env, sess)?)))
                .collect::<Result<Vec<_>>>()?,
        )),
        CExpr::Proj(inner, field) => {
            let v = eval_local(inner, env, sess)?;
            v.field(field)
                .cloned()
                .ok_or_else(|| RuntimeError::new(format!("value {v} has no field `{field}`")))
        }
        CExpr::Agg(op, inner) => {
            // Distributed reduce when the bag is dataset-backed.
            if let CExpr::Comp(c) = inner.as_ref() {
                if sess.datasets_mentioned(inner) && env.is_empty() {
                    return match run_comp(c, sess)?.aggregate(*op)? {
                        Some(v) => Ok(v),
                        None => op.reduce([].iter()),
                    };
                }
            }
            let v = eval_local(inner, env, sess)?;
            let items = v
                .as_bag()
                .ok_or_else(|| RuntimeError::new("aggregation over a non-bag"))?;
            op.reduce(items.iter())
        }
        CExpr::Comp(c) => {
            if sess.datasets_mentioned(e) && env.is_empty() {
                let data = run_comp(c, sess)?;
                Ok(Value::bag(data.try_collect()?))
            } else {
                Ok(Value::bag(local_comp(c, env, sess)?))
            }
        }
        CExpr::Merge {
            left,
            right,
            combine,
        } => {
            let l = eval_local(left, env, sess)?;
            let r = eval_local(right, env, sess)?;
            let (Some(xs), Some(ys)) = (l.as_bag(), r.as_bag()) else {
                return Err(RuntimeError::new("⊳ expects bags"));
            };
            match combine {
                None => Ok(Value::bag(diablo_runtime::merge_pairs(xs, ys)?)),
                Some(op) => Ok(Value::bag(diablo_comp::eval::merge_with(xs, ys, *op)?)),
            }
        }
        CExpr::Range(lo, hi) => {
            let lo = eval_local(lo, env, sess)?
                .as_long()
                .ok_or_else(|| RuntimeError::new("range bound must be long"))?;
            let hi = eval_local(hi, env, sess)?
                .as_long()
                .ok_or_else(|| RuntimeError::new("range bound must be long"))?;
            Ok(Value::bag((lo..=hi).map(Value::Long).collect()))
        }
    }
}

/// Local comprehension evaluation with dataset-aware sub-expressions.
/// Mirrors `diablo_comp::eval_comp`, but every expression goes through
/// [`eval_local`].
pub fn local_comp(c: &Comprehension, env: &Env, sess: &Session) -> Result<Vec<Value>> {
    let mut envs: Vec<Env> = vec![env.clone()];
    let mut local_vars: Vec<String> = Vec::new();
    for q in &c.quals {
        match q {
            Qual::Gen(p, dom) => {
                let mut next = Vec::new();
                for env in &envs {
                    let d = eval_local(dom, env, sess)?;
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
                local_vars.extend(p.var_list());
            }
            Qual::Let(p, e) => {
                for env in &mut envs {
                    let v = eval_local(e, env, sess)?;
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
                local_vars.extend(p.var_list());
            }
            Qual::Pred(e) => {
                let mut next = Vec::with_capacity(envs.len());
                for env in envs {
                    match eval_local(e, &env, sess)?.as_bool() {
                        Some(true) => next.push(env),
                        Some(false) => {}
                        None => return Err(RuntimeError::new("condition must be boolean")),
                    }
                }
                envs = next;
            }
            Qual::GroupBy(p, key) => {
                let key_vars = p.var_list();
                let mut order: Vec<Value> = Vec::new();
                let mut groups: HashMap<Value, Vec<Env>> = HashMap::new();
                for env in envs {
                    let k = eval_local(key, &env, sess)?;
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
                    let mut e2 = env.clone();
                    let mut binds = Vec::new();
                    if !p.bind(&k, &mut binds) {
                        return Err(RuntimeError::new("group-by pattern mismatch"));
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
                local_vars.extend(lifted);
            }
        }
    }
    envs.iter()
        .map(|env| eval_local(&c.head, env, sess))
        .collect()
}
