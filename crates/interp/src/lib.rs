//! # diablo-interp
//!
//! A sequential, tree-walking reference interpreter for the loop-based
//! language: the reproduction's **correctness oracle**. Every translated
//! program is compared against the interpreter on the same inputs
//! (Appendix A proves the translation meaning-preserving; the integration
//! tests and the benchmark spine check it empirically).
//!
//! ## Sparse-array semantics
//!
//! Arrays are *sparse* (§3.4): reading a missing element yields the empty
//! bag in the comprehension calculus, which erases the enclosing loop
//! iteration's update. The interpreter mirrors this exactly: an expression
//! evaluates to `Option<Value>`, a missing array read makes it `None`, and a
//! statement any of whose sub-expressions is `None` becomes a no-op.
//! An incremental update `d ⊕= e` whose destination holds no value yet
//! starts from `e` itself (the left-outer-join semantics of the translated
//! group-by).

mod store;

pub use store::{Cell, Store};

use diablo_lang::ast::{Const, DeclInit, Expr, Lhs, Stmt};
use diablo_lang::types::TypedProgram;
use diablo_runtime::{RuntimeError, Value};

/// Result alias: interpreter errors are runtime errors.
pub type Result<T> = std::result::Result<T, RuntimeError>;

/// The sequential interpreter. Bind inputs, [`Interpreter::run`] a program,
/// then read results back out of the store.
#[derive(Debug, Default)]
pub struct Interpreter {
    store: Store,
    /// Number of executed statements, reported for curiosity/benchmarks.
    pub steps: u64,
}

impl Interpreter {
    /// Creates an interpreter with an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds a scalar input.
    pub fn bind_scalar(&mut self, name: &str, v: Value) {
        self.store.set_scalar(name, v);
    }

    /// Binds a collection input from a bag of `(key, value)` pairs.
    pub fn bind_collection(&mut self, name: &str, pairs: Vec<Value>) -> Result<()> {
        self.store.set_collection_pairs(name, pairs)
    }

    /// Reads a scalar result.
    pub fn scalar(&self, name: &str) -> Option<Value> {
        match self.store.get(name)? {
            Cell::Scalar(v) => Some(v.clone()),
            Cell::Collection(_) => None,
        }
    }

    /// Reads a collection result as a bag of `(key, value)` pairs sorted by
    /// key (for deterministic comparisons).
    pub fn collection(&self, name: &str) -> Option<Vec<Value>> {
        match self.store.get(name)? {
            Cell::Collection(map) => {
                let mut keys: Vec<&Value> = map.keys().collect();
                keys.sort();
                Some(
                    keys.into_iter()
                        .map(|k| Value::pair(k.clone(), map[k].clone()))
                        .collect(),
                )
            }
            Cell::Scalar(_) => None,
        }
    }

    /// Runs a type-checked program against the current store.
    pub fn run(&mut self, tp: &TypedProgram) -> Result<()> {
        for (name, _) in &tp.program.inputs {
            if self.store.get(name).is_none() {
                return Err(RuntimeError::new(format!("input `{name}` was not bound")));
            }
        }
        for s in &tp.program.body {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<()> {
        self.steps += 1;
        match s {
            Stmt::Decl { name, init, .. } => {
                match init {
                    DeclInit::EmptyCollection => {
                        self.store.set_empty_collection(name);
                    }
                    DeclInit::Expr(e) => {
                        if let Some(v) = self.eval(e)? {
                            self.store.set_scalar(name, v);
                        } else {
                            return Err(RuntimeError::new(format!(
                                "initializer of `{name}` reads a missing array element"
                            )));
                        }
                    }
                }
                Ok(())
            }
            Stmt::Assign { dest, value, .. } => {
                let Some(v) = self.eval(value)? else {
                    return Ok(());
                };
                self.write(dest, v, None)
            }
            Stmt::Incr {
                dest, op, value, ..
            } => {
                let Some(v) = self.eval(value)? else {
                    return Ok(());
                };
                self.write(dest, v, Some(*op))
            }
            Stmt::For {
                var, lo, hi, body, ..
            } => {
                let Some(lo) = self.eval(lo)? else {
                    return Ok(());
                };
                let Some(hi) = self.eval(hi)? else {
                    return Ok(());
                };
                let lo = lo
                    .as_long()
                    .ok_or_else(|| RuntimeError::new("for-loop bound must be long"))?;
                let hi = hi
                    .as_long()
                    .ok_or_else(|| RuntimeError::new("for-loop bound must be long"))?;
                for i in lo..=hi {
                    self.store.set_scalar(var, Value::Long(i));
                    self.stmt(body)?;
                }
                self.store.remove(var);
                Ok(())
            }
            Stmt::ForIn {
                var, source, body, ..
            } => {
                let Expr::Dest(Lhs::Var(src)) = source else {
                    return Err(RuntimeError::new(
                        "for-in source must be a collection variable",
                    ));
                };
                let values = self.store.collection_values_sorted(src)?;
                for v in values {
                    self.store.set_scalar(var, v);
                    self.stmt(body)?;
                }
                self.store.remove(var);
                Ok(())
            }
            Stmt::While { cond, body, .. } => {
                loop {
                    let Some(c) = self.eval(cond)? else {
                        return Ok(());
                    };
                    let c = c
                        .as_bool()
                        .ok_or_else(|| RuntimeError::new("while condition must be bool"))?;
                    if !c {
                        break;
                    }
                    self.stmt(body)?;
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                let Some(c) = self.eval(cond)? else {
                    return Ok(());
                };
                let c = c
                    .as_bool()
                    .ok_or_else(|| RuntimeError::new("if condition must be bool"))?;
                if c {
                    self.stmt(then_branch)
                } else if let Some(e) = else_branch {
                    self.stmt(e)
                } else {
                    Ok(())
                }
            }
            Stmt::Block(ss) => {
                for s in ss {
                    self.stmt(s)?;
                }
                Ok(())
            }
        }
    }

    /// Writes `v` to destination `dest`; `accum` is `Some(⊕)` for
    /// incremental updates.
    fn write(&mut self, dest: &Lhs, v: Value, accum: Option<diablo_runtime::BinOp>) -> Result<()> {
        match dest {
            Lhs::Var(name) => {
                let new = match accum {
                    Some(op) => match self.store.get(name) {
                        Some(Cell::Scalar(cur)) => op.apply(cur, &v)?,
                        _ => v,
                    },
                    None => v,
                };
                self.store.set_scalar(name, new);
                Ok(())
            }
            Lhs::Index(name, idxs) => {
                let mut key_parts = Vec::with_capacity(idxs.len());
                for e in idxs {
                    let Some(k) = self.eval(e)? else {
                        return Ok(());
                    };
                    key_parts.push(k);
                }
                let key = if key_parts.len() == 1 {
                    key_parts.pop().expect("one index")
                } else {
                    Value::tuple(key_parts)
                };
                let new = match accum {
                    Some(op) => match self.store.lookup(name, &key)? {
                        Some(cur) => op.apply(&cur, &v)?,
                        None => v,
                    },
                    None => v,
                };
                self.store.insert(name, key, new)
            }
            Lhs::Proj(base, field) => {
                // Read-modify-write of a single record field.
                let Some(cur) = self.read_lhs(base)? else {
                    return Ok(());
                };
                let Value::Record(fields) = &cur else {
                    return Err(RuntimeError::new(format!(
                        "cannot project `.{field}` out of {}",
                        cur.type_name()
                    )));
                };
                let old = cur
                    .field(field)
                    .ok_or_else(|| RuntimeError::new(format!("no field `{field}`")))?
                    .clone();
                let new_field = match accum {
                    Some(op) => op.apply(&old, &v)?,
                    None => v,
                };
                let new_fields: Vec<(String, Value)> = fields
                    .iter()
                    .map(|(n, f)| {
                        if n == field {
                            (n.clone(), new_field.clone())
                        } else {
                            (n.clone(), f.clone())
                        }
                    })
                    .collect();
                self.write(base, Value::record(new_fields), None)
            }
        }
    }

    fn read_lhs(&mut self, d: &Lhs) -> Result<Option<Value>> {
        match d {
            Lhs::Var(name) => match self.store.get(name) {
                Some(Cell::Scalar(v)) => Ok(Some(v.clone())),
                Some(Cell::Collection(_)) => Err(RuntimeError::new(format!(
                    "collection `{name}` used as a scalar"
                ))),
                None => Err(RuntimeError::new(format!("undefined variable `{name}`"))),
            },
            Lhs::Proj(base, field) => {
                let Some(v) = self.read_lhs(base)? else {
                    return Ok(None);
                };
                match v.field(field) {
                    Some(f) => Ok(Some(f.clone())),
                    None => Err(RuntimeError::new(format!(
                        "value {v} has no field `{field}`"
                    ))),
                }
            }
            Lhs::Index(name, idxs) => {
                let mut key_parts = Vec::with_capacity(idxs.len());
                for e in idxs {
                    let Some(k) = self.eval(e)? else {
                        return Ok(None);
                    };
                    key_parts.push(k);
                }
                let key = if key_parts.len() == 1 {
                    key_parts.pop().expect("one index")
                } else {
                    Value::tuple(key_parts)
                };
                self.store.lookup(name, &key)
            }
        }
    }

    /// Evaluates an expression; `None` means a missing sparse-array element
    /// was read somewhere inside.
    pub fn eval(&mut self, e: &Expr) -> Result<Option<Value>> {
        match e {
            Expr::Dest(d) => self.read_lhs(d),
            Expr::Const(c) => Ok(Some(match c {
                Const::Long(n) => Value::Long(*n),
                Const::Double(x) => Value::Double(*x),
                Const::Bool(b) => Value::Bool(*b),
                Const::Str(s) => Value::str(s),
            })),
            Expr::Bin(op, a, b) => {
                let Some(a) = self.eval(a)? else {
                    return Ok(None);
                };
                let Some(b) = self.eval(b)? else {
                    return Ok(None);
                };
                Ok(Some(op.apply(&a, &b)?))
            }
            Expr::Un(op, a) => {
                let Some(a) = self.eval(a)? else {
                    return Ok(None);
                };
                Ok(Some(op.apply(&a)?))
            }
            Expr::Call(f, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    let Some(v) = self.eval(a)? else {
                        return Ok(None);
                    };
                    vals.push(v);
                }
                Ok(Some(f.apply(&vals)?))
            }
            Expr::Tuple(fields) => {
                let mut vals = Vec::with_capacity(fields.len());
                for f in fields {
                    let Some(v) = self.eval(f)? else {
                        return Ok(None);
                    };
                    vals.push(v);
                }
                Ok(Some(Value::tuple(vals)))
            }
            Expr::Record(fields) => {
                let mut vals = Vec::with_capacity(fields.len());
                for (n, f) in fields {
                    let Some(v) = self.eval(f)? else {
                        return Ok(None);
                    };
                    vals.push((n.clone(), v));
                }
                Ok(Some(Value::record(vals)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diablo_lang::{parse, typecheck};

    fn run(src: &str, setup: impl FnOnce(&mut Interpreter)) -> Interpreter {
        let tp = typecheck(parse(src).unwrap()).unwrap();
        let mut interp = Interpreter::new();
        setup(&mut interp);
        interp.run(&tp).unwrap();
        interp
    }

    fn vec_input(entries: &[(i64, i64)]) -> Vec<Value> {
        entries
            .iter()
            .map(|&(k, v)| Value::pair(Value::Long(k), Value::Long(v)))
            .collect()
    }

    #[test]
    fn intro_group_by_example() {
        // for i = 0, 9 do C[A[i].K] += A[i].V with A = {(3,10),(5,25),(3,13)}
        // keyed 0..2 gives C = {(3,23),(5,25)} (paper §1).
        let src = r#"
            input A: vector[<|K: long, V: long|>];
            var C: vector[long] = vector();
            for i = 0, 9 do C[A[i].K] += A[i].V;
        "#;
        let interp = run(src, |it| {
            let a = vec![(0, (3, 10)), (1, (5, 25)), (2, (3, 13))]
                .into_iter()
                .map(|(i, (k, v))| {
                    Value::pair(
                        Value::Long(i),
                        Value::record(vec![
                            ("K".into(), Value::Long(k)),
                            ("V".into(), Value::Long(v)),
                        ]),
                    )
                })
                .collect();
            it.bind_collection("A", a).unwrap();
        });
        assert_eq!(
            interp.collection("C").unwrap(),
            vec_input(&[(3, 23), (5, 25)])
        );
    }

    #[test]
    fn missing_reads_skip_iterations() {
        let src = r#"
            input V: vector[long];
            var sum: long = 0;
            for i = 0, 99 do sum += V[i];
        "#;
        let interp = run(src, |it| {
            it.bind_collection("V", vec_input(&[(2, 10), (50, 32)]))
                .unwrap();
        });
        assert_eq!(interp.scalar("sum"), Some(Value::Long(42)));
    }

    #[test]
    fn matrix_multiplication_small() {
        let src = r#"
            input M: matrix[double];
            input N: matrix[double];
            input d: long;
            var R: matrix[double] = matrix();
            for i = 0, d-1 do
              for j = 0, d-1 do {
                R[i, j] := 0.0;
                for k = 0, d-1 do
                  R[i, j] += M[i, k] * N[k, j];
              };
        "#;
        let m = |entries: &[(i64, i64, f64)]| {
            entries
                .iter()
                .map(|&(i, j, v)| {
                    Value::pair(
                        Value::pair(Value::Long(i), Value::Long(j)),
                        Value::Double(v),
                    )
                })
                .collect::<Vec<_>>()
        };
        let interp = run(src, |it| {
            it.bind_scalar("d", Value::Long(2));
            it.bind_collection(
                "M",
                m(&[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)]),
            )
            .unwrap();
            it.bind_collection(
                "N",
                m(&[(0, 0, 5.0), (0, 1, 6.0), (1, 0, 7.0), (1, 1, 8.0)]),
            )
            .unwrap();
        });
        let r = interp.collection("R").unwrap();
        let get = |i: i64, j: i64| {
            r.iter()
                .find_map(|p| match p.as_tuple() {
                    Some([k, v]) if *k == Value::pair(Value::Long(i), Value::Long(j)) => {
                        v.as_double()
                    }
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(get(0, 0), 19.0);
        assert_eq!(get(0, 1), 22.0);
        assert_eq!(get(1, 0), 43.0);
        assert_eq!(get(1, 1), 50.0);
    }

    #[test]
    fn while_loop_with_counter() {
        let src = r#"
            var k: long = 0;
            var total: long = 0;
            while (k < 5) { k += 1; total += k; };
        "#;
        let interp = run(src, |_| {});
        assert_eq!(interp.scalar("total"), Some(Value::Long(15)));
    }

    #[test]
    fn conditionals_and_for_in() {
        let src = r#"
            input V: vector[double];
            var sum: double = 0.0;
            for v in V do
                if (v < 100.0) sum += v;
        "#;
        let interp = run(src, |it| {
            let v = vec![(0, 5.0), (1, 250.0), (2, 7.5)]
                .into_iter()
                .map(|(i, x)| Value::pair(Value::Long(i), Value::Double(x)))
                .collect();
            it.bind_collection("V", v).unwrap();
        });
        assert_eq!(interp.scalar("sum"), Some(Value::Double(12.5)));
    }

    #[test]
    fn incremental_on_missing_key_starts_from_value() {
        let src = r#"
            var C: map[string, long] = map();
            C["a"] += 1;
            C["a"] += 1;
            C["b"] += 5;
        "#;
        let interp = run(src, |_| {});
        let c = interp.collection("C").unwrap();
        assert_eq!(
            c,
            vec![
                Value::pair(Value::str("a"), Value::Long(2)),
                Value::pair(Value::str("b"), Value::Long(5)),
            ]
        );
    }

    #[test]
    fn unbound_input_is_an_error() {
        let tp = typecheck(parse("input V: vector[long]; var s: long = 0;").unwrap()).unwrap();
        let mut interp = Interpreter::new();
        assert!(interp.run(&tp).is_err());
    }

    #[test]
    fn overwrite_then_read_latest() {
        let src = r#"
            var V: vector[long] = vector();
            var x: long = 0;
            V[3] := 10;
            V[3] := 20;
            x := V[3];
        "#;
        let interp = run(src, |_| {});
        assert_eq!(interp.scalar("x"), Some(Value::Long(20)));
    }

    #[test]
    fn argmin_incremental_update() {
        let src = r#"
            input D: vector[(long, double)];
            var best: vector[(long, double)] = vector();
            for i = 0, 9 do best[0] ^= D[i];
        "#;
        let interp = run(src, |it| {
            let d = vec![(0, (1, 5.0)), (1, (2, 1.5)), (2, (3, 9.0))]
                .into_iter()
                .map(|(i, (j, x))| {
                    Value::pair(
                        Value::Long(i),
                        Value::pair(Value::Long(j), Value::Double(x)),
                    )
                })
                .collect();
            it.bind_collection("D", d).unwrap();
        });
        assert_eq!(
            interp.collection("best").unwrap(),
            vec![Value::pair(
                Value::Long(0),
                Value::pair(Value::Long(2), Value::Double(1.5))
            )]
        );
    }

    #[test]
    fn step_counter_advances() {
        let interp = run("var x: long = 0; x += 1;", |_| {});
        assert!(interp.steps >= 2);
    }
}
