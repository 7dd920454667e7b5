//! The translation rules of Fig. 2: loop programs → target code over
//! monoid comprehensions.
//!
//! * `E⟦e⟧` lifts an expression of type `t` to a comprehension of type
//!   `{t}` — array accesses return zero-or-one-element bags (§3.4);
//! * `K⟦d⟧` derives the destination index of an L-value;
//! * `D⟦d⟧(k)` reads the destination back from its index (used by scalar
//!   incremental updates to add the initial value `w`);
//! * `U⟦d⟧(x)` rebuilds the destination from an update bag `x`;
//! * `S⟦s⟧(q)` translates a statement under the accumulated for-loop
//!   qualifiers `q` — for-loops become generators (rules (15d)/(15e)),
//!   which is exactly the loop fission of Theorem 3.1: every assignment in
//!   a loop nest becomes one bulk update.
//!
//! One deliberate implementation choice (documented in DESIGN.md): for an
//! incremental update whose destination is an *array*, the paper joins the
//! grouped aggregates back with the old array (`w ← D⟦d⟧(k)`) and then
//! merges with `⊳`. We instead emit a *combining merge* `V ⊳[⊕] x`, which
//! is equivalent where the paper's form is defined and additionally gives
//! the unrolled-loop semantics when the key is absent from the old array
//! (e.g. `C[w] += 1` starting from an empty map).

use diablo_comp::ir::{CExpr, Comprehension, NameGen, Pattern, Qual};
use diablo_comp::{optimize_counted, RewriteStats};
use diablo_lang::ast::{Const, DeclInit, Expr, Lhs, Stmt};
use diablo_lang::lexer::Span;
use diablo_lang::types::TypedProgram;
use diablo_lang::{LangError, Type};
use diablo_runtime::{AggOp, BinOp, UnOp, Value};

use crate::target::{CompiledProgram, TStmt};

/// Result alias for translation.
pub type Result<T> = std::result::Result<T, LangError>;

/// Translates a type-checked (and restriction-checked) program and
/// optimizes the target code: [`translate_raw`], [`optimize_program`],
/// then [`splice_arrays`](crate::splice_arrays).
pub fn translate(tp: &TypedProgram) -> Result<CompiledProgram> {
    translate_raw(tp).map(|raw| {
        let mut program = optimize_program(raw).0;
        crate::splice_arrays(&mut program);
        program
    })
}

/// Rules (11)–(15) alone: the target code exactly as the translation
/// schemes emit it, nested and unoptimized.
pub fn translate_raw(tp: &TypedProgram) -> Result<CompiledProgram> {
    let mut t = Translator {
        tp,
        ng: NameGen::new(),
    };
    let mut stmts = Vec::new();
    for s in &tp.program.body {
        stmts.extend(t.stmt(s, Vec::new())?);
    }
    Ok(CompiledProgram {
        stmts,
        inputs: tp.program.inputs.clone(),
        var_types: tp.var_types.clone(),
        names: t.ng,
    })
}

/// Normalizes and optimizes every expression of the target code (the
/// rewrite table of `diablo_comp`), and says what the rewriting did.
pub fn optimize_program(mut program: CompiledProgram) -> (CompiledProgram, RewriteStats) {
    fn stmts(list: Vec<TStmt>, ng: &mut NameGen, stats: &mut RewriteStats) -> Vec<TStmt> {
        list.into_iter()
            .map(|s| match s {
                TStmt::Assign {
                    name,
                    value,
                    collection,
                } => TStmt::Assign {
                    name,
                    value: optimize_counted(value, ng, stats),
                    collection,
                },
                TStmt::While { cond, body } => TStmt::While {
                    cond: optimize_counted(cond, ng, stats),
                    body: stmts(body, ng, stats),
                },
            })
            .collect()
    }
    let mut stats = RewriteStats::default();
    program.stmts = stmts(program.stmts, &mut program.names, &mut stats);
    (program, stats)
}

struct Translator<'a> {
    tp: &'a TypedProgram,
    ng: NameGen,
}

impl Translator<'_> {
    // ------------------------------------------------------------- E⟦e⟧

    /// Lifts an expression to a bag-valued comprehension (rules (11a-g)).
    fn expr(&mut self, e: &Expr) -> CExpr {
        match e {
            Expr::Dest(d) => self.lhs_read(d),
            Expr::Const(c) => CExpr::singleton(CExpr::Const(const_value(c))),
            Expr::Bin(op, a, b) => {
                let (va, vb) = (self.ng.fresh("a"), self.ng.fresh("b"));
                let ea = self.expr(a);
                let eb = self.expr(b);
                CExpr::Comp(Comprehension::new(
                    CExpr::Bin(
                        *op,
                        Box::new(CExpr::Var(va.clone())),
                        Box::new(CExpr::Var(vb.clone())),
                    ),
                    vec![
                        Qual::Gen(Pattern::Var(va), ea),
                        Qual::Gen(Pattern::Var(vb), eb),
                    ],
                ))
            }
            Expr::Un(op, a) => {
                let va = self.ng.fresh("a");
                let ea = self.expr(a);
                CExpr::Comp(Comprehension::new(
                    CExpr::Un(*op, Box::new(CExpr::Var(va.clone()))),
                    vec![Qual::Gen(Pattern::Var(va), ea)],
                ))
            }
            Expr::Call(f, args) => {
                let mut quals = Vec::with_capacity(args.len());
                let mut vars = Vec::with_capacity(args.len());
                for a in args {
                    let v = self.ng.fresh("a");
                    let ea = self.expr(a);
                    quals.push(Qual::Gen(Pattern::Var(v.clone()), ea));
                    vars.push(CExpr::Var(v));
                }
                CExpr::Comp(Comprehension::new(CExpr::Call(*f, vars), quals))
            }
            Expr::Tuple(fields) => {
                let mut quals = Vec::with_capacity(fields.len());
                let mut vars = Vec::with_capacity(fields.len());
                for f in fields {
                    let v = self.ng.fresh("t");
                    let ef = self.expr(f);
                    quals.push(Qual::Gen(Pattern::Var(v.clone()), ef));
                    vars.push(CExpr::Var(v));
                }
                CExpr::Comp(Comprehension::new(CExpr::Tuple(vars), quals))
            }
            Expr::Record(fields) => {
                let mut quals = Vec::with_capacity(fields.len());
                let mut named = Vec::with_capacity(fields.len());
                for (n, f) in fields {
                    let v = self.ng.fresh("r");
                    let ef = self.expr(f);
                    quals.push(Qual::Gen(Pattern::Var(v.clone()), ef));
                    named.push((n.clone(), CExpr::Var(v)));
                }
                CExpr::Comp(Comprehension::new(CExpr::Record(named), quals))
            }
        }
    }

    /// `E⟦d⟧` for destination reads: variables (11a), projections (11b),
    /// array accesses (11c).
    fn lhs_read(&mut self, d: &Lhs) -> CExpr {
        match d {
            Lhs::Var(v) => CExpr::singleton(CExpr::Var(v.clone())),
            Lhs::Proj(base, field) => {
                let t = self.ng.fresh("p");
                let eb = self.lhs_read(base);
                CExpr::Comp(Comprehension::new(
                    CExpr::Proj(Box::new(CExpr::Var(t.clone())), field.clone()),
                    vec![Qual::Gen(Pattern::Var(t), eb)],
                ))
            }
            Lhs::Index(v, idxs) => {
                let mut quals = Vec::new();
                let mut key_vars = Vec::with_capacity(idxs.len());
                for idx in idxs {
                    let kv = self.ng.fresh("k");
                    let ei = self.expr(idx);
                    quals.push(Qual::Gen(Pattern::Var(kv.clone()), ei));
                    key_vars.push(kv);
                }
                let val = self.ng.fresh("v");
                let (pat, preds) = self.array_pattern(v, &key_vars, &val);
                quals.push(Qual::Gen(pat, CExpr::Var(v.clone())));
                quals.extend(preds);
                CExpr::Comp(Comprehension::new(CExpr::Var(val), quals))
            }
        }
    }

    /// Builds the traversal pattern for an array generator and the
    /// equality predicates binding its index variables to `key_vars`.
    fn array_pattern(
        &mut self,
        array: &str,
        key_vars: &[String],
        val: &str,
    ) -> (Pattern, Vec<Qual>) {
        let is_matrix = matches!(self.tp.type_of(array), Some(Type::Matrix(_)));
        if is_matrix {
            let (i, j) = (self.ng.fresh("i"), self.ng.fresh("j"));
            let pat = Pattern::pair(
                Pattern::pair(Pattern::var(i.clone()), Pattern::var(j.clone())),
                Pattern::var(val),
            );
            let preds = match key_vars.len() {
                2 => vec![
                    Qual::Pred(CExpr::eq(CExpr::Var(i), CExpr::Var(key_vars[0].clone()))),
                    Qual::Pred(CExpr::eq(CExpr::Var(j), CExpr::Var(key_vars[1].clone()))),
                ],
                // Keyed by a single pair value (from D⟦·⟧).
                1 => vec![Qual::Pred(CExpr::eq(
                    CExpr::pair(CExpr::Var(i), CExpr::Var(j)),
                    CExpr::Var(key_vars[0].clone()),
                ))],
                n => unreachable!("matrix access with {n} indexes"),
            };
            (pat, preds)
        } else {
            let i = self.ng.fresh("i");
            let pat = Pattern::pair(Pattern::var(i.clone()), Pattern::var(val));
            let preds = vec![Qual::Pred(CExpr::eq(
                CExpr::Var(i),
                CExpr::Var(key_vars[0].clone()),
            ))];
            (pat, preds)
        }
    }

    // ------------------------------------------------------------- K⟦d⟧

    /// The destination-index bag (rules (12a-c)).
    fn key_of(&mut self, d: &Lhs) -> CExpr {
        match d {
            Lhs::Var(_) => CExpr::singleton(CExpr::Const(Value::Unit)),
            Lhs::Proj(base, _) => self.key_of(base),
            Lhs::Index(_, idxs) => {
                if idxs.len() == 1 {
                    self.expr(&idxs[0])
                } else {
                    self.expr(&Expr::Tuple(idxs.clone()))
                }
            }
        }
    }

    // ---------------------------------------------------------- D⟦d⟧(k)

    /// Reads the destination back from its index (rules (13a-c)).
    fn dest_of(&mut self, d: &Lhs, k: &CExpr) -> CExpr {
        match d {
            Lhs::Var(v) => CExpr::singleton(CExpr::Var(v.clone())),
            Lhs::Proj(base, field) => {
                let t = self.ng.fresh("p");
                let eb = self.dest_of(base, k);
                CExpr::Comp(Comprehension::new(
                    CExpr::Proj(Box::new(CExpr::Var(t.clone())), field.clone()),
                    vec![Qual::Gen(Pattern::Var(t), eb)],
                ))
            }
            Lhs::Index(v, _) => {
                let kv = self.ng.fresh("k");
                let val = self.ng.fresh("w");
                // Bind k once so the pattern predicates can reference it.
                let (pat, preds) = self.array_pattern(v, std::slice::from_ref(&kv), &val);
                let mut quals = vec![
                    Qual::Let(Pattern::Var(kv), k.clone()),
                    Qual::Gen(pat, CExpr::Var(v.clone())),
                ];
                quals.extend(preds);
                CExpr::Comp(Comprehension::new(CExpr::Var(val), quals))
            }
        }
    }

    // ---------------------------------------------------------- U⟦d⟧(x)

    /// Rebuilds the destination from the update bag `x` (rules (14a-c)).
    /// `combine` is `Some(⊕)` for array-destination incremental updates.
    fn update(
        &mut self,
        d: &Lhs,
        x: CExpr,
        combine: Option<BinOp>,
        span: Span,
    ) -> Result<Vec<TStmt>> {
        match d {
            Lhs::Var(v) => {
                let val = self.ng.fresh("v");
                let body = CExpr::Comp(Comprehension::new(
                    CExpr::Var(val.clone()),
                    vec![Qual::Gen(
                        Pattern::pair(Pattern::Wild, Pattern::var(val)),
                        x,
                    )],
                ));
                Ok(vec![TStmt::Assign {
                    name: v.clone(),
                    value: body,
                    collection: self.tp.is_collection(v),
                }])
            }
            Lhs::Proj(base, field) => {
                // (14b): rebuild the record with field `field` replaced.
                let base_ty = self.lhs_type(base).ok_or_else(|| {
                    LangError::new("cannot type the destination of a field update", span)
                })?;
                let (k, v, w) = (self.ng.fresh("k"), self.ng.fresh("v"), self.ng.fresh("w"));
                let rebuilt = match &base_ty {
                    Type::Record(fields) => CExpr::Record(
                        fields
                            .iter()
                            .map(|(n, _)| {
                                if n == field {
                                    (n.clone(), CExpr::Var(v.clone()))
                                } else {
                                    (
                                        n.clone(),
                                        CExpr::Proj(Box::new(CExpr::Var(w.clone())), n.clone()),
                                    )
                                }
                            })
                            .collect(),
                    ),
                    Type::Tuple(fields) => CExpr::Tuple(
                        (1..=fields.len())
                            .map(|i| {
                                let name = format!("_{i}");
                                if name == *field {
                                    CExpr::Var(v.clone())
                                } else {
                                    CExpr::Proj(Box::new(CExpr::Var(w.clone())), name)
                                }
                            })
                            .collect(),
                    ),
                    other => {
                        return Err(LangError::new(
                            format!("cannot update field `{field}` of type {other}"),
                            span,
                        ))
                    }
                };
                let dk = self.dest_of(base, &CExpr::Var(k.clone()));
                let x2 = CExpr::Comp(Comprehension::new(
                    CExpr::pair(CExpr::Var(k.clone()), rebuilt),
                    vec![
                        Qual::Gen(Pattern::pair(Pattern::var(k), Pattern::var(v)), x),
                        Qual::Gen(Pattern::Var(w), dk),
                    ],
                ));
                self.update(base, x2, None, span)
            }
            Lhs::Index(v, _) => Ok(vec![TStmt::Assign {
                name: v.clone(),
                value: CExpr::Merge {
                    left: Box::new(CExpr::Var(v.clone())),
                    right: Box::new(x),
                    combine,
                },
                collection: true,
            }]),
        }
    }

    /// The static type of an L-value, resolved from the typed program.
    fn lhs_type(&self, d: &Lhs) -> Option<Type> {
        match d {
            Lhs::Var(v) => self.tp.type_of(v).cloned(),
            Lhs::Proj(base, field) => match self.lhs_type(base)? {
                Type::Record(fields) => fields
                    .iter()
                    .find(|(n, _)| n == field)
                    .map(|(_, t)| t.clone()),
                Type::Tuple(ts) => {
                    let idx: usize = field.strip_prefix('_')?.parse().ok()?;
                    ts.get(idx.checked_sub(1)?).cloned()
                }
                _ => None,
            },
            Lhs::Index(v, _) => self.tp.type_of(v)?.element().cloned(),
        }
    }

    // ---------------------------------------------------------- S⟦s⟧(q)

    /// Translates a statement under accumulated loop qualifiers (rules
    /// (15a-h)).
    fn stmt(&mut self, s: &Stmt, q: Vec<Qual>) -> Result<Vec<TStmt>> {
        match s {
            Stmt::Incr {
                dest,
                op,
                value,
                span,
            } => {
                let agg = AggOp::new(*op).ok_or_else(|| {
                    LangError::new(
                        format!("`{}` is not a commutative monoid", op.symbol()),
                        *span,
                    )
                })?;
                let (vv, k) = (self.ng.fresh("v"), self.ng.fresh("k"));
                let ev = self.expr(value);
                let kd = self.key_of(dest);
                let mut quals = q;
                quals.push(Qual::Gen(Pattern::var(vv.clone()), ev));
                quals.push(Qual::Gen(Pattern::var(k.clone()), kd));
                quals.push(Qual::GroupBy(
                    Pattern::var(k.clone()),
                    CExpr::Var(k.clone()),
                ));
                match dest {
                    Lhs::Index(_, _) => {
                        // (15a) with a combining merge: no D-join needed.
                        let x = CExpr::Comp(Comprehension::new(
                            CExpr::pair(CExpr::Var(k), CExpr::Agg(agg, Box::new(CExpr::Var(vv)))),
                            quals,
                        ));
                        self.update(dest, x, Some(*op), *span)
                    }
                    _ => {
                        // (15a) exactly as in the paper: join the initial
                        // value w back in.
                        let w = self.ng.fresh("w");
                        let dk = self.dest_of(dest, &CExpr::Var(k.clone()));
                        quals.push(Qual::Gen(Pattern::var(w.clone()), dk));
                        let x = CExpr::Comp(Comprehension::new(
                            CExpr::pair(
                                CExpr::Var(k),
                                CExpr::Bin(
                                    *op,
                                    Box::new(CExpr::Var(w)),
                                    Box::new(CExpr::Agg(agg, Box::new(CExpr::Var(vv)))),
                                ),
                            ),
                            quals,
                        ));
                        self.update(dest, x, None, *span)
                    }
                }
            }
            Stmt::Assign { dest, value, span } => {
                let (vv, k) = (self.ng.fresh("v"), self.ng.fresh("k"));
                let ev = self.expr(value);
                let kd = self.key_of(dest);
                let mut quals = q;
                quals.push(Qual::Gen(Pattern::var(vv.clone()), ev));
                quals.push(Qual::Gen(Pattern::var(k.clone()), kd));
                let x = CExpr::Comp(Comprehension::new(
                    CExpr::pair(CExpr::Var(k), CExpr::Var(vv)),
                    quals,
                ));
                self.update(dest, x, None, *span)
            }
            Stmt::Decl {
                name,
                ty,
                init,
                span,
            } => match init {
                DeclInit::EmptyCollection => Ok(vec![TStmt::Assign {
                    name: name.clone(),
                    value: CExpr::Const(Value::empty_bag()),
                    collection: ty.is_collection(),
                }]),
                DeclInit::Expr(e) => self.stmt(
                    &Stmt::Assign {
                        dest: Lhs::Var(name.clone()),
                        value: e.clone(),
                        span: *span,
                    },
                    q,
                ),
            },
            Stmt::For {
                var, lo, hi, body, ..
            } => {
                let (v1, v2) = (self.ng.fresh("lo"), self.ng.fresh("hi"));
                let elo = self.expr(lo);
                let ehi = self.expr(hi);
                let mut quals = q;
                quals.push(Qual::Gen(Pattern::var(v1.clone()), elo));
                quals.push(Qual::Gen(Pattern::var(v2.clone()), ehi));
                quals.push(Qual::Gen(
                    Pattern::var(var.clone()),
                    CExpr::Range(Box::new(CExpr::Var(v1)), Box::new(CExpr::Var(v2))),
                ));
                self.stmt(body, quals)
            }
            Stmt::ForIn {
                var, source, body, ..
            } => {
                let a = self.ng.fresh("A");
                let es = self.expr(source);
                let mut quals = q;
                quals.push(Qual::Gen(Pattern::var(a.clone()), es));
                quals.push(Qual::Gen(
                    Pattern::pair(Pattern::Wild, Pattern::var(var.clone())),
                    CExpr::Var(a),
                ));
                self.stmt(body, quals)
            }
            Stmt::While { cond, body, span } => {
                if !q.is_empty() {
                    return Err(LangError::new(
                        "while-loops inside for-loops are not supported (the loop would \
                         be sequentialized)",
                        *span,
                    ));
                }
                let ec = self.expr(cond);
                let mut tbody = Vec::new();
                for s in body_stmts(body) {
                    tbody.extend(self.stmt(s, Vec::new())?);
                }
                Ok(vec![TStmt::While {
                    cond: ec,
                    body: tbody,
                }])
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                let mut out = Vec::new();
                let p = self.ng.fresh("c");
                let ec = self.expr(cond);
                let mut qt = q.clone();
                qt.push(Qual::Gen(Pattern::var(p.clone()), ec));
                qt.push(Qual::Pred(CExpr::Var(p)));
                out.extend(self.stmt(then_branch, qt)?);
                if let Some(eb) = else_branch {
                    let p2 = self.ng.fresh("c");
                    let ec2 = self.expr(cond);
                    let mut qe = q;
                    qe.push(Qual::Gen(Pattern::var(p2.clone()), ec2));
                    qe.push(Qual::Pred(CExpr::Un(UnOp::Not, Box::new(CExpr::Var(p2)))));
                    out.extend(self.stmt(eb, qe)?);
                }
                Ok(out)
            }
            Stmt::Block(ss) => {
                let mut out = Vec::new();
                for s in ss {
                    out.extend(self.stmt(s, q.clone())?);
                }
                Ok(out)
            }
        }
    }
}

/// Flattens a statement into its block components (while bodies are lists).
fn body_stmts(s: &Stmt) -> Vec<&Stmt> {
    match s {
        Stmt::Block(ss) => ss.iter().collect(),
        other => vec![other],
    }
}

fn const_value(c: &Const) -> Value {
    match c {
        Const::Long(n) => Value::Long(*n),
        Const::Double(x) => Value::Double(*x),
        Const::Bool(b) => Value::Bool(*b),
        Const::Str(s) => Value::str(s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diablo_comp::pretty::pretty_cexpr;
    use diablo_lang::{parse, typecheck};

    fn compile_src(src: &str) -> CompiledProgram {
        let tp = typecheck(parse(src).unwrap()).unwrap();
        crate::analysis::check_restrictions(&tp).unwrap();
        translate(&tp).unwrap()
    }

    #[test]
    fn vector_copy_becomes_bounded_traversal() {
        // §3.9: for i = 1, 10 do V[i] := W[i]
        // ⇒ V := V ⊳ {(i, w) | (i, w) ← W, inRange(i, 1, 10)}
        let p = compile_src(
            r#"
            input W: vector[long];
            var V: vector[long] = vector();
            for i = 1, 10 do V[i] := W[i];
        "#,
        );
        assert_eq!(p.stmts.len(), 2);
        let TStmt::Assign {
            name,
            value,
            collection,
        } = &p.stmts[1]
        else {
            panic!()
        };
        assert_eq!(name, "V");
        assert!(collection);
        let CExpr::Merge { combine, right, .. } = value else {
            panic!("expected merge, got {}", pretty_cexpr(value))
        };
        assert!(combine.is_none());
        let CExpr::Comp(c) = right.as_ref() else {
            panic!()
        };
        // No range generator survives; an inRange guard exists.
        assert!(
            c.quals
                .iter()
                .all(|qq| !matches!(qq, Qual::Gen(_, CExpr::Range(_, _)))),
            "{}",
            pretty_cexpr(value)
        );
        assert!(
            c.quals.iter().any(|qq| matches!(
                qq,
                Qual::Pred(CExpr::Call(diablo_runtime::Func::InRange, _))
            )),
            "{}",
            pretty_cexpr(value)
        );
    }

    #[test]
    fn incremental_update_groups_by_destination() {
        // §3.9: for i = 1, 10 do W[K[i]] += V[i]
        let p = compile_src(
            r#"
            input K: vector[long];
            input V: vector[long];
            var W: vector[long] = vector();
            for i = 1, 10 do W[K[i]] += V[i];
        "#,
        );
        let TStmt::Assign { name, value, .. } = &p.stmts[1] else {
            panic!()
        };
        assert_eq!(name, "W");
        let CExpr::Merge { combine, right, .. } = value else {
            panic!()
        };
        assert_eq!(*combine, Some(BinOp::Add));
        let CExpr::Comp(c) = right.as_ref() else {
            panic!()
        };
        assert!(
            c.quals.iter().any(|qq| matches!(qq, Qual::GroupBy(_, _))),
            "group-by over the destination index: {}",
            pretty_cexpr(value)
        );
    }

    #[test]
    fn scalar_increment_becomes_total_aggregation() {
        // sum += V[i] in a loop ⇒ total aggregation, no group-by left.
        let p = compile_src(
            r#"
            input V: vector[double];
            var sum: double = 0.0;
            for i = 0, 99 do sum += V[i];
        "#,
        );
        let TStmt::Assign {
            name,
            value,
            collection,
        } = &p.stmts[1]
        else {
            panic!()
        };
        assert_eq!(name, "sum");
        assert!(!collection);
        let printed = pretty_cexpr(value);
        assert!(
            !printed.contains("group by"),
            "rule (16) removed the group-by: {printed}"
        );
        assert!(printed.contains("+/"), "total aggregation: {printed}");
    }

    #[test]
    fn matrix_multiplication_becomes_join_group_by() {
        let p = compile_src(
            r#"
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
        "#,
        );
        // Statements: R := {}, zero-init merge, accumulate merge.
        assert_eq!(p.stmts.len(), 3);
        let TStmt::Assign { value, .. } = &p.stmts[2] else {
            panic!()
        };
        let printed = pretty_cexpr(value);
        // All three ranges must be eliminated (the §1.1 headline result).
        assert!(!printed.contains("range("), "no ranges: {printed}");
        assert!(printed.contains("group by"), "group-by survives: {printed}");
        assert!(printed.contains("+/"), "aggregation: {printed}");
    }

    #[test]
    fn conditionals_become_filters() {
        let p = compile_src(
            r#"
            input V: vector[double];
            var sum: double = 0.0;
            for v in V do
                if (v < 100.0) sum += v;
        "#,
        );
        let TStmt::Assign { value, .. } = &p.stmts[1] else {
            panic!()
        };
        let printed = pretty_cexpr(value);
        assert!(printed.contains("< 100"), "filter predicate: {printed}");
    }

    #[test]
    fn if_else_splits_into_two_updates() {
        let p = compile_src(
            r#"
            input V: vector[double];
            var a: double = 0.0;
            var b: double = 0.0;
            for v in V do
                if (v < 0.0) a += v; else b += v;
        "#,
        );
        // decl a, decl b, a-update, b-update.
        assert_eq!(p.stmts.len(), 4);
    }

    #[test]
    fn while_loops_stay_sequential() {
        let p = compile_src(
            r#"
            var k: long = 0;
            var s: long = 0;
            while (k < 10) { k += 1; s += k; };
        "#,
        );
        assert_eq!(p.stmts.len(), 3);
        let TStmt::While { body, .. } = &p.stmts[2] else {
            panic!("expected while")
        };
        assert_eq!(body.len(), 2);
    }

    #[test]
    fn empty_collection_decl_initializes() {
        let p = compile_src("var V: vector[long] = vector();");
        let TStmt::Assign {
            value, collection, ..
        } = &p.stmts[0]
        else {
            panic!()
        };
        assert!(collection);
        assert_eq!(*value, CExpr::Const(Value::empty_bag()));
    }

    #[test]
    fn statement_count_recurses() {
        let p = compile_src(
            r#"
            var k: long = 0;
            while (k < 2) k += 1;
        "#,
        );
        assert_eq!(p.statement_count(), 3);
    }
}
