//! Row expressions: comprehension-calculus expressions lowered against a
//! pipeline row layout.
//!
//! Pipeline rows are tuples of column values. An expression with a
//! `RowExpr` form ([`CExpr::has_row_form`]) lowers to it once per stage,
//! every variable resolved to a column or a global constant, and the
//! engine can run the step columnar. Any other expression stays what it
//! is, and the reference evaluator, [`diablo_comp::eval_in`], runs it once
//! per row over a scope that reads the row's columns, then the globals.

use std::sync::Arc;

use diablo_comp::ir::CExpr;
use diablo_comp::{Closed, Env, Scope};
use diablo_dataflow::RowExpr;
use diablo_runtime::{RuntimeError, Value};

use crate::Result;

/// The column layout of a pipeline: variable name per tuple position.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Layout {
    /// Column names in row order.
    pub cols: Vec<String>,
}

impl Layout {
    /// Creates a layout from column names.
    pub fn new(cols: Vec<String>) -> Layout {
        Layout { cols }
    }

    /// The index of a column: the last one of that name, as a later
    /// binding of a variable shadows an earlier one.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.cols.iter().rposition(|c| c == name)
    }

    /// Adds a column, returning its index.
    pub fn push(&mut self, name: String) -> usize {
        self.cols.push(name);
        self.cols.len() - 1
    }
}

/// An expression lowered against a layout.
pub enum Lowered {
    /// The engine's transparent form.
    Row(RowExpr),
    /// No `RowExpr` form: the reference evaluator runs it per row, over
    /// the row's columns, then the globals.
    Opaque {
        /// The expression as written.
        expr: CExpr,
        /// The row's columns.
        layout: Layout,
        /// The session's scalars.
        globals: Arc<Env>,
    },
}

/// Lowers `e` against `layout`. A variable of a `RowExpr` form that is
/// neither a column nor a global is an error (dataset names are handled
/// upstream, as generator domains).
pub fn lower(e: &CExpr, layout: &Layout, globals: &Arc<Env>) -> Result<Lowered> {
    if e.has_row_form() {
        return row_expr(e, layout, globals).map(Lowered::Row);
    }
    Ok(Lowered::Opaque {
        expr: e.clone(),
        layout: layout.clone(),
        globals: Arc::clone(globals),
    })
}

/// The `RowExpr` form of an expression that has one.
fn row_expr(e: &CExpr, layout: &Layout, globals: &Env) -> Result<RowExpr> {
    let lower = |e: &CExpr| row_expr(e, layout, globals);
    Ok(match e {
        CExpr::Var(v) => match (layout.index_of(v), globals.get(v)) {
            (Some(i), _) => RowExpr::Col(i),
            (None, Some(val)) => RowExpr::Const(val.clone()),
            (None, None) => {
                return Err(RuntimeError::new(format!(
                    "variable `{v}` is not available in this pipeline stage"
                )))
            }
        },
        CExpr::Const(v) => RowExpr::Const(v.clone()),
        CExpr::Bin(op, a, b) => RowExpr::Bin(*op, Box::new(lower(a)?), Box::new(lower(b)?)),
        CExpr::Un(op, a) => RowExpr::Un(*op, Box::new(lower(a)?)),
        CExpr::Call(f, args) => RowExpr::Call(*f, args.iter().map(lower).collect::<Result<_>>()?),
        CExpr::Tuple(fs) => RowExpr::Tuple(fs.iter().map(lower).collect::<Result<_>>()?),
        CExpr::Proj(a, f) => RowExpr::field(lower(a)?, f.as_str()),
        _ => unreachable!("checked by CExpr::has_row_form"),
    })
}

impl Lowered {
    /// Evaluates the expression against one environment row.
    pub fn eval(&self, row: &Value) -> Result<Value> {
        match self {
            Lowered::Row(rx) => rx.eval(row),
            Lowered::Opaque {
                expr,
                layout,
                globals,
            } => {
                let fields = row.as_tuple().expect("env row");
                let scope = RowScope {
                    fields,
                    layout,
                    globals,
                };
                diablo_comp::eval_in(expr, &Env::new(), &scope)
            }
        }
    }
}

/// What an opaque expression reads from its row: the row's columns, then
/// the globals.
struct RowScope<'a> {
    fields: &'a [Value],
    layout: &'a Layout,
    globals: &'a Env,
}

impl Scope for RowScope<'_> {
    fn var(&self, name: &str) -> Result<Value> {
        if let Some(i) = self.layout.index_of(name) {
            return self
                .fields
                .get(i)
                .cloned()
                .ok_or_else(|| RuntimeError::new("row is narrower than its layout"));
        }
        match self.globals.get(name) {
            Some(v) => Ok(v.clone()),
            None => Closed.var(name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diablo_comp::ir::{Comprehension, Pattern, Qual};
    use diablo_runtime::{AggOp, BinOp};

    fn globals() -> Arc<Env> {
        let mut g = Env::new();
        g.insert("n".into(), Value::Long(10));
        Arc::new(g)
    }

    fn add(a: CExpr, b: CExpr) -> CExpr {
        CExpr::Bin(BinOp::Add, Box::new(a), Box::new(b))
    }

    fn sum(e: CExpr) -> CExpr {
        CExpr::Agg(AggOp::new(BinOp::Add).unwrap(), Box::new(e))
    }

    #[test]
    fn compiles_columns_and_globals() {
        let layout = Layout::new(vec!["x".into(), "y".into()]);
        let r = lower(&add(CExpr::var("x"), CExpr::var("n")), &layout, &globals()).unwrap();
        assert!(matches!(r, Lowered::Row(_)));
        let row = Value::tuple(vec![Value::Long(5), Value::Long(7)]);
        assert_eq!(r.eval(&row).unwrap(), Value::Long(15));
    }

    #[test]
    fn unknown_variable_is_an_error() {
        let layout = Layout::new(vec![]);
        assert!(lower(&CExpr::var("zzz"), &layout, &globals()).is_err());
    }

    #[test]
    fn agg_over_bag_column() {
        let layout = Layout::new(vec!["vs".into()]);
        let r = lower(&sum(CExpr::var("vs")), &layout, &globals()).unwrap();
        let row = Value::tuple(vec![Value::bag(vec![Value::Long(1), Value::Long(2)])]);
        assert_eq!(r.eval(&row).unwrap(), Value::Long(3));
    }

    #[test]
    fn structural_expressions_lower_to_a_row_form() {
        let layout = Layout::new(vec!["x".into(), "y".into()]);
        let e = CExpr::Bin(
            BinOp::Mul,
            Box::new(add(CExpr::var("x"), CExpr::var("n"))),
            Box::new(CExpr::var("y")),
        );
        let Lowered::Row(rx) = lower(&e, &layout, &globals()).unwrap() else {
            panic!("structural");
        };
        // The RowExpr over the row tuple agrees with the reference
        // evaluator over the same bindings.
        let row = Value::tuple(vec![Value::Long(5), Value::Long(3)]);
        let mut env = globals().as_ref().clone();
        env.insert("x".into(), Value::Long(5));
        env.insert("y".into(), Value::Long(3));
        assert_eq!(rx.eval(&row).unwrap(), diablo_comp::eval(&e, &env).unwrap());
        assert_eq!(rx.eval(&row).unwrap(), Value::Long(45));
    }

    #[test]
    fn records_aggs_and_slow_paths_do_not_convert() {
        let layout = Layout::new(vec!["vs".into()]);
        let agg = sum(CExpr::var("vs"));
        let rec = CExpr::Record(vec![("a".into(), CExpr::var("vs"))]);
        // An agg buried in a tuple makes the whole tuple opaque.
        let t = CExpr::Tuple(vec![CExpr::var("vs"), agg.clone()]);
        for e in [agg, rec, t] {
            let r = lower(&e, &layout, &globals()).unwrap();
            assert!(matches!(r, Lowered::Opaque { .. }), "{e:?}");
        }
    }

    #[test]
    fn slow_path_evaluates_nested_comprehensions() {
        // { x + b + n | b ← bag } where bag and x are columns and the
        // column `n` shadows the global.
        let layout = Layout::new(vec!["bag".into(), "x".into(), "n".into()]);
        let comp = CExpr::Comp(Comprehension::new(
            add(add(CExpr::var("x"), CExpr::var("b")), CExpr::var("n")),
            vec![Qual::Gen(Pattern::var("b"), CExpr::var("bag"))],
        ));
        let r = lower(&comp, &layout, &globals()).unwrap();
        assert!(matches!(r, Lowered::Opaque { .. }));
        let row = Value::tuple(vec![
            Value::bag(vec![Value::Long(1), Value::Long(2)]),
            Value::Long(10),
            Value::Long(100),
        ]);
        assert_eq!(
            r.eval(&row).unwrap(),
            Value::bag(vec![Value::Long(111), Value::Long(112)])
        );
    }
}
