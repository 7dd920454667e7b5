//! What the pipeline builder hands the engine as data instead of
//! closures, decided in one place for the engine (the exec crate's
//! `run_comp`) and for the lints that forecast what the engine will do.
//!
//! **Aggregate pushdown through a `group by`.** After `group by p : k`
//! every variable bound before it and not in `p` is lifted to a bag. When
//! the rest of the comprehension only ever *aggregates* those bags with
//! monoids (`+/v`, `max/w`, …), the group-by never has to build them: it
//! can shuffle `(k, (v, w))` and fold each field with its monoid —
//! `reduceByKey` instead of `groupByKey` ([`push_down_aggs`]).
//!
//! **Join keys of a second generator.** A generator over a dataset that
//! follows the first one is an equi-join when equalities link its pattern
//! to the variables bound so far, and a broadcast cross when none does
//! ([`join_keys`]).

use std::collections::HashSet;

use diablo_runtime::{AggOp, BinOp};

use crate::ir::{CExpr, Qual};

/// One equality linking the rows bound so far to a new generator's
/// pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinKey {
    /// The index of the equality among the qualifiers: the join consumes
    /// it, so it must not run as a filter as well.
    pub pred: usize,
    /// The side over the variables bound so far.
    pub left: CExpr,
    /// The side over the new generator's pattern variables.
    pub right: CExpr,
}

/// Scans the predicates following generator `gen_idx` (up to the next
/// generator, let or group-by) for equalities with one side over
/// `row_vars` — the variables bound so far — and the other over
/// `pat_vars`, the generator's pattern variables. Variables `is_global`
/// accepts (scalars of the enclosing program) may appear on either side.
pub fn join_keys(
    quals: &[Qual],
    gen_idx: usize,
    row_vars: &HashSet<String>,
    pat_vars: &HashSet<String>,
    is_global: &dyn Fn(&str) -> bool,
) -> Vec<JoinKey> {
    // true: row side; false: pattern side.
    let side = |e: &CExpr| -> Option<bool> {
        let fv = e.free_vars();
        let local: Vec<&String> = fv.iter().filter(|v| !is_global(v)).collect();
        if local.is_empty() {
            None
        } else if local.iter().all(|v| row_vars.contains(*v)) {
            Some(true)
        } else if local.iter().all(|v| pat_vars.contains(*v)) {
            Some(false)
        } else {
            None
        }
    };
    let mut keys = Vec::new();
    for (pred, q) in quals.iter().enumerate().skip(gen_idx + 1) {
        match q {
            Qual::Pred(CExpr::Bin(BinOp::Eq, a, b)) => {
                let (left, right) = match (side(a), side(b)) {
                    (Some(true), Some(false)) => (a, b),
                    (Some(false), Some(true)) => (b, a),
                    _ => continue,
                };
                keys.push(JoinKey {
                    pred,
                    left: (**left).clone(),
                    right: (**right).clone(),
                });
            }
            Qual::Pred(_) => {}
            _ => break, // next generator / let / group-by ends the window
        }
    }
    keys
}

/// A group-by whose lifted variables are all consumed by monoid
/// aggregations.
#[derive(Debug, Clone, PartialEq)]
pub struct Pushdown {
    /// The distinct aggregations `⊕/v`, in first-use order: the `i`-th is
    /// available to the rewritten tail as the variable [`agg_col_name`]`(i)`.
    pub aggs: Vec<(AggOp, String)>,
    /// The qualifiers after the group-by, over the aggregated columns.
    pub tail: Vec<Qual>,
    /// The head, over the aggregated columns.
    pub head: CExpr,
}

/// Rewrites what follows a group-by — its `tail` qualifiers and the
/// `head` — to read pre-aggregated columns instead of aggregating the
/// `lifted` bags. `None` when a lifted variable is used outside such an
/// aggregation, which forces the general groupByKey.
pub fn push_down_aggs(lifted: &HashSet<String>, tail: &[Qual], head: &CExpr) -> Option<Pushdown> {
    let mut aggs = Vec::new();
    let tail = tail
        .iter()
        .map(|q| {
            let mut rw = |e: &CExpr| rewrite_aggs(e, lifted, &mut aggs);
            Some(match q {
                Qual::Gen(p, e) => Qual::Gen(p.clone(), rw(e)?),
                Qual::Let(p, e) => Qual::Let(p.clone(), rw(e)?),
                Qual::Pred(e) => Qual::Pred(rw(e)?),
                Qual::GroupBy(p, e) => Qual::GroupBy(p.clone(), rw(e)?),
            })
        })
        .collect::<Option<Vec<Qual>>>()?;
    let head = rewrite_aggs(head, lifted, &mut aggs)?;
    Some(Pushdown { aggs, tail, head })
}

/// Rewrites an expression, replacing each aggregation `⊕/v` of a lifted
/// column with a reference to a pre-aggregated column. Returns `None` if
/// the expression uses a lifted column outside such an aggregation (which
/// forces the groupByKey fallback).
fn rewrite_aggs(
    e: &CExpr,
    lifted: &HashSet<String>,
    found: &mut Vec<(AggOp, String)>,
) -> Option<CExpr> {
    match e {
        CExpr::Agg(op, inner) => {
            if let CExpr::Var(v) = inner.as_ref() {
                if lifted.contains(v) {
                    let idx = found
                        .iter()
                        .position(|(o, n)| o == op && n == v)
                        .unwrap_or_else(|| {
                            found.push((*op, v.clone()));
                            found.len() - 1
                        });
                    return Some(CExpr::Var(agg_col_name(idx)));
                }
            }
            let inner = rewrite_aggs(inner, lifted, found)?;
            Some(CExpr::Agg(*op, Box::new(inner)))
        }
        CExpr::Var(v) => {
            if lifted.contains(v) {
                None // bare use of a lifted variable — cannot push down
            } else {
                Some(e.clone())
            }
        }
        CExpr::Const(_) => Some(e.clone()),
        CExpr::Bin(op, a, b) => Some(CExpr::Bin(
            *op,
            Box::new(rewrite_aggs(a, lifted, found)?),
            Box::new(rewrite_aggs(b, lifted, found)?),
        )),
        CExpr::Un(op, a) => Some(CExpr::Un(*op, Box::new(rewrite_aggs(a, lifted, found)?))),
        CExpr::Call(f, args) => Some(CExpr::Call(
            *f,
            args.iter()
                .map(|a| rewrite_aggs(a, lifted, found))
                .collect::<Option<Vec<_>>>()?,
        )),
        CExpr::Tuple(fs) => Some(CExpr::Tuple(
            fs.iter()
                .map(|f| rewrite_aggs(f, lifted, found))
                .collect::<Option<Vec<_>>>()?,
        )),
        CExpr::Record(fs) => Some(CExpr::Record(
            fs.iter()
                .map(|(n, f)| Some((n.clone(), rewrite_aggs(f, lifted, found)?)))
                .collect::<Option<Vec<_>>>()?,
        )),
        CExpr::Proj(inner, f) => Some(CExpr::Proj(
            Box::new(rewrite_aggs(inner, lifted, found)?),
            f.clone(),
        )),
        // Nested comprehensions might close over lifted variables; checking
        // precisely is possible but not worth it — fall back.
        CExpr::Comp(_) | CExpr::Merge { .. } | CExpr::Range(_, _) => {
            let fv = e.free_vars();
            if fv.iter().any(|v| lifted.contains(v)) {
                None
            } else {
                Some(e.clone())
            }
        }
    }
}

/// The synthetic column name for the `idx`-th pushed-down aggregation.
pub fn agg_col_name(idx: usize) -> String {
    format!("$agg{idx}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use diablo_runtime::BinOp;

    #[test]
    fn rewrite_aggs_finds_pushdown() {
        // (k, +/v) over lifted {v} → (k, $agg0)
        let lifted: HashSet<String> = ["v".to_string()].into();
        let e = CExpr::pair(
            CExpr::var("k"),
            CExpr::Agg(AggOp::new(BinOp::Add).unwrap(), Box::new(CExpr::var("v"))),
        );
        let mut found = Vec::new();
        let out = rewrite_aggs(&e, &lifted, &mut found).unwrap();
        assert_eq!(
            found,
            vec![(AggOp::new(BinOp::Add).unwrap(), "v".to_string())]
        );
        assert_eq!(
            out,
            CExpr::pair(CExpr::var("k"), CExpr::var(agg_col_name(0)))
        );
    }

    #[test]
    fn rewrite_aggs_rejects_bare_lifted_use() {
        let lifted: HashSet<String> = ["v".to_string()].into();
        let mut found = Vec::new();
        assert!(rewrite_aggs(&CExpr::var("v"), &lifted, &mut found).is_none());
    }

    #[test]
    fn rewrite_aggs_shares_equal_aggregations() {
        let lifted: HashSet<String> = ["v".to_string()].into();
        let agg = CExpr::Agg(AggOp::new(BinOp::Add).unwrap(), Box::new(CExpr::var("v")));
        let e = CExpr::Bin(BinOp::Add, Box::new(agg.clone()), Box::new(agg));
        let mut found = Vec::new();
        let out = rewrite_aggs(&e, &lifted, &mut found).unwrap();
        assert_eq!(found.len(), 1, "same aggregation shares one column");
        assert_eq!(
            out,
            CExpr::Bin(
                BinOp::Add,
                Box::new(CExpr::var(agg_col_name(0))),
                Box::new(CExpr::var(agg_col_name(0)))
            )
        );
    }
}
