//! §5 blocks for dense matrix comprehensions.
//!
//! Two shapes of target code run on packed blocks instead of a join of
//! element rows (`Dataset::block_zip`, `Dataset::block_contract`):
//!
//! * **element-wise**: two matrix generators `((i, j), x) ← M` and
//!   `((i', j'), y) ← N` joined on both indices, head `((i, j), x op y)`
//!   with `op` one of `+`, `-`, `*` (Matrix Addition);
//! * **contraction**: the same two generators joined on one index and
//!   grouped by the two free ones, head `(k, +/v)` with `v = x * y`
//!   (Matrix Multiplication).
//!
//! Every other qualifier must be an `inRange` bound on an index, with
//! bounds the driver can evaluate. Each index must be bounded, every
//! element of both operands must have long indices (the join would also
//! meet an index `3.0` with `3`, and keep its type in the result), and
//! both operands must hold at least [`MIN_DENSITY`] of the elements their
//! bounds allow — all checked from what is known of the operands' rows
//! before any stage runs. An operand still pending (a lazy binding, whose
//! rows no stage has counted) is forced for the check once every operand
//! whose rows are known has passed it: its blocks pay for that stage.
//! The plan trace names the path taken with the densities it measured, or
//! why the rule declined a statement of its shape.

use std::collections::HashMap;

use diablo_comp::ir::{CExpr, Comprehension, Pattern, Qual};
use diablo_comp::{eval_in, Env};
use diablo_dataflow::{
    BlockContract, BlockZip, Dataset, ElementCols, IndexRange, RowExpr, Shape, BLOCK_SIDE,
};
use diablo_runtime::{BinOp, Func, Value};

use crate::{Binding, Result, Session};

/// The least share of the elements its `inRange` bounds allow that each
/// operand must hold for a statement to run on blocks: below it, a block
/// would carry more absent cells than elements.
pub const MIN_DENSITY: f64 = 0.5;

/// One matrix generator `((i, j), x) ← M`.
struct Operand<'c> {
    name: &'c str,
    pattern: &'c Pattern,
    /// The row index, column index and value variables.
    vars: [&'c str; 3],
}

impl<'c> Operand<'c> {
    fn of(q: &'c Qual, sess: &Session) -> Option<Operand<'c>> {
        let Qual::Gen(pattern, CExpr::Var(name)) = q else {
            return None;
        };
        let var = |p: &'c Pattern| match p {
            Pattern::Var(v) => Some(v.as_str()),
            _ => None,
        };
        let Pattern::Tuple(kv) = pattern else {
            return None;
        };
        let [key, x] = kv.as_slice() else {
            return None;
        };
        let Pattern::Tuple(ij) = key else {
            return None;
        };
        let [i, j] = ij.as_slice() else { return None };
        sess.is_dataset(name).then_some(())?;
        Some(Operand {
            name,
            pattern,
            vars: [var(i)?, var(j)?, var(x)?],
        })
    }

    /// The operand's rows as `(i, j, x)` tuples: the pattern unpacked as
    /// the scan of any generator does, with its mismatch error.
    fn rows(&self, sess: &Session) -> Result<Dataset> {
        let data = sess.dataset(self.name).expect("a dataset operand");
        data.map_expr(RowExpr::Unpack {
            shape: Shape::Tuple(vec![
                Shape::Tuple(vec![Shape::Bind, Shape::Bind]),
                Shape::Bind,
            ]),
            mismatch: format!("pattern {:?} does not match source row", self.pattern).into(),
        })
    }
}

/// What a matched statement computes.
enum Kind {
    /// `x op y` at every index both hold.
    Zip(BinOp),
    /// `+/ x × y` over the index the operands are joined on: `M`'s and
    /// `N`'s index variable positions (0 for `i`, 1 for `j`).
    Contract { m: usize, n: usize },
}

/// A statement of one of the two shapes, read off the comprehension.
struct Matched<'c> {
    m: Operand<'c>,
    n: Operand<'c>,
    kind: Kind,
    /// Index variable equalities between the operands: `(M pos, N pos)`.
    joined: Vec<(usize, usize)>,
    /// `inRange(v, lo, hi)` bounds by index variable.
    bounds: Vec<(&'c str, &'c CExpr, &'c CExpr)>,
    /// The result key's two index variables.
    key: [&'c str; 2],
}

/// Runs `c` on blocks when it has one of the two shapes and passes the
/// density rule; `None` runs it as it is.
pub(crate) fn run(c: &Comprehension, sess: &Session) -> Result<Option<Dataset>> {
    let Some(matched) = recognize(c, sess) else {
        return Ok(None);
    };
    match plan(&matched, sess)? {
        Ok(data) => Ok(Some(data)),
        Err(why) => {
            sess.context()
                .plan_note(format!("block path declined: {why}"));
            Ok(None)
        }
    }
}

fn recognize<'c>(c: &'c Comprehension, sess: &Session) -> Option<Matched<'c>> {
    let m = Operand::of(c.quals.first()?, sess)?;
    let gens: Vec<usize> = (1..c.quals.len())
        .filter(|&q| matches!(c.quals[q], Qual::Gen(..)))
        .collect();
    let [g] = gens.as_slice() else { return None };
    let n = Operand::of(&c.quals[*g], sess)?;
    let mut names: Vec<&str> = m.vars.iter().chain(&n.vars).copied().collect();
    names.sort_unstable();
    names.dedup();
    if names.len() != 6 {
        return None;
    }
    let m_pos = |v: &str| m.vars[..2].iter().position(|&u| u == v);
    let n_pos = |v: &str| n.vars[..2].iter().position(|&u| u == v);
    let is_index = |v: &str| m_pos(v).is_some() || n_pos(v).is_some();
    let var = |e: &'c CExpr| match e {
        CExpr::Var(v) => Some(v.as_str()),
        _ => None,
    };

    let mut joined = Vec::new();
    let mut bounds = Vec::new();
    let mut key_let: Option<(&str, [&str; 2])> = None;
    let mut product: Option<&str> = None;
    let mut group: Option<(&str, &str)> = None;
    for (q, qual) in c.quals.iter().enumerate().skip(1) {
        if group.is_some() {
            return None; // a group-by must come last
        }
        match qual {
            Qual::Gen(..) if q == *g => {}
            Qual::Pred(CExpr::Call(Func::InRange, args)) => {
                let [v, lo, hi] = args.as_slice() else {
                    return None;
                };
                let v = var(v).filter(|v| is_index(v))?;
                // Bounds the driver evaluates: over scalars only.
                let closed = |e: &CExpr| {
                    e.free_vars()
                        .iter()
                        .all(|f| matches!(sess.binding(f), Some(Binding::Scalar(_))))
                };
                (closed(lo) && closed(hi)).then_some(())?;
                bounds.push((v, lo, hi));
            }
            Qual::Pred(CExpr::Bin(BinOp::Eq, a, b)) => {
                let (a, b) = (var(a)?, var(b)?);
                match (m_pos(a), n_pos(b), m_pos(b), n_pos(a)) {
                    (Some(p), Some(r), _, _) | (_, _, Some(p), Some(r)) => joined.push((p, r)),
                    _ => return None,
                }
            }
            Qual::Let(Pattern::Var(k), CExpr::Tuple(fields)) if key_let.is_none() => {
                let [p, r] = fields.as_slice() else {
                    return None;
                };
                let (p, r) = (var(p)?, var(r)?);
                (is_index(p) && is_index(r)).then_some(())?;
                key_let = Some((k, [p, r]));
            }
            Qual::Let(Pattern::Var(v), CExpr::Bin(BinOp::Mul, a, b)) if product.is_none() => {
                let xy = [var(a)?, var(b)?];
                (xy == [m.vars[2], n.vars[2]] || xy == [n.vars[2], m.vars[2]]).then_some(())?;
                product = Some(v);
            }
            Qual::GroupBy(Pattern::Var(p), CExpr::Var(k)) => group = Some((p, k)),
            _ => return None,
        }
    }
    let CExpr::Tuple(head) = c.head.as_ref() else {
        return None;
    };
    let [head_key, head_value] = head.as_slice() else {
        return None;
    };
    let (kind, key) = match (group, product) {
        (None, None) => {
            let key = match (head_key, key_let) {
                (CExpr::Var(k), Some((name, key))) if k == name => key,
                (CExpr::Tuple(fields), None) => match fields.as_slice() {
                    [p, r] => [var(p)?, var(r)?],
                    _ => return None,
                },
                _ => return None,
            };
            let CExpr::Bin(op @ (BinOp::Add | BinOp::Sub | BinOp::Mul), x, y) = head_value else {
                return None;
            };
            ([var(x)?, var(y)?] == [m.vars[2], n.vars[2]]).then_some(())?;
            (Kind::Zip(*op), key)
        }
        (Some((g_var, g_key)), Some(v)) => {
            let (k, key) = key_let?;
            (g_key == k).then_some(())?;
            (matches!(head_key, CExpr::Var(h) if h == g_var)).then_some(())?;
            let CExpr::Agg(agg, arg) = head_value else {
                return None;
            };
            (agg.op == BinOp::Add && var(arg)? == v).then_some(())?;
            let [(m_at, n_at)] = joined.as_slice() else {
                return None;
            };
            let kind = Kind::Contract { m: *m_at, n: *n_at };
            (kind, key)
        }
        _ => return None,
    };
    let ok = match kind {
        // Both indices joined, one to one.
        Kind::Zip(_) => {
            joined.len() == 2 && joined[0].0 != joined[1].0 && joined[0].1 != joined[1].1
        }
        Kind::Contract { .. } => true,
    };
    ok.then_some(Matched {
        m,
        n,
        kind,
        joined,
        bounds,
        key,
    })
}

/// The index classes of a matched statement: each variable's class
/// (joined indices share one), and each class's bounds.
struct Classes<'c> {
    of: HashMap<&'c str, usize>,
    ranges: Vec<IndexRange>,
}

impl Classes<'_> {
    fn range(&self, v: &str) -> IndexRange {
        self.ranges[self.of[v]]
    }

    fn class(&self, v: &str) -> usize {
        self.of[v]
    }
}

/// The classes of `m`'s and `n`'s indices with their evaluated bounds, or
/// why the block path declines.
fn classes<'c>(matched: &Matched<'c>, sess: &Session) -> std::result::Result<Classes<'c>, String> {
    let (m, n) = (&matched.m, &matched.n);
    let mut of: HashMap<&str, usize> = HashMap::new();
    for (c, v) in m.vars[..2].iter().enumerate() {
        of.insert(v, c);
    }
    let mut next = 2;
    for (r, v) in n.vars[..2].iter().enumerate() {
        let class = match matched.joined.iter().find(|(_, nr)| *nr == r) {
            Some(&(mp, _)) => mp,
            None => {
                next += 1;
                next - 1
            }
        };
        of.insert(v, class);
    }
    let mut ranges = vec![
        IndexRange {
            lo: i64::MIN,
            hi: i64::MAX
        };
        next
    ];
    let mut bounded = vec![false; next];
    for &(v, lo, hi) in &matched.bounds {
        // Longs below 2^53 compare in `inRange`'s doubles exactly as they
        // do as longs. A bound that fails is left to the join to raise.
        let bound = |e: &CExpr| match eval_in(e, &Env::new(), sess) {
            Ok(Value::Long(b)) if b.unsigned_abs() < 1 << 53 => Some(b),
            _ => None,
        };
        let (Some(lo), Some(hi)) = (bound(lo), bound(hi)) else {
            return Err(format!("a bound of `{v}` is not a long below 2^53"));
        };
        let r = &mut ranges[of[v]];
        r.lo = r.lo.max(lo);
        r.hi = r.hi.min(hi);
        bounded[of[v]] = true;
    }
    let vars = m.vars[..2].iter().chain(&n.vars[..2]);
    if let Some(v) = vars.clone().find(|v| !bounded[of[**v]]) {
        return Err(format!("index `{v}` has no inRange bound"));
    }
    if let Some(v) = vars
        .clone()
        .find(|v| ranges[of[**v]].hi < ranges[of[**v]].lo)
    {
        return Err(format!("the range of `{v}` is empty"));
    }
    Ok(Classes { of, ranges })
}

/// The share of `op`'s area, `rows × cols`, its rows fill, or why the
/// block path cannot take it: it is no array, or an index is not a long.
/// A pending operand is forced to count its rows.
fn density(
    op: &Operand,
    sess: &Session,
    rows: IndexRange,
    cols: IndexRange,
) -> Result<std::result::Result<f64, String>> {
    let Some(data) = sess.dataset(op.name) else {
        return Ok(Err(format!("`{}` is not an array", op.name)));
    };
    let known = match data.rows_known() {
        Some(known) => known,
        None => data
            .materialize()?
            .rows_known()
            .expect("a forced dataset's rows are known"),
    };
    if !known.long_indices {
        return Ok(Err(format!("an index of `{}` is not a long", op.name)));
    }
    let side = |r: IndexRange| (i128::from(r.hi) - i128::from(r.lo) + 1) as f64;
    Ok(Ok(known.len as f64 / (side(rows) * side(cols))))
}

/// Builds the block plan of a matched statement, or says why not.
fn plan(matched: &Matched, sess: &Session) -> Result<std::result::Result<Dataset, String>> {
    let classes = match classes(matched, sess) {
        Ok(c) => c,
        Err(why) => return Ok(Err(why)),
    };
    let (m, n) = (&matched.m, &matched.n);
    // Operands whose rows are known first: a sparse one declines the
    // statement before a pending one is forced.
    let pending = |op: &Operand| {
        sess.dataset(op.name)
            .is_some_and(|d| d.rows_known().is_none())
    };
    let mut order = [(0, m), (1, n)];
    order.sort_by_key(|(_, op)| pending(op));
    let mut densities = [String::new(), String::new()];
    for (i, op) in order {
        let (rows, cols) = (classes.range(op.vars[0]), classes.range(op.vars[1]));
        let d = match density(op, sess, rows, cols)? {
            Ok(d) => d,
            Err(why) => return Ok(Err(why)),
        };
        if d < MIN_DENSITY {
            return Ok(Err(format!(
                "density {} {d:.2} < {MIN_DENSITY:.2}",
                op.name
            )));
        }
        densities[i] = format!("{} {d:.2}", op.name);
    }
    let at = |row: usize, col: usize| ElementCols { row, col, value: 2 };
    let [p, r] = matched.key.map(|v| classes.class(v));
    let note = |what: &str| {
        sess.context().plan_note(format!(
            "{what}: {BLOCK_SIDE}×{BLOCK_SIDE} blocks, density {}",
            densities.join(", ")
        ))
    };
    let data = match matched.kind {
        Kind::Zip(op) => {
            let (mi, mj) = (classes.class(m.vars[0]), classes.class(m.vars[1]));
            if (p, r) != (mi, mj) {
                return Ok(Err(format!(
                    "the key is not `({}, {})`",
                    m.vars[0], m.vars[1]
                )));
            }
            // N's column in M's row class is its row index here.
            let right = if classes.class(n.vars[0]) == mi {
                at(0, 1)
            } else {
                at(1, 0)
            };
            let zip = BlockZip {
                left: at(0, 1),
                right,
                rows: classes.range(m.vars[0]),
                cols: classes.range(m.vars[1]),
                op,
            };
            note("block zip");
            m.rows(sess)?.block_zip(&n.rows(sess)?, zip)?
        }
        Kind::Contract { m: mc, n: nc } => {
            let (free_m, free_n) = (1 - mc, 1 - nc);
            let (a, b) = (m.vars[free_m], n.vars[free_n]);
            if (p, r) != (classes.class(a), classes.class(b)) {
                return Ok(Err(format!("the key is not `({a}, {b})`")));
            }
            let spec = BlockContract {
                left: at(free_m, mc),
                right: at(nc, free_n),
                rows: classes.range(m.vars[free_m]),
                inner: classes.range(m.vars[mc]),
                cols: classes.range(n.vars[free_n]),
            };
            note("block contraction");
            m.rows(sess)?.block_contract(&n.rows(sess)?, spec)?
        }
    };
    Ok(Ok(data))
}
