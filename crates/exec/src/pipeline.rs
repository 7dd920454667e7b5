//! Compiles a comprehension into a pipeline of engine stages.
//!
//! The pipeline carries *environment rows*: each row is a tuple of the
//! values of the comprehension variables bound so far, with a [`Layout`]
//! mapping variable names to tuple positions. Qualifiers become stages:
//!
//! | qualifier                        | stage                              |
//! |----------------------------------|------------------------------------|
//! | driver prefix (before the source)| `Dataset::cross` over its bindings |
//! | first `p ← Array`                | partitioned scan                   |
//! | later `p ← Array` + `x == e(p)`  | both keys and the pattern's shape  |
//! |                                  | as data (predicates consumed): at  |
//! |                                  | most `BUILD_CAP` rows,             |
//! |                                  | `Dataset::join_probe` — one shared |
//! |                                  | key table, probed by a transparent |
//! |                                  | step; more, `Dataset::join_on` —   |
//! |                                  | two transparent scatters, then a   |
//! |                                  | build–probe per bucket             |
//! | later `p ← Array` (no link)      | `Dataset::cross`: the same probe   |
//! |                                  | on the constant key `()` over the  |
//! |                                  | broadcast rows                     |
//! | `p ← range(lo, hi)`              | range source / per-row expansion   |
//! | `let p = e`                      | map (extend row)                   |
//! | condition                        | filter                             |
//! | `p ← {(k, d)} ⊳[⊕] {… group by k}`| fold per row from `d` (a spliced   |
//! | (`diablo_core::splice_arrays`)   | array's range default): the row's  |
//! |                                  | expansion folded inside the scan   |
//! |                                  | (`Dataset::fold_rows`), no shuffle |
//! | `group by` (aggregations only)   | reduceByKey with map-side combine  |
//! | `group by` (general)             | groupByKey (bags in rows)          |
//! | head                             | final map                          |
//!
//! Every expression a stage evaluates is lowered once per stage
//! ([`crate::rexpr::lower`]): to the engine's `RowExpr` when it has that
//! form, so the step stays transparent and can run columnar; otherwise to
//! an opaque step in which the reference evaluator runs it per row.
//!
//! A comprehension is split once, at its first source
//! ([`Comprehension::first_source`]). Without one, the reference evaluator
//! runs all of it on the driver, in the session's scope, and the rows are
//! parallelized as a literal dataset. The qualifiers before the source, the
//! driver prefix, are evaluated the same way as one comprehension of a
//! tuple of their variables; every source row then meets every one of
//! those bindings in a transparent cross, source rows outermost, and an
//! empty prefix makes an empty result.

use std::collections::HashSet;
use std::sync::Arc;

use diablo_comp::ir::{CExpr, Comprehension, Pattern, Qual};
use diablo_comp::pushdown::{agg_col_name, join_keys, push_down_aggs, JoinKey, Pushdown};
use diablo_comp::{eval_comp_in, eval_in, Env};
use diablo_dataflow::{range_len, Dataset, JoinOn, RowExpr, Shape};
use diablo_runtime::{AggOp, RuntimeError, Value};

use crate::rexpr::{lower, Layout, Lowered};
use crate::{Result, Session};

/// The most rows a join's generator side may hold to be built into one
/// key table that every worker probes; a larger side is scattered with the
/// pipeline's rows. The choice reads the side's exact row count only, so
/// a program's plan — and the order in which its double sums combine — is
/// the same under every budget, worker count, layout and tile width.
///
/// Measured on 2 vCPUs (`Context::new(2, 4)`, release build, median of 21
/// runs): joining 65 536 `(i, i)` long pairs with as many `(j, j)` on
/// `i == j`, counted, takes 5.4 ms with the right side built and probed
/// (its build on the driver included) and 10.6 ms partitioned. The cap
/// bounds the driver's serial build and the table every worker shares.
const BUILD_CAP: usize = 1 << 16;

/// Runs a comprehension, producing a dataset of its head values.
pub fn run_comp(c: &Comprehension, sess: &Session) -> Result<Dataset> {
    if let Some(data) = crate::blocks::run(c, sess)? {
        return Ok(data);
    }
    if let Some(data) = range_fill(c, sess)? {
        return Ok(data);
    }
    let ctx = sess.context();
    let Some(first) = c.first_source(&|v| sess.is_dataset(v)) else {
        return Ok(ctx.from_vec(eval_comp_in(c, &Env::new(), sess)?));
    };
    let Qual::Gen(p, dom) = &c.quals[first] else {
        unreachable!("a first source is a generator")
    };
    // The driver prefix, one tuple of its variables per binding; a
    // variable the source pattern rebinds is shadowed.
    let mut prefix: Vec<String> = Vec::new();
    for q in &c.quals[..first] {
        q.each_bound(&mut |v| {
            if !p.binds(v) && !prefix.iter().any(|u| u == v) {
                prefix.push(v.to_string());
            }
        });
    }
    let bindings = if first == 0 {
        None
    } else {
        let vars = CExpr::Tuple(prefix.iter().map(CExpr::var).collect());
        let prefix_comp = Comprehension::new(vars, c.quals[..first].to_vec());
        let rows = eval_comp_in(&prefix_comp, &Env::new(), sess)?;
        if rows.is_empty() {
            return Ok(ctx.empty());
        }
        Some(rows)
    };
    let mut pipe = match classify(dom, sess)? {
        GenSource::Data(data) => Pipe::source(data, p)?,
        GenSource::Range(lo, hi) => {
            let bound = |e: &CExpr| {
                eval_in(e, &Env::new(), sess)?
                    .as_long()
                    .ok_or_else(|| RuntimeError::new("range bound must be long"))
            };
            Pipe::source(ctx.range(bound(&lo)?, bound(&hi)?)?, p)?
        }
        GenSource::Local => unreachable!("a first source is read by the engine"),
    };
    if let Some(rows) = bindings {
        // Every source row meets every driver binding, in that order.
        let vars = Pattern::Tuple(prefix.into_iter().map(Pattern::Var).collect());
        pipe.cross(Arc::new(rows), &vars, "driver binding")?;
    }

    let globals = Arc::new(sess.globals());
    let mut consumed: HashSet<usize> = HashSet::new();
    // Remaining qualifiers / head may be rewritten by aggregate pushdown.
    let mut quals: Vec<Qual> = c.quals.clone();
    let mut head: CExpr = (*c.head).clone();

    let mut i = first + 1;
    while i < quals.len() {
        if consumed.contains(&i) {
            i += 1;
            continue;
        }
        match quals[i].clone() {
            Qual::GroupBy(p, key) => {
                let (next, rewritten) =
                    pipe.group_by(&p, &key, &quals[i + 1..], &head, &globals)?;
                pipe = next;
                if let Some((new_tail, new_head)) = rewritten {
                    // Aggregate pushdown rewrote the remaining program.
                    quals.truncate(i + 1);
                    quals.extend(new_tail);
                    head = new_head;
                }
            }
            Qual::Gen(p, dom) => match merged_fold(&dom, &pipe.layout, &globals) {
                Some(m) => pipe.fold_merged(&p, m, &globals, sess)?,
                None => pipe.qual(&quals, i, &mut consumed, &globals, sess, false)?,
            },
            _ => pipe.qual(&quals, i, &mut consumed, &globals, sess, false)?,
        }
        i += 1;
    }
    pipe.finish(&head, &globals)
}

/// A range fill `{ (i, d) | i <- range(lo, hi), let … }`, as
/// [`Comprehension::range_fill`] reads it, as the engine's range fill
/// ([`Dataset::range_fill`]) when `d` reads only scalars: one value,
/// evaluated here, where the statement runs. `None` for any other
/// comprehension, for an empty range, and for a value that fails to
/// evaluate or has no `RowExpr` form, so the pipeline raises what it
/// always raised.
fn range_fill(c: &Comprehension, sess: &Session) -> Result<Option<Dataset>> {
    let Some((lo, hi, value)) = c.range_fill() else {
        return Ok(None);
    };
    let scalar = |v: &String| matches!(sess.binding(v), Some(crate::Binding::Scalar(_)));
    if !value.free_vars().iter().all(scalar) {
        return Ok(None);
    }
    let bound = |e: &CExpr| {
        eval_in(e, &Env::new(), sess)?
            .as_long()
            .ok_or_else(|| RuntimeError::new("range bound must be long"))
    };
    let (lo, hi) = (bound(lo)?, bound(hi)?);
    if hi < lo {
        return Ok(None);
    }
    let globals = Arc::new(sess.globals());
    let Ok(Lowered::Row(rx)) = lower(&value, &Layout::new(Vec::new()), &globals) else {
        return Ok(None);
    };
    match rx.eval(&Value::Unit) {
        Ok(v) => Dataset::range_fill(sess.context().clone(), lo, hi, v).map(Some),
        Err(_) => Ok(None),
    }
}

/// A generator domain `{(k, d)} ⊳[⊕] { (g, ⊕/w) | q…, group by g : k }`
/// whose key `k` and start `d` read only the row bound so far and have a
/// `RowExpr` form: one entry of a range fill merged with the fold of the
/// row's own expansion `q…`, as splicing an array into its one reader
/// writes it (`diablo_core::splice_arrays`).
struct MergedFold<'c> {
    key: &'c CExpr,
    init: &'c CExpr,
    inner: &'c [Qual],
    value: &'c str,
    op: AggOp,
}

fn merged_fold<'c>(dom: &'c CExpr, layout: &Layout, globals: &Env) -> Option<MergedFold<'c>> {
    let CExpr::Merge {
        left,
        right,
        combine: Some(combine),
    } = dom
    else {
        return None;
    };
    let (CExpr::Comp(l), CExpr::Comp(r)) = (left.as_ref(), right.as_ref()) else {
        return None;
    };
    let (CExpr::Tuple(l_head), CExpr::Tuple(r_head)) = (l.head.as_ref(), r.head.as_ref()) else {
        return None;
    };
    let ([key, init], [CExpr::Var(g), CExpr::Agg(op, w)]) = (l_head.as_slice(), r_head.as_slice())
    else {
        return None;
    };
    let (CExpr::Var(value), Some((Qual::GroupBy(Pattern::Var(g2), k2), inner))) =
        (w.as_ref(), r.quals.split_last())
    else {
        return None;
    };
    let row_fixed = |e: &CExpr| {
        e.has_row_form()
            && e.free_vars()
                .iter()
                .all(|v| layout.index_of(v).is_some() || globals.contains_key(v))
    };
    let fits = l.quals.is_empty()
        && op.op == *combine
        && g == g2
        && k2 == key
        && row_fixed(key)
        && row_fixed(init)
        && !inner.iter().any(|q| matches!(q, Qual::GroupBy(..)));
    fits.then_some(MergedFold {
        key,
        init,
        inner,
        value,
        op: *op,
    })
}

/// Keeps the broadcast `items` of the generator `p ← …` at `i` that pass
/// the conditions right after it which read only `p`'s variables and the
/// globals, and marks those conditions consumed: a fold meets only the
/// items it keeps, so the test runs once per item instead of once per
/// row and item. Conditions stay in the chain when one fails to give a
/// boolean on some item, so that row raises the error it raises there.
fn keep_items(
    items: &mut Vec<Value>,
    p: &Pattern,
    quals: &[Qual],
    i: usize,
    consumed: &mut HashSet<usize>,
    globals: &Env,
) {
    let vars = p.var_list();
    let preds: Vec<usize> = (i + 1..quals.len())
        .take_while(|&k| matches!(quals[k], Qual::Pred(_)))
        .filter(|&k| {
            quals[k]
                .expr()
                .free_vars()
                .iter()
                .all(|v| vars.contains(v) || globals.contains_key(v))
        })
        .collect();
    if preds.is_empty() {
        return;
    }
    let mut keep = Vec::with_capacity(items.len());
    for item in items.iter() {
        let mut env = globals.clone();
        let mut bound = Vec::new();
        if !p.bind(item, &mut bound) {
            return;
        }
        env.extend(bound);
        let mut pass = true;
        for &k in &preds {
            match diablo_comp::eval(quals[k].expr(), &env).map(|b| b.as_bool()) {
                Ok(Some(b)) => pass &= b,
                _ => return,
            }
        }
        keep.push(pass);
    }
    let mut keep = keep.into_iter();
    items.retain(|_| keep.next().unwrap_or(true));
    consumed.extend(preds);
}

/// `e` lowered to its `RowExpr` form, which it must have.
fn lower_row(e: &CExpr, layout: &Layout, globals: &Arc<Env>) -> Result<RowExpr> {
    match lower(e, layout, globals)? {
        Lowered::Row(rx) => Ok(rx),
        Lowered::Opaque { .. } => Err(RuntimeError::new(format!(
            "`{}` has no row form",
            diablo_comp::pretty_cexpr(e)
        ))),
    }
}

enum GenSource {
    /// A distributed dataset (array variable or nested distributed comp).
    Data(Dataset),
    /// A for-loop iteration space.
    Range(CExpr, CExpr),
    /// Anything driver-side.
    Local,
}

fn classify(dom: &CExpr, sess: &Session) -> Result<GenSource> {
    if !dom.is_source_domain(&|v| sess.is_dataset(v)) {
        return Ok(GenSource::Local);
    }
    Ok(match dom {
        CExpr::Var(name) => GenSource::Data(sess.dataset(name).expect("a dataset").clone()),
        CExpr::Range(lo, hi) => GenSource::Range((**lo).clone(), (**hi).clone()),
        CExpr::Comp(inner) => GenSource::Data(run_comp(inner, sess)?),
        merge => GenSource::Data(sess.eval_collection(merge)?),
    })
}

/// A pipeline in flight: distributed env rows plus their layout.
struct Pipe {
    data: Dataset,
    layout: Layout,
}

impl Pipe {
    /// Starts a pipeline from a source: the env row is the source row
    /// destructured by the pattern, told to the engine as an expression so
    /// the scan stage stays columnar-eligible.
    fn source(data: Dataset, p: &Pattern) -> Result<Pipe> {
        let rows = data.map_expr(RowExpr::Unpack {
            shape: shape_of(p),
            mismatch: format!("pattern {p:?} does not match source row").into(),
        })?;
        Ok(Pipe {
            data: rows,
            layout: Layout::new(p.var_list()),
        })
    }

    /// Applies qualifier `i` of `quals`, a `let`, a condition or a
    /// generator: a generator over a dataset is joined through the
    /// equalities that follow it (`consumed` takes them) or crossed with
    /// its broadcast rows. Inside a fold per row (`in_fold`), a cross
    /// meets its rows in key order, the order a loop over the array scans
    /// them, and a keyed generator over [`BUILD_CAP`] rows is an error.
    fn qual(
        &mut self,
        quals: &[Qual],
        i: usize,
        consumed: &mut HashSet<usize>,
        globals: &Arc<Env>,
        sess: &Session,
        in_fold: bool,
    ) -> Result<()> {
        match &quals[i] {
            Qual::Let(p, e) => self.extend_let(p, e, globals),
            Qual::Pred(e) => self.filter(e, globals),
            Qual::Gen(p, dom) => match classify(dom, sess)? {
                GenSource::Data(data) => {
                    // Join detection: equality predicates between the
                    // current row variables and the new pattern.
                    let row_vars = self.layout.cols.iter().cloned().collect();
                    let pat_vars = p.var_list().into_iter().collect();
                    let keys =
                        join_keys(quals, i, &row_vars, &pat_vars, &|v| globals.contains_key(v));
                    consumed.extend(keys.iter().map(|k| k.pred));
                    if !keys.is_empty() {
                        return self.hash_join(&data, p, &keys, globals, in_fold);
                    }
                    let mut items = data.broadcast()?;
                    if in_fold {
                        let items = Arc::make_mut(&mut items);
                        items.sort();
                        keep_items(items, p, quals, i, consumed, globals);
                    }
                    self.cross(items, p, "broadcast")
                }
                GenSource::Range(lo, hi) => self.expand_range(p, &lo, &hi, globals),
                GenSource::Local => self.expand_bag(p, dom, globals),
            },
            Qual::GroupBy(..) => Err(RuntimeError::new("a group-by is not a narrow step")),
        }
    }

    /// Follows every row with the fold of its own expansion by `inner`
    /// ([`Dataset::fold_rows`]): the variable `value` folded with `op`,
    /// from the accumulator `init`, appended to the layout as one column.
    fn fold_rows(
        &mut self,
        inner: &[Qual],
        value: &str,
        op: AggOp,
        init: &CExpr,
        globals: &Arc<Env>,
        sess: &Session,
    ) -> Result<()> {
        let init = RowExpr::Tuple(vec![lower_row(init, &self.layout, globals)?]);
        // The expansion reads only the columns its qualifiers and value
        // mention.
        let mut read: HashSet<&str> = HashSet::from([value]);
        for q in inner {
            q.expr().each_free(&mut |v, _| {
                read.insert(v);
            });
        }
        let input: Vec<usize> = (0..self.layout.cols.len())
            .filter(|&k| read.contains(self.layout.cols[k].as_str()))
            .collect();
        let layout = Layout::new(input.iter().map(|&k| self.layout.cols[k].clone()).collect());
        self.data = self.data.fold_rows(
            input,
            |row| {
                let mut sub = Pipe { data: row, layout };
                let mut consumed = HashSet::new();
                for k in 0..inner.len() {
                    if !consumed.contains(&k) {
                        sub.qual(inner, k, &mut consumed, globals, sess, true)?;
                    }
                }
                let col = sub
                    .layout
                    .index_of(value)
                    .ok_or_else(|| RuntimeError::new(format!("missing column `{value}`")))?;
                Ok((sub.data, RowExpr::Tuple(vec![RowExpr::Col(col)])))
            },
            &[op],
            init,
        )?;
        let column = format!("$acc{}", self.layout.cols.len());
        self.layout.push(column);
        Ok(())
    }

    /// The generator `p ← {(k, d)} ⊳[⊕] {…}` of a spliced array
    /// ([`merged_fold`]) run as a fold per row from `d`, `p` binding `k`
    /// and the accumulator. Its expansion only crosses arrays
    /// (`diablo_core::splice_arrays` splices no other); a keyed side over
    /// [`BUILD_CAP`] rows would be an error.
    fn fold_merged(
        &mut self,
        p: &Pattern,
        m: MergedFold<'_>,
        globals: &Arc<Env>,
        sess: &Session,
    ) -> Result<()> {
        self.fold_rows(m.inner, m.value, m.op, m.init, globals, sess)?;
        self.data
            .context()
            .plan_note("range fill merged with a fold: folded per row (no shuffle)");
        let key = lower_row(m.key, &self.layout, globals)?;
        let acc = RowExpr::Col(self.layout.cols.len() - 1);
        self.bind_value(p, RowExpr::Tuple(vec![key, acc]))
    }

    /// Binds `p` to the value `rx`, as a transparent map appending the
    /// leaves `p` binds.
    fn bind_value(&mut self, p: &Pattern, rx: RowExpr) -> Result<()> {
        fn leaves(p: &Pattern, rx: RowExpr, out: &mut Vec<RowExpr>) {
            match (p, rx) {
                (Pattern::Var(_), rx) => out.push(rx),
                (Pattern::Wild, _) => {}
                (Pattern::Tuple(ps), RowExpr::Tuple(es)) if ps.len() == es.len() => {
                    ps.iter().zip(es).for_each(|(p, e)| leaves(p, e, out));
                }
                (Pattern::Tuple(ps), rx) => {
                    for (k, p) in ps.iter().enumerate() {
                        leaves(p, RowExpr::field(rx.clone(), format!("_{}", k + 1)), out);
                    }
                }
            }
        }
        let mut fields: Vec<RowExpr> = (0..self.layout.cols.len()).map(RowExpr::Col).collect();
        leaves(p, rx, &mut fields);
        self.data = self.data.map_expr(RowExpr::Tuple(fields))?;
        self.bind(p);
        Ok(())
    }

    /// `let p = e` as a map stage.
    fn extend_let(&mut self, p: &Pattern, e: &CExpr, globals: &Arc<Env>) -> Result<()> {
        // A single-variable let over an expression with a row form extends
        // the row tuple as one transparent expression the engine can
        // vectorize: `(c0, …, cn-1, e)`.
        let r = match (p, lower(e, &self.layout, globals)?) {
            (Pattern::Var(_), Lowered::Row(rx)) => {
                let mut fields: Vec<RowExpr> =
                    (0..self.layout.cols.len()).map(RowExpr::Col).collect();
                fields.push(rx);
                self.data = self.data.map_expr(RowExpr::Tuple(fields))?;
                self.bind(p);
                return Ok(());
            }
            (_, r) => r,
        };
        let p_owned = p.clone();
        let new_data = self.data.map_as("let", move |row| {
            let fields = row.as_tuple().expect("env row");
            let v = r.eval(row)?;
            let mut out = fields.to_vec();
            if !p_owned.bind_values(&v, &mut out) {
                return Err(RuntimeError::new(format!(
                    "let pattern {p_owned:?} mismatch on {v}"
                )));
            }
            Ok(Value::tuple(out))
        })?;
        self.data = new_data;
        self.bind(p);
        Ok(())
    }

    /// A condition as a filter stage.
    fn filter(&mut self, e: &CExpr, globals: &Arc<Env>) -> Result<()> {
        self.data = match lower(e, &self.layout, globals)? {
            Lowered::Row(rx) => self.data.filter_expr(rx)?,
            r => self.data.filter(move |row| match r.eval(row)?.as_bool() {
                Some(b) => Ok(b),
                None => Err(RuntimeError::new("condition must be boolean")),
            })?,
        };
        Ok(())
    }

    /// Appends the variables `p` binds to the layout.
    fn bind(&mut self, p: &Pattern) {
        for v in p.var_list() {
            self.layout.push(v);
        }
    }

    /// A key expression as the engine sees it: itself when it has a
    /// `RowExpr` form; otherwise an opaque `let` of its own computes it
    /// first and the engine reads its column.
    fn key_expr(&mut self, key: &CExpr, globals: &Arc<Env>) -> Result<RowExpr> {
        if let Lowered::Row(rx) = lower(key, &self.layout, globals)? {
            return Ok(rx);
        }
        let column = format!("$key{}", self.layout.cols.len());
        self.extend_let(&Pattern::Var(column), key, globals)?;
        Ok(RowExpr::Col(self.layout.cols.len() - 1))
    }

    /// Joins a new dataset generator through equality keys: both keys and
    /// the pattern's shape go to the engine as data. The generator's
    /// dataset is computed ([`Dataset::computed`]): one of at most
    /// [`BUILD_CAP`] rows is built and probed from the pipeline's chain
    /// ([`Dataset::join_probe`]); a larger one, entered into the dataset
    /// cache if it was pending, is scattered with it
    /// ([`Dataset::join_on`]) — except inside a fold per row (`in_fold`),
    /// which cannot hold a partitioned join: there a larger one is an
    /// error, raised once its rows are counted, before the join builds or
    /// scatters anything.
    fn hash_join(
        &mut self,
        data: &Dataset,
        p: &Pattern,
        keys: &[JoinKey],
        globals: &Arc<Env>,
        in_fold: bool,
    ) -> Result<()> {
        let key_of = |side: fn(&JoinKey) -> &CExpr| match keys {
            [k] => side(k).clone(),
            _ => CExpr::Tuple(keys.iter().map(|k| side(k).clone()).collect()),
        };
        let left_key = self.key_expr(&key_of(|k| &k.left), globals)?;
        let mismatch: Arc<str> = format!("join pattern {p:?} does not match row").into();
        // The right key reads the pattern's variables. When it has no
        // `RowExpr` form the pattern is bound first, the opaque `let`
        // follows, and the join takes those rows as they are.
        let mut right = Pipe {
            data: data.clone(),
            layout: Layout::new(p.var_list()),
        };
        let right_key = key_of(|k| &k.right);
        let mut shape = shape_of(p);
        let right_key = match lower(&right_key, &right.layout, globals)? {
            Lowered::Row(rx) => rx,
            Lowered::Opaque { .. } => {
                right.data = right.data.map_expr(RowExpr::Unpack {
                    shape,
                    mismatch: mismatch.clone(),
                })?;
                let rx = right.key_expr(&right_key, globals)?;
                shape = Shape::Tuple(vec![Shape::Bind; right.layout.cols.len()]);
                rx
            }
        };
        let carried_key = right.layout.cols.len() > p.var_list().len();
        let on = JoinOn {
            left_key,
            right: shape,
            right_key,
            mismatch,
        };
        let ctx = self.data.context();
        let right = right.data.computed(BUILD_CAP)?;
        let rows = right.rows_known().map_or(usize::MAX, |k| k.len);
        if rows > BUILD_CAP && in_fold {
            return Err(RuntimeError::new(format!(
                "a fold per row probes a side of {rows} rows, over the join build cap {BUILD_CAP}"
            )));
        }
        self.data = if rows <= BUILD_CAP {
            ctx.plan_note(format!(
                "join build: {rows} rows (cap {BUILD_CAP}), probed in the left stage"
            ));
            self.data.join_probe(&right, on)?
        } else {
            ctx.plan_note(format!(
                "join partitioned: {rows} rows over the cap {BUILD_CAP}"
            ));
            self.data.join_on(&right, on)?
        };
        self.bind(p);
        if carried_key {
            // The right side's key column came along with its leaves.
            self.layout.push(format!("$key{}", self.layout.cols.len()));
        }
        Ok(())
    }

    /// Crosses every row with every item, `p` binding each item: the
    /// items and the pattern's shape go to the engine as data. `what`
    /// names the items in a mismatch.
    fn cross(&mut self, items: Arc<Vec<Value>>, p: &Pattern, what: &str) -> Result<()> {
        self.data = self.data.cross(
            items,
            shape_of(p),
            format!("{what} pattern {p:?} does not match row"),
        )?;
        self.bind(p);
        Ok(())
    }

    /// Expands a per-row integer range.
    fn expand_range(
        &mut self,
        p: &Pattern,
        lo: &CExpr,
        hi: &CExpr,
        globals: &Arc<Env>,
    ) -> Result<()> {
        let rlo = lower(lo, &self.layout, globals)?;
        let rhi = lower(hi, &self.layout, globals)?;
        let p_owned = p.clone();
        let new_data = self.data.flat_map_as("range expansion", move |row| {
            let fields = row.as_tuple().expect("env row");
            let lo = rlo
                .eval(row)?
                .as_long()
                .ok_or_else(|| RuntimeError::new("range bound must be long"))?;
            let hi = rhi
                .eval(row)?
                .as_long()
                .ok_or_else(|| RuntimeError::new("range bound must be long"))?;
            let mut out = Vec::with_capacity(range_len(lo, hi)? as usize);
            for i in lo..=hi {
                let mut r = fields.to_vec();
                if !p_owned.bind_values(&Value::Long(i), &mut r) {
                    return Err(RuntimeError::new("range pattern mismatch"));
                }
                out.push(Value::tuple(r));
            }
            Ok(out)
        })?;
        self.data = new_data;
        self.bind(p);
        Ok(())
    }

    /// Expands a per-row bag-valued domain (e.g. a lifted bag column).
    fn expand_bag(&mut self, p: &Pattern, dom: &CExpr, globals: &Arc<Env>) -> Result<()> {
        let r = lower(dom, &self.layout, globals)?;
        let p_owned = p.clone();
        let new_data = self.data.flat_map_as("bag expansion", move |row| {
            let fields = row.as_tuple().expect("env row");
            let bag = r.eval(row)?;
            let items = bag
                .as_bag()
                .ok_or_else(|| RuntimeError::new("generator domain must be a bag"))?
                .to_vec();
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                let mut rr = fields.to_vec();
                if !p_owned.bind_values(&item, &mut rr) {
                    return Err(RuntimeError::new("generator pattern mismatch"));
                }
                out.push(Value::tuple(rr));
            }
            Ok(out)
        })?;
        self.data = new_data;
        self.bind(p);
        Ok(())
    }

    /// The group-by stage. Tries aggregate pushdown (reduceByKey) first;
    /// falls back to groupByKey with lifted bags. Returns the new pipe and,
    /// when pushdown succeeded, the rewritten remaining qualifiers + head.
    #[allow(clippy::type_complexity)]
    fn group_by(
        self,
        p: &Pattern,
        key: &CExpr,
        tail: &[Qual],
        head: &CExpr,
        globals: &Arc<Env>,
    ) -> Result<(Pipe, Option<(Vec<Qual>, CExpr)>)> {
        let key_vars = p.var_list();
        let lifted: Vec<String> = self
            .layout
            .cols
            .iter()
            .filter(|c| !key_vars.contains(c))
            .cloned()
            .collect();

        // Aggregate pushdown: every lifted variable is only ever folded by
        // a monoid, so shuffle `(key, (inputs…))` and let the engine fold.
        let lifted_set: HashSet<String> = lifted.iter().cloned().collect();
        if let Some(pushed) = push_down_aggs(&lifted_set, tail, head) {
            return self.aggregate_by(p, key, pushed, globals);
        }

        let rkey = lower(key, &self.layout, globals)?;
        // General groupByKey: lift every non-key column to a bag.
        let lifted_idx: Vec<usize> = lifted
            .iter()
            .map(|c| self.layout.index_of(c).expect("lifted column"))
            .collect();
        let lifted_idx2 = lifted_idx.clone();
        let keyed = self.data.map_as("keyed map", move |row| {
            let fields = row.as_tuple().expect("env row");
            let key = rkey.eval(row)?;
            let vals: Vec<Value> = lifted_idx2.iter().map(|&i| fields[i].clone()).collect();
            Ok(Value::pair(key, Value::tuple(vals)))
        })?;
        let grouped = keyed.group_by_key()?;
        let p_owned = p.clone();
        let nlifted = lifted.len();
        let data = grouped.map_as("group bind", move |kv| {
            let (k, bag) = diablo_runtime::array::key_value(kv)?;
            let mut row: Vec<Value> = Vec::with_capacity(4);
            if !p_owned.bind_values(&k, &mut row) {
                return Err(RuntimeError::new("group-by key pattern mismatch"));
            }
            let members = bag.as_bag().expect("group bag");
            for pos in 0..nlifted {
                let col: Vec<Value> = members
                    .iter()
                    .map(|m| m.as_tuple().expect("member tuple")[pos].clone())
                    .collect();
                row.push(Value::bag(col));
            }
            Ok(Value::tuple(row))
        })?;
        let mut cols = key_vars;
        cols.extend(lifted);
        Ok((
            Pipe {
                data,
                layout: Layout::new(cols),
            },
            None,
        ))
    }

    /// A group-by whose lifted variables are only aggregated, as
    /// reduceByKey over monoids the engine can see: a transparent keyed
    /// map `(key, (inputs…))`, [`Dataset::aggregate_by_key`], and the key
    /// pattern unpacked next to the aggregates.
    #[allow(clippy::type_complexity)]
    fn aggregate_by(
        mut self,
        p: &Pattern,
        key: &CExpr,
        pushed: Pushdown,
        globals: &Arc<Env>,
    ) -> Result<(Pipe, Option<(Vec<Qual>, CExpr)>)> {
        let key_rx = self.key_expr(key, globals)?;
        let inputs = pushed
            .aggs
            .iter()
            .map(|(_, col)| {
                self.layout
                    .index_of(col)
                    .map(RowExpr::Col)
                    .ok_or_else(|| RuntimeError::new(format!("missing column `{col}`")))
            })
            .collect::<Result<Vec<_>>>()?;
        let keyed = self
            .data
            .map_expr(RowExpr::Tuple(vec![key_rx, RowExpr::Tuple(inputs)]))?;
        let reduced = keyed.aggregate_by_key(pushed.aggs.iter().map(|(op, _)| *op).collect())?;
        let mut grouped = Pipe {
            data: reduced,
            layout: Layout::default(),
        };
        grouped.unpacked(p, pushed.aggs.len())?;
        Ok((grouped, Some((pushed.tail, pushed.head))))
    }

    /// Rows `(key, (a1, …, an))` as the key pattern's variables followed
    /// by the aggregate columns `$agg0…`.
    fn unpacked(&mut self, p: &Pattern, aggs: usize) -> Result<()> {
        self.data = self.data.map_expr(RowExpr::Unpack {
            shape: Shape::Tuple(vec![shape_of(p), Shape::Tuple(vec![Shape::Bind; aggs])]),
            mismatch: format!("group-by key pattern {p:?} does not match").into(),
        })?;
        let mut cols = p.var_list();
        cols.extend((0..aggs).map(agg_col_name));
        self.layout = Layout::new(cols);
        Ok(())
    }

    /// The final head map.
    fn finish(self, head: &CExpr, globals: &Arc<Env>) -> Result<Dataset> {
        match lower(head, &self.layout, globals)? {
            Lowered::Row(rx) => self.data.map_expr(rx),
            r => self.data.map_as("head", move |row| r.eval(row)),
        }
    }
}

/// The engine-visible shape of a generator pattern.
fn shape_of(p: &Pattern) -> Shape {
    match p {
        Pattern::Var(_) => Shape::Bind,
        Pattern::Wild => Shape::Skip,
        Pattern::Tuple(ps) => Shape::Tuple(ps.iter().map(shape_of).collect()),
    }
}
