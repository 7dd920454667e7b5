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
use diablo_runtime::{RuntimeError, Value};

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
            Qual::Let(p, e) => pipe.extend_let(&p, &e, &globals)?,
            Qual::Pred(e) => pipe.filter(&e, &globals)?,
            Qual::Gen(p, dom) => match classify(&dom, sess)? {
                GenSource::Data(data) => {
                    // Join detection: equality predicates between the
                    // current row variables and the new pattern.
                    let row_vars = pipe.layout.cols.iter().cloned().collect();
                    let pat_vars = p.var_list().into_iter().collect();
                    let keys = join_keys(&quals, i, &row_vars, &pat_vars, &|v| {
                        globals.contains_key(v)
                    });
                    consumed.extend(keys.iter().map(|k| k.pred));
                    if keys.is_empty() {
                        pipe.cross(data.broadcast()?, &p, "broadcast")?;
                    } else {
                        pipe.hash_join(&data, &p, &keys, &globals)?;
                    }
                }
                GenSource::Range(lo, hi) => pipe.expand_range(&p, &lo, &hi, &globals)?,
                GenSource::Local => pipe.expand_bag(&p, &dom, &globals)?,
            },
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
        }
        i += 1;
    }
    pipe.finish(&head, &globals)
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
    /// ([`Dataset::join_on`]).
    fn hash_join(
        &mut self,
        data: &Dataset,
        p: &Pattern,
        keys: &[JoinKey],
        globals: &Arc<Env>,
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
        let rows = right.known().map_or(usize::MAX, |k| k.len);
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
        // Rows become: key pattern vars + $agg columns.
        let data = reduced.map_expr(RowExpr::Unpack {
            shape: Shape::Tuple(vec![
                shape_of(p),
                Shape::Tuple(vec![Shape::Bind; pushed.aggs.len()]),
            ]),
            mismatch: format!("group-by key pattern {p:?} does not match").into(),
        })?;
        let mut cols = p.var_list();
        cols.extend((0..pushed.aggs.len()).map(agg_col_name));
        Ok((
            Pipe {
                data,
                layout: Layout::new(cols),
            },
            Some((pushed.tail, pushed.head)),
        ))
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
