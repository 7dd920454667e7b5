//! # diablo-exec
//!
//! Executes DIABLO target code on the dataflow engine. This crate is the
//! bridge the paper gets from DIQL (which compiles comprehensions to Spark
//! byte code, §6): it turns each comprehension into a pipeline of engine
//! stages —
//!
//! * generators over arrays become partitioned scans;
//! * equality conditions linking a new generator to already-bound
//!   variables become **hash joins** (the paper's translation of
//!   comprehensions to DISC joins \[20\]): the engine's
//!   `Dataset::join_on`, told both keys as row expressions and the
//!   generator's pattern as a shape, so the scatters stay columnar and
//!   the match is a build–probe;
//! * generators with no linking condition become **broadcast
//!   nested-loop** products (how DIABLO's K-Means correlates points with
//!   the centroid array): the engine's `Dataset::cross`, a transparent
//!   expansion step over the broadcast rows;
//! * a generator over a spliced array, a range fill merged `⊳[⊕]` with
//!   a group-by on the row's key (`diablo_core::splice_arrays`), becomes
//!   a **fold per row** inside the scanning stage (`Dataset::fold_rows`,
//!   no shuffle), each row starting from the fill's value;
//! * `group by` becomes **reduceByKey** when every lifted variable is
//!   consumed by an aggregation (map-side combining), and **groupByKey**
//!   otherwise;
//! * the array merge `V ⊳ x` becomes a cogroup-style merge — or is `x`
//!   itself when `V` holds no rows and `x`'s keys are provably unique
//!   ([`diablo_comp::keys`]);
//! * a comprehension with no source, and the qualifiers before its first
//!   source ([`Comprehension::first_source`]), are evaluated on the
//!   driver, each as one comprehension; the latter's bindings are crossed
//!   into the source rows.
//!
//! A comprehension has one evaluator, [`diablo_comp::eval_in`]; this crate
//! only supplies its [`Scope`]s. The driver evaluates scalar statements,
//! `while` conditions and what precedes a comprehension's first
//! distributed source in the session's scope, which runs a nested
//! comprehension over a dataset on the engine when no local binding
//! encloses it. A pipeline step whose expression has no `RowExpr` form
//! evaluates it per row in a scope over the row's columns.
//!
//! The public entry point is [`Session`]: bind inputs, [`Session::run`] a
//! [`CompiledProgram`], read results back.

mod blocks;
mod pipeline;
mod rexpr;

pub use pipeline::run_comp;

use std::collections::HashMap;

use diablo_comp::{eval_in, CExpr, Comprehension, Env, Scope};
use diablo_core::{CompiledProgram, TStmt};
use diablo_dataflow::{Context, Dataset, Layout};
use diablo_runtime::{AggOp, RuntimeError, Value};

/// Result alias for execution.
pub type Result<T> = std::result::Result<T, RuntimeError>;

/// A variable binding in the driver state σ.
#[derive(Clone)]
pub enum Binding {
    /// A scalar value.
    Scalar(Value),
    /// A distributed collection of `(key, value)` rows.
    Data(Dataset),
}

impl std::fmt::Debug for Binding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Binding::Scalar(v) => write!(f, "Scalar({v})"),
            Binding::Data(d) => write!(f, "Data({d:?})"),
        }
    }
}

/// The driver session: engine context plus the state σ mapping program
/// variables to scalars or datasets.
///
/// ## Laziness
///
/// By default the session is **lazy across statements**: a collection
/// assignment whose result feeds at most one downstream statement (per
/// [`diablo_core::lazy_assignments`]; in a `while` body, one reader in the
/// same iteration and overwritten before the next reads it) binds its
/// *plan* instead of forcing a materialization, so the producer's pending
/// stage fuses into the consumer's — `X := …; Y := f(X)` runs the tail of
/// `X` inside `Y`'s stage. Every other assignment (several readers, or an
/// array a loop carries into its next iteration) materializes.
///
/// A pending binding is *settled* at a dead store (an assignment that
/// overwrites it without reading it) and at the end of [`Session::run`]:
/// if a stage that fused its plan has already finished
/// ([`Dataset::has_run`]) it is dropped, or left unforced, since forcing it
/// would only run the chain its reader ran; otherwise it is forced, so its
/// deferred errors surface from `run` itself. Error locality is preserved
/// by tagging plan nodes with their source statement (`s3:X`): an error
/// raised inside a fused cross-statement stage names the statement that
/// built the failing operator, and the executed-plan trace lists every
/// statement a fused stage spans. When the run fails, every pending
/// binding is settled oldest first and the first failure is the error, so
/// it reads as the eager reference's.
///
/// [`Session::eager`] disables cross-statement laziness (every assignment
/// materializes, the pre-lazy behavior) — the reference the lazy mode's
/// property tests compare against.
pub struct Session {
    ctx: Context,
    state: HashMap<String, Binding>,
    lazy: bool,
    /// Lazily bound collections not settled yet, in binding order.
    pending: Vec<Pending>,
}

/// A lazily bound collection whose plan had not run when it was bound.
struct Pending {
    name: String,
    /// The statement that produced it (`s3:X`), for error tags.
    tag: String,
    /// The plan bound. A later assignment that reads `name` replaces it
    /// in the state, and the entry stays: its statement still comes first
    /// in the eager order.
    data: Dataset,
    /// The binding it replaced, restored if its plan fails: in the eager
    /// reference a failed assignment never rebinds.
    replaced: Option<Binding>,
}

impl Session {
    /// Creates a session on the given engine context (lazy across
    /// statements; see the type-level docs).
    pub fn new(ctx: Context) -> Session {
        Session {
            ctx,
            state: HashMap::new(),
            lazy: true,
            pending: Vec::new(),
        }
    }

    /// Creates a session that materializes at every assignment — the
    /// eager per-statement reference semantics.
    pub fn eager(ctx: Context) -> Session {
        Session {
            lazy: false,
            ..Session::new(ctx)
        }
    }

    /// True when the session fuses statements lazily.
    pub fn is_lazy(&self) -> bool {
        self.lazy
    }

    /// The engine context.
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    /// Binds a scalar input.
    pub fn bind_scalar(&mut self, name: &str, v: impl Into<Value>) {
        self.state
            .insert(name.to_string(), Binding::Scalar(v.into()));
    }

    /// Binds a collection input from `(key, value)` pair rows.
    ///
    /// Keys must be unique: arrays are key-value maps (§3.4), and the
    /// engine relies on it — a merge into an empty array is skipped when
    /// the update's keys are unique by construction, which holds only over
    /// arrays. Duplicate keys are outside the contract. Under the plan
    /// verifier (`DIABLO_VERIFY_PLAN`, on in debug builds) [`Session::run`]
    /// rejects a program input holding one.
    pub fn bind_input(&mut self, name: &str, rows: Vec<Value>) {
        let data = self.ctx.from_vec(rows);
        self.state.insert(name.to_string(), Binding::Data(data));
    }

    /// Binds an existing dataset; its keys must be unique, as for
    /// [`Session::bind_input`].
    pub fn bind_dataset(&mut self, name: &str, data: Dataset) {
        self.state.insert(name.to_string(), Binding::Data(data));
    }

    /// Reads a scalar result.
    pub fn scalar(&self, name: &str) -> Option<Value> {
        match self.state.get(name)? {
            Binding::Scalar(v) => Some(v.clone()),
            Binding::Data(_) => None,
        }
    }

    /// Reads a collection result as sorted `(key, value)` rows.
    pub fn collect(&self, name: &str) -> Option<Vec<Value>> {
        match self.state.get(name)? {
            Binding::Data(d) => Some(d.collect_sorted()),
            Binding::Scalar(_) => None,
        }
    }

    /// Reads a collection result as a dataset handle.
    pub fn dataset(&self, name: &str) -> Option<&Dataset> {
        match self.state.get(name)? {
            Binding::Data(d) => Some(d),
            Binding::Scalar(_) => None,
        }
    }

    /// Looks up any binding.
    pub fn binding(&self, name: &str) -> Option<&Binding> {
        self.state.get(name)
    }

    /// Renders the **executed physical plan** of `program`: runs it
    /// against a scratch copy of the current state with plan tracing
    /// enabled and returns one line per physical stage, shuffle and
    /// broadcast, interleaved with statement markers.
    ///
    /// Because plans are built per input (a `while` can change the shape),
    /// explain executes the program for real — bind representative inputs
    /// first. The session's own state is left untouched.
    pub fn explain(&self, program: &CompiledProgram) -> Result<String> {
        let mut scratch = Session {
            ctx: self.ctx.clone(),
            state: self.state.clone(),
            lazy: self.lazy,
            pending: Vec::new(),
        };
        self.ctx.start_plan_trace();
        let run = scratch.run(program);
        let lines = self.ctx.take_plan_trace();
        run?;
        let budget = match self.ctx.memory_budget() {
            Some(b) => format!(", memory budget {b} B"),
            None => String::new(),
        };
        let layout = self.ctx.layout();
        let per_stage = match layout {
            Layout::Columnar => "; per stage, columnar where every step is transparent, else row",
            Layout::Row => "",
        };
        let mut out = format!(
            "physical plan (executed on `{}` backend, narrow chains fused{per_stage}{budget}):\n",
            layout.name()
        );
        for l in &lines {
            if l.starts_with("==") {
                out.push_str(l);
            } else {
                out.push_str("  ");
                out.push_str(l);
            }
            out.push('\n');
        }
        Ok(out)
    }

    /// Runs a compiled program against the current state.
    ///
    /// Eligible assignments stay lazy during the run (see the type-level
    /// docs); before returning, every still-pending binding is forced so
    /// any deferred operator error surfaces here, tagged with the
    /// statement that built the failing operator.
    pub fn run(&mut self, program: &CompiledProgram) -> Result<()> {
        for (name, _) in &program.inputs {
            match self.state.get(name) {
                None => return Err(RuntimeError::new(format!("input `{name}` was not bound"))),
                Some(Binding::Data(d)) => d.verify_unique_keys(name)?,
                Some(Binding::Scalar(_)) => {}
            }
        }
        let eligible = diablo_core::lazy_assignments(&program.stmts);
        let mut slot = 0usize;
        for s in &program.stmts {
            if let Err(e) = self.exec(s, &eligible, &mut slot) {
                self.ctx.set_statement_label(None);
                // The eager reference stops at the first statement that
                // fails, and a pending binding's statement came before
                // this one: the first pending failure is the run's error.
                // Settling also leaves no deferred error for a later read.
                return Err(self.settle_pending().unwrap_or(e));
            }
        }
        match self.settle_pending() {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Settles the pending bindings of `name` before an assignment that
    /// overwrites it without reading it: one whose plan has run is dropped
    /// unforced, any other is forced so its errors are not lost. A failing
    /// one stays pending, for the run's failure path to settle in binding
    /// order.
    fn settle_dead_store(&mut self, name: &str) -> Result<()> {
        while let Some(i) = self.pending.iter().position(|p| p.name == name) {
            let p = &self.pending[i];
            if p.data.has_run() {
                self.ctx.plan_note(format!(
                    "dead store drops pending `{name}` ({}): its plan already ran",
                    p.tag
                ));
            } else if let Err(e) = p.data.materialize() {
                return Err(e.with_context(&p.tag));
            }
            self.pending.remove(i);
        }
        Ok(())
    }

    /// Settles every pending binding, oldest first: a plan that has run is
    /// left unforced, any other is forced, under one plan note written
    /// before the first. The first failure is returned, tagged with its
    /// statement, and the state rolls back to the eager reference's at that
    /// statement: the failed binding and every younger pending one give
    /// way, newest first, to the bindings they replaced.
    fn settle_pending(&mut self) -> Option<RuntimeError> {
        let pending = std::mem::take(&mut self.pending);
        let mut noted = false;
        let failed = pending.iter().enumerate().find_map(|(i, p)| {
            if p.data.has_run() {
                return None;
            }
            if !std::mem::replace(&mut noted, true) {
                self.ctx.plan_note("== (materialize lazy results)");
            }
            p.data
                .materialize()
                .err()
                .map(|e| (i, e.with_context(&p.tag)))
        });
        let (at, err) = failed?;
        for p in pending.into_iter().skip(at).rev() {
            match p.replaced {
                Some(old) => self.state.insert(p.name, old),
                None => self.state.remove(&p.name),
            };
        }
        Some(err)
    }

    fn exec(&mut self, s: &TStmt, eligible: &[bool], slot: &mut usize) -> Result<()> {
        let my = *slot;
        *slot += 1;
        match s {
            TStmt::Assign {
                name,
                value,
                collection,
            } => {
                self.ctx.plan_note(format!(
                    "== s{my}: {name} := {} [{}]",
                    diablo_comp::pretty_cexpr(value),
                    if *collection { "array" } else { "scalar" }
                ));
                let tag = format!("s{my}:{name}");
                if *collection {
                    // A dead store over a still-pending binding would
                    // silently discard its deferred errors: if the new
                    // value does not read the old one (so evaluation will
                    // not consume its chain), settle that binding first.
                    if !value.free_vars().contains(name) {
                        self.settle_dead_store(name)?;
                    }
                    // Plan nodes built for this statement carry its tag,
                    // so stages and errors stay attributable however far
                    // fusion defers them.
                    self.ctx.set_statement_label(Some(&tag));
                    let data = self.eval_collection(value);
                    self.ctx.set_statement_label(None);
                    let data = data.map_err(|e| e.with_context(&tag))?;
                    let lazy = self.lazy && eligible.get(my).copied().unwrap_or(false);
                    // A range fill is its bounds: the lazy session binds it
                    // as it is and runs no stage, pending where a lazy
                    // binding would be, so a failed run rolls it back alike.
                    // (The eager reference materializes it.)
                    let fill = self.lazy && data.fill().is_some();
                    let data = if lazy && (fill || !data.has_run()) {
                        // Lazy binding: the plan stays pending and fuses
                        // into its (single) consumer; it is settled at the
                        // dead store or the end of the run.
                        self.pending.push(Pending {
                            name: name.clone(),
                            tag,
                            data: data.clone(),
                            replaced: self.state.get(name).cloned(),
                        });
                        data
                    } else if fill {
                        data
                    } else {
                        data.materialize().map_err(|e| e.with_context(&tag))?
                    };
                    self.state.insert(name.clone(), Binding::Data(data));
                } else {
                    // Scalar assignment: the value is a bag of at most one
                    // element; an empty bag leaves the variable unchanged
                    // (sparse missing-element semantics).
                    let bag =
                        eval_in(value, &Env::new(), self).map_err(|e| e.with_context(&tag))?;
                    let items = bag
                        .as_bag()
                        .ok_or_else(|| {
                            RuntimeError::new(format!(
                                "scalar assignment to `{name}` produced a {}",
                                bag.type_name()
                            ))
                        })?
                        .to_vec();
                    match items.len() {
                        0 => {}
                        1 => {
                            self.state.insert(
                                name.clone(),
                                Binding::Scalar(items.into_iter().next().expect("one")),
                            );
                        }
                        n => {
                            return Err(RuntimeError::new(format!(
                                "scalar assignment to `{name}` produced {n} values"
                            )))
                        }
                    }
                }
                Ok(())
            }
            TStmt::While { cond, body } => {
                self.ctx
                    .plan_note(format!("== while {}", diablo_comp::pretty_cexpr(cond)));
                // Body statements keep stable pre-order slots across
                // iterations, which `lazy_assignments` numbers.
                let body_start = *slot;
                *slot += diablo_core::preorder_len(body);
                loop {
                    let v = eval_in(cond, &Env::new(), self)?;
                    let items = v
                        .as_bag()
                        .ok_or_else(|| RuntimeError::new("while condition must be a bag"))?;
                    let go = match items {
                        [] => false,
                        [b] => b
                            .as_bool()
                            .ok_or_else(|| RuntimeError::new("while condition must be boolean"))?,
                        _ => return Err(RuntimeError::new("while condition produced many values")),
                    };
                    if !go {
                        break;
                    }
                    let mut body_slot = body_start;
                    for s in body {
                        self.exec(s, eligible, &mut body_slot)?;
                    }
                }
                Ok(())
            }
        }
    }

    /// Evaluates a collection-valued expression to a dataset.
    pub(crate) fn eval_collection(&self, e: &CExpr) -> Result<Dataset> {
        match e {
            CExpr::Var(name) => match self.state.get(name) {
                Some(Binding::Data(d)) => Ok(d.clone()),
                Some(Binding::Scalar(Value::Bag(items))) => {
                    Ok(self.ctx.from_vec(items.as_ref().clone()))
                }
                Some(Binding::Scalar(v)) => Err(RuntimeError::new(format!(
                    "`{name}` is a scalar {} where a collection was expected",
                    v.type_name()
                ))),
                None => Err(RuntimeError::new(format!("undefined collection `{name}`"))),
            },
            CExpr::Const(Value::Bag(items)) => Ok(self.ctx.from_vec(items.as_ref().clone())),
            CExpr::Merge {
                left,
                right,
                combine,
            } => {
                let old = self.eval_collection(left)?;
                // Merging into an array with no rows an update whose keys
                // are unique returns the update: skip the merge.
                if let CExpr::Comp(c) = right.as_ref() {
                    if old.is_known_empty() {
                        if let Some(proof) = c.unique_keys(&|v| self.is_dataset(v)) {
                            self.ctx.plan_note(format!(
                                "merge into empty `{}` skipped: update keys unique ({})",
                                diablo_comp::pretty_cexpr(left),
                                proof.name()
                            ));
                            return run_comp(c, self);
                        }
                    }
                }
                let new = self.eval_collection(right)?;
                // A range fill whose bounds hold every key of the array
                // replaces every row: the merge is the fill.
                if let (None, Some(fill)) = (combine, new.fill()) {
                    if old.keys_within(fill.lo, fill.hi)? {
                        self.ctx.plan_note(format!(
                            "merge into `{}` skipped: the range fill over [{}, {}] covers its keys",
                            diablo_comp::pretty_cexpr(left),
                            fill.lo,
                            fill.hi
                        ));
                        return Ok(new);
                    }
                }
                match combine {
                    None => old.merge(&new, None::<fn(&Value, &Value) -> Result<Value>>),
                    Some(op) => {
                        let op = *op;
                        old.merge(&new, Some(move |a: &Value, b: &Value| op.apply(a, b)))
                    }
                }
            }
            CExpr::Comp(c) => run_comp(c, self),
            other => {
                // Fall back to local evaluation producing a bag.
                let v = eval_in(other, &Env::new(), self)?;
                match v {
                    Value::Bag(items) => Ok(self.ctx.from_vec(items.as_ref().clone())),
                    v => Err(RuntimeError::new(format!(
                        "expected a collection, got {}",
                        v.type_name()
                    ))),
                }
            }
        }
    }

    /// A snapshot of the scalar bindings, used as the globals environment
    /// for expression evaluation.
    pub(crate) fn globals(&self) -> HashMap<String, Value> {
        self.state
            .iter()
            .filter_map(|(n, b)| match b {
                Binding::Scalar(v) => Some((n.clone(), v.clone())),
                Binding::Data(_) => None,
            })
            .collect()
    }

    /// True if the name is bound to a dataset.
    pub(crate) fn is_dataset(&self, name: &str) -> bool {
        matches!(self.state.get(name), Some(Binding::Data(_)))
    }
}

/// The driver's scope: a scalar binding is its value and a dataset is
/// collected as a bag. A comprehension that mentions a dataset and sits
/// under no local binding runs on the engine, and an aggregation over one
/// is the engine's distributed reduce (map-side partials) rather than a
/// collect-then-fold.
impl Scope for Session {
    fn var(&self, name: &str) -> Result<Value> {
        match self.binding(name) {
            Some(Binding::Scalar(v)) => Ok(v.clone()),
            // Materializing a whole dataset on the driver is allowed but
            // only happens for small arrays used in scalar context.
            Some(Binding::Data(d)) => Ok(Value::bag(d.try_collect()?)),
            None => Err(RuntimeError::new(format!("undefined variable `{name}`"))),
        }
    }

    fn comp(&self, c: &Comprehension, agg: Option<AggOp>, env: &Env) -> Option<Result<Value>> {
        if !env.is_empty() {
            return None;
        }
        let mut mentions_data = false;
        c.each_free(&mut |v, _| mentions_data |= self.is_dataset(v));
        if !mentions_data {
            return None;
        }
        Some(run_comp(c, self).and_then(|data| match agg {
            None => Ok(Value::bag(data.try_collect()?)),
            Some(op) => match data.aggregate(op)? {
                Some(v) => Ok(v),
                None => op.reduce([].iter()),
            },
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diablo_core::compile;

    fn session() -> Session {
        Session::new(Context::new(4, 8))
    }

    fn long_pairs(entries: &[(i64, i64)]) -> Vec<Value> {
        entries
            .iter()
            .map(|&(k, v)| Value::pair(Value::Long(k), Value::Long(v)))
            .collect()
    }

    #[test]
    fn end_to_end_group_by_increment() {
        let compiled = compile(
            r#"
            input A: vector[<|K: long, V: long|>];
            var C: vector[long] = vector();
            for i = 0, 9 do C[A[i].K] += A[i].V;
        "#,
        )
        .unwrap();
        let mut s = session();
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
        s.bind_input("A", a);
        s.run(&compiled).unwrap();
        assert_eq!(s.collect("C").unwrap(), long_pairs(&[(3, 23), (5, 25)]));
    }

    #[test]
    fn opaque_join_keys_are_bound_by_a_let_on_their_own_side() {
        // { (v, w) | (i, v) ← A, (j, w) ← B, ⟨k = i % 3⟩ == ⟨k = j⟩ }: a
        // record has no `RowExpr` form, so either side computes its key
        // with an opaque `let` of its own and the engine joins on that
        // column: `B` is built, and `A`'s chain probes it. The carried key
        // columns stay out of the head's way.
        use diablo_comp::ir::{Comprehension, Pattern, Qual};
        use diablo_runtime::BinOp;
        let record = |e: CExpr| CExpr::Record(vec![("k".into(), e)]);
        let left_key = record(CExpr::Bin(
            BinOp::Mod,
            Box::new(CExpr::var("i")),
            Box::new(CExpr::long(3)),
        ));
        let comp = |a: CExpr, b: CExpr| {
            Comprehension::new(
                CExpr::pair(CExpr::var("v"), CExpr::var("w")),
                vec![
                    Qual::Gen(
                        Pattern::pair(Pattern::var("i"), Pattern::var("v")),
                        CExpr::var("A"),
                    ),
                    Qual::Gen(
                        Pattern::pair(Pattern::var("j"), Pattern::var("w")),
                        CExpr::var("B"),
                    ),
                    Qual::Pred(CExpr::Bin(BinOp::Eq, Box::new(a), Box::new(b))),
                ],
            )
        };
        let mut s = session();
        s.bind_input("A", long_pairs(&[(0, 10), (1, 11), (2, 12), (4, 14)]));
        s.bind_input("B", long_pairs(&[(1, -1), (0, -10), (7, -7)]));
        let want = long_pairs(&[(10, -10), (11, -1), (14, -1)]);
        for c in [
            comp(left_key.clone(), record(CExpr::var("j"))),
            comp(record(CExpr::var("j")), left_key),
        ] {
            s.ctx.start_plan_trace();
            let mut rows = run_comp(&c, &s).unwrap().collect();
            rows.sort();
            assert_eq!(rows, want);
            let trace = s.ctx.take_plan_trace().join("\n");
            assert!(trace.contains("join build: 3 rows"), "{trace}");
            assert!(!trace.contains("scatter"), "{trace}");
            assert!(!trace.contains("broadcast"), "{trace}");
        }
    }

    #[test]
    fn range_sources_and_expansions_at_the_limits_of_long() {
        use diablo_comp::ir::{Pattern, Qual};
        let range = |lo: i64, hi: i64| {
            CExpr::Range(
                Box::new(CExpr::Const(Value::Long(lo))),
                Box::new(CExpr::Const(Value::Long(hi))),
            )
        };
        // `{ j | i ← range(0, 0), j ← range(lo, hi) }`: the second range is
        // expanded per row; alone, `range(lo, hi)` is the source.
        let expand = |lo, hi| {
            Comprehension::new(
                CExpr::var("j"),
                vec![
                    Qual::Gen(Pattern::var("i"), range(0, 0)),
                    Qual::Gen(Pattern::var("j"), range(lo, hi)),
                ],
            )
        };
        let source = |lo, hi| {
            Comprehension::new(
                CExpr::var("j"),
                vec![Qual::Gen(Pattern::var("j"), range(lo, hi))],
            )
        };
        let s = session();
        for c in [
            expand(i64::MAX - 2, i64::MAX),
            source(i64::MAX - 2, i64::MAX),
        ] {
            let rows = run_comp(&c, &s).unwrap().collect();
            assert_eq!(
                rows,
                (i64::MAX - 2..=i64::MAX)
                    .map(Value::Long)
                    .collect::<Vec<_>>()
            );
        }
        for c in [expand(i64::MIN, i64::MAX), source(0, i64::MAX)] {
            let err = run_comp(&c, &s).and_then(|d| d.try_collect()).unwrap_err();
            assert!(err.message.contains("has more than"), "{err:?}");
        }
    }

    #[test]
    fn end_to_end_scalar_sum() {
        let compiled = compile(
            r#"
            input V: vector[double];
            var sum: double = 0.0;
            for v in V do sum += v;
        "#,
        )
        .unwrap();
        let mut s = session();
        s.bind_input(
            "V",
            (0..100)
                .map(|i| Value::pair(Value::Long(i), Value::Double(i as f64)))
                .collect(),
        );
        s.run(&compiled).unwrap();
        assert_eq!(s.scalar("sum"), Some(Value::Double(4950.0)));
    }

    #[test]
    fn end_to_end_vector_copy() {
        let compiled = compile(
            r#"
            input W: vector[long];
            var V: vector[long] = vector();
            for i = 1, 10 do V[i] := W[i];
        "#,
        )
        .unwrap();
        let mut s = session();
        s.bind_input(
            "W",
            long_pairs(&[(0, 100), (5, 500), (10, 1000), (11, 1100)]),
        );
        s.run(&compiled).unwrap();
        assert_eq!(s.collect("V").unwrap(), long_pairs(&[(5, 500), (10, 1000)]));
    }

    #[test]
    fn end_to_end_matrix_multiplication() {
        let compiled = compile(
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
        )
        .unwrap();
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
        let mut s = session();
        s.bind_scalar("d", Value::Long(2));
        s.bind_input(
            "M",
            m(&[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)]),
        );
        s.bind_input(
            "N",
            m(&[(0, 0, 5.0), (0, 1, 6.0), (1, 0, 7.0), (1, 1, 8.0)]),
        );
        s.run(&compiled).unwrap();
        assert_eq!(
            s.collect("R").unwrap(),
            m(&[(0, 0, 19.0), (0, 1, 22.0), (1, 0, 43.0), (1, 1, 50.0)])
        );
    }

    #[test]
    fn end_to_end_while_loop() {
        let compiled = compile(
            r#"
            var k: long = 0;
            var total: long = 0;
            while (k < 5) { k += 1; total += k; };
        "#,
        )
        .unwrap();
        let mut s = session();
        s.run(&compiled).unwrap();
        assert_eq!(s.scalar("total"), Some(Value::Long(15)));
    }

    #[test]
    fn end_to_end_range_initialization() {
        // A pure range source with no dataset: still parallelized.
        let compiled = compile(
            r#"
            var V: vector[double] = vector();
            for i = 1, 8 do V[i] := 0.5;
        "#,
        )
        .unwrap();
        let mut s = session();
        s.run(&compiled).unwrap();
        let rows = s.collect("V").unwrap();
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0], Value::pair(Value::Long(1), Value::Double(0.5)));
    }

    #[test]
    fn unbound_input_is_reported() {
        let compiled = compile("input V: vector[long]; var s: long = 0;").unwrap();
        let mut s = session();
        let err = s.run(&compiled).unwrap_err();
        assert!(err.message.contains("was not bound"), "{err}");
    }

    #[test]
    fn word_count_end_to_end() {
        let compiled = compile(
            r#"
            input words: vector[string];
            var C: map[string, long] = map();
            for w in words do C[w] += 1;
        "#,
        )
        .unwrap();
        let mut s = session();
        let words = ["a", "b", "a", "c", "a", "b"];
        s.bind_input(
            "words",
            words
                .iter()
                .enumerate()
                .map(|(i, w)| Value::pair(Value::Long(i as i64), Value::str(w)))
                .collect(),
        );
        s.run(&compiled).unwrap();
        assert_eq!(
            s.collect("C").unwrap(),
            vec![
                Value::pair(Value::str("a"), Value::Long(3)),
                Value::pair(Value::str("b"), Value::Long(2)),
                Value::pair(Value::str("c"), Value::Long(1)),
            ]
        );
    }

    #[test]
    fn conditional_sum_end_to_end() {
        let compiled = compile(
            r#"
            input V: vector[double];
            var sum: double = 0.0;
            for v in V do
                if (v < 100.0) sum += v;
        "#,
        )
        .unwrap();
        let mut s = session();
        s.bind_input(
            "V",
            vec![
                Value::pair(Value::Long(0), Value::Double(5.0)),
                Value::pair(Value::Long(1), Value::Double(250.0)),
                Value::pair(Value::Long(2), Value::Double(7.5)),
            ],
        );
        s.run(&compiled).unwrap();
        assert_eq!(s.scalar("sum"), Some(Value::Double(12.5)));
    }
}
