//! The lazy physical plan: a DAG of [`PlanOp`] nodes built by [`Dataset`]
//! operators, plus the engine's one plan walker — [`materialize`] and
//! [`consume`] — that every materialization point calls.
//!
//! ## The walker's contract
//!
//! For a plan, the walker produces the rows of tuple-at-a-time evaluation
//! in the same order, moves the same rows through shuffles, records the
//! same physical stages, and surfaces the same first error — statement tag
//! included — whatever the context's [`Layout`], tile width, worker
//! count, or budgets (`tests/executor_conformance.rs`,
//! `tests/engine_grid.rs`). Every stage is one item per partition on the
//! work-stealing pool; the layout only decides how a stage drives rows
//! through its fused chain ([`DriveMode`]).
//!
//! Narrow operators (`map`, `filter`, `flat_map`, `union`) never run
//! when called — they append a node to the plan. At a *materialization
//! point* (a shuffle, `collect`, `reduce`, `broadcast`) the walker
//! collapses every pending
//! chain of row-level nodes into one [`Step`] list and runs it as a single
//! physical stage per partition, feeding each transformed row into a sink
//! without materializing any per-operator intermediate `Vec<Value>`.
//!
//! Since the post-shuffle stages of `reduce_by_key`, `group_by_key`,
//! `merge`, and `cogroup` became lazy [`PlanOp::MapPartitions`] nodes, the
//! shuffle-*read* side fuses with the next narrow chain too:
//! `reduce_by_key → map → shuffle` is two physical stages (combine +
//! scatter, then reduce + map + scatter), not three. A join's post-shuffle
//! node ([`PartOp::Join`]) hands the chain above it the join's match list
//! rather than rows ([`Source::Matches`]): a columnar chain gathers its
//! columns from the two bucket sides, anything else makes each match's
//! row as it reads it.
//!
//! Every row-level node carries an optional **statement tag** — the source
//! statement that built it, set by driver layers through
//! [`Context::set_statement_label`](crate::Context::set_statement_label).
//! Tags surface in two places: fused stages that span several source
//! statements list all their tags in the plan trace, and an error raised
//! inside a tagged step is prefixed with its statement, so laziness never
//! loses error locality.
//!
//! The walker is directional in the Cranelift optimization-rules sense:
//! a fused plan performs *at most* the work of the eager pipeline it
//! replaces — one pass, no intermediate allocations, one clone per
//! surviving row — never more.
//!
//! [`Dataset`]: crate::Dataset

use std::ops::Range;
use std::sync::Arc;

use diablo_runtime::{BinOp, RuntimeError, Value};

use crate::columnar::{Cross, KeyedFold, RowExpr};
use crate::join::{Join, Matches};
use crate::keytable::Key;
use crate::pool::{run_stage_weighted, Cancel};
use crate::stats::Stats;
use crate::{Context, Layout};

/// How many rows a stage sink emits between cooperative-cancellation
/// polls. Cheap enough to leave on everywhere; fine-grained enough that a
/// long morsel notices a lower-indexed failure quickly.
const CANCEL_POLL_ROWS: usize = 1024;

/// Wraps a stage's output sink with a cooperative-cancellation poll: once
/// a lower-indexed item has failed, this item's output can never surface,
/// so the sink bails with a placeholder error (always discarded by the
/// pool — the lower item's error is the one returned).
fn cancellable_sink<'a>(
    cancel: &'a Cancel<'_>,
    mut push: impl FnMut(Value) + 'a,
) -> impl FnMut(Value) -> Result<()> + 'a {
    let mut emitted = 0usize;
    move |v: Value| {
        push(v);
        emitted += 1;
        if emitted.is_multiple_of(CANCEL_POLL_ROWS) && cancel.cancelled() {
            return Err(RuntimeError::new("stage cancelled after earlier error"));
        }
        Ok(())
    }
}

/// Result alias matching the engine's.
pub type Result<T> = std::result::Result<T, RuntimeError>;

/// A row-to-row transformation stored in the plan.
pub(crate) type RowMapFn = Arc<dyn Fn(&Value) -> Result<Value> + Send + Sync>;
/// A row predicate stored in the plan.
pub(crate) type RowPredFn = Arc<dyn Fn(&Value) -> Result<bool> + Send + Sync>;
/// A row-to-rows transformation stored in the plan.
pub(crate) type RowFlatFn = Arc<dyn Fn(&Value) -> Result<Vec<Value>> + Send + Sync>;
/// A partition-at-a-time transformation stored in the plan.
pub(crate) type PartFn = Arc<dyn Fn(&[Value]) -> Result<Vec<Value>> + Send + Sync>;

/// What a partition-wise node makes of one partition.
#[derive(Clone)]
pub(crate) enum PartOp {
    /// New rows, from a function of the partition's rows.
    Rows(PartFn),
    /// A join's matches over one zipped bucket pair: rows the fused chain
    /// above reads without their being built ([`Source::Matches`]).
    Join(Arc<Join>),
}

impl PartOp {
    /// Runs the node over one partition and hands `then` its output as a
    /// [`Source`]; an error of the node itself carries the node's tag.
    fn run<R>(
        &self,
        part: &[Value],
        tag: &Tag,
        mode: &DriveMode,
        then: impl FnOnce(Source<'_>) -> Result<R>,
    ) -> Result<R> {
        match self {
            PartOp::Rows(f) => then(Source::Rows(&f(part).map_err(|e| tag_opt(e, tag))?)),
            PartOp::Join(join) => {
                let columnar = matches!(mode, DriveMode::Columnar(..));
                let matches = join.matches(part, columnar).map_err(|e| tag_opt(e, tag))?;
                then(Source::Matches(&matches))
            }
        }
    }
}

/// The input of a fused chain: rows that exist, or a join's matches, made
/// into rows only where the chain needs them.
#[derive(Clone, Copy)]
pub(crate) enum Source<'a> {
    Rows(&'a [Value]),
    Matches(&'a Matches<'a>),
}

impl Source<'_> {
    /// The number of input rows.
    pub(crate) fn len(&self) -> usize {
        match self {
            Source::Rows(rows) => rows.len(),
            Source::Matches(m) => m.len(),
        }
    }

    /// Drives the input rows in `range` through `steps` tuple-at-a-time;
    /// a match's row is made as it enters the chain.
    pub(crate) fn drive_rows(
        &self,
        range: Range<usize>,
        steps: &[Step],
        sink: &mut dyn FnMut(Value) -> Result<()>,
    ) -> Result<()> {
        match self {
            Source::Rows(rows) => rows[range]
                .iter()
                .try_for_each(|row| drive(row, steps, sink)),
            Source::Matches(m) => range
                .into_iter()
                .try_for_each(|k| drive_owned(m.row(k)?, steps, sink)),
        }
    }
}

/// The source-statement tag of a plan node (`None` outside a driver
/// session).
pub(crate) type Tag = Option<Arc<str>>;

/// One node of the lazy physical plan.
pub(crate) enum PlanOp {
    /// Materialized partitions — the leaves of every plan.
    Scan(Arc<Vec<Vec<Value>>>),
    /// A forced dataset standing in for its lineage: resolved through the
    /// shared dataset cache at execution time. A hit reads the cached
    /// partitions (memory or disk tier) like a `Scan`; a miss — the entry
    /// was evicted under budget pressure — transparently re-derives the
    /// inner plan and reinserts it. Holding the [`CacheSlot`] (not a bare
    /// id) keeps the entry's identity alive for exactly as long as some
    /// plan can still read it.
    Cached(Arc<crate::dscache::CacheSlot>, Arc<PlanOp>),
    /// Row-wise `map`. The optional [`RowExpr`] is the transparent column
    /// expression the closure was derived from, when the transformation
    /// is engine-visible (`map_expr`, lowered loop steps); `None` marks
    /// an opaque UDF, which the `&'static str` names for plan traces
    /// (`map`, or what a driver layer called it: `keyed map`, …).
    Map(
        Arc<PlanOp>,
        RowMapFn,
        Tag,
        Option<Arc<RowExpr>>,
        &'static str,
    ),
    /// Row-wise `filter`, with its transparent predicate expression when
    /// engine-visible.
    Filter(Arc<PlanOp>, RowPredFn, Tag, Option<Arc<RowExpr>>),
    /// Row-wise `flat_map`, named like an opaque `Map` — or, with a
    /// [`Cross`], the transparent expansion the closure was derived from.
    FlatMap(
        Arc<PlanOp>,
        RowFlatFn,
        Tag,
        &'static str,
        Option<Arc<Cross>>,
    ),
    /// Partition-wise transformation (a fusion barrier for row steps
    /// below it, but itself fused with the steps above it). The `&'static
    /// str` names the operator for plan traces (`reduce_by_key (reduce)`,
    /// `merge ⊳ (combine slots)`, …).
    MapPartitions(Arc<PlanOp>, PartOp, &'static str, Tag),
    /// Bag union; keeps the left side's partition count.
    Union(Arc<PlanOp>, Arc<PlanOp>),
}

/// The operator of one fused narrow step.
#[derive(Clone)]
pub(crate) enum StepOp {
    /// From [`PlanOp::Map`].
    Map(RowMapFn),
    /// From [`PlanOp::Filter`].
    Filter(RowPredFn),
    /// From [`PlanOp::FlatMap`], with the expansion's transparent form
    /// when it has one.
    FlatMap(RowFlatFn, Option<Arc<Cross>>),
}

/// One fused narrow step (a row-level op of a collapsed chain) plus the
/// source statement that built it.
#[derive(Clone)]
pub(crate) struct Step {
    pub op: StepOp,
    pub tag: Tag,
    /// The transparent column expression, when the step is
    /// columnar-eligible; `None` marks an opaque UDF the columnar
    /// layout demotes to the row path.
    pub expr: Option<Arc<RowExpr>>,
    /// What an opaque step is, for the `layout: row (opaque …)` note.
    pub what: &'static str,
}

impl Step {
    fn label(&self) -> &'static str {
        match self.op {
            StepOp::Map(_) => "map",
            StepOp::Filter(_) => "filter",
            StepOp::FlatMap(..) => "flat_map",
        }
    }

    /// The expansion this step performs, when the engine can see it.
    pub(crate) fn cross(&self) -> Option<&Cross> {
        match &self.op {
            StepOp::FlatMap(_, cross) => cross.as_deref(),
            _ => None,
        }
    }

    /// True when the step is described by data — a [`RowExpr`] or a
    /// [`Cross`] — so a columnar stage can run it.
    pub(crate) fn transparent(&self) -> bool {
        self.expr.is_some() || self.cross().is_some()
    }

    /// Prefixes an error from this step with its source statement.
    pub(crate) fn tag_err(&self, e: RuntimeError) -> RuntimeError {
        tag_opt(e, &self.tag)
    }
}

/// Prefixes an error with a source-statement tag, if one is present.
fn tag_opt(e: RuntimeError, tag: &Tag) -> RuntimeError {
    match tag {
        Some(t) => e.with_context(t),
        None => e,
    }
}

/// Drives one source row through a fused step chain, feeding every
/// surviving output row to `sink`. No intermediate collections: `map`
/// passes its output by value, `filter` short-circuits, and `flat_map`
/// iterates its expansion in place.
pub(crate) fn drive(
    row: &Value,
    steps: &[Step],
    sink: &mut dyn FnMut(Value) -> Result<()>,
) -> Result<()> {
    match steps.split_first() {
        None => sink(row.clone()),
        Some((
            s @ Step {
                op: StepOp::Map(f), ..
            },
            rest,
        )) => drive_owned(f(row).map_err(|e| s.tag_err(e))?, rest, sink),
        Some((
            s @ Step {
                op: StepOp::Filter(f),
                ..
            },
            rest,
        )) => {
            if f(row).map_err(|e| s.tag_err(e))? {
                drive(row, rest, sink)?;
            }
            Ok(())
        }
        Some((
            s @ Step {
                op: StepOp::FlatMap(f, _),
                ..
            },
            rest,
        )) => {
            for v in f(row).map_err(|e| s.tag_err(e))? {
                drive_owned(v, rest, sink)?;
            }
            Ok(())
        }
    }
}

pub(crate) fn drive_owned(
    row: Value,
    steps: &[Step],
    sink: &mut dyn FnMut(Value) -> Result<()>,
) -> Result<()> {
    match steps.split_first() {
        None => sink(row),
        Some((
            s @ Step {
                op: StepOp::Map(f), ..
            },
            rest,
        )) => drive_owned(f(&row).map_err(|e| s.tag_err(e))?, rest, sink),
        Some((
            s @ Step {
                op: StepOp::Filter(f),
                ..
            },
            rest,
        )) => {
            if f(&row).map_err(|e| s.tag_err(e))? {
                drive_owned(row, rest, sink)?;
            }
            Ok(())
        }
        Some((
            s @ Step {
                op: StepOp::FlatMap(f, _),
                ..
            },
            rest,
        )) => {
            for v in f(&row).map_err(|e| s.tag_err(e))? {
                drive_owned(v, rest, sink)?;
            }
            Ok(())
        }
    }
}

/// Folds one more row into a running reduction with `op` — the consumer
/// of a total aggregation, whichever way the rows were driven.
pub(crate) fn fold_row(op: BinOp, acc: &mut Option<Value>, row: Value) -> Result<()> {
    *acc = Some(match acc.take() {
        None => row,
        Some(a) => op.apply(&a, &row)?,
    });
    Ok(())
}

/// A plan collapsed to a base node plus the fused row steps above it.
pub(crate) struct Collapsed {
    /// The deepest non-row node: `Scan`, `Cached`, `MapPartitions`, or
    /// `Union`.
    pub base: Arc<PlanOp>,
    /// Row steps to apply to the base's rows, in execution order.
    pub steps: Vec<Step>,
}

/// Walks `Map`/`Filter`/`FlatMap` nodes down to the nearest barrier.
pub(crate) fn collapse(plan: &Arc<PlanOp>) -> Collapsed {
    let mut steps: Vec<Step> = Vec::new();
    let mut cur = plan.clone();
    loop {
        let next = match cur.as_ref() {
            PlanOp::Map(input, f, tag, expr, what) => {
                steps.push(Step {
                    op: StepOp::Map(f.clone()),
                    tag: tag.clone(),
                    expr: expr.clone(),
                    what,
                });
                input.clone()
            }
            PlanOp::Filter(input, f, tag, expr) => {
                steps.push(Step {
                    op: StepOp::Filter(f.clone()),
                    tag: tag.clone(),
                    expr: expr.clone(),
                    what: "filter",
                });
                input.clone()
            }
            PlanOp::FlatMap(input, f, tag, what, cross) => {
                steps.push(Step {
                    op: StepOp::FlatMap(f.clone(), cross.clone()),
                    tag: tag.clone(),
                    expr: None,
                    what,
                });
                input.clone()
            }
            PlanOp::Scan(_)
            | PlanOp::Cached(_, _)
            | PlanOp::MapPartitions(_, _, _, _)
            | PlanOp::Union(_, _) => break,
        };
        cur = next;
    }
    steps.reverse();
    Collapsed { base: cur, steps }
}

/// Walker output: shared when no work was needed, owned otherwise.
pub(crate) enum Parts {
    /// Untouched materialized partitions (zero-copy).
    Shared(Arc<Vec<Vec<Value>>>),
    /// Freshly computed partitions.
    Owned(Vec<Vec<Value>>),
}

impl Parts {
    /// The partitions as a slice.
    pub fn as_slice(&self) -> &[Vec<Value>] {
        match self {
            Parts::Shared(p) => p,
            Parts::Owned(p) => p,
        }
    }

    /// Converts into a shared handle without copying owned data.
    pub fn into_arc(self) -> Arc<Vec<Vec<Value>>> {
        match self {
            Parts::Shared(p) => p,
            Parts::Owned(p) => Arc::new(p),
        }
    }
}

/// How the walker pushes rows through a fused step chain: the context's
/// [`Layout`], resolved once per materialization point.
#[derive(Clone, Debug)]
pub(crate) enum DriveMode {
    /// Tuple-at-a-time recursion ([`drive`]): [`Layout::Row`].
    Tuple,
    /// [`Layout::Columnar`], tiles of the given width: eligible chains
    /// (every step carries a [`RowExpr`]) run through typed per-column
    /// loops ([`crate::columnar::drive_columnar`], counting batches on
    /// the carried [`Stats`]); chains with an opaque step fall back to
    /// tuple-at-a-time, per stage.
    Columnar(usize, Arc<Stats>),
}

impl DriveMode {
    /// The drive mode of `ctx`'s layout and tile width.
    fn of(ctx: &Context) -> DriveMode {
        match ctx.layout() {
            Layout::Row => DriveMode::Tuple,
            Layout::Columnar => DriveMode::Columnar(ctx.tile_width(), ctx.stats_arc()),
        }
    }

    fn run(
        &self,
        src: Source<'_>,
        steps: &[Step],
        sink: &mut dyn FnMut(Value) -> Result<()>,
    ) -> Result<()> {
        match self {
            DriveMode::Columnar(b, stats) if crate::columnar::eligible(steps) => {
                crate::columnar::drive_columnar(src, steps, *b, stats, sink)
            }
            _ => src.drive_rows(0..src.len(), steps, sink),
        }
    }

    /// Reduces `src` through `steps` into `acc` with `op`: eligible
    /// chains fold their final column directly
    /// ([`crate::columnar::fold_columnar`]); everything else folds row by
    /// row. Same value and first error either way.
    fn fold(
        &self,
        src: Source<'_>,
        steps: &[Step],
        op: BinOp,
        acc: &mut Option<Value>,
    ) -> Result<()> {
        match self {
            DriveMode::Columnar(b, stats) if crate::columnar::eligible(steps) => {
                crate::columnar::fold_columnar(src, steps, *b, stats, op, acc)
            }
            _ => self.run(src, steps, &mut |row| fold_row(op, acc, row)),
        }
    }

    /// Drives `src` through `steps` and hands each resulting `(key, row)`
    /// pair to `sink` as its two halves — the scatter of a keyed operator
    /// whose rows cross the exchange without their key. An eligible
    /// chain's key and row columns are read where they lie, an `(i, j)`
    /// key of primitive lanes without being boxed
    /// ([`crate::columnar::pairs_columnar`]), so no pair is ever boxed;
    /// everything else splits boxed pairs. Same halves, order and first
    /// error either way.
    fn pairs(
        &self,
        src: Source<'_>,
        steps: &[Step],
        sink: &mut dyn FnMut(Key<'_>, Value) -> Result<()>,
    ) -> Result<()> {
        match self {
            DriveMode::Columnar(b, stats) if crate::columnar::eligible(steps) => {
                crate::columnar::pairs_columnar(src, steps, *b, stats, sink)
            }
            _ => self.run(src, steps, &mut |pair| {
                crate::columnar::split_pair(&pair, sink)
            }),
        }
    }

    /// Feeds `src` through `steps` into the keyed aggregation `fold`:
    /// eligible chains hand over whole tiles
    /// ([`crate::columnar::combine_columnar`]); everything else folds row
    /// by row. Same keys, aggregates and first error either way.
    fn combine(&self, src: Source<'_>, steps: &[Step], fold: &mut KeyedFold<'_>) -> Result<()> {
        match self {
            DriveMode::Columnar(b, stats) if crate::columnar::eligible(steps) => {
                crate::columnar::combine_columnar(src, steps, *b, stats, fold)
            }
            _ => self.run(src, steps, &mut |row| fold.row(&row)),
        }
    }
}

/// Notes a fused stage's execution layout in the plan trace when the
/// engine runs columnar, and counts stages demoted to the row path. Only
/// chains with row steps are classified — a bare scan or consumer stage
/// has nothing to vectorize.
fn note_layout(ctx: &Context, mode: &DriveMode, steps: &[Step]) {
    let DriveMode::Columnar(_, stats) = mode else {
        return;
    };
    if steps.is_empty() {
        return;
    }
    match steps.iter().find(|s| !s.transparent()) {
        None => ctx.plan_note("  layout: columnar".to_string()),
        Some(opaque) => {
            stats.record_row_fallback_stage();
            let why = match &opaque.tag {
                Some(t) => format!("opaque {} from {t}", opaque.what),
                None => format!("opaque {}", opaque.what),
            };
            ctx.plan_note(format!("  layout: row ({why})"));
        }
    }
}

/// Resolves a `Cached` barrier to materialized partitions: a cache hit
/// reads the entry (memory or disk tier); a miss re-derives the inner
/// plan — the lineage replay — and reinserts it under the same slot, so
/// one recompute serves every later reader until the next eviction.
fn resolve_cached(
    ctx: &Context,
    slot: &Arc<crate::dscache::CacheSlot>,
    inner: &Arc<PlanOp>,
    mode: &DriveMode,
) -> Result<Arc<Vec<Vec<Value>>>> {
    let cache = slot.cache();
    if let Some(parts) = cache.get(slot.id(), ctx)? {
        return Ok(parts);
    }
    let parts = materialize_with(ctx, inner, &[], mode)?.into_arc();
    cache.insert(slot.id(), parts.clone(), ctx)?;
    Ok(parts)
}

/// The partitions a base already holds: a `Scan`'s, or a `Cached`
/// barrier's once resolved. `None` for a base that must run first.
fn scanned(
    ctx: &Context,
    base: &Arc<PlanOp>,
    mode: &DriveMode,
) -> Result<Option<Arc<Vec<Vec<Value>>>>> {
    match base.as_ref() {
        PlanOp::Scan(parts) => Ok(Some(parts.clone())),
        PlanOp::Cached(slot, inner) => resolve_cached(ctx, slot, inner, mode).map(Some),
        _ => Ok(None),
    }
}

/// Materializes a plan into partitions, fusing every narrow chain into one
/// physical stage per `Scan`/`Cached`/`MapPartitions`/`Union` segment.
pub(crate) fn materialize(ctx: &Context, plan: &Arc<PlanOp>) -> Result<Parts> {
    crate::verify::verify_plan(plan)?;
    materialize_with(ctx, plan, &[], &DriveMode::of(ctx))
}

/// [`materialize`] with extra steps appended after the plan's own rows —
/// how steps above a `Union` are pushed down into both branches.
fn materialize_with(
    ctx: &Context,
    plan: &Arc<PlanOp>,
    extra: &[Step],
    mode: &DriveMode,
) -> Result<Parts> {
    let Collapsed { base, steps } = collapse(plan);
    let mut all = steps;
    all.extend(extra.iter().cloned());
    if let Some(parts) = scanned(ctx, &base, mode)? {
        if all.is_empty() {
            return Ok(Parts::Shared(parts));
        }
        let out = run_fused_stage(ctx, &parts, None, &all, "materialize", mode)?;
        return Ok(Parts::Owned(out));
    }
    match base.as_ref() {
        PlanOp::MapPartitions(input, f, label, tag) => {
            let inp = materialize_with(ctx, input, &[], mode)?;
            let out = run_fused_stage(
                ctx,
                inp.as_slice(),
                Some((f.clone(), label, tag.clone())),
                &all,
                "materialize",
                mode,
            )?;
            Ok(Parts::Owned(out))
        }
        PlanOp::Union(_, _) => {
            // Read every operand in place through segments and build the
            // owned output partitions in one fused stage: each surviving
            // row is cloned exactly once, into its destination partition —
            // no side is materialized into intermediate combined
            // partitions first.
            let mut sources: Vec<(Parts, Vec<Step>)> = Vec::new();
            let mut virt: Vec<Vec<(usize, usize)>> = Vec::new();
            flatten_union(ctx, &base, &all, &mut sources, &mut virt, mode)?;
            ctx.record_physical_stage();
            let stage = ctx.stats().snapshot().physical_stages;
            ctx.plan_note(format!(
                "stage {stage}: union[{} sources, {} partitions] ⇒ materialize (read in place)",
                sources.len(),
                virt.len()
            ));
            let out = run_stage_weighted(
                ctx,
                &virt,
                |i| {
                    virt[i]
                        .iter()
                        .map(|&(src, p)| sources[src].0.as_slice()[p].len() as u64)
                        .sum()
                },
                |_, segs: &Vec<(usize, usize)>, cancel| {
                    let mut part = Vec::new();
                    let mut sink = cancellable_sink(cancel, |v| part.push(v));
                    for &(src, p) in segs {
                        let rows = Source::Rows(&sources[src].0.as_slice()[p]);
                        mode.run(rows, &sources[src].1, &mut sink)?;
                    }
                    drop(sink);
                    Ok(part)
                },
            )?;
            Ok(Parts::Owned(out))
        }
        // collapse() never returns a row node as base.
        _ => Err(RuntimeError::new("corrupt plan: row node as base")),
    }
}

/// Runs one fused physical stage: per partition, optionally apply a
/// partition-level function, then drive every row through `steps`. Each
/// partition is one item on the work-stealing pool.
fn run_fused_stage(
    ctx: &Context,
    input: &[Vec<Value>],
    prelude: Option<(PartOp, &'static str, Tag)>,
    steps: &[Step],
    label: &str,
    mode: &DriveMode,
) -> Result<Vec<Vec<Value>>> {
    ctx.record_physical_stage();
    ctx.plan_note(describe_stage(
        ctx,
        input.len(),
        prelude.as_ref().map(|(_, l, t)| (*l, t.clone())),
        steps,
        label,
    ));
    note_layout(ctx, mode, steps);
    let prelude = prelude.map(|(f, _, tag)| (f, tag));
    run_stage_weighted(
        ctx,
        input,
        |i| input[i].len() as u64,
        |_, part: &Vec<Value>, cancel| {
            let mut out = Vec::with_capacity(part.len());
            let mut sink = cancellable_sink(cancel, |v| out.push(v));
            match &prelude {
                Some((op, tag)) => {
                    op.run(part, tag, mode, |src| mode.run(src, steps, &mut sink))?
                }
                None => mode.run(Source::Rows(part), steps, &mut sink)?,
            }
            drop(sink);
            Ok(out)
        },
    )
}

/// Runs `task` once per partition over the plan's *transformed* rows, in
/// one fused physical stage whenever the base permits: a `Scan`, a tree of
/// `Union`s over scans, or a `MapPartitions` whose own input is a scan
/// (the shuffle-read fusion — the post-shuffle reduce runs inside the
/// consumer's stage). `task` receives the partition index and a
/// [`PartitionRows`] cursor; this is how shuffles and reductions consume a
/// pending chain without an intermediate materialization — for unions,
/// without copying either operand.
pub(crate) fn consume<R, F>(
    ctx: &Context,
    plan: &Arc<PlanOp>,
    label: &str,
    task: F,
) -> Result<Vec<R>>
where
    R: Send,
    F: Fn(usize, &PartitionRows<'_>) -> Result<R> + Sync,
{
    crate::verify::verify_plan(plan)?;
    let mode = &DriveMode::of(ctx);
    let Collapsed { base, steps } = collapse(plan);
    if let Some(parts) = scanned(ctx, &base, mode)? {
        ctx.record_physical_stage();
        ctx.plan_note(describe_stage(ctx, parts.len(), None, &steps, label));
        note_layout(ctx, mode, &steps);
        return run_stage_weighted(
            ctx,
            &parts,
            |i| parts[i].len() as u64,
            |p, part: &Vec<Value>, _| {
                task(p, &PartitionRows::one(Source::Rows(part), &steps, mode))
            },
        );
    }
    match base.as_ref() {
        PlanOp::MapPartitions(input, op, plabel, tag) => {
            // Shuffle-read fusion: when the prelude's input is already
            // materialized (a scan — e.g. gathered shuffle buckets — or a
            // cached barrier, resolved through the dataset cache), the
            // partition-level function, the fused chain above it, and the
            // consumer all run in ONE stage.
            let inner = collapse(input);
            if let Some(parts) = scanned(ctx, &inner.base, mode)? {
                ctx.record_physical_stage();
                ctx.plan_note(describe_stage(
                    ctx,
                    parts.len(),
                    Some((*plabel, tag.clone())),
                    &steps,
                    label,
                ));
                // Both fused chains of this stage get a layout verdict:
                // the one feeding the prelude and the one above it.
                note_layout(ctx, mode, &inner.steps);
                note_layout(ctx, mode, &steps);
                let lower = &inner.steps;
                // Steps below the prelude feed it a materialized Vec.
                let feed = |part: &[Value], then: &mut dyn FnMut(&[Value]) -> Result<R>| {
                    if lower.is_empty() {
                        return then(part);
                    }
                    let mut buf = Vec::with_capacity(part.len());
                    mode.run(Source::Rows(part), lower, &mut |v| {
                        buf.push(v);
                        Ok(())
                    })?;
                    then(&buf)
                };
                return run_stage_weighted(
                    ctx,
                    &parts,
                    |i| parts[i].len() as u64,
                    |p, part: &Vec<Value>, _| {
                        feed(part, &mut |fed| {
                            op.run(fed, tag, mode, |src| {
                                task(p, &PartitionRows::one(src, &steps, mode))
                            })
                        })
                    },
                );
            }
            // Deep prelude (its input is itself unforced): materialize it
            // (fusing inside), then run the consumer as one more stage.
            let inp = materialize_with(ctx, &base, &steps, mode)?;
            let parts = inp.as_slice();
            ctx.record_physical_stage();
            ctx.plan_note(describe_stage(ctx, parts.len(), None, &[], label));
            run_stage_weighted(
                ctx,
                parts,
                |i| parts[i].len() as u64,
                |i, part: &Vec<Value>, _| {
                    task(i, &PartitionRows::one(Source::Rows(part), &[], mode))
                },
            )
        }
        PlanOp::Union(_, _) => {
            // Read all operands in place: each virtual partition is a
            // list of (source, partition) segments folded together with
            // the eager engine's `i % n` composition, each carrying its
            // own fused step chain. No operand is copied.
            let mut sources: Vec<(Parts, Vec<Step>)> = Vec::new();
            let mut virt: Vec<Vec<(usize, usize)>> = Vec::new();
            flatten_union(ctx, &base, &steps, &mut sources, &mut virt, mode)?;
            ctx.record_physical_stage();
            let stage = ctx.stats().snapshot().physical_stages;
            ctx.plan_note(format!(
                "stage {stage}: union[{} sources, {} partitions] ⇒ {label} (read in place)",
                sources.len(),
                virt.len()
            ));
            run_stage_weighted(
                ctx,
                &virt,
                |i| {
                    virt[i]
                        .iter()
                        .map(|&(src, p)| sources[src].0.as_slice()[p].len() as u64)
                        .sum()
                },
                |i, segs: &Vec<(usize, usize)>, _| {
                    let segments = segs
                        .iter()
                        .map(|&(src, part)| Segment {
                            src: Source::Rows(&sources[src].0.as_slice()[part]),
                            steps: &sources[src].1,
                        })
                        .collect();
                    task(
                        i,
                        &PartitionRows {
                            segments,
                            mode: mode.clone(),
                        },
                    )
                },
            )
        }
        // collapse() never returns a row node as base.
        _ => Err(RuntimeError::new("corrupt plan: row node as base")),
    }
}

/// Flattens a tree of `Union` nodes into shared sources plus virtual
/// partitions (lists of `(source, partition)` indices), pushing the fused
/// steps above each branch down into its segments. The right operand's
/// partitions fold into the left's by index modulo the left's partition
/// count — the same composition the eager engine produced by extending
/// partition vectors, but without moving a row.
fn flatten_union(
    ctx: &Context,
    plan: &Arc<PlanOp>,
    extra: &[Step],
    sources: &mut Vec<(Parts, Vec<Step>)>,
    virt: &mut Vec<Vec<(usize, usize)>>,
    mode: &DriveMode,
) -> Result<()> {
    let Collapsed { base, steps } = collapse(plan);
    let mut all = steps;
    all.extend(extra.iter().cloned());
    // A cached operand reads in place like a scan once resolved.
    if let Some(parts) = scanned(ctx, &base, mode)? {
        let src = sources.len();
        virt.extend((0..parts.len()).map(|p| vec![(src, p)]));
        sources.push((Parts::Shared(parts), all));
        return Ok(());
    }
    match base.as_ref() {
        PlanOp::Union(l, r) => {
            let start = virt.len();
            flatten_union(ctx, l, &all, sources, virt, mode)?;
            let n = virt.len() - start;
            let mut rvirt: Vec<Vec<(usize, usize)>> = Vec::new();
            flatten_union(ctx, r, &all, sources, &mut rvirt, mode)?;
            if n == 0 {
                virt.extend(rvirt);
            } else {
                for (j, segs) in rvirt.into_iter().enumerate() {
                    virt[start + (j % n)].extend(segs);
                }
            }
            Ok(())
        }
        _ => {
            // MapPartitions under a union: materialize just this branch.
            let parts = materialize_with(ctx, &base, &all, mode)?;
            let src = sources.len();
            let n = parts.as_slice().len();
            sources.push((parts, Vec::new()));
            virt.extend((0..n).map(|p| vec![(src, p)]));
            Ok(())
        }
    }
}

/// One run of source rows with the fused chain still to be applied.
struct Segment<'a> {
    src: Source<'a>,
    steps: &'a [Step],
}

/// The rows of one (possibly union-composed) partition, as presented to a
/// [`consume`] task.
pub(crate) struct PartitionRows<'a> {
    segments: Vec<Segment<'a>>,
    mode: DriveMode,
}

impl<'a> PartitionRows<'a> {
    /// One run of rows with its chain still to apply.
    fn one(src: Source<'a>, steps: &'a [Step], mode: &DriveMode) -> PartitionRows<'a> {
        PartitionRows {
            segments: vec![Segment { src, steps }],
            mode: mode.clone(),
        }
    }

    /// Feeds every transformed row to `sink`, segment by segment.
    pub fn for_each(&self, sink: &mut dyn FnMut(Value) -> Result<()>) -> Result<()> {
        for seg in &self.segments {
            self.mode.run(seg.src, seg.steps, sink)?;
        }
        Ok(())
    }

    /// Reduces the transformed rows with `op`, left to right, without
    /// handing them out one by one: in the columnar layout an eligible
    /// chain's last column is folded as a typed lane. `None` when no row
    /// survives.
    pub fn fold(&self, op: BinOp) -> Result<Option<Value>> {
        let mut acc = None;
        for seg in &self.segments {
            self.mode.fold(seg.src, seg.steps, op, &mut acc)?;
        }
        Ok(acc)
    }

    /// Feeds every transformed row — a `(key, row)` pair — to `sink` as
    /// its key and its row, segment by segment: what a keyed scatter needs
    /// to pick a bucket and send the row on as itself. In the columnar
    /// layout an eligible chain never boxes the pair, nor a tuple key
    /// of primitive lanes.
    pub fn for_each_pair(&self, sink: &mut dyn FnMut(Key<'_>, Value) -> Result<()>) -> Result<()> {
        for seg in &self.segments {
            self.mode.pairs(seg.src, seg.steps, sink)?;
        }
        Ok(())
    }

    /// Aggregates the transformed rows by key — rows `(key, (v1, …, vn))`,
    /// one monoid of `ops` per value field — and hands each distinct key
    /// and its tuple of aggregates to `emit` in first-seen order: the
    /// map-side combine of a keyed aggregation. In the columnar layout an
    /// eligible chain's key column is hashed in place and its value lanes
    /// fold into typed per-key accumulators; only the emitted aggregates
    /// are boxed.
    pub fn combine(
        &self,
        ops: &[BinOp],
        emit: &mut dyn FnMut(Value, Value) -> Result<()>,
    ) -> Result<()> {
        let mut fold = KeyedFold::new(ops);
        for seg in &self.segments {
            self.mode.combine(seg.src, seg.steps, &mut fold)?;
        }
        fold.finish(emit)
    }
}

fn describe_stage(
    ctx: &Context,
    parts: usize,
    prelude: Option<(&'static str, Tag)>,
    steps: &[Step],
    label: &str,
) -> String {
    let mut chain = String::new();
    let mut tags: Vec<Arc<str>> = Vec::new();
    let note_tag = |tags: &mut Vec<Arc<str>>, t: &Tag| {
        if let Some(t) = t {
            if !tags.iter().any(|x| x == t) {
                tags.push(t.clone());
            }
        }
    };
    if let Some((plabel, ptag)) = &prelude {
        chain.push_str(" → ");
        chain.push_str(plabel);
        note_tag(&mut tags, ptag);
    }
    for s in steps {
        chain.push_str(" → ");
        chain.push_str(s.label());
        note_tag(&mut tags, &s.tag);
    }
    let fused = steps.len() + usize::from(prelude.is_some());
    let stage = ctx.stats().snapshot().physical_stages;
    let mut out = if fused > 1 {
        format!("stage {stage}: scan[{parts}p]{chain} ⇒ {label} (fused {fused} narrow ops)")
    } else {
        format!("stage {stage}: scan[{parts}p]{chain} ⇒ {label}")
    };
    if tags.len() > 1 {
        out.push_str(&format!(
            " [spans stmts: {}]",
            tags.iter()
                .map(|t| t.as_ref())
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    out
}

/// Renders a pending (unforced) plan as an indented tree — the narrow
/// chains a materialization point would fuse.
pub(crate) fn render(plan: &Arc<PlanOp>, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    let Collapsed { base, steps } = collapse(plan);
    match base.as_ref() {
        PlanOp::Scan(parts) => {
            out.push_str(&format!("{pad}scan[{}p]", parts.len()));
        }
        PlanOp::Cached(_, inner) => {
            out.push_str(&format!("{pad}cached("));
            let mut body = String::new();
            render(inner, 0, &mut body);
            out.push_str(&body);
            out.push(')');
        }
        PlanOp::MapPartitions(input, _, label, _) => {
            render(input, indent, out);
            out.push_str(" → ");
            out.push_str(label);
        }
        PlanOp::Union(l, r) => {
            out.push_str(&format!("{pad}union:\n"));
            render(l, indent + 1, out);
            out.push('\n');
            render(r, indent + 1, out);
        }
        // collapse() never returns a row node as base.
        PlanOp::Map(..) | PlanOp::Filter(..) | PlanOp::FlatMap(..) => {}
    }
    for s in &steps {
        out.push_str(" → ");
        out.push_str(s.label());
    }
    if steps.len() > 1 {
        out.push_str(&format!(" (1 fused stage, {} ops)", steps.len()));
    }
}
