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
//! Narrow operators (`map`, `filter`, `flat_map`) never run
//! when called — they append a node to the plan. At a *materialization
//! point* (a shuffle, `collect`, `reduce`, `broadcast`) the walker
//! collapses every pending
//! chain of row-level nodes into one [`Step`] list and runs it as a single
//! physical stage per partition, feeding each transformed row into a sink
//! without materializing any per-operator intermediate `Vec<Value>`.
//!
//! The post-shuffle work of every keyed operator is a lazy
//! [`PlanOp::Shuffled`] node over the gathered buckets, so the
//! shuffle-*read* side fuses with the next narrow chain too:
//! `reduce_by_key → map → shuffle` is two physical stages (combine +
//! scatter, then reduce + map + scatter), not three, and so is
//! `reduce_by_key → map → collect`. The node holds each bucket as the
//! exchange built it ([`Bucket`]): one [`Chunk`](crate::chunk::Chunk) per
//! partition, or a left and a right chunk for a two-sided operator, each
//! either boxed rows or typed lanes. The reduce folds its lanes, the
//! merge and the join's build–probe key on them, and group-by and the §5
//! block operators read rows; so dropping the node frees a few vectors
//! per bucket instead of one boxed row per exchanged row. A join's
//! post-shuffle node ([`PartOp::Join`]) hands the chain above it the
//! join's match list rather than rows ([`Source::Matches`]): a columnar
//! chain gathers its columns from the two bucket sides, anything else
//! makes each match's row as it reads it.
//!
//! A stage runs one way: [`consume`] sets it up — one item per partition
//! of a scanned, cached or shuffled base — and hands each partition's
//! rows to a task; [`materialize`] is `consume` with a task that collects
//! them. Every task drives its rows into a [`TileSink`] through the one
//! [`DriveMode::drive`].
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

use std::borrow::Cow;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use diablo_runtime::{BinOp, RuntimeError, Value};

use crate::chunk::Bucket;
use crate::columnar::{Probe, RowExpr, RowSink, TileSink, TotalFold};
use crate::join::{Join, Matches};
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
/// A bucket-at-a-time transformation stored in the plan.
pub(crate) type PartFn = Arc<dyn Fn(&Bucket) -> Result<Vec<Value>> + Send + Sync>;

/// What a partition-wise node makes of one partition.
#[derive(Clone)]
pub(crate) enum PartOp {
    /// New rows, from a function of the bucket.
    Rows(PartFn),
    /// A join's matches over one bucket pair: rows the fused chain above
    /// reads without their being built ([`Source::Matches`]).
    Join(Arc<Join>),
}

impl PartOp {
    /// Runs the node over one bucket and hands `then` its output as a
    /// [`Source`]; an error of the node itself carries the node's tag.
    fn run<R>(
        &self,
        bucket: &Bucket,
        tag: &Tag,
        mode: &DriveMode,
        then: impl FnOnce(Source<'_>) -> Result<R>,
    ) -> Result<R> {
        match self {
            PartOp::Rows(f) => then(Source::Rows(&f(bucket).map_err(|e| tag_opt(e, tag))?)),
            PartOp::Join(join) => {
                let columnar = matches!(mode, DriveMode::Columnar(..));
                let matches = bucket
                    .two()
                    .and_then(|(l, r)| join.matches(l, r, columnar))
                    .map_err(|e| tag_opt(e, tag))?;
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
                .try_for_each(|row| drive(Cow::Borrowed(row), steps, sink)),
            Source::Matches(m) => range
                .into_iter()
                .try_for_each(|k| drive(Cow::Owned(m.row(k)?), steps, sink)),
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
    /// [`Probe`], the transparent expansion the closure was derived from.
    FlatMap(
        Arc<PlanOp>,
        RowFlatFn,
        Tag,
        &'static str,
        Option<Arc<Probe>>,
    ),
    /// Gathered shuffle buckets — one per partition, each one chunk or a
    /// left and a right chunk, as the exchange built them — and the
    /// bucket-wise work that reads them, fused with the steps above it.
    /// The `&'static str` names the operator for plan traces
    /// (`reduce_by_key (reduce)`, `merge ⊳ (combine slots)`, …).
    Shuffled(Arc<Vec<Bucket>>, PartOp, &'static str, Tag),
    /// An unforced dataset's plan as a derivation reads it: the inner
    /// plan's rows, plus that dataset's *ran* fact, which [`consume`] sets
    /// once a stage that fused the inner plan has finished on every
    /// partition without error ([`Dataset::has_run`]).
    ///
    /// [`Dataset::has_run`]: crate::Dataset::has_run
    Pending(Arc<PlanOp>, Arc<AtomicBool>),
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
    FlatMap(RowFlatFn, Option<Arc<Probe>>),
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
    pub(crate) fn probe(&self) -> Option<&Probe> {
        match &self.op {
            StepOp::FlatMap(_, probe) => probe.as_deref(),
            _ => None,
        }
    }

    /// True when the step is described by data — a [`RowExpr`] or a
    /// [`Probe`] — so a columnar stage can run it.
    pub(crate) fn transparent(&self) -> bool {
        self.expr.is_some() || self.probe().is_some()
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
/// iterates its expansion in place. A borrowed row is cloned only if it
/// reaches the sink as it is.
pub(crate) fn drive(
    row: Cow<'_, Value>,
    steps: &[Step],
    sink: &mut dyn FnMut(Value) -> Result<()>,
) -> Result<()> {
    let Some((s, rest)) = steps.split_first() else {
        return sink(row.into_owned());
    };
    match &s.op {
        StepOp::Map(f) => drive(Cow::Owned(f(&row).map_err(|e| s.tag_err(e))?), rest, sink),
        StepOp::Filter(f) => {
            if f(&row).map_err(|e| s.tag_err(e))? {
                drive(row, rest, sink)?;
            }
            Ok(())
        }
        StepOp::FlatMap(f, _) => f(&row)
            .map_err(|e| s.tag_err(e))?
            .into_iter()
            .try_for_each(|v| drive(Cow::Owned(v), rest, sink)),
    }
}

/// A plan collapsed to a base node plus the fused row steps above it.
pub(crate) struct Collapsed {
    /// The deepest non-row node: `Scan`, `Cached` or `Shuffled`.
    pub base: Arc<PlanOp>,
    /// Row steps to apply to the base's rows, in execution order.
    pub steps: Vec<Step>,
    /// The ran facts of the pending datasets whose plans the chain holds.
    pub ran: Vec<Arc<AtomicBool>>,
}

/// Walks `Map`/`Filter`/`FlatMap` (and `Pending`) nodes down to the
/// nearest barrier.
pub(crate) fn collapse(plan: &Arc<PlanOp>) -> Collapsed {
    let mut steps: Vec<Step> = Vec::new();
    let mut ran = Vec::new();
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
            PlanOp::FlatMap(input, f, tag, what, probe) => {
                steps.push(Step {
                    op: StepOp::FlatMap(f.clone(), probe.clone()),
                    tag: tag.clone(),
                    expr: None,
                    what,
                });
                input.clone()
            }
            PlanOp::Pending(inner, fact) => {
                ran.push(fact.clone());
                inner.clone()
            }
            PlanOp::Scan(_) | PlanOp::Cached(_, _) | PlanOp::Shuffled(..) => break,
        };
        cur = next;
    }
    steps.reverse();
    Collapsed {
        base: cur,
        steps,
        ran,
    }
}

/// Walker output: shared when no work was needed, owned otherwise.
pub(crate) enum Parts {
    /// Untouched materialized partitions (zero-copy).
    Shared(Arc<Vec<Vec<Value>>>),
    /// Freshly computed partitions.
    Owned(Vec<Vec<Value>>),
}

impl Parts {
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
pub(crate) enum DriveMode {
    /// Tuple-at-a-time recursion ([`drive`]): [`Layout::Row`].
    Tuple,
    /// [`Layout::Columnar`], tiles of the given width: eligible chains
    /// (every step transparent) run tile by tile through typed
    /// per-column loops ([`crate::columnar::drive_tiles`], counting
    /// batches on the carried [`Stats`]); chains with an opaque step fall
    /// back to tuple-at-a-time, per stage.
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

    /// Drives `src` through `steps` into `sink`: whole tiles when the
    /// chain is columnar-eligible, one row at a time into
    /// [`TileSink::row`] otherwise. Same output, order and first error
    /// (statement tag included) either way.
    fn drive(&self, src: Source<'_>, steps: &[Step], sink: &mut impl TileSink) -> Result<()> {
        match self {
            DriveMode::Columnar(b, stats) if crate::columnar::eligible(steps) => {
                crate::columnar::drive_tiles(src, steps, *b, stats, sink)
            }
            _ => src.drive_rows(0..src.len(), steps, &mut |row| sink.row(row)),
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
) -> Result<Arc<Vec<Vec<Value>>>> {
    let cache = slot.cache();
    if let Some(parts) = cache.get(slot.id(), ctx)? {
        return Ok(parts);
    }
    let parts = materialize(ctx, inner)?.into_arc();
    cache.insert(slot.id(), parts.clone(), ctx)?;
    Ok(parts)
}

/// Materializes a plan into partitions: the partitions a scanned or
/// cached base already holds when no step is pending (zero-copy), else one
/// fused stage that collects each partition's transformed rows.
pub(crate) fn materialize(ctx: &Context, plan: &Arc<PlanOp>) -> Result<Parts> {
    crate::verify::verify_plan(plan)?;
    let Collapsed { base, steps, .. } = collapse(plan);
    if steps.is_empty() {
        match base.as_ref() {
            PlanOp::Scan(parts) => return Ok(Parts::Shared(parts.clone())),
            PlanOp::Cached(slot, inner) => {
                return resolve_cached(ctx, slot, inner).map(Parts::Shared)
            }
            _ => {}
        }
    }
    consume(ctx, plan, "materialize", |_, rows, cancel| {
        let mut out = Vec::with_capacity(rows.src.len());
        rows.for_each(&mut cancellable_sink(cancel, |v| out.push(v)))?;
        Ok(out)
    })
    .map(Parts::Owned)
}

/// Runs `task` once per partition over the plan's *transformed* rows, in
/// one fused physical stage: the base's partitions (a `Scan`'s, or a
/// `Cached` barrier's once resolved) or its shuffled buckets with the
/// post-shuffle work in front of the chain (the shuffle-read fusion — the
/// post-shuffle reduce runs inside the consumer's stage). Each partition
/// is one item on the work-stealing pool; `task` receives its index, a
/// [`PartitionRows`] cursor, and the item's cancellation poll. This is
/// how shuffles, reductions and [`materialize`] consume a pending chain
/// without an intermediate materialization.
///
/// Once every partition has finished without error, the stage records
/// that it ran each pending dataset's plan it fused ([`PlanOp::Pending`]);
/// a failed or cancelled stage records nothing.
pub(crate) fn consume<R, F>(
    ctx: &Context,
    plan: &Arc<PlanOp>,
    label: &str,
    task: F,
) -> Result<Vec<R>>
where
    R: Send,
    F: Fn(usize, &PartitionRows<'_>, &Cancel<'_>) -> Result<R> + Sync,
{
    crate::verify::verify_plan(plan)?;
    let mode = &DriveMode::of(ctx);
    let Collapsed { base, steps, ran } = collapse(plan);
    let run = |p: usize, src: Source<'_>, cancel: &Cancel<'_>| {
        let steps = &steps;
        task(p, &PartitionRows { src, steps, mode }, cancel)
    };
    let out = match base.as_ref() {
        PlanOp::Shuffled(buckets, op, op_label, tag) => {
            let prelude = Some((*op_label, tag));
            note_stage(ctx, mode, buckets.len(), prelude, &steps, label);
            let weight = |i: usize| buckets[i].len() as u64;
            run_stage_weighted(ctx, buckets, weight, |p, bucket, cancel| {
                op.run(bucket, tag, mode, |src| run(p, src, cancel))
            })?
        }
        base => {
            let parts = match base {
                PlanOp::Scan(parts) => parts.clone(),
                PlanOp::Cached(slot, inner) => resolve_cached(ctx, slot, inner)?,
                // collapse() never returns a row node as base.
                _ => return Err(RuntimeError::new("corrupt plan: row node as base")),
            };
            note_stage(ctx, mode, parts.len(), None, &steps, label);
            let weight = |i: usize| parts[i].len() as u64;
            run_stage_weighted(ctx, &parts, weight, |p, part: &Vec<Value>, cancel| {
                run(p, Source::Rows(part), cancel)
            })?
        }
    };
    for fact in &ran {
        fact.store(true, Ordering::Release);
    }
    Ok(out)
}

/// Records a stage over `parts` partitions and notes it in the plan
/// trace, with its layout.
fn note_stage(
    ctx: &Context,
    mode: &DriveMode,
    parts: usize,
    prelude: Option<(&str, &Tag)>,
    steps: &[Step],
    label: &str,
) {
    ctx.record_physical_stage();
    ctx.plan_note(describe_stage(ctx, parts, prelude, steps, label));
    note_layout(ctx, mode, steps);
}

/// The rows of one partition, with the fused chain still to apply, as
/// presented to a [`consume`] task.
pub(crate) struct PartitionRows<'a> {
    src: Source<'a>,
    steps: &'a [Step],
    mode: &'a DriveMode,
}

impl PartitionRows<'_> {
    /// Drives every transformed row into `sink` ([`DriveMode::drive`]).
    pub fn drive(&self, sink: &mut impl TileSink) -> Result<()> {
        self.mode.drive(self.src, self.steps, sink)
    }

    /// True on the columnar layout, whose keyed scatters send lanes.
    pub fn columnar(&self) -> bool {
        matches!(self.mode, DriveMode::Columnar(..))
    }

    /// Feeds every transformed row to `sink`.
    pub fn for_each(&self, sink: &mut dyn FnMut(Value) -> Result<()>) -> Result<()> {
        self.drive(&mut RowSink(sink))
    }

    /// Reduces the transformed rows with `op`, left to right, into one
    /// accumulator slot ([`TotalFold`]): an eligible chain's last column
    /// is folded as a typed lane. `None` when no row survives.
    pub fn fold(&self, op: BinOp) -> Result<Option<Value>> {
        let mut fold = TotalFold::new(&op);
        self.drive(&mut fold)?;
        Ok(fold.finish())
    }
}

fn describe_stage(
    ctx: &Context,
    parts: usize,
    prelude: Option<(&str, &Tag)>,
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

/// Renders a pending (unforced) plan as one line — the narrow chains a
/// materialization point would fuse.
pub(crate) fn render(plan: &Arc<PlanOp>, out: &mut String) {
    let Collapsed { base, steps, .. } = collapse(plan);
    match base.as_ref() {
        PlanOp::Scan(parts) => {
            out.push_str(&format!("scan[{}p]", parts.len()));
        }
        PlanOp::Cached(_, inner) => {
            out.push_str("cached(");
            render(inner, out);
            out.push(')');
        }
        PlanOp::Shuffled(buckets, _, label, _) => {
            out.push_str(&format!("scan[{}p] → {label}", buckets.len()));
        }
        // collapse() never returns a row node as base.
        PlanOp::Map(..) | PlanOp::Filter(..) | PlanOp::FlatMap(..) | PlanOp::Pending(..) => {}
    }
    for s in &steps {
        out.push_str(" → ");
        out.push_str(s.label());
    }
    if steps.len() > 1 {
        out.push_str(&format!(" (1 fused stage, {} ops)", steps.len()));
    }
}
