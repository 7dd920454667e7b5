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
//! Narrow operators (`map`, `filter`, `flat_map`, a fold per row) never
//! run when called — each appends one [`PlanOp::Step`] node to the plan,
//! holding its [`Step`]. A step is its data: a [`RowExpr`], a [`Probe`] or
//! a [`RowFold`], which the row path evaluates and a columnar stage lowers
//! to lane loops; only an opaque UDF holds a closure ([`StepOp::Udf`]). At
//! a *materialization point* (a shuffle, `collect`, `reduce`, `broadcast`)
//! the walker collapses every pending chain of step nodes into one
//! [`Step`] list and runs it as a single physical stage per partition,
//! feeding each transformed row into a sink without materializing any
//! per-operator intermediate `Vec<Value>`.
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
//! post-shuffle node ([`PartOp::Join`]) builds one [`Probe`] from the
//! right chunk and hands the chain the left chunk as it arrived
//! ([`Source::Chunk`]), behind one more step that probes it: a columnar
//! chain reads the left chunk's lanes tile by tile and the probe gathers
//! each match's columns by index, and the row path boxes each left row as
//! it enters the chain.
//!
//! A stage runs one way: [`consume`] sets it up — one item per partition
//! of a scanned, cached or shuffled base — and hands each partition's
//! rows to a task; [`materialize`] is `consume` with a task that collects
//! them, and moves each partition's rows into one [`Base`]. Every task
//! drives its rows into a [`TileSink`] through the one
//! [`DriveMode::drive`].
//!
//! Rows at rest have that one form: base data a caller bound, a forced
//! dataset, and a dataset-cache entry are each a [`Base`] — one row
//! vector and the ends of its partitions — and a `Scan` and a `Cached`
//! barrier are read through the same [`Base::parts`].
//!
//! Every step carries an optional **statement tag** — the source
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

use crate::chunk::{Bucket, Chunk};
use crate::columnar::{condition, Probe, RowExpr, RowFold, RowSink, TileSink, TotalFold};
use crate::pool::{run_stage_weighted, Cancel};
use crate::stats::Stats;
use crate::{Context, JoinOn, Layout};

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
/// A bucket-at-a-time transformation stored in the plan: the bucket's
/// index among the partitions, and the bucket.
pub(crate) type PartFn = Arc<dyn Fn(usize, &Bucket) -> Result<Vec<Value>> + Send + Sync>;

/// What a partition-wise node makes of one partition.
#[derive(Clone)]
pub(crate) enum PartOp {
    /// New rows, from a function of the bucket.
    Rows(PartFn),
    /// A partitioned join's build–probe over one bucket pair: a [`Probe`]
    /// built from the right chunk, whose rows are the tuples of the
    /// leaves `on.right` binds, and probed by the left chunk's rows ahead
    /// of the fused chain.
    Join(Arc<JoinOn>),
}

impl PartOp {
    /// Runs the node over bucket `p` and hands `then` its output as a
    /// [`Source`] and the chain to drive it through: `steps`, behind the
    /// join's probe step for a join. An error of the node itself, the
    /// probe's included, carries the node's tag.
    fn run<R>(
        &self,
        p: usize,
        bucket: &Bucket,
        tag: &Tag,
        steps: &[Step],
        then: impl FnOnce(Source<'_>, &[Step]) -> Result<R>,
    ) -> Result<R> {
        match self {
            PartOp::Rows(f) => {
                let rows = f(p, bucket).map_err(|e| tag_opt(e, tag))?;
                then(Source::Rows(&rows), steps)
            }
            PartOp::Join(on) => {
                let (left, right) = bucket.two().map_err(|e| tag_opt(e, tag))?;
                // A left row that is no tuple fails the bucket before any
                // step runs, whether or not its key matches.
                left.tuples().map_err(|e| tag_opt(e, tag))?;
                let probe = Step {
                    op: StepOp::Probe(Arc::new(Probe::bucket(right, on))),
                    tag: tag.clone(),
                };
                let steps: Vec<Step> = std::iter::once(probe)
                    .chain(steps.iter().cloned())
                    .collect();
                then(Source::Chunk(left), &steps)
            }
        }
    }
}

/// The input of a fused chain: rows that exist, or a shuffled chunk's
/// rows, read from its lanes and boxed only where the chain needs them.
#[derive(Clone, Copy)]
pub(crate) enum Source<'a> {
    Rows(&'a [Value]),
    Chunk(&'a Chunk),
}

impl Source<'_> {
    /// The number of input rows.
    pub(crate) fn len(&self) -> usize {
        match self {
            Source::Rows(rows) => rows.len(),
            Source::Chunk(chunk) => chunk.len(),
        }
    }

    /// Drives the input rows in `range` through `steps` tuple-at-a-time;
    /// a chunk's row is boxed as it enters the chain.
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
            Source::Chunk(chunk) => range
                .into_iter()
                .try_for_each(|i| drive(chunk.lanes.at(i), steps, sink)),
        }
    }
}

/// The source-statement tag of a plan node (`None` outside a driver
/// session).
pub(crate) type Tag = Option<Arc<str>>;

/// Rows at rest, in one vector cut into partitions at `ends` (partition
/// `i` is `rows[ends[i - 1]..ends[i]]`): the rows a caller bound, in the
/// vector it built, and the rows of every materialized or cached dataset.
/// Binding rows moves the vector in, not its rows; a materialization
/// moves its partitions' rows into one vector ([`Base::joined`]); and
/// every reader of a [`PlanOp::Scan`] or a [`PlanOp::Cached`] barrier
/// reads a partition where it lies, through [`Base::part`].
#[derive(Clone)]
pub(crate) struct Base {
    rows: Arc<Vec<Value>>,
    ends: Arc<[usize]>,
}

impl Base {
    /// `rows` cut into `p` partitions of `⌈n / p⌉` rows, the last ones
    /// short or empty.
    pub(crate) fn even(rows: Arc<Vec<Value>>, p: usize) -> Base {
        let n = rows.len();
        let chunk = n.div_ceil(p).max(1);
        let ends = (1..=p).map(|i| (i * chunk).min(n)).collect();
        Base { rows, ends }
    }

    /// `parts` moved into one vector, each partition keeping its rows in
    /// their order; partitions may differ in length.
    pub(crate) fn joined(parts: Vec<Vec<Value>>) -> Base {
        let mut rows = Vec::with_capacity(parts.iter().map(Vec::len).sum());
        let mut ends = Vec::with_capacity(parts.len());
        for part in parts {
            rows.extend(part);
            ends.push(rows.len());
        }
        Base {
            rows: Arc::new(rows),
            ends: ends.into(),
        }
    }

    /// `rows` cut at `ends`, the last of which is `rows.len()`.
    pub(crate) fn cut(rows: Arc<Vec<Value>>, ends: Arc<[usize]>) -> Base {
        debug_assert_eq!(ends.last().copied().unwrap_or(0), rows.len());
        Base { rows, ends }
    }

    /// Where each partition ends.
    pub(crate) fn ends(&self) -> &Arc<[usize]> {
        &self.ends
    }

    /// The number of partitions.
    pub(crate) fn partitions(&self) -> usize {
        self.ends.len()
    }

    /// The rows of partition `i`.
    pub(crate) fn part(&self, i: usize) -> &[Value] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.rows[start..self.ends[i]]
    }

    /// Every partition's rows, in partition order.
    pub(crate) fn parts(&self) -> Vec<&[Value]> {
        (0..self.partitions()).map(|i| self.part(i)).collect()
    }

    /// Every row, in partition order, in the one vector that holds them.
    pub(crate) fn rows(&self) -> &Arc<Vec<Value>> {
        &self.rows
    }
}

/// One node of the lazy physical plan.
pub(crate) enum PlanOp {
    /// Base data ([`Base`]) — the leaves of every plan.
    Scan(Base),
    /// A forced dataset standing in for its lineage: resolved through the
    /// shared dataset cache at execution time. A hit reads the cached
    /// partitions (memory or disk tier) like a `Scan`; a miss — the entry
    /// was evicted under budget pressure — transparently re-derives the
    /// inner plan and reinserts it. Holding the [`CacheSlot`] (not a bare
    /// id) keeps the entry's identity alive for exactly as long as some
    /// plan can still read it.
    Cached(Arc<crate::dscache::CacheSlot>, Arc<PlanOp>),
    /// A narrow step ([`Step`]) over its input's rows: `map`, `filter`,
    /// `flat_map` or a per-row fold, as data or as an opaque closure.
    Step(Arc<PlanOp>, Step),
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

/// The operator of one narrow step: its data when the engine can see
/// through it, which both layouts run, or an opaque closure, which keeps a
/// stage on the row path.
#[derive(Clone)]
pub(crate) enum StepOp {
    /// Each row becomes what the expression computes over it.
    Map(Arc<RowExpr>),
    /// Keeps the rows the expression, a boolean, holds of.
    Filter(Arc<RowExpr>),
    /// Each row followed by its build rows: a join's probe, or a cross.
    Probe(Arc<Probe>),
    /// Each row followed by the fold of its own expansion: one row per row.
    Fold(Arc<RowFold>),
    /// An opaque UDF, named for the `layout: row (opaque …)` note (`map`,
    /// or what a driver layer called it: `keyed map`, …).
    Udf(Udf, &'static str),
}

/// The closure of an opaque step.
#[derive(Clone)]
pub(crate) enum Udf {
    Map(RowMapFn),
    Filter(RowPredFn),
    FlatMap(RowFlatFn),
}

/// One fused narrow step (a row-level op of a collapsed chain) plus the
/// source statement that built it.
#[derive(Clone)]
pub(crate) struct Step {
    pub op: StepOp,
    pub tag: Tag,
}

impl Step {
    fn label(&self) -> &'static str {
        match self.op {
            StepOp::Map(_) | StepOp::Udf(Udf::Map(_), _) => "map",
            StepOp::Filter(_) | StepOp::Udf(Udf::Filter(_), _) => "filter",
            StepOp::Probe(_) | StepOp::Udf(Udf::FlatMap(_), _) => "flat_map",
            StepOp::Fold(_) => "fold per row",
        }
    }

    /// What the step is, for the `layout: row (opaque …)` note.
    fn what(&self) -> &'static str {
        match self.op {
            StepOp::Udf(_, what) => what,
            _ => self.label(),
        }
    }

    /// True when the step is data — a [`RowExpr`], a [`Probe`], or a
    /// [`RowFold`] over such steps — so a columnar stage can run it.
    pub(crate) fn transparent(&self) -> bool {
        match &self.op {
            StepOp::Fold(fold) => fold.transparent(),
            StepOp::Udf(..) => false,
            _ => true,
        }
    }

    /// How many rows the step makes of one row at most, when that is the
    /// same for every row: a cross's build rows, a fold's crosses; 1
    /// otherwise. A columnar stage narrows its tiles by it.
    pub(crate) fn widening(&self) -> usize {
        match &self.op {
            StepOp::Probe(p) => p.widening(),
            StepOp::Fold(fold) => fold.widening(),
            _ => 1,
        }
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
    let tagged = |e| s.tag_err(e);
    match &s.op {
        StepOp::Map(e) => drive(Cow::Owned(e.eval(&row).map_err(tagged)?), rest, sink),
        StepOp::Udf(Udf::Map(f), _) => drive(Cow::Owned(f(&row).map_err(tagged)?), rest, sink),
        StepOp::Fold(fold) => drive(Cow::Owned(fold.row(&row, s)?), rest, sink),
        StepOp::Filter(e) => match e.eval(&row).and_then(|v| condition(&v)).map_err(tagged)? {
            true => drive(row, rest, sink),
            false => Ok(()),
        },
        StepOp::Udf(Udf::Filter(f), _) => match f(&row).map_err(tagged)? {
            true => drive(row, rest, sink),
            false => Ok(()),
        },
        StepOp::Probe(p) => each(p.expand(&row).map_err(tagged)?, rest, sink),
        StepOp::Udf(Udf::FlatMap(f), _) => each(f(&row).map_err(tagged)?, rest, sink),
    }
}

/// Drives each row of an expansion through the rest of the chain.
fn each(rows: Vec<Value>, rest: &[Step], sink: &mut dyn FnMut(Value) -> Result<()>) -> Result<()> {
    rows.into_iter()
        .try_for_each(|v| drive(Cow::Owned(v), rest, sink))
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

/// Walks `Step` (and `Pending`) nodes down to the nearest barrier.
pub(crate) fn collapse(plan: &Arc<PlanOp>) -> Collapsed {
    let mut steps: Vec<Step> = Vec::new();
    let mut ran = Vec::new();
    let mut cur = plan.clone();
    loop {
        let next = match cur.as_ref() {
            PlanOp::Step(input, step) => {
                steps.push(step.clone());
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
        None => ctx.plan_note_with(|| "  layout: columnar".to_string()),
        Some(opaque) => {
            stats.record_row_fallback_stage();
            ctx.plan_note_with(|| match &opaque.tag {
                Some(t) => format!("  layout: row (opaque {} from {t})", opaque.what()),
                None => format!("  layout: row (opaque {})", opaque.what()),
            });
        }
    }
}

/// Resolves a `Cached` barrier to its rows: a cache hit reads the entry
/// (memory or disk tier); a miss re-derives the inner plan — the lineage
/// replay — and reinserts it under the same slot, so one recompute
/// serves every later reader until the next eviction.
fn resolve_cached(
    ctx: &Context,
    slot: &Arc<crate::dscache::CacheSlot>,
    inner: &Arc<PlanOp>,
) -> Result<Base> {
    let cache = slot.cache();
    if let Some(base) = cache.get(slot.id(), ctx) {
        return Ok(base);
    }
    let base = materialize(ctx, inner)?;
    cache.insert(slot.id(), base.clone(), ctx);
    Ok(base)
}

/// Materializes a plan: the rows a scanned or cached base already holds
/// when no step is pending (zero-copy), else one fused stage that collects
/// each partition's transformed rows, moved into one vector.
pub(crate) fn materialize(ctx: &Context, plan: &Arc<PlanOp>) -> Result<Base> {
    crate::verify::verify_plan(plan)?;
    let Collapsed { base, steps, .. } = collapse(plan);
    if steps.is_empty() {
        match base.as_ref() {
            PlanOp::Scan(base) => return Ok(base.clone()),
            PlanOp::Cached(slot, inner) => return resolve_cached(ctx, slot, inner),
            _ => {}
        }
    }
    consume(ctx, plan, "materialize", |_, rows, cancel| {
        let mut out = Vec::with_capacity(rows.src.len());
        rows.for_each(&mut cancellable_sink(cancel, |v| out.push(v)))?;
        Ok(out)
    })
    .map(Base::joined)
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
    let run = |p: usize, src: Source<'_>, steps: &[Step], cancel: &Cancel<'_>| {
        task(p, &PartitionRows { src, steps, mode }, cancel)
    };
    let out = match base.as_ref() {
        PlanOp::Shuffled(buckets, op, op_label, tag) => {
            let prelude = Some((*op_label, tag));
            note_stage(ctx, mode, buckets.len(), prelude, &steps, label);
            let weight = |i: usize| buckets[i].len() as u64;
            run_stage_weighted(ctx, buckets, weight, |p, bucket, cancel| {
                op.run(p, bucket, tag, &steps, |src, steps| {
                    run(p, src, steps, cancel)
                })
            })?
        }
        base => {
            let base = match base {
                PlanOp::Scan(base) => base.clone(),
                PlanOp::Cached(slot, inner) => resolve_cached(ctx, slot, inner)?,
                // collapse() never returns a row node as base.
                _ => return Err(RuntimeError::new("corrupt plan: row node as base")),
            };
            let parts = base.parts();
            note_stage(ctx, mode, parts.len(), None, &steps, label);
            let weight = |i: usize| parts[i].len() as u64;
            run_stage_weighted(ctx, &parts, weight, |p, part: &&[Value], cancel| {
                run(p, Source::Rows(part), &steps, cancel)
            })?
        }
    };
    for fact in &ran {
        fact.store(true, Ordering::Release);
    }
    Ok(out)
}

/// Records a stage over `parts` partitions and notes it in the plan
/// trace, with its layout; the lines are built only while a trace is
/// open.
fn note_stage(
    ctx: &Context,
    mode: &DriveMode,
    parts: usize,
    prelude: Option<(&str, &Tag)>,
    steps: &[Step],
    label: &str,
) {
    ctx.record_physical_stage();
    ctx.plan_note_with(|| describe_stage(ctx, parts, prelude, steps, label));
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
        PlanOp::Scan(base) => {
            out.push_str(&format!("scan[{}p]", base.partitions()));
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
        PlanOp::Step(..) | PlanOp::Pending(..) => {}
    }
    for s in &steps {
        out.push_str(" → ");
        out.push_str(s.label());
    }
    if steps.len() > 1 {
        out.push_str(&format!(" (1 fused stage, {} ops)", steps.len()));
    }
}
