//! Columnar vectorized execution: typed column chunks, the row-expression
//! IR that makes fused steps transparent to the engine, and the stage
//! driver that runs eligible chains batch-at-a-time over per-column inner
//! loops.
//!
//! The row layout moves rows as boxed [`Value`] enums, one enum match per
//! operator per tuple, even inside fused stages. This module generalizes
//! the §5 tile runtime's batch layout to arbitrary datasets:
//!
//! * **[`RowExpr`]** — a small expression IR over whole rows. A step
//!   built from it (via `Dataset::map_expr` / `Dataset::filter_expr`, or
//!   the exec crate's lowering of comprehension steps) *is* the
//!   expression, so the engine can see that a step is
//!   arithmetic/comparison/projection instead of an opaque `Fn` pointer.
//!   The row path evaluates that expression ([`RowExpr::eval`]) and the
//!   columnar path lowers it, so the two agree by construction.
//! * **[`VCol`]** — typed column chunks: `Vec<i64>` / `Vec<f64>` /
//!   `Vec<bool>` lanes, struct-of-arrays tuples, broadcast constants,
//!   references to the boxed values of the source tile (strings, tuples
//!   and records are projected and compared in place; a field nobody asks
//!   for is never touched), and an owned `Value` column for what the
//!   chain computes itself. A filter's boolean lane acts as the validity
//!   mask the surviving columns are compacted through.
//! * **[`drive_tiles`]** — the stage compiler/driver: each tile of up
//!   to `batch` rows is evaluated step by step as per-column inner loops
//!   (auto-vectorizable `zip`/`map` over primitive lanes; anything
//!   type-mixed falls back to per-element [`BinOp::apply`] so semantics
//!   agree by construction), and each tile's surviving column is handed
//!   to a [`TileSink`] — the consumer of the stage:
//!   * [`RowSink`] reassembles the surviving rows once, at the end of the
//!     chain;
//!   * a keyed scatter (`exchange::KeyedScatter`) hashes each
//!     `(key, row)` pair's key where it lies and sends the tile's columns
//!     to their buckets as lanes ([`crate::chunk`]), boxing no row;
//!   * [`KeyedFold`], a keyed aggregation (`Dataset::aggregate_by_key`),
//!     looks the tile's key column up in a [`KeyTable`] and folds each
//!     value lane into typed per-key accumulators ([`LaneBuf`] lanes,
//!     one slot per key), each key's values in row order; the combined
//!     keys and accumulators leave as lanes. [`TotalFold`], a total one
//!     (`Dataset::aggregate`), is the same fold on a constant key: one
//!     slot, and no row is reassembled at all;
//!   * the block [`Packer`] reads index and value lanes where they lie.
//! * **Joins and lane keys** — every join is one build–probe, a
//!   [`Probe`]: built once on the driver for `Dataset::join_probe` and
//!   `Dataset::cross`, or once per bucket from a partitioned join's right
//!   chunk, whose left chunk is then read as a [`Source::Chunk`] and
//!   probed ahead of the fused chain. A probe tile's output columns are
//!   the tile's fields and the build rows' leaves gathered by index, so no
//!   row of a match is built. A key column of flat tuples of primitive
//!   lanes, like `(i, j)`, is hashed and compared from its lanes
//!   ([`KeyLanes`]) — by the keyed fold, a keyed scatter's bucket, and
//!   the build–probe ([`each_key`]) — and boxed only when a key table
//!   inserts it.
//!
//! ## Error identity
//!
//! Lane loops bail on the first faulting lane element, which is generally
//! *not* the canonical first error of tuple-at-a-time execution (a later
//! column of an earlier row may fail first, or the consumer's sink may
//! reject an earlier row). A failing tile is therefore **replayed
//! tuple-at-a-time into the real sink**: nothing from the failed tile has
//! been emitted yet, so the replay reproduces the byte-identical first
//! error — statement tag included — that the row layout would have
//! raised. If the replay sails through (a non-deterministic operator), the
//! batched error is kept.
//!
//! Stages containing a step that is not data (an opaque UDF) never
//! enter the columnar path at all: `DriveMode::drive` hands them to the
//! same sink tuple-at-a-time, per stage, records
//! [`StatsSnapshot::row_fallback_stages`](crate::StatsSnapshot), and the
//! plan trace notes `layout: row (…)` naming the opaque step.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use diablo_runtime::array::key_value_ref;
use diablo_runtime::value::FieldNames;
use diablo_runtime::{BinOp, Func, RuntimeError, UnOp, Value};

use crate::block::Packer;
use crate::chunk::{self, Chunk, LaneBuf};
use crate::exchange::{ExchangeWriter, HashPartitioner};
use crate::keytable::{Key, KeyLane, KeyLanes, KeyTable, Prim};
use crate::plan::{Result, Source, Step, StepOp};
use crate::stats::Stats;
use crate::JoinOn;

/// A transparent row expression: the part of a `map`/`filter` step the
/// engine can see through and lower to per-column loops.
///
/// Evaluation semantics are exactly those of the runtime operators
/// ([`BinOp::apply`], [`UnOp::apply`], [`Func::apply`]): wrapping 64-bit
/// integer arithmetic, checked long division, `total_cmp` double
/// comparisons. Its row-at-a-time evaluation (the row path) and its
/// vectorized interpretation (the columnar path) therefore return the same
/// rows and raise the same errors.
#[derive(Clone, Debug)]
pub enum RowExpr {
    /// The whole input row.
    Input,
    /// Field `i` of the input row's tuple layout.
    Col(usize),
    /// A literal.
    Const(Value),
    /// A binary runtime operator over two sub-expressions.
    Bin(BinOp, Box<RowExpr>, Box<RowExpr>),
    /// A unary runtime operator.
    Un(UnOp, Box<RowExpr>),
    /// A builtin scalar function call.
    Call(Func, Vec<RowExpr>),
    /// A fresh tuple from sub-expressions.
    Tuple(Vec<RowExpr>),
    /// Record-field / tuple-position access (`_1`, `_2`, … or a record
    /// field name), with [`Value::field`] semantics. Build it with
    /// [`RowExpr::field`].
    Field(Box<RowExpr>, FieldName),
    /// The input row destructured against a nested tuple [`Shape`]: the
    /// bound leaves, left to right, as one flat tuple. A row the shape
    /// does not fit is the error `"{mismatch} {row}"`.
    Unpack {
        /// The shape every input row must have.
        shape: Shape,
        /// The error text preceding the offending row.
        mismatch: Arc<str>,
    },
}

/// Structural equality: the same tree, each constant the same value down
/// to each leaf's variant, doubles bit for bit. Not `Value`'s equality,
/// under which `1` and `1.0` are one value though `x + 1` and `x + 1.0`
/// are not one expression.
impl PartialEq for RowExpr {
    fn eq(&self, other: &RowExpr) -> bool {
        use RowExpr::*;
        match (self, other) {
            (Input, Input) => true,
            (Col(i), Col(j)) => i == j,
            (Const(a), Const(b)) => same_value(a, b),
            (Bin(o, a, b), Bin(p, c, d)) => o == p && a == c && b == d,
            (Un(o, a), Un(p, b)) => o == p && a == b,
            (Call(f, xs), Call(g, ys)) => f == g && xs == ys,
            (Tuple(xs), Tuple(ys)) => xs == ys,
            (Field(a, n), Field(b, m)) => n == m && a == b,
            (
                Unpack {
                    shape: s,
                    mismatch: m,
                },
                Unpack {
                    shape: t,
                    mismatch: n,
                },
            ) => s == t && m == n,
            _ => false,
        }
    }
}

/// True when `a` and `b` are the same value down to each leaf's variant:
/// a long is never the same as a double, and doubles are the same when
/// their bits are (`Value`'s order compares two doubles by `total_cmp`).
fn same_value(a: &Value, b: &Value) -> bool {
    let all = |x: &[Value], y: &[Value]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| same_value(p, q))
    };
    match (a, b) {
        (Value::Tuple(x), Value::Tuple(y)) => all(x, y),
        (Value::Bag(x), Value::Bag(y)) => all(x, y),
        (Value::Record(x), Value::Record(y)) => {
            x.names() == y.names() && all(x.values(), y.values())
        }
        _ => std::mem::discriminant(a) == std::mem::discriminant(b) && a == b,
    }
}

/// A field selector whose tuple position (`_1`, `_2`, …) is resolved once,
/// when the expression is built, instead of being re-parsed for every row.
#[derive(Clone, Debug, PartialEq)]
pub struct FieldName {
    name: String,
    pos: Option<usize>,
}

impl FieldName {
    /// Resolves `name`: `_N` selects tuple position `N - 1`; anything else
    /// (and `_N` on a record) is looked up by name.
    pub fn new(name: impl Into<String>) -> FieldName {
        let name = name.into();
        let pos = name
            .strip_prefix('_')
            .and_then(|s| s.parse::<usize>().ok())
            .and_then(|k| k.checked_sub(1));
        FieldName { name, pos }
    }

    /// [`Value::field`] with the position already parsed.
    fn of<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        match (v, self.pos) {
            (Value::Tuple(fs), Some(k)) => fs.get(k),
            _ => v.field(&self.name),
        }
    }

    fn missing_in(&self, v: &Value) -> RuntimeError {
        RuntimeError::new(format!("value {v} has no field `{}`", self.name))
    }

    /// The selected field of `v`; a value without it is the error
    /// ``value {v} has no field `{name}` ``.
    pub(crate) fn get<'v>(&self, v: &'v Value) -> Result<&'v Value> {
        self.of(v).ok_or_else(|| self.missing_in(v))
    }
}

/// A [`FieldName`] read across one tile. A record field's position is
/// found once, in the first record's names, and every record under that
/// same names list (`Arc::ptr_eq`) is read by position; any other row is
/// searched by name ([`FieldName::of`]).
struct TileField<'n> {
    name: &'n FieldName,
    first: Option<(FieldNames, Option<usize>)>,
}

impl<'n> TileField<'n> {
    fn new(name: &'n FieldName) -> TileField<'n> {
        TileField { name, first: None }
    }

    fn of<'v>(&mut self, v: &'v Value) -> Option<&'v Value> {
        if let Value::Record(r) = v {
            let (names, pos) = self
                .first
                .get_or_insert_with(|| (r.names().clone(), r.position(&self.name.name)));
            if Arc::ptr_eq(names, r.names()) {
                return pos.map(|i| &r.values()[i]);
            }
        }
        self.name.of(v)
    }
}

/// The nested tuple shape a [`RowExpr::Unpack`] destructures rows against —
/// the engine-visible form of a generator pattern like `((i, _), v)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Binds the value at this position.
    Bind,
    /// Matches anything, binds nothing.
    Skip,
    /// A tuple of exactly this many positions, each matched in turn.
    Tuple(Vec<Shape>),
}

impl Shape {
    /// The arity of a flat tuple shape that binds every position: a row
    /// that fits it *is* the tuple of its bound leaves, so unpacking it
    /// needs no new row.
    fn whole_tuple(&self) -> Option<usize> {
        match self {
            Shape::Tuple(ps) if ps.iter().all(|p| *p == Shape::Bind) => Some(ps.len()),
            _ => None,
        }
    }

    /// The number of [`Shape::Bind`] positions.
    pub(crate) fn binds(&self) -> usize {
        match self {
            Shape::Bind => 1,
            Shape::Skip => 0,
            Shape::Tuple(ps) => ps.iter().map(Shape::binds).sum(),
        }
    }

    /// Appends the values bound at the [`Shape::Bind`] positions, left to
    /// right. Returns `false` when `v` does not have this shape.
    fn bind(&self, v: &Value, out: &mut Vec<Value>) -> bool {
        match self {
            Shape::Bind => {
                out.push(v.clone());
                true
            }
            Shape::Skip => true,
            Shape::Tuple(ps) => match v.as_tuple() {
                Some(fields) if fields.len() == ps.len() => {
                    ps.iter().zip(fields).all(|(p, f)| p.bind(f, out))
                }
                _ => false,
            },
        }
    }
}

fn narrow_row() -> RuntimeError {
    RuntimeError::new("row is narrower than its layout")
}

/// The fields of an environment row: the operators that extend rows
/// (`Dataset::cross`, `Dataset::join_on`, `Dataset::join_probe`) take
/// tuples on their left.
pub(crate) fn env_fields(row: &Value) -> Result<&[Value]> {
    row.as_tuple()
        .ok_or_else(|| RuntimeError::new(format!("expected a tuple row to extend, got {row}")))
}

/// A join's build side, read by every task that probes it — the
/// transparent form of the `flat_map` behind `Dataset::join_probe` and
/// `Dataset::cross` (built once on the driver), and of a partitioned
/// join's post-shuffle stage (built once per bucket, from its right
/// chunk): every probe row (a tuple) is followed, once per build row its
/// key matches and in build order, by the leaves `shape` binds in that
/// build row. A cross is the probe on the constant key `()`, which every
/// build row holds.
///
/// The build rows' leaves are owned lanes, taken apart once, and build
/// keys match probe keys as every keyed operator matches them
/// ([`KeyTable`], [`each_key`]). A probe row that is not a tuple is the
/// error of [`env_fields`], whether or not its key matches. A build row
/// the shape does not fit is the error `"{mismatch} {row}"` — and a build
/// key that fails, its own error — raised by the first probe row that
/// reaches the step.
pub(crate) struct Probe {
    /// The build rows' bound leaves, one lane per leaf.
    leaves: Vec<VCol<'static>>,
    /// The number of build rows.
    len: usize,
    /// The probe row's key and the build keys; `None` on the constant key.
    keyed: Option<(RowExpr, BuildKeys)>,
    /// What every probe row that reaches the step raises.
    unfit: Option<RuntimeError>,
}

/// The equi-join a [`Probe`] performs: the probe row's key, and the build
/// row's, over the tuple of its bound leaves.
pub(crate) struct ProbeKeys {
    pub probe: RowExpr,
    pub build: RowExpr,
}

/// The distinct build keys, and the build rows of each in build order:
/// those of key slot `s` are `rows[starts[s]..starts[s + 1]]`.
struct BuildKeys {
    table: KeyTable<()>,
    starts: Vec<u32>,
    rows: Vec<u32>,
}

impl BuildKeys {
    /// Keys the rows of `build` by `key`, evaluated once as a column: a
    /// long lane of keys in one loop ([`KeyTable::upsert_longs`]), any
    /// other key column as [`each_key`] reads it. When the column
    /// evaluation fails, row by row with [`RowExpr::eval`], so the keys
    /// and the first error are the row path's.
    fn new(build: &Chunk, key: &RowExpr) -> Result<BuildKeys> {
        let len = build.len();
        let mut table = KeyTable::with_capacity(len);
        let mut slots = Vec::with_capacity(len);
        let keys = vec_eval(key, &build.col(), len);
        if let Ok(VCol::Long(lane)) = &keys {
            table.upsert_longs(lane, || (), &mut slots);
        } else {
            let mut upsert = |_, k: Key<'_>| {
                slots.push(table.upsert(k, || ()).slot as u32);
                Ok(())
            };
            match keys {
                Ok(col) => each_key(&col, len, upsert)?,
                Err(_) => (0..len).try_for_each(|i| {
                    upsert(i, Key::from(Cow::Owned(key.eval(&build.lanes.at(i))?)))
                })?,
            }
        }
        // Slots are numbered in first-seen order.
        let keys = slots.iter().max().map_or(0, |&s| s as usize + 1);
        let mut starts = vec![0u32; keys + 1];
        for &s in &slots {
            starts[s as usize + 1] += 1;
        }
        for s in 1..starts.len() {
            starts[s] += starts[s - 1];
        }
        let mut next = starts.clone();
        let mut rows = vec![0u32; slots.len()];
        for (j, &s) in slots.iter().enumerate() {
            let s = s as usize;
            rows[next[s] as usize] =
                u32::try_from(j).expect("a build side holds fewer than 2^32 rows");
            next[s] += 1;
        }
        Ok(BuildKeys {
            table,
            starts,
            rows,
        })
    }

    /// The build rows of the key in slot `slot`.
    fn rows_of(&self, slot: Option<usize>) -> &[u32] {
        match slot {
            Some(s) => &self.rows[self.starts[s] as usize..self.starts[s + 1] as usize],
            None => &[],
        }
    }

    /// The build rows of `key`.
    fn rows(&self, key: &Key<'_>) -> &[u32] {
        self.rows_of(self.table.slot(key))
    }

    /// Hands `each` the build rows of every key of a key column of `len`
    /// rows, in row order: a long lane looked up in one loop
    /// ([`KeyTable::find_longs`]), anything else as [`each_key`] reads it.
    fn each_match(
        &self,
        keys: &VCol,
        len: usize,
        mut each: impl FnMut(usize, &[u32]) -> Result<()>,
    ) -> Result<()> {
        match keys {
            VCol::Long(lane) => {
                let mut slots = Vec::with_capacity(len);
                self.table.find_longs(lane, &mut slots);
                slots.iter().enumerate().try_for_each(|(i, &s)| {
                    let slot = (s != KeyTable::<()>::ABSENT).then_some(s as usize);
                    each(i, self.rows_of(slot))
                })
            }
            _ => each_key(keys, len, |i, k| each(i, self.rows(&k))),
        }
    }
}

/// Appends the leaves `shape` binds in `v` to `lanes`, from leaf `*at` on,
/// opening a lane of a leaf's kind at its first row. `false` when `v` does
/// not have the shape.
fn bind_lanes(shape: &Shape, v: &Value, lanes: &mut Vec<LaneBuf>, at: &mut usize) -> bool {
    match shape {
        Shape::Bind => {
            if lanes.len() == *at {
                lanes.push(LaneBuf::like_value(v));
            }
            lanes[*at].push_value(v);
            *at += 1;
            true
        }
        Shape::Skip => true,
        Shape::Tuple(ps) => match v.as_tuple() {
            Some(fields) if fields.len() == ps.len() => ps
                .iter()
                .zip(fields)
                .all(|(p, f)| bind_lanes(p, f, lanes, at)),
            _ => false,
        },
    }
}

impl Probe {
    /// Builds over `rows`, in order; `keys: None` is a cross.
    pub(crate) fn build<'r>(
        rows: impl Iterator<Item = &'r Value>,
        shape: &Shape,
        keys: Option<ProbeKeys>,
        mismatch: &str,
    ) -> Probe {
        let mut lanes = Vec::new();
        let mut len = 0;
        let mut unfit = None;
        for row in rows {
            if !bind_lanes(shape, row, &mut lanes, &mut 0) {
                unfit = Some(RuntimeError::new(format!("{mismatch} {row}")));
                break;
            }
            len += 1;
        }
        let leaves = lanes.into_iter().map(LaneBuf::finish).collect();
        Probe::keyed(leaves, len, unfit, keys)
    }

    /// Builds over one bucket's right chunk, whose rows are the tuples of
    /// the leaves `on.right` binds, taking the chunk as it arrived: tuple
    /// lanes are the leaves as they are, and boxed rows are taken apart
    /// as [`Probe::build`] takes them.
    pub(crate) fn bucket(right: &Chunk, on: &JoinOn) -> Probe {
        let keys = Some(ProbeKeys {
            probe: on.left_key.clone(),
            build: on.right_key.clone(),
        });
        match (&right.lanes, on.right.whole_tuple()) {
            (VCol::Tuple(lanes), Some(n)) if lanes.len() == n => {
                Probe::keyed(lanes.to_vec(), right.len(), None, keys)
            }
            _ => Probe::build(right.rows().iter(), &on.right, keys, &on.mismatch),
        }
    }

    /// The probe over `len` build rows of `leaves`, keyed by `keys`
    /// unless a build row did not fit.
    fn keyed(
        leaves: Vec<VCol<'static>>,
        len: usize,
        unfit: Option<RuntimeError>,
        keys: Option<ProbeKeys>,
    ) -> Probe {
        let mut probe = Probe {
            leaves,
            len,
            keyed: None,
            unfit,
        };
        if let (Some(keys), None) = (keys, &probe.unfit) {
            let lanes = VCol::Tuple(Arc::new(probe.leaves.clone()));
            match BuildKeys::new(&Chunk { len, lanes }, &keys.build) {
                Ok(table) => probe.keyed = Some((keys.probe, table)),
                Err(e) => probe.unfit = Some(e),
            }
        }
        probe
    }

    /// Probe row `fields` followed by the leaves of build row `j`.
    fn extended(&self, fields: &[Value], j: usize) -> Value {
        let leaves = self.leaves.iter().map(|c| c.get(j));
        Value::Tuple(fields.iter().cloned().chain(leaves).collect())
    }

    /// The row path: what the step runs on one row, and what a failed
    /// tile's replay runs.
    pub(crate) fn expand(&self, row: &Value) -> Result<Vec<Value>> {
        let fields = env_fields(row)?;
        if let Some(e) = &self.unfit {
            return Err(e.clone());
        }
        Ok(match &self.keyed {
            None => (0..self.len).map(|j| self.extended(fields, j)).collect(),
            Some((key, table)) => table
                .rows(&Key::from(Cow::Owned(key.eval(row)?)))
                .iter()
                .map(|&j| self.extended(fields, j as usize))
                .collect(),
        })
    }

    /// The rows a cross makes of every probe row: its build rows (at
    /// least 1); a keyed probe's count varies, and is 1 here.
    pub(crate) fn widening(&self) -> usize {
        match self.keyed {
            None => self.len.max(1),
            Some(_) => 1,
        }
    }

    /// Expands a tile, handing `emit` the expanded rows as columns. On a
    /// key: the matches in probe-row order, then build-row order, as the
    /// tile rows' field columns and the build rows' leaf columns gathered
    /// by index, in pieces of at most `batch` matches — a heavy key does
    /// not widen a piece, and a tile of light ones is not narrowed for it.
    /// On the constant key: one piece, every row repeated once per build
    /// row and the leaf columns tiled once per row (the caller narrows the
    /// tile by the build rows). Rows that are not tuples of one arity are
    /// expanded one by one, exactly as the row path does it, into one
    /// piece. With `from`, the source of each tile row, every piece comes
    /// with the source of each of its rows. The step's own errors are
    /// tagged by `step`; `emit`'s pass as they are.
    fn tile<'a>(
        &'a self,
        col: &VCol<'a>,
        len: usize,
        from: Option<&[u32]>,
        batch: usize,
        step: &Step,
        emit: &mut Emitter<'a, '_>,
    ) -> Result<()> {
        if let Some(e) = &self.unfit {
            return Err(step.tag_err(e.clone()));
        }
        // The sources of expanded rows, from the tile rows they expand.
        let through = |rows: &[u32]| from.map(|f| rows.iter().map(|&i| f[i as usize]).collect());
        let Some(fields) = col.tuple_columns(len) else {
            let (mut out, mut rows) = (Vec::new(), Vec::new());
            for i in 0..len {
                let expanded = self.expand(&col.at(i)).map_err(|e| step.tag_err(e))?;
                rows.extend(std::iter::repeat_n(i as u32, expanded.len()));
                out.extend(expanded);
            }
            let n = out.len();
            return emit(decompose_owned(out), n, through(&rows));
        };
        let Some((key, table)) = &self.keyed else {
            let rows = self.len;
            let cols = fields
                .iter()
                .map(|c| c.stretched(len, rows, true))
                .chain(self.leaves.iter().map(|c| c.stretched(len, rows, false)))
                .collect();
            let from = from.map(|f| {
                f.iter()
                    .flat_map(|&r| std::iter::repeat_n(r, rows))
                    .collect()
            });
            return emit(VCol::Tuple(Arc::new(cols)), len * rows, from);
        };
        let keys = vec_eval(key, col, len).map_err(|e| step.tag_err(e))?;
        let mut piece = |probes: &mut Vec<u32>, builds: &mut Vec<u32>| {
            // Every tile row met exactly one build row: the tile's own
            // columns are the piece's as they are.
            let whole =
                probes.len() == len && probes.iter().enumerate().all(|(k, &i)| k == i as usize);
            let cols = fields
                .iter()
                .map(|c| if whole { c.clone() } else { c.picked(probes) })
                .chain(self.leaves.iter().map(|c| c.gather_rows(builds)))
                .collect();
            let (n, from) = (probes.len(), through(probes));
            probes.clear();
            builds.clear();
            emit(VCol::Tuple(Arc::new(cols)), n, from)
        };
        let (mut probes, mut builds) = (Vec::new(), Vec::new());
        table.each_match(&keys, len, |i, mut rows| {
            while !rows.is_empty() {
                let take = rows.len().min(batch - builds.len());
                probes.extend(std::iter::repeat_n(i as u32, take));
                builds.extend_from_slice(&rows[..take]);
                rows = &rows[take..];
                if builds.len() == batch {
                    piece(&mut probes, &mut builds)?;
                }
            }
            Ok(())
        })?;
        if builds.is_empty() {
            return Ok(());
        }
        piece(&mut probes, &mut builds)
    }
}

impl RowExpr {
    /// `e.name` — field or tuple-position access with the position
    /// resolved now.
    pub fn field(e: RowExpr, name: impl Into<String>) -> RowExpr {
        RowExpr::Field(Box::new(e), FieldName::new(name))
    }

    /// Evaluates the expression against one row — the row path: what a
    /// `map_expr` or `filter_expr` step runs on one row, and what a failed
    /// tile's replay runs.
    pub fn eval(&self, row: &Value) -> Result<Value> {
        match self {
            RowExpr::Input => Ok(row.clone()),
            RowExpr::Col(i) => row
                .as_tuple()
                .and_then(|t| t.get(*i))
                .cloned()
                .ok_or_else(narrow_row),
            RowExpr::Const(v) => Ok(v.clone()),
            RowExpr::Bin(op, a, b) => op.apply(&a.eval(row)?, &b.eval(row)?),
            RowExpr::Un(op, e) => op.apply(&e.eval(row)?),
            RowExpr::Call(f, args) => {
                let vs = args
                    .iter()
                    .map(|a| a.eval(row))
                    .collect::<Result<Vec<Value>>>()?;
                f.apply(&vs)
            }
            RowExpr::Tuple(es) => match es.as_slice() {
                [a, b] => Ok(Value::pair(a.eval(row)?, b.eval(row)?)),
                _ => Ok(Value::tuple(
                    es.iter()
                        .map(|e| e.eval(row))
                        .collect::<Result<Vec<Value>>>()?,
                )),
            },
            RowExpr::Field(e, name) => name.get(&e.eval(row)?).cloned(),
            RowExpr::Unpack { shape, mismatch } => {
                let unfit = || RuntimeError::new(format!("{mismatch} {row}"));
                if let Some(n) = shape.whole_tuple() {
                    let fits = row.as_tuple().is_some_and(|fields| fields.len() == n);
                    return if fits { Ok(row.clone()) } else { Err(unfit()) };
                }
                let mut out = Vec::with_capacity(4);
                if !shape.bind(row, &mut out) {
                    return Err(unfit());
                }
                Ok(Value::tuple(out))
            }
        }
    }
}

/// True when every fused step of the chain is described by data (a
/// [`RowExpr`], or a [`Probe`] for an expansion) — the stage can run
/// through the columnar driver.
pub(crate) fn eligible(steps: &[Step]) -> bool {
    !steps.is_empty() && steps.iter().all(Step::transparent)
}

/// A typed column chunk: one tile's worth of one column. `'a` is the
/// borrowed source tile.
#[derive(Clone, Debug)]
pub(crate) enum VCol<'a> {
    /// 64-bit integer lane.
    Long(Arc<Vec<i64>>),
    /// 64-bit float lane.
    Double(Arc<Vec<f64>>),
    /// Boolean lane (also the validity mask a filter compacts through).
    Bool(Arc<Vec<bool>>),
    /// Struct-of-arrays tuple: one child column per field.
    Tuple(Arc<Vec<VCol<'a>>>),
    /// A broadcast constant (every row holds this value).
    Const(Value),
    /// Boxed values read in place from the source tile — strings, tuples,
    /// records, mixed types. Projection and comparison look through the
    /// references; a value is cloned only if its row reaches the output.
    Refs(Arc<Vec<&'a Value>>),
    /// Boxed values the chain itself computed.
    Val(Arc<Vec<Value>>),
}

/// A primitive lane when every value is a long, a double, or a boolean.
pub(crate) fn typed_lane<'v>(
    vals: impl ExactSizeIterator<Item = &'v Value> + Clone,
) -> Option<VCol<'static>> {
    fn lane<'v, T>(
        vals: impl ExactSizeIterator<Item = &'v Value>,
        pick: impl Fn(&Value) -> Option<T>,
    ) -> Option<Arc<Vec<T>>> {
        let mut lane = Vec::with_capacity(vals.len());
        for v in vals {
            lane.push(pick(v)?);
        }
        Some(Arc::new(lane))
    }
    match vals.clone().next()? {
        Value::Long(_) => lane(vals, |v| match v {
            Value::Long(n) => Some(*n),
            _ => None,
        })
        .map(VCol::Long),
        Value::Double(_) => lane(vals, |v| match v {
            Value::Double(x) => Some(*x),
            _ => None,
        })
        .map(VCol::Double),
        Value::Bool(_) => lane(vals, |v| match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        })
        .map(VCol::Bool),
        _ => None,
    }
}

/// Columnarizes a borrowed tile: a typed lane when the rows are primitive,
/// otherwise references into the tile (nothing is copied).
pub(crate) fn decompose(rows: &[Value]) -> VCol<'_> {
    typed_lane(rows.iter()).unwrap_or_else(|| VCol::Refs(Arc::new(rows.iter().collect())))
}

/// Columnarizes values the chain computed (e.g. a fallback step's
/// per-element output), reusing the allocation when they are not primitive.
fn decompose_owned(rows: Vec<Value>) -> VCol<'static> {
    typed_lane(rows.iter()).unwrap_or_else(|| VCol::Val(Arc::new(rows)))
}

/// Borrowed boxed values as one column: a typed lane when they are
/// primitives of one type, references otherwise.
fn refs_col(refs: Vec<&Value>) -> VCol<'_> {
    typed_lane(refs.iter().copied()).unwrap_or_else(|| VCol::Refs(Arc::new(refs)))
}

/// One field of every boxed source value, gathered in a single pass
/// ([`refs_col`]). `None` from `field` is the error `missing` builds from
/// the offending value.
fn gather_field<'a>(
    rows: &[&'a Value],
    mut field: impl FnMut(&'a Value) -> Option<&'a Value>,
    missing: impl Fn(&Value) -> RuntimeError,
) -> Result<VCol<'a>> {
    let mut refs = Vec::with_capacity(rows.len());
    for &v in rows {
        refs.push(field(v).ok_or_else(|| missing(v))?);
    }
    Ok(refs_col(refs))
}

impl VCol<'_> {
    /// Reassembles row `i` of this column as a boxed value.
    pub(crate) fn get(&self, i: usize) -> Value {
        self.at(i).into_owned()
    }

    /// Row `i` of this column, borrowed when the column holds boxed
    /// values already.
    pub(crate) fn at(&self, i: usize) -> Cow<'_, Value> {
        match self {
            VCol::Long(v) => Cow::Owned(Value::Long(v[i])),
            VCol::Double(v) => Cow::Owned(Value::Double(v[i])),
            VCol::Bool(v) => Cow::Owned(Value::Bool(v[i])),
            VCol::Tuple(cols) => Cow::Owned(Value::Tuple(cols.iter().map(|c| c.get(i)).collect())),
            VCol::Const(v) => Cow::Borrowed(v),
            VCol::Refs(rows) => Cow::Borrowed(rows[i]),
            VCol::Val(rows) => Cow::Borrowed(&rows[i]),
        }
    }

    /// Rows `range` of this column: primitive lanes copied, boxed values
    /// borrowed ([`decompose`]) — one tile of a shuffled chunk.
    fn slice(&self, range: Range<usize>) -> VCol<'_> {
        fn part<T: Clone>(lane: &[T], range: Range<usize>) -> Arc<Vec<T>> {
            Arc::new(lane[range].to_vec())
        }
        match self {
            VCol::Long(v) => VCol::Long(part(v, range)),
            VCol::Double(v) => VCol::Double(part(v, range)),
            VCol::Bool(v) => VCol::Bool(part(v, range)),
            VCol::Tuple(cols) => VCol::Tuple(Arc::new(
                cols.iter().map(|c| c.slice(range.clone())).collect(),
            )),
            VCol::Const(v) => VCol::Const(v.clone()),
            VCol::Refs(v) => VCol::Refs(part(v, range)),
            VCol::Val(v) => decompose(&v[range]),
        }
    }

    /// Rows `rows` of this column, in that order: primitive lanes copied,
    /// boxed values borrowed ([`refs_col`]) — a build side's leaf for the
    /// matches of one probe piece.
    pub(crate) fn gather_rows(&self, rows: &[u32]) -> VCol<'_> {
        match self {
            VCol::Tuple(cols) => {
                VCol::Tuple(Arc::new(cols.iter().map(|c| c.gather_rows(rows)).collect()))
            }
            VCol::Val(v) => refs_col(rows.iter().map(|&r| &v[r as usize]).collect()),
            col => col.picked(rows),
        }
    }

    /// Keeps the rows whose mask bit is set — a filter's compaction. A
    /// mask that keeps every row keeps the column as it is.
    fn compact(&self, mask: &[bool]) -> Self {
        fn keep<T: Clone>(lane: &[T], mask: &[bool]) -> Arc<Vec<T>> {
            let mut out = Vec::with_capacity(lane.len());
            out.extend(
                lane.iter()
                    .zip(mask)
                    .filter(|&(_, &m)| m)
                    .map(|(x, _)| x.clone()),
            );
            Arc::new(out)
        }
        if mask.iter().all(|&m| m) {
            return self.clone();
        }
        match self {
            VCol::Long(v) => VCol::Long(keep(v, mask)),
            VCol::Double(v) => VCol::Double(keep(v, mask)),
            VCol::Bool(v) => VCol::Bool(keep(v, mask)),
            VCol::Tuple(cols) => {
                VCol::Tuple(Arc::new(cols.iter().map(|c| c.compact(mask)).collect()))
            }
            VCol::Const(v) => VCol::Const(v.clone()),
            VCol::Refs(rows) => VCol::Refs(keep(rows, mask)),
            VCol::Val(rows) => VCol::Val(keep(rows, mask)),
        }
    }
}

impl<'a> VCol<'a> {
    /// Rows `rows` of this column, in that order, for as long as the
    /// column's source lives: primitive lanes copied, borrowed values
    /// borrowed ([`refs_col`]), values the chain computed cloned — a probe
    /// tile's own fields for its matches.
    fn picked(&self, rows: &[u32]) -> VCol<'a> {
        fn pick<T: Clone>(lane: &[T], rows: &[u32]) -> Arc<Vec<T>> {
            Arc::new(rows.iter().map(|&r| lane[r as usize].clone()).collect())
        }
        match self {
            VCol::Long(v) => VCol::Long(pick(v, rows)),
            VCol::Double(v) => VCol::Double(pick(v, rows)),
            VCol::Bool(v) => VCol::Bool(pick(v, rows)),
            VCol::Tuple(cols) => {
                VCol::Tuple(Arc::new(cols.iter().map(|c| c.picked(rows)).collect()))
            }
            VCol::Const(v) => VCol::Const(v.clone()),
            VCol::Refs(v) => refs_col(rows.iter().map(|&r| v[r as usize]).collect()),
            VCol::Val(v) => VCol::Val(pick(v, rows)),
        }
    }

    /// The column stretched for an expansion of `len` rows by `items`
    /// items each: every row `items` times in a row (`a a b b …`, the
    /// expanded rows' own fields) when `each`, the whole column `len`
    /// times over (`x y x y …`, the items' leaves) otherwise.
    fn stretched(&self, len: usize, items: usize, each: bool) -> VCol<'a> {
        fn lane<T: Clone>(v: &[T], len: usize, items: usize, each: bool) -> Arc<Vec<T>> {
            let mut out = Vec::with_capacity(len * items);
            if each {
                for x in v {
                    out.extend(std::iter::repeat_n(x, items).cloned());
                }
            } else {
                for _ in 0..len {
                    out.extend_from_slice(v);
                }
            }
            Arc::new(out)
        }
        match self {
            VCol::Long(v) => VCol::Long(lane(v, len, items, each)),
            VCol::Double(v) => VCol::Double(lane(v, len, items, each)),
            VCol::Bool(v) => VCol::Bool(lane(v, len, items, each)),
            VCol::Tuple(cols) => VCol::Tuple(Arc::new(
                cols.iter().map(|c| c.stretched(len, items, each)).collect(),
            )),
            VCol::Const(v) => VCol::Const(v.clone()),
            VCol::Refs(rows) => VCol::Refs(lane(rows, len, items, each)),
            VCol::Val(rows) => VCol::Val(lane(rows, len, items, each)),
        }
    }

    /// The field columns of a column of `len` tuples that all have one
    /// arity; `None` for anything less regular.
    fn tuple_columns(&self, len: usize) -> Option<Vec<VCol<'a>>> {
        let n = match self {
            VCol::Tuple(cols) => return Some(cols.to_vec()),
            VCol::Long(_) | VCol::Double(_) | VCol::Bool(_) => return None,
            VCol::Const(_) | VCol::Refs(_) | VCol::Val(_) => {
                let arity = |i: usize| self.at(i).as_tuple().map(<[Value]>::len);
                let n = arity(0).filter(|_| len > 0)?;
                (1..len).all(|i| arity(i) == Some(n)).then_some(n)?
            }
        };
        (0..n).map(|i| project(self, i).ok()).collect()
    }
}

/// A primitive lane view with constant broadcast.
enum Lane<'a, T: Copy> {
    V(&'a [T]),
    C(T),
}

impl<T: Copy> Lane<'_, T> {
    fn at(&self, i: usize) -> T {
        match self {
            Lane::V(v) => v[i],
            Lane::C(c) => *c,
        }
    }
}

fn zip<T: Copy, R: Copy>(
    a: &Lane<'_, T>,
    b: &Lane<'_, T>,
    len: usize,
    f: impl Fn(T, T) -> R,
) -> Vec<R> {
    match (a, b) {
        (Lane::V(x), Lane::V(y)) => x.iter().zip(y.iter()).map(|(&p, &q)| f(p, q)).collect(),
        (Lane::V(x), Lane::C(q)) => x.iter().map(|&p| f(p, *q)).collect(),
        (Lane::C(p), Lane::V(y)) => y.iter().map(|&q| f(*p, q)).collect(),
        (Lane::C(p), Lane::C(q)) => vec![f(*p, *q); len],
    }
}

fn try_zip<T: Copy, R: Copy>(
    a: &Lane<'_, T>,
    b: &Lane<'_, T>,
    len: usize,
    f: impl Fn(T, T) -> Result<R>,
) -> Result<Vec<R>> {
    match (a, b) {
        (Lane::V(x), Lane::V(y)) => x.iter().zip(y.iter()).map(|(&p, &q)| f(p, q)).collect(),
        (Lane::V(x), Lane::C(q)) => x.iter().map(|&p| f(p, *q)).collect(),
        (Lane::C(p), Lane::V(y)) => y.iter().map(|&q| f(*p, q)).collect(),
        (Lane::C(p), Lane::C(q)) => Ok(vec![f(*p, *q)?; len]),
    }
}

fn lane_i64<'c>(col: &'c VCol<'_>) -> Option<Lane<'c, i64>> {
    match col {
        VCol::Long(v) => Some(Lane::V(v)),
        VCol::Const(Value::Long(n)) => Some(Lane::C(*n)),
        _ => None,
    }
}

fn lane_f64<'c>(col: &'c VCol<'_>) -> Option<Lane<'c, f64>> {
    match col {
        VCol::Double(v) => Some(Lane::V(v)),
        VCol::Const(Value::Double(x)) => Some(Lane::C(*x)),
        _ => None,
    }
}

fn lane_bool<'c>(col: &'c VCol<'_>) -> Option<Lane<'c, bool>> {
    match col {
        VCol::Bool(v) => Some(Lane::V(v)),
        VCol::Const(Value::Bool(b)) => Some(Lane::C(*b)),
        _ => None,
    }
}

fn is_numeric_col(col: &VCol) -> bool {
    matches!(
        col,
        VCol::Long(_) | VCol::Double(_) | VCol::Const(Value::Long(_) | Value::Double(_))
    )
}

/// Promotes a numeric column to a double lane — the `both_doubles` /
/// `Value::cmp` promotion the runtime applies to mixed long/double
/// operands.
fn promote_f64<'a>(col: &VCol<'a>) -> Option<VCol<'a>> {
    match col {
        VCol::Double(_) => Some(col.clone()),
        VCol::Long(v) => Some(VCol::Double(Arc::new(
            v.iter().map(|&n| n as f64).collect(),
        ))),
        VCol::Const(Value::Double(_)) => Some(col.clone()),
        VCol::Const(Value::Long(n)) => Some(VCol::Const(Value::Double(*n as f64))),
        _ => None,
    }
}

fn long_col(lane: Vec<i64>) -> VCol<'static> {
    VCol::Long(Arc::new(lane))
}
fn double_col(lane: Vec<f64>) -> VCol<'static> {
    VCol::Double(Arc::new(lane))
}
fn bool_col(lane: Vec<bool>) -> VCol<'static> {
    VCol::Bool(Arc::new(lane))
}

/// A comparison of a boxed lane with a constant on either side, in one
/// loop over the lane: `Value`'s order and equality, the relation
/// [`BinOp::apply`] compares with, and a string constant against a string
/// row compares the two `&str`s. `None` for any other operands.
fn boxed_cmp(op: BinOp, a: &VCol, b: &VCol) -> Option<Vec<bool>> {
    use std::cmp::Ordering::{Greater, Less};
    use BinOp::*;
    let (col, c, op) = match (a, b) {
        (VCol::Refs(_) | VCol::Val(_), VCol::Const(c)) => (a, c, op),
        // `c op v` is `v op' c`, `op'` the mirrored comparison.
        (VCol::Const(c), VCol::Refs(_) | VCol::Val(_)) => {
            let mirrored = match op {
                Lt => Gt,
                Le => Ge,
                Gt => Lt,
                Ge => Le,
                op => op,
            };
            (b, c, mirrored)
        }
        _ => return None,
    };
    fn each(col: &VCol, test: impl Fn(&Value) -> bool) -> Vec<bool> {
        match col {
            VCol::Refs(rows) => rows.iter().map(|v| test(v)).collect(),
            VCol::Val(rows) => rows.iter().map(test).collect(),
            _ => unreachable!("a boxed lane"),
        }
    }
    let eq = |v: &Value| match (v, c) {
        (Value::Str(s), Value::Str(k)) => **s == **k,
        _ => v == c,
    };
    let ord = |v: &Value| match (v, c) {
        (Value::Str(s), Value::Str(k)) => (**s).cmp(&**k),
        _ => v.cmp(c),
    };
    Some(match op {
        Eq => each(col, eq),
        Ne => each(col, |v| !eq(v)),
        Lt => each(col, |v| ord(v) == Less),
        Le => each(col, |v| ord(v) != Greater),
        Gt => each(col, |v| ord(v) == Greater),
        Ge => each(col, |v| ord(v) != Less),
        _ => return None,
    })
}

/// Per-element fallback: exact runtime semantics for anything the lane
/// loops do not specialize. Boxed operands are read in place, and a
/// comparison's answers go straight into a boolean lane.
fn fallback_bin(op: BinOp, a: &VCol, b: &VCol, len: usize) -> Result<VCol<'static>> {
    use BinOp::*;
    if matches!(op, Eq | Ne | Lt | Le | Gt | Ge) {
        if let Some(lane) = boxed_cmp(op, a, b) {
            return Ok(bool_col(lane));
        }
        let mut lane = Vec::with_capacity(len);
        for i in 0..len {
            lane.push(matches!(op.apply(&a.at(i), &b.at(i))?, Value::Bool(true)));
        }
        return Ok(bool_col(lane));
    }
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        out.push(op.apply(&a.at(i), &b.at(i))?);
    }
    Ok(decompose_owned(out))
}

/// Vectorized binary operator over two columns.
fn vec_bin(op: BinOp, a: &VCol, b: &VCol, len: usize) -> Result<VCol<'static>> {
    use std::cmp::Ordering;
    use BinOp::*;
    if let (VCol::Const(x), VCol::Const(y)) = (a, b) {
        // Fold constants once instead of per row.
        return Ok(VCol::Const(op.apply(x, y)?));
    }
    if let (Some(x), Some(y)) = (lane_i64(a), lane_i64(b)) {
        return match op {
            Add => Ok(long_col(zip(&x, &y, len, |p, q| p.wrapping_add(q)))),
            Sub => Ok(long_col(zip(&x, &y, len, |p, q| p.wrapping_sub(q)))),
            Mul => Ok(long_col(zip(&x, &y, len, |p, q| p.wrapping_mul(q)))),
            Div => Ok(long_col(try_zip(&x, &y, len, |p, q| {
                if q == 0 {
                    Err(RuntimeError::new("division by zero"))
                } else {
                    Ok(p.wrapping_div(q))
                }
            })?)),
            Mod => Ok(long_col(try_zip(&x, &y, len, |p, q| {
                if q == 0 {
                    Err(RuntimeError::new("modulo by zero"))
                } else {
                    Ok(p.wrapping_rem(q))
                }
            })?)),
            Eq => Ok(bool_col(zip(&x, &y, len, |p, q| p == q))),
            Ne => Ok(bool_col(zip(&x, &y, len, |p, q| p != q))),
            Lt => Ok(bool_col(zip(&x, &y, len, |p, q| p < q))),
            Le => Ok(bool_col(zip(&x, &y, len, |p, q| p <= q))),
            Gt => Ok(bool_col(zip(&x, &y, len, |p, q| p > q))),
            Ge => Ok(bool_col(zip(&x, &y, len, |p, q| p >= q))),
            Min => Ok(long_col(zip(&x, &y, len, |p, q| p.min(q)))),
            Max => Ok(long_col(zip(&x, &y, len, |p, q| p.max(q)))),
            And | Or | ArgMin => fallback_bin(op, a, b, len),
        };
    }
    if let (Some(x), Some(y)) = (lane_bool(a), lane_bool(b)) {
        return match op {
            And => Ok(bool_col(zip(&x, &y, len, |p, q| p && q))),
            Or => Ok(bool_col(zip(&x, &y, len, |p, q| p || q))),
            Eq => Ok(bool_col(zip(&x, &y, len, |p, q| p == q))),
            Ne => Ok(bool_col(zip(&x, &y, len, |p, q| p != q))),
            _ => fallback_bin(op, a, b, len),
        };
    }
    if is_numeric_col(a) && is_numeric_col(b) {
        // At least one side is a double (the all-long case matched above),
        // so arithmetic promotes to doubles and comparisons use the
        // promoted total order — exactly `both_doubles` / `Value::cmp`.
        let strict = lane_f64(a).is_some() && lane_f64(b).is_some();
        let (pa, pb) = (
            promote_f64(a).expect("numeric"),
            promote_f64(b).expect("numeric"),
        );
        let (x, y) = (
            lane_f64(&pa).expect("promoted"),
            lane_f64(&pb).expect("promoted"),
        );
        return match op {
            Add => Ok(double_col(zip(&x, &y, len, |p, q| p + q))),
            Sub => Ok(double_col(zip(&x, &y, len, |p, q| p - q))),
            Mul => Ok(double_col(zip(&x, &y, len, |p, q| p * q))),
            Div => Ok(double_col(zip(&x, &y, len, |p, q| p / q))),
            Mod => Ok(double_col(zip(&x, &y, len, |p, q| p % q))),
            Eq => Ok(bool_col(zip(&x, &y, len, |p, q| {
                p.total_cmp(&q) == Ordering::Equal
            }))),
            Ne => Ok(bool_col(zip(&x, &y, len, |p, q| {
                p.total_cmp(&q) != Ordering::Equal
            }))),
            Lt => Ok(bool_col(zip(&x, &y, len, |p, q| {
                p.total_cmp(&q) == Ordering::Less
            }))),
            Le => Ok(bool_col(zip(&x, &y, len, |p, q| {
                p.total_cmp(&q) != Ordering::Greater
            }))),
            Gt => Ok(bool_col(zip(&x, &y, len, |p, q| {
                p.total_cmp(&q) == Ordering::Greater
            }))),
            Ge => Ok(bool_col(zip(&x, &y, len, |p, q| {
                p.total_cmp(&q) != Ordering::Less
            }))),
            // `min`/`max` keep the ORIGINAL operand (long or double), so
            // only the both-doubles case is lane-safe.
            Min if strict => Ok(double_col(zip(&x, &y, len, |p, q| {
                if p.total_cmp(&q) != Ordering::Greater {
                    p
                } else {
                    q
                }
            }))),
            Max if strict => Ok(double_col(zip(&x, &y, len, |p, q| {
                if p.total_cmp(&q) != Ordering::Less {
                    p
                } else {
                    q
                }
            }))),
            _ => fallback_bin(op, a, b, len),
        };
    }
    fallback_bin(op, a, b, len)
}

/// Vectorized unary operator.
fn vec_un(op: UnOp, col: &VCol, len: usize) -> Result<VCol<'static>> {
    match (op, col) {
        (_, VCol::Const(v)) => Ok(VCol::Const(op.apply(v)?)),
        (UnOp::Neg, VCol::Long(v)) => Ok(long_col(v.iter().map(|&n| n.wrapping_neg()).collect())),
        (UnOp::Neg, VCol::Double(v)) => Ok(double_col(v.iter().map(|&x| -x).collect())),
        (UnOp::Not, VCol::Bool(v)) => Ok(bool_col(v.iter().map(|&b| !b).collect())),
        _ => {
            let mut out = Vec::with_capacity(len);
            for i in 0..len {
                out.push(op.apply(&col.at(i))?);
            }
            Ok(decompose_owned(out))
        }
    }
}

/// Lane kernels of the builtin functions over numeric columns: the
/// arithmetic of [`Func::apply`] on longs and doubles — every argument
/// promoted to a double first, as `apply` does — unboxed. `None` when an
/// argument is not numeric or the function keeps its argument's type
/// (`abs`); the per-element path then decides, and reports.
fn vec_call(f: Func, cols: &[VCol], len: usize) -> Option<VCol<'static>> {
    if cols.len() != f.arity() {
        return None;
    }
    let promoted: Vec<VCol> = cols.iter().map(promote_f64).collect::<Option<_>>()?;
    let lane = |i: usize| lane_f64(&promoted[i]).expect("promoted");
    let unary = |k: fn(f64) -> f64| {
        let x = lane(0);
        double_col((0..len).map(|i| k(x.at(i))).collect())
    };
    Some(match f {
        Func::Sqrt => unary(f64::sqrt),
        Func::Exp => unary(f64::exp),
        Func::Log => unary(f64::ln),
        Func::ToDouble => unary(|x| x),
        Func::Pow => double_col(zip(&lane(0), &lane(1), len, f64::powf)),
        Func::ToLong => {
            let x = lane(0);
            long_col((0..len).map(|i| x.at(i) as i64).collect())
        }
        Func::InRange => {
            let (x, lo, hi) = (lane(0), lane(1), lane(2));
            let within = |i: usize| lo.at(i) <= x.at(i) && x.at(i) <= hi.at(i);
            bool_col((0..len).map(within).collect())
        }
        Func::Abs => return None,
    })
}

/// Tuple-position projection over a column.
fn project<'a>(col: &VCol<'a>, i: usize) -> Result<VCol<'a>> {
    match col {
        VCol::Tuple(cols) => cols.get(i).cloned().ok_or_else(narrow_row),
        VCol::Const(v) => v
            .as_tuple()
            .and_then(|t| t.get(i))
            .cloned()
            .map(VCol::Const)
            .ok_or_else(narrow_row),
        VCol::Refs(rows) => gather_field(rows, |v| v.as_tuple()?.get(i), |_| narrow_row()),
        VCol::Val(rows) => {
            let mut out = Vec::with_capacity(rows.len());
            for v in rows.iter() {
                out.push(
                    v.as_tuple()
                        .and_then(|t| t.get(i))
                        .cloned()
                        .ok_or_else(narrow_row)?,
                );
            }
            Ok(decompose_owned(out))
        }
        _ => Err(narrow_row()),
    }
}

/// Record-field / tuple-position access over a column.
fn project_field<'a>(col: &VCol<'a>, name: &FieldName, len: usize) -> Result<VCol<'a>> {
    let mut field = TileField::new(name);
    match (col, name.pos) {
        // `_k` on a struct-of-arrays tuple is just the k-th child column.
        (VCol::Tuple(cols), Some(k)) if k < cols.len() => return Ok(cols[k].clone()),
        (VCol::Refs(rows), _) => {
            return gather_field(rows, |v| field.of(v), |v| name.missing_in(v))
        }
        _ => {}
    }
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        let v = col.at(i);
        match field.of(&v) {
            Some(f) => out.push(f.clone()),
            None => return Err(name.missing_in(&v)),
        }
    }
    Ok(decompose_owned(out))
}

/// Destructures a column against `shape`, appending the bound leaves'
/// columns. Any error stands for "some row does not have this shape"; the
/// tile's replay raises the canonical one.
fn unpack<'a>(shape: &Shape, col: &VCol<'a>, out: &mut Vec<VCol<'a>>) -> Result<()> {
    match shape {
        Shape::Skip => {}
        Shape::Bind => out.push(col.clone()),
        Shape::Tuple(ps) => {
            let arity = |v: &Value| v.as_tuple().map(<[Value]>::len) == Some(ps.len());
            let fits = match col {
                VCol::Tuple(cols) => cols.len() == ps.len(),
                VCol::Const(v) => arity(v),
                VCol::Refs(rows) => rows.iter().all(|v| arity(v)),
                VCol::Val(rows) => rows.iter().all(arity),
                VCol::Long(_) | VCol::Double(_) | VCol::Bool(_) => false,
            };
            if !fits {
                return Err(narrow_row());
            }
            for (i, p) in ps.iter().enumerate() {
                if *p != Shape::Skip {
                    unpack(p, &project(col, i)?, out)?;
                }
            }
        }
    }
    Ok(())
}

/// Vectorized expression evaluation over the tile's current columns.
fn vec_eval<'a>(expr: &RowExpr, input: &VCol<'a>, len: usize) -> Result<VCol<'a>> {
    match expr {
        RowExpr::Input => Ok(input.clone()),
        RowExpr::Col(i) => project(input, *i),
        RowExpr::Const(v) => Ok(VCol::Const(v.clone())),
        RowExpr::Bin(op, a, b) => {
            let x = vec_eval(a, input, len)?;
            // `e op e` evaluates `e` once.
            let y = if a == b {
                x.clone()
            } else {
                vec_eval(b, input, len)?
            };
            vec_bin(*op, &x, &y, len)
        }
        RowExpr::Un(op, e) => {
            let col = vec_eval(e, input, len)?;
            vec_un(*op, &col, len)
        }
        RowExpr::Call(f, args) => {
            let cols = args
                .iter()
                .map(|e| vec_eval(e, input, len))
                .collect::<Result<Vec<VCol>>>()?;
            if let Some(col) = vec_call(*f, &cols, len) {
                return Ok(col);
            }
            let mut out = Vec::with_capacity(len);
            let mut buf: Vec<Value> = Vec::with_capacity(cols.len());
            for i in 0..len {
                buf.clear();
                buf.extend(cols.iter().map(|c| c.get(i)));
                out.push(f.apply(&buf)?);
            }
            Ok(decompose_owned(out))
        }
        RowExpr::Tuple(es) => {
            let cols = es
                .iter()
                .map(|e| vec_eval(e, input, len))
                .collect::<Result<Vec<VCol>>>()?;
            Ok(VCol::Tuple(Arc::new(cols)))
        }
        RowExpr::Field(e, name) => {
            let col = vec_eval(e, input, len)?;
            project_field(&col, name, len)
        }
        RowExpr::Unpack { shape, .. } => {
            // Boxed rows that are the tuple of their own leaves stay as
            // they are: whoever wants a field projects it, and a row that
            // reaches the output is cloned, not rebuilt.
            if let (Some(n), VCol::Refs(_) | VCol::Val(_)) = (shape.whole_tuple(), input) {
                let fits = |v: &Value| v.as_tuple().map(<[Value]>::len) == Some(n);
                return if (0..len).all(|i| fits(&input.at(i))) {
                    Ok(input.clone())
                } else {
                    Err(narrow_row())
                };
            }
            let mut cols = Vec::new();
            unpack(shape, input, &mut cols)?;
            Ok(VCol::Tuple(Arc::new(cols)))
        }
    }
}

/// A filter's result for one row, which must be a boolean.
pub(crate) fn condition(v: &Value) -> Result<bool> {
    v.as_bool()
        .ok_or_else(|| RuntimeError::new("condition must be boolean"))
}

/// A filter result as a validity mask.
fn mask_of(col: &VCol, len: usize) -> Result<Vec<bool>> {
    match col {
        VCol::Bool(v) => Ok(v.as_ref().clone()),
        VCol::Const(Value::Bool(b)) => Ok(vec![*b; len]),
        _ => (0..len).map(|i| condition(&col.at(i))).collect(),
    }
}

/// The input column of the tile `range` of a source: its rows
/// decomposed, or a chunk's lanes over those rows.
fn tile_column<'a>(src: Source<'a>, range: Range<usize>) -> VCol<'a> {
    match src {
        Source::Rows(rows) => decompose(&rows[range]),
        Source::Chunk(chunk) if range.len() == chunk.len() => chunk.col(),
        Source::Chunk(chunk) => chunk.lanes.slice(range),
    }
}

/// What takes the pieces of a tile run through a chain: the surviving
/// rows as columns, their count, and — when the caller tracks it — the
/// source row of each.
type Emitter<'a, 'e> = dyn FnMut(VCol<'a>, usize, Option<Vec<u32>>) -> Result<()> + 'e;

/// Runs one tile — `len` rows as the column `col` — through the whole
/// fused chain in columnar form, per-column loops per step, handing `emit`
/// the surviving rows as columns and their count: in one piece, or in the
/// pieces a keyed probe cuts its matches into, each run through the rest
/// of the chain on its own. With `from`, the source of each tile row (a
/// [`RowFold`]'s expansion tracks them), every piece comes with the
/// source of each of its rows, non-decreasing.
fn run_tile<'a>(
    mut col: VCol<'a>,
    mut len: usize,
    mut from: Option<Vec<u32>>,
    steps: &'a [Step],
    batch: usize,
    emit: &mut Emitter<'a, '_>,
) -> Result<()> {
    for (k, s) in steps.iter().enumerate() {
        if len == 0 {
            break;
        }
        match &s.op {
            StepOp::Map(expr) => col = vec_eval(expr, &col, len).map_err(|e| s.tag_err(e))?,
            StepOp::Filter(expr) => {
                let mask = vec_eval(expr, &col, len)
                    .and_then(|c| mask_of(&c, len))
                    .map_err(|e| s.tag_err(e))?;
                let kept = mask.iter().filter(|&&m| m).count();
                if kept < len {
                    from = from.map(|f| {
                        f.into_iter()
                            .zip(&mask)
                            .filter(|(_, &m)| m)
                            .map(|(r, _)| r)
                            .collect()
                    });
                }
                len = kept;
                col = col.compact(&mask);
            }
            StepOp::Probe(probe) => {
                let rest = &steps[k + 1..];
                return probe.tile(
                    &col,
                    len,
                    from.as_deref(),
                    batch,
                    s,
                    &mut |col, len, from| run_tile(col, len, from, rest, batch, emit),
                );
            }
            StepOp::Udf(..) => return Err(RuntimeError::new("opaque step in a columnar stage")),
            StepOp::Fold(fold) => col = fold.tile(&col, len, batch, s)?,
        }
    }
    emit(col, len, from)
}

/// A column of boxed tuples as struct-of-arrays lanes, nested tuples as
/// nested lanes, when their leaves are primitives of one kind per
/// position; any other column as it is.
fn lanes_of<'a>(col: &VCol<'a>, len: usize) -> VCol<'a> {
    fn primitive(lane: &LaneBuf) -> bool {
        match lane {
            LaneBuf::Long(_) | LaneBuf::Double(_) | LaneBuf::Bool(_) => true,
            LaneBuf::Tuple(lanes) => lanes.iter().all(primitive),
            LaneBuf::Boxed(_) => false,
        }
    }
    if !matches!(col, VCol::Refs(_) | VCol::Val(_)) || len == 0 {
        return col.clone();
    }
    // The first row decides: a boxed leaf there (a string key) is not
    // worth a pass over the column.
    let mut lanes = LaneBuf::like_value(&col.at(0));
    if !matches!(lanes, LaneBuf::Tuple(_)) || !primitive(&lanes) {
        return col.clone();
    }
    (0..len).for_each(|i| lanes.push_value(&col.at(i)));
    match primitive(&lanes) {
        true => lanes.finish(),
        false => col.clone(),
    }
}

/// A fold per row: every row — a tuple — is expanded through a fused
/// chain of its own (the generators after a comprehension's source, and
/// what they bind and test), and the expansion's `values`, one per
/// monoid, are folded in order into the row's accumulators. Every row
/// starts from the accumulators `init` computes over it and leaves
/// followed by them, whether its expansion is empty or not: the `⊳[⊕]`
/// merge of a range fill with a fold. Nothing is scattered, and the rows
/// keep their partitions.
pub(crate) struct RowFold {
    /// The fields of a row its expansion reads: the expansion runs over
    /// the tuple of these.
    pub(crate) input: Vec<usize>,
    /// The expansion of one row's `input` fields.
    pub(crate) steps: Vec<Step>,
    /// Over an expanded row: the tuple of the values folded.
    pub(crate) values: RowExpr,
    /// One monoid per value.
    pub(crate) ops: Vec<BinOp>,
    /// Over a row: the tuple of its initial accumulators.
    pub(crate) init: RowExpr,
}

impl RowFold {
    /// True when every step of the expansion is described by data.
    pub(crate) fn transparent(&self) -> bool {
        self.steps.iter().all(Step::transparent)
    }

    /// The rows the expansion makes of one row at most, for narrowing
    /// the tiles it expands.
    pub(crate) fn widening(&self) -> usize {
        self.steps
            .iter()
            .fold(1usize, |f, s| f.saturating_mul(s.widening()))
    }

    /// The `ops.len()` fields of a tuple `values` or `init` computed.
    fn fields(&self, v: Value) -> Result<Vec<Value>> {
        match v {
            Value::Tuple(fs) if fs.len() == self.ops.len() => Ok(fs.to_vec()),
            v => Err(RuntimeError::new(format!(
                "a fold per row expects {} value(s), got {v}",
                self.ops.len()
            ))),
        }
    }

    /// The row path: `row` followed by its accumulators. An error of the
    /// expansion carries its own step's tag, one of the fold itself
    /// `step`'s.
    pub(crate) fn row(&self, row: &Value, step: &Step) -> Result<Value> {
        let own = |e| step.tag_err(e);
        let fields = env_fields(row).map_err(own)?;
        let init = self.init.eval(row).and_then(|v| self.fields(v));
        let mut accs = init.map_err(own)?;
        let view = self.input.iter().map(|&k| fields.get(k).cloned());
        let view = Value::tuple(
            view.collect::<Option<_>>()
                .ok_or_else(narrow_row)
                .map_err(own)?,
        );
        crate::plan::drive(Cow::Owned(view), &self.steps, &mut |x| {
            let vals = self
                .values
                .eval(&x)
                .and_then(|v| self.fields(v))
                .map_err(own)?;
            for ((a, op), v) in accs.iter_mut().zip(&self.ops).zip(&vals) {
                *a = op.apply(a, v).map_err(own)?;
            }
            Ok(())
        })?;
        Ok(Value::tuple(fields.iter().cloned().chain(accs).collect()))
    }

    /// The columnar path over a tile: the expansion run through the
    /// chain's runner with each expanded row's source ([`run_tile`]), each
    /// piece's value lanes folded into the accumulators of those sources —
    /// kept in [`LaneBuf`] lanes, one slot per row, as a keyed fold keeps
    /// them — and the rows' fields followed by the accumulator lanes.
    fn tile<'a>(
        &'a self,
        col: &VCol<'a>,
        len: usize,
        batch: usize,
        step: &Step,
    ) -> Result<VCol<'a>> {
        let own = |e| step.tag_err(e);
        let Some(fields) = col.tuple_columns(len) else {
            let rows = (0..len).map(|i| self.row(&col.at(i), step));
            return Ok(decompose_owned(rows.collect::<Result<_>>()?));
        };
        let init = vec_eval(&self.init, col, len).map_err(own)?;
        let mut accs = Vec::with_capacity(self.ops.len());
        for (j, &op) in self.ops.iter().enumerate() {
            let lane = project(&init, j).map_err(own)?;
            let mut acc = match len {
                0 => LaneBuf::Boxed(Vec::new()),
                _ => accumulator(op, &lane.at(0)),
            };
            acc.extend(&lane, 0..len);
            accs.push(acc);
        }
        // The fields the expansion reads, boxed tuples taken apart into
        // lanes once per row rather than read once per expanded row.
        let view = self.input.iter().map(|&k| match fields.get(k) {
            Some(c) => Ok(lanes_of(c, len)),
            None => Err(narrow_row()),
        });
        let view = VCol::Tuple(Arc::new(view.collect::<Result<_>>().map_err(own)?));
        let sources = Some((0..len as u32).collect());
        run_tile(
            view,
            len,
            sources,
            &self.steps,
            batch,
            &mut |expanded, n, from| {
                let slots = from.ok_or_else(|| RuntimeError::new("an expansion lost its rows"))?;
                if n == 0 {
                    return Ok(());
                }
                let vals = vec_eval(&self.values, &expanded, n).map_err(own)?;
                for (j, (acc, &op)) in accs.iter_mut().zip(&self.ops).enumerate() {
                    let lane = project(&vals, j).map_err(own)?;
                    if !acc.fold_lane(op, &slots, &lane) {
                        for (row, &s) in slots.iter().enumerate() {
                            acc.fold_value(op, s as usize, &lane.at(row)).map_err(own)?;
                        }
                    }
                }
                Ok(())
            },
        )?;
        let mut cols = fields;
        cols.extend(accs.into_iter().map(|acc| -> VCol<'a> { acc.finish() }));
        Ok(VCol::Tuple(Arc::new(cols)))
    }
}

/// What consumes a stage's output: whole surviving tiles on the
/// vectorized path; single rows on the row path and when a failed tile is
/// replayed.
pub(crate) trait TileSink {
    /// Takes the `len` surviving rows of one tile, as a column.
    fn tile(&mut self, col: &VCol, len: usize) -> Result<()>;
    /// Takes one row: of a chain on the row path, or of a replayed tile.
    fn row(&mut self, row: Value) -> Result<()>;
}

/// Drives every tile of `src` through an eligible chain in columnar
/// form. A failing tile is replayed tuple-at-a-time into the same sink,
/// skipping the rows its pieces sunk before the failure: the row
/// path emits the same rows in the same order, and the canonical first
/// error may come from an earlier row or from the consumer, not from the
/// lane that failed first (see the module docs).
pub(crate) fn drive_tiles(
    src: Source<'_>,
    steps: &[Step],
    batch: usize,
    stats: &Stats,
    sink: &mut impl TileSink,
) -> Result<()> {
    debug_assert!(batch > 0);
    // Source tiles are narrowed by the chain's crosses, which expand every
    // row by their build rows, so an expanded tile stays within the batch
    // width (down to one source row); a keyed probe cuts its matches into
    // batch-wide pieces instead.
    let factor = steps
        .iter()
        .fold(1usize, |f, s| f.saturating_mul(s.widening()));
    let width = (batch / factor).max(1);
    for start in (0..src.len()).step_by(width) {
        let tile = start..(start + width).min(src.len());
        // The rows this tile's pieces sank, and the sink's own error.
        let (mut sunk, mut refused) = (0, None);
        let col = tile_column(src, tile.clone());
        let ran = run_tile(col, tile.len(), None, steps, batch, &mut |col, len, _| {
            sink.tile(&col, len)
                .inspect_err(|e| refused = Some(e.clone()))?;
            sunk += len;
            Ok(())
        });
        if let Some(e) = refused {
            return Err(e);
        }
        match ran {
            Ok(()) => stats.record_vectorized_batch(),
            Err(batched) => {
                src.drive_rows(tile, steps, &mut |v| match sunk {
                    0 => sink.row(v),
                    _ => {
                        sunk -= 1;
                        Ok(())
                    }
                })?;
                // Non-deterministic operator: the replay sailed through,
                // so keep the batched error.
                return Err(batched);
            }
        }
    }
    Ok(())
}

/// Reassembles each surviving row for a row consumer.
pub(crate) struct RowSink<'s>(pub(crate) &'s mut dyn FnMut(Value) -> Result<()>);

impl TileSink for RowSink<'_> {
    fn tile(&mut self, col: &VCol, len: usize) -> Result<()> {
        (0..len).try_for_each(|i| (self.0)(col.get(i)))
    }

    fn row(&mut self, row: Value) -> Result<()> {
        (self.0)(row)
    }
}

/// One lane of a key column, when the column is a primitive lane or a
/// primitive constant.
fn key_lane<'c>(col: &'c VCol<'_>) -> Option<KeyLane<'c>> {
    Some(match col {
        VCol::Long(v) => KeyLane::Longs(v),
        VCol::Double(v) => KeyLane::Doubles(v),
        VCol::Bool(v) => KeyLane::Bools(v),
        VCol::Const(Value::Long(n)) => KeyLane::Const(Prim::Long(*n)),
        VCol::Const(Value::Double(x)) => KeyLane::Const(Prim::Double(*x)),
        VCol::Const(Value::Bool(b)) => KeyLane::Const(Prim::Bool(*b)),
        _ => return None,
    })
}

/// A key column of flat tuples read without boxing, such as an `(i, j)`
/// index: one primitive lane or constant per field. `None` for anything
/// else — a primitive key (boxed without an allocation), a string field,
/// a nested tuple, a type-mixed field — whose keys are read as `Value`s.
fn key_lanes<'c>(col: &'c VCol<'_>) -> Option<KeyLanes<'c>> {
    match col {
        VCol::Tuple(cols) => cols
            .iter()
            .map(key_lane)
            .collect::<Option<_>>()
            .map(KeyLanes),
        _ => None,
    }
}

/// Hands `each` the key of every row of a key column of `len` rows, in
/// row order: read from its lanes when it has them ([`key_lanes`]),
/// borrowed from the column otherwise.
pub(crate) fn each_key(
    col: &VCol,
    len: usize,
    mut each: impl FnMut(usize, Key<'_>) -> Result<()>,
) -> Result<()> {
    match key_lanes(col) {
        Some(keys) => (0..len).try_for_each(|i| each(i, Key::from(keys.key(i)))),
        None => (0..len).try_for_each(|i| each(i, Key::from(col.at(i)))),
    }
}

/// The lane kernel of a monoid over longs: [`BinOp::apply`]'s arithmetic
/// on two `Value::Long`s, unboxed. One closure for every monoid, so a loop
/// over a lane calls no function per row: the compiler moves the `match`
/// on the loop-invariant `op` out of the loop.
fn long_kernel(op: BinOp) -> Option<impl Fn(i64, i64) -> i64> {
    use BinOp::*;
    matches!(op, Add | Mul | Min | Max).then_some(move |a: i64, x: i64| match op {
        Add => a.wrapping_add(x),
        Mul => a.wrapping_mul(x),
        Min => a.min(x),
        _ => a.max(x),
    })
}

/// The lane kernel of a monoid over doubles. `min`/`max` keep the left
/// operand on ties, as `apply` does.
fn double_kernel(op: BinOp) -> Option<impl Fn(f64, f64) -> f64> {
    use std::cmp::Ordering;
    use BinOp::*;
    matches!(op, Add | Mul | Min | Max).then_some(move |a: f64, x: f64| match op {
        Add => a + x,
        Mul => a * x,
        Min => match a.total_cmp(&x) {
            Ordering::Greater => x,
            _ => a,
        },
        _ => match a.total_cmp(&x) {
            Ordering::Less => x,
            _ => a,
        },
    })
}

fn bool_kernel(op: BinOp) -> Option<impl Fn(bool, bool) -> bool> {
    matches!(op, BinOp::And | BinOp::Or).then_some(move |a, x| match op {
        BinOp::And => a && x,
        _ => a || x,
    })
}

/// The two lanes of a struct-of-arrays `(long, double)` column: what `^`
/// folds without boxing.
fn argmin_lanes<'c>(col: &'c VCol<'_>) -> Option<(Lane<'c, i64>, Lane<'c, f64>)> {
    match col {
        VCol::Tuple(cols) => match cols.as_slice() {
            [index, distance] => Some((lane_i64(index)?, lane_f64(distance)?)),
            _ => None,
        },
        _ => None,
    }
}

/// `^` on two `(index, distance)` pairs, unboxed: the left one unless the
/// right one's distance is smaller — `BinOp::apply`'s `da <= db`, which a
/// NaN on either side fails.
fn argmin_kernel(a: (i64, f64), x: (i64, f64)) -> (i64, f64) {
    if a.1 <= x.1 {
        a
    } else {
        x
    }
}

/// Folds a primitive lane into `acc` with the kernel `k`, row `i` into
/// slot `slots[i]`, in row order; `false` (nothing folded) without a lane
/// or a kernel. Slots are handed out in first-seen order, so a slot past
/// the end is always the very next one: a new key's first value. When
/// every row folds into slot 0 — a total aggregation, a tile of one key —
/// the fold is a straight loop over the lane.
fn fold_prim<T: Copy>(
    acc: &mut Vec<T>,
    slots: &[u32],
    lane: Option<Lane<'_, T>>,
    k: Option<impl Fn(T, T) -> T>,
) -> bool {
    let (Some(lane), Some(k)) = (lane, k) else {
        return false;
    };
    // Or-ing every slot is a loop the compiler vectorizes.
    if acc.len() <= 1 && !slots.is_empty() && slots.iter().fold(0, |or, &s| or | s) == 0 {
        let (a, from) = acc.pop().map_or((lane.at(0), 1), |a| (a, 0));
        acc.push(match &lane {
            Lane::V(xs) => xs[from..].iter().fold(a, |a, &x| k(a, x)),
            Lane::C(x) => (from..slots.len()).fold(a, |a, _| k(a, *x)),
        });
        return true;
    }
    let mut fold = |s: u32, x: T| match acc.get_mut(s as usize) {
        Some(a) => *a = k(*a, x),
        None => acc.push(x),
    };
    match &lane {
        Lane::V(xs) => slots.iter().zip(xs.iter()).for_each(|(&s, &x)| fold(s, x)),
        Lane::C(x) => slots.iter().for_each(|&s| fold(s, *x)),
    }
    true
}

/// An empty accumulator for `op` that starts at `first`: a primitive
/// lane, tuple lanes for `^`'s pairs and for a `+` over a tuple — flat or
/// nested — of longs and doubles, the boxed lane for anything else.
fn accumulator(op: BinOp, first: &Value) -> LaneBuf {
    fn numbers(v: &Value) -> bool {
        match v {
            Value::Long(_) | Value::Double(_) => true,
            Value::Tuple(fields) => !fields.is_empty() && fields.iter().all(numbers),
            _ => false,
        }
    }
    match first {
        Value::Tuple(_) if op == BinOp::ArgMin || op == BinOp::Add && numbers(first) => {
            LaneBuf::like_value(first)
        }
        Value::Tuple(_) => LaneBuf::Boxed(Vec::new()),
        first => LaneBuf::like_value(first),
    }
}

/// The component lanes of a tuple lane of arity `n`: a struct-of-arrays
/// column's own, a constant's fields as constants. `None` for anything
/// else.
fn components<'a>(lane: &VCol<'a>, n: usize) -> Option<Vec<VCol<'a>>> {
    match lane {
        VCol::Tuple(cols) if cols.len() == n => Some(cols.to_vec()),
        VCol::Const(Value::Tuple(fields)) if fields.len() == n => {
            Some(fields.iter().map(|f| VCol::Const(f.clone())).collect())
        }
        _ => None,
    }
}

/// True when every component of a tuple sum's accumulators has a kernel
/// for its lane of `lane` — a long one for a long lane, a double one for
/// a double lane — so the sum folds component by component.
fn sum_folds(acc: &LaneBuf, lane: &VCol) -> bool {
    match acc {
        LaneBuf::Long(_) => lane_i64(lane).is_some(),
        LaneBuf::Double(_) => lane_f64(lane).is_some(),
        LaneBuf::Tuple(accs) => components(lane, accs.len())
            .is_some_and(|cols| accs.iter().zip(&cols).all(|(acc, col)| sum_folds(acc, col))),
        LaneBuf::Bool(_) | LaneBuf::Boxed(_) => false,
    }
}

/// A [`LaneBuf`] as accumulators, one per slot: what the keyed and the
/// total fold keep. A lane stays typed for as long as everything folded
/// in has a kernel for it, and turns into the boxed lane at the first
/// value that has not (a `^` pair folded by value into a held slot).
impl LaneBuf {
    /// Folds one boxed value into the accumulator at `slot` — the next
    /// slot starts a new key — with exactly [`BinOp::apply`]'s result: as
    /// a one-row lane when it has a kernel, through `apply` otherwise — a
    /// boxed lane, which has none, without building the one-row lane.
    fn fold_value(&mut self, op: BinOp, slot: usize, x: &Value) -> Result<()> {
        if slot == self.len() {
            if slot == 0 {
                *self = accumulator(op, x);
            }
            self.push_value(x);
        } else if matches!(self, LaneBuf::Boxed(_))
            || !self.fold_lane(op, &[slot as u32], &VCol::Const(x.clone()))
        {
            self.box_all();
            if let LaneBuf::Boxed(vals) = self {
                vals[slot] = op.apply(&vals[slot], x)?;
            }
        }
        Ok(())
    }

    /// Folds a whole lane — primitive, `(long, double)` as two lanes
    /// under `^`, a tuple of numbers as its component lanes under `+` —
    /// into the accumulators its rows' `slots` name, in row order
    /// ([`fold_prim`]), when the lane, the accumulators and `op` have a
    /// kernel in common: for a tuple sum, every component has one or
    /// none is folded. `false` (nothing folded) otherwise.
    fn fold_lane(&mut self, op: BinOp, slots: &[u32], lane: &VCol) -> bool {
        if self.len() == 0 && !slots.is_empty() {
            *self = accumulator(op, &lane.at(0));
        }
        match self {
            LaneBuf::Long(acc) => fold_prim(acc, slots, lane_i64(lane), long_kernel(op)),
            LaneBuf::Double(acc) => fold_prim(acc, slots, lane_f64(lane), double_kernel(op)),
            LaneBuf::Bool(acc) => fold_prim(acc, slots, lane_bool(lane), bool_kernel(op)),
            LaneBuf::Tuple(_) if op == BinOp::Add => {
                if !sum_folds(self, lane) {
                    return false;
                }
                let LaneBuf::Tuple(accs) = self else {
                    unreachable!("a tuple sum's accumulators are tuple lanes")
                };
                let cols = components(lane, accs.len()).expect("checked by `sum_folds`");
                for (acc, col) in accs.iter_mut().zip(&cols) {
                    let folded = acc.fold_lane(op, slots, col);
                    debug_assert!(folded, "checked by `sum_folds`");
                }
                true
            }
            LaneBuf::Tuple(acc) => match (acc.as_mut_slice(), argmin_lanes(lane)) {
                ([LaneBuf::Long(index), LaneBuf::Double(distance)], Some((xi, xd)))
                    if op == BinOp::ArgMin =>
                {
                    for (row, &s) in slots.iter().enumerate() {
                        let (s, x) = (s as usize, (xi.at(row), xd.at(row)));
                        if s < index.len() {
                            (index[s], distance[s]) = argmin_kernel((index[s], distance[s]), x);
                        } else {
                            index.push(x.0);
                            distance.push(x.1);
                        }
                    }
                    true
                }
                _ => false,
            },
            LaneBuf::Boxed(_) => false,
        }
    }
}

/// A keyed aggregation in progress — `reduce_by_key` with one monoid per
/// field of the value tuple: a [`TileSink`]. Rows are
/// `(key, (v1, …, vn))`; every distinct key gets a slot in a [`KeyTable`]
/// and one accumulator per monoid, and leaves as `(key, (a1, …, an))` in
/// first-seen order.
///
/// On the vectorized path a tile's key column is hashed where it lies and
/// each value lane is folded into its typed accumulators without boxing a
/// row. Each key's values are folded in row order either way, so doubles
/// round exactly as in a row-at-a-time combine.
pub(crate) struct KeyedFold<'o> {
    ops: &'o [BinOp],
    keys: KeyTable<()>,
    accs: Vec<LaneBuf>,
    /// The current tile's key slot per row (scratch, reused).
    slots: Vec<u32>,
}

impl<'o> KeyedFold<'o> {
    pub(crate) fn new(ops: &'o [BinOp]) -> KeyedFold<'o> {
        KeyedFold {
            ops,
            keys: KeyTable::new(),
            accs: ops.iter().map(|_| LaneBuf::Boxed(Vec::new())).collect(),
            slots: Vec::new(),
        }
    }

    /// Folds one boxed `(key, (v1, …, vn))` row.
    pub(crate) fn row(&mut self, row: &Value) -> Result<()> {
        let (key, vals) = key_value_ref(row)?;
        let vals = vals
            .as_tuple()
            .filter(|vs| vs.len() == self.ops.len())
            .ok_or_else(|| {
                RuntimeError::new(format!(
                    "keyed aggregation expects {} value(s) per key, got {vals}",
                    self.ops.len()
                ))
            })?;
        let slot = self.keys.upsert(Cow::Borrowed(key), || ()).slot;
        for ((acc, &op), x) in self.accs.iter_mut().zip(self.ops).zip(vals) {
            acc.fold_value(op, slot, x)?;
        }
        Ok(())
    }

    /// Folds `len` rows given as a key column and one value lane per
    /// monoid: the keys are looked up where they lie, then lanes with a
    /// kernel are folded a lane at a time — kernels cannot fail — and the
    /// rest through `apply` row by row, lanes in order within a row, so
    /// the first error is the row path's.
    fn fold_tile(&mut self, keys: &VCol, lanes: &[VCol], len: usize) -> Result<()> {
        let (ops, table, accs, slots) = (self.ops, &mut self.keys, &mut self.accs, &mut self.slots);
        slots.clear();
        // Each key form is looked up by code of its own.
        match (keys, key_lanes(keys)) {
            (VCol::Const(key), _) => slots.resize(len, table.upsert(key, || ()).slot as u32),
            (VCol::Long(lane), _) => table.upsert_longs(lane, || (), slots),
            (_, Some(lanes)) => {
                slots.extend((0..len).map(|i| table.upsert(lanes.key(i), || ()).slot as u32))
            }
            (_, None) => table.upsert_values(len, |i| keys.at(i), || (), slots),
        }
        let boxed: Vec<usize> = (0..lanes.len())
            .filter(|&j| !accs[j].fold_lane(ops[j], slots, &lanes[j]))
            .collect();
        if boxed.is_empty() {
            return Ok(());
        }
        slots.iter().enumerate().try_for_each(|(row, &slot)| {
            boxed
                .iter()
                .try_for_each(|&j| accs[j].fold_value(ops[j], slot as usize, &lanes[j].at(row)))
        })
    }

    /// Sends every key with its tuple of aggregates to its bucket among
    /// `partitions`, in first-seen order, as lanes: the key column and the
    /// accumulators as they are. The rows they stand for are the rows
    /// [`KeyedFold::finish`] hands out.
    pub(crate) fn scatter(self, sink: &mut ExchangeWriter<'_>, partitions: usize) -> Result<()> {
        let keys: Vec<Value> = self.keys.into_entries().map(|(k, ())| k).collect();
        let buckets: Vec<u32> = keys
            .iter()
            .map(|k| HashPartitioner.partition(k, partitions) as u32)
            .collect();
        let accs = self
            .accs
            .into_iter()
            .map(|acc| match acc {
                // A boxed accumulator (a type-mixed sum) leaves taken
                // apart, as a chunk's lanes are; typed ones, a tuple sum's
                // component lanes included, as they are.
                LaneBuf::Boxed(vals) => chunk::owned_col(vals),
                acc => acc.finish(),
            })
            .collect();
        let col = VCol::Tuple(Arc::new(vec![
            chunk::owned_col(keys),
            VCol::Tuple(Arc::new(accs)),
        ]));
        sink.emit_tile(&buckets, &col)
    }

    /// Hands out every key with its tuple of aggregates, in first-seen
    /// order, boxed.
    pub(crate) fn finish(self, emit: &mut dyn FnMut(Value, Value) -> Result<()>) -> Result<()> {
        let accs = self.accs;
        for (slot, (key, ())) in self.keys.into_entries().enumerate() {
            emit(
                key,
                Value::tuple(accs.iter().map(|a| a.get(slot)).collect()),
            )?;
        }
        Ok(())
    }
}

/// The key column and the value lanes of a tile of `len` rows
/// `(key, (v1, …, vn))`, `n` being `arity`: the struct-of-arrays pair the
/// keyed map builds as it is, and stored pairs of primitives taken apart
/// into lanes once ([`lanes_of`]). `None` for anything else, which folds
/// row by row.
fn pair_lanes<'a>(col: &VCol<'a>, len: usize, arity: usize) -> Option<(VCol<'a>, Vec<VCol<'a>>)> {
    match lanes_of(col, len) {
        VCol::Tuple(kv) => match kv.as_slice() {
            [keys, VCol::Tuple(lanes)] if lanes.len() == arity => {
                Some((keys.clone(), lanes.to_vec()))
            }
            _ => None,
        },
        _ => None,
    }
}

impl TileSink for KeyedFold<'_> {
    fn tile(&mut self, col: &VCol, len: usize) -> Result<()> {
        match pair_lanes(col, len, self.ops.len()) {
            Some((keys, lanes)) => self.fold_tile(&keys, &lanes, len),
            None => (0..len).try_for_each(|i| self.row(&col.at(i))),
        }
    }

    fn row(&mut self, row: Value) -> Result<()> {
        KeyedFold::row(self, &row)
    }
}

/// A total aggregation in progress (`Dataset::aggregate`): by Rule (16) a
/// keyed one on a constant key, so every row folds into the one slot of
/// one accumulator, in row order.
pub(crate) struct TotalFold<'o>(KeyedFold<'o>);

impl<'o> TotalFold<'o> {
    pub(crate) fn new(op: &'o BinOp) -> TotalFold<'o> {
        TotalFold(KeyedFold::new(std::slice::from_ref(op)))
    }

    /// The aggregate in slot 0; `None` when no row was folded.
    pub(crate) fn finish(self) -> Option<Value> {
        let acc = self.0.accs.first()?;
        (acc.len() > 0).then(|| acc.get(0))
    }
}

impl TileSink for TotalFold<'_> {
    fn tile(&mut self, col: &VCol, len: usize) -> Result<()> {
        self.0
            .fold_tile(&VCol::Const(Value::Unit), std::slice::from_ref(col), len)
    }

    /// A row folds straight into slot 0: the one key needs no lookup.
    fn row(&mut self, row: Value) -> Result<()> {
        self.0.accs[0].fold_value(self.0.ops[0], 0, &row)
    }
}

/// The block packer as a [`TileSink`]: a tile whose index columns
/// are long lanes is packed without boxing a row — its value column read
/// as a double lane when it is one — and anything else row by row.
impl TileSink for Packer {
    fn tile(&mut self, col: &VCol, len: usize) -> Result<()> {
        let at = self.cols();
        if let VCol::Tuple(cols) = col {
            let lane = |c: usize| cols.get(c).and_then(lane_i64);
            if let (Some(i), Some(j), Some(x)) = (lane(at.row), lane(at.col), cols.get(at.value)) {
                match lane_f64(x) {
                    Some(x) => (0..len).for_each(|r| self.put_f64(i.at(r), j.at(r), x.at(r))),
                    None => (0..len).for_each(|r| self.put(i.at(r), j.at(r), &x.at(r))),
                }
                return Ok(());
            }
        }
        (0..len).try_for_each(|r| self.row(&col.at(r)))
    }

    fn row(&mut self, row: Value) -> Result<()> {
        Packer::row(self, &row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{drive, Udf};

    fn longs(ns: &[i64]) -> Vec<Value> {
        ns.iter().map(|&n| Value::Long(n)).collect()
    }

    fn step_map(expr: RowExpr, tag: Option<&str>) -> Step {
        Step {
            op: StepOp::Map(Arc::new(expr)),
            tag: tag.map(Arc::from),
        }
    }

    fn step_filter(expr: RowExpr, tag: Option<&str>) -> Step {
        Step {
            op: StepOp::Filter(Arc::new(expr)),
            tag: tag.map(Arc::from),
        }
    }

    fn run_both(
        rows: &[Value],
        steps: &[Step],
        batch: usize,
    ) -> (Result<Vec<Value>>, Result<Vec<Value>>) {
        let stats = Stats::default();
        let mut col_out = Vec::new();
        let mut sink = RowSink(&mut |v| {
            col_out.push(v);
            Ok(())
        });
        let col_res = drive_tiles(Source::Rows(rows), steps, batch, &stats, &mut sink)
            .map(|()| std::mem::take(&mut col_out));
        let mut row_out = Vec::new();
        let row_res = (|| {
            for row in rows {
                drive(Cow::Borrowed(row), steps, &mut |v| {
                    row_out.push(v);
                    Ok(())
                })?;
            }
            Ok(())
        })()
        .map(|()| std::mem::take(&mut row_out));
        (col_res, row_res)
    }

    fn bin(op: BinOp, a: RowExpr, b: RowExpr) -> RowExpr {
        RowExpr::Bin(op, Box::new(a), Box::new(b))
    }

    #[test]
    fn arithmetic_chain_matches_row_path() {
        let rows = longs(&(0..1000).collect::<Vec<i64>>());
        let steps = vec![
            step_map(
                bin(BinOp::Mul, RowExpr::Input, RowExpr::Const(Value::Long(3))),
                None,
            ),
            step_map(
                bin(BinOp::Add, RowExpr::Input, RowExpr::Const(Value::Long(7))),
                None,
            ),
            step_filter(
                bin(BinOp::Gt, RowExpr::Input, RowExpr::Const(Value::Long(100))),
                None,
            ),
            step_map(
                bin(BinOp::Mod, RowExpr::Input, RowExpr::Const(Value::Long(11))),
                None,
            ),
        ];
        let (col, row) = run_both(&rows, &steps, 64);
        assert_eq!(col.unwrap(), row.unwrap());
    }

    #[test]
    fn tuple_projection_and_rebuild_match_row_path() {
        let rows: Vec<Value> = (0..300)
            .map(|i| Value::pair(Value::Long(i), Value::Double(i as f64 / 2.0)))
            .collect();
        let steps = vec![step_map(
            RowExpr::Tuple(vec![
                RowExpr::Col(1),
                bin(BinOp::Add, RowExpr::Col(0), RowExpr::Const(Value::Long(1))),
            ]),
            None,
        )];
        let (col, row) = run_both(&rows, &steps, 128);
        assert_eq!(col.unwrap(), row.unwrap());
    }

    #[test]
    fn mixed_long_double_comparison_promotes_like_the_runtime() {
        let rows: Vec<Value> = (0..100)
            .map(|i| {
                if i % 2 == 0 {
                    Value::Long(i)
                } else {
                    Value::Double(i as f64 - 0.5)
                }
            })
            .collect();
        let steps = vec![step_filter(
            bin(
                BinOp::Ge,
                RowExpr::Input,
                RowExpr::Const(Value::Double(50.0)),
            ),
            None,
        )];
        let (col, row) = run_both(&rows, &steps, 32);
        assert_eq!(col.unwrap(), row.unwrap());
    }

    #[test]
    fn string_comparisons_read_the_source_rows_in_place() {
        let words = ["apple", "pear", "plum"];
        let rows: Vec<Value> = (0..200).map(|i| Value::str(words[i % 3])).collect();
        let steps = vec![step_filter(
            bin(BinOp::Eq, RowExpr::Input, RowExpr::Input),
            None,
        )];
        let (col, row) = run_both(&rows, &steps, 64);
        assert_eq!(col.unwrap(), row.unwrap());
        // Against a constant, and ordered.
        for op in [BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Ge] {
            let steps = vec![step_filter(
                bin(op, RowExpr::Input, RowExpr::Const(Value::str("pear"))),
                None,
            )];
            let (col, row) = run_both(&rows, &steps, 64);
            let kept = col.unwrap();
            assert!(!kept.is_empty() && kept.len() < rows.len(), "{op:?}");
            assert_eq!(kept, row.unwrap(), "{op:?}");
        }
    }

    fn unpack_step(shape: Shape) -> Step {
        step_map(
            RowExpr::Unpack {
                shape,
                mismatch: "pattern P does not match source row".into(),
            },
            Some("s1:X"),
        )
    }

    #[test]
    fn unpack_destructures_like_a_pattern() {
        // ((i, _), (x, w)) over rows ((i, j), (x, w)) binds (i, (x, w))…
        let rows: Vec<Value> = (0..150)
            .map(|i| {
                Value::pair(
                    Value::pair(Value::Long(i), Value::Long(-i)),
                    Value::pair(Value::Double(i as f64 / 4.0), Value::str("w")),
                )
            })
            .collect();
        let shape = Shape::Tuple(vec![
            Shape::Tuple(vec![Shape::Bind, Shape::Skip]),
            Shape::Bind,
        ]);
        // …and the next step projects into the bound tuple.
        let steps = vec![
            unpack_step(shape),
            step_map(
                RowExpr::Tuple(vec![
                    RowExpr::field(RowExpr::Col(1), "_1"),
                    RowExpr::Col(0),
                    RowExpr::field(RowExpr::Col(1), "_2"),
                ]),
                None,
            ),
        ];
        let (col, row) = run_both(&rows, &steps, 64);
        let out = col.unwrap();
        assert_eq!(
            out[6],
            Value::tuple(vec![Value::Double(1.5), Value::Long(6), Value::str("w")])
        );
        assert_eq!(out, row.unwrap());
    }

    #[test]
    fn unpack_mismatches_raise_the_row_paths_error() {
        // Row 70 is a triple, row 90 not a tuple at all: arity is part of
        // the shape, and the first offender in row order is reported.
        let mut rows: Vec<Value> = (0..100)
            .map(|i| Value::pair(Value::Long(i), Value::Long(i)))
            .collect();
        rows[70] = Value::tuple(vec![Value::Long(1), Value::Long(2), Value::Long(3)]);
        rows[90] = Value::Long(9);
        let steps = vec![unpack_step(Shape::Tuple(vec![Shape::Skip, Shape::Bind]))];
        for batch in [1, 32, 4096] {
            let (col, row) = run_both(&rows, &steps, batch);
            let (col, row) = (col.unwrap_err(), row.unwrap_err());
            assert_eq!(col.to_string(), row.to_string());
            assert_eq!(
                col.message,
                "[s1:X] pattern P does not match source row (1, 2, 3)"
            );
        }
    }

    #[test]
    fn boxed_comparisons_equal_the_row_path_to_the_bit() {
        use BinOp::*;
        let strs = ["key", "key", "ke", "key1", "", "kéy", "ké", "KEY", "zzz"];
        let strings: Vec<Value> = strs.iter().map(Value::str).collect();
        let tuple = Value::pair(Value::Long(1), Value::str("key"));
        let mixed = vec![
            Value::str("key"),
            Value::Long(1),
            Value::Double(1.0),
            Value::Long(0),
            Value::Double(-0.0),
            Value::Double(0.0),
            Value::Double(f64::NAN),
            Value::Unit,
            tuple.clone(),
            Value::str(""),
            Value::Bool(true),
        ];
        let constants = [
            Value::str("key"),
            Value::str(""),
            Value::str("kéy"),
            Value::Long(1),
            Value::Double(1.0),
            Value::Long(0),
            Value::Double(-0.0),
            Value::Double(f64::NAN),
            Value::Unit,
            tuple,
        ];
        for rows in [&strings, &mixed] {
            let lanes = [
                VCol::Refs(Arc::new(rows.iter().collect())),
                VCol::Val(Arc::new(rows.clone())),
            ];
            for (lane, c) in lanes
                .iter()
                .flat_map(|l| constants.iter().map(move |c| (l, c)))
            {
                let k = VCol::Const(c.clone());
                for op in [Eq, Ne, Lt, Le, Gt, Ge] {
                    for (a, b, flipped) in [(lane, &k, false), (&k, lane, true)] {
                        assert!(boxed_cmp(op, a, b).is_some(), "{op:?} takes the loop");
                        let got = vec_bin(op, a, b, rows.len()).unwrap();
                        assert!(matches!(got, VCol::Bool(_)), "{op:?}: a boolean lane");
                        for (i, row) in rows.iter().enumerate() {
                            let want = if flipped {
                                op.apply(c, row)
                            } else {
                                op.apply(row, c)
                            };
                            let side = if flipped {
                                "constant first"
                            } else {
                                "row first"
                            };
                            assert!(
                                same_value(&got.get(i), &want.unwrap()),
                                "{row} {op:?} {c}, {side}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_repeated_operand_is_evaluated_once_to_the_same_bits() {
        // `(p._1 - c) * (p._1 - c)`, a squared distance, over doubles that
        // round, overflow, are NaN or negative zero, and over longs.
        let xs = [0.1, -0.0, 1e300, f64::NAN, 2.5, -7.25, f64::INFINITY];
        let rows: Vec<Value> = (0..300)
            .map(|i| {
                let x = xs[i % xs.len()] * (i as f64 + 1.0).sqrt();
                Value::pair(Value::Double(x), Value::Long(i as i64 - 150))
            })
            .collect();
        let p1 = RowExpr::field(RowExpr::Input, "_1");
        let p2 = RowExpr::field(RowExpr::Input, "_2");
        let diff = |e: &RowExpr, c: Value| bin(BinOp::Sub, e.clone(), RowExpr::Const(c));
        let squared = |d: RowExpr| bin(BinOp::Mul, d.clone(), d);
        let exprs = [
            squared(diff(&p1, Value::Double(0.3))),
            squared(diff(&p2, Value::Long(3))),
            squared(diff(&p2, Value::Double(3.0))),
            // Equal values, different constants: both sides are evaluated.
            bin(
                BinOp::Mul,
                diff(&p2, Value::Long(1)),
                diff(&p2, Value::Double(1.0)),
            ),
            bin(
                BinOp::Add,
                diff(&p1, Value::Double(0.0)),
                diff(&p1, Value::Double(-0.0)),
            ),
        ];
        for expr in exprs {
            let (col, row) = run_both(&rows, &[step_map(expr.clone(), None)], 64);
            let (col, row) = (col.unwrap(), row.unwrap());
            assert_eq!(col.len(), row.len());
            for (c, r) in col.iter().zip(&row) {
                assert!(same_value(c, r), "{expr:?}: {c} against {r}");
            }
        }
        let operands = |e: &RowExpr| match e {
            RowExpr::Bin(_, a, b) => a == b,
            _ => unreachable!(),
        };
        assert!(operands(&squared(diff(&p1, Value::Double(0.3)))));
        let pair = |a: Value, b: Value| bin(BinOp::Mul, diff(&p2, a), diff(&p2, b));
        assert!(!operands(&pair(Value::Long(1), Value::Double(1.0))));
        assert!(!operands(&pair(Value::Double(0.0), Value::Double(-0.0))));
        let nan = Value::Double(f64::NAN);
        assert!(operands(&pair(nan.clone(), nan)));
        let tuple = |x: Value| Value::pair(Value::Long(1), x);
        assert!(!operands(&pair(
            tuple(Value::Long(2)),
            tuple(Value::Double(2.0))
        )));
    }

    #[test]
    fn column_folds_equal_row_folds_to_the_bit() {
        // Doubles of mixed magnitude: any re-association changes the sum.
        let rows: Vec<Value> = (0..1000i64)
            .map(|i| {
                Value::tuple(vec![
                    Value::Long(i - 500),
                    Value::Double((i * 7919 % 1000) as f64 * 1e-3 + (i % 13) as f64 * 1e6),
                    Value::Bool(i % 101 != 100),
                ])
            })
            .collect();
        let cases = [
            (BinOp::Add, 0),
            (BinOp::Mul, 0),
            (BinOp::Min, 0),
            (BinOp::Max, 0),
            (BinOp::Add, 1),
            (BinOp::Min, 1),
            (BinOp::Max, 1),
            (BinOp::And, 2),
            (BinOp::Or, 2),
        ];
        for (op, col) in cases {
            // A filter in front, so tiles survive partially and some not at all.
            let steps = vec![
                step_filter(
                    bin(
                        BinOp::Ge,
                        RowExpr::Col(0),
                        RowExpr::Const(Value::Long(-300)),
                    ),
                    None,
                ),
                step_map(RowExpr::Col(col), None),
            ];
            // The reference: `apply`, left to right. The fold's own row
            // path must agree with it too.
            let (mut by_row, mut by_sink_row) = (None::<Value>, TotalFold::new(&op));
            for row in &rows {
                drive(Cow::Borrowed(row), &steps, &mut |v| {
                    by_row = Some(match by_row.take() {
                        Some(a) => op.apply(&a, &v)?,
                        None => v.clone(),
                    });
                    by_sink_row.row(v)
                })
                .unwrap();
            }
            assert!(by_row.is_some());
            assert_eq!(format!("{:?}", by_sink_row.finish()), format!("{by_row:?}"));
            for batch in [1, 7, 256, 4096] {
                let stats = Stats::default();
                let mut sink = TotalFold::new(&op);
                drive_tiles(Source::Rows(&rows), &steps, batch, &stats, &mut sink).unwrap();
                let by_col = sink.finish();
                assert_eq!(
                    format!("{by_col:?}"),
                    format!("{by_row:?}"),
                    "{op:?} over column {col}, batch {batch}"
                );
                assert!(stats.snapshot().vectorized_batches > 0);
            }
        }
    }

    #[test]
    fn argmin_ties_keep_the_left_pair_on_every_fold() {
        // Ties, NaN on either side of a comparison, and both zeros: the
        // kernel, a lane fold into one slot or into keyed slots, and a
        // value-at-a-time fold must all pick what `apply` picks, bits
        // included.
        let nan = f64::NAN;
        let pairs: Vec<(i64, f64)> = [0.5, 0.5, nan, 0.25, 0.25, -0.0, 0.0, nan, nan, 0.0, -0.0]
            .iter()
            .enumerate()
            .map(|(i, &d)| (i as i64, d))
            .collect();
        let boxed = |&(i, d): &(i64, f64)| Value::pair(Value::Long(i), Value::Double(d));
        let bits = |v: &Value| {
            let mut out = Vec::new();
            crate::exchange::encode_value(v, &mut out).unwrap();
            out
        };
        for a in &pairs {
            for x in &pairs {
                let want = BinOp::ArgMin.apply(&boxed(a), &boxed(x)).unwrap();
                assert_eq!(
                    bits(&boxed(&argmin_kernel(*a, *x))),
                    bits(&want),
                    "{a:?} ^ {x:?}"
                );
            }
        }
        let lane = VCol::Tuple(Arc::new(vec![
            long_col(pairs.iter().map(|p| p.0).collect()),
            double_col(pairs.iter().map(|p| p.1).collect()),
        ]));
        for keys in [1, 3] {
            let slots: Vec<u32> = (0..pairs.len() as u32).map(|i| i % keys).collect();
            let mut want: Vec<Value> = Vec::new();
            for (p, &s) in pairs.iter().zip(&slots) {
                match want.get_mut(s as usize) {
                    Some(a) => *a = BinOp::ArgMin.apply(a, &boxed(p)).unwrap(),
                    None => want.push(boxed(p)),
                }
            }
            let mut by_lane = LaneBuf::Boxed(Vec::new());
            assert!(by_lane.fold_lane(BinOp::ArgMin, &slots, &lane));
            assert!(matches!(by_lane, LaneBuf::Tuple(_)), "kept as lanes");
            let mut by_value = LaneBuf::Boxed(Vec::new());
            for (row, p) in pairs.iter().enumerate() {
                by_value
                    .fold_value(BinOp::ArgMin, slots[row] as usize, &boxed(p))
                    .unwrap();
            }
            for (slot, want) in want.iter().enumerate() {
                assert_eq!(bits(&by_lane.get(slot)), bits(want), "{keys} keys, lane");
                assert_eq!(bits(&by_value.get(slot)), bits(want), "{keys} keys, value");
            }
        }
    }

    /// Runs a keyed aggregation over `rows` through `steps`, by tile and by
    /// row, and returns what each emitted (or raised).
    fn combine_both(
        rows: &[Value],
        steps: &[Step],
        ops: &[BinOp],
        batch: usize,
    ) -> (Result<Vec<Value>>, Result<Vec<Value>>) {
        let finish = |fold: KeyedFold<'_>| {
            let mut out = Vec::new();
            fold.finish(&mut |k, v| {
                out.push(Value::pair(k, v));
                Ok(())
            })
            .map(|()| out)
        };
        let stats = Stats::default();
        let mut by_tile = KeyedFold::new(ops);
        let tiled = drive_tiles(Source::Rows(rows), steps, batch, &stats, &mut by_tile)
            .and_then(|()| finish(by_tile));
        let mut by_row = KeyedFold::new(ops);
        let rowed = rows
            .iter()
            .try_for_each(|row| drive(Cow::Borrowed(row), steps, &mut |v| by_row.row(&v)))
            .and_then(|()| finish(by_row));
        (tiled, rowed)
    }

    #[test]
    fn keyed_folds_equal_row_folds_to_the_bit() {
        // (i, x, word): doubles of mixed magnitude, so re-association or
        // a changed per-key order changes a sum.
        let words = ["apple", "pear", "plum"];
        let rows: Vec<Value> = (0..1000i64)
            .map(|i| {
                Value::tuple(vec![
                    Value::Long(i),
                    Value::Double((i * 7919 % 1000) as f64 * 1e-3 + (i % 13) as f64 * 1e6),
                    Value::str(words[(i * 7 % 3) as usize]),
                ])
            })
            .collect();
        let keyed = |key: RowExpr| {
            vec![step_map(
                RowExpr::Tuple(vec![
                    key,
                    RowExpr::Tuple(vec![
                        RowExpr::Col(1),
                        RowExpr::Const(Value::Long(1)),
                        RowExpr::Col(0),
                        RowExpr::Tuple(vec![RowExpr::Col(0), RowExpr::Col(1)]),
                    ]),
                ]),
                None,
            )]
        };
        let ops = [BinOp::Add, BinOp::Add, BinOp::Max, BinOp::ArgMin];
        let keys = [
            bin(BinOp::Mod, RowExpr::Col(0), RowExpr::Const(Value::Long(17))),
            RowExpr::Col(2),
            RowExpr::Tuple(vec![
                RowExpr::Col(2),
                bin(BinOp::Mod, RowExpr::Col(0), RowExpr::Const(Value::Long(2))),
            ]),
            RowExpr::Const(Value::Unit),
        ];
        for key in keys {
            let steps = keyed(key);
            for batch in [1, 7, 256, 4096] {
                let (tiled, rowed) = combine_both(&rows, &steps, &ops, batch);
                let tiled = tiled.unwrap();
                assert!(!tiled.is_empty());
                assert_eq!(format!("{tiled:?}"), format!("{:?}", rowed.unwrap()));
            }
        }
    }

    /// The bytes of `rows`' encodings: NaN payloads and `-0.0` included.
    fn encoded(rows: &[Value]) -> Vec<u8> {
        let mut out = Vec::new();
        rows.iter()
            .for_each(|v| crate::exchange::encode_value(v, &mut out).unwrap());
        out
    }

    /// A keyed fold's output rows.
    fn folded(fold: KeyedFold<'_>) -> Vec<Value> {
        let mut out = Vec::new();
        fold.finish(&mut |k, v| {
            out.push(Value::pair(k, v));
            Ok(())
        })
        .unwrap();
        out
    }

    /// Folds `tiles` — each a key column, one lane per monoid and a row
    /// count — through `fold_tile`, and their rows boxed through
    /// `KeyedFold::row`: the two outputs, and the tile fold's
    /// accumulators' kinds.
    fn fold_tiles_and_rows(
        ops: &[BinOp],
        tiles: &[(VCol<'static>, Vec<VCol<'static>>, usize)],
    ) -> (Vec<u8>, Vec<u8>, Vec<bool>) {
        let mut by_tile = KeyedFold::new(ops);
        let mut by_row = KeyedFold::new(ops);
        for (keys, lanes, len) in tiles {
            by_tile.fold_tile(keys, lanes, *len).unwrap();
            for i in 0..*len {
                let vals = Value::tuple(lanes.iter().map(|l| l.get(i)).collect());
                by_row.row(&Value::pair(keys.get(i), vals)).unwrap();
            }
        }
        let typed = by_tile
            .accs
            .iter()
            .map(|a| matches!(a, LaneBuf::Tuple(_)))
            .collect();
        (encoded(&folded(by_tile)), encoded(&folded(by_row)), typed)
    }

    #[test]
    fn tuple_sums_fold_as_lanes_to_the_row_paths_bytes() {
        let n = 40;
        let keys = || VCol::Long(Arc::new((0..n as i64).map(|i| i * 7 % 5).collect()));
        let doubles = |f: fn(usize) -> f64| VCol::Double(Arc::new((0..n).map(f).collect()));
        let tuple = |cols: Vec<VCol<'static>>| VCol::Tuple(Arc::new(cols));
        let ones = || VCol::Long(Arc::new(vec![1; n]));
        // Magnitudes far apart, a NaN and both zeros: a sum that
        // re-associated or changed its per-key order would show.
        let x = doubles(|i| match i {
            3 => f64::NAN,
            4 => -0.0,
            _ => (i * 7919 % 1000) as f64 * 1e-3 + (i % 3) as f64 * 1e9,
        });
        let y = doubles(|i| 0.1 * i as f64 - 1.5);
        let add = [BinOp::Add];

        // `(x, y, 1)`, as K-Means averages, over two tiles.
        let flat = tuple(vec![x.clone(), y.clone(), ones()]);
        let tiles = [
            (keys(), vec![flat.clone()], n),
            (keys(), vec![flat.clone()], n),
        ];
        let (tiled, rowed, typed) = fold_tiles_and_rows(&add, &tiles);
        assert_eq!(tiled, rowed, "flat");
        assert_eq!(typed, [true], "a tuple of numbers sums as lanes");

        // `((x, y), 1)`, nested, next to a plain sum.
        let nested = tuple(vec![tuple(vec![x.clone(), y.clone()]), ones()]);
        let tiles = [(keys(), vec![nested, y.clone()], n)];
        let (tiled, rowed, typed) = fold_tiles_and_rows(&[BinOp::Add, BinOp::Add], &tiles);
        assert_eq!(tiled, rowed, "nested");
        assert_eq!(typed, [true, false]);

        // A constant tuple lane, after a tile of lanes.
        let pair = Value::pair(Value::Double(0.25), Value::Long(3));
        let tiles = [
            (keys(), vec![tuple(vec![y.clone(), ones()])], n),
            (keys(), vec![VCol::Const(pair)], n),
        ];
        let (tiled, rowed, typed) = fold_tiles_and_rows(&add, &tiles);
        assert_eq!(tiled, rowed, "constant");
        assert_eq!(typed, [true]);

        // A long component that turns double mid-tile (a boxed lane) or
        // in the next tile (a double lane): no kernel adds a double to a
        // long, so the sums are boxed and `apply` promotes them.
        let mixed = VCol::Val(Arc::new(
            (0..n)
                .map(|i| match i {
                    17 => Value::Double(0.5),
                    _ => Value::Long(1),
                })
                .collect(),
        ));
        for second in [mixed, doubles(|i| i as f64 * 0.5)] {
            let tiles = [
                (keys(), vec![tuple(vec![x.clone(), ones()])], n),
                (keys(), vec![tuple(vec![x.clone(), second])], n),
            ];
            let (tiled, rowed, typed) = fold_tiles_and_rows(&add, &tiles);
            assert_eq!(tiled, rowed, "long turned double");
            assert_eq!(typed, [false], "boxed at the first double");
        }
    }

    #[test]
    fn stored_pairs_reach_the_lane_fold() {
        // `(k, (n, x))` pairs as a scan reads them: boxed, one per row.
        let pairs: Vec<Value> = (0..300i64)
            .map(|i| {
                let x = match i {
                    11 => f64::NAN,
                    _ => (i * 7919 % 1000) as f64 * 1e-3 + (i % 7) as f64 * 1e8,
                };
                Value::pair(
                    Value::Long(i % 23),
                    Value::pair(Value::Long(i), Value::Double(x)),
                )
            })
            .collect();
        // A tile of them comes apart into the key lane and the value
        // lanes `KeyedFold::tile` hands to `fold_tile` ...
        let tile = decompose(&pairs);
        assert!(matches!(tile, VCol::Refs(_)));
        let (keys, vals) = pair_lanes(&tile, pairs.len(), 2).expect("taken apart");
        assert!(matches!(keys, VCol::Long(_)));
        assert!(matches!(vals.as_slice(), [VCol::Long(_), VCol::Double(_)]));
        // (a pair with a string leaf, or of another arity, does not) ...
        let mut odd = pairs.clone();
        odd[5] = Value::pair(
            Value::Long(5),
            Value::pair(Value::str("x"), Value::Double(1.0)),
        );
        assert!(pair_lanes(&decompose(&odd), odd.len(), 2).is_none());
        assert!(pair_lanes(&tile, pairs.len(), 3).is_none());
        // ... and folds to the row path's bytes, tile by tile or in a
        // `map_expr(Input).aggregate_by_key` on either layout.
        let ops = [BinOp::Add, BinOp::Add];
        let pass = vec![step_map(RowExpr::Input, None)];
        for batch in [1, 7, 4096] {
            let (tiled, rowed) = combine_both(&pairs, &pass, &ops, batch);
            assert_eq!(encoded(&tiled.unwrap()), encoded(&rowed.unwrap()));
        }
        let aggregate = |layout| {
            let ctx = crate::Context::new(2, 3).with_layout(layout);
            let agg = diablo_runtime::AggOp::new(BinOp::Add).unwrap();
            let out = ctx
                .from_vec(pairs.clone())
                .map_expr(RowExpr::Input)
                .and_then(|d| d.aggregate_by_key(vec![agg, agg]))
                .and_then(|d| d.try_collect())
                .unwrap();
            encoded(&out)
        };
        assert_eq!(
            aggregate(crate::Layout::Columnar),
            aggregate(crate::Layout::Row)
        );
    }

    /// A fold per row of the expansion `steps` over the fields `input`:
    /// `values` folded with `ops` from the start `init`.
    fn step_fold(
        input: Vec<usize>,
        steps: Vec<Step>,
        values: RowExpr,
        ops: Vec<BinOp>,
        init: RowExpr,
    ) -> Step {
        let fold = RowFold {
            input,
            steps,
            values,
            ops,
            init,
        };
        Step {
            op: StepOp::Fold(Arc::new(fold)),
            tag: None,
        }
    }

    #[test]
    fn row_fold_tiles_equal_row_folds_to_the_bit() {
        // (i, (x, y), name): the fold reads `i` and the boxed pair, which
        // a tile takes apart into lanes once per row (`lanes_of`).
        let rows: Vec<Value> = (0..300i64)
            .map(|i| {
                let (x, y) = ((i * 7 % 17) as f64 * 0.25, (i * 5 % 13) as f64 * 0.25);
                Value::tuple(vec![
                    Value::Long(i),
                    Value::pair(Value::Double(x), Value::Double(y)),
                    Value::str("p"),
                ])
            })
            .collect();
        let (x, y) = (
            RowExpr::field(RowExpr::Col(1), "_1"),
            RowExpr::field(RowExpr::Col(1), "_2"),
        );
        let double = |d: f64| RowExpr::Const(Value::Double(d));
        let square = |e: RowExpr| bin(BinOp::Mul, e.clone(), e);
        // Every row starts from `(100, 2.0)`, which ties with a distance
        // of 2, and from its own `y` for a sum.
        let init = RowExpr::Tuple(vec![
            RowExpr::Tuple(vec![RowExpr::Const(Value::Long(100)), double(2.0)]),
            y.clone(),
        ]);
        let ops = vec![BinOp::ArgMin, BinOp::Add];
        let bits = |rows: &[Value]| {
            let mut out = Vec::new();
            rows.iter()
                .for_each(|v| crate::exchange::encode_value(v, &mut out).unwrap());
            out
        };
        let check = |fold: &Step, empty: &dyn Fn(i64) -> bool| {
            for batch in [1, 7, 64, 4096] {
                let (tiled, rowed) = run_both(&rows, std::slice::from_ref(fold), batch);
                let (tiled, rowed) = (tiled.unwrap(), rowed.unwrap());
                assert_eq!(tiled.len(), rows.len(), "every row leaves");
                assert_eq!(bits(&tiled), bits(&rowed), "batch {batch}");
                // A row whose expansion is empty leaves with its start.
                for (row, out) in rows.iter().zip(&tiled) {
                    let fields = out.as_tuple().unwrap();
                    let i = fields[0].as_long().unwrap();
                    if empty(i) {
                        let start = init.eval(row).unwrap();
                        assert_eq!(&fields[3..], start.as_tuple().unwrap(), "row {i}");
                    }
                }
            }
        };

        // A cross of `(j, (cx, cy))` centroids, two of them equal and one
        // NaN, kept for `j < i % 5`: a row with `i % 5 == 0` expands to
        // nothing, and distances tie with each other and with the start.
        let centroids: Vec<Value> = [
            (3, 1.0, 1.0),
            (0, 2.0, 2.0),
            (4, 1.0, 1.0),
            (1, f64::NAN, 0.5),
            (2, 0.0, 3.0),
        ]
        .iter()
        .map(|&(j, cx, cy)| {
            Value::pair(
                Value::Long(j),
                Value::pair(Value::Double(cx), Value::Double(cy)),
            )
        })
        .collect();
        let c = |f: &str| RowExpr::field(RowExpr::Col(3), f);
        let dist = bin(
            BinOp::Add,
            square(bin(BinOp::Sub, x.clone(), c("_1"))),
            square(bin(BinOp::Sub, y.clone(), c("_2"))),
        );
        // A sum of mixed magnitudes: any other order changes its bits.
        let weight = bin(
            BinOp::Add,
            bin(BinOp::Mul, c("_2"), double(1e6)),
            bin(BinOp::Mul, x.clone(), double(1e-3)),
        );
        let cross = |items: Vec<Value>| {
            step_fold(
                vec![0, 1],
                vec![
                    step_cross(items, Shape::Tuple(vec![Shape::Bind, Shape::Bind]), None),
                    step_filter(
                        bin(
                            BinOp::Lt,
                            RowExpr::Col(2),
                            bin(BinOp::Mod, RowExpr::Col(0), RowExpr::Const(Value::Long(5))),
                        ),
                        None,
                    ),
                ],
                RowExpr::Tuple(vec![
                    RowExpr::Tuple(vec![RowExpr::Col(2), dist.clone()]),
                    weight.clone(),
                ]),
                ops.clone(),
                init.clone(),
            )
        };
        check(&cross(centroids), &|i| i % 5 == 0);
        check(&cross(Vec::new()), &|_| true);

        // A keyed probe on `i % 4` into `(k, (n, w))`: key 0 holds 10 build
        // rows, more than a tile width of 1 or 7, so a row's expansion is
        // cut into pieces; key 3 holds none. The `w`s repeat: `^` ties.
        let build: Vec<Value> = (0..10)
            .map(|n| (0, n))
            .chain([(1, 10), (1, 11), (1, 12), (2, 13)])
            .map(|(k, n)| {
                let w = [0.5, 1.5, 0.5, -2.0][n as usize % 4];
                Value::pair(
                    Value::Long(k),
                    Value::pair(Value::Long(n), Value::Double(w)),
                )
            })
            .collect();
        let keys = ProbeKeys {
            probe: bin(BinOp::Mod, RowExpr::Col(0), RowExpr::Const(Value::Long(4))),
            build: RowExpr::Col(0),
        };
        let w = RowExpr::field(RowExpr::Col(3), "_2");
        let probe = step_fold(
            vec![0, 1],
            vec![step_probe(
                build,
                Shape::Tuple(vec![Shape::Bind, Shape::Bind]),
                Some(keys),
            )],
            RowExpr::Tuple(vec![
                RowExpr::Col(3),
                bin(
                    BinOp::Add,
                    bin(BinOp::Mul, w, double(1e6)),
                    bin(BinOp::Mul, x, double(1e-3)),
                ),
            ]),
            ops.clone(),
            init.clone(),
        );
        check(&probe, &|i| i % 4 == 3);
    }

    #[test]
    fn a_keyed_fold_that_fails_raises_the_row_paths_error() {
        // Row 30 starts a key with a string where every other value is a
        // long, so row 31 (same key) cannot be added to it; row 60 divides
        // by zero in the keyed map. Whichever tile boundaries fall between
        // them, the fold's error on row 31 comes first.
        let rows: Vec<Value> = (0..100i64)
            .map(|i| {
                Value::pair(
                    Value::Long(i),
                    if i == 30 {
                        Value::str("thirty")
                    } else {
                        Value::Long(i)
                    },
                )
            })
            .collect();
        let steps = vec![step_map(
            RowExpr::Tuple(vec![
                bin(
                    BinOp::Div,
                    RowExpr::Const(Value::Long(600)),
                    bin(BinOp::Sub, RowExpr::Col(0), RowExpr::Const(Value::Long(60))),
                ),
                RowExpr::Tuple(vec![RowExpr::Col(1)]),
            ]),
            Some("s2:C"),
        )];
        for batch in [1, 8, 4096] {
            let (tiled, rowed) = combine_both(&rows, &steps, &[BinOp::Add], batch);
            let (tiled, rowed) = (tiled.unwrap_err(), rowed.unwrap_err());
            assert_eq!(tiled.to_string(), rowed.to_string(), "batch {batch}");
            assert!(tiled.message.contains("got string and long"), "{tiled}");
        }
    }

    #[test]
    fn division_by_zero_replays_to_the_identical_first_error_and_prefix() {
        // Row 700 divides by zero: the columnar batch fails, replays, and
        // both paths must deliver the same sunk prefix and the same error.
        let rows: Vec<Value> = (0..1000).map(|i| Value::Long(i - 700)).collect();
        let steps = vec![step_map(
            bin(BinOp::Div, RowExpr::Const(Value::Long(1)), RowExpr::Input),
            Some("s3:X := 1 / V[i]"),
        )];
        let stats = Stats::default();
        let mut col_out = Vec::new();
        let mut sink = RowSink(&mut |v| {
            col_out.push(v);
            Ok(())
        });
        let col_err = drive_tiles(Source::Rows(&rows), &steps, 256, &stats, &mut sink).unwrap_err();
        let mut row_out = Vec::new();
        let row_err = (|| -> Result<()> {
            for row in &rows {
                drive(Cow::Borrowed(row), &steps, &mut |v| {
                    row_out.push(v);
                    Ok(())
                })?;
            }
            Ok(())
        })()
        .unwrap_err();
        assert_eq!(col_err.to_string(), row_err.to_string());
        assert!(col_err.to_string().contains("s3:X"), "{col_err}");
        assert_eq!(col_out, row_out, "identical sunk prefix");
        let snap = stats.snapshot();
        assert!(snap.vectorized_batches >= 2, "{snap:?}");
    }

    fn step_probe(items: Vec<Value>, shape: Shape, keys: Option<ProbeKeys>) -> Step {
        let probe = Probe::build(items.iter(), &shape, keys, "pattern Q does not match row");
        Step {
            op: StepOp::Probe(Arc::new(probe)),
            tag: None,
        }
    }

    fn step_cross(items: Vec<Value>, shape: Shape, tag: Option<&str>) -> Step {
        Step {
            tag: tag.map(Arc::from),
            ..step_probe(items, shape, None)
        }
    }

    #[test]
    fn a_keyed_probe_expands_tiles_like_the_row_path() {
        // (i, i % 7) rows probing (k, name) build rows on i % 7 == k: keys
        // with two build rows, one, and none, as longs close together (a
        // dense index) and as doubles (a key table).
        let rows: Vec<Value> = (0..300i64)
            .map(|i| Value::pair(Value::Long(i), Value::Long(i % 7)))
            .collect();
        let build = |key: &dyn Fn(i64) -> Value| -> Vec<Value> {
            [0, 0, 2, 3, 5, 5, 9]
                .iter()
                .enumerate()
                .map(|(n, &k)| Value::pair(key(k), Value::str(format!("b{n}"))))
                .collect()
        };
        let keys = |probe: RowExpr| ProbeKeys {
            probe,
            build: RowExpr::Col(0),
        };
        let shape = Shape::Tuple(vec![Shape::Bind, Shape::Bind]);
        let as_double = RowExpr::Call(Func::ToDouble, vec![RowExpr::Col(1)]);
        for (items, probe) in [
            (build(&Value::Long), RowExpr::Col(1)),
            (build(&|k| Value::Double(k as f64)), as_double),
        ] {
            let steps = [step_probe(items, shape.clone(), Some(keys(probe)))];
            for batch in [1, 3, 7, 64, 4096] {
                let (col, row) = run_both(&rows, &steps, batch);
                let out = col.unwrap();
                // Rows of i % 7 in {0, 5} meet two build rows, {2, 3} one.
                assert_eq!(out.len(), 43 * 2 + 43 * 2 + 43 + 43, "batch {batch}");
                assert_eq!(format!("{out:?}"), format!("{:?}", row.unwrap()));
            }
        }
    }

    #[test]
    fn a_heavy_key_is_cut_into_batch_wide_pieces_and_narrows_no_tile() {
        // Build key 0 holds 300 rows and keys 1..=9 one each; 640 probe
        // rows (i, i % 10) in tiles of 64. Every piece is at most 64 rows
        // wide, and the source is cut into 10 tiles, not one per row.
        let rows: Vec<Value> = (0..640i64)
            .map(|i| Value::pair(Value::Long(i), Value::Long(i % 10)))
            .collect();
        let items: Vec<Value> = (0..300)
            .map(|n| (0, n))
            .chain((1..10).map(|k| (k, 1000 + k)))
            .map(|(k, n)| Value::pair(Value::Long(k), Value::Long(n)))
            .collect();
        let probe = || {
            let keys = ProbeKeys {
                probe: RowExpr::Col(1),
                build: RowExpr::Col(0),
            };
            let shape = Shape::Tuple(vec![Shape::Bind, Shape::Bind]);
            step_probe(items.clone(), shape, Some(keys))
        };
        struct Pieces(Vec<usize>, Vec<Value>);
        impl TileSink for Pieces {
            fn tile(&mut self, col: &VCol, len: usize) -> Result<()> {
                self.0.push(len);
                self.1.extend((0..len).map(|i| col.get(i)));
                Ok(())
            }
            fn row(&mut self, row: Value) -> Result<()> {
                self.1.push(row);
                Ok(())
            }
        }
        let steps = [probe()];
        let stats = Stats::default();
        let mut sink = Pieces(Vec::new(), Vec::new());
        drive_tiles(Source::Rows(&rows), &steps, 64, &stats, &mut sink).unwrap();
        assert_eq!(stats.snapshot().vectorized_batches, 10);
        assert!(sink.0.iter().all(|&n| n <= 64), "{:?}", sink.0);
        let (_, row) = run_both(&rows, &steps, 64);
        assert_eq!(sink.1, row.unwrap());
        assert_eq!(sink.1.len(), 64 * 300 + 576);

        // A step after the probe fails on the heavy key's build row 150,
        // in the third piece of the first tile: the replay skips the 128
        // rows the first two pieces sank, so the sink holds the row path's
        // 150 rows before the error, once each.
        let steps = [
            probe(),
            step_map(
                bin(
                    BinOp::Div,
                    RowExpr::Const(Value::Long(1)),
                    bin(
                        BinOp::Sub,
                        RowExpr::Col(3),
                        RowExpr::Const(Value::Long(150)),
                    ),
                ),
                None,
            ),
        ];
        let mut sink = Pieces(Vec::new(), Vec::new());
        let err = drive_tiles(Source::Rows(&rows), &steps, 64, &stats, &mut sink).unwrap_err();
        assert_eq!(sink.0, vec![64, 64], "two pieces sank before the failure");
        let mut row_out = Vec::new();
        let row_err = drive(Cow::Borrowed(&rows[0]), &steps, &mut |v| {
            row_out.push(v);
            Ok(())
        })
        .unwrap_err();
        assert_eq!((sink.1.len(), err.message), (150, row_err.message));
        assert_eq!(sink.1, row_out);
    }

    #[test]
    fn a_cross_expands_tiles_like_the_row_path() {
        // (i, x) rows against (j, (y, name)) items binding j and y: the
        // expansion sits between a filter and arithmetic over both sides.
        let rows: Vec<Value> = (0..500i64)
            .map(|i| Value::pair(Value::Long(i), Value::Double(i as f64 / 8.0)))
            .collect();
        let items: Vec<Value> = (0..7i64)
            .map(|j| {
                Value::pair(
                    Value::Long(j),
                    Value::pair(Value::Double(j as f64 * 1.5), Value::str(format!("c{j}"))),
                )
            })
            .collect();
        let shape = Shape::Tuple(vec![
            Shape::Bind,
            Shape::Tuple(vec![Shape::Bind, Shape::Skip]),
        ]);
        let chain = |items: Vec<Value>| {
            vec![
                step_filter(
                    bin(
                        BinOp::Ne,
                        bin(BinOp::Mod, RowExpr::Col(0), RowExpr::Const(Value::Long(5))),
                        RowExpr::Const(Value::Long(0)),
                    ),
                    None,
                ),
                step_cross(items, shape.clone(), Some("s4:D")),
                step_filter(bin(BinOp::Ne, RowExpr::Col(2), RowExpr::Col(0)), None),
                step_map(
                    RowExpr::Tuple(vec![
                        RowExpr::Col(0),
                        RowExpr::Col(2),
                        bin(BinOp::Sub, RowExpr::Col(1), RowExpr::Col(3)),
                    ]),
                    None,
                ),
            ]
        };
        for batch in [1, 3, 7, 64, 4096] {
            let stats = Stats::default();
            let (col, row) = run_both(&rows, &chain(items.clone()), batch);
            let out = col.unwrap();
            // 400 rows survive the filter, 5 of them meet their own index.
            assert_eq!(out.len(), 400 * 7 - 5, "batch {batch}");
            assert_eq!(format!("{out:?}"), format!("{:?}", row.unwrap()));
            // An expanded tile stays within the batch width (or is the
            // expansion of a single row).
            drive_tiles(
                Source::Rows(&rows),
                &chain(items.clone()),
                batch,
                &stats,
                &mut RowSink(&mut |_| Ok(())),
            )
            .unwrap();
            let tiles = stats.snapshot().vectorized_batches as usize;
            assert_eq!(
                tiles,
                rows.len().div_ceil((batch / 7).max(1)),
                "batch {batch}"
            );
        }
        // No items: no rows, no error; no rows: a bad item is never seen.
        let (col, row) = run_both(&rows, &chain(Vec::new()), 64);
        assert_eq!(col.unwrap(), Vec::<Value>::new());
        assert_eq!(row.unwrap(), Vec::<Value>::new());
        let (col, row) = run_both(&[], &chain(vec![Value::Long(1)]), 64);
        assert_eq!(col.unwrap(), Vec::<Value>::new());
        assert_eq!(row.unwrap(), Vec::<Value>::new());
    }

    #[test]
    fn a_cross_item_that_does_not_fit_raises_the_row_paths_error() {
        let rows: Vec<Value> = (0..100i64)
            .map(|i| Value::pair(Value::Long(i), Value::Long(-i)))
            .collect();
        let mut items: Vec<Value> = (0..5i64)
            .map(|j| Value::pair(Value::Long(j), Value::Long(j * j)))
            .collect();
        items[3] = Value::tuple(vec![Value::Long(3)]);
        let steps = vec![
            // Rows 0..=40 are dropped, so row 41 is the first to reach the
            // cross; nothing is wrong with the rows before it.
            step_filter(
                bin(BinOp::Gt, RowExpr::Col(0), RowExpr::Const(Value::Long(40))),
                None,
            ),
            step_cross(
                items,
                Shape::Tuple(vec![Shape::Bind, Shape::Bind]),
                Some("s4:D"),
            ),
        ];
        for batch in [1, 8, 4096] {
            let (col, row) = run_both(&rows, &steps, batch);
            let (col, row) = (col.unwrap_err(), row.unwrap_err());
            assert_eq!(col.to_string(), row.to_string(), "batch {batch}");
            assert_eq!(col.message, "[s4:D] pattern Q does not match row (3)");
        }
    }

    #[test]
    fn a_cross_over_ragged_or_boxed_rows_expands_row_by_row() {
        // Straight from the scan (boxed rows), of two arities; and a row
        // that is no tuple at all.
        let mut rows: Vec<Value> = (0..40i64)
            .map(|i| {
                let mut fields = vec![Value::Long(i), Value::str("x")];
                if i % 3 == 0 {
                    fields.push(Value::Double(0.5));
                }
                Value::tuple(fields)
            })
            .collect();
        let items = vec![Value::Long(7), Value::Long(8)];
        let steps = vec![step_cross(items, Shape::Bind, None)];
        for batch in [1, 16, 4096] {
            let (col, row) = run_both(&rows, &steps, batch);
            let out = col.unwrap();
            assert_eq!(out.len(), 80);
            assert_eq!(format!("{out:?}"), format!("{:?}", row.unwrap()));
        }
        rows[25] = Value::Long(25);
        for batch in [1, 16, 4096] {
            let (col, row) = run_both(&rows, &steps, batch);
            let (col, row) = (col.unwrap_err(), row.unwrap_err());
            assert_eq!(col.to_string(), row.to_string());
            assert_eq!(col.message, "expected a tuple row to extend, got 25");
        }
    }

    #[test]
    fn keyed_scatters_split_pairs_without_boxing_them() {
        use crate::exchange::{Exchange, KeyedScatter};
        // (key, row) built by the chain: each row lands in its key's
        // bucket, sent as lanes, and the first error is the row path's.
        let rows: Vec<Value> = (0..300i64)
            .map(|i| Value::pair(Value::Long(i), Value::str(format!("r{i}"))))
            .collect();
        let steps = vec![step_map(
            RowExpr::Tuple(vec![
                bin(
                    BinOp::Div,
                    RowExpr::Const(Value::Long(1000)),
                    bin(
                        BinOp::Sub,
                        RowExpr::Const(Value::Long(250)),
                        RowExpr::Col(0),
                    ),
                ),
                RowExpr::Input,
            ]),
            Some("s7:J"),
        )];
        let p = 3;
        let by_row = |upto: usize| {
            let mut out = vec![Vec::new(); p];
            let res = rows[..upto].iter().try_for_each(|row| {
                drive(Cow::Borrowed(row), &steps, &mut |pair| {
                    let (k, v) = key_value_ref(&pair)?;
                    out[crate::HashPartitioner.partition(k, p)].push(v.clone());
                    Ok(())
                })
            });
            (out, res)
        };
        for batch in [1, 7, 4096] {
            for upto in [200, 300] {
                let stats = Stats::default();
                let ex = Exchange::new(p, None);
                let mut w = ex.writer(0);
                let mut sink = KeyedScatter::new(&mut w, p, false);
                let res = drive_tiles(
                    Source::Rows(&rows[..upto]),
                    &steps,
                    batch,
                    &stats,
                    &mut sink,
                );
                let (want, want_res) = by_row(upto);
                assert_eq!(
                    res.as_ref().map_err(|e| e.to_string()),
                    want_res.as_ref().map_err(|e| e.to_string())
                );
                // On error too, the buckets hold exactly the rows the row
                // path sent before its first error (the replayed tile's
                // prefix included).
                w.close().unwrap();
                let got = ex.finish(&crate::Context::new(1, p)).unwrap();
                if res.is_ok() {
                    assert!(got.iter().all(|c| matches!(c.lanes, VCol::Tuple(_))));
                }
                let got: Vec<Vec<Value>> = got.iter().map(|c| c.rows().into_owned()).collect();
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "batch {batch}, upto {upto}"
                );
            }
        }
        // Pairs passed through from the scan are split all the same, and a
        // row that is no pair is the usual error.
        let mut pairs = rows.clone();
        pairs[9] = Value::Long(9);
        let steps = vec![step_filter(RowExpr::Const(Value::Bool(true)), None)];
        let stats = Stats::default();
        let ex = Exchange::new(p, None);
        let mut w = ex.writer(0);
        let mut sink = KeyedScatter::new(&mut w, p, true);
        let err = drive_tiles(Source::Rows(&pairs), &steps, 4, &stats, &mut sink).unwrap_err();
        assert!(err.message.contains("must be a (key, value) pair, got 9"));
        // The nine pairs before it were sent, each to its bucket.
        w.close().unwrap();
        let got = ex.finish(&crate::Context::new(1, p)).unwrap();
        let mut seen: Vec<Value> = got.iter().flat_map(|c| c.rows().into_owned()).collect();
        seen.sort();
        assert_eq!(seen, pairs[..9].to_vec());
    }

    #[test]
    fn whole_tuple_unpacks_hand_the_row_on_as_it_is() {
        let rows: Vec<Value> = (0..50i64)
            .map(|i| Value::pair(Value::Long(i), Value::str("v")))
            .collect();
        let steps = vec![unpack_step(Shape::Tuple(vec![Shape::Bind, Shape::Bind]))];
        let (col, row) = run_both(&rows, &steps, 16);
        let out = col.unwrap();
        assert_eq!(out, row.unwrap());
        let same = |a: &Value, b: &Value| match (a, b) {
            (Value::Tuple(x), Value::Tuple(y)) => Arc::ptr_eq(x, y),
            _ => false,
        };
        assert!(out.iter().zip(&rows).all(|(a, b)| same(a, b)));
        // Arity is still part of the shape.
        let mut bad = rows.clone();
        bad[20] = Value::tuple(vec![Value::Long(1)]);
        let (col, row) = run_both(&bad, &steps, 16);
        assert_eq!(col.unwrap_err().to_string(), row.unwrap_err().to_string());
    }

    #[test]
    fn builtin_calls_over_lanes_match_the_row_path_to_the_bit() {
        // (long, double, mixed, word): every builtin over a long lane, a
        // double lane, a column that is neither, and one that is no number.
        let rows: Vec<Value> = (0..120i64)
            .map(|i| {
                Value::tuple(vec![
                    Value::Long(i - 40),
                    Value::Double((i - 40) as f64 * 0.37),
                    if i % 2 == 0 {
                        Value::Long(i)
                    } else {
                        Value::Double(i as f64 + 0.5)
                    },
                    Value::str("w"),
                ])
            })
            .collect();
        let call = |f, args: Vec<RowExpr>| RowExpr::Call(f, args);
        let long = |n| RowExpr::Const(Value::Long(n));
        for col in 0..4 {
            let x = || RowExpr::Col(col);
            let exprs = vec![
                call(Func::Sqrt, vec![x()]),
                call(Func::Abs, vec![x()]),
                call(Func::Exp, vec![x()]),
                call(Func::Log, vec![x()]),
                call(Func::ToLong, vec![x()]),
                call(Func::ToDouble, vec![x()]),
                call(Func::Pow, vec![x(), RowExpr::Const(Value::Double(1.5))]),
                call(Func::Pow, vec![long(2), x()]),
                call(Func::InRange, vec![x(), long(-3), long(17)]),
                call(Func::InRange, vec![long(5), x(), RowExpr::Col(1)]),
            ];
            for expr in exprs {
                let steps = vec![step_map(expr.clone(), Some("s1:X"))];
                for batch in [1, 16, 4096] {
                    let (col_out, row_out) = run_both(&rows, &steps, batch);
                    assert_eq!(
                        format!("{:?}", col_out.map_err(|e| e.to_string())),
                        format!("{:?}", row_out.map_err(|e| e.to_string())),
                        "{expr:?}, column {col}, batch {batch}"
                    );
                }
            }
        }
    }

    #[test]
    fn only_flat_tuples_of_primitive_lanes_are_lane_keys() {
        let rows: Vec<Value> = (0..6i64)
            .map(|i| {
                Value::tuple(vec![
                    Value::Long(i % 3),
                    Value::Double(i as f64 / 2.0),
                    Value::str(format!("w{}", i % 2)),
                    if i % 2 == 0 {
                        Value::Long(i)
                    } else {
                        Value::Double(i as f64)
                    },
                ])
            })
            .collect();
        let input = decompose(&rows);
        let key = |e: RowExpr| vec_eval(&e, &input, rows.len()).unwrap();
        let col = RowExpr::Col;
        let tuple = RowExpr::Tuple;
        for (e, lane_form) in [
            (tuple(vec![col(0), col(1)]), true),
            (tuple(vec![col(1), RowExpr::Const(Value::Long(4))]), true),
            // A primitive (boxed without an allocation), a string field, a
            // type-mixed field, a nested tuple, a constant string: `Value`s.
            (col(0), false),
            (tuple(vec![col(0), col(2)]), false),
            (tuple(vec![col(0), col(3)]), false),
            (tuple(vec![col(0), tuple(vec![col(0), col(1)])]), false),
            (RowExpr::Const(Value::str("k")), false),
        ] {
            let keys = key(e.clone());
            assert_eq!(key_lanes(&keys).is_some(), lane_form, "{e:?}");
            // Lane form or not, and from boxed rows or a chunk's lanes,
            // the keys are what the row path computes.
            let want: Vec<Value> = rows.iter().map(|r| e.eval(r).unwrap()).collect();
            let sides = [
                Chunk::boxed(rows.clone()),
                Chunk {
                    len: rows.len(),
                    lanes: chunk::owned_col(rows.clone()),
                },
            ];
            for side in &sides {
                let mut got = Vec::new();
                let keys = vec_eval(&e, &side.col(), side.len()).unwrap();
                each_key(&keys, side.len(), |_, k| {
                    got.push(k.into_value());
                    Ok(())
                })
                .unwrap();
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "{e:?}");
            }
        }
    }

    #[test]
    fn opaque_steps_are_ineligible() {
        let opaque = Step {
            op: StepOp::Udf(Udf::Map(Arc::new(|v: &Value| Ok(v.clone()))), "map"),
            tag: None,
        };
        let transparent = step_map(RowExpr::Input, None);
        assert!(!eligible(&[]));
        assert!(!eligible(std::slice::from_ref(&opaque)));
        assert!(!eligible(&[transparent.clone(), opaque]));
        assert!(eligible(&[transparent]));
    }

    #[test]
    fn empty_filter_result_short_circuits() {
        let rows = longs(&[1, 2, 3]);
        let steps = vec![
            step_filter(
                bin(BinOp::Gt, RowExpr::Input, RowExpr::Const(Value::Long(10))),
                None,
            ),
            step_map(
                bin(BinOp::Div, RowExpr::Input, RowExpr::Const(Value::Long(0))),
                None,
            ),
        ];
        // Everything is filtered out before the would-be division by zero.
        let (col, row) = run_both(&rows, &steps, 8);
        assert_eq!(col.unwrap(), Vec::<Value>::new());
        assert_eq!(row.unwrap(), Vec::<Value>::new());
    }

    #[test]
    fn field_access_matches_value_semantics() {
        let rows: Vec<Value> = (0..50)
            .map(|i| Value::pair(Value::Long(i), Value::Long(i * i)))
            .collect();
        let steps = vec![step_map(RowExpr::field(RowExpr::Input, "_2"), None)];
        let (col, row) = run_both(&rows, &steps, 16);
        assert_eq!(col.unwrap(), row.unwrap());
        // A missing field errors identically on both paths.
        let steps = vec![step_map(RowExpr::field(RowExpr::Input, "_9"), None)];
        let (col, row) = run_both(&rows, &steps, 16);
        assert_eq!(col.unwrap_err().to_string(), row.unwrap_err().to_string());
    }

    #[test]
    #[should_panic(expected = "tile width must be positive")]
    fn zero_batch_panics() {
        let _ = crate::Context::new(1, 1).with_tile_width(0);
    }
}
