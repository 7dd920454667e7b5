//! Column chunks: the form a shuffle bucket takes.
//!
//! A [`Chunk`] is the rows of one bucket as one lane: one lane per leaf
//! of the rows' tuple layout, held as a [`VCol`] — i64, f64 and bool
//! lanes, struct-of-arrays tuples, and the boxed lane (`VCol::Val`) for
//! strings, records and mixed types. Boxed rows are the boxed lane. Typed
//! lanes read as a column tile with no `decompose`, the boxed lane
//! decomposed as boxed rows are ([`Chunk::col`]), and a row consumer
//! boxes one row at a time from the lanes: the row it stands for is the
//! row the exchange was sent.
//!
//! Who writes which: a columnar tile sent through a keyed scatter appends
//! its columns to a [`ChunkBuf`]'s typed lanes; a row — of a chain on the
//! row path, of a replayed tile, a §5 block — is appended as it is. The
//! first write picks the lanes: a bucket that starts with a boxed row is
//! the boxed lane, so the row layout, the tests' reference, writes boxed
//! lanes only. Lanes that do not agree — a column that is Long in one tile
//! and Double in another, tuples of two arities, a boxed row a typed leaf
//! cannot hold — fall back to the boxed lane, at the leaf where they
//! disagree.
//!
//! A chunk spills as one frame ([`encode_frame`]), its lane, and reads
//! back as the same lanes ([`decode_frame`]): typed lanes as raw
//! little-endian words or bytes, the boxed lane in the row codec's format
//! ([`encode_value`](crate::exchange::encode_value)).

use std::borrow::Cow;
use std::sync::Arc;

use diablo_runtime::array::key_value_ref;
use diablo_runtime::size::{
    sampled_size, serialized_size, tuple_size, BOOL_SIZE, DOUBLE_SIZE, LONG_SIZE,
};
use diablo_runtime::{RuntimeError, Value};

use crate::columnar::{decompose, each_key, env_fields, VCol};
use crate::exchange::{
    corrupt, decode_nested, encode_nested, put_len, take, take_len, too_deep, MAX_VALUE_DEPTH,
};
use crate::keytable::Key;
use crate::plan::Result;

/// The rows of one shuffle bucket (or of one side of it): `len` rows as
/// one lane, every leaf of which holds `len` rows ([`crate::verify`]
/// checks it). Boxed rows are the boxed lane, `VCol::Val`.
#[derive(Debug)]
pub(crate) struct Chunk {
    pub len: usize,
    pub lanes: VCol<'static>,
}

impl Chunk {
    /// Boxed rows, as the boxed lane.
    pub fn boxed(rows: Vec<Value>) -> Chunk {
        Chunk {
            len: rows.len(),
            lanes: VCol::Val(Arc::new(rows)),
        }
    }

    /// The number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Every row, boxed: borrowed from the boxed lane, built from typed
    /// ones.
    pub fn rows(&self) -> Cow<'_, [Value]> {
        match &self.lanes {
            VCol::Val(rows) => Cow::Borrowed(rows),
            lanes => Cow::Owned((0..self.len).map(|i| lanes.get(i)).collect()),
        }
    }

    /// The rows as one column: typed lanes as they are, the boxed lane
    /// decomposed.
    pub fn col(&self) -> VCol<'_> {
        match &self.lanes {
            VCol::Val(rows) => decompose(rows),
            lanes => lanes.clone(),
        }
    }

    /// The error of [`env_fields`] for the first row that is not a tuple,
    /// if one is not.
    pub fn tuples(&self) -> Result<()> {
        match &self.lanes {
            VCol::Tuple(_) => Ok(()),
            lanes => (0..self.len).try_for_each(|i| env_fields(&lanes.at(i)).map(drop)),
        }
    }

    /// The key and value of row `i`, a `(key, value)` pair (the error of
    /// `key_value_ref` otherwise).
    pub fn pair(&self, i: usize) -> Result<(Cow<'_, Value>, Cow<'_, Value>)> {
        match &self.lanes {
            VCol::Tuple(kv) if kv.len() == 2 => Ok((kv[0].at(i), kv[1].at(i))),
            lanes => match lanes.at(i) {
                Cow::Borrowed(row) => {
                    let (k, v) = key_value_ref(row)?;
                    Ok((Cow::Borrowed(k), Cow::Borrowed(v)))
                }
                Cow::Owned(row) => {
                    let (k, v) = key_value_ref(&row)?;
                    Ok((Cow::Owned(k.clone()), Cow::Owned(v.clone())))
                }
            },
        }
    }

    /// Hands `each` the key and value of every `(key, value)` row, in row
    /// order: the key read from its lanes where it has them, so a table
    /// boxes it only on insertion.
    pub fn each_pair(
        &self,
        each: &mut dyn FnMut(Key<'_>, Cow<'_, Value>) -> Result<()>,
    ) -> Result<()> {
        match &self.lanes {
            VCol::Tuple(kv) if kv.len() == 2 => {
                each_key(&kv[0], self.len, |i, key| each(key, kv[1].at(i)))
            }
            _ => (0..self.len).try_for_each(|i| {
                let (k, v) = self.pair(i)?;
                each(Key::from(k), v)
            }),
        }
    }

    /// The `serialized_size` of row `i`, read from its lanes.
    pub fn row_size(&self, i: usize) -> usize {
        row_size(&self.lanes, i)
    }
}

/// The `serialized_size` of row `i` of `col`: what boxing it and asking
/// would say.
pub(crate) fn row_size(col: &VCol, i: usize) -> usize {
    match col {
        VCol::Long(_) => LONG_SIZE,
        VCol::Double(_) => DOUBLE_SIZE,
        VCol::Bool(_) => BOOL_SIZE,
        VCol::Tuple(cols) => tuple_size(cols.iter().map(|c| row_size(c, i))),
        VCol::Const(v) => serialized_size(v),
        VCol::Refs(rows) => serialized_size(rows[i]),
        VCol::Val(rows) => serialized_size(&rows[i]),
    }
}

/// Sampled byte estimate of a shuffle's buckets ([`sampled_size`] per
/// bucket), a lane row measured as the row it stands for.
pub(crate) fn estimate_bytes(chunks: &[Chunk]) -> u64 {
    chunks
        .iter()
        .map(|c| sampled_size(c.len(), |i| c.row_size(i)))
        .sum()
}

/// One partition of a post-shuffle stage: a bucket of one exchange, or the
/// same bucket of two (left and right).
#[derive(Debug)]
pub(crate) enum Bucket {
    One(Chunk),
    Two(Chunk, Chunk),
}

impl Bucket {
    /// The rows of every side.
    pub fn len(&self) -> usize {
        match self {
            Bucket::One(c) => c.len(),
            Bucket::Two(l, r) => l.len() + r.len(),
        }
    }

    /// Every side's chunk.
    pub fn chunks(&self) -> impl Iterator<Item = &Chunk> {
        let (a, b) = match self {
            Bucket::One(c) => (c, None),
            Bucket::Two(l, r) => (l, Some(r)),
        };
        std::iter::once(a).chain(b)
    }

    /// The chunk of a one-sided bucket.
    pub fn one(&self) -> Result<&Chunk> {
        match self {
            Bucket::One(c) => Ok(c),
            Bucket::Two(..) => Err(RuntimeError::new(
                "corrupt shuffle bucket: two sides where one was expected",
            )),
        }
    }

    /// The left and right chunks of a two-sided bucket.
    pub fn two(&self) -> Result<(&Chunk, &Chunk)> {
        match self {
            Bucket::Two(l, r) => Ok((l, r)),
            Bucket::One(_) => Err(RuntimeError::new(
                "corrupt shuffle bucket: one side where two were expected",
            )),
        }
    }
}

/// The vector behind `v`, taken over when nothing else holds it.
fn own<T: Clone>(v: Arc<Vec<T>>) -> Vec<T> {
    Arc::try_unwrap(v).unwrap_or_else(|v| (*v).clone())
}

/// A lane being built: the owned, growable form of a chunk's [`VCol`].
/// The keyed and total folds keep their accumulators in one, a slot per
/// key (`fold_lane` and `fold_value`, in `columnar.rs`).
pub(crate) enum LaneBuf {
    Long(Vec<i64>),
    Double(Vec<f64>),
    Bool(Vec<bool>),
    /// One lane per field; at least one field.
    Tuple(Vec<LaneBuf>),
    Boxed(Vec<Value>),
}

impl LaneBuf {
    /// An empty lane of the kind `v` is: a primitive lane, a lane per
    /// field of a tuple, the boxed lane for anything else. A chunk's lanes
    /// take the kind of its first row.
    pub(crate) fn like_value(v: &Value) -> LaneBuf {
        match v {
            Value::Long(_) => LaneBuf::Long(Vec::new()),
            Value::Double(_) => LaneBuf::Double(Vec::new()),
            Value::Bool(_) => LaneBuf::Bool(Vec::new()),
            Value::Tuple(fields) if !fields.is_empty() => {
                LaneBuf::Tuple(fields.iter().map(LaneBuf::like_value).collect())
            }
            _ => LaneBuf::Boxed(Vec::new()),
        }
    }

    /// A finished lane of `len` rows, to append to: its vectors taken
    /// over when nothing else holds them.
    fn from_col(col: VCol<'static>, len: usize) -> LaneBuf {
        match col {
            VCol::Long(v) => LaneBuf::Long(own(v)),
            VCol::Double(v) => LaneBuf::Double(own(v)),
            VCol::Bool(v) => LaneBuf::Bool(own(v)),
            VCol::Tuple(cols) if !cols.is_empty() => LaneBuf::Tuple(
                own(cols)
                    .into_iter()
                    .map(|c| LaneBuf::from_col(c, len))
                    .collect(),
            ),
            VCol::Val(v) => LaneBuf::Boxed(own(v)),
            other => LaneBuf::Boxed((0..len).map(|i| other.get(i)).collect()),
        }
    }

    /// Appends the `len` rows of the finished lane `col`: boxed values
    /// moved onto a boxed lane when nothing else holds them.
    fn append(&mut self, col: VCol<'static>, len: usize) {
        match (&mut *self, col) {
            (LaneBuf::Boxed(v), VCol::Val(rows)) => v.extend(own(rows)),
            (lane, col) => lane.extend(&col, 0..len),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            LaneBuf::Long(v) => v.len(),
            LaneBuf::Double(v) => v.len(),
            LaneBuf::Bool(v) => v.len(),
            LaneBuf::Tuple(lanes) => lanes[0].len(),
            LaneBuf::Boxed(v) => v.len(),
        }
    }

    pub(crate) fn get(&self, i: usize) -> Value {
        match self {
            LaneBuf::Long(v) => Value::Long(v[i]),
            LaneBuf::Double(v) => Value::Double(v[i]),
            LaneBuf::Bool(v) => Value::Bool(v[i]),
            LaneBuf::Tuple(lanes) => Value::tuple(lanes.iter().map(|l| l.get(i)).collect()),
            LaneBuf::Boxed(v) => v[i].clone(),
        }
    }

    /// Appends rows `rows` of `col`, in that order. A column this lane
    /// cannot hold as it is turns the lane into the boxed lane first.
    pub(crate) fn extend(&mut self, col: &VCol, rows: impl Iterator<Item = usize> + Clone) {
        match (&mut *self, col) {
            (LaneBuf::Long(v), VCol::Long(lane)) => v.extend(rows.map(|r| lane[r])),
            (LaneBuf::Long(v), VCol::Const(Value::Long(n))) => v.extend(rows.map(|_| *n)),
            (LaneBuf::Double(v), VCol::Double(lane)) => v.extend(rows.map(|r| lane[r])),
            (LaneBuf::Double(v), VCol::Const(Value::Double(x))) => v.extend(rows.map(|_| *x)),
            (LaneBuf::Bool(v), VCol::Bool(lane)) => v.extend(rows.map(|r| lane[r])),
            (LaneBuf::Bool(v), VCol::Const(Value::Bool(b))) => v.extend(rows.map(|_| *b)),
            (LaneBuf::Tuple(lanes), VCol::Tuple(cols)) if lanes.len() == cols.len() => {
                for (lane, c) in lanes.iter_mut().zip(cols.iter()) {
                    lane.extend(c, rows.clone());
                }
            }
            (LaneBuf::Boxed(v), _) => v.extend(rows.map(|r| col.get(r))),
            (lane, VCol::Const(_) | VCol::Refs(_) | VCol::Val(_)) => {
                rows.for_each(|r| lane.push_value(&col.at(r)))
            }
            (lane, _) => {
                lane.box_all();
                lane.extend(col, rows);
            }
        }
    }

    /// Appends one boxed value, taken apart into this lane's leaves; a
    /// leaf it does not fit turns into the boxed lane first.
    pub(crate) fn push_value(&mut self, v: &Value) {
        match (&mut *self, v) {
            (LaneBuf::Long(lane), Value::Long(n)) => lane.push(*n),
            (LaneBuf::Double(lane), Value::Double(x)) => lane.push(*x),
            (LaneBuf::Bool(lane), Value::Bool(b)) => lane.push(*b),
            (LaneBuf::Tuple(lanes), Value::Tuple(fields)) if lanes.len() == fields.len() => {
                for (lane, f) in lanes.iter_mut().zip(fields.iter()) {
                    lane.push_value(f);
                }
            }
            (LaneBuf::Boxed(lane), v) => lane.push(v.clone()),
            (lane, v) => {
                lane.box_all();
                lane.push_value(v);
            }
        }
    }

    /// Turns this lane into the boxed lane of the same rows.
    pub(crate) fn box_all(&mut self) {
        if !matches!(self, LaneBuf::Boxed(_)) {
            *self = LaneBuf::Boxed((0..self.len()).map(|i| self.get(i)).collect());
        }
    }

    pub(crate) fn finish(self) -> VCol<'static> {
        match self {
            LaneBuf::Long(v) => VCol::Long(Arc::new(v)),
            LaneBuf::Double(v) => VCol::Double(Arc::new(v)),
            LaneBuf::Bool(v) => VCol::Bool(Arc::new(v)),
            LaneBuf::Tuple(lanes) => {
                VCol::Tuple(Arc::new(lanes.into_iter().map(LaneBuf::finish).collect()))
            }
            LaneBuf::Boxed(v) => VCol::Val(Arc::new(v)),
        }
    }
}

/// A chunk being built: `len` rows in one lane, whose kind the first
/// write picks — the boxed lane for a boxed row, typed lanes for a tile.
/// A later write of the other kind appends into the same lane, which
/// boxes only the leaves that disagree.
#[derive(Default)]
pub(crate) struct ChunkBuf {
    len: usize,
    lanes: Option<LaneBuf>,
}

impl ChunkBuf {
    pub fn len(&self) -> usize {
        self.len
    }

    /// Appends one boxed row.
    pub fn push_row(&mut self, row: Value) {
        match &mut self.lanes {
            None => self.lanes = Some(LaneBuf::Boxed(vec![row])),
            Some(LaneBuf::Boxed(rows)) => rows.push(row),
            Some(lanes) => lanes.push_value(&row),
        }
        self.len += 1;
    }

    /// Appends rows `rows` of the tile column `col`.
    pub fn push_tile(&mut self, col: &VCol, rows: &[u32]) {
        let lanes = self.lanes.get_or_insert_with(|| {
            let first = rows.first().map_or(0, |&r| r as usize);
            LaneBuf::like_value(&col.at(first))
        });
        lanes.extend(col, rows.iter().map(|&r| r as usize));
        self.len += rows.len();
    }

    /// The finished chunk; the buffer is left empty.
    pub fn take(&mut self) -> Chunk {
        let ChunkBuf { len, lanes } = std::mem::take(self);
        match lanes {
            Some(lanes) => Chunk {
                len,
                lanes: lanes.finish(),
            },
            None => Chunk::boxed(Vec::new()),
        }
    }
}

/// The pieces of one bucket, in order, as one chunk: the first piece's
/// lanes with every later piece appended (a leaf that disagrees across
/// pieces boxed).
pub(crate) fn concat(pieces: Vec<Chunk>) -> Chunk {
    let mut pieces = pieces.into_iter();
    let Some(first) = pieces.next() else {
        return Chunk::boxed(Vec::new());
    };
    if pieces.len() == 0 {
        return first;
    }
    let mut len = first.len;
    let mut buf = LaneBuf::from_col(first.lanes, len);
    for p in pieces {
        buf.append(p.lanes, p.len);
        len += p.len;
    }
    Chunk {
        len,
        lanes: buf.finish(),
    }
}

/// Owned values as one column, taken apart the way a chunk's lanes are:
/// a primitive lane, a lane per field of a tuple, the boxed lane for
/// anything else or where values disagree.
pub(crate) fn owned_col(vals: Vec<Value>) -> VCol<'static> {
    let Some(first) = vals.first() else {
        return VCol::Val(Arc::new(vals));
    };
    let mut lane = LaneBuf::like_value(first);
    vals.iter().for_each(|v| lane.push_value(v));
    lane.finish()
}

// ----------------------------------------------------------------- frames

/// Lane tags: a frame is one chunk's lane, starting with its tag.
const LONG_LANE: u8 = 0;
const DOUBLE_LANE: u8 = 1;
const BOOL_LANE: u8 = 2;
const TUPLE_LANE: u8 = 3;
const BOXED_LANE: u8 = 4;

/// Appends `chunk` as one frame: its lane. A lane is its tag, then an
/// i64 or f64 lane's raw little-endian words (doubles as bits), a bool
/// lane's bytes (0 or 1), a tuple lane's arity and children, or the boxed
/// lane's values in [`encode_value`](crate::exchange::encode_value)'s
/// format. The row count is not
/// written: the reader knows it. A row nested deeper than
/// [`MAX_VALUE_DEPTH`] is `encode_value`'s error.
pub(crate) fn encode_frame(chunk: &Chunk, out: &mut Vec<u8>) -> Result<()> {
    encode_lane(&chunk.lanes, chunk.len, out, MAX_VALUE_DEPTH)
}

/// Writes one lane of `len` rows with `depth` levels left: a tuple lane
/// is a level, as a tuple is, so a lane row nests as deep as its row.
fn encode_lane(col: &VCol, len: usize, out: &mut Vec<u8>, depth: usize) -> Result<()> {
    if depth == 0 {
        return Err(too_deep());
    }
    match col {
        VCol::Long(v) => {
            out.push(LONG_LANE);
            out.reserve(v.len() * 8);
            v.iter()
                .for_each(|n| out.extend_from_slice(&n.to_le_bytes()));
        }
        VCol::Double(v) => {
            out.push(DOUBLE_LANE);
            out.reserve(v.len() * 8);
            v.iter()
                .for_each(|x| out.extend_from_slice(&x.to_bits().to_le_bytes()));
        }
        VCol::Bool(v) => {
            out.push(BOOL_LANE);
            out.extend(v.iter().map(|&b| u8::from(b)));
        }
        VCol::Tuple(cols) if !cols.is_empty() => {
            out.push(TUPLE_LANE);
            put_len(out, cols.len())?;
            for c in cols.iter() {
                encode_lane(c, len, out, depth - 1)?;
            }
        }
        _ => {
            out.push(BOXED_LANE);
            for i in 0..len {
                encode_nested(&col.at(i), out, depth)?;
            }
        }
    }
    Ok(())
}

/// Inverse of [`encode_frame`]: the chunk of `len` rows that `frame`
/// holds, in the lanes it was written as. `len` comes from the reader,
/// not from the frame. A truncated, malformed or over-long frame is an
/// error, never a panic, and every length read from it is checked against
/// the bytes left before anything is allocated.
pub(crate) fn decode_frame(mut frame: &[u8], len: usize) -> Result<Chunk> {
    let buf = &mut frame;
    let lanes = decode_lane(buf, len, MAX_VALUE_DEPTH)?;
    if !buf.is_empty() {
        return Err(corrupt());
    }
    Ok(Chunk { len, lanes })
}

/// `len` values in `encode_value`'s format, `depth` levels left each.
fn decode_values(buf: &mut &[u8], len: usize, depth: usize) -> Result<Vec<Value>> {
    // Every value takes a byte at least.
    if len > buf.len() {
        return Err(corrupt());
    }
    let mut vals = Vec::with_capacity(len);
    for _ in 0..len {
        vals.push(decode_nested(buf, depth)?);
    }
    Ok(vals)
}

/// One lane of `len` rows with `depth` levels left.
fn decode_lane(buf: &mut &[u8], len: usize, depth: usize) -> Result<VCol<'static>> {
    fn words<'a>(buf: &mut &'a [u8], len: usize) -> Result<impl Iterator<Item = [u8; 8]> + 'a> {
        let bytes = take(buf, len.checked_mul(8).ok_or_else(corrupt)?)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|w| w.try_into().expect("8 bytes")))
    }
    if depth == 0 {
        return Err(corrupt());
    }
    Ok(match take(buf, 1)?[0] {
        LONG_LANE => VCol::Long(Arc::new(words(buf, len)?.map(i64::from_le_bytes).collect())),
        DOUBLE_LANE => VCol::Double(Arc::new(
            words(buf, len)?
                .map(|w| f64::from_bits(u64::from_le_bytes(w)))
                .collect(),
        )),
        BOOL_LANE => {
            let bytes = take(buf, len)?;
            // Only 0 and 1: any other byte would give a row two encodings.
            if bytes.iter().any(|&b| b > 1) {
                return Err(corrupt());
            }
            VCol::Bool(Arc::new(bytes.iter().map(|&b| b == 1).collect()))
        }
        TUPLE_LANE => {
            let arity = take_len(buf)?;
            // Every child lane takes its tag byte at least.
            if arity == 0 || arity > buf.len() {
                return Err(corrupt());
            }
            let mut cols = Vec::with_capacity(arity);
            for _ in 0..arity {
                cols.push(decode_lane(buf, len, depth - 1)?);
            }
            VCol::Tuple(Arc::new(cols))
        }
        BOXED_LANE => VCol::Val(Arc::new(decode_values(buf, len, depth)?)),
        _ => return Err(corrupt()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::encode_value;

    fn l(n: i64) -> Value {
        Value::Long(n)
    }

    fn cols(len: usize, lanes: VCol<'static>) -> Chunk {
        Chunk { len, lanes }
    }

    fn rows(c: &Chunk) -> Vec<Value> {
        c.rows().into_owned()
    }

    #[test]
    fn lanes_box_as_the_rows_they_stand_for() {
        let pairs: Vec<Value> = (0..5)
            .map(|i| Value::pair(Value::pair(l(i), l(i * 2)), Value::Double(i as f64)))
            .collect();
        let col = owned_col(pairs.clone());
        assert!(matches!(&col, VCol::Tuple(kv) if matches!(&kv[0], VCol::Tuple(_))));
        let c = cols(5, col);
        assert_eq!(rows(&c), pairs);
        for (i, row) in pairs.iter().enumerate() {
            assert_eq!(c.row_size(i), serialized_size(row));
        }
        assert_eq!(estimate_bytes(&[c]), estimate_bytes(&[Chunk::boxed(pairs)]));
    }

    #[test]
    fn disagreeing_lanes_fall_back_to_the_boxed_lane_at_their_leaf() {
        // A key that is Long in one tile and Double in the next.
        let tile = |k: Value| owned_col(vec![Value::pair(k, Value::str("s"))]);
        let mut buf = ChunkBuf::default();
        buf.push_tile(&tile(l(1)), &[0]);
        buf.push_tile(&tile(Value::Double(1.0)), &[0]);
        let c = buf.take();
        let VCol::Tuple(kv) = &c.lanes else {
            panic!("{c:?}");
        };
        assert!(matches!(kv[0], VCol::Val(_)), "the key leaf is boxed");
        assert!(matches!(kv[1], VCol::Val(_)), "strings are boxed anyway");
        assert_eq!(
            rows(&c),
            vec![
                Value::pair(l(1), Value::str("s")),
                Value::pair(Value::Double(1.0), Value::str("s"))
            ]
        );
        // Pieces of two arities concatenate into the boxed lane.
        let one = cols(1, owned_col(vec![Value::pair(l(1), l(2))]));
        let two = cols(1, owned_col(vec![Value::tuple(vec![l(1), l(2), l(3)])]));
        let c = concat(vec![one, two]);
        assert!(matches!(c.lanes, VCol::Val(_)), "{c:?}");
        assert_eq!(c.len, 2);
        // A boxed piece is appended in piece order, and boxes no leaf
        // that agrees.
        let c = concat(vec![
            cols(1, owned_col(vec![l(1)])),
            Chunk::boxed(vec![l(2)]),
            cols(2, owned_col(vec![l(3), l(4)])),
        ]);
        assert_eq!(rows(&c), vec![l(1), l(2), l(3), l(4)]);
        assert!(matches!(c.lanes, VCol::Long(_)), "{c:?}");
        let c = concat(Vec::new());
        assert_eq!((c.len, rows(&c)), (0, Vec::new()));
    }

    #[test]
    fn the_first_write_picks_the_lanes_and_later_writes_append() {
        let tile = owned_col(vec![
            Value::pair(l(1), Value::Double(0.5)),
            Value::pair(l(2), Value::Double(1.5)),
        ]);
        let row = Value::pair(l(3), Value::Double(2.5));
        let mut buf = ChunkBuf::default();
        buf.push_tile(&tile, &[0, 1]);
        buf.push_row(row.clone());
        let c = buf.take();
        assert_eq!(rows(&c), vec![tile.get(0), tile.get(1), row.clone()]);
        let typed = |kv: &[VCol]| matches!(kv, [VCol::Long(_), VCol::Double(_)]);
        assert!(matches!(&c.lanes, VCol::Tuple(kv) if typed(kv)), "{c:?}");
        // A boxed row first opens the boxed lane.
        buf.push_row(row.clone());
        buf.push_tile(&tile, &[1, 0]);
        let c = buf.take();
        assert_eq!(rows(&c), vec![row, tile.get(1), tile.get(0)]);
        assert!(matches!(c.lanes, VCol::Val(_)), "{c:?}");
        assert_eq!(buf.len(), 0);
    }

    #[test]
    fn pairs_read_the_same_from_lanes_and_rows() {
        let pairs: Vec<Value> = [(1, "a"), (2, "b"), (1, "c")]
            .iter()
            .map(|&(k, v)| Value::pair(Value::pair(l(k), l(0)), Value::str(v)))
            .collect();
        let read = |c: &Chunk| {
            let mut out = Vec::new();
            c.each_pair(&mut |k, v| {
                out.push((k.into_value(), v.into_owned()));
                Ok(())
            })
            .unwrap();
            out
        };
        let lanes = cols(3, owned_col(pairs.clone()));
        let boxed = Chunk::boxed(pairs);
        assert_eq!(read(&lanes), read(&boxed));
        // A row that is no pair is the pair-keyed operators' error.
        let bad = Chunk::boxed(vec![l(3)]);
        let err = bad.each_pair(&mut |_, _| Ok(())).unwrap_err();
        assert!(err.message.contains("(key, value) pair"), "{err}");
        let bad = cols(1, owned_col(vec![l(3)]));
        assert_eq!(
            bad.each_pair(&mut |_, _| Ok(())).unwrap_err().message,
            err.message
        );
    }

    /// One chunk of each lane kind — long, double, bool, a nested tuple,
    /// the boxed escape — and boxed rows, the boxed lane of a row writer.
    fn frame_samples() -> Vec<Chunk> {
        let nan = f64::from_bits(0x7ff8_0000_0000_0001);
        let longs = vec![l(i64::MIN), l(-1), l(0), l(i64::MAX)];
        let doubles = [-0.0, nan, -nan, f64::INFINITY, 0.1].map(Value::Double);
        let bools = vec![Value::Bool(true), Value::Bool(false), Value::Bool(true)];
        let nested = (0..3)
            .map(|i| {
                let key = Value::pair(l(i), Value::Double(i as f64 / 3.0));
                Value::pair(key, Value::pair(Value::Bool(i % 2 == 0), l(-i)))
            })
            .collect();
        let boxed = vec![
            Value::str("é"),
            Value::Unit,
            Value::bag(vec![l(1)]),
            Value::record(vec![("x".into(), Value::Double(-0.0))]),
        ];
        let frame = |vals: Vec<Value>| cols(vals.len(), owned_col(vals));
        vec![
            frame(longs),
            frame(doubles.to_vec()),
            frame(bools),
            frame(nested),
            frame(boxed),
            Chunk::boxed(vec![Value::pair(l(1), Value::str("a")), Value::Unit]),
        ]
    }

    /// Every row of `c` in `encode_value`'s bytes: equal bytes are equal
    /// rows, double bits included.
    fn row_bytes(c: &Chunk) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for row in c.rows().iter() {
            let mut bytes = Vec::new();
            encode_value(row, &mut bytes).unwrap();
            out.push(bytes);
        }
        out
    }

    fn frame(c: &Chunk) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_frame(c, &mut bytes).unwrap();
        bytes
    }

    #[test]
    fn frames_come_back_as_the_chunks_they_were_written_as() {
        let samples = frame_samples();
        let lane_kinds = [
            matches!(samples[0].lanes, VCol::Long(_)),
            matches!(samples[1].lanes, VCol::Double(_)),
            matches!(samples[2].lanes, VCol::Bool(_)),
            matches!(samples[3].lanes, VCol::Tuple(ref kv) if matches!(kv[0], VCol::Tuple(_))),
            matches!(samples[4].lanes, VCol::Val(_)),
            matches!(samples[5].lanes, VCol::Val(_)),
        ];
        assert_eq!(lane_kinds, [true; 6], "{samples:?}");
        for c in &samples {
            let bytes = frame(c);
            let back = decode_frame(&bytes, c.len()).unwrap();
            assert_eq!(
                std::mem::discriminant(&back.lanes),
                std::mem::discriminant(&c.lanes),
                "{c:?}"
            );
            assert_eq!(row_bytes(&back), row_bytes(c), "{c:?}");
            assert_eq!(frame(&back), bytes, "{c:?}");
            // The row count is the reader's, and a frame holds no other.
            assert!(decode_frame(&bytes, c.len() + 1).is_err(), "{c:?}");
            assert!(decode_frame(&bytes, usize::MAX).is_err(), "{c:?}");
        }
        // Lanes nest as deep as the codec's rows, and no deeper.
        let nested = |depth: usize| (1..depth).fold(l(7), |v, _| Value::tuple(vec![v]));
        let deepest = cols(1, owned_col(vec![nested(MAX_VALUE_DEPTH)]));
        let back = decode_frame(&frame(&deepest), 1).unwrap();
        assert_eq!(rows(&back), rows(&deepest));
        let deeper = cols(1, owned_col(vec![nested(MAX_VALUE_DEPTH + 1)]));
        let err = encode_frame(&deeper, &mut Vec::new()).unwrap_err();
        assert!(err.message.contains("depth limit"), "{err}");
    }

    /// Group By rows and a non-ASCII name, framed: the bytes were
    /// captured while each record still held its own copy of every name.
    #[test]
    fn a_chunk_of_records_frames_to_its_golden_bytes() {
        let kv = |k, a| Value::record(vec![("K".into(), l(k)), ("A".into(), Value::Double(a))]);
        let c = Chunk::boxed(vec![
            Value::pair(l(0), kv(3, 2.5)),
            Value::pair(l(1), kv(-1, -0.0)),
            Value::pair(l(2), Value::record(vec![("ñ".into(), Value::Unit)])),
        ]);
        let bytes = frame(&c);
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            concat!(
                "0405020000000200000000000000000602000000010000004b02030000000000000001000000",
                "4103000000000000044005020000000201000000000000000602000000010000004b02ffffff",
                "ffffffffff010000004103000000000000008005020000000202000000000000000601000000",
                "02000000c3b100"
            )
        );
        let back = decode_frame(&bytes, c.len()).unwrap();
        assert_eq!(back.rows(), c.rows());
    }

    #[test]
    fn a_hostile_frame_is_an_error_or_the_rows_its_bytes_spell() {
        // Every cut of a frame is short of the rows the reader expects.
        // A flipped bit may still spell rows (a long's bits are any long):
        // then the frame must decode to well-formed lanes that write back
        // to the very bytes read, so no row has two encodings. Nothing
        // panics, and a length the bytes cannot hold — an arity flipped to
        // 2^31, say — fails before anything is allocated for it.
        for c in frame_samples() {
            let bytes = frame(&c);
            for cut in 0..bytes.len() {
                assert!(
                    decode_frame(&bytes[..cut], c.len()).is_err(),
                    "{c:?} cut at {cut}"
                );
            }
            for at in 0..bytes.len() {
                for bit in 0..8 {
                    let mut mutant = bytes.clone();
                    mutant[at] ^= 1 << bit;
                    let Ok(back) = decode_frame(&mutant, c.len()) else {
                        continue;
                    };
                    let well_formed = crate::verify::check_chunk(&back);
                    assert!(
                        well_formed.is_ok(),
                        "{c:?}, bit {bit} of byte {at}: {back:?}"
                    );
                    assert_eq!(back.len(), c.len());
                    assert_eq!(frame(&back), mutant, "{c:?}, bit {bit} of byte {at}");
                }
            }
        }
    }

    #[test]
    fn gathered_fields_borrow_boxed_lanes_and_copy_typed_ones() {
        let c = owned_col(vec![
            Value::pair(l(1), Value::str("x")),
            Value::pair(l(2), Value::str("y")),
        ]);
        let g = c.gather_rows(&[1, 1, 0]);
        assert_eq!(
            (0..3).map(|i| g.get(i)).collect::<Vec<_>>(),
            vec![
                Value::pair(l(2), Value::str("y")),
                Value::pair(l(2), Value::str("y")),
                Value::pair(l(1), Value::str("x"))
            ]
        );
    }
}
