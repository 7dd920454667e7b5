//! §5 blocks: the packed form a dense matrix statement runs on.
//!
//! A **block** is a `BLOCK_SIDE × BLOCK_SIDE` square of one matrix with a
//! presence mask: a cell holds an element exactly when its bit is set, so
//! absent elements never meet and a stored 0.0, NaN or long is an element
//! like any other. A block whose elements are all doubles keeps them in an
//! `f64` array; any other element turns the block into boxed values, and
//! the kernels then go through [`BinOp::apply`].
//!
//! Blocks cross the exchange as ordinary rows, `(key, bag)`: the bag is
//! the mask as [`MASK_WORDS`] longs, then the present elements in
//! row-major cell order. The key is `(I, J)` — the block's place in the
//! grid — for [`Dataset::block_zip`](crate::Dataset::block_zip), and
//! `(I, J, K)` for [`Dataset::block_contract`](crate::Dataset::block_contract):
//! the product block `(I, J)` it is sent to, and the contracted block
//! index `K`. Spill, the dataset cache and the verifier see rows.
//!
//! Each operand is packed inside its scatter stage ([`Packer`], fed by the
//! fused chain: a columnar tile's index and value lanes are read where
//! they lie, the way `KeyedFold` reads a keyed map) and sent one row per
//! partial block; the lazy post-shuffle stage overlays a block's partial
//! blocks, combines the blocks and unpacks only result elements into
//! `((i, j), v)` rows.

use std::borrow::Cow;
use std::collections::BTreeMap;

use diablo_runtime::tile::{multiply_into, Masked};
use diablo_runtime::{BinOp, RuntimeError, Value};

use crate::exchange::HashPartitioner;
use crate::plan::Result;

/// The side of a block: blocks are `BLOCK_SIDE × BLOCK_SIDE`.
pub const BLOCK_SIDE: usize = 32;
/// Cells per block.
const CELLS: usize = BLOCK_SIDE * BLOCK_SIDE;
/// Longs holding one block's presence mask, one bit per cell.
const MASK_WORDS: usize = CELLS / 64;

/// Where one matrix element lies in an operand's rows (tuples): the
/// columns of its row index, its column index and its value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ElementCols {
    /// The column holding the element's row index.
    pub row: usize,
    /// The column holding the element's column index.
    pub col: usize,
    /// The column holding the element's value.
    pub value: usize,
}

/// The inclusive range `lo..=hi` one matrix index is bound to. Elements
/// outside it are dropped by the packer; blocks are counted from `lo`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexRange {
    /// The least index kept.
    pub lo: i64,
    /// The greatest index kept.
    pub hi: i64,
}

impl IndexRange {
    fn contains(&self, i: i64) -> bool {
        self.lo <= i && i <= self.hi
    }

    /// The number of blocks the range spans.
    pub fn blocks(&self) -> i64 {
        if self.hi < self.lo {
            return 0;
        }
        let len = (i128::from(self.hi) - i128::from(self.lo) + 1) as u128;
        i64::try_from(len.div_ceil(BLOCK_SIDE as u128)).unwrap_or(i64::MAX)
    }

    /// Index `i` (inside the range) as (block, offset in the block).
    fn split(&self, i: i64) -> (i64, usize) {
        let off = i.wrapping_sub(self.lo) as u64;
        (
            (off / BLOCK_SIDE as u64) as i64,
            (off % BLOCK_SIDE as u64) as usize,
        )
    }

    /// The index at offset `r` of block `b`.
    fn index(&self, b: i64, r: usize) -> i64 {
        self.lo
            .wrapping_add(b.wrapping_mul(BLOCK_SIDE as i64))
            .wrapping_add(r as i64)
    }
}

/// An element-wise statement on blocks, as [`Dataset::block_zip`] takes
/// it: `((i, j), x op y)` for every `(i, j)` both operands hold inside
/// `rows × cols`.
///
/// [`Dataset::block_zip`]: crate::Dataset::block_zip
#[derive(Clone, Debug)]
pub struct BlockZip {
    /// Where the left operand's elements lie.
    pub left: ElementCols,
    /// Where the right operand's elements lie.
    pub right: ElementCols,
    /// The range of both operands' row index.
    pub rows: IndexRange,
    /// The range of both operands' column index.
    pub cols: IndexRange,
    /// The operator, applied as `left op right`.
    pub op: BinOp,
}

/// A contraction on blocks, as [`Dataset::block_contract`] takes it:
/// `((i, j), +/ x × y)` over every `k` for which the left operand holds
/// `(i, k)` and the right operand `(k, j)`; a pair `(i, j)` that no `k`
/// joins has no row.
///
/// [`Dataset::block_contract`]: crate::Dataset::block_contract
#[derive(Clone, Debug)]
pub struct BlockContract {
    /// Where the left operand's elements `(i, k)` lie.
    pub left: ElementCols,
    /// Where the right operand's elements `(k, j)` lie.
    pub right: ElementCols,
    /// The range of `i`.
    pub rows: IndexRange,
    /// The range of the contracted `k`.
    pub inner: IndexRange,
    /// The range of `j`.
    pub cols: IndexRange,
}

/// A block's elements: doubles unboxed while every element is one.
#[derive(Clone)]
enum Cells {
    F64(Vec<f64>),
    Boxed(Vec<Value>),
}

/// One block: its cells, row-major, and which of them hold an element.
#[derive(Clone)]
pub(crate) struct Block {
    mask: [u64; MASK_WORDS],
    cells: Cells,
}

impl Default for Block {
    fn default() -> Block {
        Block {
            mask: [0; MASK_WORDS],
            cells: Cells::F64(vec![0.0; CELLS]),
        }
    }
}

/// Every set bit of `mask`, ascending: the present cells in row-major
/// order.
fn each_cell(mask: &[u64; MASK_WORDS], mut f: impl FnMut(usize) -> Result<()>) -> Result<()> {
    for (w, &word) in mask.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(w * 64 + bits.trailing_zeros() as usize)?;
            bits &= bits - 1;
        }
    }
    Ok(())
}

/// The presence bits of block row `r` (its `BLOCK_SIDE` cells).
fn row_bits(mask: &[u64; MASK_WORDS], r: usize) -> u32 {
    (mask[r / 2] >> ((r % 2) * 32)) as u32
}

impl Block {
    fn has(&self, cell: usize) -> bool {
        self.mask[cell / 64] >> (cell % 64) & 1 == 1
    }

    fn is_f64(&self) -> bool {
        matches!(self.cells, Cells::F64(_))
    }

    /// The element of a present cell.
    fn value(&self, cell: usize) -> Cow<'_, Value> {
        match &self.cells {
            Cells::F64(c) => Cow::Owned(Value::Double(c[cell])),
            Cells::Boxed(c) => Cow::Borrowed(&c[cell]),
        }
    }

    /// The cells as boxed values, converting unboxed doubles once.
    fn boxed(&mut self) -> &mut Vec<Value> {
        if let Cells::F64(c) = &self.cells {
            self.cells = Cells::Boxed(c.iter().map(|&x| Value::Double(x)).collect());
        }
        match &mut self.cells {
            Cells::Boxed(c) => c,
            Cells::F64(_) => unreachable!("just boxed"),
        }
    }

    /// Stores `v` at `cell`; a later element of the same cell replaces it.
    fn set(&mut self, cell: usize, v: &Value) {
        self.mask[cell / 64] |= 1 << (cell % 64);
        match (&mut self.cells, v) {
            (Cells::F64(c), Value::Double(x)) => c[cell] = *x,
            _ => self.boxed()[cell] = v.clone(),
        }
    }

    fn set_f64(&mut self, cell: usize, x: f64) {
        self.mask[cell / 64] |= 1 << (cell % 64);
        match &mut self.cells {
            Cells::F64(c) => c[cell] = x,
            Cells::Boxed(c) => c[cell] = Value::Double(x),
        }
    }

    /// The block as the bag that crosses the exchange.
    fn to_bag(&self) -> Value {
        let mut items: Vec<Value> = self.mask.iter().map(|&w| Value::Long(w as i64)).collect();
        let _ = each_cell(&self.mask, |cell| {
            items.push(self.value(cell).into_owned());
            Ok(())
        });
        Value::bag(items)
    }

    /// Adds the elements of a block's bag to this block.
    fn overlay(&mut self, bag: &Value) -> Result<()> {
        let corrupt = || RuntimeError::new("corrupt block row");
        let items = bag.as_bag().ok_or_else(corrupt)?;
        if items.len() < MASK_WORDS {
            return Err(corrupt());
        }
        let mut mask = [0u64; MASK_WORDS];
        for (w, item) in mask.iter_mut().zip(items) {
            *w = item.as_long().ok_or_else(corrupt)? as u64;
        }
        let present: u32 = mask.iter().map(|w| w.count_ones()).sum();
        if items.len() != MASK_WORDS + present as usize {
            return Err(corrupt());
        }
        let mut values = items[MASK_WORDS..].iter();
        each_cell(&mask, |cell| {
            match values.next() {
                Some(Value::Double(x)) => self.set_f64(cell, *x),
                Some(v) => self.set(cell, v),
                None => return Err(corrupt()),
            }
            Ok(())
        })
    }
}

/// Items by their place `(I, J)` in a grid of block rows × block
/// columns, kept in the order their places were first seen.
///
/// The grid has a slot per place. Every place holds at least one cell of
/// the area the index ranges bound, and the density rule admits an
/// operand only when its rows fill half that area, so an operand's grid
/// has at most twice as many places as the operand has rows (a product's
/// grid, at most as many as the product has cells).
struct Placed<T> {
    /// Per place, row-major: the item's position in `items`, `u32::MAX`
    /// for none yet.
    slots: Vec<u32>,
    rows: i64,
    cols: i64,
    items: Vec<((i64, i64), T)>,
}

impl<T: Default> Placed<T> {
    fn new(rows: IndexRange, cols: IndexRange) -> Placed<T> {
        let (rows, cols) = (rows.blocks(), cols.blocks());
        Placed {
            slots: vec![u32::MAX; rows.saturating_mul(cols) as usize],
            rows,
            cols,
            items: Vec::new(),
        }
    }

    /// The slot of `place`; `None` off the grid.
    fn slot(&self, (bi, bj): (i64, i64)) -> Option<usize> {
        ((0..self.rows).contains(&bi) && (0..self.cols).contains(&bj))
            .then(|| (bi * self.cols + bj) as usize)
    }

    /// The item at `place`, made on first sight; `None` off the grid.
    fn entry(&mut self, place: (i64, i64)) -> Option<&mut T> {
        let slot = self.slot(place)?;
        if self.slots[slot] == u32::MAX {
            self.slots[slot] = self.items.len() as u32;
            self.items.push((place, T::default()));
        }
        Some(&mut self.items[self.slots[slot] as usize].1)
    }

    /// Where the item at `place` lies in `items`, if there is one.
    fn position(&self, place: (i64, i64)) -> Option<usize> {
        let pos = self.slots[self.slot(place)?];
        (pos != u32::MAX).then_some(pos as usize)
    }

    fn get(&self, place: (i64, i64)) -> Option<&T> {
        self.position(place).map(|p| &self.items[p].1)
    }

    fn get_mut(&mut self, place: (i64, i64)) -> Option<&mut T> {
        self.position(place).map(|p| &mut self.items[p].1)
    }
}

/// A block row that is not one the block operators wrote.
fn corrupt(row: &Value) -> RuntimeError {
    RuntimeError::new(format!("corrupt block row {row}"))
}

/// Packs one operand's rows into blocks: every element inside both index
/// ranges goes to the cell of its block, blocks in first-seen order.
pub(crate) struct Packer {
    at: ElementCols,
    rows: IndexRange,
    cols: IndexRange,
    blocks: Placed<Block>,
}

impl Packer {
    pub(crate) fn new(at: ElementCols, rows: IndexRange, cols: IndexRange) -> Packer {
        Packer {
            at,
            rows,
            cols,
            blocks: Placed::new(rows, cols),
        }
    }

    /// Where the packer reads an element in a row.
    pub(crate) fn cols(&self) -> ElementCols {
        self.at
    }

    /// The block and cell of element `(i, j)`; `None` outside the ranges.
    fn place(&mut self, i: i64, j: i64) -> Option<(&mut Block, usize)> {
        if !self.rows.contains(i) || !self.cols.contains(j) {
            return None;
        }
        let ((bi, r), (bj, c)) = (self.rows.split(i), self.cols.split(j));
        let block = self.blocks.entry((bi, bj))?;
        Some((block, r * BLOCK_SIDE + c))
    }

    /// Packs a double element read from lanes.
    pub(crate) fn put_f64(&mut self, i: i64, j: i64, x: f64) {
        if let Some((block, cell)) = self.place(i, j) {
            block.set_f64(cell, x);
        }
    }

    /// Packs an element of any type.
    pub(crate) fn put(&mut self, i: i64, j: i64, x: &Value) {
        if let Some((block, cell)) = self.place(i, j) {
            block.set(cell, x);
        }
    }

    /// Packs the element of one boxed row.
    pub(crate) fn row(&mut self, row: &Value) -> Result<()> {
        let fields = crate::columnar::env_fields(row)?;
        let field = |c: usize| {
            fields.get(c).ok_or_else(|| {
                RuntimeError::new(format!("block packer: row {row} has no column {c}"))
            })
        };
        let index = |c: usize| match field(c)? {
            Value::Long(n) => Ok(*n),
            v => Err(RuntimeError::new(format!(
                "block packer: matrix index must be a long, got {v}"
            ))),
        };
        let (i, j, x) = (
            index(self.at.row)?,
            index(self.at.col)?,
            field(self.at.value)?,
        );
        self.put(i, j, x);
        Ok(())
    }

    fn finish(self) -> Vec<((i64, i64), Block)> {
        self.blocks.items
    }
}

/// The blocks of one source partition as exchange rows for `block_zip`:
/// one per partial block, handed to `emit` with its bucket among
/// `partitions` — its place's.
pub(crate) fn zip_rows(
    packer: Packer,
    partitions: usize,
    emit: &mut dyn FnMut(usize, Value) -> Result<()>,
) -> Result<()> {
    for ((bi, bj), block) in packer.finish() {
        let key = Value::pair(Value::Long(bi), Value::Long(bj));
        let b = HashPartitioner.partition(&key, partitions);
        emit(b, Value::pair(key, block.to_bag()))?;
    }
    Ok(())
}

/// The blocks of one source partition as exchange rows for
/// `block_contract`: every partial block goes to the bucket (among
/// `partitions`) of each product block it takes part in — a left block `(I, K)` to `(I, J)` for
/// every `J < fan_out`, a right block `(K, J)` to `(I, J)` for every
/// `I < fan_out` — keyed `(I, J, K)`.
pub(crate) fn contract_rows(
    packer: Packer,
    left: bool,
    fan_out: i64,
    partitions: usize,
    emit: &mut dyn FnMut(usize, Value) -> Result<()>,
) -> Result<()> {
    for ((bi, bj), block) in packer.finish() {
        let bag = block.to_bag();
        for other in 0..fan_out {
            let (i, j, k) = if left {
                (bi, other, bj)
            } else {
                (other, bj, bi)
            };
            let dest = Value::pair(Value::Long(i), Value::Long(j));
            let b = HashPartitioner.partition(&dest, partitions);
            let key = Value::tuple(vec![Value::Long(i), Value::Long(j), Value::Long(k)]);
            emit(b, Value::pair(key, bag.clone()))?;
        }
    }
    Ok(())
}

/// The longs of a block row's key and its bag.
fn block_row<const N: usize>(row: &Value) -> Result<([i64; N], &Value)> {
    let (key, bag) = match row.as_tuple() {
        Some([key, bag]) => (key, bag),
        _ => return Err(corrupt(row)),
    };
    let fields = key
        .as_tuple()
        .filter(|f| f.len() == N)
        .ok_or_else(|| corrupt(row))?;
    let mut out = [0; N];
    for (o, f) in out.iter_mut().zip(fields) {
        *o = match f {
            Value::Long(n) => *n,
            _ => return Err(corrupt(row)),
        };
    }
    Ok((out, bag))
}

/// One result element as a row, `((i, j), v)`.
fn element(i: i64, j: i64, v: Value) -> Value {
    Value::pair(Value::pair(Value::Long(i), Value::Long(j)), v)
}

/// Overlays block rows keyed `(I, J)` into whole blocks of the grid of
/// `zip`'s ranges, first-seen order.
fn gather(zip: &BlockZip, rows: &[Value]) -> Result<Placed<Block>> {
    let mut blocks: Placed<Block> = Placed::new(zip.rows, zip.cols);
    for row in rows {
        let ([bi, bj], bag) = block_row::<2>(row)?;
        let block = blocks.entry((bi, bj)).ok_or_else(|| corrupt(row))?;
        block.overlay(bag)?;
    }
    Ok(blocks)
}

/// The post-shuffle stage of `block_zip` over one bucket: each left block
/// meets the right block of its place, and every cell both hold becomes
/// one result row. Left blocks in first-seen order, cells row-major.
pub(crate) fn zip_bucket(zip: &BlockZip, lefts: &[Value], rights: &[Value]) -> Result<Vec<Value>> {
    let (lefts, rights) = (gather(zip, lefts)?, gather(zip, rights)?);
    let mut out = Vec::new();
    // `apply`'s arithmetic on two doubles, unboxed.
    let f64_op: Option<fn(f64, f64) -> f64> = match zip.op {
        BinOp::Add => Some(|a, b| a + b),
        BinOp::Sub => Some(|a, b| a - b),
        BinOp::Mul => Some(|a, b| a * b),
        _ => None,
    };
    for ((bi, bj), a) in &lefts.items {
        let Some(b) = rights.get((*bi, *bj)) else {
            continue;
        };
        let mut both = [0u64; MASK_WORDS];
        for (w, (x, y)) in both.iter_mut().zip(a.mask.iter().zip(&b.mask)) {
            *w = x & y;
        }
        let place = |cell: usize| {
            (
                zip.rows.index(*bi, cell / BLOCK_SIDE),
                zip.cols.index(*bj, cell % BLOCK_SIDE),
            )
        };
        match (&a.cells, &b.cells, f64_op) {
            (Cells::F64(x), Cells::F64(y), Some(f)) => each_cell(&both, |cell| {
                let (i, j) = place(cell);
                out.push(element(i, j, Value::Double(f(x[cell], y[cell]))));
                Ok(())
            })?,
            _ => each_cell(&both, |cell| {
                let v = zip.op.apply(&a.value(cell), &b.value(cell))?;
                let (i, j) = place(cell);
                out.push(element(i, j, v));
                Ok(())
            })?,
        }
    }
    Ok(out)
}

/// The blocks one product block `(I, J)` is computed from: the left
/// blocks `(I, K)` and right blocks `(K, J)` by `K`, ascending.
#[derive(Default)]
struct Operands {
    left: BTreeMap<i64, Block>,
    right: BTreeMap<i64, Block>,
}

/// The post-shuffle stage of `block_contract` over one bucket: every
/// product block the bucket owns, as result rows. Product blocks in the
/// order their first left block arrived, cells row-major.
///
/// Each cell sums its terms in ascending `k`, whatever the partitioning:
/// doubles start from -0.0 (the exact identity of IEEE addition), so a
/// single term comes out as itself; blocks that are not all doubles go
/// through [`BinOp::apply`], the first term starting the sum.
pub(crate) fn contract_bucket(
    spec: &BlockContract,
    lefts: &[Value],
    rights: &[Value],
) -> Result<Vec<Value>> {
    let mut dests: Placed<Operands> = Placed::new(spec.rows, spec.cols);
    for (rows, left) in [(lefts, true), (rights, false)] {
        for row in rows {
            let ([bi, bj, bk], bag) = block_row::<3>(row)?;
            let side = if left {
                let ops = dests.entry((bi, bj)).ok_or_else(|| corrupt(row))?;
                &mut ops.left
            } else {
                // A product block without a left block has no element.
                let Some(ops) = dests.get_mut((bi, bj)) else {
                    continue;
                };
                &mut ops.right
            };
            side.entry(bk).or_default().overlay(bag)?;
        }
    }
    let mut out = Vec::new();
    for ((bi, bj), ops) in &dests.items {
        let pairs: Vec<(&Block, &Block)> = ops
            .left
            .iter()
            .filter_map(|(k, a)| ops.right.get(k).map(|b| (a, b)))
            .collect();
        let mut emit = |cell: usize, v: Value| {
            let i = spec.rows.index(*bi, cell / BLOCK_SIDE);
            let j = spec.cols.index(*bj, cell % BLOCK_SIDE);
            out.push(element(i, j, v));
            Ok(())
        };
        if pairs.iter().all(|(a, b)| a.is_f64() && b.is_f64()) {
            let mut sum = vec![-0.0; CELLS];
            let mut mask = [0u64; MASK_WORDS];
            for (a, b) in pairs {
                contract_f64(a, b, &mut sum, &mut mask);
            }
            each_cell(&mask, |cell| emit(cell, Value::Double(sum[cell])))?;
        } else {
            let mut sum: Vec<Option<Value>> = vec![None; CELLS];
            for (a, b) in pairs {
                contract_boxed(a, b, &mut sum)?;
            }
            for (cell, v) in sum.into_iter().enumerate() {
                if let Some(v) = v {
                    emit(cell, v)?;
                }
            }
        }
    }
    Ok(out)
}

/// `sum += a · b` over all-double blocks — [`multiply_into`], the kernel
/// `TiledMatrix::multiply` runs too — marking in `mask` every cell a term
/// reaches.
fn contract_f64(a: &Block, b: &Block, sum: &mut [f64], mask: &mut [u64; MASK_WORDS]) {
    let (Cells::F64(x), Cells::F64(y)) = (&a.cells, &b.cells) else {
        unreachable!("all-double blocks")
    };
    let (a_in, b_in) = (Masked::new(x, &a.mask), Masked::new(y, &b.mask));
    multiply_into(a_in, b_in, sum, BLOCK_SIDE, BLOCK_SIDE, BLOCK_SIDE);
    // Cell (i, j) is reached when a present (i, k) meets a present (k, j).
    for i in 0..BLOCK_SIDE {
        let (mut ks, mut reached) = (row_bits(&a.mask, i), 0u32);
        while ks != 0 {
            reached |= row_bits(&b.mask, ks.trailing_zeros() as usize);
            ks &= ks - 1;
        }
        mask[i / 2] |= u64::from(reached) << ((i % 2) * 32);
    }
}

/// `sum += a · b` through [`BinOp::apply`], terms in ascending `k` per
/// cell: an absent sum starts at its first term.
fn contract_boxed(a: &Block, b: &Block, sum: &mut [Option<Value>]) -> Result<()> {
    const S: usize = BLOCK_SIDE;
    for i in 0..S {
        for k in 0..S {
            if !a.has(i * S + k) {
                continue;
            }
            let x = a.value(i * S + k);
            let mut bits = row_bits(&b.mask, k);
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let term = BinOp::Mul.apply(&x, &b.value(k * S + j))?;
                let acc = &mut sum[i * S + j];
                *acc = Some(match acc.take() {
                    None => term,
                    Some(s) => BinOp::Add.apply(&s, &term)?,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range(lo: i64, hi: i64) -> IndexRange {
        IndexRange { lo, hi }
    }

    #[test]
    fn ranges_count_blocks_and_place_indices() {
        let r = range(-3, 60);
        assert_eq!(r.blocks(), 2);
        assert_eq!(r.split(-3), (0, 0));
        assert_eq!(r.split(29), (1, 0));
        assert_eq!(r.index(1, 0), 29);
        assert_eq!(range(0, -1).blocks(), 0);
        assert_eq!(range(i64::MIN, i64::MAX).blocks(), 1 << 59);
    }

    #[test]
    fn a_block_round_trips_through_its_bag() {
        let mut b = Block::default();
        b.set_f64(0, -0.0);
        b.set_f64(33, f64::NAN);
        let mut back = Block::default();
        back.overlay(&b.to_bag()).unwrap();
        assert_eq!(back.mask, b.mask);
        assert!(back.is_f64());
        assert!(back.value(33).as_double().unwrap().is_nan());
        assert_eq!(
            back.value(0).as_double().unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
        b.set(5, &Value::Long(7));
        let mut boxed = Block::default();
        boxed.overlay(&b.to_bag()).unwrap();
        assert!(!boxed.is_f64());
        assert_eq!(*boxed.value(5), Value::Long(7));
        assert!(Block::default().overlay(&Value::bag(vec![])).is_err());
    }

    /// `a · b` term by term: each cell's present terms in ascending `k`
    /// from -0.0, and the cells some term reaches.
    fn naive(a: &Block, b: &Block) -> (Vec<u64>, [u64; MASK_WORDS]) {
        let (mut sum, mut mask) = (vec![(-0.0f64).to_bits(); CELLS], [0; MASK_WORDS]);
        let s = BLOCK_SIDE;
        for i in 0..s {
            for j in 0..s {
                let mut acc = -0.0f64;
                for k in 0..s {
                    if a.has(i * s + k) && b.has(k * s + j) {
                        let x = a.value(i * s + k).as_double().unwrap();
                        acc += x * b.value(k * s + j).as_double().unwrap();
                        mask[(i * s + j) / 64] |= 1 << ((i * s + j) % 64);
                    }
                }
                sum[i * s + j] = acc.to_bits();
            }
        }
        (sum, mask)
    }

    fn product(a: &Block, b: &Block) -> (Vec<u64>, [u64; MASK_WORDS]) {
        let (mut sum, mut mask) = (vec![-0.0; CELLS], [0; MASK_WORDS]);
        contract_f64(a, b, &mut sum, &mut mask);
        // Cells no term reached keep -0.0 in both.
        (sum.iter().map(|x| x.to_bits()).collect(), mask)
    }

    #[test]
    fn block_products_sum_present_terms_in_ascending_k() {
        let (mut a, mut b) = (Block::default(), Block::default());
        for c in 0..CELLS {
            a.set_f64(c, (c % 7) as f64 * 0.3 - 1.0);
            b.set_f64(c, (c % 5) as f64 * 0.7 - 0.2);
        }
        // Full blocks: every row of `b` takes the kernel's plain loop.
        assert_eq!(product(&a, &b), naive(&a, &b));
        // Ragged presence, a NaN and a stored 0.0: the masked loop. An
        // absent cell's stored value must never reach a sum.
        for c in (0..CELLS).step_by(3) {
            a.mask[c / 64] &= !(1 << (c % 64));
        }
        for c in (1..CELLS).step_by(5) {
            b.mask[c / 64] &= !(1 << (c % 64));
        }
        a.set_f64(2, 0.0);
        b.set_f64(2 * BLOCK_SIDE + 4, f64::NAN);
        if let Cells::F64(y) = &mut b.cells {
            y[1] = f64::NAN; // absent: must not poison row 0
        }
        let (sum, mask) = product(&a, &b);
        assert_eq!((sum.clone(), mask), naive(&a, &b));
        assert!(f64::from_bits(sum[4]).is_nan(), "0.0 × NaN is NaN");
    }
}
