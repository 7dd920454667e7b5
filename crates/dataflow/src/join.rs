//! The matching half of a join, in factorised form: a [`Join`] turns one
//! zipped bucket pair into [`Matches`] — the two bucket sides plus one
//! `(left row, right row)` index pair per match, in emission order — and
//! allocates no row. Rows are made of matches only where a consumer needs
//! them (the row layout, an opaque chain, a replayed tile, `Dataset::join`'s
//! `(k, (l, r))` rows), one at a time; an eligible columnar chain gathers
//! its tile's columns straight from the two sides by index instead
//! (`columnar::drive_columnar` over a [`Source::Matches`]).
//!
//! [`Source::Matches`]: crate::plan::Source::Matches

use diablo_runtime::array::key_value_ref;
use diablo_runtime::Value;

use crate::columnar::{env_fields, for_each_key, RowExpr};
use crate::dataset::Dataset;
use crate::keytable::KeyTable;
use crate::plan::Result;

/// How a match becomes a row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Emit {
    /// The left row's fields followed by the right row's:
    /// `Dataset::join_on`.
    Concat,
    /// `(key, (l, r))` over two `(key, value)` rows, the key as the
    /// group's first left row spells it: `Dataset::join`.
    Pairs,
}

/// A left row followed by the fields of a right one.
fn concat_rows(left: &Value, right: &Value) -> Result<Value> {
    let (l, r) = (env_fields(left)?, env_fields(right)?);
    Ok(Value::Tuple(l.iter().chain(r).cloned().collect()))
}

/// The post-shuffle matching of a join over one zipped bucket pair: a
/// build–probe whose bucket rows are the rows themselves, keyed by these
/// expressions.
pub(crate) struct Join {
    pub left_key: RowExpr,
    pub right_key: RowExpr,
    pub emit: Emit,
}

impl Join {
    /// The matches of one zipped bucket pair. With `lanes`, each side's
    /// keys are evaluated as one column and read from its lanes where it
    /// has them; the keys, and so the matches, are the same either way.
    pub(crate) fn matches<'a>(&self, part: &'a [Value], lanes: bool) -> Result<Matches<'a>> {
        let (l, r) = Dataset::unzip_bucket(part)?;
        build_probe(self, l, r, lanes)
    }
}

/// A join's matches over one bucket pair.
pub(crate) struct Matches<'a> {
    /// The left side's rows.
    left: Vec<&'a Value>,
    /// The right side's rows.
    right: Vec<&'a Value>,
    /// One `(left row, right row)` per match, in emission order.
    pairs: Vec<(u32, u32)>,
    /// Under [`Emit::Pairs`], per match: the left row that spells its
    /// group's key.
    key_rows: Vec<u32>,
    pub emit: Emit,
}

impl<'a> Matches<'a> {
    fn new(left: Vec<&'a Value>, right: Vec<&'a Value>, emit: Emit, matches: usize) -> Self {
        Matches {
            left,
            right,
            pairs: Vec::with_capacity(matches),
            key_rows: Vec::new(),
            emit,
        }
    }

    /// Adds match `(i, j)` of the group whose key `key_row` spells,
    /// raising what making its row would raise — so a row that cannot
    /// be emitted fails the stage here, in emission order, before any
    /// step runs.
    fn push(&mut self, i: usize, j: usize, key_row: usize) -> Result<()> {
        let (l, r) = (self.left[i], self.right[j]);
        match self.emit {
            Emit::Concat => {
                env_fields(l)?;
                env_fields(r)?;
            }
            Emit::Pairs => {
                key_value_ref(l)?;
                key_value_ref(r)?;
                self.key_rows.push(row_index(key_row));
            }
        }
        self.pairs.push((row_index(i), row_index(j)));
        Ok(())
    }

    /// The number of matches.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// The left and right rows of match `m`.
    pub fn sides(&self, m: usize) -> (&'a Value, &'a Value) {
        let (i, j) = self.pairs[m];
        (self.left[i as usize], self.right[j as usize])
    }

    /// The row of match `m`.
    pub fn row(&self, m: usize) -> Result<Value> {
        let (l, r) = self.sides(m);
        match self.emit {
            Emit::Concat => concat_rows(l, r),
            Emit::Pairs => {
                let key = key_value_ref(self.left[self.key_rows[m] as usize])?.0;
                let (l, r) = (key_value_ref(l)?.1, key_value_ref(r)?.1);
                Ok(Value::pair(key.clone(), Value::pair(l.clone(), r.clone())))
            }
        }
    }
}

fn row_index(row: usize) -> u32 {
    u32::try_from(row).expect("a bucket holds fewer than 2^32 rows")
}

/// The rows of one key on one side of a join, as a linked list of row
/// indices threaded through a `next` array: appending allocates nothing.
#[derive(Clone, Copy)]
struct RowChain {
    first: u32,
    last: u32,
}

impl RowChain {
    const NIL: u32 = u32::MAX;
    const EMPTY: RowChain = RowChain {
        first: RowChain::NIL,
        last: RowChain::NIL,
    };

    fn push(&mut self, next: &mut [u32], row: usize) {
        let row = row_index(row);
        match self.last {
            RowChain::NIL => self.first = row,
            last => next[last as usize] = row,
        }
        self.last = row;
    }

    /// The chain's rows, in the order they were pushed.
    fn rows(self, next: &[u32]) -> impl Iterator<Item = usize> + '_ {
        let some = |row: u32| (row != RowChain::NIL).then_some(row as usize);
        std::iter::successors(some(self.first), move |&row| some(next[row]))
    }
}

/// A hash join over one bucket: builds a table of the left rows' keys,
/// each holding the chain of its left rows and — once the right rows have
/// probed it — of its right rows; then lists, per key in first-seen order,
/// every left row of the key with every right row of the key.
fn build_probe<'a>(
    join: &Join,
    left: &'a [Value],
    right: &'a [Value],
    lanes: bool,
) -> Result<Matches<'a>> {
    let mut keys: KeyTable<(RowChain, RowChain)> = KeyTable::new();
    let mut lnext = vec![RowChain::NIL; left.len()];
    for_each_key(left, &join.left_key, lanes, &mut |i, key| {
        let chains = keys.upsert(key, || (RowChain::EMPTY, RowChain::EMPTY));
        chains.value.0.push(&mut lnext, i);
        Ok(())
    })?;
    let mut rnext = vec![RowChain::NIL; right.len()];
    let mut matched = 0usize;
    for_each_key(right, &join.right_key, lanes, &mut |j, key| {
        if let Some(chains) = keys.get_mut(&key) {
            chains.1.push(&mut rnext, j);
            matched += 1;
        }
        Ok(())
    })?;
    // At least one match per matched right row.
    let mut m = Matches::new(
        left.iter().collect(),
        right.iter().collect(),
        join.emit,
        matched,
    );
    for (_, (lrows, rrows)) in keys.into_entries() {
        for i in lrows.rows(&lnext) {
            for j in rrows.rows(&rnext) {
                m.push(i, j, lrows.first as usize)?;
            }
        }
    }
    Ok(m)
}
