//! The one hash table behind every keyed operator: `reduce_by_key`'s
//! combine and reduce, `group_by_key`, `merge`, the sorted
//! sources' combiner, and the columnar keyed-aggregation sink.
//!
//! Entries live in a `Vec` in **first-seen order** — the order every keyed
//! operator emits its keys in — and an open-addressing index maps a key's
//! hash to its entry. Keys are compared with [`Value`] equality, so
//! `Long(1)` and `Double(1.0)` stay one key, exactly as in the
//! `HashMap<Value, _>`s this replaces. A lookup borrows the key; only a
//! key's first occurrence clones it.
//!
//! A key is a [`Key`]: a `Value`, or one row of a [`KeyLanes`] — a column
//! of flat tuples of primitives, such as an `(i, j)` array index, held as
//! one lane per field. A lane key hashes exactly as the tuple it stands
//! for (the same words reach the hasher) and compares with `Value`
//! equality field by field, so it finds the boxed key's slot here and its
//! bucket in [`HashPartitioner`](crate::HashPartitioner); it is boxed only
//! when a table inserts it. (A primitive key needs no lane form: a
//! `Value::Long` is boxed without an allocation.)
//!
//! The hash decides probe positions only. Which shuffle bucket a key goes
//! to is still [`HashPartitioner`](crate::HashPartitioner)'s business.

use std::borrow::Cow;
use std::hash::{Hash, Hasher};

use diablo_runtime::Value;

/// A primitive value, unboxed.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Prim {
    Bool(bool),
    Long(i64),
    Double(f64),
}

impl Prim {
    /// The value this primitive stands for (no allocation).
    fn value(self) -> Value {
        match self {
            Prim::Bool(b) => Value::Bool(b),
            Prim::Long(n) => Value::Long(n),
            Prim::Double(x) => Value::Double(x),
        }
    }
}

/// One field of a lane key: a primitive lane, or one primitive for every
/// row.
pub(crate) enum KeyLane<'c> {
    Longs(&'c [i64]),
    Doubles(&'c [f64]),
    Bools(&'c [bool]),
    Const(Prim),
}

impl KeyLane<'_> {
    fn at(&self, row: usize) -> Prim {
        match self {
            KeyLane::Longs(v) => Prim::Long(v[row]),
            KeyLane::Doubles(v) => Prim::Double(v[row]),
            KeyLane::Bools(v) => Prim::Bool(v[row]),
            KeyLane::Const(p) => *p,
        }
    }
}

/// A column of keys read from lanes: every row's key is the flat tuple of
/// one primitive per lane.
pub(crate) struct KeyLanes<'c>(pub Vec<KeyLane<'c>>);

impl KeyLanes<'_> {
    /// The key of row `row`.
    pub fn key(&self, row: usize) -> LaneKey<'_> {
        LaneKey { lanes: self, row }
    }
}

/// One row of a [`KeyLanes`]: the tuple key it stands for, unboxed.
pub(crate) struct LaneKey<'a> {
    lanes: &'a KeyLanes<'a>,
    row: usize,
}

impl LaneKey<'_> {
    fn fields(&self) -> impl Iterator<Item = Value> + '_ {
        self.lanes.0.iter().map(|lane| lane.at(self.row).value())
    }
}

/// The words `Value::hash` writes for the tuple: its tag, then each field
/// as its `Value`.
impl Hash for LaneKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        4u8.hash(state);
        self.fields().for_each(|f| f.hash(state));
    }
}

/// A key as a keyed operator meets it: a `Value`, borrowed or owned, or
/// one row of a [`KeyLanes`].
pub(crate) enum Key<'a> {
    Value(Cow<'a, Value>),
    Lanes(LaneKey<'a>),
}

impl<'a> From<Cow<'a, Value>> for Key<'a> {
    fn from(v: Cow<'a, Value>) -> Key<'a> {
        Key::Value(v)
    }
}

impl<'a> From<&'a Value> for Key<'a> {
    fn from(v: &'a Value) -> Key<'a> {
        Key::Value(Cow::Borrowed(v))
    }
}

impl<'a> From<LaneKey<'a>> for Key<'a> {
    fn from(k: LaneKey<'a>) -> Key<'a> {
        Key::Lanes(k)
    }
}

impl Hash for Key<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Key::Value(v) => v.hash(state),
            Key::Lanes(k) => k.hash(state),
        }
    }
}

#[cfg(test)]
impl Key<'_> {
    /// The key as an owned `Value`: a borrowed one cloned, a lane key
    /// boxed.
    pub fn into_value(self) -> Value {
        match self {
            Key::Value(v) => v.into_owned(),
            Key::Lanes(k) => k.into_value(),
        }
    }
}

/// One form of [`Key`], which the table looks up with code of its own,
/// so a `Value` key's lookup carries no lane-key code.
trait TableKey: Hash {
    /// `Value` equality with a stored key.
    fn matches(&self, stored: &Value) -> bool;
    /// The key as an owned `Value`, to store.
    fn into_value(self) -> Value;
}

impl TableKey for Cow<'_, Value> {
    fn matches(&self, stored: &Value) -> bool {
        **self == *stored
    }

    fn into_value(self) -> Value {
        self.into_owned()
    }
}

impl TableKey for LaneKey<'_> {
    fn matches(&self, stored: &Value) -> bool {
        stored.as_tuple().is_some_and(|fields| {
            fields.len() == self.lanes.0.len() && self.fields().zip(fields).all(|(a, b)| a == *b)
        })
    }

    fn into_value(self) -> Value {
        Value::tuple(self.fields().collect())
    }
}

/// Word-at-a-time multiply-rotate hasher with a finalizer.
///
/// The finalizer is what makes it usable here: [`Value`] hashes a long as
/// the bit pattern of its `f64` image (so it collides with the equal
/// double), and the doubles `0.0, 1.0, 2.0, …` differ only in their top
/// bits — thirty or more low bits are zero. A multiply alone never moves
/// high bits down, so masking such a hash to a table index would send
/// every dense array index to a handful of slots.
#[derive(Default)]
struct MixHasher(u64);

impl MixHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for MixHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// MurmurHash3's 64-bit finalizer: every input bit reaches every
    /// output bit.
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

fn mix_hash(key: &impl Hash) -> u64 {
    let mut h = MixHasher::default();
    key.hash(&mut h);
    h.finish()
}

struct Entry<T> {
    hash: u64,
    key: Value,
    value: T,
}

/// Where [`KeyTable::upsert`] found or put a key.
pub(crate) struct Upserted<'t, T> {
    /// The key's position in first-seen order.
    pub slot: usize,
    /// The key's payload.
    pub value: &'t mut T,
    /// True when this call inserted the key.
    pub new: bool,
}

/// An insertion-ordered hash table from [`Value`] keys to `T`.
pub(crate) struct KeyTable<T> {
    entries: Vec<Entry<T>>,
    /// Open addressing, linear probing: `0` is empty, `n` is entry
    /// `n - 1`. The length is a power of two, at least twice the number
    /// of entries.
    index: Vec<u32>,
}

impl<T> KeyTable<T> {
    pub fn new() -> KeyTable<T> {
        KeyTable::with_capacity(0)
    }

    /// A table that takes `keys` distinct keys without growing.
    pub fn with_capacity(keys: usize) -> KeyTable<T> {
        KeyTable {
            entries: Vec::with_capacity(keys),
            index: vec![0; (keys * 2).next_power_of_two().max(16)],
        }
    }

    /// Probes for `key`: its slot, or else the empty seat of the index
    /// where it would go.
    fn probe(&self, hash: u64, key: &impl TableKey) -> std::result::Result<usize, usize> {
        let mask = self.index.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let Some(slot) = (self.index[at] as usize).checked_sub(1) else {
                return Err(at);
            };
            let e = &self.entries[slot];
            if e.hash == hash && key.matches(&e.key) {
                return Ok(slot);
            }
            at = (at + 1) & mask;
        }
    }

    /// The payload of `key`, if the table holds it.
    pub fn get_mut(&mut self, key: &Key<'_>) -> Option<&mut T> {
        let slot = match key {
            Key::Value(v) => self.probe(mix_hash(v), v),
            Key::Lanes(k) => self.probe(mix_hash(k), k),
        };
        Some(&mut self.entries[slot.ok()?].value)
    }

    /// Finds `key`, inserting it with `init()` as payload if it is new. An
    /// owned key is moved in; a borrowed one is cloned, and a lane key
    /// boxed, on insertion only.
    pub fn upsert<'k>(
        &mut self,
        key: impl Into<Key<'k>>,
        init: impl FnOnce() -> T,
    ) -> Upserted<'_, T> {
        match key.into() {
            Key::Value(v) => self.upsert_by(v, init),
            Key::Lanes(k) => self.upsert_by(k, init),
        }
    }

    fn upsert_by(&mut self, key: impl TableKey, init: impl FnOnce() -> T) -> Upserted<'_, T> {
        let hash = mix_hash(&key);
        let at = match self.probe(hash, &key) {
            Ok(slot) => {
                return Upserted {
                    slot,
                    value: &mut self.entries[slot].value,
                    new: false,
                }
            }
            Err(at) => at,
        };
        let slot = self.entries.len();
        self.index[at] = u32::try_from(slot + 1).expect("a key table holds fewer than 2^32 keys");
        self.entries.push(Entry {
            hash,
            key: key.into_value(),
            value: init(),
        });
        if self.entries.len() * 2 > self.index.len() {
            self.grow();
        }
        Upserted {
            slot,
            value: &mut self.entries[slot].value,
            new: true,
        }
    }

    /// Doubles the index and re-seats every entry from its stored hash.
    fn grow(&mut self) {
        let mask = self.index.len() * 2 - 1;
        let mut index = vec![0u32; mask + 1];
        for (slot, e) in self.entries.iter().enumerate() {
            let mut at = e.hash as usize & mask;
            while index[at] != 0 {
                at = (at + 1) & mask;
            }
            index[at] = slot as u32 + 1;
        }
        self.index = index;
    }

    /// The `(key, payload)` entries in first-seen order.
    pub fn into_entries(self) -> impl ExactSizeIterator<Item = (Value, T)> {
        self.entries.into_iter().map(|e| (e.key, e.value))
    }
}

/// Key columns of every lane shape, for the tests that hold lane keys to
/// their boxed values here and in the exchange.
#[cfg(test)]
pub(crate) mod lane_samples {
    use super::{KeyLane, KeyLanes, Prim};

    /// The rows of every sample column.
    pub const ROWS: usize = 8;
    static LONGS: [i64; ROWS] = [1, 0, 0, 1, -3, 2, 1, 7];
    static MORE_LONGS: [i64; ROWS] = [0, 0, 1, 1, 5, -2, 0, 7];
    /// `1.0` against the longs' `1`, both zeros, two NaN payloads.
    static DOUBLES: [f64; ROWS] = [1.0, 0.0, -0.0, f64::NAN, -f64::NAN, 2.5, 1.0, 7.0];
    static BOOLS: [bool; ROWS] = [true, false, false, true, true, false, true, false];

    /// `(long, long)`; `(long, double)`; a triple with a constant field;
    /// `(long,)` and `(double,)`, one key where their fields are equal;
    /// and `()`.
    pub fn shapes() -> Vec<KeyLanes<'static>> {
        use KeyLane::*;
        vec![
            KeyLanes(vec![Longs(&LONGS), Longs(&MORE_LONGS)]),
            KeyLanes(vec![Longs(&LONGS), Doubles(&DOUBLES)]),
            KeyLanes(vec![Doubles(&DOUBLES), Bools(&BOOLS), Const(Prim::Long(4))]),
            KeyLanes(vec![Longs(&LONGS)]),
            KeyLanes(vec![Doubles(&DOUBLES)]),
            KeyLanes(Vec::new()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::lane_samples::{shapes, ROWS};
    use super::*;
    use std::collections::HashSet;

    fn count(table: &mut KeyTable<u32>, key: Value) -> usize {
        let hit = table.upsert(Cow::Owned(key), || 0);
        *hit.value += 1;
        hit.slot
    }

    #[test]
    fn lane_keys_hash_and_compare_as_their_boxed_values() {
        for (s, lanes) in shapes().iter().enumerate() {
            for row in 0..ROWS {
                let boxed = lanes.key(row).into_value();
                let key = lanes.key(row);
                assert_eq!(mix_hash(&key), mix_hash(&boxed), "shape {s}, row {row}");
                assert!(key.matches(&boxed), "shape {s}, row {row}: {boxed:?}");
            }
        }
    }

    #[test]
    fn lane_keys_find_the_slots_of_their_boxed_values() {
        // Every shape's keys in one table, behind the scalars they hold,
        // boxed first: a lane key finds the slot its boxed value finds,
        // among keys of every other shape (`(1,)` and `(1.0,)` are one key,
        // `(1,)` and `1` two) ...
        let shapes = shapes();
        let mut boxed_first: KeyTable<()> = KeyTable::new();
        let mut lanes_first: KeyTable<()> = KeyTable::new();
        for n in -3..8 {
            boxed_first.upsert(Cow::Owned(Value::Long(n)), || ());
            lanes_first.upsert(Cow::Owned(Value::Long(n)), || ());
        }
        for lanes in &shapes {
            for row in 0..ROWS {
                boxed_first.upsert(Cow::Owned(lanes.key(row).into_value()), || ());
                lanes_first.upsert(lanes.key(row), || ());
            }
        }
        for (s, lanes) in shapes.iter().enumerate() {
            for row in 0..ROWS {
                let boxed = lanes.key(row).into_value();
                for table in [&mut boxed_first, &mut lanes_first] {
                    let by_value = table.upsert(&boxed, || ()).slot;
                    let by_lanes = table.upsert(lanes.key(row), || ());
                    assert!(!by_lanes.new, "shape {s}, row {row}");
                    assert_eq!(by_lanes.slot, by_value, "shape {s}, row {row}: {boxed:?}");
                }
            }
        }
        // ... and a lane key is stored as its boxed value.
        let stored = |t: KeyTable<()>| format!("{:?}", t.into_entries().collect::<Vec<_>>());
        assert_eq!(stored(boxed_first), stored(lanes_first));
    }

    #[test]
    fn lane_keys_keep_value_equality_across_spellings_and_arities() {
        use KeyLane::{Doubles, Longs};
        let pairs = KeyLanes(vec![Longs(&[1, 0, 0]), Doubles(&[0.0, -0.0, f64::NAN])]);
        let (l, d) = (Value::Long, Value::Double);
        let t = |fields: Vec<Value>| Value::tuple(fields);
        // `1` against `1.0`, in either field.
        let one = pairs.key(0);
        assert!(one.matches(&t(vec![d(1.0), l(0)])));
        assert_eq!(mix_hash(&one), mix_hash(&t(vec![d(1.0), l(0)])));
        // `-0.0` is not `0`, and a NaN matches its own bit pattern only.
        assert!(!pairs.key(1).matches(&t(vec![l(0), l(0)])));
        assert!(!pairs.key(1).matches(&t(vec![l(0), d(0.0)])));
        assert!(pairs.key(2).matches(&t(vec![l(0), d(f64::NAN)])));
        assert!(!pairs.key(2).matches(&t(vec![l(0), d(-f64::NAN)])));
        // Arity is part of the key: neither a longer or shorter tuple nor
        // a scalar matches, and a one-field tuple is no scalar.
        for other in [t(vec![l(1), l(0), l(0)]), t(vec![l(1)]), l(1)] {
            assert!(!one.matches(&other), "{other:?}");
        }
        let single = KeyLanes(vec![Longs(&[1])]);
        assert!(single.key(0).matches(&t(vec![d(1.0)])));
        assert!(!single.key(0).matches(&l(1)));
    }

    #[test]
    fn keeps_first_seen_order_and_value_equality() {
        let mut t = KeyTable::new();
        assert_eq!(count(&mut t, Value::str("b")), 0);
        assert_eq!(count(&mut t, Value::Long(1)), 1);
        assert_eq!(count(&mut t, Value::str("a")), 2);
        // A long and the double it equals are one key; -0.0 and 0.0, and
        // two NaNs of different payload, are not.
        assert_eq!(count(&mut t, Value::Double(1.0)), 1);
        assert_eq!(count(&mut t, Value::Double(0.0)), 3);
        assert_eq!(count(&mut t, Value::Double(-0.0)), 4);
        assert_eq!(count(&mut t, Value::Long(0)), 3);
        assert_eq!(count(&mut t, Value::Double(f64::NAN)), 5);
        assert_eq!(count(&mut t, Value::Double(f64::NAN)), 5);
        assert_eq!(count(&mut t, Value::Double(-f64::NAN)), 6);
        assert_eq!(count(&mut t, Value::str("b")), 0);
        let entries: Vec<(Value, u32)> = t.into_entries().collect();
        assert_eq!(entries.len(), 7);
        assert_eq!(entries[0], (Value::str("b"), 2));
        assert_eq!(entries[1], (Value::Long(1), 2));
        assert_eq!(entries[3], (Value::Double(0.0), 2));
    }

    #[test]
    fn grows_past_its_first_index_without_losing_keys() {
        let mut t = KeyTable::with_capacity(4);
        for round in 0..2 {
            for i in 0..10_000i64 {
                let key = Value::pair(Value::Long(i % 100), Value::str(format!("k{i}")));
                assert_eq!(count(&mut t, key), i as usize, "round {round}");
            }
        }
        let mut entries = t.into_entries();
        assert_eq!(entries.len(), 10_000);
        assert!(entries.all(|(_, n)| n == 2));
    }

    #[test]
    fn dense_long_keys_spread_over_the_index() {
        // Array indexes 0..n hash as f64 bit patterns with at least thirty
        // zero low bits; the index is addressed by the hash's LOW bits.
        let n = 1usize << 16;
        for i in 1..n as i64 {
            assert!((i as f64).to_bits().trailing_zeros() >= 30);
        }
        let seats: HashSet<usize> = (0..n as i64)
            .map(|i| mix_hash(&Value::Long(i)) as usize & (n - 1))
            .collect();
        // Uniform hashing fills 1 - 1/e ≈ 63 % of n seats with n keys.
        assert!(
            seats.len() > n / 2,
            "only {} of {n} seats used",
            seats.len()
        );
        // And the table stays fast to probe in practice: every key is
        // found where it was put.
        let mut t = KeyTable::new();
        for i in 0..n as i64 {
            assert_eq!(count(&mut t, Value::Long(i)), i as usize);
        }
        for i in 0..n as i64 {
            assert_eq!(count(&mut t, Value::Double(i as f64)), i as usize);
        }
    }
}
