//! The one key table behind every keyed operator: `reduce_by_key`'s
//! combine and reduce, `group_by_key`, `merge`, the join's build side,
//! and the columnar keyed-aggregation sink.
//!
//! Entries live in a `Vec` in **first-seen order** — the order every keyed
//! operator emits its keys in — and an index maps a key to its entry: a
//! dense one, by offset, while every key is a long close to the others
//! (array indices), and otherwise an open-addressing index over the key's
//! hash. Keys are compared with [`Value`] equality, so `Long(1)` and
//! `Double(1.0)` stay one key, exactly as in the `HashMap<Value, _>`s
//! this replaces, and both indexes hand out the same slots. A lookup
//! borrows the key; only a key's first occurrence clones it.
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
    /// The key's [`mix_hash`]; computed only once the table hashes (`0`
    /// while the index is dense).
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

/// The magnitude every dense key stays below: up to 2^53 each long is
/// exactly one double, so `Value` equality among such keys is the
/// equality of their longs.
const EXACT: i64 = 1 << 53;

/// The most slots a dense index spans whatever the number of keys: 2^16
/// `u32`s, 256 KB a table. Past it a dense index may span two slots per
/// key, no more than the hashed index of as many keys takes (at least two
/// `u32`s per key). Measured against the hashed index (release, one
/// thread, distinct keys drawn uniformly over the span and looked up once
/// or eight times each, through [`KeyTable::upsert_longs`]): within 2^16
/// slots the dense index loses only where a few keys lie far apart — 64
/// keys over 2^16 slots in ≈ 10 µs against ≈ 2 µs, the zeroed window's
/// first touch — and wins from 1 024 keys on (4 096 keys, eight rows
/// each: ≈ 0.12 ms against ≈ 0.88 ms); over 2^18 slots it loses at up to
/// 256 keys by up to ≈ 0.15 ms a table.
const DENSE_SLOTS: usize = 1 << 16;

/// The long a key stands for in a dense index: a long below 2^53 in
/// magnitude, or a double `Value`-equal to one (`1.0` is `1`; `-0.0`,
/// a fraction and a NaN are no long). `None` for any other key.
fn dense_key(v: &Value) -> Option<i64> {
    let k = match *v {
        Value::Long(k) => k,
        // `as` saturates, and maps a NaN to 0: the bit patterns then differ.
        Value::Double(x) if (x as i64 as f64).to_bits() == x.to_bits() => x as i64,
        _ => return None,
    };
    (k.unsigned_abs() < EXACT as u64).then_some(k)
}

/// The index of a table whose keys are all dense ([`dense_key`]) and
/// close together: key `k`'s entry is `slots[k - base]` (`0` is none,
/// `n` is entry `n - 1`). The window `base..base + slots.len()` lies
/// within the dense keys, so a long outside them is outside it too.
struct Dense {
    base: i64,
    slots: Vec<u32>,
    /// The smallest and the largest key held (meaningless while empty).
    lo: i64,
    hi: i64,
}

impl Dense {
    /// Where key `k` sits in the window, if it lies inside it.
    #[inline]
    fn seat(&self, k: i64) -> Option<usize> {
        // Wrapping: a key below `base` lands far past the end.
        let at = usize::try_from(k.wrapping_sub(self.base) as u64).ok()?;
        (at < self.slots.len()).then_some(at)
    }

    /// The entry of key `k`.
    #[inline]
    fn find(&self, k: i64) -> Option<usize> {
        (self.slots[self.seat(k)?] as usize).checked_sub(1)
    }

    /// Widens the window to take the dense key `k` as the `keys`-th key,
    /// and the seat it takes there; `None` when the keys would then span
    /// more slots than the bound allows.
    fn admit(&mut self, k: i64, keys: usize) -> Option<usize> {
        let (held_lo, held_hi) = (self.lo, self.hi);
        let (lo, hi) = match keys {
            1 => (k, k),
            _ => (held_lo.min(k), held_hi.max(k)),
        };
        let limit = DENSE_SLOTS.max(2 * keys);
        // Both ends below 2^53 in magnitude: no overflow.
        if (hi - lo) as u64 >= limit as u64 {
            return None;
        }
        (self.lo, self.hi) = (lo, hi);
        if let Some(at) = self.seat(k) {
            return Some(at);
        }
        // A window twice the keys' span, as much room on either side, so
        // the span grows by half before the next widening; kept among the
        // dense keys.
        let span = (hi - lo) as usize + 1;
        let len = (2 * span).clamp(16, limit) as i64;
        let base = lo - (len - span as i64) / 2;
        let base = base.max(1 - EXACT).min(EXACT - len);
        let mut slots = vec![0u32; len as usize];
        if keys > 1 {
            let held = (held_hi - held_lo) as usize + 1;
            let (from, to) = ((held_lo - self.base) as usize, (held_lo - base) as usize);
            slots[to..to + held].copy_from_slice(&self.slots[from..from + held]);
        }
        (self.base, self.slots) = (base, slots);
        self.seat(k)
    }
}

/// An insertion-ordered table from [`Value`] keys to `T`.
///
/// It starts with a dense index ([`Dense`]) and keeps it while every key
/// is dense ([`dense_key`]) and the keys span at most [`DENSE_SLOTS`]
/// slots, or two per key: a key's entry is then found at its offset,
/// without hashing. The first key that breaks either rule re-seats every
/// entry in the hashed index, once and for good. Entries keep their
/// first-seen order throughout, so both forms hand out the same slots.
pub(crate) struct KeyTable<T> {
    entries: Vec<Entry<T>>,
    /// The dense index; `None` once the table hashes.
    dense: Option<Dense>,
    /// The hashed index (empty while the index is dense). Open
    /// addressing, linear probing: `0` is empty, `n` is entry `n - 1`.
    /// The length is a power of two, at least twice the number of
    /// entries.
    index: Vec<u32>,
    /// The keys the table was sized for, for its hashed index.
    hint: usize,
}

impl<T> KeyTable<T> {
    /// What [`KeyTable::find_longs`] gives a key the table does not hold.
    pub const ABSENT: u32 = u32::MAX;

    pub fn new() -> KeyTable<T> {
        KeyTable::with_capacity(0)
    }

    /// A table that takes `keys` distinct keys without growing its
    /// entries or its hashed index.
    pub fn with_capacity(keys: usize) -> KeyTable<T> {
        KeyTable {
            entries: Vec::with_capacity(keys),
            dense: Some(Dense {
                base: 0,
                slots: Vec::new(),
                lo: 0,
                hi: 0,
            }),
            index: Vec::new(),
            hint: keys,
        }
    }

    /// A table that hashes from its first key: the reference the tests
    /// hold the dense index to.
    #[cfg(test)]
    fn hashed_with_capacity(keys: usize) -> KeyTable<T> {
        KeyTable {
            entries: Vec::with_capacity(keys),
            dense: None,
            index: vec![0; (keys * 2).next_power_of_two().max(16)],
            hint: keys,
        }
    }

    /// Probes the hashed index for `key`: its slot, or else the empty
    /// seat where it would go.
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

    /// The slot of `key` — its position in first-seen order — if the
    /// table holds it. A dense index holds dense keys only, and no other
    /// key is `Value`-equal to one of them.
    pub fn slot(&self, key: &Key<'_>) -> Option<usize> {
        if let Some(dense) = &self.dense {
            return match key {
                Key::Value(v) => dense.find(dense_key(v)?),
                Key::Lanes(_) => None,
            };
        }
        match key {
            Key::Value(v) => self.probe(mix_hash(v), v),
            Key::Lanes(k) => self.probe(mix_hash(k), k),
        }
        .ok()
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
            Key::Value(v) if self.dense.is_some() => self.upsert_dense(v, init),
            Key::Value(v) => self.upsert_by(v, init),
            Key::Lanes(k) => {
                self.reseat();
                self.upsert_by(k, init)
            }
        }
    }

    /// The slot of every key of a lane of longs, in row order, into `out`:
    /// the slots one [`KeyTable::upsert`] per key hands out, each new key
    /// inserted with `init()`. Keys a dense index holds are found in one
    /// loop over the lane.
    pub fn upsert_longs(&mut self, keys: &[i64], mut init: impl FnMut() -> T, out: &mut Vec<u32>) {
        out.reserve(keys.len());
        let mut at = 0;
        while at < keys.len() {
            if let Some(dense) = &self.dense {
                // Up to the first key the window does not hold.
                for &k in &keys[at..] {
                    match dense.find(k) {
                        Some(slot) => out.push(slot as u32),
                        None => break,
                    }
                    at += 1;
                }
                if at == keys.len() {
                    break;
                }
            }
            let slot = self
                .upsert(Cow::Owned(Value::Long(keys[at])), &mut init)
                .slot;
            out.push(slot as u32);
            at += 1;
        }
    }

    /// The slot of every key `key(0)`, …, `key(len - 1)`, in row order,
    /// into `out`: the slots one [`KeyTable::upsert`] per key hands out,
    /// each new key inserted with `init()`. Once the table hashes, the
    /// keys are looked up by a loop of its own.
    pub fn upsert_values<'k>(
        &mut self,
        len: usize,
        key: impl Fn(usize) -> Cow<'k, Value>,
        mut init: impl FnMut() -> T,
        out: &mut Vec<u32>,
    ) {
        let mut at = 0;
        while at < len && self.dense.is_some() {
            out.push(self.upsert(key(at), &mut init).slot as u32);
            at += 1;
        }
        out.extend((at..len).map(|i| self.upsert_by(key(i), &mut init).slot as u32));
    }

    /// The slot of every key of a lane of longs, in row order, into
    /// `out`: [`KeyTable::ABSENT`] for a key the table does not hold.
    pub fn find_longs(&self, keys: &[i64], out: &mut Vec<u32>) {
        let slot = |s: Option<usize>| s.map_or(Self::ABSENT, |s| s as u32);
        match &self.dense {
            Some(dense) => out.extend(keys.iter().map(|&k| slot(dense.find(k)))),
            None => out.extend(
                keys.iter()
                    .map(|&k| slot(self.slot(&Key::from(Cow::Owned(Value::Long(k)))))),
            ),
        }
    }

    /// [`KeyTable::upsert`] of a `Value` key under the dense index, which
    /// re-seats every entry first when the key does not fit it.
    fn upsert_dense(&mut self, v: Cow<'_, Value>, init: impl FnOnce() -> T) -> Upserted<'_, T> {
        let dense = self
            .dense
            .as_mut()
            .expect("a dense upsert under a dense index");
        let slot = self.entries.len();
        let seat = match dense_key(&v) {
            Some(k) => match dense.find(k) {
                Some(slot) => {
                    return Upserted {
                        slot,
                        value: &mut self.entries[slot].value,
                        new: false,
                    }
                }
                None => dense.admit(k, slot + 1),
            },
            None => None,
        };
        let Some(at) = seat else {
            self.reseat();
            return self.upsert_by(v, init);
        };
        dense.slots[at] = u32::try_from(slot + 1).expect("a key table holds fewer than 2^32 keys");
        self.entries.push(Entry {
            hash: 0,
            key: v.into_owned(),
            value: init(),
        });
        Upserted {
            slot,
            value: &mut self.entries[slot].value,
            new: true,
        }
    }

    /// Leaves the dense index for the hashed one: hashes every entry and
    /// seats it, in first-seen order. A no-op once the table hashes.
    #[cold]
    fn reseat(&mut self) {
        if self.dense.take().is_none() {
            return;
        }
        let keys = self.hint.max(self.entries.len() + 1);
        self.index = vec![0; (keys * 2).next_power_of_two().max(16)];
        let mask = self.index.len() - 1;
        for (slot, e) in self.entries.iter_mut().enumerate() {
            e.hash = mix_hash(&e.key);
            let mut at = e.hash as usize & mask;
            while self.index[at] != 0 {
                at = (at + 1) & mask;
            }
            self.index[at] = slot as u32 + 1;
        }
    }

    /// Finds or inserts `key` in the hashed index.
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

    /// Doubles the hashed index and re-seats every entry from its stored
    /// hash.
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
        let keys = if cfg!(miri) { 500 } else { 10_000 };
        let mut t = KeyTable::with_capacity(4);
        for round in 0..2 {
            for i in 0..keys {
                let key = Value::pair(Value::Long(i % 100), Value::str(format!("k{i}")));
                assert_eq!(count(&mut t, key), i as usize, "round {round}");
            }
        }
        let mut entries = t.into_entries();
        assert_eq!(entries.len(), keys as usize);
        assert!(entries.all(|(_, n)| n == 2));
    }

    #[test]
    fn dense_long_keys_spread_over_the_index() {
        // Array indexes 0..n hash as f64 bit patterns with at least thirty
        // zero low bits; the index is addressed by the hash's LOW bits.
        let n = if cfg!(miri) { 1usize << 10 } else { 1 << 16 };
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
        // And the hashed index stays fast to probe in practice: every key
        // is found where it was put.
        let mut t = KeyTable::hashed_with_capacity(0);
        for i in 0..n as i64 {
            assert_eq!(count(&mut t, Value::Long(i)), i as usize);
        }
        for i in 0..n as i64 {
            assert_eq!(count(&mut t, Value::Double(i as f64)), i as usize);
        }
    }

    /// A seeded stream of words (splitmix64).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn long_in(&mut self, lo: i64, span: u64) -> i64 {
            lo.wrapping_add_unsigned(self.below(span))
        }
    }

    /// Streams per shape: cut under Miri, which interprets every upsert.
    const CASES: u64 = if cfg!(miri) { 1 } else { 48 };
    /// Keys per stream, at most; the many-keys shape takes more.
    const KEYS: u64 = if cfg!(miri) { 40 } else { 600 };

    /// One key of a stream: a value, or row `1` of lane shape `0`.
    #[derive(Clone)]
    enum Sample {
        Value(Value),
        Lanes(usize, usize),
    }

    /// `2^53` and its neighbours, the ends of `i64`, and the keys around
    /// zero, as longs.
    fn edges() -> Vec<i64> {
        let e = 1i64 << 53;
        vec![
            i64::MIN,
            i64::MIN + 1,
            i64::MAX,
            i64::MAX - 1,
            e - 1,
            e,
            e + 1,
            -e + 1,
            -e,
            -e - 1,
            0,
            1,
            -1,
        ]
    }

    /// A key for the stream of `shape` (0 to 6): clustered longs, spread
    /// longs, the edges of the dense keys, doubles and longs of one value,
    /// NaN payloads with strings and lane keys, a clustered stream broken
    /// midway, and many longs two apart in ascending order.
    fn sample(rng: &mut Rng, shape: u64, base: i64, step: u64, len: u64) -> Sample {
        let e = 1i64 << 53;
        let long = Sample::Value;
        match shape {
            0 => long(Value::Long(rng.long_in(base, 300))),
            1 => long(Value::Long(rng.long_in(base, 1 << 20))),
            2 => {
                let edges = edges();
                let k = match rng.below(3) {
                    0 => edges[rng.below(edges.len() as u64) as usize],
                    1 => rng.long_in(e - 40, 40),
                    _ => rng.long_in(-e + 1, 40),
                };
                match rng.below(4) {
                    0 => long(Value::Double(k as f64)),
                    _ => long(Value::Long(k)),
                }
            }
            3 => {
                let k = rng.long_in(-20, 40);
                long(match rng.below(6) {
                    0 => Value::Double(k as f64),
                    1 => Value::Double(k as f64 + 0.5),
                    2 => [Value::Double(-0.0), Value::Double(0.0), Value::Long(0)]
                        [rng.below(3) as usize]
                        .clone(),
                    _ => Value::Long(k),
                })
            }
            4 => match rng.below(6) {
                0 => long(Value::Double(f64::from_bits(
                    0x7ff8_0000_0000_0000 | rng.below(4),
                ))),
                1 => long(Value::Double(-f64::NAN)),
                2 => long(Value::str(format!("k{}", rng.below(8)))),
                3 => Sample::Lanes(rng.below(6) as usize, rng.below(ROWS as u64) as usize),
                _ => long(Value::Long(rng.long_in(-4, 12))),
            },
            5 if step == len / 2 => match rng.below(6) {
                0 => long(Value::str("break")),
                1 => long(Value::Long(base + (1 << 40))),
                2 => long(Value::Double(-0.0)),
                3 => long(Value::Double(f64::NAN)),
                4 => Sample::Lanes(0, 0),
                _ => long(Value::Long(e)),
            },
            5 => match rng.below(3) {
                0 => long(Value::Double(rng.long_in(base, 200) as f64)),
                _ => long(Value::Long(rng.long_in(base, 200))),
            },
            _ => long(Value::Long(base + 2 * step as i64)),
        }
    }

    fn sample_key<'a>(shapes: &'a [KeyLanes<'static>], s: &'a Sample) -> Key<'a> {
        match s {
            Sample::Value(v) => Key::from(v),
            Sample::Lanes(shape, row) => Key::from(shapes[*shape].key(*row)),
        }
    }

    /// The table's entries, keys and payloads, as the bytes of their
    /// encoding: NaN payloads and `-0.0` included.
    fn entry_bytes(t: KeyTable<u64>) -> Vec<u8> {
        let mut out = Vec::new();
        for (k, v) in t.into_entries() {
            crate::exchange::encode_value(&k, &mut out).unwrap();
            out.extend(v.to_le_bytes());
        }
        out
    }

    #[test]
    fn the_dense_index_hands_out_the_hashed_indexs_slots() {
        let shapes = shapes();
        let mut left_dense = 0;
        for shape in 0..7 {
            // The many-keys streams are long: a few make the point.
            let cases = if shape == 6 { CASES.min(3) } else { CASES };
            for case in 0..cases {
                let mut rng = Rng(shape * 1_000 + case);
                let len = match shape {
                    6 => KEYS * 60,
                    _ => 1 + rng.below(KEYS),
                };
                let base = match shape {
                    6 => rng.long_in(-(1 << 52), 1 << 20),
                    _ => rng.long_in(-(1 << 40), 1 << 41),
                };
                let hint = match rng.below(3) {
                    0 => 0,
                    _ => rng.below(2 * len) as usize,
                };
                let stream: Vec<Sample> = (0..len)
                    .map(|step| sample(&mut rng, shape, base, step, len))
                    .collect();
                let mut dense: KeyTable<u64> = KeyTable::with_capacity(hint);
                let mut hashed: KeyTable<u64> = KeyTable::hashed_with_capacity(hint);
                for (step, s) in stream.iter().enumerate() {
                    let at = format!("shape {shape}, case {case}, key {step}");
                    let (d, h) = (
                        dense.upsert(sample_key(&shapes, s), || step as u64),
                        hashed.upsert(sample_key(&shapes, s), || step as u64),
                    );
                    assert_eq!((d.slot, d.new), (h.slot, h.new), "{at}");
                    // A key held, and one that may not be.
                    let probe = sample(&mut rng, shape, base, step as u64, len);
                    for p in [s, &probe] {
                        let p = sample_key(&shapes, p);
                        assert_eq!(dense.slot(&p), hashed.slot(&p), "{at}");
                    }
                }
                if dense.dense.is_some() {
                    left_dense += 1;
                }
                // Longs two apart stay dense at any count: past 2^16
                // slots, two slots per key.
                assert!(shape != 6 || dense.dense.is_some(), "case {case}");
                // The batch forms over the long keys of the stream.
                let longs: Vec<i64> = stream
                    .iter()
                    .filter_map(|s| match s {
                        Sample::Value(Value::Long(k)) => Some(*k),
                        _ => None,
                    })
                    .collect();
                let mut found = Vec::new();
                dense.find_longs(&longs, &mut found);
                let want: Vec<u32> = longs
                    .iter()
                    .map(|&k| {
                        let k = Value::Long(k);
                        hashed
                            .slot(&Key::from(&k))
                            .map_or(KeyTable::<u64>::ABSENT, |s| s as u32)
                    })
                    .collect();
                assert_eq!(found, want, "shape {shape}, case {case}: find_longs");
                let mut batched: KeyTable<u64> = KeyTable::with_capacity(hint);
                let mut one_by_one: KeyTable<u64> = KeyTable::hashed_with_capacity(hint);
                let (mut slots, mut rest) = (Vec::new(), longs.as_slice());
                while !rest.is_empty() {
                    let (piece, more) = rest.split_at(1 + rng.below(rest.len() as u64) as usize);
                    let mut n = batched.entries.len() as u64;
                    batched.upsert_longs(
                        piece,
                        || {
                            n += 1;
                            n - 1
                        },
                        &mut slots,
                    );
                    rest = more;
                }
                let want: Vec<u32> = longs
                    .iter()
                    .map(|&k| {
                        let n = one_by_one.entries.len() as u64;
                        one_by_one.upsert(Cow::Owned(Value::Long(k)), || n).slot as u32
                    })
                    .collect();
                assert_eq!(slots, want, "shape {shape}, case {case}: upsert_longs");
                assert_eq!(entry_bytes(batched), entry_bytes(one_by_one));
                assert_eq!(
                    entry_bytes(dense),
                    entry_bytes(hashed),
                    "shape {shape}, case {case}"
                );
            }
        }
        // The streams reach both forms' ends: some tables stay dense.
        assert!(left_dense > 0);
    }
}
