//! The one hash table behind every keyed operator: `reduce_by_key`'s
//! combine and reduce, `group_by_key`, `cogroup`, `merge`, the sorted
//! sources' combiner, and the columnar keyed-aggregation sink.
//!
//! Entries live in a `Vec` in **first-seen order** — the order every keyed
//! operator emits its keys in — and an open-addressing index maps a key's
//! hash to its entry. Keys are compared with [`Value`] equality, so
//! `Long(1)` and `Double(1.0)` stay one key, exactly as in the
//! `HashMap<Value, _>`s this replaces. A lookup borrows the key; only a
//! key's first occurrence clones it.
//!
//! The hash decides probe positions only. Which shuffle bucket a key goes
//! to is still [`HashPartitioner`](crate::HashPartitioner)'s business.

use std::borrow::Cow;
use std::hash::{Hash, Hasher};

use diablo_runtime::Value;

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

fn mix_hash(key: &Value) -> u64 {
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
    fn probe(&self, hash: u64, key: &Value) -> std::result::Result<usize, usize> {
        let mask = self.index.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let Some(slot) = (self.index[at] as usize).checked_sub(1) else {
                return Err(at);
            };
            let e = &self.entries[slot];
            if e.hash == hash && e.key == *key {
                return Ok(slot);
            }
            at = (at + 1) & mask;
        }
    }

    /// The payload of `key`, if the table holds it.
    pub fn get_mut(&mut self, key: &Value) -> Option<&mut T> {
        let slot = self.probe(mix_hash(key), key).ok()?;
        Some(&mut self.entries[slot].value)
    }

    /// Finds `key`, inserting it with `init()` as payload if it is new. An
    /// owned key is moved in; a borrowed one is cloned on insertion only.
    pub fn upsert(&mut self, key: Cow<'_, Value>, init: impl FnOnce() -> T) -> Upserted<'_, T> {
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
            key: key.into_owned(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn count(table: &mut KeyTable<u32>, key: Value) -> usize {
        let hit = table.upsert(Cow::Owned(key), || 0);
        *hit.value += 1;
        hit.slot
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
