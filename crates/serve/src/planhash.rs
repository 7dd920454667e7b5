//! Canonical plan hashing — the result cache's notion of program
//! identity.
//!
//! The hash is taken over the **compiled** program (the typed target
//! statements of [`CompiledProgram`]), not the source text, so every
//! surface difference the compiler already erases — whitespace, comments,
//! statement layout — vanishes before hashing: two texts that compile to
//! the same target code hash equal by construction, and the compiler's
//! fresh-name generator is deterministic, so its `v#N` temporaries never
//! destabilize the hash.
//!
//! On top of that, declared **input names are alpha-renamed to their
//! declaration position** (`in$0`, `in$1`, …): a program is the same
//! query whether its input is spelled `A` or `Points`, and the cache key
//! binds actual input *content* by fingerprint separately. Only inputs
//! the program never reassigns are renamed — a reassigned input is also
//! an output, and outputs are addressed by name in responses, so renaming
//! one would let two programs with differently-named results collide.
//!
//! Everything else is semantic and must distinguish: operators, constants
//! (hashed through the engine's canonical value encoding, so `0.0` and
//! `-0.0` differ exactly when their bits do), comprehension structure,
//! output variable names, and each input's **declared type** (same text
//! against a `vector[long]` vs a `vector[double]` is a different plan).
//!
//! Every hash here — of a plan, a value, a row section, a chain of cache
//! key components — is one word-at-a-time hash (`WordHash`) over a
//! tagged byte stream: fully deterministic across processes and
//! platforms, unlike `DefaultHasher`, whose seeds the standard library
//! does not pin. A value streams in as exactly the bytes the engine's
//! binary codec writes for it.

use std::collections::HashMap;

use diablo_comp::{CExpr, Comprehension, Pattern, Qual};
use diablo_core::{CompiledProgram, TStmt};
use diablo_runtime::Value;

/// Folds a new component into an existing hash (order-sensitive) — how
/// the cache key chains the plan hash with input fingerprints.
pub fn fold(hash: u64, component: u64) -> u64 {
    let mut h = WordHash::new();
    h.u64(hash);
    h.u64(component);
    h.finish()
}

/// Content hash of one value: the bytes [`diablo_dataflow::encode_value`]
/// writes for it (doubles as raw bits; containers tagged and
/// length-prefixed), streamed. Infallible, unlike the wire codec: lengths
/// past `u32` wrap.
pub fn value_hash(v: &Value) -> u64 {
    let mut h = WordHash::new();
    stream_value(&mut h, v);
    h.finish()
}

/// Content hash of a row slice, in order: the `bytes_hash` of the rows
/// section the wire protocol would carry for it — a `u32` row count, then
/// each row as [`diablo_dataflow::encode_value`] writes it. The bytes are
/// streamed into the hash, never written out, so an inline `Run` section
/// (fingerprinted from the frame) and a `BindDataset` of the same rows
/// fold the same cache key. Lengths past `u32` wrap: such rows cannot
/// travel the wire in the first place.
pub fn rows_hash(rows: &[Value]) -> u64 {
    let mut h = WordHash::new();
    h.put(rows.len() as u32 as u64, 4);
    for r in rows {
        stream_value(&mut h, r);
    }
    h.finish()
}

/// The content hash of an encoded byte string (see [`WordHash`]).
pub(crate) fn bytes_hash(bytes: &[u8]) -> u64 {
    let mut h = WordHash::new();
    h.bytes(bytes);
    h.finish()
}

/// Streams `v` into `h` as exactly the bytes `encode_value` writes.
fn stream_value(h: &mut WordHash, v: &Value) {
    // A tag and a u32 length travel together as one 5-byte write.
    let tagged = |h: &mut WordHash, tag: u8, len: usize| {
        h.put(u64::from(tag) | ((len as u32 as u64) << 8), 5);
    };
    match v {
        Value::Unit => h.put(0, 1),
        Value::Bool(b) => h.put(1 | (u64::from(*b) << 8), 2),
        Value::Long(n) => {
            h.put(2, 1);
            h.put(*n as u64, 8);
        }
        Value::Double(x) => {
            h.put(3, 1);
            h.put(x.to_bits(), 8);
        }
        Value::Str(s) => {
            tagged(h, 4, s.len());
            h.bytes(s.as_bytes());
        }
        Value::Tuple(fs) => {
            tagged(h, 5, fs.len());
            fs.iter().for_each(|x| stream_value(h, x));
        }
        Value::Record(fields) => {
            tagged(h, 6, fields.len());
            for (n, x) in fields.iter() {
                h.put(n.len() as u32 as u64, 4);
                h.bytes(n.as_bytes());
                stream_value(h, x);
            }
        }
        Value::Bag(items) => {
            tagged(h, 7, items.len());
            items.iter().for_each(|x| stream_value(h, x));
        }
    }
}

/// A word-at-a-time hash of a byte stream: the stream is cut into
/// little-endian 8-byte words, each folded in with one folded multiply,
/// the last partial word zero-padded, the length folded last and the
/// state finished with fmix64. Eight bytes per step, not one: inline
/// rows are tens of kilobytes per request.
///
/// Bytes may arrive in any split — one slice, or many small writes — and
/// hash the same, which is what lets [`rows_hash`] stream values without
/// encoding them.
struct WordHash {
    state: u64,
    /// Bytes of the current word not yet folded, from its low end.
    word: u64,
    /// Bits of `word` in use (always below 64).
    fill: u32,
    len: u64,
}

impl WordHash {
    fn new() -> WordHash {
        WordHash {
            state: 0x243f_6a88_85a3_08d3,
            word: 0,
            fill: 0,
            len: 0,
        }
    }

    /// One step: a folded multiply, the 128-bit product's two halves
    /// XORed, so a difference in any bit of the word reaches every bit of
    /// the state. (`keytable.rs`'s multiply-rotate step leaves a top-bit
    /// difference in the top bit, where the next word's bit 4 cancels it:
    /// a two-bit collision, fine for a hash table, wrong for a cache key.)
    #[inline]
    fn fold(&mut self, word: u64) {
        let p = u128::from(self.state ^ word) * 0x9e37_79b9_7f4a_7c15;
        self.state = (p as u64) ^ ((p >> 64) as u64);
    }

    /// Appends the low `n` bytes of `v` (`1 ≤ n ≤ 8`; higher bytes zero).
    #[inline]
    fn put(&mut self, v: u64, n: u32) {
        let bits = 8 * n;
        self.len += u64::from(n);
        self.word |= v << self.fill;
        if self.fill + bits < 64 {
            self.fill += bits;
            return;
        }
        self.fold(self.word);
        // The bytes of `v` that did not fit start the next word.
        self.word = if self.fill == 0 {
            0
        } else {
            v >> (64 - self.fill)
        };
        self.fill = self.fill + bits - 64;
    }

    fn byte(&mut self, b: u8) {
        self.put(u64::from(b), 1);
    }

    fn u64(&mut self, n: u64) {
        self.put(n, 8);
    }

    /// A length-prefixed string, so `("ab","c")` and `("a","bc")` differ.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn bytes(&mut self, mut bs: &[u8]) {
        while self.fill != 0 {
            let Some((b, rest)) = bs.split_first() else {
                return;
            };
            self.put(u64::from(*b), 1);
            bs = rest;
        }
        let words = bs.chunks_exact(8);
        let tail = words.remainder();
        for w in words {
            self.fold(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        self.len += (bs.len() - tail.len()) as u64;
        for b in tail {
            self.put(u64::from(*b), 1);
        }
    }

    fn finish(mut self) -> u64 {
        if self.fill != 0 {
            self.fold(self.word);
        }
        self.fold(self.len);
        let mut h = self.state;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// True when any statement (re)assigns `name`.
fn writes(stmts: &[TStmt], name: &str) -> bool {
    stmts.iter().any(|s| match s {
        TStmt::Assign { name: n, .. } => n == name,
        TStmt::While { body, .. } => writes(body, name),
    })
}

/// The canonical plan hash of a compiled program. See the module docs
/// for what it normalizes (input names, surface syntax) and what it
/// distinguishes (everything semantic, including input types and output
/// names).
pub fn plan_hash(program: &CompiledProgram) -> u64 {
    // Positional aliases for never-reassigned inputs.
    let mut rename: HashMap<&str, String> = HashMap::new();
    let mut f = WordHash::new();
    f.u64(program.inputs.len() as u64);
    for (idx, (name, ty)) in program.inputs.iter().enumerate() {
        if !writes(&program.stmts, name) {
            rename.insert(name.as_str(), format!("in${idx}"));
        }
        // The declared type is part of the plan: hashing the stable Debug
        // rendering keeps this resilient to new Type variants.
        f.str(&format!("{ty:?}"));
    }
    hash_stmts(&mut f, &program.stmts, &rename);
    f.finish()
}

fn hash_stmts(f: &mut WordHash, stmts: &[TStmt], rename: &HashMap<&str, String>) {
    f.u64(stmts.len() as u64);
    for s in stmts {
        match s {
            TStmt::Assign {
                name,
                value,
                collection,
            } => {
                f.byte(1);
                f.str(name);
                f.byte(u8::from(*collection));
                hash_expr(f, value, rename);
            }
            TStmt::While { cond, body } => {
                f.byte(2);
                hash_expr(f, cond, rename);
                hash_stmts(f, body, rename);
            }
        }
    }
}

fn hash_var(f: &mut WordHash, name: &str, rename: &HashMap<&str, String>) {
    match rename.get(name) {
        Some(alias) => f.str(alias),
        None => f.str(name),
    }
}

fn hash_pattern(f: &mut WordHash, p: &Pattern) {
    match p {
        Pattern::Var(v) => {
            f.byte(1);
            f.str(v);
        }
        Pattern::Tuple(ps) => {
            f.byte(2);
            f.u64(ps.len() as u64);
            for p in ps {
                hash_pattern(f, p);
            }
        }
        Pattern::Wild => f.byte(3),
    }
}

fn hash_comp(f: &mut WordHash, c: &Comprehension, rename: &HashMap<&str, String>) {
    // Pattern variables never collide with input names (inputs that a
    // qualifier shadows would be surface-illegal), so one rename map
    // serves the whole tree.
    f.u64(c.quals.len() as u64);
    for q in &c.quals {
        match q {
            Qual::Gen(p, e) => {
                f.byte(1);
                hash_pattern(f, p);
                hash_expr(f, e, rename);
            }
            Qual::Let(p, e) => {
                f.byte(2);
                hash_pattern(f, p);
                hash_expr(f, e, rename);
            }
            Qual::Pred(e) => {
                f.byte(3);
                hash_expr(f, e, rename);
            }
            Qual::GroupBy(p, e) => {
                f.byte(4);
                hash_pattern(f, p);
                hash_expr(f, e, rename);
            }
        }
    }
    hash_expr(f, &c.head, rename);
}

fn hash_expr(f: &mut WordHash, e: &CExpr, rename: &HashMap<&str, String>) {
    match e {
        CExpr::Var(v) => {
            f.byte(1);
            hash_var(f, v, rename);
        }
        CExpr::Const(v) => {
            f.byte(2);
            stream_value(f, v);
        }
        CExpr::Bin(op, a, b) => {
            f.byte(3);
            f.str(&format!("{op:?}"));
            hash_expr(f, a, rename);
            hash_expr(f, b, rename);
        }
        CExpr::Un(op, a) => {
            f.byte(4);
            f.str(&format!("{op:?}"));
            hash_expr(f, a, rename);
        }
        CExpr::Call(func, args) => {
            f.byte(5);
            f.str(&format!("{func:?}"));
            f.u64(args.len() as u64);
            for a in args {
                hash_expr(f, a, rename);
            }
        }
        CExpr::Tuple(fs) => {
            f.byte(6);
            f.u64(fs.len() as u64);
            for x in fs {
                hash_expr(f, x, rename);
            }
        }
        CExpr::Record(fs) => {
            f.byte(7);
            f.u64(fs.len() as u64);
            for (n, x) in fs {
                f.str(n);
                hash_expr(f, x, rename);
            }
        }
        CExpr::Proj(x, field) => {
            f.byte(8);
            hash_expr(f, x, rename);
            f.str(field);
        }
        CExpr::Comp(c) => {
            f.byte(9);
            hash_comp(f, c, rename);
        }
        CExpr::Agg(op, x) => {
            f.byte(10);
            f.str(&format!("{op:?}"));
            hash_expr(f, x, rename);
        }
        CExpr::Merge {
            left,
            right,
            combine,
        } => {
            f.byte(11);
            match combine {
                None => f.byte(0),
                Some(op) => {
                    f.byte(1);
                    f.str(&format!("{op:?}"));
                }
            }
            hash_expr(f, left, rename);
            hash_expr(f, right, rename);
        }
        CExpr::Range(lo, hi) => {
            f.byte(12);
            hash_expr(f, lo, rename);
            hash_expr(f, hi, rename);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diablo_core::compile;

    fn hash_of(src: &str) -> u64 {
        plan_hash(&compile(src).expect("compiles"))
    }

    const SUM: &str = r#"
        input V: vector[double];
        var sum: double = 0.0;
        for v in V do sum += v;
    "#;

    #[test]
    fn identical_text_hashes_equal() {
        assert_eq!(hash_of(SUM), hash_of(SUM));
    }

    #[test]
    fn whitespace_and_comments_vanish() {
        let noisy = r#"
            // summation over a vector
            input V: vector[double];

            var sum: double /* running total */ = 0.0;
            for v in V
                do sum += v;
        "#;
        assert_eq!(hash_of(SUM), hash_of(noisy));
    }

    #[test]
    fn renamed_input_hashes_equal() {
        let renamed = r#"
            input Readings: vector[double];
            var sum: double = 0.0;
            for v in Readings do sum += v;
        "#;
        assert_eq!(hash_of(SUM), hash_of(renamed));
    }

    #[test]
    fn renamed_output_hashes_differently() {
        let other = r#"
            input V: vector[double];
            var total: double = 0.0;
            for v in V do total += v;
        "#;
        assert_ne!(hash_of(SUM), hash_of(other), "outputs are named results");
    }

    #[test]
    fn different_constants_hash_differently() {
        let shifted = r#"
            input V: vector[double];
            var sum: double = 1.0;
            for v in V do sum += v;
        "#;
        assert_ne!(hash_of(SUM), hash_of(shifted));
    }

    #[test]
    fn different_input_type_hashes_differently() {
        let longs = r#"
            input V: vector[long];
            var sum: long = 0;
            for v in V do sum += v;
        "#;
        assert_ne!(hash_of(SUM), hash_of(longs));
    }

    #[test]
    fn value_hash_separates_double_bits() {
        assert_ne!(
            value_hash(&Value::Double(0.0)),
            value_hash(&Value::Double(-0.0))
        );
        assert_eq!(value_hash(&Value::Long(1)), value_hash(&Value::Long(1)));
        assert_ne!(value_hash(&Value::Long(1)), value_hash(&Value::Double(1.0)));
    }

    #[test]
    fn rows_hash_is_order_sensitive() {
        let a = vec![Value::Long(1), Value::Long(2)];
        let b = vec![Value::Long(2), Value::Long(1)];
        assert_ne!(rows_hash(&a), rows_hash(&b));
        assert_eq!(rows_hash(&a), rows_hash(&a.clone()));
    }

    #[test]
    fn bit_flips_of_a_section_never_collide() {
        // Every single-bit flip, and every flip of a word's top bit paired
        // with each bit of the next word — the pair a multiply-rotate step
        // cannot tell apart.
        let rows: Vec<Value> = (0..16)
            .map(|i| Value::pair(Value::Long(i), Value::str("x".repeat(i as usize))))
            .collect();
        let bytes = {
            let mut h = Vec::new();
            h.extend_from_slice(&(rows.len() as u32).to_le_bytes());
            for r in &rows {
                diablo_dataflow::encode_value(r, &mut h).unwrap();
            }
            h
        };
        assert_eq!(bytes_hash(&bytes), rows_hash(&rows));
        let mut seen = std::collections::HashSet::from([bytes_hash(&bytes)]);
        let flipped = |flips: &[(usize, u32)]| {
            let mut m = bytes.clone();
            flips.iter().for_each(|&(at, bit)| m[at] ^= 1 << bit);
            bytes_hash(&m)
        };
        for at in 0..bytes.len() {
            for bit in 0..8 {
                assert!(seen.insert(flipped(&[(at, bit)])), "bit {bit} of byte {at}");
            }
        }
        for top in (7..bytes.len() - 8).step_by(8) {
            for bit in 0..64 {
                let next = (top + 1 + bit / 8, bit as u32 % 8);
                assert!(
                    seen.insert(flipped(&[(top, 7), next])),
                    "byte {top}, bit {bit}"
                );
            }
        }
    }

    #[test]
    fn fold_chains_are_order_sensitive() {
        assert_ne!(fold(fold(1, 2), 3), fold(fold(1, 3), 2));
    }
}
