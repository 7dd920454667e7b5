//! The front end never panics on arbitrary text: seeded printable ASCII,
//! arbitrary bytes decoded lossily, bracket nests around the parser's
//! nesting bound, and very long identifiers and literals go through
//! `parse_multi`, and every text it accepts through `compile_multi` and
//! `lint_program`. A rejection is a diagnostic; a panic fails the test and
//! prints the text that caused it (`tests/frontend_mutations.rs` does the
//! same for mutations of the Table 1 programs).
//!
//! The tier-1 test runs a few thousand cases; the ignored one is the
//! seeded long run (`cargo test --release --test frontend_text --
//! --ignored`).

use std::panic::{catch_unwind, AssertUnwindSafe};

use diablo_diag::Diagnostics;
use diablo_lang::parse_multi;

/// splitmix64: a seeded stream, so every case is reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Words and operators of the language, so random text reaches past the
/// lexer now and then.
const WORDS: &[&str] = &[
    "input", "var", "for", "in", "do", "while", "if", "else", "vector", "matrix", "map", "long",
    "double", "bool", "string", "true", "false", "V", "x", "i", "0", "1", "9", "(", ")", "[", "]",
    "{", "}", "<|", "|>", ":", ";", ",", ".", "_1", ":=", "+=", "^=", "=", "==", "+", "-", "*",
    "/", "%", "<", ">", "&&", "||", "!", "\"", "//", "/*", "*/", " ", "\n",
];

/// Printable ASCII, one character at a time or a word of the language.
fn ascii(rng: &mut Rng) -> String {
    let len = rng.below(160);
    let mut out = String::new();
    for _ in 0..len {
        if rng.below(2) == 0 {
            out.push((b' ' + rng.below(95) as u8) as char);
        } else {
            out.push_str(WORDS[rng.below(WORDS.len())]);
        }
    }
    out
}

/// Arbitrary bytes, decoded lossily.
fn bytes(rng: &mut Rng) -> String {
    let len = rng.below(200);
    let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A nest of one bracket kind `depth` levels deep around a literal, in an
/// expression or a type, closed or left open.
fn nest(rng: &mut Rng) -> String {
    let depth = 56 + rng.below(16);
    let closed = rng.below(4) != 0;
    let (open, close, inner, wrap): (&str, &str, &str, (&str, &str)) = match rng.below(5) {
        0 => ("(", ")", "1", ("var x: long = ", ";")),
        1 => ("-(", ")", "2.5", ("var x: double = ", ";")),
        2 => ("vector[", "]", "long", ("input V: ", ";")),
        3 => ("(", ", 1)", "0", ("var t: long = ", ";")),
        _ => ("if (true) {", "};", "x := 1;", ("var x: long = 0; ", "")),
    };
    let mut out = String::from(wrap.0);
    out.push_str(&open.repeat(depth));
    out.push_str(inner);
    if closed {
        out.push_str(&close.repeat(depth));
    }
    out.push_str(wrap.1);
    out
}

/// A program around one very long identifier or literal.
fn long_token(rng: &mut Rng) -> String {
    let n = 1_000 + rng.below(60_000);
    match rng.below(5) {
        0 => format!("var {}: long = 0;", "x".repeat(n)),
        1 => format!("var x: long = {};", "9".repeat(n)),
        2 => format!(
            "var x: double = 0.{}e{};",
            "5".repeat(n),
            "9".repeat(n % 40)
        ),
        3 => format!("var s: string = \"{}\";", "a".repeat(n)),
        _ => format!(
            "input V: vector[long]; var s: long = 0; for v in V do s += v{};",
            "+1".repeat(n / 2)
        ),
    }
}

/// Runs the front end over `src`: whether it compiled, or a panic as an
/// error.
fn front_end(src: &str) -> Result<bool, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut diags = Diagnostics::new();
        if parse_multi(src, &mut diags).is_none() {
            assert!(diags.error_count() > 0, "rejected without a diagnostic");
            return false;
        }
        let mut diags = Diagnostics::new();
        let Some((tp, compiled)) = diablo_core::compile_multi(src, &mut diags) else {
            assert!(diags.error_count() > 0, "rejected without a diagnostic");
            return false;
        };
        let _ = diablo_core::lint_program(&tp, &compiled);
        true
    }))
    .map_err(|panic| {
        panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

/// Runs `cases` seeded texts of every kind from `seed` on; returns how
/// many compiled.
fn never_panics(seed: u64, cases: u64) -> usize {
    type Make = fn(&mut Rng) -> String;
    let kinds: [(&str, Make); 4] = [
        ("ascii", ascii),
        ("bytes", bytes),
        ("nest", nest),
        ("long token", long_token),
    ];
    let mut compiled = 0;
    for case in seed..seed + cases {
        let (kind, make) = kinds[(case % 4) as usize];
        // Long tokens are slow to make; one in eight of their turns.
        if kind == "long token" && case % 32 != 3 {
            continue;
        }
        let text = make(&mut Rng(case));
        match front_end(&text) {
            Ok(ok) => compiled += usize::from(ok),
            Err(panic) => {
                let shown: String = text.chars().take(400).collect();
                panic!("{kind} case {case}: the front end panicked ({panic}) on:\n{shown}");
            }
        }
    }
    compiled
}

#[test]
fn arbitrary_text_never_panics_the_front_end() {
    // Closed nests and long tokens are programs, so compiling and linting
    // run too.
    assert!(never_panics(0, 4_000) > 0);
}

#[test]
#[ignore = "the seeded long run"]
fn arbitrary_text_never_panics_the_front_end_long_run() {
    assert!(never_panics(1 << 32, 400_000) > 0);
}
