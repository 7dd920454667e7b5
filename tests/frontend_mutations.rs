//! The front end never panics on a mutated program: seeded token
//! deletions, duplications and replacements — extreme literals, stray
//! brackets, keywords and operators among them — applied to the 18 Table 1
//! programs go through `compile_multi`, and every program it accepts
//! through `lint_program` and `lazy_assignments`. A rejection is a
//! diagnostic; a panic fails the test and prints the program that caused
//! it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use diablo_diag::Diagnostics;

/// Mutated programs per Table 1 program.
const CASES_PER_PROGRAM: u64 = 300;

/// What a replacement may put in a token's place.
const REPLACEMENTS: &[&str] = &[
    "9223372036854775807",
    "-9223372036854775808",
    "9223372036854775808",
    "99999999999999999999",
    "0",
    "-1",
    "1e308",
    "1e999",
    "0.0",
    "\"\"",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    "<|",
    "|>",
    ",",
    ";",
    ".",
    "._1",
    "while",
    "for",
    "if",
    "else",
    "do",
    "in",
    "var",
    "input",
    ":=",
    "+=",
    "^=",
    "==",
    "/",
    "%",
    "&&",
    "!",
    "-",
    "vector()",
    "matrix[double]",
];

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
        (self.next() % n as u64) as usize
    }
}

/// Splits a program into tokens — words, strings, one- or two-character
/// operators — and the whitespace between them, which stays in place so
/// line comments keep their lines.
fn tokens(src: &str) -> Vec<String> {
    const PAIRS: &[&str] = &[
        ":=", "+=", "*=", "^=", "==", "!=", "<=", ">=", "&&", "||", "<|", "|>", "//", "/*", "*/",
    ];
    let chars: Vec<char> = src.chars().collect();
    let word = |c: char| c.is_alphanumeric() || "_.'$".contains(c);
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let start = i;
        let c = chars[i];
        if c.is_whitespace() {
            while i < chars.len() && chars[i].is_whitespace() {
                i += 1;
            }
        } else if word(c) {
            while i < chars.len() && word(chars[i]) {
                i += 1;
            }
        } else if c == '"' {
            i += 1;
            while i < chars.len() && chars[i] != '"' {
                i += 1;
            }
            i = (i + 1).min(chars.len());
        } else {
            let two: String = chars[i..chars.len().min(i + 2)].iter().collect();
            i += if PAIRS.contains(&two.as_str()) { 2 } else { 1 };
        }
        out.push(chars[start..i].iter().collect());
    }
    out
}

/// One to three random edits of the program's non-blank tokens.
fn mutate(toks: &[String], rng: &mut Rng) -> String {
    let mut toks = toks.to_vec();
    for _ in 0..1 + rng.below(3) {
        let solid: Vec<usize> = (0..toks.len())
            .filter(|&i| !toks[i].trim().is_empty())
            .collect();
        let Some(&at) = solid.get(rng.below(solid.len().max(1))) else {
            break;
        };
        match rng.below(4) {
            0 => {
                toks.remove(at);
            }
            1 => {
                let t = format!(" {}", toks[at]);
                toks.insert(at + 1, t);
            }
            2 => toks[at] = REPLACEMENTS[rng.below(REPLACEMENTS.len())].to_string(),
            // Another token of the same program: a name out of scope, a
            // keyword in an expression, an operator out of place.
            _ => toks[at] = toks[solid[rng.below(solid.len())]].clone(),
        }
    }
    toks.concat()
}

/// Runs the front end over `src`: a panic comes back as an error.
fn front_end(src: &str) -> Result<bool, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut diags = Diagnostics::new();
        let Some((tp, compiled)) = diablo_core::compile_multi(src, &mut diags) else {
            assert!(diags.error_count() > 0, "rejected without a diagnostic");
            return false;
        };
        let _ = diablo_core::lint_program(&tp, &compiled);
        let lazies = diablo_core::lazy_assignments(&compiled.stmts);
        assert_eq!(lazies.len(), compiled.statement_count());
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

#[test]
fn mutated_table1_programs_never_panic_the_front_end() {
    let mut accepted = 0usize;
    let mut cases = 0usize;
    for (p, (name, src)) in diablo_workloads::programs::all_programs()
        .into_iter()
        .enumerate()
    {
        assert_eq!(front_end(src), Ok(true), "{name} itself compiles");
        let toks = tokens(src);
        assert_eq!(toks.concat(), src, "{name}: tokens cover the source");
        for case in 0..CASES_PER_PROGRAM {
            let mut rng = Rng((p as u64) << 32 | case);
            let mutated = mutate(&toks, &mut rng);
            match front_end(&mutated) {
                Ok(ok) => accepted += usize::from(ok),
                Err(panic) => {
                    panic!("{name}, case {case}: the front end panicked ({panic}) on:\n{mutated}")
                }
            }
            cases += 1;
        }
    }
    // Some edits keep a program valid (a duplicated `;`, a name swapped
    // for another in scope), so the accepting paths run too.
    assert!(accepted > 0, "no mutated program of {cases} was accepted");
}
