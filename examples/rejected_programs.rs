//! What DIABLO rejects, and how to fix it — the diagnostics tour of §3.2.
//!
//! ```sh
//! cargo run --release --example rejected_programs
//! ```
//!
//! The translator only parallelizes *affine* for-loops (Definition 3.1).
//! This example walks through the paper's rejected programs, shows the
//! diagnostic each produces, and then compiles the paper's suggested
//! rewrite of each. Every verdict is checked: a program the paper rejects
//! must be rejected and every rewrite must compile, or the example exits
//! non-zero.

use diablo::prelude::*;

/// What the paper says of a program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Verdict {
    Accepted,
    Rejected,
}

/// Compiles `source`, prints the verdict, and returns whether it is the
/// `expected` one.
fn show(title: &str, expected: Verdict, source: &str) -> bool {
    println!("--- {title}");
    let got = match compile(source) {
        Ok(p) => {
            println!("    accepted ({} bulk statements)", p.stmts.len());
            Verdict::Accepted
        }
        Err(e) => {
            println!("    rejected: {e}");
            Verdict::Rejected
        }
    };
    if got != expected {
        println!("    WRONG VERDICT: expected {expected:?}, got {got:?}");
    }
    println!();
    got == expected
}

fn main() {
    println!("== programs the paper rejects (§3.2) ==\n");
    let mut wrong = 0;

    // A stencil: V is read and written in the same loop.
    wrong += usize::from(!show(
        "stencil V[i] := (V[i-1] + V[i+1]) / 2",
        Verdict::Rejected,
        r#"
        input V: vector[double];
        input n: long;
        for i = 1, n-2 do
            V[i] := (V[i-1] + V[i+1]) / 2.0;
        "#,
    ));

    // The paper's fix: copy first, then read the copy. (Note the paper
    // points out this computes something *different* from the original
    // sequential recurrence — it uses the previous values of V.)
    wrong += usize::from(!show(
        "two-pass stencil rewrite",
        Verdict::Accepted,
        r#"
        input V: vector[double];
        input n: long;
        var V2: vector[double] = vector();
        for i = 0, n-1 do V2[i] := V[i];
        for i = 1, n-2 do V[i] := (V2[i-1] + V2[i+1]) / 2.0;
        "#,
    ));

    // A scalar temporary inside a loop: n is not affine.
    wrong += usize::from(!show(
        "scalar temporary n := V[i]",
        Verdict::Rejected,
        r#"
        input V: vector[double];
        var n: double = 0.0;
        var W: vector[double] = vector();
        for i = 0, 9 do {
            n := V[i];
            W[i] := n + 1.0;
        };
        "#,
    ));

    // The paper's fix: give the temporary an array dimension.
    wrong += usize::from(!show(
        "vectorized temporary n[i] := V[i]",
        Verdict::Accepted,
        r#"
        input V: vector[double];
        var n: vector[double] = vector();
        var W: vector[double] = vector();
        for i = 0, 9 do {
            n[i] := V[i];
            W[i] := n[i] + 1.0;
        };
        "#,
    ));

    // Exception (b) violated: the increment of V[i] is read at a context
    // whose intersection is not indexes(V[i]).
    wrong += usize::from(!show(
        "increment/read violating exception (b)",
        Verdict::Rejected,
        r#"
        var V: vector[long] = vector();
        var M: matrix[long] = matrix();
        for i = 0, 9 do
            for j = 0, 9 do {
                V[i] += 1;
                M[i, j] := V[i];
            };
        "#,
    ));

    // The same increment/read pattern the paper accepts: the read sits
    // outside the j-loop, so context(s1) ∩ context(s2) = indexes(V[i]).
    wrong += usize::from(!show(
        "increment/read satisfying exception (b)",
        Verdict::Accepted,
        r#"
        var V: vector[long] = vector();
        var W: vector[long] = vector();
        for i = 0, 9 do {
            for j = 0, 9 do V[i] += 1;
            W[i] := V[i];
        };
        "#,
    ));

    // Bubble-sort style element swaps are out of scope entirely (§3.2:
    // "some real-world programs that contain irregular loops ... are
    // rejected").
    wrong += usize::from(!show(
        "bubble-sort inner swap",
        Verdict::Rejected,
        r#"
        input V: vector[long];
        input n: long;
        var t: long = 0;
        for i = 0, n-2 do {
            t := V[i];
            V[i] := V[i+1];
            V[i+1] := t;
        };
        "#,
    ));
    if wrong > 0 {
        eprintln!("{wrong} program(s) got the wrong verdict");
        std::process::exit(1);
    }
}
