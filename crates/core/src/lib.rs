//! # diablo-core
//!
//! The DIABLO translator — the paper's primary contribution. It turns an
//! imperative array-based loop program into target code over monoid
//! comprehensions that a DISC engine can run in bulk:
//!
//! 1. [`analysis`] checks the parallelization restrictions of §3.2
//!    (Definition 3.1) — affine destinations and the absence of
//!    loop-carried dependences beyond the two sanctioned exceptions;
//! 2. [`translate`](mod@translate) applies the rules of Fig. 2: for-loops dissolve into
//!    comprehension generators, incremental updates `d ⊕= e` become
//!    group-bys over the destination index with `⊕`-aggregations, and
//!    plain updates become bulk array merges `V ⊳ x`;
//! 3. the comprehension optimizer (crate `diablo-comp`) then unnests,
//!    eliminates redundant group-bys (Rules (16)/(17)) and turns
//!    range-joins into array traversals (§3.6).
//!
//! The one-call entry point is [`compile`].

pub mod analysis;
pub mod lint;
pub mod target;
pub mod translate;

pub use analysis::{check_restrictions, check_restrictions_multi};
pub use lint::lint_program;
pub use target::{lazy_assignments, preorder_len, CompiledProgram, TStmt};
pub use translate::{optimize_program, translate, translate_raw};

use diablo_diag::{codes, Diagnostics};
use diablo_lang::{parse, parse_multi, typecheck, typecheck_multi, LangError, TypedProgram};

/// Compiles loop-based source text to target code: parse → type check →
/// restriction check → translate → optimize.
///
/// # Errors
///
/// Returns the first front-end error: a syntax error, a type error, or a
/// violation of the Definition 3.1 restrictions (with the paper-style
/// explanation of which restriction failed).
///
/// # Example
///
/// ```
/// let compiled = diablo_core::compile(
///     "input V: vector[double];
///      var sum: double = 0.0;
///      for v in V do sum += v;",
/// )
/// .unwrap();
/// assert_eq!(compiled.stmts.len(), 2);
/// ```
pub fn compile(src: &str) -> Result<CompiledProgram, LangError> {
    let program = parse(src)?;
    let tp = typecheck(program)?;
    check_restrictions(&tp)?;
    translate(&tp)
}

/// Runs the whole front end, accumulating *every* error (syntax, type, and
/// §3.2 restriction violations) into `diags` instead of stopping at the
/// first. Later phases only run when the earlier ones succeeded: type
/// errors are only reported for programs that parse, and restriction
/// violations only for programs that type check.
///
/// Returns the typed program and its compiled form when the program is
/// clean (warnings may still have been emitted by callers).
pub fn compile_multi(
    src: &str,
    diags: &mut Diagnostics,
) -> Option<(TypedProgram, CompiledProgram)> {
    let program = parse_multi(src, diags)?;
    let tp = typecheck_multi(program, diags)?;
    let before = diags.error_count();
    check_restrictions_multi(&tp, diags);
    if diags.error_count() > before {
        return None;
    }
    match translate(&tp) {
        Ok(compiled) => Some((tp, compiled)),
        Err(e) => {
            diags.emit(e.into_diagnostic(codes::TYPE));
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_rejects_bad_programs_with_context() {
        let err = compile(
            "input V: vector[double];
             input n: long;
             for i = 1, n-2 do V[i] := (V[i-1] + V[i+1]) / 2.0;",
        )
        .unwrap_err();
        assert!(err.message.contains("dependence"), "{err}");
    }

    #[test]
    fn compile_accepts_the_intro_example() {
        let compiled = compile(
            "input A: vector[<|K: long, V: double|>];
             var C: vector[double] = vector();
             for i = 0, 9 do C[A[i].K] += A[i].V;",
        )
        .unwrap();
        assert!(compiled.is_collection("C"));
        assert!(!compiled.is_collection("i"));
        assert_eq!(compiled.inputs.len(), 1);
    }
}
