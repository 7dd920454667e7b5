//! The target code of the translation (§3.8).
//!
//! ```text
//! c ::= v := e          assignment (scalar or whole-array, in bulk)
//!     | while(e, c)     sequential loop
//!     | [c1, ..., cn]   code block
//! ```
//!
//! An assignment to a *scalar* variable receives a bag expression of type
//! `{t}`: the driver extracts the single element (an empty bag leaves the
//! variable unchanged — the sparse "missing element" semantics). An
//! assignment to an *array* variable replaces the whole array with a new
//! one, usually a merge `V ⊳ x`.

use diablo_comp::ir::NameGen;
use diablo_comp::CExpr;
use diablo_lang::Type;

/// One statement of the target language.
#[derive(Debug, Clone, PartialEq)]
pub enum TStmt {
    /// `name := value` — `value` is a comprehension-calculus expression.
    Assign {
        /// Destination variable.
        name: String,
        /// Bag-valued expression for scalars; array-valued for collections.
        value: CExpr,
        /// True when `name` holds a collection (executed on the engine);
        /// false for scalars (the bag's single element is extracted).
        collection: bool,
    },
    /// `while(cond, body)` — `cond` is a bag expression whose single
    /// element must be a boolean.
    While {
        /// Loop condition (lifted to a bag, per E⟦·⟧).
        cond: CExpr,
        /// Loop body.
        body: Vec<TStmt>,
    },
}

/// A compiled program: target statements plus the metadata the driver
/// needs to bind inputs and read results.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Target statements in execution order.
    pub stmts: Vec<TStmt>,
    /// Declared inputs `(name, type)`.
    pub inputs: Vec<(String, Type)>,
    /// The type of every program variable.
    pub var_types: std::collections::HashMap<String, Type>,
    /// The fresh-name supply, continuing where translation stopped: a later
    /// phase that needs new names draws them here and cannot collide.
    pub names: NameGen,
}

/// Number of pre-order slots a statement list occupies (an `Assign` takes
/// one, a `While` takes one plus its body's). Drivers that execute
/// statements against [`lazy_assignments`] use this to keep loop bodies on
/// stable slot indexes across iterations.
pub fn preorder_len(stmts: &[TStmt]) -> usize {
    stmts
        .iter()
        .map(|s| match s {
            TStmt::Assign { .. } => 1,
            TStmt::While { body, .. } => 1 + preorder_len(body),
        })
        .sum()
}

/// Number of times the statement reads `name`, with multiplicity (a
/// statement mentioning the variable twice derives from it twice).
fn stmt_occurrences(s: &TStmt, name: &str) -> usize {
    match s {
        TStmt::Assign { value, .. } => value.free_occurrences(name),
        TStmt::While { cond, body } => {
            cond.free_occurrences(name)
                + body
                    .iter()
                    .map(|b| stmt_occurrences(b, name))
                    .sum::<usize>()
        }
    }
}

/// Readers of `name` in `stmts` up to and including the first assignment
/// to it — later reads see the new definition — and whether there is one.
/// Readers count with multiplicity (a statement mentioning the variable
/// twice derives two plans from it), and a `while` that mentions it counts
/// at least two (it re-reads every iteration). Only an assignment is an
/// overwrite: a `while` that assigns the variable may run no iteration.
fn readers_until_overwrite(stmts: &[TStmt], name: &str) -> (usize, bool) {
    let mut readers = 0usize;
    for s in stmts {
        readers += match (s, stmt_occurrences(s, name)) {
            (_, 0) => 0,
            (TStmt::While { .. }, occ) => occ.max(2),
            (TStmt::Assign { .. }, occ) => occ,
        };
        if matches!(s, TStmt::Assign { name: n, .. } if n == name) {
            return (readers, true);
        }
    }
    (readers, false)
}

/// Cross-statement fusion eligibility (the dependency analysis behind the
/// lazy `Session`): for every statement, in pre-order, whether a
/// collection assignment may stay **lazy** — keep its plan pending so it
/// fuses into the stage of whatever consumes it, instead of materializing
/// at the assignment.
///
/// An assignment is eligible when its result has **at most one reader**
/// before it is overwritten. With a single
/// reader, deferring costs nothing and the producer's pending chain fuses
/// across the statement boundary; with several each would re-run the
/// pending chain (plans are captured per derivation, the materialization
/// cache only helps after a force), so those materialize eagerly.
///
/// An assignment in the body of a top-level `while` is eligible when both
/// hold, so a step-local array (PageRank's `Q`, K-Means' `closest` and
/// `avg`) fuses into its reader every iteration:
///
/// - it has at most one reader later in the same iteration, counting, when
///   the rest of the body does not overwrite it, the statements after the
///   loop (the loop may end here);
/// - it is overwritten before any read in the next iteration: the scan
///   wraps around the body, and the loop condition, evaluated before the
///   next iteration, must not read it either.
///
/// A carried array (read by the next iteration before it is reassigned)
/// stays eager, and so does every statement of a nested `while` body.
pub fn lazy_assignments(stmts: &[TStmt]) -> Vec<bool> {
    fn mark_ineligible(stmts: &[TStmt], out: &mut Vec<bool>) {
        for s in stmts {
            out.push(false);
            if let TStmt::While { body, .. } = s {
                mark_ineligible(body, out);
            }
        }
    }
    let mut out = Vec::with_capacity(preorder_len(stmts));
    for (i, s) in stmts.iter().enumerate() {
        let after = &stmts[i + 1..];
        match s {
            TStmt::Assign { name, .. } => out.push(readers_until_overwrite(after, name).0 <= 1),
            TStmt::While { cond, body } => {
                out.push(false);
                for (b, s) in body.iter().enumerate() {
                    match s {
                        TStmt::Assign { name, .. } => {
                            out.push(body_assignment_is_lazy(cond, body, b, name, after))
                        }
                        TStmt::While { body, .. } => {
                            out.push(false);
                            mark_ineligible(body, &mut out);
                        }
                    }
                }
            }
        }
    }
    out
}

/// The loop-body rule of [`lazy_assignments`] for `body[b]`, an assignment
/// to `name` in `while (cond) body`, followed by `after`.
fn body_assignment_is_lazy(
    cond: &CExpr,
    body: &[TStmt],
    b: usize,
    name: &str,
    after: &[TStmt],
) -> bool {
    let (mut readers, overwritten) = readers_until_overwrite(&body[b + 1..], name);
    if !overwritten {
        // The next iteration reads it first unless the body overwrites it
        // before any read; `body[b]` itself assigns it, so the scan ends.
        let (carried, _) = readers_until_overwrite(&body[..=b], name);
        if carried > 0 || cond.free_occurrences(name) > 0 {
            return false;
        }
        readers += readers_until_overwrite(after, name).0;
    }
    readers <= 1
}

impl CompiledProgram {
    /// True if the named variable holds a collection.
    pub fn is_collection(&self, name: &str) -> bool {
        self.var_types.get(name).is_some_and(Type::is_collection)
    }

    /// Names of all collection-typed variables.
    pub fn collection_names(&self) -> std::collections::HashSet<String> {
        self.var_types
            .iter()
            .filter(|(_, t)| t.is_collection())
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// Total number of target statements (recursing into while bodies).
    pub fn statement_count(&self) -> usize {
        fn count(stmts: &[TStmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    TStmt::Assign { .. } => 1,
                    TStmt::While { body, .. } => 1 + count(body),
                })
                .sum()
        }
        count(&self.stmts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program(src: &str) -> CompiledProgram {
        crate::compile(src).expect("compiles")
    }

    #[test]
    fn single_consumer_pipeline_is_lazy() {
        // X feeds exactly one later statement; both final assigns are
        // terminal (zero consumers) and stay lazy too.
        let p = program(
            "input V: vector[long];
             var X: vector[long] = vector();
             var Y: vector[long] = vector();
             for i = 0, 9 do X[i] := V[i] * 2;
             for i = 0, 9 do Y[i] := X[i] + 1;",
        );
        let lazies = lazy_assignments(&p.stmts);
        assert_eq!(lazies.len(), p.statement_count());
        // Statements: X := {}, Y := {}, X := X ⊳ …, Y := Y ⊳ …. Each
        // init is consumed once (by its own reassignment, which also ends
        // the scan), X feeds only Y, and both reassigned arrays are
        // terminal — all four may stay lazy.
        assert_eq!(lazies, vec![true, true, true, true]);
    }

    #[test]
    fn multi_consumer_producer_is_eager() {
        let p = program(
            "input V: vector[long];
             var X: vector[long] = vector();
             var Y: vector[long] = vector();
             var Z: vector[long] = vector();
             for i = 0, 9 do X[i] := V[i] * 2;
             for i = 0, 9 do Y[i] := X[i] + 1;
             for i = 0, 9 do Z[i] := X[i] + 2;",
        );
        let lazies = lazy_assignments(&p.stmts);
        // The X reassignment (slot 3) feeds both Y and Z: eager.
        assert!(!lazies[3], "{lazies:?}");
        // The terminal Y and Z assignments have no consumers: lazy.
        assert!(lazies[4] && lazies[5], "{lazies:?}");
    }

    #[test]
    fn double_read_within_one_statement_is_eager() {
        // Y reads X twice (a stencil shape): each read derives its own
        // plan from X, so X must materialize eagerly.
        let p = program(
            "input V: vector[long];
             var X: vector[long] = vector();
             var Y: vector[long] = vector();
             for i = 0, 9 do X[i] := V[i];
             for i = 1, 8 do Y[i] := X[i-1] + X[i+1];",
        );
        let lazies = lazy_assignments(&p.stmts);
        assert!(!lazies[2], "X is read twice by Y: {lazies:?}");
        assert!(lazies[3], "Y itself is terminal: {lazies:?}");
    }

    #[test]
    fn while_bodies_and_while_read_variables_are_eager() {
        let p = program(
            "var k: long = 0;
             var total: long = 0;
             while (k < 5) { k += 1; total += k; };",
        );
        let lazies = lazy_assignments(&p.stmts);
        assert_eq!(lazies.len(), p.statement_count());
        // k := 0 is read by the while: eager. The while slot, and both body
        // statements, which the next iteration reads before overwriting:
        // eager.
        assert!(!lazies[0]);
        let while_slot = 2; // k, total, while, body…
        for &l in &lazies[while_slot..] {
            assert!(!l, "{lazies:?}");
        }
    }

    /// The pre-order slots of `names`' assignments in `stmts`, in order.
    fn slots_of(stmts: &[TStmt], name: &str) -> Vec<usize> {
        fn walk(stmts: &[TStmt], name: &str, slot: &mut usize, out: &mut Vec<usize>) {
            for s in stmts {
                match s {
                    TStmt::Assign { name: n, .. } if n == name => out.push(*slot),
                    TStmt::Assign { .. } => {}
                    TStmt::While { body, .. } => {
                        *slot += 1;
                        walk(body, name, slot, out);
                        continue;
                    }
                }
                *slot += 1;
            }
        }
        let mut out = Vec::new();
        walk(stmts, name, &mut 0, &mut out);
        out
    }

    #[test]
    fn step_local_arrays_of_the_iterative_programs_are_lazy() {
        use diablo_workloads::programs::{KMEANS, PAGERANK};
        // PageRank's body: Q := {}, k := k + 1, Q := Q ⊳ {E ⋈ P},
        // P := P ⊳ {fill}, P := P ⊳[+] {Q ⋈ C}.
        let p = program(PAGERANK);
        let lazies = lazy_assignments(&p.stmts);
        let q = slots_of(&p.stmts, "Q");
        let pr = slots_of(&p.stmts, "P");
        assert_eq!(
            (q.as_slice(), pr.as_slice()),
            (&[8, 10][..], &[0, 4, 11, 12][..])
        );
        assert!(lazies[10], "Q, read once by the rank update: {lazies:?}");
        assert!(
            lazies[11],
            "the step-local P, read once by the update: {lazies:?}"
        );
        assert!(
            !lazies[12],
            "the carried P, which the next Q reads: {lazies:?}"
        );
        assert!(!lazies[4], "P's start, read in the loop: {lazies:?}");
        // K-Means' body before `splice_arrays`: steps := steps + 1,
        // closest := {}, avg := {}, closest := closest ⊳ {fill},
        // closest := closest ⊳[^] {P × C}, avg := avg ⊳[+] {P ⋈ closest},
        // C := C ⊳ {avg}.
        let typed = diablo_lang::typecheck(diablo_lang::parse(KMEANS).unwrap()).unwrap();
        let p = crate::optimize_program(crate::translate_raw(&typed).unwrap()).0;
        let lazies = lazy_assignments(&p.stmts);
        let closest = slots_of(&p.stmts, "closest");
        assert_eq!(closest, [5, 7, 8]);
        assert_eq!(slots_of(&p.stmts, "avg"), [6, 9]);
        assert_eq!(slots_of(&p.stmts, "C"), [0, 2, 10]);
        for (slot, what) in [(7, "closest's fill"), (8, "closest"), (9, "avg")] {
            assert!(lazies[slot], "{what}: {lazies:?}");
        }
        assert!(!lazies[10], "the carried centroids: {lazies:?}");
        // Spliced, `closest` is gone: steps := steps + 1, avg := {},
        // avg := avg ⊳[+] {P with its fold over C}, C := C ⊳ {avg}.
        let p = program(KMEANS);
        let lazies = lazy_assignments(&p.stmts);
        assert!(slots_of(&p.stmts, "closest").is_empty());
        assert_eq!(slots_of(&p.stmts, "avg"), [5, 6]);
        assert_eq!(slots_of(&p.stmts, "C"), [0, 2, 7]);
        assert!(lazies[6], "avg: {lazies:?}");
        assert!(!lazies[7], "the carried centroids: {lazies:?}");
    }

    /// `name := (reads…)`, a collection assignment reading `reads`.
    fn assign(name: &str, reads: &[&str]) -> TStmt {
        TStmt::Assign {
            name: name.into(),
            value: CExpr::Tuple(reads.iter().map(|v| CExpr::var(*v)).collect()),
            collection: true,
        }
    }

    /// `while ((reads…)) body`.
    fn while_(reads: &[&str], body: Vec<TStmt>) -> TStmt {
        TStmt::While {
            cond: CExpr::Tuple(reads.iter().map(|v| CExpr::var(*v)).collect()),
            body,
        }
    }

    #[test]
    fn loop_body_eligibility_wraps_around_the_body() {
        // Slot 0 is the while, its body from slot 1 on.
        let lazies = |stmts: Vec<TStmt>| lazy_assignments(&stmts);
        // A step-local X, read once in the iteration and overwritten first
        // thing in the next: lazy.
        assert_eq!(
            lazies(vec![while_(
                &["k"],
                vec![assign("X", &["V"]), assign("Y", &["X", "Y"])]
            )]),
            [false, true, false]
        );
        // A carried array: X reads itself.
        assert_eq!(
            lazies(vec![while_(&["k"], vec![assign("X", &["X", "V"])])]),
            [false, false]
        );
        // Read in the next iteration before it is overwritten: Y reads X
        // ahead of X's assignment. Y itself is overwritten before any read.
        assert_eq!(
            lazies(vec![while_(
                &["k"],
                vec![assign("Y", &["X"]), assign("X", &["V"])]
            )]),
            [false, true, false]
        );
        // Read by the loop condition, which runs before the next iteration.
        assert_eq!(
            lazies(vec![while_(
                &["X"],
                vec![assign("X", &["V"]), assign("Y", &["X", "Y"])]
            )]),
            [false, false, false]
        );
        // Read after the loop too: two readers. Read only after it: one.
        assert_eq!(
            lazies(vec![
                while_(&["k"], vec![assign("X", &["V"]), assign("Y", &["X", "Y"])]),
                assign("Z", &["X"]),
            ]),
            [false, false, false, true]
        );
        assert_eq!(
            lazies(vec![
                while_(&["k"], vec![assign("X", &["V"])]),
                assign("Z", &["X"])
            ]),
            [false, true, true]
        );
        // Read twice in the iteration.
        assert_eq!(
            lazies(vec![while_(
                &["k"],
                vec![assign("X", &["V"]), assign("Y", &["X", "X", "Y"])]
            )]),
            [false, false, false]
        );
        // A nested while's body stays eager, and a nested while that only
        // may assign X does not overwrite it: it may run no iteration, and
        // then Y and Z both read the first X.
        assert_eq!(
            lazies(vec![while_(
                &["k"],
                vec![while_(
                    &["j"],
                    vec![assign("X", &["V"]), assign("Y", &["X", "Y"])]
                )]
            )]),
            [false, false, false, false]
        );
        assert_eq!(
            lazies(vec![while_(
                &["k"],
                vec![
                    assign("X", &["V"]),
                    while_(&["j"], vec![assign("X", &["V"])]),
                    assign("Y", &["X", "Y"]),
                    assign("Z", &["X", "Z"]),
                ]
            )]),
            [false, false, false, false, false, false]
        );
    }

    #[test]
    fn preorder_len_matches_statement_count() {
        let p = program(
            "var k: long = 0;
             var t: long = 0;
             while (k < 3) { k += 1; t += k; };",
        );
        assert_eq!(preorder_len(&p.stmts), p.statement_count());
    }
}
