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

/// True when the statement (re)assigns `name` anywhere.
fn stmt_writes(s: &TStmt, name: &str) -> bool {
    match s {
        TStmt::Assign { name: n, .. } => n == name,
        TStmt::While { body, .. } => body.iter().any(|b| stmt_writes(b, name)),
    }
}

/// Cross-statement fusion eligibility (the dependency analysis behind the
/// lazy `Session`): for every statement, in pre-order, whether a
/// collection assignment may stay **lazy** — keep its plan pending so it
/// fuses into the stage of whatever consumes it, instead of materializing
/// at the assignment.
///
/// An assignment is eligible when its result is read **at most once**
/// downstream before being reassigned (occurrences count with
/// multiplicity: one statement mentioning the variable twice derives two
/// plans from it). With a single consumer,
/// deferring costs nothing and the producer's pending chain fuses across
/// the statement boundary; with several consumers each would re-run the
/// pending chain (plans are captured per derivation, the materialization
/// cache only helps after a force), so those materialize eagerly. A
/// `while` that mentions the variable counts as many consumers (it re-reads
/// every iteration), and statements inside a `while` body are never
/// eligible (per-iteration materialization keeps plans bounded and loop
/// errors local).
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
        match s {
            TStmt::Assign { name, .. } => {
                let mut consumers = 0usize;
                for later in &stmts[i + 1..] {
                    let occ = stmt_occurrences(later, name);
                    if occ > 0 {
                        consumers += match later {
                            // A while re-reads the variable every iteration.
                            TStmt::While { .. } => occ.max(2),
                            TStmt::Assign { .. } => occ,
                        };
                    }
                    if stmt_writes(later, name) {
                        break; // later uses refer to the new definition
                    }
                }
                out.push(consumers <= 1);
            }
            TStmt::While { body, .. } => {
                out.push(false);
                mark_ineligible(body, &mut out);
            }
        }
    }
    out
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
        // k := 0 is read by the while: eager. Everything in the body and
        // the while slot itself: eager.
        assert!(!lazies[0]);
        let while_slot = 2; // k, total, while, body…
        for &l in &lazies[while_slot..] {
            assert!(!l, "{lazies:?}");
        }
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
