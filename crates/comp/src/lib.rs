//! # diablo-comp
//!
//! The monoid comprehension calculus (§3.3) — the target language of the
//! DIABLO translation and the input of the DISC planner.
//!
//! A comprehension `{ e | q1, ..., qn }` has a head expression `e` and
//! qualifiers: generators `p ← e`, let-bindings `let p = e`, boolean
//! conditions, and `group by p : e`. A group-by lifts every pattern variable
//! bound before it (except the group-by key variables) from type `t` to a
//! *bag* of `t`; aggregations `⊕/v` then reduce those bags.
//!
//! The crate provides:
//!
//! * [`ir`] — the IR ([`CExpr`], [`Qual`], [`Pattern`], [`Comprehension`]);
//! * [`eval`](mod@eval) — a direct in-memory evaluator giving the calculus its
//!   reference semantics (used by tests and by the driver for
//!   scalar-only expressions);
//! * [`keys`] — array-key uniqueness (§3.4): when an update's head keys
//!   are distinct by construction, so merging it into an empty array is
//!   the update itself;
//! * [`normalize`](mod@normalize) — Rule (2) unnesting of nested comprehensions,
//!   singleton-generator elimination, let inlining, predicate pushdown;
//! * [`optimize`](mod@optimize) — Rule (16) constant-key group-by elimination, Rule (17)
//!   unique-key group-by elimination, and the loop-iteration elimination of
//!   §3.6 (`range` joins become array traversals guarded by `inRange`);
//! * [`rewrite`] — the one change-driven driver and rule table behind
//!   both: every rule reports whether it fired, and [`RewriteStats`] counts
//!   the fires;
//! * [`pretty`] — a printer matching the paper's notation.

pub mod eval;
pub mod ir;
pub mod keys;
pub mod normalize;
pub mod optimize;
pub mod pretty;
pub mod pushdown;
pub mod rewrite;

pub use eval::{eval, eval_comp, Env};
pub use ir::{CExpr, Comprehension, Pattern, Qual};
pub use keys::KeyProof;
pub use normalize::normalize;
pub use optimize::{optimize, optimize_counted};
pub use pretty::pretty_cexpr;
pub use rewrite::RewriteStats;
