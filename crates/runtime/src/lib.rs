//! # diablo-runtime
//!
//! The dynamic value model and array substrate shared by every layer of the
//! DIABLO reproduction: the sequential interpreter, the monoid-comprehension
//! evaluator, and the distributed dataflow engine all move [`Value`]s around.
//!
//! The paper (Fegaras & Noor, *Translation of Array-Based Loops to
//! Distributed Data-Parallel Programs*, VLDB 2020) represents a sparse array
//! as a bag of key/value pairs (§3.4): a `vector[T]` is `{(long, T)}` and a
//! `matrix[T]` is `{((long, long), T)}`. This crate provides:
//!
//! * [`Value`] — a dynamically typed value (longs, doubles, booleans,
//!   strings, tuples, records, and bags) with total ordering and hashing so
//!   any value can serve as a shuffle key;
//! * [`ops`] — the scalar operator semantics (`+`, `*`, `min`, argmin, …)
//!   including the commutative monoid operations `⊕` used by incremental
//!   updates `d ⊕= e`;
//! * [`array`](mod@array) — the array-merge operator `X ⊳ Y` of §3.4 and helpers for
//!   treating bags of pairs as sparse arrays;
//! * [`tile`] — densely packed (tiled) matrices and the `pack`/`unpack`
//!   conversions of §5;
//! * [`size`] — a serialized-size estimator mirroring how the paper reports
//!   dataset sizes in bytes (§6).

pub mod array;
pub mod ops;
pub mod size;
pub mod tile;
pub mod value;

pub use array::{merge_bags, merge_pairs};
pub use ops::{AggOp, BinOp, Func, UnOp};
pub use size::serialized_size;
pub use tile::TiledMatrix;
pub use value::Value;

/// Errors produced while evaluating operations over [`Value`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeError {
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl RuntimeError {
    /// Creates a new error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    /// Prefixes the message with a source context (e.g. the statement a
    /// deferred operator error came from). Idempotent for a given prefix,
    /// so an error replayed through the same tagged step is not tagged
    /// twice.
    pub fn with_context(self, context: &str) -> Self {
        let prefix = format!("[{context}] ");
        if self.message.starts_with(&prefix) {
            self
        } else {
            Self {
                message: format!("{prefix}{}", self.message),
            }
        }
    }
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "runtime error: {}", self.message)
    }
}

impl std::error::Error for RuntimeError {}

/// Convenient result alias for runtime operations.
pub type Result<T> = std::result::Result<T, RuntimeError>;
