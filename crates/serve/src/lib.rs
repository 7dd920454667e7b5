//! # diablo-serve
//!
//! The multi-tenant serving layer over the DIABLO engine: everything
//! behind the `diablod` daemon and its clients.
//!
//! Where `diabloc run` is a cold, single-program process, this crate
//! keeps **one engine resident** — one morsel worker pool, one global
//! memory budget, one result cache — and multiplexes concurrent programs
//! onto it over a socket:
//!
//! * [`proto`] — the length-prefixed request/response wire protocol
//!   (program text + bindings in, rows/error + per-request stats out),
//!   reusing the engine's canonical binary [`Value`] codec.
//! * [`planhash`] — canonical plan hashing: program identity for the
//!   cache, computed over compiled target code so whitespace, comments,
//!   and input names vanish while semantics distinguish.
//! * [`cache`] — the plan-hash-keyed, byte-budgeted LRU result cache,
//!   holding encoded outputs, and the LRU behind the server's
//!   program-text memo.
//! * [`admission`] — bounded in-flight executions with a deadline queue:
//!   overload means waiting, not OOM, and timeouts are clean errors.
//! * [`server`] — [`Server`]: accept loop, per-request
//!   [`Context::fork`](diablo_dataflow::Context::fork) tenancy, named
//!   shared datasets, the request lifecycle.
//! * [`client`] — [`Client`]: the blocking client `diabloc --connect`
//!   and the bench harness drive.
//!
//! The conformance contract: a program served by `diablod` returns
//! byte-identical outputs — and byte-identical *error messages*,
//! statement tags included — to a local single-shot `diabloc run` of
//! the same program, concurrency and caching notwithstanding.
//!
//! [`Value`]: diablo_runtime::Value

pub mod admission;
pub mod cache;
pub mod client;
pub mod planhash;
pub mod proto;
pub mod server;

pub use admission::{Admission, AdmissionPermit};
pub use cache::ResultCache;
pub use client::{Client, RunResult};
pub use planhash::{fold, plan_hash, rows_hash, value_hash};
pub use proto::{Output, Request, RequestStats, Response};
pub use server::{ServeConfig, Server};
