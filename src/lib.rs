//! # DIABLO — Translation of Array-Based Loops to Distributed Data-Parallel Programs
//!
//! A from-scratch Rust reproduction of Fegaras & Noor (VLDB 2020). This
//! facade crate re-exports the whole pipeline:
//!
//! ```text
//! source text ──lang──▶ AST ──core──▶ target code over comprehensions
//!            ──exec──▶ results on the dataflow engine
//!            ──interp─▶ results from the sequential reference interpreter
//! ```
//!
//! ## Quickstart
//!
//! ```
//! use diablo::prelude::*;
//!
//! // A loop-based program: count values per key (the intro example).
//! let src = r#"
//!     input A: vector[<|K: long, V: long|>];
//!     var C: vector[long] = vector();
//!     for i = 0, 2 do
//!         C[A[i].K] += A[i].V;
//! "#;
//! let compiled = compile(src).expect("compiles");
//!
//! let ctx = Context::new(2, 4);
//! let mut session = Session::new(ctx);
//! session.bind_input(
//!     "A",
//!     vec![
//!         (0, (3, 10)),
//!         (1, (5, 25)),
//!         (2, (3, 13)),
//!     ]
//!     .into_iter()
//!     .map(|(i, (k, v))| {
//!         Value::pair(
//!             Value::Long(i),
//!             Value::record(vec![
//!                 ("K".to_string(), Value::Long(k)),
//!                 ("V".to_string(), Value::Long(v)),
//!             ]),
//!         )
//!     })
//!     .collect::<Vec<_>>(),
//! );
//! session.run(&compiled).expect("runs");
//! let mut c = session.collect("C").expect("C exists");
//! c.sort();
//! assert_eq!(
//!     c,
//!     vec![
//!         Value::pair(Value::Long(3), Value::Long(23)),
//!         Value::pair(Value::Long(5), Value::Long(25)),
//!     ]
//! );
//! ```

pub use diablo_baselines as baselines;
pub use diablo_comp as comp;
pub use diablo_core as core;
pub use diablo_dataflow as dataflow;
pub use diablo_exec as exec;
pub use diablo_interp as interp;
pub use diablo_lang as lang;
pub use diablo_runtime as runtime;
pub use diablo_workloads as workloads;

/// The most common imports for driving DIABLO end to end.
pub mod prelude {
    pub use diablo_core::compile;
    pub use diablo_dataflow::{Context, Dataset};
    pub use diablo_exec::Session;
    pub use diablo_interp::Interpreter;
    pub use diablo_runtime::Value;
}

use diablo_dataflow::Context;

/// The engine flags `diabloc run`/`explain` and `diablod` share — one
/// parser, so the two binaries accept the same values and reject bad ones
/// with the same words. Each flag also has a `DIABLO_*` variable, which
/// the engine reads on its own when the flag is absent.
#[derive(Debug, Default)]
pub struct EngineFlags {
    /// `--workers N`, N > 0.
    pub workers: Option<usize>,
    /// `--partitions N`, N > 0.
    pub partitions: Option<usize>,
    /// `--memory-budget BYTES`: the exchange budget.
    pub memory_budget: Option<u64>,
    /// `--dataset-budget BYTES`: the dataset-cache budget.
    pub dataset_budget: Option<u64>,
}

impl EngineFlags {
    /// The flags as a usage line fragment.
    pub const USAGE: &'static str =
        "[--workers N] [--partitions N] [--memory-budget BYTES] [--dataset-budget BYTES]";

    /// Pulls every engine flag (`--flag value` or `--flag=value`) out of
    /// `args`, leaving the rest in order.
    pub fn extract(args: &mut Vec<String>) -> Result<EngineFlags, String> {
        let count = |flag: &str, s: String| match s.parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!("{flag}: `{s}` is not a positive count")),
        };
        let bytes = |flag: &str, s: String| {
            s.parse::<u64>()
                .map_err(|_| format!("{flag}: `{s}` is not a byte count"))
        };
        Ok(EngineFlags {
            workers: take_flag(args, "--workers")?
                .map(|n| count("--workers", n))
                .transpose()?,
            partitions: take_flag(args, "--partitions")?
                .map(|n| count("--partitions", n))
                .transpose()?,
            memory_budget: take_flag(args, "--memory-budget")?
                .map(|n| bytes("--memory-budget", n))
                .transpose()?,
            dataset_budget: take_flag(args, "--dataset-budget")?
                .map(|n| bytes("--dataset-budget", n))
                .transpose()?,
        })
    }

    /// True when any engine flag was given.
    pub fn any(&self) -> bool {
        self.workers.is_some()
            || self.partitions.is_some()
            || self.memory_budget.is_some()
            || self.dataset_budget.is_some()
    }

    /// The engine context these flags describe; what they leave unset
    /// keeps the engine's defaults and `DIABLO_*` variables.
    pub fn context(&self) -> Context {
        let ctx = Context::sized(self.workers, self.partitions);
        if let Some(bytes) = self.memory_budget {
            ctx.set_memory_budget(Some(bytes));
        }
        if let Some(bytes) = self.dataset_budget {
            ctx.set_dataset_budget(Some(bytes));
        }
        ctx
    }
}

/// Removes `flag` and its value (`--flag value` or `--flag=value`) from
/// `args`; when given more than once, the last value wins.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let mut value = None;
    let mut i = 0;
    while i < args.len() {
        if let Some(v) = args[i].strip_prefix(flag).and_then(|r| r.strip_prefix('=')) {
            value = Some(v.to_string());
            args.remove(i);
        } else if args[i] == flag {
            if i + 1 >= args.len() {
                return Err(format!("{flag} requires a value"));
            }
            value = Some(args.remove(i + 1));
            args.remove(i);
        } else {
            i += 1;
        }
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn engine_flags_come_out_and_leave_the_rest() {
        let mut a = args(&[
            "run",
            "--partitions=3",
            "p.dbl",
            "--workers",
            "2",
            "--memory-budget",
            "0",
            "x=1",
        ]);
        let f = EngineFlags::extract(&mut a).unwrap();
        assert_eq!(a, args(&["run", "p.dbl", "x=1"]));
        assert_eq!(
            (f.workers, f.partitions, f.memory_budget),
            (Some(2), Some(3), Some(0))
        );
        assert!(f.any());
        assert_eq!(f.context().partitions(), 3);
    }

    #[test]
    fn engine_flags_reject_bad_values() {
        let err = |xs: &[&str]| EngineFlags::extract(&mut args(xs)).unwrap_err();
        assert!(err(&["--workers", "0"]).contains("not a positive count"));
        assert!(err(&["--partitions=0"]).contains("not a positive count"));
        assert!(err(&["--dataset-budget", "lots"]).contains("not a byte count"));
        assert!(err(&["--workers"]).contains("requires a value"));
    }
}
