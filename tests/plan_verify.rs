//! The plan-invariant verifier end to end: a deliberately malformed plan
//! (injected through the test-only hook) is caught with a structured
//! `plan verifier:` error when `DIABLO_VERIFY_PLAN=1`, healthy plans
//! in both layouts and shuffle paths pass verified, and the gate rejects
//! typos loudly.
//!
//! `DIABLO_VERIFY_PLAN` is process-global, so every test that touches it
//! serializes on one mutex and restores the prior value before releasing
//! it.

use std::sync::{Mutex, MutexGuard, OnceLock};

use diablo_dataflow::{Context, Dataset, KeyRange, Layout};
use diablo_runtime::Value;

/// Serializes env-flipping tests; restores `DIABLO_VERIFY_PLAN` on drop.
struct EnvGuard {
    prior: Option<String>,
    _lock: MutexGuard<'static, ()>,
}

fn set_verify(value: Option<&str>) -> EnvGuard {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let lock = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let prior = std::env::var("DIABLO_VERIFY_PLAN").ok();
    match value {
        Some(v) => std::env::set_var("DIABLO_VERIFY_PLAN", v),
        None => std::env::remove_var("DIABLO_VERIFY_PLAN"),
    }
    EnvGuard { prior, _lock: lock }
}

impl Drop for EnvGuard {
    fn drop(&mut self) {
        match self.prior.take() {
            Some(v) => std::env::set_var("DIABLO_VERIFY_PLAN", v),
            None => std::env::remove_var("DIABLO_VERIFY_PLAN"),
        }
    }
}

#[test]
fn verifier_catches_injected_malformed_plan_with_structured_error() {
    let _env = set_verify(Some("1"));
    let ctx = Context::new(2, 2);
    let bad = Dataset::malformed_zero_partition_scan_for_tests(ctx);
    let err = bad.try_collect().unwrap_err();
    assert!(
        err.message.starts_with("plan verifier:"),
        "verifier errors are structured and attributable: {err}"
    );
    assert!(err.message.contains("zero partitions"), "{err}");
}

#[test]
fn disabled_verifier_lets_the_malformed_plan_through() {
    let _env = set_verify(Some("0"));
    let ctx = Context::new(2, 2);
    let bad = Dataset::malformed_zero_partition_scan_for_tests(ctx);
    // Unverified, the zero-partition scan does not error — it just
    // produces nothing, which is exactly the kind of silent wrongness
    // the verifier exists to catch.
    assert_eq!(bad.try_collect().unwrap(), Vec::<Value>::new());
}

#[test]
fn healthy_plans_pass_verified_on_every_backend_and_shuffle_path() {
    let _env = set_verify(Some("1"));
    for layout in [Layout::Columnar, Layout::Row] {
        let backend = layout.name();
        let ctx = Context::new(2, 3).with_layout(layout);
        let d = ctx.range(1, 100).unwrap();
        let pairs = d
            .map(|v| {
                let n = v.as_long().unwrap();
                Ok(Value::pair(Value::Long(n % 7), Value::Long(n)))
            })
            .unwrap();
        let reduced = pairs
            .reduce_by_key(|a, b| Ok(Value::Long(a.as_long().unwrap() + b.as_long().unwrap())))
            .unwrap();
        let mut rows = reduced.try_collect().unwrap();
        rows.sort();
        assert_eq!(rows.len(), 7, "backend {backend}");
    }
}

#[test]
fn verifier_covers_spilling_exchanges_too() {
    let _env = set_verify(Some("1"));
    // Budget 0 forces every chunk through spill runs; the conservation
    // and sortedness checks must hold for merged disk chunks as well.
    let ctx = Context::new(2, 3).with_memory_budget(0);
    let d = ctx.range(1, 500).unwrap();
    let grouped = d
        .map(|v| {
            Ok(Value::pair(
                Value::Long(v.as_long().unwrap() % 11),
                v.clone(),
            ))
        })
        .unwrap()
        .group_by_key()
        .unwrap();
    assert_eq!(grouped.try_collect().unwrap().len(), 11);
}

#[test]
fn an_input_holding_a_key_twice_is_refused_before_any_stage() {
    // Array keys are unique (§3.4) — the contract the engine's merge into
    // an empty array relies on. Verified, a run over an input that breaks
    // it stops before its first statement and names the input and key.
    let src = "input V: vector[long];
               var W: vector[long] = vector();
               for i = 0, 9 do W[i] := V[i] + 1;";
    let compiled = diablo_core::compile(src).unwrap();
    let run = || {
        let ctx = Context::new(2, 2);
        let mut s = diablo_exec::Session::new(ctx.clone());
        let row = |k: i64, v: i64| Value::pair(Value::Long(k), Value::Long(v));
        s.bind_input("V", vec![row(0, 1), row(3, 2), row(5, 3), row(3, 4)]);
        let before = ctx.stats().snapshot();
        let result = s.run(&compiled);
        (
            result,
            ctx.stats().snapshot().since(&before).physical_stages,
        )
    };
    let (result, stages) = {
        let _env = set_verify(Some("1"));
        run()
    };
    let err = result.unwrap_err();
    assert!(err.message.starts_with("plan verifier:"), "{err}");
    assert!(err.message.contains("input `V` holds key 3"), "{err}");
    assert_eq!(stages, 0, "the check runs no stage");
    // Unverified, the run goes ahead: duplicates are outside the contract,
    // not detected.
    let _env = set_verify(Some("0"));
    assert!(run().0.is_ok());
}

#[test]
fn a_wrong_key_range_fact_is_an_error_not_a_dropped_row() {
    // `X ⊳ {(i, 7) | i <- range(0, 9)}` is the fill when `X`'s keys lie in
    // [0, 9]. An `X` whose record says they do while a row is keyed 12
    // would lose that row; verified, the skip reads the rows first.
    let src = "input X: vector[long];
               for i = 0, 9 do X[i] := 7;";
    let compiled = diablo_core::compile(src).unwrap();
    let run = || {
        let ctx = Context::new(2, 2);
        let row = |k: i64| Value::pair(Value::Long(k), Value::Long(k));
        let wrong = ctx
            .from_vec(vec![row(0), row(3), row(12)])
            .with_key_range_for_tests(KeyRange { min: 0, max: 9 });
        let mut s = diablo_exec::Session::new(ctx);
        s.bind_dataset("X", wrong);
        s.run(&compiled).map(|()| s.collect("X").unwrap().len())
    };
    let err = {
        let _env = set_verify(Some("1"));
        run().unwrap_err()
    };
    assert!(err.message.contains("plan verifier:"), "{err}");
    assert!(err.message.contains("(12, 12)"), "names the row: {err}");
    // Unverified, the wrong fact is trusted: the row keyed 12 is gone.
    let _env = set_verify(Some("0"));
    assert_eq!(run().unwrap(), 10);
}

#[test]
fn verify_plan_env_typo_panics_loudly() {
    let _env = set_verify(Some("yes please"));
    let ctx = Context::new(1, 1);
    // A derived (still-lazy) dataset: a pre-materialized scan would be
    // served straight from its cache without ever consulting the verifier.
    let d = ctx.range(1, 10).unwrap().map(|v| Ok(v.clone())).unwrap();
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| d.try_collect()));
    let msg = match panicked {
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default(),
        Ok(_) => String::new(),
    };
    assert!(
        msg.contains("DIABLO_VERIFY_PLAN"),
        "a typo'd gate value must fail loudly, got: {msg:?}"
    );
}
