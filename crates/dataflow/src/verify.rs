//! The plan-invariant verifier: structural checks on the fused `PlanOp`
//! DAG and on exchange output, run right before a plan executes.
//!
//! The optimizer and the operator layer are supposed to uphold a handful
//! of invariants by construction — every dataset holds at least one
//! partition, row nodes preserve their input's partition count, an
//! exchange hands back buckets holding exactly the rows that were emitted
//! into it. A bug that breaks one of them does not fail at the broken
//! site: it surfaces partitions later as missing rows, short groups, or a
//! panic deep inside a fused stage. The verifier
//! turns each violation into a structured [`RuntimeError`] naming the
//! broken invariant at the point where it is still attributable.
//!
//! ## Gating
//!
//! Enabled by `DIABLO_VERIFY_PLAN=1`, disabled by `DIABLO_VERIFY_PLAN=0`;
//! any other value panics (house style: a typo in a CI job must fail
//! loudly, not silently skip verification). With the variable unset the
//! verifier follows `debug-assertions`: on in debug builds (so the whole
//! test suite runs verified), off in release builds (so benchmarks pay
//! nothing). The gate is re-read per plan execution, never cached.
//!
//! ## What is checked
//!
//! * **Plan shape** ([`verify_plan`], called from `materialize` and
//!   `consume`): every `Scan` leaf holds ≥ 1 partition (the public
//!   constructors assert this, so a zero-partition scan means a corrupt
//!   plan), and row nodes sit over structurally valid inputs.
//! * **Exchange conservation** (`Exchange::finish`): the merged
//!   destination buckets hold exactly as many rows as the writers
//!   emitted — a lost spill chunk or a dropped in-memory chunk is caught
//!   here, not as silently missing output rows.
//! * **Chunk shape** (`Exchange::finish`, and every `Shuffled` node of a
//!   plan): every lane of a `Cols` chunk holds the chunk's `len` rows, so
//!   a short lane is this error, not an out-of-bounds panic in a reader.
//! * **Dataset-cache row conservation** is no check of its own: a
//!   disk-backed cache entry is one frame read with
//!   `chunk::decode_frame(data, n)`, which decodes exactly the entry's
//!   recorded row count or fails, and a failed read is an eviction
//!   (`dscache::read_entry`; `dscache::tests` covers cut, extended and
//!   mistagged files).
//!
//! * **Input keys** ([`verify_unique_keys`]): base data bound as an array
//!   holds no key twice (§3.4).
//! * **Covered keys** ([`verify_keys_within`], called by
//!   `Dataset::keys_within`): before a merge is skipped because a range
//!   fill covers its old side, every old key is a long inside the fill's
//!   bounds — a wrong key-range fact is this error, not a dropped row.
//!
//! The partitioner's bucket range is *always* checked when a scatter
//! emits a row (`ExchangeWriter::emit`, `emit_tile`): it is a cheap
//! safety check, so it is not gated.

use std::sync::Arc;

use diablo_runtime::RuntimeError;

use crate::chunk::Chunk;
use crate::columnar::VCol;
use crate::plan::{Base, PlanOp, Result};

/// Whether the verifier is on: `DIABLO_VERIFY_PLAN` (`1` / `0`, panic on
/// anything else), defaulting to `debug-assertions`. Re-read per call so
/// tests can flip it at runtime.
pub(crate) fn enabled() -> bool {
    match std::env::var("DIABLO_VERIFY_PLAN") {
        Ok(s) => match s.as_str() {
            "1" => true,
            "0" => false,
            _ => panic!("DIABLO_VERIFY_PLAN={s}: expected 1 or 0"),
        },
        Err(_) => cfg!(debug_assertions),
    }
}

/// Verifies the structural invariants of a plan DAG, returning a
/// structured error naming the first broken one. No-op when the verifier
/// is disabled.
pub(crate) fn verify_plan(plan: &Arc<PlanOp>) -> Result<()> {
    if !enabled() {
        return Ok(());
    }
    check(plan).map(|_| ())
}

/// Recursive walk: validates a node and returns its partition count.
fn check(plan: &PlanOp) -> Result<usize> {
    match plan {
        PlanOp::Scan(base) => partitions(base.partitions()),
        PlanOp::Shuffled(buckets, ..) => {
            for chunk in buckets.iter().flat_map(|b| b.chunks()) {
                check_chunk(chunk)?;
            }
            partitions(buckets.len())
        }
        // Row nodes preserve their input's partition count.
        PlanOp::Step(input, _) => check(input),
        // A cached barrier stands in for its (structurally equivalent)
        // inner plan; on a cache miss that inner plan is what re-runs.
        PlanOp::Cached(_, inner) | PlanOp::Pending(inner, _) => check(inner),
    }
}

/// A node's partition count, which must not be zero.
fn partitions(n: usize) -> Result<usize> {
    if n == 0 {
        return Err(violation(
            "scan node has zero partitions — every dataset holds at least one \
             (possibly empty) partition",
        ));
    }
    Ok(n)
}

/// Checks that every lane of a chunk, the boxed lane too, holds the
/// chunk's rows.
pub(crate) fn check_chunk(chunk: &Chunk) -> Result<()> {
    check_lane(&chunk.lanes, chunk.len)
}

fn check_lane(lane: &VCol, len: usize) -> Result<()> {
    let held = match lane {
        VCol::Long(v) => v.len(),
        VCol::Double(v) => v.len(),
        VCol::Bool(v) => v.len(),
        VCol::Val(v) => v.len(),
        VCol::Tuple(fields) if !fields.is_empty() => {
            return fields.iter().try_for_each(|f| check_lane(f, len));
        }
        VCol::Tuple(_) | VCol::Const(_) | VCol::Refs(_) => {
            return Err(violation(
                "a chunk lane is a field-less tuple, a constant or borrowed rows — \
                 the exchange builds none of these",
            ))
        }
    };
    if held != len {
        return Err(violation(format!(
            "a lane of a {len}-row chunk holds {held} rows — a chunk's lanes hold one \
             row each per row of the chunk"
        )));
    }
    Ok(())
}

/// Verifies what an exchange merge-read produced: `partitions` buckets
/// holding exactly `emitted` rows, in well-formed chunks. No-op when the
/// verifier is disabled.
pub(crate) fn verify_exchange_output(
    dest: &[Chunk],
    partitions: usize,
    emitted: u64,
) -> Result<()> {
    if !enabled() {
        return Ok(());
    }
    check_exchange_output(dest, partitions, emitted)
}

/// The ungated body of [`verify_exchange_output`].
fn check_exchange_output(dest: &[Chunk], partitions: usize, emitted: u64) -> Result<()> {
    if dest.len() != partitions {
        return Err(violation(format!(
            "exchange produced {} destination buckets for {partitions} partitions",
            dest.len()
        )));
    }
    dest.iter().try_for_each(check_chunk)?;
    let arrived: u64 = dest.iter().map(|b| b.len() as u64).sum();
    if arrived != emitted {
        return Err(violation(format!(
            "exchange emitted {emitted} rows but merged {arrived} back — rows were lost or \
             duplicated between the writers and the merge-read"
        )));
    }
    Ok(())
}

/// Verifies that no key occurs twice among the `(key, value)` rows of the
/// base data bound as `input` (rows of another shape are left to the
/// operators that read them). No-op when the verifier is disabled.
pub(crate) fn verify_unique_keys(base: &Base, input: &str) -> Result<()> {
    if !enabled() {
        return Ok(());
    }
    check_unique_keys(base, input)
}

/// The ungated body of [`verify_unique_keys`].
fn check_unique_keys(base: &Base, input: &str) -> Result<()> {
    let mut seen = std::collections::HashSet::new();
    let keys = base.rows().iter().filter_map(|row| match row.as_tuple() {
        Some([k, _]) => Some(k),
        _ => None,
    });
    for k in keys {
        if !seen.insert(k) {
            return Err(violation(format!(
                "input `{input}` holds key {k} more than once — array keys are unique (§3.4), \
                 so a duplicate is outside the input contract"
            )));
        }
    }
    Ok(())
}

/// Checks that every row of `parts` is a `(key, value)` pair keyed by a
/// long in `lo..=hi`: the rows a merge skips because a range fill over
/// those bounds covers them. Ungated: the caller reads the gate, since it
/// forces the rows only when the verifier is on.
pub(crate) fn verify_keys_within(base: &Base, lo: i64, hi: i64) -> Result<()> {
    let outside = base.rows().iter().find(|row| {
        !matches!(row.as_tuple(), Some([diablo_runtime::Value::Long(k), _]) if (lo..=hi).contains(k))
    });
    match outside {
        None => Ok(()),
        Some(row) => Err(violation(format!(
            "a merge was skipped because the range fill over [{lo}, {hi}] covers its old \
             side, but the old row {row} is not keyed inside it — the old side's key range \
             fact is wrong"
        ))),
    }
}

/// A structured verifier error: every message leads with `plan verifier:`
/// so callers and tests can tell an invariant violation from an ordinary
/// runtime error.
fn violation(msg: impl std::fmt::Display) -> RuntimeError {
    RuntimeError::new(format!("plan verifier: {msg}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use diablo_runtime::Value;

    #[test]
    fn zero_partition_scan_is_a_violation() {
        let plan = Arc::new(PlanOp::Scan(crate::plan::Base::joined(Vec::new())));
        let err = check(&plan).unwrap_err();
        assert!(err.message.contains("plan verifier"), "{err}");
        assert!(err.message.contains("zero partitions"), "{err}");
    }

    #[test]
    fn healthy_scan_reports_its_partition_count() {
        let parts = vec![vec![Value::Long(1)], vec![]];
        let plan = PlanOp::Scan(crate::plan::Base::joined(parts));
        assert_eq!(check(&plan).unwrap(), 2);
    }

    #[test]
    fn exchange_output_conservation_and_order() {
        let ok = vec![
            Chunk::boxed(vec![Value::pair(Value::Long(1), Value::Unit)]),
            Chunk {
                len: 2,
                lanes: VCol::Tuple(Arc::new(vec![
                    VCol::Long(Arc::new(vec![2, 5])),
                    VCol::Val(Arc::new(vec![Value::Unit, Value::Unit])),
                ])),
            },
        ];
        assert!(check_exchange_output(&ok, 2, 3).is_ok());
        // Lost row.
        let err = check_exchange_output(&ok, 2, 4).unwrap_err();
        assert!(err.message.contains("lost or"), "{err}");
        // Wrong bucket count.
        let err = check_exchange_output(&ok, 3, 3).unwrap_err();
        assert!(err.message.contains("destination buckets"), "{err}");
    }

    #[test]
    fn a_short_lane_is_a_violation_not_a_panic() {
        let short = Chunk {
            len: 3,
            lanes: VCol::Tuple(Arc::new(vec![
                VCol::Long(Arc::new(vec![1, 2, 3])),
                VCol::Double(Arc::new(vec![1.0, 2.0])),
            ])),
        };
        let err = check_exchange_output(std::slice::from_ref(&short), 1, 3).unwrap_err();
        assert!(err.message.starts_with("plan verifier:"), "{err}");
        assert!(err.message.contains("3-row chunk holds 2 rows"), "{err}");
        // The same chunk held by a plan fails the plan's check.
        let plan = PlanOp::Shuffled(
            Arc::new(vec![crate::chunk::Bucket::One(short)]),
            crate::plan::PartOp::Rows(Arc::new(|_, _| Ok(Vec::new()))),
            "test",
            None,
        );
        let err = check(&plan).unwrap_err();
        assert!(err.message.contains("3-row chunk holds 2 rows"), "{err}");
        // A short boxed lane is caught as well.
        let short = Chunk {
            len: 2,
            lanes: VCol::Val(Arc::new(vec![Value::Unit])),
        };
        let err = check_exchange_output(&[short], 1, 2).unwrap_err();
        assert!(err.message.contains("2-row chunk holds 1 rows"), "{err}");
        // A well-formed chunk of lanes passes.
        let ok = Chunk {
            len: 1,
            lanes: VCol::Long(Arc::new(vec![7])),
        };
        assert!(check_exchange_output(&[ok], 1, 1).is_ok());
    }

    #[test]
    fn a_repeated_key_across_partitions_is_a_violation() {
        let row = |k: i64| Value::pair(Value::Long(k), Value::Unit);
        let unique = Base::joined(vec![vec![row(1), row(2)], vec![row(3)]]);
        assert!(check_unique_keys(&unique, "V").is_ok());
        // `1` and `1.0` are the same key, as in every keyed operator.
        let repeated = Base::joined(vec![
            vec![row(1), row(2)],
            vec![Value::pair(Value::Double(1.0), Value::Unit)],
        ]);
        let err = check_unique_keys(&repeated, "V").unwrap_err();
        assert!(err.message.starts_with("plan verifier:"), "{err}");
        assert!(err.message.contains("input `V` holds key 1"), "{err}");
    }
}
