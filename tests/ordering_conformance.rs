//! Ordering conformance for the ordered keyed operators: for **every
//! layout × tile width × budget (unbounded, 64 MiB, 0)**, the keyed
//! operators of an ordered context (`Context::with_ordered`) —
//! `reduce_by_key`, `group_by_key`, `merge`, `cogroup`, `join` and
//! `join_on` — must produce output that is
//!
//! 1. **globally key-ordered** — keys ascend across the whole collect,
//!    partition by partition (range buckets are contiguous, and each
//!    post-shuffle partition is sorted by key);
//! 2. **multiset-equal to the hash path** — the same rows as the same
//!    operators of a plain context, reordered only; within one key, bags
//!    and join matches keep the hash path's order;
//! 3. **byte-identical across layouts and budgets** — the row and the
//!    columnar layout agree row for row, whether the exchange stayed in
//!    memory or went through disk runs (spill counters in the budget-0
//!    runs prove the runs really were read back from disk).
//!
//! Property tests drive the same invariants through adversarial key
//! distributions: zipf-ish skew, all-equal, pre-sorted, reverse-sorted.

mod common;

use std::collections::BTreeMap;

use proptest::prelude::*;

use common::Engine;
use diablo_dataflow::{Context, Dataset, JoinOn, Partitioner, RangePartitioner, RowExpr, Shape};
use diablo_runtime::{array::key_value, BinOp, RuntimeError, Value};

/// The combiner-closure result type, for turbofishing `None` combiners.
type RtResult = std::result::Result<Value, RuntimeError>;

/// The layouts × tile widths every invariant runs over, each under every
/// budget of [`BUDGETS`]. The columnar layout runs with tiny tiles so
/// multi-tile paths are exercised and its per-stage layout decision
/// happens many times per partition, and at the default width.
fn engines() -> Vec<Engine> {
    vec![
        Engine::ROW,
        Engine::COLUMNAR.tile(4),
        Engine::COLUMNAR.tile(16),
        Engine::COLUMNAR,
    ]
}

const BUDGETS: [Option<u64>; 3] = [None, Some(64 << 20), Some(0)];

/// A plain (hash) context: the reference the ordered outputs are held to.
fn ctx_for(engine: Engine, budget: Option<u64>) -> Context {
    engine.budget(budget).context(3, 5).with_ordered(false)
}

/// The ordered context of the same configuration.
fn ordered_ctx(engine: Engine, budget: Option<u64>) -> Context {
    ctx_for(engine, budget).with_ordered(true)
}

fn pairs(ctx: &Context, entries: &[(i64, i64)]) -> Dataset {
    ctx.from_vec(
        entries
            .iter()
            .map(|&(k, v)| Value::pair(Value::Long(k), Value::Long(v)))
            .collect(),
    )
}

/// The key of an output row: its first field.
fn row_key(row: &Value) -> &Value {
    &row.as_tuple().expect("tuple row")[0]
}

/// Asserts keys ascend (non-strictly) across the rows of a full collect.
fn assert_key_ordered(rows: &[Value], what: &str) {
    for w in rows.windows(2) {
        let (a, b) = (row_key(&w[0]), row_key(&w[1]));
        assert!(
            a <= b,
            "{what}: key {a} precedes {b} — output not globally key-ordered"
        );
    }
}

/// Each key's rows, in the order the output lists them.
fn per_key(rows: &[Value]) -> BTreeMap<Value, Vec<Value>> {
    let mut groups: BTreeMap<Value, Vec<Value>> = BTreeMap::new();
    for row in rows {
        groups
            .entry(row_key(row).clone())
            .or_default()
            .push(row.clone());
    }
    groups
}

fn sorted_copy(rows: &[Value]) -> Vec<Value> {
    let mut s = rows.to_vec();
    s.sort();
    s
}

/// A mixed-shape keyed input: duplicate keys, negative keys, value
/// variety — enough rows that a zero budget forces several spill runs.
fn entries(n: i64) -> Vec<(i64, i64)> {
    (0..n).map(|i| ((i * 37 % 61) - 13, i)).collect()
}

/// The right side of the two-sided operators: 40 keys, most of them
/// shared with [`entries`], several rows each.
fn right_entries() -> Vec<(i64, i64)> {
    (0..150).map(|i| (i * 11 % 40, 1000 + i)).collect()
}

#[test]
fn sorted_ops_conform_across_backends_and_budgets() {
    // Hash-path references (order-insensitive): the ordered ops must emit
    // exactly these multisets.
    let reference_ctx = ctx_for(Engine::ROW, None);
    let a = pairs(&reference_ctx, &entries(400));
    let b = pairs(&reference_ctx, &right_entries());
    let hash_reduce = sorted_copy(
        &a.reduce_by_key(|x, y| BinOp::Add.apply(x, y))
            .unwrap()
            .collect(),
    );
    let hash_group = sorted_copy(&a.group_by_key().unwrap().collect());
    let hash_merge = sorted_copy(
        &a.merge(&b, Some(|x: &Value, y: &Value| BinOp::Add.apply(x, y)))
            .unwrap()
            .collect(),
    );
    let hash_cogroup = sorted_copy(&a.cogroup(&b).unwrap().collect());

    // Byte-for-byte references from the first grid cell.
    let mut sorted_refs: Option<[Vec<Value>; 4]> = None;

    for engine in engines() {
        for budget in BUDGETS {
            let name = format!("{engine} @ budget {budget:?}");
            let ctx = ordered_ctx(engine, budget);
            let a = pairs(&ctx, &entries(400));
            let b = pairs(&ctx, &right_entries());
            let before = ctx.stats().snapshot();
            let reduce = a
                .reduce_by_key(|x, y| BinOp::Add.apply(x, y))
                .unwrap()
                .collect();
            let group = a.group_by_key().unwrap().collect();
            let merge = a
                .merge(&b, Some(|x: &Value, y: &Value| BinOp::Add.apply(x, y)))
                .unwrap()
                .collect();
            let cogroup = a.cogroup(&b).unwrap().collect();
            let stats = ctx.stats().snapshot().since(&before);

            for (rows, what) in [
                (&reduce, "reduce"),
                (&group, "group"),
                (&merge, "merge"),
                (&cogroup, "cogroup"),
            ] {
                assert_key_ordered(rows, &format!("{name} {what}"));
            }
            assert_eq!(sorted_copy(&reduce), hash_reduce, "{name}: reduce multiset");
            assert_eq!(sorted_copy(&group), hash_group, "{name}: group multiset");
            assert_eq!(sorted_copy(&merge), hash_merge, "{name}: merge multiset");
            assert_eq!(
                sorted_copy(&cogroup),
                hash_cogroup,
                "{name}: cogroup multiset"
            );
            assert!(
                stats.sorted_shuffles >= 4,
                "{name}: every ordered op runs a range-partitioned exchange: {stats:?}"
            );
            if budget == Some(0) {
                assert!(
                    stats.spill_files > 0 && stats.spilled_records > 0,
                    "{name}: budget 0 must read runs back from disk: {stats:?}"
                );
            }

            let outputs = [reduce, group, merge, cogroup];
            match &sorted_refs {
                None => sorted_refs = Some(outputs),
                Some(reference) => {
                    for (got, want) in outputs.iter().zip(reference.iter()) {
                        assert_eq!(got, want, "{name}: diverged byte-for-byte from reference");
                    }
                }
            }
        }
    }
}

#[test]
fn ordered_joins_keep_the_hash_paths_matches_per_key() {
    // Several rows per key on both sides: within a key, an ordered join
    // lists the left rows × the right rows in bucket order, exactly as
    // the hash path's build–probe does; only the order of the keys
    // changes.
    let on = || JoinOn {
        left_key: RowExpr::Col(0),
        right: Shape::Tuple(vec![Shape::Bind, Shape::Bind]),
        right_key: RowExpr::Col(0),
        mismatch: "join pattern (k, v) does not match row".into(),
    };
    let joins = |ctx: &Context| -> [Vec<Value>; 2] {
        let a = pairs(ctx, &entries(400));
        let b = pairs(ctx, &right_entries());
        [
            a.join(&b).unwrap().collect(),
            a.join_on(&b, on()).unwrap().collect(),
        ]
    };
    let hash = joins(&ctx_for(Engine::ROW, None));
    for rows in &hash {
        assert!(
            per_key(rows).values().all(|g| g.len() >= 4),
            "every matched key pairs several left rows with several right rows"
        );
    }
    let mut reference: Option<[Vec<Value>; 2]> = None;
    for engine in engines() {
        for budget in BUDGETS {
            let name = format!("{engine} @ budget {budget:?}");
            let got = joins(&ordered_ctx(engine, budget));
            for ((rows, hash_rows), what) in got.iter().zip(&hash).zip(["join", "join_on"]) {
                assert_key_ordered(rows, &format!("{name} {what}"));
                assert_eq!(
                    per_key(rows),
                    per_key(hash_rows),
                    "{name} {what}: per-key matches differ from the hash path's"
                );
            }
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(&got, want, "{name}: diverged byte-for-byte"),
            }
        }
    }
}

#[test]
fn ordered_context_routes_keyed_operators_to_the_sorted_path() {
    // `Context::with_ordered` (the engine side of `diabloc --ordered` /
    // `DIABLO_ORDERED`) makes the plain keyed operators ordered: same
    // multisets, key-ordered output, sorted shuffles in the stats.
    let plain = ctx_for(Engine::ROW, None);
    let ordered = ordered_ctx(Engine::ROW, None);
    let d_plain = pairs(&plain, &entries(300));
    let d_ordered = pairs(&ordered, &entries(300));
    let before = ordered.stats().snapshot();
    let rows = d_ordered
        .reduce_by_key(|x, y| BinOp::Add.apply(x, y))
        .unwrap()
        .collect();
    let after = ordered.stats().snapshot().since(&before);
    assert!(
        after.sorted_shuffles > 0,
        "ordered mode re-routes: {after:?}"
    );
    assert_key_ordered(&rows, "ordered-mode reduce_by_key");
    assert_eq!(
        sorted_copy(&rows),
        sorted_copy(
            &d_plain
                .reduce_by_key(|x, y| BinOp::Add.apply(x, y))
                .unwrap()
                .collect()
        )
    );
    // A join range-scatters too and lists its keys in key order.
    let u_ordered = pairs(&ordered, &[(3, 30), (1, 10), (2, 20)]);
    let v_ordered = pairs(&ordered, &[(2, 200), (3, 300), (1, 100)]);
    let joined = u_ordered.join(&v_ordered).unwrap().collect();
    assert_key_ordered(&joined, "ordered-mode join");
}

#[test]
fn range_partitioner_coalesces_bounds_for_degenerate_samples() {
    // Regression: a sample with fewer distinct keys than partitions used
    // to keep the maximum key as a bound, reserving the final bucket for
    // keys above every sampled key — a guaranteed-empty tail partition.
    // Bounds now coalesce: strictly ascending, never the sampled maximum.
    let all_equal = RangePartitioner::from_sample(vec![Value::Long(7); 100], 8);
    assert!(
        all_equal.bounds().is_empty(),
        "an all-equal sample needs no bounds (one bucket), got {:?}",
        all_equal.bounds()
    );
    assert_eq!(all_equal.partition(&Value::Long(7), 8).unwrap(), 0);

    let two = RangePartitioner::from_sample(vec![Value::Long(1), Value::Long(2)], 8);
    assert_eq!(two.bounds(), [Value::Long(1)], "max key never bounds");
    assert_eq!(two.partition(&Value::Long(1), 8).unwrap(), 0);
    assert_eq!(two.partition(&Value::Long(2), 8).unwrap(), 1);

    // d distinct keys, d <= partitions: every sampled key gets a bucket
    // and no sampled key maps past the last bound's bucket + 1 — no
    // guaranteed-empty tail between occupied buckets.
    for d in 1..=6i64 {
        let sample: Vec<Value> = (0..d).map(Value::Long).collect();
        let p = RangePartitioner::from_sample(sample, 6);
        let buckets: Vec<usize> = (0..d)
            .map(|k| p.partition(&Value::Long(k), 6).unwrap())
            .collect();
        assert_eq!(
            buckets,
            (0..d as usize).collect::<Vec<_>>(),
            "{d} distinct keys occupy buckets 0..{d} contiguously"
        );
        for w in p.bounds().windows(2) {
            assert!(w[0] < w[1], "bounds strictly ascending: {:?}", p.bounds());
        }
    }
}

/// Deterministic adversarial key distributions for the property tests.
fn keyed_rows(dist: usize, n: usize, seed: u64) -> Vec<(i64, i64)> {
    let n = n as i64;
    (0..n)
        .map(|i| {
            let k = match dist {
                // zipf-ish skew: low keys vastly more common.
                0 => {
                    let r = (i.wrapping_mul(seed as i64 | 1).wrapping_add(i * i)) % 1024;
                    (1024 / (r.abs() + 1)) % 64
                }
                // all-equal.
                1 => 42,
                // pre-sorted (many duplicates).
                2 => i / 3,
                // reverse-sorted.
                _ => (n - i) / 2,
            };
            (k, i)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn adversarial_distributions_stay_ordered_under_budget_zero(
        dist in 0usize..4,
        n in 100usize..700,
        seed in 1u64..1000,
    ) {
        let rows = keyed_rows(dist, n, seed);

        // The sampled partitioner keeps bounds contiguous (strictly
        // ascending) and its bucket function monotone over sorted keys.
        let mut keys: Vec<Value> = rows.iter().map(|&(k, _)| Value::Long(k)).collect();
        let part = RangePartitioner::from_sample(keys.clone(), 5);
        for w in part.bounds().windows(2) {
            prop_assert!(w[0] < w[1], "bounds not strictly ascending: {:?}", part.bounds());
        }
        keys.sort();
        let buckets: Vec<usize> = keys
            .iter()
            .map(|k| part.partition(k, 5).unwrap())
            .collect();
        for w in buckets.windows(2) {
            prop_assert!(w[0] <= w[1], "bucket function not monotone: {buckets:?}");
        }

        // Budget 0: the whole range exchange goes through disk runs in
        // every configuration, and the output must still be totally
        // ordered and multiset-equal to the hash path.
        let hash_ctx = ctx_for(Engine::ROW, None);
        let hash = sorted_copy(
            &pairs(&hash_ctx, &rows)
                .reduce_by_key(|x, y| BinOp::Add.apply(x, y))
                .unwrap()
                .collect(),
        );
        let hash_group = sorted_copy(&pairs(&hash_ctx, &rows).group_by_key().unwrap().collect());
        let mut reference: Option<(Vec<Value>, Vec<Value>)> = None;
        for engine in engines() {
            let name = engine.to_string();
            let ctx = ordered_ctx(engine, Some(0));
            let d = pairs(&ctx, &rows);
            let before = ctx.stats().snapshot();
            let reduced = d
                .reduce_by_key(|x, y| BinOp::Add.apply(x, y))
                .unwrap()
                .collect();
            let grouped = d.group_by_key().unwrap().collect();
            let stats = ctx.stats().snapshot().since(&before);
            assert_key_ordered(&reduced, "proptest reduce");
            assert_key_ordered(&grouped, "proptest group");
            prop_assert_eq!(sorted_copy(&reduced), hash.clone(), "{} reduce multiset", name);
            prop_assert_eq!(sorted_copy(&grouped), hash_group.clone(), "{} group multiset", name);
            prop_assert!(
                stats.spill_files > 0,
                "{} @ budget 0 must spill runs: {:?}", name, stats
            );
            match &reference {
                None => reference = Some((reduced, grouped)),
                Some((r, g)) => {
                    prop_assert_eq!(&reduced, r, "{} reduce diverged byte-for-byte", name);
                    prop_assert_eq!(&grouped, g, "{} group diverged byte-for-byte", name);
                }
            }
        }
    }
}

#[test]
fn sorted_group_bags_match_hash_bag_order() {
    // Not just multisets: within one key, the ordered path's bag must
    // list values in exactly the hash path's order (source partition
    // order, then emission order) — a range bucket holds a key's rows in
    // the same (source, sequence, emission) order as a hash bucket.
    let ctx = ctx_for(Engine::ROW, None);
    let rows: Vec<(i64, i64)> = (0..240).map(|i| (i % 7, i)).collect();
    let d = pairs(&ctx, &rows);
    let hash: std::collections::HashMap<Value, Value> = d
        .group_by_key()
        .unwrap()
        .collect()
        .into_iter()
        .map(|r| key_value(&r).unwrap())
        .collect();
    for budget in BUDGETS {
        let ctx = ordered_ctx(Engine::ROW, budget);
        let d = pairs(&ctx, &rows);
        for row in d.group_by_key().unwrap().collect() {
            let (k, bag) = key_value(&row).unwrap();
            assert_eq!(
                Some(&bag),
                hash.get(&k),
                "budget {budget:?}: bag for key {k} diverged from the hash path"
            );
        }
    }
}

#[test]
fn sorted_merge_matches_hash_merge_semantics() {
    // Replace (None) and combine (Some) forms, duplicate update keys
    // included — per-key values must equal the hash path exactly.
    let make = |ctx: &Context| {
        (
            pairs(ctx, &[(1, 10), (2, 20), (5, 50)]),
            pairs(ctx, &[(2, 1), (2, 2), (3, 30), (0, 5)]),
        )
    };
    let hash_ctx = ctx_for(Engine::ROW, None);
    let (old, upd) = make(&hash_ctx);
    let hash_replace = sorted_copy(
        &old.merge(&upd, None::<fn(&Value, &Value) -> RtResult>)
            .unwrap()
            .collect(),
    );
    let hash_combine = sorted_copy(
        &old.merge(&upd, Some(|a: &Value, b: &Value| BinOp::Add.apply(a, b)))
            .unwrap()
            .collect(),
    );
    for budget in BUDGETS {
        let ctx = ordered_ctx(Engine::ROW, budget);
        let (old, upd) = make(&ctx);
        let replace = old
            .merge(&upd, None::<fn(&Value, &Value) -> RtResult>)
            .unwrap()
            .collect();
        let combine = old
            .merge(&upd, Some(|a: &Value, b: &Value| BinOp::Add.apply(a, b)))
            .unwrap()
            .collect();
        assert_key_ordered(&replace, "sorted merge (replace)");
        assert_key_ordered(&combine, "sorted merge (combine)");
        assert_eq!(sorted_copy(&replace), hash_replace, "budget {budget:?}");
        assert_eq!(sorted_copy(&combine), hash_combine, "budget {budget:?}");
    }
}
