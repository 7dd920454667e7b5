//! Sparse-array helpers and the array-merge operator `X ⊳ Y` (§3.4).
//!
//! A sparse array is a bag of `(key, value)` pairs. The merge `X ⊳ Y` is the
//! union of `X` and `Y`, except that when a key appears in both, the value
//! from `Y` (the update) wins:
//!
//! ```text
//! X ⊳ Y = { (k,b) | (k,a) ← X, (k',b) ← Y, k = k' }
//!       ⊎ { (k,a) | (k,a) ← X, k ∉ Π₁(Y) }
//!       ⊎ { (k,b) | (k,b) ← Y, k ∉ Π₁(X) }
//! ```
//!
//! An update `V[e1] := e2` is then the assignment `V := V ⊳ {(e1, e2)}`.

use std::collections::HashMap;

use crate::value::Value;
use crate::{Result, RuntimeError};

/// Splits a sparse-array element into its key and value.
pub fn key_value(pair: &Value) -> Result<(Value, Value)> {
    key_value_ref(pair).map(|(k, v)| (k.clone(), v.clone()))
}

/// [`key_value`] without the clones: the key and value borrowed from the
/// pair.
pub fn key_value_ref(pair: &Value) -> Result<(&Value, &Value)> {
    match pair.as_tuple() {
        Some([k, v]) => Ok((k, v)),
        _ => Err(RuntimeError::new(format!(
            "sparse array element must be a (key, value) pair, got {pair}"
        ))),
    }
}

/// Merges two sparse arrays given as slices of pairs: `x ⊳ y`.
///
/// Keys present in `y` override keys in `x`; if `y` itself contains
/// duplicates of a key the later pair wins (matching the paper's use of `⊳`
/// with single-assignment update bags). The relative order of surviving `x`
/// entries is preserved, then the new `y` entries follow in order.
pub fn merge_pairs(x: &[Value], y: &[Value]) -> Result<Vec<Value>> {
    // Index the update side.
    let mut updates: HashMap<Value, Value> = HashMap::with_capacity(y.len());
    let mut order: Vec<Value> = Vec::with_capacity(y.len());
    for pair in y {
        let (k, v) = key_value(pair)?;
        if updates.insert(k.clone(), v).is_none() {
            order.push(k);
        }
    }
    let mut out = Vec::with_capacity(x.len() + y.len());
    let mut consumed: HashMap<&Value, bool> = HashMap::with_capacity(order.len());
    for pair in x {
        let (k, a) = key_value(pair)?;
        match updates.get(&k) {
            Some(b) => {
                out.push(Value::pair(k.clone(), b.clone()));
                consumed.insert(updates.get_key_value(&k).unwrap().0, true);
            }
            None => out.push(Value::pair(k, a)),
        }
    }
    for k in &order {
        if !consumed.get(k).copied().unwrap_or(false) {
            out.push(Value::pair(k.clone(), updates[k].clone()));
        }
    }
    Ok(out)
}

/// Merges two sparse arrays given as bag values.
pub fn merge_bags(x: &Value, y: &Value) -> Result<Value> {
    let xs = x
        .as_bag()
        .ok_or_else(|| RuntimeError::new(format!("⊳ expects bags, got {}", x.type_name())))?;
    let ys = y
        .as_bag()
        .ok_or_else(|| RuntimeError::new(format!("⊳ expects bags, got {}", y.type_name())))?;
    Ok(Value::bag(merge_pairs(xs, ys)?))
}

/// Builds a sparse vector bag `{(i, v)}` from an iterator of `(i64, Value)`.
pub fn vector_from(entries: impl IntoIterator<Item = (i64, Value)>) -> Vec<Value> {
    entries
        .into_iter()
        .map(|(i, v)| Value::pair(Value::Long(i), v))
        .collect()
}

/// Builds a sparse matrix bag `{((i, j), v)}` from `(i64, i64, Value)`.
pub fn matrix_from(entries: impl IntoIterator<Item = (i64, i64, Value)>) -> Vec<Value> {
    entries
        .into_iter()
        .map(|(i, j, v)| Value::pair(Value::pair(Value::Long(i), Value::Long(j)), v))
        .collect()
}

/// Looks up a key in a sparse array slice, returning the *last* match (the
/// most recent update), mirroring right-biased merge semantics.
pub fn lookup<'a>(pairs: &'a [Value], key: &Value) -> Option<&'a Value> {
    pairs.iter().rev().find_map(|p| match p.as_tuple() {
        Some([k, v]) if k == key => Some(v),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecpairs(entries: &[(i64, i64)]) -> Vec<Value> {
        entries
            .iter()
            .map(|&(k, v)| Value::pair(Value::Long(k), Value::Long(v)))
            .collect()
    }

    #[test]
    fn merge_matches_paper_example() {
        // {(3,10),(1,20)} ⊳ {(1,30),(4,40)} = {(3,10),(1,30),(4,40)} (§3.4)
        let x = vecpairs(&[(3, 10), (1, 20)]);
        let y = vecpairs(&[(1, 30), (4, 40)]);
        let merged = merge_pairs(&x, &y).unwrap();
        assert_eq!(merged, vecpairs(&[(3, 10), (1, 30), (4, 40)]));
    }

    #[test]
    fn merge_with_empty_sides() {
        let x = vecpairs(&[(1, 10)]);
        assert_eq!(merge_pairs(&x, &[]).unwrap(), x);
        assert_eq!(merge_pairs(&[], &x).unwrap(), x);
        assert_eq!(merge_pairs(&[], &[]).unwrap(), Vec::<Value>::new());
    }

    #[test]
    fn later_updates_win_within_y() {
        let x = vecpairs(&[]);
        let y = vecpairs(&[(1, 10), (1, 20)]);
        assert_eq!(merge_pairs(&x, &y).unwrap(), vecpairs(&[(1, 20)]));
    }

    #[test]
    fn non_pair_elements_are_rejected() {
        let bad = vec![Value::Long(5)];
        assert!(merge_pairs(&bad, &[]).is_err());
    }

    #[test]
    fn lookup_returns_latest() {
        let pairs = vecpairs(&[(1, 10), (2, 20), (1, 30)]);
        assert_eq!(lookup(&pairs, &Value::Long(1)), Some(&Value::Long(30)));
        assert_eq!(lookup(&pairs, &Value::Long(3)), None);
    }

    #[test]
    fn matrix_builder_shapes_keys_as_pairs() {
        let m = matrix_from([(0, 1, Value::Double(2.5))]);
        let (k, v) = key_value(&m[0]).unwrap();
        assert_eq!(k, Value::pair(Value::Long(0), Value::Long(1)));
        assert_eq!(v, Value::Double(2.5));
    }
}
