//! Output checking: approximate equality with a reference, and a checksum
//! that shows whether an output repeats from one repetition to the next.

use diablo_dataflow::encode_value;
use diablo_runtime::Value;
use diablo_serve::Output;

/// The outputs of one program run, in the workload's output order.
pub type Outputs = Vec<(String, Output)>;

/// Equality up to summation order: doubles within relative 1e-6, as in
/// `tests/equivalence.rs`.
pub fn approx_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Double(x), Value::Double(y)) => {
            (x - y).abs() <= 1e-6 * x.abs().max(y.abs()).max(1.0)
        }
        (Value::Long(x), Value::Double(y)) | (Value::Double(y), Value::Long(x)) => {
            (*x as f64 - y).abs() <= 1e-6
        }
        (Value::Tuple(xs), Value::Tuple(ys)) => all_approx_eq(xs, ys),
        (Value::Bag(xs), Value::Bag(ys)) => all_approx_eq(xs, ys),
        (Value::Record(xs), Value::Record(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys.iter())
                    .all(|((n, x), (m, y))| n == m && approx_eq(x, y))
        }
        _ => a == b,
    }
}

fn all_approx_eq(xs: &[Value], ys: &[Value]) -> bool {
    xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| approx_eq(x, y))
}

/// Why `got` differs from `want`, or `None` when they agree. Row outputs
/// are compared in sorted order.
pub fn mismatch(got: &Outputs, want: &Outputs) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!("{} outputs, expected {}", got.len(), want.len()));
    }
    for ((name, g), (wname, w)) in got.iter().zip(want) {
        if name != wname {
            return Some(format!("output `{name}` where `{wname}` was expected"));
        }
        match (g, w) {
            (Output::Scalar(g), Output::Scalar(w)) => {
                if !approx_eq(g, w) {
                    return Some(format!("{name}: {g} differs from {w}"));
                }
            }
            (Output::Rows(g), Output::Rows(w)) => {
                if g.len() != w.len() {
                    return Some(format!("{name}: {} rows, expected {}", g.len(), w.len()));
                }
                let (mut g, mut w) = (g.clone(), w.clone());
                g.sort();
                w.sort();
                if let Some((g, w)) = g.iter().zip(&w).find(|(g, w)| !approx_eq(g, w)) {
                    return Some(format!("{name}: row {g} differs from {w}"));
                }
            }
            _ => return Some(format!("{name}: a scalar on one side, rows on the other")),
        }
    }
    None
}

/// `v` with every double rounded to 21 significant bits, a relative step
/// of about 1e-6: sums taken in another order still round to the same
/// value, except for the rare one that sits on a step's edge.
fn rounded(v: &Value) -> Value {
    match v {
        Value::Double(x) if x.is_finite() => {
            Value::Double(f64::from_bits((x.to_bits() + (1 << 31)) & !((1 << 32) - 1)))
        }
        Value::Tuple(xs) => Value::tuple(xs.iter().map(rounded).collect()),
        Value::Bag(xs) => Value::Bag(std::sync::Arc::new(xs.iter().map(rounded).collect())),
        Value::Record(fs) => Value::Record(std::sync::Arc::new(
            fs.iter().map(|(n, x)| (n.clone(), rounded(x))).collect(),
        )),
        other => other.clone(),
    }
}

/// FNV-1a over the canonical encoding of every output, rows sorted and
/// doubles [`rounded`]. It must be the same in every repetition.
pub fn checksum(outputs: &Outputs) -> u64 {
    let mut bytes = Vec::new();
    for (name, out) in outputs {
        bytes.extend_from_slice(name.as_bytes());
        match out {
            Output::Scalar(v) => encode_value(&rounded(v), &mut bytes).expect("outputs encode"),
            Output::Rows(rows) => {
                let mut rows: Vec<Value> = rows.iter().map(rounded).collect();
                rows.sort();
                for r in &rows {
                    encode_value(r, &mut bytes).expect("outputs encode");
                }
            }
        }
    }
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(vals: &[f64]) -> Outputs {
        vec![(
            "C".to_string(),
            Output::Rows(
                vals.iter()
                    .enumerate()
                    .map(|(i, v)| Value::pair(Value::Long(i as i64), Value::Double(*v)))
                    .collect(),
            ),
        )]
    }

    #[test]
    fn tolerance_is_relative_and_order_free() {
        let want = rows(&[1.0, 2_000_000.0]);
        let mut got = rows(&[1.0 + 5e-7, 2_000_001.0]);
        assert_eq!(mismatch(&got, &want), None);
        if let Output::Rows(r) = &mut got[0].1 {
            r.reverse();
        }
        assert_eq!(mismatch(&got, &want), None);
        assert_eq!(checksum(&got), checksum(&rows(&[1.0 + 5e-7, 2_000_001.0])));
        assert!(mismatch(&rows(&[1.0, 2_000_010.0]), &want).is_some());
        assert!(mismatch(&rows(&[1.0]), &want).is_some());
        assert_ne!(checksum(&got), checksum(&want));
        // A sum taken in another order differs in its last bits only.
        assert_eq!(
            checksum(&rows(&[0.1 + 0.2 + 0.3])),
            checksum(&rows(&[0.3 + 0.2 + 0.1]))
        );
        assert_ne!(checksum(&rows(&[0.6])), checksum(&rows(&[0.600_01])));
    }
}
