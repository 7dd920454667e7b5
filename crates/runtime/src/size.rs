//! Serialized-size estimation for dataset-size reporting.
//!
//! The paper reports dataset sizes by multiplying element counts by the Java
//! standard-serialization size of one element (§6: a
//! `((Long, Long), Double)` serializes to 234 bytes). Java serialization
//! carries heavy per-object headers that have no analogue here, so we report
//! an honest *in-memory payload* estimate instead: fixed 8-byte scalars plus
//! small structural overheads. `EXPERIMENTS.md` documents the substitution;
//! only relative sizes matter for the figure shapes.

use crate::value::Value;

/// Size of a boolean.
pub const BOOL_SIZE: usize = 1;
/// Size of a long.
pub const LONG_SIZE: usize = 8;
/// Size of a double.
pub const DOUBLE_SIZE: usize = 8;

/// Size of a tuple whose fields have the sizes `fields` — for callers that
/// measure a tuple held field by field (column lanes) without boxing it.
pub fn tuple_size(fields: impl Iterator<Item = usize>) -> usize {
    2 + fields.sum::<usize>()
}

/// Estimated serialized size of a value in bytes.
pub fn serialized_size(v: &Value) -> usize {
    match v {
        Value::Unit => 1,
        Value::Bool(_) => BOOL_SIZE,
        Value::Long(_) => LONG_SIZE,
        Value::Double(_) => DOUBLE_SIZE,
        Value::Str(s) => 4 + s.len(),
        Value::Tuple(fs) => tuple_size(fs.iter().map(serialized_size)),
        Value::Record(r) => {
            2 + r
                .iter()
                .map(|(n, v)| 2 + n.len() + serialized_size(v))
                .sum::<usize>()
        }
        Value::Bag(items) => 4 + items.iter().map(serialized_size).sum::<usize>(),
    }
}

/// Estimated total size of a slice of rows.
pub fn slice_size(rows: &[Value]) -> usize {
    rows.iter().map(serialized_size).sum()
}

/// Sampled size of `len` rows: the first 32 measured by `size_of_row` and
/// scaled to `len`.
pub fn sampled_size(len: usize, size_of_row: impl Fn(usize) -> usize) -> u64 {
    if len == 0 {
        return 0;
    }
    let sample_n = len.min(32);
    let sample: u64 = (0..sample_n).map(|i| size_of_row(i) as u64).sum();
    sample * len as u64 / sample_n as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_matrix_element_size_is_fixed() {
        let elem = Value::pair(
            Value::pair(Value::Long(0), Value::Long(1)),
            Value::Double(3.5),
        );
        // ((long, long), double): 2 + (2 + 8 + 8) + 8 = 28 bytes.
        assert_eq!(serialized_size(&elem), 28);
    }

    #[test]
    fn strings_scale_with_length() {
        assert_eq!(serialized_size(&Value::str("abcd")), 8);
        assert!(serialized_size(&Value::str("abcdefgh")) > serialized_size(&Value::str("ab")));
    }

    #[test]
    fn slice_size_sums_rows() {
        let rows = vec![Value::Long(1), Value::Long(2)];
        assert_eq!(slice_size(&rows), 16);
    }

    #[test]
    fn sampled_size_scales_the_first_32_rows() {
        let rows: Vec<Value> = (0..100).map(|i| Value::str("x".repeat(i))).collect();
        let measure = |i: usize| serialized_size(&rows[i]);
        assert_eq!(sampled_size(0, measure), 0);
        assert_eq!(sampled_size(10, measure), slice_size(&rows[..10]) as u64);
        assert_eq!(
            sampled_size(100, measure),
            slice_size(&rows[..32]) as u64 * 100 / 32
        );
    }
}
