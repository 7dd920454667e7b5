//! Densely packed (tiled) matrices and the `pack`/`unpack` mappings of §5.
//!
//! The paper stores a tiled matrix as `{((long, long), Array[T])}`: a bag of
//! tiles where each tile carries its upper-left coordinate and a dense array
//! of elements. `unpack` maps a tiled matrix to the sparse representation
//!
//! ```text
//! unpack(N) = { ((I + k/m, J + k%m), v) | ((I,J), L) ← N, (k,v) ← scan(L) }
//! ```
//!
//! and `pack` groups sparse elements into `n × m` tiles:
//!
//! ```text
//! pack(M) = { ((I*n, J*m), form(z, n*m)) | ((i,j),v) ← M,
//!             let z = (i%n)*m + (j%m), group by (I: i/n, J: j/m) }
//! ```
//!
//! This module implements both directions plus the tile-local dense
//! product, `multiply`. The product's kernel, [`multiply_into`], takes a
//! presence mask per operand: the engine's §5 block contraction runs it
//! on its blocks, `multiply` on tiles whose every element is present.

use std::collections::HashMap;

use crate::value::Value;
use crate::{Result, RuntimeError};

/// A matrix packed into fixed-size dense tiles.
///
/// Absent tiles are implicitly zero, matching the sparse-array semantics of
/// the rest of the system. Elements inside a tile are stored row-major.
#[derive(Clone, Debug, PartialEq)]
pub struct TiledMatrix {
    /// Number of rows in each tile (`n` in the paper).
    pub tile_rows: usize,
    /// Number of columns in each tile (`m` in the paper).
    pub tile_cols: usize,
    /// Tiles keyed by tile coordinate `(i / n, j / m)`.
    pub tiles: HashMap<(i64, i64), Vec<f64>>,
}

impl TiledMatrix {
    /// Creates an empty tiled matrix with the given tile shape.
    pub fn new(tile_rows: usize, tile_cols: usize) -> Self {
        assert!(
            tile_rows > 0 && tile_cols > 0,
            "tile shape must be positive"
        );
        TiledMatrix {
            tile_rows,
            tile_cols,
            tiles: HashMap::new(),
        }
    }

    /// `pack`: builds a tiled matrix from sparse `((i, j), v)` entries.
    pub fn pack(
        tile_rows: usize,
        tile_cols: usize,
        entries: impl IntoIterator<Item = (i64, i64, f64)>,
    ) -> Self {
        let mut m = TiledMatrix::new(tile_rows, tile_cols);
        for (i, j, v) in entries {
            m.set(i, j, v);
        }
        m
    }

    /// `pack` from a bag of sparse-matrix [`Value`] pairs `((i, j), v)`.
    pub fn pack_values(tile_rows: usize, tile_cols: usize, rows: &[Value]) -> Result<Self> {
        let mut m = TiledMatrix::new(tile_rows, tile_cols);
        for row in rows {
            let (k, v) = crate::array::key_value(row)?;
            let ij = k
                .as_tuple()
                .filter(|t| t.len() == 2)
                .ok_or_else(|| RuntimeError::new("matrix key must be (i, j)"))?;
            let (i, j) = (
                ij[0]
                    .as_long()
                    .ok_or_else(|| RuntimeError::new("matrix row index must be long"))?,
                ij[1]
                    .as_long()
                    .ok_or_else(|| RuntimeError::new("matrix col index must be long"))?,
            );
            let x = v
                .as_double()
                .ok_or_else(|| RuntimeError::new("tiled matrices hold doubles"))?;
            m.set(i, j, x);
        }
        Ok(m)
    }

    /// `unpack`: iterates the non-zero elements as sparse `(i, j, v)` entries.
    ///
    /// Explicit zeros inside an allocated tile are *not* emitted, so
    /// `unpack(pack(M)) = M` for matrices without explicit zero entries.
    pub fn unpack(&self) -> Vec<(i64, i64, f64)> {
        let mut out = Vec::new();
        let mut keys: Vec<_> = self.tiles.keys().copied().collect();
        keys.sort_unstable();
        for (ti, tj) in keys {
            let tile = &self.tiles[&(ti, tj)];
            for (k, &v) in tile.iter().enumerate() {
                if v != 0.0 {
                    let i = ti * self.tile_rows as i64 + (k / self.tile_cols) as i64;
                    let j = tj * self.tile_cols as i64 + (k % self.tile_cols) as i64;
                    out.push((i, j, v));
                }
            }
        }
        out
    }

    /// `unpack` into a bag of sparse-matrix [`Value`] pairs.
    pub fn unpack_values(&self) -> Vec<Value> {
        self.unpack()
            .into_iter()
            .map(|(i, j, v)| {
                Value::pair(
                    Value::pair(Value::Long(i), Value::Long(j)),
                    Value::Double(v),
                )
            })
            .collect()
    }

    fn locate(&self, i: i64, j: i64) -> ((i64, i64), usize) {
        let n = self.tile_rows as i64;
        let m = self.tile_cols as i64;
        let key = (i.div_euclid(n), j.div_euclid(m));
        let off = (i.rem_euclid(n) as usize) * self.tile_cols + j.rem_euclid(m) as usize;
        (key, off)
    }

    /// Reads element `(i, j)`, treating absent tiles as zero.
    pub fn get(&self, i: i64, j: i64) -> f64 {
        let (key, off) = self.locate(i, j);
        self.tiles.get(&key).map_or(0.0, |t| t[off])
    }

    /// Writes element `(i, j)`, allocating the enclosing tile if needed.
    fn set(&mut self, i: i64, j: i64, v: f64) {
        let (key, off) = self.locate(i, j);
        let len = self.tile_rows * self.tile_cols;
        self.tiles.entry(key).or_insert_with(|| vec![0.0; len])[off] = v;
    }

    /// Tiled matrix multiplication: for square tiles (`tile_rows ==
    /// tile_cols`), multiplies tile blocks with a dense inner kernel.
    pub fn multiply(&self, other: &TiledMatrix) -> TiledMatrix {
        assert_eq!(
            self.tile_cols, other.tile_rows,
            "inner tile shapes must agree"
        );
        let n = self.tile_rows;
        let k_dim = self.tile_cols;
        let m = other.tile_cols;
        let mut out = TiledMatrix::new(n, m);
        let all = vec![u64::MAX; (n * k_dim).max(k_dim * m).div_ceil(64)];
        // Index other's tiles by their row coordinate for the join on k.
        let mut by_row: HashMap<i64, Vec<(i64, &Vec<f64>)>> = HashMap::new();
        for (&(tk, tj), tile) in &other.tiles {
            by_row.entry(tk).or_default().push((tj, tile));
        }
        for (&(ti, tk), a) in &self.tiles {
            let Some(rhs) = by_row.get(&tk) else { continue };
            for &(tj, b) in rhs {
                let dst = out
                    .tiles
                    .entry((ti, tj))
                    .or_insert_with(|| vec![0.0; n * m]);
                let (a, b) = (Masked::new(a, &all), Masked::new(b, &all));
                multiply_into(a, b, dst, n, k_dim, m);
            }
        }
        out
    }
}

/// One operand of [`multiply_into`]: a row-major block of doubles and
/// which of its elements are present — bit `r * cols + c` of `present`
/// (64 to a word, lowest bit first) for element `(r, c)`. An absent
/// element's value is never read into a sum.
#[derive(Clone, Copy)]
pub struct Masked<'a> {
    values: &'a [f64],
    present: &'a [u64],
}

impl<'a> Masked<'a> {
    /// A block's values and its presence mask.
    pub fn new(values: &'a [f64], present: &'a [u64]) -> Masked<'a> {
        Masked { values, present }
    }

    fn has(&self, cell: usize) -> bool {
        self.present[cell / 64] >> (cell % 64) & 1 == 1
    }

    /// Whether cells `start..start + len` are all present.
    fn all(&self, start: usize, len: usize) -> bool {
        let (mut cell, end) = (start, start + len);
        while cell < end {
            let (word, off) = (cell / 64, cell % 64);
            let take = (64 - off).min(end - cell);
            let want = if take == 64 {
                u64::MAX
            } else {
                ((1 << take) - 1) << off
            };
            if self.present[word] & want != want {
                return false;
            }
            cell += take;
        }
        true
    }
}

/// The block product `dst += a · b` over row-major `a` (`n × k`), `b`
/// (`k × m`) and `dst` (`n × m`), in `i, k, j` loop order, so every
/// `dst[i][j]` adds its terms in ascending `k`. A term is added exactly
/// when both its elements are present, whatever their values: a stored
/// 0.0 times a NaN or an infinity is NaN, as IEEE arithmetic and the
/// sparse join both give. A row of `b` holding every element takes a
/// plain loop over the row.
pub fn multiply_into(a: Masked, b: Masked, dst: &mut [f64], n: usize, k: usize, m: usize) {
    debug_assert!(a.values.len() >= n * k && b.values.len() >= k * m && dst.len() >= n * m);
    debug_assert!(a.present.len() * 64 >= n * k && b.present.len() * 64 >= k * m);
    for i in 0..n {
        let drow = &mut dst[i * m..(i + 1) * m];
        for kk in (0..k).filter(|&kk| a.has(i * k + kk)) {
            let aik = a.values[i * k + kk];
            let brow = &b.values[kk * m..(kk + 1) * m];
            if b.all(kk * m, m) {
                for (d, &bv) in drow.iter_mut().zip(brow) {
                    *d += aik * bv;
                }
            } else {
                for (j, (d, &bv)) in drow.iter_mut().zip(brow).enumerate() {
                    if b.has(kk * m + j) {
                        *d += aik * bv;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trip() {
        let entries = vec![(0, 0, 1.0), (0, 3, 2.0), (5, 7, 3.0), (2, 2, 4.0)];
        let m = TiledMatrix::pack(4, 4, entries.clone());
        let mut back = m.unpack();
        back.sort_by_key(|a| (a.0, a.1));
        let mut want = entries;
        want.sort_by_key(|a| (a.0, a.1));
        assert_eq!(back, want);
    }

    #[test]
    fn get_set_cross_tile_boundaries() {
        let mut m = TiledMatrix::new(2, 3);
        m.set(0, 0, 1.0);
        m.set(1, 2, 2.0);
        m.set(2, 3, 3.0); // second tile row, second tile column
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 2), 2.0);
        assert_eq!(m.get(2, 3), 3.0);
        assert_eq!(m.get(9, 9), 0.0, "absent tiles read as zero");
        assert_eq!(m.tiles.len(), 2);
    }

    #[test]
    fn tiled_multiply_matches_dense_reference() {
        let d = 6usize;
        let a: Vec<(i64, i64, f64)> = (0..d as i64)
            .flat_map(|i| (0..d as i64).map(move |j| (i, j, (i * 3 + j) as f64 % 5.0 + 1.0)))
            .collect();
        let b: Vec<(i64, i64, f64)> = (0..d as i64)
            .flat_map(|i| (0..d as i64).map(move |j| (i, j, (i + 2 * j) as f64 % 7.0 + 1.0)))
            .collect();
        let ta = TiledMatrix::pack(2, 2, a.clone());
        let tb = TiledMatrix::pack(2, 2, b.clone());
        let tc = ta.multiply(&tb);
        for i in 0..d as i64 {
            for j in 0..d as i64 {
                let mut want = 0.0;
                for k in 0..d as i64 {
                    let av = a.iter().find(|e| e.0 == i && e.1 == k).map_or(0.0, |e| e.2);
                    let bv = b.iter().find(|e| e.0 == k && e.1 == j).map_or(0.0, |e| e.2);
                    want += av * bv;
                }
                assert!((tc.get(i, j) - want).abs() < 1e-9, "({i},{j})");
            }
        }
    }

    #[test]
    fn a_stored_zero_times_nan_is_nan() {
        let a = TiledMatrix::pack(2, 2, vec![(0, 0, 0.0)]);
        let b = TiledMatrix::pack(2, 2, vec![(0, 0, f64::NAN), (0, 1, f64::INFINITY)]);
        let c = a.multiply(&b);
        assert!(c.get(0, 0).is_nan(), "0.0 × NaN");
        assert!(c.get(0, 1).is_nan(), "0.0 × ∞");
    }

    #[test]
    fn absent_elements_never_meet() {
        // 2 × 3 times 3 × 2; a's (0, 1) and b's (2, 0) are absent, and
        // hold values that would poison any sum they reached.
        let a = [1.0, f64::NAN, 2.0, 3.0, 4.0, 5.0];
        let b = [1.0, 2.0, 3.0, 4.0, f64::INFINITY, 6.0];
        let (a_has, b_has) = ([0b111101], [0b101111]);
        let mut dst = [-0.0; 4];
        let (a, b) = (Masked::new(&a, &a_has), Masked::new(&b, &b_has));
        multiply_into(a, b, &mut dst, 2, 3, 2);
        assert_eq!(dst, [1.0, 2.0 + 12.0, 3.0 + 12.0, 6.0 + 16.0 + 30.0]);
    }

    #[test]
    fn pack_values_rejects_malformed_rows() {
        assert!(TiledMatrix::pack_values(2, 2, &[Value::Long(3)]).is_err());
        let bad_key = Value::pair(Value::Long(0), Value::Double(1.0));
        assert!(TiledMatrix::pack_values(2, 2, &[bad_key]).is_err());
    }

    #[test]
    fn unpack_values_produces_sparse_rows() {
        let m = TiledMatrix::pack(2, 2, vec![(1, 1, 4.5)]);
        let rows = m.unpack_values();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0],
            Value::pair(
                Value::pair(Value::Long(1), Value::Long(1)),
                Value::Double(4.5)
            )
        );
    }

    #[test]
    fn negative_indices_use_euclidean_tiling() {
        let mut m = TiledMatrix::new(4, 4);
        m.set(-1, -1, 2.0);
        assert_eq!(m.get(-1, -1), 2.0);
    }
}
