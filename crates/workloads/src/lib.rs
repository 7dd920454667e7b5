//! # diablo-workloads
//!
//! The evaluation workloads of §6: every benchmark program in DIABLO
//! surface syntax ([`programs`]), random input generators matching the
//! paper's datasets ([`generators`]), the RMAT graph generator used for
//! PageRank ([`rmat`]), and [`Workload`] — a program bundled with concrete
//! inputs and its output variables, the unit the integration tests and the
//! benchmark spine consume.

pub mod generators;
pub mod programs;
pub mod rmat;

use diablo_runtime::Value;

/// A benchmark program together with concrete inputs and outputs.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Display name (matches the paper's tables).
    pub name: &'static str,
    /// DIABLO source text.
    pub source: &'static str,
    /// Scalar inputs to bind.
    pub scalars: Vec<(&'static str, Value)>,
    /// Collection inputs to bind (bags of `(key, value)` pairs).
    pub collections: Vec<(&'static str, Vec<Value>)>,
    /// Variables holding the results to read back / compare.
    pub outputs: Vec<&'static str>,
}

/// Conditional Sum (Fig. 3A): `n` doubles in `[0, 200)`.
pub fn conditional_sum(n: usize, seed: u64) -> Workload {
    Workload {
        name: "Conditional Sum",
        source: programs::CONDITIONAL_SUM,
        scalars: vec![],
        collections: vec![("V", generators::random_doubles(n, 200.0, seed))],
        outputs: vec!["sum"],
    }
}

/// Equal (Fig. 3B): `n` copies of one word (the all-equal case).
pub fn equal(n: usize, _seed: u64) -> Workload {
    Workload {
        name: "Equal",
        source: programs::EQUAL,
        scalars: vec![("x", Value::str("w042"))],
        collections: vec![("V", generators::equal_words(n, "w042"))],
        outputs: vec!["eq"],
    }
}

/// String Match (Fig. 3C): `n` random words from a 1000-word lexicon.
pub fn string_match(n: usize, seed: u64) -> Workload {
    Workload {
        name: "String Match",
        source: programs::STRING_MATCH,
        scalars: vec![],
        collections: vec![("words", generators::random_words(n, 1000, seed))],
        outputs: vec!["c"],
    }
}

/// Word Count (Fig. 3D).
pub fn word_count(n: usize, seed: u64) -> Workload {
    Workload {
        name: "Word Count",
        source: programs::WORD_COUNT,
        scalars: vec![],
        collections: vec![("words", generators::random_words(n, 1000, seed))],
        outputs: vec!["C"],
    }
}

/// Histogram (Fig. 3E): `n` RGB pixels.
pub fn histogram(n: usize, seed: u64) -> Workload {
    Workload {
        name: "Histogram",
        source: programs::HISTOGRAM,
        scalars: vec![],
        collections: vec![("P", generators::random_pixels(n, seed))],
        outputs: vec!["R", "G", "B"],
    }
}

/// Linear Regression (Fig. 3F).
pub fn linear_regression(n: usize, seed: u64) -> Workload {
    Workload {
        name: "Linear Regression",
        source: programs::LINEAR_REGRESSION,
        scalars: vec![("n", Value::Long(n as i64))],
        collections: vec![("P", generators::linreg_points(n, seed))],
        outputs: vec!["intercept", "slope"],
    }
}

/// Group-By (Fig. 3G): ~10 duplicates per key.
pub fn group_by(n: usize, seed: u64) -> Workload {
    Workload {
        name: "Group By",
        source: programs::GROUP_BY,
        scalars: vec![],
        collections: vec![("V", generators::group_pairs(n, 10, seed))],
        outputs: vec!["C"],
    }
}

/// Matrix Addition (Fig. 3H): two dense `d × d` matrices.
pub fn matrix_addition(d: usize, seed: u64) -> Workload {
    Workload {
        name: "Matrix Addition",
        source: programs::MATRIX_ADDITION,
        scalars: vec![("n", Value::Long(d as i64)), ("mm", Value::Long(d as i64))],
        collections: vec![
            ("M", generators::dense_matrix(d, seed)),
            ("N", generators::dense_matrix(d, seed + 1)),
        ],
        outputs: vec!["R"],
    }
}

/// Matrix Multiplication (Fig. 3I): two dense `d × d` matrices.
pub fn matrix_multiplication(d: usize, seed: u64) -> Workload {
    Workload {
        name: "Matrix Multiplication",
        source: programs::MATRIX_MULTIPLICATION,
        scalars: vec![("d", Value::Long(d as i64))],
        collections: vec![
            ("M", generators::dense_matrix(d, seed)),
            ("N", generators::dense_matrix(d, seed + 1)),
        ],
        outputs: vec!["R"],
    }
}

/// PageRank (Fig. 3J): RMAT graph with `10 × vertices` edges.
pub fn pagerank(vertices: usize, num_steps: usize, seed: u64) -> Workload {
    Workload {
        name: "PageRank",
        source: programs::PAGERANK,
        scalars: vec![
            ("vertices", Value::Long(vertices as i64)),
            ("num_steps", Value::Long(num_steps as i64)),
        ],
        collections: vec![("E", rmat::pagerank_graph(vertices, seed))],
        outputs: vec!["P"],
    }
}

/// K-Means (Fig. 3K): points in a `grid × grid` arrangement of squares,
/// `grid²` centroids.
pub fn kmeans(n: usize, grid: usize, num_steps: usize, seed: u64) -> Workload {
    Workload {
        name: "KMeans",
        source: programs::KMEANS,
        scalars: vec![
            ("K", Value::Long((grid * grid) as i64)),
            ("N", Value::Long(n as i64)),
            ("num_steps", Value::Long(num_steps as i64)),
        ],
        collections: vec![
            ("P", generators::kmeans_points(n, grid, seed)),
            ("C0", generators::kmeans_centroids(grid)),
        ],
        outputs: vec!["C"],
    }
}

/// Matrix Factorization (Fig. 3L): a 10%-sparse `d × d` rating matrix,
/// rank-`l` factors, learning rate 0.002 and normalization 0.02 (§6).
pub fn matrix_factorization(d: usize, l: usize, num_steps: usize, seed: u64) -> Workload {
    Workload {
        name: "Matrix Factorization",
        source: programs::MATRIX_FACTORIZATION,
        scalars: vec![
            ("n", Value::Long(d as i64)),
            ("m", Value::Long(d as i64)),
            ("l", Value::Long(l as i64)),
            ("a", Value::Double(0.002)),
            ("b", Value::Double(0.02)),
            ("num_steps", Value::Long(num_steps as i64)),
        ],
        collections: vec![
            ("R", generators::sparse_matrix(d, 0.1, seed)),
            ("Pinit", generators::factor_matrix(d, l, seed + 1)),
            ("Qinit", generators::factor_matrix(l, d, seed + 2)),
        ],
        outputs: vec!["P", "Q"],
    }
}

/// Average (Table 1 only).
pub fn average(n: usize, seed: u64) -> Workload {
    Workload {
        name: "Average",
        source: programs::AVERAGE,
        scalars: vec![("n", Value::Long(n as i64))],
        collections: vec![("V", generators::random_doubles(n, 200.0, seed))],
        outputs: vec!["avg"],
    }
}

/// Conditional Count (Table 1 only).
pub fn conditional_count(n: usize, seed: u64) -> Workload {
    Workload {
        name: "Conditional Count",
        source: programs::CONDITIONAL_COUNT,
        scalars: vec![],
        collections: vec![("V", generators::random_doubles(n, 200.0, seed))],
        outputs: vec!["count"],
    }
}

/// Count (Table 1 only).
pub fn count(n: usize, seed: u64) -> Workload {
    Workload {
        name: "Count",
        source: programs::COUNT,
        scalars: vec![],
        collections: vec![("V", generators::random_doubles(n, 200.0, seed))],
        outputs: vec!["count"],
    }
}

/// Equal Frequency (Table 1 only).
pub fn equal_frequency(n: usize, seed: u64) -> Workload {
    Workload {
        name: "Equal Frequency",
        source: programs::EQUAL_FREQUENCY,
        scalars: vec![],
        collections: vec![("words", generators::random_words(n, 50, seed))],
        outputs: vec!["eqf"],
    }
}

/// Sum (Table 1 only).
pub fn sum(n: usize, seed: u64) -> Workload {
    Workload {
        name: "Sum",
        source: programs::SUM,
        scalars: vec![],
        collections: vec![("V", generators::random_doubles(n, 200.0, seed))],
        outputs: vec!["sum"],
    }
}

/// PCA (Table 1 only).
pub fn pca(n: usize, seed: u64) -> Workload {
    Workload {
        name: "PCA",
        source: programs::PCA,
        scalars: vec![("n", Value::Long(n as i64))],
        collections: vec![("P", generators::linreg_points(n, seed))],
        outputs: vec!["cxx", "cxy", "cyy"],
    }
}

/// The 12 Figure-3 / Table-2 workloads at a small, laptop-friendly scale.
/// `scale` multiplies the element counts (1 ≈ unit-test scale).
pub fn figure3_workloads(scale: usize, seed: u64) -> Vec<Workload> {
    let s = scale.max(1);
    vec![
        conditional_sum(2_000 * s, seed),
        equal(2_000 * s, seed),
        string_match(2_000 * s, seed),
        word_count(2_000 * s, seed),
        histogram(1_000 * s, seed),
        linear_regression(2_000 * s, seed),
        group_by(2_000 * s, seed),
        matrix_addition(16 * s.min(20), seed),
        matrix_multiplication(8 * s.min(12), seed),
        pagerank(50 * s.min(40), 2, seed),
        kmeans(300 * s, 3, 1, seed),
        matrix_factorization(12 * s.min(16), 2, 1, seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_report_sizes() {
        let w = conditional_sum(100, 1);
        assert_eq!(w.collections.len(), 1);
        assert_eq!(w.collections[0].1.len(), 100);
    }

    #[test]
    fn figure3_set_has_twelve_entries() {
        let ws = figure3_workloads(1, 7);
        assert_eq!(ws.len(), 12);
        let names: Vec<&str> = ws.iter().map(|w| w.name).collect();
        assert!(names.contains(&"PageRank"));
        assert!(names.contains(&"Matrix Factorization"));
    }

    #[test]
    fn every_workload_program_compiles() {
        for w in figure3_workloads(1, 3) {
            diablo_lang::typecheck(diablo_lang::parse(w.source).unwrap())
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        }
    }
}
