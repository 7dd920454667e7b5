//! The frozen sizes of every workload. They were adjusted once so that a
//! repetition takes 0.3 to 0.45 s on the two-core box the baseline was
//! recorded on (the 21 repetitions of a pass fit into the 10 s a run
//! measures), and are echoed into every result. Changing one starts a new
//! baseline.

use crate::programs::Prog;

/// The engine every workload runs on: what `diabloc run` gives a user of
/// this box (`nproc` is 2).
pub const WORKERS: usize = 2;
pub const PARTITIONS: usize = 4;

pub struct BatchSpec {
    pub name: &'static str,
    /// `(program, size)`: rows, matrix dimension, vertices or points, as
    /// [`Prog::workload`] reads it.
    pub programs: &'static [(Prog, usize)],
    /// `(exchange memory budget, dataset cache budget)` in bytes.
    pub budgets: Option<(u64, u64)>,
}

const WORD_COUNT: (Prog, usize) = (Prog::WordCount, 160_000);
const GROUP_BY: (Prog, usize) = (Prog::GroupBy, 160_000);
const PAGERANK: (Prog, usize) = (Prog::PageRank, 2_000);

pub const SCAN: BatchSpec = BatchSpec {
    name: "scan",
    programs: &[
        (Prog::ConditionalSum, 250_000),
        (Prog::Equal, 250_000),
        (Prog::StringMatch, 250_000),
        (Prog::LinearRegression, 100_000),
    ],
    budgets: None,
};

pub const KEYED: BatchSpec = BatchSpec {
    name: "keyed",
    programs: &[WORD_COUNT, (Prog::Histogram, 60_000), GROUP_BY],
    budgets: None,
};

pub const MATRIX: BatchSpec = BatchSpec {
    name: "matrix",
    programs: &[
        (Prog::MatrixAddition, 160),
        (Prog::MatrixMultiplication, 50),
        (Prog::MatrixFactorization, 48),
    ],
    budgets: None,
};

pub const ITERATIVE: BatchSpec = BatchSpec {
    name: "iterative",
    programs: &[PAGERANK, (Prog::KMeans, 4_000)],
    budgets: None,
};

/// The keyed and iterative programs again, same sizes, with budgets small
/// enough that every repetition spills exchange runs and demotes datasets.
pub const OUTOFCORE: BatchSpec = BatchSpec {
    name: "outofcore",
    programs: &[WORD_COUNT, GROUP_BY, PAGERANK],
    budgets: Some((1 << 20, 64 << 10)),
};

pub const BATCH: [&BatchSpec; 5] = [&SCAN, &KEYED, &MATRIX, &ITERATIVE, &OUTOFCORE];

/// Input size at which the interpreter checks the engine in set-up: at most
/// 2 000 rows per input.
pub fn oracle_size(p: Prog) -> usize {
    match p {
        Prog::MatrixAddition => 30,
        Prog::MatrixMultiplication => 16,
        Prog::MatrixFactorization => 12,
        Prog::PageRank => 100,
        Prog::KMeans => 600,
        _ => 2_000,
    }
}

/// Timed repetitions a pass makes at least, however short `--seconds` is:
/// the median is then the highest percentile with ten samples beyond it.
pub const MIN_REPS: usize = 21;
/// Repetitions before the clock starts.
pub const WARMUP_REPS: usize = 2;
/// Repetitions of each probe, of the hand-written baselines and of the
/// one-worker engine in a traced run.
pub const PROBE_REPS: usize = 5;
/// Times set-up runs; `setup_s` is their median. The benchmark contract
/// asks for several: the driver compares medians of `setup_s` across runs,
/// and a single set-up of a tenth of a second is too short to compare.
pub const SETUPS: usize = 5;
