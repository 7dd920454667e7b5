//! The twelve Fig. 3 programs: inputs by seed, the engine run the spine
//! times, and the three references its outputs are checked against (the
//! interpreter, the hand-written engine program, a sequential PageRank).

use diablo_baselines::handwritten;
use diablo_core::CompiledProgram;
use diablo_dataflow::{Context, Dataset};
use diablo_exec::Session;
use diablo_interp::Interpreter;
use diablo_runtime::array::key_value;
use diablo_runtime::{RuntimeError, Value};
use diablo_serve::Output;
use diablo_workloads::{self as wl, Workload};

use crate::oracle::Outputs;
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prog {
    ConditionalSum,
    Equal,
    StringMatch,
    WordCount,
    Histogram,
    LinearRegression,
    GroupBy,
    MatrixAddition,
    MatrixMultiplication,
    PageRank,
    KMeans,
    MatrixFactorization,
}

/// Fig. 3 panels A to L, in order.
pub const ALL: [Prog; 12] = [
    Prog::ConditionalSum,
    Prog::Equal,
    Prog::StringMatch,
    Prog::WordCount,
    Prog::Histogram,
    Prog::LinearRegression,
    Prog::GroupBy,
    Prog::MatrixAddition,
    Prog::MatrixMultiplication,
    Prog::PageRank,
    Prog::KMeans,
    Prog::MatrixFactorization,
];

/// PageRank steps, K-Means grid side (9 centroids) and steps, Matrix
/// Factorization rank and steps: fixed for every size.
const PAGERANK_STEPS: usize = 3;
const KMEANS_GRID: usize = 3;
const KMEANS_STEPS: usize = 2;
const FACTOR_RANK: usize = 2;
const FACTOR_STEPS: usize = 1;

impl Prog {
    /// The name used in metric names (`exec.run_us.<slug>`).
    pub fn slug(self) -> &'static str {
        match self {
            Prog::ConditionalSum => "conditional_sum",
            Prog::Equal => "equal",
            Prog::StringMatch => "string_match",
            Prog::WordCount => "word_count",
            Prog::Histogram => "histogram",
            Prog::LinearRegression => "linear_regression",
            Prog::GroupBy => "group_by",
            Prog::MatrixAddition => "matrix_addition",
            Prog::MatrixMultiplication => "matrix_multiplication",
            Prog::PageRank => "pagerank",
            Prog::KMeans => "kmeans",
            Prog::MatrixFactorization => "matrix_factorization",
        }
    }

    /// The program with inputs of size `n`: rows for the vector programs,
    /// the dimension `d` for the matrix programs, vertices for PageRank,
    /// points for K-Means.
    pub fn workload(self, n: usize, seed: u64) -> Workload {
        match self {
            Prog::ConditionalSum => wl::conditional_sum(n, seed),
            Prog::Equal => wl::equal(n, seed),
            Prog::StringMatch => wl::string_match(n, seed),
            Prog::WordCount => wl::word_count(n, seed),
            Prog::Histogram => wl::histogram(n, seed),
            Prog::LinearRegression => wl::linear_regression(n, seed),
            Prog::GroupBy => wl::group_by(n, seed),
            Prog::MatrixAddition => wl::matrix_addition(n, seed),
            Prog::MatrixMultiplication => wl::matrix_multiplication(n, seed),
            Prog::PageRank => wl::pagerank(n, PAGERANK_STEPS, seed),
            Prog::KMeans => wl::kmeans(n, KMEANS_GRID, KMEANS_STEPS, seed),
            Prog::MatrixFactorization => {
                wl::matrix_factorization(n, FACTOR_RANK, FACTOR_STEPS, seed)
            }
        }
    }
}

fn rows_of<'a>(w: &'a Workload, name: &str) -> &'a [Value] {
    &w.collections
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{}: no input `{name}`", w.name))
        .1
}

fn scalar_of(w: &Workload, name: &str) -> Value {
    w.scalars
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{}: no scalar `{name}`", w.name))
        .1
        .clone()
}

fn read_outputs(
    w: &Workload,
    scalar: impl Fn(&str) -> Option<Value>,
    rows: impl Fn(&str) -> Option<Vec<Value>>,
) -> Result<Outputs, RuntimeError> {
    w.outputs
        .iter()
        .map(|name| {
            scalar(name)
                .map(Output::Scalar)
                .or_else(|| rows(name).map(Output::Rows))
                .map(|out| (name.to_string(), out))
                .ok_or_else(|| RuntimeError::new(format!("{}: output `{name}` is unbound", w.name)))
        })
        .collect()
}

/// Source text → compiled program, as four spans. `diablo_core::compile`
/// is these four calls in this order.
pub fn compile_traced(source: &str, t: &mut Tracer) -> Result<CompiledProgram, RuntimeError> {
    let front = |e: diablo_lang::LangError| RuntimeError::new(e.to_string());
    let program = t
        .span("lang.parse", |_| diablo_lang::parse(source))
        .map_err(front)?;
    let typed = t
        .span("lang.typecheck", |_| diablo_lang::typecheck(program))
        .map_err(front)?;
    t.span("core.restrictions", |_| {
        diablo_core::check_restrictions(&typed)
    })
    .map_err(front)?;
    t.span("core.translate", |_| diablo_core::translate(&typed))
        .map_err(front)
}

/// One user-visible run: source text → compile → bind inputs →
/// `Session::run` → collect every output. `inputs` are the rows to bind,
/// cloned by the caller before the clock starts.
pub fn run_engine(
    w: &Workload,
    inputs: Vec<(&'static str, Vec<Value>)>,
    ctx: &Context,
    t: &mut Tracer,
) -> Result<Outputs, RuntimeError> {
    let compiled = compile_traced(w.source, t)?;
    let mut session = t.span("exec.bind", |_| {
        let mut s = Session::new(ctx.clone());
        for (name, v) in &w.scalars {
            s.bind_scalar(name, v.clone());
        }
        for (name, rows) in inputs {
            s.bind_input(name, rows);
        }
        s
    });
    t.span("exec.run", |_| session.run(&compiled))?;
    t.span("exec.collect", |_| {
        read_outputs(w, |n| session.scalar(n), |n| session.collect(n))
    })
}

/// The sequential reference interpreter on the same inputs.
pub fn run_interpreter(w: &Workload) -> Result<Outputs, RuntimeError> {
    let front = |e: diablo_lang::LangError| RuntimeError::new(e.to_string());
    let typed =
        diablo_lang::typecheck(diablo_lang::parse(w.source).map_err(front)?).map_err(front)?;
    let mut interp = Interpreter::new();
    for (name, v) in &w.scalars {
        interp.bind_scalar(name, v.clone());
    }
    for (name, rows) in &w.collections {
        interp.bind_collection(name, rows.clone())?;
    }
    interp.run(&typed)?;
    read_outputs(w, |n| interp.scalar(n), |n| interp.collection(n))
}

/// The hand-written engine program on the same inputs: its outputs in the
/// loop program's output order. The `baselines.handwritten` span covers the
/// `handwritten::*` call alone (datasets are built before, rows collected
/// after), as `exec.run` covers `Session::run` alone.
pub fn run_handwritten(
    p: Prog,
    w: &Workload,
    ctx: &Context,
    t: &mut Tracer,
) -> Result<Outputs, RuntimeError> {
    fn call<T>(
        t: &mut Tracer,
        p: Prog,
        f: impl FnOnce() -> Result<T, RuntimeError>,
    ) -> Result<T, RuntimeError> {
        t.program_span("baselines.handwritten", p.slug(), |_| f())
    }
    let data = |name: &str| ctx.from_vec(rows_of(w, name).to_vec());
    let long = |name: &str| scalar_of(w, name).as_long().expect("a long scalar");
    let rows = |d: Dataset| d.try_collect().map(Output::Rows);
    let outs = match p {
        Prog::ConditionalSum => {
            let v = data("V");
            vec![Output::Scalar(call(t, p, || {
                handwritten::conditional_sum(&v)
            })?)]
        }
        Prog::Equal => {
            let (v, x) = (data("V"), scalar_of(w, "x"));
            vec![Output::Scalar(call(t, p, || handwritten::equal(&v, &x))?)]
        }
        Prog::StringMatch => {
            let words = data("words");
            vec![Output::Scalar(call(t, p, || {
                handwritten::string_match(&words)
            })?)]
        }
        Prog::WordCount => {
            let words = data("words");
            vec![rows(call(t, p, || handwritten::word_count(&words))?)?]
        }
        Prog::Histogram => {
            let pixels = data("P");
            let (r, g, b) = call(t, p, || handwritten::histogram(&pixels))?;
            vec![rows(r)?, rows(g)?, rows(b)?]
        }
        Prog::LinearRegression => {
            let (points, n) = (data("P"), long("n"));
            let (intercept, slope) = call(t, p, || handwritten::linear_regression(&points, n))?;
            vec![
                Output::Scalar(Value::Double(intercept)),
                Output::Scalar(Value::Double(slope)),
            ]
        }
        Prog::GroupBy => {
            let v = data("V");
            vec![rows(call(t, p, || handwritten::group_by(&v))?)?]
        }
        Prog::MatrixAddition => {
            let (m, n) = (data("M"), data("N"));
            vec![rows(call(t, p, || handwritten::matrix_addition(&m, &n))?)?]
        }
        Prog::MatrixMultiplication => {
            let (m, n) = (data("M"), data("N"));
            vec![rows(call(t, p, || {
                handwritten::matrix_multiplication(&m, &n)
            })?)?]
        }
        Prog::PageRank => {
            let (edges, vertices) = (data("E"), long("vertices"));
            vec![rows(call(t, p, || {
                handwritten::pagerank(&edges, vertices, PAGERANK_STEPS)
            })?)?]
        }
        Prog::KMeans => {
            let points = data("P");
            let initial: Vec<(f64, f64)> = rows_of(w, "C0")
                .iter()
                .map(|row| {
                    let (_, xy) = key_value(row).expect("a centroid row");
                    let xy = xy.as_tuple().expect("a point");
                    (xy[0].as_double().expect("x"), xy[1].as_double().expect("y"))
                })
                .collect();
            let centroids = call(t, p, || {
                handwritten::kmeans(&points, &initial, KMEANS_STEPS)
            })?;
            vec![Output::Rows(
                centroids
                    .iter()
                    .enumerate()
                    .map(|(i, (x, y))| {
                        Value::pair(
                            Value::Long(i as i64),
                            Value::pair(Value::Double(*x), Value::Double(*y)),
                        )
                    })
                    .collect(),
            )]
        }
        Prog::MatrixFactorization => {
            let (r, p0, q0) = (data("R"), data("Pinit"), data("Qinit"));
            let a = scalar_of(w, "a").as_double().expect("a");
            let b = scalar_of(w, "b").as_double().expect("b");
            let (pm, qm) = call(t, p, || {
                handwritten::matrix_factorization(&r, &p0, &q0, FACTOR_STEPS, a, b)
            })?;
            vec![rows(pm)?, rows(qm)?]
        }
    };
    Ok(w.outputs.iter().map(|n| n.to_string()).zip(outs).collect())
}

/// PageRank by plain sequential loops over the edge list, following the
/// loop program's sparse-array semantics (every vertex keeps a rank; a
/// vertex without incoming edges keeps `(1 - b) / vertices`). The
/// interpreter walks `vertices²` index pairs per loop, too slow at full size.
fn pagerank_sequential(w: &Workload) -> Outputs {
    let vertices = scalar_of(w, "vertices").as_long().expect("vertices") as usize;
    let edges: Vec<(usize, usize)> = rows_of(w, "E")
        .iter()
        .map(|row| {
            let (k, _) = key_value(row).expect("an edge row");
            let ij = k.as_tuple().expect("an edge key");
            (
                ij[0].as_long().expect("src") as usize,
                ij[1].as_long().expect("dst") as usize,
            )
        })
        .collect();
    let mut out_degree = vec![0u64; vertices];
    for (src, _) in &edges {
        out_degree[*src] += 1;
    }
    let damping = 0.85;
    let mut rank = vec![1.0 / vertices as f64; vertices];
    for _ in 0..PAGERANK_STEPS {
        let mut next = vec![(1.0 - damping) / vertices as f64; vertices];
        for (src, dst) in &edges {
            next[*dst] += damping * rank[*src] / out_degree[*src] as f64;
        }
        rank = next;
    }
    vec![(
        "P".to_string(),
        Output::Rows(
            rank.iter()
                .enumerate()
                .map(|(i, r)| Value::pair(Value::Long(i as i64), Value::Double(*r)))
                .collect(),
        ),
    )]
}

/// The expected outputs of `p` on `w`, never from the engine path being
/// timed: the hand-written program where it computes the same function as
/// the loop program. The hand-written PageRank drops vertices without
/// incoming edges and the hand-written Matrix Factorization regularises once
/// per row, not once per rating, so neither can check outputs (both are
/// still timed for the Fig. 3 ratio): PageRank is checked against
/// sequential loops, Matrix Factorization against the interpreter.
pub fn reference(p: Prog, w: &Workload, ctx: &Context) -> Result<Outputs, RuntimeError> {
    match p {
        Prog::PageRank => Ok(pagerank_sequential(w)),
        Prog::MatrixFactorization => run_interpreter(w),
        _ => run_handwritten(p, w, ctx, &mut Tracer::off()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::mismatch;

    /// Every reference agrees with the interpreter at a size where the
    /// interpreter is quick, so the three kinds of reference are
    /// interchangeable where they overlap.
    #[test]
    fn references_agree_with_the_interpreter() {
        let ctx = Context::new(2, 4);
        for (i, p) in ALL.into_iter().enumerate() {
            let n = match p {
                Prog::MatrixAddition | Prog::MatrixMultiplication | Prog::MatrixFactorization => 12,
                Prog::PageRank => 60,
                _ => 600,
            };
            let w = p.workload(n, 40 + i as u64);
            let want = run_interpreter(&w).unwrap();
            let got = reference(p, &w, &ctx).unwrap();
            assert_eq!(mismatch(&got, &want), None, "{}", p.slug());
            let engine = run_engine(&w, w.collections.clone(), &ctx, &mut Tracer::off()).unwrap();
            assert_eq!(mismatch(&engine, &want), None, "{} on the engine", p.slug());
        }
    }

    #[test]
    fn slugs_are_metric_name_safe_and_distinct() {
        let mut slugs: Vec<&str> = ALL.iter().map(|p| p.slug()).collect();
        assert!(slugs
            .iter()
            .all(|s| s.chars().all(|c| c.is_ascii_lowercase() || c == '_')));
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), 12);
    }
}
