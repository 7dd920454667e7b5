//! # diablo-baselines
//!
//! The hand-written programs the paper's evaluation (§6) compares DIABLO
//! against: [`handwritten`] holds the "hand-written Spark" programs of
//! Appendix B, written directly against the dataflow engine by an
//! "expert" (us) — the solid lines of Figure 3. The benchmark spine times
//! them next to the DIABLO-compiled programs (`baselines.handwritten_us`,
//! `exec.vs_handwritten_x`).
//!
//! The paper's other two comparison systems, MOLD and Casper, are not
//! here: the paper's authors could not run either (§6), and a miniature
//! would report its own search budget, not a measurement.

pub mod handwritten;

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use diablo_dataflow::{Context, Dataset};
    use diablo_exec::Session;
    use diablo_workloads::Workload;

    use super::handwritten;

    /// Runs the DIABLO-compiled program on the engine; returns the run
    /// time (compile time excluded).
    fn run_diablo(w: &Workload, ctx: &Context) -> Duration {
        let compiled = diablo_core::compile(w.source).expect("compiles");
        let mut s = Session::new(ctx.clone());
        for (name, v) in &w.scalars {
            s.bind_scalar(name, v.clone());
        }
        for (name, rows) in &w.collections {
            s.bind_input(name, rows.clone());
        }
        let start = Instant::now();
        s.run(&compiled)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        start.elapsed()
    }

    /// Runs the hand-written program for a Figure 3 workload; returns its
    /// run time, or `None` for a workload without one.
    fn run_handwritten(w: &Workload, ctx: &Context) -> Option<Duration> {
        let (inputs, scalars) = (&w.collections, &w.scalars);
        let rows = |name: &str| &inputs.iter().find(|(n, _)| *n == name).expect(name).1;
        let get = |name: &str| -> Dataset { ctx.from_vec(rows(name).clone()) };
        let scalar = |name: &str| &scalars.iter().find(|(n, _)| *n == name).expect(name).1;
        let long = |name: &str| scalar(name).as_long().expect(name);
        let double = |name: &str| scalar(name).as_double().expect(name);
        let start = Instant::now();
        let ran = match w.name {
            "Conditional Sum" => handwritten::conditional_sum(&get("V")).map(drop),
            "Equal" => handwritten::equal(&get("V"), scalar("x")).map(drop),
            "String Match" => handwritten::string_match(&get("words")).map(drop),
            "Word Count" => handwritten::word_count(&get("words")).map(drop),
            "Histogram" => handwritten::histogram(&get("P")).map(drop),
            "Linear Regression" => handwritten::linear_regression(&get("P"), long("n")).map(drop),
            "Group By" => handwritten::group_by(&get("V")).map(drop),
            "Matrix Addition" => handwritten::matrix_addition(&get("M"), &get("N")).map(drop),
            "Matrix Multiplication" => {
                handwritten::matrix_multiplication(&get("M"), &get("N")).map(drop)
            }
            "PageRank" => {
                let steps = long("num_steps") as usize;
                handwritten::pagerank(&get("E"), long("vertices"), steps).map(drop)
            }
            "KMeans" => {
                let initial: Vec<(f64, f64)> = rows("C0")
                    .iter()
                    .map(|row| {
                        let (_, xy) = diablo_runtime::array::key_value(row).expect("pair");
                        let f = xy.as_tuple().expect("point");
                        (f[0].as_double().unwrap(), f[1].as_double().unwrap())
                    })
                    .collect();
                let steps = long("num_steps") as usize;
                handwritten::kmeans(&get("P"), &initial, steps).map(drop)
            }
            "Matrix Factorization" => {
                let (r, p0, q0) = (get("R"), get("Pinit"), get("Qinit"));
                let (steps, a, b) = (long("num_steps") as usize, double("a"), double("b"));
                handwritten::matrix_factorization(&r, &p0, &q0, steps, a, b).map(drop)
            }
            _ => return None,
        };
        ran.unwrap_or_else(|e| panic!("{}: {e}", w.name));
        Some(start.elapsed())
    }

    #[test]
    fn diablo_and_handwritten_run_every_figure3_workload() {
        let ctx = Context::new(2, 4);
        for w in diablo_workloads::figure3_workloads(1, 5) {
            let td = run_diablo(&w, &ctx);
            let th = run_handwritten(&w, &ctx).expect(w.name);
            assert!(td > Duration::ZERO && th > Duration::ZERO);
        }
    }
}
