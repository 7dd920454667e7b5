//! The `compile` workload: front end, translation, optimizer and lints over
//! the 18 Table 1 programs and one wide generated program. No engine runs
//! inside a repetition.

use std::collections::HashSet;
use std::time::Instant;

use diablo_diag::Diagnostics;
use diablo_lang::{Program, Stmt};
use diablo_workloads::programs::all_programs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::calib::{self, Bracket};
use crate::json::Json;
use crate::oracle::mismatch;
use crate::programs;
use crate::report::Report;
use crate::sizes::{self, WARMUP_REPS};
use crate::stats::{median, slowdown_pct};
use crate::trace::{micros_per_rep, Span, Tracer};
use crate::Opts;

/// Times a repetition compiles the corpus, and the wide program: a
/// repetition takes about 0.35 s.
pub const CORPUS_ROUNDS: usize = 50;
pub const WIDE_ROUNDS: usize = 5;
/// Top-level statements of the wide program.
pub const WIDE_STATEMENTS: usize = 200;

pub struct Compile {
    corpus: Vec<(&'static str, &'static str)>,
    wide: String,
    /// Target statements of the corpus plus the wide program, from set-up.
    target_stmts: usize,
}

/// Names a program declares: inputs, variables and loop indexes.
fn declared_names(p: &Program) -> HashSet<String> {
    fn walk(s: &Stmt, names: &mut HashSet<String>) {
        match s {
            Stmt::Decl { name, .. } => {
                names.insert(name.clone());
            }
            Stmt::For { var, body, .. } | Stmt::ForIn { var, body, .. } => {
                names.insert(var.clone());
                walk(body, names);
            }
            Stmt::While { body, .. } => walk(body, names),
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                walk(then_branch, names);
                if let Some(e) = else_branch {
                    walk(e, names);
                }
            }
            Stmt::Block(ss) => ss.iter().for_each(|s| walk(s, names)),
            Stmt::Incr { .. } | Stmt::Assign { .. } => {}
        }
    }
    let mut names: HashSet<String> = p.inputs.iter().map(|(n, _)| n.clone()).collect();
    p.body.iter().for_each(|s| walk(s, &mut names));
    names
}

/// `source` with `suffix` appended to every identifier in `names`. A name
/// after a `.` is a record field, not a variable, and stays, as does the
/// inside of a string literal.
fn rename(source: &str, names: &HashSet<String>, suffix: &str) -> String {
    let mut out = String::with_capacity(source.len() + 64);
    let mut chars = source.char_indices().peekable();
    let mut after_dot = false;
    while let Some((start, c)) = chars.next() {
        if c.is_ascii_alphabetic() || c == '_' {
            let mut end = start + c.len_utf8();
            while let Some(&(i, n)) = chars.peek() {
                if n.is_ascii_alphanumeric() || n == '_' {
                    end = i + n.len_utf8();
                    chars.next();
                } else {
                    break;
                }
            }
            let word = &source[start..end];
            out.push_str(word);
            if !after_dot && names.contains(word) {
                out.push_str(suffix);
            }
            after_dot = false;
        } else {
            out.push(c);
            if c == '"' {
                for (_, s) in chars.by_ref() {
                    out.push(s);
                    if s == '"' {
                        break;
                    }
                }
            }
            if !c.is_whitespace() {
                after_dot = c == '.';
            }
        }
    }
    out
}

/// Programs that appear a third time in the wide program; every program
/// appears twice. Two of each is 160 statements, these four add 15 + 11 + 7
/// + 7 = 40.
const THIRD_COPY: [&str; 4] = ["Linear Regression", "PCA", "PageRank", "Equal Frequency"];

/// One program of [`WIDE_STATEMENTS`] top-level statements: 40 independent
/// copies of the corpus' programs, each with its variables renamed apart.
/// The copies are the same for every seed, so the work is too; the seed
/// sets their order. Ten-line programs hide a pass that is super-linear in
/// program size; this one shows it.
pub fn wide_program(seed: u64) -> String {
    let corpus = all_programs();
    let mut copies: Vec<&str> = corpus
        .iter()
        .flat_map(|(name, src)| {
            let times = if THIRD_COPY.contains(name) { 3 } else { 2 };
            std::iter::repeat_n(*src, times)
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..copies.len()).rev() {
        copies.swap(i, rng.gen_range(0..=i));
    }
    let (mut inputs, mut body) = (String::new(), String::new());
    for (copy, src) in copies.into_iter().enumerate() {
        let parsed = diablo_lang::parse(src).expect("corpus programs parse");
        let names = declared_names(&parsed);
        for line in rename(src, &names, &format!("_{copy}")).lines() {
            let to = if line.trim_start().starts_with("input ") {
                &mut inputs
            } else {
                &mut body
            };
            to.push_str(line);
            to.push('\n');
        }
    }
    inputs + &body
}

/// Source text → target code and lints: the calls `compile_multi` and
/// `lint_program` make, each inside its span. Returns the number of target
/// statements.
pub fn compile_and_lint(source: &str, t: &mut Tracer) -> Result<usize, String> {
    let mut diags = Diagnostics::new();
    let first_error = |d: &Diagnostics| {
        d.first_error()
            .map_or("front end failed".to_string(), |e| e.one_line())
    };
    let program = t
        .span("lang.parse", |_| {
            diablo_lang::parse_multi(source, &mut diags)
        })
        .ok_or_else(|| first_error(&diags))?;
    let typed = t
        .span("lang.typecheck", |_| {
            diablo_lang::typecheck_multi(program, &mut diags)
        })
        .ok_or_else(|| first_error(&diags))?;
    t.span("core.restrictions", |_| {
        diablo_core::check_restrictions_multi(&typed, &mut diags)
    });
    if diags.has_errors() {
        return Err(first_error(&diags));
    }
    let compiled = t
        .span("core.translate", |_| diablo_core::translate(&typed))
        .map_err(|e| e.to_string())?;
    std::hint::black_box(t.span("core.lint", |_| {
        diablo_core::lint_program(&typed, &compiled)
    }));
    Ok(diablo_core::preorder_len(&compiled.stmts))
}

/// Counts one compile into the tally and returns its target statements.
fn tally(report: &mut Report, what: &str, rep: u32, result: Result<usize, String>) -> usize {
    report.attempted += 1;
    result.unwrap_or_else(|e| {
        report.fail(format!("{what} rep {rep}: {e}"));
        0
    })
}

/// What one repetition measured.
struct Rep {
    /// Wall seconds as measured, and at nominal machine speed.
    raw_s: f64,
    wall_s: f64,
    /// Milliseconds to compile everything once, at nominal machine speed.
    compile_ms: f64,
    speed: f64,
    target_stmts: usize,
}

impl Compile {
    /// Generates the wide program from `seed` and checks what the timed
    /// passes cannot: every Table 1 program, compiled and run on the engine
    /// at 2 000 rows, agrees with the interpreter, and the wide program
    /// compiles to as many target statements as its pieces do apart.
    pub fn setup(seed: u64) -> Result<Compile, String> {
        let checker = diablo_dataflow::Context::new(sizes::WORKERS, sizes::PARTITIONS);
        let table1_only = [
            diablo_workloads::average(2_000, seed),
            diablo_workloads::conditional_count(2_000, seed),
            diablo_workloads::count(2_000, seed),
            diablo_workloads::equal_frequency(2_000, seed),
            diablo_workloads::sum(2_000, seed),
            diablo_workloads::pca(2_000, seed),
        ];
        let fig3 = programs::ALL
            .iter()
            .map(|p| p.workload(sizes::oracle_size(*p), seed));
        for w in fig3.chain(table1_only) {
            let err = |e: diablo_runtime::RuntimeError| format!("{}: {e}", w.name);
            let want = programs::run_interpreter(&w).map_err(err)?;
            let got = programs::run_engine(&w, w.collections.clone(), &checker, &mut Tracer::off())
                .map_err(err)?;
            if let Some(why) = mismatch(&got, &want) {
                return Err(format!(
                    "{}: engine and interpreter disagree: {why}",
                    w.name
                ));
            }
        }
        let corpus = all_programs();
        let wide = wide_program(seed);
        let mut off = Tracer::off();
        let mut target_stmts = 0;
        for (name, src) in &corpus {
            target_stmts += compile_and_lint(src, &mut off).map_err(|e| format!("{name}: {e}"))?;
        }
        target_stmts +=
            compile_and_lint(&wide, &mut off).map_err(|e| format!("wide program: {e}"))?;
        Ok(Compile {
            corpus,
            wide,
            target_stmts,
        })
    }

    fn repetition(&self, rep: u32, t: &mut Tracer, cal: &mut Bracket, report: &mut Report) -> Rep {
        t.begin_rep(rep);
        // Target statements of everything, counted in the first round.
        let mut target_stmts = 0;
        let start = Instant::now();
        let (corpus_s, wide_s) = t.span("spine.repetition", |t| {
            for round in 0..CORPUS_ROUNDS {
                for (name, src) in &self.corpus {
                    let compiled =
                        t.program_span("spine.program", "corpus", |t| compile_and_lint(src, t));
                    let stmts = tally(report, name, rep, compiled);
                    if round == 0 {
                        target_stmts += stmts;
                    }
                }
            }
            let corpus_s = start.elapsed().as_secs_f64();
            for round in 0..WIDE_ROUNDS {
                let compiled =
                    t.program_span("spine.program", "wide", |t| compile_and_lint(&self.wide, t));
                let stmts = tally(report, "wide program", rep, compiled);
                if round == 0 {
                    target_stmts += stmts;
                }
            }
            (corpus_s, start.elapsed().as_secs_f64() - corpus_s)
        });
        let raw_s = start.elapsed().as_secs_f64();
        let speed = cal.close();
        t.end_rep(speed);
        Rep {
            raw_s,
            wall_s: raw_s * speed,
            compile_ms: 1e3
                * speed
                * (corpus_s / CORPUS_ROUNDS as f64 + wide_s / WIDE_ROUNDS as f64),
            speed,
            target_stmts,
        }
    }

    /// Warm-up, then repetitions for `opts.seconds`; a traced run records
    /// spans in every other one, as the batch workloads do.
    pub fn measure(&self, opts: &Opts, report: &mut Report) -> Result<Vec<Span>, String> {
        let mut off = Tracer::off();
        let mut t = Tracer::on(Instant::now());
        let mut cal = Bracket::open(calib::FRONT_END);
        for rep in 0..WARMUP_REPS {
            self.repetition(rep as u32, &mut off, &mut cal, report);
        }
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        crate::repeat_for(opts.seconds, |rep| {
            if opts.trace && rep % 2 == 1 {
                traced.push(self.repetition(rep, &mut t, &mut cal, report));
            } else {
                plain.push(self.repetition(rep, &mut off, &mut cal, report));
            }
        });
        let walls: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
        report.set_median("run_s", &walls, 1.0);
        let ms: Vec<f64> = plain.iter().map(|r| r.compile_ms).collect();
        report.set_median("compile_ms", &ms, 1.0);
        report.set("peak_rss_mb", crate::host::peak_rss_mb()?);
        let reps: Vec<&Rep> = plain.iter().chain(&traced).collect();
        report.set("spine.reps", reps.len() as f64);
        let speeds: Vec<f64> = reps.iter().map(|r| r.speed).collect();
        report.machine_speed(&speeds);
        let stmts: Vec<f64> = reps.iter().map(|r| r.target_stmts as f64).collect();
        report.set_count("core.target_stmts", &stmts);
        report.check(stmts.iter().all(|s| *s == self.target_stmts as f64), || {
            format!(
                "target statements changed between set-up ({}) and the timed pass",
                self.target_stmts
            )
        });
        report.fact(
            "sizes",
            Json::obj([
                ("corpus_programs", Json::Num(self.corpus.len() as f64)),
                ("corpus_rounds", Json::Num(CORPUS_ROUNDS as f64)),
                ("wide_statements", Json::Num(WIDE_STATEMENTS as f64)),
                ("wide_rounds", Json::Num(WIDE_ROUNDS as f64)),
                ("wide_bytes", Json::Num(self.wide.len() as f64)),
            ]),
        );
        if !opts.trace {
            return Ok(Vec::new());
        }

        let raw = |reps: &[Rep]| -> Vec<f64> { reps.iter().map(|r| r.raw_s).collect() };
        report.set(
            "spine.trace_overhead_pct",
            crate::trace::overhead_pct(
                t.recorded() as f64 / traced.len() as f64,
                median(&raw(&plain)),
            ),
        );
        report.fact(
            "traced_vs_untraced_pct",
            Json::Num(slowdown_pct(&raw(&plain), &raw(&traced))),
        );
        let spans = t.into_spans();
        // Per layer: time to take every program through the layer once.
        for name in [
            "lang.parse",
            "lang.typecheck",
            "core.restrictions",
            "core.translate",
            "core.lint",
        ] {
            let corpus = micros_per_rep(&spans, name, Some("corpus"));
            let wide = micros_per_rep(&spans, name, Some("wide"));
            let once: Vec<f64> = corpus
                .iter()
                .zip(&wide)
                .map(|(c, w)| c / CORPUS_ROUNDS as f64 + w / WIDE_ROUNDS as f64)
                .collect();
            report.set_median(&format!("{name}_us"), &once, 1.0);
        }
        report.fact(
            "repetition_unexplained_pct",
            Json::Num(crate::trace::unexplained_pct(&spans, "spine.repetition")),
        );
        Ok(spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wide_program_compiles_to_exactly_200_statements() {
        for seed in [1, 2, 99] {
            let src = wide_program(seed);
            let parsed = diablo_lang::parse(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(parsed.body.len(), WIDE_STATEMENTS, "seed {seed}");
            compile_and_lint(&src, &mut Tracer::off())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn wide_program_depends_on_the_seed_only() {
        assert_eq!(wide_program(7), wide_program(7));
        assert_ne!(wide_program(7), wide_program(8));
    }

    #[test]
    fn rename_leaves_fields_keywords_and_strings_alone() {
        let names: HashSet<String> = ["V", "K", "v"].iter().map(|s| s.to_string()).collect();
        assert_eq!(
            rename("for v in V do C[v.K] += K + v . K + \"v\";", &names, "_3"),
            "for v_3 in V_3 do C[v_3.K] += K_3 + v_3 . K + \"v\";"
        );
    }
}
