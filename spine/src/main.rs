//! `spine`: one benchmark for the whole DIABLO pipeline, end to end and
//! layer by layer. See `README.md` next to the manifest.

mod batch;
mod calib;
mod compile;
mod host;
mod json;
mod metrics;
mod oracle;
mod probes;
mod programs;
mod report;
mod serve;
mod sizes;
mod stats;
mod suite;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use report::Report;
use trace::Span;

pub const WORKLOADS: [&str; 7] = [
    "scan",
    "keyed",
    "matrix",
    "iterative",
    "outofcore",
    "compile",
    "serve_mix",
];

pub struct Opts {
    pub workload: Option<String>,
    pub seed: u64,
    /// How long the untraced pass measures.
    pub seconds: f64,
    pub trace: bool,
    pub aa: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        aa: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w) {
                    return Err(format!("unknown workload `{w}`; one of {WORKLOADS:?}"));
                }
                opts.workload = Some(w.to_string());
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                opts.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--aa" => opts.aa = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// Calls `rep` with 0, 1, 2, … until `seconds` have passed and at least
/// [`sizes::MIN_REPS`] repetitions are done.
pub fn repeat_for(seconds: f64, mut rep: impl FnMut(u32)) {
    let start = Instant::now();
    let mut done = 0;
    while (done as usize) < sizes::MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        rep(done);
        done += 1;
    }
}

/// Sets a workload up [`sizes::SETUPS`] times, keeps the last, and records
/// the median set-up time (at nominal machine speed, like every time).
fn timed_setup<T>(report: &mut Report, setup: impl Fn() -> Result<T, String>) -> Result<T, String> {
    let mut times = Vec::new();
    let mut last = None;
    let mut cal = calib::Bracket::open(calib::ENGINE);
    for _ in 0..sizes::SETUPS {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup()?);
        let raw_s = start.elapsed().as_secs_f64();
        times.push(raw_s * cal.close());
    }
    report.set_median("setup_s", &times, 1.0);
    Ok(last.expect("SETUPS is at least 1"))
}

/// Runs one workload in this process.
fn run_workload(name: &str, opts: &Opts) -> Result<(Report, Vec<Span>), String> {
    if let Some(spec) = sizes::BATCH.into_iter().find(|s| s.name == name) {
        let mut report = Report::new(spec.name);
        let batch = timed_setup(&mut report, || batch::Batch::setup(spec, opts.seed))?;
        let spans = batch.measure(opts, &mut report)?;
        return Ok((report, spans));
    }
    if name == "compile" {
        let mut report = Report::new("compile");
        let compile = timed_setup(&mut report, || compile::Compile::setup(opts.seed))?;
        let spans = compile.measure(opts, &mut report)?;
        return Ok((report, spans));
    }
    let mut report = Report::new("serve_mix");
    let mix = timed_setup(&mut report, || serve::ServeMix::setup(opts.seed))?;
    let spans = mix.measure(opts, &mut report)?;
    Ok((report, spans))
}

fn workload_main(name: &str, opts: &Opts) -> Result<bool, String> {
    host::clean_environment()?;
    let (mut report, spans) = run_workload(name, opts)?;
    report.set(
        "fail_share",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.fact("seed", Json::Num(opts.seed as f64));
    report.fact("seconds", Json::Num(opts.seconds));
    report.fact("traced", Json::Bool(opts.trace));
    report.fact("host", host::describe());
    let out = host::out_dir();
    let write = |file: String, body: String| {
        let path = out.join(file);
        std::fs::write(&path, body + "\n").map_err(|e| format!("{}: {e}", path.display()))
    };
    if opts.trace {
        write(
            format!("trace-{name}.json"),
            trace::to_json(name, &spans).write(),
        )?;
    }
    let kind = if opts.trace { "traced" } else { "untraced" };
    write(
        format!("result-{name}-{kind}.json"),
        report.to_json().write(),
    )?;
    report.print_table();
    for f in &report.failures {
        eprintln!("spine: {name}: FAILED {f}");
    }
    println!("{}", report.contract_line(opts.trace));
    Ok(report.failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|opts| match &opts.workload {
        Some(name) => workload_main(name, &opts),
        None if opts.aa => suite::run_aa(&opts),
        None => suite::run_all(&opts).map(|all| {
            let runs = all.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
            runs.iter()
                .all(|r| r.get("failed") == Some(&Json::Num(0.0)))
        }),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("spine: {e}");
            ExitCode::from(2)
        }
    }
}
