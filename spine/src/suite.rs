//! The whole benchmark: one child process per workload and pass, so that
//! `peak_rss_mb` and the allocator's state belong to one workload, and the
//! `--aa` check that two runs of one build agree.

use std::process::Command;

use crate::json::Json;
use crate::metrics::{self, Class};
use crate::{host, Opts, WORKLOADS};

/// Runs `workload` in a child process and returns its result file.
fn run_child(workload: &str, opts: &Opts, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .status()
        .map_err(|e| format!("{workload}: cannot start the child: {e}"))?;
    if !status.success() {
        return Err(format!("{workload}: the child ended with {status}"));
    }
    let kind = if traced { "traced" } else { "untraced" };
    let path = host::out_dir().join(format!("result-{workload}-{kind}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every workload, untraced then traced, written to `out/result.json`.
pub fn run_all(opts: &Opts) -> Result<Json, String> {
    let mut runs = Vec::new();
    for workload in WORKLOADS {
        for traced in [false, true] {
            runs.push(run_child(workload, opts, traced)?);
        }
    }
    let all = Json::obj([
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("host", host::describe()),
        ("runs", Json::Arr(runs)),
    ]);
    let path = host::out_dir().join("result.json");
    std::fs::write(&path, all.write() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spine: wrote {}", path.display());
    Ok(all)
}

fn metric<'a>(run: &'a Json, name: &str) -> Option<&'a Json> {
    run.get("metrics")?.get(name)
}

/// What differs between two results of the same build and seed by more
/// than the benchmark allows: an end-to-end metric beyond its own bound, or
/// a count that should repeat exactly and did not.
pub fn disagreements(a: &Json, b: &Json) -> Vec<String> {
    let mut found = Vec::new();
    let (runs_a, runs_b) = (
        a.get("runs").and_then(Json::as_arr).unwrap_or(&[]),
        b.get("runs").and_then(Json::as_arr).unwrap_or(&[]),
    );
    if runs_a.len() != runs_b.len() {
        found.push(format!("{} runs against {}", runs_a.len(), runs_b.len()));
    }
    for (ra, rb) in runs_a.iter().zip(runs_b) {
        let workload = ra.get("workload").and_then(Json::as_str).unwrap_or("?");
        let traced = ra.get("traced") == Some(&Json::Bool(true));
        for (name, meta) in metrics::all() {
            let value = |run| {
                metric(run, &name)
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
            };
            let (Some(va), Some(vb)) = (value(ra), value(rb)) else {
                continue;
            };
            match meta.class {
                // End-to-end metrics are read from the untraced pass.
                Class::EndToEnd(bound) | Class::EndToEndOn(bound) if !traced => {
                    let base = va.abs().min(vb.abs());
                    if (va - vb).abs() > bound * base {
                        found.push(format!(
                            "{workload}: {name} {va} against {vb}, more than {bound} apart"
                        ));
                    }
                }
                Class::ExactCount => {
                    let steady = |run| {
                        metric(run, &name).and_then(|m| m.get("exact")) != Some(&Json::Bool(false))
                    };
                    if va != vb || !steady(ra) || !steady(rb) {
                        found.push(format!(
                            "{workload}: count {name} does not repeat ({va}, {vb})"
                        ));
                    }
                }
                _ => {}
            }
        }
        let sum = |run: &Json| {
            run.get("output_checksum")
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        if sum(ra) != sum(rb) {
            found.push(format!("{workload}: output checksums differ"));
        }
    }
    found
}

/// `--aa`: the whole benchmark twice on the same build and seed.
pub fn run_aa(opts: &Opts) -> Result<bool, String> {
    let first = run_all(opts)?;
    let second = run_all(opts)?;
    let found = disagreements(&first, &second);
    for d in &found {
        eprintln!("spine: A/A: {d}");
    }
    println!(
        "spine: A/A: {} disagreement(s) between two runs of the same build and seed",
        found.len()
    );
    Ok(found.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(run_s: f64, shuffles: f64, exact: bool) -> Json {
        Json::obj([(
            "runs",
            Json::Arr(vec![Json::obj([
                ("workload", Json::str("keyed")),
                ("traced", Json::Bool(false)),
                ("output_checksum", Json::str("00ff")),
                (
                    "metrics",
                    Json::obj([
                        ("run_s", Json::obj([("value", Json::Num(run_s))])),
                        (
                            "dataflow.shuffles",
                            Json::obj([
                                ("value", Json::Num(shuffles)),
                                ("exact", Json::Bool(exact)),
                            ]),
                        ),
                    ]),
                ),
            ])]),
        )])
    }

    #[test]
    fn aa_flags_a_drift_beyond_the_bound_and_a_moving_count() {
        let base = result(0.40, 15.0, true);
        assert!(disagreements(&base, &result(0.48, 15.0, true)).is_empty());
        let slow = disagreements(&base, &result(0.52, 15.0, true));
        assert_eq!(slow.len(), 1, "{slow:?}");
        assert!(slow[0].contains("run_s"));
        assert_eq!(disagreements(&base, &result(0.40, 16.0, true)).len(), 1);
        assert_eq!(disagreements(&base, &result(0.40, 15.0, false)).len(), 1);
    }
}
