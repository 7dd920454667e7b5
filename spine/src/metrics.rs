//! The one table of metric names, units and directions.
//!
//! `BENCHMARK.json` lists the same names (a test compares the two), the
//! README explains each one. A workload reports the metrics it has a
//! reading for; the contract line alone names them all (see `report`).

use crate::programs;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Class {
    /// Defined on all seven workloads and never 0: `BENCHMARK.json`'s
    /// `end_to_end`, printed with `--trace 0`. The number is the share of
    /// the parent's median by which it may worsen.
    EndToEnd(f64),
    /// End to end for the user of one kind of workload only (a compile
    /// time, a request latency), so `BENCHMARK.json` has to list it under
    /// `per_layer`; `--aa` holds it to this bound where it applies, and
    /// `run_s` of that workload moves with it.
    EndToEndOn(f64),
    /// A time, rate or ratio of one layer.
    Layer,
    /// A count that repeats exactly across repetitions and runs.
    ExactCount,
    /// A count that depends on thread timing, or on how many repetitions
    /// fit into the run.
    LooseCount,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub class: Class,
}

const fn m(name: &'static str, unit: &'static str, better: Better, class: Class) -> Metric {
    Metric {
        name,
        unit,
        better,
        class,
    }
}

use Better::{Higher, Lower};
use Class::{EndToEnd, EndToEndOn, ExactCount, Layer, LooseCount};

/// Every metric except the per-program `exec.run_us.<slug>` family, which
/// [`all`] appends.
const FIXED: &[Metric] = &[
    // The issue's bounds, widened where ten runs on the baseline box spread
    // by more than a third of one (see README, Steadiness): to the 15 % the
    // issue allows at most for `peak_rss_mb`, `miss_p50_ms` and `req_per_s`.
    // `run_s` does not hold 15 % on that box: now and then it slows for
    // minutes in a way the calibration loops see only half of, and a set of
    // ten runs then spreads by 15 % and its median moves by 16 % with the
    // code unchanged. Its bound is the contract's largest.
    m("run_s", "s", Lower, EndToEnd(0.25)),
    m("peak_rss_mb", "MB", Lower, EndToEnd(0.15)),
    m("setup_s", "s", Lower, EndToEnd(0.25)),
    m("compile_ms", "ms", Lower, EndToEndOn(0.10)),
    m("hit_p50_ms", "ms", Lower, EndToEndOn(0.10)),
    m("hit_p90_ms", "ms", Lower, EndToEndOn(0.15)),
    m("miss_p50_ms", "ms", Lower, EndToEndOn(0.15)),
    m("miss_p90_ms", "ms", Lower, EndToEndOn(0.15)),
    m("req_per_s", "1/s", Higher, EndToEndOn(0.15)),
    m("fail_share", "share", Lower, EndToEndOn(0.0)),
    m("lang.parse_us", "us", Lower, Layer),
    m("lang.typecheck_us", "us", Lower, Layer),
    m("core.restrictions_us", "us", Lower, Layer),
    m("core.translate_us", "us", Lower, Layer),
    m("core.lint_us", "us", Lower, Layer),
    m("core.target_stmts", "count", Lower, ExactCount),
    m("exec.bind_us", "us", Lower, Layer),
    m("exec.run_us", "us", Lower, Layer),
    m("exec.collect_us", "us", Lower, Layer),
    m("baselines.handwritten_us", "us", Lower, Layer),
    m("exec.vs_handwritten_x", "x", Lower, Layer),
    m("exec.run_1w_us", "us", Lower, Layer),
    m("exec.scaling_2w_x", "x", Higher, Layer),
    m("dataflow.physical_stages", "count", Lower, ExactCount),
    m("dataflow.shuffles", "count", Lower, ExactCount),
    m("dataflow.shuffled_records", "count", Lower, ExactCount),
    m("dataflow.shuffled_bytes", "bytes", Lower, ExactCount),
    m("dataflow.broadcast_records", "count", Lower, ExactCount),
    m("dataflow.morsels", "count", Lower, LooseCount),
    m("dataflow.steals", "count", Lower, LooseCount),
    m("dataflow.sched_cost_us", "us", Lower, Layer),
    m("dataflow.sched_balance_modelled_x", "x", Higher, Layer),
    m("dataflow.spilled_bytes", "bytes", Lower, LooseCount),
    m("dataflow.spill_runs", "count", Lower, ExactCount),
    m("dataflow.dataset_spills", "count", Lower, ExactCount),
    m("dataflow.dataset_spilled_bytes", "bytes", Lower, ExactCount),
    m("dataflow.dataset_evictions", "count", Lower, ExactCount),
    m("dataflow.dataset_recomputes", "count", Lower, ExactCount),
    m("dataflow.vectorized_batches", "count", Higher, ExactCount),
    m("dataflow.row_fallback_stages", "count", Lower, ExactCount),
    m("dataflow.narrow_chain_us", "us", Lower, Layer),
    m("dataflow.reduce_by_key_us", "us", Lower, Layer),
    m("dataflow.group_by_key_us", "us", Lower, Layer),
    m("dataflow.join_us", "us", Lower, Layer),
    m("dataflow.merge_us", "us", Lower, Layer),
    m("dataflow.broadcast_us", "us", Lower, Layer),
    m("dataflow.codec_encode_mbps", "MB/s", Higher, Layer),
    m("dataflow.codec_decode_mbps", "MB/s", Higher, Layer),
    m("runtime.tile_matmul_us", "us", Lower, Layer),
    m("serve.queue_us_p50", "us", Lower, Layer),
    m("serve.queue_us_p90", "us", Lower, Layer),
    m("serve.exec_us_p50", "us", Lower, Layer),
    m("serve.overhead_us_p50", "us", Lower, Layer),
    m("serve.hit_ratio", "share", Higher, Layer),
    m("serve.coalesced", "count", Lower, LooseCount),
    m("serve.admission_timeouts", "count", Lower, ExactCount),
    m("serve.peak_queued", "count", Lower, LooseCount),
    m("serve.cache_evictions", "count", Lower, ExactCount),
    m("serve.cache_bytes", "bytes", Lower, LooseCount),
    m("serve.req_encode_us", "us", Lower, Layer),
    m("serve.resp_decode_us", "us", Lower, Layer),
    m("serve.resp_bytes_p50", "bytes", Lower, ExactCount),
    m("serve.plan_hash_us", "us", Lower, Layer),
    m("serve.rows_hash_us", "us", Lower, Layer),
    m("spine.trace_overhead_pct", "%", Lower, Layer),
    m("spine.reps", "count", Higher, LooseCount),
];

/// `exec.run_us.<slug>`, one per Fig. 3 program.
pub fn run_us_name(slug: &str) -> String {
    format!("exec.run_us.{slug}")
}

/// The whole table: name, unit, direction and class of every metric.
pub fn all() -> Vec<(String, Metric)> {
    let mut table: Vec<(String, Metric)> = FIXED.iter().map(|m| (m.name.to_string(), *m)).collect();
    let at = table
        .iter()
        .position(|(n, _)| n == "exec.collect_us")
        .expect("exec.collect_us is in the table")
        + 1;
    let per_program = programs::ALL
        .iter()
        .map(|p| (run_us_name(p.slug()), m("", "us", Lower, Layer)));
    table.splice(at..at, per_program);
    table
}

pub fn is_end_to_end(class: Class) -> bool {
    matches!(class, EndToEnd(_))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    pub fn name_ok(name: &str) -> bool {
        let first_ok = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let table = all();
        assert!(table.len() <= 128 + 16);
        let mut names: Vec<&str> = table.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), table.len(), "a metric name is used twice");
        for (name, metric) in &table {
            assert!(
                metric.unit.len() <= 16
                    && metric
                        .unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "{name}: unit {}",
                metric.unit
            );
        }
        assert_eq!(
            table.iter().filter(|(_, m)| is_end_to_end(m.class)).count(),
            3
        );
        assert!(table.iter().any(|(n, _)| n == "exec.run_us.word_count"));
        assert!(crate::WORKLOADS.iter().all(|w| name_ok(w)));
    }

    /// `BENCHMARK.json` at the repository root says what this table says, in
    /// the same order.
    #[test]
    fn benchmark_json_matches_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<Json> { doc.get(key).unwrap().as_arr().unwrap().to_vec() };
        let workloads: Vec<String> = names("workloads")
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
        assert_eq!(doc.get("paths"), Some(&Json::Arr(vec![Json::str("spine")])));
        let row = |name: &str, m: &Metric| {
            let mut fields = vec![
                ("name", Json::str(name)),
                ("unit", Json::str(m.unit)),
                (
                    "better",
                    Json::str(if m.better == Lower { "lower" } else { "higher" }),
                ),
            ];
            if let EndToEnd(bound) = m.class {
                fields.push(("bound", Json::Num(bound)));
            }
            Json::obj(fields)
        };
        let (end_to_end, per_layer): (Vec<_>, Vec<_>) =
            all().into_iter().partition(|(_, m)| is_end_to_end(m.class));
        let rows = |part: &[(String, Metric)]| -> Vec<Json> {
            part.iter().map(|(n, m)| row(n, m)).collect()
        };
        assert_eq!(names("end_to_end"), rows(&end_to_end));
        assert_eq!(names("per_layer"), rows(&per_layer));
        assert!(per_layer.len() <= 128);
    }

    /// The README explains every metric and every workload by name.
    #[test]
    fn readme_names_every_metric_and_workload() {
        let readme = include_str!("../README.md");
        for (name, _) in all() {
            let shown = match name.strip_prefix("exec.run_us.") {
                Some(_) => "`exec.run_us.<slug>`".to_string(),
                None => format!("`{name}`"),
            };
            assert!(
                readme.contains(&shown),
                "README.md does not mention {shown}"
            );
        }
        for workload in crate::WORKLOADS {
            assert!(readme.contains(&format!("| `{workload}` |")), "{workload}");
        }
    }
}
