//! What one workload run found: a value for every metric, the samples
//! behind each timing, and the attempted/failed tally.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{self, Class};
use crate::stats::{summarize, Summary};

pub struct Report {
    pub workload: &'static str,
    values: BTreeMap<String, f64>,
    /// Sample count and quartiles of each metric that is a median.
    summaries: BTreeMap<String, Summary>,
    /// Count metrics whose per-repetition values were not all equal.
    pub varying_counts: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the human reading the output.
    pub failures: Vec<String>,
    /// Engine settings, frozen sizes and the like, echoed into the result.
    pub facts: Vec<(String, Json)>,
}

impl Report {
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            values: BTreeMap::new(),
            summaries: BTreeMap::new(),
            varying_counts: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            facts: Vec::new(),
        }
    }

    /// Records `value` under `name`. A ratio with nothing under it has no
    /// number to report and is left out, like a layer that did not run.
    pub fn set(&mut self, name: &str, value: f64) {
        if value.is_finite() {
            self.values.insert(name.to_string(), value);
        }
    }

    /// Records the median of `samples` under `name`, scaled by `scale`
    /// (samples in seconds reported in ms: `1e3`). No samples, no entry.
    pub fn set_median(&mut self, name: &str, samples: &[f64], scale: f64) {
        self.set_quantile(name, samples, scale, |s| s.median);
    }

    /// Records the 90th percentile of `samples` under `name`.
    pub fn set_p90(&mut self, name: &str, samples: &[f64], scale: f64) {
        self.set_quantile(name, samples, scale, |s| s.p90);
    }

    fn set_quantile(&mut self, name: &str, samples: &[f64], scale: f64, pick: fn(&Summary) -> f64) {
        let scaled: Vec<f64> = samples.iter().map(|s| s * scale).collect();
        if let Some(s) = summarize(&scaled) {
            self.values.insert(name.to_string(), pick(&s));
            self.summaries.insert(name.to_string(), s);
        }
    }

    /// Records a per-repetition count: the value is its median. A count
    /// that did not repeat exactly is remembered as varying, and fails the
    /// run if the metric table says it has to repeat.
    pub fn set_count(&mut self, name: &str, per_rep: &[f64]) {
        let Some(s) = summarize(per_rep) else {
            return;
        };
        self.values.insert(name.to_string(), s.median);
        let varies = per_rep.iter().any(|c| *c != per_rep[0]);
        if varies {
            self.varying_counts.push(name.to_string());
        }
        let exact = metrics::all()
            .iter()
            .any(|(n, m)| n == name && m.class == Class::ExactCount);
        if exact {
            self.check(!varies, || {
                format!("{name} does not repeat across repetitions")
            });
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(message);
        }
    }

    /// One more operation attempted: a check of the run as a whole, failed
    /// unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    /// Echoes the machine speeds the timed pass was scaled by (see `calib`):
    /// a reported time divided by the median speed is about the raw time.
    pub fn machine_speed(&mut self, speeds: &[f64]) {
        if let Some(s) = summarize(speeds) {
            let (lo, hi) = speeds
                .iter()
                .fold((f64::MAX, 0.0_f64), |(lo, hi), s| (lo.min(*s), hi.max(*s)));
            self.fact(
                "machine_speed",
                Json::obj([
                    ("median", Json::Num(s.median)),
                    ("min", Json::Num(lo)),
                    ("max", Json::Num(hi)),
                    ("n", Json::Num(s.n as f64)),
                ]),
            );
        }
    }

    pub fn fact(&mut self, key: &str, value: Json) {
        self.facts.push((key.to_string(), value));
    }

    /// `{"name": {"value": v, "unit": u}, ...}` for the metrics the contract
    /// asks for: the end-to-end ones untraced, the per-layer ones traced.
    /// The contract wants every listed name on every workload, so here, and
    /// only here, a per-layer metric the workload has no reading for is 0;
    /// the result file and the printed table leave it out.
    pub fn contract_metrics(&self, traced: bool) -> Json {
        Json::Obj(
            metrics::all()
                .into_iter()
                .filter(|(_, m)| metrics::is_end_to_end(m.class) != traced)
                .map(|(name, m)| {
                    let value = self.get(&name).unwrap_or(0.0);
                    (
                        name,
                        Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
                    )
                })
                .collect(),
        )
    }

    /// The last line of standard output.
    pub fn contract_line(&self, traced: bool) -> String {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.contract_metrics(traced)),
        ])
        .write()
    }

    /// Everything measured, for `out/result-<workload>.json`.
    pub fn to_json(&self) -> Json {
        let table = metrics::all();
        let rows = self
            .values
            .iter()
            .map(|(name, value)| {
                let meta = table.iter().find(|(n, _)| n == name).map(|(_, m)| m);
                let mut fields = vec![
                    ("value".to_string(), Json::Num(*value)),
                    ("unit".to_string(), Json::str(meta.map_or("", |m| m.unit))),
                ];
                if let Some(s) = self.summaries.get(name) {
                    fields.push(("n".to_string(), Json::Num(s.n as f64)));
                    fields.push(("q1".to_string(), Json::Num(s.q1)));
                    fields.push(("q3".to_string(), Json::Num(s.q3)));
                }
                match meta.map(|m| m.class) {
                    Some(Class::ExactCount) => fields.push((
                        "exact".to_string(),
                        Json::Bool(!self.varying_counts.contains(name)),
                    )),
                    Some(Class::LooseCount) => {
                        fields.push(("exact".to_string(), Json::Bool(false)))
                    }
                    _ => {}
                }
                (name.clone(), Json::Obj(fields))
            })
            .collect();
        let mut fields = vec![
            ("workload".to_string(), Json::str(self.workload)),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            (
                "failures".to_string(),
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
        ];
        fields.extend(self.facts.iter().cloned());
        fields.push(("metrics".to_string(), Json::Obj(rows)));
        Json::Obj(fields)
    }

    /// One line per metric measured, for the human reading the output.
    pub fn print_table(&self) {
        let table = metrics::all();
        for (name, meta) in &table {
            let Some(value) = self.values.get(name) else {
                continue;
            };
            let spread = self.summaries.get(name).map_or(String::new(), |s| {
                format!("  (n={}, q1={:.6}, q3={:.6})", s.n, s.q1, s.q3)
            });
            let better = match meta.better {
                metrics::Better::Lower => "lower",
                metrics::Better::Higher => "higher",
            };
            println!(
                "{:<10} {:<36} {:>16.6} {:<6} ({better} is better){spread}",
                self.workload, name, value, meta.unit
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_line_has_every_metric_of_its_class_and_parses_back() {
        let mut r = Report::new("scan");
        r.attempted = 84;
        r.set_median("run_s", &[0.5, 0.4, 0.6], 1.0);
        r.set("peak_rss_mb", 123.456);
        r.set("setup_s", 0.25);
        r.set_count("dataflow.shuffles", &[0.0, 0.0]);
        r.set_count("dataflow.morsels", &[8.0, 9.0]);
        let untraced = Json::parse(&r.contract_line(false)).unwrap();
        let Json::Obj(fields) = &untraced else {
            panic!("the contract line is an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = untraced.get("metrics") else {
            panic!("metrics is an object");
        };
        assert_eq!(metrics.len(), 3);
        assert_eq!(
            untraced
                .get("metrics")
                .unwrap()
                .get("run_s")
                .unwrap()
                .get("value"),
            Some(&Json::Num(0.5))
        );
        let traced = Json::parse(&r.contract_line(true)).unwrap();
        let Some(Json::Obj(layer)) = traced.get("metrics") else {
            panic!("metrics is an object");
        };
        assert_eq!(layer.len(), crate::metrics::all().len() - 3);
        assert!(layer
            .iter()
            .all(|(_, v)| v.get("value").is_some() && v.get("unit").is_some()));
        assert_eq!(r.varying_counts, ["dataflow.morsels"]);
        assert_eq!((r.attempted, r.failed), (85, 0), "one count had to repeat");

        // No reading, no entry: the result file has no 0 that reads as a win.
        r.set("exec.scaling_2w_x", f64::NAN);
        assert_eq!(r.get("exec.scaling_2w_x"), None);
        assert!(r
            .to_json()
            .get("metrics")
            .unwrap()
            .get("hit_p50_ms")
            .is_none());

        // A count that has to repeat and does not fails the run.
        r.set_count("dataflow.shuffled_records", &[10.0, 11.0]);
        assert_eq!((r.attempted, r.failed), (86, 1));
        r.failed = 0;
        r.fail("boom".into());
        assert_eq!(
            Json::parse(&r.contract_line(false)).unwrap().get("correct"),
            Some(&Json::Bool(false))
        );
    }
}
