//! Spans recorded around the spine's own calls into each layer.
//!
//! A [`Tracer`] is either on or off. Off, [`Tracer::span`] only calls its
//! closure and reads no clock, so the untraced pass and the traced pass run
//! the same code and differ by the clock reads alone. Spans stay in memory
//! until the workload ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// 1-based; unique within one trace file.
    pub id: u32,
    /// Id of the span that caused this one, 0 for none.
    pub parent: u32,
    /// Repetition (or request block) the span belongs to.
    pub rep: u32,
    pub name: &'static str,
    /// Program slug the span worked on, inherited from the parent; empty
    /// when the span is not about one program.
    pub program: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Machine speed while the span's repetition ran (see `calib`); 1 until
    /// [`Tracer::end_rep`] sets it.
    pub speed: f64,
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    /// The span's duration at nominal machine speed, in microseconds.
    pub fn micros(&self) -> f64 {
        self.raw_micros() * self.speed
    }

    pub fn raw_micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Indexes into `spans` of the spans still open, outermost first.
    open: Vec<usize>,
    rep: u32,
    /// Index of the first span of the current repetition.
    rep_from: usize,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
            rep_from: 0,
        }
    }

    /// A recording tracer; tracers of several threads share one `epoch` so
    /// their spans line up on one time axis.
    pub fn on(epoch: Instant) -> Tracer {
        Tracer {
            on: true,
            epoch,
            ..Tracer::off()
        }
    }

    /// Spans recorded from now on belong to repetition `rep`.
    pub fn begin_rep(&mut self, rep: u32) {
        self.rep = rep;
        self.rep_from = self.spans.len();
    }

    /// Stamps the machine speed measured around the current repetition on
    /// every span recorded since [`Tracer::begin_rep`].
    pub fn end_rep(&mut self, speed: f64) {
        for s in &mut self.spans[self.rep_from..] {
            s.speed = speed;
        }
    }

    /// Runs `f` inside a span named `name` about the same program as the
    /// enclosing span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let program = self.open.last().map_or("", |&i| self.spans[i].program);
        self.program_span(name, program, f)
    }

    /// Runs `f` inside a span about `program`.
    pub fn program_span<T>(
        &mut self,
        name: &'static str,
        program: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().map_or(0, |&i| self.spans[i].id);
        self.spans.push(Span {
            id: index as u32 + 1,
            parent,
            rep: self.rep,
            name,
            program,
            start_ns: 0,
            end_ns: 0,
            speed: 1.0,
            attrs: Vec::new(),
        });
        self.open.push(index);
        self.spans[index].start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        out
    }

    /// Attaches a number to the innermost open span.
    pub fn attr(&mut self, key: &'static str, value: f64) {
        if let Some(&i) = self.open.last() {
            self.spans[i].attrs.push((key, value));
        }
    }

    /// Spans recorded so far.
    pub fn recorded(&self) -> usize {
        self.spans.len()
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// What the tracer itself costs a repetition that records `spans` spans, in
/// percent of an untraced repetition of `rep_s` seconds. Recording a span is
/// two clock reads and a push, timed here over 20 000 empty spans. The
/// difference between traced and untraced repetitions is that small number
/// plus the noise of both, which on the baseline box is a thousand times
/// larger, so it cannot stand for the overhead (it is still recorded, as
/// the fact `traced_vs_untraced_pct`).
pub fn overhead_pct(spans: f64, rep_s: f64) -> f64 {
    const PROBES: u32 = 20_000;
    let mut t = Tracer::on(Instant::now());
    let start = Instant::now();
    t.span("spine.probe", |t| {
        for _ in 0..PROBES {
            t.span("spine.probe", |_| ());
        }
    });
    let per_span_s = start.elapsed().as_secs_f64() / f64::from(PROBES);
    std::hint::black_box(t.into_spans());
    100.0 * spans * per_span_s / rep_s
}

/// Joins the spans of several tracers into one list with unique ids.
pub fn merge(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for part in parts {
        let base = all.len() as u32;
        all.extend(part.into_iter().map(|mut s| {
            s.id += base;
            if s.parent != 0 {
                s.parent += base;
            }
            s
        }));
    }
    all
}

/// Self time of every span, in `spans` order, on the raw clock: its duration
/// minus the part of that interval its child spans cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            let mut reach = s.start_ns;
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Microseconds per repetition spent in spans called `name` (about
/// `program`, when given), one sample per repetition that has such a span.
pub fn micros_per_rep(spans: &[Span], name: &str, program: Option<&str>) -> Vec<f64> {
    let mut per_rep: BTreeMap<u32, f64> = BTreeMap::new();
    for s in spans {
        if s.name == name && program.is_none_or(|p| p == s.program) {
            *per_rep.entry(s.rep).or_default() += s.micros();
        }
    }
    per_rep.into_values().collect()
}

/// The largest share of a span called `root` that is its own self time, in
/// percent: how much of a repetition no child span explains.
pub fn unexplained_pct(spans: &[Span], root: &str) -> f64 {
    let selfs = self_times_ns(spans);
    spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == root && s.end_ns > s.start_ns)
        .map(|(s, own)| 100.0 * *own as f64 / (s.end_ns - s.start_ns) as f64)
        .fold(0.0, f64::max)
}

pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    let selfs = self_times_ns(spans);
    let rows = spans
        .iter()
        .zip(selfs)
        .map(|(s, own)| {
            let mut fields = vec![
                ("id".to_string(), Json::Num(s.id as f64)),
                ("parent".to_string(), Json::Num(s.parent as f64)),
                ("rep".to_string(), Json::Num(s.rep as f64)),
                ("name".to_string(), Json::str(s.name)),
                ("program".to_string(), Json::str(s.program)),
                ("start_us".to_string(), Json::Num(s.start_ns as f64 / 1e3)),
                ("end_us".to_string(), Json::Num(s.end_ns as f64 / 1e3)),
                ("raw_us".to_string(), Json::Num(s.raw_micros())),
                ("self_raw_us".to_string(), Json::Num(own as f64 / 1e3)),
                ("speed".to_string(), Json::Num(s.speed)),
                ("us".to_string(), Json::Num(s.micros())),
            ];
            fields.extend(s.attrs.iter().map(|(k, v)| (k.to_string(), Json::Num(*v))));
            Json::Obj(fields)
        })
        .collect();
    Json::obj([
        ("workload", Json::str(workload)),
        ("spans", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            rep: 0,
            name: "t",
            program: "",
            start_ns,
            end_ns,
            speed: 1.0,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        // root 0..100; children 10..30 and 20..50 overlap, 90..120 overhangs;
        // grandchild 12..18 belongs to the first child only.
        let mut spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),
            span(4, 1, 90, 120),
            span(5, 2, 12, 18),
        ];
        spans[0].name = "root";
        assert_eq!(self_times_ns(&spans), vec![50, 14, 30, 30, 6]);
        assert_eq!(unexplained_pct(&spans, "root"), 50.0);
    }

    #[test]
    fn tracer_nests_and_inherits_the_program() {
        let mut t = Tracer::on(Instant::now());
        t.begin_rep(2);
        t.span("earlier", |_| ());
        t.end_rep(1.0);
        t.begin_rep(3);
        t.program_span("spine.program", "word_count", |t| {
            t.span("exec.run", |t| t.attr("rows", 7.0));
            t.span("exec.collect", |_| ());
        });
        t.end_rep(0.5);
        let mut spans = t.into_spans();
        assert_eq!(
            spans.remove(0).speed,
            1.0,
            "an earlier repetition keeps its speed"
        );
        assert!(spans
            .iter()
            .all(|s| s.speed == 0.5 && s.micros() == s.raw_micros() / 2.0));
        for s in &mut spans {
            s.id -= 1;
            s.parent = s.parent.saturating_sub(1);
        }
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].parent, spans[2].parent), (1, 1));
        assert!(spans
            .iter()
            .all(|s| s.program == "word_count" && s.rep == 3));
        assert_eq!(spans[1].attrs, vec![("rows", 7.0)]);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert_eq!(
            micros_per_rep(&spans, "exec.run", Some("word_count")).len(),
            1
        );
        assert!(micros_per_rep(&spans, "exec.run", Some("other")).is_empty());
    }

    #[test]
    fn overhead_grows_with_the_spans_and_shrinks_with_the_repetition() {
        let one = overhead_pct(1_000.0, 1.0);
        // A span costs well under 10 µs on any machine: 1 000 of them are
        // under 1 % of a second.
        assert!(one > 0.0 && one < 1.0, "{one}");
        assert!(overhead_pct(1_000.0, 0.001) > 100.0 * one);
        assert_eq!(overhead_pct(0.0, 1.0), 0.0);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", |t| t.span("y", |_| 5)), 5);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn merge_keeps_ids_unique_and_parents_linked() {
        let a = vec![span(1, 0, 0, 10), span(2, 1, 1, 2)];
        let b = vec![span(1, 0, 5, 9), span(2, 1, 6, 7)];
        let all = merge(vec![a, b]);
        assert_eq!(
            all.iter().map(|s| (s.id, s.parent)).collect::<Vec<_>>(),
            vec![(1, 0), (2, 1), (3, 0), (4, 3)]
        );
    }
}
