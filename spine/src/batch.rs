//! The five batch workloads: a repetition runs each of the workload's
//! Fig. 3 programs once, from source text to collected rows, on one engine.

use std::time::Instant;

use diablo_dataflow::{Context, StatsSnapshot};
use diablo_runtime::Value;
use diablo_workloads::Workload;

use crate::calib::{self, Bracket};
use crate::json::Json;
use crate::metrics::run_us_name;
use crate::oracle::{checksum, mismatch, Outputs};
use crate::programs::{self, Prog};
use crate::report::Report;
use crate::sizes::{self, BatchSpec, PROBE_REPS, WARMUP_REPS};
use crate::stats::{geomean, median, slowdown_pct};
use crate::trace::{micros_per_rep, Span, Tracer};
use crate::{probes, Opts};

struct Item {
    prog: Prog,
    w: Workload,
    /// Expected outputs, from [`programs::reference`].
    want: Outputs,
}

pub struct Batch {
    spec: &'static BatchSpec,
    items: Vec<Item>,
    /// Target statements of the workload's compiled programs.
    target_stmts: usize,
    /// The engine the repetitions run on.
    ctx: Context,
}

/// What one repetition did.
struct Rep {
    /// Wall seconds as measured, and at nominal machine speed.
    raw_s: f64,
    wall_s: f64,
    speed: f64,
    stats: StatsSnapshot,
    checksum: u64,
}

/// The engine under test: default backend and policy, plus the workload's
/// budgets if it has any.
fn engine(workers: usize, budgets: Option<(u64, u64)>) -> Context {
    let ctx = Context::new(workers, sizes::PARTITIONS);
    match budgets {
        Some((memory, dataset)) => ctx.with_memory_budget(memory).with_dataset_budget(dataset),
        None => ctx,
    }
}

impl Batch {
    /// Generates the inputs from `seed`, checks the engine against the
    /// interpreter at [`sizes::oracle_size`], and computes the full-size
    /// reference outputs on an engine of its own.
    pub fn setup(spec: &'static BatchSpec, seed: u64) -> Result<Batch, String> {
        let checker = engine(sizes::WORKERS, None);
        let mut items = Vec::new();
        let mut target_stmts = 0;
        for (i, (prog, n)) in spec.programs.iter().enumerate() {
            let err = |e: diablo_runtime::RuntimeError| format!("{}: {e}", prog.slug());
            let seed = seed.wrapping_mul(1_000).wrapping_add(i as u64);
            let small = prog.workload(sizes::oracle_size(*prog), seed);
            let want = programs::run_interpreter(&small).map_err(err)?;
            let got = programs::run_engine(
                &small,
                small.collections.clone(),
                &checker,
                &mut Tracer::off(),
            )
            .map_err(err)?;
            if let Some(why) = mismatch(&got, &want) {
                return Err(format!(
                    "{}: engine and interpreter disagree: {why}",
                    prog.slug()
                ));
            }
            let w = prog.workload(*n, seed);
            let want = programs::reference(*prog, &w, &checker).map_err(err)?;
            let compiled = diablo_core::compile(w.source).map_err(|e| e.to_string())?;
            target_stmts += diablo_core::preorder_len(&compiled.stmts);
            items.push(Item {
                prog: *prog,
                w,
                want,
            });
        }
        Ok(Batch {
            spec,
            items,
            target_stmts,
            ctx: engine(sizes::WORKERS, spec.budgets),
        })
    }

    /// One repetition on `ctx`. The clock covers compile → bind → run →
    /// collect of every program; cloning the inputs before and checking the
    /// outputs after are the spine's own work and stay outside it, as do the
    /// calibration loops of `cal` on either side.
    fn repetition(
        &self,
        ctx: &Context,
        rep: u32,
        t: &mut Tracer,
        cal: &mut Bracket,
        report: &mut Report,
    ) -> Rep {
        let inputs: Vec<Vec<(&'static str, Vec<Value>)>> = self
            .items
            .iter()
            .map(|item| item.w.collections.clone())
            .collect();
        t.begin_rep(rep);
        let before = ctx.stats_snapshot();
        let start = Instant::now();
        let results: Vec<_> = t.span("spine.repetition", |t| {
            self.items
                .iter()
                .zip(inputs)
                .map(|(item, rows)| {
                    t.program_span("spine.program", item.prog.slug(), |t| {
                        programs::run_engine(&item.w, rows, ctx, t)
                    })
                })
                .collect()
        });
        let raw_s = start.elapsed().as_secs_f64();
        let stats = ctx.stats_snapshot().since(&before);
        let speed = cal.close();
        t.end_rep(speed);
        let mut sum = 0u64;
        for (item, result) in self.items.iter().zip(results) {
            report.attempted += 1;
            match result {
                Err(e) => report.fail(format!("{} rep {rep}: {e}", item.prog.slug())),
                Ok(got) => {
                    if let Some(why) = mismatch(&got, &item.want) {
                        report.fail(format!("{} rep {rep}: {why}", item.prog.slug()));
                    }
                    sum = sum.rotate_left(1) ^ checksum(&got);
                }
            }
        }
        Rep {
            raw_s,
            wall_s: raw_s * speed,
            speed,
            stats,
            checksum: sum,
        }
    }

    /// Warm-up, then repetitions for `opts.seconds`. A traced run records
    /// spans in every other repetition, so traced and untraced repetitions
    /// share whatever the machine does meanwhile, and then times the
    /// hand-written baselines, the probes and the one-worker engine.
    /// Returns the spans.
    pub fn measure(&self, opts: &Opts, report: &mut Report) -> Result<Vec<Span>, String> {
        let mut off = Tracer::off();
        let mut t = Tracer::on(Instant::now());
        let mut cal = Bracket::open(calib::ENGINE);
        for rep in 0..WARMUP_REPS {
            self.repetition(&self.ctx, rep as u32, &mut off, &mut cal, report);
        }
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        crate::repeat_for(opts.seconds, |rep| {
            if opts.trace && rep % 2 == 1 {
                traced.push(self.repetition(&self.ctx, rep, &mut t, &mut cal, report));
            } else {
                plain.push(self.repetition(&self.ctx, rep, &mut off, &mut cal, report));
            }
        });
        let walls: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
        report.set_median("run_s", &walls, 1.0);
        report.set("peak_rss_mb", crate::host::peak_rss_mb()?);
        let reps: Vec<&Rep> = plain.iter().chain(&traced).collect();
        report.set("spine.reps", reps.len() as f64);
        report.set("core.target_stmts", self.target_stmts as f64);
        for (name, read) in STAT_COUNTS {
            let per_rep: Vec<f64> = reps.iter().map(|r| read(&r.stats) as f64).collect();
            report.set_count(name, &per_rep);
        }
        let cost: Vec<f64> = reps
            .iter()
            .map(|r| r.stats.sched_cost_us as f64 * r.speed)
            .collect();
        report.set("dataflow.sched_cost_us", median(&cost));
        let balance: Vec<f64> = reps
            .iter()
            .filter_map(|r| r.stats.sched_speedup())
            .collect();
        report.set("dataflow.sched_balance_modelled_x", median(&balance));
        // The premise of the workload: every repetition goes out of core
        // under budgets, and none does without.
        let spills = self.spec.budgets.is_some();
        report.check(
            reps.iter().all(|r| {
                (r.stats.spilled_bytes > 0) == spills && (r.stats.dataset_spills > 0) == spills
            }),
            || format!("a repetition spilled where none should, or did not where all should (budgets: {spills})"),
        );
        report.check(reps.iter().all(|r| r.checksum == reps[0].checksum), || {
            "the outputs differ from one repetition to the next".to_string()
        });
        report.fact(
            "output_checksum",
            Json::str(format!("{:016x}", reps[0].checksum)),
        );
        let speeds: Vec<f64> = reps.iter().map(|r| r.speed).collect();
        report.machine_speed(&speeds);
        self.describe(report);
        if !opts.trace {
            return Ok(Vec::new());
        }

        // Both on the raw clock, as the tracer's own cost is.
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
        for rep in 0..PROBE_REPS {
            t.begin_rep(rep as u32);
            t.span("spine.handwritten", |t| {
                self.items.iter().try_for_each(|item| {
                    programs::run_handwritten(item.prog, &item.w, &self.ctx, t).map(drop)
                })
            })
            .map_err(|e| format!("hand-written baseline: {e}"))?;
            t.end_rep(cal.close());
        }
        self.probes(&mut t).map_err(|e| format!("probe: {e}"))?;
        let spans = t.into_spans();
        self.fold_layers(&spans, report);

        // The same repetition on one worker, for the measured scaling.
        let single = engine(1, self.spec.budgets);
        let mut t1 = Tracer::on(Instant::now());
        let mut cal1 = Bracket::open(calib::Load {
            threads: 1,
            ..calib::ENGINE
        });
        for rep in 0..PROBE_REPS {
            self.repetition(&single, rep as u32, &mut t1, &mut cal1, report);
        }
        let mut single_spans = t1.into_spans();
        let run_1w = median(&micros_per_rep(&single_spans, "exec.run", None));
        report.set("exec.run_1w_us", run_1w);
        // Wall-clock scaling means nothing on one core: report only the
        // modelled balance there.
        if crate::host::host_cpus() >= 2 {
            if let Some(run_2w) = report.get("exec.run_us") {
                report.set("exec.scaling_2w_x", run_1w / run_2w);
            }
        }
        for s in &mut single_spans {
            if s.name == "spine.repetition" {
                s.name = "spine.repetition_1w";
            }
        }
        Ok(crate::trace::merge(vec![spans, single_spans]))
    }

    fn fold_layers(&self, spans: &[Span], report: &mut Report) {
        for name in [
            "lang.parse",
            "lang.typecheck",
            "core.restrictions",
            "core.translate",
            "exec.bind",
            "exec.run",
            "exec.collect",
            "baselines.handwritten",
            "dataflow.narrow_chain",
            "dataflow.reduce_by_key",
            "dataflow.group_by_key",
            "dataflow.join",
            "dataflow.merge",
            "dataflow.broadcast",
            "runtime.tile_matmul",
        ] {
            let samples = micros_per_rep(spans, name, None);
            report.set_median(&format!("{name}_us"), &samples, 1.0);
        }
        for kind in ["encode", "decode"] {
            report.set(
                &format!("dataflow.codec_{kind}_mbps"),
                probes::codec_mbps(spans, &format!("dataflow.codec_{kind}")),
            );
        }
        let mut ratios = Vec::new();
        for item in &self.items {
            let slug = item.prog.slug();
            let ours = micros_per_rep(spans, "exec.run", Some(slug));
            report.set_median(&run_us_name(slug), &ours, 1.0);
            let theirs = median(&micros_per_rep(spans, "baselines.handwritten", Some(slug)));
            ratios.push(median(&ours) / theirs);
        }
        report.set("exec.vs_handwritten_x", geomean(&ratios));
        report.fact(
            "repetition_unexplained_pct",
            Json::Num(crate::trace::unexplained_pct(spans, "spine.repetition")),
        );
    }

    /// The probes that fit this workload's inputs.
    fn probes(&self, t: &mut Tracer) -> Result<(), diablo_runtime::RuntimeError> {
        let rows = |prog: Prog, name: &str| -> Option<&[Value]> {
            let item = self.items.iter().find(|i| i.prog == prog)?;
            let (_, rows) = item.w.collections.iter().find(|(n, _)| *n == name)?;
            Some(rows)
        };
        let ctx = &self.ctx;
        if let Some(v) = rows(Prog::ConditionalSum, "V") {
            probes::narrow_chain(ctx, v, t)?;
        }
        if let Some(words) = rows(Prog::WordCount, "words") {
            probes::reduce_by_key(ctx, words, t)?;
        }
        if let Some(v) = rows(Prog::GroupBy, "V") {
            probes::group_by_key(ctx, v, t)?;
        }
        if let (Some(m), Some(n)) = (
            rows(Prog::MatrixAddition, "M"),
            rows(Prog::MatrixAddition, "N"),
        ) {
            probes::join_and_merge(ctx, m, n, t)?;
        }
        if let (Some(m), Some(n)) = (
            rows(Prog::MatrixMultiplication, "M"),
            rows(Prog::MatrixMultiplication, "N"),
        ) {
            probes::tile_matmul(m, n, t)?;
        }
        if let Some(points) = rows(Prog::KMeans, "P") {
            probes::broadcast(ctx, points, t)?;
        }
        let first = &self.items[0].w.collections[0].1;
        probes::codec(first, t)
    }

    /// Engine settings and frozen sizes, so a result describes itself.
    fn describe(&self, report: &mut Report) {
        let s = self.ctx.stats_snapshot();
        let budget = |b: u64| {
            if b == u64::MAX {
                Json::str("unbounded")
            } else {
                Json::Num(b as f64)
            }
        };
        report.fact(
            "engine",
            Json::obj([
                ("backend", Json::str(s.backend)),
                ("workers", Json::Num(s.workers as f64)),
                ("partitions", Json::Num(s.partitions as f64)),
                ("morsel_size", Json::Num(s.morsel_size as f64)),
                ("scheduler", Json::str(s.scheduler)),
                ("ordered", Json::Bool(s.ordered)),
                ("memory_budget", budget(s.memory_budget)),
                ("dataset_budget", budget(s.dataset_budget)),
            ]),
        );
        report.fact(
            "sizes",
            Json::Obj(
                self.spec
                    .programs
                    .iter()
                    .map(|(p, n)| (p.slug().to_string(), Json::Num(*n as f64)))
                    .collect(),
            ),
        );
    }
}

type StatRead = fn(&StatsSnapshot) -> u64;

/// The `dataflow.*` counts: a `StatsSnapshot::since` delta around one
/// repetition.
const STAT_COUNTS: [(&str, StatRead); 15] = [
    ("dataflow.physical_stages", |s| s.physical_stages),
    ("dataflow.shuffles", |s| s.shuffles),
    ("dataflow.shuffled_records", |s| s.shuffled_records),
    ("dataflow.shuffled_bytes", |s| s.shuffled_bytes),
    ("dataflow.broadcast_records", |s| s.broadcast_records),
    ("dataflow.morsels", |s| s.morsels),
    ("dataflow.steals", |s| s.steals),
    ("dataflow.spilled_bytes", |s| s.spilled_bytes),
    ("dataflow.spill_runs", |s| s.spill_files),
    ("dataflow.dataset_spills", |s| s.dataset_spills),
    ("dataflow.dataset_spilled_bytes", |s| {
        s.dataset_spilled_bytes
    }),
    ("dataflow.dataset_evictions", |s| s.dataset_evictions),
    ("dataflow.dataset_recomputes", |s| s.dataset_recomputes),
    ("dataflow.vectorized_batches", |s| s.vectorized_batches),
    ("dataflow.row_fallback_stages", |s| s.row_fallback_stages),
];
