//! The engine differential: the one plan walker must be invisible in
//! results. Every Figure 3 workload runs under a grid of engine
//! configurations — layout × exchange budget {unbounded, 4 KiB, 0},
//! cycling through worker counts {1, 2, 7}, tile widths {1, 7, default}
//! and dataset budgets
//! {unbounded, 4 KiB} so that each value meets each layout — and every
//! output must be *byte-identical* (exact `Value` equality, not
//! approximate) to a one-worker row-layout reference run.
//! (`tests/equivalence.rs` ties the default layout to the interpreter.)
//! Separately, injected failures across many small partitions must
//! surface the same first error and statement tag no matter how the
//! partitions were stolen or cancelled.

mod common;

use common::Engine;
use diablo_dataflow::{Context, Layout, DEFAULT_TILE_WIDTH};
use diablo_exec::Session;
use diablo_runtime::{RuntimeError, Value};
use diablo_workloads::Workload;

/// Partition count is pinned across every configuration: partitioning is
/// semantics (it decides chunk boundaries and shuffle fan-in), while
/// layout, workers, tile width and budgets are pure execution policy and
/// must not show through.
const PARTITIONS: usize = 5;

/// One engine configuration under test.
struct Cfg {
    engine: Engine,
    workers: usize,
    dataset_budget: Option<u64>,
}

impl Cfg {
    fn context(&self) -> Context {
        let ctx = self.engine.context(self.workers, PARTITIONS);
        ctx.set_dataset_budget(self.dataset_budget);
        ctx
    }

    fn label(&self) -> String {
        let dataset = match self.dataset_budget {
            Some(b) => format!("dataset budget {b}"),
            None => "dataset unbounded".to_string(),
        };
        format!("{} w{} {dataset}", self.engine, self.workers)
    }
}

/// The grid: each layout under each exchange budget, with workers, tile
/// width and dataset budget cycling — shifted by one between the layouts,
/// so each value meets each layout and different budgets.
fn engine_grid() -> Vec<Cfg> {
    const WORKERS: [usize; 3] = [1, 2, 7];
    const TILES: [usize; 3] = [1, 7, DEFAULT_TILE_WIDTH];
    const DATASET: [Option<u64>; 2] = [None, Some(4096)];
    let mut grid = Vec::new();
    for (l, layout) in [Layout::Row, Layout::Columnar].into_iter().enumerate() {
        for (b, budget) in [None, Some(4096), Some(0)].into_iter().enumerate() {
            let i = l + b;
            let engine = Engine {
                layout,
                tile_width: TILES[b],
                memory_budget: budget,
            };
            grid.push(Cfg {
                engine,
                workers: WORKERS[i % 3],
                dataset_budget: DATASET[i % 2],
            });
        }
    }
    grid
}

/// The reference: one worker, the row layout, nothing bounded.
fn reference_cfg() -> Cfg {
    Cfg {
        engine: Engine::ROW,
        workers: 1,
        dataset_budget: None,
    }
}

/// Compiles and runs a workload on the given context, returning every
/// declared output as `(name, scalar, rows)`.
type Outputs = Vec<(String, Option<Value>, Option<Vec<Value>>)>;

fn run_workload(w: &Workload, ctx: Context) -> Outputs {
    let compiled =
        diablo_core::compile(w.source).unwrap_or_else(|e| panic!("{}: compile: {e}", w.name));
    let mut session = Session::new(ctx);
    for (name, v) in &w.scalars {
        session.bind_scalar(name, v.clone());
    }
    for (name, rows) in &w.collections {
        session.bind_input(name, rows.clone());
    }
    session
        .run(&compiled)
        .unwrap_or_else(|e| panic!("{}: run: {e}", w.name));
    w.outputs
        .iter()
        .map(|out| {
            (
                (*out).to_string(),
                session.scalar(out),
                session.collect(out),
            )
        })
        .collect()
}

#[test]
fn fig3_outputs_are_byte_identical_across_engine_configs_hash() {
    let grid = engine_grid();
    // Per configuration, over all workloads: (spill files, tiles run).
    let mut exercised = vec![(0, 0); grid.len()];
    for w in diablo_workloads::figure3_workloads(1, 42) {
        let reference = run_workload(&w, reference_cfg().context());
        for (cfg, seen) in grid.iter().zip(&mut exercised) {
            let ctx = cfg.context();
            let got = run_workload(&w, ctx.clone());
            assert_eq!(
                got,
                reference,
                "{}: `{}` is not byte-identical to the one-worker reference",
                w.name,
                cfg.label()
            );
            let stats = ctx.stats().snapshot();
            seen.0 += stats.spill_files;
            seen.1 += stats.vectorized_batches;
        }
    }
    // The grid really ran what it names: a zero exchange budget spills,
    // and the columnar layout runs tiles.
    for (cfg, (spills, tiles)) in grid.iter().zip(exercised) {
        let label = cfg.label();
        if cfg.engine.memory_budget == Some(0) {
            assert!(spills > 0, "`{label}` never spilled");
        }
        assert_eq!(tiles > 0, cfg.engine.columnar(), "`{label}`");
    }
}

/// Rows `10_000..15_000` cut into partitions of `size` rows, between two
/// 10-row edge partitions: many small items for the pool to steal and,
/// past a failure, cancel.
fn small_parts(size: usize) -> Vec<Vec<Value>> {
    let mut parts = vec![(0..10).map(Value::Long).collect::<Vec<_>>()];
    let middle: Vec<Value> = (10_000..15_000).map(Value::Long).collect();
    parts.extend(middle.chunks(size).map(<[Value]>::to_vec));
    parts.push((20_000..20_010).map(Value::Long).collect());
    parts
}

/// Runs a poisoned map over [`small_parts`] and returns the surfaced
/// error. Three rows fail — 11_000 and 14_000 in different middle
/// partitions (so work stealing races them) and 20_005 in the last
/// partition — and only the canonically-first one (row 11_000) may ever
/// surface, with its statement tag intact.
fn poisoned_run(ctx: Context, size: usize) -> RuntimeError {
    ctx.set_statement_label(Some("s7: C := poisoned morsel map"));
    let d = diablo_dataflow::Dataset::from_partitions(ctx.clone(), small_parts(size))
        .map(|v| match v.as_long() {
            Some(11_000) => Err(RuntimeError::new("boom at the first poisoned row")),
            Some(14_000) => Err(RuntimeError::new("boom at a later morsel")),
            Some(20_005) => Err(RuntimeError::new("boom in the last partition")),
            _ => Ok(v.clone()),
        })
        .unwrap();
    ctx.set_statement_label(None);
    d.try_collect().unwrap_err()
}

#[test]
fn midmorsel_failures_surface_the_same_first_error_everywhere() {
    let reference = poisoned_run(reference_cfg().context(), 64);
    assert!(
        reference.message.contains("boom at the first poisoned row"),
        "reference picked the wrong row: {reference}"
    );
    assert!(
        reference.message.contains("s7: C := poisoned morsel map"),
        "reference lost the statement tag: {reference}"
    );
    for cfg in engine_grid() {
        let got = poisoned_run(cfg.context(), 64);
        assert_eq!(
            got.message,
            reference.message,
            "`{}` surfaced a different first error",
            cfg.label()
        );
    }
}

#[test]
fn statement_tags_survive_stolen_and_cancelled_morsels() {
    // Partitions of one to three rows on a wide pool maximize steal
    // traffic and the number of in-flight items the poison flag must
    // cancel; the tagged error must still come out whole every time.
    for trial in 0..5 {
        let layout = [Layout::Row, Layout::Columnar][trial % 2];
        let ctx = Context::new(7, PARTITIONS).with_layout(layout);
        let err = poisoned_run(ctx, 1 + trial % 3);
        assert!(
            err.message.contains("boom at the first poisoned row")
                && err.message.contains("s7: C := poisoned morsel map"),
            "trial {trial}: first error or tag lost under stealing: {err}"
        );
    }
}
