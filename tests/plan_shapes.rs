//! Plan-shape tests: the engine statistics expose how each translated
//! program executes (shuffles, broadcasts, rows moved), so the claims the
//! paper makes about *plans* — not just results — are checkable.

use diablo_core::compile;
use diablo_dataflow::{Context, StatsSnapshot};
use diablo_exec::Session;
use diablo_runtime::Value;
use diablo_workloads as wl;

/// A session on `ctx` with the workload's inputs bound.
fn session_for(w: &wl::Workload, ctx: &Context) -> Session {
    let mut s = Session::new(ctx.clone());
    for (n, v) in &w.scalars {
        s.bind_scalar(n, v.clone());
    }
    for (n, rows) in &w.collections {
        s.bind_input(n, rows.clone());
    }
    s
}

/// Runs a workload and returns the statistics delta for the run.
fn stats_of(w: &wl::Workload, ctx: &Context) -> StatsSnapshot {
    let compiled = compile(w.source).expect("compiles");
    let mut s = session_for(w, ctx);
    let before = ctx.stats().snapshot();
    s.run(&compiled).expect("runs");
    ctx.stats().snapshot().since(&before)
}

#[test]
fn scalar_aggregations_do_not_shuffle() {
    // Rule (16) turns `sum += v` into a distributed reduce with partial
    // aggregation — no shuffle at all.
    let ctx = Context::new(2, 8);
    let stats = stats_of(&wl::sum(5_000, 1), &ctx);
    assert_eq!(stats.shuffles, 0, "{stats:?}");
}

#[test]
fn word_count_shuffles_only_combined_partials() {
    // Map-side combining bounds the shuffle by partitions × distinct keys,
    // not by input size.
    let ctx = Context::new(2, 8);
    let n = 20_000;
    let distinct = 1_000;
    let stats = stats_of(&wl::word_count(n, 2), &ctx);
    assert!(stats.shuffles >= 1);
    assert!(
        stats.shuffled_records <= (8 * distinct + distinct) as u64 * 2,
        "combiner failed: {stats:?}"
    );
}

#[test]
fn elementwise_increment_uses_no_group_by_shuffle() {
    // Rule (17): `V[i] += W[i]` needs only the merge's exchange, not a
    // group-by — the update bag is W itself.
    let ctx = Context::new(2, 4);
    let src = "input W: vector[long];
               var V: vector[long] = vector();
               for i = 0, 999 do V[i] += W[i];";
    let compiled = compile(src).unwrap();
    let mut s = Session::new(ctx.clone());
    s.bind_input(
        "W",
        (0..1000)
            .map(|i| Value::pair(Value::Long(i), Value::Long(i)))
            .collect(),
    );
    let before = ctx.stats().snapshot();
    s.run(&compiled).unwrap();
    let stats = ctx.stats().snapshot().since(&before);
    // The update is W's rows under W's own keys, merged into the empty V:
    // no exchange at all. A surviving group-by would shuffle W.
    assert_eq!(stats.shuffles, 0, "{stats:?}");
}

#[test]
fn diablo_kmeans_shuffles_orders_of_magnitude_more_than_handwritten() {
    // The Fig. 3K story, as a hard assertion.
    let ctx = Context::new(2, 4);
    let w = wl::kmeans(500, 3, 1, 5);
    let diablo = stats_of(&w, &ctx);

    let points = ctx.from_vec(w.collections[0].1.clone());
    let initial: Vec<(f64, f64)> = w.collections[1]
        .1
        .iter()
        .map(|row| {
            let (_, xy) = diablo_runtime::array::key_value(row).unwrap();
            let f = xy.as_tuple().unwrap();
            (f[0].as_double().unwrap(), f[1].as_double().unwrap())
        })
        .collect();
    let before = ctx.stats().snapshot();
    diablo_baselines::handwritten::kmeans(&points, &initial, 1).unwrap();
    let hand = ctx.stats().snapshot().since(&before);

    assert!(
        diablo.shuffled_records > 10 * hand.shuffled_records.max(1),
        "diablo {diablo:?} vs hand-written {hand:?}"
    );
    assert!(
        diablo.broadcasts >= 1,
        "centroid array is broadcast: {diablo:?}"
    );
}

#[test]
fn matrix_multiplication_plans_share_the_join_group_shape() {
    // DIABLO's generated plan and the hand-written plan both shuffle for
    // one join and one reduceByKey over the same data; rows moved should
    // be within a small factor.
    let ctx = Context::new(2, 4);
    let w = wl::matrix_multiplication(12, 6);
    let diablo = stats_of(&w, &ctx);

    let m = ctx.from_vec(w.collections[0].1.clone());
    let n = ctx.from_vec(w.collections[1].1.clone());
    let before = ctx.stats().snapshot();
    diablo_baselines::handwritten::matrix_multiplication(&m, &n).unwrap();
    let hand = ctx.stats().snapshot().since(&before);

    assert!(diablo.shuffles >= hand.shuffles, "{diablo:?} vs {hand:?}");
    assert!(
        diablo.shuffled_records <= hand.shuffled_records * 8,
        "same asymptotic movement: {diablo:?} vs {hand:?}"
    );
}

#[test]
fn broadcast_only_for_unlinked_generators() {
    // A pure join program must not broadcast anything.
    let ctx = Context::new(2, 4);
    let stats = stats_of(&wl::matrix_addition(12, 3), &ctx);
    assert_eq!(stats.broadcasts, 0, "{stats:?}");
}

#[test]
fn narrow_chain_of_three_ops_is_one_physical_stage() {
    // The acceptance bar for the lazy plan layer: a chain of ≥ 3 narrow
    // operators must execute as exactly 1 fused per-partition stage.
    let ctx = Context::new(2, 4);
    let d = ctx.from_vec(
        (0..1000)
            .map(|i| Value::pair(Value::Long(i), Value::Long(i % 7)))
            .collect(),
    );
    let chained = d
        .map(|row| Ok(diablo_runtime::array::key_value(row)?.1))
        .expect("map")
        .filter(|v| Ok(v.as_long().unwrap_or(0) != 3))
        .expect("filter")
        .flat_map(|v| Ok(vec![v.clone(), v.clone()]))
        .expect("flat_map");
    let before = ctx.stats().snapshot();
    let rows = chained.collect();
    let after = ctx.stats().snapshot().since(&before);
    assert_eq!(after.physical_stages, 1, "3 narrow ops, 1 stage: {after:?}");
    assert_eq!(after.shuffles, 0, "{after:?}");
    assert_eq!(rows.len(), 2000 - 2 * (1000_usize.div_ceil(7)));
}

#[test]
fn translated_word_count_fuses_its_narrow_prologue() {
    // Word Count's pre-shuffle pipeline (scan → bind → let → key) must run
    // as one fused stage feeding the reduceByKey combiner: 2 physical
    // stages for the aggregation, and none for merging its one row per
    // word into the empty `C`.
    let ctx = Context::new(2, 4);
    let stats = stats_of(&wl::word_count(5_000, 2), &ctx);
    assert!(
        stats.physical_stages <= 2,
        "narrow prologue must fuse: {stats:?}"
    );
    // The same plan touched many more logical operators than stages.
    assert!(stats.stages > stats.physical_stages, "{stats:?}");
}

#[test]
fn session_explain_renders_fused_plan() {
    let compiled = compile(wl::word_count(100, 1).source).expect("compiles");
    let w = wl::word_count(100, 1);
    let ctx = Context::new(2, 4);
    let mut s = Session::new(ctx.clone());
    for (n, rows) in &w.collections {
        s.bind_input(n, rows.clone());
    }
    let plan = s.explain(&compiled).expect("explains");
    assert!(plan.contains("fused"), "{plan}");
    assert!(plan.contains("reduce_by_key"), "{plan}");
    assert!(plan.contains("shuffle"), "{plan}");
}

#[test]
fn plan_trace_notes_the_layout_per_stage_under_the_columnar_backend() {
    // Satellite of the columnar engine: the executed-plan trace (the same
    // lines `Session::explain` renders) carries a per-stage layout note —
    // `layout: columnar` for a transparent chain, `layout: row (…)`
    // naming the opaque step when a UDF forces the tuple path.
    use diablo_dataflow::RowExpr;

    let ctx = Context::new(2, 4).with_tile_width(64);
    let d = ctx.from_vec((0..200).map(Value::Long).collect());

    ctx.start_plan_trace();
    let _ = d
        .map_expr(RowExpr::Bin(
            diablo_runtime::BinOp::Mul,
            Box::new(RowExpr::Input),
            Box::new(RowExpr::Const(Value::Long(3))),
        ))
        .expect("map_expr")
        .collect();
    let trace = ctx.take_plan_trace().join("\n");
    assert!(
        trace.contains("layout: columnar"),
        "transparent chain must be noted columnar: {trace}"
    );

    ctx.start_plan_trace();
    let _ = d.map(|v| Ok(v.clone())).expect("map").collect();
    let trace = ctx.take_plan_trace().join("\n");
    assert!(
        trace.contains("layout: row (opaque map)"),
        "opaque chain must name its row-path reason: {trace}"
    );

    // A driver layer names its closures; the note quotes the name.
    ctx.start_plan_trace();
    let _ = d
        .map_as("keyed map", |v| Ok(Value::pair(v.clone(), Value::Long(1))))
        .expect("map_as")
        .collect();
    let trace = ctx.take_plan_trace().join("\n");
    assert!(
        trace.contains("layout: row (opaque keyed map)"),
        "the note must name the opaque step: {trace}"
    );
}

#[test]
fn scan_programs_run_as_one_vectorized_reduce_per_aggregation() {
    // Fig. 3 A, B, C, F on the default engine: every total aggregation is
    // one stage that ends in the engine's reduce — not a materialized bag
    // folded on the driver — and every one of those stages is columnar.
    // Statement lines vary with fresh-name counters, so the golden is the
    // stage lines.

    let golden: [(wl::Workload, &[&str]); 4] = [
        (
            wl::conditional_sum(2_000, 1),
            &["stage 1: scan[4p] → map → filter → map ⇒ reduce (partial fold) (fused 3 narrow ops)"],
        ),
        (
            wl::equal(2_000, 1),
            &["stage 1: scan[4p] → map → map ⇒ reduce (partial fold) (fused 2 narrow ops)"],
        ),
        (
            wl::string_match(2_000, 1),
            &["stage 1: scan[4p] → map → map → map → map ⇒ reduce (partial fold) (fused 4 narrow ops)"],
        ),
        (
            wl::linear_regression(2_000, 1),
            &[
                "stage 1: scan[4p] → map → map ⇒ reduce (partial fold) (fused 2 narrow ops)",
                "stage 2: scan[4p] → map → map ⇒ reduce (partial fold) (fused 2 narrow ops)",
                "stage 3: scan[4p] → map → map → map ⇒ reduce (partial fold) (fused 3 narrow ops)",
                "stage 4: scan[4p] → map → map → map ⇒ reduce (partial fold) (fused 3 narrow ops)",
                "stage 5: scan[4p] → map → map → map ⇒ reduce (partial fold) (fused 3 narrow ops)",
            ],
        ),
    ];
    for (w, stages) in golden {
        let ctx = Context::new(2, 4);
        let compiled = compile(w.source).expect("compiles");
        let plan = session_for(&w, &ctx).explain(&compiled).expect("explains");
        let got: Vec<&str> = plan
            .lines()
            .map(str::trim)
            .filter(|l| l.starts_with("stage ") || l.starts_with("layout:"))
            .collect();
        let want: Vec<&str> = stages
            .iter()
            .flat_map(|stage| [*stage, "layout: columnar"])
            .collect();
        assert_eq!(got, want, "{}:\n{plan}", w.name);
    }
}

#[test]
fn a_comprehension_under_local_bindings_reads_datasets_on_the_driver() {
    // The other side of the rule above: a nested `+/{ … V … }` under a
    // binding of its enclosing comprehension cannot run on the engine once
    // per binding, so the driver reads `V` and folds it. A group-by before
    // any distributed source puts the rest of the comprehension there:
    //   { (k, +/x + +/{ w | (j, w) ← V, j == k }) | let x = 4,
    //                                               group by k : x % 3 }
    // No source program reaches it, so it is built by hand.
    use diablo_comp::ir::{Comprehension, Pattern, Qual};
    use diablo_comp::CExpr;
    use diablo_runtime::{AggOp, BinOp};

    let sum = |e: CExpr| CExpr::Agg(AggOp::new(BinOp::Add).unwrap(), Box::new(e));
    let bin = |op, a, b| CExpr::Bin(op, Box::new(a), Box::new(b));
    let row_k = Comprehension::new(
        CExpr::var("w"),
        vec![
            Qual::Gen(
                Pattern::pair(Pattern::var("j"), Pattern::var("w")),
                CExpr::var("V"),
            ),
            Qual::Pred(CExpr::eq(CExpr::var("j"), CExpr::var("k"))),
        ],
    );
    let c = Comprehension::new(
        CExpr::pair(
            CExpr::var("k"),
            bin(BinOp::Add, sum(CExpr::var("x")), sum(CExpr::Comp(row_k))),
        ),
        vec![
            Qual::Let(Pattern::var("x"), CExpr::long(4)),
            Qual::GroupBy(
                Pattern::var("k"),
                bin(BinOp::Mod, CExpr::var("x"), CExpr::long(3)),
            ),
        ],
    );
    let ctx = Context::new(2, 4);
    let mut s = Session::new(ctx.clone());
    s.bind_input(
        "V",
        (0..4)
            .map(|i| Value::pair(Value::Long(i), Value::Long(10 * (i + 1))))
            .collect(),
    );
    ctx.start_plan_trace();
    let rows = diablo_exec::run_comp(&c, &s).unwrap().collect_sorted();
    let trace = ctx.take_plan_trace().join("\n");
    assert_eq!(rows, vec![Value::pair(Value::Long(1), Value::Long(24))]);
    assert!(!trace.contains("reduce"), "{trace}");
}

#[test]
fn keyed_programs_combine_and_rebind_in_columnar_stages() {
    // Fig. 3 D, E, G on the default engine: each `d[k] ⊕= e` into its
    // freshly declared (empty) array is two stages — combine + scatter,
    // then reduce → group bind → head, which is the array: a group-by
    // emits each key once, so there is nothing to merge. The keyed map
    // and the group bind are expressions, so both stages run columnar and
    // none falls back.

    const COMBINE: &str =
        "scan[4p] → map → map → map ⇒ reduce_by_key (combine + scatter) (fused 3 narrow ops)";
    const REDUCE: &str =
        "scan[4p] → reduce_by_key (reduce) → map → map ⇒ materialize (fused 3 narrow ops)";
    for (w, updates) in [
        (wl::word_count(2_000, 1), 1),
        (wl::histogram(2_000, 1), 3),
        (wl::group_by(2_000, 1), 1),
    ] {
        let ctx = Context::new(2, 4);
        let compiled = compile(w.source).expect("compiles");
        let plan = session_for(&w, &ctx).explain(&compiled).expect("explains");
        // Stage numbers aside, the golden is the stage and layout lines.
        let got: Vec<&str> = plan
            .lines()
            .map(str::trim)
            .filter_map(|l| match l.strip_prefix("stage ") {
                Some(rest) => rest.split_once(": ").map(|(_, stage)| stage),
                None => l.starts_with("layout:").then_some(l),
            })
            .collect();
        // Every update combines at its statement; the results are lazy
        // and reduce when the run settles them.
        let mut want: Vec<&str> = Vec::new();
        for stage in [COMBINE, REDUCE] {
            for _ in 0..updates {
                want.extend([stage, "layout: columnar"]);
            }
        }
        assert_eq!(got, want, "{}:\n{plan}", w.name);
        let skipped = "merge into empty `";
        assert_eq!(plan.matches(skipped).count(), updates, "{plan}");
        assert!(plan.contains("update keys unique (group-by)"), "{plan}");
        let stats = stats_of(&w, &ctx);
        assert_eq!(stats.physical_stages, 2 * updates as u64, "{stats:?}");
        assert_eq!(stats.shuffles, updates as u64, "{stats:?}");
        assert_eq!(stats.row_fallback_stages, 0, "{stats:?}");
        assert!(stats.vectorized_batches > 0, "{stats:?}");
    }
}

#[test]
fn loop_programs_join_and_cross_in_columnar_stages() {
    // Fig. 3 J and K on the default engine, one loop step each. A second
    // generator linked by an equality is the engine's join: its side, far
    // under the build cap, is built into one key table that a transparent
    // step of the other side's chain probes, so neither side is scattered;
    // and K-Means' centroids are the same probe on the constant key, inside
    // the stage that scans the points. An update whose keys are unique
    // into an array that holds no rows is no merge at all. Every stage
    // with steps in it runs columnar.

    const SCATTER_OLD: &str = "scan[4p] ⇒ merge (scatter old)";
    const MERGE: &str = "scan[4p] → merge ⊳ (combine slots) ⇒ materialize";
    const REDUCE: &str = "scan[4p] → reduce_by_key (reduce) → map → map ⇒ merge (scatter updates) \
                          (fused 3 narrow ops)";
    let pagerank_step: &[&str] = &[
        // Q[i, j] := P[i] over the edges: `P` is built, keyed by E's
        // unique (i, j), into the `Q := {}` of the step's top — no merge.
        // `Q` stays lazy: its probe of `P` runs in its reader's stage.
        "join build: 60 rows (cap 65536), probed in the left stage",
        // P[i] := (1 - b) / vertices, lazy too: its slot combine runs in
        // the next merge's old-side scatter.
        SCATTER_OLD,
        "scan[4p] → map → map → map ⇒ merge (scatter updates) (fused 3 narrow ops)",
        // P[i] += b * Q[j, i] / C[j]: `C` is built, and E's scan probes
        // `P`, then `C`, into a keyed sum.
        "join build: 60 rows (cap 65536), probed in the left stage",
        "scan[4p] → map → filter → filter → filter → flat_map → map → map → map → filter → \
         filter → flat_map → map → map ⇒ reduce_by_key (combine + scatter) (fused 13 narrow ops) \
         [spans stmts: s10:Q, s12:P]",
        "scan[4p] → merge ⊳ (combine slots) ⇒ merge (scatter old)",
        REDUCE,
        MERGE,
    ];
    let kmeans_step: &[&str] = &[
        // closest[i] := (0, 1e12), one row per range index into the empty
        // `closest` — no merge, and lazy: it runs in the next merge's
        // old-side scatter.
        // closest[i] ^= (j, distance): P × C into a keyed argmin.
        "scan[4p] → map → filter → flat_map → filter → map → map → map → map → map ⇒ \
         reduce_by_key (combine + scatter) (fused 9 narrow ops)",
        "scan[4p] → map → map → map ⇒ merge (scatter old) (fused 3 narrow ops)",
        REDUCE,
        // avg[closest[i]._1] += (x, y, 1): the lazy `closest` combines its
        // slots in the stage that computes it for its build, and P's scan
        // probes it into a keyed sum, one row per group into the empty
        // `avg` — no merge.
        MERGE,
        "join build: 300 rows (cap 65536), probed in the left stage",
        "scan[4p] → map → filter → map → flat_map → map ⇒ reduce_by_key (combine + scatter) \
         (fused 5 narrow ops)",
        // C[i] := avg[i] / count, the lazy `avg` reduced in its scatter.
        SCATTER_OLD,
        "scan[4p] → reduce_by_key (reduce) → map → map → map → filter → map → map ⇒ \
         merge (scatter updates) (fused 7 narrow ops) [spans stmts: s9:avg, s10:C]",
        MERGE,
    ];
    // (workload, the step's first statement, its stages, and the whole
    // run's stage and shuffle counts)
    for (w, first, step, stages, shuffles) in [
        (wl::pagerank(60, 1, 7), "s10:", pagerank_step, 11, 8),
        (wl::kmeans(300, 2, 1, 7), "s7:", kmeans_step, 9, 6),
    ] {
        let ctx = Context::new(2, 4);
        let compiled = compile(w.source).expect("compiles");
        let plan = session_for(&w, &ctx).explain(&compiled).expect("explains");
        // Stage numbers aside, the golden is the stage, layout and join
        // build lines from the loop body's first statement on.
        let got: Vec<&str> = plan
            .lines()
            .map(str::trim)
            .skip_while(|l| !l.starts_with(&format!("== {first}")))
            .filter_map(|l| match l.strip_prefix("stage ") {
                Some(rest) => rest.split_once(": ").map(|(_, stage)| stage),
                None => (l.starts_with("layout:") || l.starts_with("join ")).then_some(l),
            })
            .collect();
        // A layout line follows every stage that has steps of its own.
        let want: Vec<&str> = step
            .iter()
            .flat_map(|stage| {
                let steps = stage.contains(" → map") || stage.contains(" → filter");
                std::iter::once(*stage).chain(steps.then_some("layout: columnar"))
            })
            .collect();
        assert_eq!(got, want, "{}:\n{plan}", w.name);
        let stats = stats_of(&w, &ctx);
        assert_eq!(stats.physical_stages, stages, "{stats:?}");
        assert_eq!(stats.shuffles, shuffles, "{stats:?}");
        assert_eq!(stats.row_fallback_stages, 0, "{stats:?}");
        assert!(stats.vectorized_batches > 0, "{stats:?}");
    }
}

/// A join keyed by a record.
const OPAQUE_KEY_JOIN: &str = "input A: vector[long];
     input B: map[<|k: long|>, long];
     var W: vector[long] = vector();
     for i = 0, 99 do W[i] := A[i] + B[<|k = i|>];";

/// [`OPAQUE_KEY_JOIN`] over a `B` of `b_rows` rows: a session with the
/// inputs bound, the compiled program, and its `explain`.
fn opaque_key_join(b_rows: i64) -> (Session, diablo_core::CompiledProgram, String) {
    let ctx = Context::new(2, 4);
    let mut s = Session::new(ctx);
    s.bind_input(
        "A",
        (0..100)
            .map(|i| Value::pair(Value::Long(i), Value::Long(i * i)))
            .collect(),
    );
    s.bind_input(
        "B",
        (0..b_rows)
            .map(|i| {
                let key = Value::record(vec![("k".into(), Value::Long(i))]);
                Value::pair(key, Value::Long(-i))
            })
            .collect(),
    );
    let compiled = compile(OPAQUE_KEY_JOIN).expect("compiles");
    let plan = s.explain(&compiled).expect("explains");
    (s, compiled, plan)
}

#[test]
fn a_join_with_an_opaque_key_computes_it_in_a_row_step_first() {
    // A record has no columnar form, so a join keyed by one binds the key
    // with an opaque `let` first — on the side that needs it — and the
    // engine joins on that column: `B`, under the build cap, is built and
    // probed from the row step's stage. D025 forecasts it.

    let (mut s, compiled, plan) = opaque_key_join(100);
    assert!(plan.contains("join build: 100 rows (cap 65536)"), "{plan}");
    assert!(!plan.contains("scatter"), "{plan}");
    assert!(
        plan.contains("layout: row (opaque let from s1:W)"),
        "{plan}"
    );
    s.run(&compiled).expect("runs");
    let rows = s.collect("W").expect("bound");
    assert_eq!(rows.len(), 100);
    assert!(rows.contains(&Value::pair(Value::Long(7), Value::Long(42))));
    let mut diags = diablo_diag::Diagnostics::new();
    let (tp, compiled) = diablo_core::compile_multi(OPAQUE_KEY_JOIN, &mut diags).expect("compiles");
    let d025 = diablo_core::lint_program(&tp, &compiled)
        .into_iter()
        .find(|d| d.code == diablo_diag::codes::ROW_FALLBACK)
        .expect("D025 forecasts the opaque key");
    assert!(
        d025.message.contains("record constructor"),
        "{}",
        d025.message
    );
}

#[test]
fn a_join_with_an_opaque_key_over_the_build_cap_scatters_both_sides() {
    // The same join with `B` one row over the build cap: both sides are
    // scattered by the key column, the left one from the row step's stage.
    let (mut s, compiled, plan) = opaque_key_join((1 << 16) + 1);
    assert!(
        plan.contains("join partitioned: 65537 rows over the cap 65536"),
        "{plan}"
    );
    assert!(plan.contains("⇒ join (scatter left)"), "{plan}");
    assert!(
        plan.contains("layout: row (opaque let from s1:W)"),
        "{plan}"
    );
    s.run(&compiled).expect("runs");
    let rows = s.collect("W").expect("bound");
    assert_eq!(rows.len(), 100);
    assert!(rows.contains(&Value::pair(Value::Long(7), Value::Long(42))));
}

#[test]
fn a_group_by_with_an_opaque_key_computes_it_in_a_row_step_first() {
    // A record has no columnar form, so a group-by keyed by one binds the
    // key with an opaque `let` first — one more fused step, named in the
    // layout note and forecast by D025 — and then keys and folds as usual.

    const SRC: &str = "input V: vector[long];
         var C: map[<|k: long|>, long] = map();
         for v in V do C[<|k = v|>] += 1;";
    let ctx = Context::new(2, 4);
    let mut s = Session::new(ctx);
    s.bind_input(
        "V",
        (0..200)
            .map(|i| Value::pair(Value::Long(i), Value::Long(i % 9)))
            .collect(),
    );
    let plan = s
        .explain(&compile(SRC).expect("compiles"))
        .expect("explains");
    assert!(
        plan.contains("scan[4p] → map → map → map → map ⇒ reduce_by_key (combine + scatter)"),
        "{plan}"
    );
    assert!(
        plan.contains("layout: row (opaque let from s1:C)"),
        "{plan}"
    );
    let mut diags = diablo_diag::Diagnostics::new();
    let (tp, compiled) = diablo_core::compile_multi(SRC, &mut diags).expect("compiles");
    assert!(
        diablo_core::lint_program(&tp, &compiled)
            .iter()
            .any(|d| d.code == diablo_diag::codes::ROW_FALLBACK),
        "D025 forecasts the opaque key"
    );
}

#[test]
fn fig3_programs_stay_within_their_stage_and_shuffle_counts() {
    // The checked cost of every plan rule: physical stages and shuffles of
    // the twelve Fig. 3 programs at fixed sizes. A change may lower an
    // entry, never raise one. The comment on each row is what the program
    // cost while every merge into an empty array ran as a cogroup, and for
    // the loops what they cost while every loop-body statement
    // materialized, and while every join scattered both sides.

    let want: [(&str, u64, u64); 12] = [
        ("Conditional Sum", 1, 0),       // 1, 0
        ("Equal", 1, 0),                 // 1, 0
        ("String Match", 1, 0),          // 1, 0
        ("Word Count", 2, 1),            // 4, 3
        ("Histogram", 6, 3),             // 12, 9
        ("Linear Regression", 5, 0),     // 5, 0
        ("Group By", 2, 1),              // 4, 3
        ("Matrix Addition", 3, 2),       // 5, 4
        ("Matrix Multiplication", 5, 4), // 8, 7 (6, 5 before §5 blocks)
        ("PageRank", 17, 13), // 37, 29; 29, 21 with eager loop bodies; 25, 21 partitioned joins
        ("KMeans", 9, 6),     // 19, 14; 13, 8 with eager loop bodies; 10, 8 partitioned joins
        // 48, 37 (36, 25 before §5 blocks); 35, 24 eager bodies; 31, 24 partitioned joins
        ("Matrix Factorization", 22, 14),
    ];
    let got: Vec<(&str, u64, u64)> = wl::figure3_workloads(1, 42)
        .iter()
        .map(|w| {
            let ctx = Context::new(2, 4);
            let stats = stats_of(w, &ctx);
            (w.name, stats.physical_stages, stats.shuffles)
        })
        .collect();
    assert_eq!(got, want);
}

#[test]
fn stage_counts_grow_with_program_complexity() {
    let ctx = Context::new(2, 4);
    let simple = stats_of(&wl::sum(1_000, 1), &ctx);
    let complex = stats_of(&wl::matrix_factorization(8, 2, 1, 2), &ctx);
    assert!(
        complex.stages > simple.stages * 3,
        "MF ({}) should dwarf Sum ({})",
        complex.stages,
        simple.stages
    );
}
