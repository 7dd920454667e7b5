//! Lint sweep over every Fig. 3 workload program.
//!
//! `diabloc lint` must stay quiet on the paper's own benchmark
//! programs, except for the documented allow-lists below: workloads
//! that group by *data* (word counts, histograms, key join products)
//! genuinely shuffle on every run, and the D020 shuffle forecast is
//! supposed to say so; workloads that expand rows over a loop range run
//! that stage on the row path, and the D025 row-fallback forecast says so
//! (the second test holds D025 to what the engine actually does). Anything
//! else — a new warning code, or a forecast on a workload that used to
//! compile without it — fails this test so the change gets looked at
//! instead of silently regressing the lints.

use std::collections::BTreeSet;

/// Workloads whose updates are keyed by data rather than by the loop
/// indexes, so Rule (17) cannot eliminate their group-by: the D020
/// shuffle forecast is correct and expected for them.
const ALLOWED_D020: &[&str] = &[
    "Equal Frequency",
    "Word Count",
    "Histogram",
    "Matrix Multiplication",
    "KMeans",
    "PageRank",
    "Matrix Factorization",
    "Group By",
];

/// Workloads with a stage the engine cannot vectorize: each of these
/// zeroes its result matrix by expanding every row over a loop range. (A
/// group-by alone does not count: Equal Frequency, Word Count, Histogram
/// and Group By key and fold typed columns. Nor does a second generator
/// over a collection: the joins of Matrix Addition, PageRank and K-Means
/// and K-Means' cross with its centroids are told to the engine as data.)
const ALLOWED_D025: &[&str] = &["Matrix Multiplication", "Matrix Factorization"];

#[test]
fn fig3_workloads_lint_clean_or_allow_listed() {
    let mut violations = Vec::new();
    let mut warned = BTreeSet::new();
    let mut row_path = BTreeSet::new();
    for (name, src) in diablo_workloads::programs::all_programs() {
        let mut diags = diablo_diag::Diagnostics::new();
        let Some((tp, compiled)) = diablo_core::compile_multi(src, &mut diags) else {
            violations.push(format!("{name}: failed to compile"));
            continue;
        };
        for d in diablo_core::lint_program(&tp, &compiled) {
            if d.code == diablo_diag::codes::SHUFFLE && ALLOWED_D020.contains(&name) {
                warned.insert(name);
            } else if d.code == diablo_diag::codes::ROW_FALLBACK && ALLOWED_D025.contains(&name) {
                row_path.insert(name);
            } else {
                violations.push(format!("{name}: unexpected {}", d.one_line()));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "fig-3 lint sweep found unexpected diagnostics:\n  {}",
        violations.join("\n  ")
    );
    // The allow-lists must also stay honest: every entry still warns, so
    // stale names can't accumulate after a workload is rewritten.
    for name in ALLOWED_D020 {
        assert!(
            warned.contains(name),
            "allow-list entry `{name}` no longer emits D020; remove it"
        );
    }
    for name in ALLOWED_D025 {
        assert!(
            row_path.contains(name),
            "allow-list entry `{name}` no longer emits D025; remove it"
        );
    }
}

/// The D025 forecast against the engine: a Fig. 3 program gets the
/// row-fallback warning exactly when the default engine runs at least one
/// of its stages on the row path.
#[test]
fn d025_fires_iff_a_stage_falls_back_on_the_default_engine() {
    use diablo_dataflow::Context;
    for w in diablo_workloads::figure3_workloads(1, 11) {
        let mut diags = diablo_diag::Diagnostics::new();
        let (tp, compiled) = diablo_core::compile_multi(w.source, &mut diags)
            .unwrap_or_else(|| panic!("{}: failed to compile", w.name));
        let forecast = diablo_core::lint_program(&tp, &compiled)
            .iter()
            .any(|d| d.code == diablo_diag::codes::ROW_FALLBACK);
        let ctx = Context::new(2, 4);
        let mut s = diablo_exec::Session::new(ctx.clone());
        for (name, v) in &w.scalars {
            s.bind_scalar(name, v.clone());
        }
        for (name, rows) in &w.collections {
            s.bind_input(name, rows.clone());
        }
        ctx.start_plan_trace();
        s.run(&compiled)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let trace = ctx.take_plan_trace();
        let fallbacks = ctx.stats().snapshot().row_fallback_stages;
        assert_eq!(
            forecast,
            fallbacks > 0,
            "{}: D025 {} but {fallbacks} stage(s) fell back:\n{}",
            w.name,
            if forecast { "fired" } else { "was silent" },
            trace.join("\n"),
        );
    }
}
