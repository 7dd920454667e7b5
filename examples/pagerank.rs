//! PageRank from an imperative loop nest, end to end.
//!
//! ```sh
//! cargo run --release --example pagerank
//! ```
//!
//! The paper's Appendix B PageRank is an imperative program over an edge
//! matrix `E[i, j]`, out-degree counts `C`, and a rank vector `P`, iterated
//! with a `while` loop; the `while` stays sequential on the driver (§3.8).
//! DIABLO translates each step's for-loops to one scan of the edges that
//! probes `P` and `C`, each built into a key table every worker shares, and
//! a reduce-by-key of the contributions. The step's reset
//! `P[i] := (1 - b) / vertices` is a range fill: it covers every key of `P`,
//! so `P` becomes the fill, and the rank update's merge generates the
//! fill's rows where it combines the contributions.
//!
//! The example checks every vertex's rank against plain sequential loops
//! over the edge list, runs the hand-written engine program (links/join/
//! flatMap/reduceByKey) and compares the top-ranked vertices with it, and
//! prints the stages and shuffles of both plans.

use diablo::prelude::*;
use diablo_baselines::handwritten;
use diablo_workloads as wl;

/// Relative tolerance against the sequential loops: the engine adds a
/// vertex's contributions in another order.
const TOLERANCE: f64 = 1e-12;

/// The ranks after `steps` steps of the program's loops, run one edge at a
/// time: a vertex with no in-links keeps the reset `(1 - b) / vertices`.
fn sequential(edges: &[(usize, usize)], vertices: usize, steps: usize) -> Vec<f64> {
    let b = 0.85;
    let mut out_degree = vec![0u64; vertices];
    for &(src, _) in edges {
        out_degree[src] += 1;
    }
    let mut rank = vec![1.0 / vertices as f64; vertices];
    for _ in 0..steps {
        let mut next = vec![(1.0 - b) / vertices as f64; vertices];
        for &(src, dst) in edges {
            next[dst] += b * rank[src] / out_degree[src] as f64;
        }
        rank = next;
    }
    rank
}

fn main() {
    let vertices = 200;
    let steps = 3;
    let w = wl::pagerank(vertices, steps, 42);

    // DIABLO path: compile the loop program and run it.
    let compiled = compile(w.source).expect("PageRank satisfies the restrictions");
    let ctx = Context::default_parallel();
    let mut session = Session::new(ctx.clone());
    for (name, v) in &w.scalars {
        session.bind_scalar(name, v.clone());
    }
    for (name, rows) in &w.collections {
        session.bind_input(name, rows.clone());
    }
    let before = ctx.stats().snapshot();
    session.run(&compiled).expect("runs");
    let dstats = ctx.stats().snapshot().since(&before);

    let pairs = |rows: Vec<Value>| -> Vec<(i64, f64)> {
        rows.into_iter()
            .map(|row| {
                let (k, v) = diablo::runtime::array::key_value(&row).unwrap();
                (k.as_long().unwrap(), v.as_double().unwrap())
            })
            .collect()
    };
    let diablo_ranks = pairs(session.collect("P").unwrap());

    // Every vertex against the sequential loops over the edges `E` holds.
    let edges: Vec<(usize, usize)> = w.collections[0]
        .1
        .iter()
        .filter_map(|row| {
            let (k, v) = diablo::runtime::array::key_value(row).unwrap();
            let ij = k.as_tuple().unwrap();
            let edge = (
                ij[0].as_long().unwrap() as usize,
                ij[1].as_long().unwrap() as usize,
            );
            v.as_bool().unwrap().then_some(edge)
        })
        .collect();
    let want = sequential(&edges, vertices, steps);
    assert_eq!(diablo_ranks.len(), vertices, "every vertex has a rank");
    let linked: std::collections::HashSet<usize> = edges.iter().map(|&(_, dst)| dst).collect();
    for &(v, rank) in &diablo_ranks {
        let expected = want[v as usize];
        assert!(
            (rank - expected).abs() <= TOLERANCE * expected.abs(),
            "vertex {v}: rank {rank}, sequential loops {expected}"
        );
        // No contribution is added to the fill's value: it stays exact.
        if !linked.contains(&(v as usize)) {
            assert_eq!(rank, expected, "vertex {v} has no in-links");
        }
    }
    println!("all {vertices} ranks match the sequential loops within {TOLERANCE:e} ✓");

    // Hand-written path (Appendix B).
    let e = ctx.from_vec(w.collections[0].1.clone());
    let before = ctx.stats().snapshot();
    let hand = handwritten::pagerank(&e, vertices as i64, steps).expect("hand-written runs");
    let hand_ranks = pairs(hand.collect());
    let hstats = ctx.stats().snapshot().since(&before);

    let by_rank = |mut ranks: Vec<(i64, f64)>| {
        ranks.sort_by(|a, b| b.1.total_cmp(&a.1));
        ranks
    };
    let (diablo_ranks, hand_ranks) = (by_rank(diablo_ranks), by_rank(hand_ranks));
    println!("\ntop 5 vertices (DIABLO)       top 5 vertices (hand-written)");
    for i in 0..5 {
        let (dv, dr) = diablo_ranks[i];
        let (hv, hr) = hand_ranks[i];
        println!("  v{dv:<6} rank {dr:.6}        v{hv:<6} rank {hr:.6}");
    }

    // The two programs agree on who matters (the hand-written version
    // drops vertices with no in-links, so compare the head of the list).
    let d_top: Vec<i64> = diablo_ranks.iter().take(5).map(|(v, _)| *v).collect();
    let h_top: Vec<i64> = hand_ranks.iter().take(5).map(|(v, _)| *v).collect();
    assert_eq!(d_top, h_top, "both plans rank the same top vertices");
    println!("top-5 agreement between DIABLO and hand-written ✓");

    println!("\nthe two plans over {steps} steps:");
    for (plan, stats) in [("DIABLO", &dstats), ("hand-written", &hstats)] {
        println!(
            "  {plan:<13} {:>3} stages, {:>3} shuffles, {:>6} rows shuffled",
            stats.physical_stages, stats.shuffles, stats.shuffled_records
        );
    }
}
