//! K-Means clustering: the paper's hardest translation case.
//!
//! ```sh
//! cargo run --release --example kmeans
//! ```
//!
//! The DIABLO K-Means uses two commutative monoids beyond `+`: the argmin
//! monoid `^` over `(index, distance)` pairs to track the nearest centroid,
//! and element-wise tuple addition to accumulate `(sum_x, sum_y, count)`.
//! The translation computes each step's nearest centroids as an array,
//! `closest`, which one statement reads through a join on the point's key.
//! The compiler splices that array into its reader, so each point meets
//! the broadcast centroids and its argmin is folded where the point lies;
//! only per-centroid partial sums move — the hand-written plan (Fig. 3K).
//! This example runs both plans, checks that they compute the same
//! centroids, and prints the stages and shuffles of each.

use diablo::prelude::*;
use diablo_baselines::handwritten;
use diablo_workloads as wl;

fn main() {
    let n_points = 5_000;
    let grid = 3; // 9 true centroids
    let steps = 3;
    let w = wl::kmeans(n_points, grid, steps, 7);

    let ctx = Context::default_parallel();

    // DIABLO path.
    let compiled = compile(w.source).expect("K-Means satisfies the restrictions");
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

    let mut diablo_centroids: Vec<(f64, f64)> = session
        .collect("C")
        .unwrap()
        .into_iter()
        .map(|row| {
            let (_, xy) = diablo::runtime::array::key_value(&row).unwrap();
            let f = xy.as_tuple().unwrap();
            (f[0].as_double().unwrap(), f[1].as_double().unwrap())
        })
        .collect();

    // Hand-written path (broadcast + reduceByKey).
    let points = ctx.from_vec(w.collections[0].1.clone());
    let initial: Vec<(f64, f64)> = w.collections[1]
        .1
        .iter()
        .map(|row| {
            let (_, xy) = diablo::runtime::array::key_value(row).unwrap();
            let f = xy.as_tuple().unwrap();
            (f[0].as_double().unwrap(), f[1].as_double().unwrap())
        })
        .collect();
    let before = ctx.stats().snapshot();
    let mut hand_centroids = handwritten::kmeans(&points, &initial, steps).expect("runs");
    let hstats = ctx.stats().snapshot().since(&before);

    diablo_centroids.sort_by(|a, b| a.partial_cmp(b).unwrap());
    hand_centroids.sort_by(|a, b| a.partial_cmp(b).unwrap());

    assert_eq!(
        diablo_centroids.len(),
        hand_centroids.len(),
        "both plans compute every centroid"
    );
    println!("centroids after {steps} steps:");
    println!("{:>24} {:>24}", "DIABLO", "hand-written");
    for (d, h) in diablo_centroids.iter().zip(&hand_centroids) {
        println!(
            "({:>8.4}, {:>8.4})    ({:>8.4}, {:>8.4})",
            d.0, d.1, h.0, h.1
        );
        assert!(
            (d.0 - h.0).abs() < 1e-6 && (d.1 - h.1).abs() < 1e-6,
            "plans must agree"
        );
    }

    println!("\nthe two plans over {steps} steps:");
    for (plan, stats) in [("DIABLO", &dstats), ("hand-written", &hstats)] {
        println!(
            "  {plan:<13} {:>3} stages, {:>3} shuffles, {:>6} rows shuffled",
            stats.physical_stages, stats.shuffles, stats.shuffled_records
        );
    }
}
