//! Order statistics over timing samples.

/// The `p`-th quantile (`0.0..=1.0`) of an ascending slice, interpolating
/// linearly between the two nearest ranks.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Sample count, quartiles and the 90th percentile of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub p90: f64,
}

/// Summarises `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Summary {
        n: sorted.len(),
        q1: quantile_sorted(&sorted, 0.25),
        median: quantile_sorted(&sorted, 0.5),
        q3: quantile_sorted(&sorted, 0.75),
        p90: quantile_sorted(&sorted, 0.9),
    })
}

/// Median of `samples`; NaN, which no report records, when there are none
/// (a layer that did not run).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(f64::NAN, |s| s.median)
}

/// How much slower the `traced` repetitions were than the `plain` ones they
/// alternated with, in percent of the plain one: the median over the pairs
/// of neighbours, which share the machine's state of the moment.
pub fn slowdown_pct(plain: &[f64], traced: &[f64]) -> f64 {
    let pairs: Vec<f64> = plain
        .iter()
        .zip(traced)
        .map(|(p, t)| 100.0 * (t / p - 1.0))
        .collect();
    median(&pairs)
}

/// Geometric mean of positive ratios, NaN when there are none.
pub fn geomean(ratios: &[f64]) -> f64 {
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_known_samples() {
        let s = summarize(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
        assert!((s.p90 - 4.6).abs() < 1e-12);
        let even = summarize(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(even.median, 2.5);
        assert_eq!(even.q1, 1.75);
    }

    #[test]
    fn percentile_ends_and_single_sample() {
        let sorted = [10.0, 20.0, 30.0];
        assert_eq!(quantile_sorted(&sorted, 0.0), 10.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 30.0);
        assert_eq!(quantile_sorted(&[7.0], 0.9), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn slowdown_is_the_median_over_neighbouring_pairs() {
        // The machine slows down half way; each pair still differs by 1 %.
        let plain = [1.0, 1.0, 2.0, 2.0, 2.0];
        let traced = [1.01, 1.01, 2.02, 2.02, 2.02];
        assert!((slowdown_pct(&plain, &traced) - 1.0).abs() < 1e-9);
        assert!(slowdown_pct(&[], &[]).is_nan());
    }
}
