//! Order statistics for the reported metrics.

use serde::{Deserialize, Serialize};

/// A metric's reported value with the spread of the samples behind it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    pub value: f64,
    pub samples: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Spread of the samples as a share of their median.
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)`; one sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        1 => Some((v[0], v[0])),
        _ => {
            let q = |i: usize| {
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some((q(1), q(3)))
        }
    }
}

/// Samples a tail percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

fn rank(n: usize, q: f64) -> usize {
    ((n as f64 * q).ceil() as usize).max(1)
}

/// Nearest-rank `q` quantile.
pub fn nearest_rank(xs: &[f64], q: f64) -> Option<f64> {
    sorted(xs).get(rank(xs.len(), q) - 1).copied()
}

/// Nearest-rank 95th percentile, refused (`None`) when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn p95(xs: &[f64]) -> Option<f64> {
    (xs.len() >= rank(xs.len(), 0.95) + MIN_BEYOND)
        .then(|| nearest_rank(xs, 0.95))
        .flatten()
}

/// Samples needed before [`p95`] reports.
pub const P95_MIN_SAMPLES: usize = 20 * MIN_BEYOND;

/// Summarize `samples` around a separately computed `value` (a pooled
/// percentile, a median of per-op medians, the median itself).
pub fn summarize(value: f64, samples: &[f64]) -> Summary {
    let (q1, q3) = quartiles(samples).unwrap_or((value, value));
    Summary {
        value,
        samples: samples.len(),
        q1,
        median: median(samples).unwrap_or(value),
        q3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some((1.25, 3.75)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), Some((4.5, 7.5)));
        assert_eq!(quartiles(&[9.0]), Some((9.0, 9.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(p95(&xs), None, "199 samples leave 9 beyond rank 190");
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(p95(&xs), Some(190.0));
        assert_eq!(p95(&[]), None);
        assert_eq!(nearest_rank(&[3.0, 1.0, 2.0], 0.95), Some(3.0));
        assert_eq!(nearest_rank(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(P95_MIN_SAMPLES, 200);
    }

    #[test]
    fn summary_keeps_the_value_and_spreads_the_samples() {
        let s = summarize(10.0, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.value, 10.0);
        assert_eq!((s.samples, s.median), (4, 2.5));
        assert!((s.rel_iqr() - 2.5 / 2.5).abs() < 1e-12);
    }
}
