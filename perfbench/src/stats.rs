//! Order statistics for timing samples.
//!
//! Every timing the benchmark reports is a median plus the highest
//! percentile that still has at least ten samples beyond it, together
//! with the sample count: a p99 over 200 samples is two samples, which is
//! noise, so it is not printed.

/// Median (mean of the middle pair for an even count). `0.0` when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100). `0.0` when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Percentiles considered for the tail of a [`Summary`], highest first.
const TAILS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Median, supported tail percentile, and sample count of one timing.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median sample.
    pub median: f64,
    /// `(p, value)` for the highest percentile in [`TAILS`] with at least
    /// ten samples beyond it, if any.
    pub tail: Option<(f64, f64)>,
}

/// Summarize a set of timing samples.
pub fn summarize(samples: &[f64]) -> Summary {
    let n = samples.len();
    let tail = TAILS
        .iter()
        .find(|&&p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .map(|&p| (p, percentile(samples, p)));
    Summary { n, median: median(samples), tail }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "median {:.6}", self.median)?;
        if let Some((p, v)) = self.tail {
            write!(f, "  p{p} {v:.6}")?;
        }
        write!(f, "  (n={})", self.n)
    }
}

/// Geometric mean of positive values. `0.0` when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(summarize(&v).tail.map(|t| t.0), Some(99.0));
        assert_eq!(summarize(&v[..200]).tail.map(|t| t.0), Some(95.0));
        assert_eq!(summarize(&v[..8]).tail, None);
    }

    #[test]
    fn geomean_of_equal_values() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }
}
