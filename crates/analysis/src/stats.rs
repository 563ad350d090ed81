//! Summary statistics.

use serde::{Deserialize, Serialize};

/// Summary statistics of a sample.
///
/// ```
/// use tobsvd_analysis::Summary;
/// let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0]).unwrap();
/// assert!((s.mean - 2.5).abs() < 1e-9);
/// assert!((s.median - 2.5).abs() < 1e-9);
/// ```
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (average of middle two for even sizes).
    pub median: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n = 1).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// 10th percentile (nearest-rank).
    pub p10: f64,
    /// 90th percentile (nearest-rank).
    pub p90: f64,
}

impl Summary {
    /// Computes statistics; returns `None` for empty or non-finite data.
    pub fn from_slice(data: &[f64]) -> Option<Summary> {
        if data.is_empty() || data.iter().any(|x| !x.is_finite()) {
            return None;
        }
        let n = data.len();
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        let var = if n > 1 {
            sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0)
        } else {
            0.0
        };
        let pct = |p: f64| {
            let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
            sorted[rank - 1]
        };
        Some(Summary {
            n,
            mean,
            median,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            p10: pct(0.10),
            p90: pct(0.90),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_statistics() {
        let s = Summary::from_slice(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert!((s.min - 1.0).abs() < 1e-12);
        assert!((s.max - 4.0).abs() < 1e-12);
        // Sample std of 1..4 is sqrt(5/3).
        assert!((s.std_dev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn odd_length_median() {
        let s = Summary::from_slice(&[5.0, 1.0, 3.0]).unwrap();
        assert!((s.median - 3.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let data: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::from_slice(&data).unwrap();
        assert!((s.p10 - 10.0).abs() < 1e-12);
        assert!((s.p90 - 90.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(Summary::from_slice(&[]).is_none());
        assert!(Summary::from_slice(&[f64::NAN]).is_none());
        assert!(Summary::from_slice(&[f64::INFINITY]).is_none());
        let s = Summary::from_slice(&[7.0]).unwrap();
        assert_eq!(s.std_dev, 0.0);
    }
}
