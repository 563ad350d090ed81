//! Order statistics over timing samples.
//!
//! Percentiles are nearest-rank order statistics (the same convention
//! as `tob_svd::protocol::LatencyStats`), so an "exact" metric computed
//! from seeded-scheduler ticks repeats bit-for-bit.

/// A sorted sample.
pub struct Sample(Vec<f64>);

impl Sample {
    /// Sorts `values`; NaNs are a caller bug and sort last.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        Sample(values)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile, `p` in (0, 1]; 0.0 on an empty sample.
    pub fn percentile(&self, p: f64) -> f64 {
        let n = self.0.len();
        if n == 0 {
            return 0.0;
        }
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        self.0[rank - 1]
    }

    /// Percentile of a sample quantised to buckets `width` wide (a value
    /// `v` stands for `[v, v + width)`, as a latency counted in clock
    /// ticks does): the nearest-rank bucket, entered as far as the rank
    /// reaches into the samples sharing it.
    pub fn quantised_percentile(&self, p: f64, width: f64) -> f64 {
        let n = self.0.len();
        if n == 0 {
            return 0.0;
        }
        let v = self.percentile(p);
        let below = self.0.partition_point(|x| *x < v);
        let sharing = self.0.partition_point(|x| *x <= v) - below;
        let into = ((p * n as f64 - below as f64) / sharing as f64).clamp(0.0, 1.0);
        v + width * into
    }

    /// Samples strictly beyond the nearest-rank position of `p`.
    pub fn beyond(&self, p: f64) -> usize {
        let n = self.0.len();
        if n == 0 {
            return 0;
        }
        n - ((p * n as f64).ceil() as usize).clamp(1, n)
    }

    /// The highest of p50/p90/p95/p99/p99.9 that still has at least ten
    /// samples beyond it — the tail a sample of this size supports.
    pub fn supported_tail(&self) -> (&'static str, f64) {
        const LADDER: [(&str, f64); 5] = [
            ("p99.9", 0.999),
            ("p99", 0.99),
            ("p95", 0.95),
            ("p90", 0.90),
            ("p50", 0.50),
        ];
        for (label, p) in LADDER {
            if self.beyond(p) >= 10 {
                return (label, self.percentile(p));
            }
        }
        ("max", self.0.last().copied().unwrap_or(0.0))
    }

    /// Interpolated median (mean of the two middle values when even).
    pub fn median(&self) -> f64 {
        let n = self.0.len();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => self.0[n / 2],
            _ => (self.0[n / 2 - 1] + self.0[n / 2]) / 2.0,
        }
    }

    /// First and third quartile, interpolated at rank `p·(n + 1)` and
    /// clamped to the sample (what Python's `statistics.quantiles` gives
    /// by default, and so what the benchmark driver computes its spreads
    /// from).
    pub fn quartiles(&self) -> (f64, f64) {
        let n = self.0.len();
        let at = |p: f64| {
            let rank = (p * (n + 1) as f64).clamp(1.0, n.max(1) as f64);
            let below = rank.floor() as usize;
            let frac = rank - below as f64;
            let lo = self.0.get(below - 1).copied().unwrap_or(0.0);
            let hi = self.0.get(below).copied().unwrap_or(lo);
            lo + frac * (hi - lo)
        };
        (at(0.25), at(0.75))
    }

    /// One line for the run log of a timing repeated a few times: count,
    /// quartiles around the median, range.
    pub fn describe_reps(&self, unit: &str) -> String {
        let (q1, q3) = self.quartiles();
        format!(
            "n={} q1={q1:.3}{unit} median={:.3}{unit} q3={q3:.3}{unit} min={:.3}{unit} max={:.3}{unit}",
            self.len(),
            self.median(),
            self.min(),
            self.max(),
        )
    }

    pub fn min(&self) -> f64 {
        self.0.first().copied().unwrap_or(0.0)
    }

    pub fn max(&self) -> f64 {
        self.0.last().copied().unwrap_or(0.0)
    }

    /// One line for the run log: count, median, supported tail, range.
    pub fn describe(&self, unit: &str) -> String {
        let (label, tail) = self.supported_tail();
        format!(
            "n={} p50={:.3}{unit} {label}={:.3}{unit} min={:.3}{unit} max={:.3}{unit}",
            self.len(),
            self.percentile(0.5),
            tail,
            self.min(),
            self.max(),
        )
    }
}

/// Largest value; 0 when empty (every sample here is non-negative).
pub fn max_of(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(0.0, f64::max)
}

pub fn median(values: &[f64]) -> f64 {
    Sample::new(values.to_vec()).median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s = Sample::new((1..=100).map(f64::from).collect());
        assert_eq!(s.percentile(0.50), 50.0);
        assert_eq!(s.percentile(0.99), 99.0);
        assert_eq!(s.percentile(1.0), 100.0);
        assert_eq!(s.beyond(0.99), 1);
        assert_eq!(s.beyond(0.50), 50);
        // p50 of 4 samples is the 2nd, never an interpolation.
        assert_eq!(Sample::new(vec![4.0, 1.0, 3.0, 2.0]).percentile(0.5), 2.0);
        assert_eq!(Sample::new(Vec::new()).percentile(0.5), 0.0);
    }

    #[test]
    fn quantised_percentile_interpolates_inside_the_bucket() {
        // 10 samples in bucket [100, 104), 10 in [104, 108).
        let s = Sample::new([vec![100.0; 10], vec![104.0; 10]].concat());
        assert_eq!(s.quantised_percentile(0.25, 4.0), 102.0);
        assert_eq!(s.quantised_percentile(0.50, 4.0), 104.0);
        assert_eq!(s.quantised_percentile(0.75, 4.0), 106.0);
        assert_eq!(s.quantised_percentile(1.0, 4.0), 108.0);
        assert_eq!(Sample::new(Vec::new()).quantised_percentile(0.5, 4.0), 0.0);
    }

    #[test]
    fn supported_tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond, p99.9 only 1.
        let s = Sample::new((1..=1000).map(f64::from).collect());
        assert_eq!(s.supported_tail(), ("p99", 990.0));
        // 600 samples: p99 has 6 beyond, p95 has 30.
        let s = Sample::new((1..=600).map(f64::from).collect());
        assert_eq!(s.supported_tail(), ("p95", 570.0));
        // 6 samples support nothing beyond the maximum.
        let s = Sample::new((1..=6).map(f64::from).collect());
        assert_eq!(s.supported_tail(), ("max", 6.0));
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = Sample::new((1..=10).map(f64::from).collect());
        assert_eq!(s.quartiles(), (2.75, 8.25));
        // Three reps: the quartiles are the extremes.
        assert_eq!(Sample::new(vec![5.0, 7.0, 6.0]).quartiles(), (5.0, 7.0));
        assert_eq!(Sample::new(vec![5.0]).quartiles(), (5.0, 5.0));
        assert_eq!(Sample::new(Vec::new()).quartiles(), (0.0, 0.0));
    }

    #[test]
    fn median_interpolates_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(max_of([3.0, 1.0, 2.0]), 3.0);
        assert_eq!(max_of([]), 0.0);
    }
}
