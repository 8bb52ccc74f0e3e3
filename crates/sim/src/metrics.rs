//! Percentile and CDF helpers for experiment reporting.

/// A collection of samples with percentile queries.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The p-th percentile (p in 0..=100), by nearest-rank.
    ///
    /// # Panics
    ///
    /// Panics if no samples were recorded.
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!(!self.values.is_empty(), "no samples");
        self.ensure_sorted();
        let n = self.values.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        self.values[rank.clamp(1, n) - 1]
    }

    /// Minimum sample.
    pub fn min(&mut self) -> f64 {
        self.percentile(0.0001)
    }

    /// Maximum sample.
    pub fn max(&mut self) -> f64 {
        self.percentile(100.0)
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Evenly-spaced CDF points `(value, cumulative_fraction)` for plotting.
    pub fn cdf_points(&mut self, points: usize) -> Vec<(f64, f64)> {
        if self.values.is_empty() {
            return Vec::new();
        }
        self.ensure_sorted();
        let n = self.values.len();
        (1..=points)
            .map(|i| {
                let q = i as f64 / points as f64;
                let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
                (self.values[idx], q)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let mut s = Samples::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.push(v);
        }
        assert_eq!(s.percentile(50.0), 3.0);
        assert_eq!(s.percentile(100.0), 5.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.mean(), 3.0);
    }

    #[test]
    fn cdf_points_monotone() {
        let mut s = Samples::new();
        for i in 0..100 {
            s.push(i as f64);
        }
        let pts = s.cdf_points(10);
        assert_eq!(pts.len(), 10);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_percentile_panics() {
        Samples::new().percentile(50.0);
    }
}
