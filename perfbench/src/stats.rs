//! Exact quantiles over raw samples.

/// A summary of raw timing samples: nearest-rank quantiles, mean, count.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

/// The smallest sample count for which [`Dist::p99`] is reported: at least
/// ten samples must lie beyond the 99th percentile.
pub const MIN_SAMPLES_P99: usize = 1000;

impl Dist {
    /// Sorts the samples once; quantiles are then exact lookups.
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Dist { sorted: samples }
    }

    /// The samples, ascending.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Number of samples.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// The nearest-rank `q`-quantile: the smallest sample with at least
    /// `q · n` samples at or below it. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile_sorted(&self.sorted, q)
    }

    /// The median.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The 99th percentile, only when at least ten samples lie beyond it.
    pub fn p99(&self) -> Option<f64> {
        let n = self.sorted.len();
        let rank = nearest_rank(n, 0.99)?;
        (n >= MIN_SAMPLES_P99 && n - rank >= 10).then(|| self.sorted[rank - 1])
    }

    /// Arithmetic mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (!self.sorted.is_empty()).then(|| self.sorted.iter().sum::<f64>() / self.n() as f64)
    }
}

/// The 1-based nearest rank of quantile `q` among `n` samples.
fn nearest_rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = (q * n as f64).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    nearest_rank(sorted.len(), q).map(|rank| sorted[rank - 1])
}

/// The median of unsorted values; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    Dist::new(values.to_vec()).p50()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_a_known_uniform_distribution() {
        // 1..=1000: the q-quantile by nearest rank is exactly ceil(q·1000).
        let d = Dist::new((1..=1000).rev().map(f64::from).collect());
        assert_eq!(d.n(), 1000);
        assert_eq!(d.p50(), Some(500.0));
        assert_eq!(d.quantile(0.9), Some(900.0));
        assert_eq!(d.quantile(0.0), Some(1.0));
        assert_eq!(d.quantile(1.0), Some(1000.0));
        assert_eq!(d.p99(), Some(990.0));
        assert_eq!(d.mean(), Some(500.5));
    }

    #[test]
    fn small_samples_follow_the_textbook_definition() {
        // Nearest rank of {15, 20, 35, 40, 50}: p30 = 20, p40 = 20, p50 = 35.
        let d = Dist::new(vec![50.0, 15.0, 40.0, 35.0, 20.0]);
        assert_eq!(d.quantile(0.3), Some(20.0));
        assert_eq!(d.quantile(0.4), Some(20.0));
        assert_eq!(d.p50(), Some(35.0));
        assert_eq!(d.quantile(1.0), Some(50.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(Dist::new((0..999).map(f64::from).collect()).p99(), None);
        assert!(Dist::new((0..MIN_SAMPLES_P99).map(|i| i as f64).collect())
            .p99()
            .is_some());
        assert_eq!(Dist::new(Vec::new()).p50(), None);
        assert_eq!(Dist::new(Vec::new()).mean(), None);
    }
}
