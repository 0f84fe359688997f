//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark reports is computed here from the
//! samples themselves (nearest rank), never read off a log-bucketed
//! histogram: the serving layer's `LogHistogram` steps ~19 % between
//! quarter-octave buckets, so a single bucket flip would move a reported
//! median by more than a regression bound.

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `q`·n samples at or below it. `0.0` when empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "percentile out of range");
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples sorted once, queried many times.
#[derive(Debug, Clone, Default)]
pub struct Sorted(Vec<f64>);

impl Sorted {
    /// Sort `samples` (which must hold no NaN).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("samples hold no NaN"));
        Self(samples)
    }

    /// Nearest-rank percentile (`q` in `[0, 1]`).
    pub fn pct(&self, q: f64) -> f64 {
        nearest_rank(&self.0, q)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Arithmetic mean (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }
}

/// Median of per-window rates: `work` and `secs` are per-operation
/// amounts and busy times, cut into consecutive windows of `per_window`
/// operations (the last, partial window is dropped unless it is the only
/// one). Taking the median over windows keeps a short stall on a shared
/// host from moving a whole run's throughput.
pub fn median_window_rate(work: &[f64], secs: &[f64], per_window: usize) -> f64 {
    assert_eq!(work.len(), secs.len(), "one busy time per operation");
    let per_window = per_window.max(1);
    let rates: Vec<f64> = if work.len() < per_window {
        vec![work.iter().sum::<f64>() / secs.iter().sum::<f64>().max(f64::MIN_POSITIVE)]
    } else {
        work.chunks_exact(per_window)
            .zip(secs.chunks_exact(per_window))
            .map(|(w, s)| w.iter().sum::<f64>() / s.iter().sum::<f64>().max(f64::MIN_POSITIVE))
            .collect()
    };
    Sorted::new(rates).pct(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_samples() {
        // The textbook example: 15, 20, 35, 40, 50.
        let s = Sorted::new(vec![50.0, 15.0, 40.0, 20.0, 35.0]);
        assert_eq!(s.pct(0.05), 15.0);
        assert_eq!(s.pct(0.30), 20.0);
        assert_eq!(s.pct(0.40), 20.0);
        assert_eq!(s.pct(0.50), 35.0);
        assert_eq!(s.pct(1.00), 50.0);
        assert_eq!(s.pct(0.0), 15.0);

        let hundred = Sorted::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(hundred.pct(0.50), 50.0);
        assert_eq!(hundred.pct(0.90), 90.0);
        assert_eq!(hundred.pct(0.99), 99.0);
        assert_eq!(hundred.pct(0.999), 100.0);
        assert_eq!(hundred.mean(), 50.5);
        assert_eq!(hundred.len(), 100);
    }

    #[test]
    fn empty_samples_read_zero() {
        assert_eq!(Sorted::new(Vec::new()).pct(0.5), 0.0);
        assert_eq!(Sorted::new(Vec::new()).mean(), 0.0);
    }

    #[test]
    fn window_rate_takes_the_median_window() {
        // Three windows of two ops: rates 10, 1000 (a stall-free burst)
        // and 20 keys/s; the median ignores the outlier.
        let work = [5.0, 5.0, 500.0, 500.0, 10.0, 10.0];
        let secs = [0.5, 0.5, 0.5, 0.5, 0.5, 0.5];
        assert_eq!(median_window_rate(&work, &secs, 2), 20.0);
        // Fewer ops than one window: the whole-run rate.
        assert_eq!(median_window_rate(&work[..1], &secs[..1], 2), 10.0);
    }
}
