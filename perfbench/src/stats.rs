//! Sample statistics: nearest-rank percentiles and the rule for which
//! percentiles a sample supports.

/// Latency samples of one kind, in microseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Records one sample.
    pub fn push(&mut self, us: f64) {
        self.0.push(us);
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no sample was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Sum of all samples.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// The nearest-rank `p`-quantile (`p` in `0..=1`), or an error when
    /// fewer than ten samples lie beyond it: a percentile with fewer
    /// samples behind it is no tail, and run-to-run noise swamps it.
    pub fn percentile(&self, p: f64) -> Result<f64, String> {
        if !supports(self.0.len(), p) {
            return Err(format!(
                "p{} needs at least ten samples beyond it, have {} samples",
                p * 100.0,
                self.0.len()
            ));
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        Ok(nearest_rank(&sorted, p))
    }

    /// The median, with no minimum sample count beyond one.
    pub fn median(&self) -> Result<f64, String> {
        if self.0.is_empty() {
            return Err("median of no samples".to_owned());
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        Ok(nearest_rank(&sorted, 0.5))
    }
}

/// The fewest samples that leave ten beyond the `p`-quantile.
#[must_use]
pub fn min_samples(p: f64) -> usize {
    (10.0 / (1.0 - p)).round() as usize
}

/// Whether `n` samples leave at least ten beyond the `p`-quantile.
#[must_use]
pub fn supports(n: usize, p: f64) -> bool {
    // The tolerance absorbs the rounding of `1.0 - p` (0.09999… for 0.9).
    n > 0 && (n as f64 * (1.0 - p) + 1e-9).floor() >= 10.0
}

fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let mut s = Samples::default();
        for i in 1..=100 {
            s.push(f64::from(i));
        }
        assert_eq!(s.median().unwrap(), 50.0);
        assert_eq!(s.percentile(0.9).unwrap(), 90.0);
        assert!(s.percentile(0.99).is_err());
        assert!(supports(1000, 0.99));
        assert!(!supports(99, 0.9));
        assert!(!supports(9_999, 0.999));
        assert!(supports(10_000, 0.999));
        assert_eq!(min_samples(0.99), 1000);
        assert!(supports(min_samples(0.999), 0.999));
    }
}
