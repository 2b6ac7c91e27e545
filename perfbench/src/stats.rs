//! Order statistics for latency samples.
//!
//! A failed, shed or timed-out request is recorded as an infinite latency,
//! so it misses every latency limit and pushes the percentiles up instead
//! of silently leaving the sample.

/// The fewest samples that must lie strictly above a reported percentile.
/// Below that, the tail is a handful of outliers and moves from run to run.
pub const MIN_BEYOND: usize = 10;

/// A set of latency samples in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Nearest-rank percentile `p` (0 < p < 100); see [`percentile`].
    pub fn percentile(&self, p: f64) -> Result<f64, String> {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, p)
    }
}

/// Nearest-rank percentile of ascending `sorted` samples: the value at
/// rank `⌈p/100 · n⌉`. Refuses (returns `Err`) when fewer than
/// [`MIN_BEYOND`] samples lie beyond that rank, so a p95 needs at least
/// 200 samples and a p99 at least 1000.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, String> {
    if !(p > 0.0 && p < 100.0) {
        return Err(format!("percentile {p} is outside (0, 100)"));
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank.max(1));
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples would have {beyond} samples beyond it (need {MIN_BEYOND})"
        ));
    }
    Ok(sorted[rank - 1])
}

/// Median of a small set of values (e.g. repeated set-up times).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        // p95 of 199 samples is rank 190: only 9 samples lie beyond it.
        assert!(percentile(&ramp(199), 95.0).is_err());
        assert_eq!(percentile(&ramp(200), 95.0), Ok(190.0));
        assert!(percentile(&ramp(999), 99.0).is_err());
        assert_eq!(percentile(&ramp(1000), 99.0), Ok(990.0));
        assert!(percentile(&ramp(19), 50.0).is_err());
        assert_eq!(percentile(&ramp(20), 50.0), Ok(10.0));
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn failures_count_as_infinite_latency() {
        let mut s = Samples::default();
        for i in 0..100 {
            s.push(if i < 60 { f64::INFINITY } else { 1.0 });
        }
        assert_eq!(s.percentile(50.0), Ok(f64::INFINITY));
        assert_eq!(s.percentile(30.0), Ok(1.0));
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
