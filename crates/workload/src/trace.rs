//! The workload-trace container.

/// A request-rate time series with a fixed sampling interval.
///
/// Values are arrival rates in requests/second, sampled every
/// `interval_secs`. The paper's traces are hourly over three weeks
/// (504 points); generators in this crate follow that convention by
/// default but any interval works.
///
/// ```
/// use spotweb_workload::Trace;
///
/// let t = Trace::new(3600.0, vec![100.0, 200.0, 150.0]);
/// assert_eq!(t.peak(), 200.0);
/// assert_eq!(t.rate_at(1800.0), 150.0); // linear interpolation
/// assert_eq!(t.with_mean(300.0).mean(), 300.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Sampling interval in seconds.
    pub interval_secs: f64,
    /// Arrival rate (req/s) per interval.
    pub values: Vec<f64>,
}

impl Trace {
    /// Build a trace, validating non-negativity.
    ///
    /// # Panics
    /// Panics if `interval_secs <= 0` or any value is negative/NaN.
    pub fn new(interval_secs: f64, values: Vec<f64>) -> Self {
        assert!(interval_secs > 0.0, "interval must be positive");
        assert!(
            values.iter().all(|v| v.is_finite() && *v >= 0.0),
            "rates must be finite and non-negative"
        );
        Trace {
            interval_secs,
            values,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` for an empty trace.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value at sample `i`.
    pub fn get(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// Rate at an arbitrary time offset (piecewise-linear interpolation,
    /// clamped at the ends) — what the discrete-event simulator samples.
    pub fn rate_at(&self, t_secs: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let pos = (t_secs / self.interval_secs).max(0.0);
        let i = pos.floor() as usize;
        if i + 1 >= self.len() {
            return *self.values.last().expect("non-empty checked above");
        }
        let w = pos - i as f64;
        self.values[i] * (1.0 - w) + self.values[i + 1] * w
    }

    /// Peak rate.
    pub fn peak(&self) -> f64 {
        self.values.iter().fold(0.0_f64, |m, v| m.max(*v))
    }

    /// Mean rate.
    pub fn mean(&self) -> f64 {
        spotweb_linalg::vector::mean(&self.values)
    }

    /// Scale all rates by a factor (e.g. to re-base a trace to a target
    /// mean load).
    pub fn scaled(&self, factor: f64) -> Trace {
        assert!(factor >= 0.0);
        Trace {
            interval_secs: self.interval_secs,
            values: self.values.iter().map(|v| v * factor).collect(),
        }
    }

    /// Rescale so the trace's mean equals `target_mean`.
    pub fn with_mean(&self, target_mean: f64) -> Trace {
        let m = self.mean();
        if m == 0.0 {
            return self.clone();
        }
        self.scaled(target_mean / m)
    }

    /// Downsample by integer factor `k` (mean of each bucket).
    pub fn downsample(&self, k: usize) -> Trace {
        assert!(k >= 1);
        let values = self
            .values
            .chunks(k)
            .map(spotweb_linalg::vector::mean)
            .collect();
        Trace {
            interval_secs: self.interval_secs * k as f64,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        let t = Trace::new(3600.0, vec![1.0, 2.0]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rate_panics() {
        Trace::new(1.0, vec![-1.0]);
    }

    #[test]
    fn rate_at_interpolates() {
        let t = Trace::new(10.0, vec![0.0, 10.0, 20.0]);
        assert_eq!(t.rate_at(0.0), 0.0);
        assert_eq!(t.rate_at(5.0), 5.0);
        assert_eq!(t.rate_at(10.0), 10.0);
        assert_eq!(t.rate_at(1000.0), 20.0); // clamped
    }

    #[test]
    fn peak_and_mean() {
        let t = Trace::new(1.0, vec![1.0, 5.0, 3.0, 2.0]);
        assert_eq!(t.peak(), 5.0);
        assert_eq!(t.mean(), 2.75);
    }

    #[test]
    fn with_mean_rescales() {
        let t = Trace::new(1.0, vec![1.0, 3.0]).with_mean(10.0);
        assert!((t.mean() - 10.0).abs() < 1e-12);
        assert!((t.values[1] / t.values[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn downsample_means_buckets() {
        let t = Trace::new(1.0, vec![1.0, 3.0, 5.0, 7.0, 9.0]);
        let d = t.downsample(2);
        assert_eq!(d.values, vec![2.0, 6.0, 9.0]);
        assert_eq!(d.interval_secs, 2.0);
    }

    #[test]
    fn empty_trace_rate_is_zero() {
        let t = Trace::new(1.0, vec![]);
        assert_eq!(t.rate_at(5.0), 0.0);
        assert!(t.is_empty());
    }
}
