//! Prediction-quality metrics and the Fig. 4(c)/(d) error histograms.
//!
//! The paper measures *relative prediction error* against the capacity
//! actually needed: positive error = over-provisioning, negative =
//! under-provisioning. `backtest` replays a trace through a predictor
//! and produces the error series; `ErrorSummary` and `histogram`
//! reduce it to the numbers and distributions the figures show.

use crate::SeriesPredictor;
use spotweb_workload::Trace;

/// Replay `trace` through `predictor`: warm up on the first
/// `warmup` samples, then record the relative one-step-ahead error
/// `(predicted − observed) / observed` for the rest.
pub fn backtest<P: SeriesPredictor + ?Sized>(
    predictor: &mut P,
    trace: &Trace,
    warmup: usize,
) -> Vec<f64> {
    assert!(warmup < trace.len(), "warmup must leave evaluation samples");
    for v in &trace.values[..warmup] {
        predictor.observe(*v);
    }
    let mut errors = Vec::with_capacity(trace.len() - warmup);
    for v in &trace.values[warmup..] {
        let pred = predictor.predict(1)[0];
        let denom = v.max(1e-9);
        errors.push((pred - v) / denom);
        predictor.observe(*v);
    }
    errors
}

/// Summary of a relative-error series — the quantities the paper quotes
/// for Fig. 4 (§6.2): average/max over-provisioning, max
/// under-provisioning, and the fraction of under-provisioned steps.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorSummary {
    /// Number of evaluated predictions.
    pub count: usize,
    /// Mean of positive errors (average over-provisioning), 0 if none.
    pub mean_over: f64,
    /// Max positive error.
    pub max_over: f64,
    /// Mean |negative error| (average under-provisioning), 0 if none.
    pub mean_under: f64,
    /// Max |negative error|.
    pub max_under: f64,
    /// Fraction of steps with negative error.
    pub under_fraction: f64,
    /// Mean absolute relative error.
    pub mae: f64,
}

impl ErrorSummary {
    /// Reduce an error series.
    pub fn of(errors: &[f64]) -> ErrorSummary {
        let count = errors.len();
        if count == 0 {
            return ErrorSummary {
                count: 0,
                mean_over: 0.0,
                max_over: 0.0,
                mean_under: 0.0,
                max_under: 0.0,
                under_fraction: 0.0,
                mae: 0.0,
            };
        }
        let over: Vec<f64> = errors.iter().copied().filter(|e| *e > 0.0).collect();
        let under: Vec<f64> = errors.iter().map(|e| -e).filter(|e| *e > 0.0).collect();
        ErrorSummary {
            count,
            mean_over: spotweb_linalg::vector::mean(&over),
            max_over: over.iter().fold(0.0_f64, |m, v| m.max(*v)),
            mean_under: spotweb_linalg::vector::mean(&under),
            max_under: under.iter().fold(0.0_f64, |m, v| m.max(*v)),
            under_fraction: under.len() as f64 / count as f64,
            mae: errors.iter().map(|e| e.abs()).sum::<f64>() / count as f64,
        }
    }
}

/// Fixed-width histogram over `[lo, hi]` with `bins` buckets; values
/// outside the range clamp into the edge buckets. Returns
/// `(bin_centers, counts)` — the Fig. 4(c)/(d) plot data.
pub fn histogram(values: &[f64], lo: f64, hi: f64, bins: usize) -> (Vec<f64>, Vec<usize>) {
    assert!(bins >= 1 && hi > lo);
    let width = (hi - lo) / bins as f64;
    let centers: Vec<f64> = (0..bins).map(|b| lo + width * (b as f64 + 0.5)).collect();
    let mut counts = vec![0usize; bins];
    for &v in values {
        let b = (((v - lo) / width).floor() as isize).clamp(0, bins as isize - 1) as usize;
        counts[b] += 1;
    }
    (centers, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{AliEldinPredictor, SpotWebPredictor};
    use spotweb_workload::wikipedia_like;

    #[test]
    fn summary_of_known_errors() {
        let s = ErrorSummary::of(&[0.1, 0.3, -0.05, 0.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean_over - 0.2).abs() < 1e-12);
        assert_eq!(s.max_over, 0.3);
        assert!((s.max_under - 0.05).abs() < 1e-12);
        assert_eq!(s.under_fraction, 0.25);
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = ErrorSummary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mae, 0.0);
    }

    #[test]
    fn histogram_counts() {
        let (centers, counts) = histogram(&[0.05, 0.15, 0.15, -0.9, 2.0], -1.0, 1.0, 4);
        assert_eq!(centers.len(), 4);
        assert_eq!(counts.iter().sum::<usize>(), 5);
        assert_eq!(counts[0], 1); // -0.9
        assert_eq!(counts[3], 1); // 2.0 clamped into top bucket
        assert_eq!(counts[2], 3); // 0.05, 0.15, 0.15 all in [0, 0.5)
    }

    #[test]
    fn fig4_shape_spotweb_vs_baseline() {
        // The paper's §6.2 claims, as *shape* assertions on our traces:
        // baseline under-provisions far more often and deeper than
        // SpotWeb; SpotWeb over-provisions on average ~15%.
        let trace = wikipedia_like(5 * 7 * 24, 11);
        let warmup = 2 * 7 * 24;
        let errs_base = backtest(&mut AliEldinPredictor::new(), &trace, warmup);
        let errs_sw = backtest(&mut SpotWebPredictor::new(), &trace, warmup);
        let base = ErrorSummary::of(&errs_base);
        let sw = ErrorSummary::of(&errs_sw);
        assert!(
            sw.under_fraction < base.under_fraction,
            "spotweb under {} vs baseline {}",
            sw.under_fraction,
            base.under_fraction
        );
        assert!(sw.max_under < base.max_under + 1e-9);
        assert!(
            sw.mean_over > base.mean_over,
            "CI padding raises over-provisioning"
        );
    }
}
