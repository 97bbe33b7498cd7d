//! Transiency-aware predictors (paper §4.3, §5.2).
//!
//! SpotWeb's multi-period optimizer consumes *forecast vectors* over a
//! horizon `H` for three quantities: request arrival rate, per-market
//! price, and per-market revocation probability. This crate implements
//! the paper's predictor stack plus the baselines it is evaluated
//! against:
//!
//! * [`spline`] — cubic-spline regression over a two-week moving
//!   window, the core of the workload predictor of Ali-Eldin et al.
//!   \[1\] that SpotWeb extends. Our spline regresses on hour-of-week
//!   (capturing the diurnal/weekly repetition the paper says splines
//!   model well) plus a linear trend, through ridge least squares.
//! * [`ar`] — the AR(1) residual model \[1\] uses for small spikes.
//! * [`confidence`] — SpotWeb's extension: the upper bound of the 99%
//!   confidence interval around each prediction becomes the
//!   *over-provisioned* capacity target (§4.3).
//! * [`baseline`] — the assembled predictors: [`baseline::SpotWebPredictor`]
//!   (spline + AR + 99% CI upper bound, multi-horizon) and
//!   [`baseline::AliEldinPredictor`] (spline + AR point prediction, the
//!   Fig. 4(c) baseline), plus reactive / moving-average /
//!   seasonal-naive predictors ("SpotWeb can integrate any other
//!   predictors out-of-the-box").
//! * [`price`] — the mean-reverting per-market price forecaster.
//!   (Failure probabilities need no predictor: as in §5.1 of the paper
//!   the policy repeats the measured probability over the horizon.)
//! * [`noisy`] — controlled error injection around any predictor, the
//!   instrument behind the Fig. 7(a) accuracy-sensitivity sweep.
//! * [`index`] — EWMA smoothing of spot-index weights, the input the
//!   index-tracking policy of the tournament rebalances toward.
//! * [`metrics`] — relative-error distributions and
//!   over/under-provisioning summaries (Fig. 4(c)/(d)).

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
#![warn(missing_docs)]

pub mod ar;
pub mod baseline;
pub mod confidence;
pub mod index;
pub mod metrics;
pub mod noisy;
pub mod price;
pub mod spline;

pub use baseline::{
    AliEldinPredictor, MovingAveragePredictor, ReactivePredictor, SeasonalNaivePredictor,
    SpotWebPredictor,
};
pub use noisy::NoisyPredictor;

/// A streaming multi-horizon forecaster of a scalar series.
///
/// Implementations observe one value per decision interval and forecast
/// the next `horizon` intervals. The contract mirrors how SpotWeb's
/// optimizer polls its predictors (§5.1): observe, then predict, every
/// interval.
pub trait SeriesPredictor {
    /// Record the value observed for the current interval.
    fn observe(&mut self, value: f64);

    /// Attach a telemetry sink. Predictors that can explain
    /// themselves (forecast vs. actual vs. CI padding) emit
    /// `forecast` trace events through it; the default is a no-op.
    fn set_telemetry(&mut self, _sink: spotweb_telemetry::TelemetrySink) {}

    /// Forecast the next `horizon` intervals (index 0 = next interval).
    ///
    /// Implementations must return exactly `horizon` finite,
    /// non-negative values, falling back to persistence when the
    /// history is too short to fit their model.
    fn predict(&self, horizon: usize) -> Vec<f64>;

    /// Number of observations consumed so far.
    fn observations(&self) -> usize;
}
