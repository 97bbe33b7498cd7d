//! Assembled workload predictors.
//!
//! * [`SpotWebPredictor`] — the paper's predictor: spline + AR(1) +
//!   99% CI upper-bound padding, multi-horizon (§4.3).
//! * [`AliEldinPredictor`] — the \[1\] baseline: spline + AR(1) point
//!   prediction, no padding (the Fig. 4(c) comparison).
//! * [`ReactivePredictor`], [`MovingAveragePredictor`],
//!   [`SeasonalNaivePredictor`] — simple alternatives; the reactive one
//!   is the reference point of the Fig. 7(a) accuracy sweep.

use std::collections::VecDeque;

use crate::ar::Ar1;
use crate::confidence::{ConfidenceLevel, ErrorTracker};
use crate::spline::SplineModel;
use crate::SeriesPredictor;
use spotweb_telemetry::{ForecastRecord, TelemetrySink, TraceEvent};

/// Spline + AR point predictor (no CI padding) — the \[1\] baseline.
#[derive(Debug, Clone)]
pub struct AliEldinPredictor {
    spline: SplineModel,
    /// AR(1) fit of the spline's in-window residuals and the newest of
    /// them, refreshed by every `observe` so that the `1 + H` point
    /// forecasts of an interval share one fit.
    ar: Ar1,
    last_residual: f64,
}

impl AliEldinPredictor {
    /// Default two-week window configuration.
    pub fn new() -> Self {
        Self::over(SplineModel::new())
    }

    /// Custom window/knots/ridge.
    pub fn with_config(window: usize, knots: usize, ridge: f64) -> Self {
        Self::over(SplineModel::with_config(window, knots, ridge))
    }

    fn over(spline: SplineModel) -> Self {
        AliEldinPredictor {
            spline,
            ar: Ar1::fit(&[]),
            last_residual: 0.0,
        }
    }

    fn refresh_ar(&mut self) {
        let residuals = self.spline.residuals();
        self.ar = Ar1::fit(residuals);
        self.last_residual = residuals.last().copied().unwrap_or(0.0);
    }

    /// Point forecast `h` steps ahead (h ≥ 1): spline profile plus the
    /// AR-forecast residual.
    fn point(&self, h: usize) -> f64 {
        match self
            .spline
            .fitted_at(self.spline.next_hour() + (h - 1) as f64)
        {
            Some(base) => (base + self.ar.forecast(self.last_residual, h)).max(0.0),
            // Persistence fallback until the window fills.
            None => self.spline.last_value().unwrap_or(0.0),
        }
    }
}

impl Default for AliEldinPredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl SeriesPredictor for AliEldinPredictor {
    fn observe(&mut self, value: f64) {
        self.spline.push(value);
        self.refresh_ar();
    }

    fn predict(&self, horizon: usize) -> Vec<f64> {
        (1..=horizon).map(|h| self.point(h)).collect()
    }

    fn observations(&self) -> usize {
        self.spline.observations()
    }
}

/// The SpotWeb predictor: [`AliEldinPredictor`] plus CI upper-bound
/// padding driven by realized one-step errors.
///
/// ```
/// use spotweb_predict::{SeriesPredictor, SpotWebPredictor};
///
/// let mut p = SpotWebPredictor::new();
/// // Feed two weeks of a diurnal signal…
/// for t in 0..336 {
///     p.observe(1000.0 + 300.0 * ((t as f64 / 24.0) * std::f64::consts::TAU).sin());
/// }
/// // …and get padded capacity targets for the next 4 hours.
/// let padded = p.predict(4);
/// let point = p.point_forecast(4);
/// assert_eq!(padded.len(), 4);
/// for (u, pt) in padded.iter().zip(&point) {
///     assert!(u >= pt, "padding never sits below the point forecast");
/// }
/// ```
#[derive(Debug, Clone)]
pub struct SpotWebPredictor {
    inner: AliEldinPredictor,
    errors: ErrorTracker,
    level: ConfidenceLevel,
    /// Last one-step-ahead point prediction, matched against the next
    /// observation to record a realized error.
    pending: Option<f64>,
    /// CI-padded companion of `pending` — what capacity was actually
    /// provisioned for; reported in forecast telemetry.
    pending_padded: Option<f64>,
    telemetry: TelemetrySink,
}

/// Error-window length for the CI estimate (one week of hourly errors).
pub const ERROR_WINDOW: usize = 168;

impl SpotWebPredictor {
    /// The paper's configuration: 99% CI.
    pub fn new() -> Self {
        Self::with_level(ConfidenceLevel::P99)
    }

    /// Custom confidence level (for the padding ablation).
    pub fn with_level(level: ConfidenceLevel) -> Self {
        SpotWebPredictor {
            inner: AliEldinPredictor::new(),
            errors: ErrorTracker::new(ERROR_WINDOW),
            level,
            pending: None,
            pending_padded: None,
            telemetry: TelemetrySink::disabled(),
        }
    }

    /// The unpadded point forecast (exposed for metrics/debugging).
    pub fn point_forecast(&self, horizon: usize) -> Vec<f64> {
        self.inner.predict(horizon)
    }

    /// Current mean absolute one-step error.
    pub fn mae(&self) -> f64 {
        self.errors.mae()
    }
}

impl Default for SpotWebPredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl SeriesPredictor for SpotWebPredictor {
    fn observe(&mut self, value: f64) {
        if let Some(pred) = self.pending.take() {
            self.errors.record(value - pred);
            // Explain the step: what we forecast for this interval,
            // what we padded capacity to, and what actually arrived.
            let padded = self.pending_padded.take().unwrap_or(pred);
            self.telemetry.emit(TraceEvent::Forecast(ForecastRecord {
                quantity: "workload_rps".to_string(),
                step: self.inner.observations() as u64,
                actual: value,
                predicted: pred,
                padded,
                error: value - pred,
                ci_pad: padded - pred,
            }));
        }
        self.inner.observe(value);
        let point = self.inner.point(1);
        self.pending = Some(point);
        self.pending_padded = Some(self.errors.upper_bound(point, 1, self.level).max(0.0));
    }

    fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.telemetry = sink;
    }

    fn predict(&self, horizon: usize) -> Vec<f64> {
        (1..=horizon)
            .map(|h| {
                let point = self.inner.point(h);
                self.errors.upper_bound(point, h, self.level).max(0.0)
            })
            .collect()
    }

    fn observations(&self) -> usize {
        self.inner.observations()
    }
}

/// Persistence: "the next value equals the current one" — the paper's
/// reference reactive predictor.
#[derive(Debug, Clone, Default)]
pub struct ReactivePredictor {
    last: Option<f64>,
    count: usize,
}

impl ReactivePredictor {
    /// New, empty predictor.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SeriesPredictor for ReactivePredictor {
    fn observe(&mut self, value: f64) {
        self.last = Some(value);
        self.count += 1;
    }

    fn predict(&self, horizon: usize) -> Vec<f64> {
        vec![self.last.unwrap_or(0.0); horizon]
    }

    fn observations(&self) -> usize {
        self.count
    }
}

/// Flat moving-average forecast over the last `window` samples.
#[derive(Debug, Clone)]
pub struct MovingAveragePredictor {
    window: VecDeque<f64>,
    capacity: usize,
    count: usize,
}

impl MovingAveragePredictor {
    /// Average over the most recent `window` samples.
    pub fn new(window: usize) -> Self {
        assert!(window >= 1);
        MovingAveragePredictor {
            window: VecDeque::with_capacity(window),
            capacity: window,
            count: 0,
        }
    }
}

impl SeriesPredictor for MovingAveragePredictor {
    fn observe(&mut self, value: f64) {
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(value);
        self.count += 1;
    }

    fn predict(&self, horizon: usize) -> Vec<f64> {
        let v: Vec<f64> = self.window.iter().copied().collect();
        vec![spotweb_linalg::vector::mean(&v); horizon]
    }

    fn observations(&self) -> usize {
        self.count
    }
}

/// Seasonal naive: the forecast for `t + h` is the observation one
/// season (default 24 h) before it.
#[derive(Debug, Clone)]
pub struct SeasonalNaivePredictor {
    history: VecDeque<f64>,
    season: usize,
    count: usize,
}

impl SeasonalNaivePredictor {
    /// Season length in samples (24 for hourly-diurnal).
    pub fn new(season: usize) -> Self {
        assert!(season >= 1);
        SeasonalNaivePredictor {
            history: VecDeque::with_capacity(2 * season),
            season,
            count: 0,
        }
    }
}

impl SeriesPredictor for SeasonalNaivePredictor {
    fn observe(&mut self, value: f64) {
        if self.history.len() == 2 * self.season {
            self.history.pop_front();
        }
        self.history.push_back(value);
        self.count += 1;
    }

    fn predict(&self, horizon: usize) -> Vec<f64> {
        (1..=horizon)
            .map(|h| {
                if self.history.len() >= self.season {
                    // Value `season` steps before the forecast target
                    // (target is `h` steps ahead of the last observation,
                    // so it sits `season − h + 1` from the back).
                    let idx_from_back = (self.season as isize) - (h as isize) + 1;
                    if idx_from_back >= 1 && (idx_from_back as usize) <= self.history.len() {
                        self.history[self.history.len() - idx_from_back as usize]
                    } else {
                        self.history.back().copied().unwrap_or(0.0)
                    }
                } else {
                    self.history.back().copied().unwrap_or(0.0)
                }
            })
            .collect()
    }

    fn observations(&self) -> usize {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotweb_workload::wikipedia_like;

    impl AliEldinPredictor {
        /// `point` as it was before the AR fit was cached: residuals
        /// re-evaluated and re-fitted on every call.
        fn point_recomputed(&self, h: usize) -> f64 {
            match self
                .spline
                .fitted_at(self.spline.next_hour() + (h - 1) as f64)
            {
                Some(base) => {
                    let residuals = self.spline.residuals_recomputed();
                    let ar = Ar1::fit(&residuals);
                    let last_r = residuals.last().copied().unwrap_or(0.0);
                    (base + ar.forecast(last_r, h)).max(0.0)
                }
                None => self.spline.last_value().unwrap_or(0.0),
            }
        }
    }

    #[test]
    fn cached_ar_forecasts_are_bitwise_the_recomputed_ones() {
        // Persistence, first fit, eviction, then a stretch of refits
        // that fail (the window moves under the last good fit).
        let trace = wikipedia_like(150, 11);
        let mut p = AliEldinPredictor::with_config(48, 8, 1e-6);
        for (k, v) in trace.values.iter().enumerate() {
            if k == 100 {
                p.spline.degenerate_window();
            }
            p.observe(*v);
            for h in 1..=4 {
                assert_eq!(
                    p.point(h).to_bits(),
                    p.point_recomputed(h).to_bits(),
                    "observation {k}, h = {h}"
                );
            }
        }
    }

    #[test]
    fn reactive_is_persistence() {
        let mut p = ReactivePredictor::new();
        p.observe(10.0);
        p.observe(20.0);
        assert_eq!(p.predict(3), vec![20.0, 20.0, 20.0]);
        assert_eq!(p.observations(), 2);
    }

    #[test]
    fn reactive_empty_predicts_zero() {
        let p = ReactivePredictor::new();
        assert_eq!(p.predict(2), vec![0.0, 0.0]);
    }

    #[test]
    fn moving_average_averages() {
        let mut p = MovingAveragePredictor::new(2);
        p.observe(1.0);
        p.observe(3.0);
        p.observe(5.0);
        assert_eq!(p.predict(1), vec![4.0]);
    }

    #[test]
    fn seasonal_naive_repeats_yesterday() {
        let mut p = SeasonalNaivePredictor::new(24);
        for t in 0..48 {
            p.observe((t % 24) as f64);
        }
        // Next hour is hour 0 of the day; yesterday's hour-0 value is 0.
        let f = p.predict(3);
        assert_eq!(f[0], 0.0);
        assert_eq!(f[1], 1.0);
        assert_eq!(f[2], 2.0);
    }

    #[test]
    fn spotweb_beats_reactive_on_diurnal_signal() {
        let trace = wikipedia_like(30 * 24, 42);
        let split = 21 * 24;
        let mut spotweb = AliEldinPredictor::new();
        let mut reactive = ReactivePredictor::new();
        for v in &trace.values[..split] {
            spotweb.observe(*v);
            reactive.observe(*v);
        }
        let mut err_s = 0.0;
        let mut err_r = 0.0;
        for v in &trace.values[split..] {
            err_s += (spotweb.predict(1)[0] - v).abs();
            err_r += (reactive.predict(1)[0] - v).abs();
            spotweb.observe(*v);
            reactive.observe(*v);
        }
        assert!(
            err_s < err_r,
            "spline MAE {} should beat reactive {}",
            err_s,
            err_r
        );
    }

    #[test]
    fn spotweb_pads_above_point_forecast() {
        let trace = wikipedia_like(21 * 24, 7);
        let mut p = SpotWebPredictor::new();
        for v in &trace.values {
            p.observe(*v);
        }
        let padded = p.predict(4);
        let point = p.point_forecast(4);
        for (u, pt) in padded.iter().zip(&point) {
            assert!(u >= pt, "padded {u} below point {pt}");
        }
        // Padding grows with the horizon.
        assert!(padded[3] - point[3] > padded[0] - point[0]);
    }

    #[test]
    fn spotweb_under_provisions_rarely() {
        // The headline Fig. 4(d) property: with 99% CI padding the
        // predictor sits above the realized value nearly always.
        let trace = wikipedia_like(35 * 24, 3);
        let split = 21 * 24;
        let mut p = SpotWebPredictor::new();
        for v in &trace.values[..split] {
            p.observe(*v);
        }
        let mut under = 0;
        let mut total = 0;
        for v in &trace.values[split..] {
            let pred = p.predict(1)[0];
            if pred < *v {
                under += 1;
            }
            total += 1;
            p.observe(*v);
        }
        let frac = under as f64 / total as f64;
        assert!(frac < 0.10, "under-provisioned {frac} of the time");
    }

    #[test]
    fn spotweb_emits_forecast_records() {
        let mut p = SpotWebPredictor::new();
        let sink = TelemetrySink::enabled();
        p.set_telemetry(sink.clone());
        for t in 0..50 {
            p.observe(100.0 + 10.0 * (t as f64 * 0.3).sin());
        }
        let records: Vec<ForecastRecord> = sink
            .events()
            .iter()
            .filter_map(|e| match &e.event {
                TraceEvent::Forecast(f) => Some(f.clone()),
                _ => None,
            })
            .collect();
        // Every observe after the first compares against a pending
        // forecast.
        assert_eq!(records.len(), 49);
        let r = records.last().unwrap();
        assert_eq!(r.quantity, "workload_rps");
        assert!((r.error - (r.actual - r.predicted)).abs() < 1e-12);
        assert!((r.ci_pad - (r.padded - r.predicted)).abs() < 1e-12);
        assert!(r.ci_pad >= 0.0, "padding never sits below the point");
    }

    #[test]
    fn predictors_return_exact_horizon() {
        let mut preds: Vec<Box<dyn SeriesPredictor>> = vec![
            Box::new(SpotWebPredictor::new()),
            Box::new(AliEldinPredictor::new()),
            Box::new(ReactivePredictor::new()),
            Box::new(MovingAveragePredictor::new(5)),
            Box::new(SeasonalNaivePredictor::new(24)),
        ];
        for p in &mut preds {
            for t in 0..400 {
                p.observe(100.0 + (t as f64 * 0.26).sin() * 10.0);
            }
            for h in [1usize, 2, 6, 10] {
                let f = p.predict(h);
                assert_eq!(f.len(), h);
                assert!(f.iter().all(|v| v.is_finite() && *v >= 0.0));
            }
        }
    }
}
