//! Cubic-spline regression over a moving window.
//!
//! The predictor of Ali-Eldin et al. \[1\] fits a cubic spline to a
//! two-week moving window of hourly observations. A spline over raw
//! time extrapolates poorly; what makes it work for web workloads is
//! that the fit captures the *repeating* diurnal/weekly structure. We
//! therefore regress the rate on a cubic truncated-power spline basis
//! in **hour-of-week** (so the fitted curve is the weekly profile) plus
//! a linear trend in absolute time (so growth extrapolates), using
//! ridge-regularized least squares from `spotweb-linalg`.

use std::collections::VecDeque;

use spotweb_linalg::{lstsq::lstsq_ridge, Matrix};

/// Hours in a week — the period of the seasonal basis.
pub const WEEK_HOURS: f64 = 168.0;

/// Default window: two weeks of hourly samples (paper §4.3).
pub const DEFAULT_WINDOW: usize = 336;

/// A *periodic* uniform cubic B-spline basis on `[0, period)`.
///
/// `num_knots` basis functions sit at evenly spaced centers; each is
/// the standard C² cubic B-spline kernel with support spanning four
/// knot intervals, wrapped around the period. Unlike the textbook
/// truncated-power basis (which is catastrophically ill-conditioned
/// beyond a handful of knots), B-splines have local support, so the
/// design matrix stays well-conditioned at the knot densities a weekly
/// profile needs, and periodicity comes for free from the wrapping.
#[derive(Debug, Clone)]
pub struct SplineBasis {
    num_knots: usize,
    period: f64,
    spacing: f64,
}

/// The cubic B-spline kernel (support `|u| < 2`, unit knot spacing).
fn bspline3(u: f64) -> f64 {
    let a = u.abs();
    if a < 1.0 {
        (4.0 - 6.0 * a * a + 3.0 * a * a * a) / 6.0
    } else if a < 2.0 {
        let d = 2.0 - a;
        d * d * d / 6.0
    } else {
        0.0
    }
}

impl SplineBasis {
    /// `num_knots ≥ 4` evenly spaced basis centers on `[0, period)`.
    pub fn uniform(period: f64, num_knots: usize) -> Self {
        assert!(period > 0.0 && num_knots >= 4);
        SplineBasis {
            num_knots,
            period,
            spacing: period / num_knots as f64,
        }
    }

    /// Number of basis functions.
    pub fn dim(&self) -> usize {
        self.num_knots
    }

    /// Evaluate all basis functions at phase `t` (wrapped into the period).
    pub fn eval(&self, t: f64) -> Vec<f64> {
        let mut row = vec![0.0; self.num_knots];
        self.eval_into(t, &mut row);
        row
    }

    /// [`SplineBasis::eval`] into a caller-owned row.
    ///
    /// # Panics
    /// Panics if `row.len() != self.dim()`.
    pub fn eval_into(&self, t: f64, row: &mut [f64]) {
        assert_eq!(row.len(), self.num_knots, "one slot per basis function");
        let t = t.rem_euclid(self.period);
        for (j, r) in row.iter_mut().enumerate() {
            let center = j as f64 * self.spacing;
            // Shortest periodic distance from t to this center.
            let mut d = t - center;
            if d > self.period / 2.0 {
                d -= self.period;
            } else if d < -self.period / 2.0 {
                d += self.period;
            }
            *r = bspline3(d / self.spacing);
        }
    }
}

/// One window entry. The basis row is a pure function of the hour, so
/// it is evaluated once, on entry, and evicted with its sample.
#[derive(Debug, Clone)]
struct Sample {
    /// Absolute hour.
    t: f64,
    value: f64,
    basis: Vec<f64>,
}

/// One successful fit. Replaced whole or not at all: a failed refit
/// must not pair the old coefficients with a new trend centre.
#[derive(Debug, Clone)]
struct Fit {
    /// Spline coefficients.
    coeffs: Vec<f64>,
    /// Linear trend coefficient per hour.
    trend: f64,
    /// Mean absolute time of the fitted window (trend is centered).
    t_center: f64,
}

impl Fit {
    /// The fitted curve at absolute hour `t`, whose basis row is `basis`.
    fn at(&self, basis: &[f64], t: f64) -> f64 {
        let seasonal: f64 = basis.iter().zip(&self.coeffs).map(|(b, c)| b * c).sum();
        seasonal + self.trend * (t - self.t_center)
    }
}

/// Cubic-spline regression fit over a moving window.
///
/// Call [`SplineModel::push`] once per hour; [`SplineModel::fitted_at`]
/// evaluates the weekly profile + trend at any absolute hour, and
/// [`SplineModel::residuals`] exposes in-window residuals for the AR
/// spike model and the confidence-interval padding.
#[derive(Debug, Clone)]
pub struct SplineModel {
    basis: SplineBasis,
    window: VecDeque<Sample>,
    capacity: usize,
    ridge: f64,
    /// The last successful fit (None until the first).
    fit: Option<Fit>,
    /// Residuals of `window` against `fit`, refreshed by every `push`
    /// so that readers between two pushes share one evaluation.
    residuals: Vec<f64>,
    total_observed: usize,
}

impl SplineModel {
    /// New model with a two-week window and 28 weekly knots (one basis
    /// center every 6 hours — dense enough for diurnal structure).
    pub fn new() -> Self {
        Self::with_config(DEFAULT_WINDOW, 28, 1e-6)
    }

    /// Configure window size, knot count and ridge penalty.
    pub fn with_config(window: usize, knots: usize, ridge: f64) -> Self {
        assert!(window >= 8, "window too small for a cubic fit");
        SplineModel {
            basis: SplineBasis::uniform(WEEK_HOURS, knots),
            window: VecDeque::with_capacity(window),
            capacity: window,
            ridge,
            fit: None,
            residuals: Vec::with_capacity(window),
            total_observed: 0,
        }
    }

    /// Observations consumed so far (lifetime, not window).
    pub fn observations(&self) -> usize {
        self.total_observed
    }

    /// Absolute hour of the next expected observation.
    pub fn next_hour(&self) -> f64 {
        self.total_observed as f64
    }

    /// Push the observation for the current hour and refit.
    pub fn push(&mut self, value: f64) {
        let t = self.total_observed as f64;
        let mut basis = if self.window.len() == self.capacity {
            self.window.pop_front().expect("capacity >= 8").basis
        } else {
            vec![0.0; self.basis.dim()]
        };
        self.basis.eval_into(t, &mut basis);
        self.window.push_back(Sample { t, value, basis });
        self.total_observed += 1;
        self.refit();
    }

    fn refit(&mut self) {
        // Need more rows than columns (+ trend) for a stable fit.
        let p = self.basis.dim() + 1;
        if self.window.len() < p + 4 {
            return;
        }
        let n = self.window.len();
        let t_center = self.window.iter().map(|s| s.t).sum::<f64>() / n as f64;
        let mut design = Matrix::zeros(n, p);
        let mut y = Vec::with_capacity(n);
        for (r, s) in self.window.iter().enumerate() {
            let row = design.row_mut(r);
            row[..p - 1].copy_from_slice(&s.basis);
            // Centered linear trend column, scaled to window units so
            // ridge treats it comparably to the basis columns.
            row[p - 1] = (s.t - t_center) / self.capacity as f64;
            y.push(s.value);
        }
        if let Ok(beta) = lstsq_ridge(&design, &y, self.ridge) {
            self.fit = Some(Fit {
                coeffs: beta[..p - 1].to_vec(),
                trend: beta[p - 1] / self.capacity as f64,
                t_center,
            });
        }
        // The window moved even if the fit did not.
        if let Some(fit) = &self.fit {
            self.residuals.clear();
            self.residuals
                .extend(self.window.iter().map(|s| s.value - fit.at(&s.basis, s.t)));
        }
    }

    /// Evaluate the fitted curve at absolute hour `t` (may be in the
    /// future). Returns `None` before the first successful fit.
    pub fn fitted_at(&self, t: f64) -> Option<f64> {
        let fit = self.fit.as_ref()?;
        Some(fit.at(&self.basis.eval(t), t))
    }

    /// In-window residuals (observed − fitted), oldest first. Empty
    /// before the first fit.
    pub fn residuals(&self) -> &[f64] {
        &self.residuals
    }

    /// Most recent observed value (persistence fallback).
    pub fn last_value(&self) -> Option<f64> {
        self.window.back().map(|s| s.value)
    }
}

impl Default for SplineModel {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn diurnal(t: f64) -> f64 {
        1000.0 + 300.0 * ((t / 24.0) * std::f64::consts::TAU).sin()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    impl SplineModel {
        /// The residuals as every reader used to recompute them: one
        /// fresh basis evaluation per window entry.
        pub(crate) fn residuals_recomputed(&self) -> Vec<f64> {
            match &self.fit {
                None => Vec::new(),
                Some(_) => self
                    .window
                    .iter()
                    .map(|s| s.value - self.fitted_at(s.t).expect("fit exists"))
                    .collect(),
            }
        }

        /// Make every later refit fail: the ridge goes and the window is
        /// squeezed into one day of the week, so the knots centred in
        /// the other six are exact-zero columns and QR reports them
        /// singular. (The design depends on the hours only, so no
        /// sequence of `push` values can do this.)
        pub(crate) fn degenerate_window(&mut self) {
            self.ridge = 0.0;
            for (k, s) in self.window.iter_mut().enumerate() {
                s.t = (k % 24) as f64;
                self.basis.eval_into(s.t, &mut s.basis);
            }
        }
    }

    #[test]
    fn failed_refit_leaves_the_fitted_curve_unchanged() {
        let mut m = SplineModel::with_config(60, 28, 1e-6);
        for t in 0..60 {
            m.push(diurnal(t as f64) + 2.0 * t as f64);
        }
        let hours = [0.0, 17.5, 59.0, 60.0, 200.0];
        let curve = |m: &SplineModel| bits(&hours.map(|t| m.fitted_at(t).unwrap()));
        let before = curve(&m);
        m.degenerate_window();
        // Hours 0–23 plus hour 60 give the knots centred from hour 72 on
        // no support, so this refit fails.
        m.push(1234.5);
        assert_eq!(
            curve(&m),
            before,
            "old coefficients paired with a new centre"
        );
        // The residual cache follows the window even though the fit did not.
        assert_eq!(bits(m.residuals()), bits(&m.residuals_recomputed()));
        assert_eq!(
            m.residuals().last().copied(),
            Some(1234.5 - m.fitted_at(60.0).unwrap())
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Window fill, first fit, eviction, and a refit that fails
        /// part-way through: after every `push` the cache is what a
        /// reader would have recomputed.
        #[test]
        #[cfg_attr(miri, ignore)]
        fn cached_residuals_are_bitwise_the_recomputed_ones(
            values in prop::collection::vec(0.0f64..5000.0, 120),
            fail_from in 60usize..120,
        ) {
            let mut m = SplineModel::with_config(48, 8, 1e-6);
            for (k, v) in values.iter().enumerate() {
                if k == fail_from {
                    m.degenerate_window();
                }
                m.push(*v);
                prop_assert_eq!(bits(m.residuals()), bits(&m.residuals_recomputed()));
                prop_assert_eq!(m.residuals().len(), if m.fit.is_some() { m.window.len() } else { 0 });
            }
        }
    }

    #[test]
    fn basis_partition_of_unity() {
        // Uniform periodic cubic B-splines sum to 1 everywhere.
        let b = SplineBasis::uniform(168.0, 28);
        for t in [0.0, 3.7, 84.0, 167.9] {
            let s: f64 = b.eval(t).iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "sum at {t} = {s}");
        }
        // Wrap-around: phase 168 == phase 0.
        assert_eq!(b.eval(168.0), b.eval(0.0));
    }

    #[test]
    fn basis_has_local_support() {
        let b = SplineBasis::uniform(168.0, 28); // spacing 6 h
        let row = b.eval(0.0);
        // Basis 10 is centered at hour 60, far outside the 2-interval
        // support of phase 0.
        assert_eq!(row[10], 0.0);
        // Nearest centers contribute.
        assert!(row[0] > 0.0 && row[1] > 0.0 && row[27] > 0.0);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn learns_diurnal_pattern() {
        let mut m = SplineModel::new();
        for t in 0..336 {
            m.push(diurnal(t as f64));
        }
        assert!(m.fit.is_some());
        // Predict the next 24 hours: should track the sinusoid closely.
        for h in 0..24 {
            let t = 336.0 + h as f64;
            let pred = m.fitted_at(t).unwrap();
            let truth = diurnal(t);
            assert!(
                (pred - truth).abs() < 0.05 * truth,
                "h={h} pred={pred} truth={truth}"
            );
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn learns_linear_growth() {
        let mut m = SplineModel::new();
        for t in 0..336 {
            m.push(1000.0 + 2.0 * t as f64);
        }
        let pred = m.fitted_at(400.0).unwrap();
        let truth = 1000.0 + 2.0 * 400.0;
        assert!(
            (pred - truth).abs() < 0.05 * truth,
            "pred {pred} truth {truth}"
        );
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn residuals_small_on_clean_signal() {
        let mut m = SplineModel::new();
        for t in 0..336 {
            m.push(diurnal(t as f64));
        }
        let r = m.residuals();
        assert_eq!(r.len(), 336);
        let max = r.iter().fold(0.0_f64, |a, v| a.max(v.abs()));
        assert!(max < 30.0, "max residual {max}");
    }

    #[test]
    fn not_fit_with_tiny_history() {
        let mut m = SplineModel::new();
        for t in 0..10 {
            m.push(diurnal(t as f64));
        }
        assert!(m.fit.is_none());
        assert!(m.fitted_at(11.0).is_none());
        assert!(m.residuals().is_empty());
        assert_eq!(m.last_value(), Some(diurnal(9.0)));
    }

    #[test]
    fn window_slides() {
        let mut m = SplineModel::with_config(100, 6, 1e-4);
        for t in 0..250 {
            m.push(diurnal(t as f64));
        }
        assert_eq!(m.observations(), 250);
        assert_eq!(m.window.len(), 100);
        assert_eq!(m.window.front().unwrap().t, 150.0);
    }
}
