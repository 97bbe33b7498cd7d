//! Cubic-spline regression over a moving window.
//!
//! The predictor of Ali-Eldin et al. \[1\] fits a cubic spline to a
//! two-week moving window of hourly observations. A spline over raw
//! time extrapolates poorly; what makes it work for web workloads is
//! that the fit captures the *repeating* diurnal/weekly structure. We
//! therefore regress the rate on a periodic cubic B-spline basis in
//! **hour-of-week** (so the fitted curve is the weekly profile) plus a
//! linear trend in absolute time (so growth extrapolates), by ridge
//! regression. A basis row has at most four nonzeros, so the normal
//! equations `(AᵀA + λI) β = Aᵀy` are summed from those, factored by
//! Cholesky and refined once against the rows.

use std::collections::VecDeque;

use spotweb_linalg::{Cholesky, Matrix};

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
struct SplineBasis {
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

/// The basis functions that can be nonzero at one phase: those of
/// knots `first`, `first + 1`, `first + 2` and `first + 3`, wrapping at
/// the knot count. Every other basis function is zero there.
#[derive(Debug, Clone, Copy)]
struct BasisRow {
    first: usize,
    values: [f64; 4],
}

impl BasisRow {
    /// `(knot, value)` for each of the four slots, in slot order.
    fn entries(&self, knots: usize) -> impl Iterator<Item = (usize, f64)> {
        (self.first..)
            .zip(self.values)
            .map(move |(j, v)| (j % knots, v))
    }

    /// `Σ value · coeffs[knot]`, one term per slot.
    fn dot(&self, coeffs: &[f64]) -> f64 {
        self.entries(coeffs.len()).map(|(j, v)| v * coeffs[j]).sum()
    }
}

impl SplineBasis {
    /// `num_knots ≥ 4` evenly spaced basis centers on `[0, period)`.
    fn uniform(period: f64, num_knots: usize) -> Self {
        assert!(period > 0.0 && num_knots >= 4);
        SplineBasis {
            num_knots,
            period,
            spacing: period / num_knots as f64,
        }
    }

    /// Number of basis functions.
    fn dim(&self) -> usize {
        self.num_knots
    }

    /// The basis at phase `t` (wrapped into the period). Knot `i` is
    /// the last center at or before `t`, so the support of knots
    /// `i − 1 ..= i + 2` covers it.
    fn row(&self, t: f64) -> BasisRow {
        let k = self.num_knots;
        let t = t.rem_euclid(self.period);
        let i = ((t / self.spacing) as usize).min(k - 1);
        let first = (i + k - 1) % k;
        let values = std::array::from_fn(|m| {
            let center = ((first + m) % k) as f64 * self.spacing;
            // Shortest periodic distance from t to this center.
            let mut d = t - center;
            if d > self.period / 2.0 {
                d -= self.period;
            } else if d < -self.period / 2.0 {
                d += self.period;
            }
            bspline3(d / self.spacing)
        });
        BasisRow { first, values }
    }
}

/// One window entry. The basis row is a pure function of the hour, so
/// it is evaluated once, on entry.
#[derive(Debug, Clone)]
struct Sample {
    /// Absolute hour.
    t: f64,
    value: f64,
    row: BasisRow,
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
    /// The fitted curve at absolute hour `t`, whose basis row is `row`.
    fn at(&self, row: &BasisRow, t: f64) -> f64 {
        row.dot(&self.coeffs) + self.trend * (t - self.t_center)
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
    ///
    /// # Panics
    /// Panics if `window < 8`, `knots < 4`, or `ridge` is negative or
    /// not finite.
    pub fn with_config(window: usize, knots: usize, ridge: f64) -> Self {
        assert!(window >= 8, "window too small for a cubic fit");
        assert!(
            ridge >= 0.0 && ridge.is_finite(),
            "the `ridge` penalty must be finite and non-negative (got {ridge})"
        );
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
    ///
    /// # Panics
    /// Panics if `value` is NaN or infinite: the fit would take it
    /// without complaint and forecast NaN while it sits in the window.
    pub fn push(&mut self, value: f64) {
        assert!(
            value.is_finite(),
            "the observed `value` must be finite (got {value})"
        );
        let t = self.total_observed as f64;
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        let row = self.basis.row(t);
        self.window.push_back(Sample { t, value, row });
        self.total_observed += 1;
        // Need more rows than columns (+ trend) for a stable fit.
        if self.window.len() >= self.basis.dim() + 5 {
            if let Some(fit) = self.solve() {
                self.fit = Some(fit);
            }
        }
        // The window moved even if the fit did not.
        if let Some(fit) = &self.fit {
            self.residuals.clear();
            self.residuals
                .extend(self.window.iter().map(|s| s.value - fit.at(&s.row, s.t)));
        }
    }

    /// Ridge regression of the window on the basis and a centered trend
    /// column (the last of `p = knots + 1`), or `None` if the factor
    /// fails. `G = AᵀA + λI` (its lower triangle) and `Aᵀy` are summed
    /// from each row's four nonzeros and its trend entry. Forming `G`
    /// squares the conditioning, and the trend is near-collinear with
    /// the basis while the window is shorter than the period, so one
    /// step of iterative refinement follows the Cholesky solve: the
    /// residual `r = Aᵀ(y − Aβ) − λβ` is taken from the rows
    /// themselves, not from `G`, and `β += G⁻¹r`.
    fn solve(&self) -> Option<Fit> {
        let k = self.basis.dim();
        let n = self.window.len();
        let t_center = self.window.iter().map(|s| s.t).sum::<f64>() / n as f64;
        // Centered linear trend column, scaled to window units so ridge
        // treats it comparably to the basis columns.
        let trend = |s: &Sample| (s.t - t_center) / self.capacity as f64;
        let mut gram = Matrix::zeros(k + 1, k + 1);
        // `Aᵀy` until the solve overwrites it with `β`.
        let mut beta = vec![0.0; k + 1];
        for s in &self.window {
            let x = trend(s);
            for (a, (ja, va)) in s.row.entries(k).enumerate() {
                for (jb, vb) in s.row.entries(k).take(a + 1) {
                    gram[(ja.max(jb), ja.min(jb))] += va * vb;
                }
                gram[(k, ja)] += x * va;
                beta[ja] += va * s.value;
            }
            gram[(k, k)] += x * x;
            beta[k] += x * s.value;
        }
        gram.add_diag_mut(self.ridge);
        let factor = Cholesky::factor_in_place(gram).ok()?;
        factor
            .solve_in_place(&mut beta)
            .expect("one entry per column");
        let mut r: Vec<f64> = beta.iter().map(|b| -self.ridge * b).collect();
        for s in &self.window {
            let x = trend(s);
            let e = s.value - (s.row.dot(&beta[..k]) + x * beta[k]);
            for (j, v) in s.row.entries(k) {
                r[j] += v * e;
            }
            r[k] += x * e;
        }
        factor.solve_in_place(&mut r).expect("one entry per column");
        for (b, d) in beta.iter_mut().zip(&r) {
            *b += d;
        }
        Some(Fit {
            coeffs: beta[..k].to_vec(),
            trend: beta[k] / self.capacity as f64,
            t_center,
        })
    }

    /// Evaluate the fitted curve at absolute hour `t` (may be in the
    /// future). Returns `None` before the first successful fit.
    pub fn fitted_at(&self, t: f64) -> Option<f64> {
        let fit = self.fit.as_ref()?;
        Some(fit.at(&self.basis.row(t), t))
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
        /// the other six are exact-zero columns and the Cholesky factor
        /// meets a zero pivot. (The design depends on the hours only,
        /// so no sequence of `push` values can do this.)
        pub(crate) fn degenerate_window(&mut self) {
            self.ridge = 0.0;
            for (k, s) in self.window.iter_mut().enumerate() {
                s.t = (k % 24) as f64;
                s.row = self.basis.row(s.t);
            }
        }
    }

    /// Every basis function at phase `t`, each by its own periodic
    /// distance: the dense scan the sparse row must agree with.
    fn dense_row(b: &SplineBasis, t: f64) -> Vec<f64> {
        let t = t.rem_euclid(b.period);
        (0..b.num_knots)
            .map(|j| {
                let mut d = t - j as f64 * b.spacing;
                if d > b.period / 2.0 {
                    d -= b.period;
                } else if d < -b.period / 2.0 {
                    d += b.period;
                }
                bspline3(d / b.spacing)
            })
            .collect()
    }

    /// The sparse row spread over every knot.
    fn densified(b: &SplineBasis, t: f64) -> Vec<f64> {
        let mut row = vec![0.0; b.dim()];
        for (j, v) in b.row(t).entries(b.dim()) {
            row[j] += v;
        }
        row
    }

    /// The window's ridge fit `[β; trend·capacity]` by the dense stacked
    /// system `[A; √λI] β ≈ [y; 0]`, solved by Householder QR
    /// (`linalg::lstsq`): nothing shared with `SplineModel::solve` but
    /// the window itself.
    fn dense_qr_fit(m: &SplineModel) -> Vec<f64> {
        let (n, k) = (m.window.len(), m.basis.dim());
        let t_center = m.window.iter().map(|s| s.t).sum::<f64>() / n as f64;
        let mut a = Matrix::zeros(n + k + 1, k + 1);
        let mut y = vec![0.0; n + k + 1];
        for (r, s) in m.window.iter().enumerate() {
            let row = a.row_mut(r);
            row[..k].copy_from_slice(&dense_row(&m.basis, s.t));
            row[k] = (s.t - t_center) / m.capacity as f64;
            y[r] = s.value;
        }
        for i in 0..=k {
            a[(n + i, i)] = m.ridge.sqrt();
        }
        spotweb_linalg::lstsq(&a, &y).unwrap()
    }

    /// Diurnal load with growth and a deterministic ±10 % jitter.
    fn noisy_growth(t: usize) -> f64 {
        let jitter =
            ((t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 11) as f64 / (1u64 << 53) as f64;
        diurnal(t as f64) * (0.9 + 0.2 * jitter) + 3.0 * t as f64
    }

    /// After every push that fits, the h = 1…4 forecasts match the
    /// dense QR oracle's to `1e-11` of the window's largest |value|,
    /// and the coefficients to `1e-10` of the oracle's largest one.
    /// The coefficients get the looser bound because the oracle's own
    /// carry ~1e-11 of error: while the window is shorter than the
    /// week, the trend column is near-collinear with the basis, and a
    /// second refinement step leaves the difference where it is.
    fn assert_matches_dense_qr(window: usize, knots: usize, ridge: f64, pushes: usize) {
        let mut m = SplineModel::with_config(window, knots, ridge);
        for t in 0..pushes {
            m.push(noisy_growth(t));
            let Some(fit) = &m.fit else { continue };
            let what = format!("{window} × {knots}, λ {ridge}, push {t}");
            let oracle = dense_qr_fit(&m);
            let mut ours = fit.coeffs.clone();
            ours.push(fit.trend * m.capacity as f64);
            let scale = oracle.iter().fold(0.0_f64, |s, b| s.max(b.abs()));
            for (j, (a, b)) in ours.iter().zip(&oracle).enumerate() {
                let off = (a - b).abs() / scale;
                assert!(off <= 1e-10, "{what}: β[{j}] {a} vs QR {b} ({off:e})");
            }
            let scale = m.window.iter().fold(0.0_f64, |s, x| s.max(x.value.abs()));
            let t_center = m.window.iter().map(|s| s.t).sum::<f64>() / m.window.len() as f64;
            for h in 1..=4 {
                let at = m.next_hour() + (h - 1) as f64;
                let seasonal: f64 = dense_row(&m.basis, at)
                    .iter()
                    .zip(&oracle)
                    .map(|(b, c)| b * c)
                    .sum();
                let want = seasonal + oracle[knots] * (at - t_center) / m.capacity as f64;
                let got = m.fitted_at(at).unwrap();
                let off = (got - want).abs() / scale;
                assert!(
                    off <= 1e-11,
                    "{what}: h = {h}: {got} vs QR {want} ({off:e})"
                );
            }
        }
        assert!(m.fit.is_some() && m.observations() == pushes);
    }

    /// The two-week, two-day and 100-hour configurations through
    /// window fill, eviction and rows that wrap the week. The worst
    /// forecast difference is 3.5e-13 with the refinement step and
    /// 1.8e-10 without it (coefficients 1.3e-11 and 2.2e-9), so
    /// dropping the step fails this test.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn fit_matches_the_dense_qr_oracle() {
        for (window, knots, ridge) in [(336, 28, 1e-6), (48, 8, 1e-6), (100, 6, 1e-4)] {
            assert_matches_dense_qr(window, knots, ridge, 600);
        }
    }

    /// A miri-sized case of the above: a two-day window, 8 knots.
    #[test]
    fn small_fit_matches_the_dense_qr_oracle() {
        assert_matches_dense_qr(48, 8, 1e-6, 120);
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
            let s: f64 = b.row(t).values.iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "sum at {t} = {s}");
        }
        // Wrap-around: phase 168 == phase 0.
        assert_eq!(densified(&b, 168.0), densified(&b, 0.0));
    }

    #[test]
    fn basis_has_local_support() {
        let b = SplineBasis::uniform(168.0, 28); // spacing 6 h
        let row = densified(&b, 0.0);
        // Basis 10 is centered at hour 60, far outside the 2-interval
        // support of phase 0.
        assert_eq!(row[10], 0.0);
        // Nearest centers contribute.
        assert!(row[0] > 0.0 && row[1] > 0.0 && row[27] > 0.0);
        // The four slots hold every nonzero of the dense scan, on and
        // between the knots and across the wrap.
        for knots in [4, 6, 8, 28] {
            let b = SplineBasis::uniform(168.0, knots);
            for t in (0..=8 * 168).map(|q| q as f64 / 4.0 - 3.0) {
                assert_eq!(densified(&b, t), dense_row(&b, t), "{knots} knots, t {t}");
            }
        }
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
    #[should_panic(expected = "the `ridge` penalty must be finite and non-negative (got -1)")]
    fn negative_ridge_is_rejected_by_name() {
        SplineModel::with_config(48, 8, -1.0);
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
