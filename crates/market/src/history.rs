//! Rolling per-market history of revocation probabilities.
//!
//! The monitoring component of SpotWeb (§5.2) keeps time series of
//! failure probabilities and exposes them to the covariance estimator
//! (prices go straight to the policy's price predictors, which keep
//! their own windows). `MarketHistory` is that record: a bounded window
//! per market, O(1) append, row access for estimation, and the risk
//! matrix `M` of the window kept up to date as records come and go, so
//! a receding-horizon controller reads it in O(n²) per interval instead
//! of re-estimating it over the whole window.

use std::collections::VecDeque;

use spotweb_linalg::Matrix;

/// A double-double: the unevaluated sum `hi + lo` of two `f64`s, with
/// `|lo| ≤ ulp(hi) / 2`.
///
/// The window's sums are kept in this form so that evicting a record
/// subtracts exactly what recording it added. A plain running
/// co-moment cannot: after the window drops a value far from the rest,
/// its variance is the small difference of two large numbers, and a
/// two-point window misses the batch correlation by up to 2.5e-10.
#[derive(Debug, Clone, Copy, Default)]
struct Dd {
    hi: f64,
    lo: f64,
}

impl Dd {
    /// `a · b` exactly (the fused multiply-add recovers the rounding).
    fn product(a: f64, b: f64) -> Dd {
        let hi = a * b;
        Dd {
            hi,
            lo: a.mul_add(b, -hi),
        }
    }

    /// `self + sign · other`, to twice working precision.
    fn add(self, other: Dd, sign: f64) -> Dd {
        let (s, e) = two_sum(self.hi, sign * other.hi);
        let (t, f) = two_sum(self.lo, sign * other.lo);
        let (s, e) = fast_two_sum(s, e + t);
        let (hi, lo) = fast_two_sum(s, e + f);
        Dd { hi, lo }
    }

    /// `self · other`, to twice working precision.
    fn mul(self, other: Dd) -> Dd {
        let p = Dd::product(self.hi, other.hi);
        let (hi, lo) = fast_two_sum(p.hi, p.lo + (self.hi * other.lo + self.lo * other.hi));
        Dd { hi, lo }
    }

    /// `self · k` for a small integer-valued `k`.
    fn scale(self, k: f64) -> Dd {
        let p = Dd::product(self.hi, k);
        let (hi, lo) = fast_two_sum(p.hi, p.lo + self.lo * k);
        Dd { hi, lo }
    }
}

/// Knuth's error-free sum: `a + b = s + e` exactly.
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    (s, (a - (s - bb)) + (b - bb))
}

/// Dekker's error-free sum, for `|a| ≥ |b|`.
fn fast_two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    (s, b - (s - a))
}

/// Bounded time-series history for `n` markets.
#[derive(Debug, Clone)]
pub struct MarketHistory {
    failure_probs: Vec<VecDeque<f64>>,
    capacity: usize,
    /// `Σ_k x_i[k]` over the window, per market.
    sums: Vec<Dd>,
    /// `Σ_k x_i[k]·x_j[k]` over the window, row-major `n × n`; only
    /// the upper triangle (`i ≤ j`) is kept.
    cross: Vec<Dd>,
    /// Per market, how many of the newest values are bitwise equal to
    /// the newest one. A run as long as the window is a constant
    /// series, whose σ is exactly 0.
    runs: Vec<usize>,
}

impl MarketHistory {
    /// Create a history for `markets` markets keeping at most
    /// `capacity` intervals each.
    pub fn new(markets: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "history capacity must be positive");
        MarketHistory {
            failure_probs: (0..markets)
                .map(|_| VecDeque::with_capacity(capacity))
                .collect(),
            capacity,
            sums: vec![Dd::default(); markets],
            cross: vec![Dd::default(); markets * markets],
            runs: vec![0; markets],
        }
    }

    /// Number of markets tracked.
    pub fn markets(&self) -> usize {
        self.failure_probs.len()
    }

    /// Number of recorded intervals (same for all markets).
    pub fn len(&self) -> usize {
        self.failure_probs.first().map_or(0, |q| q.len())
    }

    /// `true` before the first record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record one interval of observations, evicting the oldest once
    /// the window is full. O(n²): the window's sums lose the evicted
    /// record and gain the new one.
    ///
    /// # Panics
    /// Panics if slice lengths don't match the market count.
    pub fn record(&mut self, failure_probs: &[f64]) {
        assert_eq!(
            failure_probs.len(),
            self.markets(),
            "failure prob per market"
        );
        if self.len() == self.capacity {
            let oldest: Vec<f64> = self
                .failure_probs
                .iter_mut()
                .map(|q| q.pop_front().expect("a full window"))
                .collect();
            self.accumulate(&oldest, -1.0);
        }
        for ((q, run), &v) in self
            .failure_probs
            .iter_mut()
            .zip(&mut self.runs)
            .zip(failure_probs)
        {
            *run = match q.back() {
                Some(last) if last.to_bits() == v.to_bits() => (*run).min(q.len()) + 1,
                _ => 1,
            };
            q.push_back(v);
        }
        self.accumulate(failure_probs, 1.0);
    }

    /// Add (`sign = 1`) or remove (`sign = −1`) one record's terms.
    fn accumulate(&mut self, x: &[f64], sign: f64) {
        let n = x.len();
        for (i, &xi) in x.iter().enumerate() {
            self.sums[i] = self.sums[i].add(Dd { hi: xi, lo: 0.0 }, sign);
            let row = &mut self.cross[i * n..(i + 1) * n];
            for (c, &xj) in row[i..].iter_mut().zip(&x[i..]) {
                *c = c.add(Dd::product(xi, xj), sign);
            }
        }
    }

    /// The shrunk correlation matrix of the window: the estimate
    /// [`crate::estimate_correlation`] makes of
    /// [`MarketHistory::failure_matrix`], in O(n²) from the running
    /// sums. A market whose window holds one bitwise-repeated value
    /// has σ = 0, so its off-diagonals are exactly 0, as in the batch
    /// estimator.
    ///
    /// # Panics
    /// Panics if fewer than two intervals are recorded or `shrinkage`
    /// is outside `[0, 1]`.
    pub fn correlation(&self, shrinkage: f64) -> Matrix {
        assert!((0.0..=1.0).contains(&shrinkage), "shrinkage in [0,1]");
        let (n, t) = (self.markets(), self.len());
        assert!(t >= 2, "need at least two observations");
        let (tf, denom) = (t as f64, (t * (t - 1)) as f64);
        // Sample covariance `(t·Σxᵢxⱼ − Σxᵢ·Σxⱼ) / (t·(t − 1))`, the
        // difference taken before rounding to one `f64`.
        let covariance = |i: usize, j: usize| {
            let centred = self.cross[i * n + j]
                .scale(tf)
                .add(self.sums[i].mul(self.sums[j]), -1.0);
            centred.hi / denom
        };
        let sd: Vec<f64> = (0..n)
            .map(|i| {
                if self.runs[i] >= t {
                    0.0
                } else {
                    covariance(i, i).max(0.0).sqrt()
                }
            })
            .collect();
        let mut m = Matrix::identity(n);
        for i in 0..n {
            for j in (i + 1)..n {
                let c = if sd[i] == 0.0 || sd[j] == 0.0 {
                    0.0
                } else {
                    covariance(i, j) / (sd[i] * sd[j]) * (1.0 - shrinkage)
                };
                m[(i, j)] = c;
                m[(j, i)] = c;
            }
        }
        m.add_diag_mut(1e-8);
        m
    }

    /// Failure-probability series of market `id`, oldest first.
    pub fn failure_series(&self, id: usize) -> Vec<f64> {
        self.failure_probs[id].iter().copied().collect()
    }

    /// All failure series as rows (market-major) — the batch
    /// covariance estimators' input layout.
    pub fn failure_matrix(&self) -> Vec<Vec<f64>> {
        (0..self.markets())
            .map(|i| self.failure_series(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::covariance::estimate_correlation;
    use proptest::prelude::*;

    #[test]
    fn record_and_read() {
        let mut h = MarketHistory::new(2, 10);
        assert!(h.is_empty());
        h.record(&[0.1, 0.2]);
        h.record(&[0.15, 0.25]);
        assert_eq!(h.len(), 2);
        assert_eq!(h.failure_series(0), vec![0.1, 0.15]);
        assert_eq!(h.failure_series(1), vec![0.2, 0.25]);
    }

    #[test]
    fn window_evicts_oldest() {
        let mut h = MarketHistory::new(1, 3);
        for i in 0..5 {
            h.record(&[i as f64]);
        }
        assert_eq!(h.len(), 3);
        assert_eq!(h.failure_series(0), vec![2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "failure prob per market")]
    fn mismatched_record_panics() {
        let mut h = MarketHistory::new(2, 3);
        h.record(&[0.1]);
    }

    #[test]
    fn failure_matrix_layout() {
        let mut h = MarketHistory::new(2, 4);
        h.record(&[0.1, 0.3]);
        h.record(&[0.2, 0.4]);
        let m = h.failure_matrix();
        assert_eq!(m, vec![vec![0.1, 0.2], vec![0.3, 0.4]]);
    }

    /// `records` rows of `markets` probabilities: each market moves,
    /// or (about a quarter of them) holds one value throughout or from
    /// a drawn record on, so its window turns constant after eviction.
    fn recordings() -> impl Strategy<Value = (usize, Vec<Vec<f64>>)> {
        proptest::FnStrategy(|rng: &mut proptest::TestRng| {
            let capacity = (2usize..=16).sample(rng);
            let markets = (1usize..=7).sample(rng);
            let records = (2usize..=12 * capacity).sample(rng);
            let mut rows = vec![vec![0.0; markets]; records];
            for i in 0..markets {
                let calm = (0.0f64..0.3).sample(rng);
                let from = match (0u32..8).sample(rng) {
                    0 => 0,
                    1 => (0..records).sample(rng),
                    _ => records,
                };
                for (k, row) in rows.iter_mut().enumerate() {
                    row[i] = if k >= from {
                        calm
                    } else {
                        (0.0f64..0.3).sample(rng)
                    };
                }
            }
            (capacity, rows)
        })
    }

    proptest! {
        /// After every record the running estimate is the batch one
        /// over the window, eviction wrapping the window many times.
        #[test]
        fn running_correlation_matches_the_batch_estimator((capacity, rows) in recordings()) {
            let mut h = MarketHistory::new(rows[0].len(), capacity);
            for row in &rows {
                h.record(row);
                if h.len() < 2 {
                    continue;
                }
                let series = h.failure_matrix();
                let running = h.correlation(0.1);
                let batch = estimate_correlation(&series, 0.1);
                for (a, b) in running.as_slice().iter().zip(batch.as_slice()) {
                    prop_assert!((a - b).abs() <= 1e-12, "running {a} vs batch {b}");
                }
                for (i, s) in series.iter().enumerate() {
                    if s.iter().all(|v| v.to_bits() == s[0].to_bits()) {
                        for j in (0..series.len()).filter(|&j| j != i) {
                            prop_assert!(running[(i, j)] == 0.0 && running[(j, i)] == 0.0);
                        }
                    }
                }
            }
        }
    }
}
