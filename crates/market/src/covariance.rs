//! Estimation of the revocation covariance matrix `M`.
//!
//! The paper's quadratic risk term (Eq. 5) is `α·AᵀMA` with `M` "the
//! covariance matrix of pairwise market revocation events which can be
//! inferred from the changes in the failure probability over time".
//! We estimate `M` as the sample covariance of the failure-probability
//! series and apply diagonal shrinkage so it is strictly positive
//! definite (required both by the risk interpretation and by the QP
//! solver's KKT factorization).

use spotweb_linalg::{vector, Matrix};

/// The shrinkage intensity every in-tree estimate of the risk matrix
/// uses (the evaluator, the policy bridge, the examples).
pub const DEFAULT_SHRINKAGE: f64 = 0.1;

/// Sample covariance `S` of the series (denominator `T − 1`).
///
/// Every entry is the expression tree of the two-series sample
/// covariance in `spotweb_linalg::vector` — the mean by one ascending
/// sum, then `Σ_k (x_i[k] − x̄_i)·(x_j[k] − x̄_j)` ascending in `k` — so
/// the result is bit-identical to calling that per pair. What differs
/// is the work: each series is centred once instead of once per pair,
/// and four pairs `(i, j..j+4)` run as four separate accumulators (one
/// chain is bound by the add latency).
///
/// A bitwise-constant series is centred to exact zeros: its computed
/// mean may round off the value (`0.1` summed 48 times is not `4.8`),
/// and the residue would give it a σ of ~1e-17 and two calm markets a
/// correlation of ±1. [`crate::MarketHistory::correlation`] applies the
/// same rule through its run lengths.
///
/// # Panics
/// Panics if no series is supplied, lengths differ, or the shared
/// length is < 2.
fn sample_covariance(series: &[Vec<f64>]) -> Matrix {
    assert!(!series.is_empty(), "need at least one market series");
    let t = series[0].len();
    assert!(t >= 2, "need at least two observations");
    assert!(
        series.iter().all(|s| s.len() == t),
        "all series must share one length"
    );
    let n = series.len();
    let mut centred = vec![0.0; n * t];
    for (row, s) in centred.chunks_exact_mut(t).zip(series) {
        if s.iter().all(|v| v.to_bits() == s[0].to_bits()) {
            continue;
        }
        let mean = vector::mean(s);
        for (c, x) in row.iter_mut().zip(s) {
            *c = x - mean;
        }
    }
    let row = |i: usize| &centred[i * t..(i + 1) * t];
    let denom = (t - 1) as f64;
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        let ci = row(i);
        let mut j = i;
        while j + 4 <= n {
            let (c0, c1, c2, c3) = (row(j), row(j + 1), row(j + 2), row(j + 3));
            // `f64::sum` starts from −0.0; so do the lanes.
            let (mut s0, mut s1, mut s2, mut s3) = (-0.0, -0.0, -0.0, -0.0);
            for ((((x, y0), y1), y2), y3) in ci.iter().zip(c0).zip(c1).zip(c2).zip(c3) {
                s0 += x * y0;
                s1 += x * y1;
                s2 += x * y2;
                s3 += x * y3;
            }
            for (lane, sum) in [s0, s1, s2, s3].into_iter().enumerate() {
                let c = sum / denom;
                m[(i, j + lane)] = c;
                m[(j + lane, i)] = c;
            }
            j += 4;
        }
        for j in j..n {
            let c = vector::dot(ci, row(j)) / denom;
            m[(i, j)] = c;
            m[(j, i)] = c;
        }
    }
    m
}

/// Estimate a shrunk covariance matrix from per-market series.
///
/// `series[i]` is market `i`'s failure-probability history (all series
/// must share one length ≥ 2). The estimator is
/// `M = (1−δ)·S + δ·diag(S)` + a tiny ridge, where `S` is the sample
/// covariance — classic shrinkage towards the diagonal, which both
/// conditions the matrix and tempers spurious off-diagonal noise from
/// short windows.
///
/// # Panics
/// Panics if fewer than one series is supplied, lengths differ, the
/// shared length is < 2, or `shrinkage` is outside `[0, 1]`.
pub fn estimate_covariance(series: &[Vec<f64>], shrinkage: f64) -> Matrix {
    assert!((0.0..=1.0).contains(&shrinkage), "shrinkage in [0,1]");
    let mut m = sample_covariance(series);
    let n = m.rows();
    // Shrink off-diagonals toward zero.
    for i in 0..n {
        for j in 0..n {
            if i != j {
                m[(i, j)] *= 1.0 - shrinkage;
            }
        }
    }
    // Ridge keeps M usable even when a series is constant (zero
    // variance) — common for on-demand markets whose f ≡ 0.
    m.add_diag_mut(1e-8);
    m
}

/// Estimate a shrunk **correlation** matrix from per-market series.
///
/// §6 of the paper: "M is chosen based on correlation between the
/// failure probabilities matrix" — correlations are scale-free (O(1)
/// entries), which is what makes the paper's risk-aversion value
/// `α = 5` meaningful against O(1) cost terms. Markets with constant
/// histories (on-demand, or perfectly calm spot pools) get a unit
/// diagonal and zero off-diagonals.
///
/// # Panics
/// As [`estimate_covariance`].
pub fn estimate_correlation(series: &[Vec<f64>], shrinkage: f64) -> Matrix {
    assert!((0.0..=1.0).contains(&shrinkage), "shrinkage in [0,1]");
    let mut m = sample_covariance(series);
    let n = m.rows();
    let sd: Vec<f64> = (0..n).map(|i| m[(i, i)].sqrt()).collect();
    for i in 0..n {
        m[(i, i)] = 1.0;
        for j in (i + 1)..n {
            let c = if sd[i] == 0.0 || sd[j] == 0.0 {
                0.0
            } else {
                m[(i, j)] / (sd[i] * sd[j]) * (1.0 - shrinkage)
            };
            m[(i, j)] = c;
            m[(j, i)] = c;
        }
    }
    // Shrinkage toward the identity keeps the matrix positive definite
    // even when short windows produce spurious ±1 correlations.
    m.add_diag_mut(1e-8);
    m
}

/// Partition markets into failure-correlation groups.
///
/// Two markets land in the same group when the absolute value of their
/// pairwise correlation (entry of `corr`, e.g. from
/// [`estimate_correlation`]) is at least `threshold` — extended
/// transitively (single linkage), because a chain of strongly
/// correlated markets fails together in the scenarios that matter
/// (correlated price spikes, mass revocations). Fault-tolerance-aware
/// heterogeneous grouping (Qu et al., arXiv:1509.05197) provisions at
/// most one market per group so that one correlated failure domain
/// takes out at most one slice of the fleet.
///
/// Returns one group id per market. Ids are dense, start at 0, and are
/// assigned in market order (market 0 is always in group 0), so the
/// output is a pure function of the matrix — no hashing, no RNG.
///
/// # Panics
/// Panics if `corr` is not square or `threshold` is not in `[0, 1]`.
pub fn correlation_groups(corr: &Matrix, threshold: f64) -> Vec<usize> {
    let n = corr.rows();
    assert_eq!(n, corr.cols(), "correlation matrix must be square");
    assert!((0.0..=1.0).contains(&threshold), "threshold in [0,1]");
    // Union-find over the ≥-threshold pairs.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if corr[(i, j)].abs() >= threshold {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    // Attach the larger root under the smaller so the
                    // representative is always the lowest market id.
                    parent[ri.max(rj)] = ri.min(rj);
                }
            }
        }
    }
    // Renumber roots densely in first-appearance (market) order.
    let mut ids = vec![usize::MAX; n];
    let mut next = 0;
    (0..n)
        .map(|i| {
            let root = find(&mut parent, i);
            if ids[root] == usize::MAX {
                ids[root] = next;
                next += 1;
            }
            ids[root]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spotweb_linalg::Cholesky;
    use std::ops::RangeInclusive;

    /// A bitwise-constant series moved to zero, which leaves its
    /// covariances unchanged and makes its computed mean exact: the
    /// zero-σ rule `sample_covariance` applies, stated for the pairwise
    /// references below.
    fn calm_to_zero(series: &[Vec<f64>]) -> Vec<Vec<f64>> {
        series
            .iter()
            .map(|s| {
                if s.iter().all(|v| v.to_bits() == s[0].to_bits()) {
                    vec![0.0; s.len()]
                } else {
                    s.clone()
                }
            })
            .collect()
    }

    /// The pairwise `vector::covariance` loop `estimate_covariance`
    /// replaced, kept as the bitwise reference.
    fn covariance_by_pairs(series: &[Vec<f64>], shrinkage: f64) -> Matrix {
        let series = calm_to_zero(series);
        let n = series.len();
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let c = vector::covariance(&series[i], &series[j]);
                m[(i, j)] = c;
                m[(j, i)] = c;
            }
        }
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    m[(i, j)] *= 1.0 - shrinkage;
                }
            }
        }
        m.add_diag_mut(1e-8);
        m
    }

    /// The pairwise `vector::correlation` loop `estimate_correlation`
    /// replaced, kept as the bitwise reference.
    fn correlation_by_pairs(series: &[Vec<f64>], shrinkage: f64) -> Matrix {
        let series = calm_to_zero(series);
        let n = series.len();
        let mut m = Matrix::identity(n);
        for i in 0..n {
            for j in (i + 1)..n {
                let c = vector::correlation(&series[i], &series[j]) * (1.0 - shrinkage);
                m[(i, j)] = c;
                m[(j, i)] = c;
            }
        }
        m.add_diag_mut(1e-8);
        m
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    fn assert_matches_pairwise(series: &[Vec<f64>]) {
        for shrinkage in [0.0, DEFAULT_SHRINKAGE, 1.0] {
            assert_eq!(
                bits(&estimate_covariance(series, shrinkage)),
                bits(&covariance_by_pairs(series, shrinkage)),
                "covariance, shrinkage {shrinkage}"
            );
            assert_eq!(
                bits(&estimate_correlation(series, shrinkage)),
                bits(&correlation_by_pairs(series, shrinkage)),
                "correlation, shrinkage {shrinkage}"
            );
        }
    }

    /// `n` failure-probability series of one drawn length; about one in
    /// four is constant (σ = 0, or a mean that rounds off the value).
    fn histories(
        markets: RangeInclusive<usize>,
        length: RangeInclusive<usize>,
    ) -> impl Strategy<Value = Vec<Vec<f64>>> {
        proptest::FnStrategy(move |rng: &mut proptest::TestRng| {
            let n = markets.sample(rng);
            let t = length.sample(rng);
            (0..n)
                .map(|_| {
                    if prop::bool::weighted(0.25).sample(rng) {
                        vec![(0.0f64..0.3).sample(rng); t]
                    } else {
                        prop::collection::vec(0.0f64..0.3, t).sample(rng)
                    }
                })
                .collect()
        })
    }

    proptest! {
        #[test]
        fn estimators_are_bitwise_the_pairwise_loops_small(series in histories(1..=9, 2..=12)) {
            assert_matches_pairwise(&series);
        }

        /// Every lane remainder (`n mod 4`) at window lengths up to the
        /// benchmark's.
        #[test]
        #[cfg_attr(miri, ignore)]
        fn estimators_are_bitwise_the_pairwise_loops(series in histories(1..=40, 2..=600)) {
            assert_matches_pairwise(&series);
        }
    }

    #[test]
    fn on_demand_and_calm_markets_match_the_pairwise_loops() {
        // f ≡ 0, a constant whose mean rounds (0.1 summed 7 times), and
        // two moving series: the zero-σ short-circuit and signed zeros.
        let moving: Vec<f64> = (0..7).map(|k| 0.05 + 0.01 * f64::from(k % 3)).collect();
        let falling: Vec<f64> = moving.iter().map(|v| 0.2 - v).collect();
        assert_matches_pairwise(&[vec![0.0; 7], vec![0.1; 7], moving, falling, vec![0.3; 7]]);
    }

    #[test]
    fn two_calm_markets_are_uncorrelated() {
        // 0.1 summed 48 times rounds off 4.8: the computed mean missed
        // the value, σ came out ~1e-17 and the pair read −1 (−0.9 after
        // shrinkage).
        let series = [vec![0.1; 48], vec![0.3; 48]];
        for shrinkage in [0.0, DEFAULT_SHRINKAGE] {
            let m = estimate_correlation(&series, shrinkage);
            assert_eq!((m[(0, 1)], m[(1, 0)]), (0.0, 0.0), "shrinkage {shrinkage}");
            assert_eq!((m[(0, 0)], m[(1, 1)]), (1.0 + 1e-8, 1.0 + 1e-8));
        }
        let m = estimate_covariance(&series, 0.0);
        assert_eq!([m[(0, 0)], m[(0, 1)], m[(1, 1)]], [1e-8, 0.0, 1e-8]);
    }

    #[test]
    fn diagonal_is_variance() {
        let s = vec![vec![1.0, 2.0, 3.0, 4.0], vec![1.0, 1.0, 1.0, 1.0]];
        let m = estimate_covariance(&s, 0.0);
        assert!((m[(0, 0)] - vector::variance(&s[0]) - 1e-8).abs() < 1e-12);
        assert!((m[(1, 1)] - 1e-8).abs() < 1e-12);
    }

    #[test]
    fn correlated_series_have_positive_cov() {
        let a: Vec<f64> = (0..50)
            .map(|i| 0.05 + 0.01 * (i as f64 * 0.3).sin())
            .collect();
        let b: Vec<f64> = a.iter().map(|v| v * 1.5 + 0.01).collect();
        let m = estimate_covariance(&[a, b], 0.1);
        assert!(m[(0, 1)] > 0.0);
    }

    #[test]
    fn result_is_positive_definite() {
        // Even with perfectly collinear series, shrinkage + ridge give PD.
        let a = vec![0.1, 0.2, 0.3, 0.4, 0.5];
        let b = a.clone();
        let m = estimate_covariance(&[a, b], 0.1);
        assert!(Cholesky::factor(&m).is_ok());
    }

    #[test]
    fn constant_series_pd_via_ridge() {
        let m = estimate_covariance(&[vec![0.0; 10], vec![0.0; 10]], 0.1);
        assert!(Cholesky::factor(&m).is_ok());
    }

    #[test]
    fn shrinkage_reduces_off_diagonal() {
        let a: Vec<f64> = (0..30).map(|i| (i as f64 * 0.2).sin()).collect();
        let b: Vec<f64> = (0..30).map(|i| (i as f64 * 0.2).sin() + 0.01).collect();
        let none = estimate_covariance(&[a.clone(), b.clone()], 0.0);
        let heavy = estimate_covariance(&[a, b], 0.9);
        assert!(heavy[(0, 1)].abs() < none[(0, 1)].abs());
    }

    #[test]
    #[should_panic(expected = "share one length")]
    fn ragged_series_panic() {
        estimate_covariance(&[vec![1.0, 2.0], vec![1.0]], 0.1);
    }

    #[test]
    fn groups_split_uncorrelated_and_join_correlated() {
        let mut m = Matrix::identity(4);
        // Markets 0↔2 strongly correlated; 1 and 3 independent.
        m[(0, 2)] = 0.9;
        m[(2, 0)] = 0.9;
        let g = correlation_groups(&m, 0.5);
        assert_eq!(g, vec![0, 1, 0, 2], "dense ids in market order");
    }

    #[test]
    fn groups_are_transitive_single_linkage() {
        let mut m = Matrix::identity(3);
        // 0↔1 and 1↔2 correlated, 0↔2 not: still one failure domain.
        m[(0, 1)] = 0.8;
        m[(1, 0)] = 0.8;
        m[(1, 2)] = 0.8;
        m[(2, 1)] = 0.8;
        let g = correlation_groups(&m, 0.5);
        assert_eq!(g, vec![0, 0, 0]);
    }

    #[test]
    fn identity_matrix_puts_every_market_alone() {
        let g = correlation_groups(&Matrix::identity(5), 0.3);
        assert_eq!(g, vec![0, 1, 2, 3, 4]);
    }
}
