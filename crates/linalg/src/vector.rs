//! Free-function vector kernels on `&[f64]`.
//!
//! These are the inner-loop primitives of the ADMM solver; they are
//! written so the compiler can auto-vectorize them (no bounds checks in
//! the hot path thanks to `zip`).

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics in debug builds if lengths differ (release builds truncate to
/// the shorter slice, which callers must never rely on).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The larger of two values, NaN if either is. (`f64::max` returns the
/// *other* operand, so a fold over it reports an all-NaN vector as 0.)
#[inline]
pub fn max_nan(a: f64, b: f64) -> f64 {
    if b > a || b.is_nan() {
        b
    } else {
        a
    }
}

/// `(0..len).map(term).fold(0.0, max_nan)`, to the bit, in four
/// compare-and-select lanes. Without a NaN the fold keeps the largest
/// term, or the `+0.0` it starts from (a `−0.0` never displaces it),
/// whatever order the terms come in, and so do the lanes. A NaN sets a
/// flag, and the fold itself is then re-run for the NaN it keeps.
#[inline]
pub fn max_nan_of(len: usize, term: impl Fn(usize) -> f64) -> f64 {
    let select = |m: f64, v: f64| if v > m { v } else { m };
    let mut lanes = [0.0_f64; 4];
    let mut nan = false;
    for q in 0..len / 4 {
        for (k, lane) in lanes.iter_mut().enumerate() {
            let v = term(4 * q + k);
            nan |= v.is_nan();
            *lane = select(*lane, v);
        }
    }
    let mut m = select(select(lanes[0], lanes[1]), select(lanes[2], lanes[3]));
    for i in len - len % 4..len {
        let v = term(i);
        nan |= v.is_nan();
        m = select(m, v);
    }
    if nan {
        return (0..len).fold(0.0, |m, i| max_nan(m, term(i)));
    }
    m
}

/// Infinity (max-abs) norm; NaN if any entry is.
#[inline]
pub fn norm_inf(a: &[f64]) -> f64 {
    max_nan_of(a.len(), |i| a[i].abs())
}

/// Clamp each element of `x` into `[lo[i], hi[i]]` in place.
#[inline]
pub fn clamp_box(x: &mut [f64], lo: &[f64], hi: &[f64]) {
    debug_assert!(x.len() == lo.len() && lo.len() == hi.len());
    for ((v, &l), &h) in x.iter_mut().zip(lo).zip(hi) {
        *v = v.clamp(l, h);
    }
}

/// Arithmetic mean; returns 0.0 for an empty slice.
#[inline]
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Sample variance (denominator `n - 1`); returns 0.0 for fewer than 2 samples.
pub fn variance(a: &[f64]) -> f64 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a);
    a.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (a.len() - 1) as f64
}

/// Sample standard deviation.
#[inline]
pub fn std_dev(a: &[f64]) -> f64 {
    variance(a).sqrt()
}

/// Sample covariance of two equal-length series (denominator `n - 1`).
pub fn covariance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    if a.len() < 2 {
        return 0.0;
    }
    let (ma, mb) = (mean(a), mean(b));
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - ma) * (y - mb))
        .sum::<f64>()
        / (a.len() - 1) as f64
}

/// Pearson correlation; 0.0 when either series is constant.
pub fn correlation(a: &[f64], b: &[f64]) -> f64 {
    let (sa, sb) = (std_dev(a), std_dev(b));
    if sa == 0.0 || sb == 0.0 {
        return 0.0;
    }
    covariance(a, b) / (sa * sb)
}

/// Linearly interpolated percentile of an already-sorted slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = rank - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dot_and_norms() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
    }

    #[test]
    fn norm_inf_propagates_nan_from_any_position() {
        for at in 0..3 {
            let mut a = [1.0, -4.0, 2.0];
            a[at] = f64::NAN;
            assert!(norm_inf(&a).is_nan(), "NaN at {at}");
        }
        assert_eq!(norm_inf(&[1.0, f64::NEG_INFINITY]), f64::INFINITY);
        assert!(max_nan(f64::NAN, 1.0).is_nan() && max_nan(1.0, f64::NAN).is_nan());
        assert_eq!(max_nan(1.0, 2.0), 2.0);
        assert_eq!(max_nan(2.0, 1.0), 2.0);
    }

    /// The fold the lanes stand for, kept as their oracle.
    fn max_nan_fold(a: &[f64]) -> f64 {
        a.iter().fold(0.0_f64, |m, v| max_nan(m, v.abs()))
    }

    /// Lengths 0–13 (every remainder of four, and none); each entry a
    /// `±0.0`, a `±∞`, a NaN of either sign or payload, or a value.
    fn entries() -> impl Strategy<Value = Vec<(u8, f64)>> {
        let len = if cfg!(miri) { 0..6 } else { 0..14 };
        prop::collection::vec((0u8..12, -1e3f64..1e3), len)
    }

    fn entry((kind, v): (u8, f64)) -> f64 {
        match kind {
            0 => 0.0,
            1 => -0.0,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 => f64::NAN,
            5 => -f64::from_bits(f64::NAN.to_bits() | 0x5a5a),
            _ => v,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 16 } else { 512 }))]

        /// The lane max is the `max_nan` fold to the bit over any mix
        /// of signed zeros, infinities, NaNs and values.
        #[test]
        fn lane_max_is_bitwise_the_max_nan_fold(cells in entries()) {
            let a: Vec<f64> = cells.into_iter().map(entry).collect();
            prop_assert_eq!(norm_inf(&a).to_bits(), max_nan_fold(&a).to_bits());
        }
    }

    #[test]
    fn lane_max_keeps_the_fold_s_nan_first_last_or_alone() {
        let other = -f64::from_bits(f64::NAN.to_bits() | 1);
        for len in 1..10 {
            for at in [0, len - 1] {
                for nan in [f64::NAN, other] {
                    let mut a: Vec<f64> = (0..len).map(|i| i as f64 - 4.0).collect();
                    a[at] = nan;
                    assert_eq!(norm_inf(&a).to_bits(), max_nan_fold(&a).to_bits());
                    // Two NaNs: the fold keeps the later one's bits.
                    a[len - 1 - at] = if nan.to_bits() == other.to_bits() {
                        f64::NAN
                    } else {
                        other
                    };
                    assert_eq!(norm_inf(&a).to_bits(), max_nan_fold(&a).to_bits());
                }
            }
        }
        assert!(norm_inf(&[f64::NAN]).is_nan());
        for a in [
            &[][..],
            &[-0.0],
            &[-0.0; 5],
            &[f64::NEG_INFINITY, -0.0, 0.0, -0.0],
        ] {
            assert_eq!(norm_inf(a).to_bits(), max_nan_fold(a).to_bits(), "{a:?}");
        }
        assert_eq!(
            norm_inf(&[1.0, -0.0, f64::NEG_INFINITY, 2.0, 3.0]),
            f64::INFINITY
        );
        // Signed terms, which the solver's residuals never pass: a
        // negative one never displaces the `+0.0` start.
        let signed = [-3.0, -0.0, -1.0, -7.0, -2.0];
        assert_eq!(max_nan_of(5, |i| signed[i]).to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn clamp_box_clamps_each_element() {
        let mut x = vec![-2.0, 0.5, 9.0];
        clamp_box(&mut x, &[0.0, 0.0, 0.0], &[1.0, 1.0, 5.0]);
        assert_eq!(x, vec![0.0, 0.5, 5.0]);
    }

    #[test]
    fn stats_basics() {
        let a = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&a), 5.0);
        assert!((variance(&a) - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
    }

    #[test]
    fn covariance_and_correlation() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        assert!((correlation(&a, &b) - 1.0).abs() < 1e-12);
        let c = [8.0, 6.0, 4.0, 2.0];
        assert!((correlation(&a, &c) + 1.0).abs() < 1e-12);
        assert_eq!(correlation(&a, &[5.0; 4]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&a, 0.0), 1.0);
        assert_eq!(percentile_sorted(&a, 100.0), 4.0);
        assert_eq!(percentile_sorted(&a, 50.0), 2.5);
        assert!(percentile_sorted(&[], 50.0).is_nan());
    }
}
