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

/// Infinity (max-abs) norm; NaN if any entry is.
#[inline]
pub fn norm_inf(a: &[f64]) -> f64 {
    a.iter().fold(0.0_f64, |m, v| max_nan(m, v.abs()))
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
