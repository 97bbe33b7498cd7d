//! Portfolio diversification diagnostic.

/// Herfindahl–Hirschman index of an allocation: 1.0 = everything in one
/// market, `1/N` = perfectly spread. The diversification metric of the
/// `figures ablations` table.
pub fn herfindahl(allocation: &[f64]) -> f64 {
    let total: f64 = allocation.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    allocation
        .iter()
        .map(|a| {
            let s = a / total;
            s * s
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hhi_extremes() {
        assert_eq!(herfindahl(&[1.0, 0.0, 0.0]), 1.0);
        assert!((herfindahl(&[0.25; 4]) - 0.25).abs() < 1e-12);
        assert_eq!(herfindahl(&[0.0; 3]), 0.0);
    }
}
