//! Projected gradient over a box plus one budget row — the per-market
//! boxes and the `A_min ≤ Σa ≤ A_max` budget of a single-period
//! portfolio. The policy zoo's ExoSphere runs it; the ADMM proptests
//! and the `H = 1` `MpoOptimizer` check use it as an oracle that shares
//! no code with ADMM.

use crate::{Result, SolverError};

/// The set `{x : lo ≤ x ≤ hi, s_lo ≤ Σx ≤ s_hi}`, validated non-empty.
#[derive(Debug, Clone)]
pub struct BoxBudget {
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// `(s_lo, s_hi)`.
    budget: (f64, f64),
}

impl BoxBudget {
    /// Build the set. Box bounds must be finite; a budget bound may be
    /// infinite (a one-sided or absent budget row), never NaN.
    ///
    /// # Errors
    /// `Dimension` for ragged bounds, `NonFinite` for a NaN or an
    /// infinite box bound, `InfeasibleBounds` for `lo[i] > hi[i]`
    /// (`row = i`) or `s_lo > s_hi` (`row = lo.len()`), and
    /// `UnreachableBudget` when no point of the box meets the budget.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>, sum_lo: f64, sum_hi: f64) -> Result<BoxBudget> {
        if lo.len() != hi.len() {
            return Err(SolverError::Dimension("lo and hi must have equal length"));
        }
        if lo.iter().chain(&hi).any(|b| !b.is_finite()) || sum_lo.is_nan() || sum_hi.is_nan() {
            return Err(SolverError::NonFinite { what: "bounds" });
        }
        if let Some(row) = (0..lo.len()).find(|&i| lo[i] > hi[i]) {
            return Err(SolverError::InfeasibleBounds { row });
        }
        if sum_lo > sum_hi {
            return Err(SolverError::InfeasibleBounds { row: lo.len() });
        }
        if sum_lo > hi.iter().sum::<f64>() || sum_hi < lo.iter().sum::<f64>() {
            return Err(SolverError::UnreachableBudget);
        }
        let budget = (sum_lo, sum_hi);
        Ok(BoxBudget { lo, hi, budget })
    }

    /// Euclidean projection of `v`: `xᵢ = clamp(vᵢ − t, loᵢ, hiᵢ)`, with
    /// `t = 0` when that sum already lies in `[s_lo, s_hi]`, else `t`
    /// bisected (the sum falls monotonically in `t`) onto the violated end.
    ///
    /// # Errors
    /// `Dimension` on a length mismatch, `NonFinite` (`"point"`) on NaN/±∞.
    pub fn project(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.lo.len() {
            return Err(SolverError::Dimension("point length must match bounds"));
        }
        if v.iter().any(|x| !x.is_finite()) {
            return Err(SolverError::NonFinite { what: "point" });
        }
        let clamped = |t: f64| {
            let bounds = self.lo.iter().zip(&self.hi);
            v.iter()
                .zip(bounds)
                .map(move |(&x, (&l, &h))| (x - t).clamp(l, h))
        };
        let sum_at = |t: f64| -> f64 { clamped(t).sum() };
        let (free_sum, (sum_lo, sum_hi)) = (sum_at(0.0), self.budget);
        let target = if free_sum < sum_lo {
            sum_lo
        } else if free_sum > sum_hi {
            sum_hi
        } else {
            return Ok(clamped(0.0).collect());
        };
        // At `lo_t` every coordinate sits at its upper bound, at `hi_t`
        // at its lower one; 64 halvings reach f64 resolution.
        let below = v.iter().zip(&self.hi).map(|(x, h)| x - h);
        let above = v.iter().zip(&self.lo).map(|(x, l)| x - l);
        let mut lo_t = below.fold(f64::INFINITY, f64::min) - 1.0;
        let mut hi_t = above.fold(f64::NEG_INFINITY, f64::max) + 1.0;
        for _ in 0..64 {
            let mid = 0.5 * (lo_t + hi_t);
            if sum_at(mid) > target {
                lo_t = mid;
            } else {
                hi_t = mid;
            }
        }
        Ok(clamped(0.5 * (lo_t + hi_t)).collect())
    }

    /// Fixed-step projected gradient: from `x` (used as given, feasible
    /// or not), `steps` times set `g = ∇f(x)` through `grad(x, g)` and
    /// move to `project(x − step·g)`. `grad` must depend on `x` alone, so
    /// the only early exit, at an exact fixed point, changes no bit.
    ///
    /// # Errors
    /// `InvalidSetting` unless the step is finite and positive; else
    /// those of [`BoxBudget::project`] (a NaN gradient is a NaN point).
    pub fn descend(
        &self,
        mut x: Vec<f64>,
        step: f64,
        steps: usize,
        grad: impl Fn(&[f64], &mut [f64]),
    ) -> Result<Vec<f64>> {
        if !(step.is_finite() && step > 0.0) {
            return Err(SolverError::InvalidSetting {
                field: "step",
                must_be: "finite and positive",
            });
        }
        let mut g = vec![0.0; x.len()];
        for _ in 0..steps {
            grad(&x, &mut g);
            let moved: Vec<f64> = x.iter().zip(&g).map(|(&xi, &gi)| xi - step * gi).collect();
            let next = self.project(&moved)?;
            if next == x {
                break;
            }
            x = next;
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(lo: &[f64], hi: &[f64], sum_lo: f64, sum_hi: f64) -> BoxBudget {
        BoxBudget::new(lo.to_vec(), hi.to_vec(), sum_lo, sum_hi).expect("valid set")
    }

    #[test]
    fn projection_lands_on_the_capped_simplex() {
        let a = set(&[0.0; 4], &[0.6; 4], 1.0, 1.0)
            .project(&[5.0, -3.0, 0.2, 0.2])
            .unwrap();
        assert!((a.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(a.iter().all(|&x| (0.0..=0.6 + 1e-12).contains(&x)));
        assert!(a[0] > a[1], "larger input keeps the larger share");
    }

    #[test]
    fn inside_the_budget_the_projection_is_the_box_clamp() {
        let s = set(&[0.0, 0.0, 0.0], &[1.0, 1.0, 1.0], 0.5, 2.0);
        assert_eq!(s.project(&[1.5, -0.2, 0.3]).unwrap(), [1.0, 0.0, 0.3]);
    }

    #[test]
    fn a_violated_budget_end_is_met_from_either_side() {
        let s = set(&[0.0, 0.0], &[1.0, 1.0], 0.5, 1.2);
        // Below: both shift up by 0.2. Above: both shift down by 0.4.
        let up = s.project(&[0.1, 0.0]).unwrap();
        assert!(
            (up[0] - 0.3).abs() < 1e-12 && (up[1] - 0.2).abs() < 1e-12,
            "{up:?}"
        );
        let down = s.project(&[0.9, 0.7]).unwrap();
        assert!(
            (down[0] - 0.7).abs() < 1e-12 && (down[1] - 0.5).abs() < 1e-12,
            "{down:?}"
        );
    }

    /// `min ½xᵀPx + qᵀx` for a diagonal `P` over a box, no budget, at
    /// step `1/max(P)`.
    fn box_qp(p: &[f64], q: &[f64], lo: &[f64], hi: &[f64], steps: usize) -> Vec<f64> {
        let unbudgeted = set(lo, hi, f64::NEG_INFINITY, f64::INFINITY);
        let step = 1.0 / p.iter().cloned().fold(0.0, f64::max);
        let x0 = vec![0.0; q.len()];
        unbudgeted
            .descend(x0, step, steps, |x, g| {
                for i in 0..x.len() {
                    g[i] = p[i] * x[i] + q[i];
                }
            })
            .unwrap()
    }

    #[test]
    fn interior_minimum() {
        // min (x-0.3)² on [0,1].
        let x = box_qp(&[2.0], &[-0.6], &[0.0], &[1.0], 10_000);
        assert!((x[0] - 0.3).abs() < 1e-6);
    }

    #[test]
    fn clipped_minimum() {
        // min (x-5)² on [0,1] → x = 1.
        let x = box_qp(&[2.0], &[-10.0], &[0.0], &[1.0], 10_000);
        assert!((x[0] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn multivariate_matches_closed_form() {
        // min ½xᵀPx − bᵀx with P diag(1, 4), b = (1, 4) → x = (1, 1),
        // box [0, 2]² doesn't bind.
        let x = box_qp(&[1.0, 4.0], &[-1.0, -4.0], &[0.0, 0.0], &[2.0, 2.0], 50_000);
        assert!((x[0] - 1.0).abs() < 1e-5);
        assert!((x[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn degenerate_empty_box() {
        // lo == hi pins the solution.
        let x = box_qp(&[2.0], &[0.0], &[0.7], &[0.7], 100);
        assert_eq!(x[0], 0.7);
    }

    #[test]
    fn bad_input_is_a_typed_error() {
        let nan = f64::NAN;
        let inf = f64::INFINITY;
        let new = |lo: &[f64], hi: &[f64], s_lo: f64, s_hi: f64| {
            BoxBudget::new(lo.to_vec(), hi.to_vec(), s_lo, s_hi).err()
        };
        let unit = set(&[0.0, 0.0], &[1.0, 1.0], 0.5, 1.5);
        let step = |step: f64| {
            unit.descend(vec![0.0; 2], step, 5, |_, g| g.fill(1.0))
                .err()
        };
        let bad_step = SolverError::InvalidSetting {
            field: "step",
            must_be: "finite and positive",
        };
        let cases: [(&str, Option<SolverError>, SolverError); 14] = [
            (
                "ragged bounds",
                new(&[0.0], &[1.0, 1.0], 0.0, 1.0),
                SolverError::Dimension("lo and hi must have equal length"),
            ),
            (
                "NaN box bound",
                new(&[nan, 0.0], &[1.0, 1.0], 0.0, 1.0),
                SolverError::NonFinite { what: "bounds" },
            ),
            (
                "infinite box bound",
                new(&[0.0, 0.0], &[1.0, inf], 0.0, 1.0),
                SolverError::NonFinite { what: "bounds" },
            ),
            (
                "NaN budget bound",
                new(&[0.0, 0.0], &[1.0, 1.0], nan, 1.0),
                SolverError::NonFinite { what: "bounds" },
            ),
            (
                "lo > hi",
                new(&[0.0, 2.0], &[1.0, 1.0], 0.0, 1.0),
                SolverError::InfeasibleBounds { row: 1 },
            ),
            (
                "s_lo > s_hi",
                new(&[0.0, 0.0], &[1.0, 1.0], 1.0, 0.5),
                SolverError::InfeasibleBounds { row: 2 },
            ),
            (
                "budget above the box",
                new(&[0.0, 0.0], &[1.0, 1.0], 2.5, inf),
                SolverError::UnreachableBudget,
            ),
            (
                "budget below the box",
                new(&[0.5, 0.5], &[1.0, 1.0], 0.0, 0.5),
                SolverError::UnreachableBudget,
            ),
            (
                "short point",
                unit.project(&[0.5]).err(),
                SolverError::Dimension("point length must match bounds"),
            ),
            (
                "NaN point",
                unit.project(&[nan, 0.5]).err(),
                SolverError::NonFinite { what: "point" },
            ),
            ("zero step", step(0.0), bad_step.clone()),
            ("NaN step", step(nan), bad_step.clone()),
            ("infinite step", step(inf), bad_step),
            (
                "NaN gradient",
                unit.descend(vec![0.5; 2], 1.0, 5, |_, g| g.fill(nan)).err(),
                SolverError::NonFinite { what: "point" },
            ),
        ];
        for (label, got, want) in cases {
            assert_eq!(got, Some(want), "{label}");
        }
    }
}
