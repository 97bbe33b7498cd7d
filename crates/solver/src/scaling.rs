//! Ruiz equilibration.
//!
//! Portfolio QPs are badly scaled out of the box: per-request costs are
//! ~1e-5 while allocation fractions are ~1 and penalty terms can be
//! ~1e2. Ruiz equilibration iteratively normalizes the rows/columns of
//! the stacked KKT data so the ADMM residuals are commensurate, which
//! dramatically reduces iteration counts.
//!
//! We scale the problem
//! `min ½xᵀPx + qᵀx, l ≤ Ax ≤ u` to
//! `min ½x̄ᵀ(cDPD)x̄ + (cDq)ᵀx̄, El ≤ (EAD)x̄ ≤ Eu` with diagonal `D`,
//! `E` and cost scalar `c`, solving in the scaled space and unscaling
//! `x = Dx̄`, `y = cE ȳ`.

use crate::qp::SparseQp;

/// Diagonal scalings produced by [`ruiz_equilibrate`].
#[derive(Debug, Clone)]
pub struct Scaling {
    /// Variable scaling (length n): `x = d ⊙ x̄`.
    pub d: Vec<f64>,
    /// Constraint scaling (length m): scaled rows are `e[i] · a_i`.
    pub e: Vec<f64>,
    /// Cost scalar `c`.
    pub c: f64,
}

impl Scaling {
    /// The identity scaling (used when scaling is disabled).
    pub fn identity(n: usize, m: usize) -> Self {
        Scaling {
            d: vec![1.0; n],
            e: vec![1.0; m],
            c: 1.0,
        }
    }

    /// Map a scaled primal iterate back to the original space.
    pub fn unscale_x(&self, x_bar: &[f64]) -> Vec<f64> {
        x_bar.iter().zip(&self.d).map(|(v, d)| v * d).collect()
    }

    /// Map a scaled dual iterate back to the original space.
    pub fn unscale_y(&self, y_bar: &[f64]) -> Vec<f64> {
        y_bar
            .iter()
            .zip(&self.e)
            .map(|(v, e)| v * e / self.c)
            .collect()
    }
}

fn safe_inv_sqrt(v: f64) -> f64 {
    if v < 1e-10 {
        1.0
    } else {
        1.0 / v.sqrt()
    }
}

/// ∞-norm of a row's stored values. A max of magnitudes does not
/// depend on the order they are taken in, so four lanes share it.
fn abs_max(vals: &[f64]) -> f64 {
    let mut lanes = [0.0_f64; 4];
    let mut quads = vals.chunks_exact(4);
    for quad in quads.by_ref() {
        for (lane, v) in lanes.iter_mut().zip(quad) {
            *lane = lane.max(v.abs());
        }
    }
    let head = lanes[0].max(lanes[1]).max(lanes[2].max(lanes[3]));
    quads.remainder().iter().fold(head, |m, v| m.max(v.abs()))
}

/// Scale a stored row by `row_scale · col_scale[j]`, entry by entry,
/// and return its new ∞-norm. Four factors are gathered before any
/// product is stored: nothing tells the compiler that a store to
/// `vals` leaves `col_scale` alone, so entry by entry every load
/// would wait for the store before it.
fn scale_row(cols: &[usize], vals: &mut [f64], row_scale: f64, col_scale: &[f64]) -> f64 {
    let mut quads = vals.chunks_exact_mut(4);
    let mut quad_cols = cols.chunks_exact(4);
    for (v, c) in quads.by_ref().zip(quad_cols.by_ref()) {
        let f = [
            col_scale[c[0]],
            col_scale[c[1]],
            col_scale[c[2]],
            col_scale[c[3]],
        ];
        for (v, f) in v.iter_mut().zip(f) {
            *v *= row_scale * f;
        }
    }
    for (v, &j) in quads.into_remainder().iter_mut().zip(quad_cols.remainder()) {
        *v *= row_scale * col_scale[j];
    }
    abs_max(vals)
}

/// Equilibrate the problem in place, returning the applied [`Scaling`].
///
/// `iters` rounds of the modified Ruiz iteration (as in OSQP §5.1),
/// followed by a cost normalization that picks `c` so the scaled
/// objective gradient has unit-ish magnitude.
///
/// Only stored entries are visited. A norm is a max of absolute
/// values, to which zeros contribute nothing, and every stored entry
/// is multiplied by the same factors a dense sweep would apply to it,
/// so the result is bit for bit that of equilibrating the dense form.
///
/// A round is one sweep over each matrix: a row is scaled and, while
/// it is in cache, gives up the norms the next round (or the cost
/// normalization) starts from. `P` is stored symmetric to the bit and
/// stays so (`d[i]·d[j]` commutes), so its column norms are read off
/// its rows.
pub fn ruiz_equilibrate(problem: &mut SparseQp, iters: usize) -> Scaling {
    let n = problem.num_vars();
    let m = problem.num_constraints();
    let mut scaling = Scaling::identity(n, m);
    let mut p_norms: Vec<f64> = (0..n).map(|i| abs_max(problem.p.row(i).1)).collect();
    let mut a_row_norms: Vec<f64> = (0..m).map(|i| abs_max(problem.a.row(i).1)).collect();
    let mut a_col_norms = vec![0.0_f64; n];
    for i in 0..m {
        let (cols, vals) = problem.a.row(i);
        for (&j, v) in cols.iter().zip(vals) {
            a_col_norms[j] = a_col_norms[j].max(v.abs());
        }
    }
    let mut delta_d = vec![0.0; n];
    let mut delta_e = vec![0.0; m];

    for _ in 0..iters {
        // Column scalings from max |entry| per variable across P and A,
        // row scalings for A.
        for ((d, &p), &a) in delta_d.iter_mut().zip(&p_norms).zip(&a_col_norms) {
            *d = safe_inv_sqrt(p.max(a));
        }
        for (e, &a) in delta_e.iter_mut().zip(&a_row_norms) {
            *e = safe_inv_sqrt(a);
        }

        // P ← D P D, q ← D q, A ← E A D, bounds ← E ⊙ bounds.
        for (i, norm) in p_norms.iter_mut().enumerate() {
            let (cols, vals) = problem.p.row_mut(i);
            *norm = scale_row(cols, vals, delta_d[i], &delta_d);
        }
        a_col_norms.fill(0.0);
        for (i, norm) in a_row_norms.iter_mut().enumerate() {
            let (cols, vals) = problem.a.row_mut(i);
            *norm = scale_row(cols, vals, delta_e[i], &delta_d);
            for (&j, v) in cols.iter().zip(vals) {
                a_col_norms[j] = a_col_norms[j].max(v.abs());
            }
        }
        for ((q, d), &delta) in problem.q.iter_mut().zip(&mut scaling.d).zip(&delta_d) {
            *q *= delta;
            *d *= delta;
        }
        for (((l, u), e), &delta) in problem
            .l
            .iter_mut()
            .zip(&mut problem.u)
            .zip(&mut scaling.e)
            .zip(&delta_e)
        {
            *l *= delta;
            *u *= delta;
            *e *= delta;
        }
    }

    // Cost normalization: c = 1 / max(mean column norm of P, ‖q‖∞).
    let mean_p_col: f64 = if n == 0 {
        0.0
    } else {
        p_norms.iter().sum::<f64>() / n as f64
    };
    let q_norm = spotweb_linalg::vector::norm_inf(&problem.q);
    let denom = mean_p_col.max(q_norm);
    let c = if denom < 1e-10 { 1.0 } else { 1.0 / denom };
    problem.p.scale_mut(c);
    for v in &mut problem.q {
        *v *= c;
    }
    scaling.c = c;
    scaling
}

// Crate-visible: the KKT-assembly proptest in `admm` equilibrates with
// the same dense oracle before comparing.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::qp::QpProblem;
    use proptest::prelude::*;
    use spotweb_linalg::{CsrMatrix, Matrix};

    /// The dense sweep the sparse equilibration replaced, kept as its
    /// oracle: every entry of `P` and `A` visited, zeros included.
    pub(crate) fn ruiz_equilibrate_dense(problem: &mut QpProblem, iters: usize) -> Scaling {
        let n = problem.num_vars();
        let m = problem.num_constraints();
        let mut scaling = Scaling::identity(n, m);
        let col_norm = |p: &Matrix, a: &Matrix, j: usize| {
            let mut nrm: f64 = 0.0;
            for i in 0..p.rows() {
                nrm = nrm.max(p[(i, j)].abs());
            }
            for i in 0..a.rows() {
                nrm = nrm.max(a[(i, j)].abs());
            }
            nrm
        };
        for _ in 0..iters {
            let delta_d: Vec<f64> = (0..n)
                .map(|j| safe_inv_sqrt(col_norm(&problem.p, &problem.a, j)))
                .collect();
            let delta_e: Vec<f64> = (0..m)
                .map(|i| {
                    let row = problem.a.row(i);
                    safe_inv_sqrt(row.iter().fold(0.0_f64, |m, v| m.max(v.abs())))
                })
                .collect();
            for i in 0..n {
                for j in 0..n {
                    problem.p[(i, j)] *= delta_d[i] * delta_d[j];
                }
            }
            for j in 0..n {
                problem.q[j] *= delta_d[j];
            }
            for i in 0..m {
                for j in 0..n {
                    problem.a[(i, j)] *= delta_e[i] * delta_d[j];
                }
            }
            for i in 0..m {
                problem.l[i] *= delta_e[i];
                problem.u[i] *= delta_e[i];
            }
            for j in 0..n {
                scaling.d[j] *= delta_d[j];
            }
            for i in 0..m {
                scaling.e[i] *= delta_e[i];
            }
        }
        let mean_p_col: f64 = if n == 0 {
            0.0
        } else {
            (0..n)
                .map(|j| {
                    (0..n)
                        .map(|i| problem.p[(i, j)].abs())
                        .fold(0.0_f64, f64::max)
                })
                .sum::<f64>()
                / n as f64
        };
        let q_norm = spotweb_linalg::vector::norm_inf(&problem.q);
        let denom = mean_p_col.max(q_norm);
        let c = if denom < 1e-10 { 1.0 } else { 1.0 / denom };
        problem.p.scale_mut(c);
        for v in &mut problem.q {
            *v *= c;
        }
        scaling.c = c;
        scaling
    }

    /// The two passes a round used to be, kept as the fused sweep's
    /// oracle on sparse input: column norms scattered entry by entry
    /// down one max chain, row norms folded, then a scaling pass.
    fn ruiz_equilibrate_two_pass(problem: &mut SparseQp, iters: usize) -> Scaling {
        let n = problem.num_vars();
        let m = problem.num_constraints();
        let mut scaling = Scaling::identity(n, m);
        fn col_abs_max_into(a: &CsrMatrix, out: &mut [f64]) {
            for r in 0..a.rows() {
                let (cols, vals) = a.row(r);
                for (&c, v) in cols.iter().zip(vals) {
                    out[c] = out[c].max(v.abs());
                }
            }
        }
        fn scale_rows_cols(a: &mut CsrMatrix, row_scale: &[f64], col_scale: &[f64]) {
            for r in 0..a.rows() {
                let (cols, vals) = a.row_mut(r);
                for (&c, v) in cols.iter().zip(vals) {
                    *v *= row_scale[r] * col_scale[c];
                }
            }
        }
        let mut col_norms = vec![0.0; n];
        for _ in 0..iters {
            col_norms.fill(0.0);
            col_abs_max_into(&problem.p, &mut col_norms);
            col_abs_max_into(&problem.a, &mut col_norms);
            let delta_d: Vec<f64> = col_norms.iter().map(|&v| safe_inv_sqrt(v)).collect();
            let delta_e: Vec<f64> = (0..m)
                .map(|i| {
                    let row = problem.a.row(i).1;
                    safe_inv_sqrt(row.iter().fold(0.0_f64, |m, v| m.max(v.abs())))
                })
                .collect();
            scale_rows_cols(&mut problem.p, &delta_d, &delta_d);
            scale_rows_cols(&mut problem.a, &delta_e, &delta_d);
            for j in 0..n {
                problem.q[j] *= delta_d[j];
                scaling.d[j] *= delta_d[j];
            }
            for i in 0..m {
                problem.l[i] *= delta_e[i];
                problem.u[i] *= delta_e[i];
                scaling.e[i] *= delta_e[i];
            }
        }
        let mean_p_col: f64 = if n == 0 {
            0.0
        } else {
            col_norms.fill(0.0);
            col_abs_max_into(&problem.p, &mut col_norms);
            col_norms.iter().sum::<f64>() / n as f64
        };
        let q_norm = spotweb_linalg::vector::norm_inf(&problem.q);
        let denom = mean_p_col.max(q_norm);
        let c = if denom < 1e-10 { 1.0 } else { 1.0 / denom };
        problem.p.scale_mut(c);
        for v in &mut problem.q {
            *v *= c;
        }
        scaling.c = c;
        scaling
    }

    /// An `n`-variable problem with `P` symmetric — a band `band` wide
    /// when `band > 0` (SpotWeb's block-tridiagonal shape), otherwise a
    /// pseudo-random pattern — and `A` boxes over budget rows. Variable
    /// 1 appears nowhere (an empty row and a zero column in both), row
    /// 2 of `P` and a budget row sit under the `1e-10` norm floor, and
    /// the rest spreads over twelve decades.
    fn structured_problem(n: usize, band: usize) -> SparseQp {
        let mut p = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let keep = if band > 0 {
                    j - i <= band
                } else {
                    (i * 7 + j * 3) % 5 < 2
                };
                if keep && i != 1 && j != 1 {
                    let tiny = if i == 2 || j == 2 { 1e-14 } else { 1.0 };
                    let decade = 10f64.powi(((i + 2 * j) % 13) as i32 - 6);
                    p[(i, j)] = tiny * decade * ((i * n + j) as f64 + 0.37).sin();
                    p[(j, i)] = p[(i, j)];
                }
            }
        }
        let budgets = n.div_ceil(4);
        let mut a = Matrix::zeros(n + budgets, n);
        for j in (0..n).filter(|&j| j != 1) {
            a[(j, j)] = 1.0 + j as f64;
            a[(n + j / 4, j)] = if j / 4 == 0 {
                3e-12
            } else {
                0.5 * (j as f64).cos()
            };
        }
        let q = (0..n).map(|j| (j as f64 - 2.5) * 1e-3).collect();
        let m = n + budgets;
        SparseQp::new(
            CsrMatrix::from_dense(&p, 0.0),
            q,
            CsrMatrix::from_dense(&a, 0.0),
            vec![-1.0; m],
            vec![2.0; m],
        )
        .unwrap()
    }

    #[test]
    fn fused_ruiz_is_bitwise_the_two_pass_rounds() {
        let sizes: &[usize] = if cfg!(miri) {
            &[0, 6]
        } else {
            &[0, 1, 6, 13, 40]
        };
        for &n in sizes {
            for band in [0, 2, 5] {
                for iters in [0, 1, 10] {
                    let case = format!("n = {n}, band = {band}, iters = {iters}");
                    let (mut fused, mut two_pass) =
                        (structured_problem(n, band), structured_problem(n, band));
                    let got = ruiz_equilibrate(&mut fused, iters);
                    let want = ruiz_equilibrate_two_pass(&mut two_pass, iters);
                    assert_eq!(bits(&got.d), bits(&want.d), "d, {case}");
                    assert_eq!(bits(&got.e), bits(&want.e), "e, {case}");
                    assert_eq!(got.c.to_bits(), want.c.to_bits(), "c, {case}");
                    assert_eq!(
                        bits(fused.p.values()),
                        bits(two_pass.p.values()),
                        "P, {case}"
                    );
                    assert_eq!(
                        bits(fused.a.values()),
                        bits(two_pass.a.values()),
                        "A, {case}"
                    );
                    assert_eq!(bits(&fused.q), bits(&two_pass.q), "q, {case}");
                    assert_eq!(bits(&fused.l), bits(&two_pass.l), "l, {case}");
                    assert_eq!(bits(&fused.u), bits(&two_pass.u), "u, {case}");
                }
            }
        }
    }

    pub(crate) fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A random `n`-variable, `m`-row problem whose `P` and `A` are
    /// about half exact zeros, magnitudes spread over six decades.
    pub(crate) fn sparse_problem(n: usize, m: usize) -> impl Strategy<Value = QpProblem> {
        let entry = || (0.0f64..1.0, -3.0f64..3.0, -1.0f64..1.0);
        (
            prop::collection::vec(entry(), n * n),
            prop::collection::vec(entry(), m * n),
            prop::collection::vec(-2.0f64..2.0, n),
        )
            .prop_map(move |(p, a, q)| {
                let cell = |(keep, exp, v): (f64, f64, f64)| {
                    if keep < 0.5 {
                        0.0
                    } else {
                        v * 10f64.powf(exp)
                    }
                };
                let p = Matrix::from_vec(n, n, p.into_iter().map(cell).collect()).unwrap();
                let a = Matrix::from_vec(m, n, a.into_iter().map(cell).collect()).unwrap();
                QpProblem::new(p, q, a, vec![-1.0; m], vec![1.0; m]).unwrap()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Sparse equilibration ≡ the dense sweep, bit for bit: the
        /// scaling vectors, the cost scalar and all scaled data.
        #[test]
        #[cfg_attr(miri, ignore)]
        fn sparse_ruiz_is_bitwise_the_dense_sweep(dense in sparse_problem(7, 5), iters in 0usize..12) {
            let mut sparse = SparseQp::try_from(dense.clone()).unwrap();
            let mut dense = dense;
            let want = ruiz_equilibrate_dense(&mut dense, iters);
            let got = ruiz_equilibrate(&mut sparse, iters);
            prop_assert_eq!(bits(&got.d), bits(&want.d));
            prop_assert_eq!(bits(&got.e), bits(&want.e));
            prop_assert_eq!(got.c.to_bits(), want.c.to_bits());
            let scaled = sparse.to_dense();
            prop_assert_eq!(bits(scaled.p.as_slice()), bits(dense.p.as_slice()));
            prop_assert_eq!(bits(scaled.a.as_slice()), bits(dense.a.as_slice()));
            prop_assert_eq!(bits(&scaled.q), bits(&dense.q));
            prop_assert_eq!(bits(&scaled.l), bits(&dense.l));
            prop_assert_eq!(bits(&scaled.u), bits(&dense.u));
        }
    }

    fn badly_scaled() -> SparseQp {
        QpProblem::new(
            Matrix::from_diag(&[1e6, 1e-4]),
            vec![1e5, 1e-3],
            Matrix::from_rows(&[&[1e3, 0.0], &[0.0, 1e-2]]),
            vec![0.0, 0.0],
            vec![1e3, 1e-2],
        )
        .unwrap()
        .try_into()
        .unwrap()
    }

    #[test]
    fn equilibration_flattens_norms() {
        let mut p = badly_scaled();
        ruiz_equilibrate(&mut p, 10);
        // After equilibration all row norms of A should be near 1.
        for i in 0..p.a.rows() {
            let rn = abs_max(p.a.row(i).1);
            assert!((rn - 1.0).abs() < 0.2, "row {i} norm {rn}");
        }
    }

    #[test]
    fn unscaling_round_trips_solution() {
        let mut p = badly_scaled();
        // x̄ feasible in scaled space maps to x feasible in the original.
        let orig = badly_scaled().to_dense();
        let s = ruiz_equilibrate(&mut p, 10);
        let x_bar = vec![0.5 / s.d[0].max(1e-30) * s.d[0], 0.0]; // arbitrary
        let x = s.unscale_x(&x_bar);
        assert_eq!(x.len(), 2);
        // The scaled constraint l̄ ≤ Āx̄ ≤ ū iff original l ≤ Ax ≤ u.
        let scaled_violation = p.to_dense().max_violation(&x_bar);
        let orig_violation = orig.max_violation(&x);
        assert!((scaled_violation <= 1e-9) == (orig_violation <= 1e-6));
    }

    #[test]
    fn identity_scaling_is_noop() {
        let s = Scaling::identity(3, 2);
        assert_eq!(s.unscale_x(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
        assert_eq!(s.unscale_y(&[1.0, 2.0]), vec![1.0, 2.0]);
    }

    #[test]
    fn zero_matrix_does_not_explode() {
        let mut p: SparseQp = QpProblem::new(
            Matrix::zeros(2, 2),
            vec![0.0; 2],
            Matrix::zeros(1, 2),
            vec![0.0],
            vec![1.0],
        )
        .unwrap()
        .try_into()
        .unwrap();
        let s = ruiz_equilibrate(&mut p, 5);
        assert!(s.d.iter().all(|v| v.is_finite() && *v > 0.0));
        assert!(s.c.is_finite() && s.c > 0.0);
    }
}
