//! Property-based tests for the linear-algebra substrate.

use proptest::prelude::*;
use spotweb_linalg::{lstsq, Cholesky, Matrix, Qr};

/// Strategy: a random matrix with entries in [-5, 5].
fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-5.0f64..5.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).unwrap())
}

/// Strategy: a random SPD matrix built as B Bᵀ + εI.
fn spd_strategy(n: usize) -> impl Strategy<Value = Matrix> {
    matrix_strategy(n, n).prop_map(move |b| {
        let mut m = b.matmul(&b.transpose()).unwrap();
        m.add_diag_mut(0.5);
        m
    })
}

proptest! {
    #[test]
    fn cholesky_reconstructs(a in spd_strategy(5)) {
        let ch = Cholesky::factor(&a).unwrap();
        let rec = ch.l().matmul(&ch.l().transpose()).unwrap();
        let err = rec.sub(&a).unwrap().max_abs();
        prop_assert!(err < 1e-8 * (1.0 + a.max_abs()));
    }

    #[test]
    fn cholesky_solve_residual(a in spd_strategy(6), x in prop::collection::vec(-3.0f64..3.0, 6)) {
        let b = a.matvec(&x).unwrap();
        let got = Cholesky::factor(&a).unwrap().solve(&b).unwrap();
        let r = a.matvec(&got).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            prop_assert!((ri - bi).abs() < 1e-6 * (1.0 + bi.abs()));
        }
    }

    #[test]
    fn qr_least_squares_satisfies_normal_equations(
        a in matrix_strategy(8, 3),
        b in prop::collection::vec(-3.0f64..3.0, 8),
    ) {
        // Skip (rare) nearly rank-deficient draws.
        let g = a.gram();
        if Cholesky::factor(&g).is_err() {
            return Ok(());
        }
        let x = match Qr::factor(&a).and_then(|f| f.solve_lstsq(&b)) {
            Ok(x) => x,
            Err(_) => return Ok(()),
        };
        let ax = a.matvec(&x).unwrap();
        let r: Vec<f64> = ax.iter().zip(&b).map(|(p, q)| p - q).collect();
        let grad = a.matvec_transpose(&r).unwrap();
        let scale = 1.0 + a.max_abs() * a.max_abs();
        for v in grad {
            prop_assert!(v.abs() < 1e-6 * scale, "normal-equation residual {v}");
        }
    }

    #[test]
    fn lstsq_square_equals_direct_solve(a in spd_strategy(4), x in prop::collection::vec(-2.0f64..2.0, 4)) {
        let b = a.matvec(&x).unwrap();
        let got = lstsq(&a, &b).unwrap();
        for (u, v) in got.iter().zip(&x) {
            prop_assert!((u - v).abs() < 1e-5 * (1.0 + v.abs()));
        }
    }

    #[test]
    fn transpose_involution(a in matrix_strategy(4, 7)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_associativity(
        a in matrix_strategy(3, 4),
        b in matrix_strategy(4, 2),
        c in matrix_strategy(2, 3),
    ) {
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        let err = left.sub(&right).unwrap().max_abs();
        prop_assert!(err < 1e-9 * (1.0 + left.max_abs()));
    }
}
