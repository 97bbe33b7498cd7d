//! Criterion bench for the ADMM QP solver on random portfolio-shaped
//! instances (box + budget constraints, PSD quadratic cost).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spotweb_linalg::Matrix;
use spotweb_solver::{AdmmSolver, QpProblem, Settings, SolverError, SparseQp};

/// A portfolio-shaped QP: n variables in [0,1], unit budget row,
/// random PSD quadratic and random linear cost.
fn portfolio_qp(n: usize, seed: u64) -> QpProblem {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let b = Matrix::from_vec(n, n, (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect()).unwrap();
    let mut p = b.matmul(&b.transpose()).unwrap();
    p.scale_mut(0.1 / n as f64);
    p.add_diag_mut(0.01);
    let q: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..2.0)).collect();

    let mut a = Matrix::zeros(n + 1, n);
    for i in 0..n {
        a[(i, i)] = 1.0;
    }
    for j in 0..n {
        a[(n, j)] = 1.0;
    }
    let mut l = vec![0.0; n + 1];
    let mut u = vec![1.0; n + 1];
    l[n] = 1.0;
    u[n] = 1.6;
    QpProblem::new(p, q, a, l, u).unwrap()
}

fn bench_admm(c: &mut Criterion) {
    let mut group = c.benchmark_group("admm_solve");
    group.sample_size(20);
    for &n in &[16usize, 64, 256] {
        let problem = portfolio_qp(n, 7);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut solver =
                    AdmmSolver::new(problem.clone(), Settings::default()).expect("setup");
                std::hint::black_box(solver.solve().objective)
            });
        });
    }
    group.finish();
}

fn bench_warm_start(c: &mut Criterion) {
    let mut group = c.benchmark_group("admm_warm_start");
    group.sample_size(20);
    let n = 128;
    let problem = portfolio_qp(n, 9);
    let mut cold = AdmmSolver::new(problem.clone(), Settings::default()).expect("setup");
    let sol = cold.solve();
    group.bench_function("warm_128", |b| {
        b.iter(|| {
            let mut solver = AdmmSolver::new(problem.clone(), Settings::default()).expect("setup");
            std::hint::black_box(solver.solve_from(&sol.x, &sol.y).iterations)
        });
    });
    group.finish();
}

fn bench_factor_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("admm_factor_reuse");
    group.sample_size(20);
    let n = 128;
    let problem = portfolio_qp(n, 11);
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let q2: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..2.0)).collect();
    group.bench_function("rebuild_128", |b| {
        b.iter(|| {
            let mut fresh = problem.clone();
            fresh.q.copy_from_slice(&q2);
            let mut solver = AdmmSolver::new(fresh, Settings::default()).expect("setup");
            std::hint::black_box(solver.solve().iterations)
        });
    });
    group.bench_function("reuse_128", |b| {
        let mut solver = AdmmSolver::new(problem.clone(), Settings::default()).expect("setup");
        let warm = solver.solve();
        b.iter(|| {
            solver.update_linear_cost(&q2).expect("dims");
            std::hint::black_box(solver.solve_from(&warm.x, &warm.y).iterations)
        });
    });
    group.finish();
}

/// A multi-period portfolio QP with churn coupling, for the dense vs
/// block-structured factorization comparison (EXPERIMENTS.md Fig. 7(b)).
fn multi_period_qp(markets: usize, horizon: usize) -> QpProblem {
    let n = markets * horizon;
    let gamma = 0.05;
    let mut p = Matrix::zeros(n, n);
    for t in 0..horizon {
        for i in 0..markets {
            let d = t * markets + i;
            p[(d, d)] += 0.2 + 2.0 * gamma;
            if t + 1 < horizon {
                p[(d, d)] += 2.0 * gamma;
                let e = (t + 1) * markets + i;
                p[(d, e)] -= 2.0 * gamma;
                p[(e, d)] -= 2.0 * gamma;
            }
        }
    }
    let q: Vec<f64> = (0..n).map(|i| 0.5 + 0.01 * (i % markets) as f64).collect();
    let m = (markets + 1) * horizon;
    let mut a = Matrix::zeros(m, n);
    let mut l = vec![0.0; m];
    let mut u = vec![1.0; m];
    for t in 0..horizon {
        for i in 0..markets {
            a[(t * (markets + 1) + i, t * markets + i)] = 1.0;
        }
        let budget = t * (markets + 1) + markets;
        for i in 0..markets {
            a[(budget, t * markets + i)] = 1.0;
        }
        l[budget] = 1.0;
        u[budget] = 1.6;
    }
    QpProblem::new(p, q, a, l, u).unwrap()
}

fn bench_block_structure(c: &mut Criterion) {
    let mut group = c.benchmark_group("admm_dense_vs_block");
    group.sample_size(10);
    for &(markets, horizon) in &[(36usize, 10usize), (72, 10)] {
        let qp = multi_period_qp(markets, horizon);
        group.bench_with_input(
            BenchmarkId::new("dense", format!("{markets}x{horizon}")),
            &qp,
            |b, qp| {
                b.iter(|| {
                    let mut s = AdmmSolver::new(qp.clone(), Settings::default()).unwrap();
                    std::hint::black_box(s.solve().iterations)
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("block", format!("{markets}x{horizon}")),
            &qp,
            |b, qp| {
                b.iter(|| {
                    let mut s =
                        AdmmSolver::with_block_structure(qp.clone(), Settings::default(), markets)
                            .unwrap();
                    std::hint::black_box(s.solve().iterations)
                });
            },
        );
    }
    group.finish();
}

fn set_up<Q>(qp: &Q, markets: usize) -> f64
where
    Q: Clone + TryInto<SparseQp>,
    SolverError: From<Q::Error>,
{
    AdmmSolver::with_block_structure(qp.clone(), Settings::default(), markets)
        .expect("setup")
        .rho()
}

/// Set-up alone — equilibration, structure check, KKT accumulation
/// and block factorization — from the dense input adapter (which pays
/// one `n²` scan to drop the zeros) and from CSR input, at the
/// smallest and largest Fig. 7(b) cells.
fn bench_setup(c: &mut Criterion) {
    let mut group = c.benchmark_group("admm_setup");
    group.sample_size(10);
    for &(markets, horizon) in &[(36usize, 4usize), (144, 10)] {
        let dense = multi_period_qp(markets, horizon);
        let sparse = SparseQp::try_from(dense.clone()).expect("valid problem");
        let cell = format!("{markets}x{horizon}");
        group.bench_with_input(BenchmarkId::new("dense_adapter", &cell), &dense, |b, qp| {
            b.iter(|| set_up(qp, markets));
        });
        group.bench_with_input(BenchmarkId::new("csr", &cell), &sparse, |b, qp| {
            b.iter(|| set_up(qp, markets));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_admm,
    bench_warm_start,
    bench_factor_reuse,
    bench_block_structure,
    bench_setup
);
criterion_main!(benches);
