//! The ADMM iteration (OSQP-style operator splitting).

use spotweb_linalg::vector;
use spotweb_linalg::{BlockTridiagCholesky, CsrMatrix, Matrix};

use crate::qp::{Certificate, QpSolution, QpStatus, Settings, SparseQp};
use crate::scaling::{ruiz_equilibrate, Scaling};
use crate::termination::Residuals;
use crate::{Result, SolverError};

/// Multiplier applied to ρ on equality rows (`l == u`), as in OSQP —
/// equality constraints need a much stiffer penalty to converge fast.
const EQ_RHO_BOOST: f64 = 1e3;

/// Bounds for the adaptive penalty.
const RHO_MIN: f64 = 1e-6;
const RHO_MAX: f64 = 1e6;

/// Scratch vectors for one ADMM solve, owned by the solver and reused
/// across [`AdmmSolver::solve_from`] calls so a receding-horizon
/// controller re-solving every interval performs zero per-solve heap
/// allocation in the iteration loop. Every buffer is fully rewritten
/// by `reset` before use, so reuse cannot leak state between solves.
#[derive(Default)]
struct SolveWorkspace {
    /// Primal iterate (scaled coordinates).
    x: Vec<f64>,
    /// Dual iterate (scaled coordinates).
    y: Vec<f64>,
    /// Auxiliary (projected) constraint iterate.
    z: Vec<f64>,
    /// KKT right-hand side / x̃ in place.
    rhs: Vec<f64>,
    /// Aᵀ(ρ⊙z − y) accumulator.
    aty: Vec<f64>,
    /// A·x̃ accumulator.
    ztil: Vec<f64>,
    /// ρ⊙z − y accumulator.
    tmp_m: Vec<f64>,
    /// Residual scratch: A·x.
    ax: Vec<f64>,
    /// Residual scratch: P·x.
    px: Vec<f64>,
    /// Residual scratch: Aᵀy.
    aty_res: Vec<f64>,
    /// One KKT block long: where the factor's backward pass sums
    /// `Bᵀ·x` (see `BlockTridiagCholesky::solve_in_place`).
    kkt_block: Vec<f64>,
}

impl SolveWorkspace {
    /// Size every buffer for an `n`-variable, `m`-constraint problem
    /// whose KKT factor has blocks of `block`, and zero-fill it.
    fn reset(&mut self, n: usize, m: usize, block: usize) {
        for v in [
            &mut self.x,
            &mut self.rhs,
            &mut self.aty,
            &mut self.px,
            &mut self.aty_res,
        ] {
            v.clear();
            v.resize(n, 0.0);
        }
        for v in [
            &mut self.y,
            &mut self.z,
            &mut self.ztil,
            &mut self.tmp_m,
            &mut self.ax,
        ] {
            v.clear();
            v.resize(m, 0.0);
        }
        self.kkt_block.clear();
        self.kkt_block.resize(block, 0.0);
    }
}

/// What [`AdmmSolver::update`] did with the problem it was given.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Update {
    /// `P` was bitwise unchanged: only `q` was replaced, and the KKT
    /// factor (with the ρ it was built for) was kept.
    Kept,
    /// `P`'s values moved: they were scaled under the construction-time
    /// equilibration, ρ was reset to [`Settings::rho`] and the KKT
    /// matrix was factored once.
    Refactored,
    /// `P`'s sparsity pattern, `A`, `l` or `u` differ: the solver is
    /// untouched, and the caller builds a new one.
    Rebuild,
}

/// An ADMM solver instance bound to one problem.
///
/// Construction performs the (optional) Ruiz equilibration and the
/// initial KKT factorization; [`AdmmSolver::solve`] then iterates.
/// The solver supports warm starting via [`AdmmSolver::solve_from`],
/// which SpotWeb's receding-horizon controller uses between periods —
/// consecutive portfolio problems differ only in the forecast data, so
/// the previous solution is an excellent initial iterate — and
/// re-binding to the next period's problem via [`AdmmSolver::update`],
/// which keeps everything but the numeric factor.
///
/// The problem is held in CSR throughout ([`SparseQp`]); the only
/// dense storage is the KKT factor itself, `H` diagonal and `H − 1`
/// coupling blocks of `block_size²` (one block of `n²` for
/// [`AdmmSolver::new`]).
pub struct AdmmSolver {
    /// Scaled problem (identical to the original if scaling is off).
    prob: SparseQp,
    /// Original (unscaled) problem, kept for final reporting.
    orig: SparseQp,
    scaling: Scaling,
    settings: Settings,
    /// Per-row penalty ρᵢ (boosted on equality rows).
    rho_vec: Vec<f64>,
    /// Scalar ρ the vector was derived from.
    rho: f64,
    /// The factored `P + σI + Aᵀdiag(ρ)A`: one block when the problem
    /// is unstructured, `H` when it is multi-period.
    kkt: BlockTridiagCholesky,
    /// Reusable per-solve scratch (see [`SolveWorkspace`]).
    workspace: SolveWorkspace,
}

impl AdmmSolver {
    /// Set up a solver: equilibrate (if enabled) and factor the KKT
    /// matrix as one dense block. Takes a [`SparseQp`], or a dense
    /// [`crate::QpProblem`] which is converted (and re-validated) once.
    pub fn new<Q>(problem: Q, settings: Settings) -> Result<Self>
    where
        Q: TryInto<SparseQp>,
        SolverError: From<Q::Error>,
    {
        Self::build(problem.try_into()?, settings, 1)
    }

    /// Set up a solver that exploits *multi-period structure*: the
    /// variables form `H` consecutive blocks of `block_size`, `P` is
    /// block-tridiagonal with respect to that blocking, and every
    /// constraint row touches variables of a single block. SpotWeb's
    /// portfolio QP has exactly this shape (per-period risk + budget,
    /// adjacent-period churn coupling), and the block factorization
    /// turns the `O((HN)³)` factorization into `O(H·N³)` and the
    /// per-iteration solve from `O((HN)²)` into `O(H·N²)`.
    ///
    /// The structure is checked over the *stored* entries of `P` and
    /// `A`; [`SolverError::Dimension`] when it does not hold.
    pub fn with_block_structure<Q>(
        problem: Q,
        settings: Settings,
        block_size: usize,
    ) -> Result<Self>
    where
        Q: TryInto<SparseQp>,
        SolverError: From<Q::Error>,
    {
        let problem = problem.try_into()?;
        if block_size == 0 || !problem.num_vars().is_multiple_of(block_size) {
            return Err(SolverError::Dimension(
                "block size must divide the variable count",
            ));
        }
        verify_block_structure(&problem, block_size)?;
        let blocks = (problem.num_vars() / block_size).max(1);
        Self::build(problem, settings, blocks)
    }

    fn build(orig: SparseQp, settings: Settings, blocks: usize) -> Result<Self> {
        settings.validate()?;
        let mut prob = orig.clone();
        let scaling = if settings.scaling {
            ruiz_equilibrate(&mut prob, settings.scaling_iters)
        } else {
            Scaling::identity(prob.num_vars(), prob.num_constraints())
        };
        let rho = settings.rho;
        let rho_vec = build_rho_vec(&prob, rho);
        let kkt = factor_kkt(&prob, settings.sigma, &rho_vec, blocks)?;
        Ok(AdmmSolver {
            prob,
            orig,
            scaling,
            settings,
            rho_vec,
            rho,
            kkt,
            workspace: SolveWorkspace::default(),
        })
    }

    /// Solve from a cold start (zero initial iterate).
    pub fn solve(&mut self) -> QpSolution {
        self.iterate(None)
    }

    /// Solve warm-started from `(x0, y0)` **in the original problem's
    /// coordinates** (they are mapped into the scaled space internally).
    ///
    /// SpotWeb's receding-horizon controller calls this with the
    /// previous interval's primal/dual solution: consecutive portfolio
    /// problems differ only in the forecast data, so the previous
    /// optimum is a near-feasible initial iterate and convergence
    /// takes a fraction of the cold-start iterations.
    ///
    /// # Examples
    ///
    /// ```
    /// use spotweb_linalg::Matrix;
    /// use spotweb_solver::{AdmmSolver, QpProblem, Settings};
    ///
    /// // min (x − 0.5)² subject to 0 ≤ x ≤ 1.
    /// let qp = QpProblem::new(
    ///     Matrix::from_diag(&[2.0]),
    ///     vec![-1.0],
    ///     Matrix::identity(1),
    ///     vec![0.0],
    ///     vec![1.0],
    /// )
    /// .unwrap();
    /// let mut solver = AdmmSolver::new(qp.clone(), Settings::default()).unwrap();
    /// let cold = solver.solve();
    /// assert!(cold.is_solved());
    ///
    /// // Warm-start a fresh solver from the previous optimum: it
    /// // converges in no more iterations than the cold start did.
    /// let mut next = AdmmSolver::new(qp, Settings::default()).unwrap();
    /// let warm = next.solve_from(&cold.x, &cold.y);
    /// assert!(warm.is_solved());
    /// assert!(warm.iterations <= cold.iterations);
    /// ```
    pub fn solve_from(&mut self, x0: &[f64], y0: &[f64]) -> QpSolution {
        assert_eq!(x0.len(), self.num_vars(), "warm-start x length");
        assert_eq!(y0.len(), self.num_constraints(), "warm-start y length");
        self.iterate(Some((x0, y0)))
    }

    /// The iteration behind [`AdmmSolver::solve`] (no warm start: the
    /// zeroed workspace *is* the cold iterate) and
    /// [`AdmmSolver::solve_from`].
    fn iterate(&mut self, warm: Option<(&[f64], &[f64])>) -> QpSolution {
        let n = self.num_vars();
        let m = self.num_constraints();

        // Take the workspace out of `self` so the iteration below can
        // borrow it mutably alongside `self` (for ρ updates).
        let mut ws = std::mem::take(&mut self.workspace);
        ws.reset(n, m, n / self.kkt.blocks());

        if let Some((x0, y0)) = warm {
            // Map the warm start into scaled coordinates: x̄ = D⁻¹x,
            // ȳ = cE⁻¹y — inverse of Scaling::unscale_*.
            for ((dst, v), d) in ws.x.iter_mut().zip(x0).zip(&self.scaling.d) {
                *dst = v / d;
            }
            for ((dst, v), e) in ws.y.iter_mut().zip(y0).zip(&self.scaling.e) {
                *dst = v * self.scaling.c / e;
            }
            self.prob
                .a
                .matvec_into(&ws.x, &mut ws.z)
                .expect("warm-start A·x");
        }
        vector::clamp_box(&mut ws.z, &self.prob.l, &self.prob.u);

        let alpha = self.settings.alpha;
        let sigma = self.settings.sigma;
        let mut status = QpStatus::MaxIterations;
        let mut iterations = self.settings.max_iter;
        let mut last_res: Option<Residuals> = None;

        for it in 1..=self.settings.max_iter {
            // rhs = σx − q + Aᵀ(ρ⊙z − y)
            for (((t, &rho), &z), &y) in
                ws.tmp_m.iter_mut().zip(&self.rho_vec).zip(&ws.z).zip(&ws.y)
            {
                *t = rho * z - y;
            }
            self.prob
                .a
                .matvec_transpose_into(&ws.tmp_m, &mut ws.aty)
                .expect("admm: Aᵀv shape");
            for (((r, &x), &q), &aty) in ws.rhs.iter_mut().zip(&ws.x).zip(&self.prob.q).zip(&ws.aty)
            {
                *r = sigma * x - q + aty;
            }
            // x̃ = K⁻¹ rhs (in place).
            self.kkt
                .solve_in_place(&mut ws.rhs, &mut ws.kkt_block)
                .expect("kkt solve");
            let xtil = &ws.rhs;
            self.prob
                .a
                .matvec_into(xtil, &mut ws.ztil)
                .expect("admm: A·x̃ shape");

            // Relaxed updates.
            for (x, &xtil) in ws.x.iter_mut().zip(&ws.rhs) {
                *x = alpha * xtil + (1.0 - alpha) * *x;
            }
            for (((((z, y), &ztil), &rho), &lo), &hi) in
                ws.z.iter_mut()
                    .zip(&mut ws.y)
                    .zip(&ws.ztil)
                    .zip(&self.rho_vec)
                    .zip(&self.prob.l)
                    .zip(&self.prob.u)
            {
                let z_relaxed = alpha * ztil + (1.0 - alpha) * *z;
                let z_pre = z_relaxed + *y / rho;
                let z_new = z_pre.clamp(lo, hi);
                *y += rho * (z_relaxed - z_new);
                *z = z_new;
            }

            let do_check = it % self.settings.check_interval == 0 || it == self.settings.max_iter;
            let do_adapt = self.settings.adaptive_rho_interval > 0
                && it % self.settings.adaptive_rho_interval == 0;
            if do_check || do_adapt {
                let res = Residuals::compute(
                    &self.prob.p,
                    &self.prob.q,
                    &self.prob.a,
                    &ws.x,
                    &ws.z,
                    &ws.y,
                    &mut ws.ax,
                    &mut ws.px,
                    &mut ws.aty_res,
                );
                if !res.is_finite() {
                    status = QpStatus::NonFinite;
                    iterations = it;
                    last_res = Some(res);
                    break;
                }
                if do_check && res.converged(self.settings.eps_abs, self.settings.eps_rel) {
                    status = QpStatus::Solved;
                    iterations = it;
                    last_res = Some(res);
                    break;
                }
                if do_adapt {
                    self.maybe_update_rho(res.rho_ratio());
                }
                last_res = Some(res);
            }
        }

        // Unscale and report against the original problem. The
        // residual scratch is free again: the iteration is done with it.
        let x_orig = self.scaling.unscale_x(&ws.x);
        let y_orig = self.scaling.unscale_y(&ws.y);
        let mut z_orig = self.orig.a.matvec(&x_orig).expect("report: A·x");
        vector::clamp_box(&mut z_orig, &self.orig.l, &self.orig.u);
        // The certificate's residuals; they leave `P·x` in `px`.
        let unscaled = Residuals::compute(
            &self.orig.p,
            &self.orig.q,
            &self.orig.a,
            &x_orig,
            &z_orig,
            &y_orig,
            &mut ws.ax,
            &mut ws.px,
            &mut ws.aty_res,
        );
        // ½ xᵀPx + qᵀx, the quadratic form summed row by row.
        let mut xpx = 0.0;
        for (xi, pxi) in x_orig.iter().zip(&ws.px) {
            xpx += xi * pxi;
        }
        let qx = vector::dot(&self.orig.q, &x_orig);
        let objective = 0.5 * xpx + qx;
        // Σ sᵢ(yᵢ), the support function of the box. A multiplier on an
        // unbounded side is round-off (`y − ρ·(y/ρ)`) and counts as 0,
        // which projects `y` onto the polar of the box's recession cone
        // as OSQP does; a NaN is kept.
        let mut support = 0.0;
        for ((&y, &lo), &hi) in y_orig.iter().zip(&self.orig.l).zip(&self.orig.u) {
            support += if y > 0.0 && hi.is_finite() {
                hi * y
            } else if y < 0.0 && lo.is_finite() {
                lo * y
            } else if y.is_nan() {
                y
            } else {
                0.0
            };
        }
        let certificate = Certificate {
            primal_residual: unscaled.primal,
            dual_residual: unscaled.dual,
            duality_gap: (xpx + qx + support).abs(),
        };
        self.workspace = ws;
        let (primal_residual, dual_residual) = match last_res {
            Some(r) => (r.primal, r.dual),
            None => (f64::INFINITY, f64::INFINITY),
        };
        QpSolution {
            x: x_orig,
            y: y_orig,
            z: z_orig,
            status,
            iterations,
            objective,
            primal_residual,
            dual_residual,
            certificate,
        }
    }

    /// Adaptive ρ: rescale by the primal/dual residual ratio, refactor
    /// the KKT system only if the change exceeds the tolerance.
    fn maybe_update_rho(&mut self, ratio: f64) {
        if !ratio.is_finite() || ratio == 0.0 {
            return;
        }
        let new_rho = (self.rho * ratio).clamp(RHO_MIN, RHO_MAX);
        let tol = self.settings.adaptive_rho_tolerance;
        if new_rho > self.rho * tol || new_rho < self.rho / tol {
            // Factor first; ρ, its per-row vector and the factor must
            // change together or not at all — `K` embeds ρ, and the
            // y/z updates must use the ρ that `K` was built with. On
            // (unlikely) factorization failure all three stay as they
            // were and the iteration carries on with the old penalty.
            let rho_vec = build_rho_vec(&self.prob, new_rho);
            if let Ok(kkt) =
                factor_kkt(&self.prob, self.settings.sigma, &rho_vec, self.kkt.blocks())
            {
                self.rho = new_rho;
                self.rho_vec = rho_vec;
                self.kkt = kkt;
            }
        }
    }

    /// Current scalar penalty (for diagnostics/tests).
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Number of decision variables of the bound problem.
    pub fn num_vars(&self) -> usize {
        self.prob.num_vars()
    }

    /// Number of constraint rows of the bound problem.
    pub fn num_constraints(&self) -> usize {
        self.prob.num_constraints()
    }

    /// Re-bind the solver to `qp`, the next problem of a sequence that
    /// keeps its structure: the same sparsity pattern of `P`, and the
    /// same `A`, `l` and `u`. SpotWeb's receding-horizon controller is
    /// such a sequence — each interval moves the forecasts (`q`) and
    /// the risk matrix (`P`'s values), never the constraints.
    ///
    /// The Ruiz scaling from construction is kept as a fixed
    /// preconditioner (any fixed positive scaling is valid; it may
    /// merely differ from what a fresh equilibration would pick), so
    /// the new data is written as `c·D·P·D` and `c·D·q` in `O(nnz)`.
    /// When `P` moved, ρ goes back to [`Settings::rho`] and the KKT
    /// matrix is factored once (`O(H·N³)` blockwise); when `P` is
    /// bitwise unchanged only `q` is replaced, and the factor and its ρ
    /// are kept.
    ///
    /// Returns [`Update::Rebuild`], leaving the solver untouched, when
    /// the structure differs, and [`SolverError::Factorization`] — the
    /// solver again untouched — when the new KKT matrix does not
    /// factor.
    pub fn update(&mut self, qp: &SparseQp) -> Result<Update> {
        let orig = &self.orig;
        if !same_pattern(&qp.p, &orig.p) || qp.a != orig.a || qp.l != orig.l || qp.u != orig.u {
            return Ok(Update::Rebuild);
        }
        let (d, c) = (&self.scaling.d, self.scaling.c);
        let moved =
            qp.p.values()
                .iter()
                .zip(orig.p.values())
                .any(|(a, b)| a.to_bits() != b.to_bits());
        let update = if moved {
            // `d[i]·d[j]` commutes, so the scaled `P` stays symmetric
            // to the bit.
            let mut scaled = qp.p.clone();
            for i in 0..scaled.rows() {
                let (cols, vals) = scaled.row_mut(i);
                for (v, &j) in vals.iter_mut().zip(cols) {
                    *v *= c * (d[i] * d[j]);
                }
            }
            let rho_vec = build_rho_vec(&self.prob, self.settings.rho);
            let old = std::mem::replace(&mut self.prob.p, scaled);
            match factor_kkt(&self.prob, self.settings.sigma, &rho_vec, self.kkt.blocks()) {
                Ok(kkt) => {
                    self.kkt = kkt;
                    self.rho = self.settings.rho;
                    self.rho_vec = rho_vec;
                    self.orig.p = qp.p.clone();
                }
                Err(e) => {
                    self.prob.p = old;
                    return Err(e);
                }
            }
            Update::Refactored
        } else {
            Update::Kept
        };
        self.orig.q.copy_from_slice(&qp.q);
        for ((dst, &v), &dj) in self.prob.q.iter_mut().zip(&qp.q).zip(d) {
            *dst = c * dj * v;
        }
        Ok(update)
    }
}

/// Whether two CSR matrices store entries at the same positions.
fn same_pattern(a: &CsrMatrix, b: &CsrMatrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.nnz() == b.nnz()
        && (0..a.rows()).all(|r| a.row(r).0 == b.row(r).0)
}

/// Per-row ρ with the equality-constraint boost.
fn build_rho_vec(prob: &SparseQp, rho: f64) -> Vec<f64> {
    prob.l
        .iter()
        .zip(&prob.u)
        .map(|(&lo, &hi)| if lo == hi { rho * EQ_RHO_BOOST } else { rho })
        .collect()
}

/// Accumulate `K = P + σI + Aᵀ diag(ρ) A` straight into its `blocks`
/// diagonal blocks and the sub-diagonal coupling blocks (`sub[t]` is
/// block row `t + 1`, block column `t`), assuming the structure
/// [`verify_block_structure`] checks (none for a single block).
///
/// Every entry of `K` is summed in a fixed order — the `P` entry, then
/// σ on the diagonal, then the constraint rows ascending — which is the
/// order a dense `P.clone()` + `Aᵀdiag(ρ)A` row sweep adds them in;
/// the terms a dense sweep would add for absent entries are exact
/// `±0.0`. Like that sweep, only the upper triangle is accumulated and
/// the rest mirrored, so `K` is symmetric to the bit.
fn assemble_kkt_blocks(
    prob: &SparseQp,
    sigma: f64,
    rho_vec: &[f64],
    blocks: usize,
) -> (Vec<Matrix>, Vec<Matrix>) {
    let nb = prob.num_vars() / blocks;
    let mut diag = vec![Matrix::zeros(nb, nb); blocks];
    let mut sub = vec![Matrix::zeros(nb, nb); blocks - 1];
    for i in 0..prob.num_vars() {
        let (bi, li) = (i / nb, i % nb);
        let (cols, vals) = prob.p.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            if j < i {
                continue;
            }
            let (bj, lj) = (j / nb, j % nb);
            if bj == bi {
                diag[bi][(li, lj)] += v;
            } else {
                // K[i, j] one block right of the diagonal, stored as
                // its mirror image K[j, i] in the sub-diagonal block.
                sub[bi][(lj, li)] += v;
            }
        }
        diag[bi][(li, li)] += sigma;
    }
    for (r, &w) in rho_vec.iter().enumerate() {
        let (cols, vals) = prob.a.row(r);
        let Some(&first) = cols.first() else { continue };
        let (block, offset) = (&mut diag[first / nb], first / nb * nb);
        for (x, (&i, &ri)) in cols.iter().zip(vals).enumerate() {
            let wri = w * ri;
            for (&j, &rj) in cols[x..].iter().zip(&vals[x..]) {
                block[(i - offset, j - offset)] += wri * rj;
            }
        }
    }
    for block in &mut diag {
        for i in 0..nb {
            for j in 0..i {
                block[(i, j)] = block[(j, i)];
            }
        }
    }
    (diag, sub)
}

/// Assemble and factor the KKT matrix blockwise.
fn factor_kkt(
    prob: &SparseQp,
    sigma: f64,
    rho_vec: &[f64],
    blocks: usize,
) -> Result<BlockTridiagCholesky> {
    let (diag, sub) = assemble_kkt_blocks(prob, sigma, rho_vec, blocks);
    BlockTridiagCholesky::factor(&diag, &sub).map_err(|e| SolverError::Factorization(e.to_string()))
}

/// Check over the stored entries that `P` is block-tridiagonal and
/// every constraint row is local to one block of `block_size`
/// variables.
fn verify_block_structure(prob: &SparseQp, block_size: usize) -> Result<()> {
    for i in 0..prob.num_vars() {
        let (cols, _) = prob.p.row(i);
        // Ascending columns: the two ends bound the whole row.
        if let (Some(&lo), Some(&hi)) = (cols.first(), cols.last()) {
            let bi = i / block_size;
            if bi.abs_diff(lo / block_size) >= 2 || bi.abs_diff(hi / block_size) >= 2 {
                return Err(SolverError::Dimension(
                    "P is not block-tridiagonal for the given block size",
                ));
            }
        }
    }
    for r in 0..prob.num_constraints() {
        let (cols, _) = prob.a.row(r);
        if let (Some(&lo), Some(&hi)) = (cols.first(), cols.last()) {
            if lo / block_size != hi / block_size {
                return Err(SolverError::Dimension(
                    "constraint row spans multiple blocks",
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qp::QpProblem;
    use crate::scaling::tests::{bits, ruiz_equilibrate_dense, sparse_problem};
    use proptest::prelude::*;

    fn solve(problem: QpProblem) -> QpSolution {
        let mut s = AdmmSolver::new(problem, Settings::default()).unwrap();
        s.solve()
    }

    #[test]
    fn unconstrained_minimum_inside_box() {
        // min (x-0.5)² over 0 ≤ x ≤ 1 → x = 0.5.
        let p = QpProblem::new(
            Matrix::from_diag(&[2.0]),
            vec![-1.0],
            Matrix::identity(1),
            vec![0.0],
            vec![1.0],
        )
        .unwrap();
        let sol = solve(p);
        assert!(sol.is_solved());
        assert!((sol.x[0] - 0.5).abs() < 1e-4, "x = {}", sol.x[0]);
    }

    #[test]
    fn active_box_constraint() {
        // min (x-2)² over 0 ≤ x ≤ 1 → x = 1 (upper bound active).
        let p = QpProblem::new(
            Matrix::from_diag(&[2.0]),
            vec![-4.0],
            Matrix::identity(1),
            vec![0.0],
            vec![1.0],
        )
        .unwrap();
        let sol = solve(p);
        assert!(sol.is_solved());
        assert!((sol.x[0] - 1.0).abs() < 1e-4);
        // Dual of the active upper bound must be positive.
        assert!(sol.y[0] > 0.0);
    }

    #[test]
    fn equality_constraint_simplex() {
        // min ½‖x‖² s.t. x₁ + x₂ = 1, x ≥ 0 → x = (0.5, 0.5).
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 0.0], &[0.0, 1.0]]);
        let p = QpProblem::new(
            Matrix::identity(2),
            vec![0.0, 0.0],
            a,
            vec![1.0, 0.0, 0.0],
            vec![1.0, f64::INFINITY, f64::INFINITY],
        )
        .unwrap();
        let sol = solve(p);
        assert!(sol.is_solved());
        assert!((sol.x[0] - 0.5).abs() < 1e-4);
        assert!((sol.x[1] - 0.5).abs() < 1e-4);
    }

    #[test]
    fn weighted_projection_problem() {
        // min ½(x₁² + 10x₂²) − x₁ − 10x₂ s.t. x₁ + x₂ ≤ 1, x ≥ 0.
        // Unconstrained optimum (1, 1) violates the budget; KKT gives
        // x₁ + x₂ = 1 with 1 − x₁ = 10(1 − x₂) ⇒ x₁ = 10/11·... solve:
        // λ = 1 − x₁ = 10 − 10x₂, x₁ + x₂ = 1 → x₂ = 10/11 − ... do it
        // numerically: x₁ = 1 − λ, x₂ = 1 − λ/10, sum = 2 − 1.1λ = 1 →
        // λ = 10/11 → x₁ = 1/11, x₂ = 10/11.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 0.0], &[0.0, 1.0]]);
        let p = QpProblem::new(
            Matrix::from_diag(&[1.0, 10.0]),
            vec![-1.0, -10.0],
            a,
            vec![f64::NEG_INFINITY, 0.0, 0.0],
            vec![1.0, f64::INFINITY, f64::INFINITY],
        )
        .unwrap();
        let sol = solve(p);
        assert!(sol.is_solved());
        assert!((sol.x[0] - 1.0 / 11.0).abs() < 1e-3, "x1 = {}", sol.x[0]);
        assert!((sol.x[1] - 10.0 / 11.0).abs() < 1e-3, "x2 = {}", sol.x[1]);
    }

    #[test]
    fn pure_lp_via_zero_p() {
        // min −x₁ − 2x₂ s.t. x₁ + x₂ ≤ 1, x ≥ 0 → x = (0, 1).
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 0.0], &[0.0, 1.0]]);
        let p = QpProblem::new(
            Matrix::zeros(2, 2),
            vec![-1.0, -2.0],
            a,
            vec![f64::NEG_INFINITY, 0.0, 0.0],
            vec![1.0, f64::INFINITY, f64::INFINITY],
        )
        .unwrap();
        let sol = solve(p);
        assert!(
            sol.is_solved(),
            "residuals {} {}",
            sol.primal_residual,
            sol.dual_residual
        );
        assert!(sol.x[0].abs() < 1e-3, "x1 = {}", sol.x[0]);
        assert!((sol.x[1] - 1.0).abs() < 1e-3, "x2 = {}", sol.x[1]);
    }

    /// min (x₁ − 1)² + (x₂ − 2)² s.t. x₁ + x₂ ≤ 1.5, x ≥ 0.
    fn budget_qp() -> QpProblem {
        QpProblem::new(
            Matrix::from_diag(&[2.0, 2.0]),
            vec![-2.0, -4.0],
            Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 0.0], &[0.0, 1.0]]),
            vec![f64::NEG_INFINITY, 0.0, 0.0],
            vec![1.5, f64::INFINITY, f64::INFINITY],
        )
        .unwrap()
    }

    #[test]
    fn warm_start_converges_faster() {
        let mut cold = AdmmSolver::new(budget_qp(), Settings::default()).unwrap();
        let cold_sol = cold.solve();
        assert!(cold_sol.is_solved());
        let mut warm = AdmmSolver::new(budget_qp(), Settings::default()).unwrap();
        let warm_sol = warm.solve_from(&cold_sol.x, &cold_sol.y);
        assert!(warm_sol.is_solved());
        assert!(
            warm_sol.iterations <= cold_sol.iterations,
            "warm {} vs cold {}",
            warm_sol.iterations,
            cold_sol.iterations
        );
    }

    #[test]
    fn non_finite_iterate_stops_at_the_first_check_unsolved() {
        // A NaN iterate used to pass the residual test (`f64::max`
        // drops NaN, so both residuals read 0) and come back `Solved`.
        let settings = Settings::default();
        for bad in [f64::NAN, f64::INFINITY] {
            let mut solver = AdmmSolver::new(budget_qp(), settings.clone()).unwrap();
            let sol = solver.solve_from(&[bad, 0.0], &[0.0; 3]);
            assert_eq!(sol.status, QpStatus::NonFinite);
            assert!(!sol.is_solved());
            assert_eq!(sol.iterations, settings.check_interval);
            assert!(!sol.primal_residual.is_finite() || !sol.dual_residual.is_finite());
            // The solver itself is not poisoned: a cold solve works.
            assert!(solver.solve().is_solved());
        }
    }

    #[test]
    fn certificate_is_the_reported_point_checked_on_the_unscaled_problem() {
        // min (x − 2)² over 0 ≤ x ≤ 1: x = 1 with y = 2 on the upper
        // bound, where Px + q + Aᵀy = 2x − 4 + y and the gap
        // xᵀPx + qᵀx + u·y = 2x² − 4x + y both vanish.
        let sol = solve(
            QpProblem::new(
                Matrix::from_diag(&[2.0]),
                vec![-4.0],
                Matrix::identity(1),
                vec![0.0],
                vec![1.0],
            )
            .unwrap(),
        );
        let (x, y, c) = (sol.x[0], sol.y[0], sol.certificate());
        assert!(y > 0.0);
        assert_eq!(c.primal_residual, (x - sol.z[0]).abs());
        assert_eq!(c.dual_residual, (2.0 * x - 4.0 + y).abs());
        assert_eq!(c.duality_gap, (x * (2.0 * x) + -4.0 * x + y).abs());
        assert!(c.dual_residual < 1e-5 && c.duality_gap < 1e-5, "{c:?}");

        // The stopping test judges the residuals of the Ruiz-scaled
        // problem. With costs spanning eight orders of magnitude the
        // dual one converged at 1.5e-6 is 1.5 in the problem's units —
        // still 1.5e-6 of ‖q‖∞ = 1e6, and the gap as small against the
        // objective of −5e5.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 0.0], &[0.0, 1.0]]);
        let wide = QpProblem::new(
            Matrix::from_diag(&[1e6, 1e-2]),
            vec![-1e6, -1e-2],
            a,
            vec![f64::NEG_INFINITY, 0.0, 0.0],
            vec![1.0, f64::INFINITY, f64::INFINITY],
        )
        .unwrap();
        let sol = solve(wide);
        let c = sol.certificate();
        assert!(sol.is_solved() && sol.dual_residual < 1e-5);
        assert!(
            c.dual_residual > 1.0 && c.dual_residual < 1e-5 * 1e6,
            "{c:?}"
        );
        assert!(c.duality_gap < 1e-5 * sol.objective.abs(), "{c:?}");

        // Stopped early, the point is not optimal and the certificate
        // says so; a non-finite iterate reads NaN.
        let short = Settings {
            max_iter: 2,
            ..Settings::default()
        };
        let c = AdmmSolver::new(budget_qp(), short)
            .unwrap()
            .solve()
            .certificate();
        assert!(
            c.primal_residual > 0.1 && c.dual_residual > 0.1 && c.duality_gap > 0.1,
            "{c:?}"
        );
        let mut solver = AdmmSolver::new(budget_qp(), Settings::default()).unwrap();
        let c = solver.solve_from(&[f64::NAN, 0.0], &[0.0; 3]).certificate();
        assert!(c.primal_residual.is_nan() && c.dual_residual.is_nan() && c.duality_gap.is_nan());
    }

    #[test]
    fn scaling_off_still_solves() {
        let p = QpProblem::new(
            Matrix::from_diag(&[2.0]),
            vec![-1.0],
            Matrix::identity(1),
            vec![0.0],
            vec![1.0],
        )
        .unwrap();
        let mut s = AdmmSolver::new(
            p,
            Settings {
                scaling: false,
                ..Settings::default()
            },
        )
        .unwrap();
        let sol = s.solve();
        assert!(sol.is_solved());
        assert!((sol.x[0] - 0.5).abs() < 1e-4);
    }

    #[test]
    fn badly_scaled_problem_converges_with_equilibration() {
        // Costs spanning 8 orders of magnitude.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 0.0], &[0.0, 1.0]]);
        let p = QpProblem::new(
            Matrix::from_diag(&[1e6, 1e-2]),
            vec![-1e6, -1e-2],
            a,
            vec![f64::NEG_INFINITY, 0.0, 0.0],
            vec![1.0, f64::INFINITY, f64::INFINITY],
        )
        .unwrap();
        let sol = solve(p.clone());
        assert!(sol.is_solved());
        assert!(p.max_violation(&sol.x) < 1e-3);
    }

    /// Build a 2-market × H-period portfolio-shaped QP with churn
    /// coupling (block-tridiagonal P, per-period constraints).
    fn multi_period_qp(h: usize) -> QpProblem {
        let n = 2 * h;
        let gamma = 0.1;
        let mut p = Matrix::zeros(n, n);
        for t in 0..h {
            for i in 0..2 {
                let d = t * 2 + i;
                p[(d, d)] += 0.2; // risk diag
                p[(d, d)] += 2.0 * gamma;
                if t + 1 < h {
                    p[(d, d)] += 2.0 * gamma;
                    let e = (t + 1) * 2 + i;
                    p[(d, e)] -= 2.0 * gamma;
                    p[(e, d)] -= 2.0 * gamma;
                }
            }
        }
        let q: Vec<f64> = (0..n).map(|i| 1.0 + 0.3 * (i % 2) as f64).collect();
        // Per-period: 2 boxes + 1 budget.
        let m = 3 * h;
        let mut a = Matrix::zeros(m, n);
        let mut l = vec![0.0; m];
        let mut u = vec![0.0; m];
        for t in 0..h {
            for i in 0..2 {
                a[(t * 3 + i, t * 2 + i)] = 1.0;
                u[t * 3 + i] = 1.0;
            }
            a[(t * 3 + 2, t * 2)] = 1.0;
            a[(t * 3 + 2, t * 2 + 1)] = 1.0;
            l[t * 3 + 2] = 1.0;
            u[t * 3 + 2] = 1.5;
        }
        QpProblem::new(p, q, a, l, u).unwrap()
    }

    /// The dense assembly the block accumulation replaced, kept as its
    /// oracle: `K = P.clone() + σI`, then `Aᵀdiag(ρ)A` swept row by row
    /// over the upper triangle (zeros included), then mirrored.
    fn assemble_kkt_dense(prob: &QpProblem, sigma: f64, rho_vec: &[f64]) -> Matrix {
        let n = prob.num_vars();
        let mut k = prob.p.clone();
        k.add_diag_mut(sigma);
        for r in 0..prob.num_constraints() {
            let row = prob.a.row(r);
            let w = rho_vec[r];
            for i in 0..n {
                let ri = row[i];
                if ri == 0.0 {
                    continue;
                }
                let wri = w * ri;
                for j in i..n {
                    k[(i, j)] += wri * row[j];
                }
            }
        }
        for i in 0..n {
            for j in 0..i {
                k[(i, j)] = k[(j, i)];
            }
        }
        k
    }

    /// `assemble_kkt_blocks` against the dense oracle, bitwise, after
    /// equilibrating each side its own way.
    fn assert_kkt_blocks_match_dense(dense: QpProblem, blocks: usize) {
        let settings = Settings::default();
        let mut sparse = SparseQp::try_from(dense.clone()).unwrap();
        let mut dense = dense;
        ruiz_equilibrate(&mut sparse, settings.scaling_iters);
        ruiz_equilibrate_dense(&mut dense, settings.scaling_iters);
        let rho_vec = build_rho_vec(&sparse, settings.rho);
        let k = assemble_kkt_dense(&dense, settings.sigma, &rho_vec);
        let (diag, sub) = assemble_kkt_blocks(&sparse, settings.sigma, &rho_vec, blocks);
        let nb = dense.num_vars() / blocks;
        let block_of = |row: usize, col: usize| -> Vec<u64> {
            let mut out = Vec::with_capacity(nb * nb);
            for i in 0..nb {
                for j in 0..nb {
                    out.push(k[(row * nb + i, col * nb + j)].to_bits());
                }
            }
            out
        };
        for (t, d) in diag.iter().enumerate() {
            assert_eq!(bits(d.as_slice()), block_of(t, t), "diagonal block {t}");
        }
        for (t, e) in sub.iter().enumerate() {
            assert_eq!(bits(e.as_slice()), block_of(t + 1, t), "coupling block {t}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Unstructured problems: the single KKT block is the dense K.
        #[test]
        #[cfg_attr(miri, ignore)]
        fn kkt_block_is_bitwise_the_dense_assembly(dense in sparse_problem(7, 5)) {
            assert_kkt_blocks_match_dense(dense, 1);
        }
    }

    #[test]
    fn kkt_blocks_are_bitwise_the_dense_assembly_on_multi_period_structure() {
        for h in [2, 3, 6] {
            assert_kkt_blocks_match_dense(multi_period_qp(h), h);
        }
    }

    #[test]
    fn failed_refactorization_leaves_rho_and_iterates_unchanged() {
        // K = P + σ + ρ with P = −1: positive definite at ρ = 2, not at
        // the ρ = 0.2 the adaptive rule asks for below, so the
        // refactorization fails and the update must be dropped whole.
        let make = || {
            let qp = QpProblem::new(
                Matrix::from_diag(&[-1.0]),
                vec![0.3],
                Matrix::identity(1),
                vec![-1.0],
                vec![1.0],
            )
            .unwrap();
            let settings = Settings {
                rho: 2.0,
                scaling: false,
                adaptive_rho_interval: 0,
                max_iter: 25,
                ..Settings::default()
            };
            AdmmSolver::new(qp, settings).unwrap()
        };
        let mut untouched = make();
        let mut nudged = make();
        nudged.maybe_update_rho(0.1);
        assert_eq!(nudged.rho(), 2.0);
        assert_eq!(nudged.rho_vec, untouched.rho_vec);
        let (a, b) = (nudged.solve(), untouched.solve());
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(bits(&a.x), bits(&b.x));
        assert_eq!(bits(&a.y), bits(&b.y));

        // A refactorization that succeeds commits all three together.
        nudged.maybe_update_rho(10.0);
        assert_eq!(nudged.rho(), 20.0);
        assert_eq!(nudged.rho_vec, vec![20.0]);
    }

    #[test]
    fn block_structure_matches_dense_solution() {
        let qp = multi_period_qp(6);
        let mut dense = AdmmSolver::new(qp.clone(), Settings::default()).unwrap();
        let d = dense.solve();
        assert!(d.is_solved());
        let mut block =
            AdmmSolver::with_block_structure(qp.clone(), Settings::default(), 2).unwrap();
        let b = block.solve();
        assert!(b.is_solved());
        for (x1, x2) in d.x.iter().zip(&b.x) {
            assert!((x1 - x2).abs() < 1e-4, "{x1} vs {x2}");
        }
        assert!((d.objective - b.objective).abs() < 1e-6 * (1.0 + d.objective.abs()));
    }

    #[test]
    fn block_structure_rejects_coupled_rows() {
        // A budget row spanning two periods violates the structure.
        let mut qp = multi_period_qp(3);
        qp.a[(2, 2)] = 1.0; // period-0 budget now touches period 1
        assert!(matches!(
            AdmmSolver::with_block_structure(qp, Settings::default(), 2),
            Err(SolverError::Dimension(_))
        ));
    }

    #[test]
    fn block_structure_rejects_wide_p_band() {
        let mut qp = multi_period_qp(3);
        qp.p[(0, 5)] = 0.01; // period-0 ↔ period-2 coupling
        qp.p[(5, 0)] = 0.01;
        assert!(AdmmSolver::with_block_structure(qp, Settings::default(), 2).is_err());
    }

    #[test]
    fn block_structure_rejects_bad_block_size() {
        let qp = multi_period_qp(3);
        assert!(AdmmSolver::with_block_structure(qp, Settings::default(), 4).is_err());
    }

    #[test]
    fn workspace_reuse_does_not_leak_state_between_solves() {
        // Solving twice on one solver must agree bitwise with a fresh
        // solver: the reused workspace is fully reinitialized.
        let qp = multi_period_qp(4);
        let mut reused = AdmmSolver::new(qp.clone(), Settings::default()).unwrap();
        let _ = reused.solve();
        // Second solver: rho may have adapted on `reused`, so compare
        // against a fresh solve from the same warm iterate instead.
        let mut a = AdmmSolver::new(qp.clone(), Settings::default()).unwrap();
        let first = a.solve();
        let again = a.solve_from(&first.x, &first.y);
        let mut b = AdmmSolver::new(qp, Settings::default()).unwrap();
        let _ = b.solve();
        let fresh = b.solve_from(&first.x, &first.y);
        assert_eq!(again.iterations, fresh.iterations);
        for (u, v) in again.x.iter().zip(&fresh.x) {
            assert_eq!(u, v, "workspace reuse changed the iterate");
        }
    }

    /// The cost and risk of [`multi_period_qp`] moved as one interval
    /// of the receding-horizon loop moves them: every `q` entry by up
    /// to 10 %, every diagonal of `P` by up to 5 %.
    fn next_period(qp: &QpProblem) -> QpProblem {
        let mut next = qp.clone();
        for (i, v) in next.q.iter_mut().enumerate() {
            *v *= 1.0 + 0.05 * (i % 3) as f64;
        }
        for i in 0..next.num_vars() {
            next.p[(i, i)] *= 1.0 + 0.025 * (i % 3) as f64;
        }
        next
    }

    fn block_solver(qp: QpProblem) -> AdmmSolver {
        AdmmSolver::with_block_structure(qp, Settings::default(), 2).unwrap()
    }

    #[test]
    fn update_matches_a_fresh_solver_within_its_certificate() {
        // Variables weighted 1 / 5 / 25 (`S·P·S`), so Ruiz's `D` is not
        // the identity it is on `multi_period_qp` itself.
        let mut qp = multi_period_qp(5);
        for i in 0..qp.num_vars() {
            for j in 0..qp.num_vars() {
                qp.p[(i, j)] *= 5f64.powi((i % 3) as i32 + (j % 3) as i32);
            }
        }
        let next = next_period(&qp);
        let settings = Settings::default();
        let tol = |sol: &QpSolution| {
            let c = sol.certificate();
            let scale = 1.0 + sol.objective.abs();
            c.primal_residual <= 1e-4 && c.dual_residual <= 1e-4 && c.duality_gap <= 1e-4 * scale
        };

        let mut updated = block_solver(qp);
        let first = updated.solve();
        let adapted = updated.rho();
        assert_eq!(
            updated.update(&next.clone().try_into().unwrap()).unwrap(),
            Update::Refactored
        );
        assert_eq!(updated.rho(), settings.rho, "ρ resets (was {adapted})");
        let warm = updated.solve_from(&first.x, &first.y);
        let mut fresh = block_solver(next.clone());
        let cold = fresh.solve();
        for sol in [&warm, &cold] {
            assert!(sol.is_solved() && tol(sol), "{:?}", sol.certificate());
            // The reported objective is the new problem's.
            assert!((sol.objective - next.objective(&sol.x)).abs() < 1e-12);
        }
        assert!(
            (warm.objective - cold.objective).abs() <= 1e-6 * cold.objective.abs(),
            "updated {} vs fresh {}",
            warm.objective,
            cold.objective
        );

        // `P` unchanged: only `q` is replaced, the factor and ρ stay.
        let mut cost_only = next.clone();
        cost_only.q = qp_cost(&next, 0.9);
        let rho = updated.rho();
        assert_eq!(
            updated
                .update(&cost_only.clone().try_into().unwrap())
                .unwrap(),
            Update::Kept
        );
        assert_eq!(updated.rho(), rho);
        let kept = updated.solve();
        let cold = block_solver(cost_only).solve();
        assert!(kept.is_solved() && tol(&kept) && cold.is_solved());
        assert!((kept.objective - cold.objective).abs() <= 1e-6 * cold.objective.abs());
    }

    fn qp_cost(qp: &QpProblem, scale: f64) -> Vec<f64> {
        qp.q.iter().map(|v| v * scale).collect()
    }

    #[test]
    fn a_changed_structure_reports_rebuild_and_leaves_the_solver_untouched() {
        let qp = multi_period_qp(3);
        let mut reference = block_solver(qp.clone());
        let expected = reference.solve();

        let mut pattern = next_period(&qp);
        pattern.p[(0, 1)] = 0.01;
        pattern.p[(1, 0)] = 0.01;
        let mut a = next_period(&qp);
        a.a[(2, 0)] = 2.0;
        let mut bounds = next_period(&qp);
        bounds.u[2] = 1.25;
        let mut lower = next_period(&qp);
        lower.l[0] = -0.5;
        let shorter = multi_period_qp(2);
        for (case, changed) in [
            ("P pattern", pattern),
            ("A", a),
            ("u", bounds),
            ("l", lower),
            ("dimensions", shorter),
        ] {
            let mut solver = block_solver(qp.clone());
            let got = solver.update(&changed.try_into().unwrap()).unwrap();
            assert_eq!(got, Update::Rebuild, "{case}");
            let sol = solver.solve();
            assert_eq!(sol.iterations, expected.iterations, "{case}");
            assert_eq!(bits(&sol.x), bits(&expected.x), "{case}");
            assert_eq!(bits(&sol.y), bits(&expected.y), "{case}");
        }
    }

    #[test]
    fn reports_max_iterations_when_budget_too_small() {
        let p = QpProblem::new(
            Matrix::zeros(3, 3),
            vec![-1.0, -2.0, -3.0],
            Matrix::from_rows(&[
                &[1.0, 1.0, 1.0],
                &[1.0, 0.0, 0.0],
                &[0.0, 1.0, 0.0],
                &[0.0, 0.0, 1.0],
            ]),
            vec![1.0, 0.0, 0.0, 0.0],
            vec![1.0, 1.0, 1.0, 1.0],
        )
        .unwrap();
        let mut s = AdmmSolver::new(
            p,
            Settings {
                max_iter: 2,
                ..Settings::default()
            },
        )
        .unwrap();
        let sol = s.solve();
        assert_eq!(sol.status, QpStatus::MaxIterations);
    }
}
