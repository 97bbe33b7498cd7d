//! The ADMM iteration (OSQP-style operator splitting).

use spotweb_linalg::{band, vector};
use spotweb_linalg::{BlockTridiagCholesky, CsrMatrix, Matrix};

use crate::qp::{Certificate, QpSolution, QpStatus, Settings, SparseQp};
use crate::scaling::{ruiz_equilibrate, Scaling};
use crate::termination::Residuals;
use crate::{Result, SolverError};

/// Multiplier applied to ρ on equality rows (`l == u`), as in OSQP —
/// equality constraints need a much stiffer penalty to converge fast.
const EQ_RHO_BOOST: f64 = 1e3;

// The iteration's tuning, close to OSQP's defaults; every SpotWeb
// portfolio instance solves with it.
/// ADMM penalty ρ.
const RHO: f64 = 0.1;
/// Cost regularization σ (keeps the KKT system positive definite).
const SIGMA: f64 = 1e-6;
/// Over-relaxation parameter (1.0 = none).
const ALPHA: f64 = 1.6;
/// Iteration cap.
const MAX_ITER: usize = 4000;
/// Absolute tolerance for the primal/dual residuals.
const EPS_ABS: f64 = 1e-6;
/// Relative tolerance for the primal/dual residuals.
const EPS_REL: f64 = 1e-6;
/// Round-off allowance of a polished point, relative and in scaled
/// units: how far a row may sit outside its bounds (times
/// `1 + max(‖Ax‖∞, ‖z‖∞)`) and a multiplier past zero on the wrong
/// side for its bound (times `1 + ‖q‖∞`).
const POLISH_TOL: f64 = 1e-9;
/// Reduced solves a polish may take: the guessed active set, then that
/// set with the rows its solution crossed held at their bounds and the
/// rows whose multiplier has the wrong sign released, and so on.
const POLISH_ROUNDS: usize = 8;
/// Check termination every this many iterations.
const CHECK_INTERVAL: usize = 10;
/// Ruiz equilibration rounds.
const SCALING_ITERS: usize = 10;

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
    /// Residual scratch.
    check: CheckScratch,
    /// One KKT block long: where the factor's backward pass sums
    /// `Bᵀ·x` (see `BlockTridiagCholesky::solve_in_place`).
    kkt_block: Vec<f64>,
    /// Polish scratch.
    polish: PolishScratch,
    /// One row of `P`'s new values during [`AdmmSolver::rebind`].
    p_row: Vec<f64>,
}

impl SolveWorkspace {
    /// Size every buffer for an `n`-variable, `m`-constraint problem
    /// whose KKT factor has blocks of `block`, and zero-fill it.
    fn reset(&mut self, n: usize, m: usize, block: usize) {
        for v in [
            &mut self.x,
            &mut self.rhs,
            &mut self.aty,
            &mut self.check.px,
            &mut self.check.aty,
        ] {
            v.clear();
            v.resize(n, 0.0);
        }
        for v in [
            &mut self.y,
            &mut self.z,
            &mut self.ztil,
            &mut self.tmp_m,
            &mut self.check.ax,
        ] {
            v.clear();
            v.resize(m, 0.0);
        }
        self.kkt_block.clear();
        self.kkt_block.resize(block, 0.0);
        self.polish.reset(n);
    }
}

/// What [`AdmmSolver::polish`] works in. Each buffer is rewritten by
/// the polish that uses it; `reset` forgets the turned-down guess,
/// zeroes the solve count and reserves room for `n` entries in the
/// ones whose length depends on the active set. So a polish allocates
/// no block smaller than the problem: small blocks freed while a large
/// problem's factor is live would pin the heap above them after the
/// solver is dropped.
#[derive(Default)]
struct PolishScratch {
    /// The active set being tried.
    guess: Vec<Bound>,
    /// The last active set turned down in this solve.
    rejected: Vec<Bound>,
    /// Whether a reduced solve of that turn-down kept an iterate's
    /// multiplier (see [`AdmmSolver::polish`]).
    borrowed: bool,
    /// Reduced KKT systems solved in this solve.
    solves: usize,
    /// Per variable, the active one-entry row fixing it.
    fixed_by: Vec<Option<usize>>,
    /// Per variable, its number among the free ones.
    slot: Vec<Option<usize>>,
    /// The active rows of more than one entry, with their bounds.
    general: Vec<(usize, f64)>,
    /// The reduced system's band factor, then `x₀`.
    band: Vec<f64>,
    /// Per general row, its entries on the free variables and their
    /// solve through the reduced system.
    rows: Vec<f64>,
    /// The Schur complement's factor, then the multipliers.
    schur: Vec<f64>,
}

impl PolishScratch {
    fn reset(&mut self, n: usize) {
        self.rejected.clear();
        self.solves = 0;
        for v in [&mut self.band, &mut self.rows, &mut self.schur] {
            v.clear();
            v.reserve(n);
        }
    }
}

/// Where [`Residuals::compute`] leaves `A·x`, `P·x` and `Aᵀy`.
#[derive(Default)]
struct CheckScratch {
    ax: Vec<f64>,
    px: Vec<f64>,
    aty: Vec<f64>,
}

/// Where a constraint row sits in a guessed active set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bound {
    /// Strictly inside its bounds: multiplier 0.
    Inactive,
    /// At `l`, multiplier ≤ 0.
    Lower,
    /// At `u`, multiplier ≥ 0.
    Upper,
    /// An equality row (`l = u`), multiplier of either sign.
    Equal,
}

impl Bound {
    /// The value an active row is held at.
    fn value(self, l: f64, u: f64) -> Option<f64> {
        match self {
            Bound::Inactive => None,
            Bound::Lower | Bound::Equal => Some(l),
            Bound::Upper => Some(u),
        }
    }
}

/// A point unscaled and measured on the original problem.
struct Report {
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    objective: f64,
    certificate: Certificate,
}

/// What [`AdmmSolver::rebind`] did with the values it was given.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Update {
    /// `P` was bitwise unchanged: only `q` was replaced, and the KKT
    /// factor was kept.
    Kept,
    /// `P`'s values moved: they were scaled under the construction-time
    /// equilibration. The KKT factor is stale, and is made when an ADMM
    /// iteration next needs it — a solve its warm polish settles never
    /// makes it.
    Moved,
}

/// An ADMM solver instance bound to one problem.
///
/// Construction performs the Ruiz equilibration and the initial KKT
/// factorization; [`AdmmSolver::solve`] then iterates.
/// The solver supports warm starting via [`AdmmSolver::solve_from`],
/// which SpotWeb's receding-horizon controller uses between periods —
/// consecutive portfolio problems differ only in the forecast data, so
/// the previous solution is an excellent initial iterate — and
/// re-binding to the next period's values via [`AdmmSolver::rebind`],
/// which keeps everything but the numeric factor, and makes that only
/// when an iteration needs it.
///
/// The problem is held in CSR throughout ([`SparseQp`]); the only
/// dense storage is the KKT factor itself, `H` diagonal and `H − 1`
/// coupling blocks of `block_size²` (one block of `n²` for
/// [`AdmmSolver::new`]).
pub struct AdmmSolver {
    /// Ruiz-scaled problem.
    prob: SparseQp,
    /// Original (unscaled) problem, kept for final reporting.
    orig: SparseQp,
    scaling: Scaling,
    /// Per-row penalty ρᵢ (boosted on equality rows).
    rho_vec: Vec<f64>,
    /// The factored `P + σI + Aᵀdiag(ρ)A`; `None` while stale, from a
    /// [`AdmmSolver::rebind`] that moved `P` to the first iteration
    /// after it.
    kkt: Option<BlockTridiagCholesky>,
    /// Diagonal blocks of the KKT matrix: one when the problem is
    /// unstructured, `H` when it is multi-period.
    blocks: usize,
    /// Reusable per-solve scratch (see [`SolveWorkspace`]).
    workspace: SolveWorkspace,
}

impl AdmmSolver {
    /// Set up a solver: equilibrate and factor the KKT matrix as one
    /// dense block. Takes a [`SparseQp`], or a dense
    /// [`crate::QpProblem`] which is converted (and re-validated) once.
    /// [`Settings`] carries nothing: the tuning is fixed.
    pub fn new<Q>(problem: Q, _settings: Settings) -> Result<Self>
    where
        Q: TryInto<SparseQp>,
        SolverError: From<Q::Error>,
    {
        Self::build(problem.try_into()?, 1)
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
        _settings: Settings,
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
        Self::build(problem, blocks)
    }

    fn build(orig: SparseQp, blocks: usize) -> Result<Self> {
        let mut prob = orig.clone();
        let scaling = ruiz_equilibrate(&mut prob, SCALING_ITERS);
        debug_assert!(
            is_bitwise_symmetric(&orig.p) && is_bitwise_symmetric(&prob.p),
            "P is not stored symmetric to the bit"
        );
        let rho_vec = build_rho_vec(&prob);
        let kkt = factor_kkt(&prob, SIGMA, &rho_vec, blocks)?;
        Ok(AdmmSolver {
            prob,
            orig,
            scaling,
            rho_vec,
            kkt: Some(kkt),
            blocks,
            workspace: SolveWorkspace::default(),
        })
    }

    /// Solve from a cold start (zero initial iterate).
    pub fn solve(&mut self) -> QpSolution {
        self.iterate(None, MAX_ITER)
    }

    /// A cold solve stopped after at most `max_iter` iterations.
    #[cfg(test)]
    fn solve_capped(&mut self, max_iter: usize) -> QpSolution {
        self.iterate(None, max_iter)
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
        self.iterate(Some((x0, y0)), MAX_ITER)
    }

    /// The iteration behind [`AdmmSolver::solve`] (no warm start: the
    /// zeroed workspace *is* the cold iterate) and
    /// [`AdmmSolver::solve_from`].
    ///
    /// A finite warm start is polished before the first iteration (see
    /// [`AdmmSolver::try_polish`]): it is the previous problem's
    /// optimum, whose active set a moved forecast rarely changes by
    /// more than a few rows. A non-finite one goes to the iteration,
    /// which stops at its first check.
    ///
    /// Every check (each [`CHECK_INTERVAL`] iterations, and the last)
    /// polishes the iterate: a guess ADMM's early iterates already get
    /// right saves the iterations to `EPS_ABS`, and a wrong one costs a
    /// few reduced solves. A polished point that is feasible, passes
    /// the full-tolerance test and certifies no worse than the iterate
    /// it came from ends the solve; otherwise the iteration carries on
    /// from that iterate, untouched, and the next check tries again if
    /// the guessed active set moved or the turn-down read the
    /// iterate's multipliers (see [`AdmmSolver::try_polish`]).
    ///
    /// A KKT factor [`AdmmSolver::rebind`] left stale is made before
    /// the first iteration; when it does not factor the solve stops
    /// there, [`QpStatus::Unfactorable`].
    fn iterate(&mut self, warm: Option<(&[f64], &[f64])>, max_iter: usize) -> QpSolution {
        let n = self.num_vars();
        let m = self.num_constraints();

        // Take the workspace out of `self` so the iteration below can
        // borrow it mutably alongside `self`.
        let mut ws = std::mem::take(&mut self.workspace);
        ws.reset(n, m, n / self.blocks);

        let mut finite_warm = false;
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
            finite_warm = x0.iter().chain(y0).all(|v| v.is_finite());
        }
        vector::clamp_box(&mut ws.z, &self.prob.l, &self.prob.u);

        let mut status = QpStatus::MaxIterations;
        let mut iterations = max_iter;
        let mut last_res: Option<Residuals> = None;
        let mut polished: Option<Report> = None;
        let mut factorizations = 0;

        'solve: {
            if finite_warm {
                let iterate = (&ws.x[..], &ws.z[..], &ws.y[..]);
                if let Some((report, res)) = self.try_polish(iterate, &mut ws.polish, &mut ws.check)
                {
                    polished = Some(report);
                    status = QpStatus::Solved;
                    iterations = 0;
                    last_res = Some(res);
                    break 'solve;
                }
            }
            if self.kkt.is_none() {
                match factor_kkt(&self.prob, SIGMA, &self.rho_vec, self.blocks) {
                    Ok(kkt) => {
                        self.kkt = Some(kkt);
                        factorizations += 1;
                    }
                    Err(_) => {
                        status = QpStatus::Unfactorable;
                        iterations = 0;
                        break 'solve;
                    }
                }
            }

            for it in 1..=max_iter {
                self.step(&mut ws);
                if it % CHECK_INTERVAL != 0 && it != max_iter {
                    continue;
                }
                let res = self.residuals(&ws.x, &ws.z, &ws.y, &mut ws.check);
                if !res.is_finite() {
                    status = QpStatus::NonFinite;
                    iterations = it;
                    last_res = Some(res);
                    break;
                }
                let iterate = (&ws.x[..], &ws.z[..], &ws.y[..]);
                if let Some((report, res)) = self.try_polish(iterate, &mut ws.polish, &mut ws.check)
                {
                    polished = Some(report);
                    status = QpStatus::Solved;
                    iterations = it;
                    last_res = Some(res);
                    break;
                }
                if res.converged(EPS_ABS, EPS_REL) {
                    status = QpStatus::Solved;
                    iterations = it;
                    last_res = Some(res);
                    break;
                }
                last_res = Some(res);
            }
        }

        let is_polished = polished.is_some();
        let report = match polished {
            Some(report) => report,
            None => self.report(&ws.x, &ws.y, &mut ws.check),
        };
        let polish_solves = ws.polish.solves;
        self.workspace = ws;
        let (primal_residual, dual_residual) = match last_res {
            Some(r) => (r.primal, r.dual),
            None => (f64::INFINITY, f64::INFINITY),
        };
        QpSolution {
            x: report.x,
            y: report.y,
            z: report.z,
            status,
            iterations,
            polished: is_polished,
            polish_solves,
            factorizations,
            objective: report.objective,
            primal_residual,
            dual_residual,
            certificate: report.certificate,
        }
    }

    /// One ADMM iteration on the workspace's `(x, z, y)`, through the
    /// KKT factor (which must be fresh).
    fn step(&self, ws: &mut SolveWorkspace) {
        // rhs = σx − q + Aᵀ(ρ⊙z − y)
        for (((t, &rho), &z), &y) in ws.tmp_m.iter_mut().zip(&self.rho_vec).zip(&ws.z).zip(&ws.y) {
            *t = rho * z - y;
        }
        self.prob
            .a
            .matvec_transpose_into(&ws.tmp_m, &mut ws.aty)
            .expect("admm: Aᵀv shape");
        for (((r, &x), &q), &aty) in ws.rhs.iter_mut().zip(&ws.x).zip(&self.prob.q).zip(&ws.aty) {
            *r = SIGMA * x - q + aty;
        }
        // x̃ = K⁻¹ rhs (in place).
        self.kkt
            .as_ref()
            .expect("factored before the first iteration")
            .solve_in_place(&mut ws.rhs, &mut ws.kkt_block)
            .expect("kkt solve");
        let xtil = &ws.rhs;
        self.prob
            .a
            .matvec_into(xtil, &mut ws.ztil)
            .expect("admm: A·x̃ shape");

        // Relaxed updates.
        for (x, &xtil) in ws.x.iter_mut().zip(&ws.rhs) {
            *x = ALPHA * xtil + (1.0 - ALPHA) * *x;
        }
        for (((((z, y), &ztil), &rho), &lo), &hi) in
            ws.z.iter_mut()
                .zip(&mut ws.y)
                .zip(&ws.ztil)
                .zip(&self.rho_vec)
                .zip(&self.prob.l)
                .zip(&self.prob.u)
        {
            let z_relaxed = ALPHA * ztil + (1.0 - ALPHA) * *z;
            let z_pre = z_relaxed + *y / rho;
            let z_new = z_pre.clamp(lo, hi);
            *y += rho * (z_relaxed - z_new);
            *z = z_new;
        }
    }

    /// The residuals of the scaled problem at `(x, z, y)`, computed in
    /// the workspace's residual scratch.
    fn residuals(&self, x: &[f64], z: &[f64], y: &[f64], scratch: &mut CheckScratch) -> Residuals {
        let (p, q, a) = (&self.prob.p, &self.prob.q, &self.prob.a);
        let CheckScratch { ax, px, aty } = scratch;
        Residuals::compute(p, q, a, x, z, y, ax, px, aty)
    }

    /// Polish the iterate `(x, z, y)` and judge the result: `Some`
    /// with the polished point's report and scaled residuals when it
    /// is feasible to [`POLISH_TOL`], passes the full-tolerance test and
    /// its certificate's dual residual and duality gap are no larger
    /// than the iterate's own.
    ///
    /// The guess is repaired by a primal-dual active-set loop of at
    /// most [`POLISH_ROUNDS`] reduced solves. An active row whose
    /// multiplier has the wrong sign for its bound beyond round-off is
    /// released; when every sign is right, a row the guess left
    /// inactive that the point crosses is held at the bound it
    /// crosses. A point neither rule moves satisfies the KKT
    /// conditions, so it is the optimum of a convex problem, up to the
    /// tests above.
    ///
    /// The polished point follows from the guessed active set and, for
    /// an active row whose variables are all fixed, the iterate's
    /// multiplier. So a guess that equals the last one turned down this
    /// solve is not solved again, unless that turn-down kept such a
    /// multiplier: the iterate's has moved since. A warm start at a
    /// vertex where the budget is met by allocations all at their
    /// bounds carries the previous problem's budget multiplier, which
    /// may suit no sign pattern of the new one.
    fn try_polish(
        &self,
        (x, z, y): (&[f64], &[f64], &[f64]),
        scratch: &mut PolishScratch,
        check: &mut CheckScratch,
    ) -> Option<(Report, Residuals)> {
        self.guess_active_set(z, y, &mut scratch.guess);
        if scratch.guess == scratch.rejected && !scratch.borrowed {
            return None;
        }
        // Remembered as turned down unless a round is accepted.
        scratch.rejected.clone_from(&scratch.guess);
        scratch.borrowed = false;
        let prob = &self.prob;
        let dual_tol = POLISH_TOL * (1.0 + vector::norm_inf(&prob.q));
        for _ in 0..POLISH_ROUNDS {
            scratch.solves += 1;
            let (px, py, res) = self.polish(y, scratch, check)?;
            let tol = POLISH_TOL * (1.0 + res.primal_scale);
            // Release first: a guess that holds a row on the wrong side
            // bends the point, and the rows it crosses then say little.
            let mut moved = false;
            for (side, &yi) in scratch.guess.iter_mut().zip(&py) {
                let wrong = match side {
                    Bound::Lower => yi > dual_tol,
                    Bound::Upper => yi < -dual_tol,
                    Bound::Equal | Bound::Inactive => false,
                };
                if wrong {
                    *side = Bound::Inactive;
                    moved = true;
                }
            }
            if !moved {
                for (((side, &ax), &lo), &hi) in scratch
                    .guess
                    .iter_mut()
                    .zip(&check.ax)
                    .zip(&prob.l)
                    .zip(&prob.u)
                {
                    if *side == Bound::Inactive && (ax < lo - tol || ax > hi + tol) {
                        *side = if ax < lo { Bound::Lower } else { Bound::Upper };
                        moved = true;
                    }
                }
            }
            if moved {
                continue;
            }
            // An active row whose variables are all fixed may still sit
            // outside its bounds: no rule above moves it.
            if res.primal > tol || !res.converged(EPS_ABS, EPS_REL) {
                return None;
            }
            let current = self.report(x, y, check).certificate;
            let report = self.report(&px, &py, check);
            let c = report.certificate;
            if c.dual_residual > current.dual_residual || c.duality_gap > current.duality_gap {
                return None;
            }
            debug_assert!(
                c.primal_residual <= current.primal_residual.max(tol)
                    && c.dual_residual <= current.dual_residual
                    && c.duality_gap <= current.duality_gap,
                "polished {c:?} against the iterate's {current:?}"
            );
            scratch.rejected.clear();
            return Some((report, res));
        }
        None
    }

    /// OSQP's guess of the active set from the scaled iterate, into
    /// `guess`: row `i` is at its lower bound when `zᵢ − lᵢ < −yᵢ`, at
    /// its upper bound when `uᵢ − zᵢ < yᵢ`, and an equality row
    /// (`lᵢ = uᵢ`) always.
    fn guess_active_set(&self, z: &[f64], y: &[f64], guess: &mut Vec<Bound>) {
        let (l, u) = (&self.prob.l, &self.prob.u);
        guess.clear();
        guess.extend((0..l.len()).map(|i| {
            if l[i] == u[i] {
                Bound::Equal
            } else if z[i] - l[i] < -y[i] {
                Bound::Lower
            } else if u[i] - z[i] < y[i] {
                Bound::Upper
            } else {
                Bound::Inactive
            }
        }));
    }

    /// Solution polishing (OSQP, Stellato et al. 2020, §5.2): solve the
    /// equality KKT system of the active set in `scratch.guess`
    /// exactly, in the scaled coordinates, and return the point
    /// `(x, y)` with its scaled residuals.
    ///
    /// An active row with one entry fixes its variable at the bound;
    /// the other active rows become equalities on the variables left
    /// free, solved through their Schur complement over `P` restricted
    /// to the free variables — without σ or ρ. Numbered in order, the
    /// free variables keep `P`'s band: block-tridiagonal in the
    /// horizon, a band as wide as two periods' free allocations, which
    /// [`band`] factors in the scratch it is given. Row multipliers
    /// follow from stationarity — except on an active row of more than
    /// one entry whose variables are all fixed (a period's budget met
    /// by allocations all at their bounds). Its multiplier is not
    /// unique, and it keeps the iterate's `y_iter`, the one ADMM
    /// converges to.
    ///
    /// `None` when the guess is inconsistent (two active one-entry rows
    /// on one variable) or when the reduced system does not factor (a
    /// singular `P` on the free variables, as in an LP, or linearly
    /// dependent active rows). The multipliers' signs are the caller's
    /// to judge.
    fn polish(
        &self,
        y_iter: &[f64],
        scratch: &mut PolishScratch,
        check: &mut CheckScratch,
    ) -> Option<(Vec<f64>, Vec<f64>, Residuals)> {
        let prob = &self.prob;
        let n = prob.num_vars();
        let PolishScratch {
            guess,
            fixed_by,
            slot,
            general,
            band: reduced,
            rows,
            schur,
            borrowed,
            ..
        } = scratch;
        fixed_by.clear();
        fixed_by.resize(n, None);
        general.clear();
        let mut x = vec![0.0; n];
        for (i, side) in guess.iter().enumerate() {
            let Some(bound) = side.value(prob.l[i], prob.u[i]) else {
                continue;
            };
            match prob.a.row(i) {
                ([j], [a]) => {
                    if fixed_by[*j].replace(i).is_some() {
                        return None;
                    }
                    x[*j] = bound / a;
                }
                ([], _) => {}
                _ => general.push((i, bound)),
            }
        }

        // Number the free variables; `P` on them is a band `bw` wide.
        let mut free = 0;
        slot.clear();
        slot.extend(fixed_by.iter().map(|f| {
            f.is_none().then(|| {
                free += 1;
                free - 1
            })
        }));
        let mut bw = 0;
        for (i, si) in slot.iter().enumerate() {
            let Some(si) = si else { continue };
            for &j in prob.p.row(i).0 {
                if let Some(sj) = slot[j] {
                    bw = bw.max(si.saturating_sub(sj));
                }
            }
        }
        // Its lower band, and `x₀ = −q − P·x_fixed` beside it.
        let w = bw + 1;
        reduced.clear();
        reduced.resize(free * w + free, 0.0);
        let (k_band, x0) = reduced.split_at_mut(free * w);
        for (i, si) in slot.iter().enumerate() {
            let Some(si) = *si else { continue };
            x0[si] = -prob.q[i];
            let (cols, vals) = prob.p.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                match slot[j] {
                    None => x0[si] -= v * x[j],
                    Some(sj) if sj <= si => k_band[si * w + sj + bw - si] = v,
                    Some(_) => {}
                }
            }
        }
        band::factor_in_place(k_band, free, bw).ok()?;
        band::solve_in_place(k_band, free, bw, x0).ok()?;

        // Per general row: its entries on the free variables (`a`) and
        // `K⁻¹a` (`w`), side by side in `rows`; `general` keeps the row
        // and what it asks of the free variables.
        let mut y = vec![0.0; prob.num_constraints()];
        rows.clear();
        let mut kept = 0;
        for g in 0..general.len() {
            let (i, mut target) = general[g];
            let start = rows.len();
            rows.resize(start + free, 0.0);
            let (cols, vals) = prob.a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                match slot[j] {
                    Some(s) => rows[start + s] = v,
                    None => target -= v * x[j],
                }
            }
            if rows[start..].iter().all(|&v| v == 0.0) {
                // Met or not by the fixed variables alone, which the
                // residual test checks.
                y[i] = y_iter[i];
                *borrowed = true;
                rows.truncate(start);
                continue;
            }
            rows.extend_from_within(start..start + free);
            band::solve_in_place(k_band, free, bw, &mut rows[start + free..]).ok()?;
            general[kept] = (i, target);
            kept += 1;
        }
        general.truncate(kept);
        // The Schur complement `S = A_E K⁻¹ A_Eᵀ`, dense (a band as wide
        // as itself), and the multipliers from `S λ = A_E x₀ − b`; then
        // `x = x₀ − K⁻¹ A_Eᵀ λ`.
        let a_of = |e: usize| &rows[2 * e * free..(2 * e + 1) * free];
        let w_of = |e: usize| &rows[(2 * e + 1) * free..(2 * e + 2) * free];
        schur.clear();
        schur.resize(kept * kept + kept, 0.0);
        let (s, lambda) = schur.split_at_mut(kept * kept);
        for e in 0..kept {
            for f in 0..=e {
                s[e * kept + f + kept - 1 - e] = vector::dot(a_of(e), w_of(f));
            }
            lambda[e] = vector::dot(a_of(e), x0) - general[e].1;
        }
        if kept > 0 {
            band::factor_in_place(s, kept, kept - 1).ok()?;
            band::solve_in_place(s, kept, kept - 1, lambda).ok()?;
        }
        for (e, &l) in lambda.iter().enumerate() {
            for (xi, wi) in x0.iter_mut().zip(w_of(e)) {
                *xi -= l * wi;
            }
        }
        for (xj, s) in x.iter_mut().zip(slot.iter()) {
            if let Some(s) = s {
                *xj = x0[*s];
            }
        }

        // Multipliers: the general rows' λ, and for each fixed
        // variable's row what is left of its stationarity row
        // `P·x + q + Aᵀy`.
        for (&(i, _), &l) in general.iter().zip(lambda.iter()) {
            y[i] = l;
        }
        let CheckScratch { ax, px, aty } = check;
        prob.p.symmetric_matvec_into(&x, px).expect("polish: P·x");
        prob.a.matvec_transpose_into(&y, aty).expect("polish: Aᵀy");
        for (j, row) in fixed_by.iter().enumerate() {
            if let &Some(i) = row {
                let a = prob.a.row(i).1[0];
                y[i] = -(px[j] + prob.q[j] + aty[j]) / a;
                aty[j] += a * y[i];
            }
        }
        prob.a.matvec_into(&x, ax).expect("polish: A·x");
        let mut z = ax.clone();
        vector::clamp_box(&mut z, &prob.l, &prob.u);
        let res = Residuals::reduce(&prob.q, &z, ax, px, aty);
        Some((x, y, res))
    }

    /// Unscale `(x, y)` and measure it on the original problem: `z` is
    /// `Ax` projected into `[l, u]`, and the certificate's residuals
    /// leave `P·x` in the workspace's `px`.
    fn report(&self, x: &[f64], y: &[f64], scratch: &mut CheckScratch) -> Report {
        let x_orig = self.scaling.unscale_x(x);
        let y_orig = self.scaling.unscale_y(y);
        let mut z_orig = self.orig.a.matvec(&x_orig).expect("report: A·x");
        vector::clamp_box(&mut z_orig, &self.orig.l, &self.orig.u);
        let (p, q, a) = (&self.orig.p, &self.orig.q, &self.orig.a);
        let CheckScratch { ax, px, aty } = scratch;
        let unscaled = Residuals::compute(p, q, a, &x_orig, &z_orig, &y_orig, ax, px, aty);
        // ½ xᵀPx + qᵀx, the quadratic form summed row by row.
        let mut xpx = 0.0;
        for (xi, pxi) in x_orig.iter().zip(px.iter()) {
            xpx += xi * pxi;
        }
        let qx = vector::dot(&self.orig.q, &x_orig);
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
        Report {
            x: x_orig,
            y: y_orig,
            z: z_orig,
            objective: 0.5 * xpx + qx,
            certificate: Certificate {
                primal_residual: unscaled.primal,
                dual_residual: unscaled.dual,
                duality_gap: (xpx + qx + support).abs(),
            },
        }
    }

    /// The bound problem, unscaled.
    pub fn problem(&self) -> &SparseQp {
        &self.orig
    }

    /// Number of decision variables of the bound problem.
    pub fn num_vars(&self) -> usize {
        self.prob.num_vars()
    }

    /// Number of constraint rows of the bound problem.
    pub fn num_constraints(&self) -> usize {
        self.prob.num_constraints()
    }

    /// Re-bind the solver to new values of `P` and `q` on the structure
    /// it holds: the same sparsity pattern of `P`, and the same `A`, `l`
    /// and `u`. SpotWeb's receding-horizon controller is such a
    /// sequence — each interval moves the forecasts (`q`) and the risk
    /// matrix (`P`'s values), never the constraints.
    /// `p_row(i, cols, vals)` writes row `i`'s new values at its stored
    /// columns `cols` into `vals`; `q` replaces the linear cost. The
    /// caller vouches for what [`SparseQp::new`] checks: finite values,
    /// and a `P` stored symmetric to the bit.
    ///
    /// The Ruiz scaling from construction is kept as a fixed
    /// preconditioner (any fixed positive scaling is valid; it may
    /// merely differ from what a fresh equilibration would pick), so
    /// the new data is written as `c·D·P·D` and `c·D·q` in `O(nnz)`.
    /// Rows are bit-compared with the held ones up to the first that
    /// differs. From there on, each row is written over the held one
    /// and rescaled in the same pass, and the rows before it are
    /// rescaled once, from values that did not move: a moved `P` is
    /// scaled entry for entry by one formula.
    ///
    /// When `P` moved the KKT factor goes stale ([`Update::Moved`]):
    /// the next solve makes it (`O(H·N³)` blockwise) only if it has to
    /// iterate, and ends [`QpStatus::Unfactorable`] if the new matrix
    /// does not factor. A `P` that did not move is left untouched with
    /// its factor ([`Update::Kept`]).
    pub fn rebind(
        &mut self,
        q: &[f64],
        mut p_row: impl FnMut(usize, &[usize], &mut [f64]),
    ) -> Update {
        assert_eq!(
            q.len(),
            self.num_vars(),
            "q must have one entry per variable"
        );
        let AdmmSolver {
            orig,
            prob,
            scaling,
            workspace,
            ..
        } = self;
        let (d, c) = (&scaling.d, scaling.c);
        let row = &mut workspace.p_row;
        let mut moved = false;
        for i in 0..orig.p.rows() {
            if moved {
                let (cols, held) = orig.p.row_mut(i);
                p_row(i, cols, held);
            } else {
                let (cols, held) = orig.p.row(i);
                row.clear();
                row.resize(cols.len(), 0.0);
                p_row(i, cols, row);
                if held
                    .iter()
                    .zip(row.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits())
                {
                    continue;
                }
                moved = true;
                for r in 0..i {
                    let (cols, held) = orig.p.row(r);
                    rescale_row(r, cols, held, prob.p.row_mut(r).1, d, c);
                }
                orig.p.row_mut(i).1.copy_from_slice(row);
            }
            let (cols, held) = orig.p.row(i);
            debug_assert!(
                held.iter().all(|v| v.is_finite()),
                "P row {i} is not finite"
            );
            rescale_row(i, cols, held, prob.p.row_mut(i).1, d, c);
        }
        debug_assert!(q.iter().all(|v| v.is_finite()), "q is not finite");
        orig.q.copy_from_slice(q);
        for ((dst, &v), &dj) in prob.q.iter_mut().zip(q).zip(d) {
            *dst = c * dj * v;
        }
        if !moved {
            return Update::Kept;
        }
        debug_assert!(
            is_bitwise_symmetric(&orig.p) && is_bitwise_symmetric(&prob.p),
            "P is not stored symmetric to the bit"
        );
        self.kkt = None;
        Update::Moved
    }
}

/// Whether `p` is stored symmetric to the bit, as every `P·x` the
/// solver takes reads it (see `CsrMatrix::symmetric_matvec_into`).
fn is_bitwise_symmetric(p: &CsrMatrix) -> bool {
    let t = p.transpose();
    (0..p.rows()).all(|i| {
        let ((pc, pv), (tc, tv)) = (p.row(i), t.row(i));
        pc == tc && pv.iter().zip(tv).all(|(a, b)| a.to_bits() == b.to_bits())
    })
}

/// Row `i` of `P` under the fixed scaling: `scaled[k] =
/// p[k]·(c·(d[i]·d[cols[k]]))`. `d[i]·d[j]` commutes, so a symmetric
/// `P` stays symmetric to the bit. The column scales are read a run of
/// consecutive columns at a time, as a slice.
fn rescale_row(i: usize, cols: &[usize], p: &[f64], scaled: &mut [f64], d: &[f64], c: f64) {
    let di = d[i];
    let mut start = 0;
    while start < cols.len() {
        let first = cols[start];
        let run = cols[start..]
            .iter()
            .zip(first..)
            .take_while(|(&j, k)| j == *k)
            .count();
        let end = start + run;
        let dj = &d[first..first + run];
        for ((v, &p), &dj) in scaled[start..end].iter_mut().zip(&p[start..end]).zip(dj) {
            *v = p * (c * (di * dj));
        }
        start = end;
    }
}

/// Per-row ρ with the equality-constraint boost.
fn build_rho_vec(prob: &SparseQp) -> Vec<f64> {
    prob.l
        .iter()
        .zip(&prob.u)
        .map(|(&lo, &hi)| if lo == hi { RHO * EQ_RHO_BOOST } else { RHO })
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

/// Assemble and factor the KKT matrix blockwise, in the assembled
/// blocks' own storage.
fn factor_kkt(
    prob: &SparseQp,
    sigma: f64,
    rho_vec: &[f64],
    blocks: usize,
) -> Result<BlockTridiagCholesky> {
    let (diag, sub) = assemble_kkt_blocks(prob, sigma, rho_vec, blocks);
    BlockTridiagCholesky::factor_in_place(diag, sub)
        .map_err(|e| SolverError::Factorization(e.to_string()))
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

    /// min −x₁ − 2x₂ s.t. x₁ + x₂ ≤ 1, x ≥ 0 → x = (0, 1).
    fn lp_qp() -> QpProblem {
        QpProblem::new(
            Matrix::zeros(2, 2),
            vec![-1.0, -2.0],
            Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 0.0], &[0.0, 1.0]]),
            vec![f64::NEG_INFINITY, 0.0, 0.0],
            vec![1.0, f64::INFINITY, f64::INFINITY],
        )
        .unwrap()
    }

    #[test]
    fn pure_lp_via_zero_p() {
        let p = lp_qp();
        let sol = solve(p.clone());
        assert!(
            sol.is_solved(),
            "residuals {} {}",
            sol.primal_residual,
            sol.dual_residual
        );
        assert!(sol.x[0].abs() < 1e-3, "x1 = {}", sol.x[0]);
        assert!((sol.x[1] - 1.0).abs() < 1e-3, "x2 = {}", sol.x[1]);
        // No polish: with `P = 0` the reduced system on the free `x₂`
        // is singular, for the right active set too, and the iteration
        // ran on to the full tolerance.
        assert!(!sol.polished);
        let solver = AdmmSolver::new(p, Settings::default()).unwrap();
        let (mut scratch, mut check) = (PolishScratch::default(), CheckScratch::default());
        scratch.guess = vec![Bound::Upper, Bound::Lower, Bound::Inactive];
        assert!(solver.polish(&[0.0; 3], &mut scratch, &mut check).is_none());
    }

    /// min (x₁ − a)² + (x₂ − 2)² s.t. x₁ + x₂ ≤ 1.5, x ≥ 0. For `a`
    /// near ½ the budget holds (multiplier 1) and `x₁ ≥ 0` is nearly
    /// degenerate: `x₁ = (a − ½)/2` above ½, else 0 with multiplier
    /// `2a − 1`.
    fn degenerate_qp(a: f64) -> QpProblem {
        QpProblem::new(
            Matrix::from_diag(&[2.0, 2.0]),
            vec![-2.0 * a, -4.0],
            Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 0.0], &[0.0, 1.0]]),
            vec![f64::NEG_INFINITY, 0.0, 0.0],
            vec![1.5, f64::INFINITY, f64::INFINITY],
        )
        .unwrap()
    }

    /// Polish the scaled iterate a capped solve of `qp` stopped at, as
    /// if ADMM's guess were `guess`.
    fn polish_early_stop(qp: QpProblem, guess: [Bound; 3]) -> (AdmmSolver, SolveWorkspace) {
        let mut solver = AdmmSolver::new(qp, Settings::default()).unwrap();
        let early = solver.solve_capped(CHECK_INTERVAL);
        assert!(early.is_solved(), "loose enough to polish");
        let mut ws = std::mem::take(&mut solver.workspace);
        solver.guess_active_set(&ws.z, &ws.y, &mut ws.polish.guess);
        assert_eq!(
            ws.polish.guess,
            [Bound::Upper, Bound::Inactive, Bound::Inactive]
        );
        ws.polish.guess = guess.to_vec();
        (solver, ws)
    }

    #[test]
    fn a_row_with_a_wrong_sign_multiplier_is_released_onto_the_optimum() {
        // At a = ½ + 2e-5 the optimum keeps x₁ = 1e-5 off its bound.
        // Holding x₁ at 0 instead solves to (0, 1.5) with the bound's
        // multiplier 4e-5 > 0: the wrong sign for a lower bound.
        let qp = degenerate_qp(0.50002);
        let (solver, mut ws) =
            polish_early_stop(qp.clone(), [Bound::Upper, Bound::Lower, Bound::Inactive]);
        let (x, y, _) = solver
            .polish(&ws.y, &mut ws.polish, &mut ws.check)
            .expect("the guess solves");
        assert!(x[0] == 0.0 && y[1] > 0.0, "{x:?} {y:?}");
        // Through `try_polish`, with the iterate doctored to make that
        // guess (x₁'s row at its bound, a negative multiplier): the row
        // is released and the second reduced solve is the optimum.
        let (mut z, mut y) = (ws.z.clone(), ws.y.clone());
        (z[1], y[1]) = (0.0, -1e-3);
        let x = ws.x.clone();
        let before = ws.polish.solves;
        let (report, _) = solver
            .try_polish((&x, &z, &y), &mut ws.polish, &mut ws.check)
            .expect("the repaired guess is the optimum");
        assert_eq!(ws.polish.solves - before, 2);
        assert!(ws.polish.rejected.is_empty());
        assert!((report.x[0] - 1e-5).abs() <= 1e-15 && (report.x[1] - 1.49999).abs() <= 1e-15);
        assert_eq!(report.y[1], 0.0);

        // The solve lands on the same point, to round-off.
        let sol = solve(qp.clone());
        assert!(sol.is_solved() && sol.polished);
        assert!((sol.x[0] - 1e-5).abs() <= 1e-15 && (sol.x[1] - 1.49999).abs() <= 1e-15);
        assert_eq!(sol.y[1], 0.0);
        assert!(qp.max_violation(&sol.x) <= 1e-15);
    }

    #[test]
    fn a_row_the_guess_missed_is_held_at_the_bound_it_crosses() {
        // At a = ½ − 2e-5 the optimum is x₁ = 0 with multiplier −4e-5.
        // A guess that leaves x₁'s row out solves to x₁ = −1e-5; the
        // polish holds the row at 0 and solves again, exactly.
        let qp = degenerate_qp(0.49998);
        let (solver, mut ws) =
            polish_early_stop(qp, [Bound::Upper, Bound::Inactive, Bound::Inactive]);
        let (x, _, res) = solver
            .polish(&ws.y, &mut ws.polish, &mut ws.check)
            .expect("the first round solves");
        assert!(x[0] < -5e-6 && res.primal > 5e-6, "{x:?}");
        let iterate = (ws.x.clone(), ws.z.clone(), ws.y.clone());
        let (report, _) = solver
            .try_polish(
                (&iterate.0, &iterate.1, &iterate.2),
                &mut ws.polish,
                &mut ws.check,
            )
            .expect("the second round is the optimum");
        assert_eq!(report.x, [0.0, 1.5]);
        assert!(
            report.y[1] < 0.0 && (report.y[1] + 4e-5).abs() < 1e-12,
            "{:?}",
            report.y
        );
    }

    #[test]
    fn an_active_row_with_a_zero_multiplier_polishes_exactly() {
        // min ½‖x − (½, ½)‖² s.t. x₁ + x₂ ≤ 1, x ≥ 0: the budget holds
        // with equality at the unconstrained optimum, multiplier 0.
        let sol = solve(
            QpProblem::new(
                Matrix::identity(2),
                vec![-0.5, -0.5],
                Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 0.0], &[0.0, 1.0]]),
                vec![f64::NEG_INFINITY, 0.0, 0.0],
                vec![1.0, f64::INFINITY, f64::INFINITY],
            )
            .unwrap(),
        );
        assert!(sol.is_solved() && sol.polished);
        for (x, y) in sol.x.iter().zip(&sol.y) {
            assert!((x - 0.5).abs() <= 1e-15, "{:?}", sol.x);
            assert!(y.abs() <= 1e-15, "{:?}", sol.y);
        }
        let c = sol.certificate();
        assert!(c.primal_residual <= 1e-15 && c.dual_residual <= 1e-15 && c.duality_gap <= 1e-15);
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
        for bad in [f64::NAN, f64::INFINITY] {
            let mut solver = AdmmSolver::new(budget_qp(), Settings::default()).unwrap();
            let sol = solver.solve_from(&[bad, 0.0], &[0.0; 3]);
            assert_eq!(sol.status, QpStatus::NonFinite);
            assert!(!sol.is_solved());
            assert_eq!(sol.iterations, CHECK_INTERVAL);
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
        // problem. With costs spanning eight orders of magnitude
        // (‖q‖∞ = 1e6) a dual residual there is a million times larger
        // in the problem's units. Every check polishes, so the iterate
        // is seen unpolished only where no check's polish is accepted:
        // with `x₂`'s cost linear (`P₂₂ = 0`), `P` on the free variables
        // of the optimum's active set is singular, and so it is on those
        // of any guess that leaves `x₂` free. Stopped at 50 iterations,
        // 0.44 reads 4.4e5.
        let wide = |p22: f64| {
            QpProblem::new(
                Matrix::from_diag(&[1e6, p22]),
                vec![-1e6, -1e-2],
                Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 0.0], &[0.0, 1.0]]),
                vec![f64::NEG_INFINITY, 0.0, 0.0],
                vec![1.0, f64::INFINITY, f64::INFINITY],
            )
            .unwrap()
        };
        let capped = AdmmSolver::new(wide(0.0), Settings::default())
            .unwrap()
            .solve_capped(50);
        let c = capped.certificate();
        assert!(!capped.polished && capped.polish_solves > 0);
        assert!(capped.dual_residual < 1.0);
        assert!(
            c.dual_residual > 1.0 && c.dual_residual > 1e5 * capped.dual_residual,
            "{c:?} against {}",
            capped.dual_residual
        );
        // With `P₂₂ = 1e-2` the polish is accepted, and both residuals
        // and the gap are round-off in the problem's units too.
        let sol = solve(wide(1e-2));
        let c = sol.certificate();
        assert!(sol.is_solved() && sol.polished);
        assert!(c.dual_residual < 1e-15 * 1e6, "{c:?}");
        assert!(c.duality_gap < 1e-15 * sol.objective.abs(), "{c:?}");

        // Stopped early on an LP, whose polish never factors, the point
        // is not optimal and the certificate says so; a non-finite
        // iterate reads NaN.
        let c = AdmmSolver::new(lp_qp(), Settings::default())
            .unwrap()
            .solve_capped(2)
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
        let mut sparse = SparseQp::try_from(dense.clone()).unwrap();
        let mut dense = dense;
        ruiz_equilibrate(&mut sparse, SCALING_ITERS);
        ruiz_equilibrate_dense(&mut dense, SCALING_ITERS);
        let rho_vec = build_rho_vec(&sparse);
        let k = assemble_kkt_dense(&dense, SIGMA, &rho_vec);
        let (diag, sub) = assemble_kkt_blocks(&sparse, SIGMA, &rho_vec, blocks);
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
        // A solver that already solved once against a fresh one, from
        // the same warm iterate.
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

    /// Re-bind `solver` to the values of `qp`, which stores `P` at the
    /// positions the solver holds.
    fn rebind_to<Q>(solver: &mut AdmmSolver, qp: Q) -> Update
    where
        Q: TryInto<SparseQp>,
        SolverError: From<Q::Error>,
    {
        let qp = qp.try_into().map_err(SolverError::from).unwrap();
        solver.rebind(&qp.q, |i, cols, vals| {
            let (held, new) = qp.p.row(i);
            assert_eq!(cols, held, "P's pattern moved at row {i}");
            vals.copy_from_slice(new);
        })
    }

    /// Whether every stored entry of the scaled `P` is the one formula
    /// of the original: `p·(c·(d[i]·d[j]))`.
    fn scaled_by_the_formula(solver: &AdmmSolver) -> bool {
        let (d, c) = (&solver.scaling.d, solver.scaling.c);
        (0..solver.num_vars()).all(|i| {
            let ((cols, p), (_, scaled)) = (solver.orig.p.row(i), solver.prob.p.row(i));
            cols.iter()
                .zip(p)
                .zip(scaled)
                .all(|((&j, &p), &s)| s.to_bits() == (p * (c * (d[i] * d[j]))).to_bits())
        })
    }

    #[test]
    fn a_rebind_that_moves_only_the_last_row_rescales_every_row() {
        // Weighted as in the test below, so equilibration's own scaled
        // `P` is not the formula's to the bit.
        let mut qp = multi_period_qp(4);
        for i in 0..qp.num_vars() {
            for j in 0..qp.num_vars() {
                qp.p[(i, j)] *= 5f64.powi((i % 3) as i32 + (j % 3) as i32);
            }
        }
        let sparse: SparseQp = qp.clone().try_into().unwrap();
        let mut solver = block_solver(qp);
        assert!(!scaled_by_the_formula(&solver));
        let scaled = bits(solver.prob.p.values());

        let same =
            |i: usize, _: &[usize], vals: &mut [f64]| vals.copy_from_slice(sparse.p.row(i).1);
        assert_eq!(solver.rebind(&sparse.q, same), Update::Kept);
        assert_eq!(
            bits(solver.prob.p.values()),
            scaled,
            "a kept P is untouched"
        );
        assert!(solver.kkt.is_some());

        // The last variable's diagonal, which no other row holds.
        let last = solver.num_vars() - 1;
        let moved = |i: usize, cols: &[usize], vals: &mut [f64]| {
            vals.copy_from_slice(sparse.p.row(i).1);
            if i == last {
                let k = cols.iter().position(|&j| j == last).expect("a diagonal");
                vals[k] *= 2.0;
            }
        };
        assert_eq!(solver.rebind(&sparse.q, moved), Update::Moved);
        assert!(scaled_by_the_formula(&solver), "rows before the move too");
        assert!(solver.kkt.is_none());
    }

    #[test]
    fn a_rebind_matches_a_fresh_solver_within_its_certificate() {
        // Variables weighted 1 / 5 / 25 (`S·P·S`), so Ruiz's `D` is not
        // the identity it is on `multi_period_qp` itself.
        let mut qp = multi_period_qp(5);
        for i in 0..qp.num_vars() {
            for j in 0..qp.num_vars() {
                qp.p[(i, j)] *= 5f64.powi((i % 3) as i32 + (j % 3) as i32);
            }
        }
        let next = next_period(&qp);
        let tol = |sol: &QpSolution| {
            let c = sol.certificate();
            let scale = 1.0 + sol.objective.abs();
            c.primal_residual <= 1e-4 && c.dual_residual <= 1e-4 && c.duality_gap <= 1e-4 * scale
        };

        let mut updated = block_solver(qp);
        let first = updated.solve();
        assert_eq!(rebind_to(&mut updated, next.clone()), Update::Moved);
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

        // `P` unchanged: only `q` is replaced, and the factor stays.
        let mut cost_only = next.clone();
        cost_only.q = qp_cost(&next, 0.9);
        assert_eq!(rebind_to(&mut updated, cost_only.clone()), Update::Kept);
        let kept = updated.solve();
        let cold = block_solver(cost_only).solve();
        assert!(kept.is_solved() && tol(&kept) && cold.is_solved());
        assert!((kept.objective - cold.objective).abs() <= 1e-6 * cold.objective.abs());
    }

    fn qp_cost(qp: &QpProblem, scale: f64) -> Vec<f64> {
        qp.q.iter().map(|v| v * scale).collect()
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
        let mut s = AdmmSolver::new(p, Settings::default()).unwrap();
        let sol = s.solve_capped(2);
        assert_eq!(sol.status, QpStatus::MaxIterations);
    }

    /// min ½‖x − c‖² s.t. x₁ + … + x₄ ≤ 2.5, 0 ≤ x ≤ 1: each variable
    /// is `cᵢ` clamped to its box while the budget is slack.
    fn box_qp(c: [f64; 4]) -> SparseQp {
        let mut a = Matrix::zeros(5, 4);
        for i in 0..4 {
            a[(i, i)] = 1.0;
            a[(4, i)] = 1.0;
        }
        let (mut l, mut u) = (vec![0.0; 5], vec![1.0; 5]);
        (l[4], u[4]) = (f64::NEG_INFINITY, 2.5);
        QpProblem::new(Matrix::identity(4), c.iter().map(|v| -v).collect(), a, l, u)
            .unwrap()
            .try_into()
            .unwrap()
    }

    #[test]
    fn a_warm_start_that_lost_a_row_and_gained_one_polishes_at_iteration_0() {
        // x₂ leaves its lower bound (the warm guess holds it there with
        // the wrong sign) and x₃ reaches its own (the guess crosses it).
        let before = box_qp([1.5, -0.5, 0.5, 0.3]);
        let after = box_qp([1.5, 0.4, -0.5, 0.3]);
        let mut solver = AdmmSolver::new(before, Settings::default()).unwrap();
        let first = solver.solve();
        assert!(first.polished);
        assert_eq!(first.x, [1.0, 0.0, 0.5, 0.3]);
        assert_eq!(rebind_to(&mut solver, after), Update::Kept);
        let warm = solver.solve_from(&first.x, &first.y);
        assert!(warm.is_solved() && warm.polished);
        assert_eq!((warm.iterations, warm.factorizations), (0, 0));
        // Release x₂'s row, then hold x₃'s, then accept.
        assert_eq!(warm.polish_solves, 3);
        let cold = solver.solve();
        assert!(cold.polished && cold.iterations > 0);
        assert_eq!(bits(&warm.x), bits(&cold.x));
        for (x, want) in warm.x.iter().zip([1.0, 0.4, 0.0, 0.3]) {
            assert!((x - want).abs() <= 1e-15, "{:?}", warm.x);
        }
    }

    #[test]
    fn an_unchanged_active_set_polishes_without_a_kkt_factorization() {
        // `P` moves by 0.1 %, so the factor goes stale; the active set
        // does not, so the warm polish settles the solve in one reduced
        // solve and nothing factors the KKT matrix.
        let qp = multi_period_qp(4);
        let mut solver = block_solver(qp.clone());
        let first = solver.solve();
        assert!(first.polished);
        let mut next = qp.clone();
        for i in 0..next.num_vars() {
            next.p[(i, i)] *= 1.001;
        }
        assert_eq!(rebind_to(&mut solver, next.clone()), Update::Moved);
        assert!(solver.kkt.is_none());
        let warm = solver.solve_from(&first.x, &first.y);
        assert!(warm.is_solved() && warm.polished);
        assert_eq!(
            (warm.iterations, warm.polish_solves, warm.factorizations),
            (0, 1, 0)
        );
        assert!(solver.kkt.is_none(), "no iteration, no factor");
        let cold = block_solver(next).solve();
        assert!(cold.polished);
        let worst = warm
            .x
            .iter()
            .zip(&cold.x)
            .fold(0.0_f64, |w, (a, b)| w.max((a - b).abs()));
        assert!(worst <= 1e-12, "warm vs a fresh solver: {worst:e}");
    }

    #[test]
    fn a_solve_that_iterates_after_a_moved_p_factors_exactly_once() {
        let qp = multi_period_qp(4);
        let mut solver = block_solver(qp.clone());
        let setup = solver.solve();
        assert_eq!(setup.factorizations, 0, "construction factored");
        assert_eq!(rebind_to(&mut solver, next_period(&qp)), Update::Moved);
        let cold = solver.solve();
        assert!(cold.is_solved() && cold.iterations > 0);
        assert_eq!(cold.factorizations, 1);
        assert_eq!(solver.solve().factorizations, 0, "the factor is fresh");
    }

    #[test]
    fn a_rebind_to_an_indefinite_p_ends_unsolved_without_panicking() {
        // A 1 × 1 problem bound first at P = 1 and then moved to
        // P = −1 (Ruiz leaves it as it is): K = −1 + σ + ρ at ρ = 0.1
        // does not factor.
        let problem = |p: f64| -> SparseQp {
            QpProblem::new(
                Matrix::from_diag(&[p]),
                vec![0.3],
                Matrix::identity(1),
                vec![-1.0],
                vec![1.0],
            )
            .unwrap()
            .try_into()
            .unwrap()
        };
        let mut solver = AdmmSolver::new(problem(1.0), Settings::default()).unwrap();
        let first = solver.solve();
        assert!(first.is_solved());
        assert_eq!(rebind_to(&mut solver, problem(-1.0)), Update::Moved);
        // Cold, and warm from an inactive row (the reduced `P = −1`
        // does not factor either, so the polish cannot settle it).
        for sol in [solver.solve(), solver.solve_from(&[0.2], &[0.0])] {
            assert_eq!(sol.status, QpStatus::Unfactorable);
            assert!(!sol.is_solved() && !sol.polished);
            assert_eq!((sol.iterations, sol.factorizations), (0, 0));
        }
        // Moved back, the solver works again.
        assert_eq!(rebind_to(&mut solver, problem(1.0)), Update::Moved);
        let again = solver.solve();
        assert!(again.is_solved() && again.factorizations == 1);
        assert_eq!(bits(&again.x), bits(&first.x));
    }

    #[test]
    fn a_cold_solve_whose_first_check_guesses_the_active_set_polishes_at_iteration_10() {
        // x₁ at its upper bound, x₂ at its lower one, x₃ and x₄ and the
        // budget inside: ten iterations from zero already say so.
        let mut solver =
            AdmmSolver::new(box_qp([1.5, -0.5, 0.5, 0.3]), Settings::default()).unwrap();
        let sol = solver.solve();
        assert!(sol.is_solved() && sol.polished);
        assert_eq!((sol.iterations, sol.polish_solves), (CHECK_INTERVAL, 1));
        let (ws, mut guess) = (&solver.workspace, Vec::new());
        solver.guess_active_set(&ws.z, &ws.y, &mut guess);
        use Bound::{Inactive, Lower, Upper};
        assert_eq!(guess, [Upper, Lower, Inactive, Inactive, Inactive]);
        assert_eq!(sol.x, [1.0, 0.0, 0.5, 0.3]);
    }

    /// min ½x₂² − 3e-3·x₁ − ½x₂ over the unit box: `x = (1, ½)`. `x₁`'s
    /// cost is linear, so a guess that leaves it free makes `P` on the
    /// free variables singular, and ADMM's `x₁` reaches its bound only
    /// after the first check.
    fn creeping_qp() -> QpProblem {
        QpProblem::new(
            Matrix::from_diag(&[0.0, 1.0]),
            vec![-3e-3, -0.5],
            Matrix::identity(2),
            vec![0.0, 0.0],
            vec![1.0, 1.0],
        )
        .unwrap()
    }

    #[test]
    fn a_polish_turned_down_at_an_early_check_leaves_the_iterate_untouched() {
        let qp = creeping_qp();
        let mut solver = AdmmSolver::new(qp.clone(), Settings::default()).unwrap();
        let sol = solver.solve();
        assert!(sol.is_solved() && sol.polished);
        // One reduced solve turned down at the first check, one
        // accepted at the second.
        assert_eq!((sol.iterations, sol.polish_solves), (2 * CHECK_INTERVAL, 2));
        assert!(
            sol.x[0] == 1.0 && (sol.x[1] - 0.5).abs() <= 1e-15,
            "{:?}",
            sol.x
        );

        // The same twenty iterations with nothing between them, on a
        // second solver: the iterate the solve went on from, and the
        // point it accepted, are bitwise these.
        let reference = AdmmSolver::new(qp, Settings::default()).unwrap();
        let mut ws = SolveWorkspace::default();
        ws.reset(2, 2, 2);
        for it in 1..=2 * CHECK_INTERVAL {
            reference.step(&mut ws);
            if it == CHECK_INTERVAL {
                let (mut scratch, mut check) = (PolishScratch::default(), CheckScratch::default());
                let iterate = (&ws.x[..], &ws.z[..], &ws.y[..]);
                assert!(reference
                    .try_polish(iterate, &mut scratch, &mut check)
                    .is_none());
            }
        }
        let done = &solver.workspace;
        for (got, want) in [(&done.x, &ws.x), (&done.z, &ws.z), (&done.y, &ws.y)] {
            assert_eq!(bits(got), bits(want));
        }
        let iterate = (&ws.x[..], &ws.z[..], &ws.y[..]);
        let (report, _) = reference
            .try_polish(iterate, &mut ws.polish, &mut ws.check)
            .expect("the second check's polish");
        assert_eq!(bits(&report.x), bits(&sol.x));
        assert_eq!(bits(&report.y), bits(&sol.y));
    }
}
