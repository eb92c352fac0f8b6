//! ADMM solvers: LASSO and equality-constrained basis pursuit.
//!
//! Both follow the scaled-dual formulations of Boyd et al., *Distributed
//! Optimization and Statistical Learning via ADMM* (2011):
//!
//! * [`AdmmLasso`] solves `min ½‖Aθ − y‖² + λ‖θ‖₁` by alternating a ridge
//!   solve with soft-thresholding. The `(AᵀA + ρI)` system is factored
//!   once with Cholesky and reused every iteration.
//! * [`BasisPursuit`] solves the noiseless program `min ‖θ‖₁ s.t. Aθ = y`
//!   by alternating projection onto the affine constraint set with
//!   soft-thresholding — the closest implementable match to the paper's
//!   written ℓ1 program.

use crate::prox::{soft_threshold_nonneg_vec, soft_threshold_vec};
use crate::screen::duality_gap;
use crate::{validate_problem, Recovery, Result, SolverError, SolverWorkspace, SparseRecovery};
use crowdwifi_linalg::solve::Cholesky;
use crowdwifi_linalg::svd::pseudo_inverse;
use crowdwifi_linalg::vector;
use crowdwifi_linalg::Matrix;

/// ADMM solver for the LASSO program.
///
/// # Example
///
/// ```
/// use crowdwifi_linalg::Matrix;
/// use crowdwifi_sparsesolve::{admm::AdmmLasso, SparseRecovery};
///
/// let a = Matrix::identity(3);
/// let rec = AdmmLasso::default().recover(&a, &[4.0, 0.0, 0.0])?;
/// assert_eq!(rec.support(0.5), vec![0]);
/// # Ok::<(), crowdwifi_sparsesolve::SolverError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AdmmLasso {
    lambda_rel: f64,
    rho: f64,
    max_iterations: usize,
    tolerance: f64,
    nonnegative: bool,
    gap_tolerance: f64,
}

impl Default for AdmmLasso {
    fn default() -> Self {
        AdmmLasso {
            lambda_rel: 0.01,
            rho: 1.0,
            max_iterations: 1000,
            tolerance: 1e-8,
            nonnegative: true,
            gap_tolerance: 0.0,
        }
    }
}

impl AdmmLasso {
    /// Creates a solver with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the regularization weight relative to `‖Aᵀy‖_∞`; must lie in
    /// `(0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidParameter`] when out of range.
    pub fn with_lambda_rel(mut self, lambda_rel: f64) -> Result<Self> {
        if !(lambda_rel > 0.0 && lambda_rel < 1.0) {
            return Err(SolverError::InvalidParameter {
                name: "lambda_rel",
                reason: format!("must be in (0, 1), got {lambda_rel}"),
            });
        }
        self.lambda_rel = lambda_rel;
        Ok(self)
    }

    /// Sets the augmented-Lagrangian penalty ρ (default 1.0).
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidParameter`] if `rho <= 0`.
    pub fn with_rho(mut self, rho: f64) -> Result<Self> {
        if rho <= 0.0 {
            return Err(SolverError::InvalidParameter {
                name: "rho",
                reason: format!("must be positive, got {rho}"),
            });
        }
        self.rho = rho;
        Ok(self)
    }

    /// Sets the iteration cap (default 1000).
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations.max(1);
        self
    }

    /// Sets the primal/dual residual stopping tolerance (default `1e-8`).
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidParameter`] for negative or
    /// non-finite values (matching the other solver builders).
    pub fn with_tolerance(mut self, tolerance: f64) -> Result<Self> {
        if !(tolerance >= 0.0 && tolerance.is_finite()) {
            return Err(SolverError::InvalidParameter {
                name: "tolerance",
                reason: format!("must be non-negative and finite, got {tolerance}"),
            });
        }
        self.tolerance = tolerance;
        Ok(self)
    }

    /// Enables duality-gap early stopping (default: off / `0.0`): every
    /// few iterations the LASSO duality gap is evaluated at the sparse
    /// iterate `z`, and the solve stops once `gap ≤ tol · primal` — a
    /// rigorous suboptimality certificate that usually fires well
    /// before the residual rule. `0.0` disables the check.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidParameter`] for negative or
    /// non-finite values.
    pub fn with_gap_tolerance(mut self, tol: f64) -> Result<Self> {
        if !(tol >= 0.0 && tol.is_finite()) {
            return Err(SolverError::InvalidParameter {
                name: "gap_tolerance",
                reason: format!("must be non-negative and finite, got {tol}"),
            });
        }
        self.gap_tolerance = tol;
        Ok(self)
    }

    /// Enables or disables the `θ ≥ 0` constraint (default: enabled).
    pub fn with_nonnegative(mut self, nonnegative: bool) -> Self {
        self.nonnegative = nonnegative;
        self
    }

    /// Factors `(AᵀA + ρI)` — the per-operator work every solve against
    /// `a` shares, hoisted so [`SparseRecovery::recover_multi`] pays it
    /// once per batch instead of once per column.
    fn factor(&self, a: &Matrix) -> Result<Cholesky> {
        let mut gram = a.transpose().matmul(a);
        for i in 0..a.cols() {
            gram.set(i, i, gram.get(i, i) + self.rho);
        }
        Ok(Cholesky::new(&gram)?)
    }
}

impl SparseRecovery for AdmmLasso {
    fn recover(&self, a: &Matrix, y: &[f64]) -> Result<Recovery> {
        self.recover_with(a, y, &mut SolverWorkspace::new())
    }

    fn recover_with(&self, a: &Matrix, y: &[f64], ws: &mut SolverWorkspace) -> Result<Recovery> {
        validate_problem(a, y)?;
        let chol = self.factor(a)?;
        self.solve_factored(a, y, &chol, ws)
    }

    fn recover_multi(
        &self,
        a: &Matrix,
        ys: &[Vec<f64>],
        ws: &mut SolverWorkspace,
    ) -> Result<Vec<Recovery>> {
        for y in ys {
            validate_problem(a, y)?;
        }
        if ys.is_empty() {
            return Ok(Vec::new());
        }
        // The Cholesky factor of (AᵀA + ρI) depends only on `a`: one
        // factorization serves every right-hand side, bit-identically.
        let chol = self.factor(a)?;
        ys.iter()
            .map(|y| self.solve_factored(a, y, &chol, ws))
            .collect()
    }

    fn name(&self) -> &'static str {
        "admm-lasso"
    }
}

impl AdmmLasso {
    /// One ADMM solve against a pre-factored `(AᵀA + ρI)`; the whole
    /// iteration of the historical `recover_with`, unchanged.
    fn solve_factored(
        &self,
        a: &Matrix,
        y: &[f64],
        chol: &Cholesky,
        ws: &mut SolverWorkspace,
    ) -> Result<Recovery> {
        let n = a.cols();
        let rho = self.rho;

        // Aᵀy lives in `grad` for the whole solve (the x-update rhs
        // reads it every iteration).
        a.matvec_transposed_into(y, &mut ws.grad);
        let lambda = self.lambda_rel * vector::norm_inf(&ws.grad);

        ws.x.clear();
        ws.x.resize(n, 0.0);
        ws.z.clear();
        ws.z.resize(n, 0.0);
        ws.u.clear();
        ws.u.resize(n, 0.0);
        let mut iterations = 0;
        let mut converged = false;

        for k in 0..self.max_iterations {
            iterations = k + 1;
            // x-update: (AᵀA + ρI) x = Aᵀy + ρ(z − u).
            ws.n_scratch.clear();
            ws.n_scratch.extend(
                ws.grad
                    .iter()
                    .zip(ws.z.iter().zip(&ws.u))
                    .map(|(&a_, (&z_, &u_))| a_ + rho * (z_ - u_)),
            );
            chol.solve_into(&ws.n_scratch, &mut ws.x)?;

            // z-update: prox of (λ/ρ)‖·‖₁ at x + u; `x_alt` keeps the
            // previous z for the dual residual.
            ws.x_alt.clear();
            ws.x_alt.extend_from_slice(&ws.z);
            for (zi, (&xi, &ui)) in ws.z.iter_mut().zip(ws.x.iter().zip(&ws.u)) {
                *zi = xi + ui;
            }
            if self.nonnegative {
                soft_threshold_nonneg_vec(&mut ws.z, lambda / rho);
            } else {
                soft_threshold_vec(&mut ws.z, lambda / rho);
            }

            // u-update (scaled dual ascent).
            for (ui, (&xi, &zi)) in ws.u.iter_mut().zip(ws.x.iter().zip(&ws.z)) {
                *ui += xi - zi;
            }

            // Primal/dual residual stopping rule.
            let primal = vector::distance(&ws.x, &ws.z);
            let dual = rho * vector::distance(&ws.z, &ws.x_alt);
            let scale = vector::norm2(&ws.z).max(1e-12);
            if primal <= self.tolerance * scale && dual <= self.tolerance * scale {
                converged = true;
                break;
            }

            // Duality-gap early stopping at the sparse iterate z: two
            // matvecs every 10 iterations buy a rigorous certificate.
            if self.gap_tolerance > 0.0 && iterations % 10 == 0 {
                a.matvec_into(&ws.z, &mut ws.m_scratch);
                vector::sub_into(y, &ws.m_scratch, &mut ws.m_scratch2); // r = y − Az
                a.matvec_transposed_into(&ws.m_scratch2, &mut ws.n_scratch);
                let gap = duality_gap(
                    y,
                    &ws.m_scratch2,
                    &ws.n_scratch,
                    vector::norm1(&ws.z),
                    lambda,
                    self.nonnegative,
                );
                if gap.gap <= self.gap_tolerance * gap.primal.max(1e-300) {
                    converged = true;
                    break;
                }
            }
        }

        a.matvec_into(&ws.z, &mut ws.m_scratch);
        vector::sub_into(&ws.m_scratch, y, &mut ws.m_scratch2);
        let residual_norm = vector::norm2(&ws.m_scratch2);
        Ok(Recovery {
            diverged: crate::diverged(&ws.z, residual_norm, lambda, y),
            solution: ws.z.clone(),
            iterations,
            residual_norm,
            converged,
            screened_cols: 0,
            iterations_saved: if converged {
                self.max_iterations - iterations
            } else {
                0
            },
        })
    }
}

/// ADMM solver for equality-constrained basis pursuit
/// (`min ‖θ‖₁ s.t. Aθ = y`), the literal program of §4.1.
///
/// Requires `A` to have full row rank (true for the orthogonalized
/// operators produced by Proposition 1, whose rows are orthonormal).
///
/// # Example
///
/// ```
/// use crowdwifi_linalg::Matrix;
/// use crowdwifi_sparsesolve::{admm::BasisPursuit, SparseRecovery};
///
/// let a = Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[0.0, 1.0, 1.0]]);
/// let rec = BasisPursuit::default().recover(&a, &[1.0, 1.0])?;
/// // Minimum-ℓ1 solution is the single coefficient on column 2.
/// assert_eq!(rec.support(0.5), vec![2]);
/// # Ok::<(), crowdwifi_sparsesolve::SolverError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BasisPursuit {
    max_iterations: usize,
    tolerance: f64,
    nonnegative: bool,
}

impl Default for BasisPursuit {
    fn default() -> Self {
        BasisPursuit {
            max_iterations: 2000,
            tolerance: 1e-9,
            nonnegative: false,
        }
    }
}

impl BasisPursuit {
    /// Creates a solver with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the iteration cap (default 2000).
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations.max(1);
        self
    }

    /// Enables the `θ ≥ 0` constraint (default: disabled — the classic
    /// basis-pursuit program is signed).
    pub fn with_nonnegative(mut self, nonnegative: bool) -> Self {
        self.nonnegative = nonnegative;
        self
    }
}

impl SparseRecovery for BasisPursuit {
    fn recover(&self, a: &Matrix, y: &[f64]) -> Result<Recovery> {
        self.recover_with(a, y, &mut SolverWorkspace::new())
    }

    fn recover_with(&self, a: &Matrix, y: &[f64], ws: &mut SolverWorkspace) -> Result<Recovery> {
        validate_problem(a, y)?;
        let pinv = pseudo_inverse(a)?;
        self.solve_with_pinv(a, y, &pinv, ws)
    }

    fn recover_multi(
        &self,
        a: &Matrix,
        ys: &[Vec<f64>],
        ws: &mut SolverWorkspace,
    ) -> Result<Vec<Recovery>> {
        for y in ys {
            validate_problem(a, y)?;
        }
        if ys.is_empty() {
            return Ok(Vec::new());
        }
        // A† depends only on `a`: one SVD serves every right-hand side.
        let pinv = pseudo_inverse(a)?;
        ys.iter()
            .map(|y| self.solve_with_pinv(a, y, &pinv, ws))
            .collect()
    }

    fn name(&self) -> &'static str {
        "admm-bp"
    }
}

impl BasisPursuit {
    /// One basis-pursuit solve against a precomputed `A†`; the whole
    /// iteration of the historical `recover_with`, unchanged.
    fn solve_with_pinv(
        &self,
        a: &Matrix,
        y: &[f64],
        pinv: &Matrix,
        ws: &mut SolverWorkspace,
    ) -> Result<Recovery> {
        let n = a.cols();

        // Projection onto {x : Ax = y} is x ↦ x − A†(Ax − y).
        pinv.matvec_into(y, &mut ws.x); // feasible start

        ws.z.clear();
        ws.z.resize(n, 0.0);
        ws.u.clear();
        ws.u.resize(n, 0.0);
        let rho = 1.0;
        let mut iterations = 0;
        let mut converged = false;

        for k in 0..self.max_iterations {
            iterations = k + 1;
            // x-update: project v = z − u onto the affine constraint
            // (built in `x_alt`, swapped into `x` once corrected).
            vector::sub_into(&ws.z, &ws.u, &mut ws.x_alt);
            a.matvec_into(&ws.x_alt, &mut ws.m_scratch);
            vector::sub_into(&ws.m_scratch, y, &mut ws.m_scratch2);
            pinv.matvec_into(&ws.m_scratch2, &mut ws.grad);
            vector::axpy(-1.0, &ws.grad, &mut ws.x_alt);
            std::mem::swap(&mut ws.x, &mut ws.x_alt);

            // z-update: soft threshold at 1/ρ; `n_scratch` keeps the
            // previous z for the dual residual.
            ws.n_scratch.clear();
            ws.n_scratch.extend_from_slice(&ws.z);
            for (zi, (&xi, &ui)) in ws.z.iter_mut().zip(ws.x.iter().zip(&ws.u)) {
                *zi = xi + ui;
            }
            if self.nonnegative {
                soft_threshold_nonneg_vec(&mut ws.z, 1.0 / rho);
            } else {
                soft_threshold_vec(&mut ws.z, 1.0 / rho);
            }

            for (ui, (&xi, &zi)) in ws.u.iter_mut().zip(ws.x.iter().zip(&ws.z)) {
                *ui += xi - zi;
            }

            let primal = vector::distance(&ws.x, &ws.z);
            let dual = rho * vector::distance(&ws.z, &ws.n_scratch);
            let scale = vector::norm2(&ws.x).max(1e-12);
            if primal <= self.tolerance * scale && dual <= self.tolerance * scale {
                converged = true;
                break;
            }
        }

        // x is the feasible iterate: report it (z may be slightly
        // infeasible but sparser; x inherits its sparsity at convergence).
        a.matvec_into(&ws.x, &mut ws.m_scratch);
        vector::sub_into(&ws.m_scratch, y, &mut ws.m_scratch2);
        let residual_norm = vector::norm2(&ws.m_scratch2);
        Ok(Recovery {
            diverged: crate::diverged(&ws.x, residual_norm, 0.0, y),
            solution: ws.x.clone(),
            iterations,
            residual_norm,
            converged,
            screened_cols: 0,
            iterations_saved: if converged {
                self.max_iterations - iterations
            } else {
                0
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fista::Fista;

    fn bernoulli_matrix(m: usize, n: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let scale = 1.0 / (m as f64).sqrt();
        Matrix::from_fn(m, n, |_, _| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            if (state.wrapping_mul(0x2545F4914F6CDD1D) >> 63) & 1 == 1 {
                scale
            } else {
                -scale
            }
        })
    }

    #[test]
    fn admm_lasso_recovers_sparse_signal() {
        let (m, n) = (24, 64);
        let a = bernoulli_matrix(m, n, 5);
        let mut theta = vec![0.0; n];
        theta[2] = 1.0;
        theta[33] = 1.0;
        let y = a.matvec(&theta);
        let rec = AdmmLasso::default()
            .with_lambda_rel(0.005)
            .unwrap()
            .recover(&a, &y)
            .unwrap();
        let mut supp = rec.support(0.3);
        supp.sort_unstable();
        assert_eq!(supp, vec![2, 33]);
    }

    #[test]
    fn admm_and_fista_agree() {
        let a = bernoulli_matrix(20, 40, 9);
        let mut theta = vec![0.0; 40];
        theta[7] = 1.0;
        theta[22] = 1.0;
        let y = a.matvec(&theta);
        let f = Fista::default()
            .with_lambda_rel(0.01)
            .unwrap()
            .recover(&a, &y)
            .unwrap();
        let m = AdmmLasso::default()
            .with_lambda_rel(0.01)
            .unwrap()
            .recover(&a, &y)
            .unwrap();
        let d = vector::distance(&f.solution, &m.solution);
        assert!(d < 1e-2, "solver disagreement {d}");
    }

    #[test]
    fn basis_pursuit_exact_recovery() {
        let (m, n) = (20, 50);
        let a = bernoulli_matrix(m, n, 11);
        let mut theta = vec![0.0; n];
        theta[4] = 1.5;
        theta[27] = -2.0;
        let y = a.matvec(&theta);
        let rec = BasisPursuit::default().recover(&a, &y).unwrap();
        // Exact recovery in the noiseless regime.
        let d = vector::distance(&rec.solution, &theta);
        assert!(d < 1e-4, "recovery error {d}");
        // Feasibility: A θ̂ = y.
        assert!(rec.residual_norm < 1e-8);
    }

    #[test]
    fn basis_pursuit_nonneg_variant() {
        let a = Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[0.0, 1.0, 1.0]]);
        let rec = BasisPursuit::default()
            .with_nonnegative(true)
            .recover(&a, &[1.0, 1.0])
            .unwrap();
        assert_eq!(rec.support(0.5), vec![2]);
        assert!(rec.solution.iter().all(|&x| x >= -1e-9));
    }

    /// The batched entry point shares one factorization (Cholesky for
    /// the LASSO, the SVD pseudo-inverse for basis pursuit) across the
    /// batch; every column must stay bit-identical to a cold standalone
    /// solve.
    #[test]
    fn multi_rhs_matches_solo_bitwise() {
        let (m, n) = (20, 44);
        let a = bernoulli_matrix(m, n, 27);
        let ys: Vec<Vec<f64>> = (0..3)
            .map(|s: usize| {
                let mut theta = vec![0.0; n];
                theta[(3 + 13 * s) % n] = 1.0;
                theta[(29 * (s + 1)) % n] = if s == 1 { -1.5 } else { 0.7 };
                a.matvec(&theta)
            })
            .collect();
        let solvers: Vec<Box<dyn SparseRecovery>> = vec![
            Box::new(AdmmLasso::default()),
            Box::new(AdmmLasso::default().with_gap_tolerance(1e-9).unwrap()),
            Box::new(AdmmLasso::default().with_nonnegative(false)),
            Box::new(BasisPursuit::default()),
        ];
        for solver in &solvers {
            let mut ws = SolverWorkspace::new();
            let multi = solver.recover_multi(&a, &ys, &mut ws).unwrap();
            assert_eq!(multi.len(), ys.len());
            for (y, rec) in ys.iter().zip(&multi) {
                let solo = solver.recover(&a, y).unwrap();
                assert_eq!(rec.solution, solo.solution, "{} drifted", solver.name());
                assert_eq!(rec.iterations, solo.iterations, "{}", solver.name());
                assert_eq!(
                    rec.residual_norm.to_bits(),
                    solo.residual_norm.to_bits(),
                    "{} residual drifted",
                    solver.name()
                );
                assert_eq!(rec.converged, solo.converged, "{}", solver.name());
            }
        }
    }

    #[test]
    fn admm_rejects_bad_parameters() {
        assert!(AdmmLasso::default().with_rho(0.0).is_err());
        assert!(AdmmLasso::default().with_lambda_rel(2.0).is_err());
    }

    #[test]
    fn rejects_empty_problem() {
        assert!(matches!(
            BasisPursuit::default().recover(&Matrix::zeros(0, 0), &[]),
            Err(SolverError::EmptyProblem)
        ));
    }
}
