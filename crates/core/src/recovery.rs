//! CS problem construction and Proposition-1 orthogonalized recovery
//! (§4.2.2).
//!
//! For one hypothesized AP with readings at positions `p₁…p_M` and
//! values `r₁…r_M`, the sensing model is `y = Φ_k Ψ θ + ε` where row `i`
//! of `A = Φ_k Ψ` is the model RSS from every grid point evaluated at
//! `pᵢ`, and `θ` is the 1-sparse grid indicator of the AP.
//!
//! Two engineering details (documented in DESIGN.md):
//!
//! * **dBm shift.** `Ψ` entries are dBm values (negative); both `A` and
//!   `y` are shifted by the detection floor so the problem is
//!   non-negative and "large coefficient = strong signal". For an
//!   exactly-1-sparse `θ` the shift is exact, not an approximation.
//! * **Column pruning.** An AP that was heard at position `pᵢ` must lie
//!   within radio range of `pᵢ`; grid columns outside the intersection
//!   of the readings' range disks cannot carry mass and are dropped
//!   before the solve, which both sharpens and accelerates recovery.
//!
//! The orthogonalization follows Proposition 1 exactly: with
//! `Q = orth(Aᵀ)ᵀ` and `T = Q A†`, the transformed system
//! `y' = T y = Q θ + ε'` has orthonormal rows, restoring the incoherence
//! ℓ1 recovery needs. Orthonormal holds in exact arithmetic only: near
//! the rank cutoff the computed `Q` drifts from it, so the proximal
//! solver's step comes from the exact `‖Q‖₂²`, not from a unit
//! constant.

use crate::{CoreError, Result};
use crowdwifi_channel::{PathLossModel, RssReading};
use crowdwifi_geo::{Grid, Point};
use crowdwifi_linalg::qr::orth;
use crowdwifi_linalg::svd::pseudo_inverse;
use crowdwifi_linalg::{Matrix, Svd, SymmetricEigen};
use crowdwifi_sparsesolve::{AnySolver, Fista, SolverWorkspace, SparseRecovery};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cumulative memo and solver statistics of one [`WindowSensing`]
/// workspace, read with [`WindowSensing::stats`].
///
/// Counts accumulate through relaxed atomics, so totals are exact under
/// concurrent hypothesis evaluation — but *which* lookups hit the memo
/// depends on thread scheduling (two threads can race to first-solve
/// the same group), so `hits`/`solves` are only run-reproducible with
/// one worker thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SensingStats {
    /// Group-recovery requests served (memo hits + solves).
    pub lookups: u64,
    /// Requests answered from the memo.
    pub hits: u64,
    /// Requests that ran the ℓ1 solver.
    pub solves: u64,
    /// Total solver iterations across all solves.
    pub solver_iterations: u64,
    /// Solves that hit the iteration cap without converging.
    pub unconverged: u64,
    /// Solves that ran away (see `Recovery::diverged` in
    /// `crowdwifi_sparsesolve`): a non-finite iterate, or an objective
    /// above the zero solution's `½‖y′‖²`.
    pub diverged: u64,
    /// Columns eliminated by gap-safe screening across all solves.
    pub screened_cols: u64,
    /// Iteration-budget headroom left by early-converged solves.
    pub iterations_saved: u64,
}

impl SensingStats {
    /// Adds another window's totals into `self` (used by the pipeline to
    /// aggregate per-drive statistics into the report).
    pub fn merge(&mut self, other: &SensingStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.solves += other.solves;
        self.solver_iterations += other.solver_iterations;
        self.unconverged += other.unconverged;
        self.diverged += other.diverged;
        self.screened_cols += other.screened_cols;
        self.iterations_saved += other.iterations_saved;
    }
}

/// Solver-acceleration switches threaded from [`crate::OnlineCsConfig`]
/// down to the per-group ℓ1 solves (see DESIGN.md, "Solver
/// acceleration").
///
/// All features preserve the recovered support: gap-safe screening only
/// discards columns that are provably zero in every optimum, the
/// duality-gap stop bounds suboptimality explicitly, and the Gram/fixed-
/// Lipschitz paths are exact algebraic rewrites. Every solve starts
/// from zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverAccel {
    /// Re-check gap-safe screening as the duality gap tightens.
    pub screening: bool,
    /// Relative duality-gap stopping tolerance (`0` disables the gap
    /// stop and keeps the solver's own stopping rule).
    pub gap_rel: f64,
    /// Precompute Gram products (`ΦᵀΦ`, `Φᵀy`) and use the fused
    /// Gram-residual gradient update.
    pub gram: bool,
}

impl SolverAccel {
    /// Every acceleration feature on — the pipeline default.
    ///
    /// `gap_rel = 1e-3` certifies each solve to 0.1 % relative
    /// suboptimality, far inside what the matched-filter debias
    /// tolerates (the recovered support is unchanged; see the
    /// pipeline-level equivalence tests and `tests/solver_accel.rs`).
    pub fn enabled() -> Self {
        SolverAccel {
            screening: true,
            gap_rel: 1e-3,
            gram: true,
        }
    }

    /// Every acceleration feature off (the pre-acceleration hot path,
    /// kept as the benchmark baseline and the conservative fallback).
    pub fn disabled() -> Self {
        SolverAccel {
            screening: false,
            gap_rel: 0.0,
            gram: false,
        }
    }

    /// Whether any feature is on.
    pub fn is_active(&self) -> bool {
        self.screening || self.gap_rel > 0.0 || self.gram
    }
}

impl Default for SolverAccel {
    fn default() -> Self {
        Self::enabled()
    }
}

/// Memoized candidate-mode extractions, keyed by reading-index set and
/// the relative-threshold bits.
type ModesMemo = HashMap<(Vec<usize>, u64), Vec<crate::centroid::CentroidEstimate>>;

/// Precomputed per-window sensing state shared by every hypothesis.
///
/// One sliding-window round scores dozens of (k, assignment) hypotheses,
/// and each hypothesis re-derives the same physics: the path-loss
/// signature of every grid point within radio range of every reading.
/// [`CsRecovery::prepare_window`] computes it once;
/// [`CsRecovery::recover_group`] then assembles a group's pruned
/// sensing matrix by *indexing* instead of re-evaluating the model, and
/// memoizes whole group recoveries by their reading-index set (the same
/// grouping recurs across hypothesized k values and EM refinement
/// passes).
///
/// The memo is behind a [`Mutex`] so concurrent hypothesis evaluation
/// can share it; recovery is a pure function of the index set, so the
/// cache stays deterministic regardless of which thread fills an entry
/// first.
#[derive(Debug)]
pub struct WindowSensing {
    /// `m × n` floor-shifted model RSS (the full, unpruned `A`) where
    /// grid point `j` lies within radio range of reading `i`, NaN where
    /// it does not. A group keeps column `j` only when every one of its
    /// readings is in range of it, so the model is never evaluated for
    /// an entry no solve reads.
    sig: Matrix,
    /// Floor-shifted observed RSS per reading.
    shifted_rss: Vec<f64>,
    /// Completed group recoveries (the debiased grid indicators handed
    /// to hypothesis scoring) keyed by sorted reading-index set.
    memo: Mutex<HashMap<Vec<usize>, Arc<Vec<f64>>>>,
    /// Memoized candidate-mode extractions keyed by reading-index set
    /// and threshold bits (modes are fully determined by both, since
    /// the recovered indicator itself is memoized by index set).
    modes_memo: Mutex<ModesMemo>,
    /// Group-recovery requests served.
    lookups: AtomicU64,
    /// Requests answered from the memo.
    hits: AtomicU64,
    /// Requests that ran the solver.
    solves: AtomicU64,
    /// Total solver iterations across all solves.
    solver_iterations: AtomicU64,
    /// Solves that hit the iteration cap.
    unconverged: AtomicU64,
    /// Solves that ran away.
    diverged: AtomicU64,
    /// Columns eliminated by gap-safe screening.
    screened_cols: AtomicU64,
    /// Iteration-budget headroom left by early stops.
    iterations_saved: AtomicU64,
}

impl WindowSensing {
    /// Number of readings this workspace was prepared for.
    pub fn readings(&self) -> usize {
        self.sig.rows()
    }

    /// Number of grid points this workspace was prepared for.
    pub fn grid_len(&self) -> usize {
        self.sig.cols()
    }

    /// Number of distinct group recoveries cached so far.
    pub fn cached_groups(&self) -> usize {
        self.memo
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Returns the memoized candidate modes for a group, running
    /// `compute` and caching its result on first request. The lock is
    /// dropped while `compute` runs, so two hypotheses racing on the
    /// same group may both compute — they produce identical results
    /// (mode extraction is deterministic in the memoized indicator),
    /// and last-write-wins is harmless.
    pub fn modes_or_compute(
        &self,
        idx: &[usize],
        rel_threshold: f64,
        compute: impl FnOnce() -> Vec<crate::centroid::CentroidEstimate>,
    ) -> Vec<crate::centroid::CentroidEstimate> {
        let key = (idx.to_vec(), rel_threshold.to_bits());
        if let Some(modes) = self
            .modes_memo
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&key)
        {
            return modes.clone();
        }
        let modes = compute();
        self.modes_memo
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(key, modes.clone());
        modes
    }

    /// Cumulative memo and solver statistics (see [`SensingStats`]).
    pub fn stats(&self) -> SensingStats {
        SensingStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            solves: self.solves.load(Ordering::Relaxed),
            solver_iterations: self.solver_iterations.load(Ordering::Relaxed),
            unconverged: self.unconverged.load(Ordering::Relaxed),
            diverged: self.diverged.load(Ordering::Relaxed),
            screened_cols: self.screened_cols.load(Ordering::Relaxed),
            iterations_saved: self.iterations_saved.load(Ordering::Relaxed),
        }
    }
}

/// Orthogonalized ℓ1 recovery of one AP's grid indicator.
#[derive(Debug, Clone)]
pub struct CsRecovery {
    pathloss: PathLossModel,
    floor_dbm: f64,
    radio_range: f64,
    solver: AnySolver,
    orthogonalize: bool,
    fused_factorization: bool,
    accel: SolverAccel,
}

impl CsRecovery {
    /// Creates a recovery engine.
    ///
    /// `radio_range` bounds how far an AP can be from a position that
    /// heard it (used for column pruning); `floor_dbm` is the detection
    /// floor used as the dBm shift origin.
    pub fn new(pathloss: PathLossModel, radio_range: f64, floor_dbm: f64) -> Self {
        CsRecovery {
            pathloss,
            floor_dbm,
            radio_range,
            solver: AnySolver::from(
                Fista::default()
                    .with_max_iterations(400)
                    .with_tolerance(1e-7)
                    .expect("default tolerance is valid"),
            ),
            orthogonalize: true,
            fused_factorization: true,
            accel: SolverAccel::disabled(),
        }
    }

    /// Selects how the Proposition-1 operator is built (default: fused).
    ///
    /// The fused path runs **one** SVD of the normalized sensing matrix
    /// and reads both pieces off it — `Q = V_rᵀ` (an orthonormal row
    /// basis of the row space) and `y' = Q A† y = Σ_r⁻¹ U_rᵀ y` — where
    /// the unfused path pays a Gram–Schmidt orthogonalization *plus* a
    /// separate SVD for `A†` *plus* an `r × pruned-N × m` matmul for
    /// `T = Q A†`. Both produce an orthonormal row basis of the same
    /// row space, so the ℓ1 program (and its recovered support) is the
    /// same; only the basis rotation — and hence the exact float path —
    /// differs. The unfused path is kept for the kernel-acceleration
    /// bench baseline and the support-equivalence tests.
    pub fn with_fused_factorization(mut self, fused: bool) -> Self {
        self.fused_factorization = fused;
        self
    }

    /// Whether the fused one-SVD factorization is active.
    pub fn fused_factorization(&self) -> bool {
        self.fused_factorization
    }

    /// Sets the solver-acceleration configuration (default: all off —
    /// the pipeline opts in via [`crate::OnlineCsConfig::accel`]).
    pub fn with_accel(mut self, accel: SolverAccel) -> Self {
        self.accel = accel;
        self
    }

    /// The active acceleration configuration.
    pub fn accel(&self) -> SolverAccel {
        self.accel
    }

    /// Replaces the ℓ1 solver (default: FISTA). Accepts anything that
    /// converts into [`AnySolver`], e.g. a configured [`Fista`] or an
    /// `Omp` for the greedy ablation.
    pub fn with_solver(mut self, solver: impl Into<AnySolver>) -> Self {
        self.solver = solver.into();
        self
    }

    /// The configured solver's name (for logs and ablation tables).
    pub fn solver_name(&self) -> &'static str {
        self.solver.name()
    }

    /// Disables the Proposition-1 orthogonalization (ablation switch for
    /// the benches; recovery quality degrades as the paper predicts).
    pub fn without_orthogonalization(mut self) -> Self {
        self.orthogonalize = false;
        self
    }

    /// Whether orthogonalization is enabled.
    pub fn orthogonalize(&self) -> bool {
        self.orthogonalize
    }

    /// The radio range used for column pruning.
    pub fn radio_range(&self) -> f64 {
        self.radio_range
    }

    /// Model RSS (shifted) from grid point `j` heard at `position`.
    fn shifted_model_rss(&self, position: Point, grid_point: Point) -> f64 {
        (self.pathloss.mean_rss(position.distance(grid_point)) - self.floor_dbm).max(0.0)
    }

    /// Recovers the grid indicator `θ` (length `grid.len()`) of a single
    /// hypothesized AP from the readings assigned to it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `positions` and `rss`
    /// have different lengths or are empty, and solver/linalg failures
    /// otherwise.
    pub fn recover_single_ap(
        &self,
        grid: &Grid,
        positions: &[Point],
        rss_dbm: &[f64],
    ) -> Result<Vec<f64>> {
        if positions.is_empty() || positions.len() != rss_dbm.len() {
            return Err(CoreError::InvalidConfig {
                field: "readings",
                reason: format!(
                    "need equal, non-zero counts of positions ({}) and rss ({})",
                    positions.len(),
                    rss_dbm.len()
                ),
            });
        }
        let n = grid.len();

        // Column pruning: the AP must be within radio range of every
        // position that heard it.
        let candidates: Vec<usize> = (0..n)
            .filter(|&j| {
                let gp = grid.point(j);
                positions.iter().all(|p| p.distance(gp) <= self.radio_range)
            })
            .collect();
        if candidates.is_empty() {
            // Inconsistent hypothesis (no grid point can explain all
            // readings): return the zero vector, the caller's BIC will
            // discard it.
            return Ok(vec![0.0; n]);
        }

        // A over the pruned columns; y shifted to the same origin.
        let m = positions.len();
        let a_raw = Matrix::from_fn(m, candidates.len(), |i, jc| {
            self.shifted_model_rss(positions[i], grid.point(candidates[jc]))
        });
        let y: Vec<f64> = rss_dbm
            .iter()
            .map(|&r| (r - self.floor_dbm).max(0.0))
            .collect();
        Ok(self.solve_pruned(&a_raw, &y, &candidates, n)?.theta)
    }

    /// Precomputes the window-wide signature matrix (and the shifted
    /// observation vector) shared by every hypothesis of one round. See
    /// [`WindowSensing`].
    pub fn prepare_window(&self, grid: &Grid, readings: &[RssReading]) -> WindowSensing {
        // The model only in radio range — the only entries column
        // pruning keeps — and from the same distance the direct path
        // computes, so a workspace recovery is bit-identical to it. The
        // cell centres are computed once, not per (reading, cell) pair.
        let centres: Vec<Point> = (0..grid.len()).map(|j| grid.point(j)).collect();
        let sig = Matrix::from_fn(readings.len(), grid.len(), |i, j| {
            let d = readings[i].position.distance(centres[j]);
            if d <= self.radio_range {
                (self.pathloss.mean_rss(d) - self.floor_dbm).max(0.0)
            } else {
                f64::NAN
            }
        });
        let shifted_rss = readings
            .iter()
            .map(|r| (r.rss_dbm - self.floor_dbm).max(0.0))
            .collect();
        WindowSensing {
            sig,
            shifted_rss,
            memo: Mutex::new(HashMap::new()),
            modes_memo: Mutex::new(HashMap::new()),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            solves: AtomicU64::new(0),
            solver_iterations: AtomicU64::new(0),
            unconverged: AtomicU64::new(0),
            diverged: AtomicU64::new(0),
            screened_cols: AtomicU64::new(0),
            iterations_saved: AtomicU64::new(0),
        }
    }

    /// Recovers the grid indicator of one hypothesized AP from the
    /// readings at `idx` (indices into the window `sensing` was prepared
    /// for), reusing the precomputed signature matrix and memoizing the
    /// result by index set.
    ///
    /// Produces exactly the same `θ` as [`CsRecovery::recover_single_ap`]
    /// called on the corresponding position/RSS subsets.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an empty or out-of-range
    /// index set, and solver/linalg failures otherwise.
    pub fn recover_group(&self, sensing: &WindowSensing, idx: &[usize]) -> Result<Arc<Vec<f64>>> {
        let m_all = sensing.readings();
        if idx.is_empty() || idx.iter().any(|&i| i >= m_all) {
            return Err(CoreError::InvalidConfig {
                field: "idx",
                reason: format!("need non-empty indices within 0..{m_all}, got {idx:?}"),
            });
        }
        sensing.lookups.fetch_add(1, Ordering::Relaxed);
        if let Some(hit) = sensing
            .memo
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(idx)
        {
            sensing.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit.clone());
        }

        let n = sensing.grid_len();
        let candidates: Vec<usize> = (0..n)
            .filter(|&j| idx.iter().all(|&i| !sensing.sig.get(i, j).is_nan()))
            .collect();
        let (theta, solve_stats) = if candidates.is_empty() {
            (vec![0.0; n], None)
        } else {
            let a_raw = Matrix::from_fn(idx.len(), candidates.len(), |r, jc| {
                sensing.sig.get(idx[r], candidates[jc])
            });
            let y: Vec<f64> = idx.iter().map(|&i| sensing.shifted_rss[i]).collect();
            let solve = self.solve_pruned(&a_raw, &y, &candidates, n)?;
            (solve.theta, Some(solve.stats))
        };
        let theta = Arc::new(theta);
        // Two workers can race past the memo check and solve the same
        // group; the solves are identical (recovery is a pure function
        // of the index set), so only the insertion winner records its
        // stats — that keeps the drive-level iteration totals
        // schedule-independent. The loser
        // counts as a hit: its caller is served from the memo.
        let mut memo = sensing
            .memo
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match memo.entry(idx.to_vec()) {
            std::collections::hash_map::Entry::Occupied(hit) => {
                sensing.hits.fetch_add(1, Ordering::Relaxed);
                Ok(hit.get().clone())
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                if let Some(s) = solve_stats {
                    sensing.solves.fetch_add(1, Ordering::Relaxed);
                    sensing
                        .solver_iterations
                        .fetch_add(s.iterations as u64, Ordering::Relaxed);
                    if !s.converged {
                        sensing.unconverged.fetch_add(1, Ordering::Relaxed);
                    }
                    if s.diverged {
                        sensing.diverged.fetch_add(1, Ordering::Relaxed);
                    }
                    sensing
                        .screened_cols
                        .fetch_add(s.screened_cols as u64, Ordering::Relaxed);
                    sensing
                        .iterations_saved
                        .fetch_add(s.iterations_saved as u64, Ordering::Relaxed);
                }
                slot.insert(theta.clone());
                Ok(theta)
            }
        }
    }

    /// Recovers a whole window's worth of hypothesis groups — the
    /// batched counterpart of [`CsRecovery::recover_group`], returning
    /// one indicator per input group, aligned with `groups`.
    ///
    /// A hypothesis fan-out repeats the same reading-index set across
    /// k values and EM passes, so the batch is deduplicated first:
    /// each distinct set is solved (or served from the window memo)
    /// exactly once and its `Arc` is cloned into every duplicate slot.
    /// Results are identical to calling `recover_group` per slot — the
    /// memo already guarantees one solve per distinct set — but the
    /// dedup keeps a parallel fan-out from racing duplicate solves of
    /// the same group within one batch.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`CsRecovery::recover_group`], applied
    /// to every group.
    pub fn recover_groups(
        &self,
        sensing: &WindowSensing,
        groups: &[Vec<usize>],
    ) -> Result<Vec<Arc<Vec<f64>>>> {
        let mut solved: HashMap<&[usize], Arc<Vec<f64>>> = HashMap::with_capacity(groups.len());
        let mut out = Vec::with_capacity(groups.len());
        for idx in groups {
            let theta = match solved.get(idx.as_slice()) {
                Some(hit) => hit.clone(),
                None => {
                    let theta = self.recover_group(sensing, idx)?;
                    solved.insert(idx.as_slice(), theta.clone());
                    theta
                }
            };
            out.push(theta);
        }
        Ok(out)
    }

    /// Applies the active [`SolverAccel`] switches to the configured
    /// solver, returning `None` when the stock solver should run
    /// unchanged (acceleration off, or a solver family with no
    /// accelerated path). `prop1` is the Proposition-1 operator `Q` when
    /// that branch is solving: its proximal Lipschitz constant
    /// `‖Q‖₂² = λ_max(QQᵀ)` is computed exactly from the small `r × r`
    /// Gram (see [`prop1_lipschitz`]) and pinned, which skips the power
    /// iteration every solve would otherwise spend estimating it. It is
    /// *not* 1 in general: the fused `V = AᵀU/σ` loses orthonormality
    /// near the rank cutoff, and a step sized for `L = 1` then diverges.
    fn accel_solver(&self, prop1: Option<&Matrix>) -> Option<AnySolver> {
        if !self.accel.is_active() {
            return None;
        }
        match &self.solver {
            AnySolver::Fista(f) => {
                let mut f = f
                    .clone()
                    .with_screening(self.accel.screening)
                    .with_gram(self.accel.gram);
                if self.accel.gap_rel > 0.0 {
                    f = f.with_gap_tolerance(self.accel.gap_rel).ok()?;
                }
                // No exact value (degenerate Gram): leave `L` unpinned so
                // the solver falls back to its own padded estimate.
                if let Some(l) = prop1.and_then(prop1_lipschitz) {
                    f = f.with_fixed_lipschitz(l).ok()?;
                }
                Some(AnySolver::Fista(f))
            }
            AnySolver::AdmmLasso(s) if self.accel.gap_rel > 0.0 => s
                .clone()
                .with_gap_tolerance(self.accel.gap_rel)
                .ok()
                .map(AnySolver::AdmmLasso),
            // OMP / IRLS / basis pursuit have no screened or gap-stopped
            // path.
            _ => None,
        }
    }

    /// Normalizes, (optionally) orthogonalizes, solves and debiases the
    /// pruned system; scatters back to the full `n`-length grid. Shared
    /// by the direct and workspace recovery paths.
    fn solve_pruned(
        &self,
        a_raw: &Matrix,
        y: &[f64],
        candidates: &[usize],
        n: usize,
    ) -> Result<GroupSolve> {
        let m = a_raw.rows();
        // Column normalization: RSS signatures of near columns have much
        // larger norms than far ones, which biases ℓ1 toward
        // trajectory-adjacent grid points. Normalizing restores the
        // unit-column convention CS theory assumes; the solution is
        // un-scaled afterwards so θ keeps its indicator interpretation.
        // The sums of squares are reused as the debias `‖a_j‖²` below.
        let sumsqs = a_raw.col_sumsqs();
        let norms: Vec<f64> = sumsqs.iter().map(|s| s.sqrt().max(1e-12)).collect();
        let a = Matrix::from_fn(m, candidates.len(), |i, j| a_raw.get(i, j) / norms[j]);

        // One workspace per solve keeps the solver's per-iteration
        // vectors (x/z/gradients) in reused buffers instead of fresh
        // heap allocations every FISTA step.
        let mut ws = SolverWorkspace::new();
        let recovery = if self.orthogonalize {
            let (q, y_prime) = if self.fused_factorization {
                // Fused Proposition 1: one SVD A = U Σ Vᵀ yields both
                // the orthonormal row basis Q = V_rᵀ and the
                // transformed observation y' = Q A† y = Σ_r⁻¹ U_rᵀ y
                // (V_rᵀ V Σ⁺ collapses to Σ_r⁻¹ on the kept columns).
                // No Gram–Schmidt pass, no second SVD for A†, no
                // r × pruned-N × m matmul for T.
                let svd = Svd::new(&a).map_err(|e| CoreError::Solver(e.to_string()))?;
                let sigma = svd.singular_values();
                // Rank cutoff at √ε·σ_max, NOT the pseudo-inverse's
                // 1e-10·σ_max: the SVD comes from the Gram
                // eigendecomposition, whose eigenvalues carry ~ε·λ_max
                // absolute error, so singular values below √ε·σ_max are
                // numerical noise. Dividing y' by a noise σ inflates
                // ‖Qᵀy'‖∞ — and with it the relative ℓ1 weight λ —
                // enough to shrink away genuinely weak APs.
                let tol = f64::EPSILON.sqrt() * sigma.first().copied().unwrap_or(0.0);
                let kept: Vec<usize> = (0..sigma.len()).filter(|&i| sigma[i] > tol).collect();
                let v = svd.v();
                let q = Matrix::from_fn(kept.len(), v.rows(), |r, c| v.get(c, kept[r]));
                let y_prime: Vec<f64> = kept
                    .iter()
                    .map(|&i| svd.u().col_dot(i, y) / sigma[i])
                    .collect();
                (q, y_prime)
            } else {
                // Unfused Proposition 1: Q = orth(Aᵀ)ᵀ, T = Q A†,
                // y' = T y — the historical route, kept as the bench
                // baseline for the fused factorization.
                let q_cols = orth(&a.transpose()); // pruned-N × r
                let q = q_cols.transpose(); // r × pruned-N
                let pinv = pseudo_inverse(&a).map_err(|e| CoreError::Solver(e.to_string()))?;
                let t = q.matmul(&pinv); // r × m
                let y_prime = t.matvec(y);
                (q, y_prime)
            };
            match self.accel_solver(Some(&q)) {
                Some(s) => s.recover_with(&q, &y_prime, &mut ws)?,
                None => self.solver.recover_with(&q, &y_prime, &mut ws)?,
            }
        } else {
            match self.accel_solver(None) {
                Some(s) => s.recover_with(&a, y, &mut ws)?,
                None => self.solver.recover_with(&a, y, &mut ws)?,
            }
        };

        // Un-scale the pruned solution.
        let mut pruned: Vec<f64> = recovery
            .solution
            .iter()
            .zip(&norms)
            .map(|(s, nm)| s / nm)
            .collect();

        // Debias by matched-filter rescoring over *all* candidate
        // columns. ℓ1 shrinkage both spreads mass over near-collinear
        // columns and — on nearly flat signatures from short colinear
        // stretches — can drop the true column from its support
        // entirely, so restricting the rescoring to the ℓ1 support is
        // not safe. Since each per-AP indicator is exactly 1-sparse,
        // every candidate column can be scored by how well it *alone*
        // explains `y` (`c_j = ⟨a_j, y⟩ / ‖a_j‖²`, relative residual
        // `ρ_j`); the ℓ1 coefficients survive as a multiplicative soft
        // prior on the final weights. One caveat the rescoring cannot
        // fix: readings taken on a single straight line leave a mirror
        // ambiguity (columns reflected across the trajectory have
        // *identical* signatures) — the recovered θ is then bimodal and
        // the hypothesis-selection stage disambiguates using the rest
        // of the window (see `select`).
        let max_coef = pruned.iter().cloned().fold(0.0_f64, f64::max);
        {
            let ynorm = crowdwifi_linalg::vector::norm2(y).max(1e-12);
            // `⟨a_j, y⟩` and `‖y − c_j a_j‖²` as row sweeps with one
            // accumulator per column: each column is still summed top to
            // bottom from −0.0, so every float equals the per-column
            // `col_dot` / residual `norm2` chain.
            let rows = || a_raw.as_slice().chunks_exact(a_raw.cols().max(1)).zip(y);
            let mut dots = vec![-0.0; pruned.len()];
            for (row, &yi) in rows() {
                for (d, &a) in dots.iter_mut().zip(row) {
                    *d += a * yi;
                }
            }
            let coefs: Vec<f64> = sumsqs
                .iter()
                .zip(&dots)
                .map(|(&cc, &d)| if cc > 0.0 { (d / cc).max(0.0) } else { 0.0 })
                .collect();
            let mut res_sq = vec![-0.0; pruned.len()];
            for (row, &yi) in rows() {
                for ((r, &a), &c) in res_sq.iter_mut().zip(row).zip(&coefs) {
                    let e = yi - c * a;
                    *r += e * e;
                }
            }
            let scored: Vec<(usize, f64, f64)> = (0..pruned.len())
                .filter(|&j| sumsqs[j] > 0.0 || sumsqs[j].is_nan())
                .map(|j| (j, coefs[j], res_sq[j].sqrt() / ynorm))
                .collect();
            if !scored.is_empty() {
                let res_min = scored.iter().map(|s| s.2).fold(f64::INFINITY, f64::min);
                let scale = res_min.max(0.01);
                let l1_rel: Vec<f64> = pruned
                    .iter()
                    .map(|&p| if max_coef > 0.0 { p / max_coef } else { 0.0 })
                    .collect();
                for p in pruned.iter_mut() {
                    *p = 0.0;
                }
                for &(j, cj, relres) in &scored {
                    let w =
                        (-((relres * relres - res_min * res_min) / (2.0 * scale * scale))).exp();
                    pruned[j] = cj * w * (0.5 + 0.5 * l1_rel[j]);
                }
            }
        }

        // Scatter back to the full grid.
        let mut theta = vec![0.0; n];
        for (jc, &j) in candidates.iter().enumerate() {
            theta[j] = pruned[jc];
        }
        Ok(GroupSolve {
            theta,
            stats: SolveStats {
                iterations: recovery.iterations,
                converged: recovery.converged,
                diverged: recovery.diverged,
                screened_cols: recovery.screened_cols,
                iterations_saved: recovery.iterations_saved,
            },
        })
    }
}

/// The exact proximal Lipschitz constant `‖Q‖₂² = λ_max(QQᵀ)` of a
/// Proposition-1 operator, from its `r × r` row Gram (`r` ≤ readings in
/// the group, so the product and the eigensolve are tiny next to a
/// solve). `None` when the Gram is empty or non-finite, or its top
/// eigenvalue is not a positive finite number.
fn prop1_lipschitz(q: &Matrix) -> Option<f64> {
    let r = q.rows();
    // Lower triangle only, mirrored: `dot` is symmetric bit for bit.
    let mut gram = Matrix::zeros(r, r);
    for i in 0..r {
        for j in 0..=i {
            let g = crowdwifi_linalg::vector::dot(q.row(i), q.row(j));
            gram.set(i, j, g);
            gram.set(j, i, g);
        }
    }
    if !gram.as_slice().iter().all(|v| v.is_finite()) {
        return None;
    }
    let l = *SymmetricEigen::new(&gram).ok()?.eigenvalues().first()?;
    (l > 0.0 && l.is_finite()).then_some(l)
}

/// Result of one pruned group solve: the scattered indicator plus the
/// solver's convergence and acceleration diagnostics (fed into
/// [`SensingStats`]).
struct GroupSolve {
    theta: Vec<f64>,
    stats: SolveStats,
}

/// One solve's diagnostics, as the solver reported them.
struct SolveStats {
    iterations: usize,
    converged: bool,
    diverged: bool,
    screened_cols: usize,
    iterations_saved: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdwifi_geo::Rect;

    fn grid_100() -> Grid {
        let area = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)).unwrap();
        Grid::new(area, 10.0).unwrap()
    }

    fn engine() -> CsRecovery {
        CsRecovery::new(PathLossModel::uci_campus(), 100.0, -95.0)
    }

    /// Fading-free readings from an AP at `ap` heard at `positions`.
    fn clean_rss(ap: Point, positions: &[Point]) -> Vec<f64> {
        let model = PathLossModel::uci_campus();
        positions
            .iter()
            .map(|p| model.mean_rss(p.distance(ap)))
            .collect()
    }

    /// An L-shaped drive: east along y = 0, then north along x = 75.
    /// A turning route is essential — readings on one straight line
    /// leave a mirror ambiguity about which side of the road the AP is
    /// on (see the module docs).
    fn l_route() -> Vec<Point> {
        let mut route: Vec<Point> = (0..6).map(|i| Point::new(15.0 * i as f64, 0.0)).collect();
        route.extend((1..5).map(|i| Point::new(75.0, 15.0 * i as f64)));
        route
    }

    #[test]
    fn recovers_ap_on_grid_point() {
        let grid = grid_100();
        let ap_idx = grid.nearest_index(Point::new(45.0, 45.0));
        let ap = grid.point(ap_idx);
        let positions = l_route();
        let rss = clean_rss(ap, &positions);
        let theta = engine().recover_single_ap(&grid, &positions, &rss).unwrap();
        // Dominant coefficient on the true grid point.
        let best = (0..theta.len())
            .max_by(|&a, &b| theta[a].partial_cmp(&theta[b]).unwrap())
            .unwrap();
        assert_eq!(best, ap_idx, "peak at {} expected {}", best, ap_idx);
    }

    #[test]
    fn off_grid_ap_recovers_to_neighborhood() {
        let grid = grid_100();
        let ap = Point::new(43.0, 47.0); // intentionally off-lattice
        let positions = l_route();
        let rss = clean_rss(ap, &positions);
        let theta = engine().recover_single_ap(&grid, &positions, &rss).unwrap();
        let best = (0..theta.len())
            .max_by(|&a, &b| theta[a].partial_cmp(&theta[b]).unwrap())
            .unwrap();
        assert!(
            grid.point(best).distance(ap) <= grid.cell_diagonal(),
            "peak {} is {:.1} m away",
            best,
            grid.point(best).distance(ap)
        );
    }

    #[test]
    fn pruning_returns_zero_for_inconsistent_hypothesis() {
        let grid = grid_100();
        // Two readings 300 m apart with a 100 m radio range: no grid
        // point is in range of both.
        let engine = CsRecovery::new(PathLossModel::uci_campus(), 100.0, -95.0);
        let positions = [Point::new(-150.0, 50.0), Point::new(250.0, 50.0)];
        let theta = engine
            .recover_single_ap(&grid, &positions, &[-60.0, -60.0])
            .unwrap();
        assert!(theta.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn orthogonalization_ablation_still_runs() {
        let grid = grid_100();
        let ap = grid.point(grid.nearest_index(Point::new(55.0, 55.0)));
        let positions: Vec<Point> = (0..6)
            .map(|i| Point::new(20.0 + 12.0 * i as f64, 40.0))
            .collect();
        let rss = clean_rss(ap, &positions);
        let plain = engine()
            .without_orthogonalization()
            .recover_single_ap(&grid, &positions, &rss)
            .unwrap();
        assert!(plain.iter().any(|&x| x > 0.0));
    }

    #[test]
    fn rejects_mismatched_inputs() {
        let grid = grid_100();
        assert!(matches!(
            engine().recover_single_ap(&grid, &[Point::new(0.0, 0.0)], &[]),
            Err(CoreError::InvalidConfig { .. })
        ));
        assert!(matches!(
            engine().recover_single_ap(&grid, &[], &[]),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn workspace_recovery_matches_direct_path() {
        let grid = grid_100();
        let ap = grid.point(grid.nearest_index(Point::new(45.0, 45.0)));
        let route = l_route();
        let readings: Vec<crowdwifi_channel::RssReading> = route
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                crowdwifi_channel::RssReading::new(
                    p,
                    PathLossModel::uci_campus().mean_rss(p.distance(ap)),
                    i as f64,
                )
            })
            .collect();
        let engine = engine();
        let sensing = engine.prepare_window(&grid, &readings);
        // Whole window, a prefix group and a strided group: each must be
        // bit-identical to the direct per-subset recovery.
        let groups: [Vec<usize>; 3] = [
            (0..readings.len()).collect(),
            (0..4).collect(),
            (0..readings.len()).step_by(2).collect(),
        ];
        for idx in &groups {
            let positions: Vec<Point> = idx.iter().map(|&i| readings[i].position).collect();
            let rss: Vec<f64> = idx.iter().map(|&i| readings[i].rss_dbm).collect();
            let direct = engine.recover_single_ap(&grid, &positions, &rss).unwrap();
            let shared = engine.recover_group(&sensing, idx).unwrap();
            assert_eq!(direct, *shared, "subset {idx:?} diverged");
        }
        assert_eq!(sensing.cached_groups(), groups.len());
        // A repeated query is served from the memo (same Arc).
        let again = engine.recover_group(&sensing, &groups[1]).unwrap();
        let first = engine.recover_group(&sensing, &groups[1]).unwrap();
        assert!(Arc::ptr_eq(&again, &first));
        assert_eq!(sensing.cached_groups(), groups.len());
    }

    #[test]
    fn workspace_rejects_bad_indices() {
        let grid = grid_100();
        let readings = vec![crowdwifi_channel::RssReading::new(
            Point::new(10.0, 10.0),
            -60.0,
            0.0,
        )];
        let engine = engine();
        let sensing = engine.prepare_window(&grid, &readings);
        assert!(engine.recover_group(&sensing, &[]).is_err());
        assert!(engine.recover_group(&sensing, &[5]).is_err());
    }

    /// Fused (one-SVD) and unfused (Gram–Schmidt + pseudo-inverse)
    /// factorizations build different orthonormal bases of the same row
    /// space; the ℓ1 program is invariant under that rotation, so the
    /// recovered peak and support must agree.
    #[test]
    fn fused_factorization_preserves_support() {
        let grid = grid_100();
        let ap_idx = grid.nearest_index(Point::new(45.0, 45.0));
        let ap = grid.point(ap_idx);
        let positions = l_route();
        let rss = clean_rss(ap, &positions);
        let fused = engine().recover_single_ap(&grid, &positions, &rss).unwrap();
        let unfused = engine()
            .with_fused_factorization(false)
            .recover_single_ap(&grid, &positions, &rss)
            .unwrap();
        let peak = |t: &[f64]| {
            (0..t.len())
                .max_by(|&a, &b| t[a].partial_cmp(&t[b]).unwrap())
                .unwrap()
        };
        assert_eq!(peak(&fused), ap_idx);
        assert_eq!(peak(&unfused), ap_idx);
        let support = |t: &[f64]| {
            let m = t.iter().cloned().fold(0.0_f64, f64::max);
            (0..t.len()).filter(|&j| t[j] > 0.3 * m).collect::<Vec<_>>()
        };
        assert_eq!(support(&fused), support(&unfused));
        // And under the full acceleration stack, too.
        let fused_accel = engine()
            .with_accel(SolverAccel::enabled())
            .recover_single_ap(&grid, &positions, &rss)
            .unwrap();
        assert_eq!(support(&fused_accel), support(&fused));
    }

    #[test]
    fn recover_groups_aligns_and_dedups() {
        let grid = grid_100();
        let ap = grid.point(grid.nearest_index(Point::new(45.0, 45.0)));
        let route = l_route();
        let readings: Vec<crowdwifi_channel::RssReading> = route
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                crowdwifi_channel::RssReading::new(
                    p,
                    PathLossModel::uci_campus().mean_rss(p.distance(ap)),
                    i as f64,
                )
            })
            .collect();
        let engine = engine();
        let sensing = engine.prepare_window(&grid, &readings);
        let g_all: Vec<usize> = (0..readings.len()).collect();
        let g_prefix: Vec<usize> = (0..4).collect();
        // The duplicate of `g_all` must be served from the batch dedup
        // (same Arc), and each slot must match the per-group path.
        let batch = vec![g_all.clone(), g_prefix.clone(), g_all.clone()];
        let thetas = engine.recover_groups(&sensing, &batch).unwrap();
        assert_eq!(thetas.len(), 3);
        assert!(Arc::ptr_eq(&thetas[0], &thetas[2]));
        assert_eq!(sensing.cached_groups(), 2);
        for (idx, theta) in batch.iter().zip(&thetas) {
            let single = engine.recover_group(&sensing, idx).unwrap();
            assert_eq!(**theta, *single, "group {idx:?} diverged");
        }
        // Error propagation: one bad group fails the batch.
        assert!(engine.recover_groups(&sensing, &[vec![99]]).is_err());
    }

    /// The Proposition-1 step comes from the operator's real norm. On a
    /// `Q` whose rows are not orthonormal — as the fused SVD's
    /// `V = AᵀU/σ` becomes near the rank cutoff — a unit pin makes the
    /// step too long and the solve runs away; the exact `λ_max(QQᵀ)`
    /// keeps the accelerated solve at or below the zero solution's
    /// objective.
    #[test]
    fn prop1_step_uses_the_exact_operator_norm() {
        let q = Matrix::from_fn(3, 8, |i, j| (0.9 * ((i + 1) * (j + 1)) as f64).cos());
        let mut theta = vec![0.0; 8];
        theta[3] = 2.0;
        let y = q.matvec(&theta);
        let lambda_rel = 0.01;
        let fista = Fista::default()
            .with_max_iterations(400)
            .with_lambda_rel(lambda_rel)
            .unwrap();

        // Premise: ‖Q‖₂² is well above the old unit pin, and lies where
        // λ_max(QQᵀ) must: between the largest squared row norm and the
        // trace ‖Q‖_F².
        let l = prop1_lipschitz(&q).unwrap();
        assert!(l > 1.5, "premise: ‖Q‖₂² = {l} must exceed 1");
        let row_max = (0..q.rows())
            .map(|i| crowdwifi_linalg::vector::dot(q.row(i), q.row(i)))
            .fold(0.0, f64::max);
        let trace = q.frobenius_norm().powi(2);
        assert!(
            row_max <= l * (1.0 + 1e-12) && l <= trace * (1.0 + 1e-12),
            "λ_max {l} outside [{row_max}, {trace}]"
        );

        let pinned = fista
            .clone()
            .with_screening(true)
            .with_fixed_lipschitz(1.0)
            .unwrap()
            .recover(&q, &y)
            .unwrap();
        assert!(pinned.diverged, "a unit pin should run away: {pinned:?}");

        let engine = engine()
            .with_solver(fista)
            .with_accel(SolverAccel::enabled());
        let solver = engine.accel_solver(Some(&q)).unwrap();
        let rec = solver
            .recover_with(&q, &y, &mut SolverWorkspace::new())
            .unwrap();
        assert!(!rec.diverged, "{rec:?}");
        let lambda = lambda_rel * crowdwifi_linalg::vector::norm_inf(&q.matvec_transposed(&y));
        let residual: Vec<f64> = q
            .matvec(&rec.solution)
            .iter()
            .zip(&y)
            .map(|(a, b)| a - b)
            .collect();
        let objective = 0.5 * crowdwifi_linalg::vector::dot(&residual, &residual)
            + lambda * crowdwifi_linalg::vector::norm1(&rec.solution);
        let zero_objective = 0.5 * crowdwifi_linalg::vector::dot(&y, &y);
        assert!(
            objective <= zero_objective,
            "objective {objective} above the zero solution's {zero_objective}"
        );
        assert_eq!(rec.support(0.5), vec![3]);
    }

    #[test]
    fn accelerated_solves_preserve_the_recovered_peak() {
        let grid = grid_100();
        let ap_idx = grid.nearest_index(Point::new(45.0, 45.0));
        let ap = grid.point(ap_idx);
        let positions = l_route();
        let rss = clean_rss(ap, &positions);
        let baseline = engine().recover_single_ap(&grid, &positions, &rss).unwrap();
        let accel = engine()
            .with_accel(SolverAccel::enabled())
            .recover_single_ap(&grid, &positions, &rss)
            .unwrap();
        let peak = |t: &[f64]| {
            (0..t.len())
                .max_by(|&a, &b| t[a].partial_cmp(&t[b]).unwrap())
                .unwrap()
        };
        assert_eq!(peak(&baseline), ap_idx);
        assert_eq!(peak(&accel), ap_idx);
        // Same support above a loose threshold — screening and the gap
        // stop must not move mass between grid cells.
        let support = |t: &[f64]| {
            let m = t.iter().cloned().fold(0.0_f64, f64::max);
            (0..t.len()).filter(|&j| t[j] > 0.3 * m).collect::<Vec<_>>()
        };
        assert_eq!(support(&baseline), support(&accel));
    }

    #[test]
    fn stats_merge_sums_every_field() {
        let a = SensingStats {
            lookups: 1,
            hits: 2,
            solves: 3,
            solver_iterations: 4,
            unconverged: 5,
            diverged: 9,
            screened_cols: 6,
            iterations_saved: 7,
        };
        let mut total = a;
        total.merge(&a);
        assert_eq!(
            total,
            SensingStats {
                lookups: 2,
                hits: 4,
                solves: 6,
                solver_iterations: 8,
                unconverged: 10,
                diverged: 18,
                screened_cols: 12,
                iterations_saved: 14,
            }
        );
    }

    #[test]
    fn single_reading_recovery_is_well_defined() {
        let grid = grid_100();
        let ap = grid.point(grid.nearest_index(Point::new(45.0, 45.0)));
        let p = [Point::new(40.0, 40.0)];
        let rss = clean_rss(ap, &p);
        let theta = engine().recover_single_ap(&grid, &p, &rss).unwrap();
        // With one measurement the solution is underdetermined but must
        // be finite and non-negative.
        assert!(theta.iter().all(|&x| x.is_finite() && x >= 0.0));
        assert!(theta.iter().any(|&x| x > 0.0));
    }
}
