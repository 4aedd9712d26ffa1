//! Truncated LU factorization with column and row tournament pivoting
//! (LU_CRTP, Algorithm 2) and its incomplete thresholding variant
//! (ILUT_CRTP, Algorithm 3) — the paper's deterministic fixed-precision
//! methods.
//!
//! Both run the same block iteration; ILUT_CRTP additionally drops
//! Schur-complement entries below a threshold `mu` (eq. 24), guarded by
//! the threshold control `phi` (eq. 22). Factors are accumulated in
//! *original* coordinates: `L` holds original row ids and `U` original
//! column ids, so `A ≈ L U` directly and
//! `||P_r A P_c - L' U'||_F = ||A - L U||_F` for the permuted factors.
//!
//! This module holds the options, results and Schur-update kernels; the
//! iteration itself is the SPMD engine in `spmd.rs`, which the entry
//! points here run on one in-process rank.

use crate::timers::KernelTimers;
use lra_dense::{DenseMatrix, Numerics};
use lra_par::{parallel_map_fold, Parallelism};
use lra_qrtp::TournamentTree;
use lra_sparse::CscMatrix;

/// When to apply the fill-reducing (COLAMD + etree postorder)
/// preprocessing — the ablation axis of Fig. 1 (left).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingMode {
    /// No reordering.
    Natural,
    /// Reorder the input once before the first iteration (the paper's
    /// default, Section V).
    FirstIteration,
    /// Reorder the Schur complement before every iteration.
    EveryIteration,
}

/// How `L21` is formed (Section II-B3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LFormation {
    /// `L21 = Ā21 Ā11^{-1}` — exploits the sparsity of `Ā21`.
    Direct,
    /// `L21 = Q̄21 Q̄11^{-1}` — the stability-enhancing alternative; its
    /// entries are bounded by the RRQR guarantees but it is dense
    /// ("introduces additional small values", exacerbating fill-in).
    QBased,
}

/// Why a factorization stopped before reaching the tolerance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Breakdown {
    /// The `k x k` pivot block was numerically singular.
    SingularPivotBlock,
    /// The (thresholded) Schur complement ran out of numerical rank.
    RankExhausted,
    /// A numerical guard tripped: a panel `R` diagonal or the error
    /// indicator came back NaN/Inf, so continuing would only propagate
    /// garbage. Recorded as a `recover.guard_trip` event.
    NonFinite,
}

/// A caller error caught at the API boundary — the typed alternative to
/// panicking deep inside a kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum InvalidInput {
    /// Block size `k` must be at least 1.
    ZeroBlockSize,
    /// `tau` must be finite and strictly positive.
    BadTau {
        /// The offending tolerance.
        tau: f64,
    },
    /// ILUT's iteration estimate `u` must be at least 1 (it divides the
    /// drop threshold `mu`, eq. 24).
    ZeroIterationEstimate,
    /// ILUT's `phi_factor` must be finite and strictly positive.
    BadPhiFactor {
        /// The offending factor.
        phi_factor: f64,
    },
    /// The input matrix has no rows or no columns.
    EmptyMatrix {
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
    },
    /// The input matrix contains a NaN or infinite entry. Rejected up
    /// front at checked entry points: a non-finite input can only ever
    /// surface later as a mid-factorization [`Breakdown::NonFinite`],
    /// after burning iterations on garbage.
    NonFiniteEntry {
        /// Row index of the first offending entry.
        row: usize,
        /// Column index of the first offending entry.
        col: usize,
        /// The offending value.
        value: f64,
    },
    /// A resume was attempted under a different [`Numerics`] mode than
    /// the checkpoint was written with. Mode fixes the floating-point
    /// chain, so silently switching would break the bitwise-within-mode
    /// resume guarantee; the caller must either resume in the stored
    /// mode or start fresh.
    NumericsModeMismatch {
        /// The mode recorded in the checkpoint envelope.
        stored: Numerics,
        /// The mode the resuming run requested.
        requested: Numerics,
    },
}

impl std::fmt::Display for InvalidInput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvalidInput::ZeroBlockSize => write!(f, "block size k must be at least 1"),
            InvalidInput::BadTau { tau } => {
                write!(f, "tau must be finite and > 0, got {tau}")
            }
            InvalidInput::ZeroIterationEstimate => {
                write!(f, "ILUT iteration estimate u must be at least 1")
            }
            InvalidInput::BadPhiFactor { phi_factor } => {
                write!(f, "phi_factor must be finite and > 0, got {phi_factor}")
            }
            InvalidInput::EmptyMatrix { rows, cols } => {
                write!(f, "input matrix is empty ({rows}x{cols})")
            }
            InvalidInput::NonFiniteEntry { row, col, value } => {
                write!(f, "input matrix entry ({row}, {col}) is not finite: {value}")
            }
            InvalidInput::NumericsModeMismatch { stored, requested } => {
                write!(
                    f,
                    "checkpoint was written in {stored} numerics mode but the resume \
                     requested {requested}; resume in the stored mode or clear the store"
                )
            }
        }
    }
}

impl std::error::Error for InvalidInput {}

/// Reject empty or non-finite inputs at checked entry points.
pub(crate) fn validate_matrix(a: &CscMatrix) -> Result<(), InvalidInput> {
    if a.rows() == 0 || a.cols() == 0 {
        return Err(InvalidInput::EmptyMatrix {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    for col in 0..a.cols() {
        let (ri, vs) = a.col(col);
        for (&row, &value) in ri.iter().zip(vs) {
            if !value.is_finite() {
                return Err(InvalidInput::NonFiniteEntry { row, col, value });
            }
        }
    }
    Ok(())
}

/// Options for [`lu_crtp`].
#[derive(Debug, Clone)]
pub struct LuCrtpOpts {
    /// Block size `k`.
    pub k: usize,
    /// Relative tolerance `tau` in `||A - LU||_F < tau * ||A||_F`.
    pub tau: f64,
    /// Fill-reducing preprocessing mode.
    pub ordering: OrderingMode,
    /// Tournament reduction tree shape.
    pub tree: TournamentTree,
    /// Worker count for all parallel kernels.
    pub par: Parallelism,
    /// Optional rank cap (stop once `K >= max_rank`).
    pub max_rank: Option<usize>,
    /// How `L21` is computed.
    pub l_formation: LFormation,
    /// Floating-point evaluation mode for the kernel layer:
    /// [`Numerics::Bitwise`] (the default) keeps the reference fp
    /// chains, [`Numerics::Fast`] opts into FMA Schur-update dots and
    /// pairwise-reduced error indicators; the tournament and the panel
    /// QR stay bitwise in both modes. Fast runs are deterministic
    /// within the mode but only normwise-comparable
    /// (`O(n * eps * ||A||)`) to Bitwise runs; checkpoints record the
    /// mode and refuse mode-switching resumes.
    pub numerics: Numerics,
    /// Cooperative resource budget (deadline / iteration cap / memory
    /// ceiling / cancel tokens). Checked once per block iteration at
    /// the snapshot boundary; on a trip the driver checkpoints (when
    /// hooks are attached) and returns the partial factors with
    /// [`LuCrtpResult::trip`] set. Unlimited by default — the check
    /// (and, under SPMD, the agreement collective) is skipped entirely
    /// then.
    pub budget: lra_recover::Budget,
}

impl LuCrtpOpts {
    /// Defaults matching the paper's setup: first-iteration COLAMD,
    /// binary tournament tree, direct `L21`, sequential.
    ///
    /// Panics on invalid `k`/`tau` with the [`InvalidInput`] message —
    /// use [`LuCrtpOpts::try_new`] for the non-panicking variant.
    pub fn new(k: usize, tau: f64) -> Self {
        Self::try_new(k, tau).unwrap_or_else(|e| panic!("LuCrtpOpts::new: {e}"))
    }

    /// Validated constructor: rejects `k == 0` and non-finite or
    /// non-positive `tau` instead of panicking deep inside a kernel.
    pub fn try_new(k: usize, tau: f64) -> Result<Self, InvalidInput> {
        if k == 0 {
            return Err(InvalidInput::ZeroBlockSize);
        }
        if !tau.is_finite() || tau <= 0.0 {
            return Err(InvalidInput::BadTau { tau });
        }
        Ok(LuCrtpOpts {
            k,
            tau,
            ordering: OrderingMode::FirstIteration,
            tree: TournamentTree::Binary,
            par: Parallelism::SEQ,
            max_rank: None,
            l_formation: LFormation::Direct,
            numerics: Numerics::Bitwise,
            budget: lra_recover::Budget::unlimited(),
        })
    }

    /// Re-check the invariants (for options assembled field-by-field).
    pub fn validate(&self) -> Result<(), InvalidInput> {
        Self::try_new(self.k, self.tau).map(|_| ())
    }

    /// Builder-style parallelism setter.
    pub fn with_par(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    /// Builder-style ordering setter.
    pub fn with_ordering(mut self, ordering: OrderingMode) -> Self {
        self.ordering = ordering;
        self
    }

    /// Builder-style rank cap setter.
    pub fn with_max_rank(mut self, max_rank: usize) -> Self {
        self.max_rank = Some(max_rank);
        self
    }

    /// Builder-style numerics-mode setter (see [`LuCrtpOpts::numerics`]).
    pub fn with_numerics(mut self, numerics: Numerics) -> Self {
        self.numerics = numerics;
        self
    }

    /// Builder-style budget setter (see [`LuCrtpOpts::budget`]).
    pub fn with_budget(mut self, budget: lra_recover::Budget) -> Self {
        self.budget = budget;
        self
    }
}

/// Thresholding strategy for ILUT_CRTP (Section VI-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropStrategy {
    /// Fixed threshold `mu` from eq. 24, with the control (22) undoing a
    /// violating drop and disabling thresholding.
    Fixed,
    /// Aggressive: per iteration, sort entries below the cap and drop
    /// the smallest while the budget (22) allows.
    Aggressive,
}

/// Options for [`ilut_crtp`].
#[derive(Debug, Clone)]
pub struct IlutOpts {
    /// The underlying LU_CRTP configuration.
    pub base: LuCrtpOpts,
    /// Estimated iteration count `u` in the `mu` heuristic (eq. 24).
    pub u_estimate: usize,
    /// Threshold control `phi` as a multiple of `tau * |R^(1)(1,1)|`
    /// (the paper uses 1.0).
    pub phi_factor: f64,
    /// Drop strategy.
    pub strategy: DropStrategy,
}

impl IlutOpts {
    /// Paper defaults: `phi = tau * |R^(1)(1,1)|`, fixed threshold.
    ///
    /// `u_estimate` is clamped to at least 1 (matching the historical
    /// behavior); invalid `k`/`tau` panic with the [`InvalidInput`]
    /// message — use [`IlutOpts::try_new`] for the non-panicking
    /// variant.
    pub fn new(k: usize, tau: f64, u_estimate: usize) -> Self {
        Self::try_new(k, tau, u_estimate.max(1))
            .unwrap_or_else(|e| panic!("IlutOpts::new: {e}"))
    }

    /// Validated constructor: rejects `k == 0`, bad `tau`, and
    /// `u_estimate == 0`.
    pub fn try_new(k: usize, tau: f64, u_estimate: usize) -> Result<Self, InvalidInput> {
        if u_estimate == 0 {
            return Err(InvalidInput::ZeroIterationEstimate);
        }
        Ok(IlutOpts {
            base: LuCrtpOpts::try_new(k, tau)?,
            u_estimate,
            phi_factor: 1.0,
            strategy: DropStrategy::Fixed,
        })
    }

    /// Re-check the invariants (for options assembled field-by-field).
    pub fn validate(&self) -> Result<(), InvalidInput> {
        self.base.validate()?;
        if self.u_estimate == 0 {
            return Err(InvalidInput::ZeroIterationEstimate);
        }
        if !self.phi_factor.is_finite() || self.phi_factor <= 0.0 {
            return Err(InvalidInput::BadPhiFactor {
                phi_factor: self.phi_factor,
            });
        }
        Ok(())
    }

    /// Builder-style numerics-mode setter on the underlying base opts.
    pub fn with_numerics(mut self, numerics: Numerics) -> Self {
        self.base.numerics = numerics;
        self
    }

    /// Builder-style budget setter on the underlying base opts (see
    /// [`LuCrtpOpts::budget`]).
    pub fn with_budget(mut self, budget: lra_recover::Budget) -> Self {
        self.base.budget = budget;
        self
    }
}

/// Thresholding outcome recorded by ILUT_CRTP.
#[derive(Debug, Clone)]
pub struct ThresholdReport {
    /// The threshold `mu` determined by eq. 24.
    pub mu: f64,
    /// The control bound `phi`.
    pub phi: f64,
    /// Total entries dropped.
    pub dropped: usize,
    /// Accumulated dropped mass `sum ||T̃^(j)||_F^2`.
    pub dropped_mass_sq: f64,
    /// Whether the control (22) ever triggered (drop undone, `mu = 0`).
    pub control_triggered: bool,
}

/// Peak per-rank memory footprint of a sharded SPMD run. The sharded
/// driver keeps only a block-column shard of the Schur complement
/// resident per rank (`O(nnz/np)` plus the `O(b^2)` panel), so these
/// peaks shrink as ranks are added — the quantity behind the
/// `mem.peak_rank_bytes` gauge and the CI memory-scaling check.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemStats {
    /// Max over ranks of the peak resident Schur-shard bytes.
    pub peak_rank_bytes: u64,
    /// Max over ranks of the peak resident Schur-shard nonzeros.
    pub peak_rank_nnz: u64,
}

/// One iteration of the factorization trace.
#[derive(Debug, Clone)]
pub struct IterTrace {
    /// Iteration number (1-based).
    pub iteration: usize,
    /// Accumulated rank `K` after this iteration.
    pub rank: usize,
    /// Error indicator `||A^(i+1)||_F` (eq. 9 / 26).
    pub indicator: f64,
    /// Entries in the Schur complement.
    pub schur_nnz: usize,
    /// `nnz / (rows*cols)` of the Schur complement — Fig. 1 fill-in.
    pub schur_density: f64,
    /// `nnz / rows` of the Schur complement — Fig. 1 (right) y-axis.
    pub schur_nnz_per_row: f64,
    /// `|diag(R^(i))|` of this iteration's panel QR — rank-revealing
    /// estimates of singular values `sigma_{K-k+1} .. sigma_K` of `A`
    /// (the "effective approximation" property of Section III).
    pub r_diag: Vec<f64>,
}

/// Result of LU_CRTP / ILUT_CRTP.
#[derive(Debug, Clone)]
pub struct LuCrtpResult {
    /// `m x K` lower factor in original row coordinates.
    pub l: CscMatrix,
    /// `K x n` upper factor in original column coordinates.
    pub u: CscMatrix,
    /// Original row ids selected as pivots, in factor order (the first
    /// `K` rows of `P_r`).
    pub pivot_rows: Vec<usize>,
    /// Original column ids selected as pivots (the first `K` columns of
    /// `P_c`).
    pub pivot_cols: Vec<usize>,
    /// Achieved rank `K`.
    pub rank: usize,
    /// Number of block iterations.
    pub iterations: usize,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Early-stop cause, if any.
    pub breakdown: Option<Breakdown>,
    /// Final error indicator.
    pub indicator: f64,
    /// `||A||_F` of the input.
    pub a_norm_f: f64,
    /// `|R^(1)(1,1)|` — the rank-revealing estimate of `||A||_2`.
    pub r11: f64,
    /// Per-iteration trace (fill-in progression etc.).
    pub trace: Vec<IterTrace>,
    /// Kernel timers (Fig. 5 breakdown).
    pub timers: KernelTimers,
    /// Thresholding report (ILUT_CRTP only).
    pub threshold: Option<ThresholdReport>,
    /// Peak per-rank Schur storage (the sharded engine behind every
    /// public entry point; `None` only for the replicated oracle, which
    /// holds the full Schur complement on every rank).
    pub mem: Option<MemStats>,
    /// Set when a [`LuCrtpOpts::budget`] limit or cancel token stopped
    /// the run at an iteration boundary. The factors are then a valid
    /// rank-`K` approximation whose achieved tolerance is
    /// [`LuCrtpResult::achieved_tolerance`]; under checkpoint hooks the
    /// trip iteration was snapshotted, so a rerun against the same
    /// store resumes from exactly here.
    pub trip: Option<lra_recover::BudgetTrip>,
}

impl LuCrtpResult {
    /// Total nonzeros in both factors (the `ratio_NNZ` numerator /
    /// denominator of Table II).
    pub fn factor_nnz(&self) -> usize {
        self.l.nnz() + self.u.nnz()
    }

    /// Achieved relative tolerance `indicator / ||A||_F`: the quantity
    /// the fixed-precision stop rule compares against `tau`. For a
    /// converged run it is `< tau`; for a budget-tripped run it
    /// quantifies the degraded-but-valid approximation the partial
    /// factors provide.
    pub fn achieved_tolerance(&self) -> f64 {
        if self.a_norm_f == 0.0 {
            0.0
        } else {
            self.indicator / self.a_norm_f
        }
    }

    /// Classify this result as a typed [`crate::Outcome`]:
    /// `Interrupted` exactly when a budget trip stopped the run, with
    /// the achieved tolerance and a resume handle pointing at the trip
    /// iteration (meaningful when the run was checkpointed).
    pub fn into_outcome(self) -> crate::Outcome<LuCrtpResult> {
        match self.trip.clone() {
            None => crate::Outcome::Completed(self),
            Some(trip) => {
                let achieved_tolerance = self.achieved_tolerance();
                let resume = (self.iterations > 0).then_some(crate::ResumeHandle {
                    kind: "lu_crtp",
                    iteration: self.iterations,
                    job: None,
                });
                crate::Outcome::Interrupted(crate::Interrupted {
                    partial: self,
                    trip,
                    achieved_tolerance,
                    resume,
                })
            }
        }
    }

    /// Rank-revealing singular-value estimates: `|diag(R^(i))|` of each
    /// iteration's panel factorization, concatenated. Entry `j`
    /// approximates `sigma_{j+1}(A)`; Grigori et al. show the ratios
    /// stay close to one in practice ("effective approximation",
    /// Section III of the paper), which is what makes ILUT_CRTP's
    /// convergence argument work.
    pub fn singular_value_estimates(&self) -> Vec<f64> {
        self.trace.iter().flat_map(|t| t.r_diag.iter().copied()).collect()
    }

    /// Exact error `||A - L U||_F` (forms the dense residual column by
    /// column; intended for validation on small/medium matrices).
    pub fn exact_error(&self, a: &CscMatrix, par: Parallelism) -> f64 {
        let m = a.rows();
        let n = a.cols();
        let sq = parallel_map_fold(
            par,
            n,
            8,
            0.0f64,
            |range| {
                let mut acc = 0.0;
                let mut dense = vec![0.0f64; m];
                for j in range {
                    for x in dense.iter_mut() {
                        *x = 0.0;
                    }
                    let (ri, vs) = a.col(j);
                    for (&r, &v) in ri.iter().zip(vs) {
                        dense[r] = v;
                    }
                    // Subtract L * U(:, j).
                    let (ki, kv) = self.u.col(j);
                    for (&kk, &uv) in ki.iter().zip(kv) {
                        let (rows, vals) = self.l.col(kk);
                        for (&r, &lvv) in rows.iter().zip(vals) {
                            dense[r] -= lvv * uv;
                        }
                    }
                    acc += dense.iter().map(|x| x * x).sum::<f64>();
                }
                acc
            },
            |a, b| a + b,
        );
        sq.sqrt()
    }
}

/// LU_CRTP (Algorithm 2): deterministic fixed-precision truncated LU
/// with column and row tournament pivoting. Runs the SPMD engine
/// ([`crate::lu_crtp_spmd`]) on one in-process rank, with `opts.par`
/// workers inside it.
pub fn lu_crtp(a: &CscMatrix, opts: &LuCrtpOpts) -> LuCrtpResult {
    lu_crtp_checkpointed(a, opts, None).expect("no hooks, so no resume mode mismatch")
}

/// ILUT_CRTP (Algorithm 3): incomplete LU_CRTP with thresholding.
pub fn ilut_crtp(a: &CscMatrix, opts: &IlutOpts) -> LuCrtpResult {
    ilut_crtp_checkpointed(a, opts, None).expect("no hooks, so no resume mode mismatch")
}

/// [`lu_crtp`] with iteration checkpointing: snapshots the loop state
/// through `hooks` at the end of each covered iteration, and resumes
/// from the store's latest snapshot if one is present. Fails with
/// [`InvalidInput::NumericsModeMismatch`] when the store's latest
/// snapshot was written under a different [`Numerics`] mode than
/// `opts.numerics` — a bitwise-within-mode resume guarantee is only
/// possible when the interrupted and resuming runs agree on the mode.
pub fn lu_crtp_checkpointed(
    a: &CscMatrix,
    opts: &LuCrtpOpts,
    hooks: Option<&crate::RecoveryHooks<'_>>,
) -> Result<LuCrtpResult, InvalidInput> {
    crate::spmd::drive_one_rank(a, opts, None, hooks)
}

/// [`ilut_crtp`] with iteration checkpointing (see
/// [`lu_crtp_checkpointed`]). The snapshot carries the threshold state
/// (`mu`, `phi`, dropped mass), so the resumed run's error estimator
/// (eq. 26) accounts for entries dropped before the interruption.
pub fn ilut_crtp_checkpointed(
    a: &CscMatrix,
    opts: &IlutOpts,
    hooks: Option<&crate::RecoveryHooks<'_>>,
) -> Result<LuCrtpResult, InvalidInput> {
    crate::spmd::drive_one_rank(a, &opts.base, Some(opts), hooks)
}

/// Reusable scratch for the Schur-update kernel, owned by each driver
/// and threaded through every iteration so the inner loops allocate
/// nothing: the per-column correction vector and the transpose target
/// buffer recycled by [`CscMatrix::transpose_into`].
pub(crate) struct SchurWorkspace {
    corr: Vec<f64>,
    pub(crate) tbuf: CscMatrix,
}

impl SchurWorkspace {
    pub(crate) fn new() -> Self {
        SchurWorkspace {
            corr: Vec::new(),
            tbuf: CscMatrix::zeros(0, 0),
        }
    }
}

/// Chunk width (output columns) of the parallel Schur update.
pub(crate) const SCHUR_GRAIN: usize = 32;

/// The one parallel Schur-update helper shared by the sharded SPMD
/// engine and the replicated oracle: runs
/// [`schur_update_cols`] over `range` in fixed [`SCHUR_GRAIN`]-wide
/// chunks and concatenates the per-chunk `(lens, rows, vals)` partials
/// in ascending chunk order. Columns are computed independently, so
/// the concatenation is bitwise-identical to one sequential pass over
/// `range` for any worker count — which is what keeps the sharded and
/// replicated drivers bit-for-bit aligned while both go parallel
/// within a rank. In sequential mode the caller's workspace is reused
/// directly (no per-call allocation); in parallel mode each chunk
/// carries its own workspace, amortized over [`SCHUR_GRAIN`] columns.
#[allow(clippy::too_many_arguments)]
pub(crate) fn schur_update_ranged(
    a22: &CscMatrix,
    x_rows: &[usize],
    xt: &DenseMatrix,
    a12: &CscMatrix,
    range: std::ops::Range<usize>,
    ws: &mut SchurWorkspace,
    par: Parallelism,
    numerics: Numerics,
) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    if !par.is_parallel() {
        return schur_update_cols(a22, x_rows, xt, a12, range, ws, numerics);
    }
    type Partial = (Vec<usize>, Vec<usize>, Vec<f64>);
    let lo = range.start;
    parallel_map_fold(
        par,
        range.len(),
        SCHUR_GRAIN,
        (Vec::new(), Vec::new(), Vec::new()),
        |r| -> Partial {
            let mut chunk_ws = SchurWorkspace::new();
            schur_update_cols(
                a22,
                x_rows,
                xt,
                a12,
                lo + r.start..lo + r.end,
                &mut chunk_ws,
                numerics,
            )
        },
        |mut acc, part| {
            acc.0.extend(part.0);
            acc.1.extend(part.1);
            acc.2.extend(part.2);
            acc
        },
    )
}

/// Schur-complement kernel for a contiguous column range: returns the
/// per-column entry counts and the concatenated row indices and values
/// of `A22 - X^T A12` restricted to `range`. Shared by the
/// thread-parallel and the SPMD (rank-distributed) drivers.
///
/// Per column, the correction `corr[q] = sum_t a12[t, j] * xt[t, q]`
/// is accumulated in ascending `t` (fused per step in Fast mode), then
/// merged with the stored `a22` column by a sparse two-pointer walk
/// that emits rows ascending. Stored entries no correction touches are
/// copied verbatim (explicit zeros included); a corrected entry or a
/// fill that comes out exactly `0.0` is dropped. Columns are computed
/// independently, which the sharded-vs-replicated oracle tests and the
/// overlapped re-shard's piecewise updates rely on.
#[allow(clippy::too_many_arguments)]
pub(crate) fn schur_update_cols(
    a22: &CscMatrix,
    x_rows: &[usize],
    xt: &DenseMatrix,
    a12: &CscMatrix,
    range: std::ops::Range<usize>,
    ws: &mut SchurWorkspace,
    numerics: Numerics,
) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    let k = xt.rows();
    let nr = x_rows.len();
    let fast = numerics.is_fast();
    ws.corr.clear();
    ws.corr.resize(nr, 0.0);
    let mut lens = Vec::with_capacity(range.len());
    let mut rows_out = Vec::new();
    let mut vals_out = Vec::new();
    let xt_data = xt.as_slice();
    for j in range {
        let (ti, tv) = a12.col(j);
        let (ai, av) = a22.col(j);
        let before = rows_out.len();
        if ti.is_empty() {
            // No correction touches this column: pure copy.
            rows_out.extend_from_slice(ai);
            vals_out.extend_from_slice(av);
            lens.push(rows_out.len() - before);
            continue;
        }
        for (q, cr) in ws.corr.iter_mut().enumerate() {
            // Column q of xt is contiguous.
            let xtc = &xt_data[q * k..q * k + k];
            let mut acc = 0.0;
            if fast {
                for (&t, &v) in ti.iter().zip(tv) {
                    acc = v.mul_add(xtc[t], acc);
                }
            } else {
                for (&t, &v) in ti.iter().zip(tv) {
                    acc += v * xtc[t];
                }
            }
            *cr = acc;
        }
        let corr = &ws.corr;
        // Merge a22 column with -corr at x_rows.
        let mut p = 0usize; // into a22 col
        let mut q = 0usize; // into x_rows
        while p < ai.len() || q < nr {
            if q >= nr || (p < ai.len() && ai[p] < x_rows[q]) {
                rows_out.push(ai[p]);
                vals_out.push(av[p]);
                p += 1;
            } else if p >= ai.len() || x_rows[q] < ai[p] {
                let v = -corr[q];
                if v != 0.0 {
                    rows_out.push(x_rows[q]);
                    vals_out.push(v);
                }
                q += 1;
            } else {
                let v = av[p] - corr[q];
                if v != 0.0 {
                    rows_out.push(ai[p]);
                    vals_out.push(v);
                }
                p += 1;
                q += 1;
            }
        }
        lens.push(rows_out.len() - before);
    }
    (lens, rows_out, vals_out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CSC from per-column `(row, value)` lists, explicit zeros kept.
    fn csc(rows: usize, cols: &[&[(usize, f64)]]) -> CscMatrix {
        let mut colptr = vec![0];
        let (mut ri, mut vs) = (Vec::new(), Vec::new());
        for col in cols {
            for &(r, v) in *col {
                ri.push(r);
                vs.push(v);
            }
            colptr.push(ri.len());
        }
        CscMatrix::from_parts(rows, cols.len(), colptr, ri, vs)
    }

    /// One kernel output as per-column `(row, value)` lists.
    fn columns(out: &(Vec<usize>, Vec<usize>, Vec<f64>)) -> Vec<Vec<(usize, f64)>> {
        let (lens, rows, vals) = out;
        let mut at = 0;
        lens.iter()
            .map(|&l| {
                let col = (at..at + l).map(|i| (rows[i], vals[i])).collect();
                at += l;
                col
            })
            .collect()
    }

    fn modes() -> [(Parallelism, Numerics); 4] {
        let two = Parallelism::new(2);
        [
            (Parallelism::SEQ, Numerics::Bitwise),
            (Parallelism::SEQ, Numerics::Fast),
            (two, Numerics::Bitwise),
            (two, Numerics::Fast),
        ]
    }

    #[test]
    fn schur_update_matches_dense_reference_and_drop_rules() {
        let (m, k) = (5, 2);
        let x_rows = [1, 3];
        // Column q of xt is the pivot-row weight vector for x_rows[q].
        let xt = DenseMatrix::from_column_major(k, 2, vec![1.0, 2.0, 2.0, -1.0]);
        let a12 = csc(
            k,
            &[
                &[],
                &[(0, 1.0), (1, 1.0)],
                &[(0, 1.0), (1, 2.0)],
                &[(1, 3.0)],
            ],
        );
        let a22 = csc(
            m,
            &[
                // Untouched column with a stored explicit zero.
                &[(2, 0.0), (4, 7.0)],
                // Explicit zero off x_rows (kept); 3.0 at row 1 meets
                // a correction of exactly 3.0 (cancels, dropped).
                &[(0, 0.0), (1, 3.0), (4, 2.0)],
                // The fill at row 3 is exactly 2*1 + (-1)*2 = 0 (dropped).
                &[(4, 1.0)],
                &[(1, 1.0), (3, 4.0)],
            ],
        );
        let expect: Vec<Vec<(usize, f64)>> = vec![
            vec![(2, 0.0), (4, 7.0)],
            vec![(0, 0.0), (3, -1.0), (4, 2.0)],
            vec![(1, -5.0), (4, 1.0)],
            vec![(1, -5.0), (3, 7.0)],
        ];
        // Dense reference A22 - X^T A12, with X^T scattered to x_rows.
        let mut reference = a22.to_dense();
        let a12d = a12.to_dense();
        for (q, &r) in x_rows.iter().enumerate() {
            for j in 0..a22.cols() {
                let corr: f64 = (0..k).map(|t| xt.get(t, q) * a12d.get(t, j)).sum();
                reference.set(r, j, reference.get(r, j) - corr);
            }
        }
        for (par, numerics) in modes() {
            let mut ws = SchurWorkspace::new();
            let out = schur_update_ranged(&a22, &x_rows, &xt, &a12, 0..4, &mut ws, par, numerics);
            assert_eq!(columns(&out), expect, "{par:?} {numerics}");
            let (lens, rows, vals) = out;
            let mut colptr = vec![0];
            colptr.extend(lens.iter().scan(0, |run, &l| {
                *run += l;
                Some(*run)
            }));
            let got = CscMatrix::from_parts(m, 4, colptr, rows, vals).to_dense();
            assert_eq!(got.as_slice(), reference.as_slice(), "{par:?} {numerics}");
        }
    }

    #[test]
    fn schur_update_pieces_concatenate_to_one_pass_bitwise() {
        // Non-integer values so the fp chains matter; every seventh
        // column is left untouched by A12 to cover the copy path.
        let (m, n, k) = (40, 90, 3);
        let mut h = 0x9e37_79b9_7f4a_7c15u64;
        let mut val = move || {
            h ^= h << 13;
            h ^= h >> 7;
            h ^= h << 17;
            (h % 2001) as f64 / 997.0 - 1.0
        };
        let x_rows: Vec<usize> = (0..m).filter(|r| r % 3 != 1).collect();
        let xt = DenseMatrix::from_fn(k, x_rows.len(), |_, _| val());
        let a12_cols: Vec<Vec<(usize, f64)>> = (0..n)
            .map(|j| {
                let touched = j % 7 != 3;
                (0..k)
                    .filter(|t| touched && (j + t) % 4 != 0)
                    .map(|t| (t, val()))
                    .collect()
            })
            .collect();
        let a22_cols: Vec<Vec<(usize, f64)>> = (0..n)
            .map(|j| {
                (0..m)
                    .filter(|r| (r * 5 + j) % 6 == 0)
                    .map(|r| (r, val()))
                    .collect()
            })
            .collect();
        let a12 = csc(k, &a12_cols.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let a22 = csc(m, &a22_cols.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let bits = |(lens, rows, vals): &(Vec<usize>, Vec<usize>, Vec<f64>)| {
            let vals: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
            (lens.clone(), rows.clone(), vals)
        };
        let splits: [&[usize]; 4] = [&[], &[1], &[17, 18, 64], &[5, 32, 33, 70, 89]];
        for (par, numerics) in modes() {
            let mut ws = SchurWorkspace::new();
            // One sequential pass is the reference for every worker count.
            let whole = schur_update_ranged(
                &a22,
                &x_rows,
                &xt,
                &a12,
                0..n,
                &mut ws,
                Parallelism::SEQ,
                numerics,
            );
            for cuts in splits {
                let bounds: Vec<usize> = std::iter::once(0)
                    .chain(cuts.iter().copied())
                    .chain([n])
                    .collect();
                let mut cat = (Vec::new(), Vec::new(), Vec::new());
                for w in bounds.windows(2) {
                    let (l, r, v) = schur_update_ranged(
                        &a22,
                        &x_rows,
                        &xt,
                        &a12,
                        w[0]..w[1],
                        &mut ws,
                        par,
                        numerics,
                    );
                    cat.0.extend(l);
                    cat.1.extend(r);
                    cat.2.extend(v);
                }
                assert_eq!(bits(&cat), bits(&whole), "{par:?} {numerics} cuts {cuts:?}");
            }
        }
    }
}
