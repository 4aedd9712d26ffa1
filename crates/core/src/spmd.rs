//! Rank-distributed LU_CRTP over the `lra-comm` SPMD runtime — the
//! direct structural port of the paper's MPI implementation
//! (Section V).
//!
//! Data placement follows the paper's block-column distribution, but
//! with *rank-owned* storage: each rank holds only its own
//! [`ColSlice`] shard of the current Schur complement (`O(nnz/np)`
//! resident per rank), never the full matrix. Per iteration:
//!
//! - the column tournament runs its communication-free local stage on
//!   the owned shard, then `log2(P)` pairwise reduction rounds in
//!   which winner columns travel with their global ids as compact
//!   panels ([`lra_qrtp::tournament_columns_spmd_sharded`]);
//! - the panel TSQR gathers its row blocks from the (replicated,
//!   `O(b^2)`-ish) winner panel broadcast by the tournament;
//! - `Ā21` rows are scattered for the `L21` solve and the small `X^T`
//!   is allgathered (a 1-D column distribution keeps the row panel
//!   replicated);
//! - the Schur update is computed only for owned columns, with an
//!   `alltoallv` re-sharding from the old column partition to the new
//!   one — no rank ever materializes the full Schur complement. By
//!   default the re-shard is a *posted* exchange
//!   ([`lra_comm::Ctx::post_alltoallv`]): sends go out immediately,
//!   factor recording (and its `gatherv`) runs while the wire drains,
//!   and completion Schur-updates each received piece as it arrives —
//!   a three-stage software pipeline (post → overlap compute →
//!   complete) that hides the exchange behind work that was going to
//!   happen anyway. Re-shard part buffers are recycled across panel
//!   iterations from a pool, like the [`SchurWorkspace`] scratch. The
//!   non-overlapped path is kept as [`lu_crtp_spmd_eager`] /
//!   [`ilut_crtp_spmd_eager`] — the bitwise oracle for the pipeline
//!   (piece-at-a-time updates tile the new owned range in ascending
//!   column order, and the kernel computes each column independently,
//!   so the reordering moves no bits);
//! - the error indicator is a partial-norm allreduce, and ILUT
//!   thresholding combines per-shard dropped mass through the same
//!   allreduce tree on every rank.
//!
//! Only rank 0 accumulates the factor columns (small per-panel
//! fragments travel by `gatherv`); the final `L`/`U` are broadcast
//! once at the end, so the API contract — every rank returns the same
//! result — is unchanged.
//!
//! The previous fully-replicated driver is kept as
//! [`lu_crtp_spmd_replicated`] / [`ilut_crtp_spmd_replicated`]: it is
//! the bitwise oracle for the sharded driver (same column partition,
//! same arithmetic order, same reduction trees) and the reference the
//! tests compare against.
//!
//! The sequential entry points ([`crate::lu_crtp`],
//! [`crate::ilut_crtp`] and their checkpointed variants) are this same
//! sharded engine run on one in-process rank, so one LU_CRTP loop
//! serves every public LU/ILUT entry point.
//!
//! Numerics modes: `opts.numerics` reaches the Schur-update kernel
//! (FMA correction dots in `Fast`) and the error-indicator partials
//! (tree-reduced per-column sums in `Fast`) in *both* drivers, over
//! the *same* column partition — so sharded vs. replicated stays
//! bitwise-identical within either mode. The SPMD tournament and the
//! allgather-based panel TSQR keep their bitwise kernels in both
//! modes: their arithmetic is shaped by the rank grid, and keeping
//! them fixed is what lets a `Fast` run remain reproducible across
//! resume and redistribution paths.

use crate::checkpoint::IlutCheckpoint;
use crate::lucrtp::{
    schur_update_ranged, validate_matrix, Breakdown, DropStrategy, IlutOpts, InvalidInput,
    IterTrace, LFormation, LuCrtpOpts, LuCrtpResult, MemStats, OrderingMode, SchurWorkspace,
    ThresholdReport,
};
use crate::timers::{KernelId, KernelTimers};
use lra_comm::{CommError, Ctx, PendingExchange, RunConfig};
use lra_dense::{lu, pairwise_sum_sq, qr, DenseMatrix, LuFactor, Numerics};
use lra_ordering::fill_reducing_order;
use lra_par::{owned_range, parallel_chunks_mut, split_ranges, Parallelism};
use lra_qrtp::{
    tournament_columns_spmd, tournament_columns_spmd_sharded, ColumnSelection, TournamentTree,
};
use lra_sparse::{gather_csc, slice_columns_recycled, ColSlice, CscMatrix, SparseBuilder};
use std::ops::Range;

/// SPMD LU_CRTP: every rank calls this with the same `a` and `opts`
/// inside an [`lra_comm::run`] region; every rank returns the same
/// result. `opts.par` drives the intra-rank thread parallelism of the
/// local tournament stage, the Schur update and the ILUT threshold
/// pass (the default `SEQ` keeps each rank single-threaded); under the
/// default binary tournament tree results are bitwise-independent of
/// the worker count because every parallel kernel folds fixed-chunk
/// partials in ascending chunk order.
/// Each rank keeps only its owned block-column shard of the Schur
/// complement resident (see the module docs); the result's `mem`
/// field reports the peak per-rank shard storage.
pub fn lu_crtp_spmd(ctx: &Ctx, a: &CscMatrix, opts: &LuCrtpOpts) -> LuCrtpResult {
    lu_crtp_spmd_checkpointed(ctx, a, opts, None).expect("no hooks, so no resume mode mismatch")
}

/// [`lu_crtp_spmd`] with iteration checkpointing: at the end of each
/// covered iteration — a collective boundary — the shards are gathered
/// to rank 0, which snapshots the full loop state through `hooks`;
/// every rank resumes from the store's latest snapshot when one is
/// present, re-slicing its own shard from the snapshot for the
/// *current* rank count (so an `np -> np-1` shrink redistributes the
/// shards implicitly). All ranks must share the same store.
pub fn lu_crtp_spmd_checkpointed(
    ctx: &Ctx,
    a: &CscMatrix,
    opts: &LuCrtpOpts,
    hooks: Option<&crate::RecoveryHooks<'_>>,
) -> Result<LuCrtpResult, InvalidInput> {
    lra_obs::trace::span("lu_crtp_spmd", || {
        drive_spmd_sharded(ctx, a, opts, None, hooks, Reshard::Overlapped)
    })
}

/// SPMD ILUT_CRTP (Algorithm 3 over ranks): identical distribution to
/// [`lu_crtp_spmd`] plus sharded deterministic thresholding — each
/// rank drops entries of its own shard and the dropped-mass partials
/// are combined through a fixed allreduce tree, so all ranks agree on
/// the threshold bookkeeping bit for bit.
pub fn ilut_crtp_spmd(ctx: &Ctx, a: &CscMatrix, opts: &IlutOpts) -> LuCrtpResult {
    ilut_crtp_spmd_checkpointed(ctx, a, opts, None).expect("no hooks, so no resume mode mismatch")
}

/// [`ilut_crtp_spmd`] with iteration checkpointing (see
/// [`lu_crtp_spmd_checkpointed`]).
pub fn ilut_crtp_spmd_checkpointed(
    ctx: &Ctx,
    a: &CscMatrix,
    opts: &IlutOpts,
    hooks: Option<&crate::RecoveryHooks<'_>>,
) -> Result<LuCrtpResult, InvalidInput> {
    lra_obs::trace::span("ilut_crtp_spmd", || {
        drive_spmd_sharded(ctx, a, &opts.base, Some(opts), hooks, Reshard::Overlapped)
    })
}

/// Non-overlapped sharded LU_CRTP: identical to [`lu_crtp_spmd`]
/// except the per-panel re-shard exchange blocks eagerly before
/// factor recording instead of draining behind it. Kept as the
/// bitwise oracle for the overlapped pipeline — overlapped ≡ eager is
/// pinned by tests the same way sharded ≡ replicated is.
#[doc(hidden)]
pub fn lu_crtp_spmd_eager(ctx: &Ctx, a: &CscMatrix, opts: &LuCrtpOpts) -> LuCrtpResult {
    lra_obs::trace::span("lu_crtp_spmd_eager", || {
        drive_spmd_sharded(ctx, a, opts, None, None, Reshard::Eager)
            .expect("no hooks, so no resume mode mismatch")
    })
}

/// Eager-exchange oracle for [`ilut_crtp_spmd`] (see
/// [`lu_crtp_spmd_eager`]).
#[doc(hidden)]
pub fn ilut_crtp_spmd_eager(ctx: &Ctx, a: &CscMatrix, opts: &IlutOpts) -> LuCrtpResult {
    lra_obs::trace::span("ilut_crtp_spmd_eager", || {
        drive_spmd_sharded(ctx, a, &opts.base, Some(opts), None, Reshard::Eager)
            .expect("no hooks, so no resume mode mismatch")
    })
}

/// The fully-replicated SPMD LU_CRTP driver (every rank holds the
/// whole Schur complement). Kept as the bitwise oracle for
/// [`lu_crtp_spmd`]: the sharded driver partitions columns exactly as
/// this driver partitions its per-rank work, so the two produce
/// bit-identical results while differing only in resident storage.
#[doc(hidden)]
pub fn lu_crtp_spmd_replicated(ctx: &Ctx, a: &CscMatrix, opts: &LuCrtpOpts) -> LuCrtpResult {
    lra_obs::trace::span("lu_crtp_spmd_replicated", || {
        drive_spmd_replicated(ctx, a, opts, None, None)
            .expect("no hooks, so no resume mode mismatch")
    })
}

/// Replicated-storage oracle for [`ilut_crtp_spmd`] (see
/// [`lu_crtp_spmd_replicated`]).
#[doc(hidden)]
pub fn ilut_crtp_spmd_replicated(ctx: &Ctx, a: &CscMatrix, opts: &IlutOpts) -> LuCrtpResult {
    lra_obs::trace::span("ilut_crtp_spmd_replicated", || {
        drive_spmd_replicated(ctx, a, &opts.base, Some(opts), None)
            .expect("no hooks, so no resume mode mismatch")
    })
}

/// Convenience wrapper for [`ilut_crtp_spmd`] on `np` ranks. Panics if
/// any rank fails; use [`ilut_crtp_dist_checked`] to observe failures.
pub fn ilut_crtp_dist(a: &CscMatrix, opts: &IlutOpts, np: usize) -> LuCrtpResult {
    let mut results = lra_comm::run_infallible(np, |ctx| ilut_crtp_spmd(ctx, a, opts));
    results.swap_remove(0)
}

/// Fault-aware variant of [`ilut_crtp_dist`]: validates the input at
/// the API boundary ([`InvalidInput`] instead of a panic deep inside a
/// kernel), runs under an explicit [`RunConfig`] (watchdog window,
/// chaos [`lra_comm::FaultPlan`]), and returns every rank's outcome
/// instead of panicking on failure.
pub fn ilut_crtp_dist_checked(
    a: &CscMatrix,
    opts: &IlutOpts,
    np: usize,
    config: &RunConfig,
) -> Result<Vec<Result<LuCrtpResult, CommError>>, InvalidInput> {
    opts.validate()?;
    validate_matrix(a)?;
    Ok(lra_comm::run_with(np, config, |ctx| ilut_crtp_spmd(ctx, a, opts)).results)
}

/// Run the sharded engine on one in-process rank: the body of the
/// sequential entry points ([`crate::lu_crtp_checkpointed`],
/// [`crate::ilut_crtp_checkpointed`]).
pub(crate) fn drive_one_rank(
    a: &CscMatrix,
    opts: &LuCrtpOpts,
    ilut: Option<&IlutOpts>,
    hooks: Option<&crate::RecoveryHooks<'_>>,
) -> Result<LuCrtpResult, InvalidInput> {
    lra_comm::run_with(1, &RunConfig::default(), |ctx| {
        drive_spmd_sharded(ctx, a, opts, ilut, hooks, Reshard::Overlapped)
    })
    .unwrap_all()
    .swap_remove(0)
}

/// ILUT_CRTP threshold state carried through the loop (Algorithm 3,
/// lines 5 and 8-10), shared by the sharded engine and the replicated
/// oracle and round-tripped through [`IlutCheckpoint`]. Every rank
/// holds an identical copy: the decisions below only read allreduced
/// quantities.
struct IlutState {
    cfg: IlutOpts,
    mu: f64,
    phi: f64,
    mass_sq: f64,
    dropped: usize,
    control_triggered: bool,
}

impl IlutState {
    fn new(cfg: &IlutOpts) -> Self {
        IlutState {
            cfg: cfg.clone(),
            mu: 0.0,
            phi: 0.0,
            mass_sq: 0.0,
            dropped: 0,
            control_triggered: false,
        }
    }

    fn report(&self) -> ThresholdReport {
        ThresholdReport {
            mu: self.mu,
            phi: self.phi,
            dropped: self.dropped,
            dropped_mass_sq: self.mass_sq,
            control_triggered: self.control_triggered,
        }
    }

    fn checkpoint(&self) -> IlutCheckpoint {
        IlutCheckpoint {
            mu: self.mu,
            phi: self.phi,
            mass_sq: self.mass_sq,
            dropped: self.dropped,
            control_triggered: self.control_triggered,
        }
    }

    fn restore(&mut self, ck: IlutCheckpoint) {
        self.mu = ck.mu;
        self.phi = ck.phi;
        self.mass_sq = ck.mass_sq;
        self.dropped = ck.dropped;
        self.control_triggered = ck.control_triggered;
    }

    /// Line 5, after the first iteration: the drop threshold `mu`
    /// (eq. 24) and the control bound `phi` (eq. 22), both from the
    /// `|R^(1)(1,1)|` estimate `r11`.
    fn set_threshold(&mut self, tau: f64, r11: f64, a_nnz: usize) {
        self.mu = tau * r11 / (self.cfg.u_estimate as f64 * (a_nnz.max(1) as f64).sqrt());
        self.phi = self.cfg.phi_factor * tau * r11;
    }

    /// Squared mass the aggressive strategy may still drop.
    fn budget(&self) -> f64 {
        self.phi * self.phi - self.mass_sq
    }

    /// Aggressive strategy: walk the ascending candidate magnitudes
    /// `mags` and return the drop threshold that removes the smallest
    /// entries while the budget allows, or `None` when none fit.
    fn aggressive_threshold(&self, mags: &[f64]) -> Option<f64> {
        let budget = self.budget();
        let mut run = 0.0;
        let mut cutoff = 0.0;
        for &v in mags {
            if run + v * v >= budget {
                break;
            }
            run += v * v;
            cutoff = v;
        }
        (cutoff > 0.0).then_some(cutoff * (1.0 + 1e-15) + f64::MIN_POSITIVE)
    }

    /// Control (22) on a proposed drop of `count` entries with squared
    /// mass `mass`: accept it while the accumulated dropped mass stays
    /// below `phi`. A rejected fixed-threshold drop disables
    /// thresholding for the rest of the run (`mu = 0`).
    fn accept_drop(&mut self, mass: f64, count: u64) -> bool {
        if (self.mass_sq + mass).sqrt() < self.phi {
            self.mass_sq += mass;
            self.dropped += count as usize;
            true
        } else {
            if self.cfg.strategy == DropStrategy::Fixed {
                self.control_triggered = true;
                self.mu = 0.0;
            }
            false
        }
    }
}

/// The per-iteration blocks a rank derives from the (replicated)
/// pivot panel and its owned shard: `Ā11`/`Ā21` are replicated (they
/// are `O(b^2)` / `O(b)`-column objects built from the broadcast
/// panel), `Ā12`/`Ā22` exist only as the owned piece covering the
/// rank's run of rest columns.
struct PanelSplit {
    a11: DenseMatrix,
    a21: CscMatrix,
    rest_rows: Vec<usize>,
    rest_cols: Vec<usize>,
    /// Positions into `rest_cols` whose columns this rank owns (a
    /// contiguous run, since both orderings are ascending).
    my_run: Range<usize>,
    /// `Ā12` restricted to the owned rest columns.
    a12_piece: CscMatrix,
    /// `Ā22` restricted to the owned rest columns.
    a22_piece: CscMatrix,
}

/// An in-flight re-shard: the posted `alltoallv` plus the geometry of
/// the new column partition. Produced by
/// [`SpmdPanelCtx::post_reshard`], consumed by
/// [`SpmdPanelCtx::complete_reshard`]; the compute placed between the
/// two is what the wire time hides behind.
struct PendingReshard<'a> {
    pend: PendingExchange<'a, (CscMatrix, CscMatrix)>,
    new_ranges: Vec<Range<usize>>,
    m_rest: usize,
    n_rest: usize,
}

/// Panel engine for the sharded SPMD driver: the communicator, the
/// rank's owned block-column [`ColSlice`] of the current Schur
/// complement, and the replicated global dimensions, with one method
/// per distributed stage of an LU_CRTP iteration. The shard invariant:
/// after construction and after every re-shard (eager
/// [`Self::schur_redistribute`] or overlapped
/// [`Self::complete_reshard`]), this rank owns exactly
/// `owned_range(split_ranges(n_cur, size),
/// rank)` — the same partition the replicated oracle uses for its
/// per-rank work, which is what makes the two drivers bit-identical.
struct SpmdPanelCtx<'a> {
    ctx: &'a Ctx,
    rank: usize,
    size: usize,
    shard: ColSlice,
    /// Global column count of the (virtual) Schur complement.
    n_cur: usize,
    /// Tree shape of the local tournament stage (`opts.tree`).
    tree: TournamentTree,
    /// Intra-rank worker count for the owned-range kernels (local
    /// tournament stage, Schur update, threshold pass) — `opts.par`.
    par: Parallelism,
    /// Kernel numerics mode (`opts.numerics`): reaches the Schur
    /// update and the indicator partials; the distributed tournament
    /// and panel TSQR stay bitwise in both modes (module docs).
    numerics: Numerics,
    /// Kernel scratch reused across iterations (transpose target,
    /// correction vector).
    ws: SchurWorkspace,
    /// Retired re-shard part buffers recycled across panel iterations:
    /// [`Self::build_reshard_parts`] pops donors instead of allocating
    /// `2·np` fresh matrices per panel, and the received parts return
    /// to the pool once their columns are folded into the new shard.
    /// Pool capacity is scratch, not resident state — it is *not*
    /// counted by [`Self::note_mem`] (the mem gates track the shard).
    part_pool: Vec<CscMatrix>,
    peak_bytes: usize,
    peak_nnz: usize,
}

impl<'a> SpmdPanelCtx<'a> {
    fn new(ctx: &'a Ctx, shard: ColSlice, n_cur: usize, opts: &LuCrtpOpts) -> Self {
        let mut eng = SpmdPanelCtx {
            ctx,
            rank: ctx.rank(),
            size: ctx.size(),
            shard,
            n_cur,
            tree: opts.tree,
            par: opts.par,
            numerics: opts.numerics,
            ws: SchurWorkspace::new(),
            part_pool: Vec::new(),
            peak_bytes: 0,
            peak_nnz: 0,
        };
        eng.note_mem();
        eng
    }

    /// Slice this rank's shard out of a full (e.g. checkpointed)
    /// Schur complement under the *current* rank count — resuming a
    /// snapshot written by a larger grid redistributes implicitly.
    fn from_full(ctx: &'a Ctx, s: &CscMatrix, opts: &LuCrtpOpts) -> Self {
        let ranges = split_ranges(s.cols(), ctx.size());
        let my = owned_range(&ranges, ctx.rank());
        Self::new(ctx, ColSlice::from_full(s, my), s.cols(), opts)
    }

    fn note_mem(&mut self) {
        self.peak_bytes = self.peak_bytes.max(self.shard.resident_bytes());
        self.peak_nnz = self.peak_nnz.max(self.shard.nnz());
    }

    fn m_act(&self) -> usize {
        self.shard.rows()
    }

    /// Column tournament over the distributed Schur complement; winner
    /// columns travel with their global ids, and the selected panel is
    /// broadcast so every rank holds the `O(m b)` pivot columns.
    fn col_tournament(&self, k_want: usize) -> (ColumnSelection, CscMatrix) {
        tournament_columns_spmd_sharded(self.ctx, &self.shard, k_want, self.tree, self.par)
    }

    /// Row tournament on `Q_k^T` (replicated input, distributed tree).
    fn row_tournament(&self, qk: &DenseMatrix, k_eff: usize) -> Vec<usize> {
        let qt = qk.transpose();
        tournament_columns_spmd(self.ctx, &qt, None, k_eff, self.tree, self.par).selected
    }

    /// `OrderingMode::EveryIteration`: gather the Schur complement to
    /// rank 0, compute its fill-reducing column order there, and
    /// scatter the permuted columns back over the unchanged partition.
    /// Returns the order (replicated on every rank) for the caller's
    /// column map.
    fn reorder(&mut self) -> Vec<usize> {
        let mine = std::mem::replace(&mut self.shard, ColSlice::new(0, CscMatrix::zeros(0, 0)));
        let ranges = split_ranges(self.n_cur, self.size);
        let (perm, pieces) = match self.ctx.gatherv(0, mine.into_local()) {
            Some(parts) => {
                let s = gather_csc(&parts);
                let perm = fill_reducing_order(&s);
                let s = s.select_columns(&perm);
                let pieces = (0..self.size)
                    .map(|r| ColSlice::from_full(&s, owned_range(&ranges, r)).into_local())
                    .collect();
                (perm, Some(pieces))
            }
            None => (Vec::new(), None),
        };
        let perm = self.ctx.broadcast(0, perm);
        let local: CscMatrix = self.ctx.scatterv(0, pieces);
        self.shard = ColSlice::new(owned_range(&ranges, self.rank).start, local);
        self.note_mem();
        perm
    }

    /// Panel TSQR over rank-owned row blocks of the broadcast pivot
    /// panel: local QR, allgather the small R factors, replicated root
    /// QR, local Q reconstruction, allgather the Q blocks. Identical
    /// arithmetic to the replicated oracle — the dense row blocks
    /// gathered from the compact panel equal those gathered from the
    /// full Schur complement.
    fn panel_qr(&self, panel: &CscMatrix, k_eff: usize) -> (Vec<f64>, DenseMatrix) {
        let m_act = self.m_act();
        let pidx: Vec<usize> = (0..k_eff).collect();
        let blocks = split_ranges(m_act, self.size.min((m_act / k_eff.max(1)).max(1)));
        let my_block = blocks.get(self.rank).cloned();
        let (my_r, my_f) = match &my_block {
            Some(rg) => {
                let local = panel.gather_columns_rows_dense(&pidx, rg.clone());
                let f = qr(&local, Parallelism::SEQ);
                (f.r(), Some(f))
            }
            None => (DenseMatrix::zeros(0, k_eff), None),
        };
        let all_r: Vec<DenseMatrix> = self.ctx.allgather(my_r);
        let mut stacked: Option<DenseMatrix> = None;
        for r in all_r {
            if r.rows() == 0 {
                continue;
            }
            stacked = Some(match stacked {
                None => r,
                Some(prev) => prev.vcat(&r),
            });
        }
        let top = qr(&stacked.expect("empty panel"), Parallelism::SEQ);
        let panel_r_diag: Vec<f64> =
            top.r_diag().iter().map(|v| v.abs()).take(k_eff).collect();
        let qs = top.q_thin(Parallelism::SEQ);
        // Back-propagate this rank's block of Q.
        let my_q = match (&my_block, my_f) {
            (Some(rg), Some(f)) => {
                // Rows of qs owned by this rank: blocks before ours
                // contribute min(block_len, k_eff) rows each.
                let mut off = 0;
                for (b, brange) in blocks.iter().enumerate() {
                    if b == self.rank {
                        break;
                    }
                    off += brange.len().min(k_eff);
                }
                let my_rows = rg.len().min(k_eff);
                let mut piece = DenseMatrix::zeros(rg.len(), k_eff);
                for j in 0..k_eff {
                    for i in 0..my_rows {
                        piece.set(i, j, qs.get(off + i, j));
                    }
                }
                f.apply_q(&mut piece, Parallelism::SEQ);
                piece
            }
            _ => DenseMatrix::zeros(0, k_eff),
        };
        let all_q: Vec<DenseMatrix> = self.ctx.allgather(my_q);
        let mut qk = DenseMatrix::zeros(m_act, k_eff);
        let mut row0 = 0;
        for q in all_q {
            if q.rows() == 0 {
                continue;
            }
            qk.set_submatrix(row0, 0, &q);
            row0 += q.rows();
        }
        (panel_r_diag, qk)
    }

    /// The `[Ā11 Ā12; Ā21 Ā22]` split of Algorithm 2 line 8, sharded:
    /// the pivot blocks come from the replicated panel, the rest
    /// blocks only from the owned columns. Entry classification, sort,
    /// and zero-skipping mirror `CscMatrix::split_blocks` exactly.
    fn split_panel(
        &self,
        panel: &CscMatrix,
        pivot_rows: &[usize],
        pivot_cols: &[usize],
    ) -> PanelSplit {
        let k = pivot_rows.len();
        let m_act = self.m_act();
        const UNSET: usize = usize::MAX;
        let mut row_new = vec![UNSET; m_act];
        for (p, &r) in pivot_rows.iter().enumerate() {
            debug_assert!(row_new[r] == UNSET, "duplicate pivot row");
            row_new[r] = p;
        }
        let mut rest_rows = Vec::with_capacity(m_act - k);
        for r in 0..m_act {
            if row_new[r] == UNSET {
                row_new[r] = k + rest_rows.len();
                rest_rows.push(r);
            }
        }
        let mut col_is_pivot = vec![false; self.n_cur];
        for &c in pivot_cols {
            debug_assert!(!col_is_pivot[c], "duplicate pivot column");
            col_is_pivot[c] = true;
        }
        let rest_cols: Vec<usize> = (0..self.n_cur).filter(|&c| !col_is_pivot[c]).collect();

        let mut a11 = DenseMatrix::zeros(k, k);
        let mut a21 = SparseBuilder::new(m_act - k, k);
        let mut buf_top: Vec<(usize, f64)> = Vec::new();
        let mut buf_bot: Vec<(usize, f64)> = Vec::new();
        for p in 0..k {
            let (ri, vs) = panel.col(p);
            buf_bot.clear();
            for (&r, &v) in ri.iter().zip(vs) {
                let nr = row_new[r];
                if nr < k {
                    a11.set(nr, p, v);
                } else {
                    buf_bot.push((nr - k, v));
                }
            }
            buf_bot.sort_unstable_by_key(|&(r, _)| r);
            a21.push_col(&buf_bot);
        }

        // The owned rest columns form a contiguous run of `rest_cols`
        // positions (both orderings ascend).
        let rg = self.shard.col_range();
        let lo = rest_cols.partition_point(|&c| c < rg.start);
        let hi = rest_cols.partition_point(|&c| c < rg.end);
        let my_run = lo..hi;
        let mut a12 = SparseBuilder::new(k, my_run.len());
        let mut a22 = SparseBuilder::new(m_act - k, my_run.len());
        for &c in &rest_cols[my_run.clone()] {
            let (ri, vs) = self.shard.col(c);
            buf_top.clear();
            buf_bot.clear();
            for (&r, &v) in ri.iter().zip(vs) {
                let nr = row_new[r];
                if nr < k {
                    buf_top.push((nr, v));
                } else {
                    buf_bot.push((nr - k, v));
                }
            }
            buf_top.sort_unstable_by_key(|&(r, _)| r);
            buf_bot.sort_unstable_by_key(|&(r, _)| r);
            a12.push_col(&buf_top);
            a22.push_col(&buf_bot);
        }
        PanelSplit {
            a11,
            a21: a21.finish(),
            rest_rows,
            rest_cols,
            my_run,
            a12_piece: a12.finish(),
            a22_piece: a22.finish(),
        }
    }

    /// `L21` solve: `Ā21` rows scattered across ranks, `Ā11`
    /// replicated (broadcast in the paper), result allgathered — the
    /// small dense `X^T` is needed in full by every rank's Schur
    /// correction under a 1-D column distribution.
    fn solve_l21(
        &mut self,
        a21: &CscMatrix,
        lu11: &LuFactor,
        k_eff: usize,
    ) -> (Vec<usize>, DenseMatrix) {
        a21.transpose_into(&mut self.ws.tbuf);
        let a21t = &self.ws.tbuf;
        let x_rows: Vec<usize> = (0..a21t.cols()).filter(|&c| a21t.col_nnz(c) > 0).collect();
        let nr = x_rows.len();
        let ranges = split_ranges(nr, self.size);
        let my_range = owned_range(&ranges, self.rank);
        let mut my_xt = DenseMatrix::zeros(k_eff, my_range.len());
        for (slot, xi) in my_range.clone().enumerate() {
            let col = my_xt.col_mut(slot);
            let (ri, vs) = a21t.col(x_rows[xi]);
            for (&t, &v) in ri.iter().zip(vs) {
                col[t] = v;
            }
            lu11.solve_transpose_slice(col);
        }
        let all_xt: Vec<DenseMatrix> = self.ctx.allgather(my_xt);
        let mut xt = DenseMatrix::zeros(k_eff, nr);
        let mut c0 = 0;
        for part in all_xt {
            if part.cols() == 0 {
                continue;
            }
            xt.set_submatrix(0, c0, &part);
            c0 += part.cols();
        }
        (x_rows, xt)
    }

    /// Schur update on owned columns only, with an `alltoallv`
    /// re-sharding from the old column partition to the new one. Both
    /// partitions are ascending contiguous tilings, so each (src, dst)
    /// exchange is one contiguous column run and concatenating the
    /// received runs in source-rank order reassembles the new owned
    /// block in order. The updated shard replaces the old one — the
    /// full next Schur complement is never materialized.
    fn schur_redistribute(&mut self, sp: &PanelSplit, x_rows: &[usize], xt: &DenseMatrix) {
        let m_rest = sp.a22_piece.rows();
        let n_rest = sp.rest_cols.len();
        let new_ranges = split_ranges(n_rest, self.size);
        let parts = self.build_reshard_parts(sp, &new_ranges);
        self.release_shard();
        let got = self.ctx.alltoallv(parts);
        let (p12, p22): (Vec<CscMatrix>, Vec<CscMatrix>) = got.into_iter().unzip();
        let a12_own = gather_csc(&p12);
        let a22_own = gather_csc(&p22);
        for (x, y) in p12.into_iter().zip(p22) {
            self.part_pool.extend([x, y]);
        }
        let my_new = owned_range(&new_ranges, self.rank);
        debug_assert_eq!(a22_own.cols(), my_new.len());
        let (lens, rows_out, vals_out) = schur_update_ranged(
            &a22_own,
            x_rows,
            xt,
            &a12_own,
            0..a22_own.cols(),
            &mut self.ws,
            self.par,
            self.numerics,
        );
        let mut colptr = Vec::with_capacity(lens.len() + 1);
        colptr.push(0);
        let mut run = 0usize;
        for l in lens {
            run += l;
            colptr.push(run);
        }
        let next_local = CscMatrix::from_parts(m_rest, my_new.len(), colptr, rows_out, vals_out);
        self.shard = ColSlice::new(my_new.start, next_local);
        self.n_cur = n_rest;
        self.note_mem();
    }

    /// Drop the old shard once [`Self::split_panel`] has copied out
    /// everything the iteration still needs, so it is not resident
    /// alongside the next Schur complement.
    fn release_shard(&mut self) {
        self.shard = ColSlice::empty(0, 0);
    }

    /// Build the per-destination `(Ā12, Ā22)` column-run parts of the
    /// re-shard exchange. Part buffers retired by previous iterations
    /// are recycled from [`Self::part_pool`], so once part sizes reach
    /// steady state the `2·np` allocations per panel disappear.
    fn build_reshard_parts(
        &mut self,
        sp: &PanelSplit,
        new_ranges: &[Range<usize>],
    ) -> Vec<(CscMatrix, CscMatrix)> {
        let my_run = &sp.my_run;
        let mut parts: Vec<(CscMatrix, CscMatrix)> = Vec::with_capacity(self.size);
        for dst in 0..self.size {
            let drg = owned_range(new_ranges, dst);
            let lo = my_run.start.max(drg.start);
            let hi = my_run.end.min(drg.end);
            let local = if lo < hi {
                (lo - my_run.start)..(hi - my_run.start)
            } else {
                0..0
            };
            // Retired parts are pooled as (`Ā12`, `Ā22`) pairs, so popping
            // the `Ā22` donor first hands each role a buffer of its size.
            let d22 = self.part_pool.pop().unwrap_or_else(|| CscMatrix::zeros(0, 0));
            let d12 = self.part_pool.pop().unwrap_or_else(|| CscMatrix::zeros(0, 0));
            parts.push((
                slice_columns_recycled(&sp.a12_piece, local.clone(), d12),
                slice_columns_recycled(&sp.a22_piece, local, d22),
            ));
        }
        parts
    }

    /// Post the re-shard exchange for the just-eliminated panel
    /// without waiting for it: the sends go out now, the receives wait
    /// inside the returned [`PendingReshard`]. Work issued between
    /// this and [`Self::complete_reshard`] — factor recording and its
    /// `gatherv`, which uses a different tag namespace — runs while
    /// the wire drains.
    fn post_reshard(&mut self, sp: &PanelSplit) -> PendingReshard<'a> {
        let m_rest = sp.a22_piece.rows();
        let n_rest = sp.rest_cols.len();
        let new_ranges = split_ranges(n_rest, self.size);
        let parts = self.build_reshard_parts(sp, &new_ranges);
        self.release_shard();
        PendingReshard {
            pend: self.ctx.post_alltoallv(parts),
            new_ranges,
            m_rest,
            n_rest,
        }
    }

    /// Complete a posted re-shard: drain the exchange in source-rank
    /// order, Schur-updating each `(Ā12, Ā22)` piece the moment it
    /// arrives — per-piece compute hides the tail of the drain — and
    /// concatenate the per-piece results. Bitwise-identical to the
    /// eager [`Self::schur_redistribute`]: the pieces tile the new
    /// owned range in ascending column order and the kernel computes
    /// every column independently (same per-column arithmetic, same
    /// ascending emission), so splitting the single gathered pass at
    /// piece boundaries moves no bits.
    fn complete_reshard(&mut self, pr: PendingReshard<'a>, x_rows: &[usize], xt: &DenseMatrix) {
        let PendingReshard {
            pend,
            new_ranges,
            m_rest,
            n_rest,
        } = pr;
        let my_new = owned_range(&new_ranges, self.rank);
        let mut lens: Vec<usize> = Vec::with_capacity(my_new.len());
        let mut rows_out: Vec<usize> = Vec::new();
        let mut vals_out: Vec<f64> = Vec::new();
        {
            let ws = &mut self.ws;
            let pool = &mut self.part_pool;
            let (par, numerics) = (self.par, self.numerics);
            pend.complete_with(|_src, (p12, p22): (CscMatrix, CscMatrix)| {
                debug_assert_eq!(p22.rows(), m_rest);
                let (l, r, v) =
                    schur_update_ranged(&p22, x_rows, xt, &p12, 0..p22.cols(), ws, par, numerics);
                lens.extend(l);
                rows_out.extend(r);
                vals_out.extend(v);
                pool.push(p12);
                pool.push(p22);
            });
        }
        debug_assert_eq!(lens.len(), my_new.len());
        let mut colptr = Vec::with_capacity(lens.len() + 1);
        colptr.push(0);
        let mut run = 0usize;
        for l in lens {
            run += l;
            colptr.push(run);
        }
        let next_local = CscMatrix::from_parts(m_rest, my_new.len(), colptr, rows_out, vals_out);
        self.shard = ColSlice::new(my_new.start, next_local);
        self.n_cur = n_rest;
        self.note_mem();
    }

    /// Gather this iteration's `U` fragments — `(global column, value)`
    /// pairs from each rank's owned `Ā12` piece, keyed by panel row —
    /// to rank 0, which alone accumulates the factors. Returns `None`
    /// on every other rank.
    fn factor_fragments(
        &self,
        sp: &PanelSplit,
        col_map: &[usize],
        k_eff: usize,
    ) -> Option<Vec<Vec<(usize, f64)>>> {
        let mut frags: Vec<Vec<(usize, f64)>> = vec![Vec::new(); k_eff];
        for (slot, j) in sp.my_run.clone().enumerate() {
            let gcol = col_map[sp.rest_cols[j]];
            let (ri, vs) = sp.a12_piece.col(slot);
            for (&t, &v) in ri.iter().zip(vs) {
                frags[t].push((gcol, v));
            }
        }
        let gathered = self.ctx.gatherv(0, frags)?;
        let mut out: Vec<Vec<(usize, f64)>> = vec![Vec::new(); k_eff];
        for rank_frags in gathered {
            for (t, f) in rank_frags.into_iter().enumerate() {
                out[t].extend(f);
            }
        }
        Some(out)
    }

    /// Error indicator `||A^(i+1)||_F`: partial squared norm of the
    /// owned shard + allreduce — the same per-column summation nesting
    /// and reduction tree as the replicated oracle. In `Fast` mode the
    /// per-column sums are tree-reduced ([`pairwise_sum_sq`]) and the
    /// cross-column accumulation stays ascending, again matching the
    /// replicated oracle's `Fast` partials column for column.
    fn indicator(&self) -> f64 {
        let local = if self.numerics.is_fast() {
            let loc = self.shard.local();
            let mut acc = 0.0f64;
            for j in 0..loc.cols() {
                acc += pairwise_sum_sq(loc.col(j).1);
            }
            acc
        } else {
            self.shard.fro_norm_sq_cols()
        };
        self.ctx.allreduce(local, |x, y| x + y).sqrt()
    }

    /// Trace entry for the Schur complement as the next iteration sees
    /// it (post-drop under ILUT_CRTP), with its exact global nnz from
    /// an integer allreduce over shard counts.
    fn trace_entry(
        &self,
        iteration: usize,
        rank: usize,
        indicator: f64,
        r_diag: &[f64],
    ) -> IterTrace {
        let nnz = self.ctx.allreduce(self.shard.nnz() as u64, |x, y| x + y) as usize;
        schur_trace(iteration, rank, indicator, nnz, self.m_act(), self.n_cur, r_diag)
    }

    /// ILUT_CRTP lines 5, 8-10 over the distributed Schur complement:
    /// each rank runs the threshold pass over its owned shard in
    /// parallel fixed-width column chunks (per-chunk partials folded in
    /// ascending chunk order, then per-rank partials combined through
    /// the same allreduce tree on every rank), so the control decision
    /// (eq. 22) is replicated bit for bit and matches the replicated
    /// oracle's [`CscMatrix::dropped_mass_in_cols_par`] partials.
    fn ilut_drop(&mut self, state: &mut IlutState) {
        let thr = match state.cfg.strategy {
            DropStrategy::Fixed => state.mu,
            DropStrategy::Aggressive => {
                if state.budget() <= 0.0 {
                    return;
                }
                // Concatenating per-shard candidate lists in rank order
                // and sorting yields the full matrix's sorted list.
                let all: Vec<Vec<f64>> = self
                    .ctx
                    .allgather(self.shard.small_entry_magnitudes(state.phi));
                let mut mags: Vec<f64> = all.concat();
                mags.sort_by(|x, y| x.partial_cmp(y).unwrap());
                match state.aggressive_threshold(&mags) {
                    Some(thr) => thr,
                    None => return,
                }
            }
        };
        let (dropped_shard, my_mass, my_count) = self.shard.drop_below_par(thr, self.par);
        let (mass, count) = self
            .ctx
            .allreduce((my_mass, my_count as u64), |x, y| (x.0 + y.0, x.1 + y.1));
        if state.accept_drop(mass, count) {
            self.shard = dropped_shard;
        }
    }

    /// Sharded snapshot: gather per-rank shard envelopes to rank 0 at
    /// this collective boundary and let rank 0 write the (full,
    /// format-unchanged) checkpoint — sequential and supervised
    /// consumers keep working, and a resume under a smaller grid
    /// re-slices the shards. Every rank must call this (it contains a
    /// collective); only rank 0 touches the store.
    #[allow(clippy::too_many_arguments)]
    fn save_checkpoint(
        &self,
        h: &crate::RecoveryHooks<'_>,
        m: usize,
        n: usize,
        iterations: usize,
        k_rank: usize,
        indicator: f64,
        r11: f64,
        row_map: &[usize],
        col_map: &[usize],
        l_cols: &[Vec<(usize, f64)>],
        ut_cols: &[Vec<(usize, f64)>],
        pivot_rows: &[usize],
        pivot_cols: &[usize],
        trace: &[IterTrace],
        ilut: Option<&IlutState>,
    ) {
        let parts = self.ctx.gatherv(0, self.shard.local().clone());
        if let Some(parts) = parts {
            let full = gather_csc(&parts);
            let ck = crate::checkpoint::make_snapshot(
                m,
                n,
                iterations,
                k_rank,
                indicator,
                r11,
                &full,
                row_map,
                col_map,
                l_cols,
                ut_cols,
                pivot_rows,
                pivot_cols,
                trace,
                ilut.map(IlutState::checkpoint),
                self.numerics,
            );
            crate::checkpoint::save_snapshot(h, &ck);
        }
    }

    /// Max-over-ranks peak shard storage (identical on every rank).
    fn mem_stats(&self) -> MemStats {
        let (bytes, nnz) = self.ctx.allreduce(
            (self.peak_bytes as u64, self.peak_nnz as u64),
            |x, y| (x.0.max(y.0), x.1.max(y.1)),
        );
        MemStats {
            peak_rank_bytes: bytes,
            peak_rank_nnz: nnz,
        }
    }
}

/// Re-shard scheduling of the sharded driver: `Overlapped` posts the
/// per-panel exchange and hides the wire behind factor recording plus
/// per-piece Schur updates (the default); `Eager` is the original
/// blocking exchange, kept as the bitwise oracle for the pipeline.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Reshard {
    Overlapped,
    Eager,
}

/// One [`IterTrace`] entry for an `m x n` Schur complement holding
/// `nnz` entries.
fn schur_trace(
    iteration: usize,
    rank: usize,
    indicator: f64,
    nnz: usize,
    m: usize,
    n: usize,
    r_diag: &[f64],
) -> IterTrace {
    IterTrace {
        iteration,
        rank,
        indicator,
        schur_nnz: nnz,
        schur_density: if m == 0 || n == 0 {
            0.0
        } else {
            nnz as f64 / (m as f64 * n as f64)
        },
        schur_nnz_per_row: if m == 0 { 0.0 } else { nnz as f64 / m as f64 },
        r_diag: r_diag.to_vec(),
    }
}

/// `L21 = Q̄21 Q̄11^{-1}` ([`LFormation::QBased`]) — the stability
/// variant, dense in every trailing row. Built from the replicated
/// `Q_k` alone, so every rank computes the same `X^T` with no
/// communication.
fn l21_qbased(
    qk: &DenseMatrix,
    pivot_rows: &[usize],
    rest_rows: &[usize],
    k: usize,
    par: Parallelism,
) -> (Vec<usize>, DenseMatrix) {
    let q21 = qk.select_rows(rest_rows);
    let lu11 = lu(&qk.select_rows(pivot_rows));
    let nr = rest_rows.len();
    let mut xt = DenseMatrix::zeros(k, nr);
    parallel_chunks_mut(par, xt.as_mut_slice(), k, |c, col| {
        for (t, x) in col.iter_mut().enumerate() {
            *x = q21.get(c, t);
        }
        lu11.solve_transpose_slice(col);
    });
    ((0..nr).collect(), xt)
}

/// Factor columns in original coordinates, accumulated as sparse
/// columns (`L` over rows, `U^T` over columns) and assembled once at
/// the end of the loop.
fn assemble_factors(
    m: usize,
    n: usize,
    l_cols: &[Vec<(usize, f64)>],
    ut_cols: &[Vec<(usize, f64)>],
) -> (CscMatrix, CscMatrix) {
    let mut l = SparseBuilder::new(m, l_cols.len());
    for col in l_cols {
        l.push_col(col);
    }
    let mut ut = SparseBuilder::new(n, ut_cols.len());
    for col in ut_cols {
        ut.push_col(col);
    }
    (l.finish(), ut.finish().transpose())
}

#[allow(clippy::too_many_lines)]
fn drive_spmd_sharded(
    ctx: &Ctx,
    a: &CscMatrix,
    opts: &LuCrtpOpts,
    ilut: Option<&IlutOpts>,
    hooks: Option<&crate::RecoveryHooks<'_>>,
    reshard: Reshard,
) -> Result<LuCrtpResult, InvalidInput> {
    let m = a.rows();
    let n = a.cols();
    let size = ctx.size();
    let rank = ctx.rank();
    let mut ilut = ilut.map(IlutState::new);
    if rank == 0 {
        lra_obs::metrics::global().set_gauge(
            "kernel.numerics_mode",
            if opts.numerics.is_fast() { 1.0 } else { 0.0 },
        );
    }
    let mut timers = KernelTimers::new();
    let a_norm_f = a.fro_norm();
    let stop = opts.tau * a_norm_f;
    let rank_cap = opts.max_rank.unwrap_or(usize::MAX).min(m.min(n));
    if a_norm_f == 0.0 {
        return Ok(LuCrtpResult {
            l: CscMatrix::zeros(m, 0),
            u: CscMatrix::zeros(0, n),
            pivot_rows: Vec::new(),
            pivot_cols: Vec::new(),
            rank: 0,
            iterations: 0,
            converged: true,
            breakdown: None,
            indicator: 0.0,
            a_norm_f,
            r11: 0.0,
            trace: Vec::new(),
            timers,
            threshold: ilut.map(|st| st.report()),
            mem: Some(MemStats::default()),
            trip: None,
        });
    }

    let mut row_map: Vec<usize>;
    let mut col_map: Vec<usize>;
    // Factor columns accumulate on rank 0 only; everyone else keeps
    // these empty and receives L/U in the final broadcast.
    let mut l_cols: Vec<Vec<(usize, f64)>> = Vec::new();
    let mut ut_cols: Vec<Vec<(usize, f64)>> = Vec::new();
    let mut pivot_rows_glob: Vec<usize> = Vec::new();
    let mut pivot_cols_glob: Vec<usize> = Vec::new();
    let mut trace: Vec<IterTrace> = Vec::new();
    let mut k_rank = 0usize;
    let mut iterations = 0usize;
    let mut converged = false;
    let mut breakdown = None;
    let mut indicator = a_norm_f;
    let mut r11 = 0.0f64;
    let mut trip: Option<lra_recover::BudgetTrip> = None;
    let clock = opts.budget.start();

    // Resume: every rank loads the same shared store and re-slices its
    // own shard for the *current* rank count — a snapshot written by a
    // larger grid redistributes here with no extra communication.
    let resume = match hooks {
        Some(h) => crate::checkpoint::load_resume(h, m, n, ilut.is_some(), opts.numerics)?,
        None => None,
    };
    let mut eng: SpmdPanelCtx<'_>;
    if let Some(ck) = resume {
        row_map = ck.row_map;
        col_map = ck.col_map;
        if rank == 0 {
            l_cols = ck.l_cols;
            ut_cols = ck.ut_cols;
        }
        pivot_rows_glob = ck.pivot_rows;
        pivot_cols_glob = ck.pivots.selected;
        trace = ck.trace;
        k_rank = ck.rank;
        iterations = ck.iterations;
        indicator = ck.indicator;
        r11 = ck.r11;
        if let (Some(st), Some(ick)) = (ilut.as_mut(), ck.ilut) {
            st.restore(ick);
        }
        eng = SpmdPanelCtx::from_full(ctx, &ck.s, opts);
    } else {
        // Preprocessing on rank 0, broadcast (COLAMD is intrinsically
        // sequential — "we apply COLAMD as a preprocessing step").
        let initial_cols: Vec<usize> = timers.time(KernelId::Permute, || match opts.ordering {
            OrderingMode::Natural => (0..n).collect(),
            _ => {
                let p = if rank == 0 {
                    fill_reducing_order(a)
                } else {
                    Vec::new()
                };
                ctx.broadcast(0, p)
            }
        });
        // Only the owned block of the permuted input is extracted; the
        // full Schur complement never exists on any rank.
        let ranges = split_ranges(n, size);
        let my = owned_range(&ranges, rank);
        let local = a.select_columns(&initial_cols[my.clone()]);
        eng = SpmdPanelCtx::new(ctx, ColSlice::new(my.start, local), n, opts);
        row_map = (0..m).collect();
        col_map = initial_cols;
    }

    loop {
        ctx.begin_iteration(iterations as u64 + 1);
        // Budget check at the iteration boundary: every rank evaluates
        // its *local* verdict (per-rank shard bytes, its own clock),
        // then the group agrees on one trip through a fixed allreduce —
        // the same discipline as poison broadcast, so no rank can break
        // out of the collective schedule alone. `opts` is replicated,
        // so the `is_unlimited` branch itself cannot desync the group.
        if !opts.budget.is_unlimited() {
            let local = clock.check(iterations as u64, eng.shard.resident_bytes() as u64);
            let agreed = ctx
                .allreduce_opt(local.map(|t| t.to_wire()), lra_recover::BudgetTrip::merge_wire)
                .and_then(|(k, x, y)| lra_recover::BudgetTrip::from_wire(k, x, y));
            if let Some(t) = agreed {
                // Trip-boundary snapshot (collective — all ranks agreed,
                // all ranks enter). Skipped when the cadence already
                // covered this iteration.
                if let Some(h) = hooks {
                    if iterations > 0 && !h.should_save(iterations) {
                        eng.save_checkpoint(
                            h,
                            m,
                            n,
                            iterations,
                            k_rank,
                            indicator,
                            r11,
                            &row_map,
                            &col_map,
                            &l_cols,
                            &ut_cols,
                            &pivot_rows_glob,
                            &pivot_cols_glob,
                            &trace,
                            ilut.as_ref(),
                        );
                    }
                }
                if rank == 0 {
                    lra_recover::record_event(&lra_recover::RecoveryEvent::BudgetTrip {
                        trip: t.clone(),
                        iteration: iterations,
                    });
                }
                trip = Some(t);
                break;
            }
        }
        if eng.m_act() == 0 || eng.n_cur == 0 || k_rank >= rank_cap {
            if indicator >= stop {
                breakdown = Some(Breakdown::RankExhausted);
            }
            break;
        }
        if opts.ordering == OrderingMode::EveryIteration && iterations > 0 {
            let perm = timers.time(KernelId::Permute, || eng.reorder());
            col_map = perm.iter().map(|&p| col_map[p]).collect();
        }
        let k_want = opts.k.min(eng.n_cur).min(eng.m_act()).min(rank_cap - k_rank);

        // Column tournament: distributed matrix, distributed tree.
        let (sel, panel) = timers.time(KernelId::ColTournament, || eng.col_tournament(k_want));
        if iterations == 0 {
            r11 = sel.r_diag.first().copied().unwrap_or(0.0).abs();
        }
        let k_eff = sel.selected.len();
        if k_eff == 0 {
            breakdown = Some(Breakdown::RankExhausted);
            break;
        }

        let (panel_r_diag, qk) = timers.time(KernelId::PanelQr, || eng.panel_qr(&panel, k_eff));
        if panel_r_diag.iter().any(|v| !v.is_finite()) {
            lra_recover::record_guard_trip(format!(
                "non-finite panel R diagonal at iteration {}",
                iterations + 1
            ));
            breakdown = Some(Breakdown::NonFinite);
            break;
        }

        let rows = timers.time(KernelId::RowTournament, || eng.row_tournament(&qk, k_eff));
        if rows.len() < k_eff {
            breakdown = Some(Breakdown::RankExhausted);
            break;
        }

        // Split: replicated pivot blocks, owned rest pieces.
        let sp = timers.time(KernelId::Permute, || {
            eng.split_panel(&panel, &rows, &sel.selected)
        });

        let lu11 = lu(&sp.a11);
        if lu11.is_singular() {
            breakdown = Some(Breakdown::SingularPivotBlock);
            break;
        }

        let (x_rows, xt) = timers.time(KernelId::LSolve, || match opts.l_formation {
            LFormation::Direct => eng.solve_l21(&sp.a21, &lu11, k_eff),
            LFormation::QBased => l21_qbased(&qk, &rows, &sp.rest_rows, k_eff, opts.par),
        });

        // Schur complement on owned columns + re-sharding alltoallv.
        // Overlapped (the default): post the exchange now — sends
        // never block — record factors while the wire drains, then
        // complete, Schur-updating each piece as it arrives. Eager
        // (the oracle): the original blocking exchange, update, then
        // record. The factor gatherv uses the eager tag namespace,
        // disjoint from pending-exchange tags, so the reordering
        // cannot mismatch envelopes.
        let pending = match reshard {
            Reshard::Overlapped => Some(timers.time(KernelId::Schur, || eng.post_reshard(&sp))),
            Reshard::Eager => {
                timers.time(KernelId::Schur, || {
                    eng.schur_redistribute(&sp, &x_rows, &xt);
                });
                None
            }
        };

        // Record factors: fragments gathered to rank 0; pivot lists
        // are replicated bookkeeping on every rank.
        timers.time(KernelId::Concat, || {
            let frags = eng.factor_fragments(&sp, &col_map, k_eff);
            if let Some(frags) = frags {
                for (t, frag) in frags.into_iter().enumerate() {
                    let mut ucol: Vec<(usize, f64)> = Vec::new();
                    for (p, &c_loc) in sel.selected.iter().enumerate() {
                        let v = sp.a11.get(t, p);
                        if v != 0.0 {
                            ucol.push((col_map[c_loc], v));
                        }
                    }
                    ucol.extend(frag);
                    // Column keys are globally unique, so the sorted
                    // order is independent of gather order.
                    ucol.sort_unstable_by_key(|&(c, _)| c);
                    ut_cols.push(ucol);

                    let mut lcol: Vec<(usize, f64)> = Vec::new();
                    lcol.push((row_map[rows[t]], 1.0));
                    for (xi, &r_rest) in x_rows.iter().enumerate() {
                        let v = xt.get(t, xi);
                        if v != 0.0 {
                            lcol.push((row_map[sp.rest_rows[r_rest]], v));
                        }
                    }
                    lcol.sort_unstable_by_key(|&(r, _)| r);
                    l_cols.push(lcol);
                }
            }
            pivot_rows_glob.extend(rows.iter().map(|&r| row_map[r]));
            pivot_cols_glob.extend(sel.selected.iter().map(|&c| col_map[c]));
        });

        if let Some(pr) = pending {
            timers.time(KernelId::Schur, || {
                eng.complete_reshard(pr, &x_rows, &xt);
            });
        }

        k_rank += k_eff;
        iterations += 1;

        // Error indicator (eq. 9 / 26): partial squared norm + allreduce
        // over the genuinely distributed Schur complement, evaluated
        // before any thresholding, as Algorithm 3 orders lines 7 and 8.
        indicator = timers.time(KernelId::Indicator, || eng.indicator());
        if !indicator.is_finite() {
            lra_recover::record_guard_trip(format!(
                "non-finite error indicator at iteration {iterations}"
            ));
            breakdown = Some(Breakdown::NonFinite);
            break;
        }
        let done = if indicator < stop {
            converged = true;
            true
        } else if k_rank >= rank_cap {
            breakdown = Some(Breakdown::RankExhausted);
            true
        } else {
            false
        };
        if let Some(state) = ilut.as_mut().filter(|_| !done) {
            if iterations == 1 {
                state.set_threshold(opts.tau, r11, a.nnz());
            }
            if state.mu > 0.0 {
                timers.time(KernelId::Drop, || eng.ilut_drop(state));
            }
        }
        // Trace the Schur complement as the next iteration will see it
        // (post-threshold for ILUT_CRTP) — the Fig. 1 fill-in metric.
        trace.push(eng.trace_entry(iterations, k_rank, indicator, &panel_r_diag));
        if done {
            break;
        }

        row_map = sp.rest_rows.iter().map(|&r| row_map[r]).collect();
        col_map = sp.rest_cols.iter().map(|&c| col_map[c]).collect();

        // Collective boundary: indicator allreduce and sharded drop are
        // done, so shards + replicated state form a consistent global
        // snapshot. All ranks enter (the gather is collective).
        if let Some(h) = hooks {
            if h.should_save(iterations) {
                eng.save_checkpoint(
                    h,
                    m,
                    n,
                    iterations,
                    k_rank,
                    indicator,
                    r11,
                    &row_map,
                    &col_map,
                    &l_cols,
                    &ut_cols,
                    &pivot_rows_glob,
                    &pivot_cols_glob,
                    &trace,
                    ilut.as_ref(),
                );
            }
        }
        if iterations > 4 * (m.min(n) / opts.k.max(1) + 2) {
            breakdown = Some(Breakdown::RankExhausted);
            break;
        }
    }

    let mem = eng.mem_stats();
    if rank == 0 {
        let g = lra_obs::metrics::global();
        g.set_gauge("mem.peak_rank_bytes", mem.peak_rank_bytes as f64);
        g.set_gauge("mem.peak_rank_nnz", mem.peak_rank_nnz as f64);
    }

    // Materialize the factors on rank 0, then one final broadcast so
    // every rank returns the same result.
    let (l, u) = timers.time(KernelId::Concat, || {
        let pair = if rank == 0 {
            assemble_factors(m, n, &l_cols, &ut_cols)
        } else {
            (CscMatrix::zeros(0, 0), CscMatrix::zeros(0, 0))
        };
        ctx.broadcast(0, pair)
    });
    Ok(LuCrtpResult {
        l,
        u,
        pivot_rows: pivot_rows_glob,
        pivot_cols: pivot_cols_glob,
        rank: k_rank,
        iterations,
        converged,
        breakdown,
        indicator,
        a_norm_f,
        r11,
        trace,
        timers,
        threshold: ilut.map(|st| st.report()),
        mem: Some(mem),
        trip,
    })
}

#[allow(clippy::too_many_lines)]
fn drive_spmd_replicated(
    ctx: &Ctx,
    a: &CscMatrix,
    opts: &LuCrtpOpts,
    ilut: Option<&IlutOpts>,
    hooks: Option<&crate::RecoveryHooks<'_>>,
) -> Result<LuCrtpResult, InvalidInput> {
    let m = a.rows();
    let n = a.cols();
    let size = ctx.size();
    let rank = ctx.rank();
    let mut ilut = ilut.map(IlutState::new);
    if rank == 0 {
        lra_obs::metrics::global().set_gauge(
            "kernel.numerics_mode",
            if opts.numerics.is_fast() { 1.0 } else { 0.0 },
        );
    }
    let mut timers = KernelTimers::new();
    let a_norm_f = a.fro_norm();
    let stop = opts.tau * a_norm_f;
    let rank_cap = opts.max_rank.unwrap_or(usize::MAX).min(m.min(n));
    if a_norm_f == 0.0 {
        return Ok(LuCrtpResult {
            l: CscMatrix::zeros(m, 0),
            u: CscMatrix::zeros(0, n),
            pivot_rows: Vec::new(),
            pivot_cols: Vec::new(),
            rank: 0,
            iterations: 0,
            converged: true,
            breakdown: None,
            indicator: 0.0,
            a_norm_f,
            r11: 0.0,
            trace: Vec::new(),
            timers,
            threshold: ilut.map(|st| st.report()),
            mem: None,
            trip: None,
        });
    }

    let mut s: CscMatrix;
    let mut row_map: Vec<usize>;
    let mut col_map: Vec<usize>;
    let mut l_cols: Vec<Vec<(usize, f64)>> = Vec::new();
    let mut ut_cols: Vec<Vec<(usize, f64)>> = Vec::new();
    let mut pivot_rows_glob: Vec<usize> = Vec::new();
    let mut pivot_cols_glob: Vec<usize> = Vec::new();
    let mut trace: Vec<IterTrace> = Vec::new();
    let mut k_rank = 0usize;
    let mut iterations = 0usize;
    let mut converged = false;
    let mut breakdown = None;
    let mut indicator = a_norm_f;
    let mut r11 = 0.0f64;
    let mut trip: Option<lra_recover::BudgetTrip> = None;
    let clock = opts.budget.start();
    // Kernel scratch reused across iterations by the Schur update.
    let mut schur_ws = SchurWorkspace::new();

    // Resume: every rank loads the same shared store, so all ranks
    // restore the identical (replicated) snapshot — consistency needs
    // no extra collective.
    let resume = match hooks {
        Some(h) => crate::checkpoint::load_resume(h, m, n, ilut.is_some(), opts.numerics)?,
        None => None,
    };
    if let Some(ck) = resume {
        s = ck.s;
        row_map = ck.row_map;
        col_map = ck.col_map;
        l_cols = ck.l_cols;
        ut_cols = ck.ut_cols;
        pivot_rows_glob = ck.pivot_rows;
        pivot_cols_glob = ck.pivots.selected;
        trace = ck.trace;
        k_rank = ck.rank;
        iterations = ck.iterations;
        indicator = ck.indicator;
        r11 = ck.r11;
        if let (Some(st), Some(ick)) = (ilut.as_mut(), ck.ilut) {
            st.restore(ick);
        }
    } else {
        // Preprocessing on rank 0, broadcast (COLAMD is intrinsically
        // sequential — "we apply COLAMD as a preprocessing step").
        let initial_cols: Vec<usize> = match opts.ordering {
            OrderingMode::Natural => (0..n).collect(),
            _ => {
                let p = if rank == 0 {
                    fill_reducing_order(a)
                } else {
                    Vec::new()
                };
                ctx.broadcast(0, p)
            }
        };
        s = a.select_columns(&initial_cols);
        row_map = (0..m).collect();
        col_map = initial_cols;
    }

    loop {
        ctx.begin_iteration(iterations as u64 + 1);
        // Budget agreement at the iteration boundary — identical
        // protocol (and identical collective schedule) to the sharded
        // driver, which keeps this oracle bitwise-aligned with it under
        // any budget: same verdict, same trip iteration.
        if !opts.budget.is_unlimited() {
            let bytes = std::mem::size_of_val(s.colptr())
                + std::mem::size_of_val(s.rowidx())
                + std::mem::size_of_val(s.values());
            let local = clock.check(iterations as u64, bytes as u64);
            let agreed = ctx
                .allreduce_opt(local.map(|t| t.to_wire()), lra_recover::BudgetTrip::merge_wire)
                .and_then(|(k, x, y)| lra_recover::BudgetTrip::from_wire(k, x, y));
            if let Some(t) = agreed {
                if let Some(h) = hooks {
                    if rank == 0 && iterations > 0 && !h.should_save(iterations) {
                        let ck = crate::checkpoint::make_snapshot(
                            m,
                            n,
                            iterations,
                            k_rank,
                            indicator,
                            r11,
                            &s,
                            &row_map,
                            &col_map,
                            &l_cols,
                            &ut_cols,
                            &pivot_rows_glob,
                            &pivot_cols_glob,
                            &trace,
                            ilut.as_ref().map(IlutState::checkpoint),
                            opts.numerics,
                        );
                        crate::checkpoint::save_snapshot(h, &ck);
                    }
                }
                if rank == 0 {
                    lra_recover::record_event(&lra_recover::RecoveryEvent::BudgetTrip {
                        trip: t.clone(),
                        iteration: iterations,
                    });
                }
                trip = Some(t);
                break;
            }
        }
        if s.rows() == 0 || s.cols() == 0 || k_rank >= rank_cap {
            if indicator >= stop {
                breakdown = Some(Breakdown::RankExhausted);
            }
            break;
        }
        if opts.ordering == OrderingMode::EveryIteration && iterations > 0 {
            let perm = timers.time(KernelId::Permute, || {
                let p = if rank == 0 {
                    fill_reducing_order(&s)
                } else {
                    Vec::new()
                };
                ctx.broadcast(0, p)
            });
            s = s.select_columns(&perm);
            col_map = perm.iter().map(|&p| col_map[p]).collect();
        }
        let k_want = opts.k.min(s.cols()).min(s.rows()).min(rank_cap - k_rank);

        // Column tournament: distributed (local stage + log2(P) rounds).
        let sel = timers.time(KernelId::ColTournament, || {
            tournament_columns_spmd(ctx, &s, None, k_want, opts.tree, opts.par)
        });
        if iterations == 0 {
            r11 = sel.r_diag.first().copied().unwrap_or(0.0).abs();
        }
        let k_eff = sel.selected.len();
        if k_eff == 0 {
            breakdown = Some(Breakdown::RankExhausted);
            break;
        }

        // Panel TSQR over rank-owned row blocks: local QR, allgather the
        // small R factors, replicated root QR, local Q reconstruction,
        // allgather the Q blocks.
        let m_act = s.rows();
        let mut panel_r_diag: Vec<f64> = Vec::new();
        let qk = timers.time(KernelId::PanelQr, || {
            let blocks = split_ranges(m_act, size.min((m_act / k_eff.max(1)).max(1)));
            let my_block = blocks.get(rank).cloned();
            let (my_r, my_f) = match &my_block {
                Some(rg) => {
                    let local = s.gather_columns_rows_dense(&sel.selected, rg.clone());
                    let f = qr(&local, Parallelism::SEQ);
                    (f.r(), Some(f))
                }
                None => (DenseMatrix::zeros(0, k_eff), None),
            };
            let all_r: Vec<DenseMatrix> = ctx.allgather(my_r);
            let mut stacked: Option<DenseMatrix> = None;
            for r in all_r {
                if r.rows() == 0 {
                    continue;
                }
                stacked = Some(match stacked {
                    None => r,
                    Some(prev) => prev.vcat(&r),
                });
            }
            let top = qr(&stacked.expect("empty panel"), Parallelism::SEQ);
            panel_r_diag = top.r_diag().iter().map(|v| v.abs()).take(k_eff).collect();
            let qs = top.q_thin(Parallelism::SEQ);
            // Back-propagate this rank's block of Q.
            let my_q = match (&my_block, my_f) {
                (Some(rg), Some(f)) => {
                    // Rows of qs owned by this rank: blocks before ours
                    // contribute min(block_len, k_eff) rows each.
                    let mut off = 0;
                    for (b, brange) in blocks.iter().enumerate() {
                        if b == rank {
                            break;
                        }
                        off += brange.len().min(k_eff);
                    }
                    let my_rows = rg.len().min(k_eff);
                    let mut piece = DenseMatrix::zeros(rg.len(), k_eff);
                    for j in 0..k_eff {
                        for i in 0..my_rows {
                            piece.set(i, j, qs.get(off + i, j));
                        }
                    }
                    f.apply_q(&mut piece, Parallelism::SEQ);
                    piece
                }
                _ => DenseMatrix::zeros(0, k_eff),
            };
            let all_q: Vec<DenseMatrix> = ctx.allgather(my_q);
            let mut qk = DenseMatrix::zeros(m_act, k_eff);
            let mut row0 = 0;
            for q in all_q {
                if q.rows() == 0 {
                    continue;
                }
                qk.set_submatrix(row0, 0, &q);
                row0 += q.rows();
            }
            qk
        });
        if panel_r_diag.iter().any(|v| !v.is_finite()) {
            lra_recover::record_guard_trip(format!(
                "non-finite panel R diagonal at iteration {}",
                iterations + 1
            ));
            breakdown = Some(Breakdown::NonFinite);
            break;
        }

        // Row tournament on Q_k^T (replicated input, distributed tree).
        let rows = timers.time(KernelId::RowTournament, || {
            let qt = qk.transpose();
            tournament_columns_spmd(ctx, &qt, None, k_eff, opts.tree, opts.par).selected
        });
        if rows.len() < k_eff {
            breakdown = Some(Breakdown::RankExhausted);
            break;
        }
        // Keep determinism: all ranks received identical selections.

        // Split (replicated — the "local row permutations" of Fig. 5).
        let (a11, a12, a21, a22, rest_rows, rest_cols) =
            timers.time(KernelId::Permute, || {
                s.split_blocks(&rows, &sel.selected)
            });

        let lu11 = lu(&a11);
        if lu11.is_singular() {
            breakdown = Some(Breakdown::SingularPivotBlock);
            break;
        }

        // L21: Ā21 rows scattered across ranks, Ā11 replicated
        // (broadcast in the paper), result allgathered.
        let (x_rows, xt) = timers.time(KernelId::LSolve, || {
            if opts.l_formation == LFormation::QBased {
                return l21_qbased(&qk, &rows, &rest_rows, k_eff, opts.par);
            }
            let a21t = a21.transpose();
            let x_rows: Vec<usize> =
                (0..a21t.cols()).filter(|&c| a21t.col_nnz(c) > 0).collect();
            let nr = x_rows.len();
            let ranges = split_ranges(nr, size);
            let my_range = owned_range(&ranges, rank);
            let mut my_xt = DenseMatrix::zeros(k_eff, my_range.len());
            for (slot, xi) in my_range.clone().enumerate() {
                let col = my_xt.col_mut(slot);
                let (ri, vs) = a21t.col(x_rows[xi]);
                for (&t, &v) in ri.iter().zip(vs) {
                    col[t] = v;
                }
                lu11.solve_transpose_slice(col);
            }
            let all_xt: Vec<DenseMatrix> = ctx.allgather(my_xt);
            let mut xt = DenseMatrix::zeros(k_eff, nr);
            let mut c0 = 0;
            for part in all_xt {
                if part.cols() == 0 {
                    continue;
                }
                xt.set_submatrix(0, c0, &part);
                c0 += part.cols();
            }
            (x_rows, xt)
        });

        // Schur complement: block-column distribution + allgather.
        let mut s_next = timers.time(KernelId::Schur, || {
            let n_rest = a22.cols();
            let ranges = split_ranges(n_rest, size);
            let my_range = owned_range(&ranges, rank);
            let (lens_p, rows_p, vals_p) = schur_update_ranged(
                &a22,
                &x_rows,
                &xt,
                &a12,
                my_range,
                &mut schur_ws,
                opts.par,
                opts.numerics,
            );
            let parts: Vec<(Vec<usize>, Vec<usize>, Vec<f64>)> =
                ctx.allgather((lens_p, rows_p, vals_p));
            let mut colptr = Vec::with_capacity(n_rest + 1);
            colptr.push(0);
            let mut rowidx = Vec::new();
            let mut values = Vec::new();
            let mut run = 0usize;
            for (lens, rows_p, vals_p) in parts {
                for l in lens {
                    run += l;
                    colptr.push(run);
                }
                rowidx.extend(rows_p);
                values.extend(vals_p);
            }
            CscMatrix::from_parts(a22.rows(), n_rest, colptr, rowidx, values)
        });

        // Record factors (replicated bookkeeping).
        timers.time(KernelId::Concat, || {
            let a12t = a12.transpose();
            for t in 0..k_eff {
                let mut ucol: Vec<(usize, f64)> = Vec::new();
                for (p, &c_loc) in sel.selected.iter().enumerate() {
                    let v = a11.get(t, p);
                    if v != 0.0 {
                        ucol.push((col_map[c_loc], v));
                    }
                }
                let (ci, cv) = a12t.col(t);
                for (&j_rest, &v) in ci.iter().zip(cv) {
                    ucol.push((col_map[rest_cols[j_rest]], v));
                }
                ucol.sort_unstable_by_key(|&(c, _)| c);
                ut_cols.push(ucol);

                let mut lcol: Vec<(usize, f64)> = Vec::new();
                lcol.push((row_map[rows[t]], 1.0));
                for (xi, &r_rest) in x_rows.iter().enumerate() {
                    let v = xt.get(t, xi);
                    if v != 0.0 {
                        lcol.push((row_map[rest_rows[r_rest]], v));
                    }
                }
                lcol.sort_unstable_by_key(|&(r, _)| r);
                l_cols.push(lcol);
            }
            pivot_rows_glob.extend(rows.iter().map(|&r| row_map[r]));
            pivot_cols_glob.extend(sel.selected.iter().map(|&c| col_map[c]));
        });

        k_rank += k_eff;
        iterations += 1;

        // Error indicator: partial squared norm + allreduce (each rank
        // owns a column slice in spirit; the replicated matrix makes
        // the local sum trivial, but the reduction is still exercised).
        indicator = timers.time(KernelId::Indicator, || {
            let ranges = split_ranges(s_next.cols(), size);
            let my_range = owned_range(&ranges, rank);
            let mut local = 0.0f64;
            for j in my_range {
                let (_, vs) = s_next.col(j);
                // Same per-column chains as the sharded driver's
                // partials (tree-reduced in Fast, flat in Bitwise).
                local += if opts.numerics.is_fast() {
                    pairwise_sum_sq(vs)
                } else {
                    vs.iter().map(|v| v * v).sum::<f64>()
                };
            }
            ctx.allreduce(local, |a, b| a + b).sqrt()
        });
        if !indicator.is_finite() {
            lra_recover::record_guard_trip(format!(
                "non-finite error indicator at iteration {iterations}"
            ));
            breakdown = Some(Breakdown::NonFinite);
            break;
        }
        let done = if indicator < stop {
            converged = true;
            true
        } else if k_rank >= rank_cap {
            breakdown = Some(Breakdown::RankExhausted);
            true
        } else {
            false
        };

        // ILUT_CRTP lines 5, 8-10: per-rank dropped-mass partials over
        // the same column partition the sharded driver owns, combined
        // through the same allreduce tree — the oracle stays bitwise
        // aligned with the sharded thresholding decisions.
        if let Some(state) = ilut.as_mut().filter(|_| !done) {
            if iterations == 1 {
                state.set_threshold(opts.tau, r11, a.nnz());
            }
            if state.mu > 0.0 {
                timers.time(KernelId::Drop, || {
                    let thr = match state.cfg.strategy {
                        DropStrategy::Fixed => Some(state.mu),
                        DropStrategy::Aggressive if state.budget() > 0.0 => {
                            state.aggressive_threshold(&s_next.small_entry_magnitudes(state.phi))
                        }
                        DropStrategy::Aggressive => None,
                    };
                    if let Some(thr) = thr {
                        let ranges = split_ranges(s_next.cols(), size);
                        let my_range = owned_range(&ranges, rank);
                        let (my_mass, my_count) =
                            s_next.dropped_mass_in_cols_par(thr, my_range, opts.par);
                        let (mass, count) = ctx
                            .allreduce((my_mass, my_count as u64), |x, y| (x.0 + y.0, x.1 + y.1));
                        if state.accept_drop(mass, count) {
                            s_next = s_next.drop_below(thr).0;
                        }
                    }
                });
            }
        }
        trace.push(schur_trace(
            iterations,
            k_rank,
            indicator,
            s_next.nnz(),
            s_next.rows(),
            s_next.cols(),
            &panel_r_diag,
        ));
        if done {
            break;
        }

        row_map = rest_rows.iter().map(|&r| row_map[r]).collect();
        col_map = rest_cols.iter().map(|&c| col_map[c]).collect();
        s = s_next;

        // Collective boundary: the indicator allreduce and (replicated)
        // drop are done, so every rank reaching this point holds
        // identical state — rank 0's snapshot is a consistent global
        // snapshot.
        if let Some(h) = hooks {
            if rank == 0 && h.should_save(iterations) {
                let ck = crate::checkpoint::make_snapshot(
                    m,
                    n,
                    iterations,
                    k_rank,
                    indicator,
                    r11,
                    &s,
                    &row_map,
                    &col_map,
                    &l_cols,
                    &ut_cols,
                    &pivot_rows_glob,
                    &pivot_cols_glob,
                    &trace,
                    ilut.as_ref().map(IlutState::checkpoint),
                    opts.numerics,
                );
                crate::checkpoint::save_snapshot(h, &ck);
            }
        }
        if iterations > 4 * (m.min(n) / opts.k.max(1) + 2) {
            breakdown = Some(Breakdown::RankExhausted);
            break;
        }
    }

    let (l, u) = assemble_factors(m, n, &l_cols, &ut_cols);
    Ok(LuCrtpResult {
        l,
        u,
        pivot_rows: pivot_rows_glob,
        pivot_cols: pivot_cols_glob,
        rank: k_rank,
        iterations,
        converged,
        breakdown,
        indicator,
        a_norm_f,
        r11,
        trace,
        timers,
        threshold: ilut.map(|st| st.report()),
        mem: None,
        trip,
    })
}

/// Convenience wrapper: run [`lu_crtp_spmd`] on `np` ranks and return
/// rank 0's result. `opts.tree` shapes each rank's local tournament
/// stage; the global stage always reduces over the binomial rank tree.
/// Panics if any rank fails; use [`lu_crtp_dist_checked`] to observe
/// failures.
pub fn lu_crtp_dist(a: &CscMatrix, opts: &LuCrtpOpts, np: usize) -> LuCrtpResult {
    let mut results = lra_comm::run_infallible(np, |ctx| lu_crtp_spmd(ctx, a, opts));
    results.swap_remove(0)
}

/// Fault-aware variant of [`lu_crtp_dist`]: validates the input at the
/// API boundary ([`InvalidInput`] instead of a panic deep inside a
/// kernel), runs under an explicit [`RunConfig`] (watchdog window,
/// chaos [`lra_comm::FaultPlan`]), and returns every rank's outcome.
/// A rank killed mid-factorization surfaces as [`CommError::Failed`] on
/// the victim and [`CommError::PeerFailed`] on every surviving rank —
/// no hang.
pub fn lu_crtp_dist_checked(
    a: &CscMatrix,
    opts: &LuCrtpOpts,
    np: usize,
    config: &RunConfig,
) -> Result<Vec<Result<LuCrtpResult, CommError>>, InvalidInput> {
    opts.validate()?;
    validate_matrix(a)?;
    Ok(lra_comm::run_with(np, config, |ctx| lu_crtp_spmd(ctx, a, opts)).results)
}
