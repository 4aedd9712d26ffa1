//! Rank-distributed tournament pivoting over the `lra-comm` SPMD
//! runtime — the direct port of the paper's MPI reduction tree
//! (Section V).
//!
//! Each rank owns a contiguous block of candidate columns and reduces
//! them to `k` winners with *no communication* (the local stage); the
//! winners then compete pairwise over `log2(P)` message rounds (the
//! global stage). Only column indices travel between ranks — the matrix
//! itself is shared read-only, matching the paper's observation that
//! the selected columns are gathered where needed.

use crate::source::ColumnSource;
use crate::tournament::{panel_r, tournament_columns, ColumnSelection, TournamentTree};
use lra_comm::Ctx;
use lra_dense::qrcp;
use lra_par::{split_ranges, Parallelism};
use lra_sparse::{gather_csc, ColSlice, CscMatrix};

/// Tag for tournament winner exchanges.
const TAG_WINNERS: u64 = 0x7101;
/// Tag for sharded winner exchanges (ids + compact columns).
const TAG_SHARD_WINNERS: u64 = 0x7102;

/// SPMD column tournament: every rank calls this with the same
/// arguments; every rank returns the same [`ColumnSelection`]. `tree`
/// and `par` shape each rank's local stage (a [`tournament_columns`]
/// call over its own candidates); the global stage is always the
/// binomial rank tree. Under [`TournamentTree::Binary`] the selection
/// is bitwise independent of `par`.
pub fn tournament_columns_spmd<S: ColumnSource + ?Sized>(
    ctx: &Ctx,
    src: &S,
    candidates: Option<&[usize]>,
    k: usize,
    tree: TournamentTree,
    par: Parallelism,
) -> ColumnSelection {
    let all: Vec<usize>;
    let cand: &[usize] = match candidates {
        Some(c) => c,
        None => {
            all = (0..src.cols()).collect();
            &all
        }
    };
    let size = ctx.size();
    let rank = ctx.rank();
    let ranges = split_ranges(cand.len(), size);
    // Local reduction: communication-free. A full local tournament
    // also yields its root pass's `r_diag`.
    let (mut winners, local_r_diag) = lra_obs::trace::span("qrtp.local_stage", || {
        if rank < ranges.len() && !ranges[rank].is_empty() {
            let own = &cand[ranges[rank].clone()];
            if own.len() <= k {
                (own.to_vec(), None)
            } else {
                let sel = tournament_columns(src, Some(own), k, tree, par);
                (sel.selected, Some(sel.r_diag))
            }
        } else {
            (Vec::new(), None)
        }
    });
    // Global binomial reduction: log2(P) rounds of pairwise merges.
    // (Static span name — rounds are separated by time and parentage in
    // the trace; a per-round `format!` would allocate with tracing off.)
    let mut mask = 1usize;
    while mask < size {
        let advance = lra_obs::trace::span("qrtp.reduce_round", || {
            if rank & mask == 0 {
                let peer = rank | mask;
                if peer < size {
                    let theirs: Vec<usize> = ctx.recv(peer, TAG_WINNERS);
                    if !theirs.is_empty() {
                        let mut merged = winners.clone();
                        merged.extend_from_slice(&theirs);
                        winners = node_select(src, &merged, k).0;
                    }
                }
                true
            } else {
                let parent = rank & !mask;
                ctx.send(parent, TAG_WINNERS, winners.clone());
                winners.clear();
                false
            }
        });
        if !advance {
            break;
        }
        mask <<= 1;
    }
    // Root ranks the final winners (also producing r_diag) and
    // broadcasts the result. A lone rank's local stage was the whole
    // tournament, root pass included, so its ranking is already final.
    let (selected, r_diag) = lra_obs::trace::span("qrtp.final_select", || {
        let result = match local_r_diag.filter(|_| size == 1) {
            Some(r_diag) => (winners, r_diag),
            None if rank == 0 => node_select(src, &winners, k),
            None => (Vec::new(), Vec::new()),
        };
        ctx.broadcast(0, result)
    });
    ColumnSelection { selected, r_diag }
}

/// One tournament node: rank candidate columns via QRCP of the panel R.
fn node_select<S: ColumnSource + ?Sized>(
    src: &S,
    idx: &[usize],
    k: usize,
) -> (Vec<usize>, Vec<f64>) {
    let r = crate::tournament::panel_r(src, idx, Parallelism::SEQ);
    let f = qrcp(&r, k);
    let sel: Vec<usize> = f.perm[..f.steps.min(k)].iter().map(|&p| idx[p]).collect();
    (sel, f.r_diag())
}

/// One tournament node over a compact candidate matrix: ranks all of
/// its columns, returning winning *positions* (so the caller can slice
/// both its id list and the matrix) plus the QRCP `R` diagonal.
///
/// Bitwise-equivalent to [`node_select`] on the full matrix with the
/// same candidate columns: `panel_r`'s chunking depends only on the row
/// dimension and candidate count, and its gathers are positional, so a
/// compact copy of the candidates yields the same dense panels.
fn node_select_positions(cols: &CscMatrix, k: usize) -> (Vec<usize>, Vec<f64>) {
    let idx: Vec<usize> = (0..cols.cols()).collect();
    let r = panel_r(cols, &idx, Parallelism::SEQ);
    let f = qrcp(&r, k);
    (f.perm[..f.steps.min(k)].to_vec(), f.r_diag())
}

/// Sharded SPMD column tournament: like [`tournament_columns_spmd`],
/// but the matrix is *distributed* — each rank holds only its own
/// block-column [`ColSlice`] of the virtual matrix and winner columns
/// travel with their ids as compact CSC panels, so no rank ever
/// materializes more than `O(k)` foreign columns.
///
/// Every rank returns the same `(selection, panel)`: `selection` holds
/// *global* column ids of the virtual matrix, and `panel` is the
/// compact copy of the selected columns (full row dimension, columns
/// in pivot order) the caller feeds to TSQR and the block split.
///
/// Produces bitwise-identical selections to running
/// [`tournament_columns_spmd`] with the same `tree` and `par` on the
/// replicated matrix: the ownership partition here *is* the
/// `split_ranges` partition the replicated local stage uses, and every
/// node works on the same dense panels.
pub fn tournament_columns_spmd_sharded(
    ctx: &Ctx,
    shard: &ColSlice,
    k: usize,
    tree: TournamentTree,
    par: Parallelism,
) -> (ColumnSelection, CscMatrix) {
    let size = ctx.size();
    let rank = ctx.rank();
    let rows = shard.rows();
    // Local reduction: communication-free, over the owned shard only.
    // A full local tournament also yields its root pass's `r_diag`.
    let (mut winners, local_r_diag) = lra_obs::trace::span("qrtp.local_stage", || {
        if shard.ncols_local() == 0 {
            (Vec::new(), None)
        } else if shard.ncols_local() <= k {
            (shard.col_range().collect(), None)
        } else {
            let sel = tournament_columns(shard.local(), None, k, tree, par);
            let ids = sel.selected.iter().map(|&c| c + shard.offset()).collect();
            (ids, Some(sel.r_diag))
        }
    });
    let mut cols: CscMatrix = if winners.is_empty() {
        CscMatrix::zeros(rows, 0)
    } else {
        shard.extract_columns(&winners)
    };
    // Global binomial reduction; winner columns ride along as compact
    // panels so receivers never touch forebearers' shards.
    let mut mask = 1usize;
    while mask < size {
        let advance = lra_obs::trace::span("qrtp.reduce_round", || {
            if rank & mask == 0 {
                let peer = rank | mask;
                if peer < size {
                    let (their_ids, their_cols): (Vec<usize>, CscMatrix) =
                        ctx.recv(peer, TAG_SHARD_WINNERS);
                    if !their_ids.is_empty() {
                        let mut merged = winners.clone();
                        merged.extend_from_slice(&their_ids);
                        let merged_cols = gather_csc(&[cols.clone(), their_cols]);
                        let (pos, _) = node_select_positions(&merged_cols, k);
                        winners = pos.iter().map(|&p| merged[p]).collect();
                        cols = merged_cols.select_columns(&pos);
                    }
                }
                true
            } else {
                let parent = rank & !mask;
                ctx.send(
                    parent,
                    TAG_SHARD_WINNERS,
                    (std::mem::take(&mut winners), std::mem::replace(&mut cols, CscMatrix::zeros(rows, 0))),
                );
                false
            }
        });
        if !advance {
            break;
        }
        mask <<= 1;
    }
    // Root ranks the final winners and broadcasts ids, r_diag, and the
    // selected panel together. A lone rank's local ranking is final, as
    // in [`tournament_columns_spmd`].
    let (selected, r_diag, panel) = lra_obs::trace::span("qrtp.final_select", || {
        let result = match local_r_diag.filter(|_| size == 1) {
            Some(r_diag) => (winners, r_diag, cols),
            None if rank == 0 => {
                let (pos, r_diag) = node_select_positions(&cols, k);
                let selected: Vec<usize> = pos.iter().map(|&p| winners[p]).collect();
                (selected, r_diag, cols.select_columns(&pos))
            }
            None => (Vec::new(), Vec::new(), CscMatrix::zeros(rows, 0)),
        };
        ctx.broadcast(0, result)
    });
    (ColumnSelection { selected, r_diag }, panel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lra_dense::{matmul, singular_values, DenseMatrix};
    use lra_sparse::{CooMatrix, CscMatrix};

    const BIN: TournamentTree = TournamentTree::Binary;
    const SEQ: Parallelism = Parallelism::SEQ;

    fn rand_sparse(rows: usize, cols: usize, per_col: usize, seed: u64) -> CscMatrix {
        let mut state = seed.wrapping_mul(0x517CC1B727220A95) | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        let mut coo = CooMatrix::new(rows, cols);
        for j in 0..cols {
            for _ in 0..per_col {
                let r = (next() % rows as u64) as usize;
                let v = ((next() >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
                coo.push(r, j, v);
            }
        }
        coo.to_csc()
    }

    fn rand_dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        DenseMatrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    #[test]
    fn all_ranks_agree() {
        let a = rand_sparse(100, 48, 4, 1);
        for np in [1usize, 2, 4, 7] {
            let results = lra_comm::run_infallible(np, |ctx| {
                tournament_columns_spmd(ctx, &a, None, 8, BIN, SEQ).selected
            });
            for r in &results[1..] {
                assert_eq!(r, &results[0], "np={np}: ranks disagree");
            }
            assert_eq!(results[0].len(), 8);
            let mut s = results[0].clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 8);
        }
    }

    #[test]
    fn spmd_finds_independent_columns() {
        let base = rand_dense(60, 5, 2);
        let mix = rand_dense(5, 43, 3);
        let deps = matmul(&base, &mix, lra_par::Parallelism::SEQ);
        let full = base.hcat(&deps);
        let a = CscMatrix::from_dense(&full);
        let results = lra_comm::run_infallible(4, |ctx| {
            tournament_columns_spmd(ctx, &a, None, 5, BIN, SEQ).selected
        });
        let picked = full.select_columns(&results[0]);
        let sv = singular_values(&picked);
        assert!(sv[4] > 1e-8, "picked dependent columns: {sv:?}");
    }

    #[test]
    fn more_ranks_than_candidates() {
        let a = rand_sparse(30, 5, 3, 4);
        let results = lra_comm::run_infallible(8, |ctx| {
            tournament_columns_spmd(ctx, &a, None, 3, BIN, SEQ).selected
        });
        assert_eq!(results[0].len(), 3);
        for r in &results {
            assert_eq!(r, &results[0]);
        }
    }

    #[test]
    fn sharded_matches_replicated_bitwise() {
        let a = rand_sparse(100, 48, 4, 1);
        let shapes = [
            (BIN, SEQ),
            (BIN, Parallelism::new(2)),
            (TournamentTree::Flat, Parallelism::new(2)),
        ];
        for np in [1usize, 2, 4, 7] {
            for k in [3usize, 8] {
                for (tree, par) in shapes {
                    let what = format!("np={np} k={k} {tree:?} {par:?}");
                    let replicated = lra_comm::run_infallible(np, |ctx| {
                        let sel = tournament_columns_spmd(ctx, &a, None, k, tree, par);
                        (sel.selected, sel.r_diag)
                    });
                    let sharded = lra_comm::run_infallible(np, |ctx| {
                        let ranges = split_ranges(a.cols(), ctx.size());
                        let range = lra_par::owned_range(&ranges, ctx.rank());
                        let shard = ColSlice::from_full(&a, range);
                        let (sel, panel) =
                            tournament_columns_spmd_sharded(ctx, &shard, k, tree, par);
                        (sel.selected, sel.r_diag, panel)
                    });
                    for (rank, (sel, rd, panel)) in sharded.iter().enumerate() {
                        let (rsel, rrd) = &replicated[rank];
                        assert_eq!(sel, rsel, "{what} rank={rank}");
                        assert_eq!(rd.len(), rrd.len());
                        for (x, y) in rd.iter().zip(rrd) {
                            assert_eq!(x.to_bits(), y.to_bits(), "{what}");
                        }
                        // The broadcast panel is an exact copy of the
                        // selected columns.
                        assert_eq!(*panel, a.select_columns(sel), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn sharded_handles_empty_high_ranks() {
        // More ranks than columns: high ranks own empty shards but must
        // still agree on the result.
        let a = rand_sparse(30, 5, 3, 4);
        let results = lra_comm::run_infallible(8, |ctx| {
            let ranges = split_ranges(a.cols(), ctx.size());
            let range = lra_par::owned_range(&ranges, ctx.rank());
            let shard = ColSlice::from_full(&a, range);
            tournament_columns_spmd_sharded(ctx, &shard, 3, BIN, SEQ).0.selected
        });
        assert_eq!(results[0].len(), 3);
        for r in &results {
            assert_eq!(r, &results[0]);
        }
    }

    #[test]
    fn r_diag_broadcast_everywhere() {
        let a = rand_sparse(64, 32, 4, 5);
        let results = lra_comm::run_infallible(3, |ctx| {
            tournament_columns_spmd(ctx, &a, None, 4, BIN, SEQ).r_diag
        });
        assert!(!results[0].is_empty());
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
    }
}
