//! The sharded SPMD driver vs. its replicated oracle.
//!
//! The sharded driver owns only a block-column shard of the Schur
//! complement per rank but partitions every per-column computation
//! exactly as the replicated driver partitions its per-rank work, and
//! combines partials through the same reduction trees — so the two
//! must agree *bit for bit* on every result field (timers and the
//! `mem` report excepted, which measure the run rather than the
//! factorization).

use lra_core::{
    ilut_crtp_spmd, ilut_crtp_spmd_eager, ilut_crtp_spmd_replicated, lu_crtp_spmd,
    lu_crtp_spmd_eager, lu_crtp_spmd_replicated, IlutOpts, LFormation, LuCrtpOpts, LuCrtpResult,
    OrderingMode, Parallelism, TournamentTree,
};
use lra_sparse::CscMatrix;

fn circuit_matrix() -> CscMatrix {
    lra_matgen::with_decay(&lra_matgen::circuit(220, 4, 4, 17), 1e-7, 19)
}

fn fill_heavy() -> CscMatrix {
    lra_matgen::with_decay(&lra_matgen::fluid_block(12, 10, 31), 1e-7, 33)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_csc_bitwise(a: &CscMatrix, b: &CscMatrix, what: &str) {
    assert_eq!(a.rows(), b.rows(), "{what}: rows");
    assert_eq!(a.cols(), b.cols(), "{what}: cols");
    assert_eq!(a.colptr(), b.colptr(), "{what}: colptr");
    assert_eq!(a.rowidx(), b.rowidx(), "{what}: rowidx");
    assert_eq!(bits(a.values()), bits(b.values()), "{what}: values");
}

fn assert_result_bitwise(sharded: &LuCrtpResult, oracle: &LuCrtpResult, what: &str) {
    assert_eq!(sharded.rank, oracle.rank, "{what}: rank");
    assert_eq!(sharded.iterations, oracle.iterations, "{what}: iterations");
    assert_eq!(sharded.converged, oracle.converged, "{what}: converged");
    assert_eq!(sharded.breakdown, oracle.breakdown, "{what}: breakdown");
    assert_eq!(sharded.pivot_rows, oracle.pivot_rows, "{what}: pivot_rows");
    assert_eq!(sharded.pivot_cols, oracle.pivot_cols, "{what}: pivot_cols");
    assert_eq!(
        sharded.indicator.to_bits(),
        oracle.indicator.to_bits(),
        "{what}: indicator"
    );
    assert_eq!(sharded.r11.to_bits(), oracle.r11.to_bits(), "{what}: r11");
    assert_csc_bitwise(&sharded.l, &oracle.l, &format!("{what}: L"));
    assert_csc_bitwise(&sharded.u, &oracle.u, &format!("{what}: U"));
    assert_eq!(sharded.trace.len(), oracle.trace.len(), "{what}: trace len");
    for (s, o) in sharded.trace.iter().zip(&oracle.trace) {
        assert_eq!(s.iteration, o.iteration, "{what}: trace iteration");
        assert_eq!(s.rank, o.rank, "{what}: trace rank");
        assert_eq!(
            s.indicator.to_bits(),
            o.indicator.to_bits(),
            "{what}: trace indicator"
        );
        assert_eq!(s.schur_nnz, o.schur_nnz, "{what}: trace schur_nnz");
        assert_eq!(
            s.schur_density.to_bits(),
            o.schur_density.to_bits(),
            "{what}: trace schur_density"
        );
        assert_eq!(
            s.schur_nnz_per_row.to_bits(),
            o.schur_nnz_per_row.to_bits(),
            "{what}: trace schur_nnz_per_row"
        );
        assert_eq!(bits(&s.r_diag), bits(&o.r_diag), "{what}: trace r_diag");
    }
    match (&sharded.threshold, &oracle.threshold) {
        (None, None) => {}
        (Some(s), Some(o)) => {
            assert_eq!(s.mu.to_bits(), o.mu.to_bits(), "{what}: mu");
            assert_eq!(s.phi.to_bits(), o.phi.to_bits(), "{what}: phi");
            assert_eq!(s.dropped, o.dropped, "{what}: dropped");
            assert_eq!(
                s.dropped_mass_sq.to_bits(),
                o.dropped_mass_sq.to_bits(),
                "{what}: dropped_mass_sq"
            );
            assert_eq!(
                s.control_triggered, o.control_triggered,
                "{what}: control_triggered"
            );
        }
        _ => panic!("{what}: threshold presence mismatch"),
    }
}

/// Rank counts crossed with per-rank worker counts: `opts.par` reaches
/// the local tournament stage, the `L21` solve, the Schur update and
/// the threshold pass, none of which may move a bit.
fn np_par_grid() -> Vec<(usize, Parallelism)> {
    let mut grid = Vec::new();
    for np in [1usize, 2, 4] {
        for par in [Parallelism::SEQ, Parallelism::new(2)] {
            grid.push((np, par));
        }
    }
    grid
}

#[test]
fn sharded_lu_matches_replicated_bitwise() {
    let a = circuit_matrix();
    for (np, par) in np_par_grid() {
        let opts = LuCrtpOpts::new(8, 1e-3).with_par(par);
        let mut sharded = lra_comm::run_infallible(np, |ctx| lu_crtp_spmd(ctx, &a, &opts));
        let mut oracle =
            lra_comm::run_infallible(np, |ctx| lu_crtp_spmd_replicated(ctx, &a, &opts));
        let s = sharded.swap_remove(0);
        let o = oracle.swap_remove(0);
        let what = format!("lu np={np} par={}", par.np());
        assert!(s.converged, "{what}: {:?}", s.breakdown);
        assert_result_bitwise(&s, &o, &what);
        assert!(s.mem.is_some(), "{what}: sharded driver must report mem");
        assert!(o.mem.is_none(), "{what}: replicated oracle reports no mem");
    }
}

#[test]
fn sharded_ilut_matches_replicated_bitwise() {
    let a = fill_heavy();
    // The non-default options reach the oracle the same way they reach
    // the engine: flat local tournaments, per-iteration reordering
    // (gathered to rank 0, scattered back) and the Q-based `L21`.
    let mut options = IlutOpts::new(8, 1e-2, 4);
    options.base.tree = TournamentTree::Flat;
    options.base.ordering = OrderingMode::EveryIteration;
    options.base.l_formation = LFormation::QBased;
    for (label, base) in [("default", IlutOpts::new(8, 1e-2, 4)), ("options", options)] {
        for (np, par) in np_par_grid() {
            let mut opts = base.clone();
            opts.base.par = par;
            let mut sharded = lra_comm::run_infallible(np, |ctx| ilut_crtp_spmd(ctx, &a, &opts));
            let mut oracle =
                lra_comm::run_infallible(np, |ctx| ilut_crtp_spmd_replicated(ctx, &a, &opts));
            let s = sharded.swap_remove(0);
            let o = oracle.swap_remove(0);
            let what = format!("ilut {label} np={np} par={}", par.np());
            assert!(s.converged, "{what}: {:?}", s.breakdown);
            assert!(
                s.threshold.as_ref().unwrap().dropped > 0,
                "{what}: expected drops"
            );
            assert_result_bitwise(&s, &o, &what);
        }
    }
}

/// The overlapped re-shard pipeline (post the `alltoallv`, record
/// factors while the wire drains, Schur-update each piece as it
/// arrives) vs. its eager blocking oracle: every result field —
/// factors, pivots, indicator trace, threshold state — must agree bit
/// for bit, because per-piece updates tile the new owned range in
/// ascending column order and the kernel computes each column
/// independently.
#[test]
fn overlapped_lu_matches_eager_bitwise() {
    let a = circuit_matrix();
    let opts = LuCrtpOpts::new(8, 1e-3);
    for np in [1usize, 2, 4] {
        let mut over = lra_comm::run_infallible(np, |ctx| {
            let r = lu_crtp_spmd(ctx, &a, &opts);
            (r, ctx.stats())
        });
        let mut eager = lra_comm::run_infallible(np, |ctx| lu_crtp_spmd_eager(ctx, &a, &opts));
        let (o, stats) = over.swap_remove(0);
        let e = eager.swap_remove(0);
        assert!(o.converged, "np={np}: {:?}", o.breakdown);
        assert_result_bitwise(&o, &e, &format!("overlap lu np={np}"));
        // The default driver really went through the posted path: one
        // posted exchange per iteration, none on the eager oracle.
        assert_eq!(
            stats.overlap_posted, o.iterations as u64,
            "np={np}: one posted re-shard per panel iteration"
        );
    }
}

/// Same contract for ILUT: the thresholding pass runs on the shard
/// assembled from per-piece updates, so its dropped-mass bookkeeping
/// pins the pipeline end to end.
#[test]
fn overlapped_ilut_matches_eager_bitwise() {
    let a = fill_heavy();
    let opts = IlutOpts::new(8, 1e-2, 4);
    for np in [1usize, 2, 4] {
        let mut over = lra_comm::run_infallible(np, |ctx| ilut_crtp_spmd(ctx, &a, &opts));
        let mut eager = lra_comm::run_infallible(np, |ctx| ilut_crtp_spmd_eager(ctx, &a, &opts));
        let o = over.swap_remove(0);
        let e = eager.swap_remove(0);
        assert!(o.converged, "np={np}: {:?}", o.breakdown);
        assert!(
            o.threshold.as_ref().unwrap().dropped > 0,
            "np={np}: expected drops"
        );
        assert_result_bitwise(&o, &e, &format!("overlap ilut np={np}"));
    }
}

#[test]
fn per_rank_memory_shrinks_with_more_ranks() {
    let a = fill_heavy();
    let opts = IlutOpts::new(8, 1e-2, 4);
    let peak = |np: usize| {
        let mut rs = lra_comm::run_infallible(np, |ctx| ilut_crtp_spmd(ctx, &a, &opts));
        rs.swap_remove(0).mem.expect("sharded mem report")
    };
    let p1 = peak(1);
    let p4 = peak(4);
    assert!(p1.peak_rank_nnz > 0 && p1.peak_rank_bytes > 0);
    // The tentpole claim: resident Schur storage is O(nnz/np) + panel,
    // so quadrupling the ranks must at least halve the per-rank peak.
    assert!(
        2 * p4.peak_rank_nnz < p1.peak_rank_nnz,
        "np=4 peak nnz {} not < 0.5x np=1 peak nnz {}",
        p4.peak_rank_nnz,
        p1.peak_rank_nnz
    );
    assert!(
        p4.peak_rank_bytes < p1.peak_rank_bytes,
        "np=4 peak bytes {} not < np=1 peak bytes {}",
        p4.peak_rank_bytes,
        p1.peak_rank_bytes
    );
}

#[test]
fn sharded_results_identical_on_every_rank() {
    let a = fill_heavy();
    let results = lra_comm::run_infallible(3, |ctx| {
        let r = ilut_crtp_spmd(ctx, &a, &IlutOpts::new(8, 1e-2, 4));
        (
            r.rank,
            r.pivot_rows,
            r.pivot_cols,
            r.indicator.to_bits(),
            r.l.colptr().to_vec(),
            r.u.colptr().to_vec(),
            bits(r.l.values()),
            bits(r.u.values()),
            r.mem,
        )
    });
    for r in &results[1..] {
        assert_eq!(r, &results[0], "ranks disagree");
    }
}
