//! Tests for the rank-distributed ILUT_CRTP driver.

use lra_core::{ilut_crtp, ilut_crtp_dist, lu_crtp_dist, IlutOpts, LuCrtpOpts, Parallelism};

fn fill_heavy() -> lra_sparse::CscMatrix {
    lra_matgen::with_decay(&lra_matgen::fluid_block(12, 10, 31), 1e-7, 33)
}

#[test]
fn spmd_ilut_converges_with_bounded_error() {
    let a = fill_heavy();
    let tau = 1e-2;
    for np in [1usize, 3, 5] {
        let lu = lu_crtp_dist(&a, &LuCrtpOpts::new(8, tau), np);
        let il = ilut_crtp_dist(&a, &IlutOpts::new(8, tau, lu.iterations.max(1)), np);
        assert!(il.converged, "np={np}: {:?}", il.breakdown);
        let report = il.threshold.as_ref().expect("threshold report");
        let exact = il.exact_error(&a, Parallelism::SEQ);
        let bound = tau * il.a_norm_f + report.dropped_mass_sq.sqrt();
        assert!(exact <= bound * 1.000001, "np={np}: {exact} vs {bound}");
        // Fill-in reduced vs the distributed LU on this matrix.
        assert!(
            il.factor_nnz() <= lu.factor_nnz(),
            "np={np}: ilut {} vs lu {}",
            il.factor_nnz(),
            lu.factor_nnz()
        );
    }
}

#[test]
fn spmd_ilut_ranks_agree_and_drop_identically() {
    let a = fill_heavy();
    let results = lra_comm::run_infallible(4, |ctx| {
        let r = lra_core::ilut_crtp_spmd(ctx, &a, &IlutOpts::new(8, 1e-2, 4));
        let rep = r.threshold.as_ref().unwrap();
        (
            r.rank,
            r.factor_nnz(),
            rep.dropped,
            rep.mu.to_bits(),
            rep.dropped_mass_sq.to_bits(),
        )
    });
    for r in &results[1..] {
        assert_eq!(r, &results[0], "ranks diverged in thresholding");
    }
    assert!(results[0].2 > 0, "expected drops on a fill-in heavy matrix");
}

#[test]
fn spmd_ilut_matches_shared_memory_mu() {
    // mu (eq. 24) is determined by tau, |R(1,1)| and nnz(A); the
    // shared-memory and distributed runs must agree on it whenever the
    // first tournament picks the same leading pivot magnitude.
    let a = fill_heavy();
    let shared = ilut_crtp(&a, &IlutOpts::new(8, 1e-2, 4));
    let dist = ilut_crtp_dist(&a, &IlutOpts::new(8, 1e-2, 4), 3);
    let mu_s = shared.threshold.as_ref().unwrap().mu;
    let mu_d = dist.threshold.as_ref().unwrap().mu;
    // Same formula; |R(1,1)| can differ slightly with merge order.
    assert!(
        (mu_s - mu_d).abs() <= 0.5 * mu_s.max(mu_d),
        "mu mismatch: {mu_s} vs {mu_d}"
    );
}

#[test]
fn spmd_ilut_control_triggers_like_shared() {
    let a = fill_heavy();
    let mut opts = IlutOpts::new(8, 1e-2, 1);
    opts.phi_factor = 1e-12;
    let r = ilut_crtp_dist(&a, &opts, 4);
    let rep = r.threshold.as_ref().unwrap();
    assert!(rep.control_triggered);
    assert_eq!(rep.mu, 0.0);
    assert_eq!(rep.dropped, 0);
}

/// The trace records each iteration's Schur complement *after* the
/// ILUT drop (the Fig. 1 fill-in definition): the nnz it reports must
/// be the nnz of the post-drop Schur complement the checkpoint holds.
#[test]
fn spmd_ilut_trace_records_post_drop_fill() {
    let a = fill_heavy();
    let opts = IlutOpts::new(8, 1e-2, 4);
    for np in [1usize, 2] {
        let store = lra_core::CheckpointStore::in_memory();
        let hooks = lra_core::RecoveryHooks::new(&store, 1);
        let r = lra_comm::run_infallible(np, |ctx| {
            lra_core::ilut_crtp_spmd_checkpointed(ctx, &a, &opts, Some(&hooks)).unwrap()
        })
        .swap_remove(0);
        assert!(r.threshold.as_ref().unwrap().dropped > 0, "np={np}: expected drops");
        let ck: lra_core::LuCrtpCheckpoint = store.load().unwrap().expect("a snapshot");
        assert!(ck.ilut.as_ref().unwrap().dropped > 0, "np={np}: drops before the snapshot");
        let at = &r.trace[ck.iterations - 1];
        assert_eq!(at.iteration, ck.iterations);
        assert_eq!(at.schur_nnz, ck.s.nnz(), "np={np}");
    }
}
