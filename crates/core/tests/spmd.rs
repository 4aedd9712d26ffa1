//! Tests for the rank-distributed (SPMD) LU_CRTP driver.

use lra_core::{
    ilut_crtp, ilut_crtp_dist, lu_crtp, lu_crtp_dist, IlutOpts, LuCrtpOpts, LuCrtpResult,
    Numerics, Parallelism,
};

fn test_matrix() -> lra_sparse::CscMatrix {
    lra_matgen::with_decay(&lra_matgen::circuit(250, 4, 4, 17), 1e-7, 19)
}

#[test]
fn spmd_converges_and_meets_tolerance() {
    let a = test_matrix();
    let tau = 1e-3;
    for np in [1usize, 2, 4, 7] {
        let r = lu_crtp_dist(&a, &LuCrtpOpts::new(8, tau), np);
        assert!(r.converged, "np={np}: {:?}", r.breakdown);
        let exact = r.exact_error(&a, Parallelism::SEQ);
        assert!(
            exact < tau * r.a_norm_f,
            "np={np}: exact {exact} vs {}",
            tau * r.a_norm_f
        );
        // Indicator equals exact error for LU_CRTP.
        assert!((r.indicator - exact).abs() < 1e-9 * r.a_norm_f, "np={np}");
    }
}

#[test]
fn spmd_all_ranks_return_identical_results() {
    let a = test_matrix();
    let results = lra_comm::run_infallible(4, |ctx| {
        let r = lra_core::lu_crtp_spmd(ctx, &a, &LuCrtpOpts::new(8, 1e-2));
        (r.rank, r.pivot_cols, r.indicator.to_bits(), r.l.nnz())
    });
    for r in &results[1..] {
        assert_eq!(r, &results[0], "ranks disagree");
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_same_factorization(seq: &LuCrtpResult, dist: &LuCrtpResult, what: &str) {
    assert_eq!(seq.rank, dist.rank, "{what}: rank");
    assert_eq!(seq.converged, dist.converged, "{what}: converged");
    assert_eq!(seq.pivot_rows, dist.pivot_rows, "{what}: pivot_rows");
    assert_eq!(seq.pivot_cols, dist.pivot_cols, "{what}: pivot_cols");
    assert_eq!(seq.indicator.to_bits(), dist.indicator.to_bits(), "{what}: indicator");
    for (x, y, f) in [(&seq.l, &dist.l, "L"), (&seq.u, &dist.u, "U")] {
        assert_eq!(x.colptr(), y.colptr(), "{what}: {f} colptr");
        assert_eq!(x.rowidx(), y.rowidx(), "{what}: {f} rowidx");
        assert_eq!(bits(x.values()), bits(y.values()), "{what}: {f} values");
    }
    assert_eq!(seq.trace.len(), dist.trace.len(), "{what}: trace len");
    for (s, d) in seq.trace.iter().zip(&dist.trace) {
        assert_eq!(s.indicator.to_bits(), d.indicator.to_bits(), "{what}: trace indicator");
        assert_eq!(s.schur_nnz, d.schur_nnz, "{what}: trace schur_nnz");
        assert_eq!(bits(&s.r_diag), bits(&d.r_diag), "{what}: trace r_diag");
    }
    let report = |r: &LuCrtpResult| {
        r.threshold
            .as_ref()
            .map(|t| (t.mu.to_bits(), t.dropped, t.dropped_mass_sq.to_bits()))
    };
    assert_eq!(report(seq), report(dist), "{what}: threshold report");
}

/// The sequential API is the SPMD engine on one rank: `lu_crtp` and
/// `ilut_crtp` agree bit for bit with `*_dist(np = 1)` across presets,
/// tolerances, numerics modes and worker counts.
#[test]
fn sequential_api_matches_single_rank_dist_bitwise() {
    use lra_matgen::{circuit, economic, fem2d, fluid_block, with_decay};
    let presets = [
        ("fem2d", with_decay(&fem2d(9, 8, 3), 1e-6, 4)),
        ("circuit", with_decay(&circuit(140, 3, 2, 5), 1e-6, 6)),
        ("economic", with_decay(&economic(100, 5, 7), 1e-6, 8)),
        ("fluid", with_decay(&fluid_block(10, 8, 9), 1e-6, 10)),
    ];
    for (name, a) in &presets {
        for tau in [1e-2, 1e-4] {
            for numerics in [Numerics::Bitwise, Numerics::Fast] {
                for par in [Parallelism::SEQ, Parallelism::new(2)] {
                    let what = format!("{name} tau={tau:e} {numerics} np={}", par.np());
                    let lu_opts = LuCrtpOpts::new(8, tau).with_numerics(numerics).with_par(par);
                    let lu = lu_crtp(a, &lu_opts);
                    assert_same_factorization(&lu, &lu_crtp_dist(a, &lu_opts, 1), &what);
                    let mut il_opts = IlutOpts::new(8, tau, lu.iterations);
                    il_opts.base = lu_opts;
                    let il = ilut_crtp(a, &il_opts);
                    let il_dist = ilut_crtp_dist(a, &il_opts, 1);
                    assert_same_factorization(&il, &il_dist, &format!("ilut {what}"));
                }
            }
        }
    }
}

#[test]
fn spmd_rank_deficient_input() {
    // Exactly rank-5 matrix distributed over more ranks than blocks.
    let sigmas = [4.0, 2.0, 1.0, 0.5, 0.25];
    let a = lra_matgen::spectrum(90, 80, &sigmas, 8, 23);
    let r = lu_crtp_dist(&a, &LuCrtpOpts::new(4, 1e-9), 6);
    assert!(r.converged, "{:?}", r.breakdown);
    assert!(r.rank <= 12, "rank {} for rank-5 input", r.rank);
}

#[test]
fn spmd_factor_structure_valid() {
    let a = test_matrix();
    let r = lu_crtp_dist(&a, &LuCrtpOpts::new(8, 1e-2), 4);
    assert_eq!(r.l.cols(), r.rank);
    assert_eq!(r.u.rows(), r.rank);
    for (j, &pr) in r.pivot_rows.iter().enumerate() {
        assert!((r.l.get(pr, j) - 1.0).abs() < 1e-14);
    }
    let mut cols = r.pivot_cols.clone();
    cols.sort_unstable();
    cols.dedup();
    assert_eq!(cols.len(), r.rank);
}
