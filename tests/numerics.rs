//! The tolerance-property test layer that holds `Numerics::Fast` (FMA
//! micro-kernels, pairwise tree reductions, relaxed chunk-merge order)
//! to the `Numerics::Bitwise` oracle.
//!
//! Three layers of guarantee, from loose to strict:
//!
//! 1. **Normwise agreement with the oracle.** Fast changes the rounding,
//!    not the mathematics: for a fixed pivot sequence the factors and
//!    the error indicator must agree with the bitwise run within bounds
//!    scaled by `n * eps * ||A||_F` (times the effective conditioning
//!    `1/tau` the converged factors can amplify). Checked as a proptest
//!    over matgen presets x tau x worker counts.
//! 2. **Estimator faithfulness in both modes.** The fixed-precision
//!    contract — the indicator tracks the true error, and the true
//!    error lands under `tau ||A||_F` (+ dropped mass for ILUT) — must
//!    hold in Fast mode exactly as in Bitwise. A deliberately broken
//!    reduction (dropping one summand) must *fail* these properties:
//!    the negative control proving the bounds are tight enough to catch
//!    a real one-term numerics bug.
//! 3. **Bitwise-within-mode.** Fast is still deterministic: `mul_add`
//!    is correctly rounded and the pairwise reduction shape depends
//!    only on operand length, never worker count. So every bitwise
//!    equivalence the repo pins for Bitwise — resume == uninterrupted,
//!    sharded == replicated — must also hold
//!    *within* Fast mode, bit for bit.
//!
//! Mode-pinning: checkpoints record the mode in their envelope, and a
//! resume under the other mode is a typed error, never a silent switch
//! (an indicator downdated under one rounding regime is meaningless to
//! a loop accumulating under the other).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use lra::core::{
    ilut_crtp, ilut_crtp_checkpointed, ilut_crtp_spmd, ilut_crtp_spmd_checkpointed,
    ilut_crtp_spmd_replicated, lu_crtp, rand_qb_ei_checkpointed, CheckpointStore, FaultPlan,
    IlutOpts, InvalidInput, LuCrtpOpts, LuCrtpResult, Numerics, Parallelism, QbError, QbOpts,
    RecoveryHooks, RunConfig,
};
use lra::dense::numerics_test_hooks;
use lra::sparse::{add_scaled, CscMatrix};
use proptest::prelude::*;

mod common;
use common::{assert_fixed_precision, bits_eq, fault_ilut_opts, fault_matrix};

// ---- The tolerance property ------------------------------------------

/// The matgen preset families the proptest sweeps, seeded per case.
fn preset(family: usize, seed: u64) -> (&'static str, CscMatrix) {
    match family {
        0 => (
            "fem2d",
            lra::matgen::with_decay(&lra::matgen::fem2d(9, 8, seed), 1e-6, seed.wrapping_add(1)),
        ),
        1 => (
            "circuit",
            lra::matgen::with_decay(
                &lra::matgen::circuit(140, 3, 2, seed),
                1e-6,
                seed.wrapping_add(2),
            ),
        ),
        2 => (
            "economic",
            lra::matgen::with_decay(
                &lra::matgen::economic(100, 5, seed),
                1e-6,
                seed.wrapping_add(3),
            ),
        ),
        _ => (
            "fluid_block",
            lra::matgen::with_decay(
                &lra::matgen::fluid_block(10, 8, seed),
                1e-7,
                seed.wrapping_add(4),
            ),
        ),
    }
}

/// Normwise tolerance for Fast-vs-Bitwise comparisons: `C n eps ||A||_F
/// / tau`. The `1/tau` absorbs the conditioning the converged factors
/// can amplify (pivots below `~tau ||A||` are never divided by), `C`
/// leaves two orders of headroom over the observed drift — still five
/// orders tighter than what a dropped summand produces.
fn normwise_tol(a: &CscMatrix, tau: f64) -> f64 {
    let n = a.rows().max(a.cols()) as f64;
    100.0 * n * f64::EPSILON * a.fro_norm() / tau
}

/// Indicator-faithfulness floor: the downdating indicators carry
/// `sqrt`-of-difference noise around `1e-8 ||A||_F` regardless of mode.
fn indicator_tol(r: &LuCrtpResult, norm_tol: f64) -> f64 {
    norm_tol.max(1e-8 * r.a_norm_f)
}

/// The per-case tolerance property. Panics (assert) on violation so the
/// proptest reports the shrunken case and the negative control can
/// observe the trip through `catch_unwind`.
fn check_tolerance_property(name: &str, a: &CscMatrix, tau: f64, np: usize) {
    let par = Parallelism::new(np);
    let ctx = format!("{name} tau={tau:.0e} np={np}");

    let bw = lu_crtp(a, &LuCrtpOpts::new(8, tau).with_par(par));
    let fast = lu_crtp(
        a,
        &LuCrtpOpts::new(8, tau).with_par(par).with_numerics(Numerics::Fast),
    );
    let tol = normwise_tol(a, tau);

    for (mode, r) in [("bitwise", &bw), ("fast", &fast)] {
        assert!(r.converged, "{ctx} [{mode}]: LU_CRTP failed to converge");
        // Estimator faithfulness: the indicator *is* the true error up
        // to rounding for exact LU_CRTP — in both modes. This is the
        // assertion a broken reduction must trip.
        let exact = r.exact_error(a, Parallelism::SEQ);
        let itol = indicator_tol(r, tol);
        assert!(
            (exact - r.indicator).abs() <= itol,
            "{ctx} [{mode}]: indicator {:.6e} drifted from true error {exact:.6e} \
             beyond {itol:.3e}",
            r.indicator
        );
        // ... and the fixed-precision bound holds on the true error.
        assert!(
            exact <= tau * r.a_norm_f * (1.0 + 1e-9) + itol,
            "{ctx} [{mode}]: true error {exact:.6e} violates tau*||A||_F = {:.6e}",
            tau * r.a_norm_f
        );
    }

    // Cross-mode: whenever the relaxed rounding did not flip a pivot
    // race, the factorizations are the same mathematical object and
    // must agree normwise at the scaled tolerance. (A flipped pivot is
    // legitimate — tournament norms are compared across columns and
    // near-ties may resolve differently — but it makes entrywise factor
    // comparison meaningless, so those rare cases only exercise the
    // per-mode assertions above.)
    if fast.pivot_cols == bw.pivot_cols && fast.pivot_rows == bw.pivot_rows {
        assert!(
            (fast.indicator - bw.indicator).abs() <= indicator_tol(&bw, tol),
            "{ctx}: fast indicator {:.6e} vs bitwise {:.6e} beyond normwise tolerance",
            fast.indicator,
            bw.indicator
        );
        for (f, b, what) in [(&fast.l, &bw.l, "L"), (&fast.u, &bw.u, "U")] {
            let d = add_scaled(f, -1.0, b).fro_norm();
            assert!(
                d <= tol.max(1e-12 * b.fro_norm()),
                "{ctx}: {what} factors differ by {d:.6e} (tol {tol:.3e})"
            );
        }
    }

    // ILUT rides the same property with its dropped-mass slack.
    let iters = bw.iterations.max(1);
    for (mode, numerics) in [("bitwise", Numerics::Bitwise), ("fast", Numerics::Fast)] {
        let opts = IlutOpts::new(8, tau, iters).with_numerics(numerics);
        let il = ilut_crtp(a, &{
            let mut o = opts;
            o.base = o.base.with_par(par);
            o
        });
        assert!(il.converged, "{ctx} [{mode}]: ILUT_CRTP failed to converge");
        assert_fixed_precision(&il, a, tau, &format!("{ctx} [{mode}] ilut"));
    }
}

fn proptest_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases()))]

    /// Satellite 1: Fast matches Bitwise normwise over matgen presets
    /// x tau x worker counts, and the est-vs-true fixed-precision
    /// bound holds in both modes.
    #[test]
    fn fast_mode_matches_bitwise_normwise(
        family in 0..4usize,
        tau_idx in 0..3usize,
        np_idx in 0..3usize,
        seed in 1..64u64,
    ) {
        let np = [1usize, 2, 4][np_idx];
        let tau = [1e-2, 1e-3, 1e-4][tau_idx];
        let (name, a) = preset(family, seed);
        check_tolerance_property(name, &a, tau, np);
    }
}

// ---- Negative control -------------------------------------------------

/// Satellite 2: a deliberately broken reduction — the test hook drops
/// the last summand of every pairwise reduction — must trip the
/// tolerance property. This proves the bounds above are tight enough to
/// catch a real one-term numerics bug rather than being vacuously wide.
/// Runs at np = 1 so the factorization stays on this thread, where the
/// thread-local hook is armed.
#[test]
fn broken_reduction_trips_the_tolerance_property() {
    let (name, a) = preset(0, 11);
    // Sanity: the healthy paths pass the property.
    check_tolerance_property(name, &a, 1e-3, 1);

    numerics_test_hooks::set_broken_reduction(true);
    let tripped = catch_unwind(AssertUnwindSafe(|| {
        check_tolerance_property(name, &a, 1e-3, 1);
    }));
    numerics_test_hooks::set_broken_reduction(false);
    assert!(
        tripped.is_err(),
        "a reduction that drops a summand must violate the tolerance property"
    );

    // The hook disarms cleanly: the healthy property holds again.
    check_tolerance_property(name, &a, 1e-3, 1);
}

// ---- Bitwise-within-mode ----------------------------------------------

fn assert_result_bits(a: &LuCrtpResult, b: &LuCrtpResult, what: &str) {
    assert_eq!(a.rank, b.rank, "{what}: rank");
    assert_eq!(a.iterations, b.iterations, "{what}: iterations");
    assert_eq!(a.converged, b.converged, "{what}: converged");
    assert_eq!(a.pivot_rows, b.pivot_rows, "{what}: pivot_rows");
    assert_eq!(a.pivot_cols, b.pivot_cols, "{what}: pivot_cols");
    assert_eq!(
        a.indicator.to_bits(),
        b.indicator.to_bits(),
        "{what}: indicator bits"
    );
    for (x, y, f) in [(&a.l, &b.l, "L"), (&a.u, &b.u, "U")] {
        assert_eq!(x.colptr(), y.colptr(), "{what}: {f} colptr");
        assert_eq!(x.rowidx(), y.rowidx(), "{what}: {f} rowidx");
        assert!(bits_eq(x.values(), y.values()), "{what}: {f} values");
    }
}

/// A Fast resume must reproduce the Fast uninterrupted run bit for bit:
/// `mul_add` is correctly rounded and the pairwise shapes are fixed, so
/// Fast is deterministic — the checkpoint round trip must preserve it
/// exactly as it does for Bitwise.
#[test]
fn fast_resume_is_bitwise_identical_to_fast_uninterrupted() {
    let a = fault_matrix(11);
    let opts = fault_ilut_opts().with_numerics(Numerics::Fast);
    let np = 2;

    let clean = lra::comm::run_with(np, &RunConfig::default(), |ctx| {
        ilut_crtp_spmd_checkpointed(ctx, &a, &opts, None)
    });
    let reference = clean.results.into_iter().next().unwrap().unwrap().unwrap();
    assert!(
        reference.iterations > 3,
        "need enough iterations to interrupt at iteration 3 (got {})",
        reference.iterations
    );

    let store = CheckpointStore::in_memory();
    let hooks = RecoveryHooks::new(&store, 1);
    let cfg = RunConfig::default()
        .with_watchdog(Duration::from_secs(20))
        .with_faults(FaultPlan::new().kill_rank_at_iteration(0, 3));
    let broken = lra::comm::run_with(np, &cfg, |ctx| {
        ilut_crtp_spmd_checkpointed(ctx, &a, &opts, Some(&hooks))
    });
    assert!(!broken.all_ok(), "the kill must actually interrupt the run");
    assert!(store.saves() >= 2, "snapshots for iterations 1-2 expected");

    let resumed = lra::comm::run_with(np, &RunConfig::default(), |ctx| {
        ilut_crtp_spmd_checkpointed(ctx, &a, &opts, Some(&hooks))
    });
    let resumed = resumed.results.into_iter().next().unwrap().unwrap().unwrap();
    assert_result_bits(&resumed, &reference, "fast resume");
}

/// The sharded SPMD driver must stay bitwise-aligned with the
/// replicated oracle in Fast mode too: both drivers accumulate the Fast
/// indicator in ascending rank order over the *same* column partition,
/// and the kernels are deterministic per mode.
#[test]
fn fast_sharded_matches_fast_replicated_bitwise() {
    let a = lra::matgen::with_decay(&lra::matgen::fluid_block(12, 10, 31), 1e-7, 33);
    let opts = IlutOpts::new(8, 1e-2, 4).with_numerics(Numerics::Fast);
    for np in [1usize, 2, 4] {
        let mut sharded = lra::comm::run_infallible(np, |ctx| ilut_crtp_spmd(ctx, &a, &opts));
        let mut oracle =
            lra::comm::run_infallible(np, |ctx| ilut_crtp_spmd_replicated(ctx, &a, &opts));
        let s = sharded.swap_remove(0);
        let o = oracle.swap_remove(0);
        assert!(s.converged, "np={np}: {:?}", s.breakdown);
        assert_result_bits(&s, &o, &format!("fast sharded np={np}"));
    }
}

// ---- Mode-pinned resume ----------------------------------------------

/// A checkpoint written under Fast must refuse a Bitwise resume with a
/// typed error (and vice versa): silently switching modes mid-run would
/// splice two incompatible rounding histories into one factorization.
#[test]
fn mode_mismatched_ilut_resume_is_a_typed_error() {
    let a = fault_matrix(11);
    let store = CheckpointStore::in_memory();
    let hooks = RecoveryHooks::new(&store, 1);

    let fast = fault_ilut_opts().with_numerics(Numerics::Fast);
    let done = ilut_crtp_checkpointed(&a, &fast, Some(&hooks)).expect("fast run");
    assert!(done.converged, "{:?}", done.breakdown);
    assert!(store.saves() >= 1, "checkpoints expected");

    let err = ilut_crtp_checkpointed(&a, &fault_ilut_opts(), Some(&hooks)).unwrap_err();
    match err {
        InvalidInput::NumericsModeMismatch { stored, requested } => {
            assert_eq!(stored, Numerics::Fast);
            assert_eq!(requested, Numerics::Bitwise);
        }
        other => panic!("expected NumericsModeMismatch, got {other:?}"),
    }

    // Resuming in the stored mode remains fine.
    let again = ilut_crtp_checkpointed(&a, &fast, Some(&hooks)).expect("same-mode resume");
    assert_eq!(again.rank, done.rank);
}

/// The QB analog: the block-iteration checkpoint is mode-pinned too.
#[test]
fn mode_mismatched_qb_resume_is_a_typed_error() {
    let a = fault_matrix(13);
    let store = CheckpointStore::in_memory();
    let hooks = RecoveryHooks::new(&store, 1);

    let fast = QbOpts::new(4, 1e-3).with_numerics(Numerics::Fast);
    let done = rand_qb_ei_checkpointed(&a, &fast, Some(&hooks)).expect("fast QB run");
    assert!(done.converged);
    assert!(store.saves() >= 1, "checkpoints expected");

    let err = rand_qb_ei_checkpointed(&a, &QbOpts::new(4, 1e-3), Some(&hooks)).unwrap_err();
    match err {
        QbError::NumericsModeMismatch { stored, requested } => {
            assert_eq!(stored, Numerics::Fast);
            assert_eq!(requested, Numerics::Bitwise);
        }
        other => panic!("expected NumericsModeMismatch, got {other:?}"),
    }
}
