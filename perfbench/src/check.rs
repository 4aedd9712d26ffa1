//! Correctness checks on every solve, and the small statistics the
//! benchmark reports.

use lra_core::{KernelTimers, LuCrtpResult, Parallelism, QbResult};
use lra_dense::{matmul_nt, matmul_tn, DenseMatrix};
use lra_sparse::{spmm_t_dense, CscMatrix};

/// True relative error `||A - LU||_F / ||A||_F`.
pub fn lu_rel_error(res: &LuCrtpResult, a: &CscMatrix, par: Parallelism) -> f64 {
    res.exact_error(a, par) / a.fro_norm()
}

/// True relative error `||A - QB||_F / ||A||_F` without densifying `A`:
/// `||A - QB||^2 = ||A||^2 - 2<A^T Q, B^T> + <Q^T Q, B B^T>`, which
/// costs `O(nnz(A) K + (m + n) K^2)` instead of an `m x n` residual.
pub fn qb_rel_error(res: &QbResult, a: &CscMatrix, par: Parallelism) -> f64 {
    let a_sq = a.fro_norm_sq();
    if res.rank == 0 {
        return 1.0;
    }
    let atq = spmm_t_dense(a, &res.q, par); // n x K
    let b = &res.b; // K x n
    let mut cross = 0.0;
    for c in 0..b.cols() {
        let bc = b.col(c);
        for (kk, &v) in bc.iter().enumerate() {
            cross += atq.get(c, kk) * v;
        }
    }
    let gram_q = matmul_tn(&res.q, &res.q, par); // K x K
    let gram_b = matmul_nt(b, b, par); // K x K
    let quad: f64 = gram_q
        .as_slice()
        .iter()
        .zip(gram_b.as_slice())
        .map(|(x, y)| x * y)
        .sum();
    (a_sq - 2.0 * cross + quad).max(0.0).sqrt() / a_sq.sqrt()
}

/// Correct digits of a relative error, capped at double precision.
pub fn digits(rel_err: f64) -> f64 {
    (-rel_err.max(1e-16).log10()).max(0.0)
}

/// Sum of all kernel buckets, in seconds.
pub fn kernel_sum(t: &KernelTimers) -> f64 {
    t.total().as_secs_f64()
}

/// Digest of the factors, pivots and rank: equal digests mean the same
/// answer bit for bit.
pub fn lu_digest(r: &LuCrtpResult) -> u64 {
    let mut h = r.l.fingerprint() ^ r.u.fingerprint().rotate_left(17);
    for &p in r.pivot_rows.iter().chain(&r.pivot_cols) {
        h = h.rotate_left(5) ^ p as u64;
    }
    h ^ (r.rank as u64).rotate_left(40)
}

/// Digest of QB factors.
pub fn qb_digest(r: &QbResult) -> u64 {
    dense_digest(&r.q) ^ dense_digest(&r.b).rotate_left(23) ^ (r.rank as u64).rotate_left(40)
}

fn dense_digest(d: &DenseMatrix) -> u64 {
    d.as_slice().iter().fold(0xCBF2_9CE4_8422_2325u64, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x100_0000_01B3)
    })
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Linear-interpolated percentile `q` in `[0, 1]` of the samples;
/// infinite samples sort last.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi || s[hi] == s[lo] {
        s[lo]
    } else {
        s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
    }
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident set of this process in MiB (`VmHWM`, via `getrusage`).
pub fn peak_rss_mb() -> f64 {
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `RUsage` matches the C `struct rusage` layout on 64-bit
    // Linux, and the call only writes into it.
    let rc = unsafe { getrusage(0, &mut u) };
    if rc == 0 {
        u.maxrss as f64 / 1024.0
    } else {
        f64::NAN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Solve;
    use lra_core::{ilut_crtp, lu_crtp, rand_qb_ei, IlutOpts, LuCrtpOpts, QbOpts};

    #[test]
    fn gram_form_qb_error_matches_the_dense_residual() {
        let a = crate::inputs::economic(Some(7), 600, 120);
        let opts = QbOpts::new(16, 1e-2)
            .with_par(Parallelism::new(2))
            .with_seed(11);
        let res = rand_qb_ei(&a, &opts).expect("tau above the indicator floor");
        let dense = res.exact_error(&a, Parallelism::SEQ) / a.fro_norm();
        let gram = qb_rel_error(&res, &a, Parallelism::SEQ);
        assert!(dense > 0.0 && dense < 1e-2, "dense residual {dense}");
        assert!(
            (gram - dense).abs() <= 1e-6 * dense,
            "gram {gram} vs dense {dense}"
        );
    }

    #[test]
    fn ilut_is_held_to_tau_plus_its_dropped_mass() {
        let a = lra_matgen::with_decay_rank(&lra_matgen::fluid_block(6, 40, 3), 1e-6, 60, 4);
        let tau = 1e-2;
        let lu = lu_crtp(&a, &LuCrtpOpts::new(8, tau));
        let il = ilut_crtp(&a, &IlutOpts::new(8, tau, lu.iterations.max(1)));
        let mass = il.threshold.as_ref().expect("threshold report").dropped_mass_sq;
        assert!(mass > 0.0, "the input must make ILUT drop entries");
        let err = lu_rel_error(&il, &a, Parallelism::SEQ);
        let mut s = Solve::lu("ilut_crtp", 1.0, tau, il, 1, false);
        assert_eq!(s.limit, tau + mass.sqrt() / a.fro_norm());
        s.rel_err = err;
        assert!(s.passed(), "err/tau {} limit/tau {}", err / tau, s.limit / tau);
        assert_eq!(Solve::lu("lu_crtp", 1.0, tau, lu, 1, false).limit, tau);
    }

    #[test]
    fn percentiles_interpolate_and_sort_infinities_last() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(percentile(&[1.0, f64::INFINITY], 0.0), 1.0);
        assert!(percentile(&[1.0, f64::INFINITY], 1.0).is_infinite());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 1.0);
    }
}
