//! Communication-avoiding tall-and-skinny QR (TSQR).
//!
//! This substitutes the paper's `El::qr::ExplicitTS` (Elemental) and the
//! R-only panel factorizations backing tournament pivoting. Rows are
//! split into one block per worker, each block is factorized
//! independently, the stacked `R` factors are factorized once more, and
//! (optionally) the thin `Q` is reconstructed by back-propagation:
//!
//! `A = [A_1; ...; A_p] = blkdiag(Q_1..Q_p) * [R_1; ...; R_p]`
//! `[R_1; ...; R_p] = Q_s R`  =>  `Q = blkdiag(Q_i) * Q_s`.

use crate::qr::{qr, QrFactor};
use crate::DenseMatrix;
use lra_par::{parallel_for, split_ranges, Parallelism};

/// Result of a TSQR factorization with explicit thin `Q`.
#[derive(Clone, Debug)]
pub struct Tsqr {
    /// Thin orthonormal factor, `m x min(m, n)`.
    pub q: DenseMatrix,
    /// Upper-triangular factor, `min(m, n) x n`.
    pub r: DenseMatrix,
}

/// Choose the row blocking for `m x n`: every block must have at least
/// `n` rows for its local `R` to be full size. The blocking depends on
/// the shape only — never on the worker count — so TSQR results are
/// bitwise deterministic across `np` (workers merely execute the fixed
/// block set).
fn blocking(m: usize, n: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 || m == 0 {
        return std::iter::once(0..m).collect();
    }
    let block_rows = (4 * n).max(256);
    let nb = (m / block_rows.max(n)).clamp(1, m / n.max(1)).max(1);
    split_ranges(m, nb)
}

/// R-only TSQR: the `min(m,n) x n` triangular factor of `a`, without
/// forming `Q`. This is the kernel tournament pivoting runs on candidate
/// column panels (only column correlations matter for pivot selection).
pub fn tsqr_r(a: &DenseMatrix, par: Parallelism) -> DenseMatrix {
    let m = a.rows();
    let n = a.cols();
    if m <= n {
        return qr(a, par).r();
    }
    let blocks = blocking(m, n);
    let nb = blocks.len();
    if nb == 1 {
        return qr(a, par).r();
    }
    let mut locals: Vec<DenseMatrix> = vec![DenseMatrix::zeros(0, 0); nb];
    {
        let locals_ptr = locals.as_mut_ptr() as usize;
        let blocks_ref = &blocks;
        parallel_for(par, nb, 1, |range| {
            for b in range {
                let rg = &blocks_ref[b];
                let block = a.submatrix(rg.start, 0, rg.len(), n);
                let r = qr(&block, Parallelism::SEQ).r();
                // SAFETY: each slot b written by exactly one task.
                unsafe { *(locals_ptr as *mut DenseMatrix).add(b) = r };
            }
        });
    }
    let mut stacked = locals[0].clone();
    for loc in &locals[1..] {
        stacked = stacked.vcat(loc);
    }
    qr(&stacked, par).r()
}

/// Full TSQR with explicit thin `Q`.
pub fn tsqr(a: &DenseMatrix, par: Parallelism) -> Tsqr {
    let m = a.rows();
    let n = a.cols();
    if m <= n {
        let f = qr(a, par);
        return Tsqr {
            q: f.q_thin(par),
            r: f.r(),
        };
    }
    let blocks = blocking(m, n);
    let nb = blocks.len();
    if nb == 1 {
        let f = qr(a, par);
        return Tsqr {
            q: f.q_thin(par),
            r: f.r(),
        };
    }
    // Local QRs (parallel).
    let mut local_f: Vec<Option<QrFactor>> = vec![None; nb];
    {
        let ptr = local_f.as_mut_ptr() as usize;
        let blocks_ref = &blocks;
        parallel_for(par, nb, 1, |range| {
            for b in range {
                let rg = &blocks_ref[b];
                let block = a.submatrix(rg.start, 0, rg.len(), n);
                let f = qr(&block, Parallelism::SEQ);
                // SAFETY: slot b written once.
                unsafe { *(ptr as *mut Option<QrFactor>).add(b) = Some(f) };
            }
        });
    }
    let local_f: Vec<QrFactor> = local_f.into_iter().map(|f| f.unwrap()).collect();
    // Stack the R factors (each n x n because every block has >= n rows).
    let mut stacked = local_f[0].r();
    for f in &local_f[1..] {
        stacked = stacked.vcat(&f.r());
    }
    let top = qr(&stacked, par);
    let r = top.r();
    let qs = top.q_thin(par); // (nb*n) x n
    // Back-propagate: Q block i = Q_i * Qs[i*n..(i+1)*n, :].
    let mut q = DenseMatrix::zeros(m, n);
    {
        let q_ptr = q.as_mut_slice().as_mut_ptr() as usize;
        let blocks_ref = &blocks;
        let local_ref = &local_f;
        let qs_ref = &qs;
        parallel_for(par, nb, 1, |range| {
            for b in range {
                let rg = &blocks_ref[b];
                let rows = rg.len();
                // Expand Qs rows b*n..(b+1)*n to block height and apply Q_i.
                let mut piece = DenseMatrix::zeros(rows, n);
                for j in 0..n {
                    for i in 0..n {
                        piece.set(i, j, qs_ref.get(b * n + i, j));
                    }
                }
                local_ref[b].apply_q(&mut piece, Parallelism::SEQ);
                for j in 0..n {
                    let src = piece.col(j);
                    // SAFETY: row ranges of distinct blocks are disjoint.
                    let dst = unsafe {
                        std::slice::from_raw_parts_mut(
                            (q_ptr as *mut f64).add(j * m + rg.start),
                            rows,
                        )
                    };
                    dst.copy_from_slice(src);
                }
            }
        });
    }
    Tsqr { q, r }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::matmul;

    fn rand_mat(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        DenseMatrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    #[test]
    fn tsqr_reconstructs() {
        let a = rand_mat(200, 8, 1);
        for np in [1, 2, 4, 7] {
            let t = tsqr(&a, Parallelism::new(np));
            let prod = matmul(&t.q, &t.r, Parallelism::SEQ);
            assert!(prod.max_abs_diff(&a) < 1e-12, "np={np}");
            assert!(t.q.orthogonality_error() < 1e-13, "np={np}");
        }
    }

    #[test]
    fn tsqr_r_matches_qr_r_up_to_signs() {
        let a = rand_mat(150, 6, 2);
        let r_seq = qr(&a, Parallelism::SEQ).r();
        let r_par = tsqr_r(&a, Parallelism::new(4));
        assert_eq!(r_par.rows(), 6);
        assert_eq!(r_par.cols(), 6);
        // R unique up to row signs for full-rank input: compare |R|.
        for i in 0..6 {
            for j in 0..6 {
                assert!(
                    (r_seq.get(i, j).abs() - r_par.get(i, j).abs()).abs() < 1e-11,
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn tsqr_short_wide_falls_back() {
        let a = rand_mat(4, 9, 3);
        let t = tsqr(&a, Parallelism::new(4));
        let prod = matmul(&t.q, &t.r, Parallelism::SEQ);
        assert!(prod.max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn tsqr_r_gram_equivalence() {
        // R^T R == A^T A regardless of blocking (the invariant tournament
        // pivoting relies on).
        let a = rand_mat(97, 5, 4);
        let r = tsqr_r(&a, Parallelism::new(3));
        let gram_a = crate::blas::matmul_tn(&a, &a, Parallelism::SEQ);
        let gram_r = crate::blas::matmul_tn(&r, &r, Parallelism::SEQ);
        assert!(gram_a.max_abs_diff(&gram_r) < 1e-11);
    }

    #[test]
    fn tsqr_more_workers_than_blocks() {
        let a = rand_mat(10, 4, 5);
        let t = tsqr(&a, Parallelism::new(16));
        let prod = matmul(&t.q, &t.r, Parallelism::SEQ);
        assert!(prod.max_abs_diff(&a) < 1e-12);
    }
}
