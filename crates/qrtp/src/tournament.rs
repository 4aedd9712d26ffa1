//! QR with tournament pivoting (QR_TP).
//!
//! Finds the `k` "most linearly independent" columns of a matrix with a
//! reduction tree (Section V of the paper, after Grigori/Cayrols/
//! Demmel). Each node ranks its `<= 2k` candidate columns by
//! column-pivoted QR of the panel's `R` factor — valid because QRCP
//! pivots depend only on column inner products, which `R` preserves —
//! and promotes the `k` winners. The `R` factor itself is computed by a
//! chunked, memory-bounded incremental QR over row blocks, which is the
//! sparse-panel substitute for SuiteSparseQR.
//!
//! Cost: every node densifies its `<= 2k` candidate columns over all
//! `m` rows before the QR, so a node costs `O(m k^2)` whatever the
//! panel's sparsity, and a tournament over `n` candidates costs
//! `O(m n k)` for both flat and binary trees. That is not the paper's
//! `O(16 k^2 nnz(A))` sparse-QR bound: leaf panels of the M1'-M5'
//! presets touch only a few percent of their rows, and a panel that
//! gathers just those rows is an open roadmap item.

use crate::source::ColumnSource;
use lra_dense::{qr, qrcp, DenseMatrix};
use lra_par::{parallel_for, Parallelism};

/// Shape of the reduction tree (Section V; an ablation axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TournamentTree {
    /// Pairwise merges, `log2(#blocks)` levels — the parallel default.
    Binary,
    /// Sequential accumulation of one block at a time.
    Flat,
}

/// Result of a column tournament.
#[derive(Debug, Clone)]
pub struct ColumnSelection {
    /// The `k` winning column indices (into the source), in pivot order
    /// (most independent first).
    pub selected: Vec<usize>,
    /// Diagonal of `R` from the final root QRCP over the winners;
    /// `|r_diag[0]|` is the `|R^(1)(1,1)|` estimate of `||A||_2` used by
    /// ILUT_CRTP (eq. 23-24).
    pub r_diag: Vec<f64>,
}

impl ColumnSelection {
    /// Serialize for checkpointing: the tournament's outcome is part of
    /// the factorization loop state a supervisor snapshots at collective
    /// boundaries (`lra-recover`). Floats print with shortest
    /// round-trip formatting, so a serialize → parse cycle is bitwise
    /// exact.
    pub fn to_json(&self) -> lra_obs::Json {
        use lra_obs::Json;
        Json::Obj(vec![
            (
                "selected".to_string(),
                Json::Arr(self.selected.iter().map(|&c| Json::Num(c as f64)).collect()),
            ),
            (
                "r_diag".to_string(),
                Json::Arr(self.r_diag.iter().map(|&v| Json::Num(v)).collect()),
            ),
        ])
    }

    /// Rebuild from [`ColumnSelection::to_json`] output.
    pub fn from_json(j: &lra_obs::Json) -> Result<Self, String> {
        let selected = j
            .get("selected")
            .and_then(lra_obs::Json::as_arr)
            .ok_or("ColumnSelection missing selected")?
            .iter()
            .map(|v| v.as_usize().ok_or("non-index in selected"))
            .collect::<Result<Vec<usize>, _>>()?;
        let r_diag = j
            .get("r_diag")
            .and_then(lra_obs::Json::as_arr)
            .ok_or("ColumnSelection missing r_diag")?
            .iter()
            .map(|v| v.as_f64().ok_or("non-number in r_diag"))
            .collect::<Result<Vec<f64>, _>>()?;
        Ok(ColumnSelection { selected, r_diag })
    }
}

/// Memory-bounded `R` factor of the panel formed by columns `idx` of
/// `src`: incremental QR over row chunks, never materializing more than
/// `chunk x |idx|` dense data at once.
pub fn panel_r<S: ColumnSource + ?Sized>(src: &S, idx: &[usize], par: Parallelism) -> DenseMatrix {
    let m = src.rows();
    let c = idx.len();
    if c == 0 {
        return DenseMatrix::zeros(0, 0);
    }
    // Chunk height: a few multiples of the panel width, at least 256.
    let chunk = (4 * c).max(256).min(m.max(1));
    let nchunks = m.div_ceil(chunk).max(1);
    if nchunks <= 1 {
        let panel = src.gather(idx, 0..m);
        return qr(&panel, par).r();
    }
    // Per-chunk Rs in parallel, folded by stack-and-requalify.
    let acc = lra_par::parallel_map_fold(
        par,
        nchunks,
        1,
        None::<DenseMatrix>,
        |range| {
            let mut local: Option<DenseMatrix> = None;
            for b in range {
                let lo = b * chunk;
                let hi = ((b + 1) * chunk).min(m);
                let block = src.gather(idx, lo..hi);
                let r = qr(&block, Parallelism::SEQ).r();
                local = Some(match local {
                    None => r,
                    Some(prev) => qr(&prev.vcat(&r), Parallelism::SEQ).r(),
                });
            }
            local
        },
        |a, b| match (a, b) {
            (None, x) => x,
            (x, None) => x,
            (Some(x), Some(y)) => Some(qr(&x.vcat(&y), Parallelism::SEQ).r()),
        },
    );
    acc.unwrap_or_else(|| DenseMatrix::zeros(0, c))
}

/// Rank the candidate columns `idx` at one tournament node: QRCP on the
/// panel `R`, returning up to `k` winners (in pivot order) plus the
/// QRCP `R` diagonal.
fn node_select<S: ColumnSource + ?Sized>(
    src: &S,
    idx: &[usize],
    k: usize,
    par: Parallelism,
) -> (Vec<usize>, Vec<f64>) {
    let r = panel_r(src, idx, par);
    let f = qrcp(&r, k);
    let winners: Vec<usize> = f.perm[..f.steps.min(k)].iter().map(|&p| idx[p]).collect();
    (winners, f.r_diag())
}

/// Select the `k` "most linearly independent" columns among `candidates`
/// (defaults to all columns of `src` when `candidates` is `None`).
///
/// Returns fewer than `k` winners only if the candidates' numerical
/// rank is below `k` (trailing exact-zero pivots are dropped).
pub fn tournament_columns<S: ColumnSource + ?Sized>(
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
    assert!(k > 0, "tournament with k = 0");
    if cand.len() <= k {
        // Nothing to select; still compute r_diag for the estimate.
        let (sel, rd) = node_select(src, cand, k, par);
        return ColumnSelection {
            selected: sel,
            r_diag: rd,
        };
    }
    // Leaf stage: blocks of 2k columns, selected in parallel (this is
    // the communication-free "local reduction" of Section V).
    let block = 2 * k;
    let nblocks = cand.len().div_ceil(block);
    let mut level: Vec<Vec<usize>> = vec![Vec::new(); nblocks];
    {
        let level_ptr = level.as_mut_ptr() as usize;
        parallel_for(par, nblocks, 1, |range| {
            for b in range {
                let lo = b * block;
                let hi = ((b + 1) * block).min(cand.len());
                let (sel, _) = node_select(src, &cand[lo..hi], k, Parallelism::SEQ);
                // SAFETY: each slot written by one task.
                unsafe { *(level_ptr as *mut Vec<usize>).add(b) = sel };
            }
        });
    }
    match tree {
        TournamentTree::Binary => {
            while level.len() > 1 {
                let pairs = level.len() / 2;
                let odd = level.len() % 2 == 1;
                let mut next: Vec<Vec<usize>> = vec![Vec::new(); pairs + usize::from(odd)];
                {
                    let next_ptr = next.as_mut_ptr() as usize;
                    let level_ref = &level;
                    parallel_for(par, pairs, 1, |range| {
                        for p in range {
                            let mut merged = level_ref[2 * p].clone();
                            merged.extend_from_slice(&level_ref[2 * p + 1]);
                            let (sel, _) = node_select(src, &merged, k, Parallelism::SEQ);
                            // SAFETY: disjoint slots.
                            unsafe { *(next_ptr as *mut Vec<usize>).add(p) = sel };
                        }
                    });
                }
                if odd {
                    let last = level.len() - 1;
                    next[pairs] = std::mem::take(&mut level[last]);
                }
                level = next;
            }
        }
        TournamentTree::Flat => {
            let mut acc = std::mem::take(&mut level[0]);
            for b in level.iter().skip(1) {
                let mut merged = acc.clone();
                merged.extend_from_slice(b);
                let (sel, _) = node_select(src, &merged, k, par);
                acc = sel;
            }
            level = vec![acc];
        }
    }
    // Root pass: final ranking of the winners (also yields r_diag).
    let winners = &level[0];
    let (selected, r_diag) = node_select(src, winners, k, par);
    ColumnSelection { selected, r_diag }
}

/// Row tournament: select the `k` "most linearly independent" *rows* of
/// the dense orthonormal panel `q` (`m x k`), i.e. a column tournament
/// on `q^T` (Algorithm 2, line 7).
pub fn tournament_rows_dense(
    q: &DenseMatrix,
    k: usize,
    tree: TournamentTree,
    par: Parallelism,
) -> Vec<usize> {
    let qt = q.transpose();
    tournament_columns(&qt, None, k, tree, par).selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use lra_dense::{matmul, singular_values};
    use lra_sparse::{CooMatrix, CscMatrix};

    fn rand_dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        DenseMatrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

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

    #[test]
    fn panel_r_matches_direct_qr() {
        let a = rand_sparse(300, 6, 4, 1);
        let idx: Vec<usize> = (0..6).collect();
        for np in [1, 4] {
            let r = panel_r(&a, &idx, Parallelism::new(np));
            let direct = lra_dense::qr(&a.to_dense(), Parallelism::SEQ).r();
            // R is unique up to row signs; compare Gram matrices.
            let g1 = lra_dense::matmul_tn(&r, &r, Parallelism::SEQ);
            let g2 = lra_dense::matmul_tn(&direct, &direct, Parallelism::SEQ);
            assert!(g1.max_abs_diff(&g2) < 1e-10, "np={np}");
        }
    }

    #[test]
    fn selects_k_distinct_columns() {
        let a = rand_sparse(100, 40, 5, 2);
        for tree in [TournamentTree::Binary, TournamentTree::Flat] {
            let sel = tournament_columns(&a, None, 8, tree, Parallelism::new(4));
            assert_eq!(sel.selected.len(), 8, "{tree:?}");
            let mut s = sel.selected.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 8, "{tree:?}: duplicates");
            assert!(s.iter().all(|&c| c < 40));
        }
    }

    #[test]
    fn finds_independent_columns_of_low_rank_matrix() {
        // Rank-4 matrix: 4 independent columns + 36 linear combinations.
        let base = rand_dense(60, 4, 3);
        let mix = rand_dense(4, 36, 4);
        let deps = matmul(&base, &mix, Parallelism::SEQ);
        let full = base.hcat(&deps);
        let a = CscMatrix::from_dense(&full);
        for tree in [TournamentTree::Binary, TournamentTree::Flat] {
            let sel = tournament_columns(&a, None, 4, tree, Parallelism::new(3));
            let picked = full.select_columns(&sel.selected);
            let sv = singular_values(&picked);
            assert!(
                sv[3] > 1e-8,
                "{tree:?}: tournament picked dependent columns {:?} (sv={sv:?})",
                sel.selected
            );
        }
    }

    #[test]
    fn quality_close_to_direct_qrcp() {
        let a = rand_dense(50, 32, 5);
        let k = 6;
        let f = lra_dense::qrcp(&a, k);
        let direct = a.select_columns(&f.perm[..k]);
        let sigma_direct = singular_values(&direct)[k - 1];
        let sel = tournament_columns(&a, None, k, TournamentTree::Binary, Parallelism::new(2));
        let picked = a.select_columns(&sel.selected);
        let sigma_tp = singular_values(&picked)[k - 1];
        // Tournament may lose a bounded factor vs direct QRCP.
        assert!(
            sigma_tp > 0.05 * sigma_direct,
            "tournament quality too poor: {sigma_tp} vs {sigma_direct}"
        );
    }

    #[test]
    fn r_diag_first_entry_bounds() {
        // |R(1,1)| <= ||A||_2 (eq. 23) and is within the usual sqrt(n)
        // factor of it.
        let a = rand_dense(40, 20, 6);
        let sel = tournament_columns(&a, None, 5, TournamentTree::Binary, Parallelism::SEQ);
        let norm2 = singular_values(&a)[0];
        let r11 = sel.r_diag[0].abs();
        assert!(r11 <= norm2 * (1.0 + 1e-10), "r11={r11} > ||A||_2={norm2}");
        assert!(r11 >= norm2 / (20.0f64).sqrt() * 0.9, "r11 too small");
    }

    #[test]
    fn row_tournament_selects_k_rows() {
        let q = lra_dense::orth(&rand_dense(80, 7, 7), Parallelism::SEQ);
        let rows = tournament_rows_dense(&q, 7, TournamentTree::Binary, Parallelism::new(2));
        assert_eq!(rows.len(), 7);
        let picked = q.select_rows(&rows);
        let sv = singular_values(&picked);
        // Selected k x k block of an orthonormal matrix must be well
        // conditioned (that is the point of the row tournament).
        assert!(sv[6] > 1e-3, "row block nearly singular: {sv:?}");
    }

    #[test]
    fn fewer_candidates_than_k() {
        let a = rand_sparse(20, 3, 3, 8);
        let sel = tournament_columns(&a, None, 8, TournamentTree::Binary, Parallelism::SEQ);
        assert_eq!(sel.selected.len(), 3);
    }

    #[test]
    fn rank_deficient_returns_fewer() {
        // Rank-2 matrix, ask for 5.
        let base = rand_dense(30, 2, 9);
        let mix = rand_dense(2, 10, 10);
        let a = CscMatrix::from_dense(&matmul(&base, &mix, Parallelism::SEQ));
        let sel = tournament_columns(&a, None, 5, TournamentTree::Binary, Parallelism::SEQ);
        assert!(
            sel.selected.len() >= 2,
            "must keep at least the independent ones"
        );
        // All trailing r_diag beyond rank are ~0, so selection is cut.
        let picked = a.to_dense().select_columns(&sel.selected);
        let sv = singular_values(&picked);
        assert!(sv[1] > 1e-10);
    }

    #[test]
    fn candidate_subset_respected() {
        let a = rand_sparse(50, 30, 4, 11);
        let cands: Vec<usize> = (10..30).collect();
        let sel =
            tournament_columns(&a, Some(&cands), 6, TournamentTree::Binary, Parallelism::SEQ);
        assert!(sel.selected.iter().all(|c| cands.contains(c)));
    }

    #[test]
    fn deterministic_across_np() {
        let a = rand_sparse(120, 64, 5, 12);
        let s1 = tournament_columns(&a, None, 8, TournamentTree::Binary, Parallelism::new(1));
        let s2 = tournament_columns(&a, None, 8, TournamentTree::Binary, Parallelism::new(4));
        assert_eq!(s1.selected, s2.selected, "tournament must be deterministic");
    }

}

/// Ablation variant of [`panel_r`]: compute the panel `R` through the
/// Gram matrix (`G = P^T P`, `R = chol(G)`). Half the flops of TSQR and
/// one pass over the data, but it squares the condition number, so
/// pivot selection can degrade on ill-conditioned panels (the reason
/// TSQR is the default; see DESIGN.md ablations). Falls back to TSQR
/// when the Cholesky breaks down.
pub fn panel_r_gram<S: ColumnSource + ?Sized>(
    src: &S,
    idx: &[usize],
    par: Parallelism,
) -> DenseMatrix {
    let m = src.rows();
    let c = idx.len();
    if c == 0 {
        return DenseMatrix::zeros(0, 0);
    }
    let chunk = (4 * c).max(256).min(m.max(1));
    let nchunks = m.div_ceil(chunk).max(1);
    // G = sum over row chunks of P_chunk^T P_chunk.
    let gram = lra_par::parallel_map_fold(
        par,
        nchunks,
        1,
        DenseMatrix::zeros(c, c),
        |range| {
            let mut local = DenseMatrix::zeros(c, c);
            for b in range {
                let lo = b * chunk;
                let hi = ((b + 1) * chunk).min(m);
                let block = src.gather(idx, lo..hi);
                let g = lra_dense::matmul_tn(&block, &block, Parallelism::SEQ);
                local.axpy(1.0, &g);
            }
            local
        },
        |mut a, b| {
            a.axpy(1.0, &b);
            a
        },
    );
    match lra_dense::cholesky_upper(&gram) {
        Some(r) => r,
        None => panel_r(src, idx, par),
    }
}

#[cfg(test)]
mod gram_tests {
    use super::*;

    fn rand_sparse(
        rows: usize,
        cols: usize,
        per_col: usize,
        seed: u64,
    ) -> lra_sparse::CscMatrix {
        let mut state = seed.wrapping_mul(0x517CC1B727220A95) | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        let mut coo = lra_sparse::CooMatrix::new(rows, cols);
        for j in 0..cols {
            for _ in 0..per_col {
                let r = (next() % rows as u64) as usize;
                let v = ((next() >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
                coo.push(r, j, v);
            }
        }
        coo.to_csc()
    }

    #[test]
    fn gram_r_matches_tsqr_r_gram() {
        let a = rand_sparse(200, 7, 5, 3);
        let idx: Vec<usize> = (0..7).collect();
        let r1 = panel_r(&a, &idx, Parallelism::SEQ);
        let r2 = panel_r_gram(&a, &idx, Parallelism::new(3));
        let g1 = lra_dense::matmul_tn(&r1, &r1, Parallelism::SEQ);
        let g2 = lra_dense::matmul_tn(&r2, &r2, Parallelism::SEQ);
        assert!(g1.max_abs_diff(&g2) < 1e-9 * (1.0 + g1.max_abs()));
    }

    #[test]
    fn gram_pivots_match_on_well_conditioned_panel() {
        let a = rand_sparse(150, 12, 6, 4);
        let idx: Vec<usize> = (0..12).collect();
        let f1 = lra_dense::qrcp(&panel_r(&a, &idx, Parallelism::SEQ), 4);
        let f2 = lra_dense::qrcp(&panel_r_gram(&a, &idx, Parallelism::SEQ), 4);
        assert_eq!(f1.selected(4), f2.selected(4));
    }

    #[test]
    fn column_selection_json_roundtrip_is_bitwise() {
        let sel = ColumnSelection {
            selected: vec![7, 0, 42],
            r_diag: vec![1.0 / 3.0, -2.5e-300, 9.75],
        };
        let back = ColumnSelection::from_json(&sel.to_json()).unwrap();
        assert_eq!(back.selected, sel.selected);
        for (a, b) in sel.r_diag.iter().zip(&back.r_diag) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Also exact through the textual form a store persists.
        let text = sel.to_json().to_string();
        let reparsed = ColumnSelection::from_json(&lra_obs::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(reparsed.r_diag, sel.r_diag);
    }
}
