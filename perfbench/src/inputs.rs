//! Seeded inputs for every workload, and the input properties the
//! benchmark records about them.
//!
//! Everything is derived from the `--seed` argument; the library only
//! ever sees the generated matrices.

use std::collections::HashSet;
use std::sync::Arc;

use lra_sparse::CscMatrix;

/// SplitMix64: a tiny, well-mixed generator for the benchmark's own
/// draws (sub-seeds, arrival times, the job mix).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

// The batch matrices are the `lra_matgen` presets they are shaped after
// (M3', M2' at scale 1.5, M5': same generator seeds, same decay profile)
// with every entry scaled by a seeded factor in [0.98, 1.02]. A new
// seed moves pivots, fill and the error at the stopping block, while
// the structure and spectrum, and so the work per solve, stay those of
// the preset. Redrawing the structure, or scaling entries by up to 20%,
// moves LU factor nnz by up to 2x between seeds (pivoting flips between
// hub and non-hub columns), which would drown a program change.
//
// The generator arguments below mirror `lra_matgen::m3`, `m2`
// and `m5`, which build their matrices in one step and so leave no place
// to scale the entries before the decay profile is applied. With
// `seed = None` each function returns the preset's own matrix at the
// preset's size, and `tests::unperturbed_inputs_are_the_presets` fails
// if the two drift apart.

/// `a` with every entry scaled by an independent factor in `[0.98, 1.02]`.
pub fn perturb(a: &CscMatrix, seed: u64, stream: u64) -> CscMatrix {
    let mut r = Rng::new(seed, stream);
    let (m, n, colptr, rowidx, mut values) = a.clone().into_parts();
    for v in values.iter_mut() {
        *v *= 0.98 + 0.04 * r.unit();
    }
    CscMatrix::from_parts(m, n, colptr, rowidx, values)
}

/// Perturb a generated matrix under `seed` (unless `None`), then give it
/// the presets' decay profile.
fn decayed(
    a: CscMatrix,
    seed: Option<u64>,
    stream: u64,
    rank: usize,
    decay_seed: u64,
) -> CscMatrix {
    let a = match seed {
        Some(seed) => perturb(&a, seed, stream),
        None => a,
    };
    lra_matgen::with_decay_rank(&a, 1e-6, rank, decay_seed)
}

/// M3'-shaped circuit matrix: power-law structure, tournament-bound,
/// almost no fill (`lra_matgen::m3` at `n = 2400`, `effective_rank = 700`).
pub fn circuit(seed: Option<u64>, n: usize, effective_rank: usize) -> CscMatrix {
    decayed(
        lra_matgen::circuit(n, 5, 20, 103),
        seed,
        1,
        effective_rank,
        13,
    )
}

/// M2'-shaped fluid matrix: dense coupled blocks, heavy Schur fill
/// (`lra_matgen::m2` at `nblocks = 30`, `effective_rank = 500`).
pub fn fluid(seed: Option<u64>, nblocks: usize, effective_rank: usize) -> CscMatrix {
    decayed(
        lra_matgen::fluid_block(nblocks, 40, 102),
        seed,
        2,
        effective_rank,
        12,
    )
}

/// M5'-shaped economic matrix: sector blocks plus sparse cross-links
/// (`lra_matgen::m5` at `n = 8000`, `effective_rank = 1100`).
pub fn economic(seed: Option<u64>, n: usize, effective_rank: usize) -> CscMatrix {
    decayed(
        lra_matgen::economic(n, 40, 105),
        seed,
        3,
        effective_rank,
        15,
    )
}

/// One planned request of the open-loop job stream.
#[derive(Debug, Clone, Copy)]
pub struct PlannedJob {
    /// Seconds after the stream starts at which the job is due.
    pub due: f64,
    /// Index into [`JobMix::matrices`].
    pub matrix: usize,
    /// ILUT_CRTP when true, LU_CRTP otherwise.
    pub ilut: bool,
    pub ranks: usize,
    pub priority: u8,
}

/// The `serve-open` input: a pool of small matrices and a seeded
/// arrival stream over them.
pub struct JobMix {
    pub matrices: Vec<Arc<CscMatrix>>,
    pub jobs: Vec<PlannedJob>,
}

/// The job matrices: small fluid, FEM and circuit matrices in turn,
/// sized within `rows` (fluid ones half that, as their fill is far
/// heavier). Like the batch inputs, the pool's structure and decay
/// profiles are fixed and the seed scales every entry by a factor in
/// [0.98, 1.02], so each seed offers the same kind of work.
pub fn job_matrices(seed: u64, count: usize, rows: (usize, usize)) -> Vec<Arc<CscMatrix>> {
    let mut r = Rng::new(0x5E4E, 4);
    (0..count)
        .map(|i| {
            let n = rows.0 + r.below(rows.1 - rows.0 + 1);
            let s = r.next_u64();
            let a = match i % 3 {
                0 => lra_matgen::fluid_block((n / 80).max(2), 40, s),
                1 => {
                    let nx = (n as f64).sqrt() as usize;
                    lra_matgen::fem2d(nx, n / nx, s)
                }
                _ => lra_matgen::circuit(n, 5, 8, s),
            };
            let a = perturb(&a, seed, 100 + i as u64);
            Arc::new(lra_matgen::with_decay_rank(
                &a,
                1e-6,
                a.rows() / 4,
                r.next_u64(),
            ))
        })
        .collect()
}

/// `count` arrivals at rate `count / window`, each at a seeded point of
/// its own `window / count` slot: paced like a scheduled open loop, so
/// the run measures the server rather than the clumps a Poisson stream
/// of only ~100 arrivals happens to draw (on a 2-core VM those moved
/// p90 by up to 45% between seeds). The jobs are a fixed multiset that the seed sends in
/// a shuffled order, so every seed offers the same work: the matrices
/// cycle through the pool, exactly 70% run ILUT (the rest LU), half run
/// on 2 ranks, and a tenth run at priority 9 on the whole pool.
pub fn job_stream(seed: u64, matrices: usize, count: usize, window: f64) -> Vec<PlannedJob> {
    let mut fixed = Rng::new(0x5E4E, 5);
    let mut pool: Vec<usize> = Vec::new();
    let ilut = permutation(&mut fixed, count);
    let ranks = permutation(&mut fixed, count);
    let urgent = permutation(&mut fixed, count);
    let kinds: Vec<PlannedJob> = (0..count)
        .map(|i| {
            if pool.is_empty() {
                pool = permutation(&mut fixed, matrices);
            }
            let urgent = urgent[i] * 10 < count;
            PlannedJob {
                due: 0.0,
                matrix: pool.pop().expect("refilled when empty"),
                ilut: ilut[i] * 10 < count * 7,
                ranks: if urgent || ranks[i] * 2 < count { 2 } else { 1 },
                priority: if urgent { 9 } else { 0 },
            }
        })
        .collect();
    let mut r = Rng::new(seed, 5);
    let slot = window / count as f64;
    let due: Vec<f64> = (0..count).map(|i| (i as f64 + r.unit()) * slot).collect();
    let mut jobs: Vec<PlannedJob> = permutation(&mut r, count)
        .into_iter()
        .zip(due)
        .map(|(i, due)| PlannedJob { due, ..kinds[i] })
        .collect();
    // An urgent job arrives 10 ms behind the job before it, while that
    // one most likely still holds ranks, so the urgent job preempts it;
    // in a free slot of its own it would rarely find the pool busy.
    for j in 1..jobs.len() {
        if jobs[j].priority > 0 {
            jobs[j].due = jobs[j - 1].due + 0.01;
        }
    }
    jobs
}

/// A seeded permutation of `0..n` (Fisher-Yates).
fn permutation(r: &mut Rng, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, r.below(i + 1));
    }
    p
}

/// Share of jobs that repeat an earlier job's matrix, driver and rank
/// count — the requests the factor cache can answer.
pub fn repeat_share(jobs: &[PlannedJob]) -> f64 {
    let mut seen = HashSet::new();
    let repeats = jobs
        .iter()
        .filter(|j| !seen.insert((j.matrix, j.ilut, j.ranks)))
        .count();
    repeats as f64 / jobs.len().max(1) as f64
}

/// Mean share of rows touched by the nonzeros of each group of `2k`
/// consecutive columns in fill-reducing order — the leaf panels of the
/// first column tournament. Small values mean a leaf densified over
/// all `m` rows is mostly zero.
pub fn leaf_row_frac(a: &CscMatrix, order: &[usize], k: usize) -> f64 {
    let m = a.rows();
    let mut mark = vec![usize::MAX; m];
    let groups: Vec<&[usize]> = order.chunks(2 * k).collect();
    let mut sum = 0.0;
    for (g, cols) in groups.iter().enumerate() {
        let mut touched = 0usize;
        for &j in cols.iter() {
            for &row in a.col(j).0 {
                if mark[row] != g {
                    mark[row] = g;
                    touched += 1;
                }
            }
        }
        sum += touched as f64 / m as f64;
    }
    sum / groups.len().max(1) as f64
}

/// Largest Schur-complement nonzero count of a trace, over `nnz(A)`.
pub fn fill_ratio(max_schur_nnz: usize, a: &CscMatrix) -> f64 {
    max_schur_nnz as f64 / a.nnz().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use lra_matgen::{m2, m3, m5};

    #[test]
    fn unperturbed_inputs_are_the_presets() {
        let same = |a: &CscMatrix, b: &CscMatrix| a.fingerprint() == b.fingerprint();
        assert!(same(&circuit(None, 2400, 700), &m3(1).a));
        assert!(same(&fluid(None, 30, 500), &m2(1).a));
        assert!(same(&economic(None, 8000, 1100), &m5(1).a));
        assert!(!same(&circuit(Some(1), 2400, 700), &m3(1).a));
    }
}
