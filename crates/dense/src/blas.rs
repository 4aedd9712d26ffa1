//! Dense matrix-matrix products (the `El::Gemm` substitute).
//!
//! Three orientations cover every use in the low-rank algorithms:
//! `C = A B` (sketch application), `C = A^T B` (projections
//! `B_K = Q_K^T A`, Gram-type products) and `C = A B^T` (subtracting
//! `Q_K (B_K Omega)` style corrections). All parallelize over output
//! columns through `lra-par`, which is efficient because every variant
//! writes whole output columns contiguously.
//!
//! # Blocked micro-kernels and the bitwise-summation contract
//!
//! The public kernels are cache-blocked and register-tiled: output
//! columns are processed in [`NR`]-wide tiles and output rows in
//! [`MR`]-tall blocks, with the `MR x NR` accumulator tile held in
//! registers across the whole inner-dimension sweep. Only the i/j
//! *output* dimensions are tiled — the k-accumulation of every output
//! element runs in the exact order of the naive reference
//! ([`matmul_naive`] and friends), including the skip of exactly-zero
//! `B` entries, so the blocked kernels are **bitwise identical** to the
//! naive loops for every shape and worker count. That contract is what
//! lets the SPMD drivers keep their sharded-vs-replicated bitwise
//! oracle while the kernels go fast; it is pinned by a property test in
//! `tests/blocked_kernels.rs`.

use crate::numerics::Numerics;
use crate::DenseMatrix;
use lra_par::{parallel_for, Parallelism};

/// Register-tile height: output rows accumulated per tile (one cache
/// line of `f64`, two 4-lane vector registers).
const MR: usize = 8;
/// Register-tile width: output columns sharing each loaded `A` block.
const NR: usize = 4;
/// Column-block width for the packed `B` panel: the blocked driver
/// packs [`NC`] output columns at a time and sweeps the `A` row panels
/// *outside* the tile loop, so each 32 KiB `A` panel is read from
/// memory once per block instead of once per 4-column tile. Sized so
/// the packed block (`NC * k` doubles) stays L2-resident at the
/// benchmarked `k = 512`.
const NC: usize = 64;
/// Grain size (output columns per task) for parallel GEMM loops — a
/// multiple of [`NR`] so full-width tiles form inside every task.
const COL_GRAIN: usize = 8;

/// `C = A * B`.
pub fn matmul(a: &DenseMatrix, b: &DenseMatrix, par: Parallelism) -> DenseMatrix {
    matmul_mode(a, b, par, Numerics::Bitwise)
}

/// [`matmul`] with an explicit [`Numerics`] mode: `Bitwise` is the
/// reference kernel, `Fast` routes through the FMA register tiles.
pub fn matmul_mode(
    a: &DenseMatrix,
    b: &DenseMatrix,
    par: Parallelism,
    numerics: Numerics,
) -> DenseMatrix {
    assert_eq!(a.cols(), b.rows(), "matmul: inner dimension mismatch");
    let m = a.rows();
    let n = b.cols();
    let mut c = DenseMatrix::zeros(m, n);
    gemm_blocked::<false>(&mut c, a, par, numerics, |j, buf| {
        buf.copy_from_slice(b.col(j))
    });
    c
}

/// `C = A * B^T`.
pub fn matmul_nt(a: &DenseMatrix, b: &DenseMatrix, par: Parallelism) -> DenseMatrix {
    assert_eq!(a.cols(), b.cols(), "matmul_nt: inner dimension mismatch");
    let m = a.rows();
    let n = b.rows();
    let mut c = DenseMatrix::zeros(m, n);
    // B^T column j is row j of B — gather it once per output column
    // (O(k) against the O(m k) tile work it feeds).
    gemm_blocked::<false>(&mut c, a, par, Numerics::Bitwise, |j, buf| {
        for (l, slot) in buf.iter_mut().enumerate() {
            *slot = b.get(j, l);
        }
    });
    c
}

/// `C -= A * B` in place (used for `A Omega - Q (B Omega)` updates).
pub fn matmul_sub_assign(c: &mut DenseMatrix, a: &DenseMatrix, b: &DenseMatrix, par: Parallelism) {
    matmul_sub_assign_mode(c, a, b, par, Numerics::Bitwise)
}

/// [`matmul_sub_assign`] with an explicit [`Numerics`] mode.
pub fn matmul_sub_assign_mode(
    c: &mut DenseMatrix,
    a: &DenseMatrix,
    b: &DenseMatrix,
    par: Parallelism,
    numerics: Numerics,
) {
    assert_eq!(a.cols(), b.rows());
    assert_eq!(c.rows(), a.rows());
    assert_eq!(c.cols(), b.cols());
    gemm_blocked::<true>(c, a, par, numerics, |j, buf| buf.copy_from_slice(b.col(j)));
}

/// `true` when the CPU supports 4-lane AVX2 doubles at runtime (the
/// crate is still compiled for the baseline target; the wide copies of
/// the tile kernels are opt-in per call).
#[inline]
fn have_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `true` when the CPU additionally has hardware FMA. The Fast kernels
/// can take the `avx2,fma` codegen copies without changing results:
/// `f64::mul_add` and `vfmadd` are the same correctly rounded
/// operation, so the dispatch stays bitwise-within-mode.
#[inline]
fn have_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Which codegen copy of the tile kernel one GEMM call routes through.
/// Picked once per call from the [`Numerics`] mode and the CPU: the
/// `Bitwise` lanes share one fp chain (mul then add, naive zero skip),
/// the `Fast` lanes share another (fused multiply-add, branch-free).
#[derive(Clone, Copy)]
enum TileIsa {
    /// Bitwise chain, baseline codegen.
    Base,
    /// Bitwise chain, AVX2 codegen (`fma` off — identical rounding).
    Avx2,
    /// Fast chain, baseline codegen (`mul_add`, may call libm fma).
    FastBase,
    /// Fast chain, AVX2+FMA codegen (hardware `vfmadd`).
    FastFma,
}

impl TileIsa {
    fn pick(numerics: Numerics) -> TileIsa {
        match numerics {
            Numerics::Bitwise => {
                if have_avx2() {
                    TileIsa::Avx2
                } else {
                    TileIsa::Base
                }
            }
            Numerics::Fast => {
                if have_fma() {
                    TileIsa::FastFma
                } else {
                    TileIsa::FastBase
                }
            }
        }
    }
}

/// Shared blocked driver for the `C (-)= A * B'` family: `fill_b`
/// materializes column `j` of the effective right-hand factor into a
/// task-local panel buffer (a contiguous copy for `matmul` /
/// `matmul_sub_assign`, a row gather for `matmul_nt` — values are
/// copied verbatim, so the arithmetic is untouched). `SUB` selects
/// subtract-accumulate, which preloads the existing `C` tile so the
/// update order matches the naive in-place loop.
///
/// `A` is first repacked into `MR`-tall row panels (`ap[p]` holds rows
/// `p*MR..p*MR+MR` for every `l`, contiguous in `l`) so the tile's
/// k-sweep reads a sequential stream instead of striding by `m`; ragged
/// bottom panels are zero-padded, and the pad lanes are never written
/// back. Repacking copies values verbatim — the arithmetic, and hence
/// the bitwise contract, is untouched.
fn gemm_blocked<const SUB: bool>(
    c: &mut DenseMatrix,
    a: &DenseMatrix,
    par: Parallelism,
    numerics: Numerics,
    fill_b: impl Fn(usize, &mut [f64]) + Sync,
) {
    let m = c.rows();
    let n = c.cols();
    let k = a.cols();
    if m == 0 || n == 0 || k == 0 {
        // Nothing to accumulate: `C` stays zero-initialized (matmul
        // variants) or untouched (sub-assign), exactly like the naive
        // loops, whose bodies also never run.
        return;
    }
    let isa = TileIsa::pick(numerics);
    let a_data = a.as_slice();
    let n_panels = m.div_ceil(MR);
    let mut ap = vec![0.0f64; n_panels * MR * k];
    for l in 0..k {
        let col = &a_data[l * m..(l + 1) * m];
        for p in 0..n_panels {
            let i0 = p * MR;
            let iw = MR.min(m - i0);
            let dst = p * MR * k + l * MR;
            ap[dst..dst + iw].copy_from_slice(&col[i0..i0 + iw]);
        }
    }
    let c_ptr = c.as_mut_slice().as_mut_ptr() as usize;
    parallel_for(par, n, COL_GRAIN, |range| {
        let mut col = vec![0.0f64; k];
        let mut bt = vec![0.0f64; NC * k];
        let mut any_zero = [false; NC / NR];
        let mut jc = range.start;
        while jc < range.end {
            // Pack a block of up to NC output columns as k x NR tiles
            // (tile t at bt[t*NR*k..]) so the panel sweep below reads
            // one contiguous NR-row per `l` (values copied verbatim),
            // and scan each tile's active lanes for zeros once — the
            // bitwise kernel picks its sweep from that flag.
            let jcw = (range.end - jc).min(NC);
            let ntiles = jcw.div_ceil(NR);
            for t in 0..ntiles {
                let j0 = jc + t * NR;
                let jw = (jc + jcw - j0).min(NR);
                let btt = &mut bt[t * NR * k..(t + 1) * NR * k];
                btt.fill(0.0);
                for jj in 0..jw {
                    fill_b(j0 + jj, &mut col);
                    for (l, &v) in col.iter().enumerate() {
                        btt[l * NR + jj] = v;
                    }
                }
                let mut az = false;
                for bl in btt.chunks_exact(NR) {
                    for &blj in bl.iter().take(jw) {
                        az |= blj == 0.0;
                    }
                }
                any_zero[t] = az;
            }
            // Panel-outer sweep: each packed A panel is streamed once
            // per column block and reused across all its tiles. Every
            // output element still accumulates over the full inner
            // dimension in ascending order inside one tile call, so
            // the loop order is pure locality — the arithmetic, and
            // hence the bitwise contract, is untouched.
            for (p, panel) in ap.chunks_exact(MR * k).enumerate() {
                let i0 = p * MR;
                for t in 0..ntiles {
                    let j0 = jc + t * NR;
                    let jw = (jc + jcw - j0).min(NR);
                    let btt = &bt[t * NR * k..(t + 1) * NR * k];
                    let az = any_zero[t];
                    // SAFETY: this task owns output columns `range`,
                    // and the tile at j0 covers jw <= NR of them.
                    unsafe {
                        let cp = c_ptr as *mut f64;
                        match jw {
                            4 => tile_dispatch::<4, SUB>(isa, cp, m, i0, j0, panel, btt, az),
                            3 => tile_dispatch::<3, SUB>(isa, cp, m, i0, j0, panel, btt, az),
                            2 => tile_dispatch::<2, SUB>(isa, cp, m, i0, j0, panel, btt, az),
                            _ => tile_dispatch::<1, SUB>(isa, cp, m, i0, j0, panel, btt, az),
                        }
                    }
                }
            }
            jc += jcw;
        }
    });
}

/// Route one tile to the copy selected by [`TileIsa::pick`]. The
/// `Bitwise` lanes share one fp chain: [`tile_n`] in scalar source,
/// [`tile_n_avx2`] in explicit `f64x4` intrinsics that issue the same
/// mul-then-add per lane (no FMA contraction — this is what keeps the
/// wide path inside the bitwise contract). The `Fast` lanes share the
/// fused chain: [`tile_n_fast`]'s `mul_add` and [`tile_n_fast_fma`]'s
/// `_mm256_fmadd_pd` are the same correctly rounded operation.
///
/// # Safety
/// Same contract as [`tile_n`].
#[allow(clippy::too_many_arguments)]
#[inline]
unsafe fn tile_dispatch<const JW: usize, const SUB: bool>(
    isa: TileIsa,
    c_ptr: *mut f64,
    m: usize,
    i0: usize,
    j0: usize,
    panel: &[f64],
    bt: &[f64],
    any_zero: bool,
) {
    #[cfg(target_arch = "x86_64")]
    match isa {
        TileIsa::Avx2 => return tile_n_avx2::<JW, SUB>(c_ptr, m, i0, j0, panel, bt, any_zero),
        TileIsa::FastFma => return tile_n_fast_fma::<JW, SUB>(c_ptr, m, i0, j0, panel, bt),
        _ => {}
    }
    match isa {
        TileIsa::FastBase | TileIsa::FastFma => tile_n_fast::<JW, SUB>(c_ptr, m, i0, j0, panel, bt),
        _ => tile_n::<JW, SUB>(c_ptr, m, i0, j0, panel, bt, any_zero),
    }
}

/// AVX2 copy of [`tile_n`] written in explicit `f64x4` intrinsics: the
/// `MR x JW` accumulator tile lives in two `__m256d` registers per
/// output column, and each k step broadcasts `B`'s scalar and issues a
/// vector multiply followed by a *separate* vector add/sub — the same
/// mul-then-add rounding per lane as the scalar source, which is what
/// keeps this copy inside the bitwise contract (no FMA contraction is
/// possible because none is written). The per-`(l, j)` zero skip stays
/// a scalar branch on the broadcast value, taken exactly when the
/// scalar zero-aware sweep would take it. Ragged bottom panels
/// (`iw < MR`) stage `C` through a zero-padded stack tile so vector
/// loads and stores never touch rows past `m`; the pad lanes carry the
/// same (discarded) values as the scalar kernel's pad slots.
///
/// # Safety
/// Same contract as [`tile_n`]; additionally the CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tile_n_avx2<const JW: usize, const SUB: bool>(
    c_ptr: *mut f64,
    m: usize,
    i0: usize,
    j0: usize,
    panel: &[f64],
    bt: &[f64],
    any_zero: bool,
) {
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_broadcast_sd, _mm256_loadu_pd, _mm256_mul_pd,
        _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd,
    };
    debug_assert_eq!(MR, 8, "two f64x4 lanes per output column");
    let iw = MR.min(m - i0);
    let mut acc: [[__m256d; 2]; JW] = [[_mm256_setzero_pd(); 2]; JW];
    if SUB {
        for (jj, accj) in acc.iter_mut().enumerate() {
            let cj = c_ptr.add((j0 + jj) * m + i0);
            if iw == MR {
                accj[0] = _mm256_loadu_pd(cj);
                accj[1] = _mm256_loadu_pd(cj.add(4));
            } else {
                let mut pad = [0.0f64; MR];
                for (ii, slot) in pad.iter_mut().take(iw).enumerate() {
                    *slot = *cj.add(ii);
                }
                accj[0] = _mm256_loadu_pd(pad.as_ptr());
                accj[1] = _mm256_loadu_pd(pad.as_ptr().add(4));
            }
        }
    }
    for (av, bl) in panel.chunks_exact(MR).zip(bt.chunks_exact(NR)) {
        let a_lo = _mm256_loadu_pd(av.as_ptr());
        let a_hi = _mm256_loadu_pd(av.as_ptr().add(4));
        for (jj, accj) in acc.iter_mut().enumerate() {
            let blj = bl[jj];
            if any_zero && blj == 0.0 {
                continue;
            }
            let bv = _mm256_broadcast_sd(&blj);
            if SUB {
                accj[0] = _mm256_sub_pd(accj[0], _mm256_mul_pd(bv, a_lo));
                accj[1] = _mm256_sub_pd(accj[1], _mm256_mul_pd(bv, a_hi));
            } else {
                accj[0] = _mm256_add_pd(accj[0], _mm256_mul_pd(bv, a_lo));
                accj[1] = _mm256_add_pd(accj[1], _mm256_mul_pd(bv, a_hi));
            }
        }
    }
    for (jj, accj) in acc.iter().enumerate() {
        let cj = c_ptr.add((j0 + jj) * m + i0);
        if iw == MR {
            _mm256_storeu_pd(cj, accj[0]);
            _mm256_storeu_pd(cj.add(4), accj[1]);
        } else {
            let mut pad = [0.0f64; MR];
            _mm256_storeu_pd(pad.as_mut_ptr(), accj[0]);
            _mm256_storeu_pd(pad.as_mut_ptr().add(4), accj[1]);
            for (ii, &v) in pad.iter().take(iw).enumerate() {
                *cj.add(ii) = v;
            }
        }
    }
}

/// One `MR x JW` tile of the blocked `C (-)= A * B'` kernel against a
/// single packed `A` row panel (rows `i0..i0+MR`, see
/// [`gemm_blocked`]), holding the accumulator tile in registers while
/// each output element accumulates over the *full* inner dimension in
/// ascending order (the bitwise contract), with the per-`(l, j)` zero
/// skip of the naive reference. `any_zero` is the caller's pre-scan of
/// the B tile's active lanes: the zero skip only matters when a zero
/// is actually present.
///
/// # Safety
/// `c_ptr` must point to a column-major `m x >= j0+JW` buffer whose
/// columns `j0..j0+JW` are exclusively owned by the caller; `panel`
/// must hold one packed `MR x k` panel covering rows `i0..i0+MR` (with
/// `i0 < m`, ragged tail zero-padded) and `bt` a `k x NR` row-major B
/// tile (columns past `JW` ignored); `any_zero` must be true if any
/// active lane of `bt` is zero.
#[inline(always)]
unsafe fn tile_n<const JW: usize, const SUB: bool>(
    c_ptr: *mut f64,
    m: usize,
    i0: usize,
    j0: usize,
    panel: &[f64],
    bt: &[f64],
    any_zero: bool,
) {
    let iw = MR.min(m - i0);
    // Pad lanes (iw..MR) stay zero end to end: zero-initialized
    // here, fed zero-padded `A` values in the sweep, skipped on
    // write-back.
    let mut acc = [[0.0f64; MR]; JW];
    if SUB {
        for (jj, accj) in acc.iter_mut().enumerate() {
            let cj = c_ptr.add((j0 + jj) * m + i0);
            for (ii, slot) in accj.iter_mut().take(iw).enumerate() {
                *slot = *cj.add(ii);
            }
        }
    }
    if !any_zero {
        // Branch-free sweep: every `blj` is nonzero, so the naive
        // kernel would never skip — the arithmetic is identical.
        for (av, bl) in panel.chunks_exact(MR).zip(bt.chunks_exact(NR)) {
            let av: &[f64; MR] = av.try_into().unwrap();
            let bl: &[f64; NR] = bl.try_into().unwrap();
            for (jj, accj) in acc.iter_mut().enumerate() {
                let blj = bl[jj];
                if SUB {
                    for ii in 0..MR {
                        accj[ii] -= blj * av[ii];
                    }
                } else {
                    for ii in 0..MR {
                        accj[ii] += blj * av[ii];
                    }
                }
            }
        }
    } else {
        // Zero-aware sweep preserving the naive kernel's exact
        // per-`(l, j)` skip (needed bitwise: `x + 0.0*a` is not
        // always `x`, e.g. for `-0.0` accumulators or non-finite
        // `a` — including the zero-padded tail panel lanes).
        for (av, bl) in panel.chunks_exact(MR).zip(bt.chunks_exact(NR)) {
            let av: &[f64; MR] = av.try_into().unwrap();
            let bl: &[f64; NR] = bl.try_into().unwrap();
            for (jj, accj) in acc.iter_mut().enumerate() {
                let blj = bl[jj];
                if blj == 0.0 {
                    continue;
                }
                if SUB {
                    for ii in 0..MR {
                        accj[ii] -= blj * av[ii];
                    }
                } else {
                    for ii in 0..MR {
                        accj[ii] += blj * av[ii];
                    }
                }
            }
        }
    }
    for (jj, accj) in acc.iter().enumerate() {
        let cj = c_ptr.add((j0 + jj) * m + i0);
        for (ii, &v) in accj.iter().take(iw).enumerate() {
            *cj.add(ii) = v;
        }
    }
}

/// AVX2+FMA copy of [`tile_n_fast`] in explicit `f64x4` intrinsics:
/// two `_mm256_fmadd_pd` accumulator lanes per output column, fed by a
/// broadcast of (possibly negated, for `SUB`) `B` scalars. Same
/// results as the baseline copy — `f64::mul_add` and `vfmadd` are the
/// same correctly rounded operation — so the dispatch stays
/// bitwise-within-mode. Ragged bottom panels stage `C` through a
/// zero-padded stack tile exactly like [`tile_n_avx2`].
///
/// # Safety
/// Same contract as [`tile_n`]; additionally the CPU must support
/// AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn tile_n_fast_fma<const JW: usize, const SUB: bool>(
    c_ptr: *mut f64,
    m: usize,
    i0: usize,
    j0: usize,
    panel: &[f64],
    bt: &[f64],
) {
    use std::arch::x86_64::{
        __m256d, _mm256_broadcast_sd, _mm256_fmadd_pd, _mm256_loadu_pd, _mm256_setzero_pd,
        _mm256_storeu_pd,
    };
    debug_assert_eq!(MR, 8, "two f64x4 lanes per output column");
    let iw = MR.min(m - i0);
    let mut acc: [[__m256d; 2]; JW] = [[_mm256_setzero_pd(); 2]; JW];
    if SUB {
        for (jj, accj) in acc.iter_mut().enumerate() {
            let cj = c_ptr.add((j0 + jj) * m + i0);
            if iw == MR {
                accj[0] = _mm256_loadu_pd(cj);
                accj[1] = _mm256_loadu_pd(cj.add(4));
            } else {
                let mut pad = [0.0f64; MR];
                for (ii, slot) in pad.iter_mut().take(iw).enumerate() {
                    *slot = *cj.add(ii);
                }
                accj[0] = _mm256_loadu_pd(pad.as_ptr());
                accj[1] = _mm256_loadu_pd(pad.as_ptr().add(4));
            }
        }
    }
    for (av, bl) in panel.chunks_exact(MR).zip(bt.chunks_exact(NR)) {
        let a_lo = _mm256_loadu_pd(av.as_ptr());
        let a_hi = _mm256_loadu_pd(av.as_ptr().add(4));
        for (jj, accj) in acc.iter_mut().enumerate() {
            let blj = if SUB { -bl[jj] } else { bl[jj] };
            let bv = _mm256_broadcast_sd(&blj);
            accj[0] = _mm256_fmadd_pd(bv, a_lo, accj[0]);
            accj[1] = _mm256_fmadd_pd(bv, a_hi, accj[1]);
        }
    }
    for (jj, accj) in acc.iter().enumerate() {
        let cj = c_ptr.add((j0 + jj) * m + i0);
        if iw == MR {
            _mm256_storeu_pd(cj, accj[0]);
            _mm256_storeu_pd(cj.add(4), accj[1]);
        } else {
            let mut pad = [0.0f64; MR];
            _mm256_storeu_pd(pad.as_mut_ptr(), accj[0]);
            _mm256_storeu_pd(pad.as_mut_ptr().add(4), accj[1]);
            for (ii, &v) in pad.iter().take(iw).enumerate() {
                *cj.add(ii) = v;
            }
        }
    }
}

/// Fast-numerics variant of [`tile_n`]: every accumulate is a fused
/// multiply-add (one rounding), and the sweep is branch-free — the
/// per-`(l, j)` zero skip of the naive reference is dropped, since the
/// Fast contract is normwise, not bitwise-vs-naive. Still deterministic
/// for a fixed input: the k-order is ascending as before and `mul_add`
/// is correctly rounded under every codegen copy.
///
/// # Safety
/// Same contract as [`tile_n`].
#[inline(always)]
unsafe fn tile_n_fast<const JW: usize, const SUB: bool>(
    c_ptr: *mut f64,
    m: usize,
    i0: usize,
    j0: usize,
    panel: &[f64],
    bt: &[f64],
) {
    let iw = MR.min(m - i0);
    // Pad lanes (iw..MR) accumulate `blj * 0.0` harmlessly and are
    // skipped on write-back, as in the bitwise tile.
    let mut acc = [[0.0f64; MR]; JW];
    if SUB {
        for (jj, accj) in acc.iter_mut().enumerate() {
            let cj = c_ptr.add((j0 + jj) * m + i0);
            for (ii, slot) in accj.iter_mut().take(iw).enumerate() {
                *slot = *cj.add(ii);
            }
        }
    }
    for (av, bl) in panel.chunks_exact(MR).zip(bt.chunks_exact(NR)) {
        let av: &[f64; MR] = av.try_into().unwrap();
        let bl: &[f64; NR] = bl.try_into().unwrap();
        for (jj, accj) in acc.iter_mut().enumerate() {
            let blj = if SUB { -bl[jj] } else { bl[jj] };
            for ii in 0..MR {
                accj[ii] = blj.mul_add(av[ii], accj[ii]);
            }
        }
    }
    for (jj, accj) in acc.iter().enumerate() {
        let cj = c_ptr.add((j0 + jj) * m + i0);
        for (ii, &v) in accj.iter().take(iw).enumerate() {
            *cj.add(ii) = v;
        }
    }
}

/// `C = A^T * B`.
pub fn matmul_tn(a: &DenseMatrix, b: &DenseMatrix, par: Parallelism) -> DenseMatrix {
    matmul_tn_mode(a, b, par, Numerics::Bitwise)
}

/// [`matmul_tn`] with an explicit [`Numerics`] mode: `Fast` runs the
/// dot tiles with fused multiply-add chains.
pub fn matmul_tn_mode(
    a: &DenseMatrix,
    b: &DenseMatrix,
    par: Parallelism,
    numerics: Numerics,
) -> DenseMatrix {
    assert_eq!(a.rows(), b.rows(), "matmul_tn: inner dimension mismatch");
    let m = a.cols();
    let n = b.cols();
    let inner = a.rows();
    let isa = TileIsa::pick(numerics);
    let mut c = DenseMatrix::zeros(m, n);
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    let c_ptr = c.as_mut_slice().as_mut_ptr() as usize;
    parallel_for(par, n, COL_GRAIN, |range| {
        // SAFETY: this task exclusively owns output columns `range`.
        unsafe {
            #[cfg(target_arch = "x86_64")]
            match isa {
                TileIsa::Avx2 => {
                    tn_range_avx2(c_ptr as *mut f64, m, inner, a_data, b_data, range);
                    return;
                }
                TileIsa::FastFma => {
                    tn_range_fast_fma(c_ptr as *mut f64, m, inner, a_data, b_data, range);
                    return;
                }
                _ => {}
            }
            match isa {
                TileIsa::FastBase | TileIsa::FastFma => {
                    tn_range_fast(c_ptr as *mut f64, m, inner, a_data, b_data, range)
                }
                _ => tn_range(c_ptr as *mut f64, m, inner, a_data, b_data, range),
            }
        }
    });
    c
}

/// AVX2-compiled copy of [`tn_range`] (lanewise mul/add only — see
/// [`tile_dispatch`] for why this stays bitwise-identical).
///
/// # Safety
/// Same contract as [`tn_range`]; additionally the CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tn_range_avx2(
    c_ptr: *mut f64,
    m: usize,
    inner: usize,
    a_data: &[f64],
    b_data: &[f64],
    range: std::ops::Range<usize>,
) {
    tn_range(c_ptr, m, inner, a_data, b_data, range)
}

/// One task's worth of `C = A^T B` output columns.
///
/// # Safety
/// `c_ptr` must point to a column-major `m x n` buffer whose columns
/// `range` are exclusively owned by the caller, with `range.end <= n`.
#[inline(always)]
unsafe fn tn_range(
    c_ptr: *mut f64,
    m: usize,
    inner: usize,
    a_data: &[f64],
    b_data: &[f64],
    range: std::ops::Range<usize>,
) {
    {
        let mut j0 = range.start;
        while j0 < range.end {
            let jw = (range.end - j0).min(NR);
            let mut i0 = 0usize;
            while i0 + NR <= m && jw == NR {
                // Full 4x4 dot tile: 16 independent accumulation
                // chains hide mul/add latency; each chain runs over the
                // inner dimension in ascending order (bitwise contract).
                let mut acc = [[0.0f64; NR]; NR];
                let mut ac: [&[f64]; NR] = [&[]; NR];
                let mut bc: [&[f64]; NR] = [&[]; NR];
                for (t, (acs, bcs)) in ac.iter_mut().zip(bc.iter_mut()).enumerate() {
                    *acs = &a_data[(i0 + t) * inner..(i0 + t + 1) * inner];
                    *bcs = &b_data[(j0 + t) * inner..(j0 + t + 1) * inner];
                }
                for l in 0..inner {
                    for (ii, accrow) in acc.iter_mut().enumerate() {
                        let ail = ac[ii][l];
                        for (jj, slot) in accrow.iter_mut().enumerate() {
                            *slot += ail * bc[jj][l];
                        }
                    }
                }
                for jj in 0..NR {
                    // SAFETY: this task owns output columns `range`.
                    let cj = unsafe {
                        std::slice::from_raw_parts_mut(c_ptr.add((j0 + jj) * m), m)
                    };
                    for (ii, accrow) in acc.iter().enumerate() {
                        cj[i0 + ii] = accrow[jj];
                    }
                }
                i0 += NR;
            }
            // Tails (i remainder, or tiles narrower than NR): plain
            // dot products, same ascending-l order per element.
            for jj in 0..jw {
                // SAFETY: disjoint output columns within this task.
                let cj = unsafe {
                    std::slice::from_raw_parts_mut(c_ptr.add((j0 + jj) * m), m)
                };
                let bj = &b_data[(j0 + jj) * inner..(j0 + jj + 1) * inner];
                for (i, ci) in cj.iter_mut().enumerate().skip(i0) {
                    let ai = &a_data[i * inner..(i + 1) * inner];
                    let mut dot = 0.0;
                    for l in 0..inner {
                        dot += ai[l] * bj[l];
                    }
                    *ci = dot;
                }
            }
            j0 += jw;
        }
    }
}

/// AVX2+FMA-compiled copy of [`tn_range_fast`].
///
/// # Safety
/// Same contract as [`tn_range`]; additionally the CPU must support
/// AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn tn_range_fast_fma(
    c_ptr: *mut f64,
    m: usize,
    inner: usize,
    a_data: &[f64],
    b_data: &[f64],
    range: std::ops::Range<usize>,
) {
    tn_range_fast(c_ptr, m, inner, a_data, b_data, range)
}

/// Fast-numerics variant of [`tn_range`]: the 16 accumulation chains of
/// the 4x4 dot tile (and the scalar tails) run on fused multiply-adds.
/// Same ascending-`l` order per chain, one rounding per term.
///
/// # Safety
/// Same contract as [`tn_range`].
#[inline(always)]
unsafe fn tn_range_fast(
    c_ptr: *mut f64,
    m: usize,
    inner: usize,
    a_data: &[f64],
    b_data: &[f64],
    range: std::ops::Range<usize>,
) {
    let mut j0 = range.start;
    while j0 < range.end {
        let jw = (range.end - j0).min(NR);
        let mut i0 = 0usize;
        while i0 + NR <= m && jw == NR {
            let mut acc = [[0.0f64; NR]; NR];
            let mut ac: [&[f64]; NR] = [&[]; NR];
            let mut bc: [&[f64]; NR] = [&[]; NR];
            for (t, (acs, bcs)) in ac.iter_mut().zip(bc.iter_mut()).enumerate() {
                *acs = &a_data[(i0 + t) * inner..(i0 + t + 1) * inner];
                *bcs = &b_data[(j0 + t) * inner..(j0 + t + 1) * inner];
            }
            for l in 0..inner {
                for (ii, accrow) in acc.iter_mut().enumerate() {
                    let ail = ac[ii][l];
                    for (jj, slot) in accrow.iter_mut().enumerate() {
                        *slot = ail.mul_add(bc[jj][l], *slot);
                    }
                }
            }
            for jj in 0..NR {
                // SAFETY: this task owns output columns `range`.
                let cj =
                    unsafe { std::slice::from_raw_parts_mut(c_ptr.add((j0 + jj) * m), m) };
                for (ii, accrow) in acc.iter().enumerate() {
                    cj[i0 + ii] = accrow[jj];
                }
            }
            i0 += NR;
        }
        for jj in 0..jw {
            // SAFETY: disjoint output columns within this task.
            let cj = unsafe { std::slice::from_raw_parts_mut(c_ptr.add((j0 + jj) * m), m) };
            let bj = &b_data[(j0 + jj) * inner..(j0 + jj + 1) * inner];
            for (i, ci) in cj.iter_mut().enumerate().skip(i0) {
                let ai = &a_data[i * inner..(i + 1) * inner];
                let mut dot = 0.0;
                for l in 0..inner {
                    dot = ai[l].mul_add(bj[l], dot);
                }
                *ci = dot;
            }
        }
        j0 += jw;
    }
}

/// `y = A * x` for a dense vector `x`.
pub fn matvec(a: &DenseMatrix, x: &[f64]) -> Vec<f64> {
    assert_eq!(a.cols(), x.len());
    let mut y = vec![0.0; a.rows()];
    for (l, &xl) in x.iter().enumerate() {
        if xl == 0.0 {
            continue;
        }
        for (yi, &ai) in y.iter_mut().zip(a.col(l)) {
            *yi += xl * ai;
        }
    }
    y
}

// ---------------------------------------------------------------------
// Naive references. These are the semantic definition of the blocked
// kernels above: same k-accumulation order per output element, same
// zero skips. Kept callable so the bitwise property test and the
// kernel benchmark can compare against them.
// ---------------------------------------------------------------------

/// Naive axpy-ordered `C = A * B` — the bitwise reference for
/// [`matmul`]. Not part of the supported API surface.
#[doc(hidden)]
pub fn matmul_naive(a: &DenseMatrix, b: &DenseMatrix, par: Parallelism) -> DenseMatrix {
    assert_eq!(a.cols(), b.rows(), "matmul: inner dimension mismatch");
    let m = a.rows();
    let n = b.cols();
    let k = a.cols();
    let mut c = DenseMatrix::zeros(m, n);
    let a_data = a.as_slice();
    let c_ptr = c.as_mut_slice().as_mut_ptr() as usize;
    parallel_for(par, n, COL_GRAIN, |range| {
        for j in range {
            // SAFETY: each output column j is owned by exactly one task.
            let cj =
                unsafe { std::slice::from_raw_parts_mut((c_ptr as *mut f64).add(j * m), m) };
            let bj = b.col(j);
            for l in 0..k {
                let blj = bj[l];
                if blj == 0.0 {
                    continue;
                }
                let al = &a_data[l * m..(l + 1) * m];
                for (ci, &ai) in cj.iter_mut().zip(al) {
                    *ci += blj * ai;
                }
            }
        }
    });
    c
}

/// Naive dot-product `C = A^T * B` — the bitwise reference for
/// [`matmul_tn`]. Not part of the supported API surface.
#[doc(hidden)]
pub fn matmul_tn_naive(a: &DenseMatrix, b: &DenseMatrix, par: Parallelism) -> DenseMatrix {
    assert_eq!(a.rows(), b.rows(), "matmul_tn: inner dimension mismatch");
    let m = a.cols();
    let n = b.cols();
    let inner = a.rows();
    let mut c = DenseMatrix::zeros(m, n);
    let c_ptr = c.as_mut_slice().as_mut_ptr() as usize;
    parallel_for(par, n, COL_GRAIN, |range| {
        for j in range {
            // SAFETY: disjoint output columns.
            let cj =
                unsafe { std::slice::from_raw_parts_mut((c_ptr as *mut f64).add(j * m), m) };
            let bj = b.col(j);
            for (i, ci) in cj.iter_mut().enumerate() {
                let ai = a.col(i);
                let mut dot = 0.0;
                for l in 0..inner {
                    dot += ai[l] * bj[l];
                }
                *ci = dot;
            }
        }
    });
    c
}

/// Naive `C = A * B^T` — the bitwise reference for [`matmul_nt`]. Not
/// part of the supported API surface.
#[doc(hidden)]
pub fn matmul_nt_naive(a: &DenseMatrix, b: &DenseMatrix, par: Parallelism) -> DenseMatrix {
    assert_eq!(a.cols(), b.cols(), "matmul_nt: inner dimension mismatch");
    let m = a.rows();
    let n = b.rows();
    let k = a.cols();
    let mut c = DenseMatrix::zeros(m, n);
    let a_data = a.as_slice();
    let c_ptr = c.as_mut_slice().as_mut_ptr() as usize;
    parallel_for(par, n, COL_GRAIN, |range| {
        for j in range {
            // SAFETY: disjoint output columns.
            let cj =
                unsafe { std::slice::from_raw_parts_mut((c_ptr as *mut f64).add(j * m), m) };
            for l in 0..k {
                // B^T(l, j) = B(j, l)
                let blj = b.get(j, l);
                if blj == 0.0 {
                    continue;
                }
                let al = &a_data[l * m..(l + 1) * m];
                for (ci, &ai) in cj.iter_mut().zip(al) {
                    *ci += blj * ai;
                }
            }
        }
    });
    c
}

/// Naive in-place `C -= A * B` — the bitwise reference for
/// [`matmul_sub_assign`]. Not part of the supported API surface.
#[doc(hidden)]
pub fn matmul_sub_assign_naive(
    c: &mut DenseMatrix,
    a: &DenseMatrix,
    b: &DenseMatrix,
    par: Parallelism,
) {
    assert_eq!(a.cols(), b.rows());
    assert_eq!(c.rows(), a.rows());
    assert_eq!(c.cols(), b.cols());
    let m = a.rows();
    let n = b.cols();
    let k = a.cols();
    let a_data = a.as_slice();
    let c_ptr = c.as_mut_slice().as_mut_ptr() as usize;
    parallel_for(par, n, COL_GRAIN, |range| {
        for j in range {
            // SAFETY: disjoint output columns.
            let cj =
                unsafe { std::slice::from_raw_parts_mut((c_ptr as *mut f64).add(j * m), m) };
            let bj = b.col(j);
            for l in 0..k {
                let blj = bj[l];
                if blj == 0.0 {
                    continue;
                }
                let al = &a_data[l * m..(l + 1) * m];
                for (ci, &ai) in cj.iter_mut().zip(al) {
                    *ci -= blj * ai;
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let mut c = DenseMatrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for l in 0..a.cols() {
                    s += a.get(i, l) * b.get(l, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    fn rand_mat(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        // Tiny deterministic LCG so this module needs no rand dependency.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        DenseMatrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    fn assert_bitwise_eq(a: &DenseMatrix, b: &DenseMatrix) {
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.cols(), b.cols());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_naive() {
        let a = rand_mat(13, 7, 1);
        let b = rand_mat(7, 9, 2);
        let c = matmul(&a, &b, Parallelism::SEQ);
        let c_ref = naive_matmul(&a, &b);
        assert!(c.max_abs_diff(&c_ref) < 1e-13);
        let c_par = matmul(&a, &b, Parallelism::new(4));
        assert!(c_par.max_abs_diff(&c_ref) < 1e-13);
    }

    #[test]
    fn blocked_bitwise_equals_naive_reference() {
        // Shapes straddling the MR/NR tile boundaries.
        for (m, k, n, seed) in [
            (1, 1, 1, 1u64),
            (8, 4, 4, 2),
            (9, 5, 7, 3),
            (16, 16, 16, 4),
            (23, 11, 13, 5),
            (7, 3, 2, 6),
        ] {
            let a = rand_mat(m, k, seed);
            let b = rand_mat(k, n, seed + 100);
            assert_bitwise_eq(
                &matmul(&a, &b, Parallelism::new(3)),
                &matmul_naive(&a, &b, Parallelism::SEQ),
            );
            let at = rand_mat(k, m, seed + 200);
            assert_bitwise_eq(
                &matmul_tn(&at, &rand_mat(k, n, seed + 300), Parallelism::new(2)),
                &matmul_tn_naive(&at, &rand_mat(k, n, seed + 300), Parallelism::SEQ),
            );
            let bt = rand_mat(n, k, seed + 400);
            assert_bitwise_eq(
                &matmul_nt(&a, &bt, Parallelism::new(4)),
                &matmul_nt_naive(&a, &bt, Parallelism::SEQ),
            );
            let mut c1 = rand_mat(m, n, seed + 500);
            let mut c2 = c1.clone();
            matmul_sub_assign(&mut c1, &a, &b, Parallelism::new(3));
            matmul_sub_assign_naive(&mut c2, &a, &b, Parallelism::SEQ);
            assert_bitwise_eq(&c1, &c2);
        }
    }

    #[test]
    fn matmul_tn_matches_naive() {
        let a = rand_mat(11, 6, 3);
        let b = rand_mat(11, 5, 4);
        let c = matmul_tn(&a, &b, Parallelism::new(3));
        let c_ref = naive_matmul(&a.transpose(), &b);
        assert!(c.max_abs_diff(&c_ref) < 1e-13);
    }

    #[test]
    fn matmul_nt_matches_naive() {
        let a = rand_mat(8, 6, 5);
        let b = rand_mat(10, 6, 6);
        let c = matmul_nt(&a, &b, Parallelism::new(2));
        let c_ref = naive_matmul(&a, &b.transpose());
        assert!(c.max_abs_diff(&c_ref) < 1e-13);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = rand_mat(9, 4, 7);
        let x: Vec<f64> = (0..4).map(|i| i as f64 - 1.5).collect();
        let y = matvec(&a, &x);
        let xm = DenseMatrix::from_fn(4, 1, |i, _| x[i]);
        let y_ref = matmul(&a, &xm, Parallelism::SEQ);
        for i in 0..9 {
            assert!((y[i] - y_ref.get(i, 0)).abs() < 1e-13);
        }
    }

    #[test]
    fn sub_assign_matches() {
        let a = rand_mat(7, 5, 8);
        let b = rand_mat(5, 6, 9);
        let mut c = rand_mat(7, 6, 10);
        let expected = {
            let mut e = c.clone();
            e.axpy(-1.0, &naive_matmul(&a, &b));
            e
        };
        matmul_sub_assign(&mut c, &a, &b, Parallelism::new(4));
        assert!(c.max_abs_diff(&expected) < 1e-13);
    }

    #[test]
    fn fast_mode_matches_bitwise_normwise() {
        // Fast (FMA, branch-free) vs Bitwise agree to O(k * eps) per
        // entry, and Fast is deterministic across worker counts (the
        // bitwise-within-mode property the resume tests rely on).
        for (m, k, n, seed) in [(9, 5, 7, 30u64), (16, 16, 16, 31), (23, 11, 13, 32)] {
            let a = rand_mat(m, k, seed);
            let b = rand_mat(k, n, seed + 100);
            let tol = 16.0 * k as f64 * f64::EPSILON;
            let bit = matmul(&a, &b, Parallelism::SEQ);
            let fast = matmul_mode(&a, &b, Parallelism::SEQ, Numerics::Fast);
            assert!(fast.max_abs_diff(&bit) <= tol * bit.max_abs().max(1.0));
            let fast_par = matmul_mode(&a, &b, Parallelism::new(4), Numerics::Fast);
            assert_bitwise_eq(&fast, &fast_par);

            let at = rand_mat(k, m, seed + 200);
            let bt = rand_mat(k, n, seed + 300);
            let tn_bit = matmul_tn(&at, &bt, Parallelism::SEQ);
            let tn_fast = matmul_tn_mode(&at, &bt, Parallelism::new(3), Numerics::Fast);
            assert!(tn_fast.max_abs_diff(&tn_bit) <= tol * tn_bit.max_abs().max(1.0));

            let mut c_bit = rand_mat(m, n, seed + 500);
            let mut c_fast = c_bit.clone();
            matmul_sub_assign(&mut c_bit, &a, &b, Parallelism::SEQ);
            matmul_sub_assign_mode(&mut c_fast, &a, &b, Parallelism::new(3), Numerics::Fast);
            assert!(c_fast.max_abs_diff(&c_bit) <= tol * c_bit.max_abs().max(1.0));
        }
    }

    #[test]
    fn bitwise_mode_is_the_default_alias() {
        let a = rand_mat(13, 7, 40);
        let b = rand_mat(7, 9, 41);
        assert_bitwise_eq(
            &matmul(&a, &b, Parallelism::new(2)),
            &matmul_mode(&a, &b, Parallelism::new(2), Numerics::Bitwise),
        );
    }

    #[test]
    fn empty_dims() {
        let a = DenseMatrix::zeros(0, 3);
        let b = DenseMatrix::zeros(3, 2);
        let c = matmul(&a, &b, Parallelism::SEQ);
        assert_eq!(c.rows(), 0);
        assert_eq!(c.cols(), 2);
        let a = DenseMatrix::zeros(4, 0);
        let b = DenseMatrix::zeros(0, 2);
        let c = matmul(&a, &b, Parallelism::SEQ);
        assert_eq!(c.max_abs(), 0.0);
    }
}
