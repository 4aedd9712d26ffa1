//! Gated micro-benchmark for the compute kernels under the drivers:
//! the cache-blocked dense GEMM and the comm/compute overlap of the
//! per-panel re-shard, plus an ungated ILUT_CRTP sweep on a fill-heavy
//! preset whose runs are the report's entries.
//!
//! Three claims are enforced, not just measured (exit 1 on regression):
//!
//! 1. **Blocked GEMM** must beat the naive triple loop by at least
//!    [`GEMM_MIN_SPEEDUP`]x at `n = `[`GEMM_N`] (best-of-[`REPS`],
//!    sequential, after a bitwise-equality sanity check — the blocked
//!    kernel is required to reproduce naive summation order exactly).
//! 2. **Fast GEMM** (FMA tiles) must beat the bitwise blocked kernel
//!    by at least [`FAST_MIN_SPEEDUP`]x at the same size, after a
//!    normwise sanity check against the bitwise result.
//! 3. **Overlap** must hide at least [`OVERLAP_MIN_HIDDEN`] of the
//!    re-shard wall the eager sharded driver pays blocked on the wire
//!    at `np = `[`OVERLAP_NP`]: the overlapped pipeline's skew-free
//!    (min-across-ranks) `overlap_wait_ns` vs the eager oracle's
//!    skew-free `alltoallv_wait_ns`, summed over [`OVERLAP_REPS`]
//!    paired reps.
//!
//! ```sh
//! cargo run -p lra-bench --release --bin kernel_bench -- --out BENCH_kernels.json
//! cargo run -p lra-bench --release --bin kernel_bench -- --validate BENCH_kernels.json
//! ```
//!
//! The `BENCH_kernels.json` report (frozen v1 schema) carries one
//! entry per ILUT run plus dimensionless `kernel.*` gauges
//! (`gemm_speedup`, `gemm_fast_speedup`, `overlap_hidden_ratio`) under
//! `metrics`, so CI can diff machine-independent ratios against the
//! committed baseline in `results/`.

use lra_bench::{fmt_s, timed, BenchConfig, USAGE};
use lra_comm::RunConfig;
use lra_core::{
    ilut_crtp, ilut_crtp_spmd, ilut_crtp_spmd_eager, IlutOpts, LuCrtpResult, Parallelism,
};
use lra_dense::{matmul, matmul_mode, matmul_naive, DenseMatrix, Numerics};
use lra_obs::{BenchEntry, BenchReport, KernelTime, MetricsRegistry, BENCH_SCHEMA_VERSION};
use lra_sparse::CscMatrix;

/// GEMM problem size for the speedup gate.
const GEMM_N: usize = 512;
/// Minimum blocked-over-naive GEMM speedup (measured margin ~2.6-3.0x).
const GEMM_MIN_SPEEDUP: f64 = 2.0;
/// Minimum fast-mode (FMA tiles) over bitwise blocked GEMM speedup at
/// `n = `[`GEMM_N`]. The FMA tile retires one fused op where the
/// bitwise tile needs a multiply and an add plus a zero-skip branch.
const FAST_MIN_SPEEDUP: f64 = 1.15;
/// Best-of repetitions for the GEMM section (best-of damps CI runner
/// noise; the gated quantities are ratios of bests).
const REPS: usize = 5;
/// Paired blocked/fast repetitions per gate round: that pair's gate
/// margin is fine (1.15x) and both kernels are cheap, so it gets far
/// more samples than the naive loop.
const GEMM_FAST_REPS: usize = 12;
/// Independent median-of-paired-ratio rounds for the fast gate; the
/// best round's median gates (see the comment at the measurement).
const FAST_ROUNDS: usize = 3;
/// Best-of repetitions per ILUT sweep point.
const ILUT_REPS: usize = 7;
/// Block size for the ILUT sweep.
const BLOCK_K: usize = 16;
/// Rank count for the overlap gate — the acceptance point of the
/// comm/compute-overlap claim.
const OVERLAP_NP: usize = 4;
/// Minimum fraction of the eager re-shard wire wait that the
/// overlapped pipeline must hide: `1 - overlap_wait / eager_wait`.
const OVERLAP_MIN_HIDDEN: f64 = 0.5;
/// Paired eager/overlapped repetitions for the overlap gate. The
/// gated ratio is computed from waits *summed across the pairs*: a
/// single rep in which one rank happens to straggle every iteration
/// (so the skew-free eager wait collapses toward zero and the ratio
/// is meaningless) contributes almost nothing to either sum, while a
/// genuinely un-hidden exchange inflates every rep's numerator.
const OVERLAP_REPS: usize = 5;

fn main() {
    let mut out_path = "BENCH_kernels.json".to_string();
    let mut validate_path: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().unwrap_or_else(|| fail("--out requires a value")),
            "--validate" => {
                validate_path =
                    Some(args.next().unwrap_or_else(|| fail("--validate requires a value")));
            }
            _ => rest.push(a),
        }
    }
    if let Some(path) = validate_path {
        validate_file(&path);
        return;
    }
    let cfg = BenchConfig::parse_args(&rest).unwrap_or_else(|err| fail(&err));

    let reg = MetricsRegistry::new();
    let mut entries: Vec<BenchEntry> = Vec::new();

    println!("KERNEL BENCH (schema v{BENCH_SCHEMA_VERSION})");
    let gemm_ok = gemm_gate(&reg);
    ilut_sweep(&cfg, &reg, &mut entries);
    let overlap_ok = overlap_gate(&cfg, &reg);

    let report = BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        bench: "kernel_bench".to_string(),
        quick: cfg.quick,
        scale: cfg.scale,
        max_np: 1,
        entries,
        metrics: reg.to_json(),
    };
    report
        .validate()
        .unwrap_or_else(|err| fail(&format!("generated report failed validation: {err}")));
    let mut text = report.to_json_string();
    text.push('\n');
    std::fs::write(&out_path, text)
        .unwrap_or_else(|err| fail(&format!("cannot write {out_path}: {err}")));
    println!("wrote {out_path} ({} entries)", report.entries.len());

    if !(gemm_ok && overlap_ok) {
        std::process::exit(1);
    }
}

/// Deterministic pseudo-random dense operand (no RNG dependency).
fn dense_operand(n: usize, salt: u64) -> DenseMatrix {
    DenseMatrix::from_fn(n, n, |i, j| {
        let h = (i as u64)
            .wrapping_mul(6364136223846793005)
            .wrapping_add((j as u64).wrapping_mul(1442695040888963407))
            .wrapping_add(salt);
        ((h >> 11) % 2003) as f64 / 2003.0 - 0.5
    })
}

/// Gates 1 and 2: blocked GEMM >= [`GEMM_MIN_SPEEDUP`]x naive and fast
/// GEMM >= [`FAST_MIN_SPEEDUP`]x blocked at n = [`GEMM_N`].
fn gemm_gate(reg: &MetricsRegistry) -> bool {
    let a = dense_operand(GEMM_N, 1);
    let b = dense_operand(GEMM_N, 2);

    // The speedup is only meaningful under the bitwise contract.
    let blocked = matmul(&a, &b, Parallelism::SEQ);
    let slow = matmul_naive(&a, &b, Parallelism::SEQ);
    let agree = blocked
        .as_slice()
        .iter()
        .zip(slow.as_slice())
        .all(|(x, y)| x.to_bits() == y.to_bits());
    if !agree {
        eprintln!("FAIL: blocked GEMM is not bitwise equal to naive at n={GEMM_N}");
        return false;
    }

    // The fast-mode kernel answers a different contract: normwise
    // agreement with the bitwise result at the accumulation-error
    // scale (FMA changes the rounding, not the mathematics).
    let fast = matmul_mode(&a, &b, Parallelism::SEQ, Numerics::Fast);
    let norm = slow.as_slice().iter().map(|v| v * v).sum::<f64>().sqrt();
    let diff = fast
        .as_slice()
        .iter()
        .zip(slow.as_slice())
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt();
    let tol = (GEMM_N as f64) * f64::EPSILON * norm;
    if diff > tol {
        eprintln!("FAIL: fast GEMM normwise error {diff:e} above n*eps*||C|| = {tol:e}");
        return false;
    }

    // Interleaved best-of: alternating the kernels keeps runner load
    // spikes from loading one side of the speedup ratios.
    let mut blocked_s = f64::INFINITY;
    let mut naive_s = f64::INFINITY;
    let mut fast_s = f64::INFINITY;
    for _ in 0..REPS {
        let ((), s) = timed(|| {
            std::hint::black_box(matmul(&a, &b, Parallelism::SEQ));
        });
        blocked_s = blocked_s.min(s);
        let ((), s) = timed(|| {
            std::hint::black_box(matmul_naive(&a, &b, Parallelism::SEQ));
        });
        naive_s = naive_s.min(s);
        let ((), s) = timed(|| {
            std::hint::black_box(matmul_mode(&a, &b, Parallelism::SEQ, Numerics::Fast));
        });
        fast_s = fast_s.min(s);
    }
    // The blocked-vs-fast ratio gates at a much finer margin (1.15x)
    // than blocked-vs-naive (2x), and both kernels run ~5x faster than
    // the naive loop, so that pair gets its own treatment: each rep
    // times blocked and fast back-to-back (same ~30 ms load window)
    // and a *median* of the per-rep ratios damps load spikes in either
    // direction without the lucky-window bias a max-of-ratios would
    // have. [`FAST_ROUNDS`] independent medians are taken and the best
    // one gates: a contended phase of a shared runner depresses whole
    // rounds at a time, while a genuinely regressed kernel shows the
    // same median in every round.
    let mut fast_speedup: f64 = 0.0;
    for _ in 0..FAST_ROUNDS {
        let mut ratios = Vec::with_capacity(GEMM_FAST_REPS);
        for _ in 0..GEMM_FAST_REPS {
            let ((), sb) = timed(|| {
                std::hint::black_box(matmul(&a, &b, Parallelism::SEQ));
            });
            blocked_s = blocked_s.min(sb);
            let ((), sf) = timed(|| {
                std::hint::black_box(matmul_mode(&a, &b, Parallelism::SEQ, Numerics::Fast));
            });
            fast_s = fast_s.min(sf);
            ratios.push(sb / sf.max(1e-12));
        }
        ratios.sort_by(f64::total_cmp);
        fast_speedup = fast_speedup.max(ratios[ratios.len() / 2]);
    }
    let speedup = naive_s / blocked_s.max(1e-12);
    reg.set_gauge("kernel.gemm_n", GEMM_N as f64);
    reg.set_gauge("kernel.gemm_naive_s", naive_s);
    reg.set_gauge("kernel.gemm_blocked_s", blocked_s);
    reg.set_gauge("kernel.gemm_speedup", speedup);
    reg.set_gauge("kernel.gemm_fast_s", fast_s);
    reg.set_gauge("kernel.gemm_fast_speedup", fast_speedup);
    println!(
        "gemm n={GEMM_N}: naive {} blocked {} speedup {speedup:.2}x (gate >= {GEMM_MIN_SPEEDUP}x)",
        fmt_s(naive_s),
        fmt_s(blocked_s)
    );
    println!(
        "gemm n={GEMM_N}: fast {} over bitwise {fast_speedup:.2}x (gate >= {FAST_MIN_SPEEDUP}x)",
        fmt_s(fast_s)
    );
    if speedup < GEMM_MIN_SPEEDUP {
        eprintln!("FAIL: blocked GEMM speedup {speedup:.2}x below {GEMM_MIN_SPEEDUP}x");
        return false;
    }
    if fast_speedup < FAST_MIN_SPEEDUP {
        eprintln!("FAIL: fast GEMM speedup {fast_speedup:.2}x below {FAST_MIN_SPEEDUP}x");
        return false;
    }
    true
}

/// The report's entries: best-of-[`ILUT_REPS`] ILUT_CRTP runs over a
/// tau sweep on a fill-heavy preset. Measured, not gated.
fn ilut_sweep(cfg: &BenchConfig, reg: &MetricsRegistry, entries: &mut Vec<BenchEntry>) {
    // Fill-heavy coupled fluid blocks with decay: the Schur complement
    // densifies within a few panels.
    let dim_blocks = if cfg.quick { 48 } else { 72 } * cfg.scale.max(1);
    let a = lra_matgen::with_decay(&lra_matgen::fluid_block(dim_blocks, 10, 31), 1e-7, 33);
    let label = format!("fluid{dim_blocks}x10");
    let taus: &[f64] = if cfg.quick { &[1e-2] } else { &[1e-2, 1e-3] };
    println!(
        "ilut sweep — {label} ({}x{}, {} nnz), k={BLOCK_K}, taus {taus:?}",
        a.rows(),
        a.cols(),
        a.nnz()
    );

    let mut total = 0.0;
    for &tau in taus {
        let opts = IlutOpts::new(BLOCK_K, tau, 4);
        let (wall, res) = best_of(ILUT_REPS, || ilut_crtp(&a, &opts));
        println!(
            "  tau={tau:.0e}: {} (rank {}, converged {})",
            fmt_s(wall),
            res.rank,
            res.converged
        );
        entries.push(entry(&a, &label, tau, wall, &res, "ilut_crtp"));
        total += wall;
    }
    reg.set_gauge("kernel.ilut_sparse_s", total);
    println!("ilut sweep: {}", fmt_s(total));
}

/// Gate 3: the overlapped re-shard hides >= [`OVERLAP_MIN_HIDDEN`] of
/// the wire wait the eager sharded driver pays at [`OVERLAP_NP`].
///
/// Both quantities come from [`lra_comm::CommStats`] of the same run
/// pair: the eager oracle's `alltoallv_wait_ns` is the time ranks sit
/// blocked draining the re-shard exchange, and the overlapped driver's
/// `overlap_wait_ns` is what is left of that wait once the factor
/// concat runs inside the post→complete window.
///
/// Each run's wait is taken as the **minimum across ranks**, not the
/// sum. Per-rank waits are dominated by arrival skew — ranks that get
/// to the exchange early sit blocked on the straggler — and skew waits
/// overlap each other in wall-clock terms: the last-arriving rank
/// never pays them, so they never land on the run's critical path, and
/// no amount of overlap (or core count) can remove them. What every
/// rank pays, skew or no skew, is the irreducible drain cost of the
/// exchange itself, and the min across ranks isolates exactly that.
/// That is the re-shard wall the cost model charges per panel and the
/// quantity the post→complete window hides; it is also the only
/// formulation that is honest on a loaded or single-core runner, where
/// compute cannot reduce skew waits but deferring the drain behind the
/// concat still empties the channels before `complete` looks at them.
fn overlap_gate(cfg: &BenchConfig, reg: &MetricsRegistry) -> bool {
    // Same fill-heavy family as the ILUT sweep: fill keeps the
    // re-shard payloads (and therefore the eager wire wait) large
    // enough to measure against timer resolution.
    let dim_blocks = if cfg.quick { 36 } else { 56 } * cfg.scale.max(1);
    let a = lra_matgen::with_decay(&lra_matgen::fluid_block(dim_blocks, 10, 37), 1e-7, 35);
    let opts = IlutOpts::new(BLOCK_K, 1e-2, 4);
    println!(
        "overlap np={OVERLAP_NP} — fluid{dim_blocks}x10 ({}x{}, {} nnz), k={BLOCK_K}",
        a.rows(),
        a.cols(),
        a.nnz()
    );

    let mut eager_wait = 0u64;
    let mut overlap_wait = 0u64;
    let mut posted_total = 0u64;
    for _ in 0..OVERLAP_REPS {
        let report = lra_comm::run_with(OVERLAP_NP, &RunConfig::default(), |ctx| {
            ilut_crtp_spmd_eager(ctx, &a, &opts)
        });
        eager_wait += report
            .stats
            .iter()
            .map(|s| s.alltoallv_wait_ns)
            .min()
            .unwrap_or(0);
        report.unwrap_all();

        let report = lra_comm::run_with(OVERLAP_NP, &RunConfig::default(), |ctx| {
            ilut_crtp_spmd(ctx, &a, &opts)
        });
        overlap_wait += report
            .stats
            .iter()
            .map(|s| s.overlap_wait_ns)
            .min()
            .unwrap_or(0);
        posted_total += report.stats.iter().map(|s| s.overlap_posted).sum::<u64>();
        report.unwrap_all();
    }
    let hidden = 1.0 - overlap_wait as f64 / (eager_wait as f64).max(1.0);
    reg.set_gauge("kernel.overlap_np", OVERLAP_NP as f64);
    reg.set_gauge("kernel.overlap_eager_wait_s", eager_wait as f64 / 1e9);
    reg.set_gauge("kernel.overlap_wait_s", overlap_wait as f64 / 1e9);
    reg.set_gauge("kernel.overlap_hidden_ratio", hidden);
    println!(
        "overlap np={OVERLAP_NP}: eager wait {} overlapped wait {} hidden {:.1}% \
         (gate >= {:.0}%, skew-free min-rank waits over {OVERLAP_REPS} paired reps)",
        fmt_s(eager_wait as f64 / 1e9),
        fmt_s(overlap_wait as f64 / 1e9),
        100.0 * hidden,
        100.0 * OVERLAP_MIN_HIDDEN
    );
    if posted_total == 0 {
        eprintln!("FAIL: overlapped driver never posted a re-shard — pipeline not engaged");
        return false;
    }
    if hidden < OVERLAP_MIN_HIDDEN {
        eprintln!(
            "FAIL: overlap hides {:.1}% of the eager re-shard wait, below {:.0}%",
            100.0 * hidden,
            100.0 * OVERLAP_MIN_HIDDEN
        );
        return false;
    }
    true
}

/// Best-of-`reps` wall time of a deterministic run, with the result of
/// the fastest repetition.
fn best_of(reps: usize, mut f: impl FnMut() -> LuCrtpResult) -> (f64, LuCrtpResult) {
    let (mut res, mut best) = timed(&mut f);
    for _ in 1..reps {
        let (r, s) = timed(&mut f);
        if s < best {
            best = s;
            res = r;
        }
    }
    (best, res)
}

fn entry(
    a: &CscMatrix,
    label: &str,
    tau: f64,
    wall: f64,
    res: &LuCrtpResult,
    algorithm: &str,
) -> BenchEntry {
    let true_rel = res.exact_error(a, Parallelism::SEQ) / res.a_norm_f;
    BenchEntry {
        algorithm: algorithm.to_string(),
        matrix: label.to_string(),
        rows: a.rows(),
        cols: a.cols(),
        nnz: a.nnz(),
        tau,
        k: BLOCK_K,
        np: 1,
        wall_s: wall,
        kernels: res
            .timers
            .report_with_other(wall)
            .into_iter()
            .map(|(kernel, seconds)| KernelTime {
                kernel: kernel.to_string(),
                seconds,
            })
            .collect(),
        rank: res.rank,
        iterations: res.iterations,
        converged: res.converged,
        est_rel_err: res.indicator / res.a_norm_f,
        true_rel_err: true_rel,
    }
}

/// `--validate PATH`: parse + structurally validate an existing report.
fn validate_file(path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|err| fail(&format!("cannot read {path}: {err}")));
    let report = BenchReport::from_json_str(&text)
        .unwrap_or_else(|err| fail(&format!("{path}: parse error: {err}")));
    report
        .validate()
        .unwrap_or_else(|err| fail(&format!("{path}: invalid report: {err}")));
    println!("{path}: valid kernel report ({} entries)", report.entries.len());
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE} [--out PATH] [--validate PATH]");
    std::process::exit(2);
}
