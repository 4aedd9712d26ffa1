//! What every workload shares: the metric tables, the record of one
//! solve, and the per-layer figures derived from a set of solves.

use std::collections::BTreeMap;

use lra_comm::CommStats;
use lra_core::{KernelId, KernelTimers, LuCrtpResult, QbResult};

use crate::check;
use crate::spans::span;

/// A metric's name, unit and better direction (`"lower"` or `"higher"`),
/// as listed in BENCHMARK.json.
pub type Metric = (&'static str, &'static str, &'static str);

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [Metric; 11] = [
    ("setup_s", "s", "lower"),
    ("solve_s", "s", "lower"),
    ("s_per_digit", "s/digit", "lower"),
    ("err_over_tau", "ratio", "lower"),
    ("rank", "count", "lower"),
    ("factor_nnz", "count", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("success_frac", "ratio", "higher"),
    ("job_p50_s", "s", "lower"),
    ("job_p90_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
];

/// Per-layer metrics, printed by every traced run. A layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: [Metric; 49] = [
    ("qrtp.col_tp_s", "s", "lower"),
    ("qrtp.row_tp_s", "s", "lower"),
    ("qrtp.tournament_s", "s", "lower"),
    ("qrtp.leaf_row_frac", "ratio", "lower"),
    ("dense.gemm_s", "s", "lower"),
    ("dense.gemm_gflops", "GFLOP/s", "higher"),
    ("dense.tsqr_s", "s", "lower"),
    ("core.sketch_s", "s", "lower"),
    ("core.orth_s", "s", "lower"),
    ("core.power_iter_s", "s", "lower"),
    ("core.b_update_s", "s", "lower"),
    ("core.panel_qr_s", "s", "lower"),
    ("core.schur_s", "s", "lower"),
    ("core.drop_s", "s", "lower"),
    ("core.permute_s", "s", "lower"),
    ("core.l_solve_s", "s", "lower"),
    ("core.fill_ratio", "ratio", "lower"),
    ("sparse.spmm_s", "s", "lower"),
    ("ordering.order_s", "s", "lower"),
    ("core.iterations", "count", "lower"),
    ("core.concat_s", "s", "lower"),
    ("core.indicator_s", "s", "lower"),
    ("core.other_s", "s", "lower"),
    ("core.untimed_frac", "ratio", "lower"),
    ("core.dropped", "count", "higher"),
    ("core.ilut_nnz_ratio", "ratio", "lower"),
    ("par.speedup", "ratio", "higher"),
    ("comm.msgs", "count", "lower"),
    ("comm.collectives", "count", "lower"),
    ("comm.overlap_posted", "count", "higher"),
    ("comm.overlap_wait_s", "s", "lower"),
    ("comm.overlap_hidden_s", "s", "higher"),
    ("comm.alltoallv_wait_s", "s", "lower"),
    ("comm.hidden_frac", "ratio", "higher"),
    ("comm.reshard_bytes_computed", "B", "lower"),
    ("recover.ckpt_overhead_frac", "ratio", "lower"),
    ("recover.saves", "count", "lower"),
    ("serve.service_s_p50", "s", "lower"),
    ("serve.cache_hit_frac", "ratio", "higher"),
    ("serve.repeat_share", "ratio", "higher"),
    ("serve.preemptions", "count", "lower"),
    ("serve.driver_calls_per_job", "count", "lower"),
    ("serve.admission_rejects", "count", "lower"),
    ("obs.scrape_series", "count", "lower"),
    ("obs.scrape_bytes", "B", "lower"),
    ("obs.trace_overhead_frac", "ratio", "lower"),
    ("bench.gen_lag_s", "s", "lower"),
    ("bench.samples", "count", "higher"),
    ("bench.kernel_over_wall", "ratio", "higher"),
];

/// Set-ups per run, at the least; `setup_s` is their median.
const SETUPS: usize = 5;
/// Set-ups go on until they have taken this long in all, so that a
/// cheap set-up (the server's takes about 50 ms) is sampled over a
/// second rather than over one short burst of machine noise.
const SETUP_SPAN_S: f64 = 1.0;

/// Run `make` at least `SETUPS` times and for at least `SETUP_SPAN_S`,
/// dropping each result before the next is made. Returns the last
/// result and the median time of one set-up.
pub fn repeat_set_up<T>(mut make: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUPS || times.iter().sum::<f64>() < SETUP_SPAN_S {
        drop(last.take());
        let (built, t) = span("setup", &mut make);
        times.push(t);
        last = Some(built);
    }
    (last.expect("at least one set-up"), check::median(&times))
}

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What a workload hands back to `main`.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// The factors of one solve, kept until its error is checked.
pub enum Factors {
    Lu(Box<LuCrtpResult>),
    Qb(Box<QbResult>),
}

/// One driver call and everything the benchmark checks about it.
pub struct Solve {
    pub driver: &'static str,
    pub wall: f64,
    pub tau: f64,
    /// Largest true relative error the driver guarantees: `tau` for
    /// LU_CRTP and RandQB_EI; for ILUT_CRTP `tau` plus the dropped mass
    /// `sqrt(sum ||T~||_F^2) / ||A||_F`, as its stop test (eq. 26) reads
    /// the thresholded Schur complement and eq. 22 bounds the mass
    /// dropped from it.
    pub limit: f64,
    /// True relative error; NaN until checked.
    pub rel_err: f64,
    /// Converged, no panic or rank failure, kernels reconcile.
    pub ok: bool,
    pub rank: usize,
    pub factor_nnz: usize,
    pub iterations: usize,
    pub digest: u64,
    pub timers: KernelTimers,
    pub max_schur_nnz: usize,
    pub schur_nnz_total: usize,
    pub dropped: usize,
    /// SPMD ranks the solve ran on (1 for shared-memory drivers).
    pub np: usize,
    pub comm: Vec<CommStats>,
    pub factors: Option<Factors>,
}

impl Solve {
    /// A driver call that produced no factors (panic, rank failure).
    pub fn failed(driver: &'static str, wall: f64, tau: f64, why: &str) -> Self {
        eprintln!("perfbench: {driver} failed: {why}");
        Solve {
            driver,
            wall,
            tau,
            limit: tau,
            rel_err: f64::INFINITY,
            ok: false,
            rank: 0,
            factor_nnz: 0,
            iterations: 0,
            digest: 0,
            timers: KernelTimers::new(),
            max_schur_nnz: 0,
            schur_nnz_total: 0,
            dropped: 0,
            np: 1,
            comm: Vec::new(),
            factors: None,
        }
    }

    /// Record an LU_CRTP / ILUT_CRTP result. The kernel buckets must
    /// not add up to more than the call's wall time: that would mean a
    /// region is counted twice, and the solve is marked failed. Factors
    /// served from a cache ran no kernels in `wall`; pass `timed = false`
    /// and their stored buckets are dropped instead.
    pub fn lu(
        driver: &'static str,
        wall: f64,
        tau: f64,
        mut r: LuCrtpResult,
        np: usize,
        timed: bool,
    ) -> Self {
        if !timed {
            r.timers = KernelTimers::new();
        }
        let kernels = check::kernel_sum(&r.timers);
        let reconciles = kernels <= wall;
        if !reconciles {
            eprintln!("perfbench: {driver}: kernel buckets {kernels:.6}s exceed wall {wall:.6}s");
        }
        let dropped_rel = r
            .threshold
            .as_ref()
            .map_or(0.0, |t| t.dropped_mass_sq.sqrt() / r.a_norm_f);
        Solve {
            driver,
            wall,
            tau,
            limit: tau + dropped_rel,
            rel_err: f64::NAN,
            ok: r.converged && r.trip.is_none() && reconciles,
            rank: r.rank,
            factor_nnz: r.factor_nnz(),
            iterations: r.iterations,
            digest: check::lu_digest(&r),
            timers: r.timers.clone(),
            max_schur_nnz: r.trace.iter().map(|t| t.schur_nnz).max().unwrap_or(0),
            schur_nnz_total: r.trace.iter().map(|t| t.schur_nnz).sum(),
            dropped: r.threshold.as_ref().map_or(0, |t| t.dropped),
            np,
            comm: Vec::new(),
            factors: Some(Factors::Lu(Box::new(r))),
        }
    }

    /// Record a RandQB_EI result (same reconciliation rule).
    pub fn qb(wall: f64, tau: f64, r: QbResult) -> Self {
        let kernels = check::kernel_sum(&r.timers);
        let reconciles = kernels <= wall;
        if !reconciles {
            eprintln!("perfbench: rand_qb_ei: kernel buckets {kernels:.6}s exceed wall {wall:.6}s");
        }
        Solve {
            driver: "rand_qb_ei",
            wall,
            tau,
            limit: tau,
            rel_err: f64::NAN,
            ok: r.converged && r.trip.is_none() && reconciles,
            rank: r.rank,
            factor_nnz: r.q.rows() * r.rank + r.rank * r.b.cols(),
            iterations: r.iterations,
            digest: check::qb_digest(&r),
            timers: r.timers.clone(),
            max_schur_nnz: 0,
            schur_nnz_total: 0,
            dropped: 0,
            np: 1,
            comm: Vec::new(),
            factors: Some(Factors::Qb(Box::new(r))),
        }
    }

    /// Passed every check, the error check included.
    pub fn passed(&self) -> bool {
        self.ok && self.rel_err < self.limit
    }

    /// Messages sent by all ranks.
    pub fn msgs(&self) -> u64 {
        self.comm.iter().map(|c| c.msgs_sent).sum()
    }
}

/// Run a driver call, turning a panic into `None`.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

const BUCKETS: [(KernelId, &str); 13] = [
    (KernelId::ColTournament, "qrtp.col_tp_s"),
    (KernelId::RowTournament, "qrtp.row_tp_s"),
    (KernelId::PanelQr, "core.panel_qr_s"),
    (KernelId::Permute, "core.permute_s"),
    (KernelId::LSolve, "core.l_solve_s"),
    (KernelId::Schur, "core.schur_s"),
    (KernelId::Drop, "core.drop_s"),
    (KernelId::Concat, "core.concat_s"),
    (KernelId::Indicator, "core.indicator_s"),
    (KernelId::Sketch, "core.sketch_s"),
    (KernelId::Orth, "core.orth_s"),
    (KernelId::PowerIter, "core.power_iter_s"),
    (KernelId::BUpdate, "core.b_update_s"),
];

/// Kernel-bucket, iteration, drop and comm figures of a set of solves.
/// `wall` is the time the buckets are reconciled against.
pub fn layer_metrics(solves: &[Solve], wall: f64, m: &mut Metrics) {
    let mut kernels = 0.0;
    for (id, name) in BUCKETS {
        let s: f64 = solves.iter().map(|x| x.timers.get(id).as_secs_f64()).sum();
        kernels += s;
        m.insert(name, s);
    }
    m.insert("core.other_s", wall - kernels);
    m.insert(
        "core.untimed_frac",
        if wall > 0.0 {
            1.0 - kernels / wall
        } else {
            0.0
        },
    );
    m.insert(
        "bench.kernel_over_wall",
        solves
            .iter()
            .filter(|x| x.wall > 0.0)
            .map(|x| check::kernel_sum(&x.timers) / x.wall)
            .fold(0.0, f64::max),
    );
    m.insert(
        "core.iterations",
        solves.iter().map(|x| x.iterations).sum::<usize>() as f64,
    );
    m.insert(
        "core.dropped",
        solves.iter().map(|x| x.dropped).sum::<usize>() as f64,
    );
    let sum = |f: &dyn Fn(&CommStats) -> u64| -> f64 {
        solves.iter().flat_map(|x| &x.comm).map(f).sum::<u64>() as f64
    };
    let max_s = |f: &dyn Fn(&CommStats) -> u64| -> f64 {
        solves
            .iter()
            .map(|x| x.comm.iter().map(f).max().unwrap_or(0) as f64 / 1e9)
            .sum()
    };
    m.insert("comm.msgs", sum(&|c| c.msgs_sent));
    m.insert("comm.collectives", sum(&|c| c.collectives));
    m.insert("comm.overlap_posted", sum(&|c| c.overlap_posted));
    let wait = max_s(&|c| c.overlap_wait_ns);
    let hidden = max_s(&|c| c.overlap_hidden_ns);
    m.insert("comm.overlap_wait_s", wait);
    m.insert("comm.overlap_hidden_s", hidden);
    m.insert("comm.alltoallv_wait_s", max_s(&|c| c.alltoallv_wait_ns));
    m.insert(
        "comm.hidden_frac",
        if hidden + wait > 0.0 {
            hidden / (hidden + wait)
        } else {
            0.0
        },
    );
    m.insert("comm.reshard_bytes_computed", reshard_bytes(solves));
}

/// Computed (not measured) bytes of the per-panel Schur re-shard: each
/// iteration moves the `(np-1)/np` share of the Schur complement that
/// another rank owns, at 16 B per entry (value plus index).
pub fn reshard_bytes(solves: &[Solve]) -> f64 {
    solves
        .iter()
        .filter(|x| x.np > 1)
        .map(|x| x.schur_nnz_total as f64 * 16.0 * (x.np - 1) as f64 / x.np as f64)
        .sum()
}

/// Series count and rendered size of the process-wide metrics registry.
pub fn registry_size() -> (f64, f64) {
    let reg = lra_obs::metrics::global();
    (
        reg.snapshot().len() as f64,
        reg.to_json().to_string().len() as f64,
    )
}
