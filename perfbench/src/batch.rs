//! The three batch workloads: one client runs a fixed set of driver
//! calls (a "solve set") on one seeded matrix, again and again, for the
//! run's time.
//!
//! - `circuit-crtp`: `lu_crtp` then `ilut_crtp` with `u` = LU's
//!   iteration count, at 2 threads — tournament-bound, almost no fill.
//! - `fluid-spmd`: the same pair as np = 2 SPMD ranks through
//!   `lra_comm::run_with`, sequential kernels per rank — fill-heavy,
//!   sharded, communicating.
//! - `qb-econ`: `rand_qb_ei` with p = 1 at 2 threads — dense GEMM/TSQR
//!   and sparse-times-dense, no tournament, Schur update or comm.

use lra_comm::RunConfig;
use lra_core::{
    ilut_crtp, ilut_crtp_spmd, ilut_crtp_spmd_checkpointed, lu_crtp, lu_crtp_spmd, rand_qb_ei,
    CheckpointStore, IlutOpts, LuCrtpOpts, Parallelism, QbOpts, RecoveryHooks, TournamentTree,
};
use lra_dense::{matmul, matmul_tn, tsqr_r, DenseMatrix};
use lra_sparse::{spmm_dense, CscMatrix};

use crate::check::{self, median, percentile};
use crate::common::{
    guarded, layer_metrics, registry_size, repeat_set_up, Factors, Metrics, Outcome, Solve,
};
use crate::inputs::{self, Rng};
use crate::spans::{self, span};

/// Two workers: the machine budget of every workload.
fn two() -> Parallelism {
    Parallelism::new(2)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Circuit,
    Fluid,
    Qb,
}

/// A batch workload's seeded input and driver settings.
pub struct Batch {
    pub kind: Kind,
    pub a: CscMatrix,
    pub k: usize,
    pub tau: f64,
    qb_seed: u64,
}

impl Batch {
    /// The workload at benchmark size.
    pub fn new(kind: Kind, seed: u64) -> Self {
        match kind {
            Kind::Circuit => Self::with_input(kind, seed, inputs::circuit(Some(seed), 2400, 700)),
            Kind::Fluid => Self::with_input(kind, seed, inputs::fluid(Some(seed), 45, 750)),
            Kind::Qb => Self::with_input(kind, seed, inputs::economic(Some(seed), 8000, 1100)),
        }
    }

    /// The same workload on a matrix of the caller's choosing.
    pub fn with_input(kind: Kind, seed: u64, a: CscMatrix) -> Self {
        let (k, tau) = match kind {
            Kind::Circuit | Kind::Fluid => (32, 1e-3),
            Kind::Qb => (64, 1e-2),
        };
        Batch {
            kind,
            a,
            k,
            tau,
            qb_seed: Rng::new(seed, 6).next_u64(),
        }
    }

    fn lu_opts(&self, par: Parallelism) -> LuCrtpOpts {
        LuCrtpOpts::new(self.k, self.tau).with_par(par)
    }

    fn qb_opts(&self, par: Parallelism) -> QbOpts {
        QbOpts::new(self.k, self.tau)
            .with_power(1)
            .with_par(par)
            .with_seed(self.qb_seed)
    }

    /// One block iteration of the workload's first driver, so lazy
    /// set-up (thread spawn paths, allocator growth) is paid before the
    /// timed loop.
    pub fn warm_up(&self) {
        let _ = guarded(|| match self.kind {
            Kind::Circuit => {
                lu_crtp(&self.a, &self.lu_opts(two()).with_max_rank(self.k));
            }
            Kind::Fluid => {
                let opts = self.lu_opts(Parallelism::SEQ).with_max_rank(self.k);
                lra_comm::run_with(2, &RunConfig::default(), |ctx| {
                    lu_crtp_spmd(ctx, &self.a, &opts)
                });
            }
            Kind::Qb => {
                let _ = rand_qb_ei(&self.a, &self.qb_opts(two()).with_max_rank(self.k));
            }
        });
    }

    /// Each driver of the workload once, at `par` threads per call.
    pub fn solve_set(&self, par: Parallelism) -> Vec<Solve> {
        match self.kind {
            Kind::Circuit => {
                let lu = self.shared_lu(par);
                let u = lu.iterations.max(1);
                vec![lu, self.shared_ilut(par, u)]
            }
            Kind::Fluid => {
                let lu = self.spmd_lu();
                let u = lu.iterations.max(1);
                vec![lu, self.spmd_ilut(u)]
            }
            Kind::Qb => vec![self.qb(par)],
        }
    }

    fn shared_lu(&self, par: Parallelism) -> Solve {
        let opts = self.lu_opts(par);
        let (r, wall) = span("driver.lu_crtp", || guarded(|| lu_crtp(&self.a, &opts)));
        match r {
            Some(r) => Solve::lu("lu_crtp", wall, self.tau, r, 1, true),
            None => Solve::failed("lu_crtp", wall, self.tau, "panicked"),
        }
    }

    fn shared_ilut(&self, par: Parallelism, u: usize) -> Solve {
        let mut opts = IlutOpts::new(self.k, self.tau, u);
        opts.base.par = par;
        let (r, wall) = span("driver.ilut_crtp", || guarded(|| ilut_crtp(&self.a, &opts)));
        match r {
            Some(r) => Solve::lu("ilut_crtp", wall, self.tau, r, 1, true),
            None => Solve::failed("ilut_crtp", wall, self.tau, "panicked"),
        }
    }

    fn spmd_lu(&self) -> Solve {
        let opts = self.lu_opts(Parallelism::SEQ);
        let (rep, wall) = span("comm.run_with.lu_crtp_spmd", || {
            lra_comm::run_with(2, &RunConfig::default(), |ctx| {
                lu_crtp_spmd(ctx, &self.a, &opts)
            })
        });
        spmd_solve("lu_crtp_spmd", wall, self.tau, rep)
    }

    fn spmd_ilut(&self, u: usize) -> Solve {
        let opts = IlutOpts::new(self.k, self.tau, u);
        let (rep, wall) = span("comm.run_with.ilut_crtp_spmd", || {
            lra_comm::run_with(2, &RunConfig::default(), |ctx| {
                ilut_crtp_spmd(ctx, &self.a, &opts)
            })
        });
        spmd_solve("ilut_crtp_spmd", wall, self.tau, rep)
    }

    fn qb(&self, par: Parallelism) -> Solve {
        let opts = self.qb_opts(par);
        let (r, wall) = span("driver.rand_qb_ei", || {
            guarded(|| rand_qb_ei(&self.a, &opts))
        });
        match r {
            Some(Ok(r)) => Solve::qb(wall, self.tau, r),
            Some(Err(e)) => Solve::failed("rand_qb_ei", wall, self.tau, &e.to_string()),
            None => Solve::failed("rand_qb_ei", wall, self.tau, "panicked"),
        }
    }

    /// Fill in the true relative error of a solve that kept its factors.
    pub fn check(&self, s: &mut Solve) {
        s.rel_err = match s.factors.take() {
            Some(Factors::Lu(r)) => check::lu_rel_error(&r, &self.a, two()),
            Some(Factors::Qb(r)) => check::qb_rel_error(&r, &self.a, two()),
            None => f64::INFINITY,
        };
    }
}

fn spmd_solve(
    driver: &'static str,
    wall: f64,
    tau: f64,
    rep: lra_comm::RunReport<lra_core::LuCrtpResult>,
) -> Solve {
    if let Some(why) = rep.failure_summary() {
        return Solve::failed(driver, wall, tau, &why);
    }
    let stats = rep.stats;
    let r = rep.results.into_iter().next().and_then(Result::ok);
    match r {
        Some(r) => {
            let mut s = Solve::lu(driver, wall, tau, r, stats.len(), true);
            s.comm = stats;
            s
        }
        None => Solve::failed(driver, wall, tau, "no rank-0 result"),
    }
}

/// Checks a solve set as soon as it has run and frees its factors, so
/// the process never holds more than one set's factors: the first set
/// against the true error, later sets against the first bit for bit
/// (same digest, rank, nnz, iterations and message count). Returns the
/// number of failed solves.
fn check_set(batch: &Batch, set: &mut [Solve], first: Option<&[Solve]>) -> u64 {
    for (i, s) in set.iter_mut().enumerate() {
        match first {
            None => batch.check(s),
            Some(first) => {
                let f = &first[i];
                s.factors = None;
                let same = s.digest == f.digest
                    && s.rank == f.rank
                    && s.factor_nnz == f.factor_nnz
                    && s.iterations == f.iterations
                    && s.msgs() == f.msgs();
                s.rel_err = f.rel_err;
                if !same {
                    eprintln!("perfbench: {} did not repeat its first answer", s.driver);
                    s.ok = false;
                }
            }
        }
    }
    set.iter().filter(|s| !s.passed()).count() as u64
}

/// Runs a solve set at 2 threads and checks it against `first`.
fn checked_set(batch: &Batch, first: Option<&[Solve]>, failed: &mut u64) -> (Vec<Solve>, f64) {
    let (mut set, wall) = span("solve_set", || batch.solve_set(two()));
    *failed += check_set(batch, &mut set, first);
    (set, wall)
}

/// Set up (see [`repeat_set_up`]): generate the input, make one
/// warm-up call.
fn set_up(kind: Kind, seed: u64) -> (Batch, f64) {
    repeat_set_up(|| {
        let b = Batch::new(kind, seed);
        b.warm_up();
        b
    })
}

pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let (batch, setup_s) = set_up(kind, seed);
    eprintln!(
        "perfbench: input {}x{}, nnz {}, fingerprint {:016x}",
        batch.a.rows(),
        batch.a.cols(),
        batch.a.nnz(),
        batch.a.fingerprint()
    );
    if trace {
        return traced(&batch);
    }
    let mut sets: Vec<Vec<Solve>> = Vec::new();
    let mut failed = 0;
    let (mut spent, mut last) = (0.0, 0.0);
    // Start another set only while it is expected to end in time; the
    // error check of the first set does not count against the run.
    while sets.is_empty() || spent + last <= seconds {
        let (set, wall) = checked_set(&batch, sets.first().map(Vec::as_slice), &mut failed);
        spent += wall;
        last = wall;
        sets.push(set);
    }
    for s in &sets[0] {
        eprintln!(
            "perfbench: {:<16} {:>8.4}s  rank {:>4}  iterations {:>3}  nnz {:>9}  max Schur nnz {:>9}  err/tau {:.4}",
            s.driver,
            s.wall,
            s.rank,
            s.iterations,
            s.factor_nnz,
            s.max_schur_nnz,
            s.rel_err / s.tau
        );
    }
    let solves: Vec<&Solve> = sets.iter().flatten().collect();
    let set_walls: Vec<f64> = sets
        .iter()
        .map(|s| s.iter().map(|x| x.wall).sum())
        .collect();
    let calls: Vec<f64> = solves.iter().map(|s| s.wall).collect();
    let total_wall: f64 = calls.iter().sum();
    let digits: f64 = solves.iter().map(|s| check::digits(s.rel_err)).sum();
    let attempted = solves.len() as u64;
    let mut m = Metrics::new();
    m.insert("setup_s", setup_s);
    m.insert("solve_s", median(&set_walls));
    m.insert("s_per_digit", total_wall / digits.max(f64::MIN_POSITIVE));
    m.insert(
        "err_over_tau",
        solves.iter().map(|s| s.rel_err / s.tau).fold(0.0, f64::max),
    );
    m.insert("rank", sets[0].iter().map(|s| s.rank).sum::<usize>() as f64);
    m.insert(
        "factor_nnz",
        sets[0].iter().map(|s| s.factor_nnz).sum::<usize>() as f64,
    );
    m.insert("peak_rss_mb", check::peak_rss_mb());
    m.insert(
        "success_frac",
        (attempted - failed) as f64 / attempted as f64,
    );
    m.insert("job_p50_s", percentile(&calls, 0.5));
    m.insert("job_p90_s", percentile(&calls, 0.9));
    m.insert("jobs_per_s", attempted as f64 / total_wall);
    eprintln!(
        "perfbench: {} solve sets, {attempted} driver calls",
        sets.len()
    );
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m,
    }
}

/// The traced run: a traced solve set (benchmark spans plus the
/// library's own trace spans) between two untraced ones, and timed
/// replays of the layer calls each driver makes on this input.
fn traced(batch: &Batch) -> Outcome {
    // Untraced sets before and after the traced one, so a slow first
    // set does not pass for tracing overhead.
    let mut failed = 0;
    let (before, wall_before) = checked_set(batch, None, &mut failed);
    spans::set_enabled(true);
    lra_obs::trace::enable();
    let (set, wall) = checked_set(batch, Some(&before), &mut failed);
    lra_obs::trace::disable();
    spans::set_enabled(false);
    let (after, wall_after) = checked_set(batch, Some(&before), &mut failed);
    spans::set_enabled(true);
    let plain_wall = (wall_before + wall_after) / 2.0;
    let events = lra_obs::trace::take_events().len();
    eprintln!("perfbench: library trace recorded {events} events");
    let sets = [&set, &before, &after];

    let mut m = Metrics::new();
    layer_metrics(&set, wall, &mut m);
    m.insert("obs.trace_overhead_frac", wall / plain_wall - 1.0);
    m.insert("bench.samples", sets.len() as f64);
    if let [lu, ilut] = &set[..] {
        m.insert(
            "core.ilut_nnz_ratio",
            ilut.factor_nnz as f64 / lu.factor_nnz.max(1) as f64,
        );
    }
    let max_schur = set.iter().map(|s| s.max_schur_nnz).max().unwrap_or(0);
    m.insert("core.fill_ratio", inputs::fill_ratio(max_schur, &batch.a));

    let a = &batch.a;
    let k = batch.k;
    let mut rng = Rng::new(batch.qb_seed, 7);
    let omega = DenseMatrix::from_fn(a.cols(), k, |_, _| rng.unit() - 0.5);
    m.insert(
        "sparse.spmm_s",
        span("sparse.spmm_dense", || spmm_dense(a, &omega, two())).1,
    );
    if batch.kind != Kind::Qb {
        let (order, order_s) = span("ordering.fill_reducing_order", || {
            lra_ordering::fill_reducing_order(a)
        });
        m.insert("ordering.order_s", order_s);
        m.insert("qrtp.leaf_row_frac", inputs::leaf_row_frac(a, &order, k));
        let (_, t) = span("qrtp.tournament_columns", || {
            lra_qrtp::tournament_columns(a, Some(&order), k, TournamentTree::Binary, two())
        });
        m.insert("qrtp.tournament_s", t);
    }
    // GEMM at the QB shapes (Q^T Y and Q C with Q m x K, Y m x k) and
    // TSQR of an m x k block.
    let rank = set.iter().map(|s| s.rank).max().unwrap_or(k).max(k);
    let q = DenseMatrix::from_fn(a.rows(), rank, |_, _| rng.unit() - 0.5);
    let y = DenseMatrix::from_fn(a.rows(), k, |_, _| rng.unit() - 0.5);
    let (c, t1) = span("dense.matmul_tn", || matmul_tn(&q, &y, two()));
    let (_, t2) = span("dense.matmul", || matmul(&q, &c, two()));
    m.insert("dense.gemm_s", t1 + t2);
    m.insert(
        "dense.gemm_gflops",
        4.0 * (a.rows() * rank * k) as f64 / (t1 + t2) / 1e9,
    );
    m.insert("dense.tsqr_s", span("dense.tsqr_r", || tsqr_r(&y, two())).1);

    let mut attempted = sets.iter().map(|s| s.len()).sum::<usize>() as u64;
    match batch.kind {
        Kind::Circuit | Kind::Qb => {
            let (_, seq) = span("solve_set.seq", || batch.solve_set(Parallelism::SEQ));
            m.insert("par.speedup", seq / plain_wall);
        }
        Kind::Fluid => {
            // Checkpointing must not change the answer: same factors as
            // the plain ILUT of the traced set, bit for bit.
            let ilut = &set[1];
            // The baseline is the untraced ILUT calls, so tracing overhead
            // does not cancel part of the checkpointing overhead.
            let plain_ilut = (before[1].wall + after[1].wall) / 2.0;
            let opts = IlutOpts::new(k, batch.tau, set[0].iterations.max(1));
            let store = CheckpointStore::in_memory();
            let hooks = RecoveryHooks::new(&store, 1);
            let (rep, t) = span("comm.run_with.ilut_crtp_spmd_checkpointed", || {
                lra_comm::run_with(2, &RunConfig::default(), |ctx| {
                    ilut_crtp_spmd_checkpointed(ctx, a, &opts, Some(&hooks))
                })
            });
            let digest = rep.results.into_iter().next().and_then(|r| r.ok()?.ok());
            attempted += 1;
            if digest.as_ref().map(check::lu_digest) != Some(ilut.digest) {
                eprintln!("perfbench: checkpointed ILUT failed or changed its answer");
                failed += 1;
            }
            m.insert("recover.ckpt_overhead_frac", t / plain_ilut - 1.0);
            m.insert("recover.saves", store.saves() as f64);
        }
    }
    let (series, bytes) = registry_size();
    m.insert("obs.scrape_series", series);
    m.insert("obs.scrape_bytes", bytes);
    eprint!("{}", spans::summary());
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(kind: Kind, seed: u64) -> Batch {
        let a = match kind {
            Kind::Circuit => inputs::circuit(Some(seed), 500, 150),
            Kind::Fluid => inputs::fluid(Some(seed), 12, 150),
            Kind::Qb => inputs::economic(Some(seed), 600, 150),
        };
        Batch::with_input(kind, seed, a)
    }

    /// Rank, nnz, iterations, messages and error of a checked set.
    fn summary(b: &Batch) -> Vec<(usize, usize, usize, u64, u64)> {
        let mut failed = 0;
        let (set, _) = checked_set(b, None, &mut failed);
        assert_eq!(failed, 0, "a solve failed its checks");
        set.iter()
            .map(|s| {
                (
                    s.rank,
                    s.factor_nnz,
                    s.iterations,
                    s.msgs(),
                    s.rel_err.to_bits(),
                )
            })
            .collect()
    }

    #[test]
    fn same_seed_repeats_every_count_and_a_new_seed_changes_the_input() {
        for kind in [Kind::Circuit, Kind::Fluid, Kind::Qb] {
            let (a, b, c) = (small(kind, 5), small(kind, 5), small(kind, 6));
            assert_eq!(a.a.fingerprint(), b.a.fingerprint(), "{kind:?}");
            assert_ne!(a.a.fingerprint(), c.a.fingerprint(), "{kind:?}");
            assert_eq!(summary(&a), summary(&b), "{kind:?}");
        }
        assert_ne!(
            Batch::new(Kind::Circuit, 1).a.fingerprint(),
            Batch::new(Kind::Circuit, 2).a.fingerprint()
        );
    }

    #[test]
    fn only_the_spmd_workload_communicates() {
        for kind in [Kind::Circuit, Kind::Fluid, Kind::Qb] {
            let b = small(kind, 3);
            let msgs: u64 = b.solve_set(two()).iter().map(Solve::msgs).sum();
            assert_eq!(msgs > 0, kind == Kind::Fluid, "{kind:?}");
        }
    }
}
