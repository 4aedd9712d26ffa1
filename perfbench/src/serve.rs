//! `serve-open`: an open loop of seeded jobs into one `lra_serve::Server`
//! with a 2-rank pool.
//!
//! Jobs are sent on a fixed schedule whether or not earlier ones have
//! finished, and each is timed from the moment it was due, so a stall
//! in the server shows up in the latency of every job queued behind it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lra_core::{IlutOpts, LuCrtpOpts, Outcome as DriverOutcome, Parallelism, TournamentTree};
use lra_dense::DenseMatrix;
use lra_serve::{Algorithm, JobReport, JobSpec, Server, ServerConfig};
use lra_sparse::spmm_dense;

use crate::check::{self, median, percentile};
use crate::common::{layer_metrics, registry_size, repeat_set_up, Metrics, Outcome, Solve};
use crate::inputs::{self, JobMix, Rng};
use crate::spans::{self, span};

const RANKS: usize = 2;
const TAU: f64 = 1e-2;
const K: usize = 16;
/// Jobs offered per second: the pool's two cores run about a sixth of
/// the time. At twice the rate the quantiles of a 20-second run moved
/// by about 30% between seeds on a 2-core VM.
const RATE: f64 = 5.0;
/// Matrices the job stream draws from.
const MATRICES: usize = 60;
/// Row range of those matrices.
const ROWS: (usize, usize) = (560, 880);
/// A run whose generator sends a job later than this is invalid: the
/// offered load was not the one planned.
const LAG_BOUND_S: f64 = 0.1;

fn algorithm(ilut: bool, tau: f64) -> Algorithm {
    if ilut {
        Algorithm::IlutCrtp(IlutOpts::new(K, tau, 4))
    } else {
        Algorithm::LuCrtp(LuCrtpOpts::new(K, tau))
    }
}

/// Generate the job mix for a run of `seconds`.
fn job_mix(seed: u64, seconds: f64) -> JobMix {
    let count = (RATE * seconds).round().max(1.0) as usize;
    JobMix {
        matrices: inputs::job_matrices(seed, MATRICES, ROWS),
        jobs: inputs::job_stream(seed, MATRICES, count, seconds),
    }
}

/// Set up (see [`repeat_set_up`]): generate the mix, start the server,
/// serve one warm-up job (at a looser tolerance, so it never seeds the
/// factor cache for the measured stream). Each server drains and stops
/// when the next set-up drops it.
fn set_up(seed: u64, seconds: f64) -> (JobMix, Server, f64) {
    let ((mix, server), setup_s) = repeat_set_up(|| {
        let mix = job_mix(seed, seconds);
        let server = Server::new(ServerConfig::default().with_ranks(RANKS));
        let warm =
            JobSpec::new(Arc::clone(&mix.matrices[0]), algorithm(true, 0.1)).with_ranks(RANKS);
        if let Ok(id) = server.submit(warm) {
            server.wait(id);
        }
        (mix, server)
    });
    (mix, server, setup_s)
}

/// One job's fate.
struct Served {
    due: f64,
    /// Seconds from the stream's start to completion; `None` if refused.
    done: Option<f64>,
    report: Option<JobReport>,
    solve: Option<Solve>,
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let (mix, server, setup_s) = set_up(seed, seconds);
    spans::set_enabled(trace);
    let reg = lra_obs::metrics::global();
    let before = |name: &str| match reg.get(name) {
        Some(lra_obs::MetricValue::Counter(c)) => c,
        _ => 0,
    };
    let comm0: Vec<u64> = COMM_SERIES.iter().map(|(s, _)| before(s)).collect();

    // Send every job at its due time; keep the ids to collect later.
    let t0 = Instant::now();
    let mut lag: f64 = 0.0;
    let mut sent = Vec::with_capacity(mix.jobs.len());
    for job in &mix.jobs {
        let due = t0 + Duration::from_secs_f64(job.due);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        lag = lag.max(t0.elapsed().as_secs_f64() - job.due);
        let spec = JobSpec::new(
            Arc::clone(&mix.matrices[job.matrix]),
            algorithm(job.ilut, TAU),
        )
        .with_ranks(job.ranks)
        .with_priority(job.priority);
        let (id, _) = span("serve.submit", || server.submit(spec));
        sent.push((id, t0.elapsed().as_secs_f64()));
    }
    let mut served = Vec::with_capacity(sent.len());
    let mut rejects = 0u64;
    for (job, (id, at)) in mix.jobs.iter().zip(sent) {
        let mut s = Served {
            due: job.due,
            done: None,
            report: None,
            solve: None,
        };
        match id {
            Ok(id) => {
                let (rep, _) = span("serve.wait", || server.wait(id));
                // `wall` runs from admission, inside `submit`, to completion.
                s.done = Some(at + rep.wall.as_secs_f64());
                s.report = Some(rep);
            }
            Err(e) => {
                eprintln!("perfbench: job due at {:.3}s refused: {e}", job.due);
                rejects += 1;
            }
        }
        served.push(s);
    }
    let scrape = span("serve.scrape", || server.scrape()).0;
    drop(server);

    // Check every answer against the true error.
    for (job, s) in mix.jobs.iter().zip(served.iter_mut()) {
        let Some(rep) = &s.report else { continue };
        let a = &mix.matrices[job.matrix];
        let driver = if job.ilut { "ilut_crtp" } else { "lu_crtp" };
        let wall = rep.wall.as_secs_f64();
        let mut solve = match &rep.outcome {
            DriverOutcome::Completed(r) => {
                Solve::lu(driver, wall, TAU, r.clone(), job.ranks, !rep.from_cache)
            }
            DriverOutcome::Interrupted(_) => Solve::failed(driver, wall, TAU, "interrupted"),
        };
        if let DriverOutcome::Completed(r) = &rep.outcome {
            solve.rel_err = check::lu_rel_error(r, a, Parallelism::new(2));
        }
        if !solve.passed() {
            eprintln!(
                "perfbench: job {} ({driver}, matrix {}, {} ranks, cache {}, preemptions {}) failed: ok {} err/tau {:.4} limit/tau {:.4}",
                rep.job, job.matrix, job.ranks, rep.from_cache, rep.preemptions, solve.ok, solve.rel_err / TAU, solve.limit / TAU
            );
        }
        solve.factors = None;
        s.solve = Some(solve);
    }

    let passed = |s: &Served| s.solve.as_ref().is_some_and(Solve::passed);
    let attempted = served.len() as u64;
    let failed = served.iter().filter(|s| !passed(s)).count() as u64;
    let latency: Vec<f64> = served
        .iter()
        .map(|s| match s.done {
            Some(done) if passed(s) => done - s.due,
            _ => f64::INFINITY,
        })
        .collect();
    // Jobs that returned factors, whether or not they met τ: the error,
    // size and throughput figures cover all of them, so a job that misses
    // τ shows in `err_over_tau` instead of leaving it.
    let completed: Vec<(&Solve, f64)> = served
        .iter()
        .filter_map(|s| Some((s.solve.as_ref()?, s.done?)))
        .filter(|(x, _)| x.rel_err.is_finite())
        .collect();
    let walls: Vec<f64> = completed.iter().map(|(x, _)| x.wall).collect();
    let span_s = completed.iter().map(|&(_, done)| done).fold(0.0, f64::max)
        - mix.jobs.first().map_or(0.0, |j| j.due);
    let valid = lag <= LAG_BOUND_S;
    if !valid {
        eprintln!("perfbench: generator ran {lag:.3}s late, over the {LAG_BOUND_S}s bound");
    }
    eprintln!(
        "perfbench: {attempted} jobs, {failed} failed, {rejects} refused, generator lag {lag:.4}s"
    );

    let mut m = Metrics::new();
    if trace {
        let max_fill = mix
            .jobs
            .iter()
            .zip(&served)
            .filter_map(|(j, s)| {
                let x = s.solve.as_ref()?;
                Some(inputs::fill_ratio(x.max_schur_nnz, &mix.matrices[j.matrix]))
            })
            .fold(0.0, f64::max);
        let solves: Vec<Solve> = served.iter_mut().filter_map(|s| s.solve.take()).collect();
        let reports: Vec<&JobReport> = served.iter().filter_map(|s| s.report.as_ref()).collect();
        layer_metrics(&solves, walls.iter().sum(), &mut m);
        for ((name, metric), base) in COMM_SERIES.iter().zip(&comm0) {
            let scale = if name.ends_with("_ns") { 1e-9 } else { 1.0 };
            m.insert(metric, (before(name) - base) as f64 * scale);
        }
        let (wait, hidden) = (m["comm.overlap_wait_s"], m["comm.overlap_hidden_s"]);
        if wait + hidden > 0.0 {
            m.insert("comm.hidden_frac", hidden / (wait + hidden));
        }
        // The server checkpoints every block iteration of every job.
        m.insert("recover.saves", m["core.iterations"]);
        m.insert("core.fill_ratio", max_fill);
        m.insert("serve.service_s_p50", median(&walls));
        let n = reports.len().max(1) as f64;
        m.insert(
            "serve.cache_hit_frac",
            reports.iter().filter(|r| r.from_cache).count() as f64 / n,
        );
        m.insert("serve.repeat_share", inputs::repeat_share(&mix.jobs));
        m.insert(
            "serve.preemptions",
            reports.iter().map(|r| r.preemptions).sum::<usize>() as f64,
        );
        m.insert(
            "serve.driver_calls_per_job",
            reports.iter().map(|r| r.driver_calls).sum::<usize>() as f64 / n,
        );
        m.insert("serve.admission_rejects", rejects as f64);
        m.insert("obs.scrape_series", registry_size().0);
        m.insert("obs.scrape_bytes", scrape.len() as f64);
        m.insert("bench.gen_lag_s", lag);
        m.insert("bench.samples", attempted as f64);
        replay_layers(&mix, seed, &mut m);
        eprint!("{}", spans::summary());
    } else {
        m.insert("setup_s", setup_s);
        m.insert("solve_s", median(&walls));
        let solves = || completed.iter().map(|&(x, _)| x);
        let digits: f64 = solves().map(|x| check::digits(x.rel_err)).sum();
        m.insert(
            "s_per_digit",
            walls.iter().sum::<f64>() / digits.max(f64::MIN_POSITIVE),
        );
        m.insert(
            "err_over_tau",
            solves().map(|x| x.rel_err / x.tau).fold(0.0, f64::max),
        );
        m.insert("rank", solves().map(|x| x.rank).sum::<usize>() as f64);
        m.insert(
            "factor_nnz",
            solves().map(|x| x.factor_nnz).sum::<usize>() as f64,
        );
        m.insert("peak_rss_mb", check::peak_rss_mb());
        m.insert(
            "success_frac",
            (attempted - failed) as f64 / attempted as f64,
        );
        m.insert("job_p50_s", percentile(&latency, 0.5));
        m.insert("job_p90_s", percentile(&latency, 0.9));
        m.insert("jobs_per_s", completed.len() as f64 / span_s);
        let beyond = latency.len() / 10;
        if beyond < 10 {
            eprintln!("perfbench: only {beyond} samples lie beyond p90 (fewer than ten)");
        }
    }
    Outcome {
        correct: failed == 0 && valid,
        attempted,
        failed,
        metrics: m,
    }
}

/// Cumulative comm counters the server exports for finished jobs, and
/// the per-layer metric each feeds.
const COMM_SERIES: [(&str, &str); 6] = [
    ("comm.total.msgs_sent", "comm.msgs"),
    ("comm.total.collectives", "comm.collectives"),
    ("comm.total.overlap_posted", "comm.overlap_posted"),
    ("comm.total.overlap_wait_ns", "comm.overlap_wait_s"),
    ("comm.total.overlap_hidden_ns", "comm.overlap_hidden_s"),
    ("comm.total.alltoallv_wait_ns", "comm.alltoallv_wait_s"),
];

/// Timed replays of the ordering, tournament and sparse-times-dense
/// calls over every matrix of the mix, plus its leaf-row share.
fn replay_layers(mix: &JobMix, seed: u64, m: &mut Metrics) {
    let mut rng = Rng::new(seed, 8);
    let (mut order_s, mut tour_s, mut spmm_s, mut leaf) = (0.0, 0.0, 0.0, 0.0);
    for a in &mix.matrices {
        let (order, t) = span("ordering.fill_reducing_order", || {
            lra_ordering::fill_reducing_order(a)
        });
        order_s += t;
        leaf += inputs::leaf_row_frac(a, &order, K);
        tour_s += span("qrtp.tournament_columns", || {
            lra_qrtp::tournament_columns(
                a.as_ref(),
                Some(&order),
                K,
                TournamentTree::Binary,
                Parallelism::new(2),
            )
        })
        .1;
        let omega = DenseMatrix::from_fn(a.cols(), K, |_, _| rng.unit() - 0.5);
        spmm_s += span("sparse.spmm_dense", || {
            spmm_dense(a, &omega, Parallelism::new(2))
        })
        .1;
    }
    m.insert("ordering.order_s", order_s);
    m.insert("qrtp.tournament_s", tour_s);
    m.insert("sparse.spmm_s", spmm_s);
    m.insert("qrtp.leaf_row_frac", leaf / mix.matrices.len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprints(mix: &JobMix) -> Vec<u64> {
        mix.matrices.iter().map(|a| a.fingerprint()).collect()
    }

    #[test]
    fn same_seed_repeats_the_stream_and_a_new_seed_changes_it() {
        let (a, b, c) = (job_mix(5, 4.0), job_mix(5, 4.0), job_mix(6, 4.0));
        assert_eq!(fingerprints(&a), fingerprints(&b));
        assert_ne!(fingerprints(&a), fingerprints(&c));
        let due = |m: &JobMix| m.jobs.iter().map(|j| j.due.to_bits()).collect::<Vec<_>>();
        assert_eq!(due(&a), due(&b));
        assert_ne!(due(&a), due(&c));
        // Every seed offers the same multiset of work.
        let kinds = |m: &JobMix| {
            let mut v: Vec<_> = m
                .jobs
                .iter()
                .map(|j| (j.matrix, j.ilut, j.ranks, j.priority))
                .collect();
            v.sort();
            v
        };
        assert_eq!(kinds(&a), kinds(&c));
        assert_eq!(a.jobs.len(), (RATE * 4.0) as usize);
    }
}
