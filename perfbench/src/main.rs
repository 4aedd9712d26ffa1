//! Repository benchmark for the fixed-precision low-rank drivers and
//! the job service.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `circuit-crtp`, `fluid-spmd`, `qb-econ`, `serve-open`
//! (see `batch.rs` and `serve.rs`). Inputs are generated from `--seed`;
//! every answer is checked against its tolerance. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. Diagnostics go to standard
//! error.

mod batch;
mod check;
mod common;
mod inputs;
mod serve;
mod spans;

use common::{Metric, Outcome, END_TO_END, PER_LAYER};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn json_line(out: &Outcome, trace: bool) -> String {
    let table: &[Metric] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|&(name, unit, better)| {
            let v = out.metrics.get(name).copied();
            assert!(
                trace || v.is_some(),
                "end-to-end metric {name} was not measured"
            );
            let v = json_value(v.unwrap_or(0.0), better);
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// A metric value as JSON. JSON has no infinities or NaN, and a
/// non-finite value (a failed sample counted as +∞, a solve with no
/// error) must not read as an improvement: it becomes the worst value the
/// metric can show, `f64::MAX` when lower is better and 0 when higher is
/// better. Adding 0.0 turns a negative zero into zero.
fn json_value(v: f64, better: &str) -> f64 {
    match (v.is_finite(), better) {
        (true, _) => v + 0.0,
        (false, "lower") => f64::MAX,
        (false, _) => 0.0,
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let (seed, secs, trace) = (args.seed, args.seconds, args.trace);
    let out = match args.workload.as_str() {
        "circuit-crtp" => batch::run(batch::Kind::Circuit, seed, secs, trace),
        "fluid-spmd" => batch::run(batch::Kind::Fluid, seed, secs, trace),
        "qb-econ" => batch::run(batch::Kind::Qb, seed, secs, trace),
        "serve-open" => serve::run(seed, secs, trace),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    println!("{}", json_line(&out, trace));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in the repository's BENCHMARK.json
    /// name the same metrics with the same units, in the same order.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let json = lra_obs::Json::parse(&text).expect("valid JSON");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<[String; 3]> = json
                .get(key)
                .and_then(|j| j.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    [s("name"), s("unit"), s("better")]
                })
                .collect();
            let ours: Vec<[String; 3]> = table
                .iter()
                .map(|(n, u, b)| [n.to_string(), u.to_string(), b.to_string()])
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn non_finite_values_read_as_the_worst_value() {
        assert_eq!(json_value(f64::INFINITY, "lower"), f64::MAX);
        assert_eq!(json_value(f64::NAN, "lower"), f64::MAX);
        assert_eq!(json_value(f64::INFINITY, "higher"), 0.0);
        assert_eq!(json_value(-0.0, "lower").to_bits(), 0.0f64.to_bits());
        assert_eq!(json_value(1.5, "higher"), 1.5);
    }
}
