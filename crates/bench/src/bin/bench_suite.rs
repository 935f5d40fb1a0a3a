//! The multi-scale workload suite: every query family through the
//! sequential, batch, and rewritten measurement pipelines at a fixed ε
//! ladder, printing a human summary table and writing the `suite` bench
//! document (`qarith_bench::doc`).
//!
//! ```text
//! cargo run --release -p qarith-bench --bin bench_suite -- \
//!     [--scale tiny|small|medium|paper] [--seed N] \
//!     [--families sales,range,division] [--epsilons 0.1,0.05,0.02] \
//!     [--threads N] [--reps N] [--serving-threads N] [--serving-passes N] \
//!     [--out PATH]
//! ```
//!
//! The tiny-scale default configuration is what `bench_gate` checks
//! against `crates/bench/baselines/BENCH_tiny.json`.

use std::process::ExitCode;

use qarith_bench::suite::{run_suite, SuiteConfig, SuiteReport};
use qarith_datagen::{QueryFamily, WorkloadScale};

fn usage(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    eprintln!(
        "usage: bench_suite [--scale tiny|small|medium|paper] [--seed N] \
         [--families LIST] [--epsilons LIST] [--threads N] [--reps N] \
         [--serving-threads N] [--serving-passes N] [--out PATH]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut config = SuiteConfig::default_for(WorkloadScale::Tiny);
    let mut out_path = "BENCH_suite.json".to_string();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            i += 1;
            args.get(i).cloned()
        };
        match flag {
            "--scale" => match value().as_deref().and_then(WorkloadScale::parse) {
                Some(s) => config.scale = s,
                None => return usage("--scale expects tiny|small|medium|paper"),
            },
            "--seed" => match value().and_then(|v| v.parse().ok()) {
                Some(s) => config.seed = s,
                None => return usage("--seed expects an integer"),
            },
            "--families" => {
                let list: Option<Vec<QueryFamily>> =
                    value().and_then(|v| v.split(',').map(QueryFamily::parse).collect());
                match list {
                    Some(fams) if !fams.is_empty() => config.families = fams,
                    _ => return usage("--families expects a comma list of sales|range|division"),
                }
            }
            "--epsilons" => {
                let list: Option<Vec<f64>> =
                    value().and_then(|v| v.split(',').map(|e| e.parse().ok()).collect());
                match list {
                    Some(eps)
                        if !eps.is_empty() && eps.iter().all(|e| (1e-4..=0.5).contains(e)) =>
                    {
                        config.epsilons = eps;
                    }
                    _ => return usage("--epsilons expects a comma list in [0.0001, 0.5]"),
                }
            }
            "--threads" => match value().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => config.threads = n,
                _ => return usage("--threads expects a positive integer"),
            },
            "--reps" => match value().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => config.reps = n,
                _ => return usage("--reps expects a positive integer"),
            },
            "--serving-threads" => match value().and_then(|v| v.parse().ok()) {
                Some(n) => config.serving_threads = n,
                None => return usage("--serving-threads expects an integer (0 disables)"),
            },
            "--serving-passes" => match value().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => config.serving_passes = n,
                _ => return usage("--serving-passes expects a positive integer"),
            },
            "--out" => match value() {
                Some(p) => out_path = p,
                None => return usage("--out expects a path"),
            },
            other => return usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }

    println!("qarith bench_suite — workload sweep");
    println!(
        "scale {}  seed {}  families [{}]  ε ladder {:?}  batch threads {}",
        config.scale.name(),
        config.seed,
        config.families.iter().map(QueryFamily::name).collect::<Vec<_>>().join(", "),
        config.epsilons,
        config.threads
    );

    let started = std::time::Instant::now();
    let report = run_suite(&config);
    println!(
        "database: {} tuples, {} numerical nulls, digest {}",
        report.db_tuples, report.db_num_nulls, report.db_digest
    );
    print_summary(&report);
    println!("suite completed in {:.3}s", started.elapsed().as_secs_f64());

    std::fs::write(&out_path, report.doc().to_json()).expect("write BENCH json");
    println!("perf artifact written to {out_path}");
    ExitCode::SUCCESS
}

/// The human summary: per (family, query, ε) one row comparing the
/// three pipelines, then the serving pass.
fn print_summary(report: &SuiteReport) {
    for family in &report.families {
        println!("\nfamily: {}", family.family);
        println!(
            "  {:<26} {:>6}  {:>9}  {:>11}  {:>11}  {:>11}  {:>8}  {:>7}",
            "query", "ε·10³", "dirs", "seq (s)", "batch (s)", "rewrite (s)", "rw-spdup", "exact"
        );
        for q in &family.queries {
            for eps in &report.config.epsilons {
                let find = |pipeline: &str| {
                    q.points.iter().find(|p| p.pipeline == pipeline && p.epsilon == *eps)
                };
                let (Some(seq), Some(batch), Some(rw)) =
                    (find("seq"), find("batch"), find("rewrite"))
                else {
                    continue;
                };
                let exact = rw
                    .rewrite
                    .as_ref()
                    .and_then(|r| {
                        let get = |k: &str| r.iter().find(|(n, _)| *n == k).map(|(_, v)| *v);
                        Some(format!("{}/{}", get("exact_factors")?, get("factors")?))
                    })
                    .unwrap_or_default();
                println!(
                    "  {:<26} {:>6.0}  {:>9}  {:>11.6}  {:>11.6}  {:>11.6}  {:>7.2}x  {:>7}",
                    q.name,
                    eps * 1000.0,
                    seq.directions,
                    seq.seconds,
                    batch.seconds,
                    rw.seconds,
                    batch.seconds / rw.seconds.max(1e-9),
                    exact,
                );
            }
        }
    }
    if let Some(s) = &report.serving {
        let hits = s.cache.iter().find(|(n, _)| *n == "hits").map_or(0, |(_, v)| *v);
        let misses = s.cache.iter().find(|(n, _)| *n == "misses").map_or(0, |(_, v)| *v);
        println!(
            "\nwarm serving pass: {} clients × {} passes, {} queries at ε = {} \
             in {:.4}s ({:.0} q/s; ν-cache {hits} hits / {misses} misses)",
            report.config.serving_threads,
            report.config.serving_passes,
            s.queries,
            s.epsilon,
            s.seconds,
            s.queries as f64 / s.seconds.max(1e-9),
        );
    }
}
