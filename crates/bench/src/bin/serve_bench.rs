//! Load generator for the `qarith-serve` query service: replays the
//! workload-suite queries from M client threads through one shared
//! [`QueryService`], closed- or open-loop, and emits the schema-v4
//! `"serve"` `BENCH_*.json` document with p50/p95/p99 latency,
//! throughput, the per-stage latency summaries from the service
//! tracer, and the plan/shard/admission counter blocks — optionally
//! gated against a checked-in baseline (the CI `serve-smoke` step).
//!
//! With `--wire` the same load runs through real loopback sockets and
//! the `qarith-net` framed protocol instead of in-process calls: every
//! request crosses TCP, every reply is decoded and compared bit for
//! bit against the sequential in-process reference, and the document
//! kind becomes `"wire"` with a `net` counter block (the CI
//! `net-smoke` step).
//!
//! With `--mutate` the bench exercises the *write* path instead: a
//! deterministic stream of write batches is interleaved with template
//! replays against the evolving epochs, the certainty digest is pinned
//! on the epoch-0 reference pass, and the document kind becomes
//! `"mutate"` (the CI `mutation-smoke` step; single-threaded driver,
//! `--clients`/`--mode`/`--rate` are ignored).
//!
//! ```text
//! cargo run --release -p qarith-bench --bin serve_bench -- \
//!     [--wire | --mutate] [--scale tiny|small|medium|paper] [--seed N] \
//!     [--families sales,range,division] [--epsilon F] \
//!     [--clients N] [--passes N] [--mode closed|open] [--rate QPS] \
//!     [--reps N] [--cache-budget BYTES] [--cache-shards N] \
//!     [--max-in-flight N] [--out PATH] [--check-baseline] \
//!     [--baseline PATH] [--tolerance F]
//! ```
//!
//! `--check-baseline` loads the baseline JSON (default:
//! `crates/bench/baselines/SERVE_<scale>.json`, or
//! `SERVE_WIRE_<scale>.json` under `--wire`, or
//! `SERVE_MUTATE_<scale>.json` under `--mutate`), re-verifies the
//! certainty digest bit for bit, and compares p95 latency with a
//! relative tolerance (default 25 %); any failure exits non-zero. An
//! intentional behavioral change must regenerate the baseline in the
//! same commit: run without `--check-baseline` and copy the fresh
//! artifact over the checked-in one.
//!
//! [`QueryService`]: qarith_serve::QueryService

use std::process::ExitCode;

use qarith_bench::mutate::run_mutate_bench;
use qarith_bench::serve::{
    check_serve_baseline, run_serve_bench, LoadMode, ServeBenchConfig, ServeBenchReport,
};
use qarith_bench::wire::run_wire_bench;
use qarith_datagen::{QueryFamily, WorkloadScale};

/// Default output artifact name — the PR-5 slot of the `BENCH_*.json`
/// trajectory (one artifact per perf-relevant PR).
const DEFAULT_OUT: &str = "BENCH_5.json";

/// Default output artifact name under `--wire` — the PR-7 slot.
const DEFAULT_WIRE_OUT: &str = "BENCH_7.json";

/// Default output artifact name under `--mutate` — the PR-10 slot.
const DEFAULT_MUTATE_OUT: &str = "BENCH_10.json";

fn usage(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    eprintln!(
        "usage: serve_bench [--wire | --mutate] [--scale tiny|small|medium|paper] [--seed N] \
         [--families LIST] [--epsilon F] [--clients N] [--passes N] \
         [--mode closed|open] [--rate QPS] [--reps N] [--cache-budget BYTES] \
         [--cache-shards N] [--max-in-flight N] [--out PATH] \
         [--check-baseline] [--baseline PATH] [--tolerance F]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut config = ServeBenchConfig::default_for(WorkloadScale::Tiny);
    let mut wire = false;
    let mut mutate = false;
    let mut out_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut check_baseline = false;
    let mut tolerance = 0.25f64;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            i += 1;
            args.get(i).cloned()
        };
        match flag {
            "--wire" => wire = true,
            "--mutate" => mutate = true,
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
            "--epsilon" => match value().and_then(|v| v.parse().ok()) {
                Some(e) if (1e-4..=0.5).contains(&e) => config.epsilon = e,
                _ => return usage("--epsilon expects a value in [0.0001, 0.5]"),
            },
            "--clients" => match value().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => config.clients = n,
                _ => return usage("--clients expects a positive integer"),
            },
            "--passes" => match value().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => config.passes = n,
                _ => return usage("--passes expects a positive integer"),
            },
            "--mode" => match value().as_deref().and_then(LoadMode::parse) {
                Some(m) => config.mode = m,
                None => return usage("--mode expects closed|open"),
            },
            "--rate" => match value().and_then(|v| v.parse().ok()) {
                Some(r) if r > 0.0 => config.rate = r,
                _ => return usage("--rate expects a positive requests/second value"),
            },
            "--reps" => match value().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => config.reps = n,
                _ => return usage("--reps expects a positive integer"),
            },
            "--cache-budget" => match value().and_then(|v| v.parse().ok()) {
                Some(b) if b > 0 => config.cache_budget_bytes = b,
                _ => return usage("--cache-budget expects a positive byte count"),
            },
            "--cache-shards" => match value().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => config.cache_shards = n,
                _ => return usage("--cache-shards expects a positive integer"),
            },
            "--max-in-flight" => match value().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => config.max_in_flight = n,
                _ => return usage("--max-in-flight expects a positive integer"),
            },
            "--out" => match value() {
                Some(p) => out_path = Some(p),
                None => return usage("--out expects a path"),
            },
            "--baseline" => match value() {
                Some(p) => baseline_path = Some(p),
                None => return usage("--baseline expects a path"),
            },
            "--check-baseline" => check_baseline = true,
            "--tolerance" => match value().and_then(|v| v.parse().ok()) {
                Some(t) if (0.0..10.0).contains(&t) => tolerance = t,
                _ => return usage("--tolerance expects a fraction, e.g. 0.25"),
            },
            other => return usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    if config.mode == LoadMode::Open && config.rate <= 0.0 {
        return usage("--mode open requires --rate");
    }
    if wire && mutate {
        return usage("--wire and --mutate are mutually exclusive");
    }

    println!(
        "qarith serve_bench — serving load ({})",
        if wire {
            "wire: framed protocol over loopback TCP"
        } else if mutate {
            "mutate: write batches interleaved with template replays"
        } else {
            "in-process"
        }
    );
    println!(
        "scale {}  seed {}  families [{}]  ε {}  {} clients × {} passes ({}{})",
        config.scale.name(),
        config.seed,
        config.families.iter().map(QueryFamily::name).collect::<Vec<_>>().join(", "),
        config.epsilon,
        config.clients,
        config.passes,
        config.mode.name(),
        if config.mode == LoadMode::Open {
            format!(", {} q/s target", config.rate)
        } else {
            String::new()
        },
    );

    let report = if wire {
        run_wire_bench(&config)
    } else if mutate {
        run_mutate_bench(&config)
    } else {
        run_serve_bench(&config)
    };
    print_summary(&report);

    let out_path = out_path.unwrap_or_else(|| {
        if wire {
            DEFAULT_WIRE_OUT
        } else if mutate {
            DEFAULT_MUTATE_OUT
        } else {
            DEFAULT_OUT
        }
        .to_string()
    });
    std::fs::write(&out_path, report.to_json()).expect("write BENCH json");
    println!("perf artifact written to {out_path}");

    if !check_baseline {
        return ExitCode::SUCCESS;
    }
    let baseline_path = baseline_path.unwrap_or_else(|| {
        format!(
            "{}/baselines/SERVE_{}{}.json",
            env!("CARGO_MANIFEST_DIR"),
            if wire {
                "WIRE_"
            } else if mutate {
                "MUTATE_"
            } else {
                ""
            },
            config.scale.name()
        )
    });
    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("FAIL: cannot read baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline = match ServeBenchReport::from_json(&baseline_text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("FAIL: cannot parse baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let failures = check_serve_baseline(&report, &baseline, tolerance);
    if failures.is_empty() {
        println!(
            "baseline check PASSED against {baseline_path} \
             (certainty digest bit-identical, p95 within {:.0}%)",
            tolerance * 100.0
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("baseline check FAILED against {baseline_path}:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        ExitCode::FAILURE
    }
}

fn counter(block: &[(String, u64)], name: &str) -> u64 {
    block.iter().find(|(k, _)| k == name).map_or(0, |(_, v)| *v)
}

fn print_summary(report: &ServeBenchReport) {
    println!(
        "database: {} tuples, {} numerical nulls, digest {}",
        report.db_tuples, report.db_num_nulls, report.db_digest
    );
    println!(
        "{} requests over {} templates in {:.4}s — {:.0} q/s",
        report.requests, report.templates, report.seconds, report.qps
    );
    println!(
        "latency: p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  max {:.3} ms",
        report.latency.p50 * 1e3,
        report.latency.p95 * 1e3,
        report.latency.p99 * 1e3,
        report.latency.max * 1e3,
    );
    println!(
        "plan cache: {} plans, {} hits / {} misses; ν-cache: {} hits / {} misses, \
         {} entries, {} evictions, {} bytes resident; admission: {} admitted, {} queued",
        counter(&report.service, "plans"),
        counter(&report.service, "plan_hits"),
        counter(&report.service, "plan_misses"),
        counter(&report.cache, "hits"),
        counter(&report.cache, "misses"),
        counter(&report.cache, "entries"),
        counter(&report.cache, "evictions"),
        counter(&report.cache, "resident_bytes"),
        counter(&report.admission, "admitted"),
        counter(&report.admission, "queued"),
    );
    if !report.stages.is_empty() {
        println!("per-stage latency (count, p50/p95/p99 as tracer bucket bounds):");
        for s in &report.stages {
            println!(
                "  {:<14} n={:<6} p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms",
                s.stage,
                s.count,
                s.p50 * 1e3,
                s.p95 * 1e3,
                s.p99 * 1e3,
            );
        }
    }
    if report.kind == "mutate" {
        println!(
            "writes: {} batches / {} ops → epoch {}; {} plans invalidated",
            counter(&report.service, "writes"),
            counter(&report.service, "write_ops"),
            counter(&report.service, "epoch"),
            counter(&report.service, "plan_invalidations"),
        );
    }
    if report.kind == "wire" {
        println!(
            "net: {} connections ({} opened / {} closed), {} frames in / {} out, \
             {} protocol errors, {} timeouts",
            counter(&report.net, "connections_active"),
            counter(&report.net, "connections_opened"),
            counter(&report.net, "connections_closed"),
            counter(&report.net, "frames_in"),
            counter(&report.net, "frames_out"),
            counter(&report.net, "protocol_errors"),
            counter(&report.net, "timeouts"),
        );
    }
    println!("certainty digest: {}", report.certainty_digest);
}
