//! The sampling-kernel microbench: the blocked AFPRAS hot loop (SoA
//! direction blocks + lane-parallel evaluation) against the
//! pre-blocking scalar reference, on the workload's compiled formulas,
//! writing the `kernel` bench document (`qarith_bench::doc`).
//!
//! ```text
//! cargo run --release -p qarith-bench --bin kernel_bench -- \
//!     [--scale tiny|small|medium|paper] [--seed N] [--directions N] \
//!     [--reps N] [--out PATH]
//! ```
//!
//! The hit-count bit-identity between the blocked kernel and the scalar
//! reference is asserted inside the run itself. The tiny-scale default
//! configuration is what `bench_gate` checks against
//! `crates/bench/baselines/KERNEL_tiny.json`.

use std::process::ExitCode;

use qarith_bench::kernel::{run_kernel, KernelConfig};
use qarith_datagen::WorkloadScale;

fn usage(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    eprintln!(
        "usage: kernel_bench [--scale tiny|small|medium|paper] [--seed N] \
         [--directions N] [--reps N] [--out PATH]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut config = KernelConfig::default_for(WorkloadScale::Tiny);
    let mut out_path = "BENCH_kernel.json".to_string();

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
            "--directions" => match value().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => config.directions = n,
                _ => return usage("--directions expects a positive integer"),
            },
            "--reps" => match value().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => config.reps = n,
                _ => return usage("--reps expects a positive integer"),
            },
            "--out" => match value() {
                Some(p) => out_path = p,
                None => return usage("--out expects a path"),
            },
            other => return usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }

    println!("qarith kernel_bench — sampling-kernel microbench");
    println!(
        "scale {}  seed {}  directions/formula {}  reps {}",
        config.scale.name(),
        config.seed,
        config.directions,
        config.reps
    );

    let report = run_kernel(&config);
    println!(
        "workload: {} formulas ({} atoms, max dim {}), {} directions per rep",
        report.formulas, report.atoms, report.max_dim, report.directions_total
    );
    println!(
        "blocked kernel:   {:>12.0} directions/sec  ({:.4}s)",
        report.directions_per_sec, report.blocked_seconds
    );
    println!(
        "scalar reference: {:>12.0} directions/sec  ({:.4}s)",
        report.scalar_directions_per_sec, report.scalar_seconds
    );
    println!(
        "speedup {:.2}x  hits digest {}  (bit-identity and allocation-free hot loop asserted \
         in-run)",
        report.speedup, report.hits_digest
    );

    std::fs::write(&out_path, report.doc().to_json()).expect("write kernel json");
    println!("perf artifact written to {out_path}");
    ExitCode::SUCCESS
}
