//! The perf gate: runs every bench kind at tiny scale in its default
//! configuration — the workload suite, the serving load in process,
//! over the wire and under writes, and the sampling kernel — writes
//! each fresh document to `BENCH_<kind>.json` in the working directory,
//! checks it against its checked-in baseline with the one checker of
//! `qarith_bench::doc`, prints every failure of every kind (a run that
//! panics on one of its in-run assertions fails its kind), and exits 1
//! if there was any.
//!
//! ```text
//! cargo run --release -p qarith-bench --bin bench_gate
//! ```
//!
//! Bounds live in the baselines, not on the command line: each timing
//! is gated by the bound its baseline states, and the bound a fresh
//! document carries only seeds a newly recorded baseline. A change
//! that moves a pinned value or a counter on purpose re-records that
//! baseline in the same commit: copy the fresh `BENCH_<kind>.json` over
//! its file under `crates/bench/baselines/`.

use std::panic::AssertUnwindSafe;
use std::process::ExitCode;

use qarith_bench::doc::{check, BenchDoc};
use qarith_bench::kernel::{run_kernel, KernelConfig};
use qarith_bench::mutate::run_mutate_bench;
use qarith_bench::serve::{run_serve_bench, ServeBenchConfig};
use qarith_bench::suite::{run_suite, SuiteConfig};
use qarith_bench::wire::run_wire_bench;
use qarith_datagen::WorkloadScale;

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: bench_gate (no arguments; writes BENCH_<kind>.json here)");
        return ExitCode::from(2);
    }
    let tiny = WorkloadScale::Tiny;
    let serve = ServeBenchConfig::default_for(tiny);
    let runs: [(&str, &dyn Fn() -> BenchDoc); 5] = [
        ("BENCH_tiny.json", &|| run_suite(&SuiteConfig::default_for(tiny)).doc()),
        ("SERVE_tiny.json", &|| run_serve_bench(&serve).doc()),
        ("SERVE_WIRE_tiny.json", &|| run_wire_bench(&serve).doc()),
        ("SERVE_MUTATE_tiny.json", &|| run_mutate_bench(&serve).doc()),
        ("KERNEL_tiny.json", &|| run_kernel(&KernelConfig::default_for(tiny)).doc()),
    ];
    let mut failed = 0;
    for (file, run) in runs {
        // A run asserts its own invariants (batch bit-identical to
        // sequential, every served reply equal to the reference); a
        // broken one fails its kind, and the other kinds still run.
        let Ok(fresh) = std::panic::catch_unwind(AssertUnwindSafe(run)) else {
            println!("FAIL   the run checked against baselines/{file} panicked (message above)");
            failed += 1;
            continue;
        };
        let out = format!("BENCH_{}.json", fresh.kind);
        std::fs::write(&out, fresh.to_json()).expect("write the fresh document");
        let path = format!("{}/baselines/{file}", env!("CARGO_MANIFEST_DIR"));
        let baseline = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| BenchDoc::from_json(&text));
        let failures = match &baseline {
            Ok(baseline) => check(&fresh, baseline),
            Err(e) => vec![format!("cannot read baseline {path}: {e}")],
        };
        let verdict = if failures.is_empty() { "PASS" } else { "FAIL" };
        println!("{:<6} {verdict}  {out} against baselines/{file}", fresh.kind);
        for (name, t) in &fresh.timings {
            let base = baseline.as_ref().ok().and_then(|b| b.timing(name));
            println!(
                "         {name} {} (baseline {})",
                t.value,
                base.map_or(f64::NAN, |b| b.value)
            );
        }
        for f in &failures {
            println!("         - {f}");
        }
        failed += usize::from(!failures.is_empty());
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        println!("bench gate FAILED: {failed} of 5 kinds");
        ExitCode::FAILURE
    }
}
