//! `netd` — the standalone qarith wire daemon.
//!
//! Generates a sales workload database at a chosen scale, wraps it in
//! a [`QueryService`], and serves the framed wire protocol (plus
//! `GET /metrics` and `GET /slow`) until killed or told to drain:
//!
//! ```text
//! netd [--addr HOST:PORT] [--scale tiny|small|medium|paper] \
//!      [--seed N] [--epsilon F] [--max-in-flight N] \
//!      [--slow-threshold-ms N] [--quiet]
//! ```
//!
//! Defaults match `serve_bench`'s serving regime (seed 2020, ε 0.02,
//! [`ServeConfig::paper_afpras`]), so answers from a default `netd` are bit-comparable to
//! the serve/wire benches at equal scale and seed. See the README's
//! "Talk to it over the wire" quickstart for a netcat session and
//! "Observing a running server" for the metrics/slow-log tour.
//!
//! Writing `quit` (or `drain`, or `stop`) on stdin drains the server
//! gracefully and prints a final summary: the net counters plus the
//! per-stage p50/p95/p99 latency table and the slow-query count. A
//! closed stdin (e.g. `netd ... &` under a shell with stdin from
//! `/dev/null`) parks the daemon instead of draining it, so
//! backgrounding still works.

use std::io::BufRead;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use qarith_datagen::WorkloadScale;
use qarith_net::{NetConfig, NetServer};
use qarith_serve::{QueryService, ServeConfig};

const USAGE: &str = "usage: netd [flags]\n\
     --addr HOST:PORT        bind address (default 127.0.0.1:0; the chosen\n\
                             address is printed as the first stdout line)\n\
     --scale NAME            workload scale: tiny|small|medium|paper (default tiny)\n\
     --seed N                datagen seed (default 2020)\n\
     --epsilon F             additive error bound in (0, 1] (default 0.02)\n\
     --max-in-flight N       admission-gate permits (default 64)\n\
     --slow-threshold-ms N   log requests slower than N ms to the slow-query\n\
                             ring (default 0 = disabled; `GET /slow` dumps it)\n\
     --quiet                 suppress startup/progress chatter on stderr\n\
     --help                  print this help and exit\n\
   stdin: `quit` | `drain` | `stop` drains gracefully and prints the final\n\
   per-stage latency summary; closed stdin parks the daemon forever.";

fn usage(problem: &str) -> ExitCode {
    eprintln!("netd: {problem}");
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:0".to_string();
    let mut scale = WorkloadScale::Tiny;
    let mut seed = 2020u64;
    let mut epsilon = 0.02f64;
    let mut max_in_flight = 64usize;
    let mut slow_threshold_ms = 0u64;
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next();
        match flag.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--quiet" => quiet = true,
            "--addr" => match value() {
                Some(a) => addr = a,
                None => return usage("--addr expects HOST:PORT"),
            },
            "--scale" => match value().as_deref().and_then(WorkloadScale::parse) {
                Some(s) => scale = s,
                None => return usage("--scale expects tiny|small|medium|paper"),
            },
            "--seed" => match value().and_then(|v| v.parse().ok()) {
                Some(n) => seed = n,
                None => return usage("--seed expects an integer"),
            },
            "--epsilon" => match value().and_then(|v| v.parse().ok()) {
                Some(e) if (0.0..=1.0).contains(&e) && e > 0.0 => epsilon = e,
                _ => return usage("--epsilon expects a float in (0, 1]"),
            },
            "--max-in-flight" => match value().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => max_in_flight = n,
                _ => return usage("--max-in-flight expects a positive integer"),
            },
            "--slow-threshold-ms" => match value().and_then(|v| v.parse().ok()) {
                Some(n) => slow_threshold_ms = n,
                None => return usage("--slow-threshold-ms expects a non-negative integer"),
            },
            other => return usage(&format!("unknown flag `{other}`")),
        }
    }

    if !quiet {
        eprintln!("netd: generating `{}` sales database (seed {seed})...", scale.name());
    }
    let db = qarith_datagen::sales::sales_database(&scale.params(), seed);

    let service = Arc::new(QueryService::new(
        db,
        ServeConfig {
            max_in_flight,
            slow_threshold_nanos: slow_threshold_ms.saturating_mul(1_000_000),
            ..ServeConfig::paper_afpras(epsilon, seed)
        },
    ));

    let config = NetConfig { addr, ..NetConfig::default() };
    let server = match NetServer::start(service, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("netd: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", server.local_addr());
    if !quiet {
        eprintln!(
            "netd: serving scale={} seed={seed} epsilon={epsilon} on {} \
             (framed protocol; `GET /metrics` for Prometheus text, `GET /slow` \
             for the slow-query log); `quit` on stdin or ctrl-c to stop",
            scale.name(),
            server.local_addr()
        );
    }

    // Wait for a drain command. EOF on stdin (or a read error) is NOT a
    // drain: a backgrounded `netd &` inherits a closed stdin
    // immediately, and killing it on launch would be rude — park
    // instead.
    for line in std::io::stdin().lock().lines() {
        match line {
            Ok(cmd) if matches!(cmd.trim(), "quit" | "drain" | "stop") => {
                drain_and_report(&server, quiet);
                return ExitCode::SUCCESS;
            }
            Ok(_) => {} // unknown chatter; keep serving
            Err(_) => break,
        }
    }
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// Drains the server and prints the final accounting: net counters,
/// the per-stage p50/p95/p99 latency table, and the slow-query count.
fn drain_and_report(server: &NetServer, quiet: bool) {
    if !quiet {
        eprintln!("netd: draining...");
    }
    let outcome = server.shutdown(Duration::from_secs(5));
    let stats = server.stats();
    eprintln!(
        "netd: drained (forced={}) frames_in={} frames_out={} connections={} protocol_errors={}",
        outcome.forced,
        stats.frames_in,
        stats.frames_out,
        stats.connections_opened,
        stats.protocol_errors,
    );
    let service = server.service();
    eprintln!("netd: per-stage latency (count, p50/p95/p99):");
    for summary in service.latency_stats().summaries() {
        if summary.count == 0 {
            continue;
        }
        eprintln!(
            "netd:   {:<14} n={:<6} p50={} p95={} p99={}",
            summary.stage.name(),
            summary.count,
            display_nanos(summary.p50_nanos),
            display_nanos(summary.p95_nanos),
            display_nanos(summary.p99_nanos),
        );
    }
    let slow = service.slow_queries();
    eprintln!("netd: slow queries over threshold: {}", slow.len());
}

/// Nanoseconds for human eyes: microseconds below 1 ms, milliseconds
/// above.
fn display_nanos(nanos: u64) -> String {
    if nanos < 1_000_000 {
        format!("{:.1}us", nanos as f64 / 1_000.0)
    } else {
        format!("{:.1}ms", nanos as f64 / 1_000_000.0)
    }
}
