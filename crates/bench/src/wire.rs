//! Serving load through real sockets — the engine behind
//! `serve_bench --wire`.
//!
//! [`run_wire_bench`] measures the same workload as
//! [`crate::serve::run_serve_bench`], but each request crosses a real
//! loopback TCP connection and the `qarith-net` framed protocol:
//!
//! 1. builds the database and [`QueryService`] under the identical
//!    serving regime (forced AFPRAS, `m = ⌈ε⁻²⌉`), then binds a
//!    [`NetServer`] on `127.0.0.1:0`;
//! 2. runs the **sequential in-process reference pass** and pins its
//!    certainty digest — the same construction as the in-process
//!    bench, so `serve` and `wire` baselines at equal config pin the
//!    same digest;
//! 3. replays the workload from M [`NetClient`] connections,
//!    closed-loop or **open-loop** (requests fire on a fixed-rate
//!    schedule; latency counts from the *scheduled* arrival, so
//!    schedule slippage under overload is visible — no coordinated
//!    omission). Every decoded reply is compared bit-for-bit against
//!    the reference;
//! 4. keeps the repetition with the lowest p95, drains the listener
//!    ([`NetServer::shutdown`]), and reports with `kind = "wire"` plus
//!    the [`qarith_net::NetStats`] counter block.
//!
//! The measured latency therefore includes framing, both socket hops,
//! and reply parsing — the end-to-end number a remote caller sees —
//! while the certainty digest proves the bytes on the wire carry
//! exactly the bits the in-process service produced.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use qarith_datagen::{database_digest, QueryFamily};
use qarith_net::{Decoded, NetClient, NetConfig, NetServer};
use qarith_serve::QueryService;

use crate::serve::{
    absorb, serving_config, stage_latencies, Bits, LatencySummary, LoadMode, ServeBenchConfig,
    ServeBenchReport,
};

/// One reply reduced to its μ-relevant bits, in the same shape
/// [`crate::serve::response_bits`] produces for in-process responses.
fn reply_bits(decoded: &Decoded) -> Bits {
    match decoded {
        Decoded::Reply(reply) => reply
            .answers
            .iter()
            .map(|a| (a.tuple.clone(), a.nu_bits, a.samples, a.dimension))
            .collect(),
        other => panic!("wire bench expected an ok reply, got {other:?}"),
    }
}

/// Runs the configured load test through loopback sockets. Panics if
/// any wire reply deviates from the sequential in-process reference by
/// a single bit — that is a correctness failure, not a measurement.
pub fn run_wire_bench(config: &ServeBenchConfig) -> ServeBenchReport {
    let db = qarith_datagen::sales::sales_database(&config.scale.params(), config.seed);
    let db_stats = db.stats();
    let db_digest = format!("{:#018x}", database_digest(&db));

    let sql: Vec<String> =
        config.families.iter().flat_map(QueryFamily::queries).map(|q| q.sql).collect();
    assert!(!sql.is_empty(), "no query families configured");

    let service = Arc::new(QueryService::new(db, serving_config(config)));

    // Sequential in-process reference pass: pins the expected bits and
    // the digest, warms the plan cache. Identical to the in-process
    // bench's, so serve and wire runs at equal config pin the same
    // certainty digest.
    let mut digest = qarith_numeric::Fnv1a64::new();
    let reference: Vec<Bits> = sql
        .iter()
        .map(|q| absorb(&mut digest, &service.query(q).expect("workload SQL serves")))
        .collect();

    let server = NetServer::start(service, NetConfig::default())
        .expect("bind a loopback listener on an ephemeral port");

    // Timed repetitions; keep the one with the lowest p95. Each rep
    // opens fresh connections so the rep boundary is visible in the
    // connection counters, not smeared across reps.
    let requests_per_rep = config.clients.max(1) * config.passes.max(1) * sql.len();
    let mut best: Option<(LatencySummary, f64)> = None;
    for _ in 0..config.reps.max(1) {
        let (mut latencies, seconds) = wire_timed_rep(config, &server, &sql, &reference);
        let summary = LatencySummary::of(&mut latencies);
        if best.map_or(true, |(b, _)| summary.p95 < b.p95) {
            best = Some((summary, seconds));
        }
    }
    let (latency, seconds) = best.expect("reps ≥ 1");

    // Drain before reading counters: the gauge rows settle to 0 and
    // `connections_closed` becomes final.
    let outcome = server.shutdown(Duration::from_secs(10));
    assert!(outcome.drained, "wire bench listener failed to drain: {outcome:?}");
    let net = server.stats();
    let service = server.service();

    let templates: std::collections::HashSet<String> = sql
        .iter()
        .map(|q| qarith_sql::sql_fingerprint(q).expect("workload SQL fingerprints"))
        .collect();

    ServeBenchReport {
        kind: "wire".to_string(),
        scale: config.scale.name().to_string(),
        seed: config.seed,
        epsilon: config.epsilon,
        clients: config.clients.max(1) as u64,
        passes: config.passes.max(1) as u64,
        mode: config.mode.name().to_string(),
        rate: if config.mode == LoadMode::Open { config.rate } else { 0.0 },
        reps: config.reps.max(1) as u64,
        db_tuples: db_stats.tuples as u64,
        db_num_nulls: db_stats.num_nulls as u64,
        db_digest,
        templates: templates.len() as u64,
        requests: requests_per_rep as u64,
        seconds,
        qps: requests_per_rep as f64 / seconds.max(1e-9),
        latency,
        service: service.stats().as_pairs().to_vec(),
        admission: service.admission_stats().as_pairs().to_vec(),
        cache: service.cache_stats().as_pairs().to_vec(),
        net: net.as_pairs().to_vec(),
        stages: stage_latencies(service),
        certainty_digest: format!("{:#018x}", digest.finish()),
        post_write_digest: None,
    }
}

/// One timed repetition: every client on its own socket, returning
/// per-request latencies and the wall-clock seconds (the slowest
/// client's own clock, as in the in-process bench).
fn wire_timed_rep(
    config: &ServeBenchConfig,
    server: &NetServer,
    sql: &[String],
    reference: &[Bits],
) -> (Vec<f64>, f64) {
    let clients = config.clients.max(1);
    let passes = config.passes.max(1);
    let total = clients * passes * sql.len();
    let addr = server.local_addr();
    let barrier = Barrier::new(clients + 1);
    let next = AtomicUsize::new(0);
    let interval = if config.mode == LoadMode::Open {
        assert!(config.rate > 0.0, "open-loop mode needs a positive --rate");
        Duration::from_secs_f64(1.0 / config.rate)
    } else {
        Duration::ZERO
    };

    let mut all_latencies: Vec<f64> = Vec::with_capacity(total);
    let mut seconds = 0.0f64;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                let (barrier, next) = (&barrier, &next);
                scope.spawn(move || {
                    // Connect before the barrier so the timed window
                    // measures serving, not TCP establishment.
                    let mut client = NetClient::connect(addr).expect("connect to wire bench");
                    barrier.wait();
                    let start = Instant::now();
                    let mut latencies = Vec::with_capacity(total / clients + 1);
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= total {
                            break;
                        }
                        let q = &sql[k % sql.len()];
                        let issued = match config.mode {
                            LoadMode::Closed => Instant::now(),
                            LoadMode::Open => {
                                // Request k is *scheduled* at
                                // start + k·interval; latency counts
                                // from the schedule, so falling behind
                                // shows up as latency (no coordinated
                                // omission).
                                let scheduled = start + interval * k as u32;
                                if let Some(wait) = scheduled.checked_duration_since(Instant::now())
                                {
                                    std::thread::sleep(wait);
                                }
                                scheduled
                            }
                        };
                        let decoded = client.query(q).expect("wire round trip");
                        latencies.push(issued.elapsed().as_secs_f64());
                        assert_eq!(
                            reply_bits(&decoded),
                            reference[k % sql.len()],
                            "wire reply drifted from the sequential in-process reference"
                        );
                    }
                    (latencies, start.elapsed().as_secs_f64())
                })
            })
            .collect();
        barrier.wait();
        for w in workers {
            let (latencies, elapsed) = w.join().expect("wire client thread");
            all_latencies.extend(latencies);
            seconds = seconds.max(elapsed);
        }
    });
    (all_latencies, seconds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::{check, BenchDoc};
    use crate::serve::run_serve_bench;
    use qarith_datagen::WorkloadScale;

    fn tiny_config() -> ServeBenchConfig {
        ServeBenchConfig {
            clients: 2,
            passes: 1,
            reps: 1,
            epsilon: 0.1,
            ..ServeBenchConfig::default_for(WorkloadScale::Tiny)
        }
    }

    #[test]
    fn wire_reports_round_trip_and_pin_the_serve_digest() {
        let config = tiny_config();
        let wire = run_wire_bench(&config);
        assert_eq!(wire.kind, "wire");
        // 2 clients × 1 pass × 10 workload SQL strings (9 distinct
        // templates — "Unfair Discount" appears in two families).
        assert_eq!(wire.requests, 20);
        // The net block closed its books: every request framed in got
        // exactly one reply framed out, and nothing is still open.
        let net: std::collections::HashMap<&str, u64> = wire.net.iter().copied().collect();
        assert_eq!(net["frames_in"], wire.requests);
        assert_eq!(net["frames_out"], wire.requests);
        assert_eq!(net["protocol_errors"], 0);
        assert_eq!(net["connections_active"], 0);
        assert_eq!(net["connections_opened"], net["connections_closed"]);

        // The stages block saw every framed request cross the wire
        // stages, plus the reference pass on the in-process route.
        let stage = |name: &str| {
            wire.stages.iter().find(|s| s.stage == name).unwrap_or_else(|| {
                panic!("wire report without a `{name}` stage: {:?}", wire.stages)
            })
        };
        assert_eq!(stage("frame_decode").count, wire.requests);
        assert_eq!(stage("frame_encode").count, wire.requests);
        assert!(stage("total").count >= wire.requests, "reference pass also counts");

        let doc = wire.doc();
        assert_eq!(BenchDoc::from_json(&doc.to_json()).expect("parse own output"), doc);

        // Same config in-process: identical certainty digest — the
        // wire carries exactly the bits the service produced.
        let serve = run_serve_bench(&config);
        assert_eq!(serve.certainty_digest, wire.certainty_digest);

        // The gate refuses to compare a wire run against a serve
        // baseline: they measure different paths.
        let failures = check(&doc, &serve.doc());
        assert!(failures.iter().any(|f| f.contains("kind")), "{failures:?}");
    }

    #[test]
    fn open_loop_wire_latency_counts_from_the_schedule() {
        let config = ServeBenchConfig { mode: LoadMode::Open, rate: 50.0, ..tiny_config() };
        let report = run_wire_bench(&config);
        assert_eq!(report.mode, "open");
        assert_eq!(report.rate, 50.0);
        // 20 requests at 50/s occupy ≥ 19 schedule intervals: the
        // arrival schedule, not completion, paces the run.
        assert!(
            report.seconds >= 19.0 / 50.0,
            "open loop finished faster than its own schedule ({}s)",
            report.seconds
        );
    }
}
