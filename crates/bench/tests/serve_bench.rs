//! End-to-end checks of the serving-load bench: a real (miniature) run
//! round-trips through the bench document's parser and reproduces the
//! pinned certainty digest, and the checked-in CI baselines stay
//! parseable and pinned to the generator's digest.

use qarith_bench::doc::{check, BenchDoc};
use qarith_bench::json::Json;
use qarith_bench::serve::{run_serve_bench, LoadMode, ServeBenchConfig};
use qarith_datagen::WorkloadScale;

/// A fast configuration: 2 clients × 1 pass, 1 rep, default families
/// at the baseline's ε/seed so the certainty digest must agree with
/// the checked-in one.
fn mini_config() -> ServeBenchConfig {
    ServeBenchConfig {
        clients: 2,
        passes: 1,
        reps: 1,
        ..ServeBenchConfig::default_for(WorkloadScale::Tiny)
    }
}

fn baseline(file: &str) -> BenchDoc {
    let path = format!("{}/baselines/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(path).expect("baseline JSON is checked in");
    BenchDoc::from_json(&text).expect("baseline parses")
}

/// The certainty digest every serving baseline pins.
fn pinned_digest() -> String {
    let serve = baseline("SERVE_tiny.json");
    serve.pinned.get("certainty_digest").and_then(Json::as_str).expect("digest").to_string()
}

fn value<'a>(v: &'a Json, path: &str) -> &'a Json {
    path.split('.').fold(v, |v, key| v.get(key).unwrap_or_else(|| panic!("no `{path}`")))
}

#[test]
fn serve_run_round_trips_and_self_compares() {
    let report = run_serve_bench(&mini_config());
    let doc = report.doc();
    let back = BenchDoc::from_json(&doc.to_json()).expect("serve JSON parses");
    assert_eq!(back, doc, "write → parse must be lossless (bit-exact numbers)");
    assert_eq!(check(&doc, &back), Vec::<String>::new());
    // 2 clients × 1 pass × 10 workload SQL strings (9 distinct
    // templates — "Unfair Discount" appears in two families).
    assert_eq!(report.requests, 20);
    assert_eq!(report.templates, 9);
}

#[test]
fn certainty_digest_is_independent_of_client_concurrency() {
    // The digest comes from the sequential reference pass, so any
    // client configuration at equal (scale, seed, ε, families) must
    // reproduce it — including the checked-in 4-client baseline.
    let a = run_serve_bench(&mini_config());
    let b = run_serve_bench(&ServeBenchConfig { clients: 3, ..mini_config() });
    assert_eq!(a.certainty_digest, b.certainty_digest);
    assert_eq!(a.certainty_digest, pinned_digest());
}

#[test]
fn checked_in_serve_baseline_is_valid_and_pinned() {
    let serve = baseline("SERVE_tiny.json");
    assert_eq!(serve.kind, "serve");
    assert_eq!(value(&serve.config, "scale").as_str(), Some("tiny"));
    assert_eq!(value(&serve.config, "seed").as_u64(), Some(2020));
    // Must agree with the generator pins in
    // crates/datagen/tests/determinism.rs — same seed, same scale.
    assert_eq!(value(&serve.counters, "db_tuples").as_u64(), Some(200));
    assert_eq!(value(&serve.counters, "db_num_nulls").as_u64(), Some(47));
    assert_eq!(value(&serve.pinned, "db_digest").as_str(), Some("0x75dc0786674255e7"));
    assert_eq!(value(&serve.config, "mode").as_str(), Some("closed"));
    assert_eq!(value(&serve.config, "clients").as_u64(), Some(4), "the gate serves 4 clients");
    assert_eq!(value(&serve.counters, "templates").as_u64(), Some(9), "10 queries, 9 templates");
    let p95 = serve.timing("p95").expect("p95 is gated").value;
    let info = |key: &str| value(&serve.info, key).as_f64().expect("latency quantile");
    assert!(info("p50") <= p95 && p95 <= info("p99") && info("p99") <= info("max"));
}

#[test]
fn checked_in_wire_and_mutate_baselines_are_valid_and_pinned() {
    let wire = baseline("SERVE_WIRE_tiny.json");
    assert_eq!(wire.kind, "wire");
    assert_eq!(value(&wire.config, "scale").as_str(), Some("tiny"));
    assert_eq!(value(&wire.config, "seed").as_u64(), Some(2020));
    assert_eq!(value(&wire.config, "clients").as_u64(), Some(4), "the gate serves 4 wire clients");
    assert_eq!(value(&wire.pinned, "db_digest").as_str(), Some("0x75dc0786674255e7"));
    // The wire carries exactly the bits the in-process service
    // produces: both baselines pin the same certainty digest.
    assert_eq!(value(&wire.pinned, "certainty_digest").as_str(), Some(pinned_digest().as_str()));
    // And its connection books are closed: one reply per request,
    // nothing left open after the drain.
    let net = |key: &str| value(&wire.counters, &format!("net.{key}")).as_u64();
    assert_eq!(net("frames_in"), net("frames_out"));
    assert_eq!(net("connections_active"), Some(0));
    assert_eq!(net("connections_opened"), net("connections_closed"));
    assert_eq!(net("protocol_errors"), Some(0));

    // The mutate run pins the epoch-0 digest of the same population,
    // and its writes drop plans but no ν entry.
    let mutate = baseline("SERVE_MUTATE_tiny.json");
    assert_eq!(mutate.kind, "mutate");
    assert_eq!(value(&mutate.config, "scale").as_str(), Some("tiny"));
    assert_eq!(value(&mutate.config, "seed").as_u64(), Some(2020));
    assert_eq!(value(&mutate.pinned, "certainty_digest").as_str(), Some(pinned_digest().as_str()));
    let count = |path: &str| value(&mutate.counters, path).as_u64();
    assert!(count("service.plan_invalidations") > Some(0));
    assert_eq!(count("cache.misses"), count("cache.entries"), "every ν miss stays resident");
}

#[test]
fn open_loop_mode_records_schedule_latency() {
    let config = ServeBenchConfig { mode: LoadMode::Open, rate: 2000.0, ..mini_config() };
    let report = run_serve_bench(&config);
    assert_eq!(report.mode, "open");
    assert_eq!(report.rate, 2000.0);
    // Same population, same digest: the load mode is timing-only.
    assert_eq!(report.certainty_digest, pinned_digest());
}
