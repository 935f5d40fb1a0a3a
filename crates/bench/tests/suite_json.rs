//! End-to-end checks of the workload suite: a real (miniature) run
//! round-trips through the bench document's parser, is deterministic
//! apart from its wall-clock readings, and the checked-in CI
//! baseline stays parseable and pinned to the generator's digest.

use qarith_bench::doc::{check, BenchDoc};
use qarith_bench::json::Json;
use qarith_bench::suite::{run_suite, SuiteConfig, PIPELINES};
use qarith_datagen::{QueryFamily, WorkloadScale};

/// A fast configuration: all three families (execution coverage — SQL
/// that merely *compiles* can still be rejected by the CQ executor),
/// one coarse ε, single rep, a 2-client serving pass.
fn mini_config() -> SuiteConfig {
    SuiteConfig {
        scale: WorkloadScale::Tiny,
        seed: 2020,
        families: QueryFamily::all().to_vec(),
        epsilons: vec![0.1],
        reps: 1,
        serving_threads: 2,
        serving_passes: 1,
    }
}

#[test]
fn suite_round_trips_through_its_own_parser() {
    let doc = run_suite(&mini_config()).doc();
    let back = BenchDoc::from_json(&doc.to_json()).expect("suite JSON parses");
    assert_eq!(back, doc, "write → parse must be lossless (bit-exact numbers)");
    // And a run compares clean against itself under the gate.
    assert_eq!(check(&doc, &back), Vec::<String>::new());
}

/// The document without its wall-clock readings: the gated timings and
/// the ungated per-point seconds.
fn detimed(mut doc: BenchDoc) -> BenchDoc {
    doc.timings.clear();
    if let Json::Obj(info) = &mut doc.info {
        info.retain(|(key, _)| key != "seconds");
    }
    doc
}

#[test]
fn suite_is_deterministic_apart_from_timings() {
    let a = detimed(run_suite(&mini_config()).doc());
    let b = detimed(run_suite(&mini_config()).doc());
    assert_eq!(a, b);
    // The serving pass's ν-cache counters are gated, so they must repeat.
    let serving = a.counters.get("serving").and_then(|s| s.get("cache"));
    assert!(serving.and_then(|c| c.get("hits")).and_then(Json::as_u64) > Some(0));
}

#[test]
fn suite_covers_all_pipelines_and_families() {
    let config = mini_config();
    let report = run_suite(&config);
    assert_eq!(report.families.len(), 3);
    for f in &report.families {
        for q in &f.queries {
            let pipelines: Vec<&str> = q.points.iter().map(|p| p.pipeline.as_str()).collect();
            assert_eq!(pipelines, PIPELINES, "{}/{}", f.family, q.name);
            for p in &q.points {
                assert!(
                    p.certainties.iter().all(|c| (0.0..=1.0).contains(c)),
                    "{}/{} [{}]: certainty out of range",
                    f.family,
                    q.name,
                    p.pipeline
                );
                assert_eq!(p.certainties.len() as u64, q.candidates);
            }
        }
    }
    // The division family must actually reach the rewrite pipeline's
    // exact routing (its reason to exist); sum exact_factors over it.
    let division = report.families.iter().find(|f| f.family == "division").unwrap();
    let exact: u64 = division
        .queries
        .iter()
        .flat_map(|q| &q.points)
        .filter_map(|p| p.rewrite.as_ref())
        .flat_map(|r| r.iter())
        .filter(|(k, _)| *k == "exact_factors")
        .map(|(_, v)| *v)
        .sum();
    assert!(exact > 0, "division family routed no factor to an exact evaluator");
    let serving = report.serving.as_ref().expect("serving pass enabled");
    assert_eq!(
        serving.queries,
        2 * report.families.iter().map(|f| f.queries.len() as u64).sum::<u64>()
    );
    // The gated totals are the per-point seconds summed per pipeline.
    let doc = report.doc();
    for pipeline in PIPELINES {
        let points = report.families.iter().flat_map(|f| &f.queries).flat_map(|q| &q.points);
        let total: f64 = points.filter(|p| p.pipeline == pipeline).map(|p| p.seconds).sum();
        let timing = doc.timing(&format!("{pipeline}_seconds")).expect("pipeline total");
        assert_eq!(timing.value.to_bits(), total.to_bits(), "{pipeline}");
    }
}

#[test]
fn checked_in_baseline_is_valid_and_pinned() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/BENCH_tiny.json");
    let text = std::fs::read_to_string(path).expect("baseline JSON is checked in");
    let baseline = BenchDoc::from_json(&text).expect("baseline parses");
    assert_eq!(baseline.kind, "suite");
    assert_eq!(baseline.config.get("scale").and_then(Json::as_str), Some("tiny"));
    assert_eq!(baseline.config.get("seed").and_then(Json::as_u64), Some(2020));
    // Must agree with the generator pins in
    // crates/datagen/tests/determinism.rs — same seed, same scale.
    assert_eq!(baseline.counters.get("db_tuples").and_then(Json::as_u64), Some(200));
    assert_eq!(baseline.counters.get("db_num_nulls").and_then(Json::as_u64), Some(47));
    assert_eq!(baseline.pinned.get("db_digest").and_then(Json::as_str), Some("0x75dc0786674255e7"));
    let epsilons = baseline.config.get("epsilons").and_then(Json::as_arr).expect("ε ladder");
    assert!(epsilons.len() >= 2, "CI gate needs ≥ 2 ε values");
    let families = baseline.config.get("families").and_then(Json::as_arr).expect("families");
    assert!(families.len() >= 2, "CI gate needs ≥ 2 families");
    let timings: Vec<&str> = baseline.timings.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        timings,
        ["seq_seconds", "batch_seconds", "rewrite_seconds", "serving_seconds"],
        "baseline must gate every pipeline total and the serving pass"
    );
}
