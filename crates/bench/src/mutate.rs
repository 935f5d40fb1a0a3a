//! Mutation load against the `qarith-serve` write path — the engine
//! behind `serve_bench --mutate` and the CI `mutation-smoke` step.
//!
//! [`run_mutate_bench`] reuses the [`crate::serve`] report shape
//! (document kind `"mutate"`) and measures the *live database* cycle:
//! a deterministic stream of write batches
//! ([`qarith_datagen::mutations::sales_mutations`]) interleaved with
//! full replays of the query-template population against the evolving
//! epochs. Per repetition:
//!
//! 1. a pristine service is rebuilt from the generated database, its
//!    plan cache warmed by one untimed pass (so the timed phase
//!    measures mutation serving, not first-compilation);
//! 2. for each batch: `QueryService::apply` is timed (epoch build +
//!    publication + plan invalidation), then every template is
//!    re-queried and timed — the post-write queries pay exactly the
//!    plan rebuilds the write made necessary, plus a ν measurement for
//!    each group key no earlier grounding produced (ν entries outlive
//!    writes), which is the quantity this bench exists to watch;
//! 3. every response is checked to carry the epoch and database digest
//!    the preceding write acked — a torn or stale snapshot is a
//!    correctness failure, not a measurement.
//!
//! The certainty digest is pinned on an epoch-0 reference pass over
//! the template population *before* any mutation, so the CI gate
//! ([`crate::serve::check_serve_baseline`]) keeps its bit-exactness
//! property: the mutation stream is deterministic, the epoch-0
//! answers are deterministic, and p95 (pooled write + query
//! latencies) is gated with the usual tolerance.
//!
//! The driver is single-threaded by design: concurrency is the epoch
//! torture test's job (`crates/serve/tests/epoch_torture.rs`); this
//! bench wants attributable latencies for the write path itself.

use std::sync::Arc;

use qarith_core::NuCacheConfig;
use qarith_datagen::mutations::{sales_mutations, MutationShape};
use qarith_datagen::{database_digest, QueryFamily};
use qarith_serve::{QueryService, ServeConfig};
use qarith_types::{Database, WriteBatch};

use crate::serve::{
    pairs, response_bits, serving_options, stage_latencies, LatencySummary, ServeBenchConfig,
    ServeBenchReport,
};
use crate::suite::SCHEMA_VERSION;

/// The mutation stream replayed each repetition: 8 batches of 4 ops.
/// Small enough for a CI smoke step at tiny scale, large enough that
/// every op kind (insert with fresh nulls, delete, update) appears.
pub const MUTATE_SHAPE: MutationShape = MutationShape { batches: 8, ops_per_batch: 4 };

/// Runs the configured mutation load. Panics if any post-write
/// response names an epoch or digest other than the one the write
/// acked — that is a snapshot-consistency failure, not a measurement.
///
/// `clients`, `mode`, and `rate` from the config are ignored (the
/// driver is single-threaded closed-loop); the report pins them to
/// `1` / `"closed"` / `0` so fresh-vs-baseline config comparison
/// stays meaningful regardless of how the binary was invoked.
pub fn run_mutate_bench(config: &ServeBenchConfig) -> ServeBenchReport {
    let db = qarith_datagen::sales::sales_database(&config.scale.params(), config.seed);
    let db_stats = db.stats();
    let db_digest = format!("{:#018x}", database_digest(&db));
    let stream = sales_mutations(&db, config.seed, MUTATE_SHAPE);

    let sql: Vec<String> =
        config.families.iter().flat_map(QueryFamily::queries).map(|q| q.sql).collect();
    assert!(!sql.is_empty(), "no query families configured");

    let service_for = |db: Database| {
        Arc::new(QueryService::new(
            db,
            ServeConfig {
                options: serving_options(config.epsilon, config.seed),
                cache: NuCacheConfig {
                    shards: config.cache_shards,
                    budget_bytes: config.cache_budget_bytes,
                },
                max_in_flight: config.max_in_flight,
                ..ServeConfig::default()
            },
        ))
    };

    // Epoch-0 reference pass on a throwaway service: pins the certainty
    // digest the gate compares bit for bit. Mutations never touch it.
    let reference = service_for(db.clone());
    let mut digest = qarith_numeric::Fnv1a64::new();
    for q in &sql {
        let response = reference.query(q).expect("workload SQL serves");
        digest.update(response.fingerprint.as_bytes());
        for (tuple, value, samples, dimension) in response_bits(&response) {
            digest.update(tuple.as_bytes());
            for n in [value, samples, dimension] {
                digest.update(&n.to_le_bytes());
            }
        }
    }
    drop(reference);

    // Timed repetitions over pristine rebuilds; keep the min-p95 rep.
    let requests_per_rep = MUTATE_SHAPE.batches * (1 + sql.len());
    let mut best: Option<(LatencySummary, f64, Arc<QueryService>)> = None;
    for _ in 0..config.reps.max(1) {
        let service = service_for(db.clone());
        let (mut latencies, seconds) = timed_rep(&service, &sql, &stream);
        let summary = LatencySummary::of(&mut latencies);
        if best.as_ref().map_or(true, |(b, _, _)| summary.p95 < b.p95) {
            best = Some((summary, seconds, service));
        }
    }
    let (latency, seconds, service) = best.expect("reps ≥ 1");

    let templates: std::collections::HashSet<String> = sql
        .iter()
        .map(|q| qarith_sql::sql_fingerprint(q).expect("workload SQL fingerprints"))
        .collect();

    ServeBenchReport {
        schema_version: SCHEMA_VERSION,
        kind: "mutate".to_string(),
        scale: config.scale.name().to_string(),
        seed: config.seed,
        epsilon: config.epsilon,
        clients: 1,
        passes: MUTATE_SHAPE.batches as u64,
        mode: "closed".to_string(),
        rate: 0.0,
        reps: config.reps.max(1) as u64,
        db_tuples: db_stats.tuples as u64,
        db_num_nulls: db_stats.num_nulls as u64,
        db_digest,
        templates: templates.len() as u64,
        requests: requests_per_rep as u64,
        seconds,
        qps: requests_per_rep as f64 / seconds.max(1e-9),
        latency,
        service: pairs(&service.stats().as_pairs()),
        admission: pairs(&service.admission_stats().as_pairs()),
        cache: pairs(&service.cache_stats().as_pairs()),
        net: Vec::new(),
        stages: stage_latencies(&service),
        certainty_digest: format!("{:#018x}", digest.finish()),
    }
}

/// One timed repetition on a pristine service: warm the plan cache,
/// then interleave the whole mutation stream with template replays.
/// Returns pooled per-operation latencies (writes and queries) and the
/// repetition's wall-clock seconds.
fn timed_rep(
    service: &Arc<QueryService>,
    sql: &[String],
    stream: &[WriteBatch],
) -> (Vec<f64>, f64) {
    use std::time::Instant;

    // Untimed warmup: plans compiled, epoch-0 groups cached.
    for q in sql {
        service.query(q).expect("warmup query serves");
    }

    let mut latencies = Vec::with_capacity(stream.len() * (1 + sql.len()));
    let start = Instant::now();
    for batch in stream {
        let issued = Instant::now();
        let outcome = service.apply(batch).expect("mutation batch commits");
        latencies.push(issued.elapsed().as_secs_f64());
        assert_eq!(outcome.noops, 0, "the generated stream is constructed to apply every op");
        for q in sql {
            let issued = Instant::now();
            let response = service.query(q).expect("query serves across epochs");
            latencies.push(issued.elapsed().as_secs_f64());
            assert_eq!(
                (response.epoch, response.db_digest),
                (outcome.epoch, outcome.db_digest),
                "a post-write response must execute against the acked snapshot"
            );
        }
    }
    (latencies, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qarith_datagen::WorkloadScale;

    fn tiny_config() -> ServeBenchConfig {
        ServeBenchConfig { reps: 1, ..ServeBenchConfig::default_for(WorkloadScale::Tiny) }
    }

    #[test]
    fn mutate_report_round_trips_and_counts_add_up() {
        let report = run_mutate_bench(&tiny_config());
        assert_eq!(report.kind, "mutate");
        assert_eq!(report.requests, (MUTATE_SHAPE.batches * (1 + 10)) as u64);
        let counter = |block: &[(String, u64)], name: &str| {
            block.iter().find(|(k, _)| k == name).map_or(0, |(_, v)| *v)
        };
        assert_eq!(counter(&report.service, "writes"), MUTATE_SHAPE.batches as u64);
        assert_eq!(counter(&report.service, "write_ops"), MUTATE_SHAPE.total_ops() as u64);
        assert_eq!(counter(&report.service, "epoch"), MUTATE_SHAPE.batches as u64);
        assert!(counter(&report.service, "plan_invalidations") > 0, "writes must drop plans");
        // The write stages fired and landed in the report.
        for stage in ["write_apply", "invalidate"] {
            let row = report.stages.iter().find(|s| s.stage == stage).expect("stage present");
            assert_eq!(row.count, MUTATE_SHAPE.batches as u64);
        }
        let back = ServeBenchReport::from_json(&report.to_json()).expect("parse own output");
        assert_eq!(back, report);
    }

    #[test]
    fn certainty_digest_is_reproducible_and_epoch0_pinned() {
        let a = run_mutate_bench(&tiny_config());
        let b = run_mutate_bench(&tiny_config());
        assert_eq!(a.certainty_digest, b.certainty_digest);
        assert_eq!(a.db_digest, b.db_digest);
    }
}
