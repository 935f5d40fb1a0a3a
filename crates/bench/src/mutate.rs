//! Mutation load against the `qarith-serve` write path — the engine
//! behind `serve_bench --mutate`.
//!
//! [`run_mutate_bench`] reuses the [`crate::serve`] report (document
//! kind `"mutate"`) and measures the *live database* cycle:
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
//!    correctness failure, not a measurement;
//! 4. after the repetition, untimed, every post-write response is
//!    compared bit for bit with a cold service's answer on that epoch's
//!    database (the stream replayed on its own): a plan kept stale
//!    across a write fails here, where it would otherwise read as extra
//!    plan hits.
//!
//! Two digests are pinned: the certainty digest of an epoch-0 reference
//! pass over the template population *before* any mutation, and the
//! post-write digest of the cold answers on every later epoch. The
//! mutation stream is deterministic, so both are, and p95 (pooled write
//! + query latencies) is gated with the usual tolerance.
//!
//! The driver is single-threaded by design: concurrency is the epoch
//! torture test's job (`crates/serve/tests/epoch_torture.rs`); this
//! bench wants attributable latencies for the write path itself. Each
//! repetition also rebuilds a pristine service, so the reported
//! service, admission and ν-cache counters — plan hits, misses and
//! invalidations, ν hits and misses — repeat exactly and are gated as
//! counters: a write that drops one plan too many fails the gate before
//! it shows in any timing.

use std::sync::Arc;

use qarith_datagen::mutations::{sales_mutations, MutationShape};
use qarith_datagen::{database_digest, QueryFamily};
use qarith_numeric::Fnv1a64;
use qarith_serve::{QueryResponse, QueryService};
use qarith_types::{Database, WriteBatch};

use crate::serve::{
    absorb, response_bits, serving_config, stage_latencies, Bits, LatencySummary, ServeBenchConfig,
    ServeBenchReport,
};

/// The mutation stream replayed each repetition: 8 batches of 4 ops.
/// Small enough for a CI smoke step at tiny scale, large enough that
/// every op kind (insert with fresh nulls, delete, update) appears.
pub const MUTATE_SHAPE: MutationShape = MutationShape { batches: 8, ops_per_batch: 4 };

/// Runs the configured mutation load. Panics if any post-write
/// response names an epoch or digest other than the one the write
/// acked, or differs from a cold service's answer on that epoch — that
/// is a consistency failure, not a measurement.
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

    let service_for = |db: Database| Arc::new(QueryService::new(db, serving_config(config)));

    // Epoch-0 reference pass on a throwaway service: pins the certainty
    // digest the gate compares bit for bit. Mutations never touch it.
    let reference = service_for(db.clone());
    let mut digest = Fnv1a64::new();
    for q in &sql {
        absorb(&mut digest, &reference.query(q).expect("workload SQL serves"));
    }
    drop(reference);

    // Cold answers on every post-write epoch: the stream replayed on a
    // copy of the database, one fresh service per epoch. Every timed
    // post-write response must equal them, and their digest is pinned.
    let mut post_write = Fnv1a64::new();
    let mut epoch_db = db.clone();
    let cold: Vec<(u64, Vec<Bits>)> = stream
        .iter()
        .map(|batch| {
            epoch_db.apply_batch(batch).expect("mutation batch commits");
            let service = service_for(epoch_db.clone());
            let answers = sql
                .iter()
                .map(|q| absorb(&mut post_write, &service.query(q).expect("workload SQL serves")))
                .collect();
            (database_digest(&epoch_db), answers)
        })
        .collect();

    // Timed repetitions over pristine rebuilds; keep the min-p95 rep.
    let requests_per_rep = MUTATE_SHAPE.batches * (1 + sql.len());
    let mut best: Option<(LatencySummary, f64, Arc<QueryService>)> = None;
    for _ in 0..config.reps.max(1) {
        let service = service_for(db.clone());
        let (mut latencies, seconds, served) = timed_rep(&service, &sql, &stream);
        for ((digest, answers), responses) in cold.iter().zip(&served) {
            for (expected, response) in answers.iter().zip(responses) {
                assert_eq!(response.db_digest, *digest, "the epoch is the replayed database");
                assert_eq!(
                    &response_bits(response),
                    expected,
                    "a post-write response must equal a cold service's on its epoch"
                );
            }
        }
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
        service: service.stats().as_pairs().to_vec(),
        admission: service.admission_stats().as_pairs().to_vec(),
        cache: service.cache_stats().as_pairs().to_vec(),
        net: Vec::new(),
        stages: stage_latencies(&service),
        certainty_digest: format!("{:#018x}", digest.finish()),
        post_write_digest: Some(format!("{:#018x}", post_write.finish())),
    }
}

/// One timed repetition on a pristine service: warm the plan cache,
/// then interleave the whole mutation stream with template replays.
/// Returns pooled per-operation latencies (writes and queries), the
/// repetition's wall-clock seconds, and the responses after each write.
fn timed_rep(
    service: &Arc<QueryService>,
    sql: &[String],
    stream: &[WriteBatch],
) -> (Vec<f64>, f64, Vec<Vec<QueryResponse>>) {
    use std::time::Instant;

    // Untimed warmup: plans compiled, epoch-0 groups cached.
    for q in sql {
        service.query(q).expect("warmup query serves");
    }

    let mut latencies = Vec::with_capacity(stream.len() * (1 + sql.len()));
    let mut served = Vec::with_capacity(stream.len());
    let start = Instant::now();
    for batch in stream {
        let issued = Instant::now();
        let outcome = service.apply(batch).expect("mutation batch commits");
        latencies.push(issued.elapsed().as_secs_f64());
        assert_eq!(outcome.noops, 0, "the generated stream is constructed to apply every op");
        let mut responses = Vec::with_capacity(sql.len());
        for q in sql {
            let issued = Instant::now();
            let response = service.query(q).expect("query serves across epochs");
            latencies.push(issued.elapsed().as_secs_f64());
            assert_eq!(
                (response.epoch, response.db_digest),
                (outcome.epoch, outcome.db_digest),
                "a post-write response must execute against the acked snapshot"
            );
            responses.push(response);
        }
        served.push(responses);
    }
    (latencies, start.elapsed().as_secs_f64(), served)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::BenchDoc;
    use qarith_datagen::WorkloadScale;

    fn tiny_config() -> ServeBenchConfig {
        ServeBenchConfig { reps: 1, ..ServeBenchConfig::default_for(WorkloadScale::Tiny) }
    }

    #[test]
    fn mutate_report_round_trips_and_counts_add_up() {
        let report = run_mutate_bench(&tiny_config());
        assert_eq!(report.kind, "mutate");
        assert_eq!(report.requests, (MUTATE_SHAPE.batches * (1 + 10)) as u64);
        let counter = |block: &[(&str, u64)], name: &str| {
            block.iter().find(|(k, _)| *k == name).map_or(0, |(_, v)| *v)
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
        let doc = report.doc();
        assert_eq!(BenchDoc::from_json(&doc.to_json()).expect("parse own output"), doc);
    }

    /// Two runs agree on every gated value but the timing: the digests
    /// and every service, admission and ν-cache counter.
    #[test]
    fn digests_and_counters_repeat_exactly() {
        let a = run_mutate_bench(&tiny_config()).doc();
        let b = run_mutate_bench(&tiny_config()).doc();
        assert_eq!((&a.config, &a.pinned, &a.counters), (&b.config, &b.pinned, &b.counters));
    }
}
