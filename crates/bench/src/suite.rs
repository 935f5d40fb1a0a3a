//! The multi-scale workload suite behind the `bench_suite` binary.
//!
//! One [`SuiteConfig`] names a database scale, a seed, a set of query
//! families, and an ε ladder. [`run_suite`] drives every family's
//! queries through the three measurement pipelines —
//!
//! * `seq` — the paper's per-candidate AFPRAS loop
//!   ([`crate::Fig1Harness::run_epsilon`]);
//! * `batch` — the canonical-dedup engine with a ν-cache
//!   (bit-identical estimates to `seq` for a fixed seed);
//! * `rewrite` — the default `Auto` route: simplification,
//!   independence decomposition, exact factors and a sampled residual
//!   (ε-additive, not bit-identical) —
//!
//! recording wall time, fresh Monte-Carlo direction counts,
//! dedup/cache/factorization counters, and the full per-candidate
//! certainty vectors, then finishes with a warm-ν-cache multi-threaded
//! serving pass (repeated traffic over an already-hot cache — the
//! workload shape a long-running service sees, as opposed to the cold
//! batch latency the per-point table measures).
//!
//! [`SuiteReport::doc`] turns the result into the `suite` kind of the
//! one bench document ([`crate::doc`]): certainties are pinned bit for
//! bit, direction and batch/rewrite counters are exact, and the
//! per-pipeline wall-time totals and the serving pass are the gated
//! timings.
//!
//! Determinism contract: for a fixed config, every value in the report
//! except the `*_seconds` timings is reproducible bit for bit across
//! runs and hosts (see `crates/datagen/tests/determinism.rs` for the
//! data side).

use std::sync::Arc;
use std::time::Instant;

use qarith_core::{BatchStats, NuCache};
use qarith_datagen::{database_digest, QueryFamily, WorkloadScale, WorkloadSpec};

use crate::doc::{counters, BenchDoc, Timing};
use crate::json::Json;
use crate::{secs, BatchPoint, Fig1Harness};

/// The measurement pipelines, in the order every ε point runs them.
pub const PIPELINES: [&str; 3] = ["seq", "batch", "rewrite"];

/// Relative slack written for the suite's timings (per-pipeline totals
/// and the serving pass). The gate reads the bound from the baseline,
/// so this seeds newly recorded baselines. Min-of-reps timing keeps
/// runner noise below it.
pub const TIME_TOLERANCE: f64 = 0.15;

/// The default ε ladder: coarse → fine, spanning a 25× direction-count
/// range (`m = ⌈ε⁻²⌉`: 100, 400, 2500).
pub fn default_epsilons() -> Vec<f64> {
    vec![0.10, 0.05, 0.02]
}

/// Configuration of one suite run.
#[derive(Clone, Debug)]
pub struct SuiteConfig {
    /// Database scale.
    pub scale: WorkloadScale,
    /// Generation + sampling seed.
    pub seed: u64,
    /// Query families to run, in order.
    pub families: Vec<QueryFamily>,
    /// The ε ladder (each point runs all three pipelines).
    pub epsilons: Vec<f64>,
    /// Timed cold repetitions per point (fresh caches each rep); the
    /// recorded wall time is the **minimum** over them (the
    /// noise-robust estimator — scheduler interference only ever adds
    /// time). One additional untimed recording run per point feeds the
    /// shared caches and provides estimates/counters. Must be ≥ 1.
    pub reps: usize,
    /// Client threads of the serving pass (0 disables the pass).
    pub serving_threads: usize,
    /// Passes over the whole workload per serving client.
    pub serving_passes: usize,
}

impl SuiteConfig {
    /// The default configuration at a scale: all three families, the
    /// default ε ladder, 3 reps, a 4-client × 3-pass serving phase.
    pub fn default_for(scale: WorkloadScale) -> SuiteConfig {
        SuiteConfig {
            scale,
            seed: 2020,
            families: QueryFamily::all().to_vec(),
            epsilons: default_epsilons(),
            reps: 3,
            serving_threads: 4,
            serving_passes: 3,
        }
    }
}

/// One pipeline's measurement of one query at one ε.
#[derive(Clone, Debug)]
pub struct PointReport {
    /// `"seq"`, `"batch"`, or `"rewrite"`.
    pub pipeline: String,
    /// Error level.
    pub epsilon: f64,
    /// Wall-clock seconds of the measurement phase.
    pub seconds: f64,
    /// Monte-Carlo directions actually sampled (certain candidates and
    /// dedup/cache-served estimates contribute 0).
    pub directions: u64,
    /// Batch accounting ([`BatchStats::as_pairs`] names); `None` for
    /// the sequential pipeline, which has no batch machinery.
    pub batch: Option<Vec<(&'static str, u64)>>,
    /// Rewrite accounting ([`qarith_core::RewriteStats::as_pairs`]
    /// names); `None` unless the pipeline rewrites.
    pub rewrite: Option<Vec<(&'static str, u64)>>,
    /// Per-candidate certainties, in candidate order.
    pub certainties: Vec<f64>,
}

/// One query's measurements across the ε ladder and pipelines.
#[derive(Clone, Debug)]
pub struct QueryReport {
    /// Query display name.
    pub name: String,
    /// Candidates returned by the executor.
    pub candidates: u64,
    /// Thereof uncertain (needing measurement).
    pub uncertain: u64,
    /// Seconds spent generating candidates (once per query).
    pub candidate_seconds: f64,
    /// Measurements, grouped ε-major then pipeline (`seq`, `batch`,
    /// `rewrite`).
    pub points: Vec<PointReport>,
}

/// One family's queries.
#[derive(Clone, Debug)]
pub struct FamilyReport {
    /// Family name ([`QueryFamily::name`]).
    pub family: String,
    /// Query reports, in the family's fixed order.
    pub queries: Vec<QueryReport>,
}

/// The warm-cache multi-threaded serving pass.
#[derive(Clone, Debug)]
pub struct ServingReport {
    /// The ε served (the ladder's finest).
    pub epsilon: f64,
    /// Total query executions across clients and passes.
    pub queries: u64,
    /// Wall-clock seconds for the whole pass.
    pub seconds: f64,
    /// ν-cache hits, misses and entries after the pass
    /// ([`qarith_core::CacheStats`]).
    pub cache: Vec<(&'static str, u64)>,
}

/// A full suite run, as the `bench_suite` table prints it;
/// [`SuiteReport::doc`] is its gated document.
#[derive(Clone, Debug)]
pub struct SuiteReport {
    /// The configuration that ran.
    pub config: SuiteConfig,
    /// Generated tuples.
    pub db_tuples: u64,
    /// Generated numerical nulls.
    pub db_num_nulls: u64,
    /// [`database_digest`] of the generated database, hex.
    pub db_digest: String,
    /// Per-family reports.
    pub families: Vec<FamilyReport>,
    /// The serving pass (absent when disabled).
    pub serving: Option<ServingReport>,
}

fn fresh_directions(estimates: &[qarith_core::CertaintyEstimate]) -> u64 {
    estimates.iter().filter(|e| !e.cached).map(|e| e.samples as u64).sum()
}

fn batch_point_report(pipeline: &str, point: &BatchPoint, rewrites: bool) -> PointReport {
    let BatchStats { rewrite, .. } = point.stats;
    PointReport {
        pipeline: pipeline.to_string(),
        epsilon: point.epsilon,
        seconds: secs(point.time),
        directions: fresh_directions(&point.estimates),
        batch: Some(point.stats.as_pairs().to_vec()),
        rewrite: rewrites.then(|| rewrite.as_pairs().to_vec()),
        certainties: point.estimates.iter().map(|e| e.value).collect(),
    }
}

/// Runs the configured suite and collects the report.
///
/// Estimator invariants are asserted inline: batch estimates must be
/// bit-identical to sequential ones, rewritten estimates within 2ε of
/// them.
pub fn run_suite(config: &SuiteConfig) -> SuiteReport {
    let sample_seed = config.seed ^ 0xF1616;
    let mut families = Vec::with_capacity(config.families.len());
    // Generate the database once (the spec's scale and seed are shared
    // by every family) and give each family's harness a clone — cloning
    // is a fraction of regeneration, which matters at the paper scale.
    let db = qarith_datagen::sales::sales_database(&config.scale.params(), config.seed);
    let db_stats = db.stats();
    let db_digest = format!("{:#018x}", database_digest(&db));
    let mut harnesses: Vec<FamilyHarness> = Vec::with_capacity(config.families.len());
    for &family in &config.families {
        let spec = WorkloadSpec { scale: config.scale, family, seed: config.seed };
        let workload = qarith_datagen::Workload { spec, db: db.clone(), queries: family.queries() };
        let harness = Fig1Harness::from_workload(workload);
        harnesses.push((family, harness, Arc::default(), Arc::default()));
    }

    for (family, harness, batch_cache, rewrite_cache) in &harnesses {
        let mut queries = Vec::with_capacity(harness.queries.len());
        for (qi, q) in harness.queries.iter().enumerate() {
            let mut points = Vec::with_capacity(3 * config.epsilons.len());
            for &eps in &config.epsilons {
                // Cold timed repetitions: fresh per-rep caches, so every
                // rep measures the cold path; the recorded time is the
                // minimum (noise only ever adds). The batch/rewrite
                // recording runs afterwards feed the family-shared
                // caches (warm serving pass) and provide the recorded
                // counters — they may be partially cache-served, so
                // their times are never used. The sequential pipeline
                // has no cache to feed and is deterministic, so any
                // cold rep's estimates serve as its recording run.
                let mut seq_secs = f64::INFINITY;
                let mut batch_secs = f64::INFINITY;
                let mut rewrite_secs = f64::INFINITY;
                let mut seq_point = None;
                for _ in 0..config.reps.max(1) {
                    let cold_seq = harness.run_epsilon(qi, eps, sample_seed);
                    seq_secs = seq_secs.min(secs(cold_seq.time));
                    seq_point = Some(cold_seq);
                    let cold =
                        harness.run_epsilon_batch(qi, eps, sample_seed, Some(Arc::default()));
                    batch_secs = batch_secs.min(secs(cold.time));
                    let cold_rw =
                        harness.run_epsilon_rewritten(qi, eps, sample_seed, Some(Arc::default()));
                    rewrite_secs = rewrite_secs.min(secs(cold_rw.time));
                }
                let seq = seq_point.expect("reps ≥ 1");
                let batch =
                    harness.run_epsilon_batch(qi, eps, sample_seed, Some(batch_cache.clone()));
                for (s, b) in seq.estimates.iter().zip(&batch.estimates) {
                    assert_eq!(
                        s.value.to_bits(),
                        b.value.to_bits(),
                        "batch must be bit-identical to sequential ({}/{}, ε = {eps})",
                        family.name(),
                        q.name
                    );
                }
                let rewritten = harness.run_epsilon_rewritten(
                    qi,
                    eps,
                    sample_seed,
                    Some(rewrite_cache.clone()),
                );
                for (s, r) in seq.estimates.iter().zip(&rewritten.estimates) {
                    assert!(
                        (s.value - r.value).abs() <= 2.0 * eps + 1e-9,
                        "rewritten estimate outside 2ε of sequential ({}/{}, ε = {eps}: {} vs {})",
                        family.name(),
                        q.name,
                        r.value,
                        s.value
                    );
                }
                points.push(PointReport {
                    pipeline: PIPELINES[0].into(),
                    epsilon: eps,
                    seconds: seq_secs,
                    directions: fresh_directions(&seq.estimates),
                    batch: None,
                    rewrite: None,
                    certainties: seq.estimates.iter().map(|e| e.value).collect(),
                });
                let mut batch_report = batch_point_report(PIPELINES[1], &batch, false);
                batch_report.seconds = batch_secs;
                points.push(batch_report);
                let mut rewrite_report = batch_point_report(PIPELINES[2], &rewritten, true);
                rewrite_report.seconds = rewrite_secs;
                points.push(rewrite_report);
            }
            queries.push(QueryReport {
                name: q.name.clone(),
                candidates: q.candidates.len() as u64,
                uncertain: harness.uncertain_count(qi) as u64,
                candidate_seconds: secs(q.candidate_time),
                points,
            });
        }
        families.push(FamilyReport { family: family.name().to_string(), queries });
    }

    let serving = (config.serving_threads > 0).then(|| serving_pass(config, &harnesses));

    SuiteReport {
        config: config.clone(),
        db_tuples: db_stats.tuples as u64,
        db_num_nulls: db_stats.num_nulls as u64,
        db_digest,
        families,
        serving,
    }
}

type FamilyHarness = (QueryFamily, Fig1Harness, Arc<NuCache>, Arc<NuCache>);

/// The warm-ν-cache serving phase: every canonical group is already
/// cached from the per-point batch runs, so this measures repeated-
/// traffic throughput — concurrent clients replaying the workload at
/// the finest ε (concurrency comes from the clients, as in a server
/// handling parallel sessions).
fn serving_pass(config: &SuiteConfig, harnesses: &[FamilyHarness]) -> ServingReport {
    let eps = config.epsilons.iter().copied().fold(f64::INFINITY, f64::min);
    let sample_seed = config.seed ^ 0xF1616;
    let mut seconds = f64::INFINITY;
    // Like the per-point timings: repeat and keep the minimum (the cache
    // is warm from the measurement phase, so every rep serves hot).
    for _ in 0..config.reps.max(1) {
        let started = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..config.serving_threads {
                scope.spawn(|| {
                    for _ in 0..config.serving_passes {
                        for (_, harness, batch_cache, _) in harnesses {
                            for qi in 0..harness.queries.len() {
                                harness.run_epsilon_batch(
                                    qi,
                                    eps,
                                    sample_seed,
                                    Some(batch_cache.clone()),
                                );
                            }
                        }
                    }
                });
            }
        });
        seconds = seconds.min(secs(started.elapsed()));
    }
    let total_queries: usize = harnesses.iter().map(|(_, h, ..)| h.queries.len()).sum();
    let mut cache = [0u64; 3];
    for (_, _, batch_cache, _) in harnesses {
        let stats = batch_cache.stats();
        for (total, v) in cache.iter_mut().zip([stats.hits, stats.misses, stats.entries]) {
            *total += v;
        }
    }
    let names = ["hits", "misses", "entries"];
    ServingReport {
        epsilon: eps,
        queries: (config.serving_threads * config.serving_passes * total_queries) as u64,
        seconds,
        cache: names.into_iter().zip(cache).collect(),
    }
}

impl SuiteReport {
    /// The run as a `suite` document. Points are keyed `pipeline@ε`
    /// under `family/query`:
    ///
    /// * `config` — scale, seed, reps, ε ladder, families, serving
    ///   clients and passes;
    /// * `pinned` — the database digest and every point's certainties;
    /// * `counters` — database size, per query its candidate counts,
    ///   per point its fresh directions and batch/rewrite blocks, and
    ///   the serving pass's query count and ν-cache counters;
    /// * `timings` — each pipeline's total over all points
    ///   (`seq_seconds`, …) and the serving pass (`serving_seconds`),
    ///   lower is better within [`TIME_TOLERANCE`];
    /// * `info` — per-point and candidate-generation seconds, and the
    ///   serving pass's ε.
    pub fn doc(&self) -> BenchDoc {
        let c = &self.config;
        let (mut certainties, mut work, mut seconds) = (Vec::new(), Vec::new(), Vec::new());
        for f in &self.families {
            for q in &f.queries {
                let mut pinned = Vec::new();
                let mut counts =
                    vec![num("candidates", q.candidates), num("uncertain", q.uncertain)];
                let mut times =
                    vec![("candidate_generation".to_string(), Json::Num(q.candidate_seconds))];
                for p in &q.points {
                    let key = format!("{}@{}", p.pipeline, p.epsilon);
                    let bits = p.certainties.iter().map(|&v| Json::Num(v)).collect();
                    pinned.push((key.clone(), Json::Arr(bits)));
                    let mut point = vec![num("directions", p.directions)];
                    for (block, pairs) in [("batch", &p.batch), ("rewrite", &p.rewrite)] {
                        if let Some(pairs) = pairs {
                            point.push((block.to_string(), counters(pairs)));
                        }
                    }
                    counts.push((key.clone(), Json::Obj(point)));
                    times.push((key, Json::Num(p.seconds)));
                }
                let name = format!("{}/{}", f.family, q.name);
                certainties.push((name.clone(), Json::Obj(pinned)));
                work.push((name.clone(), Json::Obj(counts)));
                seconds.push((name, Json::Obj(times)));
            }
        }
        let total = |pipeline: &str| -> f64 {
            let points = self.families.iter().flat_map(|f| &f.queries).flat_map(|q| &q.points);
            points.filter(|p| p.pipeline == pipeline).map(|p| p.seconds).sum()
        };
        let mut timings: Vec<(String, Timing)> = PIPELINES
            .iter()
            .map(|p| (format!("{p}_seconds"), Timing::lower(total(p), TIME_TOLERANCE, 0.0)))
            .collect();
        let mut counted = vec![
            num("db_tuples", self.db_tuples),
            num("db_num_nulls", self.db_num_nulls),
            ("queries".to_string(), Json::Obj(work)),
        ];
        let mut info = vec![("seconds".to_string(), Json::Obj(seconds))];
        if let Some(s) = &self.serving {
            timings.push(("serving_seconds".into(), Timing::lower(s.seconds, TIME_TOLERANCE, 0.0)));
            let serving =
                Json::obj([("queries", Json::num_u64(s.queries)), ("cache", counters(&s.cache))]);
            counted.push(("serving".to_string(), serving));
            info.push(("serving".to_string(), Json::obj([("epsilon", Json::Num(s.epsilon))])));
        }
        let families = c.families.iter().map(|f| Json::str(f.name())).collect();
        BenchDoc {
            kind: "suite".into(),
            config: Json::obj([
                ("scale", Json::str(c.scale.name())),
                ("seed", Json::num_u64(c.seed)),
                ("reps", Json::num_u64(c.reps.max(1) as u64)),
                ("epsilons", Json::Arr(c.epsilons.iter().map(|&e| Json::Num(e)).collect())),
                ("families", Json::Arr(families)),
                ("serving_clients", Json::num_u64(c.serving_threads as u64)),
                ("serving_passes", Json::num_u64(c.serving_passes as u64)),
            ]),
            pinned: Json::obj([
                ("db_digest", Json::str(&self.db_digest)),
                ("certainties", Json::Obj(certainties)),
            ]),
            counters: Json::Obj(counted),
            timings,
            info: Json::Obj(info),
        }
    }
}

fn num(name: &str, n: u64) -> (String, Json) {
    (name.to_string(), Json::num_u64(n))
}
