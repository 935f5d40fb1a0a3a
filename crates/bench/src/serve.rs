//! Load generation against the `qarith-serve` query service — the
//! engine behind the `serve_bench` binary.
//!
//! One [`ServeBenchConfig`] names a database scale, a query-family
//! population, an ε, and a client configuration. [`run_serve_bench`]:
//!
//! 1. builds the database and a [`QueryService`] over it (forced
//!    AFPRAS at the paper's `m = ⌈ε⁻²⌉` prescription, per-request
//!    fan-out 1 — concurrency comes from the clients, as in a server
//!    handling parallel sessions);
//! 2. runs a **sequential reference pass** (one thread, each template
//!    once) and pins every certainty bit into a digest — this also
//!    warms the plan cache, so the timed phase measures serving, not
//!    first-compilation;
//! 3. replays the workload from M client threads, **closed-loop**
//!    (each client issues its next request the moment the previous one
//!    returns) or **open-loop** (requests fire on a fixed-rate
//!    schedule; latency is measured from the *scheduled* arrival, so
//!    queueing delay under overload is visible — no coordinated
//!    omission). Every response is compared bit-for-bit against the
//!    reference as it arrives.
//! 4. repeats the timed phase [`ServeBenchConfig::reps`] times and
//!    reports the repetition with the lowest p95 (scheduler noise only
//!    ever adds latency — the same min-of-reps estimator the workload
//!    suite uses for wall times).
//!
//! [`ServeBenchReport::doc`] turns the result into the `serve` kind of
//! the one bench document ([`crate::doc`]): the certainty digest is
//! pinned, the service/admission/ν-cache counters are exact, and p95
//! latency is the gated timing.
//!
//! [`crate::wire`] and [`crate::mutate`] reuse this module's report
//! for the `wire` documents of `serve_bench --wire`, which drive the
//! same load through real loopback sockets and the `qarith-net` framed
//! protocol and add a `net` counter block, and for the `mutate`
//! documents of `serve_bench --mutate`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use qarith_core::NuCacheConfig;
use qarith_datagen::{database_digest, QueryFamily, WorkloadScale};
use qarith_numeric::Fnv1a64;
use qarith_serve::{QueryResponse, QueryService, ServeConfig};

use crate::doc::{counters, BenchDoc, Timing};
use crate::json::Json;

/// Relative slack written for the p95 latency. The gate reads the bound
/// from the baseline, so this and [`P95_FLOOR_SECONDS`] seed newly
/// recorded baselines.
pub const P95_TOLERANCE: f64 = 0.15;

/// Absolute slack of the gated p95 latency, in seconds: microsecond
/// baselines would otherwise turn scheduler jitter into failures.
pub const P95_FLOOR_SECONDS: f64 = 0.001;

/// How clients generate load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadMode {
    /// Each client issues its next request as soon as the previous one
    /// completes (throughput-seeking; measures service latency).
    Closed,
    /// Requests fire on a fixed-rate global schedule regardless of
    /// completions (arrival-driven; measures latency *including*
    /// schedule slippage under overload).
    Open,
}

impl LoadMode {
    /// Stable lowercase name (CLI argument and JSON field value).
    pub fn name(&self) -> &'static str {
        match self {
            LoadMode::Closed => "closed",
            LoadMode::Open => "open",
        }
    }

    /// Parses a CLI/JSON name produced by [`LoadMode::name`].
    pub fn parse(s: &str) -> Option<LoadMode> {
        match s {
            "closed" => Some(LoadMode::Closed),
            "open" => Some(LoadMode::Open),
            _ => None,
        }
    }
}

/// Configuration of one serving-load run.
#[derive(Clone, Debug)]
pub struct ServeBenchConfig {
    /// Database scale.
    pub scale: WorkloadScale,
    /// Generation seed (sampling derives from it as in the suite).
    pub seed: u64,
    /// Query families whose queries form the replayed template
    /// population.
    pub families: Vec<QueryFamily>,
    /// The served ε.
    pub epsilon: f64,
    /// Concurrent client threads.
    pub clients: usize,
    /// Passes over the whole template population per client.
    pub passes: usize,
    /// Load-generation mode.
    pub mode: LoadMode,
    /// Target arrival rate in requests/second ([`LoadMode::Open`]
    /// only).
    pub rate: f64,
    /// Timed repetitions; the reported latencies come from the
    /// repetition with the lowest p95.
    pub reps: usize,
    /// Sharded ν-cache memory budget (bytes).
    pub cache_budget_bytes: usize,
    /// Sharded ν-cache shard count.
    pub cache_shards: usize,
    /// Admission-control cap on concurrently executing queries.
    pub max_in_flight: usize,
}

impl ServeBenchConfig {
    /// The default configuration at a scale: all families, ε = 0.02,
    /// 4 closed-loop clients × 3 passes, 3 reps, the default cache and
    /// a 64-wide gate.
    pub fn default_for(scale: WorkloadScale) -> ServeBenchConfig {
        ServeBenchConfig {
            scale,
            seed: 2020,
            families: QueryFamily::all().to_vec(),
            epsilon: 0.02,
            clients: 4,
            passes: 3,
            mode: LoadMode::Closed,
            rate: 0.0,
            reps: 3,
            cache_budget_bytes: 64 << 20,
            cache_shards: 16,
            max_in_flight: 64,
        }
    }
}

/// Latency percentiles of one timed repetition, in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Median.
    pub p50: f64,
    /// 95th percentile (the CI-gated quantity).
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Worst observed request.
    pub max: f64,
}

impl LatencySummary {
    /// Percentiles of a latency sample (nearest-rank). Panics on an
    /// empty sample — a run with zero requests is a configuration bug.
    pub fn of(latencies: &mut [f64]) -> LatencySummary {
        assert!(!latencies.is_empty(), "no latencies recorded");
        latencies.sort_by(f64::total_cmp);
        let pick = |q: f64| {
            let n = latencies.len();
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            latencies[rank - 1]
        };
        LatencySummary {
            p50: pick(0.50),
            p95: pick(0.95),
            p99: pick(0.99),
            max: *latencies.last().expect("nonempty"),
        }
    }
}

/// A full serving-load run, as `serve_bench` prints it;
/// [`ServeBenchReport::doc`] is its gated document.
#[derive(Clone, Debug)]
pub struct ServeBenchReport {
    /// Document kind: `"serve"` (in-process), `"wire"` (through the
    /// `qarith-net` framed protocol over loopback sockets), or
    /// `"mutate"` (write batches interleaved with template replays —
    /// [`crate::mutate::run_mutate_bench`]).
    pub kind: String,
    /// Scale name.
    pub scale: String,
    /// Seed.
    pub seed: u64,
    /// The served ε.
    pub epsilon: f64,
    /// Concurrent client threads.
    pub clients: u64,
    /// Passes per client.
    pub passes: u64,
    /// Load mode name.
    pub mode: String,
    /// Open-loop arrival rate (0 for closed-loop).
    pub rate: f64,
    /// Timed repetitions behind the min-p95 selection.
    pub reps: u64,
    /// Generated tuples.
    pub db_tuples: u64,
    /// Generated numerical nulls.
    pub db_num_nulls: u64,
    /// [`database_digest`] of the generated database, hex.
    pub db_digest: String,
    /// Distinct query templates in the population.
    pub templates: u64,
    /// Requests in the reported repetition.
    pub requests: u64,
    /// Wall-clock seconds of the reported repetition.
    pub seconds: f64,
    /// Requests per second of the reported repetition.
    pub qps: f64,
    /// Latency percentiles of the reported repetition.
    pub latency: LatencySummary,
    /// Service counters after the run
    /// ([`qarith_serve::ServiceStats::as_pairs`] names).
    pub service: Vec<(&'static str, u64)>,
    /// Admission counters
    /// ([`qarith_serve::AdmissionStats::as_pairs`] names).
    pub admission: Vec<(&'static str, u64)>,
    /// ν-cache counters
    /// ([`qarith_core::CacheStats::as_pairs`] names).
    pub cache: Vec<(&'static str, u64)>,
    /// Wire-listener counters ([`qarith_net::NetStats::as_pairs`]
    /// names). Empty for in-process (`"serve"`) runs.
    pub net: Vec<(&'static str, u64)>,
    /// Per-stage latency summaries from the service tracer, covering
    /// the run's full lifetime (reference pass + every repetition).
    /// Stages with zero observations are omitted.
    pub stages: Vec<StageLatency>,
    /// FNV-1a digest over every reference-pass certainty bit, hex —
    /// the quantity the CI gate pins.
    pub certainty_digest: String,
    /// `mutate` only: FNV-1a digest over the cold answers on every
    /// post-write epoch, which each post-write response equals, hex.
    pub post_write_digest: Option<String>,
}

/// One stage row of the `stages` info block: observation count
/// and p50/p95/p99 in seconds. The quantiles are bucket upper bounds
/// from the tracer's ~2× log-bucketed histograms, so they over-report
/// by at most one octave.
#[derive(Clone, Debug)]
pub struct StageLatency {
    /// Stage wire name (`qarith_trace::Stage::name`).
    pub stage: String,
    /// Observation count.
    pub count: u64,
    /// Median estimate, seconds.
    pub p50: f64,
    /// 95th-percentile estimate, seconds.
    pub p95: f64,
    /// 99th-percentile estimate, seconds.
    pub p99: f64,
}

/// The tracer's per-stage summaries as report rows, dropping stages
/// that never fired (e.g. the wire stages of an in-process run).
pub(crate) fn stage_latencies(service: &QueryService) -> Vec<StageLatency> {
    service
        .latency_stats()
        .summaries()
        .into_iter()
        .filter(|s| s.count > 0)
        .map(|s| StageLatency {
            stage: s.stage.name().to_string(),
            count: s.count,
            p50: s.p50_nanos as f64 / 1e9,
            p95: s.p95_nanos as f64 / 1e9,
            p99: s.p99_nanos as f64 / 1e9,
        })
        .collect()
}

/// The service every serving run measures: the paper's serving regime
/// ([`ServeConfig::paper_afpras`]) with the run's cache and admission
/// settings.
pub(crate) fn serving_config(config: &ServeBenchConfig) -> ServeConfig {
    ServeConfig {
        cache: NuCacheConfig {
            shards: config.cache_shards,
            budget_bytes: config.cache_budget_bytes,
        },
        max_in_flight: config.max_in_flight,
        ..ServeConfig::paper_afpras(config.epsilon, config.seed)
    }
}

/// One response's μ-relevant bits: (tuple, value, samples, dimension)
/// per answer.
pub(crate) type Bits = Vec<(String, u64, u64, u64)>;

/// μ-relevant response bits — what concurrent responses are compared
/// on and the digest is built from.
pub(crate) fn response_bits(r: &QueryResponse) -> Bits {
    r.answers
        .iter()
        .map(|a| {
            (
                format!("{}", a.tuple),
                a.certainty.value.to_bits(),
                a.certainty.samples as u64,
                a.certainty.dimension as u64,
            )
        })
        .collect()
}

/// Folds one response into a certainty digest — its fingerprint, then
/// each answer's tuple, value, samples and dimension — and returns its
/// bits.
pub(crate) fn absorb(digest: &mut Fnv1a64, response: &QueryResponse) -> Bits {
    let bits = response_bits(response);
    digest.update(response.fingerprint.as_bytes());
    for (tuple, value, samples, dimension) in &bits {
        digest.update(tuple.as_bytes());
        for n in [value, samples, dimension] {
            digest.update(&n.to_le_bytes());
        }
    }
    bits
}

/// Runs the configured load test. Panics if any concurrent response
/// deviates from the sequential reference by a single bit — that is a
/// correctness failure, not a measurement.
pub fn run_serve_bench(config: &ServeBenchConfig) -> ServeBenchReport {
    let db = qarith_datagen::sales::sales_database(&config.scale.params(), config.seed);
    let db_stats = db.stats();
    let db_digest = format!("{:#018x}", database_digest(&db));

    let sql: Vec<String> =
        config.families.iter().flat_map(QueryFamily::queries).map(|q| q.sql).collect();
    assert!(!sql.is_empty(), "no query families configured");

    // The workload population is 9 templates; the default plan cap
    // never evicts here, which keeps the timed phase pure plan-hit
    // serving.
    let service = Arc::new(QueryService::new(db, serving_config(config)));

    // Sequential reference pass: pins the expected bits, warms the plan
    // cache, and feeds the ν-cache exactly once per group.
    let mut digest = Fnv1a64::new();
    let reference: Vec<Bits> = sql
        .iter()
        .map(|q| absorb(&mut digest, &service.query(q).expect("workload SQL serves")))
        .collect();

    // Timed repetitions; keep the one with the lowest p95.
    let requests_per_rep = config.clients.max(1) * config.passes.max(1) * sql.len();
    let mut best: Option<(LatencySummary, f64)> = None;
    for _ in 0..config.reps.max(1) {
        let (mut latencies, seconds) = timed_rep(config, &service, &sql, &reference);
        let summary = LatencySummary::of(&mut latencies);
        if best.map_or(true, |(b, _)| summary.p95 < b.p95) {
            best = Some((summary, seconds));
        }
    }
    let (latency, seconds) = best.expect("reps ≥ 1");

    let templates: std::collections::HashSet<String> = sql
        .iter()
        .map(|q| qarith_sql::sql_fingerprint(q).expect("workload SQL fingerprints"))
        .collect();

    ServeBenchReport {
        kind: "serve".to_string(),
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
        net: Vec::new(),
        stages: stage_latencies(&service),
        certainty_digest: format!("{:#018x}", digest.finish()),
        post_write_digest: None,
    }
}

/// One timed repetition: all clients through the shared service,
/// returning per-request latencies and the wall-clock seconds.
fn timed_rep(
    config: &ServeBenchConfig,
    service: &Arc<QueryService>,
    sql: &[String],
    reference: &[Bits],
) -> (Vec<f64>, f64) {
    let clients = config.clients.max(1);
    let passes = config.passes.max(1);
    let total = clients * passes * sql.len();
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
                let (service, barrier, next) = (service.clone(), &barrier, &next);
                scope.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    let mut latencies = Vec::with_capacity(total / clients + 1);
                    match config.mode {
                        LoadMode::Closed => {
                            // Closed loop: clients own pass slices and
                            // issue back to back.
                            loop {
                                let k = next.fetch_add(1, Ordering::Relaxed);
                                if k >= total {
                                    break;
                                }
                                let q = &sql[k % sql.len()];
                                let issued = Instant::now();
                                let response = service.query(q).expect("served");
                                latencies.push(issued.elapsed().as_secs_f64());
                                assert_eq!(
                                    response_bits(&response),
                                    reference[k % sql.len()],
                                    "concurrent response drifted from the sequential reference"
                                );
                            }
                        }
                        LoadMode::Open => {
                            // Open loop: request k is *scheduled* at
                            // start + k·interval; latency counts from
                            // the schedule, so falling behind shows up
                            // as latency (no coordinated omission).
                            loop {
                                let k = next.fetch_add(1, Ordering::Relaxed);
                                if k >= total {
                                    break;
                                }
                                let scheduled = start + interval * k as u32;
                                if let Some(wait) = scheduled.checked_duration_since(Instant::now())
                                {
                                    std::thread::sleep(wait);
                                }
                                let q = &sql[k % sql.len()];
                                let response = service.query(q).expect("served");
                                latencies.push(scheduled.elapsed().as_secs_f64());
                                assert_eq!(
                                    response_bits(&response),
                                    reference[k % sql.len()],
                                    "concurrent response drifted from the sequential reference"
                                );
                            }
                        }
                    }
                    // The client's own wall clock, from its barrier
                    // release to its last completion: the repetition's
                    // duration is the slowest client's (the main thread
                    // may be scheduled late after the barrier on busy
                    // machines, so it cannot time this reliably).
                    (latencies, start.elapsed().as_secs_f64())
                })
            })
            .collect();
        barrier.wait();
        for w in workers {
            let (latencies, elapsed) = w.join().expect("client thread");
            all_latencies.extend(latencies);
            seconds = seconds.max(elapsed);
        }
    });
    (all_latencies, seconds)
}

impl ServeBenchReport {
    /// The run as a document of its kind (`serve`, `wire` or `mutate`):
    ///
    /// * `config` — scale, seed, ε, clients, passes, load mode, rate,
    ///   reps;
    /// * `pinned` — the database and certainty digests, and for
    ///   `mutate` the post-write digest;
    /// * `counters` — database size, templates, requests per rep, and
    ///   the service, admission, ν-cache (and, over the wire, `net`)
    ///   blocks. Every gated run warms all plans and ν entries before
    ///   its timed phase (and `mutate` is single-threaded), so these
    ///   repeat exactly under any client count;
    /// * `timings` — `p95` latency, lower is better within
    ///   [`P95_TOLERANCE`] or [`P95_FLOOR_SECONDS`], whichever is wider;
    /// * `info` — wall seconds, q/s, p50/p99/max, and the stage rows.
    pub fn doc(&self) -> BenchDoc {
        let mut work = vec![
            ("db_tuples".to_string(), Json::num_u64(self.db_tuples)),
            ("db_num_nulls".to_string(), Json::num_u64(self.db_num_nulls)),
            ("templates".to_string(), Json::num_u64(self.templates)),
            ("requests".to_string(), Json::num_u64(self.requests)),
            ("service".to_string(), counters(&self.service)),
            ("admission".to_string(), counters(&self.admission)),
            ("cache".to_string(), counters(&self.cache)),
        ];
        if self.kind == "wire" {
            work.push(("net".to_string(), counters(&self.net)));
        }
        let mut pinned = vec![
            ("db_digest".to_string(), Json::str(&self.db_digest)),
            ("certainty_digest".to_string(), Json::str(&self.certainty_digest)),
        ];
        if let Some(digest) = &self.post_write_digest {
            pinned.push(("post_write_digest".to_string(), Json::str(digest)));
        }
        let stages = self.stages.iter().map(|s| {
            let row = Json::obj([
                ("count", Json::num_u64(s.count)),
                ("p50", Json::Num(s.p50)),
                ("p95", Json::Num(s.p95)),
                ("p99", Json::Num(s.p99)),
            ]);
            (s.stage.clone(), row)
        });
        BenchDoc {
            kind: self.kind.clone(),
            config: Json::obj([
                ("scale", Json::str(&self.scale)),
                ("seed", Json::num_u64(self.seed)),
                ("epsilon", Json::Num(self.epsilon)),
                ("clients", Json::num_u64(self.clients)),
                ("passes", Json::num_u64(self.passes)),
                ("mode", Json::str(&self.mode)),
                ("rate", Json::Num(self.rate)),
                ("reps", Json::num_u64(self.reps)),
            ]),
            pinned: Json::Obj(pinned),
            counters: Json::Obj(work),
            timings: vec![(
                "p95".to_string(),
                Timing::lower(self.latency.p95, P95_TOLERANCE, P95_FLOOR_SECONDS),
            )],
            info: Json::obj([
                ("seconds", Json::Num(self.seconds)),
                ("qps", Json::Num(self.qps)),
                ("p50", Json::Num(self.latency.p50)),
                ("p99", Json::Num(self.latency.p99)),
                ("max", Json::Num(self.latency.max)),
                ("stages", Json::obj(stages)),
            ]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut sample: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let summary = LatencySummary::of(&mut sample);
        assert_eq!(summary.p50, 50.0);
        assert_eq!(summary.p95, 95.0);
        assert_eq!(summary.p99, 99.0);
        assert_eq!(summary.max, 100.0);
    }

    #[test]
    fn load_mode_names_round_trip() {
        for m in [LoadMode::Closed, LoadMode::Open] {
            assert_eq!(LoadMode::parse(m.name()), Some(m));
        }
        assert_eq!(LoadMode::parse("bursty"), None);
    }
}
