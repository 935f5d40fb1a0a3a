//! Shared harness for the paper's evaluation (§9, Figure 1), the
//! ablation studies of the `ablations` bin, the multi-scale workload
//! suite ([`suite`], bin `bench_suite`), the serving load generator
//! ([`serve`], bin `serve_bench`), and the sampling-kernel microbench
//! ([`kernel`], bin `kernel_bench`). Each of those runs reports the one
//! bench document of [`doc`]; the `bench_gate` bin runs them all and
//! checks each against its baseline under `baselines/`.
//!
//! Layering: the top of the workspace — above `qarith-core`,
//! `qarith-serve`, and `qarith-datagen`; only the `qarith-analyze` dev
//! tool depends on it, for its JSON kernel.
//!
//! The paper's pipeline was: Postgres evaluates the SQL query naively and
//! emits candidate tuples plus compact constraint formulas; a
//! Python/NumPy program then runs the Theorem 8.1 Monte-Carlo phase per
//! candidate, for error levels ε ∈ {0.010, 0.015, …, 0.100}. Figure 1
//! plots the Monte-Carlo time against ε for three decision-support
//! queries.
//!
//! [`Fig1Harness`] reproduces that split: candidate generation (our CQ
//! executor) happens once per query; [`Fig1Harness::run_epsilon`] times
//! only the approximation phase, exactly like the paper's y-axis.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use qarith_core::afpras::{estimate_nu_compiled_many, AfprasOptions, SampleCount};
use qarith_core::{
    BatchStats, CertaintyEngine, CertaintyEstimate, MeasureOptions, MethodChoice, NuCache,
    RewriteOptions,
};
use qarith_datagen::sales::SalesScale;
use qarith_datagen::{QueryFamily, WorkloadSpec};
use qarith_engine::cq::{self, CandidateAnswer};
use qarith_types::Database;

pub mod doc;
pub mod json;
pub mod kernel;
pub mod mutate;
pub mod promcheck;
pub mod serve;
pub mod suite;
pub mod wire;

pub use qarith_constraints::asymptotic::CompiledFormula;

/// The ε grid of Figure 1: 0.010 to 0.100 in steps of 0.005 (19 points),
/// descending like the paper's x-axis (ε·10³ from 100 down to 10).
pub fn figure1_epsilons() -> Vec<f64> {
    (0..19).map(|i| 0.100 - 0.005 * i as f64).collect()
}

/// One workload query, prepared for measurement.
pub struct PreparedQuery {
    /// Display name ("Competitive Advantage", …).
    pub name: String,
    /// The SQL text.
    pub sql: String,
    /// Candidates produced by the executor under `LIMIT` semantics.
    pub candidates: Vec<CandidateAnswer>,
    /// Compiled ground formulas for the *uncertain* candidates (the
    /// certain ones need no sampling, as in the paper's implementation).
    pub compiled: Vec<CompiledFormula>,
    /// Time spent producing candidates (the "Postgres side").
    pub candidate_time: Duration,
}

/// The measurement harness for one workload: a generated database plus
/// its prepared queries. [`Fig1Harness::new`] instantiates the paper's
/// Figure 1 configuration (the `sales` family); the `bench_suite` driver
/// instantiates one harness per [`QueryFamily`] via
/// [`Fig1Harness::from_spec`].
pub struct Fig1Harness {
    /// The database.
    pub db: Database,
    /// Prepared queries, in the family's fixed order.
    pub queries: Vec<PreparedQuery>,
}

/// One measured point of Figure 1.
#[derive(Debug, Clone)]
pub struct Fig1Point {
    /// Error level.
    pub epsilon: f64,
    /// Monte-Carlo samples drawn per uncertain candidate.
    pub samples_per_candidate: usize,
    /// Total wall-clock time of the approximation phase.
    pub time: Duration,
    /// The certainty estimates (one per candidate, certain ones = 1).
    pub estimates: Vec<CertaintyEstimate>,
}

impl Fig1Harness {
    /// Builds the database at the given scale/seed and prepares the three
    /// §9 queries (the `sales` family).
    pub fn new(scale: &SalesScale, seed: u64) -> Fig1Harness {
        let db = qarith_datagen::sales::sales_database(scale, seed);
        let queries = Fig1Harness::prepare(&db, &QueryFamily::Sales.queries());
        Fig1Harness { db, queries }
    }

    /// Builds the harness for an arbitrary workload spec: generate the
    /// database, then execute and compile every query of the family.
    pub fn from_spec(spec: &WorkloadSpec) -> Fig1Harness {
        Fig1Harness::from_workload(spec.build())
    }

    /// Wraps an already-built [`qarith_datagen::Workload`] (consuming its
    /// database) — the entry point when one generated database is shared
    /// across several harnesses.
    pub fn from_workload(workload: qarith_datagen::Workload) -> Fig1Harness {
        let queries = Fig1Harness::prepare(&workload.db, &workload.queries);
        Fig1Harness { db: workload.db, queries }
    }

    /// Executes and compiles the given queries against `db`.
    fn prepare(db: &Database, queries: &[qarith_datagen::WorkloadQuery]) -> Vec<PreparedQuery> {
        let catalog = db.catalog();
        let mut prepared = Vec::with_capacity(queries.len());
        for q in queries {
            let lowered = qarith_sql::compile(&q.sql, &catalog).expect("workload queries compile");
            // Candidate-counting LIMIT: the analyst sees 25 *distinct*
            // results (nested-loop row order would otherwise fill the
            // window with duplicates of the first result).
            let opts = lowered.cq_options();
            let started = Instant::now();
            let candidates =
                cq::execute(&lowered.query, db, &opts).expect("workload queries execute");
            let candidate_time = started.elapsed();
            let compiled = candidates
                .iter()
                .filter(|c| !c.certain)
                .map(|c| CompiledFormula::compile(&c.formula))
                .collect();
            prepared.push(PreparedQuery {
                name: q.name.clone(),
                sql: q.sql.clone(),
                candidates,
                compiled,
                candidate_time,
            });
        }
        prepared
    }

    /// Runs the approximation phase of one query at one ε, timing it.
    ///
    /// Matches the paper's implementation: `m = ⌈ε⁻²⌉` directions
    /// (their §8 prescription), partial-vector sampling, no exact-method
    /// shortcuts. The uncertain candidates are measured through the
    /// template-sharing batched kernel
    /// ([`estimate_nu_compiled_many`]) — per-candidate estimates are
    /// bit-identical to formula-at-a-time calls (each candidate's
    /// direction stream depends only on seed and sampled dimension),
    /// but candidates with equal dimension share direction blocks.
    pub fn run_epsilon(&self, query_idx: usize, epsilon: f64, seed: u64) -> Fig1Point {
        let q = &self.queries[query_idx];
        let opts = AfprasOptions {
            epsilon,
            samples: SampleCount::Paper,
            seed,
            ..AfprasOptions::default()
        };
        let started = Instant::now();
        let refs: Vec<&CompiledFormula> = q.compiled.iter().collect();
        let mut outcomes = estimate_nu_compiled_many(&refs, &opts).into_iter();
        let mut estimates = Vec::with_capacity(q.candidates.len());
        for cand in &q.candidates {
            if cand.certain {
                estimates.push(CertaintyEstimate::exact_rational(qarith_numeric::Rational::ONE, 0));
            } else {
                let out = outcomes.next().expect("one outcome per uncertain");
                estimates.push(out.estimate(&opts));
            }
        }
        Fig1Point {
            epsilon,
            samples_per_candidate: opts.sample_count(),
            time: started.elapsed(),
            estimates,
        }
    }

    /// Number of uncertain candidates for a query (the ones that cost
    /// Monte-Carlo time).
    pub fn uncertain_count(&self, query_idx: usize) -> usize {
        self.queries[query_idx].compiled.len()
    }

    /// An engine configured like [`Fig1Harness::run_epsilon`]'s
    /// measurement phase — forced AFPRAS, the paper's `m = ⌈ε⁻²⌉`
    /// prescription — with canonical dedup on.
    pub fn paper_engine(epsilon: f64, seed: u64) -> CertaintyEngine {
        CertaintyEngine::new(MeasureOptions {
            method: MethodChoice::Afpras,
            afpras: AfprasOptions {
                epsilon,
                samples: SampleCount::Paper,
                seed,
                ..AfprasOptions::default()
            },
            ..MeasureOptions::default()
        })
    }

    /// Runs the approximation phase of one query at one ε through the
    /// batch engine (canonical dedup + optional ν-cache), timing it.
    /// For a fixed seed the estimates are bit-identical to
    /// [`Fig1Harness::run_epsilon`].
    pub fn run_epsilon_batch(
        &self,
        query_idx: usize,
        epsilon: f64,
        seed: u64,
        cache: Option<Arc<NuCache>>,
    ) -> BatchPoint {
        self.run_engine(Fig1Harness::paper_engine(epsilon, seed), query_idx, epsilon, cache)
    }

    /// Like [`Fig1Harness::run_epsilon_batch`] but with the
    /// `qarith-rewrite` pipeline enabled (full pass set): formulas are
    /// simplified and decomposed before measurement, factors route to
    /// exact evaluators where possible, and the ν-cache keys pick up the
    /// rewritten forms. Estimates are **not** bit-identical to the
    /// unrewritten paths but carry the same ε-additive guarantee.
    pub fn run_epsilon_rewritten(
        &self,
        query_idx: usize,
        epsilon: f64,
        seed: u64,
        cache: Option<Arc<NuCache>>,
    ) -> BatchPoint {
        let mut engine = Fig1Harness::paper_engine(epsilon, seed);
        let options = engine.options().clone().with_rewrite(RewriteOptions::full());
        engine = CertaintyEngine::new(options);
        self.run_engine(engine, query_idx, epsilon, cache)
    }

    fn run_engine(
        &self,
        mut engine: CertaintyEngine,
        query_idx: usize,
        epsilon: f64,
        cache: Option<Arc<NuCache>>,
    ) -> BatchPoint {
        if let Some(cache) = cache {
            engine = engine.with_cache(cache);
        }
        let candidates = self.queries[query_idx].candidates.clone();
        let started = Instant::now();
        let outcome = engine.measure_batch(candidates).expect("AFPRAS accepts any formula");
        BatchPoint {
            epsilon,
            time: started.elapsed(),
            stats: outcome.stats,
            estimates: outcome.answers.into_iter().map(|a| a.certainty).collect(),
        }
    }
}

/// One measured point of the batch path.
#[derive(Debug, Clone)]
pub struct BatchPoint {
    /// Error level.
    pub epsilon: f64,
    /// Wall-clock time of the batch measurement phase.
    pub time: Duration,
    /// Dedup/cache accounting.
    pub stats: BatchStats,
    /// The certainty estimates (one per candidate, certain ones = 1).
    pub estimates: Vec<CertaintyEstimate>,
}

/// Formats a duration in seconds with millisecond resolution (the
/// paper's y-axis unit).
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_grid_matches_figure_1() {
        let eps = figure1_epsilons();
        assert_eq!(eps.len(), 19);
        assert!((eps[0] - 0.100).abs() < 1e-12);
        assert!((eps[18] - 0.010).abs() < 1e-12);
        // Strictly descending in steps of 0.005.
        for w in eps.windows(2) {
            assert!((w[0] - w[1] - 0.005).abs() < 1e-12);
        }
    }

    #[test]
    fn harness_runs_at_tiny_scale() {
        let harness = Fig1Harness::new(&SalesScale::tiny(), 11);
        assert_eq!(harness.queries.len(), 3);
        for (i, q) in harness.queries.iter().enumerate() {
            assert!(!q.candidates.is_empty(), "{} returned no candidates", q.name);
            let point = harness.run_epsilon(i, 0.1, 1);
            assert_eq!(point.samples_per_candidate, 100);
            assert_eq!(point.estimates.len(), q.candidates.len());
            for e in &point.estimates {
                assert!((0.0..=1.0).contains(&e.value));
            }
        }
    }

    #[test]
    fn batch_path_matches_sequential_bit_for_bit() {
        let harness = Fig1Harness::new(&SalesScale::tiny(), 11);
        for (qi, _) in harness.queries.iter().enumerate() {
            let sequential = harness.run_epsilon(qi, 0.1, 7);
            let batch = harness.run_epsilon_batch(qi, 0.1, 7, Some(Arc::new(NuCache::default())));
            assert_eq!(sequential.estimates.len(), batch.estimates.len());
            for (s, b) in sequential.estimates.iter().zip(&batch.estimates) {
                assert_eq!(s.value.to_bits(), b.value.to_bits(), "query {qi}");
                assert_eq!(s.samples, b.samples);
                assert_eq!(s.dimension, b.dimension);
            }
            assert!(batch.stats.groups <= batch.stats.candidates - batch.stats.certain);
        }
    }

    #[test]
    fn smaller_epsilon_draws_more_samples() {
        let harness = Fig1Harness::new(&SalesScale::tiny(), 13);
        let coarse = harness.run_epsilon(0, 0.1, 1);
        let fine = harness.run_epsilon(0, 0.01, 1);
        assert_eq!(coarse.samples_per_candidate, 100);
        assert_eq!(fine.samples_per_candidate, 10_000);
    }
}
