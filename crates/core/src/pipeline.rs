//! The end-to-end certainty pipeline: query + database → candidate
//! answers → ground formulas → measures.
//!
//! This is the programmatic equivalent of the paper's §9 setup
//! (Postgres producing candidates and compact formulas, Python/NumPy
//! estimating confidences) in one engine, with automatic method
//! selection:
//!
//! | method | route |
//! |---|---|
//! | `Auto`, generic query (no arithmetic) | zero-one law (naive evaluation) |
//! | `Auto` | rewrite ([`qarith_rewrite::rewrite`]), exact evaluators per factor ([`crate::exact::try_exact`]), AFPRAS (Thm 8.1) on the residual |
//! | `ExactOnly` | as `Auto`, failing where a residual remains |
//! | `Afpras` | AFPRAS on the ground formula (Thm 8.1) |
//! | `Fpras` | FPRAS on the ground formula (Thm 7.1) |
//!
//! The route depends on the method alone. `Auto` measures exactly
//! wherever a closed form exists (Props 6.1–6.2) and samples the rest;
//! the forced `Afpras` and `Fpras` arms are the paper's algorithms as
//! published and never rewrite.
//!
//! Every measurement — a whole plan's ν-cache misses, or the one
//! formula of [`CertaintyEngine::nu`] — runs through one loop. A router
//! either finishes a group without the additive sampler (an exact
//! evaluator, the FPRAS, a decided constant, an all-exact rewrite
//! outcome, or an error) or names the formula to sample and how to
//! finish the estimate; the loop then draws every formula to sample in
//! one shared direction pass (`estimate_nu_compiled_many`), rewritten
//! residuals included.

use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use qarith_constraints::asymptotic::CompiledFormula;
use qarith_constraints::canonical::{self, Granularity, KeyEncoder};
use qarith_constraints::QfFormula;
use qarith_engine::cq::{self, CandidateAnswer, CqOptions};
use qarith_engine::{ground, ActiveDomain};
use qarith_numeric::Rational;
use qarith_query::Query;
use qarith_rewrite::{rewrite, Combination, RewriteOptions};
use qarith_trace::{Stage, StageSink};
use qarith_types::{Database, Sort, Tuple, Value};

use crate::afpras::{estimate_nu_compiled_many, AfprasOptions, SampleCount};
use crate::decompose::{self, combine, RewriteStats, RewriteTrace};
use crate::error::MeasureError;
use crate::estimate::CertaintyEstimate;
use crate::fpras::{fpras_estimate, FprasOptions};
use crate::nucache::NuCache;
use crate::zero_one::zero_one_measure;

/// Which measure algorithm to use; it alone selects the route (see the
/// module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MethodChoice {
    /// Rewrite, evaluate every factor an exact evaluator covers, and
    /// sample the residual with the AFPRAS (zero-one shortcut for
    /// generic queries). Estimates are flagged
    /// [`CertaintyEstimate::rewritten`].
    #[default]
    Auto,
    /// Force the additive scheme (Theorem 8.1) on the ground formula,
    /// unrewritten, even when an exact evaluator applies — the paper's
    /// benchmark arm.
    Afpras,
    /// Force the multiplicative scheme (Theorem 7.1) on the ground
    /// formula, unrewritten; errors with [`MeasureError::NotLinear`]
    /// beyond CQ(+,<).
    Fpras,
    /// `Auto` without the sampler: errors with
    /// [`MeasureError::ExactUnavailable`] when a factor of the rewritten
    /// formula has no exact evaluator.
    ExactOnly,
}

/// Options for the batch measurement path
/// ([`CertaintyEngine::measure_batch`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchOptions {
    /// Unread: every batch is measured on the calling thread, and
    /// concurrency comes from the callers. The field stays only because
    /// the repository benchmark (`perfbench/src/lib.rs`) names it in a
    /// struct literal; it goes once that benchmark builds its service
    /// from `ServeConfig`.
    pub threads: usize,
    /// Canonical deduplication: candidates whose ground formulas share a
    /// cache key are measured once. Disabling this reproduces the plain
    /// per-candidate loop (the "sequential uncached" baseline).
    pub dedup: bool,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions { threads: 1, dedup: true }
    }
}

/// Options for the pipeline.
#[derive(Clone, Debug)]
pub struct MeasureOptions {
    /// Algorithm selection.
    pub method: MethodChoice,
    /// Additive-scheme options (ε, δ, sampling policy, threads).
    pub afpras: AfprasOptions,
    /// Multiplicative-scheme options.
    pub fpras: FprasOptions,
    /// Variable ceiling for the exact order-fragment evaluator
    /// (cells grow as `n!·(n+1)`).
    pub exact_order_limit: usize,
    /// Candidate generation for conjunctive queries.
    pub cq: CqOptions,
    /// Batch measurement (canonical dedup).
    pub batch: BatchOptions,
    /// Unread: [`MethodChoice`] alone decides whether a formula is
    /// rewritten. The field stays only because the repository benchmark
    /// (`perfbench/src/check.rs`) names it in a struct literal.
    pub rewrite: RewriteOptions,
}

impl Default for MeasureOptions {
    fn default() -> Self {
        MeasureOptions {
            method: MethodChoice::Auto,
            afpras: AfprasOptions::default(),
            fpras: FprasOptions::default(),
            exact_order_limit: 7,
            cq: CqOptions::default(),
            batch: BatchOptions::default(),
            rewrite: RewriteOptions::default(),
        }
    }
}

impl MeasureOptions {
    /// Sets ε for both approximation schemes.
    pub fn with_epsilon(mut self, epsilon: f64) -> MeasureOptions {
        self.afpras.epsilon = epsilon;
        self.fpras.epsilon = epsilon;
        self
    }

    /// A fingerprint of every option that can influence the *bits* of an
    /// estimate — the method choice, tolerances, seeds, AFPRAS thread
    /// count, and budgets of both schemes. Two engines with equal fingerprints
    /// produce bit-identical estimates for the same formula, which is
    /// what keys the [`NuCache`].
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        (self.method as u8).hash(&mut h);
        self.afpras.epsilon.to_bits().hash(&mut h);
        self.afpras.delta.to_bits().hash(&mut h);
        match self.afpras.samples {
            SampleCount::Hoeffding => 0u8.hash(&mut h),
            SampleCount::Paper => 1u8.hash(&mut h),
            SampleCount::Fixed(n) => {
                2u8.hash(&mut h);
                n.hash(&mut h);
            }
        }
        self.afpras.seed.hash(&mut h);
        self.afpras.threads.hash(&mut h);
        self.afpras.full_dimension.hash(&mut h);
        self.fpras.epsilon.to_bits().hash(&mut h);
        self.fpras.delta.to_bits().hash(&mut h);
        self.fpras.dnf_limit.hash(&mut h);
        self.fpras.seed.hash(&mut h);
        self.exact_order_limit.hash(&mut h);
        h.finish()
    }
}

/// The admission predicate of [`CertaintyEngine::answers`]: **strictly
/// greater**. A candidate whose measure equals the threshold exactly is
/// excluded — in particular `min_certainty = 0.0` drops impossible
/// answers (μ = 0) while keeping every candidate with positive measure.
/// Both the conjunctive fast path and the enumeration fallback use this
/// one definition, so the two routes cannot drift.
pub fn exceeds_min_certainty(estimate: &CertaintyEstimate, min_certainty: f64) -> bool {
    estimate.value > min_certainty
}

/// A candidate answer with its certainty.
#[derive(Clone, Debug)]
pub struct AnswerWithCertainty {
    /// The candidate tuple.
    pub tuple: Tuple,
    /// Its measure of certainty.
    pub certainty: CertaintyEstimate,
    /// The ground formula (for inspection/debugging). `Arc`-shared with
    /// the originating [`CandidateAnswer`] and any batch plan holding
    /// it, so rehydrating answers never deep-clones a formula tree.
    pub formula: Arc<QfFormula>,
}

/// Per-batch accounting from [`CertaintyEngine::measure_batch`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Candidates in the batch.
    pub candidates: usize,
    /// Candidates flagged certain by the executor (μ = 1, no sampling).
    pub certain: usize,
    /// Distinct formula groups among the uncertain candidates.
    pub groups: usize,
    /// Groups actually measured this call (the rest came from the
    /// ν-cache).
    pub measured: usize,
    /// Candidates served by in-batch deduplication (a group member after
    /// the first).
    pub dedup_hits: usize,
    /// Groups served by the engine's persistent [`NuCache`].
    pub cache_hits: usize,
    /// Rewrite-pipeline accounting: the groups `Auto` and `ExactOnly`
    /// measured this call (all zeros under the forced `Afpras` and
    /// `Fpras` arms, which never rewrite; cache hits skip measurement).
    pub rewrite: RewriteStats,
}

impl BatchStats {
    /// The scalar counters as stable `(name, value)` pairs, in
    /// declaration order — the machine-readable export the bench suite
    /// serializes into its `BENCH_*.json` trajectory (the nested
    /// [`RewriteStats`] serializes separately via
    /// [`RewriteStats::as_pairs`]). Names are part of the JSON schema:
    /// renaming one is a baseline-breaking change.
    pub fn as_pairs(&self) -> [(&'static str, u64); 6] {
        [
            ("candidates", self.candidates as u64),
            ("certain", self.certain as u64),
            ("groups", self.groups as u64),
            ("measured", self.measured as u64),
            ("dedup_hits", self.dedup_hits as u64),
            ("cache_hits", self.cache_hits as u64),
        ]
    }
}

/// Result of a batch measurement: per-candidate answers plus accounting.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// One entry per input candidate, in input order.
    pub answers: Vec<AnswerWithCertainty>,
    /// Dedup/cache accounting.
    pub stats: BatchStats,
}

/// A unit of measurement work: a formula, measured under the configured
/// method (rewritten on the `Auto`/`ExactOnly` routes only when the
/// group is measured, never while a plan is built). Plan formulas are
/// `Arc`-shared with the candidates they came from — plans hold
/// references, not copies; [`CertaintyEngine::nu`] borrows its argument.
#[derive(Clone, Debug)]
enum Work<'a> {
    /// Measure this formula verbatim (dedup off: nothing is shared,
    /// nothing is canonicalized).
    Formula(Arc<QfFormula>),
    /// The formula of one [`CertaintyEngine::nu`] call, measured
    /// verbatim.
    Borrowed(&'a QfFormula),
    /// Measure the structural form ([`canonical::renumbered`]) of this
    /// formula, the group's first member — built only when the group is
    /// measured, and bit-identical to measuring any member.
    Canonical(Arc<QfFormula>),
}

/// The router's verdict on one group ([`CertaintyEngine::route`]).
pub(crate) enum Route<'a> {
    /// Finished without the additive sampler: an exact evaluator, the
    /// FPRAS, a decided constant, an all-exact rewrite outcome, or an
    /// error.
    Done(GroupResult),
    /// Sample this formula in the loop's shared pass, then finish.
    Sample(Cow<'a, QfFormula>, Finish),
}

/// How the loop turns a sampled formula's estimate into its group's.
pub(crate) enum Finish {
    /// The sampled estimate is the group's estimate.
    AsIs,
    /// The sampled residual of a rewrite outcome: combine it with the
    /// group's exact-factor estimates ([`combine`]).
    Combine(Vec<CertaintyEstimate>, Combination),
}

/// A group's ν-cache key: the preparing engine's options fingerprint
/// (8 bytes) followed by the bytes of a [`KeyEncoder`] key, shared
/// between the plan and the dedup map. `None` with dedup off.
type GroupKey = Option<Arc<[u8]>>;

/// A measured group's estimate, or the error that stopped the batch.
pub(crate) type GroupResult = Result<CertaintyEstimate, MeasureError>;

/// Where a candidate's estimate comes from.
#[derive(Clone, Copy, Debug)]
enum Slot {
    /// Executor-certain: μ = 1 without measuring.
    Certain,
    /// Index into the plan's groups; the flag marks the group's *first*
    /// candidate in input order (later members are dedup-served and
    /// flagged [`CertaintyEstimate::cached`]).
    Group(usize, bool),
}

/// The front half of a batch measurement, prepared once and executable
/// many times: per-candidate keying and deduplication into formula
/// groups.
///
/// [`CertaintyEngine::prepare_batch`] builds a plan;
/// [`CertaintyEngine::execute_plan`] runs the back half — ν-cache
/// lookup, measurement of the misses, rehydration — against the
/// engine's *current* cache state. A long-lived service keeps plans in
/// a plan cache (see `qarith-serve`) so repeat traffic skips parsing,
/// grounding and keying entirely, going straight to per-group ν lookup;
/// only a ν miss rewrites.
///
/// A plan embeds the candidate tuples and ground formulas it was built
/// from, grouped at the building engine's key granularity, and its
/// ν-cache keys carry the options fingerprint of the engine that
/// prepared it. So services prepare and execute with the same engine:
/// a plan executed under other options would look up (and publish)
/// estimates under the preparing engine's fingerprint, and a plan
/// grouped asymptotically (forced `Afpras`) and executed on another
/// method would share one measurement across formulas that method's
/// evaluators tell apart.
#[derive(Clone, Debug)]
pub struct BatchPlan {
    /// The input candidates, in input order (owned: answers are
    /// rehydrated from these on every execution).
    candidates: Vec<CandidateAnswer>,
    /// One slot per candidate.
    slots: Vec<Slot>,
    /// Deduplicated measurement work plus the ν-cache key (`None` with
    /// dedup off: nothing is shared).
    groups: Vec<(Work<'static>, GroupKey)>,
    /// Executor-certain candidates (μ = 1, no group).
    certain: usize,
    /// Candidates served by in-plan deduplication.
    dedup_hits: usize,
    /// Formula nodes the plan's keys encoded ([`KeyEncoder::nodes`]).
    key_nodes: u64,
}

impl BatchPlan {
    /// Candidates covered by the plan.
    pub fn candidates(&self) -> usize {
        self.candidates.len()
    }

    /// Distinct formula groups to measure or look up per execution.
    pub fn groups(&self) -> usize {
        self.groups.len()
    }

    /// Formula nodes encoded while keying the plan's candidates: an
    /// exact, deterministic measure of the key-building work a plan
    /// build did.
    pub fn key_nodes(&self) -> u64 {
        self.key_nodes
    }
}

/// The measure-of-certainty engine.
#[derive(Clone, Debug, Default)]
pub struct CertaintyEngine {
    options: MeasureOptions,
    cache: Option<Arc<NuCache>>,
}

impl CertaintyEngine {
    /// An engine with the given options.
    pub fn new(options: MeasureOptions) -> CertaintyEngine {
        CertaintyEngine { options, cache: None }
    }

    /// Attaches a persistent ν-cache, shared across batches (and across
    /// engine clones and any service holding the same `Arc`). Cached
    /// values are bit-identical to fresh runs — see [`crate::nucache`].
    pub fn with_cache(mut self, cache: Arc<NuCache>) -> CertaintyEngine {
        self.cache = Some(cache);
        self
    }

    /// The configured options.
    pub fn options(&self) -> &MeasureOptions {
        &self.options
    }

    /// `ν(φ)` for a quantifier-free formula over the reals, using the
    /// configured method: a one-group run of the measurement loop.
    ///
    /// `Auto` and `ExactOnly` route through the rewrite pipeline
    /// ([`qarith_rewrite::rewrite`] and [`crate::decompose`]):
    /// simplification, independence decomposition, exact routing per
    /// factor, one sampled residual, product combination. `Afpras` and
    /// `Fpras` run on the formula as given — they exist to benchmark the
    /// paper's algorithms faithfully.
    pub fn nu(&self, phi: &QfFormula) -> Result<CertaintyEstimate, MeasureError> {
        let mut result = None;
        self.measure_groups([(&mut result, &Work::Borrowed(phi))], &mut RewriteStats::default());
        filled(result)
    }

    /// `μ(q, D, candidate)`: grounds (Proposition 5.3) and measures.
    ///
    /// Generic queries short-circuit through the zero-one law under
    /// [`MethodChoice::Auto`].
    pub fn measure(
        &self,
        query: &Query,
        db: &Database,
        candidate: &Tuple,
    ) -> Result<CertaintyEstimate, MeasureError> {
        if self.options.method == MethodChoice::Auto && query.fragment().is_generic() {
            return Ok(zero_one_measure(query, db, candidate)?);
        }
        let phi = ground::ground(query, db, candidate)?;
        self.nu(&phi)
    }

    /// Candidate answers with certainties for **any** query, keeping
    /// those whose measure exceeds `min_certainty` (strictly; see
    /// [`exceeds_min_certainty`]). Conjunctive queries take the
    /// join-executor fast path of the §9 pipeline through
    /// [`CertaintyEngine::measure_batch`]; candidates the executor flags
    /// `certain` get μ = 1 without sampling. Everything else falls back
    /// to active-domain head enumeration, which is exponential in head
    /// arity and quantifier count — fine for the small databases where
    /// non-conjunctive queries are typically analyzed.
    pub fn answers(
        &self,
        query: &Query,
        db: &Database,
        min_certainty: f64,
    ) -> Result<Vec<AnswerWithCertainty>, MeasureError> {
        if !query.fragment().conjunctive {
            return self.answers_enumerated(query, db, min_certainty);
        }
        let candidates = cq::execute(query, db, &self.options.cq)?;
        let mut answers = self.measure_batch(candidates)?.answers;
        answers.retain(|a| exceeds_min_certainty(&a.certainty, min_certainty));
        Ok(answers)
    }

    /// The key granularity of the engine's method. The structural key
    /// is bit-safe everywhere; the coarser asymptotic key only on the
    /// forced AFPRAS arm, where asymptotic-truth-equal formulas evaluate
    /// identically per direction (see `qarith_constraints::canonical`).
    /// Every other method keys structurally: the FPRAS and the exact
    /// evaluators `Auto` and `ExactOnly` apply to rewritten factors have
    /// scale-sensitive `f64` intermediates, so only structurally equal
    /// formulas may share their results.
    fn granularity(&self) -> Granularity {
        match self.options.method {
            MethodChoice::Afpras => Granularity::Asymptotic,
            MethodChoice::Auto | MethodChoice::Fpras | MethodChoice::ExactOnly => {
                Granularity::Structural
            }
        }
    }

    /// The router: finishes a group without the additive sampler, or
    /// names the formula to sample and how to finish its estimate. The
    /// forced arms measure the formula as given; `Auto` and `ExactOnly`
    /// rewrite it and route the outcome through [`decompose::route`],
    /// which also returns the group's rewrite trace.
    fn route<'a>(&self, work: &'a Work<'_>) -> (Route<'a>, Option<RewriteTrace>) {
        let phi = match work {
            Work::Formula(phi) => Cow::Borrowed(&**phi),
            Work::Borrowed(phi) => Cow::Borrowed(*phi),
            Work::Canonical(phi) => Cow::Owned(canonical::renumbered(phi)),
        };
        match self.options.method {
            MethodChoice::Afpras => (Route::Sample(phi, Finish::AsIs), None),
            MethodChoice::Fpras => (Route::Done(fpras_estimate(&phi, &self.options.fpras)), None),
            MethodChoice::Auto | MethodChoice::ExactOnly => {
                let (route, trace) = decompose::route(&rewrite(&phi), &self.options);
                (route, Some(trace))
            }
        }
    }

    /// The one measurement loop. Routes each group in the given order and
    /// stops at the first failure: the groups after it carry a copy of
    /// it. AFPRAS options are validated only when a group needs
    /// sampling. Every formula to sample is then drawn in **one**
    /// [`estimate_nu_compiled_many`] call — skipped when nothing samples —
    /// so groups whose sampled dimensions coincide share direction
    /// blocks, and each group's estimate is finished. Fills every slot
    /// it is given; rewrite traces accumulate into `rewrite`.
    ///
    /// Bit-pinning: `estimate_nu_compiled_many` is direction-for-
    /// direction identical to independent per-formula calls (its own
    /// contract), so sharing the pass changes cost, never bits (pinned
    /// by `shared_fanout_is_bit_identical`).
    fn measure_groups<'w>(
        &self,
        groups: impl IntoIterator<Item = (&'w mut Option<GroupResult>, &'w Work<'w>)>,
        rewrite: &mut RewriteStats,
    ) {
        let mut failure: Option<MeasureError> = None;
        let mut sampled: Vec<(&mut Option<GroupResult>, Finish)> = Vec::new();
        let mut compiled: Vec<CompiledFormula> = Vec::new();
        for (slot, work) in groups {
            if let Some(e) = &failure {
                *slot = Some(Err(e.clone()));
                continue;
            }
            let (route, trace) = self.route(work);
            if let Some(trace) = &trace {
                rewrite.absorb(trace);
            }
            let result = match route {
                Route::Done(result) => result,
                Route::Sample(phi, finish) => match self.options.afpras.validate() {
                    Ok(()) => {
                        compiled.push(CompiledFormula::compile(&phi));
                        sampled.push((slot, finish));
                        continue;
                    }
                    Err(e) => Err(e),
                },
            };
            if let Err(e) = &result {
                failure = Some(e.clone());
            }
            *slot = Some(result);
        }
        if compiled.is_empty() {
            return;
        }
        let refs: Vec<&CompiledFormula> = compiled.iter().collect();
        let outcomes = estimate_nu_compiled_many(&refs, &self.options.afpras);
        for ((slot, finish), out) in sampled.into_iter().zip(&outcomes) {
            let est = out.estimate(&self.options.afpras);
            *slot = Some(Ok(match finish {
                Finish::AsIs => est,
                Finish::Combine(mut parts, combination) => {
                    parts.push(est);
                    combine(&parts, combination, &self.options.afpras)
                }
            }));
        }
    }

    /// Measures a batch of candidates with canonical deduplication and
    /// the ν-cache.
    ///
    /// Pipeline per call:
    ///
    /// 1. every uncertain candidate's ground formula is keyed in one
    ///    pass (`qarith_constraints::canonical`) and grouped by key;
    /// 2. groups found in the engine's [`NuCache`] are served directly;
    /// 3. the remaining unique formulas are measured on the calling
    ///    thread under the engine's configured method — one
    ///    `CompiledFormula` per unique formula instead of one per
    ///    candidate, and one shared direction pass for every group that
    ///    samples, rewritten residuals included;
    /// 4. per-candidate results are rehydrated in input order, with
    ///    [`CertaintyEstimate::cached`] marking values that were shared
    ///    rather than recomputed.
    ///
    /// For a fixed seed and every method the answers are
    /// **bit-identical** to the plain sequential per-candidate loop
    /// (`dedup: false`) and to [`CertaintyEngine::nu`] on each
    /// candidate's formula: the measured representative is the
    /// structural canonical form, which every evaluator and the rewrite
    /// pipeline treat exactly like the original formula, and asymptotic
    /// grouping is restricted to the forced AFPRAS arm, where group
    /// members evaluate identically at every direction
    /// (`tests/method_consistency.rs` locks this in). Errors surface as
    /// the first failing candidate's error, as in the sequential loop.
    pub fn measure_batch(
        &self,
        candidates: Vec<CandidateAnswer>,
    ) -> Result<BatchOutcome, MeasureError> {
        let plan = self.prepare_batch(candidates);
        let (results, stats) = self.run_plan(&plan, None);
        // Single-shot: the plan is discarded, so the candidates move out
        // of it instead of being cloned.
        let BatchPlan { candidates, slots, .. } = plan;
        rehydrate(candidates.into_iter(), &slots, &results, stats)
    }

    /// The front half of [`CertaintyEngine::measure_batch`], runnable
    /// once per query template: key every uncertain candidate once, at
    /// the method's granularity, and dedup into groups. The resulting
    /// [`BatchPlan`] contains no measurements — execute it with
    /// [`CertaintyEngine::execute_plan`], as often as needed.
    pub fn prepare_batch(&self, candidates: Vec<CandidateAnswer>) -> BatchPlan {
        // Groups: the work to measure (with dedup on, the first member,
        // whose structural form is built when measured — bit-identical
        // to every member's; with dedup off, each formula verbatim) plus
        // the ν-cache key (`None` with dedup off: nothing is shared).
        let mut groups: Vec<(Work, GroupKey)> = Vec::new();
        let mut by_key: HashMap<Arc<[u8]>, usize> = HashMap::new();
        let mut slots: Vec<Slot> = Vec::with_capacity(candidates.len());
        let (mut certain, mut dedup_hits) = (0, 0);
        let mut encoder = KeyEncoder::new();
        let granularity = self.granularity();
        let fingerprint = self.options.fingerprint().to_le_bytes();
        let mut key = Vec::new();

        for cand in &candidates {
            if cand.certain {
                certain += 1;
                slots.push(Slot::Certain);
                continue;
            }
            if !self.options.batch.dedup {
                groups.push((Work::Formula(Arc::clone(&cand.formula)), None));
                slots.push(Slot::Group(groups.len() - 1, true));
                continue;
            }
            key.clear();
            key.extend_from_slice(&fingerprint);
            key.extend_from_slice(encoder.encode(&cand.formula, granularity));
            match by_key.get(key.as_slice()) {
                Some(&gi) => {
                    dedup_hits += 1;
                    slots.push(Slot::Group(gi, false));
                }
                None => {
                    let key: Arc<[u8]> = key.as_slice().into();
                    by_key.insert(Arc::clone(&key), groups.len());
                    groups.push((Work::Canonical(Arc::clone(&cand.formula)), Some(key)));
                    slots.push(Slot::Group(groups.len() - 1, true));
                }
            }
        }
        BatchPlan { candidates, slots, groups, certain, dedup_hits, key_nodes: encoder.nodes() }
    }

    /// The back half of [`CertaintyEngine::measure_batch`]: look every
    /// plan group up in the engine's ν-cache, measure the misses,
    /// publish fresh results, and rehydrate per-candidate answers
    /// (cloned out of the plan, which remains reusable). The ν-cache
    /// consultation, the measurement of the misses, and the
    /// rehydration pass record their durations into `sink` under
    /// [`Stage::NuLookup`], [`Stage::Measure`], and [`Stage::Rehydrate`].
    ///
    /// Estimates are **bit-identical** to
    /// [`CertaintyEngine::measure_batch`] over the same candidates with
    /// the same options — the plan *is* that call's front half — and
    /// therefore also to the plain sequential loop (see
    /// [`CertaintyEngine::measure_batch`]). Cache state only shifts
    /// work between lookup and recomputation, and timing is
    /// observational only: the sink is written, never read.
    pub fn execute_plan(
        &self,
        plan: &BatchPlan,
        sink: &mut dyn StageSink,
    ) -> Result<BatchOutcome, MeasureError> {
        let (results, stats) = self.run_plan(plan, Some(&mut *sink));
        // analyze: allow(nondet-source, reason = "observational span timing: the instant flows only into the StageSink, never into the rehydrated answers; read-back from pinned code is barred by the trace-flow lint")
        let begun = std::time::Instant::now();
        let outcome = rehydrate(plan.candidates.iter().cloned(), &plan.slots, &results, stats);
        sink.record_stage(Stage::Rehydrate, observed_nanos(begun));
        outcome
    }

    /// Shared back half: cache lookups, measurement of the misses,
    /// trace aggregation, cache publication. Returns per-group
    /// results (in plan group order) plus the filled-in stats. The
    /// optional sink receives the ν-lookup and measurement durations;
    /// it is write-only (see [`CertaintyEngine::execute_plan`]).
    fn run_plan(
        &self,
        plan: &BatchPlan,
        mut sink: Option<&mut (dyn StageSink + '_)>,
    ) -> (Vec<GroupResult>, BatchStats) {
        let mut stats = BatchStats {
            candidates: plan.candidates.len(),
            certain: plan.certain,
            groups: plan.groups.len(),
            dedup_hits: plan.dedup_hits,
            ..BatchStats::default()
        };

        // Consult the cache per group, against *current* cache state
        // (plans outlive batches; a key missed on one execution can hit
        // on the next).
        // analyze: allow(nondet-source, reason = "observational span timing: the instant flows only into the StageSink, never into cache decisions or estimates; read-back from pinned code is barred by the trace-flow lint")
        let lookup_begun = sink.is_some().then(std::time::Instant::now);
        let mut results: Vec<Option<GroupResult>> = plan
            .groups
            .iter()
            .map(|(_, key)| match (self.cache.as_ref(), key) {
                (Some(cache), Some(key)) => cache.get(key).map(Ok),
                _ => None,
            })
            .collect();
        let fresh: Vec<bool> = results.iter().map(Option::is_none).collect();
        stats.cache_hits = fresh.iter().filter(|&&f| !f).count();
        stats.measured = stats.groups - stats.cache_hits;
        if let (Some(sink), Some(begun)) = (sink.as_deref_mut(), lookup_begun) {
            sink.record_stage(Stage::NuLookup, observed_nanos(begun));
        }
        // analyze: allow(nondet-source, reason = "observational span timing: the instant flows only into the StageSink, never into estimates; read-back from pinned code is barred by the trace-flow lint")
        let measure_begun = sink.is_some().then(std::time::Instant::now);

        // Measure the not-yet-known groups on this thread, in one run
        // of the loop. Groups are in first-occurrence order, so the first
        // failure is the first one in candidate order.
        let pending = results.iter_mut().zip(&plan.groups).filter(|(slot, _)| slot.is_none());
        self.measure_groups(pending.map(|(slot, (work, _))| (slot, work)), &mut stats.rewrite);
        let results: Vec<GroupResult> = results.into_iter().map(filled).collect();

        // Publish fresh results to the persistent cache.
        if let Some(cache) = self.cache.as_ref() {
            for (((_, key), result), fresh) in plan.groups.iter().zip(&results).zip(fresh) {
                if let (true, Ok(est), Some(key)) = (fresh, result, key) {
                    cache.insert(key, est.clone());
                }
            }
        }
        if let (Some(sink), Some(begun)) = (sink, measure_begun) {
            sink.record_stage(Stage::Measure, observed_nanos(begun));
        }
        (results, stats)
    }

    /// The non-conjunctive route of [`CertaintyEngine::answers`]:
    /// active-domain enumeration of head tuples (exponential in the head
    /// arity). Every head tuple is grounded and the ground formulas are
    /// measured in one [`CertaintyEngine::measure_batch`], so they share
    /// dedup, the ν-cache and one sampling pass; candidates whose measure
    /// exceeds `min_certainty` are kept. Errors surface in head order: a
    /// measurement error of an earlier head precedes a grounding error.
    fn answers_enumerated(
        &self,
        query: &Query,
        db: &Database,
        min_certainty: f64,
    ) -> Result<Vec<AnswerWithCertainty>, MeasureError> {
        let dom = ActiveDomain::collect(db, query, &[]);
        let mut heads = Vec::new();
        enumerate_heads(query, &dom, &mut Vec::with_capacity(query.arity()), &mut heads);
        let mut candidates = Vec::with_capacity(heads.len());
        let mut grounding = Ok(());
        for tuple in heads {
            match ground::ground(query, db, &tuple) {
                Ok(phi) => candidates.push(CandidateAnswer {
                    tuple,
                    formula: Arc::new(phi),
                    derivations: 1,
                    certain: false,
                    truncated: false,
                }),
                Err(e) => {
                    grounding = Err(e);
                    break;
                }
            }
        }
        let mut answers = self.measure_batch(candidates)?.answers;
        grounding?;
        answers.retain(|a| exceeds_min_certainty(&a.certainty, min_certainty));
        Ok(answers)
    }
}

/// Every head tuple over the active domain, in lexicographic domain
/// order: `candidate` holds the positions bound so far.
fn enumerate_heads(
    query: &Query,
    dom: &ActiveDomain,
    candidate: &mut Vec<Value>,
    out: &mut Vec<Tuple>,
) {
    let Some(head_var) = query.free_vars().get(candidate.len()) else {
        // Every head position is bound.
        out.push(Tuple::new(candidate.clone()));
        return;
    };
    let domain: &[Value] = match head_var.sort {
        Sort::Base => dom.base(),
        Sort::Num => dom.num(),
    };
    for v in domain {
        candidate.push(v.clone());
        enumerate_heads(query, dom, candidate, out);
        candidate.pop();
    }
}

/// Saturating nanoseconds since a span start, for [`StageSink`]
/// recording (observational only; see the pragma'd call sites).
fn observed_nanos(begun: std::time::Instant) -> u64 {
    u64::try_from(begun.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A slot the measurement loop was given: [`CertaintyEngine::measure_groups`]
/// fills every one.
fn filled(slot: Option<GroupResult>) -> GroupResult {
    // analyze: allow(panic-expect, reason = "the loop fills each slot it is given: a routed group at once, a sampled one from the shared pass, which returns one outcome per formula")
    slot.expect("the measurement loop fills every slot it is given")
}

/// Rehydrates per-candidate answers in input order from per-group
/// results; the first error in candidate order aborts, matching the
/// sequential loop.
fn rehydrate(
    candidates: impl Iterator<Item = CandidateAnswer>,
    slots: &[Slot],
    results: &[GroupResult],
    stats: BatchStats,
) -> Result<BatchOutcome, MeasureError> {
    let mut answers = Vec::with_capacity(slots.len());
    for (cand, slot) in candidates.zip(slots) {
        let certainty = match *slot {
            Slot::Certain => CertaintyEstimate::exact_rational(Rational::ONE, 0),
            // analyze: allow(panic-index, reason = "a slot's group index comes from the plan that built the slot, and `results` holds one entry per plan group")
            Slot::Group(gi, first) => match &results[gi] {
                Ok(est) => {
                    let mut est = est.clone();
                    // Dedup-served members share the group's value
                    // instead of recomputing; cache-served groups arrive
                    // pre-flagged from `run_plan`.
                    est.cached |= !first;
                    est
                }
                Err(e) => return Err(e.clone()),
            },
        };
        answers.push(AnswerWithCertainty { tuple: cand.tuple, certainty, formula: cand.formula });
    }
    Ok(BatchOutcome { answers, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qarith_constraints::{Atom, ConstraintOp, Polynomial, Var};
    use qarith_query::{Arg, BaseTerm, CompareOp, Formula, NumTerm, TypedVar};
    use qarith_types::{Column, NumNullId, Relation, RelationSchema};

    fn db_single_pair() -> Database {
        // R(a: base, x: num, y: num) with one all-null numeric pair — the
        // paper's σ_{A>B}(R) motivating example.
        let mut db = Database::new();
        let schema =
            RelationSchema::new("R", vec![Column::base("a"), Column::num("x"), Column::num("y")])
                .unwrap();
        let mut r = Relation::empty(schema);
        r.insert_values(vec![
            Value::int(1),
            Value::NumNull(NumNullId(0)),
            Value::NumNull(NumNullId(1)),
        ])
        .unwrap();
        db.add_relation(r).unwrap();
        db
    }

    fn select_a_gt_b(db: &Database) -> Query {
        Query::new(
            vec![TypedVar::base("a")],
            Formula::exists(
                vec![TypedVar::num("x"), TypedVar::num("y")],
                Formula::and(vec![
                    Formula::rel(
                        "R",
                        vec![
                            Arg::Base(BaseTerm::var("a")),
                            Arg::Num(NumTerm::var("x")),
                            Arg::Num(NumTerm::var("y")),
                        ],
                    ),
                    Formula::cmp(NumTerm::var("x"), CompareOp::Gt, NumTerm::var("y")),
                ]),
            ),
            &db.catalog(),
        )
        .unwrap()
    }

    #[test]
    fn sigma_a_gt_b_has_measure_one_half() {
        // The paper's intro: "with probability 1/2 the tuple will be in
        // the answer".
        let db = db_single_pair();
        let q = select_a_gt_b(&db);
        let engine = CertaintyEngine::default();
        let est = engine.measure(&q, &db, &Tuple::new(vec![Value::int(1)])).unwrap();
        assert_eq!(est.exact, Some(Rational::new(1, 2)));
    }

    #[test]
    fn answers_pipeline_cq() {
        let db = db_single_pair();
        let q = select_a_gt_b(&db);
        let engine = CertaintyEngine::default();
        let answers = engine.answers(&q, &db, 0.0).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].tuple, Tuple::new(vec![Value::int(1)]));
        assert_eq!(answers[0].certainty.exact, Some(Rational::new(1, 2)));
    }

    #[test]
    fn enumerated_answers_match_cq_answers() {
        let db = db_single_pair();
        let q = select_a_gt_b(&db);
        let engine = CertaintyEngine::default();
        let via_cq = engine.answers(&q, &db, 0.0).unwrap();
        let via_enum = engine.answers_enumerated(&q, &db, 0.0).unwrap();
        assert_eq!(via_cq.len(), via_enum.len());
        assert_eq!(via_cq[0].tuple, via_enum[0].tuple);
        assert_eq!(via_cq[0].certainty.exact, via_enum[0].certainty.exact);
    }

    #[test]
    fn method_choices_are_respected() {
        let db = db_single_pair();
        let q = select_a_gt_b(&db);
        let t = Tuple::new(vec![Value::int(1)]);

        let exact_only = CertaintyEngine::new(MeasureOptions {
            method: MethodChoice::ExactOnly,
            ..MeasureOptions::default()
        });
        assert!(exact_only.measure(&q, &db, &t).unwrap().exact.is_some());

        let afpras = CertaintyEngine::new(MeasureOptions {
            method: MethodChoice::Afpras,
            ..MeasureOptions::default()
        });
        let est = afpras.measure(&q, &db, &t).unwrap();
        assert!(est.exact.is_none());
        assert!((est.value - 0.5).abs() < 0.1);

        let fpras = CertaintyEngine::new(MeasureOptions {
            method: MethodChoice::Fpras,
            ..MeasureOptions::default()
        });
        let est = fpras.measure(&q, &db, &t).unwrap();
        assert!((est.value - 0.5).abs() < 0.1);
    }

    fn uncertain_candidate(formula: QfFormula, id: i64) -> CandidateAnswer {
        CandidateAnswer {
            tuple: Tuple::new(vec![Value::int(id)]),
            formula: Arc::new(formula),
            derivations: 1,
            certain: false,
            truncated: false,
        }
    }

    /// μ-relevant fields only (`cached` is provenance, not identity).
    fn fingerprint_of(est: &CertaintyEstimate) -> (u64, Option<Rational>, usize, usize) {
        (est.value.to_bits(), est.exact, est.samples, est.dimension)
    }

    fn renamed_pair() -> (CandidateAnswer, CandidateAnswer) {
        // Same shape over different nulls and different constants: the
        // asymptotic key merges them on the sampling route.
        let mk = |v: u32, c: i64| {
            QfFormula::atom(Atom::new(
                Polynomial::var(Var(v)) - Polynomial::constant(Rational::from_int(c)),
                ConstraintOp::Gt,
            ))
        };
        (uncertain_candidate(mk(3, 27), 1), uncertain_candidate(mk(9, 31), 2))
    }

    #[test]
    fn batch_dedups_renamed_formulas_on_the_sampling_route() {
        let (a, b) = renamed_pair();
        let engine = CertaintyEngine::new(MeasureOptions {
            method: MethodChoice::Afpras,
            ..MeasureOptions::default()
        });
        let outcome = engine.measure_batch(vec![a, b]).unwrap();
        assert_eq!(outcome.stats.candidates, 2);
        assert_eq!(outcome.stats.groups, 1, "one canonical class");
        assert_eq!(outcome.stats.dedup_hits, 1);
        assert_eq!(outcome.stats.measured, 1);
        assert!(!outcome.answers[0].certainty.cached);
        assert!(outcome.answers[1].certainty.cached, "second member is served, not recomputed");
        assert_eq!(
            fingerprint_of(&outcome.answers[0].certainty),
            fingerprint_of(&outcome.answers[1].certainty),
        );
    }

    #[test]
    fn batch_matches_sequential_bitwise() {
        let (a, b) = renamed_pair();
        for method in [MethodChoice::Auto, MethodChoice::Afpras, MethodChoice::Fpras] {
            let options = MeasureOptions { method, ..MeasureOptions::default() };
            let sequential = CertaintyEngine::new(MeasureOptions {
                batch: BatchOptions { dedup: false, ..BatchOptions::default() },
                ..options.clone()
            });
            let batched = CertaintyEngine::new(options);
            let s = sequential.measure_batch(vec![a.clone(), b.clone()]).unwrap().answers;
            let p = batched.measure_batch(vec![a.clone(), b.clone()]).unwrap().answers;
            for (x, y) in s.iter().zip(&p) {
                assert_eq!(
                    fingerprint_of(&x.certainty),
                    fingerprint_of(&y.certainty),
                    "{method:?}"
                );
            }
        }
    }

    fn gt(p: Polynomial) -> QfFormula {
        QfFormula::atom(Atom::new(p, ConstraintOp::Gt))
    }

    fn lt(p: Polynomial) -> QfFormula {
        QfFormula::atom(Atom::new(p, ConstraintOp::Lt))
    }

    fn z(i: u32) -> Polynomial {
        Polynomial::var(Var(i))
    }

    /// A 3-D formula that still samples after rewriting: its multi-term
    /// quadratic top defeats every exact evaluator.
    fn cross(a: u32, b: u32, c: u32) -> QfFormula {
        QfFormula::or([QfFormula::and([gt(z(a) * z(a) + z(a) * z(b)), lt(z(c))]), gt(z(a) - z(c))])
    }

    #[test]
    fn shared_fanout_is_bit_identical() {
        // Four distinct canonical classes the rewrite route evaluates
        // exactly — one 1-D, one 2-D linear, two 2-D nonlinear with
        // monomial tops — then two 3-D classes whose rewritten residuals
        // still sample: `cross` alone, and a disjoint half-line (an
        // exact factor) times another `cross`.
        let candidates = vec![
            uncertain_candidate(gt(z(0)), 1),
            uncertain_candidate(gt(z(0) + z(1)), 2),
            uncertain_candidate(gt(z(0) * z(1)), 3),
            uncertain_candidate(gt(z(0) * z(1) + z(0)), 4),
            uncertain_candidate(cross(0, 1, 2), 5),
            uncertain_candidate(QfFormula::and([gt(z(3)), cross(0, 2, 1)]), 6),
        ];

        for method in [MethodChoice::Afpras, MethodChoice::Auto] {
            // The reference is a one-group run of the loop per formula,
            // which shares no direction pass with any other group.
            let engine =
                CertaintyEngine::new(MeasureOptions { method, ..MeasureOptions::default() });
            let s = engine.measure_batch(candidates.clone()).unwrap();
            assert_eq!(s.stats.groups, 6, "{method:?}: six canonical classes");
            for (x, cand) in s.answers.iter().zip(&candidates) {
                let direct = engine.nu(&cand.formula).unwrap();
                assert_eq!(
                    fingerprint_of(&x.certainty),
                    fingerprint_of(&direct),
                    "{method:?}: shared fan-out must not change a bit"
                );
            }
            if method == MethodChoice::Auto {
                assert!(s.answers[..4].iter().all(|a| a.certainty.samples == 0));
                assert!(
                    s.answers[4..].iter().all(|a| a.certainty.samples > 0),
                    "the rewritten residuals sample in the shared pass"
                );
            }
        }
    }

    #[test]
    fn auto_keys_rescaled_formulas_apart() {
        // z0 − z1 < 0 and 2·z2 − 2·z3 < 0 share an asymptotic key, but
        // the exact evaluators are scale-sensitive: under `Auto` each is
        // its own group, measured like its own `nu()`.
        let two = Polynomial::constant(Rational::from_int(2));
        let candidates = vec![
            uncertain_candidate(lt(z(0) - z(1)), 1),
            uncertain_candidate(lt(two.clone() * z(2) - two * z(3)), 2),
        ];
        let engine = CertaintyEngine::default();
        let batch = engine.measure_batch(candidates.clone()).unwrap();
        assert_eq!(batch.stats.groups, 2, "structural keys tell the two apart");
        assert_eq!(batch.stats.measured, 2);
        for (answer, cand) in batch.answers.iter().zip(&candidates) {
            let solo = engine.nu(&cand.formula).unwrap();
            let identity = |e: &CertaintyEstimate| (fingerprint_of(e), e.rewritten);
            assert_eq!(identity(&answer.certainty), identity(&solo), "{}", cand.formula);
            assert!(solo.rewritten);
        }
        // The order evaluator's rational for the first; the arc
        // evaluator's closed form, with no rational, for the second.
        assert_eq!(batch.answers[0].certainty.exact, Some(Rational::new(1, 2)));
        assert_eq!(batch.answers[1].certainty.exact, None);
    }

    #[test]
    fn nu_cache_serves_across_batches() {
        let (a, b) = renamed_pair();
        let cache = std::sync::Arc::new(NuCache::default());
        let engine = CertaintyEngine::new(MeasureOptions {
            method: MethodChoice::Afpras,
            ..MeasureOptions::default()
        })
        .with_cache(cache.clone());

        let first = engine.measure_batch(vec![a.clone()]).unwrap();
        assert_eq!(first.stats.cache_hits, 0);
        let second = engine.measure_batch(vec![b.clone()]).unwrap();
        assert_eq!(second.stats.cache_hits, 1, "served from the persistent cache");
        assert_eq!(second.stats.measured, 0);
        assert!(second.answers[0].certainty.cached);
        assert_eq!(
            fingerprint_of(&first.answers[0].certainty),
            fingerprint_of(&second.answers[0].certainty),
        );
        assert_eq!(cache.stats().entries, 1);

        // A different ε is a different fingerprint: no false sharing.
        let other = CertaintyEngine::new(
            MeasureOptions { method: MethodChoice::Afpras, ..MeasureOptions::default() }
                .with_epsilon(0.03),
        )
        .with_cache(cache.clone());
        let third = other.measure_batch(vec![a]).unwrap();
        assert_eq!(third.stats.cache_hits, 0);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn batch_handles_certain_and_errors() {
        let certain = CandidateAnswer {
            tuple: Tuple::new(vec![Value::int(0)]),
            formula: Arc::new(QfFormula::True),
            derivations: 0,
            certain: true,
            truncated: false,
        };
        let nonlinear = uncertain_candidate(lt(z(0) * z(1)), 1);
        // FPRAS rejects nonlinear formulas: the batch surfaces the error.
        let engine = CertaintyEngine::new(MeasureOptions {
            method: MethodChoice::Fpras,
            ..MeasureOptions::default()
        });
        let err = engine.measure_batch(vec![certain.clone(), nonlinear]).unwrap_err();
        assert!(matches!(err, MeasureError::NotLinear));
        // Certain candidates never sample.
        let ok = engine.measure_batch(vec![certain]).unwrap();
        assert_eq!(ok.stats.certain, 1);
        assert_eq!(ok.stats.groups, 0);
        assert!(ok.answers[0].certainty.is_certain());

        // Under `Auto` with ε = 0 the AFPRAS options are invalid, but
        // they are checked only when a group needs sampling: a plan of
        // exact-routed groups still succeeds.
        let half_line = uncertain_candidate(gt(z(0)), 2);
        let engine = CertaintyEngine::new(MeasureOptions::default().with_epsilon(0.0));
        let exact = engine.measure_batch(vec![half_line.clone()]).unwrap();
        assert_eq!(exact.answers[0].certainty.exact, Some(Rational::new(1, 2)));
        // One exact and one sampled group: the sampled one fails, and
        // only the exact group reaches the ν-cache.
        let cache = Arc::new(NuCache::default());
        let engine = engine.with_cache(cache.clone());
        let sampled = uncertain_candidate(cross(0, 1, 2), 3);
        let err = engine.measure_batch(vec![half_line, sampled]).unwrap_err();
        assert!(matches!(err, MeasureError::BadTolerance { .. }));
        assert_eq!(cache.stats().entries, 1, "only the exact group is cached");
    }

    #[test]
    fn min_certainty_predicate_is_strict() {
        let half = CertaintyEstimate::exact_rational(Rational::new(1, 2), 1);
        assert!(exceeds_min_certainty(&half, 0.0));
        assert!(exceeds_min_certainty(&half, 0.49));
        assert!(!exceeds_min_certainty(&half, 0.5), "boundary is excluded");
        let zero = CertaintyEstimate::exact_rational(Rational::ZERO, 0);
        assert!(!exceeds_min_certainty(&zero, 0.0), "impossible answers drop at 0.0");
    }

    #[test]
    fn generic_queries_use_zero_one_law() {
        let db = db_single_pair();
        let q = Query::new(
            vec![TypedVar::base("a")],
            Formula::exists(
                vec![TypedVar::num("x"), TypedVar::num("y")],
                Formula::rel(
                    "R",
                    vec![
                        Arg::Base(BaseTerm::var("a")),
                        Arg::Num(NumTerm::var("x")),
                        Arg::Num(NumTerm::var("y")),
                    ],
                ),
            ),
            &db.catalog(),
        )
        .unwrap();
        let engine = CertaintyEngine::default();
        let est = engine.measure(&q, &db, &Tuple::new(vec![Value::int(1)])).unwrap();
        assert_eq!(est.method, crate::estimate::Method::ZeroOne);
        assert!(est.is_certain());
        let est = engine.measure(&q, &db, &Tuple::new(vec![Value::int(2)])).unwrap();
        assert_eq!(est.exact, Some(Rational::ZERO));
    }
}
