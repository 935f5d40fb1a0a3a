//! The end-to-end certainty pipeline: query + database → candidate
//! answers → ground formulas → measures.
//!
//! This is the programmatic equivalent of the paper's §9 setup
//! (Postgres producing candidates and compact formulas, Python/NumPy
//! estimating confidences) in one engine, with automatic method
//! selection:
//!
//! | situation | method |
//! |---|---|
//! | generic query (no arithmetic) | zero-one law (naive evaluation) |
//! | ground formula with an exact evaluator (dim ≤ 1, order fragment, 2-D linear) | exact |
//! | CQ(+,<) when multiplicative guarantees are requested | FPRAS (Thm 7.1) |
//! | everything else | AFPRAS (Thm 8.1) |

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use qarith_constraints::asymptotic::CompiledFormula;
use qarith_constraints::canonical::{self, Canonical};
use qarith_constraints::QfFormula;
use qarith_engine::cq::{self, CandidateAnswer, CqOptions};
use qarith_engine::{ground, ActiveDomain};
use qarith_numeric::Rational;
use qarith_query::Query;
use qarith_rewrite::{ae_simplify, RewriteOptions, RewriteOutcome, Rewriter};
use qarith_trace::{Stage, StageSink};
use qarith_types::{Database, Sort, Tuple, Value};

use crate::afpras::{afpras_estimate, estimate_nu_compiled_many, AfprasOptions, SampleCount};
use crate::decompose::{measure_prepared, measure_rewritten, RewriteStats, RewriteTrace};
use crate::error::MeasureError;
use crate::estimate::{CertaintyEstimate, Method};
use crate::exact::{exact_applicable, try_exact};
use crate::fpras::{fpras_estimate, FprasOptions};
use crate::nucache::NuCache;
use crate::zero_one::zero_one_measure;

/// Which measure algorithm to use.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MethodChoice {
    /// Exact where possible, AFPRAS otherwise (zero-one shortcut for
    /// generic queries).
    #[default]
    Auto,
    /// Force the additive scheme (Theorem 8.1) even when an exact
    /// evaluator applies — useful for benchmarking.
    Afpras,
    /// Force the multiplicative scheme (Theorem 7.1); errors with
    /// [`MeasureError::NotLinear`] beyond CQ(+,<).
    Fpras,
    /// Exact evaluation only; errors with
    /// [`MeasureError::ExactUnavailable`] when no exact method applies.
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
    /// The `qarith-rewrite` pipeline: ν-preserving simplification and
    /// independence decomposition ahead of measurement. Disabled by
    /// default — rewritten estimates carry the same ε/δ guarantee but
    /// are not bit-identical to unrewritten ones, so the switch is part
    /// of [`MeasureOptions::fingerprint`] and of each estimate's
    /// provenance ([`CertaintyEstimate::rewritten`]).
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

    /// Sets the rewrite configuration (e.g. [`RewriteOptions::full`]).
    pub fn with_rewrite(mut self, rewrite: RewriteOptions) -> MeasureOptions {
        self.rewrite = rewrite;
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
        // The whole rewrite configuration: enabling any pass (or changing
        // the factor budget) changes which formula is sampled and with
        // what budget, hence the bits of the estimate.
        self.rewrite.hash(&mut h);
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
    /// Rewrite-pipeline accounting (all zeros unless
    /// [`MeasureOptions::rewrite`] is enabled; covers freshly measured
    /// groups only — cache hits skip measurement).
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

/// A unit of measurement work in a batch: a bare formula (measured via
/// [`CertaintyEngine::nu`]'s routing), or — with rewriting enabled — the
/// rewrite outcome prepared once per canonical class while building the
/// group key, so the pass pipeline never runs twice on a formula.
#[derive(Clone, Debug)]
enum Work {
    /// Measure this formula under the configured method (`Arc`-shared
    /// with the candidate it came from — plans hold references, not
    /// copies).
    Formula(Arc<QfFormula>),
    /// Measure this prepared decomposition (rewrite pipeline).
    Prepared(Box<RewriteOutcome>),
}

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
/// many times: per-candidate canonicalization, deduplication into
/// formula groups, cache-key construction, and (with rewriting enabled)
/// the per-class rewrite outcome.
///
/// [`CertaintyEngine::prepare_batch`] builds a plan;
/// [`CertaintyEngine::execute_plan`] runs the back half — ν-cache
/// lookup, measurement of the misses, rehydration — against the
/// engine's *current* cache state. A long-lived service keeps plans in
/// a plan cache (see `qarith-serve`) so repeat traffic skips parsing,
/// grounding, canonicalization, and rewriting entirely, going straight
/// to per-group ν lookup.
///
/// A plan embeds the candidate tuples and ground formulas it was built
/// from; executing it with an engine whose
/// [`MeasureOptions::fingerprint`] differs from the building engine's
/// is safe (the fingerprint is re-read at execution time) but wastes
/// the dedup granularity chosen at preparation time, so services
/// prepare and execute with the same options.
#[derive(Clone, Debug)]
pub struct BatchPlan {
    /// The input candidates, in input order (owned: answers are
    /// rehydrated from these on every execution).
    candidates: Vec<CandidateAnswer>,
    /// One slot per candidate.
    slots: Vec<Slot>,
    /// Deduplicated measurement work plus the ν-cache key (`None` with
    /// dedup off: nothing is shared).
    groups: Vec<(Work, Option<String>)>,
    /// Executor-certain candidates (μ = 1, no group).
    certain: usize,
    /// Candidates served by in-plan deduplication.
    dedup_hits: usize,
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
    /// configured method.
    ///
    /// With [`MeasureOptions::rewrite`] enabled, every method choice
    /// routes through the rewrite pipeline
    /// ([`crate::decompose::measure_rewritten`]): simplification,
    /// independence decomposition, exact routing per factor, product
    /// combination. Otherwise `Auto` and `ExactOnly` first apply the
    /// measure-preserving a.e. simplification (the frozen
    /// `ae_simplified` behavior, now served by
    /// [`qarith_rewrite::ae_simplify`]), which strips measure-zero
    /// equality branches (ground formulas are full of them) and often
    /// unlocks an exact evaluator; `Afpras`/`Fpras` run on the formula
    /// as given — they exist to benchmark the paper's algorithms
    /// faithfully.
    pub fn nu(&self, phi: &QfFormula) -> Result<CertaintyEstimate, MeasureError> {
        Ok(self.nu_traced(phi)?.0)
    }

    /// [`CertaintyEngine::nu`] plus the rewrite trace (`None` on the
    /// unrewritten pipeline) — the batch engine aggregates the traces
    /// into [`BatchStats::rewrite`].
    fn nu_traced(
        &self,
        phi: &QfFormula,
    ) -> Result<(CertaintyEstimate, Option<RewriteTrace>), MeasureError> {
        if self.options.rewrite.enabled {
            let (est, trace) = measure_rewritten(phi, &self.options)?;
            return Ok((est, Some(trace)));
        }
        let est = match self.options.method {
            MethodChoice::Auto => {
                let simplified = ae_simplify(phi);
                match try_exact(&simplified, self.options.exact_order_limit) {
                    Some(exact) => exact,
                    None => afpras_estimate(&simplified, &self.options.afpras)?,
                }
            }
            MethodChoice::Afpras => afpras_estimate(phi, &self.options.afpras)?,
            MethodChoice::Fpras => fpras_estimate(phi, &self.options.fpras)?,
            MethodChoice::ExactOnly => try_exact(&ae_simplify(phi), self.options.exact_order_limit)
                .ok_or(MeasureError::ExactUnavailable {
                    reason: "formula is not order/2-D-linear and has dimension > 1",
                })?,
        };
        Ok((est, None))
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

    /// The cache key granularity for a canonical formula under the
    /// engine's method. The structural key is bit-safe everywhere; the
    /// coarser asymptotic key is used only on the *sampling* route,
    /// where asymptotic-truth-equal formulas evaluate identically per
    /// direction (see `qarith_constraints::canonical`). The geometric
    /// FPRAS and the exact evaluators keep the structural key: their
    /// `f64` intermediates are scale-sensitive. Keys are prefixed so the
    /// granularities never collide.
    ///
    /// With rewriting enabled the key is computed on the **rewritten**
    /// form (re-canonicalized, since simplification can drop variables):
    /// that is what gets measured, so that is what identifies the
    /// result. On the `Auto`/`Afpras` routes the rewritten pipeline uses
    /// the asymptotic granularity throughout: sampled residuals evaluate
    /// per-direction limit truth (invariant across an asymptotic class),
    /// and the factor evaluators the decomposition routes to are
    /// asymptotically determined too — the order-fragment and
    /// dimension-≤1 evaluators return the identical rational for every
    /// class member, and the 2-D arc evaluator computes the identical
    /// arc set, so members can differ from a standalone evaluation at
    /// most in the final ulp of the closed-form `f64` (the shared value
    /// is the class representative's; the ε guarantee is unaffected).
    /// `Fpras`/`ExactOnly` keep the structural key, as without
    /// rewriting. The rewritten prefixes (`ra:`/`rs:`) are distinct from
    /// the plain ones on top of the fingerprint separation.
    fn prepare_group(&self, canon: &Canonical) -> (String, Option<Box<RewriteOutcome>>) {
        if self.options.rewrite.enabled {
            let out = Rewriter::new(self.options.rewrite).rewrite(&canon.formula);
            // Re-renumber after simplification (it can drop variables);
            // the `ra:` route skips the structural-key serialization.
            let key = match self.options.method {
                MethodChoice::Auto | MethodChoice::Afpras => {
                    format!(
                        "ra:{}",
                        canonical::asymptotic_key_of(&canonical::renumbered(&out.formula))
                    )
                }
                MethodChoice::Fpras | MethodChoice::ExactOnly => {
                    format!("rs:{}", canonical::canonicalize(&out.formula).structural_key)
                }
            };
            return (key, Some(Box::new(out)));
        }
        let sampling = match self.options.method {
            MethodChoice::Afpras => true,
            MethodChoice::Fpras | MethodChoice::ExactOnly => false,
            MethodChoice::Auto => {
                !exact_applicable(&ae_simplify(&canon.formula), self.options.exact_order_limit)
            }
        };
        let key = if sampling {
            format!("a:{}", canon.asymptotic_key())
        } else {
            format!("s:{}", canon.structural_key)
        };
        (key, None)
    }

    /// The shared-direction route for sampling-routed plans: every
    /// pending group headed for the AFPRAS sampler is measured through
    /// **one** [`estimate_nu_compiled_many`] call, so direction
    /// generation is shared across groups whose sampled dimensions
    /// coincide (the blocked-kernel layout), instead of one
    /// compile-and-sample pass per group. `Auto` groups that an exact
    /// evaluator covers are resolved inline, exactly as
    /// [`CertaintyEngine::nu`] would.
    ///
    /// Bit-pinning: `estimate_nu_compiled_many` is direction-for-
    /// direction identical to independent per-formula calls (its own
    /// contract), the inline exact route is the literal `Auto` arm of
    /// [`CertaintyEngine::nu_traced`], and the estimate construction
    /// matches [`afpras_estimate`] field for field — so this route
    /// changes cost, never bits (pinned by
    /// `shared_fanout_is_bit_identical`).
    ///
    /// Returns `false` — leaving `results` untouched — when the route
    /// does not apply: rewriting on (groups carry prepared
    /// decompositions), a non-sampling method, or invalid AFPRAS
    /// options (the per-group loop then surfaces the error with its
    /// usual first-in-candidate-order semantics).
    fn measure_pending_shared(
        &self,
        plan: &BatchPlan,
        pending: &[usize],
        results: &mut [Option<Result<CertaintyEstimate, MeasureError>>],
    ) -> bool {
        if self.options.rewrite.enabled
            || !matches!(self.options.method, MethodChoice::Auto | MethodChoice::Afpras)
            || self.options.afpras.validate().is_err()
        {
            return false;
        }
        let mut sampled: Vec<usize> = Vec::new();
        let mut compiled: Vec<CompiledFormula> = Vec::new();
        let mut inline: Vec<(usize, CertaintyEstimate)> = Vec::new();
        for &gi in pending {
            // With rewriting off every group is a bare formula, but the
            // invariant lives in `prepare_group`, so stay defensive.
            let Work::Formula(phi) = &plan.groups[gi].0 else { return false };
            match self.options.method {
                MethodChoice::Afpras => {
                    sampled.push(gi);
                    compiled.push(CompiledFormula::compile(phi));
                }
                MethodChoice::Auto => {
                    let simplified = ae_simplify(phi);
                    match try_exact(&simplified, self.options.exact_order_limit) {
                        Some(exact) => inline.push((gi, exact)),
                        None => {
                            sampled.push(gi);
                            compiled.push(CompiledFormula::compile(&simplified));
                        }
                    }
                }
                MethodChoice::Fpras | MethodChoice::ExactOnly => return false,
            }
        }
        for (gi, exact) in inline {
            results[gi] = Some(Ok(exact));
        }
        if !sampled.is_empty() {
            let refs: Vec<&CompiledFormula> = compiled.iter().collect();
            let outcomes = estimate_nu_compiled_many(&refs, &self.options.afpras);
            for (&gi, out) in sampled.iter().zip(outcomes) {
                results[gi] = Some(Ok(CertaintyEstimate {
                    value: out.estimate,
                    exact: None,
                    method: Method::Afpras,
                    epsilon: Some(self.options.afpras.epsilon),
                    delta: Some(self.options.afpras.delta),
                    samples: out.samples,
                    dimension: out.dimension,
                    cached: false,
                    rewritten: false,
                }));
            }
        }
        true
    }

    /// One unit of batch work: bare formulas route through
    /// [`CertaintyEngine::nu`]'s method selection, prepared rewrite
    /// outcomes go straight to the decomposed measurement.
    fn measure_work(
        &self,
        work: &Work,
    ) -> Result<(CertaintyEstimate, Option<RewriteTrace>), MeasureError> {
        match work {
            Work::Formula(phi) => self.nu_traced(phi),
            Work::Prepared(out) => {
                measure_prepared(out, &self.options).map(|(est, trace)| (est, Some(trace)))
            }
        }
    }

    /// Measures a batch of candidates with canonical deduplication and
    /// the ν-cache.
    ///
    /// Pipeline per call:
    ///
    /// 1. every uncertain candidate's ground formula is canonicalized
    ///    (`qarith_constraints::canonical`) and grouped by cache key;
    /// 2. groups found in the engine's [`NuCache`] are served directly;
    /// 3. the remaining unique formulas are measured on the calling
    ///    thread under the engine's configured method — one
    ///    `CompiledFormula` per unique formula instead of one per
    ///    candidate, and on the sampling routes one shared direction
    ///    pass for all of them;
    /// 4. per-candidate results are rehydrated in input order, with
    ///    [`CertaintyEstimate::cached`] marking values that were shared
    ///    rather than recomputed.
    ///
    /// For a fixed seed the answers are **bit-identical** to the plain
    /// sequential per-candidate loop (`dedup: false`): the
    /// measured representative is the structural canonical form, which
    /// every evaluator treats exactly like the original formula, and
    /// asymptotic grouping is restricted to the sampling route where
    /// group members evaluate identically at every direction
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
        rehydrate(candidates.into_iter(), &slots, results, stats)
    }

    /// The front half of [`CertaintyEngine::measure_batch`], runnable
    /// once per query template: canonicalize every uncertain candidate,
    /// dedup into groups, build cache keys, and (with rewriting on)
    /// prepare the per-class rewrite outcome. The resulting
    /// [`BatchPlan`] contains no measurements — execute it with
    /// [`CertaintyEngine::execute_plan`], as often as needed.
    pub fn prepare_batch(&self, candidates: Vec<CandidateAnswer>) -> BatchPlan {
        // Groups: the work to measure (the structural canonical form
        // when dedup is on — bit-identical to the member formulas — or
        // the original formula verbatim when dedup is off; with
        // rewriting enabled, the per-class prepared rewrite outcome)
        // plus the ν-cache key (`None` with dedup off: nothing is
        // shared).
        let mut groups: Vec<(Work, Option<String>)> = Vec::new();
        let mut by_key: HashMap<String, usize> = HashMap::new();
        let mut slots: Vec<Slot> = Vec::with_capacity(candidates.len());
        let (mut certain, mut dedup_hits) = (0, 0);
        // Structural interning memoizes canonicalization across literal
        // repeats; route selection (simplification + key build — the
        // whole rewrite pipeline when enabled) runs once per structural
        // class, not per candidate.
        let mut interner = canonical::FormulaInterner::new();
        let mut key_of_class: HashMap<u32, (String, Option<Box<RewriteOutcome>>)> = HashMap::new();

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
            let class = interner.intern(&cand.formula);
            let key = key_of_class
                .entry(class)
                .or_insert_with(|| self.prepare_group(interner.get(class)))
                .0
                .clone();
            match by_key.entry(key) {
                Entry::Occupied(e) => {
                    dedup_hits += 1;
                    slots.push(Slot::Group(*e.get(), false));
                }
                Entry::Vacant(e) => {
                    // The prepared outcome is cloned only here — once per
                    // group, not per candidate (dedup hits need the key
                    // alone).
                    let work = match &key_of_class[&class].1 {
                        Some(out) => Work::Prepared(out.clone()),
                        None => Work::Formula(Arc::new(interner.get(class).formula.clone())),
                    };
                    groups.push((work, Some(e.key().clone())));
                    e.insert(groups.len() - 1);
                    slots.push(Slot::Group(groups.len() - 1, true));
                }
            }
        }
        BatchPlan { candidates, slots, groups, certain, dedup_hits }
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
        let outcome = rehydrate(plan.candidates.iter().cloned(), &plan.slots, results, stats);
        sink.record_stage(Stage::Rehydrate, observed_nanos(begun));
        outcome
    }

    /// Shared back half: cache lookups, measurement of the misses,
    /// trace aggregation, cache publication. Returns per-group
    /// results (in plan group order) plus the filled-in stats. The
    /// optional sink receives the ν-lookup and measurement durations;
    /// it is write-only (see [`CertaintyEngine::execute_plan`]).
    #[allow(clippy::type_complexity)]
    fn run_plan(
        &self,
        plan: &BatchPlan,
        mut sink: Option<&mut (dyn StageSink + '_)>,
    ) -> (Vec<Option<Result<CertaintyEstimate, MeasureError>>>, BatchStats) {
        let fingerprint = self.options.fingerprint();
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
        let mut results: Vec<Option<Result<CertaintyEstimate, MeasureError>>> =
            Vec::with_capacity(plan.groups.len());
        for (_, key) in &plan.groups {
            let served = match (self.cache.as_ref(), key) {
                (Some(cache), Some(key)) => cache.get(key, fingerprint),
                _ => None,
            };
            if let Some(est) = served {
                stats.cache_hits += 1;
                results.push(Some(Ok(est)));
            } else {
                results.push(None);
            }
        }
        if let (Some(sink), Some(begun)) = (sink.as_deref_mut(), lookup_begun) {
            sink.record_stage(Stage::NuLookup, observed_nanos(begun));
        }
        // analyze: allow(nondet-source, reason = "observational span timing: the instant flows only into the StageSink, never into estimates; read-back from pinned code is barred by the trace-flow lint")
        let measure_begun = sink.is_some().then(std::time::Instant::now);

        // Measure the not-yet-known groups on this thread: all at once
        // on the shared-direction route where it applies, otherwise one
        // group at a time.
        let pending: Vec<usize> =
            results.iter().enumerate().filter_map(|(i, r)| r.is_none().then_some(i)).collect();
        stats.measured = pending.len();
        let mut traces: Vec<Option<RewriteTrace>> = vec![None; plan.groups.len()];
        if !self.measure_pending_shared(plan, &pending, &mut results) {
            for &gi in &pending {
                let result = self.measure_work(&plan.groups[gi].0);
                let failed = result.is_err();
                results[gi] = Some(result.map(|(est, trace)| {
                    traces[gi] = trace;
                    est
                }));
                if failed {
                    // Groups are in first-occurrence order, so this error
                    // is the first one in candidate order: later groups
                    // would be discarded anyway.
                    break;
                }
            }
        }
        for trace in traces.iter().flatten() {
            stats.rewrite.absorb(trace);
        }

        // Publish fresh results to the persistent cache.
        if let Some(cache) = self.cache.as_ref() {
            for &gi in &pending {
                if let (Some(Ok(est)), Some(key)) = (&results[gi], &plan.groups[gi].1) {
                    cache.insert(key.clone(), fingerprint, est.clone());
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
    /// arity), keeping candidates whose measure exceeds `min_certainty`.
    fn answers_enumerated(
        &self,
        query: &Query,
        db: &Database,
        min_certainty: f64,
    ) -> Result<Vec<AnswerWithCertainty>, MeasureError> {
        let dom = ActiveDomain::collect(db, query, &[]);
        let mut out = Vec::new();
        let mut candidate = Vec::with_capacity(query.arity());
        self.enumerate(query, db, &dom, &mut candidate, min_certainty, &mut out)?;
        Ok(out)
    }

    fn enumerate(
        &self,
        query: &Query,
        db: &Database,
        dom: &ActiveDomain,
        candidate: &mut Vec<Value>,
        min_certainty: f64,
        out: &mut Vec<AnswerWithCertainty>,
    ) -> Result<(), MeasureError> {
        let i = candidate.len();
        if i == query.arity() {
            let tuple = Tuple::new(candidate.clone());
            let phi = ground::ground(query, db, &tuple)?;
            let certainty = self.nu(&phi)?;
            if exceeds_min_certainty(&certainty, min_certainty) {
                out.push(AnswerWithCertainty { tuple, certainty, formula: Arc::new(phi) });
            }
            return Ok(());
        }
        let domain: &[Value] = match query.free_vars()[i].sort {
            Sort::Base => dom.base(),
            Sort::Num => dom.num(),
        };
        for v in domain {
            candidate.push(v.clone());
            self.enumerate(query, db, dom, candidate, min_certainty, out)?;
            candidate.pop();
        }
        Ok(())
    }
}

/// Saturating nanoseconds since a span start, for [`StageSink`]
/// recording (observational only; see the pragma'd call sites).
fn observed_nanos(begun: std::time::Instant) -> u64 {
    u64::try_from(begun.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Rehydrates per-candidate answers in input order from per-group
/// results; the first error in candidate order aborts, matching the
/// sequential loop.
fn rehydrate(
    candidates: impl Iterator<Item = CandidateAnswer>,
    slots: &[Slot],
    mut results: Vec<Option<Result<CertaintyEstimate, MeasureError>>>,
    stats: BatchStats,
) -> Result<BatchOutcome, MeasureError> {
    let mut answers = Vec::with_capacity(slots.len());
    for (cand, slot) in candidates.zip(slots) {
        let certainty = match *slot {
            Slot::Certain => CertaintyEstimate::exact_rational(Rational::ONE, 0),
            Slot::Group(gi, first) => match &results[gi] {
                Some(Ok(est)) => {
                    let mut est = est.clone();
                    // Dedup-served members share the group's value
                    // instead of recomputing; cache-served groups arrive
                    // pre-flagged from `run_plan`.
                    est.cached |= !first;
                    est
                }
                Some(Err(_)) => {
                    return Err(results[gi].take().expect("checked").expect_err("is error"));
                }
                // Only reachable past an early error break, and the
                // erroring group's first candidate precedes every
                // unmeasured group's candidates, so the Err branch
                // above returns first.
                None => unreachable!("unmeasured group after error return"),
            },
        };
        answers.push(AnswerWithCertainty { tuple: cand.tuple, certainty, formula: cand.formula });
    }
    Ok(BatchOutcome { answers, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
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
        use qarith_constraints::{Atom, ConstraintOp, Polynomial, Var};
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

    #[test]
    fn shared_fanout_is_bit_identical() {
        use qarith_constraints::{Atom, ConstraintOp, Polynomial, Var};
        let atom = |p: Polynomial| QfFormula::atom(Atom::new(p, ConstraintOp::Gt));
        let z = |i: u32| Polynomial::var(Var(i));
        // Four distinct canonical classes: one 1-D, one 2-D linear
        // (exact-applicable under Auto), two 2-D nonlinear sharing a
        // sampled dimension.
        let candidates = vec![
            uncertain_candidate(atom(z(0)), 1),
            uncertain_candidate(atom(z(0) + z(1)), 2),
            uncertain_candidate(atom(z(0) * z(1)), 3),
            uncertain_candidate(atom(z(0) * z(1) + z(0)), 4),
        ];

        for method in [MethodChoice::Afpras, MethodChoice::Auto] {
            // The reference is the plain single-formula route, which
            // never touches the batch fan-out.
            let engine =
                CertaintyEngine::new(MeasureOptions { method, ..MeasureOptions::default() });
            let s = engine.measure_batch(candidates.clone()).unwrap();
            assert_eq!(s.stats.groups, 4, "{method:?}: four canonical classes");
            for (x, cand) in s.answers.iter().zip(&candidates) {
                let direct = engine.nu(&cand.formula).unwrap();
                assert_eq!(
                    fingerprint_of(&x.certainty),
                    fingerprint_of(&direct),
                    "{method:?}: shared fan-out must not change a bit"
                );
            }
            // Auto resolved the 1-D and 2-D-linear classes exactly,
            // inline.
            if method == MethodChoice::Auto {
                assert!(s.answers[0].certainty.exact.is_some(), "1-D class routed exact");
                assert!(s.answers[2].certainty.exact.is_none(), "nonlinear class sampled");
            }
        }
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
        use qarith_constraints::{Atom, ConstraintOp, Polynomial, Var};
        let certain = CandidateAnswer {
            tuple: Tuple::new(vec![Value::int(0)]),
            formula: Arc::new(QfFormula::True),
            derivations: 0,
            certain: true,
            truncated: false,
        };
        let nonlinear = uncertain_candidate(
            QfFormula::atom(Atom::new(
                Polynomial::var(Var(0)) * Polynomial::var(Var(1)),
                ConstraintOp::Lt,
            )),
            1,
        );
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
