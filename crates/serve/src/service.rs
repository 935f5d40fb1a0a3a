//! The long-lived query service: prepared plans over a shared engine.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use qarith_core::{
    AnswerWithCertainty, BatchPlan, BatchStats, CacheStats, CertaintyEngine, MeasureOptions,
    NuCache, NuCacheConfig,
};
use qarith_engine::cq;
use qarith_query::Formula;
use qarith_trace::{LatencyStats, RequestTrace, SlowRecord, Stage, Tracer};
use qarith_types::{Catalog, Database, WriteBatch, WriteOp};

use crate::admission::{AdmissionGate, AdmissionStats};
use crate::epoch::{Snapshot, WriteOutcome};
use crate::error::ServeError;

/// Configuration of a [`QueryService`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Measurement options of the shared engine. The options'
    /// fingerprint keys the ν-cache, so every request served by one
    /// service shares one fingerprint — exactly the regime the cache is
    /// built for. [`BatchOptions::threads`] here is per-*request*
    /// fan-out; a service whose concurrency comes from its clients
    /// typically leaves it at 1.
    ///
    /// [`BatchOptions::threads`]: qarith_core::BatchOptions
    pub options: MeasureOptions,
    /// Sharding and memory budget of the service's ν-cache.
    pub cache: NuCacheConfig,
    /// Admission-control cap on concurrently executing queries;
    /// arrivals beyond it queue (see [`crate::admission`]).
    pub max_in_flight: usize,
    /// Cap on cached plans, with least-recently-used eviction (rounded
    /// up to 1). Fingerprints include literal values, so traffic whose
    /// literals vary per request (per-user thresholds) mints unbounded
    /// distinct templates — without a cap the plan cache would
    /// reintroduce the unbounded-memory failure the sharded ν-cache
    /// exists to prevent. Like ν-cache eviction, plan eviction is
    /// cost-only: plans are deterministic functions of the template,
    /// so a rebuilt plan is interchangeable with the evicted one.
    pub max_plans: usize,
    /// Slow-query capture threshold in nanoseconds; requests whose
    /// end-to-end time reaches it are recorded in the bounded
    /// slow-query log ([`QueryService::slow_queries`]). 0 (the
    /// default) disables capture. Tunable later via
    /// [`QueryService::set_slow_threshold`].
    pub slow_threshold_nanos: u64,
}

impl Default for ServeConfig {
    /// Default engine options, the default 16-shard/64 MiB cache, a
    /// 64-wide admission gate, and a 1024-plan cache.
    fn default() -> Self {
        ServeConfig {
            options: MeasureOptions::default(),
            cache: NuCacheConfig::default(),
            max_in_flight: 64,
            max_plans: 1024,
            slow_threshold_nanos: 0,
        }
    }
}

/// Service-level counters (the plan cache, request accounting, and the
/// write path; the ν-cache and admission gate export their own blocks).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Queries served (admitted and completed or failed).
    pub queries: u64,
    /// Requests whose template hit the plan cache (with its relation
    /// versions still current).
    pub plan_hits: u64,
    /// Requests that had to build a plan (first sighting of a template,
    /// a concurrent race on one — each racer builds and counts — a
    /// re-request of an evicted template, or a template whose plan a
    /// write invalidated).
    pub plan_misses: u64,
    /// Plans currently cached (≤ [`ServeConfig::max_plans`]).
    pub plans: u64,
    /// Plans evicted under the [`ServeConfig::max_plans`] cap since
    /// creation (cost shifted to rebuild; answers unchanged).
    pub plan_evictions: u64,
    /// The current epoch number (a gauge: 0 is the load-time database,
    /// each committed write batch publishes the next).
    pub epoch: u64,
    /// Write batches committed ([`QueryService::apply`] calls that
    /// returned `Ok`).
    pub writes: u64,
    /// Individual ops inside committed batches (including well-typed
    /// no-ops).
    pub write_ops: u64,
    /// Cached plans dropped because a write touched a relation they
    /// depend on (the eager sweep plus lazy stale-hit removals).
    pub plan_invalidations: u64,
}

impl ServiceStats {
    /// The counters as stable `(name, value)` pairs, in declaration
    /// order — the machine-readable export `serve_bench` serializes
    /// into `BENCH_*.json`. Names are part of the JSON schema: renaming
    /// one is a baseline-breaking change.
    pub fn as_pairs(&self) -> [(&'static str, u64); 9] {
        [
            ("queries", self.queries),
            ("plan_hits", self.plan_hits),
            ("plan_misses", self.plan_misses),
            ("plans", self.plans),
            ("plan_evictions", self.plan_evictions),
            ("epoch", self.epoch),
            ("writes", self.writes),
            ("write_ops", self.write_ops),
            ("plan_invalidations", self.plan_invalidations),
        ]
    }
}

/// One served answer set.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// Per-candidate answers, in candidate order (identical across
    /// requests for a fixed template *and epoch* — the service's
    /// options are fixed, and `epoch`/`db_digest` name the database
    /// state the answers are a deterministic function of).
    pub answers: Vec<AnswerWithCertainty>,
    /// Batch accounting of this execution (cache hits vs fresh
    /// measurement).
    pub stats: BatchStats,
    /// `true` iff the template's plan came from the plan cache.
    pub plan_cached: bool,
    /// The template fingerprint the request mapped to.
    pub fingerprint: String,
    /// The request id minted at service entry (threaded into wire
    /// reply frames and slow-log records).
    pub request_id: qarith_trace::RequestId,
    /// The epoch this request executed against (pinned at entry; a
    /// concurrent write publishes a new epoch without disturbing it).
    pub epoch: u64,
    /// Content digest of that epoch's database — the bit-pinning
    /// identity the torture tests match against published epochs.
    pub db_digest: u64,
}

/// A long-lived, thread-safe query-serving engine: one epoch-versioned
/// [`Database`] plus one [`CertaintyEngine`], shared by any number of
/// client threads through `&self` (wrap the service in an [`Arc`] and
/// hand clones to clients).
///
/// Per request ([`QueryService::query`]):
///
/// 1. **admission** — block until the in-flight gate has room;
/// 2. **fingerprint** — normalize the SQL text
///    ([`qarith_sql::sql_fingerprint`]);
/// 3. **snapshot** — pin the current epoch ([`crate::epoch`]): the
///    whole request executes against one immutable database;
/// 4. **plan** — look the fingerprint up in the plan cache and check
///    that the plan's relation versions are still current; on a miss,
///    parse → lower → generate candidates → prepare the batch
///    ([`CertaintyEngine::prepare_batch`]) and publish the plan;
/// 5. **execute** — run the plan's back half
///    ([`CertaintyEngine::execute_plan`]) against the bounded sharded
///    [`NuCache`]: per-group cache lookup, measurement of the misses only.
///
/// Writes ([`QueryService::apply`]) run beside reads: one writer at a
/// time clones the current database (copy-on-write, so only the
/// relations the batch changes are copied), applies its
/// [`WriteBatch`], and publishes the result as the next epoch with a
/// single pointer swap — in-flight readers keep their pinned snapshot,
/// so no request ever observes a half-applied batch.
///
/// **Determinism.** For a fixed epoch (named by
/// [`QueryResponse::db_digest`]) and fixed options, every request for
/// a template returns bit-identical answers, regardless of client
/// concurrency, plan-cache state, or ν-cache eviction and invalidation
/// history: plans are deterministic functions of (template, relation
/// contents), and measurements are deterministic functions of (group,
/// options) — see [`qarith_core::nucache`]. The mutation tests lock
/// this in by comparing against cold-cache rebuilds on the final
/// state.
#[derive(Debug)]
pub struct QueryService {
    /// The current epoch, behind the `EpochStore` lock (see
    /// `analyze.toml`): readers clone the `Arc` out and drop the guard
    /// immediately ([`QueryService::snapshot`]); the writer swaps the
    /// pointer under the write half (`publish`).
    snapshot: RwLock<Arc<Snapshot>>,
    /// Serializes writers for the whole build-next-epoch critical
    /// section (`EpochWriter` in the declared hierarchy — strictly
    /// above `EpochStore`, so a writer may read and swap the pointer
    /// while holding it).
    epoch_writer: Mutex<()>,
    catalog: Catalog,
    engine: CertaintyEngine,
    cache: Arc<NuCache>,
    plans: RwLock<HashMap<String, PlanEntry>>,
    max_plans: usize,
    plan_tick: AtomicU64,
    gate: AdmissionGate,
    queries: AtomicU64,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    plan_evictions: AtomicU64,
    writes: AtomicU64,
    write_ops: AtomicU64,
    plan_invalidations: AtomicU64,
    totals: BatchTotals,
    tracer: Tracer,
}

/// Running sums of every executed request's [`BatchStats`] (including
/// the nested rewrite block), so a long-lived service can export
/// batch-level accounting as monotone counters — the `/metrics`
/// endpoint of `qarith-net` scrapes these. Relaxed atomics: each field
/// is an independent monotone sum, never read transactionally.
#[derive(Debug, Default)]
struct BatchTotals {
    candidates: AtomicU64,
    certain: AtomicU64,
    groups: AtomicU64,
    measured: AtomicU64,
    dedup_hits: AtomicU64,
    cache_hits: AtomicU64,
    rw_groups: AtomicU64,
    rw_factored: AtomicU64,
    rw_factors: AtomicU64,
    rw_exact_factors: AtomicU64,
    rw_dim_before: AtomicU64,
    rw_dim_after: AtomicU64,
}

impl BatchTotals {
    fn absorb(&self, stats: &BatchStats) {
        let add = |counter: &AtomicU64, n: usize| {
            counter.fetch_add(n as u64, Ordering::Relaxed);
        };
        add(&self.candidates, stats.candidates);
        add(&self.certain, stats.certain);
        add(&self.groups, stats.groups);
        add(&self.measured, stats.measured);
        add(&self.dedup_hits, stats.dedup_hits);
        add(&self.cache_hits, stats.cache_hits);
        add(&self.rw_groups, stats.rewrite.groups);
        add(&self.rw_factored, stats.rewrite.factored);
        add(&self.rw_factors, stats.rewrite.factors);
        add(&self.rw_exact_factors, stats.rewrite.exact_factors);
        add(&self.rw_dim_before, stats.rewrite.dim_before);
        add(&self.rw_dim_after, stats.rewrite.dim_after);
    }

    fn snapshot(&self, threads: usize) -> BatchStats {
        let get = |counter: &AtomicU64| counter.load(Ordering::Relaxed) as usize;
        BatchStats {
            candidates: get(&self.candidates),
            certain: get(&self.certain),
            groups: get(&self.groups),
            measured: get(&self.measured),
            dedup_hits: get(&self.dedup_hits),
            cache_hits: get(&self.cache_hits),
            threads,
            rewrite: qarith_core::RewriteStats {
                groups: get(&self.rw_groups),
                factored: get(&self.rw_factored),
                factors: get(&self.rw_factors),
                exact_factors: get(&self.rw_exact_factors),
                dim_before: get(&self.rw_dim_before),
                dim_after: get(&self.rw_dim_after),
            },
        }
    }
}

/// A cached plan — the fully prepared template (parse → lower →
/// ground → canonicalize/dedup → rewrite, run once) — plus its recency
/// stamp and the relation versions it was grounded against. A plan
/// embeds candidates generated from specific relation contents, so it
/// is reusable exactly while every relation in `deps` still has the
/// version it had at build time; a hit on a stale plan is treated as a
/// miss and the entry replaced. `last_used` is an atomic so hits can
/// refresh it under the read lock (the common path never takes the
/// write lock).
#[derive(Debug)]
struct PlanEntry {
    plan: Arc<BatchPlan>,
    /// The relations the template reads, with their versions at build
    /// time ([`Snapshot::version_of`]).
    deps: Vec<(String, u64)>,
    last_used: AtomicU64,
}

impl PlanEntry {
    /// `true` while every dependency still has its build-time version.
    fn current(&self, snap: &Snapshot) -> bool {
        self.deps.iter().all(|(rel, v)| snap.version_of(rel) == *v)
    }
}

/// Collects the relation names a lowered query body reads (the plan's
/// invalidation footprint). Over-approximation would be sound; this is
/// exact — every `Rel` atom names a relation the grounding consulted.
fn collect_relations(formula: &Formula, out: &mut BTreeSet<String>) {
    match formula {
        Formula::Rel { relation, .. } => {
            out.insert(relation.as_ref().to_owned());
        }
        Formula::Not(inner) => collect_relations(inner, out),
        Formula::And(parts) | Formula::Or(parts) => {
            for part in parts {
                collect_relations(part, out);
            }
        }
        Formula::Exists(_, inner) | Formula::Forall(_, inner) => collect_relations(inner, out),
        Formula::True | Formula::False | Formula::BaseEq(..) | Formula::Cmp(..) => {}
    }
}

impl QueryService {
    /// A service over a loaded database, published as epoch 0. The
    /// catalog is fixed for the service's lifetime (writes mutate
    /// tuples, never schemas — there is no DDL), so compiled templates
    /// always lower against a current catalog.
    pub fn new(db: Database, config: ServeConfig) -> QueryService {
        let tracer = Tracer::new();
        tracer.set_slow_threshold(config.slow_threshold_nanos);
        let cache = Arc::new(NuCache::new(config.cache));
        let engine = CertaintyEngine::new(config.options).with_cache(cache.clone());
        let catalog = db.catalog();
        QueryService {
            snapshot: RwLock::new(Arc::new(Snapshot::initial(db))),
            epoch_writer: Mutex::new(()),
            catalog,
            engine,
            cache,
            plans: RwLock::new(HashMap::new()),
            max_plans: config.max_plans.max(1),
            plan_tick: AtomicU64::new(0),
            gate: AdmissionGate::new(config.max_in_flight),
            queries: AtomicU64::new(0),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
            plan_evictions: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            write_ops: AtomicU64::new(0),
            plan_invalidations: AtomicU64::new(0),
            totals: BatchTotals::default(),
            tracer,
        }
    }

    /// Serves one SQL query. Blocks while the admission gate is full.
    ///
    /// Equivalent to [`QueryService::begin_trace`] →
    /// [`QueryService::query_with_trace`] →
    /// [`QueryService::finish_trace`] on the `"inproc"` route; callers
    /// that wrap the request in their own envelope (the wire layer)
    /// use those pieces directly so frame decode/encode time lands in
    /// the same trace.
    pub fn query(&self, sql: &str) -> Result<QueryResponse, ServeError> {
        let mut trace = self.begin_trace();
        let out = self.query_with_trace(sql, &mut trace);
        let fingerprint = out.as_ref().map_or("", |r| r.fingerprint.as_str());
        self.finish_trace(&trace, fingerprint, "inproc");
        out
    }

    /// Mints a [`RequestTrace`] (request id + start instant) for a
    /// request this caller will serve via
    /// [`QueryService::query_with_trace`] or
    /// [`QueryService::apply_with_trace`].
    pub fn begin_trace(&self) -> RequestTrace {
        self.tracer.begin()
    }

    /// Serves one SQL query under a caller-owned trace: every pipeline
    /// stage (admission wait, fingerprint, plan lookup, prepare,
    /// ν-lookup, measure, rehydrate) records its duration into
    /// `trace`. Timing is observational only — answers are
    /// bit-identical to [`QueryService::query`]. The caller finishes
    /// the trace with [`QueryService::finish_trace`].
    pub fn query_with_trace(
        &self,
        sql: &str,
        trace: &mut RequestTrace,
    ) -> Result<QueryResponse, ServeError> {
        let _permit = {
            let _span = trace.span(Stage::AdmissionWait);
            self.gate.acquire()
        };
        self.queries.fetch_add(1, Ordering::Relaxed);
        let fingerprint = {
            let _span = trace.span(Stage::Fingerprint);
            qarith_sql::sql_fingerprint(sql)?
        };
        // Pin the epoch once: plan validation, candidate generation,
        // and measurement all see this one immutable database, however
        // many epochs writers publish meanwhile.
        let snap = self.snapshot()?;
        let (plan, plan_cached) = self.plan_for(sql, &fingerprint, &snap, trace)?;
        let outcome = self.engine.execute_plan(&plan, trace)?;
        self.totals.absorb(&outcome.stats);
        Ok(QueryResponse {
            answers: outcome.answers,
            stats: outcome.stats,
            plan_cached,
            fingerprint,
            request_id: trace.id(),
            epoch: snap.epoch,
            db_digest: snap.digest,
        })
    }

    /// Applies one [`WriteBatch`], publishing the next epoch. Writers
    /// serialize (one epoch builder at a time); readers are never
    /// blocked beyond the pointer swap. The batch is atomic: a type
    /// error publishes nothing.
    ///
    /// Equivalent to [`QueryService::begin_trace`] →
    /// [`QueryService::apply_with_trace`] →
    /// [`QueryService::finish_trace`] on the `"write"` route.
    pub fn apply(&self, batch: &WriteBatch) -> Result<WriteOutcome, ServeError> {
        let mut trace = self.begin_trace();
        let out = self.apply_with_trace(batch, &mut trace);
        self.finish_trace(&trace, "", "write");
        out
    }

    /// [`QueryService::apply`] under a caller-owned trace: epoch
    /// construction records into [`Stage::WriteApply`], cache and plan
    /// invalidation into [`Stage::Invalidate`].
    ///
    /// Writes bypass the admission gate — they serialize on the epoch
    /// writer lock instead, and gating them behind query traffic would
    /// let a full gate starve the write path the queries themselves
    /// are waiting on.
    pub fn apply_with_trace(
        &self,
        batch: &WriteBatch,
        trace: &mut RequestTrace,
    ) -> Result<WriteOutcome, ServeError> {
        let _writer =
            self.epoch_writer.lock().map_err(|_| ServeError::LockPoisoned("epoch writer"))?;
        let (next, summary, touched) = {
            let _span = trace.span(Stage::WriteApply);
            let current = self.snapshot()?;
            let mut db = (*current.db).clone();
            let summary = db.apply_batch(batch).map_err(ServeError::Write)?;
            // Conservative footprint: every relation the batch names.
            // A batch of pure no-ops changed nothing, so it bumps no
            // versions (and therefore invalidates nothing), but still
            // publishes an epoch so every committed write has one.
            let touched: Vec<String> = if summary.applied > 0 {
                let names: BTreeSet<&str> = batch.ops.iter().map(WriteOp::relation).collect();
                names.into_iter().map(str::to_owned).collect()
            } else {
                Vec::new()
            };
            let next = Arc::new(current.next(db, &touched));
            self.publish(next.clone())?;
            (next, summary, touched)
        };
        let (invalidated_keys, invalidated_entries, plans_invalidated) = {
            let _span = trace.span(Stage::Invalidate);
            let plans_invalidated = self.sweep_plans(&touched)?;
            self.plan_invalidations.fetch_add(plans_invalidated, Ordering::Relaxed);
            let (keys, entries) = self.cache.invalidate_relations(&touched);
            (keys, entries, plans_invalidated)
        };
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.write_ops.fetch_add(batch.ops.len() as u64, Ordering::Relaxed);
        Ok(WriteOutcome {
            epoch: next.epoch,
            db_digest: next.digest,
            applied: summary.applied as u64,
            noops: summary.noops as u64,
            invalidated_keys,
            invalidated_entries,
            plans_invalidated,
        })
    }

    /// Finishes a trace begun with [`QueryService::begin_trace`]:
    /// folds its per-stage durations into the service histograms
    /// ([`QueryService::latency_stats`]) and captures a slow-log
    /// record when the total crosses the configured threshold.
    /// `route` names the entry point (`"inproc"`, `"wire"`,
    /// `"write"`).
    pub fn finish_trace(&self, trace: &RequestTrace, fingerprint: &str, route: &'static str) {
        let epsilon = self.engine.options().afpras.epsilon;
        self.tracer.finish(trace, fingerprint, epsilon, route);
    }

    /// The current snapshot. The `EpochStore` read guard is confined
    /// to this body: callers get the `Arc` and the lock is already
    /// released, so no downstream lock is ever taken under it.
    pub fn snapshot(&self) -> Result<Arc<Snapshot>, ServeError> {
        match self.snapshot.read() {
            Ok(guard) => Ok(guard.clone()),
            // A poisoned epoch store means a writer panicked mid-swap;
            // the pointer itself is always whole (the swap is one
            // assignment), but the poison marks the writer's batch as
            // abandoned — fail requests cleanly and let the operator
            // restart.
            Err(_) => Err(ServeError::LockPoisoned("epoch store")),
        }
    }

    /// Publishes the next epoch (the write half of the `EpochStore`
    /// lock, confined to this body; the caller holds `EpochWriter`).
    fn publish(&self, next: Arc<Snapshot>) -> Result<(), ServeError> {
        match self.snapshot.write() {
            Ok(mut guard) => {
                *guard = next;
                Ok(())
            }
            Err(_) => Err(ServeError::LockPoisoned("epoch store")),
        }
    }

    /// Eagerly drops cached plans that depend on any touched relation,
    /// returning how many. Racing readers that already cloned such a
    /// plan are unaffected — their snapshot still has the versions the
    /// plan was built for.
    fn sweep_plans(&self, touched: &[String]) -> Result<u64, ServeError> {
        if touched.is_empty() {
            return Ok(0);
        }
        let mut plans = self.plans.write().map_err(|_| ServeError::LockPoisoned("plan cache"))?;
        let before = plans.len();
        plans
            .retain(|_, entry| !entry.deps.iter().any(|(rel, _)| touched.iter().any(|t| t == rel)));
        Ok((before - plans.len()) as u64)
    }

    /// Plan-cache lookup with build-on-miss, version validation, and
    /// LRU eviction under [`ServeConfig::max_plans`]. Racing builders
    /// for one fingerprint each build (plans are deterministic given
    /// the relation contents, so copies built against one snapshot are
    /// interchangeable); the first publication wins and the rest adopt
    /// it — unless its versions are stale for this request's snapshot,
    /// in which case the fresher build replaces it.
    fn plan_for(
        &self,
        sql: &str,
        fingerprint: &str,
        snap: &Snapshot,
        trace: &mut RequestTrace,
    ) -> Result<(Arc<BatchPlan>, bool), ServeError> {
        // A poisoned plan-cache lock means an earlier request panicked
        // while publishing; the map may hold a half-finished update, so
        // fail this request cleanly rather than trusting it (the
        // ν-cache, by contrast, can degrade to misses — see
        // `qarith_core::nucache`).
        fn poisoned<Guard>(_: std::sync::PoisonError<Guard>) -> ServeError {
            ServeError::LockPoisoned("plan cache")
        }
        {
            let _span = trace.span(Stage::PlanLookup);
            if let Some(entry) = self.plans.read().map_err(poisoned)?.get(fingerprint) {
                if entry.current(snap) {
                    self.plan_hits.fetch_add(1, Ordering::Relaxed);
                    entry
                        .last_used
                        .store(self.plan_tick.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
                    return Ok((entry.plan.clone(), true));
                }
                // Stale: a write bumped one of the plan's relations
                // after the eager sweep raced past this entry, or this
                // reader pinned a newer snapshot than the builder's.
                // Fall through to a rebuild against our snapshot.
            }
        }
        self.plan_misses.fetch_add(1, Ordering::Relaxed);
        // Build outside any lock: candidate generation and preparation
        // are the expensive half, and other templates must keep flowing.
        let (built, deps) = self.build_plan(sql, snap, trace)?;
        let built = Arc::new(built);
        // Register the plan's group keys in the delta index before
        // publication, so a write landing between the two still finds
        // them.
        let relations: Vec<String> = deps.iter().map(|(rel, _)| rel.clone()).collect();
        self.cache.register(&relations, built.group_keys().flatten());
        let tick = self.plan_tick.fetch_add(1, Ordering::Relaxed);
        let _span = trace.span(Stage::PlanLookup);
        let mut plans = self.plans.write().map_err(poisoned)?;
        let stale = plans.get(fingerprint).is_some_and(|entry| !entry.current(snap));
        if stale {
            // Lazy invalidation: the resident plan predates a write.
            // Replace it with ours (counted alongside the eager
            // sweep's removals).
            plans.remove(fingerprint);
            self.plan_invalidations.fetch_add(1, Ordering::Relaxed);
        }
        if !plans.contains_key(fingerprint) {
            // Evict least-recently-used templates down to cap − 1. The
            // O(n) scan is fine: it runs only on publication, which is
            // already the expensive (plan-building) path, and n ≤ cap.
            while plans.len() >= self.max_plans {
                let victim = plans
                    .iter()
                    .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                    .map(|(k, _)| k.clone());
                let Some(victim) = victim else { break };
                plans.remove(&victim);
                self.plan_evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let plan = plans
            .entry(fingerprint.to_string())
            .or_insert_with(|| PlanEntry { plan: built, deps, last_used: AtomicU64::new(tick) })
            .plan
            .clone();
        Ok((plan, false))
    }

    /// The front half, template-granular: parse + lower against the
    /// catalog, generate candidates under the template's LIMIT
    /// semantics (folded into the executor options), prepare the
    /// batch. Returns the plan plus its relation-version dependencies
    /// against `snap`. One [`Stage::Prepare`] span covers both the SQL
    /// front (parse, lower, candidate generation — "grounding") and the
    /// engine's batch preparation: together they are the template-build
    /// cost a plan-cache hit saves.
    fn build_plan(
        &self,
        sql: &str,
        snap: &Snapshot,
        trace: &mut RequestTrace,
    ) -> Result<(BatchPlan, Vec<(String, u64)>), ServeError> {
        let _span = trace.span(Stage::Prepare);
        let lowered = qarith_sql::compile(sql, &self.catalog)?;
        let mut relations = BTreeSet::new();
        collect_relations(lowered.query.body(), &mut relations);
        let deps: Vec<(String, u64)> = relations
            .into_iter()
            .map(|rel| {
                let version = snap.version_of(&rel);
                (rel, version)
            })
            .collect();
        let candidates = cq::execute(&lowered.query, &snap.db, &lowered.cq_options())?;
        Ok((self.engine.prepare_batch(candidates), deps))
    }

    /// The engine's options (fixed for the service's lifetime).
    pub fn options(&self) -> &MeasureOptions {
        self.engine.options()
    }

    /// Service-level counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            queries: self.queries.load(Ordering::Relaxed),
            plan_hits: self.plan_hits.load(Ordering::Relaxed),
            plan_misses: self.plan_misses.load(Ordering::Relaxed),
            // Counters must never panic; a poisoned cache reports 0
            // resident plans (requests themselves fail with
            // `LockPoisoned`, which is the visible signal).
            plans: self.plans.read().map_or(0, |p| p.len() as u64),
            plan_evictions: self.plan_evictions.load(Ordering::Relaxed),
            // Same policy for the epoch gauge on a poisoned store.
            epoch: self.snapshot().map_or(0, |s| s.epoch),
            writes: self.writes.load(Ordering::Relaxed),
            write_ops: self.write_ops.load(Ordering::Relaxed),
            plan_invalidations: self.plan_invalidations.load(Ordering::Relaxed),
        }
    }

    /// Counters of the service's ν-cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Running sums of every executed request's [`BatchStats`]
    /// (including the nested rewrite block) since creation, with
    /// `threads` reporting the configured per-request fan-out. This is
    /// the monotone-counter view a metrics scrape wants; per-request
    /// accounting stays on [`QueryResponse::stats`].
    pub fn batch_totals(&self) -> BatchStats {
        self.totals.snapshot(self.engine.options().batch.threads)
    }

    /// Counters of the admission gate.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.gate.stats()
    }

    /// A snapshot of every per-stage latency histogram (admission wait
    /// through write apply and invalidate, plus the end-to-end total),
    /// in [`Stage::ALL`] order. This is the `/metrics` histogram
    /// source and the schema-v4 BENCH per-stage summary source.
    pub fn latency_stats(&self) -> LatencyStats {
        self.tracer.latency_stats()
    }

    /// The slow-query log: every request whose end-to-end time reached
    /// [`ServeConfig::slow_threshold_nanos`], oldest first, bounded by
    /// the ring capacity.
    pub fn slow_queries(&self) -> Vec<SlowRecord> {
        self.tracer.slow_queries()
    }

    /// The slow-query log as a JSON array (the `GET /slow` body).
    pub fn slow_queries_json(&self) -> String {
        self.tracer.slow_json()
    }

    /// Adjusts the slow-query capture threshold at runtime
    /// (nanoseconds; 0 disables capture).
    pub fn set_slow_threshold(&self, nanos: u64) {
        self.tracer.set_slow_threshold(nanos);
    }

    /// The slow-query capture threshold currently in force.
    pub fn slow_threshold(&self) -> u64 {
        self.tracer.slow_threshold()
    }
}
