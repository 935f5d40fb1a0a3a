//! The long-lived query service: prepared plans over a shared engine.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use qarith_core::afpras::{AfprasOptions, SampleCount};
use qarith_core::lru::Lru;
use qarith_core::{
    AnswerWithCertainty, BatchPlan, BatchStats, CacheStats, CertaintyEngine, MeasureOptions,
    MethodChoice, NuCache, NuCacheConfig,
};
use qarith_engine::cq::{self, ReadFootprint, WriteDelta};
use qarith_engine::EngineError;
use qarith_sql::{SelectStatement, SqlError};
use qarith_trace::{LatencyStats, RequestTrace, SlowRecord, Stage, Tracer};
use qarith_types::{Catalog, Database, WriteBatch};

use crate::admission::{AdmissionGate, AdmissionStats};
use crate::epoch::{Snapshot, WriteOutcome};
use crate::error::ServeError;

/// Configuration of a [`QueryService`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Measurement options of the shared engine. The options'
    /// fingerprint keys the ν-cache, so every request served by one
    /// service shares one fingerprint — exactly the regime the cache is
    /// built for. Each request measures its plan's ν misses on its own
    /// thread; a service's concurrency comes from its clients.
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
    ///
    /// The same cap bounds the text memo (exact SQL text → fingerprint,
    /// filled by texts that hit a cached plan; see
    /// [`QueryService`] step 2), so distinct spellings cannot grow it
    /// without bound either.
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

impl ServeConfig {
    /// The serving regime of `netd` and `serve_bench`: forced AFPRAS at
    /// the paper's §8 sample count `m = ⌈ε⁻²⌉`, sampling seed
    /// `seed ^ 0xF1616` (the workload suite's derivation, so suite and
    /// serving runs at equal config sample identically), and every other
    /// field at its default (canonical dedup on). Every pinned
    /// serving certainty digest was recorded under these options, and
    /// their fingerprint keys the ν-cache.
    ///
    /// The repository benchmark keeps its own copy of these options
    /// (`serving_options` in `perfbench/src/lib.rs`) until the benchmark
    /// itself next changes; its reply check fails if the two drift.
    pub fn paper_afpras(epsilon: f64, seed: u64) -> ServeConfig {
        let options = MeasureOptions {
            method: MethodChoice::Afpras,
            afpras: AfprasOptions {
                epsilon,
                samples: SampleCount::Paper,
                seed: seed ^ 0xF1616,
                ..AfprasOptions::default()
            },
            ..MeasureOptions::default()
        };
        ServeConfig { options, ..ServeConfig::default() }
    }
}

/// Service-level counters (the plan cache, request accounting, and the
/// write path; the ν-cache and admission gate export their own blocks).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Queries served (admitted and completed or failed).
    pub queries: u64,
    /// Requests whose template hit a cached plan that is exact on the
    /// request's epoch (built on or before it, and checked through it
    /// by every write since).
    pub plan_hits: u64,
    /// Requests that had to build a plan (first sighting of a template,
    /// a concurrent race on one — each racer builds and counts — a
    /// re-request of an evicted template, a template whose plan a write
    /// dropped, or a request on an epoch its resident plan is not
    /// checked through).
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
    /// Cached plans writes dropped ([`WriteOutcome::plans_invalidated`]
    /// summed): plans whose read footprint a batch affected, and plans
    /// not checked through the epoch before a batch. A reader that
    /// replaces a plan not checked through its own epoch does not count
    /// here.
    pub plan_invalidations: u64,
    /// Rows plan builds' joins matched against their atoms, summed over
    /// every build ([`cq::execute_recorded`]'s row count): each row a
    /// scan visits, and each row an index probe returns that holds the
    /// whole key. An exact measure of the join's work.
    pub join_rows: u64,
    /// Formula nodes plan builds encoded into ν-cache group keys, summed
    /// over every build ([`BatchPlan::key_nodes`]). An exact measure of
    /// the key-building work.
    pub key_nodes: u64,
}

impl ServiceStats {
    /// The counters as stable `(name, value)` pairs, in declaration
    /// order — the machine-readable export `serve_bench` serializes
    /// into `BENCH_*.json`. Names are part of the JSON schema: renaming
    /// one is a baseline-breaking change.
    pub fn as_pairs(&self) -> [(&'static str, u64); 11] {
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
            ("join_rows", self.join_rows),
            ("key_nodes", self.key_nodes),
        ]
    }
}

/// A plan-cache entry's write-once slot for the rendered reply block
/// ([`QueryResponse::render_slot`]).
pub type RenderSlot = Arc<OnceLock<String>>;

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
    /// The plan-cache entry's write-once render slot: the reply block
    /// after the header line (the `fp` line, the answer lines and the
    /// `stats` line of the wire grammar in `qarith-net`'s `frame`
    /// module), rendered by the first request that gets the slot and
    /// re-sent by every later one. Present only when the plan came from
    /// the plan cache and this execution measured nothing: every
    /// group's ν then came from the ν-cache, which holds a
    /// deterministic function of its key, so the fingerprint, each
    /// answer with its provenance flags, and the batch counters depend
    /// on the plan alone. The slot lives and dies with its plan entry:
    /// a write that keeps the plan keeps the slot, and a rebuilt plan
    /// starts an empty one. Only the wire encoder fills it; `None`
    /// means render from the fields above.
    pub render_slot: Option<RenderSlot>,
}

/// A long-lived, thread-safe query-serving engine: one epoch-versioned
/// [`Database`] plus one [`CertaintyEngine`], shared by any number of
/// client threads through `&self` (wrap the service in an [`Arc`] and
/// hand clones to clients).
///
/// Per request ([`QueryService::query`]):
///
/// 1. **admission** — block until the in-flight gate has room;
/// 2. **fingerprint** — look the exact SQL text up in the text memo;
///    on a miss, parse it once ([`qarith_sql::parse_select`]) and
///    normalize the statement ([`qarith_sql::fingerprint::fingerprint`]).
///    A text is memoized once it has hit a cached plan, so a repeated
///    text skips parse and fingerprint; at most
///    [`ServeConfig::max_plans`] texts are memoized, and a poisoned
///    memo counts as a miss (every entry is a deterministic function of
///    its text, so losing it costs a parse, never an answer);
/// 3. **snapshot** — pin the current epoch ([`crate::epoch`]): the
///    whole request executes against one immutable database;
/// 4. **plan** — look the fingerprint up in the plan cache and check
///    that the plan is exact on the pinned epoch; on a miss, lower the
///    parsed statement (parsing it there if the memo skipped the
///    parse) → generate candidates, recording the join's read
///    footprint ([`cq::execute_recorded`]) → prepare the batch
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
/// so no request ever observes a half-applied batch. The writer then
/// checks every cached plan's read footprint against the batch and
/// drops only the plans whose candidates it could change.
///
/// **Determinism.** For a fixed epoch (named by
/// [`QueryResponse::db_digest`]) and fixed options, every request for
/// a template returns bit-identical answers, regardless of client
/// concurrency, plan-cache state, ν-cache eviction, or the writes that
/// came before: plans are deterministic functions of (template, the
/// rows the join visits), and measurements are deterministic functions
/// of (group, options) — see [`qarith_core::nucache`]. A plan serves
/// only the epochs from the one it was built on through the last one
/// its read footprint was checked through, and a write that leaves the
/// visited rows in place and in order leaves the plan's candidates as
/// they were. That is why a write drops only the plans its rows could
/// change, and no ν entry. The mutation tests lock this in by comparing
/// against cold-cache rebuilds after every write.
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
    /// The cached plans by fingerprint, at most
    /// [`ServeConfig::max_plans`] of them (the `PlanCache` lock class).
    plans: Mutex<Lru<Arc<str>, PlanEntry>>,
    /// The text memo: exact SQL text → fingerprint, for texts that hit
    /// a cached plan, at most [`ServeConfig::max_plans`] of them (the
    /// `TextMemo` lock class; its guards are never held while another
    /// guard is taken).
    texts: Mutex<Lru<Arc<str>, String>>,
    gate: AdmissionGate,
    queries: AtomicU64,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    writes: AtomicU64,
    write_ops: AtomicU64,
    plan_invalidations: AtomicU64,
    join_rows: AtomicU64,
    key_nodes: AtomicU64,
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

    fn snapshot(&self) -> BatchStats {
        let get = |counter: &AtomicU64| counter.load(Ordering::Relaxed) as usize;
        BatchStats {
            candidates: get(&self.candidates),
            certain: get(&self.certain),
            groups: get(&self.groups),
            measured: get(&self.measured),
            dedup_hits: get(&self.dedup_hits),
            cache_hits: get(&self.cache_hits),
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
/// ground → canonicalize/dedup → rewrite, run once) — plus the read
/// footprint its join recorded and the epochs it is exact on. A plan
/// embeds candidates generated from the rows its join visited; it is
/// exact on every epoch from `built` through `checked`, because each
/// write since `built` was checked against the footprint
/// ([`ReadFootprint::affected_by`]) and left those rows in place and in
/// order. A request on any other epoch treats the entry as a miss, and
/// its rebuild replaces the entry if it is the fresher one.
struct PlanEntry {
    plan: Arc<BatchPlan>,
    /// The plan's rendered reply block ([`QueryResponse::render_slot`]),
    /// made on the plan's first hit: a plan that is never hit again
    /// (per-request literals) allocates none.
    render_slot: OnceLock<RenderSlot>,
    /// What the plan's join read ([`cq::execute_recorded`]).
    footprint: ReadFootprint,
    /// The epoch of the snapshot the plan was built on.
    built: u64,
    /// The last epoch the footprint was checked through.
    checked: u64,
}

impl PlanEntry {
    /// `true` iff the plan is exact on `epoch`.
    fn serves(&self, epoch: u64) -> bool {
        self.built <= epoch && epoch <= self.checked
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
            plans: Mutex::new(Lru::new(config.max_plans.max(1))),
            texts: Mutex::new(Lru::new(config.max_plans.max(1))),
            gate: AdmissionGate::new(config.max_in_flight),
            queries: AtomicU64::new(0),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            write_ops: AtomicU64::new(0),
            plan_invalidations: AtomicU64::new(0),
            join_rows: AtomicU64::new(0),
            key_nodes: AtomicU64::new(0),
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
        // Parse once: the statement is fingerprinted here and, on a plan
        // miss, lowered by `build_plan`. A memoized text skips both.
        let (stmt, fingerprint) = {
            let _span = trace.span(Stage::Fingerprint);
            match self.memoized(sql) {
                Some(fingerprint) => (None, fingerprint),
                None => {
                    let stmt = qarith_sql::parse_select(sql)?;
                    let fingerprint = qarith_sql::fingerprint::fingerprint(&stmt);
                    (Some(stmt), fingerprint)
                }
            }
        };
        let memo_missed = stmt.is_some();
        // Pin the epoch once: plan validation, candidate generation,
        // and measurement all see this one immutable database, however
        // many epochs writers publish meanwhile.
        let snap = self.snapshot()?;
        let (plan, render_slot) = self.plan_for(sql, stmt, &fingerprint, &snap, trace)?;
        let plan_cached = render_slot.is_some();
        if plan_cached && memo_missed {
            // Only texts that hit a plan are memoized, so texts whose
            // literals change per request never fill the memo.
            let _span = trace.span(Stage::Fingerprint);
            self.memoize(sql, &fingerprint);
        }
        let outcome = self.engine.execute_plan(&plan, trace)?;
        self.totals.absorb(&outcome.stats);
        Ok(QueryResponse {
            render_slot: render_slot.filter(|_| outcome.stats.measured == 0),
            answers: outcome.answers,
            stats: outcome.stats,
            plan_cached,
            fingerprint,
            request_id: trace.id(),
            epoch: snap.epoch,
            db_digest: snap.digest,
        })
    }

    /// The memoized fingerprint of this exact text, now the most
    /// recently used one. A poisoned memo counts as a miss.
    fn memoized(&self, sql: &str) -> Option<String> {
        self.texts.lock().ok()?.get(sql).cloned()
    }

    /// Memoizes `sql` → `fingerprint`, evicting the least recently used
    /// text when the memo already holds `max_plans` (which one goes
    /// changes what the next request costs, never what it answers). A
    /// poisoned memo is left as it is.
    fn memoize(&self, sql: &str, fingerprint: &str) {
        let _displaced = match self.texts.lock() {
            Ok(mut texts) => texts.insert(Arc::from(sql), fingerprint.to_string(), 1),
            Err(_) => return,
        };
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
    /// construction records into [`Stage::WriteApply`], the plan sweep
    /// into [`Stage::Invalidate`]. The ν-cache keeps every entry: a key
    /// names a canonical formula, which no write can make wrong.
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
        let (current, next, summary) = {
            let _span = trace.span(Stage::WriteApply);
            let current = self.snapshot()?;
            let mut db = (*current.db).clone();
            let summary = db.apply_batch(batch).map_err(ServeError::Write)?;
            // A batch of pure no-ops still publishes an epoch, so every
            // committed write has one; it changes no row, so the sweep
            // keeps every plan checked through the epoch before it.
            let next = Arc::new(current.next(db));
            self.publish(next.clone())?;
            (current, next, summary)
        };
        let plans_invalidated = {
            let _span = trace.span(Stage::Invalidate);
            self.sweep_plans(&current, &next, batch)?
        };
        self.plan_invalidations.fetch_add(plans_invalidated, Ordering::Relaxed);
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.write_ops.fetch_add(batch.ops.len() as u64, Ordering::Relaxed);
        Ok(WriteOutcome {
            epoch: next.epoch,
            db_digest: next.digest,
            applied: summary.applied as u64,
            noops: summary.noops as u64,
            invalidated_keys: 0,
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

    /// Checks every cached plan against `batch`, which turned `before`
    /// (epoch e) into the already published `after` (e + 1), and
    /// returns how many plans it dropped. Runs under the plan-cache
    /// lock alone, after the publication:
    ///
    /// * a plan checked through e is dropped if the batch affects its
    ///   read footprint, and is otherwise checked through e + 1;
    /// * a plan checked only through an earlier epoch is dropped: a
    ///   reader on an old snapshot published it after that epoch's
    ///   sweep, so a batch it was never checked against came between;
    /// * a plan built on e + 1, by a reader that pinned the new epoch
    ///   between the publication and this sweep, stays as it is.
    ///
    /// Racing readers that already cloned a dropped plan are
    /// unaffected: it is exact on the epoch they pinned.
    fn sweep_plans(
        &self,
        before: &Snapshot,
        after: &Snapshot,
        batch: &WriteBatch,
    ) -> Result<u64, ServeError> {
        // The per-relation first changed rows, worked out once and
        // outside the lock.
        let delta = WriteDelta::new(&before.db, &after.db, &batch.ops);
        let mut plans = self.plans.lock().map_err(|_| ServeError::LockPoisoned("plan cache"))?;
        let dropped = plans.retain(|entry| {
            if entry.checked >= after.epoch {
                return true;
            }
            if entry.checked < before.epoch || entry.footprint.affected_by(&delta) {
                return false;
            }
            entry.checked = after.epoch;
            true
        });
        drop(plans);
        Ok(dropped.len() as u64)
    }

    /// Plan-cache lookup with build-on-miss, epoch validation, and
    /// LRU eviction under [`ServeConfig::max_plans`]. Returns the plan
    /// and, iff it came from the plan cache, its entry's render slot.
    /// `stmt` is the parsed `sql`, or `None` when the text memo skipped
    /// the parse; a miss then parses `sql` to lower it.
    ///
    /// Racing builders for one fingerprint each build (plans are
    /// deterministic given the relation contents, so copies built
    /// against one snapshot are interchangeable); the first publication
    /// wins and the rest adopt it. When the resident plan is not exact
    /// on this request's epoch, the fresher of the two stays: a build on
    /// an epoch after the resident plan's last checked one replaces it,
    /// and a build on an epoch before that serves its own request
    /// without being published.
    fn plan_for(
        &self,
        sql: &str,
        stmt: Option<SelectStatement>,
        fingerprint: &str,
        snap: &Snapshot,
        trace: &mut RequestTrace,
    ) -> Result<(Arc<BatchPlan>, Option<RenderSlot>), ServeError> {
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
            if let Some(entry) = self.plans.lock().map_err(poisoned)?.get(fingerprint) {
                if entry.serves(snap.epoch) {
                    self.plan_hits.fetch_add(1, Ordering::Relaxed);
                    let render_slot = entry.render_slot.get_or_init(RenderSlot::default);
                    return Ok((entry.plan.clone(), Some(render_slot.clone())));
                }
                // Not exact on our epoch: the write that published our
                // epoch has not swept this entry yet, or the entry was
                // built on a later epoch than ours. Fall through to a
                // rebuild against our snapshot.
            }
        }
        self.plan_misses.fetch_add(1, Ordering::Relaxed);
        let stmt = match stmt {
            Some(stmt) => stmt,
            None => {
                let _span = trace.span(Stage::Fingerprint);
                qarith_sql::parse_select(sql)?
            }
        };
        // Build outside any lock: candidate generation and preparation
        // are the expensive half, and other templates must keep flowing.
        let (built, footprint) = self.build_plan(&stmt, snap, trace)?;
        let built = Arc::new(built);
        let _span = trace.span(Stage::PlanLookup);
        // The plans this publication displaces (a resident plan last
        // checked before our epoch, which ours replaces, and the least
        // recently used ones past the cap) are freed after the guard.
        let _displaced = {
            let mut plans = self.plans.lock().map_err(poisoned)?;
            if let Some(entry) = plans.get(fingerprint) {
                if entry.serves(snap.epoch) {
                    return Ok((entry.plan.clone(), None));
                }
                if entry.checked > snap.epoch {
                    // The resident plan serves newer readers; ours
                    // serves this request alone.
                    return Ok((built, None));
                }
            }
            let entry = PlanEntry {
                plan: built.clone(),
                render_slot: OnceLock::new(),
                footprint,
                built: snap.epoch,
                checked: snap.epoch,
            };
            plans.insert(Arc::from(fingerprint), entry, 1)
        };
        Ok((built, None))
    }

    /// The front half, template-granular: lower the parsed statement
    /// against the catalog, generate candidates under the template's
    /// LIMIT semantics (folded into the executor options), prepare the
    /// batch. Returns the plan plus the read footprint its join
    /// recorded on `snap`. One [`Stage::Prepare`] span covers both the
    /// SQL front (lower, candidate generation — "grounding") and the
    /// engine's batch preparation: together they are the template-build
    /// cost a plan-cache hit saves.
    fn build_plan(
        &self,
        stmt: &SelectStatement,
        snap: &Snapshot,
        trace: &mut RequestTrace,
    ) -> Result<(BatchPlan, ReadFootprint), ServeError> {
        let _span = trace.span(Stage::Prepare);
        let lowered = qarith_sql::lower(stmt, &self.catalog)?;
        // A `NOT` or `OR` lowers, and the join refuses it before reading
        // a row: the request's shape is at fault, so it is a SQL error.
        let (candidates, footprint, rows) =
            cq::execute_recorded(&lowered.query, &snap.db, &lowered.cq_options()).map_err(|e| {
                match e {
                    EngineError::NotConjunctive { construct } => {
                        ServeError::Sql(SqlError::Unsupported { construct })
                    }
                    e => ServeError::from(e),
                }
            })?;
        self.join_rows.fetch_add(rows, Ordering::Relaxed);
        let plan = self.engine.prepare_batch(candidates);
        self.key_nodes.fetch_add(plan.key_nodes(), Ordering::Relaxed);
        Ok((plan, footprint))
    }

    /// The engine's options (fixed for the service's lifetime).
    pub fn options(&self) -> &MeasureOptions {
        self.engine.options()
    }

    /// Service-level counters.
    pub fn stats(&self) -> ServiceStats {
        // Counters must never panic; a poisoned cache reports 0 resident
        // and evicted plans (requests themselves fail with
        // `LockPoisoned`, which is the visible signal).
        let (plans, plan_evictions) =
            self.plans.lock().map_or((0, 0), |p| (p.len() as u64, p.evictions()));
        ServiceStats {
            queries: self.queries.load(Ordering::Relaxed),
            plan_hits: self.plan_hits.load(Ordering::Relaxed),
            plan_misses: self.plan_misses.load(Ordering::Relaxed),
            plans,
            plan_evictions,
            // Same policy for the epoch gauge on a poisoned store.
            epoch: self.snapshot().map_or(0, |s| s.epoch),
            writes: self.writes.load(Ordering::Relaxed),
            write_ops: self.write_ops.load(Ordering::Relaxed),
            plan_invalidations: self.plan_invalidations.load(Ordering::Relaxed),
            join_rows: self.join_rows.load(Ordering::Relaxed),
            key_nodes: self.key_nodes.load(Ordering::Relaxed),
        }
    }

    /// Counters of the service's ν-cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Running sums of every executed request's [`BatchStats`]
    /// (including the nested rewrite block) since creation. This is the
    /// monotone-counter view a metrics scrape wants; per-request
    /// accounting stays on [`QueryResponse::stats`].
    pub fn batch_totals(&self) -> BatchStats {
        self.totals.snapshot()
    }

    /// Counters of the admission gate.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.gate.stats()
    }

    /// A snapshot of every per-stage latency histogram (admission wait
    /// through write apply and plan invalidation, plus the end-to-end total),
    /// in [`Stage::ALL`] order. This is the `/metrics` histogram
    /// source and the serving bench documents' per-stage summary source.
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

#[cfg(test)]
mod tests {
    use super::*;
    use qarith_types::{Column, NumNullId, Relation, RelationSchema, Value};

    fn db() -> Database {
        let schema =
            RelationSchema::new("R", vec![Column::base("id"), Column::num("x"), Column::num("y")])
                .expect("schema");
        let mut r = Relation::empty(schema);
        r.insert_values(vec![Value::int(1), Value::NumNull(NumNullId(0)), Value::num(3)])
            .expect("row");
        let mut db = Database::new();
        db.add_relation(r).expect("relation");
        db
    }

    /// The serving regime, field for field: any change here moves the
    /// options fingerprint and every served bit.
    #[test]
    fn the_paper_serving_regime_is_pinned() {
        let config = ServeConfig::paper_afpras(0.02, 2020);
        let o = &config.options;
        assert_eq!(o.method, MethodChoice::Afpras);
        assert_eq!(o.afpras.epsilon.to_bits(), 0.02f64.to_bits());
        assert_eq!(o.afpras.samples, SampleCount::Paper);
        assert_eq!(o.afpras.seed, 2020 ^ 0xF1616);
        let defaults = MeasureOptions::default();
        let rest = |o: &MeasureOptions| {
            format!(
                "{:?} {:?} {:?} {:?} {:?} {} {:?} {:?}",
                o.batch,
                o.afpras.delta,
                o.afpras.threads,
                o.afpras.full_dimension,
                o.fpras,
                o.exact_order_limit,
                o.cq,
                o.rewrite
            )
        };
        assert_eq!(rest(o), rest(&defaults), "every other option stays at its default");
        let d = ServeConfig::default();
        assert_eq!(
            (config.cache, config.max_in_flight, config.max_plans, config.slow_threshold_nanos),
            (d.cache, d.max_in_flight, d.max_plans, d.slow_threshold_nanos)
        );
        let hand_built = MeasureOptions {
            method: MethodChoice::Afpras,
            afpras: AfprasOptions {
                epsilon: 0.02,
                samples: SampleCount::Paper,
                seed: 2020 ^ 0xF1616,
                ..AfprasOptions::default()
            },
            ..MeasureOptions::default()
        };
        assert_eq!(o.fingerprint(), hand_built.fingerprint());
    }

    /// A reader still pinned to an older epoch builds its own plan, but
    /// must not publish it over the plan a newer reader published.
    #[test]
    fn an_older_reader_does_not_evict_a_newer_plan() {
        let service = QueryService::new(db(), ServeConfig::default());
        let sql = "SELECT R.id FROM R WHERE R.x > R.y";
        let fingerprint = qarith_sql::sql_fingerprint(sql).expect("parses");
        service.query(sql).expect("epoch 0 query");
        let epoch0 = service.snapshot().expect("epoch 0");

        let mut batch = WriteBatch::new();
        batch.insert("R", vec![Value::int(2), Value::NumNull(NumNullId(1)), Value::num(4)]);
        service.apply(&batch).expect("insert");
        assert_eq!(service.stats().plan_invalidations, 1, "the write drops the epoch-0 plan");
        assert!(!service.query(sql).expect("epoch 1 build").plan_cached);
        assert!(service.query(sql).expect("epoch 1 hit").plan_cached);

        let mut trace = service.begin_trace();
        let (old_plan, render_slot) =
            service.plan_for(sql, None, &fingerprint, &epoch0, &mut trace).expect("epoch 0 plan");
        assert!(render_slot.is_none(), "a build is no hit");
        assert_eq!(old_plan.candidates(), 1, "built on epoch 0's one row");
        assert_eq!(service.stats().plan_invalidations, 1, "the epoch-1 plan stays resident");

        let after = service.query(sql).expect("epoch 1 query");
        assert!(after.plan_cached, "the next epoch-1 reader still hits");
        assert_eq!(after.answers.len(), 2);
    }

    fn memo_len(service: &QueryService) -> usize {
        service.texts.lock().expect("memo").len()
    }

    /// Spellings of one template share one plan; each spelling is
    /// memoized once it hits that plan, and the memo never holds more
    /// than `max_plans` texts.
    #[test]
    fn the_text_memo_keeps_hitting_texts_within_the_plan_cap() {
        let config = ServeConfig { max_plans: 2, ..ServeConfig::default() };
        let service = QueryService::new(db(), config);
        let spelling = |n: usize| format!("SELECT R.id FROM R{} WHERE R.x > R.y", " ".repeat(n));
        let first = service.query(&spelling(1)).expect("build");
        assert!(!first.plan_cached);
        assert_eq!(memo_len(&service), 0, "a build does not memoize its text");
        for n in 1..6 {
            let response = service.query(&spelling(n)).expect("hit");
            assert!(response.plan_cached, "every spelling hits the one plan");
            assert_eq!(response.fingerprint, first.fingerprint);
            assert_eq!(memo_len(&service), n.min(2), "the memo stays within max_plans");
        }
        assert!(service.memoized(&spelling(3)).is_none(), "the least recent texts went");
        assert!(service.memoized(&spelling(4)).is_some());
        let again = service.query(&spelling(5)).expect("memo hit");
        assert!(again.plan_cached);
        assert_eq!(again.fingerprint, first.fingerprint);
        assert_eq!(service.stats().plans, 1);
        assert_eq!(service.stats().plan_misses, 1);
    }

    /// The memo evicts the least recently used text: with room for two,
    /// a spelling re-read between fills outlives eight other memoized
    /// spellings of its template. Each service hashes its texts with
    /// fresh keys, so running on eight services would also catch a memo
    /// that evicts in hash order (it keeps the re-read text only where
    /// that text happens to hash late).
    #[test]
    fn the_text_memo_keeps_a_text_that_is_re_read() {
        let spelling = |n: usize| format!("SELECT R.id FROM R{} WHERE R.x > R.y", " ".repeat(n));
        let kept = spelling(1);
        for _ in 0..8 {
            let config = ServeConfig { max_plans: 2, ..ServeConfig::default() };
            let service = QueryService::new(db(), config);
            service.query(&kept).expect("build");
            service.query(&kept).expect("hit, memoized");
            for n in 2..10 {
                assert!(service.query(&spelling(n)).expect("hit, memoized").plan_cached);
                assert!(service.memoized(&kept).is_some(), "kept through spelling {n}");
                assert!(service.query(&kept).expect("memo hit").plan_cached);
            }
            assert_eq!(memo_len(&service), 2);
            assert!(service.memoized(&spelling(8)).is_none(), "eight fills evicted seven texts");
            assert_eq!(service.stats().plan_misses, 1);
        }
    }

    /// A memoized text whose plan was evicted parses again to rebuild,
    /// and answers as a cold service does.
    #[test]
    fn a_memo_hit_whose_plan_was_evicted_rebuilds_cold_answers() {
        let tiny = || {
            qarith_datagen::sales::sales_database(&qarith_datagen::WorkloadScale::Tiny.params(), 7)
        };
        let config = ServeConfig { max_plans: 2, ..ServeConfig::paper_afpras(0.1, 77) };
        let service = QueryService::new(tiny(), config.clone());
        let templates = [
            "SELECT P.id FROM Products P WHERE P.dis >= 0.9 LIMIT 5",
            "SELECT P.id FROM Products P WHERE P.rrp >= 80 LIMIT 5",
            "SELECT P.seg FROM Products P WHERE P.rrp >= 20 LIMIT 5",
        ];
        service.query(templates[0]).expect("build");
        assert!(service.query(templates[0]).expect("hit").plan_cached);
        service.query(templates[1]).expect("build");
        service.query(templates[2]).expect("build, evicting the first template");
        assert_eq!(service.stats().plan_evictions, 1);
        assert!(service.memoized(templates[0]).is_some(), "the evicted template's text stays");

        let rebuilt = service.query(templates[0]).expect("memo hit, plan miss");
        assert!(!rebuilt.plan_cached);
        let cold = QueryService::new(tiny(), config).query(templates[0]).expect("cold");
        let bits = |r: &QueryResponse| -> Vec<(String, u64)> {
            r.answers.iter().map(|a| (a.tuple.to_string(), a.certainty.value.to_bits())).collect()
        };
        assert!(!cold.answers.is_empty());
        assert_eq!(bits(&rebuilt), bits(&cold));
        assert_eq!(rebuilt.fingerprint, cold.fingerprint);
    }

    /// The plan cache evicts exactly the least recently used plan:
    /// over a seeded stream of eight templates through a four-plan
    /// cache, every request hits iff an exact LRU model holds its
    /// template.
    #[test]
    fn plan_eviction_follows_an_exact_lru_model() {
        let config = ServeConfig { max_plans: 4, ..ServeConfig::default() };
        let service = QueryService::new(db(), config);
        let sql = |t: u64| format!("SELECT R.id FROM R WHERE R.x > R.y + {t}");
        let mut model: Vec<u64> = Vec::new(); // least recent first
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for i in 0..400 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let t = (state >> 33) % 8;
            let expected = model.contains(&t);
            let response = service.query(&sql(t)).expect("served");
            assert_eq!(response.plan_cached, expected, "request {i}, template {t}");
            model.retain(|&m| m != t);
            model.push(t);
            if model.len() > 4 {
                model.remove(0);
            }
        }
        let stats = service.stats();
        assert_eq!(stats.plans, 4);
        assert_eq!(stats.plan_evictions, stats.plan_misses - 4);
    }

    /// A statement nested to the parser's bound serves, and one nested
    /// past it is a SQL error, for parentheses, unary minus, `+` chains
    /// and `AND` chains (the served conjunctive fragment has no `NOT` or
    /// `OR`; the parser's tests bound those) — at thousands of levels
    /// too, on a test thread's default stack.
    #[test]
    fn statements_nested_to_the_bound_serve_and_deeper_ones_are_sql_errors() {
        let service = QueryService::new(db(), ServeConfig::default());
        let sql = |construct: &str, n: usize| {
            let predicate = match construct {
                "(" => format!("{}R.x > R.y{}", "(".repeat(n), ")".repeat(n)),
                "-" => format!("R.x > {}R.y", "- ".repeat(n)),
                "+" => format!("R.x{} > R.y", " + R.y".repeat(n)),
                _ => format!("R.x > R.y{}", " AND R.x > R.y".repeat(n)),
            };
            format!("SELECT R.id FROM R WHERE {predicate}")
        };
        for construct in ["(", "-", "+", "AND"] {
            let served = service.query(&sql(construct, qarith_sql::MAX_DEPTH));
            assert!(served.is_ok(), "{construct}: {served:?}");
            for n in [qarith_sql::MAX_DEPTH + 1, 3_000] {
                let refused = service.query(&sql(construct, n));
                assert!(
                    matches!(refused, Err(ServeError::Sql(qarith_sql::SqlError::Parse { .. }))),
                    "{construct} × {n}: {refused:?}"
                );
            }
        }
    }

    /// `NOT` and `OR` parse and lower, and the join refuses them: the
    /// service answers `err kind=sql` naming the construct, not a
    /// measurement error, and keeps serving.
    #[test]
    fn negation_and_disjunction_are_sql_errors() {
        let service = QueryService::new(db(), ServeConfig::default());
        for (predicate, construct) in
            [("NOT R.x > R.y", "negation"), ("R.x > R.y OR R.y > R.x", "disjunction")]
        {
            let refused = service.query(&format!("SELECT R.id FROM R WHERE {predicate}"));
            match refused {
                Err(e @ ServeError::Sql(SqlError::Unsupported { .. })) => {
                    assert_eq!(e.kind(), "sql");
                    assert!(e.to_string().contains(construct), "{e}");
                }
                other => panic!("{predicate}: {other:?}"),
            }
        }
        assert!(service.query("SELECT R.id FROM R WHERE R.x > R.y").is_ok());
    }

    /// A non-ASCII string literal matches the row a write stored.
    #[test]
    fn a_non_ascii_string_literal_selects_its_row() {
        let schema = RelationSchema::new("S", vec![Column::base("id"), Column::base("seg")])
            .expect("schema");
        let mut s = Relation::empty(schema);
        s.insert_values(vec![Value::int(1), Value::str("café")]).expect("row");
        s.insert_values(vec![Value::int(2), Value::str("cafe")]).expect("row");
        let mut db = Database::new();
        db.add_relation(s).expect("relation");
        let service = QueryService::new(db, ServeConfig::default());
        let response = service.query("SELECT S.id FROM S WHERE S.seg = 'café'").expect("served");
        let ids: Vec<String> = response.answers.iter().map(|a| a.tuple.to_string()).collect();
        assert_eq!(ids, ["(1)"]);
    }
}
