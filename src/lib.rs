//! # qarith — queries with arithmetic on incomplete databases
//!
//! A complete Rust implementation of Console, Hofer & Libkin, *Queries
//! with Arithmetic on Incomplete Databases* (PODS 2020): a framework that
//! assigns a **measure of certainty** `μ(q, D, (a,s)) ∈ [0,1]` to each
//! candidate answer of an FO(+,·,<) query over a database with marked
//! nulls in base-sorted and numerical columns.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`numeric`] | `qarith-numeric` | exact rationals |
//! | [`constraints`] | `qarith-constraints` | polynomials, real formulas, asymptotic truth (Lemma 8.4) |
//! | [`rewrite`] | `qarith-rewrite` | ν-preserving simplification and independence decomposition |
//! | [`types`] | `qarith-types` | two-sorted data model, marked nulls, valuations |
//! | [`query`] | `qarith-query` | FO(+,·,<) AST, type checking, fragments |
//! | [`sql`] | `qarith-sql` | SQL subset parser (the §9 front end) + template fingerprints |
//! | [`engine`] | `qarith-engine` | naive evaluation, CQ executor, grounding (Prop 5.3) |
//! | [`geometry`] | `qarith-geometry` | sampling, LP, hit-and-run, volume, union volumes |
//! | [`core`] | `qarith-core` | the measure: AFPRAS (Thm 8.1), FPRAS (Thm 7.1), exact evaluators, pipeline, sharded ν-cache |
//! | [`serve`] | `qarith-serve` | concurrent query serving: prepared plans, admission, live writes |
//! | [`net`] | `qarith-net` | framed TCP wire protocol + `/metrics` over the service |
//! | [`trace`] | `qarith-trace` | request ids, per-stage latency histograms, the slow-query log |
//! | [`datagen`] | `qarith-datagen` | synthetic data, the §9 sales workload |
//!
//! See `examples/quickstart.rs` for a five-minute tour, and
//! `README.md`/`DESIGN.md`/`EXPERIMENTS.md` at the repository root for
//! the map from the paper's definitions, theorems, and figures to this
//! code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use qarith_constraints as constraints;
pub use qarith_core as core;
pub use qarith_datagen as datagen;
pub use qarith_engine as engine;
pub use qarith_geometry as geometry;
pub use qarith_net as net;
pub use qarith_numeric as numeric;
pub use qarith_query as query;
pub use qarith_rewrite as rewrite;
pub use qarith_serve as serve;
pub use qarith_sql as sql;
pub use qarith_trace as trace;
pub use qarith_types as types;

/// The most common imports, for examples and downstream users.
///
/// # Measure one formula end to end
///
/// `ν(z₀ > 0)` — "an unknown real is positive" — is exactly 1/2 under
/// the paper's measure (the closed-form dimension-≤1 evaluator fires,
/// so no sampling happens):
///
/// ```
/// use qarith::prelude::*;
///
/// // z0 > 0, as a polynomial constraint over the nulls.
/// let phi = QfFormula::atom(Atom::new(Polynomial::var(ConstraintVar(0)), ConstraintOp::Gt));
/// let engine = CertaintyEngine::default();
/// let nu = engine.nu(&phi).unwrap();
/// assert_eq!(nu.exact, Some(Rational::new(1, 2)));
/// assert_eq!(nu.value, 0.5);
/// ```
///
/// # Run a SQL query against an incomplete database
///
/// The §9 pipeline in miniature: build a database with marked nulls,
/// compile SQL against its catalog, and measure every candidate
/// answer:
///
/// ```
/// use qarith::prelude::*;
///
/// let mut db = Database::new();
/// let schema = RelationSchema::new(
///     "Orders",
///     vec![Column::base("id"), Column::num("price"), Column::num("paid")],
/// ).unwrap();
/// let mut orders = Relation::empty(schema);
/// // Order 1: unknown price, paid 30 — selected only under some valuations.
/// orders.insert_values(vec![Value::int(1), Value::NumNull(NumNullId(0)), Value::num(30)]).unwrap();
/// // Order 2: price 10, paid 30 — selected under every valuation.
/// orders.insert_values(vec![Value::int(2), Value::num(10), Value::num(30)]).unwrap();
/// db.add_relation(orders).unwrap();
///
/// let query = qarith::sql::compile_query(
///     "SELECT O.id FROM Orders O WHERE O.price < 40",
///     &db.catalog(),
/// ).unwrap();
/// let answers = CertaintyEngine::default().answers(&query, &db, 0.0).unwrap();
/// assert_eq!(answers.len(), 2);
/// assert!(answers.iter().any(|a| a.tuple == Tuple::new(vec![Value::int(2)])
///     && a.certainty.is_certain()));
/// assert!(answers.iter().any(|a| a.tuple == Tuple::new(vec![Value::int(1)])
///     && a.certainty.exact == Some(Rational::new(1, 2))));
/// ```
///
/// # Read a batch's [`BatchStats`](qarith_core::BatchStats)
///
/// Serving the same query through a
/// [`QueryService`](qarith_serve::QueryService) twice: the second
/// request reuses the prepared plan, and its `BatchStats` show every
/// group served from the ν-cache instead of re-measured:
///
/// ```
/// use qarith::prelude::*;
///
/// let mut db = Database::new();
/// let schema = RelationSchema::new(
///     "R",
///     vec![Column::base("id"), Column::num("x"), Column::num("y")],
/// ).unwrap();
/// let mut r = Relation::empty(schema);
/// r.insert_values(vec![Value::int(1), Value::NumNull(NumNullId(0)), Value::NumNull(NumNullId(1))])
///     .unwrap();
/// db.add_relation(r).unwrap();
///
/// let service = QueryService::new(db, ServeConfig::default());
/// let cold = service.query("SELECT R.id FROM R WHERE R.x > R.y").unwrap();
/// assert_eq!((cold.stats.candidates, cold.stats.measured), (1, 1));
///
/// let warm = service.query("select R.id from R where R.x > R.y").unwrap();
/// assert!(warm.plan_cached, "same template fingerprint → prepared plan reused");
/// assert_eq!(warm.stats.measured, 0, "every group served from the ν-cache");
/// assert_eq!(warm.stats.cache_hits, 1);
/// assert_eq!(warm.answers[0].certainty.value, cold.answers[0].certainty.value);
/// ```
pub mod prelude {
    pub use qarith_constraints::{Atom, ConstraintOp, Polynomial, QfFormula, Var as ConstraintVar};
    pub use qarith_core::{
        AnswerWithCertainty, BatchOptions, BatchOutcome, BatchPlan, BatchStats, CacheStats,
        CertaintyEngine, CertaintyEstimate, MeasureOptions, Method, MethodChoice, NuCache,
        NuCacheConfig, RewriteStats,
    };
    pub use qarith_datagen::{QueryFamily, Workload, WorkloadQuery, WorkloadScale, WorkloadSpec};
    pub use qarith_engine::cq::CqOptions;
    pub use qarith_net::{NetClient, NetConfig, NetServer, NetStats};
    pub use qarith_numeric::Rational;
    pub use qarith_query::{Arg, BaseTerm, CompareOp, Formula, NumTerm, Query, TypedVar};
    pub use qarith_serve::{
        AdmissionStats, QueryResponse, QueryService, ServeConfig, ServeError, ServiceStats,
    };
    pub use qarith_sql::sql_fingerprint;
    pub use qarith_trace::{LatencyStats, RequestId, SlowRecord, Stage, StageSummary, Tracer};
    pub use qarith_types::{
        BaseNullId, BaseValue, Catalog, Column, Database, NumNullId, Relation, RelationSchema,
        Sort, Tuple, Valuation, Value,
    };
}
