//! # qarith-core — measures of certainty for queries with arithmetic
//!
//! The primary contribution of Console, Hofer & Libkin, *Queries with
//! Arithmetic on Incomplete Databases* (PODS 2020): a measure
//! `μ(q, D, (a,s)) ∈ [0,1]` of how certain a candidate tuple is as an
//! answer to an FO(+,·,<) query over a two-sorted incomplete database,
//! defined as the asymptotic fraction (by volume) of valuations of the
//! numerical nulls under which the tuple is an answer.
//!
//! Layering: the measurement hub — above `qarith-constraints`,
//! `qarith-rewrite`, `qarith-engine`, and `qarith-geometry`; below
//! `qarith-serve` (which drives the prepared-plan split of
//! [`pipeline`]) and `qarith-bench`. Paper touchpoints: Theorems 7.1
//! and 8.1, §§6–10.
//!
//! ## Quick start
//!
//! ```
//! use qarith_core::{CertaintyEngine, MeasureOptions};
//! use qarith_query::{Arg, BaseTerm, CompareOp, Formula, NumTerm, Query, TypedVar};
//! use qarith_types::{Column, Database, NumNullId, Relation, RelationSchema, Tuple, Value};
//!
//! // R(a: base, x: num, y: num) with one tuple (1, ⊤0, ⊤1).
//! let mut db = Database::new();
//! let schema = RelationSchema::new(
//!     "R",
//!     vec![Column::base("a"), Column::num("x"), Column::num("y")],
//! ).unwrap();
//! let mut r = Relation::empty(schema);
//! r.insert_values(vec![
//!     Value::int(1),
//!     Value::NumNull(NumNullId(0)),
//!     Value::NumNull(NumNullId(1)),
//! ]).unwrap();
//! db.add_relation(r).unwrap();
//!
//! // σ_{x>y}(R): is tuple 1 selected?  μ = 1/2.
//! let q = Query::new(
//!     vec![TypedVar::base("a")],
//!     Formula::exists(
//!         vec![TypedVar::num("x"), TypedVar::num("y")],
//!         Formula::and(vec![
//!             Formula::rel("R", vec![
//!                 Arg::Base(BaseTerm::var("a")),
//!                 Arg::Num(NumTerm::var("x")),
//!                 Arg::Num(NumTerm::var("y")),
//!             ]),
//!             Formula::cmp(NumTerm::var("x"), CompareOp::Gt, NumTerm::var("y")),
//!         ]),
//!     ),
//!     &db.catalog(),
//! ).unwrap();
//!
//! let engine = CertaintyEngine::new(MeasureOptions::default());
//! let est = engine.measure(&q, &db, &Tuple::new(vec![Value::int(1)])).unwrap();
//! assert_eq!(est.value, 0.5);
//! ```
//!
//! ## Modules
//!
//! * [`afpras`] — the additive scheme of Theorem 8.1 (direction sampling
//!   with asymptotic truth tests), with the §9 partial-vector sampling
//!   optimization and optional multi-threading;
//! * [`fpras`] — the multiplicative scheme of Theorem 7.1 for CQ(+,<)
//!   (union-of-cones volume estimation);
//! * [`exact`] — exact evaluators for dimensions 0–1, order formulas
//!   (exact rationals via cell counting), and 2-D linear formulas
//!   (arc arithmetic — reproduces the paper's intro example and the
//!   Proposition 6.1 arctangent family);
//! * [`zero_one`] — the §2 zero-one law for generic queries;
//! * [`reductions`] — executable versions of the §6 hardness gadgets
//!   (Theorem 6.3, Proposition 6.2), used as validation workloads;
//! * [`pipeline`] — the [`CertaintyEngine`]: query + database →
//!   candidates → ground formulas → measures, with automatic method
//!   selection and the batch measurement path (canonical dedup +
//!   parallel fan-out, [`CertaintyEngine::measure_batch`]);
//! * [`nucache`] — the ν-cache: memoized, bit-identical measures keyed
//!   by canonical formula and options fingerprint, sharded and bounded
//!   by a byte budget, with the relation index a live database
//!   invalidates through;
//! * [`decompose`] — the rewrite pipeline's executor
//!   (`MeasureOptions::rewrite`): `qarith-rewrite` simplifies and
//!   splits formulas into variable-disjoint factors, whose asymptotic
//!   events are independent under the direction measure; factors are
//!   routed to exact evaluators wherever possible and the measures
//!   multiply;
//! * [`conditional`] — the §10 extension: conditional measures
//!   `ν(φ | ρ)` under scale-insensitive attribute constraints
//!   (sign/ratio restrictions);
//! * [`lattice`] — the §10 integer-domain measure via exact lattice
//!   counting, used to validate the Gauss-circle convergence claim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod afpras;
pub mod conditional;
pub mod decompose;
mod error;
mod estimate;
pub mod exact;
pub mod fpras;
pub mod lattice;
pub mod nucache;
pub mod pipeline;
pub mod reductions;
pub mod report;
pub mod zero_one;

pub use afpras::{AfprasOptions, SampleCount};
pub use decompose::RewriteStats;
pub use error::MeasureError;
pub use estimate::{CertaintyEstimate, Method};
pub use fpras::FprasOptions;
pub use nucache::{CacheStats, NuCache, NuCacheConfig};
pub use pipeline::{
    AnswerWithCertainty, BatchOptions, BatchOutcome, BatchPlan, BatchStats, CertaintyEngine,
    MeasureOptions, MethodChoice,
};
pub use qarith_rewrite::{FactorBudget, RewriteOptions};
