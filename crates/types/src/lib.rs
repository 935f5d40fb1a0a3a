//! Two-sorted incomplete-database data model (§2–§3 of the paper).
//!
//! Layering: above `qarith-numeric` only; everything that touches a
//! database — query validation, SQL catalogs, the executor, data
//! generation, the serving layer — builds on these types.
//!
//! Databases have columns of two types: a **base** type (the classical
//! single-domain assumption — ids, names, market segments, …) and a
//! **numerical** type (a subset of ℝ — prices, discounts, quantities, …).
//! Either kind of column may contain *marked nulls*: `⊥ᵢ` for base columns
//! ([`BaseNullId`]) and `⊤ᵢ` for numerical columns ([`NumNullId`]).
//!
//! An incomplete database represents the set of complete databases
//! obtained by applying a [`Valuation`] `v = (v_base, v_num)` that sends
//! base nulls to base constants and numerical nulls to real numbers.
//! Numerical constants are exact rationals ([`qarith_numeric::Rational`])
//! so that the downstream symbolic pipeline stays exact.
//!
//! Main types:
//!
//! * [`Value`], [`BaseValue`] — cell values of either sort, possibly null;
//! * [`Sort`], [`Column`], [`RelationSchema`], [`Catalog`] — typed schemas;
//! * [`Tuple`], [`Relation`], [`Database`] — data, with type checking on
//!   insertion;
//! * [`ColumnIndex`] — a relation's lazily built index on one column,
//!   shared by every reader of that relation version and dropped by its
//!   next change (the CQ executor's join probes it);
//! * [`Valuation`] — interpretations of nulls; applying a valuation yields
//!   the complete database `v(D)`;
//! * [`Database::bijective_base_valuation`] — the "nulls as fresh
//!   distinct constants" reading used by naive evaluation and by the
//!   bijective base valuations of Proposition 5.2;
//! * [`WriteOp`], [`WriteBatch`] — tuple-level mutations (the serving
//!   layer's epoch store applies these to evolve a live database);
//! * [`database_digest`], [`DatabaseDigest`] — the content digest that
//!   names a database state, resumable after a write.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod database;
mod digest;
mod error;
mod relation;
mod schema;
mod tuple;
mod valuation;
mod value;
mod write;

pub use database::{Database, DatabaseStats};
pub use digest::{database_digest, DatabaseDigest, DIGEST_SPAN};
pub use error::TypeError;
pub use relation::{ColumnIndex, Relation};
pub use schema::{Catalog, Column, RelationSchema, Sort};
pub use tuple::Tuple;
pub use valuation::Valuation;
pub use value::{BaseNullId, BaseValue, NumNullId, Value};
pub use write::{WriteBatch, WriteOp, WriteSummary};
