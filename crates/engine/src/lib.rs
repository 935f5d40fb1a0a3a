//! Relational evaluation substrate (§2, Propositions 5.2/5.3, and the
//! §9 executor role).
//!
//! Layering: above `qarith-query`/`qarith-types`/`qarith-constraints`,
//! below `qarith-core` (which measures the formulas this crate
//! produces) and `qarith-serve` (which executes prepared candidate
//! sets). This crate is the bridge between queries/databases and the
//! real-valued constraint formulas that the measure machinery
//! consumes:
//!
//! * [`naive`] — active-domain evaluation of arbitrary FO(+,·,<) queries
//!   over databases, treating marked nulls as fresh distinct constants
//!   (the *naive evaluation* of §2, which is also evaluation proper on
//!   complete databases). Used by the zero-one law and as the test oracle
//!   for everything else.
//! * [`ground`] — the translation of Proposition 5.3: given a query `q`, a
//!   database `D`, and a candidate tuple `(a,s)`, produce a
//!   quantifier-free formula `φ(z̄)` over ⟨ℝ,+,·,<⟩ — one variable `z_i`
//!   per numerical null `⊤_i` — such that `ℝ ⊨ φ(z̄)` iff
//!   `v_z(a,s) ∈ q(v_z(D))`. Base nulls are handled by the bijective
//!   valuation of Proposition 5.2 (marked nulls already *are* fresh
//!   distinct constants under value equality, so no rewriting is needed).
//! * [`cq`] — a join-based executor for conjunctive queries that produces
//!   candidate answers together with their ground formulas *without* the
//!   exponential quantifier expansion: output tuples come from joins
//!   that probe each relation's shared per-column index
//!   ([`qarith_types::Relation::column_index`]) on the bound base
//!   columns, and numerical conditions involving nulls
//!   become residual constraint atoms (one conjunction per derivation,
//!   disjoined per candidate). This is the path the §9 experiments use —
//!   it plays the role Postgres played for the paper's authors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cq;
mod domain;
mod env;
mod error;
pub mod ground;
pub mod naive;

pub use domain::ActiveDomain;
pub use env::{term_to_polynomial, Bound, Env};
pub use error::EngineError;
