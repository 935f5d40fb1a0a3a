//! Polynomial constraint algebra over the reals.
//!
//! This crate implements the quantifier-free fragment of the first-order
//! theory of `⟨ℝ, +, ·, <⟩` that the grounding translation of
//! Console–Hofer–Libkin (PODS 2020, Proposition 5.3) produces: Boolean
//! combinations of polynomial (in)equalities `p(z̄) ⋈ 0` over variables
//! `z₁ … z_n` that stand for the numerical nulls of a database.
//!
//! Layering: above `qarith-numeric`, below `qarith-rewrite`,
//! `qarith-engine`, and `qarith-core` — every ground formula the
//! pipeline measures is built from this crate's types. Paper
//! touchpoints: Proposition 5.3 (the formulas), Lemmas 8.2–8.4 (the
//! asymptotic analysis).
//!
//! The centre-piece is the **asymptotic truth test** of Lemma 8.4: for a
//! direction `a ∈ ℝⁿ`, the truth value of `φ(k·a)` stabilises as `k → ∞`,
//! and the stable value is computable from the *leading homogeneous
//! components* of each atom. [`asymptotic::CompiledFormula`] packages a
//! formula into a form where that limit is evaluated in time linear in the
//! formula for each sampled direction — the hot path of the paper's
//! additive approximation scheme (Theorem 8.1).
//!
//! Contents:
//!
//! * [`Var`] — variable identifiers (`z_i`);
//! * [`Monomial`], [`Polynomial`] — exact multivariate polynomials over ℚ,
//!   canonically represented (so a polynomial is zero iff its term map is
//!   empty — a property the asymptotic analysis relies on);
//! * [`LinearExpr`] — affine forms, extracted from degree-≤1 polynomials
//!   for the Theorem 7.1 FPRAS (convex cones);
//! * [`Atom`], [`ConstraintOp`] — polynomial constraints `p ⋈ 0`;
//! * [`QfFormula`] — quantifier-free formulas with NNF/DNF conversion,
//!   simplification and evaluation;
//! * [`asymptotic`] — Lemma 8.2–8.4: direction-wise limits;
//! * [`canonical`] — canonical forms and group keys: dense renumbering,
//!   and the one-pass byte keys ([`canonical::KeyEncoder`]), structural
//!   or scale-insensitive asymptotic, that the batch measurement engine
//!   groups on and its ν-cache is keyed by.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asymptotic;
mod atom;
pub mod canonical;
mod error;
mod formula;
mod linear;
mod monomial;
mod polynomial;
mod var;

pub use atom::{Atom, ConstraintOp};
pub use error::FormulaError;
pub use formula::{Dnf, QfFormula};
pub use linear::LinearExpr;
pub use monomial::Monomial;
pub use polynomial::Polynomial;
pub use var::Var;
