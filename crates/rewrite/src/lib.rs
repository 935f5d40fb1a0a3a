//! # qarith-rewrite — ν-preserving formula rewriting
//!
//! Layering: above `qarith-constraints`, below `qarith-core` (whose
//! engine routes and measures the outcomes produced here). Paper
//! touchpoints: Lemma 8.4 (almost-everywhere constant limit signs) and
//! the independence of variable-disjoint direction events behind the
//! §8 measure.
//!
//! The Theorem 8.1 sampling loop pays `ε⁻²` directions per formula with
//! `O(|φ|)` work per direction, even when the ground formula (the
//! Proposition 5.3 output) is bloated with trivially-decidable atoms or
//! splits into variable-disjoint components. This crate makes each
//! formula *cheaper and lower-dimensional* before measurement, without
//! changing its measure `ν`:
//!
//! 1. **Trivial-atom elimination** ([`simplify`]) — constant folding
//!    through exact ℚ interval/bound propagation
//!    (`qarith_constraints::asymptotic::constant_limit_sign`): atoms
//!    whose limit sign is constant over (almost) all directions collapse
//!    to `True`/`False`, which the smart constructors absorb through
//!    `And`/`Or`. The measure-zero equality/disequality elimination of
//!    the historical `QfFormula::ae_simplified` is the weak special case
//!    ([`ae_simplify`], bit-identical to the now-deprecated shim).
//! 2. **Boolean normalization** ([`simplify`]) — flattening (inherited
//!    from the smart constructors), child deduplication, complement
//!    annihilation (`α ∧ ¬α ⇝ false`), and absorption
//!    (`α ∧ (α ∨ β) ⇝ α`). These are pointwise Boolean identities, valid
//!    at every direction, not just almost everywhere.
//! 3. **Independence decomposition** ([`decompose`]) — a top-level
//!    conjunction splits into variable-disjoint factors by connected
//!    components of the atom–variable incidence graph. Under the uniform
//!    direction measure the factors' asymptotic events are independent
//!    (see the module docs of [`decompose`]), so
//!    `ν(φ₁ ∧ … ∧ φ_k) = ∏ᵢ ν(φᵢ)` — each factor can be measured
//!    separately, in its own (much smaller) direction space, and small
//!    factors come within reach of the exact evaluators.
//!
//! Every pass preserves `ν` exactly: passes 2–3 preserve the limit
//! truth at *every* direction, pass 1 at almost every direction (a null
//! set cannot change a probability). What rewriting does **not**
//! preserve is the bit pattern of a Monte-Carlo estimate — the sampled
//! formula and its dimension change — which is why `qarith-core` folds
//! the [`RewriteOptions`] switch into the options fingerprint and flags
//! rewritten estimates in their provenance.
//!
//! [`rewrite`] runs all three passes; `qarith-core`'s `CertaintyEngine`
//! runs it when `MeasureOptions::rewrite` is enabled, ahead of keying,
//! so the ν-cache keys pick up the rewritten form.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decompose;
mod options;
mod simplify;

pub use decompose::{decompose, Combination, Decomposition};
pub use options::RewriteOptions;
pub use simplify::ae_simplify;

use qarith_constraints::QfFormula;

/// Fixpoint cap for the normalization loop of [`simplify`]. Rarely more
/// than two iterations are needed; the cap guards against pathological
/// ping-ponging ever being introduced.
const MAX_PASSES: usize = 8;

/// The result of running the full pipeline on a formula.
#[derive(Clone, Debug)]
pub struct RewriteOutcome {
    /// The simplified formula (NNF; `True`/`False` only at the root).
    pub formula: QfFormula,
    /// Variable-disjoint factors of [`RewriteOutcome::formula`] with
    /// their combination rule (product for `And` roots, complement
    /// product for `Or` roots). No factors iff the formula collapsed to
    /// a constant; a single factor means no decomposition applied.
    pub decomposition: Decomposition,
    /// AST size of the input.
    pub size_before: usize,
    /// AST size of the simplified formula.
    pub size_after: usize,
    /// Distinct variables in the input.
    pub dim_before: usize,
    /// Distinct variables after simplification (= the sum of the factor
    /// dimensions: factors partition the surviving variables).
    pub dim_after: usize,
}

/// Runs the simplification passes (1–2) to a fixpoint, without
/// decomposing. The result is in NNF and has the same `ν` as the input.
/// Idempotent: `simplify(simplify(φ)) == simplify(φ)`.
pub fn simplify(phi: &QfFormula) -> QfFormula {
    let mut cur = simplify::simplify_atoms(&phi.nnf(), true);
    // Normalization is bottom-up, so a single pass handles nested
    // opportunities; the fixpoint loop covers the rare cascades where an
    // absorption at one level exposes a new one above it.
    for _ in 0..MAX_PASSES {
        let next = simplify::normalize_node(&cur);
        if next == cur {
            break;
        }
        cur = next;
    }
    cur
}

/// Runs the full pipeline: simplification plus independence
/// decomposition of the top-level connective.
pub fn rewrite(phi: &QfFormula) -> RewriteOutcome {
    let formula = simplify(phi);
    let decomposition = decompose(&formula);
    let dim_after = decomposition.factors.iter().map(|f| f.vars().len()).sum();
    RewriteOutcome {
        size_before: phi.size(),
        size_after: formula.size(),
        dim_before: phi.vars().len(),
        dim_after,
        formula,
        decomposition,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qarith_constraints::{Atom, ConstraintOp, Polynomial, Var};
    use qarith_numeric::Rational;

    fn z(i: u32) -> Polynomial {
        Polynomial::var(Var(i))
    }

    fn c(n: i64) -> Polynomial {
        Polynomial::constant(Rational::from_int(n))
    }

    fn atom(p: Polynomial, op: ConstraintOp) -> QfFormula {
        QfFormula::atom(Atom::new(p, op))
    }

    #[test]
    fn trivial_atoms_fold_away() {
        // (z0² + z1² > 0) ∧ (z2 < 0): the first conjunct is a.e. true.
        let f = QfFormula::and([
            atom(z(0) * z(0) + z(1) * z(1), ConstraintOp::Gt),
            atom(z(2), ConstraintOp::Lt),
        ]);
        let out = rewrite(&f);
        assert_eq!(out.formula, atom(z(2), ConstraintOp::Lt));
        assert_eq!(out.dim_before, 3);
        assert_eq!(out.dim_after, 1);
        // An a.e.-false atom collapses a conjunction entirely.
        let g = QfFormula::and([
            atom(c(-1) * z(0) * z(0) - c(3), ConstraintOp::Ge),
            atom(z(1), ConstraintOp::Lt),
        ]);
        assert_eq!(rewrite(&g).formula, QfFormula::False);
    }

    #[test]
    fn normalization_dedups_absorbs_annihilates() {
        let a = atom(z(0), ConstraintOp::Lt);
        let b = atom(z(1), ConstraintOp::Gt);
        // α ∧ α ⇝ α.
        assert_eq!(simplify(&QfFormula::and([a.clone(), a.clone()])), a);
        // α ∧ (α ∨ β) ⇝ α.
        let f = QfFormula::and([a.clone(), QfFormula::or([a.clone(), b.clone()])]);
        assert_eq!(simplify(&f), a);
        // α ∨ (α ∧ β) ⇝ α.
        let f = QfFormula::or([a.clone(), QfFormula::and([a.clone(), b.clone()])]);
        assert_eq!(simplify(&f), a);
        // α ∧ ¬α ⇝ false; α ∨ ¬α ⇝ true (complement ops).
        let na = atom(z(0), ConstraintOp::Ge);
        assert_eq!(simplify(&QfFormula::and([a.clone(), na.clone()])), QfFormula::False);
        assert_eq!(simplify(&QfFormula::or([a.clone(), na])), QfFormula::True);
    }

    #[test]
    fn simplify_is_idempotent() {
        let f = QfFormula::and([
            QfFormula::or([atom(z(0), ConstraintOp::Lt), atom(z(1), ConstraintOp::Gt)]),
            atom(z(0), ConstraintOp::Lt),
            atom(z(2) - z(3), ConstraintOp::Eq).negated(),
        ]);
        let once = simplify(&f);
        assert_eq!(simplify(&once), once);
    }

    #[test]
    fn rewrite_decomposes_disjoint_conjunctions() {
        // (z0 < z1) ∧ (z2 > 0) ∧ (z1 ≥ 0): components {z0, z1} and {z2}.
        let f = QfFormula::and([
            atom(z(0) - z(1), ConstraintOp::Lt),
            atom(z(2), ConstraintOp::Gt),
            atom(z(1), ConstraintOp::Ge),
        ]);
        let out = rewrite(&f);
        let factors = &out.decomposition.factors;
        assert_eq!(factors.len(), 2);
        assert_eq!(
            factors[0],
            QfFormula::and([atom(z(0) - z(1), ConstraintOp::Lt), atom(z(1), ConstraintOp::Ge),])
        );
        assert_eq!(factors[1], atom(z(2), ConstraintOp::Gt));
        assert_eq!(out.dim_after, 3);
    }

    #[test]
    fn constants_produce_no_factors() {
        let t =
            rewrite(&QfFormula::or([atom(z(0), ConstraintOp::Lt), atom(z(0), ConstraintOp::Ge)]));
        assert_eq!(t.formula, QfFormula::True);
        assert!(t.decomposition.factors.is_empty());
        assert_eq!(t.dim_after, 0);
    }

    #[test]
    fn legacy_ae_configuration_matches_the_frozen_shim() {
        let eq = atom(z(0) - z(1), ConstraintOp::Eq);
        let f = QfFormula::and([
            QfFormula::or([eq.clone(), atom(z(0), ConstraintOp::Lt)]),
            eq.negated(),
            atom(z(2) * z(2) - z(3), ConstraintOp::Le),
        ]);
        #[allow(deprecated)]
        let shim = f.ae_simplified();
        assert_eq!(ae_simplify(&f), shim);
    }
}
