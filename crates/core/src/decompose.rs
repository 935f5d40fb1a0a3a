//! Decomposed measurement: the rewrite pipeline's half of the engine's
//! router.
//!
//! On the `Auto` and `ExactOnly` routes `CertaintyEngine` rewrites each
//! measured formula through `qarith-rewrite` (simplification +
//! independence decomposition) and hands the outcome to `route`, which
//! evaluates every variable-disjoint factor an exact evaluator covers —
//! the decomposition makes that far more frequent — and leaves the rest
//! to the engine's one measurement loop (or, under `ExactOnly`, fails).
//! The loop samples that residual in its shared pass and multiplies it
//! back in through `combine`, which is exact because the factors'
//! asymptotic events are independent under the uniform direction
//! measure (see `qarith_rewrite::decompose`).
//!
//! **Error accounting.** Exactly-evaluated factors contribute zero
//! error, and multiplying an estimate by exact constants in `[0, 1]`
//! never grows its error, so the full ε/δ budget goes to whatever still
//! needs sampling. The sampled factors are rejoined into one residual
//! and measured once with the full budget:
//! `|ν̂ᵣ·∏νₑ − νᵣ·∏νₑ| = ∏νₑ·|ν̂ᵣ − νᵣ| ≤ ε`, and the run draws no more
//! directions than the unrewritten one (over a no-larger formula in a
//! no-larger direction space).
//!
//! **Determinism.** Every factor measurement is a deterministic
//! function of (factor, options) — exact closed forms, or Monte-Carlo
//! with the configured seed — and the combination multiplies the factor
//! values in ascending `f64` order, so the product does not depend on
//! the (renaming-sensitive) factor discovery order. Estimates are
//! therefore reproducible and safe to memoize in the ν-cache under the
//! options fingerprint.

use std::borrow::Cow;

use qarith_constraints::QfFormula;
use qarith_numeric::Rational;
use qarith_rewrite::{Combination, RewriteOutcome};

use crate::afpras::AfprasOptions;
use crate::error::MeasureError;
use crate::estimate::{CertaintyEstimate, Method};
use crate::exact::try_exact;
use crate::pipeline::{Finish, MeasureOptions, MethodChoice, Route};

/// Per-formula accounting of one rewritten measurement, aggregated into
/// `BatchStats::rewrite` by the batch engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct RewriteTrace {
    /// Variable-disjoint factors the formula split into (0 for
    /// constants, 1 when no decomposition applied).
    pub factors: usize,
    /// Factors measured by an exact evaluator.
    pub exact_factors: usize,
    /// Distinct variables before rewriting.
    pub dim_before: usize,
    /// Distinct variables after simplification (= Σ factor dimensions).
    pub dim_after: usize,
}

/// Aggregate rewrite accounting over a batch (freshly measured groups
/// only — ν-cache hits skip measurement and therefore leave no trace).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Groups measured through the rewrite pipeline.
    pub groups: usize,
    /// Groups that decomposed into ≥ 2 factors.
    pub factored: usize,
    /// Total factors across those groups.
    pub factors: usize,
    /// Factors routed to an exact evaluator.
    pub exact_factors: usize,
    /// Σ pre-rewrite dimensions.
    pub dim_before: usize,
    /// Σ post-rewrite dimensions.
    pub dim_after: usize,
}

impl RewriteStats {
    /// Folds one formula's trace into the aggregate.
    pub(crate) fn absorb(&mut self, trace: &RewriteTrace) {
        self.groups += 1;
        if trace.factors >= 2 {
            self.factored += 1;
        }
        self.factors += trace.factors;
        self.exact_factors += trace.exact_factors;
        self.dim_before += trace.dim_before;
        self.dim_after += trace.dim_after;
    }

    /// The counters as stable `(name, value)` pairs, in declaration
    /// order — the machine-readable export the bench suite serializes
    /// into `BENCH_*.json`. Names are part of the JSON schema: renaming
    /// one is a baseline-breaking change.
    pub fn as_pairs(&self) -> [(&'static str, u64); 6] {
        [
            ("groups", self.groups as u64),
            ("factored", self.factored as u64),
            ("factors", self.factors as u64),
            ("exact_factors", self.exact_factors as u64),
            ("dim_before", self.dim_before as u64),
            ("dim_after", self.dim_after as u64),
        ]
    }
}

/// Routes a rewrite outcome: a constant is decided, every factor an
/// exact evaluator covers is evaluated, and the rest rejoins into one
/// residual. `ExactOnly` fails on a residual; `Auto` hands it to the
/// engine's shared sampling pass, with the exact factors to combine it
/// with. See the module docs for the error accounting and determinism
/// arguments.
pub(crate) fn route(
    out: &RewriteOutcome,
    options: &MeasureOptions,
) -> (Route<'static>, RewriteTrace) {
    let combination = out.decomposition.combination;
    let factors = &out.decomposition.factors;
    let mut trace = RewriteTrace {
        factors: factors.len(),
        exact_factors: 0,
        dim_before: out.dim_before,
        dim_after: out.dim_after,
    };

    // Constants are decided, not measured.
    if factors.is_empty() {
        let truth = matches!(out.formula, QfFormula::True);
        let mut est = CertaintyEstimate::exact_rational(
            if truth { Rational::ONE } else { Rational::ZERO },
            0,
        );
        est.rewritten = true;
        return (Route::Done(Ok(est)), trace);
    }

    let mut parts: Vec<CertaintyEstimate> = Vec::with_capacity(factors.len());
    let mut residual: Vec<QfFormula> = Vec::new();
    for factor in factors {
        match try_exact(factor, options.exact_order_limit) {
            Some(est) => {
                trace.exact_factors += 1;
                parts.push(est);
            }
            None => residual.push(factor.clone()),
        }
    }
    if residual.is_empty() {
        return (Route::Done(Ok(combine(&parts, combination, &options.afpras))), trace);
    }

    // The rejoin connective matches the decomposition root, so the joint
    // residual is exactly the undecomposed remainder.
    let residual = match combination {
        Combination::Product => QfFormula::and(residual),
        Combination::DualProduct => QfFormula::or(residual),
    };
    let route = if options.method == MethodChoice::ExactOnly {
        Route::Done(Err(MeasureError::ExactUnavailable {
            reason: "a factor of the rewritten formula has no exact evaluator",
        }))
    } else {
        Route::Sample(Cow::Owned(residual), Finish::Combine(parts, combination))
    };
    (route, trace)
}

/// Combines factor estimates into one [`CertaintyEstimate`]: a product
/// for conjunction factors, a complement product for disjunction
/// factors. A sampled part is the residual's AFPRAS estimate, which
/// carries the full `afpras` budget.
pub(crate) fn combine(
    parts: &[CertaintyEstimate],
    combination: Combination,
    afpras: &AfprasOptions,
) -> CertaintyEstimate {
    // A single part needs no combination at all — pass it through (this
    // also keeps exact single-factor values bit-identical to their
    // evaluator's output, e.g. across `1 − (1 − ν)` double rounding).
    if let [single] = parts {
        let mut est = single.clone();
        est.rewritten = true;
        return est;
    }

    // Exact rational combination when every factor has one (degrading to
    // the f64 path on the astronomically unlikely i128 overflow).
    let exact = match combination {
        Combination::Product => parts.iter().try_fold(Rational::ONE, |acc, p| {
            p.exact.as_ref().and_then(|r| acc.checked_mul(r).ok())
        }),
        Combination::DualProduct => parts
            .iter()
            .try_fold(Rational::ONE, |acc, p| {
                let complement = Rational::ONE.checked_sub(p.exact.as_ref()?).ok()?;
                acc.checked_mul(&complement).ok()
            })
            .and_then(|complement| Rational::ONE.checked_sub(&complement).ok()),
    };

    // Ascending-order multiplication: f64 products are order-sensitive,
    // and factor discovery order is not canonical under renaming.
    let mut values: Vec<f64> = match combination {
        Combination::Product => parts.iter().map(|p| p.value).collect(),
        Combination::DualProduct => parts.iter().map(|p| 1.0 - p.value).collect(),
    };
    values.sort_unstable_by(f64::total_cmp);
    let product: f64 = values.into_iter().product();
    let value = match (&exact, combination) {
        (Some(r), _) => r.to_f64(),
        (None, Combination::Product) => product,
        (None, Combination::DualProduct) => 1.0 - product,
    };

    let sampled = parts.iter().find(|p| p.method != Method::Exact);
    let mut est = CertaintyEstimate {
        value,
        exact,
        method: match sampled {
            None => Method::Exact,
            Some(p) => p.method,
        },
        epsilon: sampled.and_then(|p| p.epsilon).map(|_| afpras.epsilon),
        delta: sampled.and_then(|p| p.delta).map(|_| afpras.delta),
        samples: parts.iter().map(|p| p.samples).sum(),
        dimension: parts.iter().map(|p| p.dimension).sum(),
        cached: false,
        rewritten: true,
    };
    if est.exact.is_none() {
        // Factor values are in [0, 1] but a float product can round a
        // hair outside.
        est.value = est.value.clamp(0.0, 1.0);
    }
    est
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::afpras::afpras_estimate;
    use crate::pipeline::CertaintyEngine;
    use qarith_constraints::{Atom, ConstraintOp, Polynomial, Var};
    use qarith_engine::cq::CandidateAnswer;
    use qarith_types::Tuple;

    fn z(i: u32) -> Polynomial {
        Polynomial::var(Var(i))
    }

    fn atom(p: Polynomial, op: ConstraintOp) -> QfFormula {
        QfFormula::atom(Atom::new(p, op))
    }

    /// Measures `f` through the engine as a one-candidate batch: its
    /// estimate, and the rewrite accounting of its one group.
    fn measure(
        f: &QfFormula,
        options: MeasureOptions,
    ) -> Result<(CertaintyEstimate, RewriteStats), MeasureError> {
        let candidate = CandidateAnswer {
            tuple: Tuple::new(Vec::new()),
            formula: Arc::new(f.clone()),
            derivations: 1,
            certain: false,
            truncated: false,
        };
        let out = CertaintyEngine::new(options).measure_batch(vec![candidate])?;
        assert_eq!(out.stats.rewrite.groups, 1);
        Ok((out.answers[0].certainty.clone(), out.stats.rewrite))
    }

    #[test]
    fn product_of_exact_halves() {
        // (z0 > 0) ∧ (z1 > 0) ∧ (z2 > 0): three 1-D factors, ν = 1/8.
        let f = QfFormula::and([
            atom(z(0), ConstraintOp::Gt),
            atom(z(1), ConstraintOp::Gt),
            atom(z(2), ConstraintOp::Gt),
        ]);
        let (est, trace) = measure(&f, MeasureOptions::default()).unwrap();
        assert_eq!(est.exact, Some(Rational::new(1, 8)));
        assert_eq!(est.method, Method::Exact);
        assert_eq!(est.samples, 0);
        assert!(est.rewritten);
        assert_eq!(trace.factors, 3);
        assert_eq!(trace.exact_factors, 3);
        assert_eq!(trace.dim_after, 3);
    }

    #[test]
    fn dual_product_on_disjoint_disjunctions() {
        // (z0 > 0) ∨ (z1 > 0): ν = 1 − (1 − ½)(1 − ½) = 3/4, exactly.
        let f = QfFormula::or([atom(z(0), ConstraintOp::Gt), atom(z(1), ConstraintOp::Gt)]);
        let (est, trace) = measure(&f, MeasureOptions::default()).unwrap();
        assert_eq!(est.exact, Some(Rational::new(3, 4)));
        assert_eq!(est.method, Method::Exact);
        assert_eq!(trace.factors, 2);
        assert_eq!(trace.exact_factors, 2);
        // Three-way: 1 − (1/2)³ = 7/8.
        let g = QfFormula::or([
            atom(z(0), ConstraintOp::Gt),
            atom(z(1), ConstraintOp::Gt),
            atom(z(2), ConstraintOp::Gt),
        ]);
        let est = CertaintyEngine::new(MeasureOptions::default()).nu(&g).unwrap();
        assert_eq!(est.exact, Some(Rational::new(7, 8)));
    }

    #[test]
    fn trivial_atoms_fold_before_routing() {
        // The quadratic conjunct is a.e. true; what remains is exact 1-D.
        let f = QfFormula::and([
            atom(z(0) * z(0) + z(1) * z(1), ConstraintOp::Gt),
            atom(z(2), ConstraintOp::Lt),
        ]);
        let (est, trace) = measure(&f, MeasureOptions::default()).unwrap();
        assert_eq!(est.exact, Some(Rational::new(1, 2)));
        assert_eq!(trace.dim_before, 3);
        assert_eq!(trace.dim_after, 1);
    }

    #[test]
    fn constants_yield_exact_zero_or_one() {
        // A complement pair annihilates to the constant `false` — no
        // factors to measure at all.
        let contradiction =
            QfFormula::and([atom(z(0), ConstraintOp::Gt), atom(z(0), ConstraintOp::Le)]);
        let (est, trace) = measure(&contradiction, MeasureOptions::default()).unwrap();
        assert_eq!(est.exact, Some(Rational::ZERO));
        assert_eq!(trace.factors, 0);
        // z0 > 0 ∧ z0 < 0 is not a complement pair (complement of > is
        // ≤); it survives normalization and the 1-D exact evaluator
        // still lands on zero.
        let near = QfFormula::and([atom(z(0), ConstraintOp::Gt), atom(z(0), ConstraintOp::Lt)]);
        let (est, trace) = measure(&near, MeasureOptions::default()).unwrap();
        assert_eq!(est.exact, Some(Rational::ZERO));
        assert_eq!(trace.factors, 1);
        assert_eq!(trace.exact_factors, 1);
    }

    #[test]
    fn exact_only_requires_every_factor_exact() {
        let hard = atom(z(0) * z(0) + z(0) * z(1) - z(2), ConstraintOp::Lt);
        let easy = atom(z(3), ConstraintOp::Gt);
        let f = QfFormula::and([hard, easy]);
        let options =
            MeasureOptions { method: MethodChoice::ExactOnly, ..MeasureOptions::default() };
        assert!(matches!(measure(&f, options), Err(MeasureError::ExactUnavailable { .. })));
    }

    #[test]
    fn mixed_exact_and_sampled_factors_multiply() {
        // (z0 > 0) — exact 1/2 — times a genuinely sampled 3-D factor
        // (its multi-term quadratic top defeats every exact evaluator).
        let sampled = QfFormula::or([
            QfFormula::and([
                atom(z(1) * z(1) + z(1) * z(2), ConstraintOp::Gt),
                atom(z(3), ConstraintOp::Lt),
            ]),
            atom(z(1) - z(3), ConstraintOp::Gt),
        ]);
        let f = QfFormula::and([atom(z(0), ConstraintOp::Gt), sampled.clone()]);
        let options = MeasureOptions::default();
        let (est, trace) = measure(&f, options.clone()).unwrap();
        assert_eq!(trace.factors, 2);
        assert_eq!(trace.exact_factors, 1);
        assert_eq!(est.method, Method::Afpras);
        assert!(est.exact.is_none());
        // The sampled factor alone, scaled by the exact 1/2.
        let alone = afpras_estimate(&sampled, &options.afpras).unwrap();
        let expected: f64 = [0.5, alone.value].iter().product();
        assert_eq!(est.value.to_bits(), expected.to_bits(), "deterministic product");
    }
}
