//! Soundness of the `qarith-rewrite` pipeline: rewritten measurements
//! agree with unrewritten ones, and the independence-decomposition
//! product rule is pinned on hand-computed disjoint wedges.
//!
//! Three families of properties:
//!
//! 1. **Cross-pipeline agreement** — for proptest-generated formulas,
//!    `ν` measured with the rewrite pipeline enabled agrees with the
//!    unrewritten measurement within the sum of the two error budgets
//!    plus slack, for the exact/FPRAS/AFPRAS routes alike; and when
//!    both sides land on exact evaluators the values agree to rounding.
//! 2. **Product rule** — decomposition-product estimates (both the
//!    joint-residual default and the explicit ε/k `Split` budget) agree
//!    with whole-formula estimates, and hand-computed disjoint wedges
//!    pin the exact products.
//! 3. **Pass semantics** — `qarith_rewrite::ae_simplify` reproduces the
//!    deprecated `QfFormula::ae_simplified` shim bit for bit, and the
//!    full pass pipeline preserves per-direction limit truth on the
//!    Boolean-identity passes.

use proptest::prelude::*;

use qarith::constraints::asymptotic::formula_limit_truth;
use qarith::constraints::{Atom, ConstraintOp, Polynomial, QfFormula, Var};
use qarith::core::afpras::AfprasOptions;
use qarith::engine::cq::CandidateAnswer;
use qarith::prelude::*;
use qarith::rewrite::{ae_simplify, FactorBudget};

fn z(i: u32) -> Polynomial {
    Polynomial::var(Var(i))
}

fn c(n: i64) -> Polynomial {
    Polynomial::constant(Rational::from_int(n))
}

fn atom(p: Polynomial, op: ConstraintOp) -> QfFormula {
    QfFormula::atom(Atom::new(p, op))
}

fn any_op() -> impl Strategy<Value = ConstraintOp> {
    prop_oneof![
        Just(ConstraintOp::Lt),
        Just(ConstraintOp::Le),
        Just(ConstraintOp::Gt),
        Just(ConstraintOp::Ge),
        Just(ConstraintOp::Eq),
        Just(ConstraintOp::Ne),
    ]
}

/// A linear atom over a few variables — in reach of every method.
fn linear_atom(max_vars: u32) -> impl Strategy<Value = QfFormula> {
    (prop::collection::vec((-4i128..=4, 0..max_vars), 1..3), -20i128..=20, any_op()).prop_map(
        |(coeffs, k, o)| {
            let mut p = Polynomial::constant(Rational::new(k, 2));
            for (a, v) in coeffs {
                p = p + Polynomial::constant(Rational::new(a, 1)) * Polynomial::var(Var(v));
            }
            QfFormula::atom(Atom::new(p, o))
        },
    )
}

fn linear_formula(max_vars: u32) -> impl Strategy<Value = QfFormula> {
    linear_atom(max_vars).prop_recursive(2, 12, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(QfFormula::and),
            prop::collection::vec(inner.clone(), 1..4).prop_map(QfFormula::or),
            inner.prop_map(QfFormula::negated),
        ]
    })
}

fn engine(method: MethodChoice, rewrite: bool) -> CertaintyEngine {
    let mut options = MeasureOptions { method, ..MeasureOptions::default() };
    if rewrite {
        options = options.with_rewrite(RewriteOptions::full());
    }
    CertaintyEngine::new(options)
}

// ---------------------------------------------------------------------
// 1. Rewritten ν agrees with unrewritten ν across methods
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Auto route: both sides carry (at worst) the default AFPRAS ε =
    /// 0.05 additive budget; 2ε + slack covers two independent runs.
    #[test]
    fn rewritten_auto_agrees(f in linear_formula(4)) {
        let plain = engine(MethodChoice::Auto, false).nu(&f).unwrap();
        let rewritten = engine(MethodChoice::Auto, true).nu(&f).unwrap();
        prop_assert!(rewritten.rewritten, "provenance flag must be set");
        prop_assert!(!plain.rewritten);
        prop_assert!(
            (plain.value - rewritten.value).abs() < 2.0 * 0.05 + 0.02,
            "plain {} vs rewritten {} on {}", plain.value, rewritten.value, f
        );
        // Exact-on-both-sides cases agree to closed-form rounding.
        if plain.method == Method::Exact && rewritten.method == Method::Exact {
            prop_assert!(
                (plain.value - rewritten.value).abs() < 1e-9,
                "exact drift: {} vs {} on {}", plain.value, rewritten.value, f
            );
        }
    }

    /// Forced AFPRAS with and without rewriting.
    #[test]
    fn rewritten_afpras_agrees(f in linear_formula(3), seed in 0u64..300) {
        let mut options = MeasureOptions {
            method: MethodChoice::Afpras,
            afpras: AfprasOptions { epsilon: 0.04, delta: 0.01, seed, ..AfprasOptions::default() },
            ..MeasureOptions::default()
        };
        let plain = CertaintyEngine::new(options.clone()).nu(&f).unwrap();
        options = options.with_rewrite(RewriteOptions::full());
        let rewritten = CertaintyEngine::new(options).nu(&f).unwrap();
        prop_assert!(
            (plain.value - rewritten.value).abs() < 2.0 * 0.04 + 0.03,
            "plain {} vs rewritten {} on {}", plain.value, rewritten.value, f
        );
    }

    /// Forced FPRAS with and without rewriting (linear formulas only —
    /// FPRAS's domain).
    #[test]
    fn rewritten_fpras_agrees(f in linear_formula(3), seed in 0u64..300) {
        let mut options = MeasureOptions { method: MethodChoice::Fpras, ..MeasureOptions::default() };
        options.fpras.epsilon = 0.08;
        options.fpras.seed = seed;
        let plain = CertaintyEngine::new(options.clone()).nu(&f).unwrap();
        options = options.with_rewrite(RewriteOptions::full());
        let rewritten = CertaintyEngine::new(options).nu(&f).unwrap();
        // Multiplicative budgets on [0,1] values: additive gap ≤ ε each,
        // plus heuristic-volume slack (as in tests/method_consistency.rs).
        prop_assert!(
            (plain.value - rewritten.value).abs() < 2.0 * 0.08 + 0.05,
            "plain {} vs rewritten {} on {}", plain.value, rewritten.value, f
        );
    }

    /// The decomposition product rule: Split-budget per-factor sampling
    /// agrees with the joint-residual default, and both with the
    /// unrewritten estimate.
    #[test]
    fn split_budget_agrees_with_residual(
        fs in prop::collection::vec(linear_formula(2), 2..4),
        seed in 0u64..200,
    ) {
        // Shift each part onto its own variables: a guaranteed
        // variable-disjoint conjunction.
        let parts: Vec<QfFormula> = fs.iter().enumerate().map(|(i, f)| {
            fn shift(f: &QfFormula, by: u32) -> QfFormula {
                match f {
                    QfFormula::True => QfFormula::True,
                    QfFormula::False => QfFormula::False,
                    QfFormula::Atom(a) =>
                        QfFormula::atom(Atom::new(a.poly().map_vars(|v| Var(v.0 + by)), a.op())),
                    QfFormula::Not(inner) => shift(inner, by).negated(),
                    QfFormula::And(ps) => QfFormula::and(ps.iter().map(|p| shift(p, by))),
                    QfFormula::Or(ps) => QfFormula::or(ps.iter().map(|p| shift(p, by))),
                }
            }
            shift(f, i as u32 * 2)
        }).collect();
        let f = QfFormula::and(parts);

        let base = MeasureOptions {
            method: MethodChoice::Afpras,
            afpras: AfprasOptions { epsilon: 0.05, delta: 0.02, seed, ..AfprasOptions::default() },
            ..MeasureOptions::default()
        };
        let plain = CertaintyEngine::new(base.clone()).nu(&f).unwrap();
        let residual = CertaintyEngine::new(base.clone().with_rewrite(RewriteOptions::full()))
            .nu(&f).unwrap();
        let mut split_options = RewriteOptions::full();
        split_options.budget = FactorBudget::Split;
        let split = CertaintyEngine::new(base.with_rewrite(split_options)).nu(&f).unwrap();

        prop_assert!((plain.value - residual.value).abs() < 2.0 * 0.05 + 0.03,
            "residual {} vs plain {} on {}", residual.value, plain.value, f);
        prop_assert!((plain.value - split.value).abs() < 2.0 * 0.05 + 0.03,
            "split {} vs plain {} on {}", split.value, plain.value, f);
        prop_assert!((residual.value - split.value).abs() < 2.0 * 0.05 + 0.03);
    }

    /// The batch path with rewriting: per-candidate answers equal the
    /// one-at-a-time rewritten `nu`, bit for bit, warm or cold.
    #[test]
    fn rewritten_batch_matches_rewritten_nu(
        formulas in prop::collection::vec(linear_formula(3), 1..5),
    ) {
        let eng = engine(MethodChoice::Auto, true)
            .with_cache(std::sync::Arc::new(NuCache::default()));
        let candidates: Vec<CandidateAnswer> = formulas.iter().enumerate().map(|(i, f)| {
            CandidateAnswer {
                tuple: Tuple::new(vec![Value::int(i as i64)]),
                formula: std::sync::Arc::new(f.clone()),
                derivations: 1,
                certain: false,
                truncated: false,
            }
        }).collect();
        let batch = eng.measure_batch(candidates.clone()).unwrap();
        for (cand, ans) in candidates.iter().zip(&batch.answers) {
            let solo = eng.nu(&cand.formula).unwrap();
            // Asymptotic-class members may share a group whose exact
            // closed forms differ from a standalone evaluation in the
            // final ulp (documented in the batch engine); values are
            // equal to rounding.
            prop_assert!((solo.value - ans.certainty.value).abs() < 1e-9,
                "batch {} vs solo {} on {}", ans.certainty.value, solo.value, cand.formula);
            prop_assert!(ans.certainty.rewritten);
        }
        // Warm pass: served from the ν-cache with identical bits.
        let warm = eng.measure_batch(candidates).unwrap();
        prop_assert_eq!(warm.stats.measured, 0);
        for (a, b) in batch.answers.iter().zip(&warm.answers) {
            prop_assert_eq!(a.certainty.value.to_bits(), b.certainty.value.to_bits());
        }
    }

    /// `ae_simplify` is bit-identical to the frozen deprecated shim, and
    /// the Boolean-normalization passes preserve limit truth pointwise.
    #[test]
    fn passes_preserve_semantics(
        f in linear_formula(3),
        dir in prop::collection::vec(-1.0f64..1.0, 6),
    ) {
        #[allow(deprecated)]
        let shim = f.ae_simplified();
        prop_assert_eq!(ae_simplify(&f), shim);

        // Normalization-only simplification (no a.e. atom surgery beyond
        // the shared ae pass) keeps the limit truth at every direction
        // where no equality atom is on its boundary — proptest directions
        // are generic, so just compare outcomes through the ae-simplified
        // forms on both sides.
        let rewriter = Rewriter::new(RewriteOptions::full());
        let simplified = rewriter.simplify(&f);
        let baseline = ae_simplify(&f);
        // `simplified` additionally folds/normalizes; both are ν-equal,
        // and on generic directions the limit truths agree.
        let a = formula_limit_truth(&baseline, &dir);
        let b = formula_limit_truth(&simplified, &dir);
        if a != b {
            // Disagreement is only possible on the measure-zero boundary
            // set of a folded atom; a generic perturbation must re-agree.
            let nudged: Vec<f64> =
                dir.iter().enumerate().map(|(i, x)| x + 1e-4 * (i as f64 + 1.0) * 0.7317).collect();
            prop_assert_eq!(
                formula_limit_truth(&baseline, &nudged),
                formula_limit_truth(&simplified, &nudged),
                "persistent drift on {}", f
            );
        }
    }
}

// ---------------------------------------------------------------------
// 2. Hand-computed product-rule pins
// ---------------------------------------------------------------------

#[test]
fn disjoint_wedge_products_are_exact() {
    // Three independent half-lines: ν = (1/2)³.
    let f = QfFormula::and([
        atom(z(0), ConstraintOp::Gt),
        atom(z(1), ConstraintOp::Gt),
        atom(z(2), ConstraintOp::Gt),
    ]);
    let est = engine(MethodChoice::Auto, true).nu(&f).unwrap();
    assert_eq!(est.exact, Some(Rational::new(1, 8)));
    assert_eq!(est.method, Method::Exact);
    assert_eq!(est.samples, 0, "no sampling on fully exact factors");

    // Two disjoint 2-D wedges (Proposition 6.1 family): the measure is
    // the product of the arctangent closed forms.
    let wedge = |x: u32, y: u32, alpha: i64| {
        QfFormula::and([
            atom(z(x), ConstraintOp::Ge),
            atom(z(y) - c(alpha) * z(x), ConstraintOp::Le),
        ])
    };
    let f = QfFormula::and([wedge(0, 1, 1), wedge(2, 3, 3)]);
    let est = engine(MethodChoice::Auto, true).nu(&f).unwrap();
    let closed =
        |alpha: f64| ((alpha).atan() + std::f64::consts::PI / 2.0) / (2.0 * std::f64::consts::PI);
    let expected = closed(1.0) * closed(3.0);
    assert!(
        (est.value - expected).abs() < 1e-9,
        "wedge product {} vs closed form {expected}",
        est.value
    );
    assert_eq!(est.method, Method::Exact);

    // The dual rule on a disjoint disjunction: 1 − (1 − 1/2)(1 − 1/4).
    let f = QfFormula::or([
        atom(z(0), ConstraintOp::Gt),
        QfFormula::and([atom(z(1), ConstraintOp::Gt), atom(z(2), ConstraintOp::Gt)]),
    ]);
    let est = engine(MethodChoice::Auto, true).nu(&f).unwrap();
    assert_eq!(est.exact, Some(Rational::new(5, 8)));
}

#[test]
fn trivial_atom_elimination_reduces_dimension() {
    // (z0² + z1² + 1 > 0) is a.e. true and folds away entirely; what
    // remains is an exact half-line.
    let f = QfFormula::and([
        atom(z(0) * z(0) + z(1) * z(1) + c(1), ConstraintOp::Gt),
        atom(z(2), ConstraintOp::Gt),
    ]);
    let est = engine(MethodChoice::Auto, true).nu(&f).unwrap();
    assert_eq!(est.exact, Some(Rational::new(1, 2)));
    assert_eq!(est.dimension, 1, "folded atoms drop their variables");

    // An a.e.-false atom collapses the whole conjunction.
    let f = QfFormula::and([
        atom(c(-1) * z(0) * z(0) - c(5), ConstraintOp::Gt),
        atom(z(1), ConstraintOp::Gt),
    ]);
    let est = engine(MethodChoice::Auto, true).nu(&f).unwrap();
    assert_eq!(est.exact, Some(Rational::ZERO));
    assert_eq!(est.samples, 0);
}

#[test]
fn exact_only_route_uses_factor_decomposition() {
    // Whole formula: 4 variables, beyond the frozen exact evaluators and
    // the order fragment (coefficients ≠ ±1); factored: two 2-D linear
    // pieces, each exact.
    let f = QfFormula::and([
        atom(c(3) * z(0) - c(2) * z(1), ConstraintOp::Le),
        atom(c(5) * z(2) - c(7) * z(3), ConstraintOp::Ge),
    ]);
    assert!(
        engine(MethodChoice::ExactOnly, false).nu(&f).is_err(),
        "unrewritten exact-only cannot handle the joint formula"
    );
    let est = engine(MethodChoice::ExactOnly, true).nu(&f).unwrap();
    assert_eq!(est.method, Method::Exact);
    assert!((est.value - 0.25).abs() < 1e-9, "two independent halfplanes: 1/2 · 1/2");
}
