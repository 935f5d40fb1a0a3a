//! Property test for the simplification passes: a simplified formula
//! agrees with the original asymptotically at every direction outside
//! the null set where some folded atom's restriction vanishes.

use proptest::prelude::*;

use qarith_constraints::asymptotic::formula_limit_truth;
use qarith_constraints::{Atom, ConstraintOp, Monomial, Polynomial, QfFormula, Var};
use qarith_numeric::Rational;
use qarith_rewrite::simplify;

fn rational() -> impl Strategy<Value = Rational> {
    (-20i128..=20, 1i128..=8).prop_map(|(n, d)| Rational::new(n, d))
}

fn polynomial() -> impl Strategy<Value = Polynomial> {
    prop::collection::vec((rational(), 0u32..3, 0u32..=2, 0u32..3, 0u32..=1), 0..4).prop_map(
        |terms| {
            let mut p = Polynomial::zero();
            for (c, v1, e1, v2, e2) in terms {
                p.add_term(Monomial::from_pairs([(Var(v1), e1), (Var(v2), e2)]), c).unwrap();
            }
            p
        },
    )
}

fn op() -> impl Strategy<Value = ConstraintOp> {
    prop_oneof![
        Just(ConstraintOp::Lt),
        Just(ConstraintOp::Le),
        Just(ConstraintOp::Eq),
        Just(ConstraintOp::Ne),
        Just(ConstraintOp::Gt),
        Just(ConstraintOp::Ge),
    ]
}

fn formula() -> impl Strategy<Value = QfFormula> {
    let leaf = (polynomial(), op()).prop_map(|(p, o)| QfFormula::atom(Atom::new(p, o)));
    leaf.prop_recursive(3, 20, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..3).prop_map(QfFormula::and),
            prop::collection::vec(inner.clone(), 1..3).prop_map(QfFormula::or),
            inner.prop_map(QfFormula::negated),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Simplification agrees with the original asymptotically, except
    /// on the null set where an equality's or a folded atom's
    /// restriction vanishes — excluded by re-checking with a perturbed
    /// direction.
    #[test]
    fn simplification_is_asymptotically_sound(
        f in formula(),
        raw_dir in prop::collection::vec(-2.0f64..2.0, 3),
    ) {
        let g = simplify(&f);
        let orig = formula_limit_truth(&f, &raw_dir);
        let simp = formula_limit_truth(&g, &raw_dir);
        if orig != simp {
            // Must be caused by an atom whose top component vanishes
            // along this direction; perturbing the direction must break
            // the tie.
            let perturbed: Vec<f64> = raw_dir
                .iter()
                .enumerate()
                .map(|(i, x)| x + 1e-3 * ((i + 1) as f64) * 0.7318)
                .collect();
            let orig_p = formula_limit_truth(&f, &perturbed);
            let simp_p = formula_limit_truth(&g, &perturbed);
            prop_assert_eq!(orig_p, simp_p, "perturbation should reconcile: {}", f);
        }
    }
}
