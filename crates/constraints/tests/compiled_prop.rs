//! Property tests for the asymptotic machinery: the compiled evaluator
//! must agree with the tree interpreter on random formulas and
//! directions, and both must agree with direct evaluation at large
//! scale factors.

use proptest::prelude::*;

use qarith_constraints::asymptotic::{eval_at_scaled, formula_limit_truth, CompiledFormula};
use qarith_constraints::{Atom, ConstraintOp, Monomial, Polynomial, QfFormula, Var};
use qarith_numeric::Rational;

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

    /// The compiled hot-path evaluator is equivalent to the interpreter.
    #[test]
    fn compiled_equals_interpreter(f in formula(), raw_dir in prop::collection::vec(-3.0f64..3.0, 3)) {
        let compiled = CompiledFormula::compile(&f);
        // The interpreter indexes directions by original Var id; the
        // compiled form densifies. Project accordingly.
        let dense_dir: Vec<f64> =
            compiled.vars().iter().map(|v| raw_dir[v.index()]).collect();
        let mut memo = compiled.new_memo();
        prop_assert_eq!(
            compiled.limit_truth(&dense_dir, &mut memo),
            formula_limit_truth(&f, &raw_dir),
            "formula {}", f
        );
    }

    /// Lemma 8.2/8.4: the computed limit matches evaluation at large k
    /// whenever two decades of k agree with each other.
    #[test]
    fn limit_matches_stable_large_k(f in formula(), raw_dir in prop::collection::vec(-2.0f64..2.0, 3)) {
        let a = eval_at_scaled(&f, &raw_dir, 1e7);
        let b = eval_at_scaled(&f, &raw_dir, 1e9);
        if a == b {
            prop_assert_eq!(formula_limit_truth(&f, &raw_dir), a, "formula {}", f);
        }
    }

    /// NNF and the compiled form preserve the variable set semantics:
    /// dedup never changes atom count upward.
    #[test]
    fn compilation_never_duplicates_atoms(f in formula()) {
        let compiled = CompiledFormula::compile(&f);
        prop_assert!(compiled.atom_count() <= f.nnf().atom_count());
    }
}
