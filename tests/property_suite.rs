//! Property-based tests over the whole stack.
//!
//! Strategy-generated inputs exercise the invariants that the unit tests
//! check pointwise:
//!
//! * rational arithmetic is a field (on non-overflowing inputs);
//! * polynomial arithmetic is a commutative ring, and evaluation is a
//!   homomorphism;
//! * NNF / DNF / almost-everywhere simplification preserve semantics;
//! * the asymptotic truth of Lemma 8.4 agrees with evaluation at large k;
//! * grounding (Proposition 5.3) is correct: `ℝ ⊨ φ(v̄)` iff
//!   `v(a) ∈ q(v(D))`, for random small databases, CQs, and valuations;
//! * the CQ executor produces formulas equivalent to the generic
//!   grounding translation;
//! * the AFPRAS lands within ε of the exact order-fragment measure.

use proptest::prelude::*;

use qarith::constraints::asymptotic::{eval_at_scaled, formula_limit_truth};
use qarith::constraints::{Atom, ConstraintOp, Polynomial, QfFormula, Var};
use qarith::core::afpras::{estimate_nu, AfprasOptions};
use qarith::core::exact::order;
use qarith::engine::cq::{self, CqOptions};
use qarith::engine::{ground, naive};
use qarith::prelude::*;

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

fn rational() -> impl Strategy<Value = Rational> {
    (-50i128..=50, 1i128..=12).prop_map(|(n, d)| Rational::new(n, d))
}

fn polynomial(max_vars: u32) -> impl Strategy<Value = Polynomial> {
    // Sum of up to 4 terms: coefficient × (var^e [ × var^e ]).
    prop::collection::vec((rational(), 0..max_vars, 0u32..=2, 0..max_vars, 0u32..=1), 0..4)
        .prop_map(|terms| {
            let mut p = Polynomial::zero();
            for (c, v1, e1, v2, e2) in terms {
                let mono =
                    qarith::constraints::Monomial::from_pairs([(Var(v1), e1), (Var(v2), e2)]);
                p.add_term(mono, c).unwrap();
            }
            p
        })
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

fn formula(max_vars: u32) -> impl Strategy<Value = QfFormula> {
    let leaf = (polynomial(max_vars), op()).prop_map(|(p, o)| QfFormula::atom(Atom::new(p, o)));
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..3).prop_map(QfFormula::and),
            prop::collection::vec(inner.clone(), 1..3).prop_map(QfFormula::or),
            inner.prop_map(QfFormula::negated),
        ]
    })
}

fn point(dim: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-4.0f64..4.0, dim)
}

// ---------------------------------------------------------------------
// Rationals and polynomials
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rational_field_axioms(a in rational(), b in rational(), c in rational()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a * (b + c), a * b + a * c);
        prop_assert_eq!(a - a, Rational::ZERO);
        if !b.is_zero() {
            prop_assert_eq!(a / b * b, a);
        }
    }

    #[test]
    fn rational_order_is_compatible_with_arithmetic(a in rational(), b in rational(), c in rational()) {
        if a < b {
            prop_assert!(a + c < b + c);
            if c.signum() > 0 {
                prop_assert!(a * c < b * c);
            }
            if c.signum() < 0 {
                prop_assert!(a * c > b * c);
            }
        }
    }

    #[test]
    fn polynomial_ring_axioms(p in polynomial(3), q in polynomial(3), r in polynomial(3)) {
        prop_assert_eq!(&p + &q, &q + &p);
        prop_assert_eq!(&p * &q, &q * &p);
        prop_assert_eq!(&(&p + &q) + &r, &p + &(&q + &r));
        prop_assert_eq!(&p * &(&q + &r), &(&p * &q) + &(&p * &r));
        prop_assert!((&p - &p).is_zero());
    }

    #[test]
    fn polynomial_evaluation_is_a_homomorphism(
        p in polynomial(3),
        q in polynomial(3),
        pt in point(3),
    ) {
        let sum = (&p + &q).eval_f64(&pt);
        prop_assert!((sum - (p.eval_f64(&pt) + q.eval_f64(&pt))).abs() < 1e-6);
        let prod = (&p * &q).eval_f64(&pt);
        prop_assert!((prod - p.eval_f64(&pt) * q.eval_f64(&pt)).abs() < 1e-4);
    }

    #[test]
    fn homogeneous_components_partition(p in polynomial(3), pt in point(3)) {
        let total: f64 = (0..=p.degree())
            .map(|d| p.homogeneous_component(d).eval_f64(&pt))
            .sum();
        prop_assert!((total - p.eval_f64(&pt)).abs() < 1e-6);
    }
}

// ---------------------------------------------------------------------
// Formula transformations
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn nnf_preserves_semantics(f in formula(3), pt in point(3)) {
        prop_assert_eq!(f.eval_f64(&pt), f.nnf().eval_f64(&pt));
    }

    #[test]
    fn dnf_preserves_semantics(f in formula(3), pt in point(3)) {
        if let Ok(dnf) = f.dnf(512) {
            prop_assert_eq!(f.eval_f64(&pt), dnf.eval_f64(&pt));
        }
    }

    #[test]
    fn asymptotic_truth_matches_large_k(f in formula(3), dir in point(3)) {
        // Avoid directions where some atom's restriction sits near a
        // boundary forever (f64 noise); large-but-finite k suffices for
        // the generic directions the strategy produces.
        let limit = formula_limit_truth(&f, &dir);
        let at_large = eval_at_scaled(&f, &dir, 1e8);
        let at_larger = eval_at_scaled(&f, &dir, 1e10);
        // If the two scaled evaluations agree, the limit must match them.
        if at_large == at_larger {
            prop_assert_eq!(limit, at_large);
        }
    }

    #[test]
    fn ae_simplification_preserves_nu_on_order_formulas(f in formula(2)) {
        // Restrict to order-checkable shapes: compare exact measures when
        // both sides qualify.
        let g = qarith::rewrite::simplify(&f);
        if order::is_order_formula(&f) && order::is_order_formula(&g) {
            let a = order::exact_order_measure(&f).unwrap();
            let b = order::exact_order_measure(&g).unwrap();
            prop_assert_eq!(a, b);
        }
    }
}

// ---------------------------------------------------------------------
// Grounding correctness (Proposition 5.3) and executor agreement
// ---------------------------------------------------------------------

/// A small random database over R(a: base, x: num), S(x: num).
fn tiny_db(rows: &[(i64, Option<i64>)], srows: &[Option<i64>]) -> Database {
    let mut db = Database::new();
    let mut next_null = 0u32;
    let schema = RelationSchema::new("R", vec![Column::base("a"), Column::num("x")]).unwrap();
    let mut rel = Relation::empty(schema);
    for &(a, x) in rows {
        let xv = match x {
            Some(v) => Value::num(v),
            None => {
                let id = NumNullId(next_null);
                next_null += 1;
                Value::NumNull(id)
            }
        };
        rel.insert_values(vec![Value::int(a), xv]).unwrap();
    }
    db.add_relation(rel).unwrap();
    let schema = RelationSchema::new("S", vec![Column::num("x")]).unwrap();
    let mut rel = Relation::empty(schema);
    for &x in srows {
        let xv = match x {
            Some(v) => Value::num(v),
            None => {
                let id = NumNullId(next_null);
                next_null += 1;
                Value::NumNull(id)
            }
        };
        rel.insert_values(vec![xv]).unwrap();
    }
    db.add_relation(rel).unwrap();
    db
}

/// q(a) = ∃x,y R(a,x) ∧ S(y) ∧ x ⋈ y.
fn join_cmp_query(db: &Database, cmp: CompareOp) -> Query {
    Query::new(
        vec![TypedVar::base("a")],
        Formula::exists(
            vec![TypedVar::num("x"), TypedVar::num("y")],
            Formula::and(vec![
                Formula::rel("R", vec![Arg::Base(BaseTerm::var("a")), Arg::Num(NumTerm::var("x"))]),
                Formula::rel("S", vec![Arg::Num(NumTerm::var("y"))]),
                Formula::cmp(NumTerm::var("x"), cmp, NumTerm::var("y")),
            ]),
        ),
        &db.catalog(),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Proposition 5.3, tested literally: for random valuations v̄,
    /// ℝ ⊨ φ(v̄) iff v(a) ∈ q(v(D)).
    #[test]
    fn grounding_matches_evaluation(
        rows in prop::collection::vec((0i64..3, prop::option::of(-5i64..5)), 1..4),
        srows in prop::collection::vec(prop::option::of(-5i64..5), 1..3),
        vals in prop::collection::vec(-6i64..6, 8),
        cmp in prop_oneof![Just(CompareOp::Lt), Just(CompareOp::Le), Just(CompareOp::Eq), Just(CompareOp::Gt)],
        cand in 0i64..3,
    ) {
        let db = tiny_db(&rows, &srows);
        let q = join_cmp_query(&db, cmp);
        let candidate = Tuple::new(vec![Value::int(cand)]);
        let phi = ground::ground(&q, &db, &candidate).unwrap();

        // Build the valuation ⊤i ↦ vals[i].
        let mut v = Valuation::new();
        let nulls: Vec<NumNullId> = db.num_nulls().into_iter().collect();
        for (i, id) in nulls.iter().enumerate() {
            v.set_num(*id, vals[i % vals.len()]);
        }
        let vdb = db.complete(&v).unwrap();
        let expected = naive::holds_for_candidate(&q, &vdb, &candidate).unwrap();

        // Evaluate φ at the same valuation.
        let max_var = db.num_nulls().iter().map(|id| id.0 as usize).max().map_or(0, |m| m + 1);
        let mut pt = vec![Rational::ZERO; max_var];
        for id in &nulls {
            pt[id.0 as usize] = v.num(*id).unwrap();
        }
        let got = phi.eval_rational(&pt).unwrap();
        prop_assert_eq!(got, expected, "candidate {}, φ = {}", candidate, phi);
    }

    /// The CQ executor's per-candidate formulas agree with the generic
    /// grounding translation at random points.
    #[test]
    fn cq_executor_matches_grounding(
        rows in prop::collection::vec((0i64..3, prop::option::of(-5i64..5)), 1..4),
        srows in prop::collection::vec(prop::option::of(-5i64..5), 1..3),
        pt in point(8),
        cmp in prop_oneof![Just(CompareOp::Lt), Just(CompareOp::Le), Just(CompareOp::Gt)],
    ) {
        let db = tiny_db(&rows, &srows);
        let q = join_cmp_query(&db, cmp);
        let answers = cq::execute(&q, &db, &CqOptions::default()).unwrap();
        for ans in &answers {
            let phi = ground::ground(&q, &db, &ans.tuple).unwrap();
            prop_assert_eq!(
                ans.formula.eval_f64(&pt),
                phi.eval_f64(&pt),
                "candidate {} at {:?}: cq {} vs ground {}",
                &ans.tuple, &pt, &ans.formula, &phi
            );
        }
    }
}

// ---------------------------------------------------------------------
// AFPRAS accuracy against exact order measures
// ---------------------------------------------------------------------

fn order_formula(max_vars: u32) -> impl Strategy<Value = QfFormula> {
    let leaf = (0..max_vars, 0..max_vars, op()).prop_map(|(i, j, o)| {
        let p = if i == j {
            Polynomial::var(Var(i))
        } else {
            Polynomial::var(Var(i)).checked_sub(&Polynomial::var(Var(j))).unwrap()
        };
        QfFormula::atom(Atom::new(p, o))
    });
    leaf.prop_recursive(2, 12, 2, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..3).prop_map(QfFormula::and),
            prop::collection::vec(inner.clone(), 1..3).prop_map(QfFormula::or),
            inner.prop_map(QfFormula::negated),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn afpras_is_within_epsilon_of_exact(f in order_formula(4), seed in 0u64..1000) {
        let exact = order::exact_order_measure(&f).unwrap().to_f64();
        let opts = AfprasOptions { epsilon: 0.05, delta: 0.01, seed, ..AfprasOptions::default() };
        let est = estimate_nu(&f, &opts).unwrap();
        // δ = 0.01 over 24 cases: a failure is possible but very rare;
        // allow 2ε slack to keep the suite stable.
        prop_assert!(
            (est.estimate - exact).abs() < 0.1,
            "exact {exact}, sampled {} (m = {})", est.estimate, est.samples
        );
    }
}
