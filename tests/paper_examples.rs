//! V1/V2: the analytically-solved examples embedded in the paper's text,
//! asserted end to end.

use qarith::constraints::{Atom, ConstraintOp, Polynomial, QfFormula, Var};
use qarith::core::exact::arcs2d;
use qarith::core::fpras;
use qarith::core::{afpras, AfprasOptions, CertaintyEngine, FprasOptions, MeasureOptions};
use qarith::engine::ground;
use qarith::prelude::*;

fn z(i: u32) -> Polynomial {
    Polynomial::var(Var(i))
}

fn atom(p: Polynomial, op: ConstraintOp) -> QfFormula {
    QfFormula::atom(Atom::new(p, op))
}

const PI: f64 = std::f64::consts::PI;

/// V1: the intro example's constraint (1) has measure
/// (π/2 − arctan(10/7))/2π ≈ 0.097, i.e. ≈ 0.388 of the positive
/// quadrant.
#[test]
fn v1_intro_example_headline_numbers() {
    let seven_tenths = Polynomial::constant(Rational::new(7, 10));
    let eq1 = QfFormula::and([
        atom(z(1), ConstraintOp::Ge),
        atom(z(0) - Polynomial::constant(Rational::from_int(8)), ConstraintOp::Ge),
        atom(seven_tenths * z(1) - z(0), ConstraintOp::Ge),
    ]);
    let expected = (PI / 2.0 - (10.0f64 / 7.0).atan()) / (2.0 * PI);

    // Exact arc evaluator.
    let nu = arcs2d::exact_arc_measure(&eq1);
    assert!((nu - expected).abs() < 1e-12);
    assert!((nu - 0.097).abs() < 5e-4, "paper quotes ≈ 0.097, got {nu:.4}");
    assert!((4.0 * nu - 0.388).abs() < 2e-3, "paper quotes ≈ 0.388 of the quadrant");

    // The Auto pipeline picks the same evaluator.
    let engine = CertaintyEngine::new(MeasureOptions::default());
    let auto = engine.nu(&eq1).unwrap();
    assert!((auto.value - expected).abs() < 1e-12);

    // The Theorem 8.1 sampler agrees within ε.
    let sampled =
        afpras::estimate_nu(&eq1, &AfprasOptions { epsilon: 0.01, ..AfprasOptions::default() })
            .unwrap();
    assert!((sampled.estimate - expected).abs() < 0.02);

    // The Theorem 7.1 FPRAS agrees too (the constraint is CQ(+,<)-shaped).
    let f = fpras::estimate_nu(&eq1, &FprasOptions { epsilon: 0.05, ..FprasOptions::default() })
        .unwrap();
    assert!((f.estimate - expected).abs() < 0.02, "fpras {}", f.estimate);
}

/// V2: Proposition 6.1 — the wedge measure is (arctan α + π/2)/2π,
/// rational exactly for α ∈ {0, ±1}.
#[test]
fn v2_proposition_6_1_values() {
    let engine = CertaintyEngine::new(MeasureOptions::default());
    let cases: [(&str, f64); 7] = [
        ("-2", -2.0),
        ("-1", -1.0),
        ("-0.5", -0.5),
        ("0", 0.0),
        ("0.5", 0.5),
        ("1", 1.0),
        ("2", 2.0),
    ];
    for (alpha_text, alpha) in cases {
        let a = Polynomial::constant(Rational::parse_decimal(alpha_text).unwrap());
        let phi =
            QfFormula::and([atom(z(0), ConstraintOp::Ge), atom(z(1) - a * z(0), ConstraintOp::Le)]);
        let expected = (alpha.atan() + PI / 2.0) / (2.0 * PI);
        let est = engine.nu(&phi).unwrap();
        assert!(
            (est.value - expected).abs() < 1e-9,
            "α = {alpha}: got {}, want {expected}",
            est.value
        );
    }
    // The rational cases have dyadic values (arctan(±1) = ±π/4):
    // α = 0 → 1/4, α = 1 → 3/8, α = −1 → 1/8.
    for (alpha_text, num, den) in [("0", 1i64, 4i64), ("1", 3, 8), ("-1", 1, 8)] {
        let a = Polynomial::constant(Rational::parse_decimal(alpha_text).unwrap());
        let phi =
            QfFormula::and([atom(z(0), ConstraintOp::Ge), atom(z(1) - a * z(0), ConstraintOp::Le)]);
        let est = engine.nu(&phi).unwrap();
        assert!(
            (est.value - num as f64 / den as f64).abs() < 1e-12,
            "α = {alpha_text} should give {num}/{den}"
        );
    }
}

/// V1, full-query version: grounding the intro query (as written, with
/// r·d ≤ p) through Proposition 5.3 gives arctan(10/7)/2π.
#[test]
fn v1_intro_query_grounded_measure() {
    // Build the intro database.
    let mut db = Database::new();
    let products = RelationSchema::new(
        "Products",
        vec![Column::base("id"), Column::base("seg"), Column::num("rrp"), Column::num("dis")],
    )
    .unwrap();
    let mut p = Relation::empty(products);
    p.insert_values(vec![
        Value::str("id1"),
        Value::str("s"),
        Value::num(10),
        Value::decimal("0.8").unwrap(),
    ])
    .unwrap();
    p.insert_values(vec![
        Value::str("id2"),
        Value::str("s"),
        Value::NumNull(NumNullId(1)),
        Value::decimal("0.7").unwrap(),
    ])
    .unwrap();
    db.add_relation(p).unwrap();
    let competition = RelationSchema::new(
        "Competition",
        vec![Column::base("id"), Column::base("seg"), Column::num("p")],
    )
    .unwrap();
    let mut c = Relation::empty(competition);
    c.insert_values(vec![Value::str("c"), Value::str("s"), Value::NumNull(NumNullId(0))]).unwrap();
    db.add_relation(c).unwrap();
    let excluded =
        RelationSchema::new("Excluded", vec![Column::base("id"), Column::base("seg")]).unwrap();
    let mut e = Relation::empty(excluded);
    e.insert_values(vec![Value::BaseNull(BaseNullId(0)), Value::str("s")]).unwrap();
    db.add_relation(e).unwrap();

    let body = Formula::forall(
        vec![
            TypedVar::base("i"),
            TypedVar::num("r"),
            TypedVar::num("d"),
            TypedVar::base("ip"),
            TypedVar::num("p"),
        ],
        Formula::implies(
            Formula::and(vec![
                Formula::rel(
                    "Products",
                    vec![
                        Arg::Base(BaseTerm::var("i")),
                        Arg::Base(BaseTerm::var("s")),
                        Arg::Num(NumTerm::var("r")),
                        Arg::Num(NumTerm::var("d")),
                    ],
                ),
                Formula::not(Formula::rel(
                    "Excluded",
                    vec![Arg::Base(BaseTerm::var("i")), Arg::Base(BaseTerm::var("s"))],
                )),
                Formula::rel(
                    "Competition",
                    vec![
                        Arg::Base(BaseTerm::var("ip")),
                        Arg::Base(BaseTerm::var("s")),
                        Arg::Num(NumTerm::var("p")),
                    ],
                ),
            ]),
            Formula::and(vec![
                Formula::cmp(
                    NumTerm::var("r").mul(NumTerm::var("d")),
                    CompareOp::Le,
                    NumTerm::var("p"),
                ),
                Formula::cmp(NumTerm::var("r"), CompareOp::Ge, NumTerm::int(0)),
                Formula::cmp(NumTerm::var("d"), CompareOp::Ge, NumTerm::int(0)),
                Formula::cmp(NumTerm::var("p"), CompareOp::Ge, NumTerm::int(0)),
            ]),
        ),
    );
    let q = Query::new(vec![TypedVar::base("s")], body, &db.catalog()).unwrap();

    let phi = ground::ground(&q, &db, &Tuple::new(vec![Value::str("s")])).unwrap();
    let engine = CertaintyEngine::new(MeasureOptions::default());
    let est = engine.nu(&phi).unwrap();

    // Region: z0 ≥ 8 ∧ z1 ≥ 0 ∧ 0.7·z1 ≤ z0 (z0 = competition price,
    // z1 = id2's rrp); measure arctan(10/7)/2π.
    let expected = (10.0f64 / 7.0).atan() / (2.0 * PI);
    assert!(
        (est.value - expected).abs() < 1e-9,
        "grounded intro query: got {}, want {expected}",
        est.value
    );
}
