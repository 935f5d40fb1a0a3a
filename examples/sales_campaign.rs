//! The paper's introduction example, end to end.
//!
//! A sales team predicts campaign effectiveness from an incomplete
//! database: `Products(id, seg, rrp, dis)`, `Competition(id, seg, p)`
//! with a null price `⊥`, a null rrp `⊥′`, and an unknown excluded
//! product `⊥″`. The segment `s` is an answer under the constraint the
//! paper displays as equation (1):
//!
//! `(α′ ≥ 0) ∧ (α ≥ 8) ∧ (0.7·α′ ≥ α)`,
//!
//! whose measure is `(π/2 − arctan(10/7))/2π ≈ 0.097` — i.e. ≈ 0.388 of
//! the positive quadrant, the number the introduction quotes.
//!
//! ```text
//! cargo run --release --example sales_campaign
//! ```

use qarith::constraints::{Atom, ConstraintOp, Polynomial, QfFormula, Var};
use qarith::core::exact::arcs2d;
use qarith::core::{afpras, AfprasOptions};
use qarith::engine::ground;
use qarith::prelude::*;

fn z(i: u32) -> Polynomial {
    Polynomial::var(Var(i))
}

fn atom(p: Polynomial, op: ConstraintOp) -> QfFormula {
    QfFormula::atom(Atom::new(p, op))
}

/// The intro database: two products in segment "s", one competitor with
/// unknown price, one unknown excluded product.
fn build_database() -> Database {
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
        Value::NumNull(NumNullId(1)), // ⊥′ (α′): unknown rrp
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
    c.insert_values(vec![
        Value::str("c"),
        Value::str("s"),
        Value::NumNull(NumNullId(0)), // ⊥ (α): unknown competitor price
    ])
    .unwrap();
    db.add_relation(c).unwrap();

    let excluded =
        RelationSchema::new("Excluded", vec![Column::base("id"), Column::base("seg")]).unwrap();
    let mut e = Relation::empty(excluded);
    e.insert_values(vec![Value::BaseNull(BaseNullId(0)), Value::str("s")]).unwrap();
    db.add_relation(e).unwrap();

    db
}

/// The intro query, parameterized by the comparison direction (the
/// paper's prose and its displayed constraint (1) disagree on the sign;
/// see EXPERIMENTS.md, V1).
fn intro_query(db: &Database, op: CompareOp) -> Query {
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
                Formula::cmp(NumTerm::var("r").mul(NumTerm::var("d")), op, NumTerm::var("p")),
                Formula::cmp(NumTerm::var("r"), CompareOp::Ge, NumTerm::int(0)),
                Formula::cmp(NumTerm::var("d"), CompareOp::Ge, NumTerm::int(0)),
                Formula::cmp(NumTerm::var("p"), CompareOp::Ge, NumTerm::int(0)),
            ]),
        ),
    );
    Query::new(vec![TypedVar::base("s")], body, &db.catalog()).unwrap()
}

fn main() {
    let pi = std::f64::consts::PI;
    let db = build_database();
    println!("intro database: {db:?}\n");

    // ----- The displayed constraint (1), evaluated exactly -------------
    let seven_tenths = Polynomial::constant(Rational::new(7, 10));
    let eq1 = QfFormula::and([
        atom(z(1), ConstraintOp::Ge), // α′ ≥ 0
        atom(z(0) - Polynomial::constant(Rational::from_int(8)), ConstraintOp::Ge), // α ≥ 8
        atom(seven_tenths.clone() * z(1) - z(0), ConstraintOp::Ge), // 0.7·α′ ≥ α
    ]);
    let nu = arcs2d::exact_arc_measure(&eq1);
    let closed = (pi / 2.0 - (10.0f64 / 7.0).atan()) / (2.0 * pi);
    println!("constraint (1): (α′ ≥ 0) ∧ (α ≥ 8) ∧ (0.7·α′ ≥ α)");
    println!("  ν(φ)                 = {nu:.6}   (closed form {closed:.6})");
    println!("  share of +quadrant   = {:.3}   (paper: ≈ 0.388)", 4.0 * nu);
    assert!((nu - closed).abs() < 1e-12);
    assert!((4.0 * nu - 0.388).abs() < 2e-3);

    // Deepening the discount (0.7 → 0.5) shrinks this wedge: being
    // undersold even at the deeper discount is a stronger condition, so
    // its measure drops.
    let half = Polynomial::constant(Rational::new(1, 2));
    let eq1_deeper = QfFormula::and([
        atom(z(1), ConstraintOp::Ge),
        atom(z(0) - Polynomial::constant(Rational::from_int(8)), ConstraintOp::Ge),
        atom(half * z(1) - z(0), ConstraintOp::Ge),
    ]);
    let nu_deeper = arcs2d::exact_arc_measure(&eq1_deeper);
    println!(
        "  with discount 0.5    = {nu_deeper:.6}   (< {nu:.6}: deeper discount, smaller wedge)"
    );
    assert!(nu_deeper < nu, "0.5·α′ ≥ α is a *smaller* wedge");
    // (Geometrically the wedge arctan boundary moves from 10/7 to 2 —
    // the paper's "approximately half the quadrant" remark matches the
    // complementary reading; both values are printed for transparency.)

    // ----- The full query, grounded by Proposition 5.3 -----------------
    // As written in the prose (r·d ≤ p), grounding produces
    // z0 ≥ 8 ∧ z1 ≥ 0 ∧ 0.7·z1 ≤ z0, measure arctan(10/7)/2π.
    let engine = CertaintyEngine::new(MeasureOptions::default());
    let candidate = Tuple::new(vec![Value::str("s")]);

    let q_as_written = intro_query(&db, CompareOp::Le);
    let phi = ground::ground(&q_as_written, &db, &candidate).unwrap();
    let est = engine.nu(&phi).unwrap();
    let closed_le = (10.0f64 / 7.0).atan() / (2.0 * pi);
    println!(
        "\nquery as written (r·d ≤ p): μ(q, D, s) = {:.6} (closed form {closed_le:.6})",
        est.value
    );
    assert!((est.value - closed_le).abs() < 1e-9);

    // With the comparison flipped to match constraint (1)'s wedge, the
    // id1 constraint becomes 8 ≥ α, which collapses the asymptotic
    // measure to 0 — evidence that the paper's (1) silently dropped it.
    let q_flipped = intro_query(&db, CompareOp::Ge);
    let phi = ground::ground(&q_flipped, &db, &candidate).unwrap();
    let est = engine.nu(&phi).unwrap();
    println!("query flipped (r·d ≥ p):    μ(q, D, s) = {:.6}", est.value);

    // ----- AFPRAS agreement on constraint (1) ---------------------------
    let opts = AfprasOptions { epsilon: 0.01, ..AfprasOptions::default() };
    let sampled = afpras::estimate_nu(&eq1, &opts).unwrap();
    println!(
        "\nAFPRAS on constraint (1): {:.4} with m = {} samples (exact {nu:.4})",
        sampled.estimate, sampled.samples
    );
    assert!((sampled.estimate - nu).abs() < 0.02);
}
