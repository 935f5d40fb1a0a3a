//! Quickstart: the paper's motivating example.
//!
//! "Look at a very simple example: a query σ_{A>B}(R) on relation R with
//! attributes A and B and a single tuple (⊥₁, ⊥₂) with two nulls. Should
//! the tuple be selected? If we know nothing about ⊥₁ and ⊥₂, it seems
//! reasonable to say that with probability 1/2 the tuple will be in the
//! answer."
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use qarith::prelude::*;

fn main() {
    // Relation R(a: base, A: num, B: num) with the single tuple (r1, ⊥₁, ⊥₂).
    let mut db = Database::new();
    let schema =
        RelationSchema::new("R", vec![Column::base("a"), Column::num("A"), Column::num("B")])
            .unwrap();
    let mut r = Relation::empty(schema);
    r.insert_values(vec![
        Value::str("r1"),
        Value::NumNull(NumNullId(0)),
        Value::NumNull(NumNullId(1)),
    ])
    .unwrap();
    db.add_relation(r).unwrap();
    println!("database: R = {{ (\"r1\", ⊤0, ⊤1) }}");

    // σ_{A>B}(R), projected on the key: q(a) = ∃A,B R(a,A,B) ∧ A > B.
    let q = Query::new(
        vec![TypedVar::base("a")],
        Formula::exists(
            vec![TypedVar::num("A"), TypedVar::num("B")],
            Formula::and(vec![
                Formula::rel(
                    "R",
                    vec![
                        Arg::Base(BaseTerm::var("a")),
                        Arg::Num(NumTerm::var("A")),
                        Arg::Num(NumTerm::var("B")),
                    ],
                ),
                Formula::cmp(NumTerm::var("A"), CompareOp::Gt, NumTerm::var("B")),
            ]),
        ),
        &db.catalog(),
    )
    .unwrap();
    println!("query:    {q}");
    println!("fragment: {}", q.fragment());

    // Measure the certainty of "r1" as an answer. The engine grounds the
    // query (Proposition 5.3) to the constraint z0 > z1 and evaluates its
    // asymptotic spherical measure — exactly 1/2 here, by the exact
    // order-fragment evaluator.
    let engine = CertaintyEngine::new(MeasureOptions::default());
    let candidate = Tuple::new(vec![Value::str("r1")]);
    let est = engine.measure(&q, &db, &candidate).unwrap();
    println!("\nμ(q, D, r1) = {est}");
    assert_eq!(est.exact, Some(Rational::new(1, 2)));

    // The full pipeline in one call: every candidate with μ > 0.
    println!("\nanswers with certainty:");
    for a in engine.answers(&q, &db, 0.0).unwrap() {
        println!("  {}  →  {}", a.tuple, a.certainty);
    }

    // Forcing the Theorem 8.1 sampling scheme gives the same number
    // within its additive ε.
    let sampled = CertaintyEngine::new(
        MeasureOptions { method: MethodChoice::Afpras, ..MeasureOptions::default() }
            .with_epsilon(0.01),
    );
    let est = sampled.measure(&q, &db, &candidate).unwrap();
    println!("\nAFPRAS (ε = 0.01): {est}");
    assert!((est.value - 0.5).abs() < 0.02);
}
