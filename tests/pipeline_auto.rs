//! Auto-routing of the pipeline: conjunctive queries take the join
//! executor, non-conjunctive queries (negation, universals) fall back to
//! head enumeration — and both report the same measures on queries that
//! are expressible both ways.

use qarith::core::{CertaintyEngine, MeasureOptions};
use qarith::prelude::*;

fn db() -> Database {
    let mut db = Database::new();
    let schema =
        RelationSchema::new("Offer", vec![Column::base("seller"), Column::num("price")]).unwrap();
    let mut r = Relation::empty(schema);
    r.insert_values(vec![Value::str("a"), Value::num(10)]).unwrap();
    r.insert_values(vec![Value::str("b"), Value::NumNull(NumNullId(0))]).unwrap();
    r.insert_values(vec![Value::str("c"), Value::num(30)]).unwrap();
    db.add_relation(r).unwrap();
    db
}

/// q(s) = ∃p Offer(s,p) ∧ p < 20 — conjunctive.
fn cheap_offers(db: &Database) -> Query {
    Query::new(
        vec![TypedVar::base("s")],
        Formula::exists(
            vec![TypedVar::num("p")],
            Formula::and(vec![
                Formula::rel(
                    "Offer",
                    vec![Arg::Base(BaseTerm::var("s")), Arg::Num(NumTerm::var("p"))],
                ),
                Formula::cmp(NumTerm::var("p"), CompareOp::Lt, NumTerm::int(20)),
            ]),
        ),
        &db.catalog(),
    )
    .unwrap()
}

/// q(s) = ∃p Offer(s,p) ∧ ¬(p ≥ 20) — the same query with a negation,
/// which forces the enumeration path.
fn cheap_offers_negated(db: &Database) -> Query {
    Query::new(
        vec![TypedVar::base("s")],
        Formula::exists(
            vec![TypedVar::num("p")],
            Formula::and(vec![
                Formula::rel(
                    "Offer",
                    vec![Arg::Base(BaseTerm::var("s")), Arg::Num(NumTerm::var("p"))],
                ),
                Formula::not(Formula::cmp(NumTerm::var("p"), CompareOp::Ge, NumTerm::int(20))),
            ]),
        ),
        &db.catalog(),
    )
    .unwrap()
}

#[test]
fn both_routes_agree_on_equivalent_queries() {
    let db = db();
    let engine = CertaintyEngine::new(MeasureOptions::default());

    let cq = cheap_offers(&db);
    assert!(cq.fragment().conjunctive);
    let via_cq = engine.answers(&cq, &db, 0.0).unwrap();

    let fo = cheap_offers_negated(&db);
    assert!(!fo.fragment().conjunctive);
    let via_enum = engine.answers(&fo, &db, 0.0).unwrap();

    // Same candidates, same measures. Seller a: certain (10 < 20).
    // Seller b: μ = 1/2 (⊤0 < 20 asymptotically ⇔ ⊤0 < 0 …): the null is
    // unconstrained, so the asymptotic measure of ⊤0 < 20 is 1/2.
    // Seller c: 30 < 20 never holds — excluded from both result sets.
    let collect = |answers: &[qarith::core::AnswerWithCertainty]| {
        let mut v: Vec<(String, Option<Rational>)> =
            answers.iter().map(|a| (a.tuple.values()[0].to_string(), a.certainty.exact)).collect();
        v.sort();
        v
    };
    let a = collect(&via_cq);
    let b = collect(&via_enum);
    assert_eq!(a, b);
    assert_eq!(a.len(), 2);
    assert_eq!(a[0], ("\"a\"".to_string(), Some(Rational::ONE)));
    assert_eq!(a[1], ("\"b\"".to_string(), Some(Rational::new(1, 2))));
}

#[test]
fn min_certainty_filters_both_routes() {
    let db = db();
    let engine = CertaintyEngine::new(MeasureOptions::default());
    let cq = cheap_offers(&db);
    let strict = engine.answers(&cq, &db, 0.9).unwrap();
    assert_eq!(strict.len(), 1, "only the certain seller survives the 0.9 bar");
    let fo = cheap_offers_negated(&db);
    let strict = engine.answers(&fo, &db, 0.9).unwrap();
    assert_eq!(strict.len(), 1);
}

#[test]
fn min_certainty_boundary_is_exclusive_on_both_routes() {
    // Seller b's measure is exactly 1/2 (one unconstrained null). The
    // admission predicate (`qarith::core::pipeline::exceeds_min_certainty`)
    // is documented as *strictly greater*, shared by the conjunctive fast
    // path and the enumeration fallback: a candidate sitting exactly at
    // the threshold is excluded by both, and nudging the threshold just
    // below readmits it on both.
    let db = db();
    let engine = CertaintyEngine::new(MeasureOptions::default());

    let cq = cheap_offers(&db);
    assert!(cq.fragment().conjunctive);
    let fo = cheap_offers_negated(&db);
    assert!(!fo.fragment().conjunctive);

    for (query, route) in [(&cq, "conjunctive"), (&fo, "enumerated")] {
        let at_half = engine.answers(query, &db, 0.5).unwrap();
        assert_eq!(at_half.len(), 1, "{route}: μ = 1/2 is excluded at min_certainty = 1/2");
        assert_eq!(at_half[0].tuple.values()[0].to_string(), "\"a\"");

        let below_half = engine.answers(query, &db, 0.4999).unwrap();
        assert_eq!(below_half.len(), 2, "{route}: μ = 1/2 passes a threshold just below");

        // μ = 0 candidates (seller c) stay excluded even at 0.0.
        let at_zero = engine.answers(query, &db, 0.0).unwrap();
        assert!(
            at_zero.iter().all(|a| a.tuple.values()[0].to_string() != "\"c\""),
            "{route}: impossible answers are excluded at min_certainty = 0.0"
        );
    }
}

#[test]
fn universal_queries_route_through_enumeration() {
    // q(s) = ∀p Offer(s,p) → p < 20: sellers whose *every* offer is cheap.
    let db = db();
    let q = Query::new(
        vec![TypedVar::base("s")],
        Formula::forall(
            vec![TypedVar::num("p")],
            Formula::implies(
                Formula::rel(
                    "Offer",
                    vec![Arg::Base(BaseTerm::var("s")), Arg::Num(NumTerm::var("p"))],
                ),
                Formula::cmp(NumTerm::var("p"), CompareOp::Lt, NumTerm::int(20)),
            ),
        ),
        &db.catalog(),
    )
    .unwrap();
    let cache = std::sync::Arc::new(NuCache::default());
    let engine = CertaintyEngine::new(MeasureOptions::default()).with_cache(cache.clone());
    let answers = engine.answers(&q, &db, 0.0).unwrap();
    // The enumerated heads are measured as one batch through the
    // engine's ν-cache: a repeat call measures nothing.
    let misses = cache.stats().misses;
    assert!(misses > 0, "the first call measured its heads");
    let again = engine.answers(&q, &db, 0.0).unwrap();
    assert_eq!(cache.stats().misses, misses, "the second call is served from the ν-cache");
    assert_eq!(again.len(), answers.len());
    // "a" qualifies certainly; "b" with μ = 1/2; "c" never. The head also
    // ranges over sellers with no failing offer trivially — but every
    // base value in the domain is a seller here.
    let mut by_seller: Vec<(String, f64)> =
        answers.iter().map(|a| (a.tuple.values()[0].to_string(), a.certainty.value)).collect();
    by_seller.sort_by(|x, y| x.0.cmp(&y.0));
    assert_eq!(by_seller.len(), 2);
    assert_eq!(by_seller[0].0, "\"a\"");
    assert_eq!(by_seller[0].1, 1.0);
    assert_eq!(by_seller[1].0, "\"b\"");
    assert_eq!(by_seller[1].1, 0.5);
}
