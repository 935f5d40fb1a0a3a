//! End-to-end integration: the §9 pipeline — SQL text → parse/lower →
//! CQ execution over a generated sales database → ground formulas →
//! certainty estimates.

use qarith::prelude::*;
use qarith_core::AfprasOptions;
use qarith_datagen::sales::{paper_queries, sales_catalog, sales_database, SalesScale};
use qarith_engine::cq;
use qarith_sql::compile;

#[test]
fn all_three_paper_queries_run_end_to_end() {
    let scale = SalesScale::small();
    let db = sales_database(&scale, 2020);
    let catalog = sales_catalog();

    let mut total_certain = 0usize;
    let mut total_uncertain = 0usize;
    for (name, sql) in paper_queries() {
        let lowered = compile(sql, &catalog).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(lowered.limit, Some(25), "{name} has LIMIT 25");
        assert!(lowered.query.fragment().conjunctive, "{name} must be a CQ");

        let opts = CqOptions::with_limit(lowered.limit.unwrap());
        let candidates =
            cq::execute(&lowered.query, &db, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!candidates.is_empty(), "{name} should return candidates");
        assert!(candidates.len() <= 25);

        let engine = CertaintyEngine::new(MeasureOptions {
            afpras: AfprasOptions::with_epsilon(0.05),
            ..MeasureOptions::default()
        });
        let answers = engine.measure_batch(candidates).unwrap().answers;
        for a in &answers {
            assert!(
                (0.0..=1.0).contains(&a.certainty.value),
                "{name}: μ out of range: {}",
                a.certainty.value
            );
        }
        let certain = answers.iter().filter(|a| a.certainty.is_certain()).count();
        total_certain += certain;
        total_uncertain += answers.len() - certain;
    }
    // Across the workload both kinds of answers must occur: null-free
    // derivations give certainty, market nulls give genuine uncertainty.
    assert!(total_certain > 0, "expected certain answers somewhere in the workload");
    assert!(total_uncertain > 0, "expected uncertain answers somewhere in the workload");
}

#[test]
fn uncertain_answers_get_strict_fractional_measures() {
    // Raise the null rate so the LIMIT window contains null-dependent
    // candidates.
    let scale = SalesScale { null_rate: 0.5, ..SalesScale::tiny() };
    let db = sales_database(&scale, 7);
    let catalog = sales_catalog();

    let lowered = compile(
        "SELECT P.seg FROM Products P, Market M \
         WHERE P.seg = M.seg AND P.rrp * P.dis <= M.rrp * M.dis",
        &catalog,
    )
    .unwrap();
    let candidates = cq::execute(&lowered.query, &db, &CqOptions::default()).unwrap();
    let engine = CertaintyEngine::new(MeasureOptions {
        afpras: AfprasOptions::with_epsilon(0.03),
        ..MeasureOptions::default()
    });
    let answers = engine.measure_batch(candidates).unwrap().answers;
    let fractional: Vec<&AnswerWithCertainty> =
        answers.iter().filter(|a| a.certainty.value > 0.02 && a.certainty.value < 0.98).collect();
    assert!(!fractional.is_empty(), "with 50% nulls some candidates must be genuinely uncertain");
}

#[test]
fn candidate_measures_are_consistent_between_methods() {
    // For candidates with ≤ 2 nulls in their formula, Auto uses exact
    // evaluators; AFPRAS must agree within its ε.
    let scale = SalesScale { null_rate: 0.4, ..SalesScale::tiny() };
    let db = sales_database(&scale, 99);
    let catalog = sales_catalog();
    let lowered = compile(
        "SELECT P.seg FROM Products P, Market M \
         WHERE P.seg = M.seg AND P.rrp * P.dis <= M.rrp * M.dis",
        &catalog,
    )
    .unwrap();
    let candidates = cq::execute(&lowered.query, &db, &CqOptions::default()).unwrap();

    let auto = CertaintyEngine::new(MeasureOptions::default());
    let sampled = CertaintyEngine::new(MeasureOptions {
        method: MethodChoice::Afpras,
        afpras: AfprasOptions::with_epsilon(0.02),
        ..MeasureOptions::default()
    });
    let mut compared = 0;
    for cand in candidates {
        if cand.certain {
            continue;
        }
        let a = auto.nu(&cand.formula).unwrap();
        let b = sampled.nu(&cand.formula).unwrap();
        assert!(
            (a.value - b.value).abs() < 0.08,
            "methods disagree: {} vs {} on {}",
            a.value,
            b.value,
            cand.formula
        );
        compared += 1;
    }
    assert!(compared > 0, "no uncertain candidates to compare");
}
