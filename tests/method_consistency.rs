//! Cross-method consistency of the measure, and exactness of the batch
//! engine.
//!
//! Two families of properties lock the batch measurement subsystem in:
//!
//! 1. **Method agreement** — on proptest-generated small CQ(+,<)-shaped
//!    formulas (Boolean combinations of linear atoms), the exact
//!    order-fragment evaluator, the multiplicative FPRAS (Thm 7.1), and
//!    the additive AFPRAS (Thm 8.1) agree within ε plus slack.
//!
//! 2. **Batch exactness** — for fixed seeds, the batched/deduplicated/
//!    cached path produces *bit-identical* estimates to the plain
//!    sequential per-candidate loop, for every method choice; and a
//!    warm ν-cache replays the identical bits.

use proptest::prelude::*;

use qarith::constraints::{Atom, ConstraintOp, Polynomial, QfFormula, Var};
use qarith::core::afpras::{self, AfprasOptions};
use qarith::core::exact::order;
use qarith::core::fpras::{self, FprasOptions};
use qarith::engine::cq::CandidateAnswer;
use qarith::prelude::*;

// ---------------------------------------------------------------------
// Strategies: CQ(+,<)-shaped (linear) formulas
// ---------------------------------------------------------------------

fn order_op() -> impl Strategy<Value = ConstraintOp> {
    prop_oneof![
        Just(ConstraintOp::Lt),
        Just(ConstraintOp::Le),
        Just(ConstraintOp::Gt),
        Just(ConstraintOp::Ge),
    ]
}

/// An order atom `±(z_i − z_j) + c ⋈ 0` or `±z_i + c ⋈ 0` — linear, so
/// it is simultaneously in reach of the exact order evaluator, the
/// FPRAS, and the AFPRAS.
fn order_atom(max_vars: u32) -> impl Strategy<Value = QfFormula> {
    (0..max_vars, 0..max_vars, -3i64..=3, order_op()).prop_map(|(i, j, c, o)| {
        let p = if i == j {
            Polynomial::var(Var(i))
        } else {
            Polynomial::var(Var(i)) - Polynomial::var(Var(j))
        } + Polynomial::constant(Rational::from_int(c));
        QfFormula::atom(Atom::new(p, o))
    })
}

fn order_formula(max_vars: u32) -> impl Strategy<Value = QfFormula> {
    order_atom(max_vars).prop_recursive(2, 10, 2, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..3).prop_map(QfFormula::and),
            prop::collection::vec(inner.clone(), 1..3).prop_map(QfFormula::or),
            inner.prop_map(QfFormula::negated),
        ]
    })
}

/// A general linear atom (arbitrary rational coefficients) — CQ(+,<)
/// residual shape.
fn linear_atom(max_vars: u32) -> impl Strategy<Value = QfFormula> {
    (prop::collection::vec((-4i128..=4, 0..max_vars), 1..3), -20i128..=20, order_op()).prop_map(
        |(coeffs, c, o)| {
            let mut p = Polynomial::constant(Rational::new(c, 2));
            for (k, v) in coeffs {
                p = p + Polynomial::constant(Rational::new(k, 1)) * Polynomial::var(Var(v));
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
        ]
    })
}

fn candidates_from(formulas: Vec<QfFormula>) -> Vec<CandidateAnswer> {
    formulas
        .into_iter()
        .enumerate()
        .map(|(i, formula)| CandidateAnswer {
            tuple: Tuple::new(vec![Value::int(i as i64)]),
            formula: std::sync::Arc::new(formula),
            derivations: 1,
            certain: false,
            truncated: false,
        })
        .collect()
}

/// The μ-relevant identity of an estimate (`cached` is provenance and is
/// deliberately excluded).
fn bits(est: &CertaintyEstimate) -> (u64, Option<Rational>, usize, usize) {
    (est.value.to_bits(), est.exact, est.samples, est.dimension)
}

// ---------------------------------------------------------------------
// 1. Method agreement within ε + tolerance
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Exact, FPRAS, and AFPRAS agree on order formulas (where the exact
    /// evaluator provides ground truth). AFPRAS runs at ε = 0.05 with
    /// δ = 0.01; FPRAS at ε = 0.08 with heuristic volume budgets: 2ε
    /// slack keeps the suite stable across seeds.
    #[test]
    fn exact_fpras_afpras_agree_on_order_formulas(f in order_formula(3), seed in 0u64..500) {
        let exact = order::exact_order_measure(&f).unwrap().to_f64();

        let a_opts = AfprasOptions { epsilon: 0.05, delta: 0.01, seed, ..AfprasOptions::default() };
        let additive = afpras::estimate_nu(&f, &a_opts).unwrap();
        prop_assert!(
            (additive.estimate - exact).abs() < 0.05 + 0.05,
            "AFPRAS {} vs exact {exact} on {f}", additive.estimate
        );

        let m_opts = FprasOptions { epsilon: 0.08, seed, ..FprasOptions::default() };
        let multiplicative = fpras::estimate_nu(&f, &m_opts).unwrap();
        prop_assert!(
            (multiplicative.estimate - exact).abs() < 0.08 + 0.08,
            "FPRAS {} vs exact {exact} on {f}", multiplicative.estimate
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On general linear formulas (no exact ground truth), the two
    /// approximation schemes must still agree with each other.
    #[test]
    fn fpras_and_afpras_agree_on_linear_formulas(f in linear_formula(3), seed in 0u64..500) {
        let a_opts = AfprasOptions { epsilon: 0.03, delta: 0.01, seed, ..AfprasOptions::default() };
        let additive = afpras::estimate_nu(&f, &a_opts).unwrap();
        let m_opts = FprasOptions { epsilon: 0.08, seed, ..FprasOptions::default() };
        let multiplicative = fpras::estimate_nu(&f, &m_opts).unwrap();
        prop_assert!(
            (additive.estimate - multiplicative.estimate).abs() < 0.03 + 0.08 + 0.05,
            "AFPRAS {} vs FPRAS {} on {f}", additive.estimate, multiplicative.estimate
        );
    }
}

// ---------------------------------------------------------------------
// 2. Batch/cached results are bit-identical to sequential uncached
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For every method choice, the batched path (canonical dedup, 4
    /// worker threads, ν-cache) reproduces the sequential uncached loop
    /// bit for bit, and a second (fully cached) pass replays the same
    /// bits again.
    #[test]
    fn batch_is_bit_identical_to_sequential(
        formulas in prop::collection::vec(linear_formula(3), 1..6),
        duplicate in prop::collection::vec(0usize..6, 0..4),
        method in prop_oneof![
            Just(MethodChoice::Auto),
            Just(MethodChoice::Afpras),
            Just(MethodChoice::Fpras),
        ],
    ) {
        // Splice in literal duplicates (the executor produces plenty).
        let mut all = formulas.clone();
        for &d in &duplicate {
            all.push(formulas[d % formulas.len()].clone());
        }
        let candidates = candidates_from(all);

        let options = MeasureOptions { method, ..MeasureOptions::default() };
        let sequential = CertaintyEngine::new(MeasureOptions {
            batch: BatchOptions { threads: 1, dedup: false },
            ..options.clone()
        });
        let cache = std::sync::Arc::new(NuCache::default());
        let batched = CertaintyEngine::new(MeasureOptions {
            batch: BatchOptions { threads: 4, dedup: true },
            ..options
        })
        .with_cache(cache.clone());

        let s = sequential.measure_candidates(candidates.clone()).unwrap();
        let b = batched.measure_batch(candidates.clone()).unwrap();
        prop_assert_eq!(s.len(), b.answers.len());
        for (x, y) in s.iter().zip(&b.answers) {
            prop_assert_eq!(bits(&x.certainty), bits(&y.certainty), "{:?} on {}", method, x.formula);
        }

        // Second pass: everything served from the warm cache, same bits.
        let warm = batched.measure_batch(candidates).unwrap();
        prop_assert_eq!(warm.stats.measured, 0, "warm pass measures nothing");
        for (x, y) in s.iter().zip(&warm.answers) {
            prop_assert_eq!(bits(&x.certainty), bits(&y.certainty));
            prop_assert!(y.certainty.cached);
        }
    }

    /// Renaming the nulls of a formula never changes its measure — the
    /// canonicalization invariant, method by method, checked through the
    /// public engine (order-preserving renamings are bit-exact).
    #[test]
    fn monotone_null_renaming_is_bit_exact(
        f in linear_formula(3),
        offset in 1u32..40,
        method in prop_oneof![
            Just(MethodChoice::Auto),
            Just(MethodChoice::Afpras),
            Just(MethodChoice::Fpras),
        ],
    ) {
        let renamed = {
            fn walk(f: &QfFormula, offset: u32) -> QfFormula {
                match f {
                    QfFormula::True => QfFormula::True,
                    QfFormula::False => QfFormula::False,
                    QfFormula::Atom(a) => QfFormula::atom(Atom::new(
                        a.poly().map_vars(|v| Var(v.0 * 2 + offset)),
                        a.op(),
                    )),
                    QfFormula::Not(inner) => walk(inner, offset).negated(),
                    QfFormula::And(ps) => QfFormula::and(ps.iter().map(|p| walk(p, offset))),
                    QfFormula::Or(ps) => QfFormula::or(ps.iter().map(|p| walk(p, offset))),
                }
            }
            walk(&f, offset)
        };
        let engine = CertaintyEngine::new(MeasureOptions { method, ..MeasureOptions::default() });
        let a = engine.nu(&f).unwrap();
        let b = engine.nu(&renamed).unwrap();
        prop_assert_eq!(bits(&a), bits(&b), "{:?} on {}", method, f);
    }
}

// ---------------------------------------------------------------------
// Deterministic spot checks
// ---------------------------------------------------------------------

#[test]
fn batch_matches_sequential_on_the_sales_workload() {
    use qarith::datagen::sales::{paper_queries, sales_catalog, sales_database, SalesScale};
    use qarith::engine::cq;

    let db = sales_database(&SalesScale::tiny(), 2020);
    let catalog = sales_catalog();
    // One shard with room for one entry (a sales entry accounts for
    // about 230 bytes): nearly every insert evicts, so repeat runs mix
    // hits with recomputation.
    let starved = NuCacheConfig { shards: 1, budget_bytes: 384 };
    for method in [MethodChoice::Auto, MethodChoice::Afpras] {
        let options = MeasureOptions { method, ..MeasureOptions::default() };
        let sequential = CertaintyEngine::new(MeasureOptions {
            batch: BatchOptions { threads: 1, dedup: false },
            ..options.clone()
        });
        let batched_options =
            MeasureOptions { batch: BatchOptions { threads: 4, dedup: true }, ..options };
        let starved_cache = std::sync::Arc::new(NuCache::new(starved));
        let starved_engine =
            CertaintyEngine::new(batched_options.clone()).with_cache(starved_cache.clone());
        for (name, sql) in paper_queries() {
            let lowered = qarith::sql::compile(sql, &catalog).unwrap();
            let candidates = cq::execute(&lowered.query, &db, &lowered.cq_options()).unwrap();
            let batched = CertaintyEngine::new(batched_options.clone())
                .with_cache(std::sync::Arc::new(NuCache::default()));
            let s = sequential.measure_candidates(candidates.clone()).unwrap();
            let b = batched.measure_candidates(candidates.clone()).unwrap();
            let starved_runs = [
                starved_engine.measure_candidates(candidates.clone()).unwrap(),
                starved_engine.measure_candidates(candidates.clone()).unwrap(),
            ];
            for answers in [&b, &starved_runs[0], &starved_runs[1]] {
                assert_eq!(s.len(), answers.len());
                for (x, y) in s.iter().zip(answers) {
                    assert_eq!(
                        bits(&x.certainty),
                        bits(&y.certainty),
                        "{name} / {method:?} / {}",
                        x.tuple
                    );
                }
            }
        }
        let stats = starved_cache.stats();
        assert!(stats.evictions > 0, "{method:?}: the starved cache must evict: {stats:?}");
    }
}

#[test]
fn thread_count_does_not_change_bits() {
    let formulas = vec![
        QfFormula::atom(Atom::new(
            Polynomial::var(Var(0)) * Polynomial::var(Var(1)) - Polynomial::var(Var(2)),
            ConstraintOp::Lt,
        )),
        QfFormula::atom(Atom::new(Polynomial::var(Var(5)), ConstraintOp::Gt)),
        QfFormula::or([
            QfFormula::atom(Atom::new(
                Polynomial::var(Var(1)) - Polynomial::var(Var(3)),
                ConstraintOp::Le,
            )),
            QfFormula::atom(Atom::new(Polynomial::var(Var(2)), ConstraintOp::Ge)),
        ]),
    ];
    let candidates = candidates_from(formulas);
    let run = |threads: usize| {
        let engine = CertaintyEngine::new(MeasureOptions {
            method: MethodChoice::Afpras,
            batch: BatchOptions { threads, dedup: true },
            ..MeasureOptions::default()
        });
        engine.measure_batch(candidates.clone()).unwrap()
    };
    let one = run(1);
    for threads in [2, 4, 8] {
        let many = run(threads);
        for (x, y) in one.answers.iter().zip(&many.answers) {
            assert_eq!(bits(&x.certainty), bits(&y.certainty), "threads = {threads}");
        }
    }
}
