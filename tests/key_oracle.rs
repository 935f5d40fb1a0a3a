//! The byte keys of `qarith_constraints::canonical::KeyEncoder` against
//! a reference implementation: the text keys the batch engine grouped on
//! before the encoder existed (the structural form's `Display`, and the
//! asymptotic serialization with scale-normalized atoms and sorted,
//! deduplicated children).
//!
//! Grouping, dedup and every answer stay bit-identical only if the two
//! induce the same classes, so each check is an equivalence at both
//! granularities: `encode(a) == encode(b)` ⇔ `oracle(a) == oracle(b)`.
//! The property test builds pairs that are equal up to renamed nulls,
//! rescaled components, permuted and duplicated `And`/`Or` children, and
//! `Not` nodes that NNF must push down and flatten; the corpus check
//! covers every uncertain ground formula of the workload families at
//! tiny scale.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use proptest::prelude::*;

use qarith::constraints::canonical::{renumbered, Granularity, KeyEncoder};
use qarith::constraints::{Atom, ConstraintOp, Monomial, Polynomial, QfFormula, Var};
use qarith::datagen::{QueryFamily, WorkloadScale, WorkloadSpec};
use qarith::engine::cq::{self, CqOptions};
use qarith::numeric::Rational;

// ---------------------------------------------------------------------
// The reference: the text keys
// ---------------------------------------------------------------------

/// The structural text key: the renumbered NNF formula, displayed.
fn structural_text(phi: &QfFormula) -> String {
    format!("s:{}", renumbered(phi))
}

/// `p` with every homogeneous component rescaled so its graded-lex
/// leading coefficient has absolute value 1; `None` if a division
/// overflows.
fn scale_normalized(p: &Polynomial) -> Option<Polynomial> {
    let mut lead: BTreeMap<u32, Rational> = BTreeMap::new();
    for (m, c) in p.terms() {
        lead.entry(m.degree()).or_insert_with(|| c.abs());
    }
    let mut out = Polynomial::zero();
    for (m, c) in p.terms() {
        out.add_term(m.clone(), c.checked_div(&lead[&m.degree()]).ok()?).ok()?;
    }
    Some(out)
}

/// The asymptotic text key of the structural form; a formula whose
/// rescale overflows keys structurally, as the encoder does.
fn asymptotic_text(phi: &QfFormula) -> String {
    fn walk(f: &QfFormula, out: &mut String) -> Option<()> {
        match f {
            QfFormula::True => out.push('T'),
            QfFormula::False => out.push('F'),
            QfFormula::Atom(a) => {
                let _ = write!(out, "{} {}", scale_normalized(a.poly())?, a.op());
            }
            QfFormula::Not(inner) => {
                out.push_str("!(");
                walk(inner, out)?;
                out.push(')');
            }
            QfFormula::And(parts) | QfFormula::Or(parts) => {
                out.push(if matches!(f, QfFormula::And(_)) { '&' } else { '|' });
                let mut kids = Vec::with_capacity(parts.len());
                for p in parts {
                    let mut s = String::new();
                    walk(p, &mut s)?;
                    kids.push(s);
                }
                kids.sort();
                kids.dedup();
                let _ = write!(out, "[{}]", kids.join(","));
            }
        }
        Some(())
    }
    let mut out = String::from("a:");
    match walk(&renumbered(phi), &mut out) {
        Some(()) => out,
        None => structural_text(phi),
    }
}

fn oracle(phi: &QfFormula, granularity: Granularity) -> String {
    match granularity {
        Granularity::Structural => structural_text(phi),
        Granularity::Asymptotic => asymptotic_text(phi),
    }
}

const GRANULARITIES: [Granularity; 2] = [Granularity::Structural, Granularity::Asymptotic];

/// Checks that keys and oracle strings induce the same classes on
/// `formulas`: each key maps to one string and each string to one key.
/// Returns the number of classes at each granularity.
fn assert_same_classes(formulas: &[QfFormula]) -> [usize; 2] {
    let mut encoder = KeyEncoder::new();
    let mut classes = [0; 2];
    for (slot, granularity) in GRANULARITIES.into_iter().enumerate() {
        let mut by_key: BTreeMap<Vec<u8>, (String, usize)> = BTreeMap::new();
        let mut by_text: BTreeMap<String, (Vec<u8>, usize)> = BTreeMap::new();
        for (i, phi) in formulas.iter().enumerate() {
            let key = encoder.encode(phi, granularity).to_vec();
            let text = oracle(phi, granularity);
            let (seen_text, first) = by_key.entry(key.clone()).or_insert((text.clone(), i));
            assert_eq!(
                *seen_text, text,
                "{granularity:?}: one key, two text keys (formulas {first} and {i}: {} / {phi})",
                formulas[*first]
            );
            let (seen_key, first) = by_text.entry(text).or_insert((key.clone(), i));
            assert_eq!(
                *seen_key, key,
                "{granularity:?}: one text key, two keys (formulas {first} and {i}: {} / {phi})",
                formulas[*first]
            );
        }
        classes[slot] = by_key.len();
    }
    classes
}

// ---------------------------------------------------------------------
// Corpus: every uncertain ground formula of the families at tiny scale
// ---------------------------------------------------------------------

#[test]
fn keys_match_the_text_keys_on_the_workload_families() {
    let mut formulas = Vec::new();
    for seed in [2020, 1001] {
        for family in QueryFamily::all() {
            let workload = WorkloadSpec { scale: WorkloadScale::Tiny, family, seed }.build();
            let catalog = workload.db.catalog();
            for query in &workload.queries {
                let lowered = qarith::sql::compile(&query.sql, &catalog).expect("family SQL");
                let candidates = cq::execute(&lowered.query, &workload.db, &CqOptions::default())
                    .expect("family SQL runs");
                formulas
                    .extend(candidates.iter().filter(|c| !c.certain).map(|c| (*c.formula).clone()));
            }
        }
    }
    assert!(formulas.len() > 200, "a real corpus: {} formulas", formulas.len());
    let [structural, asymptotic] = assert_same_classes(&formulas);
    // The asymptotic key is the coarser one, and it does merge.
    assert!(asymptotic < structural, "{asymptotic} asymptotic vs {structural} structural");
}

// ---------------------------------------------------------------------
// Property: equal-up-to-symmetry pairs
// ---------------------------------------------------------------------

const VARS: u32 = 4;

fn rational() -> impl Strategy<Value = Rational> {
    (-12i128..=12, 1i128..=6).prop_map(|(n, d)| Rational::new(n, d))
}

fn polynomial() -> impl Strategy<Value = Polynomial> {
    prop::collection::vec((rational(), 0..VARS, 0u32..=2, 0..VARS, 0u32..=1), 1..4).prop_map(
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
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(QfFormula::and),
            prop::collection::vec(inner.clone(), 2..4).prop_map(QfFormula::or),
            inner.prop_map(QfFormula::negated),
        ]
    })
}

/// SplitMix64, driving the variant's choices from one generated seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn coin(&mut self) -> bool {
        self.below(2) == 0
    }
}

/// Multiplies every homogeneous component of `p` by its own positive
/// factor.
fn rescaled(p: &Polynomial, mix: &mut Mix) -> Polynomial {
    const FACTORS: [(i128, i128); 5] = [(1, 1), (2, 1), (1, 3), (7, 5), (12, 1)];
    let per_degree: Vec<Rational> = (0..=3)
        .map(|_| {
            let (n, d) = FACTORS[mix.below(FACTORS.len())];
            Rational::new(n, d)
        })
        .collect();
    let mut out = Polynomial::zero();
    for (m, c) in p.terms() {
        out.add_term(m.clone(), *c * per_degree[m.degree() as usize]).unwrap();
    }
    out
}

/// A formula equal to `f` up to the symmetries the keys may or must
/// ignore, built around the smart constructors so the encoder meets raw
/// `Not` nodes, nested and single-child connectives, and constants.
fn variant(f: &QfFormula, mix: &mut Mix, rename: &[u32]) -> QfFormula {
    let out = match f {
        QfFormula::True | QfFormula::False => f.clone(),
        QfFormula::Atom(a) => {
            let poly = if mix.below(3) == 0 { rescaled(a.poly(), mix) } else { a.poly().clone() };
            let poly = poly.map_vars(|v| Var(rename[v.0 as usize]));
            if mix.below(4) == 0 {
                // ¬(p ⋈′ 0) with ⋈′ the complement: the same atom after NNF.
                QfFormula::Not(Box::new(QfFormula::Atom(Atom::new(poly, a.op().negated()))))
            } else {
                QfFormula::Atom(Atom::new(poly, a.op()))
            }
        }
        QfFormula::Not(inner) => QfFormula::Not(Box::new(variant(inner, mix, rename))),
        QfFormula::And(parts) | QfFormula::Or(parts) => {
            let and = matches!(f, QfFormula::And(_));
            let mut kids: Vec<QfFormula> = parts.iter().map(|p| variant(p, mix, rename)).collect();
            if mix.below(3) == 0 {
                for i in (1..kids.len()).rev() {
                    kids.swap(i, mix.below(i + 1));
                }
            }
            if mix.below(4) == 0 {
                let copy = kids[mix.below(kids.len())].clone();
                kids.insert(mix.below(kids.len() + 1), copy);
            }
            if mix.below(4) == 0 {
                // The connective's unit: NNF drops it.
                let unit = if and { QfFormula::True } else { QfFormula::False };
                kids.insert(mix.below(kids.len() + 1), unit);
            }
            if mix.below(4) == 0 && kids.len() >= 3 {
                // Nest two children in a same-kind node: NNF flattens it.
                let second = kids.remove(1);
                let first = kids.remove(0);
                let pair = vec![first, second];
                kids.insert(0, if and { QfFormula::And(pair) } else { QfFormula::Or(pair) });
            }
            if mix.below(3) == 0 {
                // De Morgan: ¬(¬k₁ ∨ ¬k₂ ∨ …) for a conjunction.
                let negated: Vec<QfFormula> =
                    kids.into_iter().map(|k| QfFormula::Not(Box::new(k))).collect();
                let dual = if and { QfFormula::Or(negated) } else { QfFormula::And(negated) };
                QfFormula::Not(Box::new(dual))
            } else if and {
                QfFormula::And(kids)
            } else {
                QfFormula::Or(kids)
            }
        }
    };
    match mix.below(8) {
        0 => QfFormula::Not(Box::new(QfFormula::Not(Box::new(out)))),
        1 => QfFormula::And(vec![out]),
        _ => out,
    }
}

/// A renaming of the variables: order-preserving (a monotone injection
/// into a wider range) or an arbitrary permutation.
fn renaming(mix: &mut Mix) -> Vec<u32> {
    if mix.coin() {
        let mut ids: Vec<u32> = Vec::new();
        while ids.len() < VARS as usize {
            let id = (mix.next() % 40) as u32;
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        ids
    } else {
        let mut ids: Vec<u32> = (0..VARS).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, mix.below(i + 1));
        }
        ids
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn keys_match_the_text_keys_on_symmetric_variants(
        f in formula(),
        other in formula(),
        seed in 0u64..u64::MAX,
    ) {
        let mut mix = Mix(seed);
        let rename = renaming(&mut mix);
        let twin = variant(&f, &mut mix, &rename);
        let cousin = variant(&other, &mut mix, &rename);
        let mut encoder = KeyEncoder::new();
        for granularity in GRANULARITIES {
            for (a, b) in [(&f, &twin), (&f, &other), (&twin, &cousin), (&other, &cousin)] {
                let keys_equal = encoder.encode(a, granularity).to_vec()
                    == encoder.encode(b, granularity);
                let texts_equal = oracle(a, granularity) == oracle(b, granularity);
                prop_assert_eq!(keys_equal, texts_equal, "{:?}: {} vs {}", granularity, a, b);
            }
        }
    }
}

#[test]
fn the_variants_exercise_both_outcomes() {
    // The property above is only as strong as its pairs: a fixed sample
    // of them must contain equal and unequal keys at both granularities.
    let mut mix = Mix(7);
    let mut encoder = KeyEncoder::new();
    let mut seen = [[false; 2]; 2];
    let x = QfFormula::atom(Atom::new(
        Polynomial::var(Var(0)) * Polynomial::var(Var(2))
            - Polynomial::constant(Rational::new(3, 2)) * Polynomial::var(Var(1)),
        ConstraintOp::Gt,
    ));
    let y = QfFormula::atom(Atom::new(
        Polynomial::var(Var(3)) + Polynomial::constant(Rational::from_int(4)),
        ConstraintOp::Le,
    ));
    let f = QfFormula::and([x.clone(), QfFormula::or([y.clone(), x.clone().negated()]), y]);
    for _ in 0..64 {
        let rename = renaming(&mut mix);
        let twin = variant(&f, &mut mix, &rename);
        for (slot, granularity) in GRANULARITIES.into_iter().enumerate() {
            let equal =
                encoder.encode(&f, granularity).to_vec() == encoder.encode(&twin, granularity);
            assert_eq!(equal, oracle(&f, granularity) == oracle(&twin, granularity));
            seen[slot][usize::from(equal)] = true;
        }
    }
    assert_eq!(seen, [[true; 2]; 2], "[structural, asymptotic] × [unequal, equal]");
}
