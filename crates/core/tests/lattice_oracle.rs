//! The §10 lattice count as an independent oracle for the exact
//! evaluators.
//!
//! §10 defines the integer-domain measure as the limit of the lattice
//! ratio `#(ℤⁿ ∩ φ ∩ B_r) / #(ℤⁿ ∩ B_r)` and argues it equals ν — the
//! finite-valuation counting view of Arenas, Barceló and Monet
//! (*Counting Problems over Incomplete Databases*). The ratio is plain
//! enumeration over integer points with exact rational evaluation, so
//! it shares no code path with the exact evaluators it checks here
//! (`exact::order` for the order fragment, `exact::arcs2d` for 2-D
//! linear formulas). For each formula the gap to `exact::try_exact`
//! must shrink as the radius grows and, at the largest radius, stay
//! within `c/r`: the points the ratio gets wrong lie within a bounded
//! distance of the formula's boundary, a shell holding an `O(1/r)`
//! share of the ball. Constant terms widen that shell by their offset,
//! so the formulas with constants state a larger `c`.

use qarith_constraints::{Atom, ConstraintOp, Polynomial, QfFormula, Var};
use qarith_core::exact;
use qarith_core::lattice::lattice_ratio;
use qarith_numeric::Rational;

fn z(i: u32) -> Polynomial {
    Polynomial::var(Var(i))
}

fn k(n: i64) -> Polynomial {
    Polynomial::constant(Rational::from_int(n))
}

fn atom(p: Polynomial, op: ConstraintOp) -> QfFormula {
    QfFormula::atom(Atom::new(p, op))
}

/// Asserts the lattice ratio of `phi` converges to its exact measure
/// along `radii` (ascending), ending within `c / r`.
fn converges(name: &str, phi: &QfFormula, radii: &[i64], c: f64) {
    let exact = exact::try_exact(phi, 7).expect("an exact evaluator applies").value;
    let gaps: Vec<f64> = radii
        .iter()
        .map(|&r| (lattice_ratio(phi, r).expect("integer points evaluate") - exact).abs())
        .collect();
    for (pair, radius) in gaps.windows(2).zip(&radii[1..]) {
        assert!(pair[1] < pair[0], "{name}: gap grew to {} at r = {radius}: {gaps:?}", pair[1]);
    }
    let (r, gap) = (radii[radii.len() - 1], gaps[gaps.len() - 1]);
    assert!(gap <= c / r as f64, "{name}: gap {gap} exceeds {c}/{r} (exact ν = {exact})");
}

#[test]
fn order_fragment_chain() {
    // z0 < z1 < z2: ν = 1/6, one of the 3! orderings.
    let phi =
        QfFormula::and([atom(z(0) - z(1), ConstraintOp::Lt), atom(z(1) - z(2), ConstraintOp::Lt)]);
    converges("z0 < z1 < z2", &phi, &[4, 8, 16, 32], 1.0);
}

#[test]
fn linear_wedge_in_the_plane() {
    // 2·z0 + 3·z1 > 0 ∧ z0 < 2·z1: a wedge with irrational angles.
    let phi = QfFormula::and([
        atom(k(2) * z(0) + k(3) * z(1), ConstraintOp::Gt),
        atom(z(0) - k(2) * z(1), ConstraintOp::Lt),
    ]);
    converges("2-D wedge", &phi, &[8, 32, 128, 256], 1.0);
}

#[test]
fn constants_vanish_in_the_limit() {
    // The same shapes with shifted boundaries: ν ignores the constants
    // (Lemma 8.4), the finite-radius count does not.
    let plane = QfFormula::and([
        atom(z(0) + k(2) * z(1) - k(7), ConstraintOp::Gt),
        atom(z(1) - z(0) - k(3), ConstraintOp::Lt),
    ]);
    converges("2-D wedge with constants", &plane, &[8, 32, 128, 256], 1.0);
    // z0 < z1 − 5 ∨ z2 > 4: ν = 3/4, but no point of B_4 satisfies it.
    let order = QfFormula::or([
        atom(z(0) - z(1) + k(5), ConstraintOp::Lt),
        atom(z(2) - k(4), ConstraintOp::Gt),
    ]);
    converges("order fragment with constants", &order, &[4, 8, 16, 32], 4.0);
}
