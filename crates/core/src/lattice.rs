//! The integer-domain measure (§10 of the paper).
//!
//! For integer-typed columns, §10 proposes replacing volumes by lattice
//! counts: `μ_ℤ(φ) = lim_r #(ℤⁿ ∩ φ ∩ B_r) / #(ℤⁿ ∩ B_r)`, and notes
//! that by the n-dimensional Gauss circle problem the number of lattice
//! points in `B_r` approximates `Vol(B_r)` up to lower-order terms — so
//! the integer measure coincides with the real measure ν for the
//! formulas of this framework.
//!
//! This module provides the finite-radius lattice ratio (by exact
//! enumeration, feasible in small dimension) so the convergence claim
//! can be *tested*: `tests/lattice_oracle.rs` checks the exact
//! evaluators against it at growing radius. Enumeration
//! is exponential in the dimension — this is a validation tool, not an
//! approximation algorithm (the AFPRAS already covers that role for both
//! models, by the equality of the limits).

use qarith_constraints::QfFormula;
use qarith_numeric::Rational;

use crate::error::MeasureError;

/// The finite-radius lattice ratio
/// `#(ℤⁿ ∩ φ ∩ B_r) / #(ℤⁿ ∩ B_r)`, with `φ` evaluated exactly on
/// rational (integer) points. Variables are densified in sorted order,
/// matching the other evaluators.
///
/// Complexity: `O((2r+1)ⁿ)` — keep `n ≤ 4` and `r ≤ 50` or so.
pub fn lattice_ratio(phi: &QfFormula, radius: i64) -> Result<f64, MeasureError> {
    assert!(radius >= 0, "radius must be non-negative");
    let dense = crate::exact::densify(phi);
    let n = dense.vars().len();
    if n == 0 {
        return Ok(if dense.eval_f64(&[]) { 1.0 } else { 0.0 });
    }
    assert!(n <= 6, "lattice enumeration is exponential; {n} dimensions is too many");

    let r2 = radius * radius;
    let mut point = vec![0i64; n];
    let mut inside = 0u64;
    let mut satisfied = 0u64;
    enumerate(&dense, radius, r2, &mut point, 0, 0, &mut inside, &mut satisfied)?;
    Ok(satisfied as f64 / inside as f64)
}

#[allow(clippy::too_many_arguments)]
fn enumerate(
    phi: &QfFormula,
    radius: i64,
    r2: i64,
    point: &mut [i64],
    depth: usize,
    norm2: i64,
    inside: &mut u64,
    satisfied: &mut u64,
) -> Result<(), MeasureError> {
    if depth == point.len() {
        *inside += 1;
        let rat: Vec<Rational> = point.iter().map(|&x| Rational::from_int(x)).collect();
        if phi
            .eval_rational(&rat)
            .map_err(|e| MeasureError::Formula(qarith_constraints::FormulaError::Numeric(e)))?
        {
            *satisfied += 1;
        }
        return Ok(());
    }
    for x in -radius..=radius {
        let n2 = norm2 + x * x;
        if n2 > r2 {
            continue;
        }
        point[depth] = x;
        enumerate(phi, radius, r2, point, depth + 1, n2, inside, satisfied)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact;
    use qarith_constraints::{Atom, ConstraintOp, Polynomial, Var};

    fn z(i: u32) -> Polynomial {
        Polynomial::var(Var(i))
    }

    fn atom(p: Polynomial, op: ConstraintOp) -> QfFormula {
        QfFormula::atom(Atom::new(p, op))
    }

    #[test]
    fn halfline_converges_to_one_half() {
        let phi = atom(z(0), ConstraintOp::Gt);
        // ν = 1/2; at radius r the lattice ratio is r/(2r+1) → 1/2.
        let at_10 = lattice_ratio(&phi, 10).unwrap();
        assert!((at_10 - 10.0 / 21.0).abs() < 1e-12);
        let at_200 = lattice_ratio(&phi, 200).unwrap();
        assert!((at_200 - 0.5).abs() < 0.002);
    }

    #[test]
    fn quadrant_converges_to_exact_measure() {
        let phi = QfFormula::and([atom(z(0), ConstraintOp::Gt), atom(z(1), ConstraintOp::Gt)]);
        let exact = exact::try_exact(&phi, 7).unwrap().value; // 1/4
        let mut prev_err = f64::INFINITY;
        for r in [5i64, 20, 60] {
            let ratio = lattice_ratio(&phi, r).unwrap();
            let err = (ratio - exact).abs();
            assert!(err <= prev_err + 0.02, "error should shrink with r (r={r}, err={err})");
            prev_err = err;
        }
        assert!(prev_err < 0.02, "final error {prev_err}");
    }

    #[test]
    fn wedge_converges_to_arctan_value() {
        // z0 ≥ 0 ∧ z1 ≤ z0: ν = 3/8 (Prop 6.1 with α = 1).
        let phi =
            QfFormula::and([atom(z(0), ConstraintOp::Ge), atom(z(1) - z(0), ConstraintOp::Le)]);
        let ratio = lattice_ratio(&phi, 60).unwrap();
        assert!((ratio - 0.375).abs() < 0.02, "got {ratio}");
    }

    #[test]
    fn constants_matter_at_finite_radius_but_vanish() {
        // z0 > 15: at radius 20 only 5 of 41 points qualify; at radius
        // 400 nearly half do.
        let phi = atom(z(0) - Polynomial::constant(Rational::from_int(15)), ConstraintOp::Gt);
        let small = lattice_ratio(&phi, 20).unwrap();
        assert!((small - 5.0 / 41.0).abs() < 1e-12);
        let large = lattice_ratio(&phi, 400).unwrap();
        assert!((large - 0.48).abs() < 0.01);
    }

    #[test]
    fn zero_dimensional() {
        assert_eq!(lattice_ratio(&QfFormula::True, 3).unwrap(), 1.0);
        assert_eq!(lattice_ratio(&QfFormula::False, 3).unwrap(), 0.0);
    }

    #[test]
    fn equalities_are_asymptotically_null_but_visible_at_small_radius() {
        // z0 = z1 on the lattice: (2r+1) points of (≈ π r²) — vanishing.
        let phi = atom(z(0) - z(1), ConstraintOp::Eq);
        let r10 = lattice_ratio(&phi, 10).unwrap();
        assert!(r10 > 0.0, "diagonal points exist at finite radius");
        let r40 = lattice_ratio(&phi, 40).unwrap();
        assert!(r40 < r10, "but their share shrinks: {r40} < {r10}");
    }
}
