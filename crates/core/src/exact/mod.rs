//! Exact evaluation of `ν(φ)` for tractable special cases.
//!
//! Exact computation is FP^#P-hard in general (Proposition 6.2) and the
//! value can be irrational already for one linear atom (Proposition 6.1),
//! so no exact evaluator can be complete. This module covers the cases
//! where the value has a finite closed form:
//!
//! * **dimension 0** — variable-free formulas: `ν ∈ {0, 1}`;
//! * **dimension 1** — only the directions `+1` and `−1` exist:
//!   `ν ∈ {0, ½, 1}`;
//! * **order fragment** ([`order`]) — atoms comparing single nulls with
//!   nulls or constants: `ν` is an exact rational, computed by cell
//!   enumeration (this also witnesses the rationality claim of
//!   Proposition 6.2 for FO(<));
//! * **2-D linear** ([`arcs2d`]) — `ν` is an angular measure, exact up to
//!   `f64` arc arithmetic (this evaluates the paper's intro example and
//!   the arctangent values of Proposition 6.1);
//! * **2–3 variables with linear or monomial leading forms**
//!   ([`sphere3d`]) — `ν` is a sum of polyhedral-cone solid angles,
//!   exact up to `f64` angle arithmetic.
//!
//! [`try_exact`] is the one evaluator set: the engine's `Auto` and
//! `ExactOnly` routes apply it to every factor of a rewritten formula.

pub mod arcs2d;
pub mod order;
pub mod sphere3d;

use qarith_constraints::asymptotic::formula_limit_truth;
use qarith_constraints::QfFormula;
use qarith_numeric::Rational;

use crate::estimate::CertaintyEstimate;

/// Attempts an exact evaluation; returns `None` when no exact method
/// applies. Routing is ordered: the order fragment wins over the 2-D arc
/// evaluator when both apply (rational beats closed-form `f64`), and the
/// solid-angle evaluator takes 2–3-variable formulas the others leave.
/// `order_limit` bounds the cell enumeration (the number of cells is
/// `n!·(n+1)·…`; 8 variables ≈ 3.3M cells is the practical ceiling).
pub fn try_exact(phi: &QfFormula, order_limit: usize) -> Option<CertaintyEstimate> {
    let n = phi.vars().len();
    let closed = match n {
        0 => {
            let truth = phi.eval_f64(&[]);
            Some(CertaintyEstimate::exact_rational(
                if truth { Rational::ONE } else { Rational::ZERO },
                0,
            ))
        }
        1 => {
            // ν = (limit at +∞ + limit at −∞) / 2, evaluated on the
            // dense 1-D direction space.
            let dense = densify(phi);
            let pos = formula_limit_truth(&dense, &[1.0]) as u32;
            let neg = formula_limit_truth(&dense, &[-1.0]) as u32;
            Some(CertaintyEstimate::exact_rational(Rational::new((pos + neg) as i128, 2), 1))
        }
        _ if n <= order_limit && order::is_order_formula(phi) => {
            order::exact_order_measure(phi).map(|r| CertaintyEstimate::exact_rational(r, n))
        }
        2 if arcs2d::is_linear_formula(phi) => {
            Some(CertaintyEstimate::exact_real(arcs2d::exact_arc_measure(phi), 2))
        }
        _ => None,
    };
    closed.or_else(|| {
        (2..=3)
            .contains(&n)
            .then(|| sphere3d::exact_sphere_measure(phi))
            .flatten()
            .map(|v| CertaintyEstimate::exact_real(v, n))
    })
}

/// Renames the formula's variables onto `0..n` so direction vectors can be
/// dense (the public entry points of `qarith-constraints` index directions
/// by `Var::index`).
pub(crate) fn densify(phi: &QfFormula) -> QfFormula {
    use qarith_constraints::{Atom, Var};
    use std::collections::HashMap;
    let vars: Vec<Var> = phi.vars().into_iter().collect();
    let map: HashMap<Var, Var> =
        vars.iter().enumerate().map(|(i, &v)| (v, Var(i as u32))).collect();
    fn walk(f: &QfFormula, map: &HashMap<Var, Var>) -> QfFormula {
        match f {
            QfFormula::True => QfFormula::True,
            QfFormula::False => QfFormula::False,
            QfFormula::Atom(a) => {
                QfFormula::atom(Atom::new(a.poly().map_vars(|v| map[&v]), a.op()))
            }
            QfFormula::Not(inner) => walk(inner, map).negated(),
            QfFormula::And(parts) => QfFormula::and(parts.iter().map(|p| walk(p, map))),
            QfFormula::Or(parts) => QfFormula::or(parts.iter().map(|p| walk(p, map))),
        }
    }
    walk(phi, &map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qarith_constraints::{Atom, ConstraintOp, Polynomial, Var};

    fn z(i: u32) -> Polynomial {
        Polynomial::var(Var(i))
    }

    fn atom(p: Polynomial, op: ConstraintOp) -> QfFormula {
        QfFormula::atom(Atom::new(p, op))
    }

    #[test]
    fn dimension_zero() {
        let t = try_exact(&QfFormula::True, 8).unwrap();
        assert_eq!(t.exact, Some(Rational::ONE));
        let f = try_exact(&QfFormula::False, 8).unwrap();
        assert_eq!(f.exact, Some(Rational::ZERO));
    }

    #[test]
    fn dimension_one_values() {
        // z5 > 0 (sparse variable id exercises densification): ν = 1/2.
        let phi = atom(z(5), ConstraintOp::Gt);
        let e = try_exact(&phi, 8).unwrap();
        assert_eq!(e.exact, Some(Rational::new(1, 2)));
        // z0² ≥ 0: true along both directions: ν = 1.
        let phi = atom(z(0) * z(0), ConstraintOp::Ge);
        assert_eq!(try_exact(&phi, 8).unwrap().exact, Some(Rational::ONE));
        // z0 = 3: measure zero.
        let phi = atom(z(0) - Polynomial::constant(Rational::from_int(3)), ConstraintOp::Eq);
        assert_eq!(try_exact(&phi, 8).unwrap().exact, Some(Rational::ZERO));
    }

    #[test]
    fn high_degree_unsupported_beyond_dim_one() {
        // 3 variables, a multi-term quadratic top: no exact method.
        let phi = atom(z(0) * z(0) + z(0) * z(1) - z(2), ConstraintOp::Lt);
        assert!(try_exact(&phi, 8).is_none());
        // A monomial top is in reach of the solid-angle evaluator: the
        // sign of z0·z1 is negative on half the sphere.
        let phi = atom(z(0) * z(1) - z(2), ConstraintOp::Lt);
        let est = try_exact(&phi, 8).unwrap();
        assert!((est.value - 0.5).abs() < 1e-12, "{}", est.value);
    }
}
