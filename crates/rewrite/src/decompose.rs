//! Pass 3: independence decomposition of top-level connectives.
//!
//! **Why the product rule is exact.** `ν(φ)` is the probability that a
//! direction `a`, uniform on the unit sphere, asymptotically satisfies
//! `φ` (Lemma 8.3). Sample `a` as a normalized standard Gaussian
//! `g/‖g‖`. The Lemma 8.4 limit truth is *scale-invariant*: every
//! homogeneous component scales by a positive power of the scale factor,
//! so no component's sign — hence no atom's and no formula's limit
//! truth — changes along a ray. For a factor `φᵢ` over a variable set
//! `Vᵢ`, the limit truth at `a` therefore depends only on the
//! *direction* of the sub-vector `g|_{Vᵢ}` (the normalization by the
//! global `‖g‖` is just such a positive rescaling). When the `Vᵢ` are
//! pairwise disjoint, the sub-vectors `g|_{Vᵢ}` are independent
//! Gaussians, so their directions are independent (and each is uniform
//! on its own sub-sphere). Hence for variable-disjoint `φ, ψ`:
//!
//! `ν(φ ∧ ψ) = P[φ limit-holds ∧ ψ limit-holds] = ν(φ)·ν(ψ)`,
//!
//! and inductively over all factors. Each factor can be measured on its
//! own `|Vᵢ|`-dimensional sphere — the same partial-vector projection
//! argument the paper's §9 uses for whole formulas.
//!
//! **The dual rule for disjunctions.** The same independence applied to
//! the complements gives, for variable-disjoint `φ, ψ`:
//!
//! `ν(φ ∨ ψ) = 1 − P[¬φ ∧ ¬ψ] = 1 − (1 − ν(φ))·(1 − ν(ψ))`.
//!
//! This matters in practice: the CQ executor emits one disjunct per
//! derivation, so per-candidate ground formulas are `Or`-rooted, and
//! derivations through unrelated nulls produce variable-disjoint
//! disjuncts.

use std::collections::{BTreeMap, HashMap};

use qarith_constraints::{QfFormula, Var};

/// How a [`Decomposition`]'s factor measures combine back into `ν`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Combination {
    /// Conjunction factors: `ν = ∏ᵢ νᵢ`.
    Product,
    /// Disjunction factors: `ν = 1 − ∏ᵢ (1 − νᵢ)`.
    DualProduct,
}

/// The result of splitting a formula along variable-disjoint components
/// of its top-level connective.
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// The combination rule matching the root connective.
    pub combination: Combination,
    /// Variable-disjoint factors. Empty iff the input was a constant; a
    /// single factor means no decomposition applied (then the
    /// combination is trivially the identity either way).
    pub factors: Vec<QfFormula>,
}

/// Splits a formula into variable-disjoint factors: the connected
/// components of the part–variable incidence graph of a top-level `And`
/// or `Or` (parts sharing a variable end up in the same factor), with
/// the matching combination rule. Leaves are a single factor; constants
/// have none. Factor order is deterministic — by first part
/// occurrence — and each factor keeps its parts in input order.
pub fn decompose(phi: &QfFormula) -> Decomposition {
    let (parts, combination) = match phi {
        QfFormula::True | QfFormula::False => {
            return Decomposition { combination: Combination::Product, factors: Vec::new() }
        }
        QfFormula::And(parts) => (parts, Combination::Product),
        QfFormula::Or(parts) => (parts, Combination::DualProduct),
        other => {
            return Decomposition {
                combination: Combination::Product,
                factors: vec![other.clone()],
            }
        }
    };

    // Union-find over part indices, merged through shared variables.
    // A merge attaches the larger root under the smaller, so every root
    // is the first part of its component.
    let mut parent: Vec<usize> = (0..parts.len()).collect();
    let mut owner: HashMap<Var, usize> = HashMap::new();
    for (i, p) in parts.iter().enumerate() {
        for v in p.vars() {
            match owner.get(&v) {
                Some(&j) => {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if let Some(root) = parent.get_mut(ri.max(rj)) {
                        *root = ri.min(rj);
                    }
                }
                None => {
                    owner.insert(v, i);
                }
            }
        }
    }

    // Group parts by root: ascending roots are first-occurrence order.
    let mut components: BTreeMap<usize, Vec<QfFormula>> = BTreeMap::new();
    for (i, p) in parts.iter().enumerate() {
        components.entry(find(&mut parent, i)).or_default().push(p.clone());
    }
    let rebuild = match combination {
        Combination::Product => QfFormula::and,
        Combination::DualProduct => QfFormula::or,
    };
    Decomposition { combination, factors: components.into_values().map(rebuild).collect() }
}

/// The root of `i`'s set in the union-find forest `parent`, halving the
/// path on the way up.
fn find(parent: &mut [usize], mut i: usize) -> usize {
    while let Some(&up) = parent.get(i) {
        if up == i {
            break;
        }
        let grand = parent.get(up).copied().unwrap_or(up);
        if let Some(link) = parent.get_mut(i) {
            *link = grand;
        }
        i = grand;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use qarith_constraints::{Atom, ConstraintOp, Polynomial};
    use qarith_numeric::Rational;

    fn z(i: u32) -> Polynomial {
        Polynomial::var(Var(i))
    }

    fn atom(p: Polynomial, op: ConstraintOp) -> QfFormula {
        QfFormula::atom(Atom::new(p, op))
    }

    #[test]
    fn splits_disjoint_components_in_order() {
        // Components: {z0, z2} (linked through conjunct 3), {z1}, {z3}.
        let p0 = atom(z(0), ConstraintOp::Gt);
        let p1 = atom(z(1), ConstraintOp::Lt);
        let p2 = atom(z(2), ConstraintOp::Ge);
        let p3 = atom(z(0) - z(2), ConstraintOp::Lt);
        let p4 = atom(z(3), ConstraintOp::Le);
        let f = QfFormula::and([p0.clone(), p1.clone(), p2.clone(), p3.clone(), p4.clone()]);
        let d = decompose(&f);
        assert_eq!(d.combination, Combination::Product);
        assert_eq!(d.factors.len(), 3);
        assert_eq!(d.factors[0], QfFormula::and([p0, p2, p3]));
        assert_eq!(d.factors[1], p1);
        assert_eq!(d.factors[2], p4);
        // Variable sets are pairwise disjoint.
        for i in 0..d.factors.len() {
            for j in i + 1..d.factors.len() {
                assert!(d.factors[i].vars().is_disjoint(&d.factors[j].vars()));
            }
        }
    }

    #[test]
    fn disjunctions_decompose_dually() {
        // (z0 < 0 ∧ z1 > 0) ∨ (z2 ≥ 0): disjoint disjuncts.
        let left = QfFormula::and([atom(z(0), ConstraintOp::Lt), atom(z(1), ConstraintOp::Gt)]);
        let right = atom(z(2), ConstraintOp::Ge);
        let f = QfFormula::or([left.clone(), right.clone()]);
        let d = decompose(&f);
        assert_eq!(d.combination, Combination::DualProduct);
        assert_eq!(d.factors, vec![left, right]);
        // Disjuncts sharing a variable stay together.
        let g = QfFormula::or([
            atom(z(0) - z(1), ConstraintOp::Lt),
            atom(z(1) - z(2), ConstraintOp::Lt),
        ]);
        let d = decompose(&g);
        assert_eq!(d.factors.len(), 1);
        assert_eq!(d.factors[0], g);
    }

    #[test]
    fn connected_conjunctions_stay_whole() {
        let f = QfFormula::and([
            atom(z(0) - z(1), ConstraintOp::Lt),
            atom(z(1) - z(2), ConstraintOp::Lt),
        ]);
        let d = decompose(&f);
        assert_eq!(d.factors.len(), 1);
        assert_eq!(d.factors[0], f);
    }

    #[test]
    fn non_connectives_and_constants() {
        let a = atom(z(2) - Polynomial::constant(Rational::from_int(7)), ConstraintOp::Gt);
        let d = decompose(&a);
        assert_eq!(d.factors, vec![a.clone()]);
        assert!(decompose(&QfFormula::True).factors.is_empty());
        assert!(decompose(&QfFormula::False).factors.is_empty());
    }

    #[test]
    fn connective_of_factors_is_the_input() {
        let f = QfFormula::and([
            atom(z(0), ConstraintOp::Gt),
            atom(z(1), ConstraintOp::Gt),
            atom(z(2), ConstraintOp::Gt),
        ]);
        let d = decompose(&f);
        assert_eq!(d.factors.len(), 3);
        assert_eq!(QfFormula::and(d.factors), f);
        let g = QfFormula::or([atom(z(0), ConstraintOp::Gt), atom(z(1), ConstraintOp::Gt)]);
        let d = decompose(&g);
        assert_eq!(d.factors.len(), 2);
        assert_eq!(QfFormula::or(d.factors), g);
    }
}
