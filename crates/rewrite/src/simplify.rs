//! Passes 1–2: trivial-atom elimination and Boolean normalization.

use std::collections::HashSet;

use qarith_constraints::asymptotic::constant_limit_truth;
use qarith_constraints::{ConstraintOp, QfFormula};

/// Per-atom folding over an NNF formula. The exact ℚ interval analysis
/// decides atoms whose limit sign is constant over almost all
/// directions; of the rest, every equality becomes `false` and every
/// disequality `true` (for a polynomial that is not identically zero,
/// the directions along which it is eventually zero form a null set —
/// see Lemma 8.3 and the module docs of
/// `qarith_constraints::asymptotic`). Constants propagate through the
/// smart constructors.
pub(crate) fn simplify_atoms(f: &QfFormula) -> QfFormula {
    match f {
        QfFormula::True => QfFormula::True,
        QfFormula::False => QfFormula::False,
        QfFormula::Atom(a) => match constant_limit_truth(a) {
            Some(true) => QfFormula::True,
            Some(false) => QfFormula::False,
            None => match a.op() {
                ConstraintOp::Eq => QfFormula::False,
                ConstraintOp::Ne => QfFormula::True,
                _ => QfFormula::Atom(a.clone()),
            },
        },
        // NNF input has no Not nodes; stay total anyway (the NNF of a
        // negation has none at its root).
        QfFormula::Not(_) => simplify_atoms(&f.nnf()),
        QfFormula::And(parts) => QfFormula::and(parts.iter().map(simplify_atoms)),
        QfFormula::Or(parts) => QfFormula::or(parts.iter().map(simplify_atoms)),
    }
}

/// One bottom-up normalization pass: per connective, deduplicate
/// children (first occurrence wins, order otherwise preserved —
/// determinism matters for reproducible estimates), annihilate
/// complementary atom pairs, and apply absorption. All three are
/// pointwise Boolean identities: the rewritten formula has the same
/// truth value at every point and every direction.
pub(crate) fn normalize_node(f: &QfFormula) -> QfFormula {
    match f {
        QfFormula::True | QfFormula::False | QfFormula::Atom(_) => f.clone(),
        // NNF input has no Not nodes; stay total anyway.
        QfFormula::Not(inner) => normalize_node(inner).negated(),
        QfFormula::And(parts) => {
            rebuild(parts.iter().map(normalize_node), /* conjunction = */ true)
        }
        QfFormula::Or(parts) => rebuild(parts.iter().map(normalize_node), false),
    }
}

/// Shared And/Or rebuilder. For a conjunction: `α ∧ α ⇝ α`,
/// `α ∧ ¬α ⇝ false`, `α ∧ (α ∨ β) ⇝ α`; the disjunction rules are dual.
fn rebuild(children: impl Iterator<Item = QfFormula>, conjunction: bool) -> QfFormula {
    // Flattening and constant folding via the smart constructor.
    let flat = if conjunction { QfFormula::and(children) } else { QfFormula::or(children) };
    let parts = match &flat {
        QfFormula::And(parts) if conjunction => parts,
        QfFormula::Or(parts) if !conjunction => parts,
        _ => return flat,
    };

    // Deduplicate, keeping first-occurrence order.
    let mut seen: HashSet<&QfFormula> = HashSet::with_capacity(parts.len());
    let mut kept: Vec<&QfFormula> = Vec::with_capacity(parts.len());
    for p in parts {
        if seen.insert(p) {
            kept.push(p);
        }
    }

    // Complement annihilation on atoms: `p ⋈ 0` against `p ¬⋈ 0`.
    for p in &kept {
        if let QfFormula::Atom(a) = p {
            if seen.contains(&QfFormula::Atom(a.negated())) {
                return if conjunction { QfFormula::False } else { QfFormula::True };
            }
        }
    }

    // Absorption: a dual-connective child containing a sibling as one of
    // its own children is implied by (resp. implies) that sibling.
    let absorbed = |p: &&QfFormula| match p {
        QfFormula::Or(qs) if conjunction => qs.iter().any(|q| seen.contains(q)),
        QfFormula::And(qs) if !conjunction => qs.iter().any(|q| seen.contains(q)),
        _ => false,
    };
    let survivors: Vec<QfFormula> =
        kept.iter().filter(|p| !absorbed(p)).map(|p| (*p).clone()).collect();

    if conjunction {
        QfFormula::and(survivors)
    } else {
        QfFormula::or(survivors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qarith_constraints::{Atom, Polynomial, Var};

    fn z(i: u32) -> Polynomial {
        Polynomial::var(Var(i))
    }

    fn atom(p: Polynomial, op: ConstraintOp) -> QfFormula {
        QfFormula::atom(Atom::new(p, op))
    }

    fn lt(p: Polynomial) -> QfFormula {
        atom(p, ConstraintOp::Lt)
    }

    #[test]
    fn equalities_fold_to_their_almost_everywhere_truth() {
        // (z0 = z1) ∨ (z0 < 0) ⇝ z0 < 0.
        let eq = atom(z(0) - z(1), ConstraintOp::Eq);
        let f = QfFormula::or([eq.clone(), lt(z(0))]);
        assert_eq!(simplify_atoms(&f.nnf()), lt(z(0)));
        // A negated equality is a disequality, almost everywhere true.
        let f = QfFormula::and([eq.clone().negated(), lt(z(0))]);
        assert_eq!(simplify_atoms(&f.nnf()), lt(z(0)));
        // A bare equality collapses to false; a bare disequality to true.
        assert_eq!(simplify_atoms(&eq), QfFormula::False);
        assert_eq!(simplify_atoms(&eq.negated().nnf()), QfFormula::True);
        // Negations are pushed down first: ¬(z0 < 0 ∧ z1 = 0) is
        // (z0 ≥ 0) ∨ (z1 ≠ 0), almost everywhere true.
        let f = QfFormula::and([lt(z(0)), atom(z(1), ConstraintOp::Eq)]).negated();
        assert_eq!(simplify_atoms(&f), QfFormula::True);
    }

    #[test]
    fn sign_varying_inequalities_stay_intact() {
        let f = QfFormula::and([lt(z(0) + z(1)), atom(z(0) * z(1), ConstraintOp::Gt)]);
        assert_eq!(simplify_atoms(&f.nnf()), f);
    }

    #[test]
    fn fold_decides_even_power_atoms() {
        let f = atom(z(0) * z(0) + z(1) * z(1), ConstraintOp::Ge);
        assert_eq!(simplify_atoms(&f.nnf()), QfFormula::True);
    }

    #[test]
    fn nested_absorption_resolves_in_one_bottom_up_pass() {
        let a = atom(z(0), ConstraintOp::Lt);
        let b = atom(z(1), ConstraintOp::Gt);
        // α ∧ (α ∨ (α ∧ β)): inner Or absorbs to α, outer And dedups.
        let f = QfFormula::And(vec![
            a.clone(),
            QfFormula::Or(vec![a.clone(), QfFormula::And(vec![a.clone(), b])]),
        ]);
        assert_eq!(normalize_node(&f), a);
    }

    #[test]
    fn annihilation_is_dual() {
        let a = atom(z(0) - z(1), ConstraintOp::Le);
        let na = atom(z(0) - z(1), ConstraintOp::Gt);
        assert_eq!(normalize_node(&QfFormula::And(vec![a.clone(), na.clone()])), QfFormula::False);
        assert_eq!(normalize_node(&QfFormula::Or(vec![a, na])), QfFormula::True);
    }
}
