use std::collections::BTreeSet;
use std::fmt;

use qarith_numeric::{NumericError, Rational};

use crate::atom::Atom;
use crate::error::FormulaError;
use crate::var::Var;

/// A quantifier-free formula over polynomial constraints.
///
/// This is the target language of the Proposition 5.3 grounding: Boolean
/// combinations of [`Atom`]s. The smart constructors ([`QfFormula::and`],
/// [`QfFormula::or`], [`QfFormula::negated`]) flatten nested connectives and
/// fold constants, so `True`/`False` leaves only survive at the root.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum QfFormula {
    /// The true formula.
    True,
    /// The false formula.
    False,
    /// A polynomial constraint.
    Atom(Atom),
    /// Negation.
    Not(Box<QfFormula>),
    /// Conjunction (flattened; always ≥ 2 conjuncts after construction).
    And(Vec<QfFormula>),
    /// Disjunction (flattened; always ≥ 2 disjuncts after construction).
    Or(Vec<QfFormula>),
}

impl QfFormula {
    /// An atom as a formula, folding constant atoms.
    pub fn atom(a: Atom) -> QfFormula {
        match a.as_constant() {
            Some(true) => QfFormula::True,
            Some(false) => QfFormula::False,
            None => QfFormula::Atom(a),
        }
    }

    /// Conjunction with flattening and constant folding.
    pub fn and(parts: impl IntoIterator<Item = QfFormula>) -> QfFormula {
        let mut out: Vec<QfFormula> = Vec::new();
        for p in parts {
            match p {
                QfFormula::True => {}
                QfFormula::False => return QfFormula::False,
                QfFormula::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => QfFormula::True,
            1 => out.pop().unwrap(),
            _ => QfFormula::And(out),
        }
    }

    /// Disjunction with flattening and constant folding.
    pub fn or(parts: impl IntoIterator<Item = QfFormula>) -> QfFormula {
        let mut out: Vec<QfFormula> = Vec::new();
        for p in parts {
            match p {
                QfFormula::False => {}
                QfFormula::True => return QfFormula::True,
                QfFormula::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => QfFormula::False,
            1 => out.pop().unwrap(),
            _ => QfFormula::Or(out),
        }
    }

    /// Negation with constant folding and double-negation elimination.
    pub fn negated(self) -> QfFormula {
        match self {
            QfFormula::True => QfFormula::False,
            QfFormula::False => QfFormula::True,
            QfFormula::Not(inner) => *inner,
            QfFormula::Atom(a) => QfFormula::Atom(a.negated()),
            other => QfFormula::Not(Box::new(other)),
        }
    }

    /// Number of AST nodes (used for size budgets and reporting).
    pub fn size(&self) -> usize {
        match self {
            QfFormula::True | QfFormula::False | QfFormula::Atom(_) => 1,
            QfFormula::Not(inner) => 1 + inner.size(),
            QfFormula::And(parts) | QfFormula::Or(parts) => {
                1 + parts.iter().map(QfFormula::size).sum::<usize>()
            }
        }
    }

    /// All variables occurring in the formula.
    pub fn vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.visit_atoms(&mut |a| out.extend(a.poly().vars()));
        out
    }

    /// Visits every atom.
    pub fn visit_atoms(&self, f: &mut impl FnMut(&Atom)) {
        match self {
            QfFormula::True | QfFormula::False => {}
            QfFormula::Atom(a) => f(a),
            QfFormula::Not(inner) => inner.visit_atoms(f),
            QfFormula::And(parts) | QfFormula::Or(parts) => {
                for p in parts {
                    p.visit_atoms(f);
                }
            }
        }
    }

    /// Number of atom occurrences.
    pub fn atom_count(&self) -> usize {
        let mut n = 0;
        self.visit_atoms(&mut |_| n += 1);
        n
    }

    /// Evaluates at an `f64` point indexed by [`Var::index`].
    pub fn eval_f64(&self, point: &[f64]) -> bool {
        match self {
            QfFormula::True => true,
            QfFormula::False => false,
            QfFormula::Atom(a) => a.eval_f64(point),
            QfFormula::Not(inner) => !inner.eval_f64(point),
            QfFormula::And(parts) => parts.iter().all(|p| p.eval_f64(point)),
            QfFormula::Or(parts) => parts.iter().any(|p| p.eval_f64(point)),
        }
    }

    /// Exact evaluation at a rational point.
    pub fn eval_rational(&self, point: &[Rational]) -> Result<bool, NumericError> {
        Ok(match self {
            QfFormula::True => true,
            QfFormula::False => false,
            QfFormula::Atom(a) => a.eval_rational(point)?,
            QfFormula::Not(inner) => !inner.eval_rational(point)?,
            QfFormula::And(parts) => {
                for p in parts {
                    if !p.eval_rational(point)? {
                        return Ok(false);
                    }
                }
                true
            }
            QfFormula::Or(parts) => {
                for p in parts {
                    if p.eval_rational(point)? {
                        return Ok(true);
                    }
                }
                false
            }
        })
    }

    /// Negation normal form: `Not` nodes are pushed onto atoms (which
    /// absorb them via [`Atom::negated`]). The result contains no `Not`.
    pub fn nnf(&self) -> QfFormula {
        fn go(f: &QfFormula, negate: bool) -> QfFormula {
            match f {
                QfFormula::True => {
                    if negate {
                        QfFormula::False
                    } else {
                        QfFormula::True
                    }
                }
                QfFormula::False => {
                    if negate {
                        QfFormula::True
                    } else {
                        QfFormula::False
                    }
                }
                QfFormula::Atom(a) => QfFormula::atom(if negate { a.negated() } else { a.clone() }),
                QfFormula::Not(inner) => go(inner, !negate),
                QfFormula::And(parts) => {
                    let mapped = parts.iter().map(|p| go(p, negate));
                    if negate {
                        QfFormula::or(mapped)
                    } else {
                        QfFormula::and(mapped)
                    }
                }
                QfFormula::Or(parts) => {
                    let mapped = parts.iter().map(|p| go(p, negate));
                    if negate {
                        QfFormula::and(mapped)
                    } else {
                        QfFormula::or(mapped)
                    }
                }
            }
        }
        go(self, false)
    }

    /// Disjunctive normal form with a size budget.
    ///
    /// The budget bounds the number of *conjunctions* (disjuncts) ever
    /// materialized; exceeding it aborts with
    /// [`FormulaError::DnfBlowup`] so callers can fall back to the
    /// additive approximation scheme, which works on arbitrary shapes.
    pub fn dnf(&self, limit: usize) -> Result<Dnf, FormulaError> {
        fn go(f: &QfFormula, limit: usize) -> Result<Vec<Vec<Atom>>, FormulaError> {
            Ok(match f {
                QfFormula::True => vec![vec![]],
                QfFormula::False => vec![],
                QfFormula::Atom(a) => vec![vec![a.clone()]],
                QfFormula::Not(_) => unreachable!("dnf runs on NNF input"),
                QfFormula::Or(parts) => {
                    let mut out = Vec::new();
                    for p in parts {
                        out.extend(go(p, limit)?);
                        if out.len() > limit {
                            return Err(FormulaError::DnfBlowup { reached: out.len(), limit });
                        }
                    }
                    out
                }
                QfFormula::And(parts) => {
                    let mut acc: Vec<Vec<Atom>> = vec![vec![]];
                    for p in parts {
                        let rhs = go(p, limit)?;
                        let mut next = Vec::with_capacity(acc.len().saturating_mul(rhs.len()));
                        for a in &acc {
                            for b in &rhs {
                                let mut conj = a.clone();
                                conj.extend(b.iter().cloned());
                                next.push(conj);
                                if next.len() > limit {
                                    return Err(FormulaError::DnfBlowup {
                                        reached: next.len(),
                                        limit,
                                    });
                                }
                            }
                        }
                        acc = next;
                    }
                    acc
                }
            })
        }
        let disjuncts = go(&self.nnf(), limit)?;
        Ok(Dnf { disjuncts })
    }
}

impl fmt::Display for QfFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QfFormula::True => write!(f, "true"),
            QfFormula::False => write!(f, "false"),
            QfFormula::Atom(a) => write!(f, "({a})"),
            QfFormula::Not(inner) => write!(f, "!{inner}"),
            QfFormula::And(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " & ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            QfFormula::Or(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl fmt::Debug for QfFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A formula in disjunctive normal form: a disjunction of conjunctions of
/// atoms. An empty disjunction is `false`; an empty conjunction is `true`.
#[derive(Clone, PartialEq, Eq)]
pub struct Dnf {
    disjuncts: Vec<Vec<Atom>>,
}

impl Dnf {
    /// The disjuncts (each a conjunction of atoms).
    pub fn disjuncts(&self) -> &[Vec<Atom>] {
        &self.disjuncts
    }

    /// Number of disjuncts.
    pub fn len(&self) -> usize {
        self.disjuncts.len()
    }

    /// `true` iff the DNF is the constant `false`.
    pub fn is_empty(&self) -> bool {
        self.disjuncts.is_empty()
    }

    /// `true` iff every atom in every disjunct is linear (degree ≤ 1) —
    /// the prerequisite for the Theorem 7.1 convex-cone FPRAS.
    pub fn is_linear(&self) -> bool {
        self.disjuncts.iter().all(|conj| conj.iter().all(|a| a.poly().degree() <= 1))
    }

    /// Converts back to a tree-shaped formula.
    pub fn to_formula(&self) -> QfFormula {
        QfFormula::or(
            self.disjuncts
                .iter()
                .map(|conj| QfFormula::and(conj.iter().cloned().map(QfFormula::atom))),
        )
    }

    /// Evaluates at an `f64` point.
    pub fn eval_f64(&self, point: &[f64]) -> bool {
        self.disjuncts.iter().any(|conj| conj.iter().all(|a| a.eval_f64(point)))
    }
}

impl fmt::Debug for Dnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Dnf[{} disjuncts]", self.disjuncts.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::ConstraintOp;
    use crate::polynomial::Polynomial;

    fn z(i: u32) -> Polynomial {
        Polynomial::var(Var(i))
    }

    fn lt(p: Polynomial) -> QfFormula {
        QfFormula::atom(Atom::new(p, ConstraintOp::Lt))
    }

    fn gt(p: Polynomial) -> QfFormula {
        QfFormula::atom(Atom::new(p, ConstraintOp::Gt))
    }

    #[test]
    fn smart_constructors_fold_constants() {
        assert_eq!(QfFormula::and([QfFormula::True, QfFormula::True]), QfFormula::True);
        assert_eq!(QfFormula::and([QfFormula::True, QfFormula::False]), QfFormula::False);
        assert_eq!(QfFormula::or([QfFormula::False, QfFormula::False]), QfFormula::False);
        assert_eq!(QfFormula::or([QfFormula::False, QfFormula::True]), QfFormula::True);
        assert_eq!(QfFormula::and([] as [QfFormula; 0]), QfFormula::True);
        assert_eq!(QfFormula::or([] as [QfFormula; 0]), QfFormula::False);
        // Single-element connectives collapse.
        let a = lt(z(0));
        assert_eq!(QfFormula::and([a.clone()]), a);
        assert_eq!(QfFormula::or([a.clone()]), a);
    }

    #[test]
    fn flattening() {
        let a = lt(z(0));
        let b = lt(z(1));
        let c = lt(z(2));
        let nested = QfFormula::and([a.clone(), QfFormula::and([b.clone(), c.clone()])]);
        match nested {
            QfFormula::And(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected flattened And, got {other}"),
        }
    }

    #[test]
    fn evaluation() {
        // (z0 < 0) | (z1 > 0 & z0 > 0)
        let f = QfFormula::or([lt(z(0)), QfFormula::and([gt(z(1)), gt(z(0))])]);
        assert!(f.eval_f64(&[-1.0, 0.0]));
        assert!(f.eval_f64(&[1.0, 1.0]));
        assert!(!f.eval_f64(&[1.0, -1.0]));
        assert!(!f.eval_f64(&[0.0, 5.0]));
    }

    #[test]
    fn nnf_eliminates_not_and_preserves_semantics() {
        let f = QfFormula::and([lt(z(0)), QfFormula::or([gt(z(1)), lt(z(2))])]).negated();
        let g = f.nnf();
        fn has_not(f: &QfFormula) -> bool {
            match f {
                QfFormula::Not(_) => true,
                QfFormula::And(ps) | QfFormula::Or(ps) => ps.iter().any(has_not),
                _ => false,
            }
        }
        assert!(!has_not(&g));
        for p in [
            [-1.0, 2.0, 3.0],
            [1.0, -2.0, 3.0],
            [-0.5, 0.5, -0.5],
            [0.0, 0.0, 0.0],
            [2.0, -1.0, -4.0],
        ] {
            assert_eq!(f.eval_f64(&p), g.eval_f64(&p), "at {p:?}");
        }
    }

    #[test]
    fn dnf_preserves_semantics() {
        let f = QfFormula::and([
            QfFormula::or([lt(z(0)), gt(z(1))]),
            QfFormula::or([lt(z(1)), gt(z(2))]),
        ]);
        let dnf = f.dnf(64).unwrap();
        assert_eq!(dnf.len(), 4);
        for p in [
            [-1.0, -1.0, -1.0],
            [1.0, 2.0, 3.0],
            [1.0, -1.0, 3.0],
            [-1.0, 2.0, -3.0],
            [0.0, 0.0, 0.0],
        ] {
            assert_eq!(f.eval_f64(&p), dnf.eval_f64(&p), "at {p:?}");
        }
    }

    #[test]
    fn dnf_budget_is_enforced() {
        // (a1|b1) & (a2|b2) & … & (a12|b12) has 2^12 = 4096 disjuncts.
        let f = QfFormula::and((0..12).map(|i| QfFormula::or([lt(z(2 * i)), gt(z(2 * i + 1))])));
        assert!(matches!(f.dnf(100), Err(FormulaError::DnfBlowup { .. })));
        assert_eq!(f.dnf(5000).unwrap().len(), 4096);
    }

    #[test]
    fn dnf_constants() {
        assert!(QfFormula::False.dnf(10).unwrap().is_empty());
        let t = QfFormula::True.dnf(10).unwrap();
        assert_eq!(t.len(), 1);
        assert!(t.eval_f64(&[]));
    }

    #[test]
    fn dnf_linearity_check() {
        let lin = QfFormula::and([lt(z(0) + z(1)), gt(z(1))]).dnf(10).unwrap();
        assert!(lin.is_linear());
        let quad = lt(z(0) * z(0)).dnf(10).unwrap();
        assert!(!quad.is_linear());
    }

    #[test]
    fn vars_and_size() {
        let f = QfFormula::and([lt(z(0)), gt(z(3))]);
        let vars: Vec<Var> = f.vars().into_iter().collect();
        assert_eq!(vars, vec![Var(0), Var(3)]);
        assert_eq!(f.size(), 3);
        assert_eq!(f.atom_count(), 2);
    }

    #[test]
    fn rational_and_f64_eval_agree_on_exact_points() {
        let f =
            QfFormula::or([lt(z(0) - z(1)), QfFormula::atom(Atom::new(z(0), ConstraintOp::Eq))]);
        let pts = [(0i64, 0i64), (1, 2), (2, 1), (-3, -3)];
        for (x, y) in pts {
            let fp = [x as f64, y as f64];
            let rp = [Rational::from_int(x), Rational::from_int(y)];
            assert_eq!(f.eval_f64(&fp), f.eval_rational(&rp).unwrap());
        }
    }
}
