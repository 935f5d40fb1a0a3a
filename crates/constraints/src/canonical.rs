//! Canonical forms and group keys for quantifier-free formulas.
//!
//! Ground formulas of different candidate answers frequently coincide up
//! to the *identity of their nulls*: `0.8·z₃ − 27 ≤ 0` for one product
//! and `0.8·z₉ − 27 ≤ 0` for another describe the same measurement
//! problem, because `ν` is invariant under permutations of the direction
//! coordinates. The batch measurement engine exploits this by keying
//! every ground formula, measuring one representative per key, and
//! sharing the result across the class.
//!
//! [`KeyEncoder`] builds a key at one of two granularities, with
//! different guarantees:
//!
//! * **structural** ([`Granularity::Structural`]): the key encodes the
//!   formula's *structural form* ([`renumbered`]): negation normal form
//!   plus *order-preserving* dense renumbering of the variables (the
//!   variable of rank `i` becomes `z_i`). Every measurement algorithm in
//!   `qarith-core` densifies variables by exactly this rank order before
//!   doing any numeric work, so measuring the structural form is
//!   **bit-identical** to measuring the original formula — for the exact
//!   evaluators, the FPRAS, and the AFPRAS alike, for any fixed seed.
//!   Equal structural keys ⇔ equal structural forms, so formulas sharing
//!   one are interchangeable everywhere.
//!
//! * **asymptotic** ([`Granularity::Asymptotic`]): on top of the
//!   structural form, every homogeneous component of every atom is
//!   rescaled (exactly, in ℚ) so its graded-lex-leading coefficient has
//!   absolute value 1, and the children of `And`/`Or` nodes are sorted
//!   and deduplicated. Positive per-component rescaling preserves the
//!   *sign* of each component along every direction, hence the entire
//!   asymptotic truth function of Lemma 8.4; child order and repetition
//!   are irrelevant to Boolean evaluation. Formulas sharing an
//!   asymptotic key therefore have identical asymptotic truth at every
//!   direction — the quantity the Theorem 8.1 sampler evaluates — which
//!   makes the key the right dedup granularity for the *sampling* route:
//!   constants like `27` vs `31` vanish into `±1` and the sales
//!   workload's per-tuple constants stop defeating the cache. The key
//!   must **not** be used to group formulas for the geometric FPRAS or
//!   the 2-D arc evaluator, whose `f64` intermediates are
//!   scale-sensitive; the batch engine keys structurally there. A
//!   rescale that overflows `i128` keys the whole formula at structural
//!   granularity instead: that key is finer, so nothing merges wrongly.
//!
//! A key is bytes, built in one pass without materializing either form:
//! the encoder ranks variables against the formula's sorted variable
//! set, pushes negations onto atoms and flattens nested connectives as
//! it walks (what NNF does), and writes tags, monomials and exact
//! coefficients as varints. A leading tag byte names the key's
//! [`Origin`] and granularity, so keys of different kinds never compare
//! equal. Equal keys are exactly equal forms — no hashing, so no
//! collision can merge two classes.

use qarith_numeric::Rational;

use crate::atom::{Atom, ConstraintOp};
use crate::formula::QfFormula;
use crate::var::Var;

/// The granularity a key tells formulas apart at (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Granularity {
    /// Equal keys ⇔ equal structural forms ([`renumbered`]).
    Structural = 0,
    /// Equal keys ⇒ identical asymptotic truth functions.
    Asymptotic = 1,
}

/// Where a keyed formula comes from. The same formula is measured
/// differently as a ground formula and as the output of a ν-preserving
/// rewrite (different budgets and routes), so keys of the two origins
/// never compare equal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origin {
    /// A ground formula as grounded.
    Ground = 0,
    /// A rewritten formula (`qarith-rewrite`'s output).
    Rewritten = 1,
}

/// Node tags of a key body. `END` closes a connective's children.
const END: u8 = 0;
const TRUE: u8 = 1;
const FALSE: u8 = 2;
const ATOM: u8 = 3;
const AND: u8 = 4;
const OR: u8 = 5;

/// Builds group keys; one encoder serves any number of formulas and
/// reuses its buffers across them.
#[derive(Debug, Default)]
pub struct KeyEncoder {
    /// The key being built (what [`KeyEncoder::encode`] returns).
    key: Vec<u8>,
    /// The variables of the formula being encoded, sorted and
    /// deduplicated: a variable's rank is its index here.
    vars: Vec<u32>,
    /// Byte ranges of the children of the connectives being sorted
    /// (asymptotic granularity), one frame per open connective.
    spans: Vec<(usize, usize)>,
    /// Where a sorted connective's children are reassembled.
    sorted: Vec<u8>,
    /// Set when an asymptotic rescale overflows `i128`.
    overflowed: bool,
    /// Formula nodes encoded since creation.
    nodes: u64,
}

impl KeyEncoder {
    /// An encoder with empty buffers.
    pub fn new() -> KeyEncoder {
        KeyEncoder::default()
    }

    /// The key of `phi` at `granularity`, tagged with its `origin`.
    /// Valid until the next call.
    ///
    /// Equal keys ⇔ equal structural forms at
    /// [`Granularity::Structural`]; at [`Granularity::Asymptotic`],
    /// equal keys ⇔ equal structural forms after per-component rescaling
    /// and with `And`/`Or` children taken as sets. A formula whose
    /// rescale overflows gets its structural key.
    pub fn encode(&mut self, phi: &QfFormula, granularity: Granularity, origin: Origin) -> &[u8] {
        self.vars.clear();
        // The one-pass walk assumes what the smart constructors
        // guarantee: no constant below the root and no connective with
        // fewer than two children. Anything else goes through NNF first,
        // which folds constants and collapses short connectives exactly
        // as the structural form does.
        let normalized;
        let phi = if self.collect_vars(phi, false) {
            phi
        } else {
            normalized = phi.nnf();
            self.vars.clear();
            self.collect_vars(&normalized, false);
            &normalized
        };
        self.vars.sort_unstable();
        self.vars.dedup();
        self.overflowed = false;
        self.write(phi, granularity, origin);
        if self.overflowed {
            self.write(phi, Granularity::Structural, origin);
        }
        &self.key
    }

    /// Formula nodes encoded since creation, summed over every
    /// [`KeyEncoder::encode`] call (a formula keyed twice — asymptotic,
    /// then structural after an overflow — counts twice).
    pub fn nodes(&self) -> u64 {
        self.nodes
    }

    /// Collects the variables of `f` into `vars` and reports whether the
    /// one-pass walk applies: no constant under a connective, no
    /// constant atom, no connective with fewer than two children.
    fn collect_vars(&mut self, f: &QfFormula, inside: bool) -> bool {
        match f {
            QfFormula::True | QfFormula::False => !inside,
            QfFormula::Atom(a) => {
                if a.poly().as_constant().is_some() {
                    return false;
                }
                for (m, _) in a.poly().terms() {
                    self.vars.extend(m.vars().map(|v| v.0));
                }
                true
            }
            QfFormula::Not(inner) => self.collect_vars(inner, inside),
            QfFormula::And(parts) | QfFormula::Or(parts) => {
                parts.len() >= 2 && parts.iter().all(|p| self.collect_vars(p, true))
            }
        }
    }

    /// Writes the whole key: the tag, then the body.
    fn write(&mut self, phi: &QfFormula, granularity: Granularity, origin: Origin) {
        self.key.clear();
        self.key.push(origin as u8 * 2 + granularity as u8);
        self.node(phi, false, granularity == Granularity::Asymptotic);
    }

    /// Writes one node; `neg` is the parity of the negations above it.
    fn node(&mut self, f: &QfFormula, neg: bool, asymptotic: bool) {
        self.nodes += 1;
        match f {
            QfFormula::True => self.key.push(if neg { FALSE } else { TRUE }),
            QfFormula::False => self.key.push(if neg { TRUE } else { FALSE }),
            QfFormula::Atom(a) => self.atom(a, neg, asymptotic),
            QfFormula::Not(inner) => self.node(inner, !neg, asymptotic),
            QfFormula::And(parts) | QfFormula::Or(parts) => {
                let tag = connective_tag(f, neg);
                self.key.push(tag);
                if asymptotic {
                    self.sorted_items(tag, parts, neg);
                } else {
                    self.items(tag, parts, neg, false);
                }
                self.key.push(END);
            }
        }
    }

    /// Writes the children of a connective with effective tag `tag`,
    /// splicing in the children of every child that is (after pushing
    /// negations down) a `tag` connective itself — NNF's flattening. At
    /// asymptotic granularity each child's byte range is pushed onto
    /// `spans` for sorting.
    fn items(&mut self, tag: u8, parts: &[QfFormula], neg: bool, asymptotic: bool) {
        for part in parts {
            let (mut f, mut f_neg) = (part, neg);
            while let QfFormula::Not(inner) = f {
                self.nodes += 1;
                f = inner;
                f_neg = !f_neg;
            }
            match f {
                QfFormula::And(sub) | QfFormula::Or(sub) if connective_tag(f, f_neg) == tag => {
                    self.nodes += 1;
                    self.items(tag, sub, f_neg, asymptotic);
                }
                _ => {
                    let start = self.key.len();
                    self.node(f, f_neg, asymptotic);
                    if asymptotic {
                        self.spans.push((start, self.key.len()));
                    }
                }
            }
        }
    }

    /// The asymptotic children of a connective: written, then sorted by
    /// their bytes, deduplicated, and rewritten length-prefixed in place.
    fn sorted_items(&mut self, tag: u8, parts: &[QfFormula], neg: bool) {
        let frame = self.spans.len();
        let start = self.key.len();
        self.items(tag, parts, neg, true);
        let key = &self.key;
        let kids = self.spans.get_mut(frame..).unwrap_or_default();
        kids.sort_unstable_by(|a, b| span(key, *a).cmp(span(key, *b)));
        self.sorted.clear();
        let mut last: Option<&[u8]> = None;
        for &kid in kids.iter() {
            let bytes = span(key, kid);
            if last != Some(bytes) {
                put_varint(&mut self.sorted, bytes.len() as u128);
                self.sorted.extend_from_slice(bytes);
                last = Some(bytes);
            }
        }
        self.spans.truncate(frame);
        self.key.truncate(start);
        self.key.extend_from_slice(&self.sorted);
    }

    /// Writes an atom: its operator (negated under odd parity), then
    /// every term in graded-lex order — the monomial as ranked
    /// `(variable, exponent)` pairs, the coefficient as numerator and
    /// denominator. At asymptotic granularity each coefficient is first
    /// divided by the absolute leading coefficient of its degree.
    fn atom(&mut self, a: &Atom, neg: bool, asymptotic: bool) {
        let op = if neg { a.op().negated() } else { a.op() };
        self.key.push(ATOM);
        self.key.push(op_code(op));
        put_varint(&mut self.key, a.poly().num_terms() as u128);
        // Graded-lex order keeps each degree's terms together, its
        // leading term first; an order-preserving renumbering keeps
        // that order, so the terms come out sorted as renumbered.
        let mut lead: Option<(u32, Rational)> = None;
        for (m, c) in a.poly().terms() {
            put_varint(&mut self.key, m.factors().len() as u128);
            for &(v, e) in m.factors() {
                put_varint(&mut self.key, rank(&self.vars, v) as u128);
                put_varint(&mut self.key, u128::from(e));
            }
            let mut c = *c;
            if asymptotic {
                let degree = m.degree();
                let unit = match lead {
                    Some((d, unit)) if d == degree => unit,
                    _ => {
                        lead = Some((degree, c.abs()));
                        c.abs()
                    }
                };
                match c.checked_div(&unit) {
                    Ok(scaled) => c = scaled,
                    Err(_) => self.overflowed = true,
                }
            }
            put_int(&mut self.key, c.numer());
            put_varint(&mut self.key, c.denom().unsigned_abs());
        }
    }
}

/// The tag a connective takes once the negations above it are pushed
/// through: `¬(a ∧ b)` is an `Or`.
fn connective_tag(f: &QfFormula, neg: bool) -> u8 {
    match (f, neg) {
        (QfFormula::And(_), false) | (QfFormula::Or(_), true) => AND,
        _ => OR,
    }
}

fn op_code(op: ConstraintOp) -> u8 {
    match op {
        ConstraintOp::Lt => 0,
        ConstraintOp::Le => 1,
        ConstraintOp::Eq => 2,
        ConstraintOp::Ne => 3,
        ConstraintOp::Gt => 4,
        ConstraintOp::Ge => 5,
    }
}

/// The rank of `v` among the sorted variables (its index; every
/// variable of the encoded formula is present).
fn rank(vars: &[u32], v: Var) -> usize {
    vars.binary_search(&v.0).unwrap_or_else(|at| at)
}

/// The bytes of one recorded child range.
fn span(key: &[u8], (start, end): (usize, usize)) -> &[u8] {
    key.get(start..end).unwrap_or_default()
}

/// LEB128: seven bits a byte, low first, high bit set on all but the last.
fn put_varint(out: &mut Vec<u8>, mut v: u128) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A signed integer, zigzag-mapped (0, −1, 1, −2, … ↦ 0, 1, 2, 3, …).
fn put_int(out: &mut Vec<u8>, n: i128) {
    put_varint(out, ((n as u128) << 1) ^ ((n >> 127) as u128));
}

/// The structural form itself: NNF plus order-preserving dense
/// renumbering. Measuring it is bit-identical to measuring `phi` (see the
/// module docs); the batch engine builds it only for the groups it
/// measures.
pub fn renumbered(phi: &QfFormula) -> QfFormula {
    let nnf = phi.nnf();
    let vars: Vec<u32> = nnf.vars().into_iter().map(|v| v.0).collect();
    rename(&nnf, &vars)
}

/// Renames every variable to its rank (order-preserving maps keep
/// graded-lex term order, hence atom structure, intact).
fn rename(f: &QfFormula, vars: &[u32]) -> QfFormula {
    match f {
        QfFormula::True => QfFormula::True,
        QfFormula::False => QfFormula::False,
        QfFormula::Atom(a) => {
            QfFormula::atom(Atom::new(a.poly().map_vars(|v| Var(rank(vars, v) as u32)), a.op()))
        }
        QfFormula::Not(inner) => rename(inner, vars).negated(),
        QfFormula::And(parts) => QfFormula::and(parts.iter().map(|p| rename(p, vars))),
        QfFormula::Or(parts) => QfFormula::or(parts.iter().map(|p| rename(p, vars))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polynomial::Polynomial;

    fn z(i: u32) -> Polynomial {
        Polynomial::var(Var(i))
    }

    fn c(n: i64) -> Polynomial {
        Polynomial::constant(Rational::from_int(n))
    }

    fn atom(p: Polynomial, op: ConstraintOp) -> QfFormula {
        QfFormula::atom(Atom::new(p, op))
    }

    fn key(f: &QfFormula, granularity: Granularity) -> Vec<u8> {
        KeyEncoder::new().encode(f, granularity, Origin::Ground).to_vec()
    }

    fn structural(f: &QfFormula) -> Vec<u8> {
        key(f, Granularity::Structural)
    }

    fn asymptotic(f: &QfFormula) -> Vec<u8> {
        key(f, Granularity::Asymptotic)
    }

    #[test]
    fn renumbering_is_order_preserving() {
        // z5 − z3 < 0 renumbers to z1 − z0 < 0 (rank order kept).
        let f = atom(z(5) - z(3), ConstraintOp::Lt);
        assert_eq!(renumbered(&f), atom(z(1) - z(0), ConstraintOp::Lt));
        assert_eq!(structural(&f), structural(&renumbered(&f)));
    }

    #[test]
    fn null_renaming_shares_structural_key() {
        let a = atom(c(4) * z(2) - c(27), ConstraintOp::Le);
        let b = atom(c(4) * z(9) - c(27), ConstraintOp::Le);
        assert_eq!(structural(&a), structural(&b));
        assert_eq!(renumbered(&a), renumbered(&b));
        // A non-monotone renaming is a different structural form.
        let f = QfFormula::and([atom(z(1), ConstraintOp::Gt), atom(z(0), ConstraintOp::Lt)]);
        let g = QfFormula::and([atom(z(0), ConstraintOp::Gt), atom(z(1), ConstraintOp::Lt)]);
        assert_ne!(structural(&f), structural(&g));
    }

    #[test]
    fn structural_form_preserves_semantics() {
        let f = QfFormula::and([
            atom(z(7) - z(2), ConstraintOp::Lt),
            atom(z(2) * z(7) - c(5), ConstraintOp::Gt),
        ])
        .negated();
        let canon = renumbered(&f);
        // Same semantics under the rank substitution z2 ↦ z0, z7 ↦ z1.
        for (a, b) in [(1.0, 2.0), (3.0, 1.0), (2.0, 4.0), (-1.0, -2.0)] {
            let orig = f.eval_f64(&[0.0, 0.0, a, 0.0, 0.0, 0.0, 0.0, b]);
            let got = canon.eval_f64(&[a, b]);
            assert_eq!(orig, got, "at ({a}, {b})");
        }
    }

    #[test]
    fn asymptotic_key_ignores_constants_and_scales() {
        let a = atom(Polynomial::constant(Rational::new(4, 5)) * z(3) - c(27), ConstraintOp::Le);
        let b = atom(Polynomial::constant(Rational::new(9, 10)) * z(8) - c(31), ConstraintOp::Le);
        assert_eq!(asymptotic(&a), asymptotic(&b));
        // … but the structural keys differ (different coefficients).
        assert_ne!(structural(&a), structural(&b));
        // Leading coefficient signs survive (only magnitudes normalize).
        let c_ = atom(c(-3) * z(0) - c(27), ConstraintOp::Le);
        assert_ne!(asymptotic(&a), asymptotic(&c_));
    }

    #[test]
    fn asymptotic_key_sorts_and_dedups_children() {
        let p = atom(z(0), ConstraintOp::Gt);
        let q = atom(z(1), ConstraintOp::Lt);
        let f = QfFormula::or([p.clone(), q.clone()]);
        let g = QfFormula::or([q.clone(), p.clone(), q]);
        assert_eq!(asymptotic(&f), asymptotic(&g));
        assert_ne!(structural(&f), structural(&g));
    }

    #[test]
    fn asymptotic_key_distinguishes_sign_and_op() {
        let a = atom(z(0), ConstraintOp::Gt);
        let b = atom(c(-1) * z(0), ConstraintOp::Gt);
        let c_ = atom(z(0), ConstraintOp::Ge);
        assert_ne!(asymptotic(&a), asymptotic(&b));
        assert_ne!(asymptotic(&a), asymptotic(&c_));
    }

    #[test]
    fn scale_normalization_preserves_asymptotic_truth() {
        use crate::asymptotic::formula_limit_truth;
        let f = QfFormula::and([
            atom(Polynomial::constant(Rational::new(4, 5)) * z(0) - c(27), ConstraintOp::Le),
            atom(c(3) * z(0) * z(1) - c(8), ConstraintOp::Gt),
        ]);
        let g = QfFormula::and([
            atom(z(0) - c(1), ConstraintOp::Le),
            atom(z(0) * z(1) - c(1), ConstraintOp::Gt),
        ]);
        assert_eq!(asymptotic(&f), asymptotic(&g));
        for dir in [[0.5, 0.5], [-0.5, 0.5], [0.5, -0.5], [-1.0, -1.0], [0.0, 1.0], [1.0, 0.0]] {
            assert_eq!(formula_limit_truth(&f, &dir), formula_limit_truth(&g, &dir), "at {dir:?}");
        }
    }

    #[test]
    fn negations_are_pushed_down_and_flattened() {
        // ¬(z0 < 0) and z0 ≥ 0 share a structural form.
        let a = atom(z(0), ConstraintOp::Lt).negated();
        let b = atom(z(0), ConstraintOp::Ge);
        assert_eq!(structural(&a), structural(&b));
        // x ∧ ¬(y ∨ w) is x ∧ ¬y ∧ ¬w once the negation is pushed down.
        let (x, y, w) = (
            atom(z(0), ConstraintOp::Gt),
            atom(z(1), ConstraintOp::Gt),
            atom(z(2), ConstraintOp::Lt),
        );
        let f = QfFormula::and([x.clone(), QfFormula::or([y.clone(), w.clone()]).negated()]);
        let g = QfFormula::and([x, y.negated(), w.negated()]);
        assert_eq!(structural(&f), structural(&g));
        assert_eq!(renumbered(&f), renumbered(&g));
    }

    #[test]
    fn constants_and_short_connectives_key_as_their_normal_form() {
        let t = structural(&QfFormula::True);
        assert_ne!(t, structural(&QfFormula::False));
        assert_ne!(asymptotic(&QfFormula::True), asymptotic(&QfFormula::False));
        let x = atom(z(3), ConstraintOp::Gt);
        // Built around the smart constructors, which would fold these.
        let nested = QfFormula::And(vec![x.clone(), QfFormula::True]);
        assert_eq!(structural(&nested), structural(&x));
        let single = QfFormula::Or(vec![x.clone()]);
        assert_eq!(asymptotic(&single), asymptotic(&x));
        let constant = QfFormula::Atom(Atom::new(c(-2), ConstraintOp::Lt));
        assert_eq!(structural(&constant), t);
        assert_eq!(structural(&QfFormula::Not(Box::new(QfFormula::False))), t);
    }

    #[test]
    fn tags_keep_granularities_and_origins_apart() {
        // z0 > 0 is already scale-normal: only the tag differs.
        let f = atom(z(0), ConstraintOp::Gt);
        let mut keys: Vec<Vec<u8>> = Vec::new();
        let mut encoder = KeyEncoder::new();
        for origin in [Origin::Ground, Origin::Rewritten] {
            for granularity in [Granularity::Structural, Granularity::Asymptotic] {
                keys.push(encoder.encode(&f, granularity, origin).to_vec());
            }
        }
        for (i, a) in keys.iter().enumerate() {
            for b in keys.iter().skip(i + 1) {
                assert_ne!(a, b);
                assert_eq!(a.get(1..), b.get(1..), "same body");
            }
        }
        assert_eq!(encoder.nodes(), 4, "one node, keyed four times");
    }

    #[test]
    fn an_overflowing_rescale_keys_structurally() {
        // 10³⁰·z0 − 10⁻³⁰·z1 > 0: dividing 10⁻³⁰ by 10³⁰ needs a 10⁶⁰
        // denominator, past i128.
        let big = Rational::new(10i128.pow(30), 1);
        let tiny = Rational::new(1, 10i128.pow(30));
        let f = atom(
            Polynomial::constant(big) * z(0) - Polynomial::constant(tiny) * z(1),
            ConstraintOp::Gt,
        );
        let mut keys = KeyEncoder::new();
        let asym = keys.encode(&f, Granularity::Asymptotic, Origin::Ground).to_vec();
        assert_eq!(asym, structural(&f), "keyed at structural granularity");
        assert_eq!(keys.nodes(), 2, "walked once per granularity");
        // Its doubled twin would share an asymptotic key; the structural
        // keys tell them apart: finer, never wrong.
        let two = Polynomial::constant(Rational::from_int(2));
        let twin = atom(
            two.clone() * (Polynomial::constant(big) * z(0))
                - two * (Polynomial::constant(tiny) * z(1)),
            ConstraintOp::Gt,
        );
        assert_ne!(asym, asymptotic(&twin));
    }
}
