//! Asymptotic truth along directions (Lemmas 8.2–8.4 of the paper).
//!
//! For a quantifier-free formula `φ(z̄)` over ⟨ℝ,+,·,<⟩ and a direction
//! `a ∈ ℝⁿ`, define `f_{φ,a}(k) = [φ(k·a)]`. Lemma 8.2 shows the limit of
//! `f_{φ,a}(k)` as `k → ∞` exists (each atom's polynomial, restricted to a
//! ray, has finitely many sign changes); Lemma 8.4 shows the limit is
//! computable in polynomial time: substitute `z_i := k·a_i`, group each
//! atom by degree in `k`, and read the eventual sign off the
//! highest-degree group with a nonzero value.
//!
//! This module provides both a direct evaluator over [`QfFormula`] and a
//! [`CompiledFormula`] representation for the Monte-Carlo hot loop of the
//! additive scheme (Theorem 8.1): atoms are deduplicated, coefficients are
//! lowered to `f64`, variables are remapped to dense coordinates (which
//! also implements the paper's §9 *partial sampling* optimization — only
//! coordinates that actually occur in `φ` need to be sampled), and each
//! direction is evaluated with short-circuiting and per-atom memoization.

use std::collections::HashMap;

use qarith_numeric::Rational;

use crate::atom::{Atom, ConstraintOp};
use crate::formula::QfFormula;
use crate::polynomial::Polynomial;
use crate::var::Var;

/// The sign of `p(k·a)` for all sufficiently large `k`.
///
/// `p(k·a) = Σ_d c_d(a)·k^d` where `c_d(a)` is the degree-`d` homogeneous
/// component of `p` evaluated at `a`. The eventual sign is the sign of the
/// highest-degree nonzero `c_d(a)`; if all vanish, the restriction to the
/// ray is identically zero and the sign is `0`.
pub fn limit_sign_along(p: &Polynomial, dir: &[f64]) -> i32 {
    if p.is_zero() {
        return 0;
    }
    // One pass over the term map, bucketing per-degree sums — avoids
    // materializing a `Polynomial` per homogeneous component, which
    // dominated the exact evaluators (they call this once per cell/arc).
    // Terms of equal degree are visited in the same (graded) order the
    // component polynomials would store them, and each term is evaluated
    // as `coeff · monomial`, so every per-degree sum is bit-identical to
    // `homogeneous_component(d).eval_f64(dir)`.
    let mut by_degree = vec![0.0f64; p.degree() as usize + 1];
    for (m, c) in p.terms() {
        by_degree[m.degree() as usize] += c.to_f64() * m.eval_f64(dir);
    }
    for v in by_degree.into_iter().rev() {
        if v > 0.0 {
            return 1;
        }
        if v < 0.0 {
            return -1;
        }
        // A nonzero component can still vanish at this particular
        // direction (a measure-zero event for sampled directions); the
        // next lower degree then dominates.
    }
    0
}

/// `lim_{k→∞} [a ⋈ 0 at k·dir]` for a single atom (Lemma 8.4).
pub fn atom_limit_truth(a: &Atom, dir: &[f64]) -> bool {
    a.op().holds(limit_sign_along(a.poly(), dir))
}

/// The limit sign of `p` along **almost every** direction, when exact ℚ
/// bound propagation can determine it; `None` when it cannot.
///
/// The a.e. limit sign is the sign of the top nonzero homogeneous
/// component `h` of `p`: for a.e. direction `a`, `h(a) ≠ 0` (the zero
/// set of a nonzero polynomial is a null set of the sphere) and then
/// [`limit_sign_along`] reads the sign off `h`. Whether that sign is
/// constant is decided by interval propagation over `|aᵢ| ≤ 1` (true on
/// the unit sphere): a monomial with all-even exponents ranges over
/// `[0, 1]`, any other monomial over `[−1, 1]`; scaling by the
/// coefficient and summing bounds `h` from both sides, exactly in ℚ.
/// If the lower bound is ≥ 0 then `h ≥ 0` everywhere, so the a.e. limit
/// sign is `+1` (dually `−1` for an upper bound ≤ 0).
///
/// The propagation is conservative: a `None` only costs a
/// simplification opportunity, never correctness. A `Some` is exact
/// with respect to the direction measure `ν` — replacing `p ⋈ 0` by the
/// constant `⋈`-truth of the returned sign changes the formula's limit
/// truth only on a null set of directions, so `ν` is preserved exactly
/// (the same argument that justifies the equality/disequality
/// elimination of the almost-everywhere simplifier).
pub fn constant_limit_sign(p: &Polynomial) -> Option<i32> {
    if p.is_zero() {
        return Some(0);
    }
    // The top component's terms are exactly the terms of maximal total
    // degree (the representation is canonical: no zero terms are
    // stored), so one filtered pass suffices — this runs per atom in
    // the rewrite pipeline's fold pass, so no intermediate polynomials
    // are materialized.
    let top = p.degree();
    if top == 0 {
        return p.as_constant().map(|c| c.signum());
    }
    let mut low = Rational::ZERO;
    let mut high = Rational::ZERO;
    for (m, c) in p.terms() {
        if m.degree() != top {
            continue;
        }
        let even = m.factors().iter().all(|&(_, e)| e % 2 == 0);
        if even {
            if c.signum() > 0 {
                high += *c;
            } else {
                low += *c;
            }
        } else {
            let a = c.abs();
            low -= a;
            high += a;
        }
    }
    if low.signum() >= 0 {
        Some(1)
    } else if high.signum() <= 0 {
        Some(-1)
    } else {
        None
    }
}

/// The truth of `a` along almost every direction, when
/// [`constant_limit_sign`] determines the sign of its polynomial.
pub fn constant_limit_truth(a: &Atom) -> Option<bool> {
    constant_limit_sign(a.poly()).map(|s| a.op().holds(s))
}

/// `lim_{k→∞} f_{φ,dir}(k)` for a formula (Lemma 8.2 guarantees the limit
/// exists; this computes it without taking limits numerically).
pub fn formula_limit_truth(f: &QfFormula, dir: &[f64]) -> bool {
    match f {
        QfFormula::True => true,
        QfFormula::False => false,
        QfFormula::Atom(a) => atom_limit_truth(a, dir),
        QfFormula::Not(inner) => !formula_limit_truth(inner, dir),
        QfFormula::And(parts) => parts.iter().all(|p| formula_limit_truth(p, dir)),
        QfFormula::Or(parts) => parts.iter().any(|p| formula_limit_truth(p, dir)),
    }
}

/// `f_{φ,a}(k)`: evaluates `φ` at the scaled point `k·dir`. Used in tests
/// to confirm that [`formula_limit_truth`] agrees with large finite `k`.
pub fn eval_at_scaled(f: &QfFormula, dir: &[f64], k: f64) -> bool {
    let point: Vec<f64> = dir.iter().map(|&x| x * k).collect();
    f.eval_f64(&point)
}

/// A monomial lowered for fast evaluation: `(coefficient, [(dense var
/// index, exponent)])`.
type LoweredTerm = (f64, Box<[(u32, u32)]>);

/// `x^e` for the tiny exponents of ground formulas, bit-identical to
/// `x.powi(e as i32)` for finite `x`.
///
/// `powi` with a runtime exponent is a `__powidf2` libcall whose
/// square-and-multiply runs `mul = 1.0; if odd { mul *= a }; a *= a; …`
/// — so `e = 1` yields `1.0·x`, `e = 2` yields `1.0·(x·x)`, `e = 3`
/// yields `(1.0·x)·(x·x)`, `e = 4` yields `1.0·((x·x)·(x·x))`.
/// Multiplying a finite value by `1.0` is exact, and f64 multiplication
/// is commutative, so the inlined products below reproduce those bits
/// exactly while letting LLVM keep the hot loop free of libcalls (and
/// auto-vectorize it in the blocked evaluator).
#[inline(always)]
fn pow_small(x: f64, e: u32) -> f64 {
    match e {
        0 => 1.0,
        1 => x,
        2 => x * x,
        3 => x * (x * x),
        4 => {
            let sq = x * x;
            sq * sq
        }
        _ => x.powi(e as i32),
    }
}

/// An atom lowered for the Monte-Carlo hot loop: homogeneous components in
/// *descending* degree order, each a list of lowered terms.
struct CompiledAtom {
    op: ConstraintOp,
    /// Invariant: components are symbolically nonzero and sorted by
    /// strictly descending degree.
    components: Vec<Vec<LoweredTerm>>,
}

/// Sentinel for a lane whose atom sign is still undecided (the real
/// signs are `-1`, `0`, `1`).
const SIGN_UNDECIDED: i8 = 2;

impl CompiledAtom {
    fn limit_truth(&self, dir: &[f64]) -> bool {
        let mut sign = 0i32;
        for comp in &self.components {
            let mut acc = 0.0f64;
            for (coeff, factors) in comp {
                let mut term = *coeff;
                for &(v, e) in factors.iter() {
                    term *= pow_small(dir[v as usize], e);
                }
                acc += term;
            }
            if acc > 0.0 {
                sign = 1;
                break;
            }
            if acc < 0.0 {
                sign = -1;
                break;
            }
        }
        self.op.holds(sign)
    }

    /// Blockwise twin of [`CompiledAtom::limit_truth`] over `count`
    /// directions in SoA layout (`soa[v * count + j]` is coordinate `v`
    /// of direction `j`). Writes the atom's op-truth per lane into
    /// `out[..count]`.
    ///
    /// Bit-identity with the scalar path: each lane's component sum is
    /// built term by term with the identical association — `term`
    /// starts at the coefficient, multiplies factors left to right, and
    /// is added into an accumulator that starts at `0.0` — and a lane's
    /// sign is frozen by the first component whose sum is nonzero, just
    /// as the scalar `break` freezes it. Components past a lane's
    /// freeze point still compute for that lane (the block has no
    /// per-lane control flow) but their values are discarded, so they
    /// cannot perturb the result.
    fn limit_truth_lanes(
        &self,
        soa: &[f64],
        count: usize,
        term: &mut [f64],
        acc: &mut [f64],
        sign: &mut [i8],
        out: &mut [u8],
    ) {
        sign[..count].fill(SIGN_UNDECIDED);
        for comp in &self.components {
            acc[..count].fill(0.0);
            for (coeff, factors) in comp {
                term[..count].fill(*coeff);
                for &(v, e) in factors.iter() {
                    let row = &soa[v as usize * count..(v as usize + 1) * count];
                    // Hoist the exponent dispatch out of the lane loop:
                    // each arm is a branch-free independent-lane loop
                    // that LLVM auto-vectorizes.
                    match e {
                        1 => {
                            for (t, &x) in term[..count].iter_mut().zip(row) {
                                *t *= x;
                            }
                        }
                        2 => {
                            for (t, &x) in term[..count].iter_mut().zip(row) {
                                *t *= x * x;
                            }
                        }
                        3 => {
                            for (t, &x) in term[..count].iter_mut().zip(row) {
                                *t *= x * (x * x);
                            }
                        }
                        _ => {
                            for (t, &x) in term[..count].iter_mut().zip(row) {
                                *t *= pow_small(x, e);
                            }
                        }
                    }
                }
                // 4-wide manually unrolled accumulate (the pinned
                // stable toolchain has no `std::simd`): independent
                // lanes, so no reassociation — bit-identical to the
                // scalar `acc += term` per lane.
                let mut a4 = acc[..count].chunks_exact_mut(4);
                let mut t4 = term[..count].chunks_exact(4);
                for (a, t) in a4.by_ref().zip(t4.by_ref()) {
                    a[0] += t[0];
                    a[1] += t[1];
                    a[2] += t[2];
                    a[3] += t[3];
                }
                for (a, t) in a4.into_remainder().iter_mut().zip(t4.remainder()) {
                    *a += *t;
                }
            }
            let mut undecided = 0usize;
            for (s, &a) in sign[..count].iter_mut().zip(acc[..count].iter()) {
                if *s == SIGN_UNDECIDED {
                    if a > 0.0 {
                        *s = 1;
                    } else if a < 0.0 {
                        *s = -1;
                    } else {
                        undecided += 1;
                    }
                }
            }
            if undecided == 0 {
                break;
            }
        }
        for (o, &s) in out[..count].iter_mut().zip(sign[..count].iter()) {
            let resolved = if s == SIGN_UNDECIDED { 0 } else { i32::from(s) };
            *o = u8::from(self.op.holds(resolved));
        }
    }
}

/// Reusable scratch for [`CompiledFormula::limit_truth_block`]: every
/// buffer the blocked evaluator needs, allocated once per worker and
/// reused for every block (`kernel_bench`'s allocation check asserts
/// these never reallocate).
pub struct BlockScratch {
    /// Per-lane running product for the current lowered term.
    term: Vec<f64>,
    /// Per-lane accumulator for the current homogeneous component.
    acc: Vec<f64>,
    /// Per-lane resolved sign for the current atom
    /// ([`SIGN_UNDECIDED`] while open).
    sign: Vec<i8>,
    /// `atom_count × capacity` truth table, one row per atom.
    truth: Vec<u8>,
    /// One lane-row per boolean-skeleton depth level (row 0 holds the
    /// root's truth after a block evaluation).
    node_levels: Vec<Vec<u8>>,
    /// Maximum lane count this scratch serves.
    capacity: usize,
}

impl BlockScratch {
    /// Maximum lane count this scratch was allocated for.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Boolean skeleton over deduplicated atom ids.
enum Node {
    True,
    False,
    Atom(u32),
    And(Vec<Node>),
    Or(Vec<Node>),
}

/// A formula compiled for repeated asymptotic evaluation.
///
/// Construction performs, once:
///
/// * NNF conversion (negations absorbed into atoms);
/// * atom deduplication — ground formulas repeat the same comparison for
///   many database tuples, and each unique atom is evaluated at most once
///   per direction;
/// * homogeneous-component extraction per atom (descending degree);
/// * variable densification: the original [`Var`]s are remapped onto
///   `0..dim()`, so direction vectors only carry coordinates that matter
///   (the §9 partial-sampling optimization).
///
/// Per direction, call [`CompiledFormula::limit_truth`] with a scratch
/// memo from [`CompiledFormula::new_memo`].
pub struct CompiledFormula {
    atoms: Vec<CompiledAtom>,
    root: Node,
    /// `vars[i]` is the original variable for dense coordinate `i`.
    vars: Vec<Var>,
}

impl CompiledFormula {
    /// Compiles a formula. The input need not be in NNF.
    pub fn compile(f: &QfFormula) -> CompiledFormula {
        let nnf = f.nnf();
        // Dense variable order: sorted original ids, for determinism.
        let vars: Vec<Var> = nnf.vars().into_iter().collect();
        let dense: HashMap<Var, u32> =
            vars.iter().enumerate().map(|(i, &v)| (v, i as u32)).collect();

        let mut atoms: Vec<CompiledAtom> = Vec::new();
        let mut ids: HashMap<Atom, u32> = HashMap::new();
        let root = Self::build(&nnf, &dense, &mut atoms, &mut ids);
        CompiledFormula { atoms, root, vars }
    }

    fn build(
        f: &QfFormula,
        dense: &HashMap<Var, u32>,
        atoms: &mut Vec<CompiledAtom>,
        ids: &mut HashMap<Atom, u32>,
    ) -> Node {
        match f {
            QfFormula::True => Node::True,
            QfFormula::False => Node::False,
            QfFormula::Not(_) => unreachable!("compile runs on NNF input"),
            QfFormula::Atom(a) => {
                let id = *ids.entry(a.clone()).or_insert_with(|| {
                    atoms.push(Self::lower_atom(a, dense));
                    (atoms.len() - 1) as u32
                });
                Node::Atom(id)
            }
            QfFormula::And(parts) => {
                Node::And(parts.iter().map(|p| Self::build(p, dense, atoms, ids)).collect())
            }
            QfFormula::Or(parts) => {
                Node::Or(parts.iter().map(|p| Self::build(p, dense, atoms, ids)).collect())
            }
        }
    }

    fn lower_atom(a: &Atom, dense: &HashMap<Var, u32>) -> CompiledAtom {
        let p = a.poly();
        let mut components: Vec<Vec<LoweredTerm>> = Vec::new();
        for d in (0..=p.degree()).rev() {
            let comp = p.homogeneous_component(d);
            if comp.is_zero() {
                continue;
            }
            let terms: Vec<LoweredTerm> = comp
                .terms()
                .map(|(m, c)| {
                    let factors: Box<[(u32, u32)]> =
                        m.factors().iter().map(|&(v, e)| (dense[&v], e)).collect();
                    (c.to_f64(), factors)
                })
                .collect();
            components.push(terms);
        }
        CompiledAtom { op: a.op(), components }
    }

    /// Dimension of the dense direction space (number of distinct
    /// variables in the formula).
    pub fn dim(&self) -> usize {
        self.vars.len()
    }

    /// The original variable ids, in dense-coordinate order.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Number of deduplicated atoms.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// Allocates a scratch memo for [`CompiledFormula::limit_truth`].
    pub fn new_memo(&self) -> Vec<i8> {
        vec![-1; self.atoms.len()]
    }

    /// The asymptotic truth of the formula along `dir` (dense
    /// coordinates, length [`CompiledFormula::dim`]).
    ///
    /// `memo` must come from [`CompiledFormula::new_memo`]; it is reset
    /// internally, so one allocation serves all directions.
    pub fn limit_truth(&self, dir: &[f64], memo: &mut [i8]) -> bool {
        debug_assert_eq!(dir.len(), self.vars.len());
        debug_assert_eq!(memo.len(), self.atoms.len());
        memo.fill(-1);
        self.eval_node(&self.root, dir, memo)
    }

    fn eval_node(&self, node: &Node, dir: &[f64], memo: &mut [i8]) -> bool {
        match node {
            Node::True => true,
            Node::False => false,
            Node::Atom(id) => {
                let i = *id as usize;
                match memo[i] {
                    0 => false,
                    1 => true,
                    _ => {
                        let t = self.atoms[i].limit_truth(dir);
                        memo[i] = t as i8;
                        t
                    }
                }
            }
            Node::And(parts) => parts.iter().all(|p| self.eval_node(p, dir, memo)),
            Node::Or(parts) => parts.iter().any(|p| self.eval_node(p, dir, memo)),
        }
    }

    /// Allocates a scratch for [`CompiledFormula::limit_truth_block`]
    /// serving up to `capacity` lanes.
    pub fn new_block_scratch(&self, capacity: usize) -> BlockScratch {
        BlockScratch {
            term: vec![0.0; capacity],
            acc: vec![0.0; capacity],
            sign: vec![0; capacity],
            truth: vec![0; self.atoms.len() * capacity],
            node_levels: vec![vec![0; capacity]; skeleton_depth(&self.root) + 1],
            capacity,
        }
    }

    /// The asymptotic truth of the formula along `count` directions at
    /// once, returning the number of satisfied lanes.
    ///
    /// `soa` is the structure-of-arrays block of
    /// `qarith_geometry::fill_unit_sphere_block`: `soa[v * count + j]`
    /// is dense coordinate `v` of direction `j`, `soa.len() =
    /// dim() * count`. `scratch` comes from
    /// [`CompiledFormula::new_block_scratch`] with `capacity ≥ count`.
    ///
    /// **Bit-identity contract:** for every lane `j`, the result equals
    /// `limit_truth(dir_j, memo)` on the contiguous copy of that
    /// direction. Atom signs reduce per lane with the exact scalar
    /// association (see `CompiledAtom::limit_truth_lanes`); the
    /// boolean skeleton is then evaluated lane-parallel over the
    /// precomputed atom truths (`&=`/`|=` rows, one scratch row per
    /// tree depth) — the scalar walk memoizes and short-circuits, but
    /// an atom's truth is a pure function of the direction and `all` /
    /// `any` equal the bitwise fold, so evaluating every node eagerly
    /// changes no lane's outcome.
    pub fn limit_truth_block(
        &self,
        soa: &[f64],
        count: usize,
        scratch: &mut BlockScratch,
    ) -> usize {
        debug_assert_eq!(soa.len(), self.vars.len() * count);
        assert!(count <= scratch.capacity, "block wider than scratch capacity");
        for (i, atom) in self.atoms.iter().enumerate() {
            let row = &mut scratch.truth[i * count..(i + 1) * count];
            atom.limit_truth_lanes(
                soa,
                count,
                &mut scratch.term,
                &mut scratch.acc,
                &mut scratch.sign,
                row,
            );
        }
        let (root_row, deeper) = scratch.node_levels.split_first_mut().expect("≥ 1 level");
        eval_node_block(&self.root, &scratch.truth, count, deeper, root_row);
        root_row[..count].iter().map(|&b| usize::from(b)).sum()
    }
}

/// Depth of the boolean skeleton: the number of nested And/Or levels
/// (leaves are depth 0). Sizes the per-level scratch rows of
/// [`BlockScratch`].
fn skeleton_depth(node: &Node) -> usize {
    match node {
        Node::True | Node::False | Node::Atom(_) => 0,
        Node::And(parts) | Node::Or(parts) => {
            1 + parts.iter().map(skeleton_depth).max().unwrap_or(0)
        }
    }
}

/// Lane-parallel boolean-skeleton evaluation: writes the subtree's truth
/// per lane into `out[..count]`. Children evaluate into `levels[0]` (one
/// scratch row per depth, so recursion never aliases) and fold into
/// `out` with `&=`/`|=` — branch-free independent-lane loops that LLVM
/// auto-vectorizes. Equal to the scalar short-circuit walk because
/// `all`/`any` over pure per-lane truths are exactly the bitwise folds.
fn eval_node_block(
    node: &Node,
    truth: &[u8],
    count: usize,
    levels: &mut [Vec<u8>],
    out: &mut [u8],
) {
    match node {
        Node::True => out[..count].fill(1),
        Node::False => out[..count].fill(0),
        Node::Atom(id) => {
            let i = *id as usize;
            out[..count].copy_from_slice(&truth[i * count..i * count + count]);
        }
        Node::And(parts) => {
            out[..count].fill(1);
            let (child, deeper) = levels.split_first_mut().expect("depth-sized levels");
            for p in parts {
                eval_node_block(p, truth, count, deeper, child);
                for (o, &c) in out[..count].iter_mut().zip(child[..count].iter()) {
                    *o &= c;
                }
            }
        }
        Node::Or(parts) => {
            out[..count].fill(0);
            let (child, deeper) = levels.split_first_mut().expect("depth-sized levels");
            for p in parts {
                eval_node_block(p, truth, count, deeper, child);
                for (o, &c) in out[..count].iter_mut().zip(child[..count].iter()) {
                    *o |= c;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qarith_numeric::Rational;

    fn z(i: u32) -> Polynomial {
        Polynomial::var(Var(i))
    }

    fn c(n: i64) -> Polynomial {
        Polynomial::constant(Rational::from_int(n))
    }

    fn atom(p: Polynomial, op: ConstraintOp) -> QfFormula {
        QfFormula::atom(Atom::new(p, op))
    }

    #[test]
    fn limit_sign_leading_term_dominates() {
        // p = z0² − 1000·z1: along (1, 1) the quadratic term wins.
        let p = z(0) * z(0) - c(1000) * z(1);
        assert_eq!(limit_sign_along(&p, &[1.0, 1.0]), 1);
        // Along (0, 1) the quadratic component vanishes; −1000·z1 decides.
        assert_eq!(limit_sign_along(&p, &[0.0, 1.0]), -1);
        // Along (0, 0): constant zero.
        assert_eq!(limit_sign_along(&p, &[0.0, 0.0]), 0);
    }

    #[test]
    fn limit_sign_constant_polynomials() {
        assert_eq!(limit_sign_along(&c(5), &[1.0]), 1);
        assert_eq!(limit_sign_along(&c(-5), &[1.0]), -1);
        assert_eq!(limit_sign_along(&Polynomial::zero(), &[1.0]), 0);
    }

    #[test]
    fn constants_ignored_asymptotically() {
        // z0 − 10⁶ > 0: along any positive direction eventually true.
        let p = z(0) - c(1_000_000);
        assert_eq!(limit_sign_along(&p, &[0.001]), 1);
        assert_eq!(limit_sign_along(&p, &[-0.001]), -1);
    }

    #[test]
    fn equality_atoms_need_identically_zero_rays() {
        let eq = Atom::new(z(0) - z(1), ConstraintOp::Eq);
        assert!(atom_limit_truth(&eq, &[1.0, 1.0])); // on the diagonal: 0 ≡ 0
        assert!(!atom_limit_truth(&eq, &[1.0, 2.0]));
        let ne = eq.negated();
        assert!(!atom_limit_truth(&ne, &[1.0, 1.0]));
        assert!(atom_limit_truth(&ne, &[1.0, 2.0]));
    }

    #[test]
    fn limit_matches_large_k_evaluation() {
        // The intro-example constraint: z1 ≥ 0 ∧ z0 ≥ 8 ∧ 0.7·z1 ≥ z0.
        let point7 = Polynomial::constant(Rational::new(7, 10));
        let f = QfFormula::and([
            atom(z(1), ConstraintOp::Ge),
            atom(z(0) - c(8), ConstraintOp::Ge),
            atom(point7 * z(1) - z(0), ConstraintOp::Ge),
        ]);
        let dirs = [[0.5f64, 1.0], [1.0, 1.0], [0.1, 0.9], [-0.3, 0.7], [0.6, 0.65], [0.0, 1.0]];
        for dir in dirs {
            let expected = eval_at_scaled(&f, &dir, 1e9);
            assert_eq!(formula_limit_truth(&f, &dir), expected, "direction {dir:?}");
        }
    }

    #[test]
    fn compiled_matches_interpreter() {
        let f = QfFormula::or([
            QfFormula::and([
                atom(z(0) * z(0) - z(1), ConstraintOp::Lt),
                atom(z(2) + z(0), ConstraintOp::Gt),
            ]),
            atom(z(1) - c(3) * z(2), ConstraintOp::Le).negated(),
        ]);
        let compiled = CompiledFormula::compile(&f);
        assert_eq!(compiled.dim(), 3);
        let mut memo = compiled.new_memo();
        let dirs = [
            [0.3, 0.2, 0.1],
            [-0.5, 0.5, 0.5],
            [1.0, -1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.7, 0.7, -0.7],
        ];
        for dir in dirs {
            assert_eq!(
                compiled.limit_truth(&dir, &mut memo),
                formula_limit_truth(&f, &dir),
                "direction {dir:?}"
            );
        }
    }

    #[test]
    fn compiled_densifies_sparse_vars() {
        // Formula over z5 and z100 compiles to a 2-dimensional direction
        // space — the §9 partial-sampling optimization.
        let f =
            QfFormula::and([atom(z(5), ConstraintOp::Gt), atom(z(100) - z(5), ConstraintOp::Gt)]);
        let compiled = CompiledFormula::compile(&f);
        assert_eq!(compiled.dim(), 2);
        assert_eq!(compiled.vars(), &[Var(5), Var(100)]);
        let mut memo = compiled.new_memo();
        assert!(compiled.limit_truth(&[1.0, 2.0], &mut memo));
        assert!(!compiled.limit_truth(&[2.0, 1.0], &mut memo));
    }

    #[test]
    fn compiled_dedups_repeated_atoms() {
        let a = atom(z(0), ConstraintOp::Gt);
        let f = QfFormula::or([
            QfFormula::and([a.clone(), atom(z(1), ConstraintOp::Gt)]),
            QfFormula::and([a.clone(), atom(z(1), ConstraintOp::Lt)]),
        ]);
        let compiled = CompiledFormula::compile(&f);
        assert_eq!(compiled.atom_count(), 3, "z0>0 appears once after dedup");
    }

    #[test]
    fn compiled_handles_constants() {
        let t = CompiledFormula::compile(&QfFormula::True);
        assert!(t.limit_truth(&[], &mut t.new_memo()));
        let f = CompiledFormula::compile(&QfFormula::False);
        assert!(!f.limit_truth(&[], &mut f.new_memo()));
    }

    #[test]
    fn constant_limit_sign_bound_propagation() {
        // Sums of even powers with uniform coefficient sign are decided.
        assert_eq!(constant_limit_sign(&(z(0) * z(0) + z(1) * z(1))), Some(1));
        assert_eq!(constant_limit_sign(&(c(-2) * z(0) * z(0) - z(1) * z(1))), Some(-1));
        // Constants in lower components are asymptotically irrelevant.
        assert_eq!(constant_limit_sign(&(z(0) * z(0) - c(1_000_000))), Some(1));
        // Mixed even/odd terms stay conservative: z0² + z0z1 + z1² is in
        // fact positive semidefinite, but the interval bound is [−1, 2],
        // so the analysis declines (soundly) to decide it.
        assert_eq!(constant_limit_sign(&(z(0) * z(0) + z(0) * z(1) + z(1) * z(1))), None);
        assert_eq!(constant_limit_sign(&(c(2) * z(0) * z(0) + z(0) * z(1))), None);
        // Odd monomials alone are undecided; zero is decided.
        assert_eq!(constant_limit_sign(&z(0)), None);
        assert_eq!(constant_limit_sign(&Polynomial::zero()), Some(0));
        // Constant polynomials read their own sign.
        assert_eq!(constant_limit_sign(&c(3)), Some(1));
        assert_eq!(constant_limit_sign(&c(-3)), Some(-1));
    }

    #[test]
    fn constant_limit_truth_matches_sampled_directions() {
        let a = Atom::new(z(0) * z(0) + z(1) * z(1) - c(5), ConstraintOp::Gt);
        assert_eq!(constant_limit_truth(&a), Some(true));
        let b = Atom::new(z(0) * z(0) - c(5), ConstraintOp::Le);
        assert_eq!(constant_limit_truth(&b), Some(false));
        for dir in [[0.6, 0.8], [-0.9, 0.1], [0.0, -1.0], [1.0, 0.0]] {
            assert!(atom_limit_truth(&a, &dir), "at {dir:?}");
        }
        // (The a.e. claim: along a null set — here a₀ = 0 — the sign can
        // differ; everywhere else it matches.)
        for dir in [[0.6], [-0.9], [1.0]] {
            assert!(!atom_limit_truth(&b, &dir), "at {dir:?}");
        }
    }

    #[test]
    fn pow_small_matches_powi() {
        // The contract is with the *runtime* `__powidf2` libcall (what a
        // runtime exponent compiles to) — black_box both operands, or in
        // release LLVM const-folds `powi` on these literal inputs to a
        // correctly-rounded value that can differ by 1 ulp from the
        // libcall's square-and-multiply (seen at x=-0.988123, e=4).
        use std::hint::black_box;
        for x in [0.0f64, -0.0, 1.0, -1.0, 0.3071594, -0.988123, 1e-9, -7.25] {
            for e in 0u32..8 {
                let via_powi = black_box(x).powi(black_box(e as i32));
                assert_eq!(pow_small(x, e).to_bits(), via_powi.to_bits(), "x={x} e={e}");
            }
        }
    }

    /// Builds a blockwise SoA copy of `dirs` (count lanes, dim rows).
    fn soa_of(dirs: &[Vec<f64>]) -> (Vec<f64>, usize) {
        let count = dirs.len();
        let dim = dirs.first().map_or(0, Vec::len);
        let mut soa = vec![0.0; dim * count];
        for (j, d) in dirs.iter().enumerate() {
            for (c, &x) in d.iter().enumerate() {
                soa[c * count + j] = x;
            }
        }
        (soa, count)
    }

    #[test]
    fn block_matches_scalar_lane_for_lane() {
        // Mixed ops, shared atoms, a degree-3 term, and nested ∧/∨ —
        // exercises dedup rows, the powi specializations, and the
        // skeleton walk.
        let f = QfFormula::or([
            QfFormula::and([
                atom(z(0) * z(0) - z(1), ConstraintOp::Lt),
                atom(z(2) + z(0), ConstraintOp::Gt),
                atom(z(0) * z(0) * z(0) + z(1) * z(2), ConstraintOp::Ge),
            ]),
            atom(z(1) - c(3) * z(2), ConstraintOp::Le).negated(),
            QfFormula::and([
                atom(z(0) * z(0) - z(1), ConstraintOp::Lt),
                atom(z(2) - z(1), ConstraintOp::Eq),
            ]),
        ]);
        let compiled = CompiledFormula::compile(&f);
        let dirs: Vec<Vec<f64>> = vec![
            vec![0.3, 0.2, 0.1],
            vec![-0.5, 0.5, 0.5],
            vec![1.0, -1.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![0.7, 0.7, -0.7],
            vec![0.25, 0.75, 0.5],
            vec![-0.1, -0.2, -0.3],
        ];
        let mut memo = compiled.new_memo();
        // Run at several widths, including non-multiples of 4 (the
        // unroll remainder) and width 1.
        for width in [1usize, 3, 4, 5, 7] {
            let mut scratch = compiled.new_block_scratch(width);
            for chunk in dirs.chunks(width) {
                let (soa, count) = soa_of(chunk);
                let scalar_hits =
                    chunk.iter().filter(|d| compiled.limit_truth(d, &mut memo)).count();
                assert_eq!(
                    compiled.limit_truth_block(&soa, count, &mut scratch),
                    scalar_hits,
                    "width={width}"
                );
            }
        }
    }

    #[test]
    fn block_handles_constant_formulas() {
        let t = CompiledFormula::compile(&QfFormula::True);
        let mut s = t.new_block_scratch(8);
        assert_eq!(t.limit_truth_block(&[], 8, &mut s), 8);
        let f = CompiledFormula::compile(&QfFormula::False);
        let mut s = f.new_block_scratch(8);
        assert_eq!(f.limit_truth_block(&[], 8, &mut s), 0);
    }

    #[test]
    fn lemma_8_2_monotone_stabilization() {
        // f_{φ,a}(k) must stabilize: check a formula whose truth flips at
        // finite k but settles.  φ: (z0 − 5)·(z0 − 10) > 0 along a = (1).
        let p = (z(0) - c(5)) * (z(0) - c(10));
        let f = atom(p, ConstraintOp::Gt);
        // k = 7: (2)(−3) < 0 → false; k large: true.
        assert!(!eval_at_scaled(&f, &[1.0], 7.0));
        assert!(eval_at_scaled(&f, &[1.0], 100.0));
        assert!(formula_limit_truth(&f, &[1.0]));
    }
}
