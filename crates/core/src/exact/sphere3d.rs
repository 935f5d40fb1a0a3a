//! Exact `ν(φ)` for formulas over ≤ 3 variables whose atoms have
//! *linear or monomial* leading forms, by spherical solid-angle
//! arithmetic.
//!
//! A direction `a` asymptotically satisfies an atom iff the comparison
//! holds for the sign of the atom's **top homogeneous component**
//! (Lemma 8.4, almost everywhere). Two shapes of top component reduce
//! that sign to hyperplane sign vectors:
//!
//! * a **linear form** `n·a` — the sign is hemisphere membership for
//!   the normal `n`;
//! * a **monomial** `c·∏ aᵥ^eᵥ` — the sign is
//!   `sign(c)·∏ sign(aᵥ)^eᵥ`, a ±product over the *coordinate*
//!   hyperplanes with odd exponent. (Monomial tops are what the §9
//!   workload's division elimination produces: cross-multiplied
//!   quantities like `z_i·z_j`.)
//!
//! Either way the formula's a.e. truth depends only on the **sign
//! vector** of finitely many hyperplane normals, so
//!
//! `ν(φ) = Σ_{s satisfying φ} Ω(C_s) / 4π`,
//!
//! where `C_s = {a : sᵢ·(nᵢ·a) > 0}` is an open polyhedral cone and
//! `Ω` its solid angle, computed in closed form:
//!
//! * no effective constraint — `4π`; one — a hemisphere, `2π`;
//! * a cone containing a full line (all normals orthogonal to a common
//!   axis) — `2θ` for the angular measure `θ` of the 2-D cross-section
//!   (the same sweep as the 2-D arc evaluator). Two-variable formulas
//!   are embedded into 3-D with a free third coordinate and land here:
//!   a planar sector of angle `θ` extrudes to a lune of area `2θ`, so
//!   `ν = 2θ/4π = θ/2π` as on the circle;
//! * a pointed full-dimensional cone — the spherical polygon of its
//!   extreme rays via Gauss–Bonnet: `Ω = Σ interior angles − (n−2)π`.
//!
//! Everything combinatorial is **exact**: normals are reduced to
//! primitive integer vectors, extreme-ray candidates are integer cross
//! products, acceptance and degeneracy tests are integer sign tests,
//! and the polygon's interior reference direction is the integer sum of
//! the accepted rays (strictly interior unless the cone is flat, which
//! an exact test catches and scores 0). Only the final angles go
//! through `f64` (`atan2`/`acos`), so the value is exact up to
//! rounding, like the 2-D arc evaluator. Spurious candidate rays that
//! land on a face interior are harmless: their interior angle is `π`,
//! which Gauss–Bonnet cancels against the `(n−2)π` term.
//!
//! The evaluator returns `None` (caller falls back to sampling) on
//! atoms whose top component is neither linear nor a monomial, on
//! arithmetic overflow while reducing to primitive vectors, or on more
//! than [`MAX_NORMALS`] distinct normals (the sign-vector enumeration
//! is `2^k`) — it never guesses.

use qarith_constraints::{ConstraintOp, QfFormula};
use qarith_numeric::{gcd_i128, lcm_i128};

use std::f64::consts::PI;

/// Cap on distinct (undirected) hyperplane normals: `2^k` cones are
/// enumerated, and each adds a row to the exact sign tables.
pub const MAX_NORMALS: usize = 10;

/// Boolean skeleton over atom slots. Each atom's a.e. sign is
/// `base_sign · ∏ s[j]` over its odd-parity normals: one entry for a
/// linear top form, the odd-exponent coordinate axes for a monomial
/// top.
enum Node {
    True,
    False,
    Atom { base_sign: i8, odd_normals: Vec<usize>, op: ConstraintOp },
    And(Vec<Node>),
    Or(Vec<Node>),
}

impl Node {
    /// A.e. truth of the formula on the open cone with sign vector `s`
    /// (`s[j]` is the sign of `n_j · a` for the undirected normal `j`).
    fn truth(&self, s: &[i8]) -> bool {
        match self {
            Node::True => true,
            Node::False => false,
            Node::Atom { base_sign, odd_normals, op } => {
                let mut sign = *base_sign as i32;
                for &j in odd_normals {
                    sign *= s[j] as i32;
                }
                op.holds(sign)
            }
            Node::And(parts) => parts.iter().all(|p| p.truth(s)),
            Node::Or(parts) => parts.iter().any(|p| p.truth(s)),
        }
    }
}

/// Exact spherical measure of a ≤3-variable formula with linear or
/// monomial top components, or `None` when this evaluator declines (see
/// module docs). Callers ensure `phi.vars().len() ≤ 3`; formulas over
/// fewer variables are embedded with free coordinates.
pub fn exact_sphere_measure(phi: &QfFormula) -> Option<f64> {
    if phi.vars().len() > 3 {
        return None;
    }
    let dense = super::densify(phi);

    // Reduce every atom to signed primitive integer normals; dedup
    // normals up to sign (the canonical representative has its first
    // nonzero component positive; flips fold into the atom's base
    // sign).
    let mut normals: Vec<[i128; 3]> = Vec::new();
    let skeleton = build(&dense, &mut normals)?;
    if normals.len() > MAX_NORMALS {
        return None;
    }
    let k = normals.len();
    if k == 0 {
        // No variable atoms survived — the formula is constant a.e.
        return Some(if skeleton.truth(&[]) { 1.0 } else { 0.0 });
    }

    // Extreme-ray candidates: pairwise cross products, both directions,
    // deduplicated as primitive vectors — plus, when the normals leave a
    // common orthogonal line (k == 1, or 2-D embeddings never do), the
    // single-constraint case below handles it. For each candidate, the
    // exact sign of its dot product with every normal.
    let mut rays: Vec<[i128; 3]> = Vec::new();
    for i in 0..k {
        for j in i + 1..k {
            let c = cross(&normals[i], &normals[j])?;
            if c == [0, 0, 0] {
                continue; // distinct primitives are never parallel, but stay total
            }
            let c = primitive(c)?;
            for cand in [c, neg(&c)] {
                if !rays.contains(&cand) {
                    rays.push(cand);
                }
            }
        }
    }
    let signs: Vec<Vec<i8>> = rays
        .iter()
        .map(|r| normals.iter().map(|n| dot(n, r).map(sign_of)).collect::<Option<Vec<i8>>>())
        .collect::<Option<_>>()?;
    let units: Vec<[f64; 3]> = rays.iter().map(unit).collect();

    // Enumerate sign vectors; sum solid angles of satisfying cones.
    let mut total = 0.0f64;
    let mut s = vec![1i8; k];
    for mask in 0..(1u32 << k) {
        for (j, slot) in s.iter_mut().enumerate() {
            *slot = if mask & (1 << j) == 0 { 1 } else { -1 };
        }
        if !skeleton.truth(&s) {
            continue;
        }
        total += cone_solid_angle(&normals, &s, &rays, &signs, &units)?;
    }
    Some((total / (4.0 * PI)).clamp(0.0, 1.0))
}

/// Solid angle of the open cone `{a : s_l·(n_l·a) > 0 ∀l}`, using the
/// precomputed candidate rays and their exact dot-product signs.
fn cone_solid_angle(
    normals: &[[i128; 3]],
    s: &[i8],
    rays: &[[i128; 3]],
    signs: &[Vec<i8>],
    units: &[[f64; 3]],
) -> Option<f64> {
    let k = normals.len();
    if k == 1 {
        return Some(2.0 * PI); // a single hemisphere
    }

    // Accepted rays: every signed constraint weakly satisfied.
    let accepted: Vec<usize> = (0..rays.len())
        .filter(|&r| (0..k).all(|l| s[l] as i32 * signs[r][l] as i32 >= 0))
        .collect();
    if accepted.is_empty() {
        return Some(0.0); // infeasible sign pattern
    }

    // A ray accepted together with its antipode forces every normal
    // orthogonal to it: the cone contains the full line, and its solid
    // angle is twice the angular measure of the 2-D cross-section.
    if let Some(&axis) =
        accepted.iter().find(|&&r| accepted.iter().any(|&r2| rays[r2] == neg(&rays[r])))
    {
        return Some(2.0 * cross_section_angle(normals, s, &units[axis]));
    }

    if accepted.len() < 3 {
        return Some(0.0); // a full-dimensional pointed cone has ≥ 3 extreme rays
    }

    // Exact interior reference direction: the integer sum of the
    // accepted rays is a conic combination, so `n_l·m ≥ 0` throughout;
    // equality for some constraint means every accepted ray lies on
    // that facet — a flat cone of measure zero.
    let mut m = [0i128; 3];
    for &r in &accepted {
        m = [
            m[0].checked_add(rays[r][0])?,
            m[1].checked_add(rays[r][1])?,
            m[2].checked_add(rays[r][2])?,
        ];
    }
    if m == [0, 0, 0] {
        return Some(0.0); // rays cancel: degenerate (non-pointed handled above)
    }
    for l in 0..k {
        if s[l] as i128 * dot(&normals[l], &m)? == 0 {
            return Some(0.0);
        }
    }

    // Azimuthal order around the interior axis is the boundary order of
    // the convex spherical polygon; apply Gauss–Bonnet.
    let axis = unit(&m);
    let (e1, e2) = basis_perp(&axis);
    let mut ordered: Vec<(f64, usize)> = accepted
        .iter()
        .map(|&r| {
            let v = &units[r];
            (dot_f64(v, &e2).atan2(dot_f64(v, &e1)), r)
        })
        .collect();
    ordered.sort_by(|a, b| a.0.total_cmp(&b.0));

    let n = ordered.len();
    let mut angle_sum = 0.0;
    for i in 0..n {
        let prev = &units[ordered[(i + n - 1) % n].1];
        let here = &units[ordered[i].1];
        let next = &units[ordered[(i + 1) % n].1];
        angle_sum += interior_angle(prev, here, next)?;
    }
    Some((angle_sum - (n as f64 - 2.0) * PI).max(0.0))
}

/// Angular measure of `{φ : s_l·(n_l·u(φ)) > 0 ∀l}` on the unit circle
/// of the plane orthogonal to `axis` (all normals are orthogonal to the
/// axis here, so the constraints are genuinely 2-D). Same sweep as the
/// 2-D arc evaluator: cut at every constraint boundary, test midpoints.
fn cross_section_angle(normals: &[[i128; 3]], s: &[i8], axis: &[f64; 3]) -> f64 {
    let (e1, e2) = basis_perp(axis);
    let planar: Vec<[f64; 2]> = normals
        .iter()
        .zip(s)
        .map(|(n, &si)| {
            let nf = [n[0] as f64, n[1] as f64, n[2] as f64];
            [si as f64 * dot_f64(&nf, &e1), si as f64 * dot_f64(&nf, &e2)]
        })
        .collect();
    let mut cuts: Vec<f64> = Vec::with_capacity(2 * planar.len() + 1);
    for p in &planar {
        let theta = (-p[0]).atan2(p[1]);
        for t in [theta, theta + PI] {
            cuts.push(t.rem_euclid(2.0 * PI));
        }
    }
    cuts.push(0.0);
    cuts.sort_by(f64::total_cmp);
    cuts.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    let tau = 2.0 * PI;
    let mut satisfied = 0.0;
    for i in 0..cuts.len() {
        let start = cuts[i];
        let end = if i + 1 < cuts.len() { cuts[i + 1] } else { cuts[0] + tau };
        let mid = 0.5 * (start + end);
        let dir = [mid.cos(), mid.sin()];
        if planar.iter().all(|p| p[0] * dir[0] + p[1] * dir[1] > 0.0) {
            satisfied += end - start;
        }
    }
    satisfied
}

/// Lowers the formula onto deduplicated primitive normals. `None` when
/// an atom's top component is neither linear nor a monomial, or on
/// overflow.
fn build(f: &QfFormula, normals: &mut Vec<[i128; 3]>) -> Option<Node> {
    Some(match f {
        QfFormula::True => Node::True,
        QfFormula::False => Node::False,
        // Negations push down onto atoms (the NNF of a negation has none
        // at its root).
        QfFormula::Not(_) => return build(&f.nnf(), normals),
        QfFormula::Atom(a) => {
            let top = a.poly().degree();
            if top == 0 {
                // Constant atoms fold at construction; stay total.
                let c = a.poly().as_constant()?;
                return Some(if a.op().holds(c.signum()) { Node::True } else { Node::False });
            }
            if top == 1 {
                // Linear top component: one general hyperplane normal.
                let mut v = [0i128; 3];
                let mut lcm: i128 = 1;
                for (_, c) in a.poly().terms().filter(|(m, _)| m.degree() == 1) {
                    lcm = lcm_i128(lcm, c.denom())?;
                }
                for (m, c) in a.poly().terms().filter(|(m, _)| m.degree() == 1) {
                    let (var, _) = m.factors()[0];
                    v[var.index()] = c.numer().checked_mul(lcm / c.denom())?;
                }
                let p = primitive(v)?;
                let canonical = canonical_sign(&p);
                let flipped = canonical != p;
                let normal = intern(normals, canonical);
                Node::Atom {
                    base_sign: if flipped { -1 } else { 1 },
                    odd_normals: vec![normal],
                    op: a.op(),
                }
            } else {
                // Monomial top component: sign(c)·∏ sign(aᵥ)^eᵥ over the
                // coordinate hyperplanes with odd exponent.
                let mut tops = a.poly().terms().filter(|(m, _)| m.degree() == top);
                let (mono, coeff) = tops.next()?;
                if tops.next().is_some() {
                    return None; // multi-term top component: not this evaluator's case
                }
                let mut odd_normals = Vec::new();
                for &(var, e) in mono.factors() {
                    if e % 2 == 1 {
                        let mut axis = [0i128; 3];
                        axis[var.index()] = 1;
                        odd_normals.push(intern(normals, axis));
                    }
                }
                Node::Atom { base_sign: coeff.signum() as i8, odd_normals, op: a.op() }
            }
        }
        QfFormula::And(parts) => {
            Node::And(parts.iter().map(|p| build(p, normals)).collect::<Option<_>>()?)
        }
        QfFormula::Or(parts) => {
            Node::Or(parts.iter().map(|p| build(p, normals)).collect::<Option<_>>()?)
        }
    })
}

fn intern(normals: &mut Vec<[i128; 3]>, n: [i128; 3]) -> usize {
    match normals.iter().position(|x| *x == n) {
        Some(i) => i,
        None => {
            normals.push(n);
            normals.len() - 1
        }
    }
}

fn primitive(v: [i128; 3]) -> Option<[i128; 3]> {
    let g = gcd_i128(gcd_i128(v[0].checked_abs()?, v[1].checked_abs()?), v[2].checked_abs()?);
    if g == 0 {
        return Some(v);
    }
    Some([v[0] / g, v[1] / g, v[2] / g])
}

/// First nonzero component positive.
fn canonical_sign(v: &[i128; 3]) -> [i128; 3] {
    match v.iter().find(|&&x| x != 0) {
        Some(&x) if x < 0 => neg(v),
        _ => *v,
    }
}

fn neg(v: &[i128; 3]) -> [i128; 3] {
    [-v[0], -v[1], -v[2]]
}

fn cross(a: &[i128; 3], b: &[i128; 3]) -> Option<[i128; 3]> {
    Some([
        a[1].checked_mul(b[2])?.checked_sub(a[2].checked_mul(b[1])?)?,
        a[2].checked_mul(b[0])?.checked_sub(a[0].checked_mul(b[2])?)?,
        a[0].checked_mul(b[1])?.checked_sub(a[1].checked_mul(b[0])?)?,
    ])
}

fn dot(a: &[i128; 3], b: &[i128; 3]) -> Option<i128> {
    a[0].checked_mul(b[0])?
        .checked_add(a[1].checked_mul(b[1])?)?
        .checked_add(a[2].checked_mul(b[2])?)
}

fn sign_of(x: i128) -> i8 {
    match x.cmp(&0) {
        std::cmp::Ordering::Less => -1,
        std::cmp::Ordering::Equal => 0,
        std::cmp::Ordering::Greater => 1,
    }
}

fn unit(v: &[i128; 3]) -> [f64; 3] {
    let f = [v[0] as f64, v[1] as f64, v[2] as f64];
    let n = (f[0] * f[0] + f[1] * f[1] + f[2] * f[2]).sqrt();
    [f[0] / n, f[1] / n, f[2] / n]
}

fn unit_f64(v: &[f64; 3]) -> Option<[f64; 3]> {
    let n = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
    if n < 1e-12 {
        return None;
    }
    Some([v[0] / n, v[1] / n, v[2] / n])
}

fn dot_f64(a: &[f64; 3], b: &[f64; 3]) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

/// An orthonormal basis of the plane orthogonal to `m`.
fn basis_perp(m: &[f64; 3]) -> ([f64; 3], [f64; 3]) {
    let pick = if m[0].abs() < 0.9 { [1.0, 0.0, 0.0] } else { [0.0, 1.0, 0.0] };
    let d = dot_f64(&pick, m);
    let e1 = unit_f64(&[pick[0] - d * m[0], pick[1] - d * m[1], pick[2] - d * m[2]])
        .expect("pick is not parallel to m");
    let e2 =
        [m[1] * e1[2] - m[2] * e1[1], m[2] * e1[0] - m[0] * e1[2], m[0] * e1[1] - m[1] * e1[0]];
    (e1, e2)
}

/// Interior angle of the spherical polygon at `here`, between the great
/// circle arcs toward `prev` and `next`.
fn interior_angle(prev: &[f64; 3], here: &[f64; 3], next: &[f64; 3]) -> Option<f64> {
    let tangent = |to: &[f64; 3]| {
        let d = dot_f64(to, here);
        unit_f64(&[to[0] - d * here[0], to[1] - d * here[1], to[2] - d * here[2]])
    };
    let t1 = tangent(prev)?;
    let t2 = tangent(next)?;
    Some(dot_f64(&t1, &t2).clamp(-1.0, 1.0).acos())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qarith_constraints::{Atom, Polynomial, Var};
    use qarith_numeric::Rational;

    fn z(i: u32) -> Polynomial {
        Polynomial::var(Var(i))
    }

    fn atom(p: Polynomial, op: ConstraintOp) -> QfFormula {
        QfFormula::atom(Atom::new(p, op))
    }

    fn close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn octant_is_one_eighth() {
        let f = QfFormula::and([
            atom(z(0), ConstraintOp::Gt),
            atom(z(1), ConstraintOp::Gt),
            atom(z(2), ConstraintOp::Gt),
        ]);
        close(exact_sphere_measure(&f).unwrap(), 0.125);
    }

    #[test]
    fn negated_connectives_are_pushed_down() {
        // ¬(octant): everything but one eighth of the sphere.
        let octant = QfFormula::and([
            atom(z(0), ConstraintOp::Gt),
            atom(z(1), ConstraintOp::Gt),
            atom(z(2), ConstraintOp::Gt),
        ]);
        close(exact_sphere_measure(&octant.negated()).unwrap(), 7.0 / 8.0);
    }

    #[test]
    fn hemisphere_and_wedges() {
        // One constraint: a hemisphere.
        let h = atom(z(0) + z(1) + z(2), ConstraintOp::Gt);
        close(exact_sphere_measure(&h).unwrap(), 0.5);
        // Two constraints: the planes x = 0 and y = 0 meet at right
        // angles — a quarter sphere.
        let lune = QfFormula::and([atom(z(0), ConstraintOp::Gt), atom(z(1), ConstraintOp::Gt)]);
        close(exact_sphere_measure(&lune).unwrap(), 0.25);
    }

    #[test]
    fn ordering_cone_matches_cell_count() {
        // z0 < z1 < z2: one of 3! orderings, sign-symmetric: ν = 1/6.
        let f = QfFormula::and([
            atom(z(1) - z(0), ConstraintOp::Gt),
            atom(z(2) - z(1), ConstraintOp::Gt),
        ]);
        close(exact_sphere_measure(&f).unwrap(), 1.0 / 6.0);
    }

    #[test]
    fn two_variable_embedding_matches_arcs() {
        // (z0 > 5) ∨ (z1 > 7): complement product 1 − 1/4 (constants
        // vanish asymptotically). Two variables embed with a free axis.
        let f = QfFormula::or([
            atom(z(0) - Polynomial::constant(Rational::from_int(5)), ConstraintOp::Gt),
            atom(z(1) - Polynomial::constant(Rational::from_int(7)), ConstraintOp::Gt),
        ]);
        close(exact_sphere_measure(&f).unwrap(), 0.75);
        // Against the 2-D arc evaluator on a generic linear formula.
        let g = QfFormula::and([
            atom(z(0) - Polynomial::constant(Rational::new(7, 10)) * z(1), ConstraintOp::Le),
            atom(z(1), ConstraintOp::Ge),
        ]);
        close(exact_sphere_measure(&g).unwrap(), crate::exact::arcs2d::exact_arc_measure(&g));
    }

    #[test]
    fn monomial_tops_reduce_to_coordinate_signs() {
        // z0·z1 > 0: two quadrants of four — ν = 1/2; embedded or not.
        let f = atom(z(0) * z(1), ConstraintOp::Gt);
        close(exact_sphere_measure(&f).unwrap(), 0.5);
        // c − z0·z1 ≥ 0 (a §9 division-elimination shape): a.e. truth is
        // z0·z1 < 0 … ⇝ sign(−z0z1) ≥ 0 a.e. ⇝ ν = 1/2.
        let g = atom(
            Polynomial::constant(Rational::new(29, 10))
                - Polynomial::constant(Rational::new(8, 5)) * z(0) * z(1),
            ConstraintOp::Ge,
        );
        close(exact_sphere_measure(&g).unwrap(), 0.5);
        // Mixed linear and monomial atoms: (z0·z1 > 0) ∧ (z2 > 0) — the
        // factors are independent: 1/2 · 1/2.
        let h = QfFormula::and([atom(z(0) * z(1), ConstraintOp::Gt), atom(z(2), ConstraintOp::Gt)]);
        close(exact_sphere_measure(&h).unwrap(), 0.25);
        // Odd square exponents drop: z0²·z1 > 0 iff z1 > 0 (a.e.).
        let sq = atom(z(0) * z(0) * z(1), ConstraintOp::Gt);
        close(exact_sphere_measure(&sq).unwrap(), 0.5);
    }

    #[test]
    fn mixed_degree_atoms_use_the_top_component() {
        // c·z0 − c'·z1·z2 ≤ 0: the quadratic term decides a.e. — truth
        // iff z1·z2 > 0 … ν = 1/2.
        let f = atom(
            Polynomial::constant(Rational::new(1841, 20)) * z(0)
                - Polynomial::constant(Rational::new(8161, 200)) * z(1) * z(2),
            ConstraintOp::Le,
        );
        close(exact_sphere_measure(&f).unwrap(), 0.5);
    }

    #[test]
    fn sign_vectors_partition_the_sphere() {
        let a = atom(z(0) + z(1), ConstraintOp::Gt);
        let f = QfFormula::or([a.clone(), a.negated()]);
        close(exact_sphere_measure(&f).unwrap(), 1.0);
        let g = QfFormula::or([
            atom(z(0) + z(1) - z(2), ConstraintOp::Ge),
            atom(z(0) + z(1) - z(2), ConstraintOp::Lt),
        ]);
        close(exact_sphere_measure(&g).unwrap(), 1.0);
    }

    #[test]
    fn declines_unsupported_shapes() {
        // Four variables.
        let f = QfFormula::and([
            atom(z(0) + z(1), ConstraintOp::Gt),
            atom(z(2) + z(3), ConstraintOp::Gt),
        ]);
        assert!(exact_sphere_measure(&f).is_none());
        // Multi-term quadratic top component.
        let g = atom(z(0) * z(0) + z(0) * z(1), ConstraintOp::Gt);
        assert!(exact_sphere_measure(&g).is_none());
    }

    #[test]
    fn agrees_with_sampling_on_random_formulas() {
        use qarith_constraints::asymptotic::CompiledFormula;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x3D);
        let mut checked = 0;
        for round in 0..40 {
            let mut atoms = Vec::new();
            for _ in 0..4 {
                let p = if round % 3 == 0 {
                    // Monomial-top shape.
                    Polynomial::constant(Rational::from_int(rng.gen_range(-3i64..=3)))
                        + Polynomial::constant(Rational::from_int(rng.gen_range(1i64..=4)))
                            * z(rng.gen_range(0u32..3))
                            * z(rng.gen_range(0u32..3))
                } else {
                    Polynomial::constant(Rational::from_int(rng.gen_range(-4i64..=4))) * z(0)
                        + Polynomial::constant(Rational::from_int(rng.gen_range(-4i64..=4))) * z(1)
                        + Polynomial::constant(Rational::from_int(rng.gen_range(-4i64..=4))) * z(2)
                        + Polynomial::constant(Rational::from_int(rng.gen_range(-4i64..=4)))
                };
                if p.degree() == 0 {
                    continue;
                }
                let op = if rng.gen_range(0..2) == 0 { ConstraintOp::Gt } else { ConstraintOp::Le };
                atoms.push(atom(p, op));
            }
            if atoms.len() < 2 {
                continue;
            }
            let (head, rest) = atoms.split_first().unwrap();
            let f = QfFormula::or([head.clone(), QfFormula::and(rest.iter().cloned())]);
            let Some(exact) = exact_sphere_measure(&f) else { continue };
            checked += 1;
            let compiled = CompiledFormula::compile(&f);
            let mut memo = compiled.new_memo();
            let mut hits = 0usize;
            let m = 40_000;
            for _ in 0..m {
                let dir = qarith_geometry::sample_unit_sphere(&mut rng, compiled.dim());
                if compiled.limit_truth(&dir, &mut memo) {
                    hits += 1;
                }
            }
            let sampled = hits as f64 / m as f64;
            assert!((exact - sampled).abs() < 0.02, "exact {exact} vs sampled {sampled} on {f}");
        }
        assert!(checked >= 10, "only {checked} formulas exercised the evaluator");
    }
}
