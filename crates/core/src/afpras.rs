//! The additive FPRAS of Theorem 8.1.
//!
//! `ν(φ)` equals the probability that a direction `a`, uniform on the
//! unit sphere, satisfies `lim_{k→∞} f_{φ,a}(k) = 1` (Lemma 8.3; sphere
//! vs ball is immaterial since the limit only depends on the direction).
//! The scheme samples `m` directions, tests the limit with the
//! polynomial-time procedure of Lemma 8.4 (leading-coefficient analysis,
//! implemented by [`CompiledFormula`]), and returns the sample mean. By
//! Hoeffding, `m ≥ ln(2/δ)/(2ε²)` gives `|est − ν(φ)| < ε` with
//! probability `≥ 1 − δ`; the paper's `m ≥ ε⁻²` with δ = 1/4 is available
//! as a compatibility switch.
//!
//! Two of the paper's §9 implementation notes are reproduced faithfully:
//!
//! * **partial-vector sampling** — only the coordinates of nulls that
//!   occur in `φ` are sampled (the projection of a uniform sphere vector
//!   onto a coordinate subspace is uniform on the sub-sphere after
//!   rescaling, and the asymptotic test ignores scale), which is the
//!   optimization the paper credits for its practical speed;
//! * the Gaussian-normalization sampler of \[8\].
//!
//! Sampling is optionally parallelized across threads with
//! `std::thread::scope`; each worker owns a deterministically-derived
//! RNG, so results are reproducible for a fixed seed and thread count.

use qarith_constraints::asymptotic::CompiledFormula;
use qarith_constraints::QfFormula;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::MeasureError;
use crate::estimate::{CertaintyEstimate, Method};

/// How many directions to draw.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SampleCount {
    /// Hoeffding-calibrated: `m = ⌈ln(2/δ) / (2ε²)⌉`.
    Hoeffding,
    /// The paper's §8 prescription: `m = ⌈ε⁻²⌉` (with δ fixed at 1/4).
    Paper,
    /// An explicit sample count (ablation experiments).
    Fixed(usize),
}

/// Options for the additive scheme.
#[derive(Clone, Debug)]
pub struct AfprasOptions {
    /// Additive error ε ∈ (0, 1].
    pub epsilon: f64,
    /// Failure probability δ ∈ (0, 1).
    pub delta: f64,
    /// Sample-count policy.
    pub samples: SampleCount,
    /// RNG seed (runs are deterministic given seed and thread count).
    pub seed: u64,
    /// Worker threads (1 = sequential).
    pub threads: usize,
    /// Ablation switch: when `Some(n)`, sample full `n`-dimensional
    /// direction vectors and project onto the formula's coordinates —
    /// the unoptimized strategy the paper's §9 explicitly moved away
    /// from. `None` (default) samples only the needed coordinates.
    pub full_dimension: Option<usize>,
}

impl Default for AfprasOptions {
    fn default() -> Self {
        AfprasOptions {
            epsilon: 0.05,
            delta: 0.25,
            samples: SampleCount::Hoeffding,
            seed: 0xA1B2_C3D4,
            threads: 1,
            full_dimension: None,
        }
    }
}

impl AfprasOptions {
    /// Convenience: a given ε with the remaining defaults.
    pub fn with_epsilon(epsilon: f64) -> AfprasOptions {
        AfprasOptions { epsilon, ..AfprasOptions::default() }
    }

    /// The number of directions this configuration draws.
    pub fn sample_count(&self) -> usize {
        match self.samples {
            SampleCount::Hoeffding => {
                ((2.0 / self.delta).ln() / (2.0 * self.epsilon * self.epsilon)).ceil() as usize
            }
            SampleCount::Paper => (1.0 / (self.epsilon * self.epsilon)).ceil() as usize,
            SampleCount::Fixed(n) => n,
        }
        .max(1)
    }

    /// Checks the tolerances; every sampling entry point rejects a
    /// configuration that fails this before drawing anything.
    pub(crate) fn validate(&self) -> Result<(), MeasureError> {
        for v in [self.epsilon, self.delta] {
            if !(v > 0.0 && v < 1.0 + 1e-12) {
                return Err(MeasureError::BadTolerance { value: v });
            }
        }
        Ok(())
    }
}

/// Result of an AFPRAS run on a formula.
#[derive(Clone, Debug)]
pub struct AfprasOutcome {
    /// The estimate of `ν(φ)`.
    pub estimate: f64,
    /// Directions drawn.
    pub samples: usize,
    /// Positive (asymptotically satisfied) directions.
    pub hits: usize,
    /// Dimension of the sampled direction space.
    pub dimension: usize,
}

impl AfprasOutcome {
    /// The outcome for `compiled` given its hit count out of `m` drawn
    /// directions. A zero-dimensional formula is decided, not sampled:
    /// its one "hit" is its truth value.
    fn counted(compiled: &CompiledFormula, hits: usize, m: usize) -> AfprasOutcome {
        match compiled.dim() {
            0 => AfprasOutcome { estimate: hits as f64, samples: 0, hits, dimension: 0 },
            dimension => {
                AfprasOutcome { estimate: hits as f64 / m as f64, samples: m, hits, dimension }
            }
        }
    }

    /// The outcome as a [`CertaintyEstimate`] carrying the guarantee of
    /// `opts`, the options that drew it — the one place an AFPRAS run
    /// becomes an estimate.
    pub fn estimate(&self, opts: &AfprasOptions) -> CertaintyEstimate {
        CertaintyEstimate {
            value: self.estimate,
            exact: None,
            method: Method::Afpras,
            epsilon: Some(opts.epsilon),
            delta: Some(opts.delta),
            samples: self.samples,
            dimension: self.dimension,
            cached: false,
            rewritten: false,
        }
    }
}

/// Estimates `ν(φ)` for a quantifier-free formula over the reals.
pub fn estimate_nu(phi: &QfFormula, opts: &AfprasOptions) -> Result<AfprasOutcome, MeasureError> {
    opts.validate()?;
    let compiled = CompiledFormula::compile(phi);
    Ok(estimate_nu_compiled(&compiled, opts))
}

/// Estimates `ν(φ)` for an already-compiled formula (the §9 pipeline
/// compiles once per candidate and reuses across ε values in benches).
pub fn estimate_nu_compiled(compiled: &CompiledFormula, opts: &AfprasOptions) -> AfprasOutcome {
    let mut hits = [0];
    count_hits(&[compiled], opts, &mut hits);
    let [hits] = hits;
    AfprasOutcome::counted(compiled, hits, opts.sample_count())
}

/// Estimates `ν` for a batch of compiled formulas under one option set,
/// sharing direction generation between formulas that sample the same
/// number of coordinates — the "candidates sharing a template" layout
/// of the blocked kernel. Outcomes are returned in input order.
///
/// **Bit-pinning.** The per-formula direction stream is a pure function
/// of `(seed, worker stream, sampled dimension)`: two formulas with the
/// same sampled dimension would draw the *same* directions from their
/// own independent [`estimate_nu_compiled`] calls, coordinate for
/// coordinate. Sharing therefore changes nothing observable — each
/// group fills one SoA block per iteration and evaluates every member
/// formula on it, and every outcome is bit-identical to the
/// formula-at-a-time path (asserted by the
/// `shared_sampling_matches_per_formula_estimates` test and, end to
/// end, by the checked-in certainty baselines). What *does* change is
/// cost: the Gaussian sampling — the dominant term for workload-sized
/// formulas — is paid once per dimension group instead of once per
/// formula.
pub fn estimate_nu_compiled_many(
    formulas: &[&CompiledFormula],
    opts: &AfprasOptions,
) -> Vec<AfprasOutcome> {
    let mut hits = vec![0; formulas.len()];
    count_hits(formulas, opts, &mut hits);
    let m = opts.sample_count();
    formulas.iter().zip(hits).map(|(compiled, h)| AfprasOutcome::counted(compiled, h, m)).collect()
}

/// Writes each formula's hit count into its slot of `hits` (one per
/// formula, in input order): the truth value of a zero-dimensional
/// formula, otherwise the asymptotically satisfied directions among
/// `opts.sample_count()` drawn.
fn count_hits(formulas: &[&CompiledFormula], opts: &AfprasOptions, hits: &mut [usize]) {
    let m = opts.sample_count();

    // Group by the sampled dimension (`rows`): members consume the RNG
    // identically, so they can share blocks. BTreeMap for deterministic
    // group order (the order does not affect results — each group owns
    // fresh RNGs — but determinism everywhere keeps profiles stable).
    let mut groups: std::collections::BTreeMap<usize, Vec<(&CompiledFormula, &mut usize)>> =
        std::collections::BTreeMap::new();
    for (&compiled, slot) in formulas.iter().zip(hits.iter_mut()) {
        let dim = compiled.dim();
        if dim == 0 {
            // Zero-dimensional formulas are decided, not sampled.
            let mut memo = compiled.new_memo();
            *slot = usize::from(compiled.limit_truth(&[], &mut memo));
            continue;
        }
        let rows = match opts.full_dimension {
            None => dim,
            Some(full) => full.max(dim),
        };
        groups.entry(rows).or_default().push((compiled, slot));
    }

    for (rows, members) in groups {
        let group: Vec<&CompiledFormula> = members.iter().map(|(compiled, _)| *compiled).collect();
        let threads = opts.threads.max(1).min(m);
        let counts: Vec<usize> = if threads == 1 {
            shared_worker(&group, rows, opts, 0, m)
        } else {
            let mut counts = vec![vec![0usize; group.len()]; threads];
            let chunk = m / threads;
            let rem = m % threads;
            std::thread::scope(|scope| {
                for (t, slot) in counts.iter_mut().enumerate() {
                    let quota = chunk + usize::from(t < rem);
                    let group = &group;
                    scope.spawn(move || {
                        *slot = shared_worker(group, rows, opts, t as u64 + 1, quota);
                    });
                }
            });
            counts.into_iter().fold(vec![0usize; group.len()], |mut acc, c| {
                for (a, x) in acc.iter_mut().zip(c) {
                    *a += x;
                }
                acc
            })
        };
        for ((_, slot), h) in members.into_iter().zip(counts) {
            *slot = h;
        }
    }
}

/// Directions per block in the worker hot loop. 64 lanes keep the SoA
/// block and the evaluator scratch comfortably in L1 for workload-sized
/// formulas while amortizing loop overhead; the value does not affect
/// results (the RNG is consumed direction-by-direction regardless of
/// how the quota is partitioned into blocks).
const DIRECTION_BLOCK: usize = 256;

/// The blocked worker: draws `quota` directions and counts asymptotic
/// satisfaction for a group of formulas with equal sampled dimension
/// `rows`. A structure-of-arrays block of directions is filled per
/// iteration (`fill_unit_sphere_block`) and evaluated lane-parallel
/// (`limit_truth_block`) by every member, so the Gaussian sampling cost
/// is amortized across the group. All buffers are allocated once per
/// worker — the loop itself is allocation-free. Returns per-formula hit
/// counts, in group order.
///
/// Bit-pinning: the block fill consumes the per-stream RNG
/// direction-by-direction in exactly the order the scalar
/// one-`Vec`-per-draw loop did, and the blocked evaluator is
/// lane-for-lane bit-identical to the scalar `limit_truth`, so hits
/// (and therefore every digest downstream) are unchanged for any
/// (seed, thread count, group composition).
///
/// Ablation (`full_dimension`): sample all |N_num(D)| coordinates, then
/// project. The projection of a uniform sphere vector onto a coordinate
/// subspace points in a uniform direction, so the estimate is identical
/// in distribution — only slower. In SoA layout the projection is the
/// first `dim` coordinate rows of the block, so it costs zero copies
/// (the old scalar path paid a `to_vec()` per sample here).
fn shared_worker(
    group: &[&CompiledFormula],
    rows: usize,
    opts: &AfprasOptions,
    stream: u64,
    quota: usize,
) -> Vec<usize> {
    // Distinct deterministic stream per worker.
    let mut rng =
        StdRng::seed_from_u64(opts.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream + 1)));
    let block = quota.clamp(1, DIRECTION_BLOCK);
    let mut soa = vec![0.0f64; rows * block];
    let mut scratches: Vec<_> = group.iter().map(|c| c.new_block_scratch(block)).collect();
    let mut hits = vec![0usize; group.len()];
    let mut remaining = quota;
    while remaining > 0 {
        let count = remaining.min(block);
        // Only the last block can be narrower; the SoA shrinks to fit it.
        soa.truncate(rows * count);
        qarith_geometry::fill_unit_sphere_block(&mut rng, rows, count, &mut soa);
        for ((compiled, scratch), h) in group.iter().zip(&mut scratches).zip(&mut hits) {
            // analyze: allow(panic-index, reason = "every member's dim is at most `rows`, so its first dim rows lie inside the rows × count block")
            *h += compiled.limit_truth_block(&soa[..compiled.dim() * count], count, scratch);
        }
        remaining -= count;
    }
    hits
}

/// Convenience wrapper producing a [`CertaintyEstimate`].
pub fn afpras_estimate(
    phi: &QfFormula,
    opts: &AfprasOptions,
) -> Result<CertaintyEstimate, MeasureError> {
    Ok(estimate_nu(phi, opts)?.estimate(opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qarith_constraints::{Atom, ConstraintOp, Polynomial, Var};
    use qarith_numeric::Rational;

    fn z(i: u32) -> Polynomial {
        Polynomial::var(Var(i))
    }

    fn atom(p: Polynomial, op: ConstraintOp) -> QfFormula {
        QfFormula::atom(Atom::new(p, op))
    }

    #[test]
    fn sample_count_policies() {
        let mut o =
            AfprasOptions { samples: SampleCount::Paper, ..AfprasOptions::with_epsilon(0.1) };
        assert_eq!(o.sample_count(), 100);
        o.samples = SampleCount::Hoeffding;
        o.delta = 0.25;
        // ln(8)/(2·0.01) ≈ 103.97 → 104.
        assert_eq!(o.sample_count(), 104);
        o.samples = SampleCount::Fixed(7);
        assert_eq!(o.sample_count(), 7);
    }

    #[test]
    fn halfline_measures_one_half() {
        // φ: z0 > 0 ⇒ ν = 1/2.
        let phi = atom(z(0), ConstraintOp::Gt);
        let out = estimate_nu(&phi, &AfprasOptions::with_epsilon(0.02)).unwrap();
        assert!((out.estimate - 0.5).abs() < 0.03, "estimate {}", out.estimate);
        assert_eq!(out.dimension, 1);
    }

    #[test]
    fn quadrant_measures_one_quarter() {
        let phi = QfFormula::and([atom(z(0), ConstraintOp::Gt), atom(z(1), ConstraintOp::Gt)]);
        let out = estimate_nu(&phi, &AfprasOptions::with_epsilon(0.02)).unwrap();
        assert!((out.estimate - 0.25).abs() < 0.03, "estimate {}", out.estimate);
    }

    #[test]
    fn constants_are_asymptotically_irrelevant() {
        // z0 > 10⁶ has the same ν as z0 > 0.
        let phi =
            atom(z(0) - Polynomial::constant(Rational::from_int(1_000_000)), ConstraintOp::Gt);
        let out = estimate_nu(&phi, &AfprasOptions::with_epsilon(0.02)).unwrap();
        assert!((out.estimate - 0.5).abs() < 0.03);
    }

    #[test]
    fn tautologies_and_contradictions() {
        let taut = QfFormula::or([atom(z(0), ConstraintOp::Ge), atom(z(0), ConstraintOp::Lt)]);
        let out = estimate_nu(&taut, &AfprasOptions::with_epsilon(0.05)).unwrap();
        assert_eq!(out.estimate, 1.0);
        let contra = QfFormula::and([atom(z(0), ConstraintOp::Gt), atom(z(0), ConstraintOp::Lt)]);
        let out = estimate_nu(&contra, &AfprasOptions::with_epsilon(0.05)).unwrap();
        assert_eq!(out.estimate, 0.0);
    }

    #[test]
    fn equalities_have_measure_zero() {
        let phi = atom(z(0) - z(1), ConstraintOp::Eq);
        let out = estimate_nu(&phi, &AfprasOptions::with_epsilon(0.05)).unwrap();
        assert_eq!(out.estimate, 0.0);
    }

    #[test]
    fn zero_dimensional_formulas() {
        let t = QfFormula::True;
        assert_eq!(estimate_nu(&t, &AfprasOptions::default()).unwrap().estimate, 1.0);
        let f = QfFormula::False;
        assert_eq!(estimate_nu(&f, &AfprasOptions::default()).unwrap().estimate, 0.0);
    }

    #[test]
    fn parallel_matches_shape() {
        let phi =
            QfFormula::and([atom(z(0), ConstraintOp::Gt), atom(z(1) - z(0), ConstraintOp::Gt)]);
        let mut opts = AfprasOptions::with_epsilon(0.02);
        opts.threads = 4;
        let out = estimate_nu(&phi, &opts).unwrap();
        // P(z0 > 0 ∧ z1 > z0) = 1/2 · 1/2 … no: for iid symmetric
        // directions it is the fraction of orderings with 0 < z0 < z1 =
        // 1/2 (sign of z0) × P(z1 > z0 | z0 > 0)… exact value: cells
        // (z0,z1) with z0 > 0, z1 > z0: probability 1/(2²·0!·2!)·|{π}| =
        // one cell of weight 1/8: ν = 1/8.
        assert!((out.estimate - 0.125).abs() < 0.03, "estimate {}", out.estimate);
    }

    #[test]
    fn full_dimension_ablation_agrees() {
        let phi = QfFormula::and([atom(z(3), ConstraintOp::Gt), atom(z(9), ConstraintOp::Lt)]);
        let mut fast = AfprasOptions::with_epsilon(0.02);
        fast.seed = 99;
        let mut slow = fast.clone();
        slow.full_dimension = Some(50);
        let a = estimate_nu(&phi, &fast).unwrap();
        let b = estimate_nu(&phi, &slow).unwrap();
        assert!((a.estimate - 0.25).abs() < 0.03, "fast {}", a.estimate);
        assert!((b.estimate - 0.25).abs() < 0.03, "slow {}", b.estimate);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let phi = atom(z(0) * z(0) - z(1), ConstraintOp::Lt);
        let opts = AfprasOptions::with_epsilon(0.05);
        let a = estimate_nu(&phi, &opts).unwrap();
        let b = estimate_nu(&phi, &opts).unwrap();
        assert_eq!(a.estimate, b.estimate);
        assert_eq!(a.hits, b.hits);
    }

    #[test]
    fn nonlinear_formula_sanity() {
        // z0² ≤ z1: asymptotically along direction (a0, a1) the z0² term
        // dominates unless a0 = 0 ⇒ satisfied only on the measure-zero
        // set a0 = 0 (with a1 > 0) ⇒ ν = 0.
        let phi = atom(z(0) * z(0) - z(1), ConstraintOp::Le);
        let out = estimate_nu(&phi, &AfprasOptions::with_epsilon(0.03)).unwrap();
        assert_eq!(out.estimate, 0.0);
    }

    #[test]
    fn bad_tolerances_rejected() {
        let phi = QfFormula::True;
        for eps in [0.0, -0.3, 1.5] {
            let o = AfprasOptions { epsilon: eps, ..AfprasOptions::default() };
            assert!(matches!(estimate_nu(&phi, &o), Err(MeasureError::BadTolerance { .. })));
        }
    }

    /// The pre-blocking worker, kept verbatim as a reference: one `Vec`
    /// per draw, scalar evaluation, `to_vec()` projection. The blocked
    /// worker must reproduce its hit count bit-for-bit on every stream.
    fn scalar_reference_worker(
        compiled: &CompiledFormula,
        opts: &AfprasOptions,
        stream: u64,
        quota: usize,
    ) -> usize {
        let mut rng = rand::rngs::StdRng::seed_from_u64(
            opts.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream + 1)),
        );
        let dim = compiled.dim();
        let mut memo = compiled.new_memo();
        let mut hits = 0usize;
        match opts.full_dimension {
            None => {
                for _ in 0..quota {
                    let dir = qarith_geometry::sample_unit_sphere(&mut rng, dim);
                    if compiled.limit_truth(&dir, &mut memo) {
                        hits += 1;
                    }
                }
            }
            Some(full) => {
                let full = full.max(dim);
                for _ in 0..quota {
                    let full_dir = qarith_geometry::sample_unit_sphere(&mut rng, full);
                    let dir: Vec<f64> = full_dir[..dim].to_vec();
                    if compiled.limit_truth(&dir, &mut memo) {
                        hits += 1;
                    }
                }
            }
        }
        hits
    }

    #[test]
    fn shared_sampling_matches_per_formula_estimates() {
        // Mixed dimensions (1, 2, 3, and a repeat of 2), plus a decided
        // zero-dimensional formula: the batched entry point must return
        // exactly what formula-at-a-time calls return, for any thread
        // count and for the full-dimension ablation.
        let formulas = [
            atom(z(0), ConstraintOp::Gt),
            QfFormula::and([atom(z(0), ConstraintOp::Gt), atom(z(1) - z(0), ConstraintOp::Gt)]),
            QfFormula::or([
                atom(z(0) * z(0) - z(1), ConstraintOp::Lt),
                atom(z(1) * z(2), ConstraintOp::Ge),
            ]),
            QfFormula::and([atom(z(3), ConstraintOp::Gt), atom(z(7), ConstraintOp::Lt)]),
            QfFormula::True,
        ];
        let compiled: Vec<CompiledFormula> =
            formulas.iter().map(CompiledFormula::compile).collect();
        let refs: Vec<&CompiledFormula> = compiled.iter().collect();
        for threads in [1usize, 4] {
            for full_dimension in [None, Some(12)] {
                let opts = AfprasOptions {
                    epsilon: 0.05,
                    seed: 0xFEED_BEEF,
                    threads,
                    full_dimension,
                    ..AfprasOptions::default()
                };
                let batched = estimate_nu_compiled_many(&refs, &opts);
                for (c, out) in refs.iter().zip(&batched) {
                    let solo = estimate_nu_compiled(c, &opts);
                    assert_eq!(out.hits, solo.hits, "threads={threads} full={full_dimension:?}");
                    assert_eq!(out.estimate.to_bits(), solo.estimate.to_bits());
                    assert_eq!(out.samples, solo.samples);
                    assert_eq!(out.dimension, solo.dimension);
                }
            }
        }
    }

    #[test]
    fn blocked_worker_matches_scalar_reference_bit_for_bit() {
        let formulas = [
            atom(z(0), ConstraintOp::Gt),
            QfFormula::and([atom(z(0), ConstraintOp::Gt), atom(z(1) - z(0), ConstraintOp::Gt)]),
            QfFormula::or([
                atom(z(0) * z(0) - z(1), ConstraintOp::Lt),
                atom(z(1) * z(2), ConstraintOp::Ge),
            ]),
        ];
        for phi in &formulas {
            let compiled = CompiledFormula::compile(phi);
            for full_dimension in [None, Some(12)] {
                let opts =
                    AfprasOptions { seed: 0xFEED_BEEF, full_dimension, ..AfprasOptions::default() };
                // Quotas straddling the block size: sub-block, exact
                // multiples, and a remainder tail.
                let rows = match full_dimension {
                    None => compiled.dim(),
                    Some(full) => full.max(compiled.dim()),
                };
                for quota in [1usize, 3, 63, 64, 65, 200] {
                    for stream in [0u64, 1, 5] {
                        assert_eq!(
                            shared_worker(&[&compiled], rows, &opts, stream, quota)[0],
                            scalar_reference_worker(&compiled, &opts, stream, quota),
                            "phi={phi:?} quota={quota} stream={stream} full={full_dimension:?}"
                        );
                    }
                }
            }
        }
    }
}
