//! The sampling-kernel microbench behind the `kernel_bench` binary.
//!
//! PR 9 restructured the AFPRAS hot loop — blocked structure-of-arrays
//! direction generation, the lane-parallel `limit_truth_block`
//! evaluator, and template-shared sampling across formulas with equal
//! sampled dimension (`estimate_nu_compiled_many`) — under a hard
//! bit-pinning contract: hits (and therefore every checked-in certainty
//! digest) must be unchanged. This module measures that kernel in
//! isolation, on the real workload's compiled formulas, and reports two
//! things in the `kernel` kind of the one bench document
//! ([`KernelReport::doc`]) that CI gates against a checked-in baseline
//! (`baselines/KERNEL_tiny.json`):
//!
//! * **hits digest** — a deterministic hash over every formula's
//!   (dimension, atom count, hit count). The hit counts are bit-pinned,
//!   so the digest must match *exactly* across machines; any drift is a
//!   kernel regression.
//! * **directions/sec** — blocked-kernel throughput, gated with a
//!   relative tolerance ([`THROUGHPUT_TOLERANCE`]): a microbench timing
//!   a ~6 ms hot loop sees more relative runner noise than the
//!   whole-pipeline gates, hence a wider bound than theirs. The unit is
//!   the quantity every pipeline spends: one (formula, direction)
//!   evaluation — `formulas × directions_per_formula` per pass. Both
//!   sides of the comparison do exactly the same Monte-Carlo work
//!   (identical per-formula hit counts); the blocked side fills one
//!   shared SoA block per dimension group where the scalar reference
//!   re-draws per formula — amortization the per-formula stream
//!   derivation makes invisible to results.
//!
//! Every run also asserts that the hot loop allocates nothing: the SoA
//! block and the evaluator scratch keep their pointer and capacity
//! across the whole run (`#![forbid(unsafe_code)]` rules out a counting
//! allocator, so stability of the owned buffers is the observable).
//!
//! Every run also re-executes the pre-blocking scalar reference (one
//! `Vec` per draw, memoized short-circuit evaluation) and asserts its
//! hit counts equal the blocked kernel's — the bit-identity check runs
//! in-binary on every CI pass, not just in unit tests. The scalar
//! timing is reported (it is the denominator of the speedup table in
//! EXPERIMENTS.md) but not gated: two machine-dependent timings on one
//! side of a ratio would double the gate's noise.

use std::hash::{Hash, Hasher};
use std::time::Instant;

use qarith_core::afpras::{estimate_nu_compiled_many, AfprasOptions, SampleCount};
use qarith_datagen::{QueryFamily, WorkloadScale, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::doc::{BenchDoc, Timing};
use crate::json::Json;
use crate::{CompiledFormula, Fig1Harness};

/// Relative slack written for directions/sec. The gate reads the bound
/// from the baseline, so this seeds newly recorded baselines.
pub const THROUGHPUT_TOLERANCE: f64 = 0.25;

/// Configuration of one kernel run.
#[derive(Clone, Debug)]
pub struct KernelConfig {
    /// Database scale (the formulas come from the full workload at this
    /// scale: every family, every query, every uncertain candidate).
    pub scale: WorkloadScale,
    /// Generation + sampling seed.
    pub seed: u64,
    /// Directions drawn per formula.
    pub directions: usize,
    /// Timed repetitions; the recorded time is the minimum (noise only
    /// ever adds). Must be ≥ 1.
    pub reps: usize,
}

impl KernelConfig {
    /// The default configuration at a scale: the suite's seed, 4096
    /// directions per formula (≈ the ε = 0.016 sample count, deep into
    /// the hot loop's steady state), 3 reps.
    pub fn default_for(scale: WorkloadScale) -> KernelConfig {
        KernelConfig { scale, seed: 2020, directions: 4096, reps: 3 }
    }
}

/// One kernel run, as `kernel_bench` prints it;
/// [`KernelReport::doc`] is its gated document.
#[derive(Clone, Debug)]
pub struct KernelReport {
    /// Scale name.
    pub scale: String,
    /// Seed.
    pub seed: u64,
    /// Timed repetitions (min-of-reps timing).
    pub reps: u64,
    /// Compiled formulas measured (uncertain candidates with ≥ 1
    /// sampled coordinate, across all families and queries).
    pub formulas: u64,
    /// Largest direction-space dimension among them.
    pub max_dim: u64,
    /// Total deduplicated atoms across them.
    pub atoms: u64,
    /// Directions drawn per formula.
    pub directions_per_formula: u64,
    /// Total directions per timed rep (`formulas ×
    /// directions_per_formula`).
    pub directions_total: u64,
    /// Deterministic hex digest over every formula's (dim, atoms,
    /// hits). Bit-pinned: must match the baseline exactly.
    pub hits_digest: String,
    /// Blocked-kernel seconds for one pass over all formulas (min over
    /// reps).
    pub blocked_seconds: f64,
    /// Scalar-reference seconds for the same pass (min over reps).
    pub scalar_seconds: f64,
    /// `directions_total / blocked_seconds` — the gated throughput.
    pub directions_per_sec: f64,
    /// `directions_total / scalar_seconds` (informational).
    pub scalar_directions_per_sec: f64,
    /// `scalar_seconds / blocked_seconds` (informational).
    pub speedup: f64,
}

/// The workload's compiled formulas at a scale: one shared generated
/// database, every family's queries executed, the uncertain candidates'
/// compiled formulas collected in deterministic (family, query,
/// candidate) order. Zero-dimensional formulas are dropped — the
/// estimator decides them without sampling, so they never reach the
/// kernel.
fn workload_formulas(config: &KernelConfig) -> Vec<CompiledFormula> {
    let db = qarith_datagen::sales::sales_database(&config.scale.params(), config.seed);
    let mut formulas = Vec::new();
    for family in QueryFamily::all() {
        let spec = WorkloadSpec { scale: config.scale, family, seed: config.seed };
        let workload = qarith_datagen::Workload { spec, db: db.clone(), queries: family.queries() };
        let harness = Fig1Harness::from_workload(workload);
        for q in harness.queries {
            formulas.extend(q.compiled.into_iter().filter(|c| c.dim() > 0));
        }
    }
    formulas
}

/// The pre-blocking AFPRAS worker, kept verbatim as the measurement
/// reference: one `Vec` per draw, memoized scalar evaluation. Stream 0,
/// like the single-threaded blocked path.
fn scalar_reference_hits(compiled: &CompiledFormula, seed: u64, quota: usize) -> usize {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15u64);
    let dim = compiled.dim();
    let mut memo = compiled.new_memo();
    let mut hits = 0usize;
    for _ in 0..quota {
        let dir = qarith_geometry::sample_unit_sphere(&mut rng, dim);
        if compiled.limit_truth(&dir, &mut memo) {
            hits += 1;
        }
    }
    hits
}

/// Drives the blocked hot loop directly and asserts it never
/// reallocates: the SoA block keeps its pointer and capacity, the
/// evaluator scratch keeps its capacity, across every iteration.
fn assert_hot_loop_allocation_free(compiled: &CompiledFormula, seed: u64, quota: usize) {
    const BLOCK: usize = 64;
    let dim = compiled.dim();
    let block = quota.clamp(1, BLOCK);
    let mut soa = vec![0.0f64; dim * block];
    let mut scratch = compiled.new_block_scratch(block);
    let ptr = soa.as_ptr();
    let (cap, scratch_cap) = (soa.capacity(), scratch.capacity());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15u64);
    let mut remaining = quota;
    while remaining > 0 {
        let count = remaining.min(block);
        qarith_geometry::fill_unit_sphere_block(&mut rng, dim, count, &mut soa[..dim * count]);
        let _ = compiled.limit_truth_block(&soa[..dim * count], count, &mut scratch);
        assert!(
            std::ptr::eq(ptr, soa.as_ptr())
                && soa.capacity() == cap
                && scratch.capacity() == scratch_cap,
            "hot-loop buffer reallocated (dim {dim}, block {block})"
        );
        remaining -= count;
    }
}

/// Runs the kernel benchmark: blocked kernel and scalar reference over
/// the workload's formulas, hit-count bit-identity asserted inline,
/// buffers asserted allocation-free, timings min-of-reps.
pub fn run_kernel(config: &KernelConfig) -> KernelReport {
    let formulas = workload_formulas(config);
    assert!(!formulas.is_empty(), "workload produced no sampled formulas");
    let m = config.directions.max(1);
    let sample_seed = config.seed ^ 0xF1616;
    let opts = AfprasOptions {
        samples: SampleCount::Fixed(m),
        seed: sample_seed,
        threads: 1,
        ..AfprasOptions::default()
    };

    let refs: Vec<&CompiledFormula> = formulas.iter().collect();
    let mut blocked_seconds = f64::INFINITY;
    let mut scalar_seconds = f64::INFINITY;
    let mut hits: Vec<usize> = Vec::new();
    for rep in 0..config.reps.max(1) {
        let started = Instant::now();
        let blocked: Vec<usize> =
            estimate_nu_compiled_many(&refs, &opts).iter().map(|o| o.hits).collect();
        blocked_seconds = blocked_seconds.min(started.elapsed().as_secs_f64());

        let started = Instant::now();
        let scalar: Vec<usize> =
            formulas.iter().map(|c| scalar_reference_hits(c, sample_seed, m)).collect();
        scalar_seconds = scalar_seconds.min(started.elapsed().as_secs_f64());

        // The bit-pinning contract, checked on every run: the blocked
        // kernel's hit counts equal the scalar reference's, formula by
        // formula, rep by rep.
        assert_eq!(
            blocked, scalar,
            "blocked kernel diverged from the scalar reference (rep {rep})"
        );
        hits = blocked;
    }

    // The allocation check, on the widest formula (the one whose
    // buffers would be likeliest to grow).
    let widest = formulas.iter().max_by_key(|c| c.dim()).expect("non-empty");
    assert_hot_loop_allocation_free(widest, sample_seed, m);

    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    (formulas.len() as u64).hash(&mut hasher);
    (m as u64).hash(&mut hasher);
    for (c, h) in formulas.iter().zip(&hits) {
        (c.dim() as u64, c.atom_count() as u64, *h as u64).hash(&mut hasher);
    }
    let hits_digest = format!("{:#018x}", hasher.finish());

    let directions_total = (formulas.len() * m) as u64;
    KernelReport {
        scale: config.scale.name().to_string(),
        seed: config.seed,
        reps: config.reps.max(1) as u64,
        formulas: formulas.len() as u64,
        max_dim: formulas.iter().map(|c| c.dim() as u64).max().unwrap_or(0),
        atoms: formulas.iter().map(|c| c.atom_count() as u64).sum(),
        directions_per_formula: m as u64,
        directions_total,
        hits_digest,
        blocked_seconds,
        scalar_seconds,
        directions_per_sec: directions_total as f64 / blocked_seconds.max(1e-12),
        scalar_directions_per_sec: directions_total as f64 / scalar_seconds.max(1e-12),
        speedup: scalar_seconds / blocked_seconds.max(1e-12),
    }
}

impl KernelReport {
    /// The run as a `kernel` document:
    ///
    /// * `config` — scale, seed, reps, directions per formula;
    /// * `pinned` — the hits digest;
    /// * `counters` — the formula census (formulas, max dimension,
    ///   atoms) and directions per pass;
    /// * `timings` — `directions_per_sec`, higher is better within
    ///   [`THROUGHPUT_TOLERANCE`];
    /// * `info` — both kernels' seconds, the scalar throughput and the
    ///   speedup (a ratio of two host timings, so not gated).
    pub fn doc(&self) -> BenchDoc {
        BenchDoc {
            kind: "kernel".into(),
            config: Json::obj([
                ("scale", Json::str(&self.scale)),
                ("seed", Json::num_u64(self.seed)),
                ("reps", Json::num_u64(self.reps)),
                ("directions_per_formula", Json::num_u64(self.directions_per_formula)),
            ]),
            pinned: Json::obj([("hits_digest", Json::str(&self.hits_digest))]),
            counters: Json::obj([
                ("formulas", Json::num_u64(self.formulas)),
                ("max_dim", Json::num_u64(self.max_dim)),
                ("atoms", Json::num_u64(self.atoms)),
                ("directions_total", Json::num_u64(self.directions_total)),
            ]),
            timings: vec![(
                "directions_per_sec".to_string(),
                Timing::higher(self.directions_per_sec, THROUGHPUT_TOLERANCE),
            )],
            info: Json::obj([
                ("blocked_seconds", Json::Num(self.blocked_seconds)),
                ("scalar_seconds", Json::Num(self.scalar_seconds)),
                ("scalar_directions_per_sec", Json::Num(self.scalar_directions_per_sec)),
                ("speedup", Json::Num(self.speedup)),
            ]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_run_is_deterministic_and_allocation_free() {
        let config = KernelConfig {
            directions: 128,
            reps: 1,
            ..KernelConfig::default_for(WorkloadScale::Tiny)
        };
        let (a, b) = (run_kernel(&config).doc(), run_kernel(&config).doc());
        assert_eq!((&a.config, &a.pinned, &a.counters), (&b.config, &b.pinned, &b.counters));
        let count = |key: &str| a.counters.get(key).and_then(Json::as_u64).expect("counter");
        assert!(count("formulas") > 0 && count("max_dim") > 0);
        assert_eq!(count("directions_total"), count("formulas") * 128);
    }
}
