//! Throughput of the rewrite pipeline against the plain batch engine on
//! the tiny-scale §9 sales workload, plus the raw pass-pipeline cost.
//!
//! Per query (forced AFPRAS, the paper's `m = ⌈ε⁻²⌉` prescription,
//! ε = 0.05 — the acceptance point of the `fig1 --rewrite` report):
//!
//! * `batch` — the PR 2 path: canonical dedup + ν-cache, no rewriting;
//! * `rewritten` — the same plus the `qarith-rewrite` pipeline:
//!   simplification, independence decomposition, exact routing of
//!   factors (spherical/arc/order/dimension evaluators), product
//!   combination;
//! * `passes_only` — `Rewriter::rewrite` alone over every uncertain
//!   candidate formula (the pure rewriting overhead, no measurement).
//!
//! Estimates on the two measured configurations agree within the
//! additive budget; what this bench tracks is the wall-clock effect of
//! trading Monte-Carlo directions for closed forms.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qarith_bench::Fig1Harness;
use qarith_core::{BatchOptions, NuCache};
use qarith_datagen::sales::SalesScale;
use qarith_rewrite::{RewriteOptions, Rewriter};

const EPSILON: f64 = 0.05;
const SEED: u64 = 2020;
const BATCH: BatchOptions = BatchOptions { threads: 4, dedup: true };

fn per_query(c: &mut Criterion) {
    let harness = Fig1Harness::new(&SalesScale::tiny(), SEED);
    let mut group = c.benchmark_group("rewrite_throughput");
    for (qi, q) in harness.queries.iter().enumerate() {
        let name = q.name.replace(' ', "_");
        group.bench_with_input(BenchmarkId::new("batch", &name), &qi, |b, &qi| {
            b.iter(|| harness.run_epsilon_batch(qi, EPSILON, SEED, BATCH, Some(Arc::default())));
        });
        group.bench_with_input(BenchmarkId::new("rewritten", &name), &qi, |b, &qi| {
            b.iter(|| {
                harness.run_epsilon_rewritten(
                    qi,
                    EPSILON,
                    SEED,
                    BATCH,
                    Some(Arc::new(NuCache::default())),
                )
            });
        });
    }
    group.finish();
}

fn passes_only(c: &mut Criterion) {
    let harness = Fig1Harness::new(&SalesScale::tiny(), SEED);
    let formulas: Vec<_> = harness
        .queries
        .iter()
        .flat_map(|q| q.candidates.iter().filter(|c| !c.certain).map(|c| c.formula.clone()))
        .collect();
    let rewriter = Rewriter::new(RewriteOptions::full());
    let mut group = c.benchmark_group("rewrite_passes");
    group.bench_function("workload_formulas", |b| {
        b.iter(|| {
            for f in &formulas {
                std::hint::black_box(rewriter.rewrite(f));
            }
        });
    });
    group.finish();
}

criterion_group!(benches, per_query, passes_only);
criterion_main!(benches);
