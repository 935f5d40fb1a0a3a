//! Throughput of the batch measurement engine against the plain
//! per-candidate loop, on the tiny-scale §9 sales workload.
//!
//! Three configurations per query (forced AFPRAS, the paper's
//! `m = ⌈ε⁻²⌉` prescription, ε = 0.02):
//!
//! * `sequential` — the uncached baseline: one measurement per
//!   candidate (`BatchOptions { threads: 1, dedup: false }`);
//! * `batch_cold` — canonical dedup + 4 worker threads, empty ν-cache
//!   every iteration;
//! * `batch_warm` — same, with a ν-cache already holding the workload
//!   (the production serving scenario: repeated analyst queries over a
//!   slowly-changing database re-measure the same canonical formulas).
//!
//! The `workload` group measures all three queries back to back with one
//! shared cache — the number EXPERIMENTS.md's batch-vs-sequential table
//! reports.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qarith_bench::Fig1Harness;
use qarith_core::{BatchOptions, NuCache};
use qarith_datagen::sales::SalesScale;

const EPSILON: f64 = 0.02;
const SEED: u64 = 2020;

const SEQUENTIAL: BatchOptions = BatchOptions { threads: 1, dedup: false };
const BATCH: BatchOptions = BatchOptions { threads: 4, dedup: true };

fn per_query(c: &mut Criterion) {
    let harness = Fig1Harness::new(&SalesScale::tiny(), SEED);
    let mut group = c.benchmark_group("batch_throughput");
    for (qi, q) in harness.queries.iter().enumerate() {
        let name = q.name.replace(' ', "_");
        group.bench_with_input(BenchmarkId::new("sequential", &name), &qi, |b, &qi| {
            b.iter(|| harness.run_epsilon_batch(qi, EPSILON, SEED, SEQUENTIAL, None));
        });
        group.bench_with_input(BenchmarkId::new("batch_cold", &name), &qi, |b, &qi| {
            b.iter(|| harness.run_epsilon_batch(qi, EPSILON, SEED, BATCH, Some(Arc::default())));
        });
        let warm = Arc::new(NuCache::default());
        harness.run_epsilon_batch(qi, EPSILON, SEED, BATCH, Some(warm.clone()));
        group.bench_with_input(BenchmarkId::new("batch_warm", &name), &qi, |b, &qi| {
            b.iter(|| harness.run_epsilon_batch(qi, EPSILON, SEED, BATCH, Some(warm.clone())));
        });
    }
    group.finish();
}

fn workload(c: &mut Criterion) {
    let harness = Fig1Harness::new(&SalesScale::tiny(), SEED);
    let queries: Vec<usize> = (0..harness.queries.len()).collect();
    let mut group = c.benchmark_group("batch_throughput_workload");
    group.bench_function("sequential", |b| {
        b.iter(|| {
            for &qi in &queries {
                harness.run_epsilon_batch(qi, EPSILON, SEED, SEQUENTIAL, None);
            }
        });
    });
    group.bench_function("batch_cold", |b| {
        b.iter(|| {
            let cache = Arc::new(NuCache::default());
            for &qi in &queries {
                harness.run_epsilon_batch(qi, EPSILON, SEED, BATCH, Some(cache.clone()));
            }
        });
    });
    let warm = Arc::new(NuCache::default());
    for &qi in &queries {
        harness.run_epsilon_batch(qi, EPSILON, SEED, BATCH, Some(warm.clone()));
    }
    group.bench_function("batch_warm", |b| {
        b.iter(|| {
            for &qi in &queries {
                harness.run_epsilon_batch(qi, EPSILON, SEED, BATCH, Some(warm.clone()));
            }
        });
    });
    group.finish();
}

criterion_group!(benches, per_query, workload);
criterion_main!(benches);
