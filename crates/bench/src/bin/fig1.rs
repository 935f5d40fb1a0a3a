//! Regenerates **Figure 1** of the paper: running time of the additive
//! approximation scheme against the error level ε, for the three §9
//! decision-support queries over a ~200K-tuple synthetic sales database.
//!
//! ```text
//! cargo run -p qarith-bench --release --bin fig1 [-- --scale small|paper] [--seed N] [--csv PATH] [--batch] [--rewrite]
//! ```
//!
//! With `--batch`, every ε point is additionally run through the batch
//! measurement engine (canonical dedup, 4 worker threads, shared
//! ν-cache) and the per-point speedup, group counts, in-batch dedup
//! hits, and cache hits are reported, followed by a warm-cache serving
//! pass over the whole workload. Batch estimates are bit-identical to
//! the sequential ones (checked per point).
//!
//! With `--rewrite` (implies `--batch`), a third configuration runs the
//! `qarith-rewrite` pipeline — simplification, independence
//! decomposition, exact routing per factor — and the table gains a
//! rewritten-time column plus its speedup over the plain batch path.
//! Rewritten estimates are not bit-identical (the sampled formula and
//! budget change) but keep the ε-additive guarantee; each point asserts
//! the rewritten values stay within 2ε of the sequential ones, and a
//! per-query "rewrite:" line attributes the win (factors, exact-routed
//! factors, dimension reduction). A final cold pass at ε = 0.05 prints
//! the workload-level speedup of the rewritten path over the PR 2 batch
//! path.
//!
//! Output: one series per query (19 ε-points from 0.100 down to 0.010),
//! printed as the paper reports them and optionally written as CSV.
//! Absolute times are not comparable to the paper's (Python/NumPy on an
//! i5-8500 vs compiled Rust here); the reproduced *shape* is the ε⁻²
//! growth and the per-query ordering.

use std::io::Write;
use std::sync::Arc;

use qarith_bench::{figure1_epsilons, secs, BatchPoint, Fig1Harness};
use qarith_core::{BatchOptions, NuCache, RewriteStats};
use qarith_datagen::sales::SalesScale;

/// The batch configuration `--batch` and `--rewrite` exercise.
const BATCH: BatchOptions = BatchOptions { threads: 4, dedup: true };

/// The ε the workload-level rewrite acceptance line reports.
const ACCEPT_EPSILON: f64 = 0.05;

fn main() {
    let mut scale = SalesScale::paper();
    let mut seed = 2020u64;
    let mut csv_path: Option<String> = None;
    let mut batch_mode = false;
    let mut rewrite_mode = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("paper") => SalesScale::paper(),
                    Some("small") => SalesScale::small(),
                    Some("tiny") => SalesScale::tiny(),
                    other => {
                        eprintln!("unknown scale {other:?} (expected paper|small|tiny)");
                        std::process::exit(2);
                    }
                };
            }
            "--seed" => {
                i += 1;
                seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed needs an integer");
                    std::process::exit(2);
                });
            }
            "--csv" => {
                i += 1;
                csv_path = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--csv needs a path");
                    std::process::exit(2);
                }));
            }
            "--batch" => batch_mode = true,
            "--rewrite" => {
                batch_mode = true;
                rewrite_mode = true;
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    println!("qarith — Figure 1 reproduction (PODS'20 §9)");
    // Every reported table must be reproducible from its own output:
    // the seed governs both data generation and direction sampling.
    println!("seed: {seed} (rerun with --seed {seed} to reproduce this table exactly)");
    println!(
        "sales database: {} products, {} orders, {} market rows (~{} tuples), null rate {:.1}%",
        scale.products,
        scale.orders,
        scale.markets,
        scale.total_rows(),
        scale.null_rate * 100.0
    );
    println!("building database and candidates (the \"Postgres side\") …");

    let build_start = std::time::Instant::now();
    let harness = Fig1Harness::new(&scale, seed);
    println!("  database + candidate generation: {:.3}s total\n", secs(build_start.elapsed()));

    let stats = harness.db.stats();
    println!("  |N_num(D)| = {} numerical nulls across {} tuples\n", stats.num_nulls, stats.tuples);

    let mut csv = String::from(
        "query,epsilon,samples,uncertain_candidates,seconds,batch_seconds,groups,dedup_hits,\
         cache_hits,rewrite_seconds,rewrite_factors,rewrite_exact_factors,rewrite_dim_before,\
         rewrite_dim_after\n",
    );
    let epsilons = figure1_epsilons();
    let cache = Arc::new(NuCache::default());
    let rw_cache = Arc::new(NuCache::default());

    for (qi, q) in harness.queries.iter().enumerate() {
        println!("Query: {}", q.name);
        println!("  SQL: {}", q.sql);
        println!(
            "  candidates: {} ({} uncertain), candidate generation {:.4}s",
            q.candidates.len(),
            harness.uncertain_count(qi),
            secs(q.candidate_time)
        );
        match (batch_mode, rewrite_mode) {
            (true, true) => println!(
                "  {:>8}  {:>9}  {:>12}  {:>12}  {:>12}  {:>7}  {:>6}  {:>5}  {:>9}",
                "ε·10³",
                "samples",
                "seq (s)",
                "batch (s)",
                "rewrite (s)",
                "rw-spdup",
                "groups",
                "dedup",
                "cache-hit"
            ),
            (true, false) => println!(
                "  {:>8}  {:>9}  {:>12}  {:>12}  {:>7}  {:>6}  {:>5}  {:>9}",
                "ε·10³",
                "samples",
                "seq (s)",
                "batch (s)",
                "speedup",
                "groups",
                "dedup",
                "cache-hit"
            ),
            _ => println!("  {:>8}  {:>9}  {:>12}", "ε·10³", "samples", "time (s)"),
        }
        let mut rewrite_stats: Option<RewriteStats> = None;
        for &eps in &epsilons {
            let point = harness.run_epsilon(qi, eps, seed ^ 0xF1616);
            if !batch_mode {
                println!(
                    "  {:>8.0}  {:>9}  {:>12.6}",
                    eps * 1000.0,
                    point.samples_per_candidate,
                    secs(point.time)
                );
                csv.push_str(&format!(
                    "{},{},{},{},{},,,,,,,,,\n",
                    q.name,
                    eps,
                    point.samples_per_candidate,
                    harness.uncertain_count(qi),
                    secs(point.time)
                ));
                continue;
            }
            let batch =
                harness.run_epsilon_batch(qi, eps, seed ^ 0xF1616, BATCH, Some(cache.clone()));
            for (s, b) in point.estimates.iter().zip(&batch.estimates) {
                assert_eq!(
                    s.value.to_bits(),
                    b.value.to_bits(),
                    "batch must be bit-identical to sequential ({}, ε = {eps})",
                    q.name
                );
            }
            let rewritten: Option<BatchPoint> = rewrite_mode.then(|| {
                let rw = harness.run_epsilon_rewritten(
                    qi,
                    eps,
                    seed ^ 0xF1616,
                    BATCH,
                    Some(rw_cache.clone()),
                );
                for (s, r) in point.estimates.iter().zip(&rw.estimates) {
                    assert!(
                        (s.value - r.value).abs() <= 2.0 * eps + 1e-9,
                        "rewritten estimate must stay within 2ε of sequential \
                         ({}, ε = {eps}: {} vs {})",
                        q.name,
                        r.value,
                        s.value
                    );
                }
                if rw.stats.rewrite.groups > 0 && rewrite_stats.is_none() {
                    rewrite_stats = Some(rw.stats.rewrite);
                }
                rw
            });
            match &rewritten {
                Some(rw) => println!(
                    "  {:>8.0}  {:>9}  {:>12.6}  {:>12.6}  {:>12.6}  {:>6.2}x  {:>6}  {:>5}  {:>9}",
                    eps * 1000.0,
                    point.samples_per_candidate,
                    secs(point.time),
                    secs(batch.time),
                    secs(rw.time),
                    secs(batch.time) / secs(rw.time).max(1e-9),
                    batch.stats.groups,
                    batch.stats.dedup_hits,
                    batch.stats.cache_hits,
                ),
                None => println!(
                    "  {:>8.0}  {:>9}  {:>12.6}  {:>12.6}  {:>6.2}x  {:>6}  {:>5}  {:>9}",
                    eps * 1000.0,
                    point.samples_per_candidate,
                    secs(point.time),
                    secs(batch.time),
                    secs(point.time) / secs(batch.time).max(1e-9),
                    batch.stats.groups,
                    batch.stats.dedup_hits,
                    batch.stats.cache_hits,
                ),
            }
            let (rw_secs, rw_cols) = match &rewritten {
                Some(rw) => {
                    let r = &rw.stats.rewrite;
                    (
                        format!("{}", secs(rw.time)),
                        format!(
                            "{},{},{},{}",
                            r.factors, r.exact_factors, r.dim_before, r.dim_after
                        ),
                    )
                }
                None => (String::new(), ",,,".into()),
            };
            csv.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{}\n",
                q.name,
                eps,
                point.samples_per_candidate,
                harness.uncertain_count(qi),
                secs(point.time),
                secs(batch.time),
                batch.stats.groups,
                batch.stats.dedup_hits,
                batch.stats.cache_hits,
                rw_secs,
                rw_cols,
            ));
        }
        if let Some(r) = rewrite_stats {
            println!(
                "  rewrite: {}/{} groups factored, {} factors ({} exact-routed), \
                 dim {}→{} (−{:.0}%)",
                r.factored,
                r.groups,
                r.factors,
                r.exact_factors,
                r.dim_before,
                r.dim_after,
                100.0 * (1.0 - r.dim_after as f64 / r.dim_before.max(1) as f64),
            );
        }
        println!();
    }

    if batch_mode {
        // Warm-cache serving pass: the whole workload again at the finest
        // ε, every canonical formula already cached.
        let eps = *epsilons.last().expect("non-empty grid");
        let seq_start = std::time::Instant::now();
        for qi in 0..harness.queries.len() {
            harness.run_epsilon(qi, eps, seed ^ 0xF1616);
        }
        let seq_time = secs(seq_start.elapsed());
        let warm_start = std::time::Instant::now();
        let mut hits = 0usize;
        let mut groups = 0usize;
        for qi in 0..harness.queries.len() {
            let point =
                harness.run_epsilon_batch(qi, eps, seed ^ 0xF1616, BATCH, Some(cache.clone()));
            hits += point.stats.cache_hits;
            groups += point.stats.groups;
        }
        let warm_time = secs(warm_start.elapsed());
        println!(
            "warm-cache serving pass (ε = {eps:.3}): sequential {seq_time:.6}s, \
             batch {warm_time:.6}s ({:.1}x), {hits}/{groups} groups served from the ν-cache",
            seq_time / warm_time.max(1e-9)
        );
        let stats = cache.stats();
        println!(
            "ν-cache totals: {} entries, {} hits / {} misses ({:.0}% hit rate)",
            stats.entries,
            stats.hits,
            stats.misses,
            stats.hit_rate() * 100.0
        );
        if rewrite_mode {
            let rw_stats = rw_cache.stats();
            println!(
                "rewritten ν-cache totals: {} entries, {} hits / {} misses ({:.0}% hit rate)",
                rw_stats.entries,
                rw_stats.hits,
                rw_stats.misses,
                rw_stats.hit_rate() * 100.0
            );
        }
    }

    if rewrite_mode {
        // Cold workload-level comparison at the acceptance ε: fresh
        // caches for both configurations, all three queries back to back.
        let batch_start = std::time::Instant::now();
        let cold = Arc::new(NuCache::default());
        for qi in 0..harness.queries.len() {
            harness.run_epsilon_batch(
                qi,
                ACCEPT_EPSILON,
                seed ^ 0xF1616,
                BATCH,
                Some(cold.clone()),
            );
        }
        let batch_time = secs(batch_start.elapsed());
        let rw_start = std::time::Instant::now();
        let cold_rw = Arc::new(NuCache::default());
        for qi in 0..harness.queries.len() {
            harness.run_epsilon_rewritten(
                qi,
                ACCEPT_EPSILON,
                seed ^ 0xF1616,
                BATCH,
                Some(cold_rw.clone()),
            );
        }
        let rw_time = secs(rw_start.elapsed());
        println!(
            "rewrite speedup at ε = {ACCEPT_EPSILON}: batch {batch_time:.6}s, \
             rewritten {rw_time:.6}s ({:.2}x, cold caches, whole workload)",
            batch_time / rw_time.max(1e-9)
        );
    }

    if let Some(path) = csv_path {
        let mut f = std::fs::File::create(&path).expect("create CSV file");
        f.write_all(csv.as_bytes()).expect("write CSV");
        println!("CSV written to {path}");
    }
}
