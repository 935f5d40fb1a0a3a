//! Regenerates **Figure 1** of the paper: running time of the additive
//! approximation scheme against the error level ε, for the three §9
//! decision-support queries over a ~200K-tuple synthetic sales database.
//!
//! ```text
//! cargo run -p qarith-bench --release --bin fig1 [-- --scale small|paper] [--seed N] [--csv PATH]
//! ```
//!
//! Output: one series per query (19 ε-points from 0.100 down to 0.010),
//! printed as the paper reports them and optionally written as CSV.
//! Absolute times are not comparable to the paper's (Python/NumPy on an
//! i5-8500 vs compiled Rust here); the reproduced *shape* is the ε⁻²
//! growth and the per-query ordering. The batch and rewrite pipelines
//! are timed and checked against this one by `bench_suite`.

use std::io::Write;

use qarith_bench::{figure1_epsilons, secs, Fig1Harness};
use qarith_datagen::sales::SalesScale;

fn main() {
    let mut scale = SalesScale::paper();
    let mut seed = 2020u64;
    let mut csv_path: Option<String> = None;

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

    let mut csv = String::from("query,epsilon,samples,uncertain_candidates,seconds\n");
    for (qi, q) in harness.queries.iter().enumerate() {
        println!("Query: {}", q.name);
        println!("  SQL: {}", q.sql);
        println!(
            "  candidates: {} ({} uncertain), candidate generation {:.4}s",
            q.candidates.len(),
            harness.uncertain_count(qi),
            secs(q.candidate_time)
        );
        println!("  {:>8}  {:>9}  {:>12}", "ε·10³", "samples", "time (s)");
        for eps in figure1_epsilons() {
            let point = harness.run_epsilon(qi, eps, seed ^ 0xF1616);
            println!(
                "  {:>8.0}  {:>9}  {:>12.6}",
                eps * 1000.0,
                point.samples_per_candidate,
                secs(point.time)
            );
            csv.push_str(&format!(
                "{},{},{},{},{}\n",
                q.name,
                eps,
                point.samples_per_candidate,
                harness.uncertain_count(qi),
                secs(point.time)
            ));
        }
        println!();
    }

    if let Some(path) = csv_path {
        let mut f = std::fs::File::create(&path).expect("create CSV file");
        f.write_all(csv.as_bytes()).expect("write CSV");
        println!("CSV written to {path}");
    }
}
