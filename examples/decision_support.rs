//! The §9 decision-support workload at example scale: generate a sales
//! database, run the paper's three SQL queries, and print each candidate
//! answer with its confidence level — the analyst-facing output the
//! paper's system produces.
//!
//! ```text
//! cargo run --release --example decision_support
//! ```

use qarith::core::AfprasOptions;
use qarith::datagen::sales::{paper_queries, sales_catalog, sales_database, SalesScale};
use qarith::engine::cq::{self, CqOptions};
use qarith::prelude::*;
use qarith::sql;

fn main() {
    // A small database with a raised null rate so uncertainty is visible.
    let scale = SalesScale { null_rate: 0.25, ..SalesScale::small() };
    let db = sales_database(&scale, 2020);
    let catalog = sales_catalog();
    let stats = db.stats();
    println!(
        "sales database: {} tuples, {} numerical nulls (null rate {:.0}%)\n",
        stats.tuples,
        stats.num_nulls,
        scale.null_rate * 100.0
    );

    let engine = CertaintyEngine::new(MeasureOptions {
        afpras: AfprasOptions::with_epsilon(0.02),
        ..MeasureOptions::default()
    });

    for (name, sql_text) in paper_queries() {
        println!("── {name} ──────────────────────────────────────");
        println!("{sql_text}\n");
        let lowered = sql::compile(sql_text, &catalog).expect("paper query compiles");
        let candidates =
            cq::execute(&lowered.query, &db, &CqOptions::with_limit(lowered.limit.unwrap_or(25)))
                .expect("execution succeeds");

        let answers = engine.measure_batch(candidates).expect("measures computed").answers;
        print!("{}", qarith::core::report::render_answers(&answers));
        println!("\n{}\n", qarith::core::report::summarize(&answers));
    }
}
