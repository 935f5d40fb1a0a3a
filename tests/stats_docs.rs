//! Docs-drift guard for the stats counters: the "Exported stats
//! counters" table in EXPERIMENTS.md must list exactly the keys each
//! stats block's `as_pairs` emits, in declaration order. Adding,
//! renaming, or reordering a counter in code without updating the
//! table (or vice versa) fails here — the documentation cannot rot.
//!
//! The observability tables are pinned the same way: the per-stage
//! histogram family table must match `Stage::ALL` (names and order),
//! and the slow-log field table must match `SlowRecord::JSON_FIELDS`.

use std::collections::BTreeMap;

use qarith::prelude::*;

/// Parses the EXPERIMENTS.md counter table into block → ordered
/// counter names. Rows look like `| `Block` | `counter` | ... |`.
fn documented_counters() -> BTreeMap<String, Vec<String>> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md"))
        .expect("EXPERIMENTS.md exists at the repo root");
    let section = text
        .split("## Exported stats counters")
        .nth(1)
        .expect("EXPERIMENTS.md has the `Exported stats counters` section")
        .split("\n## ")
        .next()
        .expect("section body");

    let mut blocks: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for line in section.lines() {
        // Data rows: | `Block` | `counter` | ... (skip header/divider).
        let mut cells = line.split('|').map(str::trim);
        let Some("") = cells.next() else { continue };
        let (Some(block), Some(counter)) = (cells.next(), cells.next()) else { continue };
        let strip =
            |s: &str| s.strip_prefix('`').and_then(|s| s.strip_suffix('`')).map(String::from);
        if let (Some(block), Some(counter)) = (strip(block), strip(counter)) {
            blocks.entry(block).or_default().push(counter);
        }
    }
    blocks
}

fn names(pairs: &[(&'static str, u64)]) -> Vec<String> {
    pairs.iter().map(|(k, _)| (*k).to_string()).collect()
}

/// Every exported stats block → its `as_pairs` counter names, in order.
fn exported_counters() -> BTreeMap<String, Vec<String>> {
    [
        ("BatchStats".to_string(), names(&BatchStats::default().as_pairs())),
        ("RewriteStats".to_string(), names(&RewriteStats::default().as_pairs())),
        ("CacheStats".to_string(), names(&CacheStats::default().as_pairs())),
        ("ServiceStats".to_string(), names(&ServiceStats::default().as_pairs())),
        ("AdmissionStats".to_string(), names(&AdmissionStats::default().as_pairs())),
        ("NetStats".to_string(), names(&NetStats::default().as_pairs())),
    ]
    .into_iter()
    .collect()
}

#[test]
fn documented_counter_table_matches_as_pairs_exactly() {
    let documented = documented_counters();
    let expected = exported_counters();

    assert_eq!(
        documented.keys().collect::<Vec<_>>(),
        expected.keys().collect::<Vec<_>>(),
        "EXPERIMENTS.md documents a different set of stats blocks than the code exports"
    );
    for (block, keys) in &expected {
        assert_eq!(
            &documented[block], keys,
            "`{block}`: EXPERIMENTS.md rows must list exactly its as_pairs keys, in order"
        );
    }
}

/// Returns the first backticked cell of every data row in the named
/// EXPERIMENTS.md section's table, in document order.
fn documented_column(section_header: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md"))
        .expect("EXPERIMENTS.md exists at the repo root");
    let section = text
        .split(section_header)
        .nth(1)
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has the `{section_header}` section"))
        .split("\n## ")
        .next()
        .expect("section body");
    section
        .lines()
        .filter(|l| l.starts_with("| `"))
        .filter_map(|l| {
            let cell = l.split('|').nth(1)?.trim();
            Some(cell.strip_prefix('`')?.strip_suffix('`')?.to_string())
        })
        .collect()
}

#[test]
fn documented_histogram_families_match_stage_all_exactly() {
    // Both observability tables share the section; the family rows are
    // the `_seconds`-suffixed ones (the rest are slow-log fields).
    let documented: Vec<String> = documented_column("## Per-stage latency histograms")
        .into_iter()
        .filter(|name| name.ends_with("_seconds"))
        .collect();
    let expected: Vec<String> = qarith::trace::Stage::ALL
        .iter()
        .map(|s| format!("qarith_stage_{}_seconds", s.name()))
        .collect();
    assert_eq!(
        documented, expected,
        "the EXPERIMENTS.md histogram-family table must list exactly one \
         `qarith_stage_<name>_seconds` family per Stage::ALL entry, in pipeline order"
    );
}

#[test]
fn documented_slow_log_fields_match_json_fields_exactly() {
    // The slow-log field table follows the family table inside the same
    // section; families all end in `_seconds`, so filtering them out
    // leaves the record fields.
    let documented: Vec<String> = documented_column("## Per-stage latency histograms")
        .into_iter()
        .filter(|name| !name.ends_with("_seconds"))
        .collect();
    assert_eq!(
        documented,
        qarith::trace::SlowRecord::JSON_FIELDS,
        "the EXPERIMENTS.md slow-log field table must list exactly \
         SlowRecord::JSON_FIELDS, in serialization order"
    );
}

#[test]
fn every_block_has_a_meaning_column() {
    // Each documented row carries non-empty provenance + meaning cells
    // (columns 3 and 4) — a bare name row would defeat the table's
    // purpose.
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md"))
        .expect("EXPERIMENTS.md exists");
    let section =
        text.split("## Exported stats counters").nth(1).unwrap().split("\n## ").next().unwrap();
    let mut rows = 0;
    for line in section.lines() {
        if !line.starts_with("| `") {
            continue;
        }
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        assert!(cells.len() >= 6, "malformed table row: {line}");
        assert!(!cells[3].is_empty() && !cells[4].is_empty(), "empty cells in: {line}");
        rows += 1;
    }
    let counters: usize = exported_counters().values().map(Vec::len).sum();
    assert_eq!(rows, counters, "expected one row per exported counter");
}
