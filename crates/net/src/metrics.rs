//! The `GET /metrics` exposition: every `as_pairs` counter block in
//! Prometheus text format (version 0.0.4).
//!
//! One metric per counter, named `qarith_<block>_<counter>`, each with
//! its `# HELP`/`# TYPE` preamble. Blocks and the EXPERIMENTS.md
//! counter table they mirror:
//!
//! | prefix                  | source                                    |
//! |-------------------------|-------------------------------------------|
//! | `qarith_batch_`         | running [`BatchStats`] sums of every executed request |
//! | `qarith_rewrite_`       | the nested [`RewriteStats`] sums          |
//! | `qarith_sharded_cache_` | the service's bounded sharded ν-cache ([`CacheStats`]) |
//! | `qarith_service_`       | plan cache + request accounting ([`ServiceStats`]) |
//! | `qarith_admission_`     | the gate ([`AdmissionStats`]), including the `in_flight` gauge |
//! | `qarith_net_`           | the wire layer ([`NetStats`])             |
//!
//! Counter vs gauge follows the semantics, not the block: monotone
//! sums are `counter`; point-in-time levels (`entries`,
//! `resident_bytes`, `shards`, `plans`, `epoch`, `in_flight`,
//! `max_in_flight`, `connections_active`) are `gauge`.
//!
//! After the counter blocks come the **per-stage latency histograms**:
//! one `qarith_stage_<stage>_seconds` family per
//! [`qarith_trace::Stage`], rendered from
//! [`QueryService::latency_stats`] in standard Prometheus histogram
//! form — cumulative `_bucket{le="…"}` samples at the fixed
//! `1000·2^i` ns bounds (expressed in seconds), a final `le="+Inf"`
//! bucket, `_sum` (seconds), and `_count`. Because the tracer derives
//! the count from the bucket counts, `_count` always equals the
//! `+Inf` cumulative bucket even when a scrape races recording.
//!
//! [`QueryService::latency_stats`]: qarith_serve::QueryService::latency_stats
//!
//! [`BatchStats`]: qarith_core::BatchStats
//! [`RewriteStats`]: qarith_core::RewriteStats
//! [`CacheStats`]: qarith_core::CacheStats
//! [`ServiceStats`]: qarith_serve::ServiceStats
//! [`AdmissionStats`]: qarith_serve::AdmissionStats

use qarith_serve::QueryService;
use qarith_trace::HistogramSnapshot;

use crate::server::NetStats;

/// Counter names that are levels, not monotone sums.
const GAUGES: [&str; 8] = [
    "entries",
    "resident_bytes",
    "shards",
    "plans",
    "epoch",
    "in_flight",
    "max_in_flight",
    "connections_active",
];

/// Renders the full exposition for one service + wire-layer snapshot.
pub fn render(service: &QueryService, net: &NetStats) -> String {
    let mut out = String::new();
    let totals = service.batch_totals();
    block(
        &mut out,
        "qarith_batch",
        "running BatchStats sums over every executed request",
        &totals.as_pairs(),
    );
    block(
        &mut out,
        "qarith_rewrite",
        "running RewriteStats sums over every executed request",
        &totals.rewrite.as_pairs(),
    );
    block(
        &mut out,
        "qarith_sharded_cache",
        "bounded sharded serving nu-cache",
        &service.cache_stats().as_pairs(),
    );
    block(
        &mut out,
        "qarith_service",
        "plan cache and request accounting",
        &service.stats().as_pairs(),
    );
    block(&mut out, "qarith_admission", "admission gate", &service.admission_stats().as_pairs());
    block(&mut out, "qarith_net", "wire layer", &net.as_pairs());
    for (stage, snapshot) in &service.latency_stats().stages {
        histogram_block(&mut out, *stage, snapshot);
    }
    out
}

/// Appends one per-stage latency histogram family.
fn histogram_block(out: &mut String, stage: qarith_trace::Stage, snap: &HistogramSnapshot) {
    let name = format!("qarith_stage_{}_seconds", stage.name());
    out.push_str(&format!(
        "# HELP {name} qarith per-request stage latency: {what}.\n# TYPE {name} histogram\n",
        what = stage.what(),
    ));
    for (bound, seen) in snap.cumulative() {
        match bound {
            Some(nanos) => {
                out.push_str(&format!("{name}_bucket{{le=\"{}\"}} {seen}\n", seconds(nanos)));
            }
            None => out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {seen}\n")),
        }
    }
    out.push_str(&format!("{name}_sum {}\n", seconds(snap.sum_nanos)));
    out.push_str(&format!("{name}_count {}\n", snap.count()));
}

/// Nanoseconds as a decimal-seconds literal with no float rounding:
/// `1000` → `0.000001`, `67108864000` → `67.108864`, `2000000000` →
/// `2`. Stable digits keep `le=` label values identical across scrapes
/// (Prometheus treats the label as an opaque string).
fn seconds(nanos: u64) -> String {
    let whole = nanos / 1_000_000_000;
    let frac = nanos % 1_000_000_000;
    if frac == 0 {
        format!("{whole}")
    } else {
        let digits = format!("{frac:09}");
        format!("{whole}.{}", digits.trim_end_matches('0'))
    }
}

/// Appends one counter block.
fn block(out: &mut String, prefix: &str, what: &str, pairs: &[(&'static str, u64)]) {
    for (name, value) in pairs {
        let kind = if GAUGES.contains(name) { "gauge" } else { "counter" };
        out.push_str(&format!(
            "# HELP {prefix}_{name} qarith {what}: `{name}` (see EXPERIMENTS.md, \
             \"Exported stats counters\").\n\
             # TYPE {prefix}_{name} {kind}\n\
             {prefix}_{name} {value}\n"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every name in the exposition is well-formed and typed, and the
    /// block count covers the whole EXPERIMENTS table (6 batch + 6
    /// rewrite + 6 ν-cache + 10 service + 4 admission + 7 net).
    #[test]
    fn exposition_is_complete_and_well_formed() {
        let db = qarith_datagen::sales::sales_database(
            &qarith_datagen::WorkloadScale::Tiny.params(),
            2020,
        );
        let service = QueryService::new(db, qarith_serve::ServeConfig::default());
        service.query("SELECT P.id FROM Products P").expect("query serves");
        let text = render(&service, &NetStats::default());

        let (stage_samples, counter_samples): (Vec<&str>, Vec<&str>) = text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .partition(|l| l.starts_with("qarith_stage_"));
        assert_eq!(counter_samples.len(), 6 + 6 + 6 + 10 + 4 + 7, "one sample per counter");
        for line in &counter_samples {
            let mut words = line.split_ascii_whitespace();
            let name = words.next().expect("metric name");
            let value = words.next().expect("metric value");
            assert!(name.starts_with("qarith_"), "prefixed: {name}");
            assert!(value.parse::<u64>().is_ok(), "integer sample: {line}");
            assert!(text.contains(&format!("# TYPE {name} ")), "typed: {name}");
            assert!(text.contains(&format!("# HELP {name} ")), "documented: {name}");
        }
        // One histogram family per Stage: 27 finite buckets + the +Inf
        // bucket + _sum + _count.
        let per_family = qarith_trace::BUCKETS + 2;
        assert_eq!(stage_samples.len(), qarith_trace::Stage::COUNT * per_family);
        for stage in qarith_trace::Stage::ALL {
            let family = format!("qarith_stage_{}_seconds", stage.name());
            assert!(text.contains(&format!("# TYPE {family} histogram")), "typed: {family}");
            assert!(text.contains(&format!("# HELP {family} ")), "documented: {family}");
            assert!(text.contains(&format!("{family}_bucket{{le=\"+Inf\"}}")));
        }
        // Bucket bounds render as exact decimal seconds; the in-process
        // query above recorded a Total observation, so _count is alive.
        assert!(text.contains("qarith_stage_total_seconds_bucket{le=\"0.000001\"}"));
        assert!(text.contains("qarith_stage_total_seconds_bucket{le=\"67.108864\"}"));
        assert!(text.contains("qarith_stage_total_seconds_count 1"));
        // Spot-check semantics: the query above measured something.
        assert!(text.contains("qarith_service_queries 1"));
        assert!(text.contains("# TYPE qarith_admission_in_flight gauge"));
        assert!(text.contains("# TYPE qarith_service_epoch gauge"));
        assert!(text.contains("# TYPE qarith_service_join_rows counter"));
        assert!(text.contains("# TYPE qarith_sharded_cache_evictions counter"));
        assert!(text.contains("# TYPE qarith_net_frames_in counter"));
        assert!(!text.contains("qarith_nucache_"), "no block for a cache the service lacks");
    }

    /// The `le=` label formatter is exact and trim-stable.
    #[test]
    fn seconds_formatting_is_exact() {
        assert_eq!(seconds(0), "0");
        assert_eq!(seconds(1_000), "0.000001");
        assert_eq!(seconds(1_500), "0.0000015");
        assert_eq!(seconds(2_000_000_000), "2");
        assert_eq!(seconds(67_108_864_000), "67.108864");
        assert_eq!(seconds(u64::MAX), "18446744073.709551615");
    }
}
