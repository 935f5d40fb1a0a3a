//! The tracer: request-id minting, RAII span guards, and the flush
//! path from a finished request into the stage histograms and the
//! slow-query log.
//!
//! Flow: [`Tracer::begin`] mints a [`RequestTrace`] (request id + start
//! instant); the serving layers open [`RequestTrace::span`] guards
//! around each [`Stage`] (or call [`StageSink::record_stage`] from
//! `qarith-core`'s traced pipeline hooks); [`Tracer::finish`] folds the
//! per-stage durations into the tracer's histograms and, when the total
//! crosses the slow threshold, pushes a structured record onto the
//! [`SlowLog`].
//!
//! Per-request accumulation is plain `&mut` arithmetic on the
//! [`RequestTrace`] — no shared state, no synchronization. Only
//! `finish` touches the shared histograms, with one relaxed atomic add
//! per cell. All clock reads (`Instant`, and `SystemTime` for the
//! service epoch) live in this module, inside the `clock_allowed`
//! carve-out `analyze.toml` declares for this crate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::hist::{Histogram, HistogramSnapshot};
use crate::slowlog::{SlowLog, SlowRecord};
use crate::{RequestId, Stage, StageSink};

/// Converts a duration since `start` to saturating nanoseconds.
fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The per-service trace aggregator: mints request ids, owns one
/// [`Histogram`] per [`Stage`], and the slow-query log.
#[derive(Debug)]
pub struct Tracer {
    epoch: u64,
    seq: AtomicU64,
    stages: [Histogram; Stage::COUNT],
    slow: SlowLog,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// Default slow-log ring capacity (records retained).
    pub const DEFAULT_SLOW_CAPACITY: usize = 128;

    /// A tracer whose epoch is the current unix time in seconds.
    pub fn new() -> Tracer {
        let epoch = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
        Tracer::with_epoch(epoch)
    }

    /// A tracer with a caller-chosen epoch (deterministic tests).
    pub fn with_epoch(epoch: u64) -> Tracer {
        Tracer {
            epoch,
            seq: AtomicU64::new(0),
            stages: Default::default(),
            slow: SlowLog::new(Tracer::DEFAULT_SLOW_CAPACITY),
        }
    }

    /// The service epoch baked into every minted [`RequestId`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Sets the slow-query capture threshold in nanoseconds; 0
    /// disables capture entirely.
    pub fn set_slow_threshold(&self, nanos: u64) {
        self.slow.set_threshold(nanos);
    }

    /// The current slow-query capture threshold in nanoseconds (0 =
    /// disabled).
    pub fn slow_threshold(&self) -> u64 {
        self.slow.threshold()
    }

    /// Mints the next request id and starts its trace clock.
    pub fn begin(&self) -> RequestTrace {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        RequestTrace {
            id: RequestId { epoch: self.epoch, seq },
            start: Instant::now(),
            nanos: [0; Stage::COUNT],
        }
    }

    /// Finishes a request: folds every non-zero stage duration plus
    /// the end-to-end total into the histograms, and captures a
    /// [`SlowRecord`] when the total crosses the threshold. Returns the
    /// total in nanoseconds.
    pub fn finish(
        &self,
        trace: &RequestTrace,
        fingerprint: &str,
        epsilon: f64,
        route: &'static str,
    ) -> u64 {
        let total = trace.elapsed_nanos();
        for stage in Stage::ALL {
            let nanos = trace.stage_nanos(stage);
            if nanos > 0 {
                self.record(stage, nanos);
            }
        }
        self.record(Stage::Total, total);
        let threshold = self.slow.threshold();
        if threshold > 0 && total >= threshold {
            self.slow.push(SlowRecord {
                id: trace.id,
                fingerprint: fingerprint.to_string(),
                epsilon,
                route,
                stage_nanos: trace.nanos,
                total_nanos: total,
            });
        }
        total
    }

    /// Adds one observation to the histogram of `stage`.
    fn record(&self, stage: Stage, nanos: u64) {
        if let Some(h) = self.stages.get(stage.index()) {
            h.record(nanos);
        }
    }

    /// A snapshot of every stage histogram, in [`Stage::ALL`] order.
    pub fn latency_stats(&self) -> LatencyStats {
        LatencyStats {
            stages: Stage::ALL
                .iter()
                .map(|&s| {
                    (s, self.stages.get(s.index()).map(Histogram::snapshot).unwrap_or_default())
                })
                .collect(),
        }
    }

    /// The slow-query records currently retained, oldest first.
    pub fn slow_queries(&self) -> Vec<SlowRecord> {
        self.slow.records()
    }

    /// The slow-query log as a JSON array (the `GET /slow` body).
    pub fn slow_json(&self) -> String {
        self.slow.to_json()
    }
}

/// A per-request trace: the minted [`RequestId`], the request start
/// instant, and the accumulated per-stage nanoseconds. Plain `&mut`
/// state — cheap to create, no locks.
#[derive(Debug)]
pub struct RequestTrace {
    id: RequestId,
    start: Instant,
    nanos: [u64; Stage::COUNT],
}

impl RequestTrace {
    /// The request id minted by [`Tracer::begin`].
    pub fn id(&self) -> RequestId {
        self.id
    }

    /// Adds `nanos` to the running duration of `stage`.
    pub fn add(&mut self, stage: Stage, nanos: u64) {
        if let Some(cell) = self.nanos.get_mut(stage.index()) {
            *cell = cell.saturating_add(nanos);
        }
    }

    /// The accumulated duration of `stage` so far, in nanoseconds.
    pub fn stage_nanos(&self, stage: Stage) -> u64 {
        self.nanos.get(stage.index()).copied().unwrap_or(0)
    }

    /// Nanoseconds elapsed since [`Tracer::begin`].
    pub fn elapsed_nanos(&self) -> u64 {
        nanos_since(self.start)
    }

    /// An RAII guard adding its elapsed time to `stage` when dropped.
    pub fn span(&mut self, stage: Stage) -> Span<'_> {
        Span { trace: self, stage, start: Instant::now() }
    }
}

impl StageSink for RequestTrace {
    fn record_stage(&mut self, stage: Stage, nanos: u64) {
        self.add(stage, nanos);
    }
}

/// RAII guard from [`RequestTrace::span`]: adds the elapsed time to
/// its stage on drop (including on early `return` / `?`).
#[derive(Debug)]
pub struct Span<'a> {
    trace: &'a mut RequestTrace,
    stage: Stage,
    start: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let nanos = nanos_since(self.start);
        self.trace.add(self.stage, nanos);
    }
}

/// A snapshot of every stage histogram, in [`Stage::ALL`] order — the
/// `QueryService::latency_stats()` return type, rendered by `/metrics`
/// and embedded in the serving bench documents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyStats {
    /// One `(stage, snapshot)` pair per stage, in [`Stage::ALL`] order.
    pub stages: Vec<(Stage, HistogramSnapshot)>,
}

impl LatencyStats {
    /// The snapshot for one stage (empty if absent, which cannot
    /// happen for tracer-produced values).
    pub fn stage(&self, stage: Stage) -> HistogramSnapshot {
        self.stages.iter().find(|(s, _)| *s == stage).map(|(_, snap)| *snap).unwrap_or_default()
    }

    /// p50/p95/p99 summaries for every stage, in [`Stage::ALL`] order.
    pub fn summaries(&self) -> Vec<StageSummary> {
        self.stages
            .iter()
            .map(|(stage, snap)| StageSummary {
                stage: *stage,
                count: snap.count(),
                p50_nanos: snap.quantile(0.50),
                p95_nanos: snap.quantile(0.95),
                p99_nanos: snap.quantile(0.99),
            })
            .collect()
    }
}

/// One stage's quantile summary (nanoseconds, bucket-resolved).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageSummary {
    /// The stage summarized.
    pub stage: Stage,
    /// Observation count.
    pub count: u64,
    /// Median estimate, in nanoseconds.
    pub p50_nanos: u64,
    /// 95th-percentile estimate, in nanoseconds.
    pub p95_nanos: u64,
    /// 99th-percentile estimate, in nanoseconds.
    pub p99_nanos: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_ids_are_sequential_within_the_epoch() {
        let tracer = Tracer::with_epoch(7);
        let a = tracer.begin();
        let b = tracer.begin();
        assert_eq!(a.id(), RequestId { epoch: 7, seq: 1 });
        assert_eq!(b.id(), RequestId { epoch: 7, seq: 2 });
    }

    #[test]
    fn spans_accumulate_and_finish_flushes_to_histograms() {
        let tracer = Tracer::with_epoch(1);
        let mut trace = tracer.begin();
        {
            let _guard = trace.span(Stage::Fingerprint);
        }
        trace.add(Stage::Measure, 5_000_000);
        assert!(trace.stage_nanos(Stage::Fingerprint) > 0, "guard recorded on drop");
        let total = tracer.finish(&trace, "fp", 0.05, "test");
        assert!(total > 0);

        let stats = tracer.latency_stats();
        assert_eq!(stats.stages.len(), Stage::COUNT);
        assert_eq!(stats.stage(Stage::Measure).count(), 1);
        assert_eq!(stats.stage(Stage::Total).count(), 1);
        assert_eq!(stats.stage(Stage::AdmissionWait).count(), 0, "untouched stages stay empty");
        let summaries = stats.summaries();
        assert_eq!(summaries.len(), Stage::COUNT);
        let measure =
            summaries.iter().find(|s| s.stage == Stage::Measure).expect("measure summarized");
        assert_eq!(measure.count, 1);
        assert_eq!(measure.p99_nanos, 8_192_000, "5 ms lands under the ~8.2 ms bound");
    }

    #[test]
    fn slow_log_captures_only_over_threshold() {
        let tracer = Tracer::with_epoch(2);
        let trace = tracer.begin();
        tracer.finish(&trace, "fast", 0.1, "test");
        assert!(tracer.slow_queries().is_empty(), "threshold 0 disables capture");

        tracer.set_slow_threshold(1); // 1 ns: everything is slow
        let mut trace = tracer.begin();
        trace.add(Stage::Measure, 123);
        std::thread::sleep(std::time::Duration::from_millis(1));
        tracer.finish(&trace, "slow", 0.1, "test");
        let records = tracer.slow_queries();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].fingerprint, "slow");
        assert_eq!(records[0].route, "test");
        assert_eq!(records[0].stage_nanos[Stage::Measure.index()], 123);
        assert!(records[0].total_nanos >= 1_000_000);
    }

    #[test]
    fn stage_sink_records_through_the_trait_object() {
        let tracer = Tracer::with_epoch(3);
        let mut trace = tracer.begin();
        {
            let sink: &mut dyn StageSink = &mut trace;
            sink.record_stage(Stage::NuLookup, 10);
            sink.record_stage(Stage::NuLookup, 32);
        }
        assert_eq!(trace.stage_nanos(Stage::NuLookup), 42);
    }
}
