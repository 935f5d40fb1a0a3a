//! Request tracing for the qarith serving stack: request ids,
//! per-stage latency histograms, and a bounded slow-query log.
//!
//! The serving path (`qarith-serve`, `qarith-net`) is **bit-pinned**:
//! every measured ν must be a deterministic function of the group key
//! and the [`MeasureOptions`] fingerprint, independent of thread count,
//! wall-clock, or load. That contract makes observability awkward —
//! timing a request *requires* reading clocks, the one thing the
//! determinism policy bans from pinned code. This crate is the
//! designated home for that tension:
//!
//! * **All clock reads live here** (or behind reviewed pragmas at the
//!   instrumentation sites in `qarith-core`). `analyze.toml` lists
//!   `crates/trace/src` under both `bit_pinned` *and* `clock_allowed`:
//!   the structural determinism lints (hash iteration) still apply,
//!   only the clock-source lint is carved out — visibly, in policy,
//!   not by exempting the crate wholesale.
//! * **Trace state is write-only from pinned code.** The analyzer's
//!   `trace-flow` lint forbids bit-pinned modules outside the carve-out
//!   from calling any of the read-back methods ([`Tracer::latency_stats`],
//!   [`HistogramSnapshot::quantile`], …), so a recorded duration can
//!   never flow back into a measurement input.
//!
//! What the crate provides:
//!
//! * [`Stage`] — the canonical request stages (admission wait through
//!   frame encode), each backed by one histogram family on `/metrics`.
//! * [`RequestId`] — service epoch + atomic sequence number, minted at
//!   service entry and threaded into reply frames and slow-log records.
//! * [`Histogram`] — log-bucketed (~2× bounds, 1 µs … ~67 s),
//!   atomic-per-bucket, exactly mergeable; [`HistogramSnapshot`] adds
//!   quantile estimation against bucket upper bounds.
//! * [`Tracer`] / [`RequestTrace`] / [`Span`] — RAII span guards that
//!   accumulate per-stage durations into a per-request record, flushed
//!   to the histograms (and, over a threshold, the slow-query log) by
//!   [`Tracer::finish`].
//! * [`SlowLog`] / [`SlowRecord`] — a mutex-guarded ring buffer of
//!   structured slow-query records, dumpable as JSON (`GET /slow`).
//!
//! Everything is `std`-only; the crate has zero dependencies.
//!
//! [`MeasureOptions`]: https://docs.rs/qarith-core

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub mod hist;
pub mod slowlog;
pub mod span;

pub use hist::{bucket_bound, bucket_index, Histogram, HistogramSnapshot, BUCKETS, FINITE_BUCKETS};
pub use slowlog::{SlowLog, SlowRecord};
pub use span::{LatencyStats, RequestTrace, Span, StageSummary, Tracer, TracerSpan};

/// The canonical per-request stages, in pipeline order. Each stage is
/// one histogram family on `/metrics` (`qarith_stage_<name>_seconds`)
/// and one column of the slow-query log's per-stage breakdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Time queued at the admission gate before a permit was granted.
    AdmissionWait,
    /// SQL canonicalization into the plan-cache fingerprint.
    Fingerprint,
    /// Plan-cache probe and (on hit) LRU refresh, on either lock mode.
    PlanLookup,
    /// Grounding and batch preparation: parse/lower, candidate
    /// generation, canonicalization, interning, dedup, key building.
    Prepare,
    /// ν-cache consultation for every group key in the plan.
    NuLookup,
    /// Measuring the ν-cache misses, including cache publication.
    Measure,
    /// Rehydrating measured groups back onto per-candidate answers.
    Rehydrate,
    /// Wire path only: decoding the request frame payload.
    FrameDecode,
    /// Wire path only: encoding the reply frame payload.
    FrameEncode,
    /// Write path only: building and publishing the next epoch
    /// snapshot (clone, op application, digest, pointer swap).
    WriteApply,
    /// Write path only: plan invalidation after an epoch swap (the
    /// ν-cache keeps its entries across writes).
    Invalidate,
    /// End-to-end request time from `begin` to `finish`.
    Total,
}

impl Stage {
    /// Number of stages ([`Stage::ALL`] length).
    pub const COUNT: usize = 12;

    /// Every stage, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::AdmissionWait,
        Stage::Fingerprint,
        Stage::PlanLookup,
        Stage::Prepare,
        Stage::NuLookup,
        Stage::Measure,
        Stage::Rehydrate,
        Stage::FrameDecode,
        Stage::FrameEncode,
        Stage::WriteApply,
        Stage::Invalidate,
        Stage::Total,
    ];

    /// The stage's snake_case name, as used in metric family names and
    /// slow-log JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            Stage::AdmissionWait => "admission_wait",
            Stage::Fingerprint => "fingerprint",
            Stage::PlanLookup => "plan_lookup",
            Stage::Prepare => "prepare",
            Stage::NuLookup => "nu_lookup",
            Stage::Measure => "measure",
            Stage::Rehydrate => "rehydrate",
            Stage::FrameDecode => "frame_decode",
            Stage::FrameEncode => "frame_encode",
            Stage::WriteApply => "write_apply",
            Stage::Invalidate => "invalidate",
            Stage::Total => "total",
        }
    }

    /// A one-line description, used in `# HELP` lines and the README
    /// stage glossary.
    pub fn what(self) -> &'static str {
        match self {
            Stage::AdmissionWait => "time queued at the admission gate before a permit",
            Stage::Fingerprint => "SQL canonicalization into the plan-cache fingerprint",
            Stage::PlanLookup => "plan-cache probe and LRU refresh",
            Stage::Prepare => "grounding and batch preparation (parse, candidates, dedup, keys)",
            Stage::NuLookup => "nu-cache consultation for every group in the plan",
            Stage::Measure => "measuring the nu-cache misses, including cache publication",
            Stage::Rehydrate => "rehydrating measured groups onto per-candidate answers",
            Stage::FrameDecode => "wire request frame decode",
            Stage::FrameEncode => "wire reply frame encode",
            Stage::WriteApply => "building and publishing the next epoch snapshot",
            Stage::Invalidate => "plan invalidation after an epoch swap",
            Stage::Total => "end-to-end request time",
        }
    }

    /// The stage's index into [`Stage::ALL`]-ordered arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A request identity: the tracer's service epoch (unix seconds at
/// construction) plus a per-tracer atomic sequence number. Minted by
/// [`Tracer::begin`] at service entry, threaded into wire reply frames
/// (`rid=`) and slow-log records. Unique within a service process and
/// distinguishable across restarts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RequestId {
    /// The tracer's service epoch (unix seconds at construction).
    pub epoch: u64,
    /// Sequence number within the epoch, starting at 1.
    pub seq: u64,
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:x}-{}", self.epoch, self.seq)
    }
}

impl RequestId {
    /// Parses the `epoch-seq` form produced by [`Display`](fmt::Display)
    /// (hex epoch, decimal sequence), as carried in reply frames.
    pub fn parse(s: &str) -> Option<RequestId> {
        let (epoch, seq) = s.split_once('-')?;
        Some(RequestId { epoch: u64::from_str_radix(epoch, 16).ok()?, seq: seq.parse().ok()? })
    }
}

/// A sink for per-stage durations. `qarith-core`'s
/// `CertaintyEngine::execute_plan` takes a `&mut dyn StageSink`, so the
/// core crate records stage timings without depending on the full
/// tracer surface; [`RequestTrace`] is the canonical implementation.
pub trait StageSink {
    /// Adds `nanos` to the running duration of `stage`.
    fn record_stage(&mut self, stage: Stage, nanos: u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_index_matches_all_order() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
        assert_eq!(Stage::ALL.len(), Stage::COUNT);
    }

    #[test]
    fn stage_names_are_unique_snake_case() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::COUNT);
        for name in names {
            assert!(name.chars().all(|c| c.is_ascii_lowercase() || c == '_'), "{name}");
        }
    }

    #[test]
    fn request_id_round_trips_through_display() {
        let id = RequestId { epoch: 0x689a_bcde, seq: 42 };
        assert_eq!(id.to_string(), "689abcde-42");
        assert_eq!(RequestId::parse("689abcde-42"), Some(id));
        assert_eq!(RequestId::parse("nope"), None);
        assert_eq!(RequestId::parse("12-x"), None);
    }
}
