//! In-process replay of a workload's op sequence against a
//! [`QueryService`] built with `netd`'s exact options.
//!
//! Each op makes the calls `netd` makes for a frame, minus the
//! sockets: the client's request encode, the server's decode, the
//! service call, the reply encode, `finish_trace`, and the client's
//! reply decode. The replay serves three purposes:
//!
//! * **reference** — the bits every wire reply is checked against;
//! * **untraced** — the same calls timed per op only, the in-process
//!   baseline behind `net.residual_us` and `trace.overhead_pct`;
//! * **traced** — spans around each call into a layer, kept in memory
//!   and written out at the end. The service's own [`RequestTrace`]
//!   supplies the stage children (so tracing adds nothing inside the
//!   program), and for every plan build and write the replay re-times
//!   `compile`, `cq::execute`, `prepare_batch`, `Database::clone`,
//!   `apply_batch` and `database_digest` on the pinned snapshot to
//!   split the service's lumped `prepare` and `write_apply` stages.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use qarith_core::{AnswerWithCertainty, CertaintyEngine};
use qarith_engine::cq;
use qarith_net::frame::{self, ErrorKind, Request};
use qarith_serve::{QueryService, Snapshot};
use qarith_trace::{RequestTrace, Stage};
use qarith_types::{Catalog, WriteBatch};

use crate::check::Outcome;
use crate::stream::{Op, Stream};
use crate::{serving_options, Workload};

/// The read stages [`QueryService::query_with_trace`] records, with
/// their span names, in pipeline order.
const READ_STAGES: [(Stage, &str); 7] = [
    (Stage::AdmissionWait, "stage.admission_wait"),
    (Stage::Fingerprint, "stage.fingerprint"),
    (Stage::PlanLookup, "stage.plan_lookup"),
    (Stage::Prepare, "stage.prepare"),
    (Stage::NuLookup, "stage.nu_lookup"),
    (Stage::Measure, "stage.measure"),
    (Stage::Rehydrate, "stage.rehydrate"),
];

/// The write stages [`QueryService::apply_with_trace`] records.
const WRITE_STAGES: [(Stage, &str); 2] =
    [(Stage::WriteApply, "stage.write_apply"), (Stage::Invalidate, "stage.invalidate")];

/// The layers of the ledger, in reporting order; `unattributed` is the
/// root span's self time (replay glue between the layer calls).
pub const LAYERS: [&str; 7] = ["net", "serve", "sql", "engine", "core", "types", "unattributed"];

/// The layer a span's self time belongs to.
pub fn layer_of(span: &str) -> &'static str {
    match span {
        "op" => "unattributed",
        "stage.fingerprint" | "sql.compile" => "sql",
        "engine.cq" => "engine",
        "core.prepare_batch" | "stage.nu_lookup" | "stage.measure" | "stage.rehydrate" => "core",
        "types.db_clone" | "types.apply_batch" => "types",
        s if s.starts_with("net.") => "net",
        // serve.query/apply/finish_trace/digest, admission, plan
        // lookup, invalidation, and what remains of the lumped prepare
        // and write_apply stages after their re-timed children.
        _ => "serve",
    }
}

/// One span: a named interval inside one op (`rid` is the op index).
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// The op this span belongs to.
    pub rid: usize,
    /// Index of the parent span in the same log.
    pub parent: Option<usize>,
    /// Span name (`layer.call` or `stage.<name>`).
    pub name: &'static str,
    /// Start, in nanoseconds since the replay began.
    pub start: u64,
    /// End, in nanoseconds since the replay began.
    pub end: u64,
}

/// A replay's spans, in memory until the run ends. Disabled logs
/// record nothing.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
}

impl SpanLog {
    fn new(enabled: bool, origin: Instant) -> SpanLog {
        SpanLog { enabled, origin, spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, rid: usize, parent: Option<usize>) -> usize {
        if !self.enabled {
            return 0;
        }
        let start = self.now();
        self.spans.push(SpanRec { rid, parent, name, start, end: start });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        if self.enabled {
            self.spans[span].end = self.now();
        }
    }

    /// A child known only by its duration, laid out from `start`.
    fn child(&mut self, name: &'static str, parent: usize, start: u64, nanos: u64) -> usize {
        let rid = self.spans[parent].rid;
        self.spans.push(SpanRec { rid, parent: Some(parent), name, start, end: start + nanos });
        self.spans.len() - 1
    }

    /// Adds the recorded `stages` of `trace` as back-to-back children
    /// of `parent`, in pipeline order (the trace keeps durations only).
    /// Returns the span index of each stage that ran.
    fn stage_children(
        &mut self,
        trace: &RequestTrace,
        stages: &[(Stage, &'static str)],
        parent: usize,
    ) -> Vec<(Stage, usize)> {
        if !self.enabled {
            return Vec::new();
        }
        let mut at = self.spans[parent].start;
        let mut out = Vec::new();
        for &(stage, name) in stages {
            let nanos = trace.stage_nanos(stage);
            if nanos > 0 {
                out.push((stage, self.child(name, parent, at, nanos)));
                at += nanos;
            }
        }
        out
    }

    /// Self time (duration minus children's durations) summed per span
    /// name and per layer, plus each name's (count, total duration).
    pub fn fold(&self, into: &mut SpanTotals) {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.end - s.start;
            }
        }
        for (s, child) in self.spans.iter().zip(children) {
            let own = (s.end - s.start) as i64 - child as i64;
            *into.layer.entry(layer_of(s.name)).or_default() += own;
            let e = into.by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end - s.start;
        }
    }
}

/// Span aggregates over a whole traced replay.
#[derive(Debug, Default)]
pub struct SpanTotals {
    /// Self nanoseconds per layer (may be negative where a re-timed
    /// child ran longer than its share of the lumped stage).
    pub layer: BTreeMap<&'static str, i64>,
    /// (count, total nanoseconds) per span name.
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
}

impl SpanTotals {
    /// Total nanoseconds of spans named `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.1)
    }
}

/// Counters of one read, from the in-process response.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReadStat {
    /// The plan came from the plan cache.
    pub plan_cached: bool,
    /// Distinct formula groups.
    pub groups: u64,
    /// Groups measured (ν-cache misses).
    pub measured: u64,
    /// Groups served by the ν-cache.
    pub cache_hits: u64,
    /// Candidates not flagged certain by the executor.
    pub uncertain: u64,
    /// Σ samples over freshly measured answers.
    pub directions: u64,
    /// Freshly measured answers that were sampled.
    pub sampled: u64,
    /// Reply payload bytes.
    pub reply_bytes: u64,
}

/// Counters of one write.
#[derive(Clone, Copy, Debug, Default)]
pub struct WriteStat {
    /// Distinct ν-cache group keys invalidated.
    pub invalidated_keys: u64,
    /// Cached plans dropped.
    pub plans_invalidated: u64,
}

/// One replayed op.
#[derive(Clone, Debug)]
pub struct OpStat {
    /// Op index in the workload's sequence.
    pub k: usize,
    /// Duration from request encode to decoded reply.
    pub nanos: u64,
    /// What the decoded reply said.
    pub outcome: Outcome,
    /// Read counters (reads only).
    pub read: Option<ReadStat>,
    /// Write counters (writes only).
    pub write: Option<WriteStat>,
    /// Candidates `cq::execute` returned when a traced read missed the
    /// plan cache and the replay re-timed the plan build.
    pub plan_candidates: Option<u64>,
}

/// Which ops a replay runs.
#[derive(Clone, Debug)]
pub enum Ops {
    /// Ops `0..n` of the sequence.
    Prefix(usize),
    /// These ops, in this order.
    List(Vec<usize>),
}

impl Ops {
    fn get(&self, i: usize) -> Option<usize> {
        match self {
            Ops::Prefix(n) => (i < *n).then_some(i),
            Ops::List(list) => list.get(i).copied(),
        }
    }
}

/// A finished replay.
#[derive(Debug)]
pub struct ReplayRun {
    /// Every op run, sorted by op index.
    pub ops: Vec<OpStat>,
    /// Every read's answers, by op index, when the replay kept them.
    pub kept: Vec<(usize, Vec<AnswerWithCertainty>)>,
    /// The replay's spans (empty when untraced).
    pub log: SpanLog,
    /// (epoch, database digest) of epoch 0.
    pub initial: (u64, u64),
    /// Plans evicted during the replayed ops.
    pub plan_evictions: u64,
    /// ν-cache resident bytes at the end.
    pub nu_resident_bytes: u64,
}

impl ReplayRun {
    /// The work counts that repeat exactly across replays of one seed
    /// on `warm` and `write_mix`: plan hits and misses, ν hits and
    /// misses (groups measured), directions drawn, invalidated keys and
    /// plans, and reply bytes.
    pub fn counts(&self) -> [(&'static str, u64); 8] {
        let mut c = [0u64; 8];
        for op in &self.ops {
            if let Some(r) = op.read {
                c[usize::from(!r.plan_cached)] += 1;
                c[2] += r.cache_hits;
                c[3] += r.measured;
                c[4] += r.directions;
                c[7] += r.reply_bytes;
            }
            if let Some(w) = op.write {
                c[5] += w.invalidated_keys;
                c[6] += w.plans_invalidated;
            }
        }
        [
            ("plan_hits", c[0]),
            ("plan_misses", c[1]),
            ("nu_hits", c[2]),
            ("nu_misses", c[3]),
            ("directions", c[4]),
            ("invalidated_keys", c[5]),
            ("plans_invalidated", c[6]),
            ("reply_bytes", c[7]),
        ]
    }
}

/// Replays `ops` of `stream` in order, one at a time like the wire
/// run's single connection, against a fresh service for `workload`
/// under `seed`, after the same untimed warm-up the wire run does,
/// keeping every read's answers when `keep` is set.
pub fn replay(
    workload: Workload,
    seed: u64,
    stream: &Stream,
    ops: &Ops,
    traced: bool,
    keep: bool,
) -> ReplayRun {
    let db = crate::database(workload, seed);
    let catalog = db.catalog();
    let service = crate::service(db, seed);
    let initial = {
        let snap = service.snapshot().expect("fresh service has a snapshot");
        (snap.epoch, snap.digest)
    };
    let runner = OpRunner {
        service: &service,
        catalog: &catalog,
        engine: CertaintyEngine::new(serving_options(seed)),
        origin: Instant::now(),
    };
    for sql in stream.warmup() {
        let _ = service.query(sql);
    }
    let evictions_before = service.stats().plan_evictions;
    let mut log = SpanLog::new(traced, runner.origin);
    let mut ops_out = Vec::new();
    let mut kept = Vec::new();
    for k in (0..).map_while(|i| ops.get(i)) {
        let Some(op) = stream.op(k) else { break };
        let (stat, answers) = runner.run(k, op, &mut log, keep);
        ops_out.push(stat);
        if let Some(a) = answers {
            kept.push((k, a));
        }
    }
    ops_out.sort_by_key(|s| s.k);
    kept.sort_by_key(|(k, _)| *k);
    ReplayRun {
        ops: ops_out,
        kept,
        log,
        initial,
        plan_evictions: service.stats().plan_evictions - evictions_before,
        nu_resident_bytes: service.cache_stats().resident_bytes,
    }
}

/// Makes one op's calls.
struct OpRunner<'a> {
    service: &'a QueryService,
    catalog: &'a Catalog,
    /// Prepares plans for the re-timed split (no ν-cache attached).
    engine: CertaintyEngine,
    origin: Instant,
}

impl OpRunner<'_> {
    fn run(
        &self,
        k: usize,
        op: Op<'_>,
        log: &mut SpanLog,
        keep: bool,
    ) -> (OpStat, Option<Vec<AnswerWithCertainty>>) {
        match op {
            Op::Read(sql) => self.read(k, &sql, log, keep),
            Op::Write(batch) => (self.write(k, batch, log), None),
        }
    }

    fn read(
        &self,
        k: usize,
        sql: &str,
        log: &mut SpanLog,
        keep: bool,
    ) -> (OpStat, Option<Vec<AnswerWithCertainty>>) {
        let root = log.open("op", k, None);
        let begun = Instant::now();
        let s = log.open("net.encode_request", k, Some(root));
        let payload = frame::encode_request(&Request { epsilon: None, sql: sql.to_string() });
        log.close(s);
        let mut trace = self.service.begin_trace();
        let s = log.open("net.decode_request", k, Some(root));
        let request = {
            let _span = trace.span(Stage::FrameDecode);
            frame::decode_request(payload.as_bytes())
        };
        log.close(s);
        let served = log.open("serve.query", k, Some(root));
        let result = match &request {
            Ok(request) => self.service.query_with_trace(&request.sql, &mut trace).map_err(|e| {
                frame::encode_error(ErrorKind::of_serve_kind(e.kind()), &e.to_string())
            }),
            Err(msg) => Err(frame::encode_error(ErrorKind::Proto, msg)),
        };
        log.close(served);
        let s = log.open("net.encode_reply", k, Some(root));
        let reply = match &result {
            Ok(response) => {
                let _span = trace.span(Stage::FrameEncode);
                frame::encode_reply(response)
            }
            Err(error) => error.clone(),
        };
        log.close(s);
        let s = log.open("serve.finish_trace", k, Some(root));
        let fingerprint = result.as_ref().map_or("", |r| r.fingerprint.as_str());
        self.service.finish_trace(&trace, fingerprint, "wire");
        log.close(s);
        let s = log.open("net.decode_reply", k, Some(root));
        let decoded = frame::decode_reply(reply.as_bytes());
        log.close(s);
        let nanos = begun.elapsed().as_nanos() as u64;
        log.close(root);

        let outcome = match &decoded {
            Ok(decoded) => Outcome::of_decoded(decoded),
            Err(msg) => Outcome::Failed(format!("undecodable reply: {msg}")),
        };
        let stages = log.stage_children(&trace, &READ_STAGES, served);
        let Ok(response) = result else {
            return (
                OpStat { k, nanos, outcome, read: None, write: None, plan_candidates: None },
                None,
            );
        };
        let fresh = response.answers.iter().filter(|a| !a.certainty.cached);
        let read = ReadStat {
            plan_cached: response.plan_cached,
            groups: response.stats.groups as u64,
            measured: response.stats.measured as u64,
            cache_hits: response.stats.cache_hits as u64,
            uncertain: (response.stats.candidates - response.stats.certain) as u64,
            directions: fresh.clone().map(|a| a.certainty.samples as u64).sum(),
            sampled: fresh.filter(|a| a.certainty.samples > 0).count() as u64,
            reply_bytes: reply.len() as u64,
        };
        let prepare = stages.iter().find(|(stage, _)| *stage == Stage::Prepare);
        let plan_candidates = match prepare {
            Some(&(_, span)) if log.enabled => Some(self.retime_plan_build(sql, span, log)),
            _ => None,
        };
        let answers = keep.then(|| response.answers.clone());
        (OpStat { k, nanos, outcome, read: Some(read), write: None, plan_candidates }, answers)
    }

    /// Re-times the three calls the service's `prepare` stage lumps
    /// together, on the snapshot the read was served from, and records
    /// them as children of that stage's span.
    /// Returns the number of candidates.
    fn retime_plan_build(&self, sql: &str, prepare: usize, log: &mut SpanLog) -> u64 {
        let snap = self.service.snapshot().expect("service snapshot");
        let mut at = log.spans[prepare].start;
        let t = Instant::now();
        let lowered = qarith_sql::compile(sql, self.catalog).expect("served SQL compiles");
        let compile = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let candidates =
            cq::execute(&lowered.query, &snap.db, &lowered.cq_options()).expect("served SQL runs");
        let join = t.elapsed().as_nanos() as u64;
        let count = candidates.len() as u64;
        let t = Instant::now();
        black_box(self.engine.prepare_batch(candidates));
        let prepare_batch = t.elapsed().as_nanos() as u64;
        for (name, nanos) in
            [("sql.compile", compile), ("engine.cq", join), ("core.prepare_batch", prepare_batch)]
        {
            log.child(name, prepare, at, nanos);
            at += nanos;
        }
        count
    }

    fn write(&self, k: usize, batch: &WriteBatch, log: &mut SpanLog) -> OpStat {
        let before: Option<Arc<Snapshot>> =
            log.enabled.then(|| self.service.snapshot().expect("service snapshot"));
        let root = log.open("op", k, None);
        let begun = Instant::now();
        let s = log.open("net.encode_write", k, Some(root));
        let payload = frame::encode_write(batch).expect("generated batches encode");
        log.close(s);
        let mut trace = self.service.begin_trace();
        let s = log.open("net.decode_write", k, Some(root));
        let decoded = {
            let _span = trace.span(Stage::FrameDecode);
            frame::decode_write(payload.as_bytes())
        };
        log.close(s);
        let applied = log.open("serve.apply", k, Some(root));
        let result = match &decoded {
            Ok(batch) => self.service.apply_with_trace(batch, &mut trace).map_err(|e| {
                frame::encode_error(ErrorKind::of_serve_kind(e.kind()), &e.to_string())
            }),
            Err(msg) => Err(frame::encode_error(ErrorKind::Proto, msg)),
        };
        log.close(applied);
        let s = log.open("net.encode_ack", k, Some(root));
        let ack = match &result {
            Ok(outcome) => {
                let rid = trace.id();
                let _span = trace.span(Stage::FrameEncode);
                frame::encode_write_ack(outcome, rid)
            }
            Err(error) => error.clone(),
        };
        log.close(s);
        let s = log.open("serve.finish_trace", k, Some(root));
        self.service.finish_trace(&trace, "", "write");
        log.close(s);
        let s = log.open("net.decode_ack", k, Some(root));
        let decoded_ack = frame::decode_reply(ack.as_bytes());
        log.close(s);
        let nanos = begun.elapsed().as_nanos() as u64;
        log.close(root);

        let outcome = match &decoded_ack {
            Ok(decoded) => Outcome::of_decoded(decoded),
            Err(msg) => Outcome::Failed(format!("undecodable ack: {msg}")),
        };
        let stages = log.stage_children(&trace, &WRITE_STAGES, applied);
        if let (Some(before), Some(&(_, span))) =
            (before, stages.iter().find(|(stage, _)| *stage == Stage::WriteApply))
        {
            retime_write(&before, batch, span, log);
        }
        let write = result.ok().map(|o| WriteStat {
            invalidated_keys: o.invalidated_keys,
            plans_invalidated: o.plans_invalidated,
        });
        OpStat { k, nanos, outcome, read: None, write, plan_candidates: None }
    }
}

/// Re-times the three calls the service's `write_apply` stage lumps
/// together, on the snapshot the write replaced.
fn retime_write(before: &Snapshot, batch: &WriteBatch, write_apply: usize, log: &mut SpanLog) {
    let mut at = log.spans[write_apply].start;
    let t = Instant::now();
    let mut db = (*before.db).clone();
    let clone = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    black_box(db.apply_batch(batch).expect("generated batches apply"));
    let apply = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    black_box(qarith_serve::database_digest(&db));
    let digest = t.elapsed().as_nanos() as u64;
    for (name, nanos) in
        [("types.db_clone", clone), ("types.apply_batch", apply), ("serve.digest", digest)]
    {
        log.child(name, write_apply, at, nanos);
        at += nanos;
    }
}

/// Writes every span as one tab-separated line: op, span index, parent
/// index (-1 for roots), name, start and end nanoseconds.
pub fn spans_tsv(log: &SpanLog) -> String {
    let mut out = String::from("op\tspan\tparent\tname\tstart_ns\tend_ns\n");
    for (i, s) in log.spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = writeln!(out, "{}\t{i}\t{parent}\t{}\t{}\t{}", s.rid, s.name, s.start, s.end);
    }
    out
}
