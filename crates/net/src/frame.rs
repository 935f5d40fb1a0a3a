//! The wire grammar: length-prefixed frames carrying line-oriented
//! UTF-8 request and response payloads.
//!
//! # Framing
//!
//! Every message is one **frame**: a 4-byte big-endian payload length
//! `N` followed by exactly `N` payload bytes. `N = 0` and
//! `N >` [the configured cap](crate::NetConfig::max_frame_bytes) are
//! framing errors: the server answers with a structured `err` frame
//! and closes the connection, because a stream whose framing cannot be
//! trusted cannot be resynchronized. Errors *inside* a well-framed
//! payload (bad UTF-8, a malformed header, rejected SQL) are answered
//! with an `err` frame and the connection stays usable — framing is
//! the recovery boundary.
//!
//! One deliberate carve-out: a connection whose first four bytes are
//! ASCII `GET ` is an HTTP/1.x-subset client (interpreted as a length
//! prefix those bytes would demand a 1.2 GB frame, so the overlap is
//! unambiguous under any sane cap); the server switches to the
//! [`/metrics`](crate::metrics) path for that connection.
//!
//! # Request payload
//!
//! ```text
//! qarith-query/1 [key=value]...\n
//! <SQL text, until end of payload>
//! ```
//!
//! Recognized options: `epsilon=<float>` — the client's expected
//! additive error bound. The serving ε is fixed per service (it is
//! part of the ν-cache fingerprint), so a mismatched `epsilon` is
//! answered with `err kind=proto` naming the served value rather than
//! silently serving different-precision answers. Unknown keys are
//! `proto` errors too: a client asking for an option this server does
//! not implement must hear "no", not get defaults.
//!
//! # Write payload
//!
//! A frame whose payload starts with `qarith-write/1` carries a
//! [`WriteBatch`] instead of a query. Framing and error-recovery rules
//! are identical — a malformed write payload is a survivable `proto`
//! error, a framing violation closes the connection:
//!
//! ```text
//! qarith-write/1 ops=<n>\n
//! ins <relation>\t<value>...\n
//! del <relation>\t<value>...\n
//! upd <relation>\t<old value>...\t=>\t<new value>...\n
//! ```
//!
//! Fields after the opcode are tab-separated (display forms of values
//! contain spaces). Value tokens are sort-tagged: `z:<i64>` and
//! `s:<text>` for base constants, `q:<numer>/<denom>` for exact
//! numerical constants, `B:<id>`/`N:<id>` for base/numerical marked
//! nulls — a write may introduce fresh nulls, which is how an
//! incomplete database stays incomplete as it evolves. The ack is a
//! header-only reply naming the epoch the batch published and how many
//! cached plans it dropped (a write drops no ν-cache entry):
//!
//! ```text
//! qarith-reply/1 ok kind=write epoch=<n> db=<16 hex> applied=<n> noops=<n> inv_plans=<n> rid=<epoch-hex>-<seq>\n
//! ```
//!
//! # Response payload
//!
//! Success:
//!
//! ```text
//! qarith-reply/1 ok answers=<n> kind=point plan_cached=<0|1> epoch=<n> db=<16 hex> rid=<epoch-hex>-<seq>\n
//! fp <template fingerprint>\n
//! a nu=<decimal> bits=<16 hex> samples=<n> dim=<n> flags=<[c][r] or -> tuple=<display>\n   (× n)
//! stats candidates=<n> groups=<n> measured=<n> dedup_hits=<n> cache_hits=<n>\n
//! ```
//!
//! The fingerprint is normalized SQL text (it contains spaces), so it
//! gets a whole line rather than a `key=value` slot in the header.
//! `rid=` is the server-minted [`qarith_trace::RequestId`] of this
//! request — quote it when reporting a slow query so the operator can
//! find the matching [`/slow`](crate::metrics) record. `epoch=`/`db=`
//! name the database snapshot the answers are pinned to (the mutation
//! torture suite matches `db` against published epoch digests). The
//! decoder tolerates the absence of all three (pre-tracing and
//! pre-write servers never sent them).
//!
//! Only the header line is rendered per request when the plan came
//! from the plan cache and the execution measured nothing: everything
//! after it then depends on the plan alone, so it is rendered once into
//! the plan-cache entry's render slot and re-sent from there
//! ([`encode_reply`]). The bytes are those of a fresh render.
//!
//! `bits` is the IEEE-754 bit pattern of ν and is the authoritative
//! value — the torture and bit-identity suites compare it against
//! in-process execution; `nu` is the same number for human eyes.
//! `flags` is provenance (`c` ν-cache/dedup hit, `r` rewritten), never
//! identity. `kind=point` leaves room for the planned
//! `kind=interval lo=… hi=…` form of the Console–Libkin–Peterfreund
//! [certain, possible]-answer semantics (PAPERS.md) without a frame
//! change.
//!
//! Error:
//!
//! ```text
//! qarith-reply/1 err kind=<frame|proto|sql|measure|write|internal|shutdown>\n
//! <human-readable message>
//! ```
//!
//! The taxonomy: `frame` (framing violated; connection closes),
//! `proto` (malformed request payload; connection survives),
//! `sql`/`measure`/`write`/`internal` (the [`ServeError`] classes of
//! [`qarith_serve::ServeError::kind`]; connection survives), and
//! `shutdown` (the server is draining; connection closes).
//!
//! [`ServeError`]: qarith_serve::ServeError

use std::fmt::Write as _;

use qarith_numeric::Rational;
use qarith_serve::{QueryResponse, WriteOutcome};
use qarith_types::{Value, WriteBatch, WriteOp};

/// Bytes of the frame length prefix.
pub const HEADER_LEN: usize = 4;

/// One frame: the 4-byte big-endian length of `payload`, then the
/// payload, in one buffer, so that it goes out in one write. `None`
/// when the length does not fit the prefix.
pub fn framed(payload: &[u8]) -> Option<Vec<u8>> {
    let len = u32::try_from(payload.len()).ok()?;
    let mut framed = Vec::with_capacity(HEADER_LEN + payload.len());
    framed.extend_from_slice(&len.to_be_bytes());
    framed.extend_from_slice(payload);
    Some(framed)
}

/// Magic leading the request header line.
pub const REQUEST_MAGIC: &str = "qarith-query/1";

/// Magic leading a write-batch payload.
pub const WRITE_MAGIC: &str = "qarith-write/1";

/// Magic leading the response header line.
pub const REPLY_MAGIC: &str = "qarith-reply/1";

/// The four bytes that divert a connection to the HTTP `/metrics`
/// handler when they arrive where a length prefix is expected.
pub const HTTP_GET: [u8; 4] = *b"GET ";

/// Machine-readable error classes of the `err` response (see the
/// module docs for the taxonomy). Stable wire strings: renaming one is
/// a protocol-breaking change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// Framing violated (zero or oversized length prefix); the
    /// connection closes after this reply.
    Frame,
    /// Well-framed but malformed payload; the connection survives.
    Proto,
    /// The service rejected the SQL text.
    Sql,
    /// Candidate generation or measurement failed.
    Measure,
    /// A write batch was rejected (unknown relation, arity or sort
    /// mismatch); nothing was applied.
    Write,
    /// A serving-layer fault the client cannot fix.
    Internal,
    /// The server is draining; the connection closes after this reply.
    Shutdown,
}

impl ErrorKind {
    /// The stable wire string.
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::Frame => "frame",
            ErrorKind::Proto => "proto",
            ErrorKind::Sql => "sql",
            ErrorKind::Measure => "measure",
            ErrorKind::Write => "write",
            ErrorKind::Internal => "internal",
            ErrorKind::Shutdown => "shutdown",
        }
    }

    /// Parses a wire string produced by [`ErrorKind::name`].
    pub fn parse(s: &str) -> Option<ErrorKind> {
        match s {
            "frame" => Some(ErrorKind::Frame),
            "proto" => Some(ErrorKind::Proto),
            "sql" => Some(ErrorKind::Sql),
            "measure" => Some(ErrorKind::Measure),
            "write" => Some(ErrorKind::Write),
            "internal" => Some(ErrorKind::Internal),
            "shutdown" => Some(ErrorKind::Shutdown),
            _ => None,
        }
    }

    /// The [`qarith_serve::ServeError::kind`] classes, mapped onto the
    /// wire taxonomy.
    pub fn of_serve_kind(kind: &str) -> ErrorKind {
        match kind {
            "sql" => ErrorKind::Sql,
            "measure" => ErrorKind::Measure,
            "write" => ErrorKind::Write,
            _ => ErrorKind::Internal,
        }
    }
}

/// A parsed request payload.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// The client's expected ε, when the header carried `epsilon=`.
    pub epsilon: Option<f64>,
    /// The SQL text (everything after the header line).
    pub sql: String,
}

/// Encodes a request payload (the client half; the server only
/// decodes).
pub fn encode_request(request: &Request) -> String {
    let mut header = REQUEST_MAGIC.to_string();
    if let Some(eps) = request.epsilon {
        header.push_str(&format!(" epsilon={eps}"));
    }
    format!("{header}\n{}", request.sql)
}

/// Decodes a request payload. Every failure is a [`ErrorKind::Proto`]
/// message (the framing was fine; only the payload is malformed).
pub fn decode_request(payload: &[u8]) -> Result<Request, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("payload is not UTF-8: {e}"))?;
    let (header, sql) = match text.split_once('\n') {
        Some(split) => split,
        None => (text, ""),
    };
    let mut words = header.split_ascii_whitespace();
    if words.next() != Some(REQUEST_MAGIC) {
        return Err(format!("request header must start with `{REQUEST_MAGIC}`"));
    }
    let mut epsilon = None;
    for option in words {
        let Some((key, value)) = option.split_once('=') else {
            return Err(format!("malformed option `{option}` (expected key=value)"));
        };
        match key {
            "epsilon" => match value.parse::<f64>() {
                Ok(eps) if eps.is_finite() && eps > 0.0 => epsilon = Some(eps),
                _ => return Err(format!("epsilon `{value}` is not a positive finite number")),
            },
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if sql.trim().is_empty() {
        return Err("empty SQL text".to_string());
    }
    Ok(Request { epsilon, sql: sql.to_string() })
}

/// One sort-tagged value token (see the module docs' write grammar).
/// Fails on strings containing tab or newline — the op-line field
/// separators — rather than inventing an escape syntax.
fn encode_value(value: &Value) -> Result<String, String> {
    Ok(match value {
        Value::Base(qarith_types::BaseValue::Int(i)) => format!("z:{i}"),
        Value::Base(qarith_types::BaseValue::Str(s)) => {
            if s.contains('\t') || s.contains('\n') {
                return Err(format!("string value {s:?} contains a field separator"));
            }
            format!("s:{s}")
        }
        Value::Num(q) => format!("q:{}/{}", q.numer(), q.denom()),
        Value::BaseNull(id) => format!("B:{}", id.0),
        Value::NumNull(id) => format!("N:{}", id.0),
    })
}

fn decode_value(token: &str) -> Result<Value, String> {
    let (tag, rest) =
        token.split_once(':').ok_or_else(|| format!("value token `{token}` without a sort tag"))?;
    match tag {
        "z" => {
            rest.parse::<i64>().map(Value::int).map_err(|_| format!("malformed integer `{rest}`"))
        }
        "s" => Ok(Value::str(rest)),
        "q" => {
            let (num, den) = rest
                .split_once('/')
                .ok_or_else(|| format!("rational `{rest}` must be numer/denom"))?;
            let num = num.parse::<i128>().map_err(|_| format!("malformed numerator `{num}`"))?;
            let den = den.parse::<i128>().map_err(|_| format!("malformed denominator `{den}`"))?;
            Rational::checked_new(num, den)
                .map(Value::Num)
                .map_err(|e| format!("invalid rational `{rest}`: {e}"))
        }
        "B" => rest
            .parse::<u32>()
            .map(|id| Value::BaseNull(qarith_types::BaseNullId(id)))
            .map_err(|_| format!("malformed base-null id `{rest}`")),
        "N" => rest
            .parse::<u32>()
            .map(|id| Value::NumNull(qarith_types::NumNullId(id)))
            .map_err(|_| format!("malformed num-null id `{rest}`")),
        other => Err(format!("unknown sort tag `{other}`")),
    }
}

fn encode_values(values: &[Value]) -> Result<String, String> {
    let tokens: Result<Vec<String>, String> = values.iter().map(encode_value).collect();
    Ok(tokens?.join("\t"))
}

/// Encodes a write-batch payload (the client half). Fails only on
/// values the grammar cannot carry (strings containing tab/newline).
pub fn encode_write(batch: &WriteBatch) -> Result<String, String> {
    let mut out = format!("{WRITE_MAGIC} ops={}\n", batch.ops.len());
    for op in &batch.ops {
        match op {
            WriteOp::Insert { relation, values } => {
                out.push_str(&format!("ins {relation}\t{}\n", encode_values(values)?));
            }
            WriteOp::Delete { relation, values } => {
                out.push_str(&format!("del {relation}\t{}\n", encode_values(values)?));
            }
            WriteOp::Update { relation, old, new } => {
                out.push_str(&format!(
                    "upd {relation}\t{}\t=>\t{}\n",
                    encode_values(old)?,
                    encode_values(new)?,
                ));
            }
        }
    }
    Ok(out)
}

/// Decodes a write-batch payload. Every failure is an
/// [`ErrorKind::Proto`] message, exactly like [`decode_request`] — the
/// framing was fine, only the payload is malformed; type errors
/// against the actual schemas surface later as [`ErrorKind::Write`].
pub fn decode_write(payload: &[u8]) -> Result<WriteBatch, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("payload is not UTF-8: {e}"))?;
    let (header, body) = match text.split_once('\n') {
        Some(split) => split,
        None => (text, ""),
    };
    let mut words = header.split_ascii_whitespace();
    if words.next() != Some(WRITE_MAGIC) {
        return Err(format!("write header must start with `{WRITE_MAGIC}`"));
    }
    let mut declared = None;
    for option in words {
        let Some((key, value)) = option.split_once('=') else {
            return Err(format!("malformed option `{option}` (expected key=value)"));
        };
        match key {
            "ops" => {
                declared = Some(
                    value.parse::<usize>().map_err(|_| format!("malformed ops count `{value}`"))?,
                );
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let declared = declared.ok_or("write header without ops=")?;
    let mut batch = WriteBatch::new();
    for line in body.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let (opcode, rest) =
            line.split_once(' ').ok_or_else(|| format!("op line without an opcode: `{line}`"))?;
        let mut fields = rest.split('\t');
        let relation = fields.next().unwrap_or("");
        if relation.is_empty() {
            return Err(format!("op line without a relation: `{line}`"));
        }
        match opcode {
            "ins" | "del" => {
                let values: Result<Vec<Value>, String> = fields.map(decode_value).collect();
                let values = values?;
                if values.is_empty() {
                    return Err(format!("`{opcode}` op without values: `{line}`"));
                }
                if opcode == "ins" {
                    batch.insert(relation, values);
                } else {
                    batch.delete(relation, values);
                }
            }
            "upd" => {
                let mut old = Vec::new();
                let mut new = Vec::new();
                let mut after_arrow = false;
                for field in fields {
                    if field == "=>" {
                        if after_arrow {
                            return Err(format!("`upd` op with two `=>`: `{line}`"));
                        }
                        after_arrow = true;
                    } else if after_arrow {
                        new.push(decode_value(field)?);
                    } else {
                        old.push(decode_value(field)?);
                    }
                }
                if !after_arrow || old.is_empty() || new.is_empty() {
                    return Err(format!("`upd` op must be old\\t=>\\tnew: `{line}`"));
                }
                batch.update(relation, old, new);
            }
            other => return Err(format!("unknown write opcode `{other}`")),
        }
    }
    if batch.ops.len() != declared {
        return Err(format!("write declared {declared} ops but carried {}", batch.ops.len()));
    }
    Ok(batch)
}

/// A decoded write acknowledgement — the wire form of
/// [`WriteOutcome`], plus the server-minted request id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteAck {
    /// The epoch the batch published.
    pub epoch: u64,
    /// Content digest of the published database.
    pub db_digest: u64,
    /// Ops that changed the database.
    pub applied: u64,
    /// Well-typed no-op ops.
    pub noops: u64,
    /// Cached plans dropped.
    pub plans_invalidated: u64,
    /// The server-minted request id, absent from pre-tracing servers.
    pub request_id: Option<qarith_trace::RequestId>,
}

/// Encodes a write acknowledgement from a committed [`WriteOutcome`].
pub fn encode_write_ack(outcome: &WriteOutcome, request_id: qarith_trace::RequestId) -> String {
    format!(
        "{REPLY_MAGIC} ok kind=write epoch={} db={:016x} applied={} noops={} inv_plans={} \
         rid={request_id}\n",
        outcome.epoch, outcome.db_digest, outcome.applied, outcome.noops, outcome.plans_invalidated,
    )
}

/// One answer line of a success reply — the μ-relevant bits the
/// bit-identity suites compare, plus provenance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireAnswer {
    /// IEEE-754 bit pattern of ν (authoritative).
    pub nu_bits: u64,
    /// Monte-Carlo samples behind the estimate.
    pub samples: u64,
    /// Dimension of the sampled direction space.
    pub dimension: u64,
    /// Provenance: served by a cache/dedup instead of fresh sampling.
    pub cached: bool,
    /// Provenance: produced by the rewrite pipeline.
    pub rewritten: bool,
    /// Display form of the candidate tuple.
    pub tuple: String,
}

/// A decoded success reply.
#[derive(Clone, Debug, PartialEq)]
pub struct Reply {
    /// Per-candidate answers, in candidate order.
    pub answers: Vec<WireAnswer>,
    /// The template fingerprint the request mapped to.
    pub fingerprint: String,
    /// Whether the template's plan came from the plan cache.
    pub plan_cached: bool,
    /// The `stats` snapshot line: `(candidates, groups, measured,
    /// dedup_hits, cache_hits)` of this execution.
    pub stats: (u64, u64, u64, u64, u64),
    /// The server-minted request id (`rid=`), absent when talking to a
    /// pre-tracing server.
    pub request_id: Option<qarith_trace::RequestId>,
    /// The epoch the answers were computed against (`epoch=`), absent
    /// when talking to a pre-write-path server.
    pub epoch: Option<u64>,
    /// Content digest of that epoch's database (`db=`), absent when
    /// talking to a pre-write-path server.
    pub db_digest: Option<u64>,
}

/// Encodes a success reply from a served [`QueryResponse`].
///
/// Only the header line varies per request. When the response carries
/// its plan's render slot ([`QueryResponse::render_slot`]), the rest of
/// the reply is rendered into the slot on first use and copied from it
/// afterwards; either way the bytes equal a fresh render.
pub fn encode_reply(response: &QueryResponse) -> String {
    let fresh;
    let body = match &response.render_slot {
        Some(slot) => slot.get_or_init(|| reply_body(response)),
        None => {
            fresh = reply_body(response);
            &fresh
        }
    };
    // The header line takes about 120 bytes.
    let mut out = String::with_capacity(128 + body.len());
    let _ = writeln!(
        out,
        "{REPLY_MAGIC} ok answers={} kind=point plan_cached={} epoch={} db={:016x} rid={}",
        response.answers.len(),
        u8::from(response.plan_cached),
        response.epoch,
        response.db_digest,
        response.request_id,
    );
    out.push_str(body);
    out
}

/// The reply after its header line: the `fp` line, one `a` line per
/// answer, and the `stats` line.
fn reply_body(response: &QueryResponse) -> String {
    let mut out = format!("fp {}\n", response.fingerprint);
    for answer in &response.answers {
        let c = &answer.certainty;
        let mut flags = String::new();
        if c.cached {
            flags.push('c');
        }
        if c.rewritten {
            flags.push('r');
        }
        if flags.is_empty() {
            flags.push('-');
        }
        out.push_str(&format!(
            "a nu={} bits={:016x} samples={} dim={} flags={flags} tuple={}\n",
            c.value,
            c.value.to_bits(),
            c.samples,
            c.dimension,
            answer.tuple,
        ));
    }
    let s = &response.stats;
    out.push_str(&format!(
        "stats candidates={} groups={} measured={} dedup_hits={} cache_hits={}\n",
        s.candidates, s.groups, s.measured, s.dedup_hits, s.cache_hits,
    ));
    out
}

/// Encodes an error reply.
pub fn encode_error(kind: ErrorKind, message: &str) -> String {
    // Keep the payload line-parseable: the message is everything after
    // the header line, newlines included.
    format!("{REPLY_MAGIC} err kind={}\n{message}\n", kind.name())
}

/// A decoded reply: success or structured error.
#[derive(Clone, Debug, PartialEq)]
pub enum Decoded {
    /// `ok` reply.
    Reply(Reply),
    /// `ok kind=write` acknowledgement.
    Write(WriteAck),
    /// `err` reply.
    Error {
        /// The taxonomy class.
        kind: ErrorKind,
        /// The human-readable message.
        message: String,
    },
}

/// Decodes a reply payload (the client half; tests and `serve_bench
/// --wire` drive it). Failures mean the *server* broke the grammar, so
/// they are plain strings for the harness to surface.
pub fn decode_reply(payload: &[u8]) -> Result<Decoded, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("reply is not UTF-8: {e}"))?;
    let (header, body) = match text.split_once('\n') {
        Some(split) => split,
        None => (text, ""),
    };
    let mut words = header.split_ascii_whitespace();
    if words.next() != Some(REPLY_MAGIC) {
        return Err(format!("reply header must start with `{REPLY_MAGIC}`"));
    }
    match words.next() {
        Some("ok") => {}
        Some("err") => {
            let kind = words
                .next()
                .and_then(|w| w.strip_prefix("kind="))
                .and_then(ErrorKind::parse)
                .ok_or("err reply without a recognized kind=")?;
            return Ok(Decoded::Error { kind, message: body.trim_end().to_string() });
        }
        other => return Err(format!("reply status must be ok|err, got {other:?}")),
    }
    let mut options = Vec::new();
    for option in words {
        let Some((key, value)) = option.split_once('=') else {
            return Err(format!("malformed reply option `{option}`"));
        };
        options.push((key, value));
    }
    let kind = options.iter().find(|(k, _)| *k == "kind").map_or("point", |(_, v)| *v);
    let request_id = match options.iter().find(|(k, _)| *k == "rid") {
        Some((_, value)) => Some(
            qarith_trace::RequestId::parse(value)
                .ok_or_else(|| format!("malformed rid `{value}`"))?,
        ),
        None => None,
    };
    if kind == "write" {
        // Header-only: every field is a header option.
        let get = |name: &str| -> Result<u64, String> {
            let (_, value) = options
                .iter()
                .find(|(k, _)| *k == name)
                .ok_or_else(|| format!("write ack without {name}="))?;
            let radix = if name == "db" { 16 } else { 10 };
            u64::from_str_radix(value, radix).map_err(|_| format!("malformed {name}=`{value}`"))
        };
        if !body.trim().is_empty() {
            return Err("write ack must be header-only".to_string());
        }
        return Ok(Decoded::Write(WriteAck {
            epoch: get("epoch")?,
            db_digest: get("db")?,
            applied: get("applied")?,
            noops: get("noops")?,
            plans_invalidated: get("inv_plans")?,
            request_id,
        }));
    }
    if kind != "point" {
        return Err(format!("unsupported answer kind `{kind}`"));
    }
    let mut expected_answers = None;
    let mut plan_cached = None;
    let mut epoch = None;
    let mut db_digest = None;
    for (key, value) in options {
        match key {
            "answers" => expected_answers = value.parse::<u64>().ok(),
            "kind" | "rid" => {} // resolved above
            "plan_cached" => plan_cached = Some(value == "1"),
            "epoch" => {
                epoch = Some(value.parse().map_err(|_| format!("malformed epoch `{value}`"))?);
            }
            "db" => {
                db_digest = Some(
                    u64::from_str_radix(value, 16)
                        .map_err(|_| format!("malformed db `{value}`"))?,
                );
            }
            other => return Err(format!("unknown reply option `{other}`")),
        }
    }
    let expected = expected_answers.ok_or("ok reply without answers=")?;
    let plan_cached = plan_cached.ok_or("ok reply without plan_cached=")?;

    let mut fingerprint = None;
    let mut answers = Vec::new();
    let mut stats = None;
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("fp ") {
            fingerprint = Some(rest.to_string());
        } else if let Some(rest) = line.strip_prefix("a ") {
            answers.push(decode_answer_line(rest)?);
        } else if let Some(rest) = line.strip_prefix("stats ") {
            stats = Some(decode_stats_line(rest)?);
        } else if !line.trim().is_empty() {
            return Err(format!("unrecognized reply line `{line}`"));
        }
    }
    let fingerprint = fingerprint.ok_or("ok reply without an fp line")?;
    if answers.len() as u64 != expected {
        return Err(format!("reply declared {expected} answers but carried {}", answers.len()));
    }
    let stats = stats.ok_or("ok reply without a stats line")?;
    Ok(Decoded::Reply(Reply {
        answers,
        fingerprint,
        plan_cached,
        stats,
        request_id,
        epoch,
        db_digest,
    }))
}

fn decode_answer_line(rest: &str) -> Result<WireAnswer, String> {
    let mut nu_bits = None;
    let mut samples = None;
    let mut dimension = None;
    let mut flags = None;
    // `tuple=` is last and may contain spaces, so cut it off first.
    let (fields, tuple) =
        rest.split_once("tuple=").ok_or_else(|| format!("answer line without tuple=: `{rest}`"))?;
    for field in fields.split_ascii_whitespace() {
        let Some((key, value)) = field.split_once('=') else {
            return Err(format!("malformed answer field `{field}`"));
        };
        match key {
            "nu" => {} // display copy of `bits`; not authoritative
            "bits" => nu_bits = u64::from_str_radix(value, 16).ok(),
            "samples" => samples = value.parse().ok(),
            "dim" => dimension = value.parse().ok(),
            "flags" => flags = Some(value.to_string()),
            other => return Err(format!("unknown answer field `{other}`")),
        }
    }
    let flags = flags.ok_or("answer line without flags=")?;
    Ok(WireAnswer {
        nu_bits: nu_bits.ok_or("answer line without a parseable bits=")?,
        samples: samples.ok_or("answer line without samples=")?,
        dimension: dimension.ok_or("answer line without dim=")?,
        cached: flags.contains('c'),
        rewritten: flags.contains('r'),
        tuple: tuple.to_string(),
    })
}

fn decode_stats_line(rest: &str) -> Result<(u64, u64, u64, u64, u64), String> {
    let get = |name: &str| -> Result<u64, String> {
        rest.split_ascii_whitespace()
            .find_map(|f| f.strip_prefix(name).and_then(|v| v.strip_prefix('=')))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("stats line without {name}=: `{rest}`"))
    };
    Ok((
        get("candidates")?,
        get("groups")?,
        get("measured")?,
        get("dedup_hits")?,
        get("cache_hits")?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let request =
            Request { epsilon: Some(0.05), sql: "SELECT P.id FROM Products P\nLIMIT 3".into() };
        let decoded = decode_request(encode_request(&request).as_bytes()).expect("round trip");
        assert_eq!(decoded, request);
        let bare = Request { epsilon: None, sql: "SELECT P.id FROM Products P".into() };
        assert_eq!(decode_request(encode_request(&bare).as_bytes()).expect("bare"), bare);
    }

    #[test]
    fn malformed_requests_are_proto_errors() {
        assert!(decode_request(b"\xff\xfe").unwrap_err().contains("UTF-8"));
        assert!(decode_request(b"not-the-magic\nSELECT 1").unwrap_err().contains("header"));
        assert!(decode_request(b"qarith-query/1 epsilon=nope\nSELECT 1")
            .unwrap_err()
            .contains("epsilon"));
        assert!(decode_request(b"qarith-query/1 deadline=5ms\nSELECT 1")
            .unwrap_err()
            .contains("unknown option"));
        assert!(decode_request(b"qarith-query/1\n   ").unwrap_err().contains("empty SQL"));
        assert!(decode_request(b"qarith-query/1 epsilon\nSELECT 1")
            .unwrap_err()
            .contains("key=value"));
    }

    #[test]
    fn error_reply_round_trips() {
        let encoded = encode_error(ErrorKind::Proto, "unknown option `deadline`");
        match decode_reply(encoded.as_bytes()).expect("decodes") {
            Decoded::Error { kind, message } => {
                assert_eq!(kind, ErrorKind::Proto);
                assert_eq!(message, "unknown option `deadline`");
            }
            other => panic!("expected an error reply, got {other:?}"),
        }
    }

    #[test]
    fn error_kinds_round_trip() {
        for kind in [
            ErrorKind::Frame,
            ErrorKind::Proto,
            ErrorKind::Sql,
            ErrorKind::Measure,
            ErrorKind::Write,
            ErrorKind::Internal,
            ErrorKind::Shutdown,
        ] {
            assert_eq!(ErrorKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(ErrorKind::parse("timeout"), None);
        assert_eq!(ErrorKind::of_serve_kind("sql"), ErrorKind::Sql);
        assert_eq!(ErrorKind::of_serve_kind("measure"), ErrorKind::Measure);
        assert_eq!(ErrorKind::of_serve_kind("write"), ErrorKind::Write);
        assert_eq!(ErrorKind::of_serve_kind("anything-else"), ErrorKind::Internal);
    }

    #[test]
    fn write_payload_round_trips_every_value_sort() {
        let mut batch = WriteBatch::new();
        batch
            .insert(
                "Products",
                vec![
                    Value::int(7),
                    Value::str("north region"),
                    Value::Num(Rational::checked_new(1, 3).unwrap()),
                    Value::NumNull(qarith_types::NumNullId(42)),
                ],
            )
            .delete("Orders", vec![Value::BaseNull(qarith_types::BaseNullId(9)), Value::num(-5)])
            .update(
                "Market",
                vec![Value::int(1), Value::num(10)],
                vec![Value::int(1), Value::Num(Rational::checked_new(-7, 2).unwrap())],
            );
        let encoded = encode_write(&batch).expect("encodes");
        assert!(encoded.starts_with("qarith-write/1 ops=3\n"));
        assert_eq!(decode_write(encoded.as_bytes()).expect("round trip"), batch);
    }

    #[test]
    fn strings_with_separators_are_encode_errors() {
        let mut batch = WriteBatch::new();
        batch.insert("R", vec![Value::str("has\ttab")]);
        assert!(encode_write(&batch).unwrap_err().contains("separator"));
    }

    #[test]
    fn malformed_write_payloads_are_rejected() {
        assert!(decode_write(b"\xff\xfe").unwrap_err().contains("UTF-8"));
        assert!(decode_write(b"not-the-magic\nins R\tz:1").unwrap_err().contains("header"));
        assert!(decode_write(b"qarith-write/1\nins R\tz:1").unwrap_err().contains("ops="));
        assert!(decode_write(b"qarith-write/1 ops=2\nins R\tz:1\n")
            .unwrap_err()
            .contains("declared 2"));
        assert!(decode_write(b"qarith-write/1 ops=1\nfrob R\tz:1\n")
            .unwrap_err()
            .contains("unknown write opcode"));
        assert!(decode_write(b"qarith-write/1 ops=1\nins R\tz:nope\n")
            .unwrap_err()
            .contains("malformed integer"));
        assert!(decode_write(b"qarith-write/1 ops=1\nins R\tq:1/0\n")
            .unwrap_err()
            .contains("invalid rational"));
        assert!(decode_write(b"qarith-write/1 ops=1\nins R\twat:1\n")
            .unwrap_err()
            .contains("unknown sort tag"));
        assert!(decode_write(b"qarith-write/1 ops=1\nins R\n").unwrap_err().contains("without"));
        assert!(decode_write(b"qarith-write/1 ops=1\nupd R\tz:1\tz:2\n")
            .unwrap_err()
            .contains("=>"));
    }

    #[test]
    fn write_ack_round_trips() {
        let outcome = WriteOutcome {
            epoch: 4,
            db_digest: 0xdead_beef_0123_4567,
            applied: 3,
            noops: 1,
            plans_invalidated: 1,
            ..WriteOutcome::default()
        };
        let rid = qarith_trace::RequestId::parse("68959c1f-7").expect("rid");
        let encoded = encode_write_ack(&outcome, rid);
        match decode_reply(encoded.as_bytes()).expect("decodes") {
            Decoded::Write(ack) => {
                assert_eq!(ack.epoch, 4);
                assert_eq!(ack.db_digest, 0xdead_beef_0123_4567);
                assert_eq!((ack.applied, ack.noops), (3, 1));
                assert_eq!(ack.plans_invalidated, 1);
                assert_eq!(ack.request_id, Some(rid));
            }
            other => panic!("expected a write ack, got {other:?}"),
        }
        // A truncated ack is a grammar break, not a zero-filled struct.
        let truncated = encoded.replace(" applied=3", "");
        assert!(decode_reply(truncated.as_bytes()).unwrap_err().contains("applied"));
    }

    #[test]
    fn reply_decoder_rejects_grammar_breaks() {
        assert!(decode_reply(b"qarith-reply/1 ok answers=1\nno stats").is_err());
        assert!(decode_reply(b"not-a-reply").is_err());
        assert!(decode_reply(b"qarith-reply/1 maybe").is_err());
        // Declared/actual answer-count mismatch.
        let short = "qarith-reply/1 ok answers=2 plan_cached=0\n\
                     fp select x from y\n\
                     a nu=0.5 bits=3fe0000000000000 samples=100 dim=2 flags=- tuple=(1)\n\
                     stats candidates=1 groups=1 measured=1 dedup_hits=0 cache_hits=0\n";
        assert!(decode_reply(short.as_bytes()).unwrap_err().contains("declared 2"));
    }

    #[test]
    fn answer_lines_carry_bits_flags_and_spacey_tuples() {
        let line = "nu=0.5 bits=3fe0000000000000 samples=400 dim=3 flags=cr tuple=(1, hello world)";
        let answer = decode_answer_line(line).expect("parses");
        assert_eq!(answer.nu_bits, 0.5f64.to_bits());
        assert_eq!((answer.samples, answer.dimension), (400, 3));
        assert!(answer.cached && answer.rewritten);
        assert_eq!(answer.tuple, "(1, hello world)");
    }

    #[test]
    fn reply_rid_is_parsed_when_present_and_tolerated_when_absent() {
        let with = "qarith-reply/1 ok answers=0 plan_cached=1 rid=68959c1f-42\n\
                    fp select x from y\n\
                    stats candidates=0 groups=0 measured=0 dedup_hits=0 cache_hits=0\n";
        match decode_reply(with.as_bytes()).expect("decodes") {
            Decoded::Reply(reply) => {
                let rid = reply.request_id.expect("rid present");
                assert_eq!(rid.to_string(), "68959c1f-42");
            }
            other => panic!("expected ok reply, got {other:?}"),
        }
        // A pre-tracing server never sends rid=; the decoder shrugs.
        let without = with.replace(" rid=68959c1f-42", "");
        match decode_reply(without.as_bytes()).expect("decodes") {
            Decoded::Reply(reply) => assert_eq!(reply.request_id, None),
            other => panic!("expected ok reply, got {other:?}"),
        }
        // A malformed rid is a grammar break, not a silent None.
        let broken = with.replace("rid=68959c1f-42", "rid=what");
        assert!(decode_reply(broken.as_bytes()).unwrap_err().contains("malformed rid"));
    }

    #[test]
    fn reply_epoch_and_db_are_parsed_when_present_and_tolerated_when_absent() {
        let with = "qarith-reply/1 ok answers=0 plan_cached=1 epoch=3 db=00000000deadbeef\n\
                    fp select x from y\n\
                    stats candidates=0 groups=0 measured=0 dedup_hits=0 cache_hits=0\n";
        match decode_reply(with.as_bytes()).expect("decodes") {
            Decoded::Reply(reply) => {
                assert_eq!(reply.epoch, Some(3));
                assert_eq!(reply.db_digest, Some(0xdead_beef));
            }
            other => panic!("expected ok reply, got {other:?}"),
        }
        // A pre-write-path server never sends them; the decoder shrugs.
        let without = with.replace(" epoch=3 db=00000000deadbeef", "");
        match decode_reply(without.as_bytes()).expect("decodes") {
            Decoded::Reply(reply) => {
                assert_eq!(reply.epoch, None);
                assert_eq!(reply.db_digest, None);
            }
            other => panic!("expected ok reply, got {other:?}"),
        }
        assert!(decode_reply(with.replace("epoch=3", "epoch=x").as_bytes())
            .unwrap_err()
            .contains("malformed epoch"));
    }

    #[test]
    fn http_get_never_parses_as_a_sane_length() {
        // `GET ` as a big-endian length prefix demands ~1.19 GB — any
        // reasonable max_frame_bytes rejects it, so the HTTP carve-out
        // can never shadow a legitimate frame.
        assert_eq!(u32::from_be_bytes(HTTP_GET), 0x4745_5420);
        assert!(u32::from_be_bytes(HTTP_GET) > 1 << 30);
    }
}
