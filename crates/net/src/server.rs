//! The framed TCP server: connection lifecycle, backpressure, and
//! graceful drain over a shared [`QueryService`].
//!
//! # Threading model
//!
//! One nonblocking accept loop (polling at [`NetConfig::tick`]) plus
//! one thread per connection — the same hand-rolled std-only shape as
//! the rest of the workspace (no async runtime; the paper's workloads
//! are compute-bound, so a thread per connection is the honest model).
//! Every blocking socket operation is sliced into tick-length waits so
//! a connection can observe drain/force flags and its own deadlines
//! between slices; no thread ever blocks unboundedly.
//!
//! # Backpressure
//!
//! Admission control stays where it already lives: the service's
//! [`AdmissionGate`] caps concurrently *executing* queries and queues
//! the rest (queue, don't shed). The wire layer adds nothing on top —
//! crucially, the gate's permit is scoped inside
//! [`QueryService::query`], so it is released **before** the response
//! is written. A slow reader therefore stalls only its own connection
//! thread (bounded by [`NetConfig::write_timeout`]), never an
//! admission slot; the lifecycle tests pin this by watching the
//! `in_flight` gauge while a reply is wedged against a full socket
//! buffer.
//!
//! # Timeouts and the idle reaper
//!
//! Three clocks per connection, all enforced by the connection's own
//! thread at tick granularity (the reaper is distributed — each
//! connection reaps itself, so there is no central scan to fall
//! behind): [`NetConfig::idle_timeout`] between requests (waiting for
//! the first header byte), [`NetConfig::read_timeout`] within a frame
//! (header started or payload pending), and
//! [`NetConfig::write_timeout`] across one reply write. Expiry counts
//! in [`NetStats::timeouts`] and closes the connection.
//!
//! # Drain and shutdown
//!
//! [`NetServer::shutdown`] runs the drain protocol:
//!
//! 1. set `draining`; the accept loop exits within a tick and drops
//!    the listener, so the OS refuses new connections;
//! 2. connections idle between requests answer `err kind=shutdown`
//!    and close; a connection mid-request finishes that request and
//!    its reply first (pipelined frames behind it are abandoned — the
//!    client sees EOF and re-issues elsewhere);
//! 3. wait (on the connection registry's condvar) until the active
//!    count reaches zero or the caller's deadline expires;
//! 4. past the deadline, set `force` — every tick-sliced wait aborts
//!    at its next slice — and wait a short bounded grace for the
//!    stragglers.
//!
//! The registry mutex (`conns`) plus its `drained` condvar form the
//! `NetConnRegistry` class of analyze.toml's lock hierarchy, outermost
//! by declaration: it is only ever held for counter updates and the
//! shutdown wait, never across a service call (the `lock-reentry` lint
//! keeps it that way).
//!
//! [`AdmissionGate`]: qarith_serve::AdmissionGate

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use qarith_serve::QueryService;

use crate::frame;
use crate::metrics;

/// Configuration of a [`NetServer`].
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Bind address; port 0 asks the OS for a free port (read the
    /// outcome from [`NetServer::local_addr`]).
    pub addr: String,
    /// Per-frame read budget: once a request's first header byte has
    /// arrived, the rest of the frame must arrive within this window.
    pub read_timeout: Duration,
    /// Per-reply write budget: a reply (or metrics response) must be
    /// fully accepted by the peer's socket within this window. This is
    /// the only resource a slow reader can hold — never an admission
    /// permit (see the module docs).
    pub write_timeout: Duration,
    /// Idle budget *between* requests: a connection that sends nothing
    /// for this long is reaped ([`NetStats::timeouts`] counts it).
    pub idle_timeout: Duration,
    /// Frame-length cap; a length prefix of 0 or above this is a
    /// framing error and closes the connection.
    pub max_frame_bytes: usize,
    /// Poll granularity of every blocking wait (accept, read, write,
    /// drain): smaller reacts faster to drain/force at more wakeups.
    pub tick: Duration,
}

impl Default for NetConfig {
    /// Loopback on an OS-assigned port; 5 s read/write budgets, 60 s
    /// idle budget, 1 MiB frames, 25 ms ticks.
    fn default() -> Self {
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(60),
            max_frame_bytes: 1 << 20,
            tick: Duration::from_millis(25),
        }
    }
}

/// Wire-layer counters, exported through the workspace's `as_pairs`
/// convention (and from there to `/metrics` and the wire BENCH
/// artifact). Names are part of the export schema: renaming one is a
/// baseline-breaking change.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted since start.
    pub connections_opened: u64,
    /// Connections currently open (gauge; returns to 0 after drain —
    /// the torture suite's invariant).
    pub connections_active: u64,
    /// Connections fully closed since start.
    pub connections_closed: u64,
    /// Well-framed request frames received.
    pub frames_in: u64,
    /// Reply frames written (counted at write start, so any reply a
    /// client has received is already included — see `write_frame`).
    pub frames_out: u64,
    /// Framing and protocol violations answered with `err
    /// kind=frame|proto` (malformed requests, oversized lengths,
    /// mid-frame disconnects, ε mismatches).
    pub protocol_errors: u64,
    /// Read, write, and idle deadlines that expired and closed a
    /// connection.
    pub timeouts: u64,
}

impl NetStats {
    /// The counters as stable `(name, value)` pairs, in declaration
    /// order.
    pub fn as_pairs(&self) -> [(&'static str, u64); 7] {
        [
            ("connections_opened", self.connections_opened),
            ("connections_active", self.connections_active),
            ("connections_closed", self.connections_closed),
            ("frames_in", self.frames_in),
            ("frames_out", self.frames_out),
            ("protocol_errors", self.protocol_errors),
            ("timeouts", self.timeouts),
        ]
    }
}

/// How a drain ended (returned by [`NetServer::shutdown`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainOutcome {
    /// Every connection closed (possibly only after `force`).
    pub drained: bool,
    /// The caller's deadline expired and stragglers were force-closed.
    pub forced: bool,
    /// Connections still open when shutdown gave up (0 unless a
    /// handler is wedged in a kernel call longer than the grace).
    pub stranded: usize,
}

/// State shared by the accept loop, every connection thread, and the
/// server handle.
#[derive(Debug)]
struct Shared {
    service: Arc<QueryService>,
    config: NetConfig,
    opened: AtomicU64,
    closed: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    protocol_errors: AtomicU64,
    timeouts: AtomicU64,
    /// Count of open connections — the `NetConnRegistry` lock class
    /// (outermost in analyze.toml's hierarchy). Held only for counter
    /// updates and the shutdown wait; never across a service call.
    conns: Mutex<usize>,
    /// Signalled on every connection close; shutdown waits on it.
    drained: Condvar,
    /// Stop accepting; finish in-flight requests; close when idle.
    draining: AtomicBool,
    /// Abandon tick-sliced waits at the next slice (set after the
    /// drain deadline).
    force: AtomicBool,
}

impl Shared {
    fn active(&self) -> usize {
        *self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn stats(&self) -> NetStats {
        NetStats {
            connections_opened: self.opened.load(Ordering::Relaxed),
            connections_active: self.active() as u64,
            connections_closed: self.closed.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
        }
    }
}

/// Registration of one live connection. Construction counts the
/// connection in; `Drop` counts it out and wakes the drain waiter, so
/// the active count is correct on every exit path (including unwinds,
/// which the request path is linted against but defense stays cheap).
struct ConnTicket {
    shared: Arc<Shared>,
}

impl ConnTicket {
    fn new(shared: Arc<Shared>) -> ConnTicket {
        shared.opened.fetch_add(1, Ordering::Relaxed);
        {
            let mut conns = shared.conns.lock().unwrap_or_else(PoisonError::into_inner);
            *conns += 1;
        }
        ConnTicket { shared }
    }
}

impl Drop for ConnTicket {
    fn drop(&mut self) {
        self.shared.closed.fetch_add(1, Ordering::Relaxed);
        {
            let mut conns = self.shared.conns.lock().unwrap_or_else(PoisonError::into_inner);
            *conns = conns.saturating_sub(1);
        }
        self.shared.drained.notify_all();
    }
}

/// The listening server: a handle over the accept loop and every
/// connection thread it spawned. Dropping the handle runs
/// [`NetServer::shutdown`] with a 5 s deadline.
#[derive(Debug)]
pub struct NetServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Mutex<Option<thread::JoinHandle<()>>>,
}

impl NetServer {
    /// Binds and starts serving. Returns once the listener is live;
    /// connections are handled on background threads.
    pub fn start(service: Arc<QueryService>, config: NetConfig) -> io::Result<NetServer> {
        let mut config = config;
        // A zero tick would make `set_read_timeout(Some(0))` an error
        // and the poll loops spin; floor it.
        config.tick = config.tick.max(Duration::from_millis(1));
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            service,
            config,
            opened: AtomicU64::new(0),
            closed: AtomicU64::new(0),
            frames_in: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            conns: Mutex::new(0),
            drained: Condvar::new(),
            draining: AtomicBool::new(false),
            force: AtomicBool::new(false),
        });
        let accept_shared = shared.clone();
        let accept = thread::spawn(move || accept_loop(&listener, &accept_shared));
        Ok(NetServer { shared, local_addr, accept: Mutex::new(Some(accept)) })
    }

    /// The bound address (the resolved port when the config asked for
    /// port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Wire-layer counters.
    pub fn stats(&self) -> NetStats {
        self.shared.stats()
    }

    /// The served [`QueryService`].
    pub fn service(&self) -> &Arc<QueryService> {
        &self.shared.service
    }

    /// Runs the drain protocol (see the module docs): stop accepting,
    /// finish in-flight requests, wait for every connection to close
    /// until `deadline` from now, then force-close stragglers within a
    /// short bounded grace. Idempotent — later calls just re-wait.
    pub fn shutdown(&self, deadline: Duration) -> DrainOutcome {
        self.shared.draining.store(true, Ordering::Release);
        // The accept loop observes `draining` within a tick and exits,
        // dropping the listener (the OS then refuses new connections).
        let handle = {
            let mut accept = self.accept.lock().unwrap_or_else(PoisonError::into_inner);
            accept.take()
        };
        if let Some(handle) = handle {
            // A panicking accept loop already stopped accepting, which
            // is all drain needs from it.
            let _ = handle.join();
        }
        let limit = Instant::now() + deadline;
        if self.wait_drained(limit) {
            return DrainOutcome { drained: true, forced: false, stranded: 0 };
        }
        // Deadline expired: force every tick-sliced wait to abort, then
        // allow a short grace for handlers to observe the flag.
        self.shared.force.store(true, Ordering::Release);
        let grace = Instant::now() + self.shared.config.tick.saturating_mul(40);
        let drained = self.wait_drained(grace);
        DrainOutcome { drained, forced: true, stranded: self.shared.active() }
    }

    /// Waits on the registry condvar until the active count is zero or
    /// `limit` passes; `true` iff fully drained.
    fn wait_drained(&self, limit: Instant) -> bool {
        let mut conns = self.shared.conns.lock().unwrap_or_else(PoisonError::into_inner);
        while *conns > 0 {
            let now = Instant::now();
            if now >= limit {
                return false;
            }
            let (guard, _timed_out) = self
                .shared
                .drained
                .wait_timeout(conns, limit - now)
                .unwrap_or_else(PoisonError::into_inner);
            conns = guard;
        }
        true
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown(Duration::from_secs(5));
    }
}

/// Accepts until drain; each connection gets its own thread carrying a
/// [`ConnTicket`].
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.draining.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Register before spawning so a shutdown that starts
                // right after the accept waits for this connection too.
                let ticket = ConnTicket::new(shared.clone());
                let conn_shared = shared.clone();
                thread::spawn(move || {
                    let _ticket = ticket;
                    let mut stream = stream;
                    if configure_stream(&conn_shared, &stream).is_ok() {
                        serve_connection(&conn_shared, &mut stream);
                    }
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(shared.config.tick),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Transient accept errors (e.g. the peer vanished between
            // SYN and accept) must not kill the listener.
            Err(_) => thread::sleep(shared.config.tick),
        }
    }
    // The listener drops here; the OS refuses connections from now on.
}

/// Puts an accepted stream into the tick-sliced blocking regime: the
/// stream itself blocks (it may have inherited the listener's
/// nonblocking flag), but never longer than one tick per call.
fn configure_stream(shared: &Shared, stream: &TcpStream) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(shared.config.tick))?;
    stream.set_write_timeout(Some(shared.config.tick))?;
    let _ = stream.set_nodelay(true);
    Ok(())
}

/// How a tick-sliced exact read ended.
enum FillEnd {
    /// The buffer is full.
    Full,
    /// The peer closed; `partial` says whether any bytes of this read
    /// had already arrived (a mid-frame disconnect).
    Eof {
        /// Bytes had arrived before the close.
        partial: bool,
    },
    /// The deadline passed first.
    TimedOut,
    /// Drain (idle connections only) or force interrupted the wait.
    Draining,
    /// A hard I/O error.
    Error,
}

/// Reads exactly `buf.len()` bytes in tick slices, honoring `deadline`
/// and the drain flags. With `idle_interruptible`, the read also
/// aborts as `Draining` when the server is draining and a read attempt
/// has just come back empty with *no* byte of this buffer in — that is
/// the "idle between requests" drain point. A connection counts as idle
/// only then, so a request already sitting in the socket when the drain
/// starts is read and served; once a request has started flowing it is
/// allowed to finish.
fn fill(
    shared: &Shared,
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: Instant,
    idle_interruptible: bool,
) -> FillEnd {
    let mut filled = 0usize;
    loop {
        if shared.force.load(Ordering::Acquire) {
            return FillEnd::Draining;
        }
        let Some(rest) = buf.get_mut(filled..) else { return FillEnd::Full };
        if rest.is_empty() {
            return FillEnd::Full;
        }
        match stream.read(rest) {
            Ok(0) => return FillEnd::Eof { partial: filled > 0 },
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if idle_interruptible && filled == 0 && shared.draining.load(Ordering::Acquire) {
                    return FillEnd::Draining;
                }
                if Instant::now() >= deadline {
                    return FillEnd::TimedOut;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return FillEnd::Error,
        }
    }
}

/// Writes all of `bytes` in tick slices under the configured write
/// budget. `Err(())` means the connection must close (the deadline
/// counter has already been bumped when the cause was a timeout).
fn write_all_ticking(shared: &Shared, stream: &mut TcpStream, bytes: &[u8]) -> Result<(), ()> {
    let deadline = Instant::now() + shared.config.write_timeout;
    let mut sent = 0usize;
    loop {
        if shared.force.load(Ordering::Acquire) {
            return Err(());
        }
        let Some(rest) = bytes.get(sent..) else { return Ok(()) };
        if rest.is_empty() {
            return Ok(());
        }
        match stream.write(rest) {
            Ok(0) => return Err(()),
            Ok(n) => sent += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if Instant::now() >= deadline {
                    shared.timeouts.fetch_add(1, Ordering::Relaxed);
                    return Err(());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Err(()),
        }
    }
}

/// Frames and writes one reply payload.
///
/// The counter bumps *before* the socket write: a client that has
/// received a reply must observe `frames_out` already incremented
/// (receipt happens-after the write, which happens-after the bump), so
/// "every observed reply is counted" holds for external observers —
/// the accounting assertion the wire-identity test makes after its
/// clients join. The cost is counting a reply whose write then fails;
/// that connection is torn down anyway, and the stat stays monotone.
fn write_frame(shared: &Shared, stream: &mut TcpStream, payload: &str) -> Result<(), ()> {
    let Some(framed) = frame::framed(payload.as_bytes()) else { return Err(()) };
    shared.frames_out.fetch_add(1, Ordering::Relaxed);
    write_all_ticking(shared, stream, &framed)?;
    Ok(())
}

/// The per-connection request loop (see the module docs for the
/// lifecycle).
fn serve_connection(shared: &Shared, stream: &mut TcpStream) {
    loop {
        // Between requests: the idle clock runs and drain may close us.
        let mut header = [0u8; frame::HEADER_LEN];
        let idle_deadline = Instant::now() + shared.config.idle_timeout;
        match fill(shared, stream, &mut header, idle_deadline, true) {
            FillEnd::Full => {}
            FillEnd::Eof { partial: false } => return,
            FillEnd::Eof { partial: true } => {
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
            FillEnd::TimedOut => {
                // The idle reaper: this connection reaps itself.
                shared.timeouts.fetch_add(1, Ordering::Relaxed);
                return;
            }
            FillEnd::Draining => {
                let bye = frame::encode_error(frame::ErrorKind::Shutdown, "server is draining");
                let _ = write_frame(shared, stream, &bye);
                return;
            }
            FillEnd::Error => return,
        }

        if header == frame::HTTP_GET {
            serve_http(shared, stream, &header);
            return;
        }

        let len = u32::from_be_bytes(header) as usize;
        if len == 0 || len > shared.config.max_frame_bytes {
            shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
            let msg = format!(
                "frame length {len} outside 1..={} — framing cannot be trusted, closing",
                shared.config.max_frame_bytes
            );
            let bye = frame::encode_error(frame::ErrorKind::Frame, &msg);
            let _ = write_frame(shared, stream, &bye);
            return;
        }

        let mut payload = vec![0u8; len];
        let read_deadline = Instant::now() + shared.config.read_timeout;
        match fill(shared, stream, &mut payload, read_deadline, false) {
            FillEnd::Full => {}
            FillEnd::Eof { .. } => {
                // Mid-frame disconnect: the request never completed.
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
            FillEnd::TimedOut => {
                shared.timeouts.fetch_add(1, Ordering::Relaxed);
                return;
            }
            FillEnd::Draining => {
                let bye = frame::encode_error(frame::ErrorKind::Shutdown, "server is draining");
                let _ = write_frame(shared, stream, &bye);
                return;
            }
            FillEnd::Error => return,
        }
        shared.frames_in.fetch_add(1, Ordering::Relaxed);

        // One trace per frame: decode and encode time lands in the
        // same per-request record as the service stages, and the
        // minted request id rides back on the reply (`rid=`). The
        // trace closes before the reply write — socket time is the
        // peer's speed, not this request's cost (see the module docs
        // on backpressure).
        let mut trace = shared.service.begin_trace();
        let (reply, fingerprint) = respond(shared, &payload, &mut trace);
        shared.service.finish_trace(&trace, &fingerprint, "wire");
        if write_frame(shared, stream, &reply).is_err() {
            return;
        }
        if shared.draining.load(Ordering::Acquire) {
            // In-flight request finished; drain closes us here.
            return;
        }
    }
}

/// Executes one well-framed request payload and renders the reply,
/// recording frame decode/encode and every service stage into `trace`.
/// Always returns `(payload, fingerprint)` — every failure mode maps
/// to the `err` taxonomy (with an empty fingerprint), and only
/// framing-level failures (handled by the caller) close the
/// connection.
fn respond(
    shared: &Shared,
    payload: &[u8],
    trace: &mut qarith_trace::RequestTrace,
) -> (String, String) {
    // Writes are dispatched by payload magic, before query decoding:
    // the two grammars share the frame layer and the error taxonomy
    // but nothing else. Writes skip the ε check (they carry no ε) and
    // the admission gate (they serialize on the service's epoch-writer
    // lock; a full gate must not starve the write path).
    if payload.starts_with(frame::WRITE_MAGIC.as_bytes()) {
        let decoded = {
            let _span = trace.span(qarith_trace::Stage::FrameDecode);
            frame::decode_write(payload)
        };
        let batch = match decoded {
            Ok(batch) => batch,
            Err(msg) => {
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                return (frame::encode_error(frame::ErrorKind::Proto, &msg), String::new());
            }
        };
        return match shared.service.apply_with_trace(&batch, trace) {
            Ok(outcome) => {
                let rid = trace.id();
                let _span = trace.span(qarith_trace::Stage::FrameEncode);
                (frame::encode_write_ack(&outcome, rid), String::new())
            }
            Err(e) => {
                let kind = frame::ErrorKind::of_serve_kind(e.kind());
                (frame::encode_error(kind, &e.to_string()), String::new())
            }
        };
    }
    let decoded = {
        let _span = trace.span(qarith_trace::Stage::FrameDecode);
        frame::decode_request(payload)
    };
    let request = match decoded {
        Ok(request) => request,
        Err(msg) => {
            shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
            return (frame::encode_error(frame::ErrorKind::Proto, &msg), String::new());
        }
    };
    if let Some(eps) = request.epsilon {
        // The served ε is fixed per service (it keys the ν-cache), so a
        // mismatch is answered honestly instead of served imprecisely.
        let served = shared.service.options().afpras.epsilon;
        if eps.to_bits() != served.to_bits() {
            shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
            let msg = format!(
                "this service serves epsilon={served}; re-issue with that value or omit epsilon="
            );
            return (frame::encode_error(frame::ErrorKind::Proto, &msg), String::new());
        }
    }
    match shared.service.query_with_trace(&request.sql, trace) {
        Ok(response) => {
            let _span = trace.span(qarith_trace::Stage::FrameEncode);
            let fingerprint = response.fingerprint.clone();
            (frame::encode_reply(&response), fingerprint)
        }
        Err(e) => {
            let kind = frame::ErrorKind::of_serve_kind(e.kind());
            (frame::encode_error(kind, &e.to_string()), String::new())
        }
    }
}

/// The HTTP carve-out: a connection whose first four bytes were
/// `GET ` stays in HTTP mode for its lifetime, serving `/metrics`
/// (Prometheus text) and `/slow` (the slow-query log as JSON) with
/// **HTTP/1.1 keep-alive**: responses carry `Content-Length`, and the
/// loop reads the next request off the same socket, so a Prometheus
/// scraper pays connection setup once, not per scrape. A connection
/// closes after the response when the client is HTTP/1.0 (without
/// `Connection: keep-alive`), asked for `Connection: close`, or the
/// server is draining; between requests the idle clock runs, exactly
/// as on framed connections.
fn serve_http(shared: &Shared, stream: &mut TcpStream, first: &[u8; frame::HEADER_LEN]) {
    let mut carry: Vec<u8> = first.to_vec();
    loop {
        let Some((request, leftover)) =
            read_http_request(shared, stream, std::mem::take(&mut carry))
        else {
            return;
        };
        carry = leftover;
        let text = String::from_utf8_lossy(&request);
        let mut lines = text.lines();
        let mut words = lines.next().unwrap_or("").split_ascii_whitespace();
        let _method = words.next();
        let path = words.next().unwrap_or("");
        // Echo the client's HTTP minor version; anything unrecognized
        // is answered (and closed) as HTTP/1.0.
        let version = if words.next() == Some("HTTP/1.1") { "HTTP/1.1" } else { "HTTP/1.0" };
        let connection_header = lines
            .filter_map(|l| l.split_once(':'))
            .find(|(name, _)| name.trim().eq_ignore_ascii_case("connection"))
            .map(|(_, value)| value.trim().to_ascii_lowercase());
        let keep = !shared.draining.load(Ordering::Acquire)
            && match connection_header.as_deref() {
                Some("close") => false,
                Some("keep-alive") => true,
                _ => version == "HTTP/1.1",
            };
        let (status, content_type, body) = route_http(shared, path);
        let response = http_response(version, status, content_type, &body, keep);
        if write_all_ticking(shared, stream, response.as_bytes()).is_err() || !keep {
            return;
        }
    }
}

/// Resolves one HTTP path to `(status, content type, body)`.
fn route_http(shared: &Shared, path: &str) -> (&'static str, &'static str, String) {
    match path {
        "/metrics" => {
            let body = metrics::render(&shared.service, &shared.stats());
            ("200 OK", "text/plain; version=0.0.4", body)
        }
        "/slow" => {
            let mut body = shared.service.slow_queries_json();
            body.push('\n');
            ("200 OK", "application/json", body)
        }
        _ => {
            let body = "only /metrics and /slow live here\n".to_string();
            ("404 Not Found", "text/plain; version=0.0.4", body)
        }
    }
}

/// Reads one HTTP request (through the blank line ending its header
/// block), starting from `carry` (bytes already read past the previous
/// request). Returns the request bytes plus any leftover belonging to
/// the next pipelined request, or `None` when the connection must
/// close (clean EOF, timeout, drain, protocol violation — counters
/// bumped here as appropriate).
fn read_http_request(
    shared: &Shared,
    stream: &mut TcpStream,
    carry: Vec<u8>,
) -> Option<(Vec<u8>, Vec<u8>)> {
    const MAX_HTTP_REQUEST: usize = 8 << 10;
    // Waiting for the next request is idle time (like the framed
    // loop's wait for a header); the drain points below mirror it.
    let deadline = Instant::now() + shared.config.idle_timeout;
    let mut request = carry;
    loop {
        if let Some(end) = http_header_end(&request) {
            let leftover = request.split_off(end);
            return Some((request, leftover));
        }
        if request.len() >= MAX_HTTP_REQUEST {
            shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        if shared.force.load(Ordering::Acquire) {
            return None;
        }
        let mut chunk = [0u8; 256];
        match stream.read(&mut chunk) {
            Ok(0) => {
                if !request.is_empty() {
                    // EOF mid-request: never complete, never answerable.
                    shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                }
                return None;
            }
            Ok(n) => {
                let read = chunk.get(..n)?;
                request.extend_from_slice(read);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if request.is_empty() && shared.draining.load(Ordering::Acquire) {
                    // Idle between requests while draining (a read came
                    // back empty): close, as framed connections do.
                    return None;
                }
                if Instant::now() >= deadline {
                    shared.timeouts.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
}

/// The index just past the blank line ending an HTTP header block, if
/// one is present (`\r\n\r\n` per spec, bare `\n\n` tolerated).
fn http_header_end(buf: &[u8]) -> Option<usize> {
    let crlf = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4);
    let lf = buf.windows(2).position(|w| w == b"\n\n").map(|i| i + 2);
    match (crlf, lf) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Renders a minimal HTTP response with explicit `Content-Length`
/// (the framing keep-alive relies on) and `Connection` semantics.
fn http_response(
    version: &str,
    status: &str,
    content_type: &str,
    body: &str,
    keep: bool,
) -> String {
    let connection = if keep { "keep-alive" } else { "close" };
    format!(
        "{version} {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
        body.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use qarith_serve::ServeConfig;
    use qarith_types::Database;

    /// A connected pair over loopback, the server side configured as
    /// `serve_connection` configures it (5 ms ticks), plus the shared
    /// state.
    fn connected() -> (Shared, TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        let shared = Shared {
            service: Arc::new(QueryService::new(Database::new(), ServeConfig::default())),
            config: NetConfig { tick: Duration::from_millis(5), ..NetConfig::default() },
            opened: AtomicU64::new(0),
            closed: AtomicU64::new(0),
            frames_in: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            conns: Mutex::new(0),
            drained: Condvar::new(),
            draining: AtomicBool::new(false),
            force: AtomicBool::new(false),
        };
        configure_stream(&shared, &server).expect("configure");
        (shared, server, peer)
    }

    /// A whole frame the peer wrote before the drain started is read,
    /// not refused: the connection was not idle.
    #[test]
    fn a_buffered_request_is_read_when_the_drain_starts_first() {
        let (shared, mut server, mut peer) = connected();
        let payload = b"qarith/1\nsql=SELECT R.id FROM R\n";
        let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(payload);
        peer.write_all(&frame).expect("peer writes a whole frame");
        // Wait until the whole frame sits in the server's socket buffer.
        let mut probe = vec![0u8; frame.len()];
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.peek(&mut probe).map_or(true, |n| n < frame.len()) {
            assert!(Instant::now() < deadline, "the frame never arrived");
        }
        shared.draining.store(true, Ordering::Release);

        let mut header = [0u8; frame::HEADER_LEN];
        let idle = Instant::now() + Duration::from_secs(5);
        assert!(matches!(fill(&shared, &mut server, &mut header, idle, true), FillEnd::Full));
        assert_eq!(header, (payload.len() as u32).to_be_bytes());

        // With nothing more buffered, the next idle wait is the drain
        // point.
        let mut rest = vec![0u8; payload.len()];
        let read = Instant::now() + Duration::from_secs(5);
        assert!(matches!(fill(&shared, &mut server, &mut rest, read, false), FillEnd::Full));
        assert_eq!(rest, payload);
        let mut next = [0u8; frame::HEADER_LEN];
        let idle = Instant::now() + Duration::from_secs(5);
        assert!(matches!(fill(&shared, &mut server, &mut next, idle, true), FillEnd::Draining));
    }
}
