//! The torture suite: deterministic adversarial clients against a live
//! server.
//!
//! Truncated frames, oversized length prefixes, garbage bytes,
//! pipelined requests, one-byte-at-a-time writes, and mid-request
//! disconnects. The invariants under all of it: answers over the wire
//! are bit-identical to in-process [`QueryService::query`] calls,
//! protocol violations get *structured* errors (never hangs, never
//! panics), and `connections_active` returns to 0 when the clients go
//! away.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qarith_datagen::{QueryFamily, WorkloadScale};
use qarith_net::frame::{self, HEADER_LEN};
use qarith_net::{Decoded, ErrorKind, NetClient, NetConfig, NetServer, Request};
use qarith_serve::{QueryService, ServeConfig};

fn test_service() -> Arc<QueryService> {
    let db = qarith_datagen::sales::sales_database(&WorkloadScale::Tiny.params(), 2020);
    // The serving regime of `netd` and `serve_bench` at test-friendly parameters.
    Arc::new(QueryService::new(db, ServeConfig::paper_afpras(0.1, 77)))
}

/// Short deadlines so misbehavior resolves in test time, fast ticks so
/// drains and reaps are prompt.
fn test_config() -> NetConfig {
    NetConfig {
        read_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_millis(500),
        idle_timeout: Duration::from_secs(30),
        tick: Duration::from_millis(2),
        ..NetConfig::default()
    }
}

fn start_server() -> NetServer {
    NetServer::start(test_service(), test_config()).expect("bind loopback")
}

/// Every workload template, the population the serving benches replay.
fn workload_sql() -> Vec<String> {
    QueryFamily::all().iter().flat_map(QueryFamily::queries).map(|q| q.sql).collect()
}

/// Polls until `cond` holds (the server's counters update as handler
/// threads observe disconnects, a tick or two behind the client).
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Reads one raw reply frame off an adversarial socket.
fn read_raw_reply(stream: &mut TcpStream) -> Vec<u8> {
    let mut header = [0u8; HEADER_LEN];
    stream.read_exact(&mut header).expect("reply header");
    let mut payload = vec![0u8; u32::from_be_bytes(header) as usize];
    stream.read_exact(&mut payload).expect("reply payload");
    payload
}

fn expect_error(payload: &[u8], want: ErrorKind) {
    match frame::decode_reply(payload).expect("structured reply") {
        Decoded::Error { kind, .. } => assert_eq!(kind, want),
        other => panic!("expected {want:?} error, got ok reply {other:?}"),
    }
}

/// The μ-relevant bits of a wire reply vs an in-process response:
/// candidate order, ν bit patterns, sample counts, dimensions, tuple
/// display, and the template fingerprint. Provenance flags
/// (cached/rewritten) and `plan_cached` are execution history, not
/// identity, and are deliberately excluded.
fn assert_bit_identical(wire: &Decoded, reference: &qarith_serve::QueryResponse) {
    let Decoded::Reply(reply) = wire else { panic!("expected ok reply, got {wire:?}") };
    assert_eq!(reply.fingerprint, reference.fingerprint);
    assert_eq!(reply.answers.len(), reference.answers.len());
    for (got, want) in reply.answers.iter().zip(&reference.answers) {
        assert_eq!(got.nu_bits, want.certainty.value.to_bits(), "ν must be bit-identical");
        assert_eq!(got.samples, want.certainty.samples as u64);
        assert_eq!(got.dimension, want.certainty.dimension as u64);
        assert_eq!(got.tuple, want.tuple.to_string());
    }
}

#[test]
fn every_workload_answer_is_bit_identical_over_the_wire() {
    let server = start_server();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    for sql in workload_sql() {
        let reference = server.service().query(&sql).expect("in-process reference");
        let wire = client.query(&sql).expect("wire round trip");
        assert_bit_identical(&wire, &reference);
    }
    drop(client);
    wait_until("all connections closed", || server.stats().connections_active == 0);
    let stats = server.stats();
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.frames_in, stats.frames_out);
}

#[test]
fn truncated_frame_is_reaped_without_a_reply() {
    let server = start_server();
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    // Claim 100 bytes, deliver 10, then stall: the read deadline
    // expires and the connection is reaped as a timeout.
    stream.write_all(&100u32.to_be_bytes()).expect("header");
    stream.write_all(b"qarith-que").expect("partial payload");
    wait_until("stalled frame reaped", || server.stats().timeouts >= 1);
    wait_until("connection gone", || server.stats().connections_active == 0);
    assert_eq!(server.stats().frames_in, 0, "a truncated frame never counts as received");
}

#[test]
fn oversized_and_zero_length_prefixes_get_frame_errors() {
    let server = start_server();
    for header in [u32::MAX.to_be_bytes(), 0u32.to_be_bytes(), (2u32 << 20).to_be_bytes()] {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        stream.write_all(&header).expect("header");
        expect_error(&read_raw_reply(&mut stream), ErrorKind::Frame);
        // Framing errors close the connection: next read is EOF.
        let mut rest = Vec::new();
        assert_eq!(stream.read_to_end(&mut rest).expect("EOF after frame error"), 0);
    }
    wait_until("connections gone", || server.stats().connections_active == 0);
    assert_eq!(server.stats().protocol_errors, 3);
}

#[test]
fn garbage_payload_is_a_proto_error_and_the_connection_survives() {
    let server = start_server();
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");

    // Well-framed garbage (wrong magic, non-UTF-8): proto errors, one
    // reply each, connection stays up.
    for garbage in [&b"not a qarith request"[..], &[0xff, 0xfe, 0x00, 0x9f][..]] {
        let len = u32::try_from(garbage.len()).expect("fits");
        stream.write_all(&len.to_be_bytes()).expect("header");
        stream.write_all(garbage).expect("payload");
        expect_error(&read_raw_reply(&mut stream), ErrorKind::Proto);
    }

    // The same connection still serves real queries, bit-identically.
    let sql = "SELECT P.id FROM Products P";
    let reference = server.service().query(sql).expect("reference");
    let len =
        u32::try_from(frame::encode_request(&Request { epsilon: None, sql: sql.into() }).len())
            .expect("fits");
    stream.write_all(&len.to_be_bytes()).expect("header");
    stream
        .write_all(frame::encode_request(&Request { epsilon: None, sql: sql.into() }).as_bytes())
        .expect("payload");
    let wire = frame::decode_reply(&read_raw_reply(&mut stream)).expect("decodes");
    assert_bit_identical(&wire, &reference);
    assert_eq!(server.stats().protocol_errors, 2);
}

#[test]
fn rejected_sql_and_option_errors_are_structured_and_survivable() {
    let server = start_server();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    // SQL the service rejects: err kind=sql, connection survives.
    match client.query("SELECT nothing FROM Nowhere").expect("reply") {
        Decoded::Error { kind, message } => {
            assert_eq!(kind, ErrorKind::Sql);
            assert!(!message.is_empty());
        }
        other => panic!("expected sql error, got {other:?}"),
    }
    // ε mismatch: err kind=proto naming the served value.
    let mismatched = Request { epsilon: Some(0.5), sql: "SELECT P.id FROM Products P".into() };
    match client.roundtrip(&mismatched).expect("reply") {
        Decoded::Error { kind, message } => {
            assert_eq!(kind, ErrorKind::Proto);
            assert!(message.contains("epsilon=0.1"), "names the served ε: {message}");
        }
        other => panic!("expected proto error, got {other:?}"),
    }
    // Matching ε: served normally.
    let matched = Request { epsilon: Some(0.1), sql: "SELECT P.id FROM Products P".into() };
    assert!(matches!(client.roundtrip(&matched).expect("reply"), Decoded::Reply(_)));
    // And the connection is still bit-faithful afterwards.
    let reference = server.service().query("SELECT P.id FROM Products P").expect("reference");
    let wire = client.query("SELECT P.id FROM Products P").expect("wire");
    assert_bit_identical(&wire, &reference);
}

#[test]
fn a_deeply_nested_query_is_a_sql_error_and_the_connection_survives() {
    let server = start_server();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    // 3,000 nested parentheses (6 KB): the parser refuses them at its
    // depth bound instead of recursing 3,000 times on the connection
    // thread's stack.
    let deep = format!(
        "SELECT P.id FROM Products P WHERE {}P.rrp > 1{}",
        "(".repeat(3_000),
        ")".repeat(3_000)
    );
    match client.query(&deep).expect("reply") {
        Decoded::Error { kind, .. } => assert_eq!(kind, ErrorKind::Sql),
        other => panic!("expected sql error, got {other:?}"),
    }
    let reference = server.service().query("SELECT P.id FROM Products P").expect("reference");
    let wire = client.query("SELECT P.id FROM Products P").expect("wire");
    assert_bit_identical(&wire, &reference);
}

#[test]
fn negation_and_disjunction_are_sql_errors_and_the_connection_survives() {
    let server = start_server();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    for predicate in ["NOT P.rrp > 1", "P.rrp > 1 OR P.rrp < 1"] {
        match client
            .query(&format!("SELECT P.id FROM Products P WHERE {predicate}"))
            .expect("reply")
        {
            Decoded::Error { kind, .. } => assert_eq!(kind, ErrorKind::Sql, "{predicate}"),
            other => panic!("expected sql error for {predicate}, got {other:?}"),
        }
    }
    let sql = "SELECT P.id FROM Products P WHERE P.rrp > 1";
    let reference = server.service().query(sql).expect("reference");
    let wire = client.query(sql).expect("wire");
    assert_bit_identical(&wire, &reference);
}

#[test]
fn pipelined_requests_come_back_in_order_and_bit_identical() {
    let server = start_server();
    let sql = workload_sql();
    let references: Vec<_> =
        sql.iter().map(|q| server.service().query(q).expect("reference")).collect();

    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    // Fire every request before reading any reply.
    for q in &sql {
        client.send(&Request { epsilon: None, sql: q.clone() }).expect("pipelined send");
    }
    for reference in &references {
        let wire = client.receive().expect("pipelined reply");
        assert_bit_identical(&wire, reference);
    }
}

#[test]
fn one_byte_at_a_time_writes_are_served_normally() {
    let server = start_server();
    let sql = "SELECT P.id FROM Products P";
    let reference = server.service().query(sql).expect("reference");

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    stream.set_nodelay(true).expect("nodelay");
    let payload = frame::encode_request(&Request { epsilon: None, sql: sql.into() });
    let len = u32::try_from(payload.len()).expect("fits");
    let mut framed = len.to_be_bytes().to_vec();
    framed.extend_from_slice(payload.as_bytes());
    // Dribble the frame one byte per write. The per-frame read budget
    // (500 ms here) is the bound, so keep the dribble well inside it.
    for byte in framed {
        stream.write_all(&[byte]).expect("dribble");
        std::thread::sleep(Duration::from_millis(1));
    }
    let wire = frame::decode_reply(&read_raw_reply(&mut stream)).expect("decodes");
    assert_bit_identical(&wire, &reference);
}

#[test]
fn mid_request_disconnects_always_return_active_to_zero() {
    let server = start_server();
    // A zoo of rude exits: nothing at all, a bare partial header, a
    // header with partial payload, a full request then slam.
    let addr = server.local_addr();
    {
        let _nothing = TcpStream::connect(addr).expect("connect");
    }
    {
        let mut partial_header = TcpStream::connect(addr).expect("connect");
        partial_header.write_all(&[0, 0]).expect("two header bytes");
    }
    {
        let mut partial_payload = TcpStream::connect(addr).expect("connect");
        partial_payload.write_all(&64u32.to_be_bytes()).expect("header");
        partial_payload.write_all(b"qarith-query/1\nSELECT").expect("partial");
    }
    {
        let mut slam = TcpStream::connect(addr).expect("connect");
        let payload = frame::encode_request(&Request {
            epsilon: None,
            sql: "SELECT P.id FROM Products P".into(),
        });
        let len = u32::try_from(payload.len()).expect("fits");
        slam.write_all(&len.to_be_bytes()).expect("header");
        slam.write_all(payload.as_bytes()).expect("payload");
        // Close without reading the reply.
    }
    wait_until("every rude connection reaped", || {
        let stats = server.stats();
        stats.connections_opened == 4 && stats.connections_active == 0
    });
    let stats = server.stats();
    assert_eq!(stats.connections_closed, 4);
    // The slammed request was well-framed and must have been executed.
    assert_eq!(stats.frames_in, 1);
}

/// Reads one HTTP response framed by Content-Length, returning
/// `(status line, headers, body)` and leaving the stream positioned at
/// the next response.
fn read_http_response(stream: &mut TcpStream) -> (String, String, String) {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        assert_eq!(stream.read(&mut byte).expect("header byte"), 1, "EOF mid-header");
        raw.push(byte[0]);
        assert!(raw.len() < 64 << 10, "unreasonable response header");
    }
    let header = String::from_utf8(raw).expect("UTF-8 header");
    let status = header.lines().next().expect("status line").to_string();
    let length: usize = header
        .lines()
        .find_map(|l| {
            let (key, value) = l.split_once(':')?;
            key.eq_ignore_ascii_case("content-length").then(|| value.trim().parse().ok())?
        })
        .expect("Content-Length header");
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("body");
    (status, header, String::from_utf8(body).expect("UTF-8 body"))
}

#[test]
fn http_keep_alive_serves_sequential_scrapes_on_one_connection() {
    let server = start_server();
    server.service().query("SELECT P.id FROM Products P").expect("warm the tracer");

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");

    // Two sequential GETs on the SAME connection — the keep-alive
    // contract the CI metrics-smoke step scrapes with.
    for scrape in 1..=2 {
        stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: torture\r\n\r\n").expect("request");
        let (status, header, body) = read_http_response(&mut stream);
        assert!(status.starts_with("HTTP/1.1 200"), "scrape {scrape}: {status}");
        assert!(
            header.to_ascii_lowercase().contains("connection: keep-alive"),
            "scrape {scrape} not keep-alive: {header}"
        );
        assert!(body.contains("qarith_stage_total_seconds_bucket{le=\"+Inf\"}"));
        assert!(body.contains("# TYPE qarith_stage_measure_seconds histogram"));
    }

    // `GET /slow` rides the same connection; the log is empty (no
    // threshold configured) but the JSON shape is live.
    stream.write_all(b"GET /slow HTTP/1.1\r\nHost: torture\r\n\r\n").expect("request");
    let (status, header, body) = read_http_response(&mut stream);
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert!(header.contains("application/json"), "{header}");
    assert_eq!(body.trim(), "[]");

    // `Connection: close` is honored: one more response, then EOF.
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: torture\r\nConnection: close\r\n\r\n")
        .expect("request");
    let (status, header, _) = read_http_response(&mut stream);
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert!(header.to_ascii_lowercase().contains("connection: close"), "{header}");
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).expect("EOF"), 0, "close honored");
    wait_until("http connection reaped", || server.stats().connections_active == 0);
}

#[test]
fn http_1_0_requests_default_to_close() {
    let server = start_server();
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").expect("request");
    let (status, header, body) = read_http_response(&mut stream);
    assert!(status.starts_with("HTTP/1.0 200"), "version echoed: {status}");
    assert!(header.to_ascii_lowercase().contains("connection: close"), "{header}");
    assert!(body.contains("qarith_net_frames_in"));
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).expect("EOF"), 0, "1.0 closes by default");
}

#[test]
fn unknown_http_paths_get_a_404_and_keep_alive_continues() {
    let server = start_server();
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    stream.write_all(b"GET /nope HTTP/1.1\r\nHost: torture\r\n\r\n").expect("request");
    let (status, _, _) = read_http_response(&mut stream);
    assert!(status.starts_with("HTTP/1.1 404"), "{status}");
    // The connection survives the 404 and still serves real paths.
    stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: torture\r\n\r\n").expect("request");
    let (status, _, body) = read_http_response(&mut stream);
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert!(body.contains("qarith_service_queries"));
}

#[test]
fn the_server_refuses_frames_beyond_the_configured_cap() {
    let service = test_service();
    let config = NetConfig { max_frame_bytes: 64, ..test_config() };
    let server = NetServer::start(service, config).expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    stream.write_all(&65u32.to_be_bytes()).expect("header");
    expect_error(&read_raw_reply(&mut stream), ErrorKind::Frame);
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).expect("EOF"), 0, "frame errors close");
}
