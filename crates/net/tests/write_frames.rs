//! Write-frame torture: `qarith-write/1` payloads against a live
//! server, in the adversarial style of `torture.rs`.
//!
//! The invariants (ISSUE-10):
//!
//! * a malformed write payload gets a *survivable* structured proto
//!   error — the connection keeps serving;
//! * an oversized frame still closes the connection (framing is below
//!   payload dispatch, so writes get no special leniency);
//! * a write followed by a query **on the same connection** observes
//!   the acked epoch: the reply names the ack's `(epoch, db digest)`
//!   and the answers include the freshly inserted tuple, bit-identical
//!   to an in-process query against the same service.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qarith_datagen::WorkloadScale;
use qarith_net::frame::{self, HEADER_LEN};
use qarith_net::{Decoded, ErrorKind, NetClient, NetConfig, NetServer, Request};
use qarith_serve::{QueryService, ServeConfig};

/// Candidates are the null-`q` Orders tuples only (`q` is drawn from
/// 1..=50), so a write that inserts a large concrete `q` adds exactly
/// one certain answer.
const SQL: &str = "SELECT O.id FROM Orders O WHERE O.q >= 1000";

fn test_service() -> Arc<QueryService> {
    let db = qarith_datagen::sales::sales_database(&WorkloadScale::Tiny.params(), 2020);
    // The serving regime of `netd` and `serve_bench` at test-friendly parameters.
    Arc::new(QueryService::new(db, ServeConfig::paper_afpras(0.1, 77)))
}

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

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn send_frame(stream: &mut TcpStream, payload: &[u8]) {
    stream.write_all(&(payload.len() as u32).to_be_bytes()).expect("frame header");
    stream.write_all(payload).expect("frame payload");
}

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

/// The write under test: one fresh Orders tuple with a concrete `q`
/// far above the generator's range (and a fresh-id product key far
/// above its serial ids).
fn insert_batch() -> qarith_types::WriteBatch {
    let mut batch = qarith_types::WriteBatch::new();
    batch.insert(
        "Orders",
        vec![
            qarith_types::Value::int(1 << 20),
            qarith_types::Value::int(7),
            qarith_types::Value::num(2000),
            qarith_types::Value::num(1),
        ],
    );
    batch
}

#[test]
fn malformed_write_payloads_get_survivable_proto_errors() {
    let server = start_server();
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");

    let malformed: [&[u8]; 4] = [
        // Declared two ops, carried one.
        b"qarith-write/1 ops=2\nins Orders\tz:1\ts:x\tq:1/2\tq:1/2\n",
        // Unknown opcode.
        b"qarith-write/1 ops=1\nzap Orders\tz:1\n",
        // Unknown value sort tag.
        b"qarith-write/1 ops=1\nins Orders\tw:1\n",
        // Header with no ops count.
        b"qarith-write/1\n",
    ];
    for (i, payload) in malformed.iter().enumerate() {
        send_frame(&mut stream, payload);
        expect_error(&read_raw_reply(&mut stream), ErrorKind::Proto);
        assert!(
            server.stats().protocol_errors > i as u64,
            "each malformed payload counts: {:?}",
            server.stats()
        );
    }

    // Well-typed-but-impossible writes (unknown relation) are write
    // errors, equally survivable.
    send_frame(&mut stream, b"qarith-write/1 ops=1\nins Nowhere\tz:1\n");
    expect_error(&read_raw_reply(&mut stream), ErrorKind::Write);

    // The connection survived all of it: a real query round-trips, and
    // nothing was ever committed.
    send_frame(
        &mut stream,
        frame::encode_request(&Request { epsilon: None, sql: SQL.into() }).as_bytes(),
    );
    match frame::decode_reply(&read_raw_reply(&mut stream)).expect("reply decodes") {
        Decoded::Reply(reply) => {
            assert_eq!(reply.epoch, Some(0), "no malformed write published an epoch");
        }
        other => panic!("expected ok reply after proto errors, got {other:?}"),
    }
    assert_eq!(server.service().stats().writes, 0);
    drop(stream);
    wait_until("connection closed", || server.stats().connections_active == 0);
}

#[test]
fn oversized_write_frame_closes_the_connection() {
    let server = start_server();
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    // A length prefix beyond the frame cap: rejected before a byte of
    // the (alleged) write payload is read, and the connection closes.
    stream.write_all(&(64u32 << 20).to_be_bytes()).expect("oversized header");
    expect_error(&read_raw_reply(&mut stream), ErrorKind::Frame);
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).expect("EOF after frame error"), 0);
    wait_until("connection closed", || server.stats().connections_active == 0);
    assert_eq!(server.service().stats().writes, 0);
}

#[test]
fn write_then_query_on_one_connection_observes_the_new_epoch() {
    let server = start_server();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    // Baseline: epoch 0, only the uncertain null-`q` candidates.
    let baseline = match client.query(SQL).expect("baseline query") {
        Decoded::Reply(reply) => reply,
        other => panic!("expected reply, got {other:?}"),
    };
    assert_eq!(baseline.epoch, Some(0));
    assert!(
        baseline.answers.iter().all(|a| a.nu_bits != 1.0f64.to_bits()),
        "no certain answers before the write"
    );

    // The write, acked with the new epoch's identity.
    let ack = match client.write(&insert_batch()).expect("write round trip") {
        Decoded::Write(ack) => ack,
        other => panic!("expected write ack, got {other:?}"),
    };
    assert_eq!(ack.epoch, 1);
    assert_eq!((ack.applied, ack.noops), (1, 0));

    // Same connection, next frame: the reply names the acked epoch and
    // digest, and the inserted tuple shows up as a certain answer.
    let after = match client.query(SQL).expect("post-write query") {
        Decoded::Reply(reply) => reply,
        other => panic!("expected reply, got {other:?}"),
    };
    assert_eq!(after.epoch, Some(ack.epoch), "reply pins the acked epoch");
    assert_eq!(after.db_digest, Some(ack.db_digest), "reply pins the acked digest");
    assert_eq!(after.answers.len(), baseline.answers.len() + 1);
    let inserted = after
        .answers
        .iter()
        .find(|a| a.tuple.contains(&(1 << 20).to_string()))
        .expect("inserted tuple is an answer");
    assert_eq!(inserted.nu_bits, 1.0f64.to_bits(), "concrete q=2000 is certain");

    // And the wire view is bit-identical to an in-process query
    // against the same service.
    let reference = server.service().query(SQL).expect("in-process reference");
    assert_eq!(reference.epoch, ack.epoch);
    assert_eq!(reference.db_digest, ack.db_digest);
    assert_eq!(after.answers.len(), reference.answers.len());
    for (got, want) in after.answers.iter().zip(&reference.answers) {
        assert_eq!(got.nu_bits, want.certainty.value.to_bits(), "ν must be bit-identical");
        assert_eq!(got.tuple, want.tuple.to_string());
    }

    drop(client);
    wait_until("connection closed", || server.stats().connections_active == 0);
    let stats = server.service().stats();
    assert_eq!((stats.writes, stats.write_ops, stats.epoch), (1, 1, 1));
}
