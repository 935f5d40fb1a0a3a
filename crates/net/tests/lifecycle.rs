//! Connection-lifecycle suite: backpressure, the idle reaper, and the
//! drain protocol.
//!
//! The load-bearing invariant is the backpressure one: the admission
//! gate's permit is scoped to query *execution* inside
//! [`QueryService::query`], so a reply parked against a slow (or
//! absent) reader never holds an admission slot — other clients keep
//! flowing through even a 1-wide gate. The rest pins the timers:
//! idle connections are reaped, drains finish in-flight work, and the
//! shutdown deadline is enforced against a connection wedged
//! mid-frame.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qarith_datagen::WorkloadScale;
use qarith_net::{Decoded, ErrorKind, NetClient, NetConfig, NetServer, Request};
use qarith_serve::{QueryService, ServeConfig};

const SQL: &str = "SELECT P.id FROM Products P";

fn test_service(max_in_flight: usize) -> Arc<QueryService> {
    let db = qarith_datagen::sales::sales_database(&WorkloadScale::Tiny.params(), 2020);
    let config = ServeConfig { max_in_flight, ..ServeConfig::paper_afpras(0.1, 77) };
    Arc::new(QueryService::new(db, config))
}

fn fast_config() -> NetConfig {
    NetConfig {
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        idle_timeout: Duration::from_secs(30),
        tick: Duration::from_millis(2),
        ..NetConfig::default()
    }
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A reader that never reads must not hold an admission slot: with a
/// 1-wide gate, a second client's queries keep completing while the
/// first connection's replies sit undelivered, and the `in_flight`
/// gauge returns to 0 between executions.
#[test]
fn slow_readers_never_hold_admission_permits() {
    let server = NetServer::start(test_service(1), fast_config()).expect("bind");

    // The slow reader: pipeline a pile of requests and read nothing.
    let mut slow = NetClient::connect(server.local_addr()).expect("connect slow");
    for _ in 0..20 {
        slow.send(&Request { epsilon: None, sql: SQL.to_string() }).expect("pipelined send");
    }
    // Wait until at least one of its replies has been produced (and is
    // now parked in socket buffers or a blocked write).
    wait_until("slow reader's first reply written", || server.stats().frames_out >= 1);

    // Through the same 1-wide gate, a well-behaved client completes —
    // repeatedly — while the slow reader still hasn't read a byte.
    let mut brisk = NetClient::connect(server.local_addr()).expect("connect brisk");
    for _ in 0..5 {
        let reply = brisk.query(SQL).expect("brisk round trip");
        assert!(matches!(reply, Decoded::Reply(_)));
    }

    // The gauge proves the permit is not parked with the replies: no
    // query is executing right now, undelivered replies or not.
    wait_until("in_flight returns to 0", || server.service().admission_stats().in_flight == 0);

    // The slow reader's replies were never lost — they arrive, in
    // order, when it finally reads.
    for _ in 0..20 {
        assert!(matches!(slow.receive().expect("late reply"), Decoded::Reply(_)));
    }
}

/// A connection that goes quiet between requests is reaped at the idle
/// timeout, counted in `timeouts`, and the active gauge returns to 0.
#[test]
fn idle_connections_are_reaped() {
    let config = NetConfig {
        idle_timeout: Duration::from_millis(100),
        tick: Duration::from_millis(2),
        ..fast_config()
    };
    let server = NetServer::start(test_service(4), config).expect("bind");

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let started = Instant::now();
    // Send nothing; the server closes us (EOF) once the idle budget
    // runs out.
    let mut buf = Vec::new();
    let n = stream.read_to_end(&mut buf).expect("EOF from reaper");
    assert_eq!(n, 0, "reaped without a reply frame");
    assert!(started.elapsed() >= Duration::from_millis(90), "not reaped early");
    wait_until("reaped connection deregistered", || server.stats().connections_active == 0);
    let stats = server.stats();
    assert!(stats.timeouts >= 1, "the reap counts as a timeout: {stats:?}");
    assert_eq!(stats.connections_closed, 1);
}

/// Graceful drain under in-flight load: every request admitted before
/// the drain finishes with a real reply, no connection survives, and
/// new connections are refused.
#[test]
fn graceful_drain_finishes_in_flight_work() {
    let server = Arc::new(NetServer::start(test_service(8), fast_config()).expect("bind"));
    let addr = server.local_addr();

    // Clients hammer in a loop until the server drains them out.
    let workers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut completed = 0usize;
                let Ok(mut client) = NetClient::connect(addr) else { return completed };
                loop {
                    match client.query(SQL) {
                        Ok(Decoded::Reply(_)) => completed += 1,
                        // Drain: a structured shutdown notice or a
                        // socket-level close — both are clean ends.
                        Ok(Decoded::Error { kind, .. }) => {
                            assert_eq!(kind, ErrorKind::Shutdown);
                            return completed;
                        }
                        Ok(other) => panic!("query answered with {other:?}"),
                        Err(_) => return completed,
                    }
                }
            })
        })
        .collect();

    // Let the load establish itself, then drain.
    wait_until("load is flowing", || server.stats().frames_out >= 8);
    let outcome = server.shutdown(Duration::from_secs(10));
    assert!(outcome.drained, "drain completed: {outcome:?}");
    assert!(!outcome.forced, "no force needed for well-behaved clients: {outcome:?}");
    assert_eq!(server.stats().connections_active, 0);

    let completed: usize = workers.into_iter().map(|w| w.join().expect("worker")).sum();
    assert!(completed >= 8, "pre-drain requests completed normally ({completed})");

    // The listener is gone: new connections are refused outright.
    assert!(TcpStream::connect(addr).is_err(), "post-drain connections must be refused by the OS");
}

/// An idle connection mid-drain gets the structured shutdown notice.
#[test]
fn drain_notifies_idle_connections() {
    let server = Arc::new(NetServer::start(test_service(4), fast_config()).expect("bind"));
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    assert!(matches!(client.query(SQL).expect("warmup"), Decoded::Reply(_)));

    let drainer = {
        let server = server.clone();
        std::thread::spawn(move || server.shutdown(Duration::from_secs(10)))
    };
    // Between requests, the drain point answers `err kind=shutdown`
    // (or, in a tight race with our read, a bare close).
    match client.receive() {
        Ok(Decoded::Error { kind, .. }) => assert_eq!(kind, ErrorKind::Shutdown),
        Ok(other) => panic!("expected shutdown notice, got {other:?}"),
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::UnexpectedEof | std::io::ErrorKind::ConnectionReset
            ),
            "clean close or shutdown notice, not {e:?}"
        ),
    }
    let outcome = drainer.join().expect("drainer");
    assert!(outcome.drained && !outcome.forced, "{outcome:?}");
}

/// Whether the server end of `client`'s connection has read every byte
/// the client wrote, from the kernel's socket table: the client's send
/// queue is acknowledged (so the bytes reached the server's socket),
/// and then the server socket holds no unread byte. Two reads of the
/// table, in that order, so a segment still in flight cannot pass for
/// one already read. Without `/proc/net/tcp` (not Linux) this reports
/// `true`, and the caller's interleaving is left to the scheduler.
fn server_read_everything(client: &TcpStream) -> bool {
    let (near, far) = (
        client.local_addr().expect("client address").port(),
        client.peer_addr().expect("server address").port(),
    );
    // The (send, receive) queue sizes of the established socket whose
    // local and remote ports are `local` and `remote`.
    let queues = |local: u16, remote: u16| -> Option<(u64, u64)> {
        let table = std::fs::read_to_string("/proc/net/tcp").ok()?;
        let port =
            |addr: &str| addr.rsplit(':').next().and_then(|p| u16::from_str_radix(p, 16).ok());
        table.lines().skip(1).find_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let established = *fields.get(3)? == "01";
            if !established || port(fields.get(1)?)? != local || port(fields.get(2)?)? != remote {
                return None;
            }
            let (tx, rx) = fields.get(4)?.split_once(':')?;
            Some((u64::from_str_radix(tx, 16).ok()?, u64::from_str_radix(rx, 16).ok()?))
        })
    };
    if !std::path::Path::new("/proc/net/tcp").exists() {
        return true;
    }
    queues(near, far).is_some_and(|(unacked, _)| unacked == 0)
        && queues(far, near).is_some_and(|(_, unread)| unread == 0)
}

/// The shutdown deadline is enforced: a connection wedged mid-frame
/// (header sent, payload withheld, generous read budget) cannot stall
/// the drain past the caller's deadline plus the bounded force grace.
#[test]
fn shutdown_deadline_forces_wedged_connections() {
    let config = NetConfig {
        // A read budget far beyond the shutdown deadline: without the
        // force phase, the wedged frame would pin the drain for 30 s.
        read_timeout: Duration::from_secs(30),
        tick: Duration::from_millis(2),
        ..fast_config()
    };
    let server = NetServer::start(test_service(4), config).expect("bind");

    let mut wedged = TcpStream::connect(server.local_addr()).expect("connect");
    wedged.write_all(&128u32.to_be_bytes()).expect("header only");
    // The wedge exists only once the server has read the header: before
    // that the connection is idle, and a drain rightly closes it
    // without forcing. `connections_active == 1` is no evidence of the
    // read (the accept loop counts a connection before its thread
    // reads), so wait on the kernel's own count of unread bytes.
    wait_until("the server read the header", || server_read_everything(&wedged));
    assert_eq!(server.stats().connections_active, 1);

    let started = Instant::now();
    let outcome = server.shutdown(Duration::from_millis(200));
    let took = started.elapsed();
    assert!(outcome.forced, "the deadline had to force: {outcome:?}");
    assert!(outcome.drained, "force + grace cleared the wedge: {outcome:?}");
    assert!(
        took < Duration::from_secs(5),
        "shutdown returned promptly despite a 30 s read budget (took {took:?})"
    );
    assert_eq!(server.stats().connections_active, 0);
}
