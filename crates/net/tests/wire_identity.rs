//! Concurrency bit-identity through real sockets: N wire clients × M
//! passes over the whole workload population, every reply compared
//! against a sequential in-process reference — the serving layer's
//! determinism contract must survive the network byte-for-byte.
//!
//! Also exercises the `GET /metrics` endpoint while query traffic is
//! in flight (the exposition is served on the same port by the same
//! accept loop).

use std::sync::Arc;
use std::time::{Duration, Instant};

use qarith_core::afpras::{AfprasOptions, SampleCount};
use qarith_core::{BatchOptions, MeasureOptions, MethodChoice};
use qarith_datagen::{QueryFamily, WorkloadScale};
use qarith_net::{scrape_metrics, Decoded, NetClient, NetConfig, NetServer};
use qarith_serve::{QueryService, ServeConfig};

const CLIENTS: usize = 4;
const PASSES: usize = 3;

/// 64-bit FNV-1a over the μ-relevant reply bits — the same digest
/// construction `serve_bench` gates (qarith_numeric::Fnv1a64), inlined
/// here so the test states its expectation independently.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn update(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One reply reduced to its identity bits.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Identity {
    fingerprint: String,
    answers: Vec<(String, u64, u64, u64)>,
}

impl Identity {
    fn digest_into(&self, fnv: &mut Fnv) {
        fnv.update(self.fingerprint.as_bytes());
        for (tuple, bits, samples, dim) in &self.answers {
            fnv.update(tuple.as_bytes());
            fnv.update(&bits.to_be_bytes());
            fnv.update(&samples.to_be_bytes());
            fnv.update(&dim.to_be_bytes());
        }
    }
}

fn of_wire(reply: &Decoded) -> Identity {
    let Decoded::Reply(reply) = reply else { panic!("expected ok reply, got {reply:?}") };
    Identity {
        fingerprint: reply.fingerprint.clone(),
        answers: reply
            .answers
            .iter()
            .map(|a| (a.tuple.clone(), a.nu_bits, a.samples, a.dimension))
            .collect(),
    }
}

fn of_response(response: &qarith_serve::QueryResponse) -> Identity {
    Identity {
        fingerprint: response.fingerprint.clone(),
        answers: response
            .answers
            .iter()
            .map(|a| {
                (
                    a.tuple.to_string(),
                    a.certainty.value.to_bits(),
                    a.certainty.samples as u64,
                    a.certainty.dimension as u64,
                )
            })
            .collect(),
    }
}

fn start_server() -> NetServer {
    let db = qarith_datagen::sales::sales_database(&WorkloadScale::Tiny.params(), 2020);
    let options = MeasureOptions {
        method: MethodChoice::Afpras,
        afpras: AfprasOptions {
            epsilon: 0.1,
            samples: SampleCount::Paper,
            seed: 2020 ^ 0xF1616,
            ..AfprasOptions::default()
        },
        batch: BatchOptions { threads: 1, dedup: true },
        ..MeasureOptions::default()
    };
    let service =
        Arc::new(QueryService::new(db, ServeConfig { options, ..ServeConfig::default() }));
    let config = NetConfig { tick: Duration::from_millis(2), ..NetConfig::default() };
    NetServer::start(service, config).expect("bind loopback")
}

#[test]
fn concurrent_wire_clients_match_the_sequential_reference_digest() {
    let server = start_server();
    let addr = server.local_addr();
    let sql: Vec<String> =
        QueryFamily::all().iter().flat_map(QueryFamily::queries).map(|q| q.sql).collect();

    // Sequential in-process reference, and its digest over one pass.
    let reference: Vec<Identity> =
        sql.iter().map(|q| of_response(&server.service().query(q).expect("reference"))).collect();
    let mut reference_digest = Fnv::new();
    for identity in &reference {
        identity.digest_into(&mut reference_digest);
    }

    // N wire clients × M passes, each client starting at its own
    // rotation of the template order so plan/ν-cache states differ
    // across interleavings — the answers must not.
    let workers: Vec<_> = (0..CLIENTS)
        .map(|client_id| {
            let sql = sql.clone();
            let reference = reference.clone();
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                let n = sql.len();
                let mut per_pass_digests = Vec::new();
                for _pass in 0..PASSES {
                    // Rotated order; digest accumulated in canonical
                    // (unrotated) template order for comparability.
                    let mut pass: Vec<Option<Identity>> = vec![None; n];
                    for step in 0..n {
                        let idx = (client_id + step) % n;
                        let wire = of_wire(&client.query(&sql[idx]).expect("wire query"));
                        assert_eq!(wire, reference[idx], "client {client_id} template {idx}");
                        pass[idx] = Some(wire);
                    }
                    let mut digest = Fnv::new();
                    for identity in pass.iter().flatten() {
                        identity.digest_into(&mut digest);
                    }
                    per_pass_digests.push(digest.0);
                }
                per_pass_digests
            })
        })
        .collect();

    for worker in workers {
        for digest in worker.join().expect("client thread") {
            assert_eq!(
                digest, reference_digest.0,
                "every client, every pass: the sequential reference digest"
            );
        }
    }

    // Accounting closes: every request produced exactly one reply.
    let expected = (CLIENTS * PASSES * sql.len()) as u64;
    let stats = server.stats();
    assert_eq!(stats.frames_in, expected);
    assert_eq!(stats.frames_out, expected);
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.timeouts, 0);
}

#[test]
fn metrics_scrape_works_alongside_query_traffic() {
    let server = start_server();
    let addr = server.local_addr();

    // Keep queries flowing while scraping.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let traffic = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut client = NetClient::connect(addr).expect("connect");
            let mut served = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                client.query("SELECT P.id FROM Products P").expect("query");
                served += 1;
            }
            served
        })
    };

    let deadline = Instant::now() + Duration::from_secs(10);
    let mut scrapes = 0usize;
    while scrapes < 5 && Instant::now() < deadline {
        let body = scrape_metrics(addr).expect("scrape");
        for needle in [
            "# TYPE qarith_net_connections_active gauge",
            "# TYPE qarith_net_frames_in counter",
            "qarith_service_queries ",
            "qarith_admission_in_flight ",
            "qarith_sharded_cache_hits ",
            "qarith_batch_candidates ",
            "qarith_rewrite_groups ",
        ] {
            assert!(body.contains(needle), "scrape missing `{needle}`:\n{body}");
        }
        assert!(!body.contains("qarith_nucache_"), "scrape has a retired family:\n{body}");
        scrapes += 1;
    }
    assert_eq!(scrapes, 5, "five clean scrapes under load");
    stop.store(true, std::sync::atomic::Ordering::Release);
    let served = traffic.join().expect("traffic thread");
    assert!(served > 0);

    // Unknown paths 404 without disturbing anything.
    assert!(scrape_metrics(addr).is_ok());
    let err = {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        stream.write_all(b"GET /nope HTTP/1.0\r\n\r\n").expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        response
    };
    assert!(err.starts_with("HTTP/1.0 404"), "{err}");
}
