//! A blocking wire client: the reference implementation of the frame
//! grammar's client half, used by the test suites and `serve_bench
//! --wire` (and available to library users who want a programmatic
//! client instead of netcat).
//!
//! Deliberately plain: one ordinary blocking `TcpStream` with generous
//! socket timeouts, no ticking, no shared state. The *server* is the
//! artifact under adversarial scrutiny; the client's job is to be an
//! obviously-correct counterpart (adversarial clients in the torture
//! suite drive raw sockets directly).

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use qarith_types::WriteBatch;

use crate::frame::{self, Decoded, Request, HEADER_LEN};

/// Default socket read/write timeout of a client connection.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// One client connection to a [`NetServer`](crate::NetServer).
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
}

impl NetClient {
    /// Connects with the default 30 s socket timeouts.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
        stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(NetClient { stream })
    }

    /// Sends one request frame without waiting for the reply (the
    /// pipelining primitive; follow with [`NetClient::receive`] per
    /// send, in order).
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        self.send_frame(&frame::encode_request(request))
    }

    /// Writes one frame in one write: on a `TCP_NODELAY` socket a
    /// separate length-prefix write would leave as a segment of its own.
    fn send_frame(&mut self, payload: &str) -> io::Result<()> {
        let framed = frame::framed(payload.as_bytes()).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "payload exceeds u32 bytes")
        })?;
        self.stream.write_all(&framed)
    }

    /// Reads and decodes one reply frame. A server-side grammar break
    /// surfaces as `InvalidData`; a clean pre-frame EOF as
    /// `UnexpectedEof`.
    pub fn receive(&mut self) -> io::Result<Decoded> {
        let mut header = [0u8; HEADER_LEN];
        self.stream.read_exact(&mut header)?;
        let len = u32::from_be_bytes(header) as usize;
        let mut payload = vec![0u8; len];
        self.stream.read_exact(&mut payload)?;
        frame::decode_reply(&payload).map_err(|msg| io::Error::new(io::ErrorKind::InvalidData, msg))
    }

    /// One full round trip.
    pub fn roundtrip(&mut self, request: &Request) -> io::Result<Decoded> {
        self.send(request)?;
        self.receive()
    }

    /// Round-trips a bare SQL query (no options).
    pub fn query(&mut self, sql: &str) -> io::Result<Decoded> {
        self.roundtrip(&Request { epsilon: None, sql: sql.to_string() })
    }

    /// Round-trips one write batch. An unencodable batch (a string
    /// value containing a field separator) is `InvalidInput`; the
    /// reply is [`Decoded::Write`] on success or [`Decoded::Error`]
    /// with the server's verdict.
    pub fn write(&mut self, batch: &WriteBatch) -> io::Result<Decoded> {
        let payload = frame::encode_write(batch)
            .map_err(|msg| io::Error::new(io::ErrorKind::InvalidInput, msg))?;
        self.send_frame(&payload)?;
        self.receive()
    }
}

/// Scrapes `GET /metrics` from a server and returns the Prometheus
/// text body (status line and headers stripped).
pub fn scrape_metrics<A: ToSocketAddrs>(addr: A) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\nHost: qarith\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no HTTP header terminator"))?;
    let status = head.lines().next().unwrap_or_default();
    if !status.contains("200") {
        return Err(io::Error::new(io::ErrorKind::InvalidData, format!("scrape failed: {status}")));
    }
    Ok(body.to_string())
}
