//! The end-to-end run: a fresh `netd` process, driven over loopback by
//! one closed-loop connection from this process.

use std::io::{self, BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

use qarith_net::NetClient;
use qarith_types::WriteBatch;

use crate::check::Outcome;
use crate::stream::{Op, Stream};
use crate::{host, Workload};

/// A running `netd`, killed on drop if not stopped.
#[derive(Debug)]
pub struct Netd {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: SocketAddr,
}

impl Netd {
    /// Spawns `netd` for `workload` under `seed` and waits until its
    /// listener is bound (the address is its first stdout line).
    /// Returns the daemon and the seconds from spawn to bound listener
    /// — database generation, the epoch-0 digest and service start.
    pub fn spawn(netd: &Path, workload: Workload, seed: u64) -> io::Result<(Netd, f64)> {
        let begun = Instant::now();
        let mut child = Command::new(netd)
            .args(["--scale", workload.scale().name(), "--seed", &seed.to_string(), "--quiet"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        BufReader::new(stdout).read_line(&mut line)?;
        let setup = begun.elapsed().as_secs_f64();
        let stdin = child.stdin.take();
        let mut netd = Netd { child, stdin, addr: SocketAddr::from(([127, 0, 0, 1], 0)) };
        netd.addr = line.trim().parse().map_err(|_| {
            io::Error::other(format!("netd printed `{}`, not its address", line.trim()))
        })?;
        Ok((netd, setup))
    }

    /// The bound listener address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// User plus system CPU seconds the process has used so far,
    /// threads included (`/proc/<pid>/stat`, in 1/100 s ticks).
    pub fn cpu_seconds(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or_default();
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> io::Result<u64> {
            fields
                .get(i)
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unreadable /proc stat"))
        };
        Ok((ticks(11)? + ticks(12)?) as f64 / 100.0)
    }

    /// Peak resident set in MiB (`VmHWM`).
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        let kib = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM"))?;
        Ok(kib as f64 / 1024.0)
    }

    /// Asks the daemon to drain (`quit` on stdin) and waits for it.
    pub fn stop(mut self) -> io::Result<()> {
        if let Some(mut stdin) = self.stdin.take() {
            stdin.write_all(b"quit\n")?;
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(io::Error::new(io::ErrorKind::TimedOut, "netd did not drain within 20 s"))
    }
}

impl Drop for Netd {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One timed op as the client saw it.
#[derive(Clone, Debug)]
pub struct WireOp {
    /// Op index in the workload's sequence.
    pub k: usize,
    /// The sub-window it was sent in (`None` before the window); for a
    /// probe write, the set-up daemon that took it (its index in
    /// `WireRun::setups`).
    pub sub: Option<usize>,
    /// Nanoseconds from send to decoded reply.
    pub nanos: u64,
    /// `true` for a write batch.
    pub write: bool,
    /// What the reply said.
    pub outcome: Outcome,
}

/// One sub-window of a timed window.
#[derive(Clone, Copy, Debug)]
pub struct SubWindow {
    /// Seconds from its first send to its last reply.
    pub seconds: f64,
    /// `netd` CPU seconds used in it.
    pub cpu_seconds: f64,
    /// The host's slowdown (`host::slowdown`): the mean of the readings
    /// taken just before it, during it and just after it.
    pub slowdown: f64,
}

/// What a wire run measured.
#[derive(Debug)]
pub struct WireRun {
    /// Per spawn: seconds from `netd` spawn to bound listener, and the
    /// host's slowdown measured just before and just after the spawn
    /// and its probe, averaged.
    pub setups: Vec<(f64, f64)>,
    /// Every timed op, in op order.
    pub ops: Vec<WireOp>,
    /// The timed window's sub-windows, in order.
    pub subs: Vec<SubWindow>,
    /// The write probe (`warm`, `adhoc`): the probe batches, in order,
    /// on each set-up daemon in turn (`k` is the batch's index, `sub`
    /// the daemon's).
    pub probe: Vec<WireOp>,
    /// Peak resident set of the daemon that served the window, MiB.
    pub rss_mib: f64,
}

/// Sends `batches` in order over one new connection to `daemon`, one
/// op per batch whatever the replies. The first write also waits for
/// the daemon's accept poll, so `write_p50_ms` leaves it out.
fn write_probe(daemon: &Netd, index: usize, batches: &[WriteBatch]) -> io::Result<Vec<WireOp>> {
    let mut client = NetClient::connect(daemon.addr())?;
    let mut ops = Vec::with_capacity(batches.len());
    for (k, batch) in batches.iter().enumerate() {
        let sent = Instant::now();
        let reply = client.write(batch);
        let nanos = sent.elapsed().as_nanos() as u64;
        let outcome = match &reply {
            Ok(decoded) => Outcome::of_decoded(decoded),
            Err(e) => Outcome::Failed(format!("transport: {e}")),
        };
        ops.push(WireOp { k, sub: Some(index), nanos, write: true, outcome });
    }
    Ok(ops)
}

/// How often the host's slowdown is read inside a sub-window, besides
/// at its start and end. The traffic pauses for each reading (about
/// 20 ms), and the pause is left out of the sub-window's length.
const SLOWDOWN_EVERY: Duration = Duration::from_millis(500);

/// Sends op `k` of `stream` and waits for its reply. The flag is set
/// when the connection failed, so no later op can be sent on it.
fn send(client: &mut NetClient, stream: &Stream, k: usize) -> Result<(WireOp, bool), String> {
    let Some(op) = stream.op(k) else {
        return Err(format!("the op sequence ended after {k} ops, before the window did"));
    };
    let write = matches!(op, Op::Write(_));
    let sent = Instant::now();
    let reply = match op {
        Op::Read(sql) => client.query(&sql),
        Op::Write(batch) => client.write(batch),
    };
    let nanos = sent.elapsed().as_nanos() as u64;
    let outcome = match &reply {
        Ok(decoded) => Outcome::of_decoded(decoded),
        Err(e) => Outcome::Failed(format!("transport: {e}")),
    };
    Ok((WireOp { k, sub: None, nanos, write, outcome }, reply.is_err()))
}

/// Runs `stream` against a fresh `netd` for `seconds`, over one
/// closed-loop connection.
pub fn run(
    netd: &Path,
    workload: Workload,
    seed: u64,
    stream: &Stream,
    seconds: f64,
) -> Result<WireRun, String> {
    let fail = |what: &str, e: io::Error| format!("{what}: {e}");
    let slowdown = || host::slowdown().map_err(|e| fail("time the host reference", e));
    let mut setups = Vec::with_capacity(workload.setup_spawns());
    let mut probe = Vec::new();
    let mut before = slowdown()?;
    for i in 0..workload.setup_spawns() - 1 {
        let (d, setup) = Netd::spawn(netd, workload, seed).map_err(|e| fail("spawn netd", e))?;
        probe.extend(write_probe(&d, i, stream.probe()).map_err(|e| fail("probe connect", e))?);
        drop(d);
        let after = slowdown()?;
        setups.push((setup, (before + after) / 2.0));
        before = after;
    }
    // The last daemon serves the window and takes no probe writes.
    let (daemon, setup) = Netd::spawn(netd, workload, seed).map_err(|e| fail("spawn netd", e))?;
    let after = slowdown()?;
    setups.push((setup, (before + after) / 2.0));
    before = after;

    let mut client = NetClient::connect(daemon.addr()).map_err(|e| fail("connect", e))?;
    // Untimed warm-up: the first request also waits for netd's 25 ms
    // accept poll, and the pass of the family strings fills the plan
    // and ν caches.
    for sql in stream.warmup() {
        match client.query(sql) {
            Ok(decoded) if Outcome::of_decoded(&decoded).ok() => {}
            Ok(decoded) => return Err(format!("warm-up `{sql}` failed: {decoded:?}")),
            Err(e) => return Err(fail("warm-up", e)),
        }
    }

    let mut ops: Vec<WireOp> = Vec::new();
    // Untimed ramp: the first ops of the sequence, still served from
    // the caches the warm-up pass filled (checked like the rest).
    for k in 0..workload.ramp_ops() {
        ops.push(send(&mut client, stream, k)?.0);
    }

    let sub_length = Duration::from_secs_f64(seconds / workload.subwindows() as f64);
    let mut subs = Vec::with_capacity(workload.subwindows());
    let mut k = workload.ramp_ops();
    'window: for sub in 0..workload.subwindows() {
        let cpu_before = daemon.cpu_seconds().map_err(|e| fail("read netd cpu", e))?;
        let begun = Instant::now();
        let mut paused = Duration::ZERO;
        let mut readings = vec![before];
        let mut last_reading = begun;
        while begun.elapsed() - paused < sub_length {
            if last_reading.elapsed() >= SLOWDOWN_EVERY {
                let reading = Instant::now();
                readings.push(slowdown()?);
                paused += reading.elapsed();
                last_reading = Instant::now();
            }
            let (op, broken) = send(&mut client, stream, k)?;
            ops.push(WireOp { sub: Some(sub), ..op });
            k += 1;
            if broken {
                break 'window;
            }
        }
        let seconds = (begun.elapsed() - paused).as_secs_f64();
        let cpu_seconds = daemon.cpu_seconds().map_err(|e| fail("read netd cpu", e))? - cpu_before;
        before = slowdown()?;
        readings.push(before);
        let slowdown = readings.iter().sum::<f64>() / readings.len() as f64;
        subs.push(SubWindow { seconds, cpu_seconds, slowdown });
    }

    let rss_mib = daemon.peak_rss_mib().map_err(|e| fail("read netd rss", e))?;
    drop(client);
    daemon.stop().map_err(|e| fail("stop netd", e))?;
    Ok(WireRun { setups, ops, subs, probe, rss_mib })
}
