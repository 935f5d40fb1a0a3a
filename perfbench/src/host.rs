//! The host-speed reference: two fixed pieces of work, built from the
//! standard library alone, that the benchmark times next to the
//! program on the same CPU.
//!
//! On a shared virtual machine the host's speed moves by a quarter or
//! more between runs minutes apart, and within a run from one second to
//! the next, and it moves the program's times with it. The reference
//! uses none of the program's code, so a change to the program never
//! moves it; it moves only with the host. It times the two kinds of
//! work that tracked the program's sub-second slowdowns best among
//! those tried (see the README's *Steadiness*): fresh memory touched
//! and copied, as a database clone does, and loopback round trips, as
//! every request makes. Integer and floating-point arithmetic on a
//! cache-resident table tracked them worst.
//!
//! [`slowdown`] reports how much slower than nominal the host runs now,
//! and each timed figure is divided by it: the figures read as they
//! would on a host that does the reference work in exactly the nominal
//! times.

use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// Seconds one memory pass takes on the machine the bounds were set on
/// (a shared 2-vCPU virtual machine, Intel Xeon at 2.1 GHz), near the
/// median of what it read there.
pub const NOMINAL_MEMORY_SECONDS: f64 = 5.0e-3;

/// Seconds one loopback round trip takes on that machine, likewise.
pub const NOMINAL_ROUND_TRIP_SECONDS: f64 = 10.0e-6;

/// Bytes of fresh memory one memory pass allocates, touches and copies.
const MEMORY_BYTES: usize = 4 << 20;

/// Memory passes per measurement; the measurement is their median.
const MEMORY_PASSES: usize = 3;

/// Timed loopback round trips per measurement, after untimed ones that
/// set the connection up; the measurement is their median.
const ROUND_TRIPS: usize = 101;
const UNTIMED_ROUND_TRIPS: usize = 20;

/// One memory pass: allocate `MEMORY_BYTES`, write one byte a page
/// (each write faults a fresh page in), and copy the whole buffer.
fn memory_pass() {
    let mut fresh = vec![0u8; MEMORY_BYTES];
    for i in (0..fresh.len()).step_by(4096) {
        fresh[i] = 1;
    }
    black_box(black_box(&fresh).clone());
}

/// The median seconds of `passes` calls of `work`.
fn median_seconds(passes: usize, mut work: impl FnMut() -> io::Result<()>) -> io::Result<f64> {
    let mut times = Vec::with_capacity(passes);
    for _ in 0..passes {
        let begun = Instant::now();
        work()?;
        times.push(begun.elapsed().as_secs_f64());
    }
    Ok(crate::report::median(&mut times))
}

/// The median seconds of a 64-byte loopback round trip to an echo
/// thread of this process (which runs on the same CPU as the rest).
fn round_trip_seconds() -> io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> io::Result<()> {
        let (mut stream, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        let mut buf = [0u8; 64];
        while stream.read_exact(&mut buf).is_ok() {
            stream.write_all(&buf)?;
        }
        Ok(())
    });
    let mut client = TcpStream::connect(addr)?;
    client.set_nodelay(true)?;
    let mut buf = [7u8; 64];
    let mut round_trip = || -> io::Result<()> {
        client.write_all(&buf)?;
        client.read_exact(&mut buf)
    };
    for _ in 0..UNTIMED_ROUND_TRIPS {
        round_trip()?;
    }
    let seconds = median_seconds(ROUND_TRIPS, round_trip);
    drop(client);
    echo.join().map_err(|_| io::Error::other("echo thread panicked"))??;
    seconds
}

/// How much slower than nominal the host runs now: the geometric mean
/// of the memory pass's and the round trip's times over their nominal
/// times (1.0 at the nominal speed, 1.3 when 30% slower).
pub fn slowdown() -> io::Result<f64> {
    let memory = median_seconds(MEMORY_PASSES, || {
        memory_pass();
        Ok(())
    })?;
    let round_trip = round_trip_seconds()?;
    Ok((memory / NOMINAL_MEMORY_SECONDS * round_trip / NOMINAL_ROUND_TRIP_SECONDS).sqrt())
}

#[cfg(test)]
mod tests {
    #[test]
    fn slowdown_is_a_positive_ratio() {
        let s = super::slowdown().expect("loopback works");
        assert!(s.is_finite() && s > 0.0, "{s}");
    }
}
