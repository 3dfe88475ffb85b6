//! A fixed reference workload, timed between stretches of a timed phase,
//! that measures how fast the host serves at the time.
//!
//! It has the shape of the measured traffic on a smaller scale: a thread
//! of the benchmark's own answers lines over a loopback TCP connection,
//! doing a fixed computation (hashing into a fresh map, small
//! allocations, formatting, sorting) for each, one line in flight. It
//! uses the standard library only, so no change to the program under test
//! changes it, while the host's slow spells (slower instructions, slower
//! thread wake-ups) slow it as they slow the server.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

/// Round trips per burst.
const ROUND_TRIPS: u32 = 50;

/// A round trip's time on the reference host to which reported times are
/// scaled: about its median on a quiet 2-core x86-64 VM.
pub const NOMINAL_ROUND_TRIP_NS: f64 = 90_000.0;

pub struct Reference {
    send: TcpStream,
    recv: BufReader<TcpStream>,
    line: String,
    echo: Option<JoinHandle<()>>,
}

impl Reference {
    pub fn start() -> Result<Reference, String> {
        let err = |e: std::io::Error| format!("reference: {e}");
        let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
        let addr = listener.local_addr().map_err(err)?;
        let echo = std::thread::spawn(move || {
            if let Ok((conn, _)) = listener.accept() {
                let _ = answer(conn);
            }
        });
        let send = TcpStream::connect(addr).map_err(err)?;
        send.set_nodelay(true).map_err(err)?;
        let recv = BufReader::new(send.try_clone().map_err(err)?);
        Ok(Reference { send, recv, line: String::new(), echo: Some(echo) })
    }

    /// Runs one burst, adding the wall time of each of its round trips,
    /// in nanoseconds, to `round_trips_ns`.
    pub fn burst(&mut self, round_trips_ns: &mut Vec<u64>) -> Result<(), String> {
        for k in 0..ROUND_TRIPS {
            let t = Instant::now();
            writeln!(self.send, "{k}").map_err(|e| format!("reference: {e}"))?;
            self.line.clear();
            match self.recv.read_line(&mut self.line) {
                Ok(n) if n > 0 => {}
                _ => return Err("reference: answering thread stopped".into()),
            }
            round_trips_ns.push(t.elapsed().as_nanos() as u64);
        }
        Ok(())
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        let _ = self.send.shutdown(Shutdown::Both);
        if let Some(h) = self.echo.take() {
            let _ = h.join();
        }
    }
}

/// Answers each line with a digest of the fixed computation it names.
fn answer(conn: TcpStream) -> std::io::Result<()> {
    conn.set_nodelay(true)?;
    let mut out = conn.try_clone()?;
    let mut lines = BufReader::new(conn);
    let mut line = String::new();
    while lines.read_line(&mut line)? > 0 {
        let k: u64 = line.trim().parse().unwrap_or(0);
        writeln!(out, "{}", mix(k))?;
        line.clear();
    }
    Ok(())
}

fn mix(k: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ k;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
    for i in 0..400u32 {
        map.entry(next() % 128).or_default().push(i);
    }
    let mut lines: Vec<String> = Vec::with_capacity(map.len());
    for (k, v) in &map {
        let mut line = String::new();
        let _ = write!(line, "verdict id={k} n={} first={}", v.len(), v[0]);
        lines.push(line);
    }
    lines.sort_unstable();
    lines.iter().map(|l| l.len() as u64).sum::<u64>() ^ next()
}
