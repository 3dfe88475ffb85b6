//! The closed-loop load generator: one `eqsql_net::Client` connection
//! with one request in flight, checking every verdict.

use crate::reference::Reference;
use crate::server::{cpu_between, ServerProc};
use crate::workload::{Expected, Item};
use eqsql_net::{Client, WireVerdict};
use std::time::{Duration, Instant};

/// One answered request.
pub struct Sample {
    /// Index into the driven slice.
    pub idx: usize,
    /// When the line was sent.
    pub sent_at: Instant,
    /// Client round trip: line sent until verdict parsed.
    pub rtt_ns: u64,
    /// The server's own `wall_us` for the request.
    pub wall_us: u64,
}

pub struct Driven {
    /// In send order, which is also completion order.
    pub samples: Vec<Sample>,
    pub attempted: usize,
    pub failed: usize,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// From the first send to the last verdict.
    pub elapsed: Duration,
    /// The server's CPU nanoseconds in each window of consecutive
    /// requests, when the drive was asked to read them.
    pub window_cpu_ns: Vec<u64>,
    /// The host's steal ticks (time the hypervisor ran something else
    /// while the VM wanted a CPU) in each window.
    pub window_steal: Vec<u64>,
    /// Times of the round trips of the reference bursts run between
    /// windows.
    pub reference_ns: Vec<u64>,
}

/// What a drive measures between windows of `window` requests, between
/// one verdict and the next send, so no request's round trip includes it:
/// the server's CPU time and the host's steal time at every boundary, and
/// a reference burst before the first window and after every
/// [`REFERENCE_EVERY`] requests' worth of windows.
pub struct Probes<'a> {
    pub server: &'a ServerProc,
    pub window: usize,
    pub reference: &'a mut Reference,
}

/// About how many requests separate two reference bursts.
pub const REFERENCE_EVERY: usize = 250;

/// Does a verdict line say what the in-process reference said?
pub fn check(v: &WireVerdict, want: &Expected) -> Result<(), String> {
    if v.terminal == "ok" && v.outcome == want.outcome && v.evidence == want.evidence {
        Ok(())
    } else {
        Err(format!(
            "id={} got outcome={} terminal={} evidence={}{}; want outcome={} evidence={}",
            v.id,
            v.outcome,
            v.terminal,
            v.evidence,
            v.msg.as_deref().map(|m| format!(" msg={m}")).unwrap_or_default(),
            want.outcome,
            want.evidence
        ))
    }
}

/// Sends `items` over one connection, waiting for each verdict before
/// sending the next line. A transport error fails the request and every
/// request after it. Fails only if a probe fails.
pub fn drive(
    addr: &str,
    items: &[Item],
    expected: &[Expected],
    mut probes: Option<Probes<'_>>,
) -> Result<Driven, String> {
    let mut d = Driven {
        samples: Vec::with_capacity(items.len()),
        attempted: items.len(),
        failed: 0,
        failures: Vec::new(),
        elapsed: Duration::ZERO,
        window_cpu_ns: Vec::new(),
        window_steal: Vec::new(),
        reference_ns: Vec::new(),
    };
    let fail = |d: &mut Driven, why: String| {
        d.failed += 1;
        if d.failures.len() < 5 {
            d.failures.push(why);
        }
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            for i in 0..items.len() {
                fail(&mut d, format!("request {i}: connect: {e}"));
            }
            return Ok(d);
        }
    };
    let mut last_cpu = probes.as_ref().map(|p| p.server.thread_cpu_ns()).transpose()?;
    if let Some(p) = &mut probes {
        p.reference.burst(&mut d.reference_ns)?;
    }
    let mut last_steal = if probes.is_some() { steal_ticks()? } else { 0 };
    let began = Instant::now();
    for (i, item) in items.iter().enumerate() {
        let t0 = Instant::now();
        let got = client.send(&item.line).and_then(|_| client.recv_verdict());
        let rtt_ns = t0.elapsed().as_nanos() as u64;
        match got {
            Ok(Some(v)) => {
                if let Err(e) = check(&v, &expected[item.expect]) {
                    fail(&mut d, format!("request {i}: {e}"));
                }
                d.samples.push(Sample { idx: i, sent_at: t0, rtt_ns, wall_us: v.wall_us });
            }
            Ok(None) | Err(_) => {
                let why = match got {
                    Err(e) => e.to_string(),
                    _ => "connection closed".to_string(),
                };
                for j in i..items.len() {
                    fail(&mut d, format!("request {j}: {why}"));
                }
                break;
            }
        }
        if let (Some(p), Some(last)) = (&mut probes, &mut last_cpu) {
            if (i + 1).is_multiple_of(p.window) {
                let now = p.server.thread_cpu_ns()?;
                let steal = steal_ticks()?;
                d.window_cpu_ns.push(cpu_between(last, &now));
                d.window_steal.push(steal.saturating_sub(last_steal));
                *last = now;
                if d.window_cpu_ns.len().is_multiple_of(REFERENCE_EVERY.div_ceil(p.window)) {
                    p.reference.burst(&mut d.reference_ns)?;
                    last_steal = steal_ticks()?;
                } else {
                    last_steal = steal;
                }
            }
        }
    }
    d.elapsed = began.elapsed();
    Ok(d)
}

/// The host's steal time so far, over all CPUs, in clock ticks: the eighth
/// figure of the `cpu` line of `/proc/stat`.
fn steal_ticks() -> Result<u64, String> {
    let stat = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| "/proc/stat: no steal time".to_string())
}

/// One counter of the server's `stats` JSON. Every key the guard reads
/// occurs once in the document.
pub fn stat(json: &str, key: &str) -> Result<u64, String> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat).ok_or_else(|| format!("stats has no {key}"))? + pat.len();
    let digits: String = json[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().map_err(|_| format!("stats: {key} is not a count"))
}

/// The server's live counters, over a short-lived connection.
pub fn server_stats(addr: &str) -> Result<String, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("stats connect: {e}"))?;
    c.stats().map_err(|e| format!("stats: {e}"))?.ok_or_else(|| "stats: connection closed".into())
}
