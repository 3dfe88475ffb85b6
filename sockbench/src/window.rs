//! The end-to-end metrics of a run, from its quieter windows.
//!
//! The timed stream is cut, in send order, into windows that each do the
//! same work (see `workload::build`). The host this benchmark runs on
//! shares its cores: for seconds at a time other tenants slow every
//! instruction by up to a third, or the hypervisor takes the VM's CPUs
//! away (steal time, up to a fifth of a minute). Their cost is one-sided,
//! so the windows that saw steal, then those that took most time, are the
//! ones most disturbed: the metrics are computed over the
//! [`QUIET_SHARE`] of the windows with least steal and, among equals,
//! least time, exactly from their raw samples pooled (percentiles by
//! nearest rank over the nanosecond round trips). A change to the program
//! moves every window alike, so it moves the quieter ones too.
//!
//! Host speed also drifts over minutes, which no statistic within a run
//! removes: the same code ran 40% slower a few minutes later. So every
//! time of the timed phase is reported at the speed of a reference host,
//! scaled by a fixed reference workload (`reference.rs`) timed in bursts
//! between stretches of the same run: `t * NOMINAL_ROUND_TRIP_NS /
//! median reference round trip`. A median over single round trips is
//! unmoved by steal that hits fewer than half of them. The figures as
//! measured go to standard error.

use crate::drive::Driven;
use crate::reference;

/// Fewest requests in a window; windows are whole rounds of the stream.
pub const MIN_WINDOW_REQUESTS: usize = 128;

/// The share of windows, the quickest, that the metrics are computed over.
/// Of the shares tried (a quarter, a half, three quarters, all), three
/// quarters gave the steadiest figures across runs once times are scaled
/// to the reference host.
pub const QUIET_SHARE: f64 = 0.75;

/// Fewest verdicts the quicker windows must pool, so that p99 has at least
/// ten samples beyond it.
pub const MIN_POOLED: usize = 1100;

struct Window {
    rtt_ns: Vec<u64>,
    /// From the window's first send to its last verdict.
    dur_ns: u64,
    /// The server's CPU time meanwhile.
    cpu_ns: u64,
    /// The host's steal ticks meanwhile.
    steal: u64,
}

/// The windows of one or more timed phases.
#[derive(Default)]
pub struct Windows {
    all: Vec<Window>,
    reference_ns: Vec<u64>,
}

/// The metrics over the quicker windows.
pub struct Summary {
    pub rps: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    pub cpu_us_per_req: f64,
    /// Verdicts pooled from the quicker windows.
    pub pooled: usize,
    pub quiet: usize,
    pub windows: usize,
    /// Throughput over all windows, for the log.
    pub all_rps: f64,
    /// Windows that saw steal.
    pub stolen: usize,
    /// The reference round trip's median time over the run.
    pub reference_ns: f64,
}

impl Summary {
    /// A time measured in this run, scaled to the reference host.
    pub fn at_reference(&self, t: f64) -> f64 {
        t * reference::NOMINAL_ROUND_TRIP_NS / self.reference_ns
    }
}

/// Exact nearest-rank percentile of sorted samples.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

impl Windows {
    /// Adds the windows of `window` requests of one timed phase whose
    /// server CPU time was read at every window boundary.
    pub fn add(&mut self, d: &Driven, window: usize) {
        let probes = d.window_cpu_ns.iter().zip(&d.window_steal);
        for (part, (&cpu_ns, &steal)) in d.samples.chunks_exact(window).zip(probes) {
            let last = part.last().expect("windows are not empty");
            let end = last.sent_at + std::time::Duration::from_nanos(last.rtt_ns);
            self.all.push(Window {
                rtt_ns: part.iter().map(|s| s.rtt_ns).collect(),
                dur_ns: (end - part[0].sent_at).as_nanos() as u64,
                cpu_ns,
                steal,
            });
        }
        self.reference_ns.extend(&d.reference_ns);
    }

    pub fn summary(mut self) -> Result<Summary, String> {
        let windows = self.all.len();
        let requests = |ws: &[Window]| ws.iter().map(|w| w.rtt_ns.len()).sum::<usize>();
        let secs = |ws: &[Window]| ws.iter().map(|w| w.dur_ns).sum::<u64>() as f64 / 1e9;
        let all_rps = requests(&self.all) as f64 / secs(&self.all);
        if self.reference_ns.is_empty() {
            return Err("no reference bursts".into());
        }
        let reference_ns = median(self.reference_ns.iter().map(|&r| r as f64).collect());
        let stolen = self.all.iter().filter(|w| w.steal > 0).count();
        self.all.sort_by_key(|w| (w.steal, w.dur_ns));
        let quiet = ((windows as f64 * QUIET_SHARE).ceil() as usize).max(1);
        let ws = &self.all[..quiet.min(windows)];
        let mut rtt: Vec<u64> = ws.iter().flat_map(|w| w.rtt_ns.iter().copied()).collect();
        if rtt.len() < MIN_POOLED {
            return Err(format!(
                "{} verdicts in the {quiet} quicker windows of {windows}; p99 needs {MIN_POOLED}",
                rtt.len()
            ));
        }
        rtt.sort_unstable();
        let n = rtt.len() as f64;
        Ok(Summary {
            rps: n / secs(ws),
            p50_us: percentile(&rtt, 0.50) as f64 / 1000.0,
            p90_us: percentile(&rtt, 0.90) as f64 / 1000.0,
            p99_us: percentile(&rtt, 0.99) as f64 / 1000.0,
            cpu_us_per_req: ws.iter().map(|w| w.cpu_ns).sum::<u64>() as f64 / 1000.0 / n,
            pooled: rtt.len(),
            quiet,
            windows,
            all_rps,
            stolen,
            reference_ns,
        })
    }
}
