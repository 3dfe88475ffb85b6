//! `sockbench` — the fixed-work socket benchmark for `eqsql-serve`.
//!
//! ```text
//! sockbench --workload warm_equiv|cold_cnb|restart_disk --seed N --seconds S
//!           --trace 0|1 --server PATH --fixture PATH --out DIR
//! ```
//!
//! Runs one benchmark run (normally started by `run.py`, which
//! builds both binaries first):
//!
//! 1. Generates the workload's request lines from `--seed` and computes
//!    the expected verdict of each in-process with the direct engine.
//! 2. Predicts the server's counters for the timed phase with an
//!    in-process `Solver` configured like the server.
//! 3. Launches `eqsql-serve --listen` several times, timing set-up (launch
//!    until ready, plus the warm-up pass where the workload has one); the
//!    last launch serves the timed phase.
//! 4. Drives the timed stream in a closed loop over one connection, checks
//!    every verdict and requires the server's counters to equal the
//!    prediction. The timings are reported from the run's quicker
//!    windows and scaled to a reference host (see `window.rs`).
//!
//! With `--trace 1` it instead replays the stream in-process with spans
//! around each layer's public calls (see `trace.rs`) and prints the
//! per-layer metrics. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

mod drive;
mod reference;
mod server;
mod trace;
mod window;
mod workload;

use drive::{drive, server_stats, stat, Driven, Probes};
use eqsql_service::{CacheConfig, CacheStats, ChaseCache, PersistConfig, Solver, SolverStats};
use reference::Reference;
use server::{Launch, ServerProc};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use workload::{Stream, Workload};

/// Server launches per run; `setup_s` is their median.
const SETUP_LAUNCHES: usize = 15;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub server: PathBuf,
    pub fixture: PathBuf,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut server, mut fixture, mut out) = (None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} wants a value"))?;
        let num = || value.parse::<u64>().map_err(|_| format!("{flag} wants a number"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            "--server" => server = Some(PathBuf::from(value)),
            "--fixture" => fixture = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let need = |name: &str| format!("missing --{name}");
    Ok(Args {
        workload: workload.ok_or_else(|| need("workload"))?,
        seed: seed.ok_or_else(|| need("seed"))?,
        seconds: seconds.ok_or_else(|| need("seconds"))?,
        trace: trace.ok_or_else(|| need("trace"))?,
        server: server.ok_or_else(|| need("server"))?,
        fixture: fixture.ok_or_else(|| need("fixture"))?,
        out: out.ok_or_else(|| need("out"))?,
    })
}

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// The run's result: the last line of standard output.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(m, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sockbench: {e}");
            std::process::exit(2);
        }
    };
    let run_dir =
        args.out.join(format!("run-{}-{}-{}", args.workload.name(), args.seed, std::process::id()));
    let result = std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("{}: {e}", run_dir.display()))
        .and_then(|_| run(&args, &run_dir));
    let _ = std::fs::remove_dir_all(&run_dir);
    match result {
        Ok(outcome) => {
            for (name, value, unit) in &outcome.metrics {
                println!("{:<40} {value:>14.3} {unit}", format!("{}/{name}", args.workload.name()));
            }
            println!("{}", outcome.json());
        }
        Err(e) => {
            eprintln!("sockbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args, run_dir: &Path) -> Result<Outcome, String> {
    let fixture = std::fs::read_to_string(&args.fixture)
        .map_err(|e| format!("{}: {e}", args.fixture.display()))?;
    let n = args.workload.timed_requests(args.seconds);
    let t = Instant::now();
    let stream = workload::build(args.workload, &fixture, args.seed, n)?;
    eprintln!(
        "sockbench: {} seed {}: {} timed requests, inputs and expected verdicts in {:.1}s",
        args.workload.name(),
        args.seed,
        stream.timed.len(),
        t.elapsed().as_secs_f64()
    );
    // restart_disk's store, populated in-process from the stream's first
    // half; every server launch and every in-process replay opens its own
    // copy, so each sees the same store.
    let store = run_dir.join("store");
    if args.workload == Workload::RestartDisk {
        populate(&stream, &store)?;
    }
    if args.trace {
        trace::run(args, &stream, &store, run_dir)
    } else {
        end_to_end(args, &stream, &store, run_dir)
    }
}

/// The server's counters that the fixed-work guard compares.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub requests: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub disk_hits: u64,
    pub appended: u64,
}

impl Counters {
    fn from_json(json: &str) -> Result<Counters, String> {
        Ok(Counters {
            requests: stat(json, "requests")?,
            hits: stat(json, "hits")?,
            misses: stat(json, "misses")?,
            evictions: stat(json, "evictions")?,
            disk_hits: stat(json, "disk_hits")?,
            appended: stat(json, "appended")?,
        })
    }

    pub fn from_stats(s: &SolverStats) -> Counters {
        Counters { requests: s.requests, ..Counters::of_cache_stats(&s.cache) }
    }

    /// A cache's counters (no request count).
    pub fn of_cache(cache: &ChaseCache) -> Counters {
        Counters::of_cache_stats(&cache.stats())
    }

    fn of_cache_stats(c: &CacheStats) -> Counters {
        Counters {
            requests: 0,
            hits: c.hits,
            misses: c.misses,
            evictions: c.evictions,
            disk_hits: c.persist.disk_hits,
            appended: c.persist.appended,
        }
    }

    pub fn since(self, before: Counters) -> Counters {
        Counters {
            requests: self.requests - before.requests,
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            disk_hits: self.disk_hits - before.disk_hits,
            appended: self.appended - before.appended,
        }
    }
}

/// A Solver configured as `eqsql-serve` configures its own: the fixture's
/// Σ, schema and budgets, a default-sized cache, one worker thread, and
/// the server's default persistence policy over `store` if given.
pub fn server_like_solver(stream: &Stream, store: Option<&Path>) -> Result<Solver, String> {
    let cache = ChaseCache::open(CacheConfig {
        persist: store.map(PersistConfig::at),
        ..CacheConfig::default()
    })
    .map_err(|e| format!("cache store: {e}"))?;
    Ok(Solver::builder(stream.file.sigma.clone(), stream.file.schema.clone())
        .chase_config(stream.file.config)
        .cache(Arc::new(cache))
        .build())
}

/// Fills `store` with the chases of the stream's first half.
fn populate(stream: &Stream, store: &Path) -> Result<(), String> {
    let solver = server_like_solver(stream, Some(store))?;
    for it in &stream.timed[..stream.timed.len() / 2] {
        solver.decide(&it.request).map_err(|e| format!("populate: {}: {e}", it.line))?;
    }
    Ok(())
}

/// A fresh copy of the populated store.
pub fn copy_store(store: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for entry in std::fs::read_dir(store).map_err(|e| format!("{}: {e}", store.display()))? {
        let from = entry.map_err(|e| e.to_string())?.path();
        let dest = to.join(from.file_name().expect("directory entries have names"));
        std::fs::copy(&from, &dest).map_err(|e| format!("{}: {e}", from.display()))?;
    }
    Ok(())
}

/// A server-like Solver in the state the timed phase starts from: over
/// its own copy of the store for `restart_disk`, after the warm-up pass
/// for `warm_equiv`.
pub fn solver_at_start(
    stream: &Stream,
    workload: Workload,
    store: &Path,
    dir: &Path,
) -> Result<Solver, String> {
    let solver = if workload == Workload::RestartDisk {
        copy_store(store, dir)?;
        server_like_solver(stream, Some(dir))?
    } else {
        server_like_solver(stream, None)?
    };
    for it in &stream.warmup {
        solver.decide(&it.request).map_err(|e| format!("warm-up: {}: {e}", it.line))?;
    }
    Ok(solver)
}

/// The counters the timed phase must move on the server, from the same
/// stream decided in-process by a server-like Solver in the same state.
pub fn predict(
    stream: &Stream,
    workload: Workload,
    store: &Path,
    run_dir: &Path,
) -> Result<Counters, String> {
    let solver = solver_at_start(stream, workload, store, &run_dir.join("predict"))?;
    let before = Counters::from_stats(&solver.stats());
    if workload == Workload::WarmEquiv {
        // Every timed request is a hit-only decision, whose hit count is
        // that of its base pair: decide each base pair once more.
        let mut hits = vec![0u64; stream.warmup.len()];
        for (b, it) in stream.warmup.iter().enumerate() {
            let h0 = solver.stats().cache.hits;
            let _ = solver.decide(&it.request);
            hits[b] = solver.stats().cache.hits - h0;
        }
        let after = Counters::from_stats(&solver.stats()).since(before);
        if after.misses != 0 {
            return Err(format!("warm pass missed the cache {} times", after.misses));
        }
        let n = stream.timed.len() as u64;
        let hits = stream.timed.iter().map(|it| hits[it.expect]).sum();
        return Ok(Counters { requests: n, hits, ..Counters::default() });
    }
    for it in &stream.timed {
        let _ = solver.decide(&it.request);
    }
    Ok(Counters::from_stats(&solver.stats()).since(before))
}

/// Launches the server for `workload` and brings it to the state the
/// timed phase starts from; returns it with its set-up seconds.
pub fn launch_ready(
    args: &Args,
    stream: &Stream,
    store: &Path,
    run_dir: &Path,
    k: usize,
) -> Result<(ServerProc, f64, Driven), String> {
    let dir = run_dir.join(format!("serve-{k}"));
    if args.workload == Workload::RestartDisk {
        copy_store(store, &dir)?;
    }
    let launch = Launch {
        binary: &args.server,
        fixture: &args.fixture,
        cache_dir: (args.workload == Workload::RestartDisk).then_some(dir.as_path()),
        log: run_dir.join(format!("server-{k}.log")),
    };
    let t = Instant::now();
    let server = ServerProc::start(&launch)?;
    let warm = drive(&server.addr, &stream.warmup, &stream.expected, None)?;
    Ok((server, t.elapsed().as_secs_f64(), warm))
}

/// What the timed phase measured on the server.
pub struct Timed {
    pub driven: Driven,
    /// How far the server's counters moved.
    pub moved: Counters,
    pub rss_mib: f64,
}

/// Drives the timed stream against a ready server, then drains it.
pub fn serve_timed(
    stream: &Stream,
    server: ServerProc,
    reference: &mut Reference,
) -> Result<Timed, String> {
    let before = Counters::from_json(&server_stats(&server.addr)?)?;
    let probes = Probes { server: &server, window: stream.window, reference };
    let driven = drive(&server.addr, &stream.timed, &stream.expected, Some(probes))?;
    let moved = Counters::from_json(&server_stats(&server.addr)?)?.since(before);
    let rss_mib = server.peak_rss_mib()?;
    server.drain()?;
    Ok(Timed { driven, moved, rss_mib })
}

/// The fixed-work guard: a run whose server did other work than predicted
/// is invalid, whatever its timings.
pub fn guard(moved: Counters, predicted: Counters) -> bool {
    if moved != predicted {
        eprintln!("sockbench: fixed-work guard: server moved {moved:?}, predicted {predicted:?}");
    }
    moved == predicted
}

fn end_to_end(
    args: &Args,
    stream: &Stream,
    store: &Path,
    run_dir: &Path,
) -> Result<Outcome, String> {
    let predicted = predict(stream, args.workload, store, run_dir)?;
    let rounds = args.workload.rounds(args.seconds);
    let launches = SETUP_LAUNCHES.max(rounds);
    let mut setups = Vec::with_capacity(launches);
    let (mut attempted, mut failed, mut fixed) = (0, 0, true);
    let mut failures = Vec::new();
    let mut windows = window::Windows::default();
    let mut rss = Vec::new();
    let mut reference = Reference::start()?;
    for k in 0..launches {
        let (server, setup_s, warm) = launch_ready(args, stream, store, run_dir, k)?;
        setups.push(setup_s);
        attempted += warm.attempted;
        failed += warm.failed;
        failures.extend(warm.failures);
        // The last `rounds` launches each serve a timed phase.
        if k + rounds < launches {
            server.drain()?;
            continue;
        }
        let timed = serve_timed(stream, server, &mut reference)?;
        attempted += timed.driven.attempted;
        failed += timed.driven.failed;
        failures.extend(timed.driven.failures.iter().cloned());
        fixed &= guard(timed.moved, predicted);
        windows.add(&timed.driven, stream.window);
        rss.push(timed.rss_mib);
        eprintln!(
            "sockbench: {} verdicts in {:.2}s; counters {:?}",
            timed.driven.samples.len(),
            timed.driven.elapsed.as_secs_f64(),
            timed.moved
        );
    }
    for f in failures.iter().take(5) {
        eprintln!("sockbench: failed: {f}");
    }
    let w = windows.summary()?;
    let setup_s = window::median(setups.clone());
    eprintln!(
        "sockbench: quickest {} of {} windows of {} requests ({} with steal): {} verdicts, \
         {} beyond p99; {:.1} 1/s over all windows; set-up launches {setups:.4?}",
        w.quiet,
        w.windows,
        stream.window,
        w.stolen,
        w.pooled,
        w.pooled - (0.99 * w.pooled as f64).ceil() as usize,
        w.all_rps,
    );
    eprintln!(
        "sockbench: as measured: throughput_rps {:.1} p50_us {:.1} p90_us {:.1} p99_us {:.1} \
         server_cpu_us_per_req {:.1}; reference round trip {:.1} us (median), \
         so times scale by {:.3}",
        w.rps,
        w.p50_us,
        w.p90_us,
        w.p99_us,
        w.cpu_us_per_req,
        w.reference_ns / 1e3,
        w.at_reference(1.0),
    );
    let metrics = vec![
        ("setup_s".to_string(), setup_s, "s"),
        ("throughput_rps_at_ref".to_string(), w.rps / w.at_reference(1.0), "1/s"),
        ("p50_us_at_ref".to_string(), w.at_reference(w.p50_us), "us"),
        ("p90_us_at_ref".to_string(), w.at_reference(w.p90_us), "us"),
        ("server_cpu_us_per_req_at_ref".to_string(), w.at_reference(w.cpu_us_per_req), "us"),
        ("server_rss_mib".to_string(), window::median(rss), "MiB"),
    ];
    Ok(Outcome { correct: failed == 0 && fixed, attempted, failed, metrics })
}
