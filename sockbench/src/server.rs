//! One `eqsql-serve --listen` process: launch, readiness, `/proc`
//! counters, and a drain that waits for the process to end.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// CPU nanoseconds spent between two [`ServerProc::thread_cpu_ns`]
/// readings, by the threads alive at the second. The server's threads live
/// as long as their connection, so during a timed phase none is lost.
pub fn cpu_between(before: &HashMap<u32, u64>, after: &HashMap<u32, u64>) -> u64 {
    after.iter().map(|(tid, ns)| ns.saturating_sub(before.get(tid).copied().unwrap_or(0))).sum()
}

/// A running server. Dropping it kills the process and waits for it, so
/// no error path leaves a server behind.
pub struct ServerProc {
    child: Child,
    pub addr: String,
    stdout: Option<std::thread::JoinHandle<()>>,
}

/// How to start the server.
pub struct Launch<'a> {
    pub binary: &'a Path,
    pub fixture: &'a Path,
    pub cache_dir: Option<&'a Path>,
    pub log: PathBuf,
}

impl ServerProc {
    /// Starts the server on an ephemeral port and returns once it prints
    /// its `listening on` line, i.e. once Σ is loaded and any cache store
    /// is open.
    pub fn start(l: &Launch<'_>) -> Result<ServerProc, String> {
        let log = std::fs::File::create(&l.log).map_err(|e| format!("{}: {e}", l.log.display()))?;
        let mut cmd = Command::new(l.binary);
        cmd.args(["--listen", "127.0.0.1:0"]);
        if let Some(dir) = l.cache_dir {
            cmd.arg("--cache-dir").arg(dir);
        }
        cmd.arg(l.fixture).stdin(Stdio::null()).stdout(Stdio::piped()).stderr(log);
        let mut child = cmd.spawn().map_err(|e| format!("{}: {e}", l.binary.display()))?;
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = match out.read_line(&mut line) {
            Ok(n) if n > 0 => line.trim().strip_prefix("listening on ").map(str::to_string),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server did not start: {line:?} (see {})", l.log.display()));
        };
        // Keep reading so the server never blocks on a full pipe; its
        // closing stat lines go nowhere.
        let stdout = std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(out.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        Ok(ServerProc { child, addr, stdout: Some(stdout) })
    }

    /// Each server thread's time on a CPU so far, in nanoseconds, by
    /// thread id: the first field of `/proc/<pid>/task/<tid>/schedstat`.
    pub fn thread_cpu_ns(&self) -> Result<HashMap<u32, u64>, String> {
        let dir = format!("/proc/{}/task", self.child.id());
        let mut out = HashMap::new();
        for entry in std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))? {
            let entry = entry.map_err(|e| format!("{dir}: {e}"))?;
            let Some(tid) = entry.file_name().to_str().and_then(|t| t.parse::<u32>().ok()) else {
                continue;
            };
            // A thread may end between listing and reading; it is not counted.
            let Ok(stat) = std::fs::read_to_string(entry.path().join("schedstat")) else {
                continue;
            };
            let ns = stat.split_whitespace().next().and_then(|f| f.parse::<u64>().ok());
            out.insert(tid, ns.ok_or_else(|| format!("{dir}/{tid}/schedstat: malformed"))?);
        }
        Ok(out)
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }

    /// Asks the server to drain and waits for it to exit.
    pub fn drain(mut self) -> Result<(), String> {
        let drained = eqsql_net::Client::connect(self.addr.as_str())
            .and_then(|mut c| c.drain())
            .map_err(|e| format!("drain: {e}"));
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("server did not exit after drain".into()),
            }
        }
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
        drained
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
    }
}
