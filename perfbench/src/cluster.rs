//! The deployed topology as child processes: two `gem-served` replicas behind one
//! `gem-routed`, started from the shipped binaries, plus the probes the benchmark
//! reads them with (Prometheus scrapes, `Stats`, `/proc` memory high-water marks).

use gem_serve::{GemClient, HealthState};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const READY_TIMEOUT: Duration = Duration::from_secs(20);
const STOP_TIMEOUT: Duration = Duration::from_secs(10);
const CONTROL_TIMEOUT: Duration = Duration::from_secs(30);

/// One daemon child process, stopped (gracefully, then by force) when dropped.
#[derive(Debug)]
pub struct Daemon {
    name: String,
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: Option<BufReader<ChildStdout>>,
    /// The serving address printed on its `listening on` line.
    pub addr: String,
    /// The Prometheus address printed on its `metrics on` line.
    pub metrics_addr: String,
}

impl Daemon {
    fn spawn(name: &str, bin: &Path, args: &[String], log: &Path) -> Result<Daemon, String> {
        let log = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().map(BufReader::new);
        let mut daemon = Daemon {
            name: name.to_string(),
            child,
            stdin,
            stdout,
            addr: String::new(),
            metrics_addr: String::new(),
        };
        daemon.await_ready()?;
        Ok(daemon)
    }

    /// Read the readiness lines: the daemon prints `metrics on <addr>` and then
    /// `listening on <addr>` once both sockets are bound.
    fn await_ready(&mut self) -> Result<(), String> {
        let reader = self.stdout.as_mut().ok_or("daemon stdout missing")?;
        let mut line = String::new();
        loop {
            line.clear();
            let read = reader
                .read_line(&mut line)
                .map_err(|e| format!("{}: {e}", self.name))?;
            if read == 0 {
                return Err(format!("{} exited before it was ready", self.name));
            }
            if let Some((_, addr)) = line.trim().split_once(" metrics on ") {
                self.metrics_addr = addr.to_string();
            }
            if let Some((_, addr)) = line.trim().split_once(" listening on ") {
                self.addr = addr.to_string();
                return if self.metrics_addr.is_empty() {
                    Err(format!("{} printed no metrics address", self.name))
                } else {
                    Ok(())
                };
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set size (`VmHWM`) in KiB.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("{}: cannot read /proc status: {e}", self.name))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("{}: no VmHWM line", self.name))
    }

    pub fn scrape(&self) -> Result<Exposition, String> {
        scrape(&self.metrics_addr)
    }

    /// Ask the daemon to shut down over its control stdin, wait for it, and kill it
    /// if it has not exited in time. Always reaps the process.
    pub fn stop(&mut self) {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"shutdown\n");
        }
        // Drain what it prints on the way out so it never blocks on a full pipe.
        if let Some(mut stdout) = self.stdout.take() {
            let deadline = Instant::now() + STOP_TIMEOUT;
            while Instant::now() < deadline {
                if let Ok(Some(_)) = self.child.try_wait() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                let mut rest = String::new();
                let _ = stdout.read_to_string(&mut rest);
            }
        }
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// How a workload configures its replicas.
#[derive(Debug, Clone)]
pub struct ReplicaOptions {
    pub cache_capacity: usize,
    /// Attach a `--store` directory per replica (inside the run directory).
    pub store: bool,
}

/// Two replicas and a router.
#[derive(Debug)]
pub struct Topology {
    pub replicas: Vec<Daemon>,
    pub router: Daemon,
}

impl Topology {
    /// Start the replicas and the router and wait until all three answer `Health`.
    pub fn start(bin_dir: &Path, run_dir: &Path, options: &ReplicaOptions) -> Result<Self, String> {
        std::fs::create_dir_all(run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
        let mut replicas = Vec::new();
        for name in ["replica-a", "replica-b"] {
            let mut args: Vec<String> = [
                "--addr",
                "127.0.0.1:0",
                "--metrics-addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--ctl-stdin",
                "--cache-capacity",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            args.push(options.cache_capacity.to_string());
            if options.store {
                let dir = run_dir.join(format!("{name}-store"));
                args.push("--store".to_string());
                args.push(dir.display().to_string());
            }
            replicas.push(Daemon::spawn(
                name,
                &bin_dir.join("gem-served"),
                &args,
                &run_dir.join(format!("{name}.log")),
            )?);
        }
        let mut args: Vec<String> = [
            "--addr",
            "127.0.0.1:0",
            "--metrics-addr",
            "127.0.0.1:0",
            "--ctl-stdin",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        for replica in &replicas {
            args.push("--replica".to_string());
            args.push(replica.addr.clone());
        }
        let router = Daemon::spawn(
            "router",
            &bin_dir.join("gem-routed"),
            &args,
            &run_dir.join("router.log"),
        )?;
        let topology = Topology { replicas, router };
        for daemon in topology.daemons() {
            await_healthy(&daemon.addr)?;
        }
        Ok(topology)
    }

    pub fn daemons(&self) -> impl Iterator<Item = &Daemon> {
        self.replicas.iter().chain(std::iter::once(&self.router))
    }

    pub fn replica_addrs(&self) -> Vec<String> {
        self.replicas.iter().map(|r| r.addr.clone()).collect()
    }

    /// CPU time the three daemons have used so far (user + system), seconds.
    /// Unlike wall time, it does not grow when the hypervisor takes the CPU away.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        // /proc reports utime and stime in USER_HZ ticks, 100 per second on Linux.
        const TICKS_PER_S: f64 = 100.0;
        let mut ticks = 0u64;
        for daemon in self.daemons() {
            let stat = std::fs::read_to_string(format!("/proc/{}/stat", daemon.pid()))
                .map_err(|e| format!("{}: cannot read /proc stat: {e}", daemon.name))?;
            // The fields after the parenthesised command name: state is field 3, so
            // utime and stime (fields 14 and 15) are the 12th and 13th.
            let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
            let fields: Vec<&str> = rest.split_whitespace().collect();
            for at in [11, 12] {
                ticks += fields
                    .get(at)
                    .and_then(|f| f.parse::<u64>().ok())
                    .ok_or_else(|| format!("{}: malformed /proc stat", daemon.name))?;
            }
        }
        Ok(ticks as f64 / TICKS_PER_S)
    }

    /// Summed `VmHWM` of the three daemons, MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let mut kib = 0;
        for daemon in self.daemons() {
            kib += daemon.peak_rss_kib()?;
        }
        Ok(kib as f64 / 1024.0)
    }

    pub fn stop(mut self) {
        self.router.stop();
        for replica in &mut self.replicas {
            replica.stop();
        }
    }
}

pub fn connect(addr: &str) -> Result<GemClient, String> {
    GemClient::connect_timeout(addr, CONTROL_TIMEOUT).map_err(|e| format!("connect {addr}: {e}"))
}

fn await_healthy(addr: &str) -> Result<(), String> {
    let deadline = Instant::now() + READY_TIMEOUT;
    loop {
        let state = connect(addr).and_then(|mut c| c.health().map_err(|e| e.to_string()));
        match state {
            Ok(health) if health.state == HealthState::Ok => return Ok(()),
            _ if Instant::now() >= deadline => {
                return Err(format!("{addr} did not report healthy: {state:?}"));
            }
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// One sample line: name, labels, value.
type Sample = (String, Vec<(String, String)>, f64);

/// One scraped Prometheus exposition.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    samples: Vec<Sample>,
}

impl Exposition {
    pub fn parse(text: &str) -> Self {
        let mut samples = Vec::new();
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        {
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            let (name, labels) = match series.split_once('{') {
                Some((name, rest)) => (name, parse_labels(rest.trim_end_matches('}'))),
                None => (series, Vec::new()),
            };
            samples.push((name.to_string(), labels, value));
        }
        Exposition { samples }
    }

    /// The value of the series `name` whose labels include every pair in `labels`.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.samples
            .iter()
            .find(|(n, have, _)| {
                n == name
                    && labels
                        .iter()
                        .all(|(k, v)| have.iter().any(|(hk, hv)| hk == k && hv == v))
            })
            .map_or(0.0, |(_, _, v)| *v)
    }

    /// Sum over every series called `name`.
    pub fn sum(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .filter(|(n, _, _)| n == name)
            .map(|(_, _, v)| v)
            .sum()
    }
}

fn parse_labels(text: &str) -> Vec<(String, String)> {
    text.split("\",")
        .filter_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            Some((k.trim().to_string(), v.trim_matches('"').to_string()))
        })
        .collect()
}

pub fn scrape(addr: &str) -> Result<Exposition, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("scrape {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(CONTROL_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .map_err(|e| format!("scrape {addr}: {e}"))?;
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .map_err(|e| format!("scrape {addr}: {e}"))?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, body)| body)
        .ok_or_else(|| format!("scrape {addr}: no HTTP body"))?;
    Ok(Exposition::parse(body))
}

/// `(all, steal)` CPU ticks of the machine so far, from `/proc/stat`. Steal is time
/// the hypervisor ran something else while this VM wanted a CPU; it is reported next
/// to the results because it moves latencies more than most code changes do.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

/// Share of the machine's CPU time stolen between two [`cpu_ticks`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let all = after.0.saturating_sub(before.0);
    if all == 0 {
        return 0.0;
    }
    after.1.saturating_sub(before.1) as f64 / all as f64
}

/// The run's scratch directory: `.bench_run/<tag>` under the working directory,
/// emptied first.
pub fn fresh_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_run").join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_is_stolen_over_all_ticks_between_readings() {
        assert_eq!(steal_share((1000, 100), (3000, 600)), 0.25);
        assert_eq!(steal_share((1000, 100), (1000, 100)), 0.0);
    }

    #[test]
    fn exposition_lookup_matches_label_subsets() {
        let text = "# TYPE x summary\n\
            gem_request_phase_seconds{shape=\"embed\",phase=\"queue\",quantile=\"0.5\"} 0.000012\n\
            gem_request_phase_seconds_sum{shape=\"embed\",phase=\"queue\"} 0.5\n\
            router_replications_total 7\n\
            router_replica_errors_total{replica=\"127.0.0.1:1\"} 1\n\
            router_replica_errors_total{replica=\"127.0.0.1:2\"} 2\n";
        let e = Exposition::parse(text);
        let q = e.get(
            "gem_request_phase_seconds",
            &[("shape", "embed"), ("phase", "queue"), ("quantile", "0.5")],
        );
        assert!((q - 12e-6).abs() < 1e-12);
        assert_eq!(e.get("router_replications_total", &[]), 7.0);
        assert_eq!(e.sum("router_replica_errors_total"), 3.0);
        assert_eq!(e.get("missing", &[]), 0.0);
    }
}
