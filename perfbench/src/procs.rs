//! Server processes: launch `ee-serve`, wait for its `LISTENING` line,
//! kill and relaunch it, and sample CPU time and peak RSS from `/proc`.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How one server process is started.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Role label for logs (`server`, `shard-0`, `router`).
    pub role: String,
    /// Command-line flags.
    pub args: Vec<String>,
    /// `EE_SERVE_DATA_DIR`, for a durable store.
    pub data_dir: Option<PathBuf>,
    /// The fixed bind address (so a restart keeps it).
    pub addr: SocketAddr,
}

/// A running server process.
pub struct Server {
    pub spec: Spec,
    child: Child,
}

/// Time allowed from spawn to `LISTENING`.
const LISTEN_TIMEOUT: Duration = Duration::from_secs(60);

/// `n` distinct free loopback addresses for servers to bind. Ports come
/// from below Linux's ephemeral range (32768 and up), so no outgoing
/// connection can take a port while its server restarts, and every
/// candidate stays bound until all `n` are found, so no two coincide.
pub fn free_addrs(n: usize) -> std::io::Result<Vec<SocketAddr>> {
    let start = 20_000 + (std::process::id() as usize * 7919) % 12_000;
    let held: Vec<TcpListener> = (0..12_000)
        .map(|k| 20_000 + (start - 20_000 + k) % 12_000)
        .filter_map(|port| TcpListener::bind(("127.0.0.1", port as u16)).ok())
        .take(n)
        .collect();
    if held.len() < n {
        return Err(std::io::Error::new(
            std::io::ErrorKind::AddrInUse,
            "no free loopback ports in 20000..32000",
        ));
    }
    held.iter().map(TcpListener::local_addr).collect()
}

impl Server {
    /// Spawn `spec` from `binary`, logging stderr under `log_dir`.
    pub fn spawn(
        binary: &Path,
        spec: Spec,
        log_dir: &Path,
    ) -> Result<(Server, mpsc::Receiver<String>), String> {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log_dir.join(format!("{}.log", spec.role)))
            .map_err(|e| format!("cannot open server log: {e}"))?;
        let mut cmd = Command::new(binary);
        cmd.args(&spec.args)
            .env("EE_SERVE_ADDR", spec.addr.to_string())
            .env_remove("EE_SERVE_TINY")
            .env_remove("EE_SERVE_WORKERS")
            .env_remove("EE_SERVE_BACKENDS")
            .env_remove("EE_SERVE_WRITABLE")
            .env_remove("EE_WAL_NO_SYNC")
            .env_remove("EE_SERVE_SLOW_EVERY")
            .env_remove("EE_SERVE_SLOW_MS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log));
        match &spec.data_dir {
            Some(dir) => cmd.env("EE_SERVE_DATA_DIR", dir),
            None => cmd.env_remove("EE_SERVE_DATA_DIR"),
        };
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout piped");
        let (tx, rx) = mpsc::channel();
        // Forwards stdout lines; ends when the process closes stdout.
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Ok((Server { spec, child }, rx))
    }

    /// Process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL and reap.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Wait for a `LISTENING` line on `rx`.
pub fn await_listening(role: &str, rx: &mpsc::Receiver<String>) -> Result<(), String> {
    let deadline = Instant::now() + LISTEN_TIMEOUT;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(left) {
            Ok(line) if line.starts_with("LISTENING ") => return Ok(()),
            Ok(_) => continue,
            Err(_) => return Err(format!("{role} exited or did not print LISTENING")),
        }
    }
}

/// Start `specs` (shards together, a router once they listen) and return
/// them with the time from the first spawn until every one printed
/// `LISTENING`.
pub fn launch(
    binary: &Path,
    specs: &[Spec],
    log_dir: &Path,
) -> Result<(Vec<Server>, Duration), String> {
    let t0 = Instant::now();
    let mut servers = Vec::new();
    let mut pending: Vec<(String, mpsc::Receiver<String>)> = Vec::new();
    for spec in specs {
        // A router needs its shards up first; shards start together.
        if spec.role == "router" {
            for (role, rx) in pending.drain(..) {
                await_listening(&role, &rx)?;
            }
        }
        let (server, rx) = Server::spawn(binary, spec.clone(), log_dir)?;
        pending.push((spec.role.clone(), rx));
        servers.push(server);
    }
    for (role, rx) in pending {
        await_listening(&role, &rx)?;
    }
    Ok((servers, t0.elapsed()))
}

/// SIGKILL `server` and start it again from the same spec (same address,
/// same data directory); returns the time from the kill to `LISTENING`.
pub fn restart(binary: &Path, server: &mut Server, log_dir: &Path) -> Result<Duration, String> {
    let spec = server.spec.clone();
    let t0 = Instant::now();
    server.kill();
    let (fresh, rx) = Server::spawn(binary, spec, log_dir)?;
    *server = fresh;
    await_listening(&server.spec.role, &rx)?;
    Ok(t0.elapsed())
}

/// User + system CPU time of `pid`, in clock ticks.
pub fn cpu_ticks(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    Some(f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?)
}

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, 100 on Linux).
pub const TICKS_PER_SEC: f64 = 100.0;

/// Peak resident set (`VmHWM`) of `pid`, in KiB.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Host-wide CPU counters from `/proc/stat`: (steal, total) ticks.
pub fn host_cpu() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let v: Vec<u64> = line
        .split_whitespace()
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal (guest counted in user)
    Some((*v.get(7)?, v.iter().take(8).sum()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_process_counters() {
        let pid = std::process::id();
        assert!(cpu_ticks(pid).is_some());
        assert!(vm_hwm_kib(pid).unwrap() > 0);
        let (steal, total) = host_cpu().unwrap();
        assert!(total > steal);
    }
}
