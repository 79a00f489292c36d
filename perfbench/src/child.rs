//! The server under test: a `streamrel-serve` child process.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

pub struct Child {
    proc: std::process::Child,
    stdout: Option<JoinHandle<()>>,
    pub addr: SocketAddr,
}

impl Child {
    /// Start the server on an OS-chosen port and wait for its `PORT=`
    /// line. `data` is the durable data directory, or `None` for an
    /// in-memory database.
    pub fn spawn(server: &Path, data: Option<&Path>) -> Result<Child, String> {
        let mut cmd = Command::new(server);
        match data {
            Some(dir) => cmd.arg(dir),
            None => cmd.arg("--memory"),
        };
        let mut proc = cmd
            .arg("127.0.0.1:0")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", server.display()))?;
        let out = proc.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // The reader keeps draining stdout until the child exits, so the
        // server can never block on a full pipe.
        let stdout = std::thread::spawn(move || {
            for line in BufReader::new(out).lines() {
                let Ok(line) = line else { break };
                if let Some(port) = line.strip_prefix("PORT=") {
                    let _ = tx.send(port.trim().to_string());
                }
            }
        });
        let mut child = Child {
            proc,
            stdout: Some(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let port = rx
            .recv_timeout(Duration::from_secs(30))
            .map_err(|_| "server printed no PORT= line".to_string())?;
        child.addr.set_port(
            port.parse()
                .map_err(|_| format!("bad PORT= line `{port}`"))?,
        );
        Ok(child)
    }

    pub fn pid(&self) -> u32 {
        self.proc.id()
    }

    /// CPU seconds the server's threads have run, in nanosecond
    /// resolution (`/proc/<pid>/task/*/schedstat`; `/proc/<pid>/stat`
    /// counts in 10 ms ticks, too coarse for one capacity part). The
    /// server's threads live as long as it does, so none drop out.
    pub fn cpu_secs(&self) -> Result<f64, String> {
        let tasks = std::fs::read_dir(format!("/proc/{}/task", self.pid()))
            .map_err(|e| format!("read /proc tasks: {e}"))?;
        let mut ns = 0u64;
        for task in tasks.flatten() {
            let stat = std::fs::read_to_string(task.path().join("schedstat"))
                .map_err(|e| format!("read schedstat: {e}"))?;
            ns += stat
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or("malformed schedstat")?;
        }
        Ok(ns as f64 / 1e9)
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("read /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        let _ = self.proc.kill();
        let _ = self.proc.wait();
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
    }
}
