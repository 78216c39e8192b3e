//! The `cosched serve` child process.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Server-side options a run varies.
#[derive(Clone, Default)]
pub struct Flags {
    /// `--durability log --wal-dir DIR`.
    pub wal_dir: Option<PathBuf>,
    /// `--trace --trace-out FILE`.
    pub trace_out: Option<PathBuf>,
}

impl Flags {
    /// The full argument list after the binary name.
    pub fn args(&self) -> Vec<String> {
        let mut args: Vec<String> = [
            "serve",
            "--workers",
            "2",
            "--addr",
            "127.0.0.1:0",
            "--allow-shutdown",
        ]
        .map(String::from)
        .to_vec();
        if let Some(dir) = &self.wal_dir {
            args.extend(["--durability".into(), "log".into(), "--wal-dir".into()]);
            args.push(dir.display().to_string());
        }
        if let Some(file) = &self.trace_out {
            args.extend(["--trace".into(), "--trace-out".into()]);
            args.push(file.display().to_string());
        }
        args
    }
}

pub struct Server {
    child: Child,
    /// Held open so the server's later status lines never hit a closed
    /// pipe; it prints only a few, well within the pipe buffer.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Starts the server and waits for its listening line.
    pub fn start(binary: &Path, flags: &Flags) -> Result<Server, String> {
        if let Some(dir) = &flags.wal_dir {
            // Each start logs into a fresh directory: a leftover meta.json
            // is harmless, but stale generations would only cost disk.
            let _ = std::fs::remove_dir_all(dir);
        }
        let mut child = Command::new(binary)
            .args(flags.args())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        // "# cosched serve listening on ADDR (line-delimited JSON, …)"
        let addr = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.split_whitespace().nth(5)?.parse().ok());
        match addr {
            Some(addr) => Ok(Server {
                child,
                _stdout: stdout,
                addr,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server printed no listening address: {line:?}"))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set of the server process (`VmHWM`), in MiB.
    pub fn rss_peak_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("cannot read server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM line in server status".to_string())
    }

    /// Sends `shutdown` and waits for the process to exit (killing it
    /// after 30 s). Returns whether it exited cleanly.
    pub fn stop(mut self) -> bool {
        let asked = TcpStream::connect(self.addr).and_then(|mut s| {
            s.write_all(b"{\"op\":\"shutdown\"}\n")?;
            let mut reply = String::new();
            BufReader::new(s).read_line(&mut reply)
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        if asked.is_ok() {
            while Instant::now() < deadline {
                match self.child.try_wait() {
                    Ok(Some(status)) => return status.success(),
                    Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                    Err(_) => break,
                }
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        false
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached when a run bails out early: never leave a server
        // behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
