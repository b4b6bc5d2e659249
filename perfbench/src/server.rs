//! The server under test: spawns `tdq serve --listen 127.0.0.1:0`, waits
//! for its ready line, and probes the process through `/proc/<pid>`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// 100 on every mainstream Linux architecture).
const TICKS_PER_S: f64 = 100.0;

/// A running `tdq serve` child process.
pub struct Server {
    child: Child,
    /// Kept open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Spawns the server and blocks until its `{"serving":…}` line.
    pub fn spawn(tdq: &Path, jobs: usize) -> Result<Server, String> {
        let mut child = Command::new(tdq)
            .args([
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--jobs",
                &jobs.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", tdq.display()))?;
        let stdout = child.stdout.take().ok_or("no server stdout")?;
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("{\"serving\":\"")
            .and_then(|s| s.strip_suffix("\"}"))
            .map(str::to_owned);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not print a ready line (got {line:?})"))
            }
        }
    }

    fn proc_file(&self, name: &str) -> Result<String, String> {
        let path = format!("/proc/{}/{name}", self.child.id());
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))
    }

    /// Server CPU time so far (user + system, all threads), in ms.
    pub fn cpu_ms(&self) -> Result<f64, String> {
        let stat = self.proc_file("stat")?;
        // Fields after the `(comm)`: state is field 3, utime 14, stime 15.
        let rest = stat.rsplit_once(')').ok_or("malformed stat")?.1;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .map(|t| t as f64)
                .ok_or_else(|| "malformed stat times".to_owned())
        };
        Ok((tick(11)? + tick(12)?) * 1000.0 / TICKS_PER_S)
    }

    /// Peak resident set size (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = self.proc_file("status")?;
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or("no VmHWM in status")?;
        Ok(kb / 1024.0)
    }

    /// Sends `shutdown` and waits for the process to exit (killing it
    /// after 10 s).
    pub fn shutdown(mut self) -> Result<(), String> {
        let sent = (|| -> std::io::Result<()> {
            let mut s = TcpStream::connect(&self.addr)?;
            s.set_read_timeout(Some(Duration::from_secs(5)))?;
            s.write_all(b"{\"id\":\"bye\",\"op\":\"shutdown\"}\n")?;
            let mut reply = String::new();
            BufReader::new(s).read_line(&mut reply)?;
            Ok(())
        })();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && sent.is_ok() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server did not exit after shutdown".to_owned());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached on error paths: never leave a server running.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
