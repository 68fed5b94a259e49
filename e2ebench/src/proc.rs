//! Driving the `vcheck` binary from outside, as a user does: one process
//! per CLI op, or one long-lived daemon spoken to over its stdin/stdout.

use std::{
    ffi::OsStr,
    io::{BufRead, BufReader, Read, Write},
    path::Path,
    process::{Child, ChildStdin, ChildStdout, Command, Stdio},
    time::{Duration, Instant},
};

use vc_obs::Json;

/// The result of one `vcheck` process.
pub struct CliRun {
    pub code: i32,
    pub stdout: String,
    pub wall: Duration,
    /// The process's peak resident memory, in MiB.
    pub peak_rss_mb: f64,
}

/// Runs `vcheck <args>` to completion, timing spawn to exit.
pub fn run_cli<S: AsRef<OsStr>>(vcheck: &Path, args: &[S]) -> Result<CliRun, String> {
    let t = Instant::now();
    let mut child = Command::new(vcheck)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", vcheck.display()))?;
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout);
    // Reap the child even when reading failed, so no zombie is left.
    let (code, peak_rss_mb) = wait_with_rusage(child.id())?;
    let wall = t.elapsed();
    read.map_err(|e| format!("read vcheck stdout: {e}"))?;
    Ok(CliRun {
        code,
        stdout: String::from_utf8(stdout).map_err(|_| "stdout is not UTF-8")?,
        wall,
        peak_rss_mb,
    })
}

/// A running `vcheck serve` daemon. Dropping it kills and reaps the process.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    pub fn spawn(vcheck: &Path, dir: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(vcheck)
            .arg("serve")
            .arg(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {} serve: {e}", vcheck.display()))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Daemon {
            child,
            stdin,
            stdout,
        })
    }

    /// Sends one request line and waits for its reply; the duration runs
    /// from the write to the end of the reply line.
    pub fn request(&mut self, line: &str) -> Result<(Json, Duration), String> {
        let t = Instant::now();
        let stdin = self.stdin.as_mut().ok_or("daemon stdin closed")?;
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("write to daemon: {e}"))?;
        let mut reply = String::new();
        let n = self
            .stdout
            .read_line(&mut reply)
            .map_err(|e| format!("read from daemon: {e}"))?;
        let wall = t.elapsed();
        if n == 0 {
            return Err("daemon closed its stdout".into());
        }
        let json = vc_obs::json::parse(reply.trim_end())
            .map_err(|e| format!("daemon reply is not JSON: {e}"))?;
        Ok((json, wall))
    }

    /// Peak resident memory so far (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read daemon status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in daemon status".into())
    }

    /// Sends `shutdown`, then waits for a clean exit (status 0).
    pub fn shutdown(mut self) -> Result<(), String> {
        let (reply, _) = self.request("{\"op\":\"shutdown\"}")?;
        if reply.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err("shutdown refused".into());
        }
        drop(self.stdin.take());
        let status = self
            .child
            .wait()
            .map_err(|e| format!("wait for daemon: {e}"))?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        drop(self.stdin.take());
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

#[repr(C)]
struct RUsage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut RUsage) -> i32;
}

/// Waits for child `pid` to exit; returns its exit code (-1 when a signal
/// ended it) and its peak resident memory in MiB.
fn wait_with_rusage(pid: u32) -> Result<(i32, f64), String> {
    let pid = i32::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
    let mut status = 0;
    let mut usage = RUsage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        ru_maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` is a writable int and `usage` a writable
        // `struct rusage` (two `timeval`s then fourteen `long`s on 64-bit
        // Linux), the only memory wait4 writes. `pid` is our own unreaped
        // child: the `Child` handle is never waited on elsewhere.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}): {err}"));
        }
    }
    // WIFEXITED / WEXITSTATUS.
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -1
    };
    Ok((code, usage.ru_maxrss as f64 / 1024.0))
}
