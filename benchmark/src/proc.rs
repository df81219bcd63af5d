//! Child processes with a hard deadline. Every run of every workload happens
//! in a fresh child of the benchmark binary; a child that passes its
//! deadline is killed together with everything it started, and counts as a
//! failed run.

use std::io::Read;
use std::os::unix::process::CommandExt;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

extern "C" {
    /// `kill(2)` from the C library std already links.
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;

/// SIGKILL every process in group `pgid`, then wait (bounded) until the
/// group is empty, so nothing the benchmark started outlives it.
fn kill_group(pgid: u32) {
    let Ok(pgid) = i32::try_from(pgid) else { return };
    if pgid <= 1 {
        return; // never signal "every process" (-1) or our own group (0)
    }
    // SAFETY: `kill` takes two integers and touches no memory of ours; a
    // negative pid addresses the process group this harness created with
    // `process_group(0)`, and signal 0 only probes for existence.
    unsafe {
        kill(-pgid, SIGKILL);
        let until = Instant::now() + Duration::from_secs(5);
        while kill(-pgid, 0) == 0 && Instant::now() < until {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// How a supervised process ended.
pub struct Finished {
    pub status: ExitStatus,
    pub stdout: String,
}

/// A spawned process whose standard output is being drained in the
/// background (a full pipe must never stall the process being timed).
pub struct Supervised {
    child: Child,
    reader: Option<std::thread::JoinHandle<String>>,
    own_group: bool,
}

impl Supervised {
    /// Spawn `cmd` with piped stdout. With `own_group` the process leads a
    /// new process group, which a missed deadline kills as a whole.
    pub fn spawn(mut cmd: Command, own_group: bool) -> std::io::Result<Self> {
        cmd.stdin(Stdio::null()).stdout(Stdio::piped());
        if own_group {
            cmd.process_group(0);
        }
        let mut child = cmd.spawn()?;
        let mut pipe = child.stdout.take().expect("stdout was piped");
        let reader = std::thread::spawn(move || {
            let mut text = String::new();
            // Invalid UTF-8 or a read error simply truncates the text; the
            // caller then fails to parse a result and fails the run.
            let _ = pipe.read_to_string(&mut text);
            text
        });
        Ok(Self { child, reader: Some(reader), own_group })
    }

    /// Wait until the process exits or `deadline` passes; past the deadline
    /// it is killed (with its group, if it leads one) and an error returned.
    pub fn finish(mut self, deadline: Instant) -> Result<Finished, String> {
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Ok(status),
                Ok(None) if Instant::now() >= deadline => {
                    break Err("deadline passed".to_string())
                }
                // Fine-grained: this poll's period is noise on `run_total_s`.
                Ok(None) => std::thread::sleep(Duration::from_micros(500)),
                Err(e) => break Err(format!("wait failed: {e}")),
            }
        };
        if status.is_err() {
            self.kill();
        }
        let stdout =
            self.reader.take().map(|r| r.join().unwrap_or_default()).unwrap_or_default();
        status.map(|status| Finished { status, stdout })
    }

    /// Kill the process (and its group) and reap it.
    pub fn kill(&mut self) {
        if self.own_group {
            kill_group(self.child.id());
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Supervised {
    fn drop(&mut self) {
        // Reached only on early-error paths (`finish` consumes `self` and
        // reaps); never leave a process behind.
        if matches!(self.child.try_wait(), Ok(None)) {
            self.kill();
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// The last non-empty line of a process's output — where every mode of this
/// binary prints its result.
pub fn last_line(text: &str) -> Option<&str> {
    text.lines().rev().find(|l| !l.trim().is_empty())
}

/// This process's peak resident set (`VmHWM`) in kB; 0 where `/proc` does
/// not say.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_captured_and_status_reported() {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "echo first; echo; echo last; exit 3"]);
        let done = Supervised::spawn(cmd, true)
            .unwrap()
            .finish(Instant::now() + Duration::from_secs(10))
            .unwrap();
        assert_eq!(done.status.code(), Some(3));
        assert_eq!(last_line(&done.stdout), Some("last"));
    }

    #[test]
    fn a_missed_deadline_kills_the_whole_group() {
        // The shell starts a grandchild and both would sleep for a minute.
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "sleep 60 & sleep 60"]);
        let started = Instant::now();
        let run = Supervised::spawn(cmd, true).unwrap();
        let out = run.finish(Instant::now() + Duration::from_millis(100));
        assert!(out.is_err());
        // `finish` joined the stdout reader, which only returns once every
        // holder of the pipe — the grandchild included — is gone.
        assert!(started.elapsed() < Duration::from_secs(20));
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_kb() > 0);
        assert_eq!(last_line("\n\n"), None);
    }
}
