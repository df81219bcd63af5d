//! One run of one workload, in a process of its own.
//!
//! The harness re-executes this binary in `child` mode for every run
//! ([`spawn_run`]); the child makes the library calls, prints a
//! [`RunRecord`] as its last line and exits. For the TCP workload the child
//! is the master and re-executes the binary once more per cell in `slave`
//! mode.

use crate::cli::Args;
use crate::json::{self, Value};
use crate::proc::{last_line, peak_rss_kb, Supervised};
use crate::record::{RankClock, RunRecord};
use crate::spec::{self, Driver, Workload};
use crate::sut;
use crate::trace::{Span, Tracer};
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// A child that has not reported by then is killed and the run failed. The
/// slowest run sized for this benchmark takes about five seconds.
pub const RUN_DEADLINE: Duration = Duration::from_secs(60);
/// How long a finished master waits for its slaves to exit by themselves.
const SLAVE_EXIT_GRACE: Duration = Duration::from_secs(15);

/// Everything that defines one run.
#[derive(Debug, Clone)]
pub struct RunSpec<'a> {
    pub workload: &'a Workload,
    pub iterations: usize,
    pub seed: u64,
    /// Record harness spans and turn library telemetry on, journaling here.
    pub telemetry_dir: Option<&'a Path>,
    /// The harness span this run hangs under (traced runs).
    pub parent_span: Option<u64>,
}

impl<'a> RunSpec<'a> {
    /// An untraced run.
    pub fn plain(workload: &'a Workload, iterations: usize, seed: u64) -> Self {
        Self { workload, iterations, seed, telemetry_dir: None, parent_span: None }
    }
}

/// One run as the harness saw it: what the child reported plus the wall
/// clock from before spawn to the child reaped and its result in hand.
pub struct TimedRun {
    pub record: RunRecord,
    pub run_total_s: f64,
}

/// Run `spec` in a fresh child process under [`RUN_DEADLINE`]. `tracer`
/// gets the harness's own spans around spawning and reaping.
pub fn spawn_run(spec: &RunSpec<'_>, tracer: &Tracer) -> Result<TimedRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", spec.workload.name])
        .args(["--driver", spec.workload.driver.name()])
        .args(["--iterations", &spec.iterations.to_string()])
        .args(["--seed", &spec.seed.to_string()]);
    if let Some(dir) = spec.telemetry_dir {
        cmd.arg("--telemetry-dir").arg(dir);
    }
    if let Some(parent) = spec.parent_span {
        cmd.args(["--parent-span", &parent.to_string()]);
    }
    let start = Instant::now();
    let child = tracer
        .span("harness.spawn", spec.parent_span, || Supervised::spawn(cmd, true))
        .map_err(|e| format!("spawn: {e}"))?;
    let done =
        tracer.span("harness.reap", spec.parent_span, || child.finish(start + RUN_DEADLINE))?;
    let run_total_s = start.elapsed().as_secs_f64();
    let last = last_line(&done.stdout).and_then(|line| json::parse(line).ok());
    if !done.status.success() {
        // A child that fails in an orderly way says why on its last line.
        let why = last.as_ref().and_then(|v| v.get("error")).and_then(Value::as_str);
        return Err(format!(
            "child exited with {}: {}",
            done.status,
            why.unwrap_or("no reason given")
        ));
    }
    let record = RunRecord::from_json(&last.ok_or("child printed no result")?)?;
    Ok(TimedRun { record, run_total_s })
}

/// `child` mode: make the run, print the record.
pub fn child_main(args: &Args) -> ExitCode {
    match run_in_this_process(args) {
        Ok(record) => {
            println!("{}", record.to_json().to_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("{}", Value::obj([("error", Value::str(e))]).to_line());
            ExitCode::FAILURE
        }
    }
}

fn run_in_this_process(args: &Args) -> Result<RunRecord, String> {
    let name = args.value("--workload").ok_or("child needs --workload")?;
    let base = spec::lookup(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    // The sequential reference runs a workload's config on another driver.
    let driver = args
        .value("--driver")
        .map(|d| Driver::from_name(d).ok_or_else(|| format!("unknown driver {d:?}")))
        .transpose()?
        .unwrap_or(base.driver);
    let workload = Workload { driver, ..*base };
    let iterations: usize = args.parsed("--iterations")?.ok_or("child needs --iterations")?;
    let seed: u64 = args.parsed("--seed")?.ok_or("child needs --seed")?;
    let telemetry_dir = args.value("--telemetry-dir").map(Path::new);
    let parent_span: Option<u64> = args.parsed("--parent-span")?;

    let cfg = sut::t1_config(&workload, iterations, seed, telemetry_dir);
    let tracer = Tracer::new(telemetry_dir.is_some());
    let root = tracer.open("run.child", parent_span);
    let root_id = root.id;
    let mut record = match driver {
        Driver::Seq => sut::run_sequential(&cfg, &tracer, root_id),
        Driver::Thr => sut::run_threaded(&cfg, &tracer, root_id),
        Driver::Sim => sut::run_simulated(&cfg, &tracer, root_id),
        Driver::Tcp => run_tcp(&cfg, &workload, &tracer, root_id)?,
    };
    tracer.close(root);
    record.peak_rss_kb = record.peak_rss_kb.max(peak_rss_kb());
    record.spans = tracer.snapshot();
    Ok(record)
}

/// What a slave process reports on its last line.
struct SlaveReport {
    peak_rss_kb: u64,
    cell: usize,
    clock: RankClock,
    allocs_per_iter: f64,
    spans: Vec<Span>,
}

impl SlaveReport {
    fn to_json(&self) -> Value {
        Value::obj([
            ("peak_rss_kb", Value::Num(self.peak_rss_kb as f64)),
            ("cell", Value::Num(self.cell as f64)),
            ("clock_start_us", Value::Num(self.clock.start_us as f64)),
            ("data_seconds", Value::Num(self.clock.data_seconds)),
            ("allocs_per_iter", Value::Num(self.allocs_per_iter)),
            ("spans", Value::Arr(self.spans.iter().map(Span::to_json).collect())),
        ])
    }

    fn from_line(line: &str) -> Result<SlaveReport, String> {
        let v = json::parse(line)?;
        let num = |k: &str| v.num(k).ok_or_else(|| format!("slave report lacks {k:?}"));
        Ok(SlaveReport {
            peak_rss_kb: num("peak_rss_kb")? as u64,
            cell: num("cell")? as usize,
            clock: RankClock {
                start_us: num("clock_start_us")? as u64,
                data_seconds: num("data_seconds")?,
            },
            allocs_per_iter: num("allocs_per_iter")?,
            spans: v
                .get("spans")
                .and_then(Value::as_arr)
                .map(|a| a.iter().filter_map(Span::from_json).collect())
                .unwrap_or_default(),
        })
    }
}

/// The TCP workload: this process is the master; one slave OS process per
/// cell is this binary again, in `slave` mode.
fn run_tcp(
    cfg: &sut::Config,
    workload: &Workload,
    tracer: &Tracer,
    root: u64,
) -> Result<RunRecord, String> {
    let cells = workload.cells();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let (listener, addr) = sut::tcp_listener().map_err(|e| format!("bind: {e}"))?;

    let spawn = tracer.open("spawn", Some(root));
    let mut slaves = Vec::with_capacity(cells);
    for _ in 0..cells {
        let mut cmd = Command::new(&exe);
        cmd.arg("slave").args(["--connect", &addr.to_string()]);
        if workload.slaves_linger() {
            cmd.arg("--linger");
        }
        if tracer.enabled() {
            cmd.args(["--parent-span", &root.to_string()]);
        }
        // Not a group of their own: slaves stay in this child's process
        // group, so the harness's deadline kill reaches them too.
        slaves.push(Supervised::spawn(cmd, false).map_err(|e| format!("spawn slave: {e}"))?);
    }
    tracer.close(spawn);

    // Runs once the master has returned. If the master fails instead, the
    // `Supervised` drops kill whatever is still running.
    let mut reports = Vec::with_capacity(cells);
    let reap = || {
        let span = tracer.open("reap", Some(root));
        let deadline = Instant::now() + SLAVE_EXIT_GRACE;
        let mut clocks = vec![RankClock::default(); cells];
        for slave in slaves {
            let done = slave.finish(deadline).map_err(|e| format!("slave: {e}"))?;
            if !done.status.success() {
                return Err(format!("slave exited with {}", done.status));
            }
            let report = last_line(&done.stdout)
                .ok_or_else(|| "slave printed nothing".to_string())
                .and_then(SlaveReport::from_line)?;
            *clocks.get_mut(report.cell).ok_or("slave reports a cell outside the grid")? =
                report.clock;
            reports.push(report);
        }
        tracer.close(span);
        Ok(clocks)
    };
    let mut record = sut::run_tcp_master_on(listener, cfg, tracer, root, reap)?;
    for report in &reports {
        record.peak_rss_kb = record.peak_rss_kb.max(report.peak_rss_kb);
        record.rank_allocs += report.allocs_per_iter / cells as f64;
    }
    tracer.adopt(reports.into_iter().flat_map(|r| r.spans));
    Ok(record)
}

/// `slave` mode: one slave OS process's whole life.
pub fn slave_main(args: &Args) -> ExitCode {
    let Some(addr) = args.value("--connect") else {
        eprintln!("benchmark slave: needs --connect HOST:PORT");
        return ExitCode::FAILURE;
    };
    let parent_span: Option<u64> = match args.parsed("--parent-span") {
        Ok(p) => p,
        Err(e) => {
            eprintln!("benchmark slave: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tracer = Tracer::new(parent_span.is_some());
    let root = tracer.open("run.slave", parent_span);
    let root_id = root.id;
    let outcome = sut::run_tcp_slave_to(addr, args.has("--linger"), &tracer, root_id);
    tracer.close(root);
    match outcome {
        Ok(facts) => {
            let report = SlaveReport {
                peak_rss_kb: peak_rss_kb(),
                cell: facts.cell,
                clock: facts.clock,
                allocs_per_iter: facts.allocs_per_iter,
                spans: tracer.snapshot(),
            };
            println!("{}", report.to_json().to_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark slave: {e}");
            ExitCode::FAILURE
        }
    }
}
