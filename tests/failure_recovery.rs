//! Elastic recovery, end to end with real OS processes and a real SIGKILL:
//! a slave killed mid-run must be detected by the master's heartbeat
//! deadline, named in the recovery logs (rank, exit status, stderr), and
//! replaced — the run restores from the last committed checkpoint and
//! completes with a valid ensemble, byte-identical to a run nothing ever
//! interrupted.

mod common;

use common::{workdir, BIN};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lipizzaner::core::persist;

/// Whole-scenario deadline: detection + relaunch + the resumed run.
const DEADLINE: Duration = Duration::from_secs(120);

fn wait_with_deadline(child: &mut std::process::Child, what: &str) -> std::process::ExitStatus {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("poll child") {
            return status;
        }
        if start.elapsed() > DEADLINE {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{what} exceeded the {DEADLINE:?} deadline");
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn sigkilled_slave_is_replaced_and_the_run_completes_bit_exactly() {
    let dir = workdir("sigkill");
    let ckpt = dir.join("ckpt");
    let out = dir.join("recovered.lpz");

    // Long enough that the kill lands mid-run even on a fast machine; the
    // same shape trains in a few seconds sequentially for the reference.
    let flags = ["--tiny", "--grid", "2", "--iterations", "2000", "--batches", "2"];

    let mut master_args = vec![
        "launch",
        "--checkpoint-dir",
        ckpt.to_str().unwrap(),
        "--checkpoint-every",
        "5",
        "--out",
        out.to_str().unwrap(),
    ];
    master_args.extend_from_slice(&flags);
    let mut master = Command::new(BIN)
        .args(&master_args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn master");

    // Stream the master's stdout: collect the spawned slave pids, keep
    // draining in the background, and keep everything for assertions.
    let stdout_buf: Arc<Mutex<String>> = Arc::new(Mutex::new(String::new()));
    let first_pid = {
        let pipe = master.stdout.take().expect("master stdout");
        let sink = Arc::clone(&stdout_buf);
        let mut lines = BufReader::new(pipe).lines();
        let deadline = Instant::now() + DEADLINE;
        let mut pid = None;
        while pid.is_none() {
            assert!(Instant::now() < deadline, "master never spawned a slave");
            let line = lines.next().expect("master stdout closed early").expect("read line");
            if let Some(rest) = line.strip_prefix("spawned slave pid=") {
                pid = Some(rest.trim().to_string());
            }
            sink.lock().unwrap().push_str(&line);
            sink.lock().unwrap().push('\n');
        }
        let sink = Arc::clone(&stdout_buf);
        std::thread::spawn(move || {
            for line in lines.map_while(Result::ok) {
                let mut buf = sink.lock().unwrap();
                buf.push_str(&line);
                buf.push('\n');
            }
        });
        pid.unwrap()
    };
    let stderr_buf: Arc<Mutex<String>> = Arc::new(Mutex::new(String::new()));
    {
        let pipe = master.stderr.take().expect("master stderr");
        let sink = Arc::clone(&stderr_buf);
        std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                let mut buf = sink.lock().unwrap();
                buf.push_str(&line);
                buf.push('\n');
            }
        });
    }

    // Wait until at least one checkpoint is committed — every cell of the
    // 2×2 grid has written its file for the same iteration — so the
    // recovery has a real cut to restore from; then SIGKILL the first
    // slave. (One cell's file alone is not a cut: under load the kill could
    // land before the other three and leave nothing to restore.)
    let deadline = Instant::now() + DEADLINE;
    loop {
        let mut cells_per_iteration = std::collections::HashMap::<String, usize>::new();
        for entry in std::fs::read_dir(&ckpt).into_iter().flatten().flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(iter) =
                name.strip_suffix(".ckpt").and_then(|n| n.split("_iter_").nth(1))
            {
                *cells_per_iteration.entry(iter.to_string()).or_default() += 1;
            }
        }
        let committed = cells_per_iteration.values().any(|&cells| cells == 4);
        if committed {
            break;
        }
        assert!(Instant::now() < deadline, "no checkpoint was ever committed");
        std::thread::sleep(Duration::from_millis(20));
    }
    let killed =
        Command::new("kill").args(["-9", &first_pid]).status().expect("invoke kill").success();
    assert!(killed, "SIGKILL of slave pid {first_pid} failed");

    // The master must recover on its own and finish successfully.
    let status = wait_with_deadline(&mut master, "recovering master");
    let stdout = stdout_buf.lock().unwrap().clone();
    let stderr = stderr_buf.lock().unwrap().clone();
    assert!(
        status.success(),
        "master failed instead of recovering\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );

    // The recovery logs name the failure: the dead rank (heartbeat
    // verdict) and the dead process (exit status), not just a timeout.
    assert!(
        stderr.contains("missed its heartbeat deadline"),
        "no heartbeat conviction in stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("died abnormally") && stderr.contains("SIGKILL"),
        "dead slave's exit status not surfaced:\n{stderr}"
    );
    assert!(
        stdout.contains("recovering: respawning slaves"),
        "no recovery relaunch logged:\n{stdout}"
    );
    assert!(
        stdout.contains("resuming from iteration"),
        "recovery did not restore from a committed checkpoint:\n{stdout}"
    );

    // The ensemble is valid and — the full claim — identical to a run that
    // was never interrupted.
    let model = persist::load_ensemble(&out).expect("recovered run saved a valid ensemble");
    assert_eq!(model.components(), 5);

    let reference = dir.join("reference.lpz");
    let mut ref_args =
        vec!["train", "--driver", "sequential", "--out", reference.to_str().unwrap()];
    ref_args.extend_from_slice(&flags);
    let ref_out = Command::new(BIN).args(&ref_args).output().expect("reference run");
    assert!(ref_out.status.success(), "reference run failed");
    assert_eq!(
        std::fs::read(&out).unwrap(),
        std::fs::read(&reference).unwrap(),
        "recovered run's .lpz differs from the uninterrupted reference"
    );
}

#[test]
fn launch_without_checkpoints_fails_fast_on_a_dead_slave() {
    // Without a checkpoint dir there is no elastic recovery: the master
    // still must not hang — the monitored gather is only armed when
    // recovery is, so this run relies on the transport's liveness cascade:
    // the SIGKILL collapses the slave mesh, every stranded rank exits
    // loudly, and the master's bootstrap-or-gather fails within bounds.
    let dir = workdir("no_ckpt");
    let out = dir.join("never.lpz");
    let flags = ["--tiny", "--grid", "2", "--iterations", "2000", "--batches", "2"];
    let mut args = vec!["launch", "--out", out.to_str().unwrap()];
    args.extend_from_slice(&flags);
    let mut master = Command::new(BIN)
        .args(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn master");
    // Grab one slave pid, then kill it.
    let pid = {
        let pipe = master.stdout.take().expect("stdout");
        let mut lines = BufReader::new(pipe).lines();
        let deadline = Instant::now() + DEADLINE;
        loop {
            assert!(Instant::now() < deadline, "no slave spawned");
            let line = lines.next().expect("stdout closed").expect("read");
            if let Some(rest) = line.strip_prefix("spawned slave pid=") {
                std::thread::spawn(move || for _ in lines.by_ref() {});
                break rest.trim().to_string();
            }
        }
    };
    std::thread::sleep(Duration::from_millis(100));
    assert!(Command::new("kill").args(["-9", &pid]).status().unwrap().success());
    let status = wait_with_deadline(&mut master, "unrecoverable master");
    assert!(!status.success(), "a dead slave without checkpoints cannot succeed");
    assert!(!out.exists(), "no ensemble must be saved on an aborted run");
}

/// The checkpoint directory must survive the recovery relaunch with a
/// manifest readable by `resume` — the operator's manual fallback.
#[test]
fn checkpoint_dir_stays_resumable_after_a_pause() {
    let dir = workdir("manual_fallback");
    let ckpt = dir.join("ckpt");
    let flags = ["--tiny", "--grid", "2", "--iterations", "6", "--batches", "2"];
    let mut args = vec![
        "launch",
        "--checkpoint-dir",
        ckpt.to_str().unwrap(),
        "--checkpoint-every",
        "1",
        "--pause-after",
        "3",
    ];
    args.extend_from_slice(&flags);
    let out = Command::new(BIN).args(&args).output().expect("paused launch");
    assert!(out.status.success(), "paused launch failed");
    let manifest = lipizzaner::runtime::checkpoint::read_manifest(Path::new(&ckpt))
        .expect("manifest readable after pause");
    assert_eq!(manifest.coevolution.iterations, 6);
    let cut = lipizzaner::runtime::checkpoint::latest_consistent_iteration(
        Path::new(&ckpt),
        manifest.cells(),
    )
    .expect("scan");
    assert_eq!(cut, Some(3), "pause did not commit the cut it promised");
}
