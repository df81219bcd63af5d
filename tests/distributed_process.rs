//! The paper's headline claim, end to end: master and slaves as *separate
//! OS processes* exchanging everything over TCP must train exactly the
//! model the single-process drivers do. Each test invokes the compiled
//! `lipizzaner` binary; `launch` spawns one slave child process per grid
//! cell, so a 1×2 run really is three OS processes talking over localhost
//! sockets — and the saved `.lpz` ensembles are compared byte-for-byte.
//!
//! Every child carries a hard deadline: a wedged process fails the test
//! instead of hanging the suite.

mod common;

use common::{read, run, workdir, BIN, DEADLINE};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn tcp_processes_match_sequential_byte_for_byte() {
    // The acceptance bar: ≥ 2 real slave OS processes over TCP, and the
    // gathered-and-persisted ensemble equals the sequential driver's.
    let dir = workdir("seq_vs_tcp");
    let seq = dir.join("seq.lpz");
    let tcp = dir.join("tcp.lpz");
    let flags = ["--tiny", "--rows", "1", "--cols", "2", "--iterations", "3", "--batches", "2"];

    let mut seq_args = vec!["train", "--driver", "sequential", "--out", seq.to_str().unwrap()];
    seq_args.extend_from_slice(&flags);
    run(&seq_args);

    let mut tcp_args = vec!["launch", "--out", tcp.to_str().unwrap()];
    tcp_args.extend_from_slice(&flags);
    let out = run(&tcp_args);

    // `launch` reports each spawned slave; prove this really was a
    // multi-process run (master + 2 slave OS processes).
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let spawned = stdout.matches("spawned slave pid=").count();
    assert_eq!(spawned, 2, "expected 2 slave processes, saw: {stdout}");
    assert!(stdout.contains("master listening on"), "no TCP listener: {stdout}");

    assert_eq!(read(&seq), read(&tcp), "TCP ensemble differs from sequential");
}

#[test]
fn tcp_processes_match_threaded_and_simulated_drivers() {
    // Close the equivalence square on a 2×2 grid: the 5-OS-process TCP run
    // agrees byte-for-byte with the in-process threaded driver and the
    // virtual-cluster simulator.
    let dir = workdir("all_drivers");
    let flags = ["--tiny", "--grid", "2", "--iterations", "2", "--batches", "2"];
    let runs = [
        ("threaded.lpz", vec!["train", "--driver", "distributed"]),
        ("sim.lpz", vec!["train", "--driver", "cluster-sim"]),
        ("tcp.lpz", vec!["launch"]),
    ];
    let mut blobs = Vec::new();
    for (file, mut args) in runs {
        let path = dir.join(file);
        args.extend_from_slice(&["--out", path.to_str().unwrap()]);
        args.extend_from_slice(&flags);
        run(&args);
        blobs.push((file, read(&path)));
    }
    let (_, reference) = &blobs[0];
    for (file, blob) in &blobs[1..] {
        assert_eq!(blob, reference, "{file} differs from the threaded driver");
    }
}

#[test]
fn manually_started_slaves_join_over_the_connect_flag() {
    // The multi-machine recipe, on one host: a `--no-spawn` master that
    // only listens, plus slave processes started by hand with
    // `slave --connect HOST:PORT`. Sharded data exercises the per-cell
    // partition path — note the slaves get no `--shards` flag: the data
    // layout travels in the wire config, so hand-started slaves cannot
    // disagree with the master. The run must still be byte-identical to
    // the sequential driver.
    let dir = workdir("manual_slaves");
    let seq = dir.join("seq.lpz");
    let tcp = dir.join("tcp.lpz");
    let flags = ["--tiny", "--rows", "2", "--cols", "1", "--iterations", "2", "--batches", "2"];

    let mut seq_args =
        vec!["train", "--driver", "sequential", "--shards", "--out", seq.to_str().unwrap()];
    seq_args.extend_from_slice(&flags);
    run(&seq_args);

    // Master: no self-spawned slaves, OS-assigned port, stdout piped so we
    // can parse the advertised address while it runs.
    let mut master_args =
        vec!["launch", "--no-spawn", "--shards", "--out", tcp.to_str().unwrap()];
    master_args.extend_from_slice(&flags);
    let mut master = Command::new(BIN)
        .args(&master_args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn master");
    let addr = {
        use std::io::{BufRead, BufReader};
        let stdout = master.stdout.take().expect("master stdout");
        let mut lines = BufReader::new(stdout).lines();
        let deadline = Instant::now() + DEADLINE;
        loop {
            assert!(Instant::now() < deadline, "master never advertised its address");
            let line = lines.next().expect("master stdout closed early").expect("read line");
            if let Some(rest) = line.strip_prefix("master listening on ") {
                // Keep draining the master's stdout in the background so a
                // full pipe can never stall it.
                std::thread::spawn(move || for _ in lines.by_ref() {});
                break rest.trim().to_string();
            }
        }
    };

    // Hand-start one slave per grid cell (2×1 grid → 2 slaves).
    let slaves: Vec<_> = (0..2)
        .map(|_| {
            Command::new(BIN)
                .args(["slave", "--connect", &addr])
                .stdout(Stdio::null())
                .stderr(Stdio::inherit())
                .spawn()
                .expect("spawn manual slave")
        })
        .collect();

    let start = Instant::now();
    for mut child in slaves.into_iter().chain([master]) {
        let status = loop {
            if let Some(s) = child.try_wait().expect("poll child") {
                break s;
            }
            if start.elapsed() > DEADLINE {
                let _ = child.kill();
                panic!("manual-slave run exceeded the {DEADLINE:?} deadline");
            }
            std::thread::sleep(Duration::from_millis(25));
        };
        assert!(status.success(), "a process of the manual run failed");
    }
    assert_eq!(read(&seq), read(&tcp), "manual-slave TCP run differs from sequential");
}

#[test]
fn slave_with_no_master_gives_up_quickly() {
    // Regression: a slave dialing a dead address must exit with failure
    // within its (shrunken-for-test) retry window — never hang the suite.
    let port = {
        // Bind-then-drop to find a port that is currently closed.
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
        let p = l.local_addr().expect("probe addr").port();
        drop(l);
        p
    };
    let dead = format!("127.0.0.1:{port}");
    let start = Instant::now();
    let mut child = Command::new(BIN)
        .args(["slave", "--connect", &dead])
        .env("LIPIZ_TCP_RETRY_MS", "300")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dangling slave");
    let status = loop {
        if let Some(s) = child.try_wait().expect("poll dangling slave") {
            break s;
        }
        if start.elapsed() > Duration::from_secs(20) {
            let _ = child.kill();
            panic!("slave with no master did not give up in time");
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(!status.success(), "slave with no master must fail");
}
