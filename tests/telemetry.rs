//! Telemetry end-to-end, through the CLI binary:
//!
//! 1. **Observational-only**: `--telemetry` must not perturb training — the
//!    saved `.lpz` is byte-identical with and without it, on the sequential
//!    and in-process distributed drivers alike (the fault-injection suite
//!    covers the degraded TCP run).
//! 2. **Journals**: every rank writes a parseable JSONL journal into the
//!    `--telemetry-dir`, and a run summary sidecar lands next to the `.lpz`.
//! 3. **Trace export**: `lipizzaner trace` merges the journals into a
//!    Chrome trace-event document (one track per rank, balanced span
//!    begin/end pairs) that Perfetto loads directly.
//! 4. **One stopwatch**: the Table IV report is a view of the same spans
//!    the journals hold, the gather histogram holds exactly one sample per
//!    rank-iteration on the threaded and TCP drivers, and a checkpoint
//!    capture shows up as an "other" span.
//! 5. **Flags**: a malformed numeric flag, a zero-size grid, an empty
//!    sample, a zero iteration / pause / checkpoint count and a resume pause
//!    point at or before the cut are refused (exit 1, naming the flag), not
//!    defaulted, clamped or panicked on.

mod common;

use common::{read, run, spawn_to_completion, toy_data, workdir};
use lipizzaner::core::persist::save_ensemble;
use lipizzaner::core::{EnsembleModel, ExchangeMode, MixtureWeights, Routine, TrainConfig};
use lipizzaner::nn::{Generator, NetworkConfig};
use lipizzaner::runtime::{run_distributed, DistributedOptions};
use lipizzaner::telemetry::{parse_journal, read_journal_dir, EventKind, RankJournal};
use lipizzaner::tensor::Rng64;
use std::path::{Path, PathBuf};

const FLAGS: [&str; 7] = ["--tiny", "--grid", "2", "--iterations", "3", "--batches", "2"];

fn read_journal(path: &Path) -> RankJournal {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read journal {}: {e}", path.display()));
    parse_journal(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

/// Train twice with `driver` — plain, then with `--telemetry` — and return
/// (plain bytes, traced bytes, telemetry dir, traced `.lpz` path).
fn paired_runs(dir: &Path, driver: &str) -> (Vec<u8>, Vec<u8>, PathBuf, PathBuf) {
    let plain = dir.join("plain.lpz");
    let traced = dir.join("traced.lpz");
    let tel_dir = dir.join("tel");

    let mut plain_args = vec!["train", "--driver", driver, "--out", plain.to_str().unwrap()];
    plain_args.extend_from_slice(&FLAGS);
    run(&plain_args);

    let mut traced_args = vec![
        "train",
        "--driver",
        driver,
        "--out",
        traced.to_str().unwrap(),
        "--telemetry",
        "--telemetry-dir",
        tel_dir.to_str().unwrap(),
    ];
    traced_args.extend_from_slice(&FLAGS);
    run(&traced_args);

    (read(&plain), read(&traced), tel_dir, traced)
}

#[test]
fn sequential_telemetry_is_observational_and_journals_the_run() {
    let dir = workdir("sequential");
    let (plain, traced, tel_dir, lpz) = paired_runs(&dir, "sequential");
    assert_eq!(plain, traced, "--telemetry changed a sequential run's output bytes");

    // The whole grid runs on rank 0; its journal holds the span record.
    let journal = read_journal(&tel_dir.join("node00.jsonl"));
    assert!(!journal.events.is_empty(), "sequential journal is empty");
    let trains = journal.events.iter().filter(|e| e.kind == EventKind::TrainBegin).count();
    assert!(trains > 0, "no train spans journaled: {:?}", journal.events);

    // The run summary sidecar sits next to the `.lpz` and carries both the
    // Table IV profile and the merged telemetry aggregate.
    let sidecar = PathBuf::from(format!("{}.summary.json", lpz.display()));
    let summary = String::from_utf8(read(&sidecar)).expect("summary is UTF-8");
    for key in ["\"driver\"", "\"grid\"", "\"profile\"", "\"routine\"", "\"telemetry\""] {
        assert!(summary.contains(key), "summary missing {key}: {summary}");
    }
}

#[test]
fn distributed_telemetry_is_observational_and_every_rank_journals() {
    let dir = workdir("distributed");
    let (plain, traced, tel_dir, lpz) = paired_runs(&dir, "distributed");
    assert_eq!(plain, traced, "--telemetry changed a distributed run's output bytes");

    // One journal per slave rank plus the master's conviction-path journal.
    for file in ["node01.jsonl", "node02.jsonl", "node03.jsonl", "node04.jsonl"] {
        let journal = read_journal(&tel_dir.join(file));
        assert!(!journal.events.is_empty(), "{file} is empty");
        assert!(
            journal.events.iter().any(|e| e.kind == EventKind::ExchangeComplete),
            "{file} journaled no exchange completions"
        );
    }
    assert!(tel_dir.join("master.jsonl").exists(), "master journal missing");

    // Slaves shipped their summaries to the master, which merged them into
    // the sidecar: 4 cells × 3 iterations of training distributions.
    let sidecar = PathBuf::from(format!("{}.summary.json", lpz.display()));
    let summary = String::from_utf8(read(&sidecar)).expect("summary is UTF-8");
    assert!(summary.contains("\"telemetry\""), "sidecar lacks telemetry block: {summary}");
}

#[test]
fn trace_subcommand_exports_a_perfetto_document() {
    let dir = workdir("trace");
    let (_, _, tel_dir, _) = paired_runs(&dir, "distributed");

    let out = dir.join("trace.json");
    let cmd = run(&[
        "trace",
        "--journals",
        tel_dir.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&cmd.stdout);
    assert!(stdout.contains("rank track(s)"), "unexpected trace output: {stdout}");

    let trace = String::from_utf8(read(&out)).expect("trace is UTF-8");
    // Document shape is the Chrome trace-event contract.
    assert!(trace.starts_with("{\"traceEvents\":[\n"), "bad preamble: {trace}");
    assert!(trace.ends_with("],\"displayTimeUnit\":\"ms\"}\n"), "bad epilogue");
    // One named track per journaled rank: master (0) + four slaves.
    for rank in ["rank 00", "rank 01", "rank 02", "rank 03", "rank 04"] {
        assert!(trace.contains(&format!("\"name\":\"{rank}\"")), "missing track {rank}");
    }
    // Spans arrive balanced, and the Table IV routines are all present.
    assert_eq!(
        trace.matches("\"ph\":\"B\"").count(),
        trace.matches("\"ph\":\"E\"").count(),
        "unbalanced span begin/end pairs"
    );
    for routine in ["gather", "mutate", "train", "update genomes"] {
        assert!(
            trace.contains(&format!("\"name\":\"{routine}\"")),
            "routine {routine} missing from the trace"
        );
    }
}

#[test]
fn trace_subcommand_fails_cleanly_without_journals() {
    let dir = workdir("no_journals");
    let missing = dir.join("nowhere");
    let out = spawn_to_completion(&[
        "trace",
        "--journals",
        missing.to_str().unwrap(),
        "--out",
        dir.join("trace.json").to_str().unwrap(),
    ]);
    assert!(!out.status.success(), "trace succeeded against a missing journal dir");
}

/// `(pairs, summed *_end durations)` of routine `r` in one rank's journal.
fn journal_totals(journal: &RankJournal, r: Routine) -> (u64, u64) {
    let begins = journal.events.iter().filter(|e| e.kind == r.begin_kind()).count() as u64;
    let ends = journal.events.iter().filter(|e| e.kind == r.end_kind());
    let (calls, ns) = ends.fold((0, 0), |(n, ns), e| (n + 1, ns + e.arg));
    assert_eq!(begins, calls, "rank {} {r:?}: unbalanced span pairs", journal.rank);
    (calls, ns)
}

#[test]
fn distributed_profile_view_is_the_per_rank_mean_of_the_journals() {
    // Threaded 2×2 with one commit per iteration, sync and async: the
    // master's report equals the per-rank mean of the slaves' journaled
    // spans, `calls` is one rank's count, every rank's gather histogram
    // holds one sample per iteration, and every checkpoint capture is an
    // "other" span the trace can show.
    for mode in [ExchangeMode::Sync, ExchangeMode::Async] {
        let dir = workdir(&format!("view_{mode:?}"));
        let ckpt = dir.join("ckpt");
        let mut cfg = TrainConfig::smoke(2)
            .with_exchange(mode)
            .with_checkpoints(ckpt.to_str().unwrap(), 1)
            .with_telemetry(dir.join("tel").to_str().unwrap(), 0);
        cfg.coevolution.iterations = 3;
        let outcome =
            run_distributed(&cfg, |_, cfg| toy_data(cfg), DistributedOptions::default());
        let journals: Vec<RankJournal> = read_journal_dir(&dir.join("tel"))
            .expect("journals")
            .into_iter()
            .filter(|j| j.rank > 0)
            .collect();
        assert_eq!(journals.len(), 4, "one journal per slave rank");
        assert!(journals.iter().all(|j| j.dropped == 0));

        let iterations = cfg.coevolution.iterations as u64;
        for r in Routine::ALL {
            let totals: Vec<(u64, u64)> =
                journals.iter().map(|j| journal_totals(j, r)).collect();
            let spans: u64 = totals.iter().map(|t| t.0).sum();
            let mean_ns = totals.iter().map(|t| t.1).sum::<u64>() as f64 / 4.0;
            let row = outcome.report.profile.rows[r as usize];
            assert!(
                (row.seconds * 1e9 - mean_ns).abs() <= spans as f64,
                "{mode:?} {r:?}: view {} ns vs journals {mean_ns} ns",
                row.seconds * 1e9
            );
            // Per rank: one exchange wait + one ingest per iteration under
            // gather, one capture per commit under other, one span each for
            // the compute phases.
            let per_rank = if r == Routine::Gather { 2 * iterations } else { iterations };
            assert_eq!(row.calls, per_rank, "{mode:?} {r:?} calls");
            assert!(totals.iter().all(|t| t.0 == per_rank), "{mode:?} {r:?}: {totals:?}");
        }
        for (result, journal) in outcome.slave_results.iter().zip(&journals) {
            assert_eq!(result.telemetry.gather_ns.count, iterations, "{mode:?}");
            assert_eq!(result.telemetry.train_ns.count, iterations, "{mode:?}");
            let commits =
                journal.events.iter().filter(|e| e.kind == EventKind::CheckpointCommit).count();
            assert_eq!(journal_totals(journal, Routine::Other).0, commits as u64);
            assert_eq!(commits as u64, iterations);
        }
        let merged = outcome.telemetry.expect("telemetry is on");
        assert_eq!(merged.gather_ns.count, 4 * iterations);
    }
}

/// The `"count"` of histogram `name` in a run-summary sidecar.
fn sidecar_hist_count(summary: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":{{\"count\":");
    let at = summary.find(&key).unwrap_or_else(|| panic!("{name} missing: {summary}"));
    let digits: String =
        summary[at + key.len()..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("histogram count")
}

#[test]
fn tcp_ranks_sample_one_gather_wait_per_iteration() {
    // Real slave processes over sockets, sync and async: the merged
    // histogram the master persists holds cells × iterations blocking
    // exchange waits — the per-cell ingest copies are not in it.
    for exchange in ["sync", "async"] {
        let dir = workdir(&format!("tcp_{exchange}"));
        let lpz = dir.join("tcp.lpz");
        let mut args = vec![
            "launch",
            "--exchange",
            exchange,
            "--out",
            lpz.to_str().unwrap(),
            "--telemetry",
            "--telemetry-dir",
            dir.to_str().unwrap(),
        ];
        args.extend_from_slice(&FLAGS);
        run(&args);
        let sidecar = PathBuf::from(format!("{}.summary.json", lpz.display()));
        let summary = String::from_utf8(read(&sidecar)).expect("summary is UTF-8");
        assert_eq!(sidecar_hist_count(&summary, "gather_ns"), 4 * 3, "{exchange}");
        assert_eq!(sidecar_hist_count(&summary, "train_ns"), 4 * 3, "{exchange}");
    }
}

#[test]
fn malformed_numeric_flags_are_refused_not_defaulted() {
    let dir = workdir("bad_flags");
    let out = dir.join("x.lpz");
    let out = out.to_str().unwrap();
    // A digit-shaped model (784-wide output) for `sample` to refuse to read.
    let model = dir.join("digits.lpz");
    let cfg = NetworkConfig::tiny(lipizzaner::data::IMAGE_DIM);
    let genome = Generator::new(&cfg, &mut Rng64::seed_from(1)).net.genome().to_vec();
    let ensemble = EnsembleModel::new(cfg, vec![genome], MixtureWeights::from_raw(&[1.0]));
    save_ensemble(&model, &ensemble).unwrap();
    let model = model.to_str().unwrap();
    let ck = dir.join("ck");
    let ck = ck.to_str().unwrap();
    // A committed cut at iteration 4 for `resume` to refuse stale pause points.
    let cut = dir.join("cut");
    let cut = cut.to_str().unwrap();
    let paused = dir.join("paused.lpz");
    run(&[
        "train",
        "--tiny",
        "--grid",
        "2",
        "--iterations",
        "6",
        "--checkpoint-dir",
        cut,
        "--checkpoint-every",
        "2",
        "--pause-after",
        "4",
        "--out",
        paused.to_str().unwrap(),
    ]);

    let mut cases: Vec<(Vec<&str>, &str, &str)> = [
        ("--iterations", "abc"),
        ("--heartbeat-interval-ms", "-5"),
        ("--fault-plan", "kill:banana@x"),
    ]
    .into_iter()
    .map(|(flag, value)| {
        let args =
            vec!["train", "--tiny", "--grid", "2", "--driver", "distributed", flag, value];
        (args, flag, value)
    })
    .collect();
    // A zero-size grid or an empty sample is a usage error, not a panic.
    cases.extend([
        (vec!["train", "--tiny", "--grid", "0"], "--grid", "0"),
        (
            vec!["train", "--tiny", "--rows", "0", "--cols", "3", "--driver", "distributed"],
            "--rows",
            "0",
        ),
        (vec!["launch", "--tiny", "--grid", "0"], "--grid", "0"),
        (vec!["sample", "--model", model, "--count", "0"], "--count", "0"),
    ]);
    // A count that leaves nothing to train, save or commit is refused on every
    // driver, before any rank or slave process starts.
    for driver in ["sequential", "distributed", "cluster-sim"] {
        let args =
            vec!["train", "--tiny", "--grid", "2", "--driver", driver, "--iterations", "0"];
        cases.push((args, "--iterations", "0"));
    }
    cases.extend([
        (vec!["launch", "--tiny", "--grid", "2", "--iterations", "0"], "--iterations", "0"),
        (
            vec![
                "train",
                "--tiny",
                "--iterations",
                "4",
                "--checkpoint-dir",
                ck,
                "--pause-after",
                "0",
            ],
            "--pause-after",
            "0",
        ),
        (
            vec!["train", "--tiny", "--checkpoint-dir", ck, "--checkpoint-every", "0"],
            "--checkpoint-every",
            "0",
        ),
        // A pause point at or before the cut would train nothing.
        (vec!["resume", "--from", cut, "--pause-after", "2"], "--pause-after 2", "iteration 4"),
        (vec!["resume", "--from", cut, "--pause-after", "4"], "--pause-after 4", "iteration 4"),
        (vec!["resume", "--from", cut, "--pause-after", "0"], "--pause-after", "0"),
    ]);
    for (mut args, flag, value) in cases {
        args.extend(["--out", out]);
        let done = spawn_to_completion(&args);
        let stderr = String::from_utf8_lossy(&done.stderr);
        let cmd = args.join(" ");
        assert_eq!(done.status.code(), Some(1), "`{cmd}` was not refused: {stderr}");
        assert!(stderr.contains(flag) && stderr.contains(value), "unhelpful: {stderr}");
        assert!(done.stdout.is_empty(), "`{cmd}` started work before refusing it");
        assert!(!Path::new(out).exists(), "`{cmd}` still wrote a model");
    }
}
