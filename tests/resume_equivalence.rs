//! The checkpoint subsystem's proof obligation, in the repo's signature
//! style: a run checkpointed at iteration `k` and resumed must produce a
//! **byte-identical `.lpz`** to the uninterrupted run — for every driver.
//!
//! Each test invokes the compiled `lipizzaner` binary: a run is interrupted
//! with `--pause-after k` (stopping at a clean boundary with a committed
//! checkpoint, exactly the state a crash recovery restores), then restarted
//! with `lipizzaner resume --from DIR`, and the saved ensemble is compared
//! byte-for-byte against an uninterrupted sequential reference. Since the
//! `distributed_process` suite already proves all four drivers agree with
//! the sequential baseline, matching that one reference closes the square:
//! interrupt + resume is invisible on every driver.

mod common;

use common::{read, run, spawn_to_completion, workdir};
use std::path::Path;

/// The shared run shape: 2×2 grid, 4 iterations, interrupted after 2.
const FLAGS: [&str; 7] = ["--tiny", "--grid", "2", "--iterations", "4", "--batches", "2"];
const PAUSE_AT: &str = "2";

fn reference(dir: &Path) -> Vec<u8> {
    let out = dir.join("reference.lpz");
    let mut args = vec!["train", "--driver", "sequential", "--out", out.to_str().unwrap()];
    args.extend_from_slice(&FLAGS);
    run(&args);
    read(&out)
}

/// Interrupt a run of `driver` at iteration `PAUSE_AT` (committing a
/// checkpoint), resume it with `lipizzaner resume`, and return the resumed
/// run's ensemble bytes.
fn interrupt_and_resume(dir: &Path, subcommand: &str, extra: &[&str]) -> Vec<u8> {
    let ckpt = dir.join("ckpt");
    let paused = dir.join("paused.lpz");
    let resumed = dir.join("resumed.lpz");

    let mut pause_args = vec![subcommand];
    pause_args.extend_from_slice(extra);
    let ckpt_str = ckpt.to_str().unwrap().to_string();
    pause_args.extend_from_slice(&[
        "--checkpoint-dir",
        &ckpt_str,
        "--checkpoint-every",
        "1",
        "--pause-after",
        PAUSE_AT,
        "--out",
        paused.to_str().unwrap(),
    ]);
    pause_args.extend_from_slice(&FLAGS);
    run(&pause_args);

    // The interruption must be real: a paused 2-iteration ensemble differs
    // from the full 4-iteration one.
    assert!(paused.exists(), "paused run saved no ensemble");

    let mut resume_args =
        vec!["resume", "--from", &ckpt_str, "--out", resumed.to_str().unwrap()];
    resume_args.extend_from_slice(extra);
    let out = run(&resume_args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&format!("resuming from {ckpt_str} at iteration {PAUSE_AT}")),
        "resume did not restart from the pause cut: {stdout}"
    );
    read(&resumed)
}

#[test]
fn sequential_resume_is_byte_identical() {
    let dir = workdir("sequential");
    let reference = reference(&dir);
    let resumed = interrupt_and_resume(&dir, "train", &["--driver", "sequential"]);
    assert_eq!(resumed, reference, "sequential: resumed .lpz differs from uninterrupted");
    // Non-vacuity: the paused half-run really is a different model.
    assert_ne!(read(&dir.join("paused.lpz")), reference, "pause point did not interrupt");
}

#[test]
fn threaded_distributed_resume_is_byte_identical() {
    let dir = workdir("threaded");
    let reference = reference(&dir);
    let resumed = interrupt_and_resume(&dir, "train", &["--driver", "distributed"]);
    assert_eq!(resumed, reference, "threaded: resumed .lpz differs from uninterrupted");
}

#[test]
fn simulated_cluster_resume_is_byte_identical() {
    let dir = workdir("cluster_sim");
    let reference = reference(&dir);
    let resumed = interrupt_and_resume(&dir, "train", &["--driver", "cluster-sim"]);
    assert_eq!(resumed, reference, "cluster-sim: resumed .lpz differs from uninterrupted");
}

#[test]
fn tcp_multi_process_resume_is_byte_identical() {
    // The full story over real OS processes: `launch` spawns one slave
    // process per cell, every slave commits its own checkpoints through the
    // async writer, the run pauses, and a *fresh set of processes* resumes
    // it — each restoring its cell from disk after re-ranking through the
    // TCP handshake.
    let dir = workdir("tcp");
    let reference = reference(&dir);
    let resumed = interrupt_and_resume(
        &dir,
        "launch",
        &["--driver", "distributed", "--transport", "tcp"],
    );
    assert_eq!(resumed, reference, "tcp: resumed .lpz differs from uninterrupted");
}

/// Uninterrupted `--exchange async` sequential reference for the shared
/// run shape (async is deterministic too, just one generation behind).
fn reference_async(dir: &Path) -> Vec<u8> {
    let out = dir.join("reference_async.lpz");
    let mut args = vec![
        "train",
        "--driver",
        "sequential",
        "--exchange",
        "async",
        "--out",
        out.to_str().unwrap(),
    ];
    args.extend_from_slice(&FLAGS);
    run(&args);
    read(&out)
}

#[test]
fn async_threaded_resume_is_byte_identical() {
    // Under `--exchange async` a checkpoint cut carries the in-flight
    // exchange frame; resume must re-prime the pipeline from it and land
    // on the uninterrupted async trajectory exactly.
    let dir = workdir("async_threaded");
    let reference = reference_async(&dir);
    let resumed = interrupt_and_resume(
        &dir,
        "train",
        &["--driver", "distributed", "--exchange", "async"],
    );
    assert_eq!(resumed, reference, "async threaded: resumed .lpz differs from uninterrupted");
    // Non-vacuity: the staleness-1 trajectory really is a different model
    // from the synchronous one.
    assert_ne!(
        reference,
        super_reference_sync(&dir),
        "async and sync runs coincide — the overlap was never exercised"
    );
}

/// Sync sequential reference under a distinct output name (so the async
/// tests can compare against it in the same workdir).
fn super_reference_sync(dir: &Path) -> Vec<u8> {
    let out = dir.join("reference_sync.lpz");
    let mut args = vec!["train", "--driver", "sequential", "--out", out.to_str().unwrap()];
    args.extend_from_slice(&FLAGS);
    run(&args);
    read(&out)
}

#[test]
fn async_simulated_cluster_resume_is_byte_identical() {
    let dir = workdir("async_cluster_sim");
    let reference = reference_async(&dir);
    let resumed = interrupt_and_resume(
        &dir,
        "train",
        &["--driver", "cluster-sim", "--exchange", "async"],
    );
    assert_eq!(
        resumed, reference,
        "async cluster-sim: resumed .lpz differs from uninterrupted"
    );
}

#[test]
fn async_tcp_multi_process_resume_is_byte_identical() {
    // Async over real OS processes: each slave's socket readers take in a
    // generation while it trains, the slave completes it an iteration
    // later and checkpoints the live frame, and a fresh set of processes
    // resumes mid-pipeline.
    let dir = workdir("async_tcp");
    let reference = reference_async(&dir);
    let resumed = interrupt_and_resume(
        &dir,
        "launch",
        &["--driver", "distributed", "--transport", "tcp", "--exchange", "async"],
    );
    assert_eq!(resumed, reference, "async tcp: resumed .lpz differs from uninterrupted");
}

#[test]
fn resume_refuses_an_empty_directory() {
    let dir = workdir("empty");
    std::fs::create_dir_all(dir.join("nothing")).unwrap();
    let out = spawn_to_completion(&["resume", "--from", dir.join("nothing").to_str().unwrap()]);
    assert!(!out.status.success(), "resume from an empty dir must fail");
}

#[test]
fn async_cut_is_the_same_bytes_from_every_driver_and_resumes_on_any() {
    // A cell's cut carries the frame slots that cell reads and no others,
    // whichever driver wrote it: on 3×3 that is four of nine, so the
    // threaded, sequential and simulated drivers must commit identical
    // cell files — and a whole-grid driver resuming from the threaded
    // run's files has to merge nine sparse frames back into one.
    use lipizzaner::runtime::checkpoint::{read_cell_state, read_manifest};
    let dir = workdir("async_cross_driver");
    let flags = ["--tiny", "--grid", "3", "--iterations", "4", "--batches", "2"];
    let reference = dir.join("reference.lpz");
    let mut args = vec!["train", "--driver", "sequential", "--exchange", "async"];
    args.extend_from_slice(&["--out", reference.to_str().unwrap()]);
    args.extend_from_slice(&flags);
    run(&args);
    let reference = read(&reference);

    let cell_files = |ckpt: &Path| {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(ckpt)
            .expect("list checkpoint dir")
            .map(|entry| entry.expect("dir entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "ckpt"))
            .map(|path| (path.file_name().unwrap().to_string_lossy().into_owned(), read(&path)))
            .collect();
        files.sort();
        files
    };
    let pause_on = |driver: &str| {
        let ckpt = dir.join(format!("ckpt_{driver}"));
        let paused = dir.join(format!("paused_{driver}.lpz"));
        let mut args = vec!["train", "--driver", driver, "--exchange", "async"];
        args.extend_from_slice(&["--checkpoint-dir", ckpt.to_str().unwrap()]);
        args.extend_from_slice(&["--checkpoint-every", "1", "--pause-after", PAUSE_AT]);
        args.extend_from_slice(&["--out", paused.to_str().unwrap()]);
        args.extend_from_slice(&flags);
        run(&args);
        ckpt
    };
    let threaded_ckpt = &pause_on("distributed");
    let threaded_files = &cell_files(threaded_ckpt);
    assert!(threaded_files.len() >= 9, "one committed cut per cell at least");
    for driver in ["sequential", "cluster-sim"] {
        let files = &cell_files(&pause_on(driver));
        assert!(files == threaded_files, "{driver} wrote different cell files than threaded");
    }

    // The cut really is sparse: the centre cell's frame holds its four
    // neighbours' slots and nothing else.
    let cfg = read_manifest(threaded_ckpt).expect("manifest");
    let (name, _) =
        threaded_files.iter().rfind(|(name, _)| name.starts_with("cell_0004")).unwrap();
    let state = read_cell_state(&threaded_ckpt.join(name), &cfg).expect("cell 4 state");
    let held: Vec<usize> =
        (0..9).filter(|&slot| !state.exchange_frame[slot].is_empty()).collect();
    assert_eq!(held, [1, 3, 5, 7], "cell 4 of a 3×3 torus reads N, W, E, S");

    for driver in ["sequential", "cluster-sim", "distributed"] {
        // Each resume gets its own copy: a resumed run commits new cuts.
        let copy = dir.join(format!("resume_on_{driver}"));
        std::fs::create_dir_all(&copy).unwrap();
        for entry in std::fs::read_dir(threaded_ckpt).unwrap() {
            let path = entry.unwrap().path();
            std::fs::copy(&path, copy.join(path.file_name().unwrap())).unwrap();
        }
        let resumed = dir.join(format!("resumed_{driver}.lpz"));
        let (copy_s, resumed_s) = (copy.to_str().unwrap(), resumed.to_str().unwrap());
        run(&["resume", "--from", copy_s, "--driver", driver, "--out", resumed_s]);
        assert!(read(&resumed) == reference, "threaded async cut resumed on {driver} diverged");
    }
}
