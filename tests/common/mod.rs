//! Helpers shared by the integration suites. Each `tests/*.rs` is its own
//! crate and pulls this in with `mod common;`, using a subset of it.
#![allow(dead_code)]

use lipizzaner::core::TrainConfig;
use lipizzaner::tensor::{Matrix, Rng64};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

pub const BIN: &str = env!("CARGO_BIN_EXE_lipizzaner");
/// Per-invocation deadline: a wedged process fails the test, never hangs it.
pub const DEADLINE: Duration = Duration::from_secs(60);

/// A fresh, empty directory for test `name` of the calling suite. Suites
/// are told apart by the name of their test binary (`<suite>-<hash>`), so
/// equal test names in two suites do not share a directory.
pub fn workdir(name: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("test binary path");
    let stem = exe.file_stem().and_then(|s| s.to_str()).expect("test binary name");
    let suite = stem.rsplit_once('-').map_or(stem, |(suite, _hash)| suite);
    let dir = std::env::temp_dir().join(format!("lipiz_{suite}")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test workdir");
    dir
}

/// Run the binary with `args` to completion, enforcing the deadline.
pub fn spawn_to_completion(args: &[&str]) -> Output {
    let mut child = Command::new(BIN)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lipizzaner binary");
    let start = Instant::now();
    loop {
        match child.try_wait().expect("poll child") {
            Some(_) => break,
            None if start.elapsed() > DEADLINE => {
                let _ = child.kill();
                let _ = child.wait();
                panic!("`lipizzaner {}` exceeded the {DEADLINE:?} deadline", args.join(" "));
            }
            None => std::thread::sleep(Duration::from_millis(25)),
        }
    }
    child.wait_with_output().expect("collect output")
}

/// [`spawn_to_completion`], asserting a zero exit status.
pub fn run(args: &[&str]) -> Output {
    let out = spawn_to_completion(args);
    assert!(
        out.status.success(),
        "`lipizzaner {}` failed: {}\n{}",
        args.join(" "),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    out
}

pub fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The uniform toy dataset every cell of a smoke-scale run trains on.
pub fn toy_data(cfg: &TrainConfig) -> Matrix {
    let mut rng = Rng64::seed_from(cfg.training.data_seed);
    rng.uniform_matrix(cfg.training.dataset_size, cfg.network.data_dim, -0.9, 0.9)
}
