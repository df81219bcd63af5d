//! The repo benchmark: five Table-I-scale workloads over the four drivers,
//! end-to-end metrics with regression bounds, and a per-layer ladder
//! (traced run + probes) that has to add up. See `README.md`.
//!
//! ```text
//! lipiz-benchmark --seed 1                       every workload, every metric
//! lipiz-benchmark --seed 1 --smoke               the same paths in under a minute
//! lipiz-benchmark --workload W --seed N --seconds S --trace 0|1
//!                                                one workload; last line is one JSON object
//! lipiz-benchmark --compare A.json B.json        apply the bounds to two result files
//! ```

mod alloc;
mod child;
mod cli;
mod compare;
mod json;
mod probe;
mod proc;
mod record;
mod report;
mod runner;
mod spec;
mod stats;
mod sut;
mod trace;

use cli::Args;
use json::Value;
use runner::{Options, Untraced};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// `run_seconds` of `BENCHMARK.json`: what `--seconds` defaults to.
const DEFAULT_SECONDS: f64 = 10.0;
/// Repeats per workload: the default and the floor.
const MIN_REPEATS: usize = 3;

fn main() -> ExitCode {
    let args = Args::new(std::env::args().skip(1).collect());
    let outcome = match args.mode() {
        Some("child") => return child::child_main(&args),
        Some("slave") => return child::slave_main(&args),
        Some(other) => Err(format!("unknown mode {other:?}")),
        None if args.has("--compare") => compare_files(&args),
        None if args.has("--workload") => one_workload(&args),
        None => every_workload(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("lipiz-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn options(args: &Args) -> Result<Options, String> {
    let smoke = args.has("--smoke");
    let seconds: f64 =
        args.parsed("--seconds")?.unwrap_or(if smoke { 0.0 } else { DEFAULT_SECONDS });
    if !(0.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 0..=600"));
    }
    Ok(Options {
        seed: args.parsed("--seed")?.unwrap_or(1),
        seconds,
        min_repeats: args.parsed::<usize>("--repeats")?.unwrap_or(MIN_REPEATS).max(MIN_REPEATS),
        smoke,
    })
}

/// The driver's contract: one workload, `--trace 0` for the end-to-end
/// metrics or `--trace 1` for the per-layer ones; the last line of standard
/// output is the result object.
fn one_workload(args: &Args) -> Result<bool, String> {
    let name = args.value("--workload").ok_or("--workload needs a name")?;
    let w = spec::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let opts = options(args)?;
    let traced = match args.parsed::<u8>("--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let (correct, attempted, failed, metrics) = if traced {
        let pass = runner::per_layer(w, &opts, None);
        let probes = runner::run_probes(&opts);
        let probe_fault = probes.as_ref().err().cloned();
        let (metrics, complete) =
            report::per_layer_values(&pass.metrics, probes.as_deref().unwrap_or(&[]));
        report::print_per_layer(w, &pass, &metrics);
        if let Some(fault) = &probe_fault {
            println!("  ! {fault}");
        }
        (pass.tally.correct && complete, pass.tally.attempted, pass.tally.failed, metrics)
    } else {
        let pass = runner::end_to_end(w, &opts);
        report::print_end_to_end(w, &pass);
        let t = &pass.tally;
        (t.correct, t.attempted, t.failed, report::end_to_end_medians(&pass))
    };
    println!("{}", report::contract_line(correct, attempted, failed, &metrics));
    Ok(correct && failed == 0)
}

/// Every workload, every metric, one results file.
fn every_workload(args: &Args) -> Result<bool, String> {
    let opts = options(args)?;
    let mut all_ok = true;
    let probes = runner::run_probes(&opts)?;
    let mut entries = Vec::new();
    for w in &spec::WORKLOADS {
        let pass = runner::end_to_end(w, &opts);
        report::print_end_to_end(w, &pass);
        let layer = runner::per_layer(w, &opts, Some(Untraced::of(&pass)));
        let (layers, complete) = report::per_layer_values(&layer.metrics, &probes);
        report::print_per_layer(w, &layer, &layers);
        let ok = |t: &runner::Tally| t.correct && t.failed == 0;
        all_ok &= ok(&pass.tally) && ok(&layer.tally) && complete;
        entries.push(report::workload_entry(w, &pass, Some(&layers)));
    }

    // Recorded, never gated: how often a wide TCP grid fails (README).
    let attempts = if opts.smoke { 1 } else { spec::TCP_WIDE_ATTEMPTS };
    let wide = runner::fail_share(&spec::TCP_WIDE, &opts, attempts);
    println!("== {} — recorded only", spec::TCP_WIDE.name);
    report::print_fail_share("runtime.tcp_wide_fail_share", &wide);
    for note in &wide.notes {
        println!("  ! {note}");
    }

    let mut doc = vec![
        ("schema", Value::str(report::SCHEMA)),
        ("seed", Value::Num(opts.seed as f64)),
        ("smoke", Value::Bool(opts.smoke)),
        ("seconds", Value::Num(opts.seconds)),
    ];
    doc.extend(report::host_facts());
    doc.push(("workloads", Value::Arr(entries)));
    doc.push((
        "recorded_only",
        Value::obj([(
            "runtime.tcp_wide_fail_share",
            Value::obj([
                ("failed", Value::Num(wide.failed as f64)),
                ("attempted", Value::Num(wide.attempted as f64)),
                ("notes", Value::Arr(wide.notes.iter().map(Value::str).collect())),
            ]),
        )]),
    ));
    let path = args
        .value("--out")
        .map_or_else(|| runner::out_dir().join("results.json"), PathBuf::from);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, Value::obj(doc).to_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results: {}", path.display());
    println!("{}", if all_ok { "all checks ok" } else { "CHECKS FAILED" });
    Ok(all_ok)
}

fn compare_files(args: &Args) -> Result<bool, String> {
    let (a, b) = args.pair("--compare").ok_or("--compare needs two result files")?;
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    Ok(compare::print(&rows) == 0)
}
