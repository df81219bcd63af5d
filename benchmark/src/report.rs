//! What the benchmark prints and writes: every metric by name with its
//! unit, the contract's one-line result, and the results file `--compare`
//! reads.

use crate::json::Value;
use crate::runner::{EndToEndPass, PerLayerPass, Tally};
use crate::spec::{self, Workload, END_TO_END, PER_LAYER};
use crate::stats::{quartile_spread, Summary};

pub const SCHEMA: &str = "lipiz-benchmark/v1";

/// Print the timed pass: one line per metric — median, extremes, sample
/// count, run-to-run spread — then failures and the output fingerprint.
pub fn print_end_to_end(w: &Workload, pass: &EndToEndPass) {
    println!(
        "== {} — end to end ({} iterations/run, {} cells)",
        w.name,
        pass.iterations,
        w.cells()
    );
    for m in &END_TO_END {
        let s = pass.summary(m.name);
        println!(
            "{:<28} {:>14.4} {:<6} (min {:.4}, max {:.4}, n={}, spread {:.1}%, {} is better, bound {:.0}%)",
            m.name,
            s.median,
            m.unit,
            s.min,
            s.max,
            s.n,
            100.0 * quartile_spread(pass.samples_of(m.name)),
            m.better.name(),
            100.0 * m.bound,
        );
    }
    print_fail_share("run_fail_share", &pass.tally);
    match pass.ensemble_fnv64 {
        Some(fnv) => println!("{:<28} {fnv:016x}", "ensemble_fnv64"),
        None => println!("{:<28} none (no run finished)", "ensemble_fnv64"),
    }
    print_checks(&pass.tally);
}

/// `failed ÷ attempted` under `name`.
pub fn print_fail_share(name: &str, tally: &Tally) {
    println!(
        "{name:<28} {:>14.4} {:<6} ({} failed of {} attempted)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
        tally.failed,
        tally.attempted
    );
}

/// Whether the output checks held, and every note.
pub fn print_checks(tally: &Tally) {
    println!("{:<28} {}", "output checks", if tally.correct { "ok" } else { "FAILED" });
    for note in &tally.notes {
        println!("  ! {note}");
    }
}

/// Print per-layer metrics, in ladder order.
pub fn print_per_layer(w: &Workload, pass: &PerLayerPass, metrics: &[(&'static str, f64)]) {
    println!("== {} — per layer (traced run + probes)", w.name);
    for (name, value) in metrics {
        println!("{name:<34} {value:>16.4} {}", spec::unit_of(name).unwrap_or("?"));
    }
    if let Some(file) = &pass.trace_file {
        println!("{:<34} {}", "trace", file.display());
    }
    print_checks(&pass.tally);
}

fn metric_value(value: f64, unit: &str) -> Value {
    Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))])
}

/// The contract's last line: `correct`, `attempted`, `failed`, `metrics`.
pub fn contract_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&'static str, f64)],
) -> String {
    Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted.max(1) as f64)),
        ("failed", Value::Num(failed as f64)),
        (
            "metrics",
            Value::obj(metrics.iter().map(|(name, value)| {
                (*name, metric_value(*value, spec::unit_of(name).unwrap_or("?")))
            })),
        ),
    ])
    .to_line()
}

/// The timed pass's medians, in `END_TO_END` order.
pub fn end_to_end_medians(pass: &EndToEndPass) -> Vec<(&'static str, f64)> {
    END_TO_END.iter().map(|m| (m.name, pass.summary(m.name).median)).collect()
}

/// The per-layer metrics in `PER_LAYER` order, and whether none is missing.
pub fn per_layer_values(
    traced: &[(&'static str, f64)],
    probes: &[(&'static str, f64)],
) -> (Vec<(&'static str, f64)>, bool) {
    let mut complete = true;
    let values = PER_LAYER
        .iter()
        .map(|m| {
            let found =
                traced.iter().chain(probes).find(|(n, _)| *n == m.name).map(|(_, v)| *v);
            complete &= found.is_some_and(f64::is_finite);
            (m.name, found.unwrap_or(f64::NAN))
        })
        .collect();
    (values, complete)
}

/// One workload's entry in the results file.
pub fn workload_entry(
    w: &Workload,
    pass: &EndToEndPass,
    layers: Option<&[(&'static str, f64)]>,
) -> Value {
    let e2e = END_TO_END.iter().map(|m| {
        let Summary { median, min, max, n } = pass.summary(m.name);
        (
            m.name,
            Value::obj([
                ("unit", Value::str(m.unit)),
                ("median", Value::Num(median)),
                ("min", Value::Num(min)),
                ("max", Value::Num(max)),
                ("n", Value::Num(n as f64)),
                ("samples", Value::nums(pass.samples_of(m.name))),
            ]),
        )
    });
    let mut pairs = vec![
        ("name", Value::str(w.name)),
        ("iterations", Value::Num(pass.iterations as f64)),
        ("attempted", Value::Num(pass.tally.attempted as f64)),
        ("failed", Value::Num(pass.tally.failed as f64)),
        ("correct", Value::Bool(pass.tally.correct)),
        (
            "ensemble_fnv64",
            pass.ensemble_fnv64.map_or(Value::Null, |f| Value::Str(format!("{f:016x}"))),
        ),
        ("end_to_end", Value::obj(e2e)),
    ];
    if let Some(layers) = layers {
        pairs.push((
            "per_layer",
            Value::obj(layers.iter().map(|(name, value)| {
                (*name, metric_value(*value, spec::unit_of(name).unwrap_or("?")))
            })),
        ));
    }
    Value::obj(pairs)
}

/// Facts that make a re-measure on another host recognisable.
pub fn host_facts() -> Vec<(&'static str, Value)> {
    let run = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .map_or(Value::Null, Value::Str)
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("host_cores", Value::Num(cores as f64)),
        ("rustc", run("rustc", &["-V"])),
        ("commit", run("git", &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"])),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_units() {
        let line = contract_line(true, 4, 0, &[("iter_ms", 71.0312), ("setup_s", 0.1427)]);
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap();
        assert_eq!(m.get("iter_ms").unwrap().num("value"), Some(71.0312));
        assert_eq!(m.get("setup_s").unwrap().get("unit").unwrap().as_str(), Some("s"));
        // `attempted` is at least 1 even when nothing could be started.
        let v = json::parse(&contract_line(false, 0, 0, &[])).unwrap();
        assert_eq!(v.num("attempted"), Some(1.0));
    }

    #[test]
    fn per_layer_values_follow_the_ladder_and_flag_gaps() {
        let traced: Vec<(&'static str, f64)> =
            PER_LAYER.iter().take(22).map(|m| (m.name, 1.0)).collect();
        let probes: Vec<(&'static str, f64)> =
            PER_LAYER.iter().skip(22).map(|m| (m.name, 2.0)).collect();
        let (values, complete) = per_layer_values(&traced, &probes);
        assert!(complete);
        assert_eq!(values.len(), PER_LAYER.len());
        assert!(values.iter().zip(&PER_LAYER).all(|((n, _), m)| *n == m.name));
        let (_, complete) = per_layer_values(&traced, &probes[1..]);
        assert!(!complete);
    }
}
