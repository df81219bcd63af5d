//! `--compare A.json B.json`: apply each end-to-end metric's bound, per
//! workload, to two result files (A is the parent, B the change), one row
//! per (metric, workload). This is the rule every later PR is judged by,
//! and what "two sets of runs of one commit agree" means.

use crate::json::Value;
use crate::spec::{Better, EndToEnd, END_TO_END, SETUP_ABS_SLACK_S};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    /// The run-to-run spread is wider than the bound, and the two sample
    /// sets overlap: nothing can be said either way.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A gain is only ever called from at least this many runs a side
/// (`--repeats 10`): three samples separate by chance one time in twenty.
pub const GAIN_MIN_SAMPLES: usize = 10;

/// Judge B's samples of metric `m` against A's.
pub fn judge(m: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    if !ma.is_finite() || !mb.is_finite() || ma == 0.0 {
        return Verdict::Unresolved;
    }
    // Positive = B is worse, as a share of A's median.
    let worse_by = match m.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    // A single-sample side has no spread of its own.
    let spread_of = |s: &[f64]| Some(stats::quartile_spread(s)).filter(|x| x.is_finite());
    let spread = spread_of(a).into_iter().chain(spread_of(b)).fold(0.0, f64::max);
    let b_beats_a = |x: f64, y: f64| match m.better {
        Better::Lower => y < x,
        Better::Higher => y > x,
    };
    let separated = a.len().min(b.len()) >= GAIN_MIN_SAMPLES
        && a.iter().all(|&x| b.iter().all(|&y| b_beats_a(x, y)));
    if spread > m.bound {
        return if separated { Verdict::Better } else { Verdict::Unresolved };
    }
    let small_setup_move = m.name == "setup_s" && (mb - ma).abs() <= SETUP_ABS_SLACK_S;
    if worse_by > m.bound && !small_setup_move {
        Verdict::Worse
    } else if -worse_by > spread && separated {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

fn workloads(doc: &Value) -> Result<&[Value], String> {
    doc.get("workloads")
        .and_then(Value::as_arr)
        .ok_or_else(|| "no \"workloads\" array".to_string())
}

fn samples(workload: &Value, metric: &str) -> Vec<f64> {
    workload
        .get("end_to_end")
        .and_then(|e| e.get(metric))
        .map_or(Vec::new(), |m| m.num_list("samples"))
}

fn fail_share(workload: &Value) -> f64 {
    workload.num("failed").unwrap_or(0.0) / workload.num("attempted").unwrap_or(1.0).max(1.0)
}

/// One row per (metric, workload) of A, judged against B; a workload or
/// metric B lacks is unresolved. The run-failure share gets a row too: any
/// increase is worse.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let b_workloads = workloads(b)?;
    let mut rows = Vec::new();
    for wa in workloads(a)? {
        let name = wa.get("name").and_then(Value::as_str).ok_or("workload without a name")?;
        let wb =
            b_workloads.iter().find(|w| w.get("name").and_then(Value::as_str) == Some(name));
        for m in &END_TO_END {
            let sa = samples(wa, m.name);
            let sb = wb.map_or(Vec::new(), |w| samples(w, m.name));
            rows.push(Row {
                workload: name.to_string(),
                metric: m.name.to_string(),
                a: stats::median(&sa),
                b: stats::median(&sb),
                verdict: judge(m, &sa, &sb),
            });
        }
        let (fa, fb) = (fail_share(wa), wb.map_or(f64::NAN, fail_share));
        rows.push(Row {
            workload: name.to_string(),
            metric: "run_fail_share".to_string(),
            a: fa,
            b: fb,
            verdict: if fb.is_nan() {
                Verdict::Unresolved
            } else if fb > fa {
                Verdict::Worse
            } else if fb < fa {
                Verdict::Better
            } else {
                Verdict::WithinBound
            },
        });
    }
    Ok(rows)
}

/// Print the rows; the number of rows that are worse.
pub fn print(rows: &[Row]) -> usize {
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "A median", "B median", "B vs A"
    );
    for r in rows {
        println!(
            "{:<16} {:<18} {:>14.4} {:>14.4} {:>+8.1}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            if r.a != 0.0 { 100.0 * (r.b - r.a) / r.a.abs() } else { 0.0 },
            r.verdict.name()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} better, {} within bound, {} worse, {} unresolved",
        count(Verdict::Better),
        count(Verdict::WithinBound),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
    count(Verdict::Worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    // Metrics of the test's own, so that tuning a real bound cannot move
    // a verdict here.
    const ITER: EndToEnd =
        EndToEnd { name: "iter_ms", unit: "ms", better: Better::Lower, bound: 0.10 };
    const RATE: EndToEnd =
        EndToEnd { name: "cell_iters_per_s", unit: "1/s", better: Better::Higher, bound: 0.10 };
    const SETUP: EndToEnd =
        EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 };

    #[test]
    fn verdicts_follow_the_bound_the_direction_and_the_spread() {
        let ten = |from: f64| (0..10).map(|i| from + 0.2 * f64::from(i)).collect::<Vec<f64>>();
        let a = ten(100.0);
        assert_eq!(judge(&ITER, &a, &[104.0, 105.0, 106.0]), Verdict::WithinBound);
        assert_eq!(judge(&ITER, &a, &[115.0, 116.0, 117.0]), Verdict::Worse);
        assert_eq!(judge(&ITER, &a, &ten(80.0)), Verdict::Better);
        // Higher-is-better flips the direction.
        assert_eq!(judge(&RATE, &a, &[80.0, 81.0, 82.0]), Verdict::Worse);
        assert_eq!(judge(&RATE, &a, &ten(120.0)), Verdict::Better);
        // Spread wider than the bound: unresolved, unless every B beats every A.
        let noisy: Vec<f64> = (0..10).map(|i| 80.0 + 5.0 * f64::from(i)).collect();
        assert_eq!(judge(&ITER, &noisy, &[90.0, 100.0, 125.0]), Verdict::Unresolved);
        assert_eq!(judge(&ITER, &noisy, &ten(60.0)), Verdict::Better);
        // Too few runs to call a gain, however far apart they are.
        assert_eq!(judge(&ITER, &noisy, &[50.0, 60.0, 70.0]), Verdict::Unresolved);
        assert_eq!(
            judge(&ITER, &[100.0, 101.0, 102.0], &[80.0, 81.0, 82.0]),
            Verdict::WithinBound
        );
        // Nothing to compare with.
        assert_eq!(judge(&ITER, &a, &[]), Verdict::Unresolved);
        // A small absolute move of a small set-up time is not a regression.
        assert_eq!(
            judge(&SETUP, &[0.05, 0.05, 0.05], &[0.08, 0.08, 0.08]),
            Verdict::WithinBound
        );
        assert_eq!(judge(&SETUP, &[1.0, 1.0, 1.0], &[1.4, 1.4, 1.4]), Verdict::Worse);
    }

    fn doc(iter_ms: [f64; 3], failed: usize) -> Value {
        let text = format!(
            r#"{{"workloads":[{{"name":"w","attempted":4,"failed":{failed},
                "end_to_end":{{"iter_ms":{{"samples":[{},{},{}]}}}}}}]}}"#,
            iter_ms[0], iter_ms[1], iter_ms[2]
        );
        json::parse(&text).unwrap()
    }

    #[test]
    fn documents_compare_row_by_row() {
        let rows = compare(&doc([10.0, 10.1, 10.2], 0), &doc([12.0, 12.1, 12.2], 1)).unwrap();
        assert_eq!(rows.len(), END_TO_END.len() + 1);
        let verdict = |metric: &str| rows.iter().find(|r| r.metric == metric).unwrap().verdict;
        assert_eq!(verdict("iter_ms"), Verdict::Worse);
        assert_eq!(verdict("setup_s"), Verdict::Unresolved); // absent from both files
        assert_eq!(verdict("run_fail_share"), Verdict::Worse);
        assert_eq!(print(&rows), 2);
        // The same file against itself agrees with itself.
        let same = doc([10.0, 10.1, 10.2], 0);
        let rows = compare(&same, &same).unwrap();
        assert_eq!(rows.iter().filter(|r| r.verdict == Verdict::Worse).count(), 0);
        assert!(compare(&Value::Null, &same).is_err());
    }
}
