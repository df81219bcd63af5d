//! Harness spans: name, start, end, parent and run id, recorded from the
//! benchmark's own files around the calls into each layer. Spans stay in
//! memory and are written to `out/trace_<workload>.json` once, at the end.
//! A disabled tracer (every timed, untraced run) records nothing.

use crate::json::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Microseconds since the Unix epoch: one clock for spans from the harness,
/// its children and their slaves (and small enough to be exact in JSON).
pub fn now_us() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_micros() as u64)
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (`None` for a run's root).
    pub parent: Option<u64>,
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
}

impl Span {
    pub fn millis(&self) -> f64 {
        self.end_us.saturating_sub(self.start_us) as f64 / 1000.0
    }

    pub fn to_json(&self) -> Value {
        Value::obj([
            ("id", Value::Num(self.id as f64)),
            ("parent", self.parent.map_or(Value::Null, |p| Value::Num(p as f64))),
            ("name", Value::str(&self.name)),
            ("start_us", Value::Num(self.start_us as f64)),
            ("end_us", Value::Num(self.end_us as f64)),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Span> {
        Some(Span {
            id: v.num("id")? as u64,
            parent: v.num("parent").map(|p| p as u64),
            name: v.get("name")?.as_str()?.to_string(),
            start_us: v.num("start_us")? as u64,
            end_us: v.num("end_us")? as u64,
        })
    }
}

/// An open span; close it with [`Tracer::close`].
pub struct Open {
    pub id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_us: u64,
}

/// Span recorder, shareable across the rank threads of an in-process run.
pub struct Tracer {
    enabled: bool,
    /// Ids are `pid · 2²⁰ + counter`, so spans from different processes of
    /// one run never collide when the harness merges them.
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            next_id: AtomicU64::new(u64::from(std::process::id()) << 20),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn open(&self, name: &'static str, parent: Option<u64>) -> Open {
        // Relaxed: the counter only hands out distinct numbers.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Open { id, parent, name, start_us: now_us() }
    }

    pub fn close(&self, open: Open) {
        if self.enabled {
            let span = Span {
                id: open.id,
                parent: open.parent,
                name: open.name.to_string(),
                start_us: open.start_us,
                end_us: now_us(),
            };
            self.spans.lock().expect("span list poisoned by a panicking rank").push(span);
        }
    }

    /// Run `f` under a span.
    pub fn span<R>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce() -> R) -> R {
        let open = self.open(name, parent);
        let out = f();
        self.close(open);
        out
    }

    /// Adopt spans recorded by another process of the same run.
    pub fn adopt(&self, spans: impl IntoIterator<Item = Span>) {
        if self.enabled {
            self.spans.lock().expect("span list poisoned by a panicking rank").extend(spans);
        }
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned by a panicking rank").clone()
    }
}

/// Mean duration in ms of the spans called `name` (0 when there are none).
pub fn mean_millis(spans: &[Span], name: &str) -> f64 {
    let hits: Vec<f64> = spans.iter().filter(|s| s.name == name).map(Span::millis).collect();
    if hits.is_empty() {
        0.0
    } else {
        hits.iter().sum::<f64>() / hits.len() as f64
    }
}

/// The trace document for one workload's traced run.
pub fn document(workload: &str, run_id: &str, spans: &[Span]) -> Value {
    let mut spans = spans.to_vec();
    spans.sort_by_key(|s| (s.start_us, s.id));
    Value::obj([
        ("workload", Value::str(workload)),
        ("run", Value::str(run_id)),
        ("clock", Value::str("microseconds since the Unix epoch")),
        ("spans", Value::Arr(spans.iter().map(Span::to_json).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_round_trip_and_stay_unique() {
        let t = Tracer::new(true);
        let root = t.open("run", None);
        let root_id = root.id;
        t.span("data.generate", Some(root_id), || std::hint::black_box(1 + 1));
        t.close(root);
        let spans = t.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(root_id));
        assert_eq!(spans[1].parent, None);
        assert_ne!(spans[0].id, spans[1].id);
        assert!(spans.iter().all(|s| s.end_us >= s.start_us));
        for s in &spans {
            assert_eq!(Span::from_json(&s.to_json()).as_ref(), Some(s));
        }
        let doc = document("w", "w/s1/traced", &spans);
        assert_eq!(doc.get("spans").and_then(Value::as_arr).map(<[Value]>::len), Some(2));
    }

    #[test]
    fn disabled_tracer_runs_the_work_and_keeps_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, || 7), 7);
        t.adopt([Span { id: 1, parent: None, name: "y".into(), start_us: 0, end_us: 1 }]);
        assert!(t.snapshot().is_empty());
        assert_eq!(mean_millis(&[], "x"), 0.0);
    }
}
