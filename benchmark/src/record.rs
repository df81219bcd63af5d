//! What one run of one workload reports back to the harness: a child process
//! prints a [`RunRecord`] as the last line of its standard output, the
//! harness parses it and adds what only an outside observer can time.

use crate::json::Value;
use crate::trace::Span;

/// FNV-1a, 64 bit — the fingerprint of an ensemble's bytes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f32s(&mut self, values: &[f32]) {
        for v in values {
            self.bytes(&v.to_le_bytes());
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The whole grid's fingerprint: FNV over the per-cell fingerprints, in
/// cell order. Printed so two commits can be compared.
pub fn ensemble_fnv64(cells: &[u64]) -> u64 {
    let mut h = Fnv64::new();
    for c in cells {
        h.bytes(&c.to_le_bytes());
    }
    h.finish()
}

/// What the virtual-time driver alone knows.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimFacts {
    /// `SimOutcome::virtual_wall()`.
    pub virtual_wall_s: f64,
    /// `CommStats::allgather_seconds` (virtual, whole run).
    pub allgather_virtual_s: f64,
    /// `CommStats::allgather_bytes` (whole run, exact).
    pub allgather_bytes: f64,
    /// `SimOutcome::imbalance()`.
    pub imbalance: f64,
}

/// One run, as the process that made the library calls saw it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunRecord {
    /// Iterations the driver reports having executed.
    pub iterations: usize,
    /// The training-loop wall the driver returns.
    pub train_wall_s: f64,
    /// Per-cell FNV-1a of the final ensemble's bytes (genomes, then mixture
    /// weights), cell order.
    pub cell_fnv: Vec<u64>,
    /// Every reported fitness is a finite number.
    pub fitness_finite: bool,
    /// `VmHWM` of the largest process of the run.
    pub peak_rss_kb: u64,
    /// Table IV rows — gather, mutate, train, update — in ms per
    /// cell-iteration, on the clock the driver reports them in.
    pub profile_ms: [f64; 4],
    /// Host ms of one grid iteration on one rank that the rows above
    /// account for (`iter_ms` minus this is the residue).
    pub explained_ms: f64,
    /// Gather ms per rank-iteration (the exchange as a rank perceives it).
    pub gather_rank_ms: f64,
    /// Each slave's training-loop wall (distributed drivers only).
    pub slave_walls_s: Vec<f64>,
    /// From the last slave finishing to the master call returning
    /// (distributed drivers only; the others return when their loop ends).
    pub teardown_s: f64,
    /// Heap allocations per steady-state grid iteration (iterations ≥ 2,
    /// drivers with an iteration hook) and how many iterations were counted.
    pub steady_allocs: f64,
    pub steady_alloc_bytes: f64,
    pub steady_iters: usize,
    /// Allocations of the whole distributed run per rank-iteration.
    pub rank_allocs: f64,
    /// From the run's `TelemetrySummary` (traced runs; 0 otherwise).
    pub gather_p50_ms: f64,
    pub gather_p99_ms: f64,
    pub overlap_fraction: f64,
    pub dropped_events: f64,
    pub sim: Option<SimFacts>,
    /// Harness spans recorded inside the run's processes (traced runs).
    pub spans: Vec<Span>,
}

/// One distributed rank's clock, as the harness (which owns the rank's
/// `make_data` closure) observed it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RankClock {
    /// When the rank's `SlaveResult.wall_seconds` started counting (µs since
    /// the Unix epoch): the library starts it right before asking for data.
    pub start_us: u64,
    /// How much of that clock went into generating the rank's dataset.
    pub data_seconds: f64,
}

impl RunRecord {
    /// Split a distributed run's time the way the other drivers split it.
    ///
    /// The library's slave clock starts before the slave generates its
    /// dataset — set-up work that the sequential and simulated drivers do
    /// before their clocks start — and no rank gets past its first exchange
    /// until every rank holds its data. So:
    ///
    /// * `train_wall_s` — from the instant the *last* rank had its data to
    ///   the instant the last slave clock stopped;
    /// * `teardown_s` — from there to the master call returning
    ///   (`returned_us`): final gather plus whatever the master waits for.
    ///
    /// `clocks` and `slave_walls_s` are both in cell order.
    pub fn settle_rank_clocks(&mut self, clocks: &[RankClock], returned_us: u64) {
        let latest = |f: &dyn Fn(&f64, &RankClock) -> f64| {
            self.slave_walls_s.iter().zip(clocks).map(|(w, c)| f(w, c)).fold(0.0, f64::max)
        };
        let ready_us = latest(&|_, c| c.start_us as f64 + c.data_seconds * 1e6);
        let stopped_us = latest(&|wall, c| c.start_us as f64 + wall * 1e6);
        self.train_wall_s = ((stopped_us - ready_us) / 1e6).max(0.0);
        self.teardown_s = ((returned_us as f64 - stopped_us) / 1e6).max(0.0);
    }
}

fn hex(v: u64) -> Value {
    // u64 does not survive a trip through a JSON number.
    Value::Str(format!("{v:016x}"))
}

impl RunRecord {
    pub fn to_json(&self) -> Value {
        let mut pairs = vec![
            ("iterations", Value::Num(self.iterations as f64)),
            ("train_wall_s", Value::Num(self.train_wall_s)),
            ("cell_fnv", Value::Arr(self.cell_fnv.iter().map(|&c| hex(c)).collect())),
            ("fitness_finite", Value::Bool(self.fitness_finite)),
            ("peak_rss_kb", Value::Num(self.peak_rss_kb as f64)),
            ("profile_ms", Value::nums(&self.profile_ms)),
            ("explained_ms", Value::Num(self.explained_ms)),
            ("gather_rank_ms", Value::Num(self.gather_rank_ms)),
            ("slave_walls_s", Value::nums(&self.slave_walls_s)),
            ("teardown_s", Value::Num(self.teardown_s)),
            ("steady_allocs", Value::Num(self.steady_allocs)),
            ("steady_alloc_bytes", Value::Num(self.steady_alloc_bytes)),
            ("steady_iters", Value::Num(self.steady_iters as f64)),
            ("rank_allocs", Value::Num(self.rank_allocs)),
            ("gather_p50_ms", Value::Num(self.gather_p50_ms)),
            ("gather_p99_ms", Value::Num(self.gather_p99_ms)),
            ("overlap_fraction", Value::Num(self.overlap_fraction)),
            ("dropped_events", Value::Num(self.dropped_events)),
            ("spans", Value::Arr(self.spans.iter().map(Span::to_json).collect())),
        ];
        if let Some(sim) = &self.sim {
            pairs.push((
                "sim",
                Value::obj([
                    ("virtual_wall_s", Value::Num(sim.virtual_wall_s)),
                    ("allgather_virtual_s", Value::Num(sim.allgather_virtual_s)),
                    ("allgather_bytes", Value::Num(sim.allgather_bytes)),
                    ("imbalance", Value::Num(sim.imbalance)),
                ]),
            ));
        }
        Value::obj(pairs)
    }

    pub fn from_json(v: &Value) -> Result<RunRecord, String> {
        let num = |k: &str| v.num(k).ok_or_else(|| format!("run record lacks number {k:?}"));
        let cell_fnv = v
            .get("cell_fnv")
            .and_then(Value::as_arr)
            .ok_or("run record lacks cell_fnv")?
            .iter()
            .map(|c| c.as_str().and_then(|s| u64::from_str_radix(s, 16).ok()))
            .collect::<Option<Vec<u64>>>()
            .ok_or("bad cell_fnv entry")?;
        let profile = v.num_list("profile_ms");
        let profile_ms: [f64; 4] =
            profile.as_slice().try_into().map_err(|_| "profile_ms needs four rows")?;
        let sim = match v.get("sim") {
            None => None,
            Some(s) => Some(SimFacts {
                virtual_wall_s: s.num("virtual_wall_s").ok_or("sim.virtual_wall_s")?,
                allgather_virtual_s: s
                    .num("allgather_virtual_s")
                    .ok_or("sim.allgather_virtual_s")?,
                allgather_bytes: s.num("allgather_bytes").ok_or("sim.allgather_bytes")?,
                imbalance: s.num("imbalance").ok_or("sim.imbalance")?,
            }),
        };
        Ok(RunRecord {
            iterations: num("iterations")? as usize,
            train_wall_s: num("train_wall_s")?,
            cell_fnv,
            fitness_finite: v.get("fitness_finite").and_then(Value::as_bool).unwrap_or(false),
            peak_rss_kb: num("peak_rss_kb")? as u64,
            profile_ms,
            explained_ms: num("explained_ms")?,
            gather_rank_ms: num("gather_rank_ms")?,
            slave_walls_s: v.num_list("slave_walls_s"),
            teardown_s: num("teardown_s")?,
            steady_allocs: num("steady_allocs")?,
            steady_alloc_bytes: num("steady_alloc_bytes")?,
            steady_iters: num("steady_iters")? as usize,
            rank_allocs: num("rank_allocs")?,
            gather_p50_ms: num("gather_p50_ms")?,
            gather_p99_ms: num("gather_p99_ms")?,
            overlap_fraction: num("overlap_fraction")?,
            dropped_events: num("dropped_events")?,
            sim,
            spans: v
                .get("spans")
                .and_then(Value::as_arr)
                .map(|a| a.iter().filter_map(Span::from_json).collect())
                .unwrap_or_default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut h = Fnv64::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
        // f32s hashes the little-endian bytes.
        let (mut a, mut b) = (Fnv64::new(), Fnv64::new());
        a.f32s(&[1.5, -0.0]);
        b.bytes(&[0, 0, 0xc0, 0x3f, 0, 0, 0, 0x80]);
        assert_eq!(a.finish(), b.finish());
        assert_ne!(ensemble_fnv64(&[1, 2]), ensemble_fnv64(&[2, 1]));
    }

    #[test]
    fn rank_clocks_split_a_distributed_run() {
        let mut rec = RunRecord { slave_walls_s: vec![5.0, 4.9, 4.7], ..RunRecord::default() };
        let clock = |start_us, data_seconds| RankClock { start_us, data_seconds };
        // Rank 0 had its data last (at 1.5 s); rank 2 started 400 ms late
        // and so stopped last (at 6.1 s).
        let clocks = [clock(1_000_000, 0.5), clock(1_050_000, 0.1), clock(1_400_000, 0.1)];
        rec.settle_rank_clocks(&clocks, 6_400_000);
        assert!((rec.train_wall_s - 4.6).abs() < 1e-9);
        assert!((rec.teardown_s - 0.3).abs() < 1e-9);
        // A master that returns "before" the last slave (clock skew) is 0.
        rec.settle_rank_clocks(&clocks, 1_000_000);
        assert_eq!(rec.teardown_s, 0.0);
    }

    #[test]
    fn record_survives_the_pipe() {
        let rec = RunRecord {
            iterations: 10,
            train_wall_s: 4.218_734_5,
            cell_fnv: vec![u64::MAX, 0, 0x0123_4567_89ab_cdef],
            fitness_finite: true,
            peak_rss_kb: 123_456,
            profile_ms: [1.0, 0.001, 20.5, 33.25],
            explained_ms: 54.751,
            gather_rank_ms: 1.0,
            slave_walls_s: vec![4.1, 4.2],
            teardown_s: 0.31,
            steady_allocs: 0.0,
            steady_alloc_bytes: 0.0,
            steady_iters: 2,
            rank_allocs: 17.5,
            gather_p50_ms: 33.554_432,
            gather_p99_ms: 67.108_864,
            overlap_fraction: 0.61,
            dropped_events: 0.0,
            sim: Some(SimFacts {
                virtual_wall_s: 0.9,
                allgather_virtual_s: 0.1,
                allgather_bytes: 70_518_912.0,
                imbalance: 1.02,
            }),
            spans: vec![Span {
                id: 7 << 20,
                parent: None,
                name: "driver.call".into(),
                start_us: 1_790_000_000_000_000,
                end_us: 1_790_000_004_218_734,
            }],
        };
        let line = rec.to_json().to_line();
        assert_eq!(RunRecord::from_json(&json::parse(&line).unwrap()).unwrap(), rec);
        let plain = RunRecord { sim: None, spans: vec![], ..rec };
        let back =
            RunRecord::from_json(&json::parse(&plain.to_json().to_line()).unwrap()).unwrap();
        assert_eq!(back, plain);
        assert!(RunRecord::from_json(&Value::obj([("iterations", Value::Num(1.0))])).is_err());
    }
}
