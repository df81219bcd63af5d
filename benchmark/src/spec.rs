//! What the benchmark measures: the five workloads, the end-to-end metrics
//! with their regression bounds, and the per-layer ladder. `BENCHMARK.json`
//! at the repo root states the same tables; a unit test keeps them equal.

/// Which public entry point of the library a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `SequentialTrainer::run_hooked` — one thread, the plain baseline.
    Seq,
    /// `run_tcp_master` + one slave OS process per cell.
    Tcp,
    /// `run_distributed` — in-process fabric, one slave thread per cell.
    Thr,
    /// `SimulatedCluster::cluster_uy(..).run_resumable` — virtual clocks.
    Sim,
}

impl Driver {
    pub fn name(self) -> &'static str {
        match self {
            Driver::Seq => "seq",
            Driver::Tcp => "tcp",
            Driver::Thr => "thr",
            Driver::Sim => "sim",
        }
    }

    pub fn from_name(s: &str) -> Option<Driver> {
        [Driver::Seq, Driver::Tcp, Driver::Thr, Driver::Sim].into_iter().find(|d| d.name() == s)
    }
}

/// One workload: the shared Table I input `T1` on a grid, through a driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    pub driver: Driver,
    pub rows: usize,
    pub cols: usize,
    pub batches_per_iteration: usize,
    pub eval_batch: usize,
    pub async_exchange: bool,
    /// Grid iterations of one timed run.
    pub iterations: usize,
    /// The same, under `--smoke`.
    pub smoke_iterations: usize,
    /// Why this workload exists (one line; mirrored in `BENCHMARK.json`).
    pub why: &'static str,
}

impl Workload {
    pub fn cells(&self) -> usize {
        self.rows * self.cols
    }

    /// Whether a TCP run's slaves hold their links open until the master
    /// has closed its side (`sut::run_tcp_slave_lingering`) instead of
    /// calling `run_tcp_slave` as it is. Every gated workload's do: the
    /// product's slaves can make a healthy run abort at the final gather
    /// (README, finding 1), and a gated workload may not fail at random.
    /// [`TCP_WIDE`] keeps the product's slaves, because that failure is the
    /// thing it records.
    pub fn slaves_linger(&self) -> bool {
        self.name != TCP_WIDE.name
    }
}

/// The byte-identity check against `SequentialTrainer` compares runs of at
/// most this many iterations: the timed runs themselves when they are that
/// short, one extra short run of the workload's driver otherwise.
pub const VERIFY_ITERATIONS: usize = 8;

/// The issue sized these at ≈17 s per run (16 / 240 / 40 / 40 / 8
/// iterations); the driver's cap of ≈29 s per *invocation* — reference run
/// plus at least three repeats, builds included — leaves ≈3.5 s per run, so
/// every workload's iteration count is cut by the same factor of five
/// (rounded to whole iterations; `sim_4x4` cannot go below 2). Shapes, grids
/// and payloads are untouched.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "seq_2x2_train",
        driver: Driver::Seq,
        rows: 2,
        cols: 2,
        batches_per_iteration: 16,
        eval_batch: 100,
        async_exchange: false,
        iterations: 3,
        smoke_iterations: 1,
        why: "single-thread baseline: train-dominated, tensor+nn do the work, mpi/runtime none; a comm change must leave it unmoved",
    },
    Workload {
        name: "tcp_1x2_sync",
        driver: Driver::Tcp,
        rows: 1,
        cols: 2,
        batches_per_iteration: 1,
        eval_batch: 10,
        async_exchange: false,
        iterations: 48,
        smoke_iterations: 6,
        why: "the product path: OS processes, sockets, wire codec, master protocol, heartbeats; one slave per core; setup_s is real here",
    },
    Workload {
        name: "thr_3x3_sync",
        driver: Driver::Thr,
        rows: 3,
        cols: 3,
        batches_per_iteration: 1,
        eval_batch: 10,
        async_exchange: false,
        iterations: 8,
        smoke_iterations: 3,
        why: "exchange-bound: nine ranks push 2.2 MB snapshots through root fan-in + broadcast every iteration; a kernel speed-up moves little",
    },
    Workload {
        name: "thr_3x3_async",
        driver: Driver::Thr,
        rows: 3,
        cols: 3,
        batches_per_iteration: 1,
        eval_batch: 10,
        async_exchange: true,
        iterations: 8,
        smoke_iterations: 3,
        why: "same inputs through the overlapped exchange (split allgather + AsyncExchanger); sync and async rows must not trade places",
    },
    Workload {
        name: "sim_4x4",
        driver: Driver::Sim,
        rows: 4,
        cols: 4,
        batches_per_iteration: 4,
        eval_batch: 100,
        async_exchange: false,
        iterations: 2,
        smoke_iterations: 1,
        why: "largest paper grid on the virtual-time cluster driver: third copy of the iteration loop, cost model, Table III projection",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `T1` on a 3×3 grid over TCP processes: ten OS processes on the host.
/// Not a gated workload — `run_tcp_master` intermittently aborts at the
/// final gather at this width (see the README's findings) — but its failure
/// share is recorded by the full run as `runtime.tcp_wide_fail_share`.
pub const TCP_WIDE: Workload = Workload {
    name: "tcp_3x3_wide",
    driver: Driver::Tcp,
    rows: 3,
    cols: 3,
    batches_per_iteration: 1,
    eval_batch: 10,
    async_exchange: false,
    iterations: 4,
    smoke_iterations: 2,
    why: "records how often a wide TCP grid fails; never gated",
};
/// Attempts behind `runtime.tcp_wide_fail_share`.
pub const TCP_WIDE_ATTEMPTS: usize = 6;

/// A gated workload or the recorded-only one, by name (child processes
/// resolve their `--workload` through this).
pub fn lookup(name: &str) -> Option<&'static Workload> {
    workload(name).or_else(|| (name == TCP_WIDE.name).then_some(&TCP_WIDE))
}

/// Dataset rows every cell trains on (`T1`).
pub const DATASET_SIZE: usize = 2000;
/// `T1`'s mixture-evolution cadence.
pub const MIXTURE_EVERY: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see, with the share of the parent's
/// median by which it may worsen before a change is a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Run failures are not in this table: the contract carries them as
/// `failed`/`attempted` beside the metrics (and a metric here may never be
/// 0). Any increase of that share is a regression.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "iter_ms", unit: "ms", better: Better::Lower, bound: 0.15 },
    EndToEnd { name: "cell_iters_per_s", unit: "1/s", better: Better::Higher, bound: 0.20 },
    EndToEnd { name: "speedup_vs_seq", unit: "ratio", better: Better::Higher, bound: 0.12 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.15 },
];

/// `setup_s` is small (tens of milliseconds on the in-process drivers), so
/// `--compare` also lets it move by this much before calling it worse.
pub const SETUP_ABS_SLACK_S: f64 = 0.05;

/// A single layer's metric. No bound: these explain, they do not gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// The ladder. First block: read off each workload's traced run (a layer
/// the workload never enters reports 0). Second block: probes at `T1`
/// shapes, identical for every workload.
pub const PER_LAYER: [PerLayer; 60] = [
    layer("data.generate_ms", "ms", Lower),
    layer("core.gather_ms", "ms", Lower),
    layer("core.mutate_ms", "ms", Lower),
    layer("core.train_ms", "ms", Lower),
    layer("core.update_ms", "ms", Lower),
    layer("core.residue_ms", "ms", Lower),
    layer("core.iter_allocs", "count", Lower),
    layer("core.iter_alloc_bytes", "B", Lower),
    layer("runtime.allocs_per_rank_iter", "count", Lower),
    layer("runtime.gather_share", "ratio", Lower),
    layer("runtime.gather_p50_ms", "ms", Lower),
    layer("runtime.gather_p99_ms", "ms", Lower),
    layer("runtime.slave_wall_skew", "ratio", Lower),
    layer("runtime.overlap_fraction", "ratio", Higher),
    layer("runtime.teardown_ms", "ms", Lower),
    layer("cluster.virtual_iter_ms", "ms", Lower),
    layer("cluster.allgather_virtual_ms", "ms", Lower),
    layer("cluster.allgather_bytes_per_iter", "B", Lower),
    layer("cluster.imbalance", "ratio", Lower),
    layer("cluster.host_overhead_pct", "%", Lower),
    layer("telemetry.overhead_pct", "%", Lower),
    layer("telemetry.dropped_events", "count", Lower),
    // ---- probes ----
    layer("tensor.mm_fwd_b100_us", "us", Lower),
    layer("tensor.mm_fwd_b100_p90_us", "us", Lower),
    layer("tensor.mm_fwd_b10_us", "us", Lower),
    layer("tensor.mm_at_b_us", "us", Lower),
    layer("tensor.mm_a_bt_us", "us", Lower),
    layer("tensor.mm_fwd_gflops", "GFLOP/s", Higher),
    layer("nn.gen_step_ms", "ms", Lower),
    layer("nn.disc_step_ms", "ms", Lower),
    layer("nn.adam_step_us", "us", Lower),
    layer("nn.adam_step_p90_us", "us", Lower),
    layer("nn.gen_fwd_b100_ms", "ms", Lower),
    layer("nn.disc_fwd_b100_ms", "ms", Lower),
    layer("nn.disc_fwd_b10_ms", "ms", Lower),
    layer("data.digits_ms_per_k", "ms", Lower),
    layer("data.next_batch_us", "us", Lower),
    layer("data.next_batch_p90_us", "us", Lower),
    layer("core.snapshot_us", "us", Lower),
    layer("core.ingest_us", "us", Lower),
    layer("core.snapshot_bytes", "B", Lower),
    layer("core.capture_state_ms", "ms", Lower),
    layer("core.persist_ms", "ms", Lower),
    layer("mpi.allgather_r2_ms", "ms", Lower),
    layer("mpi.allgather_r9_ms", "ms", Lower),
    layer("mpi.allgather_split_r9_ms", "ms", Lower),
    layer("mpi.tcp_allgather_r2_ms", "ms", Lower),
    layer("mpi.allgather_r9_bytes", "B", Lower),
    layer("runtime.exchange_r9_ms", "ms", Lower),
    layer("runtime.snapshot_encode_us", "us", Lower),
    layer("runtime.snapshot_encode_p90_us", "us", Lower),
    layer("runtime.snapshot_decode_us", "us", Lower),
    layer("runtime.ckpt_write_ms", "ms", Lower),
    layer("runtime.ckpt_read_ms", "ms", Lower),
    layer("runtime.ckpt_bytes", "B", Lower),
    layer("runtime.ckpt_submit_us", "us", Lower),
    layer("telemetry.span_ns", "ns", Lower),
    layer("telemetry.span_p90_ns", "ns", Lower),
    layer("telemetry.span_off_ns", "ns", Lower),
    layer("telemetry.journal_write_ms", "ms", Lower),
];

/// The contract's limits on the tables above, held at compile time.
pub const MAX_WORKLOADS: usize = 8;
pub const MAX_END_TO_END: usize = 16;
pub const MAX_PER_LAYER: usize = 128;
const _: () = assert!(WORKLOADS.len() >= 2 && WORKLOADS.len() <= MAX_WORKLOADS);
const _: () = assert!(!END_TO_END.is_empty() && END_TO_END.len() <= MAX_END_TO_END);
const _: () = assert!(!PER_LAYER.is_empty() && PER_LAYER.len() <= MAX_PER_LAYER);

#[cfg(test)]
/// A workload or metric name: starts with a letter or digit, then at most
/// 64 letters, digits, `_`, `.` and `-` in all.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[cfg(test)]
/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// Unit of any metric this benchmark prints, by name.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::collections::BTreeSet;

    #[test]
    fn tables_stay_inside_the_contract_limits() {
        assert!((2..=MAX_WORKLOADS).contains(&WORKLOADS.len()));
        assert!((1..=MAX_END_TO_END).contains(&END_TO_END.len()));
        assert!((1..=MAX_PER_LAYER).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the widest bound"
        );
    }

    #[test]
    fn every_name_and_unit_is_valid_and_used_once() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "invalid name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
        }
        let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(valid_unit(unit), "invalid unit {unit:?}");
        }
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    #[test]
    fn name_rules() {
        assert!(valid_name("core.train_ms"));
        assert!(valid_name("9lives-ok_1"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&"x".repeat(64)));
        assert!(valid_unit("GFLOP/s") && valid_unit("%") && valid_unit("1/s"));
        assert!(!valid_unit("") && !valid_unit("cell iters") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn workload_shapes_are_the_issues_table() {
        let by = |n| workload(n).expect("workload");
        assert_eq!(
            (by("seq_2x2_train").cells(), by("seq_2x2_train").batches_per_iteration),
            (4, 16)
        );
        assert_eq!((by("tcp_1x2_sync").cells(), by("tcp_1x2_sync").eval_batch), (2, 10));
        assert_eq!(by("thr_3x3_sync").cells(), 9);
        assert!(by("thr_3x3_async").async_exchange && !by("thr_3x3_sync").async_exchange);
        assert_eq!((by("sim_4x4").cells(), by("sim_4x4").eval_batch), (16, 100));
        assert!(workload("nope").is_none());
        // Async needs at least two iterations to differ from sync at all.
        assert!(WORKLOADS.iter().all(|w| !w.async_exchange || w.smoke_iterations >= 2));
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// program prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> =
            doc.as_obj().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );

        let list = |key: &str| doc.get(key).and_then(Value::as_arr).expect("array").to_vec();
        let field =
            |v: &Value, k: &str| v.get(k).and_then(Value::as_str).expect("string").to_string();

        let workloads: Vec<(String, String)> =
            list("workloads").iter().map(|w| (field(w, "name"), field(w, "why"))).collect();
        let expect: Vec<(String, String)> =
            WORKLOADS.iter().map(|w| (w.name.to_string(), w.why.to_string())).collect();
        assert_eq!(workloads, expect);

        let e2e: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.num("bound").unwrap(),
                )
            })
            .collect();
        let expect: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.name().into(), m.bound))
            .collect();
        assert_eq!(e2e, expect);

        let layers: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let expect: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.name().into()))
            .collect();
        assert_eq!(layers, expect);

        assert_eq!(list("paths"), vec![Value::str("benchmark")]);
        let secs = doc.num("run_seconds").unwrap();
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
    }
}
