//! Running a workload: the timed end-to-end pass (reference, repeats,
//! output checks) and the traced per-layer pass.

use crate::child::{spawn_run, RunSpec, TimedRun};
use crate::probe;
use crate::record::{ensemble_fnv64, RunRecord};
use crate::spec::{Driver, Workload, VERIFY_ITERATIONS};
use crate::stats::Summary;
use crate::sut;
use crate::trace::{self, Tracer};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Never more repeats than this, however long `--seconds` is.
const MAX_REPEATS: usize = 32;
/// An invocation stops starting new runs past this, so that it ends well
/// inside the driver's 180 s even if every run went to its deadline.
const INVOCATION_BUDGET: Duration = Duration::from_secs(100);

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// Keep repeating timed runs until they have taken this long in all.
    pub seconds: f64,
    /// …but never fewer than this many.
    pub min_repeats: usize,
    pub smoke: bool,
}

impl Options {
    pub fn iterations(&self, w: &Workload) -> usize {
        if self.smoke {
            w.smoke_iterations
        } else {
            w.iterations
        }
    }
}

/// Where traces, journals, probe scratch files and (by default) results
/// go: `out/` beside this package's manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs attempted, runs failed, whether every output check held — and why
/// not, for the log.
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    pub correct: bool,
    pub notes: Vec<String>,
}

impl Tally {
    fn new() -> Self {
        Self { attempted: 0, failed: 0, correct: true, notes: Vec::new() }
    }

    /// A run that crashed, missed its deadline or reported nonsense.
    fn run_failed(&mut self, note: String) {
        self.failed += 1;
        self.notes.push(note);
    }

    /// A run whose output is wrong: it fails, and the pass is incorrect.
    fn check_failed(&mut self, note: String) {
        self.correct = false;
        self.run_failed(note);
    }
}

fn iter_ms(run: &RunRecord) -> f64 {
    1000.0 * run.train_wall_s / run.iterations.max(1) as f64
}

/// Why a finished run's output is not acceptable, if it is not.
fn output_fault(run: &RunRecord, w: &Workload, iterations: usize) -> Option<String> {
    if run.iterations != iterations {
        return Some(format!(
            "driver reports {} iterations, {iterations} asked",
            run.iterations
        ));
    }
    if !run.fitness_finite {
        return Some("non-finite fitness".into());
    }
    if run.cell_fnv.len() != w.cells() {
        return Some(format!("{} ensembles for {} cells", run.cell_fnv.len(), w.cells()));
    }
    if run.train_wall_s.is_nan() || run.train_wall_s <= 0.0 {
        return Some("driver reports no training wall time".into());
    }
    None
}

/// One run in a fresh child, counted in `tally`; `None`, and a note, when
/// the run fails or reports something unacceptable.
fn counted_run(
    tally: &mut Tally,
    what: &str,
    spec: &RunSpec<'_>,
    tracer: &Tracer,
) -> Option<TimedRun> {
    tally.attempted += 1;
    let run = spawn_run(spec, tracer).and_then(|run| {
        match output_fault(&run.record, spec.workload, spec.iterations) {
            Some(fault) => Err(fault),
            None => Ok(run),
        }
    });
    run.map_err(|e| tally.run_failed(format!("{what}: {e}"))).ok()
}

/// One workload's end-to-end pass.
pub struct EndToEndPass {
    pub tally: Tally,
    /// Samples per metric, one per good repeat, in `END_TO_END` order.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// The grid's fingerprint, identical across all repeats when correct.
    pub ensemble_fnv64: Option<u64>,
    pub iterations: usize,
}

impl EndToEndPass {
    pub fn samples_of(&self, metric: &str) -> &[f64] {
        self.samples.iter().find(|(n, _)| *n == metric).map_or(&[], |(_, v)| v.as_slice())
    }

    pub fn summary(&self, metric: &str) -> Summary {
        Summary::of(self.samples_of(metric))
    }
}

/// The timed pass: a sequential reference of the same config (the output
/// oracle and `speedup_vs_seq`'s numerator), then repeats of the workload
/// itself — each in a fresh process, one at a time — until `opts.seconds`
/// of measuring are spent.
pub fn end_to_end(w: &Workload, opts: &Options) -> EndToEndPass {
    let started = Instant::now();
    let iterations = opts.iterations(w);
    let verify_iters = iterations.min(VERIFY_ITERATIONS);
    let tracer = Tracer::new(false);
    let mut tally = Tally::new();

    // The oracle: `SequentialTrainer` on the same config, cut to the
    // verify length. Every cell's ensemble bytes must match it.
    let sequential = Workload { driver: Driver::Seq, ..*w };
    let reference = counted_run(
        &mut tally,
        "sequential reference",
        &RunSpec::plain(&sequential, verify_iters, opts.seed),
        &tracer,
    );
    // Timed runs longer than the verify length are checked through one
    // extra short run of the workload's own driver.
    if verify_iters != iterations {
        let spec = RunSpec::plain(w, verify_iters, opts.seed);
        let short = counted_run(&mut tally, "verify run", &spec, &tracer);
        if let (Some(short), Some(reference)) = (&short, &reference) {
            if short.record.cell_fnv != reference.record.cell_fnv {
                tally.check_failed(format!(
                    "verify run: ensembles differ from the sequential driver's after {verify_iters} iterations"
                ));
            }
        }
    }

    let spec = RunSpec::plain(w, iterations, opts.seed);
    let mut good: Vec<TimedRun> = Vec::new();
    let measuring = Instant::now();
    let mut repeats = 0;
    while repeats < MAX_REPEATS
        && (repeats < opts.min_repeats || measuring.elapsed().as_secs_f64() < opts.seconds)
        && started.elapsed() < INVOCATION_BUDGET
    {
        repeats += 1;
        let what = format!("repeat {repeats}");
        let Some(run) = counted_run(&mut tally, &what, &spec, &tracer) else {
            continue;
        };
        let oracle = match (&reference, good.first()) {
            (Some(r), _) if verify_iters == iterations => {
                Some(("the sequential driver", &r.record))
            }
            (_, Some(first)) => Some(("the first repeat", &first.record)),
            _ => None,
        };
        match oracle {
            Some((whose, oracle)) if run.record.cell_fnv != oracle.cell_fnv => {
                tally.check_failed(format!("{what}: ensembles differ from {whose}'s"));
            }
            _ => good.push(run),
        }
    }

    tally.correct &= reference.is_some() && good.len() >= opts.min_repeats.min(repeats);
    let seq_iter_ms = reference.as_ref().map_or(f64::NAN, |r| iter_ms(&r.record));
    let cell_iters = (w.cells() * iterations) as f64;
    let column = |f: &dyn Fn(&TimedRun) -> f64| good.iter().map(f).collect::<Vec<f64>>();
    let samples = vec![
        // What is neither training nor the distributed master's wait after
        // its last slave finished (`runtime.teardown_ms` is that wait's rung;
        // its phase-dependent length would drown every other part of set-up).
        ("setup_s", column(&|r| r.run_total_s - r.record.train_wall_s - r.record.teardown_s)),
        ("iter_ms", column(&|r| iter_ms(&r.record))),
        ("cell_iters_per_s", column(&|r| cell_iters / r.run_total_s)),
        (
            "speedup_vs_seq",
            column(&|r| match &r.record.sim {
                // The Table III number: sequential time over *virtual* time.
                Some(sim) => seq_iter_ms / (1000.0 * sim.virtual_wall_s / iterations as f64),
                None => seq_iter_ms / iter_ms(&r.record),
            }),
        ),
        ("peak_rss_mb", column(&|r| r.record.peak_rss_kb as f64 / 1024.0)),
    ];
    EndToEndPass {
        tally,
        samples,
        ensemble_fnv64: good.first().map(|r| ensemble_fnv64(&r.record.cell_fnv)),
        iterations,
    }
}

/// What the traced run is held against: an untraced run of the same thing.
#[derive(Debug, Clone, Copy)]
pub struct Untraced {
    pub iter_ms: f64,
    pub ensemble_fnv64: Option<u64>,
}

impl Untraced {
    /// The timed pass as the untraced side.
    pub fn of(pass: &EndToEndPass) -> Self {
        Self { iter_ms: pass.summary("iter_ms").median, ensemble_fnv64: pass.ensemble_fnv64 }
    }
}

/// One workload's traced pass.
pub struct PerLayerPass {
    pub tally: Tally,
    /// The workload-specific rungs (probe rungs are shared, see
    /// [`run_probes`]); empty when the traced run failed.
    pub metrics: Vec<(&'static str, f64)>,
    pub trace_file: Option<PathBuf>,
}

/// The traced pass: one extra run with library telemetry on and harness
/// spans around data generation, driver construction, the driver call,
/// iteration hooks, spawn and reap. Without an `untraced` side from a timed
/// pass, one untraced run is made first, so that the cost of tracing is
/// always a difference of two runs.
pub fn per_layer(w: &Workload, opts: &Options, untraced: Option<Untraced>) -> PerLayerPass {
    let iterations = opts.iterations(w);
    let mut pass = PerLayerPass { tally: Tally::new(), metrics: Vec::new(), trace_file: None };

    let untraced = untraced.unwrap_or_else(|| {
        let spec = RunSpec::plain(w, iterations, opts.seed);
        let run = counted_run(&mut pass.tally, "untraced run", &spec, &Tracer::new(false));
        Untraced {
            iter_ms: run.as_ref().map_or(f64::NAN, |r| iter_ms(&r.record)),
            ensemble_fnv64: run.map(|r| ensemble_fnv64(&r.record.cell_fnv)),
        }
    });

    let journals = out_dir().join(format!("journals_{}", w.name));
    // Stale journals of an earlier seed must not be mistaken for this run's.
    let _ = std::fs::remove_dir_all(&journals);
    let tracer = Tracer::new(true);
    let root = tracer.open("harness.traced_run", None);
    let spec = RunSpec {
        telemetry_dir: Some(&journals),
        parent_span: Some(root.id),
        ..RunSpec::plain(w, iterations, opts.seed)
    };
    let traced = counted_run(&mut pass.tally, "traced run", &spec, &tracer);
    tracer.close(root);
    let Some(run) = traced else {
        return pass;
    };
    let rec = &run.record;
    // Telemetry is observational: the traced run's bytes are the untraced
    // run's bytes.
    if untraced.ensemble_fnv64.is_some_and(|fnv| fnv != ensemble_fnv64(&rec.cell_fnv)) {
        pass.tally.check_failed("traced run: ensembles differ from the untraced run's".into());
    }

    tracer.adopt(rec.spans.iter().cloned());
    let spans = tracer.snapshot();
    let run_id = format!("{}/seed{}/traced", w.name, opts.seed);
    let file = out_dir().join(format!("trace_{}.json", w.name));
    let written = std::fs::create_dir_all(out_dir()).and_then(|()| {
        std::fs::write(&file, trace::document(w.name, &run_id, &spans).to_pretty())
    });
    match written {
        Ok(()) => pass.trace_file = Some(file),
        Err(e) => pass.tally.check_failed(format!("writing {}: {e}", file.display())),
    }

    let traced_iter_ms = iter_ms(rec);
    let iters = rec.iterations.max(1) as f64;
    let sim = rec.sim.unwrap_or_default();
    // The clock the gather share is a share of: the host's, except on the
    // simulator, whose gather row is virtual.
    let iter_clock_ms = if w.driver == Driver::Sim {
        1000.0 * sim.virtual_wall_s / iters
    } else {
        traced_iter_ms
    };
    let wall_max = rec.slave_walls_s.iter().copied().fold(0.0, f64::max);
    let wall_min = rec.slave_walls_s.iter().copied().fold(f64::INFINITY, f64::min);
    let residue_ms = traced_iter_ms - rec.explained_ms;
    pass.metrics = vec![
        ("data.generate_ms", trace::mean_millis(&spans, "data.generate")),
        ("core.gather_ms", rec.profile_ms[0]),
        ("core.mutate_ms", rec.profile_ms[1]),
        ("core.train_ms", rec.profile_ms[2]),
        ("core.update_ms", rec.profile_ms[3]),
        ("core.residue_ms", residue_ms),
        ("core.iter_allocs", rec.steady_allocs),
        ("core.iter_alloc_bytes", rec.steady_alloc_bytes),
        ("runtime.allocs_per_rank_iter", rec.rank_allocs),
        ("runtime.gather_share", rec.gather_rank_ms / iter_clock_ms),
        ("runtime.gather_p50_ms", rec.gather_p50_ms),
        ("runtime.gather_p99_ms", rec.gather_p99_ms),
        (
            "runtime.slave_wall_skew",
            if wall_max > 0.0 { (wall_max - wall_min) / wall_max } else { 0.0 },
        ),
        ("runtime.overlap_fraction", rec.overlap_fraction),
        ("runtime.teardown_ms", 1000.0 * rec.teardown_s),
        ("cluster.virtual_iter_ms", 1000.0 * sim.virtual_wall_s / iters),
        ("cluster.allgather_virtual_ms", 1000.0 * sim.allgather_virtual_s / iters),
        ("cluster.allgather_bytes_per_iter", sim.allgather_bytes / iters),
        ("cluster.imbalance", sim.imbalance),
        (
            "cluster.host_overhead_pct",
            if rec.sim.is_some() { 100.0 * residue_ms / traced_iter_ms } else { 0.0 },
        ),
        (
            "telemetry.overhead_pct",
            100.0 * (traced_iter_ms - untraced.iter_ms) / untraced.iter_ms,
        ),
        ("telemetry.dropped_events", rec.dropped_events),
    ];
    pass
}

/// The probe rungs: single calls at `T1` shapes, the same for every
/// workload. Scratch files go under [`out_dir`] and are removed again.
pub fn run_probes(opts: &Options) -> Result<Vec<(&'static str, f64)>, String> {
    let scratch = out_dir().join("probe_scratch");
    // One cheap probe's slice of the measuring time; expensive probes are
    // governed by their minimum call count instead.
    let slice = Duration::from_secs_f64(opts.seconds * 0.015);
    let calls = if opts.smoke { 3 } else { probe::MIN_CALLS };
    let result =
        sut::run_probes(opts.seed, slice, calls, &scratch).map_err(|e| format!("probes: {e}"));
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

/// `attempts` runs of `w`, each on a seed of its own, tallied — recorded,
/// never gated.
pub fn fail_share(w: &Workload, opts: &Options, attempts: usize) -> Tally {
    let tracer = Tracer::new(false);
    let mut tally = Tally::new();
    for i in 0..attempts {
        let spec = RunSpec::plain(w, opts.iterations(w), opts.seed + i as u64);
        counted_run(&mut tally, &format!("attempt {}", i + 1), &spec, &tracer);
    }
    tally
}
