//! Machine-readable kernel + communication microbenchmarks.
//!
//! Runs the hot-path kernels (the three Table-I forward shapes and the two
//! backprop products, through the three production kernels with recycled
//! outputs) plus the train steps, the update phase's per-block against
//! stacked scoring, and the snapshot-exchange micro-costs,
//! and writes `BENCH_kernels.json` with
//! ns/op per entry. CI runs `--smoke` on every PR and uploads the file as
//! an artifact, so kernel regressions are visible per-change; full runs
//! seed the repo's perf trajectory in the committed JSON.
//!
//! ```text
//! cargo run --release -p lipiz-bench --bin bench-json            # full
//! cargo run --release -p lipiz-bench --bin bench-json -- --smoke
//! cargo run --release -p lipiz-bench --bin bench-json -- --out my.json
//! ```

use lipiz_core::CellSnapshot;
use lipiz_mpi::wire::Wire;
use lipiz_mpi::{Comm, Universe};
use lipiz_nn::mlp::Grads;
use lipiz_nn::{gan, Adam, Discriminator, GanLoss, Generator, NetworkConfig, TrainWorkspace};
use lipiz_tensor::{ops, ActKind, Matrix, Pool, Rng64};
use std::hint::black_box;
use std::time::Instant;

/// One measured entry.
struct Entry {
    group: &'static str,
    name: String,
    ns_per_op: f64,
    reps: usize,
}

/// How many timed batches per entry (the reported figure is the *minimum*
/// batch mean, which filters scheduler noise on shared hosts — a single
/// mean can be inflated 2× by a noisy neighbor on a one-core container).
const BATCHES: usize = 5;

/// ns per call of `f`: minimum over [`BATCHES`] batches of `reps` calls
/// each, after one warmup call.
fn time_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / reps as f64);
    }
    best
}

fn push(
    entries: &mut Vec<Entry>,
    group: &'static str,
    name: impl Into<String>,
    reps: usize,
    f: impl FnMut(),
) {
    let name = name.into();
    let ns = time_ns(reps, f);
    println!("bench {group}/{name:<40} {:>12.0} ns/op (best of {BATCHES}x{reps})", ns);
    entries.push(Entry { group, name, ns_per_op: ns, reps });
}

/// The three kernels training runs, called the way `Mlp` calls them: fused
/// forward with the Table I tanh epilogue, weight gradient into a flat
/// slice, input gradient against a flat weight view — outputs recycled
/// across calls.
fn kernel_benches(entries: &mut Vec<Entry>, reps: usize) {
    let mut rng = Rng64::seed_from(1);
    let pool = Pool::serial();
    // The three shapes of one Table I generator forward pass (batch 100).
    for &(m, k, n) in &[(100usize, 64usize, 256usize), (100, 256, 256), (100, 256, 784)] {
        let a = rng.uniform_matrix(m, k, -1.0, 1.0);
        let w = rng.uniform_matrix(k, n, -1.0, 1.0);
        let bias = vec![0.0f32; n];
        let mut out = Matrix::default();
        push(entries, "matmul_serial", format!("{m}x{k}x{n}"), reps, || {
            ops::matmul_bias_act_into(
                black_box(&a),
                black_box(w.as_slice()),
                n,
                &bias,
                ActKind::Tanh,
                &mut out,
                &pool,
            );
            black_box(out.as_slice());
        });
    }
    // Backprop shapes at the heaviest layer (256→784, batch 100).
    let x = rng.uniform_matrix(100, 256, -1.0, 1.0);
    let delta = rng.uniform_matrix(100, 784, -1.0, 1.0);
    let w = rng.uniform_matrix(256, 784, -1.0, 1.0);
    let mut dw = vec![0.0f32; 256 * 784];
    push(entries, "backprop_serial", "at_b_100x256x784", reps, || {
        ops::matmul_at_b_slice_into(black_box(&x), black_box(&delta), &mut dw, &pool);
        black_box(dw.as_slice());
    });
    let mut dx = Matrix::default();
    push(entries, "backprop_serial", "a_bt_100x784x256", reps, || {
        ops::matmul_a_bt_view_into(
            black_box(&delta),
            black_box(w.as_slice()),
            256,
            &mut dx,
            &pool,
        );
        black_box(dx.as_slice());
    });
}

/// Step-level benchmarks: one full generator / discriminator Adam step at
/// the paper's Table I shapes (batch 100), through the workspace-reusing
/// path the training loop actually runs (zero allocations in steady
/// state), plus the bare Adam update on paper-sized parameter vectors.
/// These shapes are identical in smoke and full mode (only the repetition
/// count differs) so `--check` can compare a smoke run against the
/// committed full-mode baseline.
fn train_step_benches(entries: &mut Vec<Entry>, reps: usize) {
    let cfg = NetworkConfig::paper_mnist();
    let batch = 100usize;
    let mut rng = Rng64::seed_from(3);
    let mut g = Generator::new(&cfg, &mut rng);
    let mut d = Discriminator::new(&cfg, &mut rng);
    let mut adam_g = Adam::new(g.net.param_count());
    let mut adam_d = Adam::new(d.net.param_count());
    let real = rng.uniform_matrix(batch, cfg.data_dim, -0.9, 0.9);
    let fake = rng.uniform_matrix(batch, cfg.data_dim, -0.9, 0.9);
    let z = gan::latent_batch(&mut rng, batch, cfg.latent_dim);
    let mut ws = TrainWorkspace::default();
    let pool = Pool::serial();

    push(entries, "train_step_serial", format!("generator_b{batch}"), reps, || {
        black_box(gan::train_generator_step_ws(
            &mut g,
            &d,
            &mut adam_g,
            black_box(&z),
            2e-4,
            GanLoss::Heuristic,
            &mut ws,
            &pool,
        ));
    });
    push(entries, "train_step_serial", format!("discriminator_b{batch}"), reps, || {
        black_box(gan::train_discriminator_step_ws(
            &mut d,
            &mut adam_d,
            black_box(&real),
            black_box(&fake),
            2e-4,
            &mut ws,
            &pool,
        ));
    });

    // Bare Adam update at both paper parameter widths (G: 64→256→256→784,
    // D: 784→256→256→1). The gradient is fixed; only the update is timed.
    for (name, n) in [
        ("generator_params", g.net.param_count()),
        ("discriminator_params", d.net.param_count()),
    ] {
        let mut net_rng = Rng64::seed_from(5);
        let mut net = if name.starts_with("gen") {
            Generator::new(&cfg, &mut net_rng).net
        } else {
            Discriminator::new(&cfg, &mut net_rng).net
        };
        let mut adam = Adam::new(n);
        let mut grads = Grads::zeros(n);
        for (i, v) in grads.as_mut_slice().iter_mut().enumerate() {
            *v = ((i % 17) as f32 - 8.0) * 1e-3;
        }
        push(entries, "adam_step", format!("{name}_{n}"), reps.max(4), || {
            adam.step(&mut net, black_box(&grads), 2e-4);
        });
    }
}

/// The update phase's scoring at Table I shapes (`eval_batch` 10, a
/// five-member sub-population): one discriminator's six 10-row forwards
/// (the real batch and five fake batches, as the per-block loop ran them)
/// against one forward over the same 60 rows stacked — the layout
/// `CellEngine` scores a generation in.
fn score_benches(entries: &mut Vec<Entry>, reps: usize) {
    let cfg = NetworkConfig::paper_mnist();
    let (batch, blocks) = (10usize, 6usize);
    let mut rng = Rng64::seed_from(4);
    let d = Discriminator::new(&cfg, &mut rng);
    let stacked = rng.uniform_matrix(blocks * batch, cfg.data_dim, -0.9, 0.9);
    let parts: Vec<Matrix> =
        (0..blocks).map(|b| stacked.slice_rows(b * batch, (b + 1) * batch)).collect();
    let (mut logits, mut scratch) = (Matrix::default(), Matrix::default());
    let pool = Pool::serial();
    push(entries, "score_serial", format!("disc_b{batch}x{blocks}"), reps, || {
        for part in &parts {
            d.logits_into(black_box(part), &mut logits, &mut scratch, &pool);
            black_box(logits.as_slice());
        }
    });
    push(entries, "score_serial", format!("disc_b{}", blocks * batch), reps, || {
        d.logits_into(black_box(&stacked), &mut logits, &mut scratch, &pool);
        black_box(logits.as_slice());
    });
}

fn communication_benches(entries: &mut Vec<Entry>, reps: usize, smoke: bool) {
    // Paper-scale generator genome unless smoking.
    let genome_len = if smoke { 2_840 } else { 283_920 };
    let snap = CellSnapshot {
        cell: 0,
        gen_genome: vec![0.5; genome_len],
        gen_lr: 2e-4,
        gen_loss: lipiz_nn::GanLoss::Heuristic,
        gen_fitness: 0.0,
        disc_genome: vec![-0.5; genome_len],
        disc_lr: 2e-4,
        disc_fitness: 0.0,
    };
    let mut scratch = Vec::new();
    push(entries, "snapshot", "encode_scratch_reuse", reps.max(10), || {
        scratch.clear();
        black_box(&snap).encode(&mut scratch);
        black_box(scratch.len());
    });

    // Generic Wire scratch reuse on a genome-sized payload.
    let genome = vec![0.25f32; genome_len];
    let mut wire_scratch = Vec::new();
    push(entries, "wire", "genome_to_bytes_into", reps.max(10), || {
        black_box(&genome).to_bytes_into(&mut wire_scratch);
        black_box(wire_scratch.len());
    });

    // The per-iteration LOCAL allgather at the paper's 3×3 grid size and
    // Table I snapshot size (generator 283,920 + discriminator 267,009
    // floats), timed *inside* a resident universe so thread spawn/join cost
    // stays out of the figure (the whole point is catching collective-path
    // regressions, not measuring `Universe::run` setup).
    let slaves = 9usize;
    let floats = if smoke { 284 } else { TABLE1_SNAPSHOT_FLOATS };
    let inner_reps = reps.max(4);
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let per_rank_ns = Universe::run(slaves, move |comm: Comm| {
            let genome = vec![comm.rank() as f32; floats];
            // Encode and decode stay inside the timed call, as in the rows
            // of this group the committed baseline holds.
            let allgather = || -> Vec<Vec<f32>> {
                let parts = comm.allgather_bytes(genome.to_bytes());
                parts.iter().map(|p| Vec::from_bytes(p).expect("genome decodes")).collect()
            };
            // Warmup round doubles as a barrier so every rank starts hot.
            black_box(allgather().len());
            let start = Instant::now();
            for _ in 0..inner_reps {
                black_box(allgather().len());
            }
            start.elapsed().as_nanos() as f64 / inner_reps as f64
        });
        best = best.min(per_rank_ns[0]);
    }
    let name = format!("slaves_{slaves}_floats_{floats}");
    println!("bench allgather/{name:<40} {best:>12.0} ns/op (best of {BATCHES}x{inner_reps})");
    entries.push(Entry { group: "allgather", name, ns_per_op: best, reps: inner_reps });
}

/// One Table I center snapshot in `f32`s: the generator's 283,920
/// parameters plus the discriminator's 267,009.
const TABLE1_SNAPSHOT_FLOATS: usize = 283_920 + 267_009;

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Groups whose workload depends on `--smoke` (payload sizes differ between
/// modes), so a smoke run cannot be compared against the committed
/// full-mode baseline.
const MODE_DEPENDENT_GROUPS: &[&str] = &["snapshot", "wire", "allgather"];

/// Regression gate: any baseline group slower by more than this factor
/// (geometric mean over matching entries) fails the check.
const CHECK_TOLERANCE: f64 = 1.5;

/// Minimal parser for the file this binary writes (the offline crate set
/// has no serde_json): extracts `(group, name, ns_per_op)` triples from the
/// `results` array.
fn parse_baseline(text: &str) -> Vec<(String, String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if !line.starts_with("{\"group\":") {
            continue;
        }
        let field = |key: &str| -> Option<&str> {
            let tag = format!("\"{key}\": ");
            let start = line.find(&tag)? + tag.len();
            let rest = &line[start..];
            if let Some(stripped) = rest.strip_prefix('"') {
                stripped.find('"').map(|end| &stripped[..end])
            } else {
                let end = rest.find([',', '}'])?;
                Some(&rest[..end])
            }
        };
        if let (Some(group), Some(name), Some(ns)) =
            (field("group"), field("name"), field("ns_per_op"))
        {
            if let Ok(ns) = ns.parse::<f64>() {
                out.push((group.to_string(), name.to_string(), ns));
            }
        }
    }
    out
}

/// Compare this run against a committed baseline: for every baseline group
/// with matching `(group, name)` entries and a mode-independent workload,
/// the geometric mean ratio `current / baseline` must stay under
/// [`CHECK_TOLERANCE`]. Returns the offending groups.
fn check_against_baseline(entries: &[Entry], baseline_path: &str) -> Vec<String> {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("reading baseline {baseline_path}: {e}"));
    let baseline = parse_baseline(&text);
    assert!(!baseline.is_empty(), "baseline {baseline_path} holds no entries");
    // group -> (sum of log ratios, count)
    let mut per_group: Vec<(String, f64, usize)> = Vec::new();
    let mut unmatched = 0usize;
    for (group, name, base_ns) in &baseline {
        if MODE_DEPENDENT_GROUPS.contains(&group.as_str()) || *base_ns <= 0.0 {
            continue;
        }
        let Some(cur) = entries.iter().find(|e| e.group == group.as_str() && &e.name == name)
        else {
            // A renamed or deleted entry silently dropping out of the gate
            // would be invisible coverage loss — surface it loudly.
            println!("check WARNING: baseline entry {group}/{name} has no match in this run");
            unmatched += 1;
            continue;
        };
        let ratio = cur.ns_per_op / base_ns;
        match per_group.iter_mut().find(|(g, _, _)| g == group) {
            Some((_, sum, n)) => {
                *sum += ratio.ln();
                *n += 1;
            }
            None => per_group.push((group.clone(), ratio.ln(), 1)),
        }
    }
    let mut offenders = Vec::new();
    for (group, log_sum, n) in per_group {
        let geomean = (log_sum / n as f64).exp();
        let verdict = if geomean > CHECK_TOLERANCE { "REGRESSED" } else { "ok" };
        println!("check {group:<28} {geomean:>6.2}x vs baseline ({n} entries) {verdict}");
        if geomean > CHECK_TOLERANCE {
            offenders.push(format!("{group} ({geomean:.2}x)"));
        }
    }
    if unmatched > 0 {
        offenders.push(format!(
            "{unmatched} baseline entr{} without a match — regenerate BENCH_kernels.json",
            if unmatched == 1 { "y" } else { "ies" }
        ));
    }
    offenders
}

fn write_json(path: &str, entries: &[Entry], smoke: bool) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"lipiz-bench-kernels/v1\",\n");
    out.push_str(&format!("  \"mode\": \"{}\",\n", if smoke { "smoke" } else { "full" }));
    out.push_str(&format!("  \"host_cores\": {cores},\n"));
    out.push_str("  \"results\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"group\": \"{}\", \"name\": \"{}\", \"ns_per_op\": {:.1}, \"reps\": {}}}{}\n",
            json_escape(e.group),
            json_escape(&e.name),
            e.ns_per_op,
            e.reps,
            if i + 1 == entries.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).expect("write bench json");
    println!("wrote {path} ({} entries)", entries.len());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let check_path =
        args.iter().position(|a| a == "--check").and_then(|i| args.get(i + 1)).cloned();
    let reps = if smoke { 2 } else { 8 };

    let mut entries = Vec::new();
    kernel_benches(&mut entries, reps);
    train_step_benches(&mut entries, reps);
    score_benches(&mut entries, reps);
    communication_benches(&mut entries, reps, smoke);
    write_json(&out_path, &entries, smoke);

    if let Some(baseline) = check_path {
        let offenders = check_against_baseline(&entries, &baseline);
        if !offenders.is_empty() {
            eprintln!(
                "kernel regression vs {baseline}: {} (tolerance {CHECK_TOLERANCE}x)",
                offenders.join(", ")
            );
            std::process::exit(1);
        }
        println!("check passed: no group regressed more than {CHECK_TOLERANCE}x vs {baseline}");
    }
}
