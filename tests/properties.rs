//! Property-based tests (proptest) over the workspace's core data
//! structures and invariants.

mod common;

use lipizzaner::core::{
    AdversaryStrategy, CellEngine, CellSnapshot, CellState, EncodedSnapshot, ExchangeMode,
    GenomeLens, Grid, Individual, LossMode, MixtureWeights, NeighborhoodPattern, Pipeline,
    SnapshotRef, SubPopulation, TrainConfig,
};
use lipizzaner::data::BatchLoaderState;
use lipizzaner::mpi::comm::Fabric;
use lipizzaner::mpi::wire::Wire;
use lipizzaner::mpi::{FaultPlan, Payload, Universe};
use lipizzaner::nn::{Activation, AdamState, GanLoss, Mlp};
use lipizzaner::runtime::{checkpoint, CommManager};
use lipizzaner::telemetry::Telemetry;
use lipizzaner::tensor::{ops, reduce, Matrix, Pool, Rng64, Rng64State};
use proptest::prelude::*;

fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- tensor algebra ---------------------------------------------------

    #[test]
    fn transpose_is_involutive(m in matrix_strategy(12)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_distributes_over_addition(
        seed in 0u64..1000,
        (m, k, n) in (1usize..6, 1usize..6, 1usize..6)
    ) {
        let mut rng = Rng64::seed_from(seed);
        let a = rng.uniform_matrix(m, k, -2.0, 2.0);
        let b = rng.uniform_matrix(k, n, -2.0, 2.0);
        let c = rng.uniform_matrix(k, n, -2.0, 2.0);
        // A(B + C) == AB + AC up to f32 rounding.
        let add = |x: &Matrix, y: &Matrix| {
            let sum = x.as_slice().iter().zip(y.as_slice()).map(|(p, q)| p + q).collect();
            Matrix::from_vec(x.rows(), x.cols(), sum).unwrap()
        };
        let lhs = ops::matmul(&a, &add(&b, &c));
        let rhs = add(&ops::matmul(&a, &b), &ops::matmul(&a, &c));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-3);
    }

    #[test]
    fn transposed_products_are_consistent(seed in 0u64..1000) {
        let mut rng = Rng64::seed_from(seed);
        let a = rng.uniform_matrix(4, 6, -1.0, 1.0);
        let b = rng.uniform_matrix(4, 5, -1.0, 1.0);
        let mut fast = vec![0.0f32; 6 * 5];
        ops::matmul_at_b_slice_into(&a, &b, &mut fast, &Pool::serial());
        let fast = Matrix::from_vec(6, 5, fast).unwrap();
        let slow = ops::matmul(&a.transpose(), &b);
        prop_assert!(fast.max_abs_diff(&slow) < 1e-4);
    }

    #[test]
    fn row_argmax_points_at_max(m in matrix_strategy(10)) {
        for (r, &idx) in reduce::row_argmax(&m).iter().enumerate() {
            let row = m.row(r);
            for &v in row {
                prop_assert!(row[idx] >= v);
            }
        }
    }

    // ---- wire codec ---------------------------------------------------------

    #[test]
    fn f32_vecs_roundtrip(v in proptest::collection::vec(any::<f32>(), 0..256)) {
        let bytes = v.to_bytes();
        let back = Vec::<f32>::from_bytes(&bytes).unwrap();
        prop_assert_eq!(v.len(), back.len());
        for (a, b) in v.iter().zip(&back) {
            prop_assert!(a.to_bits() == b.to_bits());
        }

        // The same floats as a snapshot's genomes: importing straight from
        // the wire bytes fills import slots bit for bit as importing the
        // decoded snapshot does — NaN payloads, −0.0 and subnormals among
        // the floats, and an odd-length discriminator genome.
        let specials = [0x7FC0_0001u32, 0xFFC0_1234, 0x8000_0000, 1, 0x807F_FFFF];
        let gen: Vec<f32> = specials.map(f32::from_bits).iter().chain(&v).copied().collect();
        let disc: Vec<f32> = gen.iter().rev().take(v.len() | 1).copied().collect();
        let snap = CellSnapshot {
            cell: v.len(),
            gen_genome: gen,
            gen_lr: f32::from_bits(0x7FA0_0003),
            gen_loss: GanLoss::LeastSquares,
            gen_fitness: -0.0,
            disc_genome: disc,
            disc_lr: f32::from_bits(1),
            disc_fitness: f64::from_bits(0x7FF0_0000_0000_0009),
        };
        let wire = EncodedSnapshot::parse(Payload::from(snap.to_bytes())).unwrap();
        let decoded = CellSnapshot::from_bytes(wire.payload()).unwrap();
        let import = |view: SnapshotRef<'_>| {
            let center = Individual::new(vec![9.0; 3], 1e-3, GanLoss::Heuristic);
            let mut pop = SubPopulation::bootstrap(center, 2);
            pop.assign_import(1, view.gen_genome, view.gen_lr, view.gen_loss, view.gen_fitness);
            pop.assign_import(2, view.disc_genome, view.disc_lr, GanLoss::Minimax, view.disc_fitness);
            pop.members()
                .iter()
                .map(|m| {
                    let genome: Vec<u32> = m.genome.iter().map(|f| f.to_bits()).collect();
                    (genome, m.lr.to_bits(), m.loss, m.fitness.to_bits())
                })
                .collect::<Vec<_>>()
        };
        let from_wire = import(wire.view());
        prop_assert_eq!(&from_wire, &import(SnapshotRef::from(&decoded)));
        prop_assert_eq!(&from_wire, &import(SnapshotRef::from(&snap)));
    }

    #[test]
    fn strings_roundtrip(s in ".{0,64}") {
        let bytes = s.to_string().to_bytes();
        prop_assert_eq!(String::from_bytes(&bytes).unwrap(), s);
    }

    #[test]
    fn nested_options_roundtrip(v in proptest::option::of(proptest::option::of(any::<u32>()))) {
        let bytes = v.to_bytes();
        prop_assert_eq!(Option::<Option<u32>>::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn truncation_never_panics(
        v in proptest::collection::vec(any::<u8>(), 0..64),
        cut in 0usize..64
    ) {
        let bytes = vec![v.clone()].to_bytes();
        let cut = cut.min(bytes.len());
        // Must return Err or Ok, never panic.
        let _ = Vec::<Vec<u8>>::from_bytes(&bytes[..cut]);
    }

    // ---- grid topology ------------------------------------------------------

    #[test]
    fn neighbor_relation_is_symmetric_on_cross5(
        rows in 1usize..6,
        cols in 1usize..6
    ) {
        let g = Grid::new(rows, cols, NeighborhoodPattern::Cross5);
        for cell in 0..g.cell_count() {
            for n in g.neighbors(cell) {
                prop_assert!(
                    g.neighbors(n).contains(&cell),
                    "cell {} -> {} not symmetric", cell, n
                );
            }
        }
    }

    #[test]
    fn every_neighbor_is_in_overlap_set(rows in 1usize..5, cols in 1usize..5) {
        let g = Grid::new(rows, cols, NeighborhoodPattern::Cross5);
        for cell in 0..g.cell_count() {
            let overlaps = g.overlapping(cell);
            for n in g.neighbors(cell) {
                prop_assert!(overlaps.contains(&n));
            }
        }
    }

    #[test]
    fn coords_index_roundtrip(rows in 1usize..8, cols in 1usize..8) {
        let g = Grid::new(rows, cols, NeighborhoodPattern::Cross5);
        for cell in 0..g.cell_count() {
            let (r, c) = g.coords(cell);
            prop_assert_eq!(g.index(r as isize, c as isize), cell);
        }
    }

    // ---- mixture weights ----------------------------------------------------

    #[test]
    fn mixture_from_raw_is_normalized(
        raw in proptest::collection::vec(-5.0f32..5.0, 1..10)
    ) {
        let w = MixtureWeights::from_raw(&raw);
        let sum: f32 = w.weights().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(w.weights().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn mixture_mutation_preserves_normalization(
        n in 1usize..8,
        seed in 0u64..500,
        sigma in 0.001f32..0.2
    ) {
        let mut rng = Rng64::seed_from(seed);
        let w = MixtureWeights::uniform(n);
        let m = w.mutate(sigma, &mut rng);
        let sum: f32 = m.weights().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
    }

    #[test]
    fn sampled_components_are_in_range(n in 1usize..8, seed in 0u64..500) {
        let mut rng = Rng64::seed_from(seed);
        let w = MixtureWeights::uniform(n);
        for _ in 0..32 {
            prop_assert!(w.sample_component(&mut rng) < n);
        }
    }

    // ---- network genome -----------------------------------------------------

    #[test]
    fn genome_roundtrip_preserves_network_output(seed in 0u64..500) {
        let mut rng = Rng64::seed_from(seed);
        let net = Mlp::from_dims(&[3, 6, 2], Activation::Tanh, Activation::Identity, &mut rng);
        let x = rng.uniform_matrix(4, 3, -1.0, 1.0);
        let forward = |net: &Mlp| {
            let (mut out, mut scratch) = (Matrix::default(), Matrix::default());
            net.forward_into(&x, &mut out, &mut scratch, &Pool::serial());
            out
        };
        let y = forward(&net);
        let genome = net.genome();
        let mut other =
            Mlp::from_dims(&[3, 6, 2], Activation::Tanh, Activation::Identity, &mut rng);
        other.load_genome(genome);
        prop_assert!(forward(&other).max_abs_diff(&y) < 1e-7);
    }

    #[test]
    fn generator_outputs_stay_in_tanh_range(seed in 0u64..200) {
        let mut rng = Rng64::seed_from(seed);
        let cfg = lipizzaner::nn::NetworkConfig::tiny(12);
        let g = lipizzaner::nn::Generator::new(&cfg, &mut rng);
        let samples = g.sample(8, &mut rng);
        prop_assert!(samples.as_slice().iter().all(|v| v.abs() <= 1.0));
    }

    // ---- checkpoint codec ----------------------------------------------------

    #[test]
    fn checkpoint_encoding_round_trips_arbitrary_states_bit_exactly(
        seed in 0u64..2000,
        pop in 1usize..7,
        gen_len in 1usize..40,
        disc_len in 1usize..40,
        order_len in 1usize..30,
    ) {
        let state = arb_cell_state(seed, pop, gen_len, disc_len, order_len);
        let wire = state.to_bytes();
        let back = CellState::from_bytes(&wire).expect("decode");
        // Bit-exact: every float compared through its raw bits, every frame
        // slot through its bytes.
        prop_assert_eq!(state_bits(&back), state_bits(&state));
        prop_assert_eq!(back.to_bytes(), wire);
        prop_assert_eq!(back, state);
    }

    #[test]
    fn config_encoding_round_trips_every_variant_and_optional(
        (rows, cols, k) in (1usize..9, 1usize..9, any::<usize>()),
        (lr, probability, data_seed, seed) in (any::<f32>(), 0.0f64..1.0, any::<u64>(), any::<u64>()),
        (dir, pause_after) in (proptest::option::of(".{0,24}"), proptest::option::of(any::<usize>())),
        (plan, telemetry_dir) in (proptest::option::of(".{0,24}"), proptest::option::of(".{0,24}")),
        (shard_data, telemetry_on) in (any::<bool>(), any::<bool>()),
    ) {
        let mut cfg = TrainConfig::smoke(2);
        cfg.grid.rows = rows;
        cfg.grid.cols = cols;
        // NaN never equals itself; every other bit pattern must survive.
        cfg.mutation.initial_lr = if lr.is_nan() { 0.0 } else { lr };
        cfg.mutation.probability = probability;
        cfg.training.data_seed = data_seed;
        cfg.training.shard_data = shard_data;
        cfg.checkpoint.dir = dir;
        cfg.checkpoint.pause_after = pause_after;
        cfg.fault.plan = plan;
        cfg.telemetry.enabled = telemetry_on;
        cfg.telemetry.dir = telemetry_dir;
        cfg.seed = seed;
        let patterns =
            [NeighborhoodPattern::Cross5, NeighborhoodPattern::Moore9, NeighborhoodPattern::Isolated];
        let adversaries = [AdversaryStrategy::Tournament(k), AdversaryStrategy::All];
        let losses = GanLoss::ALL.map(LossMode::Fixed).into_iter().chain([LossMode::Mutate]);
        let len = cfg.to_bytes().len();
        for loss_mode in losses {
            for pattern in patterns {
                for adversary in adversaries {
                    for exchange in [ExchangeMode::Sync, ExchangeMode::Async] {
                        cfg.mutation.loss_mode = loss_mode;
                        cfg.grid.pattern = pattern;
                        cfg.coevolution.adversary = adversary;
                        cfg.exchange = exchange;
                        let wire = cfg.to_bytes();
                        prop_assert_eq!(&TrainConfig::from_bytes(&wire).expect("decode"), &cfg);
                        // The variant never changes the encoded length.
                        prop_assert_eq!(wire.len(), len);
                    }
                }
            }
        }
    }

    #[test]
    fn corrupted_checkpoint_files_fail_loudly_never_partially(
        seed in 0u64..500,
        cut in 1usize..512,
        flip_pos in 0usize..512,
        flip_mask in 1u8..=255,
    ) {
        let cfg = TrainConfig::smoke(2);
        let dir = std::env::temp_dir().join("lipiz_properties_ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let engine = lipizzaner::core::CellEngine::new(0, &cfg, {
            let mut rng = Rng64::seed_from(cfg.training.data_seed);
            rng.uniform_matrix(cfg.training.dataset_size, cfg.network.data_dim, -0.9, 0.9)
        });
        let state = engine.capture_state();
        let path = checkpoint::write_cell_state(&dir, &state).expect("write");
        let original = std::fs::read(&path).unwrap();
        // The intact file reads back exactly (control).
        prop_assert_eq!(&checkpoint::read_cell_state(&path, &cfg).expect("control read"), &state);

        // Truncation at any point must fail with a typed error.
        let cut = cut.min(original.len() - 1);
        let truncated = dir.join(format!("trunc_{seed}.ckpt"));
        std::fs::write(&truncated, &original[..cut]).unwrap();
        prop_assert!(checkpoint::read_cell_state(&truncated, &cfg).is_err());

        // Any single-byte corruption must fail — never a partial restore.
        let mut flipped = original.clone();
        let pos = flip_pos % flipped.len();
        flipped[pos] ^= flip_mask;
        let corrupt = dir.join(format!("corrupt_{seed}.ckpt"));
        std::fs::write(&corrupt, &flipped).unwrap();
        match checkpoint::read_cell_state(&corrupt, &cfg) {
            Err(_) => {}
            Ok(back) => {
                // The flip landed somewhere the frame does not cover only
                // if it decoded to the *identical* state — anything else is
                // a partial restore.
                prop_assert_eq!(back, state.clone(), "corruption restored a different state");
                prop_assert!(false, "a flipped byte must never read back cleanly");
            }
        }
    }
}

proptest! {
    // Every case trains four small grids twice, real rank threads and all.
    #![proptest_config(ProptestConfig::with_cases(16))]

    // ---- the snapshot exchange ------------------------------------------------

    #[test]
    fn async_pipeline_is_invariant_to_exchange_jitter(
        delays in proptest::collection::vec(
            (1usize..=9, 1usize..=9, 1u64..12),
            0..5,
        ),
        iters in 2usize..5,
    ) {
        // The exchange the runtime ships — `CommManager::exchange` under
        // `Pipeline::step`, sync and async, on a 2×2 and a 3×3 grid — with
        // scripted per-link delivery delays (the `delay:` fault grammar end
        // to end, on the slave-to-slave links the snapshots travel): delays
        // move *when* a generation lands in a reader's mailbox, and so how
        // long its `complete` waits, but never *what* any iteration
        // consumes, so every rank's engine ends byte-identical to the
        // undelayed run.
        for (m, mode) in [
            (2, ExchangeMode::Sync),
            (2, ExchangeMode::Async),
            (3, ExchangeMode::Sync),
            (3, ExchangeMode::Async),
        ] {
            let mut cfg = TrainConfig::smoke(m).with_exchange(mode);
            cfg.coevolution.iterations = iters;
            let slaves = cfg.cells();
            let plan: String = delays
                .iter()
                .filter(|&&(src, dst, _)| src != dst && src <= slaves && dst <= slaves)
                .map(|(src, dst, ms)| format!("delay:{src}>{dst}:*@0:{ms}"))
                .collect::<Vec<_>>()
                .join(";");
            let reference = exchanged_engines(&cfg, Fabric::new(slaves + 1));
            let jittered = exchanged_engines(
                &cfg,
                Fabric::with_faults(slaves + 1, FaultPlan::parse(&plan).expect("delay plan")),
            );
            prop_assert_eq!(jittered, reference, "{}x{} {:?}", m, m, mode);
        }
    }
}

/// Run `cfg` on every slave rank of `fabric` (world rank 0, the master, sits
/// out) as the runtime does — one engine per rank, a [`Pipeline`] stepping
/// it over the rank's `CommExchange` — and return each rank's captured
/// engine state, encoded.
fn exchanged_engines(cfg: &TrainConfig, fabric: std::sync::Arc<Fabric>) -> Vec<Vec<u8>> {
    let data = common::toy_data(cfg);
    let ranks = Universe::run_on(fabric, |world| {
        let cm = CommManager::new(world);
        if cm.is_master() {
            return None;
        }
        let engine = CellEngine::new(cm.local_rank(), cfg, data.clone());
        let mut pipeline = Pipeline::new(cfg, vec![engine], Telemetry::disabled());
        let lens = GenomeLens::of(cfg);
        let mut exchange = cm.exchange(None, pipeline.read_set(), lens);
        for _ in 0..cfg.coevolution.iterations {
            pipeline.step(&mut exchange);
        }
        Some(pipeline.engines_mut()[0].capture_state().to_bytes())
    });
    ranks.into_iter().flatten().collect()
}

#[test]
fn every_truncation_of_a_state_or_a_config_is_refused() {
    let state = arb_cell_state(11, 2, 5, 3, 4);
    let wire = state.to_bytes();
    for cut in 0..wire.len() {
        assert!(CellState::from_bytes(&wire[..cut]).is_err(), "state cut at {cut}");
    }
    let cfg = TrainConfig::smoke(2)
        .with_checkpoints("ck", 2)
        .with_pause_after(3)
        .with_fault_plan("kill:3@2", 1)
        .with_telemetry("tel", 64);
    let wire = cfg.to_bytes();
    for cut in 0..wire.len() {
        assert!(TrainConfig::from_bytes(&wire[..cut]).is_err(), "config cut at {cut}");
    }
}

/// Deterministically build a structurally arbitrary [`CellState`] (sizes
/// from proptest, contents from a seeded stream, including extreme float
/// bit patterns — everything except NaN, which has no `==`).
fn arb_cell_state(
    seed: u64,
    pop: usize,
    gen_len: usize,
    disc_len: usize,
    order_len: usize,
) -> CellState {
    let mut rng = Rng64::seed_from(seed);
    let f32_bits = |rng: &mut Rng64| -> f32 {
        let v = f32::from_bits(rng.next_u64() as u32);
        if v.is_nan() {
            f32::MIN_POSITIVE
        } else {
            v
        }
    };
    let member = |rng: &mut Rng64, len: usize| Individual {
        genome: (0..len).map(|_| f32_bits(rng)).collect(),
        lr: f32_bits(rng),
        loss: GanLoss::ALL[rng.below(GanLoss::ALL.len())],
        fitness: if rng.chance(0.1) { f64::INFINITY } else { rng.unit_f64() * 1e9 - 5e8 },
    };
    let adam = |rng: &mut Rng64, len: usize| AdamState {
        m: (0..len).map(|_| f32_bits(rng)).collect(),
        v: (0..len).map(|_| f32_bits(rng)).collect(),
        t: rng.next_u64(),
        beta1: f32_bits(rng),
        beta2: f32_bits(rng),
        eps: f32_bits(rng),
    };
    let rng_state = |rng: &mut Rng64| Rng64State {
        words: [rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()],
        spare_gauss: if rng.chance(0.5) { Some(rng.unit_f64() * 8.0 - 4.0) } else { None },
    };
    CellState {
        cell: rng.below(1024),
        iteration: rng.below(1 << 20),
        batch_counter: rng.next_u64(),
        gen_members: (0..pop).map(|_| member(&mut rng, gen_len)).collect(),
        disc_members: (0..pop).map(|_| member(&mut rng, disc_len)).collect(),
        mixture: (0..pop).map(|_| f32_bits(&mut rng)).collect(),
        adam_g: adam(&mut rng, gen_len),
        adam_d: adam(&mut rng, disc_len),
        rng_mutate: rng_state(&mut rng),
        rng_train: rng_state(&mut rng),
        rng_mixture: rng_state(&mut rng),
        loader: BatchLoaderState {
            order: (0..order_len).map(|_| rng.below(1 << 24)).collect(),
            cursor: rng.below(order_len + 1),
            epoch: rng.next_u64(),
            rng: rng_state(&mut rng),
        },
        // Half the states carry an async exchange frame of handles, so the
        // frame codec sees both shapes: slots the cell reads, slots it does
        // not (`None`), and — last in every frame — an unread slot that is
        // not the empty snapshot's encoding, which must stay held.
        exchange_frame: if rng.chance(0.5) {
            let snapshot = |rng: &mut Rng64, gen_len: usize, disc_len: usize| {
                let snap = CellSnapshot {
                    cell: 1 + rng.below(1023),
                    gen_genome: (0..gen_len).map(|_| f32_bits(rng)).collect(),
                    gen_lr: f32_bits(rng),
                    gen_loss: GanLoss::ALL[rng.below(GanLoss::ALL.len())],
                    gen_fitness: rng.unit_f64() * 1e9 - 5e8,
                    disc_genome: (0..disc_len).map(|_| f32_bits(rng)).collect(),
                    disc_lr: f32_bits(rng),
                    disc_fitness: rng.unit_f64() * 1e9 - 5e8,
                };
                Some(EncodedSnapshot::new((&snap).into()))
            };
            let mut frame: Vec<_> = (0..pop)
                .map(|_| match rng.below(2) {
                    0 => None,
                    _ => snapshot(&mut rng, gen_len, disc_len),
                })
                .collect();
            frame.push(snapshot(&mut rng, 0, 0));
            frame
        } else {
            Vec::new()
        },
    }
}

/// Every float in a state as raw bits (so `-0.0` vs `0.0` and subnormal
/// drift are caught).
fn state_bits(s: &CellState) -> Vec<u64> {
    let mut bits = Vec::new();
    let member = |m: &Individual, bits: &mut Vec<u64>| {
        bits.extend(m.genome.iter().map(|v| v.to_bits() as u64));
        bits.push(m.lr.to_bits() as u64);
        bits.push(m.fitness.to_bits());
    };
    for m in s.gen_members.iter().chain(&s.disc_members) {
        member(m, &mut bits);
    }
    bits.extend(s.mixture.iter().map(|v| v.to_bits() as u64));
    for a in [&s.adam_g, &s.adam_d] {
        bits.extend(a.m.iter().map(|v| v.to_bits() as u64));
        bits.extend(a.v.iter().map(|v| v.to_bits() as u64));
        bits.push(a.beta1.to_bits() as u64);
        bits.push(a.beta2.to_bits() as u64);
        bits.push(a.eps.to_bits() as u64);
    }
    for r in [&s.rng_mutate, &s.rng_train, &s.rng_mixture, &s.loader.rng] {
        bits.extend(r.words);
        bits.push(r.spare_gauss.map_or(0, f64::to_bits));
    }
    for slot in &s.exchange_frame {
        match slot {
            Some(snap) => bits.extend(snap.payload().iter().map(|&b| u64::from(b))),
            None => bits.push(u64::MAX),
        }
    }
    bits
}
