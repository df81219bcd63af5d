//! The per-cell training engine — the four-phase iteration every driver
//! executes (gather → mutate → train → update genomes).

use crate::config::{AdversaryStrategy, LossMode, TrainConfig};
use crate::individual::{Individual, SubPopulation};
use crate::mixture::{EnsembleModel, MixtureWeights};
use crate::pipeline::FrameSlot;
use crate::profiling::Routine;
use crate::resume::CellState;
use crate::snapshot::{CellSnapshot, EncodedSnapshot, Genome, SnapshotRef};
use crate::topology::Grid;
use lipiz_data::BatchLoader;
use lipiz_nn::{gan, loss, Adam, GanLoss, MlpShape, NetworkConfig, TrainWorkspace};
use lipiz_telemetry::Telemetry;
use lipiz_tensor::{Matrix, Pool, Rng64};
use std::sync::Arc;
use std::time::Duration;

/// One grid cell's complete training state.
///
/// The engine is deterministic: given the same [`TrainConfig`], cell index,
/// dataset and per-iteration neighbor snapshots, it produces bit-identical
/// genomes. The sequential baseline, the threaded distributed runtime and
/// the virtual-time cluster simulator all drive this same struct — the
/// integration suite asserts their outputs are equal.
///
/// It holds each genome once: the two networks are shapes, and every
/// member of both sub-populations is trained (the centers) and scored (all
/// of them) in the slot it lives in. The dataset is shared with any other
/// engine built over the same `Arc`, and the per-iteration buffers are a
/// [`CellScratch`] the caller lends to [`CellEngine::run_iteration`].
pub struct CellEngine {
    cell_index: usize,
    /// [`CellEngine::neighbor_slots`], computed once.
    neighbors: Vec<usize>,
    cfg: TrainConfig,
    net_cfg: NetworkConfig,
    gen_shape: MlpShape,
    disc_shape: MlpShape,
    gen_pop: SubPopulation,
    disc_pop: SubPopulation,
    adam_g: Adam,
    adam_d: Adam,
    mixture: MixtureWeights,
    loader: BatchLoader,
    rng_mutate: Rng64,
    rng_train: Rng64,
    rng_mixture: Rng64,
    batch_counter: u64,
    iteration: usize,
}

/// Every recycled buffer of one cell iteration. None of it carries state
/// from one iteration to the next, so a rank owns one and lends it to each
/// of its engines in turn; once it has warmed up to the rank's shapes, a
/// steady-state iteration performs zero heap allocations — asserted by the
/// counting-allocator integration test.
#[derive(Debug)]
pub struct CellScratch {
    /// Reusable step workspace (forward caches, loss gradients, delta
    /// ping-pong, gradient accumulators).
    ws: TrainWorkspace,
    /// Latent batches (training and evaluation sizes share the buffer).
    z: Matrix,
    /// Generated fakes: a discriminator step's batch, and each member's
    /// update-phase batch on its way into `stacked`.
    fake: Matrix,
    /// Current real mini-batch.
    real: Matrix,
    /// Forward-pass ping-pong scratch for `forward_into`.
    fwd: Matrix,
    /// The update phase's scoring input, `eval_batch` rows per block: the
    /// real evaluation batch in block 0, member i's fake batch in block
    /// i + 1.
    stacked: Matrix,
    /// Logits of `stacked` under one discriminator / of the blended batch.
    logits: Matrix,
    /// Mixture-ES blended evaluation batch.
    blended: Matrix,
    /// Per-member fitness accumulators.
    g_fit: Vec<f64>,
    d_fit: Vec<f64>,
    /// Tournament draw buffer.
    tourney: Vec<usize>,
    /// Mixture-ES candidate buffer (resized by every mutation).
    mixture: MixtureWeights,
}

impl Default for CellScratch {
    /// Empty scratch; every buffer sizes itself on first use.
    fn default() -> Self {
        Self {
            ws: TrainWorkspace::default(),
            z: Matrix::default(),
            fake: Matrix::default(),
            real: Matrix::default(),
            fwd: Matrix::default(),
            stacked: Matrix::default(),
            logits: Matrix::default(),
            blended: Matrix::default(),
            g_fit: Vec::new(),
            d_fit: Vec::new(),
            tourney: Vec::new(),
            mixture: MixtureWeights::uniform(1),
        }
    }
}

impl CellEngine {
    /// Build the engine for grid cell `cell_index` over its local dataset
    /// (row-per-sample, values in `[-1, 1]`): an owned matrix, or one
    /// shared with the other engines of the rank.
    ///
    /// # Panics
    /// Panics if the dataset width does not match the configured data
    /// dimension, or the dataset is smaller than the eval batch.
    pub fn new(cell_index: usize, cfg: &TrainConfig, data: impl Into<Arc<Matrix>>) -> Self {
        let data = data.into();
        let net_cfg = check_data(cfg, &data);
        let mut root = Rng64::seed_from(cfg.cell_seed(cell_index));
        let mut rng_init = root.derive(0);
        let rng_mutate = root.derive(1);
        let rng_train = root.derive(2);
        let rng_mixture = root.derive(3);
        let loader_seed_rng = root.derive(4);

        let (gen_shape, disc_shape) =
            (net_cfg.generator_shape(), net_cfg.discriminator_shape());
        let gen_genome = gen_shape.glorot_genome(&mut rng_init);
        let disc_genome = disc_shape.glorot_genome(&mut rng_init);
        let adam_g = Adam::new(gen_shape.param_count());
        let adam_d = Adam::new(disc_shape.param_count());

        let initial_loss = match cfg.mutation.loss_mode {
            LossMode::Fixed(l) => l,
            LossMode::Mutate => GanLoss::Heuristic,
        };
        let imports = cfg.subpopulation_size() - 1;
        let gen_center = Individual::new(gen_genome, cfg.mutation.initial_lr, initial_loss);
        let disc_center =
            Individual::new(disc_genome, cfg.mutation.initial_lr, GanLoss::Heuristic);
        let gen_pop = SubPopulation::bootstrap(gen_center, imports);
        let disc_pop = SubPopulation::bootstrap(disc_center, imports);
        let mixture = MixtureWeights::uniform(gen_pop.len());

        let mut loader_seed = loader_seed_rng;
        let loader = BatchLoader::new(data, cfg.training.batch_size, loader_seed.next_u64());

        Self {
            cell_index,
            neighbors: Grid::from_config(&cfg.grid).neighbors(cell_index),
            cfg: cfg.clone(),
            net_cfg,
            gen_shape,
            disc_shape,
            gen_pop,
            disc_pop,
            adam_g,
            adam_d,
            mixture,
            loader,
            rng_mutate,
            rng_train,
            rng_mixture,
            batch_counter: 0,
            iteration: 0,
        }
    }

    /// Rebuild an engine from a captured [`CellState`] — the
    /// checkpoint-restore path. The dataset is supplied exactly as in
    /// [`CellEngine::new`] (every rank re-derives it from the config);
    /// everything else comes from the state. A restored engine continues
    /// the run bit-identically to the engine the state was captured from.
    ///
    /// # Panics
    /// Panics if the state fails [`CellState::validate`] against `cfg`, or
    /// the dataset shape disagrees with the configuration — a corrupt or
    /// mismatched checkpoint must never restore partially.
    pub fn from_state(
        cfg: &TrainConfig,
        data: impl Into<Arc<Matrix>>,
        state: &CellState,
    ) -> Self {
        state.validate(cfg).expect("cell state validates against config");
        let data = data.into();
        let net_cfg = check_data(cfg, &data);
        let loader =
            BatchLoader::from_state(data, cfg.training.batch_size, state.loader.clone());

        Self {
            cell_index: state.cell,
            neighbors: Grid::from_config(&cfg.grid).neighbors(state.cell),
            cfg: cfg.clone(),
            net_cfg,
            gen_shape: net_cfg.generator_shape(),
            disc_shape: net_cfg.discriminator_shape(),
            gen_pop: SubPopulation::from_members(state.gen_members.clone()),
            disc_pop: SubPopulation::from_members(state.disc_members.clone()),
            adam_g: Adam::from_state(state.adam_g.clone()),
            adam_d: Adam::from_state(state.adam_d.clone()),
            mixture: MixtureWeights::from_normalized(&state.mixture),
            loader,
            rng_mutate: Rng64::from_state(state.rng_mutate),
            rng_train: Rng64::from_state(state.rng_train),
            rng_mixture: Rng64::from_state(state.rng_mixture),
            batch_counter: state.batch_counter,
            iteration: state.iteration,
        }
    }

    /// Capture the engine's complete training state (see [`CellState`]).
    /// Meant to be called at an iteration boundary.
    pub fn capture_state(&self) -> CellState {
        CellState {
            cell: self.cell_index,
            iteration: self.iteration,
            batch_counter: self.batch_counter,
            gen_members: self.gen_pop.members().to_vec(),
            disc_members: self.disc_pop.members().to_vec(),
            mixture: self.mixture.weights().to_vec(),
            adam_g: self.adam_g.state(),
            adam_d: self.adam_d.state(),
            rng_mutate: self.rng_mutate.state(),
            rng_train: self.rng_train.state(),
            rng_mixture: self.rng_mixture.state(),
            loader: self.loader.state(),
            exchange_frame: Vec::new(),
        }
    }

    /// Capture into an existing [`CellState`], reusing its buffers — the
    /// double-buffered fast path of the async checkpoint writer: the
    /// training thread swaps between two recycled states, so steady-state
    /// capture performs no genome-sized allocations.
    ///
    /// `state.exchange_frame` belongs to the driver, not the engine: the
    /// caller fills (or clears) it after capture, because only the driver
    /// knows which gathered frame the next iteration will consume.
    pub fn capture_state_into(&self, state: &mut CellState) {
        state.cell = self.cell_index;
        state.iteration = self.iteration;
        state.batch_counter = self.batch_counter;
        clone_members_into(self.gen_pop.members(), &mut state.gen_members);
        clone_members_into(self.disc_pop.members(), &mut state.disc_members);
        state.mixture.clear();
        state.mixture.extend_from_slice(self.mixture.weights());
        self.adam_g.state_into(&mut state.adam_g);
        self.adam_d.state_into(&mut state.adam_d);
        state.rng_mutate = self.rng_mutate.state();
        state.rng_train = self.rng_train.state();
        state.rng_mixture = self.rng_mixture.state();
        self.loader.state_into(&mut state.loader);
    }

    /// This cell's flat grid index.
    pub fn cell_index(&self) -> usize {
        self.cell_index
    }

    /// The dataset this cell trains on — shared with every engine built
    /// over the same `Arc`.
    pub fn dataset(&self) -> &Arc<Matrix> {
        self.loader.data()
    }

    /// The exchange-frame slots this cell imports — its grid neighbours, in
    /// neighbour-slot order, wrap-around duplicates preserved.
    pub fn neighbor_slots(&self) -> &[usize] {
        &self.neighbors
    }

    /// Iterations completed so far.
    pub fn iterations_done(&self) -> usize {
        self.iteration
    }

    /// Current mixture weights.
    pub fn mixture(&self) -> &MixtureWeights {
        &self.mixture
    }

    /// Generator sub-population (read access for drivers/tests).
    pub fn gen_population(&self) -> &SubPopulation {
        &self.gen_pop
    }

    /// Discriminator sub-population.
    pub fn disc_population(&self) -> &SubPopulation {
        &self.disc_pop
    }

    /// Snapshot of the current center pair for migration to neighbors.
    pub fn snapshot(&self) -> CellSnapshot {
        let mut snap = CellSnapshot::empty();
        self.snapshot_into(&mut snap);
        snap
    }

    /// [`CellEngine::snapshot`] into a recycled snapshot (genome buffers
    /// are reused in place, so it allocates nothing).
    pub fn snapshot_into(&self, out: &mut CellSnapshot) {
        out.copy_from(self.center_pair());
    }

    /// The center pair encoded into `slot` — the cell's own exchange-frame
    /// slot, whose buffer is what the exchange posts to the cell's readers.
    /// The buffer is rewritten in place when no reader still holds the
    /// previous generation ([`EncodedSnapshot::refill`]); this is the path
    /// every driver takes every iteration.
    pub fn encode_snapshot_into(&self, slot: &mut Option<EncodedSnapshot>) {
        let pair = self.center_pair();
        match slot {
            Some(encoded) => encoded.refill(pair),
            None => *slot = Some(EncodedSnapshot::new(pair)),
        }
    }

    /// The center pair, borrowed.
    fn center_pair(&self) -> SnapshotRef<'_> {
        let g = self.gen_pop.center();
        let d = self.disc_pop.center();
        SnapshotRef {
            cell: self.cell_index,
            gen_genome: Genome::Floats(&g.genome),
            gen_lr: g.lr,
            gen_loss: g.loss,
            gen_fitness: g.fitness,
            disc_genome: Genome::Floats(&d.genome),
            disc_lr: d.lr,
            disc_fitness: d.fitness,
        }
    }

    /// Run one full training iteration given this round's neighbor
    /// snapshots (in neighbor-slot order) — decoded snapshots, or the
    /// pipeline's view of the exchange-frame slots this cell reads, imported
    /// straight from the bytes they arrived in. `scratch` is the rank's
    /// iteration scratch, lent for the call. Each Table IV phase runs
    /// under a span of `tel` — the rank's recorder, or
    /// `Telemetry::disabled()` when nobody reads the timing — and the
    /// measured host time of the four phases comes back in execution order:
    /// ingest (the cell's share of *gather*), mutate, train, update genomes.
    pub fn run_iteration<'a, I>(
        &mut self,
        neighbors: I,
        scratch: &mut CellScratch,
        tel: &mut Telemetry,
    ) -> [Duration; 4]
    where
        I: IntoIterator,
        I::Item: Into<SnapshotRef<'a>>,
        I::IntoIter: ExactSizeIterator,
    {
        let (cell, iter) = (self.cell_index as u32, self.iteration as u32);
        // The ingest copy is gather time but not a gather latency sample:
        // that is the rank's blocking exchange wait alone.
        let start = tel.begin(Routine::Gather, cell, iter).unsampled();
        self.ingest(neighbors.into_iter().map(Into::into));
        let gather = tel.end(Routine::Gather, cell, iter, start);
        let mut timed = |kind: Routine, phase: &mut dyn FnMut()| {
            let start = tel.begin(kind, cell, iter);
            phase();
            tel.end(kind, cell, iter, start)
        };
        let phases = [
            gather,
            timed(Routine::Mutate, &mut || self.mutate_phase()),
            timed(Routine::Train, &mut || self.train_phase(scratch)),
            timed(Routine::UpdateGenomes, &mut || self.update_phase(scratch)),
        ];
        self.iteration += 1;
        phases
    }

    /// [`CellEngine::run_iteration`] against an exchange frame (one slot
    /// per grid cell), importing the slots this cell reads straight from
    /// their bytes — the form [`crate::Pipeline`] runs.
    pub fn run_iteration_on(
        &mut self,
        frame: &[FrameSlot],
        scratch: &mut CellScratch,
        tel: &mut Telemetry,
    ) -> [Duration; 4] {
        // Lent out while the ingest writes the import slots (no allocation).
        let reads = std::mem::take(&mut self.neighbors);
        let imports = reads.iter().map(|&slot| import(&frame[slot]));
        let phases = self.run_iteration(imports, scratch, tel);
        self.neighbors = reads;
        phases
    }

    // ---- phase 1: gather --------------------------------------------------

    /// Refresh import slots with the latest neighbor centers — the
    /// contiguous-slice form of the one ingest routine.
    ///
    /// # Panics
    /// Panics if the number of snapshots does not match the neighborhood,
    /// or one of them is empty or mis-sized.
    pub fn ingest_neighbors(&mut self, neighbors: &[CellSnapshot]) {
        self.ingest(neighbors.iter().map(SnapshotRef::from));
    }

    /// The one ingest routine: one copy of each neighbor's center pair into
    /// its import slot, from decoded floats or straight from the wire bytes.
    /// A snapshot that is not a full center pair — above all the empty
    /// slot of a frame outside the rank's read set — is refused here,
    /// before it could train as a silent all-zero import.
    fn ingest<'a>(&mut self, neighbors: impl ExactSizeIterator<Item = SnapshotRef<'a>>) {
        assert_eq!(
            neighbors.len(),
            self.gen_pop.len() - 1,
            "snapshot count vs neighborhood size"
        );
        let gen_len = self.gen_shape.param_count();
        let disc_len = self.disc_shape.param_count();
        for (slot, snap) in neighbors.enumerate() {
            assert!(
                snap.gen_genome.len() == gen_len && snap.disc_genome.len() == disc_len,
                "cell {}: neighbour slot {slot} of the exchange frame is empty or mis-sized",
                self.cell_index
            );
            self.gen_pop.assign_import(
                slot + 1,
                snap.gen_genome,
                snap.gen_lr,
                snap.gen_loss,
                snap.gen_fitness,
            );
            self.disc_pop.assign_import(
                slot + 1,
                snap.disc_genome,
                snap.disc_lr,
                GanLoss::Heuristic,
                snap.disc_fitness,
            );
        }
    }

    // ---- phase 2: mutate --------------------------------------------------

    /// Gaussian learning-rate mutation (Table I) plus, in Mustangs mode,
    /// loss-function mutation.
    pub fn mutate_phase(&mut self) {
        let m = &self.cfg.mutation;
        if self.rng_mutate.chance(m.probability) {
            let delta = self.rng_mutate.normal(0.0, m.rate);
            let c = self.gen_pop.center_mut();
            c.lr = (c.lr + delta).clamp(1e-7, 1e-1);
        }
        if self.rng_mutate.chance(m.probability) {
            let delta = self.rng_mutate.normal(0.0, m.rate);
            let c = self.disc_pop.center_mut();
            c.lr = (c.lr + delta).clamp(1e-7, 1e-1);
        }
        if matches!(m.loss_mode, LossMode::Mutate) {
            let pick = GanLoss::ALL[self.rng_mutate.below(GanLoss::ALL.len())];
            self.gen_pop.center_mut().loss = pick;
        }
    }

    // ---- phase 3: train ---------------------------------------------------

    /// Mini-batch adversarial training of the center pair, in place in
    /// their member slots, against sub-population adversaries.
    fn train_phase(&mut self, s: &mut CellScratch) {
        for _ in 0..self.cfg.training.batches_per_iteration {
            self.loader.next_batch_into(&mut s.real);
            match self.cfg.coevolution.adversary {
                AdversaryStrategy::Tournament(k) => {
                    let d_idx =
                        self.disc_pop.tournament_with(&mut self.rng_train, k, &mut s.tourney);
                    self.generator_step(d_idx, s);
                    if self.should_train_disc() {
                        let g_idx = self.gen_pop.tournament_with(
                            &mut self.rng_train,
                            k,
                            &mut s.tourney,
                        );
                        self.discriminator_step(g_idx, s);
                    }
                }
                AdversaryStrategy::All => {
                    for d_idx in 0..self.disc_pop.len() {
                        self.generator_step(d_idx, s);
                    }
                    if self.should_train_disc() {
                        for g_idx in 0..self.gen_pop.len() {
                            self.discriminator_step(g_idx, s);
                        }
                    }
                }
            }
            self.batch_counter += 1;
        }
    }

    /// Paper: "Skip N disc. steps 1" — the discriminator trains on every
    /// `1 + skip`-th batch.
    fn should_train_disc(&self) -> bool {
        let period = 1 + self.cfg.training.skip_disc_steps as u64;
        self.batch_counter.is_multiple_of(period)
    }

    /// One generator Adam step of the center against discriminator
    /// sub-population member `d_idx` (the center itself at 0).
    fn generator_step(&mut self, d_idx: usize, s: &mut CellScratch) {
        gan::latent_batch_into(
            &mut self.rng_train,
            self.cfg.training.batch_size,
            self.net_cfg.latent_dim,
            &mut s.z,
        );
        let center = self.gen_pop.center_mut();
        gan::train_generator_step(
            &self.gen_shape,
            &mut center.genome,
            &self.disc_shape,
            &self.disc_pop.members()[d_idx].genome,
            &mut self.adam_g,
            &s.z,
            center.lr,
            center.loss,
            &mut s.ws,
            &Pool,
        );
    }

    /// One discriminator Adam step of the center against generator
    /// sub-population member `g_idx` (the center itself at 0) on the real
    /// batch in `s`.
    fn discriminator_step(&mut self, g_idx: usize, s: &mut CellScratch) {
        gan::latent_batch_into(
            &mut self.rng_train,
            self.cfg.training.batch_size,
            self.net_cfg.latent_dim,
            &mut s.z,
        );
        let g_genome = &self.gen_pop.members()[g_idx].genome;
        self.gen_shape.forward_into(g_genome, &s.z, &mut s.fake, &mut s.fwd, &Pool);
        let center = self.disc_pop.center_mut();
        gan::train_discriminator_step(
            &self.disc_shape,
            &mut center.genome,
            &mut self.adam_d,
            &s.real,
            &s.fake,
            center.lr,
            &mut s.ws,
            &Pool,
        );
    }

    // ---- phase 4: update genomes -------------------------------------------

    /// Re-evaluate every individual against the opposing sub-population,
    /// promote the best to center, and periodically evolve the mixture.
    ///
    /// The whole generation is scored in one pass per discriminator: its
    /// forward runs once over the scratch's `stacked` input (the real batch
    /// and every fake batch), and each pair's losses read the logits' row
    /// blocks. A row's logits do not depend on the rows that share its
    /// batch, so the fitnesses are those of one forward per block.
    fn update_phase(&mut self, s: &mut CellScratch) {
        let n = self.gen_pop.len();
        let (eb, dim) = (self.cfg.training.eval_batch, self.net_cfg.data_dim);
        gan::latent_batch_into(&mut self.rng_train, eb, self.net_cfg.latent_dim, &mut s.z);

        // Block 0 is the dataset's first `eb` rows; each member's fake batch
        // is generated once into its block.
        s.stacked.resize_buffer((n + 1) * eb, dim);
        let (real, fakes) = s.stacked.as_mut_slice().split_at_mut(eb * dim);
        real.copy_from_slice(&self.loader.data().as_slice()[..eb * dim]);
        for (member, block) in
            self.gen_pop.members().iter().zip(fakes.chunks_exact_mut(eb * dim))
        {
            self.gen_shape.forward_into(&member.genome, &s.z, &mut s.fake, &mut s.fwd, &Pool);
            block.copy_from_slice(s.fake.as_slice());
        }

        // Pairwise losses: discriminator j scores the real block against
        // every fake block.
        s.g_fit.clear();
        s.g_fit.resize(n, 0.0);
        s.d_fit.clear();
        s.d_fit.resize(n, 0.0);
        for (j, disc) in self.disc_pop.members().iter().enumerate() {
            self.disc_shape.forward_into(
                &disc.genome,
                &s.stacked,
                &mut s.logits,
                &mut s.fwd,
                &Pool,
            );
            let (real, fakes) = s.logits.as_slice().split_at(eb);
            for (i, fake) in fakes.chunks_exact(eb).enumerate() {
                let g_loss = loss::g_loss_value(GanLoss::Heuristic, fake);
                let d_loss = loss::d_bce_loss_value(real, fake);
                s.g_fit[i] += g_loss as f64 / n as f64;
                s.d_fit[j] += d_loss as f64 / n as f64;
            }
        }
        for i in 0..n {
            self.gen_pop.members_mut()[i].fitness = s.g_fit[i];
            self.disc_pop.members_mut()[i].fitness = s.d_fit[i];
        }

        // Replacement: promote the sub-population best to the center slot;
        // a new center starts its optimizer afresh.
        if self.gen_pop.promote_best() {
            self.adam_g.reset();
        }
        if self.disc_pop.promote_best() {
            self.adam_d.reset();
        }

        // Mixture-weight evolution ((1+1)-ES, Table I scale 0.01).
        let every = self.cfg.coevolution.mixture_every;
        if every > 0 && (self.iteration + 1).is_multiple_of(every) {
            self.evolve_mixture(s);
        }
    }

    /// One ES step on the mixture weights over the update phase's fake
    /// batches: candidate mixtures are scored by how well the blended
    /// batch fools the center discriminator.
    fn evolve_mixture(&mut self, s: &mut CellScratch) {
        let sigma = self.cfg.coevolution.mixture_sigma;
        let (rows, cols) = (self.cfg.training.eval_batch, self.net_cfg.data_dim);
        // Pre-draw one component assignment stream per candidate scoring so
        // both candidates see the same randomness (common random numbers).
        let assignment_seed = self.rng_mixture.derive(self.iteration as u64);
        let disc = &self.disc_pop.center().genome;
        let (shape, stacked) = (&self.disc_shape, &s.stacked);
        let (blended, logits, fwd) = (&mut s.blended, &mut s.logits, &mut s.fwd);
        let score = |w: &MixtureWeights| -> f64 {
            let mut rng = assignment_seed.clone();
            blended.resize_buffer(rows, cols);
            for r in 0..rows {
                // Component c's fake batch is row block c + 1.
                let c = w.sample_component(&mut rng);
                blended.row_mut(r).copy_from_slice(stacked.row((c + 1) * rows + r));
            }
            shape.forward_into(disc, blended, logits, fwd, &Pool);
            loss::g_loss_value(GanLoss::Heuristic, logits.as_slice()) as f64
        };
        self.mixture.es_step_with(sigma, &mut self.rng_mixture, score, &mut s.mixture);
    }

    /// The cell's final generative model: its generator sub-population
    /// under the evolved mixture weights.
    pub fn ensemble(&self) -> EnsembleModel {
        let genomes: Vec<Vec<f32>> =
            self.gen_pop.members().iter().map(|m| m.genome.clone()).collect();
        EnsembleModel::new(self.net_cfg, genomes, self.mixture.clone())
    }

    /// Best (lowest) generator fitness currently in the sub-population.
    pub fn best_gen_fitness(&self) -> f64 {
        self.gen_pop.members()[self.gen_pop.best_index()].fitness
    }
}

/// The network topology `data` must match, checked: the dataset's width is
/// the configured data dimension and it holds at least one eval batch.
fn check_data(cfg: &TrainConfig, data: &Matrix) -> NetworkConfig {
    let net_cfg = cfg.network.to_network_config();
    assert_eq!(data.cols(), net_cfg.data_dim, "dataset width vs network data_dim");
    assert!(data.rows() >= cfg.training.eval_batch, "dataset smaller than eval batch");
    net_cfg
}

/// Clone a member slice into a recycled buffer, reusing genome capacity.
fn clone_members_into(src: &[Individual], dst: &mut Vec<Individual>) {
    dst.truncate(src.len());
    for (i, m) in src.iter().enumerate() {
        match dst.get_mut(i) {
            Some(slot) => {
                slot.genome.clear();
                slot.genome.extend_from_slice(&m.genome);
                slot.lr = m.lr;
                slot.loss = m.loss;
                slot.fitness = m.fitness;
            }
            None => dst.push(m.clone()),
        }
    }
}

/// What an engine imports from a frame slot: the snapshot, read straight
/// from its buffer — or, for a slot the rank does not read, a pair without
/// genomes, which the ingest refuses by its length.
fn import(slot: &FrameSlot) -> SnapshotRef<'_> {
    slot.as_ref().map_or(SnapshotRef::EMPTY, EncodedSnapshot::view)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lipiz_data::SynthDigits;
    use lipiz_wire::Wire;

    fn smoke_engine(seed_offset: u64) -> CellEngine {
        let mut cfg = TrainConfig::smoke(2);
        cfg.seed += seed_offset;
        let data = toy_data(&cfg);
        CellEngine::new(0, &cfg, data)
    }

    fn toy_data(cfg: &TrainConfig) -> Matrix {
        // Deterministic synthetic data with the configured dimensionality.
        let mut rng = Rng64::seed_from(cfg.training.data_seed);
        rng.uniform_matrix(cfg.training.dataset_size, cfg.network.data_dim, -0.9, 0.9)
    }

    fn neighbor_snaps(engine: &mut CellEngine, n: usize) -> Vec<CellSnapshot> {
        (0..n).map(|_| engine.snapshot()).collect()
    }

    #[test]
    fn engine_construction_invariants() {
        let e = smoke_engine(0);
        assert_eq!(e.gen_population().len(), 5);
        assert_eq!(e.disc_population().len(), 5);
        assert_eq!(e.mixture().len(), 5);
        assert_eq!(e.iterations_done(), 0);
    }

    #[test]
    fn iteration_advances_and_stays_finite() {
        let mut e = smoke_engine(0);
        let snaps = neighbor_snaps(&mut e, 4);
        let mut tel = Telemetry::disabled();
        let phases = e.run_iteration(&snaps, &mut CellScratch::default(), &mut tel);
        assert_eq!(e.iterations_done(), 1);
        let finite = |pop: &SubPopulation| pop.center().genome.iter().all(|v| v.is_finite());
        assert!(finite(e.gen_population()), "generator diverged");
        assert!(finite(e.disc_population()), "discriminator diverged");
        // All four phases recorded their time, in execution order.
        let order = [Routine::Gather, Routine::Mutate, Routine::Train, Routine::UpdateGenomes];
        for (r, took) in order.into_iter().zip(phases) {
            assert_eq!(tel.metrics.routine_calls[r as usize], 1, "{r:?} not recorded");
            assert_eq!(tel.metrics.routine_ns[r as usize], took.as_nanos() as u64, "{r:?}");
        }
    }

    #[test]
    fn reserved_workers_per_cell_slot_is_inert() {
        // `workers_per_cell` is a reserved wire slot that nothing reads: any
        // value must train the exact bytes of the default.
        let run_with = |workers: usize| {
            let mut cfg = TrainConfig::smoke(2);
            cfg.training.workers_per_cell = workers;
            let mut e = CellEngine::new(0, &cfg, toy_data(&cfg));
            let snaps = neighbor_snaps(&mut e, 4);
            e.run_iteration(&snaps, &mut CellScratch::default(), &mut Telemetry::disabled());
            e.run_iteration(&snaps, &mut CellScratch::default(), &mut Telemetry::disabled());
            e.snapshot()
        };
        let reference = run_with(1);
        for workers in 2..=4 {
            assert_eq!(run_with(workers), reference, "drift at workers_per_cell = {workers}");
        }
    }

    #[test]
    fn engine_is_deterministic() {
        let run = || {
            let mut e = smoke_engine(0);
            let snaps = neighbor_snaps(&mut e, 4);
            e.run_iteration(&snaps, &mut CellScratch::default(), &mut Telemetry::disabled());
            e.run_iteration(&snaps, &mut CellScratch::default(), &mut Telemetry::disabled());
            e.snapshot()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "two identical runs diverged");
    }

    #[test]
    fn different_seeds_diverge() {
        let snap_of = |off: u64| {
            let mut e = smoke_engine(off);
            let snaps = neighbor_snaps(&mut e, 4);
            e.run_iteration(&snaps, &mut CellScratch::default(), &mut Telemetry::disabled());
            e.snapshot()
        };
        assert_ne!(snap_of(0).gen_genome, snap_of(1).gen_genome);
    }

    #[test]
    fn training_changes_the_center_genome() {
        let mut e = smoke_engine(0);
        let before = e.snapshot().gen_genome;
        let snaps = neighbor_snaps(&mut e, 4);
        e.run_iteration(&snaps, &mut CellScratch::default(), &mut Telemetry::disabled());
        let after = e.snapshot().gen_genome;
        assert_ne!(before, after, "training was a no-op");
    }

    #[test]
    fn fitter_import_takes_over_the_center() {
        let mut e = smoke_engine(0);
        // Train a second engine for several iterations to get a genuinely
        // different, trained genome.
        let mut donor = smoke_engine(7);
        let donor_snaps = neighbor_snaps(&mut donor, 4);
        for _ in 0..3 {
            donor.run_iteration(
                &donor_snaps,
                &mut CellScratch::default(),
                &mut Telemetry::disabled(),
            );
        }
        let donor_snap = donor.snapshot();
        // Feed the donor as all four neighbors; if it evaluates better it
        // must be promoted to center.
        let snaps = vec![donor_snap.clone(); 4];
        e.run_iteration(&snaps, &mut CellScratch::default(), &mut Telemetry::disabled());
        let center = e.gen_population().center();
        let donor_fit = e.gen_population().members()[1].fitness;
        assert!(
            center.fitness <= donor_fit + 1e-12,
            "center fitness {} worse than import {}",
            center.fitness,
            donor_fit
        );
    }

    /// The update phase as it ran before stacked scoring: each
    /// discriminator runs one forward on the real evaluation batch and one
    /// per fake batch, and the mixture blends rows of separate fake
    /// matrices. Kept as the oracle the one-pass phase must equal bitwise.
    fn per_block_update_phase(e: &mut CellEngine) {
        let n = e.gen_pop.len();
        let eb = e.cfg.training.eval_batch;
        let (mut z, mut fwd) = (Matrix::default(), Matrix::default());
        gan::latent_batch_into(&mut e.rng_train, eb, e.net_cfg.latent_dim, &mut z);
        let batches: Vec<Matrix> = e
            .gen_pop
            .members()
            .iter()
            .map(|m| {
                let mut fake = Matrix::default();
                e.gen_shape.forward_into(&m.genome, &z, &mut fake, &mut fwd, &Pool);
                fake
            })
            .collect();
        let real_batch = e.loader.data().slice_rows(0, eb);
        let (mut real_logits, mut fake_logits) = (Matrix::default(), Matrix::default());
        let (mut g_fit, mut d_fit) = (vec![0.0f64; n], vec![0.0f64; n]);
        for (j, disc) in e.disc_pop.members().iter().enumerate() {
            let d = &disc.genome;
            e.disc_shape.forward_into(d, &real_batch, &mut real_logits, &mut fwd, &Pool);
            for (i, fake) in batches.iter().enumerate() {
                e.disc_shape.forward_into(d, fake, &mut fake_logits, &mut fwd, &Pool);
                let (real, fake) = (real_logits.as_slice(), fake_logits.as_slice());
                g_fit[i] += loss::g_loss_value(GanLoss::Heuristic, fake) as f64 / n as f64;
                d_fit[j] += loss::d_bce_loss_value(real, fake) as f64 / n as f64;
            }
        }
        for i in 0..n {
            e.gen_pop.members_mut()[i].fitness = g_fit[i];
            e.disc_pop.members_mut()[i].fitness = d_fit[i];
        }
        if e.gen_pop.promote_best() {
            e.adam_g.reset();
        }
        if e.disc_pop.promote_best() {
            e.adam_d.reset();
        }
        let every = e.cfg.coevolution.mixture_every;
        if every > 0 && (e.iteration + 1).is_multiple_of(every) {
            let assignment_seed = e.rng_mixture.derive(e.iteration as u64);
            let disc = &e.disc_pop.center().genome;
            let mut blended = Matrix::zeros(eb, e.net_cfg.data_dim);
            let score = |w: &MixtureWeights| -> f64 {
                let mut rng = assignment_seed.clone();
                for r in 0..eb {
                    let c = w.sample_component(&mut rng);
                    blended.row_mut(r).copy_from_slice(batches[c].row(r));
                }
                e.disc_shape.forward_into(disc, &blended, &mut fake_logits, &mut fwd, &Pool);
                loss::g_loss_value(GanLoss::Heuristic, fake_logits.as_slice()) as f64
            };
            let sigma = e.cfg.coevolution.mixture_sigma;
            let mut candidate = MixtureWeights::uniform(1);
            e.mixture.es_step_with(sigma, &mut e.rng_mixture, score, &mut candidate);
        }
    }

    #[test]
    fn stacked_update_phase_equals_the_per_block_oracle_bitwise() {
        // Batch heights with every 4-row remainder in the per-block and
        // the stacked forwards (6 blocks: 6, 18 and 60 rows).
        let mut promotions = 0;
        for eb in [1, 3, 10] {
            let mut cfg = TrainConfig::smoke(2);
            cfg.training.eval_batch = eb;
            let data = toy_data(&cfg);
            let mut e = CellEngine::new(0, &cfg, data.clone());
            // Distinct neighbours, so scores differ and a promotion can
            // happen.
            let snaps: Vec<CellSnapshot> =
                (1..=4).map(|k| smoke_engine(k).snapshot()).collect();
            let mut scratch = CellScratch::default();
            for round in 0..3 {
                e.ingest_neighbors(&snaps);
                e.mutate_phase();
                e.train_phase(&mut scratch);
                let centers =
                    (e.gen_pop.center().genome.clone(), e.disc_pop.center().genome.clone());
                let mut oracle = CellEngine::from_state(&cfg, data.clone(), &e.capture_state());
                e.update_phase(&mut scratch);
                per_block_update_phase(&mut oracle);
                let fits = |p: &SubPopulation| -> Vec<u64> {
                    p.members().iter().map(|m| m.fitness.to_bits()).collect()
                };
                assert_eq!(fits(&e.gen_pop), fits(&oracle.gen_pop), "eb {eb} round {round}");
                assert_eq!(fits(&e.disc_pop), fits(&oracle.disc_pop), "eb {eb} round {round}");
                // Genomes in their slots (promotions), optimiser resets,
                // mixture weights and RNG streams: the whole cell state.
                assert_eq!(
                    e.capture_state().to_bytes(),
                    oracle.capture_state().to_bytes(),
                    "eb {eb} round {round}"
                );
                promotions += usize::from(e.gen_pop.center().genome != centers.0)
                    + usize::from(e.disc_pop.center().genome != centers.1);
                e.iteration += 1;
            }
        }
        assert!(promotions > 0, "no promotion ran: the oracle compared scores only");
    }

    #[test]
    fn ingest_requires_full_neighborhood() {
        let mut e = smoke_engine(0);
        let snaps = neighbor_snaps(&mut e, 2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.ingest_neighbors(&snaps)
        }));
        assert!(result.is_err());
    }

    #[test]
    #[should_panic(expected = "cell 0: neighbour slot 2 of the exchange frame is empty")]
    fn ingest_refuses_an_empty_frame_slot() {
        // What a frame slot outside the rank's read set holds: importing it
        // would train against an all-zero-length genome without a word.
        let mut e = smoke_engine(0);
        let mut frame = neighbor_snaps(&mut e, 4);
        frame[2] = CellSnapshot::empty();
        e.run_iteration(
            [0, 1, 2, 3].map(|slot| &frame[slot]),
            &mut CellScratch::default(),
            &mut Telemetry::disabled(),
        );
    }

    #[test]
    fn mutation_perturbs_learning_rate_over_time() {
        let mut e = smoke_engine(0);
        let lr0 = e.gen_population().center().lr;
        for _ in 0..32 {
            e.mutate_phase();
        }
        let lr = e.gen_population().center().lr;
        assert_ne!(lr, lr0, "lr never mutated in 32 draws at p=0.5");
        assert!(lr > 0.0, "lr must stay positive");
    }

    #[test]
    fn mustangs_mode_mutates_loss() {
        let mut cfg = TrainConfig::smoke(2).with_mustangs();
        cfg.seed = 5;
        let data = toy_data(&cfg);
        let mut e = CellEngine::new(0, &cfg, data);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            e.mutate_phase();
            seen.insert(e.gen_population().center().loss);
        }
        assert!(seen.len() >= 2, "loss never mutated across 64 draws: {seen:?}");
    }

    #[test]
    fn fixed_mode_keeps_loss() {
        let mut e = smoke_engine(0);
        for _ in 0..32 {
            e.mutate_phase();
        }
        assert_eq!(e.gen_population().center().loss, GanLoss::Heuristic);
    }

    #[test]
    fn ensemble_matches_subpopulation() {
        let e = smoke_engine(0);
        let model = e.ensemble();
        assert_eq!(model.components(), 5);
        let mut rng = Rng64::seed_from(9);
        let samples = model.sample(6, &mut rng);
        assert_eq!(samples.shape(), (6, 16));
    }

    #[test]
    fn disc_skip_schedule() {
        // skip = 1 ⇒ D trains on batches 0, 2, 4, ...
        let mut e = smoke_engine(0);
        assert!(e.should_train_disc());
        e.batch_counter = 1;
        assert!(!e.should_train_disc());
        e.batch_counter = 2;
        assert!(e.should_train_disc());
        // skip = 0 ⇒ always train.
        e.cfg.training.skip_disc_steps = 0;
        e.batch_counter = 1;
        assert!(e.should_train_disc());
    }

    #[test]
    fn snapshot_round_trips_through_ingest() {
        let a = smoke_engine(0);
        let mut b = smoke_engine(3);
        let snap_a = a.snapshot();
        let snaps = vec![snap_a.clone(); 4];
        b.ingest_neighbors(&snaps);
        assert_eq!(b.gen_population().members()[1].genome, snap_a.gen_genome);
        assert_eq!(b.disc_population().members()[4].genome, snap_a.disc_genome);
    }

    #[test]
    fn capture_restore_resumes_bit_identically() {
        // The tentpole invariant at engine level: run k iterations, capture,
        // restore into a fresh engine over re-derived data, run the rest —
        // the restored engine's trajectory must be byte-identical to the
        // uninterrupted one's.
        let cfg = TrainConfig::smoke(2);
        let make_engine = || CellEngine::new(0, &cfg, toy_data(&cfg));

        // Uninterrupted reference: 4 iterations against a fixed donor snap.
        let mut donor = {
            let e = CellEngine::new(0, &cfg, toy_data(&cfg));
            e.snapshot()
        };
        donor.cell = 1;
        let snaps = vec![donor; 4];
        let mut reference = make_engine();
        for _ in 0..4 {
            reference.run_iteration(
                &snaps,
                &mut CellScratch::default(),
                &mut Telemetry::disabled(),
            );
        }

        // Interrupted run: 2 iterations, capture, restore, 2 more.
        let mut first_half = make_engine();
        first_half.run_iteration(
            &snaps,
            &mut CellScratch::default(),
            &mut Telemetry::disabled(),
        );
        first_half.run_iteration(
            &snaps,
            &mut CellScratch::default(),
            &mut Telemetry::disabled(),
        );
        let state = first_half.capture_state();
        drop(first_half);
        let mut resumed = CellEngine::from_state(&cfg, toy_data(&cfg), &state);
        assert_eq!(resumed.iterations_done(), 2);
        resumed.run_iteration(&snaps, &mut CellScratch::default(), &mut Telemetry::disabled());
        resumed.run_iteration(&snaps, &mut CellScratch::default(), &mut Telemetry::disabled());

        // Snapshots (genomes, lrs, fitness) and final states must agree
        // bit-for-bit.
        assert_eq!(resumed.snapshot(), reference.snapshot());
        assert_eq!(resumed.capture_state(), reference.capture_state());
        assert_eq!(resumed.ensemble(), reference.ensemble());
    }

    #[test]
    fn capture_into_reuses_buffers_and_matches_fresh_capture() {
        let mut e = smoke_engine(0);
        let snaps = neighbor_snaps(&mut e, 4);
        e.run_iteration(&snaps, &mut CellScratch::default(), &mut Telemetry::disabled());
        let mut recycled = e.capture_state();
        let genome_ptr = recycled.gen_members[0].genome.as_ptr();
        e.run_iteration(&snaps, &mut CellScratch::default(), &mut Telemetry::disabled());
        e.capture_state_into(&mut recycled);
        assert_eq!(recycled, e.capture_state(), "recycled capture drifted");
        assert_eq!(
            recycled.gen_members[0].genome.as_ptr(),
            genome_ptr,
            "recycled capture reallocated a same-size genome buffer"
        );
    }

    #[test]
    #[should_panic(expected = "cell state validates")]
    fn restore_rejects_mismatched_config() {
        let cfg = TrainConfig::smoke(2);
        let e = CellEngine::new(0, &cfg, toy_data(&cfg));
        let state = e.capture_state();
        let mut other = cfg.clone();
        other.network.hidden_units += 1;
        let _ = CellEngine::from_state(&other, toy_data(&other), &state);
    }

    #[test]
    fn works_with_synthetic_digits() {
        // End-to-end on the real data type (tiny subset, paper-shaped dims).
        let mut cfg = TrainConfig::smoke(2);
        cfg.network.data_dim = lipiz_data::IMAGE_DIM;
        cfg.network.latent_dim = 8;
        cfg.training.dataset_size = 40;
        cfg.training.eval_batch = 10;
        cfg.training.batch_size = 10;
        cfg.training.batches_per_iteration = 1;
        let data = SynthDigits::generate(40, cfg.training.data_seed).images;
        let mut e = CellEngine::new(0, &cfg, data);
        let snaps: Vec<CellSnapshot> = (0..4).map(|_| e.snapshot()).collect();
        e.run_iteration(&snaps, &mut CellScratch::default(), &mut Telemetry::disabled());
        assert!(e.best_gen_fitness().is_finite());
    }
}
