//! Training configuration (Table I of the paper).

use lipiz_nn::{Activation, GanLoss, NetworkConfig};
use lipiz_wire::{wire_struct, Wire, WireError};
use std::time::Duration;

/// Neighborhood shape; re-exported through [`crate::topology`].
pub use crate::topology::NeighborhoodPattern;

/// Grid dimensions and neighborhood pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridConfig {
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Neighborhood pattern (paper: five-cell, s = 5).
    pub pattern: NeighborhoodPattern,
}
wire_struct!(GridConfig { rows, cols, pattern });

impl GridConfig {
    /// Square `m × m` grid with the paper's five-cell neighborhood.
    pub fn square(m: usize) -> Self {
        Self { rows: m, cols: m, pattern: NeighborhoodPattern::Cross5 }
    }

    /// Number of cells.
    pub fn cells(&self) -> usize {
        self.rows * self.cols
    }
}

/// Which message-passing backend carries the distributed runtime's traffic.
///
/// The training semantics are transport-independent (the runtime proves the
/// two backends byte-identical), so this lives beside — not inside — the
/// [`TrainConfig`] that travels over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Every rank is a thread of one OS process (in-memory mailboxes).
    #[default]
    InProcess,
    /// Every rank is an OS process; envelopes travel over TCP sockets.
    Tcp,
}

impl std::str::FromStr for TransportKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "in-process" | "inprocess" | "threads" => Ok(TransportKind::InProcess),
            "tcp" | "sockets" => Ok(TransportKind::Tcp),
            other => Err(format!("unknown transport '{other}' (expected in-process|tcp)")),
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportKind::InProcess => write!(f, "in-process"),
            TransportKind::Tcp => write!(f, "tcp"),
        }
    }
}

/// When a training iteration sees its neighbors' snapshots.
///
/// Unlike [`TransportKind`] this *does* change training semantics, so it
/// rides inside the [`TrainConfig`] that travels over the wire: every rank
/// (and every driver) derives the same exchange behavior from the config
/// alone, which is what keeps each mode's determinism contract intact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExchangeMode {
    /// Iteration `i` trains against generation-`i` neighbor snapshots —
    /// the exchange completes before compute starts. Byte-identical to the
    /// historical behavior.
    #[default]
    Sync,
    /// Iteration `i` (for `i ≥ 1`) trains against generation-`i-1`
    /// snapshots while the transport delivers generation `i`, which the
    /// next iteration completes. The staleness bound is *fixed* at exactly 1 (iteration 0
    /// bootstraps synchronously), so the result is still a pure function of
    /// `(seed, config)` — just a different one than sync mode's.
    Async,
}

/// One byte on the wire; an id this build does not know is a decode error.
impl Wire for ExchangeMode {
    fn encode(&self, buf: &mut Vec<u8>) {
        let id: u8 = match self {
            ExchangeMode::Sync => 0,
            ExchangeMode::Async => 1,
        };
        id.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(ExchangeMode::Sync),
            1 => Ok(ExchangeMode::Async),
            _ => Err(WireError::new("exchange mode id")),
        }
    }
}

impl ExchangeMode {
    /// Does each iteration consume the previous generation?
    pub fn is_async(&self) -> bool {
        matches!(self, ExchangeMode::Async)
    }
}

impl std::str::FromStr for ExchangeMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sync" | "synchronous" => Ok(ExchangeMode::Sync),
            "async" | "asynchronous" | "overlap" => Ok(ExchangeMode::Async),
            other => Err(format!("unknown exchange mode '{other}' (expected sync|async)")),
        }
    }
}

impl std::fmt::Display for ExchangeMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExchangeMode::Sync => write!(f, "sync"),
            ExchangeMode::Async => write!(f, "async"),
        }
    }
}

/// How the trainer picks adversaries from the sub-population each batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryStrategy {
    /// Tournament selection of one adversary per batch (Table I:
    /// tournament size 2).
    Tournament(usize),
    /// Train against every sub-population member each batch (the most
    /// expensive, fully pairwise variant; exposed for ablation).
    All,
}

/// Two fixed slots on the wire, `kind: u8` then `k: usize` (zero for
/// [`AdversaryStrategy::All`]), so every config encodes to the same length.
impl Wire for AdversaryStrategy {
    fn encode(&self, buf: &mut Vec<u8>) {
        let (kind, k) = match *self {
            AdversaryStrategy::Tournament(k) => (0u8, k),
            AdversaryStrategy::All => (1u8, 0),
        };
        kind.encode(buf);
        k.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let (kind, k) = (u8::decode(buf)?, usize::decode(buf)?);
        match kind {
            0 => Ok(AdversaryStrategy::Tournament(k)),
            1 => Ok(AdversaryStrategy::All),
            _ => Err(WireError::new("adversary kind")),
        }
    }
}

/// Generator loss handling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossMode {
    /// Fixed loss every step — plain Lipizzaner (BCE ⇒ heuristic G loss).
    Fixed(GanLoss),
    /// Mustangs: mutate the loss per iteration over the three-variant set.
    Mutate,
}

/// Two fixed slots on the wire, `kind: u8` then the fixed loss's id (zero
/// for [`LossMode::Mutate`]).
impl Wire for LossMode {
    fn encode(&self, buf: &mut Vec<u8>) {
        let (kind, loss) = match *self {
            LossMode::Fixed(loss) => (0u8, loss.id()),
            LossMode::Mutate => (1u8, 0),
        };
        kind.encode(buf);
        loss.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let (kind, loss) = (u8::decode(buf)?, u8::decode(buf)?);
        match kind {
            0 => GanLoss::from_id(loss)
                .map(LossMode::Fixed)
                .ok_or(WireError::new("fixed loss id")),
            1 => Ok(LossMode::Mutate),
            _ => Err(WireError::new("loss mode")),
        }
    }
}

/// Coevolutionary settings (Table I, middle block).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoevolutionConfig {
    /// Training iterations (Table I: 200).
    pub iterations: usize,
    /// Individuals per cell before neighbor imports (Table I: 1).
    pub population_per_cell: usize,
    /// Tournament size (Table I: 2).
    pub tournament_size: usize,
    /// Mixture mutation scale for the (1+1)-ES (Table I: 0.01).
    pub mixture_sigma: f32,
    /// Evolve mixture weights every this many iterations (0 = never).
    pub mixture_every: usize,
    /// Adversary selection strategy for gradient steps.
    pub adversary: AdversaryStrategy,
}
wire_struct!(CoevolutionConfig {
    iterations,
    population_per_cell,
    tournament_size,
    mixture_sigma,
    mixture_every,
    adversary,
});

/// Hyperparameter-mutation settings (Table I, "Hyperparameter mutation").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MutationConfig {
    /// Initial Adam learning rate (Table I: 2e-4).
    pub initial_lr: f32,
    /// Gaussian std of the learning-rate mutation (Table I: 1e-4).
    pub rate: f32,
    /// Probability of mutating per iteration (Table I: 0.5).
    pub probability: f64,
    /// Generator loss handling (Lipizzaner fixed vs Mustangs mutation).
    pub loss_mode: LossMode,
}
wire_struct!(MutationConfig { initial_lr, rate, probability, loss_mode });

/// Data/batching settings (Table I, "Training settings").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainingConfig {
    /// Mini-batch size (Table I: 100).
    pub batch_size: usize,
    /// Gradient batches per training iteration.
    ///
    /// The paper runs a full pass over the per-cell data each iteration;
    /// this knob lets the benchmark harness scale the workload down while
    /// keeping every per-iteration cost ratio intact.
    pub batches_per_iteration: usize,
    /// Train the discriminator only every `1 + skip_disc_steps`-th batch
    /// (Table I: "Skip N disc. steps 1" ⇒ D trains every batch).
    pub skip_disc_steps: usize,
    /// Number of samples each cell's local dataset holds.
    pub dataset_size: usize,
    /// Seed for dataset synthesis (shared by all ranks so everyone can
    /// rebuild the same data locally).
    pub data_seed: u64,
    /// Rows of the fixed evaluation batch used for fitness.
    pub eval_batch: usize,
    /// Reserved and inert: nothing reads it, since the cell is the only unit
    /// of parallelism (one rank thread per cell). It stays so the wire
    /// format, and manifests written with any value, still decode. `1` by
    /// convention.
    pub workers_per_cell: usize,
    /// Partition the dataset into per-cell shards instead of replicating it
    /// (the data-dieting setup). Carried in the configuration — not as a
    /// per-host flag — so every rank of a distributed run, including slave
    /// processes on other machines, derives the same data layout from the
    /// wire config alone.
    pub shard_data: bool,
}
wire_struct!(TrainingConfig {
    batch_size,
    batches_per_iteration,
    skip_disc_steps,
    dataset_size,
    data_seed,
    eval_batch,
    workers_per_cell,
    shard_data,
});

/// Serializable mirror of the network topology (Table I, top block).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkSettings {
    /// Latent dimension (input neurons; Table I: 64).
    pub latent_dim: usize,
    /// Hidden layers (Table I: 2).
    pub hidden_layers: usize,
    /// Neurons per hidden layer (Table I: 256).
    pub hidden_units: usize,
    /// Output neurons / data dimension (Table I: 784).
    pub data_dim: usize,
}
wire_struct!(NetworkSettings { latent_dim, hidden_layers, hidden_units, data_dim });

impl NetworkSettings {
    /// Convert to the nn crate's runtime config (tanh activation,
    /// per Table I).
    pub fn to_network_config(self) -> NetworkConfig {
        NetworkConfig {
            latent_dim: self.latent_dim,
            hidden_layers: self.hidden_layers,
            hidden_units: self.hidden_units,
            data_dim: self.data_dim,
            activation: Activation::Tanh,
        }
    }
}

/// Checkpoint/restore settings.
///
/// Checkpointing rides in the training configuration — not as a per-host
/// flag — so every rank of a distributed run derives the same cadence and
/// target directory from the wire config alone (the same reasoning as
/// `shard_data`). On multi-machine runs `dir` must resolve to a shared
/// filesystem path visible to every host.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CheckpointConfig {
    /// Commit a checkpoint every this many iterations (`0` = off).
    pub every: usize,
    /// Directory the checkpoints and manifest live in.
    pub dir: Option<String>,
    /// Pause the run after this many iterations, leaving a committed
    /// checkpoint behind — time-budgeted training, and the deterministic
    /// "interrupt at iteration k" lever the resume-equivalence suite uses.
    pub pause_after: Option<usize>,
}
wire_struct!(CheckpointConfig { every, dir, pause_after });

impl CheckpointConfig {
    /// Is periodic checkpointing active?
    pub fn enabled(&self) -> bool {
        self.every > 0 && self.dir.is_some()
    }

    /// Does iteration `iter` (0-based, just completed) commit a checkpoint?
    /// Commits land at the end of iterations `every-1, 2·every-1, …` and at
    /// a configured pause point.
    pub fn commits_after(&self, iter: usize) -> bool {
        if !self.enabled() {
            return false;
        }
        (iter + 1).is_multiple_of(self.every) || self.pause_after == Some(iter + 1)
    }

    /// The iteration count this run actually executes to before stopping:
    /// the configured pause point, or the full run.
    pub fn effective_iterations(&self, total: usize) -> usize {
        self.pause_after.map_or(total, |p| p.min(total))
    }
}

/// Failure-semantics knobs: heartbeat cadence, the stale-substitution
/// bound for graceful grid degradation, and an optional scripted fault
/// plan (deterministic fault injection).
///
/// Like checkpointing, these ride in the training configuration — not in
/// per-host state — so every rank of a distributed run derives the same
/// failure behavior from the wire config alone: each of the victim's
/// readers arms the same absence window the victim's own process enforces,
/// and a degraded run stays a pure function of `(seed, plan)`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultConfig {
    /// Milliseconds between master heartbeat rounds (`0` = the default,
    /// see [`FaultConfig::heartbeat_interval`]).
    pub heartbeat_interval_ms: u64,
    /// Consecutive missed heartbeat rounds that convict a slave as dead
    /// (`0` = the default, see [`FaultConfig::convict_after`]).
    pub heartbeat_misses: usize,
    /// How many consecutive iterations a dead rank's neighbors may train
    /// against its last-known snapshot before the run escalates to
    /// coordinated recovery (`0` = degradation off: any death stalls the
    /// grid until the heartbeat deadline aborts the run).
    pub max_stale_iters: usize,
    /// Scripted fault plan (the `lipiz-mpi` fault grammar, e.g.
    /// `"kill:3@2;delay:1>2:*@4:50"`). `None` = fault-free run.
    pub plan: Option<String>,
}
wire_struct!(FaultConfig { heartbeat_interval_ms, heartbeat_misses, max_stale_iters, plan });

impl FaultConfig {
    /// Time between master heartbeat rounds ("Wait X seconds" in Fig. 3):
    /// `heartbeat_interval_ms`, or 50 ms where it is 0.
    pub fn heartbeat_interval(&self) -> Duration {
        Duration::from_millis(match self.heartbeat_interval_ms {
            0 => 50,
            ms => ms,
        })
    }

    /// Consecutive missed heartbeat rounds that convict a slave as dead:
    /// `heartbeat_misses`, or `None` — never convict, monitoring only —
    /// where it is 0.
    pub fn convict_after(&self) -> Option<usize> {
        (self.heartbeat_misses > 0).then_some(self.heartbeat_misses)
    }

    /// Is stale-snapshot degradation armed?
    pub fn degradation_enabled(&self) -> bool {
        self.max_stale_iters > 0
    }
}

/// Run-telemetry settings: the event journal, metrics registry, and
/// summary aggregation described in `lipiz-telemetry`.
///
/// Telemetry is *observational only* — it never touches RNG or training
/// state, so runs with and without it produce byte-identical ensembles.
/// It still rides in the training configuration (not per-host state) so
/// every rank of a distributed run derives the same gate, journal
/// directory, and ring capacity from the wire config alone.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// Master switch. Off (the default) costs nothing: no ring is
    /// allocated and every record call is a dead branch.
    pub enabled: bool,
    /// Directory per-rank journal files (`<node>.jsonl`) are written to.
    /// On multi-machine runs this must resolve per-host; journals are
    /// merged offline by `lipizzaner trace`.
    pub dir: Option<String>,
    /// Event-ring capacity in records (`0` = the crate default). The ring
    /// never resizes: overflow overwrites the oldest record and ticks a
    /// drop counter.
    pub ring_capacity: usize,
}
wire_struct!(TelemetryConfig { enabled, dir, ring_capacity });

impl TelemetryConfig {
    /// Is telemetry recording active?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }
}

/// Complete training configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Grid shape.
    pub grid: GridConfig,
    /// Network topology.
    pub network: NetworkSettings,
    /// Coevolutionary settings.
    pub coevolution: CoevolutionConfig,
    /// Hyperparameter mutation settings.
    pub mutation: MutationConfig,
    /// Training/batching settings.
    pub training: TrainingConfig,
    /// Checkpoint/restore settings.
    pub checkpoint: CheckpointConfig,
    /// Failure-semantics settings (heartbeats, degradation, fault plan).
    /// Absent from pre-existing manifests, which load with the defaults.
    pub fault: FaultConfig,
    /// Neighbor-exchange mode (synchronous, or overlapped with compute at a
    /// fixed staleness of 1).
    pub exchange: ExchangeMode,
    /// Run-telemetry settings (event journal + metrics). Observational
    /// only; absent from pre-existing manifests, which load with the
    /// defaults (off).
    pub telemetry: TelemetryConfig,
    /// Master seed; every cell derives its streams from this and its grid
    /// coordinates, which is what makes all three drivers bit-identical.
    pub seed: u64,
}
wire_struct!(TrainConfig {
    grid,
    network,
    coevolution,
    mutation,
    training,
    checkpoint,
    fault,
    exchange,
    telemetry,
    seed,
});

impl TrainConfig {
    /// The exact Table I configuration (MNIST-scale).
    pub fn paper_table1() -> Self {
        Self {
            grid: GridConfig::square(3),
            network: NetworkSettings {
                latent_dim: 64,
                hidden_layers: 2,
                hidden_units: 256,
                data_dim: 784,
            },
            coevolution: CoevolutionConfig {
                iterations: 200,
                population_per_cell: 1,
                tournament_size: 2,
                mixture_sigma: 0.01,
                mixture_every: 5,
                adversary: AdversaryStrategy::Tournament(2),
            },
            mutation: MutationConfig {
                initial_lr: 2e-4,
                rate: 1e-4,
                probability: 0.5,
                loss_mode: LossMode::Fixed(GanLoss::Heuristic),
            },
            training: TrainingConfig {
                batch_size: 100,
                batches_per_iteration: 600,
                skip_disc_steps: 1,
                dataset_size: 60_000,
                data_seed: 0xDA7A,
                eval_batch: 100,
                workers_per_cell: 1,
                shard_data: false,
            },
            checkpoint: CheckpointConfig::default(),
            fault: FaultConfig::default(),
            exchange: ExchangeMode::default(),
            telemetry: TelemetryConfig::default(),
            seed: 1,
        }
    }

    /// A small-but-real configuration for fast tests: tiny networks, tiny
    /// dataset, a couple of iterations. Same algorithm, same code paths.
    pub fn smoke(grid_m: usize) -> Self {
        Self {
            grid: GridConfig::square(grid_m),
            network: NetworkSettings {
                latent_dim: 4,
                hidden_layers: 1,
                hidden_units: 8,
                data_dim: 16,
            },
            coevolution: CoevolutionConfig {
                iterations: 2,
                population_per_cell: 1,
                tournament_size: 2,
                mixture_sigma: 0.01,
                mixture_every: 1,
                adversary: AdversaryStrategy::Tournament(2),
            },
            mutation: MutationConfig {
                initial_lr: 2e-4,
                rate: 1e-4,
                probability: 0.5,
                loss_mode: LossMode::Fixed(GanLoss::Heuristic),
            },
            training: TrainingConfig {
                batch_size: 8,
                batches_per_iteration: 2,
                skip_disc_steps: 1,
                dataset_size: 64,
                data_seed: 7,
                eval_batch: 16,
                workers_per_cell: 1,
                shard_data: false,
            },
            checkpoint: CheckpointConfig::default(),
            fault: FaultConfig::default(),
            exchange: ExchangeMode::default(),
            telemetry: TelemetryConfig::default(),
            seed: 3,
        }
    }

    /// Mustangs variant of any config (loss mutation on).
    pub fn with_mustangs(mut self) -> Self {
        self.mutation.loss_mode = LossMode::Mutate;
        self
    }

    /// Same config with per-cell data sharding toggled.
    pub fn with_shards(mut self, shard: bool) -> Self {
        self.training.shard_data = shard;
        self
    }

    /// Same config with periodic checkpointing into `dir` every `every`
    /// iterations (`every` is clamped to ≥ 1).
    pub fn with_checkpoints(mut self, dir: impl Into<String>, every: usize) -> Self {
        self.checkpoint.every = every.max(1);
        self.checkpoint.dir = Some(dir.into());
        self
    }

    /// Same config pausing after `k` iterations with a committed checkpoint
    /// (see [`CheckpointConfig::pause_after`]).
    pub fn with_pause_after(mut self, k: usize) -> Self {
        self.checkpoint.pause_after = Some(k);
        self
    }

    /// Same config with a scripted fault plan and a stale-substitution
    /// bound of `max_stale` iterations (clamped to ≥ 1 — a plan with no
    /// degradation budget could never be survived gracefully).
    pub fn with_fault_plan(mut self, spec: impl Into<String>, max_stale: usize) -> Self {
        self.fault.plan = Some(spec.into());
        self.fault.max_stale_iters = max_stale.max(1);
        self
    }

    /// Same config with an explicit heartbeat policy (interval in
    /// milliseconds, consecutive misses before conviction).
    pub fn with_heartbeat(mut self, interval_ms: u64, misses: usize) -> Self {
        self.fault.heartbeat_interval_ms = interval_ms;
        self.fault.heartbeat_misses = misses;
        self
    }

    /// Same config with the given neighbor-exchange mode.
    pub fn with_exchange(mut self, mode: ExchangeMode) -> Self {
        self.exchange = mode;
        self
    }

    /// Same config with telemetry recording on, journaling into `dir`.
    /// `ring_capacity` of `0` keeps the default ring size.
    pub fn with_telemetry(mut self, dir: impl Into<String>, ring_capacity: usize) -> Self {
        self.telemetry.enabled = true;
        self.telemetry.dir = Some(dir.into());
        self.telemetry.ring_capacity = ring_capacity;
        self
    }

    /// Number of grid cells.
    pub fn cells(&self) -> usize {
        self.grid.cells()
    }

    /// Sub-population size `s` implied by the neighborhood pattern.
    pub fn subpopulation_size(&self) -> usize {
        self.grid.pattern.neighborhood_size(self.grid.rows, self.grid.cols)
    }

    /// Deterministic per-cell seed derived from the master seed.
    pub fn cell_seed(&self, cell_index: usize) -> u64 {
        // splitmix-style mixing keeps adjacent cells uncorrelated.
        let x = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((cell_index as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let cfg = TrainConfig::paper_table1();
        assert_eq!(cfg.network.latent_dim, 64);
        assert_eq!(cfg.network.hidden_layers, 2);
        assert_eq!(cfg.network.hidden_units, 256);
        assert_eq!(cfg.network.data_dim, 784);
        assert_eq!(cfg.coevolution.iterations, 200);
        assert_eq!(cfg.coevolution.population_per_cell, 1);
        assert_eq!(cfg.coevolution.tournament_size, 2);
        assert!((cfg.coevolution.mixture_sigma - 0.01).abs() < 1e-9);
        assert!((cfg.mutation.initial_lr - 2e-4).abs() < 1e-12);
        assert!((cfg.mutation.rate - 1e-4).abs() < 1e-12);
        assert!((cfg.mutation.probability - 0.5).abs() < 1e-12);
        assert_eq!(cfg.training.batch_size, 100);
        assert_eq!(cfg.training.skip_disc_steps, 1);
    }

    #[test]
    fn subpopulation_size_is_five_on_big_grids() {
        let cfg = TrainConfig::paper_table1();
        assert_eq!(cfg.subpopulation_size(), 5);
    }

    #[test]
    fn cell_seeds_are_distinct() {
        let cfg = TrainConfig::smoke(4);
        let seeds: Vec<u64> = (0..16).map(|i| cfg.cell_seed(i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
    }

    #[test]
    fn cell_seeds_depend_on_master_seed() {
        let mut a = TrainConfig::smoke(2);
        let b = a.clone();
        a.seed = 99;
        assert_ne!(a.cell_seed(0), b.cell_seed(0));
    }

    #[test]
    fn mustangs_toggle() {
        let cfg = TrainConfig::smoke(2).with_mustangs();
        assert_eq!(cfg.mutation.loss_mode, LossMode::Mutate);
    }

    #[test]
    fn transport_kind_parses_and_displays() {
        use std::str::FromStr;
        assert_eq!(TransportKind::from_str("tcp"), Ok(TransportKind::Tcp));
        assert_eq!(TransportKind::from_str("in-process"), Ok(TransportKind::InProcess));
        assert_eq!(TransportKind::default(), TransportKind::InProcess);
        assert!(TransportKind::from_str("carrier-pigeon").is_err());
        assert_eq!(TransportKind::Tcp.to_string(), "tcp");
        assert_eq!(TransportKind::InProcess.to_string(), "in-process");
    }

    #[test]
    fn checkpoint_config_defaults_off() {
        let cfg = TrainConfig::smoke(2);
        assert!(!cfg.checkpoint.enabled());
        assert!(!cfg.checkpoint.commits_after(0));
        assert_eq!(cfg.checkpoint.effective_iterations(10), 10);
    }

    #[test]
    fn checkpoint_cadence_and_pause() {
        let cfg = TrainConfig::smoke(2).with_checkpoints("/tmp/ckpt", 3).with_pause_after(4);
        assert!(cfg.checkpoint.enabled());
        // Commits after iterations 3 (cadence), 4 (pause), 6, 9, ...
        let commits: Vec<usize> =
            (0..10).filter(|&i| cfg.checkpoint.commits_after(i)).map(|i| i + 1).collect();
        assert_eq!(commits, vec![3, 4, 6, 9]);
        assert_eq!(cfg.checkpoint.effective_iterations(10), 4);
        assert_eq!(cfg.checkpoint.effective_iterations(2), 2);
        // every is clamped to at least 1.
        assert_eq!(TrainConfig::smoke(2).with_checkpoints("d", 0).checkpoint.every, 1);
    }

    #[test]
    fn fault_config_defaults_off() {
        let cfg = TrainConfig::smoke(2);
        assert_eq!(cfg.fault, FaultConfig::default());
        assert!(!cfg.fault.degradation_enabled());
        assert!(cfg.fault.plan.is_none());
    }

    #[test]
    fn unset_heartbeat_fields_resolve_to_the_defaults() {
        // A manifest's zeros keep their meaning: 50 ms rounds, and no number
        // of missed rounds convicts.
        let fault = TrainConfig::smoke(2).fault;
        assert_eq!((fault.heartbeat_interval_ms, fault.heartbeat_misses), (0, 0));
        assert_eq!(fault.heartbeat_interval(), Duration::from_millis(50));
        assert_eq!(fault.convict_after(), None);
        let set = TrainConfig::smoke(2).with_heartbeat(25, 4).fault;
        assert_eq!(set.heartbeat_interval(), Duration::from_millis(25));
        assert_eq!(set.convict_after(), Some(4));
    }

    #[test]
    fn fault_builders() {
        let cfg = TrainConfig::smoke(2).with_fault_plan("kill:3@2", 2).with_heartbeat(10, 5);
        assert_eq!(cfg.fault.plan.as_deref(), Some("kill:3@2"));
        assert_eq!(cfg.fault.max_stale_iters, 2);
        assert!(cfg.fault.degradation_enabled());
        assert_eq!(cfg.fault.heartbeat_interval_ms, 10);
        assert_eq!(cfg.fault.heartbeat_misses, 5);
        // max_stale is clamped to at least one.
        assert_eq!(
            TrainConfig::smoke(2).with_fault_plan("kill:2@1", 0).fault.max_stale_iters,
            1
        );
    }

    #[test]
    fn telemetry_config_defaults_off() {
        let cfg = TrainConfig::smoke(2);
        assert_eq!(cfg.telemetry, TelemetryConfig::default());
        assert!(!cfg.telemetry.is_enabled());
        assert!(cfg.telemetry.dir.is_none());
    }

    #[test]
    fn telemetry_builder() {
        let cfg = TrainConfig::smoke(2).with_telemetry("tel", 128);
        assert!(cfg.telemetry.is_enabled());
        assert_eq!(cfg.telemetry.dir.as_deref(), Some("tel"));
        assert_eq!(cfg.telemetry.ring_capacity, 128);
    }

    #[test]
    fn exchange_mode_parses_and_displays() {
        use std::str::FromStr;
        assert_eq!(ExchangeMode::from_str("sync"), Ok(ExchangeMode::Sync));
        assert_eq!(ExchangeMode::from_str("async"), Ok(ExchangeMode::Async));
        assert_eq!(ExchangeMode::from_str("overlap"), Ok(ExchangeMode::Async));
        assert!(ExchangeMode::from_str("eventual").is_err());
        assert_eq!(ExchangeMode::default(), ExchangeMode::Sync);
        assert!(!ExchangeMode::Sync.is_async());
        assert!(ExchangeMode::Async.is_async());
        assert_eq!(ExchangeMode::Async.to_string(), "async");
        assert_eq!(ExchangeMode::Sync.to_string(), "sync");
        let cfg = TrainConfig::smoke(2).with_exchange(ExchangeMode::Async);
        assert_eq!(cfg.exchange, ExchangeMode::Async);
        assert_eq!(TrainConfig::smoke(2).exchange, ExchangeMode::Sync);
    }

    #[test]
    fn config_round_trips_exactly() {
        for cfg in [
            TrainConfig::paper_table1(),
            TrainConfig::smoke(2),
            TrainConfig::smoke(3).with_mustangs(),
            TrainConfig::smoke(2).with_shards(true),
            TrainConfig::smoke(2).with_checkpoints("/tmp/ckpt", 3).with_pause_after(1),
            TrainConfig::smoke(2).with_fault_plan("kill:3@2;delay:1>2:*@4:50", 2),
            TrainConfig::smoke(2).with_heartbeat(25, 4),
            TrainConfig::smoke(2).with_exchange(ExchangeMode::Async),
            TrainConfig::smoke(2).with_telemetry("tel/run1", 4096),
        ] {
            assert_eq!(TrainConfig::from_bytes(&cfg.to_bytes()).unwrap(), cfg);
        }
    }

    #[test]
    fn reserved_workers_slot_round_trips() {
        // Nothing reads the slot, but a config holding any value must still
        // decode to itself (manifests written with it keep resuming).
        let mut cfg = TrainConfig::smoke(2);
        assert_eq!(cfg.training.workers_per_cell, 1);
        cfg.training.workers_per_cell = 4;
        let back = TrainConfig::from_bytes(&cfg.to_bytes()).unwrap();
        assert_eq!(back.training.workers_per_cell, 4);
        assert_eq!(back, cfg);
    }

    #[test]
    fn config_with_all_strategy_round_trips() {
        let mut cfg = TrainConfig::smoke(2);
        cfg.coevolution.adversary = AdversaryStrategy::All;
        cfg.grid.pattern = NeighborhoodPattern::Moore9;
        assert_eq!(TrainConfig::from_bytes(&cfg.to_bytes()).unwrap(), cfg);
    }

    #[test]
    fn corrupted_config_is_rejected() {
        let bytes = TrainConfig::smoke(2).to_bytes();
        assert!(TrainConfig::from_bytes(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn enum_slots_keep_their_fixed_width_and_refuse_unknown_ids() {
        // `All` and `Mutate` still write their (zeroed) argument slot, so
        // every config has the same length and field offsets on disk.
        assert_eq!(AdversaryStrategy::All.to_bytes(), [1, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(AdversaryStrategy::Tournament(2).to_bytes(), [0, 2, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(LossMode::Mutate.to_bytes(), [1, 0]);
        assert_eq!(LossMode::Fixed(GanLoss::LeastSquares).to_bytes(), [0, 2]);
        assert_eq!(ExchangeMode::Async.to_bytes(), [1]);
        assert_eq!(NeighborhoodPattern::Isolated.to_bytes(), [2]);

        assert!(AdversaryStrategy::from_bytes(&[2, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        assert!(LossMode::from_bytes(&[2, 0]).is_err());
        assert!(LossMode::from_bytes(&[0, 3]).is_err(), "fixed loss id");
        assert!(ExchangeMode::from_bytes(&[2]).is_err());
        assert!(NeighborhoodPattern::from_bytes(&[3]).is_err());
    }
}
