//! Typed wire messages exchanged between master and slaves.
//!
//! The orphan rule keeps `Wire` impls out of `lipiz-core`, so this module
//! defines mirror structs for everything that crosses a rank boundary and
//! converts to/from the core types at the edges.

use lipiz_core::config::{NetworkSettings, WireGanLoss};
use lipiz_core::profiling::ProfileRow;
use lipiz_core::{
    AdversaryStrategy, CellSnapshot, CheckpointConfig, CoevolutionConfig, ExchangeMode,
    FaultConfig, GridConfig, LossMode, MutationConfig, NeighborhoodPattern, ProfileReport,
    TelemetryConfig, TrainConfig, TrainingConfig,
};
use lipiz_mpi::wire::{Wire, WireError};
use lipiz_mpi::{wire_struct, Payload};
use lipiz_nn::GanLoss;

/// User-tag allocations on the WORLD communicator.
pub mod tags {
    /// Slave → master: node name announcement (Fig. 3 "send node name").
    pub const NODE_NAME: u32 = 10;
    /// Master → slave: run-task message (config + cell assignment).
    pub const RUN_TASK: u32 = 11;
    /// Master → slave: heartbeat status request.
    pub const STATUS_REQ: u32 = 12;
    /// Slave → master: heartbeat status response.
    pub const STATUS_RESP: u32 = 13;
    /// Replacement slave → fan-in root: request for the frozen death-frame
    /// snapshot cache (the rejoin bootstrap when no checkpoint exists).
    pub const CACHE_REQ: u32 = 14;
    /// Fan-in root → replacement slave: frozen death-frame response.
    pub const CACHE_RESP: u32 = 15;
    /// Slave → master: telemetry summary (commit boundaries + final).
    pub const TELEMETRY: u32 = 16;
}

/// Fig. 3 "send node name to master".
#[derive(Debug, Clone, PartialEq)]
pub struct NodeAnnouncement {
    /// WORLD rank of the slave.
    pub rank: usize,
    /// Host the slave runs on (synthetic hostname in-process).
    pub node_name: String,
}
wire_struct!(NodeAnnouncement { rank, node_name });

/// Master → slave workload assignment: the full configuration plus which
/// grid cell this slave owns.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTask {
    /// Wire-encoded training configuration.
    pub config: ConfigMsg,
    /// Flat grid index assigned to this slave.
    pub cell_index: usize,
    /// Resume marker: `Some(k)` tells the slave to restore its cell from
    /// the committed checkpoint at iteration `k` (found under the config's
    /// checkpoint directory) instead of initializing fresh — the elastic
    /// recovery and `lipizzaner resume` path.
    pub resume_from: Option<usize>,
    /// In-flight replacement marker: `Some(r)` tells the slave it replaces
    /// a dead rank mid-run — it must catch up solo (training against the
    /// frozen death-frame neighborhood) until its iteration counter reaches
    /// `r`, then join the live exchange at round `r`. `None` for every
    /// ordinary start or full-fleet resume.
    pub rejoin_round: Option<usize>,
}
wire_struct!(RunTask { config, cell_index, resume_from, rejoin_round });

/// Fan-in root → replacement: the frozen death-frame, one encoded
/// [`SnapshotMsg`] per LOCAL group rank (= cell index). `None` while the
/// root has not frozen a frame yet — the requester polls.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheResponse {
    /// Encoded per-cell snapshots, or `None` when nothing is frozen.
    pub frame: Option<Vec<Payload>>,
}
wire_struct!(CacheResponse { frame });

/// Heartbeat status response.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusReport {
    /// Current state id ([`crate::state::SlaveState`]).
    pub state: u8,
    /// Iterations completed so far.
    pub iterations_done: u64,
}
wire_struct!(StatusReport { state, iterations_done });

/// Wire form of a [`CellSnapshot`] (the LOCAL allgather payload, and the
/// exchange frame inside a checkpoint). The per-iteration exchange never
/// builds one: it encodes with [`SnapshotMsg::encode_snapshot`] and decodes
/// with [`SnapshotMsg::decode_snapshot_into`], which this type's [`Wire`]
/// impl is a thin wrapper over — one encoder, one decoder.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotMsg(CellSnapshot);

impl From<&CellSnapshot> for SnapshotMsg {
    fn from(s: &CellSnapshot) -> Self {
        Self(s.clone())
    }
}

impl Wire for SnapshotMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        Self::encode_snapshot(&self.0, buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let mut snap = CellSnapshot::empty();
        decode_snapshot_fields(buf, &mut snap)?;
        Ok(Self(snap))
    }
}

/// Decode one snapshot from the front of `buf` into `snap`, reusing both
/// genome buffers.
fn decode_snapshot_fields(buf: &mut &[u8], snap: &mut CellSnapshot) -> Result<(), WireError> {
    snap.cell = usize::decode(buf)?;
    f32::decode_into(buf, &mut snap.gen_genome)?;
    snap.gen_lr = f32::decode(buf)?;
    snap.gen_loss = GanLoss::from_id(u8::decode(buf)?).ok_or(WireError::new("gan loss id"))?;
    snap.gen_fitness = f64::decode(buf)?;
    f32::decode_into(buf, &mut snap.disc_genome)?;
    snap.disc_lr = f32::decode(buf)?;
    snap.disc_fitness = f64::decode(buf)?;
    Ok(())
}

impl SnapshotMsg {
    /// Encode a [`CellSnapshot`] directly into `buf`, appending — the
    /// per-iteration allgather writes its one wire buffer straight from the
    /// snapshot.
    pub fn encode_snapshot(s: &CellSnapshot, buf: &mut Vec<u8>) {
        s.cell.encode(buf);
        s.gen_genome.encode(buf);
        s.gen_lr.encode(buf);
        s.gen_loss.id().encode(buf);
        s.gen_fitness.encode(buf);
        s.disc_genome.encode(buf);
        s.disc_lr.encode(buf);
        s.disc_fitness.encode(buf);
    }

    /// Decode `bytes` — one complete encoded snapshot — into `snap`,
    /// overwriting every field and reusing both genome buffers, so a frame
    /// slot that has held a snapshot before is refilled without allocating.
    /// `SnapshotMsg::from_bytes(bytes)?.into_snapshot()` is this routine
    /// applied to [`CellSnapshot::empty`]. Truncated input, trailing bytes,
    /// a genome length the bytes cannot back and an invalid loss id are
    /// errors; `snap` is unspecified after one.
    pub fn decode_snapshot_into(
        mut bytes: &[u8],
        snap: &mut CellSnapshot,
    ) -> Result<(), WireError> {
        decode_snapshot_fields(&mut bytes, snap)?;
        if !bytes.is_empty() {
            return Err(WireError::new("trailing bytes"));
        }
        Ok(())
    }

    /// Convert back into the core type.
    pub fn into_snapshot(self) -> CellSnapshot {
        self.0
    }
}

/// One profile row on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRowMsg {
    /// Routine label.
    pub routine: String,
    /// Accumulated seconds.
    pub seconds: f64,
    /// Call count.
    pub calls: u64,
}
wire_struct!(ProfileRowMsg { routine, seconds, calls });

/// Slave → master final result (gathered on the GLOBAL communicator).
#[derive(Debug, Clone, PartialEq)]
pub struct SlaveResult {
    /// Grid cell this slave trained.
    pub cell: usize,
    /// Best generator fitness in the final sub-population.
    pub gen_fitness: f64,
    /// Best discriminator fitness.
    pub disc_fitness: f64,
    /// Final mixture weights.
    pub mixture: Vec<f32>,
    /// Final ensemble generator genomes, aligned with `mixture` — the
    /// trained model itself, so the master can persist the winning
    /// ensemble without re-deriving it locally (on a real multi-machine
    /// run the master has nothing else to derive it from).
    pub ensemble: Vec<Vec<f32>>,
    /// Per-routine profile rows.
    pub profile: Vec<ProfileRowMsg>,
    /// Wall seconds this slave spent in the training loop.
    pub wall_seconds: f64,
    /// Final telemetry summary (`None` when telemetry is off).
    pub telemetry: Option<TelemetrySummaryMsg>,
}
wire_struct!(SlaveResult {
    cell,
    gen_fitness,
    disc_fitness,
    mixture,
    ensemble,
    profile,
    wall_seconds,
    telemetry,
});

/// Wire mirror of [`lipiz_telemetry::TelemetrySummary`] — the compact
/// per-rank aggregate shipped on [`tags::TELEMETRY`] at checkpoint commit
/// boundaries and inside the final [`SlaveResult`].
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySummaryMsg {
    /// Reporting world rank.
    pub rank: u32,
    /// Grid cell the rank trains.
    pub cell: u32,
    /// Iterations completed.
    pub iterations: u64,
    /// Gather-latency histogram: 64 log2 buckets, then count, then sum.
    pub gather_buckets: Vec<u64>,
    /// Gather observation count.
    pub gather_count: u64,
    /// Gather total nanoseconds.
    pub gather_sum: u64,
    /// Train-latency histogram buckets.
    pub train_buckets: Vec<u64>,
    /// Train observation count.
    pub train_count: u64,
    /// Train total nanoseconds.
    pub train_sum: u64,
    /// Exchange submit-to-consume wall nanoseconds.
    pub exchange_wall_ns: u64,
    /// Checkpoints committed.
    pub checkpoints: u64,
    /// Iterations gathered against a frozen death-frame.
    pub degraded_iters: u64,
    /// Snapshot staleness bound in effect.
    pub staleness: u64,
    /// In-flight rejoins performed.
    pub rejoined: u64,
    /// Ranks replaced in-flight (master-side).
    pub replaced_ranks: u64,
    /// Journal records lost to ring overwrites.
    pub dropped_events: u64,
}
wire_struct!(TelemetrySummaryMsg {
    rank,
    cell,
    iterations,
    gather_buckets,
    gather_count,
    gather_sum,
    train_buckets,
    train_count,
    train_sum,
    exchange_wall_ns,
    checkpoints,
    degraded_iters,
    staleness,
    rejoined,
    replaced_ranks,
    dropped_events,
});

impl From<&lipiz_telemetry::TelemetrySummary> for TelemetrySummaryMsg {
    fn from(s: &lipiz_telemetry::TelemetrySummary) -> Self {
        Self {
            rank: s.rank,
            cell: s.cell,
            iterations: s.iterations,
            gather_buckets: s.gather_ns.buckets.to_vec(),
            gather_count: s.gather_ns.count,
            gather_sum: s.gather_ns.sum,
            train_buckets: s.train_ns.buckets.to_vec(),
            train_count: s.train_ns.count,
            train_sum: s.train_ns.sum,
            exchange_wall_ns: s.exchange_wall_ns,
            checkpoints: s.checkpoints,
            degraded_iters: s.degraded_iters,
            staleness: s.staleness,
            rejoined: s.rejoined,
            replaced_ranks: s.replaced_ranks,
            dropped_events: s.dropped_events,
        }
    }
}

impl TelemetrySummaryMsg {
    /// Rebuild the telemetry-crate summary. Bucket vectors of the wrong
    /// length are truncated/zero-padded to the fixed 64 — a decoding
    /// summary must never panic the master over a malformed report.
    pub fn into_summary(self) -> lipiz_telemetry::TelemetrySummary {
        let mut s = lipiz_telemetry::TelemetrySummary::empty();
        s.rank = self.rank;
        s.cell = self.cell;
        s.iterations = self.iterations;
        for (dst, src) in s.gather_ns.buckets.iter_mut().zip(&self.gather_buckets) {
            *dst = *src;
        }
        s.gather_ns.count = self.gather_count;
        s.gather_ns.sum = self.gather_sum;
        for (dst, src) in s.train_ns.buckets.iter_mut().zip(&self.train_buckets) {
            *dst = *src;
        }
        s.train_ns.count = self.train_count;
        s.train_ns.sum = self.train_sum;
        s.exchange_wall_ns = self.exchange_wall_ns;
        s.checkpoints = self.checkpoints;
        s.degraded_iters = self.degraded_iters;
        s.staleness = self.staleness;
        s.rejoined = self.rejoined;
        s.replaced_ranks = self.replaced_ranks;
        s.dropped_events = self.dropped_events;
        s
    }
}

impl SlaveResult {
    /// Convert the profile rows into a core [`ProfileReport`].
    pub fn profile_report(&self) -> ProfileReport {
        ProfileReport {
            rows: self
                .profile
                .iter()
                .map(|r| ProfileRow {
                    routine: r.routine.clone(),
                    seconds: r.seconds,
                    calls: r.calls,
                })
                .collect(),
        }
    }
}

/// Wire mirror of [`TrainConfig`] — flattened scalars only.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigMsg {
    grid_rows: usize,
    grid_cols: usize,
    pattern: u8,
    latent_dim: usize,
    hidden_layers: usize,
    hidden_units: usize,
    data_dim: usize,
    iterations: usize,
    population_per_cell: usize,
    tournament_size: usize,
    mixture_sigma: f32,
    mixture_every: usize,
    adversary_kind: u8,
    adversary_k: usize,
    initial_lr: f32,
    mutation_rate: f32,
    mutation_probability: f64,
    loss_mode: u8,
    fixed_loss: u8,
    batch_size: usize,
    batches_per_iteration: usize,
    skip_disc_steps: usize,
    dataset_size: usize,
    data_seed: u64,
    eval_batch: usize,
    workers_per_cell: usize,
    shard_data: bool,
    checkpoint_every: usize,
    checkpoint_dir: Option<String>,
    checkpoint_pause_after: Option<usize>,
    fault_heartbeat_interval_ms: u64,
    fault_heartbeat_misses: usize,
    fault_max_stale_iters: usize,
    fault_plan: Option<String>,
    exchange_mode: u8,
    telemetry_enabled: bool,
    telemetry_dir: Option<String>,
    telemetry_ring: usize,
    seed: u64,
}
wire_struct!(ConfigMsg {
    grid_rows,
    grid_cols,
    pattern,
    latent_dim,
    hidden_layers,
    hidden_units,
    data_dim,
    iterations,
    population_per_cell,
    tournament_size,
    mixture_sigma,
    mixture_every,
    adversary_kind,
    adversary_k,
    initial_lr,
    mutation_rate,
    mutation_probability,
    loss_mode,
    fixed_loss,
    batch_size,
    batches_per_iteration,
    skip_disc_steps,
    dataset_size,
    data_seed,
    eval_batch,
    workers_per_cell,
    shard_data,
    checkpoint_every,
    checkpoint_dir,
    checkpoint_pause_after,
    fault_heartbeat_interval_ms,
    fault_heartbeat_misses,
    fault_max_stale_iters,
    fault_plan,
    exchange_mode,
    telemetry_enabled,
    telemetry_dir,
    telemetry_ring,
    seed,
});

fn exchange_id(m: ExchangeMode) -> u8 {
    match m {
        ExchangeMode::Sync => 0,
        ExchangeMode::Async => 1,
    }
}

fn exchange_from_id(id: u8) -> Result<ExchangeMode, WireError> {
    match id {
        0 => Ok(ExchangeMode::Sync),
        1 => Ok(ExchangeMode::Async),
        _ => Err(WireError::new("exchange mode id")),
    }
}

fn pattern_id(p: NeighborhoodPattern) -> u8 {
    match p {
        NeighborhoodPattern::Cross5 => 0,
        NeighborhoodPattern::Moore9 => 1,
        NeighborhoodPattern::Isolated => 2,
    }
}

fn pattern_from_id(id: u8) -> Result<NeighborhoodPattern, WireError> {
    match id {
        0 => Ok(NeighborhoodPattern::Cross5),
        1 => Ok(NeighborhoodPattern::Moore9),
        2 => Ok(NeighborhoodPattern::Isolated),
        _ => Err(WireError::new("neighborhood pattern id")),
    }
}

fn wire_loss_id(l: WireGanLoss) -> u8 {
    let g: GanLoss = l.into();
    g.id()
}

impl From<&TrainConfig> for ConfigMsg {
    fn from(c: &TrainConfig) -> Self {
        let (adversary_kind, adversary_k) = match c.coevolution.adversary {
            AdversaryStrategy::Tournament(k) => (0u8, k),
            AdversaryStrategy::All => (1u8, 0),
        };
        let (loss_mode, fixed_loss) = match c.mutation.loss_mode {
            LossMode::Fixed(l) => (0u8, wire_loss_id(l)),
            LossMode::Mutate => (1u8, 0),
        };
        Self {
            grid_rows: c.grid.rows,
            grid_cols: c.grid.cols,
            pattern: pattern_id(c.grid.pattern),
            latent_dim: c.network.latent_dim,
            hidden_layers: c.network.hidden_layers,
            hidden_units: c.network.hidden_units,
            data_dim: c.network.data_dim,
            iterations: c.coevolution.iterations,
            population_per_cell: c.coevolution.population_per_cell,
            tournament_size: c.coevolution.tournament_size,
            mixture_sigma: c.coevolution.mixture_sigma,
            mixture_every: c.coevolution.mixture_every,
            adversary_kind,
            adversary_k,
            initial_lr: c.mutation.initial_lr,
            mutation_rate: c.mutation.rate,
            mutation_probability: c.mutation.probability,
            loss_mode,
            fixed_loss,
            batch_size: c.training.batch_size,
            batches_per_iteration: c.training.batches_per_iteration,
            skip_disc_steps: c.training.skip_disc_steps,
            dataset_size: c.training.dataset_size,
            data_seed: c.training.data_seed,
            eval_batch: c.training.eval_batch,
            workers_per_cell: c.training.workers_per_cell,
            shard_data: c.training.shard_data,
            checkpoint_every: c.checkpoint.every,
            checkpoint_dir: c.checkpoint.dir.clone(),
            checkpoint_pause_after: c.checkpoint.pause_after,
            fault_heartbeat_interval_ms: c.fault.heartbeat_interval_ms,
            fault_heartbeat_misses: c.fault.heartbeat_misses,
            fault_max_stale_iters: c.fault.max_stale_iters,
            fault_plan: c.fault.plan.clone(),
            exchange_mode: exchange_id(c.exchange),
            telemetry_enabled: c.telemetry.enabled,
            telemetry_dir: c.telemetry.dir.clone(),
            telemetry_ring: c.telemetry.ring_capacity,
            seed: c.seed,
        }
    }
}

impl ConfigMsg {
    /// Rebuild the core config.
    ///
    /// # Panics
    /// Panics on invalid enum ids (protocol bug).
    pub fn into_config(self) -> TrainConfig {
        let adversary = match self.adversary_kind {
            0 => AdversaryStrategy::Tournament(self.adversary_k),
            1 => AdversaryStrategy::All,
            other => panic!("bad adversary kind {other}"),
        };
        let loss_mode = match self.loss_mode {
            0 => {
                let g = GanLoss::from_id(self.fixed_loss).expect("valid fixed loss id");
                LossMode::Fixed(g.into())
            }
            1 => LossMode::Mutate,
            other => panic!("bad loss mode {other}"),
        };
        TrainConfig {
            grid: GridConfig {
                rows: self.grid_rows,
                cols: self.grid_cols,
                pattern: pattern_from_id(self.pattern).expect("valid pattern id"),
            },
            network: NetworkSettings {
                latent_dim: self.latent_dim,
                hidden_layers: self.hidden_layers,
                hidden_units: self.hidden_units,
                data_dim: self.data_dim,
            },
            coevolution: CoevolutionConfig {
                iterations: self.iterations,
                population_per_cell: self.population_per_cell,
                tournament_size: self.tournament_size,
                mixture_sigma: self.mixture_sigma,
                mixture_every: self.mixture_every,
                adversary,
            },
            mutation: MutationConfig {
                initial_lr: self.initial_lr,
                rate: self.mutation_rate,
                probability: self.mutation_probability,
                loss_mode,
            },
            training: TrainingConfig {
                batch_size: self.batch_size,
                batches_per_iteration: self.batches_per_iteration,
                skip_disc_steps: self.skip_disc_steps,
                dataset_size: self.dataset_size,
                data_seed: self.data_seed,
                eval_batch: self.eval_batch,
                workers_per_cell: self.workers_per_cell,
                shard_data: self.shard_data,
            },
            checkpoint: CheckpointConfig {
                every: self.checkpoint_every,
                dir: self.checkpoint_dir,
                pause_after: self.checkpoint_pause_after,
            },
            fault: FaultConfig {
                heartbeat_interval_ms: self.fault_heartbeat_interval_ms,
                heartbeat_misses: self.fault_heartbeat_misses,
                max_stale_iters: self.fault_max_stale_iters,
                plan: self.fault_plan,
            },
            exchange: exchange_from_id(self.exchange_mode).expect("valid exchange mode id"),
            telemetry: TelemetryConfig {
                enabled: self.telemetry_enabled,
                dir: self.telemetry_dir,
                ring_capacity: self.telemetry_ring,
            },
            seed: self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_round_trips_exactly() {
        for cfg in [
            TrainConfig::paper_table1(),
            TrainConfig::smoke(2),
            TrainConfig::smoke(3).with_mustangs(),
            TrainConfig::smoke(2).with_workers(4),
            TrainConfig::smoke(2).with_shards(true),
            TrainConfig::smoke(2).with_checkpoints("/tmp/ckpt", 3).with_pause_after(1),
            TrainConfig::smoke(2).with_fault_plan("kill:3@2;delay:1>2:*@4:50", 2),
            TrainConfig::smoke(2).with_heartbeat(25, 4),
            TrainConfig::smoke(2).with_exchange(ExchangeMode::Async),
            TrainConfig::smoke(2).with_telemetry("tel/run1", 4096),
        ] {
            let msg = ConfigMsg::from(&cfg);
            let bytes = msg.to_bytes();
            let back = ConfigMsg::from_bytes(&bytes).unwrap().into_config();
            assert_eq!(back, cfg);
        }
    }

    #[test]
    fn config_with_all_strategy_round_trips() {
        let mut cfg = TrainConfig::smoke(2);
        cfg.coevolution.adversary = AdversaryStrategy::All;
        cfg.grid.pattern = NeighborhoodPattern::Moore9;
        let back =
            ConfigMsg::from_bytes(&ConfigMsg::from(&cfg).to_bytes()).unwrap().into_config();
        assert_eq!(back, cfg);
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = CellSnapshot {
            cell: 7,
            gen_genome: vec![1.0, -2.0, 3.0],
            gen_lr: 2e-4,
            gen_loss: GanLoss::LeastSquares,
            gen_fitness: 0.75,
            disc_genome: vec![0.5; 8],
            disc_lr: 1e-4,
            disc_fitness: 0.25,
        };
        let msg = SnapshotMsg::from(&snap);
        let back = SnapshotMsg::from_bytes(&msg.to_bytes()).unwrap().into_snapshot();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_decode_into_recycled_equals_fresh_decode() {
        let big = CellSnapshot {
            cell: 1,
            gen_genome: (0..40).map(|i| i as f32 * 0.5).collect(),
            gen_lr: 1e-3,
            gen_loss: GanLoss::Heuristic,
            gen_fitness: 9.0,
            disc_genome: vec![f32::NAN; 30],
            disc_lr: 2e-3,
            disc_fitness: -9.0,
        };
        let small = CellSnapshot {
            cell: 6,
            gen_genome: vec![-0.0, f32::MIN_POSITIVE / 2.0],
            gen_lr: 3e-4,
            gen_loss: GanLoss::LeastSquares,
            gen_fitness: 0.125,
            disc_genome: Vec::new(),
            disc_lr: 4e-4,
            disc_fitness: 0.5,
        };
        let wire = |s: &CellSnapshot| SnapshotMsg::from(s).to_bytes();
        let bits = |g: &[f32]| g.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        // One slot, refilled by a bigger, a smaller, then the bigger
        // snapshot again: always exactly the fresh decode, never a leftover.
        let mut slot = CellSnapshot::empty();
        for snap in [&big, &small, &big] {
            SnapshotMsg::decode_snapshot_into(&wire(snap), &mut slot).unwrap();
            let fresh = SnapshotMsg::from_bytes(&wire(snap)).unwrap().into_snapshot();
            assert_eq!(bits(&slot.gen_genome), bits(&fresh.gen_genome));
            assert_eq!(bits(&slot.disc_genome), bits(&snap.disc_genome));
            let scalars = |s: &CellSnapshot| {
                (s.cell, s.gen_lr, s.gen_loss, s.gen_fitness, s.disc_lr, s.disc_fitness)
            };
            assert_eq!(scalars(&slot), scalars(snap));
        }
        // The third decode reused the buffers the first one sized.
        let (gen_at, disc_at) = (slot.gen_genome.as_ptr(), slot.disc_genome.as_ptr());
        SnapshotMsg::decode_snapshot_into(&wire(&big), &mut slot).unwrap();
        assert_eq!((slot.gen_genome.as_ptr(), slot.disc_genome.as_ptr()), (gen_at, disc_at));
    }

    #[test]
    fn malformed_snapshots_are_refused() {
        let snap = CellSnapshot {
            cell: 2,
            gen_genome: vec![1.0; 5],
            gen_lr: 1e-4,
            gen_loss: GanLoss::Minimax,
            gen_fitness: 0.0,
            disc_genome: vec![2.0; 3],
            disc_lr: 1e-4,
            disc_fitness: 0.0,
        };
        let wire = SnapshotMsg::from(&snap).to_bytes();
        let mut slot = CellSnapshot::empty();
        for cut in 0..wire.len() {
            assert!(SnapshotMsg::decode_snapshot_into(&wire[..cut], &mut slot).is_err());
            assert!(SnapshotMsg::from_bytes(&wire[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = wire.clone();
        trailing.push(0);
        assert!(SnapshotMsg::decode_snapshot_into(&trailing, &mut slot).is_err());
        // The loss id sits after the cell, the generator genome and its lr.
        let mut bad_loss = wire.clone();
        bad_loss[8 + 4 + 5 * 4 + 4] = 0xEE;
        assert!(SnapshotMsg::decode_snapshot_into(&bad_loss, &mut slot).is_err());
        assert!(SnapshotMsg::from_bytes(&bad_loss).is_err());
        // A genome length the bytes cannot back.
        let mut hostile = wire;
        hostile[8..12].copy_from_slice(&0x4000_0000u32.to_le_bytes());
        assert!(SnapshotMsg::decode_snapshot_into(&hostile, &mut slot).is_err());
    }

    #[test]
    fn direct_snapshot_encode_matches_message_encode() {
        // The scratch-buffer fast path must stay byte-identical to the
        // struct-based encoding, or mixed-version ranks would diverge.
        let snap = CellSnapshot {
            cell: 3,
            gen_genome: vec![0.25; 17],
            gen_lr: 3e-4,
            gen_loss: GanLoss::Minimax,
            gen_fitness: -1.5,
            disc_genome: vec![-0.75; 9],
            disc_lr: 5e-4,
            disc_fitness: 2.25,
        };
        let mut direct = Vec::new();
        SnapshotMsg::encode_snapshot(&snap, &mut direct);
        assert_eq!(direct, SnapshotMsg::from(&snap).to_bytes());
        // And it appends (scratch reuse clears before encoding, not here).
        let mut appended = vec![0xAA];
        SnapshotMsg::encode_snapshot(&snap, &mut appended);
        assert_eq!(&appended[1..], &direct[..]);
    }

    #[test]
    fn run_task_round_trips() {
        for (resume_from, rejoin_round) in
            [(None, None), (Some(7usize), None), (Some(2), Some(4))]
        {
            let task = RunTask {
                config: ConfigMsg::from(&TrainConfig::smoke(2)),
                cell_index: 3,
                resume_from,
                rejoin_round,
            };
            let back = RunTask::from_bytes(&task.to_bytes()).unwrap();
            assert_eq!(back, task);
        }
    }

    #[test]
    fn cache_response_round_trips() {
        for frame in [None, Some(vec![vec![1u8, 2, 3], vec![], vec![9u8; 5]])] {
            let as_vecs = frame.clone().to_bytes();
            let frame = frame.map(|parts| parts.into_iter().map(Payload::from).collect());
            let resp = CacheResponse { frame };
            assert_eq!(resp.to_bytes(), as_vecs, "same bytes as Option<Vec<Vec<u8>>>");
            assert_eq!(CacheResponse::from_bytes(&resp.to_bytes()).unwrap(), resp);
        }
    }

    #[test]
    fn slave_result_round_trips() {
        let r = SlaveResult {
            cell: 2,
            gen_fitness: 0.5,
            disc_fitness: 0.75,
            mixture: vec![0.2, 0.8],
            ensemble: vec![vec![1.0, -2.0, 3.0], vec![0.5; 4]],
            profile: vec![ProfileRowMsg { routine: "train".into(), seconds: 1.5, calls: 10 }],
            wall_seconds: 2.25,
            telemetry: None,
        };
        let back = SlaveResult::from_bytes(&r.to_bytes()).unwrap();
        assert_eq!(back, r);
        let report = back.profile_report();
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].routine, "train");
    }

    #[test]
    fn status_and_announcement_round_trip() {
        let s = StatusReport { state: 1, iterations_done: 42 };
        assert_eq!(StatusReport::from_bytes(&s.to_bytes()).unwrap(), s);
        let a = NodeAnnouncement { rank: 5, node_name: "node03".into() };
        assert_eq!(NodeAnnouncement::from_bytes(&a.to_bytes()).unwrap(), a);
    }

    #[test]
    fn telemetry_summary_round_trips() {
        let mut s = lipiz_telemetry::TelemetrySummary::empty();
        s.rank = 3;
        s.cell = 2;
        s.iterations = 6;
        s.gather_ns.observe(1_500);
        s.gather_ns.observe(900_000);
        s.train_ns.observe(4_000_000);
        s.exchange_wall_ns = 5_000_000;
        s.checkpoints = 3;
        s.degraded_iters = 2;
        s.staleness = 1;
        s.rejoined = 1;
        s.dropped_events = 9;
        let msg = TelemetrySummaryMsg::from(&s);
        let back = TelemetrySummaryMsg::from_bytes(&msg.to_bytes()).unwrap().into_summary();
        assert_eq!(back, s);

        // A result carrying a summary round-trips too.
        let r = SlaveResult {
            cell: 2,
            gen_fitness: 0.5,
            disc_fitness: 0.75,
            mixture: vec![1.0],
            ensemble: vec![vec![0.5]],
            profile: Vec::new(),
            wall_seconds: 1.0,
            telemetry: Some(msg),
        };
        assert_eq!(SlaveResult::from_bytes(&r.to_bytes()).unwrap(), r);
    }

    #[test]
    fn corrupted_config_is_rejected() {
        let msg = ConfigMsg::from(&TrainConfig::smoke(2));
        let bytes = msg.to_bytes();
        assert!(ConfigMsg::from_bytes(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn tags_are_distinct() {
        let all = [
            tags::NODE_NAME,
            tags::RUN_TASK,
            tags::STATUS_REQ,
            tags::STATUS_RESP,
            tags::CACHE_REQ,
            tags::CACHE_RESP,
            tags::TELEMETRY,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
