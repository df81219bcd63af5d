//! Tags and typed messages of the master/slave protocol.
//!
//! The paper's master sends every slave "config + cell assignment" and
//! gets a result back (Fig. 3, §III-D). Four messages carry that: a
//! [`NodeAnnouncement`] and a [`RunTask`] at start-up, [`StatusReport`]
//! heartbeats, and the final [`SlaveResult`]. What they carry —
//! [`TrainConfig`], [`TelemetrySummary`], snapshots — travels as the real
//! type: each declares its own [`Wire`] encoding where
//! it is defined, so this module defines no copies of them. A replacement
//! rank's death-frame fetch needs no type of its own: it asks a neighbour
//! for one slot by index and gets back that slot's frozen encoded snapshot,
//! or nothing yet ([`tags::CACHE_REQ`] / [`tags::CACHE_RESP`]).

use lipiz_core::{CellSnapshot, TrainConfig};
use lipiz_mpi::wire::{Wire, WireError};
use lipiz_mpi::wire_struct;
use lipiz_telemetry::TelemetrySummary;

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
    /// Replacement slave → a neighbour: request for one slot of the frozen
    /// death-frame (a `usize` cell index) — the snapshots its catch-up
    /// trains against.
    pub const CACHE_REQ: u32 = 14;
    /// Neighbour → replacement slave: that slot's frozen encoded snapshot
    /// (an `Option<Payload>`, `None` while the neighbour has not frozen it
    /// yet — the requester polls).
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
    /// The run's full training configuration.
    pub config: TrainConfig,
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

/// Heartbeat status response.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusReport {
    /// Current state id ([`crate::state::SlaveState`]).
    pub state: u8,
    /// Iterations completed so far.
    pub iterations_done: u64,
}
wire_struct!(StatusReport { state, iterations_done });

/// [`CellSnapshot`]'s own codec under the three names `benchmark/` pins
/// (`encode_snapshot`, `from_bytes`, `into_snapshot`). Unused in the
/// workspace; goes when a `benchmark` issue re-pins them (ROADMAP).
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotMsg(CellSnapshot);

impl Wire for SnapshotMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        CellSnapshot::decode(buf).map(Self)
    }
}

impl SnapshotMsg {
    /// `s.encode(buf)`.
    pub fn encode_snapshot(s: &CellSnapshot, buf: &mut Vec<u8>) {
        s.encode(buf);
    }
    /// The decoded snapshot.
    pub fn into_snapshot(self) -> CellSnapshot {
        self.0
    }
}

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
    /// Wall seconds this slave spent in the training loop.
    pub wall_seconds: f64,
    /// The rank's one final aggregate. Its routine totals — the slave's
    /// Table IV rows, `ProfileReport::rank_mean` is the view — are always
    /// populated; the histograms only when telemetry is on.
    pub telemetry: TelemetrySummary,
}
wire_struct!(SlaveResult {
    cell,
    gen_fitness,
    disc_fitness,
    mixture,
    ensemble,
    wall_seconds,
    telemetry,
});

#[cfg(test)]
mod tests {
    use super::*;
    use lipiz_nn::GanLoss;

    #[test]
    fn direct_snapshot_encode_matches_message_encode() {
        // The pinned shim must stay byte-identical to the type's own codec.
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
        assert_eq!(direct, snap.to_bytes());
        assert_eq!(SnapshotMsg::from_bytes(&direct).unwrap().into_snapshot(), snap);
        // And it appends (scratch reuse clears before encoding, not here).
        let mut appended = vec![0xAA];
        SnapshotMsg::encode_snapshot(&snap, &mut appended);
        assert_eq!(&appended[1..], &direct[..]);
    }

    fn task(resume_from: Option<usize>, rejoin_round: Option<usize>) -> RunTask {
        RunTask { config: TrainConfig::smoke(2), cell_index: 3, resume_from, rejoin_round }
    }

    #[test]
    fn run_task_round_trips() {
        for (resume_from, rejoin_round) in [(None, None), (Some(7), None), (Some(2), Some(4))] {
            let task = task(resume_from, rejoin_round);
            let back = RunTask::from_bytes(&task.to_bytes()).unwrap();
            assert_eq!(back, task);
        }
    }

    #[test]
    fn run_task_with_an_unknown_enum_id_is_refused() {
        // The config leads the task; its pattern id follows `rows` and `cols`.
        let mut wire = task(None, None).to_bytes();
        assert_eq!(wire[16], 0, "Cross5");
        wire[16] = 9;
        assert!(RunTask::from_bytes(&wire).is_err());
    }

    fn result_with(telemetry: TelemetrySummary) -> SlaveResult {
        SlaveResult {
            cell: 2,
            gen_fitness: 0.5,
            disc_fitness: 0.75,
            mixture: vec![0.2, 0.8],
            ensemble: vec![vec![1.0, -2.0, 3.0], vec![0.5; 4]],
            wall_seconds: 2.25,
            telemetry,
        }
    }

    #[test]
    fn slave_result_round_trips() {
        let r = result_with(TelemetrySummary::empty());
        let back = SlaveResult::from_bytes(&r.to_bytes()).unwrap();
        assert_eq!(back, r);
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
        let mut s = TelemetrySummary::empty();
        s.rank = 3;
        s.cell = 2;
        s.iterations = 6;
        s.routine_ns = [901_500, 4_000_000, 7, 0, u64::MAX];
        s.routine_calls = [2, 1, 1, 0, 3];
        s.gather_ns.observe(1_500);
        s.gather_ns.observe(900_000);
        s.train_ns.observe(4_000_000);
        s.exchange_wall_ns = 5_000_000;
        s.checkpoints = 3;
        s.degraded_iters = 2;
        s.staleness = 1;
        s.rejoined = 1;
        s.dropped_events = 9;
        let wire = s.to_bytes();
        assert_eq!(TelemetrySummary::from_bytes(&wire).unwrap(), s);
        // A malformed report is a decode error, never a panic in the master:
        // every truncation is refused.
        for cut in 0..wire.len() {
            assert!(TelemetrySummary::from_bytes(&wire[..cut]).is_err(), "cut at {cut}");
        }

        // A result carrying a summary round-trips too.
        let r = result_with(s);
        assert_eq!(SlaveResult::from_bytes(&r.to_bytes()).unwrap(), r);
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
