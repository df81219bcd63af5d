//! Deterministic resume: the complete training state of one cell as plain
//! data.
//!
//! A [`CellState`] captures *everything* a [`crate::cell::CellEngine`]
//! needs to continue a run bit-exactly from an iteration boundary: both
//! sub-populations, the Adam moments and step counts, the mixture weights,
//! every derived RNG stream (including a pending Box–Muller spare), the
//! iteration and batch counters, and the data-loader cursor. The dataset
//! itself is *not* captured — every rank re-derives it from the
//! configuration, exactly as it does at run start.
//!
//! The state's encoding is declared here, on the type (`CellState: Wire`,
//! composed from the `Wire` impls of the state types it holds), next to
//! its validation: bytes that decode are only structurally a state, and
//! [`CellState::validate`] is what makes them one for a given config. The
//! file around those bytes (version, checksum, atomic commit, the async
//! background writer) is `lipiz-runtime`'s checkpoint module. The proof
//! obligation is the repo's signature one: a run
//! checkpointed at iteration `k` and resumed must produce a byte-identical
//! `.lpz` to the uninterrupted run, across all four drivers.

use crate::config::TrainConfig;
use crate::individual::Individual;
use crate::snapshot::{CellSnapshot, GenomeLens, SnapshotRef};
use crate::topology::Grid;
use lipiz_data::BatchLoaderState;
use lipiz_nn::AdamState;
use lipiz_tensor::Rng64State;
use std::fmt;

/// Validation failure for a captured cell state against a configuration.
///
/// A state that fails validation must never be restored partially — the
/// checkpoint layer surfaces this as a typed load error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// A structural invariant of the state is violated.
    Invariant(&'static str),
    /// The exchange frame lacks — empty, or mis-sized — slot `slot`, which
    /// cell `cell` reads: resuming would train against nothing.
    MissingNeighbor {
        /// The cell the state belongs to.
        cell: usize,
        /// The neighbour's frame slot (its flat grid index).
        slot: usize,
    },
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Invariant(what) => write!(f, "invalid cell state: {what}"),
            StateError::MissingNeighbor { cell, slot } => write!(
                f,
                "invalid cell state: exchange frame lacks neighbour slot {slot} of cell {cell}"
            ),
        }
    }
}

impl std::error::Error for StateError {}

/// The full training state of one grid cell at an iteration boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct CellState {
    /// Flat grid index of the cell.
    pub cell: usize,
    /// Iterations completed when the state was captured.
    pub iteration: usize,
    /// Mini-batches consumed so far (drives the disc-skip schedule).
    pub batch_counter: u64,
    /// Generator sub-population, center first.
    pub gen_members: Vec<Individual>,
    /// Discriminator sub-population, center first.
    pub disc_members: Vec<Individual>,
    /// Mixture weights (already normalized; restored bit-exactly, never
    /// renormalized).
    pub mixture: Vec<f32>,
    /// Generator Adam optimizer state.
    pub adam_g: AdamState,
    /// Discriminator Adam optimizer state.
    pub adam_d: AdamState,
    /// Hyperparameter-mutation RNG stream.
    pub rng_mutate: Rng64State,
    /// Training RNG stream (latents, tournaments).
    pub rng_train: Rng64State,
    /// Mixture-evolution RNG stream.
    pub rng_mixture: Rng64State,
    /// Mini-batch loader cursor (the data-ring position).
    pub loader: BatchLoaderState,
    /// The neighbor-exchange frame the *next* iteration will consume:
    /// under `--exchange async` the run is one snapshot generation behind,
    /// so a checkpoint cut must carry the completed frame along — one slot
    /// per grid cell, of which exactly the slots this cell reads
    /// ([`crate::Grid::neighbors`]) are populated and the rest are
    /// [`CellSnapshot::empty`], whichever driver wrote the cut. Empty in
    /// sync mode (the next iteration gathers its own frame).
    pub exchange_frame: Vec<CellSnapshot>,
}
lipiz_wire::wire_struct!(CellState {
    cell,
    iteration,
    batch_counter,
    gen_members,
    disc_members,
    mixture,
    adam_g,
    adam_d,
    rng_mutate,
    rng_train,
    rng_mixture,
    loader,
    exchange_frame,
});

impl CellState {
    /// Check the state against the configuration it claims to belong to.
    /// Every structural invariant the restore path relies on is verified
    /// here, so a corrupted or mismatched checkpoint fails loudly instead
    /// of restoring a half-consistent engine.
    pub fn validate(&self, cfg: &TrainConfig) -> Result<(), StateError> {
        let err = |what| Err(StateError::Invariant(what));
        if self.cell >= cfg.cells() {
            return err("cell index outside the grid");
        }
        if self.iteration > cfg.coevolution.iterations {
            return err("iteration beyond the configured run length");
        }
        let s = cfg.subpopulation_size();
        if self.gen_members.len() != s || self.disc_members.len() != s {
            return err("sub-population size vs neighborhood");
        }
        if self.mixture.len() != s {
            return err("mixture weight count vs sub-population");
        }
        if !self.mixture.iter().all(|w| w.is_finite() && *w >= 0.0) {
            return err("mixture weights not finite and non-negative");
        }
        let lens = GenomeLens::of(cfg);
        if self.gen_members.iter().any(|m| m.genome.len() != lens.gen) {
            return err("generator genome length vs topology");
        }
        if self.disc_members.iter().any(|m| m.genome.len() != lens.disc) {
            return err("discriminator genome length vs topology");
        }
        if self.adam_g.m.len() != lens.gen || self.adam_g.v.len() != lens.gen {
            return err("generator Adam width vs topology");
        }
        if self.adam_d.m.len() != lens.disc || self.adam_d.v.len() != lens.disc {
            return err("discriminator Adam width vs topology");
        }
        if self.loader.cursor > self.loader.order.len() {
            return err("loader cursor beyond its permutation");
        }
        if !self.exchange_frame.is_empty() {
            if self.exchange_frame.len() != cfg.cells() {
                return err("exchange frame size vs grid");
            }
            let sized = |s: &CellSnapshot| SnapshotRef::from(s).genome_lens() == lens;
            for slot in Grid::from_config(&cfg.grid).neighbors(self.cell) {
                if !sized(&self.exchange_frame[slot]) {
                    return Err(StateError::MissingNeighbor { cell: self.cell, slot });
                }
            }
            // Slots the cell does not read are empty in a cut of this build
            // and populated in one an older build wrote; either is fine.
            if !self.exchange_frame.iter().all(|s| s.is_empty() || sized(s)) {
                return err("exchange frame genome length vs topology");
            }
        }
        Ok(())
    }
}

/// Assert a whole grid's captured states form a resumable set: one state
/// per cell, in flat grid order, all from the same iteration cut. Shared
/// by every driver's resume path so the invariants cannot drift apart.
///
/// # Panics
/// Panics on a count mismatch, out-of-order cells, or a torn cut.
pub fn assert_grid_states(states: &[CellState], cells: usize) {
    assert_eq!(states.len(), cells, "cell state count vs grid");
    for (i, s) in states.iter().enumerate() {
        assert_eq!(s.cell, i, "cell states out of grid order");
        assert_eq!(
            s.iteration, states[0].iteration,
            "cell states from different iterations (torn checkpoint)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellEngine;
    use lipiz_tensor::{Matrix, Rng64};

    fn toy_data(cfg: &TrainConfig) -> Matrix {
        let mut rng = Rng64::seed_from(cfg.training.data_seed);
        rng.uniform_matrix(cfg.training.dataset_size, cfg.network.data_dim, -0.9, 0.9)
    }

    fn captured_state() -> (TrainConfig, CellState) {
        let cfg = TrainConfig::smoke(2);
        let mut engine = CellEngine::new(1, &cfg, toy_data(&cfg));
        (cfg.clone(), engine.capture_state())
    }

    #[test]
    fn captured_state_validates() {
        let (cfg, state) = captured_state();
        assert!(state.validate(&cfg).is_ok());
    }

    type Corruption = Box<dyn Fn(&mut CellState)>;

    #[test]
    fn validation_rejects_structural_corruption() {
        let (cfg, base) = captured_state();
        let cases: Vec<(&'static str, Corruption)> = vec![
            ("cell index", Box::new(|s| s.cell = 99)),
            ("iteration", Box::new(|s| s.iteration = 1000)),
            (
                "pop size",
                Box::new(|s| {
                    s.gen_members.pop();
                }),
            ),
            ("mixture count", Box::new(|s| s.mixture.push(0.0))),
            ("mixture nan", Box::new(|s| s.mixture[0] = f32::NAN)),
            (
                "gen genome len",
                Box::new(|s| {
                    s.gen_members[2].genome.pop();
                }),
            ),
            ("disc genome len", Box::new(|s| s.disc_members[0].genome.push(0.0))),
            (
                "adam width",
                Box::new(|s| {
                    s.adam_g.m.pop();
                }),
            ),
            ("loader cursor", Box::new(|s| s.loader.cursor = usize::MAX)),
        ];
        for (label, mutate) in cases {
            let mut state = base.clone();
            mutate(&mut state);
            assert!(state.validate(&cfg).is_err(), "corruption not caught: {label}");
        }
    }

    /// Cell 1 of the 2×2 smoke grid reads slots 3 (N, S) and 0 (W, E).
    fn async_cut(populated: &[usize]) -> (TrainConfig, CellState) {
        let (cfg, mut state) = captured_state();
        let snap = CellEngine::new(0, &cfg, toy_data(&cfg)).snapshot();
        state.exchange_frame = vec![CellSnapshot::empty(); cfg.cells()];
        for &slot in populated {
            state.exchange_frame[slot] = snap.clone();
        }
        (cfg, state)
    }

    #[test]
    fn a_frame_holding_exactly_the_read_slots_validates_and_so_does_a_full_one() {
        for populated in [&[0, 3][..], &[0, 1, 2, 3]] {
            let (cfg, state) = async_cut(populated);
            assert_eq!(state.validate(&cfg), Ok(()), "slots {populated:?}");
        }
    }

    #[test]
    fn a_frame_lacking_a_slot_the_cell_reads_is_a_typed_error() {
        let missing = StateError::MissingNeighbor { cell: 1, slot: 3 };
        let (cfg, state) = async_cut(&[0, 1, 2]);
        assert_eq!(state.validate(&cfg), Err(missing.clone()), "empty read slot");
        let (cfg, mut state) = async_cut(&[0, 3]);
        state.exchange_frame[3].gen_genome.pop();
        assert_eq!(state.validate(&cfg), Err(missing.clone()), "mis-sized read slot");
        assert_eq!(
            missing.to_string(),
            "invalid cell state: exchange frame lacks neighbour slot 3 of cell 1"
        );
        // A slot nobody reads may be empty, but not half a snapshot.
        let (cfg, mut state) = async_cut(&[0, 2, 3]);
        state.exchange_frame[2].disc_genome.clear();
        assert_eq!(
            state.validate(&cfg),
            Err(StateError::Invariant("exchange frame genome length vs topology"))
        );
    }

    #[test]
    fn validation_rejects_config_mismatch() {
        let (_, state) = captured_state();
        // A 2x2-grid state must not restore under a different topology.
        let mut other = TrainConfig::smoke(2);
        other.network.hidden_units = 12;
        assert!(state.validate(&other).is_err());
    }
}
