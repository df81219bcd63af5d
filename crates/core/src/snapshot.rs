//! Center snapshots — the unit of inter-cell migration.

use crate::individual::Individual;
use lipiz_nn::GanLoss;

/// Everything a neighborhood needs to know about one cell's center pair.
///
/// This is exactly what the gather phase moves between cells: in the
/// sequential driver it is a clone, in the distributed runtime it is the
/// allgather payload (serialized by `lipiz-runtime`'s protocol layer), and
/// in the cluster simulator its byte size drives the communication cost
/// model.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSnapshot {
    /// Flat grid index of the originating cell.
    pub cell: usize,
    /// Center generator genome.
    pub gen_genome: Vec<f32>,
    /// Generator learning rate.
    pub gen_lr: f32,
    /// Generator loss variant (Mustangs gene).
    pub gen_loss: GanLoss,
    /// Generator fitness (lower better).
    pub gen_fitness: f64,
    /// Center discriminator genome.
    pub disc_genome: Vec<f32>,
    /// Discriminator learning rate.
    pub disc_lr: f32,
    /// Discriminator fitness (lower better).
    pub disc_fitness: f64,
}

impl CellSnapshot {
    /// An empty snapshot shell for recycled buffers (filled by
    /// `CellEngine::snapshot_into` or [`CellSnapshot::copy_from`]).
    pub fn empty() -> Self {
        Self {
            cell: 0,
            gen_genome: Vec::new(),
            gen_lr: 0.0,
            gen_loss: GanLoss::Heuristic,
            gen_fitness: 0.0,
            disc_genome: Vec::new(),
            disc_lr: 0.0,
            disc_fitness: 0.0,
        }
    }

    /// Overwrite `self` with `src`, reusing both genome buffers — the
    /// zero-allocation analogue of `clone` for snapshot fan-out in the
    /// drivers.
    pub fn copy_from(&mut self, src: &CellSnapshot) {
        self.cell = src.cell;
        self.gen_genome.clear();
        self.gen_genome.extend_from_slice(&src.gen_genome);
        self.gen_lr = src.gen_lr;
        self.gen_loss = src.gen_loss;
        self.gen_fitness = src.gen_fitness;
        self.disc_genome.clear();
        self.disc_genome.extend_from_slice(&src.disc_genome);
        self.disc_lr = src.disc_lr;
        self.disc_fitness = src.disc_fitness;
    }

    /// Encoded payload size in bytes (used by the comm cost model):
    /// 4 bytes per f32 plus fixed header fields.
    pub fn wire_size(&self) -> usize {
        let floats = self.gen_genome.len() + self.disc_genome.len();
        // genomes + (cell, lrs, loss id, fitnesses) header + 2 length prefixes
        floats * 4 + 8 + 4 + 4 + 1 + 8 + 8 + 8
    }

    /// View the generator half as an [`Individual`].
    pub fn gen_individual(&self) -> Individual {
        Individual {
            genome: self.gen_genome.clone(),
            lr: self.gen_lr,
            loss: self.gen_loss,
            fitness: self.gen_fitness,
        }
    }

    /// View the discriminator half as an [`Individual`].
    pub fn disc_individual(&self) -> Individual {
        Individual {
            genome: self.disc_genome.clone(),
            lr: self.disc_lr,
            loss: GanLoss::Heuristic,
            fitness: self.disc_fitness,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> CellSnapshot {
        CellSnapshot {
            cell: 3,
            gen_genome: vec![1.0; 10],
            gen_lr: 2e-4,
            gen_loss: GanLoss::LeastSquares,
            gen_fitness: 0.5,
            disc_genome: vec![2.0; 6],
            disc_lr: 3e-4,
            disc_fitness: 0.25,
        }
    }

    #[test]
    fn wire_size_tracks_genomes() {
        let s = snap();
        let base = s.wire_size();
        let mut bigger = s.clone();
        bigger.gen_genome.extend_from_slice(&[0.0; 5]);
        assert_eq!(bigger.wire_size(), base + 20);
    }

    #[test]
    fn individual_views_carry_fields() {
        let s = snap();
        let g = s.gen_individual();
        assert_eq!(g.genome, vec![1.0; 10]);
        assert_eq!(g.loss, GanLoss::LeastSquares);
        assert_eq!(g.fitness, 0.5);
        let d = s.disc_individual();
        assert_eq!(d.genome, vec![2.0; 6]);
        assert_eq!(d.fitness, 0.25);
    }
}
