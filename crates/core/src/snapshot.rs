//! Center snapshots — the unit of inter-cell migration.

use crate::individual::Individual;
use lipiz_nn::GanLoss;
use lipiz_wire::{Wire, WireError};

/// Everything a neighborhood needs to know about one cell's center pair.
///
/// This is exactly what the gather phase moves between cells: in the
/// sequential driver it is a clone, in the distributed runtime it is the
/// allgather payload (its [`Wire`] encoding, which is also how it sits in a
/// checkpoint's exchange frame), and in the cluster simulator its byte size
/// drives the communication cost model.
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

impl Wire for CellSnapshot {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.cell.encode(buf);
        self.gen_genome.encode(buf);
        self.gen_lr.encode(buf);
        self.gen_loss.encode(buf);
        self.gen_fitness.encode(buf);
        self.disc_genome.encode(buf);
        self.disc_lr.encode(buf);
        self.disc_fitness.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let mut snap = Self::empty();
        snap.decode_fields(buf)?;
        Ok(snap)
    }
}

impl CellSnapshot {
    /// Decode one snapshot from the front of `buf` into `self`, reusing
    /// both genome buffers.
    fn decode_fields(&mut self, buf: &mut &[u8]) -> Result<(), WireError> {
        self.cell = usize::decode(buf)?;
        f32::decode_into(buf, &mut self.gen_genome)?;
        self.gen_lr = f32::decode(buf)?;
        self.gen_loss = GanLoss::decode(buf)?;
        self.gen_fitness = f64::decode(buf)?;
        f32::decode_into(buf, &mut self.disc_genome)?;
        self.disc_lr = f32::decode(buf)?;
        self.disc_fitness = f64::decode(buf)?;
        Ok(())
    }

    /// Decode `bytes` — one complete encoded snapshot — into `self`,
    /// overwriting every field and reusing both genome buffers, so a frame
    /// slot that has held a snapshot before is refilled without allocating.
    /// `CellSnapshot::from_bytes(bytes)` is this routine applied to
    /// [`CellSnapshot::empty`]. Truncated input, trailing bytes, a genome
    /// length the bytes cannot back and an invalid loss id are errors;
    /// `self` is unspecified after one.
    pub fn decode_from(&mut self, mut bytes: &[u8]) -> Result<(), WireError> {
        self.decode_fields(&mut bytes)?;
        if !bytes.is_empty() {
            return Err(WireError::new("trailing bytes"));
        }
        Ok(())
    }

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

    /// True for a snapshot that holds no genomes: the shell
    /// [`CellSnapshot::empty`] returns, which is what every exchange-frame
    /// slot a rank does not read stays for the life of the run.
    pub fn is_empty(&self) -> bool {
        self.gen_genome.is_empty() && self.disc_genome.is_empty()
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
    fn snapshot_round_trips() {
        let s = snap();
        assert_eq!(s.to_bytes().len(), s.wire_size());
        assert_eq!(CellSnapshot::from_bytes(&s.to_bytes()).unwrap(), s);
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
        let bits = |g: &[f32]| g.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        // One slot, refilled by a bigger, a smaller, then the bigger
        // snapshot again: always exactly the fresh decode, never a leftover.
        let mut slot = CellSnapshot::empty();
        for snap in [&big, &small, &big] {
            slot.decode_from(&snap.to_bytes()).unwrap();
            let fresh = CellSnapshot::from_bytes(&snap.to_bytes()).unwrap();
            assert_eq!(bits(&slot.gen_genome), bits(&fresh.gen_genome));
            assert_eq!(bits(&slot.disc_genome), bits(&snap.disc_genome));
            let scalars = |s: &CellSnapshot| {
                (s.cell, s.gen_lr, s.gen_loss, s.gen_fitness, s.disc_lr, s.disc_fitness)
            };
            assert_eq!(scalars(&slot), scalars(snap));
        }
        // The third decode reused the buffers the first one sized.
        let (gen_at, disc_at) = (slot.gen_genome.as_ptr(), slot.disc_genome.as_ptr());
        slot.decode_from(&big.to_bytes()).unwrap();
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
        let wire = snap.to_bytes();
        let mut slot = CellSnapshot::empty();
        for cut in 0..wire.len() {
            assert!(slot.decode_from(&wire[..cut]).is_err());
            assert!(CellSnapshot::from_bytes(&wire[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = wire.clone();
        trailing.push(0);
        assert!(slot.decode_from(&trailing).is_err());
        // The loss id sits after the cell, the generator genome and its lr.
        let mut bad_loss = wire.clone();
        bad_loss[8 + 4 + 5 * 4 + 4] = 0xEE;
        assert!(slot.decode_from(&bad_loss).is_err());
        assert!(CellSnapshot::from_bytes(&bad_loss).is_err());
        // A genome length the bytes cannot back.
        let mut hostile = wire;
        hostile[8..12].copy_from_slice(&0x4000_0000u32.to_le_bytes());
        assert!(slot.decode_from(&hostile).is_err());
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
