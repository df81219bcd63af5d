//! Center snapshots — the unit of inter-cell migration — in the three forms
//! a run handles them: decoded ([`CellSnapshot`]), borrowed whatever their
//! form ([`SnapshotRef`]), and still in the buffer they were encoded or
//! arrived in ([`EncodedSnapshot`]).

use crate::config::TrainConfig;
use crate::individual::Individual;
use lipiz_nn::GanLoss;
use lipiz_wire::{sequence_len, Payload, Wire, WireError};
use std::fmt;
use std::ops::Range;

/// Everything a neighborhood needs to know about one cell's center pair.
///
/// This is exactly what the gather phase moves between cells: its [`Wire`]
/// encoding is what a rank posts to the ranks that read it and how it sits
/// in a checkpoint's exchange frame, and in the cluster simulator its byte
/// size drives the communication cost model. An exchange frame holds it
/// encoded ([`EncodedSnapshot`]); this decoded form is what a checkpoint cut
/// carries.
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
        SnapshotRef::from(self).encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let bytes = *buf;
        let layout = Layout::read(bytes)?;
        let mut snap = Self::empty();
        snap.copy_from(layout.view(bytes));
        *buf = &bytes[layout.end..];
        Ok(snap)
    }
}

impl CellSnapshot {
    /// Decode `bytes` — one complete encoded snapshot — into `self`,
    /// overwriting every field and reusing both genome buffers, so a
    /// snapshot that has held one before is refilled without allocating.
    /// `CellSnapshot::from_bytes(bytes)` is this routine applied to
    /// [`CellSnapshot::empty`], and [`EncodedSnapshot::parse`] refuses
    /// exactly what it refuses, with the same error: truncated input,
    /// trailing bytes, a genome length the bytes cannot back and an invalid
    /// loss id. `self` is left as it was after an error.
    pub fn decode_from(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let layout = Layout::read_all(bytes)?;
        self.copy_from(layout.view(bytes));
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
    /// [`CellSnapshot::empty`] returns, which is what every slot of a
    /// checkpoint's exchange frame that its cell does not read holds.
    pub fn is_empty(&self) -> bool {
        self.gen_genome.is_empty() && self.disc_genome.is_empty()
    }

    /// Overwrite `self` with `src` — another decoded snapshot, or an
    /// encoded one decoded straight from its bytes — reusing both genome
    /// buffers: the zero-allocation analogue of `clone`.
    pub fn copy_from<'a>(&mut self, src: impl Into<SnapshotRef<'a>>) {
        let src = src.into();
        self.cell = src.cell;
        src.gen_genome.copy_into(&mut self.gen_genome);
        self.gen_lr = src.gen_lr;
        self.gen_loss = src.gen_loss;
        self.gen_fitness = src.gen_fitness;
        src.disc_genome.copy_into(&mut self.disc_genome);
        self.disc_lr = src.disc_lr;
        self.disc_fitness = src.disc_fitness;
    }

    /// Encoded payload size in bytes (used by the comm cost model):
    /// 4 bytes per f32 plus fixed header fields.
    pub fn wire_size(&self) -> usize {
        SnapshotRef::from(self).wire_size()
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

/// A genome as a snapshot holds it: decoded floats, or the little-endian
/// bytes of its encoding (four per float).
#[derive(Debug, Clone, Copy)]
pub enum Genome<'a> {
    /// Decoded, in a [`CellSnapshot`] or a sub-population.
    Floats(&'a [f32]),
    /// Encoded, in the buffer of an [`EncodedSnapshot`].
    Le(&'a [u8]),
}

impl Genome<'_> {
    /// Number of floats.
    pub fn len(&self) -> usize {
        match self {
            Genome::Floats(f) => f.len(),
            Genome::Le(b) => b.len() / 4,
        }
    }

    /// True for a genome of no floats.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replace `out`'s contents with this genome, reusing its buffer — one
    /// copy either way, the encoded form converted float by float with
    /// every bit pattern (NaN payloads, −0.0, subnormals) kept as it is.
    pub fn copy_into(&self, out: &mut Vec<f32>) {
        out.clear();
        match self {
            Genome::Floats(f) => out.extend_from_slice(f),
            Genome::Le(b) => out.extend(
                b.chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk"))),
            ),
        }
    }

    /// Append the genome's encoding: a `u32` float count, then the floats.
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Genome::Floats(f) => f32::encode_slice(f, buf),
            Genome::Le(b) => {
                (self.len() as u32).encode(buf);
                buf.extend_from_slice(b);
            }
        }
    }
}

/// The genome lengths of a center pair. Every snapshot of a run carries the
/// configured networks' parameter counts ([`GenomeLens::of`]); one that
/// does not is refused before anything imports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenomeLens {
    /// Generator parameters.
    pub gen: usize,
    /// Discriminator parameters.
    pub disc: usize,
}

impl GenomeLens {
    /// The lengths `cfg`'s networks give every genome of the run.
    pub fn of(cfg: &TrainConfig) -> Self {
        let net = cfg.network.to_network_config();
        Self {
            gen: param_count(&net.generator_dims()),
            disc: param_count(&net.discriminator_dims()),
        }
    }
}

/// Flat parameter count of an MLP with the given layer dims.
fn param_count(dims: &[usize]) -> usize {
    dims.windows(2).map(|w| w[0] * w[1] + w[1]).sum()
}

/// One center pair, borrowed from whichever form holds it — what the
/// ingest imports and what the encoder writes.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotRef<'a> {
    /// Flat grid index of the originating cell.
    pub cell: usize,
    /// Center generator genome.
    pub gen_genome: Genome<'a>,
    /// Generator learning rate.
    pub gen_lr: f32,
    /// Generator loss variant.
    pub gen_loss: GanLoss,
    /// Generator fitness.
    pub gen_fitness: f64,
    /// Center discriminator genome.
    pub disc_genome: Genome<'a>,
    /// Discriminator learning rate.
    pub disc_lr: f32,
    /// Discriminator fitness.
    pub disc_fitness: f64,
}

impl SnapshotRef<'_> {
    /// A pair with no genomes — what a frame slot the rank does not read
    /// imports as, so the ingest refuses it by its length.
    pub const EMPTY: SnapshotRef<'static> = SnapshotRef {
        cell: 0,
        gen_genome: Genome::Floats(&[]),
        gen_lr: 0.0,
        gen_loss: GanLoss::Heuristic,
        gen_fitness: 0.0,
        disc_genome: Genome::Floats(&[]),
        disc_lr: 0.0,
        disc_fitness: 0.0,
    };

    /// Append the snapshot's encoding — the one encoding of a center pair,
    /// whichever form it is read from.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        self.cell.encode(buf);
        self.gen_genome.encode(buf);
        self.gen_lr.encode(buf);
        self.gen_loss.encode(buf);
        self.gen_fitness.encode(buf);
        self.disc_genome.encode(buf);
        self.disc_lr.encode(buf);
        self.disc_fitness.encode(buf);
    }

    /// Encoded size in bytes: 4 per float plus the fixed fields.
    pub fn wire_size(&self) -> usize {
        let floats = self.gen_genome.len() + self.disc_genome.len();
        // genomes + (cell, lrs, loss id, fitnesses) header + 2 length prefixes
        floats * 4 + 8 + 4 + 4 + 1 + 8 + 8 + 8
    }

    /// The pair's genome lengths.
    pub fn genome_lens(&self) -> GenomeLens {
        GenomeLens { gen: self.gen_genome.len(), disc: self.disc_genome.len() }
    }
}

impl<'a> From<&'a CellSnapshot> for SnapshotRef<'a> {
    fn from(s: &'a CellSnapshot) -> Self {
        SnapshotRef {
            cell: s.cell,
            gen_genome: Genome::Floats(&s.gen_genome),
            gen_lr: s.gen_lr,
            gen_loss: s.gen_loss,
            gen_fitness: s.gen_fitness,
            disc_genome: Genome::Floats(&s.disc_genome),
            disc_lr: s.disc_lr,
            disc_fitness: s.disc_fitness,
        }
    }
}

/// A snapshot in the buffer it was encoded or arrived in: a handle on that
/// [`Payload`] plus its fixed fields, validated once when it was parsed.
/// Cloning bumps a reference count; importing decodes the genomes straight
/// from the little-endian bytes ([`SnapshotRef`]). This is what an
/// exchange-frame slot holds, so a neighbour's snapshot is copied once on
/// its way from the wire into an import slot, and a rank's own slot is the
/// very buffer its exchange posts to the cell's readers.
#[derive(Clone)]
pub struct EncodedSnapshot {
    payload: Payload,
    layout: Layout,
}

impl EncodedSnapshot {
    /// Validate `payload` — one complete encoded snapshot — and keep it:
    /// refused exactly when [`CellSnapshot::decode_from`] would refuse the
    /// bytes, with the same error. No genome byte is read or copied.
    pub fn parse(payload: Payload) -> Result<Self, WireError> {
        let layout = Layout::read_all(&payload)?;
        Ok(Self { payload, layout })
    }

    /// `snap` encoded into a buffer of its own.
    pub fn new(snap: SnapshotRef<'_>) -> Self {
        let mut buf = Vec::with_capacity(snap.wire_size());
        snap.encode(&mut buf);
        Self::parse(Payload::from(buf)).expect("a snapshot's own encoding parses")
    }

    /// Overwrite with `snap`'s encoding: in the same buffer when no other
    /// handle shares it, a fresh one otherwise ([`Payload::refill`]) — so a
    /// reader still holding the previous generation keeps it intact.
    pub fn refill(&mut self, snap: SnapshotRef<'_>) {
        self.payload.refill(|buf| {
            buf.reserve(snap.wire_size());
            snap.encode(buf);
        });
        self.layout =
            Layout::read_all(&self.payload).expect("a snapshot's own encoding parses");
    }

    /// The buffer: what the exchange posts and a checkpoint's frame encodes.
    pub fn payload(&self) -> &Payload {
        &self.payload
    }

    /// The snapshot, its genomes read straight from the buffer.
    pub fn view(&self) -> SnapshotRef<'_> {
        self.layout.view(&self.payload)
    }

    /// Flat grid index of the originating cell.
    pub fn cell(&self) -> usize {
        self.layout.cell
    }

    /// Encoded size in bytes.
    pub fn wire_size(&self) -> usize {
        self.payload.len()
    }
}

impl<'a> From<&'a EncodedSnapshot> for SnapshotRef<'a> {
    fn from(s: &'a EncodedSnapshot) -> Self {
        s.view()
    }
}

/// Equal bytes — the fields are a function of them.
impl PartialEq for EncodedSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.payload == other.payload
    }
}

impl fmt::Debug for EncodedSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EncodedSnapshot(cell {}, {} B)", self.cell(), self.wire_size())
    }
}

/// Where one encoded snapshot's fields sit in its bytes: the fixed fields
/// decoded, each genome as a byte range.
#[derive(Debug, Clone)]
struct Layout {
    cell: usize,
    gen: Range<usize>,
    gen_lr: f32,
    gen_loss: GanLoss,
    gen_fitness: f64,
    disc: Range<usize>,
    disc_lr: f32,
    disc_fitness: f64,
    /// Bytes the snapshot spans.
    end: usize,
}

impl Layout {
    /// Walk the snapshot at the front of `bytes`, field by field in
    /// encoding order, with each field's own decoder — so every decode of a
    /// snapshot, whatever form it produces, refuses the same bytes with the
    /// same error. A genome length the remaining bytes cannot back is
    /// refused before anything is sized for it.
    fn read(bytes: &[u8]) -> Result<Self, WireError> {
        let mut buf = bytes;
        let genome = |buf: &mut &[u8]| -> Result<Range<usize>, WireError> {
            let floats = sequence_len(buf, 4)?;
            let start = bytes.len() - buf.len();
            *buf = &buf[floats * 4..];
            Ok(start..start + floats * 4)
        };
        Ok(Self {
            cell: usize::decode(&mut buf)?,
            gen: genome(&mut buf)?,
            gen_lr: f32::decode(&mut buf)?,
            gen_loss: GanLoss::decode(&mut buf)?,
            gen_fitness: f64::decode(&mut buf)?,
            disc: genome(&mut buf)?,
            disc_lr: f32::decode(&mut buf)?,
            disc_fitness: f64::decode(&mut buf)?,
            end: bytes.len() - buf.len(),
        })
    }

    /// [`Layout::read`] of exactly one snapshot: trailing bytes refused.
    fn read_all(bytes: &[u8]) -> Result<Self, WireError> {
        let layout = Self::read(bytes)?;
        if layout.end != bytes.len() {
            return Err(WireError::new("trailing bytes"));
        }
        Ok(layout)
    }

    /// The snapshot in `bytes` (the bytes this layout was read from).
    fn view<'a>(&self, bytes: &'a [u8]) -> SnapshotRef<'a> {
        SnapshotRef {
            cell: self.cell,
            gen_genome: Genome::Le(&bytes[self.gen.clone()]),
            gen_lr: self.gen_lr,
            gen_loss: self.gen_loss,
            gen_fitness: self.gen_fitness,
            disc_genome: Genome::Le(&bytes[self.disc.clone()]),
            disc_lr: self.disc_lr,
            disc_fitness: self.disc_fitness,
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
        // And through the encoded form, in both directions.
        let encoded = EncodedSnapshot::new((&s).into());
        assert_eq!(*encoded.payload(), s.to_bytes());
        assert_eq!((encoded.cell(), encoded.wire_size()), (3, s.wire_size()));
        assert_eq!(encoded.view().genome_lens(), GenomeLens { gen: 10, disc: 6 });
        let mut back = CellSnapshot::empty();
        back.copy_from(&encoded);
        assert_eq!(back, s);
        let mut reencoded = Vec::new();
        encoded.view().encode(&mut reencoded);
        assert_eq!(reencoded, s.to_bytes());
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
        // Every refusal is the same error from the decoded and the encoded
        // form, and leaves a decode target as it was.
        let refused = |bytes: &[u8]| {
            let mut target = CellSnapshot::empty();
            let decoded = target.decode_from(bytes).expect_err("decoded form refuses");
            assert!(target.is_empty(), "a refused decode wrote into its target");
            let parsed =
                EncodedSnapshot::parse(Payload::from(bytes)).expect_err("parse refuses");
            assert_eq!(parsed, decoded);
            assert_eq!(
                CellSnapshot::from_bytes(bytes).expect_err("from_bytes refuses"),
                decoded
            );
            decoded
        };
        for cut in 0..wire.len() {
            refused(&wire[..cut]);
        }
        let mut trailing = wire.clone();
        trailing.push(0);
        assert_eq!(refused(&trailing), WireError::new("trailing bytes"));
        // The loss id sits after the cell, the generator genome and its lr.
        let mut bad_loss = wire.clone();
        bad_loss[8 + 4 + 5 * 4 + 4] = 0xEE;
        assert_eq!(refused(&bad_loss), WireError::new("gan loss id"));
        // A genome length the bytes cannot back.
        let mut hostile = wire;
        hostile[8..12].copy_from_slice(&0x4000_0000u32.to_le_bytes());
        assert_eq!(refused(&hostile), WireError::new("vec length"));
    }

    #[test]
    fn a_refill_rewrites_a_sole_buffer_and_spares_a_shared_one() {
        let (a, mut b) = (snap(), snap());
        b.cell = 4;
        b.gen_genome[0] = -7.5;
        let mut own = EncodedSnapshot::new((&a).into());
        let at = own.payload().as_ptr();
        own.refill((&b).into());
        assert_eq!(
            (own.payload().as_ptr(), own.cell()),
            (at, 4),
            "sole handle: rewritten in place"
        );
        let reader = own.clone();
        own.refill((&a).into());
        assert_eq!(reader.cell(), 4, "a reader's handle never changes under it");
        assert_ne!(own.payload().as_ptr(), reader.payload().as_ptr());
        assert_eq!(*own.payload(), a.to_bytes());
    }

    #[test]
    fn genome_lens_of_the_config_match_an_engine_snapshot() {
        let cfg = TrainConfig::smoke(2);
        let mut rng = lipiz_tensor::Rng64::seed_from(1);
        let data =
            rng.uniform_matrix(cfg.training.dataset_size, cfg.network.data_dim, -0.9, 0.9);
        let snap = crate::CellEngine::new(0, &cfg, data).snapshot();
        assert_eq!(SnapshotRef::from(&snap).genome_lens(), GenomeLens::of(&cfg));
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
