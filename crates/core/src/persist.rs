//! Model persistence: save/load trained ensembles.
//!
//! The paper motivates the speedup with "especially when new trainings are
//! needed" — which implies trained models get reused. This module stores an
//! [`EnsembleModel`] in a small, versioned, self-describing binary format
//! (`.lpz`), so a training run's winner can be reloaded for sampling
//! without retraining.

use crate::mixture::{EnsembleModel, MixtureWeights};
use lipiz_nn::{Activation, NetworkConfig};
use lipiz_wire::{Wire, WireError};
use std::io;
use std::path::Path;

/// `"LPZ1"`, read and written as a little-endian word.
const MAGIC: u32 = u32::from_le_bytes(*b"LPZ1");
const FORMAT_VERSION: u32 = 1;

/// Errors from loading a persisted model.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not an `.lpz` file or corrupted header.
    BadMagic,
    /// File format version newer than this library understands.
    UnsupportedVersion(u32),
    /// Structurally invalid contents (e.g. genome length mismatch).
    Corrupt(&'static str),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::BadMagic => write!(f, "not a lipizzaner model file"),
            PersistError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            PersistError::Corrupt(what) => write!(f, "corrupt model file: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Every decode below fails only by running out of bytes, which stays the
/// I/O error it was when the file was read field by field.
impl From<WireError> for PersistError {
    fn from(e: WireError) -> Self {
        PersistError::Io(io::Error::new(io::ErrorKind::UnexpectedEof, e))
    }
}

/// Save an ensemble to `path`: the whole file is encoded in memory and
/// written with one call.
pub fn save_ensemble(path: &Path, model: &EnsembleModel) -> io::Result<()> {
    // Header (8 words) plus, per component, a weight, a length and the body.
    let len: usize = model.genomes.iter().map(|g| 8 + 4 * g.len()).sum();
    let mut out = Vec::with_capacity(32 + len);
    MAGIC.encode(&mut out);
    FORMAT_VERSION.encode(&mut out);
    // Network config (activation is fixed tanh per Table I; stored as id
    // for forward compatibility).
    for dim in [
        model.network.latent_dim,
        model.network.hidden_layers,
        model.network.hidden_units,
        model.network.data_dim,
    ] {
        (dim as u32).encode(&mut out);
    }
    activation_id(model.network.activation).encode(&mut out);
    // Components: the bytes of a `Vec<(f32, Vec<f32>)>`, written from the
    // model's own buffers.
    (model.genomes.len() as u32).encode(&mut out);
    for (genome, weight) in model.genomes.iter().zip(model.weights.weights()) {
        weight.encode(&mut out);
        genome.encode(&mut out);
    }
    std::fs::write(path, out)
}

/// Load an ensemble saved by [`save_ensemble`].
pub fn load_ensemble(path: &Path) -> Result<EnsembleModel, PersistError> {
    let bytes = std::fs::read(path)?;
    let mut buf = &bytes[..];
    if u32::decode(&mut buf)? != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = u32::decode(&mut buf)?;
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let latent_dim = u32::decode(&mut buf)? as usize;
    let hidden_layers = u32::decode(&mut buf)? as usize;
    let hidden_units = u32::decode(&mut buf)? as usize;
    let data_dim = u32::decode(&mut buf)? as usize;
    let activation = activation_from_id(u32::decode(&mut buf)?)
        .ok_or(PersistError::Corrupt("activation id"))?;
    let network =
        NetworkConfig { latent_dim, hidden_layers, hidden_units, data_dim, activation };

    let components = u32::decode(&mut buf)? as usize;
    if components == 0 || components > 4096 {
        return Err(PersistError::Corrupt("component count"));
    }
    // Validate genome length against the declared topology, before the
    // genome's body is decoded.
    let dims = network.generator_dims();
    let expected: usize = dims.windows(2).map(|w| w[0] * w[1] + w[1]).sum();
    let mut weights = Vec::with_capacity(components);
    let mut genomes = Vec::with_capacity(components);
    for _ in 0..components {
        weights.push(f32::decode(&mut buf)?);
        if u32::decode(&mut &buf[..])? as usize != expected {
            return Err(PersistError::Corrupt("genome length vs topology"));
        }
        genomes.push(Vec::<f32>::decode(&mut buf)?);
    }
    // Reject trailing garbage.
    if !buf.is_empty() {
        return Err(PersistError::Corrupt("trailing bytes"));
    }
    Ok(EnsembleModel::new(network, genomes, MixtureWeights::from_raw(&weights)))
}

/// Ids 1 and 2 once named activations no network uses; a file carrying
/// one is refused as corrupt.
fn activation_id(a: Activation) -> u32 {
    match a {
        Activation::Tanh => 0,
        Activation::Identity => 3,
    }
}

fn activation_from_id(id: u32) -> Option<Activation> {
    match id {
        0 => Some(Activation::Tanh),
        3 => Some(Activation::Identity),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lipiz_nn::Generator;
    use lipiz_tensor::Rng64;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("lipiz_persist_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn demo_model() -> EnsembleModel {
        let cfg = NetworkConfig::tiny(12);
        let mut rng = Rng64::seed_from(3);
        let genomes: Vec<Vec<f32>> =
            (0..3).map(|_| Generator::new(&cfg, &mut rng).net.genome().to_vec()).collect();
        EnsembleModel::new(cfg, genomes, MixtureWeights::from_raw(&[0.5, 0.3, 0.2]))
    }

    #[test]
    fn save_load_round_trip() {
        let model = demo_model();
        let path = tmp("round_trip.lpz");
        save_ensemble(&path, &model).unwrap();
        let back = load_ensemble(&path).unwrap();
        assert_eq!(back.network, model.network);
        assert_eq!(back.genomes, model.genomes);
        for (a, b) in back.weights.weights().iter().zip(model.weights.weights()) {
            assert!((a - b).abs() < 1e-6);
        }
        // And it samples identically.
        let mut r1 = Rng64::seed_from(9);
        let mut r2 = Rng64::seed_from(9);
        assert_eq!(model.sample(5, &mut r1), back.sample(5, &mut r2));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmp("bad_magic.lpz");
        std::fs::write(&path, b"NOPE....").unwrap();
        assert!(matches!(load_ensemble(&path), Err(PersistError::BadMagic)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_rejected() {
        let model = demo_model();
        let path = tmp("trunc.lpz");
        save_ensemble(&path, &model).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(load_ensemble(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trailing_garbage_rejected() {
        let model = demo_model();
        let path = tmp("trailing.lpz");
        save_ensemble(&path, &model).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.push(0xAA);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(load_ensemble(&path), Err(PersistError::Corrupt(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_version_rejected() {
        let model = demo_model();
        let path = tmp("version.lpz");
        save_ensemble(&path, &model).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4] = 99; // bump version field
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(load_ensemble(&path), Err(PersistError::UnsupportedVersion(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn genome_length_mismatch_rejected() {
        let model = demo_model();
        let path = tmp("length.lpz");
        save_ensemble(&path, &model).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Header = 4 magic + 4 version + 5*4 config + 4 count = 32 bytes;
        // the first component's genome length field sits at offset 36.
        bytes[36] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_ensemble(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn removed_activation_ids_are_refused() {
        let path = tmp("activation_id.lpz");
        save_ensemble(&path, &demo_model()).unwrap();
        let saved = std::fs::read(&path).unwrap();
        // Magic, version and the four dims precede the activation id word.
        assert_eq!(saved[24..28], 0u32.to_le_bytes(), "tanh is id 0");
        for removed in [1u32, 2] {
            let mut bytes = saved.clone();
            bytes[24..28].copy_from_slice(&removed.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(load_ensemble(&path), Err(PersistError::Corrupt("activation id"))),
                "activation id {removed} was not refused"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// A tanh model (4 → 8 → 16, five components) written by the tree that
    /// still declared four activation ids: it loads, and saving it again
    /// reproduces the file byte for byte.
    #[test]
    fn tanh_file_from_the_four_activation_format_resaves_byte_equal() {
        let fixture = include_bytes!("../tests/fixtures/tanh_4x8x16.lpz");
        let path = tmp("four_activation_format.lpz");
        std::fs::write(&path, fixture).unwrap();
        let model = load_ensemble(&path).unwrap();
        assert_eq!(model.network.activation, Activation::Tanh);
        save_ensemble(&path, &model).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), fixture);
        std::fs::remove_file(&path).ok();
    }
}
