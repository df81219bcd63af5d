//! Checkpoint/restore subsystem: versioned, `Wire`-encoded full training
//! state per cell, committed atomically and written by an async background
//! writer so training never blocks on disk.
//!
//! # On-disk layout
//!
//! A checkpoint directory holds one manifest plus per-cell, per-iteration
//! state files:
//!
//! ```text
//! DIR/manifest.lpzm                     # the run's full TrainConfig
//! DIR/cell_0003_iter_00000040.ckpt      # cell 3's state after iteration 40
//! ```
//!
//! Every file is `MAGIC ∥ version ∥ payload ∥ fnv1a64(payload)`; writes go
//! to a `.tmp` sibling, are fsynced, and then **renamed onto the final
//! name** — a reader can never observe a half-written checkpoint, and a
//! crash mid-write leaves only an ignored temp file. Because slaves commit
//! asynchronously, different cells may momentarily disagree on their newest
//! iteration; [`latest_consistent_iteration`] finds the newest cut at which
//! *every* cell has a committed file, which is the only state a resume is
//! allowed to start from. The writer keeps the previous cut around (see
//! [`DirSink`] pruning) so a crash mid-commit-wave still leaves one
//! complete cut on disk.
//!
//! # The async writer
//!
//! [`CheckpointWriter`] owns a background thread: the training thread
//! captures a [`CellState`] (reusing a recycled buffer — double-buffered,
//! no steady-state allocation) and [`CheckpointWriter::submit`]s it, which
//! is a channel push and never blocks on I/O; serialization into a reusable
//! scratch buffer and the disk commit happen on the writer thread. The
//! non-blocking property is asserted by a unit test against a deliberately
//! wedged sink.
//!
//! Corrupt, truncated, or mismatched checkpoints fail loudly with a typed
//! [`CheckpointError`] — never a partial restore.

use lipiz_core::resume::StateError;
use lipiz_core::{CellState, TrainConfig};
use lipiz_mpi::wire::{Wire, WireError};
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// File magic for per-cell state files ("LPZK").
const CELL_MAGIC: &[u8; 4] = b"LPZK";
/// File magic for the manifest ("LPZM").
const MANIFEST_MAGIC: &[u8; 4] = b"LPZM";
/// Checkpoint format version. v2: the manifest's embedded config carries
/// the failure-semantics block (heartbeat policy, staleness bound, fault
/// plan). v3: cell states carry the pending neighbor-exchange frame (and
/// the manifest config the exchange mode) so `--exchange async` runs resume
/// bit-exactly; older versions fail loudly as
/// [`CheckpointError::UnsupportedVersion`].
/// v4: the config grew the telemetry block (enabled flag, journal dir,
/// ring capacity). The payloads are the [`Wire`] encodings of
/// [`TrainConfig`] and [`CellState`], so a field added to either (or to a
/// type they hold) changes the bytes and needs a bump here.
const FORMAT_VERSION: u32 = 4;
/// Manifest file name inside a checkpoint directory.
pub const MANIFEST_NAME: &str = "manifest.lpzm";
/// How many committed iterations [`DirSink`] keeps per cell (the newest
/// cut plus the previous one, so a crash mid-commit-wave never deletes the
/// last complete cut).
const KEEP_ITERATIONS_PER_CELL: usize = 2;

// ---- errors ---------------------------------------------------------------

/// Typed failure of a checkpoint operation. Loading never restores
/// partially: any of these aborts the whole restore.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a checkpoint file (wrong magic) .
    BadMagic,
    /// Format version newer than this build understands.
    UnsupportedVersion(u32),
    /// File shorter than its fixed framing.
    Truncated,
    /// Payload checksum mismatch (bit rot or torn write).
    ChecksumMismatch,
    /// Payload failed to decode.
    Decode(WireError),
    /// Decoded state failed semantic validation against the config.
    Invalid(StateError),
    /// The directory holds no complete checkpoint cut to resume from.
    NoCheckpoint,
    /// Structural inconsistency across files (e.g. a state file claiming
    /// the wrong cell).
    Inconsistent(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a lipizzaner checkpoint file"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint format version {v}")
            }
            CheckpointError::Truncated => write!(f, "truncated checkpoint file"),
            CheckpointError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::Decode(e) => write!(f, "corrupt checkpoint payload: {e}"),
            CheckpointError::Invalid(e) => write!(f, "checkpoint rejected: {e}"),
            CheckpointError::NoCheckpoint => {
                write!(f, "no complete checkpoint cut found to resume from")
            }
            CheckpointError::Inconsistent(what) => {
                write!(f, "inconsistent checkpoint directory: {what}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<WireError> for CheckpointError {
    fn from(e: WireError) -> Self {
        CheckpointError::Decode(e)
    }
}

impl From<StateError> for CheckpointError {
    fn from(e: StateError) -> Self {
        CheckpointError::Invalid(e)
    }
}

// ---- framing --------------------------------------------------------------

/// FNV-1a 64-bit hash (payload integrity check).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Frame `payload`'s encoding as `magic ∥ version ∥ payload ∥
/// fnv1a64(payload)` into `out` (cleared first; capacity is reused across
/// commits).
fn frame_into(magic: &[u8; 4], payload: &impl Wire, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(magic);
    FORMAT_VERSION.encode(out);
    let body_start = out.len();
    payload.encode(out);
    let checksum = fnv1a64(&out[body_start..]);
    checksum.encode(out);
}

/// Check framing and return the payload slice.
fn unframe<'a>(magic: &[u8; 4], bytes: &'a [u8]) -> Result<&'a [u8], CheckpointError> {
    if bytes.len() < 4 + 4 + 8 {
        return Err(CheckpointError::Truncated);
    }
    if &bytes[..4] != magic {
        return Err(CheckpointError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let payload = &bytes[8..bytes.len() - 8];
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
    if fnv1a64(payload) != stored {
        return Err(CheckpointError::ChecksumMismatch);
    }
    Ok(payload)
}

/// Write `bytes` to `path` atomically: temp sibling, fsync, rename,
/// directory fsync.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // The rename alone survives a process crash but not a power loss: the
    // directory entry update must itself reach disk before a committed cut
    // counts as durable.
    #[cfg(unix)]
    {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        fs::File::open(parent)?.sync_all()?;
    }
    Ok(())
}

// ---- file naming ----------------------------------------------------------

/// File name of cell `cell`'s state committed after iteration `iteration`.
pub fn cell_file_name(cell: usize, iteration: usize) -> String {
    format!("cell_{cell:04}_iter_{iteration:08}.ckpt")
}

/// Parse a [`cell_file_name`]-shaped name back into `(cell, iteration)`.
fn parse_cell_file_name(name: &str) -> Option<(usize, usize)> {
    let rest = name.strip_prefix("cell_")?;
    let (cell, rest) = rest.split_once("_iter_")?;
    let iter = rest.strip_suffix(".ckpt")?;
    Some((cell.parse().ok()?, iter.parse().ok()?))
}

// ---- manifest -------------------------------------------------------------

/// Write the run manifest (the complete [`TrainConfig`]) into `dir`,
/// creating the directory if needed. Called once by the run's coordinator
/// before training starts.
pub fn write_manifest(dir: &Path, cfg: &TrainConfig) -> Result<(), CheckpointError> {
    fs::create_dir_all(dir)?;
    let mut bytes = Vec::new();
    frame_into(MANIFEST_MAGIC, cfg, &mut bytes);
    write_atomic(&dir.join(MANIFEST_NAME), &bytes)
}

/// Load the run manifest from `dir`.
pub fn read_manifest(dir: &Path) -> Result<TrainConfig, CheckpointError> {
    let bytes = fs::read(dir.join(MANIFEST_NAME))?;
    let payload = unframe(MANIFEST_MAGIC, &bytes)?;
    Ok(TrainConfig::from_bytes(payload)?)
}

// ---- cell state files ------------------------------------------------------

/// Encode `state` into `scratch` in the on-disk frame (scratch capacity
/// is reused across commits) and commit it atomically under `dir`.
pub fn write_cell_state_with(
    dir: &Path,
    state: &CellState,
    scratch: &mut Vec<u8>,
) -> Result<PathBuf, CheckpointError> {
    fs::create_dir_all(dir)?;
    frame_into(CELL_MAGIC, state, scratch);
    let path = dir.join(cell_file_name(state.cell, state.iteration));
    write_atomic(&path, scratch)?;
    Ok(path)
}

/// [`write_cell_state_with`] with a fresh scratch buffer.
pub fn write_cell_state(dir: &Path, state: &CellState) -> Result<PathBuf, CheckpointError> {
    write_cell_state_with(dir, state, &mut Vec::new())
}

/// Load and fully validate one cell state file. `cfg` is the manifest
/// config the state must be consistent with.
pub fn read_cell_state(path: &Path, cfg: &TrainConfig) -> Result<CellState, CheckpointError> {
    let bytes = fs::read(path)?;
    let payload = unframe(CELL_MAGIC, &bytes)?;
    let state = CellState::from_bytes(payload)?;
    state.validate(cfg)?;
    Ok(state)
}

// ---- directory scan --------------------------------------------------------

/// Map every committed iteration in `dir` to the set of cells that have a
/// state file for it.
fn committed_cuts(dir: &Path) -> Result<BTreeMap<usize, Vec<usize>>, CheckpointError> {
    let mut cuts: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some((cell, iter)) = parse_cell_file_name(name) {
            cuts.entry(iter).or_default().push(cell);
        }
    }
    Ok(cuts)
}

/// Is `name` a checkpoint artifact — a cell state file, the manifest, or
/// one of their temp siblings left by an interrupted [`write_atomic`]?
/// With `cell` set, only that cell's state files match: the manifest
/// belongs to the coordinator (a slave clearing its own lane must not
/// delete the manifest the master just wrote for the new run).
fn is_stale_artifact(name: &str, cell: Option<usize>) -> bool {
    if name == MANIFEST_NAME || name == "manifest.tmp" {
        return cell.is_none();
    }
    let stem = name.strip_suffix(".tmp").unwrap_or(name);
    let full = if stem == name { stem.to_string() } else { format!("{stem}.ckpt") };
    match parse_cell_file_name(&full) {
        Some((c, _)) => cell.is_none_or(|want| c == want),
        None => false,
    }
}

/// Remove every checkpoint artifact in `dir` (restricted to one cell's
/// files when `cell` is given): state files, the manifest, and temp
/// siblings. Called when a run starts **fresh** with checkpointing into a
/// directory that may hold a previous run's files — a structurally
/// compatible stale cut must never be silently adopted by a later
/// recovery scan, or it would resurrect the old run's weights as this
/// run's output. A missing directory is fine. Returns how many files were
/// removed.
pub fn clear_stale(dir: &Path, cell: Option<usize>) -> Result<usize, CheckpointError> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e.into()),
    };
    let mut removed = 0;
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if is_stale_artifact(name, cell) {
            fs::remove_file(entry.path())?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// The newest iteration at which *every* cell `0..cells` has a committed
/// state file — the only cut a resume may start from. `Ok(None)` when the
/// directory holds no complete cut.
pub fn latest_consistent_iteration(
    dir: &Path,
    cells: usize,
) -> Result<Option<usize>, CheckpointError> {
    let cuts = committed_cuts(dir)?;
    Ok(cuts
        .into_iter()
        .rev()
        .find(|(_, present)| (0..cells).all(|c| present.contains(&c)))
        .map(|(iter, _)| iter))
}

/// Load the complete grid state at the newest consistent cut: returns the
/// cut's iteration and every cell's validated state in grid order.
pub fn load_grid_states(
    dir: &Path,
    cfg: &TrainConfig,
) -> Result<(usize, Vec<CellState>), CheckpointError> {
    let cells = cfg.cells();
    let iter = latest_consistent_iteration(dir, cells)?.ok_or(CheckpointError::NoCheckpoint)?;
    let states = (0..cells)
        .map(|c| load_cell_state_at(dir, cfg, c, iter))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((iter, states))
}

/// Load one cell's validated state at a specific committed iteration.
pub fn load_cell_state_at(
    dir: &Path,
    cfg: &TrainConfig,
    cell: usize,
    iteration: usize,
) -> Result<CellState, CheckpointError> {
    let state = read_cell_state(&dir.join(cell_file_name(cell, iteration)), cfg)?;
    if state.cell != cell || state.iteration != iteration {
        return Err(CheckpointError::Inconsistent("state file claims a different cell/iter"));
    }
    Ok(state)
}

// ---- async writer ----------------------------------------------------------

/// Where committed states go. The production sink is [`DirSink`]; tests
/// substitute wedged or counting sinks to pin the writer's concurrency
/// properties.
pub trait CheckpointSink: Send + 'static {
    /// Durably commit one captured state.
    fn commit(&mut self, state: &CellState) -> Result<(), CheckpointError>;
}

/// The production sink: atomic per-cell files under a directory, with a
/// reusable encode scratch and pruning of old iterations. Pruning keeps
/// the newest `KEEP_ITERATIONS_PER_CELL` files per cell **and** never
/// deletes anything at or above the newest *grid-consistent* cut — each
/// cell's writer drains its queue at its own pace, so a purely per-cell
/// retention window could momentarily leave no iteration at which every
/// cell has a file, and a crash in that window would force a
/// restart-from-scratch despite committed progress.
pub struct DirSink {
    dir: PathBuf,
    /// Grid cells the directory serves (the consistent-cut denominator).
    cells: usize,
    scratch: Vec<u8>,
}

impl DirSink {
    /// Sink committing into `dir` for a `cells`-cell grid.
    pub fn new(dir: impl Into<PathBuf>, cells: usize) -> Self {
        Self { dir: dir.into(), cells, scratch: Vec::new() }
    }

    /// Delete this cell's older iteration files beyond the retention
    /// window, never touching the newest complete cut (or anything newer).
    /// Best-effort: pruning failures never fail a commit.
    fn prune(&self, cell: usize) {
        let protected_from =
            latest_consistent_iteration(&self.dir, self.cells).ok().flatten().unwrap_or(0);
        let Ok(entries) = fs::read_dir(&self.dir) else { return };
        let mut iters: Vec<usize> = entries
            .flatten()
            .filter_map(|e| e.file_name().to_str().and_then(parse_cell_file_name))
            .filter(|&(c, _)| c == cell)
            .map(|(_, iter)| iter)
            .collect();
        iters.sort_unstable_by(|a, b| b.cmp(a));
        for &iter in iters.iter().skip(KEEP_ITERATIONS_PER_CELL) {
            if iter >= protected_from {
                continue;
            }
            let _ = fs::remove_file(self.dir.join(cell_file_name(cell, iter)));
        }
    }
}

impl CheckpointSink for DirSink {
    fn commit(&mut self, state: &CellState) -> Result<(), CheckpointError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = write_cell_state_with(&self.dir, state, &mut scratch);
        self.scratch = scratch;
        result?;
        self.prune(state.cell);
        Ok(())
    }
}

/// Async background checkpoint writer.
///
/// [`CheckpointWriter::submit`] hands a captured state to the writer thread
/// and returns immediately — it never blocks on serialization or disk, so a
/// training iteration's critical path only pays the in-memory capture.
/// Committed states flow back through a recycle channel
/// ([`CheckpointWriter::recycled`]) so steady-state capture reuses their
/// buffers instead of allocating.
pub struct CheckpointWriter {
    tx: Option<mpsc::Sender<CellState>>,
    recycle: mpsc::Receiver<CellState>,
    commits: Arc<AtomicU64>,
    handle: Option<JoinHandle<Result<u64, CheckpointError>>>,
}

impl CheckpointWriter {
    /// Writer committing into `dir` (serving a `cells`-cell grid) through
    /// the production [`DirSink`].
    pub fn to_dir(dir: impl Into<PathBuf>, cells: usize) -> Self {
        Self::with_sink(DirSink::new(dir, cells))
    }

    /// Writer over an arbitrary sink (tests).
    pub fn with_sink(mut sink: impl CheckpointSink) -> Self {
        let (tx, rx) = mpsc::channel::<CellState>();
        // Bounded recycle lane: if the trainer never drains it, old states
        // are simply dropped instead of accumulating.
        let (recycle_tx, recycle_rx) = mpsc::sync_channel::<CellState>(2);
        let commits = Arc::new(AtomicU64::new(0));
        let commits_thread = Arc::clone(&commits);
        let handle = std::thread::spawn(move || {
            let mut done = 0u64;
            for state in rx {
                sink.commit(&state)?;
                commits_thread.fetch_add(1, Ordering::Release);
                done += 1;
                let _ = recycle_tx.try_send(state);
            }
            Ok(done)
        });
        Self { tx: Some(tx), recycle: recycle_rx, commits, handle: Some(handle) }
    }

    /// Enqueue a captured state for committing. Returns immediately; the
    /// state is serialized and written by the background thread. Submitting
    /// after the writer thread has failed is a silent no-op — the error
    /// surfaces from [`CheckpointWriter::finish`].
    pub fn submit(&self, state: CellState) {
        if let Some(tx) = &self.tx {
            let _ = tx.send(state);
        }
    }

    /// Take back a committed state's buffers for the next capture
    /// (double-buffering). `None` when no commit has drained yet.
    pub fn recycled(&self) -> Option<CellState> {
        self.recycle.try_recv().ok()
    }

    /// Number of states durably committed so far.
    pub fn commits(&self) -> u64 {
        self.commits.load(Ordering::Acquire)
    }

    /// Close the queue, wait for every pending commit, and surface the
    /// first sink error if any. Returns the total number of commits.
    pub fn finish(mut self) -> Result<u64, CheckpointError> {
        self.tx.take();
        let handle = self.handle.take().expect("finish called once");
        handle.join().unwrap_or(Err(CheckpointError::Inconsistent("writer thread panicked")))
    }
}

impl Drop for CheckpointWriter {
    fn drop(&mut self) {
        self.tx.take();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lipiz_core::CellEngine;
    use lipiz_tensor::{Matrix, Rng64};
    use parking_lot::Mutex;
    use std::time::{Duration, Instant};

    fn toy_data(cfg: &TrainConfig) -> Matrix {
        let mut rng = Rng64::seed_from(cfg.training.data_seed);
        rng.uniform_matrix(cfg.training.dataset_size, cfg.network.data_dim, -0.9, 0.9)
    }

    fn captured(cfg: &TrainConfig, cell: usize, iters: usize) -> CellState {
        let mut engine = CellEngine::new(cell, cfg, toy_data(cfg));
        let snaps: Vec<_> =
            (0..cfg.subpopulation_size() - 1).map(|_| engine.snapshot()).collect();
        for _ in 0..iters {
            engine.run_iteration(&snaps, &mut lipiz_telemetry::Telemetry::disabled());
        }
        engine.capture_state()
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("lipiz_checkpoint_tests").join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn cell_state_file_round_trips_bit_exactly() {
        let cfg = TrainConfig::smoke(2);
        let state = captured(&cfg, 1, 1);
        let dir = tmpdir("round_trip");
        let path = write_cell_state(&dir, &state).unwrap();
        let back = read_cell_state(&path, &cfg).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn async_exchange_frame_round_trips_bit_exactly() {
        // Async runs checkpoint the frame the next iteration will consume;
        // it must survive the disk round trip exactly like the rest of the
        // state, and a frame that disagrees with the grid must be rejected.
        let cfg = TrainConfig::smoke(2);
        let mut state = captured(&cfg, 1, 1);
        let mut donor = CellEngine::new(0, &cfg, toy_data(&cfg));
        state.exchange_frame = (0..cfg.cells()).map(|_| donor.snapshot()).collect();
        let dir = tmpdir("exchange_frame");
        let path = write_cell_state(&dir, &state).unwrap();
        let back = read_cell_state(&path, &cfg).unwrap();
        assert_eq!(back, state);

        state.exchange_frame.pop();
        assert!(state.validate(&cfg).is_err(), "short frame must not validate");
    }

    #[test]
    fn manifest_round_trips() {
        let dir = tmpdir("manifest");
        let cfg = TrainConfig::smoke(3).with_mustangs().with_checkpoints("x", 2);
        write_manifest(&dir, &cfg).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), cfg);
    }

    #[test]
    fn manifest_with_an_unknown_enum_id_is_a_typed_decode_error() {
        // The checksum vouches for the bytes, not for their meaning: a
        // manifest from a build with one more enum variant frames fine.
        let cfg = TrainConfig::smoke(2);
        let dir = tmpdir("hostile_enum");
        write_manifest(&dir, &cfg).unwrap();
        let path = dir.join(MANIFEST_NAME);
        let original = fs::read(&path).unwrap();
        let body = 8..original.len() - 8;

        let grid = cfg.grid.to_bytes().len();
        let coevolution =
            grid + cfg.network.to_bytes().len() + cfg.coevolution.to_bytes().len();
        let mutation = coevolution + cfg.mutation.to_bytes().len();
        let exchange = mutation
            + cfg.training.to_bytes().len()
            + cfg.checkpoint.to_bytes().len()
            + cfg.fault.to_bytes().len();
        for (what, at) in [
            ("neighborhood pattern id", grid - 1),
            ("adversary kind", coevolution - 9),
            ("loss mode", mutation - 2),
            ("fixed loss id", mutation - 1),
            ("exchange mode id", exchange),
        ] {
            let mut bytes = original.clone();
            bytes[body.start + at] = 9;
            let checksum = fnv1a64(&bytes[body.clone()]);
            bytes[body.end..].copy_from_slice(&checksum.to_le_bytes());
            fs::write(&path, &bytes).unwrap();
            match read_manifest(&dir) {
                Err(CheckpointError::Decode(e)) => assert_eq!(e.what, what),
                other => panic!("{what}: expected a decode error, got {other:?}"),
            }
        }
    }

    #[test]
    fn corruption_fails_loudly_with_typed_errors() {
        let cfg = TrainConfig::smoke(2);
        let state = captured(&cfg, 0, 0);
        let dir = tmpdir("corruption");
        let path = write_cell_state(&dir, &state).unwrap();
        let original = fs::read(&path).unwrap();

        // Truncation below the fixed framing.
        fs::write(&path, &original[..10]).unwrap();
        assert!(matches!(read_cell_state(&path, &cfg), Err(CheckpointError::Truncated)));

        // Truncated payload: checksum can no longer match.
        fs::write(&path, &original[..original.len() - 20]).unwrap();
        assert!(matches!(read_cell_state(&path, &cfg), Err(CheckpointError::ChecksumMismatch)));

        // Bit flip in the payload.
        let mut flipped = original.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        fs::write(&path, &flipped).unwrap();
        assert!(matches!(read_cell_state(&path, &cfg), Err(CheckpointError::ChecksumMismatch)));

        // Wrong magic.
        let mut bad_magic = original.clone();
        bad_magic[0] = b'X';
        fs::write(&path, &bad_magic).unwrap();
        assert!(matches!(read_cell_state(&path, &cfg), Err(CheckpointError::BadMagic)));

        // Future version.
        let mut future = original.clone();
        future[4] = 99;
        fs::write(&path, &future).unwrap();
        assert!(matches!(
            read_cell_state(&path, &cfg),
            Err(CheckpointError::UnsupportedVersion(99))
        ));

        // Valid frame, but the state disagrees with the config.
        fs::write(&path, &original).unwrap();
        let mut other = cfg.clone();
        other.network.hidden_units += 1;
        assert!(matches!(read_cell_state(&path, &other), Err(CheckpointError::Invalid(_))));
    }

    #[test]
    fn clear_stale_removes_previous_run_artifacts() {
        let cfg = TrainConfig::smoke(2);
        let dir = tmpdir("clear_stale");
        write_manifest(&dir, &cfg).unwrap();
        for cell in 0..2 {
            write_cell_state(&dir, &captured(&cfg, cell, 0)).unwrap();
        }
        // An interrupted write_atomic leaves a temp sibling behind.
        fs::write(dir.join("cell_0001_iter_00000007.tmp"), b"partial").unwrap();
        // Unrelated files must survive the sweep.
        fs::write(dir.join("notes.txt"), b"keep me").unwrap();

        // Per-cell clear: cell 1's lane only; the manifest stays (it
        // belongs to the coordinator, not the slave clearing its lane).
        assert_eq!(clear_stale(&dir, Some(1)).unwrap(), 2);
        assert!(read_manifest(&dir).is_ok());
        assert!(dir.join(cell_file_name(0, 0)).exists());
        assert!(!dir.join(cell_file_name(1, 0)).exists());

        // Whole-directory clear: every artifact goes, the scan comes back
        // empty, and foreign files are untouched.
        assert_eq!(clear_stale(&dir, None).unwrap(), 2);
        assert_eq!(latest_consistent_iteration(&dir, 2).unwrap(), None);
        assert!(matches!(read_manifest(&dir), Err(CheckpointError::Io(_))));
        assert!(dir.join("notes.txt").exists());

        // A directory that does not exist is a clean no-op.
        assert_eq!(clear_stale(Path::new("/nonexistent/lipiz"), None).unwrap(), 0);
    }

    #[test]
    fn consistent_cut_requires_every_cell() {
        let mut cfg = TrainConfig::smoke(2); // 4 cells
        cfg.coevolution.iterations = 10; // room for the cuts below
        let dir = tmpdir("cuts");
        assert_eq!(latest_consistent_iteration(&dir, 4).unwrap(), None);
        // Iteration 2: all four cells. Iteration 4: only cells 0 and 1
        // (slaves commit asynchronously).
        for cell in 0..4 {
            let mut s = captured(&cfg, cell, 0);
            s.iteration = 2;
            write_cell_state(&dir, &s).unwrap();
        }
        for cell in 0..2 {
            let mut s = captured(&cfg, cell, 0);
            s.iteration = 4;
            write_cell_state(&dir, &s).unwrap();
        }
        assert_eq!(latest_consistent_iteration(&dir, 4).unwrap(), Some(2));
        // Completing iteration 4 moves the cut forward.
        for cell in 2..4 {
            let mut s = captured(&cfg, cell, 0);
            s.iteration = 4;
            write_cell_state(&dir, &s).unwrap();
        }
        assert_eq!(latest_consistent_iteration(&dir, 4).unwrap(), Some(4));

        let (iter, states) = load_grid_states(&dir, &cfg).unwrap();
        assert_eq!(iter, 4);
        assert_eq!(states.len(), 4);
        for (i, s) in states.iter().enumerate() {
            assert_eq!(s.cell, i);
            assert_eq!(s.iteration, 4);
        }
    }

    #[test]
    fn missing_checkpoint_is_typed() {
        let dir = tmpdir("empty");
        let cfg = TrainConfig::smoke(2);
        assert!(matches!(load_grid_states(&dir, &cfg), Err(CheckpointError::NoCheckpoint)));
    }

    fn present_iters(dir: &Path, cell: usize) -> Vec<usize> {
        let mut present: Vec<usize> = fs::read_dir(dir)
            .unwrap()
            .flatten()
            .filter_map(|e| e.file_name().to_str().and_then(parse_cell_file_name))
            .filter(|&(c, _)| c == cell)
            .map(|(_, iter)| iter)
            .collect();
        present.sort_unstable();
        present
    }

    #[test]
    fn dir_sink_prunes_but_keeps_previous_cut() {
        let cfg = TrainConfig::smoke(2);
        let dir = tmpdir("prune");
        let mut sink = DirSink::new(&dir, 1); // single-cell grid: cut == own newest
        for iter in [1usize, 2, 3, 4, 5] {
            let mut s = captured(&cfg, 0, 0);
            s.iteration = iter;
            sink.commit(&s).unwrap();
        }
        assert_eq!(present_iters(&dir, 0), vec![4, 5], "retention window violated");
    }

    #[test]
    fn pruning_never_deletes_the_newest_consistent_cut() {
        // Writers drain at their own pace: cell 0 races ahead to iteration
        // 5 while cell 1 has only committed up to 2. Cell 0's pruning must
        // keep iteration 2 alive — it is part of the only cut every cell
        // has — or a crash here would force a restart from scratch.
        let mut cfg = TrainConfig::smoke(2);
        cfg.grid.rows = 1;
        cfg.grid.cols = 2;
        cfg.coevolution.iterations = 10;
        let dir = tmpdir("prune_cut");
        let mut sink = DirSink::new(&dir, 2);
        for iter in [1usize, 2] {
            let mut s = captured(&cfg, 1, 0);
            s.iteration = iter;
            sink.commit(&s).unwrap();
        }
        for iter in [1usize, 2, 3, 4, 5] {
            let mut s = captured(&cfg, 0, 0);
            s.iteration = iter;
            sink.commit(&s).unwrap();
        }
        // Cell 0 kept its newest two AND everything at/above the cut (2).
        assert_eq!(present_iters(&dir, 0), vec![2, 3, 4, 5]);
        assert_eq!(latest_consistent_iteration(&dir, 2).unwrap(), Some(2));
        // The grid state at the cut is loadable end to end.
        let (iter, states) = load_grid_states(&dir, &cfg).unwrap();
        assert_eq!(iter, 2);
        assert_eq!(states.len(), 2);
    }

    #[test]
    fn tmp_files_are_ignored_by_the_scan() {
        let cfg = TrainConfig::smoke(2);
        let dir = tmpdir("tmp_ignored");
        let mut s = captured(&cfg, 0, 0);
        s.iteration = 1;
        write_cell_state(&dir, &s).unwrap();
        // A torn write leaves a .tmp sibling; it must not count as a commit.
        fs::write(dir.join("cell_0001_iter_00000001.tmp"), b"torn").unwrap();
        assert_eq!(latest_consistent_iteration(&dir, 2).unwrap(), None);
    }

    /// A sink wedged on a lock the test holds: commits cannot proceed until
    /// the gate opens.
    struct GatedSink {
        gate: Arc<Mutex<()>>,
        committed: Arc<AtomicU64>,
    }

    impl CheckpointSink for GatedSink {
        fn commit(&mut self, _state: &CellState) -> Result<(), CheckpointError> {
            let _open = self.gate.lock();
            self.committed.fetch_add(1, Ordering::Release);
            Ok(())
        }
    }

    #[test]
    fn submit_never_blocks_on_a_wedged_disk() {
        // The acceptance assertion for the async writer: with the sink
        // stalled (disk wedged), submissions — the only thing on the
        // training thread's critical path — must return immediately.
        let gate = Arc::new(Mutex::new(()));
        let committed = Arc::new(AtomicU64::new(0));
        let writer = CheckpointWriter::with_sink(GatedSink {
            gate: Arc::clone(&gate),
            committed: Arc::clone(&committed),
        });

        let cfg = TrainConfig::smoke(2);
        let state = captured(&cfg, 0, 0);
        let stall = gate.lock(); // wedge the disk
        let start = Instant::now();
        for _ in 0..8 {
            writer.submit(state.clone());
        }
        let submit_time = start.elapsed();
        // Nothing committed, yet all submissions returned.
        assert_eq!(committed.load(Ordering::Acquire), 0, "sink ran while wedged");
        assert!(
            submit_time < Duration::from_millis(200),
            "submit blocked on the wedged sink: {submit_time:?}"
        );
        drop(stall); // un-wedge
        let total = writer.finish().unwrap();
        assert_eq!(total, 8);
        assert_eq!(committed.load(Ordering::Acquire), 8);
    }

    #[test]
    fn writer_commits_real_files_and_recycles_buffers() {
        let cfg = TrainConfig::smoke(2);
        let dir = tmpdir("writer");
        let writer = CheckpointWriter::to_dir(&dir, cfg.cells());
        let state = captured(&cfg, 2, 1);
        writer.submit(state.clone());
        // Drain the recycle lane (bounded, best-effort).
        let deadline = Instant::now() + Duration::from_secs(5);
        while writer.commits() == 0 {
            assert!(Instant::now() < deadline, "commit never landed");
            std::thread::sleep(Duration::from_millis(2));
        }
        let recycled = writer.recycled();
        assert!(recycled.is_some(), "committed state was not recycled");
        assert_eq!(writer.finish().unwrap(), 1);
        let back =
            read_cell_state(&dir.join(cell_file_name(2, state.iteration)), &cfg).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn finish_surfaces_sink_errors() {
        struct FailingSink;
        impl CheckpointSink for FailingSink {
            fn commit(&mut self, _: &CellState) -> Result<(), CheckpointError> {
                Err(CheckpointError::Inconsistent("disk on fire"))
            }
        }
        let writer = CheckpointWriter::with_sink(FailingSink);
        let cfg = TrainConfig::smoke(2);
        writer.submit(captured(&cfg, 0, 0));
        assert!(writer.finish().is_err());
    }
}
