//! Format-drift guard. `fixtures/v4/` holds a manifest and one cell file
//! written by the last build that encoded them through mirror structs
//! (`lipizzaner train --tiny --grid 2 --iterations 2 --batches 2 --exchange
//! async --checkpoint-dir v4`). No training is re-run here, so the bytes
//! are host-independent: today's code must read them and write them back
//! unchanged, or `FORMAT_VERSION` has to move.

use lipiz_core::{ExchangeMode, TrainConfig};
use lipiz_runtime::checkpoint::{
    cell_file_name, read_cell_state, read_manifest, write_cell_state, write_manifest,
    MANIFEST_NAME,
};
use std::fs;
use std::path::Path;

#[test]
fn golden_v4_checkpoint_decodes_and_re_encodes_to_the_same_bytes() {
    let fixture = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/v4"));
    let cell_file = cell_file_name(0, 1);

    let cfg = read_manifest(fixture).expect("golden manifest decodes");
    let written_by =
        TrainConfig::smoke(2).with_exchange(ExchangeMode::Async).with_checkpoints("v4", 1);
    assert_eq!(cfg, written_by);
    // `read_cell_state` also runs `CellState::validate` against the config.
    let state = read_cell_state(&fixture.join(&cell_file), &cfg).expect("golden state decodes");
    assert_eq!((state.cell, state.iteration), (0, 1));
    assert_eq!(state.exchange_frame.len(), cfg.cells(), "async cut carries its frame");

    let out = std::env::temp_dir().join("lipiz_golden_v4");
    let _ = fs::remove_dir_all(&out);
    write_manifest(&out, &cfg).expect("manifest re-encodes");
    write_cell_state(&out, &state).expect("state re-encodes");
    for name in [MANIFEST_NAME, cell_file.as_str()] {
        assert_eq!(
            fs::read(out.join(name)).unwrap(),
            fs::read(fixture.join(name)).unwrap(),
            "{name} drifted from the v4 bytes"
        );
    }
}
