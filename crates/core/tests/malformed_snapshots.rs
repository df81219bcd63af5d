//! The committed corpus of malformed snapshot payloads
//! (`fixtures/malformed_snapshots/`, listed with the error each must raise
//! in `expected.txt`): every payload is refused by the receive-side parse
//! of an exchange ([`EncodedSnapshot::parse`]) with exactly the
//! `WireError` the decoding of a [`CellSnapshot`] gives.

use lipiz_core::{CellSnapshot, EncodedSnapshot};
use lipiz_wire::{Payload, Wire};
use std::path::Path;

#[test]
fn every_malformed_payload_is_refused_alike_by_parse_and_decode() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/malformed_snapshots");
    let manifest = std::fs::read_to_string(dir.join("expected.txt")).expect("corpus manifest");
    let mut checked = 0;
    for line in manifest.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
        let (name, what) = line.split_once(' ').expect("`<file> <error>` per line");
        let bytes = std::fs::read(dir.join(format!("{name}.bin"))).expect("corpus entry");
        let mut target = CellSnapshot::empty();
        let decoded = target.decode_from(&bytes).expect_err(name);
        assert_eq!(decoded.what, what.trim(), "{name}");
        assert!(target.is_empty(), "{name}: a refused decode wrote into its target");
        assert_eq!(CellSnapshot::from_bytes(&bytes).expect_err(name), decoded, "{name}");
        let parsed = EncodedSnapshot::parse(Payload::from(bytes)).expect_err(name);
        assert_eq!(parsed, decoded, "{name}");
        checked += 1;
    }
    assert!(checked >= 9, "the corpus shrank to {checked} entries");
}
