//! Per-rank JSONL journal files: one header line, one line per event.
//!
//! ```text
//! {"telemetry":1,"rank":3,"dropped":0}
//! {"t_ns":1200,"kind":"gather_begin","cell":2,"iter":0,"arg":0}
//! {"t_ns":5300,"kind":"gather_end","cell":2,"iter":0,"arg":4100}
//! ```
//!
//! Both the writer and the parser are hand-rolled (the offline dependency
//! set has no `serde_json`); the format is deliberately flat — every line
//! is one object of scalar fields — so a line-based parser is exact, and
//! `lipizzaner trace` can merge journals from any driver.

use crate::event::{Event, EventKind};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Journal format version tag written in the header line.
pub const JOURNAL_VERSION: u64 = 1;

/// One parsed per-rank journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankJournal {
    /// World rank the journal belongs to.
    pub rank: u32,
    /// Ring-overflow drop count at write time.
    pub dropped: u64,
    /// Events, oldest first.
    pub events: Vec<Event>,
}

/// Render a journal as its JSONL text.
pub fn journal_to_string<'a>(
    rank: u32,
    dropped: u64,
    events: impl Iterator<Item = &'a Event>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"telemetry\":{JOURNAL_VERSION},\"rank\":{rank},\"dropped\":{dropped}}}"
    );
    for e in events {
        let _ = writeln!(
            out,
            "{{\"t_ns\":{},\"kind\":\"{}\",\"cell\":{},\"iter\":{},\"arg\":{}}}",
            e.t_ns,
            e.kind.name(),
            e.cell,
            e.iter,
            e.arg
        );
    }
    out
}

/// Write a journal file, creating parent directories.
pub fn write_journal<'a>(
    path: &Path,
    rank: u32,
    dropped: u64,
    events: impl Iterator<Item = &'a Event>,
) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, journal_to_string(rank, dropped, events))
}

/// Extract the numeric value of `"key":` from a flat JSON object line.
fn field_u64(line: &str, key: &str) -> Result<u64, String> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle).ok_or_else(|| format!("missing field '{key}': {line}"))?;
    let rest = &line[at + needle.len()..];
    let end = rest.find([',', '}']).ok_or_else(|| format!("unterminated field '{key}'"))?;
    rest[..end].trim().parse::<u64>().map_err(|e| format!("field '{key}': {e}"))
}

/// Extract the quoted string value of `"key":` from a flat JSON line.
fn field_str<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
    let needle = format!("\"{key}\":\"");
    let at = line.find(&needle).ok_or_else(|| format!("missing field '{key}': {line}"))?;
    let rest = &line[at + needle.len()..];
    let end = rest.find('"').ok_or_else(|| format!("unterminated string '{key}'"))?;
    Ok(&rest[..end])
}

/// Parse a journal back from its JSONL text.
pub fn parse_journal(text: &str) -> Result<RankJournal, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or("empty journal")?;
    if field_u64(header, "telemetry")? != JOURNAL_VERSION {
        return Err(format!("unsupported journal version: {header}"));
    }
    let rank = field_u64(header, "rank")? as u32;
    let dropped = field_u64(header, "dropped")?;
    let mut events = Vec::new();
    for line in lines {
        let kind_name = field_str(line, "kind")?;
        let kind = EventKind::from_name(kind_name)
            .ok_or_else(|| format!("unknown event kind '{kind_name}'"))?;
        events.push(Event {
            t_ns: field_u64(line, "t_ns")?,
            kind,
            cell: field_u64(line, "cell")? as u32,
            iter: field_u64(line, "iter")? as u32,
            arg: field_u64(line, "arg")?,
        });
    }
    Ok(RankJournal { rank, dropped, events })
}

/// Read and parse every `*.jsonl` journal in `dir`, sorted by file name
/// (stable rank ordering for the trace exporter).
pub fn read_journal_dir(dir: &Path) -> io::Result<Vec<RankJournal>> {
    let mut paths: Vec<_> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    paths.sort();
    let mut journals = Vec::new();
    for p in paths {
        let text = fs::read_to_string(&p)?;
        let j = parse_journal(&text).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("{}: {e}", p.display()))
        })?;
        journals.push(j);
    }
    Ok(journals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trips_a_small_journal() {
        let events = vec![
            Event { t_ns: 10, kind: EventKind::GatherBegin, cell: 0, iter: 0, arg: 0 },
            Event { t_ns: 40, kind: EventKind::GatherEnd, cell: 0, iter: 0, arg: 30 },
            Event { t_ns: 99, kind: EventKind::Kill, cell: u32::MAX, iter: 2, arg: 0 },
        ];
        let text = journal_to_string(7, 3, events.iter());
        let back = parse_journal(&text).unwrap();
        assert_eq!(back, RankJournal { rank: 7, dropped: 3, events });
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_journal("").is_err());
        assert!(parse_journal("{\"telemetry\":99,\"rank\":0,\"dropped\":0}").is_err());
        let bad_kind =
            "{\"telemetry\":1,\"rank\":0,\"dropped\":0}\n{\"t_ns\":1,\"kind\":\"zap\",\"cell\":0,\"iter\":0,\"arg\":0}";
        assert!(parse_journal(bad_kind).is_err());
    }

    #[test]
    fn journal_dir_reads_sorted() {
        let dir = std::env::temp_dir().join("lipiz_tel_journal_dir");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        write_journal(&dir.join("node02.jsonl"), 2, 0, std::iter::empty()).unwrap();
        write_journal(&dir.join("node01.jsonl"), 1, 0, std::iter::empty()).unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let journals = read_journal_dir(&dir).unwrap();
        assert_eq!(journals.iter().map(|j| j.rank).collect::<Vec<_>>(), vec![1, 2]);
    }

    fn arb_event() -> impl Strategy<Value = Event> {
        (any::<u64>(), 0usize..EventKind::ALL.len(), any::<u32>(), any::<u32>(), any::<u64>())
            .prop_map(|(t_ns, k, cell, iter, arg)| Event {
                t_ns,
                kind: EventKind::ALL[k],
                cell,
                iter,
                arg,
            })
    }

    proptest! {
        #[test]
        fn journal_round_trip(
            rank in any::<u32>(),
            dropped in any::<u64>(),
            events in proptest::collection::vec(arb_event(), 0..32),
        ) {
            let text = journal_to_string(rank, dropped, events.iter());
            let back = parse_journal(&text).unwrap();
            prop_assert_eq!(back, RankJournal { rank, dropped, events });
        }
    }
}
