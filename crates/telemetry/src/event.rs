//! The fixed-size event record and its taxonomy.

/// Cell stamp for events that concern a whole rank (or the whole grid)
/// rather than one cell.
pub const NO_CELL: u32 = u32::MAX;

/// Everything the journal can record. Span kinds come in begin/end pairs
/// (the Table IV routines); the rest are instant events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// Gather span opened (neighbor exchange / snapshot refresh).
    GatherBegin = 0,
    /// Gather span closed.
    GatherEnd = 1,
    /// Mutate span opened (hyperparameter mutation).
    MutateBegin = 2,
    /// Mutate span closed.
    MutateEnd = 3,
    /// Train span opened (mini-batch adversarial steps).
    TrainBegin = 4,
    /// Train span closed.
    TrainEnd = 5,
    /// Update-genomes span opened (re-evaluation + promotion + mixture ES).
    UpdateBegin = 6,
    /// Update-genomes span closed.
    UpdateEnd = 7,
    /// Other span opened (checkpoint capture, bookkeeping).
    OtherBegin = 8,
    /// Other span closed.
    OtherEnd = 9,
    /// This rank's snapshot posted to its readers, without waiting for
    /// them, in either exchange mode. `arg` = generation.
    ExchangeBegin = 10,
    /// A gathered neighbor frame became available to compute.
    /// `arg` = the generation consumed.
    ExchangeComplete = 11,
    /// A checkpoint cut was committed. `arg` = committed iteration.
    CheckpointCommit = 12,
    /// The master's heartbeat missed a slave's status response.
    /// `cell` = suspect world rank, `arg` = consecutive misses so far.
    HeartbeatMiss = 13,
    /// The master's gather declared a slave dead on its heartbeat misses
    /// and acted on it (abort or in-flight replacement). `cell` = convicted
    /// world rank, `iter` = its last reported iteration count, `arg` = its
    /// consecutive misses. (Discriminant 15 is retired.)
    Conviction = 14,
    /// A gather substituted a dead rank's frozen death-frame.
    /// `arg` = the absent world rank.
    Degraded = 16,
    /// A replacement rank finished solo catch-up and joined the live
    /// exchange. `iter` = the rejoin round.
    Rejoin = 17,
    /// A scripted kill boundary was reached; the process dies after this
    /// record is flushed.
    Kill = 18,
}

impl EventKind {
    /// Every kind, in discriminant order.
    pub const ALL: [EventKind; 18] = [
        EventKind::GatherBegin,
        EventKind::GatherEnd,
        EventKind::MutateBegin,
        EventKind::MutateEnd,
        EventKind::TrainBegin,
        EventKind::TrainEnd,
        EventKind::UpdateBegin,
        EventKind::UpdateEnd,
        EventKind::OtherBegin,
        EventKind::OtherEnd,
        EventKind::ExchangeBegin,
        EventKind::ExchangeComplete,
        EventKind::CheckpointCommit,
        EventKind::HeartbeatMiss,
        EventKind::Conviction,
        EventKind::Degraded,
        EventKind::Rejoin,
        EventKind::Kill,
    ];

    /// Stable journal name of this kind.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::GatherBegin => "gather_begin",
            EventKind::GatherEnd => "gather_end",
            EventKind::MutateBegin => "mutate_begin",
            EventKind::MutateEnd => "mutate_end",
            EventKind::TrainBegin => "train_begin",
            EventKind::TrainEnd => "train_end",
            EventKind::UpdateBegin => "update_begin",
            EventKind::UpdateEnd => "update_end",
            EventKind::OtherBegin => "other_begin",
            EventKind::OtherEnd => "other_end",
            EventKind::ExchangeBegin => "exchange_begin",
            EventKind::ExchangeComplete => "exchange_complete",
            EventKind::CheckpointCommit => "checkpoint_commit",
            EventKind::HeartbeatMiss => "heartbeat_miss",
            EventKind::Conviction => "conviction",
            EventKind::Degraded => "degraded",
            EventKind::Rejoin => "rejoin",
            EventKind::Kill => "kill",
        }
    }

    /// Inverse of [`EventKind::name`].
    pub fn from_name(name: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// For a span-begin kind, the name of the span it opens (the Table IV
    /// routine name); `None` for end markers and instants.
    pub fn span_open(self) -> Option<&'static str> {
        SpanKind::ALL.into_iter().find(|s| s.begin_kind() == self).map(SpanKind::name)
    }

    /// For a span-end kind, the name of the span it closes.
    pub fn span_close(self) -> Option<&'static str> {
        SpanKind::ALL.into_iter().find(|s| s.end_kind() == self).map(SpanKind::name)
    }
}

/// The five profiled routines, in the paper's Table IV order — the one
/// routine enum of the workspace (`lipiz_core::Routine` is this type). The
/// discriminant indexes [`crate::RankMetrics::routine_ns`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Neighbor-center exchange (MPI allgather in the distributed
    /// version) plus each cell's ingest of the gathered frame.
    Gather,
    /// Adversarial gradient steps.
    Train,
    /// Fitness evaluation, center replacement, mixture evolution.
    UpdateGenomes,
    /// Hyperparameter / loss mutation.
    Mutate,
    /// Everything else (checkpoint capture, bookkeeping).
    Other,
}

impl SpanKind {
    /// All routines in display order.
    pub const ALL: [SpanKind; 5] = [
        SpanKind::Gather,
        SpanKind::Train,
        SpanKind::UpdateGenomes,
        SpanKind::Mutate,
        SpanKind::Other,
    ];

    /// Table IV row label (also the span name in an exported trace).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Gather => "gather",
            SpanKind::Train => "train",
            SpanKind::UpdateGenomes => "update genomes",
            SpanKind::Mutate => "mutate",
            SpanKind::Other => "other",
        }
    }

    /// The event kind that opens this span.
    pub fn begin_kind(self) -> EventKind {
        match self {
            SpanKind::Gather => EventKind::GatherBegin,
            SpanKind::Mutate => EventKind::MutateBegin,
            SpanKind::Train => EventKind::TrainBegin,
            SpanKind::UpdateGenomes => EventKind::UpdateBegin,
            SpanKind::Other => EventKind::OtherBegin,
        }
    }

    /// The event kind that closes this span.
    pub fn end_kind(self) -> EventKind {
        match self {
            SpanKind::Gather => EventKind::GatherEnd,
            SpanKind::Mutate => EventKind::MutateEnd,
            SpanKind::Train => EventKind::TrainEnd,
            SpanKind::UpdateGenomes => EventKind::UpdateEnd,
            SpanKind::Other => EventKind::OtherEnd,
        }
    }
}

/// One fixed-size journal record: 24 bytes of payload, no heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Monotonic nanoseconds since the recorder's origin (virtual
    /// nanoseconds for the cluster simulator).
    pub t_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Cell the event concerns ([`NO_CELL`] for rank-wide events; world
    /// rank for the master's heartbeat verdicts).
    pub cell: u32,
    /// Training iteration the event belongs to.
    pub iter: u32,
    /// Kind-specific argument (generation, miss count, absent rank, …).
    pub arg: u64,
}

impl Event {
    /// A zeroed placeholder record (ring pre-fill).
    pub fn empty() -> Self {
        Self { t_ns: 0, kind: EventKind::GatherBegin, cell: 0, iter: 0, arg: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for k in EventKind::ALL {
            assert_eq!(EventKind::from_name(k.name()), Some(k));
        }
        assert_eq!(EventKind::from_name("nope"), None);
    }

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<_> = EventKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventKind::ALL.len());
    }

    #[test]
    fn span_kinds_pair_up() {
        for s in SpanKind::ALL {
            let open = s.begin_kind().span_open().expect("begin opens");
            let close = s.end_kind().span_close().expect("end closes");
            assert_eq!(open, close);
            assert!(s.begin_kind().span_close().is_none());
            assert!(s.end_kind().span_open().is_none());
        }
        assert!(EventKind::Kill.span_open().is_none());
        assert!(EventKind::Kill.span_close().is_none());
    }
}
