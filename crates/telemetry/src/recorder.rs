//! The per-rank recorder: span API + event ring + metrics registry.

use crate::event::{Event, EventKind, SpanKind};
use crate::metrics::RankMetrics;
use crate::ring::{EventRing, DEFAULT_CAPACITY};
use crate::summary::TelemetrySummary;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Token returned by [`Telemetry::begin`]: the span's start on the
/// recorder's clock, so [`Telemetry::end`] can measure, book and journal it.
#[derive(Debug, Clone, Copy)]
pub struct SpanStart {
    t_ns: u64,
    sampled: bool,
}

impl SpanStart {
    /// Mark the span as one part of a routine's time but not a latency
    /// sample of its own — a cell's ingest of the gathered frame: still
    /// booked and journaled, kept out of the histograms, so `gather_ns`
    /// holds exactly the blocking exchange waits.
    pub fn unsampled(self) -> Self {
        Self { sampled: false, ..self }
    }
}

/// One rank's telemetry state. Exactly one per rank, owned by the
/// driver's training thread — recording takes `&mut self` and is a few
/// stores, no locks, no allocation.
///
/// A *disabled* recorder (the default when `--telemetry` is off) still
/// measures spans and books them into the per-routine totals — Table IV
/// is printed with telemetry off too, which is what lets the drivers
/// route all their timing through this one API — but journals nothing and
/// keeps no latency histograms.
#[derive(Debug)]
pub struct Telemetry {
    rank: u32,
    origin: Instant,
    ring: Option<Box<EventRing>>,
    /// The metrics registry (public: drivers bump counters directly).
    pub metrics: RankMetrics,
}

impl Telemetry {
    /// A recorder that measures and totals but journals nothing. Free: no
    /// ring is allocated and every record call is a no-op branch.
    pub fn disabled() -> Self {
        Self { rank: 0, origin: Instant::now(), ring: None, metrics: RankMetrics::default() }
    }

    /// An active recorder for `rank` with a ring of `capacity` events
    /// (0 = default). The only allocation happens here.
    pub fn enabled(rank: u32, capacity: usize) -> Self {
        let capacity = if capacity == 0 { DEFAULT_CAPACITY } else { capacity };
        Self {
            rank,
            origin: Instant::now(),
            ring: Some(Box::new(EventRing::new(capacity))),
            metrics: RankMetrics::default(),
        }
    }

    /// Build from a config-style gate: active when `enabled`.
    pub fn from_gate(enabled: bool, rank: u32, capacity: usize) -> Self {
        if enabled {
            Self::enabled(rank, capacity)
        } else {
            Self::disabled()
        }
    }

    /// Is this recorder journaling?
    pub fn is_enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// The rank this recorder belongs to.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Monotonic nanoseconds since this recorder's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a Table IV routine span.
    pub fn begin(&mut self, kind: SpanKind, cell: u32, iter: u32) -> SpanStart {
        let t_ns = self.now_ns();
        if self.ring.is_some() {
            self.push(Event { t_ns, kind: kind.begin_kind(), cell, iter, arg: 0 });
        }
        SpanStart { t_ns, sampled: true }
    }

    /// Close a span opened by [`Telemetry::begin`]: book it into the
    /// routine totals, journal it, feed the gather/train latency
    /// histograms, and return the measured duration.
    pub fn end(&mut self, kind: SpanKind, cell: u32, iter: u32, start: SpanStart) -> Duration {
        let ns = self.now_ns().saturating_sub(start.t_ns);
        let end = Event { t_ns: start.t_ns + ns, kind: kind.end_kind(), cell, iter, arg: ns };
        self.close(kind, start.sampled, end);
        Duration::from_nanos(ns)
    }

    /// A whole span at explicit timestamps — the cluster simulator's entry
    /// point, which stamps virtual nanoseconds so the view, the histograms
    /// and the exported timeline all live on the simulated clock.
    pub fn span_at(&mut self, kind: SpanKind, cell: u32, iter: u32, t0_ns: u64, dur_ns: u64) {
        self.record_at(kind.begin_kind(), cell, iter, 0, t0_ns);
        let end =
            Event { t_ns: t0_ns + dur_ns, kind: kind.end_kind(), cell, iter, arg: dur_ns };
        self.close(kind, true, end);
    }

    /// The one feed: every span reaches the totals, the journal and the
    /// histograms through here, as its end record (`arg` = duration).
    fn close(&mut self, kind: SpanKind, sampled: bool, end: Event) {
        self.metrics.routine_ns[kind as usize] += end.arg;
        self.metrics.routine_calls[kind as usize] += 1;
        if self.ring.is_some() {
            self.push(end);
            match kind {
                SpanKind::Gather if sampled => self.metrics.gather_ns.observe(end.arg),
                SpanKind::Train if sampled => self.metrics.train_ns.observe(end.arg),
                _ => {}
            }
        }
    }

    /// Journal an instant event at the current time.
    pub fn instant(&mut self, kind: EventKind, cell: u32, iter: u32, arg: u64) {
        if self.ring.is_some() {
            let t_ns = self.now_ns();
            self.push(Event { t_ns, kind, cell, iter, arg });
        }
    }

    /// Journal an instant event at an explicit timestamp (the cluster
    /// simulator's virtual nanoseconds; spans go through
    /// [`Telemetry::span_at`]).
    pub fn record_at(&mut self, kind: EventKind, cell: u32, iter: u32, arg: u64, t_ns: u64) {
        if self.ring.is_some() {
            self.push(Event { t_ns, kind, cell, iter, arg });
        }
    }

    fn push(&mut self, e: Event) {
        if let Some(ring) = self.ring.as_mut() {
            ring.record(e);
        }
    }

    /// Live journal records, oldest first (empty when disabled).
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.ring.iter().flat_map(|r| r.iter())
    }

    /// Records lost to ring overwrites.
    pub fn dropped(&self) -> u64 {
        self.ring.as_ref().map_or(0, |r| r.dropped())
    }

    /// The compact mergeable aggregate this rank ships to the master.
    pub fn summary(&self, cell: u32) -> TelemetrySummary {
        TelemetrySummary {
            rank: self.rank,
            cell,
            iterations: self.metrics.routine_calls[SpanKind::Train as usize],
            routine_ns: self.metrics.routine_ns,
            routine_calls: self.metrics.routine_calls,
            gather_ns: self.metrics.gather_ns,
            train_ns: self.metrics.train_ns,
            exchange_wall_ns: self.metrics.exchange_wall_ns.get(),
            checkpoints: self.metrics.checkpoints.get(),
            degraded_iters: self.metrics.degraded_iters.get(),
            staleness: self.metrics.staleness.get(),
            rejoined: self.metrics.rejoined.get(),
            replaced_ranks: 0,
            dropped_events: self.dropped(),
        }
    }

    /// Write this rank's journal as JSONL (see [`crate::journal`]); a
    /// no-op returning `Ok` when disabled. Creates parent directories.
    pub fn write_journal(&self, path: &Path) -> std::io::Result<()> {
        if !self.is_enabled() {
            return Ok(());
        }
        crate::journal::write_journal(path, self.rank, self.dropped(), self.events())
    }

    /// Flush the journal to `<dir>/<file>` at the end of a run (no-op
    /// without a directory, or when disabled). A failed write is reported
    /// on stderr and never fails the run.
    pub fn flush_journal(&self, dir: Option<&str>, file: &str) {
        let Some(dir) = dir else { return };
        let path = Path::new(dir).join(file);
        if let Err(e) = self.write_journal(&path) {
            eprintln!("telemetry: journal write failed ({}): {e}", path.display());
        }
    }
}

/// A mutex-wrapped recorder for the master process, where the heartbeat
/// thread journals misses and the result-gathering thread journals the
/// verdicts it acts on. Not for training hot paths — slaves own their
/// [`Telemetry`] directly.
#[derive(Debug)]
pub struct SharedTelemetry(Mutex<Telemetry>);

impl SharedTelemetry {
    /// Wrap a recorder for cross-thread journaling.
    pub fn new(tel: Telemetry) -> Self {
        Self(Mutex::new(tel))
    }

    /// Is the underlying recorder journaling?
    pub fn is_enabled(&self) -> bool {
        self.0.lock().expect("telemetry lock").is_enabled()
    }

    /// Journal an instant event at the current time.
    pub fn instant(&self, kind: EventKind, cell: u32, iter: u32, arg: u64) {
        self.0.lock().expect("telemetry lock").instant(kind, cell, iter, arg);
    }

    /// Flush the journal to `<dir>/<file>` (see [`Telemetry::flush_journal`]).
    pub fn flush_journal(&self, dir: Option<&str>, file: &str) {
        self.0.lock().expect("telemetry lock").flush_journal(dir, file);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_measures_and_totals_but_journals_nothing() {
        let mut tel = Telemetry::disabled();
        let s = tel.begin(SpanKind::Train, 0, 0);
        std::thread::sleep(Duration::from_millis(2));
        let d = tel.end(SpanKind::Train, 0, 0, s);
        assert!(d >= Duration::from_millis(2), "span must still measure");
        tel.span_at(SpanKind::Train, 0, 1, 10, 5);
        tel.instant(EventKind::Kill, 0, 0, 0);
        // Table IV exists with telemetry off: the totals are always on.
        let train = SpanKind::Train as usize;
        assert_eq!(tel.metrics.routine_ns[train], d.as_nanos() as u64 + 5);
        assert_eq!(tel.metrics.routine_calls[train], 2);
        assert_eq!(tel.events().count(), 0);
        assert!(tel.metrics.train_ns.is_empty());
        assert!(!tel.is_enabled());
    }

    #[test]
    fn virtual_and_unsampled_spans_share_the_one_feed() {
        let mut tel = Telemetry::enabled(1, 16);
        tel.span_at(SpanKind::Gather, 2, 7, 1_000, 250);
        let s = tel.begin(SpanKind::Gather, 2, 7);
        let ingest = tel.end(SpanKind::Gather, 2, 7, s.unsampled()).as_nanos() as u64;
        let events: Vec<Event> = tel.events().copied().collect();
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        use EventKind::{GatherBegin, GatherEnd};
        assert_eq!(kinds, [GatherBegin, GatherEnd, GatherBegin, GatherEnd]);
        assert_eq!((events[0].t_ns, events[1].t_ns, events[1].arg), (1_000, 1_250, 250));
        assert_eq!(events[3].arg, ingest);
        // Both spans are gather time; only the exchange wait is a sample.
        let gather = SpanKind::Gather as usize;
        assert_eq!(tel.metrics.routine_ns[gather], 250 + ingest);
        assert_eq!(tel.metrics.routine_calls[gather], 2);
        assert_eq!((tel.metrics.gather_ns.count, tel.metrics.gather_ns.sum), (1, 250));
        assert_eq!(tel.summary(2).routine_ns, tel.metrics.routine_ns);
    }

    #[test]
    fn enabled_recorder_journals_spans_and_hists() {
        let mut tel = Telemetry::enabled(3, 16);
        let s = tel.begin(SpanKind::Gather, 2, 5);
        let d = tel.end(SpanKind::Gather, 2, 5, s);
        tel.instant(EventKind::CheckpointCommit, 2, 5, 6);
        let events: Vec<Event> = tel.events().copied().collect();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EventKind::GatherBegin);
        assert_eq!(events[1].kind, EventKind::GatherEnd);
        assert_eq!(events[1].arg, events[1].t_ns - events[0].t_ns);
        assert_eq!(events[2].kind, EventKind::CheckpointCommit);
        assert_eq!(tel.metrics.gather_ns.count, 1);
        assert!(tel.metrics.gather_ns.sum <= d.as_nanos() as u64 + 1);
        assert_eq!(tel.rank(), 3);
    }

    #[test]
    fn summary_reflects_metrics() {
        let mut tel = Telemetry::enabled(2, 16);
        for iter in 0..6 {
            tel.span_at(SpanKind::Train, 1, iter, 0, 1);
        }
        tel.metrics.checkpoints.add(3);
        tel.metrics.staleness.set(1);
        let s = tel.summary(1);
        assert_eq!(s.rank, 2);
        assert_eq!(s.cell, 1);
        assert_eq!(s.iterations, 6);
        assert_eq!(s.checkpoints, 3);
        assert_eq!(s.staleness, 1);
    }

    #[test]
    fn shared_recorder_is_send_and_records() {
        let shared = SharedTelemetry::new(Telemetry::enabled(0, 8));
        std::thread::scope(|scope| {
            scope.spawn(|| shared.instant(EventKind::Conviction, 3, 2, 0));
        });
        assert!(shared.is_enabled());
        let dir = std::env::temp_dir().join("lipiz_tel_shared");
        shared.flush_journal(dir.to_str(), "master.jsonl");
        let text = std::fs::read_to_string(dir.join("master.jsonl")).unwrap();
        assert!(text.contains("\"kind\":\"conviction\""));
    }
}
