//! Run telemetry for the lipizzaner drivers.
//!
//! This crate is the run's one stopwatch. Every routine duration in the
//! tree is measured by a [`Telemetry`] span and booked once, into
//! [`RankMetrics`]' per-routine totals — the ledger the Table IV report
//! (`lipiz_core::ProfileReport`) is a view of, always on. Totals cannot
//! explain *when* things happened (async-exchange overlap, degraded
//! gathers, in-flight rank replacement, checkpoint commits), so the same
//! spans also feed, when telemetry is enabled, the journal and the latency
//! histograms. The pieces every driver threads through:
//!
//! * [`Event`] / [`EventRing`] — a fixed-capacity, allocation-free
//!   per-rank event journal. Each event is a fixed-size record stamped
//!   with cell, iteration, and monotonic nanoseconds; when the ring is
//!   full the oldest record is overwritten and a drop counter ticks —
//!   the ring never resizes, so hot-path recording preserves the
//!   workspace's steady-state zero-allocation guarantee.
//! * [`metrics`] — a small metrics registry: the per-routine totals,
//!   [`metrics::Counter`], [`metrics::Gauge`], and fixed-bucket log2
//!   [`metrics::LogHistogram`]s for per-iteration gather/train latency
//!   (p50/p99 without storing samples).
//! * [`Telemetry`] — the per-rank recorder combining both, with a span
//!   API ([`Telemetry::begin`] / [`Telemetry::end`], and
//!   [`Telemetry::span_at`] on the simulator's virtual clock) that
//!   measures a Table IV routine ([`SpanKind`]), books it *and* journals
//!   its begin/end in one call. A disabled recorder still measures and
//!   totals but journals nothing — telemetry off costs two adds a span.
//! * [`TelemetrySummary`] — the compact mergeable aggregate slaves ship
//!   to the master at commit boundaries (and with the final result), so
//!   the master can print a live status line and persist a merged run
//!   summary next to the `.lpz`.
//! * [`journal`] / [`trace`] — per-rank JSONL journal files and the
//!   Chrome trace-event exporter (`lipizzaner trace`) that merges them
//!   into a Perfetto-loadable timeline, one track per rank. The cluster
//!   simulator emits the identical format on virtual time, so simulated
//!   and real timelines are directly comparable.
//!
//! Telemetry never touches RNG or training state: runs with and without
//! it produce byte-identical `.lpz` ensembles (asserted by the
//! integration suites).

pub mod event;
pub mod journal;
pub mod metrics;
pub mod recorder;
pub mod ring;
pub mod summary;
pub mod trace;

pub use event::{Event, EventKind, SpanKind, NO_CELL};
pub use journal::{parse_journal, read_journal_dir, RankJournal};
pub use metrics::{Counter, Gauge, LogHistogram, RankMetrics};
pub use recorder::{SharedTelemetry, SpanStart, Telemetry};
pub use ring::EventRing;
pub use summary::{TelemetrySummary, MERGED_RANK};
pub use trace::chrome_trace;
