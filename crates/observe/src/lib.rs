//! # adpm-observe
//!
//! Observability layer for the ADPM reproduction: structured trace events
//! and aggregate counters emitted from the hot paths of the constraint
//! propagation engine ([`propagate`](https://docs.rs/adpm-constraint)) and
//! the TeamSim simulation loop, without either of those crates paying for
//! instrumentation when nobody is listening.
//!
//! The crate is deliberately dependency-free and speaks only in plain
//! integers, booleans, and `&str` so that every other workspace crate —
//! including the lowest-level `adpm-constraint` — can depend on it.
//!
//! ## The pieces
//!
//! * [`MetricsSink`] — the trait instrumented code writes to. Hot paths
//!   call [`MetricsSink::is_enabled`] once and skip event construction
//!   entirely when it returns `false`, so the no-op sink costs one virtual
//!   call per span.
//! * [`Counter`] — the closed set of aggregate counters (operations,
//!   constraint evaluations, propagation waves, spins, ...).
//! * [`TraceEvent`] — the structured spans: per-propagation-wave,
//!   per-propagation, per-operation, per-tick, notification fan-out, and
//!   run summary.
//! * [`NoopSink`] — ships with everything disabled; the default everywhere.
//! * [`InMemorySink`] — lock-free counter aggregation over atomics, for
//!   benches and tests.
//! * [`JsonlSink`] — serializes every event as one JSON object per line
//!   (see `docs/OBSERVABILITY.md` for the schema) for offline analysis and
//!   replay auditing.
//! * [`parse_trace`] / [`TraceLine`] — a minimal reader for the JSONL
//!   format, used by `adpm-core`'s replay auditing and by tests.
//! * [`Clock`] / [`MonotonicClock`] / [`ManualClock`] — injectable
//!   monotonic time for span durations; the manual clock keeps golden
//!   traces byte-deterministic.
//! * [`Histogram`] / [`SpanKind`] — log-bucketed duration capture per span
//!   kind, aggregated by [`InMemorySink`] via [`MetricsSink::time`].
//! * [`MetricsHub`] / [`Snapshot`] — live telemetry: a registry of
//!   per-session sinks plus a server-wide rollup, with cheap point-in-time
//!   snapshots, deltas, and a plaintext scrape exposition
//!   ([`write_exposition`] / [`parse_exposition`]).
//! * [`FlightRecorder`] — an always-on bounded ring of the most recent
//!   events (fixed memory, no I/O) for post-incident dumps on untraced
//!   servers.
//! * [`analyze`] — offline trace analysis: hot-spot attribution, timing
//!   rollups, λ=T vs λ=F comparison, and trace-to-trace regression diffs.
//!
//! ## Quick example
//!
//! ```
//! use adpm_observe::{Counter, InMemorySink, MetricsSink, SpanKind, TraceEvent};
//!
//! let sink = InMemorySink::new();
//! sink.incr(Counter::Waves, 3);
//! sink.record(&TraceEvent::PropagationDone {
//!     kind: "full",
//!     seeded: 9,
//!     waves: 3,
//!     evaluations: 17,
//!     narrowed: 2,
//!     conflicts: 0,
//!     fixpoint: true,
//!     dur_us: 120,
//! });
//! sink.time(SpanKind::Propagation, 120);
//! assert_eq!(sink.get(Counter::Waves), 3);
//! assert_eq!(sink.histogram(SpanKind::Propagation).max(), 120);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analyze;
mod clock;
mod histogram;
mod hub;
mod json;
mod jsonl;
mod recorder;
mod sink;
mod trace;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use histogram::{Histogram, SpanKind};
pub use hub::{
    parse_exposition, write_exposition, MetricsHub, Snapshot, SpanSummary, ROLLUP_SESSION,
};
pub use json::{
    escape_into, field_bool, field_f64, field_str, field_u64, parse_object, JsonValue,
    TraceParseError,
};
pub use jsonl::{parse_trace, JsonlSink, TraceLine};
pub use recorder::{FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use sink::{CounterSnapshot, InMemorySink, MetricsSink, NoopSink, TeeSink};
pub use trace::{Counter, TraceEvent, TraceEventOf};
