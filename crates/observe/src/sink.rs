//! The [`MetricsSink`] trait and its in-process implementations.

use crate::histogram::{Histogram, SpanKind};
use crate::trace::{Counter, TraceEvent};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Where instrumented hot paths send their counters and trace events.
///
/// Implementations must be thread-safe: the TeamSim engine and benches may
/// share one sink across threads. The `Debug` supertrait keeps structs that
/// embed an `Arc<dyn MetricsSink>` derivable.
///
/// ## Cost contract
///
/// Instrumented code is expected to guard *event construction* with
/// [`is_enabled`](MetricsSink::is_enabled) — building a [`TraceEvent`] and
/// formatting its fields must not happen when the method returns `false`.
/// Counter increments ([`incr`](MetricsSink::incr)) may be called
/// unconditionally; the no-op implementation compiles down to an indirect
/// call that immediately returns.
///
/// A sink's [`is_enabled`](MetricsSink::is_enabled) and
/// [`wants_profiles`](MetricsSink::wants_profiles) answers must not change
/// over its life: a [`TeeSink`] reads them once, when it is built.
pub trait MetricsSink: fmt::Debug + Send + Sync {
    /// Whether this sink wants [`TraceEvent`]s. Hot paths skip building
    /// events entirely when this is `false`.
    fn is_enabled(&self) -> bool {
        true
    }

    /// Whether this sink wants the per-run attribution events
    /// ([`TraceEvent::ConstraintProfile`] and
    /// [`TraceEvent::PropertyProfile`]): one per constraint evaluated and
    /// one per property narrowed in every propagation run. Producers build
    /// them only when both this and [`is_enabled`](MetricsSink::is_enabled)
    /// are true. The default follows `is_enabled`, so a trace writer keeps
    /// every line; sinks that only count or keep a short ring of recent
    /// events return `false`.
    fn wants_profiles(&self) -> bool {
        self.is_enabled()
    }

    /// Adds `by` to `counter`.
    fn incr(&self, counter: Counter, by: u64);

    /// Records one structured event.
    fn record(&self, event: &TraceEvent<'_>);

    /// Records the duration of one timed span, in µs. The default is a
    /// no-op so counter-only sinks need not care; [`InMemorySink`]
    /// aggregates into one [`Histogram`] per [`SpanKind`]. Producers only
    /// time spans when [`is_enabled`](MetricsSink::is_enabled) is true (the
    /// clock reads ride along with event construction).
    fn time(&self, kind: SpanKind, dur_us: u64) {
        let _ = (kind, dur_us);
    }

    /// Makes everything recorded so far durable, best-effort. Producers
    /// call this at *degradation points* — moments (like a session's
    /// journal failing) that suggest the process may not live to a clean
    /// shutdown — so buffered telemetry is not lost with it. The default
    /// is a no-op; [`crate::JsonlSink`] runs its
    /// [`finish`](crate::JsonlSink::finish) (counters line + flush),
    /// deferring any I/O error as usual.
    fn flush(&self) {}
}

/// The default sink: drops everything, reports itself disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl MetricsSink for NoopSink {
    fn is_enabled(&self) -> bool {
        false
    }

    fn incr(&self, _counter: Counter, _by: u64) {}

    fn record(&self, _event: &TraceEvent<'_>) {}
}

/// A point-in-time copy of every counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    values: [u64; Counter::COUNT],
}

// Manual impls: derived `Default` stops at 32-element arrays.
impl Default for CounterSnapshot {
    fn default() -> Self {
        CounterSnapshot {
            values: [0; Counter::COUNT],
        }
    }
}

impl CounterSnapshot {
    /// Builds a snapshot by asking `value` for every counter — the
    /// constructor used when a snapshot is reconstructed from an external
    /// representation (a parsed scrape exposition, a `stats_reply` frame).
    pub fn from_fn(mut value: impl FnMut(Counter) -> u64) -> CounterSnapshot {
        let mut out = CounterSnapshot::default();
        for c in Counter::ALL {
            out.values[c.index()] = value(c);
        }
        out
    }

    /// The value of one counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.values[counter.index()]
    }

    /// Iterates `(counter, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.iter().map(|c| (*c, self.values[c.index()]))
    }

    /// The snapshot minus `earlier`, counter-wise (saturating) — the delta
    /// a phase contributed between two snapshots of the same sink.
    pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        let mut out = CounterSnapshot::default();
        for c in Counter::ALL {
            out.values[c.index()] =
                self.values[c.index()].saturating_sub(earlier.values[c.index()]);
        }
        out
    }

    /// Serializes the snapshot as a `{"t":"counters",...}` JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"t\":\"counters\"");
        for (counter, value) in self.iter() {
            out.push_str(",\"");
            out.push_str(counter.name());
            out.push_str("\":");
            out.push_str(&value.to_string());
        }
        out.push('}');
        out
    }
}

impl fmt::Display for CounterSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (counter, value) in self.iter() {
            writeln!(f, "{:<16} {value}", counter.name())?;
        }
        Ok(())
    }
}

/// Lock-free in-memory aggregation: one atomic per [`Counter`], one
/// [`Histogram`] per [`SpanKind`], events counted but not retained. The
/// right sink for benches and concurrency tests. It wants no profile
/// events ([`MetricsSink::wants_profiles`]), so they are neither built
/// for it nor counted.
#[derive(Debug)]
pub struct InMemorySink {
    counters: [AtomicU64; Counter::COUNT],
    timings: [Histogram; SpanKind::COUNT],
    events: AtomicU64,
}

impl Default for InMemorySink {
    fn default() -> Self {
        InMemorySink {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            timings: std::array::from_fn(|_| Histogram::default()),
            events: AtomicU64::new(0),
        }
    }
}

impl InMemorySink {
    /// Creates a sink with all counters at zero.
    pub fn new() -> Self {
        InMemorySink::default()
    }

    /// The current value of one counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].load(Ordering::Relaxed)
    }

    /// Number of [`TraceEvent`]s recorded (the events themselves are not
    /// retained).
    pub fn events_recorded(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> CounterSnapshot {
        let mut snapshot = CounterSnapshot::default();
        for c in Counter::ALL {
            snapshot.values[c.index()] = self.get(c);
        }
        snapshot
    }

    /// The duration histogram of one span kind.
    pub fn histogram(&self, kind: SpanKind) -> &Histogram {
        &self.timings[kind.index()]
    }

    /// Resets every counter, histogram, and the event count to zero.
    pub fn reset(&self) {
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
        for h in &self.timings {
            h.reset();
        }
        self.events.store(0, Ordering::Relaxed);
    }
}

impl MetricsSink for InMemorySink {
    fn wants_profiles(&self) -> bool {
        false
    }

    fn incr(&self, counter: Counter, by: u64) {
        self.counters[counter.index()].fetch_add(by, Ordering::Relaxed);
    }

    fn record(&self, _event: &TraceEvent<'_>) {
        self.events.fetch_add(1, Ordering::Relaxed);
    }

    fn time(&self, kind: SpanKind, dur_us: u64) {
        self.timings[kind.index()].record(dur_us);
    }
}

/// Fans every call out to several sinks (e.g. aggregate counters in memory
/// *and* stream a JSONL trace).
///
/// The children are fixed: the tee asks each one for
/// [`is_enabled`](MetricsSink::is_enabled) and
/// [`wants_profiles`](MetricsSink::wants_profiles) once, when it is built.
#[derive(Debug, Clone, Default)]
pub struct TeeSink {
    sinks: Vec<Arc<dyn MetricsSink>>,
    /// The enabled children, which get every event that is not a profile.
    event_sinks: Vec<Arc<dyn MetricsSink>>,
    /// The enabled children that want profiles too.
    profile_sinks: Vec<Arc<dyn MetricsSink>>,
}

impl TeeSink {
    /// Creates a tee over the given sinks.
    pub fn new(sinks: Vec<Arc<dyn MetricsSink>>) -> Self {
        let event_sinks: Vec<_> = sinks.iter().filter(|s| s.is_enabled()).cloned().collect();
        let profile_sinks = event_sinks
            .iter()
            .filter(|s| s.wants_profiles())
            .cloned()
            .collect();
        TeeSink {
            sinks,
            event_sinks,
            profile_sinks,
        }
    }
}

impl MetricsSink for TeeSink {
    fn is_enabled(&self) -> bool {
        !self.event_sinks.is_empty()
    }

    fn wants_profiles(&self) -> bool {
        !self.profile_sinks.is_empty()
    }

    fn incr(&self, counter: Counter, by: u64) {
        for sink in &self.sinks {
            sink.incr(counter, by);
        }
    }

    /// Forwards `event` to every enabled child; profile events only to the
    /// children that want them.
    fn record(&self, event: &TraceEvent<'_>) {
        let sinks = if event.is_profile() {
            &self.profile_sinks
        } else {
            &self.event_sinks
        };
        for sink in sinks {
            sink.record(event);
        }
    }

    fn time(&self, kind: SpanKind, dur_us: u64) {
        for sink in &self.sinks {
            sink.time(kind, dur_us);
        }
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_silent() {
        let sink = NoopSink;
        assert!(!sink.is_enabled());
        sink.incr(Counter::Waves, 5);
        sink.record(&TraceEvent::Tick {
            tick: 0,
            designer: 0,
            outcome: "executed",
            dur_us: 0,
        });
    }

    #[test]
    fn in_memory_aggregates_and_snapshots() {
        let sink = InMemorySink::new();
        sink.incr(Counter::Evaluations, 10);
        sink.incr(Counter::Evaluations, 5);
        sink.incr(Counter::Spins, 1);
        let snap = sink.snapshot();
        assert_eq!(snap.get(Counter::Evaluations), 15);
        assert_eq!(snap.get(Counter::Spins), 1);
        assert_eq!(snap.get(Counter::Waves), 0);
        sink.incr(Counter::Evaluations, 1);
        let delta = sink.snapshot().since(&snap);
        assert_eq!(delta.get(Counter::Evaluations), 1);
        assert_eq!(delta.get(Counter::Spins), 0);
        sink.reset();
        assert_eq!(sink.get(Counter::Evaluations), 0);
    }

    #[test]
    fn concurrent_increments_from_many_threads_are_all_counted() {
        const THREADS: usize = 8;
        const INCRS_PER_THREAD: u64 = 10_000;
        let sink = Arc::new(InMemorySink::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|i| {
                let sink = sink.clone();
                std::thread::spawn(move || {
                    for _ in 0..INCRS_PER_THREAD {
                        sink.incr(Counter::Evaluations, 1);
                        // Half the threads also contend on a second counter
                        // and on the event path.
                        if i % 2 == 0 {
                            sink.incr(Counter::Waves, 2);
                            sink.record(&TraceEvent::Tick {
                                tick: 0,
                                designer: 0,
                                outcome: "executed",
                                dur_us: 0,
                            });
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("worker thread panicked");
        }
        let expected = THREADS as u64 * INCRS_PER_THREAD;
        assert_eq!(sink.get(Counter::Evaluations), expected);
        assert_eq!(sink.get(Counter::Waves), expected);
        assert_eq!(sink.events_recorded(), expected / 2);
    }

    #[test]
    fn in_memory_aggregates_span_timings() {
        let sink = InMemorySink::new();
        sink.time(SpanKind::Wave, 10);
        sink.time(SpanKind::Wave, 30);
        sink.time(SpanKind::Tick, 100);
        let waves = sink.histogram(SpanKind::Wave);
        assert_eq!(waves.count(), 2);
        assert_eq!(waves.max(), 30);
        assert_eq!(sink.histogram(SpanKind::Tick).sum(), 100);
        assert!(sink.histogram(SpanKind::Fanout).is_empty());
        sink.reset();
        assert!(sink.histogram(SpanKind::Wave).is_empty());
    }

    #[test]
    fn tee_forwards_span_timings() {
        let a = Arc::new(InMemorySink::new());
        let tee = TeeSink::new(vec![a.clone()]);
        tee.time(SpanKind::Operation, 7);
        assert_eq!(a.histogram(SpanKind::Operation).count(), 1);
        // The default implementation (e.g. NoopSink) discards timings.
        NoopSink.time(SpanKind::Operation, 7);
    }

    #[test]
    fn tee_passes_profiles_only_to_sinks_that_want_them() {
        use crate::FlightRecorder;

        /// Counts every event it is given; wants profiles by default.
        #[derive(Debug, Default)]
        struct Counting(AtomicU64);
        impl MetricsSink for Counting {
            fn incr(&self, _counter: Counter, _by: u64) {}
            fn record(&self, _event: &TraceEvent<'_>) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }

        let memory = Arc::new(InMemorySink::new());
        let recorder = Arc::new(FlightRecorder::default());
        let writer = Arc::new(Counting::default());
        assert!(writer.wants_profiles());
        assert!(!memory.wants_profiles() && !recorder.wants_profiles());
        assert!(!NoopSink.wants_profiles());
        let quiet = TeeSink::new(vec![memory.clone(), recorder.clone()]);
        assert!(quiet.is_enabled() && !quiet.wants_profiles());
        let tee = TeeSink::new(vec![memory.clone(), recorder.clone(), writer.clone()]);
        assert!(tee.wants_profiles());
        let cprof = TraceEvent::ConstraintProfile {
            name: "cap",
            evaluations: 2,
            conflict: false,
        };
        let pprof = TraceEvent::PropertyProfile {
            name: "obj.x",
            narrowings: 1,
        };
        let tick = TraceEvent::Tick {
            tick: 0,
            designer: 0,
            outcome: "executed",
            dur_us: 0,
        };
        for event in [&cprof, &pprof, &tick] {
            tee.record(event);
        }
        assert_eq!(writer.0.load(Ordering::Relaxed), 3);
        assert_eq!(memory.events_recorded(), 1);
        assert_eq!(recorder.dump(), vec![tick.to_json()]);
    }

    #[test]
    fn from_fn_reconstructs_a_snapshot_exactly() {
        let sink = InMemorySink::new();
        sink.incr(Counter::Operations, 3);
        sink.incr(Counter::SessionOps, 9);
        let original = sink.snapshot();
        let rebuilt = CounterSnapshot::from_fn(|c| original.get(c));
        assert_eq!(rebuilt, original);
    }

    #[test]
    fn snapshot_serializes_every_counter() {
        let sink = InMemorySink::new();
        sink.incr(Counter::Waves, 2);
        let json = sink.snapshot().to_json();
        assert!(json.starts_with("{\"t\":\"counters\""));
        assert!(json.contains("\"waves\":2"));
        for counter in Counter::ALL {
            assert!(json.contains(counter.name()), "missing {}", counter.name());
        }
    }

    #[test]
    fn tee_fans_out_and_ors_enablement() {
        let a = Arc::new(InMemorySink::new());
        let b = Arc::new(InMemorySink::new());
        let tee = TeeSink::new(vec![a.clone(), b.clone()]);
        assert!(tee.is_enabled());
        tee.incr(Counter::Operations, 2);
        tee.record(&TraceEvent::RunSummary {
            operations: 2,
            evaluations: 0,
            spins: 0,
            violations: 0,
            completed: true,
        });
        assert_eq!(a.get(Counter::Operations), 2);
        assert_eq!(b.get(Counter::Operations), 2);
        assert_eq!(a.events_recorded(), 1);
        let noops = TeeSink::new(vec![Arc::new(NoopSink) as Arc<dyn MetricsSink>]);
        assert!(!noops.is_enabled());
    }
}
