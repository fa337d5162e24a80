//! The live telemetry hub: per-session metrics registration, cheap
//! point-in-time snapshots, and the plaintext scrape exposition.
//!
//! A server hosting many concurrent design sessions needs each session's
//! counters and latency percentiles *separately* (who is loading the
//! box?) and a server-wide rollup (how loaded is the box?), both readable
//! at any moment without perturbing the sessions. [`MetricsHub`] holds one
//! [`InMemorySink`] per registered session plus one rollup sink; producers
//! tee into both, so the hot path stays what `InMemorySink` already is —
//! relaxed atomics, no locks, no clocks. Reading is pull-only:
//! [`MetricsHub::snapshot`] captures a [`Snapshot`] (every counter plus a
//! [`SpanSummary`] per span kind), and [`Snapshot::since`] subtracts two
//! captures so rates (ops/s between two polls) fall out of plain counter
//! deltas.
//!
//! The same snapshot renders as a Prometheus-style plaintext exposition
//! ([`write_exposition`]) for the server's scrape listener, and
//! [`parse_exposition`] reads that text back into per-session
//! [`CounterSnapshot`]s — the round trip is property-tested.

use crate::histogram::SpanKind;
use crate::sink::{CounterSnapshot, InMemorySink};
use crate::trace::Counter;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The session label under which the server-wide rollup is exposed. `*`
/// cannot collide with a real session: server session names are
/// restricted to `[A-Za-z0-9_-]`.
pub const ROLLUP_SESSION: &str = "*";

/// Aggregate view of one span-duration histogram at capture time.
///
/// Percentiles are the histogram's bucket-bound answers (see
/// [`Histogram::percentile`](crate::Histogram::percentile)) — exact for
/// equal bucket occupancy, ≤2× relative error otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanSummary {
    /// Samples recorded.
    pub count: u64,
    /// Exact sum of all samples, µs.
    pub sum: u64,
    /// Exact maximum sample, µs.
    pub max: u64,
    /// Median, µs (bucket upper bound).
    pub p50: u64,
    /// 90th percentile, µs (bucket upper bound).
    pub p90: u64,
    /// 99th percentile, µs (bucket upper bound).
    pub p99: u64,
}

/// A point-in-time capture of one sink: every counter, the recorded-event
/// total, and a [`SpanSummary`] per [`SpanKind`].
///
/// Capturing is read-only and cheap (a relaxed load per counter/bucket);
/// it never blocks the producers writing into the sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Every counter at capture time.
    pub counters: CounterSnapshot,
    /// [`TraceEvent`](crate::TraceEvent)s recorded at capture time.
    pub events: u64,
    spans: [SpanSummary; SpanKind::COUNT],
}

impl Snapshot {
    /// Captures `sink` right now.
    pub fn capture(sink: &InMemorySink) -> Snapshot {
        let mut spans = [SpanSummary::default(); SpanKind::COUNT];
        for kind in SpanKind::ALL {
            let h = sink.histogram(kind);
            spans[kind.index()] = SpanSummary {
                count: h.count(),
                sum: h.sum(),
                max: h.max(),
                p50: h.p50(),
                p90: h.p90(),
                p99: h.p99(),
            };
        }
        Snapshot {
            counters: sink.snapshot(),
            events: sink.events_recorded(),
            spans,
        }
    }

    /// The summary of one span kind.
    pub fn span(&self, kind: SpanKind) -> SpanSummary {
        self.spans[kind.index()]
    }

    /// The delta this snapshot adds over `earlier` (two captures of the
    /// same sink): counters, `events`, and span `count`/`sum` subtract
    /// (saturating); span `max`/percentiles stay the *cumulative* values
    /// of `self` — quantiles are not subtractable from summaries, and the
    /// cumulative answer is the conservative one a monitor wants.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let mut spans = self.spans;
        for kind in SpanKind::ALL {
            let before = earlier.spans[kind.index()];
            let span = &mut spans[kind.index()];
            span.count = span.count.saturating_sub(before.count);
            span.sum = span.sum.saturating_sub(before.sum);
        }
        Snapshot {
            counters: self.counters.since(&earlier.counters),
            events: self.events.saturating_sub(earlier.events),
            spans,
        }
    }
}

/// A registry of per-session [`InMemorySink`]s plus a server-wide rollup.
///
/// The hub owns no threads and does no I/O; it only hands out sinks and
/// captures snapshots. The intended wiring (what `adpm-collab`'s server
/// does): every session's producer tees into `register(name)`'s sink *and*
/// [`rollup`](MetricsHub::rollup), so per-session views and the rollup stay
/// consistent by construction. Registration takes a short mutex on the
/// name table only — never on the recording path.
#[derive(Debug, Default)]
pub struct MetricsHub {
    sessions: Mutex<BTreeMap<String, Arc<InMemorySink>>>,
    rollup: Arc<InMemorySink>,
}

impl MetricsHub {
    /// An empty hub.
    pub fn new() -> Self {
        MetricsHub::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Arc<InMemorySink>>> {
        self.sessions.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The server-wide rollup sink (tee it into every producer).
    pub fn rollup(&self) -> Arc<InMemorySink> {
        self.rollup.clone()
    }

    /// Returns the sink registered under `name`, creating a fresh one on
    /// first registration. Re-registering an existing name returns the
    /// *same* sink, so concurrent attach races cannot split a session's
    /// counters across two sinks.
    pub fn register(&self, name: &str) -> Arc<InMemorySink> {
        self.lock()
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(InMemorySink::new()))
            .clone()
    }

    /// Removes `name` from the hub. The sink itself survives as long as
    /// producers hold it; only the hub's view forgets it. Returns whether
    /// the name was registered.
    pub fn deregister(&self, name: &str) -> bool {
        self.lock().remove(name).is_some()
    }

    /// The sink registered under `name`, if any.
    pub fn session(&self, name: &str) -> Option<Arc<InMemorySink>> {
        self.lock().get(name).cloned()
    }

    /// Registered session names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.lock().keys().cloned().collect()
    }

    /// Number of registered sessions.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no session is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Captures the session registered under `name`.
    pub fn snapshot(&self, name: &str) -> Option<Snapshot> {
        self.session(name).map(|sink| Snapshot::capture(&sink))
    }

    /// Captures every registered session, sorted by name.
    pub fn snapshot_all(&self) -> Vec<(String, Snapshot)> {
        // Clone the Arcs out first: capturing must not hold the name-table
        // lock (captures scan every counter and histogram bucket).
        let sinks: Vec<(String, Arc<InMemorySink>)> = self
            .lock()
            .iter()
            .map(|(name, sink)| (name.clone(), sink.clone()))
            .collect();
        sinks
            .into_iter()
            .map(|(name, sink)| (name, Snapshot::capture(&sink)))
            .collect()
    }

    /// Captures the server-wide rollup.
    pub fn rollup_snapshot(&self) -> Snapshot {
        Snapshot::capture(&self.rollup)
    }
}

/// Appends the Prometheus-style plaintext exposition of one session's
/// snapshot to `out`: one `adpm_<counter>{session="<name>"} <value>` line
/// per counter, an `adpm_events` line, and per-span
/// `adpm_span_count`/`adpm_span_sum_us`/`adpm_span_us{...,quantile=…}`
/// lines for every non-empty span. Use [`ROLLUP_SESSION`] as the name for
/// the server-wide rollup.
pub fn write_exposition(out: &mut String, session: &str, snapshot: &Snapshot) {
    use std::fmt::Write;
    for (counter, value) in snapshot.counters.iter() {
        let _ = writeln!(
            out,
            "adpm_{}{{session=\"{session}\"}} {value}",
            counter.name()
        );
    }
    let _ = writeln!(
        out,
        "adpm_events{{session=\"{session}\"}} {}",
        snapshot.events
    );
    for kind in SpanKind::ALL {
        let span = snapshot.span(kind);
        if span.count == 0 {
            continue;
        }
        let name = kind.name();
        let _ = writeln!(
            out,
            "adpm_span_count{{session=\"{session}\",span=\"{name}\"}} {}",
            span.count
        );
        let _ = writeln!(
            out,
            "adpm_span_sum_us{{session=\"{session}\",span=\"{name}\"}} {}",
            span.sum
        );
        for (quantile, value) in [("0.5", span.p50), ("0.9", span.p90), ("0.99", span.p99)] {
            let _ = writeln!(
                out,
                "adpm_span_us{{session=\"{session}\",span=\"{name}\",quantile=\"{quantile}\"}} {value}",
            );
        }
    }
}

/// Parses a plaintext exposition (as produced by [`write_exposition`],
/// possibly concatenated over several sessions) back into one
/// [`CounterSnapshot`] per session label, in label order. Lines that are
/// not `adpm_<counter>` samples — comments, `adpm_events`, the span
/// metrics, anything malformed — are skipped, the tolerant posture a
/// scrape consumer needs.
pub fn parse_exposition(text: &str) -> BTreeMap<String, CounterSnapshot> {
    let mut per_session: BTreeMap<String, BTreeMap<usize, u64>> = BTreeMap::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("adpm_") else {
            continue;
        };
        let Some(brace) = rest.find('{') else {
            continue;
        };
        let metric = &rest[..brace];
        let Some(counter) = Counter::ALL.iter().find(|c| c.name() == metric) else {
            continue;
        };
        let Some(close) = rest.find('}') else {
            continue;
        };
        let session = rest[brace + 1..close]
            .split(',')
            .find_map(|label| label.strip_prefix("session=\""))
            .and_then(|v| v.strip_suffix('"'));
        let (Some(session), Some(value)) = (session, rest[close + 1..].trim().parse::<u64>().ok())
        else {
            continue;
        };
        per_session
            .entry(session.to_string())
            .or_default()
            .insert(counter.index(), value);
    }
    per_session
        .into_iter()
        .map(|(session, values)| {
            let snapshot =
                CounterSnapshot::from_fn(|c| values.get(&c.index()).copied().unwrap_or(0));
            (session, snapshot)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MetricsSink;

    #[test]
    fn register_is_idempotent_and_rollup_is_shared() {
        let hub = MetricsHub::new();
        let a = hub.register("s1");
        let b = hub.register("s1");
        assert!(Arc::ptr_eq(&a, &b), "one session, one sink");
        a.incr(Counter::SessionOps, 3);
        assert_eq!(
            hub.snapshot("s1")
                .unwrap()
                .counters
                .get(Counter::SessionOps),
            3
        );
        assert!(hub.snapshot("nope").is_none());
        hub.rollup().incr(Counter::Operations, 2);
        assert_eq!(hub.rollup_snapshot().counters.get(Counter::Operations), 2);
        assert_eq!(hub.names(), vec!["s1".to_string()]);
        assert!(hub.deregister("s1"));
        assert!(!hub.deregister("s1"));
        assert!(hub.is_empty());
        // The deregistered sink keeps working for whoever still holds it.
        a.incr(Counter::SessionOps, 1);
        assert_eq!(a.get(Counter::SessionOps), 4);
    }

    #[test]
    fn snapshot_captures_span_summaries_and_deltas() {
        let sink = InMemorySink::new();
        sink.incr(Counter::SessionOps, 5);
        sink.time(SpanKind::Session, 100);
        sink.time(SpanKind::Session, 300);
        let first = Snapshot::capture(&sink);
        let session = first.span(SpanKind::Session);
        assert_eq!(session.count, 2);
        assert_eq!(session.sum, 400);
        assert_eq!(session.max, 300);
        assert!(session.p99 >= 300);
        assert_eq!(first.span(SpanKind::Wave), SpanSummary::default());

        sink.incr(Counter::SessionOps, 2);
        sink.time(SpanKind::Session, 50);
        let second = Snapshot::capture(&sink);
        let delta = second.since(&first);
        assert_eq!(delta.counters.get(Counter::SessionOps), 2);
        assert_eq!(delta.span(SpanKind::Session).count, 1);
        assert_eq!(delta.span(SpanKind::Session).sum, 50);
        // max/percentiles stay cumulative in a delta.
        assert_eq!(delta.span(SpanKind::Session).max, 300);
    }

    /// Satellite coverage: sessions registering, deregistering, and being
    /// snapshot concurrently — the create/detach churn a multi-tenant
    /// server produces — must never lose a count or panic.
    #[test]
    fn concurrent_registration_churn_and_snapshots_are_safe() {
        const WRITERS: usize = 4;
        const OPS: u64 = 2_000;
        let hub = Arc::new(MetricsHub::new());
        let writers: Vec<_> = (0..WRITERS)
            .map(|i| {
                let hub = hub.clone();
                std::thread::spawn(move || {
                    let name = format!("s{i}");
                    for n in 0..OPS {
                        // Periodically drop and re-register the session,
                        // like a detach/create cycle. The sink handle keeps
                        // counting across deregistration; re-register under
                        // churn may mint a fresh sink, so totals split —
                        // which is why writers re-fetch the registered sink.
                        if n % 128 == 0 {
                            hub.deregister(&name);
                        }
                        let sink = hub.register(&name);
                        sink.incr(Counter::SessionOps, 1);
                        sink.time(SpanKind::Session, n % 64);
                    }
                })
            })
            .collect();
        let reader = {
            let hub = hub.clone();
            std::thread::spawn(move || {
                let mut reads = 0u64;
                for _ in 0..200 {
                    for (_, snapshot) in hub.snapshot_all() {
                        reads += snapshot.counters.get(Counter::SessionOps);
                    }
                    hub.rollup_snapshot();
                    std::thread::yield_now();
                }
                reads
            })
        };
        for writer in writers {
            writer.join().expect("writer panicked");
        }
        reader.join().expect("reader panicked");
        // After the churn settles every session is registered and its
        // final sink holds the ops recorded since its last re-creation.
        assert_eq!(hub.len(), WRITERS);
        for (_, snapshot) in hub.snapshot_all() {
            let ops = snapshot.counters.get(Counter::SessionOps);
            assert!(ops > 0 && ops <= OPS, "ops = {ops}");
            assert_eq!(snapshot.span(SpanKind::Session).count, ops);
        }
    }

    #[test]
    fn exposition_round_trips_counters_and_skips_noise() {
        let sink = InMemorySink::new();
        sink.incr(Counter::Operations, 12);
        sink.incr(Counter::InboxDropped, 4);
        sink.time(SpanKind::Session, 90);
        let snapshot = Snapshot::capture(&sink);
        let mut text = String::from("# scraped from a test\n");
        write_exposition(&mut text, "team-a", &snapshot);
        write_exposition(&mut text, ROLLUP_SESSION, &snapshot);
        text.push_str("garbage line\nadpm_unknown_metric{session=\"x\"} 1\n");
        assert!(text.contains("adpm_operations{session=\"team-a\"} 12"));
        assert!(
            text.contains("adpm_span_us{session=\"team-a\",span=\"session\",quantile=\"0.99\"}")
        );
        let parsed = parse_exposition(&text);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed["team-a"], snapshot.counters);
        assert_eq!(parsed[ROLLUP_SESSION], snapshot.counters);
    }
}
