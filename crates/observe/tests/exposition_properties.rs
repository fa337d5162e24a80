//! Property-based test of the scrape exposition round trip: the plaintext
//! that `write_exposition` emits for any snapshot must re-parse (via
//! `parse_exposition`) to exactly the originating `CounterSnapshot`, for
//! any session name and any counter values, and regardless of interleaved
//! noise lines — the contract the server's scrape listener and the
//! collaboration churn test's self-scrape both lean on.

use adpm_observe::{
    parse_exposition, write_exposition, Counter, InMemorySink, MetricsSink, Snapshot, SpanKind,
    ROLLUP_SESSION,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// A valid session name: 1–16 characters of the server's name alphabet.
const SESSION_NAME: &str = "[A-Za-z0-9_-]{1,16}";

/// Builds a snapshot whose counters are exactly `values` (index-aligned
/// with `Counter::ALL`) and which carries some span samples, by driving a
/// fresh sink — `Snapshot`'s fields beyond `counters`/`events` are
/// deliberately not constructible by hand.
fn snapshot_with(values: &[u64], spans: &[u64]) -> Snapshot {
    let sink = InMemorySink::new();
    for (counter, value) in Counter::ALL.iter().zip(values) {
        sink.incr(*counter, *value);
    }
    for (kind, dur) in SpanKind::ALL.iter().cycle().zip(spans) {
        sink.time(*kind, *dur);
    }
    Snapshot::capture(&sink)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One session's exposition re-parses to its exact `CounterSnapshot`.
    #[test]
    fn exposition_round_trips_to_the_originating_snapshot(
        name in SESSION_NAME,
        values in vec(0u64..u64::MAX / 2, Counter::COUNT..Counter::COUNT + 1),
        spans in vec(0u64..1_000_000, 0..8),
    ) {
        let snapshot = snapshot_with(&values, &spans);
        let mut text = String::new();
        write_exposition(&mut text, &name, &snapshot);
        let parsed = parse_exposition(&text);
        prop_assert_eq!(parsed.len(), 1);
        prop_assert_eq!(parsed[&name], snapshot.counters);
    }

    /// Multiple sessions concatenated into one scrape body — the shape the
    /// server's listener actually emits — all survive, even with comment
    /// and garbage lines interleaved.
    #[test]
    fn concatenated_sessions_parse_independently(
        name in SESSION_NAME,
        a in vec(0u64..1 << 40, Counter::COUNT..Counter::COUNT + 1),
        b in vec(0u64..1 << 40, Counter::COUNT..Counter::COUNT + 1),
    ) {
        let first = snapshot_with(&a, &[17]);
        let second = snapshot_with(&b, &[]);
        let mut text = String::from("# adpm scrape\n");
        write_exposition(&mut text, &name, &first);
        text.push_str("not a metric line\n");
        write_exposition(&mut text, ROLLUP_SESSION, &second);
        let parsed = parse_exposition(&text);
        // `name` can never collide with the rollup label: `*` is not in
        // the session-name alphabet.
        prop_assert_eq!(parsed.len(), 2);
        prop_assert_eq!(parsed[&name], first.counters);
        prop_assert_eq!(parsed[ROLLUP_SESSION], second.counters);
    }
}
