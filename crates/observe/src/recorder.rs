//! The flight recorder: a bounded, always-on ring buffer of recent trace
//! events, for diagnosing incidents on servers that were not tracing.
//!
//! A long-running `adpm serve` usually runs untraced — full JSONL tracing
//! of every session forever is not viable. But when a session misbehaves,
//! the question is always "what were the last N things it did?". The
//! [`FlightRecorder`] answers exactly that: it implements
//! [`MetricsSink`] so it can be teed next to a session's real sink, keeps
//! the last `capacity` events as pre-serialized JSON lines (events borrow
//! their strings, so they are rendered at record time), and costs fixed
//! memory and zero I/O. Dumps happen over the wire (`dump` frame) or on
//! engine panic — never on the hot path.

use crate::sink::MetricsSink;
use crate::trace::{Counter, TraceEvent};
use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Default ring capacity: enough to cover a burst of fan-out around an
/// incident (~64 KiB at typical event sizes) while staying trivially
/// affordable per session.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

#[derive(Debug, Default)]
struct Ring {
    /// 1-based sequence number of the most recently recorded event.
    seq: u64,
    lines: VecDeque<(u64, String)>,
}

/// A bounded ring buffer of the most recent [`TraceEvent`]s, stored as
/// serialized JSON lines. Always on, fixed memory, no I/O.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<Ring>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            ring: Mutex::new(Ring::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.lock().lines.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever recorded (1-based sequence of the newest).
    pub fn recorded(&self) -> u64 {
        self.lock().seq
    }

    /// The retained JSON lines, oldest first.
    pub fn dump(&self) -> Vec<String> {
        self.lock()
            .lines
            .iter()
            .map(|(_, line)| line.clone())
            .collect()
    }

    /// The retained `(sequence, line)` pairs, oldest first. Sequence
    /// numbers are 1-based over the recorder's whole lifetime, so gaps
    /// before the first pair show how much history the ring has shed.
    pub fn dump_indexed(&self) -> Vec<(u64, String)> {
        self.lock().lines.iter().cloned().collect()
    }
}

impl MetricsSink for FlightRecorder {
    /// Profile lines would crowd the ring: one propagation over a large
    /// network emits more of them than the ring holds.
    fn wants_profiles(&self) -> bool {
        false
    }

    fn incr(&self, _counter: Counter, _by: u64) {}

    fn record(&self, event: &TraceEvent<'_>) {
        // Serialize outside the lock: events borrow from the caller and
        // cannot be stored, and rendering is the expensive part.
        let line = event.to_json();
        let mut ring = self.lock();
        ring.seq += 1;
        let seq = ring.seq;
        ring.lines.push_back((seq, line));
        while ring.lines.len() > self.capacity {
            ring.lines.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(n: u64) -> TraceEvent<'static> {
        TraceEvent::Tick {
            tick: n,
            designer: 0,
            outcome: "executed",
            dur_us: 10,
        }
    }

    #[test]
    fn ring_wraparound_keeps_the_newest_events_in_order() {
        let recorder = FlightRecorder::new(4);
        assert!(recorder.is_empty());
        for n in 1..=10 {
            recorder.record(&tick(n));
        }
        assert_eq!(recorder.recorded(), 10);
        assert_eq!(recorder.len(), 4);
        let indexed = recorder.dump_indexed();
        assert_eq!(
            indexed.iter().map(|(seq, _)| *seq).collect::<Vec<_>>(),
            vec![7, 8, 9, 10],
            "the ring keeps exactly the newest `capacity` events, in order"
        );
        for ((_, line), n) in indexed.iter().zip(7u64..) {
            assert_eq!(*line, tick(n).to_json());
        }
        assert_eq!(recorder.dump().len(), 4);
    }

    #[test]
    fn capacity_is_clamped_to_at_least_one() {
        let recorder = FlightRecorder::new(0);
        assert_eq!(recorder.capacity(), 1);
        recorder.record(&tick(1));
        recorder.record(&tick(2));
        assert_eq!(recorder.dump_indexed(), vec![(2, tick(2).to_json())]);
    }

    #[test]
    fn recorder_is_always_enabled_and_counters_are_ignored() {
        let recorder = FlightRecorder::default();
        assert_eq!(recorder.capacity(), DEFAULT_FLIGHT_CAPACITY);
        assert!(recorder.is_enabled());
        recorder.incr(Counter::Operations, 5);
        assert_eq!(recorder.recorded(), 0, "counters do not occupy the ring");
    }
}
