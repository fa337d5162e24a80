//! The flight recorder: a bounded, always-on ring buffer of recent trace
//! events, for diagnosing incidents on servers that were not tracing.
//!
//! A long-running `adpm serve` usually runs untraced — full JSONL tracing
//! of every session forever is not viable. But when a session misbehaves,
//! the question is always "what were the last N things it did?". The
//! [`FlightRecorder`] answers exactly that: it implements
//! [`MetricsSink`] so it can be teed next to a session's real sink, keeps
//! the last `capacity` events, and costs fixed memory and zero I/O.
//!
//! Recording runs on the hot path (a session records under its lock), so
//! it only copies: the event's numbers by value and its borrowed strings
//! into the slot's own reused buffer. Dumps happen over the wire (`dump`
//! frame) or on engine panic — never on the hot path — and render the
//! kept events with [`TraceEvent::write_json`], the JSONL sink's own
//! serializer, so a dumped line is byte for byte the line a trace writer
//! teed next to the recorder wrote.

use crate::sink::MetricsSink;
use crate::trace::{Counter, TraceEvent, TraceEventOf};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Default ring capacity: enough to cover a burst of fan-out around an
/// incident while staying trivially affordable per session.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// Where one of a kept event's strings sits in its slot's `text`.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: usize,
    end: usize,
}

/// One kept event: its fields, with the strings in `text`.
#[derive(Debug)]
struct Slot {
    /// 1-based sequence number of the event.
    seq: u64,
    event: TraceEventOf<Span>,
    /// The event's strings, back to back. The next event the slot holds
    /// reuses the buffer.
    text: String,
}

impl Slot {
    /// The event as the JSON line [`TraceEvent::to_json`] would give.
    fn render(&self) -> String {
        self.event
            .map_str(|span| &self.text[span.start..span.end])
            .to_json()
    }
}

#[derive(Debug)]
struct Ring {
    /// 1-based sequence number of the most recently recorded event.
    seq: u64,
    /// Event `seq` sits at index `(seq - 1) % capacity`; the vector fills
    /// up to `capacity`, then each event overwrites the oldest.
    slots: Vec<Slot>,
}

/// A bounded ring buffer of the most recent [`TraceEvent`]s, rendered as
/// JSON lines when dumped. Always on, fixed memory, no I/O.
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
    /// A recorder holding at most `capacity` events (minimum 1). The ring's
    /// slots are allocated here, up front.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            ring: Mutex::new(Ring {
                seq: 0,
                slots: Vec::with_capacity(capacity),
            }),
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
        self.lock().slots.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever recorded (1-based sequence of the newest).
    pub fn recorded(&self) -> u64 {
        self.lock().seq
    }

    /// The retained events as JSON lines, oldest first.
    pub fn dump(&self) -> Vec<String> {
        self.dump_indexed()
            .into_iter()
            .map(|(_, line)| line)
            .collect()
    }

    /// The retained `(sequence, line)` pairs, oldest first. Sequence
    /// numbers are 1-based over the recorder's whole lifetime, so gaps
    /// before the first pair show how much history the ring has shed.
    pub fn dump_indexed(&self) -> Vec<(u64, String)> {
        let ring = self.lock();
        // Once the ring is full, the oldest event sits just after the newest.
        let oldest = if ring.slots.len() < self.capacity {
            0
        } else {
            (ring.seq % self.capacity as u64) as usize
        };
        let (newer, older) = ring.slots.split_at(oldest);
        older
            .iter()
            .chain(newer)
            .map(|slot| (slot.seq, slot.render()))
            .collect()
    }
}

impl MetricsSink for FlightRecorder {
    /// Profile lines would crowd the ring: one propagation over a large
    /// network emits more of them than the ring holds.
    fn wants_profiles(&self) -> bool {
        false
    }

    fn incr(&self, _counter: Counter, _by: u64) {}

    /// Copies `event` into the oldest slot; renders nothing.
    fn record(&self, event: &TraceEvent<'_>) {
        let mut ring = self.lock();
        let Ring { seq, slots } = &mut *ring;
        *seq += 1;
        let index = ((*seq - 1) % self.capacity as u64) as usize;
        let mut text = slots
            .get_mut(index)
            .map(|slot| std::mem::take(&mut slot.text))
            .unwrap_or_default();
        text.clear();
        let event = event.map_str(|s| {
            let start = text.len();
            text.push_str(s);
            Span {
                start,
                end: text.len(),
            }
        });
        let slot = Slot {
            seq: *seq,
            event,
            text,
        };
        if index < slots.len() {
            slots[index] = slot;
        } else {
            slots.push(slot);
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

    /// One event of every kind, with strings that need escaping and whose
    /// lengths differ from event to event, so reused slot buffers shrink
    /// as well as grow.
    fn every_kind(n: u64) -> Vec<TraceEvent<'static>> {
        const TEXTS: [&str; 5] = [
            "quo\"te",
            "back\\slash and a much longer tail to reuse",
            "new\nline\ttab",
            "ctl\u{1}\u{1f} µH",
            "",
        ];
        let text = |k: u64| TEXTS[((n + k) % TEXTS.len() as u64) as usize];
        vec![
            TraceEvent::RunStart {
                mode: text(0),
                seed: n,
                designers: 3,
                properties: 4,
                constraints: 5,
            },
            TraceEvent::PropagationWave {
                wave: 1,
                queue_len: 2,
                evaluations: n,
                narrowed: 4,
                dur_us: 5,
            },
            TraceEvent::PropagationDone {
                kind: text(1),
                seeded: 1,
                waves: 2,
                evaluations: n,
                narrowed: 4,
                conflicts: 5,
                fixpoint: n.is_multiple_of(2),
                dur_us: 6,
            },
            TraceEvent::ConstraintProfile {
                name: text(2),
                evaluations: n,
                conflict: true,
            },
            TraceEvent::PropertyProfile {
                name: text(3),
                narrowings: n,
            },
            TraceEvent::Violation {
                seq: n,
                constraint: text(4),
                cross: false,
            },
            TraceEvent::Operation {
                seq: n,
                designer: 1,
                kind: text(0),
                mode: text(1),
                target: text(2),
                evaluations: 3,
                violations_after: 4,
                new_violations: 5,
                spin: true,
                dur_us: u64::MAX,
            },
            TraceEvent::NotificationFanout {
                seq: n,
                recipients: 2,
                events: 3,
                dur_us: 4,
            },
            TraceEvent::Tick {
                tick: n,
                designer: u32::MAX,
                outcome: text(3),
                dur_us: 0,
            },
            TraceEvent::SessionCommand {
                seq: n,
                kind: text(4),
                designer: 2,
                outcome: text(0),
                dur_us: 3,
            },
            TraceEvent::InboxFanout {
                seq: n,
                subscribers: 2,
                delivered: 3,
                dropped: 4,
                dur_us: 5,
            },
            TraceEvent::Recovery {
                ops: n,
                checkpoints: 2,
                journal_bytes: 3,
                truncated_bytes: 4,
                faithful: true,
                dur_us: 5,
            },
            TraceEvent::Reconnect {
                designer: 1,
                attempt: 2,
                resumed_from: n,
                dur_us: 4,
            },
            TraceEvent::WireSkip { bytes: n },
            TraceEvent::Negotiation {
                seq: n,
                constraint: text(1),
                rounds: 2,
                proposals: 3,
                participants: 4,
                outcome: text(2),
                dur_us: 5,
            },
            TraceEvent::RunSummary {
                operations: n,
                evaluations: 2,
                spins: 3,
                violations: 4,
                completed: false,
            },
        ]
    }

    #[test]
    fn dumps_match_eager_rendering_across_wraparound() {
        let recorder = FlightRecorder::new(7);
        let mut recorded = Vec::new();
        for n in 0..5 {
            for event in every_kind(n) {
                recorder.record(&event);
                recorded.push(event.to_json());
                // Check every fill level, not just the end state.
                let kept = recorded.len().min(7);
                let expected: Vec<(u64, String)> = (recorded.len() - kept + 1..)
                    .map(|seq| seq as u64)
                    .zip(recorded[recorded.len() - kept..].iter().cloned())
                    .collect();
                assert_eq!(recorder.dump_indexed(), expected);
            }
        }
        assert_eq!(recorder.recorded(), 5 * 16);
        assert!(recorded.iter().any(|line| line.contains("quo\\\"te")));
        assert!(recorded.iter().any(|line| line.contains("\\u0001")));
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
