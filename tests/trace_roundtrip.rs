//! Property-based round-trip tests for the JSONL trace writer and parser:
//! any [`TraceEvent`] the strategies can generate must survive
//! `JsonlSink::record` → `parse_trace` with every field intact — including
//! the span-duration (`dur_us`) fields the profiling layer added — and the
//! parser must reject malformed input (truncated lines, interleaved
//! garbage, nested values) with the right line number instead of
//! mis-parsing it.

use adpm_observe::{parse_trace, JsonlSink, MetricsSink, TraceEvent, TraceLine};
use proptest::prelude::*;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// An owned mirror of [`TraceEvent`] (which borrows its strings) so the
/// strategies can produce values with `'static` lifetimes.
#[derive(Debug, Clone)]
enum Spec {
    Wave {
        wave: u32,
        queue_len: u32,
        evaluations: u64,
        narrowed: u32,
        dur_us: u64,
    },
    Done {
        kind: String,
        seeded: u32,
        waves: u32,
        evaluations: u64,
        narrowed: u32,
        conflicts: u32,
        fixpoint: bool,
        dur_us: u64,
    },
    Cprof {
        name: String,
        evaluations: u64,
        conflict: bool,
    },
    Pprof {
        name: String,
        narrowings: u64,
    },
    Violation {
        seq: u64,
        constraint: String,
        cross: bool,
    },
    Op {
        seq: u64,
        designer: u32,
        kind: String,
        mode: String,
        target: String,
        evaluations: u64,
        violations_after: u32,
        new_violations: u32,
        spin: bool,
        dur_us: u64,
    },
    Fanout {
        seq: u64,
        recipients: u32,
        events: u32,
        dur_us: u64,
    },
    Tick {
        tick: u64,
        designer: u32,
        outcome: String,
        dur_us: u64,
    },
}

impl Spec {
    /// Records the spec into `sink` as the borrowing [`TraceEvent`].
    fn record(&self, sink: &JsonlSink) {
        let event = match self {
            Spec::Wave {
                wave,
                queue_len,
                evaluations,
                narrowed,
                dur_us,
            } => TraceEvent::PropagationWave {
                wave: *wave,
                queue_len: *queue_len,
                evaluations: *evaluations,
                narrowed: *narrowed,
                dur_us: *dur_us,
            },
            Spec::Done {
                kind,
                seeded,
                waves,
                evaluations,
                narrowed,
                conflicts,
                fixpoint,
                dur_us,
            } => TraceEvent::PropagationDone {
                kind,
                seeded: *seeded,
                waves: *waves,
                evaluations: *evaluations,
                narrowed: *narrowed,
                conflicts: *conflicts,
                fixpoint: *fixpoint,
                dur_us: *dur_us,
            },
            Spec::Cprof {
                name,
                evaluations,
                conflict,
            } => TraceEvent::ConstraintProfile {
                name,
                evaluations: *evaluations,
                conflict: *conflict,
            },
            Spec::Pprof { name, narrowings } => TraceEvent::PropertyProfile {
                name,
                narrowings: *narrowings,
            },
            Spec::Violation {
                seq,
                constraint,
                cross,
            } => TraceEvent::Violation {
                seq: *seq,
                constraint,
                cross: *cross,
            },
            Spec::Op {
                seq,
                designer,
                kind,
                mode,
                target,
                evaluations,
                violations_after,
                new_violations,
                spin,
                dur_us,
            } => TraceEvent::Operation {
                seq: *seq,
                designer: *designer,
                kind,
                mode,
                target,
                evaluations: *evaluations,
                violations_after: *violations_after,
                new_violations: *new_violations,
                spin: *spin,
                dur_us: *dur_us,
            },
            Spec::Fanout {
                seq,
                recipients,
                events,
                dur_us,
            } => TraceEvent::NotificationFanout {
                seq: *seq,
                recipients: *recipients,
                events: *events,
                dur_us: *dur_us,
            },
            Spec::Tick {
                tick,
                designer,
                outcome,
                dur_us,
            } => TraceEvent::Tick {
                tick: *tick,
                designer: *designer,
                outcome,
                dur_us: *dur_us,
            },
        };
        sink.record(&event);
    }

    /// Checks a parsed line against the spec, field by field.
    fn check(&self, line: &TraceLine) {
        match self {
            Spec::Wave {
                wave,
                queue_len,
                evaluations,
                narrowed,
                dur_us,
            } => {
                assert_eq!(line.tag(), "wave");
                assert_eq!(line.u64_field("wave"), Some(u64::from(*wave)));
                assert_eq!(line.u64_field("queue_len"), Some(u64::from(*queue_len)));
                assert_eq!(line.u64_field("evaluations"), Some(*evaluations));
                assert_eq!(line.u64_field("narrowed"), Some(u64::from(*narrowed)));
                assert_eq!(line.u64_field("dur_us"), Some(*dur_us));
            }
            Spec::Done {
                kind,
                seeded,
                waves,
                evaluations,
                narrowed,
                conflicts,
                fixpoint,
                dur_us,
            } => {
                assert_eq!(line.tag(), "propagation");
                assert_eq!(line.str_field("kind"), Some(kind.as_str()));
                assert_eq!(line.u64_field("seeded"), Some(u64::from(*seeded)));
                assert_eq!(line.u64_field("waves"), Some(u64::from(*waves)));
                assert_eq!(line.u64_field("evaluations"), Some(*evaluations));
                assert_eq!(line.u64_field("narrowed"), Some(u64::from(*narrowed)));
                assert_eq!(line.u64_field("conflicts"), Some(u64::from(*conflicts)));
                assert_eq!(line.bool_field("fixpoint"), Some(*fixpoint));
                assert_eq!(line.u64_field("dur_us"), Some(*dur_us));
            }
            Spec::Cprof {
                name,
                evaluations,
                conflict,
            } => {
                assert_eq!(line.tag(), "cprof");
                assert_eq!(line.str_field("name"), Some(name.as_str()));
                assert_eq!(line.u64_field("evaluations"), Some(*evaluations));
                assert_eq!(line.bool_field("conflict"), Some(*conflict));
            }
            Spec::Pprof { name, narrowings } => {
                assert_eq!(line.tag(), "pprof");
                assert_eq!(line.str_field("name"), Some(name.as_str()));
                assert_eq!(line.u64_field("narrowings"), Some(*narrowings));
            }
            Spec::Violation {
                seq,
                constraint,
                cross,
            } => {
                assert_eq!(line.tag(), "violation");
                assert_eq!(line.u64_field("seq"), Some(*seq));
                assert_eq!(line.str_field("constraint"), Some(constraint.as_str()));
                assert_eq!(line.bool_field("cross"), Some(*cross));
            }
            Spec::Op {
                seq,
                designer,
                kind,
                mode,
                target,
                evaluations,
                violations_after,
                new_violations,
                spin,
                dur_us,
            } => {
                assert_eq!(line.tag(), "op");
                assert_eq!(line.u64_field("seq"), Some(*seq));
                assert_eq!(line.u64_field("designer"), Some(u64::from(*designer)));
                assert_eq!(line.str_field("kind"), Some(kind.as_str()));
                assert_eq!(line.str_field("mode"), Some(mode.as_str()));
                assert_eq!(line.str_field("target"), Some(target.as_str()));
                assert_eq!(line.u64_field("evaluations"), Some(*evaluations));
                assert_eq!(
                    line.u64_field("violations_after"),
                    Some(u64::from(*violations_after))
                );
                assert_eq!(
                    line.u64_field("new_violations"),
                    Some(u64::from(*new_violations))
                );
                assert_eq!(line.bool_field("spin"), Some(*spin));
                assert_eq!(line.u64_field("dur_us"), Some(*dur_us));
            }
            Spec::Fanout {
                seq,
                recipients,
                events,
                dur_us,
            } => {
                assert_eq!(line.tag(), "fanout");
                assert_eq!(line.u64_field("seq"), Some(*seq));
                assert_eq!(line.u64_field("recipients"), Some(u64::from(*recipients)));
                assert_eq!(line.u64_field("events"), Some(u64::from(*events)));
                assert_eq!(line.u64_field("dur_us"), Some(*dur_us));
            }
            Spec::Tick {
                tick,
                designer,
                outcome,
                dur_us,
            } => {
                assert_eq!(line.tag(), "tick");
                assert_eq!(line.u64_field("tick"), Some(*tick));
                assert_eq!(line.u64_field("designer"), Some(u64::from(*designer)));
                assert_eq!(line.str_field("outcome"), Some(outcome.as_str()));
                assert_eq!(line.u64_field("dur_us"), Some(*dur_us));
            }
        }
    }
}

/// Counters round-trip through f64, which is exact only up to 2^53 — the
/// writer never emits larger values in practice, and the schema documents
/// the limit. Generated u64 fields stay inside it.
fn exact_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..1024,
        Just((1u64 << 53) - 1),
        Just(1u64 << 53),
        0u64..(1u64 << 53),
    ]
}

/// Names as the engine produces them (constraint names, `object.property`
/// targets) plus adversarial strings that need every escape the writer
/// knows: quotes, backslashes, control characters, non-ASCII.
fn name() -> impl Strategy<Value = String> {
    prop_oneof![
        "[A-Za-z][A-Za-z0-9_-]{0,10}(\\.[a-z][a-z0-9-]{0,8})?",
        "[ -~]{0,16}",
        proptest::collection::vec(
            any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}')),
            0..8,
        )
        .prop_map(|chars| chars.into_iter().collect::<String>()),
        Just("a\"b\\c\nd\te\u{1}f λ".to_string()),
    ]
}

fn spec() -> impl Strategy<Value = Spec> {
    prop_oneof![
        (
            any::<u32>(),
            any::<u32>(),
            exact_u64(),
            any::<u32>(),
            exact_u64()
        )
            .prop_map(
                |(wave, queue_len, evaluations, narrowed, dur_us)| Spec::Wave {
                    wave,
                    queue_len,
                    evaluations,
                    narrowed,
                    dur_us,
                }
            ),
        (
            prop_oneof![Just("full".to_string()), Just("incremental".to_string())],
            any::<u32>(),
            any::<u32>(),
            exact_u64(),
            any::<u32>(),
            any::<u32>(),
            any::<bool>(),
            exact_u64(),
        )
            .prop_map(
                |(kind, seeded, waves, evaluations, narrowed, conflicts, fixpoint, dur_us)| {
                    Spec::Done {
                        kind,
                        seeded,
                        waves,
                        evaluations,
                        narrowed,
                        conflicts,
                        fixpoint,
                        dur_us,
                    }
                }
            ),
        (name(), exact_u64(), any::<bool>()).prop_map(|(name, evaluations, conflict)| {
            Spec::Cprof {
                name,
                evaluations,
                conflict,
            }
        }),
        (name(), exact_u64()).prop_map(|(name, narrowings)| Spec::Pprof { name, narrowings }),
        (exact_u64(), name(), any::<bool>()).prop_map(|(seq, constraint, cross)| {
            Spec::Violation {
                seq,
                constraint,
                cross,
            }
        }),
        (
            (exact_u64(), any::<u32>(), name(), name(), name()),
            (
                exact_u64(),
                any::<u32>(),
                any::<u32>(),
                any::<bool>(),
                exact_u64()
            ),
        )
            .prop_map(
                |(
                    (seq, designer, kind, mode, target),
                    (evaluations, violations_after, new_violations, spin, dur_us),
                )| {
                    Spec::Op {
                        seq,
                        designer,
                        kind,
                        mode,
                        target,
                        evaluations,
                        violations_after,
                        new_violations,
                        spin,
                        dur_us,
                    }
                }
            ),
        (exact_u64(), any::<u32>(), any::<u32>(), exact_u64()).prop_map(
            |(seq, recipients, events, dur_us)| Spec::Fanout {
                seq,
                recipients,
                events,
                dur_us
            }
        ),
        (exact_u64(), any::<u32>(), name(), exact_u64()).prop_map(
            |(tick, designer, outcome, dur_us)| Spec::Tick {
                tick,
                designer,
                outcome,
                dur_us
            }
        ),
    ]
}

/// A `Write` handle into a shared buffer, so the test can read back what
/// the sink wrote after the sink is gone.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

proptest! {
    /// Writer → parser round-trip: every generated event comes back with
    /// the same tag and field values, and the sink's counters footer stays
    /// the last line.
    #[test]
    fn any_event_sequence_round_trips_through_jsonl(specs in proptest::collection::vec(spec(), 0..24)) {
        let buf = SharedBuf::default();
        let sink = JsonlSink::new(Box::new(buf.clone()));
        for spec in &specs {
            spec.record(&sink);
        }
        sink.finish().expect("in-memory writer cannot fail");
        drop(sink);

        let text = String::from_utf8(buf.0.lock().unwrap().clone()).expect("utf8");
        let lines = parse_trace(&text).expect("writer output must parse");
        // One line per event plus the counters footer.
        prop_assert_eq!(lines.len(), specs.len() + 1);
        for (spec, line) in specs.iter().zip(&lines) {
            spec.check(line);
        }
        prop_assert_eq!(lines.last().expect("footer").tag(), "counters");
    }
}

// ---------------------------------------------------------------------------
// Parser error paths: malformed traces must fail loudly, with the 1-based
// line number of the first bad line, never mis-parse.

/// A valid line to interleave around the bad ones.
const GOOD: &str = r#"{"t":"tick","tick":0,"designer":1,"outcome":"executed","dur_us":3}"#;

#[test]
fn truncated_lines_are_rejected_with_their_line_number() {
    // A trace cut off mid-object, as a crashed writer would leave it.
    for truncated in [
        r#"{"t":"op","seq":1,"#,
        r#"{"t":"op","seq"#,
        r#"{"t":"op","kind":"assi"#,
        r#"{"t":"op","seq":1"#,
        "{",
    ] {
        let text = format!("{GOOD}\n{GOOD}\n{truncated}");
        let err = parse_trace(&text).expect_err("truncated line must not parse");
        assert_eq!(err.line, 3, "wrong line for {truncated:?}");
    }
}

#[test]
fn interleaved_garbage_is_rejected() {
    for garbage in [
        "not json at all",
        r#"["t","op"]"#,
        r#"{"seq":1,"t":"op"}"#, // tag not first
        r#"{"t":1}"#,            // tag not a string
        r#"{"t":"op"} trailing"#,
        r#"{"t":"op","nested":{"a":1}}"#,
        r#"{"t":"op","arr":[1,2]}"#,
        r#"{"t":"op","n":0x10}"#,
    ] {
        let text = format!("{GOOD}\n{garbage}\n{GOOD}");
        let err = parse_trace(&text).expect_err("garbage line must not parse");
        assert_eq!(err.line, 2, "wrong line for {garbage:?}");
        // The error message carries enough context to locate the problem.
        assert!(
            err.to_string().contains("line 2"),
            "unhelpful error for {garbage:?}"
        );
    }
}

#[test]
fn blank_lines_are_skipped_but_partial_blanks_are_not() {
    let text = format!("\n{GOOD}\n   \n{GOOD}\n\n");
    let lines = parse_trace(&text).expect("blank lines are padding");
    assert_eq!(lines.len(), 2);
}
