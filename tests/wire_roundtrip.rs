//! Property-based round-trip tests for the collaboration wire protocol:
//! any [`Frame`] the strategies can generate must survive
//! `Frame::to_line` → `Frame::parse_line` (and the `LineBuffer` framer
//! both connection ends read through) with every field intact — including adversarial names
//! needing every JSON escape and full-precision `f64` values — and the
//! parser must reject malformed, mistyped, and oversized input with a
//! useful message instead of mis-parsing it.

use adpm_collab::{BufferedLine, Frame, LineBuffer, WireOp, MAX_LINE_BYTES};
use proptest::prelude::*;

/// Feeds `bytes` to a fresh [`LineBuffer`] in pieces of the given sizes
/// (cycled), the way socket reads deliver them, and collects every line
/// it yields along the way.
fn frame_in_chunks(bytes: &[u8], sizes: &[usize]) -> (Vec<BufferedLine>, LineBuffer) {
    let mut buffer = LineBuffer::new();
    let mut lines = Vec::new();
    let mut rest = bytes;
    for size in sizes.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (chunk, tail) = rest.split_at((*size).min(rest.len()));
        buffer.push(chunk);
        lines.extend(std::iter::from_fn(|| buffer.take()));
        rest = tail;
    }
    (lines, buffer)
}

/// Names as the engine produces them (`object.property` targets, problem
/// and constraint names) plus adversarial strings that need every escape
/// the writer knows: quotes, backslashes, control characters, non-ASCII.
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

/// Finite `f64`s across magnitudes; the writer's shortest-round-trip
/// formatting must bring each back bit-exact through the JSON parser.
fn value() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1.0e9..1.0e9,
        -1.0e-6..1.0e-6,
        Just(0.0),
        Just(f64::MIN_POSITIVE),
        Just(1.0 / 3.0),
        Just(123_456_789.000_000_1),
    ]
}

/// Counters cross the wire as JSON numbers (`f64` in the parser), so only
/// integers up to 2^53 survive exactly — which the engine's sequence
/// numbers and evaluation counters never exceed in practice.
fn exact_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..1024,
        Just((1u64 << 53) - 1),
        Just(1u64 << 53),
        0u64..(1u64 << 53),
    ]
}

fn wire_op() -> impl Strategy<Value = WireOp> {
    prop_oneof![
        (name(), name(), value()).prop_map(|(problem, property, value)| WireOp::Assign {
            problem,
            property,
            value
        }),
        (name(), name()).prop_map(|(problem, property)| WireOp::Unbind { problem, property }),
        (name(), name()).prop_map(|(problem, constraints)| WireOp::Verify {
            problem,
            constraints
        }),
    ]
}

/// Optional wire counters: absent half the time, exact when present.
fn opt_u64() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), exact_u64().prop_map(Some)]
}

fn frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        any::<u32>().prop_map(|designer| Frame::Hello { designer }),
        (any::<bool>(), opt_u64())
            .prop_map(|(all, resume_from)| Frame::Subscribe { all, resume_from }),
        (wire_op(), opt_u64()).prop_map(|(op, cid)| Frame::Submit { op, cid }),
        Just(Frame::Snapshot),
        Just(Frame::Shutdown),
        Just(Frame::Bye),
        (name(), any::<u32>(), any::<u32>(), any::<u32>()).prop_map(
            |(mode, designers, properties, constraints)| Frame::Welcome {
                mode,
                designers,
                properties,
                constraints,
            }
        ),
        (any::<u32>(), exact_u64())
            .prop_map(|(designer, last_idx)| Frame::Subscribed { designer, last_idx }),
        (
            exact_u64(),
            exact_u64(),
            any::<u32>(),
            name(),
            any::<bool>(),
            opt_u64()
        )
            .prop_map(
                |(seq, evaluations, violations_after, new_violations, spin, cid)| Frame::Executed {
                    seq,
                    evaluations,
                    violations_after,
                    new_violations,
                    spin,
                    cid,
                }
            ),
        (name(), opt_u64()).prop_map(|(reason, cid)| Frame::Rejected { reason, cid }),
        name().prop_map(|message| Frame::Error { message }),
        (exact_u64(), any::<u32>(), any::<u32>()).prop_map(|(operations, bound, violations)| {
            Frame::State {
                operations,
                bound,
                violations,
            }
        }),
        (name(), value(), value(), any::<bool>()).prop_map(|(name, lo, hi, bound)| Frame::Prop {
            name,
            lo,
            hi,
            bound
        }),
        Just(Frame::End),
        (exact_u64(), name(), name(), name(), value(), exact_u64()).prop_map(
            |(seq, kind, subject, properties, relative_size, idx)| Frame::Event {
                seq,
                kind,
                subject,
                properties,
                relative_size,
                idx,
            }
        ),
        exact_u64().prop_map(|nonce| Frame::Ping { nonce }),
        exact_u64().prop_map(|nonce| Frame::Pong { nonce }),
        name().prop_map(|message| Frame::Warning { message }),
    ]
}

proptest! {
    /// Every frame kind, with adversarial strings and full-precision
    /// numbers, survives serialize → parse bit-exact.
    #[test]
    fn any_frame_round_trips(frame in frame()) {
        let line = frame.to_line();
        prop_assert!(line.ends_with('\n'));
        prop_assert!(line.len() <= MAX_LINE_BYTES);
        let parsed = Frame::parse_line(&line).expect("writer output must parse");
        prop_assert_eq!(parsed, frame);
    }

    /// A whole conversation's worth of frames, arriving in arbitrary
    /// pieces, comes back out of a `LineBuffer` in order with nothing left
    /// over.
    #[test]
    fn frame_streams_round_trip(
        frames in proptest::collection::vec(frame(), 0..12),
        sizes in proptest::collection::vec(1usize..64, 1..8),
    ) {
        let bytes: String = frames.iter().map(Frame::to_line).collect();
        let (lines, buffer) = frame_in_chunks(bytes.as_bytes(), &sizes);
        let parsed: Vec<Frame> = lines
            .iter()
            .map(|line| match line {
                BufferedLine::Line(text) => Frame::parse_line(text).expect("writer output must parse"),
                skipped => panic!("the framer skipped writer output: {skipped:?}"),
            })
            .collect();
        prop_assert_eq!(parsed, frames);
        prop_assert!(!buffer.has_pending());
    }
}

/// Malformed input is rejected with a message naming the problem; none of
/// it panics or silently mis-parses.
#[test]
fn parser_rejects_malformed_frames() {
    let cases: &[(&str, &str)] = &[
        ("", "expected"),
        ("{}", "empty frame"),
        ("not json at all", "expected"),
        ("{\"designer\":1,\"t\":\"hello\"}", "first field"),
        ("{\"t\":7}", "tag must be a string"),
        ("{\"t\":\"warp\"}", "unknown frame tag"),
        ("{\"t\":\"hello\"}", "needs integer `designer`"),
        (
            "{\"t\":\"hello\",\"designer\":\"zero\"}",
            "needs integer `designer`",
        ),
        ("{\"t\":\"hello\",\"designer\":99999999999}", "out of range"),
        (
            "{\"t\":\"subscribe\",\"all\":\"yes\"}",
            "needs boolean `all`",
        ),
        (
            "{\"t\":\"assign\",\"problem\":\"p\",\"property\":\"x\"}",
            "`value`",
        ),
        (
            "{\"t\":\"prop\",\"name\":\"x\",\"lo\":{},\"hi\":1,\"bound\":true}",
            "nested",
        ),
    ];
    for (line, needle) in cases {
        let err = Frame::parse_line(line).expect_err(line);
        assert!(
            err.to_string().contains(needle),
            "error for {line:?} should mention {needle:?}, got: {err}"
        );
    }
}

/// An oversized line is rejected whole — the framer skips it, counting
/// every byte, and stays line-synchronized, so the next frame still parses.
#[test]
fn oversized_lines_are_rejected_in_both_paths() {
    let oversized = format!(
        "{{\"t\":\"err\",\"message\":\"{}\"}}",
        "x".repeat(MAX_LINE_BYTES)
    );
    assert!(Frame::parse_line(&oversized).is_err());

    let skipped = oversized.len() as u64 + 1;
    let mut bytes = oversized.into_bytes();
    bytes.push(b'\n');
    bytes.extend_from_slice(Frame::Bye.to_line().as_bytes());
    let (lines, buffer) = frame_in_chunks(&bytes, &[4096]);
    assert_eq!(
        lines,
        vec![
            BufferedLine::Skipped { bytes: skipped },
            BufferedLine::Line(Frame::Bye.to_line().trim_end().to_owned()),
        ],
        "the framer must skip the oversized line and recover at the next boundary"
    );
    assert!(!buffer.has_pending());
}

/// Blank lines are swallowed, a non-UTF-8 line is skipped instead of
/// panicking, and a final frame without its newline stays buffered: no end
/// parses a partial line.
#[test]
fn reader_edge_cases() {
    let invalid = b"{\"t\":\"bye\xff\"}\n";
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"\n\r\n");
    bytes.extend_from_slice(Frame::Snapshot.to_line().as_bytes());
    bytes.extend_from_slice(b"\n");
    bytes.extend_from_slice(invalid);
    bytes.extend_from_slice(Frame::End.to_line().trim_end().as_bytes());
    let (lines, buffer) = frame_in_chunks(&bytes, &[3, 7]);
    assert_eq!(
        lines,
        vec![
            BufferedLine::Line(Frame::Snapshot.to_line().trim_end().to_owned()),
            BufferedLine::Skipped {
                bytes: invalid.len() as u64
            },
        ]
    );
    assert!(
        buffer.has_pending(),
        "the unterminated `end` frame waits for its newline"
    );
}
