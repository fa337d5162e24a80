//! The JSONL trace sink and its reader.

use crate::histogram::SpanKind;
use crate::json::{parse_object, JsonValue, TraceParseError};
use crate::sink::{InMemorySink, MetricsSink};
use crate::trace::{Counter, TraceEvent};
use std::fmt;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A [`MetricsSink`] that serializes every event as one JSON object per
/// line, for offline analysis and replay auditing.
///
/// Counters are aggregated in memory alongside the stream;
/// [`finish`](JsonlSink::finish) appends them as a final
/// `{"t":"counters",...}` line and flushes. An I/O error during
/// [`record`](MetricsSink::record) never panics the instrumented run; the
/// *first* such error is retained and surfaced by the next
/// [`finish`](JsonlSink::finish) call (or inspected early via
/// [`take_error`](JsonlSink::take_error)). Dropping the sink finishes it
/// implicitly but discards any error — call `finish` when you care.
pub struct JsonlSink {
    writer: Mutex<BufWriter<Box<dyn Write + Send>>>,
    counters: InMemorySink,
    finished: AtomicBool,
    error: Mutex<Option<std::io::Error>>,
}

impl fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlSink")
            .field("counters", &self.counters)
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// Wraps an arbitrary writer (buffered internally).
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            writer: Mutex::new(BufWriter::new(writer)),
            counters: InMemorySink::new(),
            finished: AtomicBool::new(false),
            error: Mutex::new(None),
        }
    }

    /// Creates (truncating) `path` and streams the trace to it.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from creating the file.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink::new(Box::new(file)))
    }

    /// A point-in-time copy of the aggregated counters.
    pub fn snapshot(&self) -> crate::sink::CounterSnapshot {
        self.counters.snapshot()
    }

    /// Removes and returns the first deferred write error, if any —
    /// [`record`](MetricsSink::record) must never panic or error into the
    /// instrumented run, so mid-run I/O failures park here instead.
    pub fn take_error(&self) -> Option<std::io::Error> {
        lock_recovered(&self.error).take()
    }

    fn store_error(&self, error: std::io::Error) {
        let mut slot = lock_recovered(&self.error);
        if slot.is_none() {
            *slot = Some(error);
        }
    }

    fn lock_writer(&self) -> MutexGuard<'_, BufWriter<Box<dyn Write + Send>>> {
        // Poison recovery: a panic on another instrumented thread must not
        // cascade into losing the rest of the trace. The writer state is a
        // byte stream — at worst the panicking thread left a partial line.
        lock_recovered(&self.writer)
    }

    /// Writes the final `{"t":"counters",...}` line and flushes. Safe to
    /// call more than once; only the first call writes (but any call
    /// surfaces a still-pending deferred error).
    ///
    /// # Errors
    ///
    /// The first deferred [`record`](MetricsSink::record) error, or any
    /// [`std::io::Error`] from writing the counters line and flushing.
    pub fn finish(&self) -> std::io::Result<()> {
        if !self.finished.swap(true, Ordering::SeqCst) {
            let mut writer = self.lock_writer();
            let result = writeln!(writer, "{}", self.counters.snapshot().to_json())
                .and_then(|()| writer.flush());
            drop(writer);
            if let Err(error) = result {
                self.store_error(error);
            }
        }
        match self.take_error() {
            Some(error) => Err(error),
            None => Ok(()),
        }
    }
}

fn lock_recovered<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

impl MetricsSink for JsonlSink {
    fn incr(&self, counter: Counter, by: u64) {
        self.counters.incr(counter, by);
    }

    fn record(&self, event: &TraceEvent<'_>) {
        let mut line = String::with_capacity(96);
        event.write_json(&mut line);
        line.push('\n');
        let result = self.lock_writer().write_all(line.as_bytes());
        // An I/O error mid-run (disk full, closed pipe) must not panic the
        // simulation; the trace is best-effort, so park the first error for
        // `finish`/`take_error` to surface.
        if let Err(error) = result {
            self.store_error(error);
        }
    }

    fn time(&self, kind: SpanKind, dur_us: u64) {
        self.counters.time(kind, dur_us);
    }

    /// Degradation-point durability: run [`finish`](JsonlSink::finish) so
    /// the counters line and every buffered event reach the writer now,
    /// while the process still can. Any I/O error stays deferred for
    /// [`take_error`](JsonlSink::take_error), as the sink contract demands.
    fn flush(&self) {
        if let Err(error) = self.finish() {
            // finish() takes the deferred error out; park it again so a
            // later take_error/finish caller still sees it.
            self.store_error(error);
        }
    }
}

/// One parsed line of a JSONL trace: ordered `(key, value)` pairs plus the
/// mandatory `"t"` tag.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceLine {
    tag: String,
    fields: Vec<(String, JsonValue)>,
}

impl TraceLine {
    /// The line's `"t"` type tag (`"op"`, `"wave"`, `"counters"`, ...).
    pub fn tag(&self) -> &str {
        &self.tag
    }

    /// Looks up a field by key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A field as `u64`, if present and a non-negative integer.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(JsonValue::as_u64)
    }

    /// A field as `bool`, if present and boolean.
    pub fn bool_field(&self, key: &str) -> Option<bool> {
        self.get(key).and_then(JsonValue::as_bool)
    }

    /// A field as `&str`, if present and a string.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(JsonValue::as_str)
    }

    /// All fields except the tag, in serialization order.
    pub fn fields(&self) -> &[(String, JsonValue)] {
        &self.fields
    }
}

/// Parses a JSONL trace (the full text, one object per non-empty line).
///
/// Every line must be a flat JSON object whose first field is the string
/// tag `"t"` — anything else is an error carrying the 1-based line number.
///
/// # Errors
///
/// Returns a [`TraceParseError`] for the first malformed line.
pub fn parse_trace(text: &str) -> Result<Vec<TraceLine>, TraceParseError> {
    let mut lines = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let number = idx + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let mut fields = parse_object(raw, number)?;
        let tag = match fields.first() {
            Some((key, JsonValue::Str(tag))) if key == "t" => tag.clone(),
            _ => {
                return Err(TraceParseError {
                    line: number,
                    message: "first field must be the string tag \"t\"".into(),
                })
            }
        };
        fields.remove(0);
        lines.push(TraceLine { tag, fields });
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A Write handle into a shared buffer, so tests can read back what the
    /// sink wrote after the sink is gone.
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

    #[test]
    fn jsonl_round_trip_with_counters_line() {
        let buf = SharedBuf::default();
        let sink = JsonlSink::new(Box::new(buf.clone()));
        sink.incr(Counter::Evaluations, 7);
        sink.record(&TraceEvent::PropagationDone {
            kind: "full",
            seeded: 4,
            waves: 2,
            evaluations: 7,
            narrowed: 1,
            conflicts: 0,
            fixpoint: true,
            dur_us: 40,
        });
        sink.record(&TraceEvent::Tick {
            tick: 0,
            designer: 3,
            outcome: "executed",
            dur_us: 55,
        });
        sink.finish().expect("finish");
        drop(sink);

        let text = String::from_utf8(buf.0.lock().unwrap().clone()).expect("utf8");
        let lines = parse_trace(&text).expect("valid trace");
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].tag(), "propagation");
        assert_eq!(lines[0].u64_field("waves"), Some(2));
        assert_eq!(lines[0].bool_field("fixpoint"), Some(true));
        assert_eq!(lines[0].u64_field("dur_us"), Some(40));
        assert_eq!(lines[1].tag(), "tick");
        assert_eq!(lines[1].str_field("outcome"), Some("executed"));
        assert_eq!(lines[1].u64_field("dur_us"), Some(55));
        assert_eq!(lines[2].tag(), "counters");
        assert_eq!(lines[2].u64_field("evaluations"), Some(7));
    }

    /// A writer that fails every write after the first `ok_writes`.
    struct FailingWriter {
        ok_writes: usize,
    }

    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.ok_writes == 0 {
                return Err(std::io::Error::other("disk full"));
            }
            self.ok_writes -= 1;
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn record_errors_are_deferred_and_surfaced_by_finish() {
        let sink = JsonlSink::new(Box::new(FailingWriter { ok_writes: 0 }));
        // record never panics or errors into the run...
        sink.record(&TraceEvent::Tick {
            tick: 0,
            designer: 0,
            outcome: "executed",
            dur_us: 1,
        });
        sink.record(&TraceEvent::Tick {
            tick: 1,
            designer: 0,
            outcome: "executed",
            dur_us: 1,
        });
        // ...BufWriter buffers small lines, so force the failure out.
        let err = sink.finish().expect_err("failure must surface");
        assert_eq!(err.to_string(), "disk full");
        // The error was taken by the failed finish; later calls are clean.
        assert!(sink.finish().is_ok());
        assert!(sink.take_error().is_none());
    }

    #[test]
    fn take_error_exposes_the_first_deferred_error() {
        // Buffer capacity 1 byte would still buffer; use a writer that
        // fails immediately and bypass buffering via finish-sized writes.
        let sink = JsonlSink::new(Box::new(FailingWriter { ok_writes: 0 }));
        let long_line = "x".repeat(16 * 1024);
        sink.record(&TraceEvent::Tick {
            tick: 0,
            designer: 0,
            outcome: &long_line,
            dur_us: 1,
        });
        let err = sink.take_error().expect("oversized write fails through");
        assert_eq!(err.to_string(), "disk full");
        // Only the FIRST error is retained; a finish after take_error hits
        // its own write failure and reports that instead.
        assert!(sink.finish().is_err());
    }

    #[test]
    fn finish_is_idempotent() {
        let buf = SharedBuf::default();
        let sink = JsonlSink::new(Box::new(buf.clone()));
        sink.finish().expect("first finish");
        sink.finish().expect("second finish");
        drop(sink);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).expect("utf8");
        assert_eq!(text.lines().count(), 1, "{text}");
    }

    #[test]
    fn flush_finishes_through_the_sink_trait() {
        let buf = SharedBuf::default();
        let sink = JsonlSink::new(Box::new(buf.clone()));
        sink.incr(Counter::Operations, 2);
        // Producers hold the sink as &dyn MetricsSink at degradation
        // points; flush must write the counters line through that view.
        (&sink as &dyn MetricsSink).flush();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).expect("utf8");
        let lines = parse_trace(&text).expect("valid trace");
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].tag(), "counters");
        assert_eq!(lines[0].u64_field("operations"), Some(2));
        // flush keeps the deferred-error contract: none here.
        assert!(sink.take_error().is_none());
    }

    #[test]
    fn flush_keeps_the_deferred_error_for_take_error() {
        let sink = JsonlSink::new(Box::new(FailingWriter { ok_writes: 0 }));
        (&sink as &dyn MetricsSink).flush();
        let err = sink.take_error().expect("flush failure must be parked");
        assert_eq!(err.to_string(), "disk full");
    }

    #[test]
    fn parse_trace_requires_leading_tag() {
        assert!(parse_trace("{\"t\":\"op\",\"seq\":1}\n").is_ok());
        assert!(parse_trace("\n\n{\"t\":\"op\"}\n").is_ok());
        let err = parse_trace("{\"seq\":1,\"t\":\"op\"}").unwrap_err();
        assert_eq!(err.line, 1);
        let err = parse_trace("{\"t\":\"op\"}\nnot json").unwrap_err();
        assert_eq!(err.line, 2);
    }
}
