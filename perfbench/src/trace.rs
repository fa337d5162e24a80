//! The benchmark's own tracing: spans recorded around calls into each
//! layer, kept in memory and written out as JSONL when the run ends, plus a
//! counter-only metrics sink for counts measured where the work happens.

use adpm_observe::{Counter, MetricsSink, TraceEvent};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One timed call: `name` ran from `start_ns` to `end_ns` (relative to the
/// tracer's origin) on behalf of operation `seq`, as a child of `parent`.
///
/// Layers replayed one level down run in their own pass, so a child span
/// does not lie inside its parent's interval; it is linked by `parent` and
/// `seq` instead, and a span's self time is its duration minus the
/// durations of its children.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `session.submit`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// History sequence number of the operation the call served (0 = none).
    pub seq: u64,
}

impl Span {
    /// Duration in µs.
    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span measured elsewhere; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        seq: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            seq,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Times `call` as one span; returns its result and the span index.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        seq: u64,
        call: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        (out, self.record(name, start, end, parent, seq))
    }

    /// Durations (µs) of every span called `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .collect()
    }

    /// Total self time (µs) of the spans called `name` — each span's
    /// duration minus its children's — and how many there are.
    pub fn self_total_us(&self, name: &str) -> (f64, usize) {
        let mut children: BTreeMap<usize, f64> = BTreeMap::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                *children.entry(parent).or_default() += span.dur_us();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .fold((0.0, 0), |(total, n), (i, s)| {
                let own = s.dur_us() - children.get(&i).copied().unwrap_or(0.0);
                (total + own, n + 1)
            })
    }

    /// Mean self time (µs) of the spans called `name`; 0 when there is
    /// no such span.
    pub fn mean_self_us(&self, name: &str) -> f64 {
        let (total, n) = self.self_total_us(name);
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    }

    /// Total duration (µs) of the spans called `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum()
    }

    /// Writes every span as one JSON line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"seq\":{}}}",
                s.name, s.start_ns, s.end_ns, s.seq
            )?;
        }
        out.flush()
    }
}

/// A counters-only sink: reports itself disabled, so instrumented code
/// builds no trace events, but still counts every `incr`.
#[derive(Debug)]
pub struct CountingSink {
    counters: [AtomicU64; Counter::COUNT],
}

impl Default for CountingSink {
    fn default() -> Self {
        CountingSink {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl CountingSink {
    /// The current value of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].load(Ordering::Relaxed)
    }
}

impl MetricsSink for CountingSink {
    fn is_enabled(&self) -> bool {
        false
    }

    fn incr(&self, counter: Counter, by: u64) {
        self.counters[counter.index()].fetch_add(by, Ordering::Relaxed);
    }

    fn record(&self, _event: &TraceEvent<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_linked_children() {
        let origin = Instant::now();
        let at = |us: u64| origin + Duration::from_micros(us);
        let mut tracer = Tracer::new(origin);
        let parent = tracer.record("session.submit", at(0), at(100), None, 1);
        tracer.record("core.execute", at(200), at(260), Some(parent), 1);
        tracer.record("journal.append", at(300), at(310), Some(parent), 1);
        let other = tracer.record("session.submit", at(400), at(450), None, 2);
        tracer.record("core.execute", at(500), at(540), Some(other), 2);
        // (100 - 70 + 50 - 40) / 2
        assert_eq!(tracer.mean_self_us("session.submit"), 20.0);
        assert_eq!(tracer.self_total_us("session.submit"), (40.0, 2));
        assert_eq!(tracer.durations_us("core.execute"), vec![60.0, 40.0]);
        assert_eq!(tracer.total_us("core.execute"), 100.0);
        assert_eq!(tracer.self_total_us("missing"), (0.0, 0));
    }
}
