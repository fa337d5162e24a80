//! Log-bucketed duration histograms and the timed-span taxonomy.
//!
//! The histogram follows the HDR-histogram idea in its cheapest form: one
//! atomic bucket per power of two, so `record` is a couple of atomic adds
//! and quantile queries resolve to a bucket upper bound. That trades ≤2×
//! relative error on percentiles for a lock-free, allocation-free recorder
//! that is safe to share across threads — the same contract as the counter
//! array in [`InMemorySink`](crate::InMemorySink).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// The kinds of timed spans the instrumented hot paths report, densely
/// indexable like [`Counter`](crate::Counter).
///
/// The spans nest: a `Tick` contains one `Operation`, which contains at
/// most one `Propagation` (λ = T) and one `Fanout`; a `Propagation`
/// contains its `Wave`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One simulation engine tick.
    Tick,
    /// One DPM design operation.
    Operation,
    /// One propagation run (worklist to fixpoint).
    Propagation,
    /// One BFS level of the propagation worklist.
    Wave,
    /// One Notification Manager fanout after an operation.
    Fanout,
    /// One collaboration session command (submit/subscribe/snapshot/...).
    Session,
    /// One notification-router fanout into subscriber inboxes.
    Notify,
    /// One journal recovery (read + replay) on session restart.
    Recover,
    /// One resilient-client reconnect (first failure to restored link).
    Reconnect,
    /// One complete conflict negotiation (MCS reduction through the final
    /// accepted/abandoned verdict).
    Negotiate,
}

impl SpanKind {
    /// Every span kind, in index order.
    pub const ALL: [SpanKind; 10] = [
        SpanKind::Tick,
        SpanKind::Operation,
        SpanKind::Propagation,
        SpanKind::Wave,
        SpanKind::Fanout,
        SpanKind::Session,
        SpanKind::Notify,
        SpanKind::Recover,
        SpanKind::Reconnect,
        SpanKind::Negotiate,
    ];

    /// Number of span kinds (the size of a dense histogram array).
    pub const COUNT: usize = SpanKind::ALL.len();

    /// Dense index of this span kind in `0..SpanKind::COUNT`.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable name, matching the `"t"` tag of the trace line that carries
    /// this span's `dur_us` field.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Tick => "tick",
            SpanKind::Operation => "op",
            SpanKind::Propagation => "propagation",
            SpanKind::Wave => "wave",
            SpanKind::Fanout => "fanout",
            SpanKind::Session => "session",
            SpanKind::Notify => "notify",
            SpanKind::Recover => "recover",
            SpanKind::Reconnect => "reconnect",
            SpanKind::Negotiate => "negotiate",
        }
    }
}

/// Number of power-of-two buckets: bucket 0 holds the value 0, bucket
/// `i ≥ 1` holds values in `[2^(i-1), 2^i)`, up to bucket 64 for values
/// with the top bit set.
const BUCKETS: usize = 65;

/// A lock-free log₂-bucketed histogram of `u64` samples (typically span
/// durations in µs).
///
/// `record` is wait-free (three relaxed atomic RMWs); `p50`/`p90`/`p99`
/// report the upper bound of the bucket where the cumulative count crosses
/// the quantile — exact `count`, `sum`, `max` and ≤2× relative error on
/// percentiles. Percentiles are pure bucket bounds: two histograms with
/// the same per-bucket occupancy report identical quantiles even when
/// their exact samples differ, which is what keeps `adpm analyze --vs`
/// timing comparisons deterministic across builds.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("max", &self.max())
            .finish_non_exhaustive()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Upper bound (inclusive) of bucket `i` — the value a quantile query
    /// landing in that bucket reports.
    fn bucket_upper(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Adds one sample.
    pub fn record(&self, value: u64) {
        self.buckets[Histogram::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact maximum sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean sample, rounded down (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum().checked_div(self.count()).unwrap_or(0)
    }

    /// The `p`-th percentile (`0.0 ..= 100.0`): the upper bound of the
    /// bucket where the cumulative sample count reaches `p`% of the total.
    /// Returns 0 when empty.
    ///
    /// The answer is always a bucket bound (0, `2^i - 1`, or `u64::MAX`),
    /// never the noisy observed maximum, so quantiles depend only on bucket
    /// occupancy — deterministic across runs whose samples land in the same
    /// buckets.
    pub fn percentile(&self, p: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= rank {
                return Histogram::bucket_upper(i);
            }
        }
        Histogram::bucket_upper(Histogram::bucket_of(self.max()))
    }

    /// Median (see [`percentile`](Histogram::percentile)).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Resets the histogram to empty.
    pub fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "count={} mean={} p50={} p90={} p99={} max={}",
            self.count(),
            self.mean(),
            self.p50(),
            self.p90(),
            self.p99(),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn span_kind_indices_are_dense_and_names_unique() {
        let mut names = std::collections::BTreeSet::new();
        for (i, kind) in SpanKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
            assert!(names.insert(kind.name()));
        }
        assert_eq!(names.len(), SpanKind::COUNT);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn exact_stats_are_exact() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.max(), 100);
        assert_eq!(h.mean(), 21);
    }

    #[test]
    fn percentiles_land_within_their_log_bucket() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // p50's true value is 500; a log2 bucket answer must be in
        // [500, 1023] (the upper bound of 500's bucket).
        let p50 = h.p50();
        assert!((500..=1023).contains(&p50), "p50 = {p50}");
        // p99's true value is 990, which lands in the [512, 1023] bucket;
        // the reported bound is that bucket's upper edge, not the max.
        let p99 = h.p99();
        assert!((990..=1023).contains(&p99), "p99 = {p99}");
        assert_eq!(h.percentile(100.0), 1023);
    }

    #[test]
    fn percentiles_depend_only_on_bucket_occupancy() {
        // Same buckets, different exact samples (and maxima): quantiles
        // must agree — the determinism contract `adpm analyze --vs`
        // relies on when comparing the timing columns of two traces.
        let (a, b) = (Histogram::new(), Histogram::new());
        for v in [3, 70, 130] {
            a.record(v);
        }
        for v in [2, 100, 255] {
            b.record(v);
        }
        assert_ne!(a.max(), b.max());
        for p in [50.0, 90.0, 99.0, 100.0] {
            assert_eq!(a.percentile(p), b.percentile(p), "p{p}");
        }
    }

    #[test]
    fn zero_and_max_values_have_homes() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.p50(), 0);
    }

    #[test]
    fn reset_empties_the_histogram() {
        let h = Histogram::new();
        h.record(42);
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h.max(), 0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn concurrent_recording_counts_every_sample() {
        const THREADS: usize = 8;
        const SAMPLES: u64 = 5_000;
        let h = Arc::new(Histogram::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|i| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for s in 0..SAMPLES {
                        h.record(s % (i as u64 + 2));
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("worker thread panicked");
        }
        assert_eq!(h.count(), THREADS as u64 * SAMPLES);
    }

    #[test]
    fn display_is_one_line_of_stats() {
        let h = Histogram::new();
        h.record(8);
        let line = h.to_string();
        assert!(line.contains("count=1"));
        assert!(line.contains("max=8"));
    }
}
