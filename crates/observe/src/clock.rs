//! Injectable monotonic clocks for span timing.
//!
//! Instrumented hot paths never call [`std::time::Instant`] directly; they
//! take a [`Clock`] so that production code gets real wall-clock spans
//! ([`MonotonicClock`]) while tests and golden traces get byte-deterministic
//! durations ([`ManualClock`]). A clock reports *microseconds since an
//! arbitrary fixed origin* — only differences between two readings are
//! meaningful.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// A monotonic microsecond clock.
///
/// `now_us` must be monotone non-decreasing within one clock instance; the
/// origin is arbitrary, so only deltas are meaningful. Implementations must
/// be thread-safe — one clock may be shared by every instrumented layer of
/// a run.
pub trait Clock: fmt::Debug + Send + Sync {
    /// Microseconds elapsed since this clock's (arbitrary) origin.
    fn now_us(&self) -> u64;
}

/// The production clock: [`Instant`]-backed, origin fixed at first use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonotonicClock;

impl MonotonicClock {
    /// Creates the real clock.
    pub fn new() -> Self {
        MonotonicClock
    }
}

impl Clock for MonotonicClock {
    fn now_us(&self) -> u64 {
        static ORIGIN: OnceLock<Instant> = OnceLock::new();
        let origin = *ORIGIN.get_or_init(Instant::now);
        Instant::now().duration_since(origin).as_micros() as u64
    }
}

/// A deterministic clock for tests and golden traces.
///
/// Every [`now_us`](Clock::now_us) call returns the current reading and
/// then advances it by a fixed step, so a span's duration equals the number
/// of clock reads between its start and end times a constant — a pure
/// function of the code path, independent of the machine. Two identical
/// runs therefore produce byte-identical `dur_us` fields.
#[derive(Debug)]
pub struct ManualClock {
    now: AtomicU64,
    step: u64,
}

impl ManualClock {
    /// A clock starting at 0 that advances by 1 µs per reading.
    pub fn new() -> Self {
        ManualClock::with_step(0, 1)
    }

    /// A clock starting at `start` that advances by `step` µs per reading.
    pub fn with_step(start: u64, step: u64) -> Self {
        ManualClock {
            now: AtomicU64::new(start),
            step,
        }
    }

    /// Advances the clock by `by` µs without consuming a reading.
    pub fn advance(&self, by: u64) {
        self.now.fetch_add(by, Ordering::Relaxed);
    }

    /// Sets the clock to an absolute reading.
    pub fn set(&self, value: u64) {
        self.now.store(value, Ordering::Relaxed);
    }
}

impl Default for ManualClock {
    fn default() -> Self {
        ManualClock::new()
    }
}

impl Clock for ManualClock {
    fn now_us(&self) -> u64 {
        self.now.fetch_add(self.step, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_is_monotone() {
        let clock = MonotonicClock::new();
        let a = clock.now_us();
        let b = clock.now_us();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_steps_per_reading() {
        let clock = ManualClock::with_step(100, 5);
        assert_eq!(clock.now_us(), 100);
        assert_eq!(clock.now_us(), 105);
        clock.advance(1_000);
        assert_eq!(clock.now_us(), 1_110);
        clock.set(7);
        assert_eq!(clock.now_us(), 7);
    }

    #[test]
    fn manual_clock_default_steps_by_one() {
        let clock = ManualClock::default();
        assert_eq!(clock.now_us(), 0);
        assert_eq!(clock.now_us(), 1);
    }

    #[test]
    fn clocks_are_object_safe() {
        let clocks: Vec<Box<dyn Clock>> = vec![
            Box::new(MonotonicClock::new()),
            Box::new(ManualClock::new()),
        ];
        for clock in &clocks {
            let _ = clock.now_us();
        }
    }
}
