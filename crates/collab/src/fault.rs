//! Deterministic, seeded fault injection for the wire link.
//!
//! A [`FaultPlan`] is a tiny scripted chaos policy — per-frame
//! probabilities of dropping, delaying, duplicating, truncating, or
//! corrupting outgoing frames, plus an optional scripted connection kill —
//! parsed from the compact `key=value,...` grammar accepted by
//! `adpm serve --fault-plan` / `adpm client --fault-plan`:
//!
//! ```text
//! seed=42,drop=0.2,delay=0.1:5ms,dup=0.1,corrupt=0.05,truncate=0.05,kill=8
//! ```
//!
//! Each connection gets its own [`FaultInjector`] seeded from
//! `plan.seed ^ ((conn_index + 1) * STRIDE)`, so a run's fault schedule is
//! a pure function of the plan and the connection index: the same plan
//! replayed against the same traffic injects the same faults. That
//! determinism is what lets the chaos-equivalence test demand *identical*
//! final design state from a faulty and a clean run.
//!
//! Faults apply to *outgoing* frames at the write path — the receiving
//! peer sees real torn, duplicated, and corrupted bytes, exercising the
//! actual reader resynchronization and retry logic rather than a mock.
//!
//! The same grammar also scripts *disk* faults, injected at the journal
//! writer rather than the socket: `enospc` (the append fails with no
//! bytes written), `short_write` (only a prefix of the line lands before
//! the failure), `fsync_fail` (the data is written but durability is
//! refused), and `torn_snapshot` (a compaction attempt dies mid-snapshot,
//! leaving a partial temp file). Disk faults get their own
//! [`DiskFaultInjector`] stream, decorrelated from the wire streams, so
//! adding journal chaos never perturbs an existing wire fault schedule.

use adpm_observe::{Counter, MetricsSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

/// Golden-ratio odd multiplier decorrelating per-connection fault streams
/// (the same stride the concurrent driver uses for per-designer seeds).
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// A scripted chaos policy for one run; see the [module docs](self) for
/// the textual grammar.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Base RNG seed; each connection derives its own stream from it.
    pub seed: u64,
    /// Probability a frame is silently dropped.
    pub drop: f64,
    /// Probability a frame is delayed before writing.
    pub delay: f64,
    /// How long a delayed frame waits.
    pub delay_for: Duration,
    /// Probability a frame is written twice.
    pub dup: f64,
    /// Probability one byte inside the frame is overwritten with `0x01`.
    pub corrupt: f64,
    /// Probability the frame is cut short, newline included — the
    /// remainder fuses with the next frame into a parse error, exercising
    /// the reader's resynchronization.
    pub truncate: f64,
    /// Kill the connection at this (1-based) outgoing frame count.
    pub kill: Option<u64>,
    /// Probability a journal append fails as if the disk were full
    /// (no bytes written).
    pub enospc: f64,
    /// Probability a journal append writes only a prefix of the line
    /// before failing.
    pub short_write: f64,
    /// Probability an explicit journal fsync reports failure.
    pub fsync_fail: f64,
    /// Probability a snapshot compaction dies mid-write, leaving a torn
    /// temp file behind (the live journal is untouched).
    pub torn_snapshot: f64,
}

impl FaultPlan {
    /// Whether any disk-fault probability is non-zero — i.e. whether the
    /// journal writer needs a [`DiskFaultInjector`] at all.
    pub fn has_disk_faults(&self) -> bool {
        self.enospc > 0.0
            || self.short_write > 0.0
            || self.fsync_fail > 0.0
            || self.torn_snapshot > 0.0
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop: 0.0,
            delay: 0.0,
            delay_for: Duration::ZERO,
            dup: 0.0,
            corrupt: 0.0,
            truncate: 0.0,
            kill: None,
            enospc: 0.0,
            short_write: 0.0,
            fsync_fail: 0.0,
            torn_snapshot: 0.0,
        }
    }
}

fn parse_probability(key: &str, value: &str) -> Result<f64, String> {
    let p: f64 = value
        .parse()
        .map_err(|_| format!("`{key}` needs a probability, got `{value}`"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("`{key}` probability {p} outside [0, 1]"));
    }
    Ok(p)
}

impl FromStr for FaultPlan {
    type Err = String;

    fn from_str(text: &str) -> Result<Self, Self::Err> {
        let mut plan = FaultPlan::default();
        for part in text.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault plan entry `{part}` is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("`seed` needs an integer, got `{value}`"))?;
                }
                "drop" => plan.drop = parse_probability(key, value)?,
                "dup" => plan.dup = parse_probability(key, value)?,
                "corrupt" => plan.corrupt = parse_probability(key, value)?,
                "truncate" => plan.truncate = parse_probability(key, value)?,
                "enospc" => plan.enospc = parse_probability(key, value)?,
                "short_write" => plan.short_write = parse_probability(key, value)?,
                "fsync_fail" => plan.fsync_fail = parse_probability(key, value)?,
                "torn_snapshot" => plan.torn_snapshot = parse_probability(key, value)?,
                "delay" => {
                    let (p, dur) = value.split_once(':').ok_or_else(|| {
                        format!("`delay` needs probability:duration (e.g. 0.1:5ms), got `{value}`")
                    })?;
                    plan.delay = parse_probability("delay", p)?;
                    let millis: u64 = dur
                        .strip_suffix("ms")
                        .unwrap_or(dur)
                        .parse()
                        .map_err(|_| format!("`delay` duration `{dur}` is not milliseconds"))?;
                    plan.delay_for = Duration::from_millis(millis);
                }
                "kill" => {
                    let at: u64 = value
                        .parse()
                        .map_err(|_| format!("`kill` needs a frame count, got `{value}`"))?;
                    if at == 0 {
                        return Err("`kill` frame count must be ≥ 1".into());
                    }
                    plan.kill = Some(at);
                }
                other => return Err(format!("unknown fault plan key `{other}`")),
            }
        }
        Ok(plan)
    }
}

/// What the injector decided to do with one outgoing frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Write these chunks in order, sleeping each chunk's delay first. A
    /// dropped frame is an empty chunk list; a clean frame is one chunk
    /// with zero delay.
    Write(Vec<(Vec<u8>, Duration)>),
    /// Kill the connection now (scripted `kill=N` reached).
    Kill,
}

/// Per-connection deterministic fault stream over a [`FaultPlan`].
pub struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    frames_out: u64,
    injected: u64,
    sink: Option<Arc<dyn MetricsSink>>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.plan)
            .field("frames_out", &self.frames_out)
            .field("injected", &self.injected)
            .finish_non_exhaustive()
    }
}

impl FaultInjector {
    /// An injector for the `conn_index`-th connection under `plan`.
    pub fn new(plan: &FaultPlan, conn_index: u64) -> Self {
        FaultInjector {
            plan: plan.clone(),
            rng: StdRng::seed_from_u64(
                plan.seed ^ (conn_index.wrapping_add(1)).wrapping_mul(SEED_STRIDE),
            ),
            frames_out: 0,
            injected: 0,
            sink: None,
        }
    }

    /// Counts injected faults into `sink`'s `faults_injected` counter.
    pub fn with_sink(mut self, sink: Arc<dyn MetricsSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    fn fault(&mut self) {
        self.injected += 1;
        if let Some(sink) = &self.sink {
            sink.incr(Counter::FaultsInjected, 1);
        }
    }

    /// Faults injected by this connection so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Decides the fate of one outgoing frame (`line` includes the
    /// trailing newline). Draws are consumed in a fixed order, so the
    /// schedule depends only on the seed and the frame count.
    pub fn transform(&mut self, line: &[u8]) -> FaultAction {
        self.frames_out += 1;
        if self.plan.kill == Some(self.frames_out) {
            self.fault();
            return FaultAction::Kill;
        }
        if self.plan.drop > 0.0 && self.rng.gen_range(0.0..1.0) < self.plan.drop {
            self.fault();
            return FaultAction::Write(Vec::new());
        }
        let mut bytes = line.to_vec();
        if self.plan.corrupt > 0.0
            && self.rng.gen_range(0.0..1.0) < self.plan.corrupt
            && bytes.len() > 2
        {
            // A raw control byte mid-line: invalid JSON, guaranteed parse
            // error on the receiving side, line sync preserved.
            let at = self.rng.gen_range(1..bytes.len() - 1);
            bytes[at] = 0x01;
            self.fault();
        }
        if self.plan.truncate > 0.0
            && self.rng.gen_range(0.0..1.0) < self.plan.truncate
            && bytes.len() > 2
        {
            // Cut mid-line *including* the newline: the stub fuses with
            // the next frame, producing the torn-line shape the reader's
            // resynchronization exists for.
            let at = self.rng.gen_range(1..bytes.len() - 1);
            bytes.truncate(at);
            self.fault();
        }
        let delay = if self.plan.delay > 0.0 && self.rng.gen_range(0.0..1.0) < self.plan.delay {
            self.fault();
            self.plan.delay_for
        } else {
            Duration::ZERO
        };
        let mut chunks = vec![(bytes.clone(), delay)];
        if self.plan.dup > 0.0 && self.rng.gen_range(0.0..1.0) < self.plan.dup {
            self.fault();
            chunks.push((bytes, Duration::ZERO));
        }
        FaultAction::Write(chunks)
    }
}

/// XOR'd into the plan seed for disk-fault streams so journal chaos and
/// wire chaos under the same plan draw from unrelated schedules.
const DISK_STREAM_SALT: u64 = 0xD15C_FAD7_0000_0001;

/// What the injector decided to do with one journal write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskWriteFault {
    /// Write normally.
    None,
    /// Fail without writing anything (disk full).
    Enospc,
    /// Write only this many bytes, then fail (torn line on disk).
    Short(usize),
}

/// Seeded disk-fault stream over a [`FaultPlan`]'s `enospc` /
/// `short_write` / `fsync_fail` / `torn_snapshot` probabilities, consumed
/// by the journal writer at its write/sync/compact seams.
pub struct DiskFaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    injected: u64,
    sink: Option<Arc<dyn MetricsSink>>,
}

impl std::fmt::Debug for DiskFaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskFaultInjector")
            .field("plan", &self.plan)
            .field("injected", &self.injected)
            .finish_non_exhaustive()
    }
}

impl DiskFaultInjector {
    /// A disk-fault stream for the `stream`-th journal under `plan`.
    pub fn new(plan: &FaultPlan, stream: u64) -> Self {
        DiskFaultInjector {
            plan: plan.clone(),
            rng: StdRng::seed_from_u64(
                plan.seed ^ DISK_STREAM_SALT ^ (stream.wrapping_add(1)).wrapping_mul(SEED_STRIDE),
            ),
            injected: 0,
            sink: None,
        }
    }

    /// Counts injected faults into `sink`'s `faults_injected` counter.
    pub fn with_sink(mut self, sink: Arc<dyn MetricsSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    fn fault(&mut self) {
        self.injected += 1;
        if let Some(sink) = &self.sink {
            sink.incr(Counter::FaultsInjected, 1);
        }
    }

    fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.gen_range(0.0..1.0) < p
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Decides the fate of one `len`-byte journal write.
    pub fn on_write(&mut self, len: usize) -> DiskWriteFault {
        if self.roll(self.plan.enospc) {
            self.fault();
            return DiskWriteFault::Enospc;
        }
        if self.roll(self.plan.short_write) && len > 1 {
            self.fault();
            return DiskWriteFault::Short(self.rng.gen_range(1..len));
        }
        DiskWriteFault::None
    }

    /// Whether the next explicit fsync should report failure.
    pub fn on_sync(&mut self) -> bool {
        if self.roll(self.plan.fsync_fail) {
            self.fault();
            return true;
        }
        false
    }

    /// Whether the next snapshot compaction should die mid-write.
    pub fn on_snapshot(&mut self) -> bool {
        if self.roll(self.plan.torn_snapshot) {
            self.fault();
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grammar_parses() {
        let plan: FaultPlan = "seed=42,drop=0.2,delay=0.1:5ms,dup=0.1,corrupt=0.05,\
                               truncate=0.05,kill=8"
            .parse()
            .expect("valid plan");
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.drop, 0.2);
        assert_eq!(plan.delay, 0.1);
        assert_eq!(plan.delay_for, Duration::from_millis(5));
        assert_eq!(plan.dup, 0.1);
        assert_eq!(plan.corrupt, 0.05);
        assert_eq!(plan.truncate, 0.05);
        assert_eq!(plan.kill, Some(8));
    }

    #[test]
    fn empty_plan_is_the_default() {
        assert_eq!(
            "".parse::<FaultPlan>().expect("empty"),
            FaultPlan::default()
        );
    }

    #[test]
    fn bad_plans_are_rejected_with_reasons() {
        for (text, needle) in [
            ("drop", "not key=value"),
            ("drop=2.0", "outside [0, 1]"),
            ("delay=0.5", "probability:duration"),
            ("delay=0.5:fast", "not milliseconds"),
            ("kill=0", "must be ≥ 1"),
            ("jitter=1", "unknown fault plan key"),
        ] {
            let err = text.parse::<FaultPlan>().expect_err(text);
            assert!(err.contains(needle), "plan {text:?}: {err:?}");
        }
    }

    #[test]
    fn same_seed_and_index_give_the_same_fault_schedule() {
        let plan: FaultPlan = "seed=7,drop=0.3,dup=0.2,corrupt=0.2,truncate=0.2"
            .parse()
            .expect("valid");
        let line = b"{\"t\":\"snapshot\"}\n";
        let run = |index| {
            let mut injector = FaultInjector::new(&plan, index);
            (0..64)
                .map(|_| injector.transform(line))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(0), run(0));
        assert_ne!(run(0), run(1), "connections must get distinct streams");
    }

    #[test]
    fn kill_fires_at_the_scripted_frame() {
        let plan: FaultPlan = "kill=3".parse().expect("valid");
        let mut injector = FaultInjector::new(&plan, 0);
        let line = b"{\"t\":\"bye\"}\n";
        assert!(matches!(injector.transform(line), FaultAction::Write(_)));
        assert!(matches!(injector.transform(line), FaultAction::Write(_)));
        assert_eq!(injector.transform(line), FaultAction::Kill);
        assert_eq!(injector.injected(), 1);
    }

    #[test]
    fn disk_fault_grammar_parses() {
        let plan: FaultPlan =
            "seed=3,enospc=0.25,short_write=0.1,fsync_fail=0.05,torn_snapshot=0.5"
                .parse()
                .expect("valid plan");
        assert_eq!(plan.enospc, 0.25);
        assert_eq!(plan.short_write, 0.1);
        assert_eq!(plan.fsync_fail, 0.05);
        assert_eq!(plan.torn_snapshot, 0.5);
        assert!(plan.has_disk_faults());
        assert!(!FaultPlan::default().has_disk_faults());
        assert!("enospc=1.5".parse::<FaultPlan>().is_err());
    }

    #[test]
    fn disk_fault_stream_is_deterministic_and_decorrelated() {
        let plan: FaultPlan = "seed=9,enospc=0.4,short_write=0.3".parse().expect("valid");
        let run = |stream| {
            let mut injector = DiskFaultInjector::new(&plan, stream);
            (0..64).map(|_| injector.on_write(100)).collect::<Vec<_>>()
        };
        assert_eq!(run(0), run(0));
        assert_ne!(run(0), run(1), "journals must get distinct streams");
        // A clean plan never injects.
        let mut clean = DiskFaultInjector::new(&FaultPlan::default(), 0);
        for _ in 0..32 {
            assert_eq!(clean.on_write(100), DiskWriteFault::None);
            assert!(!clean.on_sync());
            assert!(!clean.on_snapshot());
        }
        assert_eq!(clean.injected(), 0);
    }

    #[test]
    fn clean_plan_passes_frames_through_untouched() {
        let mut injector = FaultInjector::new(&FaultPlan::default(), 0);
        let line = b"{\"t\":\"end\"}\n";
        assert_eq!(
            injector.transform(line),
            FaultAction::Write(vec![(line.to_vec(), Duration::ZERO)])
        );
        assert_eq!(injector.injected(), 0);
    }
}
