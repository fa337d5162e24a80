//! Nested replay: an executed operation stream, in `seq` order, replayed one
//! layer down at a time, timing every call into the layer's public API.
//!
//! - session: [`SessionHandle::submit_with_cid`] and
//!   [`SessionHandle::snapshot`] on an in-process [`SessionEngine`];
//! - core: [`DesignProcessManager::execute`] on a fresh DPM, with
//!   [`JournalWriter::append`] and [`JournalWriter::sync`] timed between
//!   operations;
//! - constraint: `ConstraintNetwork::bind`/`unbind`, then the configured
//!   propagation, then [`HeuristicReport::mine`];
//! - wire: [`Frame::parse_line`] and [`Frame::to_line`] on captured lines.
//!
//! Each pass links its spans to the spans of the layer above (same `seq`),
//! so a layer's self time is its span minus its children's.

use crate::trace::{CountingSink, Tracer};
use adpm_collab::{
    Frame, InterestSet, JournalConfig, JournalWriter, OpOutcome, SessionEngine, SessionOptions,
    DEFAULT_INBOX_CAPACITY,
};
use adpm_constraint::{
    propagate_incremental_profiled, propagate_observed, ConstraintNetwork, HeuristicReport,
    PropagationKind,
};
use adpm_core::{DesignProcessManager, DesignerId, DpmConfig, Operation, Operator};
use adpm_observe::{Counter, MonotonicClock};
use std::sync::Arc;
use std::time::Instant;

/// One executed operation to replay.
#[derive(Debug, Clone)]
pub struct ReplayOp {
    /// History sequence number it executed as.
    pub seq: u64,
    /// Client operation id it was submitted with (0 = none).
    pub cid: u64,
    /// The operation, by id.
    pub operation: Operation,
}

/// A state read issued after the operation with sequence `after_seq`.
#[derive(Debug, Clone, Copy)]
pub struct ReadPoint {
    /// Sequence number of the last operation executed before the read.
    pub after_seq: u64,
    /// Span of the read one layer up, if any.
    pub parent: Option<usize>,
}

/// Replays `ops` through an in-process session engine spawned on a clone of
/// `fresh` with `journal` (if any), subscribing `subscribers` the way the
/// server does. Returns the `session.submit` span of each operation.
///
/// # Errors
///
/// A message when an operation does not execute as the same `seq`.
pub fn session_pass(
    fresh: &DesignProcessManager,
    ops: &[ReplayOp],
    parents: &[Option<usize>],
    reads: &[ReadPoint],
    journal: Option<JournalConfig>,
    subscribers: &[DesignerId],
    tracer: &mut Tracer,
) -> Result<Vec<usize>, String> {
    let writer = match journal {
        Some(config) => Some(
            JournalWriter::open(config, fresh, None)
                .map_err(|e| format!("session replay journal: {e}"))?,
        ),
        None => None,
    };
    let engine = SessionEngine::spawn_with(
        fresh.clone(),
        SessionOptions {
            journal: writer,
            ..SessionOptions::default()
        },
    );
    let handle = engine.handle();
    let state = handle.snapshot().map_err(|e| e.to_string())?;
    let mut inboxes = Vec::new();
    for designer in subscribers {
        let interests = InterestSet::for_designer(&state, *designer);
        inboxes.push(
            handle
                .subscribe(*designer, interests, DEFAULT_INBOX_CAPACITY)
                .map_err(|e| e.to_string())?,
        );
    }
    let mut pending_reads = reads.iter().peekable();
    let mut spans = Vec::with_capacity(ops.len());
    let mut replay_reads = |after: u64, tracer: &mut Tracer| -> Result<(), String> {
        while let Some(read) = pending_reads.next_if(|r| r.after_seq <= after) {
            let (snapshot, _) =
                tracer.time("session.snapshot", read.parent, after, || handle.snapshot());
            snapshot.map_err(|e| e.to_string())?;
        }
        Ok(())
    };
    replay_reads(0, tracer)?;
    for (op, parent) in ops.iter().zip(parents) {
        let (outcome, span) = tracer.time("session.submit", *parent, op.seq, || {
            handle.submit_with_cid(op.operation.clone(), Some(op.cid))
        });
        match outcome.map_err(|e| e.to_string())? {
            OpOutcome::Executed(record) if record.sequence as u64 == op.seq => {}
            other => return Err(format!("session replay of seq {}: {other:?}", op.seq)),
        }
        spans.push(span);
        for inbox in &inboxes {
            inbox.drain();
        }
        replay_reads(op.seq, tracer)?;
    }
    engine.shutdown();
    Ok(spans)
}

/// Appends each replayed operation to a journal with explicit syncs, so
/// append and fsync are timed apart.
#[derive(Debug)]
pub struct JournalProbe {
    writer: JournalWriter,
    /// `true` for the spans of appends that ran a compaction.
    pub compacting: Vec<bool>,
}

impl JournalProbe {
    /// Opens a journal at `config.path` that never syncs on its own.
    ///
    /// # Errors
    ///
    /// A message when the journal cannot be opened.
    pub fn open(mut config: JournalConfig, fresh: &DesignProcessManager) -> Result<Self, String> {
        config.fsync = adpm_collab::FsyncPolicy::Never;
        let writer =
            JournalWriter::open(config, fresh, None).map_err(|e| format!("journal probe: {e}"))?;
        Ok(JournalProbe {
            writer,
            compacting: Vec::new(),
        })
    }
}

/// What the core pass produced.
#[derive(Debug)]
pub struct CorePass {
    /// The DPM after the whole stream.
    pub dpm: DesignProcessManager,
    /// The `core.execute` span of each operation.
    pub spans: Vec<usize>,
    /// Counters the DPM reported while replaying.
    pub counts: Arc<CountingSink>,
}

/// Replays `ops` through [`DesignProcessManager::execute`] on a clone of
/// `fresh`, draining every designer's notifications after each operation
/// (untimed) and, with a probe, journaling it.
///
/// # Errors
///
/// A message when an operation fails or executes as a different `seq`.
pub fn core_pass(
    fresh: &DesignProcessManager,
    ops: &[ReplayOp],
    parents: &[Option<usize>],
    mut journal: Option<&mut JournalProbe>,
    tracer: &mut Tracer,
) -> Result<CorePass, String> {
    let counts = Arc::new(CountingSink::default());
    let mut dpm = fresh.clone();
    dpm.set_sink(counts.clone());
    let designers = dpm.designers().to_vec();
    let mut spans = Vec::with_capacity(ops.len());
    for (op, parent) in ops.iter().zip(parents) {
        let (result, span) = tracer.time("core.execute", *parent, op.seq, || {
            dpm.execute(op.operation.clone())
        });
        let record = result.map_err(|e| format!("core replay of seq {}: {e}", op.seq))?;
        if record.sequence as u64 != op.seq {
            return Err(format!(
                "core replay: seq {} executed as {}",
                op.seq, record.sequence
            ));
        }
        for designer in &designers {
            dpm.take_notifications(*designer);
        }
        if let Some(probe) = journal.as_deref_mut() {
            let before = counts.get(Counter::JournalCompactions);
            let (appended, _) = tracer.time("journal.append", None, op.seq, || {
                probe.writer.append(&record, &dpm)
            });
            appended.map_err(|e| format!("journal append: {e}"))?;
            probe
                .compacting
                .push(counts.get(Counter::JournalCompactions) > before);
            let (synced, _) = tracer.time("journal.sync", None, op.seq, || probe.writer.sync());
            synced.map_err(|e| format!("journal sync: {e}"))?;
        }
        spans.push(span);
    }
    Ok(CorePass { dpm, spans, counts })
}

/// Counts the constraint pass measured where the work happens.
#[derive(Debug, Default, Clone, Copy)]
pub struct ConstraintCounts {
    /// Operations replayed.
    pub ops: u64,
    /// Constraint evaluations.
    pub evaluations: u64,
    /// Propagation waves.
    pub waves: u64,
    /// Narrowing revisions.
    pub narrowings: u64,
}

/// Replays the operators of `ops` on a clone of `fresh`'s network: bind or
/// unbind, then propagation as `config` selects, then heuristic mining,
/// each timed. Returns the final network and the counts.
///
/// # Errors
///
/// A message when a bind fails.
pub fn constraint_pass(
    fresh: &DesignProcessManager,
    config: &DpmConfig,
    ops: &[ReplayOp],
    parents: &[Option<usize>],
    tracer: &mut Tracer,
) -> Result<(ConstraintNetwork, ConstraintCounts), String> {
    let mut net = fresh.network().clone();
    let sink = CountingSink::default();
    let clock = MonotonicClock::new();
    for (op, parent) in ops.iter().zip(parents) {
        let dirty = match op.operation.operator() {
            Operator::Assign { property, value } => {
                net.bind(*property, value.clone())
                    .map_err(|e| e.to_string())?;
                vec![*property]
            }
            Operator::Unbind { property } => {
                net.unbind(*property).map_err(|e| e.to_string())?;
                vec![*property]
            }
            Operator::Relax {
                constraint,
                relaxation,
            } => {
                net.relax_constraint(*constraint, *relaxation)
                    .map_err(|e| e.to_string())?;
                Vec::new()
            }
            Operator::Verify { .. } | Operator::Decompose { .. } => Vec::new(),
        };
        tracer.time("constraint.propagate", *parent, op.seq, || {
            match config.propagation_kind {
                PropagationKind::Full => propagate_observed(&mut net, &config.propagation, &sink),
                PropagationKind::Incremental => propagate_incremental_profiled(
                    &mut net,
                    &dirty,
                    &config.propagation,
                    &sink,
                    &clock,
                ),
            }
        });
        tracer.time("constraint.mine", *parent, op.seq, || {
            std::hint::black_box(HeuristicReport::mine(&net))
        });
    }
    let counts = ConstraintCounts {
        ops: ops.len() as u64,
        evaluations: sink.get(Counter::Evaluations),
        waves: sink.get(Counter::Waves),
        narrowings: sink.get(Counter::Narrowings),
    };
    Ok((net, counts))
}

/// Whether two networks agree on every binding, feasible subspace and
/// constraint status — the constraint replay's check against the DPM.
pub fn same_network_state(a: &ConstraintNetwork, b: &ConstraintNetwork) -> bool {
    a.property_ids()
        .all(|p| a.assignment(p) == b.assignment(p) && a.feasible(p) == b.feasible(p))
        && a.constraint_ids().all(|c| a.status(c) == b.status(c))
}

/// Lines of a capture whose decode and encode are timed; the rest are
/// still checked, untimed.
const WIRE_TIMED_LINES: usize = 50_000;

/// Decodes and re-encodes every captured wire line, timing the first
/// `WIRE_TIMED_LINES`. Returns how many lines did not re-encode to
/// themselves.
///
/// # Errors
///
/// A message when a captured line does not parse.
pub fn wire_pass(lines: &[String], tracer: &mut Tracer) -> Result<u64, String> {
    let mut mismatches = 0;
    for (i, line) in lines.iter().enumerate() {
        let timed = i < WIRE_TIMED_LINES;
        let frame = if timed {
            tracer
                .time("wire.decode", None, 0, || Frame::parse_line(line))
                .0
        } else {
            Frame::parse_line(line)
        };
        let frame = frame.map_err(|e| format!("captured line does not parse: {}", e.message))?;
        let encoded = if timed {
            tracer.time("wire.encode", None, 0, || frame.to_line()).0
        } else {
            frame.to_line()
        };
        if encoded != *line {
            mismatches += 1;
        }
    }
    Ok(mismatches)
}

/// Times `reps` runs of `call` and returns the median, in µs. Each result
/// is dropped after its timing ends.
pub fn median_us<T>(reps: usize, mut call: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            let out = std::hint::black_box(call());
            let us = start.elapsed().as_secs_f64() * 1e6;
            drop(out);
            us
        })
        .collect();
    crate::stats::median(&samples).unwrap_or(f64::NAN)
}
