//! The session engine: the DPM behind one lock.
//!
//! Concurrency model: the
//! [`DesignProcessManager`] is not
//! thread-safe and must not be — the paper's `δ` is a sequential
//! transition function. [`SessionEngine::spawn`] therefore puts the DPM and
//! the session's bookkeeping behind one mutex, and every
//! [`SessionHandle`] call runs its command on the caller's thread while
//! holding it. Every concurrent history is thereby *linearized by
//! construction*: the design history the session produces is a valid
//! sequential history, replayable by
//! [`replay_history`](adpm_core::replay_history).
//!
//! Every command that changes the design — a submit, or a `negotiate` —
//! runs one pipeline:
//!
//! 1. **Execute** the operation and any negotiations it starts, with their
//!    relaxations. After each executed operation the DPM's pending
//!    notifications, and each negotiation's transcript, join one ordered
//!    list of `(designer, seq, event)`.
//! 2. **Append** every record the command executed in one journal append
//!    (one sync): all of them reach the disk or none does.
//! 3. **Deliver** the list into the designers' bounded [`Inbox`]es (see
//!    [`crate::notify`]), counted once.
//!
//! A failed append returns before step 3, so nobody learns of a command
//! that is not on disk; the session then closes.
//!
//! Lock order: the session lock comes first. Under it the session takes
//! inbox locks (to push) and, through an inbox's waker, a connection's
//! outbox lock; no code that holds an inbox or outbox lock takes a session
//! lock.

use crate::journal::{JournalError, JournalWriter};
use crate::negotiate::{negotiate, NegotiationConfig, NegotiationOutcome};
use crate::notify::{Inbox, InboxEntry};
use adpm_constraint::{ConstraintId, NetworkError};
use adpm_core::{
    DesignProcessManager, DesignerId, Event, InterestSet, Operation, OperationError,
    OperationRecord,
};
use adpm_observe::{Counter, FlightRecorder, MetricsSink, SpanKind, TraceEvent};
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default per-subscription inbox capacity.
pub const DEFAULT_INBOX_CAPACITY: usize = 256;

/// Per-designer events retained for reconnect redelivery.
const RETAINED_EVENTS: usize = 1024;

/// Per-designer remembered `(cid, outcome)` pairs for exactly-once
/// resubmission; a reconnecting client retries at most its last in-flight
/// operation, so a window this deep is effectively unbounded in practice.
const DEDUP_WINDOW: usize = 128;

/// What became of a submitted operation.
#[derive(Debug, Clone, PartialEq)]
pub enum OpOutcome {
    /// The DPM executed the operation; here is its history record.
    Executed(OperationRecord),
    /// The operation was rejected; the design state is unchanged.
    Rejected(RejectReason),
}

impl OpOutcome {
    /// The record, if the operation executed.
    pub fn record(&self) -> Option<&OperationRecord> {
        match self {
            OpOutcome::Executed(record) => Some(record),
            OpOutcome::Rejected(_) => None,
        }
    }
}

/// Why a submitted operation was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// Structural validation failed (unknown designer/problem/property/
    /// constraint id) — see
    /// [`validate_operation`](DesignProcessManager::validate_operation).
    Invalid(OperationError),
    /// The operator itself failed (e.g. a value outside `E_i`).
    Network(NetworkError),
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::Invalid(e) => write!(f, "invalid operation: {e}"),
            RejectReason::Network(e) => write!(f, "operation failed: {e}"),
        }
    }
}

/// The session is gone: it was shut down, or it closed because a command
/// panicked or a journal append failed, so the command did not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionClosed;

impl fmt::Display for SessionClosed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "collaboration session is closed")
    }
}

impl std::error::Error for SessionClosed {}

/// What a session-level conflict negotiation came to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NegotiationReport {
    /// Whether the seed constraint was actually violated when the
    /// negotiation was requested; `false` means nothing ran.
    pub seed_violated: bool,
    /// Whether an accepted relaxation was applied and cleared the seed.
    pub resolved: bool,
    /// Rounds run.
    pub rounds: u32,
    /// Proposals put to the participants.
    pub proposals: u32,
    /// Participating designers.
    pub participants: u32,
}

/// A cloneable handle for talking to a running session.
///
/// Every method runs its command on the calling thread while holding the
/// session lock, so calls from many threads are linearized.
#[derive(Clone)]
pub struct SessionHandle {
    state: Arc<Mutex<Option<SessionState>>>,
}

impl fmt::Debug for SessionHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionHandle").finish_non_exhaustive()
    }
}

impl SessionHandle {
    /// Submits an operation and waits for its outcome.
    ///
    /// # Errors
    ///
    /// [`SessionClosed`] when the session is closed, including when this
    /// submit's journal append failed and closed it: the operation is then
    /// not on disk, and no peer was told of it.
    pub fn submit(&self, operation: Operation) -> Result<OpOutcome, SessionClosed> {
        self.submit_with_cid(operation, None)
    }

    /// Submits with a client operation id: if the session has already
    /// answered this `(designer, cid)` pair, the remembered outcome is
    /// returned without executing again — the exactly-once guarantee a
    /// client resubmitting after a lost response relies on.
    ///
    /// # Errors
    ///
    /// [`SessionClosed`] when the session is closed.
    pub fn submit_with_cid(
        &self,
        operation: Operation,
        cid: Option<u64>,
    ) -> Result<OpOutcome, SessionClosed> {
        let designer = operation.designer().index() as u32;
        self.run("submit", designer, |state| state.submit(operation, cid))
    }

    /// Registers a bounded inbox receiving every event the Notification
    /// Manager routes to `designer`. `_interests` does not filter: the
    /// routing already follows the designer's viewpoint, and the argument
    /// is kept only for existing callers.
    ///
    /// # Errors
    ///
    /// [`SessionClosed`] when the session is closed.
    pub fn subscribe(
        &self,
        designer: DesignerId,
        _interests: InterestSet,
        capacity: usize,
    ) -> Result<Inbox, SessionClosed> {
        self.subscribe_from(designer, capacity, None)
            .map(|(inbox, _)| inbox)
    }

    /// Like [`subscribe`](SessionHandle::subscribe), optionally resuming:
    /// with `resume_from = Some(n)` every retained event routed to
    /// `designer` with delivery index `> n` is pre-queued into the inbox,
    /// exactly once. Also returns the highest delivery index the session
    /// has assigned for this designer so far.
    ///
    /// # Errors
    ///
    /// [`SessionClosed`] when the session is closed.
    pub fn subscribe_from(
        &self,
        designer: DesignerId,
        capacity: usize,
        resume_from: Option<u64>,
    ) -> Result<(Inbox, u64), SessionClosed> {
        self.run("subscribe", designer.index() as u32, |state| {
            Ok((state.subscribe(designer, capacity, resume_from), "ok"))
        })
    }

    /// Runs `read` against the DPM as it stands between two commands — a
    /// consistent read — and returns its result. Every other command waits
    /// while `read` runs, so it should copy out what the caller needs and
    /// do the rest after it returns.
    ///
    /// # Errors
    ///
    /// [`SessionClosed`] when the session is closed.
    pub fn read<T>(
        &self,
        read: impl FnOnce(&DesignProcessManager) -> T,
    ) -> Result<T, SessionClosed> {
        self.run("snapshot", u32::MAX, |state| Ok((read(&state.dpm), "ok")))
    }

    /// Returns a clone of the DPM frozen between two commands — a
    /// consistent read of the whole design state. Cloning the whole DPM is
    /// the costliest [`read`](SessionHandle::read); prefer a narrower one
    /// on hot paths.
    ///
    /// # Errors
    ///
    /// [`SessionClosed`] when the session is closed.
    pub fn snapshot(&self) -> Result<DesignProcessManager, SessionClosed> {
        self.read(DesignProcessManager::clone)
    }

    /// Runs a conflict negotiation for `seed` now, as if an operation had
    /// just violated it. Requires the session to have been spawned with
    /// [`SessionOptions::negotiation`]; without it the report comes back
    /// all-zero with `seed_violated: false`.
    ///
    /// # Errors
    ///
    /// [`SessionClosed`] when the session is closed.
    pub fn negotiate(&self, seed: ConstraintId) -> Result<NegotiationReport, SessionClosed> {
        self.run("negotiate", u32::MAX, |state| {
            let report = state.negotiate(seed)?;
            Ok((report, if report.resolved { "resolved" } else { "ok" }))
        })
    }

    /// Runs one command under the session lock: counts it, runs `body`, and
    /// records its `session` span and trace line before unlocking, so a
    /// caller that has its answer also finds the line in the flight
    /// recorder. A panic in `body`, or a journal append it could not make,
    /// closes the session (see [`SessionState::abandon`]) and answers
    /// [`SessionClosed`].
    fn run<T>(
        &self,
        kind: &'static str,
        designer: u32,
        body: impl FnOnce(&mut SessionState) -> Result<(T, &'static str), JournalError>,
    ) -> Result<T, SessionClosed> {
        // The lock is never held across an unwind (`body` runs inside
        // `catch_unwind`), so a poisoned lock means the bookkeeping below
        // panicked: treat the session as closed.
        let mut guard = self.state.lock().map_err(|_| SessionClosed)?;
        let state = guard.as_mut().ok_or(SessionClosed)?;
        state.seq += 1;
        let (seq, started) = (state.seq, Instant::now());
        let sink = state.dpm.metrics_sink().clone();
        sink.incr(Counter::SessionOps, 1);
        let why = match catch_unwind(AssertUnwindSafe(|| body(state))) {
            Ok(Ok((value, outcome))) => {
                record_session_event(&*sink, seq, kind, designer, outcome, started);
                return Ok(value);
            }
            Ok(Err(_)) => "a journal append failed",
            Err(_) => "a command panicked",
        };
        if let Some(state) = guard.take() {
            state.abandon(why);
        }
        Err(SessionClosed)
    }
}

struct SubscriptionEntry {
    designer: DesignerId,
    inbox: Inbox,
}

/// Per-designer delivery bookkeeping: the monotonic delivery index and the
/// bounded tail of recent events kept for reconnect redelivery.
struct EventLog {
    /// Highest delivery index assigned (0 = nothing routed yet).
    last_idx: u64,
    retained: VecDeque<InboxEntry>,
}

impl EventLog {
    fn new() -> Self {
        EventLog {
            last_idx: 0,
            retained: VecDeque::new(),
        }
    }
}

/// Per-designer exactly-once memory: recently answered `(cid, outcome)`.
struct DedupWindow {
    answered: VecDeque<(u64, OpOutcome)>,
}

impl DedupWindow {
    fn new() -> Self {
        DedupWindow {
            answered: VecDeque::new(),
        }
    }

    fn lookup(&self, cid: u64) -> Option<&OpOutcome> {
        self.answered
            .iter()
            .find(|(c, _)| *c == cid)
            .map(|(_, outcome)| outcome)
    }

    fn remember(&mut self, cid: u64, outcome: OpOutcome) {
        if self.answered.len() >= DEDUP_WINDOW {
            self.answered.pop_front();
        }
        self.answered.push_back((cid, outcome));
    }
}

/// Extras a session can be spawned with; [`Default`] is a plain in-memory
/// session, exactly what [`SessionEngine::spawn`] gives.
#[derive(Debug, Default)]
pub struct SessionOptions {
    /// Journal every executed operation through this writer (opened by the
    /// caller, possibly resumed after a [`recover`](crate::journal::recover)).
    pub journal: Option<JournalWriter>,
    /// Flight recorder to dump to stderr if a command panics — the last
    /// events before the incident, even on an untraced server. The caller
    /// normally also tees the same recorder into the DPM's sink so it
    /// actually sees the session's events.
    pub recorder: Option<Arc<FlightRecorder>>,
    /// Negotiate conflicts instead of leaving them to backtracking: after
    /// every executed operation that introduces violations, the engine
    /// runs a bounded viewpoint negotiation per new conflict and applies
    /// an accepted relaxation as a normal journaled operation. `None`
    /// disables negotiation (and `negotiate` commands report all-zero).
    pub negotiation: Option<NegotiationConfig>,
}

/// A running collaboration session: the locked session state plus a
/// [`SessionHandle`] factory.
///
/// Dropping the engine shuts the session down, so a forgotten engine still
/// closes its inboxes and syncs its journal.
#[derive(Debug)]
pub struct SessionEngine {
    handle: SessionHandle,
}

impl SessionEngine {
    /// Puts `dpm` behind a new session lock and returns the engine.
    ///
    /// The DPM is taken as-is: callers normally run
    /// [`initialize`](DesignProcessManager::initialize) first so the
    /// session starts from the propagated initial state.
    pub fn spawn(dpm: DesignProcessManager) -> Self {
        SessionEngine::spawn_with(dpm, SessionOptions::default())
    }

    /// [`spawn`](SessionEngine::spawn) with extras — an operation journal
    /// for durability and/or a flight recorder for post-incident dumps.
    pub fn spawn_with(dpm: DesignProcessManager, options: SessionOptions) -> Self {
        let designers = dpm.designers().len();
        let state = SessionState {
            dpm,
            subscriptions: Vec::new(),
            logs: (0..designers).map(|_| EventLog::new()).collect(),
            dedup: (0..designers).map(|_| DedupWindow::new()).collect(),
            journal: options.journal,
            recorder: options.recorder,
            negotiation: options.negotiation,
            seq: 0,
        };
        SessionEngine {
            handle: SessionHandle {
                state: Arc::new(Mutex::new(Some(state))),
            },
        }
    }

    /// A new handle to this session.
    pub fn handle(&self) -> SessionHandle {
        self.handle.clone()
    }

    /// Stops the session and returns the final DPM.
    ///
    /// A command already running finishes first; every later call on any
    /// handle answers [`SessionClosed`]. Every subscription inbox is
    /// closed and the journal synced.
    ///
    /// `None` when the session had already closed because a command
    /// panicked or a journal append failed: its in-memory design state is
    /// gone, and a journaled session is recovered from its journal.
    pub fn shutdown(self) -> Option<DesignProcessManager> {
        self.close()
    }

    /// Takes the state out of the lock, records the `shutdown` command and
    /// closes the session; `None` when it is already closed.
    fn close(&self) -> Option<DesignProcessManager> {
        let mut guard = self.handle.state.lock().ok()?;
        let mut state = guard.take()?;
        state.seq += 1;
        let (seq, started) = (state.seq, Instant::now());
        let sink = state.dpm.metrics_sink().clone();
        sink.incr(Counter::SessionOps, 1);
        let dpm = state.close();
        record_session_event(&*sink, seq, "shutdown", u32::MAX, "ok", started);
        Some(dpm)
    }
}

impl Drop for SessionEngine {
    fn drop(&mut self) {
        self.close();
    }
}

/// What the session lock guards: the DPM and everything the session keeps
/// beside it.
struct SessionState {
    dpm: DesignProcessManager,
    subscriptions: Vec<SubscriptionEntry>,
    /// One per designer, indexed by designer id.
    logs: Vec<EventLog>,
    /// One per designer, indexed by designer id.
    dedup: Vec<DedupWindow>,
    journal: Option<JournalWriter>,
    recorder: Option<Arc<FlightRecorder>>,
    negotiation: Option<NegotiationConfig>,
    /// Commands run so far; the `seq` of `session` trace lines.
    seq: u64,
}

/// What one design-changing command did, gathered while it runs and
/// committed when it is done: where its records begin in the DPM's
/// history, and the events it routes, in delivery order.
struct Batch {
    /// Index in [`DesignProcessManager::history`] of the command's first
    /// record.
    first_record: usize,
    /// `(designer, seq, event)`, in the order designers receive them.
    events: Vec<(DesignerId, u64, Arc<Event>)>,
}

impl SessionState {
    /// The body of a submit: the remembered outcome of a resubmitted cid,
    /// or the operation's execution, with any negotiations it starts.
    /// Returns the outcome and its trace label, or the journal error that
    /// must close the session.
    fn submit(
        &mut self,
        operation: Operation,
        cid: Option<u64>,
    ) -> Result<(OpOutcome, &'static str), JournalError> {
        let designer = operation.designer().index();
        let remembered = match (self.dedup.get(designer), cid) {
            (Some(window), Some(cid)) => window.lookup(cid).cloned(),
            _ => None,
        };
        if let Some(outcome) = remembered {
            // Exactly-once: a resubmission after a lost response gets the
            // remembered answer, not a second execution.
            return Ok((outcome, "deduplicated"));
        }
        let mut batch = self.batch();
        let outcome = self.execute(operation, &mut batch);
        // A conflict-introducing operation triggers a negotiation per new
        // violation. Relax operations never re-negotiate — the applied
        // relaxation *is* the negotiation's outcome.
        if let OpOutcome::Executed(record) = &outcome {
            if record.operation.operator().kind() != "relax" {
                for &seed in &record.new_violations {
                    self.negotiate_conflict(seed, record.sequence as u64, &mut batch);
                }
            }
        }
        self.commit(batch)?;
        let label = match &outcome {
            OpOutcome::Executed(_) => "executed",
            OpOutcome::Rejected(_) => "rejected",
        };
        if let (Some(window), Some(cid)) = (self.dedup.get_mut(designer), cid) {
            window.remember(cid, outcome.clone());
        }
        Ok((outcome, label))
    }

    /// The body of a `negotiate` command: one negotiation of `seed`,
    /// committed like a submit.
    fn negotiate(&mut self, seed: ConstraintId) -> Result<NegotiationReport, JournalError> {
        let mut batch = self.batch();
        let report = self.negotiate_conflict(seed, self.seq, &mut batch);
        self.commit(batch)?;
        Ok(report)
    }

    /// The body of a subscribe: a fresh inbox, pre-filled with the retained
    /// events after `resume_from`, and the designer's last delivery index.
    fn subscribe(
        &mut self,
        designer: DesignerId,
        capacity: usize,
        resume_from: Option<u64>,
    ) -> (Inbox, u64) {
        let inbox = Inbox::bounded(capacity);
        let log = self.logs.get(designer.index());
        let last_idx = log.map_or(0, |l| l.last_idx);
        if let (Some(after), Some(log)) = (resume_from, log) {
            let mut redelivered: u32 = 0;
            for entry in log.retained.iter().filter(|e| e.idx > after) {
                if inbox.push(entry.clone()) {
                    redelivered += 1;
                }
            }
            if redelivered > 0 {
                self.dpm
                    .metrics_sink()
                    .incr(Counter::InboxDelivered, redelivered.into());
            }
        }
        self.subscriptions.push(SubscriptionEntry {
            designer,
            inbox: inbox.clone(),
        });
        (inbox, last_idx)
    }

    /// An empty batch for a command about to change the design.
    fn batch(&self) -> Batch {
        Batch {
            first_record: self.dpm.history().len(),
            events: Vec::new(),
        }
    }

    /// Executes one operation and moves the DPM's pending notifications
    /// onto `batch`. Draining every designer's queue, even with nobody
    /// subscribed, keeps the DPM's pending queues from growing without
    /// bound over a long session.
    fn execute(&mut self, operation: Operation, batch: &mut Batch) -> OpOutcome {
        if let Err(error) = self.dpm.validate_operation(&operation) {
            return OpOutcome::Rejected(RejectReason::Invalid(error));
        }
        match self.dpm.execute(operation) {
            Ok(record) => {
                let seq = record.sequence as u64;
                for index in 0..self.dpm.designers().len() {
                    let designer = self.dpm.designers()[index];
                    let events = self.dpm.take_notifications(designer);
                    batch.events.extend(
                        events
                            .into_iter()
                            .map(|event| (designer, seq, Arc::new(event))),
                    );
                }
                OpOutcome::Executed(record)
            }
            Err(error) => OpOutcome::Rejected(RejectReason::Network(error)),
        }
    }

    /// Runs one conflict negotiation against the current design state:
    /// queues its transcript on `batch`, executes an accepted relaxation,
    /// and queues an [`Event::NegotiationClosed`] reflecting whether the
    /// seed conflict actually cleared. All-zero when the session does not
    /// negotiate or `seed` is no longer violated.
    fn negotiate_conflict(
        &mut self,
        seed: ConstraintId,
        seq: u64,
        batch: &mut Batch,
    ) -> NegotiationReport {
        let Some(config) = self.negotiation.as_ref() else {
            return NegotiationReport::default();
        };
        // An earlier negotiation in the same submission (shared MCS member)
        // may already have cleared this seed.
        if !self.dpm.network().status(seed).is_violated() {
            return NegotiationReport::default();
        }
        let started = Instant::now();
        let sink = self.dpm.metrics_sink().clone();
        let NegotiationOutcome {
            participants,
            rounds,
            proposals,
            operation,
            transcript,
            properties,
            ..
        } = negotiate(&self.dpm, seed, config);
        batch.events.extend(
            transcript
                .into_iter()
                .map(|(designer, event)| (designer, seq, Arc::new(event))),
        );
        let applied = operation.is_some_and(|operation| {
            matches!(self.execute(operation, batch), OpOutcome::Executed(_))
        });
        let resolved = applied && !self.dpm.network().status(seed).is_violated();
        let closed = Arc::new(Event::NegotiationClosed {
            constraint: seed,
            properties,
            rounds,
            resolved,
        });
        batch.events.extend(
            participants
                .iter()
                .map(|&designer| (designer, seq, Arc::clone(&closed))),
        );
        sink.incr(Counter::NegotiationRounds, rounds.into());
        sink.incr(Counter::ProposalsSent, proposals.into());
        sink.incr(
            if resolved {
                Counter::ConflictsResolved
            } else {
                Counter::ConflictsAbandoned
            },
            1,
        );
        let report = NegotiationReport {
            seed_violated: true,
            resolved,
            rounds,
            proposals,
            participants: participants.len() as u32,
        };
        let dur_us = started.elapsed().as_micros() as u64;
        sink.time(SpanKind::Negotiate, dur_us);
        if sink.is_enabled() {
            sink.record(&TraceEvent::Negotiation {
                seq,
                constraint: self.dpm.network().constraint(seed).name(),
                rounds,
                proposals,
                participants: report.participants,
                outcome: if resolved { "resolved" } else { "abandoned" },
                dur_us,
            });
        }
        report
    }

    /// Ends every design-changing command: appends all of `batch`'s
    /// records in one journal append, then delivers its events. A failed
    /// append (disk full, short write, fsync error) left none of the
    /// records on disk, and the DPM cannot undo them, so the error is
    /// returned before anyone learns of the command; the session then
    /// closes.
    fn commit(&mut self, batch: Batch) -> Result<(), JournalError> {
        let records = &self.dpm.history()[batch.first_record..];
        if records.is_empty() && batch.events.is_empty() {
            return Ok(());
        }
        if let Some(writer) = self.journal.as_mut() {
            let sink = self.dpm.metrics_sink();
            writer.append_all(records, &self.dpm).inspect_err(|error| {
                sink.incr(Counter::JournalDegradations, 1);
                eprintln!(
                    "adpm: journal append to {} failed, closing the session: {error}",
                    writer.path().display()
                );
                // A dying disk suggests the process may not reach a clean
                // shutdown either — make the telemetry recorded so far
                // durable now, or a traced server loses its final counters
                // line with it.
                sink.flush();
            })?;
        }
        self.deliver(batch.events);
        Ok(())
    }

    /// Delivers `events` in order into the subscribed inboxes, after one
    /// sweep of closed subscriptions, and counts them once. Each routed
    /// event gets its designer's next monotonic delivery index and is
    /// retained (bounded) for reconnect redelivery, so a resumed
    /// subscription sees the same indices as the original one.
    fn deliver(&mut self, events: Vec<(DesignerId, u64, Arc<Event>)>) {
        let started = Instant::now();
        let sink = self.dpm.metrics_sink().clone();
        // Subscriptions whose inbox was closed (connection gone) are dead
        // weight; collect them before delivering.
        self.subscriptions.retain(|s| !s.inbox.is_closed());
        let first_seq = events.first().map_or(0, |&(_, seq, _)| seq);
        let (mut delivered, mut dropped): (u32, u32) = (0, 0);
        for (designer, seq, event) in events {
            let idx = match self.logs.get_mut(designer.index()) {
                Some(log) => {
                    log.last_idx += 1;
                    if log.retained.len() >= RETAINED_EVENTS {
                        log.retained.pop_front();
                    }
                    log.retained.push_back(InboxEntry {
                        seq,
                        idx: log.last_idx,
                        event: Arc::clone(&event),
                    });
                    log.last_idx
                }
                None => 0,
            };
            for sub in self.subscriptions.iter().filter(|s| s.designer == designer) {
                if sub.inbox.push(InboxEntry {
                    seq,
                    idx,
                    event: Arc::clone(&event),
                }) {
                    delivered += 1;
                } else {
                    dropped += 1;
                }
            }
        }
        if delivered > 0 {
            sink.incr(Counter::InboxDelivered, delivered.into());
        }
        if dropped > 0 {
            sink.incr(Counter::InboxDropped, dropped.into());
        }
        let dur_us = started.elapsed().as_micros() as u64;
        sink.time(SpanKind::Notify, dur_us);
        if sink.is_enabled() && (delivered > 0 || dropped > 0) {
            sink.record(&TraceEvent::InboxFanout {
                seq: first_seq,
                subscribers: self.subscriptions.len() as u32,
                delivered,
                dropped,
                dur_us,
            });
        }
    }

    /// Closes every inbox and syncs the journal: an orderly shutdown.
    fn close(mut self) -> DesignProcessManager {
        for sub in &self.subscriptions {
            sub.inbox.close();
        }
        if let Some(journal) = self.journal.as_mut() {
            if let Err(error) = journal.sync() {
                eprintln!("adpm: journal sync at shutdown failed: {error}");
            }
        }
        self.dpm
    }

    /// Closes a session because `why` — a command panicked, or an
    /// operation it executed could not be journaled: its state may be half
    /// updated or ahead of the disk, so nothing more runs against it. The
    /// flight recorder's last events go to stderr and every inbox is
    /// closed; the journal keeps the lines it holds.
    fn abandon(self, why: &str) {
        if let Some(recorder) = &self.recorder {
            eprintln!(
                "adpm: session closed because {why}; flight recorder \
                 ({} of {} events retained):",
                recorder.len(),
                recorder.recorded()
            );
            for (idx, line) in recorder.dump_indexed() {
                eprintln!("adpm:   [{idx}] {line}");
            }
        }
        for sub in &self.subscriptions {
            sub.inbox.close();
        }
    }
}

fn record_session_event(
    sink: &dyn MetricsSink,
    seq: u64,
    kind: &str,
    designer: u32,
    outcome: &str,
    started: Instant,
) {
    let dur_us = started.elapsed().as_micros() as u64;
    sink.time(SpanKind::Session, dur_us);
    if sink.is_enabled() {
        sink.record(&TraceEvent::SessionCommand {
            seq,
            kind,
            designer,
            outcome,
            dur_us,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adpm_constraint::{
        expr::{cst, var},
        ConstraintNetwork, Domain, Property, PropertyId, Relation, Value,
    };
    use adpm_core::{DpmConfig, ProblemId};

    /// Two designers share the receiver power budget `P_f + P_s <= 200`.
    fn session_fixture() -> (DesignProcessManager, PropertyId, PropertyId) {
        let mut net = ConstraintNetwork::new();
        let pf = net
            .add_property(Property::new("P-front", "rx", Domain::interval(0.0, 300.0)))
            .unwrap();
        let ps = net
            .add_property(Property::new("P-ser", "rx", Domain::interval(0.0, 300.0)))
            .unwrap();
        let budget = net
            .add_constraint("power", var(pf) + var(ps), Relation::Le, cst(200.0))
            .unwrap();
        let mut dpm = DesignProcessManager::new(net, DpmConfig::adpm());
        let d0 = dpm.add_designer();
        let d1 = dpm.add_designer();
        let top = dpm.problems_mut().add_root("receiver");
        let fe = dpm.problems_mut().decompose(top, "frontend");
        let de = dpm.problems_mut().decompose(top, "deser");
        *dpm.problems_mut().problem_mut(top) = dpm
            .problems()
            .problem(top)
            .clone()
            .with_constraints([budget]);
        *dpm.problems_mut().problem_mut(fe) = dpm
            .problems()
            .problem(fe)
            .clone()
            .with_outputs([pf])
            .with_assignee(d0);
        *dpm.problems_mut().problem_mut(de) = dpm
            .problems()
            .problem(de)
            .clone()
            .with_outputs([ps])
            .with_assignee(d1);
        dpm.initialize();
        (dpm, pf, ps)
    }

    fn frontend_problem(dpm: &DesignProcessManager) -> ProblemId {
        let top = dpm.problems().root().unwrap();
        dpm.problems().problem(top).children()[0]
    }

    #[test]
    fn submit_executes_and_snapshot_sees_the_result() {
        let (dpm, pf, _) = session_fixture();
        let d0 = dpm.designers()[0];
        let fe = frontend_problem(&dpm);
        let engine = SessionEngine::spawn(dpm);
        let handle = engine.handle();
        let outcome = handle
            .submit(Operation::assign(d0, fe, pf, Value::number(150.0)))
            .expect("session alive");
        let record = outcome.record().expect("executed").clone();
        assert_eq!(record.sequence, 1);
        let snapshot = handle.snapshot().expect("session alive");
        assert_eq!(snapshot.history().len(), 1);
        assert!(snapshot.network().is_bound(pf));
        let final_dpm = engine.shutdown().expect("session open");
        assert_eq!(final_dpm.history().len(), 1);
    }

    #[test]
    fn invalid_and_infeasible_operations_are_rejected_as_data() {
        let (dpm, pf, _) = session_fixture();
        let d0 = dpm.designers()[0];
        let fe = frontend_problem(&dpm);
        let engine = SessionEngine::spawn(dpm);
        let handle = engine.handle();
        // Unknown designer id: typed validation rejection, no panic.
        let ghost = DesignerId::new(42);
        match handle
            .submit(Operation::assign(ghost, fe, pf, Value::number(1.0)))
            .expect("session alive")
        {
            OpOutcome::Rejected(RejectReason::Invalid(OperationError::UnknownDesigner(d))) => {
                assert_eq!(d, ghost)
            }
            other => panic!("expected invalid-designer rejection, got {other:?}"),
        }
        // Value outside E_i: NetworkError rejection.
        match handle
            .submit(Operation::assign(d0, fe, pf, Value::number(1e9)))
            .expect("session alive")
        {
            OpOutcome::Rejected(RejectReason::Network(_)) => {}
            other => panic!("expected network rejection, got {other:?}"),
        }
        // The session is still healthy afterwards.
        assert!(handle
            .submit(Operation::assign(d0, fe, pf, Value::number(150.0)))
            .expect("session alive")
            .record()
            .is_some());
        let final_dpm = engine.shutdown().expect("session open");
        assert_eq!(final_dpm.history().len(), 1, "rejections leave no record");
    }

    #[test]
    fn subscriber_receives_interest_filtered_events() {
        let (dpm, pf, ps) = session_fixture();
        let d0 = dpm.designers()[0];
        let d1 = dpm.designers()[1];
        let fe = frontend_problem(&dpm);
        let interests = InterestSet::for_designer(&dpm, d1);
        let engine = SessionEngine::spawn(dpm);
        let handle = engine.handle();
        let inbox = handle
            .subscribe(d1, interests, DEFAULT_INBOX_CAPACITY)
            .expect("session alive");
        // d0 binding pf narrows ps's feasible subspace -> d1 is notified.
        handle
            .submit(Operation::assign(d0, fe, pf, Value::number(150.0)))
            .expect("session alive");
        let entries = inbox.drain();
        assert!(
            entries.iter().any(|e| matches!(
                *e.event,
                Event::FeasibleReduced { property, .. } if property == ps
            )),
            "expected a FeasibleReduced for ps, got {entries:?}"
        );
        assert!(entries.iter().all(|e| e.seq == 1));
        engine.shutdown();
        assert!(inbox.is_closed(), "shutdown closes subscriptions");
    }

    use adpm_core::Event;

    #[test]
    fn shutdown_rejects_queued_submissions_deterministically() {
        let (dpm, pf, _) = session_fixture();
        let d0 = dpm.designers()[0];
        let fe = frontend_problem(&dpm);
        let engine = SessionEngine::spawn(dpm);
        let handle = engine.handle();
        // Submissions racing the shutdown either run whole before it takes
        // the state or come back SessionClosed — never half-executed.
        let final_dpm = {
            let handle2 = handle.clone();
            let racer = std::thread::spawn(move || {
                let mut outcomes = Vec::new();
                for i in 0..32 {
                    let op = Operation::assign(d0, fe, pf, Value::number(100.0 + i as f64));
                    match handle2.submit(op) {
                        Ok(outcome) => outcomes.push(outcome),
                        Err(SessionClosed) => break,
                    }
                }
                outcomes
            });
            let final_dpm = engine.shutdown().expect("session open");
            let outcomes = racer.join().expect("racer panicked");
            for outcome in &outcomes {
                match outcome {
                    OpOutcome::Executed(record) => {
                        // Raced ahead of the shutdown: must be recorded.
                        assert!(record.sequence <= final_dpm.history().len());
                    }
                    other => panic!("unexpected outcome {other:?}"),
                }
            }
            assert_eq!(outcomes.len(), final_dpm.history().len());
            final_dpm
        };
        // The history contains exactly the executed operations.
        assert!(final_dpm.history().len() <= 32);
    }

    #[test]
    fn a_panicking_read_closes_the_session_for_every_handle() {
        let (dpm, pf, _) = session_fixture();
        let d0 = dpm.designers()[0];
        let d1 = dpm.designers()[1];
        let fe = frontend_problem(&dpm);
        let engine = SessionEngine::spawn(dpm);
        let (handle, other) = (engine.handle(), engine.handle());
        let (inbox, _) = other.subscribe_from(d1, 8, None).expect("session alive");
        let answer = handle.read(|_| -> u32 { panic!("a read that panics") });
        assert_eq!(answer, Err(SessionClosed));
        // Every handle, on any thread, now answers at once instead of
        // blocking on the lock or running against half-updated state.
        let racer = std::thread::spawn(move || {
            other.submit(Operation::assign(d0, fe, pf, Value::number(150.0)))
        });
        assert_eq!(racer.join().expect("no unwind"), Err(SessionClosed));
        assert!(handle.snapshot().is_err());
        assert!(handle.negotiate(ConstraintId::new(0)).is_err());
        assert!(inbox.is_closed(), "the panic closes subscriptions");
        // Dropping the engine of a closed session does not panic.
        drop(engine);
    }

    #[test]
    fn handles_error_after_shutdown() {
        let (dpm, pf, _) = session_fixture();
        let d0 = dpm.designers()[0];
        let fe = frontend_problem(&dpm);
        let engine = SessionEngine::spawn(dpm);
        let handle = engine.handle();
        engine.shutdown();
        assert_eq!(
            handle.submit(Operation::assign(d0, fe, pf, Value::number(1.0))),
            Err(SessionClosed)
        );
        assert!(handle.snapshot().is_err());
        assert!(handle.subscribe_from(d0, 8, None).is_err());
    }

    #[test]
    fn drop_joins_the_session_thread() {
        let (dpm, _, _) = session_fixture();
        let engine = SessionEngine::spawn(dpm);
        let handle = engine.handle();
        drop(engine);
        // The session is closed: the handle errors instead of hanging.
        assert!(handle.snapshot().is_err());
    }

    /// A writer whose bytes stay readable after the sink is gone.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Drives one submit into a failing journal. The journal at `path`
    /// first gets one acknowledged operation outside any session; then
    /// `failing` opens the writer the session journals through, and a
    /// subscribed peer watches a submit that the writer cannot persist.
    /// Asserts fail-stop: the submit is not executed and the session is
    /// closed, the journal keeps its pre-submit length, the trace sink
    /// was flushed, no event reached the peer, and recovery yields
    /// exactly the acknowledged operation.
    fn assert_fail_stop(
        path: &std::path::Path,
        failing: impl FnOnce(&DesignProcessManager) -> JournalWriter,
    ) {
        use crate::journal::{recover, JournalConfig};
        use adpm_core::state_fingerprint;
        use adpm_observe::JsonlSink;

        let (mut dpm, pf, ps) = session_fixture();
        let buf = SharedBuf::default();
        dpm.set_sink(Arc::new(JsonlSink::new(Box::new(buf.clone()))));
        let (d0, d1) = (dpm.designers()[0], dpm.designers()[1]);
        let fe = frontend_problem(&dpm);
        let top = dpm.problems().root().unwrap();
        let de = dpm.problems().problem(top).children()[1];
        std::fs::remove_file(path).ok();
        let mut writer = JournalWriter::open(JournalConfig::new(path), &dpm, None).unwrap();
        let record = dpm
            .execute(Operation::assign(d1, de, ps, Value::number(50.0)))
            .expect("executes");
        writer.append(&record, &dpm).expect("fault-free append");
        drop(writer);
        let acknowledged = state_fingerprint(&dpm);
        let writer = failing(&dpm);
        let before = std::fs::metadata(path).unwrap().len();

        let engine = SessionEngine::spawn_with(
            dpm,
            SessionOptions {
                journal: Some(writer),
                ..SessionOptions::default()
            },
        );
        let handle = engine.handle();
        let (inbox, _) = handle.subscribe_from(d1, 64, None).expect("session alive");
        let assign = Operation::assign(d0, fe, pf, Value::number(100.0));
        assert_eq!(handle.submit(assign.clone()), Err(SessionClosed));
        assert_eq!(handle.submit(assign), Err(SessionClosed), "closed for good");
        assert_eq!(std::fs::metadata(path).unwrap().len(), before);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(
            text.lines().any(|l| l.contains("\"t\":\"counters\"")),
            "the failure did not flush the sink; trace so far: {text}"
        );
        assert!(inbox.is_closed(), "closing the session closes inboxes");
        assert!(inbox.drain().is_empty(), "a peer learned of the operation");
        assert!(engine.shutdown().is_none(), "the session is already closed");

        let (mut recovered, _, _) = session_fixture();
        let report = recover(path, &mut recovered).expect("recover");
        assert_eq!(report.ops, 1);
        assert_eq!(state_fingerprint(&recovered), acknowledged);
    }

    /// A write that fails closes the session, and the failure path flushes
    /// the trace sink, or a traced server that hits a journal write
    /// failure loses its final counters line if it later dies uncleanly.
    #[test]
    fn journal_degradation_flushes_the_trace_sink() {
        use crate::journal::JournalConfig;

        let dir = std::env::temp_dir().join(format!("adpm-session-degrade-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        // A journal wrapped around a read-only handle: every write fails.
        assert_fail_stop(&path, |dpm| {
            let file = std::fs::File::open(&path).unwrap();
            JournalWriter::from_file_for_tests(file, JournalConfig::new(&path), dpm)
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The default journal syncs every operation before it is answered:
    /// when the sync fails, the operation is not acknowledged, and the
    /// written line is truncated away again.
    #[test]
    fn default_journal_config_syncs_every_append() {
        use crate::fault::{DiskFaultInjector, FaultPlan};
        use crate::journal::JournalConfig;

        let plan: FaultPlan = "fsync_fail=1.0".parse().expect("plan");
        let dir = std::env::temp_dir().join(format!("adpm-session-fsync-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.jsonl");
        assert_fail_stop(&path, |dpm| {
            let resume = std::fs::metadata(&path).unwrap().len();
            JournalWriter::open(JournalConfig::new(&path), dpm, Some(resume))
                .expect("open journal")
                .with_disk_faults(DiskFaultInjector::new(&plan, 0))
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn conflict_triggers_negotiation_and_applies_the_relaxation() {
        use adpm_observe::InMemorySink;
        use std::sync::Arc;
        let (mut dpm, pf, ps) = session_fixture();
        let sink = Arc::new(InMemorySink::new());
        dpm.set_sink(sink.clone());
        let d0 = dpm.designers()[0];
        let d1 = dpm.designers()[1];
        let fe = frontend_problem(&dpm);
        let top = dpm.problems().root().unwrap();
        let de = dpm.problems().problem(top).children()[1];
        let interests = InterestSet::for_designer(&dpm, d1);
        let engine = SessionEngine::spawn_with(
            dpm,
            SessionOptions {
                negotiation: Some(NegotiationConfig::default()),
                ..SessionOptions::default()
            },
        );
        let handle = engine.handle();
        let inbox = handle
            .subscribe(d1, interests, DEFAULT_INBOX_CAPACITY)
            .expect("session alive");
        handle
            .submit(Operation::assign(d0, fe, pf, Value::number(150.0)))
            .expect("session alive");
        // ADPM narrows ps's feasible range to [0, 50]; binding inside E_i
        // cannot violate, so force the conflict through the other side:
        // d1's assign of 150 would be rejected (outside E_i), so instead
        // re-assign pf higher after ps is bound.
        handle
            .submit(Operation::assign(d1, de, ps, Value::number(50.0)))
            .expect("session alive");
        let outcome = handle
            .submit(Operation::assign(d0, fe, pf, Value::number(250.0)))
            .expect("session alive");
        let record = outcome.record().expect("executed").clone();
        assert!(!record.new_violations.is_empty(), "conflict introduced");
        // The negotiation ran, resolved the conflict, and applied the
        // relaxation as a journaled operation (visible in the history).
        assert_eq!(sink.get(Counter::ConflictsResolved), 1);
        assert!(sink.get(Counter::NegotiationRounds) >= 1);
        assert!(sink.get(Counter::ProposalsSent) >= 1);
        let snapshot = handle.snapshot().expect("session alive");
        assert!(
            snapshot.known_violations().is_empty(),
            "negotiated relaxation cleared the conflict"
        );
        assert!(snapshot
            .history()
            .iter()
            .any(|r| r.operation.operator().kind() == "relax"));
        // d1 saw every event in order: the trigger's violation (seq 3),
        // the negotiation transcript, the relaxation's own event (seq 4),
        // and the close, which carries the trigger's seq.
        let seen: Vec<(String, u64, u64)> = inbox
            .drain()
            .iter()
            .map(|e| {
                let debug = format!("{:?}", e.event);
                let kind = debug.split([' ', '{']).next().unwrap_or_default();
                (kind.to_owned(), e.seq, e.idx)
            })
            .collect();
        let expected = [
            ("FeasibleReduced", 1, 1),
            ("ProblemSolved", 2, 2),
            ("ViolationDetected", 3, 3),
            ("NegotiationProposed", 3, 4),
            ("NegotiationAnswered", 3, 5),
            ("ViolationResolved", 4, 6),
            ("NegotiationClosed", 3, 7),
        ]
        .map(|(kind, seq, idx)| (kind.to_owned(), seq, idx));
        assert_eq!(seen, expected);
        engine.shutdown();
    }

    #[test]
    fn negotiate_command_reports_zero_when_disabled() {
        let (dpm, _, _) = session_fixture();
        let budget = dpm.network().constraint_ids().next().unwrap();
        let engine = SessionEngine::spawn(dpm);
        let handle = engine.handle();
        let report = handle.negotiate(budget).expect("session alive");
        assert!(!report.seed_violated);
        assert_eq!(report.rounds, 0);
        engine.shutdown();
    }

    #[test]
    fn session_counters_flow_through_the_dpm_sink() {
        use adpm_observe::InMemorySink;
        use std::sync::Arc;
        let (mut dpm, pf, _) = session_fixture();
        let sink = Arc::new(InMemorySink::new());
        dpm.set_sink(sink.clone());
        let d0 = dpm.designers()[0];
        let d1 = dpm.designers()[1];
        let fe = frontend_problem(&dpm);
        let engine = SessionEngine::spawn(dpm);
        let handle = engine.handle();
        let (inbox, _) = handle.subscribe_from(d1, 1, None).expect("session alive");
        handle
            .submit(Operation::assign(d0, fe, pf, Value::number(150.0)))
            .expect("session alive");
        handle.snapshot().expect("session alive");
        engine.shutdown();
        // subscribe + submit + snapshot + shutdown.
        assert_eq!(sink.get(Counter::SessionOps), 4);
        assert!(sink.get(Counter::InboxDelivered) >= 1);
        // Capacity 1: the pf bind produces several events for d1 (its own
        // FeasibleReduced + the broadcast), so overflow is accounted.
        assert_eq!(
            sink.get(Counter::InboxDelivered) as usize,
            inbox.drain().len()
        );
        assert_eq!(sink.get(Counter::InboxDropped), inbox.dropped());
        assert!(sink.histogram(SpanKind::Session).count() >= 4);
        assert!(sink.histogram(SpanKind::Notify).count() >= 1);
    }
}
