//! Counters and structured trace events.

use crate::json::{field_bool, field_str, field_u64};

/// The closed set of aggregate counters the instrumented hot paths bump.
///
/// Counter semantics (the full glossary lives in `docs/OBSERVABILITY.md`):
///
/// | counter | incremented when |
/// |---|---|
/// | `Operations` | a design operation is executed by the DPM |
/// | `Evaluations` | a constraint evaluation runs (HC4 revision or verification) |
/// | `Propagations` | one propagation run (worklist to fixpoint) completes |
/// | `Waves` | one BFS level of the propagation worklist drains |
/// | `Narrowings` | a revision narrows a property's feasible subspace (one event per property × revision) |
/// | `Conflicts` | propagation finds a constraint unsatisfiable |
/// | `SeedConstraints` | a constraint is seeded onto the initial propagation worklist |
/// | `Violations` | an operation newly discovers a violated constraint |
/// | `Spins` | an executed operation is a design spin |
/// | `Notifications` | an event is routed to a designer by the NM |
/// | `TicksExecuted` | a simulation tick executes an operation |
/// | `TicksStalled` | a simulation tick finds no designer with a proposal |
/// | `SessionOps` | a collaboration session runs a command |
/// | `InboxDelivered` | a routed event lands in a subscriber's inbox |
/// | `InboxDropped` | a full inbox drops an incoming event (overflow accounting) |
/// | `WireBytesSkipped` | the wire reader discards bytes resynchronizing past an oversized line |
/// | `Reconnects` | a resilient client re-establishes a lost collaboration connection |
/// | `HeartbeatsMissed` | a server connection passes its idle timeout without any client frame |
/// | `JournalBytes` | bytes appended to a session's operation journal |
/// | `RecoveryOps` | an operation is re-executed from a journal during crash recovery |
/// | `FaultsInjected` | the deterministic fault layer perturbs (drops, delays, corrupts...) a frame |
/// | `SessionsActive` | a named session is added to a collaboration server's registry |
/// | `SessionsCreated` | a client's `create` frame dynamically creates a new named session |
/// | `AttachRejected` | a session `create`/`attach` request is rejected (unknown name, creation disabled...) |
/// | `AcceptErrors` | the server's accept loop hits an `accept(2)` error and backs off |
/// | `NegotiationRounds` | the negotiation engine completes one propose/answer round |
/// | `ProposalsSent` | a relaxation proposal is put to the conflict's participants |
/// | `ConflictsResolved` | a negotiation ends with an accepted, applied relaxation |
/// | `ConflictsAbandoned` | a negotiation exhausts its round budget without agreement |
/// | `JournalCompactions` | the journal writer replaces the journal with a snapshot + empty tail |
/// | `SnapshotBytes` | bytes written into `jsnap`/`jsop` snapshot sections during compaction |
/// | `RecoveryReplayedOps` | a post-snapshot tail operation is replayed during recovery (the bounded part) |
/// | `JournalDegradations` | a journal append or fsync fails, is rolled back, and closes the session (at most one per session) |
/// | `OverloadSheds` | the server sheds work at a resource limit (admission reject, in-flight bound, slow-client eviction) |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Executed design operations.
    Operations,
    /// Constraint evaluations (the paper's tool-run proxy).
    Evaluations,
    /// Completed propagation runs.
    Propagations,
    /// Propagation worklist waves (BFS levels).
    Waves,
    /// Narrowing events (property × revision) during propagation.
    Narrowings,
    /// Constraints found unsatisfiable during propagation.
    Conflicts,
    /// Constraints seeded onto the initial propagation worklist (all of
    /// them for a full run, only the dirty-adjacent ones incrementally).
    SeedConstraints,
    /// Newly discovered constraint violations.
    Violations,
    /// Design spins (cross-subsystem rework operations).
    Spins,
    /// Events routed to designers by the Notification Manager.
    Notifications,
    /// Simulation ticks that executed an operation.
    TicksExecuted,
    /// Simulation ticks that stalled (no proposal).
    TicksStalled,
    /// Commands a collaboration session ran.
    SessionOps,
    /// Events delivered into subscriber inboxes by the notification router.
    InboxDelivered,
    /// Events dropped by full subscriber inboxes (overflow accounting).
    InboxDropped,
    /// Bytes the wire reader discarded while resynchronizing past an
    /// oversized line (never silent: surfaced as a warning frame too).
    WireBytesSkipped,
    /// Connections re-established by a resilient client after a loss.
    Reconnects,
    /// Server-side idle timeouts: a connection produced no frame (not even
    /// a heartbeat reply) for the whole idle window and was disconnected.
    HeartbeatsMissed,
    /// Bytes appended to a session's operation journal.
    JournalBytes,
    /// Operations re-executed from a journal during crash recovery.
    RecoveryOps,
    /// Frames perturbed (dropped, delayed, duplicated, corrupted,
    /// truncated, or killed) by the deterministic fault-injection layer.
    FaultsInjected,
    /// Named sessions added to a collaboration server's registry (the
    /// default session, `--sessions N` pre-creates, and dynamic creates).
    SessionsActive,
    /// Named sessions created dynamically by a client's `create` frame.
    SessionsCreated,
    /// Session `create`/`attach` requests the registry rejected (unknown
    /// name, dynamic creation disabled, invalid name, or factory failure).
    AttachRejected,
    /// `accept(2)` errors hit by the server's accept loop (each one also
    /// triggers a short backoff sleep so persistent errors cannot busy-spin).
    AcceptErrors,
    /// Completed negotiation rounds (one ranked proposal put to the
    /// conflict's participants and answered by each of them).
    NegotiationRounds,
    /// Relaxation proposals sent to participants by the negotiation engine.
    ProposalsSent,
    /// Conflicts closed by an accepted relaxation (no backtracking needed).
    ConflictsResolved,
    /// Conflicts the negotiation engine gave up on (round budget exhausted
    /// or no viable proposal), leaving resolution to ordinary backtracking.
    ConflictsAbandoned,
    /// Journal compactions: the journal was atomically replaced by a
    /// snapshot (state program) plus an empty tail.
    JournalCompactions,
    /// Bytes written into snapshot (`jsnap` + `jsop`) sections.
    SnapshotBytes,
    /// Post-snapshot tail operations replayed during recovery — the part
    /// compaction bounds (`RecoveryOps` counts everything re-executed,
    /// snapshot program included).
    RecoveryReplayedOps,
    /// Failed journal appends: a write or fsync failed, the append was
    /// rolled back, and the session closed instead of acknowledging the
    /// operation — so at most one per session.
    JournalDegradations,
    /// Work shed at a resource limit: admission rejects, in-flight-bounded
    /// submits answered `overloaded`, and slow-client evictions.
    OverloadSheds,
}

impl Counter {
    /// Every counter, in index order.
    pub const ALL: [Counter; 34] = [
        Counter::Operations,
        Counter::Evaluations,
        Counter::Propagations,
        Counter::Waves,
        Counter::Narrowings,
        Counter::Conflicts,
        Counter::SeedConstraints,
        Counter::Violations,
        Counter::Spins,
        Counter::Notifications,
        Counter::TicksExecuted,
        Counter::TicksStalled,
        Counter::SessionOps,
        Counter::InboxDelivered,
        Counter::InboxDropped,
        Counter::WireBytesSkipped,
        Counter::Reconnects,
        Counter::HeartbeatsMissed,
        Counter::JournalBytes,
        Counter::RecoveryOps,
        Counter::FaultsInjected,
        Counter::SessionsActive,
        Counter::SessionsCreated,
        Counter::AttachRejected,
        Counter::AcceptErrors,
        Counter::NegotiationRounds,
        Counter::ProposalsSent,
        Counter::ConflictsResolved,
        Counter::ConflictsAbandoned,
        Counter::JournalCompactions,
        Counter::SnapshotBytes,
        Counter::RecoveryReplayedOps,
        Counter::JournalDegradations,
        Counter::OverloadSheds,
    ];

    /// Number of counters (the size of a dense counter array).
    pub const COUNT: usize = Counter::ALL.len();

    /// Dense index of this counter in `0..Counter::COUNT`.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name, used as the JSONL key in counter lines.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Operations => "operations",
            Counter::Evaluations => "evaluations",
            Counter::Propagations => "propagations",
            Counter::Waves => "waves",
            Counter::Narrowings => "narrowings",
            Counter::Conflicts => "conflicts",
            Counter::SeedConstraints => "seed_constraints",
            Counter::Violations => "violations",
            Counter::Spins => "spins",
            Counter::Notifications => "notifications",
            Counter::TicksExecuted => "ticks_executed",
            Counter::TicksStalled => "ticks_stalled",
            Counter::SessionOps => "session_ops",
            Counter::InboxDelivered => "inbox_delivered",
            Counter::InboxDropped => "inbox_dropped",
            Counter::WireBytesSkipped => "wire_bytes_skipped",
            Counter::Reconnects => "reconnects",
            Counter::HeartbeatsMissed => "heartbeats_missed",
            Counter::JournalBytes => "journal_bytes",
            Counter::RecoveryOps => "recovery_ops",
            Counter::FaultsInjected => "faults_injected",
            Counter::SessionsActive => "sessions_active",
            Counter::SessionsCreated => "sessions_created",
            Counter::AttachRejected => "attach_rejected",
            Counter::AcceptErrors => "accept_errors",
            Counter::NegotiationRounds => "negotiation_rounds",
            Counter::ProposalsSent => "proposals_sent",
            Counter::ConflictsResolved => "conflicts_resolved",
            Counter::ConflictsAbandoned => "conflicts_abandoned",
            Counter::JournalCompactions => "journal_compactions",
            Counter::SnapshotBytes => "snapshot_bytes",
            Counter::RecoveryReplayedOps => "recovery_replayed_ops",
            Counter::JournalDegradations => "journal_degradations",
            Counter::OverloadSheds => "overload_sheds",
        }
    }
}

/// One structured span emitted by an instrumented hot path.
///
/// Events borrow their string fields so that emitting one costs no
/// allocation when the sink is disabled or aggregates in memory; the JSONL
/// sink serializes them immediately. The serialized form is one flat JSON
/// object per event, tagged by `"t"` — the schema is documented in
/// `docs/OBSERVABILITY.md` and round-trips through [`crate::parse_trace`].
pub type TraceEvent<'a> = TraceEventOf<&'a str>;

/// The trace event schema, generic over how its string fields are held:
/// producers and sinks see [`TraceEvent`] (borrowed `&str`); a sink that
/// keeps events past the `record` call stores them with its own handles
/// ([`map_str`](Self::map_str)) and maps back to `&str` to render them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEventOf<S> {
    /// Context line emitted once at the start of a traced simulation run.
    RunStart {
        /// Management mode, `"adpm"` or `"conventional"` (the paper's λ).
        mode: S,
        /// Simulation seed.
        seed: u64,
        /// Team size.
        designers: u32,
        /// Properties in the scenario's constraint network.
        properties: u32,
        /// Constraints in the scenario's constraint network.
        constraints: u32,
    },
    /// One BFS level of the propagation worklist drained.
    PropagationWave {
        /// 0-based wave number within this propagation run.
        wave: u32,
        /// Worklist length at the start of the wave (its width).
        queue_len: u32,
        /// HC4 revisions performed during the wave.
        evaluations: u64,
        /// Narrowing events (property × constraint) during the wave.
        narrowed: u32,
        /// Wall-clock duration of the wave, µs (deterministic under a
        /// manual clock).
        dur_us: u64,
    },
    /// One propagation run reached fixpoint (or its evaluation cap).
    PropagationDone {
        /// `"full"` or `"incremental"` — which propagation path ran.
        kind: S,
        /// Constraints seeded onto the initial worklist (all of them for a
        /// full run, only the dirty-adjacent ones incrementally).
        seeded: u32,
        /// Waves the worklist took.
        waves: u32,
        /// Total constraint evaluations of the run.
        evaluations: u64,
        /// Properties whose feasible subspace ended narrower than `E_i`.
        narrowed: u32,
        /// Constraints found unsatisfiable.
        conflicts: u32,
        /// False when `max_evaluations` censored the run.
        fixpoint: bool,
        /// Duration of the whole run (including the status sweep), µs.
        dur_us: u64,
    },
    /// Per-constraint profile of one propagation run, emitted (while
    /// tracing) once per constraint that was evaluated, just before the
    /// run's `propagation` footer. Summing `evaluations` over a run's
    /// `cprof` lines reproduces the footer's `evaluations` total.
    ConstraintProfile {
        /// Constraint name.
        name: S,
        /// Evaluations charged to the constraint in this run (HC4
        /// revisions plus its status-sweep check, if swept).
        evaluations: u64,
        /// Whether this run found the constraint unsatisfiable.
        conflict: bool,
    },
    /// Per-property profile of one propagation run, emitted (while
    /// tracing) once per property narrowed in the run, before the
    /// `propagation` footer. Summing `narrowings` over a run's `pprof`
    /// lines reproduces the run's narrowing-event count.
    PropertyProfile {
        /// Property name, `object.property`.
        name: S,
        /// Narrowing events charged to the property in this run.
        narrowings: u64,
    },
    /// One newly discovered constraint violation, emitted by the DPM after
    /// the operation that surfaced it.
    Violation {
        /// Sequence number of the discovering operation.
        seq: u64,
        /// Violated constraint's name.
        constraint: S,
        /// Whether the constraint spans more than one design object (the
        /// paper's cross-subsystem case — the expensive kind).
        cross: bool,
    },
    /// The DPM executed one design operation.
    Operation {
        /// 1-based sequence number in the design history.
        seq: u64,
        /// Index of the requesting designer.
        designer: u32,
        /// Operator kind: `"assign"`, `"unbind"`, `"verify"`, `"decompose"`.
        kind: S,
        /// Management mode, `"adpm"` or `"conventional"`.
        mode: S,
        /// Target property of an assign/unbind as `object.property`, empty
        /// for operators without a single property target.
        target: S,
        /// Constraint evaluations attributed to the operation.
        evaluations: u64,
        /// Violations known immediately after the operation.
        violations_after: u32,
        /// Violations newly discovered by the operation.
        new_violations: u32,
        /// Whether the operation was a design spin.
        spin: bool,
        /// Duration of the operation (propagation included), µs.
        dur_us: u64,
    },
    /// The Notification Manager routed events after an operation.
    NotificationFanout {
        /// Sequence number of the operation whose events were routed.
        seq: u64,
        /// Designers that received at least one event.
        recipients: u32,
        /// Total events delivered (sum over recipients).
        events: u32,
        /// Duration of the routing + delivery, µs.
        dur_us: u64,
    },
    /// One simulation engine tick.
    Tick {
        /// 0-based tick number.
        tick: u64,
        /// Designer whose proposal was executed (`u32::MAX` if none).
        designer: u32,
        /// `"executed"`, `"stalled"`, or `"complete"`.
        outcome: S,
        /// Duration of the tick, µs.
        dur_us: u64,
    },
    /// A collaboration session finished one command.
    SessionCommand {
        /// Sequence number of the command within the session (1-based).
        seq: u64,
        /// Command kind: `"submit"`, `"subscribe"`, `"snapshot"`,
        /// `"shutdown"`.
        kind: S,
        /// Index of the designer the command acted for (`u32::MAX` when
        /// the command has no designer, e.g. `snapshot`).
        designer: u32,
        /// `"executed"`, `"rejected"`, or `"ok"`.
        outcome: S,
        /// Duration of the command, µs.
        dur_us: u64,
    },
    /// The notification router fanned an operation's events out to the
    /// subscribed inboxes.
    InboxFanout {
        /// Sequence number of the operation whose events were routed.
        seq: u64,
        /// Subscriptions considered.
        subscribers: u32,
        /// Events delivered into inboxes (after interest filtering).
        delivered: u32,
        /// Events dropped by full inboxes.
        dropped: u32,
        /// Duration of the fanout, µs.
        dur_us: u64,
    },
    /// A session recovered its history from an operation journal. The
    /// line doubles as the `recover` span carrier (its `dur_us`).
    Recovery {
        /// Operations re-executed from the journal.
        ops: u64,
        /// Snapshot checkpoints verified during the replay.
        checkpoints: u64,
        /// Journal bytes read (valid prefix only).
        journal_bytes: u64,
        /// Trailing bytes discarded as a torn/invalid suffix.
        truncated_bytes: u64,
        /// Whether the replay reproduced every recorded outcome.
        faithful: bool,
        /// Duration of the recovery, µs.
        dur_us: u64,
    },
    /// A resilient client re-established a lost connection. The line
    /// doubles as the `reconnect` span carrier (its `dur_us`).
    Reconnect {
        /// Designer index the client acts for.
        designer: u32,
        /// 1-based reconnect attempt that finally succeeded.
        attempt: u32,
        /// Event index the client resumed its subscription from (0 when
        /// it had no subscription or had seen nothing).
        resumed_from: u64,
        /// Duration from first failure to restored connection, µs.
        dur_us: u64,
    },
    /// The wire reader discarded bytes while resynchronizing past an
    /// oversized line.
    WireSkip {
        /// Bytes discarded (delimiter included).
        bytes: u64,
    },
    /// One conflict negotiation finished (resolved or abandoned). The
    /// line doubles as the `negotiate` span carrier (its `dur_us`).
    Negotiation {
        /// Sequence number of the operation whose violation triggered it.
        seq: u64,
        /// Name of the constraint the negotiation settled on (the applied
        /// relaxation's target, or the seed conflict when abandoned).
        constraint: S,
        /// Propose/answer rounds run.
        rounds: u32,
        /// Relaxation proposals sent to participants across all rounds.
        proposals: u32,
        /// Designers whose viewpoints the minimal conflict set touched.
        participants: u32,
        /// `"resolved"` or `"abandoned"`.
        outcome: S,
        /// Duration from MCS reduction to the final verdict, µs.
        dur_us: u64,
    },
    /// Final line of a simulation run.
    RunSummary {
        /// Executed operations.
        operations: u64,
        /// Total constraint evaluations, including setup propagation.
        evaluations: u64,
        /// Total design spins.
        spins: u64,
        /// Total violations found over the run.
        violations: u64,
        /// Whether the termination condition was reached.
        completed: bool,
    },
}

impl<S> TraceEventOf<S> {
    /// Whether this is a per-run attribution line (`cprof`/`pprof`) —
    /// the events a sink opts into with
    /// [`wants_profiles`](crate::MetricsSink::wants_profiles).
    pub(crate) fn is_profile(&self) -> bool {
        matches!(
            self,
            Self::ConstraintProfile { .. } | Self::PropertyProfile { .. }
        )
    }

    /// The `"t"` tag the serialized form carries.
    pub fn tag(&self) -> &'static str {
        match self {
            Self::RunStart { .. } => "run_start",
            Self::PropagationWave { .. } => "wave",
            Self::PropagationDone { .. } => "propagation",
            Self::ConstraintProfile { .. } => "cprof",
            Self::PropertyProfile { .. } => "pprof",
            Self::Violation { .. } => "violation",
            Self::Operation { .. } => "op",
            Self::NotificationFanout { .. } => "fanout",
            Self::Tick { .. } => "tick",
            Self::SessionCommand { .. } => "session",
            Self::InboxFanout { .. } => "notify",
            Self::Recovery { .. } => "recover",
            Self::Reconnect { .. } => "reconnect",
            Self::WireSkip { .. } => "wire_skip",
            Self::Negotiation { .. } => "negotiate",
            Self::RunSummary { .. } => "summary",
        }
    }

    /// The same event with every string field passed through `f`, in
    /// declaration order; the other fields are copied.
    pub fn map_str<T>(self, mut f: impl FnMut(S) -> T) -> TraceEventOf<T> {
        use TraceEventOf as E;
        match self {
            E::RunStart {
                mode,
                seed,
                designers,
                properties,
                constraints,
            } => E::RunStart {
                mode: f(mode),
                seed,
                designers,
                properties,
                constraints,
            },
            E::PropagationWave {
                wave,
                queue_len,
                evaluations,
                narrowed,
                dur_us,
            } => E::PropagationWave {
                wave,
                queue_len,
                evaluations,
                narrowed,
                dur_us,
            },
            E::PropagationDone {
                kind,
                seeded,
                waves,
                evaluations,
                narrowed,
                conflicts,
                fixpoint,
                dur_us,
            } => E::PropagationDone {
                kind: f(kind),
                seeded,
                waves,
                evaluations,
                narrowed,
                conflicts,
                fixpoint,
                dur_us,
            },
            E::ConstraintProfile {
                name,
                evaluations,
                conflict,
            } => E::ConstraintProfile {
                name: f(name),
                evaluations,
                conflict,
            },
            E::PropertyProfile { name, narrowings } => E::PropertyProfile {
                name: f(name),
                narrowings,
            },
            E::Violation {
                seq,
                constraint,
                cross,
            } => E::Violation {
                seq,
                constraint: f(constraint),
                cross,
            },
            E::Operation {
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
            } => E::Operation {
                seq,
                designer,
                kind: f(kind),
                mode: f(mode),
                target: f(target),
                evaluations,
                violations_after,
                new_violations,
                spin,
                dur_us,
            },
            E::NotificationFanout {
                seq,
                recipients,
                events,
                dur_us,
            } => E::NotificationFanout {
                seq,
                recipients,
                events,
                dur_us,
            },
            E::Tick {
                tick,
                designer,
                outcome,
                dur_us,
            } => E::Tick {
                tick,
                designer,
                outcome: f(outcome),
                dur_us,
            },
            E::SessionCommand {
                seq,
                kind,
                designer,
                outcome,
                dur_us,
            } => E::SessionCommand {
                seq,
                kind: f(kind),
                designer,
                outcome: f(outcome),
                dur_us,
            },
            E::InboxFanout {
                seq,
                subscribers,
                delivered,
                dropped,
                dur_us,
            } => E::InboxFanout {
                seq,
                subscribers,
                delivered,
                dropped,
                dur_us,
            },
            E::Recovery {
                ops,
                checkpoints,
                journal_bytes,
                truncated_bytes,
                faithful,
                dur_us,
            } => E::Recovery {
                ops,
                checkpoints,
                journal_bytes,
                truncated_bytes,
                faithful,
                dur_us,
            },
            E::Reconnect {
                designer,
                attempt,
                resumed_from,
                dur_us,
            } => E::Reconnect {
                designer,
                attempt,
                resumed_from,
                dur_us,
            },
            E::WireSkip { bytes } => E::WireSkip { bytes },
            E::Negotiation {
                seq,
                constraint,
                rounds,
                proposals,
                participants,
                outcome,
                dur_us,
            } => E::Negotiation {
                seq,
                constraint: f(constraint),
                rounds,
                proposals,
                participants,
                outcome: f(outcome),
                dur_us,
            },
            E::RunSummary {
                operations,
                evaluations,
                spins,
                violations,
                completed,
            } => E::RunSummary {
                operations,
                evaluations,
                spins,
                violations,
                completed,
            },
        }
    }
}

impl TraceEvent<'_> {
    /// Appends the event's JSON object (no trailing newline) to `out`.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"t\":\"");
        out.push_str(self.tag());
        out.push('"');
        match *self {
            TraceEvent::RunStart {
                mode,
                seed,
                designers,
                properties,
                constraints,
            } => {
                field_str(out, "mode", mode);
                field_u64(out, "seed", seed);
                field_u64(out, "designers", designers.into());
                field_u64(out, "properties", properties.into());
                field_u64(out, "constraints", constraints.into());
            }
            TraceEvent::PropagationWave {
                wave,
                queue_len,
                evaluations,
                narrowed,
                dur_us,
            } => {
                field_u64(out, "wave", wave.into());
                field_u64(out, "queue_len", queue_len.into());
                field_u64(out, "evaluations", evaluations);
                field_u64(out, "narrowed", narrowed.into());
                field_u64(out, "dur_us", dur_us);
            }
            TraceEvent::PropagationDone {
                kind,
                seeded,
                waves,
                evaluations,
                narrowed,
                conflicts,
                fixpoint,
                dur_us,
            } => {
                field_str(out, "kind", kind);
                field_u64(out, "seeded", seeded.into());
                field_u64(out, "waves", waves.into());
                field_u64(out, "evaluations", evaluations);
                field_u64(out, "narrowed", narrowed.into());
                field_u64(out, "conflicts", conflicts.into());
                field_bool(out, "fixpoint", fixpoint);
                field_u64(out, "dur_us", dur_us);
            }
            TraceEvent::ConstraintProfile {
                name,
                evaluations,
                conflict,
            } => {
                field_str(out, "name", name);
                field_u64(out, "evaluations", evaluations);
                field_bool(out, "conflict", conflict);
            }
            TraceEvent::PropertyProfile { name, narrowings } => {
                field_str(out, "name", name);
                field_u64(out, "narrowings", narrowings);
            }
            TraceEvent::Violation {
                seq,
                constraint,
                cross,
            } => {
                field_u64(out, "seq", seq);
                field_str(out, "constraint", constraint);
                field_bool(out, "cross", cross);
            }
            TraceEvent::Operation {
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
                field_u64(out, "seq", seq);
                field_u64(out, "designer", designer.into());
                field_str(out, "kind", kind);
                field_str(out, "mode", mode);
                field_str(out, "target", target);
                field_u64(out, "evaluations", evaluations);
                field_u64(out, "violations_after", violations_after.into());
                field_u64(out, "new_violations", new_violations.into());
                field_bool(out, "spin", spin);
                field_u64(out, "dur_us", dur_us);
            }
            TraceEvent::NotificationFanout {
                seq,
                recipients,
                events,
                dur_us,
            } => {
                field_u64(out, "seq", seq);
                field_u64(out, "recipients", recipients.into());
                field_u64(out, "events", events.into());
                field_u64(out, "dur_us", dur_us);
            }
            TraceEvent::Tick {
                tick,
                designer,
                outcome,
                dur_us,
            } => {
                field_u64(out, "tick", tick);
                field_u64(out, "designer", designer.into());
                field_str(out, "outcome", outcome);
                field_u64(out, "dur_us", dur_us);
            }
            TraceEvent::SessionCommand {
                seq,
                kind,
                designer,
                outcome,
                dur_us,
            } => {
                field_u64(out, "seq", seq);
                field_str(out, "kind", kind);
                field_u64(out, "designer", designer.into());
                field_str(out, "outcome", outcome);
                field_u64(out, "dur_us", dur_us);
            }
            TraceEvent::InboxFanout {
                seq,
                subscribers,
                delivered,
                dropped,
                dur_us,
            } => {
                field_u64(out, "seq", seq);
                field_u64(out, "subscribers", subscribers.into());
                field_u64(out, "delivered", delivered.into());
                field_u64(out, "dropped", dropped.into());
                field_u64(out, "dur_us", dur_us);
            }
            TraceEvent::Recovery {
                ops,
                checkpoints,
                journal_bytes,
                truncated_bytes,
                faithful,
                dur_us,
            } => {
                field_u64(out, "ops", ops);
                field_u64(out, "checkpoints", checkpoints);
                field_u64(out, "journal_bytes", journal_bytes);
                field_u64(out, "truncated_bytes", truncated_bytes);
                field_bool(out, "faithful", faithful);
                field_u64(out, "dur_us", dur_us);
            }
            TraceEvent::Reconnect {
                designer,
                attempt,
                resumed_from,
                dur_us,
            } => {
                field_u64(out, "designer", designer.into());
                field_u64(out, "attempt", attempt.into());
                field_u64(out, "resumed_from", resumed_from);
                field_u64(out, "dur_us", dur_us);
            }
            TraceEvent::WireSkip { bytes } => {
                field_u64(out, "bytes", bytes);
            }
            TraceEvent::Negotiation {
                seq,
                constraint,
                rounds,
                proposals,
                participants,
                outcome,
                dur_us,
            } => {
                field_u64(out, "seq", seq);
                field_str(out, "constraint", constraint);
                field_u64(out, "rounds", rounds.into());
                field_u64(out, "proposals", proposals.into());
                field_u64(out, "participants", participants.into());
                field_str(out, "outcome", outcome);
                field_u64(out, "dur_us", dur_us);
            }
            TraceEvent::RunSummary {
                operations,
                evaluations,
                spins,
                violations,
                completed,
            } => {
                field_u64(out, "operations", operations);
                field_u64(out, "evaluations", evaluations);
                field_u64(out, "spins", spins);
                field_u64(out, "violations", violations);
                field_bool(out, "completed", completed);
            }
        }
        out.push('}');
    }

    /// The event's JSON object as an owned string (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        self.write_json(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_indices_are_dense_and_names_unique() {
        let mut names = std::collections::BTreeSet::new();
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(names.insert(c.name()), "duplicate name {}", c.name());
        }
        assert_eq!(names.len(), Counter::COUNT);
    }

    #[test]
    fn events_serialize_with_type_tag_first() {
        let event = TraceEvent::PropagationWave {
            wave: 2,
            queue_len: 5,
            evaluations: 5,
            narrowed: 1,
            dur_us: 12,
        };
        assert_eq!(
            event.to_json(),
            "{\"t\":\"wave\",\"wave\":2,\"queue_len\":5,\"evaluations\":5,\"narrowed\":1,\"dur_us\":12}"
        );
    }

    #[test]
    fn string_fields_are_escaped() {
        let event = TraceEvent::Tick {
            tick: 0,
            designer: 1,
            outcome: "quo\"te",
            dur_us: 0,
        };
        assert!(event.to_json().contains("quo\\\"te"));
    }

    #[test]
    fn profile_events_carry_attribution_tags() {
        let cprof = TraceEvent::ConstraintProfile {
            name: "cap",
            evaluations: 7,
            conflict: true,
        };
        assert_eq!(
            cprof.to_json(),
            "{\"t\":\"cprof\",\"name\":\"cap\",\"evaluations\":7,\"conflict\":true}"
        );
        let pprof = TraceEvent::PropertyProfile {
            name: "lna.gain",
            narrowings: 3,
        };
        assert_eq!(
            pprof.to_json(),
            "{\"t\":\"pprof\",\"name\":\"lna.gain\",\"narrowings\":3}"
        );
        let violation = TraceEvent::Violation {
            seq: 4,
            constraint: "sum",
            cross: false,
        };
        assert_eq!(
            violation.to_json(),
            "{\"t\":\"violation\",\"seq\":4,\"constraint\":\"sum\",\"cross\":false}"
        );
    }
}
