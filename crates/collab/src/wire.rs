//! The line-delimited JSONL wire protocol.
//!
//! One flat JSON object per line, first field the string tag `"t"` —
//! exactly the trace-file shape, reusing `adpm-observe`'s field writers
//! ([`field_str`] and kin) and [`parse_object`] so the escaping rules and
//! the parser's error reporting are shared with the trace subsystem. The schema is
//! deliberately flat (the observe parser rejects nesting): list-valued
//! fields are comma-joined name strings, and every design entity crosses
//! the wire by *name* (`object.property`, problem name, constraint name)
//! rather than by raw id, so a client needs no knowledge of the server's
//! id assignment. The full frame table lives in `docs/COLLAB.md`.
//!
//! Lines longer than [`MAX_LINE_BYTES`] are rejected before parsing — a
//! malformed or malicious peer cannot make the reader buffer without
//! bound.

use adpm_observe::{
    field_bool, field_f64, field_str, field_u64, parse_object, CounterSnapshot, JsonValue,
};
use std::fmt;

/// Upper bound on one wire line, delimiter included (64 KiB).
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// A submitted design operation, by name.
#[derive(Debug, Clone, PartialEq)]
pub enum WireOp {
    /// Bind `property` (as `object.property`) to `value` within `problem`.
    Assign {
        /// Problem name.
        problem: String,
        /// Property as `object.property`.
        property: String,
        /// The value to bind.
        value: f64,
    },
    /// Unbind `property` within `problem`.
    Unbind {
        /// Problem name.
        problem: String,
        /// Property as `object.property`.
        property: String,
    },
    /// Run verification for `problem`, optionally limited to the
    /// comma-joined constraint names in `constraints` (empty = all of the
    /// problem's constraints).
    Verify {
        /// Problem name.
        problem: String,
        /// Comma-joined constraint names; empty for all.
        constraints: String,
    },
}

/// One protocol frame — requests (client → server), responses, and the
/// asynchronous `event` notification frame (server → subscribed client).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client introduces itself as a designer (by index).
    Hello {
        /// Designer index.
        designer: u32,
    },
    /// Client subscribes to the hello'd designer's notifications: every
    /// event the Notification Manager routes to that designer.
    Subscribe {
        /// Accepted for older clients and ignored by the server; optional
        /// on the wire (absent reads as `false`).
        all: bool,
        /// Resume marker: `Some(idx)` asks the server to redeliver every
        /// retained event for this designer with a delivery index greater
        /// than `idx` (the last one the client saw), exactly once. `None`
        /// is a fresh subscription — no redelivery.
        resume_from: Option<u64>,
    },
    /// Client submits one design operation.
    Submit {
        /// The operation, by name.
        op: WireOp,
        /// Client-chosen operation id, echoed on the `executed`/`rejected`
        /// response. A resubmission after a lost response reuses the same
        /// `cid`; the server deduplicates per designer, replying with the
        /// remembered outcome instead of executing twice.
        cid: Option<u64>,
    },
    /// Client requests the current design state.
    Snapshot,
    /// Client asks the server to shut the whole session down.
    Shutdown,
    /// Either side signals an orderly connection close.
    Bye,
    /// Server's hello response.
    Welcome {
        /// Management mode, `"adpm"` or `"conventional"`.
        mode: String,
        /// Registered designers.
        designers: u32,
        /// Properties in the network.
        properties: u32,
        /// Constraints in the network.
        constraints: u32,
    },
    /// Server confirms a subscription.
    Subscribed {
        /// Designer index the subscription is filtered for.
        designer: u32,
        /// Highest delivery index the server has recorded for this
        /// designer (0 when nothing has ever been routed to them) — lets a
        /// resuming client detect how far behind it was.
        last_idx: u64,
    },
    /// The submitted operation executed.
    Executed {
        /// Sequence number in the design history.
        seq: u64,
        /// Constraint evaluations attributed to the operation.
        evaluations: u64,
        /// Violations known after the operation.
        violations_after: u32,
        /// Comma-joined names of newly violated constraints (may be empty).
        new_violations: String,
        /// Whether the operation was a design spin.
        spin: bool,
        /// Echo of the submission's client operation id, if it carried one.
        cid: Option<u64>,
    },
    /// The submitted operation was rejected; design state unchanged.
    Rejected {
        /// Human-readable reason.
        reason: String,
        /// Echo of the submission's client operation id, if it carried one.
        cid: Option<u64>,
    },
    /// Protocol-level error (bad frame, unknown name, no hello yet...).
    /// The connection stays open.
    Error {
        /// What went wrong.
        message: String,
    },
    /// Snapshot header; followed by one [`Frame::Prop`] per property and a
    /// terminating [`Frame::End`].
    State {
        /// Executed operations so far.
        operations: u64,
        /// Currently bound properties.
        bound: u32,
        /// Currently known violations.
        violations: u32,
    },
    /// One property's state within a snapshot: the enclosing interval of
    /// its feasible subspace and whether it is bound. An empty feasible
    /// subspace is encoded as `lo > hi` (`1 > 0`).
    Prop {
        /// Property as `object.property`.
        name: String,
        /// Feasible lower bound.
        lo: f64,
        /// Feasible upper bound.
        hi: f64,
        /// Whether the property is bound.
        bound: bool,
    },
    /// Terminates a multi-frame snapshot response.
    End,
    /// Asynchronous notification delivered to a subscribed client.
    Event {
        /// Sequence number of the producing operation.
        seq: u64,
        /// Event kind: `"violation_detected"`, `"violation_resolved"`,
        /// `"feasible_reduced"`, `"feasible_emptied"`, `"problem_solved"`.
        kind: String,
        /// The named subject: constraint, property, or problem name.
        subject: String,
        /// Comma-joined argument property names (violation_detected only;
        /// empty otherwise).
        properties: String,
        /// Remaining feasible fraction (feasible_reduced only; 0 otherwise).
        relative_size: f64,
        /// Per-designer monotonic delivery index (1-based). A subscriber
        /// that reconnects resumes from the last `idx` it saw; duplicates
        /// redelivered across a resume are detectable by index.
        idx: u64,
    },
    /// Liveness probe. Either side may send one at any time; the peer
    /// answers with a [`Frame::Pong`] echoing the nonce.
    Ping {
        /// Opaque echo token.
        nonce: u64,
    },
    /// Answer to a [`Frame::Ping`].
    Pong {
        /// The ping's nonce, echoed.
        nonce: u64,
    },
    /// Non-fatal diagnostic pushed by the server (e.g. "skipped N bytes
    /// resynchronizing past an oversized line"). Clients surface it but
    /// need not act on it.
    Warning {
        /// What happened.
        message: String,
    },
    /// Client asks to bind this connection to the named session, creating
    /// it if it does not exist yet. Creating an *existing* name is an
    /// idempotent attach; creating a *missing* name requires the server to
    /// allow dynamic creation (`--allow-create`), else the request is
    /// answered with [`Frame::AttachRejected`].
    CreateSession {
        /// Session name: 1–64 chars of `[A-Za-z0-9_-]`.
        name: String,
    },
    /// Client asks to bind this connection to an *existing* named session.
    /// Unlike [`Frame::CreateSession`], a missing name is always rejected.
    AttachSession {
        /// Session name.
        name: String,
    },
    /// Client asks for the names of the sessions currently hosted.
    ListSessions,
    /// Client asks to return this connection to the default session.
    DetachSession,
    /// Server confirms the connection is now bound to `name` (the answer
    /// to `create`, `attach`, and `detach`).
    SessionAttached {
        /// The session the connection is bound to from now on.
        name: String,
        /// Whether this request created the session (always `false` for
        /// `attach`/`detach`).
        created: bool,
    },
    /// Server's answer to [`Frame::ListSessions`].
    SessionList {
        /// Comma-joined session names, sorted.
        names: String,
        /// How many sessions are hosted.
        count: u32,
    },
    /// Typed rejection of a session `create`/`attach` request. The
    /// connection stays open and stays bound to its previous session.
    AttachRejected {
        /// The name the request asked for.
        name: String,
        /// Why it was rejected.
        reason: String,
    },
    /// Client asks for a one-shot telemetry report: one
    /// [`Frame::StatsReply`] per covered session, terminated by
    /// [`Frame::End`].
    Stats {
        /// `false` (or absent on the wire) reports the attached session
        /// only; `true` asks for every hosted session plus the server
        /// rollup — allowed only for connections attached to the default
        /// session (the operator scope).
        all: bool,
    },
    /// Client arms (or disarms) periodic telemetry push: the server sends
    /// a full stats report (as for [`Frame::Stats`]) every `interval_ms`
    /// until the connection closes or a `watch` with `interval_ms: 0`
    /// disarms it.
    Watch {
        /// Scope, as for [`Frame::Stats`].
        all: bool,
        /// Push period in milliseconds; `0` disarms the watch.
        interval_ms: u64,
    },
    /// Client asks for the attached session's flight-recorder contents:
    /// a [`Frame::DumpReply`] header, one [`Frame::Flight`] per retained
    /// event (oldest first), and a terminating [`Frame::End`].
    Dump,
    /// One session's telemetry snapshot. Every counter crosses the wire
    /// as a top-level field named exactly as in
    /// [`Counter::name`](adpm_observe::Counter::name), so the reply
    /// schema is a subset of the `Counter` enum by construction; absent
    /// counters parse as 0.
    StatsReply {
        /// Session the numbers belong to (`*` = server-wide rollup).
        session: String,
        /// Connections currently bound to the session (0 for the rollup).
        connections: u32,
        /// Whether this reply was pushed by an armed watch (`false` for
        /// one-shot `stats` replies).
        watch: bool,
        /// Every counter at capture time.
        counters: Box<CounterSnapshot>,
        /// Trace events recorded at capture time.
        events: u64,
        /// Session-command latency median, µs (bucket upper bound).
        p50_us: u64,
        /// Session-command latency 90th percentile, µs.
        p90_us: u64,
        /// Session-command latency 99th percentile, µs.
        p99_us: u64,
    },
    /// Header of a flight-recorder dump.
    DumpReply {
        /// Session the dump belongs to.
        session: String,
        /// How many [`Frame::Flight`] frames follow.
        count: u32,
        /// Total events ever recorded by this session's recorder; the
        /// difference against `count` is how much history the ring shed.
        recorded: u64,
    },
    /// One retained flight-recorder event.
    Flight {
        /// 1-based sequence number over the recorder's lifetime.
        idx: u64,
        /// The recorded trace event, as its original JSON line.
        line: String,
    },
    /// A relaxation proposal in a conflict negotiation. Server → subscribed
    /// client when routed from the session's negotiation engine; a client
    /// may also *send* one (on a negotiation-enabled session) to ask the
    /// server to negotiate the named conflict now.
    Propose {
        /// Sequence number of the triggering operation (0 when
        /// client-sent).
        seq: u64,
        /// 1-based negotiation round.
        round: u32,
        /// Designer index offering the relaxation (ignored when
        /// client-sent).
        proposer: u32,
        /// Proposal kind: `"widen"`, `"drop"`, or `"unbind"`.
        kind: String,
        /// Seed conflict constraint name. For a client-sent `propose`
        /// this is the conflict to negotiate; `kind`/`property`/`slack`
        /// may be left empty — the server's engine generates the actual
        /// proposals.
        constraint: String,
        /// Property name (`object.property`; `unbind` proposals only,
        /// empty otherwise).
        property: String,
        /// Widen slack (`widen` proposals only, 0 otherwise).
        slack: f64,
        /// Per-designer delivery index (0 when client-sent).
        idx: u64,
    },
    /// A participant's counter-offer answering a proposal.
    CounterProposal {
        /// Sequence number of the triggering operation.
        seq: u64,
        /// Round the answered proposal belongs to.
        round: u32,
        /// Designer index countering.
        designer: u32,
        /// Counter-proposal kind: `"widen"`, `"drop"`, or `"unbind"`.
        kind: String,
        /// Constraint the counter-offer targets (empty for `unbind`).
        constraint: String,
        /// Property the counter-offer unbinds (empty otherwise).
        property: String,
        /// Widen slack (0 unless `widen`).
        slack: f64,
        /// Per-designer delivery index.
        idx: u64,
    },
    /// A participant accepts the current round's proposal.
    Accept {
        /// Sequence number of the triggering operation.
        seq: u64,
        /// Round the answered proposal belongs to.
        round: u32,
        /// Designer index accepting.
        designer: u32,
        /// Per-designer delivery index.
        idx: u64,
    },
    /// A participant rejects the current round's proposal.
    Reject {
        /// Sequence number of the triggering operation.
        seq: u64,
        /// Round the answered proposal belongs to.
        round: u32,
        /// Designer index rejecting.
        designer: u32,
        /// Per-designer delivery index.
        idx: u64,
    },
    /// A negotiation closed. `outcome` is `"resolved"` when an accepted
    /// relaxation was applied and cleared the conflict, `"abandoned"`
    /// otherwise. Also the server's direct reply to a client-sent
    /// [`Frame::Propose`].
    Resolved {
        /// Sequence number of the closing event's operation (0 on direct
        /// replies).
        seq: u64,
        /// Seed conflict constraint name.
        constraint: String,
        /// Rounds the negotiation ran.
        rounds: u32,
        /// Proposals put to the participants.
        proposals: u32,
        /// `"resolved"` or `"abandoned"`.
        outcome: String,
        /// Per-designer delivery index (0 on direct replies).
        idx: u64,
    },
    /// Typed rejection of a negotiation frame: the session has negotiation
    /// disabled, or the frame kind is server-generated only. The
    /// connection stays open.
    NegotiationRejected {
        /// Why the frame was rejected.
        message: String,
    },
    /// The server shed a request because a resource limit was hit (too
    /// many in-flight operations, too many clients, ...).
    /// Design state is unchanged. The client should wait `retry_after_ms`
    /// and resubmit with the *same* `cid` — the server's dedup window
    /// guarantees the retry executes at most once.
    Overloaded {
        /// Suggested backoff before resubmitting, in milliseconds.
        retry_after_ms: u64,
        /// Echo of the shed submission's client operation id, if any.
        cid: Option<u64>,
    },
}

/// Coarse classification of a [`WireError`], the ground truth the
/// retryable-vs-fatal [`CollabError`](crate::CollabError) taxonomy is
/// built on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireErrorKind {
    /// The transport failed (connection refused/reset/closed, write
    /// error). Retrying against a live server can succeed.
    Io,
    /// A deadline elapsed waiting for the peer. Retrying can succeed.
    Timeout,
    /// The bytes themselves are wrong (malformed frame, unknown tag,
    /// protocol misuse). Retrying the same exchange cannot succeed.
    Protocol,
}

/// Why a wire exchange failed: a malformed line, a dead transport, or an
/// expired deadline — see [`WireError::kind`] for which.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Human-readable description.
    pub message: String,
    /// What failed, for retry decisions.
    pub kind: WireErrorKind,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire protocol error: {}", self.message)
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// A [`WireErrorKind::Protocol`] error (malformed or unexpected bytes).
    pub fn protocol(message: impl Into<String>) -> Self {
        WireError {
            message: message.into(),
            kind: WireErrorKind::Protocol,
        }
    }

    /// A [`WireErrorKind::Io`] error (dead or failing transport).
    pub fn io(message: impl Into<String>) -> Self {
        WireError {
            message: message.into(),
            kind: WireErrorKind::Io,
        }
    }

    /// A [`WireErrorKind::Timeout`] error (the peer did not answer in time).
    pub fn timeout(message: impl Into<String>) -> Self {
        WireError {
            message: message.into(),
            kind: WireErrorKind::Timeout,
        }
    }

    /// Whether a retry (possibly after reconnecting) could succeed.
    pub fn is_retryable(&self) -> bool {
        matches!(self.kind, WireErrorKind::Io | WireErrorKind::Timeout)
    }

    fn new(message: impl Into<String>) -> Self {
        WireError::protocol(message)
    }
}

/// Appends one `prop` line: [`Frame::Prop`]'s encoding, written from
/// borrowed parts so a snapshot reply needs no frame per property.
pub(crate) fn write_prop_line(out: &mut String, name: &str, lo: f64, hi: f64, bound: bool) {
    out.push_str("{\"t\":\"prop\"");
    prop_fields(out, name, lo, hi, bound);
    out.push_str("}\n");
}

fn prop_fields(out: &mut String, name: &str, lo: f64, hi: f64, bound: bool) {
    field_str(out, "name", name);
    field_f64(out, "lo", lo);
    field_f64(out, "hi", hi);
    field_bool(out, "bound", bound);
}

fn field_opt_u64(out: &mut String, key: &str, value: Option<u64>) {
    if let Some(value) = value {
        field_u64(out, key, value);
    }
}

impl Frame {
    /// The `"t"` tag of the serialized frame.
    pub fn tag(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "hello",
            Frame::Subscribe { .. } => "subscribe",
            Frame::Submit {
                op: WireOp::Assign { .. },
                ..
            } => "assign",
            Frame::Submit {
                op: WireOp::Unbind { .. },
                ..
            } => "unbind",
            Frame::Submit {
                op: WireOp::Verify { .. },
                ..
            } => "verify",
            Frame::Snapshot => "snapshot",
            Frame::Shutdown => "shutdown",
            Frame::Bye => "bye",
            Frame::Welcome { .. } => "welcome",
            Frame::Subscribed { .. } => "subscribed",
            Frame::Executed { .. } => "executed",
            Frame::Rejected { .. } => "rejected",
            Frame::Error { .. } => "err",
            Frame::State { .. } => "state",
            Frame::Prop { .. } => "prop",
            Frame::End => "end",
            Frame::Event { .. } => "event",
            Frame::Ping { .. } => "ping",
            Frame::Pong { .. } => "pong",
            Frame::Warning { .. } => "warn",
            Frame::CreateSession { .. } => "create",
            Frame::AttachSession { .. } => "attach",
            Frame::ListSessions => "list",
            Frame::DetachSession => "detach",
            Frame::SessionAttached { .. } => "session",
            Frame::SessionList { .. } => "sessions",
            Frame::AttachRejected { .. } => "attach_rejected",
            Frame::Stats { .. } => "stats",
            Frame::Watch { .. } => "watch",
            Frame::Dump => "dump",
            Frame::StatsReply { .. } => "stats_reply",
            Frame::DumpReply { .. } => "dump_reply",
            Frame::Flight { .. } => "flight",
            Frame::Propose { .. } => "propose",
            Frame::CounterProposal { .. } => "counter",
            Frame::Accept { .. } => "accept",
            Frame::Reject { .. } => "reject",
            Frame::Resolved { .. } => "resolved",
            Frame::NegotiationRejected { .. } => "negotiation_rejected",
            Frame::Overloaded { .. } => "overloaded",
        }
    }

    /// Serializes the frame as one JSON line, trailing `\n` included.
    pub fn to_line(&self) -> String {
        let mut out = String::with_capacity(64);
        self.write_line(&mut out);
        out
    }

    /// Appends the frame's [`to_line`](Frame::to_line) encoding to `out`.
    pub(crate) fn write_line(&self, out: &mut String) {
        out.push_str("{\"t\":\"");
        out.push_str(self.tag());
        out.push('"');
        match self {
            Frame::Hello { designer } => field_u64(out, "designer", (*designer).into()),
            Frame::Subscribe { all, resume_from } => {
                field_bool(out, "all", *all);
                field_opt_u64(out, "resume_from", *resume_from);
            }
            Frame::Submit { op, cid } => {
                match op {
                    WireOp::Assign {
                        problem,
                        property,
                        value,
                    } => {
                        field_str(out, "problem", problem);
                        field_str(out, "property", property);
                        field_f64(out, "value", *value);
                    }
                    WireOp::Unbind { problem, property } => {
                        field_str(out, "problem", problem);
                        field_str(out, "property", property);
                    }
                    WireOp::Verify {
                        problem,
                        constraints,
                    } => {
                        field_str(out, "problem", problem);
                        field_str(out, "constraints", constraints);
                    }
                }
                field_opt_u64(out, "cid", *cid);
            }
            Frame::Snapshot | Frame::Shutdown | Frame::Bye | Frame::End => {}
            Frame::Welcome {
                mode,
                designers,
                properties,
                constraints,
            } => {
                field_str(out, "mode", mode);
                field_u64(out, "designers", (*designers).into());
                field_u64(out, "properties", (*properties).into());
                field_u64(out, "constraints", (*constraints).into());
            }
            Frame::Subscribed { designer, last_idx } => {
                field_u64(out, "designer", (*designer).into());
                field_u64(out, "last_idx", *last_idx);
            }
            Frame::Executed {
                seq,
                evaluations,
                violations_after,
                new_violations,
                spin,
                cid,
            } => {
                field_u64(out, "seq", *seq);
                field_u64(out, "evaluations", *evaluations);
                field_u64(out, "violations_after", (*violations_after).into());
                field_str(out, "new_violations", new_violations);
                field_bool(out, "spin", *spin);
                field_opt_u64(out, "cid", *cid);
            }
            Frame::Rejected { reason, cid } => {
                field_str(out, "reason", reason);
                field_opt_u64(out, "cid", *cid);
            }
            Frame::Error { message } => field_str(out, "message", message),
            Frame::State {
                operations,
                bound,
                violations,
            } => {
                field_u64(out, "operations", *operations);
                field_u64(out, "bound", (*bound).into());
                field_u64(out, "violations", (*violations).into());
            }
            Frame::Prop {
                name,
                lo,
                hi,
                bound,
            } => prop_fields(out, name, *lo, *hi, *bound),
            Frame::Event {
                seq,
                kind,
                subject,
                properties,
                relative_size,
                idx,
            } => {
                field_u64(out, "seq", *seq);
                field_str(out, "kind", kind);
                field_str(out, "subject", subject);
                field_str(out, "properties", properties);
                field_f64(out, "relative_size", *relative_size);
                field_u64(out, "idx", *idx);
            }
            Frame::Ping { nonce } => field_u64(out, "nonce", *nonce),
            Frame::Pong { nonce } => field_u64(out, "nonce", *nonce),
            Frame::Warning { message } => field_str(out, "message", message),
            Frame::CreateSession { name } | Frame::AttachSession { name } => {
                field_str(out, "name", name)
            }
            Frame::ListSessions | Frame::DetachSession => {}
            Frame::SessionAttached { name, created } => {
                field_str(out, "name", name);
                field_bool(out, "created", *created);
            }
            Frame::SessionList { names, count } => {
                field_str(out, "names", names);
                field_u64(out, "count", (*count).into());
            }
            Frame::AttachRejected { name, reason } => {
                field_str(out, "name", name);
                field_str(out, "reason", reason);
            }
            Frame::Stats { all } => field_bool(out, "all", *all),
            Frame::Watch { all, interval_ms } => {
                field_bool(out, "all", *all);
                field_u64(out, "interval_ms", *interval_ms);
            }
            Frame::Dump => {}
            Frame::StatsReply {
                session,
                connections,
                watch,
                counters,
                events,
                p50_us,
                p90_us,
                p99_us,
            } => {
                field_str(out, "session", session);
                field_u64(out, "connections", (*connections).into());
                field_bool(out, "watch", *watch);
                for (counter, value) in counters.iter() {
                    field_u64(out, counter.name(), value);
                }
                field_u64(out, "events", *events);
                field_u64(out, "p50_us", *p50_us);
                field_u64(out, "p90_us", *p90_us);
                field_u64(out, "p99_us", *p99_us);
            }
            Frame::DumpReply {
                session,
                count,
                recorded,
            } => {
                field_str(out, "session", session);
                field_u64(out, "count", (*count).into());
                field_u64(out, "recorded", *recorded);
            }
            Frame::Flight { idx, line } => {
                field_u64(out, "idx", *idx);
                field_str(out, "line", line);
            }
            Frame::Propose {
                seq,
                round,
                proposer,
                kind,
                constraint,
                property,
                slack,
                idx,
            } => {
                field_u64(out, "seq", *seq);
                field_u64(out, "round", (*round).into());
                field_u64(out, "proposer", (*proposer).into());
                field_str(out, "kind", kind);
                field_str(out, "constraint", constraint);
                field_str(out, "property", property);
                field_f64(out, "slack", *slack);
                field_u64(out, "idx", *idx);
            }
            Frame::CounterProposal {
                seq,
                round,
                designer,
                kind,
                constraint,
                property,
                slack,
                idx,
            } => {
                field_u64(out, "seq", *seq);
                field_u64(out, "round", (*round).into());
                field_u64(out, "designer", (*designer).into());
                field_str(out, "kind", kind);
                field_str(out, "constraint", constraint);
                field_str(out, "property", property);
                field_f64(out, "slack", *slack);
                field_u64(out, "idx", *idx);
            }
            Frame::Accept {
                seq,
                round,
                designer,
                idx,
            }
            | Frame::Reject {
                seq,
                round,
                designer,
                idx,
            } => {
                field_u64(out, "seq", *seq);
                field_u64(out, "round", (*round).into());
                field_u64(out, "designer", (*designer).into());
                field_u64(out, "idx", *idx);
            }
            Frame::Resolved {
                seq,
                constraint,
                rounds,
                proposals,
                outcome,
                idx,
            } => {
                field_u64(out, "seq", *seq);
                field_str(out, "constraint", constraint);
                field_u64(out, "rounds", (*rounds).into());
                field_u64(out, "proposals", (*proposals).into());
                field_str(out, "outcome", outcome);
                field_u64(out, "idx", *idx);
            }
            Frame::NegotiationRejected { message } => field_str(out, "message", message),
            Frame::Overloaded {
                retry_after_ms,
                cid,
            } => {
                field_u64(out, "retry_after_ms", *retry_after_ms);
                field_opt_u64(out, "cid", *cid);
            }
        }
        out.push_str("}\n");
    }

    /// Parses one wire line (with or without the trailing newline).
    ///
    /// # Errors
    ///
    /// [`WireError`] when the line exceeds [`MAX_LINE_BYTES`], is not a
    /// flat JSON object, lacks the leading `"t"` tag, carries an unknown
    /// tag, or is missing/mistyping a required field.
    pub fn parse_line(line: &str) -> Result<Frame, WireError> {
        if line.len() > MAX_LINE_BYTES {
            return Err(WireError::new(format!(
                "line of {} bytes exceeds the {} byte limit",
                line.len(),
                MAX_LINE_BYTES
            )));
        }
        let text = line.trim_end_matches(['\n', '\r']);
        let fields = parse_object(text, 0).map_err(|e| WireError::new(e.message))?;
        let Some((first_key, first_value)) = fields.first() else {
            return Err(WireError::new("empty frame"));
        };
        if first_key != "t" {
            return Err(WireError::new("first field must be the \"t\" tag"));
        }
        let Some(tag) = first_value.as_str() else {
            return Err(WireError::new("\"t\" tag must be a string"));
        };
        let get = |key: &str| -> Option<&JsonValue> {
            fields
                .iter()
                .skip(1)
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
        };
        let need_str = |key: &str| -> Result<String, WireError> {
            get(key)
                .and_then(|v| v.as_str())
                .map(str::to_owned)
                .ok_or_else(|| WireError::new(format!("`{tag}` frame needs string `{key}`")))
        };
        let need_u64 = |key: &str| -> Result<u64, WireError> {
            get(key)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| WireError::new(format!("`{tag}` frame needs integer `{key}`")))
        };
        // Optional integer: absent is `None`, present-but-mistyped is an
        // error (silently swallowing a mistyped `cid` would defeat the
        // dedup it exists for).
        let opt_u64 = |key: &str| -> Result<Option<u64>, WireError> {
            match get(key) {
                None => Ok(None),
                Some(v) => v.as_u64().map(Some).ok_or_else(|| {
                    WireError::new(format!(
                        "`{key}` must be a non-negative integer in `{tag}` frame"
                    ))
                }),
            }
        };
        let need_u32 = |key: &str| -> Result<u32, WireError> {
            need_u64(key)?
                .try_into()
                .map_err(|_| WireError::new(format!("`{key}` out of range in `{tag}` frame")))
        };
        let need_bool = |key: &str| -> Result<bool, WireError> {
            get(key)
                .and_then(|v| v.as_bool())
                .ok_or_else(|| WireError::new(format!("`{tag}` frame needs boolean `{key}`")))
        };
        // Optional boolean: absent is `false`, present-but-mistyped is an
        // error.
        let opt_bool = |key: &str| -> Result<bool, WireError> {
            match get(key) {
                None => Ok(false),
                Some(v) => v.as_bool().ok_or_else(|| {
                    WireError::new(format!("`{key}` must be a boolean in `{tag}` frame"))
                }),
            }
        };
        let need_f64 = |key: &str| -> Result<f64, WireError> {
            match get(key) {
                Some(JsonValue::Num(n)) => Ok(*n),
                _ => Err(WireError::new(format!(
                    "`{tag}` frame needs number `{key}`"
                ))),
            }
        };
        // Optional string/number: absent is the zero value,
        // present-but-mistyped is an error.
        let opt_str = |key: &str| -> Result<String, WireError> {
            match get(key) {
                None => Ok(String::new()),
                Some(v) => v.as_str().map(str::to_owned).ok_or_else(|| {
                    WireError::new(format!("`{key}` must be a string in `{tag}` frame"))
                }),
            }
        };
        let opt_f64 = |key: &str| -> Result<f64, WireError> {
            match get(key) {
                None => Ok(0.0),
                Some(JsonValue::Num(n)) => Ok(*n),
                Some(_) => Err(WireError::new(format!(
                    "`{key}` must be a number in `{tag}` frame"
                ))),
            }
        };
        match tag {
            "hello" => Ok(Frame::Hello {
                designer: need_u32("designer")?,
            }),
            "subscribe" => Ok(Frame::Subscribe {
                all: match get("all") {
                    None => false,
                    Some(_) => need_bool("all")?,
                },
                resume_from: opt_u64("resume_from")?,
            }),
            "assign" => Ok(Frame::Submit {
                op: WireOp::Assign {
                    problem: need_str("problem")?,
                    property: need_str("property")?,
                    value: need_f64("value")?,
                },
                cid: opt_u64("cid")?,
            }),
            "unbind" => Ok(Frame::Submit {
                op: WireOp::Unbind {
                    problem: need_str("problem")?,
                    property: need_str("property")?,
                },
                cid: opt_u64("cid")?,
            }),
            "verify" => Ok(Frame::Submit {
                op: WireOp::Verify {
                    problem: need_str("problem")?,
                    constraints: need_str("constraints")?,
                },
                cid: opt_u64("cid")?,
            }),
            "snapshot" => Ok(Frame::Snapshot),
            "shutdown" => Ok(Frame::Shutdown),
            "bye" => Ok(Frame::Bye),
            "welcome" => Ok(Frame::Welcome {
                mode: need_str("mode")?,
                designers: need_u32("designers")?,
                properties: need_u32("properties")?,
                constraints: need_u32("constraints")?,
            }),
            "subscribed" => Ok(Frame::Subscribed {
                designer: need_u32("designer")?,
                last_idx: opt_u64("last_idx")?.unwrap_or(0),
            }),
            "executed" => Ok(Frame::Executed {
                seq: need_u64("seq")?,
                evaluations: need_u64("evaluations")?,
                violations_after: need_u32("violations_after")?,
                new_violations: need_str("new_violations")?,
                spin: need_bool("spin")?,
                cid: opt_u64("cid")?,
            }),
            "rejected" => Ok(Frame::Rejected {
                reason: need_str("reason")?,
                cid: opt_u64("cid")?,
            }),
            "err" => Ok(Frame::Error {
                message: need_str("message")?,
            }),
            "state" => Ok(Frame::State {
                operations: need_u64("operations")?,
                bound: need_u32("bound")?,
                violations: need_u32("violations")?,
            }),
            "prop" => Ok(Frame::Prop {
                name: need_str("name")?,
                lo: need_f64("lo")?,
                hi: need_f64("hi")?,
                bound: need_bool("bound")?,
            }),
            "end" => Ok(Frame::End),
            "event" => Ok(Frame::Event {
                seq: need_u64("seq")?,
                kind: need_str("kind")?,
                subject: need_str("subject")?,
                properties: need_str("properties")?,
                relative_size: need_f64("relative_size")?,
                idx: opt_u64("idx")?.unwrap_or(0),
            }),
            "ping" => Ok(Frame::Ping {
                nonce: need_u64("nonce")?,
            }),
            "pong" => Ok(Frame::Pong {
                nonce: need_u64("nonce")?,
            }),
            "warn" => Ok(Frame::Warning {
                message: need_str("message")?,
            }),
            "create" => Ok(Frame::CreateSession {
                name: need_str("name")?,
            }),
            "attach" => Ok(Frame::AttachSession {
                name: need_str("name")?,
            }),
            "list" => Ok(Frame::ListSessions),
            "detach" => Ok(Frame::DetachSession),
            "session" => Ok(Frame::SessionAttached {
                name: need_str("name")?,
                created: need_bool("created")?,
            }),
            "sessions" => Ok(Frame::SessionList {
                names: need_str("names")?,
                count: need_u32("count")?,
            }),
            "attach_rejected" => Ok(Frame::AttachRejected {
                name: need_str("name")?,
                reason: need_str("reason")?,
            }),
            "stats" => Ok(Frame::Stats {
                all: opt_bool("all")?,
            }),
            "watch" => Ok(Frame::Watch {
                all: opt_bool("all")?,
                interval_ms: need_u64("interval_ms")?,
            }),
            "dump" => Ok(Frame::Dump),
            "stats_reply" => Ok(Frame::StatsReply {
                session: need_str("session")?,
                connections: need_u32("connections")?,
                watch: opt_bool("watch")?,
                // Counters cross the wire keyed by `Counter::name`; a
                // counter a newer server knows and an older client does
                // not (or vice versa) simply reads as 0.
                counters: Box::new(CounterSnapshot::from_fn(|counter| {
                    get(counter.name()).and_then(|v| v.as_u64()).unwrap_or(0)
                })),
                events: opt_u64("events")?.unwrap_or(0),
                p50_us: opt_u64("p50_us")?.unwrap_or(0),
                p90_us: opt_u64("p90_us")?.unwrap_or(0),
                p99_us: opt_u64("p99_us")?.unwrap_or(0),
            }),
            "dump_reply" => Ok(Frame::DumpReply {
                session: need_str("session")?,
                count: need_u32("count")?,
                recorded: opt_u64("recorded")?.unwrap_or(0),
            }),
            "flight" => Ok(Frame::Flight {
                idx: need_u64("idx")?,
                line: need_str("line")?,
            }),
            // Negotiation frames: only `constraint` (the seed conflict) is
            // mandatory on a `propose` — client-sent proposes carry just
            // that, server-routed ones fill in every field.
            "propose" => Ok(Frame::Propose {
                seq: opt_u64("seq")?.unwrap_or(0),
                round: opt_u64("round")?.unwrap_or(0) as u32,
                proposer: opt_u64("proposer")?.unwrap_or(0) as u32,
                kind: opt_str("kind")?,
                constraint: need_str("constraint")?,
                property: opt_str("property")?,
                slack: opt_f64("slack")?,
                idx: opt_u64("idx")?.unwrap_or(0),
            }),
            "counter" => Ok(Frame::CounterProposal {
                seq: need_u64("seq")?,
                round: need_u32("round")?,
                designer: need_u32("designer")?,
                kind: need_str("kind")?,
                constraint: opt_str("constraint")?,
                property: opt_str("property")?,
                slack: opt_f64("slack")?,
                idx: opt_u64("idx")?.unwrap_or(0),
            }),
            "accept" => Ok(Frame::Accept {
                seq: need_u64("seq")?,
                round: need_u32("round")?,
                designer: need_u32("designer")?,
                idx: opt_u64("idx")?.unwrap_or(0),
            }),
            "reject" => Ok(Frame::Reject {
                seq: need_u64("seq")?,
                round: need_u32("round")?,
                designer: need_u32("designer")?,
                idx: opt_u64("idx")?.unwrap_or(0),
            }),
            "resolved" => Ok(Frame::Resolved {
                seq: opt_u64("seq")?.unwrap_or(0),
                constraint: need_str("constraint")?,
                rounds: need_u32("rounds")?,
                proposals: need_u32("proposals")?,
                outcome: need_str("outcome")?,
                idx: opt_u64("idx")?.unwrap_or(0),
            }),
            "negotiation_rejected" => Ok(Frame::NegotiationRejected {
                message: need_str("message")?,
            }),
            "overloaded" => Ok(Frame::Overloaded {
                retry_after_ms: need_u64("retry_after_ms")?,
                cid: opt_u64("cid")?,
            }),
            other => Err(WireError::new(format!("unknown frame tag `{other}`"))),
        }
    }
}

/// Outcome of draining one line from a [`LineBuffer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BufferedLine {
    /// One complete line, line terminator stripped.
    Line(String),
    /// Bytes discarded resynchronizing past an oversized or non-UTF-8
    /// line (terminator included) — the caller should count them into
    /// `wire_bytes_skipped` and may warn the peer.
    Skipped {
        /// How many bytes were thrown away.
        bytes: u64,
    },
}

/// The line framer both ends of a connection read through, with bounded
/// memory and skip accounting.
///
/// A `LineBuffer` accepts whatever bytes one socket read produced
/// ([`LineBuffer::push`]) and hands back complete lines as they form
/// ([`LineBuffer::take`]), so a line split across reads, or a read that
/// timed out mid-line, loses nothing. A partial line is never parsed.
/// A line that exceeds [`MAX_LINE_BYTES`] before its newline arrives is
/// dropped, the buffer resynchronizes at the next newline, and the count
/// of discarded bytes is reported as [`BufferedLine::Skipped`]; buffered
/// memory never exceeds the line limit plus one push.
#[derive(Debug, Default)]
pub struct LineBuffer {
    pending: Vec<u8>,
    skipping: bool,
    skipped: u64,
}

impl LineBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        LineBuffer::default()
    }

    /// Feeds bytes read from the transport into the buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        self.pending.extend_from_slice(bytes);
    }

    /// Whether any unconsumed bytes are buffered.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Drains the next complete line, if one has formed. Blank
    /// (whitespace-only) keep-alive lines are swallowed silently.
    pub fn take(&mut self) -> Option<BufferedLine> {
        loop {
            if self.skipping {
                match self.pending.iter().position(|b| *b == b'\n') {
                    Some(i) => {
                        self.skipped += (i + 1) as u64;
                        self.pending.drain(..=i);
                        self.skipping = false;
                        return Some(BufferedLine::Skipped {
                            bytes: std::mem::take(&mut self.skipped),
                        });
                    }
                    None => {
                        self.skipped += self.pending.len() as u64;
                        self.pending.clear();
                        return None;
                    }
                }
            }
            match self.pending.iter().position(|b| *b == b'\n') {
                Some(i) => {
                    let line: Vec<u8> = self.pending.drain(..=i).collect();
                    if line.len() > MAX_LINE_BYTES {
                        return Some(BufferedLine::Skipped {
                            bytes: line.len() as u64,
                        });
                    }
                    let mut slice = &line[..line.len() - 1];
                    if slice.last() == Some(&b'\r') {
                        slice = &slice[..slice.len() - 1];
                    }
                    if slice.iter().all(u8::is_ascii_whitespace) {
                        continue;
                    }
                    match std::str::from_utf8(slice) {
                        Ok(text) => return Some(BufferedLine::Line(text.to_owned())),
                        Err(_) => {
                            return Some(BufferedLine::Skipped {
                                bytes: line.len() as u64,
                            })
                        }
                    }
                }
                None => {
                    if self.pending.len() > MAX_LINE_BYTES {
                        self.skipping = true;
                        self.skipped = self.pending.len() as u64;
                        self.pending.clear();
                        continue;
                    }
                    return None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prop_lines_match_the_prop_frame_byte_for_byte() {
        for (name, lo, hi, bound) in [
            ("lna.gain", 0.0, 25.5, false),
            ("odd \"name\"\t", 1e-300, -0.0, true),
            ("empty", 1.0, 0.0, false),
        ] {
            let mut line = String::new();
            write_prop_line(&mut line, name, lo, hi, bound);
            let frame = Frame::Prop {
                name: name.into(),
                lo,
                hi,
                bound,
            };
            assert_eq!(line, frame.to_line());
        }
    }

    #[test]
    fn every_frame_kind_round_trips() {
        let frames = vec![
            Frame::Hello { designer: 2 },
            Frame::Subscribe {
                all: false,
                resume_from: None,
            },
            Frame::Subscribe {
                all: true,
                resume_from: Some(17),
            },
            Frame::Submit {
                op: WireOp::Assign {
                    problem: "pressure-sensor".into(),
                    property: "sensor.s-area".into(),
                    value: 4.0,
                },
                cid: None,
            },
            Frame::Submit {
                op: WireOp::Unbind {
                    problem: "p".into(),
                    property: "o.x".into(),
                },
                cid: Some(3),
            },
            Frame::Submit {
                op: WireOp::Verify {
                    problem: "top".into(),
                    constraints: "MeetArea,TotalNoise".into(),
                },
                cid: Some(u64::MAX),
            },
            Frame::Snapshot,
            Frame::Shutdown,
            Frame::Bye,
            Frame::Welcome {
                mode: "adpm".into(),
                designers: 3,
                properties: 26,
                constraints: 21,
            },
            Frame::Subscribed {
                designer: 1,
                last_idx: 9,
            },
            Frame::Executed {
                seq: 7,
                evaluations: 42,
                violations_after: 1,
                new_violations: "MeetArea".into(),
                spin: true,
                cid: Some(12),
            },
            Frame::Executed {
                seq: 8,
                evaluations: 0,
                violations_after: 0,
                new_violations: String::new(),
                spin: false,
                cid: None,
            },
            Frame::Rejected {
                reason: "value outside E_i".into(),
                cid: None,
            },
            Frame::Rejected {
                reason: "stale".into(),
                cid: Some(4),
            },
            Frame::Error {
                message: "unknown frame tag `wat`".into(),
            },
            Frame::State {
                operations: 9,
                bound: 4,
                violations: 1,
            },
            Frame::Prop {
                name: "interface.i-area".into(),
                lo: 0.5,
                hi: 4.0,
                bound: false,
            },
            Frame::End,
            Frame::Event {
                seq: 3,
                kind: "feasible_reduced".into(),
                subject: "interface.i-area".into(),
                properties: String::new(),
                relative_size: 0.625,
                idx: 11,
            },
            Frame::Ping { nonce: 99 },
            Frame::Pong { nonce: 99 },
            Frame::Warning {
                message: "skipped 70000 bytes".into(),
            },
            Frame::CreateSession {
                name: "team-alpha".into(),
            },
            Frame::AttachSession { name: "s2".into() },
            Frame::ListSessions,
            Frame::DetachSession,
            Frame::SessionAttached {
                name: "team-alpha".into(),
                created: true,
            },
            Frame::SessionAttached {
                name: "default".into(),
                created: false,
            },
            Frame::SessionList {
                names: "default,s1,s2".into(),
                count: 3,
            },
            Frame::AttachRejected {
                name: "ghost".into(),
                reason: "unknown session `ghost`".into(),
            },
            Frame::Stats { all: false },
            Frame::Stats { all: true },
            Frame::Watch {
                all: true,
                interval_ms: 500,
            },
            Frame::Watch {
                all: false,
                interval_ms: 0,
            },
            Frame::Dump,
            Frame::StatsReply {
                session: "team-alpha".into(),
                connections: 3,
                watch: true,
                counters: {
                    use adpm_observe::Counter;
                    Box::new(CounterSnapshot::from_fn(|c| match c {
                        Counter::SessionOps => 42,
                        Counter::InboxDropped => 2,
                        _ => c.index() as u64,
                    }))
                },
                events: 97,
                p50_us: 12,
                p90_us: 80,
                p99_us: 1500,
            },
            Frame::DumpReply {
                session: "default".into(),
                count: 256,
                recorded: 9000,
            },
            Frame::Flight {
                idx: 8745,
                line: "{\"t\":\"tick\",\"tick\":3,\"outcome\":\"executed\"}".into(),
            },
            Frame::Propose {
                seq: 12,
                round: 1,
                proposer: 0,
                kind: "widen".into(),
                constraint: "MeetArea".into(),
                property: String::new(),
                slack: 0.75,
                idx: 4,
            },
            Frame::Propose {
                seq: 0,
                round: 0,
                proposer: 0,
                kind: String::new(),
                constraint: "MeetArea".into(),
                property: String::new(),
                slack: 0.0,
                idx: 0,
            },
            Frame::CounterProposal {
                seq: 12,
                round: 1,
                designer: 2,
                kind: "unbind".into(),
                constraint: String::new(),
                property: "sensor.s-area".into(),
                slack: 0.0,
                idx: 5,
            },
            Frame::Accept {
                seq: 12,
                round: 2,
                designer: 1,
                idx: 6,
            },
            Frame::Reject {
                seq: 12,
                round: 2,
                designer: 2,
                idx: 7,
            },
            Frame::Resolved {
                seq: 13,
                constraint: "MeetArea".into(),
                rounds: 2,
                proposals: 2,
                outcome: "resolved".into(),
                idx: 8,
            },
            Frame::NegotiationRejected {
                message: "negotiation is disabled for this session".into(),
            },
            Frame::Overloaded {
                retry_after_ms: 250,
                cid: Some(42),
            },
            Frame::Overloaded {
                retry_after_ms: 0,
                cid: None,
            },
        ];
        for frame in frames {
            let line = frame.to_line();
            assert!(line.ends_with('\n'));
            assert_eq!(Frame::parse_line(&line), Ok(frame.clone()), "line: {line}");
        }
    }

    #[test]
    fn adversarial_names_survive_escaping() {
        let frame = Frame::Submit {
            op: WireOp::Assign {
                problem: "a\"b\\c\nd\te\u{1}f λ".into(),
                property: "obj.\u{7f}prop".into(),
                value: -1.25e-3,
            },
            cid: None,
        };
        let line = frame.to_line();
        assert_eq!(Frame::parse_line(&line), Ok(frame));
    }

    #[test]
    fn parse_rejects_malformed_frames_with_messages() {
        for (line, needle) in [
            ("{\"x\":1}", "\"t\" tag"),
            ("{\"t\":1}", "must be a string"),
            ("{\"t\":\"wat\"}", "unknown frame tag"),
            ("{\"t\":\"hello\"}", "needs integer `designer`"),
            ("{\"t\":\"hello\",\"designer\":-1}", "needs integer"),
            ("{\"t\":\"subscribe\",\"all\":1}", "needs boolean"),
            (
                "{\"t\":\"assign\",\"problem\":\"p\"}",
                "needs string `property`",
            ),
            (
                "{\"t\":\"assign\",\"problem\":\"p\",\"property\":\"o.x\",\"value\":\"high\"}",
                "needs number",
            ),
            ("{\"t\":\"hello\",\"designer\":{}}", "nested"),
            (
                "{\"t\":\"unbind\",\"problem\":\"p\",\"property\":\"o.x\",\"cid\":\"x\"}",
                "non-negative integer",
            ),
            (
                "{\"t\":\"subscribe\",\"all\":true,\"resume_from\":-3}",
                "non-negative integer",
            ),
            ("{\"t\":\"ping\"}", "needs integer `nonce`"),
            ("{\"t\":\"create\"}", "needs string `name`"),
            ("{\"t\":\"attach\",\"name\":7}", "needs string `name`"),
            (
                "{\"t\":\"session\",\"name\":\"s1\"}",
                "needs boolean `created`",
            ),
            (
                "{\"t\":\"sessions\",\"names\":\"a,b\"}",
                "needs integer `count`",
            ),
            (
                "{\"t\":\"attach_rejected\",\"name\":\"x\"}",
                "needs string `reason`",
            ),
            ("{\"t\":\"stats\",\"all\":1}", "must be a boolean"),
            (
                "{\"t\":\"watch\",\"all\":true}",
                "needs integer `interval_ms`",
            ),
            (
                "{\"t\":\"stats_reply\",\"connections\":1}",
                "needs string `session`",
            ),
            (
                "{\"t\":\"stats_reply\",\"session\":\"s\"}",
                "needs integer `connections`",
            ),
            (
                "{\"t\":\"dump_reply\",\"session\":\"s\"}",
                "needs integer `count`",
            ),
            ("{\"t\":\"flight\",\"idx\":1}", "needs string `line`"),
            ("{\"t\":\"propose\"}", "needs string `constraint`"),
            (
                "{\"t\":\"propose\",\"constraint\":\"C\",\"slack\":\"big\"}",
                "must be a number",
            ),
            (
                "{\"t\":\"propose\",\"constraint\":\"C\",\"kind\":7}",
                "must be a string",
            ),
            (
                "{\"t\":\"counter\",\"seq\":1,\"round\":1,\"designer\":0}",
                "needs string `kind`",
            ),
            (
                "{\"t\":\"accept\",\"seq\":1,\"round\":1}",
                "needs integer `designer`",
            ),
            (
                "{\"t\":\"reject\",\"seq\":1,\"designer\":0}",
                "needs integer `round`",
            ),
            (
                "{\"t\":\"resolved\",\"constraint\":\"C\",\"rounds\":1,\"proposals\":1}",
                "needs string `outcome`",
            ),
            ("{\"t\":\"negotiation_rejected\"}", "needs string `message`"),
            ("{\"t\":\"overloaded\"}", "needs integer `retry_after_ms`"),
            (
                "{\"t\":\"overloaded\",\"retry_after_ms\":5,\"cid\":\"x\"}",
                "non-negative integer",
            ),
            ("not json", "expected"),
            ("{}", "empty frame"),
        ] {
            let err = Frame::parse_line(line).expect_err(line);
            assert!(
                err.message.contains(needle),
                "line {line:?}: message {:?} missing {needle:?}",
                err.message
            );
        }
    }

    #[test]
    fn stats_reply_counter_fields_stay_a_subset_of_the_counter_enum() {
        use adpm_observe::Counter;
        let line = Frame::StatsReply {
            session: "s".into(),
            connections: 1,
            watch: false,
            counters: Box::new(CounterSnapshot::from_fn(|c| c.index() as u64 + 1)),
            events: 5,
            p50_us: 1,
            p90_us: 2,
            p99_us: 3,
        }
        .to_line();
        let metadata = [
            "t",
            "session",
            "connections",
            "watch",
            "events",
            "p50_us",
            "p90_us",
            "p99_us",
        ];
        let fields = parse_object(line.trim_end(), 0).expect("flat JSON");
        let mut counter_fields = 0;
        for (key, _) in &fields {
            if metadata.contains(&key.as_str()) {
                continue;
            }
            assert!(
                Counter::ALL.iter().any(|c| c.name() == key),
                "stats_reply field `{key}` is not a Counter name"
            );
            counter_fields += 1;
        }
        assert_eq!(
            counter_fields,
            Counter::COUNT,
            "every counter crosses the wire"
        );
    }

    #[test]
    fn optional_fields_are_omitted_from_the_line_when_absent() {
        let line = Frame::Submit {
            op: WireOp::Unbind {
                problem: "p".into(),
                property: "o.x".into(),
            },
            cid: None,
        }
        .to_line();
        assert!(!line.contains("cid"), "line: {line}");
        let line = Frame::Subscribe {
            all: true,
            resume_from: None,
        }
        .to_line();
        assert!(!line.contains("resume_from"), "line: {line}");
        assert_eq!(
            Frame::parse_line("{\"t\":\"subscribe\"}"),
            Ok(Frame::Subscribe {
                all: false,
                resume_from: None
            })
        );
        // Pre-resilience peers omit idx/last_idx entirely; both default 0.
        assert_eq!(
            Frame::parse_line("{\"t\":\"subscribed\",\"designer\":1}"),
            Ok(Frame::Subscribed {
                designer: 1,
                last_idx: 0
            })
        );
    }

    #[test]
    fn line_buffer_assembles_lines_across_partial_pushes() {
        let mut buffer = LineBuffer::new();
        let line = Frame::Hello { designer: 4 }.to_line();
        let (a, b) = line.as_bytes().split_at(line.len() / 2);
        buffer.push(a);
        assert_eq!(buffer.take(), None);
        buffer.push(b);
        buffer.push(Frame::Bye.to_line().as_bytes());
        assert_eq!(
            buffer.take(),
            Some(BufferedLine::Line(line.trim_end().to_owned()))
        );
        assert_eq!(
            buffer.take(),
            Some(BufferedLine::Line("{\"t\":\"bye\"}".into()))
        );
        assert_eq!(buffer.take(), None);
    }

    #[test]
    fn line_buffer_skips_oversized_lines_and_counts_the_bytes() {
        let mut buffer = LineBuffer::new();
        let garbage = "x".repeat(MAX_LINE_BYTES + 10);
        buffer.push(garbage.as_bytes());
        // Oversized before any newline: memory is released immediately.
        assert_eq!(buffer.take(), None);
        buffer.push(b"tail\n");
        buffer.push(Frame::Bye.to_line().as_bytes());
        assert_eq!(
            buffer.take(),
            Some(BufferedLine::Skipped {
                bytes: (MAX_LINE_BYTES + 10 + 5) as u64
            })
        );
        assert_eq!(
            buffer.take(),
            Some(BufferedLine::Line("{\"t\":\"bye\"}".into()))
        );
    }

    #[test]
    fn line_buffer_skips_invalid_utf8_and_blank_lines() {
        let mut buffer = LineBuffer::new();
        buffer.push(b"  \r\n");
        buffer.push(&[0xff, 0xfe, b'\n']);
        buffer.push(Frame::End.to_line().as_bytes());
        assert_eq!(buffer.take(), Some(BufferedLine::Skipped { bytes: 3 }));
        assert_eq!(
            buffer.take(),
            Some(BufferedLine::Line("{\"t\":\"end\"}".into()))
        );
        assert_eq!(buffer.take(), None);
    }
}
