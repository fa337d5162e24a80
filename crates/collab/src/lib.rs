//! Concurrent collaboration engine for the ADPM reproduction.
//!
//! The paper's Design Process Manager is a shared resource: several
//! designers operate on the same constraint network, and the Notification
//! Manager routes change events to the "affected designers". This crate
//! makes that concurrent story real while keeping the core engine
//! single-threaded and deterministic:
//!
//! - [`session`] — a [`SessionEngine`] owns the
//!   [`DesignProcessManager`](adpm_core::DesignProcessManager) behind a
//!   single session lock. Clones of [`SessionHandle`] submit
//!   operations, subscribe, and snapshot from any thread, each call
//!   running on its caller's thread under the lock; because one command
//!   at a time mutates the DPM, every concurrent history is already a
//!   valid sequential history (linearizability by construction) and can
//!   be replayed by `adpm-core`'s replay module.
//! - [`notify`] — delivery for the DPM's Notification Manager: every
//!   event routed to a designer goes into each of that designer's bounded
//!   [`Inbox`]es, with overflow accounting instead of silent drops.
//! - [`wire`] — a line-delimited JSONL protocol (one flat object per
//!   line, same escaping and parser as `adpm-observe` traces) spoken by
//!   `adpm serve` / `adpm client`.
//! - [`server`] / [`client`] — a `std::net` TCP server hosting a
//!   **registry of named sessions** (each with its own engine, journal,
//!   event log, and name tables; every connection starts in the default
//!   session and may rebind with `create`/`attach`/`detach` frames), and
//!   a small blocking client used by the CLI and the concurrent TeamSim
//!   driver.
//! - [`concurrent`] — `teamsim --concurrent`: simulated designers as
//!   real threads against one session, deterministic under a seeded
//!   per-designer RNG plus an optional turn barrier.
//!
//! Fault tolerance is layered on top (this is where the collaborative
//! story earns the word *robust*):
//!
//! - [`journal`] — an append-only JSONL operation journal with periodic
//!   fingerprint checkpoints; `adpm serve --journal` recovers a crashed
//!   session by replaying the longest valid prefix through
//!   [`replay_history`](adpm_core::replay_history).
//! - [`resilient`] — [`ResilientClient`]: automatic reconnect with capped
//!   exponential backoff and seeded jitter, exactly-once resubmission via
//!   client operation ids, and subscription resume that redelivers the
//!   missed event gap exactly once.
//! - [`fault`] — deterministic seeded fault injection ([`FaultPlan`])
//!   that drops, delays, duplicates, truncates, and corrupts frames at
//!   the write path, for chaos tests that demand bit-identical final
//!   state from faulty and clean runs.
//! - [`error`] — the retryable-vs-fatal [`CollabError`] taxonomy backing
//!   `adpm submit`'s distinct exit codes.
//!
//! Observability is threaded through from day one: session commands and
//! notification fan-out emit `session` / `notify` spans and the
//! `session_ops` / `inbox_delivered` / `inbox_dropped` counters through
//! the DPM's existing `MetricsSink`, so `adpm analyze` sees collaboration
//! traffic with no extra plumbing.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod concurrent;
pub mod error;
pub mod fault;
pub mod journal;
mod names;
pub mod negotiate;
pub mod notify;
pub mod resilient;
pub mod server;
pub mod session;
pub mod wire;

pub use adpm_core::InterestSet;
pub use client::CollabClient;
pub use concurrent::{run_concurrent_dpm, run_concurrent_remote, ConcurrentOutcome};
pub use error::CollabError;
pub use fault::{DiskFaultInjector, DiskWriteFault, FaultAction, FaultInjector, FaultPlan};
pub use journal::{
    recover, valid_prefix_bytes, FsyncPolicy, JournalConfig, JournalError, JournalWriter,
    RecoveryReport, RecoveryWarning,
};
pub use negotiate::{negotiate, NegotiationConfig, NegotiationOutcome, DEFAULT_MAX_ROUNDS};
pub use notify::{Inbox, InboxEntry};
pub use resilient::{ReconnectConfig, ResilientClient};
pub use server::{CollabServer, ServerOptions, SessionFactory, DEFAULT_SESSION};
pub use session::{
    NegotiationReport, OpOutcome, RejectReason, SessionClosed, SessionEngine, SessionHandle,
    SessionOptions, DEFAULT_INBOX_CAPACITY,
};
pub use wire::{BufferedLine, Frame, LineBuffer, WireError, WireErrorKind, WireOp, MAX_LINE_BYTES};
