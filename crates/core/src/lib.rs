//! # adpm-core
//!
//! The Active Design Process Management (ADPM) model from *Application of
//! Constraint-Based Heuristics in Collaborative Design* (Carballo &
//! Director, DAC 2001) — the paper's primary contribution.
//!
//! A design process here is a state-based system: a hierarchy of
//! [`DesignProblem`]s `(I_i, O_i, T_i)` over a
//! [`ConstraintNetwork`](adpm_constraint::ConstraintNetwork), advanced by
//! [`Operation`]s through the [`DesignProcessManager`]'s next-state function
//! `δ`. The DPM runs in one of two [`ManagementMode`]s (the paper's `λ`
//! flag):
//!
//! * **ADPM** — after every operation the Design Constraint Manager runs
//!   constraint propagation, heuristic support data (`v_F`, `α`, `β`,
//!   repair directions) is mined, and the Notification Manager routes
//!   [`Event`]s to the affected designers;
//! * **Conventional** — no propagation; constraint statuses are learned
//!   only from explicit verification operations, and re-binding a property
//!   invalidates earlier verification results.
//!
//! The per-operation [`OperationRecord`]s capture exactly the metrics the
//! paper's TeamSim reports: constraint evaluations, violations found, and
//! design *spins* (repair operations reacting to cross-subsystem
//! violations).
//!
//! See [`browse`] for textual renderings of the paper's Figs. 2–4 browsers.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod browse;
mod dpm;
mod events;
mod ids;
mod operation;
mod problem;
mod replay;

pub use dpm::{DesignProcessManager, DpmConfig, ManagementMode, OperationError};
pub use events::{Event, InterestSet, NegotiationAnswer, Proposal};
pub use ids::{DesignerId, ProblemId};
pub use operation::{Operation, OperationRecord, Operator};
pub use problem::{DesignProblem, ProblemSet, ProblemStatus};
pub use replay::{audit_trace, replay_history, state_fingerprint, ReplayOutcome, TraceAudit};
