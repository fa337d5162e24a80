//! # adpm-teamsim
//!
//! TeamSim — the design-process evaluation environment of *Application of
//! Constraint-Based Heuristics in Collaborative Design* (DAC 2001, §3).
//!
//! TeamSim simulates a design team working on a compiled DDDL scenario:
//! each [`SimulatedDesigner`] implements the paper's designer model
//! (`f_o = f_v ∘ f_a ∘ f_p` with the constraint-based heuristics of §2.3),
//! the [`Simulation`] engine drives them against a
//! [`DesignProcessManager`](adpm_core::DesignProcessManager) in either
//! management mode (the `λ` flag), and [`stats`]/[`report`] capture and
//! render the metrics the paper evaluates: executed operations, constraint
//! evaluations, violations per operation, and design spins.
//!
//! ```
//! use adpm_teamsim::{run_once, SimulationConfig};
//! use adpm_scenarios::lna_walkthrough;
//!
//! let scenario = lna_walkthrough();
//! let adpm = run_once(&scenario, SimulationConfig::adpm(42));
//! let conventional = run_once(&scenario, SimulationConfig::conventional(42));
//! assert!(adpm.completed && conventional.completed);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod designer;
mod engine;
mod negotiation;
pub mod report;
pub mod stats;

pub use config::{ForwardOrdering, HeuristicToggles, SimulationConfig};
pub use designer::SimulatedDesigner;
pub use engine::{run_once, run_once_instrumented, run_once_with_sink, Simulation, StepOutcome};
pub use negotiation::NegotiationPolicy;
pub use stats::{percentile, Batch, OperationStat, RunStats, Summary};
