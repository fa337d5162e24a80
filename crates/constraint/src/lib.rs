//! # adpm-constraint
//!
//! Constraint-network substrate for the reproduction of *Application of
//! Constraint-Based Heuristics in Collaborative Design* (Carballo &
//! Director, DAC 2001).
//!
//! The paper's Design Constraint Manager views a design as a set of
//! *properties* (variables with value ranges `E_i`) related by *constraints*
//! (`c_i(a_i): S_i -> {T, F}`). This crate provides:
//!
//! * [`Property`] / [`Domain`] / [`Value`] — properties, their initial value
//!   ranges, and bound values;
//! * [`expr`] — arithmetic expressions over properties with point
//!   evaluation, interval evaluation, and symbolic differentiation;
//! * [`Constraint`] / [`ConstraintStatus`] — three-valued constraint status
//!   per the paper's Eq. (1);
//! * [`ConstraintNetwork`] — the network `C_n`, with `α`/`β` counts and
//!   cross-object (spin-relevant) classification;
//! * [`propagate()`] — the DCM's propagation algorithm (HC4-revise inside an
//!   AC-3 worklist) computing infeasible values and statuses while counting
//!   constraint evaluations, the paper's tool-run proxy. Each constraint is
//!   lowered once, when it is added or relaxed, to a flat interval program
//!   the worklist revises against dense structure-of-arrays interval
//!   storage. Violation explanations ([`explain_violation`]) and conflict
//!   sets ([`minimal_conflict_set`]) revise through the same programs; an
//!   AST interpreter computing the same revisions exists only in test
//!   builds, as the reference all three are checked against;
//! * [`propagate_observed`] — the same algorithm reporting per-wave spans
//!   and counters to an [`adpm_observe::MetricsSink`], with
//!   [`propagate_profiled`] additionally timing spans against an injectable
//!   [`adpm_observe::Clock`] and attributing evaluations / narrowings to
//!   individual constraints and properties;
//! * [`propagate_incremental`] — region propagation: the same run body
//!   restricted to the properties and constraints the changes since the
//!   last fixed point can move, equal to a full run bit for bit;
//! * [`helps_direction`] — constraint monotonicity (declared or inferred);
//! * [`HeuristicReport`] — the mined per-property heuristic support data
//!   (`v_F` size, `β_i`, `α_i`, repair directions) of the paper's §2.3.
//!
//! ## Quick example
//!
//! The receiver power budget from the paper's §2.1, `P_f + P_s <= P_M`:
//!
//! ```
//! use adpm_constraint::{ConstraintNetwork, Property, Domain, Relation, Value,
//!                       propagate, PropagationConfig, expr::var};
//! # fn main() -> Result<(), adpm_constraint::NetworkError> {
//! let mut net = ConstraintNetwork::new();
//! let pf = net.add_property(Property::new("P-front", "rx", Domain::interval(0.0, 300.0)))?;
//! let ps = net.add_property(Property::new("P-ser", "rx", Domain::interval(0.0, 300.0)))?;
//! let pm = net.add_property(Property::new("P-max", "rx", Domain::interval(200.0, 200.0)))?;
//! net.add_constraint("power", var(pf) + var(ps), Relation::Le, var(pm))?;
//!
//! net.bind(pf, Value::number(150.0))?;
//! let outcome = propagate(&mut net, &PropagationConfig::default());
//! assert!(outcome.reached_fixpoint);
//! // The deserializer power budget has been narrowed to [0, 50].
//! assert_eq!(net.feasible(ps), &Domain::interval(0.0, 50.0));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arena;
mod compile;
mod constraint;
mod domain;
mod error;
mod explain;
pub mod expr;
mod heuristics;
mod ids;
#[cfg(test)]
mod interp;
mod interval;
mod mcs;
mod monotone;
mod network;
mod propagate;
mod value;

pub use constraint::{Constraint, ConstraintStatus, Relation, RelaxError, Relaxation, EQ_TOL};
pub use domain::Domain;
pub use error::NetworkError;
pub use explain::{
    explain_all_violations, explain_violation, ArgumentDiagnosis, ViolationExplanation,
};
pub use expr::Expr;
pub use heuristics::{HeuristicReport, PropertyInsight};
pub use ids::{ConstraintId, PropertyId};
pub use interval::Interval;
pub use mcs::{minimal_conflict_set, subset_conflicts, MinimalConflictSet};
pub use monotone::{helps_direction, local_helps_direction};
pub use network::{ConstraintNetwork, HelpsDirection, Property};
pub use propagate::{
    propagate, propagate_incremental, propagate_incremental_profiled, propagate_observed,
    propagate_profiled, PropagationConfig, PropagationKind, PropagationOutcome,
};
pub use value::{Value, VALUE_EPS};
