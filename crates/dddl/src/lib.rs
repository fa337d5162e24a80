//! # adpm-dddl
//!
//! The DDDL design-description language used to configure TeamSim scenarios
//! (paper §3.1.2, after Sutton & Director's design-process description
//! language). A scenario declares design objects with typed properties,
//! constraints (optionally with monotonicity clauses, exactly like the
//! paper's filter-loss example), and a problem hierarchy with designer
//! assignments.
//!
//! ```
//! use adpm_dddl::compile_source;
//! use adpm_core::DpmConfig;
//!
//! let scenario = compile_source(r#"
//!     object Filter {
//!         property res-len : interval(5, 20) units "um";
//!         property beam-w  : interval(1, 4);
//!     }
//!     constraint FilterLoss: 100 / Filter.res-len - Filter.beam-w <= 10
//!         monotonic decreasing in Filter.res-len,
//!                   increasing in Filter.beam-w;
//!     problem filter { outputs: Filter.res-len, Filter.beam-w;
//!                      constraints: FilterLoss; designer 0; }
//! "#)?;
//! let dpm = scenario.build_dpm(DpmConfig::adpm());
//! assert_eq!(dpm.problems().len(), 1);
//! # Ok::<(), adpm_dddl::DddlError>(())
//! ```
//!
//! The pipeline is [`token`] (lexing) → [`parse`] (AST) → [`compile()`]
//! (name resolution + lowering into an
//! [`adpm_constraint::ConstraintNetwork`]) → [`CompiledScenario::build_dpm`]
//! (a fresh [`adpm_core::DesignProcessManager`] per simulation run). A
//! built DPM can be instrumented before use — see
//! [`adpm_core::DesignProcessManager::set_sink`] and
//! `docs/OBSERVABILITY.md` — so every compiled scenario is traceable
//! without DDDL-level changes.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ast;
mod compile;
mod error;
mod parser;
mod pretty;
pub mod token;

pub use compile::{compile, compile_source, CompiledScenario};
pub use error::{DddlError, Position};
pub use parser::parse;
pub use pretty::to_source;
