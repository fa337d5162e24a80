//! Design operations `θ = (operator, problem, parameters)`.
//!
//! The paper distinguishes synthesis/optimization operators (compute output
//! values), verification operators (check constraints), and decomposition
//! operators (split a problem). Operations additionally carry the designer
//! who requested them — the Notification Manager routes feedback by
//! designer — and, for value changes, the violations that motivated them
//! (used for spin accounting).

use crate::ids::{DesignerId, ProblemId};
use adpm_constraint::{ConstraintId, PropertyId, Relaxation, Value};
use std::fmt;

/// The operator applied by a design operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Operator {
    /// Synthesis: bind an output property of the problem to a value.
    /// In practice this stands for invoking a synthesis/editing tool and
    /// committing its result.
    Assign {
        /// The output property being bound.
        property: PropertyId,
        /// The chosen value.
        value: Value,
    },
    /// Backtracking: remove an output property's value.
    Unbind {
        /// The output property being unbound.
        property: PropertyId,
    },
    /// Verification: run checks for the given constraints (a "tool run"
    /// per constraint). An empty list means "verify all constraints of the
    /// problem whose inputs are bound".
    Verify {
        /// Constraints to check; empty means all ready constraints of the
        /// problem.
        constraints: Vec<ConstraintId>,
    },
    /// Decomposition: split the problem into named subproblems.
    Decompose {
        /// Names of the subproblems to create, in order.
        subproblems: Vec<String>,
    },
    /// Negotiated relaxation: rewrite a constraint (widen its bound or drop
    /// a soft one) as agreed by a negotiation round. Journaled and replayed
    /// like any other operation.
    Relax {
        /// The constraint being relaxed.
        constraint: ConstraintId,
        /// The agreed rewrite.
        relaxation: Relaxation,
    },
}

impl Operator {
    /// Short operator kind name for logs and statistics.
    pub fn kind(&self) -> &'static str {
        match self {
            Operator::Assign { .. } => "assign",
            Operator::Unbind { .. } => "unbind",
            Operator::Verify { .. } => "verify",
            Operator::Decompose { .. } => "decompose",
            Operator::Relax { .. } => "relax",
        }
    }

    /// The property the operator targets, for value-changing operators.
    pub fn target_property(&self) -> Option<PropertyId> {
        match self {
            Operator::Assign { property, .. } | Operator::Unbind { property } => Some(*property),
            _ => None,
        }
    }
}

/// A design operation: an operator applied to a problem by a designer.
///
/// # Examples
///
/// ```
/// use adpm_core::{Operation, Operator, ProblemId, DesignerId};
/// use adpm_constraint::{PropertyId, Value};
/// let op = Operation::assign(
///     DesignerId::new(0),
///     ProblemId::new(1),
///     PropertyId::new(3),
///     Value::number(0.2),
/// );
/// assert_eq!(op.operator().kind(), "assign");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Operation {
    designer: DesignerId,
    problem: ProblemId,
    operator: Operator,
    /// Violations the designer is reacting to with this operation (empty
    /// for forward design work). The DPM uses this plus its own status
    /// knowledge for spin accounting.
    repairs: Vec<ConstraintId>,
}

impl Operation {
    /// Creates an operation from its parts.
    pub fn new(designer: DesignerId, problem: ProblemId, operator: Operator) -> Self {
        Operation {
            designer,
            problem,
            operator,
            repairs: Vec::new(),
        }
    }

    /// Convenience constructor for an assignment operation.
    pub fn assign(
        designer: DesignerId,
        problem: ProblemId,
        property: PropertyId,
        value: Value,
    ) -> Self {
        Operation::new(designer, problem, Operator::Assign { property, value })
    }

    /// Convenience constructor for an unbind (backtrack) operation.
    pub fn unbind(designer: DesignerId, problem: ProblemId, property: PropertyId) -> Self {
        Operation::new(designer, problem, Operator::Unbind { property })
    }

    /// Convenience constructor for a verification request.
    pub fn verify(designer: DesignerId, problem: ProblemId) -> Self {
        Operation::new(
            designer,
            problem,
            Operator::Verify {
                constraints: Vec::new(),
            },
        )
    }

    /// Convenience constructor for a negotiated constraint relaxation.
    pub fn relax(
        designer: DesignerId,
        problem: ProblemId,
        constraint: ConstraintId,
        relaxation: Relaxation,
    ) -> Self {
        Operation::new(
            designer,
            problem,
            Operator::Relax {
                constraint,
                relaxation,
            },
        )
    }

    /// Convenience constructor for a decomposition.
    pub fn decompose<S: Into<String>>(
        designer: DesignerId,
        problem: ProblemId,
        subproblems: impl IntoIterator<Item = S>,
    ) -> Self {
        Operation::new(
            designer,
            problem,
            Operator::Decompose {
                subproblems: subproblems.into_iter().map(Into::into).collect(),
            },
        )
    }

    /// Marks the violations this operation reacts to (repair work).
    pub fn with_repairs(mut self, repairs: impl IntoIterator<Item = ConstraintId>) -> Self {
        self.repairs = repairs.into_iter().collect();
        self
    }

    /// The requesting designer.
    pub fn designer(&self) -> DesignerId {
        self.designer
    }

    /// The problem the operation addresses.
    pub fn problem(&self) -> ProblemId {
        self.problem
    }

    /// The operator and its parameters.
    pub fn operator(&self) -> &Operator {
        &self.operator
    }

    /// Violations that motivated the operation (empty for forward work).
    pub fn repairs(&self) -> &[ConstraintId] {
        &self.repairs
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.operator {
            Operator::Assign { property, value } => {
                write!(
                    f,
                    "{}: assign {property} = {value} on {}",
                    self.designer, self.problem
                )
            }
            Operator::Unbind { property } => {
                write!(
                    f,
                    "{}: unbind {property} on {}",
                    self.designer, self.problem
                )
            }
            Operator::Verify { constraints } => {
                if constraints.is_empty() {
                    write!(f, "{}: verify {}", self.designer, self.problem)
                } else {
                    write!(
                        f,
                        "{}: verify {} constraints on {}",
                        self.designer,
                        constraints.len(),
                        self.problem
                    )
                }
            }
            Operator::Decompose { subproblems } => write!(
                f,
                "{}: decompose {} into {} subproblems",
                self.designer,
                self.problem,
                subproblems.len()
            ),
            Operator::Relax {
                constraint,
                relaxation,
            } => write!(
                f,
                "{}: relax {constraint} ({relaxation}) on {}",
                self.designer, self.problem
            ),
        }
    }
}

/// What a single executed operation did to the design state — one entry of
/// the design process history `H_n`, and the row TeamSim captures per
/// operation (violations found, evaluations run, assignments made).
#[derive(Debug, Clone, PartialEq)]
pub struct OperationRecord {
    /// 1-based index of the operation in the history.
    pub sequence: usize,
    /// The executed operation.
    pub operation: Operation,
    /// Constraint evaluations performed because of this operation
    /// (propagation revisions in ADPM, verification runs conventionally).
    pub evaluations: usize,
    /// Violations known immediately after the operation.
    pub violations_after: usize,
    /// Violations newly discovered by this operation.
    pub new_violations: Vec<ConstraintId>,
    /// Whether this operation was a *design spin*: repair work caused by a
    /// violation spanning multiple subsystems.
    pub spin: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_build_expected_operators() {
        let d = DesignerId::new(0);
        let p = ProblemId::new(0);
        assert_eq!(
            Operation::assign(d, p, PropertyId::new(1), Value::number(1.0))
                .operator()
                .kind(),
            "assign"
        );
        assert_eq!(
            Operation::unbind(d, p, PropertyId::new(1))
                .operator()
                .kind(),
            "unbind"
        );
        assert_eq!(Operation::verify(d, p).operator().kind(), "verify");
        assert_eq!(
            Operation::decompose(d, p, ["a", "b"]).operator().kind(),
            "decompose"
        );
    }

    #[test]
    fn target_property_only_for_value_ops() {
        let d = DesignerId::new(0);
        let p = ProblemId::new(0);
        let prop = PropertyId::new(7);
        assert_eq!(
            Operation::assign(d, p, prop, Value::number(0.0))
                .operator()
                .target_property(),
            Some(prop)
        );
        assert_eq!(
            Operation::unbind(d, p, prop).operator().target_property(),
            Some(prop)
        );
        assert_eq!(Operation::verify(d, p).operator().target_property(), None);
    }

    #[test]
    fn repairs_round_trip() {
        let op = Operation::verify(DesignerId::new(0), ProblemId::new(0))
            .with_repairs([ConstraintId::new(3)]);
        assert_eq!(op.repairs(), &[ConstraintId::new(3)]);
    }

    #[test]
    fn display_mentions_actor_and_kind() {
        let op = Operation::assign(
            DesignerId::new(1),
            ProblemId::new(2),
            PropertyId::new(3),
            Value::number(0.2),
        );
        let s = op.to_string();
        assert!(s.contains("designer1"));
        assert!(s.contains("assign"));
        assert!(s.contains("prob2"));
    }
}
