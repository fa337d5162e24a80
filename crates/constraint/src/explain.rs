//! Violation explanations: turning a violated constraint into the report a
//! designer would want to read.
//!
//! The paper's Fig. 4 shows Minerva III explaining conflicts by listing,
//! for each violated constraint, the values required of each property
//! ("[48.000000 48.000000] required by LNAGain-C10"). This module computes
//! that data: for every argument of a violated constraint, the *required
//! interval* — the values that would satisfy the constraint with every
//! other argument left as it currently stands — together with the current
//! value/range and the direction that helps. Each required interval is one
//! revision of the constraint's compiled program with that argument freed
//! to its initial range.

use crate::compile::ReviseScratch;
use crate::constraint::ConstraintStatus;
use crate::ids::{ConstraintId, PropertyId};
use crate::interval::Interval;
use crate::monotone::helps_direction;
use crate::network::{ConstraintNetwork, HelpsDirection};
use std::fmt;

/// Per-argument diagnosis of a violated constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct ArgumentDiagnosis {
    /// The argument property.
    pub property: PropertyId,
    /// Its display name (`object.name`).
    pub name: String,
    /// Its current effective range (bound value as a singleton).
    pub current: Interval,
    /// The values that would satisfy the constraint if only this property
    /// moved (empty when no single-property fix exists).
    pub required: Interval,
    /// The direction in which moving the property helps, if monotonic.
    pub helps: Option<HelpsDirection>,
}

/// Explanation of one violated constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct ViolationExplanation {
    /// The violated constraint.
    pub constraint: ConstraintId,
    /// Its name.
    pub name: String,
    /// The constraint's relation rendered as text, its properties by
    /// qualified name (`object.name`).
    pub rendering: String,
    /// The gap interval `lhs - rhs` over the current ranges — how far the
    /// relation is from holding.
    pub gap: Interval,
    /// Per-argument diagnoses.
    pub arguments: Vec<ArgumentDiagnosis>,
}

impl fmt::Display for ViolationExplanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} is violated: {}", self.name, self.rendering)?;
        writeln!(f, "  gap (lhs - rhs): {}", self.gap)?;
        for arg in &self.arguments {
            write!(f, "  {:<20} current {}", arg.name, arg.current)?;
            if arg.required.is_empty() {
                write!(f, "  (no single-property fix)")?;
            } else {
                write!(f, "  required {} by {}", arg.required, self.name)?;
            }
            if let Some(dir) = arg.helps {
                write!(f, "  [{dir} helps]")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Explains why `cid` is violated over the network's current state.
///
/// Returns `None` if the constraint's last computed status is not
/// [`ConstraintStatus::Violated`] — there is nothing to explain.
///
/// # Examples
///
/// ```
/// use adpm_constraint::{ConstraintNetwork, Property, Domain, Relation, Value,
///                       explain_violation, expr::{var, cst}};
/// # fn main() -> Result<(), adpm_constraint::NetworkError> {
/// let mut net = ConstraintNetwork::new();
/// let g = net.add_property(Property::new("LNA-gain", "lna", Domain::interval(0.0, 100.0)))?;
/// let c = net.add_constraint("LNAGain", var(g), Relation::Ge, cst(48.0))?;
/// net.bind(g, Value::number(32.0))?;
/// net.evaluate_statuses();
/// let explanation = explain_violation(&net, c).expect("violated");
/// assert!(explanation.to_string().contains("required"));
/// # Ok(())
/// # }
/// ```
pub fn explain_violation(
    net: &ConstraintNetwork,
    cid: ConstraintId,
) -> Option<ViolationExplanation> {
    if net.status(cid) != ConstraintStatus::Violated {
        return None;
    }
    let constraint = net.constraint(cid);
    let gap = constraint.gap_interval(&|pid| net.effective_interval(pid));
    let programs = net.programs();
    let mut arena = programs.load_arena(net, Some(&[cid]));
    let mut scratch = ReviseScratch::new();
    let mut narrowed = Vec::new();
    let arguments = constraint
        .argument_slice()
        .iter()
        .map(|pid| {
            let meta = net.property(*pid);
            let current = net.effective_interval(*pid);
            // Required interval: free this property over its initial range,
            // keep every other argument at its current effective range, and
            // project the constraint onto it with one HC4 revision.
            let freed = meta
                .initial_domain()
                .enclosing_interval()
                .unwrap_or(Interval::UNIVERSE);
            arena.set(*pid, freed);
            let conflict = programs.revise(cid, &arena, &mut scratch, &mut narrowed);
            arena.set(*pid, current);
            let required = if conflict {
                Interval::EMPTY
            } else {
                narrowed
                    .iter()
                    .find(|(p, _)| p == pid)
                    .map_or(freed, |(_, iv)| *iv)
            };
            ArgumentDiagnosis {
                property: *pid,
                name: meta.qualified_name().to_owned(),
                current,
                required,
                helps: helps_direction(net, cid, *pid),
            }
        })
        .collect();
    Some(ViolationExplanation {
        constraint: cid,
        name: constraint.name().to_owned(),
        rendering: constraint.render_named(&|pid| net.property(pid).qualified_name()),
        gap,
        arguments,
    })
}

/// Explains every currently violated constraint, in ascending constraint-id
/// order. The order is sorted explicitly — negotiation proposal ranking and
/// golden traces consume this list, so it must stay deterministic even if
/// [`ConstraintNetwork::violated_constraints`] ever changes its iteration
/// order.
pub fn explain_all_violations(net: &ConstraintNetwork) -> Vec<ViolationExplanation> {
    let mut violated = net.violated_constraints();
    violated.sort_unstable();
    violated
        .into_iter()
        .filter_map(|cid| explain_violation(net, cid))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::expr::{cst, var};
    use crate::network::Property;
    use crate::value::Value;
    use crate::Relation;

    fn gain_net() -> (ConstraintNetwork, PropertyId, PropertyId, ConstraintId) {
        let mut net = ConstraintNetwork::new();
        let g = net
            .add_property(Property::new(
                "LNA-gain",
                "lna",
                Domain::interval(0.0, 100.0),
            ))
            .unwrap();
        let loss = net
            .add_property(Property::new(
                "flt-loss",
                "filter",
                Domain::interval(1.0, 25.0),
            ))
            .unwrap();
        let c = net
            .add_constraint("TotalGain", var(g) - var(loss), Relation::Ge, cst(28.0))
            .unwrap();
        (net, g, loss, c)
    }

    #[test]
    fn satisfied_constraints_have_no_explanation() {
        let (mut net, g, loss, c) = gain_net();
        net.bind(g, Value::number(60.0)).unwrap();
        net.bind(loss, Value::number(10.0)).unwrap();
        net.evaluate_statuses();
        assert!(explain_violation(&net, c).is_none());
        assert!(explain_all_violations(&net).is_empty());
    }

    #[test]
    fn explanation_reports_required_intervals_per_argument() {
        let (mut net, g, loss, c) = gain_net();
        net.bind(g, Value::number(40.0)).unwrap();
        net.bind(loss, Value::number(19.5)).unwrap(); // 40 - 19.5 = 20.5 < 28
        net.evaluate_statuses();
        let explanation = explain_violation(&net, c).expect("violated");
        assert_eq!(explanation.name, "TotalGain");
        // Properties by qualified name, the constraint's name said once.
        assert_eq!(
            explanation.rendering,
            "(lna.LNA-gain - filter.flt-loss) >= 28"
        );
        assert!(explanation
            .to_string()
            .starts_with("TotalGain is violated: (lna.LNA-gain - filter.flt-loss) >= 28\n"));
        assert_eq!(explanation.arguments.len(), 2);

        let gain_arg = explanation
            .arguments
            .iter()
            .find(|a| a.property == g)
            .expect("gain present");
        // With loss pinned at 19.5 the gain must be >= 47.5.
        assert!(
            (gain_arg.required.lo() - 47.5).abs() < 1e-9,
            "{}",
            gain_arg.required
        );
        assert_eq!(gain_arg.helps, Some(HelpsDirection::Up));

        let loss_arg = explanation
            .arguments
            .iter()
            .find(|a| a.property == loss)
            .expect("loss present");
        // With gain pinned at 40 the loss must be <= 12.
        assert!(
            (loss_arg.required.hi() - 12.0).abs() < 1e-9,
            "{}",
            loss_arg.required
        );
        assert_eq!(loss_arg.helps, Some(HelpsDirection::Down));
    }

    #[test]
    fn unfixable_argument_reports_empty_required_interval() {
        let mut net = ConstraintNetwork::new();
        let x = net
            .add_property(Property::new("x", "o", Domain::interval(0.0, 10.0)))
            .unwrap();
        let y = net
            .add_property(Property::new("y", "o", Domain::interval(0.0, 10.0)))
            .unwrap();
        // x + y >= 25 cannot be fixed by either property alone once the
        // other is pinned at 5 (max sum is 15).
        let c = net
            .add_constraint("big", var(x) + var(y), Relation::Ge, cst(25.0))
            .unwrap();
        net.bind(x, Value::number(5.0)).unwrap();
        net.bind(y, Value::number(5.0)).unwrap();
        net.evaluate_statuses();
        let explanation = explain_violation(&net, c).expect("violated");
        for arg in &explanation.arguments {
            assert!(arg.required.is_empty(), "{}", arg.required);
        }
        let text = explanation.to_string();
        assert!(text.contains("no single-property fix"), "{text}");
    }

    #[test]
    fn display_matches_fig4_style() {
        let (mut net, g, loss, c) = gain_net();
        net.bind(g, Value::number(40.0)).unwrap();
        net.bind(loss, Value::number(19.5)).unwrap();
        net.evaluate_statuses();
        let text = explain_violation(&net, c).expect("violated").to_string();
        assert!(text.contains("TotalGain is violated"));
        assert!(text.contains("required"));
        assert!(text.contains("by TotalGain"));
        assert!(text.contains("[increasing helps]"));
    }

    #[test]
    fn explain_all_lists_every_violation() {
        let mut net = ConstraintNetwork::new();
        let x = net
            .add_property(Property::new("x", "o", Domain::interval(0.0, 10.0)))
            .unwrap();
        net.add_constraint("lo", var(x), Relation::Ge, cst(8.0))
            .unwrap();
        net.add_constraint("hi", var(x), Relation::Le, cst(2.0))
            .unwrap();
        net.bind(x, Value::number(5.0)).unwrap();
        net.evaluate_statuses();
        let all = explain_all_violations(&net);
        assert_eq!(all.len(), 2);
    }
}
