//! Design constraints: relations over properties and their status.
//!
//! Following Eq. (1) of the paper, a constraint `c_i(a_i): S_i -> {T, F}`
//! is *satisfied* when it holds for **all** combinations of the current
//! argument values, *violated* when it holds for **none**, and *consistent*
//! otherwise. With interval-shaped argument ranges those three cases fall
//! out of one interval evaluation of the gap expression `lhs - rhs`.

use crate::expr::{cst, Expr};
use crate::ids::{ConstraintId, PropertyId};
use crate::interval::Interval;
use std::fmt;

/// Tolerance for equality constraints over real-valued properties.
pub const EQ_TOL: f64 = 1e-6;

/// The comparison operator of a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `lhs <= rhs`
    Le,
    /// `lhs < rhs` (treated as `<=` for interval reasoning)
    Lt,
    /// `lhs >= rhs`
    Ge,
    /// `lhs > rhs` (treated as `>=` for interval reasoning)
    Gt,
    /// `lhs == rhs` within [`EQ_TOL`]
    Eq,
}

impl Relation {
    /// Whether the relation holds on concrete values.
    pub fn holds(self, lhs: f64, rhs: f64) -> bool {
        match self {
            Relation::Le => lhs <= rhs + EQ_TOL,
            Relation::Lt => lhs < rhs,
            Relation::Ge => lhs + EQ_TOL >= rhs,
            Relation::Gt => lhs > rhs,
            Relation::Eq => (lhs - rhs).abs() <= EQ_TOL * (1.0 + lhs.abs().max(rhs.abs())),
        }
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Relation::Le => "<=",
            Relation::Lt => "<",
            Relation::Ge => ">=",
            Relation::Gt => ">",
            Relation::Eq => "==",
        };
        f.write_str(s)
    }
}

/// Three-valued constraint status `s(c_i)` from the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintStatus {
    /// Holds for every combination of current argument values (`s = T`).
    Satisfied,
    /// Holds for no combination (`s = F`).
    Violated,
    /// Holds for some combinations only (`s = Unknown` in the paper).
    Consistent,
}

impl ConstraintStatus {
    /// Whether the status is [`ConstraintStatus::Violated`].
    pub fn is_violated(self) -> bool {
        self == ConstraintStatus::Violated
    }

    /// Whether the status is [`ConstraintStatus::Satisfied`].
    pub fn is_satisfied(self) -> bool {
        self == ConstraintStatus::Satisfied
    }
}

impl fmt::Display for ConstraintStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ConstraintStatus::Satisfied => "Satisfied",
            ConstraintStatus::Violated => "Violated",
            ConstraintStatus::Consistent => "Consistent",
        };
        f.write_str(s)
    }
}

/// A relaxation a negotiation round may apply to a constraint: the lawful
/// rewrites that trade requirement strength for consistency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Relaxation {
    /// Move the bound `slack` in the permissive direction: `lhs <= rhs`
    /// becomes `lhs <= rhs + slack`, `lhs >= rhs` becomes
    /// `lhs >= rhs - slack`. Not applicable to equality constraints.
    WidenBound {
        /// How far to move the bound (finite, strictly positive).
        slack: f64,
    },
    /// Retire the constraint entirely by rewriting it to the trivially
    /// satisfied `0 <= 1`. Only *soft* constraints may be dropped.
    Drop,
}

impl Relaxation {
    /// Short kind name for wire frames, journals, and logs.
    pub fn kind(&self) -> &'static str {
        match self {
            Relaxation::WidenBound { .. } => "widen",
            Relaxation::Drop => "drop",
        }
    }
}

impl fmt::Display for Relaxation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Relaxation::WidenBound { slack } => write!(f, "widen bound by {slack}"),
            Relaxation::Drop => f.write_str("drop (soft)"),
        }
    }
}

/// Why a [`Relaxation`] could not be applied to a constraint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RelaxError {
    /// Bound widening was requested on an equality constraint.
    EqualityWiden,
    /// The slack was non-finite or non-positive.
    BadSlack {
        /// The offending slack value.
        slack: f64,
    },
    /// Dropping was requested on a constraint that is not soft.
    HardDrop,
}

impl fmt::Display for RelaxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelaxError::EqualityWiden => f.write_str("equality constraints have no bound to widen"),
            RelaxError::BadSlack { slack } => {
                write!(f, "slack must be finite and positive, got {slack}")
            }
            RelaxError::HardDrop => f.write_str("only soft constraints may be dropped"),
        }
    }
}

impl std::error::Error for RelaxError {}

/// A design constraint: a named relation between two expressions.
///
/// # Examples
///
/// The receiver power budget `P_f + P_s <= P_M` from the paper's §2.1:
///
/// ```
/// use adpm_constraint::{Constraint, ConstraintId, PropertyId, Relation,
///                       expr::var};
/// let (pf, ps, pm) = (PropertyId::new(0), PropertyId::new(1), PropertyId::new(2));
/// let c = Constraint::new(
///     ConstraintId::new(0),
///     "ReceiverPower-C1",
///     var(pf) + var(ps),
///     Relation::Le,
///     var(pm),
/// );
/// assert_eq!(c.arguments(), vec![pf, ps, pm]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    id: ConstraintId,
    name: String,
    lhs: Expr,
    rel: Relation,
    rhs: Expr,
    arguments: Vec<PropertyId>,
    soft: bool,
}

impl Constraint {
    /// Creates a constraint `lhs rel rhs`.
    pub fn new(
        id: ConstraintId,
        name: impl Into<String>,
        lhs: Expr,
        rel: Relation,
        rhs: Expr,
    ) -> Self {
        let mut arguments = lhs.variables();
        arguments.extend(rhs.variables());
        arguments.sort_unstable();
        arguments.dedup();
        Constraint {
            id,
            name: name.into(),
            lhs,
            rel,
            rhs,
            arguments,
            soft: false,
        }
    }

    /// Marks the constraint *soft*: a preference rather than a hard
    /// requirement, which negotiation may drop entirely. Defaults to
    /// `false` (hard).
    pub fn with_soft(mut self, soft: bool) -> Self {
        self.soft = soft;
        self
    }

    /// Whether the constraint is soft (droppable during negotiation).
    pub fn is_soft(&self) -> bool {
        self.soft
    }

    /// In-place softness setter for network-level declaration plumbing.
    pub(crate) fn set_soft(&mut self, soft: bool) {
        self.soft = soft;
    }

    /// The constraint rewritten by `relaxation`, keeping its id, name, and
    /// softness so every index into the network stays valid.
    ///
    /// # Errors
    ///
    /// [`RelaxError::EqualityWiden`] for a bound widening on an equality
    /// constraint (there is no bound to move), [`RelaxError::BadSlack`] for
    /// a non-finite or non-positive slack, and [`RelaxError::HardDrop`]
    /// when asked to drop a constraint that is not soft.
    pub fn relaxed(&self, relaxation: Relaxation) -> Result<Constraint, RelaxError> {
        match relaxation {
            Relaxation::WidenBound { slack } => {
                if !slack.is_finite() || slack <= 0.0 {
                    return Err(RelaxError::BadSlack { slack });
                }
                let rhs = match self.rel {
                    Relation::Le | Relation::Lt => self.rhs.clone() + cst(slack),
                    Relation::Ge | Relation::Gt => self.rhs.clone() - cst(slack),
                    Relation::Eq => return Err(RelaxError::EqualityWiden),
                };
                let mut relaxed =
                    Constraint::new(self.id, self.name.clone(), self.lhs.clone(), self.rel, rhs);
                relaxed.soft = self.soft;
                Ok(relaxed)
            }
            Relaxation::Drop => {
                if !self.soft {
                    return Err(RelaxError::HardDrop);
                }
                // A dropped constraint becomes the trivially satisfied
                // `0 <= 1`: ids, indices, and journaled histories stay
                // valid, and the propagator handles it as an
                // ordinary (argument-free) constraint.
                let mut relaxed =
                    Constraint::new(self.id, self.name.clone(), cst(0.0), Relation::Le, cst(1.0));
                relaxed.soft = self.soft;
                Ok(relaxed)
            }
        }
    }

    /// The constraint's id within its network.
    pub fn id(&self) -> ConstraintId {
        self.id
    }

    /// Human-readable name (e.g. `LNAGain-C10`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Left-hand expression.
    pub fn lhs(&self) -> &Expr {
        &self.lhs
    }

    /// Right-hand expression.
    pub fn rhs(&self) -> &Expr {
        &self.rhs
    }

    /// The comparison operator.
    pub fn relation(&self) -> Relation {
        self.rel
    }

    /// The constraint's arguments `a_i` (distinct, ascending order).
    pub fn arguments(&self) -> Vec<PropertyId> {
        self.arguments.clone()
    }

    /// Borrowed view of the arguments.
    pub fn argument_slice(&self) -> &[PropertyId] {
        &self.arguments
    }

    /// Whether `id` is one of the constraint's arguments.
    pub fn involves(&self, id: PropertyId) -> bool {
        self.arguments.binary_search(&id).is_ok()
    }

    /// The gap expression `lhs - rhs`, whose sign decides the status.
    pub fn gap(&self) -> Expr {
        self.lhs.clone() - self.rhs.clone()
    }

    /// Evaluates the status against interval-shaped argument ranges.
    ///
    /// `lookup` supplies each argument's current range: a singleton for
    /// bound properties, the feasible (or initial) range otherwise.
    pub fn status<F: Fn(PropertyId) -> Interval>(&self, lookup: &F) -> ConstraintStatus {
        let l = self.lhs.eval_interval(lookup);
        let r = self.rhs.eval_interval(lookup);
        if l.is_empty() || r.is_empty() {
            // An argument has an empty range: the relation can hold for no
            // combination of values.
            return ConstraintStatus::Violated;
        }
        let gap = l - r;
        match self.rel {
            Relation::Le | Relation::Lt => {
                if gap.hi() <= EQ_TOL {
                    ConstraintStatus::Satisfied
                } else if gap.lo() > EQ_TOL {
                    ConstraintStatus::Violated
                } else {
                    ConstraintStatus::Consistent
                }
            }
            Relation::Ge | Relation::Gt => {
                if gap.lo() >= -EQ_TOL {
                    ConstraintStatus::Satisfied
                } else if gap.hi() < -EQ_TOL {
                    ConstraintStatus::Violated
                } else {
                    ConstraintStatus::Consistent
                }
            }
            Relation::Eq => {
                let tol = EQ_TOL * (1.0 + gap.lo().abs().max(gap.hi().abs()));
                if !gap.contains(0.0) && gap.lo().abs().min(gap.hi().abs()) > tol {
                    ConstraintStatus::Violated
                } else if gap.is_singleton() && gap.lo().abs() <= tol {
                    ConstraintStatus::Satisfied
                } else {
                    ConstraintStatus::Consistent
                }
            }
        }
    }

    /// Checks the constraint on fully bound, concrete values — the
    /// verification-operator ("tool run") path.
    pub fn check_point<F: Fn(PropertyId) -> f64>(&self, lookup: &F) -> bool {
        let l = self.lhs.eval_point(lookup);
        let r = self.rhs.eval_point(lookup);
        if l.is_nan() || r.is_nan() {
            return false;
        }
        self.rel.holds(l, r)
    }

    /// Signed margin on concrete values: positive means satisfied with slack,
    /// negative means violated by that amount. Supports the paper's §1
    /// "trade-offs produced by constraint margins".
    pub fn margin<F: Fn(PropertyId) -> f64>(&self, lookup: &F) -> f64 {
        let l = self.lhs.eval_point(lookup);
        let r = self.rhs.eval_point(lookup);
        match self.rel {
            Relation::Le | Relation::Lt => r - l,
            Relation::Ge | Relation::Gt => l - r,
            Relation::Eq => -(l - r).abs(),
        }
    }

    /// The interval of the gap `lhs - rhs` over the given ranges; exposed so
    /// diagnostics can report *how far* a constraint is from satisfaction.
    pub fn gap_interval<F: Fn(PropertyId) -> Interval>(&self, lookup: &F) -> Interval {
        self.lhs.eval_interval(lookup) - self.rhs.eval_interval(lookup)
    }

    /// The relation alone (`lhs rel rhs`, without the constraint's name),
    /// each property written as `name` names it.
    pub(crate) fn render_named<'a>(&'a self, name: &'a dyn Fn(PropertyId) -> &'a str) -> String {
        format!(
            "{} {} {}",
            self.lhs.display_named(name),
            self.rel,
            self.rhs.display_named(name)
        )
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} {} {}", self.name, self.lhs, self.rel, self.rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{cst, var};

    fn p(i: u32) -> PropertyId {
        PropertyId::new(i)
    }

    fn power_budget() -> Constraint {
        // P_f + P_s <= P_M with p0 = P_f, p1 = P_s, p2 = P_M
        Constraint::new(
            ConstraintId::new(0),
            "power",
            var(p(0)) + var(p(1)),
            Relation::Le,
            var(p(2)),
        )
    }

    #[test]
    fn arguments_are_collected_across_both_sides() {
        let c = power_budget();
        assert_eq!(c.arguments(), vec![p(0), p(1), p(2)]);
        assert!(c.involves(p(1)));
        assert!(!c.involves(p(3)));
    }

    #[test]
    fn status_satisfied_when_relation_holds_for_all_combinations() {
        let c = power_budget();
        // P_f in [1,2], P_s in [1,2], P_M in [10,20]: always satisfied.
        let lookup = |id: PropertyId| match id.index() {
            0 | 1 => Interval::new(1.0, 2.0),
            _ => Interval::new(10.0, 20.0),
        };
        assert_eq!(c.status(&lookup), ConstraintStatus::Satisfied);
    }

    #[test]
    fn status_violated_when_relation_holds_for_no_combination() {
        let c = power_budget();
        let lookup = |id: PropertyId| match id.index() {
            0 | 1 => Interval::new(10.0, 12.0),
            _ => Interval::new(1.0, 2.0),
        };
        assert_eq!(c.status(&lookup), ConstraintStatus::Violated);
    }

    #[test]
    fn status_consistent_when_only_some_combinations_hold() {
        let c = power_budget();
        let lookup = |id: PropertyId| match id.index() {
            0 | 1 => Interval::new(0.0, 10.0),
            _ => Interval::new(5.0, 6.0),
        };
        assert_eq!(c.status(&lookup), ConstraintStatus::Consistent);
    }

    #[test]
    fn status_with_empty_argument_range_is_violated() {
        let c = power_budget();
        let lookup = |id: PropertyId| {
            if id == p(0) {
                Interval::EMPTY
            } else {
                Interval::new(0.0, 1.0)
            }
        };
        assert_eq!(c.status(&lookup), ConstraintStatus::Violated);
    }

    #[test]
    fn ge_and_gt_statuses() {
        let c = Constraint::new(
            ConstraintId::new(1),
            "gain",
            var(p(0)),
            Relation::Ge,
            cst(48.0),
        );
        let tight = |_: PropertyId| Interval::new(50.0, 60.0);
        let loose = |_: PropertyId| Interval::new(10.0, 60.0);
        let broken = |_: PropertyId| Interval::new(10.0, 20.0);
        assert_eq!(c.status(&tight), ConstraintStatus::Satisfied);
        assert_eq!(c.status(&loose), ConstraintStatus::Consistent);
        assert_eq!(c.status(&broken), ConstraintStatus::Violated);
    }

    #[test]
    fn eq_statuses() {
        let c = Constraint::new(
            ConstraintId::new(2),
            "match",
            var(p(0)),
            Relation::Eq,
            cst(50.0),
        );
        let exact = |_: PropertyId| Interval::singleton(50.0);
        let possible = |_: PropertyId| Interval::new(40.0, 60.0);
        let impossible = |_: PropertyId| Interval::new(60.0, 70.0);
        assert_eq!(c.status(&exact), ConstraintStatus::Satisfied);
        assert_eq!(c.status(&possible), ConstraintStatus::Consistent);
        assert_eq!(c.status(&impossible), ConstraintStatus::Violated);
    }

    #[test]
    fn check_point_matches_relation_semantics() {
        let c = power_budget();
        let ok = |id: PropertyId| match id.index() {
            0 => 80.0,
            1 => 100.0,
            _ => 200.0,
        };
        let bad = |id: PropertyId| match id.index() {
            0 => 150.0,
            1 => 100.0,
            _ => 200.0,
        };
        assert!(c.check_point(&ok));
        assert!(!c.check_point(&bad));
    }

    #[test]
    fn check_point_rejects_nan() {
        let c = Constraint::new(
            ConstraintId::new(3),
            "lnref",
            var(p(0)).ln(),
            Relation::Le,
            cst(1.0),
        );
        assert!(!c.check_point(&|_| -1.0));
    }

    #[test]
    fn margin_is_signed_slack() {
        let c = power_budget();
        let lookup = |id: PropertyId| match id.index() {
            0 => 80.0,
            1 => 100.0,
            _ => 200.0,
        };
        assert_eq!(c.margin(&lookup), 20.0);
        let ge = Constraint::new(
            ConstraintId::new(4),
            "gain",
            var(p(0)),
            Relation::Ge,
            cst(48.0),
        );
        assert_eq!(ge.margin(&|_| 32.0), -16.0);
    }

    #[test]
    fn relation_holds_point_semantics() {
        assert!(Relation::Le.holds(1.0, 1.0));
        assert!(!Relation::Lt.holds(1.0, 1.0));
        assert!(Relation::Ge.holds(1.0, 1.0));
        assert!(!Relation::Gt.holds(1.0, 1.0));
        assert!(Relation::Eq.holds(1.0, 1.0 + 1e-9));
        assert!(!Relation::Eq.holds(1.0, 1.1));
    }

    #[test]
    fn display_renders_relation() {
        let c = power_budget();
        assert_eq!(c.to_string(), "power: (p0 + p1) <= p2");
        assert_eq!(ConstraintStatus::Violated.to_string(), "Violated");
    }

    #[test]
    fn gap_interval_reports_distance() {
        let c = power_budget();
        let lookup = |id: PropertyId| match id.index() {
            0 | 1 => Interval::singleton(100.0),
            _ => Interval::singleton(150.0),
        };
        let gap = c.gap_interval(&lookup);
        assert_eq!(gap, Interval::singleton(50.0)); // violated by 50
    }
}
