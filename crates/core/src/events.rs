//! Constraint-related events and the Notification Manager.
//!
//! ADPM's NM "alerts designers of constraint-related events, including
//! violations and reductions of a property's feasible subspace. It selects
//! subsets of `H_{n+1}` relevant to each designer and includes them in
//! notifications" (paper §2.2). Here the NM routes each event to the
//! designers whose [`InterestSet`] (viewpoint) it matches.

use crate::dpm::DesignProcessManager;
use crate::ids::{DesignerId, ProblemId};
use crate::problem::ProblemSet;
use adpm_constraint::{ConstraintId, ConstraintNetwork, PropertyId};
use std::collections::BTreeSet;
use std::fmt;

/// A concrete conflict-resolution offer put to the participants of a
/// negotiation round: relax a constraint (widen its bound or drop a soft
/// one) or back a bound property out of the conflict.
#[derive(Debug, Clone, PartialEq)]
pub enum Proposal {
    /// Widen the constraint's bound by `slack` (the paper's "negotiate the
    /// requirement" move).
    Widen {
        /// The constraint whose bound would move.
        constraint: ConstraintId,
        /// How far the bound would move, in the constraint's units.
        slack: f64,
    },
    /// Drop a soft constraint entirely.
    DropSoft {
        /// The soft constraint that would be dropped.
        constraint: ConstraintId,
    },
    /// Unbind a property involved in the conflict (localized backtracking).
    Unbind {
        /// The bound property that would be freed.
        property: PropertyId,
    },
}

impl Proposal {
    /// Short kind name for wire frames and logs.
    pub fn kind(&self) -> &'static str {
        match self {
            Proposal::Widen { .. } => "widen",
            Proposal::DropSoft { .. } => "drop",
            Proposal::Unbind { .. } => "unbind",
        }
    }

    /// The constraint the proposal rewrites, if any.
    pub fn constraint(&self) -> Option<ConstraintId> {
        match self {
            Proposal::Widen { constraint, .. } | Proposal::DropSoft { constraint } => {
                Some(*constraint)
            }
            Proposal::Unbind { .. } => None,
        }
    }

    /// The property the proposal unbinds, if any.
    pub fn property(&self) -> Option<PropertyId> {
        match self {
            Proposal::Unbind { property } => Some(*property),
            _ => None,
        }
    }

    /// The widen slack (0 for non-widen proposals).
    pub fn slack(&self) -> f64 {
        match self {
            Proposal::Widen { slack, .. } => *slack,
            _ => 0.0,
        }
    }

    /// The properties the proposal touches (the rewritten constraint's
    /// arguments, or the unbound property) — what "this proposal affects
    /// your viewpoint" means for a negotiation policy.
    pub fn touched_properties(&self, network: &ConstraintNetwork) -> Vec<PropertyId> {
        match self {
            Proposal::Widen { constraint, .. } | Proposal::DropSoft { constraint } => {
                network.constraint(*constraint).argument_slice().to_vec()
            }
            Proposal::Unbind { property } => vec![*property],
        }
    }
}

impl fmt::Display for Proposal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Proposal::Widen { constraint, slack } => {
                write!(f, "widen {constraint} by {slack}")
            }
            Proposal::DropSoft { constraint } => write!(f, "drop soft {constraint}"),
            Proposal::Unbind { property } => write!(f, "unbind {property}"),
        }
    }
}

/// A participant's verdict on a proposal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NegotiationAnswer {
    /// The participant accepts the proposal as-is.
    Accept,
    /// The participant rejects the proposal without an alternative.
    Reject,
    /// The participant rejects the proposal and offers an alternative.
    Counter,
}

impl NegotiationAnswer {
    /// Short name for wire frames and logs.
    pub fn name(self) -> &'static str {
        match self {
            NegotiationAnswer::Accept => "accept",
            NegotiationAnswer::Reject => "reject",
            NegotiationAnswer::Counter => "counter",
        }
    }
}

/// A constraint-related event worth telling a designer about.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A constraint became violated.
    ViolationDetected {
        /// The violated constraint.
        constraint: ConstraintId,
        /// Its arguments (so receivers can relate it to their properties).
        properties: Vec<PropertyId>,
    },
    /// A previously violated constraint is no longer violated.
    ViolationResolved {
        /// The recovered constraint.
        constraint: ConstraintId,
    },
    /// A property's feasible subspace shrank.
    FeasibleReduced {
        /// The affected property.
        property: PropertyId,
        /// New size relative to the initial range, in `[0, 1]`.
        relative_size: f64,
    },
    /// A property's feasible subspace became empty — every remaining choice
    /// conflicts with some constraint.
    FeasibleEmptied {
        /// The affected property.
        property: PropertyId,
    },
    /// A problem reached the Solved status.
    ProblemSolved {
        /// The solved problem.
        problem: ProblemId,
    },
    /// A negotiation round put a relaxation proposal to the conflict's
    /// participants.
    NegotiationProposed {
        /// The seed conflict being negotiated.
        constraint: ConstraintId,
        /// 1-based round number.
        round: u32,
        /// The designer the proposal is attributed to.
        proposer: DesignerId,
        /// The offered relaxation.
        proposal: Proposal,
    },
    /// A participant answered the current round's proposal.
    NegotiationAnswered {
        /// The seed conflict being negotiated.
        constraint: ConstraintId,
        /// 1-based round number.
        round: u32,
        /// The answering designer.
        designer: DesignerId,
        /// The verdict.
        answer: NegotiationAnswer,
        /// The alternative offered with a [`NegotiationAnswer::Counter`].
        counter: Option<Proposal>,
    },
    /// A negotiation finished — either an accepted relaxation was applied
    /// or the round budget ran out.
    NegotiationClosed {
        /// The seed conflict that was negotiated.
        constraint: ConstraintId,
        /// The minimal conflicting set's properties (for routing).
        properties: Vec<PropertyId>,
        /// Rounds run.
        rounds: u32,
        /// Whether an accepted relaxation resolved the conflict.
        resolved: bool,
    },
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::ViolationDetected { constraint, .. } => {
                write!(f, "violation detected on {constraint}")
            }
            Event::ViolationResolved { constraint } => {
                write!(f, "violation resolved on {constraint}")
            }
            Event::FeasibleReduced {
                property,
                relative_size,
            } => write!(
                f,
                "feasible subspace of {property} reduced to {:.1}% of its range",
                relative_size * 100.0
            ),
            Event::FeasibleEmptied { property } => {
                write!(f, "feasible subspace of {property} is empty")
            }
            Event::ProblemSolved { problem } => write!(f, "{problem} solved"),
            Event::NegotiationProposed {
                constraint,
                round,
                proposer,
                proposal,
            } => write!(
                f,
                "negotiation on {constraint} round {round}: {proposer} proposes {proposal}"
            ),
            Event::NegotiationAnswered {
                constraint,
                round,
                designer,
                answer,
                ..
            } => write!(
                f,
                "negotiation on {constraint} round {round}: {designer} answers {}",
                answer.name()
            ),
            Event::NegotiationClosed {
                constraint,
                rounds,
                resolved,
                ..
            } => write!(
                f,
                "negotiation on {constraint} {} after {rounds} round(s)",
                if *resolved { "resolved" } else { "abandoned" }
            ),
        }
    }
}

/// One designer's viewpoint, and the Notification Manager's routing rule
/// over it.
///
/// The viewpoint is the designer's own problems (those assigned to them),
/// those problems' inputs and outputs, and those problems' constraints.
/// An event is relevant to the designer when [`matches`](Self::matches)
/// says so:
///
/// - feasibility events on one of their own properties;
/// - violations (detected or resolved) and negotiations whose constraint
///   touches one of their own properties, and violation detections and
///   negotiations on a constraint of one of their own problems;
/// - violations and negotiations on cross-object constraints, whoever owns
///   them — cross-subsystem conflicts concern the whole team, which is the
///   collaborative point of the paper;
/// - `ProblemSolved` for one of their own problems or a child of one.
///
/// The DPM caches one viewpoint per designer
/// ([`viewpoint`](crate::DesignProcessManager::viewpoint)) and routes every
/// operation's events through it; the collaboration server delivers
/// exactly that stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterestSet {
    problems: Vec<ProblemId>,
    properties: BTreeSet<PropertyId>,
    constraints: BTreeSet<ConstraintId>,
}

impl InterestSet {
    /// Builds `designer`'s viewpoint over the problem hierarchy.
    pub(crate) fn build(problems: &ProblemSet, designer: DesignerId) -> Self {
        let own = problems.assigned_to(designer);
        let mut properties = BTreeSet::new();
        let mut constraints = BTreeSet::new();
        for pid in &own {
            let p = problems.problem(*pid);
            properties.extend(p.inputs().iter().chain(p.outputs()).copied());
            constraints.extend(p.constraints().iter().copied());
        }
        InterestSet {
            problems: own,
            properties,
            constraints,
        }
    }

    /// A copy of `designer`'s viewpoint as `dpm` caches it.
    ///
    /// # Panics
    ///
    /// Panics if `designer` is not registered with `dpm`.
    pub fn for_designer(dpm: &DesignProcessManager, designer: DesignerId) -> Self {
        dpm.viewpoint(designer).clone()
    }

    /// The inputs and outputs of the designer's own problems.
    pub fn properties(&self) -> &BTreeSet<PropertyId> {
        &self.properties
    }

    /// Whether `event` is relevant to this designer (see the type docs).
    pub fn matches(
        &self,
        event: &Event,
        problems: &ProblemSet,
        network: &ConstraintNetwork,
    ) -> bool {
        let touches_own = |args: &[PropertyId]| args.iter().any(|p| self.properties.contains(p));
        match event {
            Event::FeasibleReduced { property, .. } | Event::FeasibleEmptied { property } => {
                self.properties.contains(property)
            }
            Event::ProblemSolved { problem } => {
                self.problems.contains(problem)
                    || problems
                        .problem(*problem)
                        .parent()
                        .is_some_and(|parent| self.problems.contains(&parent))
            }
            Event::ViolationDetected {
                constraint,
                properties,
            }
            | Event::NegotiationClosed {
                constraint,
                properties,
                ..
            } => {
                touches_own(properties)
                    || self.constraints.contains(constraint)
                    || network.is_cross_object(*constraint)
            }
            Event::NegotiationProposed { constraint, .. }
            | Event::NegotiationAnswered { constraint, .. } => {
                touches_own(network.constraint(*constraint).argument_slice())
                    || self.constraints.contains(constraint)
                    || network.is_cross_object(*constraint)
            }
            // Unlike a detection, a resolution does not reach the owner of
            // a problem constraint whose arguments are all someone else's.
            Event::ViolationResolved { constraint } => {
                touches_own(network.constraint(*constraint).argument_slice())
                    || network.is_cross_object(*constraint)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adpm_constraint::{
        expr::{cst, var},
        Domain, Property, Relation,
    };

    fn setup() -> (ProblemSet, ConstraintNetwork, Vec<PropertyId>, ConstraintId) {
        let mut net = ConstraintNetwork::new();
        let a = net
            .add_property(Property::new("a", "analog", Domain::interval(0.0, 1.0)))
            .unwrap();
        let b = net
            .add_property(Property::new("b", "filter", Domain::interval(0.0, 1.0)))
            .unwrap();
        let c = net
            .add_constraint("cross", var(a), Relation::Le, var(b))
            .unwrap();
        let mut problems = ProblemSet::new();
        let top = problems.add_root("system");
        let analog = problems.decompose(top, "analog");
        let filter = problems.decompose(top, "filter");
        problems
            .problem_mut(analog)
            .set_assignee(Some(DesignerId::new(0)));
        problems
            .problem_mut(filter)
            .set_assignee(Some(DesignerId::new(1)));
        *problems.problem_mut(analog) = problems
            .problem(analog)
            .clone()
            .with_outputs([a])
            .with_assignee(DesignerId::new(0));
        *problems.problem_mut(filter) = problems
            .problem(filter)
            .clone()
            .with_outputs([b])
            .with_assignee(DesignerId::new(1));
        (problems, net, vec![a, b], c)
    }

    /// The designers (of the two in `setup`) whose viewpoint `event`
    /// matches, ascending.
    fn recipients(event: &Event, problems: &ProblemSet, net: &ConstraintNetwork) -> Vec<u32> {
        (0..2)
            .filter(|d| {
                InterestSet::build(problems, DesignerId::new(*d)).matches(event, problems, net)
            })
            .collect()
    }

    #[test]
    fn feasible_events_go_to_property_owner_only() {
        let (problems, net, props, _) = setup();
        let event = Event::FeasibleReduced {
            property: props[0],
            relative_size: 0.5,
        };
        assert_eq!(recipients(&event, &problems, &net), [0]);
        let event = Event::FeasibleEmptied { property: props[1] };
        assert_eq!(recipients(&event, &problems, &net), [1]);
    }

    #[test]
    fn cross_object_violations_reach_everyone() {
        let (problems, net, props, c) = setup();
        let detected = Event::ViolationDetected {
            constraint: c,
            properties: props.clone(),
        };
        assert_eq!(recipients(&detected, &problems, &net), [0, 1]);
        let resolved = Event::ViolationResolved { constraint: c };
        assert_eq!(recipients(&resolved, &problems, &net), [0, 1]);
    }

    #[test]
    fn empty_notifications_are_dropped() {
        // An event outside every viewpoint reaches nobody.
        let (problems, mut net, _, _) = setup();
        let stray = net
            .add_property(Property::new("c", "misc", Domain::interval(0.0, 1.0)))
            .unwrap();
        let event = Event::FeasibleEmptied { property: stray };
        assert!(recipients(&event, &problems, &net).is_empty());
    }

    #[test]
    fn local_violations_match_by_property_and_problem_constraint() {
        let (mut problems, mut net, props, _) = setup();
        // `local` lives on designer 0's object only; designer 1 owns it as
        // a constraint of their problem.
        let local = net
            .add_constraint("local", var(props[0]), Relation::Le, cst(0.5))
            .unwrap();
        let filter = problems.ids().nth(2).unwrap();
        *problems.problem_mut(filter) = problems.problem(filter).clone().with_constraints([local]);
        let detected = Event::ViolationDetected {
            constraint: local,
            properties: vec![props[0]],
        };
        assert_eq!(recipients(&detected, &problems, &net), [0, 1]);
        // A resolution goes by argument only.
        let resolved = Event::ViolationResolved { constraint: local };
        assert_eq!(recipients(&resolved, &problems, &net), [0]);
        let proposed = Event::NegotiationProposed {
            constraint: local,
            round: 1,
            proposer: DesignerId::new(0),
            proposal: Proposal::Unbind { property: props[0] },
        };
        assert_eq!(recipients(&proposed, &problems, &net), [0, 1]);
    }

    #[test]
    fn problem_solved_goes_to_assignee_and_parent_owner() {
        let (mut problems, net, _, _) = setup();
        let filter_problem = problems.ids().nth(2).unwrap();
        let event = Event::ProblemSolved {
            problem: filter_problem,
        };
        assert_eq!(recipients(&event, &problems, &net), [1]);
        let top = problems.root().unwrap();
        problems
            .problem_mut(top)
            .set_assignee(Some(DesignerId::new(0)));
        assert_eq!(recipients(&event, &problems, &net), [0, 1]);
    }

    #[test]
    fn event_display_is_informative() {
        let e = Event::FeasibleReduced {
            property: PropertyId::new(1),
            relative_size: 0.25,
        };
        assert!(e.to_string().contains("25.0%"));
        let e = Event::FeasibleEmptied {
            property: PropertyId::new(1),
        };
        assert!(e.to_string().contains("empty"));
    }
}
