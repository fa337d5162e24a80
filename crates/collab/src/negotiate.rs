//! The viewpoint-aware conflict negotiation engine.
//!
//! When propagation hits a conflict, the session does not have to fall
//! back to blind backtracking: this module reduces the conflict to a
//! minimal conflicting constraint set
//! ([`minimal_conflict_set`]), maps
//! that set to the designers whose viewpoints it touches (the participant
//! rule: a member's arguments meet the designer's own properties or their
//! one-hop constraint neighbourhood), and runs a bounded,
//! deterministic negotiation: relaxation proposals — widen a bound, drop a
//! soft constraint, unbind a contested property — are generated and ranked
//! by the paper's α/β/monotonicity statistics, then put to the
//! participants round by round until one is unanimously accepted or the
//! round budget runs out.
//!
//! The engine is a *pure* function of the design state: it never mutates
//! the DPM. It returns the transcript (as routed [`Event`]s the session
//! fans out to subscribers) and, when a proposal carried, the concrete
//! [`Operation`] the session should execute — which then flows through
//! the normal journaled, linearized submission path.

use adpm_constraint::{
    explain_violation, minimal_conflict_set, ConstraintId, HeuristicReport, PropertyId, Relation,
    Relaxation,
};
use adpm_core::{DesignProcessManager, DesignerId, Event, NegotiationAnswer, Operation, Proposal};
use adpm_teamsim::NegotiationPolicy;
use std::collections::BTreeSet;

/// Default bound on negotiation rounds per conflict.
pub const DEFAULT_MAX_ROUNDS: u32 = 4;

/// Cap on generated proposals per conflict (the ranked queue's length).
const MAX_PROPOSALS: usize = 8;

/// Headroom factor applied to the violation excess when deriving a widen
/// slack, so the relaxed bound clears the conflict rather than grazing it.
const SLACK_MARGIN: f64 = 1.05;

/// How a session negotiates conflicts.
#[derive(Debug, Clone)]
pub struct NegotiationConfig {
    /// Bound on propose/answer rounds per conflict.
    pub max_rounds: u32,
    /// Per-designer answer policies, indexed by designer id; designers
    /// beyond the vector's length default to
    /// [`NegotiationPolicy::Compromising`].
    pub policies: Vec<NegotiationPolicy>,
}

impl Default for NegotiationConfig {
    fn default() -> Self {
        NegotiationConfig {
            max_rounds: DEFAULT_MAX_ROUNDS,
            policies: Vec::new(),
        }
    }
}

impl NegotiationConfig {
    /// The policy answering for `designer`.
    pub fn policy(&self, designer: DesignerId) -> NegotiationPolicy {
        self.policies
            .get(designer.index())
            .copied()
            .unwrap_or_default()
    }
}

/// The outcome of one conflict negotiation, before any relaxation is
/// applied.
#[derive(Debug, Clone)]
pub struct NegotiationOutcome {
    /// The seed conflict that was negotiated.
    pub seed: ConstraintId,
    /// The minimal conflicting set's members.
    pub members: Vec<ConstraintId>,
    /// Designers whose viewpoints the conflict set touches, ascending.
    pub participants: Vec<DesignerId>,
    /// Rounds run (0 when no proposal could be generated).
    pub rounds: u32,
    /// Proposals put to the participants.
    pub proposals: u32,
    /// The accepted proposal's operation, to be executed by the session
    /// through the normal journaled path; `None` when the negotiation was
    /// abandoned.
    pub operation: Option<Operation>,
    /// The propose/answer transcript, already routed: each entry is
    /// (recipient designer, event). The session delivers these to the
    /// matching subscriptions and appends the closing event itself once it
    /// knows whether the relaxation actually applied.
    pub transcript: Vec<(DesignerId, Event)>,
    /// Properties of the minimal conflict set (for the closing event).
    pub properties: Vec<adpm_constraint::PropertyId>,
}

/// Negotiates the conflict seeded at `seed` against the current design
/// state. Pure: mutates nothing; the caller applies
/// [`operation`](NegotiationOutcome::operation) if present.
pub fn negotiate(
    dpm: &DesignProcessManager,
    seed: ConstraintId,
    config: &NegotiationConfig,
) -> NegotiationOutcome {
    let net = dpm.network();
    // 1. Reduce the conflict to a minimal conflicting constraint set. When
    // the subset test cannot reproduce the conflict (e.g. a violation that
    // only exists under feasible-subspace narrowing), fall back to the
    // seed alone — negotiation still has a target.
    let (members, properties) = match minimal_conflict_set(net, seed) {
        Some(mcs) => {
            let props = mcs.properties(net);
            (mcs.members, props)
        }
        None => {
            let props: BTreeSet<_> = net
                .constraint(seed)
                .argument_slice()
                .iter()
                .copied()
                .collect();
            (vec![seed], props.into_iter().collect())
        }
    };

    // 2. Map the conflict set to viewpoints. Ascending designer id keeps
    // everything deterministic.
    let viewpoints = participants(dpm, &members);
    let participants: Vec<DesignerId> = viewpoints.iter().map(|(d, _)| *d).collect();

    let mut outcome = NegotiationOutcome {
        seed,
        members: members.clone(),
        participants: participants.clone(),
        rounds: 0,
        proposals: 0,
        operation: None,
        transcript: Vec::new(),
        properties: properties.clone(),
    };
    if participants.is_empty() {
        return outcome;
    }

    // 3. Generate and rank relaxation proposals.
    let mut queue = rank_proposals(dpm, &members, &properties);

    // Whether the proposal touches the designer's own properties, for
    // policy answers and proposer choice.
    let touches = |proposal: &Proposal, designer: DesignerId| -> bool {
        let own = viewpoints
            .iter()
            .find(|(d, _)| *d == designer)
            .expect("participant has an own-props entry")
            .1;
        proposal
            .touched_properties(net)
            .iter()
            .any(|p| own.contains(p))
    };

    // 4. Bounded propose/answer rounds; a proposal resolves the conflict
    // when every participant (other than its proposer) accepts it.
    while outcome.rounds < config.max_rounds {
        let Some(proposal) = queue.pop() else { break };
        outcome.rounds += 1;
        outcome.proposals += 1;
        let round = outcome.rounds;
        // The proposer is the first participant whose own viewpoint the
        // proposal touches (it is offering to give ground), else the
        // first participant.
        let proposer = participants
            .iter()
            .copied()
            .find(|d| touches(&proposal, *d))
            .unwrap_or(participants[0]);
        broadcast(
            &mut outcome.transcript,
            &participants,
            Event::NegotiationProposed {
                constraint: seed,
                round,
                proposer,
                proposal: proposal.clone(),
            },
        );
        let mut all_accept = true;
        for designer in participants.iter().copied().filter(|d| *d != proposer) {
            let policy = config.policy(designer);
            let mut answer = policy.answer(round, touches(&proposal, designer));
            let mut counter = None;
            if answer == NegotiationAnswer::Counter {
                // The engine supplies the counter-offer: the next-ranked
                // proposal, which jumps the queue for the following round.
                // With nothing left to offer, arguing degrades to assent.
                match queue.last().cloned() {
                    Some(alternative) => counter = Some(alternative),
                    None => answer = NegotiationAnswer::Accept,
                }
            }
            if answer != NegotiationAnswer::Accept {
                all_accept = false;
            }
            broadcast(
                &mut outcome.transcript,
                &participants,
                Event::NegotiationAnswered {
                    constraint: seed,
                    round,
                    designer,
                    answer,
                    counter: counter.clone(),
                },
            );
        }
        if all_accept {
            outcome.operation = Some(operation_for(dpm, proposer, &proposal, &members));
            break;
        }
    }
    outcome
}

/// The designers the conflict set `members` concerns, ascending, each with
/// their own properties (the inputs and outputs of their problems). The
/// participant rule: some member's arguments meet the designer's own
/// properties or their one-hop constraint neighbourhood — the arguments
/// of every constraint on an own property.
fn participants<'a>(
    dpm: &'a DesignProcessManager,
    members: &[ConstraintId],
) -> Vec<(DesignerId, &'a BTreeSet<PropertyId>)> {
    let net = dpm.network();
    let args = |c: &ConstraintId| net.constraint(*c).argument_slice();
    dpm.designers()
        .iter()
        .map(|d| (*d, dpm.viewpoint(*d).properties()))
        .filter(|(_, own)| {
            members.iter().flat_map(args).any(|a| {
                own.contains(a)
                    || net
                        .constraints_of(*a)
                        .iter()
                        .any(|c| args(c).iter().any(|p| own.contains(p)))
            })
        })
        .collect()
}

/// Appends `event` to the transcript once per participant.
fn broadcast(transcript: &mut Vec<(DesignerId, Event)>, participants: &[DesignerId], event: Event) {
    for d in participants {
        transcript.push((*d, event.clone()));
    }
}

/// Generates the ranked proposal queue for a conflict set, best proposal
/// *last* (so rounds `pop()` in order). Ranking follows the paper's
/// heuristic statistics:
///
/// 1. **Drop soft constraints** first (they exist to yield), ascending id.
/// 2. **Widen bounds** of violated inequality members, preferring the
///    constraint most entangled in violations (highest α over its
///    arguments buys the most relief) and, on ties, the one connected to
///    the fewest other constraints (lowest summed β disturbs the least).
/// 3. **Unbind** bound conflict-set properties last (it undoes design
///    work), preferring properties with *no* known monotone repair
///    direction — where negotiation is the only way out — then highest α.
fn rank_proposals(
    dpm: &DesignProcessManager,
    members: &[ConstraintId],
    properties: &[adpm_constraint::PropertyId],
) -> Vec<Proposal> {
    let net = dpm.network();
    let report = HeuristicReport::mine(net);

    let mut drops: Vec<Proposal> = Vec::new();
    let mut widens: Vec<(usize, usize, ConstraintId, f64)> = Vec::new();
    for cid in members {
        let constraint = net.constraint(*cid);
        if constraint.is_soft() {
            drops.push(Proposal::DropSoft { constraint: *cid });
        }
        if matches!(
            constraint.relation(),
            Relation::Le | Relation::Lt | Relation::Ge | Relation::Gt
        ) {
            if let Some(slack) = widen_slack(dpm, *cid) {
                let alpha_max = constraint
                    .argument_slice()
                    .iter()
                    .map(|p| net.alpha(*p))
                    .max()
                    .unwrap_or(0);
                let beta_sum: usize = constraint
                    .argument_slice()
                    .iter()
                    .map(|p| net.beta(*p))
                    .sum();
                widens.push((alpha_max, beta_sum, *cid, slack));
            }
        }
    }
    widens.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));

    let mut unbinds: Vec<(bool, usize, adpm_constraint::PropertyId)> = properties
        .iter()
        .copied()
        .filter(|p| net.is_bound(*p))
        .map(|p| {
            let insight = report.insight(p);
            (insight.repair_direction.is_some(), insight.alpha, p)
        })
        .collect();
    unbinds.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)).then(a.2.cmp(&b.2)));

    let ordered: Vec<Proposal> = drops
        .into_iter()
        .chain(
            widens
                .into_iter()
                .map(|(_, _, constraint, slack)| Proposal::Widen { constraint, slack }),
        )
        .chain(
            unbinds
                .into_iter()
                .map(|(_, _, property)| Proposal::Unbind { property }),
        )
        .take(MAX_PROPOSALS)
        .collect();
    // Best-first generation, best-last storage: rounds pop from the back.
    ordered.into_iter().rev().collect()
}

/// Derives the widen slack that clears the violation on `cid`, from the
/// explanation's gap interval (`lhs - rhs` over current ranges for `<=`).
/// `None` when the constraint is not currently violated or no positive
/// finite excess exists.
fn widen_slack(dpm: &DesignProcessManager, cid: ConstraintId) -> Option<f64> {
    let explanation = explain_violation(dpm.network(), cid)?;
    let gap = explanation.gap;
    let excess = if gap.hi().is_finite() && gap.hi() > 0.0 {
        gap.hi()
    } else if gap.lo().is_finite() && gap.lo() > 0.0 {
        gap.lo()
    } else {
        return None;
    };
    let slack = excess * SLACK_MARGIN;
    (slack.is_finite() && slack > 0.0).then_some(slack)
}

/// Builds the journalable operation applying an accepted proposal,
/// attributed to its proposer and marked as repair work on the conflict
/// set (so spin accounting sees it).
fn operation_for(
    dpm: &DesignProcessManager,
    proposer: DesignerId,
    proposal: &Proposal,
    members: &[ConstraintId],
) -> Operation {
    let problem = dpm
        .problems()
        .assigned_to(proposer)
        .first()
        .copied()
        .or_else(|| dpm.problems().root())
        .expect("a scenario always has a root problem");
    let operation = match proposal {
        Proposal::Widen { constraint, slack } => Operation::relax(
            proposer,
            problem,
            *constraint,
            Relaxation::WidenBound { slack: *slack },
        ),
        Proposal::DropSoft { constraint } => {
            Operation::relax(proposer, problem, *constraint, Relaxation::Drop)
        }
        Proposal::Unbind { property } => Operation::unbind(proposer, problem, *property),
    };
    operation.with_repairs(members.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use adpm_constraint::{
        expr::{cst, var},
        ConstraintNetwork, Domain, Property, Value,
    };
    use adpm_core::{DpmConfig, Operator};

    /// Two designers share a power budget; binding both over budget makes
    /// the cross constraint the seed conflict.
    fn conflicted_dpm() -> (DesignProcessManager, ConstraintId) {
        let mut net = ConstraintNetwork::new();
        let pf = net
            .add_property(Property::new("P-front", "rx", Domain::interval(0.0, 300.0)))
            .unwrap();
        let ps = net
            .add_property(Property::new(
                "P-ser",
                "deser",
                Domain::interval(0.0, 300.0),
            ))
            .unwrap();
        let budget = net
            .add_constraint("power", var(pf) + var(ps), Relation::Le, cst(200.0))
            .unwrap();
        let mut dpm = DesignProcessManager::new(net, DpmConfig::conventional());
        let d0 = dpm.add_designer();
        let d1 = dpm.add_designer();
        let top = dpm.problems_mut().add_root("receiver");
        let fe = dpm.problems_mut().decompose(top, "frontend");
        let de = dpm.problems_mut().decompose(top, "deser");
        *dpm.problems_mut().problem_mut(top) = dpm
            .problems()
            .problem(top)
            .clone()
            .with_constraints([budget]);
        *dpm.problems_mut().problem_mut(fe) = dpm
            .problems()
            .problem(fe)
            .clone()
            .with_outputs([pf])
            .with_assignee(d0);
        *dpm.problems_mut().problem_mut(de) = dpm
            .problems()
            .problem(de)
            .clone()
            .with_outputs([ps])
            .with_assignee(d1);
        dpm.initialize();
        dpm.execute(Operation::assign(d0, fe, pf, Value::number(150.0)))
            .unwrap();
        dpm.execute(Operation::assign(d1, de, ps, Value::number(150.0)))
            .unwrap();
        dpm.execute(Operation::verify(d0, top)).unwrap();
        assert!(dpm.network().status(budget).is_violated());
        (dpm, budget)
    }

    #[test]
    fn compromising_team_resolves_in_one_round() {
        let (dpm, budget) = conflicted_dpm();
        let outcome = negotiate(&dpm, budget, &NegotiationConfig::default());
        assert_eq!(outcome.participants.len(), 2, "both viewpoints touched");
        assert_eq!(outcome.rounds, 1);
        let operation = outcome.operation.expect("resolved");
        match operation.operator() {
            Operator::Relax {
                constraint,
                relaxation: Relaxation::WidenBound { slack },
            } => {
                assert_eq!(*constraint, budget);
                // 150 + 150 = 300 exceeds 200 by 100; slack must clear it.
                assert!(*slack >= 100.0, "slack {slack} too small");
            }
            other => panic!("expected widen relax, got {other:?}"),
        }
        assert_eq!(operation.repairs(), &[budget]);
        // Transcript: each of 2 participants sees 1 propose + 1 answer.
        assert_eq!(outcome.transcript.len(), 4);
    }

    #[test]
    fn applying_the_accepted_relaxation_clears_the_conflict() {
        let (mut dpm, budget) = conflicted_dpm();
        let outcome = negotiate(&dpm, budget, &NegotiationConfig::default());
        dpm.execute(outcome.operation.expect("resolved")).unwrap();
        assert!(
            !dpm.network().status(budget).is_violated(),
            "widened bound still violated: {:?}",
            dpm.network().status(budget)
        );
    }

    #[test]
    fn stubborn_participants_reject_the_shared_widen() {
        let (dpm, budget) = conflicted_dpm();
        // The best-ranked proposal widens the shared budget constraint,
        // which touches both stubborn viewpoints: the non-proposer rejects
        // it, and with a one-round budget the negotiation is abandoned.
        let config = NegotiationConfig {
            max_rounds: 1,
            policies: vec![NegotiationPolicy::Stubborn, NegotiationPolicy::Stubborn],
        };
        let outcome = negotiate(&dpm, budget, &config);
        assert!(outcome.operation.is_none(), "round budget exhausted");
        assert_eq!(outcome.rounds, 1);
        assert!(outcome.transcript.iter().any(|(_, e)| matches!(
            e,
            Event::NegotiationAnswered {
                answer: NegotiationAnswer::Reject,
                ..
            }
        )));
        // Given more rounds, the stubborn pair still converges: an unbind
        // of one designer's own property touches nobody else's viewpoint,
        // so the other stubborn designer accepts it.
        let patient = NegotiationConfig {
            max_rounds: 4,
            policies: vec![NegotiationPolicy::Stubborn, NegotiationPolicy::Stubborn],
        };
        let outcome = negotiate(&dpm, budget, &patient);
        let operation = outcome.operation.expect("unbind proposal accepted");
        assert!(matches!(operation.operator(), Operator::Unbind { .. }));
    }

    #[test]
    fn argumentative_counter_promotes_the_next_proposal() {
        let (dpm, budget) = conflicted_dpm();
        let config = NegotiationConfig {
            max_rounds: 4,
            policies: vec![
                NegotiationPolicy::Argumentative,
                NegotiationPolicy::Argumentative,
            ],
        };
        let outcome = negotiate(&dpm, budget, &config);
        // Round 1 is countered; round 2's proposal is accepted.
        assert!(outcome.rounds >= 2 || outcome.operation.is_none());
        if outcome.operation.is_some() {
            assert!(outcome.transcript.iter().any(|(_, e)| matches!(
                e,
                Event::NegotiationAnswered {
                    answer: NegotiationAnswer::Counter,
                    ..
                }
            )));
        }
    }

    #[test]
    fn negotiation_is_deterministic() {
        let (dpm, budget) = conflicted_dpm();
        let config = NegotiationConfig::default();
        let a = negotiate(&dpm, budget, &config);
        let b = negotiate(&dpm, budget, &config);
        assert_eq!(a.transcript, b.transcript);
        assert_eq!(a.operation, b.operation);
    }

    #[test]
    fn soft_members_are_offered_for_dropping_first() {
        let mut net = ConstraintNetwork::new();
        let x = net
            .add_property(Property::new("x", "o", Domain::interval(0.0, 10.0)))
            .unwrap();
        let hard = net
            .add_constraint("hard", var(x), Relation::Le, cst(5.0))
            .unwrap();
        let soft = net
            .add_constraint("nice", var(x), Relation::Le, cst(4.0))
            .unwrap();
        net.set_constraint_soft(soft, true).unwrap();
        let mut dpm = DesignProcessManager::new(net, DpmConfig::conventional());
        let d0 = dpm.add_designer();
        let top = dpm.problems_mut().add_root("p");
        *dpm.problems_mut().problem_mut(top) = dpm
            .problems()
            .problem(top)
            .clone()
            .with_outputs([x])
            .with_constraints([hard, soft])
            .with_assignee(d0);
        dpm.initialize();
        dpm.execute(Operation::assign(d0, top, x, Value::number(6.0)))
            .unwrap();
        dpm.execute(Operation::verify(d0, top)).unwrap();
        assert!(dpm.network().status(soft).is_violated());
        let queue = rank_proposals(&dpm, &[hard, soft], &[x]);
        // Best proposal is stored last (rounds pop from the back).
        assert_eq!(queue.last(), Some(&Proposal::DropSoft { constraint: soft }));
    }
}
