//! The id↔name codec of one session.
//!
//! The DPM executes operations on ids; the wire, the journal and the
//! remote TeamSim driver carry them by name — properties as
//! `object.name`, constraints and problems by their declared names. A
//! [`NameTable`] snapshots those names once per session (the property,
//! constraint and problem *sets* are fixed after scenario setup; only
//! bindings and feasible subspaces change) and holds every encoding next
//! to its inverse: [`resolve_operation`](NameTable::resolve_operation) /
//! [`wire_op`](NameTable::wire_op) for submissions,
//! [`executed`](NameTable::executed) / [`record`](NameTable::record) for
//! verdicts, and [`event_frame`](NameTable::event_frame) for routed
//! events. When two constraints share a name, the lower id wins.

use crate::notify::InboxEntry;
use crate::wire::{Frame, WireOp};
use adpm_constraint::{ConstraintId, PropertyId, Value};
use adpm_core::{
    DesignProcessManager, DesignerId, Event, NegotiationAnswer, Operation, OperationRecord,
    Operator, ProblemId,
};
use std::collections::BTreeMap;

/// Names of one session's properties, constraints and problems, in both
/// directions.
#[derive(Debug)]
pub(crate) struct NameTable {
    /// `object.name` per property, indexed by `PropertyId::index()`.
    property_names: Vec<String>,
    property_ids: BTreeMap<String, PropertyId>,
    constraint_names: Vec<String>,
    constraint_ids: BTreeMap<String, ConstraintId>,
    problem_names: Vec<String>,
    problem_ids: BTreeMap<String, ProblemId>,
}

impl NameTable {
    pub(crate) fn build(dpm: &DesignProcessManager) -> Self {
        let network = dpm.network();
        let mut property_names = Vec::with_capacity(network.property_count());
        let mut property_ids = BTreeMap::new();
        for id in network.property_ids() {
            let full = network.property(id).qualified_name().to_owned();
            property_ids.entry(full.clone()).or_insert(id);
            property_names.push(full);
        }
        let mut constraint_names = Vec::with_capacity(network.constraint_count());
        let mut constraint_ids = BTreeMap::new();
        for id in network.constraint_ids() {
            let name = network.constraint(id).name().to_owned();
            constraint_ids.entry(name.clone()).or_insert(id);
            constraint_names.push(name);
        }
        let mut problem_names = Vec::with_capacity(dpm.problems().len());
        let mut problem_ids = BTreeMap::new();
        for id in dpm.problems().ids() {
            let name = dpm.problems().problem(id).name().to_owned();
            problem_ids.entry(name.clone()).or_insert(id);
            problem_names.push(name);
        }
        NameTable {
            property_names,
            property_ids,
            constraint_names,
            constraint_ids,
            problem_names,
            problem_ids,
        }
    }

    /// `object.name` of every property, in id order.
    pub(crate) fn property_names(&self) -> &[String] {
        &self.property_names
    }

    pub(crate) fn constraint_count(&self) -> usize {
        self.constraint_names.len()
    }

    pub(crate) fn property_name(&self, id: PropertyId) -> &str {
        &self.property_names[id.index()]
    }

    pub(crate) fn constraint_name(&self, id: ConstraintId) -> &str {
        &self.constraint_names[id.index()]
    }

    pub(crate) fn property_id(&self, name: &str) -> Option<PropertyId> {
        self.property_ids.get(name).copied()
    }

    pub(crate) fn constraint_id(&self, name: &str) -> Option<ConstraintId> {
        self.constraint_ids.get(name).copied()
    }

    /// Comma-joined constraint names — the inverse of
    /// [`constraint_ids`](Self::constraint_ids).
    pub(crate) fn join_constraints(&self, ids: &[ConstraintId]) -> String {
        ids.iter()
            .map(|c| self.constraint_name(*c))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Resolves comma-joined constraint names; blank entries are skipped.
    pub(crate) fn constraint_ids(&self, joined: &str) -> Result<Vec<ConstraintId>, String> {
        joined
            .split(',')
            .map(str::trim)
            .filter(|name| !name.is_empty())
            .map(|name| {
                self.constraint_id(name)
                    .ok_or_else(|| format!("unknown constraint `{name}`"))
            })
            .collect()
    }

    /// Resolves a wire submission into `designer`'s [`Operation`].
    pub(crate) fn resolve_operation(
        &self,
        designer: DesignerId,
        op: WireOp,
    ) -> Result<Operation, String> {
        let problem_id = |name: &str| {
            self.problem_ids
                .get(name)
                .copied()
                .ok_or_else(|| format!("unknown problem `{name}`"))
        };
        let property_id = |name: &str| {
            self.property_id(name)
                .ok_or_else(|| format!("unknown property `{name}` (use `object.property`)"))
        };
        match op {
            WireOp::Assign {
                problem,
                property,
                value,
            } => {
                if !value.is_finite() {
                    return Err(format!("value for `{property}` must be finite"));
                }
                Ok(Operation::assign(
                    designer,
                    problem_id(&problem)?,
                    property_id(&property)?,
                    Value::number(value),
                ))
            }
            WireOp::Unbind { problem, property } => Ok(Operation::unbind(
                designer,
                problem_id(&problem)?,
                property_id(&property)?,
            )),
            WireOp::Verify {
                problem,
                constraints,
            } => Ok(Operation::new(
                designer,
                problem_id(&problem)?,
                Operator::Verify {
                    constraints: self.constraint_ids(&constraints)?,
                },
            )),
        }
    }

    /// Encodes `operation` for the wire — the inverse of
    /// [`resolve_operation`](Self::resolve_operation), repair tags aside
    /// (the protocol does not carry them). `None` for operators the
    /// protocol does not carry: decompose, non-numeric assigns, and relax,
    /// which only the server's own negotiation engine issues.
    pub(crate) fn wire_op(&self, operation: &Operation) -> Option<WireOp> {
        let problem = self.problem_names.get(operation.problem().index())?.clone();
        let property = |id: &PropertyId| self.property_names.get(id.index()).cloned();
        match operation.operator() {
            Operator::Assign {
                property: id,
                value: Value::Number(value),
            } => Some(WireOp::Assign {
                problem,
                property: property(id)?,
                value: *value,
            }),
            Operator::Unbind { property: id } => Some(WireOp::Unbind {
                problem,
                property: property(id)?,
            }),
            Operator::Verify { constraints } => Some(WireOp::Verify {
                problem,
                constraints: self.join_constraints(constraints),
            }),
            Operator::Assign { .. } | Operator::Decompose { .. } | Operator::Relax { .. } => None,
        }
    }

    /// The `executed` verdict for `record`, echoing `cid`.
    pub(crate) fn executed(&self, record: &OperationRecord, cid: Option<u64>) -> Frame {
        Frame::Executed {
            seq: record.sequence as u64,
            evaluations: record.evaluations as u64,
            violations_after: record.violations_after as u32,
            new_violations: self.join_constraints(&record.new_violations),
            spin: record.spin,
            cid,
        }
    }

    /// Rebuilds the record of `operation` from its `executed` verdict —
    /// the inverse of [`executed`](Self::executed). `None` for any other
    /// frame or for a verdict naming an unknown constraint.
    pub(crate) fn record(&self, operation: Operation, verdict: &Frame) -> Option<OperationRecord> {
        let Frame::Executed {
            seq,
            evaluations,
            violations_after,
            new_violations,
            spin,
            ..
        } = verdict
        else {
            return None;
        };
        Some(OperationRecord {
            sequence: *seq as usize,
            operation,
            evaluations: *evaluations as usize,
            violations_after: *violations_after as usize,
            new_violations: self.constraint_ids(new_violations).ok()?,
            spin: *spin,
        })
    }

    /// The wire frame notifying a subscriber of one routed event.
    pub(crate) fn event_frame(&self, entry: &InboxEntry) -> Frame {
        match &*entry.event {
            Event::ViolationDetected {
                constraint,
                properties,
            } => Frame::Event {
                seq: entry.seq,
                kind: "violation_detected".into(),
                subject: self.constraint_name(*constraint).to_owned(),
                properties: properties
                    .iter()
                    .map(|p| self.property_name(*p))
                    .collect::<Vec<_>>()
                    .join(","),
                relative_size: 0.0,
                idx: entry.idx,
            },
            Event::ViolationResolved { constraint } => Frame::Event {
                seq: entry.seq,
                kind: "violation_resolved".into(),
                subject: self.constraint_name(*constraint).to_owned(),
                properties: String::new(),
                relative_size: 0.0,
                idx: entry.idx,
            },
            Event::FeasibleReduced {
                property,
                relative_size,
            } => Frame::Event {
                seq: entry.seq,
                kind: "feasible_reduced".into(),
                subject: self.property_name(*property).to_owned(),
                properties: String::new(),
                relative_size: *relative_size,
                idx: entry.idx,
            },
            Event::FeasibleEmptied { property } => Frame::Event {
                seq: entry.seq,
                kind: "feasible_emptied".into(),
                subject: self.property_name(*property).to_owned(),
                properties: String::new(),
                relative_size: 0.0,
                idx: entry.idx,
            },
            Event::ProblemSolved { problem } => Frame::Event {
                seq: entry.seq,
                kind: "problem_solved".into(),
                subject: self.problem_names[problem.index()].clone(),
                properties: String::new(),
                relative_size: 0.0,
                idx: entry.idx,
            },
            Event::NegotiationProposed {
                constraint,
                round,
                proposer,
                proposal,
            } => Frame::Propose {
                seq: entry.seq,
                round: *round,
                proposer: proposer.index() as u32,
                kind: proposal.kind().into(),
                constraint: self.constraint_name(*constraint).to_owned(),
                property: proposal
                    .property()
                    .map(|p| self.property_name(p).to_owned())
                    .unwrap_or_default(),
                slack: proposal.slack(),
                idx: entry.idx,
            },
            Event::NegotiationAnswered {
                round,
                designer,
                answer,
                counter,
                ..
            } => match (answer, counter) {
                (NegotiationAnswer::Counter, Some(alternative)) => Frame::CounterProposal {
                    seq: entry.seq,
                    round: *round,
                    designer: designer.index() as u32,
                    kind: alternative.kind().into(),
                    constraint: alternative
                        .constraint()
                        .map(|c| self.constraint_name(c).to_owned())
                        .unwrap_or_default(),
                    property: alternative
                        .property()
                        .map(|p| self.property_name(p).to_owned())
                        .unwrap_or_default(),
                    slack: alternative.slack(),
                    idx: entry.idx,
                },
                (NegotiationAnswer::Reject, _) => Frame::Reject {
                    seq: entry.seq,
                    round: *round,
                    designer: designer.index() as u32,
                    idx: entry.idx,
                },
                // `Counter` without an alternative degrades to assent in
                // the engine; encode it as the accept it effectively is.
                _ => Frame::Accept {
                    seq: entry.seq,
                    round: *round,
                    designer: designer.index() as u32,
                    idx: entry.idx,
                },
            },
            Event::NegotiationClosed {
                constraint,
                rounds,
                resolved,
                ..
            } => Frame::Resolved {
                seq: entry.seq,
                constraint: self.constraint_name(*constraint).to_owned(),
                rounds: *rounds,
                // The engine's proposal count equals its round count (one
                // proposal is tabled per round).
                proposals: *rounds,
                outcome: if *resolved { "resolved" } else { "abandoned" }.into(),
                idx: entry.idx,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adpm_scenarios::{lna_walkthrough, sensing_system, wireless_receiver};
    use adpm_teamsim::SimulationConfig;

    #[test]
    fn every_name_round_trips_through_the_table() {
        for scenario in [sensing_system(), wireless_receiver(), lna_walkthrough()] {
            let dpm = scenario.build_dpm(SimulationConfig::adpm(1).dpm_config());
            let names = NameTable::build(&dpm);
            let network = dpm.network();
            let designer = DesignerId::new(0);
            let constraints: Vec<ConstraintId> = network.constraint_ids().collect();
            let mut operations = Vec::new();
            for problem in dpm.problems().ids() {
                for property in network.property_ids() {
                    operations.push(Operation::assign(
                        designer,
                        problem,
                        property,
                        Value::number(1.25),
                    ));
                    operations.push(Operation::unbind(designer, problem, property));
                }
                operations.push(Operation::verify(designer, problem));
                for c in &constraints {
                    operations.push(Operation::new(
                        designer,
                        problem,
                        Operator::Verify {
                            constraints: vec![*c],
                        },
                    ));
                }
                operations.push(Operation::new(
                    designer,
                    problem,
                    Operator::Verify {
                        constraints: constraints.clone(),
                    },
                ));
            }
            for (index, operation) in operations.into_iter().enumerate() {
                let wire = names.wire_op(&operation).expect("carried by the wire");
                let resolved = names.resolve_operation(designer, wire).expect("resolves");
                assert_eq!(resolved, operation);
                let record = OperationRecord {
                    sequence: index + 1,
                    operation,
                    evaluations: index * 3,
                    violations_after: index % 4,
                    new_violations: constraints
                        .iter()
                        .copied()
                        .skip(index % 3)
                        .step_by(2)
                        .collect(),
                    spin: index % 2 == 0,
                };
                let verdict = names.executed(&record, Some(index as u64));
                assert_eq!(
                    names.record(record.operation.clone(), &verdict),
                    Some(record)
                );
            }
        }
    }
}
