//! Minimal conflicting constraint sets (MCS), the unit negotiation argues
//! about.
//!
//! A conflict surfaced by propagation names one constraint, but the *cause*
//! is usually a set: the named constraint plus the constraints whose
//! narrowings squeezed a shared property empty. Negotiation needs exactly
//! that set — it decides which designer viewpoints are party to the
//! conflict and which relaxations can possibly help. This module computes
//! it with the classic deletion-based reduction: start from the conflicting
//! constraint's connected component, try deleting each member in ascending
//! id order, and keep a deletion whenever the remainder still conflicts.
//! The result is *minimal*: it conflicts, and removing any single member
//! makes it consistent (both properties are proptested).
//!
//! Conflict here is judged from first principles — bound values as
//! singletons, unbound properties at their full initial range `E_i`, and a
//! fixed-point of HC4 revisions over **only** the subset — so the verdict
//! never depends on feasible-subspace state other constraints left behind.
//! The revisions run the network's compiled programs against an
//! [`IntervalArena`] holding that box, under the propagator's narrowing
//! rule; the reduction reuses one arena for all its tests.

use crate::arena::IntervalArena;
use crate::compile::ReviseScratch;
use crate::ids::{ConstraintId, PropertyId};
use crate::network::ConstraintNetwork;
use crate::propagate::significant_interval_narrowing;
use std::collections::BTreeSet;

/// Evaluation budget of one subset fixed-point, scaled by subset size.
/// Conflicts in practice appear within a couple of waves; a subset that
/// exhausts the budget without one is treated as consistent (sound for the
/// caller: negotiation simply argues about a slightly larger set).
pub(crate) const EVALS_PER_CONSTRAINT: usize = 64;

/// A minimal conflicting constraint set over a network's current bindings.
#[derive(Debug, Clone, PartialEq)]
pub struct MinimalConflictSet {
    /// The constraint the conflict was detected on. Almost always a
    /// member; dropped only when the rest of the set conflicts without it.
    pub seed: ConstraintId,
    /// The minimal set, ascending id order.
    pub members: Vec<ConstraintId>,
    /// Subset fixed-point runs the reduction performed (cost accounting).
    pub tests: usize,
}

impl MinimalConflictSet {
    /// Every property argued over by a member constraint, ascending.
    pub fn properties(&self, net: &ConstraintNetwork) -> Vec<PropertyId> {
        let mut props: BTreeSet<PropertyId> = BTreeSet::new();
        for cid in &self.members {
            props.extend(net.constraint(*cid).argument_slice().iter().copied());
        }
        props.into_iter().collect()
    }
}

/// Whether the given constraint subset is conflicting on its own: a
/// fixed-point of HC4 revisions over just these constraints — bound
/// properties pinned to singletons, unbound ones starting from their full
/// initial range — empties some property's interval or proves a member
/// unsatisfiable.
pub fn subset_conflicts(net: &ConstraintNetwork, subset: &BTreeSet<ConstraintId>) -> bool {
    let mut arena = IntervalArena::new(net.property_count());
    subset_conflicts_in(net, subset, &mut arena, &mut ReviseScratch::new())
}

/// [`subset_conflicts`] on a reused arena: only the subset's arguments are
/// reset, and only they are read.
fn subset_conflicts_in(
    net: &ConstraintNetwork,
    subset: &BTreeSet<ConstraintId>,
    arena: &mut IntervalArena,
    scratch: &mut ReviseScratch,
) -> bool {
    for cid in subset {
        for pid in net.constraint(*cid).argument_slice() {
            arena.set(*pid, net.initial_interval(*pid));
        }
    }
    let programs = net.programs();
    let budget = EVALS_PER_CONSTRAINT * subset.len();
    let mut evals = 0usize;
    let mut narrowed = Vec::new();
    // Chaotic iteration over the subset in id order: sweep until a full
    // pass narrows nothing (fixed point) or the budget censors the run.
    loop {
        let mut narrowed_any = false;
        for cid in subset {
            if evals >= budget {
                return false; // censored: treat as consistent
            }
            evals += 1;
            if programs.revise(*cid, arena, scratch, &mut narrowed) {
                return true;
            }
            for &(pid, iv) in &narrowed {
                if significant_interval_narrowing(&arena.get(pid), &iv) {
                    arena.set(pid, iv);
                    narrowed_any = true;
                }
            }
        }
        if !narrowed_any {
            return false;
        }
    }
}

/// Reduces the conflict detected on `seed` to a minimal conflicting set.
///
/// The candidate set is `seed`'s connected component (constraints outside
/// it share no property with it and cannot participate). Members are then
/// deleted greedily in ascending id order, keeping each deletion whose
/// remainder still conflicts — the standard deletion-based MUS algorithm,
/// whose fixed visitation order makes the result deterministic for a given
/// network state.
///
/// Returns `None` when the candidate set does not conflict under the
/// first-principles test — e.g. the "conflict" was an artifact of stale
/// feasible-subspace state rather than of the constraints themselves.
pub fn minimal_conflict_set(
    net: &ConstraintNetwork,
    seed: ConstraintId,
) -> Option<MinimalConflictSet> {
    let mut candidate: BTreeSet<ConstraintId> = net
        .constraint_components()
        .into_iter()
        .find(|component| component.contains(&seed))?
        .into_iter()
        .collect();
    let mut arena = IntervalArena::new(net.property_count());
    let mut scratch = ReviseScratch::new();
    let mut conflicts = |subset: &BTreeSet<ConstraintId>| {
        subset_conflicts_in(net, subset, &mut arena, &mut scratch)
    };
    let mut tests = 1;
    if !conflicts(&candidate) {
        return None;
    }
    // Ascending id order with the seed tried last: deterministic, and it
    // biases the reduction toward keeping the constraint the designers
    // actually saw fail. The seed still gets its own deletion test —
    // minimality must hold for *every* member — so in the rare case where
    // the rest conflicts on its own, the seed is dropped like any other
    // redundant member.
    let order: Vec<ConstraintId> = candidate
        .iter()
        .copied()
        .filter(|cid| *cid != seed)
        .chain(std::iter::once(seed))
        .collect();
    for cid in order {
        candidate.remove(&cid);
        tests += 1;
        if !conflicts(&candidate) {
            candidate.insert(cid); // needed for the conflict; keep it
        }
    }
    Some(MinimalConflictSet {
        seed,
        members: candidate.into_iter().collect(),
        tests,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::expr::{cst, var};
    use crate::network::Property;
    use crate::value::Value;
    use crate::Relation;

    fn prop(net: &mut ConstraintNetwork, name: &str, lo: f64, hi: f64) -> PropertyId {
        net.add_property(Property::new(name, "obj", Domain::interval(lo, hi)))
            .unwrap()
    }

    #[test]
    fn directly_violated_bound_constraint_reduces_to_itself() {
        let mut net = ConstraintNetwork::new();
        let x = prop(&mut net, "x", 0.0, 10.0);
        let cap = net
            .add_constraint("cap", var(x), Relation::Le, cst(4.0))
            .unwrap();
        let _floor = net
            .add_constraint("floor", var(x), Relation::Ge, cst(0.0))
            .unwrap();
        net.bind(x, Value::number(9.0)).unwrap();
        net.evaluate_statuses();
        let mcs = minimal_conflict_set(&net, cap).expect("conflicting");
        assert_eq!(mcs.members, vec![cap]);
        assert_eq!(mcs.seed, cap);
    }

    #[test]
    fn chained_conflict_keeps_every_contributing_constraint() {
        // x bound low; `link` forces y <= x; `need` demands y >= 8. The
        // conflict on `need` is only explainable with `link` in the set.
        let mut net = ConstraintNetwork::new();
        let x = prop(&mut net, "x", 0.0, 10.0);
        let y = prop(&mut net, "y", 0.0, 10.0);
        let z = prop(&mut net, "z", 0.0, 10.0);
        let link = net
            .add_constraint("link", var(y), Relation::Le, var(x))
            .unwrap();
        let need = net
            .add_constraint("need", var(y), Relation::Ge, cst(8.0))
            .unwrap();
        // Same component, but irrelevant to the conflict: must be deleted.
        let slack = net
            .add_constraint("slack", var(z), Relation::Le, var(y) + cst(100.0))
            .unwrap();
        net.bind(x, Value::number(2.0)).unwrap();
        net.evaluate_statuses();
        let mcs = minimal_conflict_set(&net, need).expect("conflicting");
        assert_eq!(mcs.members, vec![link, need]);
        assert!(!mcs.members.contains(&slack));
        assert_eq!(mcs.properties(&net), vec![x, y]);
    }

    #[test]
    fn consistent_seed_yields_none() {
        let mut net = ConstraintNetwork::new();
        let x = prop(&mut net, "x", 0.0, 10.0);
        let cap = net
            .add_constraint("cap", var(x), Relation::Le, cst(4.0))
            .unwrap();
        net.bind(x, Value::number(3.0)).unwrap();
        net.evaluate_statuses();
        assert!(minimal_conflict_set(&net, cap).is_none());
    }

    #[test]
    fn subset_conflict_test_ignores_constraints_outside_the_subset() {
        let mut net = ConstraintNetwork::new();
        let x = prop(&mut net, "x", 0.0, 10.0);
        let lo = net
            .add_constraint("lo", var(x), Relation::Ge, cst(8.0))
            .unwrap();
        let hi = net
            .add_constraint("hi", var(x), Relation::Le, cst(2.0))
            .unwrap();
        // Together they conflict; each alone is satisfiable.
        let both: BTreeSet<ConstraintId> = [lo, hi].into_iter().collect();
        let just_lo: BTreeSet<ConstraintId> = [lo].into_iter().collect();
        assert!(subset_conflicts(&net, &both));
        assert!(!subset_conflicts(&net, &just_lo));
        assert!(!subset_conflicts(&net, &BTreeSet::new()));
    }

    #[test]
    fn removal_of_any_member_makes_the_set_consistent() {
        let mut net = ConstraintNetwork::new();
        let x = prop(&mut net, "x", 0.0, 10.0);
        let y = prop(&mut net, "y", 0.0, 10.0);
        let link = net
            .add_constraint("link", var(y), Relation::Le, var(x))
            .unwrap();
        let need = net
            .add_constraint("need", var(y), Relation::Ge, cst(8.0))
            .unwrap();
        net.bind(x, Value::number(2.0)).unwrap();
        net.evaluate_statuses();
        let mcs = minimal_conflict_set(&net, need).expect("conflicting");
        let members: BTreeSet<ConstraintId> = mcs.members.iter().copied().collect();
        assert!(subset_conflicts(&net, &members));
        for cid in &[link, need] {
            let mut without = members.clone();
            without.remove(cid);
            assert!(!subset_conflicts(&net, &without), "removing {cid:?}");
        }
    }
}
