//! Linearizability-style property test for the session engine: arbitrary
//! interleavings of concurrent `submit` calls from free-running designer
//! threads must produce a history that is a *valid sequential history* —
//! replaying it through [`adpm_core::replay_history`] on a fresh DPM must
//! be faithful and land on the identical fixed-point box and violation
//! set. The session loop linearizes by construction (one command thread);
//! this test is the executable statement of that guarantee.

use adpm_collab::{OpOutcome, SessionEngine};
use adpm_constraint::{
    expr::{cst, var},
    ConstraintNetwork, Domain, Property, PropertyId, Relation, Value,
};
use adpm_core::{
    replay_history, DesignProcessManager, DesignerId, DpmConfig, Operation, ProblemId,
};
use proptest::prelude::*;
use std::thread;

/// Three designers each own one shared-bus property; two overlapping sum
/// caps couple neighbours so one designer's assignment narrows another's
/// feasible range (and can reject a stale concurrent proposal).
fn fixture() -> (
    DesignProcessManager,
    Vec<(DesignerId, ProblemId, PropertyId)>,
) {
    let mut net = ConstraintNetwork::new();
    let props: Vec<PropertyId> = ["x", "y", "z"]
        .iter()
        .map(|name| {
            net.add_property(Property::new(*name, "bus", Domain::interval(0.0, 100.0)))
                .unwrap()
        })
        .collect();
    let cap_xy = net
        .add_constraint(
            "cap-xy",
            var(props[0]) + var(props[1]),
            Relation::Le,
            cst(120.0),
        )
        .unwrap();
    let cap_yz = net
        .add_constraint(
            "cap-yz",
            var(props[1]) + var(props[2]),
            Relation::Le,
            cst(120.0),
        )
        .unwrap();

    let mut dpm = DesignProcessManager::new(net, DpmConfig::adpm());
    let designers: Vec<DesignerId> = (0..3).map(|_| dpm.add_designer()).collect();
    let top = dpm.problems_mut().add_root("bus");
    *dpm.problems_mut().problem_mut(top) = dpm
        .problems()
        .problem(top)
        .clone()
        .with_constraints([cap_xy, cap_yz]);
    let mut lanes = Vec::new();
    for (i, (&designer, &property)) in designers.iter().zip(props.iter()).enumerate() {
        let child = dpm.problems_mut().decompose(top, format!("lane-{i}"));
        *dpm.problems_mut().problem_mut(child) = dpm
            .problems()
            .problem(child)
            .clone()
            .with_outputs([property])
            .with_assignee(designer);
        lanes.push((designer, child, property));
    }
    dpm.initialize();
    (dpm, lanes)
}

/// One generated designer action, turned into an [`Operation`] against the
/// designer's own lane.
#[derive(Debug, Clone)]
enum Action {
    Assign(f64),
    Unbind,
    Verify,
}

impl Action {
    fn operation(&self, lane: &(DesignerId, ProblemId, PropertyId)) -> Operation {
        let &(designer, problem, property) = lane;
        match self {
            Action::Assign(v) => Operation::assign(designer, problem, property, Value::number(*v)),
            Action::Unbind => Operation::unbind(designer, problem, property),
            Action::Verify => Operation::verify(designer, problem),
        }
    }
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0.0f64..150.0).prop_map(Action::Assign),
        (0.0f64..150.0).prop_map(Action::Assign),
        (0.0f64..150.0).prop_map(Action::Assign),
        (0.0f64..150.0).prop_map(Action::Assign),
        Just(Action::Unbind),
        Just(Action::Verify),
    ]
}

fn feasible_boxes(network: &ConstraintNetwork) -> Vec<(f64, f64)> {
    network
        .property_ids()
        .map(|id| {
            network
                .feasible(id)
                .enclosing_interval()
                .map_or((1.0, 0.0), |iv| (iv.lo(), iv.hi()))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Free-running threads hammer one session with generated per-designer
    /// operation sequences; whatever interleaving the scheduler picks, the
    /// recorded history must replay faithfully on a fresh DPM and agree on
    /// the final feasible box and violation set.
    #[test]
    fn concurrent_submissions_linearize(
        seqs in proptest::collection::vec(
            proptest::collection::vec(action(), 0..6),
            3..4,
        )
    ) {
        let (dpm, lanes) = fixture();
        let engine = SessionEngine::spawn(dpm);

        let mut threads = Vec::new();
        for (lane, actions) in lanes.iter().zip(seqs.iter()) {
            let handle = engine.handle();
            let ops: Vec<Operation> =
                actions.iter().map(|a| a.operation(lane)).collect();
            threads.push(thread::spawn(move || {
                let mut executed = 0usize;
                for op in ops {
                    match handle.submit(op) {
                        Ok(OpOutcome::Executed(_)) => executed += 1,
                        Ok(OpOutcome::Rejected(_)) => {}
                        Err(_) => break,
                    }
                }
                executed
            }));
        }
        let executed: usize = threads.into_iter().map(|t| t.join().unwrap()).sum();

        let final_dpm = engine.shutdown().expect("session open");
        // Every Executed outcome is one history entry — nothing lost,
        // nothing double-counted across the thread boundary.
        prop_assert_eq!(executed, final_dpm.history().len());

        let (mut fresh, _) = fixture();
        let replay = replay_history(final_dpm.history(), &mut fresh)
            .expect("concurrent history must be replayable");
        prop_assert!(replay.faithful, "replay diverged from the live session");
        prop_assert_eq!(
            feasible_boxes(final_dpm.network()),
            feasible_boxes(fresh.network())
        );
        prop_assert_eq!(
            final_dpm.network().violated_constraints(),
            fresh.network().violated_constraints()
        );
    }
}
