//! End-to-end acceptance test for the concurrent collaboration engine:
//! a **four-designer** concurrent TeamSim run on the MEMS sensing scenario
//! must complete, and its final feasible box and violation set must match
//! what the sequential engine produces when it replays the same history —
//! the linearizability guarantee the session loop provides, checked at
//! full-scenario scale.
//!
//! The sensing scenario ships with three designers; a fourth is added by
//! splitting the interface-circuit problem in two, exactly the kind of
//! mid-design re-decomposition the paper's collaboration model allows.

use adpm_collab::{run_concurrent_dpm, run_concurrent_remote};
use adpm_constraint::ConstraintNetwork;
use adpm_core::{replay_history, state_fingerprint, DesignProcessManager, OperationRecord};
use adpm_scenarios::{lna_walkthrough, sensing_system, wireless_receiver};
use adpm_teamsim::SimulationConfig;

/// Per-property feasible intervals in network order; an empty feasible set
/// is encoded as the reversed sentinel interval `(1.0, 0.0)`.
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

/// Builds the sensing-scenario DPM with a *fourth* designer who owns a new
/// `interface-backend` subproblem carved out of `interface-circuit`'s
/// outputs. Deterministic, so the concurrent run and the sequential replay
/// oracle both start from byte-identical design states. The DPM is *not*
/// initialized — both drivers do their own setup propagation.
fn four_designer_sensing_dpm(config: &SimulationConfig) -> DesignProcessManager {
    let scenario = sensing_system();
    let mut dpm = scenario.build_dpm(config.dpm_config());
    assert_eq!(dpm.designers().len(), 3, "sensing ships with 3 designers");
    let d3 = dpm.add_designer();

    let iface = dpm
        .problems()
        .ids()
        .find(|&id| dpm.problems().problem(id).name() == "interface-circuit")
        .expect("sensing scenario defines interface-circuit");
    let outputs = dpm.problems().problem(iface).outputs().to_vec();
    assert!(
        outputs.len() >= 4,
        "need enough outputs to split between two designers"
    );
    let (keep, moved) = outputs.split_at(outputs.len() / 2);

    let backend = dpm.problems_mut().decompose(iface, "interface-backend");
    *dpm.problems_mut().problem_mut(iface) = dpm
        .problems()
        .problem(iface)
        .clone()
        .with_outputs(keep.to_vec());
    *dpm.problems_mut().problem_mut(backend) = dpm
        .problems()
        .problem(backend)
        .clone()
        .with_outputs(moved.to_vec())
        .with_assignee(d3);
    dpm
}

#[test]
fn four_designer_concurrent_run_matches_sequential_replay() {
    let config = SimulationConfig::adpm(42);
    let outcome = run_concurrent_dpm(four_designer_sensing_dpm(&config), &config, true, None);
    assert!(
        outcome.stats.completed,
        "4-designer sensing run must complete (ops = {})",
        outcome.stats.operations
    );
    assert!(outcome.dpm.network().violated_constraints().is_empty());

    // The fourth designer is a real participant, not a bystander.
    let d3 = *outcome.dpm.designers().last().unwrap();
    assert!(
        outcome
            .dpm
            .history()
            .iter()
            .any(|r| r.operation.designer() == d3),
        "the added designer must execute at least one operation"
    );

    // Sequential oracle: replay the concurrent history on a fresh,
    // identically-split DPM through the core sequential path.
    let mut fresh = four_designer_sensing_dpm(&config);
    fresh.initialize();
    let replay = replay_history(outcome.dpm.history(), &mut fresh).expect("history replays");
    assert!(
        replay.faithful,
        "concurrent history must replay exactly through the sequential engine"
    );
    assert_eq!(
        feasible_boxes(outcome.dpm.network()),
        feasible_boxes(fresh.network()),
        "final feasible box must match the sequential engine's"
    );
    assert_eq!(
        outcome.dpm.network().violated_constraints(),
        fresh.network().violated_constraints(),
        "final violation set must match the sequential engine's"
    );
}

#[test]
fn four_designer_turn_barrier_runs_are_deterministic() {
    let config = SimulationConfig::adpm(42);
    let a = run_concurrent_dpm(four_designer_sensing_dpm(&config), &config, true, None);
    let b = run_concurrent_dpm(four_designer_sensing_dpm(&config), &config, true, None);
    assert_eq!(
        format!("{:?}", a.dpm.history()),
        format!("{:?}", b.dpm.history()),
        "turn-barrier runs must be a pure function of the seed"
    );
    assert_eq!(a.stats.operations, b.stats.operations);
    assert_eq!(a.stats.evaluations, b.stats.evaluations);
    assert_eq!(a.stats.spins, b.stats.spins);
    assert_eq!(
        feasible_boxes(a.dpm.network()),
        feasible_boxes(b.dpm.network())
    );
}

#[test]
fn four_designer_free_running_history_replays_faithfully() {
    let config = SimulationConfig::adpm(9);
    let outcome = run_concurrent_dpm(four_designer_sensing_dpm(&config), &config, false, None);
    assert!(!outcome.dpm.history().is_empty());

    let mut fresh = four_designer_sensing_dpm(&config);
    fresh.initialize();
    let replay = replay_history(outcome.dpm.history(), &mut fresh).expect("history replays");
    assert!(replay.faithful);
    assert_eq!(
        feasible_boxes(outcome.dpm.network()),
        feasible_boxes(fresh.network())
    );
    assert_eq!(
        outcome.dpm.network().violated_constraints(),
        fresh.network().violated_constraints()
    );
}

/// The history without repair tags, which the wire protocol does not
/// carry: a remote designer's tags never reach the served history.
fn untagged(history: &[OperationRecord]) -> Vec<OperationRecord> {
    history
        .iter()
        .map(|record| OperationRecord {
            operation: record.operation.clone().with_repairs([]),
            ..record.clone()
        })
        .collect()
}

#[test]
fn in_process_and_loopback_drivers_agree() {
    for scenario in [sensing_system(), wireless_receiver(), lna_walkthrough()] {
        // Conventional designers verify to discover violations, so verify
        // operations cross the wire too; 60 operations keep the runs short.
        let configs = (1..=3).flat_map(|seed| {
            let mut conventional = SimulationConfig::conventional(seed);
            conventional.max_operations = 60;
            [SimulationConfig::adpm(seed), conventional]
        });
        for config in configs {
            let seed = config.seed;
            let local =
                run_concurrent_dpm(scenario.build_dpm(config.dpm_config()), &config, true, None);
            let remote =
                run_concurrent_remote(scenario.build_dpm(config.dpm_config()), &config, None);
            assert!(!local.dpm.history().is_empty(), "seed {seed}");
            assert_eq!(
                untagged(local.dpm.history()),
                untagged(remote.dpm.history()),
                "seed {seed}: both transports must produce one history"
            );
            assert_eq!(
                state_fingerprint(&local.dpm),
                state_fingerprint(&remote.dpm),
                "seed {seed}"
            );
        }
    }
}
