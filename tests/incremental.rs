//! Scenario-level equivalence of the DCM's region propagation path: on
//! every built-in paper scenario, a design history recorded under full
//! propagation replays under region propagation to *bit-identical*
//! feasible subspaces, the same constraint statuses and known violations,
//! and the same notifications for every designer as an uncapped full
//! replay — while needing fewer constraint evaluations overall.

use adpm_constraint::{PropagationConfig, PropagationKind};
use adpm_core::{DesignProcessManager, DpmConfig};
use adpm_dddl::CompiledScenario;
use adpm_teamsim::{Simulation, SimulationConfig};

fn assert_equivalent(
    full: &mut DesignProcessManager,
    inc: &mut DesignProcessManager,
    context: &str,
) {
    let (fnet, inet) = (full.network(), inc.network());
    for pid in fnet.property_ids() {
        assert_eq!(
            format!("{:?}", fnet.feasible(pid)),
            format!("{:?}", inet.feasible(pid)),
            "{context}: feasible({}) diverged",
            fnet.property(pid).name()
        );
    }
    for cid in fnet.constraint_ids() {
        assert_eq!(
            fnet.status(cid),
            inet.status(cid),
            "{context}: status({}) diverged",
            fnet.constraint(cid).name()
        );
    }
    assert_eq!(
        full.known_violations(),
        inc.known_violations(),
        "{context}: known violations diverged"
    );
    for designer in full.designers().to_vec() {
        assert_eq!(
            full.take_notifications(designer),
            inc.take_notifications(designer),
            "{context}: notifications of {designer} diverged"
        );
    }
}

/// Records an ADPM history on `scenario` and replays it under uncapped full
/// and region propagation, checking equivalence after setup and every
/// operation. Returns `(full, region)` total evaluations.
fn replay_equivalence(name: &str, scenario: &CompiledScenario, seed: u64) -> (usize, usize) {
    let mut sim = Simulation::new(scenario, SimulationConfig::adpm(seed));
    sim.run();
    let history = sim.dpm().history().to_vec();
    assert!(!history.is_empty(), "{name}: seed {seed} produced no operations");

    let mut full = scenario.build_dpm(DpmConfig {
        propagation: PropagationConfig {
            max_evaluations: usize::MAX,
            ..PropagationConfig::default()
        },
        propagation_kind: PropagationKind::Full,
        ..DpmConfig::adpm()
    });
    let mut inc = scenario.build_dpm(DpmConfig::adpm());
    full.initialize();
    inc.initialize();
    assert_equivalent(&mut full, &mut inc, &format!("{name} seed {seed} setup"));

    let (mut full_evals, mut inc_evals) = (0usize, 0usize);
    for record in &history {
        let f = full.execute(record.operation.clone()).expect("full replay");
        let i = inc
            .execute(record.operation.clone())
            .expect("region replay");
        full_evals += f.evaluations;
        inc_evals += i.evaluations;
        assert_equivalent(
            &mut full,
            &mut inc,
            &format!("{name} seed {seed} op {}", record.sequence),
        );
    }
    (full_evals, inc_evals)
}

// Cost is asserted on seed *aggregates*: a region can span a whole
// scenario (and a relax runs full), so a single operation may break even,
// but across seeds the region path must win.

#[test]
fn sensing_system_replays_equivalently_and_cheaper() {
    let scenario = adpm_scenarios::sensing_system();
    let (mut full_total, mut inc_total) = (0, 0);
    for seed in [1, 5, 7] {
        let (full, inc) = replay_equivalence("sensing", &scenario, seed);
        full_total += full;
        inc_total += inc;
    }
    assert!(inc_total < full_total, "incremental {inc_total} !< full {full_total}");
}

#[test]
fn wireless_receiver_replays_equivalently_and_cheaper() {
    let scenario = adpm_scenarios::wireless_receiver();
    let (mut full_total, mut inc_total) = (0, 0);
    for seed in [1, 5, 7] {
        let (full, inc) = replay_equivalence("receiver", &scenario, seed);
        full_total += full;
        inc_total += inc;
    }
    assert!(inc_total < full_total, "incremental {inc_total} !< full {full_total}");
}

#[test]
fn lna_walkthrough_replays_equivalently() {
    // The walkthrough is tiny, so the saving is not the point here — the
    // oracle inside replay_equivalence must hold on every operation.
    let scenario = adpm_scenarios::lna_walkthrough();
    replay_equivalence("walkthrough", &scenario, 3);
}

#[test]
fn pipeline_replays_equivalently_and_cheaper() {
    let scenario = adpm_scenarios::pipeline(6);
    let (full, inc) = replay_equivalence("pipeline", &scenario, 5);
    assert!(inc < full, "incremental {inc} !< full {full}");
}

#[test]
fn incremental_simulation_completes_like_full() {
    // Drive TeamSim itself (not a replay) with the region DCM: the
    // simulated designers must still finish the sensing design.
    let scenario = adpm_scenarios::sensing_system();
    let full = adpm_teamsim::run_once(&scenario, SimulationConfig::adpm(11));
    let mut config = SimulationConfig::adpm(11);
    config.propagation_kind = adpm_constraint::PropagationKind::Incremental;
    let inc = adpm_teamsim::run_once(&scenario, config);
    assert!(inc.completed);
    assert_eq!(full.operations, inc.operations, "same seed, same decisions");
    assert!(
        inc.evaluations < full.evaluations,
        "incremental {} !< full {}",
        inc.evaluations,
        full.evaluations
    );
}
