//! Reproducibility: every simulation is a pure function of (scenario,
//! config) — the property that makes the paper's seed-sweep methodology
//! sound.

use adpm_core::{replay_history, ManagementMode};
use adpm_teamsim::{run_once, Simulation, SimulationConfig};

#[test]
fn identical_configs_reproduce_identical_runs() {
    for scenario in [
        adpm_scenarios::sensing_system(),
        adpm_scenarios::wireless_receiver(),
        adpm_scenarios::lna_walkthrough(),
    ] {
        for mode in [ManagementMode::Adpm, ManagementMode::Conventional] {
            for seed in [0u64, 9] {
                let a = run_once(&scenario, SimulationConfig::for_mode(mode, seed));
                let b = run_once(&scenario, SimulationConfig::for_mode(mode, seed));
                assert_eq!(a, b, "{mode:?}/seed {seed} not reproducible");
            }
        }
    }
}

#[test]
fn recompiling_the_scenario_does_not_change_runs() {
    let a = run_once(&adpm_scenarios::sensing_system(), SimulationConfig::adpm(3));
    let b = run_once(&adpm_scenarios::sensing_system(), SimulationConfig::adpm(3));
    assert_eq!(a, b);
}

#[test]
fn different_seeds_explore_different_traces() {
    let scenario = adpm_scenarios::sensing_system();
    let runs: Vec<_> = (0..8u64)
        .map(|seed| run_once(&scenario, SimulationConfig::conventional(seed)))
        .collect();
    let distinct_ops: std::collections::BTreeSet<usize> =
        runs.iter().map(|r| r.operations).collect();
    assert!(
        distinct_ops.len() > 1,
        "8 conventional seeds all produced {} operations",
        runs[0].operations
    );
}

#[test]
fn full_simulation_histories_replay_faithfully() {
    for mode in [ManagementMode::Adpm, ManagementMode::Conventional] {
        let scenario = adpm_scenarios::sensing_system();
        let config = SimulationConfig::for_mode(mode, 6);
        let mut sim = Simulation::new(&scenario, config.clone());
        let stats = sim.run();
        assert!(stats.completed);
        // Re-execute the recorded history on a fresh, identically
        // initialized DPM: every record must reproduce exactly.
        let mut fresh = scenario.build_dpm(config.dpm_config());
        fresh.initialize();
        let outcome = replay_history(sim.dpm().history(), &mut fresh)
            .expect("history is valid for its own scenario");
        assert!(outcome.faithful, "{mode:?} replay diverged");
        assert!(fresh.design_complete());
        assert_eq!(fresh.spins(), sim.dpm().spins());
    }
}

#[test]
fn mode_flag_changes_behaviour_not_scenario() {
    // Same scenario object, both modes: the compiled scenario must be
    // immutable (runs cannot leak state into it).
    let scenario = adpm_scenarios::wireless_receiver();
    let before = scenario.network().property_count();
    let _ = run_once(&scenario, SimulationConfig::adpm(0));
    let _ = run_once(&scenario, SimulationConfig::conventional(0));
    assert_eq!(scenario.network().property_count(), before);
    for pid in scenario.network().property_ids() {
        // No assignments may have leaked into the template network beyond
        // the declared `init` bindings.
        let is_init = scenario.initial_bindings().iter().any(|(p, _)| *p == pid);
        assert!(
            scenario.network().assignment(pid).is_none(),
            "template network must stay unbound (init happens per run), pid bound: {pid:?}, init: {is_init}"
        );
    }
}
