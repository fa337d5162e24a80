//! End-to-end integration: DDDL text → compiled scenario → design-process
//! manager → TeamSim run, across all layers of the workspace.

use adpm_constraint::Value;
use adpm_core::{DpmConfig, ManagementMode, Operation, ProblemStatus};
use adpm_dddl::compile_source;
use adpm_teamsim::{run_once, Simulation, SimulationConfig, StepOutcome};

const MINI: &str = r#"
object a { property x : interval(0, 10); }
object b { property y : interval(0, 10); }
constraint link: a.x + b.y <= 12;
constraint floor: a.x >= 2;
problem top { constraints: link; designer 0; }
problem pa under top { outputs: a.x; constraints: floor; designer 0; }
problem pb under top { outputs: b.y; designer 1; }
"#;

#[test]
fn dddl_to_simulation_pipeline() {
    let scenario = compile_source(MINI).expect("valid DDDL");
    for mode in [ManagementMode::Adpm, ManagementMode::Conventional] {
        let stats = run_once(&scenario, SimulationConfig::for_mode(mode, 1));
        assert!(
            stats.completed,
            "{mode:?} failed in {} ops",
            stats.operations
        );
        assert!(stats.operations >= 2, "must bind at least two outputs");
    }
}

#[test]
fn manual_operations_drive_the_same_pipeline() {
    let scenario = compile_source(MINI).expect("valid DDDL");
    let mut dpm = scenario.build_dpm(DpmConfig::adpm());
    dpm.initialize();
    let x = scenario.property("a", "x").expect("exists");
    let y = scenario.property("b", "y").expect("exists");
    let d = dpm.designers().to_vec();
    let top = dpm.problems().root().expect("root");
    let pa = dpm.problems().problem(top).children()[0];
    let pb = dpm.problems().problem(top).children()[1];

    // Propagation already narrowed x's feasible set via `floor`.
    let fx = dpm
        .network()
        .feasible(x)
        .enclosing_interval()
        .expect("numeric");
    assert_eq!(fx.lo(), 2.0);

    dpm.execute(Operation::assign(d[0], pa, x, Value::number(9.0)))
        .expect("x in range");
    // link: y <= 3 now.
    let fy = dpm
        .network()
        .feasible(y)
        .enclosing_interval()
        .expect("numeric");
    assert!((fy.hi() - 3.0).abs() < 1e-9);

    dpm.execute(Operation::assign(d[1], pb, y, Value::number(2.5)))
        .expect("y in range");
    assert!(dpm.design_complete());
    assert_eq!(dpm.problems().problem(top).status(), ProblemStatus::Solved);
}

#[test]
fn both_paper_cases_complete_in_both_modes_for_several_seeds() {
    for scenario in [
        adpm_scenarios::sensing_system(),
        adpm_scenarios::wireless_receiver(),
    ] {
        for seed in [0u64, 13, 29] {
            for mode in [ManagementMode::Adpm, ManagementMode::Conventional] {
                let stats = run_once(&scenario, SimulationConfig::for_mode(mode, seed));
                assert!(
                    stats.completed,
                    "{mode:?}/seed {seed} censored at {} ops",
                    stats.operations
                );
                // Completion implies a valid design: re-check every
                // constraint against the oracle (ground-truth point check).
                // The engine's termination condition must never lie.
                assert_eq!(
                    stats.spins,
                    stats.per_operation.iter().filter(|s| s.spin).count()
                );
            }
        }
    }
}

#[test]
fn completed_design_satisfies_every_constraint_ground_truth() {
    let scenario = adpm_scenarios::sensing_system();
    let config = SimulationConfig::adpm(5);
    let mut sim = adpm_teamsim::Simulation::new(&scenario, config);
    let stats = sim.run();
    assert!(stats.completed);
    let net = sim.dpm().network();
    for cid in net.constraint_ids() {
        assert!(
            net.all_arguments_bound(cid),
            "{} has unbound arguments after completion",
            net.constraint(cid).name()
        );
        assert!(
            net.check_constraint_point(cid),
            "{} violated in the final design",
            net.constraint(cid).name()
        );
    }
}

#[test]
fn problem_ordering_is_respected_by_the_simulation() {
    // `late` may only start after `early` is solved; every `late` output
    // binding must therefore come after every `early` output binding.
    let scenario = compile_source(
        r#"
        object o {
            property x : interval(0, 10);
            property y : interval(0, 10);
        }
        constraint link: o.y >= o.x;
        problem top { constraints: link; designer 0; }
        problem early under top { outputs: o.x; designer 0; }
        problem late under top after early { outputs: o.y; designer 1; }
        "#,
    )
    .expect("valid DDDL");
    for mode in [ManagementMode::Adpm, ManagementMode::Conventional] {
        for seed in 0..5u64 {
            let mut sim =
                adpm_teamsim::Simulation::new(&scenario, SimulationConfig::for_mode(mode, seed));
            let stats = sim.run();
            assert!(stats.completed, "{mode:?}/{seed}");
            let x = scenario.property("o", "x").expect("exists");
            let y = scenario.property("o", "y").expect("exists");
            let first_binding = |pid| {
                sim.dpm()
                    .history()
                    .iter()
                    .find(|r| r.operation.operator().target_property() == Some(pid))
                    .map(|r| r.sequence)
                    .expect("property was bound")
            };
            assert!(
                first_binding(x) < first_binding(y),
                "{mode:?}/{seed}: y bound before its predecessor problem solved"
            );
        }
    }
}

#[test]
fn walkthrough_example_runs_in_conventional_mode_too() {
    let scenario = adpm_scenarios::lna_walkthrough();
    let stats = run_once(&scenario, SimulationConfig::conventional(2));
    assert!(stats.completed);
    // Conventional runs include at least one verification operation.
    assert!(stats.per_operation.iter().any(|s| s.kind == "verify"));
}

/// The DPM mines its heuristic report at the first read after each
/// operation. TeamSim designers read it while choosing their next move, so
/// a report cached before an operation must not survive it: after every
/// step the report equals a fresh mine of the network.
#[test]
fn lazy_heuristics_match_a_fresh_mine_after_every_step() {
    for scenario in [
        adpm_scenarios::sensing_system(),
        adpm_scenarios::wireless_receiver(),
    ] {
        for seed in 1..=3 {
            let mut sim = Simulation::new(&scenario, SimulationConfig::adpm(seed));
            let mut conventional = Simulation::new(&scenario, SimulationConfig::conventional(seed));
            let mut steps = 0;
            while let StepOutcome::Executed(_) = sim.step() {
                let dpm = sim.dpm();
                let fresh = adpm_constraint::HeuristicReport::mine(dpm.network());
                assert_eq!(dpm.heuristics(), Some(&fresh), "seed {seed} step {steps}");
                conventional.step();
                assert!(conventional.dpm().heuristics().is_none());
                steps += 1;
            }
            assert!(steps > 5, "seed {seed}: only {steps} steps");
        }
    }
}
