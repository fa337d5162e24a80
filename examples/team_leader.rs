//! Programmatic scenario assembly — the team leader's job in §2.4:
//! "the leader defines a top-level system design problem, and decomposes
//! it into the analog portion and the MEMS filter". This example builds
//! the design state through the public API (no DDDL), performs the
//! decomposition as a live design *operation*, wires the subproblems, and
//! lets two simulated designers finish the job.
//!
//! Run with: `cargo run -p adpm-examples --bin team_leader`

use adpm_constraint::{
    expr::{cst, var},
    ConstraintNetwork, Domain, Property, Relation,
};
use adpm_core::{DesignProcessManager, DpmConfig, Operation};
use adpm_teamsim::{SimulatedDesigner, SimulationConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The leader models the design: properties and constraints.
    let mut net = ConstraintNetwork::new();
    let gain = net.add_property(Property::new(
        "gain",
        "analog",
        Domain::interval(1.0, 100.0),
    ))?;
    let power = net.add_property(
        Property::new("power", "analog", Domain::interval(10.0, 300.0)).with_units("mW"),
    )?;
    let beam = net.add_property(
        Property::new("beam-len", "filter", Domain::interval(5.0, 30.0)).with_units("um"),
    )?;
    let loss = net.add_property(Property::new("loss", "filter", Domain::interval(1.0, 25.0)))?;
    let c_gain = net.add_constraint("GainPower", var(gain), Relation::Le, var(power) / cst(3.0))?;
    let c_loss = net.add_constraint("LossBeam", var(loss), Relation::Ge, cst(30.0) - var(beam))?;
    let c_total =
        net.add_constraint("TotalGain", var(gain) - var(loss), Relation::Ge, cst(20.0))?;

    // 2. The leader defines the top-level problem and decomposes it — a
    //    live design operation, exactly like §2.4's opening move.
    let mut dpm = DesignProcessManager::new(net, DpmConfig::adpm());
    let leader = dpm.add_designer();
    let circuit_designer = dpm.add_designer();
    let device_engineer = dpm.add_designer();
    let top = dpm.problems_mut().add_root("front-end");
    *dpm.problems_mut().problem_mut(top) = dpm
        .problems()
        .problem(top)
        .clone()
        .with_constraints([c_total])
        .with_assignee(leader);
    dpm.initialize();

    let record = dpm.execute(Operation::decompose(leader, top, ["analog", "mems-filter"]))?;
    println!(
        "leader decomposed {top}: {} problems now exist (operation #{})",
        dpm.problems().len(),
        record.sequence
    );
    let analog = dpm.problems().problem(top).children()[0];
    let filter = dpm.problems().problem(top).children()[1];

    // 3. The leader assigns the subproblems to the team.
    *dpm.problems_mut().problem_mut(analog) = dpm
        .problems()
        .problem(analog)
        .clone()
        .with_outputs([gain, power])
        .with_constraints([c_gain])
        .with_assignee(circuit_designer);
    *dpm.problems_mut().problem_mut(filter) = dpm
        .problems()
        .problem(filter)
        .clone()
        .with_outputs([beam, loss])
        .with_constraints([c_loss])
        .with_assignee(device_engineer);
    // Manual wiring bypasses the transition function, so refresh the
    // process state (statuses + heuristics) before handing over.
    dpm.initialize();
    println!("assigned `analog` to {circuit_designer} and `mems-filter` to {device_engineer}\n");

    // 4. Simulated designers take over and drive the process to completion
    //    through the same public API.
    let config = SimulationConfig::adpm(11);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut team: Vec<SimulatedDesigner> = dpm
        .designers()
        .iter()
        .map(|d| SimulatedDesigner::new(*d))
        .collect();
    let mut idle_rounds = 0;
    while !dpm.design_complete() && idle_rounds < 2 && dpm.history().len() < 200 {
        let mut progressed = false;
        for designer in &mut team {
            if let Some(operation) = designer.choose(&dpm, &config, &mut rng) {
                let record = dpm.execute(operation)?;
                designer.observe(&record);
                println!(
                    "op {:>2}: {}  (violations now {})",
                    record.sequence, record.operation, record.violations_after
                );
                progressed = true;
            }
        }
        idle_rounds = if progressed { 0 } else { idle_rounds + 1 };
    }

    println!(
        "\ndesign complete: {} after {} operations, {} evaluations, {} spins",
        dpm.design_complete(),
        dpm.history().len(),
        dpm.total_evaluations(),
        dpm.spins()
    );
    assert!(dpm.design_complete());
    Ok(())
}
