//! Quickstart: build a small constraint network, bind values, run the
//! DCM's propagation, and read the heuristic support data (`v_F`, `α`,
//! `β`) — the core loop of Active Design Process Management.
//!
//! Run with: `cargo run -p adpm-examples --bin quickstart`

use adpm_constraint::{
    expr::var, propagate, ConstraintNetwork, Domain, HeuristicReport, PropagationConfig, Property,
    Relation, Value,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's §2.1 example: a receiver's power budget P_f + P_s <= P_M.
    let mut net = ConstraintNetwork::new();
    let pf = net.add_property(
        Property::new("P-front", "receiver", Domain::interval(0.0, 300.0)).with_units("mW"),
    )?;
    let ps = net.add_property(
        Property::new("P-ser", "receiver", Domain::interval(0.0, 300.0)).with_units("mW"),
    )?;
    let pm = net.add_property(
        Property::new("P-max", "receiver", Domain::interval(100.0, 250.0)).with_units("mW"),
    )?;
    let budget = net.add_constraint("power-budget", var(pf) + var(ps), Relation::Le, var(pm))?;

    // The requirement is fixed by the team leader.
    net.bind(pm, Value::number(200.0))?;

    // The front-end designer commits a power figure...
    net.bind(pf, Value::number(150.0))?;

    // ...and the Design Constraint Manager propagates.
    let outcome = propagate(&mut net, &PropagationConfig::default());
    println!(
        "propagation: {} evaluations, fixpoint = {}",
        outcome.evaluations, outcome.reached_fixpoint
    );

    // The deserializer designer now sees their feasible subspace.
    println!("feasible P-ser:  {}", net.feasible(ps));
    assert_eq!(net.feasible(ps), &Domain::interval(0.0, 50.0));

    // Heuristic support data: α (connected violations), β (connected
    // constraints), relative feasible size.
    let report = HeuristicReport::mine(&net);
    for pid in net.property_ids() {
        let ins = report.insight(pid);
        println!(
            "{:<8}  beta = {}  alpha = {}  |v_F|/|E| = {:.2}",
            net.property(pid).name(),
            ins.beta,
            ins.alpha,
            ins.feasible_relative_size
        );
    }

    // A careless binding violates the budget; α flags the conflict.
    net.bind(ps, Value::number(100.0))?;
    propagate(&mut net, &PropagationConfig::default());
    let report = HeuristicReport::mine(&net);
    println!(
        "\nafter binding P-ser = 100: status({}) = {}, alpha(P-ser) = {}",
        net.constraint(budget).name(),
        net.status(budget),
        report.insight(ps).alpha
    );
    assert!(net.status(budget).is_violated());

    // Repair guidance: both P-front and P-ser should move *down*.
    let ins = report.insight(ps);
    println!(
        "repair direction for P-ser: {:?} (supported by {} violation(s))",
        ins.repair_direction, ins.repair_support
    );
    Ok(())
}
