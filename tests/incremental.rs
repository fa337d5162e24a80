//! Scenario-level equivalence of the DCM's region propagation path: on
//! every built-in paper scenario, a design history recorded under full
//! propagation replays under region propagation to *bit-identical*
//! feasible subspaces, the same constraint statuses and known violations,
//! and the same notifications for every designer as an uncapped full
//! replay — while needing fewer constraint evaluations overall.

use adpm_constraint::{Domain, PropagationConfig, PropagationKind, PropertyId, Value};
use adpm_core::{DesignProcessManager, DpmConfig, Event, Operation, Operator, ProblemId};
use adpm_dddl::CompiledScenario;
use adpm_teamsim::{Simulation, SimulationConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
    assert!(
        !history.is_empty(),
        "{name}: seed {seed} produced no operations"
    );

    let mut full = scenario.build_dpm(DpmConfig {
        propagation: PropagationConfig {
            max_evaluations: usize::MAX,
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
    assert!(
        inc_total < full_total,
        "incremental {inc_total} !< full {full_total}"
    );
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
    assert!(
        inc_total < full_total,
        "incremental {inc_total} !< full {full_total}"
    );
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

/// How a stream draws the values it assigns.
#[derive(Debug, Clone, Copy)]
enum Draw {
    /// Inside the current feasible subspace three times in four (the
    /// design moves forward), anywhere in `E_i` otherwise (conflicts arise).
    MostlyFeasible,
    /// Outside the current feasible subspace whenever `E_i` leaves room, as
    /// most of perfbench's uniform draws from `E_i` land: violations pile up
    /// and stand while the region runs go on.
    Infeasible,
}

/// A random design value for `pid` drawn as `draw` says. `None` for
/// symbolic properties.
fn random_value(
    dpm: &DesignProcessManager,
    pid: PropertyId,
    draw: Draw,
    rng: &mut StdRng,
) -> Option<Value> {
    let net = dpm.network();
    let initial = net.property(pid).initial_domain();
    let feasible = net.feasible(pid);
    if let Domain::NumberSet(values) = initial {
        let mut menu = values.clone();
        if let Draw::Infeasible = draw {
            menu.retain(|v| !feasible.contains(&Value::number(*v)));
            if menu.is_empty() {
                menu = values.clone();
            }
        }
        return Some(Value::number(menu[rng.gen_range(0..menu.len())]));
    }
    let value = match (draw, feasible.enclosing_interval()) {
        (Draw::Infeasible, Some(f)) => {
            let iv = initial.enclosing_interval()?;
            let (below, above) = (f.lo() - iv.lo(), iv.hi() - f.hi());
            if below + above > 0.0 {
                // Uniform over [lo, f.lo) and (f.hi, hi].
                let u = rng.gen_range(0.0..below + above);
                if u < below {
                    iv.lo() + u
                } else {
                    iv.hi() - (u - below)
                }
            } else {
                iv.lo() + rng.gen_range(0.0..1.0) * (iv.hi() - iv.lo())
            }
        }
        _ => {
            let range = if matches!(draw, Draw::MostlyFeasible)
                && rng.gen_bool(0.75)
                && !feasible.is_empty()
            {
                feasible
            } else {
                initial
            };
            let iv = range.enclosing_interval()?;
            iv.lo() + rng.gen_range(0.0..1.0) * (iv.hi() - iv.lo())
        }
    };
    Some(Value::number(value))
}

/// A seeded assign/unbind/verify over the outputs of a random designer's
/// problems.
fn random_operation(dpm: &DesignProcessManager, draw: Draw, rng: &mut StdRng) -> Option<Operation> {
    let designer = dpm.designers()[rng.gen_range(0..dpm.designers().len())];
    let problems: Vec<ProblemId> = dpm
        .problems()
        .ids()
        .filter(|p| dpm.problems().problem(*p).assignee() == Some(designer))
        .collect();
    let problem = problems
        .get(rng.gen_range(0..problems.len().max(1)))
        .copied()?;
    let outputs = dpm.problems().problem(problem).outputs();
    let roll = rng.gen_range(0..10);
    if outputs.is_empty() || roll == 0 {
        return Some(Operation::verify(designer, problem));
    }
    let pid = outputs[rng.gen_range(0..outputs.len())];
    if roll == 1 && dpm.network().is_bound(pid) {
        return Some(Operation::unbind(designer, problem, pid));
    }
    random_value(dpm, pid, draw, rng).map(|value| Operation::assign(designer, problem, pid, value))
}

/// Every property's relative feasible size.
fn relative_sizes(dpm: &DesignProcessManager) -> Vec<f64> {
    let net = dpm.network();
    net.property_ids()
        .map(|pid| {
            net.feasible(pid)
                .relative_size(net.property(pid).initial_domain())
        })
        .collect()
}

/// The feasibility events of one operation as a whole-network diff finds
/// them: each unbound property's size before the operation — an unbind
/// target restarts at its full range — against its size after, in id order.
fn feasibility_events(
    before: &[f64],
    operation: &Operation,
    dpm: &DesignProcessManager,
) -> Vec<Event> {
    let net = dpm.network();
    let mut events = Vec::new();
    for (pid, after) in net.property_ids().zip(relative_sizes(dpm)) {
        let before = match operation.operator() {
            Operator::Unbind { property } if *property == pid => 1.0,
            _ => before[pid.index()],
        };
        if net.is_bound(pid) {
            continue;
        }
        if after <= 0.0 && before > 0.0 {
            events.push(Event::FeasibleEmptied { property: pid });
        } else if after + 1e-9 < before {
            events.push(Event::FeasibleReduced {
                property: pid,
                relative_size: after,
            });
        }
    }
    events
}

/// The DPM's region bookkeeping — feasible-size diffs over the region and
/// known violations from the swept constraints — against a DPM running
/// full propagation, and its feasibility events against a whole-network
/// diff, on streams that mostly stay feasible and on streams that assign
/// outside the feasible set.
#[test]
fn region_bookkeeping_matches_full_propagation_on_random_streams() {
    let scenarios = [
        ("sensing", adpm_scenarios::sensing_system()),
        ("receiver", adpm_scenarios::wireless_receiver()),
        ("walkthrough", adpm_scenarios::lna_walkthrough()),
        ("pipeline", adpm_scenarios::pipeline(6)),
    ];
    let mut peak_standing = [0usize; 2];
    for (name, scenario) in &scenarios {
        for (seed, draw) in
            (1..=5u64).flat_map(|s| [(s, Draw::MostlyFeasible), (s, Draw::Infeasible)])
        {
            let mut full = scenario.build_dpm(DpmConfig {
                propagation_kind: PropagationKind::Full,
                ..DpmConfig::adpm()
            });
            let mut region = scenario.build_dpm(DpmConfig::adpm());
            full.initialize();
            region.initialize();
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut executed, mut events, mut violations) = (0, 0, 0);
            for step in 0..120 {
                let Some(operation) = random_operation(&region, draw, &mut rng) else {
                    continue;
                };
                let context = format!("{name} seed {seed} {draw:?} step {step}: {operation:?}");
                let before = relative_sizes(&region);
                let (f, r) = (
                    full.execute(operation.clone()),
                    region.execute(operation.clone()),
                );
                let (f, r) = match (f, r) {
                    (Ok(f), Ok(r)) => (f, r),
                    (Err(f), Err(r)) => {
                        assert_eq!(f, r, "{context}");
                        continue;
                    }
                    (f, r) => panic!("{context}: full {f:?}, region {r:?}"),
                };
                executed += 1;
                violations += r.new_violations.len();
                let peak = &mut peak_standing[draw as usize];
                *peak = (*peak).max(r.violations_after);
                assert_eq!(f.new_violations, r.new_violations, "{context}");
                assert_eq!(f.violations_after, r.violations_after, "{context}");
                assert_eq!(
                    full.known_violations(),
                    region.known_violations(),
                    "{context}"
                );
                for dpm in [&full, &region] {
                    assert_eq!(
                        dpm.known_violations(),
                        dpm.network().violated_constraints(),
                        "{context}"
                    );
                }
                let diffed = feasibility_events(&before, &operation, &region);
                for designer in full.designers().to_vec() {
                    let routed = region.take_notifications(designer);
                    events += routed.len();
                    let viewpoint = region.viewpoint(designer);
                    let expected: Vec<&Event> = diffed
                        .iter()
                        .filter(|e| viewpoint.matches(e, region.problems(), region.network()))
                        .collect();
                    let feasibility: Vec<&Event> = routed
                        .iter()
                        .filter(|e| {
                            matches!(
                                e,
                                Event::FeasibleReduced { .. } | Event::FeasibleEmptied { .. }
                            )
                        })
                        .collect();
                    assert_eq!(feasibility, expected, "{context}: diff for {designer}");
                    assert_eq!(
                        full.take_notifications(designer),
                        routed,
                        "{context}: notifications of {designer}"
                    );
                }
            }
            // The streams must exercise what is compared.
            assert!(
                executed > 20 && events > 0 && violations > 0,
                "{name} seed {seed} {draw:?}: {executed} operations, {events} events, \
                 {violations} new violations"
            );
        }
    }
    // Infeasible draws are what make violations stand in region runs.
    let [feasible, infeasible] = peak_standing;
    assert!(
        infeasible > feasible,
        "peak standing violations: {infeasible} infeasible-draw, {feasible} mostly-feasible"
    );
}
