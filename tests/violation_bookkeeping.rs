//! The DPM's per-operation violation bookkeeping against the whole-set
//! diff it replaces.
//!
//! Before each operation the test takes `known_violations()`; afterwards
//! it derives what the operation must report from the two sets alone: the
//! new violations (after minus before) and the resolved ones (before minus
//! after), each in id order, and the spin flag from the old rule — the
//! operation is tagged as repair of a known cross-object violation, or its
//! target is an argument of one. The record, and every designer's
//! `ViolationDetected`/`ViolationResolved` notifications, must match.
//!
//! The streams run on a generated network where dozens of violations stand
//! at once, in both λ modes, with assigns drawn outside the current
//! feasible set, unbinds, verifications and negotiated relaxations. Values
//! are integers and some constraints are strict, so a verification's point
//! check and the propagation sweep's interval status can disagree within
//! one operation: a constraint can change twice before the operation ends.

use adpm_collab::{negotiate, NegotiationConfig};
use adpm_constraint::{ConstraintId, Value};
use adpm_core::{DesignProcessManager, DpmConfig, Event, Operation, Operator, ProblemId};
use adpm_dddl::{compile_source, CompiledScenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::fmt::Write as _;

const OBJECTS: usize = 8;
const PROPS: usize = 6;
/// Properties range over `0..=TOP`; streams bind integers.
const TOP: u32 = 6;

/// `OBJECTS` objects of `PROPS` properties each. Every property sits in
/// two cross-object constraints, a budget with its neighbour object and a
/// strict order with another, and in one local constraint. The leader
/// (designer 0) owns the cross constraints; the objects alternate between
/// designers 1 and 2.
fn scenario() -> CompiledScenario {
    let mut text = String::new();
    for o in 0..OBJECTS {
        let _ = writeln!(text, "object s{o} {{");
        for p in 0..PROPS {
            let _ = writeln!(text, "    property p{p} : interval(0, {TOP});");
        }
        let _ = writeln!(text, "}}");
    }
    let mut cross = Vec::new();
    for o in 0..OBJECTS {
        let next = (o + 1) % OBJECTS;
        for p in 0..PROPS {
            let q = (p + 1) % PROPS;
            let _ = writeln!(text, "constraint B{o}_{p}: s{o}.p{p} + s{next}.p{p} <= 7;");
            let _ = writeln!(text, "constraint O{o}_{p}: s{o}.p{p} < s{next}.p{q} + 2;");
            let _ = writeln!(text, "constraint L{o}_{p}: s{o}.p{p} >= s{o}.p{q} - 3;");
            cross.push(format!("B{o}_{p}, O{o}_{p}"));
        }
    }
    let _ = writeln!(
        text,
        "problem top {{ constraints: {}; designer 0; }}",
        cross.join(", ")
    );
    for o in 0..OBJECTS {
        let outputs: Vec<String> = (0..PROPS).map(|p| format!("s{o}.p{p}")).collect();
        let names: Vec<String> = (0..PROPS).map(|p| format!("L{o}_{p}")).collect();
        let _ = writeln!(
            text,
            "problem s{o} under top {{ outputs: {}; constraints: {}; designer {}; }}",
            outputs.join(", "),
            names.join(", "),
            1 + o % 2
        );
    }
    compile_source(&text).expect("generated scenario compiles")
}

/// An assign of an integer to an output of `problem`, outside that
/// property's current feasible set when one is left.
fn assign(dpm: &DesignProcessManager, problem: ProblemId, rng: &mut StdRng) -> Operation {
    let designer = dpm.problems().problem(problem).assignee().expect("owned");
    let outputs = dpm.problems().problem(problem).outputs();
    let pid = outputs[rng.gen_range(0..outputs.len())];
    let feasible = dpm.network().feasible(pid);
    let outside: Vec<u32> = (0..=TOP)
        .filter(|v| !feasible.contains(&Value::number(f64::from(*v))))
        .collect();
    let value = if outside.is_empty() {
        rng.gen_range(0..=TOP)
    } else {
        outside[rng.gen_range(0..outside.len())]
    };
    Operation::assign(designer, problem, pid, Value::number(f64::from(value)))
}

/// One seeded operation: mostly assigns, then verifications (of the
/// leader's cross constraints or a subsystem's own), unbinds, and the
/// operation a negotiation over a random known violation settles on.
fn next_operation(dpm: &DesignProcessManager, rng: &mut StdRng) -> Option<Operation> {
    let root = dpm.problems().root().expect("root");
    let subsystems = dpm.problems().problem(root).children().to_vec();
    let problem = subsystems[rng.gen_range(0..subsystems.len())];
    let roll = rng.gen_range(0..20);
    match roll {
        0..=2 => {
            let target = if roll == 0 { problem } else { root };
            let designer = dpm.problems().problem(target).assignee().expect("owned");
            Some(Operation::verify(designer, target))
        }
        3 => {
            let designer = dpm.problems().problem(problem).assignee().expect("owned");
            let bound: Vec<_> = dpm
                .problems()
                .problem(problem)
                .outputs()
                .iter()
                .copied()
                .filter(|p| dpm.network().is_bound(*p))
                .collect();
            let pid = *bound.get(rng.gen_range(0..bound.len().max(1)))?;
            Some(Operation::unbind(designer, problem, pid))
        }
        4..=5 => {
            let known = dpm.known_violations();
            let seed = *known.get(rng.gen_range(0..known.len().max(1)))?;
            negotiate(dpm, seed, &NegotiationConfig::default()).operation
        }
        _ => Some(assign(dpm, problem, rng)),
    }
}

/// The old spin rule, judged on the state before the operation.
fn old_spin(
    dpm: &DesignProcessManager,
    operation: &Operation,
    known: &BTreeSet<ConstraintId>,
) -> bool {
    let net = dpm.network();
    if operation.repairs().iter().any(|c| net.is_cross_object(*c)) {
        return true;
    }
    operation
        .operator()
        .target_property()
        .is_some_and(|target| {
            known
                .iter()
                .any(|c| net.is_cross_object(*c) && net.constraint(*c).involves(target))
        })
}

fn is_violation_event(event: &Event) -> bool {
    matches!(
        event,
        Event::ViolationDetected { .. } | Event::ViolationResolved { .. }
    )
}

/// What the streams of one mode reached.
#[derive(Debug, Default)]
struct Reach {
    operations: usize,
    peak_standing: usize,
    detected: usize,
    resolved: usize,
    spins: usize,
    unbinds: usize,
    verifies: usize,
    relaxes: usize,
}

fn run_streams(config: DpmConfig, seeds: std::ops::Range<u64>) -> Reach {
    let scenario = scenario();
    let mut reach = Reach::default();
    for seed in seeds {
        let mut dpm = scenario.build_dpm(config.clone());
        dpm.initialize();
        for designer in dpm.designers().to_vec() {
            dpm.take_notifications(designer);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for step in 0..400 {
            let Some(operation) = next_operation(&dpm, &mut rng) else {
                continue;
            };
            let context = format!("{:?} seed {seed} step {step}: {operation:?}", config.mode);
            let before: BTreeSet<ConstraintId> = dpm.known_violations().into_iter().collect();
            let spin = old_spin(&dpm, &operation, &before);
            let record = dpm.execute(operation).expect(&context);
            let after: BTreeSet<ConstraintId> = dpm.known_violations().into_iter().collect();
            let detected: Vec<ConstraintId> = after.difference(&before).copied().collect();
            let resolved: Vec<ConstraintId> = before.difference(&after).copied().collect();
            assert_eq!(record.new_violations, detected, "{context}");
            assert_eq!(record.violations_after, after.len(), "{context}");
            assert_eq!(record.spin, spin, "{context}");

            let net = dpm.network();
            let expected: Vec<Event> = detected
                .iter()
                .map(|c| Event::ViolationDetected {
                    constraint: *c,
                    properties: net.constraint(*c).arguments(),
                })
                .chain(
                    resolved
                        .iter()
                        .map(|c| Event::ViolationResolved { constraint: *c }),
                )
                .collect();
            for designer in dpm.designers().to_vec() {
                let viewpoint = dpm.viewpoint(designer).clone();
                let want: Vec<&Event> = expected
                    .iter()
                    .filter(|e| viewpoint.matches(e, dpm.problems(), dpm.network()))
                    .collect();
                let routed = dpm.take_notifications(designer);
                let got: Vec<&Event> = routed.iter().filter(|e| is_violation_event(e)).collect();
                assert_eq!(got, want, "{context}: violation events of {designer}");
            }

            reach.operations += 1;
            reach.peak_standing = reach.peak_standing.max(before.len());
            reach.detected += detected.len();
            reach.resolved += resolved.len();
            reach.spins += usize::from(spin);
            match record.operation.operator() {
                Operator::Unbind { .. } => reach.unbinds += 1,
                Operator::Verify { .. } => reach.verifies += 1,
                Operator::Relax { .. } => reach.relaxes += 1,
                _ => {}
            }
        }
    }
    reach
}

/// The streams must reach what is compared: dozens of standing violations,
/// detections, resolutions and spins, and every operator kind.
fn assert_reached(reach: &Reach) {
    assert!(
        reach.peak_standing >= 24
            && reach.detected > 0
            && reach.resolved > 0
            && reach.spins > 0
            && reach.unbinds > 0
            && reach.verifies > 0
            && reach.relaxes > 0,
        "{reach:?}"
    );
}

#[test]
fn adpm_bookkeeping_matches_the_whole_set_diff() {
    assert_reached(&run_streams(DpmConfig::adpm(), 1..6));
}

#[test]
fn conventional_bookkeeping_matches_the_whole_set_diff() {
    assert_reached(&run_streams(DpmConfig::conventional(), 1..6));
}
