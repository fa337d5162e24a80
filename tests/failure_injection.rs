//! Failure injection: the system's behaviour when things go wrong —
//! infeasible requirements, hostile bindings, operation caps, and invalid
//! scenario text. The process layer must degrade gracefully (censored or
//! conflicted runs), never panic or report false completion.

use adpm_constraint::{propagate, PropagationConfig, Value};
use adpm_core::{DpmConfig, ManagementMode, Operation};
use adpm_dddl::compile_source;
use adpm_teamsim::{run_once, SimulationConfig};

/// An over-constrained scenario: the requirements admit no solution.
const INFEASIBLE: &str = r#"
object o {
    property x : interval(0, 10);
    property y : interval(0, 10);
}
constraint lo: o.x + o.y >= 15;
constraint hi: o.x + o.y <= 5;
problem top { constraints: lo, hi; }
problem p under top { outputs: o.x, o.y; designer 0; }
"#;

#[test]
fn infeasible_scenario_is_censored_not_panicking() {
    let scenario = compile_source(INFEASIBLE).expect("syntactically valid");
    for mode in [ManagementMode::Adpm, ManagementMode::Conventional] {
        let mut config = SimulationConfig::for_mode(mode, 1);
        config.max_operations = 200;
        let stats = run_once(&scenario, config);
        assert!(
            !stats.completed,
            "{mode:?} claimed to solve an infeasible design"
        );
    }
}

#[test]
fn infeasible_scenario_reports_conflicts_under_propagation() {
    let scenario = compile_source(INFEASIBLE).expect("syntactically valid");
    let mut net = scenario.network().clone();
    let outcome = propagate(&mut net, &PropagationConfig::default());
    assert!(
        !outcome.conflicts.is_empty(),
        "the DCM must flag the contradiction"
    );
}

#[test]
fn binding_outside_the_declared_range_is_rejected_atomically() {
    let scenario = adpm_scenarios::sensing_system();
    let mut dpm = scenario.build_dpm(DpmConfig::adpm());
    let d = dpm.add_designer();
    let pid = scenario.property("sensor", "s-area").expect("exists");
    let problem = dpm.problems().root().expect("root");
    let history_before = dpm.history().len();
    let result = dpm.execute(Operation::assign(d, problem, pid, Value::number(1e9)));
    assert!(result.is_err());
    assert_eq!(dpm.history().len(), history_before, "no history entry");
    assert!(!dpm.network().is_bound(pid), "no partial binding");
}

#[test]
fn wrong_value_kind_is_rejected() {
    let scenario = adpm_scenarios::sensing_system();
    let mut dpm = scenario.build_dpm(DpmConfig::adpm());
    let d = dpm.add_designer();
    let pid = scenario.property("sensor", "s-area").expect("exists");
    let problem = dpm.problems().root().expect("root");
    let result = dpm.execute(Operation::assign(d, problem, pid, Value::text("big")));
    assert!(result.is_err());
}

#[test]
fn tiny_operation_caps_censor_without_corruption() {
    let scenario = adpm_scenarios::wireless_receiver();
    for cap in [0usize, 1, 3] {
        let mut config = SimulationConfig::conventional(4);
        config.max_operations = cap;
        let stats = run_once(&scenario, config);
        assert!(!stats.completed);
        assert!(stats.operations <= cap);
        assert_eq!(stats.per_operation.len(), stats.operations);
    }
}

#[test]
fn malformed_dddl_sources_error_cleanly() {
    for (source, needle) in [
        ("object { }", "expected a name"),
        ("object o { property x interval(0, 1); }", "expected `:`"),
        ("constraint c: <= 1;", "expected an expression"),
        ("object o { property x : interval(0 1); }", "expected `,`"),
        ("problem p under ghost { }", "before its declaration"),
        ("@", "unexpected character"),
    ] {
        let err = compile_source(source).expect_err(source);
        let msg = err.to_string();
        assert!(msg.contains(needle), "`{source}` gave `{msg}`");
    }
}

#[test]
fn contradictory_requirement_tightening_is_detected_not_solved() {
    // A leader tightening a requirement beyond what the physics allows must
    // surface as a persistent violation, not an infinite loop (the cap
    // protects the run) and not a false completion.
    let scenario = compile_source(
        r#"
        object o { property x : interval(0, 10); }
        object s { property req : interval(0, 100) init 50; }
        constraint meet: o.x >= s.req;
        problem top { constraints: meet; }
        problem p under top { outputs: o.x; designer 0; }
        "#,
    )
    .expect("valid");
    let mut config = SimulationConfig::adpm(0);
    config.max_operations = 100;
    let stats = run_once(&scenario, config);
    assert!(!stats.completed, "x <= 10 cannot meet req = 50");
}

#[test]
fn empty_scenario_terminates_immediately() {
    let scenario = compile_source("").expect("empty source is a valid scenario");
    let stats = run_once(&scenario, SimulationConfig::adpm(0));
    // No problems exist, so there is no root to solve: the run is reported
    // as not completed (nothing to complete) with zero operations.
    assert_eq!(stats.operations, 0);
    assert!(!stats.completed);
}
