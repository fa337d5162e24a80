//! A scalable synthetic design case: a signal pipeline of `N` concurrently
//! designed stages.
//!
//! The paper's conclusions call for evaluating "other types of problems";
//! this generator produces a family of problems whose *team size and
//! cross-subsystem coupling grow with `N`*: each stage is one designer's
//! subsystem (gain / power / noise / impedance trade-offs), neighbouring
//! stages must be impedance-matched, and system-wide gain, power, and
//! noise budgets couple everyone. Late conflict detection hurts more as
//! `N` grows — the effect ADPM is designed to remove — so this family
//! drives the `scaling_teams` bench.

use adpm_dddl::{compile_source, CompiledScenario};
use std::fmt::Write as _;

/// Maximum pipeline length the generator accepts (the DDDL source and the
/// designer count grow linearly; this bound keeps misuse obvious).
pub const MAX_PIPELINE_STAGES: usize = 16;

/// Generates the DDDL source for an `n`-stage pipeline.
///
/// # Panics
///
/// Panics if `n` is 0 or exceeds [`MAX_PIPELINE_STAGES`].
pub fn pipeline_dddl(n: usize) -> String {
    assert!(
        (1..=MAX_PIPELINE_STAGES).contains(&n),
        "pipeline stages must be in 1..={MAX_PIPELINE_STAGES}, got {n}"
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// Synthetic {n}-stage signal pipeline: designer 0 leads, designers 1..{n} own one stage each."
    );

    // Requirements scale with the number of stages.
    let req_gain = 2.5f64.powi(n as i32);
    let req_power = 18.0 * n as f64;
    let req_noise = 1.5 * n as f64;
    let _ = writeln!(
        out,
        "object system {{\n    property req-gain  : interval(1, 1e7) init {req_gain};\n    property req-power : interval(1, 1000) init {req_power};\n    property req-noise : interval(0.1, 100) init {req_noise};\n}}"
    );

    for i in 0..n {
        let _ = writeln!(
            out,
            "object stage-{i} {{\n    property gain  : interval(1, 10);\n    property power : interval(1, 50) units \"mW\";\n    property noise : interval(0.1, 5);\n    property zin   : interval(10, 100) units \"ohm\";\n    property zout  : interval(10, 100) units \"ohm\";\n}}"
        );
    }

    // Stage-internal trade-offs (one designer each).
    for i in 0..n {
        let _ = writeln!(
            out,
            "constraint GainPower{i}: stage-{i}.gain <= stage-{i}.power / 2\n    monotonic decreasing in stage-{i}.gain, increasing in stage-{i}.power;"
        );
        let _ = writeln!(
            out,
            "constraint NoiseGain{i}: stage-{i}.noise >= 2 / stage-{i}.gain;"
        );
    }
    // Neighbour impedance matching (cross-subsystem pair constraints).
    for i in 0..n.saturating_sub(1) {
        let j = i + 1;
        let _ = writeln!(
            out,
            "constraint Match{i}: abs(stage-{i}.zout - stage-{j}.zin) <= 10;"
        );
    }
    // System-wide budgets (cross everything).
    let product = (0..n)
        .map(|i| format!("stage-{i}.gain"))
        .collect::<Vec<_>>()
        .join(" * ");
    let power_sum = (0..n)
        .map(|i| format!("stage-{i}.power"))
        .collect::<Vec<_>>()
        .join(" + ");
    let noise_sum = (0..n)
        .map(|i| format!("stage-{i}.noise"))
        .collect::<Vec<_>>()
        .join(" + ");
    let _ = writeln!(out, "constraint TotalGain: {product} >= system.req-gain;");
    let _ = writeln!(
        out,
        "constraint TotalPower: {power_sum} <= system.req-power;"
    );
    let _ = writeln!(
        out,
        "constraint TotalNoise: {noise_sum} <= system.req-noise;"
    );

    // Problem hierarchy: the leader owns the system budgets and matching.
    let mut top_constraints: Vec<String> =
        vec!["TotalGain".into(), "TotalPower".into(), "TotalNoise".into()];
    top_constraints.extend((0..n.saturating_sub(1)).map(|i| format!("Match{i}")));
    let _ = writeln!(
        out,
        "problem pipeline {{ constraints: {}; designer 0; }}",
        top_constraints.join(", ")
    );
    for i in 0..n {
        let _ = writeln!(
            out,
            "problem stage-{i}-design under pipeline {{\n    outputs: stage-{i}.gain, stage-{i}.power, stage-{i}.noise, stage-{i}.zin, stage-{i}.zout;\n    constraints: GainPower{i}, NoiseGain{i};\n    designer {};\n}}",
            i + 1
        );
    }
    out
}

/// Compiles an `n`-stage pipeline scenario.
///
/// # Panics
///
/// Panics if `n` is 0 or exceeds [`MAX_PIPELINE_STAGES`] (generated DDDL is
/// otherwise always valid).
pub fn pipeline(n: usize) -> CompiledScenario {
    compile_source(&pipeline_dddl(n)).expect("generated pipeline DDDL is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use adpm_core::{DpmConfig, ManagementMode};
    use adpm_teamsim::{run_once, SimulationConfig};

    #[test]
    fn generated_sizes_scale_linearly() {
        for n in [1usize, 3, 6] {
            let s = pipeline(n);
            assert_eq!(s.network().property_count(), 5 * n + 3);
            assert_eq!(s.network().constraint_count(), 2 * n + (n - 1) + 3);
            assert_eq!(s.designer_count() as usize, n + 1);
            assert_eq!(s.build_dpm(DpmConfig::adpm()).problems().len(), n + 1);
        }
    }

    #[test]
    fn budgets_and_matching_are_cross_subsystem() {
        let s = pipeline(3);
        for name in ["TotalGain", "TotalPower", "TotalNoise", "Match0", "Match1"] {
            assert!(
                s.network().is_cross_object(s.constraint(name).unwrap()),
                "{name} should couple subsystems"
            );
        }
        assert!(!s
            .network()
            .is_cross_object(s.constraint("GainPower1").unwrap()));
    }

    #[test]
    fn pipelines_complete_in_both_modes() {
        for n in [2usize, 4] {
            let s = pipeline(n);
            for mode in [ManagementMode::Adpm, ManagementMode::Conventional] {
                let stats = run_once(&s, SimulationConfig::for_mode(mode, 3));
                assert!(
                    stats.completed,
                    "{n}-stage {mode:?} censored at {} ops",
                    stats.operations
                );
            }
        }
    }

    #[test]
    fn adpm_advantage_holds_on_the_synthetic_family() {
        let s = pipeline(3);
        let mut conv_ops = 0usize;
        let mut adpm_ops = 0usize;
        for seed in 0..6u64 {
            conv_ops += run_once(&s, SimulationConfig::conventional(seed)).operations;
            adpm_ops += run_once(&s, SimulationConfig::adpm(seed)).operations;
        }
        assert!(
            conv_ops > adpm_ops,
            "conventional {conv_ops} <= adpm {adpm_ops}"
        );
    }

    #[test]
    #[should_panic(expected = "pipeline stages must be in 1..=")]
    fn zero_stages_panics() {
        let _ = pipeline(0);
    }

    #[test]
    fn generated_source_round_trips_through_the_pretty_printer() {
        let source = pipeline_dddl(4);
        let ast = adpm_dddl::parse(&source).expect("parses");
        let printed = adpm_dddl::to_source(&ast);
        let reparsed = adpm_dddl::parse(&printed).expect("re-parses");
        assert_eq!(ast, reparsed);
    }
}
