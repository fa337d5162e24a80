//! The MEMS pressure-sensing-system design case (paper §3.2, first case).
//!
//! A capacitive pressure sensor and a mixed-signal interface circuit are
//! designed concurrently, with top-level constraints on sensing resolution,
//! estimated yield, and achievable pressure range. The network holds 26
//! properties and 21 constraints, most of them linear and monotonic —
//! matching the sizes the paper reports for this case.
//!
//! The paper's actual networks were proprietary Minerva III configurations;
//! this reconstruction keeps the published structure (two concurrently
//! designed subsystems + a leader-owned system problem whose constraints
//! couple them) and the published requirement types.

use adpm_dddl::{compile_source, CompiledScenario};

/// DDDL source for the sensing-system scenario.
pub const SENSING_DDDL: &str = r#"
// MEMS pressure-sensing system: capacitive sensor + mixed-signal interface.
// Designer 0 = team leader (system), 1 = MEMS engineer, 2 = circuit designer.

object system {
    property req-resolution : interval(0.1, 10)  units "kPa" init 1.0;
    property req-range      : interval(100, 1500) units "kPa" init 500;
    property req-yield      : interval(0.3, 1.0) init 0.8;
    property req-power      : interval(1, 100)   units "mW" init 30;
    property req-area       : interval(1, 20)    units "mm2" init 8;
    property req-signal     : interval(10, 200)  init 60;
    property sys-noise      : interval(0.01, 20) units "fF";
    property sys-res        : interval(0.05, 20) units "kPa";
    property sys-yield      : interval(0.3, 1.0);
}

object sensor {
    property s-kcap  : interval(1, 20) init 8;
    property s-area  : interval(0.5, 6)    units "mm2";
    property s-gap   : interval(0.5, 5)    units "um";
    property s-thick : interval(2, 20)     units "um";
    property s-cap   : interval(0.5, 30)   units "pF";
    property s-sens  : interval(0.05, 10)  units "fF/kPa";
    property s-range : interval(100, 1500) units "kPa";
    property s-noise : interval(0.05, 5)   units "fF";
    property s-yield : interval(0.5, 0.995);
    property s-drive : interval(1, 20)     units "V";
}

object interface {
    property i-kgain : interval(1, 20) init 5;
    property i-gain  : interval(1, 200)  units "mV/fF";
    property i-noise : interval(0.02, 5) units "fF";
    property i-bits  : set(8, 10, 12, 14, 16);
    property i-power : interval(1, 60)   units "mW";
    property i-area  : interval(0.5, 6)  units "mm2";
    property i-vref  : interval(0.5, 5)  units "V";
}

// --- sensor-internal constraints (MEMS engineer) -------------------------
constraint CapArea:    sensor.s-cap <= sensor.s-kcap * sensor.s-area / sensor.s-gap
    monotonic increasing in sensor.s-area, decreasing in sensor.s-cap;
constraint SensCap:    sensor.s-sens <= sensor.s-cap / 4;
constraint RangeThick: sensor.s-range <= 120 * sensor.s-thick;
constraint RangeGap:   sensor.s-range <= 400 * sensor.s-gap;
constraint SensThick:  sensor.s-sens <= 44 - 2 * sensor.s-thick
    monotonic decreasing in sensor.s-thick, decreasing in sensor.s-sens;
constraint YieldArea:  sensor.s-yield <= 1.02 - 0.04 * sensor.s-area;
constraint YieldThick: sensor.s-yield <= 0.9 + 0.005 * sensor.s-thick;

// --- interface-internal constraints (circuit designer) -------------------
constraint GainPower: interface.i-gain <= interface.i-kgain * interface.i-power;
constraint NoiseGain: interface.i-noise >= 0.5 - 0.002 * interface.i-gain;
constraint AreaBits:  interface.i-area >= 0.25 + 0.05 * interface.i-bits;
constraint PowerBits: interface.i-power >= 0.75 * interface.i-bits;

// --- system / cross-subsystem constraints (leader) -----------------------
constraint TotalNoise: system.sys-noise >= sensor.s-noise + interface.i-noise;
constraint Resolution: system.sys-res >= system.sys-noise / sensor.s-sens;
constraint MeetResolution: system.sys-res <= system.req-resolution;
constraint MeetRange:  sensor.s-range >= system.req-range;
constraint SysYield:   system.sys-yield <= sensor.s-yield - 0.02;
constraint MeetYield:  system.sys-yield >= system.req-yield;
constraint MeetPower:  interface.i-power <= system.req-power;
constraint MeetArea:   sensor.s-area + interface.i-area <= system.req-area;
constraint SenseGain:  interface.i-gain * sensor.s-sens >= system.req-signal
    monotonic increasing in interface.i-gain, increasing in sensor.s-sens;
constraint VrefDrive:  interface.i-vref <= sensor.s-drive / 4;

// --- problem hierarchy ----------------------------------------------------
problem sensing-system {
    outputs: system.sys-noise, system.sys-res, system.sys-yield;
    constraints: TotalNoise, Resolution, MeetResolution, MeetRange,
                 SysYield, MeetYield, MeetPower, MeetArea, SenseGain,
                 VrefDrive;
    designer 0;
}
problem pressure-sensor under sensing-system {
    outputs: sensor.s-area, sensor.s-gap, sensor.s-thick, sensor.s-cap,
             sensor.s-sens, sensor.s-range, sensor.s-noise, sensor.s-yield,
             sensor.s-drive;
    constraints: CapArea, SensCap, RangeThick, RangeGap, SensThick,
                 YieldArea, YieldThick;
    designer 1;
}
problem interface-circuit under sensing-system {
    outputs: interface.i-gain, interface.i-noise, interface.i-bits,
             interface.i-power, interface.i-area, interface.i-vref;
    constraints: GainPower, NoiseGain, AreaBits, PowerBits;
    designer 2;
}
"#;

/// Compiles the sensing-system scenario.
///
/// # Panics
///
/// Panics only if the embedded DDDL source is invalid, which the crate's
/// tests rule out.
pub fn sensing_system() -> CompiledScenario {
    compile_source(SENSING_DDDL).expect("embedded sensing-system DDDL is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use adpm_constraint::{propagate, PropagationConfig, Value};
    use adpm_core::{DpmConfig, Operation};

    #[test]
    fn network_matches_paper_reported_size() {
        let s = sensing_system();
        // "the entire network contains up to 26 properties and 21
        // constraints, most of them linear and monotonic"
        assert_eq!(s.network().property_count(), 26);
        assert_eq!(s.network().constraint_count(), 21);
    }

    #[test]
    fn has_cross_subsystem_constraints() {
        let s = sensing_system();
        let cross = s
            .network()
            .constraint_ids()
            .filter(|cid| s.network().is_cross_object(*cid))
            .count();
        assert!(
            cross >= 4,
            "expected several cross-object constraints, got {cross}"
        );
        assert!(s
            .network()
            .is_cross_object(s.constraint("MeetArea").unwrap()));
        assert!(s
            .network()
            .is_cross_object(s.constraint("SenseGain").unwrap()));
    }

    #[test]
    fn initial_propagation_finds_no_conflict() {
        let s = sensing_system();
        let mut dpm = s.build_dpm(DpmConfig::adpm());
        // Propagation over the initial requirements must leave a non-empty
        // feasible region everywhere (the scenario is solvable).
        let mut net = dpm.network().clone();
        let out = propagate(&mut net, &PropagationConfig::default());
        assert!(out.conflicts.is_empty(), "conflicts: {:?}", out.conflicts);
        for pid in net.property_ids() {
            assert!(
                !net.feasible(pid).is_empty(),
                "{} has empty feasible set",
                net.property(pid).name()
            );
        }
        // And the DPM builds with three designers and three problems.
        assert_eq!(dpm.designers().len(), 3);
        assert_eq!(dpm.problems().len(), 3);
        let _ = dpm.problems_mut();
    }

    #[test]
    fn known_good_assignment_completes_the_design() {
        let s = sensing_system();
        let mut dpm = s.build_dpm(DpmConfig::adpm());
        let d = dpm.designers().to_vec();
        let top = dpm.problems().root().unwrap();
        let sensor = dpm.problems().problem(top).children()[0];
        let interface = dpm.problems().problem(top).children()[1];

        let assignments: Vec<(&str, &str, f64, adpm_core::ProblemId, adpm_core::DesignerId)> = vec![
            ("sensor", "s-area", 4.0, sensor, d[1]),
            ("sensor", "s-gap", 2.5, sensor, d[1]),
            ("sensor", "s-thick", 5.0, sensor, d[1]),
            ("sensor", "s-cap", 10.0, sensor, d[1]),
            ("sensor", "s-sens", 2.5, sensor, d[1]),
            ("sensor", "s-range", 600.0, sensor, d[1]),
            ("sensor", "s-noise", 0.3, sensor, d[1]),
            ("sensor", "s-yield", 0.85, sensor, d[1]),
            ("sensor", "s-drive", 10.0, sensor, d[1]),
            ("interface", "i-gain", 30.0, interface, d[2]),
            ("interface", "i-noise", 0.5, interface, d[2]),
            ("interface", "i-bits", 12.0, interface, d[2]),
            ("interface", "i-power", 20.0, interface, d[2]),
            ("interface", "i-area", 1.0, interface, d[2]),
            ("interface", "i-vref", 1.0, interface, d[2]),
            ("system", "sys-noise", 0.9, top, d[0]),
            ("system", "sys-res", 0.5, top, d[0]),
            ("system", "sys-yield", 0.8, top, d[0]),
        ];
        for (obj, name, value, problem, designer) in assignments {
            let pid = s.property(obj, name).unwrap();
            dpm.execute(Operation::assign(
                designer,
                problem,
                pid,
                Value::number(value),
            ))
            .unwrap_or_else(|e| panic!("binding {obj}.{name}={value}: {e}"));
        }
        assert!(
            dpm.known_violations().is_empty(),
            "violations: {:?}",
            dpm.known_violations()
                .iter()
                .map(|c| dpm.network().constraint(*c).name().to_owned())
                .collect::<Vec<_>>()
        );
        assert!(dpm.design_complete());
    }

    #[test]
    fn requirements_are_bound_at_start() {
        let s = sensing_system();
        let dpm = s.build_dpm(DpmConfig::conventional());
        for name in [
            "req-resolution",
            "req-range",
            "req-yield",
            "req-power",
            "req-area",
        ] {
            let pid = s.property("system", name).unwrap();
            assert!(dpm.network().is_bound(pid), "{name} should be init-bound");
        }
    }

    #[test]
    fn mostly_linear_and_monotonic() {
        // Count constraints with nonlinear expressions (div/mul between
        // variables, sqrt, ...) — the paper says "most of them linear".
        let s = sensing_system();
        let net = s.network();
        let nonlinear = net
            .constraint_ids()
            .filter(|cid| {
                let c = net.constraint(*cid);
                let gap = c.gap();
                // A constraint is non-linear here if its second derivative
                // w.r.t. any argument is non-zero somewhere; approximate by
                // checking the symbolic first derivative is non-constant.
                c.arguments().iter().any(|pid| {
                    !matches!(gap.diff(*pid).simplified(), adpm_constraint::Expr::Const(_))
                })
            })
            .count();
        assert!(
            nonlinear <= 6,
            "expected mostly linear constraints, found {nonlinear} nonlinear"
        );
    }
}
