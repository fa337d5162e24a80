//! The MEMS-based wireless receiver front-end design case (paper §3.2,
//! second case).
//!
//! Mixed-signal circuitry (LNA + mixer) and a MEMS channel-selection filter
//! are designed concurrently, with constraints on channel bandwidth, system
//! gain, input impedance, frequency-selection precision, and power
//! consumption. Most constraints are non-linear, making this the "harder"
//! case. The network holds 32 properties and 30 constraints (paper: "up to
//! 35 properties and 30 constraints").
//!
//! The system-gain requirement is parameterizable
//! ([`wireless_receiver_with_gain`]) to support the paper's Fig. 10
//! specification-tightness sweep.

use adpm_dddl::{compile_source, CompiledScenario};

/// Default system-gain requirement (linear voltage gain).
pub const DEFAULT_GAIN_REQUIREMENT: f64 = 220.0;

/// Builds the receiver DDDL source with the given system-gain requirement.
pub fn receiver_dddl(req_gain: f64) -> String {
    format!(
        r#"
// MEMS-based wireless receiver front-end.
// Designer 0 = team leader (system), 1 = analog circuit designer,
// 2 = MEMS device engineer.

object system {{
    property req-gain  : interval(10, 1000) init {req_gain};
    property req-power : interval(50, 500)  units "mW"  init 200;
    property req-zin   : interval(10, 100)  units "ohm" init 50;
    property req-bw    : interval(0.5, 10)  units "MHz" init 2;
    property req-fc    : interval(50, 300)  units "MHz" init 100;
    property req-prec  : interval(0.05, 5)  units "%"   init 0.5;
    property req-nf    : interval(1, 30)    units "dB"  init 6;
    property sys-gain  : interval(0.1, 1000);
    property sys-power : interval(10, 500)  units "mW";
    property sys-nf    : interval(0.5, 30)  units "dB";
}}

object lna-mixer {{
    property diff-pair-w : interval(0.5, 10)  units "um"
        levels [Transistor, Geometry];
    property freq-ind    : interval(0.05, 0.5) units "uH"
        levels [Transistor, Geometry];
    property bias-i      : interval(0.1, 10)  units "mA";
    property lna-gain    : interval(1, 300);
    property lna-power   : interval(10, 300)  units "mW";
    property lna-zin     : interval(10, 200)  units "ohm";
    property lna-nf      : interval(0.5, 15)  units "dB";
    property mix-gain    : interval(0.2, 10);
    property mix-power   : interval(5, 100)   units "mW";
    property mix-lo      : interval(0.1, 2)   units "V";
    property mix-nf      : interval(1, 20)    units "dB";
    property load-r      : interval(0.1, 10)  units "kohm";
}}

object filter {{
    property beam-len   : interval(5, 30)   units "um";
    property beam-w     : interval(0.5, 4)  units "um";
    property beam-thick : interval(0.5, 4)  units "um";
    property n-res      : set(1, 2, 3, 4);
    property flt-fc     : interval(50, 300) units "MHz";
    property flt-bw     : interval(0.5, 10) units "MHz";
    property flt-loss   : interval(1.01, 10);
    property flt-q      : interval(50, 5000);
    property flt-prec   : interval(0.05, 5) units "%";
    property drive-v    : interval(1, 40)   units "V";
}}

// --- circuit-internal constraints (analog designer) ----------------------
constraint GainBias:  lna-mixer.lna-gain <= 30 * sqrt(lna-mixer.diff-pair-w * lna-mixer.bias-i)
    monotonic increasing in lna-mixer.diff-pair-w, increasing in lna-mixer.bias-i;
constraint PowerBias: lna-mixer.lna-power >= 25 * lna-mixer.bias-i;
constraint ZinW:      lna-mixer.lna-zin * sqrt(lna-mixer.diff-pair-w) <= 160;
constraint ZinInd:    lna-mixer.lna-zin >= 100 * lna-mixer.freq-ind;
constraint NfBias:    lna-mixer.lna-nf >= 6 / sqrt(lna-mixer.bias-i);
constraint MixGainLo: lna-mixer.mix-gain <= 5 * sqrt(lna-mixer.mix-lo);
constraint MixPowerLo: lna-mixer.mix-power >= 30 * lna-mixer.mix-lo ^ 2;
constraint IndGain:   lna-mixer.lna-gain <= 400 * lna-mixer.freq-ind;
constraint LoadGain:  lna-mixer.lna-gain <= 40 * lna-mixer.load-r;
constraint PowerW:    lna-mixer.lna-power >= 8 * lna-mixer.diff-pair-w;

// --- filter-internal constraints (device engineer) -----------------------
constraint FcLenHi: filter.flt-fc <= 40000 * filter.beam-w / filter.beam-len ^ 2;
constraint FcLenLo: filter.flt-fc >= 20000 * filter.beam-w / filter.beam-len ^ 2;
constraint QThick:  filter.flt-q <= 1500 * filter.beam-thick;
constraint BwQ:     filter.flt-bw * filter.flt-q >= 10 * filter.flt-fc;
constraint LossN:   filter.flt-loss >= 1 + 0.3 * filter.n-res
    monotonic decreasing in filter.n-res, increasing in filter.flt-loss;
constraint SelN:    filter.flt-bw >= 7 / filter.n-res;
constraint PrecDrive: filter.flt-prec >= 10 / filter.drive-v;
constraint PrecLen:   filter.flt-prec >= 4 / filter.beam-len;
constraint DriveThick: filter.drive-v <= 12 * filter.beam-thick;
constraint LossQ:     filter.flt-loss >= 200 / filter.flt-q;

// --- system / cross-subsystem constraints (leader) -----------------------
constraint SysGain:  system.sys-gain <= lna-mixer.lna-gain * lna-mixer.mix-gain / filter.flt-loss;
constraint MeetGain: system.sys-gain >= system.req-gain;
constraint SysPower: system.sys-power >= lna-mixer.lna-power + lna-mixer.mix-power + 0.5 * filter.drive-v;
constraint MeetPower: system.sys-power <= system.req-power;
constraint MeetZin:  lna-mixer.lna-zin >= system.req-zin;
constraint MeetFc:   abs(filter.flt-fc - system.req-fc) <= 5;
constraint MeetBw:   filter.flt-bw <= system.req-bw;
constraint MeetPrec: filter.flt-prec <= system.req-prec;
constraint SysNf:    system.sys-nf >= lna-mixer.lna-nf + lna-mixer.mix-nf / lna-mixer.lna-gain;
constraint MeetNf:   system.sys-nf <= system.req-nf;

// --- problem hierarchy ----------------------------------------------------
problem receiver {{
    outputs: system.sys-gain, system.sys-power, system.sys-nf;
    constraints: SysGain, MeetGain, SysPower, MeetPower, MeetZin,
                 MeetFc, MeetBw, MeetPrec, SysNf, MeetNf;
    designer 0;
}}
problem analog-front-end under receiver {{
    outputs: lna-mixer.diff-pair-w, lna-mixer.freq-ind, lna-mixer.bias-i,
             lna-mixer.lna-gain, lna-mixer.lna-power, lna-mixer.lna-zin,
             lna-mixer.lna-nf, lna-mixer.mix-gain, lna-mixer.mix-power,
             lna-mixer.mix-lo, lna-mixer.mix-nf, lna-mixer.load-r;
    constraints: GainBias, PowerBias, ZinW, ZinInd, NfBias, MixGainLo,
                 MixPowerLo, IndGain, LoadGain, PowerW;
    designer 1;
}}
problem mems-filter under receiver {{
    outputs: filter.beam-len, filter.beam-w, filter.beam-thick, filter.n-res,
             filter.flt-fc, filter.flt-bw, filter.flt-loss, filter.flt-q,
             filter.flt-prec, filter.drive-v;
    constraints: FcLenHi, FcLenLo, QThick, BwQ, LossN, SelN, PrecDrive,
                 PrecLen, DriveThick, LossQ;
    designer 2;
}}
"#
    )
}

/// Compiles the receiver scenario with the default gain requirement.
///
/// # Panics
///
/// Panics only if the embedded DDDL source is invalid, which the crate's
/// tests rule out.
pub fn wireless_receiver() -> CompiledScenario {
    wireless_receiver_with_gain(DEFAULT_GAIN_REQUIREMENT)
}

/// Compiles the receiver scenario with a custom system-gain requirement —
/// the knob the paper's Fig. 10 sweeps.
///
/// # Panics
///
/// Panics if `req_gain` lies outside the declared requirement range
/// `[10, 1000]`.
pub fn wireless_receiver_with_gain(req_gain: f64) -> CompiledScenario {
    assert!(
        (10.0..=1000.0).contains(&req_gain),
        "req_gain {req_gain} outside the declared requirement range"
    );
    compile_source(&receiver_dddl(req_gain)).expect("embedded receiver DDDL is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use adpm_constraint::{propagate, PropagationConfig, Value};
    use adpm_core::{DpmConfig, Operation};

    #[test]
    fn network_matches_paper_reported_size() {
        let s = wireless_receiver();
        // "up to 35 properties and 30 constraints exist, most of which are
        // non-linear"
        assert_eq!(s.network().property_count(), 32);
        assert_eq!(s.network().constraint_count(), 30);
        assert!(s.network().property_count() <= 35);
    }

    #[test]
    fn mostly_nonlinear() {
        let s = wireless_receiver();
        let net = s.network();
        let nonlinear = net
            .constraint_ids()
            .filter(|cid| {
                let c = net.constraint(*cid);
                let gap = c.gap();
                gap.has_kink()
                    || c.arguments().iter().any(|pid| {
                        !matches!(gap.diff(*pid).simplified(), adpm_constraint::Expr::Const(_))
                    })
            })
            .count();
        assert!(
            nonlinear * 2 >= net.constraint_count(),
            "expected mostly nonlinear constraints, found {nonlinear}/30"
        );
    }

    #[test]
    fn has_cross_subsystem_constraints() {
        let s = wireless_receiver();
        for name in ["SysGain", "SysPower", "MeetZin", "MeetFc", "SysNf"] {
            assert!(
                s.network().is_cross_object(s.constraint(name).unwrap()),
                "{name} should couple subsystems"
            );
        }
    }

    #[test]
    fn initial_propagation_finds_no_conflict() {
        let s = wireless_receiver();
        let dpm = s.build_dpm(DpmConfig::adpm());
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
    }

    #[test]
    fn known_good_assignment_completes_the_design() {
        let s = wireless_receiver();
        let mut dpm = s.build_dpm(DpmConfig::adpm());
        let d = dpm.designers().to_vec();
        let top = dpm.problems().root().unwrap();
        let analog = dpm.problems().problem(top).children()[0];
        let filter = dpm.problems().problem(top).children()[1];

        let assignments: Vec<(&str, &str, f64, adpm_core::ProblemId, adpm_core::DesignerId)> = vec![
            ("lna-mixer", "bias-i", 5.0, analog, d[1]),
            ("lna-mixer", "diff-pair-w", 10.0, analog, d[1]),
            ("lna-mixer", "freq-ind", 0.5, analog, d[1]),
            ("lna-mixer", "load-r", 6.0, analog, d[1]),
            ("lna-mixer", "lna-gain", 200.0, analog, d[1]),
            ("lna-mixer", "lna-power", 130.0, analog, d[1]),
            ("lna-mixer", "lna-zin", 50.3, analog, d[1]),
            ("lna-mixer", "lna-nf", 3.0, analog, d[1]),
            ("lna-mixer", "mix-lo", 1.2, analog, d[1]),
            ("lna-mixer", "mix-gain", 5.0, analog, d[1]),
            ("lna-mixer", "mix-power", 45.0, analog, d[1]),
            ("lna-mixer", "mix-nf", 5.0, analog, d[1]),
            ("filter", "beam-w", 1.5, filter, d[2]),
            ("filter", "beam-len", 25.0, filter, d[2]),
            ("filter", "beam-thick", 2.0, filter, d[2]),
            ("filter", "n-res", 4.0, filter, d[2]),
            ("filter", "flt-fc", 96.0, filter, d[2]),
            ("filter", "flt-q", 1000.0, filter, d[2]),
            ("filter", "flt-bw", 2.0, filter, d[2]),
            ("filter", "flt-loss", 2.2, filter, d[2]),
            ("filter", "drive-v", 20.0, filter, d[2]),
            ("filter", "flt-prec", 0.5, filter, d[2]),
            ("system", "sys-gain", 250.0, top, d[0]),
            ("system", "sys-power", 190.0, top, d[0]),
            ("system", "sys-nf", 3.5, top, d[0]),
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
    fn gain_requirement_is_parameterizable() {
        let loose = wireless_receiver_with_gain(20.0);
        let tight = wireless_receiver_with_gain(300.0);
        let gid = loose.property("system", "req-gain").unwrap();
        let check = |s: &adpm_dddl::CompiledScenario, expected: f64| {
            let dpm = s.build_dpm(DpmConfig::adpm());
            let v = dpm.network().assignment(gid).unwrap().as_number().unwrap();
            assert_eq!(v, expected);
        };
        check(&loose, 20.0);
        check(&tight, 300.0);
    }

    #[test]
    #[should_panic(expected = "outside the declared requirement range")]
    fn out_of_range_gain_panics() {
        let _ = wireless_receiver_with_gain(5000.0);
    }

    #[test]
    fn tight_gain_narrows_feasible_space() {
        // Tightening the gain requirement must narrow the feasible region of
        // the gain chain (the premise of the Fig. 10 sweep).
        let loose = wireless_receiver_with_gain(50.0);
        let tight = wireless_receiver_with_gain(400.0);
        let measure = |s: &adpm_dddl::CompiledScenario| {
            let dpm = s.build_dpm(DpmConfig::adpm());
            let mut net = dpm.network().clone();
            propagate(&mut net, &PropagationConfig::default());
            let g = s.property("system", "sys-gain").unwrap();
            net.feasible(g)
                .relative_size(net.property(g).initial_domain())
        };
        assert!(measure(&tight) < measure(&loose));
    }
}
