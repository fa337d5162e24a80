//! The §2.4 walkthrough: team-based design of a MEMS-based wireless
//! receiver front-end, reduced to the LNA+Mixer / MEMS-filter interplay the
//! paper uses to demonstrate the three heuristics (Figs. 2–4).
//!
//! The story this scenario supports:
//!
//! 1. the device engineer sets the filter beam length to 13 µm — the
//!    frequency-inductor's feasible subspace shrinks to ≈ (0.17, 0.5) µH
//!    (Fig. 2), making it the *smallest-feasible-subspace* target;
//! 2. the circuit designer binds the inductor (0.2 µH, no conflict) and
//!    sizes the differential pair using the `β` view (Fig. 3);
//! 3. the team leader tightens the gain and input-impedance requirements —
//!    two violations appear, both connected to `Diff-pair-W`
//!    (`α = 2`, Fig. 4), with *increase* as the majority repair direction;
//! 4. one re-sizing of the differential pair fixes both violations.

use adpm_dddl::{compile_source, CompiledScenario};

/// DDDL source for the walkthrough scenario.
pub const WALKTHROUGH_DDDL: &str = r#"
// §2.4 walkthrough: LNA+Mixer and MEMS filter designed concurrently.
// Designer 0 = team leader, 1 = circuit designer, 2 = device engineer.

object system {
    property req-sys-gain : interval(10, 60) units "dB" init 24;
    property req-zerr     : interval(10, 80) units "ohm" init 50;
    property req-power    : interval(50, 400) units "mW" init 200;
}

object "LNA+Mixer" {
    property Diff-pair-W : interval(0.5, 10) units "um"
        levels [Transistor, Geometry];
    property Freq-ind    : interval(0.05, 0.5) units "uH"
        levels [Transistor, Geometry];
    property LNA-gain    : interval(0, 60) units "dB" levels [Geometry];
    property LNA-power   : interval(20, 200) units "mW" levels [Geometry];
    property LNA-Zerr    : interval(5, 80) units "ohm" levels [Geometry];
}

object Filter {
    property beam-len : interval(5, 30) units "um";
    property flt-loss : interval(1, 25) units "dB";
}

// The gain the differential pair can deliver net of filter loss must meet
// the system requirement (cross-subsystem: this is the "global gain
// requirement" both designers worry about).
constraint TotalGain:
    20 * sqrt(2 * "LNA+Mixer".Diff-pair-W) - Filter.flt-loss >= system.req-sys-gain
    monotonic increasing in "LNA+Mixer".Diff-pair-W,
              decreasing in Filter.flt-loss;
constraint GainDef: "LNA+Mixer".LNA-gain <= 20 * sqrt(2 * "LNA+Mixer".Diff-pair-W);
constraint ZinReq: 110 / "LNA+Mixer".Diff-pair-W <= system.req-zerr
    monotonic increasing in "LNA+Mixer".Diff-pair-W;
constraint ZerrDef: "LNA+Mixer".LNA-Zerr >= 110 / "LNA+Mixer".Diff-pair-W;
constraint PowerW: "LNA+Mixer".LNA-power >= 20 * "LNA+Mixer".Diff-pair-W;
constraint PowerReq: "LNA+Mixer".LNA-power <= system.req-power;
constraint IndFc: "LNA+Mixer".Freq-ind >= Filter.beam-len / 70;
constraint FilterLoss: Filter.flt-loss >= 32.12 - Filter.beam-len;

problem front-end {
    constraints: TotalGain, ZinReq, IndFc;
    designer 0;
}
problem analog under front-end {
    outputs: "LNA+Mixer".Diff-pair-W, "LNA+Mixer".Freq-ind,
             "LNA+Mixer".LNA-gain, "LNA+Mixer".LNA-power,
             "LNA+Mixer".LNA-Zerr;
    constraints: GainDef, ZerrDef, PowerW, PowerReq;
    designer 1;
}
problem mems-filter under front-end {
    outputs: Filter.beam-len, Filter.flt-loss;
    constraints: FilterLoss;
    designer 2;
}
"#;

/// Compiles the walkthrough scenario.
///
/// # Panics
///
/// Panics only if the embedded DDDL source is invalid, which the crate's
/// tests rule out.
pub fn lna_walkthrough() -> CompiledScenario {
    compile_source(WALKTHROUGH_DDDL).expect("embedded walkthrough DDDL is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use adpm_constraint::{HelpsDirection, Value};
    use adpm_core::{DpmConfig, Operation};

    /// Replays the paper's §2.4 narrative end to end and checks every
    /// intermediate observation the paper reports.
    #[test]
    fn walkthrough_story_plays_out() {
        let s = lna_walkthrough();
        let mut dpm = s.build_dpm(DpmConfig::adpm());
        let d = dpm.designers().to_vec();
        let top = dpm.problems().root().unwrap();
        let analog = dpm.problems().problem(top).children()[0];
        let filter = dpm.problems().problem(top).children()[1];

        let beam_len = s.property("Filter", "beam-len").unwrap();
        let flt_loss = s.property("Filter", "flt-loss").unwrap();
        let freq_ind = s.property("LNA+Mixer", "Freq-ind").unwrap();
        let w = s.property("LNA+Mixer", "Diff-pair-W").unwrap();
        let req_gain = s.property("system", "req-sys-gain").unwrap();
        let req_zerr = s.property("system", "req-zerr").unwrap();

        // 1. Device engineer adjusts the beam length to 13 µm and completes
        //    an initial filter version.
        dpm.execute(Operation::assign(
            d[2],
            filter,
            beam_len,
            Value::number(13.0),
        ))
        .unwrap();
        dpm.execute(Operation::assign(
            d[2],
            filter,
            flt_loss,
            Value::number(19.5),
        ))
        .unwrap();

        // Fig. 2: the inductor's feasible subspace is now ≈ (0.186, 0.5) µH.
        let ind = dpm
            .network()
            .feasible(freq_ind)
            .enclosing_interval()
            .unwrap();
        assert!((ind.lo() - 13.0 / 70.0).abs() < 1e-6, "ind = {ind}");
        assert!((ind.hi() - 0.5).abs() < 1e-9);

        // The inductor has the smallest relative feasible subspace among the
        // circuit designer's unbound outputs — the §2.3.1 heuristic target.
        let report = dpm.heuristics().unwrap();
        let ranked = report.rank_by_smallest_feasible(&[w, freq_ind]);
        assert_eq!(ranked[0], freq_ind);

        // 2. Circuit designer binds the inductor at 0.2 µH: no conflict.
        dpm.execute(Operation::assign(
            d[1],
            analog,
            freq_ind,
            Value::number(0.2),
        ))
        .unwrap();
        assert!(dpm.known_violations().is_empty());

        // Fig. 3: Diff-pair-W appears in several constraints (power,
        // impedance, gain) — β ≥ 3.
        let report = dpm.heuristics().unwrap();
        assert!(
            report.insight(w).beta >= 3,
            "beta = {}",
            report.insight(w).beta
        );

        // Circuit designer sizes the differential pair at the small end to
        // save power, then completes the derived outputs.
        dpm.execute(Operation::assign(d[1], analog, w, Value::number(3.0)))
            .unwrap();
        assert!(dpm.known_violations().is_empty());

        // 3. The team leader tightens the gain requirement and the input
        //    impedance requirement — both TotalGain and ZinReq break, and
        //    both involve Diff-pair-W.
        dpm.execute(Operation::assign(d[0], top, req_gain, Value::number(30.0)))
            .unwrap();
        dpm.execute(Operation::assign(d[0], top, req_zerr, Value::number(35.0)))
            .unwrap();
        let violated = dpm.known_violations();
        assert_eq!(violated.len(), 2, "expected 2 violations, got {violated:?}");

        // Fig. 4: α(Diff-pair-W) = 2 and the repair direction is "increase".
        let report = dpm.heuristics().unwrap();
        let insight = report.insight(w);
        assert_eq!(insight.alpha, 2);
        assert_eq!(insight.repair_direction, Some(HelpsDirection::Up));
        assert_eq!(insight.repair_support, 2);

        // 4. One re-sizing to 3.5 µm fixes both violations in a single
        //    iteration, exactly as in the paper.
        dpm.execute(Operation::assign(d[1], analog, w, Value::number(3.5)).with_repairs(violated))
            .unwrap();
        assert!(dpm.known_violations().is_empty(), "both violations fixed");
    }

    #[test]
    fn scenario_compiles_with_expected_shape() {
        let s = lna_walkthrough();
        assert_eq!(s.network().property_count(), 10);
        assert_eq!(s.network().constraint_count(), 8);
        assert_eq!(s.designer_count(), 3);
        // The quoted object name with '+' survives the pipeline.
        assert!(s.property("LNA+Mixer", "Diff-pair-W").is_some());
    }

    #[test]
    fn cross_subsystem_constraints_drive_spins() {
        let s = lna_walkthrough();
        assert!(s
            .network()
            .is_cross_object(s.constraint("TotalGain").unwrap()));
        assert!(s.network().is_cross_object(s.constraint("IndFc").unwrap()));
        assert!(!s.network().is_cross_object(s.constraint("PowerW").unwrap()));
    }
}
