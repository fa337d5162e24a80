//! The paper's §2.4 collaborative-design walkthrough, end to end, with the
//! Figs. 2–4 browser views printed at each step:
//!
//! 1. the device engineer sets the MEMS filter's beam length;
//! 2. the circuit designer consults the object browser (Fig. 2), works the
//!    frequency inductor first (smallest feasible subspace), then sizes the
//!    differential pair using the constraint/property browser (Fig. 3);
//! 3. the team leader tightens two requirements — two violations appear,
//!    both connected to `Diff-pair-W` (Fig. 4, `α = 2`);
//! 4. one direction-guided re-sizing fixes both violations.
//!
//! Run with: `cargo run -p adpm-examples --bin lna_walkthrough`

use adpm_constraint::{HeuristicReport, Value};
use adpm_core::browse::{conflict_view, constraint_pane, object_browser, property_pane};
use adpm_core::{DpmConfig, Operation};
use adpm_scenarios::lna_walkthrough;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = lna_walkthrough();
    let mut dpm = scenario.build_dpm(DpmConfig::adpm());
    dpm.initialize();
    let d = dpm.designers().to_vec();
    let top = dpm.problems().root().expect("scenario has a root");
    let analog = dpm.problems().problem(top).children()[0];
    let filter = dpm.problems().problem(top).children()[1];

    let beam_len = scenario.property("Filter", "beam-len").expect("exists");
    let flt_loss = scenario.property("Filter", "flt-loss").expect("exists");
    let freq_ind = scenario.property("LNA+Mixer", "Freq-ind").expect("exists");
    let w = scenario
        .property("LNA+Mixer", "Diff-pair-W")
        .expect("exists");
    let req_gain = scenario.property("system", "req-sys-gain").expect("exists");
    let req_zerr = scenario.property("system", "req-zerr").expect("exists");

    println!("== step 1: device engineer adjusts the beam length to 13 µm ==\n");
    dpm.execute(Operation::assign(
        d[2],
        filter,
        beam_len,
        Value::number(13.0),
    ))?;
    dpm.execute(Operation::assign(
        d[2],
        filter,
        flt_loss,
        Value::number(19.5),
    ))?;

    println!("Fig. 2 — object browser, circuit designer's view:\n");
    println!("{}", object_browser(dpm.network(), "LNA+Mixer"));

    println!("== step 2: circuit designer works the inductor first (smallest feasible set) ==\n");
    dpm.execute(Operation::assign(
        d[1],
        analog,
        freq_ind,
        Value::number(0.2),
    ))?;
    println!(
        "bound Freq-ind = 0.2 µH; known violations: {}\n",
        dpm.known_violations().len()
    );

    println!("Fig. 3 — constraint & property browser:\n");
    let report = dpm.heuristics().expect("ADPM mines heuristics").clone();
    println!("{}", constraint_pane(dpm.network()));
    println!("{}", property_pane(dpm.network(), &report));

    println!("== circuit designer sizes the differential pair at 3.0 µm (power-aware) ==\n");
    dpm.execute(Operation::assign(d[1], analog, w, Value::number(3.0)))?;

    println!("== step 3: the leader tightens the gain and impedance requirements ==\n");
    dpm.execute(Operation::assign(d[0], top, req_gain, Value::number(30.0)))?;
    dpm.execute(Operation::assign(d[0], top, req_zerr, Value::number(35.0)))?;
    let violated = dpm.known_violations();
    println!("violations now known: {}\n", violated.len());

    println!("Fig. 4 — conflict-resolution view:\n");
    let report = HeuristicReport::mine(dpm.network());
    println!("{}", conflict_view(dpm.network(), &report));
    let insight = report.insight(w);
    println!(
        "Diff-pair-W: alpha = {}, repair direction = {:?}\n",
        insight.alpha, insight.repair_direction
    );

    println!("== step 4: one re-sizing to 3.5 µm fixes both violations ==\n");
    dpm.execute(Operation::assign(d[1], analog, w, Value::number(3.5)).with_repairs(violated))?;
    println!(
        "violations after repair: {} (both fixed with a single iteration)",
        dpm.known_violations().len()
    );
    assert!(dpm.known_violations().is_empty());
    Ok(())
}
