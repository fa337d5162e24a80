//! Compares the DCM's two propagation paths — full from-scratch
//! re-propagation after every operation vs **region** propagation, which
//! re-derives only the properties and constraints the operation can move —
//! on the paper's sensing-system and wireless-receiver scenarios.
//!
//! For every seed, one ADPM simulation is run to record a design history,
//! and that history is then replayed operation-by-operation on two fresh
//! DPMs: one running uncapped full propagation, one running the region
//! path. After *every* operation the two are checked for equality — bit
//! for bit identical feasible subspaces, the same constraint statuses and
//! known violations, and the same notification stream for every designer
//! — the correctness oracle for the region path, while the per-operation
//! constraint evaluations are accumulated for the cost comparison.
//!
//! Expected shape: the states and streams are always identical, and the
//! region path needs strictly fewer evaluations per operation, because it
//! only re-examines the part of the network the operation can move.
//!
//! Usage: `fig_incremental [seeds]` (default 60). Only a run of the
//! default seed count writes `results/fig_incremental.json`.

use adpm_bench::{write_results_json, JsonRow, SEEDS};
use adpm_constraint::{PropagationConfig, PropagationKind};
use adpm_core::{DesignProcessManager, DpmConfig};
use adpm_dddl::CompiledScenario;
use adpm_teamsim::{Simulation, SimulationConfig};

#[derive(Default)]
struct Totals {
    operations: u64,
    full_evaluations: u64,
    region_evaluations: u64,
    /// Operations where the region run cost less than the full run.
    cheaper_runs: u64,
}

/// Checks the two DPMs agree on everything a designer can observe, and
/// drains and compares every designer's notifications.
fn equivalent(
    full: &mut DesignProcessManager,
    region: &mut DesignProcessManager,
) -> Result<(), String> {
    let (fnet, rnet) = (full.network(), region.network());
    for pid in fnet.property_ids() {
        let (a, b) = (fnet.feasible(pid), rnet.feasible(pid));
        if format!("{a:?}") != format!("{b:?}") {
            return Err(format!(
                "feasible({}) diverged: full {a:?} vs region {b:?}",
                fnet.property(pid).name()
            ));
        }
    }
    for cid in fnet.constraint_ids() {
        if fnet.status(cid) != rnet.status(cid) {
            return Err(format!(
                "status({}) diverged: full {:?} vs region {:?}",
                fnet.constraint(cid).name(),
                fnet.status(cid),
                rnet.status(cid)
            ));
        }
    }
    if full.known_violations() != region.known_violations() {
        return Err("known violation sets diverged".into());
    }
    for designer in full.designers().to_vec() {
        let (a, b) = (
            full.take_notifications(designer),
            region.take_notifications(designer),
        );
        if a != b {
            return Err(format!(
                "notifications of {designer} diverged: full {a:?} vs region {b:?}"
            ));
        }
    }
    Ok(())
}

fn replay_scenario(name: &str, scenario: &CompiledScenario, seeds: u64) -> Totals {
    let uncapped_full = DpmConfig {
        propagation: PropagationConfig {
            max_evaluations: usize::MAX,
        },
        propagation_kind: PropagationKind::Full,
        ..DpmConfig::adpm()
    };
    let mut totals = Totals::default();
    for seed in 0..seeds {
        let mut sim = Simulation::new(scenario, SimulationConfig::adpm(seed));
        sim.run();
        let history = sim.dpm().history().to_vec();

        let mut full = scenario.build_dpm(uncapped_full.clone());
        let mut region = scenario.build_dpm(DpmConfig::adpm());
        full.initialize();
        region.initialize();
        equivalent(&mut full, &mut region)
            .unwrap_or_else(|why| panic!("{name} seed {seed}: states diverged after setup: {why}"));

        for record in &history {
            let f = full
                .execute(record.operation.clone())
                .expect("full replay accepts its own history");
            let r = region
                .execute(record.operation.clone())
                .expect("region replay accepts the same history");
            totals.operations += 1;
            totals.full_evaluations += f.evaluations as u64;
            totals.region_evaluations += r.evaluations as u64;
            totals.cheaper_runs += u64::from(r.evaluations < f.evaluations);
            equivalent(&mut full, &mut region).unwrap_or_else(|why| {
                panic!(
                    "{name} seed {seed} op {}: states diverged: {why}",
                    record.sequence
                )
            });
        }
    }
    totals
}

fn main() {
    let seeds: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed count must be a number"))
        .unwrap_or(SEEDS);
    println!("=== region vs full propagation ({seeds} seeds per scenario) ===\n");
    println!(
        "{:<20} {:>8} {:>12} {:>12} {:>9} {:>9} {:>9} {:>9}",
        "case", "ops", "full evals", "region evals", "full/op", "region/op", "speedup", "cheaper%"
    );

    let mut all_cheaper = true;
    let mut json = Vec::new();
    for (name, scenario) in [
        ("sensing system", adpm_scenarios::sensing_system()),
        ("wireless receiver", adpm_scenarios::wireless_receiver()),
    ] {
        let t = replay_scenario(name, &scenario, seeds);
        let full_per_op = t.full_evaluations as f64 / t.operations as f64;
        let region_per_op = t.region_evaluations as f64 / t.operations as f64;
        println!(
            "{name:<20} {:>8} {:>12} {:>12} {full_per_op:>9.2} {region_per_op:>9.2} \
             {:>8.2}x {:>8.1}%",
            t.operations,
            t.full_evaluations,
            t.region_evaluations,
            full_per_op / region_per_op,
            100.0 * t.cheaper_runs as f64 / t.operations as f64,
        );
        all_cheaper &= t.region_evaluations < t.full_evaluations;
        json.push(
            JsonRow::new("bench_case", "fig_incremental")
                .str("case", name)
                .u64("seeds", seeds)
                .u64("operations", t.operations)
                .u64("full_evaluations", t.full_evaluations)
                .u64("region_evaluations", t.region_evaluations)
                .u64("cheaper_runs", t.cheaper_runs)
                .f64("speedup", full_per_op / region_per_op)
                .finish(),
        );
    }

    println!("\nequivalence oracle: every operation left bit-identical feasible subspaces,");
    println!("constraint statuses, known violations and per-designer notifications under");
    println!("both paths (checked above).");
    println!("region strictly cheaper on every scenario: {all_cheaper}");
    if seeds == SEEDS {
        write_results_json("fig_incremental", &json);
    } else {
        println!(
            "\n{seeds} seeds: results twin not written (checked-in file is a {SEEDS}-seed capture)"
        );
    }
    assert!(
        all_cheaper,
        "region propagation must need fewer evaluations than full"
    );
}
