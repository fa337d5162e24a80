//! Regenerates **Fig. 7**: a typical per-operation profile for a simplified
//! design case — (a) the number of constraint violations found upon each
//! executed operation and (b) the number of constraint evaluations executed
//! due to each operation, for the conventional flow (solid/`#`) vs ADPM
//! (dotted/`*`).
//!
//! Expected shape (paper §3.1.2): with ADPM fewer violations are found,
//! violations start later and stop earlier, the run is shorter; ADPM runs
//! far more evaluations *per operation*, but the total-evaluation penalty is
//! smaller than the per-operation penalty because ADPM executes fewer
//! operations.

use adpm_bench::{write_results_json, JsonRow, PhaseRecorder};
use adpm_core::ManagementMode;
use adpm_teamsim::report::{profile_chart, run_csv};
use adpm_teamsim::{run_once, run_once_with_sink, SimulationConfig};

fn main() {
    // The paper's Fig. 7 uses "a simplified design case": the pressure
    // sensing system is the simpler of the two evaluation cases. Pick a
    // seed whose conventional run is close to the batch median so the
    // profile is "typical".
    let scenario = adpm_scenarios::sensing_system();
    let seed = typical_seed(&scenario);
    let mut recorder = PhaseRecorder::new();
    let conventional = run_once_with_sink(
        &scenario,
        SimulationConfig::conventional(seed),
        recorder.sink(),
    );
    recorder.mark("conventional");
    let adpm = run_once_with_sink(&scenario, SimulationConfig::adpm(seed), recorder.sink());
    recorder.mark("adpm");

    println!("=== Fig. 7 — per-operation profile (sensing system, seed {seed}) ===\n");
    println!(
        "{}",
        profile_chart(
            "(a) violations found upon each executed operation",
            &conventional.violations_profile(),
            &adpm.violations_profile(),
            60,
        )
    );
    println!(
        "{}",
        profile_chart(
            "(b) constraint evaluations executed due to each operation",
            &conventional.evaluations_profile(),
            &adpm.evaluations_profile(),
            60,
        )
    );

    let (c_first, c_last) = conventional.violation_span().unwrap_or((0, 0));
    let (a_first, a_last) = adpm.violation_span().unwrap_or((0, 0));
    println!("observations (paper's expected trends):");
    println!(
        "  total violations found:  conventional {:>4}   adpm {:>4}   (adpm fewer: {})",
        conventional.total_violations_found(),
        adpm.total_violations_found(),
        adpm.total_violations_found() < conventional.total_violations_found(),
    );
    println!(
        "  violations span (ops):   conventional {c_first}..{c_last}   adpm {a_first}..{a_last}"
    );
    println!(
        "  operations to complete:  conventional {:>4}   adpm {:>4}",
        conventional.operations, adpm.operations
    );
    let n_e_conv = conventional.evaluations_per_operation();
    let n_e_adpm = adpm.evaluations_per_operation();
    println!(
        "  evaluations/operation:   conventional {n_e_conv:>7.1}   adpm {n_e_adpm:>7.1}   per-op penalty {:.1}x",
        n_e_adpm / n_e_conv
    );
    println!(
        "  total evaluations N_T:   conventional {:>7}   adpm {:>7}   total penalty {:.1}x",
        conventional.evaluations,
        adpm.evaluations,
        adpm.evaluations as f64 / conventional.evaluations as f64
    );
    println!(
        "  total penalty < per-op penalty: {}",
        (adpm.evaluations as f64 / conventional.evaluations as f64) < (n_e_adpm / n_e_conv)
    );

    println!("\n{}", recorder.report());

    println!("--- CSV (conventional) ---\n{}", run_csv(&conventional));
    println!("--- CSV (adpm) ---\n{}", run_csv(&adpm));

    let mut rows = vec![JsonRow::new("bench_config", "fig7_profile")
        .str("case", "sensing system")
        .u64("seed", seed)
        .finish()];
    for (mode, stats) in [("conventional", &conventional), ("adpm", &adpm)] {
        let (first, last) = stats.violation_span().unwrap_or((0, 0));
        rows.push(
            JsonRow::new("bench_run", "fig7_profile")
                .str("mode", mode)
                .u64("operations", stats.operations as u64)
                .u64("evaluations", stats.evaluations as u64)
                .u64("violations", stats.total_violations_found() as u64)
                .u64("first_violation_op", first as u64)
                .u64("last_violation_op", last as u64)
                .f64("evaluations_per_op", stats.evaluations_per_operation())
                .bool("completed", stats.completed)
                .finish(),
        );
    }
    rows.extend(recorder.results_rows("fig7_profile"));
    write_results_json("fig7_profile", &rows);
}

/// Seed whose conventional operation count is closest to the median over a
/// small pilot sweep, restricted to seeds where the ADPM run also finds at
/// least one violation (an all-clean ADPM run would make the "violations
/// start later / stop earlier" comparison degenerate).
fn typical_seed(scenario: &adpm_dddl::CompiledScenario) -> u64 {
    let mut runs: Vec<(u64, usize)> = (0..20u64)
        .filter(|seed| {
            run_once(
                scenario,
                SimulationConfig::for_mode(ManagementMode::Adpm, *seed),
            )
            .total_violations_found()
                > 0
        })
        .map(|seed| {
            let stats = run_once(
                scenario,
                SimulationConfig::for_mode(ManagementMode::Conventional, seed),
            );
            (seed, stats.operations)
        })
        .collect();
    runs.sort_by_key(|(_, ops)| *ops);
    runs[runs.len() / 2].0
}
