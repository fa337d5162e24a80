//! Simulates the MEMS pressure-sensing-system design case (paper §3.2) in
//! both management modes side by side and prints a comparison — a one-shot
//! version of the paper's Fig. 9 for a single seed pair, plus a small
//! multi-seed summary.
//!
//! Run with: `cargo run -p adpm-examples --bin pressure_sensor [seed]`

use adpm_core::ManagementMode;
use adpm_scenarios::sensing_system;
use adpm_teamsim::report::comparison_block;
use adpm_teamsim::{run_once, Batch, SimulationConfig};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let scenario = sensing_system();

    println!("== one run per mode (seed {seed}) ==\n");
    for mode in [ManagementMode::Conventional, ManagementMode::Adpm] {
        let stats = run_once(&scenario, SimulationConfig::for_mode(mode, seed));
        println!(
            "{mode:?}: completed = {}, operations = {}, evaluations = {}, spins = {}",
            stats.completed, stats.operations, stats.evaluations, stats.spins
        );
    }

    println!("\n== 12-seed summary ==\n");
    let mut conventional = Batch::new();
    let mut adpm = Batch::new();
    for s in 0..12 {
        conventional.push(run_once(&scenario, SimulationConfig::conventional(s)));
        adpm.push(run_once(&scenario, SimulationConfig::adpm(s)));
    }
    println!(
        "{}",
        comparison_block("sensing system", &conventional, &adpm)
    );
    println!(
        "ADPM completes the design with {:.1}x fewer designer operations, at the\n\
         cost of {:.1}x more constraint evaluations (automatic tool runs).",
        conventional.operations().mean / adpm.operations().mean,
        adpm.evaluations().mean / conventional.evaluations().mean
    );
}
