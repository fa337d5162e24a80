//! Simulates the MEMS-based wireless-receiver design case (paper §3.2)
//! under ADPM with the live statistics window of Fig. 8, then prints the
//! per-operation profile of the finished run (Fig. 7 style, single mode).
//!
//! Run with: `cargo run -p adpm-examples --bin receiver_sim [seed]`

use adpm_scenarios::wireless_receiver;
use adpm_teamsim::report::{profile_chart, stats_window};
use adpm_teamsim::{Simulation, SimulationConfig, StepOutcome};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    let scenario = wireless_receiver();
    let mut sim = Simulation::new(&scenario, SimulationConfig::adpm(seed));

    println!("initial state:\n{}", stats_window(&sim));
    loop {
        match sim.step() {
            StepOutcome::Executed(stat) => {
                if stat.violations_found > 0 {
                    println!(
                        "op {:>3} ({:>7}) found {} violation(s){}",
                        stat.index,
                        stat.kind,
                        stat.violations_found,
                        if stat.spin { "  [spin]" } else { "" }
                    );
                }
                if sim.operations().is_multiple_of(10) {
                    println!(
                        "\nafter {} operations:\n{}",
                        sim.operations(),
                        stats_window(&sim)
                    );
                }
            }
            StepOutcome::Complete => break,
            StepOutcome::Stalled => {
                println!("simulation stalled");
                break;
            }
        }
        if sim.operations() >= sim.config().max_operations {
            break;
        }
    }
    println!("\nfinal state:\n{}", stats_window(&sim));

    let run = sim.run(); // already complete; collects the stats
    println!(
        "{}",
        profile_chart(
            "violations found per operation (ADPM run)",
            &[],
            &run.violations_profile(),
            50,
        )
    );
    println!(
        "completed = {}, operations = {}, evaluations = {} ({} during setup)",
        run.completed, run.operations, run.evaluations, run.setup_evaluations
    );
}
