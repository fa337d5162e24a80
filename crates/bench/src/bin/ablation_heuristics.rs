//! Ablation study of ADPM's constraint-based heuristic supports — the
//! design choices §2.3 of the paper calls out. Each heuristic is disabled
//! in turn and the ADPM operation count re-measured on both design cases,
//! quantifying how much of ADPM's advantage each support contributes.
//!
//! (The paper proposes this line of work in its conclusions — "Future work
//! should evaluate other types of problems and heuristics" — so this bench
//! is an extension, not a paper figure.)

use adpm_bench::{write_results_json, JsonRow, PhaseRecorder};
use adpm_teamsim::{
    run_once_with_sink, Batch, ForwardOrdering, HeuristicToggles, SimulationConfig,
};

const SEEDS: u64 = 30;

/// A named tweak applied to the heuristic toggles.
type Variant = (&'static str, Box<dyn Fn(&mut HeuristicToggles)>);

fn main() {
    println!("=== Ablation — contribution of each §2.3 heuristic ({SEEDS} seeds) ===\n");
    let variants: Vec<Variant> = vec![
        ("all heuristics (paper ADPM)", Box::new(|_| {})),
        (
            "- feasible-subspace ordering (§2.3.1)",
            Box::new(|h| h.feasible_ordering = false),
        ),
        (
            "- feasible-subspace values (§2.3.1)",
            Box::new(|h| h.feasible_values = false),
        ),
        (
            "- alpha repair targeting (§2.3.3)",
            Box::new(|h| h.alpha_repair = false),
        ),
        (
            "- direction-aware repair (§3.1.1)",
            Box::new(|h| h.direction_repair = false),
        ),
        (
            "beta forward ordering instead (§2.3.2)",
            Box::new(|h| h.forward_ordering = ForwardOrdering::Beta),
        ),
        (
            "indirect-beta forward ordering (§2.3.2 ext)",
            Box::new(|h| h.forward_ordering = ForwardOrdering::BetaIndirect),
        ),
        (
            "no heuristics at all",
            Box::new(|h| *h = HeuristicToggles::none()),
        ),
    ];

    let mut json = Vec::new();
    for (name, scenario) in [
        ("sensing system", adpm_scenarios::sensing_system()),
        ("wireless receiver", adpm_scenarios::wireless_receiver()),
    ] {
        let mut recorder = PhaseRecorder::new();
        println!("{name}:");
        println!(
            "  {:<40} {:>10} {:>8} {:>9} {:>7}",
            "variant", "mean ops", "± std", "evals", "done%"
        );
        for (label, tweak) in &variants {
            let mut batch = Batch::new();
            for seed in 0..SEEDS {
                let mut config = SimulationConfig::adpm(seed);
                tweak(&mut config.heuristics);
                batch.push(run_once_with_sink(&scenario, config, recorder.sink()));
            }
            recorder.mark(label);
            println!(
                "  {label:<40} {:>10.1} {:>8.1} {:>9.1} {:>6.0}%",
                batch.operations().mean,
                batch.operations().std_dev,
                batch.evaluations().mean,
                100.0 * batch.completion_rate()
            );
            json.push(
                JsonRow::new("bench_variant", "ablation_heuristics")
                    .str("case", name)
                    .str("variant", label)
                    .batch("adpm", &batch)
                    .finish(),
            );
        }
        println!("\n{}", recorder.report());
        json.extend(recorder.results_rows(&format!("ablation_heuristics/{name}")));
    }
    write_results_json("ablation_heuristics", &json);
}
