//! Regenerates **Fig. 9 (b)**: average number of constraint evaluations
//! (the paper's proxy for verification/simulation tool runs) required by
//! each approach, both in total (`N_T`) and per executed operation (`N_E`),
//! over 60 random-seeded simulations.
//!
//! Expected shape (paper §3.2): ADPM requires many more evaluations than
//! the conventional approach; the computational penalty is *smaller for the
//! harder (receiver) problem*; and the per-operation penalty is larger than
//! the total penalty (consistent with Fig. 7 (b)).

use adpm_bench::{bar, write_results_json, JsonRow, PhaseRecorder, SEEDS};

fn main() {
    println!("=== Fig. 9 (b) — constraint evaluations ({SEEDS} seeds per bar) ===\n");
    let mut recorder = PhaseRecorder::new();
    let mut rows = Vec::new();
    for (name, scenario) in [
        ("sensing system", adpm_scenarios::sensing_system()),
        ("wireless receiver", adpm_scenarios::wireless_receiver()),
    ] {
        let (conventional, adpm) = recorder.run_both_phases(name, &scenario, SEEDS);
        rows.push((name, conventional, adpm));
    }

    println!(
        "{:<20} {:>14} {:>14} {:>10} | {:>10} {:>10} {:>10}",
        "case", "conv N_T", "adpm N_T", "penalty", "conv N_E", "adpm N_E", "penalty"
    );
    for (name, c, a) in &rows {
        let ct = c.evaluations().mean;
        let at = a.evaluations().mean;
        let ce = c.evaluations_per_operation().mean;
        let ae = a.evaluations_per_operation().mean;
        println!(
            "{name:<20} {ct:>12.1} {at:>14.1} {:>9.1}x | {ce:>10.1} {ae:>10.1} {:>9.1}x",
            at / ct,
            ae / ce
        );
    }

    println!("\nbar view (total evaluations N_T):");
    let peak = rows
        .iter()
        .flat_map(|(_, c, a)| [c.evaluations().mean, a.evaluations().mean])
        .fold(1.0f64, f64::max);
    for (name, c, a) in &rows {
        println!(
            "  {name:<18} conv |{}",
            bar(c.evaluations().mean, 55.0 / peak, '#')
        );
        println!(
            "  {:<18} adpm |{}",
            "",
            bar(a.evaluations().mean, 55.0 / peak, '*')
        );
    }

    println!("\npaper-shape checks:");
    let total_penalty: Vec<f64> = rows
        .iter()
        .map(|(_, c, a)| a.evaluations().mean / c.evaluations().mean)
        .collect();
    let per_op_penalty: Vec<f64> = rows
        .iter()
        .map(|(_, c, a)| a.evaluations_per_operation().mean / c.evaluations_per_operation().mean)
        .collect();
    for (i, (name, _, _)) in rows.iter().enumerate() {
        println!(
            "  {name:<18} adpm needs more evaluations: {} | \
             per-op penalty ({:.1}x) > total penalty ({:.1}x): {}",
            total_penalty[i] > 1.0,
            per_op_penalty[i],
            total_penalty[i],
            per_op_penalty[i] > total_penalty[i]
        );
    }
    println!(
        "  total penalty smaller for the harder (receiver) case: {} \
         ({:.1}x vs {:.1}x)",
        total_penalty[1] < total_penalty[0],
        total_penalty[1],
        total_penalty[0]
    );

    println!("\n{}", recorder.report());

    let mut json = Vec::new();
    for (i, (name, c, a)) in rows.iter().enumerate() {
        json.push(
            JsonRow::new("bench_case", "fig9_evaluations")
                .str("case", name)
                .batch("conventional", c)
                .batch("adpm", a)
                .f64("total_penalty", total_penalty[i])
                .f64("per_op_penalty", per_op_penalty[i])
                .finish(),
        );
    }
    json.extend(recorder.results_rows("fig9_evaluations"));
    write_results_json("fig9_evaluations", &json);
}
