//! Regenerates **Fig. 10**: variation of the number of executed design
//! operations with the tightness of the system-gain requirement in the
//! receiver problem.
//!
//! Expected shape (paper §3.2): the variation with tightness is larger for
//! the conventional approach — ADPM is more robust to specification
//! tightening.

use adpm_bench::{bar, write_results_json, JsonRow, PhaseRecorder};
use adpm_scenarios::wireless_receiver_with_gain;
use adpm_teamsim::Summary;

/// Seeds per sweep point (the sweep has several points, so fewer seeds per
/// point than Fig. 9 keeps the total comparable to the paper's 60+ runs).
const SEEDS: u64 = 20;

fn main() {
    println!("=== Fig. 10 — operations vs gain-requirement tightness (receiver) ===\n");
    let gains = [50.0, 100.0, 150.0, 200.0, 250.0, 300.0];
    println!(
        "{:>9} {:>12} {:>10} {:>12} {:>10} {:>11} {:>11}",
        "req-gain", "conv ops", "± std", "adpm ops", "± std", "conv done%", "adpm done%"
    );
    let mut recorder = PhaseRecorder::new();
    let mut conv_means = Vec::new();
    let mut adpm_means = Vec::new();
    for gain in gains {
        let scenario = wireless_receiver_with_gain(gain);
        let (conventional, adpm) =
            recorder.run_both_phases(&format!("gain>={gain:.0}"), &scenario, SEEDS);
        let c = conventional.operations();
        let a = adpm.operations();
        println!(
            "{gain:>9.0} {:>12.1} {:>10.1} {:>12.1} {:>10.1} {:>10.0}% {:>10.0}%",
            c.mean,
            c.std_dev,
            a.mean,
            a.std_dev,
            100.0 * conventional.completion_rate(),
            100.0 * adpm.completion_rate()
        );
        conv_means.push(c.mean);
        adpm_means.push(a.mean);
    }

    println!("\nbar view (mean operations per tightness):");
    let peak = conv_means
        .iter()
        .chain(adpm_means.iter())
        .cloned()
        .fold(1.0f64, f64::max);
    for (i, gain) in gains.iter().enumerate() {
        println!(
            "  gain>={gain:<4} conv |{}",
            bar(conv_means[i], 55.0 / peak, '#')
        );
        println!("  {:<9} adpm |{}", "", bar(adpm_means[i], 55.0 / peak, '*'));
    }

    let conv_summary = Summary::of(&conv_means);
    let adpm_summary = Summary::of(&adpm_means);
    let conv_spread = conv_summary.max - conv_summary.min;
    let adpm_spread = adpm_summary.max - adpm_summary.min;
    println!("\npaper-shape checks:");
    println!(
        "  operation spread across the sweep: conventional {conv_spread:.1}, adpm {adpm_spread:.1}"
    );
    println!(
        "  variation larger for the conventional approach (ADPM more robust): {}",
        conv_spread > adpm_spread
    );
    println!(
        "  relative variation (spread/mean): conventional {:.2}, adpm {:.2}",
        conv_spread / conv_summary.mean.max(1e-9),
        adpm_spread / adpm_summary.mean.max(1e-9)
    );

    println!("\n{}", recorder.report());

    let mut json: Vec<String> = gains
        .iter()
        .enumerate()
        .map(|(i, gain)| {
            JsonRow::new("bench_point", "fig10_tightness")
                .f64("req_gain", *gain)
                .f64("conventional_ops_mean", conv_means[i])
                .f64("adpm_ops_mean", adpm_means[i])
                .finish()
        })
        .collect();
    json.push(
        JsonRow::new("bench_shape", "fig10_tightness")
            .f64("conventional_spread", conv_spread)
            .f64("adpm_spread", adpm_spread)
            .bool("conventional_varies_more", conv_spread > adpm_spread)
            .finish(),
    );
    json.extend(recorder.results_rows("fig10_tightness"));
    write_results_json("fig10_tightness", &json);
}
