//! Visualization of simulation statistics.
//!
//! The paper's TeamSim rendered its statistics with Gnuplot/Lefty windows
//! (Fig. 8); here the same data becomes ASCII charts and CSV text so the
//! bench harness can print Fig. 7/8/9/10-shaped output directly.

use crate::engine::Simulation;
use crate::stats::{Batch, RunStats};
use std::fmt::Write as _;

/// Renders the Fig. 7-style profile: two series (conventional solid `#`,
/// ADPM dotted `*`) of a per-operation metric as a horizontal-bar list.
pub fn profile_chart(
    title: &str,
    conventional: &[usize],
    adpm: &[usize],
    max_rows: usize,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "  op | conventional (#)              | ADPM (*)");
    let peak = conventional
        .iter()
        .chain(adpm.iter())
        .copied()
        .max()
        .unwrap_or(1)
        .max(1);
    let rows = conventional.len().max(adpm.len()).min(max_rows);
    let scale = 28.0 / peak as f64;
    for i in 0..rows {
        let c = conventional.get(i).copied().unwrap_or(0);
        let a = adpm.get(i).copied().unwrap_or(0);
        let cbar = "#".repeat((c as f64 * scale).round() as usize);
        let abar = "*".repeat((a as f64 * scale).round() as usize);
        let _ = writeln!(out, "{:>4} | {cbar:<30}| {abar}", i + 1);
    }
    if conventional.len().max(adpm.len()) > rows {
        let _ = writeln!(
            out,
            "  ... ({} more operations)",
            conventional.len().max(adpm.len()) - rows
        );
    }
    out
}

/// Renders the Fig. 8-style design-process statistics window for a running
/// (or finished) simulation: number of constraints, violations,
/// evaluations, and cumulative spins.
pub fn stats_window(sim: &Simulation) -> String {
    let dpm = sim.dpm();
    let mut out = String::new();
    let _ = writeln!(out, "── Design process statistics ───────────────────");
    let _ = writeln!(out, "mode:                   {:?}", dpm.mode());
    let _ = writeln!(
        out,
        "constraints:            {}",
        dpm.network().constraint_count()
    );
    let _ = writeln!(
        out,
        "properties:             {}",
        dpm.network().property_count()
    );
    let _ = writeln!(out, "executed operations:    {}", sim.operations());
    let _ = writeln!(
        out,
        "current violations:     {}",
        dpm.known_violations().len()
    );
    let _ = writeln!(out, "constraint evaluations: {}", dpm.total_evaluations());
    let _ = writeln!(out, "cumulative spins:       {}", dpm.spins());
    let _ = writeln!(out, "design complete:        {}", dpm.design_complete());
    let _ = writeln!(out, "────────────────────────────────────────────────");
    out
}

/// Renders a Fig. 9-style two-mode comparison row block.
pub fn comparison_block(label: &str, conventional: &Batch, adpm: &Batch) -> String {
    let mut out = String::new();
    let c_ops = conventional.operations();
    let a_ops = adpm.operations();
    let c_ev = conventional.evaluations();
    let a_ev = adpm.evaluations();
    let _ = writeln!(out, "{label}");
    let _ = writeln!(
        out,
        "  operations   conv {:>8.1} ± {:>7.1}   adpm {:>8.1} ± {:>6.1}   ratio {:.2}x",
        c_ops.mean,
        c_ops.std_dev,
        a_ops.mean,
        a_ops.std_dev,
        safe_ratio(c_ops.mean, a_ops.mean)
    );
    let _ = writeln!(
        out,
        "  evaluations  conv {:>8.1} ± {:>7.1}   adpm {:>8.1} ± {:>6.1}   ratio {:.2}x",
        c_ev.mean,
        c_ev.std_dev,
        a_ev.mean,
        a_ev.std_dev,
        safe_ratio(a_ev.mean, c_ev.mean)
    );
    let _ = writeln!(
        out,
        "  evals/op     conv {:>8.1}             adpm {:>8.1}             ratio {:.2}x",
        conventional.evaluations_per_operation().mean,
        adpm.evaluations_per_operation().mean,
        safe_ratio(
            adpm.evaluations_per_operation().mean,
            conventional.evaluations_per_operation().mean
        )
    );
    let _ = writeln!(
        out,
        "  spins        conv {:>8.1}             adpm {:>8.1}             adpm/conv {:.1}%",
        conventional.mean_spins(),
        adpm.mean_spins(),
        100.0 * safe_ratio(adpm.mean_spins(), conventional.mean_spins())
    );
    let _ = writeln!(
        out,
        "  completion   conv {:>7.0}%             adpm {:>7.0}%",
        100.0 * conventional.completion_rate(),
        100.0 * adpm.completion_rate()
    );
    out
}

fn safe_ratio(a: f64, b: f64) -> f64 {
    if b.abs() < 1e-12 {
        if a.abs() < 1e-12 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        a / b
    }
}

/// CSV rows for one run's per-operation capture
/// (`op,kind,violations_found,violations_after,evaluations,spin`).
pub fn run_csv(run: &RunStats) -> String {
    let mut out = String::from("op,kind,violations_found,violations_after,evaluations,spin\n");
    for s in &run.per_operation {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{}",
            s.index, s.kind, s.violations_found, s.violations_after, s.evaluations, s.spin
        );
    }
    out
}

/// CSV rows for a batch (`seed,completed,operations,evaluations,spins`),
/// one row per run in insertion order (seed inferred from position).
pub fn batch_csv(batch: &Batch) -> String {
    let mut out = String::from("run,completed,operations,evaluations,spins\n");
    for (i, r) in batch.runs().iter().enumerate() {
        let _ = writeln!(
            out,
            "{},{},{},{},{}",
            i, r.completed, r.operations, r.evaluations, r.spins
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimulationConfig;
    use crate::engine::run_once;
    use adpm_scenarios::lna_walkthrough;

    fn small_run() -> RunStats {
        run_once(&lna_walkthrough(), SimulationConfig::adpm(1))
    }

    #[test]
    fn profile_chart_scales_and_truncates() {
        let chart = profile_chart("violations", &[3, 0, 1, 0, 0], &[1, 0], 3);
        assert!(chart.contains("violations"));
        assert!(chart.contains("###"));
        assert!(chart.contains("more operations"));
        assert_eq!(chart.lines().count(), 6);
    }

    #[test]
    fn profile_chart_handles_empty_series() {
        let chart = profile_chart("empty", &[], &[], 5);
        assert!(chart.contains("empty"));
    }

    #[test]
    fn stats_window_mentions_key_metrics() {
        let scenario = lna_walkthrough();
        let mut sim = crate::engine::Simulation::new(&scenario, SimulationConfig::adpm(2));
        let _ = sim.run();
        let window = stats_window(&sim);
        for needle in [
            "constraints:",
            "executed operations:",
            "constraint evaluations:",
            "cumulative spins:",
            "design complete:        true",
        ] {
            assert!(window.contains(needle), "missing `{needle}` in\n{window}");
        }
    }

    #[test]
    fn comparison_block_reports_ratios() {
        let mut a = Batch::new();
        let mut c = Batch::new();
        a.push(small_run());
        c.push(small_run());
        let block = comparison_block("walkthrough", &c, &a);
        assert!(block.contains("operations"));
        assert!(block.contains("ratio 1.00x"));
        assert!(block.contains("completion"));
    }

    #[test]
    fn csv_outputs_have_headers_and_rows() {
        let run = small_run();
        let csv = run_csv(&run);
        assert!(csv.starts_with("op,kind,"));
        assert_eq!(csv.lines().count(), run.operations + 1);
        let mut batch = Batch::new();
        batch.push(run);
        let csv = batch_csv(&batch);
        assert!(csv.starts_with("run,completed,"));
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    fn safe_ratio_edge_cases() {
        assert_eq!(safe_ratio(0.0, 0.0), 1.0);
        assert!(safe_ratio(1.0, 0.0).is_infinite());
        assert_eq!(safe_ratio(6.0, 3.0), 2.0);
    }
}
