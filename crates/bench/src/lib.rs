//! # adpm-bench
//!
//! Benchmark harness regenerating every evaluation figure of *Application
//! of Constraint-Based Heuristics in Collaborative Design* (DAC 2001).
//!
//! One binary per figure (run with `cargo run --release -p adpm-bench
//! --bin <name>`):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig7_profile` | Fig. 7 (a)/(b): violations and evaluations per operation |
//! | `fig8_stats` | Fig. 8: design-process statistics window over time |
//! | `fig9_operations` | Fig. 9 (a): operations to complete, mean ± std, spins |
//! | `fig9_evaluations` | Fig. 9 (b): constraint evaluations, total and per-op |
//! | `fig10_tightness` | Fig. 10: operations vs gain-requirement tightness |
//! | `ablation_heuristics` | ablation of the §2.3 heuristics (design-choice study) |
//! | `fig_incremental` | incremental vs full DCM propagation: cost + equivalence oracle |
//!
//! Per-layer and end-to-end timings of propagation, DDDL parsing and
//! TeamSim runs come from the standalone `perfbench` crate at the
//! repository root.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use adpm_core::ManagementMode;
use adpm_dddl::CompiledScenario;
use adpm_observe::{
    escape_into, field_bool, field_str, field_u64, Counter, CounterSnapshot, InMemorySink,
    MetricsSink,
};
use adpm_teamsim::{run_once, run_once_with_sink, Batch, SimulationConfig};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

/// Number of seeded runs per configuration, matching the paper's
/// "over 60 simulations were executed varying the value of the random seed".
pub const SEEDS: u64 = 60;

/// Runs `seeds` simulations of `scenario` in `mode` and collects a batch.
pub fn run_batch(scenario: &CompiledScenario, mode: ManagementMode, seeds: u64) -> Batch {
    let mut batch = Batch::new();
    for seed in 0..seeds {
        batch.push(run_once(scenario, SimulationConfig::for_mode(mode, seed)));
    }
    batch
}

/// Runs both modes over the same seeds.
pub fn run_both(scenario: &CompiledScenario, seeds: u64) -> (Batch, Batch) {
    (
        run_batch(scenario, ManagementMode::Conventional, seeds),
        run_batch(scenario, ManagementMode::Adpm, seeds),
    )
}

/// Accumulates per-phase counter totals across a bench binary.
///
/// Every figure binary runs in phases (one batch of simulations per bar,
/// curve, or configuration). A `PhaseRecorder` hands out one shared
/// [`InMemorySink`], and [`mark`](PhaseRecorder::mark) closes the current
/// phase by snapshotting the counters accumulated since the previous mark.
/// [`report`](PhaseRecorder::report) renders all phases as one table so
/// each binary can print where its constraint-evaluation budget went.
#[derive(Debug)]
pub struct PhaseRecorder {
    sink: Arc<InMemorySink>,
    last: CounterSnapshot,
    phases: Vec<(String, CounterSnapshot)>,
}

impl Default for PhaseRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl PhaseRecorder {
    /// A recorder with a fresh sink and no closed phases.
    pub fn new() -> Self {
        let sink = Arc::new(InMemorySink::new());
        let last = sink.snapshot();
        PhaseRecorder {
            sink,
            last,
            phases: Vec::new(),
        }
    }

    /// The shared sink; pass clones to instrumented runs.
    pub fn sink(&self) -> Arc<InMemorySink> {
        self.sink.clone()
    }

    /// Runs `seeds` simulations through the recorder's sink and closes the
    /// batch as one phase named `label`.
    pub fn run_phase(
        &mut self,
        label: &str,
        scenario: &CompiledScenario,
        mode: ManagementMode,
        seeds: u64,
    ) -> Batch {
        let mut batch = Batch::new();
        for seed in 0..seeds {
            batch.push(run_once_with_sink(
                scenario,
                SimulationConfig::for_mode(mode, seed),
                self.sink() as Arc<dyn MetricsSink>,
            ));
        }
        self.mark(label);
        batch
    }

    /// Runs both modes through the recorder, one phase per mode.
    pub fn run_both_phases(
        &mut self,
        label: &str,
        scenario: &CompiledScenario,
        seeds: u64,
    ) -> (Batch, Batch) {
        (
            self.run_phase(
                &format!("{label}/conventional"),
                scenario,
                ManagementMode::Conventional,
                seeds,
            ),
            self.run_phase(
                &format!("{label}/adpm"),
                scenario,
                ManagementMode::Adpm,
                seeds,
            ),
        )
    }

    /// Closes the current phase: everything counted since the last mark is
    /// recorded under `label`.
    pub fn mark(&mut self, label: &str) {
        let now = self.sink.snapshot();
        let delta = now.since(&self.last);
        self.last = now;
        self.phases.push((label.to_owned(), delta));
    }

    /// Per-phase counter table (the columns the paper's evaluation turns
    /// on: operations, evaluations, propagation waves, spins) plus a total
    /// row covering everything the sink counted.
    pub fn report(&self) -> String {
        const COLUMNS: [Counter; 6] = [
            Counter::Operations,
            Counter::Evaluations,
            Counter::Propagations,
            Counter::Waves,
            Counter::Violations,
            Counter::Spins,
        ];
        let width = self
            .phases
            .iter()
            .map(|(label, _)| label.len())
            .max()
            .unwrap_or(5)
            .max(5);
        let mut out = String::new();
        let _ = write!(out, "per-phase counters:\n  {:<width$}", "phase");
        for c in COLUMNS {
            let _ = write!(out, " {:>13}", c.name());
        }
        out.push('\n');
        for (label, snapshot) in &self.phases {
            let _ = write!(out, "  {label:<width$}");
            for c in COLUMNS {
                let _ = write!(out, " {:>13}", snapshot.get(c));
            }
            out.push('\n');
        }
        let total = self.sink.snapshot();
        let _ = write!(out, "  {:<width$}", "total");
        for c in COLUMNS {
            let _ = write!(out, " {:>13}", total.get(c));
        }
        out.push('\n');
        out
    }
}

/// Formats a simple horizontal ASCII bar.
pub fn bar(value: f64, scale: f64, ch: char) -> String {
    let n = ((value * scale).round() as usize).min(60);
    std::iter::repeat_n(ch, n).collect()
}

/// Builder for one flat JSON object line of a `results/*.json` twin —
/// same single-level shape as the trace schema, so the files stay
/// greppable and parseable with the same tooling.
#[derive(Debug)]
pub struct JsonRow(String);

impl JsonRow {
    /// Opens a row with its `"t"` tag and the emitting bench's name.
    pub fn new(tag: &str, bench: &str) -> Self {
        let mut row = String::from("{\"t\":\"");
        escape_into(&mut row, tag);
        row.push('"');
        field_str(&mut row, "bench", bench);
        JsonRow(row)
    }

    /// Appends a string field.
    #[must_use]
    pub fn str(mut self, key: &str, value: &str) -> Self {
        field_str(&mut self.0, key, value);
        self
    }

    /// Appends an unsigned integer field.
    #[must_use]
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        field_u64(&mut self.0, key, value);
        self
    }

    /// Appends a float field in `Display` form (non-finite values
    /// serialize as `null`).
    #[must_use]
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        let _ = write!(self.0, ",\"{key}\":");
        if value.is_finite() {
            let _ = write!(self.0, "{value}");
        } else {
            self.0.push_str("null");
        }
        self
    }

    /// Appends a boolean field.
    #[must_use]
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        field_bool(&mut self.0, key, value);
        self
    }

    /// Appends every counter of a snapshot as one field each.
    #[must_use]
    pub fn counters(mut self, snapshot: &CounterSnapshot) -> Self {
        for (counter, value) in snapshot.iter() {
            self = self.u64(counter.name(), value);
        }
        self
    }

    /// Appends a [`Batch`]'s headline statistics under a `prefix`.
    #[must_use]
    pub fn batch(self, prefix: &str, batch: &Batch) -> Self {
        let ops = batch.operations();
        let evals = batch.evaluations();
        self.u64(&format!("{prefix}_runs"), batch.runs().len() as u64)
            .f64(&format!("{prefix}_ops_mean"), ops.mean)
            .f64(&format!("{prefix}_ops_std"), ops.std_dev)
            .f64(&format!("{prefix}_evals_mean"), evals.mean)
            .f64(&format!("{prefix}_evals_std"), evals.std_dev)
            .f64(&format!("{prefix}_spins_mean"), batch.mean_spins())
            .f64(&format!("{prefix}_completion"), batch.completion_rate())
    }

    /// Closes the row.
    pub fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

/// The checked-in `results/` directory at the repository root.
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Writes a bench binary's machine-readable twin, `results/<name>.json`
/// (one flat JSON object per line), and reports where it went on stdout.
/// Bench binaries are human-driven reproduction tools, so I/O failures
/// panic rather than propagate.
pub fn write_results_json(name: &str, rows: &[String]) {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    let path = dir.join(format!("{name}.json"));
    let mut body = rows.join("\n");
    body.push('\n');
    std::fs::write(&path, body).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    let shown = path.canonicalize().unwrap_or(path);
    // stderr, so `bin > results/<name>.txt` sample captures stay clean.
    eprintln!("results twin written to {}", shown.display());
}

impl PhaseRecorder {
    /// The recorder's phases as `results/*.json` rows: one `bench_phase`
    /// row per closed phase plus one `bench_total` row over everything the
    /// sink counted.
    pub fn results_rows(&self, bench: &str) -> Vec<String> {
        let mut rows: Vec<String> = self
            .phases
            .iter()
            .map(|(label, snapshot)| {
                JsonRow::new("bench_phase", bench)
                    .str("phase", label)
                    .counters(snapshot)
                    .finish()
            })
            .collect();
        rows.push(
            JsonRow::new("bench_total", bench)
                .counters(&self.sink.snapshot())
                .finish(),
        );
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_rows_are_flat_and_escaped() {
        let row = JsonRow::new("bench_phase", "demo")
            .str("phase", "a\"b\\c")
            .str("note", "two\nlines")
            .u64("ops", 7)
            .f64("ratio", 1.5)
            .f64("bad", f64::NAN)
            .bool("ok", true)
            .finish();
        assert_eq!(
            row,
            "{\"t\":\"bench_phase\",\"bench\":\"demo\",\"phase\":\"a\\\"b\\\\c\",\
             \"note\":\"two\\nlines\",\"ops\":7,\"ratio\":1.5,\"bad\":null,\"ok\":true}"
        );
        // The twin files parse with the trace tooling.
        assert!(adpm_observe::parse_trace(&row).is_ok());
    }

    #[test]
    fn recorder_rows_cover_phases_and_total() {
        let mut recorder = PhaseRecorder::new();
        recorder.sink().incr(Counter::Operations, 3);
        recorder.mark("warmup");
        let rows = recorder.results_rows("demo");
        assert_eq!(rows.len(), 2);
        assert!(rows[0].contains("\"phase\":\"warmup\""));
        assert!(rows[0].contains("\"operations\":3"));
        assert!(rows[1].contains("\"t\":\"bench_total\""));
        let joined = rows.join("\n");
        assert!(adpm_observe::parse_trace(&joined).is_ok());
    }
}
