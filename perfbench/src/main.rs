//! The ADPM benchmark: seeded workloads against the program's public APIs.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `collab-sensing-durable`, `collab-large-net`, `teamsim-batch`
//! (see `perfbench/README.md`). Every run checks the program's outputs and
//! exits non-zero when a check fails. The report lines name each metric
//! with its unit and sample count; the last line of standard output is one
//! JSON object carrying the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of the nested replay (`--trace 1`).

mod collab;
mod gen;
mod layers;
mod report;
mod stats;
mod teamsim;
mod trace;

use crate::layers::{median_us, ConstraintCounts};
use crate::stats::Dist;
use crate::trace::Tracer;
use adpm_core::DpmConfig;
use adpm_dddl::CompiledScenario;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// End-to-end metrics every workload reports with `--trace 0`.
const E2E_METRICS: [&str; 3] = ["setup_s", "op_p50_us", "rss_peak_mb"];

/// Per-layer metrics every workload reports with `--trace 1`.
const LAYER_METRICS: [&str; 13] = [
    "dddl.parse_us",
    "dddl.compile_us",
    "constraint.propagate_p50_us",
    "constraint.propagate_p99_us",
    "constraint.evals_per_op",
    "constraint.waves_per_op",
    "constraint.narrow_ratio",
    "constraint.mine_us",
    "core.execute_p50_us",
    "core.self_us",
    "core.events_per_op",
    "core.initialize_us",
    "observe.trace_overhead_pct",
];

/// Where runs keep scratch files and span dumps, under the working
/// directory.
const WORK_DIR: &str = ".perfbench";

/// Repetitions of the micro-timed set-up steps (parse, compile, initialize).
const MICRO_REPS: usize = 21;

/// The machine-readable result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Operations (collab) or runs (teamsim) attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// An outcome with no metrics yet.
    pub fn new(attempted: u64, failed: u64) -> Self {
        Outcome {
            attempted,
            failed,
            metrics: Vec::new(),
        }
    }

    /// Records and prints a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, n: usize) {
        report::value(name, value, unit, n);
        self.metrics.push((name, value, unit));
    }

    fn json(&self, correct: bool) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident memory of this process, MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `dddl.parse_us` and `dddl.compile_us`: medians over the scenario texts,
/// summed across texts.
pub fn dddl_metrics(outcome: &mut Outcome, texts: &[&str]) {
    let (mut parse, mut compile) = (0.0, 0.0);
    for text in texts {
        parse += median_us(MICRO_REPS, || {
            adpm_dddl::parse(text).expect("scenario parses")
        });
        let ast = adpm_dddl::parse(text).expect("scenario parses");
        let mut asts: Vec<_> = (0..MICRO_REPS).map(|_| ast.clone()).collect();
        compile += median_us(MICRO_REPS, || {
            adpm_dddl::compile(asts.pop().expect("one ast per rep")).expect("scenario compiles")
        });
    }
    outcome.metric("dddl.parse_us", parse, "us", MICRO_REPS);
    outcome.metric("dddl.compile_us", compile, "us", MICRO_REPS);
}

/// Median `DesignProcessManager::initialize` time of `scenario`, µs.
pub fn initialize_us(scenario: &CompiledScenario, config: &DpmConfig) -> f64 {
    let mut dpms: Vec<_> = (0..MICRO_REPS)
        .map(|_| scenario.build_dpm(config.clone()))
        .collect();
    median_us(MICRO_REPS, || {
        dpms.pop().expect("one dpm per rep").initialize()
    })
}

/// The constraint layer's metrics from the constraint pass.
pub fn constraint_metrics(outcome: &mut Outcome, tracer: &Tracer, counts: &ConstraintCounts) {
    let propagate = Dist::new(tracer.durations_us("constraint.propagate"));
    let mine = Dist::new(tracer.durations_us("constraint.mine"));
    let n = propagate.n();
    let ops = counts.ops.max(1) as f64;
    outcome.metric(
        "constraint.propagate_p50_us",
        propagate.p50().unwrap_or(f64::NAN),
        "us",
        n,
    );
    outcome.metric(
        "constraint.propagate_p99_us",
        propagate.p99().unwrap_or(f64::NAN),
        "us",
        n,
    );
    outcome.metric(
        "constraint.evals_per_op",
        counts.evaluations as f64 / ops,
        "1/op",
        n,
    );
    outcome.metric(
        "constraint.waves_per_op",
        counts.waves as f64 / ops,
        "1/op",
        n,
    );
    outcome.metric(
        "constraint.narrow_ratio",
        counts.narrowings as f64 / counts.evaluations.max(1) as f64,
        "ratio",
        n,
    );
    outcome.metric(
        "constraint.mine_us",
        mine.mean().unwrap_or(f64::NAN),
        "us",
        mine.n(),
    );
}

/// The core layer's metrics from the core pass.
pub fn core_metrics(outcome: &mut Outcome, tracer: &Tracer, events_per_op: f64, init_us: f64) {
    let execute = Dist::new(tracer.durations_us("core.execute"));
    let n = execute.n();
    outcome.metric(
        "core.execute_p50_us",
        execute.p50().unwrap_or(f64::NAN),
        "us",
        n,
    );
    outcome.metric("core.self_us", tracer.mean_self_us("core.execute"), "us", n);
    outcome.metric("core.events_per_op", events_per_op, "1/op", n);
    outcome.metric("core.initialize_us", init_us, "us", MICRO_REPS);
}

/// Prints the mean end-to-end time of a path split into layer self times.
///
/// The parts add up to the total by construction: each self time is a span
/// minus its linked children. What can go wrong is a negative self time, a
/// child replayed slower than its live parent, so that is what is checked.
///
/// # Errors
///
/// A message when the negative self times exceed `bound` of the total.
pub fn breakdown(
    path: &str,
    total_us: f64,
    parts: &[(&str, f64)],
    bound: f64,
) -> Result<(), String> {
    report::line(format!("breakdown of the mean {path}: {total_us:.1} us"));
    for (name, value) in parts {
        report::line(format!(
            "  {name:<22} {value:>10.1} us  {:>5.1}%",
            value / total_us * 100.0
        ));
    }
    let negative: f64 = parts.iter().map(|(_, v)| (-v).max(0.0)).sum();
    let share = negative / total_us;
    report::line(format!(
        "  negative self time {negative:.1} us, {:.1}% (bound {:.0}%)",
        share * 100.0,
        bound * 100.0
    ));
    if share > bound {
        return Err(format!(
            "{path}: negative layer self times are {:.1}% of the total",
            share * 100.0
        ));
    }
    Ok(())
}

/// Checks a replayed layer against the same layer as the program timed it
/// in place during the live run, which the replay does not influence. The
/// live figure runs beside the client threads and with the trace events
/// of its sink, so it reads higher; a replay of the wrong operations or
/// configuration is off by more than `factor` either way.
///
/// # Errors
///
/// A message when the replayed mean is more than `factor` times the live
/// mean or less than its `1 / factor`.
pub fn in_situ(layer: &str, replay_us: f64, live_us: f64, factor: f64) -> Result<(), String> {
    let ratio = replay_us / live_us;
    report::line(format!(
        "in-situ check of {layer}: replayed mean {replay_us:.1} us, live mean {live_us:.1} us, \
         ratio {ratio:.2} (bound {:.2} to {factor:.2})",
        1.0 / factor
    ));
    if !(1.0 / factor..=factor).contains(&ratio) {
        return Err(format!(
            "{layer}: replayed mean is {ratio:.2} times the live mean"
        ));
    }
    Ok(())
}

/// Writes the run's spans to the work directory.
///
/// # Errors
///
/// A message when the file cannot be written.
pub fn write_spans(tracer: &Tracer, workload: &str, seed: u64) -> Result<(), String> {
    let path = Path::new(WORK_DIR).join(format!("spans-{workload}-seed{seed}.jsonl"));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    report::line(format!("spans written to {}", path.display()));
    Ok(())
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "collab-sensing-durable" => collab::run(
            &collab::SENSING_DURABLE,
            args.seed,
            args.seconds,
            args.trace,
            dir,
        ),
        "collab-large-net" => collab::run(
            &collab::LARGE_NET_SPEC,
            args.seed,
            args.seconds,
            args.trace,
            dir,
        ),
        teamsim::NAME => teamsim::run(args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir: PathBuf = Path::new(WORK_DIR).join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let result = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let expected: &[&str] = if args.trace {
        &LAYER_METRICS
    } else {
        &E2E_METRICS
    };
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
    let correct =
        names == expected && outcome.metrics.iter().all(|m| m.1.is_finite()) && outcome.failed == 0;
    println!("{}", outcome.json(correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: metrics {names:?} (expected {expected:?}) or failures");
        ExitCode::FAILURE
    }
}
