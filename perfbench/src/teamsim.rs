//! The teamsim-batch workload: TeamSim runs both builtins in both λ modes
//! over a seed range derived from the benchmark seed (the Fig. 9 workload),
//! offline and single-threaded.

use crate::layers::{constraint_pass, core_pass, ReplayOp};
use crate::stats::{median, Dist};
use crate::trace::Tracer;
use crate::{report, Outcome};
use adpm_core::{replay_history, ManagementMode};
use adpm_dddl::CompiledScenario;
use adpm_observe::{Counter, InMemorySink, MetricsSink, SpanKind};
use adpm_teamsim::{Simulation, SimulationConfig, StepOutcome};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload name.
pub const NAME: &str = "teamsim-batch";
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;
/// Spacing of the seed ranges of neighbouring benchmark seeds.
const SEED_STRIDE: u64 = 1_000_003;
/// Bound on the negative self times along a step, as a share of the mean
/// step.
const RECONCILE_BOUND: f64 = 0.25;
/// Replayed and live mean `core.execute` agree within this factor.
const IN_SITU_FACTOR: f64 = 2.0;
/// ADPM steps whose duration is kept for `op_p50_us`.
const STEP_SAMPLES: usize = 100_000;
/// Executed operations the traced run replays layer by layer.
const REPLAY_OPS: usize = 40_000;
const MODES: [ManagementMode; 2] = [ManagementMode::Adpm, ManagementMode::Conventional];

struct Builtin {
    name: &'static str,
    text: String,
    scenario: CompiledScenario,
}

fn builtin_texts() -> [(&'static str, String); 2] {
    [
        ("sensing", adpm_scenarios::SENSING_DDDL.to_owned()),
        (
            "receiver",
            adpm_scenarios::receiver_dddl(adpm_scenarios::DEFAULT_GAIN_REQUIREMENT),
        ),
    ]
}

/// Compiles both builtins and builds and initializes a DPM per mode.
fn setup() -> Result<(Vec<Builtin>, f64), String> {
    let started = Instant::now();
    let mut builtins = Vec::new();
    for (name, text) in builtin_texts() {
        let scenario = adpm_dddl::compile_source(&text).map_err(|e| e.to_string())?;
        for mode in MODES {
            let mut dpm = scenario.build_dpm(SimulationConfig::for_mode(mode, 0).dpm_config());
            dpm.initialize();
            std::hint::black_box(&dpm);
        }
        builtins.push(Builtin {
            name,
            text,
            scenario,
        });
    }
    Ok((builtins, started.elapsed().as_secs_f64()))
}

/// One finished simulation and the span of each of its executed steps.
struct Run {
    builtin: usize,
    config: SimulationConfig,
    sim: Simulation,
    ticks: u64,
    step_spans: Vec<Option<usize>>,
    /// The traced run's in-memory sink.
    sink: Option<Arc<InMemorySink>>,
}

/// What a batch did.
#[derive(Default)]
struct Batch {
    /// µs per ADPM step that executed an operation, the first
    /// `STEP_SAMPLES` of them, so the benchmark's own memory does not grow
    /// with the program's speed.
    adpm_step_us: Vec<f64>,
    /// Executed operations, by mode.
    executed: [u64; 2],
    /// Time spent building and stepping simulations, s.
    busy_s: f64,
    runs: u64,
    incomplete: u64,
    /// Operations per run, by builtin and mode.
    ops: [[Vec<f64>; 2]; 2],
    /// Runs whose history did not replay to its evaluation total.
    unfaithful: u64,
    /// Runs kept, with their step spans, for the nested replay.
    finished: Vec<Run>,
    /// Operations in the kept runs.
    kept_ops: usize,
}

impl Batch {
    /// Executed operations in both modes.
    fn ops(&self) -> f64 {
        (self.executed[0] + self.executed[1]) as f64
    }
}

/// Runs seed groups (each builtin × each mode) until `run_for` has
/// passed, the checks of each run included. With a tracer, every run gets an
/// in-memory metrics sink, and the first runs, up to `REPLAY_OPS`
/// operations, are kept with a span per step for the nested replay. Every
/// other run's history is replayed untimed right away and checked against
/// its evaluation total.
fn batch(
    builtins: &[Builtin],
    seed: u64,
    run_for: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Batch {
    let mut out = Batch::default();
    let mut k = 0u64;
    let until = Instant::now() + run_for;
    while Instant::now() < until {
        let sim_seed = seed.wrapping_mul(SEED_STRIDE).wrapping_add(k);
        k += 1;
        for (b, builtin) in builtins.iter().enumerate() {
            for (m, mode) in MODES.into_iter().enumerate() {
                let config = SimulationConfig::for_mode(mode, sim_seed);
                let started = Instant::now();
                let sink = tracer.is_some().then(|| Arc::new(InMemorySink::new()));
                let mut sim = match &sink {
                    Some(sink) => Simulation::with_sink(
                        &builtin.scenario,
                        config.clone(),
                        sink.clone() as Arc<dyn MetricsSink>,
                    ),
                    None => Simulation::new(&builtin.scenario, config.clone()),
                };
                let kept = tracer.is_some() && out.kept_ops < REPLAY_OPS;
                let mut ticks = 0u64;
                let mut step_spans = Vec::new();
                while sim.operations() < config.max_operations {
                    let t0 = Instant::now();
                    let outcome = sim.step();
                    let t1 = Instant::now();
                    ticks += 1;
                    match outcome {
                        StepOutcome::Executed(_) => {
                            out.executed[m] += 1;
                            if m == 0 && out.adpm_step_us.len() < STEP_SAMPLES {
                                out.adpm_step_us
                                    .push(t1.duration_since(t0).as_secs_f64() * 1e6);
                            }
                            if let Some(tracer) = tracer.as_deref_mut().filter(|_| kept) {
                                let seq = sim.operations() as u64;
                                step_spans.push(Some(tracer.record(
                                    "teamsim.step",
                                    t0,
                                    t1,
                                    None,
                                    seq,
                                )));
                            }
                        }
                        StepOutcome::Complete | StepOutcome::Stalled => break,
                    }
                }
                out.busy_s += started.elapsed().as_secs_f64();
                out.runs += 1;
                if !sim.dpm().design_complete() {
                    out.incomplete += 1;
                }
                out.ops[b][m].push(sim.operations() as f64);
                let run = Run {
                    builtin: b,
                    config,
                    sim,
                    ticks,
                    step_spans,
                    sink,
                };
                if kept {
                    out.kept_ops += run.sim.operations();
                    out.finished.push(run);
                } else if !replays_faithfully(builtins, &run) {
                    out.unfaithful += 1;
                }
            }
        }
    }
    out
}

/// Whether the run's history, replayed on a fresh DPM, reaches the run's
/// evaluation total.
fn replays_faithfully(builtins: &[Builtin], run: &Run) -> bool {
    let mut fresh = builtins[run.builtin]
        .scenario
        .build_dpm(run.config.dpm_config());
    fresh.initialize();
    replay_history(run.sim.dpm().history(), &mut fresh).is_ok()
        && fresh.total_evaluations() == run.sim.dpm().total_evaluations()
}

/// Paper-shape check: conventional mean operations at least twice ADPM's
/// on each builtin.
fn check_shape(builtins: &[Builtin], batch: &Batch) -> Result<(), String> {
    for (b, builtin) in builtins.iter().enumerate() {
        let adpm = Dist::new(batch.ops[b][0].clone()).mean().unwrap_or(0.0);
        let conv = Dist::new(batch.ops[b][1].clone()).mean().unwrap_or(0.0);
        report::line(format!(
            "{}: mean ops conventional {conv:.1} vs adpm {adpm:.1} over {} seeds, ratio {:.2}x",
            builtin.name,
            batch.ops[b][0].len(),
            conv / adpm
        ));
        if conv < 2.0 * adpm {
            return Err(format!(
                "{}: conventional/adpm ops ratio below 2",
                builtin.name
            ));
        }
    }
    Ok(())
}

/// Runs the teamsim-batch workload.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    report::line(format!(
        "workload {NAME}: offline, single-threaded, sensing + receiver builtins x adpm + conventional"
    ));
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut builtins = Vec::new();
    for _ in 0..SETUP_REPS {
        let (b, secs) = setup()?;
        times.push(secs);
        builtins = b;
    }
    let setup_s = median(&times).expect("set-up times");
    let run_for = Duration::from_secs_f64(if traced { seconds / 2.0 } else { seconds });
    let untraced = batch(&builtins, seed, run_for, None);
    let ops = untraced.ops();
    let ops_per_s = ops / untraced.busy_s;
    report::line(format!(
        "runs {} ({} incomplete, {} unfaithful replays), {} ops",
        untraced.runs, untraced.incomplete, untraced.unfaithful, ops
    ));
    check_shape(&builtins, &untraced)?;
    if untraced.unfaithful > 0 {
        return Err(format!(
            "{} histories did not replay faithfully",
            untraced.unfaithful
        ));
    }
    let mut outcome = Outcome::new(untraced.runs, untraced.incomplete);
    let adpm_steps = Dist::new(untraced.adpm_step_us);
    report::dist("step (adpm)", &adpm_steps, "us");
    report::value("sim_ops_per_s", ops_per_s, "ops/s", ops as usize);
    if !traced {
        outcome.metric("setup_s", setup_s, "s", SETUP_REPS);
        outcome.metric(
            "op_p50_us",
            adpm_steps.p50().unwrap_or(f64::NAN),
            "us",
            adpm_steps.n(),
        );
        outcome.metric("rss_peak_mb", crate::rss_peak_mb(), "MiB", 1);
        return Ok(outcome);
    }

    let mut tracer = Tracer::new(Instant::now());
    let traced_batch = batch(&builtins, seed, run_for, Some(&mut tracer));
    outcome.attempted += traced_batch.runs;
    outcome.failed += traced_batch.incomplete;
    let traced_ops_per_s = traced_batch.ops() / traced_batch.busy_s;
    let (mut events, mut ops_total, mut ticks) = (0u64, 0u64, 0u64);
    let mut counts = crate::layers::ConstraintCounts::default();
    let (mut live_us, mut live_n) = (0u64, 0u64);
    for run in &traced_batch.finished {
        if let Some(sink) = &run.sink {
            let execute = sink.histogram(SpanKind::Operation);
            live_us += execute.sum();
            live_n += execute.count();
        }
        let history = run.sim.dpm().history();
        let ops: Vec<ReplayOp> = history
            .iter()
            .map(|r| ReplayOp {
                seq: r.sequence as u64,
                cid: 0,
                operation: r.operation.clone(),
            })
            .collect();
        let mut fresh = builtins[run.builtin]
            .scenario
            .build_dpm(run.config.dpm_config());
        fresh.initialize();
        let core = core_pass(&fresh, &ops, &run.step_spans, None, &mut tracer)?;
        if core.dpm.total_evaluations() != run.sim.dpm().total_evaluations() {
            return Err("a traced run's history did not replay to its evaluation total".into());
        }
        events += core.counts.get(Counter::Notifications);
        ops_total += ops.len() as u64;
        ticks += run.ticks;
        if run.config.mode == ManagementMode::Adpm {
            let parents: Vec<Option<usize>> = core.spans.iter().copied().map(Some).collect();
            let (_, c) = constraint_pass(
                &fresh,
                &run.config.dpm_config(),
                &ops,
                &parents,
                &mut tracer,
            )?;
            counts.ops += c.ops;
            counts.evaluations += c.evaluations;
            counts.waves += c.waves;
            counts.narrowings += c.narrowings;
        }
    }
    let n_ops = ops_total.max(1) as f64;
    let texts: Vec<&str> = builtins.iter().map(|b| b.text.as_str()).collect();
    crate::dddl_metrics(&mut outcome, &texts);
    crate::constraint_metrics(&mut outcome, &tracer, &counts);
    let adpm = SimulationConfig::for_mode(ManagementMode::Adpm, 0).dpm_config();
    let init_us: f64 = builtins
        .iter()
        .map(|b| crate::initialize_us(&b.scenario, &adpm))
        .sum();
    crate::core_metrics(&mut outcome, &tracer, events as f64 / n_ops, init_us);
    outcome.metric(
        "observe.trace_overhead_pct",
        (ops_per_s - traced_ops_per_s) / ops_per_s * 100.0,
        "%",
        traced_batch.ops() as usize,
    );
    let step = Dist::new(tracer.durations_us("teamsim.step"));
    report::dist("teamsim.step", &step, "us");
    report::value(
        "teamsim.choose_us",
        tracer.mean_self_us("teamsim.step"),
        "us",
        step.n(),
    );
    report::value(
        "teamsim.ticks_per_op",
        ticks as f64 / n_ops,
        "1/op",
        step.n(),
    );
    let tick_mean = tracer.total_us("teamsim.step") / n_ops;
    let parts = [
        (
            "teamsim.choose",
            tracer.self_total_us("teamsim.step").0 / n_ops,
        ),
        ("core.self", tracer.self_total_us("core.execute").0 / n_ops),
        (
            "constraint.propagate",
            tracer.total_us("constraint.propagate") / n_ops,
        ),
        (
            "constraint.mine",
            tracer.total_us("constraint.mine") / n_ops,
        ),
    ];
    crate::in_situ(
        "core.execute",
        Dist::new(tracer.durations_us("core.execute"))
            .mean()
            .unwrap_or(f64::NAN),
        live_us as f64 / live_n.max(1) as f64,
        IN_SITU_FACTOR,
    )?;
    crate::breakdown("teamsim step", tick_mean, &parts, RECONCILE_BOUND)?;
    crate::write_spans(&tracer, NAME, seed)?;
    Ok(outcome)
}
