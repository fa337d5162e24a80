//! The TeamSim simulation engine.
//!
//! One [`Simulation`] owns a fresh design-process manager built from a
//! compiled scenario, one [`SimulatedDesigner`] per team member, and a
//! seeded RNG. Designers take turns proposing operations (ties and order
//! randomized, as "designers start requesting operations independently");
//! the run ends when the termination condition of the paper's §3.1.2 holds
//! — top-level problem solved, all outputs valued, no violations — or when
//! the operation cap censors the run.

use crate::config::SimulationConfig;
use crate::designer::SimulatedDesigner;
use crate::stats::{OperationStat, RunStats};
use adpm_core::DesignProcessManager;
use adpm_dddl::CompiledScenario;
use adpm_observe::{Clock, Counter, MetricsSink, MonotonicClock, NoopSink, SpanKind, TraceEvent};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::sync::Arc;

/// Outcome of one engine step.
#[derive(Debug, Clone, PartialEq)]
pub enum StepOutcome {
    /// A designer executed an operation.
    Executed(OperationStat),
    /// No designer had anything to do, but the design is incomplete —
    /// the run is stuck (this is reported as an incomplete run).
    Stalled,
    /// The termination condition holds.
    Complete,
}

/// A running TeamSim simulation.
#[derive(Debug)]
pub struct Simulation {
    dpm: DesignProcessManager,
    designers: Vec<SimulatedDesigner>,
    rng: StdRng,
    config: SimulationConfig,
    stats: Vec<OperationStat>,
    setup_evaluations: usize,
    cursor: usize,
    sink: Arc<dyn MetricsSink>,
    clock: Arc<dyn Clock>,
    ticks: u64,
}

impl Simulation {
    /// Builds a simulation over a fresh DPM for the scenario.
    pub fn new(scenario: &CompiledScenario, config: SimulationConfig) -> Self {
        Self::with_sink(scenario, config, Arc::new(NoopSink))
    }

    /// [`new`](Self::new), routing all instrumentation — per-tick spans
    /// here, per-operation and per-propagation spans in the layers below —
    /// to `sink`. The sink is installed before the DPM's setup propagation
    /// so a trace covers the whole run, opening with a `run_start` line.
    /// Spans are timed against the wall clock; see
    /// [`with_instrumentation`](Self::with_instrumentation) to inject one.
    pub fn with_sink(
        scenario: &CompiledScenario,
        config: SimulationConfig,
        sink: Arc<dyn MetricsSink>,
    ) -> Self {
        Self::with_instrumentation(scenario, config, sink, Arc::new(MonotonicClock))
    }

    /// [`with_sink`](Self::with_sink) with an explicit [`Clock`] for span
    /// durations. The default wall clock reports real `dur_us`; injecting a
    /// [`ManualClock`](adpm_observe::ManualClock) makes every duration a
    /// deterministic function of the execution path, so traces of the same
    /// seed are byte-identical (golden traces). The clock is threaded down
    /// through the DPM into constraint propagation and only read when the
    /// sink is enabled.
    pub fn with_instrumentation(
        scenario: &CompiledScenario,
        config: SimulationConfig,
        sink: Arc<dyn MetricsSink>,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let mut dpm = scenario.build_dpm(config.dpm_config());
        dpm.set_sink(sink.clone());
        dpm.set_clock(clock.clone());
        if sink.is_enabled() {
            sink.record(&TraceEvent::RunStart {
                mode: config.mode.as_str(),
                seed: config.seed,
                designers: dpm.designers().len() as u32,
                properties: dpm.network().property_count() as u32,
                constraints: dpm.network().constraint_count() as u32,
            });
        }
        let setup_evaluations = dpm.initialize();
        let designers = dpm
            .designers()
            .iter()
            .map(|d| SimulatedDesigner::new(*d))
            .collect();
        let rng = StdRng::seed_from_u64(config.seed);
        Simulation {
            dpm,
            designers,
            rng,
            config,
            stats: Vec::new(),
            setup_evaluations,
            cursor: 0,
            sink,
            clock,
            ticks: 0,
        }
    }

    /// The underlying design-process manager (for inspection/reporting).
    pub fn dpm(&self) -> &DesignProcessManager {
        &self.dpm
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// Operations executed so far.
    pub fn operations(&self) -> usize {
        self.stats.len()
    }

    /// Per-operation statistics captured so far.
    pub fn stats(&self) -> &[OperationStat] {
        &self.stats
    }

    /// Advances the simulation by (at most) one executed operation.
    ///
    /// Designers are polled round-robin starting from a rotating cursor;
    /// the first proposal is executed. `Stalled` means a full round of
    /// polling produced no proposal while the design is incomplete.
    pub fn step(&mut self) -> StepOutcome {
        let trace = self.sink.is_enabled();
        let started = if trace { self.clock.now_us() } else { 0 };
        let outcome = self.step_inner();
        let tick = self.ticks;
        self.ticks += 1;
        match outcome {
            StepOutcome::Executed(_) => self.sink.incr(Counter::TicksExecuted, 1),
            StepOutcome::Stalled => self.sink.incr(Counter::TicksStalled, 1),
            StepOutcome::Complete => {}
        }
        if trace {
            let (designer, label) = match &outcome {
                StepOutcome::Executed(stat) => (stat.designer, "executed"),
                StepOutcome::Stalled => (u32::MAX, "stalled"),
                StepOutcome::Complete => (u32::MAX, "complete"),
            };
            let dur_us = self.clock.now_us().saturating_sub(started);
            self.sink.record(&TraceEvent::Tick {
                tick,
                designer,
                outcome: label,
                dur_us,
            });
            self.sink.time(SpanKind::Tick, dur_us);
        }
        outcome
    }

    fn step_inner(&mut self) -> StepOutcome {
        if self.dpm.design_complete() {
            return StepOutcome::Complete;
        }
        let n = self.designers.len();
        if n == 0 {
            return StepOutcome::Stalled;
        }
        // Rotate the starting designer; occasionally jump randomly so that
        // interleavings vary across seeds like independent designers would.
        if self.rng.gen_bool(0.3) {
            self.cursor = self.rng.gen_range(0..n);
        }
        for offset in 0..n {
            let idx = (self.cursor + offset) % n;
            let proposal = {
                let designer = &mut self.designers[idx];
                designer.choose(&self.dpm, &self.config, &mut self.rng)
            };
            if let Some(operation) = proposal {
                self.cursor = (idx + 1) % n;
                match self.dpm.execute(operation) {
                    Ok(record) => {
                        self.designers[idx].observe(&record);
                        let stat = OperationStat::from_record(&record);
                        self.stats.push(stat.clone());
                        return StepOutcome::Executed(stat);
                    }
                    Err(_) => {
                        // An invalid proposal (e.g. value outside E_i due to
                        // numeric noise) is skipped; the designer will
                        // propose again next round.
                        continue;
                    }
                }
            }
        }
        if self.dpm.design_complete() {
            StepOutcome::Complete
        } else {
            StepOutcome::Stalled
        }
    }

    /// Runs to termination (or the operation cap) and returns the captured
    /// statistics.
    pub fn run(&mut self) -> RunStats {
        let mut stalled = false;
        while self.stats.len() < self.config.max_operations {
            match self.step() {
                StepOutcome::Executed(_) => {}
                StepOutcome::Complete => break,
                StepOutcome::Stalled => {
                    stalled = true;
                    break;
                }
            }
        }
        let completed = self.dpm.design_complete() && !stalled;
        let stats = RunStats {
            completed,
            operations: self.stats.len(),
            evaluations: self.dpm.total_evaluations(),
            setup_evaluations: self.setup_evaluations,
            spins: self.dpm.spins(),
            per_operation: self.stats.clone(),
        };
        if self.sink.is_enabled() {
            self.sink.record(&TraceEvent::RunSummary {
                operations: stats.operations as u64,
                evaluations: stats.evaluations as u64,
                spins: stats.spins as u64,
                violations: stats.total_violations_found() as u64,
                completed: stats.completed,
            });
        }
        stats
    }
}

/// Convenience: build and run one simulation.
pub fn run_once(scenario: &CompiledScenario, config: SimulationConfig) -> RunStats {
    Simulation::new(scenario, config).run()
}

/// Convenience: build and run one instrumented simulation. Everything the
/// run does — setup propagation, every tick, operation, and propagation
/// wave — reports to `sink`; see [`Simulation::with_sink`].
pub fn run_once_with_sink(
    scenario: &CompiledScenario,
    config: SimulationConfig,
    sink: Arc<dyn MetricsSink>,
) -> RunStats {
    Simulation::with_sink(scenario, config, sink).run()
}

/// Convenience: build and run one instrumented simulation against an
/// explicit clock (deterministic `dur_us` under a
/// [`ManualClock`](adpm_observe::ManualClock)); see
/// [`Simulation::with_instrumentation`].
pub fn run_once_instrumented(
    scenario: &CompiledScenario,
    config: SimulationConfig,
    sink: Arc<dyn MetricsSink>,
    clock: Arc<dyn Clock>,
) -> RunStats {
    Simulation::with_instrumentation(scenario, config, sink, clock).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Batch;
    use adpm_core::ManagementMode;
    use adpm_scenarios::{lna_walkthrough, sensing_system};

    #[test]
    fn adpm_walkthrough_completes() {
        let scenario = lna_walkthrough();
        let stats = run_once(&scenario, SimulationConfig::adpm(7));
        assert!(stats.completed, "ops = {}", stats.operations);
        assert!(stats.operations > 0);
        assert!(
            stats.evaluations > stats.operations,
            "ADPM propagates per op"
        );
    }

    #[test]
    fn conventional_walkthrough_completes() {
        let scenario = lna_walkthrough();
        let stats = run_once(&scenario, SimulationConfig::conventional(7));
        assert!(stats.completed, "ops = {}", stats.operations);
        // Conventional runs include explicit verification operations.
        assert!(stats.per_operation.iter().any(|s| s.kind == "verify"));
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let scenario = lna_walkthrough();
        let a = run_once(&scenario, SimulationConfig::adpm(3));
        let b = run_once(&scenario, SimulationConfig::adpm(3));
        assert_eq!(a, b);
        let c = run_once(&scenario, SimulationConfig::adpm(4));
        // A different seed virtually always yields a different trace.
        assert!(a.operations != c.operations || a.evaluations != c.evaluations || a == c);
    }

    #[test]
    fn sensing_system_completes_in_both_modes() {
        let scenario = sensing_system();
        for (mode, seed) in [
            (ManagementMode::Adpm, 11),
            (ManagementMode::Conventional, 11),
        ] {
            let stats = run_once(&scenario, SimulationConfig::for_mode(mode, seed));
            assert!(
                stats.completed,
                "{mode:?} run censored at {} ops",
                stats.operations
            );
        }
    }

    #[test]
    fn adpm_uses_fewer_operations_on_average() {
        // A small version of the paper's headline result, over a handful of
        // seeds to keep unit-test time low (the bench harness does 60+).
        let scenario = sensing_system();
        let mut adpm = Batch::new();
        let mut conv = Batch::new();
        for seed in 0..6 {
            adpm.push(run_once(&scenario, SimulationConfig::adpm(seed)));
            conv.push(run_once(&scenario, SimulationConfig::conventional(seed)));
        }
        assert!(adpm.completion_rate() > 0.99);
        assert!(conv.completion_rate() > 0.5);
        assert!(
            conv.operations().mean > adpm.operations().mean,
            "conventional {} <= adpm {}",
            conv.operations().mean,
            adpm.operations().mean
        );
    }

    #[test]
    fn unassigned_work_stalls_cleanly() {
        // The only problem with outputs has no designer: nobody can act, so
        // the engine must report a stall (incomplete run), not loop.
        let scenario = adpm_dddl::compile_source(
            r#"
            object o { property x : interval(0, 1); }
            problem orphan { outputs: o.x; }
            problem busywork { designer 0; }
            "#,
        )
        .expect("valid DDDL");
        let mut sim = Simulation::new(&scenario, SimulationConfig::adpm(1));
        let stats = sim.run();
        assert!(!stats.completed);
        assert_eq!(stats.operations, 0);
        assert_eq!(sim.step(), StepOutcome::Stalled);
    }

    #[test]
    fn operation_cap_censors_runs() {
        let scenario = sensing_system();
        let mut config = SimulationConfig::conventional(0);
        config.max_operations = 1;
        let stats = run_once(&scenario, config);
        assert!(!stats.completed);
        assert_eq!(stats.operations, 1);
    }

    #[test]
    fn step_reports_complete_after_termination() {
        let scenario = lna_walkthrough();
        let mut sim = Simulation::new(&scenario, SimulationConfig::adpm(5));
        let _ = sim.run();
        assert_eq!(sim.step(), StepOutcome::Complete);
    }

    #[test]
    fn instrumented_run_reconciles_with_run_stats() {
        use adpm_observe::{Counter, InMemorySink};
        use std::sync::Arc;

        let scenario = lna_walkthrough();
        let sink = Arc::new(InMemorySink::new());
        let stats = run_once_with_sink(&scenario, SimulationConfig::adpm(7), sink.clone());
        assert!(stats.completed);
        assert_eq!(sink.get(Counter::Operations), stats.operations as u64);
        assert_eq!(sink.get(Counter::Evaluations), stats.evaluations as u64);
        assert_eq!(sink.get(Counter::Spins), stats.spins as u64);
        assert_eq!(sink.get(Counter::TicksExecuted), stats.operations as u64);
        // ADPM propagates at setup and after every operation.
        assert_eq!(sink.get(Counter::Propagations), stats.operations as u64 + 1);
        assert!(sink.get(Counter::Waves) >= sink.get(Counter::Propagations));

        // The sink does not perturb the simulation itself.
        let untraced = run_once(&scenario, SimulationConfig::adpm(7));
        assert_eq!(stats, untraced);
    }

    #[test]
    fn traced_run_opens_with_run_start_and_closes_with_summary() {
        use adpm_observe::{parse_trace, JsonlSink};
        use std::io::Write;
        use std::sync::{Arc, Mutex};

        #[derive(Clone, Default)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl Write for Buf {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let scenario = lna_walkthrough();
        let buf = Buf::default();
        let sink = Arc::new(JsonlSink::new(Box::new(buf.clone())));
        let stats = run_once_with_sink(&scenario, SimulationConfig::adpm(7), sink.clone());
        sink.finish().unwrap();

        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines = parse_trace(&text).unwrap();
        assert_eq!(lines.first().map(|l| l.tag()), Some("run_start"));
        assert_eq!(lines.first().unwrap().str_field("mode"), Some("adpm"));
        let summary = lines.iter().rev().find(|l| l.tag() == "summary").unwrap();
        assert_eq!(
            summary.u64_field("operations"),
            Some(stats.operations as u64)
        );
        assert_eq!(summary.bool_field("completed"), Some(true));
        assert_eq!(lines.last().map(|l| l.tag()), Some("counters"));
        let ops = lines.iter().filter(|l| l.tag() == "op").count();
        assert_eq!(ops, stats.operations);
        let ticks = lines.iter().filter(|l| l.tag() == "tick").count();
        assert!(ticks >= ops);
    }
}
