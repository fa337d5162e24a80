//! `teamsim --concurrent`: simulated designers as real client threads.
//!
//! The sequential TeamSim engine interleaves designers on one thread; this
//! driver gives each [`SimulatedDesigner`] its *own* thread, so the
//! collaboration machinery — the session lock, validation, notification
//! fan-out — is exercised by real concurrency. Every thread runs the same
//! designer loop (wait for the turn, snapshot, choose, submit, report the
//! round); the two entry points differ only in how a proposal is
//! submitted: [`run_concurrent_dpm`] through a shared
//! [`SessionHandle`], [`run_concurrent_remote`] through a
//! [`ResilientClient`] over loopback TCP, names encoded through the
//! session's name table. Determinism comes from two ingredients:
//!
//! - **per-designer RNGs** — each thread seeds its own `StdRng` from
//!   `config.seed` and its index, so a designer's choices depend only on
//!   the design states it observed, never on scheduler noise between
//!   threads' shared-RNG draws; and
//! - **an optional turn barrier** — with `turn_barrier`, designers act
//!   strictly round-robin (one snapshot → choose → submit per turn), which
//!   makes the whole history a deterministic function of the seed and
//!   hence byte-comparable across runs and against sequential replays.
//!
//! Without the barrier, threads free-run: histories vary with scheduling,
//! but every history is still linearized by the session lock, and
//! [`adpm_core::replay_history`] replays it faithfully on a fresh DPM —
//! that invariant is what the linearizability proptest leans on.

use crate::fault::FaultPlan;
use crate::names::NameTable;
use crate::negotiate::NegotiationConfig;
use crate::resilient::{ReconnectConfig, ResilientClient};
use crate::server::{CollabServer, ServerOptions};
use crate::session::{OpOutcome, SessionEngine, SessionHandle, SessionOptions};
use crate::wire::Frame;
use adpm_core::{DesignProcessManager, DesignerId, Operation, OperationRecord};
use adpm_teamsim::{OperationStat, RunStats, SimulatedDesigner, SimulationConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

/// Golden-ratio odd multiplier for decorrelating per-designer seeds.
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Result of a concurrent TeamSim run.
#[derive(Debug)]
pub struct ConcurrentOutcome {
    /// The final design state, recovered from the session on shutdown.
    pub dpm: DesignProcessManager,
    /// Run statistics in the sequential engine's shape, so existing
    /// reporting (`run_csv`, batch summaries) applies unchanged.
    pub stats: RunStats,
}

struct SharedState {
    turn: usize,
    /// Consecutive designer rounds without an executed operation.
    stalls: usize,
    /// Free-running designers waiting in [`Coordinator::idle`].
    idle: usize,
    executed: usize,
    done: bool,
}

/// The turn order and stopping rule every designer thread shares.
struct Coordinator {
    state: Mutex<SharedState>,
    changed: Condvar,
    team: usize,
    turn_barrier: bool,
    stall_limit: usize,
    max_operations: usize,
}

impl Coordinator {
    fn lock(&self) -> std::sync::MutexGuard<'_, SharedState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until designer `seat` may act (always, without the turn
    /// barrier) and returns the operations executed so far; `None` once
    /// the run is over.
    fn wait_turn(&self, seat: usize) -> Option<usize> {
        let mut state = self.lock();
        loop {
            if state.done {
                return None;
            }
            if !self.turn_barrier || state.turn % self.team == seat {
                return Some(state.executed);
            }
            state = self
                .changed
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes one designer round.
    fn end_turn(&self, executed: bool, complete: bool) {
        let mut state = self.lock();
        state.turn += 1;
        if executed {
            state.stalls = 0;
            state.executed += 1;
            if state.executed >= self.max_operations {
                state.done = true;
            }
        } else {
            state.stalls += 1;
            if complete || state.stalls >= self.stall_limit {
                state.done = true;
            }
        }
        self.changed.notify_all();
    }

    /// Without the turn barrier, a designer that had nothing to propose
    /// waits until an operation executes after the `seen`-th, instead of
    /// spinning through the stall window while a busy designer is still
    /// deciding. When every designer waits, none can move the design and
    /// the run ends.
    fn idle(&self, seen: usize) {
        if self.turn_barrier {
            return;
        }
        let mut state = self.lock();
        state.idle += 1;
        if state.idle == self.team {
            state.done = true;
            self.changed.notify_all();
        }
        while !state.done && state.executed == seen {
            state = self
                .changed
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.idle -= 1;
    }

    /// Ends the whole run — when a designer drops out, instead of
    /// deadlocking the barrier on its turn.
    fn finish(&self) {
        self.lock().done = true;
        self.changed.notify_all();
    }
}

/// How designer threads submit their proposals.
#[derive(Clone)]
enum Transport {
    /// Straight into the session, on the designer's thread.
    InProcess,
    /// Over loopback TCP, one [`ResilientClient`] per designer, names
    /// encoded and decoded through the session's table.
    Loopback {
        addr: SocketAddr,
        names: Arc<NameTable>,
    },
}

/// What became of one proposal.
enum Submitted {
    Executed(OperationRecord),
    /// Rejected (a stale snapshot or an infeasible value), or an operator
    /// the wire does not carry: the designer proposed nothing this round.
    Declined,
    /// The session is gone, or retries ran out even across reconnects.
    Lost,
}

/// One designer thread's end of a [`Transport`].
enum Submitter {
    Session(SessionHandle),
    Client(Box<ResilientClient>, Arc<NameTable>),
}

impl Submitter {
    fn connect(
        transport: &Transport,
        session: &SessionHandle,
        seat: usize,
        seed: u64,
    ) -> Option<Self> {
        match transport {
            Transport::InProcess => Some(Submitter::Session(session.clone())),
            Transport::Loopback { addr, names } => {
                let reconnect = ReconnectConfig {
                    max_attempts: 8,
                    base_backoff: Duration::from_millis(10),
                    max_backoff: Duration::from_millis(250),
                    request_timeout: Duration::from_secs(3),
                    seed,
                };
                let client = ResilientClient::connect(*addr, seat as u32, reconnect).ok()?;
                Some(Submitter::Client(Box::new(client), names.clone()))
            }
        }
    }

    fn submit(&mut self, operation: Operation) -> Submitted {
        match self {
            Submitter::Session(handle) => match handle.submit(operation) {
                Err(_) => Submitted::Lost,
                Ok(OpOutcome::Executed(record)) => Submitted::Executed(record),
                Ok(OpOutcome::Rejected(_)) => Submitted::Declined,
            },
            Submitter::Client(client, names) => {
                let Some(op) = names.wire_op(&operation) else {
                    return Submitted::Declined;
                };
                match client.submit(op) {
                    Err(_) => Submitted::Lost,
                    Ok(verdict @ Frame::Executed { .. }) => names
                        .record(operation, &verdict)
                        .map_or(Submitted::Declined, Submitted::Executed),
                    Ok(_) => Submitted::Declined,
                }
            }
        }
    }
}

/// The designer loop: wait for the turn, snapshot, choose, submit, and
/// report the round to the coordinator, until the run ends.
fn designer_loop(
    seat: usize,
    id: DesignerId,
    config: &SimulationConfig,
    coordinator: &Coordinator,
    session: &SessionHandle,
    transport: &Transport,
) {
    let seed = config.seed ^ ((seat as u64 + 1).wrapping_mul(SEED_STRIDE));
    let Some(mut submitter) = Submitter::connect(transport, session, seat, seed) else {
        coordinator.finish();
        return;
    };
    let mut designer = SimulatedDesigner::new(id);
    let mut rng = StdRng::seed_from_u64(seed);
    while let Some(seen) = coordinator.wait_turn(seat) {
        let Ok(snapshot) = session.snapshot() else {
            coordinator.finish();
            return;
        };
        let complete = snapshot.design_complete();
        let proposal = if complete {
            None
        } else {
            designer.choose(&snapshot, config, &mut rng)
        };
        let idle = proposal.is_none();
        let executed = match proposal.map(|operation| submitter.submit(operation)) {
            None | Some(Submitted::Declined) => false,
            Some(Submitted::Executed(record)) => {
                designer.observe(&record);
                true
            }
            Some(Submitted::Lost) => {
                coordinator.finish();
                return;
            }
        };
        coordinator.end_turn(executed, complete);
        if idle {
            coordinator.idle(seen);
        }
    }
}

/// Runs one designer thread per registered designer of the session behind
/// `session` and joins them.
fn drive(
    designers: &[DesignerId],
    config: &SimulationConfig,
    turn_barrier: bool,
    session: &SessionHandle,
    transport: &Transport,
) {
    let team = designers.len().max(1);
    let coordinator = Arc::new(Coordinator {
        state: Mutex::new(SharedState {
            turn: 0,
            stalls: 0,
            idle: 0,
            executed: 0,
            done: false,
        }),
        changed: Condvar::new(),
        team,
        turn_barrier,
        stall_limit: if turn_barrier { team } else { 4 * team },
        max_operations: config.max_operations,
    });
    let threads: Vec<_> = designers
        .iter()
        .enumerate()
        .map(|(seat, &id)| {
            let (coordinator, session, transport) =
                (coordinator.clone(), session.clone(), transport.clone());
            let config = config.clone();
            thread::Builder::new()
                .name(format!("adpm-designer-{seat}"))
                .spawn(move || {
                    designer_loop(seat, id, &config, &coordinator, &session, &transport);
                })
                .expect("spawn designer thread")
        })
        .collect();
    for thread in threads {
        let _ = thread.join();
    }
}

fn outcome(dpm: DesignProcessManager, setup_evaluations: usize) -> ConcurrentOutcome {
    let per_operation: Vec<OperationStat> = dpm
        .history()
        .iter()
        .map(OperationStat::from_record)
        .collect();
    let stats = RunStats {
        completed: dpm.design_complete(),
        operations: dpm.history().len(),
        evaluations: dpm.total_evaluations(),
        setup_evaluations,
        spins: dpm.spins(),
        per_operation,
    };
    ConcurrentOutcome { dpm, stats }
}

/// Runs a concurrent TeamSim session over `dpm` (built but not yet
/// initialized — setup propagation happens here, mirroring the sequential
/// engine) with one thread per registered designer.
///
/// With `turn_barrier`, designers act round-robin and the run is a
/// deterministic function of `config.seed`; without it they free-run.
/// The run ends when the design completes, the operation cap is reached,
/// or a full stall window passes with no executed operation.
///
/// With `negotiation` set, the session engine answers every operation
/// that introduces a violation with a bounded viewpoint negotiation round
/// (see [`negotiate`](crate::negotiate::negotiate)) and applies an
/// accepted relaxation as a normal journaled operation, so designers see
/// the conflict already softened in their next snapshot instead of having
/// to backtrack out of it.
pub fn run_concurrent_dpm(
    mut dpm: DesignProcessManager,
    config: &SimulationConfig,
    turn_barrier: bool,
    negotiation: Option<NegotiationConfig>,
) -> ConcurrentOutcome {
    let setup_evaluations = dpm.initialize();
    let designers = dpm.designers().to_vec();
    let engine = SessionEngine::spawn_with(
        dpm,
        SessionOptions {
            negotiation,
            ..SessionOptions::default()
        },
    );
    drive(
        &designers,
        config,
        turn_barrier,
        &engine.handle(),
        &Transport::InProcess,
    );
    let dpm = engine
        .shutdown()
        .expect("unjournaled: closes only on a panic");
    outcome(dpm, setup_evaluations)
}

/// [`run_concurrent_dpm`] with the submissions routed over real loopback
/// TCP through [`ResilientClient`]s — the chaos-equivalence harness.
///
/// Designer threads snapshot in-process (a read of the authoritative
/// state) but submit over the wire, with `fault_plan` injected into every
/// *server-side* outgoing frame (verdicts, events, pings). Because the
/// turn barrier is always on, the decision sequence is a pure function of
/// `config.seed`: a faulty run must converge to the *same* final design
/// state as a clean one — lost verdicts are resubmitted under the same
/// client operation id and answered from the session's dedup window, never
/// re-executed.
pub fn run_concurrent_remote(
    mut dpm: DesignProcessManager,
    config: &SimulationConfig,
    fault_plan: Option<&FaultPlan>,
) -> ConcurrentOutcome {
    let setup_evaluations = dpm.initialize();
    let designers = dpm.designers().to_vec();
    let options = ServerOptions {
        fault_plan: fault_plan.cloned(),
        ..ServerOptions::default()
    };
    let server = CollabServer::bind_with(dpm, 0, options, SessionOptions::default())
        .expect("bind loopback collaboration server");
    let transport = Transport::Loopback {
        addr: server.local_addr(),
        names: server.names(),
    };
    drive(&designers, config, true, &server.handle(), &transport);
    let dpm = server
        .shutdown()
        .expect("unjournaled: closes only on a panic");
    outcome(dpm, setup_evaluations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adpm_constraint::ConstraintNetwork;
    use adpm_core::replay_history;
    use adpm_scenarios::{lna_walkthrough, sensing_system};

    fn feasible_boxes(network: &ConstraintNetwork) -> Vec<(f64, f64)> {
        network
            .property_ids()
            .map(|id| {
                network
                    .feasible(id)
                    .enclosing_interval()
                    .map_or((1.0, 0.0), |iv| (iv.lo(), iv.hi()))
            })
            .collect()
    }

    #[test]
    fn turn_barrier_runs_are_deterministic() {
        let scenario = lna_walkthrough();
        let config = SimulationConfig::adpm(11);
        let a = run_concurrent_dpm(scenario.build_dpm(config.dpm_config()), &config, true, None);
        let b = run_concurrent_dpm(scenario.build_dpm(config.dpm_config()), &config, true, None);
        assert_eq!(
            format!("{:?}", a.dpm.history()),
            format!("{:?}", b.dpm.history())
        );
        assert_eq!(a.stats.operations, b.stats.operations);
        assert_eq!(a.stats.evaluations, b.stats.evaluations);
        assert_eq!(a.stats.spins, b.stats.spins);
    }

    #[test]
    fn concurrent_history_replays_faithfully() {
        let scenario = sensing_system();
        let config = SimulationConfig::adpm(3);
        let outcome = run_concurrent_dpm(
            scenario.build_dpm(config.dpm_config()),
            &config,
            false,
            None,
        );
        assert!(!outcome.dpm.history().is_empty());
        let mut fresh = scenario.build_dpm(config.dpm_config());
        fresh.initialize();
        let replay = replay_history(outcome.dpm.history(), &mut fresh).expect("replayable");
        assert!(replay.faithful, "concurrent history must replay exactly");
        assert_eq!(
            feasible_boxes(outcome.dpm.network()),
            feasible_boxes(fresh.network())
        );
        assert_eq!(
            outcome.dpm.network().violated_constraints(),
            fresh.network().violated_constraints()
        );
    }

    #[test]
    fn remote_chaos_run_converges_to_the_clean_outcome() {
        use adpm_core::state_fingerprint;
        let scenario = lna_walkthrough();
        let config = SimulationConfig::adpm(11);
        let clean = run_concurrent_remote(scenario.build_dpm(config.dpm_config()), &config, None);
        assert!(!clean.dpm.history().is_empty(), "clean run must execute");
        // Drops, duplicates, corruption, truncation, latency, and scripted
        // connection kills — exactly-once submission plus reconnect must
        // make all of it invisible in the final design state.
        let plan: FaultPlan =
            "seed=9,drop=0.08,dup=0.1,corrupt=0.05,truncate=0.05,delay=0.2:2ms,kill=9"
                .parse()
                .expect("plan");
        let chaotic = run_concurrent_remote(
            scenario.build_dpm(config.dpm_config()),
            &config,
            Some(&plan),
        );
        assert_eq!(clean.stats.operations, chaotic.stats.operations);
        assert_eq!(
            state_fingerprint(&clean.dpm),
            state_fingerprint(&chaotic.dpm),
            "a faulty run must converge to the fault-free design state"
        );
    }

    #[test]
    fn turn_barrier_walkthrough_completes() {
        let scenario = lna_walkthrough();
        let config = SimulationConfig::adpm(7);
        let outcome =
            run_concurrent_dpm(scenario.build_dpm(config.dpm_config()), &config, true, None);
        assert!(
            outcome.stats.completed,
            "ops = {}, stalls hit",
            outcome.stats.operations
        );
        assert!(outcome.dpm.network().violated_constraints().is_empty());
    }
}
