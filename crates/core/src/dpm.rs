//! The Design Process Manager and ADPM's transition model (paper Fig. 1).
//!
//! [`DesignProcessManager::execute`] implements the next-state function
//! `s_{n+1} = δ(s_n, θ_n)`:
//!
//! 1. the requested operator is applied to its problem;
//! 2. **ADPM mode** (`λ = T`): the Design Constraint Manager runs constraint
//!    propagation, feasible subspaces and statuses are refreshed, and the
//!    Notification Manager routes violation/feasibility events to the
//!    affected designers; the heuristic support data of §2.3 is mined from
//!    the new state at its first read;
//! 3. **conventional mode** (`λ = F`): no propagation — constraint statuses
//!    change only through explicit verification operations, and changing a
//!    value invalidates earlier verification results for the constraints it
//!    touches (they fall back to *Consistent*, i.e. unknown);
//! 4. problem statuses are recomputed bottom-up and the operation is
//!    recorded in the design history together with its evaluation count,
//!    violation delta, and spin flag.
//!
//! A **design spin** is an executed operation that reacts to at least one
//! violation involving properties from multiple subsystems — the costly
//! "integration iteration" the paper's evaluation counts.

use crate::events::{Event, InterestSet};
use crate::ids::{DesignerId, ProblemId};
use crate::operation::{Operation, OperationRecord, Operator};
use crate::problem::{ProblemSet, ProblemStatus};
use adpm_constraint::{
    propagate_incremental_profiled, propagate_profiled, ConstraintId, ConstraintNetwork,
    ConstraintStatus, HeuristicReport, NetworkError, PropagationConfig, PropagationKind,
    PropertyId,
};
use adpm_observe::{Clock, Counter, MetricsSink, MonotonicClock, NoopSink, SpanKind, TraceEvent};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};

/// Why an [`Operation`] failed structural validation before execution.
///
/// [`DesignProcessManager::execute`] applies operators by id and its id
/// lookups (`network.bind`, `problems.problem`, ...) index directly into
/// the underlying vectors — fine for the in-process loop where every id
/// comes from the DPM itself, but panic-prone once operations arrive from
/// another thread or from the wire. [`DesignProcessManager::validate_operation`]
/// checks all referenced ids first and reports the failure as one of these
/// variants, so a session can reject a malformed operation as data instead
/// of poisoning the engine thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperationError {
    /// The requesting designer was never registered with this DPM.
    UnknownDesigner(DesignerId),
    /// The operation's problem id is outside the problem hierarchy.
    UnknownProblem(ProblemId),
    /// An assign/unbind target property is outside the network.
    UnknownProperty(PropertyId),
    /// A verify operator names a constraint outside the network.
    UnknownConstraint(ConstraintId),
}

impl std::fmt::Display for OperationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OperationError::UnknownDesigner(d) => write!(f, "unknown designer {d}"),
            OperationError::UnknownProblem(p) => write!(f, "unknown problem id {p}"),
            OperationError::UnknownProperty(p) => write!(f, "unknown property id {p}"),
            OperationError::UnknownConstraint(c) => write!(f, "unknown constraint id {c}"),
        }
    }
}

impl std::error::Error for OperationError {}

/// The paper's `λ` flag: which transition model the DPM uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ManagementMode {
    /// Conventional flow: statuses known only through verification runs.
    Conventional,
    /// Active Design Process Management: DCM propagation + NM after every
    /// operation.
    Adpm,
}

impl ManagementMode {
    /// Whether this is [`ManagementMode::Adpm`].
    pub fn is_adpm(self) -> bool {
        self == ManagementMode::Adpm
    }

    /// Stable lowercase name, used as the `mode` field of trace events.
    pub fn as_str(self) -> &'static str {
        match self {
            ManagementMode::Adpm => "adpm",
            ManagementMode::Conventional => "conventional",
        }
    }
}

/// Configuration of the design process manager.
#[derive(Debug, Clone, PartialEq)]
pub struct DpmConfig {
    /// Transition model selector (`λ`).
    pub mode: ManagementMode,
    /// Propagation settings used in ADPM mode (the evaluation cap).
    pub propagation: PropagationConfig,
    /// Which DCM propagation path runs after each ADPM operation: region
    /// propagation from the operation's target property
    /// ([`PropagationKind::Incremental`], the default) or from-scratch
    /// [`PropagationKind::Full`], which TeamSim keeps for the paper's
    /// evaluation accounting. Both reach the same fixed point bit for bit;
    /// the region run costs fewer constraint evaluations per operation.
    pub propagation_kind: PropagationKind,
}

impl DpmConfig {
    /// ADPM-mode configuration with default propagation settings and
    /// region propagation.
    pub fn adpm() -> Self {
        DpmConfig {
            mode: ManagementMode::Adpm,
            propagation: PropagationConfig::default(),
            propagation_kind: PropagationKind::Incremental,
        }
    }

    /// Conventional-mode configuration.
    pub fn conventional() -> Self {
        DpmConfig {
            mode: ManagementMode::Conventional,
            ..DpmConfig::adpm()
        }
    }
}

/// The design process manager: owns the design state (problem hierarchy +
/// constraint network), executes operations, and maintains the history.
///
/// # Examples
///
/// ```
/// use adpm_core::{DesignProcessManager, DpmConfig, Operation, DesignerId};
/// use adpm_constraint::{ConstraintNetwork, Property, Domain, Relation, Value,
///                       expr::{var, cst}};
/// # fn main() -> Result<(), adpm_constraint::NetworkError> {
/// let mut net = ConstraintNetwork::new();
/// let x = net.add_property(Property::new("x", "o", Domain::interval(0.0, 10.0)))?;
/// net.add_constraint("cap", var(x), Relation::Le, cst(4.0))?;
///
/// let mut dpm = DesignProcessManager::new(net, DpmConfig::adpm());
/// let d = dpm.add_designer();
/// let top = dpm.problems_mut().add_root("top");
/// *dpm.problems_mut().problem_mut(top) = dpm.problems().problem(top)
///     .clone().with_outputs([x]).with_assignee(d);
///
/// let record = dpm.execute(Operation::assign(d, top, x, Value::number(3.0)))?;
/// assert_eq!(record.violations_after, 0);
/// assert!(dpm.design_complete());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DesignProcessManager {
    network: ConstraintNetwork,
    problems: ProblemSet,
    config: DpmConfig,
    designers: Vec<DesignerId>,
    /// One viewpoint per designer (indexed by designer id), built on first
    /// use and dropped whenever designers or problem assignments can
    /// change: [`add_designer`](Self::add_designer),
    /// [`problems_mut`](Self::problems_mut) and the decompose operator.
    viewpoints: OnceLock<Vec<InterestSet>>,
    history: Vec<OperationRecord>,
    /// Operations executed before `history` began (non-zero only after a
    /// snapshot restore): `op_base + history.len()` is the logical
    /// operation count the sequence numbers continue from.
    op_base: usize,
    /// Minimal replayable program reproducing the current design state:
    /// the latest assign per bound property, the surviving verification
    /// per target, and every decompose/relax, in chronological order.
    state_program: Vec<Operation>,
    /// The heuristic support data, mined from the network at the first
    /// [`heuristics`](Self::heuristics) read after the state changed:
    /// `initialize`, `execute` and `begin_restored_history` drop it.
    heuristics: OnceLock<HeuristicReport>,
    pending: HashMap<DesignerId, Vec<Event>>,
    known_violations: BTreeSet<ConstraintId>,
    /// `(constraint, known violated before)` for each change to
    /// `known_violations` since the last baseline (the end of the last
    /// operation, `initialize` or `begin_restored_history`), in change
    /// order; the first change of a constraint holds its baseline.
    violation_changes: Vec<(ConstraintId, bool)>,
    /// ADPM only: each property's relative feasible size as of the last
    /// observation, indexed by property id. `execute` refreshes the
    /// operator's target and then the propagation region, the only
    /// properties whose feasible subspace an operation can move.
    feasible_sizes: Vec<f64>,
    event_buffer: Vec<Event>,
    total_evaluations: usize,
    spins: usize,
    sink: Arc<dyn MetricsSink>,
    clock: Arc<dyn Clock>,
}

impl DesignProcessManager {
    /// Creates a DPM over an initial constraint network.
    pub fn new(network: ConstraintNetwork, config: DpmConfig) -> Self {
        let mut dpm = DesignProcessManager {
            network,
            problems: ProblemSet::new(),
            config,
            designers: Vec::new(),
            viewpoints: OnceLock::new(),
            history: Vec::new(),
            op_base: 0,
            state_program: Vec::new(),
            heuristics: OnceLock::new(),
            pending: HashMap::new(),
            known_violations: BTreeSet::new(),
            violation_changes: Vec::new(),
            feasible_sizes: Vec::new(),
            event_buffer: Vec::new(),
            total_evaluations: 0,
            spins: 0,
            sink: Arc::new(NoopSink),
            clock: Arc::new(MonotonicClock),
        };
        if dpm.config.mode.is_adpm() {
            dpm.observe_network();
            // The baseline is empty: the first operation reports whatever
            // the network already held violated as new.
            dpm.violation_changes = dpm.known_violations.iter().map(|c| (*c, false)).collect();
        }
        dpm
    }

    /// Routes all further instrumentation (operation spans, propagation
    /// waves, counters) to `sink`. Install the sink *before*
    /// [`initialize`](Self::initialize) so the setup propagation is traced
    /// too. The default is a [`NoopSink`].
    pub fn set_sink(&mut self, sink: Arc<dyn MetricsSink>) {
        self.sink = sink;
    }

    /// The metrics sink instrumented paths report to.
    pub fn metrics_sink(&self) -> &Arc<dyn MetricsSink> {
        &self.sink
    }

    /// Replaces the clock instrumented spans are timed against. The default
    /// [`MonotonicClock`] reports wall-clock durations; inject a
    /// [`ManualClock`](adpm_observe::ManualClock) to make traced `dur_us`
    /// fields a deterministic function of the execution path (golden
    /// traces). The clock is only read when the sink is enabled.
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.clock = clock;
    }

    /// Registers a new designer and returns their id.
    pub fn add_designer(&mut self) -> DesignerId {
        let id = DesignerId::new(self.designers.len() as u32);
        self.designers.push(id);
        self.viewpoints.take();
        id
    }

    /// All registered designers.
    pub fn designers(&self) -> &[DesignerId] {
        &self.designers
    }

    /// The management mode (`λ`).
    pub fn mode(&self) -> ManagementMode {
        self.config.mode
    }

    /// The constraint network (current design state).
    pub fn network(&self) -> &ConstraintNetwork {
        &self.network
    }

    /// The problem hierarchy.
    pub fn problems(&self) -> &ProblemSet {
        &self.problems
    }

    /// Mutable access to the problem hierarchy (scenario setup).
    pub fn problems_mut(&mut self) -> &mut ProblemSet {
        self.viewpoints.take();
        &mut self.problems
    }

    /// The designer's viewpoint, which the Notification Manager routes
    /// their events through (see [`InterestSet`]).
    ///
    /// # Panics
    ///
    /// Panics if `designer` is not registered.
    pub fn viewpoint(&self, designer: DesignerId) -> &InterestSet {
        &self.viewpoints()[designer.index()]
    }

    fn viewpoints(&self) -> &[InterestSet] {
        self.viewpoints.get_or_init(|| {
            self.designers
                .iter()
                .map(|d| InterestSet::build(&self.problems, *d))
                .collect()
        })
    }

    /// The heuristic support data of the current design state, mined at the
    /// first read after each transition. `None` in conventional mode — that
    /// is precisely the information conventional designers do not get.
    pub fn heuristics(&self) -> Option<&HeuristicReport> {
        self.config.mode.is_adpm().then(|| {
            self.heuristics
                .get_or_init(|| HeuristicReport::mine(&self.network))
        })
    }

    /// The design history so far (one record per executed operation).
    pub fn history(&self) -> &[OperationRecord] {
        &self.history
    }

    /// Total operations executed over the design's lifetime, snapshot
    /// restores included: `op_base + history.len()`. Equals
    /// `history().len()` unless the DPM was restored from a journal
    /// snapshot.
    pub fn operations_total(&self) -> usize {
        self.op_base + self.history.len()
    }

    /// Operations executed before the in-memory history began (non-zero
    /// only after a snapshot restore).
    pub fn op_base(&self) -> usize {
        self.op_base
    }

    /// The minimal replayable state program: executing these operations,
    /// in order, on a freshly initialized twin of this DPM reproduces the
    /// current bindings, feasible subspaces, problem tree, and conflict
    /// ledger. Assigns are deduplicated to the latest per property,
    /// unbinds cancel their assigns outright, and verifications keep only
    /// the most recent run per (problem, constraint-list) target — so the
    /// program length is bounded by the live state, not the history.
    pub fn state_program(&self) -> &[Operation] {
        &self.state_program
    }

    /// Rebases the history after a snapshot restore: the `base` operations
    /// summarized by the snapshot's state program stop counting as
    /// in-memory history and become the logical prefix, so sequence
    /// numbers (and the state fingerprint) continue where the snapshot
    /// left off. Pending notifications and buffered events are cleared —
    /// a restore is silent — while the state program survives, having
    /// just been rebuilt by the restore replay itself.
    pub fn begin_restored_history(&mut self, base: usize) {
        self.op_base = base;
        self.history.clear();
        self.pending.clear();
        self.event_buffer.clear();
        self.heuristics.take();
        self.violation_changes.clear();
    }

    /// Total constraint evaluations across the whole history.
    pub fn total_evaluations(&self) -> usize {
        self.total_evaluations
    }

    /// Total spins (operations reacting to cross-subsystem violations).
    pub fn spins(&self) -> usize {
        self.spins
    }

    /// Constraints currently *known* to be violated (by propagation in ADPM
    /// mode, by the latest verification results conventionally).
    pub fn known_violations(&self) -> Vec<ConstraintId> {
        self.known_violations.iter().copied().collect()
    }

    /// Drains the pending notifications for one designer.
    pub fn take_notifications(&mut self, designer: DesignerId) -> Vec<Event> {
        self.pending.remove(&designer).unwrap_or_default()
    }

    /// Whether the design process has terminated: the top-level problem is
    /// solved (hence all subproblems are), every problem output has a value,
    /// and no constraint is violated.
    pub fn design_complete(&self) -> bool {
        let Some(root) = self.problems.root() else {
            return false;
        };
        self.problems.problem(root).status() == ProblemStatus::Solved
            && self.problems.all_solved()
            && self.known_violations.is_empty()
    }

    /// Initializes the process before the first operation — the paper's
    /// "script automatically initializes this scenario" step. In ADPM mode
    /// the DCM propagates the initial requirements once so designers start
    /// with feasibility information; conventionally this is a no-op.
    /// Returns the number of constraint evaluations performed (counted in
    /// [`total_evaluations`](Self::total_evaluations) but not attributed to
    /// any operation).
    ///
    /// Also call this again after mutating the problem hierarchy directly
    /// through [`problems_mut`](Self::problems_mut) (e.g. wiring outputs
    /// onto freshly decomposed subproblems): manual wiring bypasses the
    /// transition function, so statuses and heuristics need a refresh.
    pub fn initialize(&mut self) -> usize {
        self.heuristics.take();
        if self.config.mode != ManagementMode::Adpm {
            self.update_problem_statuses();
            self.event_buffer.clear();
            return 0;
        }
        let outcome = propagate_profiled(
            &mut self.network,
            &self.config.propagation,
            &*self.sink,
            &*self.clock,
        );
        self.observe_network();
        self.violation_changes.clear();
        self.update_problem_statuses();
        self.event_buffer.clear();
        self.total_evaluations += outcome.evaluations;
        outcome.evaluations
    }

    /// Checks that every id an operation references exists in this DPM:
    /// the designer is registered, the problem is in the hierarchy, and the
    /// target properties/constraints are in the network.
    ///
    /// [`execute`](Self::execute) assumes valid ids (its lookups index
    /// directly and panic out of range, which is correct for the in-process
    /// loop where ids originate from this DPM). Call this first whenever an
    /// operation crosses a trust boundary — another thread, the wire — so
    /// the failure surfaces as a typed rejection instead of a panic on the
    /// engine thread.
    ///
    /// # Errors
    ///
    /// Returns the first [`OperationError`] found, checking the designer,
    /// then the problem, then the operator's property/constraint ids.
    pub fn validate_operation(&self, operation: &Operation) -> Result<(), OperationError> {
        let designer = operation.designer();
        if designer.index() >= self.designers.len() {
            return Err(OperationError::UnknownDesigner(designer));
        }
        let problem = operation.problem();
        if problem.index() >= self.problems.len() {
            return Err(OperationError::UnknownProblem(problem));
        }
        match operation.operator() {
            Operator::Assign { property, .. } | Operator::Unbind { property } => {
                if property.index() >= self.network.property_count() {
                    return Err(OperationError::UnknownProperty(*property));
                }
            }
            Operator::Verify { constraints } => {
                for cid in constraints {
                    if cid.index() >= self.network.constraint_count() {
                        return Err(OperationError::UnknownConstraint(*cid));
                    }
                }
            }
            Operator::Decompose { .. } => {}
            Operator::Relax { constraint, .. } => {
                if constraint.index() >= self.network.constraint_count() {
                    return Err(OperationError::UnknownConstraint(*constraint));
                }
            }
        }
        for cid in operation.repairs() {
            if cid.index() >= self.network.constraint_count() {
                return Err(OperationError::UnknownConstraint(*cid));
            }
        }
        Ok(())
    }

    /// Executes one design operation — the paper's `δ(s_n, θ_n)`.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`NetworkError`] if the operator is invalid
    /// (e.g. a value outside `E_i`); the state is unchanged in that case and
    /// nothing is recorded.
    pub fn execute(&mut self, operation: Operation) -> Result<OperationRecord, NetworkError> {
        let trace = self.sink.is_enabled();
        let op_started = if trace { self.clock.now_us() } else { 0 };

        // Spin detection is judged against the state *before* the operation:
        // was the designer reacting to a known cross-subsystem violation?
        let spin = self.is_spin(&operation);

        let mut evaluations = 0usize;
        let mut verify_evaluations = 0usize;
        match operation.operator() {
            Operator::Assign { property, value } => {
                self.network.bind(*property, value.clone())?;
                if self.config.mode == ManagementMode::Conventional {
                    self.invalidate_verifications(*property);
                }
            }
            Operator::Unbind { property } => {
                self.network.unbind(*property)?;
                if self.config.mode == ManagementMode::Conventional {
                    self.invalidate_verifications(*property);
                }
            }
            Operator::Verify { constraints } => {
                verify_evaluations = self.run_verification(operation.problem(), constraints);
                evaluations += verify_evaluations;
            }
            Operator::Decompose { subproblems } => {
                for name in subproblems {
                    self.problems.decompose(operation.problem(), name.clone());
                }
                self.viewpoints.take();
            }
            Operator::Relax {
                constraint,
                relaxation,
            } => {
                // relax_constraint re-evaluates the rewritten constraint's
                // status immediately, so both flows see the conflict clear
                // even before the next propagation.
                self.network.relax_constraint(*constraint, *relaxation)?;
                evaluations += 1;
                // Keep the conflict ledger in step with the re-evaluated
                // status: ADPM updates it from the propagation sweep below,
                // but the conventional flow only updates it at
                // verifications, which would leave a relax-cleared
                // conflict on the books forever.
                let violated = self.network.status(*constraint).is_violated();
                self.set_known_violation(*constraint, violated);
            }
        }

        // Every fallible step is behind us: fold the operation into the
        // minimal state program before state observation begins.
        self.absorb_into_state_program(&operation);
        self.heuristics.take();

        // ADPM: the DCM propagates after every operation.
        if self.config.mode == ManagementMode::Adpm {
            // The operator moved at most its target's feasible subspace.
            if let Some(target) = operation.operator().target_property() {
                self.feasible_sizes[target.index()] = self.relative_size(target);
            }
            let outcome = match self.config.propagation_kind {
                PropagationKind::Full => propagate_profiled(
                    &mut self.network,
                    &self.config.propagation,
                    &*self.sink,
                    &*self.clock,
                ),
                PropagationKind::Incremental => {
                    // The operation's target property is the dirty set; ops
                    // without one (verify, decompose) touch no values, so an
                    // empty set (plus the network's own dirty tracking) is
                    // exact. A relax leaves no clean fixed point, so that
                    // run is full.
                    let dirty: Vec<PropertyId> =
                        operation.operator().target_property().into_iter().collect();
                    propagate_incremental_profiled(
                        &mut self.network,
                        &dirty,
                        &self.config.propagation,
                        &*self.sink,
                        &*self.clock,
                    )
                }
            };
            evaluations += outcome.evaluations;
            // The run changed statuses only among the constraints it swept
            // and feasible subspaces only within its region.
            for &cid in &outcome.swept {
                let violated = self.network.status(cid).is_violated();
                self.set_known_violation(cid, violated);
            }
            self.emit_feasibility_events(&outcome.properties);
        }

        let (new_violations, resolved) = self.violation_delta();
        self.update_problem_statuses();
        self.emit_violation_events(&new_violations, &resolved);
        let fanout_started = if trace { self.clock.now_us() } else { 0 };
        let (recipients, delivered) = self.flush_events();
        let fanout_dur_us = if trace {
            self.clock.now_us().saturating_sub(fanout_started)
        } else {
            0
        };

        self.total_evaluations += evaluations;
        if spin {
            self.spins += 1;
        }
        let record = OperationRecord {
            sequence: self.op_base + self.history.len() + 1,
            operation,
            evaluations,
            violations_after: self.known_violations.len(),
            new_violations,
            spin,
        };
        self.history.push(record.clone());

        // Propagation evaluations were already counted by the DCM's own
        // instrumentation; only verification tool runs are added here.
        self.sink.incr(Counter::Operations, 1);
        self.sink
            .incr(Counter::Evaluations, verify_evaluations as u64);
        self.sink
            .incr(Counter::Violations, record.new_violations.len() as u64);
        self.sink.incr(Counter::Notifications, delivered as u64);
        if spin {
            self.sink.incr(Counter::Spins, 1);
        }
        if trace {
            for cid in &record.new_violations {
                self.sink.record(&TraceEvent::Violation {
                    seq: record.sequence as u64,
                    constraint: self.network.constraint(*cid).name(),
                    cross: self.network.is_cross_object(*cid),
                });
            }
            let target = match record.operation.operator().target_property() {
                Some(pid) => self.network.property(pid).qualified_name(),
                None => "",
            };
            let dur_us = self.clock.now_us().saturating_sub(op_started);
            self.sink.record(&TraceEvent::Operation {
                seq: record.sequence as u64,
                designer: record.operation.designer().index() as u32,
                kind: record.operation.operator().kind(),
                mode: self.config.mode.as_str(),
                target,
                evaluations: record.evaluations as u64,
                violations_after: record.violations_after as u32,
                new_violations: record.new_violations.len() as u32,
                spin: record.spin,
                dur_us,
            });
            self.sink.time(SpanKind::Operation, dur_us);
            if delivered > 0 {
                self.sink.record(&TraceEvent::NotificationFanout {
                    seq: record.sequence as u64,
                    recipients,
                    events: delivered,
                    dur_us: fanout_dur_us,
                });
                self.sink.time(SpanKind::Fanout, fanout_dur_us);
            }
        }
        Ok(record)
    }

    /// Whether `operation` reacts to a known cross-subsystem violation —
    /// either because the designer tagged it as repair work for one, or
    /// because its target property sits in one.
    fn is_spin(&self, operation: &Operation) -> bool {
        let tagged = operation
            .repairs()
            .iter()
            .any(|cid| self.network.is_cross_object(*cid));
        if tagged {
            return true;
        }
        let Some(target) = operation.operator().target_property() else {
            return false;
        };
        self.network
            .constraints_of(target)
            .iter()
            .any(|cid| self.known_violations.contains(cid) && self.network.is_cross_object(*cid))
    }

    /// Folds one executed operation into the minimal state program (see
    /// [`state_program`](Self::state_program)). Replacement keeps the
    /// chronological position of the *latest* occurrence, which is what
    /// makes conventional-mode verification invalidation replay exactly:
    /// a verification left stale by a later re-assign replays before that
    /// assign with its arguments unbound, so it is skipped — the same
    /// `Consistent` outcome the invalidation produced live.
    fn absorb_into_state_program(&mut self, operation: &Operation) {
        match operation.operator() {
            Operator::Assign { property, .. } => {
                let target = *property;
                self.state_program.retain(|op| {
                    !matches!(op.operator(),
                              Operator::Assign { property, .. } if *property == target)
                });
                self.state_program.push(operation.clone());
            }
            Operator::Unbind { property } => {
                let target = *property;
                self.state_program.retain(|op| {
                    !matches!(op.operator(),
                              Operator::Assign { property, .. } if *property == target)
                });
            }
            Operator::Verify { constraints } => {
                let problem = operation.problem();
                self.state_program.retain(|op| {
                    op.problem() != problem
                        || !matches!(op.operator(),
                                     Operator::Verify { constraints: c } if c == constraints)
                });
                self.state_program.push(operation.clone());
            }
            Operator::Decompose { .. } | Operator::Relax { .. } => {
                self.state_program.push(operation.clone());
            }
        }
    }

    /// Conventional flow: re-binding a property invalidates earlier
    /// verification results for the constraints it appears in.
    fn invalidate_verifications(&mut self, property: PropertyId) {
        for cid in self.network.constraints_of(property).to_vec() {
            self.network.set_status(cid, ConstraintStatus::Consistent);
            self.set_known_violation(cid, false);
        }
    }

    /// Runs verification "tool runs" for the requested constraints (or all
    /// of the problem's constraints when unspecified), skipping constraints
    /// whose arguments are not all bound — verification operators execute
    /// only when their inputs are bound (paper §3.1.2).
    fn run_verification(&mut self, problem: ProblemId, constraints: &[ConstraintId]) -> usize {
        let targets: Vec<ConstraintId> = if constraints.is_empty() {
            self.problems.problem(problem).constraints().to_vec()
        } else {
            constraints.to_vec()
        };
        let mut evaluations = 0;
        for cid in targets {
            if !self.network.all_arguments_bound(cid) {
                continue;
            }
            evaluations += 1;
            let ok = self.network.check_constraint_point(cid);
            let status = if ok {
                ConstraintStatus::Satisfied
            } else {
                ConstraintStatus::Violated
            };
            self.network.set_status(cid, status);
            self.set_known_violation(cid, !ok);
        }
        evaluations
    }

    /// ADPM: takes the known violations and every feasible size from the
    /// network as it stands.
    fn observe_network(&mut self) {
        self.known_violations = self.network.violated_constraints().into_iter().collect();
        self.feasible_sizes = self
            .network
            .property_ids()
            .map(|pid| self.relative_size(pid))
            .collect();
    }

    fn relative_size(&self, pid: PropertyId) -> f64 {
        self.network
            .feasible(pid)
            .relative_size(self.network.property(pid).initial_domain())
    }

    /// Diffs the feasible sizes of `region`, in id order, against the last
    /// observation, queueing a reduction or emptying event for each unbound
    /// property that shrank.
    fn emit_feasibility_events(&mut self, region: &[PropertyId]) {
        for &pid in region {
            let after = self.relative_size(pid);
            let before = std::mem::replace(&mut self.feasible_sizes[pid.index()], after);
            if self.network.is_bound(pid) {
                continue;
            }
            if after <= 0.0 && before > 0.0 {
                self.event_buffer
                    .push(Event::FeasibleEmptied { property: pid });
            } else if after + 1e-9 < before {
                self.event_buffer.push(Event::FeasibleReduced {
                    property: pid,
                    relative_size: after,
                });
            }
        }
    }

    /// The one writer of `known_violations` inside an operation: records
    /// whether `cid` is known violated and notes each change for
    /// [`violation_delta`](Self::violation_delta).
    fn set_known_violation(&mut self, cid: ConstraintId, violated: bool) {
        let changed = if violated {
            self.known_violations.insert(cid)
        } else {
            self.known_violations.remove(&cid)
        };
        if changed {
            self.violation_changes.push((cid, !violated));
        }
    }

    /// The violations newly known since the baseline and those no longer
    /// known, each in id order; the baseline moves to now. Costs the
    /// changes made, not the violations standing.
    fn violation_delta(&mut self) -> (Vec<ConstraintId>, Vec<ConstraintId>) {
        let mut changes = std::mem::take(&mut self.violation_changes);
        // A stable sort keeps each constraint's first change, which holds
        // its baseline, ahead of its later ones.
        changes.sort_by_key(|(cid, _)| *cid);
        changes.dedup_by_key(|(cid, _)| *cid);
        let (mut detected, mut resolved) = (Vec::new(), Vec::new());
        for (cid, before) in changes.drain(..) {
            match (before, self.known_violations.contains(&cid)) {
                (false, true) => detected.push(cid),
                (true, false) => resolved.push(cid),
                _ => {}
            }
        }
        self.violation_changes = changes;
        (detected, resolved)
    }

    fn emit_violation_events(&mut self, detected: &[ConstraintId], resolved: &[ConstraintId]) {
        for cid in detected {
            self.event_buffer.push(Event::ViolationDetected {
                constraint: *cid,
                properties: self.network.constraint(*cid).arguments(),
            });
        }
        self.event_buffer.extend(
            resolved
                .iter()
                .map(|cid| Event::ViolationResolved { constraint: *cid }),
        );
    }

    /// The Notification Manager: routes the buffered events to every
    /// designer whose viewpoint they match; returns `(recipients, events
    /// delivered)` — the fan-out for this operation.
    fn flush_events(&mut self) -> (u32, u32) {
        if self.event_buffer.is_empty() {
            return (0, 0);
        }
        let events = std::mem::take(&mut self.event_buffer);
        let mut pending = std::mem::take(&mut self.pending);
        let (mut recipients, mut delivered) = (0u32, 0u32);
        for (designer, viewpoint) in self.designers.iter().zip(self.viewpoints()) {
            let relevant: Vec<Event> = events
                .iter()
                .filter(|e| viewpoint.matches(e, &self.problems, &self.network))
                .cloned()
                .collect();
            if relevant.is_empty() {
                continue;
            }
            recipients += 1;
            delivered += relevant.len() as u32;
            pending.entry(*designer).or_default().extend(relevant);
        }
        self.pending = pending;
        (recipients, delivered)
    }

    /// Recomputes problem statuses bottom-up: a problem is *Solved* when all
    /// its outputs are bound, none of its constraints is known violated, all
    /// its constraints are known satisfied, and all its children are solved;
    /// *Waiting* while children remain unsolved; *Open* otherwise.
    fn update_problem_statuses(&mut self) {
        // Children have larger ids than parents (decompose appends), so a
        // reverse pass is a valid bottom-up order. A second pass settles
        // the sibling partial order (a predecessor declared earlier is
        // visited *after* its successors within one pass).
        for _ in 0..2 {
            self.update_problem_statuses_pass();
        }
    }

    fn update_problem_statuses_pass(&mut self) {
        let ids: Vec<ProblemId> = self.problems.ids().collect();
        for pid in ids.into_iter().rev() {
            let problem = self.problems.problem(pid);
            let children_solved = problem
                .children()
                .iter()
                .all(|c| self.problems.problem(*c).status() == ProblemStatus::Solved);
            let predecessors_solved = problem
                .predecessors()
                .iter()
                .all(|p| self.problems.problem(*p).status() == ProblemStatus::Solved);
            let outputs_bound = problem.outputs().iter().all(|p| self.network.is_bound(*p));
            let constraints_satisfied = problem
                .constraints()
                .iter()
                .all(|c| self.network.status(*c).is_satisfied());
            let solved = children_solved && outputs_bound && constraints_satisfied;
            let status = if solved {
                ProblemStatus::Solved
            } else if (!problem.children().is_empty() && !children_solved) || !predecessors_solved {
                // Waiting on subproblems or on the declared partial order;
                // problem selection (f_p) skips Waiting problems.
                ProblemStatus::Waiting
            } else {
                ProblemStatus::Open
            };
            let was = self.problems.problem(pid).status();
            if status != was {
                self.problems.problem_mut(pid).set_status(status);
                if status == ProblemStatus::Solved {
                    self.event_buffer
                        .push(Event::ProblemSolved { problem: pid });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adpm_constraint::{
        expr::{cst, var},
        Domain, Property, Relation, Value,
    };

    /// Two-subsystem fixture modelled on the paper's receiver power budget:
    /// `P_f + P_s <= 200`, with the front-end and deserializer designed by
    /// different designers (so the budget is a cross-object constraint).
    fn fixture(
        mode: ManagementMode,
    ) -> (
        DesignProcessManager,
        DesignerId,
        DesignerId,
        ProblemId,
        ProblemId,
        ProblemId,
        PropertyId,
        PropertyId,
        ConstraintId,
    ) {
        let config = match mode {
            ManagementMode::Adpm => DpmConfig::adpm(),
            ManagementMode::Conventional => DpmConfig::conventional(),
        };
        fixture_with(config)
    }

    fn fixture_with(
        config: DpmConfig,
    ) -> (
        DesignProcessManager,
        DesignerId,
        DesignerId,
        ProblemId,
        ProblemId,
        ProblemId,
        PropertyId,
        PropertyId,
        ConstraintId,
    ) {
        let mut net = ConstraintNetwork::new();
        let pf = net
            .add_property(Property::new(
                "P-front",
                "frontend",
                Domain::interval(0.0, 300.0),
            ))
            .unwrap();
        let ps = net
            .add_property(Property::new(
                "P-ser",
                "deser",
                Domain::interval(0.0, 300.0),
            ))
            .unwrap();
        let budget = net
            .add_constraint("power", var(pf) + var(ps), Relation::Le, cst(200.0))
            .unwrap();
        let mut dpm = DesignProcessManager::new(net, config);
        let d0 = dpm.add_designer();
        let d1 = dpm.add_designer();
        let top = dpm.problems_mut().add_root("receiver");
        let front = dpm.problems_mut().decompose(top, "frontend");
        let deser = dpm.problems_mut().decompose(top, "deser");
        *dpm.problems_mut().problem_mut(top) = dpm
            .problems()
            .problem(top)
            .clone()
            .with_constraints([budget]);
        *dpm.problems_mut().problem_mut(front) = dpm
            .problems()
            .problem(front)
            .clone()
            .with_outputs([pf])
            .with_assignee(d0);
        *dpm.problems_mut().problem_mut(deser) = dpm
            .problems()
            .problem(deser)
            .clone()
            .with_outputs([ps])
            .with_assignee(d1);
        (dpm, d0, d1, top, front, deser, pf, ps, budget)
    }

    #[test]
    fn adpm_assign_triggers_propagation_and_narrows_neighbour() {
        let (mut dpm, d0, _, _, front, _, pf, ps, _) = fixture(ManagementMode::Adpm);
        let record = dpm
            .execute(Operation::assign(d0, front, pf, Value::number(150.0)))
            .unwrap();
        assert!(record.evaluations > 0, "ADPM must run the DCM");
        let feasible = dpm.network().feasible(ps).enclosing_interval().unwrap();
        assert!((feasible.hi() - 50.0).abs() < 1e-9);
        assert!(dpm.heuristics().is_some());
    }

    #[test]
    fn conventional_assign_runs_no_evaluations() {
        let (mut dpm, d0, _, _, front, _, pf, ps, _) = fixture(ManagementMode::Conventional);
        let record = dpm
            .execute(Operation::assign(d0, front, pf, Value::number(150.0)))
            .unwrap();
        assert_eq!(record.evaluations, 0);
        // No propagation: the neighbour's feasible range is untouched.
        let feasible = dpm.network().feasible(ps).enclosing_interval().unwrap();
        assert_eq!(feasible.hi(), 300.0);
        assert!(dpm.heuristics().is_none());
    }

    #[test]
    fn adpm_detects_violation_immediately() {
        let (mut dpm, d0, d1, _, front, deser, pf, ps, budget) = fixture(ManagementMode::Adpm);
        dpm.execute(Operation::assign(d0, front, pf, Value::number(150.0)))
            .unwrap();
        let record = dpm
            .execute(Operation::assign(d1, deser, ps, Value::number(100.0)))
            .unwrap();
        assert_eq!(record.new_violations, vec![budget]);
        assert_eq!(dpm.known_violations(), vec![budget]);
    }

    #[test]
    fn conventional_violation_surfaces_only_at_verification() {
        let (mut dpm, d0, d1, top, front, deser, pf, ps, budget) =
            fixture(ManagementMode::Conventional);
        dpm.execute(Operation::assign(d0, front, pf, Value::number(150.0)))
            .unwrap();
        let record = dpm
            .execute(Operation::assign(d1, deser, ps, Value::number(100.0)))
            .unwrap();
        assert!(record.new_violations.is_empty(), "not yet verified");
        assert!(dpm.known_violations().is_empty());
        // Integration-time verification of the top-level budget.
        let record = dpm.execute(Operation::verify(d0, top)).unwrap();
        assert_eq!(record.evaluations, 1);
        assert_eq!(record.new_violations, vec![budget]);
        assert_eq!(dpm.known_violations(), vec![budget]);
    }

    #[test]
    fn verification_skips_constraints_with_unbound_arguments() {
        let (mut dpm, d0, _, top, front, _, pf, _, _) = fixture(ManagementMode::Conventional);
        dpm.execute(Operation::assign(d0, front, pf, Value::number(150.0)))
            .unwrap();
        let record = dpm.execute(Operation::verify(d0, top)).unwrap();
        assert_eq!(record.evaluations, 0, "P-ser is still unbound");
    }

    #[test]
    fn conventional_rebinding_invalidates_stale_results() {
        let (mut dpm, d0, d1, top, front, deser, pf, ps, budget) =
            fixture(ManagementMode::Conventional);
        dpm.execute(Operation::assign(d0, front, pf, Value::number(150.0)))
            .unwrap();
        dpm.execute(Operation::assign(d1, deser, ps, Value::number(100.0)))
            .unwrap();
        dpm.execute(Operation::verify(d0, top)).unwrap();
        assert_eq!(dpm.known_violations(), vec![budget]);
        // Repairing the value clears the stale Violated verdict (unknown
        // again until re-verified) rather than leaving it or assuming Fixed.
        dpm.execute(Operation::assign(d1, deser, ps, Value::number(40.0)))
            .unwrap();
        assert!(dpm.known_violations().is_empty());
        assert_eq!(dpm.network().status(budget), ConstraintStatus::Consistent);
    }

    #[test]
    fn spin_is_counted_for_repair_of_cross_object_violation() {
        let (mut dpm, d0, d1, top, front, deser, pf, ps, budget) =
            fixture(ManagementMode::Conventional);
        dpm.execute(Operation::assign(d0, front, pf, Value::number(150.0)))
            .unwrap();
        dpm.execute(Operation::assign(d1, deser, ps, Value::number(100.0)))
            .unwrap();
        dpm.execute(Operation::verify(d0, top)).unwrap();
        assert_eq!(dpm.spins(), 0);
        // The repair operation reacts to a known cross-subsystem violation.
        let record = dpm
            .execute(Operation::assign(d1, deser, ps, Value::number(40.0)).with_repairs([budget]))
            .unwrap();
        assert!(record.spin);
        assert_eq!(dpm.spins(), 1);
    }

    #[test]
    fn untagged_repair_of_known_cross_violation_is_still_a_spin() {
        let (mut dpm, d0, d1, _, front, deser, pf, ps, _) = fixture(ManagementMode::Adpm);
        dpm.execute(Operation::assign(d0, front, pf, Value::number(150.0)))
            .unwrap();
        dpm.execute(Operation::assign(d1, deser, ps, Value::number(100.0)))
            .unwrap();
        // ADPM already knows the budget is violated; the next touch of an
        // involved property is integration-rework by definition.
        let record = dpm
            .execute(Operation::assign(d1, deser, ps, Value::number(40.0)))
            .unwrap();
        assert!(record.spin);
    }

    #[test]
    fn forward_work_is_not_a_spin() {
        let (mut dpm, d0, _, _, front, _, pf, _, _) = fixture(ManagementMode::Adpm);
        let record = dpm
            .execute(Operation::assign(d0, front, pf, Value::number(100.0)))
            .unwrap();
        assert!(!record.spin);
        assert_eq!(dpm.spins(), 0);
    }

    #[test]
    fn design_completes_when_everything_bound_and_satisfied() {
        let (mut dpm, d0, d1, top, front, deser, pf, ps, _) = fixture(ManagementMode::Adpm);
        assert!(!dpm.design_complete());
        dpm.execute(Operation::assign(d0, front, pf, Value::number(120.0)))
            .unwrap();
        assert!(!dpm.design_complete());
        dpm.execute(Operation::assign(d1, deser, ps, Value::number(60.0)))
            .unwrap();
        assert!(dpm.design_complete());
        assert_eq!(dpm.problems().problem(top).status(), ProblemStatus::Solved);
        assert_eq!(
            dpm.problems().problem(front).status(),
            ProblemStatus::Solved
        );
        assert_eq!(
            dpm.problems().problem(deser).status(),
            ProblemStatus::Solved
        );
    }

    #[test]
    fn conventional_needs_verification_to_complete() {
        let (mut dpm, d0, d1, top, front, deser, pf, ps, _) = fixture(ManagementMode::Conventional);
        dpm.execute(Operation::assign(d0, front, pf, Value::number(120.0)))
            .unwrap();
        dpm.execute(Operation::assign(d1, deser, ps, Value::number(60.0)))
            .unwrap();
        assert!(
            !dpm.design_complete(),
            "constraint status unknown until verified"
        );
        dpm.execute(Operation::verify(d0, top)).unwrap();
        assert!(dpm.design_complete());
    }

    #[test]
    fn notifications_are_routed_and_drained() {
        let (mut dpm, d0, d1, _, front, _deser, pf, ps, _) = fixture(ManagementMode::Adpm);
        dpm.execute(Operation::assign(d0, front, pf, Value::number(150.0)))
            .unwrap();
        // The deserializer designer hears that P-ser's feasible range shrank.
        let events = dpm.take_notifications(d1);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::FeasibleReduced { property, .. } if *property == ps)),
            "expected FeasibleReduced for P-ser, got {events:?}"
        );
        // Draining empties the queue.
        assert!(dpm.take_notifications(d1).is_empty());
    }

    #[test]
    fn violation_notifications_reach_both_designers() {
        let (mut dpm, d0, d1, _, front, deser, pf, ps, _) = fixture(ManagementMode::Adpm);
        dpm.execute(Operation::assign(d0, front, pf, Value::number(150.0)))
            .unwrap();
        dpm.execute(Operation::assign(d1, deser, ps, Value::number(100.0)))
            .unwrap();
        for d in [d0, d1] {
            let events = dpm.take_notifications(d);
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e, Event::ViolationDetected { .. })),
                "{d} missed the violation, got {events:?}"
            );
        }
    }

    #[test]
    fn viewpoints_follow_designers_and_assignments() {
        let (mut dpm, d0, d1, _, front, _, pf, _, _) = fixture(ManagementMode::Adpm);
        assert!(dpm.viewpoint(d0).properties().contains(&pf));
        dpm.problems_mut().problem_mut(front).set_assignee(Some(d1));
        assert!(!dpm.viewpoint(d0).properties().contains(&pf));
        assert!(dpm.viewpoint(d1).properties().contains(&pf));
        let d2 = dpm.add_designer();
        assert!(dpm.viewpoint(d2).properties().is_empty());
    }

    #[test]
    fn decompose_operation_extends_hierarchy() {
        let (mut dpm, d0, _, top, _, _, _, _, _) = fixture(ManagementMode::Adpm);
        let before = dpm.problems().len();
        dpm.execute(Operation::decompose(d0, top, ["bias network"]))
            .unwrap();
        assert_eq!(dpm.problems().len(), before + 1);
    }

    #[test]
    fn failed_operation_leaves_no_history_entry() {
        let (mut dpm, d0, _, _, front, _, pf, _, _) = fixture(ManagementMode::Adpm);
        let err = dpm.execute(Operation::assign(d0, front, pf, Value::number(999.0)));
        assert!(err.is_err());
        assert!(dpm.history().is_empty());
        assert_eq!(dpm.total_evaluations(), 0);
    }

    #[test]
    fn history_records_sequence_and_totals() {
        let (mut dpm, d0, d1, _, front, deser, pf, ps, _) = fixture(ManagementMode::Adpm);
        dpm.execute(Operation::assign(d0, front, pf, Value::number(120.0)))
            .unwrap();
        dpm.execute(Operation::assign(d1, deser, ps, Value::number(60.0)))
            .unwrap();
        assert_eq!(dpm.history().len(), 2);
        assert_eq!(dpm.history()[0].sequence, 1);
        assert_eq!(dpm.history()[1].sequence, 2);
        let sum: usize = dpm.history().iter().map(|r| r.evaluations).sum();
        assert_eq!(sum, dpm.total_evaluations());
    }

    #[test]
    fn unbind_reverses_assignment_and_invalidates_conventionally() {
        let (mut dpm, d0, _, _top, front, _, pf, _, _) = fixture(ManagementMode::Conventional);
        dpm.execute(Operation::assign(d0, front, pf, Value::number(150.0)))
            .unwrap();
        assert!(dpm.network().is_bound(pf));
        // Verify the (single-argument-bound) constraints; none are ready
        // since P-ser is unbound, so this records nothing — then unbind.
        dpm.execute(Operation::unbind(d0, front, pf)).unwrap();
        assert!(!dpm.network().is_bound(pf));
        assert!(dpm.known_violations().is_empty());
        assert_eq!(dpm.history().len(), 2);
    }

    #[test]
    fn unbind_in_adpm_restores_feasible_space() {
        let (mut dpm, d0, _, _, front, _, pf, ps, _) = fixture(ManagementMode::Adpm);

        dpm.execute(Operation::assign(d0, front, pf, Value::number(150.0)))
            .unwrap();
        let narrowed = dpm.network().feasible(ps).enclosing_interval().unwrap();
        assert!((narrowed.hi() - 50.0).abs() < 1e-9);
        dpm.execute(Operation::unbind(d0, front, pf)).unwrap();
        let restored = dpm.network().feasible(ps).enclosing_interval().unwrap();
        assert!(
            (restored.hi() - 200.0).abs() < 1e-9,
            "restored = {restored}"
        );
    }

    #[test]
    fn initialize_gives_adpm_feasibility_before_any_operation() {
        let (mut dpm, ..) = fixture(ManagementMode::Adpm);
        let evals = dpm.initialize();
        assert!(evals > 0);
        assert!(dpm.heuristics().is_some());
        assert_eq!(dpm.history().len(), 0);
        assert_eq!(dpm.total_evaluations(), evals);
        // Conventional initialize is a no-op evaluation-wise.
        let (mut conv, ..) = fixture(ManagementMode::Conventional);
        assert_eq!(conv.initialize(), 0);
        assert!(conv.heuristics().is_none());
    }

    #[test]
    fn incremental_dpm_matches_full_dpm_and_costs_less() {
        let build = |config: DpmConfig| {
            let mut net = ConstraintNetwork::new();
            let x = net
                .add_property(Property::new("x", "a", Domain::interval(0.0, 10.0)))
                .unwrap();
            let y = net
                .add_property(Property::new("y", "b", Domain::interval(0.0, 10.0)))
                .unwrap();
            let z = net
                .add_property(Property::new("z", "b", Domain::interval(0.0, 10.0)))
                .unwrap();
            net.add_constraint("xy", var(x) + var(y), Relation::Le, cst(12.0))
                .unwrap();
            net.add_constraint("z", var(z), Relation::Le, cst(7.0))
                .unwrap();
            let mut dpm = DesignProcessManager::new(net, config);
            let d = dpm.add_designer();
            let top = dpm.problems_mut().add_root("top");
            *dpm.problems_mut().problem_mut(top) = dpm
                .problems()
                .problem(top)
                .clone()
                .with_outputs([x, y, z])
                .with_assignee(d);
            dpm.initialize();
            (dpm, d, top, [x, y, z])
        };
        let (mut full, d, top, [x, y, z]) = build(DpmConfig {
            propagation_kind: PropagationKind::Full,
            ..DpmConfig::adpm()
        });
        let (mut inc, ..) = build(DpmConfig::adpm());

        let ops = [
            Operation::assign(d, top, x, Value::number(9.0)),
            Operation::assign(d, top, y, Value::number(3.0)),
            Operation::assign(d, top, z, Value::number(5.0)),
        ];
        for op in ops {
            let fr = full.execute(op.clone()).unwrap();
            let ir = inc.execute(op).unwrap();
            // Same observable state after every operation...
            assert_eq!(fr.violations_after, ir.violations_after);
            assert_eq!(fr.new_violations, ir.new_violations);
            for pid in full.network().property_ids() {
                assert_eq!(full.network().feasible(pid), inc.network().feasible(pid));
            }
            for cid in full.network().constraint_ids() {
                assert_eq!(full.network().status(cid), inc.network().status(cid));
            }
            // ...for strictly fewer constraint evaluations.
            assert!(
                ir.evaluations < fr.evaluations,
                "incremental {} !< full {}",
                ir.evaluations,
                fr.evaluations
            );
        }
        assert!(full.design_complete() && inc.design_complete());
        assert!(inc.total_evaluations() < full.total_evaluations());
    }

    #[test]
    fn mode_accessors() {
        assert!(ManagementMode::Adpm.is_adpm());
        assert!(!ManagementMode::Conventional.is_adpm());
        assert_eq!(ManagementMode::Adpm.as_str(), "adpm");
        assert_eq!(ManagementMode::Conventional.as_str(), "conventional");
        let (dpm, ..) = fixture(ManagementMode::Adpm);
        assert_eq!(dpm.mode(), ManagementMode::Adpm);
        assert_eq!(dpm.designers().len(), 2);
    }

    #[test]
    fn sink_counters_mirror_the_dpm_totals() {
        use adpm_observe::InMemorySink;

        let (mut dpm, d0, d1, top, front, deser, pf, ps, budget) =
            fixture(ManagementMode::Conventional);
        let sink = Arc::new(InMemorySink::new());
        dpm.set_sink(sink.clone());
        dpm.initialize();
        dpm.execute(Operation::assign(d0, front, pf, Value::number(150.0)))
            .unwrap();
        dpm.execute(Operation::assign(d1, deser, ps, Value::number(100.0)))
            .unwrap();
        dpm.execute(Operation::verify(d0, top)).unwrap();
        dpm.execute(Operation::assign(d1, deser, ps, Value::number(40.0)).with_repairs([budget]))
            .unwrap();
        dpm.execute(Operation::verify(d0, top)).unwrap();

        assert_eq!(sink.get(Counter::Operations), dpm.history().len() as u64);
        assert_eq!(
            sink.get(Counter::Evaluations),
            dpm.total_evaluations() as u64
        );
        assert_eq!(sink.get(Counter::Spins), dpm.spins() as u64);
        // Conventional mode never propagates.
        assert_eq!(sink.get(Counter::Propagations), 0);
        assert!(sink.get(Counter::Violations) >= 1);

        // ADPM mode: propagation counters flow through the same sink, and
        // evaluations still reconcile with the DPM's total (initialize's
        // setup propagation included).
        let (mut adpm, d0, _, _, front, _, pf, _, _) = fixture(ManagementMode::Adpm);
        let sink = Arc::new(InMemorySink::new());
        adpm.set_sink(sink.clone());
        adpm.initialize();
        adpm.execute(Operation::assign(d0, front, pf, Value::number(150.0)))
            .unwrap();
        assert_eq!(sink.get(Counter::Propagations), 2);
        assert_eq!(
            sink.get(Counter::Evaluations),
            adpm.total_evaluations() as u64
        );
        assert!(sink.get(Counter::Waves) >= 2);
        assert!(sink.get(Counter::Notifications) >= 1);
    }

    #[test]
    fn validate_operation_rejects_out_of_range_ids() {
        let (mut dpm, d0, _, top, front, _, pf, _, budget) = fixture(ManagementMode::Adpm);
        dpm.initialize();
        let ok = Operation::assign(d0, front, pf, Value::number(150.0));
        assert_eq!(dpm.validate_operation(&ok), Ok(()));

        let ghost_designer = DesignerId::new(99);
        assert_eq!(
            dpm.validate_operation(&Operation::assign(
                ghost_designer,
                front,
                pf,
                Value::number(1.0)
            )),
            Err(OperationError::UnknownDesigner(ghost_designer))
        );
        let ghost_problem = ProblemId::new(99);
        assert_eq!(
            dpm.validate_operation(&Operation::assign(
                d0,
                ghost_problem,
                pf,
                Value::number(1.0)
            )),
            Err(OperationError::UnknownProblem(ghost_problem))
        );
        let ghost_property = PropertyId::new(99);
        assert_eq!(
            dpm.validate_operation(&Operation::assign(
                d0,
                front,
                ghost_property,
                Value::number(1.0)
            )),
            Err(OperationError::UnknownProperty(ghost_property))
        );
        let ghost_constraint = ConstraintId::new(99);
        assert_eq!(
            dpm.validate_operation(&Operation::new(
                d0,
                top,
                Operator::Verify {
                    constraints: vec![ghost_constraint]
                },
            )),
            Err(OperationError::UnknownConstraint(ghost_constraint))
        );
        assert_eq!(
            dpm.validate_operation(&ok.clone().with_repairs([ghost_constraint])),
            Err(OperationError::UnknownConstraint(ghost_constraint))
        );
        // Repairs naming a real constraint pass.
        assert_eq!(dpm.validate_operation(&ok.with_repairs([budget])), Ok(()));
        // Errors render as human-readable text.
        assert!(OperationError::UnknownDesigner(ghost_designer)
            .to_string()
            .contains("designer"));
    }
}
