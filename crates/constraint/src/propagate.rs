//! Constraint propagation: the Design Constraint Manager's algorithm.
//!
//! ADPM's DCM "runs a constraint propagation algorithm to compute infeasible
//! property values and the status of all constraints" (paper §2.2). This
//! module implements that algorithm as HC4-revise (forward interval
//! evaluation of each constraint's expression tree followed by backward
//! projection of the relation onto every argument) inside an AC-3-style
//! worklist that re-queues a constraint whenever one of its arguments
//! narrows.
//!
//! The worklist revises through the flat interval programs the network
//! compiles at its structural edits (see [`crate::compile`]), against an
//! arena mirror of the current box loaded once per run. In test builds the
//! same run body also revises through the AST interpreter, the reference
//! whose fixed points the propagator must reproduce bit for bit. The
//! narrowing rule ([`significant_interval_narrowing`] for intervals) is
//! shared with the conflict-set checks of `mcs.rs`.
//!
//! Every HC4 revision of one constraint counts as one **constraint
//! evaluation** — the unit the paper uses as a proxy for verification-tool
//! runs — so [`PropagationOutcome::evaluations`] is directly comparable to
//! the conventional flow's explicit verification counts.
//!
//! The worst case is polynomial in the number of constraints and properties
//! (each queue pass can narrow a domain by at least the configured minimum
//! fraction), matching the complexity remark in the paper's §3.2.

use crate::arena::IntervalArena;
use crate::compile::{CompiledNetwork, ReviseScratch};
use crate::domain::Domain;
use crate::ids::{ConstraintId, PropertyId};
use crate::interval::Interval;
use crate::network::ConstraintNetwork;
use adpm_observe::{Clock, Counter, MetricsSink, MonotonicClock, NoopSink, SpanKind, TraceEvent};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Minimum relative width reduction for a narrowing to count (and
/// re-queue the constraints of the narrowed property).
const MIN_RELATIVE_NARROWING: f64 = 1e-6;

/// Tuning knob for the propagation fixed point.
#[derive(Debug, Clone, PartialEq)]
pub struct PropagationConfig {
    /// Hard cap on constraint evaluations per run, *including* the final
    /// status sweep: the worklist gets a budget of `max_evaluations` minus
    /// the sweep's size, so [`PropagationOutcome::evaluations`] never
    /// exceeds this value. (Degenerate configs smaller than the sweep
    /// itself still sweep — statuses must stay coherent — so the effective
    /// floor is one evaluation per swept constraint.) A run the cap stops
    /// leaves no clean fixed point, so the next region request runs full.
    pub max_evaluations: usize,
}

impl Default for PropagationConfig {
    fn default() -> Self {
        PropagationConfig {
            max_evaluations: 10_000,
        }
    }
}

/// Which propagation path produced an outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PropagationKind {
    /// From-scratch fixed point: the region of every property, so every
    /// feasible subspace is reset to `E_i` and every constraint seeded.
    #[default]
    Full,
    /// Region fixed point: only the properties an edit can move are reset
    /// and only the constraints touching them seeded (see
    /// [`propagate_incremental`]).
    Incremental,
}

impl PropagationKind {
    /// Stable lowercase name, used in traces and on the CLI.
    pub fn as_str(self) -> &'static str {
        match self {
            PropagationKind::Full => "full",
            PropagationKind::Incremental => "incremental",
        }
    }
}

impl std::str::FromStr for PropagationKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "full" => Ok(PropagationKind::Full),
            "incremental" => Ok(PropagationKind::Incremental),
            other => Err(format!(
                "unknown propagation kind `{other}` (expected `full` or `incremental`)"
            )),
        }
    }
}

impl fmt::Display for PropagationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Result of one propagation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PropagationOutcome {
    /// Which path actually ran. [`propagate_incremental`] reports
    /// [`PropagationKind::Full`] when the network held no clean fixed point
    /// to start from.
    pub kind: PropagationKind,
    /// Constraints seeded onto the initial worklist.
    pub seeded: usize,
    /// Number of constraint evaluations performed (HC4 revisions plus the
    /// final status sweep) — the paper's tool-run proxy.
    pub evaluations: usize,
    /// How many unbound properties, network-wide, end the run with a
    /// feasible subspace narrowed below their initial range
    /// ([`ConstraintNetwork::narrowed_count`]): the "reduction of a
    /// property's feasible subspace" events the Notification Manager
    /// reports.
    pub narrowed: usize,
    /// Constraints found unsatisfiable over the current box. A region run
    /// lists only its region's; the network's statuses hold every
    /// violation.
    pub conflicts: Vec<ConstraintId>,
    /// False only if `max_evaluations` stopped the run early.
    pub reached_fixpoint: bool,
    /// BFS levels the worklist took to drain: the constraints queued when a
    /// wave starts form that wave; constraints re-queued by its narrowings
    /// belong to the next. A direct measure of how far a change ripples.
    pub waves: usize,
    /// The run's region, in id order: the only properties whose feasible
    /// subspace it can have changed (every property for a full run).
    pub properties: Vec<PropertyId>,
    /// The constraints whose statuses the final sweep re-evaluated, in id
    /// order: the only statuses the run can have changed.
    pub swept: Vec<ConstraintId>,
}

/// Runs constraint propagation to a fixed point, narrowing every unbound
/// property's feasible subspace and refreshing all constraint statuses.
///
/// Feasible subspaces are recomputed from scratch (starting at `E_i`, or at
/// the bound value for bound properties) so that un-binding or re-binding a
/// property never leaves stale narrowings behind.
///
/// # Examples
///
/// ```
/// use adpm_constraint::{ConstraintNetwork, Property, Domain, Relation,
///                       propagate, PropagationConfig, expr::{var, cst}};
/// # fn main() -> Result<(), adpm_constraint::NetworkError> {
/// let mut net = ConstraintNetwork::new();
/// let x = net.add_property(Property::new("x", "o", Domain::interval(0.0, 10.0)))?;
/// net.add_constraint("cap", var(x), Relation::Le, cst(4.0))?;
/// let outcome = propagate(&mut net, &PropagationConfig::default());
/// assert!(outcome.reached_fixpoint);
/// assert_eq!(net.feasible(x), &Domain::interval(0.0, 4.0));
/// # Ok(())
/// # }
/// ```
pub fn propagate(net: &mut ConstraintNetwork, config: &PropagationConfig) -> PropagationOutcome {
    propagate_observed(net, config, &NoopSink)
}

/// [`propagate`], reporting per-wave spans and aggregate counters to `sink`.
///
/// Per-wave [`TraceEvent::PropagationWave`] events are only constructed when
/// `sink.is_enabled()`; with a [`NoopSink`] the instrumentation reduces to a
/// handful of local integer updates plus one `is_enabled` call per run, so
/// `propagate` delegates here unconditionally.
///
/// Counter semantics: `Evaluations`, `Waves`, `Conflicts`, and
/// `SeedConstraints` are bumped once at the end of the run by the outcome's
/// totals, `Narrowings` by the run's narrowing *events* (one per property ×
/// revision — exactly the sum of the per-wave `narrowed` fields), and
/// `Propagations` by one — so a sink shared across runs accumulates
/// network-wide totals without double counting.
pub fn propagate_observed(
    net: &mut ConstraintNetwork,
    config: &PropagationConfig,
    sink: &dyn MetricsSink,
) -> PropagationOutcome {
    propagate_profiled(net, config, sink, &MonotonicClock)
}

/// [`propagate_observed`], timing spans against an explicit [`Clock`].
///
/// With the real [`MonotonicClock`] the trace carries wall-clock `dur_us`
/// fields; with a [`ManualClock`](adpm_observe::ManualClock) the durations
/// are a deterministic function of the execution path, which keeps golden
/// traces byte-reproducible. The clock is only read when the sink is
/// enabled, so an untraced run makes zero clock calls.
pub fn propagate_profiled(
    net: &mut ConstraintNetwork,
    config: &PropagationConfig,
    sink: &dyn MetricsSink,
    clock: &dyn Clock,
) -> PropagationOutcome {
    let region = Region::everything(net);
    run_region::<CompiledReviser>(net, region, config, sink, clock)
}

/// Region propagation: re-derives only the part of the fixed point that
/// the changes since the last propagation can move.
///
/// `dirty` lists the properties changed since the last propagation; the
/// network's own dirty tracking (every property bound or unbound since the
/// last clean fixed point) is unioned in, so under-reporting cannot miss
/// work. The region is a walk from the dirty properties that crosses
/// constraints and stops at bound properties. Its unbound properties are
/// reset to `E_i` and its bound ones pinned to their values, its
/// constraints are seeded in id order on the worklist a full run uses, and
/// the status sweep covers them plus any status overwritten out of band.
///
/// A bound property is a singleton no revision moves, so no constraint
/// outside the region touches a property inside it, and a full run's
/// revisions of the region's constraints are exactly this run's: a FIFO
/// worklist restricted to a subset of its entries is still FIFO. Outside
/// the region the last fixed point already holds. The result therefore
/// equals a from-scratch [`propagate`] bit for bit — conflicts and the
/// narrowing threshold included — except that
/// [`PropagationOutcome::conflicts`] lists only the region's.
///
/// The last run must have left a clean fixed point: it reached its fixed
/// point within the cap, and no structural edit (`add_property`,
/// `add_constraint`, `relax_constraint`) or `reset_feasible` came after.
/// Otherwise the region is the whole network and the outcome reports
/// [`PropagationKind::Full`].
///
/// # Panics
///
/// Panics if a dirty id does not belong to this network.
///
/// # Examples
///
/// ```
/// use adpm_constraint::{ConstraintNetwork, Property, Domain, Relation, Value,
///                       propagate, propagate_incremental, PropagationConfig,
///                       PropagationKind, expr::{var, cst}};
/// use adpm_observe::NoopSink;
/// # fn main() -> Result<(), adpm_constraint::NetworkError> {
/// let mut net = ConstraintNetwork::new();
/// let x = net.add_property(Property::new("x", "o", Domain::interval(0.0, 10.0)))?;
/// let y = net.add_property(Property::new("y", "o", Domain::interval(0.0, 10.0)))?;
/// net.add_constraint("sum", var(x) + var(y), Relation::Le, cst(12.0))?;
/// let config = PropagationConfig::default();
/// propagate(&mut net, &config); // establish the first fixed point
/// net.bind(x, Value::number(9.0))?;
/// let out = propagate_incremental(&mut net, &[x], &config, &NoopSink);
/// assert_eq!(out.kind, PropagationKind::Incremental);
/// assert_eq!(net.feasible(y), &Domain::interval(0.0, 3.0));
/// # Ok(())
/// # }
/// ```
pub fn propagate_incremental(
    net: &mut ConstraintNetwork,
    dirty: &[PropertyId],
    config: &PropagationConfig,
    sink: &dyn MetricsSink,
) -> PropagationOutcome {
    propagate_incremental_profiled(net, dirty, config, sink, &MonotonicClock)
}

/// [`propagate_incremental`], timing spans against an explicit [`Clock`]
/// (see [`propagate_profiled`]).
pub fn propagate_incremental_profiled(
    net: &mut ConstraintNetwork,
    dirty: &[PropertyId],
    config: &PropagationConfig,
    sink: &dyn MetricsSink,
    clock: &dyn Clock,
) -> PropagationOutcome {
    let region = Region::around(net, dirty);
    run_region::<CompiledReviser>(net, region, config, sink, clock)
}

/// How the worklist revises one constraint: the network's compiled
/// programs in production ([`CompiledReviser`]), the AST interpreter as the
/// fixed-point reference in tests.
trait Reviser {
    /// Prepares a run of `region` starting from `net`'s current box (called
    /// after bound properties are pinned).
    fn load(net: &ConstraintNetwork, region: &Region) -> Self;
    /// One HC4 revision of constraint `cid` against the current box: its
    /// narrowed arguments go to `narrowed` (cleared first); returns whether
    /// it conflicts.
    fn revise(
        &mut self,
        net: &ConstraintNetwork,
        cid: ConstraintId,
        narrowed: &mut Vec<(PropertyId, Interval)>,
    ) -> bool;
    /// `pid`'s feasible subspace in `net` just narrowed.
    fn narrowed(&mut self, net: &ConstraintNetwork, pid: PropertyId);
}

/// The network's compiled programs (shared, never recompiled here) revised
/// against an arena mirror of the box, loaded once per run: the whole box
/// for a full run, the arguments of the region's constraints otherwise.
struct CompiledReviser {
    programs: Arc<CompiledNetwork>,
    arena: IntervalArena,
    scratch: ReviseScratch,
}

impl Reviser for CompiledReviser {
    fn load(net: &ConstraintNetwork, region: &Region) -> Self {
        let programs = Arc::clone(net.programs());
        let constraints = match region.kind {
            PropagationKind::Full => None,
            PropagationKind::Incremental => Some(&region.constraints[..]),
        };
        CompiledReviser {
            arena: programs.load_arena(net, constraints),
            programs,
            scratch: ReviseScratch::new(),
        }
    }

    fn revise(
        &mut self,
        _net: &ConstraintNetwork,
        cid: ConstraintId,
        narrowed: &mut Vec<(PropertyId, Interval)>,
    ) -> bool {
        self.programs
            .revise(cid, &self.arena, &mut self.scratch, narrowed)
    }

    fn narrowed(&mut self, net: &ConstraintNetwork, pid: PropertyId) {
        self.arena.set(pid, net.effective_interval(pid));
    }
}

/// The part of the network one run re-derives: its properties and the
/// constraints touching them, both in id order.
struct Region {
    kind: PropagationKind,
    properties: Vec<PropertyId>,
    constraints: Vec<ConstraintId>,
}

impl Region {
    /// Every property and constraint: a full run.
    fn everything(net: &ConstraintNetwork) -> Self {
        Region {
            kind: PropagationKind::Full,
            properties: net.property_ids().collect(),
            constraints: net.constraint_ids().collect(),
        }
    }

    /// The walk from `dirty` and the network's dirty properties that
    /// crosses constraints and stops at bound properties (see
    /// [`propagate_incremental`]); everything when the network holds no
    /// clean fixed point.
    fn around(net: &mut ConstraintNetwork, dirty: &[PropertyId]) -> Self {
        if !net.fixpoint_clean() {
            return Region::everything(net);
        }
        let (properties, constraints) = net.walk_region(dirty);
        Region {
            kind: PropagationKind::Incremental,
            properties,
            constraints,
        }
    }
}

/// Propagates `region` to its fixed point with reviser `R`: resets its
/// properties (initial ranges, bound values pinned), drains the worklist
/// seeded with its constraints, and sweeps their statuses plus any
/// overwritten out of band. The sweep is reserved inside the cap.
fn run_region<R: Reviser>(
    net: &mut ConstraintNetwork,
    region: Region,
    config: &PropagationConfig,
    sink: &dyn MetricsSink,
    clock: &dyn Clock,
) -> PropagationOutcome {
    let trace = sink.is_enabled();
    let profile = trace && sink.wants_profiles();
    let started = if trace { clock.now_us() } else { 0 };

    for pid in &region.properties {
        let domain = match net.assignment(*pid) {
            Some(value) => Domain::singleton(value),
            None => net.property(*pid).initial_domain().clone(),
        };
        net.set_feasible(*pid, domain);
    }

    let mut sweep = region.constraints.clone();
    if !net.stale_statuses().is_empty() {
        sweep.extend(net.stale_statuses().iter().copied());
        sweep.sort_unstable();
        sweep.dedup();
    }
    let budget = config.max_evaluations.saturating_sub(sweep.len());
    let mut reviser = R::load(net, &region);
    let mut run = run_worklist(
        net,
        &region.constraints,
        budget,
        trace,
        profile,
        clock,
        &mut reviser,
    );

    // Final status sweep over the narrowed box: each swept constraint is
    // checked once, so attribution charges each one evaluation.
    let sweep_evaluations = net.evaluate_statuses_subset(&sweep);
    if profile {
        for cid in &sweep {
            run.constraint_evals[cid.index()] += 1;
        }
    }
    let outcome = PropagationOutcome {
        kind: region.kind,
        seeded: region.constraints.len(),
        evaluations: run.evaluations + sweep_evaluations,
        narrowed: net.narrowed_count(),
        conflicts: std::mem::take(&mut run.conflicts),
        reached_fixpoint: run.reached_fixpoint,
        waves: run.waves,
        properties: region.properties,
        swept: sweep,
    };
    net.mark_fixpoint(outcome.reached_fixpoint);

    let dur_us = if trace {
        clock.now_us().saturating_sub(started)
    } else {
        0
    };
    emit_run(sink, trace, profile, net, &run, &outcome, dur_us);
    outcome
}

/// One wave span, buffered until the run's end so the trace lists a run's
/// waves together ahead of its profile and `propagation` lines.
struct WaveRecord {
    wave: u32,
    queue_len: u32,
    evaluations: u64,
    narrowed: u32,
    dur_us: u64,
}

/// Result of draining one AC-3 worklist.
struct WorklistRun {
    evaluations: usize,
    waves: usize,
    conflicts: Vec<ConstraintId>,
    /// Narrowing events: one per (property, revision) that significantly
    /// narrowed — the per-wave `narrowed` counts sum to this.
    narrowing_events: u64,
    reached_fixpoint: bool,
    wave_records: Vec<WaveRecord>,
    /// HC4 revisions per constraint (indexed by `ConstraintId::index`);
    /// populated only when `record_profiles` is set.
    constraint_evals: Vec<u64>,
    /// Narrowing events per property (indexed by `PropertyId::index`);
    /// populated only when `record_profiles` is set.
    property_narrowings: Vec<u64>,
}

/// Drains an AC-3 worklist seeded with `seeds` to a fixed point (or until
/// `budget` HC4 revisions), narrowing feasible subspaces in place. A
/// conflict is recorded and the run goes on: the conflicted constraint
/// narrows nothing.
fn run_worklist<R: Reviser>(
    net: &mut ConstraintNetwork,
    seeds: &[ConstraintId],
    budget: usize,
    record_waves: bool,
    record_profiles: bool,
    clock: &dyn Clock,
    reviser: &mut R,
) -> WorklistRun {
    let mut run = WorklistRun {
        evaluations: 0,
        waves: 0,
        conflicts: Vec::new(),
        narrowing_events: 0,
        reached_fixpoint: true,
        wave_records: Vec::new(),
        constraint_evals: if record_profiles {
            vec![0; net.constraint_count()]
        } else {
            Vec::new()
        },
        property_narrowings: if record_profiles {
            vec![0; net.property_count()]
        } else {
            Vec::new()
        },
    };
    let mut queue: VecDeque<ConstraintId> = seeds.iter().copied().collect();
    let mut in_queue = vec![false; net.constraint_count()];
    for cid in seeds {
        in_queue[cid.index()] = true;
    }
    let mut conflicted = vec![false; net.constraint_count()];
    // One revision's narrowed arguments, reused across the run.
    let mut narrowed = Vec::new();

    // Wave bookkeeping: the constraints queued when a wave starts belong to
    // it; anything they re-queue belongs to the next wave (BFS levels).
    let mut wave_remaining = queue.len();
    let mut wave_queue_len = queue.len();
    let mut wave_evaluations: u64 = 0;
    let mut wave_narrowings: u32 = 0;
    let mut wave_started = if record_waves { clock.now_us() } else { 0 };

    while let Some(cid) = queue.pop_front() {
        in_queue[cid.index()] = false;
        if run.evaluations >= budget {
            run.reached_fixpoint = false;
            break;
        }
        run.evaluations += 1;
        wave_evaluations += 1;
        if record_profiles {
            run.constraint_evals[cid.index()] += 1;
        }

        if reviser.revise(net, cid, &mut narrowed) {
            if !conflicted[cid.index()] {
                conflicted[cid.index()] = true;
                run.conflicts.push(cid);
            }
        } else {
            for &(pid, narrowed_iv) in &narrowed {
                if net.is_bound(pid) {
                    continue; // bound properties stay pinned to their value
                }
                let old = net.feasible(pid);
                let new = old.narrow_to_interval(&narrowed_iv);
                if significant_narrowing(old, &new) {
                    net.set_feasible(pid, new);
                    reviser.narrowed(net, pid);
                    run.narrowing_events += 1;
                    wave_narrowings += 1;
                    if record_profiles {
                        run.property_narrowings[pid.index()] += 1;
                    }
                    for dep in net.constraints_of(pid) {
                        if !in_queue[dep.index()] {
                            in_queue[dep.index()] = true;
                            queue.push_back(*dep);
                        }
                    }
                }
            }
        }

        wave_remaining -= 1;
        if wave_remaining == 0 {
            if record_waves {
                let now = clock.now_us();
                run.wave_records.push(WaveRecord {
                    wave: run.waves as u32,
                    queue_len: wave_queue_len as u32,
                    evaluations: wave_evaluations,
                    narrowed: wave_narrowings,
                    dur_us: now.saturating_sub(wave_started),
                });
                wave_started = now;
            }
            run.waves += 1;
            wave_remaining = queue.len();
            wave_queue_len = queue.len();
            wave_evaluations = 0;
            wave_narrowings = 0;
        }
    }
    // A wave cut short by the budget still counts.
    if wave_evaluations > 0 {
        if record_waves {
            run.wave_records.push(WaveRecord {
                wave: run.waves as u32,
                queue_len: wave_queue_len as u32,
                evaluations: wave_evaluations,
                narrowed: wave_narrowings,
                dur_us: clock.now_us().saturating_sub(wave_started),
            });
        }
        run.waves += 1;
    }
    run
}

/// Emits the buffered wave spans, per-constraint / per-property profile
/// attribution (when `profile`: the sink wants it), the run counters, and
/// the `PropagationDone` span for one run.
fn emit_run(
    sink: &dyn MetricsSink,
    trace: bool,
    profile: bool,
    net: &ConstraintNetwork,
    run: &WorklistRun,
    outcome: &PropagationOutcome,
    dur_us: u64,
) {
    if trace {
        for w in &run.wave_records {
            sink.record(&TraceEvent::PropagationWave {
                wave: w.wave,
                queue_len: w.queue_len,
                evaluations: w.evaluations,
                narrowed: w.narrowed,
                dur_us: w.dur_us,
            });
            sink.time(SpanKind::Wave, w.dur_us);
        }
    }
    if profile {
        for cid in net.constraint_ids() {
            let evaluations = run.constraint_evals[cid.index()];
            if evaluations > 0 {
                sink.record(&TraceEvent::ConstraintProfile {
                    name: net.constraint(cid).name(),
                    evaluations,
                    conflict: outcome.conflicts.contains(&cid),
                });
            }
        }
        for pid in net.property_ids() {
            let narrowings = run.property_narrowings[pid.index()];
            if narrowings > 0 {
                sink.record(&TraceEvent::PropertyProfile {
                    name: net.property(pid).qualified_name(),
                    narrowings,
                });
            }
        }
    }
    sink.incr(Counter::Propagations, 1);
    sink.incr(Counter::Evaluations, outcome.evaluations as u64);
    sink.incr(Counter::Waves, outcome.waves as u64);
    sink.incr(Counter::Narrowings, run.narrowing_events);
    sink.incr(Counter::Conflicts, outcome.conflicts.len() as u64);
    sink.incr(Counter::SeedConstraints, outcome.seeded as u64);
    if trace {
        sink.record(&TraceEvent::PropagationDone {
            kind: outcome.kind.as_str(),
            seeded: outcome.seeded as u32,
            waves: outcome.waves as u32,
            evaluations: outcome.evaluations as u64,
            narrowed: outcome.narrowed as u32,
            conflicts: outcome.conflicts.len() as u32,
            fixpoint: outcome.reached_fixpoint,
            dur_us,
        });
        sink.time(SpanKind::Propagation, dur_us);
    }
}

/// Whether narrowing `old` to `new` (a subset) counts: re-queues the
/// constraints of the narrowed property here, and moves the box of a
/// conflict-set check. A finite interval must lose more than
/// [`MIN_RELATIVE_NARROWING`] of `1 + width`; an unbounded one, whose width
/// difference is `∞ − ∞`, must see a bound move inward by more than that
/// fraction of `1 + |new bound|`.
pub(crate) fn significant_interval_narrowing(old: &Interval, new: &Interval) -> bool {
    if new.is_empty() {
        return !old.is_empty();
    }
    let width = old.width();
    if width.is_finite() {
        return width - new.width() > MIN_RELATIVE_NARROWING * (1.0 + width);
    }
    let inward = |moved: f64, bound: f64| moved > MIN_RELATIVE_NARROWING * (1.0 + bound.abs());
    inward(new.lo() - old.lo(), new.lo()) || inward(old.hi() - new.hi(), new.hi())
}

fn significant_narrowing(old: &Domain, new: &Domain) -> bool {
    if let (Domain::Interval(old), Domain::Interval(new)) = (old, new) {
        return significant_interval_narrowing(old, new);
    }
    if new.is_empty() && !old.is_empty() {
        return true;
    }
    let (old_m, new_m) = (old.measure(), new.measure());
    old_m - new_m > MIN_RELATIVE_NARROWING * (1.0 + old_m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{ConstraintStatus, Relation, EQ_TOL};
    use crate::expr::{cst, var, Expr};
    use crate::interp::hc4_revise;
    use crate::network::Property;
    use crate::value::Value;
    use proptest::prelude::*;

    fn net_with(domains: &[(f64, f64)]) -> (ConstraintNetwork, Vec<PropertyId>) {
        let mut net = ConstraintNetwork::new();
        let ids = domains
            .iter()
            .enumerate()
            .map(|(i, (lo, hi))| {
                net.add_property(Property::new(
                    format!("x{i}"),
                    "obj",
                    Domain::interval(*lo, *hi),
                ))
                .unwrap()
            })
            .collect();
        (net, ids)
    }

    #[test]
    fn upper_bound_constraint_narrows_domain() {
        let (mut net, ids) = net_with(&[(0.0, 10.0)]);
        net.add_constraint("cap", var(ids[0]), Relation::Le, cst(4.0))
            .unwrap();
        let out = propagate(&mut net, &PropagationConfig::default());
        assert!(out.reached_fixpoint);
        assert!(out.conflicts.is_empty());
        assert_eq!(net.feasible(ids[0]), &Domain::interval(0.0, 4.0));
        assert_eq!(out.narrowed, 1);
        assert!(out.evaluations >= 2); // at least one revise + status sweep
    }

    #[test]
    fn sum_constraint_narrows_both_sides() {
        // x + y <= 5 with x in [0,10], y in [3,10]:
        // x <= 2, y stays [3,5].
        let (mut net, ids) = net_with(&[(0.0, 10.0), (3.0, 10.0)]);
        net.add_constraint("sum", var(ids[0]) + var(ids[1]), Relation::Le, cst(5.0))
            .unwrap();
        propagate(&mut net, &PropagationConfig::default());
        assert_eq!(net.feasible(ids[0]), &Domain::interval(0.0, 2.0));
        assert_eq!(net.feasible(ids[1]), &Domain::interval(3.0, 5.0));
    }

    #[test]
    fn binding_pins_value_and_narrows_neighbours() {
        // The paper's receiver power budget: P_f + P_s <= 200 with
        // P_f bound to 150 narrows P_s to [0, 50].
        let (mut net, ids) = net_with(&[(0.0, 300.0), (0.0, 300.0)]);
        net.add_constraint("power", var(ids[0]) + var(ids[1]), Relation::Le, cst(200.0))
            .unwrap();
        net.bind(ids[0], Value::number(150.0)).unwrap();
        propagate(&mut net, &PropagationConfig::default());
        assert_eq!(net.feasible(ids[0]), &Domain::interval(150.0, 150.0));
        assert_eq!(net.feasible(ids[1]), &Domain::interval(0.0, 50.0));
    }

    #[test]
    fn chained_constraints_reach_fixpoint_across_constraints() {
        // x <= y, y <= z, z <= 3, all in [0,10]: everything collapses to <= 3.
        let (mut net, ids) = net_with(&[(0.0, 10.0), (0.0, 10.0), (0.0, 10.0)]);
        net.add_constraint("xy", var(ids[0]), Relation::Le, var(ids[1]))
            .unwrap();
        net.add_constraint("yz", var(ids[1]), Relation::Le, var(ids[2]))
            .unwrap();
        net.add_constraint("z3", var(ids[2]), Relation::Le, cst(3.0))
            .unwrap();
        let out = propagate(&mut net, &PropagationConfig::default());
        assert!(out.reached_fixpoint);
        for pid in &ids {
            assert_eq!(net.feasible(*pid), &Domain::interval(0.0, 3.0));
        }
    }

    #[test]
    fn ge_constraint_raises_lower_bound() {
        let (mut net, ids) = net_with(&[(0.0, 100.0)]);
        net.add_constraint("gain", var(ids[0]), Relation::Ge, cst(48.0))
            .unwrap();
        propagate(&mut net, &PropagationConfig::default());
        assert_eq!(net.feasible(ids[0]), &Domain::interval(48.0, 100.0));
    }

    #[test]
    fn eq_constraint_pins_to_tolerance_band() {
        let (mut net, ids) = net_with(&[(0.0, 100.0)]);
        net.add_constraint("match", var(ids[0]), Relation::Eq, cst(50.0))
            .unwrap();
        propagate(&mut net, &PropagationConfig::default());
        let d = net.feasible(ids[0]);
        let iv = d.enclosing_interval().unwrap();
        assert!(iv.contains(50.0));
        assert!(iv.width() <= 2.0 * EQ_TOL + 1e-12);
    }

    #[test]
    fn multiplication_projection() {
        // x * y >= 8 with x in [1,2] forces y >= 4.
        let (mut net, ids) = net_with(&[(1.0, 2.0), (0.0, 100.0)]);
        net.add_constraint("prod", var(ids[0]) * var(ids[1]), Relation::Ge, cst(8.0))
            .unwrap();
        propagate(&mut net, &PropagationConfig::default());
        let y = net.feasible(ids[1]).enclosing_interval().unwrap();
        assert!((y.lo() - 4.0).abs() < 1e-9, "y = {y}");
    }

    #[test]
    fn division_projection() {
        // x / y <= 2 with x in [8,10], y in [1,100] forces y >= 4.
        let (mut net, ids) = net_with(&[(8.0, 10.0), (1.0, 100.0)]);
        net.add_constraint("ratio", var(ids[0]) / var(ids[1]), Relation::Le, cst(2.0))
            .unwrap();
        propagate(&mut net, &PropagationConfig::default());
        let y = net.feasible(ids[1]).enclosing_interval().unwrap();
        assert!(y.lo() >= 4.0 - 1e-9, "y = {y}");
    }

    #[test]
    fn square_projection_keeps_both_branches() {
        // x^2 <= 4 over [-10, 10] narrows to [-2, 2].
        let (mut net, ids) = net_with(&[(-10.0, 10.0)]);
        net.add_constraint("sq", var(ids[0]).powi(2), Relation::Le, cst(4.0))
            .unwrap();
        propagate(&mut net, &PropagationConfig::default());
        assert_eq!(net.feasible(ids[0]), &Domain::interval(-2.0, 2.0));
    }

    #[test]
    fn sqrt_projection() {
        // sqrt(x) >= 3 narrows x to [9, 100].
        let (mut net, ids) = net_with(&[(0.0, 100.0)]);
        net.add_constraint("s", var(ids[0]).sqrt(), Relation::Ge, cst(3.0))
            .unwrap();
        propagate(&mut net, &PropagationConfig::default());
        let x = net.feasible(ids[0]).enclosing_interval().unwrap();
        assert!((x.lo() - 9.0).abs() < 1e-6, "x = {x}");
    }

    #[test]
    fn conflict_is_reported_not_cascaded() {
        // x >= 8 and x <= 2 cannot both hold; the run flags a conflict but
        // leaves the other property untouched.
        let (mut net, ids) = net_with(&[(0.0, 10.0), (0.0, 10.0)]);
        net.add_constraint("lo", var(ids[0]), Relation::Ge, cst(8.0))
            .unwrap();
        net.add_constraint("hi", var(ids[0]), Relation::Le, cst(2.0))
            .unwrap();
        let out = propagate(&mut net, &PropagationConfig::default());
        assert!(!out.conflicts.is_empty());
        assert_eq!(net.feasible(ids[1]), &Domain::interval(0.0, 10.0));
    }

    #[test]
    fn unbounded_domains_narrow_and_conflict() {
        // x <= 5 narrows (-inf, inf) to (-inf, 5]; x >= 7 then conflicts.
        let (mut net, ids) = net_with(&[(f64::NEG_INFINITY, f64::INFINITY)]);
        let lo = net
            .add_constraint("Lo", var(ids[0]), Relation::Le, cst(5.0))
            .unwrap();
        let hi = net
            .add_constraint("Hi", var(ids[0]), Relation::Ge, cst(7.0))
            .unwrap();
        let out = propagate(&mut net, &PropagationConfig::default());
        assert_eq!(
            net.feasible(ids[0]),
            &Domain::interval(f64::NEG_INFINITY, 5.0)
        );
        assert_eq!(out.conflicts, vec![hi]);
        assert_eq!(net.status(lo), ConstraintStatus::Satisfied);
        assert_eq!(net.status(hi), ConstraintStatus::Violated);
    }

    #[test]
    fn interval_narrowing_rule_covers_unbounded_bounds() {
        let iv = Interval::new;
        let inf = f64::INFINITY;
        // Finite widths: the relative width rule.
        assert!(significant_interval_narrowing(
            &iv(0.0, 10.0),
            &iv(0.0, 9.0)
        ));
        assert!(!significant_interval_narrowing(
            &iv(0.0, 10.0),
            &iv(0.0, 10.0 - 1e-6)
        ));
        // Unbounded: a bound that moves inward counts, a finite bound must
        // move by more than the relative step.
        assert!(significant_interval_narrowing(
            &iv(-inf, inf),
            &iv(-inf, 5.0)
        ));
        assert!(significant_interval_narrowing(
            &iv(0.0, inf),
            &iv(0.0, 1e300)
        ));
        assert!(significant_interval_narrowing(&iv(0.0, inf), &iv(1.0, inf)));
        assert!(!significant_interval_narrowing(
            &iv(0.0, inf),
            &iv(1e-7, inf)
        ));
        assert!(!significant_interval_narrowing(
            &iv(-inf, inf),
            &iv(-inf, inf)
        ));
        // Emptying always counts.
        assert!(significant_interval_narrowing(
            &iv(-inf, inf),
            &Interval::EMPTY
        ));
        assert!(!significant_interval_narrowing(
            &Interval::EMPTY,
            &Interval::EMPTY
        ));
    }

    #[test]
    fn violated_binding_marks_conflicts_and_status() {
        let (mut net, ids) = net_with(&[(0.0, 10.0)]);
        let c = net
            .add_constraint("cap", var(ids[0]), Relation::Le, cst(4.0))
            .unwrap();
        net.bind(ids[0], Value::number(9.0)).unwrap();
        let out = propagate(&mut net, &PropagationConfig::default());
        assert_eq!(out.conflicts, vec![c]);
        assert_eq!(net.status(c), ConstraintStatus::Violated);
    }

    #[test]
    fn discrete_number_set_is_filtered() {
        let mut net = ConstraintNetwork::new();
        let x = net
            .add_property(Property::new(
                "beams",
                "filter",
                Domain::number_set([1.0, 2.0, 4.0, 8.0]),
            ))
            .unwrap();
        net.add_constraint("cap", var(x), Relation::Le, cst(5.0))
            .unwrap();
        propagate(&mut net, &PropagationConfig::default());
        assert_eq!(net.feasible(x), &Domain::NumberSet(vec![1.0, 2.0, 4.0]));
    }

    #[test]
    fn evaluation_cap_stops_early() {
        let (mut net, ids) = net_with(&[(0.0, 10.0), (0.0, 10.0)]);
        net.add_constraint("sum", var(ids[0]) + var(ids[1]), Relation::Le, cst(5.0))
            .unwrap();
        let out = propagate(&mut net, &PropagationConfig { max_evaluations: 0 });
        assert!(!out.reached_fixpoint);
    }

    #[test]
    fn repropagation_after_unbind_restores_width() {
        let (mut net, ids) = net_with(&[(0.0, 300.0), (0.0, 300.0)]);
        net.add_constraint("power", var(ids[0]) + var(ids[1]), Relation::Le, cst(200.0))
            .unwrap();
        net.bind(ids[0], Value::number(150.0)).unwrap();
        propagate(&mut net, &PropagationConfig::default());
        assert_eq!(net.feasible(ids[1]), &Domain::interval(0.0, 50.0));
        net.unbind(ids[0]).unwrap();
        propagate(&mut net, &PropagationConfig::default());
        // With P_f free again, P_s relaxes back to [0, 200].
        assert_eq!(net.feasible(ids[1]), &Domain::interval(0.0, 200.0));
    }

    #[test]
    fn min_max_projections() {
        // max(x, 3) <= 4 forces x <= 4; min(x, 3) >= 2 forces x >= 2.
        let (mut net, ids) = net_with(&[(0.0, 10.0), (0.0, 10.0)]);
        net.add_constraint("mx", var(ids[0]).max(cst(3.0)), Relation::Le, cst(4.0))
            .unwrap();
        net.add_constraint("mn", var(ids[1]).min(cst(3.0)), Relation::Ge, cst(2.0))
            .unwrap();
        propagate(&mut net, &PropagationConfig::default());
        let x = net.feasible(ids[0]).enclosing_interval().unwrap();
        let y = net.feasible(ids[1]).enclosing_interval().unwrap();
        assert!(x.hi() <= 4.0 + 1e-9);
        assert!(y.lo() >= 2.0 - 1e-9);
    }

    #[test]
    fn waves_count_bfs_levels_and_reach_the_sink() {
        use adpm_observe::{Counter, InMemorySink};

        // The chain x <= y <= z <= 3 needs the z3 narrowing to ripple back,
        // so the worklist takes several waves; a single independent cap
        // drains in one or two.
        let (mut net, ids) = net_with(&[(0.0, 10.0), (0.0, 10.0), (0.0, 10.0)]);
        net.add_constraint("xy", var(ids[0]), Relation::Le, var(ids[1]))
            .unwrap();
        net.add_constraint("yz", var(ids[1]), Relation::Le, var(ids[2]))
            .unwrap();
        net.add_constraint("z3", var(ids[2]), Relation::Le, cst(3.0))
            .unwrap();
        let sink = InMemorySink::new();
        let out = propagate_observed(&mut net, &PropagationConfig::default(), &sink);
        assert!(out.waves >= 2, "chain drained in {} wave(s)", out.waves);
        assert_eq!(sink.get(Counter::Waves), out.waves as u64);
        assert_eq!(sink.get(Counter::Evaluations), out.evaluations as u64);
        assert_eq!(sink.get(Counter::Propagations), 1);
        assert_eq!(sink.get(Counter::SeedConstraints), 3);
        // Narrowings counts events (property × revision), so it dominates
        // the count of distinct narrowed properties.
        assert!(sink.get(Counter::Narrowings) >= out.narrowed as u64);
        assert_eq!(sink.get(Counter::Conflicts), 0);

        let (mut simple, ids) = net_with(&[(0.0, 10.0)]);
        simple
            .add_constraint("cap", var(ids[0]), Relation::Le, cst(4.0))
            .unwrap();
        let simple_out = propagate(&mut simple, &PropagationConfig::default());
        assert!(simple_out.waves <= 2);
        assert!(out.waves >= simple_out.waves);
    }

    #[test]
    fn per_wave_events_sum_to_the_run_totals() {
        use adpm_observe::JsonlSink;
        use std::sync::{Arc, Mutex};

        #[derive(Clone, Default)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Buf {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let (mut net, ids) = net_with(&[(0.0, 10.0), (0.0, 10.0), (0.0, 10.0)]);
        net.add_constraint("xy", var(ids[0]), Relation::Le, var(ids[1]))
            .unwrap();
        net.add_constraint("yz", var(ids[1]), Relation::Le, var(ids[2]))
            .unwrap();
        net.add_constraint("z3", var(ids[2]), Relation::Le, cst(3.0))
            .unwrap();
        let buf = Buf::default();
        let sink = JsonlSink::new(Box::new(buf.clone()));
        let out = propagate_observed(&mut net, &PropagationConfig::default(), &sink);
        sink.finish().unwrap();
        drop(sink);

        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines = adpm_observe::parse_trace(&text).unwrap();
        let waves: Vec<_> = lines.iter().filter(|l| l.tag() == "wave").collect();
        assert_eq!(waves.len(), out.waves);
        let wave_evals: u64 = waves
            .iter()
            .map(|l| l.u64_field("evaluations").unwrap())
            .sum();
        let done = lines.iter().find(|l| l.tag() == "propagation").unwrap();
        // The propagation line's total includes the final status sweep, the
        // per-wave lines only the worklist revisions.
        assert_eq!(done.u64_field("evaluations"), Some(out.evaluations as u64));
        assert!(wave_evals <= out.evaluations as u64);
        assert_eq!(done.bool_field("fixpoint"), Some(true));
        assert_eq!(done.str_field("kind"), Some("full"));
        assert_eq!(done.u64_field("seeded"), Some(3));
        for (i, w) in waves.iter().enumerate() {
            assert_eq!(w.u64_field("wave"), Some(i as u64));
        }
        // The Narrowings counter aggregates narrowing events — exactly the
        // sum of the per-wave `narrowed` fields.
        let wave_narrowings: u64 = waves.iter().map(|l| l.u64_field("narrowed").unwrap()).sum();
        let counters = lines.iter().find(|l| l.tag() == "counters").unwrap();
        assert_eq!(counters.u64_field("narrowings"), Some(wave_narrowings));
    }

    #[test]
    fn profiles_are_built_only_for_sinks_that_want_them() {
        use adpm_observe::{
            FlightRecorder, InMemorySink, JsonlSink, MetricsSink, SpanKind, TeeSink,
        };
        use std::sync::{Arc, Mutex};

        #[derive(Clone, Default)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Buf {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let chain = || {
            let (mut net, ids) = net_with(&[(0.0, 10.0), (0.0, 10.0), (0.0, 10.0)]);
            net.add_constraint("xy", var(ids[0]), Relation::Le, var(ids[1]))
                .unwrap();
            net.add_constraint("yz", var(ids[1]), Relation::Le, var(ids[2]))
                .unwrap();
            net.add_constraint("z3", var(ids[2]), Relation::Le, cst(3.0))
                .unwrap();
            net
        };
        let memory = Arc::new(InMemorySink::new());
        let recorder = Arc::new(FlightRecorder::default());
        let buf = Buf::default();
        let jsonl = Arc::new(JsonlSink::new(Box::new(buf.clone())));
        let quiet = TeeSink::new(vec![
            memory.clone() as Arc<dyn MetricsSink>,
            recorder.clone() as Arc<dyn MetricsSink>,
        ]);
        assert!(quiet.is_enabled() && !quiet.wants_profiles());
        let out = propagate_observed(&mut chain(), &PropagationConfig::default(), &quiet);
        // Spans and their timings still reach the quiet sinks.
        assert_eq!(memory.events_recorded(), out.waves as u64 + 1);
        assert_eq!(memory.histogram(SpanKind::Propagation).count(), 1);
        assert_eq!(recorder.len(), out.waves + 1);

        let traced = TeeSink::new(vec![memory.clone() as Arc<dyn MetricsSink>, jsonl.clone()]);
        assert!(traced.wants_profiles());
        memory.reset();
        let out = propagate_observed(&mut chain(), &PropagationConfig::default(), &traced);
        jsonl.finish().unwrap();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines = adpm_observe::parse_trace(&text).unwrap();
        let cprof: u64 = lines
            .iter()
            .filter(|l| l.tag() == "cprof")
            .map(|l| l.u64_field("evaluations").unwrap())
            .sum();
        assert_eq!(
            cprof, out.evaluations as u64,
            "the trace keeps full attribution"
        );
        assert!(lines.iter().any(|l| l.tag() == "pprof"));
        assert_eq!(memory.events_recorded(), out.waves as u64 + 1);
    }

    #[test]
    fn statuses_after_propagation_use_narrowed_box() {
        // After narrowing, x <= 4 becomes formally Satisfied (not just
        // Consistent) because the whole feasible box satisfies it.
        let (mut net, ids) = net_with(&[(0.0, 10.0)]);
        let c = net
            .add_constraint("cap", var(ids[0]), Relation::Le, cst(4.0))
            .unwrap();
        propagate(&mut net, &PropagationConfig::default());
        assert_eq!(net.status(c), ConstraintStatus::Satisfied);
    }

    /// Pins the cap boundary: `max_evaluations` is a true ceiling on
    /// `outcome.evaluations` (the final status sweep is accounted under
    /// it), and the exact total of an uncapped run is the tight bound.
    #[test]
    fn evaluation_cap_includes_the_status_sweep() {
        let chain = || {
            let (mut net, ids) = net_with(&[(0.0, 10.0), (0.0, 10.0), (0.0, 10.0)]);
            net.add_constraint("xy", var(ids[0]), Relation::Le, var(ids[1]))
                .unwrap();
            net.add_constraint("yz", var(ids[1]), Relation::Le, var(ids[2]))
                .unwrap();
            net.add_constraint("z3", var(ids[2]), Relation::Le, cst(3.0))
                .unwrap();
            net
        };
        let total = propagate(&mut chain(), &PropagationConfig::default()).evaluations;
        assert!(total > 3, "chain too cheap to pin the boundary");

        // Cap exactly at the uncapped total: fixpoint, cap respected.
        let exact = PropagationConfig {
            max_evaluations: total,
        };
        let out = propagate(&mut chain(), &exact);
        assert!(out.reached_fixpoint);
        assert_eq!(out.evaluations, total);

        // One below: censored, and the total still honors the cap.
        let tight = PropagationConfig {
            max_evaluations: total - 1,
        };
        let out = propagate(&mut chain(), &tight);
        assert!(!out.reached_fixpoint);
        assert!(
            out.evaluations < total,
            "{} evaluations exceed the cap {}",
            out.evaluations,
            total - 1
        );
    }

    #[test]
    fn incremental_matches_full_and_costs_less() {
        use adpm_observe::{InMemorySink, NoopSink};

        let build = || {
            // Two loosely coupled pairs: binding x0 must not touch x2/x3.
            let (mut net, ids) = net_with(&[(0.0, 10.0); 4]);
            net.add_constraint("a", var(ids[0]) + var(ids[1]), Relation::Le, cst(12.0))
                .unwrap();
            net.add_constraint("b", var(ids[2]) + var(ids[3]), Relation::Le, cst(7.0))
                .unwrap();
            (net, ids)
        };
        let config = PropagationConfig::default();

        let (mut inc, ids) = build();
        propagate(&mut inc, &config);
        inc.bind(ids[0], Value::number(9.0)).unwrap();
        let sink = InMemorySink::new();
        let inc_out = propagate_incremental(&mut inc, &[ids[0]], &config, &sink);
        assert_eq!(inc_out.kind, PropagationKind::Incremental);
        assert_eq!(inc_out.seeded, 1); // only constraint "a" is adjacent
        assert_eq!(sink.get(Counter::SeedConstraints), 1);

        let (mut full, _) = build();
        full.bind(ids[0], Value::number(9.0)).unwrap();
        let full_out = propagate(&mut full, &config);

        assert!(
            inc_out.evaluations < full_out.evaluations,
            "incremental {} !< full {}",
            inc_out.evaluations,
            full_out.evaluations
        );
        assert_eq!(inc_out.conflicts, full_out.conflicts);
        for pid in inc.property_ids() {
            assert_eq!(inc.feasible(pid), full.feasible(pid), "feasible of {pid:?}");
        }
        for cid in inc.constraint_ids() {
            assert_eq!(inc.status(cid), full.status(cid), "status of {cid:?}");
        }
        // A second operation keeps the incremental path available.
        inc.bind(ids[2], Value::number(6.0)).unwrap();
        let again = propagate_incremental(&mut inc, &[ids[2]], &config, &NoopSink);
        assert_eq!(again.kind, PropagationKind::Incremental);
    }

    /// Binds, rebinds and unbinds keep the region path; structural edits,
    /// a reset and a capped run make the next request a full run.
    #[test]
    fn region_runs_start_only_from_a_clean_fixpoint() {
        use crate::constraint::Relaxation;
        use adpm_observe::NoopSink;

        let config = PropagationConfig::default();
        let (mut net, ids) = net_with(&[(0.0, 10.0), (0.0, 10.0)]);
        let sum = net
            .add_constraint("sum", var(ids[0]) + var(ids[1]), Relation::Le, cst(12.0))
            .unwrap();
        let kind = |net: &mut ConstraintNetwork| {
            propagate_incremental(net, &[ids[0]], &config, &NoopSink).kind
        };
        // Never propagated: full.
        assert_eq!(kind(&mut net), PropagationKind::Full);

        net.bind(ids[0], Value::number(5.0)).unwrap();
        assert_eq!(kind(&mut net), PropagationKind::Incremental);
        net.bind(ids[0], Value::number(4.0)).unwrap(); // rebind
        assert_eq!(kind(&mut net), PropagationKind::Incremental);
        net.unbind(ids[0]).unwrap();
        assert_eq!(kind(&mut net), PropagationKind::Incremental);
        assert_eq!(net.feasible(ids[0]), &Domain::interval(0.0, 10.0));

        net.relax_constraint(sum, Relaxation::WidenBound { slack: 1.0 })
            .unwrap();
        assert_eq!(kind(&mut net), PropagationKind::Full);
        net.reset_feasible();
        assert_eq!(kind(&mut net), PropagationKind::Full);

        // A capped run leaves no clean fixed point behind.
        let capped = PropagationConfig { max_evaluations: 0 };
        net.bind(ids[0], Value::number(3.0)).unwrap();
        let out = propagate_incremental(&mut net, &[ids[0]], &capped, &NoopSink);
        assert_eq!(out.kind, PropagationKind::Incremental);
        assert!(!out.reached_fixpoint);
        assert_eq!(kind(&mut net), PropagationKind::Full);
        assert_eq!(kind(&mut net), PropagationKind::Incremental);
    }

    /// A conflict stays inside its region: the region run goes on past it,
    /// lands on the full run's fixed point, and leaves the network clean
    /// for the next region run.
    #[test]
    fn region_run_keeps_conflicts_local() {
        use adpm_observe::{InMemorySink, NoopSink};

        let build = || {
            let (mut net, ids) = net_with(&[(0.0, 10.0), (0.0, 10.0), (0.0, 10.0)]);
            net.add_constraint("sum", var(ids[0]) + var(ids[1]), Relation::Le, cst(12.0))
                .unwrap();
            net.add_constraint("cap", var(ids[0]), Relation::Le, cst(4.0))
                .unwrap();
            net.add_constraint("other", var(ids[2]), Relation::Le, cst(6.0))
                .unwrap();
            (net, ids)
        };
        let config = PropagationConfig::default();

        let (mut inc, ids) = build();
        propagate(&mut inc, &config);
        // 9.0 sits in E_i = [0,10] but violates cap <= 4.
        inc.bind(ids[0], Value::number(9.0)).unwrap();
        let sink = InMemorySink::new();
        let inc_out = propagate_incremental(&mut inc, &[ids[0]], &config, &sink);
        assert_eq!(inc_out.kind, PropagationKind::Incremental);
        assert_eq!(inc_out.seeded, 2); // sum and cap, not other
        assert_eq!(sink.get(Counter::Evaluations), inc_out.evaluations as u64);

        let (mut full, _) = build();
        full.bind(ids[0], Value::number(9.0)).unwrap();
        let full_out = propagate(&mut full, &config);
        assert!(!full_out.conflicts.is_empty());
        assert_eq!(inc_out.conflicts, full_out.conflicts);
        assert_eq!(inc_out.narrowed, full_out.narrowed);
        assert!(inc_out.evaluations < full_out.evaluations);
        for pid in inc.property_ids() {
            assert_eq!(inc.feasible(pid), full.feasible(pid));
        }
        for cid in inc.constraint_ids() {
            assert_eq!(inc.status(cid), full.status(cid));
        }

        // The conflicted fixed point is clean: the next run is a region
        // run, and it lists only its own region's conflicts.
        inc.bind(ids[2], Value::number(5.0)).unwrap();
        let out = propagate_incremental(&mut inc, &[ids[2]], &config, &NoopSink);
        assert_eq!(out.kind, PropagationKind::Incremental);
        assert!(out.conflicts.is_empty());
        assert!(inc.status(ConstraintId::new(1)).is_violated());
    }

    /// The fixed-point reference: the worklist revising through the AST
    /// interpreter straight off the network's feasible subspaces.
    struct Interp;

    impl Reviser for Interp {
        fn load(_net: &ConstraintNetwork, _region: &Region) -> Self {
            Interp
        }

        fn revise(
            &mut self,
            net: &ConstraintNetwork,
            cid: ConstraintId,
            narrowed: &mut Vec<(PropertyId, Interval)>,
        ) -> bool {
            let result = hc4_revise(net.constraint(cid), &|pid| net.effective_interval(pid));
            *narrowed = result.narrowed;
            result.conflict
        }

        fn narrowed(&mut self, _net: &ConstraintNetwork, _pid: PropertyId) {}
    }

    fn reference(net: &mut ConstraintNetwork, config: &PropagationConfig) -> PropagationOutcome {
        let region = Region::everything(net);
        run_region::<Interp>(net, region, config, &NoopSink, &MonotonicClock)
    }

    fn reference_incremental(
        net: &mut ConstraintNetwork,
        dirty: &[PropertyId],
        config: &PropagationConfig,
    ) -> PropagationOutcome {
        let region = Region::around(net, dirty);
        run_region::<Interp>(net, region, config, &NoopSink, &MonotonicClock)
    }

    /// Two runs landed on the same fixed point bit for bit: identical
    /// outcomes (work counts, waves, conflicts, narrowed set), feasible
    /// subspaces (compared through `{:?}`, which is exact for `f64` and
    /// tells `-0.0` from `0.0`), and statuses.
    fn assert_outcomes_match(
        a: &ConstraintNetwork,
        oa: &PropagationOutcome,
        b: &ConstraintNetwork,
        ob: &PropagationOutcome,
    ) {
        assert_eq!(oa, ob);
        for pid in a.property_ids() {
            assert_eq!(
                format!("{:?}", a.feasible(pid)),
                format!("{:?}", b.feasible(pid)),
                "feasible({pid:?})"
            );
        }
        for cid in a.constraint_ids() {
            assert_eq!(a.status(cid), b.status(cid), "status({cid:?})");
        }
    }

    /// One generated component: property bounds (lo, hi) for a `Le` chain,
    /// upper-bound caps applied round-robin over those properties, and the
    /// bound on the product of the chain's two ends.
    type ComponentSpec = (Vec<(f64, f64)>, Vec<f64>, f64);

    fn arb_components() -> impl Strategy<Value = Vec<ComponentSpec>> {
        proptest::collection::vec(
            (
                proptest::collection::vec((0.0f64..10.0, 10.0f64..30.0), 2..5),
                proptest::collection::vec(5.0f64..40.0, 1..4),
                50.0f64..600.0,
            ),
            1..5,
        )
    }

    /// A network of independent chain-plus-caps-plus-product components.
    fn build_net(comps: &[ComponentSpec]) -> ConstraintNetwork {
        let mut net = ConstraintNetwork::new();
        for (k, (bounds, caps, product)) in comps.iter().enumerate() {
            let ids: Vec<PropertyId> = bounds
                .iter()
                .enumerate()
                .map(|(i, (lo, hi))| {
                    net.add_property(Property::new(
                        format!("x{k}_{i}"),
                        format!("o{k}"),
                        Domain::interval(*lo, *hi),
                    ))
                    .unwrap()
                })
                .collect();
            for w in ids.windows(2) {
                net.add_constraint(format!("ord{k}"), var(w[0]), Relation::Le, var(w[1]))
                    .unwrap();
            }
            for (i, cap) in caps.iter().enumerate() {
                net.add_constraint(
                    format!("cap{k}_{i}"),
                    var(ids[i % ids.len()]),
                    Relation::Le,
                    cst(*cap),
                )
                .unwrap();
            }
            let ends = var(ids[0]) * var(ids[ids.len() - 1]);
            net.add_constraint(format!("prod{k}"), ends, Relation::Le, cst(*product))
                .unwrap();
        }
        net
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Full propagation through the compiled programs lands on the
        /// reference fixed point bit for bit.
        #[test]
        fn engines_reach_identical_fixed_points(comps in arb_components()) {
            let config = PropagationConfig::default();
            let mut want = build_net(&comps);
            let mut got = build_net(&comps);
            let oa = reference(&mut want, &config);
            let ob = propagate(&mut got, &config);
            assert_outcomes_match(&want, &oa, &got, &ob);
        }

        /// Region propagation through the compiled programs follows the
        /// reference bit for bit along a seeded sequence of binds (inside
        /// and outside the current feasible subspace), rebinds and unbinds,
        /// conflicts included.
        #[test]
        fn incremental_runs_match_the_reference(
            comps in arb_components(),
            edits in proptest::collection::vec((0usize..16, 0.0f64..1.0, 0u32..6), 1..12),
        ) {
            let config = PropagationConfig::default();
            let mut want = build_net(&comps);
            let mut got = build_net(&comps);
            let oa = reference(&mut want, &config);
            let ob = propagate(&mut got, &config);
            assert_outcomes_match(&want, &oa, &got, &ob);
            for (slot, t, kind) in edits {
                let pid = PropertyId::new((slot % want.property_count()) as u32);
                if kind == 0 {
                    prop_assert_eq!(want.unbind(pid).is_ok(), got.unbind(pid).is_ok());
                } else {
                    let iv = want.property(pid).initial_domain().enclosing_interval().unwrap();
                    let value = Value::number(iv.lo() + t * (iv.hi() - iv.lo()));
                    want.bind(pid, value.clone()).unwrap();
                    got.bind(pid, value).unwrap();
                }
                let oa = reference_incremental(&mut want, &[pid], &config);
                let ob = propagate_incremental(&mut got, &[pid], &config, &NoopSink);
                assert_outcomes_match(&want, &oa, &got, &ob);
            }
        }
    }

    /// A network with several interacting constraints exercising the whole
    /// operator repertoire in one component.
    fn dense_net() -> (ConstraintNetwork, Vec<PropertyId>) {
        let (mut net, ids) = net_with(&[(0.0, 300.0), (0.0, 300.0), (1.0, 16.0), (-50.0, 50.0)]);
        net.add_constraint("power", var(ids[0]) + var(ids[1]), Relation::Le, cst(200.0))
            .unwrap();
        net.add_constraint("sqrt", var(ids[2]).sqrt(), Relation::Le, cst(3.0))
            .unwrap();
        net.add_constraint(
            "mix",
            var(ids[0]) - var(ids[2]).powi(2),
            Relation::Ge,
            var(ids[3]),
        )
        .unwrap();
        net.add_constraint("abs", var(ids[3]).abs(), Relation::Le, cst(30.0))
            .unwrap();
        (net, ids)
    }

    #[test]
    fn compiled_engine_matches_interp_fixpoint() {
        let config = PropagationConfig::default();
        let (mut a, ids) = dense_net();
        let (mut b, _) = dense_net();
        a.bind(ids[0], Value::number(150.0)).unwrap();
        b.bind(ids[0], Value::number(150.0)).unwrap();
        let oa = reference(&mut a, &config);
        let ob = propagate(&mut b, &config);
        assert!(oa.reached_fixpoint);
        assert_outcomes_match(&a, &oa, &b, &ob);
    }

    #[test]
    fn compiled_engine_honours_evaluation_cap() {
        let config = PropagationConfig { max_evaluations: 8 };
        let (mut a, _) = dense_net();
        let (mut b, _) = dense_net();
        let oa = reference(&mut a, &config);
        let ob = propagate(&mut b, &config);
        assert!(!oa.reached_fixpoint);
        assert_outcomes_match(&a, &oa, &b, &ob);
    }

    /// Propagation revises through the programs the network compiled at
    /// its structural edits; no run replaces them.
    #[test]
    fn propagation_reuses_the_network_programs() {
        let (mut net, ids) = dense_net();
        let programs = Arc::clone(net.programs());
        let config = PropagationConfig::default();
        propagate(&mut net, &config);
        net.bind(ids[0], Value::number(150.0)).unwrap();
        propagate_incremental(&mut net, &[ids[0]], &config, &NoopSink);
        assert!(Arc::ptr_eq(&programs, net.programs()));
    }

    /// A soft `cap` (by default `x0 <= 4`) plus the budget `x0 + x1 <= 12`.
    fn relax_net(cap: Option<(Expr, Expr)>) -> (ConstraintNetwork, Vec<PropertyId>, ConstraintId) {
        let (mut net, ids) = net_with(&[(0.0, 10.0), (0.0, 10.0)]);
        let (lhs, rhs) = cap.unwrap_or((var(ids[0]), cst(4.0)));
        let cap = net.add_constraint("cap", lhs, Relation::Le, rhs).unwrap();
        net.set_constraint_soft(cap, true).unwrap();
        net.add_constraint("sum", var(ids[0]) + var(ids[1]), Relation::Le, cst(12.0))
            .unwrap();
        (net, ids, cap)
    }

    /// After `relax_constraint` the network propagates exactly like one
    /// built fresh with the relaxed constraint — its program was recompiled.
    #[test]
    fn relaxed_network_propagates_like_a_fresh_build() {
        use crate::constraint::Relaxation;

        let config = PropagationConfig::default();
        let x0 = PropertyId::new(0);
        for (relaxation, fresh_cap, x0_hi) in [
            (
                Relaxation::WidenBound { slack: 3.0 },
                (var(x0), cst(4.0) + cst(3.0)),
                7.0,
            ),
            (Relaxation::Drop, (cst(0.0), cst(1.0)), 10.0),
        ] {
            let (mut relaxed, ids, cap) = relax_net(None);
            relaxed.bind(ids[1], Value::number(2.0)).unwrap();
            propagate(&mut relaxed, &config);
            relaxed.relax_constraint(cap, relaxation).unwrap();
            let out = propagate(&mut relaxed, &config);

            let (mut fresh, _, _) = relax_net(Some(fresh_cap));
            fresh.bind(ids[1], Value::number(2.0)).unwrap();
            let fresh_out = propagate(&mut fresh, &config);
            assert_outcomes_match(&relaxed, &out, &fresh, &fresh_out);
            assert_eq!(relaxed.feasible(ids[0]), &Domain::interval(0.0, x0_hi));
        }
    }

    #[test]
    fn relaxing_a_clone_leaves_the_original_untouched() {
        use crate::constraint::Relaxation;

        let config = PropagationConfig::default();
        let (mut original, ids, cap) = relax_net(None);
        let first = propagate(&mut original, &config);
        let programs = Arc::clone(original.programs());

        let mut clone = original.clone();
        assert!(Arc::ptr_eq(original.programs(), clone.programs()));
        clone
            .relax_constraint(cap, Relaxation::WidenBound { slack: 3.0 })
            .unwrap();
        assert!(!Arc::ptr_eq(original.programs(), clone.programs()));
        propagate(&mut clone, &config);
        assert_eq!(clone.feasible(ids[0]), &Domain::interval(0.0, 7.0));

        assert!(Arc::ptr_eq(&programs, original.programs()));
        let (mut fresh, _, _) = relax_net(None);
        let fresh_out = propagate(&mut fresh, &config);
        let again = propagate(&mut original, &config);
        assert_eq!(again, first);
        assert_outcomes_match(&original, &again, &fresh, &fresh_out);
        assert_eq!(original.feasible(ids[0]), &Domain::interval(0.0, 4.0));
    }

    /// Statuses set out-of-band (the conventional flow's verify path) are
    /// re-evaluated by the region sweep even with an empty dirty set.
    #[test]
    fn incremental_sweep_covers_out_of_band_statuses() {
        use adpm_observe::NoopSink;

        let (mut net, ids) = net_with(&[(0.0, 10.0)]);
        let c = net
            .add_constraint("cap", var(ids[0]), Relation::Le, cst(4.0))
            .unwrap();
        let config = PropagationConfig::default();
        propagate(&mut net, &config);
        assert_eq!(net.status(c), ConstraintStatus::Satisfied);
        net.set_status(c, ConstraintStatus::Violated);
        let out = propagate_incremental(&mut net, &[], &config, &NoopSink);
        assert_eq!(out.kind, PropagationKind::Incremental);
        assert_eq!(net.status(c), ConstraintStatus::Satisfied);
    }
}
