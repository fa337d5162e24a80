//! The simulated-designer model (paper §3.1.1, Fig. 6).
//!
//! A designer is a state-based system whose operation selection function
//! `f_o = f_v ∘ f_a ∘ f_p` composes:
//!
//! * `f_p` — *problem selection*: all assigned problems not in the
//!   `Waiting` state; empty when no violations are known and everything
//!   assigned is solved;
//! * `f_a` — *target property selection*: under violations, the property
//!   connected to the most known violations (`α`), preferring properties
//!   with a direction likely to fix many at once; otherwise the unbound
//!   output with the smallest feasible subspace (ADPM) or a random unbound
//!   output (conventional, which has no feasibility information);
//! * `f_v` — *value selection*: from the feasible subspace when one is
//!   known and non-empty (top or bottom end according to the direction
//!   that satisfies most constraints), otherwise a `|E_i|/100` delta step
//!   from the current value in the repair direction.
//!
//! The design history is consulted to avoid re-trying values that
//! previously led to violations (paper footnote 2) via a per-property tabu
//! list.
//!
//! The *same* model runs in both management modes; what differs is the
//! information the DPM feeds it. In conventional mode feasible subspaces
//! are never narrowed and violations appear only after verification runs,
//! so the corresponding branches of `f_a`/`f_v` degrade exactly as the
//! paper describes.

use crate::config::SimulationConfig;
use adpm_constraint::{
    helps_direction, local_helps_direction, ConstraintId, Domain, HelpsDirection, Interval,
    PropertyId, Value,
};
use adpm_core::{
    DesignProcessManager, DesignerId, ManagementMode, Operation, OperationRecord, ProblemId,
    ProblemStatus,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

/// Relative tolerance for tabu-value matching.
const TABU_EPS: f64 = 1e-6;

/// A simulated designer: identity plus the slowly changing parts of the
/// paper's "internal state" (the rest — feasible subspaces, `α`, `β`,
/// statuses — is read fresh from the DPM at each decision, which is exactly
/// the "messages received from the DPM and NM" update of Fig. 6).
#[derive(Debug, Clone)]
pub struct SimulatedDesigner {
    id: DesignerId,
    /// Assignment *combinations* that previously led to violations (paper
    /// footnote 2): a value is tabu only together with the context hash of
    /// its constraint neighbours' assignments at failure time — the same
    /// value may be perfectly fine once a neighbour has moved.
    tabu: Vec<(PropertyId, f64, u64)>,
    /// The property, value, and neighbour-context of this designer's last
    /// assignment, used to attribute newly found violations to it.
    last_assignment: Option<(PropertyId, f64, u64)>,
    /// The last repair's target and the violation count right after it,
    /// used to rotate to a different lever when a repair made no progress.
    recent_repair: Option<(PropertyId, usize)>,
    /// Constraints this designer has ever seen violated. Once a
    /// requirement has failed a verification, the designer keeps it in
    /// mind when weighing later changes — even after its formal status is
    /// invalidated by a re-binding.
    seen_violated: BTreeSet<ConstraintId>,
}

impl SimulatedDesigner {
    /// Creates a designer with an empty history.
    pub fn new(id: DesignerId) -> Self {
        SimulatedDesigner {
            id,
            tabu: Vec::new(),
            last_assignment: None,
            recent_repair: None,
            seen_violated: BTreeSet::new(),
        }
    }

    /// This designer's id.
    pub fn id(&self) -> DesignerId {
        self.id
    }

    /// Number of tabu entries accumulated (diagnostic).
    pub fn tabu_len(&self) -> usize {
        self.tabu.len()
    }

    /// Updates the internal state from an executed operation's record —
    /// the designer's next-state function. If this designer's own
    /// assignment immediately produced new violations, the value is
    /// remembered as failed.
    pub fn observe(&mut self, record: &OperationRecord) {
        if record.operation.designer() != self.id {
            return;
        }
        if let Some((pid, value, context)) = self.last_assignment.take() {
            // Only attribute the outcome to the remembered assignment if
            // this record actually executed it — a proposal the DPM
            // rejected leaves a stale entry that must not poison the tabu
            // list when an unrelated operation (e.g. a verification run)
            // surfaces violations.
            if record.operation.operator().target_property() != Some(pid) {
                return;
            }
            if !record.new_violations.is_empty() {
                self.remember_failure(pid, value, context);
            }
            if !record.operation.repairs().is_empty() {
                self.recent_repair = Some((pid, record.violations_after));
            }
        }
    }

    fn remember_failure(&mut self, pid: PropertyId, value: f64, context: u64) {
        if !self.is_tabu(pid, value, context) {
            self.tabu.push((pid, value, context));
        }
    }

    /// Whether `(pid, value)` previously failed *in the current context* —
    /// i.e. with the same neighbour assignments.
    fn is_tabu(&self, pid: PropertyId, value: f64, context: u64) -> bool {
        self.tabu.iter().any(|(p, v, c)| {
            *p == pid
                && *c == context
                && (v - value).abs() <= TABU_EPS * (1.0 + v.abs().max(value.abs()))
        })
    }

    /// Hash of the current assignments of every property sharing a
    /// constraint with `pid` — the "combination" part of the paper's
    /// avoid-failed-combinations rule.
    fn context_hash(net: &adpm_constraint::ConstraintNetwork, pid: PropertyId) -> u64 {
        let mut neighbours: BTreeSet<PropertyId> = net
            .constraints_of(pid)
            .iter()
            .flat_map(|cid| net.constraint(*cid).arguments())
            .collect();
        neighbours.remove(&pid);
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        for n in neighbours {
            if let Some(v) = net.assignment(n).and_then(|v| v.as_number()) {
                n.index().hash(&mut hasher);
                v.to_bits().hash(&mut hasher);
            }
        }
        hasher.finish()
    }

    /// The operation selection function `f_o`: proposes the next operation,
    /// or `None` when the designer has nothing to do.
    pub fn choose(
        &mut self,
        dpm: &DesignProcessManager,
        config: &SimulationConfig,
        rng: &mut StdRng,
    ) -> Option<Operation> {
        let problems = self.addressable_problems(dpm);
        // Team awareness: remember every violation currently on the table.
        self.seen_violated.extend(dpm.known_violations());
        if problems.is_empty() {
            return None;
        }
        if let Some(op) = self.repair(dpm, config, &problems, rng) {
            return Some(op);
        }
        if let Some(op) = self.forward(dpm, config, &problems, rng) {
            return Some(op);
        }
        if config.mode == ManagementMode::Conventional {
            if let Some(op) = self.verify(dpm, &problems) {
                return Some(op);
            }
        }
        None
    }

    /// `f_p`: assigned problems that are not `Waiting`.
    fn addressable_problems(&self, dpm: &DesignProcessManager) -> Vec<ProblemId> {
        dpm.problems()
            .assigned_to(self.id)
            .into_iter()
            .filter(|pid| dpm.problems().problem(*pid).status() != ProblemStatus::Waiting)
            .collect()
    }

    /// Output properties of the given problems, in stable order.
    fn my_outputs(&self, dpm: &DesignProcessManager, problems: &[ProblemId]) -> Vec<PropertyId> {
        let mut out: Vec<PropertyId> = problems
            .iter()
            .flat_map(|pid| dpm.problems().problem(*pid).outputs().to_vec())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    fn problem_of_output(
        &self,
        dpm: &DesignProcessManager,
        problems: &[ProblemId],
        property: PropertyId,
    ) -> ProblemId {
        problems
            .iter()
            .copied()
            .find(|pid| dpm.problems().problem(*pid).has_output(property))
            .unwrap_or(problems[0])
    }

    // --- repair -----------------------------------------------------------

    /// Repair branch of `f_a`/`f_v`: fix a known violation by modifying the
    /// connected property most likely to resolve many at once.
    fn repair(
        &mut self,
        dpm: &DesignProcessManager,
        config: &SimulationConfig,
        problems: &[ProblemId],
        rng: &mut StdRng,
    ) -> Option<Operation> {
        let known: BTreeSet<ConstraintId> = dpm.known_violations().into_iter().collect();
        if known.is_empty() {
            return None;
        }
        let net = dpm.network();
        let outputs = self.my_outputs(dpm, problems);
        // Candidates: my outputs connected to at least one known violation.
        let mut candidates: Vec<(PropertyId, usize)> = outputs
            .iter()
            .map(|p| {
                let alpha = known
                    .iter()
                    .filter(|cid| net.constraint(**cid).involves(*p))
                    .count();
                (*p, alpha)
            })
            .filter(|(_, alpha)| *alpha > 0)
            .collect();
        if candidates.is_empty() {
            return None;
        }
        // `f_a`: prefer high α (ties resolved randomly, as in the paper).
        if config.heuristics.alpha_repair {
            shuffle(&mut candidates, rng);
            candidates.sort_by_key(|(_, alpha)| std::cmp::Reverse(*alpha));
        } else {
            shuffle(&mut candidates, rng);
        }
        // Lever rotation: if the last repair targeted the same property and
        // the number of known violations did not drop, try a different
        // connected property this time — real designers stop turning a knob
        // that is not working (and this breaks conventional-mode ping-pong
        // between two requirements pinching one value).
        if let Some((prev_target, prev_violations)) = self.recent_repair {
            if candidates.len() > 1
                && candidates[0].0 == prev_target
                && known.len() >= prev_violations
            {
                candidates.rotate_left(1);
            }
        }
        let (target, _) = candidates[0];
        let my_violations: Vec<ConstraintId> = known
            .iter()
            .copied()
            .filter(|cid| net.constraint(*cid).involves(target))
            .collect();

        let direction = if config.heuristics.direction_repair {
            self.majority_direction(dpm, config, target, &my_violations)
        } else {
            None
        };
        let context = Self::context_hash(net, target);
        let mut value =
            self.repair_value(dpm, config, target, &my_violations, direction, context, rng)?;
        // A repair that re-binds the current value would be a wasted
        // operation; step away instead.
        if let Some(current) = net.assignment(target).and_then(|v| v.as_number()) {
            if (value - current).abs() <= 1e-9 * (1.0 + current.abs()) {
                let hull = net
                    .property(target)
                    .initial_domain()
                    .enclosing_interval()
                    .unwrap_or(Interval::new(-1e6, 1e6));
                let initial = net.property(target).initial_domain().clone();
                value = self.delta_step(
                    target, current, direction, context, &hull, &initial, config, rng,
                );
            }
        }
        self.last_assignment = Some((target, value, context));
        let problem = self.problem_of_output(dpm, problems, target);
        Some(
            Operation::assign(self.id, problem, target, Value::number(value))
                .with_repairs(my_violations),
        )
    }

    /// Majority vote over the directions that help the violated constraints
    /// connected to `target` (global monotonicity first, local probing at
    /// the current value as fallback).
    fn majority_direction(
        &self,
        dpm: &DesignProcessManager,
        config: &SimulationConfig,
        target: PropertyId,
        violations: &[ConstraintId],
    ) -> Option<HelpsDirection> {
        let net = dpm.network();
        let current = net.assignment(target).and_then(|v| v.as_number());
        let probe = config.delta_fraction * self.initial_width(dpm, target).max(1e-9);
        let mut ups = 0usize;
        let mut downs = 0usize;
        for cid in violations {
            let dir = helps_direction(net, *cid, target).or_else(|| {
                current.and_then(|v| local_helps_direction(net, *cid, target, v, probe))
            });
            match dir {
                Some(HelpsDirection::Up) => ups += 1,
                Some(HelpsDirection::Down) => downs += 1,
                None => {}
            }
        }
        match ups.cmp(&downs) {
            std::cmp::Ordering::Greater => Some(HelpsDirection::Up),
            std::cmp::Ordering::Less => Some(HelpsDirection::Down),
            std::cmp::Ordering::Equal => None,
        }
    }

    /// `f_v` for repairs.
    ///
    /// Designers exploit the margin information their tool runs produce
    /// ("making use of trade-offs produced by constraint margins to fix
    /// violations", paper §1): the repair value is the one that satisfies
    /// the most constraints the designer can check — which is how the §2.4
    /// designer fixes two violations in a single iteration. What a designer
    /// *can check* differs by mode (see
    /// [`checkable_constraints`](Self::checkable_constraints)); when no
    /// improving value exists, repair degrades to the paper's `|E_i|/100`
    /// delta stepping in the majority direction.
    #[allow(clippy::too_many_arguments)]
    fn repair_value(
        &self,
        dpm: &DesignProcessManager,
        config: &SimulationConfig,
        target: PropertyId,
        violations: &[ConstraintId],
        direction: Option<HelpsDirection>,
        context: u64,
        rng: &mut StdRng,
    ) -> Option<f64> {
        let net = dpm.network();
        let current = net.assignment(target).and_then(|v| v.as_number());
        let initial = net.property(target).initial_domain().clone();
        let adpm_info = config.mode == ManagementMode::Adpm && config.heuristics.feasible_values;

        if config.heuristics.direction_repair {
            if let (Some(v), Some(dir)) = (current, direction) {
                // A clear majority direction: move just past the margin
                // boundary (minimal-change repair).
                if let Some(repaired) =
                    margin_repair_value(dpm, target, violations, v, dir, &initial)
                {
                    if !self.is_tabu(target, repaired, context) {
                        return Some(repaired);
                    }
                }
            }
            // No single direction (conflicting requirements), or the
            // margin-repair landing spot already failed once (tabu): scan
            // the axis for the value satisfying the most checkable
            // constraints instead of random-walking.
            if let Some(v) = current {
                if let Some(repaired) =
                    self.best_scoring_value(dpm, config, target, violations, v, context, &initial)
                {
                    return Some(repaired);
                }
            }
        }
        // Unbound conflicted property: choose from its feasible subspace
        // (ADPM only — conventional designers have no feasibility data).
        if adpm_info && current.is_none() {
            let feasible = net.feasible(target).clone();
            if !feasible.is_empty() {
                if let Some(v) = self.pick_from_domain(&feasible, direction, rng) {
                    return Some(v);
                }
            }
        }

        // "Choose from initial subspace": delta step inside E_i.
        let hull = initial
            .enclosing_interval()
            .unwrap_or(Interval::new(-1e6, 1e6));
        match current {
            Some(v) => {
                Some(self.delta_step(target, v, direction, context, &hull, &initial, config, rng))
            }
            None => self.pick_from_domain(&initial, direction, rng),
        }
    }

    /// The constraints a designer can evaluate mentally when weighing a
    /// repair value for `target`:
    ///
    /// * **ADPM** — every constraint involving the target: the DCM keeps
    ///   all statuses and margins fresh after each operation;
    /// * **conventional** — only the constraints of the designer's own
    ///   problems (whose mathematics they master) plus the constraints
    ///   currently *known* violated (whose margins the verification run
    ///   just exposed). Cross-subsystem constraints they have not seen fail
    ///   are invisible — which is exactly why conventional repairs keep
    ///   breaking them and integration spins pile up.
    fn checkable_constraints(
        &self,
        dpm: &DesignProcessManager,
        config: &SimulationConfig,
        target: PropertyId,
        violations: &[ConstraintId],
    ) -> Vec<ConstraintId> {
        let net = dpm.network();
        if config.mode == ManagementMode::Adpm {
            return net.constraints_of(target).to_vec();
        }
        let mut out: Vec<ConstraintId> = violations
            .iter()
            .copied()
            .chain(self.seen_violated.iter().copied())
            .filter(|cid| net.constraint(*cid).involves(target))
            .collect();
        for problem in dpm.problems().assigned_to(self.id) {
            for cid in dpm.problems().problem(problem).constraints() {
                if net.constraint(*cid).involves(target) {
                    out.push(*cid);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Scans the target's axis for the value satisfying the most checkable
    /// constraints (violated ones weighted double so actual repairs beat
    /// do-nothing) and returns the midpoint of the best contiguous run
    /// closest to the current value. Returns `None` when no value scores
    /// strictly better than the current one — moving would not help.
    #[allow(clippy::too_many_arguments)]
    fn best_scoring_value(
        &self,
        dpm: &DesignProcessManager,
        config: &SimulationConfig,
        target: PropertyId,
        violations: &[ConstraintId],
        current: f64,
        context: u64,
        initial: &Domain,
    ) -> Option<f64> {
        let net = dpm.network();
        let checkable = self.checkable_constraints(dpm, config, target, violations);
        if checkable.is_empty() {
            return None;
        }
        let violated: BTreeSet<ConstraintId> = violations.iter().copied().collect();
        let point = |id: PropertyId, x: f64| {
            if id == target {
                return x;
            }
            if let Some(v) = net.assignment(id).and_then(|v| v.as_number()) {
                return v;
            }
            let iv = net.effective_interval(id);
            if iv.is_bounded() {
                iv.midpoint()
            } else {
                0.0
            }
        };
        let adpm = config.mode == ManagementMode::Adpm;
        let score_at = |x: f64| -> i64 {
            checkable
                .iter()
                .map(|cid| {
                    // ADPM designers judge a candidate the way the DCM will
                    // after the next propagation (interval statuses over the
                    // current box); conventional designers can only run the
                    // numbers at concrete points.
                    let ok = if adpm {
                        let lookup = |id: PropertyId| {
                            if id == target {
                                Interval::singleton(x)
                            } else {
                                net.effective_interval(id)
                            }
                        };
                        !net.constraint(*cid).status(&lookup).is_violated()
                    } else {
                        net.constraint(*cid).check_point(&|id| point(id, x))
                    };
                    let weight = if violated.contains(cid) { 2 } else { 1 };
                    if ok {
                        weight
                    } else {
                        0
                    }
                })
                .sum()
        };

        // Candidate positions: discrete members, or a uniform scan of the
        // continuous axis.
        let candidates: Vec<f64> = match initial.candidates() {
            Some(values) => values.iter().filter_map(|v| v.as_number()).collect(),
            None => {
                let hull = initial.enclosing_interval()?;
                if !hull.is_bounded() || hull.is_singleton() {
                    return None;
                }
                hull.sample(129)
            }
        };
        let current_score = score_at(current);
        let scores: Vec<i64> = candidates.iter().map(|x| score_at(*x)).collect();
        let best = *scores.iter().max()?;
        if best <= current_score {
            return None;
        }
        if initial.candidates().is_some() {
            // Discrete: the best member closest to the current value.
            return candidates
                .iter()
                .zip(&scores)
                .filter(|(_, s)| **s == best)
                .map(|(x, _)| *x)
                .filter(|x| !self.is_tabu(target, *x, context))
                .min_by(|a, b| {
                    (a - current)
                        .abs()
                        .partial_cmp(&(b - current).abs())
                        .expect("finite")
                });
        }
        // Continuous: midpoints of maximal-score runs; choose the run
        // closest to the current value (minimal-change principle).
        let mut runs: Vec<(f64, f64)> = Vec::new();
        let mut start: Option<usize> = None;
        for (i, s) in scores.iter().enumerate() {
            if *s == best && start.is_none() {
                start = Some(i);
            }
            if (*s != best || i + 1 == scores.len()) && start.is_some() {
                let end = if *s == best { i } else { i - 1 };
                runs.push((candidates[start.take().expect("set")], candidates[end]));
            }
        }
        runs.into_iter()
            .map(|(lo, hi)| 0.5 * (lo + hi))
            .filter(|x| !self.is_tabu(target, *x, context))
            .min_by(|a, b| {
                (a - current)
                    .abs()
                    .partial_cmp(&(b - current).abs())
                    .expect("finite")
            })
    }

    /// Moves `current` by `delta_fraction * |E_i|` in `direction` (random
    /// when unknown), avoiding tabu values, clamped into `bounds` and — for
    /// discrete domains — snapped to the nearest remaining candidate.
    #[allow(clippy::too_many_arguments)]
    fn delta_step(
        &self,
        target: PropertyId,
        current: f64,
        direction: Option<HelpsDirection>,
        context: u64,
        bounds: &Interval,
        initial: &Domain,
        config: &SimulationConfig,
        rng: &mut StdRng,
    ) -> f64 {
        let width = initial
            .enclosing_interval()
            .map(|iv| if iv.is_bounded() { iv.width() } else { 2e6 })
            .unwrap_or(2e6);
        let base = config.delta_fraction * width;
        let sign = match direction {
            Some(d) => d.sign(),
            None => {
                if rng.gen_bool(0.5) {
                    1.0
                } else {
                    -1.0
                }
            }
        };
        // Scale the step up while the landing spot is tabu (or stuck at a
        // clamped bound), so repeated failures explore faster.
        let mut scale = 1.0 + rng.gen_range(0.0..0.5);
        for _ in 0..16 {
            let candidate = bounds.clamp(current + sign * base * scale);
            let snapped = snap_to_domain(candidate, initial, bounds);
            let moved = (snapped - current).abs() > 1e-12 * (1.0 + current.abs());
            if moved && !self.is_tabu(target, snapped, context) {
                return snapped;
            }
            scale *= 2.0;
        }
        // Everything nearby is tabu or pinned: jump randomly inside bounds.
        random_in(bounds, initial, rng)
    }

    /// Picks a value from a domain honouring the direction hint: the "top
    /// or bottom value based on what may satisfy most constraints" rule,
    /// with a small inset so boundary rounding cannot immediately violate
    /// the binding constraint.
    fn pick_from_domain(
        &self,
        domain: &Domain,
        direction: Option<HelpsDirection>,
        rng: &mut StdRng,
    ) -> Option<f64> {
        if domain.is_empty() {
            return None;
        }
        if let Some(candidates) = domain.candidates() {
            let numbers: Vec<f64> = candidates.iter().filter_map(|v| v.as_number()).collect();
            if numbers.is_empty() {
                return None;
            }
            return Some(match direction {
                Some(HelpsDirection::Up) => *numbers.last().expect("non-empty"),
                Some(HelpsDirection::Down) => numbers[0],
                None => numbers[rng.gen_range(0..numbers.len())],
            });
        }
        let iv = domain.enclosing_interval()?;
        if iv.is_empty() {
            return None;
        }
        if iv.is_singleton() {
            return Some(iv.lo());
        }
        let hull = bounded(&iv);
        let fraction = match direction {
            Some(HelpsDirection::Up) => rng.gen_range(0.75..0.95),
            Some(HelpsDirection::Down) => rng.gen_range(0.05..0.25),
            None => rng.gen_range(0.2..0.8),
        };
        Some(hull.lo() + fraction * hull.width())
    }

    // --- forward work -------------------------------------------------------

    /// Forward branch of `f_a`/`f_v`: bind an unbound output.
    fn forward(
        &mut self,
        dpm: &DesignProcessManager,
        config: &SimulationConfig,
        problems: &[ProblemId],
        rng: &mut StdRng,
    ) -> Option<Operation> {
        let net = dpm.network();
        let open_problems: Vec<ProblemId> = problems
            .iter()
            .copied()
            .filter(|p| dpm.problems().problem(*p).status() != ProblemStatus::Solved)
            .collect();
        let mut unbound: Vec<PropertyId> = self
            .my_outputs(dpm, &open_problems)
            .into_iter()
            .filter(|p| !net.is_bound(*p))
            .collect();
        if unbound.is_empty() {
            return None;
        }

        // `f_a`: the configured ordering (ADPM; §2.3.1 smallest feasible
        // subspace by default, §2.3.2 β variants selectable); random
        // otherwise.
        shuffle(&mut unbound, rng);
        let target = if config.mode == ManagementMode::Adpm && config.heuristics.feasible_ordering {
            dpm.heuristics()
                .map(|report| match config.heuristics.forward_ordering {
                    crate::config::ForwardOrdering::SmallestFeasible => {
                        report.rank_by_smallest_feasible(&unbound)[0]
                    }
                    crate::config::ForwardOrdering::Beta => report.rank_by_beta(&unbound)[0],
                    crate::config::ForwardOrdering::BetaIndirect => {
                        report.rank_by_beta_indirect(&unbound)[0]
                    }
                })
                .unwrap_or(unbound[0])
        } else {
            unbound[0]
        };

        // `f_v`: choose from the feasible subspace (ADPM) or the declared
        // range `E_i` (conventional — no feasibility information exists),
        // leaning towards the end favoured by the monotonicity vote over
        // the connected constraints. The vote itself is engineering
        // knowledge and available in both modes (paper §3.1.1 keeps the
        // monotonicity lists in the designer's internal state regardless
        // of `λ`).
        let initial = net.property(target).initial_domain().clone();
        // With probability `choice_noise` the designer acts on secondary
        // objectives and a stale view of the design (did not re-consult the
        // object browser): the monotonicity vote is ignored and the value
        // comes from the declared range instead of the current feasible
        // subspace. This is what produces ADPM's (few) violations and its
        // run-to-run variability, mirroring the §2.4 story where a
        // power-motivated choice violates the gain requirement.
        let noisy = rng.gen_bool(config.choice_noise);
        // Acting on a fully stale view (not consulting the browser at all)
        // is rarer than merely weighing secondary objectives.
        let stale = noisy && rng.gen_bool(0.3);
        let use_feasible =
            !stale && config.mode == ManagementMode::Adpm && config.heuristics.feasible_values;
        let domain = if use_feasible && !net.feasible(target).is_empty() {
            net.feasible(target).clone()
        } else {
            initial.clone()
        };
        let direction = if noisy {
            None
        } else {
            self.constraint_direction_vote(dpm, target)
        };
        let mut value = self.pick_from_domain(&domain, direction, rng)?;
        // History: avoid value combinations that previously led to
        // violations.
        let context = Self::context_hash(net, target);
        let mut tries = 0;
        while self.is_tabu(target, value, context) && tries < 8 {
            value = random_in(&domain.enclosing_interval()?, &domain, rng);
            tries += 1;
        }
        self.last_assignment = Some((target, value, context));
        let problem = self.problem_of_output(dpm, &open_problems, target);
        Some(Operation::assign(
            self.id,
            problem,
            target,
            Value::number(value),
        ))
    }

    /// Direction vote across *all* constraints connected to `target`
    /// (not just violated ones) — used when choosing the first value, per
    /// the paper's "top or bottom value based on what may satisfy most
    /// constraints".
    fn constraint_direction_vote(
        &self,
        dpm: &DesignProcessManager,
        target: PropertyId,
    ) -> Option<HelpsDirection> {
        let net = dpm.network();
        let mut ups = 0usize;
        let mut downs = 0usize;
        for cid in net.constraints_of(target) {
            match helps_direction(net, *cid, target) {
                Some(HelpsDirection::Up) => ups += 1,
                Some(HelpsDirection::Down) => downs += 1,
                None => {}
            }
        }
        match ups.cmp(&downs) {
            std::cmp::Ordering::Greater => Some(HelpsDirection::Up),
            std::cmp::Ordering::Less => Some(HelpsDirection::Down),
            std::cmp::Ordering::Equal => None,
        }
    }

    // --- verification ---------------------------------------------------------

    /// Conventional flow only: request a verification run for a problem
    /// whose outputs are bound but whose constraints have unverified
    /// (Consistent) status. Cross-subproblem constraints — those of a
    /// parent problem — are verified only once all subproblems are solved
    /// (paper §3.1.2).
    fn verify(&self, dpm: &DesignProcessManager, problems: &[ProblemId]) -> Option<Operation> {
        let net = dpm.network();
        for pid in problems {
            let problem = dpm.problems().problem(*pid);
            if problem.status() == ProblemStatus::Solved {
                continue;
            }
            let outputs_bound = problem.outputs().iter().all(|p| net.is_bound(*p));
            if !outputs_bound {
                continue;
            }
            if !problem.children().is_empty() {
                let children_solved = problem
                    .children()
                    .iter()
                    .all(|c| dpm.problems().problem(*c).status() == ProblemStatus::Solved);
                if !children_solved {
                    continue;
                }
            }
            let has_unverified = problem.constraints().iter().any(|cid| {
                net.all_arguments_bound(*cid)
                    && net.status(*cid) == adpm_constraint::ConstraintStatus::Consistent
            });
            if has_unverified {
                return Some(Operation::verify(self.id, *pid));
            }
        }
        None
    }

    fn initial_width(&self, dpm: &DesignProcessManager, pid: PropertyId) -> f64 {
        dpm.network()
            .property(pid)
            .initial_domain()
            .enclosing_interval()
            .map(|iv| if iv.is_bounded() { iv.width() } else { 2e6 })
            .unwrap_or(2e6)
    }
}

/// Finds the smallest move of `target` from `current` in `direction` that
/// turns every *fixable* violated constraint's margin positive, with a
/// small overshoot for robustness. Returns `None` when no violated
/// constraint can be fixed by moving this property (the move would be
/// wasted), so the caller falls back to tie-break scoring or delta
/// stepping.
fn margin_repair_value(
    dpm: &DesignProcessManager,
    target: PropertyId,
    violations: &[ConstraintId],
    current: f64,
    direction: HelpsDirection,
    initial: &Domain,
) -> Option<f64> {
    let net = dpm.network();
    let hull = initial.enclosing_interval()?;
    if !hull.is_bounded() {
        return None;
    }
    let extreme = match direction {
        HelpsDirection::Up => hull.hi(),
        HelpsDirection::Down => hull.lo(),
    };
    if (extreme - current).abs() < 1e-12 * (1.0 + current.abs()) {
        return None; // already at the bound; cannot move further
    }
    let point = |id: PropertyId, x: f64| {
        if id == target {
            return x;
        }
        if let Some(v) = net.assignment(id).and_then(|v| v.as_number()) {
            return v;
        }
        let iv = net.effective_interval(id);
        if iv.is_bounded() {
            iv.midpoint()
        } else {
            0.0
        }
    };
    let mut needed: Option<f64> = None;
    for cid in violations {
        let constraint = net.constraint(*cid);
        if !constraint.involves(target) {
            continue;
        }
        let margin_at = |x: f64| constraint.margin(&|id| point(id, x));
        if margin_at(current) >= 0.0 {
            continue; // already fine at the current point (multi-property conflict)
        }
        // Walk towards the extreme and find the first sample with a
        // non-negative margin; sampling (rather than an endpoint check)
        // also handles *band* constraints like `|f_c - f_req| <= 5` whose
        // margin turns positive and then negative again along the way.
        const STEPS: usize = 64;
        let mut crossing: Option<(f64, f64)> = None;
        for k in 1..=STEPS {
            let x = current + (extreme - current) * (k as f64) / (STEPS as f64);
            if margin_at(x) >= 0.0 {
                let prev = current + (extreme - current) * ((k - 1) as f64) / (STEPS as f64);
                crossing = Some((prev, x));
                break;
            }
        }
        let Some((mut bad, mut good)) = crossing else {
            continue; // unfixable by this property alone
        };
        for _ in 0..60 {
            let mid = 0.5 * (bad + good);
            if margin_at(mid) >= 0.0 {
                good = mid;
            } else {
                bad = mid;
            }
        }
        needed = Some(match (needed, direction) {
            (None, _) => good,
            (Some(n), HelpsDirection::Up) => n.max(good),
            (Some(n), HelpsDirection::Down) => n.min(good),
        });
    }
    let needed = needed?;
    // Discrete domains: take the nearest member *at or beyond* the needed
    // value in the repair direction — rounding back towards the current
    // value would turn the repair into a no-op.
    if let Some(candidates) = initial.candidates() {
        let numbers: Vec<f64> = candidates.iter().filter_map(|v| v.as_number()).collect();
        return match direction {
            HelpsDirection::Up => numbers
                .iter()
                .copied()
                .filter(|x| *x >= needed - 1e-9)
                .fold(None, |acc: Option<f64>, x| {
                    Some(acc.map_or(x, |a| a.min(x)))
                }),
            HelpsDirection::Down => numbers
                .iter()
                .copied()
                .filter(|x| *x <= needed + 1e-9)
                .fold(None, |acc: Option<f64>, x| {
                    Some(acc.map_or(x, |a| a.max(x)))
                }),
        }
        .filter(|x| (x - current).abs() > 1e-9);
    }
    // Overshoot slightly past the exact boundary so rounding and the next
    // propagation cannot flag the same constraint again - but keep the
    // overshoot proportional to the move so narrow feasible windows (e.g.
    // a bandwidth pinned between two requirements) are not jumped across.
    let overshoot = (0.25 * (needed - current).abs()).min(0.05 * (extreme - needed).abs());
    Some(hull.clamp(needed + direction.sign() * overshoot))
}

/// Clamps an interval to a large finite box (random sampling needs bounds).
fn bounded(iv: &Interval) -> Interval {
    Interval::new(iv.lo().max(-1e6), iv.hi().min(1e6))
}

/// Uniform random value inside the interval, snapped to the domain's
/// discrete candidates when it has any.
fn random_in(iv: &Interval, domain: &Domain, rng: &mut StdRng) -> f64 {
    if let Some(candidates) = domain.candidates() {
        let numbers: Vec<f64> = candidates.iter().filter_map(|v| v.as_number()).collect();
        if !numbers.is_empty() {
            return numbers[rng.gen_range(0..numbers.len())];
        }
    }
    let hull = bounded(iv);
    if hull.is_singleton() || hull.is_empty() {
        return hull.lo();
    }
    rng.gen_range(hull.lo()..hull.hi())
}

/// Snaps a continuous candidate to the nearest member of a discrete domain
/// (no-op for interval domains), then clamps into `bounds`.
fn snap_to_domain(value: f64, domain: &Domain, bounds: &Interval) -> f64 {
    let v = bounds.clamp(value);
    if let Some(candidates) = domain.candidates() {
        let numbers: Vec<f64> = candidates.iter().filter_map(|x| x.as_number()).collect();
        if let Some(nearest) = numbers
            .iter()
            .min_by(|a, b| (*a - v).abs().partial_cmp(&(*b - v).abs()).expect("finite"))
        {
            return *nearest;
        }
    }
    v
}

/// Fisher–Yates shuffle (avoids pulling in rand's slice extension trait).
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adpm_core::DpmConfig;
    use adpm_scenarios::lna_walkthrough;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn adpm_setup() -> (DesignProcessManager, Vec<SimulatedDesigner>) {
        let s = lna_walkthrough();
        let dpm = s.build_dpm(DpmConfig::adpm());
        let designers = dpm
            .designers()
            .iter()
            .map(|d| SimulatedDesigner::new(*d))
            .collect();
        (dpm, designers)
    }

    #[test]
    fn forward_choice_targets_own_unbound_output() {
        let (dpm, mut designers) = adpm_setup();
        let config = SimulationConfig::adpm(1);
        let op = designers[1]
            .choose(&dpm, &config, &mut rng())
            .expect("has work");
        let target = op.operator().target_property().expect("assign op");
        // Designer 1 owns the analog problem's outputs.
        let analog = dpm.problems().assigned_to(designers[1].id())[0];
        assert!(dpm.problems().problem(analog).has_output(target));
    }

    #[test]
    fn waiting_parent_is_not_addressed() {
        let (dpm, mut designers) = adpm_setup();
        // Designer 0 owns only the root, which is Waiting on its children;
        // with no violations known there is nothing to do.
        let config = SimulationConfig::adpm(1);
        assert!(designers[0].choose(&dpm, &config, &mut rng()).is_none());
    }

    #[test]
    fn conventional_designer_requests_verification_when_bound() {
        let s = lna_walkthrough();
        let mut dpm = s.build_dpm(DpmConfig::conventional());
        let config = SimulationConfig::conventional(1);
        let mut designer = SimulatedDesigner::new(dpm.designers()[2]);
        let mut r = rng();
        // Bind both filter outputs.
        for _ in 0..2 {
            let op = designer.choose(&dpm, &config, &mut r).expect("has work");
            assert_eq!(op.operator().kind(), "assign");
            let record = dpm.execute(op).unwrap();
            designer.observe(&record);
        }
        // Outputs bound; next action must be a verification request.
        let op = designer.choose(&dpm, &config, &mut r).expect("verify next");
        assert_eq!(op.operator().kind(), "verify");
    }

    #[test]
    fn repair_prefers_high_alpha_property_with_direction() {
        // Recreate the walkthrough's α = 2 situation and check the designer
        // targets Diff-pair-W and moves it up.
        let s = lna_walkthrough();
        let mut dpm = s.build_dpm(DpmConfig::adpm());
        let d = dpm.designers().to_vec();
        let top = dpm.problems().root().unwrap();
        let analog = dpm.problems().problem(top).children()[0];
        let filter = dpm.problems().problem(top).children()[1];
        let w = s.property("LNA+Mixer", "Diff-pair-W").unwrap();
        for (pid, problem, designer, value) in [
            (
                s.property("Filter", "beam-len").unwrap(),
                filter,
                d[2],
                13.0,
            ),
            (
                s.property("Filter", "flt-loss").unwrap(),
                filter,
                d[2],
                19.5,
            ),
            (
                s.property("LNA+Mixer", "Freq-ind").unwrap(),
                analog,
                d[1],
                0.2,
            ),
            (w, analog, d[1], 3.0),
            (
                s.property("system", "req-sys-gain").unwrap(),
                top,
                d[0],
                30.0,
            ),
            (s.property("system", "req-zerr").unwrap(), top, d[0], 35.0),
        ] {
            dpm.execute(Operation::assign(
                designer,
                problem,
                pid,
                Value::number(value),
            ))
            .unwrap();
        }
        assert_eq!(dpm.known_violations().len(), 2);
        let config = SimulationConfig::adpm(1);
        let mut designer = SimulatedDesigner::new(d[1]);
        let op = designer.choose(&dpm, &config, &mut rng()).expect("repair");
        assert_eq!(op.operator().target_property(), Some(w));
        assert_eq!(op.repairs().len(), 2);
        // The new value moves up from 3.0 (both violations helped by Up).
        let new_value = match op.operator() {
            adpm_core::Operator::Assign { value, .. } => value.as_number().unwrap(),
            other => panic!("expected assign, got {other:?}"),
        };
        assert!(new_value > 3.0, "expected an increase, got {new_value}");
        // Executing the repair clears both violations.
        dpm.execute(op).unwrap();
        assert!(
            dpm.known_violations().is_empty(),
            "repair value {new_value}"
        );
    }

    #[test]
    fn observe_remembers_failed_values() {
        let mut designer = SimulatedDesigner::new(DesignerId::new(1));
        designer.last_assignment = Some((PropertyId::new(3), 2.5, 77));
        let record = OperationRecord {
            sequence: 1,
            operation: Operation::assign(
                DesignerId::new(1),
                ProblemId::new(0),
                PropertyId::new(3),
                Value::number(2.5),
            ),
            evaluations: 1,
            violations_after: 1,
            new_violations: vec![ConstraintId::new(0)],
            spin: false,
        };
        designer.observe(&record);
        assert_eq!(designer.tabu_len(), 1);
        assert!(designer.is_tabu(PropertyId::new(3), 2.5, 77));
        assert!(!designer.is_tabu(PropertyId::new(3), 2.6, 77));
        // Same value in a *different* neighbour context is not tabu — the
        // paper forbids failed combinations, not values.
        assert!(!designer.is_tabu(PropertyId::new(3), 2.5, 78));
    }

    #[test]
    fn observe_ignores_records_for_other_operations() {
        // A rejected proposal leaves a stale last_assignment; a later
        // verify record (new violations!) must not tabu the never-executed
        // value.
        let mut designer = SimulatedDesigner::new(DesignerId::new(1));
        designer.last_assignment = Some((PropertyId::new(3), 2.5, 77));
        let record = OperationRecord {
            sequence: 1,
            operation: Operation::verify(DesignerId::new(1), ProblemId::new(0)),
            evaluations: 1,
            violations_after: 1,
            new_violations: vec![ConstraintId::new(0)],
            spin: false,
        };
        designer.observe(&record);
        assert_eq!(designer.tabu_len(), 0, "stale assignment was attributed");
    }

    #[test]
    fn observe_ignores_other_designers() {
        let mut designer = SimulatedDesigner::new(DesignerId::new(1));
        designer.last_assignment = Some((PropertyId::new(3), 2.5, 77));
        let record = OperationRecord {
            sequence: 1,
            operation: Operation::verify(DesignerId::new(0), ProblemId::new(0)),
            evaluations: 1,
            violations_after: 1,
            new_violations: vec![ConstraintId::new(0)],
            spin: false,
        };
        designer.observe(&record);
        assert_eq!(designer.tabu_len(), 0);
    }

    #[test]
    fn pick_from_domain_honours_direction() {
        let designer = SimulatedDesigner::new(DesignerId::new(0));
        let mut r = rng();
        let d = Domain::interval(0.0, 10.0);
        let up = designer
            .pick_from_domain(&d, Some(HelpsDirection::Up), &mut r)
            .unwrap();
        let down = designer
            .pick_from_domain(&d, Some(HelpsDirection::Down), &mut r)
            .unwrap();
        assert!((8.0..=10.0).contains(&up));
        assert!((0.0..2.0).contains(&down));
        let set = Domain::number_set([1.0, 2.0, 4.0]);
        assert_eq!(
            designer.pick_from_domain(&set, Some(HelpsDirection::Up), &mut r),
            Some(4.0)
        );
        assert_eq!(
            designer.pick_from_domain(&set, Some(HelpsDirection::Down), &mut r),
            Some(1.0)
        );
        assert!(designer
            .pick_from_domain(&Domain::empty(), None, &mut r)
            .is_none());
    }

    #[test]
    fn snap_to_domain_picks_nearest_candidate() {
        let set = Domain::number_set([8.0, 10.0, 12.0, 14.0, 16.0]);
        let bounds = Interval::new(8.0, 16.0);
        assert_eq!(snap_to_domain(10.7, &set, &bounds), 10.0);
        assert_eq!(snap_to_domain(11.1, &set, &bounds), 12.0);
        assert_eq!(snap_to_domain(99.0, &set, &bounds), 16.0);
        let iv = Domain::interval(0.0, 1.0);
        assert_eq!(snap_to_domain(0.4, &iv, &Interval::new(0.0, 1.0)), 0.4);
    }

    /// Builds a tiny DPM where `x` is pinched between `lo: x >= 8` (up)
    /// and `hi: x <= 2` (down) — a direction tie — plus a satisfied cap.
    fn pinched_dpm(mode: adpm_core::ManagementMode) -> (DesignProcessManager, PropertyId) {
        use adpm_constraint::{
            expr::{cst, var},
            ConstraintNetwork, Property, Relation,
        };
        let mut net = ConstraintNetwork::new();
        let x = net
            .add_property(Property::new("x", "o", Domain::interval(0.0, 10.0)))
            .unwrap();
        net.add_constraint("lo", var(x), Relation::Ge, cst(8.0))
            .unwrap();
        net.add_constraint("hi", var(x), Relation::Le, cst(9.5))
            .unwrap();
        let config = match mode {
            adpm_core::ManagementMode::Adpm => adpm_core::DpmConfig::adpm(),
            adpm_core::ManagementMode::Conventional => adpm_core::DpmConfig::conventional(),
        };
        let mut dpm = DesignProcessManager::new(net, config);
        let d = dpm.add_designer();
        let top = dpm.problems_mut().add_root("top");
        *dpm.problems_mut().problem_mut(top) = dpm
            .problems()
            .problem(top)
            .clone()
            .with_outputs([x])
            .with_constraints(dpm.network().constraint_ids().collect::<Vec<_>>())
            .with_assignee(d);
        (dpm, x)
    }

    #[test]
    fn best_scoring_value_lands_in_the_satisfying_window() {
        // x bound at 1.0 violates `lo` (x >= 8); `hi` caps at 9.5. The
        // satisfying window is [8, 9.5]; the scoring scan must land inside.
        let (mut dpm, x) = pinched_dpm(adpm_core::ManagementMode::Adpm);
        let top = dpm.problems().root().unwrap();
        let d = dpm.designers()[0];
        dpm.execute(Operation::assign(d, top, x, Value::number(1.0)))
            .unwrap();
        assert_eq!(dpm.known_violations().len(), 1);
        let designer = SimulatedDesigner::new(d);
        let config = SimulationConfig::adpm(0);
        let violations = dpm.known_violations();
        let value = designer
            .best_scoring_value(
                &dpm,
                &config,
                x,
                &violations,
                1.0,
                0,
                &Domain::interval(0.0, 10.0),
            )
            .expect("an improving value exists");
        assert!((8.0..=9.5).contains(&value), "value = {value}");
    }

    #[test]
    fn best_scoring_value_returns_none_when_no_move_improves() {
        // x = 9.0 satisfies both constraints; there is nothing to gain.
        let (mut dpm, x) = pinched_dpm(adpm_core::ManagementMode::Adpm);
        let top = dpm.problems().root().unwrap();
        let d = dpm.designers()[0];
        dpm.execute(Operation::assign(d, top, x, Value::number(9.0)))
            .unwrap();
        assert!(dpm.known_violations().is_empty());
        let designer = SimulatedDesigner::new(d);
        let config = SimulationConfig::adpm(0);
        assert_eq!(
            designer.best_scoring_value(
                &dpm,
                &config,
                x,
                &[],
                9.0,
                0,
                &Domain::interval(0.0, 10.0)
            ),
            None
        );
    }

    #[test]
    fn checkable_constraints_are_mode_asymmetric() {
        use adpm_constraint::{
            expr::{cst, var},
            ConstraintNetwork, Property, Relation,
        };
        // x belongs to designer 0's problem; `local` is theirs, `cross` is
        // the (unassigned-to-them) parent's and never seen violated.
        let mut net = ConstraintNetwork::new();
        let x = net
            .add_property(Property::new("x", "a", Domain::interval(0.0, 10.0)))
            .unwrap();
        let y = net
            .add_property(Property::new("y", "b", Domain::interval(0.0, 10.0)))
            .unwrap();
        let local = net
            .add_constraint("local", var(x), Relation::Le, cst(9.0))
            .unwrap();
        let cross = net
            .add_constraint("cross", var(x) + var(y), Relation::Le, cst(12.0))
            .unwrap();
        let build = |mode| {
            let config = match mode {
                adpm_core::ManagementMode::Adpm => adpm_core::DpmConfig::adpm(),
                adpm_core::ManagementMode::Conventional => adpm_core::DpmConfig::conventional(),
            };
            let mut dpm = DesignProcessManager::new(net.clone(), config);
            let d0 = dpm.add_designer();
            let d1 = dpm.add_designer();
            let top = dpm.problems_mut().add_root("top");
            let pa = dpm.problems_mut().decompose(top, "pa");
            let pb = dpm.problems_mut().decompose(top, "pb");
            *dpm.problems_mut().problem_mut(top) = dpm
                .problems()
                .problem(top)
                .clone()
                .with_constraints([cross]);
            *dpm.problems_mut().problem_mut(pa) = dpm
                .problems()
                .problem(pa)
                .clone()
                .with_outputs([x])
                .with_constraints([local])
                .with_assignee(d0);
            *dpm.problems_mut().problem_mut(pb) = dpm
                .problems()
                .problem(pb)
                .clone()
                .with_outputs([y])
                .with_assignee(d1);
            dpm
        };
        let designer = SimulatedDesigner::new(DesignerId::new(0));
        // ADPM: the DCM keeps every constraint's status fresh.
        let adpm = build(adpm_core::ManagementMode::Adpm);
        let checkable = designer.checkable_constraints(&adpm, &SimulationConfig::adpm(0), x, &[]);
        assert!(checkable.contains(&local) && checkable.contains(&cross));
        // Conventional: the unseen cross constraint is invisible.
        let conv = build(adpm_core::ManagementMode::Conventional);
        let checkable =
            designer.checkable_constraints(&conv, &SimulationConfig::conventional(0), x, &[]);
        assert!(checkable.contains(&local));
        assert!(
            !checkable.contains(&cross),
            "unseen cross constraint leaked"
        );
        // ...until it has been seen violated once.
        let mut aware = SimulatedDesigner::new(DesignerId::new(0));
        aware.seen_violated.insert(cross);
        let checkable =
            aware.checkable_constraints(&conv, &SimulationConfig::conventional(0), x, &[]);
        assert!(checkable.contains(&cross));
    }

    #[test]
    fn context_tabu_releases_when_a_neighbour_moves() {
        let (mut dpm, x) = pinched_dpm(adpm_core::ManagementMode::Adpm);
        let net = dpm.network();
        let ctx1 = SimulatedDesigner::context_hash(net, x);
        let mut designer = SimulatedDesigner::new(dpm.designers()[0]);
        designer.remember_failure(x, 5.0, ctx1);
        assert!(designer.is_tabu(x, 5.0, ctx1));
        // x has no constraint neighbours in this net, so fabricate a
        // different context value directly: the same value in another
        // context is admissible.
        assert!(!designer.is_tabu(x, 5.0, ctx1 ^ 1));
        // And the context hash actually changes when a neighbour binds.
        let top = dpm.problems().root().unwrap();
        let d = dpm.designers()[0];
        dpm.execute(Operation::assign(d, top, x, Value::number(9.0)))
            .unwrap();
        // x's own binding does not affect x's context (neighbours only).
        assert_eq!(SimulatedDesigner::context_hash(dpm.network(), x), ctx1);
    }

    #[test]
    fn forward_ordering_variants_pick_different_targets() {
        use crate::config::ForwardOrdering;
        use adpm_constraint::{
            expr::{cst, var},
            ConstraintNetwork, Property, Relation,
        };
        // `hub` sits in two constraints with a wide feasible range;
        // `narrow` sits in one constraint that pins it tightly.
        let mut net = ConstraintNetwork::new();
        let hub = net
            .add_property(Property::new("hub", "o", Domain::interval(0.0, 10.0)))
            .unwrap();
        let narrow = net
            .add_property(Property::new("narrow", "o", Domain::interval(0.0, 10.0)))
            .unwrap();
        net.add_constraint("h1", var(hub), Relation::Le, cst(9.0))
            .unwrap();
        net.add_constraint("h2", var(hub), Relation::Ge, cst(1.0))
            .unwrap();
        net.add_constraint("n1", var(narrow), Relation::Le, cst(0.5))
            .unwrap();
        let mut dpm = DesignProcessManager::new(net, adpm_core::DpmConfig::adpm());
        let d = dpm.add_designer();
        let top = dpm.problems_mut().add_root("top");
        *dpm.problems_mut().problem_mut(top) = dpm
            .problems()
            .problem(top)
            .clone()
            .with_outputs([hub, narrow])
            .with_assignee(d);
        dpm.initialize();

        let target_under = |ordering: ForwardOrdering| {
            let mut config = SimulationConfig::adpm(1);
            config.choice_noise = 0.0; // deterministic for the test
            config.heuristics.forward_ordering = ordering;
            let mut designer = SimulatedDesigner::new(d);
            let op = designer
                .choose(&dpm, &config, &mut rng())
                .expect("forward work exists");
            op.operator().target_property().expect("assign")
        };
        // Smallest feasible subspace picks the pinned property...
        assert_eq!(target_under(ForwardOrdering::SmallestFeasible), narrow);
        // ...β ordering picks the most-connected one.
        assert_eq!(target_under(ForwardOrdering::Beta), hub);
        assert_eq!(target_under(ForwardOrdering::BetaIndirect), hub);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut items: Vec<u32> = (0..20).collect();
        shuffle(&mut items, &mut rng());
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<u32>>());
    }
}
