//! The network of constraints `C_n` and its properties.
//!
//! A [`ConstraintNetwork`] owns the design's properties (with their initial
//! ranges `E_i`, current assignments, and feasible subspaces `v_F(a_i)`),
//! the constraints relating them, and the last computed status of every
//! constraint. It is the data structure the paper's Design Constraint
//! Manager evaluates and the Design Process Manager labels states with.

use crate::compile::{CompiledNetwork, GapForm};
use crate::constraint::{Constraint, ConstraintStatus, Relation, Relaxation};
use crate::domain::Domain;
use crate::error::NetworkError;
use crate::expr::Expr;
use crate::ids::{ConstraintId, PropertyId};
use crate::interval::Interval;
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Static description of a design property.
///
/// # Examples
///
/// ```
/// use adpm_constraint::{Property, Domain};
/// let freq_ind = Property::new("Freq-ind", "LNA+Mixer", Domain::interval(0.0, 0.5))
///     .with_units("µH")
///     .with_abstraction_levels(["Transistor", "Geometry"]);
/// assert_eq!(freq_ind.name(), "Freq-ind");
/// assert_eq!(freq_ind.qualified_name(), "LNA+Mixer.Freq-ind");
/// assert_eq!(freq_ind.units(), Some("µH"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Property {
    /// `object.name`, built once: [`object`](Self::object) and
    /// [`name`](Self::name) are its two parts.
    qualified: String,
    /// Length of the object part of `qualified`.
    object_len: usize,
    units: Option<String>,
    abstraction_levels: Vec<String>,
    initial: Domain,
}

impl Property {
    /// Creates a property named `name` on design object `object` with the
    /// initial value range `initial` (the paper's `E_i`).
    pub fn new(name: impl Into<String>, object: impl Into<String>, initial: Domain) -> Self {
        let mut qualified = object.into();
        let object_len = qualified.len();
        qualified.push('.');
        qualified.push_str(&name.into());
        Property {
            qualified,
            object_len,
            units: None,
            abstraction_levels: Vec::new(),
            initial,
        }
    }

    /// Attaches a unit label (for display only; values are unit-free).
    pub fn with_units(mut self, units: impl Into<String>) -> Self {
        self.units = Some(units.into());
        self
    }

    /// Attaches the abstraction levels shown in the paper's object browser.
    pub fn with_abstraction_levels<S: Into<String>>(
        mut self,
        levels: impl IntoIterator<Item = S>,
    ) -> Self {
        self.abstraction_levels = levels.into_iter().map(Into::into).collect();
        self
    }

    /// Property name, unique within its design object.
    pub fn name(&self) -> &str {
        &self.qualified[self.object_len + 1..]
    }

    /// Owning design object, e.g. `LNA+Mixer`.
    pub fn object(&self) -> &str {
        &self.qualified[..self.object_len]
    }

    /// The qualified name `object.name` that traces, explanations and the
    /// wire use, e.g. `LNA+Mixer.Freq-ind`.
    pub fn qualified_name(&self) -> &str {
        &self.qualified
    }

    /// Unit label, if any.
    pub fn units(&self) -> Option<&str> {
        self.units.as_deref()
    }

    /// Abstraction levels, if declared.
    pub fn abstraction_levels(&self) -> &[String] {
        &self.abstraction_levels
    }

    /// The initial value range `E_i`.
    pub fn initial_domain(&self) -> &Domain {
        &self.initial
    }
}

/// Which way to move a property's value to help satisfy a constraint.
///
/// This encodes the paper's constraint monotonicity (footnote in §3.1.1):
/// a constraint is *monotonic in `a_i`* if moving `a_i`'s value in a given
/// direction helps satisfy the requirement the constraint implies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HelpsDirection {
    /// Increasing the property's value helps satisfy the constraint.
    Up,
    /// Decreasing the property's value helps satisfy the constraint.
    Down,
}

impl HelpsDirection {
    /// The opposite direction.
    pub fn opposite(self) -> HelpsDirection {
        match self {
            HelpsDirection::Up => HelpsDirection::Down,
            HelpsDirection::Down => HelpsDirection::Up,
        }
    }

    /// The signed step multiplier (`+1.0` for up, `-1.0` for down).
    pub fn sign(self) -> f64 {
        match self {
            HelpsDirection::Up => 1.0,
            HelpsDirection::Down => -1.0,
        }
    }
}

impl fmt::Display for HelpsDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HelpsDirection::Up => f.write_str("increasing"),
            HelpsDirection::Down => f.write_str("decreasing"),
        }
    }
}

#[derive(Debug, Clone)]
struct PropertyState {
    meta: Property,
    assignment: Option<Value>,
    feasible: Domain,
    /// Whether the property counts in [`ConstraintNetwork::narrowed_count`].
    narrowed: bool,
}

impl PropertyState {
    /// Unbound, with a feasible subspace strictly inside `E_i`.
    fn is_narrowed(&self) -> bool {
        self.assignment.is_none() && self.feasible.relative_size(&self.meta.initial) < 1.0
    }
}

/// The network of design constraints and properties.
///
/// # Examples
///
/// ```
/// use adpm_constraint::{ConstraintNetwork, Property, Domain, Relation, Value,
///                       expr::{var, cst}};
/// # fn main() -> Result<(), adpm_constraint::NetworkError> {
/// let mut net = ConstraintNetwork::new();
/// let pf = net.add_property(Property::new("P-front", "rx", Domain::interval(0.0, 300.0)))?;
/// let ps = net.add_property(Property::new("P-ser", "rx", Domain::interval(0.0, 300.0)))?;
/// net.add_constraint("power", var(pf) + var(ps), Relation::Le, cst(200.0))?;
/// net.bind(pf, Value::number(150.0))?;
/// net.evaluate_statuses();
/// assert_eq!(net.violated_constraints().len(), 0); // P-ser may still be <= 50
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ConstraintNetwork {
    properties: Vec<PropertyState>,
    constraints: Vec<Constraint>,
    /// Each constraint lowered to a flat interval program, in lockstep with
    /// `constraints`: compiled in `add_constraint`, recompiled in
    /// `relax_constraint` — the only edits of constraints. Behind an `Arc`,
    /// so cloning the network shares the programs, and the gap forms they
    /// build on first use, instead of copying them.
    programs: Arc<CompiledNetwork>,
    /// Each property's two-hop `β` ([`beta_indirect`](Self::beta_indirect)),
    /// computed on the first read after a structural edit. Clones share it;
    /// `add_property`, `add_constraint` and `relax_constraint` replace it.
    two_hop_beta: Arc<OnceLock<Vec<usize>>>,
    statuses: Vec<ConstraintStatus>,
    prop_constraints: Vec<Vec<ConstraintId>>,
    declared_monotonic: HashMap<(ConstraintId, PropertyId), HelpsDirection>,
    name_index: HashMap<(String, String), PropertyId>,
    /// Whether the feasible subspaces and statuses are the fixed point of
    /// the last run, up to the bindings in `dirty_props`, so a region run
    /// may start from them. Structural edits, `reset_feasible` and a run
    /// the evaluation cap stopped clear it.
    fixpoint_clean: bool,
    /// Properties bound or unbound since the last clean fixed point — the
    /// implicit dirty set region propagation unions with the caller's.
    dirty_props: BTreeSet<PropertyId>,
    /// Constraints whose stored status was overwritten out-of-band (via
    /// [`set_status`](Self::set_status)) since they were last evaluated;
    /// a region run re-evaluates these even when no adjacent property
    /// changed.
    stale_statuses: BTreeSet<ConstraintId>,
    /// How many properties are narrowed: kept by every write to an
    /// assignment or a feasible subspace, so a run need not scan.
    narrowed: usize,
    /// The buffers [`walk_region`](Self::walk_region) reuses across runs.
    region_marks: RegionMarks,
}

impl ConstraintNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of properties.
    pub fn property_count(&self) -> usize {
        self.properties.len()
    }

    /// Number of constraints.
    pub fn constraint_count(&self) -> usize {
        self.constraints.len()
    }

    /// Adds a property; its feasible subspace starts at the full `E_i`.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::DuplicateProperty`] if a property with the
    /// same name already exists on the same design object.
    pub fn add_property(&mut self, meta: Property) -> Result<PropertyId, NetworkError> {
        let key = (meta.object().to_owned(), meta.name().to_owned());
        if self.name_index.contains_key(&key) {
            return Err(NetworkError::DuplicateProperty(meta.qualified.clone()));
        }
        let id = PropertyId::new(self.properties.len() as u32);
        let feasible = meta.initial.clone();
        self.properties.push(PropertyState {
            meta,
            assignment: None,
            feasible,
            narrowed: false,
        });
        self.refresh_narrowed(id);
        self.prop_constraints.push(Vec::new());
        self.name_index.insert(key, id);
        self.two_hop_beta = Arc::default();
        self.fixpoint_clean = false;
        Ok(id)
    }

    /// Adds a constraint `lhs rel rhs` and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::DanglingReference`] if an argument id is
    /// unknown, or [`NetworkError::NonNumericArgument`] if an argument's
    /// domain is symbolic (text/bool) — such properties cannot appear in
    /// arithmetic relations.
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        lhs: Expr,
        rel: Relation,
        rhs: Expr,
    ) -> Result<ConstraintId, NetworkError> {
        let id = ConstraintId::new(self.constraints.len() as u32);
        let constraint = Constraint::new(id, name, lhs, rel, rhs);
        for arg in constraint.argument_slice() {
            let state =
                self.properties
                    .get(arg.index())
                    .ok_or(NetworkError::DanglingReference {
                        constraint: constraint.name().to_owned(),
                        property: *arg,
                    })?;
            if !state.meta.initial.is_numeric() {
                return Err(NetworkError::NonNumericArgument {
                    constraint: constraint.name().to_owned(),
                    property: *arg,
                });
            }
        }
        for arg in constraint.argument_slice() {
            self.prop_constraints[arg.index()].push(id);
        }
        Arc::make_mut(&mut self.programs).push(&constraint);
        self.constraints.push(constraint);
        self.statuses.push(ConstraintStatus::Consistent);
        self.two_hop_beta = Arc::default();
        self.fixpoint_clean = false;
        Ok(id)
    }

    /// Declares that constraint `cid` is monotonic in `pid`: moving the
    /// property's value in `dir` helps satisfy the constraint. Mirrors the
    /// DDDL `monotonic increasing/decreasing` declaration from the paper.
    ///
    /// # Errors
    ///
    /// Returns an error if either id is unknown.
    pub fn declare_monotonic(
        &mut self,
        cid: ConstraintId,
        pid: PropertyId,
        dir: HelpsDirection,
    ) -> Result<(), NetworkError> {
        if cid.index() >= self.constraints.len() {
            return Err(NetworkError::UnknownConstraint(cid));
        }
        if pid.index() >= self.properties.len() {
            return Err(NetworkError::UnknownProperty(pid));
        }
        self.declared_monotonic.insert((cid, pid), dir);
        Ok(())
    }

    /// The declared monotonic direction for `(cid, pid)`, if any.
    pub fn declared_monotonic(&self, cid: ConstraintId, pid: PropertyId) -> Option<HelpsDirection> {
        self.declared_monotonic.get(&(cid, pid)).copied()
    }

    /// Metadata of a property.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this network.
    pub fn property(&self, id: PropertyId) -> &Property {
        &self.properties[id.index()].meta
    }

    /// Looks up a property by `(object, name)`.
    pub fn property_by_name(&self, object: &str, name: &str) -> Option<PropertyId> {
        self.name_index
            .get(&(object.to_owned(), name.to_owned()))
            .copied()
    }

    /// Iterates over all property ids.
    pub fn property_ids(&self) -> impl Iterator<Item = PropertyId> + '_ {
        (0..self.properties.len() as u32).map(PropertyId::new)
    }

    /// Iterates over all constraint ids.
    pub fn constraint_ids(&self) -> impl Iterator<Item = ConstraintId> + '_ {
        (0..self.constraints.len() as u32).map(ConstraintId::new)
    }

    /// A constraint by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this network.
    pub fn constraint(&self, id: ConstraintId) -> &Constraint {
        &self.constraints[id.index()]
    }

    /// The compiled programs of every constraint, indexed by id.
    pub(crate) fn programs(&self) -> &Arc<CompiledNetwork> {
        &self.programs
    }

    /// The gap form of constraint `cid`: its gap expression, kink flag and
    /// per-argument derivatives, built on first use and shared by clones.
    pub(crate) fn gap_form(&self, cid: ConstraintId) -> &GapForm {
        self.programs.gap_form(&self.constraints[cid.index()])
    }

    /// The constraints where property `id` appears (the basis of `β_i`).
    pub fn constraints_of(&self, id: PropertyId) -> &[ConstraintId] {
        &self.prop_constraints[id.index()]
    }

    /// Partitions the constraints into connected components of the
    /// constraint hypergraph: two constraints are connected when they share
    /// a property.
    ///
    /// Components are the unit of parallelism for the compiled propagation
    /// engine — no property crosses a component, so components can be
    /// propagated on independent workers without coordination. Each inner
    /// vector lists its constraint ids in ascending order, and the outer
    /// vector is sorted by each component's smallest constraint id, making
    /// the partition deterministic for a given network.
    pub fn constraint_components(&self) -> Vec<Vec<ConstraintId>> {
        let n = self.constraints.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]]; // path halving
                i = parent[i];
            }
            i
        }
        for members in &self.prop_constraints {
            let Some((first, rest)) = members.split_first() else {
                continue;
            };
            let root = find(&mut parent, first.index());
            for cid in rest {
                let other = find(&mut parent, cid.index());
                parent[other] = root;
            }
        }
        let mut groups: BTreeMap<usize, Vec<ConstraintId>> = BTreeMap::new();
        for i in 0..n {
            let root = find(&mut parent, i);
            groups
                .entry(root)
                .or_default()
                .push(ConstraintId::new(i as u32));
        }
        let mut components: Vec<Vec<ConstraintId>> = groups.into_values().collect();
        components.sort_by_key(|c| c[0].index());
        components
    }

    /// The paper's `β_i`: number of constraints where `id` appears.
    pub fn beta(&self, id: PropertyId) -> usize {
        self.prop_constraints[id.index()].len()
    }

    /// The §2.3.2 extension of `β_i`: the number of constraints related to
    /// `id` directly **or through intermediate constraints**, up to `depth`
    /// hops in the property–constraint bipartite graph. `depth == 1` equals
    /// [`beta`](Self::beta); each further hop adds the constraints sharing
    /// a property with one already counted. The paper proposes exactly this
    /// extension: "β_i may also include constraints indirectly related to
    /// a_i by an intermediate constraint".
    pub fn beta_extended(&self, id: PropertyId, depth: usize) -> usize {
        Walk::new(self.constraints.len()).count(self, id, depth)
    }

    /// [`beta_extended`](Self::beta_extended) at two hops, the `β`
    /// extension [`HeuristicReport`](crate::HeuristicReport) mines. It
    /// depends only on the network's structure, so the first read after a
    /// structural edit computes it for every property and later reads are
    /// lookups.
    pub fn beta_indirect(&self, id: PropertyId) -> usize {
        self.two_hop_beta.get_or_init(|| {
            let mut walk = Walk::new(self.constraints.len());
            self.property_ids()
                .map(|pid| walk.count(self, pid, 2))
                .collect()
        })[id.index()]
    }

    /// The paper's `α_i`: number of *violated* constraints where `id`
    /// appears (Eq. 3). Reflects the statuses from the last
    /// [`evaluate_statuses`](Self::evaluate_statuses) call.
    pub fn alpha(&self, id: PropertyId) -> usize {
        self.prop_constraints[id.index()]
            .iter()
            .filter(|cid| self.statuses[cid.index()].is_violated())
            .count()
    }

    /// Current assignment of a property, if bound.
    pub fn assignment(&self, id: PropertyId) -> Option<&Value> {
        self.properties[id.index()].assignment.as_ref()
    }

    /// Whether the property is bound to a single value.
    pub fn is_bound(&self, id: PropertyId) -> bool {
        self.properties[id.index()].assignment.is_some()
    }

    /// Binds a property to a value.
    ///
    /// The value must lie in the *initial* range `E_i` — a designer may pick
    /// a value that later turns out infeasible (that is exactly how
    /// conflicts arise), but not one outside the declared range.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::ValueOutsideDomain`] or
    /// [`NetworkError::KindMismatch`].
    pub fn bind(&mut self, id: PropertyId, value: Value) -> Result<(), NetworkError> {
        let state = self
            .properties
            .get_mut(id.index())
            .ok_or(NetworkError::UnknownProperty(id))?;
        let kind_ok = matches!(
            (&state.meta.initial, &value),
            (Domain::Interval(_), Value::Number(_))
                | (Domain::NumberSet(_), Value::Number(_))
                | (Domain::TextSet(_), Value::Text(_))
                | (Domain::Bool { .. }, Value::Bool(_))
        );
        if !kind_ok {
            return Err(NetworkError::KindMismatch {
                property: id,
                value_kind: value.kind(),
            });
        }
        if !state.meta.initial.contains(&value) {
            return Err(NetworkError::ValueOutsideDomain {
                property: id,
                value,
            });
        }
        state.assignment = Some(value);
        self.dirty_props.insert(id);
        self.refresh_narrowed(id);
        Ok(())
    }

    /// Removes a property's assignment (backtracking).
    ///
    /// The derived state the assignment induced is invalidated immediately,
    /// not at the next propagation: the property's feasible subspace drops
    /// back to its initial `E_i` (the old singleton is no longer a fact),
    /// and the statuses of adjacent constraints are re-evaluated so
    /// [`alpha`](Self::alpha) readers between an unbind and the next
    /// propagation never see phantom violations of the abandoned value.
    /// Narrowings recorded on *other* properties keep their (sound, possibly
    /// loose) ranges until the next propagation recomputes them.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::UnknownProperty`] for a foreign id.
    pub fn unbind(&mut self, id: PropertyId) -> Result<(), NetworkError> {
        let state = self
            .properties
            .get_mut(id.index())
            .ok_or(NetworkError::UnknownProperty(id))?;
        if state.assignment.take().is_none() {
            return Ok(()); // already unbound; nothing to invalidate
        }
        state.feasible = state.meta.initial.clone();
        self.dirty_props.insert(id);
        self.refresh_narrowed(id);
        for cid in self.prop_constraints[id.index()].clone() {
            self.evaluate_constraint(cid);
        }
        Ok(())
    }

    /// The feasible subspace `v_F(a_i)` as last computed by propagation
    /// (initially the full `E_i`).
    pub fn feasible(&self, id: PropertyId) -> &Domain {
        &self.properties[id.index()].feasible
    }

    /// Overwrites a property's feasible subspace (used by the propagator).
    pub(crate) fn set_feasible(&mut self, id: PropertyId, domain: Domain) {
        self.properties[id.index()].feasible = domain;
        self.refresh_narrowed(id);
    }

    /// Resets every feasible subspace back to the initial `E_i`. The box no
    /// longer holds a fixed point, so the next region request runs full.
    pub fn reset_feasible(&mut self) {
        for pid in (0..self.properties.len() as u32).map(PropertyId::new) {
            let state = &mut self.properties[pid.index()];
            state.feasible = state.meta.initial.clone();
            self.refresh_narrowed(pid);
        }
        self.fixpoint_clean = false;
    }

    /// How many properties are unbound with a feasible subspace strictly
    /// inside their `E_i` — the narrowings the Notification Manager reports.
    pub fn narrowed_count(&self) -> usize {
        self.narrowed
    }

    /// Re-derives `id`'s narrowed flag after a write, keeping the count.
    fn refresh_narrowed(&mut self, id: PropertyId) {
        let state = &mut self.properties[id.index()];
        let now = state.is_narrowed();
        if std::mem::replace(&mut state.narrowed, now) != now {
            if now {
                self.narrowed += 1;
            } else {
                self.narrowed -= 1;
            }
        }
    }

    /// The interval a constraint evaluation should use for this property:
    /// the bound value as a singleton, otherwise the feasible range.
    ///
    /// Symbolic properties (never constraint arguments) return
    /// [`Interval::UNIVERSE`].
    pub fn effective_interval(&self, id: PropertyId) -> Interval {
        let state = &self.properties[id.index()];
        if let Some(Value::Number(x)) = &state.assignment {
            return Interval::singleton(*x);
        }
        state
            .feasible
            .enclosing_interval()
            .unwrap_or(Interval::UNIVERSE)
    }

    /// Like [`effective_interval`](Self::effective_interval) but using the
    /// *initial* range for unbound properties — the conventional flow's
    /// view, where no feasibility information exists.
    pub fn initial_interval(&self, id: PropertyId) -> Interval {
        let state = &self.properties[id.index()];
        if let Some(Value::Number(x)) = &state.assignment {
            return Interval::singleton(*x);
        }
        state
            .meta
            .initial
            .enclosing_interval()
            .unwrap_or(Interval::UNIVERSE)
    }

    /// Recomputes the status of every constraint against the effective
    /// ranges and returns the number of constraint evaluations performed.
    pub fn evaluate_statuses(&mut self) -> usize {
        let lookup = |id: PropertyId| self.effective_interval(id);
        let statuses: Vec<ConstraintStatus> =
            self.constraints.iter().map(|c| c.status(&lookup)).collect();
        self.statuses = statuses;
        self.stale_statuses.clear();
        self.constraints.len()
    }

    /// Recomputes the statuses of just the given constraints and returns the
    /// number of evaluations performed (`cids.len()`): a propagation run
    /// sweeps the constraints of its region.
    pub(crate) fn evaluate_statuses_subset(&mut self, cids: &[ConstraintId]) -> usize {
        for cid in cids {
            self.evaluate_constraint(*cid);
        }
        cids.len()
    }

    /// Recomputes the status of a single constraint (counts as one
    /// evaluation) and returns it.
    ///
    /// # Panics
    ///
    /// Panics if `cid` does not belong to this network.
    pub fn evaluate_constraint(&mut self, cid: ConstraintId) -> ConstraintStatus {
        let lookup = |id: PropertyId| self.effective_interval(id);
        let status = self.constraints[cid.index()].status(&lookup);
        self.statuses[cid.index()] = status;
        self.stale_statuses.remove(&cid);
        status
    }

    /// The last computed status of a constraint.
    ///
    /// # Panics
    ///
    /// Panics if `cid` does not belong to this network.
    pub fn status(&self, cid: ConstraintId) -> ConstraintStatus {
        self.statuses[cid.index()]
    }

    /// Directly overwrites a stored status (used by the conventional flow,
    /// which learns statuses only from explicit verification runs).
    pub fn set_status(&mut self, cid: ConstraintId, status: ConstraintStatus) {
        self.statuses[cid.index()] = status;
        self.stale_statuses.insert(cid);
    }

    /// Whether the last run left a fixed point a region run may start from
    /// (see [`propagate_incremental`](crate::propagate_incremental)).
    pub(crate) fn fixpoint_clean(&self) -> bool {
        self.fixpoint_clean
    }

    /// Constraints whose stored status was overwritten out-of-band since
    /// they were last evaluated.
    pub(crate) fn stale_statuses(&self) -> &BTreeSet<ConstraintId> {
        &self.stale_statuses
    }

    /// The properties and constraints of the region around `dirty` and the
    /// implicit dirty set, both in id order: a walk that crosses
    /// constraints and stops at bound properties (see
    /// [`propagate_incremental`](crate::propagate_incremental)).
    ///
    /// # Panics
    ///
    /// Panics if a dirty id does not belong to this network.
    pub(crate) fn walk_region(
        &mut self,
        dirty: &[PropertyId],
    ) -> (Vec<PropertyId>, Vec<ConstraintId>) {
        let marks = &mut self.region_marks;
        let stamp = marks.next_stamp(self.properties.len(), self.constraints.len());
        // The region's properties double as the walk's queue.
        let mut properties: Vec<PropertyId> = Vec::new();
        let mut constraints: Vec<ConstraintId> = Vec::new();
        for pid in dirty.iter().chain(&self.dirty_props) {
            if std::mem::replace(&mut marks.properties[pid.index()], stamp) != stamp {
                properties.push(*pid);
            }
        }
        let mut next = 0;
        while let Some(pid) = properties.get(next).copied() {
            next += 1;
            for cid in &self.prop_constraints[pid.index()] {
                if std::mem::replace(&mut marks.constraints[cid.index()], stamp) == stamp {
                    continue;
                }
                constraints.push(*cid);
                for arg in self.constraints[cid.index()].argument_slice() {
                    if marks.properties[arg.index()] != stamp
                        && self.properties[arg.index()].assignment.is_none()
                    {
                        marks.properties[arg.index()] = stamp;
                        properties.push(*arg);
                    }
                }
            }
        }
        properties.sort_unstable();
        constraints.sort_unstable();
        (properties, constraints)
    }

    /// Records the outcome of a propagation run: `clean` means it reached
    /// its fixed point within the cap (which also settles the accumulated
    /// dirty set); `!clean` makes the next region request a full run.
    pub(crate) fn mark_fixpoint(&mut self, clean: bool) {
        self.fixpoint_clean = clean;
        if clean {
            self.dirty_props.clear();
        }
    }

    /// Marks constraint `cid` soft (droppable during negotiation) or hard.
    /// Mirrors the DDDL `soft constraint` modifier.
    ///
    /// # Errors
    ///
    /// [`NetworkError::UnknownConstraint`] for a foreign id.
    pub fn set_constraint_soft(
        &mut self,
        cid: ConstraintId,
        soft: bool,
    ) -> Result<(), NetworkError> {
        self.constraints
            .get_mut(cid.index())
            .ok_or(NetworkError::UnknownConstraint(cid))?
            .set_soft(soft);
        Ok(())
    }

    /// Rewrites constraint `cid` in place with the given relaxation (see
    /// [`Constraint::relaxed`]). The property→constraint adjacency is
    /// updated for arguments the rewrite removed (a drop empties them), the
    /// constraint's program is recompiled, its status is re-evaluated
    /// immediately, and the network's
    /// fixed point is invalidated — relaxing *widens* the admissible space,
    /// so the next propagation must restart from scratch.
    ///
    /// # Errors
    ///
    /// [`NetworkError::UnknownConstraint`] for a foreign id, or
    /// [`NetworkError::Relax`] when the rewrite itself is unlawful.
    pub fn relax_constraint(
        &mut self,
        cid: ConstraintId,
        relaxation: Relaxation,
    ) -> Result<(), NetworkError> {
        let old = self
            .constraints
            .get(cid.index())
            .ok_or(NetworkError::UnknownConstraint(cid))?;
        let new = old
            .relaxed(relaxation)
            .map_err(|source| NetworkError::Relax {
                constraint: old.name().to_owned(),
                source,
            })?;
        for arg in old.arguments() {
            if !new.involves(arg) {
                self.prop_constraints[arg.index()].retain(|c| *c != cid);
            }
        }
        Arc::make_mut(&mut self.programs).replace(&new);
        self.constraints[cid.index()] = new;
        self.two_hop_beta = Arc::default();
        self.fixpoint_clean = false;
        self.evaluate_constraint(cid);
        Ok(())
    }

    /// Ids of all constraints currently recorded as violated.
    pub fn violated_constraints(&self) -> Vec<ConstraintId> {
        self.constraint_ids()
            .filter(|cid| self.statuses[cid.index()].is_violated())
            .collect()
    }

    /// Whether every constraint is currently satisfied.
    pub fn all_satisfied(&self) -> bool {
        self.statuses.iter().all(|s| s.is_satisfied())
    }

    /// Whether any constraint is currently violated.
    pub fn any_violated(&self) -> bool {
        self.statuses.iter().any(|s| s.is_violated())
    }

    /// Point-checks a constraint on the current assignments (a verification
    /// "tool run"). Unbound numeric arguments take their initial-range
    /// midpoint — verification operators in the paper run only once their
    /// inputs are bound, so callers should gate on
    /// [`all_arguments_bound`](Self::all_arguments_bound).
    ///
    /// # Panics
    ///
    /// Panics if `cid` does not belong to this network.
    pub fn check_constraint_point(&self, cid: ConstraintId) -> bool {
        let lookup = |id: PropertyId| {
            if let Some(Value::Number(x)) = self.assignment(id) {
                *x
            } else {
                let iv = self.initial_interval(id);
                if iv.is_bounded() {
                    iv.midpoint()
                } else {
                    0.0
                }
            }
        };
        self.constraints[cid.index()].check_point(&lookup)
    }

    /// Whether all numeric arguments of `cid` are bound.
    ///
    /// # Panics
    ///
    /// Panics if `cid` does not belong to this network.
    pub fn all_arguments_bound(&self, cid: ConstraintId) -> bool {
        self.constraints[cid.index()]
            .argument_slice()
            .iter()
            .all(|pid| self.is_bound(*pid))
    }

    /// Whether the arguments of `cid` span more than one design object —
    /// such constraints are the source of the paper's *design spins*.
    ///
    /// # Panics
    ///
    /// Panics if `cid` does not belong to this network.
    pub fn is_cross_object(&self, cid: ConstraintId) -> bool {
        let args = self.constraints[cid.index()].argument_slice();
        let mut first: Option<&str> = None;
        for pid in args {
            let obj = self.properties[pid.index()].meta.object();
            match first {
                None => first = Some(obj),
                Some(f) if f != obj => return true,
                _ => {}
            }
        }
        false
    }
}

/// Stamped membership marks for [`ConstraintNetwork::walk_region`]: a
/// property or constraint is in the current walk when its mark equals the
/// stamp, so consecutive walks reuse the buffers without clearing them.
#[derive(Debug, Clone, Default)]
struct RegionMarks {
    stamp: u32,
    properties: Vec<u32>,
    constraints: Vec<u32>,
}

impl RegionMarks {
    /// Starts a walk over a network of the given size and returns its stamp.
    fn next_stamp(&mut self, properties: usize, constraints: usize) -> u32 {
        if self.stamp == u32::MAX {
            self.stamp = 0;
            self.properties.fill(0);
            self.constraints.fill(0);
        }
        self.stamp += 1;
        self.properties.resize(properties, 0);
        self.constraints.resize(constraints, 0);
        self.stamp
    }
}

/// A breadth-first walk of the property–constraint graph. Constraints are
/// marked with the walk's current stamp, so consecutive walks share the
/// buffers without clearing them.
struct Walk {
    marks: Vec<u32>,
    stamp: u32,
    frontier: Vec<ConstraintId>,
    next: Vec<ConstraintId>,
}

impl Walk {
    fn new(constraints: usize) -> Self {
        Walk {
            marks: vec![0; constraints],
            stamp: 0,
            frontier: Vec::new(),
            next: Vec::new(),
        }
    }

    /// The number of constraints within `depth` hops of property `id`.
    fn count(&mut self, net: &ConstraintNetwork, id: PropertyId, depth: usize) -> usize {
        if depth == 0 {
            return 0;
        }
        self.stamp += 1;
        self.frontier.clear();
        for cid in &net.prop_constraints[id.index()] {
            self.marks[cid.index()] = self.stamp;
            self.frontier.push(*cid);
        }
        let mut count = self.frontier.len();
        for _ in 1..depth {
            self.next.clear();
            for cid in &self.frontier {
                for arg in net.constraints[cid.index()].argument_slice() {
                    for dep in &net.prop_constraints[arg.index()] {
                        if self.marks[dep.index()] != self.stamp {
                            self.marks[dep.index()] = self.stamp;
                            self.next.push(*dep);
                        }
                    }
                }
            }
            if self.next.is_empty() {
                break;
            }
            count += self.next.len();
            std::mem::swap(&mut self.frontier, &mut self.next);
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{cst, var};
    use crate::heuristics::HeuristicReport;

    fn simple_net() -> (ConstraintNetwork, PropertyId, PropertyId, ConstraintId) {
        let mut net = ConstraintNetwork::new();
        let a = net
            .add_property(Property::new("a", "obj1", Domain::interval(0.0, 10.0)))
            .unwrap();
        let b = net
            .add_property(Property::new("b", "obj2", Domain::interval(0.0, 10.0)))
            .unwrap();
        let c = net
            .add_constraint("sum", var(a) + var(b), Relation::Le, cst(12.0))
            .unwrap();
        (net, a, b, c)
    }

    #[test]
    fn constraint_components_partition_by_shared_properties() {
        let mut net = ConstraintNetwork::new();
        let ids: Vec<PropertyId> = (0..5)
            .map(|i| {
                net.add_property(Property::new(
                    format!("p{i}"),
                    "obj",
                    Domain::interval(0.0, 10.0),
                ))
                .unwrap()
            })
            .collect();
        // Component A: c0 and c2 share p1; component B: c1 alone on p3/p4.
        let c0 = net
            .add_constraint("c0", var(ids[0]) + var(ids[1]), Relation::Le, cst(9.0))
            .unwrap();
        let c1 = net
            .add_constraint("c1", var(ids[3]), Relation::Le, var(ids[4]))
            .unwrap();
        let c2 = net
            .add_constraint("c2", var(ids[1]), Relation::Ge, var(ids[2]))
            .unwrap();
        assert_eq!(net.constraint_components(), vec![vec![c0, c2], vec![c1]]);

        // Bridging the two with a constraint over p2 and p3 merges them.
        let c3 = net
            .add_constraint("bridge", var(ids[2]), Relation::Le, var(ids[3]))
            .unwrap();
        assert_eq!(net.constraint_components(), vec![vec![c0, c1, c2, c3]]);

        assert!(ConstraintNetwork::new().constraint_components().is_empty());
    }

    #[test]
    fn add_property_rejects_duplicates_per_object() {
        let mut net = ConstraintNetwork::new();
        net.add_property(Property::new("w", "lna", Domain::interval(0.0, 1.0)))
            .unwrap();
        // Same name on another object is fine.
        net.add_property(Property::new("w", "mixer", Domain::interval(0.0, 1.0)))
            .unwrap();
        let err = net
            .add_property(Property::new("w", "lna", Domain::interval(0.0, 1.0)))
            .unwrap_err();
        assert!(matches!(err, NetworkError::DuplicateProperty(_)));
    }

    #[test]
    fn add_constraint_rejects_dangling_and_symbolic_references() {
        let mut net = ConstraintNetwork::new();
        let a = net
            .add_property(Property::new("a", "o", Domain::interval(0.0, 1.0)))
            .unwrap();
        let ghost = PropertyId::new(99);
        let err = net
            .add_constraint("bad", var(a) + var(ghost), Relation::Le, cst(1.0))
            .unwrap_err();
        assert!(matches!(err, NetworkError::DanglingReference { .. }));

        let t = net
            .add_property(Property::new("level", "o", Domain::text_set(["x", "y"])))
            .unwrap();
        let err = net
            .add_constraint("bad2", var(t), Relation::Le, cst(1.0))
            .unwrap_err();
        assert!(matches!(err, NetworkError::NonNumericArgument { .. }));
        // The failed constraints must not have left partial adjacency.
        assert_eq!(net.beta(a), 0);
        assert_eq!(net.constraint_count(), 0);
    }

    #[test]
    fn bind_validates_kind_and_range() {
        let (mut net, a, _, _) = simple_net();
        assert!(net.bind(a, Value::number(5.0)).is_ok());
        assert_eq!(net.assignment(a), Some(&Value::number(5.0)));
        let err = net.bind(a, Value::number(11.0)).unwrap_err();
        assert!(matches!(err, NetworkError::ValueOutsideDomain { .. }));
        let err = net.bind(a, Value::text("five")).unwrap_err();
        assert!(matches!(err, NetworkError::KindMismatch { .. }));
        net.unbind(a).unwrap();
        assert!(!net.is_bound(a));
    }

    #[test]
    fn effective_interval_reflects_binding_and_feasible() {
        let (mut net, a, b, _) = simple_net();
        assert_eq!(net.effective_interval(a), Interval::new(0.0, 10.0));
        net.bind(a, Value::number(3.0)).unwrap();
        assert_eq!(net.effective_interval(a), Interval::singleton(3.0));
        net.set_feasible(b, Domain::interval(1.0, 2.0));
        assert_eq!(net.effective_interval(b), Interval::new(1.0, 2.0));
        // The conventional view ignores feasible information.
        assert_eq!(net.initial_interval(b), Interval::new(0.0, 10.0));
    }

    #[test]
    fn evaluate_statuses_counts_and_classifies() {
        let (mut net, a, b, c) = simple_net();
        let evals = net.evaluate_statuses();
        assert_eq!(evals, 1);
        // a + b in [0, 20] vs 12: some combos hold.
        assert_eq!(net.status(c), ConstraintStatus::Consistent);
        net.bind(a, Value::number(10.0)).unwrap();
        net.bind(b, Value::number(10.0)).unwrap();
        net.evaluate_statuses();
        assert_eq!(net.status(c), ConstraintStatus::Violated);
        assert!(net.any_violated());
        assert_eq!(net.violated_constraints(), vec![c]);
        net.bind(b, Value::number(1.0)).unwrap();
        net.evaluate_statuses();
        assert!(net.all_satisfied());
    }

    #[test]
    fn alpha_and_beta_counts() {
        let mut net = ConstraintNetwork::new();
        let a = net
            .add_property(Property::new("a", "o", Domain::interval(0.0, 10.0)))
            .unwrap();
        let b = net
            .add_property(Property::new("b", "o", Domain::interval(0.0, 10.0)))
            .unwrap();
        let c1 = net
            .add_constraint("c1", var(a) + var(b), Relation::Le, cst(5.0))
            .unwrap();
        let _c2 = net
            .add_constraint("c2", var(a), Relation::Ge, cst(1.0))
            .unwrap();
        let c3 = net
            .add_constraint("c3", var(b), Relation::Le, cst(3.0))
            .unwrap();
        assert_eq!(net.beta(a), 2);
        assert_eq!(net.beta(b), 2);
        net.bind(a, Value::number(4.0)).unwrap();
        net.bind(b, Value::number(4.0)).unwrap();
        net.evaluate_statuses();
        // c1 violated (8 > 5), c2 satisfied, c3 violated (4 > 3).
        assert_eq!(net.status(c1), ConstraintStatus::Violated);
        assert_eq!(net.status(c3), ConstraintStatus::Violated);
        assert_eq!(net.alpha(a), 1);
        assert_eq!(net.alpha(b), 2);
    }

    #[test]
    fn beta_extended_counts_transitive_constraints() {
        let mut net = ConstraintNetwork::new();
        let ids: Vec<PropertyId> = (0..4)
            .map(|i| {
                net.add_property(Property::new(
                    format!("x{i}"),
                    "o",
                    Domain::interval(0.0, 1.0),
                ))
                .unwrap()
            })
            .collect();
        // Chain: c0(x0,x1), c1(x1,x2), c2(x2,x3).
        for w in ids.windows(2) {
            net.add_constraint("ord", var(w[0]), Relation::Le, var(w[1]))
                .unwrap();
        }
        assert_eq!(net.beta_extended(ids[0], 0), 0);
        assert_eq!(net.beta_extended(ids[0], 1), net.beta(ids[0]));
        assert_eq!(net.beta_extended(ids[0], 1), 1); // c0
        assert_eq!(net.beta_extended(ids[0], 2), 2); // + c1 via x1
        assert_eq!(net.beta_extended(ids[0], 3), 3); // + c2 via x2
        assert_eq!(net.beta_extended(ids[0], 9), 3); // saturates
                                                     // Middle property reaches everything in two hops.
        assert_eq!(net.beta_extended(ids[1], 1), 2);
        assert_eq!(net.beta_extended(ids[1], 2), 3);
    }

    #[test]
    fn point_check_and_argument_binding() {
        let (mut net, a, b, c) = simple_net();
        assert!(!net.all_arguments_bound(c));
        net.bind(a, Value::number(10.0)).unwrap();
        net.bind(b, Value::number(10.0)).unwrap();
        assert!(net.all_arguments_bound(c));
        assert!(!net.check_constraint_point(c));
        net.bind(b, Value::number(1.0)).unwrap();
        assert!(net.check_constraint_point(c));
    }

    #[test]
    fn cross_object_detection() {
        let (mut net, a, _, c) = simple_net();
        assert!(net.is_cross_object(c)); // spans obj1 and obj2
        let c2 = net
            .add_constraint("local", var(a), Relation::Le, cst(9.0))
            .unwrap();
        assert!(!net.is_cross_object(c2));
    }

    #[test]
    fn reset_feasible_restores_initial() {
        let (mut net, a, _, _) = simple_net();
        net.set_feasible(a, Domain::interval(4.0, 5.0));
        assert_eq!(net.feasible(a), &Domain::interval(4.0, 5.0));
        net.reset_feasible();
        assert_eq!(net.feasible(a), &Domain::interval(0.0, 10.0));
    }

    #[test]
    fn narrowed_count_follows_every_write() {
        let (mut net, a, b, _) = simple_net();
        let recount = |net: &ConstraintNetwork| {
            net.property_ids()
                .filter(|p| {
                    !net.is_bound(*p)
                        && net
                            .feasible(*p)
                            .relative_size(net.property(*p).initial_domain())
                            < 1.0
                })
                .count()
        };
        assert_eq!(net.narrowed_count(), 0);
        net.set_feasible(a, Domain::interval(4.0, 5.0));
        net.set_feasible(b, Domain::interval(0.0, 2.0));
        assert_eq!(net.narrowed_count(), 2);
        net.bind(a, Value::number(4.5)).unwrap();
        assert_eq!(net.narrowed_count(), 1, "a bound property is not narrowed");
        net.set_feasible(b, Domain::interval(0.0, 10.0));
        assert_eq!(net.narrowed_count(), 0, "back to its full range");
        net.unbind(a).unwrap();
        net.set_feasible(b, Domain::interval(1.0, 2.0));
        assert_eq!(net.narrowed_count(), recount(&net));
        net.reset_feasible();
        assert_eq!(net.narrowed_count(), 0);
    }

    #[test]
    fn declared_monotonicity_round_trips() {
        let (mut net, a, _, c) = simple_net();
        net.declare_monotonic(c, a, HelpsDirection::Down).unwrap();
        assert_eq!(net.declared_monotonic(c, a), Some(HelpsDirection::Down));
        assert_eq!(net.declared_monotonic(c, PropertyId::new(1)), None);
        assert!(net
            .declare_monotonic(ConstraintId::new(9), a, HelpsDirection::Up)
            .is_err());
        assert!(net
            .declare_monotonic(c, PropertyId::new(9), HelpsDirection::Up)
            .is_err());
    }

    #[test]
    fn property_lookup_by_name() {
        let (net, a, b, _) = simple_net();
        assert_eq!(net.property_by_name("obj1", "a"), Some(a));
        assert_eq!(net.property_by_name("obj2", "b"), Some(b));
        assert_eq!(net.property_by_name("obj1", "b"), None);
    }

    #[test]
    fn helps_direction_helpers() {
        assert_eq!(HelpsDirection::Up.opposite(), HelpsDirection::Down);
        assert_eq!(HelpsDirection::Up.sign(), 1.0);
        assert_eq!(HelpsDirection::Down.sign(), -1.0);
        assert_eq!(HelpsDirection::Up.to_string(), "increasing");
    }

    #[test]
    fn set_status_overrides_for_conventional_flow() {
        let (mut net, _, _, c) = simple_net();
        net.set_status(c, ConstraintStatus::Violated);
        assert!(net.status(c).is_violated());
        // The override is remembered as stale until something re-evaluates.
        assert!(net.stale_statuses().contains(&c));
        net.evaluate_constraint(c);
        assert!(net.stale_statuses().is_empty());
    }

    /// Regression: unbinding must invalidate the derived state the binding
    /// produced — the singleton feasible subspace and the violated statuses
    /// of adjacent constraints — immediately, not at the next propagation.
    #[test]
    fn unbind_invalidates_feasible_and_adjacent_statuses() {
        let mut net = ConstraintNetwork::new();
        let a = net
            .add_property(Property::new("a", "o", Domain::interval(0.0, 10.0)))
            .unwrap();
        let c = net
            .add_constraint("cap", var(a), Relation::Le, cst(4.0))
            .unwrap();
        net.bind(a, Value::number(9.0)).unwrap();
        net.set_feasible(a, Domain::singleton(&Value::number(9.0)));
        net.evaluate_statuses();
        assert!(net.status(c).is_violated());
        assert_eq!(net.alpha(a), 1);

        net.unbind(a).unwrap();
        // No phantom singleton, no phantom violation.
        assert_eq!(net.feasible(a), &Domain::interval(0.0, 10.0));
        assert!(!net.status(c).is_violated());
        assert_eq!(net.alpha(a), 0);
        // Unbinding an already-unbound property is a no-op, not an error.
        net.unbind(a).unwrap();
        assert_eq!(net.feasible(a), &Domain::interval(0.0, 10.0));
    }

    #[test]
    fn dirty_tracking_follows_bind_unbind_and_fixpoint_marks() {
        let (mut net, a, b, c) = simple_net();
        assert!(!net.fixpoint_clean()); // never propagated
        net.mark_fixpoint(true);
        assert!(net.fixpoint_clean());
        assert!(net.dirty_props.is_empty());

        // Binds, rebinds, out-of-feasible binds and unbinds are all dirty
        // and none of them clears the fixed point: the region run re-derives
        // whatever they can move.
        net.bind(a, Value::number(5.0)).unwrap();
        net.bind(a, Value::number(6.0)).unwrap();
        net.set_feasible(b, Domain::interval(0.0, 1.0));
        net.bind(b, Value::number(9.0)).unwrap();
        net.unbind(a).unwrap();
        assert!(net.fixpoint_clean());
        assert_eq!(
            net.dirty_props.iter().copied().collect::<Vec<_>>(),
            vec![a, b]
        );

        // A clean mark settles the dirty set; an unclean one keeps it.
        net.mark_fixpoint(false);
        assert_eq!(net.dirty_props.len(), 2);
        net.mark_fixpoint(true);
        assert!(net.dirty_props.is_empty());

        // Structural edits and a reset leave no fixed point to start from.
        net.relax_constraint(c, Relaxation::WidenBound { slack: 1.0 })
            .unwrap();
        assert!(!net.fixpoint_clean());
        net.mark_fixpoint(true);
        net.reset_feasible();
        assert!(!net.fixpoint_clean());
        net.mark_fixpoint(true);
        net.add_property(Property::new("z", "obj3", Domain::interval(0.0, 1.0)))
            .unwrap();
        assert!(!net.fixpoint_clean());
    }

    /// A chain `soft c0: x0 + x1 <= 4`, `c1: x1 <= x2`, `c2: x2 + x3 <= 9`
    /// with `x0` bound to 10, so `c0` is violated and mining builds its gap
    /// form.
    fn chain_net() -> (ConstraintNetwork, Vec<PropertyId>, Vec<ConstraintId>) {
        let mut net = ConstraintNetwork::new();
        let x: Vec<PropertyId> = (0..4)
            .map(|i| {
                net.add_property(Property::new(
                    format!("x{i}"),
                    "o",
                    Domain::interval(0.0, 10.0),
                ))
                .unwrap()
            })
            .collect();
        let c = vec![
            net.add_constraint("c0", var(x[0]) + var(x[1]), Relation::Le, cst(4.0))
                .unwrap(),
            net.add_constraint("c1", var(x[1]), Relation::Le, var(x[2]))
                .unwrap(),
            net.add_constraint("c2", var(x[2]) + var(x[3]), Relation::Le, cst(9.0))
                .unwrap(),
        ];
        net.set_constraint_soft(c[0], true).unwrap();
        net.bind(x[0], Value::number(10.0)).unwrap();
        net.evaluate_statuses();
        assert!(net.status(c[0]).is_violated());
        (net, x, c)
    }

    fn mine_checked(net: &ConstraintNetwork) -> HeuristicReport {
        let report = HeuristicReport::mine(net);
        assert_eq!(report, crate::heuristics::reference_mine(net));
        report
    }

    #[test]
    fn relax_dropping_an_argument_updates_beta_and_the_gap_cache() {
        let (mut net, x, c) = chain_net();
        let report = mine_checked(&net);
        assert_eq!(report.insight(x[0]).beta, 1);
        assert_eq!(report.insight(x[0]).beta_indirect, 2);
        assert_eq!(report.insight(x[1]).beta_indirect, 3);
        assert_eq!(
            report.insight(x[0]).violation_directions,
            vec![(c[0], HelpsDirection::Down)]
        );
        assert!(net.programs().has_gap_form(c[0]));

        net.relax_constraint(c[0], Relaxation::Drop).unwrap();
        assert!(!net.programs().has_gap_form(c[0]));
        let report = mine_checked(&net);
        assert_eq!(report.insight(x[0]).beta, 0);
        assert_eq!(report.insight(x[0]).beta_indirect, 0);
        assert_eq!(report.insight(x[1]).beta_indirect, 2);
        assert!(report.insight(x[0]).violation_directions.is_empty());
        assert_eq!(crate::helps_direction(&net, c[0], x[0]), None);
        assert_eq!(net.gap_form(c[0]).gap, net.constraint(c[0]).gap());
    }

    #[test]
    fn relax_widening_rebuilds_the_gap_form() {
        let (mut net, _, c) = chain_net();
        mine_checked(&net);
        net.relax_constraint(c[0], Relaxation::WidenBound { slack: 2.0 })
            .unwrap();
        assert!(!net.programs().has_gap_form(c[0]));
        mine_checked(&net);
        assert_eq!(net.gap_form(c[0]).gap, net.constraint(c[0]).gap());
    }

    #[test]
    fn structural_additions_after_a_mine_reach_the_next_mine() {
        let (mut net, x, _) = chain_net();
        let before = mine_checked(&net);
        assert_eq!(before.insight(x[3]).beta_indirect, 2);

        let x4 = net
            .add_property(Property::new("x4", "o", Domain::interval(0.0, 10.0)))
            .unwrap();
        let report = mine_checked(&net);
        assert_eq!(report.insights().len(), 5);
        assert_eq!(report.insight(x4).beta_indirect, 0);

        // `x3 + x4 >= 30` cannot hold inside [0, 10]²: violated, and both
        // arguments must rise.
        let c3 = net
            .add_constraint("c3", var(x[3]) + var(x4), Relation::Ge, cst(30.0))
            .unwrap();
        net.evaluate_statuses();
        let report = mine_checked(&net);
        assert_eq!(report.insight(x[3]).beta, 2);
        assert_eq!(report.insight(x[2]).beta_indirect, 4);
        assert_eq!(report.insight(x4).beta_indirect, 2);
        assert_eq!(
            report.insight(x4).violation_directions,
            vec![(c3, HelpsDirection::Up)]
        );
    }

    #[test]
    fn relaxing_a_clone_leaves_the_original_caches_untouched() {
        let (original, x, c) = chain_net();
        let report = mine_checked(&original);
        let two_hop = Arc::clone(&original.two_hop_beta);
        let programs = Arc::clone(original.programs());

        let mut clone = original.clone();
        assert!(Arc::ptr_eq(&two_hop, &clone.two_hop_beta));
        clone.relax_constraint(c[0], Relaxation::Drop).unwrap();
        assert_eq!(mine_checked(&clone).insight(x[1]).beta_indirect, 2);
        assert!(!clone.programs().has_gap_form(c[0]));

        assert!(Arc::ptr_eq(&two_hop, &original.two_hop_beta));
        assert!(Arc::ptr_eq(&programs, original.programs()));
        assert!(original.programs().has_gap_form(c[0]));
        assert_eq!(original.gap_form(c[0]).gap, original.constraint(c[0]).gap());
        assert_eq!(mine_checked(&original), report);
    }
}
