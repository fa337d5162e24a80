//! Design problems `p_i = (I_i, O_i, T_i)` and their hierarchy.
//!
//! A problem has input properties, output properties, and a set of
//! constraints over (a subset of) its properties. Decomposition operators
//! split a problem into partially-ordered subproblems; a parent problem is
//! *Waiting* until its children are solved, which is how the paper's `f_p`
//! (problem selection) skips it.

use crate::ids::{DesignerId, ProblemId};
use adpm_constraint::{ConstraintId, PropertyId};
use std::fmt;

/// Level of accomplishment of a design problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProblemStatus {
    /// The problem can be worked on.
    Open,
    /// The problem waits on its subproblems (skipped by problem selection).
    Waiting,
    /// All outputs are bound and no constraint of the problem is known to
    /// be violated.
    Solved,
}

impl fmt::Display for ProblemStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProblemStatus::Open => "Open",
            ProblemStatus::Waiting => "Waiting",
            ProblemStatus::Solved => "Solved",
        };
        f.write_str(s)
    }
}

/// A design problem `p_i = (I_i, O_i, T_i)`.
///
/// # Examples
///
/// ```
/// use adpm_core::{DesignProblem, ProblemId};
/// use adpm_constraint::PropertyId;
/// let p = DesignProblem::new(ProblemId::new(0), "LNA design")
///     .with_outputs([PropertyId::new(0), PropertyId::new(1)]);
/// assert_eq!(p.outputs().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DesignProblem {
    id: ProblemId,
    name: String,
    inputs: Vec<PropertyId>,
    outputs: Vec<PropertyId>,
    constraints: Vec<ConstraintId>,
    status: ProblemStatus,
    parent: Option<ProblemId>,
    children: Vec<ProblemId>,
    predecessors: Vec<ProblemId>,
    assignee: Option<DesignerId>,
}

impl DesignProblem {
    /// Creates an open, unassigned problem with no properties yet.
    pub fn new(id: ProblemId, name: impl Into<String>) -> Self {
        DesignProblem {
            id,
            name: name.into(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            constraints: Vec::new(),
            status: ProblemStatus::Open,
            parent: None,
            children: Vec::new(),
            predecessors: Vec::new(),
            assignee: None,
        }
    }

    /// Sets the input properties `I_i`.
    pub fn with_inputs(mut self, inputs: impl IntoIterator<Item = PropertyId>) -> Self {
        self.inputs = inputs.into_iter().collect();
        self
    }

    /// Sets the output properties `O_i` — the ones a solution must bind.
    pub fn with_outputs(mut self, outputs: impl IntoIterator<Item = PropertyId>) -> Self {
        self.outputs = outputs.into_iter().collect();
        self
    }

    /// Sets the constraint set `T_i`.
    pub fn with_constraints(mut self, constraints: impl IntoIterator<Item = ConstraintId>) -> Self {
        self.constraints = constraints.into_iter().collect();
        self
    }

    /// Declares problems that must be solved before this one can be
    /// addressed — the partial order of the paper's decomposition
    /// operators ("decomposing p_i into a partially-ordered subproblem
    /// set").
    pub fn with_predecessors(mut self, predecessors: impl IntoIterator<Item = ProblemId>) -> Self {
        self.predecessors = predecessors.into_iter().collect();
        self
    }

    /// Assigns the problem to a designer.
    pub fn with_assignee(mut self, designer: DesignerId) -> Self {
        self.assignee = Some(designer);
        self
    }

    /// The problem's id.
    pub fn id(&self) -> ProblemId {
        self.id
    }

    /// The problem's name, e.g. `"MEMS filter"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input properties `I_i`.
    pub fn inputs(&self) -> &[PropertyId] {
        &self.inputs
    }

    /// Output properties `O_i`.
    pub fn outputs(&self) -> &[PropertyId] {
        &self.outputs
    }

    /// Constraints `T_i`.
    pub fn constraints(&self) -> &[ConstraintId] {
        &self.constraints
    }

    /// Current status.
    pub fn status(&self) -> ProblemStatus {
        self.status
    }

    /// Sets the status (the DPM updates this after every transition).
    pub fn set_status(&mut self, status: ProblemStatus) {
        self.status = status;
    }

    /// The parent problem in the decomposition hierarchy, if any.
    pub fn parent(&self) -> Option<ProblemId> {
        self.parent
    }

    /// Subproblems created by decomposition, in order.
    pub fn children(&self) -> &[ProblemId] {
        &self.children
    }

    /// Problems that must be solved before this one can be addressed.
    pub fn predecessors(&self) -> &[ProblemId] {
        &self.predecessors
    }

    /// The designer the problem is assigned to, if any.
    pub fn assignee(&self) -> Option<DesignerId> {
        self.assignee
    }

    /// Reassigns the problem.
    pub fn set_assignee(&mut self, designer: Option<DesignerId>) {
        self.assignee = designer;
    }

    pub(crate) fn set_parent(&mut self, parent: ProblemId) {
        self.parent = Some(parent);
    }

    pub(crate) fn add_child(&mut self, child: ProblemId) {
        self.children.push(child);
    }

    /// Attaches a constraint to the problem's set `T_i` (idempotent).
    /// The DPM uses this when new constraints are generated mid-process.
    pub fn add_constraint(&mut self, cid: ConstraintId) {
        if !self.constraints.contains(&cid) {
            self.constraints.push(cid);
        }
    }

    /// Whether `pid` is one of the problem's outputs.
    pub fn has_output(&self, pid: PropertyId) -> bool {
        self.outputs.contains(&pid)
    }

    /// Whether the problem is a leaf (no subproblems).
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// The set of all design problems currently under design, with their
/// decomposition hierarchy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProblemSet {
    problems: Vec<DesignProblem>,
    root: Option<ProblemId>,
}

impl ProblemSet {
    /// Creates an empty problem set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of problems.
    pub fn len(&self) -> usize {
        self.problems.len()
    }

    /// Whether the set holds no problems.
    pub fn is_empty(&self) -> bool {
        self.problems.is_empty()
    }

    /// Adds a top-level (root) problem. The first root added becomes *the*
    /// root used for termination checks.
    pub fn add_root(&mut self, name: impl Into<String>) -> ProblemId {
        let id = ProblemId::new(self.problems.len() as u32);
        self.problems.push(DesignProblem::new(id, name));
        if self.root.is_none() {
            self.root = Some(id);
        }
        id
    }

    /// Decomposes `parent` by creating a new subproblem under it.
    /// The parent transitions to [`ProblemStatus::Waiting`].
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not in the set.
    pub fn decompose(&mut self, parent: ProblemId, name: impl Into<String>) -> ProblemId {
        let id = ProblemId::new(self.problems.len() as u32);
        let mut child = DesignProblem::new(id, name);
        child.set_parent(parent);
        self.problems.push(child);
        let parent_problem = &mut self.problems[parent.index()];
        parent_problem.add_child(id);
        parent_problem.set_status(ProblemStatus::Waiting);
        id
    }

    /// The root (top-level) problem, if any.
    pub fn root(&self) -> Option<ProblemId> {
        self.root
    }

    /// A problem by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the set.
    pub fn problem(&self, id: ProblemId) -> &DesignProblem {
        &self.problems[id.index()]
    }

    /// Mutable access to a problem.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the set.
    pub fn problem_mut(&mut self, id: ProblemId) -> &mut DesignProblem {
        &mut self.problems[id.index()]
    }

    /// Iterates over all problem ids in creation order.
    pub fn ids(&self) -> impl Iterator<Item = ProblemId> + '_ {
        (0..self.problems.len() as u32).map(ProblemId::new)
    }

    /// All problems assigned to `designer`.
    pub fn assigned_to(&self, designer: DesignerId) -> Vec<ProblemId> {
        self.problems
            .iter()
            .filter(|p| p.assignee() == Some(designer))
            .map(|p| p.id())
            .collect()
    }

    /// Leaf problems (the ones designers actually work on).
    pub fn leaves(&self) -> Vec<ProblemId> {
        self.problems
            .iter()
            .filter(|p| p.is_leaf())
            .map(|p| p.id())
            .collect()
    }

    /// Whether every problem is solved.
    pub fn all_solved(&self) -> bool {
        self.problems
            .iter()
            .all(|p| p.status() == ProblemStatus::Solved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let p = DesignProblem::new(ProblemId::new(0), "top")
            .with_inputs([PropertyId::new(0)])
            .with_outputs([PropertyId::new(1), PropertyId::new(2)])
            .with_constraints([ConstraintId::new(0)])
            .with_assignee(DesignerId::new(1));
        assert_eq!(p.name(), "top");
        assert_eq!(p.inputs(), &[PropertyId::new(0)]);
        assert_eq!(p.outputs().len(), 2);
        assert!(p.has_output(PropertyId::new(1)));
        assert!(!p.has_output(PropertyId::new(0)));
        assert_eq!(p.constraints(), &[ConstraintId::new(0)]);
        assert_eq!(p.assignee(), Some(DesignerId::new(1)));
        assert_eq!(p.status(), ProblemStatus::Open);
    }

    #[test]
    fn decomposition_builds_hierarchy_and_sets_waiting() {
        let mut set = ProblemSet::new();
        let top = set.add_root("system");
        let analog = set.decompose(top, "analog");
        let filter = set.decompose(top, "filter");
        assert_eq!(set.root(), Some(top));
        assert_eq!(set.problem(top).children(), &[analog, filter]);
        assert_eq!(set.problem(analog).parent(), Some(top));
        assert_eq!(set.problem(top).status(), ProblemStatus::Waiting);
        assert!(set.problem(analog).is_leaf());
        assert!(!set.problem(top).is_leaf());
        assert_eq!(set.leaves(), vec![analog, filter]);
    }

    #[test]
    fn assignment_queries() {
        let mut set = ProblemSet::new();
        let top = set.add_root("system");
        let analog = set.decompose(top, "analog");
        let filter = set.decompose(top, "filter");
        set.problem_mut(analog)
            .set_assignee(Some(DesignerId::new(0)));
        set.problem_mut(filter)
            .set_assignee(Some(DesignerId::new(1)));
        assert_eq!(set.assigned_to(DesignerId::new(0)), vec![analog]);
        assert_eq!(set.assigned_to(DesignerId::new(1)), vec![filter]);
        assert!(set.assigned_to(DesignerId::new(2)).is_empty());
    }

    #[test]
    fn predecessors_round_trip() {
        let p = DesignProblem::new(ProblemId::new(2), "b").with_predecessors([ProblemId::new(1)]);
        assert_eq!(p.predecessors(), &[ProblemId::new(1)]);
    }

    #[test]
    fn all_solved_requires_every_problem() {
        let mut set = ProblemSet::new();
        let top = set.add_root("system");
        let child = set.decompose(top, "child");
        assert!(!set.all_solved());
        set.problem_mut(child).set_status(ProblemStatus::Solved);
        assert!(!set.all_solved());
        set.problem_mut(top).set_status(ProblemStatus::Solved);
        assert!(set.all_solved());
    }

    #[test]
    fn add_constraint_is_idempotent() {
        let mut p = DesignProblem::new(ProblemId::new(0), "p");
        p.add_constraint(ConstraintId::new(0));
        p.add_constraint(ConstraintId::new(0));
        assert_eq!(p.constraints().len(), 1);
    }

    #[test]
    fn status_display() {
        assert_eq!(ProblemStatus::Open.to_string(), "Open");
        assert_eq!(ProblemStatus::Waiting.to_string(), "Waiting");
        assert_eq!(ProblemStatus::Solved.to_string(), "Solved");
    }
}
