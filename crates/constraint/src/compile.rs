//! Compilation of constraints to flat interval programs, and the one HC4
//! revision routine that runs them.
//!
//! Each constraint is lowered **once**, when it enters the network or is
//! relaxed, into a flat array of [`Op`] instructions whose operands are
//! instruction indices, evaluated against an [`IntervalArena`] with a
//! reusable [`ReviseScratch`] — no per-revise allocation beyond the result,
//! no hashing, no pointer chasing on the hot path. [`CompiledConstraint::revise`]
//! is the only revision in production: the propagator's worklist, violation
//! explanations (`explain.rs`) and the conflict-set checks (`mcs.rs`) all
//! call it. The AST interpreter that re-walks each constraint's [`Expr`]
//! trees (`interp.rs`) is compiled in test builds only, as its reference.
//!
//! ## Instruction order
//!
//! Programs are emitted in *reverse preorder*: the right-hand side's tree
//! before the left-hand side's, and within every binary node the second
//! child's subtree before the first's, each node after its children.
//! Consequently
//!
//! * ascending index order is a valid **forward** evaluation order (every
//!   child precedes its parent), and
//! * descending index order visits nodes in exactly the preorder the AST
//!   interpreter uses for its **backward** pass (left side before right,
//!   first child before second, parent before children).
//!
//! The backward visit order matters: repeated variable occurrences
//! accumulate through tolerant intersections whose
//! floating-point results depend on operand order, and every revision must
//! equal the interpreter's bit for bit (the oracle tests here, in
//! `propagate.rs` and in `interp.rs` check it).

use crate::arena::IntervalArena;
use crate::constraint::{Constraint, Relation, EQ_TOL};
use crate::expr::Expr;
use crate::ids::{ConstraintId, PropertyId};
use crate::interval::Interval;
use crate::network::ConstraintNetwork;
use std::sync::OnceLock;

/// One flat-program instruction. Operands are indices of earlier
/// instructions in the same [`CompiledConstraint`]; `Var` operands index
/// the program's variable-slot table instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Op {
    /// Push the constant `[x, x]`.
    Const(f64),
    /// Load variable slot `k` from the arena.
    Var(u32),
    /// Negate instruction `a`'s value.
    Neg(u32),
    /// Absolute value of instruction `a`'s value.
    Abs(u32),
    /// Square root of instruction `a`'s value.
    Sqrt(u32),
    /// Natural exponential of instruction `a`'s value.
    Exp(u32),
    /// Natural logarithm of instruction `a`'s value.
    Ln(u32),
    /// Instruction `a`'s value raised to the integer power `n`.
    Powi(u32, i32),
    /// Sum of instructions `a` and `b`.
    Add(u32, u32),
    /// Difference of instructions `a` and `b`.
    Sub(u32, u32),
    /// Product of instructions `a` and `b`.
    Mul(u32, u32),
    /// Quotient of instructions `a` and `b`.
    Div(u32, u32),
    /// Pointwise minimum of instructions `a` and `b`.
    Min(u32, u32),
    /// Pointwise maximum of instructions `a` and `b`.
    Max(u32, u32),
}

/// One constraint lowered to a flat interval program.
#[derive(Debug, Clone)]
pub(crate) struct CompiledConstraint {
    ops: Vec<Op>,
    lhs_root: u32,
    rhs_root: u32,
    relation: Relation,
    /// The constraint's distinct arguments, ascending — variable slot `k`
    /// in [`Op::Var`] refers to `vars[k]`.
    vars: Vec<PropertyId>,
    /// The gap form, built on the first monotonicity query (see
    /// [`gap_form`](Self::gap_form)).
    gap: OnceLock<GapForm>,
}

/// A constraint's gap `lhs - rhs` with everything monotonicity inference
/// derives from it symbolically. It depends only on the constraint, so it
/// is built once per program rather than once per query.
#[derive(Debug, Clone)]
pub(crate) struct GapForm {
    /// The gap expression `lhs - rhs`.
    pub(crate) gap: Expr,
    /// Whether the gap has a kink (`abs`, `min`, `max`), in which case
    /// inference samples the gap instead of reading a derivative.
    pub(crate) kinked: bool,
    /// `∂gap/∂vars[k]` per argument slot `k`; empty when `kinked`.
    derivatives: Vec<Expr>,
}

impl GapForm {
    fn new(constraint: &Constraint) -> Self {
        let gap = constraint.gap();
        let kinked = gap.has_kink();
        let derivatives = if kinked {
            Vec::new()
        } else {
            constraint
                .argument_slice()
                .iter()
                .map(|pid| gap.diff(*pid))
                .collect()
        };
        GapForm {
            gap,
            kinked,
            derivatives,
        }
    }

    /// The gap's partial derivative in argument slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics when the gap is kinked (no derivatives are built) or `slot`
    /// is out of range.
    pub(crate) fn derivative(&self, slot: usize) -> &Expr {
        &self.derivatives[slot]
    }
}

/// Reusable scratch buffers for [`CompiledConstraint::revise`] — the
/// "reusable scratch stack" of the performance model. One instance serves
/// any number of revisions of any number of programs; each call resizes
/// the buffers to the program at hand without freeing capacity.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReviseScratch {
    /// Forward value of each instruction.
    vals: Vec<Interval>,
    /// Pending backward target per instruction (`None` = not visited).
    targets: Vec<Option<Interval>>,
    /// Accumulated narrowing per variable slot.
    acc: Vec<Interval>,
    /// Whether a variable slot was visited by the backward pass.
    touched: Vec<bool>,
}

impl ReviseScratch {
    /// Empty scratch buffers (they grow to the largest program revised).
    pub(crate) fn new() -> Self {
        ReviseScratch::default()
    }
}

impl CompiledConstraint {
    /// Lowers `constraint` to a flat program.
    pub(crate) fn compile(constraint: &Constraint) -> Self {
        let vars = constraint.argument_slice().to_vec();
        let mut ops =
            Vec::with_capacity(constraint.lhs().node_count() + constraint.rhs().node_count());
        // Reverse preorder: rhs first, and second children first — see the
        // module docs for why descending index order must equal the
        // interpreter's backward visit order.
        let rhs_root = lower(constraint.rhs(), &vars, &mut ops);
        let lhs_root = lower(constraint.lhs(), &vars, &mut ops);
        CompiledConstraint {
            ops,
            lhs_root,
            rhs_root,
            relation: constraint.relation(),
            vars,
            gap: OnceLock::new(),
        }
    }

    /// The gap form of `constraint`, the source this program was compiled
    /// from, built on the first call. Filling it lazily keeps derivatives
    /// of constraints that are never violated off the setup path.
    pub(crate) fn gap_form(&self, constraint: &Constraint) -> &GapForm {
        debug_assert_eq!(self.vars, constraint.argument_slice());
        self.gap.get_or_init(|| GapForm::new(constraint))
    }

    /// One HC4 revision against the intervals in `arena`: forward interval
    /// evaluation, then backward projection of the relation's target onto
    /// every argument occurrence. Returns whether the constraint cannot be
    /// satisfied anywhere in the box (a conflict). `narrowed` is cleared and
    /// receives the narrowed interval of every visited argument (already
    /// intersected with its input interval), ascending by property; it
    /// stays empty on a conflict. Callers reuse one buffer across calls.
    /// Test builds check it against the AST interpreter interval for
    /// interval, including the accumulation order of repeated variable
    /// occurrences.
    pub(crate) fn revise(
        &self,
        arena: &IntervalArena,
        scratch: &mut ReviseScratch,
        narrowed: &mut Vec<(PropertyId, Interval)>,
    ) -> bool {
        narrowed.clear();
        let n = self.ops.len();

        // Forward pass: one ascending sweep fills every instruction's value.
        scratch.vals.clear();
        scratch.vals.reserve(n);
        for op in &self.ops {
            let v = match *op {
                Op::Const(x) => Interval::singleton(x),
                Op::Var(slot) => arena.get(self.vars[slot as usize]),
                Op::Neg(a) => scratch.vals[a as usize].neg(),
                Op::Abs(a) => scratch.vals[a as usize].abs(),
                Op::Sqrt(a) => scratch.vals[a as usize].sqrt(),
                Op::Exp(a) => scratch.vals[a as usize].exp(),
                Op::Ln(a) => scratch.vals[a as usize].ln(),
                Op::Powi(a, k) => scratch.vals[a as usize].powi(k),
                Op::Add(a, b) => scratch.vals[a as usize] + scratch.vals[b as usize],
                Op::Sub(a, b) => scratch.vals[a as usize] - scratch.vals[b as usize],
                Op::Mul(a, b) => scratch.vals[a as usize] * scratch.vals[b as usize],
                Op::Div(a, b) => scratch.vals[a as usize] / scratch.vals[b as usize],
                Op::Min(a, b) => scratch.vals[a as usize].min(&scratch.vals[b as usize]),
                Op::Max(a, b) => scratch.vals[a as usize].max(&scratch.vals[b as usize]),
            };
            scratch.vals.push(v);
        }

        let lhs_iv = scratch.vals[self.lhs_root as usize];
        let rhs_iv = scratch.vals[self.rhs_root as usize];
        if lhs_iv.is_empty() || rhs_iv.is_empty() {
            return true;
        }

        let gap_target = match self.relation {
            Relation::Le | Relation::Lt => Interval::NON_POSITIVE,
            Relation::Ge | Relation::Gt => Interval::NON_NEGATIVE,
            Relation::Eq => Interval::new(-EQ_TOL, EQ_TOL),
        };
        let gap = lhs_iv - rhs_iv;
        let gap = tolerant_intersect(&gap, &gap_target);
        if gap.is_empty() {
            return true;
        }
        let lhs_target = (gap + rhs_iv).intersect(&lhs_iv);
        let rhs_target = (lhs_iv - gap).intersect(&rhs_iv);

        // Backward pass: one descending sweep. Instructions without a
        // pending target were cut off upstream (a conflicted subtree or a
        // `x^0` node) and are skipped, exactly like the interpreter's
        // early returns.
        scratch.targets.clear();
        scratch.targets.resize(n, None);
        scratch.targets[self.lhs_root as usize] = Some(lhs_target);
        scratch.targets[self.rhs_root as usize] = Some(rhs_target);
        scratch.acc.clear();
        scratch
            .acc
            .extend(self.vars.iter().map(|pid| arena.get(*pid)));
        scratch.touched.clear();
        scratch.touched.resize(self.vars.len(), false);

        let mut conflict = false;
        for i in (0..n).rev() {
            let Some(target) = scratch.targets[i].take() else {
                continue;
            };
            let t = tolerant_intersect(&scratch.vals[i], &target);
            if t.is_empty() {
                conflict = true;
                continue;
            }
            match self.ops[i] {
                Op::Const(_) => {}
                Op::Var(slot) => {
                    let slot = slot as usize;
                    scratch.acc[slot] = tolerant_intersect(&scratch.acc[slot], &t);
                    scratch.touched[slot] = true;
                    if scratch.acc[slot].is_empty() {
                        conflict = true;
                    }
                }
                Op::Neg(a) => scratch.targets[a as usize] = Some(t.neg()),
                Op::Abs(a) => {
                    let tt = t.intersect(&Interval::NON_NEGATIVE);
                    if tt.is_empty() {
                        conflict = true;
                        continue;
                    }
                    scratch.targets[a as usize] = Some(tt.hull(&tt.neg()));
                }
                Op::Sqrt(a) => {
                    let tt = t.intersect(&Interval::NON_NEGATIVE);
                    if tt.is_empty() {
                        conflict = true;
                        continue;
                    }
                    scratch.targets[a as usize] = Some(tt.powi(2));
                }
                Op::Exp(a) => {
                    let tt = t.intersect(&Interval::new(0.0, f64::INFINITY));
                    if tt.is_empty() {
                        conflict = true;
                        continue;
                    }
                    scratch.targets[a as usize] = Some(tt.ln());
                }
                Op::Ln(a) => scratch.targets[a as usize] = Some(t.exp()),
                Op::Powi(a, k) => {
                    if k == 0 {
                        if !t.contains(1.0) {
                            conflict = true;
                        }
                        continue;
                    }
                    let child_target = if k % 2 == 1 {
                        Interval::new(signed_root(t.lo(), k), signed_root(t.hi(), k))
                    } else {
                        let tt = t.intersect(&Interval::NON_NEGATIVE);
                        if tt.is_empty() {
                            conflict = true;
                            continue;
                        }
                        let r = Interval::new(root_even(tt.lo(), k), root_even(tt.hi(), k));
                        r.hull(&r.neg())
                    };
                    scratch.targets[a as usize] = Some(child_target);
                }
                Op::Add(a, b) => {
                    let (ia, ib) = (scratch.vals[a as usize], scratch.vals[b as usize]);
                    scratch.targets[a as usize] = Some(t - ib);
                    scratch.targets[b as usize] = Some(t - ia);
                }
                Op::Sub(a, b) => {
                    let (ia, ib) = (scratch.vals[a as usize], scratch.vals[b as usize]);
                    scratch.targets[a as usize] = Some(t + ib);
                    scratch.targets[b as usize] = Some(ia - t);
                }
                Op::Mul(a, b) => {
                    let (ia, ib) = (scratch.vals[a as usize], scratch.vals[b as usize]);
                    scratch.targets[a as usize] = Some(t / ib);
                    scratch.targets[b as usize] = Some(t / ia);
                }
                Op::Div(a, b) => {
                    let (ia, ib) = (scratch.vals[a as usize], scratch.vals[b as usize]);
                    scratch.targets[a as usize] = Some(t * ib);
                    scratch.targets[b as usize] = Some(ia / t);
                }
                Op::Min(a, b) => {
                    let (ia, ib) = (scratch.vals[a as usize], scratch.vals[b as usize]);
                    let mut ta = Interval::new(t.lo(), f64::INFINITY);
                    if ib.lo() > t.hi() {
                        // b cannot supply the minimum, so a must.
                        ta = ta.intersect(&Interval::new(f64::NEG_INFINITY, t.hi()));
                    }
                    let mut tb = Interval::new(t.lo(), f64::INFINITY);
                    if ia.lo() > t.hi() {
                        tb = tb.intersect(&Interval::new(f64::NEG_INFINITY, t.hi()));
                    }
                    scratch.targets[a as usize] = Some(ta);
                    scratch.targets[b as usize] = Some(tb);
                }
                Op::Max(a, b) => {
                    let (ia, ib) = (scratch.vals[a as usize], scratch.vals[b as usize]);
                    let mut ta = Interval::new(f64::NEG_INFINITY, t.hi());
                    if ib.hi() < t.lo() {
                        ta = ta.intersect(&Interval::new(t.lo(), f64::INFINITY));
                    }
                    let mut tb = Interval::new(f64::NEG_INFINITY, t.hi());
                    if ia.hi() < t.lo() {
                        tb = tb.intersect(&Interval::new(t.lo(), f64::INFINITY));
                    }
                    scratch.targets[a as usize] = Some(ta);
                    scratch.targets[b as usize] = Some(tb);
                }
            }
        }

        if conflict {
            return true;
        }
        narrowed.extend(
            self.vars
                .iter()
                .zip(scratch.touched.iter())
                .zip(scratch.acc.iter())
                .filter(|((_, touched), _)| **touched)
                .map(|((pid, _), iv)| (*pid, *iv)),
        );
        if narrowed.iter().any(|(_, iv)| iv.is_empty()) {
            narrowed.clear();
            return true;
        }
        false
    }
}

/// Relative tolerance for "near-touch" intersections: when two intervals
/// miss each other by no more than this (relative) amount, the intersection
/// snaps to the nearest boundary point instead of reporting a conflict.
/// Floating-point slop along a projection chain is orders of magnitude
/// smaller; genuine conflicts are orders of magnitude larger.
const TOUCH_EPS: f64 = 1e-9;

/// Intersection that forgives floating-point slop: an exact-empty result
/// whose inputs miss by at most [`TOUCH_EPS`] (relative) becomes the
/// single touching point.
pub(crate) fn tolerant_intersect(a: &Interval, b: &Interval) -> Interval {
    let met = a.intersect(b);
    if !met.is_empty() || a.is_empty() || b.is_empty() {
        return met;
    }
    let scale = |x: f64, y: f64| TOUCH_EPS * (1.0 + x.abs().max(y.abs()));
    if b.lo() > a.hi() && b.lo() - a.hi() <= scale(b.lo(), a.hi()) {
        return Interval::singleton(a.hi());
    }
    if a.lo() > b.hi() && a.lo() - b.hi() <= scale(a.lo(), b.hi()) {
        return Interval::singleton(b.hi());
    }
    met
}

/// The real `n`-th root of `x` for odd `n`, keeping its sign.
pub(crate) fn signed_root(x: f64, n: i32) -> f64 {
    if x.is_infinite() {
        return x;
    }
    x.signum() * x.abs().powf(1.0 / n as f64)
}

/// The non-negative `n`-th root of `max(x, 0)` for even `n`.
pub(crate) fn root_even(x: f64, n: i32) -> f64 {
    if x.is_infinite() {
        return f64::INFINITY;
    }
    x.max(0.0).powf(1.0 / n as f64)
}

/// Emits `expr`'s instructions in reverse preorder and returns the index
/// of the node's own instruction.
fn lower(expr: &Expr, vars: &[PropertyId], ops: &mut Vec<Op>) -> u32 {
    let op = match expr {
        Expr::Const(x) => Op::Const(*x),
        Expr::Var(pid) => {
            let slot = vars
                .binary_search(pid)
                .expect("every variable occurs in the argument table");
            Op::Var(slot as u32)
        }
        Expr::Neg(e) => Op::Neg(lower(e, vars, ops)),
        Expr::Abs(e) => Op::Abs(lower(e, vars, ops)),
        Expr::Sqrt(e) => Op::Sqrt(lower(e, vars, ops)),
        Expr::Exp(e) => Op::Exp(lower(e, vars, ops)),
        Expr::Ln(e) => Op::Ln(lower(e, vars, ops)),
        Expr::Powi(e, n) => Op::Powi(lower(e, vars, ops), *n),
        Expr::Add(a, b)
        | Expr::Sub(a, b)
        | Expr::Mul(a, b)
        | Expr::Div(a, b)
        | Expr::Min(a, b)
        | Expr::Max(a, b) => {
            let ib = lower(b, vars, ops);
            let ia = lower(a, vars, ops);
            match expr {
                Expr::Add(_, _) => Op::Add(ia, ib),
                Expr::Sub(_, _) => Op::Sub(ia, ib),
                Expr::Mul(_, _) => Op::Mul(ia, ib),
                Expr::Div(_, _) => Op::Div(ia, ib),
                Expr::Min(_, _) => Op::Min(ia, ib),
                Expr::Max(_, _) => Op::Max(ia, ib),
                _ => unreachable!(),
            }
        }
    };
    ops.push(op);
    (ops.len() - 1) as u32
}

/// Every constraint of a network lowered to flat programs, indexed by
/// [`ConstraintId`]. The network keeps it in lockstep with its constraints
/// ([`push`](Self::push) on add, [`replace`](Self::replace) on relax).
#[derive(Debug, Clone, Default)]
pub(crate) struct CompiledNetwork {
    constraints: Vec<CompiledConstraint>,
}

impl CompiledNetwork {
    /// Compiles and appends the program of a newly added constraint.
    pub(crate) fn push(&mut self, constraint: &Constraint) {
        debug_assert_eq!(constraint.id().index(), self.constraints.len());
        self.constraints
            .push(CompiledConstraint::compile(constraint));
    }

    /// Recompiles the program of a rewritten constraint; its gap form is
    /// dropped with the old program.
    pub(crate) fn replace(&mut self, constraint: &Constraint) {
        self.constraints[constraint.id().index()] = CompiledConstraint::compile(constraint);
    }

    /// The gap form of `constraint` (see [`CompiledConstraint::gap_form`]).
    pub(crate) fn gap_form(&self, constraint: &Constraint) -> &GapForm {
        self.constraints[constraint.id().index()].gap_form(constraint)
    }

    /// Whether constraint `cid`'s gap form has been built.
    #[cfg(test)]
    pub(crate) fn has_gap_form(&self, cid: ConstraintId) -> bool {
        self.constraints[cid.index()].gap.get().is_some()
    }

    /// One HC4 revision of constraint `cid` against `arena`, its narrowed
    /// arguments written to `narrowed`; returns whether it conflicts (see
    /// [`CompiledConstraint::revise`]).
    pub(crate) fn revise(
        &self,
        cid: ConstraintId,
        arena: &IntervalArena,
        scratch: &mut ReviseScratch,
        narrowed: &mut Vec<(PropertyId, Interval)>,
    ) -> bool {
        self.constraints[cid.index()].revise(arena, scratch, narrowed)
    }

    /// An arena snapshot of `net`'s current effective intervals — a
    /// propagation run's or an explanation's starting box. A region run
    /// passes its constraints (an explanation its one constraint), the only
    /// ones it revises, and gets the arguments of those loaded (every other
    /// slot stays [`Interval::UNIVERSE`], unread); `None` loads every
    /// property.
    pub(crate) fn load_arena(
        &self,
        net: &ConstraintNetwork,
        region: Option<&[ConstraintId]>,
    ) -> IntervalArena {
        let mut arena = IntervalArena::new(net.property_count());
        match region {
            None => {
                for pid in net.property_ids() {
                    arena.set(pid, net.effective_interval(pid));
                }
            }
            Some(constraints) => {
                for cid in constraints {
                    for pid in &self.constraints[cid.index()].vars {
                        arena.set(*pid, net.effective_interval(*pid));
                    }
                }
            }
        }
        arena
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{cst, var};
    use crate::interp::{hc4_revise, ReviseResult};
    use proptest::prelude::*;

    fn p(i: u32) -> PropertyId {
        PropertyId::new(i)
    }

    fn arena_from(domains: &[Interval]) -> IntervalArena {
        let mut arena = IntervalArena::new(domains.len());
        for (i, iv) in domains.iter().enumerate() {
            arena.set(p(i as u32), *iv);
        }
        arena
    }

    /// `compiled`'s revision against `arena` in the interpreter's result
    /// shape.
    fn revised(
        compiled: &CompiledConstraint,
        arena: &IntervalArena,
        scratch: &mut ReviseScratch,
    ) -> ReviseResult {
        let mut narrowed = Vec::new();
        let conflict = compiled.revise(arena, scratch, &mut narrowed);
        ReviseResult { narrowed, conflict }
    }

    fn assert_revise_matches(c: &Constraint, arena: &IntervalArena) {
        let compiled = CompiledConstraint::compile(c);
        let mut scratch = ReviseScratch::new();
        let got = revised(&compiled, arena, &mut scratch);
        let want = hc4_revise(c, &|pid| arena.get(pid));
        assert_eq!(got.conflict, want.conflict, "conflict flag for {c}");
        assert_eq!(got.narrowed.len(), want.narrowed.len(), "arity for {c}");
        for ((gp, gi), (wp, wi)) in got.narrowed.iter().zip(want.narrowed.iter()) {
            assert_eq!(gp, wp, "property order for {c}");
            assert_eq!(
                gi.is_empty(),
                wi.is_empty(),
                "emptiness of {gp} for {c}: {gi} vs {wi}"
            );
            if !gi.is_empty() {
                assert_eq!(gi.lo().to_bits(), wi.lo().to_bits(), "lo of {gp} for {c}");
                assert_eq!(gi.hi().to_bits(), wi.hi().to_bits(), "hi of {gp} for {c}");
            }
        }
    }

    #[test]
    fn sum_cap_matches_interpreter_bitwise() {
        let c = Constraint::new(
            ConstraintId::new(0),
            "cap",
            var(p(0)) + var(p(1)),
            Relation::Le,
            cst(5.0),
        );
        let arena = arena_from(&[Interval::new(0.0, 10.0), Interval::new(3.0, 10.0)]);
        assert_revise_matches(&c, &arena);
    }

    #[test]
    fn repeated_variable_accumulates_in_interpreter_order() {
        // x occurs on both sides and twice on the left: the narrowing is
        // the ordered tolerant-intersection chain of all three visits.
        let c = Constraint::new(
            ConstraintId::new(0),
            "mixed",
            var(p(0)) * var(p(0)) + var(p(1)),
            Relation::Le,
            var(p(0)) + cst(6.0),
        );
        let arena = arena_from(&[Interval::new(0.5, 4.0), Interval::new(-3.0, 9.0)]);
        assert_revise_matches(&c, &arena);
    }

    #[test]
    fn unary_chain_and_powi_zero_match() {
        let c = Constraint::new(
            ConstraintId::new(0),
            "chain",
            -var(p(0)).sqrt().ln(),
            Relation::Ge,
            var(p(1)).powi(0) - cst(2.0),
        );
        let arena = arena_from(&[Interval::new(0.1, 50.0), Interval::new(-4.0, 4.0)]);
        assert_revise_matches(&c, &arena);
    }

    #[test]
    fn min_max_and_division_match() {
        let c = Constraint::new(
            ConstraintId::new(0),
            "mm",
            var(p(0)).min(var(p(1))) / var(p(2)),
            Relation::Eq,
            var(p(0)).max(cst(2.0)),
        );
        let arena = arena_from(&[
            Interval::new(1.0, 8.0),
            Interval::new(-2.0, 6.0),
            Interval::new(0.5, 3.0),
        ]);
        assert_revise_matches(&c, &arena);
    }

    #[test]
    fn conflict_is_detected_like_the_interpreter() {
        let c = Constraint::new(
            ConstraintId::new(0),
            "impossible",
            var(p(0)),
            Relation::Ge,
            cst(100.0),
        );
        let arena = arena_from(&[Interval::new(0.0, 1.0)]);
        assert_revise_matches(&c, &arena);
    }

    #[test]
    fn revise_reports_narrowed_arguments() {
        let c = Constraint::new(
            ConstraintId::new(0),
            "cap",
            var(p(0)) + var(p(1)),
            Relation::Le,
            cst(5.0),
        );
        let arena = arena_from(&[Interval::new(0.0, 10.0), Interval::new(3.0, 10.0)]);
        let r = revised(
            &CompiledConstraint::compile(&c),
            &arena,
            &mut ReviseScratch::new(),
        );
        assert!(!r.conflict);
        let x0 = r
            .narrowed
            .iter()
            .find(|(pid, _)| *pid == p(0))
            .map(|(_, iv)| *iv)
            .unwrap();
        assert!((x0.hi() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn revise_reports_conflict_on_impossible_relation() {
        let c = Constraint::new(
            ConstraintId::new(0),
            "impossible",
            var(p(0)),
            Relation::Ge,
            cst(100.0),
        );
        let arena = arena_from(&[Interval::new(0.0, 1.0)]);
        let r = revised(
            &CompiledConstraint::compile(&c),
            &arena,
            &mut ReviseScratch::new(),
        );
        assert!(r.conflict);
        assert!(r.narrowed.is_empty());
    }

    #[test]
    fn empty_input_interval_is_a_conflict() {
        let c = Constraint::new(
            ConstraintId::new(0),
            "empty-arg",
            var(p(0)) + cst(1.0),
            Relation::Le,
            cst(5.0),
        );
        let arena = arena_from(&[Interval::EMPTY]);
        let r = revised(
            &CompiledConstraint::compile(&c),
            &arena,
            &mut ReviseScratch::new(),
        );
        assert!(r.conflict);
    }

    #[test]
    fn programs_count_one_instruction_per_expr_node() {
        let c = Constraint::new(
            ConstraintId::new(0),
            "count",
            var(p(0)) + var(p(1)) * cst(2.0),
            Relation::Le,
            cst(5.0),
        );
        let compiled = CompiledConstraint::compile(&c);
        assert_eq!(
            compiled.ops.len(),
            c.lhs().node_count() + c.rhs().node_count()
        );
        assert_eq!(compiled.vars, [p(0), p(1)]);
    }

    #[test]
    fn scratch_is_reusable_across_programs() {
        let small = Constraint::new(ConstraintId::new(0), "s", var(p(0)), Relation::Le, cst(1.0));
        let big = Constraint::new(
            ConstraintId::new(1),
            "b",
            var(p(0)) + var(p(1)) + var(p(2)),
            Relation::Le,
            cst(9.0),
        );
        let arena = arena_from(&[
            Interval::new(0.0, 5.0),
            Interval::new(0.0, 5.0),
            Interval::new(0.0, 5.0),
        ]);
        let mut scratch = ReviseScratch::new();
        for c in [&big, &small, &big] {
            let compiled = CompiledConstraint::compile(c);
            let got = revised(&compiled, &arena, &mut scratch);
            let want = hc4_revise(c, &|pid| arena.get(pid));
            assert_eq!(got, want);
        }
    }

    /// Number of distinct properties random expressions draw from.
    const VARS: u32 = 4;

    /// Bitwise interval equality, treating every empty interval as equal
    /// (the canonical empty interval is NaN-bounded, so plain `==` rejects
    /// it).
    fn iv_eq(a: &Interval, b: &Interval) -> bool {
        (a.is_empty() && b.is_empty())
            || (a.lo().to_bits() == b.lo().to_bits() && a.hi().to_bits() == b.hi().to_bits())
    }

    /// Finite intervals in [-20, 20].
    fn arb_interval() -> impl Strategy<Value = Interval> {
        (-20.0f64..20.0, -20.0f64..20.0).prop_map(|(a, b)| Interval::new(a.min(b), a.max(b)))
    }

    fn arb_relation() -> impl Strategy<Value = Relation> {
        prop_oneof![
            Just(Relation::Le),
            Just(Relation::Lt),
            Just(Relation::Ge),
            Just(Relation::Gt),
            Just(Relation::Eq),
        ]
    }

    /// Random expression trees over the whole operator repertoire,
    /// including repeated variable occurrences (the accumulation-order
    /// stress case).
    fn arb_expr() -> impl Strategy<Value = Expr> {
        let leaf = prop_oneof![
            (0..VARS).prop_map(|i| var(p(i))),
            (-10.0f64..10.0).prop_map(cst),
        ];
        leaf.prop_recursive(4, 24, 2, |inner| {
            prop_oneof![
                inner.clone().prop_map(|e| -e),
                inner.clone().prop_map(|e| e.abs()),
                inner.clone().prop_map(|e| e.sqrt()),
                inner.clone().prop_map(|e| e.exp()),
                inner.clone().prop_map(|e| e.ln()),
                (inner.clone(), 0i32..4).prop_map(|(e, n)| e.powi(n)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a * b),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a / b),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.min(b)),
                (inner.clone(), inner).prop_map(|(a, b)| a.max(b)),
            ]
        })
    }

    /// An interval in [-50, 50] and a point inside it.
    fn arb_interval_with_point() -> impl Strategy<Value = (Interval, f64)> {
        (-50.0f64..50.0, -50.0f64..50.0, 0.0f64..1.0).prop_map(|(a, b, t)| {
            let (lo, hi) = (a.min(b), a.max(b));
            (Interval::new(lo, hi), lo + (hi - lo) * t)
        })
    }

    proptest! {
        /// A revision of `k_a·x + k_b·y <= c` over a box holding one of its
        /// solutions `(x, y)` reports no conflict and keeps that solution.
        #[test]
        fn hc4_preserves_in_box_solutions(
            ka in -5.0f64..5.0,
            kb in -5.0f64..5.0,
            (ix, x) in arb_interval_with_point(),
            (iy, y) in arb_interval_with_point(),
            slack in -20.0f64..20.0,
        ) {
            let c = Constraint::new(
                ConstraintId::new(0),
                "lin",
                cst(ka) * var(p(0)) + cst(kb) * var(p(1)),
                Relation::Le,
                cst(ka * x + kb * y + slack.abs()),
            );
            let mut narrowed_args = Vec::new();
            let conflict = CompiledConstraint::compile(&c).revise(
                &arena_from(&[ix, iy]),
                &mut ReviseScratch::new(),
                &mut narrowed_args,
            );
            prop_assert!(!conflict, "spurious conflict");
            for (pid, narrowed) in &narrowed_args {
                let kept = if *pid == p(0) { x } else { y };
                prop_assert!(
                    narrowed.contains(kept)
                        || (kept - narrowed.lo()).abs() < 1e-6
                        || (kept - narrowed.hi()).abs() < 1e-6,
                    "solution {kept} pruned from {narrowed} for {pid}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One compiled revision equals one interpreted HC4 revision bit
        /// for bit: same conflict flag, same narrowed arguments in the same
        /// order, same interval bounds.
        #[test]
        fn compiled_revise_matches_interp(
            lhs in arb_expr(),
            rhs in arb_expr(),
            rel in arb_relation(),
            ivs in proptest::collection::vec(arb_interval(), VARS as usize..VARS as usize + 1),
        ) {
            let c = Constraint::new(ConstraintId::new(0), "c", lhs, rel, rhs);
            let arena = arena_from(&ivs);
            let got = revised(&CompiledConstraint::compile(&c), &arena, &mut ReviseScratch::new());
            let want = hc4_revise(&c, &|pid| arena.get(pid));
            prop_assert_eq!(got.conflict, want.conflict);
            prop_assert_eq!(got.narrowed.len(), want.narrowed.len());
            for ((gp, gi), (wp, wi)) in got.narrowed.iter().zip(&want.narrowed) {
                prop_assert_eq!(gp, wp);
                prop_assert!(iv_eq(gi, wi), "narrowed {:?}: {:?} vs {:?}", gp, gi, wi);
            }
        }
    }
}
