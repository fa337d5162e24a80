//! The AST interpreter: HC4 revision by walking a constraint's expression
//! trees, and the explanation and conflict-set bodies built on it.
//!
//! Production revises only through the compiled programs (see
//! [`crate::compile`]). This module is compiled in test builds alone, as
//! the reference those programs and their callers are checked against: a
//! compiled revision must equal [`hc4_revise`] bit for bit, the
//! propagator's fixed points must equal the interpreter's (`propagate.rs`),
//! and [`explain_violation`](crate::explain_violation),
//! [`subset_conflicts`](crate::subset_conflicts) and
//! [`minimal_conflict_set`](crate::minimal_conflict_set) must equal the
//! interpreter-based bodies below on generated networks.

use crate::compile::{root_even, signed_root, tolerant_intersect};
use crate::constraint::{Constraint, ConstraintStatus, Relation, EQ_TOL};
use crate::explain::{ArgumentDiagnosis, ViolationExplanation};
use crate::expr::Expr;
use crate::ids::{ConstraintId, PropertyId};
use crate::interval::Interval;
use crate::mcs::{MinimalConflictSet, EVALS_PER_CONSTRAINT};
use crate::monotone::helps_direction;
use crate::network::ConstraintNetwork;
use crate::propagate::significant_interval_narrowing;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Result of revising a single constraint.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ReviseResult {
    /// Per-argument narrowed intervals (already intersected with the
    /// argument's input interval), ascending by property.
    pub(crate) narrowed: Vec<(PropertyId, Interval)>,
    /// The constraint cannot be satisfied anywhere in the current box.
    pub(crate) conflict: bool,
}

/// One HC4 revision of a single constraint against the given argument
/// intervals: forward interval evaluation, then backward projection of the
/// relation's target interval onto every argument occurrence.
pub(crate) fn hc4_revise<F: Fn(PropertyId) -> Interval>(
    constraint: &Constraint,
    lookup: &F,
) -> ReviseResult {
    let lhs_node = forward(constraint.lhs(), lookup);
    let rhs_node = forward(constraint.rhs(), lookup);
    let (lhs_iv, rhs_iv) = (lhs_node.interval, rhs_node.interval);
    if lhs_iv.is_empty() || rhs_iv.is_empty() {
        return ReviseResult {
            narrowed: Vec::new(),
            conflict: true,
        };
    }

    let gap_target = match constraint.relation() {
        Relation::Le | Relation::Lt => Interval::NON_POSITIVE,
        Relation::Ge | Relation::Gt => Interval::NON_NEGATIVE,
        Relation::Eq => Interval::new(-EQ_TOL, EQ_TOL),
    };
    // Treat the relation as the virtual node `lhs - rhs ∈ gap_target`.
    let gap = lhs_iv - rhs_iv;
    let gap = tolerant_intersect(&gap, &gap_target);
    if gap.is_empty() {
        return ReviseResult {
            narrowed: Vec::new(),
            conflict: true,
        };
    }
    let lhs_target = (gap + rhs_iv).intersect(&lhs_iv);
    let rhs_target = (lhs_iv - gap).intersect(&rhs_iv);

    let mut narrowed: HashMap<PropertyId, Interval> = HashMap::new();
    let mut conflict = false;
    backward(
        constraint.lhs(),
        &lhs_node,
        lhs_target,
        &mut narrowed,
        &mut conflict,
    );
    backward(
        constraint.rhs(),
        &rhs_node,
        rhs_target,
        &mut narrowed,
        &mut conflict,
    );

    let mut narrowed: Vec<(PropertyId, Interval)> = narrowed.into_iter().collect();
    narrowed.sort_by_key(|(pid, _)| *pid);
    if narrowed.iter().any(|(_, iv)| iv.is_empty()) {
        conflict = true;
    }
    ReviseResult {
        narrowed: if conflict { Vec::new() } else { narrowed },
        conflict,
    }
}

/// Forward-annotated expression tree: each node carries the interval of its
/// subexpression over the input box.
struct Node {
    interval: Interval,
    children: Vec<Node>,
}

fn forward<F: Fn(PropertyId) -> Interval>(expr: &Expr, lookup: &F) -> Node {
    match expr {
        Expr::Const(x) => Node {
            interval: Interval::singleton(*x),
            children: Vec::new(),
        },
        Expr::Var(id) => Node {
            interval: lookup(*id),
            children: Vec::new(),
        },
        Expr::Neg(e) | Expr::Abs(e) | Expr::Sqrt(e) | Expr::Exp(e) | Expr::Ln(e) => {
            let child = forward(e, lookup);
            let interval = match expr {
                Expr::Neg(_) => child.interval.neg(),
                Expr::Abs(_) => child.interval.abs(),
                Expr::Sqrt(_) => child.interval.sqrt(),
                Expr::Exp(_) => child.interval.exp(),
                Expr::Ln(_) => child.interval.ln(),
                _ => unreachable!(),
            };
            Node {
                interval,
                children: vec![child],
            }
        }
        Expr::Powi(e, n) => {
            let child = forward(e, lookup);
            Node {
                interval: child.interval.powi(*n),
                children: vec![child],
            }
        }
        Expr::Add(a, b)
        | Expr::Sub(a, b)
        | Expr::Mul(a, b)
        | Expr::Div(a, b)
        | Expr::Min(a, b)
        | Expr::Max(a, b) => {
            let ca = forward(a, lookup);
            let cb = forward(b, lookup);
            let interval = match expr {
                Expr::Add(_, _) => ca.interval + cb.interval,
                Expr::Sub(_, _) => ca.interval - cb.interval,
                Expr::Mul(_, _) => ca.interval * cb.interval,
                Expr::Div(_, _) => ca.interval / cb.interval,
                Expr::Min(_, _) => ca.interval.min(&cb.interval),
                Expr::Max(_, _) => ca.interval.max(&cb.interval),
                _ => unreachable!(),
            };
            Node {
                interval,
                children: vec![ca, cb],
            }
        }
    }
}

/// Backward projection: given that this node's value must lie in `target`,
/// narrow every variable occurrence underneath it.
fn backward(
    expr: &Expr,
    node: &Node,
    target: Interval,
    narrowed: &mut HashMap<PropertyId, Interval>,
    conflict: &mut bool,
) {
    let t = tolerant_intersect(&node.interval, &target);
    if t.is_empty() {
        *conflict = true;
        return;
    }
    match expr {
        Expr::Const(_) => {}
        Expr::Var(id) => {
            let entry = narrowed.entry(*id).or_insert(node.interval);
            *entry = tolerant_intersect(entry, &t);
            if entry.is_empty() {
                *conflict = true;
            }
        }
        Expr::Neg(e) => backward(e, &node.children[0], t.neg(), narrowed, conflict),
        Expr::Abs(e) => {
            let tt = t.intersect(&Interval::NON_NEGATIVE);
            if tt.is_empty() {
                *conflict = true;
                return;
            }
            let child_target = tt.hull(&tt.neg());
            backward(e, &node.children[0], child_target, narrowed, conflict);
        }
        Expr::Sqrt(e) => {
            let tt = t.intersect(&Interval::NON_NEGATIVE);
            if tt.is_empty() {
                *conflict = true;
                return;
            }
            backward(e, &node.children[0], tt.powi(2), narrowed, conflict);
        }
        Expr::Exp(e) => {
            let tt = t.intersect(&Interval::new(0.0, f64::INFINITY));
            if tt.is_empty() {
                *conflict = true;
                return;
            }
            backward(e, &node.children[0], tt.ln(), narrowed, conflict);
        }
        Expr::Ln(e) => backward(e, &node.children[0], t.exp(), narrowed, conflict),
        Expr::Powi(e, n) => {
            if *n == 0 {
                if !t.contains(1.0) {
                    *conflict = true;
                }
                return;
            }
            let child_target = if *n % 2 == 1 {
                Interval::new(signed_root(t.lo(), *n), signed_root(t.hi(), *n))
            } else {
                let tt = t.intersect(&Interval::NON_NEGATIVE);
                if tt.is_empty() {
                    *conflict = true;
                    return;
                }
                let r = Interval::new(root_even(tt.lo(), *n), root_even(tt.hi(), *n));
                r.hull(&r.neg())
            };
            backward(e, &node.children[0], child_target, narrowed, conflict);
        }
        Expr::Add(a, b) => {
            let (ia, ib) = (node.children[0].interval, node.children[1].interval);
            backward(a, &node.children[0], t - ib, narrowed, conflict);
            backward(b, &node.children[1], t - ia, narrowed, conflict);
        }
        Expr::Sub(a, b) => {
            let (ia, ib) = (node.children[0].interval, node.children[1].interval);
            backward(a, &node.children[0], t + ib, narrowed, conflict);
            backward(b, &node.children[1], ia - t, narrowed, conflict);
        }
        Expr::Mul(a, b) => {
            let (ia, ib) = (node.children[0].interval, node.children[1].interval);
            backward(a, &node.children[0], t / ib, narrowed, conflict);
            backward(b, &node.children[1], t / ia, narrowed, conflict);
        }
        Expr::Div(a, b) => {
            let (ia, ib) = (node.children[0].interval, node.children[1].interval);
            backward(a, &node.children[0], t * ib, narrowed, conflict);
            backward(b, &node.children[1], ia / t, narrowed, conflict);
        }
        Expr::Min(a, b) => {
            let (ia, ib) = (node.children[0].interval, node.children[1].interval);
            let mut ta = Interval::new(t.lo(), f64::INFINITY);
            if ib.lo() > t.hi() {
                // b cannot supply the minimum, so a must.
                ta = ta.intersect(&Interval::new(f64::NEG_INFINITY, t.hi()));
            }
            let mut tb = Interval::new(t.lo(), f64::INFINITY);
            if ia.lo() > t.hi() {
                tb = tb.intersect(&Interval::new(f64::NEG_INFINITY, t.hi()));
            }
            backward(a, &node.children[0], ta, narrowed, conflict);
            backward(b, &node.children[1], tb, narrowed, conflict);
        }
        Expr::Max(a, b) => {
            let (ia, ib) = (node.children[0].interval, node.children[1].interval);
            let mut ta = Interval::new(f64::NEG_INFINITY, t.hi());
            if ib.hi() < t.lo() {
                ta = ta.intersect(&Interval::new(t.lo(), f64::INFINITY));
            }
            let mut tb = Interval::new(f64::NEG_INFINITY, t.hi());
            if ia.hi() < t.lo() {
                tb = tb.intersect(&Interval::new(t.lo(), f64::INFINITY));
            }
            backward(a, &node.children[0], ta, narrowed, conflict);
            backward(b, &node.children[1], tb, narrowed, conflict);
        }
    }
}

/// [`explain_violation`](crate::explain_violation) through the interpreter:
/// each argument's required interval is one [`hc4_revise`] with that
/// argument freed to its initial hull.
pub(crate) fn explain_reference(
    net: &ConstraintNetwork,
    cid: ConstraintId,
) -> Option<ViolationExplanation> {
    if net.status(cid) != ConstraintStatus::Violated {
        return None;
    }
    let constraint = net.constraint(cid);
    let lookup = |pid: PropertyId| net.effective_interval(pid);
    let gap = constraint.gap_interval(&lookup);
    let arguments = constraint
        .argument_slice()
        .iter()
        .map(|pid| {
            let meta = net.property(*pid);
            let freed = |id: PropertyId| {
                if id == *pid {
                    meta.initial_domain()
                        .enclosing_interval()
                        .unwrap_or(Interval::UNIVERSE)
                } else {
                    net.effective_interval(id)
                }
            };
            let revise = hc4_revise(constraint, &freed);
            let required = if revise.conflict {
                Interval::EMPTY
            } else {
                revise
                    .narrowed
                    .iter()
                    .find(|(p, _)| p == pid)
                    .map(|(_, iv)| *iv)
                    .unwrap_or_else(|| freed(*pid))
            };
            ArgumentDiagnosis {
                property: *pid,
                name: meta.qualified_name().to_owned(),
                current: net.effective_interval(*pid),
                required,
                helps: helps_direction(net, cid, *pid),
            }
        })
        .collect();
    Some(ViolationExplanation {
        constraint: cid,
        name: constraint.name().to_owned(),
        rendering: constraint.render_named(&|pid| net.property(pid).qualified_name()),
        gap,
        arguments,
    })
}

/// [`subset_conflicts`](crate::subset_conflicts) through the interpreter,
/// over a map of the subset's argument ranges.
pub(crate) fn subset_conflicts_reference(
    net: &ConstraintNetwork,
    subset: &BTreeSet<ConstraintId>,
) -> bool {
    if subset.is_empty() {
        return false;
    }
    let mut ranges: BTreeMap<PropertyId, Interval> = BTreeMap::new();
    for cid in subset {
        for pid in net.constraint(*cid).argument_slice() {
            ranges
                .entry(*pid)
                .or_insert_with(|| net.initial_interval(*pid));
        }
    }
    let budget = EVALS_PER_CONSTRAINT * subset.len();
    let mut evals = 0usize;
    loop {
        let mut narrowed_any = false;
        for cid in subset {
            if evals >= budget {
                return false;
            }
            evals += 1;
            let lookup = |pid: PropertyId| ranges[&pid];
            let result = hc4_revise(net.constraint(*cid), &lookup);
            if result.conflict {
                return true;
            }
            for (pid, iv) in result.narrowed {
                if significant_interval_narrowing(&ranges[&pid], &iv) {
                    ranges.insert(pid, iv);
                    narrowed_any = true;
                }
            }
        }
        if !narrowed_any {
            return false;
        }
    }
}

/// [`minimal_conflict_set`](crate::minimal_conflict_set)'s deletion-based
/// reduction over [`subset_conflicts_reference`].
pub(crate) fn minimal_conflict_set_reference(
    net: &ConstraintNetwork,
    seed: ConstraintId,
) -> Option<MinimalConflictSet> {
    let mut candidate: BTreeSet<ConstraintId> = net
        .constraint_components()
        .into_iter()
        .find(|component| component.contains(&seed))?
        .into_iter()
        .collect();
    if !subset_conflicts_reference(net, &candidate) {
        return None;
    }
    let order: Vec<ConstraintId> = candidate
        .iter()
        .copied()
        .filter(|cid| *cid != seed)
        .chain(std::iter::once(seed))
        .collect();
    let tests = 1 + order.len();
    for cid in order {
        candidate.remove(&cid);
        if !subset_conflicts_reference(net, &candidate) {
            candidate.insert(cid);
        }
    }
    Some(MinimalConflictSet {
        seed,
        members: candidate.into_iter().collect(),
        tests,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::expr::{cst, var};
    use crate::network::Property;
    use crate::propagate::{propagate, PropagationConfig};
    use crate::value::Value;
    use crate::{explain_violation, minimal_conflict_set, subset_conflicts};
    use proptest::prelude::*;

    /// Properties in every generated network.
    const PROPS: usize = 6;

    /// One generated constraint over 3 or 4 distinct arguments `a`:
    /// `Σ k_i·a_i + k·a_0·a_1  rel  a_2 + c`, so `a_0`, `a_1` and `a_2`
    /// each occur twice.
    #[derive(Debug, Clone)]
    struct Spec {
        args: Vec<usize>,
        coeffs: Vec<f64>,
        product: f64,
        relation: Relation,
        offset: f64,
    }

    fn arb_spec() -> impl Strategy<Value = Spec> {
        (
            proptest::collection::vec(0..PROPS, 4..5)
                .prop_map(|mut args| {
                    args.sort_unstable();
                    args.dedup();
                    args
                })
                .prop_filter("3+ distinct arguments", |args| args.len() >= 3),
            proptest::collection::vec(-3.0f64..3.0, 4..5),
            -1.0f64..1.0,
            prop_oneof![Just(Relation::Le), Just(Relation::Ge), Just(Relation::Eq)],
            -15.0f64..15.0,
        )
            .prop_map(|(args, coeffs, product, relation, offset)| Spec {
                args,
                coeffs,
                product,
                relation,
                offset,
            })
    }

    /// Each property's initial range and, when the fraction is not
    /// negative, where in that range it is bound.
    fn arb_props() -> impl Strategy<Value = Vec<((f64, f64), f64)>> {
        proptest::collection::vec(
            ((-10.0f64..10.0, 0.5f64..20.0), -0.8f64..1.0),
            PROPS..PROPS + 1,
        )
    }

    fn build(props: &[((f64, f64), f64)], specs: &[Spec]) -> ConstraintNetwork {
        let mut net = ConstraintNetwork::new();
        let ids: Vec<PropertyId> = props
            .iter()
            .enumerate()
            .map(|(i, ((lo, width), _))| {
                net.add_property(Property::new(
                    format!("x{i}"),
                    "o",
                    Domain::interval(*lo, lo + width),
                ))
                .unwrap()
            })
            .collect();
        for (n, spec) in specs.iter().enumerate() {
            let x = |k: usize| var(ids[spec.args[k]]);
            let mut lhs = cst(spec.product) * x(0) * x(1);
            for (k, coeff) in spec.coeffs.iter().take(spec.args.len()).enumerate() {
                lhs = lhs + cst(*coeff) * x(k);
            }
            net.add_constraint(format!("c{n}"), lhs, spec.relation, x(2) + cst(spec.offset))
                .unwrap();
        }
        for (pid, ((lo, width), frac)) in ids.iter().zip(props) {
            if *frac >= 0.0 {
                net.bind(*pid, Value::number(lo + frac * width)).unwrap();
            }
        }
        net
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Explanations, subset conflict checks and minimal conflict sets
        /// revised through the compiled programs equal the interpreter's,
        /// bit for bit (`{:?}` is exact for `f64`).
        #[test]
        fn explanations_and_conflict_sets_match_the_interpreter(
            props in arb_props(),
            specs in proptest::collection::vec(arb_spec(), 2..6),
        ) {
            let mut net = build(&props, &specs);
            propagate(&mut net, &PropagationConfig::default());
            for cid in net.constraint_ids() {
                prop_assert_eq!(
                    format!("{:?}", explain_violation(&net, cid)),
                    format!("{:?}", explain_reference(&net, cid))
                );
            }
            for component in net.constraint_components() {
                let set: BTreeSet<ConstraintId> = component.into_iter().collect();
                // The whole component, then each one-member deletion.
                for removed in std::iter::once(None).chain(set.iter().copied().map(Some)) {
                    let mut subset = set.clone();
                    if let Some(cid) = removed {
                        subset.remove(&cid);
                    }
                    prop_assert_eq!(
                        subset_conflicts(&net, &subset),
                        subset_conflicts_reference(&net, &subset),
                        "subset {:?}", subset
                    );
                }
            }
            for seed in net.violated_constraints() {
                prop_assert_eq!(
                    format!("{:?}", minimal_conflict_set(&net, seed)),
                    format!("{:?}", minimal_conflict_set_reference(&net, seed))
                );
            }
        }
    }
}
