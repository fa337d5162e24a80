//! Property-based tests for the constraint substrate's core invariants:
//! interval-arithmetic soundness (enclosure of point results), lattice laws,
//! and propagation solution preservation. One HC4 revision's solution
//! preservation is tested next to the revision routine, in `compile.rs`.

use adpm_constraint::expr::{cst, var};
use adpm_constraint::{
    minimal_conflict_set, propagate, subset_conflicts, ConstraintId, ConstraintNetwork, Domain,
    Interval, PropagationConfig, Property, PropertyId, Relation, Value,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A small, well-behaved interval strategy: finite bounds in [-50, 50].
fn interval() -> impl Strategy<Value = (Interval, f64)> {
    (-50.0f64..50.0, -50.0f64..50.0, 0.0f64..1.0).prop_map(|(a, b, t)| {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let point = lo + (hi - lo) * t;
        (Interval::new(lo, hi), point)
    })
}

proptest! {
    #[test]
    fn add_encloses_point_results(((ia, xa), (ib, xb)) in (interval(), interval())) {
        let sum = ia + ib;
        prop_assert!(sum.contains(xa + xb));
    }

    #[test]
    fn sub_encloses_point_results(((ia, xa), (ib, xb)) in (interval(), interval())) {
        prop_assert!((ia - ib).contains(xa - xb));
    }

    #[test]
    fn mul_encloses_point_results(((ia, xa), (ib, xb)) in (interval(), interval())) {
        let prod = ia * ib;
        let point = xa * xb;
        // Guard against the representable-rounding edge at the bounds.
        prop_assert!(
            prod.contains(point)
                || (point - prod.lo()).abs() < 1e-9
                || (point - prod.hi()).abs() < 1e-9
        );
    }

    #[test]
    fn div_encloses_point_results(((ia, xa), (ib, xb)) in (interval(), interval())) {
        prop_assume!(!ib.contains(0.0));
        let quot = ia / ib;
        let point = xa / xb;
        prop_assert!(
            quot.contains(point)
                || (point - quot.lo()).abs() < 1e-9
                || (point - quot.hi()).abs() < 1e-9
        );
    }

    #[test]
    fn unary_ops_enclose_point_results((ia, xa) in interval()) {
        prop_assert!(ia.neg().contains(-xa));
        prop_assert!(ia.abs().contains(xa.abs()));
        let sq = ia.powi(2);
        prop_assert!(sq.contains(xa * xa) || (xa * xa - sq.hi()).abs() < 1e-9);
        if xa >= 0.0 {
            prop_assert!(ia.sqrt().contains(xa.sqrt()));
        }
    }

    #[test]
    fn exp_encloses_point_results((ia, xa) in interval()) {
        let e = ia.exp();
        let p = xa.exp();
        prop_assert!(e.contains(p) || (p - e.hi()).abs() / p.max(1.0) < 1e-9);
    }

    #[test]
    fn intersection_is_contained_in_both(((ia, _), (ib, _)) in (interval(), interval())) {
        let meet = ia.intersect(&ib);
        prop_assert!(ia.contains_interval(&meet));
        prop_assert!(ib.contains_interval(&meet));
    }

    #[test]
    fn hull_contains_both(((ia, _), (ib, _)) in (interval(), interval())) {
        let join = ia.hull(&ib);
        prop_assert!(join.contains_interval(&ia));
        prop_assert!(join.contains_interval(&ib));
    }

    #[test]
    fn intersect_hull_absorption(((ia, _), (ib, _)) in (interval(), interval())) {
        // a ∩ (a ∪ b) == a
        prop_assert_eq!(ia.intersect(&ia.hull(&ib)), ia);
    }

    #[test]
    fn min_max_enclose_point_results(((ia, xa), (ib, xb)) in (interval(), interval())) {
        prop_assert!(ia.min(&ib).contains(xa.min(xb)));
        prop_assert!(ia.max(&ib).contains(xa.max(xb)));
    }
}

/// Strategy for a random linear constraint `k_a * x + k_b * y <= c` with a
/// known in-box solution, so propagation must preserve that solution.
fn linear_case() -> impl Strategy<Value = (f64, f64, f64, Interval, Interval, f64, f64)> {
    (
        -5.0f64..5.0,
        -5.0f64..5.0,
        interval(),
        interval(),
        -20.0f64..20.0,
    )
        .prop_map(|(ka, kb, (ix, x), (iy, y), slack)| {
            let c = ka * x + kb * y + slack.abs(); // (x, y) satisfies the constraint
            (ka, kb, c, ix, iy, x, y)
        })
}

proptest! {
    #[test]
    fn propagation_only_narrows_and_preserves_solutions(
        (ka, kb, c, ix, iy, x, y) in linear_case()
    ) {
        prop_assume!(ix.width() > 1e-6 && iy.width() > 1e-6);
        let mut net = ConstraintNetwork::new();
        let px = net
            .add_property(Property::new("x", "o", Domain::Interval(ix)))
            .unwrap();
        let py = net
            .add_property(Property::new("y", "o", Domain::Interval(iy)))
            .unwrap();
        net.add_constraint("lin", cst(ka) * var(px) + cst(kb) * var(py), Relation::Le, cst(c))
            .unwrap();
        let out = propagate(&mut net, &PropagationConfig::default());
        prop_assert!(out.reached_fixpoint);
        prop_assert!(out.conflicts.is_empty());
        // Narrowing only: feasible ⊆ initial.
        let fx = net.feasible(px).enclosing_interval().unwrap();
        let fy = net.feasible(py).enclosing_interval().unwrap();
        prop_assert!(ix.contains_interval(&fx));
        prop_assert!(iy.contains_interval(&fy));
        // Solution preserved (modulo float rounding at the bounds).
        prop_assert!(fx.contains(x) || (x - fx.lo()).abs() < 1e-6 || (x - fx.hi()).abs() < 1e-6);
        prop_assert!(fy.contains(y) || (y - fy.lo()).abs() < 1e-6 || (y - fy.hi()).abs() < 1e-6);
    }

    #[test]
    fn domain_narrowing_is_a_subset(
        (id, _) in interval(),
        values in proptest::collection::vec(-50.0f64..50.0, 0..12)
    ) {
        let d = Domain::number_set(values);
        let narrowed = d.narrow_to_interval(&id);
        if let (Domain::NumberSet(orig), Domain::NumberSet(new)) = (&d, &narrowed) {
            for x in new {
                prop_assert!(orig.contains(x));
                prop_assert!(id.contains(*x));
            }
        } else {
            panic!("expected number sets");
        }
    }

    #[test]
    fn relative_size_is_monotone_under_narrowing((ia, _) in interval(), cut in 0.0f64..1.0) {
        prop_assume!(ia.width() > 1e-9);
        let init = Domain::Interval(ia);
        let cut_hi = ia.lo() + ia.width() * cut;
        let narrowed = init.narrow_to_interval(&Interval::new(ia.lo(), cut_hi));
        let r = narrowed.relative_size(&init);
        prop_assert!((0.0..=1.0).contains(&r));
        prop_assert!((r - cut).abs() < 1e-6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Randomized mini-networks: propagation terminates at a fixed point and
    /// statuses are consistent with the narrowed box.
    #[test]
    fn random_chain_networks_reach_fixpoint(
        bounds in proptest::collection::vec((0.0f64..10.0, 10.0f64..30.0), 2..8),
        caps in proptest::collection::vec(5.0f64..40.0, 1..8)
    ) {
        let mut net = ConstraintNetwork::new();
        let ids: Vec<PropertyId> = bounds
            .iter()
            .enumerate()
            .map(|(i, (lo, hi))| {
                net.add_property(Property::new(format!("x{i}"), "o", Domain::interval(*lo, *hi)))
                    .unwrap()
            })
            .collect();
        // Chain constraints x_i <= x_{i+1} plus random caps on x_0.
        for w in ids.windows(2) {
            net.add_constraint("ord", var(w[0]), Relation::Le, var(w[1])).unwrap();
        }
        for (i, cap) in caps.iter().enumerate() {
            let pid = ids[i % ids.len()];
            net.add_constraint(format!("cap{i}"), var(pid), Relation::Le, cst(*cap)).unwrap();
        }
        let out = propagate(&mut net, &PropagationConfig::default());
        prop_assert!(out.reached_fixpoint);
        for pid in &ids {
            let init = net.property(*pid).initial_domain().enclosing_interval().unwrap();
            let feas = net.feasible(*pid).enclosing_interval().unwrap();
            prop_assert!(init.contains_interval(&feas) || feas.is_empty());
        }
    }

    /// Deletion-based MCS reduction (the unit negotiation argues about):
    /// the reduced set still conflicts under the first-principles subset
    /// test, and removing any single member makes it consistent — i.e.
    /// the result really is *minimal*, not just *small*.
    #[test]
    fn minimal_conflict_sets_conflict_and_are_minimal(
        bounds in proptest::collection::vec((0.0f64..10.0, 10.0f64..30.0), 2..8),
        caps in proptest::collection::vec(5.0f64..40.0, 1..8),
        binds in proptest::collection::vec(-0.5f64..1.0, 8..9)
    ) {
        let mut net = ConstraintNetwork::new();
        let ids: Vec<PropertyId> = bounds
            .iter()
            .enumerate()
            .map(|(i, (lo, hi))| {
                net.add_property(Property::new(format!("x{i}"), "o", Domain::interval(*lo, *hi)))
                    .unwrap()
            })
            .collect();
        // The same chain + caps shape as above, plus bindings: a random
        // subset of properties committed somewhere in their declared
        // range, which routinely violates the low caps and orderings.
        for w in ids.windows(2) {
            net.add_constraint("ord", var(w[0]), Relation::Le, var(w[1])).unwrap();
        }
        for (i, cap) in caps.iter().enumerate() {
            let pid = ids[i % ids.len()];
            net.add_constraint(format!("cap{i}"), var(pid), Relation::Le, cst(*cap)).unwrap();
        }
        // A negative draw leaves the property unbound, so every run mixes
        // committed and open decisions.
        for (i, pid) in ids.iter().enumerate() {
            let frac = binds[i];
            if frac >= 0.0 {
                let (lo, hi) = bounds[i];
                net.bind(*pid, Value::number(lo + frac * (hi - lo))).unwrap();
            }
        }
        net.evaluate_statuses();
        for seed in net.violated_constraints() {
            let Some(mcs) = minimal_conflict_set(&net, seed) else { continue };
            let members: BTreeSet<ConstraintId> = mcs.members.iter().copied().collect();
            prop_assert!(!members.is_empty(), "an MCS cannot be empty");
            prop_assert!(
                subset_conflicts(&net, &members),
                "the reduced set must still conflict on its own"
            );
            for cid in &mcs.members {
                let mut without = members.clone();
                without.remove(cid);
                prop_assert!(
                    !subset_conflicts(&net, &without),
                    "removing any single member must make the set consistent"
                );
            }
        }
    }
}
