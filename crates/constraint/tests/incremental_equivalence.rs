//! Property-based equivalence suite for region propagation: on randomized
//! networks driven by randomized edit sequences — binds, rebinds, binds
//! outside the feasible subspace, unbinds, relaxations and out-of-band
//! status overwrites — [`propagate_incremental`] must reach exactly the
//! fixed point, statuses and narrowed set of an *uncapped* from-scratch
//! [`propagate`], bit for bit, whatever the dirty set it is handed: the
//! network's own dirty tracking supplies anything the caller omits.

use adpm_constraint::expr::{cst, var};
use adpm_constraint::{
    propagate, propagate_incremental, ConstraintId, ConstraintNetwork, ConstraintStatus, Domain,
    PropagationConfig, PropagationKind, PropagationOutcome, Property, PropertyId, Relation,
    Relaxation, Value,
};
use adpm_observe::NoopSink;
use proptest::prelude::*;

/// One randomized edit. `slot` picks a property (or a constraint) modulo
/// the network's size; `t` places a value as a fraction of a range.
#[derive(Debug, Clone)]
enum Edit {
    /// Bind anywhere in `E_i` (possibly infeasible by now).
    Bind {
        slot: usize,
        t: f64,
    },
    /// Bind an already bound property to a new value.
    Rebind {
        slot: usize,
        t: f64,
    },
    /// Bind to a value in `E_i` but outside the current feasible subspace.
    OutOfFeasible {
        slot: usize,
        t: f64,
    },
    Unbind {
        slot: usize,
    },
    /// Widen a constraint's bound by `t * 10` (drop it when soft).
    Relax {
        slot: usize,
        t: f64,
    },
    /// Overwrite a stored status, as the conventional flow's verify does.
    SetStatus {
        slot: usize,
        status: u8,
    },
}

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    proptest::collection::vec(
        (0usize..8, 0.0f64..1.0, 0u32..10).prop_map(|(slot, t, kind)| match kind {
            0 => Edit::Unbind { slot },
            1 => Edit::Rebind { slot, t },
            2 => Edit::OutOfFeasible { slot, t },
            3 => Edit::Relax { slot, t },
            4 => Edit::SetStatus {
                slot,
                status: (t * 3.0) as u8,
            },
            _ => Edit::Bind { slot, t },
        }),
        1..12,
    )
}

/// The chain shape: interval properties chained by `<=` constraints, plus
/// random caps, a two-term sum so revisions fan out through shared
/// constraints, and the wide constraints of [`add_wide`].
fn build_network(bounds: &[(f64, f64)], caps: &[f64]) -> ConstraintNetwork {
    let mut net = ConstraintNetwork::new();
    let ids: Vec<PropertyId> = bounds
        .iter()
        .enumerate()
        .map(|(i, (lo, hi))| {
            net.add_property(Property::new(
                format!("x{i}"),
                "o",
                Domain::interval(*lo, *hi),
            ))
            .unwrap()
        })
        .collect();
    for w in ids.windows(2) {
        net.add_constraint("ord", var(w[0]), Relation::Le, var(w[1]))
            .unwrap();
    }
    for (i, cap) in caps.iter().enumerate() {
        let pid = ids[i % ids.len()];
        net.add_constraint(format!("cap{i}"), var(pid), Relation::Le, cst(*cap))
            .unwrap();
    }
    net.add_constraint(
        "sum",
        var(ids[0]) + var(ids[ids.len() - 1]),
        Relation::Le,
        cst(45.0),
    )
    .unwrap();
    add_wide(&mut net, &ids, "");
    net
}

/// Constraints over three argument occurrences on `ids` (fewer distinct
/// properties when `ids` is short): a three-term sum, a product bounded by
/// a third property, and a property occurring twice. A region run must
/// load every argument of these, not only the first two.
fn add_wide(net: &mut ConstraintNetwork, ids: &[PropertyId], prefix: &str) {
    let (first, mid, last) = (ids[0], ids[ids.len() / 2], ids[ids.len() - 1]);
    net.add_constraint(
        format!("{prefix}sum3"),
        var(first) + var(mid) + var(last),
        Relation::Le,
        cst(50.0),
    )
    .unwrap();
    net.add_constraint(
        format!("{prefix}prod"),
        var(first) * var(mid),
        Relation::Le,
        cst(20.0) * var(last),
    )
    .unwrap();
    net.add_constraint(
        format!("{prefix}twice"),
        (var(first) + var(last)) * var(first),
        Relation::Le,
        cst(500.0),
    )
    .unwrap();
}

/// The conflicted, kinked shape: two components built from `abs`, `min`
/// and `max` (non-differentiable, so revisions land on kinks), a soft
/// product and the wide constraints of [`add_wide`], and a pair of caps on
/// `y0` that can never both hold, so the network is conflicted before any
/// bind.
fn build_kinked(bounds: &[(f64, f64)], gap: f64) -> ConstraintNetwork {
    let mut net = ConstraintNetwork::new();
    let component = |name: &str, net: &mut ConstraintNetwork| -> Vec<PropertyId> {
        let ids: Vec<PropertyId> = bounds
            .iter()
            .enumerate()
            .map(|(i, (lo, hi))| {
                net.add_property(Property::new(
                    format!("{name}{i}"),
                    name,
                    Domain::interval(*lo, *hi),
                ))
                .unwrap()
            })
            .collect();
        for w in ids.windows(2) {
            net.add_constraint(
                "kink",
                (var(w[0]) - var(w[1])).abs(),
                Relation::Le,
                cst(gap),
            )
            .unwrap();
        }
        let (first, last) = (ids[0], ids[ids.len() - 1]);
        net.add_constraint("max", var(first).max(var(last)), Relation::Ge, cst(12.0))
            .unwrap();
        net.add_constraint("min", var(first).min(var(last)), Relation::Le, cst(9.0))
            .unwrap();
        let product = net
            .add_constraint("prod", var(first) * var(last), Relation::Le, cst(300.0))
            .unwrap();
        net.set_constraint_soft(product, true).unwrap();
        add_wide(net, &ids, name);
        ids
    };
    component("x", &mut net);
    let y = component("y", &mut net);
    net.add_constraint("y-high", var(y[0]), Relation::Ge, cst(20.0))
        .unwrap();
    net.add_constraint("y-low", var(y[0]), Relation::Le, cst(8.0))
        .unwrap();
    net
}

/// An uncapped configuration: the oracle's full runs always reach their
/// fixed point.
fn uncapped() -> PropagationConfig {
    PropagationConfig {
        max_evaluations: usize::MAX,
    }
}

/// Asserts both networks agree bit for bit on every feasible subspace
/// (through `{:?}`, which is exact for `f64` and tells `-0.0` from `0.0`)
/// and every status, and that both runs count the narrowed properties
/// a scan finds.
fn assert_equivalent(
    full: &ConstraintNetwork,
    fo: &PropagationOutcome,
    inc: &ConstraintNetwork,
    io: &PropagationOutcome,
    context: &str,
) -> Result<(), TestCaseError> {
    for pid in full.property_ids() {
        prop_assert_eq!(
            format!("{:?}", full.feasible(pid)),
            format!("{:?}", inc.feasible(pid)),
            "{}: feasible({}) diverged",
            context,
            pid
        );
    }
    for cid in full.constraint_ids() {
        prop_assert_eq!(
            full.status(cid),
            inc.status(cid),
            "{}: status({}) diverged",
            context,
            full.constraint(cid).name()
        );
    }
    // The kept counts equal a scan of the network.
    let narrowed = full
        .property_ids()
        .filter(|p| {
            !full.is_bound(*p)
                && full
                    .feasible(*p)
                    .relative_size(full.property(*p).initial_domain())
                    < 1.0
        })
        .count();
    prop_assert_eq!(
        fo.narrowed,
        narrowed,
        "{}: full run's narrowed count",
        context
    );
    prop_assert_eq!(
        io.narrowed,
        narrowed,
        "{}: region run's narrowed count",
        context
    );
    // A region run lists only its region's conflicts.
    for cid in &io.conflicts {
        prop_assert!(
            fo.conflicts.contains(cid),
            "{}: extra conflict {}",
            context,
            cid
        );
    }
    Ok(())
}

/// An edit resolved against one network's state, to apply to both twins.
#[derive(Debug)]
enum Step {
    Bind(PropertyId, Value),
    Unbind(PropertyId),
    Relax(ConstraintId, Relaxation),
    SetStatus(ConstraintId, ConstraintStatus),
}

/// Resolves `edit` against `net`: the reference network decides which
/// property a rebind hits and where a bind outside the feasible subspace
/// lands.
fn resolve(net: &ConstraintNetwork, edit: &Edit) -> Step {
    let (n, m) = (net.property_count(), net.constraint_count());
    let pid = |slot: usize| PropertyId::new((slot % n) as u32);
    let cid = |slot: usize| ConstraintId::new((slot % m) as u32);
    let at = |lo: f64, hi: f64, t: f64| Value::number(lo + (hi - lo) * t);
    let init = |pid: PropertyId| {
        net.property(pid)
            .initial_domain()
            .enclosing_interval()
            .unwrap()
    };
    match *edit {
        Edit::Bind { slot, t } => {
            let e = init(pid(slot));
            Step::Bind(pid(slot), at(e.lo(), e.hi(), t))
        }
        Edit::Rebind { slot, t } => {
            // The first bound property from `slot` on; a plain bind if none.
            let target = (0..n)
                .map(|k| pid(slot + k))
                .find(|p| net.is_bound(*p))
                .unwrap_or(pid(slot));
            let e = init(target);
            Step::Bind(target, at(e.lo(), e.hi(), t))
        }
        Edit::OutOfFeasible { slot, t } => {
            let target = pid(slot);
            let e = init(target);
            let value = match net.feasible(target).enclosing_interval() {
                Some(f) if f.lo() > e.lo() => at(e.lo(), f.lo(), t * 0.99),
                Some(f) if f.hi() < e.hi() => at(e.hi(), f.hi(), t * 0.99),
                _ => at(e.lo(), e.hi(), t),
            };
            Step::Bind(target, value)
        }
        Edit::Unbind { slot } => Step::Unbind(pid(slot)),
        Edit::Relax { slot, t } => {
            let target = cid(slot);
            let relaxation = if net.constraint(target).is_soft() {
                Relaxation::Drop
            } else {
                Relaxation::WidenBound { slack: 10.0 * t }
            };
            Step::Relax(target, relaxation)
        }
        Edit::SetStatus { slot, status } => {
            let status = match status {
                0 => ConstraintStatus::Violated,
                1 => ConstraintStatus::Satisfied,
                _ => ConstraintStatus::Consistent,
            };
            Step::SetStatus(cid(slot), status)
        }
    }
}

/// Applies `step` to `net`; returns the property it touched, if any.
fn perform(net: &mut ConstraintNetwork, step: &Step) -> Option<PropertyId> {
    match step {
        Step::Bind(pid, value) => {
            net.bind(*pid, value.clone()).unwrap();
            Some(*pid)
        }
        Step::Unbind(pid) => {
            net.unbind(*pid).unwrap();
            Some(*pid)
        }
        Step::Relax(cid, relaxation) => {
            // Widening an equality is refused; both twins refuse alike.
            let _ = net.relax_constraint(*cid, *relaxation);
            None
        }
        Step::SetStatus(cid, status) => {
            net.set_status(*cid, *status);
            None
        }
    }
}

/// Applies the edit sequence to an uncapped full-propagation network and a
/// region twin propagating under `config`, checking equivalence after
/// every run that reached its fixed point, and that a run following a
/// capped one is full. The region call is handed `dirty_of(touched)`.
fn run_sequence(
    mut full: ConstraintNetwork,
    seq: &[Edit],
    config: &PropagationConfig,
    dirty_of: impl Fn(Option<PropertyId>) -> Vec<PropertyId>,
) -> Result<(), TestCaseError> {
    let mut inc = full.clone();
    propagate(&mut full, &uncapped());
    propagate(&mut inc, config);
    let mut capped = false;
    for (step, edit) in seq.iter().enumerate() {
        let resolved = resolve(&full, edit);
        let touched = perform(&mut full, &resolved);
        perform(&mut inc, &resolved);
        let fo = propagate(&mut full, &uncapped());
        let before = inc.clone();
        let io = propagate_incremental(&mut inc, &dirty_of(touched), config, &NoopSink);
        prop_assert!(fo.reached_fixpoint);
        // A run moves feasible subspaces only in its region and statuses
        // only among the constraints it swept, which the DPM's
        // bookkeeping relies on.
        for pid in inc.property_ids().filter(|p| !io.properties.contains(p)) {
            prop_assert_eq!(
                format!("{:?}", before.feasible(pid)),
                format!("{:?}", inc.feasible(pid)),
                "step {}: feasible({}) moved outside the region",
                step,
                pid
            );
        }
        for cid in inc.constraint_ids().filter(|c| !io.swept.contains(c)) {
            prop_assert_eq!(
                before.status(cid),
                inc.status(cid),
                "step {}: status({}) moved outside the sweep",
                step,
                cid
            );
        }
        if capped {
            prop_assert_eq!(
                io.kind,
                PropagationKind::Full,
                "step {}: run after a cap",
                step
            );
        }
        capped = !io.reached_fixpoint;
        if !capped {
            assert_equivalent(
                &full,
                &fo,
                &inc,
                &io,
                &format!("step {step} ({resolved:?})"),
            )?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The honest caller: the dirty set is exactly the edited property.
    #[test]
    fn incremental_matches_full_with_exact_dirty_sets(
        bounds in proptest::collection::vec((0.0f64..10.0, 10.0f64..30.0), 2..8),
        caps in proptest::collection::vec(5.0f64..40.0, 1..6),
        seq in edits(),
    ) {
        let config = PropagationConfig::default();
        run_sequence(build_network(&bounds, &caps), &seq, &config, |p| p.into_iter().collect())?;
    }

    /// A lazy caller passing an empty dirty set must still be correct: the
    /// network's own dirty tracking knows what changed.
    #[test]
    fn incremental_matches_full_with_empty_dirty_sets(
        bounds in proptest::collection::vec((0.0f64..10.0, 10.0f64..30.0), 2..8),
        caps in proptest::collection::vec(5.0f64..40.0, 1..6),
        seq in edits(),
    ) {
        let config = PropagationConfig::default();
        run_sequence(build_network(&bounds, &caps), &seq, &config, |_| Vec::new())?;
    }

    /// An over-eager caller marking a random extra property dirty may cost
    /// more but must compute the same result.
    #[test]
    fn incremental_matches_full_with_extra_dirty_properties(
        bounds in proptest::collection::vec((0.0f64..10.0, 10.0f64..30.0), 2..8),
        caps in proptest::collection::vec(5.0f64..40.0, 1..6),
        seq in edits(),
        extra in 0usize..8,
    ) {
        let n = bounds.len();
        let config = PropagationConfig::default();
        run_sequence(build_network(&bounds, &caps), &seq, &config, move |p| {
            p.into_iter().chain([PropertyId::new((extra % n) as u32)]).collect()
        })?;
    }

    /// The conflicted, kinked shape: conflicts from the start, revisions on
    /// `abs`/`min`/`max` kinks, and two components so regions are proper
    /// parts of the network.
    #[test]
    fn incremental_matches_full_on_conflicted_kinked_networks(
        bounds in proptest::collection::vec((0.0f64..10.0, 10.0f64..30.0), 2..6),
        gap in 0.5f64..6.0,
        seq in edits(),
    ) {
        let config = PropagationConfig::default();
        run_sequence(build_kinked(&bounds, gap), &seq, &config, |p| p.into_iter().collect())?;
    }

    /// Under a cap tight enough to stop some runs, every run that reaches
    /// its fixed point still equals the uncapped full run, and the run
    /// after a capped one is full.
    #[test]
    fn incremental_matches_full_under_a_tight_cap(
        bounds in proptest::collection::vec((0.0f64..10.0, 10.0f64..30.0), 2..6),
        gap in 0.5f64..6.0,
        seq in edits(),
        cap in 16usize..60,
    ) {
        let config = PropagationConfig {
            max_evaluations: cap,
        };
        run_sequence(build_kinked(&bounds, gap), &seq, &config, |p| p.into_iter().collect())?;
    }
}

/// Deterministic spot check: a long alternating bind/unbind/rebind tour of
/// the network, verifying every region run along the way.
#[test]
fn alternating_bind_unbind_tour_stays_equivalent() {
    let bounds = [(0.0, 20.0), (2.0, 25.0), (1.0, 30.0), (0.0, 15.0)];
    let caps = [12.0, 33.0, 9.0];
    let seq: Vec<Edit> = (0..12)
        .map(|i| match i % 3 {
            0 => Edit::Bind {
                slot: i,
                t: 0.3 + 0.05 * i as f64,
            },
            1 => Edit::Rebind {
                slot: i,
                t: 0.9 - 0.05 * i as f64,
            },
            _ => Edit::Unbind { slot: i },
        })
        .collect();
    let config = PropagationConfig::default();
    run_sequence(build_network(&bounds, &caps), &seq, &config, |p| {
        p.into_iter().collect()
    })
    .unwrap();
}

/// A capped region run leaves the network unclean: it reports
/// `reached_fixpoint: false`, and the next request runs full and lands on
/// the uncapped fixed point.
#[test]
fn capped_region_run_forces_the_next_run_full() {
    let bounds = [(0.0, 20.0), (2.0, 25.0), (1.0, 30.0), (0.0, 15.0)];
    let mut full = build_kinked(&bounds, 2.0);
    let mut inc = full.clone();
    let config = PropagationConfig::default();
    propagate(&mut inc, &config);
    let x0 = PropertyId::new(0);
    full.bind(x0, Value::number(14.0)).unwrap();
    inc.bind(x0, Value::number(14.0)).unwrap();

    // The region of x0 is its whole component, nine constraints; a cap of
    // ten leaves the worklist one revision.
    let tight = PropagationConfig {
        max_evaluations: 10,
    };
    let capped = propagate_incremental(&mut inc, &[x0], &tight, &NoopSink);
    assert_eq!(capped.kind, PropagationKind::Incremental);
    assert_eq!(capped.seeded, 9);
    assert!(!capped.reached_fixpoint);
    assert_eq!(capped.evaluations, 10);

    let next = propagate_incremental(&mut inc, &[], &config, &NoopSink);
    assert_eq!(next.kind, PropagationKind::Full);
    assert!(next.reached_fixpoint);
    let fo = propagate(&mut full, &uncapped());
    assert_equivalent(&full, &fo, &inc, &next, "after the capped run").unwrap();
    assert_eq!(next.conflicts, fo.conflicts);

    let again = propagate_incremental(&mut inc, &[], &config, &NoopSink);
    assert_eq!(again.kind, PropagationKind::Incremental);
}
