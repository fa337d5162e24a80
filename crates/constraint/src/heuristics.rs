//! Mining constraint results into heuristic support data (paper §2.3).
//!
//! ADPM does not hand designers raw constraint dumps; it consolidates the
//! propagation results "into data that explicitly supports heuristics".
//! [`HeuristicReport::mine`] produces, per property:
//!
//! * the feasible-subspace size relative to `E_i` (for the
//!   *smallest-feasible-subspace-first* heuristic, §2.3.1),
//! * `β_i`, the number of connected constraints (§2.3.2),
//! * `α_i`, the number of connected violations (§2.3.3, Eq. 3),
//! * the per-violation help directions and the majority repair direction
//!   (for the direction-aware repair heuristic of §3.1.1).

use crate::ids::{ConstraintId, PropertyId};
use crate::monotone::helps_direction;
use crate::network::{ConstraintNetwork, HelpsDirection};

/// Heuristic support data for one property.
#[derive(Debug, Clone, PartialEq)]
pub struct PropertyInsight {
    /// The property this insight describes.
    pub property: PropertyId,
    /// `α_i`: number of violated constraints involving the property (Eq. 3).
    pub alpha: usize,
    /// `β_i`: number of constraints involving the property.
    pub beta: usize,
    /// The §2.3.2 extension of `β_i`: constraints related directly or
    /// through one intermediate constraint (two hops).
    pub beta_indirect: usize,
    /// Size of `v_F(a_i)` relative to `E_i`, in `[0, 1]`.
    /// Zero means the feasible subspace is empty.
    pub feasible_relative_size: f64,
    /// Whether the property currently holds a bound value.
    pub bound: bool,
    /// For each *violated* constraint involving the property, the direction
    /// that helps satisfy it (when the constraint is monotonic in it).
    pub violation_directions: Vec<(ConstraintId, HelpsDirection)>,
    /// Majority vote over [`violation_directions`](Self::violation_directions):
    /// the single move most likely to fix many violations at once, or
    /// `None` on a tie or when no direction is known.
    pub repair_direction: Option<HelpsDirection>,
    /// How many violations the majority direction is expected to help fix.
    pub repair_support: usize,
}

/// The consolidated heuristic support data for a whole network.
///
/// # Examples
///
/// ```
/// use adpm_constraint::{ConstraintNetwork, Property, Domain, Relation,
///                       HeuristicReport, expr::{var, cst}};
/// # fn main() -> Result<(), adpm_constraint::NetworkError> {
/// let mut net = ConstraintNetwork::new();
/// let w = net.add_property(Property::new("Diff-pair-W", "LNA+Mixer",
///                                         Domain::interval(0.5, 10.0)))?;
/// net.add_constraint("power", var(w) * cst(20.0), Relation::Le, cst(200.0))?;
/// net.add_constraint("gain", var(w) * cst(16.0), Relation::Ge, cst(48.0))?;
/// net.evaluate_statuses();
/// let report = HeuristicReport::mine(&net);
/// assert_eq!(report.insight(w).beta, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HeuristicReport {
    insights: Vec<PropertyInsight>,
}

impl HeuristicReport {
    /// Mines the network's current statuses and feasible subspaces into
    /// per-property heuristic data. Call after
    /// [`propagate`](fn@crate::propagate) (ADPM) or after explicit status
    /// updates (conventional flow).
    ///
    /// Only the per-operation state is read afresh: statuses, feasible
    /// sizes and the directions of violated constraints. The structural
    /// inputs — two-hop `β` and each constraint's gap derivatives — are
    /// computed once per network structure and cached by the network.
    pub fn mine(net: &ConstraintNetwork) -> Self {
        let insights = net
            .property_ids()
            .map(|pid| {
                let alpha = net.alpha(pid);
                let beta = net.beta(pid);
                let beta_indirect = net.beta_indirect(pid);
                let feasible_relative_size = net
                    .feasible(pid)
                    .relative_size(net.property(pid).initial_domain());
                let mut violation_directions = Vec::new();
                for cid in net.constraints_of(pid) {
                    if net.status(*cid).is_violated() {
                        if let Some(dir) = helps_direction(net, *cid, pid) {
                            violation_directions.push((*cid, dir));
                        }
                    }
                }
                let (repair_direction, repair_support) = majority(&violation_directions);
                PropertyInsight {
                    property: pid,
                    alpha,
                    beta,
                    beta_indirect,
                    feasible_relative_size,
                    bound: net.is_bound(pid),
                    violation_directions,
                    repair_direction,
                    repair_support,
                }
            })
            .collect();
        HeuristicReport { insights }
    }

    /// The insight for one property.
    ///
    /// # Panics
    ///
    /// Panics if `pid` does not belong to the mined network.
    pub fn insight(&self, pid: PropertyId) -> &PropertyInsight {
        &self.insights[pid.index()]
    }

    /// All insights, ordered by property id.
    pub fn insights(&self) -> &[PropertyInsight] {
        &self.insights
    }

    /// Orders `candidates` for the §2.3.1 heuristic: smallest feasible
    /// subspace first (relative to `E_i`; ties keep input order so callers
    /// can break them with their own RNG, as the paper prescribes).
    pub fn rank_by_smallest_feasible(&self, candidates: &[PropertyId]) -> Vec<PropertyId> {
        let mut out = candidates.to_vec();
        out.sort_by(|a, b| {
            let sa = self.insight(*a).feasible_relative_size;
            let sb = self.insight(*b).feasible_relative_size;
            sa.partial_cmp(&sb).expect("relative sizes are finite")
        });
        out
    }

    /// Orders `candidates` for the §2.3.2 heuristic: most connected
    /// constraints (`β`) first.
    pub fn rank_by_beta(&self, candidates: &[PropertyId]) -> Vec<PropertyId> {
        let mut out = candidates.to_vec();
        out.sort_by_key(|pid| std::cmp::Reverse(self.insight(*pid).beta));
        out
    }

    /// Orders `candidates` by the extended `β` (two-hop constraint
    /// connectivity), most connected first — the §2.3.2 extension.
    pub fn rank_by_beta_indirect(&self, candidates: &[PropertyId]) -> Vec<PropertyId> {
        let mut out = candidates.to_vec();
        out.sort_by_key(|pid| std::cmp::Reverse(self.insight(*pid).beta_indirect));
        out
    }

    /// Orders `candidates` for the §2.3.3 repair heuristic: most connected
    /// violations (`α`) first, breaking `α` ties in favour of properties
    /// with a known majority repair direction (direction-aware repair,
    /// §3.1.1), then by higher support.
    pub fn rank_by_alpha(&self, candidates: &[PropertyId]) -> Vec<PropertyId> {
        let mut out = candidates.to_vec();
        out.sort_by_key(|pid| {
            let ins = self.insight(*pid);
            (
                std::cmp::Reverse(ins.alpha),
                std::cmp::Reverse(ins.repair_support),
                ins.repair_direction.is_none(),
            )
        });
        out
    }

    /// The ids of properties connected to at least one violation, most
    /// violations first.
    pub fn conflicted_properties(&self) -> Vec<PropertyId> {
        let conflicted: Vec<PropertyId> = self
            .insights
            .iter()
            .filter(|ins| ins.alpha > 0)
            .map(|ins| ins.property)
            .collect();
        self.rank_by_alpha(&conflicted)
    }
}

fn majority(directions: &[(ConstraintId, HelpsDirection)]) -> (Option<HelpsDirection>, usize) {
    let ups = directions
        .iter()
        .filter(|(_, d)| *d == HelpsDirection::Up)
        .count();
    let downs = directions.len() - ups;
    match ups.cmp(&downs) {
        std::cmp::Ordering::Greater => (Some(HelpsDirection::Up), ups),
        std::cmp::Ordering::Less => (Some(HelpsDirection::Down), downs),
        std::cmp::Ordering::Equal => (None, 0),
    }
}

/// The uncached mining, the test oracle for the structure caches: a fresh
/// `BTreeSet` walk for each property's two-hop `β` and the uncached
/// [`reference_helps_direction`](crate::monotone::reference_helps_direction).
#[cfg(test)]
pub(crate) fn reference_mine(net: &ConstraintNetwork) -> HeuristicReport {
    use crate::monotone::reference_helps_direction;

    let insights = net
        .property_ids()
        .map(|pid| {
            let mut violation_directions = Vec::new();
            for cid in net.constraints_of(pid) {
                if net.status(*cid).is_violated() {
                    if let Some(dir) = reference_helps_direction(net, *cid, pid) {
                        violation_directions.push((*cid, dir));
                    }
                }
            }
            let (repair_direction, repair_support) = majority(&violation_directions);
            PropertyInsight {
                property: pid,
                alpha: net.alpha(pid),
                beta: net.beta(pid),
                beta_indirect: reference_beta_extended(net, pid, 2),
                feasible_relative_size: net
                    .feasible(pid)
                    .relative_size(net.property(pid).initial_domain()),
                bound: net.is_bound(pid),
                violation_directions,
                repair_direction,
                repair_support,
            }
        })
        .collect();
    HeuristicReport { insights }
}

/// [`ConstraintNetwork::beta_extended`] as a `BTreeSet` walk.
#[cfg(test)]
pub(crate) fn reference_beta_extended(
    net: &ConstraintNetwork,
    id: PropertyId,
    depth: usize,
) -> usize {
    if depth == 0 {
        return 0;
    }
    let mut seen: std::collections::BTreeSet<ConstraintId> =
        net.constraints_of(id).iter().copied().collect();
    let mut frontier: Vec<ConstraintId> = seen.iter().copied().collect();
    for _ in 1..depth {
        let mut next = Vec::new();
        for cid in frontier.drain(..) {
            for arg in net.constraint(cid).argument_slice() {
                for dep in net.constraints_of(*arg) {
                    if seen.insert(*dep) {
                        next.push(*dep);
                    }
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    seen.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Relation;
    use crate::domain::Domain;
    use crate::expr::{cst, var};
    use crate::network::Property;
    use crate::propagate::{propagate, PropagationConfig};
    use crate::value::Value;

    /// A small two-violation setup modelled on the paper's §2.4 story:
    /// the differential-pair width appears in power (<=), gain (>=) and
    /// impedance (>=) constraints; with a too-small width both gain and
    /// impedance are violated and the majority direction is Up.
    fn lna_like() -> (ConstraintNetwork, PropertyId) {
        let mut net = ConstraintNetwork::new();
        let w = net
            .add_property(Property::new(
                "Diff-pair-W",
                "LNA+Mixer",
                Domain::interval(0.5, 10.0),
            ))
            .unwrap();
        net.add_constraint("power", var(w) * cst(10.0), Relation::Le, cst(200.0))
            .unwrap();
        net.add_constraint("gain", var(w) * cst(16.0), Relation::Ge, cst(48.0))
            .unwrap();
        net.add_constraint("zin", var(w) * cst(20.0), Relation::Ge, cst(50.0))
            .unwrap();
        net.bind(w, Value::number(1.0)).unwrap();
        net.evaluate_statuses();
        (net, w)
    }

    #[test]
    fn alpha_beta_and_directions_for_conflicted_property() {
        let (net, w) = lna_like();
        let report = HeuristicReport::mine(&net);
        let ins = report.insight(w);
        assert_eq!(ins.beta, 3);
        assert_eq!(ins.alpha, 2); // gain (16 < 48) and zin (20 < 50)
        assert!(ins.bound);
        assert_eq!(ins.violation_directions.len(), 2);
        assert_eq!(ins.repair_direction, Some(HelpsDirection::Up));
        assert_eq!(ins.repair_support, 2);
    }

    #[test]
    fn feasible_relative_size_tracks_propagation() {
        let mut net = ConstraintNetwork::new();
        let x = net
            .add_property(Property::new("x", "o", Domain::interval(0.0, 10.0)))
            .unwrap();
        net.add_constraint("cap", var(x), Relation::Le, cst(2.0))
            .unwrap();
        propagate(&mut net, &PropagationConfig::default());
        let report = HeuristicReport::mine(&net);
        assert!((report.insight(x).feasible_relative_size - 0.2).abs() < 1e-9);
    }

    #[test]
    fn rank_by_smallest_feasible_orders_ascending() {
        let mut net = ConstraintNetwork::new();
        let a = net
            .add_property(Property::new("a", "o", Domain::interval(0.0, 10.0)))
            .unwrap();
        let b = net
            .add_property(Property::new("b", "o", Domain::interval(0.0, 10.0)))
            .unwrap();
        net.add_constraint("ca", var(a), Relation::Le, cst(1.0))
            .unwrap();
        net.add_constraint("cb", var(b), Relation::Le, cst(8.0))
            .unwrap();
        propagate(&mut net, &PropagationConfig::default());
        let report = HeuristicReport::mine(&net);
        assert_eq!(report.rank_by_smallest_feasible(&[b, a]), vec![a, b]);
    }

    #[test]
    fn unbounded_initial_ranges_rank_without_panicking() {
        let mut net = ConstraintNetwork::new();
        let open = net
            .add_property(Property::new(
                "open",
                "o",
                Domain::interval(0.0, f64::INFINITY),
            ))
            .unwrap();
        let capped = net
            .add_property(Property::new("capped", "o", Domain::interval(0.0, 10.0)))
            .unwrap();
        net.add_constraint("floor", var(open), Relation::Ge, cst(1.0))
            .unwrap();
        net.add_constraint("cap", var(capped), Relation::Le, cst(5.0))
            .unwrap();
        propagate(&mut net, &PropagationConfig::default());
        let report = HeuristicReport::mine(&net);
        assert_eq!(report.insight(open).feasible_relative_size, 1.0);
        assert_eq!(
            report.rank_by_smallest_feasible(&[open, capped]),
            vec![capped, open]
        );
    }

    #[test]
    fn rank_by_beta_orders_descending() {
        let mut net = ConstraintNetwork::new();
        let a = net
            .add_property(Property::new("a", "o", Domain::interval(0.0, 10.0)))
            .unwrap();
        let b = net
            .add_property(Property::new("b", "o", Domain::interval(0.0, 10.0)))
            .unwrap();
        net.add_constraint("c1", var(a) + var(b), Relation::Le, cst(5.0))
            .unwrap();
        net.add_constraint("c2", var(a), Relation::Ge, cst(1.0))
            .unwrap();
        net.evaluate_statuses();
        let report = HeuristicReport::mine(&net);
        assert_eq!(report.rank_by_beta(&[b, a]), vec![a, b]);
    }

    #[test]
    fn beta_indirect_extends_beta_through_intermediates() {
        let mut net = ConstraintNetwork::new();
        let a = net
            .add_property(Property::new("a", "o", Domain::interval(0.0, 10.0)))
            .unwrap();
        let b = net
            .add_property(Property::new("b", "o", Domain::interval(0.0, 10.0)))
            .unwrap();
        let c = net
            .add_property(Property::new("c", "o", Domain::interval(0.0, 10.0)))
            .unwrap();
        let d = net
            .add_property(Property::new("d", "o", Domain::interval(0.0, 10.0)))
            .unwrap();
        net.add_constraint("ab", var(a), Relation::Le, var(b))
            .unwrap();
        net.add_constraint("bc", var(b), Relation::Le, var(c))
            .unwrap();
        net.add_constraint("cd", var(c), Relation::Le, var(d))
            .unwrap();
        net.evaluate_statuses();
        let report = HeuristicReport::mine(&net);
        // a touches `ab` directly and `bc` through b.
        assert_eq!(report.insight(a).beta, 1);
        assert_eq!(report.insight(a).beta_indirect, 2);
        // b reaches all three constraints within two hops.
        assert_eq!(report.insight(b).beta_indirect, 3);
        assert_eq!(report.rank_by_beta_indirect(&[a, b]), vec![b, a]);
    }

    #[test]
    fn rank_by_alpha_prefers_direction_aware_properties() {
        let mut net = ConstraintNetwork::new();
        let a = net
            .add_property(Property::new("a", "o", Domain::interval(0.0, 10.0)))
            .unwrap();
        let b = net
            .add_property(Property::new("b", "o", Domain::interval(0.0, 10.0)))
            .unwrap();
        // Both properties sit in exactly one violated constraint, but only
        // a's constraint is monotonic (b's is a V-shaped band, for which
        // even the sampling fallback finds no single helpful direction).
        net.add_constraint("mono", var(a), Relation::Ge, cst(8.0))
            .unwrap();
        net.add_constraint("band", (var(b) - cst(5.0)).abs(), Relation::Le, cst(0.25))
            .unwrap();
        net.bind(a, Value::number(1.0)).unwrap();
        net.bind(b, Value::number(1.0)).unwrap();
        net.evaluate_statuses();
        let report = HeuristicReport::mine(&net);
        assert_eq!(report.insight(a).alpha, 1);
        assert_eq!(report.insight(b).alpha, 1);
        assert_eq!(report.rank_by_alpha(&[b, a]), vec![a, b]);
    }

    #[test]
    fn conflicted_properties_lists_only_alpha_positive() {
        let (net, w) = lna_like();
        let report = HeuristicReport::mine(&net);
        assert_eq!(report.conflicted_properties(), vec![w]);
    }

    #[test]
    fn majority_vote_tie_yields_none() {
        let mut net = ConstraintNetwork::new();
        let x = net
            .add_property(Property::new("x", "o", Domain::interval(0.0, 10.0)))
            .unwrap();
        // Violate both a floor and a ceiling around an impossible band:
        // x >= 8 (up helps) and x <= 2 (down helps).
        net.add_constraint("floor", var(x), Relation::Ge, cst(8.0))
            .unwrap();
        net.add_constraint("ceil", var(x), Relation::Le, cst(2.0))
            .unwrap();
        net.bind(x, Value::number(5.0)).unwrap();
        net.evaluate_statuses();
        let report = HeuristicReport::mine(&net);
        let ins = report.insight(x);
        assert_eq!(ins.alpha, 2);
        assert_eq!(ins.repair_direction, None);
        assert_eq!(ins.repair_support, 0);
    }

    #[test]
    fn unconflicted_network_has_empty_directions() {
        let mut net = ConstraintNetwork::new();
        let x = net
            .add_property(Property::new("x", "o", Domain::interval(0.0, 10.0)))
            .unwrap();
        net.add_constraint("cap", var(x), Relation::Le, cst(9.0))
            .unwrap();
        net.evaluate_statuses();
        let report = HeuristicReport::mine(&net);
        assert_eq!(report.insight(x).alpha, 0);
        assert!(report.insight(x).violation_directions.is_empty());
        assert!(report.conflicted_properties().is_empty());
    }

    /// SplitMix64: a seeded stream for the generated networks below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * self.unit()
        }
    }

    fn add_random_property(net: &mut ConstraintNetwork, rng: &mut Rng) -> PropertyId {
        let i = net.property_count();
        let lo = rng.range(0.1, 1.0);
        // A few open-ended ranges exercise the unbounded relative size.
        let hi = if rng.below(40) == 0 {
            f64::INFINITY
        } else {
            rng.range(10.0, 50.0)
        };
        net.add_property(Property::new(
            format!("p{i}"),
            format!("sub{}", i % 8),
            Domain::interval(lo, hi),
        ))
        .unwrap()
    }

    /// Adds one random constraint over `net`'s properties: linear sums,
    /// non-linear terms (products, quotients, roots, powers), kinked terms
    /// (`abs`, `min`, `max`) and the occasional equality; some are soft and
    /// some carry declared directions.
    fn add_random_constraint(net: &mut ConstraintNetwork, rng: &mut Rng) -> ConstraintId {
        let n = net.property_count();
        let pick = |rng: &mut Rng| var(PropertyId::new(rng.below(n) as u32));
        let (a, b, c) = (pick(rng), pick(rng), pick(rng));
        let k = rng.range(1.0, 60.0);
        let (lhs, rhs) = match rng.below(10) {
            0 | 1 => (a + b * cst(rng.range(0.5, 3.0)), cst(k)),
            2 => (a + b + c, cst(k)),
            3 => (a * b, cst(k)),
            4 => (cst(k) / a, b + cst(1.0)),
            5 => (a.sqrt() + b.powi(2), c * cst(2.0)),
            6 => ((a - cst(k / 4.0)).abs(), cst(rng.range(0.5, 5.0))),
            7 => (a.max(b), c + cst(rng.range(0.0, 5.0))),
            8 => (a.min(b) * cst(2.0), cst(k)),
            _ => (a - b.ln(), c),
        };
        let rel = match rng.below(9) {
            0..=3 => Relation::Le,
            4..=6 => Relation::Ge,
            7 => Relation::Lt,
            _ => Relation::Eq,
        };
        let name = format!("c{}", net.constraint_count());
        let cid = net.add_constraint(name, lhs, rel, rhs).unwrap();
        if rng.below(4) == 0 {
            net.set_constraint_soft(cid, true).unwrap();
        }
        let args = net.constraint(cid).arguments();
        if rng.below(6) == 0 {
            let dir = if rng.below(2) == 0 {
                HelpsDirection::Up
            } else {
                HelpsDirection::Down
            };
            net.declare_monotonic(cid, args[rng.below(args.len())], dir)
                .unwrap();
        }
        cid
    }

    fn random_net(rng: &mut Rng, props: usize, constraints: usize) -> ConstraintNetwork {
        let mut net = ConstraintNetwork::new();
        for _ in 0..props {
            add_random_property(&mut net, rng);
        }
        for _ in 0..constraints {
            add_random_constraint(&mut net, rng);
        }
        net
    }

    /// `mine` and `helps_direction` agree with the uncached reference on
    /// every pair, and `beta_extended` with the `BTreeSet` walk. Returns
    /// the number of violation directions mined.
    fn assert_matches_reference(net: &ConstraintNetwork) -> usize {
        let report = HeuristicReport::mine(net);
        assert_eq!(report, reference_mine(net));
        for cid in net.constraint_ids() {
            for pid in net.constraint(cid).argument_slice() {
                assert_eq!(
                    helps_direction(net, cid, *pid),
                    crate::monotone::reference_helps_direction(net, cid, *pid),
                    "{cid:?} in {pid:?}"
                );
            }
        }
        for pid in net.property_ids() {
            for depth in 0..4 {
                assert_eq!(
                    net.beta_extended(pid, depth),
                    reference_beta_extended(net, pid, depth)
                );
            }
        }
        report
            .insights()
            .iter()
            .map(|ins| ins.violation_directions.len())
            .sum()
    }

    /// Mining from cached structure equals the uncached reference after
    /// every step of seeded edit sequences on generated networks.
    #[test]
    fn cached_mining_matches_the_reference_along_seeded_edits() {
        use crate::constraint::Relaxation;
        use crate::propagate::propagate_incremental;
        use adpm_observe::NoopSink;

        let config = PropagationConfig::default();
        let (mut directions, mut relaxed) = (0, 0);
        for seed in 0..4u64 {
            let mut rng = Rng(seed);
            let mut net = random_net(&mut rng, 110, 100);
            propagate(&mut net, &config);
            assert_matches_reference(&net);
            for _ in 0..30 {
                let mut dirty = Vec::new();
                match rng.below(10) {
                    0..=3 => {
                        let pid = PropertyId::new(rng.below(net.property_count()) as u32);
                        let iv = net
                            .property(pid)
                            .initial_domain()
                            .enclosing_interval()
                            .unwrap();
                        let hi = if iv.hi().is_finite() { iv.hi() } else { 100.0 };
                        net.bind(pid, Value::number(rng.range(iv.lo(), hi)))
                            .unwrap();
                        dirty.push(pid);
                    }
                    4 => {
                        let bound: Vec<PropertyId> =
                            net.property_ids().filter(|p| net.is_bound(*p)).collect();
                        if !bound.is_empty() {
                            net.unbind(bound[rng.below(bound.len())]).unwrap();
                        }
                    }
                    5 | 6 => {
                        let cid = ConstraintId::new(rng.below(net.constraint_count()) as u32);
                        let relaxation = if net.constraint(cid).is_soft() {
                            Relaxation::Drop
                        } else {
                            Relaxation::WidenBound {
                                slack: rng.range(0.5, 10.0),
                            }
                        };
                        // Widening an equality is refused; the network is
                        // unchanged then, which the oracle checks as well.
                        relaxed += net.relax_constraint(cid, relaxation).is_ok() as usize;
                    }
                    7 => {
                        add_random_constraint(&mut net, &mut rng);
                    }
                    8 => {
                        add_random_property(&mut net, &mut rng);
                        add_random_constraint(&mut net, &mut rng);
                    }
                    _ => {
                        // A clone shares the caches; mining it must not
                        // disturb the original's.
                        let clone = net.clone();
                        directions += assert_matches_reference(&clone);
                    }
                }
                if rng.below(2) == 0 {
                    propagate(&mut net, &config);
                } else {
                    propagate_incremental(&mut net, &dirty, &config, &NoopSink);
                }
                directions += assert_matches_reference(&net);
            }
        }
        // The sequences must actually exercise directions and relaxations.
        assert!(directions > 500, "only {directions} violation directions");
        assert!(relaxed > 10, "only {relaxed} relaxations");
    }
}
