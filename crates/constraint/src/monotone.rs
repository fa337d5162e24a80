//! Constraint monotonicity analysis.
//!
//! The paper's designer model keeps, for each property, "a list of
//! constraints monotonically increasing in `a_i`, and a list of constraints
//! monotonically decreasing in `a_i`" (§3.1.1), where a constraint is
//! monotonic in `a_i` if moving `a_i`'s value in a given direction *helps
//! satisfy* the requirement the constraint implies.
//!
//! Directions come from two sources, in priority order:
//!
//! 1. **Declarations** — DDDL lets scenario authors state monotonicity
//!    (`monotonic decreasing in resonator length`), mirrored by
//!    [`ConstraintNetwork::declare_monotonic`](crate::ConstraintNetwork::declare_monotonic);
//! 2. **Inference** — the symbolic derivative of the constraint's gap
//!    expression, interval-evaluated over the current box; when the sign is
//!    ambiguous (or the expression has a kink), a sampling fallback checks
//!    whether the gap is monotone along the property's axis. The gap and
//!    its derivatives are built on a constraint's first query and kept with
//!    its compiled program; each query only evaluates them.

use crate::constraint::Relation;
use crate::expr::Expr;
use crate::ids::{ConstraintId, PropertyId};
use crate::interval::Interval;
use crate::network::{ConstraintNetwork, HelpsDirection};

/// Number of sample points per axis used by the sampling fallback.
const SAMPLES: usize = 7;

/// The direction in which moving `pid`'s value helps satisfy `cid`,
/// or `None` if the constraint is not monotonic in the property (or the
/// property is not an argument).
///
/// Declared directions (from DDDL / `declare_monotonic`) take priority over
/// inference.
///
/// # Examples
///
/// ```
/// use adpm_constraint::{ConstraintNetwork, Property, Domain, Relation,
///                       HelpsDirection, helps_direction, expr::{var, cst}};
/// # fn main() -> Result<(), adpm_constraint::NetworkError> {
/// let mut net = ConstraintNetwork::new();
/// let gain = net.add_property(Property::new("gain", "lna", Domain::interval(0.0, 100.0)))?;
/// let c = net.add_constraint("min-gain", var(gain), Relation::Ge, cst(48.0))?;
/// assert_eq!(helps_direction(&net, c, gain), Some(HelpsDirection::Up));
/// # Ok(())
/// # }
/// ```
pub fn helps_direction(
    net: &ConstraintNetwork,
    cid: ConstraintId,
    pid: PropertyId,
) -> Option<HelpsDirection> {
    let constraint = net.constraint(cid);
    let Ok(slot) = constraint.argument_slice().binary_search(&pid) else {
        return None;
    };
    if let Some(declared) = net.declared_monotonic(cid, pid) {
        return Some(declared);
    }
    if constraint.relation() == Relation::Eq {
        // Equality has no satisfying direction; repair must aim at the target.
        return None;
    }

    let form = net.gap_form(cid);
    let gap_trend = if form.kinked {
        sample_trend(net, &form.gap, pid)
    } else {
        derivative_trend(net, form.derivative(slot)).or_else(|| sample_trend(net, &form.gap, pid))
    }?;
    direction_for(constraint.relation(), gap_trend)
}

/// The direction that helps satisfy a `relation` requirement whose gap
/// moves with the property as `gap_trend` says.
fn direction_for(relation: Relation, gap_trend: Trend) -> Option<HelpsDirection> {
    // `gap_trend == Up` means the gap (lhs - rhs) grows as pid grows.
    // For `<=` requirements a smaller gap helps; for `>=` a larger one does.
    let direction = match (relation, gap_trend) {
        (Relation::Le | Relation::Lt, Trend::Up) => HelpsDirection::Down,
        (Relation::Le | Relation::Lt, Trend::Down) => HelpsDirection::Up,
        (Relation::Ge | Relation::Gt, Trend::Up) => HelpsDirection::Up,
        (Relation::Ge | Relation::Gt, Trend::Down) => HelpsDirection::Down,
        (Relation::Eq, _) => return None,
    };
    Some(direction)
}

/// The *local* direction in which moving `pid` away from `current` shrinks
/// the violation of `cid`, probing the gap expression at `current ± probe`
/// with every other argument fixed at its current point (bound value or
/// range midpoint).
///
/// This models a designer's local engineering judgement for constraints
/// that are not globally monotonic (e.g. the band `|f_c - f_req| <= 5`):
/// even without a global direction, "the centre frequency is too high"
/// is obvious at the current design point. Returns `None` when neither
/// probe direction improves the margin (a local plateau or optimum).
///
/// # Examples
///
/// ```
/// use adpm_constraint::{ConstraintNetwork, Property, Domain, Relation,
///                       HelpsDirection, local_helps_direction,
///                       expr::{var, cst}};
/// # fn main() -> Result<(), adpm_constraint::NetworkError> {
/// let mut net = ConstraintNetwork::new();
/// let fc = net.add_property(Property::new("fc", "flt", Domain::interval(50.0, 300.0)))?;
/// let c = net.add_constraint("band", (var(fc) - cst(100.0)).abs(), Relation::Le, cst(5.0))?;
/// // At fc = 250 the band is violated; moving down helps locally.
/// assert_eq!(local_helps_direction(&net, c, fc, 250.0, 2.5),
///            Some(HelpsDirection::Down));
/// # Ok(())
/// # }
/// ```
pub fn local_helps_direction(
    net: &ConstraintNetwork,
    cid: ConstraintId,
    pid: PropertyId,
    current: f64,
    probe: f64,
) -> Option<HelpsDirection> {
    let constraint = net.constraint(cid);
    if !constraint.involves(pid) || probe <= 0.0 {
        return None;
    }
    let point = |id: PropertyId| {
        if id == pid {
            return current;
        }
        if let Some(v) = net.assignment(id).and_then(|v| v.as_number()) {
            return v;
        }
        let iv = net.effective_interval(id);
        if iv.is_bounded() {
            iv.midpoint()
        } else if iv.lo().is_finite() {
            iv.lo()
        } else if iv.hi().is_finite() {
            iv.hi()
        } else {
            0.0
        }
    };
    let margin_at = |x: f64| constraint.margin(&|id| if id == pid { x } else { point(id) });
    let here = margin_at(current);
    let up = margin_at(current + probe);
    let down = margin_at(current - probe);
    if !here.is_finite() {
        // The current point is outside the expression's domain (e.g. a log
        // of a non-positive value); prefer whichever probe is defined.
        return match (up.is_finite(), down.is_finite()) {
            (true, false) => Some(HelpsDirection::Up),
            (false, true) => Some(HelpsDirection::Down),
            (true, true) if up > down => Some(HelpsDirection::Up),
            (true, true) if down > up => Some(HelpsDirection::Down),
            _ => None,
        };
    }
    let eps = 1e-12 * (1.0 + here.abs());
    match (
        up.is_finite() && up > here + eps,
        down.is_finite() && down > here + eps,
    ) {
        (true, false) => Some(HelpsDirection::Up),
        (false, true) => Some(HelpsDirection::Down),
        (true, true) => {
            if up >= down {
                Some(HelpsDirection::Up)
            } else {
                Some(HelpsDirection::Down)
            }
        }
        (false, false) => None,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trend {
    Up,
    Down,
}

/// Trend of a gap along one property from the interval sign of the gap's
/// `derivative` in it, if the sign is unambiguous over the current box.
fn derivative_trend(net: &ConstraintNetwork, derivative: &Expr) -> Option<Trend> {
    let lookup = |id: PropertyId| net.effective_interval(id);
    let sign = derivative.eval_interval(&lookup);
    if sign.is_empty() {
        return None;
    }
    if sign.lo() >= 0.0 && sign.hi() > 0.0 {
        Some(Trend::Up)
    } else if sign.hi() <= 0.0 && sign.lo() < 0.0 {
        Some(Trend::Down)
    } else {
        None
    }
}

/// Sampling fallback: fix every other argument at the midpoint of its
/// effective range and walk `pid` across its range; report a trend only if
/// the gap is strictly monotone along the samples.
fn sample_trend(net: &ConstraintNetwork, gap: &Expr, pid: PropertyId) -> Option<Trend> {
    let axis = net.effective_interval(pid);
    if axis.is_empty() || axis.is_singleton() {
        // A pinned value gives no room to detect a trend; widen to the
        // initial range so repair guidance still exists for bound properties.
        return sample_trend_over(net, gap, pid, initial_axis(net, pid)?);
    }
    sample_trend_over(net, gap, pid, axis)
}

fn initial_axis(net: &ConstraintNetwork, pid: PropertyId) -> Option<Interval> {
    let iv = net.property(pid).initial_domain().enclosing_interval()?;
    if iv.is_empty() || iv.is_singleton() {
        None
    } else {
        Some(iv)
    }
}

fn sample_trend_over(
    net: &ConstraintNetwork,
    gap: &Expr,
    pid: PropertyId,
    axis: Interval,
) -> Option<Trend> {
    let midpoint = |id: PropertyId| {
        let iv = net.effective_interval(id);
        if iv.is_bounded() {
            iv.midpoint()
        } else if iv.lo().is_finite() {
            iv.lo()
        } else if iv.hi().is_finite() {
            iv.hi()
        } else {
            0.0
        }
    };
    let points = axis.sample(SAMPLES);
    let values: Vec<f64> = points
        .iter()
        .map(|x| gap.eval_point(&|id| if id == pid { *x } else { midpoint(id) }))
        .collect();
    if values.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let increasing = values.windows(2).all(|w| w[1] >= w[0]);
    let decreasing = values.windows(2).all(|w| w[1] <= w[0]);
    let moved = values
        .windows(2)
        .any(|w| (w[1] - w[0]).abs() > 1e-12 * (1.0 + w[0].abs()));
    match (increasing, decreasing, moved) {
        (true, false, true) => Some(Trend::Up),
        (false, true, true) => Some(Trend::Down),
        _ => None,
    }
}

/// The uncached [`helps_direction`], the test oracle for the gap cache:
/// it rebuilds the gap and its derivative in `pid` on every call.
#[cfg(test)]
pub(crate) fn reference_helps_direction(
    net: &ConstraintNetwork,
    cid: ConstraintId,
    pid: PropertyId,
) -> Option<HelpsDirection> {
    let constraint = net.constraint(cid);
    if !constraint.involves(pid) {
        return None;
    }
    if let Some(declared) = net.declared_monotonic(cid, pid) {
        return Some(declared);
    }
    if constraint.relation() == Relation::Eq {
        return None;
    }
    let gap = constraint.gap();
    let gap_trend = if gap.has_kink() {
        sample_trend(net, &gap, pid)
    } else {
        derivative_trend(net, &gap.diff(pid)).or_else(|| sample_trend(net, &gap, pid))
    }?;
    direction_for(constraint.relation(), gap_trend)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::expr::{cst, var};
    use crate::network::Property;
    use crate::value::Value;

    fn net3() -> (ConstraintNetwork, Vec<PropertyId>) {
        let mut net = ConstraintNetwork::new();
        let ids = (0..3)
            .map(|i| {
                net.add_property(Property::new(
                    format!("x{i}"),
                    "o",
                    Domain::interval(0.1, 10.0),
                ))
                .unwrap()
            })
            .collect();
        (net, ids)
    }

    #[test]
    fn le_constraint_with_positive_coefficient_helps_down() {
        let (mut net, ids) = net3();
        let c = net
            .add_constraint("cap", var(ids[0]) + var(ids[1]), Relation::Le, cst(5.0))
            .unwrap();
        assert_eq!(helps_direction(&net, c, ids[0]), Some(HelpsDirection::Down));
        assert_eq!(helps_direction(&net, c, ids[1]), Some(HelpsDirection::Down));
    }

    #[test]
    fn ge_constraint_with_positive_coefficient_helps_up() {
        let (mut net, ids) = net3();
        let c = net
            .add_constraint("gain", var(ids[0]) * cst(2.0), Relation::Ge, cst(3.0))
            .unwrap();
        assert_eq!(helps_direction(&net, c, ids[0]), Some(HelpsDirection::Up));
    }

    #[test]
    fn rhs_occurrence_flips_direction() {
        // x0 <= x1: raising x1 relaxes the requirement.
        let (mut net, ids) = net3();
        let c = net
            .add_constraint("order", var(ids[0]), Relation::Le, var(ids[1]))
            .unwrap();
        assert_eq!(helps_direction(&net, c, ids[0]), Some(HelpsDirection::Down));
        assert_eq!(helps_direction(&net, c, ids[1]), Some(HelpsDirection::Up));
    }

    #[test]
    fn declared_direction_overrides_inference() {
        let (mut net, ids) = net3();
        let c = net
            .add_constraint("cap", var(ids[0]), Relation::Le, cst(5.0))
            .unwrap();
        net.declare_monotonic(c, ids[0], HelpsDirection::Up)
            .unwrap();
        assert_eq!(helps_direction(&net, c, ids[0]), Some(HelpsDirection::Up));
    }

    #[test]
    fn non_argument_property_has_no_direction() {
        let (mut net, ids) = net3();
        let c = net
            .add_constraint("cap", var(ids[0]), Relation::Le, cst(5.0))
            .unwrap();
        assert_eq!(helps_direction(&net, c, ids[1]), None);
    }

    #[test]
    fn equality_constraint_has_no_direction() {
        let (mut net, ids) = net3();
        let c = net
            .add_constraint("eq", var(ids[0]), Relation::Eq, cst(5.0))
            .unwrap();
        assert_eq!(helps_direction(&net, c, ids[0]), None);
    }

    #[test]
    fn nonmonotonic_constraint_has_no_direction() {
        // (x - 5)^2 <= 4 is not monotone in x over [0.1, 10].
        let (mut net, ids) = net3();
        let c = net
            .add_constraint(
                "band",
                (var(ids[0]) - cst(5.0)).powi(2),
                Relation::Le,
                cst(4.0),
            )
            .unwrap();
        assert_eq!(helps_direction(&net, c, ids[0]), None);
    }

    #[test]
    fn nonlinear_monotone_constraint_is_inferred() {
        // 1/x <= 2 over x in [0.1, 10]: raising x helps.
        let (mut net, ids) = net3();
        let c = net
            .add_constraint("inv", cst(1.0) / var(ids[0]), Relation::Le, cst(2.0))
            .unwrap();
        assert_eq!(helps_direction(&net, c, ids[0]), Some(HelpsDirection::Up));
    }

    #[test]
    fn kinked_expression_uses_sampling() {
        // max(x, 1) <= 5: raising x hurts (gap grows), so Down helps.
        let (mut net, ids) = net3();
        let c = net
            .add_constraint("mx", var(ids[0]).max(cst(1.0)), Relation::Le, cst(5.0))
            .unwrap();
        assert_eq!(helps_direction(&net, c, ids[0]), Some(HelpsDirection::Down));
    }

    #[test]
    fn bound_property_still_gets_direction_from_initial_axis() {
        let (mut net, ids) = net3();
        let c = net
            .add_constraint("gain", var(ids[0]), Relation::Ge, cst(8.0))
            .unwrap();
        net.bind(ids[0], Value::number(2.0)).unwrap();
        // Even though x0's effective interval is the singleton {2},
        // direction guidance must still say "move up".
        assert_eq!(helps_direction(&net, c, ids[0]), Some(HelpsDirection::Up));
    }

    #[test]
    fn local_direction_on_band_constraint() {
        let (mut net, ids) = net3();
        let c = net
            .add_constraint(
                "band",
                (var(ids[0]) - cst(5.0)).abs(),
                Relation::Le,
                cst(1.0),
            )
            .unwrap();
        assert_eq!(
            local_helps_direction(&net, c, ids[0], 8.0, 0.1),
            Some(HelpsDirection::Down)
        );
        assert_eq!(
            local_helps_direction(&net, c, ids[0], 2.0, 0.1),
            Some(HelpsDirection::Up)
        );
        // At the optimum neither direction improves the margin.
        assert_eq!(local_helps_direction(&net, c, ids[0], 5.0, 0.1), None);
    }

    #[test]
    fn local_direction_rejects_non_arguments_and_bad_probe() {
        let (mut net, ids) = net3();
        let c = net
            .add_constraint("cap", var(ids[0]), Relation::Le, cst(5.0))
            .unwrap();
        assert_eq!(local_helps_direction(&net, c, ids[1], 1.0, 0.1), None);
        assert_eq!(local_helps_direction(&net, c, ids[0], 1.0, 0.0), None);
    }

    #[test]
    fn local_direction_matches_global_for_monotone() {
        let (mut net, ids) = net3();
        let c = net
            .add_constraint("gain", var(ids[0]), Relation::Ge, cst(8.0))
            .unwrap();
        assert_eq!(
            local_helps_direction(&net, c, ids[0], 2.0, 0.1),
            Some(HelpsDirection::Up)
        );
    }

    #[test]
    fn product_of_positives_is_monotone_in_each_factor() {
        let (mut net, ids) = net3();
        let c = net
            .add_constraint("rc", var(ids[0]) * var(ids[1]), Relation::Le, cst(20.0))
            .unwrap();
        assert_eq!(helps_direction(&net, c, ids[0]), Some(HelpsDirection::Down));
        assert_eq!(helps_direction(&net, c, ids[1]), Some(HelpsDirection::Down));
    }
}
