//! Property value ranges (`E_i`) and feasible subspaces (`v_F(a_i)`).
//!
//! A [`Domain`] is the set of values a property may take. The paper's
//! examples mix continuous quantities (inductance, transistor width),
//! discrete numeric choices (number of resonator beams), and symbolic values
//! (abstraction levels), so domains come in four flavours. All numeric
//! flavours can be narrowed by interval propagation; symbolic flavours are
//! narrowed only by explicit binding.

use crate::interval::Interval;
use crate::value::{Value, VALUE_EPS};
use std::fmt;

/// The set of values a design property may currently take.
///
/// # Examples
///
/// ```
/// use adpm_constraint::{Domain, Interval, Value};
/// let freq_ind = Domain::interval(0.0, 0.5); // µH
/// let narrowed = freq_ind.narrow_to_interval(&Interval::new(0.174, 0.8));
/// assert!(narrowed.contains(&Value::number(0.2)));
/// assert!(!narrowed.contains(&Value::number(0.1)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Domain {
    /// A continuous closed interval of real values.
    Interval(Interval),
    /// A finite, sorted set of numeric values (e.g. a discrete size menu).
    NumberSet(Vec<f64>),
    /// A finite set of textual values (e.g. abstraction levels).
    TextSet(Vec<String>),
    /// A boolean choice.
    Bool {
        /// Whether `false` remains a member.
        can_false: bool,
        /// Whether `true` remains a member.
        can_true: bool,
    },
}

impl Domain {
    /// Creates a continuous interval domain `[lo, hi]`.
    pub fn interval(lo: f64, hi: f64) -> Self {
        Domain::Interval(Interval::new(lo, hi))
    }

    /// Creates a finite numeric domain; the values are sorted and deduped.
    pub fn number_set(values: impl IntoIterator<Item = f64>) -> Self {
        let mut v: Vec<f64> = values.into_iter().filter(|x| !x.is_nan()).collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered"));
        v.dedup_by(|a, b| (*a - *b).abs() <= VALUE_EPS);
        Domain::NumberSet(v)
    }

    /// Creates a finite textual domain; duplicates are removed, order kept.
    pub fn text_set<S: Into<String>>(values: impl IntoIterator<Item = S>) -> Self {
        let mut v: Vec<String> = Vec::new();
        for s in values {
            let s = s.into();
            if !v.contains(&s) {
                v.push(s);
            }
        }
        Domain::TextSet(v)
    }

    /// Creates the full boolean domain `{false, true}`.
    pub fn boolean() -> Self {
        Domain::Bool {
            can_false: true,
            can_true: true,
        }
    }

    /// Creates the degenerate domain holding exactly `value`.
    pub fn singleton(value: &Value) -> Self {
        match value {
            Value::Number(x) => Domain::Interval(Interval::singleton(*x)),
            Value::Text(s) => Domain::TextSet(vec![s.clone()]),
            Value::Bool(b) => Domain::Bool {
                can_false: !*b,
                can_true: *b,
            },
        }
    }

    /// The canonical empty domain.
    pub fn empty() -> Self {
        Domain::Interval(Interval::EMPTY)
    }

    /// Whether no values remain.
    pub fn is_empty(&self) -> bool {
        match self {
            Domain::Interval(iv) => iv.is_empty(),
            Domain::NumberSet(v) => v.is_empty(),
            Domain::TextSet(v) => v.is_empty(),
            Domain::Bool {
                can_false,
                can_true,
            } => !can_false && !can_true,
        }
    }

    /// Whether exactly one value remains.
    pub fn is_singleton(&self) -> bool {
        match self {
            Domain::Interval(iv) => iv.is_singleton(),
            Domain::NumberSet(v) => v.len() == 1,
            Domain::TextSet(v) => v.len() == 1,
            Domain::Bool {
                can_false,
                can_true,
            } => can_false != can_true,
        }
    }

    /// Whether the domain holds numeric values (and thus participates in
    /// interval propagation).
    pub fn is_numeric(&self) -> bool {
        matches!(self, Domain::Interval(_) | Domain::NumberSet(_))
    }

    /// Whether `value` is a member of the domain.
    pub fn contains(&self, value: &Value) -> bool {
        match (self, value) {
            (Domain::Interval(iv), Value::Number(x)) => iv.contains(*x),
            (Domain::NumberSet(v), Value::Number(x)) => v
                .iter()
                .any(|y| (y - x).abs() <= VALUE_EPS * (1.0 + x.abs())),
            (Domain::TextSet(v), Value::Text(s)) => v.iter().any(|t| t == s),
            (
                Domain::Bool {
                    can_false,
                    can_true,
                },
                Value::Bool(b),
            ) => {
                if *b {
                    *can_true
                } else {
                    *can_false
                }
            }
            _ => false,
        }
    }

    /// The smallest interval containing every numeric member, or `None` for
    /// symbolic domains. Used to feed discrete numeric domains into the
    /// interval propagator.
    pub fn enclosing_interval(&self) -> Option<Interval> {
        match self {
            Domain::Interval(iv) => Some(*iv),
            Domain::NumberSet(v) => {
                if v.is_empty() {
                    Some(Interval::EMPTY)
                } else {
                    Some(Interval::new(v[0], *v.last().expect("non-empty")))
                }
            }
            _ => None,
        }
    }

    /// Narrows a numeric domain to the members inside `iv`; symbolic domains
    /// are returned unchanged (interval propagation cannot prune them).
    ///
    /// Finite numeric sets are filtered with a small relative tolerance
    /// (outward rounding): a member sitting exactly on a projected bound
    /// must survive the floating-point slop of the projection chain.
    pub fn narrow_to_interval(&self, iv: &Interval) -> Domain {
        match self {
            Domain::Interval(own) => Domain::Interval(own.intersect(iv)),
            Domain::NumberSet(v) => {
                let tolerant = iv.inflate(1e-9);
                Domain::NumberSet(
                    v.iter()
                        .copied()
                        .filter(|x| tolerant.contains(*x))
                        .collect(),
                )
            }
            other => other.clone(),
        }
    }

    /// A scalar "size" of the domain, comparable across properties after
    /// normalization by [`Domain::relative_size`]: interval width, set
    /// cardinality, or remaining boolean choices.
    pub fn measure(&self) -> f64 {
        match self {
            Domain::Interval(iv) => {
                if iv.is_empty() || iv.is_singleton() {
                    0.0
                } else {
                    iv.width()
                }
            }
            Domain::NumberSet(v) => v.len() as f64,
            Domain::TextSet(v) => v.len() as f64,
            Domain::Bool {
                can_false,
                can_true,
            } => (*can_false as u8 + *can_true as u8) as f64,
        }
    }

    /// Size of `self` relative to the initial range `initial`, in `[0, 1]`.
    ///
    /// This is the unit-independent quantity the *focus on the smallest
    /// feasible subspace* heuristic (paper §2.3.1) ranks properties by —
    /// the paper's own footnote notes raw sizes are unit-dependent.
    ///
    /// An unbounded `self` reads 1.0; a bounded one inside an unbounded
    /// `initial` reads 0.0, like a singleton inside a bounded range.
    pub fn relative_size(&self, initial: &Domain) -> f64 {
        let init = initial.measure();
        let size = self.measure();
        if init <= 0.0 {
            if self.is_empty() {
                0.0
            } else {
                1.0
            }
        } else if size.is_infinite() {
            1.0
        } else {
            (size / init).clamp(0.0, 1.0)
        }
    }

    /// Enumerates candidate values for discrete domains, in order.
    /// Continuous intervals return `None` (use interval endpoints instead).
    pub fn candidates(&self) -> Option<Vec<Value>> {
        match self {
            Domain::Interval(_) => None,
            Domain::NumberSet(v) => Some(v.iter().map(|x| Value::Number(*x)).collect()),
            Domain::TextSet(v) => Some(v.iter().map(|s| Value::Text(s.clone())).collect()),
            Domain::Bool {
                can_false,
                can_true,
            } => {
                let mut out = Vec::new();
                if *can_false {
                    out.push(Value::Bool(false));
                }
                if *can_true {
                    out.push(Value::Bool(true));
                }
                Some(out)
            }
        }
    }

    /// The lowest numeric member, if this is a non-empty numeric domain.
    pub fn min_number(&self) -> Option<f64> {
        match self {
            Domain::Interval(iv) if !iv.is_empty() => Some(iv.lo()),
            Domain::NumberSet(v) => v.first().copied(),
            _ => None,
        }
    }

    /// The highest numeric member, if this is a non-empty numeric domain.
    pub fn max_number(&self) -> Option<f64> {
        match self {
            Domain::Interval(iv) if !iv.is_empty() => Some(iv.hi()),
            Domain::NumberSet(v) => v.last().copied(),
            _ => None,
        }
    }

    /// Intersects two domains of the same flavour.
    ///
    /// Mismatched flavours produce the empty domain, except that numeric
    /// flavours intersect through their enclosing intervals.
    pub fn intersect(&self, other: &Domain) -> Domain {
        match (self, other) {
            (Domain::Interval(a), Domain::Interval(b)) => Domain::Interval(a.intersect(b)),
            (Domain::NumberSet(_), _) | (_, Domain::NumberSet(_))
                if self.is_numeric() && other.is_numeric() =>
            {
                // Keep the discrete side's structure.
                if let Domain::NumberSet(v) = self {
                    let iv = other.enclosing_interval().expect("numeric");
                    Domain::NumberSet(v.iter().copied().filter(|x| iv.contains(*x)).collect())
                } else if let Domain::NumberSet(v) = other {
                    let iv = self.enclosing_interval().expect("numeric");
                    Domain::NumberSet(v.iter().copied().filter(|x| iv.contains(*x)).collect())
                } else {
                    unreachable!("one side must be a NumberSet")
                }
            }
            (Domain::TextSet(a), Domain::TextSet(b)) => {
                Domain::TextSet(a.iter().filter(|s| b.contains(s)).cloned().collect())
            }
            (
                Domain::Bool {
                    can_false: f1,
                    can_true: t1,
                },
                Domain::Bool {
                    can_false: f2,
                    can_true: t2,
                },
            ) => Domain::Bool {
                can_false: *f1 && *f2,
                can_true: *t1 && *t2,
            },
            _ => Domain::empty(),
        }
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Domain::Interval(iv) => {
                if iv.is_empty() {
                    write!(f, "{{}}")
                } else {
                    write!(f, "{{{:.6} {:.6}}}", iv.lo(), iv.hi())
                }
            }
            Domain::NumberSet(v) => {
                write!(f, "{{")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "}}")
            }
            Domain::TextSet(v) => write!(f, "{{{}}}", v.join(", ")),
            Domain::Bool {
                can_false,
                can_true,
            } => match (can_false, can_true) {
                (true, true) => write!(f, "{{false, true}}"),
                (true, false) => write!(f, "{{false}}"),
                (false, true) => write!(f, "{{true}}"),
                (false, false) => write!(f, "{{}}"),
            },
        }
    }
}

impl From<Interval> for Domain {
    fn from(iv: Interval) -> Self {
        Domain::Interval(iv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_domain_contains_and_measures() {
        let d = Domain::interval(0.0, 0.5);
        assert!(d.contains(&Value::number(0.17)));
        assert!(!d.contains(&Value::number(0.6)));
        assert!(!d.contains(&Value::text("0.17")));
        assert_eq!(d.measure(), 0.5);
    }

    #[test]
    fn number_set_is_sorted_and_deduped() {
        let d = Domain::number_set([3.0, 1.0, 2.0, 1.0 + 1e-12]);
        assert_eq!(d, Domain::NumberSet(vec![1.0, 2.0, 3.0]));
        assert!(d.contains(&Value::number(2.0)));
        assert_eq!(d.measure(), 3.0);
    }

    #[test]
    fn text_set_keeps_insertion_order_without_duplicates() {
        let d = Domain::text_set(["Transistor", "Geometry", "Transistor"]);
        assert_eq!(
            d.candidates().unwrap(),
            vec![Value::text("Transistor"), Value::text("Geometry")]
        );
    }

    #[test]
    fn boolean_domain_shrinks_by_intersection() {
        let d = Domain::boolean();
        let only_true = d.intersect(&Domain::singleton(&Value::Bool(true)));
        assert!(only_true.is_singleton());
        assert!(only_true.contains(&Value::Bool(true)));
        assert!(!only_true.contains(&Value::Bool(false)));
    }

    #[test]
    fn singleton_constructors_match_contains() {
        for v in [Value::number(1.5), Value::text("geom"), Value::Bool(false)] {
            let d = Domain::singleton(&v);
            assert!(d.is_singleton(), "{d:?}");
            assert!(d.contains(&v));
        }
    }

    #[test]
    fn empty_detection() {
        assert!(Domain::empty().is_empty());
        assert!(Domain::number_set(std::iter::empty::<f64>()).is_empty());
        assert!(Domain::interval(1.0, 0.0).is_empty());
        assert!(!Domain::boolean().is_empty());
    }

    #[test]
    fn enclosing_interval_for_numeric_domains() {
        assert_eq!(
            Domain::interval(1.0, 2.0).enclosing_interval(),
            Some(Interval::new(1.0, 2.0))
        );
        assert_eq!(
            Domain::number_set([5.0, 1.0, 3.0]).enclosing_interval(),
            Some(Interval::new(1.0, 5.0))
        );
        assert_eq!(Domain::boolean().enclosing_interval(), None);
    }

    #[test]
    fn narrow_to_interval_prunes_numeric_members() {
        let iv = Interval::new(1.5, 3.5);
        assert_eq!(
            Domain::interval(0.0, 10.0).narrow_to_interval(&iv),
            Domain::interval(1.5, 3.5)
        );
        assert_eq!(
            Domain::number_set([1.0, 2.0, 3.0, 4.0]).narrow_to_interval(&iv),
            Domain::NumberSet(vec![2.0, 3.0])
        );
        // Symbolic domains are untouched.
        let t = Domain::text_set(["a", "b"]);
        assert_eq!(t.narrow_to_interval(&iv), t);
    }

    #[test]
    fn relative_size_normalizes_to_unit_range() {
        let init = Domain::interval(0.0, 10.0);
        let narrowed = Domain::interval(2.0, 4.0);
        assert!((narrowed.relative_size(&init) - 0.2).abs() < 1e-12);
        assert_eq!(init.relative_size(&init), 1.0);
        assert_eq!(Domain::empty().relative_size(&init), 0.0);
    }

    #[test]
    fn relative_size_of_unbounded_initial_is_finite() {
        let init = Domain::interval(0.0, f64::INFINITY);
        assert_eq!(init.relative_size(&init), 1.0);
        assert_eq!(
            Domain::interval(1.0, f64::INFINITY).relative_size(&init),
            1.0
        );
        assert_eq!(Domain::interval(1.0, 4.0).relative_size(&init), 0.0);
        assert_eq!(Domain::empty().relative_size(&init), 0.0);
    }

    #[test]
    fn relative_size_of_singleton_initial_is_degenerate() {
        let init = Domain::singleton(&Value::number(5.0));
        assert_eq!(init.relative_size(&init), 1.0);
        assert_eq!(Domain::empty().relative_size(&init), 0.0);
    }

    #[test]
    fn min_max_number() {
        assert_eq!(Domain::interval(1.0, 9.0).min_number(), Some(1.0));
        assert_eq!(Domain::interval(1.0, 9.0).max_number(), Some(9.0));
        assert_eq!(Domain::number_set([4.0, 2.0]).min_number(), Some(2.0));
        assert_eq!(Domain::text_set(["x"]).min_number(), None);
    }

    #[test]
    fn intersect_mixed_numeric_flavours_keeps_discrete_structure() {
        let set = Domain::number_set([1.0, 2.0, 3.0]);
        let iv = Domain::interval(1.5, 9.0);
        assert_eq!(set.intersect(&iv), Domain::NumberSet(vec![2.0, 3.0]));
        assert_eq!(iv.intersect(&set), Domain::NumberSet(vec![2.0, 3.0]));
    }

    #[test]
    fn intersect_mismatched_flavours_is_empty() {
        let t = Domain::text_set(["a"]);
        let n = Domain::interval(0.0, 1.0);
        assert!(t.intersect(&n).is_empty());
    }

    #[test]
    fn display_matches_paper_browser_style() {
        assert_eq!(
            Domain::interval(0.174255, 0.5).to_string(),
            "{0.174255 0.500000}"
        );
        assert_eq!(Domain::number_set([1.0, 2.0]).to_string(), "{1, 2}");
        assert_eq!(
            Domain::text_set(["Transistor", "Geometry"]).to_string(),
            "{Transistor, Geometry}"
        );
    }

    #[test]
    fn candidates_enumerate_discrete_domains_only() {
        assert!(Domain::interval(0.0, 1.0).candidates().is_none());
        assert_eq!(
            Domain::boolean().candidates().unwrap(),
            vec![Value::Bool(false), Value::Bool(true)]
        );
    }
}
