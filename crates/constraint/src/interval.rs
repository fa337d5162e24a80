//! Closed real intervals and interval arithmetic.
//!
//! Intervals are the workhorse of the Design Constraint Manager: a property's
//! feasible subspace `v_F(a_i)` is represented (for numeric properties) as an
//! interval, and constraint evaluation/propagation is interval evaluation of
//! the constraint's expression tree (see [`crate::expr`] and
//! [`crate::propagate()`]).
//!
//! The arithmetic here is *conservative*: every operation returns an interval
//! that contains all point results. Division by an interval containing zero
//! widens to the full real line rather than splitting, which keeps
//! propagation sound at the cost of some precision — the classical trade-off
//! made by HC4-style narrowing.

use std::fmt;

/// A closed interval `[lo, hi]` over `f64`, possibly unbounded or empty.
///
/// The canonical empty interval is `[NaN, NaN]`; use [`Interval::EMPTY`] and
/// [`Interval::is_empty`] rather than comparing bounds directly.
///
/// # Examples
///
/// ```
/// use adpm_constraint::Interval;
/// let power = Interval::new(164.4, 200.0);
/// let margin = Interval::new(0.0, 10.0);
/// let total = power + margin;
/// assert!(total.contains(170.0));
/// assert_eq!(total.hi(), 210.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// The empty interval (contains no points).
    pub const EMPTY: Interval = Interval {
        lo: f64::NAN,
        hi: f64::NAN,
    };

    /// The whole real line `[-inf, +inf]`.
    pub const UNIVERSE: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    /// The non-negative half line `[0, +inf]`.
    pub const NON_NEGATIVE: Interval = Interval {
        lo: 0.0,
        hi: f64::INFINITY,
    };

    /// The non-positive half line `[-inf, 0]`.
    pub const NON_POSITIVE: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: 0.0,
    };

    /// Creates `[lo, hi]`. Returns [`Interval::EMPTY`] when `lo > hi` or
    /// either bound is NaN.
    pub fn new(lo: f64, hi: f64) -> Self {
        if lo.is_nan() || hi.is_nan() || lo > hi {
            Interval::EMPTY
        } else {
            Interval { lo, hi }
        }
    }

    /// Creates the degenerate interval `[x, x]`.
    pub fn singleton(x: f64) -> Self {
        Interval::new(x, x)
    }

    /// Lower bound. Meaningless (NaN) for the empty interval.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound. Meaningless (NaN) for the empty interval.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Whether the interval contains no points.
    pub fn is_empty(&self) -> bool {
        self.lo.is_nan()
    }

    /// Whether the interval is a single point.
    pub fn is_singleton(&self) -> bool {
        !self.is_empty() && self.lo == self.hi
    }

    /// Whether both bounds are finite.
    pub fn is_bounded(&self) -> bool {
        !self.is_empty() && self.lo.is_finite() && self.hi.is_finite()
    }

    /// Width `hi - lo`. Zero for singletons and the empty interval,
    /// `+inf` for unbounded intervals.
    pub fn width(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.hi - self.lo
        }
    }

    /// Midpoint of a bounded interval.
    ///
    /// # Panics
    ///
    /// Panics if the interval is empty or unbounded.
    pub fn midpoint(&self) -> f64 {
        assert!(self.is_bounded(), "midpoint of empty/unbounded interval");
        0.5 * (self.lo + self.hi)
    }

    /// Whether `x` lies inside the interval.
    pub fn contains(&self, x: f64) -> bool {
        !self.is_empty() && self.lo <= x && x <= self.hi
    }

    /// Whether `other` lies entirely inside `self`.
    pub fn contains_interval(&self, other: &Interval) -> bool {
        other.is_empty() || (!self.is_empty() && self.lo <= other.lo && other.hi <= self.hi)
    }

    /// Intersection of two intervals.
    pub fn intersect(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            Interval::EMPTY
        } else {
            Interval::new(self.lo.max(other.lo), self.hi.min(other.hi))
        }
    }

    /// Smallest interval containing both inputs (interval hull).
    pub fn hull(&self, other: &Interval) -> Interval {
        match (self.is_empty(), other.is_empty()) {
            (true, true) => Interval::EMPTY,
            (true, false) => *other,
            (false, true) => *self,
            (false, false) => Interval::new(self.lo.min(other.lo), self.hi.max(other.hi)),
        }
    }

    /// Clamps `x` into the interval.
    ///
    /// # Panics
    ///
    /// Panics if the interval is empty.
    pub fn clamp(&self, x: f64) -> f64 {
        assert!(!self.is_empty(), "clamp into empty interval");
        x.clamp(self.lo, self.hi)
    }

    /// Negation `[-hi, -lo]`.
    pub fn neg(&self) -> Interval {
        if self.is_empty() {
            Interval::EMPTY
        } else {
            Interval::new(-self.hi, -self.lo)
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Interval {
        if self.is_empty() {
            Interval::EMPTY
        } else if self.lo >= 0.0 {
            *self
        } else if self.hi <= 0.0 {
            self.neg()
        } else {
            Interval::new(0.0, self.hi.max(-self.lo))
        }
    }

    /// Square root; the negative part of the input is clipped away.
    /// Returns empty if the interval is entirely negative.
    pub fn sqrt(&self) -> Interval {
        let clipped = self.intersect(&Interval::NON_NEGATIVE);
        if clipped.is_empty() {
            Interval::EMPTY
        } else {
            Interval::new(clipped.lo.sqrt(), clipped.hi.sqrt())
        }
    }

    /// Exponential `e^x` (monotone increasing).
    pub fn exp(&self) -> Interval {
        if self.is_empty() {
            Interval::EMPTY
        } else {
            Interval::new(self.lo.exp(), self.hi.exp())
        }
    }

    /// Natural logarithm; the non-positive part of the input is clipped.
    /// Returns empty if the interval is entirely non-positive.
    pub fn ln(&self) -> Interval {
        if self.is_empty() || self.hi <= 0.0 {
            return Interval::EMPTY;
        }
        let lo = if self.lo <= 0.0 {
            f64::NEG_INFINITY
        } else {
            self.lo.ln()
        };
        Interval::new(lo, self.hi.ln())
    }

    /// Integer power `x^n` for `n >= 0`.
    pub fn powi(&self, n: i32) -> Interval {
        assert!(n >= 0, "powi only supports non-negative exponents");
        if self.is_empty() {
            return Interval::EMPTY;
        }
        if n == 0 {
            return Interval::singleton(1.0);
        }
        if n % 2 == 1 {
            // Odd powers are monotone increasing.
            Interval::new(self.lo.powi(n), self.hi.powi(n))
        } else if self.lo >= 0.0 {
            Interval::new(self.lo.powi(n), self.hi.powi(n))
        } else if self.hi <= 0.0 {
            Interval::new(self.hi.powi(n), self.lo.powi(n))
        } else {
            Interval::new(0.0, self.lo.powi(n).max(self.hi.powi(n)))
        }
    }

    /// Pointwise minimum of two intervals.
    pub fn min(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            Interval::EMPTY
        } else {
            Interval::new(self.lo.min(other.lo), self.hi.min(other.hi))
        }
    }

    /// Pointwise maximum of two intervals.
    pub fn max(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            Interval::EMPTY
        } else {
            Interval::new(self.lo.max(other.lo), self.hi.max(other.hi))
        }
    }

    /// Multiplicative inverse `1/x`.
    ///
    /// If the interval strictly contains zero the result widens to
    /// [`Interval::UNIVERSE`] (the sound, non-splitting choice).
    pub fn recip(&self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        if self.lo > 0.0 || self.hi < 0.0 {
            return Interval::new(self.hi.recip(), self.lo.recip());
        }
        if self.lo == 0.0 && self.hi == 0.0 {
            // 1/0 is undefined everywhere in the interval.
            return Interval::EMPTY;
        }
        if self.lo == 0.0 {
            return Interval::new(self.hi.recip(), f64::INFINITY);
        }
        if self.hi == 0.0 {
            return Interval::new(f64::NEG_INFINITY, self.lo.recip());
        }
        Interval::UNIVERSE
    }

    /// Widens both bounds outward by a relative `eps` — the "outward
    /// rounding" interval solvers apply to projection results so that
    /// floating-point slop never prunes a true solution at a bound.
    pub fn inflate(&self, eps: f64) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        let lo = if self.lo.is_finite() {
            self.lo - eps * (1.0 + self.lo.abs())
        } else {
            self.lo
        };
        let hi = if self.hi.is_finite() {
            self.hi + eps * (1.0 + self.hi.abs())
        } else {
            self.hi
        };
        Interval::new(lo, hi)
    }

    /// Samples `n` evenly spaced points from a bounded interval (including
    /// both endpoints when `n >= 2`). Used by monotonicity inference.
    ///
    /// # Panics
    ///
    /// Panics if the interval is empty or `n == 0`.
    pub fn sample(&self, n: usize) -> Vec<f64> {
        assert!(!self.is_empty() && n > 0, "sample of empty interval");
        if self.is_singleton() || n == 1 {
            return vec![self.midpoint_or_bound()];
        }
        let lo = if self.lo.is_finite() { self.lo } else { -1e12 };
        let hi = if self.hi.is_finite() { self.hi } else { 1e12 };
        (0..n)
            .map(|i| lo + (hi - lo) * (i as f64) / ((n - 1) as f64))
            .collect()
    }

    fn midpoint_or_bound(&self) -> f64 {
        if self.is_bounded() {
            self.midpoint()
        } else if self.lo.is_finite() {
            self.lo
        } else if self.hi.is_finite() {
            self.hi
        } else {
            0.0
        }
    }
}

/// Multiplies bounds treating `0 * inf` as `0`, the convention interval
/// arithmetic needs so that `[0,0] * [-inf,inf] = [0,0]`.
fn mul_bound(a: f64, b: f64) -> f64 {
    if a == 0.0 || b == 0.0 {
        0.0
    } else {
        a * b
    }
}

impl std::ops::Add for Interval {
    type Output = Interval;
    fn add(self, rhs: Interval) -> Interval {
        if self.is_empty() || rhs.is_empty() {
            Interval::EMPTY
        } else {
            Interval::new(self.lo + rhs.lo, self.hi + rhs.hi)
        }
    }
}

impl std::ops::Sub for Interval {
    type Output = Interval;
    // Interval subtraction genuinely is addition of the negation.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn sub(self, rhs: Interval) -> Interval {
        self + rhs.neg()
    }
}

impl std::ops::Mul for Interval {
    type Output = Interval;
    fn mul(self, rhs: Interval) -> Interval {
        if self.is_empty() || rhs.is_empty() {
            return Interval::EMPTY;
        }
        let candidates = [
            mul_bound(self.lo, rhs.lo),
            mul_bound(self.lo, rhs.hi),
            mul_bound(self.hi, rhs.lo),
            mul_bound(self.hi, rhs.hi),
        ];
        let lo = candidates.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = candidates.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Interval::new(lo, hi)
    }
}

impl std::ops::Div for Interval {
    type Output = Interval;
    // Interval division genuinely is multiplication by the reciprocal.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Interval) -> Interval {
        self * rhs.recip()
    }
}

impl std::ops::Neg for Interval {
    type Output = Interval;
    fn neg(self) -> Interval {
        Interval::neg(&self)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            write!(f, "{{}}")
        } else {
            write!(f, "[{:.6}, {:.6}]", self.lo, self.hi)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, hi)
    }

    #[test]
    fn new_normalizes_inverted_bounds_to_empty() {
        assert!(iv(2.0, 1.0).is_empty());
        assert!(iv(f64::NAN, 1.0).is_empty());
        assert!(!iv(1.0, 2.0).is_empty());
    }

    #[test]
    fn singleton_has_zero_width() {
        let s = Interval::singleton(3.0);
        assert!(s.is_singleton());
        assert_eq!(s.width(), 0.0);
        assert!(s.contains(3.0));
        assert!(!s.contains(3.0001));
    }

    #[test]
    fn intersect_and_hull_behave_as_lattice_ops() {
        let a = iv(0.0, 5.0);
        let b = iv(3.0, 8.0);
        assert_eq!(a.intersect(&b), iv(3.0, 5.0));
        assert_eq!(a.hull(&b), iv(0.0, 8.0));
        assert!(a.intersect(&iv(6.0, 7.0)).is_empty());
        assert_eq!(a.hull(&Interval::EMPTY), a);
        assert!(Interval::EMPTY.intersect(&a).is_empty());
    }

    #[test]
    fn contains_interval_handles_empty() {
        let a = iv(0.0, 5.0);
        assert!(a.contains_interval(&iv(1.0, 2.0)));
        assert!(!a.contains_interval(&iv(1.0, 6.0)));
        assert!(a.contains_interval(&Interval::EMPTY));
        assert!(Interval::EMPTY.contains_interval(&Interval::EMPTY));
        assert!(!Interval::EMPTY.contains_interval(&a));
    }

    #[test]
    fn addition_and_subtraction() {
        assert_eq!(iv(1.0, 2.0) + iv(10.0, 20.0), iv(11.0, 22.0));
        assert_eq!(iv(1.0, 2.0) - iv(10.0, 20.0), iv(-19.0, -8.0));
        assert!((iv(1.0, 2.0) + Interval::EMPTY).is_empty());
    }

    #[test]
    fn multiplication_covers_sign_cases() {
        assert_eq!(iv(1.0, 2.0) * iv(3.0, 4.0), iv(3.0, 8.0));
        assert_eq!(iv(-2.0, -1.0) * iv(3.0, 4.0), iv(-8.0, -3.0));
        assert_eq!(iv(-2.0, 3.0) * iv(-1.0, 4.0), iv(-8.0, 12.0));
        assert_eq!(iv(0.0, 0.0) * Interval::UNIVERSE, iv(0.0, 0.0));
    }

    #[test]
    fn division_by_positive_interval() {
        assert_eq!(iv(2.0, 6.0) / iv(2.0, 2.0), iv(1.0, 3.0));
        let r = iv(1.0, 4.0) / iv(2.0, 4.0);
        assert!(r.contains(0.5) && r.contains(2.0));
    }

    #[test]
    fn division_by_zero_straddling_interval_widens() {
        let r = iv(1.0, 2.0) / iv(-1.0, 1.0);
        assert_eq!(r, Interval::UNIVERSE);
    }

    #[test]
    fn recip_edge_cases() {
        assert_eq!(iv(2.0, 4.0).recip(), iv(0.25, 0.5));
        assert_eq!(iv(-4.0, -2.0).recip(), iv(-0.5, -0.25));
        assert!(Interval::singleton(0.0).recip().is_empty());
        let half_open = iv(0.0, 2.0).recip();
        assert_eq!(half_open.lo(), 0.5);
        assert_eq!(half_open.hi(), f64::INFINITY);
    }

    #[test]
    fn abs_covers_sign_cases() {
        assert_eq!(iv(2.0, 3.0).abs(), iv(2.0, 3.0));
        assert_eq!(iv(-3.0, -2.0).abs(), iv(2.0, 3.0));
        assert_eq!(iv(-2.0, 3.0).abs(), iv(0.0, 3.0));
    }

    #[test]
    fn sqrt_clips_negative_part() {
        assert_eq!(iv(4.0, 9.0).sqrt(), iv(2.0, 3.0));
        assert_eq!(iv(-4.0, 9.0).sqrt(), iv(0.0, 3.0));
        assert!(iv(-9.0, -4.0).sqrt().is_empty());
    }

    #[test]
    fn exp_and_ln_are_inverse_monotone() {
        let x = iv(0.0, 1.0);
        let e = x.exp();
        assert!((e.lo() - 1.0).abs() < 1e-12);
        assert!((e.hi() - std::f64::consts::E).abs() < 1e-12);
        let back = e.ln();
        assert!((back.lo() - 0.0).abs() < 1e-12);
        assert!((back.hi() - 1.0).abs() < 1e-12);
        assert!(iv(-2.0, -1.0).ln().is_empty());
        assert_eq!(iv(0.0, 1.0).ln().lo(), f64::NEG_INFINITY);
    }

    #[test]
    fn powi_even_odd() {
        assert_eq!(iv(-2.0, 3.0).powi(2), iv(0.0, 9.0));
        assert_eq!(iv(-2.0, 3.0).powi(3), iv(-8.0, 27.0));
        assert_eq!(iv(-3.0, -2.0).powi(2), iv(4.0, 9.0));
        assert_eq!(iv(-3.0, 2.0).powi(0), Interval::singleton(1.0));
    }

    #[test]
    fn min_max_pointwise() {
        assert_eq!(iv(0.0, 5.0).min(&iv(3.0, 4.0)), iv(0.0, 4.0));
        assert_eq!(iv(0.0, 5.0).max(&iv(3.0, 4.0)), iv(3.0, 5.0));
    }

    #[test]
    fn sample_spans_interval() {
        let pts = iv(0.0, 10.0).sample(5);
        assert_eq!(pts, vec![0.0, 2.5, 5.0, 7.5, 10.0]);
        assert_eq!(Interval::singleton(4.0).sample(3), vec![4.0]);
    }

    #[test]
    fn clamp_projects_into_interval() {
        let a = iv(1.0, 2.0);
        assert_eq!(a.clamp(0.0), 1.0);
        assert_eq!(a.clamp(1.5), 1.5);
        assert_eq!(a.clamp(9.0), 2.0);
    }

    #[test]
    fn display_shows_bounds() {
        assert_eq!(iv(0.0, 0.5).to_string(), "[0.000000, 0.500000]");
        assert_eq!(Interval::EMPTY.to_string(), "{}");
    }
}
