//! Arithmetic expressions over design properties.
//!
//! Constraints in the paper are relations over properties, e.g. the
//! receiver power budget `P_f + P_s <= P_M`. This module provides the
//! expression trees those relations are built from, with three evaluation
//! modes used throughout the crate:
//!
//! * **point evaluation** ([`Expr::eval_point`]) — the verification-operator
//!   path (a "tool run" on bound values);
//! * **interval evaluation** ([`Expr::eval_interval`]) — the Design
//!   Constraint Manager's conservative status computation;
//! * **symbolic differentiation** ([`Expr::diff`]) — powers monotonicity
//!   inference for the direction-aware repair heuristic (paper §3.1.1).
//!
//! The propagation hot path does not interpret these trees: the network
//! lowers each constraint once, when it is added or relaxed, to a flat
//! postfix program that replays the interpreter's forward/backward HC4
//! passes allocation-free — see `docs/PERFORMANCE.md` for the cost model.
//!
//! Expressions are built with [`var`]/[`cst`] plus standard operators:
//!
//! ```
//! use adpm_constraint::{expr::{var, cst}, PropertyId};
//! let pf = PropertyId::new(0);
//! let ps = PropertyId::new(1);
//! let budget = var(pf) + var(ps); // P_f + P_s
//! assert_eq!(budget.variables(), vec![pf, ps]);
//! ```

use crate::ids::PropertyId;
use crate::interval::Interval;
use std::fmt;

/// An arithmetic expression over design properties.
///
/// See the [module documentation](self) for usage.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A numeric literal.
    Const(f64),
    /// A reference to a design property's value.
    Var(PropertyId),
    /// Negation `-e`.
    Neg(Box<Expr>),
    /// Absolute value `|e|`.
    Abs(Box<Expr>),
    /// Square root (undefined below zero).
    Sqrt(Box<Expr>),
    /// Exponential `e^x`.
    Exp(Box<Expr>),
    /// Natural logarithm (undefined at and below zero).
    Ln(Box<Expr>),
    /// Integer power `e^n`, `n >= 0`.
    Powi(Box<Expr>, i32),
    /// Sum of two subexpressions.
    Add(Box<Expr>, Box<Expr>),
    /// Difference of two subexpressions.
    Sub(Box<Expr>, Box<Expr>),
    /// Product of two subexpressions.
    Mul(Box<Expr>, Box<Expr>),
    /// Quotient of two subexpressions.
    Div(Box<Expr>, Box<Expr>),
    /// Pointwise minimum.
    Min(Box<Expr>, Box<Expr>),
    /// Pointwise maximum.
    Max(Box<Expr>, Box<Expr>),
}

/// Creates a variable reference expression.
pub fn var(id: PropertyId) -> Expr {
    Expr::Var(id)
}

/// Creates a constant expression.
pub fn cst(x: f64) -> Expr {
    Expr::Const(x)
}

impl Expr {
    /// Square root of this expression.
    pub fn sqrt(self) -> Expr {
        Expr::Sqrt(Box::new(self))
    }

    /// Absolute value of this expression.
    pub fn abs(self) -> Expr {
        Expr::Abs(Box::new(self))
    }

    /// Exponential of this expression.
    pub fn exp(self) -> Expr {
        Expr::Exp(Box::new(self))
    }

    /// Natural logarithm of this expression.
    pub fn ln(self) -> Expr {
        Expr::Ln(Box::new(self))
    }

    /// Integer power of this expression.
    ///
    /// # Panics
    ///
    /// Panics if `n` is negative; use `cst(1.0) / e.powi(n)` instead.
    pub fn powi(self, n: i32) -> Expr {
        assert!(n >= 0, "powi exponent must be non-negative");
        Expr::Powi(Box::new(self), n)
    }

    /// Pointwise minimum with another expression.
    pub fn min(self, other: Expr) -> Expr {
        Expr::Min(Box::new(self), Box::new(other))
    }

    /// Pointwise maximum with another expression.
    pub fn max(self, other: Expr) -> Expr {
        Expr::Max(Box::new(self), Box::new(other))
    }

    /// All distinct properties referenced, in ascending id order.
    pub fn variables(&self) -> Vec<PropertyId> {
        let mut out = Vec::new();
        self.collect_variables(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_variables(&self, out: &mut Vec<PropertyId>) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(id) => out.push(*id),
            Expr::Neg(e) | Expr::Abs(e) | Expr::Sqrt(e) | Expr::Exp(e) | Expr::Ln(e) => {
                e.collect_variables(out)
            }
            Expr::Powi(e, _) => e.collect_variables(out),
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Min(a, b)
            | Expr::Max(a, b) => {
                a.collect_variables(out);
                b.collect_variables(out);
            }
        }
    }

    /// Whether the expression references `id`.
    pub fn references(&self, id: PropertyId) -> bool {
        match self {
            Expr::Const(_) => false,
            Expr::Var(v) => *v == id,
            Expr::Neg(e) | Expr::Abs(e) | Expr::Sqrt(e) | Expr::Exp(e) | Expr::Ln(e) => {
                e.references(id)
            }
            Expr::Powi(e, _) => e.references(id),
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Min(a, b)
            | Expr::Max(a, b) => a.references(id) || b.references(id),
        }
    }

    /// Number of nodes in the expression tree (used by complexity caps).
    pub fn node_count(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Var(_) => 1,
            Expr::Neg(e) | Expr::Abs(e) | Expr::Sqrt(e) | Expr::Exp(e) | Expr::Ln(e) => {
                1 + e.node_count()
            }
            Expr::Powi(e, _) => 1 + e.node_count(),
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Min(a, b)
            | Expr::Max(a, b) => 1 + a.node_count() + b.node_count(),
        }
    }

    /// Evaluates the expression on concrete values.
    ///
    /// Undefined operations (e.g. `ln` of a negative) return NaN, matching
    /// `f64` semantics; callers treat NaN results as violated checks.
    pub fn eval_point<F: Fn(PropertyId) -> f64>(&self, lookup: &F) -> f64 {
        match self {
            Expr::Const(x) => *x,
            Expr::Var(id) => lookup(*id),
            Expr::Neg(e) => -e.eval_point(lookup),
            Expr::Abs(e) => e.eval_point(lookup).abs(),
            Expr::Sqrt(e) => e.eval_point(lookup).sqrt(),
            Expr::Exp(e) => e.eval_point(lookup).exp(),
            Expr::Ln(e) => e.eval_point(lookup).ln(),
            Expr::Powi(e, n) => e.eval_point(lookup).powi(*n),
            Expr::Add(a, b) => a.eval_point(lookup) + b.eval_point(lookup),
            Expr::Sub(a, b) => a.eval_point(lookup) - b.eval_point(lookup),
            Expr::Mul(a, b) => a.eval_point(lookup) * b.eval_point(lookup),
            Expr::Div(a, b) => a.eval_point(lookup) / b.eval_point(lookup),
            Expr::Min(a, b) => a.eval_point(lookup).min(b.eval_point(lookup)),
            Expr::Max(a, b) => a.eval_point(lookup).max(b.eval_point(lookup)),
        }
    }

    /// Evaluates the expression over property intervals, returning an
    /// interval guaranteed to contain every point result.
    pub fn eval_interval<F: Fn(PropertyId) -> Interval>(&self, lookup: &F) -> Interval {
        match self {
            Expr::Const(x) => Interval::singleton(*x),
            Expr::Var(id) => lookup(*id),
            Expr::Neg(e) => e.eval_interval(lookup).neg(),
            Expr::Abs(e) => e.eval_interval(lookup).abs(),
            Expr::Sqrt(e) => e.eval_interval(lookup).sqrt(),
            Expr::Exp(e) => e.eval_interval(lookup).exp(),
            Expr::Ln(e) => e.eval_interval(lookup).ln(),
            Expr::Powi(e, n) => e.eval_interval(lookup).powi(*n),
            Expr::Add(a, b) => a.eval_interval(lookup) + b.eval_interval(lookup),
            Expr::Sub(a, b) => a.eval_interval(lookup) - b.eval_interval(lookup),
            Expr::Mul(a, b) => a.eval_interval(lookup) * b.eval_interval(lookup),
            Expr::Div(a, b) => a.eval_interval(lookup) / b.eval_interval(lookup),
            Expr::Min(a, b) => a.eval_interval(lookup).min(&b.eval_interval(lookup)),
            Expr::Max(a, b) => a.eval_interval(lookup).max(&b.eval_interval(lookup)),
        }
    }

    /// Symbolic partial derivative with respect to `id`.
    ///
    /// `min`/`max`/`abs` are differentiated piecewise-conservatively: the
    /// result is only used to bound the derivative's *sign* over a box, so
    /// we return the hull-friendly `(a' + b')/2 ± ...` free form is avoided
    /// and instead kink operators differentiate as `0` when the sign is
    /// ambiguous (callers fall back to sampling in that case).
    pub fn diff(&self, id: PropertyId) -> Expr {
        match self {
            Expr::Const(_) => cst(0.0),
            Expr::Var(v) => {
                if *v == id {
                    cst(1.0)
                } else {
                    cst(0.0)
                }
            }
            Expr::Neg(e) => Expr::Neg(Box::new(e.diff(id))).simplified(),
            Expr::Abs(_) | Expr::Min(_, _) | Expr::Max(_, _) => {
                // Non-smooth; monotonicity inference falls back to sampling.
                cst(0.0)
            }
            Expr::Sqrt(e) => {
                // d/dx sqrt(u) = u' / (2 sqrt(u))
                let u = e.as_ref().clone();
                (e.diff(id) / (cst(2.0) * u.sqrt())).simplified()
            }
            Expr::Exp(e) => {
                let u = e.as_ref().clone();
                (e.diff(id) * u.exp()).simplified()
            }
            Expr::Ln(e) => {
                let u = e.as_ref().clone();
                (e.diff(id) / u).simplified()
            }
            Expr::Powi(e, n) => {
                if *n == 0 {
                    cst(0.0)
                } else {
                    let u = e.as_ref().clone();
                    (cst(*n as f64) * u.powi(n - 1) * e.diff(id)).simplified()
                }
            }
            Expr::Add(a, b) => (a.diff(id) + b.diff(id)).simplified(),
            Expr::Sub(a, b) => (a.diff(id) - b.diff(id)).simplified(),
            Expr::Mul(a, b) => {
                let (ac, bc) = (a.as_ref().clone(), b.as_ref().clone());
                (a.diff(id) * bc + ac * b.diff(id)).simplified()
            }
            Expr::Div(a, b) => {
                let (ac, bc) = (a.as_ref().clone(), b.as_ref().clone());
                ((a.diff(id) * bc.clone() - ac * b.diff(id)) / bc.powi(2)).simplified()
            }
        }
    }

    /// Whether the expression contains a non-smooth operator (`abs`, `min`,
    /// `max`), whose symbolic derivative this module does not produce.
    pub fn has_kink(&self) -> bool {
        match self {
            Expr::Const(_) | Expr::Var(_) => false,
            Expr::Abs(_) | Expr::Min(_, _) | Expr::Max(_, _) => true,
            Expr::Neg(e) | Expr::Sqrt(e) | Expr::Exp(e) | Expr::Ln(e) => e.has_kink(),
            Expr::Powi(e, _) => e.has_kink(),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                a.has_kink() || b.has_kink()
            }
        }
    }

    /// Light constant folding; keeps derivative output readable and small.
    // Float literals in match patterns are a future-compat hazard, so the
    // equality guards stay despite clippy's preference.
    #[allow(clippy::redundant_guards)]
    pub fn simplified(self) -> Expr {
        match self {
            Expr::Neg(e) => match e.simplified() {
                Expr::Const(x) => cst(-x),
                Expr::Neg(inner) => *inner,
                other => Expr::Neg(Box::new(other)),
            },
            Expr::Add(a, b) => match (a.simplified(), b.simplified()) {
                (Expr::Const(x), Expr::Const(y)) => cst(x + y),
                (Expr::Const(x), other) | (other, Expr::Const(x)) if x == 0.0 => other,
                (x, y) => Expr::Add(Box::new(x), Box::new(y)),
            },
            Expr::Sub(a, b) => match (a.simplified(), b.simplified()) {
                (Expr::Const(x), Expr::Const(y)) => cst(x - y),
                (other, Expr::Const(x)) if x == 0.0 => other,
                (x, y) => Expr::Sub(Box::new(x), Box::new(y)),
            },
            Expr::Mul(a, b) => match (a.simplified(), b.simplified()) {
                (Expr::Const(x), Expr::Const(y)) => cst(x * y),
                (Expr::Const(c), _) | (_, Expr::Const(c)) if c == 0.0 => cst(0.0),
                (Expr::Const(c), other) | (other, Expr::Const(c)) if c == 1.0 => other,
                (x, y) => Expr::Mul(Box::new(x), Box::new(y)),
            },
            Expr::Div(a, b) => match (a.simplified(), b.simplified()) {
                (Expr::Const(x), Expr::Const(y)) if y != 0.0 => cst(x / y),
                (Expr::Const(x), _) if x == 0.0 => cst(0.0),
                (other, Expr::Const(x)) if x == 1.0 => other,
                (x, y) => Expr::Div(Box::new(x), Box::new(y)),
            },
            Expr::Powi(e, n) => match (e.simplified(), n) {
                (_, 0) => cst(1.0),
                (inner, 1) => inner,
                (Expr::Const(x), n) => cst(x.powi(n)),
                (inner, n) => Expr::Powi(Box::new(inner), n),
            },
            other => other,
        }
    }
}

impl std::ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        Expr::Div(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Neg(Box::new(self))
    }
}

impl From<f64> for Expr {
    fn from(x: f64) -> Expr {
        cst(x)
    }
}

impl From<PropertyId> for Expr {
    fn from(id: PropertyId) -> Expr {
        var(id)
    }
}

impl Expr {
    /// The expression written like its `Display` form, with each variable
    /// named by `name` instead of by its id.
    pub(crate) fn display_named<'a>(
        &'a self,
        name: &'a dyn Fn(PropertyId) -> &'a str,
    ) -> impl fmt::Display + 'a {
        Rendered {
            expr: self,
            name: Some(name),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Rendered {
            expr: self,
            name: None,
        }
        .fmt(f)
    }
}

/// An expression written with its variables named by `name`, or by their
/// ids when it is `None`.
struct Rendered<'a> {
    expr: &'a Expr,
    name: Option<&'a dyn Fn(PropertyId) -> &'a str>,
}

impl fmt::Display for Rendered<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sub = |expr| Rendered {
            expr,
            name: self.name,
        };
        match self.expr {
            Expr::Const(x) => write!(f, "{x}"),
            Expr::Var(id) => match self.name {
                Some(name) => f.write_str(name(*id)),
                None => write!(f, "{id}"),
            },
            Expr::Neg(e) => write!(f, "(-{})", sub(e)),
            Expr::Abs(e) => write!(f, "abs({})", sub(e)),
            Expr::Sqrt(e) => write!(f, "sqrt({})", sub(e)),
            Expr::Exp(e) => write!(f, "exp({})", sub(e)),
            Expr::Ln(e) => write!(f, "ln({})", sub(e)),
            Expr::Powi(e, n) => write!(f, "({})^{n}", sub(e)),
            Expr::Add(a, b) => write!(f, "({} + {})", sub(a), sub(b)),
            Expr::Sub(a, b) => write!(f, "({} - {})", sub(a), sub(b)),
            Expr::Mul(a, b) => write!(f, "({} * {})", sub(a), sub(b)),
            Expr::Div(a, b) => write!(f, "({} / {})", sub(a), sub(b)),
            Expr::Min(a, b) => write!(f, "min({}, {})", sub(a), sub(b)),
            Expr::Max(a, b) => write!(f, "max({}, {})", sub(a), sub(b)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PropertyId {
        PropertyId::new(i)
    }

    #[test]
    fn variables_are_sorted_and_deduped() {
        let e = var(p(3)) + var(p(1)) * var(p(3)) - cst(2.0);
        assert_eq!(e.variables(), vec![p(1), p(3)]);
        assert!(e.references(p(1)));
        assert!(!e.references(p(0)));
    }

    #[test]
    fn point_evaluation_matches_arithmetic() {
        let e = (var(p(0)) + var(p(1))) * cst(2.0) - var(p(0)).powi(2);
        let lookup = |id: PropertyId| if id == p(0) { 3.0 } else { 4.0 };
        assert_eq!(e.eval_point(&lookup), (3.0 + 4.0) * 2.0 - 9.0);
    }

    #[test]
    fn point_evaluation_unary_ops() {
        let lookup = |_: PropertyId| 4.0;
        assert_eq!(var(p(0)).sqrt().eval_point(&lookup), 2.0);
        assert_eq!((-var(p(0))).abs().eval_point(&lookup), 4.0);
        assert!((var(p(0)).ln().eval_point(&lookup) - 4.0f64.ln()).abs() < 1e-12);
        assert!((var(p(0)).exp().eval_point(&lookup) - 4.0f64.exp()).abs() < 1e-12);
        assert_eq!(var(p(0)).min(cst(1.0)).eval_point(&lookup), 1.0);
        assert_eq!(var(p(0)).max(cst(9.0)).eval_point(&lookup), 9.0);
    }

    #[test]
    fn interval_evaluation_encloses_point_results() {
        let e = var(p(0)) * var(p(1)) - var(p(0)).powi(2) / cst(2.0);
        let dom = |id: PropertyId| {
            if id == p(0) {
                Interval::new(-1.0, 2.0)
            } else {
                Interval::new(0.5, 3.0)
            }
        };
        let enclosure = e.eval_interval(&dom);
        for x in Interval::new(-1.0, 2.0).sample(9) {
            for y in Interval::new(0.5, 3.0).sample(9) {
                let v = e.eval_point(&|id| if id == p(0) { x } else { y });
                assert!(
                    enclosure.contains(v),
                    "{v} not in {enclosure} for x={x}, y={y}"
                );
            }
        }
    }

    #[test]
    fn derivative_of_polynomial() {
        // d/dx (x^2 + 3x) = 2x + 3
        let e = var(p(0)).powi(2) + cst(3.0) * var(p(0));
        let d = e.diff(p(0));
        for x in [-2.0, 0.0, 1.5, 10.0] {
            let got = d.eval_point(&|_| x);
            assert!((got - (2.0 * x + 3.0)).abs() < 1e-9, "x={x}, got={got}");
        }
    }

    #[test]
    fn derivative_of_quotient_and_transcendentals() {
        // d/dx (ln(x) / x) = (1 - ln x) / x^2
        let e = var(p(0)).ln() / var(p(0));
        let d = e.diff(p(0));
        for x in [0.5f64, 1.0, 2.0, 5.0] {
            let expect = (1.0 - x.ln()) / (x * x);
            let got = d.eval_point(&|_| x);
            assert!((got - expect).abs() < 1e-9, "x={x}");
        }
    }

    #[test]
    fn derivative_wrt_other_variable_is_zero() {
        let e = var(p(0)).powi(3) * cst(5.0);
        assert_eq!(e.diff(p(1)), cst(0.0));
    }

    #[test]
    fn derivative_of_sqrt_and_exp_chain() {
        // d/dx sqrt(2x) = 1/sqrt(2x)
        let e = (cst(2.0) * var(p(0))).sqrt();
        let d = e.diff(p(0));
        for x in [0.5f64, 2.0, 8.0] {
            let expect = 1.0 / (2.0 * x).sqrt();
            let got = d.eval_point(&|_| x);
            assert!((got - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn kink_detection() {
        assert!(var(p(0)).abs().has_kink());
        assert!(var(p(0)).min(cst(1.0)).has_kink());
        assert!(!(var(p(0)) + cst(1.0)).has_kink());
        assert!((var(p(0)).abs() + cst(1.0)).has_kink());
    }

    #[test]
    fn simplify_folds_constants_and_identities() {
        assert_eq!((cst(2.0) + cst(3.0)).simplified(), cst(5.0));
        assert_eq!((var(p(0)) + cst(0.0)).simplified(), var(p(0)));
        assert_eq!((cst(0.0) * var(p(0))).simplified(), cst(0.0));
        assert_eq!((cst(1.0) * var(p(0))).simplified(), var(p(0)));
        assert_eq!((var(p(0)) - cst(0.0)).simplified(), var(p(0)));
        assert_eq!(var(p(0)).powi(1).simplified(), var(p(0)));
        assert_eq!(var(p(0)).powi(0).simplified(), cst(1.0));
        assert_eq!((-(-var(p(0)))).simplified(), var(p(0)));
    }

    #[test]
    fn node_count_counts_all_nodes() {
        assert_eq!(cst(1.0).node_count(), 1);
        assert_eq!((var(p(0)) + cst(1.0)).node_count(), 3);
        assert_eq!(var(p(0)).sqrt().node_count(), 2);
    }

    #[test]
    fn display_is_parenthesized() {
        let e = (var(p(0)) + cst(1.0)) * var(p(1));
        assert_eq!(e.to_string(), "((p0 + 1) * p1)");
    }

    #[test]
    fn conversions_from_f64_and_id() {
        assert_eq!(Expr::from(2.5), cst(2.5));
        assert_eq!(Expr::from(p(7)), var(p(7)));
    }
}
