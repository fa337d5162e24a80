//! Error types for the constraint network.

use crate::ids::{ConstraintId, PropertyId};
use crate::value::Value;
use std::error::Error;
use std::fmt;

/// Errors produced by [`ConstraintNetwork`](crate::ConstraintNetwork)
/// operations.
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkError {
    /// A property id does not belong to this network.
    UnknownProperty(PropertyId),
    /// A constraint id does not belong to this network.
    UnknownConstraint(ConstraintId),
    /// A property with this name already exists on the same design object.
    DuplicateProperty(String),
    /// A value was bound to a property whose domain cannot hold it.
    ValueOutsideDomain {
        /// The property being bound.
        property: PropertyId,
        /// The offending value.
        value: Value,
    },
    /// A value's kind (number/text/bool) does not match the domain's kind.
    KindMismatch {
        /// The property being bound.
        property: PropertyId,
        /// Kind of the offending value.
        value_kind: &'static str,
    },
    /// A constraint references a property id the network does not contain.
    DanglingReference {
        /// The offending constraint name.
        constraint: String,
        /// The unknown property id.
        property: PropertyId,
    },
    /// A symbolic (text/bool) property was used inside an arithmetic
    /// expression.
    NonNumericArgument {
        /// The offending constraint name.
        constraint: String,
        /// The non-numeric property.
        property: PropertyId,
    },
    /// A relaxation rewrite was unlawful for the targeted constraint.
    Relax {
        /// The constraint the relaxation targeted.
        constraint: String,
        /// Why the rewrite was rejected.
        source: crate::constraint::RelaxError,
    },
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::UnknownProperty(id) => write!(f, "unknown property {id}"),
            NetworkError::UnknownConstraint(id) => write!(f, "unknown constraint {id}"),
            NetworkError::DuplicateProperty(name) => {
                write!(f, "property `{name}` already exists on this object")
            }
            NetworkError::ValueOutsideDomain { property, value } => {
                write!(f, "value {value} is outside the domain of {property}")
            }
            NetworkError::KindMismatch {
                property,
                value_kind,
            } => write!(
                f,
                "cannot bind a {value_kind} value to {property}: domain kind differs"
            ),
            NetworkError::DanglingReference {
                constraint,
                property,
            } => write!(
                f,
                "constraint `{constraint}` references unknown property {property}"
            ),
            NetworkError::NonNumericArgument {
                constraint,
                property,
            } => write!(
                f,
                "constraint `{constraint}` uses non-numeric property {property} arithmetically"
            ),
            NetworkError::Relax { constraint, source } => {
                write!(f, "cannot relax constraint `{constraint}`: {source}")
            }
        }
    }
}

impl Error for NetworkError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_lowercase_without_trailing_punctuation() {
        let samples: Vec<NetworkError> = vec![
            NetworkError::UnknownProperty(PropertyId::new(1)),
            NetworkError::UnknownConstraint(ConstraintId::new(2)),
            NetworkError::DuplicateProperty("LNA-gain".into()),
            NetworkError::ValueOutsideDomain {
                property: PropertyId::new(0),
                value: Value::number(9.0),
            },
            NetworkError::KindMismatch {
                property: PropertyId::new(0),
                value_kind: "text",
            },
            NetworkError::DanglingReference {
                constraint: "c".into(),
                property: PropertyId::new(3),
            },
            NetworkError::NonNumericArgument {
                constraint: "c".into(),
                property: PropertyId::new(3),
            },
        ];
        for e in samples {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(!s.ends_with('.'), "{s}");
            assert!(
                s.chars().next().unwrap().is_lowercase() || s.starts_with("cannot"),
                "{s}"
            );
        }
    }

    #[test]
    fn error_is_std_error() {
        fn takes_error<E: Error>(_: E) {}
        takes_error(NetworkError::UnknownProperty(PropertyId::new(0)));
    }
}
