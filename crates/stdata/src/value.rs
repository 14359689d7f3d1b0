//! Attribute values.
//!
//! The framework operates on numerical attributes (paper Section 5.1);
//! non-numerical attributes are mapped to numbers upstream (Section 8).
//! Inside a [`crate::Dataset`], attribute columns are stored as `f64` with
//! `NaN` encoding nulls; [`Value`] is the typed view used at the API surface.

use std::fmt;

/// A single attribute value of a record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Missing value.
    Null,
    /// A numeric value.
    Num(f64),
}

impl Value {
    /// The column encoding: `NaN` for null, the number otherwise.
    pub fn encode(self) -> f64 {
        match self {
            Value::Null => f64::NAN,
            Value::Num(v) => v,
        }
    }

    /// Decodes the column encoding back into a typed value.
    pub fn decode(raw: f64) -> Self {
        if raw.is_nan() {
            Value::Null
        } else {
            Value::Num(raw)
        }
    }

    /// True if the value is missing.
    pub fn is_null(self) -> bool {
        matches!(self, Value::Null)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        if v.is_nan() {
            Value::Null
        } else {
            Value::Num(v)
        }
    }
}

impl From<Option<f64>> for Value {
    fn from(v: Option<f64>) -> Self {
        match v {
            Some(v) => Value::from(v),
            None => Value::Null,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Num(v) => write!(f, "{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        assert_eq!(Value::decode(Value::Num(3.5).encode()), Value::Num(3.5));
        assert_eq!(Value::decode(Value::Null.encode()), Value::Null);
        assert_eq!(Value::from(f64::NAN), Value::Null);
        assert_eq!(Value::from(Some(2.0)), Value::Num(2.0));
        assert_eq!(Value::from(None), Value::Null);
    }

    #[test]
    fn accessors() {
        assert!(Value::Null.is_null());
        assert!(!Value::Num(1.0).is_null());
    }
}
