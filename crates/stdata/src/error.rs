//! Error type shared by the stdata substrate.

use std::fmt;

/// Errors raised by the spatio-temporal data substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// An attribute name was looked up that the data set does not define.
    UnknownAttribute(String),
    /// Records were added whose attribute count does not match the schema.
    SchemaMismatch {
        /// Attribute count the data set schema declares.
        expected: usize,
        /// Attribute count the offending record carried.
        found: usize,
    },
    /// A data set contained no records inside the requested window.
    EmptyDomain,
    /// A polygon or partition was structurally invalid.
    InvalidGeometry(String),
    /// A time range was empty or inverted, or spans more cells than a
    /// binning can number (`u32`).
    InvalidTimeRange {
        /// Inclusive start timestamp.
        start: i64,
        /// Exclusive end timestamp.
        end: i64,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownAttribute(name) => write!(f, "unknown attribute: {name}"),
            Error::SchemaMismatch { expected, found } => {
                write!(
                    f,
                    "schema mismatch: expected {expected} attributes, found {found}"
                )
            }
            Error::EmptyDomain => write!(f, "data set has no records in the requested domain"),
            Error::InvalidGeometry(msg) => write!(f, "invalid geometry: {msg}"),
            Error::InvalidTimeRange { start, end } => {
                write!(f, "invalid time range: [{start}, {end})")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used across the substrate.
pub type Result<T> = std::result::Result<T, Error>;
