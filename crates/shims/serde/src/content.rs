//! The self-describing value tree of the deserialization side.

/// A parsed value: the JSON data model plus an integer fast path.
///
/// A format's parser produces a `Content` tree and deserializers read it;
/// serialization never builds one (values stream through
/// [`crate::Serializer`]). `NaN` floats serialize as `null` (JSON has no
/// NaN) and [`Content::Null`] deserializes back to NaN for float targets,
/// so values with undefined points round-trip.
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    I64(i64),
    /// An unsigned integer (kept separate to round-trip `u64 > i64::MAX`).
    U64(u64),
    /// A float.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Seq(Vec<Content>),
    /// An object, in insertion order.
    Map(Vec<(String, Content)>),
}

impl Content {
    /// A short human-readable label for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Content::Null => "null",
            Content::Bool(_) => "bool",
            Content::I64(_) | Content::U64(_) => "integer",
            Content::F64(_) => "float",
            Content::Str(_) => "string",
            Content::Seq(_) => "sequence",
            Content::Map(_) => "map",
        }
    }
}
