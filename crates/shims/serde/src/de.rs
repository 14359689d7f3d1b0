//! Deserialization half of the shim: serde-shaped traits over [`Content`].

use crate::content::Content;
use std::fmt::Display;
use std::marker::PhantomData;

/// Error trait for deserializers (mirrors `serde::de::Error`).
pub trait Error: Sized + Display {
    /// Builds an error from a message.
    fn custom<T: Display>(msg: T) -> Self;
}

/// The concrete deserialization error.
#[derive(Debug, Clone)]
pub struct DeError(pub String);

impl Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

impl Error for DeError {
    fn custom<T: Display>(msg: T) -> Self {
        DeError(msg.to_string())
    }
}

/// A data format that can hand out borrowed [`Content`].
///
/// Unlike real serde there is no visitor machinery: the shim's data model is
/// always a self-describing `Content` tree, so deserializers simply expose
/// it and `Deserialize` impls pattern-match.
pub trait Deserializer<'de>: Sized {
    /// Error type.
    type Error: Error;

    /// Returns the content tree to deserialize from.
    fn content(self) -> Result<&'de Content, Self::Error>;
}

/// A value constructible from any [`Deserializer`].
pub trait Deserialize<'de>: Sized {
    /// Deserializes `Self` from the given deserializer.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// The workhorse deserializer: wraps borrowed [`Content`] with a caller
/// chosen error type so derived code can thread `D::Error` through.
pub struct ContentDeserializer<'de, E> {
    content: &'de Content,
    _marker: PhantomData<fn() -> E>,
}

impl<'de, E> ContentDeserializer<'de, E> {
    /// Wraps borrowed content.
    pub fn new(content: &'de Content) -> Self {
        Self {
            content,
            _marker: PhantomData,
        }
    }
}

impl<'de, E: Error> Deserializer<'de> for ContentDeserializer<'de, E> {
    type Error = E;

    fn content(self) -> Result<&'de Content, E> {
        Ok(self.content)
    }
}

fn unexpected<E: Error>(expected: &str, got: &Content) -> E {
    E::custom(format!("expected {expected}, got {}", got.kind()))
}

macro_rules! impl_deserialize_int {
    ($($t:ty),* $(,)?) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                let c = deserializer.content()?;
                let out = match c {
                    Content::I64(i) => <$t>::try_from(*i).ok(),
                    Content::U64(u) => <$t>::try_from(*u).ok(),
                    Content::F64(f) if f.fract() == 0.0 => {
                        <$t>::try_from(*f as i64).ok()
                    }
                    _ => return Err(unexpected(stringify!($t), c)),
                };
                out.ok_or_else(|| {
                    D::Error::custom(format!("integer out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}

impl_deserialize_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.content()? {
            Content::Bool(b) => Ok(*b),
            c => Err(unexpected("bool", c)),
        }
    }
}

impl<'de> Deserialize<'de> for f64 {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.content()? {
            Content::F64(f) => Ok(*f),
            Content::I64(i) => Ok(*i as f64),
            Content::U64(u) => Ok(*u as f64),
            // NaN serializes as null; restore it.
            Content::Null => Ok(f64::NAN),
            c => Err(unexpected("float", c)),
        }
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.content()? {
            Content::Str(s) => Ok(s.clone()),
            c => Err(unexpected("string", c)),
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.content()? {
            Content::Null => Ok(None),
            c => T::deserialize(ContentDeserializer::<D::Error>::new(c)).map(Some),
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.content()? {
            Content::Seq(items) => items
                .iter()
                .map(|c| T::deserialize(ContentDeserializer::<D::Error>::new(c)))
                .collect(),
            c => Err(unexpected("sequence", c)),
        }
    }
}

impl<'de, V: Deserialize<'de>> Deserialize<'de> for std::collections::BTreeMap<String, V> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.content()? {
            Content::Map(fields) => fields
                .iter()
                .map(|(k, v)| {
                    let value = V::deserialize(ContentDeserializer::<D::Error>::new(v))?;
                    Ok((k.clone(), value))
                })
                .collect(),
            c => Err(unexpected("map", c)),
        }
    }
}
