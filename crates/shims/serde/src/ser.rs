//! Serialization half of the shim: the serde-shaped traits a data format
//! implements (the `serde_json` shim's writer streams through them) and
//! the `Serialize` impls of the primitives the workspace uses.

use std::fmt::Display;

/// Error trait for serializers (mirrors `serde::ser::Error`).
pub trait Error: Sized + Display {
    /// Builds an error from a message.
    fn custom<T: Display>(msg: T) -> Self;
}

/// A data format that can serialize the shim's data model.
pub trait Serializer: Sized {
    /// Output of a successful serialization.
    type Ok;
    /// Error type.
    type Error: Error;
    /// Struct sub-serializer returned by [`Serializer::serialize_struct`].
    type SerializeStruct: SerializeStruct<Ok = Self::Ok, Error = Self::Error>;

    /// Serializes a `bool`.
    fn serialize_bool(self, v: bool) -> Result<Self::Ok, Self::Error>;
    /// Serializes a signed integer.
    fn serialize_i64(self, v: i64) -> Result<Self::Ok, Self::Error>;
    /// Serializes an unsigned integer.
    fn serialize_u64(self, v: u64) -> Result<Self::Ok, Self::Error>;
    /// Serializes a float (`NaN` becomes null).
    fn serialize_f64(self, v: f64) -> Result<Self::Ok, Self::Error>;
    /// Serializes a string slice.
    fn serialize_str(self, v: &str) -> Result<Self::Ok, Self::Error>;
    /// Serializes `Option::None`.
    fn serialize_none(self) -> Result<Self::Ok, Self::Error>;
    /// Serializes `Option::Some(value)` transparently.
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<Self::Ok, Self::Error>;
    /// Serializes a unit enum variant as its name.
    fn serialize_unit_variant(
        self,
        name: &'static str,
        variant_index: u32,
        variant: &'static str,
    ) -> Result<Self::Ok, Self::Error>;
    /// Serializes everything an iterator yields as a sequence.
    fn collect_seq<I>(self, iter: I) -> Result<Self::Ok, Self::Error>
    where
        I: IntoIterator,
        I::Item: Serialize;
    /// Serializes string-keyed pairs as a map.
    fn collect_map<K, V, I>(self, iter: I) -> Result<Self::Ok, Self::Error>
    where
        K: Serialize,
        V: Serialize,
        I: IntoIterator<Item = (K, V)>;
    /// Begins serializing a struct with `len` fields.
    fn serialize_struct(
        self,
        name: &'static str,
        len: usize,
    ) -> Result<Self::SerializeStruct, Self::Error>;
}

/// Field-by-field struct serialization (mirrors `serde::ser::SerializeStruct`).
pub trait SerializeStruct {
    /// Output of a successful serialization.
    type Ok;
    /// Error type.
    type Error: Error;

    /// Serializes one named field.
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Self::Error>;
    /// Finishes the struct.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// A value serializable by any [`Serializer`].
pub trait Serialize {
    /// Serializes `self` into the given serializer.
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

macro_rules! impl_serialize_int {
    ($($t:ty => $method:ident as $as:ty),* $(,)?) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.$method(*self as $as)
            }
        }
    )*};
}

impl_serialize_int! {
    i8 => serialize_i64 as i64,
    i16 => serialize_i64 as i64,
    i32 => serialize_i64 as i64,
    i64 => serialize_i64 as i64,
    isize => serialize_i64 as i64,
    u8 => serialize_u64 as u64,
    u16 => serialize_u64 as u64,
    u32 => serialize_u64 as u64,
    u64 => serialize_u64 as u64,
    usize => serialize_u64 as u64,
}

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bool(*self)
    }
}

impl Serialize for f64 {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_f64(*self)
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (*self).serialize(serializer)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            Some(v) => serializer.serialize_some(v),
            None => serializer.serialize_none(),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_seq(self.iter())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_seq(self.iter())
    }
}

impl<K: Serialize, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_map(self.iter())
    }
}
