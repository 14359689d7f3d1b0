//! Minimal, self-contained stand-in for the `serde` crate.
//!
//! The container this repository builds in has no crates.io access, so the
//! workspace vendors a small data-model-compatible subset of serde: the
//! `Serialize`/`Deserialize` traits, the `Serializer` trait a format's
//! writer implements (values stream through it; no tree is built), a
//! concrete [`Content`] tree a format's parser produces and the
//! deserializers consume, and re-exported derive macros from the sibling
//! `serde_derive` shim. The subset covers exactly
//! the idioms this workspace uses — derived named-field structs and
//! unit-variant enums over `bool`, the integers, `f64`, `String`,
//! `Option`, `Vec`/slices and `BTreeMap<String, _>` — and is consumed by
//! the `serde_json` shim for text encoding and decoding.
//!
//! Not supported (by design): zero-copy borrowing, visitors, non-self
//! describing formats, tuples, data-carrying enum variants, every
//! `#[serde(...)]` attribute.

pub mod content;
pub mod de;
pub mod ser;

pub use content::Content;
pub use de::{Deserialize, Deserializer};
pub use ser::{Serialize, Serializer};
pub use serde_derive::{Deserialize, Serialize};

/// Support machinery used by `serde_derive`-generated code. Not public API.
pub mod __private {
    pub use crate::content::Content;
    pub use crate::de::{ContentDeserializer, Error as DeErrorTrait};

    /// Looks up a struct field in a deserialized map.
    pub fn find<'a>(map: &'a [(String, Content)], key: &str) -> Option<&'a Content> {
        map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Wraps borrowed content in a deserializer with the caller's error type.
    pub fn cd<E>(content: &Content) -> ContentDeserializer<'_, E> {
        ContentDeserializer::new(content)
    }
}
