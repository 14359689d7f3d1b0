//! Typed errors for the store: a corrupted, truncated or incompatible file
//! always yields one of these — never a panic, never garbage data.

use std::fmt;

/// Errors raised while writing, opening or serving a store.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O operation failed.
    Io(std::io::Error),
    /// The file does not start with the store magic — not a polygamy store.
    BadMagic,
    /// The file's format version is not supported by this build.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The file ends before a structure it promises (header, manifest or a
    /// segment range points past EOF).
    Truncated {
        /// Which structure was cut short.
        what: String,
    },
    /// Stored checksum does not match the bytes on disk.
    ChecksumMismatch {
        /// Which structure failed verification.
        what: String,
    },
    /// The bytes verified but do not decode to a valid structure.
    Corrupt(String),
    /// A requested data set is not in the store's catalog.
    UnknownDataset(String),
    /// A shard of a sharded store could not be opened (missing, truncated
    /// or corrupt shard file) and a query's footprint touches it. Shards
    /// that opened cleanly keep serving; only queries touching this shard
    /// fail, and they keep failing with this same error until the shard
    /// file is restored.
    ShardUnavailable {
        /// Index of the shard in the shard catalog.
        shard: usize,
        /// Shard file name as recorded in the catalog.
        file: String,
        /// Why the shard failed to open, rendered from the underlying
        /// open error.
        reason: String,
    },
    /// A query against a loaded session failed.
    Query(polygamy_core::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::BadMagic => write!(f, "not a polygamy store (bad magic)"),
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported store version {found} (this build supports {supported})"
            ),
            StoreError::Truncated { what } => write!(f, "store file truncated at {what}"),
            StoreError::ChecksumMismatch { what } => {
                write!(f, "checksum mismatch in {what} (file is corrupted)")
            }
            StoreError::Corrupt(msg) => write!(f, "corrupt store: {msg}"),
            StoreError::UnknownDataset(name) => {
                write!(f, "data set not in store catalog: {name}")
            }
            StoreError::ShardUnavailable {
                shard,
                file,
                reason,
            } => {
                write!(f, "shard {shard} ({file}) unavailable: {reason}")
            }
            StoreError::Query(e) => write!(f, "query error: {e}"),
        }
    }
}

impl StoreError {
    /// This error with `label` put before what it names: how a read that
    /// formats no label while it succeeds names its segment once it fails.
    pub(crate) fn labelled(self, label: &str) -> Self {
        let labelled = |what: String| label.to_owned() + &what;
        match self {
            StoreError::Truncated { what } => StoreError::Truncated {
                what: labelled(what),
            },
            StoreError::ChecksumMismatch { what } => StoreError::ChecksumMismatch {
                what: labelled(what),
            },
            StoreError::Corrupt(msg) => StoreError::Corrupt(labelled(msg)),
            other => other,
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Query(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<polygamy_core::Error> for StoreError {
    fn from(e: polygamy_core::Error) -> Self {
        StoreError::Query(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, StoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(StoreError::BadMagic.to_string().contains("magic"));
        let v = StoreError::UnsupportedVersion {
            found: 9,
            supported: 1,
        };
        assert!(v.to_string().contains('9'));
        assert!(StoreError::Truncated {
            what: "manifest".into()
        }
        .to_string()
        .contains("manifest"));
        assert!(StoreError::ChecksumMismatch {
            what: "segment 3".into()
        }
        .to_string()
        .contains("segment 3"));
        assert!(StoreError::UnknownDataset("taxi".into())
            .to_string()
            .contains("taxi"));
        let s = StoreError::ShardUnavailable {
            shard: 2,
            file: "corpus.shard2.plst".into(),
            reason: "i/o error".into(),
        }
        .to_string();
        assert!(s.contains("shard 2") && s.contains("corpus.shard2.plst"));
    }
}
