//! Framework-level errors.

use std::fmt;

/// Errors raised by the Data Polygamy framework.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The substrate rejected the data.
    Data(polygamy_stdata::Error),
    /// A data set name was not found in the index.
    UnknownDataset(String),
    /// The index has not been built yet.
    IndexNotBuilt,
    /// An indexed function sits at a spatial resolution the geometry has no
    /// partition for (an index/geometry mismatch, e.g. a store file whose
    /// geometry was saved without the partition its segments require).
    MissingGeometry(polygamy_stdata::SpatialResolution),
    /// The geometry's partition at a spatial resolution has another region
    /// count than an indexed function at that resolution was built over (an
    /// index/geometry mismatch, e.g. a store file with another city's geometry).
    GeometryMismatch {
        /// The spatial resolution both sides claim.
        resolution: polygamy_stdata::SpatialResolution,
        /// Regions in the geometry's partition.
        geometry_regions: usize,
        /// Regions the indexed function was built over.
        function_regions: usize,
    },
    /// A `thresholds` clause names the data set of this function, which has
    /// no stored scalar field to evaluate the thresholds on (e.g. a store
    /// written without field blobs).
    MissingField(crate::function::FunctionRef),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Data(e) => write!(f, "data error: {e}"),
            Error::UnknownDataset(name) => write!(f, "unknown data set: {name}"),
            Error::IndexNotBuilt => write!(f, "index not built; call build_index() first"),
            Error::MissingGeometry(r) => write!(
                f,
                "no geometry partition for spatial resolution '{}' required by an indexed function",
                r.label()
            ),
            Error::GeometryMismatch {
                resolution,
                geometry_regions,
                function_regions,
            } => write!(
                f,
                "the geometry partition for spatial resolution '{resolution}' has \
                 {geometry_regions} region(s), but an indexed function was built over \
                 {function_regions}"
            ),
            Error::MissingField(function) => write!(
                f,
                "thresholds clause names data set {}, but {function} has no stored scalar \
                 field to evaluate them on",
                function.dataset
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<polygamy_stdata::Error> for Error {
    fn from(e: polygamy_stdata::Error) -> Self {
        Error::Data(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(Error::UnknownDataset("x".into()).to_string().contains("x"));
        assert!(Error::IndexNotBuilt.to_string().contains("build_index"));
        assert!(
            Error::MissingGeometry(polygamy_stdata::SpatialResolution::Zip)
                .to_string()
                .contains("zip")
        );
        let wrapped = Error::from(polygamy_stdata::Error::EmptyDomain);
        assert!(wrapped.to_string().contains("data error"));
    }
}
