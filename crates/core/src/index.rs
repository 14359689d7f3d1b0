//! The polygamy index: catalog of data sets, scalar functions and their
//! precomputed features (paper Section 5.2).
//!
//! For every data set, scalar functions are computed at every viable
//! spatio-temporal resolution; each function gets a merge-tree pass that
//! derives thresholds and precomputes salient and extreme feature sets.
//! Queries touch only this index — never the raw data — which is what makes
//! relationship evaluation independent of input size (paper Section 6.1).

use crate::error::{Error, Result};
use crate::function::FunctionSpec;
use polygamy_stdata::{DatasetMeta, Resolution, ScalarField};
use polygamy_topology::{FeatureSets, SeasonalThresholds};

/// Catalog entry for one data set (the paper's Table 1 row).
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetEntry {
    /// Data set metadata.
    pub meta: DatasetMeta,
    /// Number of raw records.
    pub n_records: usize,
    /// Approximate raw size in bytes.
    pub raw_bytes: usize,
    /// Number of scalar-function specs derived from this data set.
    pub n_specs: usize,
}

/// One indexed scalar function at one resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionEntry {
    /// What this function computes.
    pub spec: FunctionSpec,
    /// Index into [`PolygamyIndex::datasets`].
    pub dataset_index: usize,
    /// Resolution of the field.
    pub resolution: Resolution,
    /// Number of spatial regions.
    pub n_regions: usize,
    /// First temporal bucket (global numbering).
    pub start_bucket: i64,
    /// Number of time steps.
    pub n_steps: usize,
    /// Precomputed salient + extreme features.
    pub features: FeatureSets,
    /// The per-seasonal-interval thresholds that produced them.
    pub thresholds: SeasonalThresholds,
    /// The scalar field a `thresholds` clause evaluates the user's thresholds
    /// on. Indexing always produces it; `None` on an entry a lazy session
    /// pinned hot-only, or read from a store written without its field blob.
    pub field: Option<ScalarField>,
    /// Merge-tree size (join + split critical points) — index statistics.
    pub tree_nodes: usize,
}

impl FunctionEntry {
    /// Overlapping bucket window with another entry at the same resolution,
    /// as `(start_bucket, n_steps)`; `None` when disjoint or resolutions
    /// differ.
    pub fn overlap(&self, other: &FunctionEntry) -> Option<(i64, usize)> {
        if self.resolution != other.resolution || self.n_regions != other.n_regions {
            return None;
        }
        let start = self.start_bucket.max(other.start_bucket);
        let end = (self.start_bucket + self.n_steps as i64)
            .min(other.start_bucket + other.n_steps as i64);
        if end <= start {
            None
        } else {
            Some((start, (end - start) as usize))
        }
    }

    /// Vertex range `[lo, hi)` covering buckets `[start, start + len)` of
    /// this entry's field (time-major layout).
    pub fn vertex_range(&self, start: i64, len: usize) -> (usize, usize) {
        let z0 = (start - self.start_bucket) as usize;
        (z0 * self.n_regions, (z0 + len) * self.n_regions)
    }

    /// Bytes used by the precomputed feature sets.
    pub fn feature_bytes(&self) -> usize {
        self.features.approx_bytes()
    }
}

/// Aggregate statistics of an index (paper Section 5.4 space accounting).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IndexStats {
    /// Data sets indexed.
    pub n_datasets: usize,
    /// (function, resolution) entries.
    pub n_functions: usize,
    /// Total raw input bytes.
    pub raw_bytes: usize,
    /// Bytes of stored scalar fields.
    pub field_bytes: usize,
    /// Bytes of precomputed feature bit vectors.
    pub feature_bytes: usize,
    /// Total merge-tree critical points.
    pub tree_nodes: usize,
}

/// The full index.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PolygamyIndex {
    /// Data set catalog.
    pub datasets: Vec<DatasetEntry>,
    /// All (function, resolution) entries.
    pub functions: Vec<FunctionEntry>,
}

/// A borrowed, possibly partial view of an index: the full catalog plus
/// any subset of function entries.
///
/// The read path ([`crate::run_query_many`], the flat executor) only ever
/// needs the catalog and the entries a query's task expansion touches, so
/// a caller that pages entries in on demand — `polygamy_store`'s lazy
/// sessions — can pin just those entries and evaluate without ever
/// materializing a whole [`PolygamyIndex`]. A fully materialized index is
/// the same thing with every entry present: `IndexView::from(&index)`.
///
/// **Determinism contract:** `entries` must be in a canonical order that
/// does not depend on which subset is present (e.g. the store's manifest
/// order, or [`PolygamyIndex::functions`] order). Task expansion iterates
/// entries in the order given here; a subset presented in the same
/// relative order as the full set therefore expands to the same task list
/// and produces byte-identical results.
#[derive(Debug)]
pub struct IndexView<'a> {
    datasets: &'a [DatasetEntry],
    entries: Vec<&'a FunctionEntry>,
}

impl<'a> IndexView<'a> {
    /// A view over an explicit catalog and entry subset (see the
    /// determinism contract on [`IndexView`]).
    pub fn new(datasets: &'a [DatasetEntry], entries: Vec<&'a FunctionEntry>) -> Self {
        Self { datasets, entries }
    }

    /// The data set catalog.
    pub fn datasets(&self) -> &'a [DatasetEntry] {
        self.datasets
    }

    /// Index of a data set by name.
    pub fn dataset_index(&self, name: &str) -> Result<usize> {
        self.datasets
            .iter()
            .position(|d| d.meta.name == name)
            .ok_or_else(|| Error::UnknownDataset(name.to_string()))
    }

    /// The function entries of one data set, in view order.
    pub fn functions_of(
        &self,
        dataset_index: usize,
    ) -> impl Iterator<Item = &'a FunctionEntry> + '_ {
        self.entries
            .iter()
            .copied()
            .filter(move |f| f.dataset_index == dataset_index)
    }
}

/// The view of a fully materialized index: the whole catalog, every entry,
/// in [`PolygamyIndex::functions`] order.
impl<'a> From<&'a PolygamyIndex> for IndexView<'a> {
    fn from(index: &'a PolygamyIndex) -> Self {
        Self::new(&index.datasets, index.functions.iter().collect())
    }
}

impl PolygamyIndex {
    /// Index of a data set by name.
    pub fn dataset_index(&self, name: &str) -> Result<usize> {
        self.datasets
            .iter()
            .position(|d| d.meta.name == name)
            .ok_or_else(|| Error::UnknownDataset(name.to_string()))
    }

    /// All function entries belonging to a data set.
    pub fn functions_of(&self, dataset_index: usize) -> impl Iterator<Item = &FunctionEntry> {
        self.functions
            .iter()
            .filter(move |f| f.dataset_index == dataset_index)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            n_datasets: self.datasets.len(),
            n_functions: self.functions.len(),
            raw_bytes: self.datasets.iter().map(|d| d.raw_bytes).sum(),
            field_bytes: self
                .functions
                .iter()
                .filter_map(|f| f.field.as_ref().map(ScalarField::approx_bytes))
                .sum(),
            feature_bytes: self
                .functions
                .iter()
                .map(FunctionEntry::feature_bytes)
                .sum(),
            tree_nodes: self.functions.iter().map(|f| f.tree_nodes).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygamy_stdata::{SpatialResolution, TemporalResolution};
    use polygamy_topology::{FeatureSet, Thresholds};

    fn entry(start: i64, steps: usize) -> FunctionEntry {
        FunctionEntry {
            spec: FunctionSpec::density("d"),
            dataset_index: 0,
            resolution: Resolution::new(SpatialResolution::City, TemporalResolution::Hour),
            n_regions: 1,
            start_bucket: start,
            n_steps: steps,
            features: FeatureSets {
                salient: FeatureSet::empty(steps),
                extreme: FeatureSet::empty(steps),
            },
            thresholds: SeasonalThresholds {
                interval_of_step: vec![0; steps],
                interval_ids: vec![0],
                per_interval: vec![Thresholds::none()],
            },
            field: None,
            tree_nodes: 0,
        }
    }

    #[test]
    fn overlap_windows() {
        let a = entry(0, 100);
        let b = entry(50, 100);
        assert_eq!(a.overlap(&b), Some((50, 50)));
        assert_eq!(b.overlap(&a), Some((50, 50)));
        let c = entry(200, 10);
        assert_eq!(a.overlap(&c), None);
        // Identical windows.
        assert_eq!(a.overlap(&a), Some((0, 100)));
    }

    #[test]
    fn overlap_requires_same_resolution() {
        let a = entry(0, 100);
        let mut b = entry(0, 100);
        b.resolution = Resolution::new(SpatialResolution::City, TemporalResolution::Day);
        assert_eq!(a.overlap(&b), None);
    }

    #[test]
    fn vertex_ranges() {
        let mut a = entry(10, 100);
        a.n_regions = 4;
        assert_eq!(a.vertex_range(10, 100), (0, 400));
        assert_eq!(a.vertex_range(20, 5), (40, 60));
    }

    #[test]
    fn catalog_lookup_and_stats() {
        let mut idx = PolygamyIndex::default();
        idx.datasets.push(DatasetEntry {
            meta: DatasetMeta {
                name: "taxi".into(),
                spatial_resolution: SpatialResolution::Gps,
                temporal_resolution: TemporalResolution::Hour,
                description: String::new(),
            },
            n_records: 10,
            raw_bytes: 320,
            n_specs: 1,
        });
        idx.functions.push(entry(0, 10));
        assert_eq!(idx.dataset_index("taxi").unwrap(), 0);
        assert!(idx.dataset_index("nope").is_err());
        assert_eq!(idx.functions_of(0).count(), 1);
        let stats = idx.stats();
        assert_eq!(stats.n_datasets, 1);
        assert_eq!(stats.n_functions, 1);
        assert_eq!(stats.raw_bytes, 320);
    }
}
