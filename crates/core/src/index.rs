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
use polygamy_topology::FeatureSets;
use std::ops::Range;
use std::sync::OnceLock;

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
    /// Precomputed salient + extreme features, region-major: bit
    /// `x · n_steps + z` is region `x` at step `z`.
    pub features: FeatureSets,
    /// The scalar field a `thresholds` clause evaluates the user's thresholds
    /// on. Indexing always produces it; `None` on an entry a lazy session
    /// pinned hot-only, or read from a store written without its field blob.
    pub field: Option<ScalarField>,
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
    /// this entry's time-major [`ScalarField`] (vertex `z · n_regions + x`).
    /// The feature sets are region-major: a window of steps is the same run
    /// in every row (`polygamy_topology::RowWindows`).
    ///
    /// # Panics
    ///
    /// If `start` is before the entry's first bucket.
    pub fn vertex_range(&self, start: i64, len: usize) -> (usize, usize) {
        let first = self.start_bucket;
        assert!(
            start >= first,
            "bucket {start} before the entry's first, {first}"
        );
        let z0 = (start - first) as usize;
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
/// each data set's entries in the order given here; a subset presented in
/// the same relative order as the full set therefore expands to the same
/// task list and produces byte-identical results.
///
/// The view groups the entries by data set once, at its first
/// [`IndexView::functions_of`] (a stable sort, which keeps the order given
/// within each data set, and none on the store's and the index's order,
/// which are grouped already), so that call hands out one data set's
/// entries without scanning the others' — and a batch the query cache
/// answers, which expands nothing, never groups them.
#[derive(Debug)]
pub struct IndexView<'a> {
    datasets: &'a [DatasetEntry],
    /// The entries, in the order given.
    entries: Vec<&'a FunctionEntry>,
    grouped: OnceLock<Grouped<'a>>,
}

/// A view's entries grouped by data set.
#[derive(Debug)]
struct Grouped<'a> {
    /// In the given order within each data set.
    entries: Vec<&'a FunctionEntry>,
    /// Data set `d`'s entries are `entries[starts[d]..starts[d + 1]]`.
    starts: Vec<usize>,
}

impl<'a> IndexView<'a> {
    /// A view over an explicit catalog and entry subset (see the
    /// determinism contract on [`IndexView`]).
    pub fn new(datasets: &'a [DatasetEntry], entries: Vec<&'a FunctionEntry>) -> Self {
        Self {
            datasets,
            entries,
            grouped: OnceLock::new(),
        }
    }

    fn grouped(&self) -> &Grouped<'a> {
        self.grouped.get_or_init(|| {
            let mut entries = self.entries.clone();
            if !entries.is_sorted_by_key(|e| e.dataset_index) {
                entries.sort_by_key(|e| e.dataset_index);
            }
            let groups = entries.last().map_or(0, |e| e.dataset_index + 1);
            let mut starts = vec![0; groups + 1];
            for e in &entries {
                starts[e.dataset_index + 1] += 1;
            }
            for d in 0..groups {
                starts[d + 1] += starts[d];
            }
            Grouped { entries, starts }
        })
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

    /// How many function entries the view holds.
    pub(crate) fn n_entries(&self) -> usize {
        self.entries.len()
    }

    /// The function entries of one data set, in view order.
    pub fn functions_of(&self, dataset_index: usize) -> &[&'a FunctionEntry] {
        &self.grouped().entries[self.positions_of(dataset_index)]
    }

    /// Where [`IndexView::functions_of`] sits among all the view's entries,
    /// `0..n_entries`: an entry's position is its identity for one
    /// dispatch.
    pub(crate) fn positions_of(&self, dataset_index: usize) -> Range<usize> {
        match self.grouped().starts.get(dataset_index..dataset_index + 2) {
            Some(&[start, end]) => start..end,
            _ => 0..0,
        }
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
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygamy_stdata::{SpatialResolution, TemporalResolution};
    use polygamy_topology::{BitVec, FeatureClass, FeatureSet, RowWindows};

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
            field: None,
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
        assert_eq!(a.vertex_range(110, 0), (400, 400));
    }

    #[test]
    #[should_panic(expected = "bucket 9 before the entry's first, 10")]
    fn a_vertex_range_before_the_entry_is_refused() {
        entry(10, 100).vertex_range(9, 1);
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

    #[test]
    fn a_view_hands_out_each_data_set_in_the_order_given() {
        // Entries of three data sets, interleaved and out of data set order;
        // `start_bucket` numbers them.
        let entries: Vec<FunctionEntry> = [2, 0, 2, 1, 0, 2, 0]
            .into_iter()
            .enumerate()
            .map(|(i, d)| FunctionEntry {
                dataset_index: d,
                ..entry(i as i64, 4)
            })
            .collect();
        for subset in [vec![0, 1, 2, 3, 4, 5, 6], vec![6, 5, 3, 1], vec![], vec![2]] {
            let given: Vec<&FunctionEntry> = subset.iter().map(|&i| &entries[i]).collect();
            let view = IndexView::new(&[], given.clone());
            for d in 0..5 {
                let filtered: Vec<i64> = (given.iter())
                    .filter(|e| e.dataset_index == d)
                    .map(|e| e.start_bucket)
                    .collect();
                let handed: Vec<i64> = view
                    .functions_of(d)
                    .iter()
                    .map(|e| e.start_bucket)
                    .collect();
                assert_eq!(handed, filtered, "data set {d} of {subset:?}");
            }
        }
    }

    /// An `n_regions × n_steps` entry whose four feature vectors take their
    /// bits from `words`, cycled.
    fn spatial_entry(n_regions: usize, n_steps: usize, words: &[u64]) -> FunctionEntry {
        let n = n_regions * n_steps;
        let bits = |salt: usize| {
            let mut bits = BitVec::zeros(n);
            for v in 0..n {
                let at = v + salt * n;
                if words[(at / 64) % words.len()] >> (at % 64) & 1 == 1 {
                    bits.set(v);
                }
            }
            bits
        };
        FunctionEntry {
            n_regions,
            features: FeatureSets {
                salient: FeatureSet {
                    pos: bits(0),
                    neg: bits(1),
                },
                extreme: FeatureSet {
                    pos: bits(2),
                    neg: bits(3),
                },
            },
            ..entry(0, n_steps)
        }
    }

    /// `set` re-laid time-major, one bit at a time: the layout of the
    /// entry's field, from the region-major one of its features.
    fn time_major(set: &FeatureSet, n_regions: usize, n_steps: usize) -> FeatureSet {
        let mut out = FeatureSet::empty(set.pos.len());
        for x in 0..n_regions {
            for z in 0..n_steps {
                let (from, to) = (x * n_steps + z, z * n_regions + x);
                if set.pos.get(from) {
                    out.pos.set(to);
                }
                if set.neg.get(from) {
                    out.neg.set(to);
                }
            }
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// A window of steps of the stored rows, row by row, is the same
        /// window cut from the time-major layout at `vertex_range` and
        /// re-laid region-major — what an operand reading its window of
        /// each stored row relies on.
        #[test]
        fn stored_rows_sliced_match_the_window_transposed(
            n_regions in 1usize..=70,
            n_steps in 1usize..200,
            from in 0usize..200,
            len in 1usize..200,
            words in proptest::collection::vec(0u64..u64::MAX, 1..12)
        ) {
            let e = spatial_entry(n_regions, n_steps, &words);
            let z0 = from % n_steps;
            let z1 = (z0 + len).min(n_steps);
            for class in FeatureClass::ALL {
                let stored = e.features.class(class);
                let rows = RowWindows::new(stored, n_regions, n_steps, z0, z1 - z0);
                proptest::prop_assert_eq!(rows.n_rows(), n_regions);
                let mut cropped = FeatureSet::empty(n_regions * (z1 - z0));
                for x in 0..n_regions {
                    let row = stored.slice(x * n_steps + z0, x * n_steps + z1);
                    for z in 0..z1 - z0 {
                        if row.pos.get(z) {
                            cropped.pos.set(x * (z1 - z0) + z);
                        }
                        if row.neg.get(z) {
                            cropped.neg.set(x * (z1 - z0) + z);
                        }
                    }
                    proptest::prop_assert_eq!(rows.row(x).count(), row.count());
                }
                let (lo, hi) = e.vertex_range(z0 as i64, z1 - z0);
                let window = time_major(stored, n_regions, n_steps).slice(lo, hi);
                proptest::prop_assert_eq!(&cropped, &window.region_major(n_regions, z1 - z0));
                proptest::prop_assert_eq!(rows.count(), window.count());
            }
        }
    }

    #[test]
    fn a_cloned_entry_reads_the_same_rows() {
        let entry = spatial_entry(3, 70, &[0x9E37_79B9_7F4A_7C15, 0x0123_4567_89AB_CDEF]);
        let copy = entry.clone();
        assert_eq!(copy, entry);
        assert_eq!(format!("{copy:?}"), format!("{entry:?}"));
        for class in FeatureClass::ALL {
            let (a, b) = (
                RowWindows::new(entry.features.class(class), 3, 70, 5, 60),
                RowWindows::new(copy.features.class(class), 3, 70, 5, 60),
            );
            assert_eq!(a.count(), b.count());
            assert_eq!(a.intersect(&b), b.intersect(&a));
            assert_eq!(a.intersect(&b).1, a.count());
        }
    }
}
