//! The end-to-end Data Polygamy framework (paper Section 5).
//!
//! [`DataPolygamy`] owns the city geometry, the raw data sets, the built
//! index and a query cache. Indexing runs the scalar-function and
//! feature-identification jobs per data set — incrementally, so adding a
//! data set to an indexed corpus only indexes the newcomer; queries run the
//! relationship operator over data set pairs with result caching.

use crate::cache::{QueryCache, DEFAULT_QUERY_CACHE_CAPACITY};
use crate::error::{Error, Result};
use crate::executor::run_query_many;
use crate::index::{DatasetEntry, FunctionEntry, PolygamyIndex};
use crate::pipeline::{compute_scalar_functions, identify_features};
use crate::query::RelationshipQuery;
use crate::relationship::Relationship;
use polygamy_mapreduce::Cluster;
use polygamy_stdata::{Dataset, SpatialPartition, SpatialResolution};
use std::time::Instant;

/// The polygon partitions of the city at each evaluable spatial resolution.
#[derive(Debug, Clone)]
pub struct CityGeometry {
    /// Zip-code partition (optional).
    pub zip: Option<SpatialPartition>,
    /// Neighborhood partition (optional).
    pub neighborhood: Option<SpatialPartition>,
    /// The whole-city partition (always present; single region).
    pub city: SpatialPartition,
}

impl CityGeometry {
    /// Geometry with only the city-scale region (1-D functions only).
    pub fn city_only(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        Self {
            zip: None,
            neighborhood: None,
            city: SpatialPartition::city(x0, y0, x1, y1),
        }
    }

    /// Partition for a spatial resolution (None for GPS — raw coordinates
    /// are never evaluated directly).
    pub fn partition(&self, r: SpatialResolution) -> Option<&SpatialPartition> {
        match r {
            SpatialResolution::Gps => None,
            SpatialResolution::Zip => self.zip.as_ref(),
            SpatialResolution::Neighborhood => self.neighborhood.as_ref(),
            SpatialResolution::City => Some(&self.city),
        }
    }

    /// Region adjacency for a spatial resolution.
    pub fn adjacency(&self, r: SpatialResolution) -> Option<&[Vec<u32>]> {
        self.partition(r).map(|p| p.adjacency.as_slice())
    }
}

/// Framework configuration: the worker pool the indexing jobs and the query
/// executor run on. Everything a relationship query's significance test
/// reads — the number of permutations, α and the permutation scheme — comes
/// from its [`Clause`](crate::query::Clause).
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Execution environment for the parallel jobs.
    pub cluster: Cluster,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            cluster: Cluster::host(),
        }
    }
}

impl Config {
    /// A configuration for fast deterministic tests: two workers.
    pub fn fast_test() -> Self {
        Self {
            cluster: Cluster::local(2),
        }
    }
}

/// Timing breakdown of one data set's indexing (Figure 8's quantities).
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetBuildStats {
    /// Data set name.
    pub name: String,
    /// Seconds in the scalar-function-computation job.
    pub scalar_secs: f64,
    /// Seconds in the feature-identification job.
    pub feature_secs: f64,
    /// (function, resolution) entries produced.
    pub n_functions: usize,
}

/// Report returned by [`DataPolygamy::build_index`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IndexBuildReport {
    /// Stats for the data sets indexed by *this* call (previously indexed
    /// data sets are reused, not re-run), in indexing order.
    pub per_dataset: Vec<DatasetBuildStats>,
    /// Total wall seconds.
    pub total_secs: f64,
}

/// Runs the two indexing jobs for a single data set, producing its catalog
/// entry, its function segments and the timing stats. This is the unit of
/// incremental maintenance: [`DataPolygamy::build_index`] calls it once per
/// *new* data set, and `polygamy-store`'s upsert calls it for the one data
/// set being replaced, leaving the rest of the corpus untouched.
pub fn index_dataset(
    config: &Config,
    geometry: &CityGeometry,
    dataset_index: usize,
    dataset: &Dataset,
) -> (DatasetEntry, Vec<FunctionEntry>, DatasetBuildStats) {
    let t0 = Instant::now();
    let fields = compute_scalar_functions(config.cluster, geometry, dataset);
    let scalar_secs = t0.elapsed().as_secs_f64();
    polygamy_obs::count(
        polygamy_obs::names::INDEX_STAGE_SCALAR_NS,
        (scalar_secs * 1e9) as u64,
    );
    let t1 = Instant::now();
    let entries = identify_features(config.cluster, geometry, dataset_index, fields);
    let feature_secs = t1.elapsed().as_secs_f64();
    let stats = DatasetBuildStats {
        name: dataset.meta.name.clone(),
        scalar_secs,
        feature_secs,
        n_functions: entries.len(),
    };
    let catalog = DatasetEntry {
        meta: dataset.meta.clone(),
        n_records: dataset.len(),
        raw_bytes: dataset.approx_bytes(),
        n_specs: crate::function::FunctionSpec::enumerate(dataset).len(),
    };
    (catalog, entries, stats)
}

/// The framework facade.
pub struct DataPolygamy {
    geometry: CityGeometry,
    config: Config,
    datasets: Vec<Dataset>,
    /// The (possibly partial) index; `datasets[..indexed]` are covered.
    index: PolygamyIndex,
    /// How many of `datasets` have been indexed so far.
    indexed: usize,
    /// Whether `build_index` has run at least once.
    built: bool,
    cache: QueryCache,
}

impl DataPolygamy {
    /// Creates an empty framework over a city geometry.
    pub fn new(geometry: CityGeometry, config: Config) -> Self {
        Self {
            geometry,
            config,
            datasets: Vec::new(),
            index: PolygamyIndex::default(),
            indexed: 0,
            built: false,
            cache: QueryCache::new(DEFAULT_QUERY_CACHE_CAPACITY),
        }
    }

    /// Registers a data set. The index becomes stale until the next
    /// [`DataPolygamy::build_index`], which indexes only the newcomers;
    /// entries already built are reused as-is.
    pub fn add_dataset(&mut self, dataset: Dataset) -> &mut Self {
        self.datasets.push(dataset);
        self
    }

    /// Unregisters a data set and drops its index entries without touching
    /// the rest of the corpus. Returns the removed raw data set.
    pub fn remove_dataset(&mut self, name: &str) -> Result<Dataset> {
        let pos = self
            .datasets
            .iter()
            .position(|d| d.meta.name == name)
            .ok_or_else(|| Error::UnknownDataset(name.to_string()))?;
        let removed = self.datasets.remove(pos);
        if pos < self.indexed {
            self.index.datasets.remove(pos);
            self.index.functions.retain(|f| f.dataset_index != pos);
            for f in &mut self.index.functions {
                if f.dataset_index > pos {
                    f.dataset_index -= 1;
                }
            }
            self.indexed -= 1;
            // Cached results are keyed by dataset position; removal shifts
            // positions, so everything cached is suspect.
            self.cache.clear();
        }
        Ok(removed)
    }

    /// Immutable access to a registered raw data set.
    pub fn dataset(&self, name: &str) -> Option<&Dataset> {
        self.datasets.iter().find(|d| d.meta.name == name)
    }

    /// The city geometry.
    pub fn geometry(&self) -> &CityGeometry {
        &self.geometry
    }

    /// The configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Runs the two indexing jobs over every data set not yet indexed,
    /// appending their entries to the existing index (incremental
    /// maintenance: data sets indexed by a previous call are not re-run).
    pub fn build_index(&mut self) -> IndexBuildReport {
        let total_start = Instant::now();
        let mut report = IndexBuildReport::default();
        for di in self.indexed..self.datasets.len() {
            let (catalog, entries, stats) =
                index_dataset(&self.config, &self.geometry, di, &self.datasets[di]);
            report.per_dataset.push(stats);
            self.index.datasets.push(catalog);
            self.index.functions.extend(entries);
        }
        self.indexed = self.datasets.len();
        self.built = true;
        report.total_secs = total_start.elapsed().as_secs_f64();
        report
    }

    /// The built index, or [`Error::IndexNotBuilt`] until the first
    /// [`DataPolygamy::build_index`] call or while any registered data set
    /// is still unindexed.
    pub fn index(&self) -> Result<&PolygamyIndex> {
        if self.built && self.indexed == self.datasets.len() {
            Ok(&self.index)
        } else {
            Err(Error::IndexNotBuilt)
        }
    }

    /// `relation(D1, D2)` with the default clause.
    pub fn relation(&self, d1: &str, d2: &str) -> Result<Vec<Relationship>> {
        self.query(&RelationshipQuery::between(&[d1], &[d2]))
    }

    /// Evaluates a relationship query on the flat executor — a batch of
    /// one through [`DataPolygamy::query_many`]: the query's pairs expand
    /// into one task list served by a single worker pool, so results are
    /// identical for any worker count.
    ///
    /// Pairs are deduplicated (the operator is symmetric up to swapping
    /// left/right); per-pair results are cached keyed by the clause.
    pub fn query(&self, query: &RelationshipQuery) -> Result<Vec<Relationship>> {
        Ok(self
            .query_many(std::slice::from_ref(query))?
            .pop()
            .unwrap_or_default())
    }

    /// Evaluates a batch of queries on one shared worker pool, amortising
    /// pool startup and deduplicating (pair, clause) evaluations across the
    /// batch. Returns one result vector per query, in input order; each is
    /// identical to what [`DataPolygamy::query`] returns for that query.
    pub fn query_many(&self, queries: &[RelationshipQuery]) -> Result<Vec<Vec<Relationship>>> {
        run_query_many(
            self.index()?,
            &self.geometry,
            &self.config,
            &self.cache,
            queries,
        )
    }

    /// Number of cached per-pair results (diagnostics/tests).
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Clause;
    use polygamy_stdata::{
        AttributeMeta, DatasetBuilder, DatasetMeta, GeoPoint, TemporalResolution,
    };

    fn tiny_dataset(name: &str, bump_at: i64) -> Dataset {
        let meta = DatasetMeta {
            name: name.into(),
            spatial_resolution: SpatialResolution::City,
            temporal_resolution: TemporalResolution::Hour,
            description: String::new(),
        };
        let mut b = DatasetBuilder::new(meta).attribute(AttributeMeta::named("x"));
        for h in 0..600i64 {
            let v = if h == bump_at {
                50.0
            } else {
                (h % 24) as f64 * 0.01
            };
            b.push(GeoPoint::new(0.5, 0.5), h * 3_600, &[v]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn lifecycle_and_errors() {
        let mut dp = DataPolygamy::new(
            CityGeometry::city_only(0.0, 0.0, 1.0, 1.0),
            Config::fast_test(),
        );
        assert!(dp.index().is_err());
        dp.add_dataset(tiny_dataset("a", 100));
        dp.add_dataset(tiny_dataset("b", 100));
        let report = dp.build_index();
        assert_eq!(report.per_dataset.len(), 2);
        assert!(dp.index().is_ok());
        assert!(dp.dataset("a").is_some());
        assert!(dp.dataset("b").is_some());
        assert!(dp.dataset("zzz").is_none());
        // Unknown dataset in query.
        let err = dp.relation("a", "nope").unwrap_err();
        assert!(matches!(err, Error::UnknownDataset(_)));
        // Adding data invalidates the index.
        dp.add_dataset(tiny_dataset("c", 50));
        assert!(dp.index().is_err());
    }

    #[test]
    fn query_caching() {
        let mut dp = DataPolygamy::new(
            CityGeometry::city_only(0.0, 0.0, 1.0, 1.0),
            Config::fast_test(),
        );
        dp.add_dataset(tiny_dataset("a", 100));
        dp.add_dataset(tiny_dataset("b", 100));
        dp.build_index();
        assert_eq!(dp.cache_len(), 0);
        let q = RelationshipQuery::all()
            .with_clause(Clause::default().permutations(40).include_insignificant());
        let r1 = dp.query(&q).unwrap();
        assert_eq!(dp.cache_len(), 1);
        let r2 = dp.query(&q).unwrap();
        assert_eq!(dp.cache_len(), 1);
        assert_eq!(r1, r2);
        // Different clause misses the cache.
        let q2 = RelationshipQuery::all()
            .with_clause(Clause::default().permutations(41).include_insignificant());
        dp.query(&q2).unwrap();
        assert_eq!(dp.cache_len(), 2);
    }

    #[test]
    fn symmetric_pairs_share_cache() {
        let mut dp = DataPolygamy::new(
            CityGeometry::city_only(0.0, 0.0, 1.0, 1.0),
            Config::fast_test(),
        );
        dp.add_dataset(tiny_dataset("a", 100));
        dp.add_dataset(tiny_dataset("b", 100));
        dp.build_index();
        let c = Clause::default().permutations(40).include_insignificant();
        dp.query(&RelationshipQuery::between(&["a"], &["b"]).with_clause(c.clone()))
            .unwrap();
        dp.query(&RelationshipQuery::between(&["b"], &["a"]).with_clause(c))
            .unwrap();
        assert_eq!(dp.cache_len(), 1);
    }

    #[test]
    fn incremental_build_indexes_only_newcomers() {
        let mut dp = DataPolygamy::new(
            CityGeometry::city_only(0.0, 0.0, 1.0, 1.0),
            Config::fast_test(),
        );
        dp.add_dataset(tiny_dataset("a", 100));
        dp.add_dataset(tiny_dataset("b", 100));
        let first = dp.build_index();
        assert_eq!(first.per_dataset.len(), 2);
        let n_before = dp.index().unwrap().functions.len();

        dp.add_dataset(tiny_dataset("c", 50));
        assert!(dp.index().is_err(), "stale until rebuilt");
        let second = dp.build_index();
        // Only the newcomer was indexed by the second call.
        assert_eq!(second.per_dataset.len(), 1);
        assert_eq!(second.per_dataset[0].name, "c");
        let index = dp.index().unwrap();
        assert_eq!(index.datasets.len(), 3);
        assert!(index.functions.len() > n_before);
        // The incremental index answers queries over old and new data sets.
        let q = RelationshipQuery::between(&["a"], &["c"])
            .with_clause(Clause::default().permutations(40).include_insignificant());
        dp.query(&q).unwrap();
    }

    #[test]
    fn incremental_matches_batch_rebuild() {
        let geometry = CityGeometry::city_only(0.0, 0.0, 1.0, 1.0);
        let mut inc = DataPolygamy::new(geometry.clone(), Config::fast_test());
        inc.add_dataset(tiny_dataset("a", 100));
        inc.add_dataset(tiny_dataset("b", 200));
        inc.build_index();
        inc.add_dataset(tiny_dataset("c", 50));
        inc.build_index();

        let mut batch = DataPolygamy::new(geometry, Config::fast_test());
        batch.add_dataset(tiny_dataset("a", 100));
        batch.add_dataset(tiny_dataset("b", 200));
        batch.add_dataset(tiny_dataset("c", 50));
        batch.build_index();

        // Undefined (NaN) field values make struct equality vacuous;
        // `Debug` prints every field, NaN as `NaN`.
        assert_eq!(
            format!("{:?}", inc.index().unwrap()),
            format!("{:?}", batch.index().unwrap())
        );
    }

    #[test]
    fn remove_dataset_drops_entries_and_shifts_indices() {
        let mut dp = DataPolygamy::new(
            CityGeometry::city_only(0.0, 0.0, 1.0, 1.0),
            Config::fast_test(),
        );
        dp.add_dataset(tiny_dataset("a", 100));
        dp.add_dataset(tiny_dataset("b", 100));
        dp.add_dataset(tiny_dataset("c", 50));
        dp.build_index();
        let removed = dp.remove_dataset("b").unwrap();
        assert_eq!(removed.meta.name, "b");
        assert!(dp.remove_dataset("b").is_err());
        let index = dp.index().unwrap();
        assert!(dp.dataset("b").is_none());
        let names: Vec<&str> = index
            .datasets
            .iter()
            .map(|d| d.meta.name.as_str())
            .collect();
        assert_eq!(names, ["a", "c"]);
        // Every function entry points at a live catalog slot.
        assert!(index.functions.iter().all(|f| f.dataset_index < 2));
        assert!(index.functions_of(1).count() > 0, "c's entries survived");
        // And the result matches a from-scratch build over {a, c}.
        let mut scratch = DataPolygamy::new(
            CityGeometry::city_only(0.0, 0.0, 1.0, 1.0),
            Config::fast_test(),
        );
        scratch.add_dataset(tiny_dataset("a", 100));
        scratch.add_dataset(tiny_dataset("c", 50));
        scratch.build_index();
        assert_eq!(
            format!("{index:?}"),
            format!("{:?}", scratch.index().unwrap())
        );
    }

    /// A constant function: no features at any threshold, degenerate
    /// thresholds (the non-finite paths through sorting and evaluation).
    fn constant_dataset(name: &str) -> Dataset {
        let meta = DatasetMeta {
            name: name.into(),
            spatial_resolution: SpatialResolution::City,
            temporal_resolution: TemporalResolution::Hour,
            description: String::new(),
        };
        let mut b = DatasetBuilder::new(meta).attribute(AttributeMeta::named("x"));
        for h in 0..300i64 {
            b.push(GeoPoint::new(0.5, 0.5), h * 3_600, &[1.0]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn degenerate_constant_pair_queries_do_not_panic() {
        // Constant functions produce NaN thresholds and empty/degenerate
        // feature sets; the query path (including the result sort, which
        // uses total_cmp rather than panicking partial_cmp) must survive
        // them and stay deterministic.
        let mut dp = DataPolygamy::new(
            CityGeometry::city_only(0.0, 0.0, 1.0, 1.0),
            Config::fast_test(),
        );
        dp.add_dataset(constant_dataset("flat1"));
        dp.add_dataset(constant_dataset("flat2"));
        dp.add_dataset(tiny_dataset("spiky", 100));
        dp.build_index();
        let q = RelationshipQuery::all()
            .with_clause(Clause::default().permutations(20).include_insignificant());
        let rels = dp.query(&q).unwrap();
        // With user thresholds on top of the constant functions as well.
        let q2 = RelationshipQuery::all().with_clause(
            Clause::default()
                .permutations(20)
                .include_insignificant()
                .with_thresholds("flat1", 0.5, 1.5),
        );
        let rels2 = dp.query(&q2).unwrap();
        // Deterministic across repeat evaluation (cache on/off paths).
        assert_eq!(rels, dp.query(&q).unwrap());
        assert_eq!(rels2, dp.query(&q2).unwrap());
    }

    #[test]
    fn query_many_matches_sequential_queries() {
        let build = || {
            let mut dp = DataPolygamy::new(
                CityGeometry::city_only(0.0, 0.0, 1.0, 1.0),
                Config::fast_test(),
            );
            dp.add_dataset(tiny_dataset("a", 100));
            dp.add_dataset(tiny_dataset("b", 100));
            dp.add_dataset(tiny_dataset("c", 50));
            dp.build_index();
            dp
        };
        let clause = Clause::default().permutations(40).include_insignificant();
        let queries = vec![
            RelationshipQuery::between(&["a"], &["b"]).with_clause(clause.clone()),
            RelationshipQuery::all().with_clause(clause.clone()),
            // Duplicate of the first: shares its evaluation in the batch.
            RelationshipQuery::between(&["b"], &["a"]).with_clause(clause),
        ];
        let batched = build().query_many(&queries).unwrap();
        let sequential = build();
        for (q, batch_result) in queries.iter().zip(&batched) {
            assert_eq!(batch_result, &sequential.query(q).unwrap());
        }
        assert_eq!(batched[0], batched[2]);
        // The whole batch evaluated exactly the 3 canonical pairs once.
        let dp = build();
        dp.query_many(&queries).unwrap();
        assert_eq!(dp.cache_len(), 3);
    }

    #[test]
    fn repeated_names_are_planned_once() {
        // Collections arrive from outside the process (PQL text, wire
        // frames): a name repeated 150 000 times per side must cost what
        // naming it once costs, not a 150 000² pair enumeration (which
        // used to size an allocation that aborted the process).
        let build = || {
            let mut dp = DataPolygamy::new(
                CityGeometry::city_only(0.0, 0.0, 1.0, 1.0),
                Config::fast_test(),
            );
            dp.add_dataset(tiny_dataset("a", 100));
            dp.add_dataset(tiny_dataset("b", 100));
            dp.add_dataset(tiny_dataset("c", 50));
            dp.build_index();
            dp
        };
        let clause = Clause::default().permutations(40).include_insignificant();
        let once = RelationshipQuery::between(&["a", "c"], &["b"]).with_clause(clause.clone());
        let repeated = RelationshipQuery {
            left: Some(
                ["a", "c"]
                    .repeat(75_000)
                    .into_iter()
                    .map(String::from)
                    .collect(),
            ),
            right: Some(vec!["b".to_string(); 150_000]),
            clause,
        };
        let json = |rels: Vec<Relationship>| {
            let mut out = String::new();
            crate::relationship::write_json_array(&mut out, &rels).unwrap();
            out
        };
        let expected = json(build().query(&once).unwrap());
        assert_ne!(expected, "[]");
        let dp = build();
        assert_eq!(json(dp.query(&repeated).unwrap()), expected);
        // Exactly the two distinct pairs were evaluated.
        assert_eq!(dp.cache_len(), 2);
    }

    #[test]
    fn missing_geometry_is_a_typed_error() {
        use crate::executor::run_query;
        use crate::function::FunctionSpec;
        use polygamy_stdata::Resolution;
        use polygamy_topology::{FeatureSet, FeatureSets};

        // Hand-craft an index that claims zip-resolution functions against
        // a geometry that only has the city partition — the shape of a
        // store file whose geometry blob lost a partition its segments
        // need.
        let entry = |di: usize, name: &str| {
            let (n_regions, n_steps) = (2, 4);
            FunctionEntry {
                spec: FunctionSpec::density(name),
                dataset_index: di,
                resolution: Resolution::new(SpatialResolution::Zip, TemporalResolution::Hour),
                n_regions,
                start_bucket: 0,
                n_steps,
                features: FeatureSets {
                    salient: FeatureSet::empty(n_regions * n_steps),
                    extreme: FeatureSet::empty(n_regions * n_steps),
                },
                field: None,
            }
        };
        let catalog = |name: &str| DatasetEntry {
            meta: polygamy_stdata::DatasetMeta {
                name: name.into(),
                spatial_resolution: SpatialResolution::Zip,
                temporal_resolution: TemporalResolution::Hour,
                description: String::new(),
            },
            n_records: 4,
            raw_bytes: 64,
            n_specs: 1,
        };
        let index = PolygamyIndex {
            datasets: vec![catalog("a"), catalog("b")],
            functions: vec![entry(0, "a"), entry(1, "b")],
        };
        let err = run_query(
            &index,
            &CityGeometry::city_only(0.0, 0.0, 1.0, 1.0),
            &Config::fast_test(),
            &QueryCache::new(16),
            &RelationshipQuery::all(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            Error::MissingGeometry(SpatialResolution::Zip)
        ));
        assert!(err.to_string().contains("zip"));

        // A zip partition is there, but of another city: three regions
        // under functions built over two.
        use polygamy_stdata::Polygon;
        let zip = SpatialPartition::new(
            SpatialResolution::Zip,
            (0..3)
                .map(|i| Polygon::rect(f64::from(i), 0.0, f64::from(i) + 1.0, 1.0))
                .collect(),
            vec![vec![1], vec![0, 2], vec![1]],
        )
        .unwrap();
        let err = run_query(
            &index,
            &CityGeometry {
                zip: Some(zip),
                ..CityGeometry::city_only(0.0, 0.0, 3.0, 1.0)
            },
            &Config::fast_test(),
            &QueryCache::new(16),
            &RelationshipQuery::all(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            Error::GeometryMismatch {
                resolution: SpatialResolution::Zip,
                geometry_regions: 3,
                function_regions: 2,
            }
        );
        assert!(err.to_string().contains("zip"));
    }

    #[test]
    fn empty_dataset_indexes_to_no_functions() {
        // `DatasetBuilder::build` accepts zero records; the scalar job used
        // to panic on their missing time range.
        let meta = DatasetMeta {
            name: "empty".into(),
            spatial_resolution: SpatialResolution::City,
            temporal_resolution: TemporalResolution::Hour,
            description: String::new(),
        };
        let empty = DatasetBuilder::new(meta)
            .attribute(AttributeMeta::named("x"))
            .build()
            .unwrap();
        let mut dp = DataPolygamy::new(
            CityGeometry::city_only(0.0, 0.0, 1.0, 1.0),
            Config::fast_test(),
        );
        dp.add_dataset(empty);
        dp.add_dataset(tiny_dataset("tiny", 100));
        let report = dp.build_index();
        assert_eq!(report.per_dataset.len(), 2);
        assert_eq!(report.per_dataset[0].n_functions, 0);
        assert!(report.per_dataset[1].n_functions > 0);
        let index = dp.index().unwrap();
        assert_eq!(index.datasets[0].n_records, 0);
        assert_eq!(index.functions_of(0).count(), 0);
        let q = RelationshipQuery::between(&["empty"], &["tiny"])
            .with_clause(Clause::default().permutations(20).include_insignificant());
        assert_eq!(dp.query(&q).unwrap(), []);
    }

    #[test]
    fn geometry_accessors() {
        let g = CityGeometry::city_only(0.0, 0.0, 2.0, 2.0);
        assert!(g.partition(SpatialResolution::City).is_some());
        assert!(g.partition(SpatialResolution::Zip).is_none());
        assert!(g.partition(SpatialResolution::Gps).is_none());
        assert_eq!(g.adjacency(SpatialResolution::City).unwrap().len(), 1);
    }
}
