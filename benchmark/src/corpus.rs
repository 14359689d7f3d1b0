//! The two benchmark corpora and the set-up path shared by the read
//! workloads: generate → index → durable store.
//!
//! * *urban* — the paper's NYC Urban shape: 9 large multi-resolution data
//!   sets over one year, 338 function segments, a ~130 MB store. 338 is
//!   below the 1,024-entry segment LRU: the corpus **fits** the program's
//!   cache.
//! * *open* — the paper's NYC Open shape: 40 small city-resolution data
//!   sets, 1,323 segments, a ~13 MB store. 1,323 exceeds the LRU: the
//!   corpus does **not** fit the segment cache.

use crate::calibration::timed_at_reference;
use crate::clock;
use crate::spans::Tracer;
use crate::stats::median;
use polygamy_core::cache::{QueryCache, DEFAULT_QUERY_CACHE_CAPACITY};
use polygamy_core::framework::{CityGeometry, Config, DataPolygamy, IndexBuildReport};
use polygamy_datagen::activity::{
    bike_dataset, calls911_dataset, collisions_dataset, complaints311_dataset, taxi_dataset,
    traffic_dataset, twitter_dataset, GasTrace,
};
use polygamy_datagen::{
    open_collection, CityConfig, CityModel, OpenConfig, UrbanEvents, WeatherConfig, WeatherTrace,
};
use polygamy_mapreduce::Cluster;
use polygamy_stdata::Dataset;
use polygamy_store::Store;
use std::path::Path;

/// Workers every workload runs with. Fixed — never `Cluster::host()` or
/// `POLYGAMY_WORKERS` — so two machines with different core counts run
/// the same program.
pub const WORKERS: usize = 2;

/// The framework configuration at `workers` workers (defaults otherwise).
pub fn config(workers: usize) -> Config {
    Config {
        cluster: Cluster::local(workers),
        ..Config::default()
    }
}

/// An empty query cache of the default capacity.
pub fn fresh_cache() -> QueryCache {
    QueryCache::new(DEFAULT_QUERY_CACHE_CAPACITY)
}

/// Workload sizes. `full` is what `BENCHMARK.json` runs; `smoke` is the
/// seconds-long variant `tests/smoke.rs` uses to exercise every code path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// `full` or `smoke`.
    pub name: &'static str,
    /// How many of the 9 urban data sets to keep (in generation order).
    pub urban_datasets: usize,
    /// Open-corpus data sets / days / planted pairs.
    pub open_datasets: usize,
    /// Days of data per open data set.
    pub open_days: usize,
    /// Planted related pairs in the open corpus.
    pub open_planted: usize,
    /// `permutations =` of the urban queries.
    pub urban_permutations: usize,
    /// `permutations =` of the served open-corpus queries.
    pub serve_permutations: usize,
    /// Requests each of the two serve clients sends per pass.
    pub serve_requests_per_client: usize,
    /// Set-up repetitions on the urban corpus (median reported).
    pub urban_setup_reps: usize,
    /// Set-up repetitions on the (much cheaper) open corpus.
    pub open_setup_reps: usize,
    /// Corpus generations timed by `build_urban`, whose set-up is only
    /// the generation.
    pub generate_reps: usize,
}

impl Scale {
    /// The measured configuration.
    pub const FULL: Scale = Scale {
        name: "full",
        urban_datasets: 9,
        open_datasets: 40,
        open_days: 120,
        open_planted: 6,
        urban_permutations: 2,
        serve_permutations: 10,
        serve_requests_per_client: 60,
        urban_setup_reps: 3,
        open_setup_reps: 5,
        generate_reps: 25,
    };

    /// The test configuration: 3 urban / 6 open data sets, 10 permutations.
    pub const SMOKE: Scale = Scale {
        name: "smoke",
        urban_datasets: 3,
        open_datasets: 6,
        open_days: 30,
        open_planted: 2,
        urban_permutations: 2,
        serve_permutations: 10,
        serve_requests_per_client: 10,
        urban_setup_reps: 1,
        open_setup_reps: 1,
        generate_reps: 1,
    };

    /// Looks a scale up by name.
    pub fn by_name(name: &str) -> Option<Scale> {
        [Scale::FULL, Scale::SMOKE]
            .into_iter()
            .find(|s| s.name == name)
    }
}

/// A generated corpus: what the program receives.
pub struct Corpus {
    /// City partitions the index is built over.
    pub geometry: CityGeometry,
    /// The raw data sets, in registration order.
    pub datasets: Vec<Dataset>,
    /// Ground-truth related pairs (indices into `datasets`); empty for
    /// the urban corpus, whose couplings are not pair-addressed.
    pub planted: Vec<(usize, usize)>,
}

impl Corpus {
    /// Data set names, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.datasets.iter().map(|d| d.meta.name.clone()).collect()
    }

    /// Raw input size: the sum of the data sets' in-memory record bytes.
    pub fn input_bytes(&self) -> u64 {
        self.datasets.iter().map(|d| d.approx_bytes() as u64).sum()
    }
}

/// Generates the urban corpus for `seed`: the nine NYC-Urban-analogue
/// data sets over one year at `scale = 0.02`.
///
/// This is `polygamy_datagen::urban_collection`'s assembly with one
/// difference: the **city is the same for every seed**. `urban_collection`
/// derives the city mask from its seed, and the mask decides how many
/// neighbourhoods and zip codes exist — so the size of every spatial
/// field, the store, and every timing moved by ±4% from seed to seed
/// (store bytes per input byte: 26.3 to 27.5 over ten seeds). Here the
/// seed drives the weather, the gas prices and every record; the domain
/// sizes stay put, so runs with different seeds measure the same amount
/// of work on different data.
pub fn generate_urban(scale: &Scale, seed: u64) -> Corpus {
    const START_YEAR: i32 = 2011;
    const N_YEARS: usize = 1;
    const RECORD_SCALE: f64 = 0.02;
    let city = CityModel::generate(CityConfig {
        nx: 6,
        ny: 5,
        ..CityConfig::default()
    });
    let events = UrbanEvents::default_calendar(START_YEAR, N_YEARS);
    let trace = WeatherTrace::generate(
        WeatherConfig {
            start_year: START_YEAR,
            n_years: N_YEARS,
            seed: seed ^ 0x7EA7,
            extra_attrs: 0,
        },
        &events,
    );
    let n_weeks = trace.len() / (24 * 7) + 2;
    let gas = GasTrace::generate(trace.start, n_weeks, seed ^ 0x6A5);
    let bursts = seed ^ 0xB0057;
    let s = RECORD_SCALE;
    let mut datasets = vec![
        gas.dataset(&city),
        collisions_dataset(&city, &trace, &events, s, seed ^ 1),
        complaints311_dataset(&city, &trace, &events, bursts, s, seed ^ 2),
        calls911_dataset(&city, &trace, &events, bursts, s, seed ^ 3),
        bike_dataset(&city, &trace, &events, s, seed ^ 4),
        trace.dataset(city.center(), 0, seed ^ 5),
        traffic_dataset(&city, &trace, &events, s, seed ^ 6),
        taxi_dataset(&city, &trace, &events, &gas, s, seed ^ 7),
        twitter_dataset(&city, &trace, s, seed ^ 8),
    ];
    datasets.truncate(scale.urban_datasets);
    Corpus {
        geometry: city.geometry,
        datasets,
        planted: Vec::new(),
    }
}

/// Generates the open corpus for `seed`.
pub fn generate_open(scale: &Scale, seed: u64) -> Corpus {
    let collection = open_collection(OpenConfig {
        n_datasets: scale.open_datasets,
        n_attrs: 8,
        n_planted: scale.open_planted,
        n_days: scale.open_days,
        seed,
        ..OpenConfig::default()
    });
    Corpus {
        geometry: CityGeometry::city_only(0.0, 0.0, 1.0, 1.0),
        datasets: collection.datasets,
        planted: collection.planted_pairs,
    }
}

/// An indexed corpus and its durable store.
pub struct Built {
    /// The in-memory framework (index included) — the reference side of
    /// every correctness check and the input of the layer probes.
    pub dp: DataPolygamy,
    /// Per-data-set stage timings of the index build.
    pub report: IndexBuildReport,
    /// Size of the store file written.
    pub store_bytes: u64,
    /// Seconds inside `Store::save`.
    pub save_s: f64,
}

/// Registers every data set, builds the index and writes the store at
/// `path` durably (`Store::save` syncs the file and renames it into
/// place — the store's only flush policy).
pub fn build_and_save(tracer: &Tracer, corpus: &Corpus, path: &Path) -> Result<Built, String> {
    let mut dp = DataPolygamy::new(corpus.geometry.clone(), config(WORKERS));
    for d in &corpus.datasets {
        dp.add_dataset(d.clone());
    }
    let report = tracer.span("pipeline.build_index", || dp.build_index());
    let index = dp.index().map_err(|e| e.to_string())?;
    let (store, save_s) =
        clock::timed(|| tracer.span("store.save", || Store::save(path, dp.geometry(), index)));
    let store_bytes = store
        .and_then(|s| s.file_bytes())
        .map_err(|e| e.to_string())?;
    Ok(Built {
        dp,
        report,
        store_bytes,
        save_s,
    })
}

/// What a read workload's set-up leaves behind.
pub struct Setup {
    /// The generated inputs.
    pub corpus: Corpus,
    /// The last repetition's build.
    pub built: Built,
    /// Median reference seconds of one whole set-up (generate → index →
    /// store).
    pub setup_s: f64,
}

/// Runs the whole set-up `reps` times (each overwrites the store at
/// `path`), keeping the last build and reporting the median time.
pub fn setup_store(
    tracer: &Tracer,
    generate: impl Fn() -> Corpus,
    path: &Path,
    reps: usize,
) -> Result<Setup, String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (rep, reference_s) = timed_at_reference(|| {
            let corpus = tracer.span("datagen.generate", &generate);
            build_and_save(tracer, &corpus, path).map(|built| (corpus, built))
        });
        times.push(reference_s);
        last = Some(rep?);
    }
    let (corpus, built) = last.expect("at least one repetition ran");
    Ok(Setup {
        corpus,
        built,
        setup_s: median(&times),
    })
}
