//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. merge-tree-indexed level sets vs a naive full scan — the paper's
//!    output-sensitivity claim only pays off when the answer is small;
//! 2. the word-wise kernels of the restricted Monte Carlo test at the
//!    urban corpus's shape (25 regions × 8,760 hourly steps): cropping a
//!    window at an unaligned offset, counting one time rotation, building
//!    the region-major rows, counting one spatial graph shift on them —
//!    next to drawing a naive (shuffle) permutation of the same domain, so
//!    the statistical validity of the restricted test is seen to be free;
//! 3. persistence-derived thresholds vs fixed quantile thresholds —
//!    threshold computation cost;
//! 4. the store's word-wise blob checksum vs the byte-serial FNV-1a it
//!    replaced in store format 2, over 1 MB;
//! 5. the store's field codec (format 4: a mask of the defined values,
//!    then those values run-length coded) vs the raw `f64` words it
//!    replaced, on three real fields of the urban corpus — a neighbourhood
//!    density layer (sparse counts), a neighbourhood attribute layer
//!    (mostly undefined reals) and a city-level attribute series (dense
//!    reals, the incompressible case). Throughput is raw-side: 8 bytes
//!    per value on every line. Beside it the bit-vector codec (format 4)
//!    vs the raw words of store format 3, over every feature vector of the
//!    urban index (`bitvec_codec`), raw-side too;
//! 6. one pool dispatch of 17, 287 and 858 unit-sized tasks (a cold pair,
//!    an `explore_urban` query, a `serve_open` request) inline and on two
//!    workers — the measurement behind the pool's inline floor
//!    (docs/architecture.md, "The evaluate dispatch");
//! 7. rendering a 434-relationship answer (the largest `explore_urban`
//!    one) to JSON, bytes per second;
//! 8. the store's read path on one year of `gas-prices`, `taxi` and
//!    `weather`: an eager open — which validates every field blob without
//!    decoding it — next to that validating walk and the decode it
//!    replaced over the same blobs (`eager_open`), and a fresh lazy
//!    index's first pin for a mixed-resolution pair, which reads the one
//!    resolution both sides have, next to a same-resolution pair and a
//!    sweep (`pin_footprint`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use polygamy_core::relationship::{write_json_array, RelationshipMeasures};
use polygamy_core::{parse_query, Config, DataPolygamy, Fnv1a, FunctionRef, Relationship};
use polygamy_datagen::{urban_collection, UrbanConfig};
use polygamy_mapreduce::run_chunked_tasks;
use polygamy_stats::permutation::GraphShifter;
use polygamy_stats::quantile;
use polygamy_stdata::{FunctionKind, Resolution, SpatialResolution, TemporalResolution};
use polygamy_store::codec::{
    decode_bitvec, decode_field, encode_bitvec, encode_field, validate_field,
};
use polygamy_store::{LazyIndex, Store, StoreSession};
use polygamy_topology::{
    super_level_set, BitVec, DomainGraph, FeatureClass, FeatureSet, FeatureWindow, MergeTree,
    RowWindows, SignCounts,
};
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn spiky(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let base = ((i % 24) as f64 / 24.0).sin();
            if i % 997 == 0 {
                base + 50.0
            } else {
                base
            }
        })
        .collect()
}

fn bench_index_vs_scan(c: &mut Criterion) {
    let n = 500_000;
    let g = DomainGraph::time_series(n);
    let f = spiky(n);
    let tree = MergeTree::join(&g, &f);
    let mut group = c.benchmark_group("ablation_level_set");
    for &(label, q) in &[("sparse_0.1%", 0.999), ("dense_50%", 0.5)] {
        let theta = quantile(&f, q);
        group.bench_with_input(
            BenchmarkId::new("merge_tree_index", label),
            &theta,
            |b, &t| b.iter(|| super_level_set(&g, &f, &tree, t)),
        );
        group.bench_with_input(BenchmarkId::new("naive_scan", label), &theta, |b, &t| {
            b.iter(|| {
                let mut out = BitVec::zeros(n);
                for (i, &v) in f.iter().enumerate() {
                    if v >= t {
                        out.set(i);
                    }
                }
                out
            })
        });
    }
    group.finish();
}

/// Features on ~4% (pos) and ~1% (neg) of `n` vertices.
fn sparse_features(n: usize, phase: usize) -> FeatureSet {
    let mut fs = FeatureSet::empty(n);
    for i in (phase..n).step_by(23) {
        fs.pos.set(i);
    }
    for i in (phase + 7..n).step_by(97) {
        fs.neg.set(i);
    }
    fs
}

fn bench_restricted_vs_naive_mc(c: &mut Criterion) {
    let (n_regions, n_steps) = (25usize, 8_760usize);
    let n = n_regions * n_steps;
    // A field 5 steps longer than the window, so the window starts at bit
    // 125 — off a word boundary, like every urban pair's.
    let field = sparse_features(n + 5 * n_regions, 0);
    let left = field.slice(5 * n_regions, 5 * n_regions + n);
    let right = sparse_features(n, 3);
    let (left_rows, right_rows) = (
        left.region_major(n_regions, n_steps),
        right.region_major(n_regions, n_steps),
    );
    // A one-step grid's vertex neighbours are its region adjacency.
    let grid = DomainGraph::grid(5, 5, 1);
    let adjacency: Vec<Vec<u32>> = (0..n_regions)
        .map(|x| grid.neighbors(x).collect())
        .collect();

    let mut group = c.benchmark_group("ablation_permutation");
    group.bench_function("unaligned_slice", |b| {
        b.iter(|| field.slice(5 * n_regions, 5 * n_regions + n))
    });
    let (window, whole) = (
        FeatureWindow::new(&field, 5 * n_regions, n),
        FeatureWindow::whole(&right),
    );
    group.bench_function("rotation_count", |b| {
        b.iter(|| window.rotated_sign_counts(&whole, 4_321))
    });
    group.bench_function("row_build", |b| {
        b.iter(|| left.region_major(n_regions, n_steps))
    });
    let (lr, rr) = (
        RowWindows::new(&left_rows, n_regions, n_steps, 0, n_steps),
        RowWindows::new(&right_rows, n_regions, n_steps, 0, n_steps),
    );
    group.bench_function("spatial_count", |b| {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let mut shifter = GraphShifter::default();
        b.iter(|| {
            let sigma = shifter.draw(&adjacency, &mut rng);
            let mut counts = SignCounts::default();
            for (x, &image) in sigma.iter().enumerate() {
                counts += lr.row(x).rotated_sign_counts(&rr.row(image as usize), 0);
            }
            counts
        })
    });
    group.bench_function("naive_shuffle", |b| {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        b.iter(|| {
            let mut perm: Vec<u32> = (0..n as u32).collect();
            perm.shuffle(&mut rng);
            perm
        })
    });
    group.finish();
}

fn bench_threshold_strategies(c: &mut Criterion) {
    let n = 200_000;
    let g = DomainGraph::time_series(n);
    let f = spiky(n);
    let (join, split) = MergeTree::both(&g, &f);
    let mut group = c.benchmark_group("ablation_thresholds");
    group.bench_function("persistence_2means", |b| {
        b.iter(|| polygamy_topology::compute_thresholds(&join, &split))
    });
    group.bench_function("fixed_quantile", |b| {
        b.iter(|| (quantile(&f, 0.99), quantile(&f, 0.01)))
    });
    group.finish();
}

fn bench_checksum(c: &mut Criterion) {
    let blob: Vec<u8> = (0..1u32 << 20)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect();
    let mut group = c.benchmark_group("checksum");
    group.throughput(Throughput::Bytes(blob.len() as u64));
    group.bench_function("fnv1a_byte_serial", |b| b.iter(|| Fnv1a::hash_bytes(&blob)));
    group.bench_function("blob_checksum_word_wise", |b| {
        b.iter(|| polygamy_store::blob_checksum(&blob))
    });
    group.finish();
}

/// One year of the urban corpus's `names` data sets, indexed.
fn urban_index(names: &[&str]) -> DataPolygamy {
    let collection = urban_collection(UrbanConfig {
        n_years: 1,
        scale: 0.02,
        extra_weather_attrs: 0,
        ..UrbanConfig::default()
    });
    let mut dp = DataPolygamy::new(collection.geometry().clone(), Config::default());
    for d in &collection.datasets {
        if names.contains(&d.meta.name.as_str()) {
            dp.add_dataset(d.clone());
        }
    }
    dp.build_index();
    dp
}

fn bench_field_codec(c: &mut Criterion) {
    let dp = urban_index(&["taxi", "weather"]);
    let index = dp.index().expect("index built");
    let field_of = |dataset: &str, attribute: bool, spatial| {
        let resolution = Resolution::new(spatial, TemporalResolution::Hour);
        let entry = index
            .functions
            .iter()
            .find(|f| {
                &*f.spec.name.dataset == dataset
                    && f.resolution == resolution
                    && matches!(f.spec.kind, FunctionKind::Attribute { .. }) == attribute
            })
            .expect("the urban corpus has this function");
        entry
            .field
            .as_ref()
            .expect("indexing keeps fields")
            .values
            .as_slice()
    };
    let fields = [
        (
            "neighborhood_density",
            field_of("taxi", false, SpatialResolution::Neighborhood),
        ),
        (
            "neighborhood_attribute",
            field_of("taxi", true, SpatialResolution::Neighborhood),
        ),
        (
            "city_series",
            field_of("weather", true, SpatialResolution::City),
        ),
    ];
    for (label, values) in fields {
        let blob = encode_field(values);
        let raw: Vec<u8> = values
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        let mut group = c.benchmark_group(format!("field_codec/{label}"));
        group.throughput(Throughput::Bytes(raw.len() as u64));
        group.bench_function("encode", |b| b.iter(|| encode_field(values)));
        group.bench_function("decode", |b| {
            b.iter(|| decode_field(&blob, values.len(), label))
        });
        // What format 2 did with the same field: copy the words out and
        // checksum them; checksum them and copy the words in.
        group.bench_function("raw_words_write", |b| {
            b.iter(|| {
                let mut bytes = Vec::with_capacity(values.len() * 8);
                for v in values {
                    bytes.extend_from_slice(&v.to_bits().to_le_bytes());
                }
                (polygamy_store::blob_checksum(&bytes), bytes)
            })
        });
        group.bench_function("raw_words_read", |b| {
            b.iter(|| {
                let words = raw.chunks_exact(8).map(|w| w.try_into().expect("8 bytes"));
                let values: Vec<f64> = words
                    .map(|w| f64::from_bits(u64::from_le_bytes(w)))
                    .collect();
                (polygamy_store::blob_checksum(&raw), values)
            })
        });
        group.finish();
    }
}

fn bench_bitvec_codec(c: &mut Criterion) {
    let dp = urban_index(&["taxi", "weather", "collisions"]);
    let index = dp.index().expect("index built");
    let vectors: Vec<&BitVec> = (index.functions.iter())
        .flat_map(|f| {
            let fs = &f.features;
            [
                &fs.salient.pos,
                &fs.salient.neg,
                &fs.extreme.pos,
                &fs.extreme.neg,
            ]
        })
        .collect();
    let encoded: Vec<Vec<u8>> = vectors.iter().map(|bv| encode_bitvec(bv)).collect();
    let raw: Vec<Vec<u8>> = (vectors.iter())
        .map(|bv| bv.words().iter().flat_map(|w| w.to_le_bytes()).collect())
        .collect();
    let mut group = c.benchmark_group("bitvec_codec");
    group.throughput(Throughput::Bytes(raw.iter().map(|r| r.len() as u64).sum()));
    group.bench_function("encode", |b| {
        b.iter(|| {
            vectors
                .iter()
                .map(|bv| encode_bitvec(bv).len())
                .sum::<usize>()
        })
    });
    group.bench_function("decode", |b| {
        b.iter(|| {
            let decode = |(bytes, bv): (&Vec<u8>, &&BitVec)| decode_bitvec(bytes, bv.len(), "v");
            encoded
                .iter()
                .zip(&vectors)
                .filter(|&p| decode(p).is_ok())
                .count()
        })
    });
    // What format 3 did with the same vectors: copy the words out; read
    // them back in.
    group.bench_function("raw_words_write", |b| {
        b.iter(|| {
            let bytes = |bv: &BitVec| bv.words().iter().flat_map(|w| w.to_le_bytes()).collect();
            vectors.iter().map(|bv| bytes(bv)).collect::<Vec<Vec<u8>>>()
        })
    });
    group.bench_function("raw_words_read", |b| {
        b.iter(|| {
            let words = |bytes: &Vec<u8>| {
                let chunks = bytes.chunks_exact(8);
                chunks
                    .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")))
                    .collect()
            };
            raw.iter().map(words).collect::<Vec<Vec<u64>>>()
        })
    });
    group.finish();
}

fn bench_read_path(c: &mut Criterion) {
    let dp = urban_index(&["gas-prices", "taxi", "weather"]);
    let index = dp.index().expect("index built");
    let path = std::env::temp_dir().join(format!("ablations-{}.plst", std::process::id()));
    let store = Store::save(&path, dp.geometry(), index).expect("store saves");

    // Every field blob with its entry's vertex count, as an open sees them.
    let blobs: Vec<(Vec<u8>, usize)> = (store.manifest().segments.iter())
        .zip(&index.functions)
        .filter_map(|(info, entry)| {
            let bytes = store.source().read(info.field?, "field blob").ok()?;
            Some((bytes, entry.n_regions * entry.n_steps))
        })
        .collect();
    let mut group = c.benchmark_group("eager_open");
    group.throughput(Throughput::Bytes(store.file_bytes().expect("file size")));
    group.bench_function("open", |b| b.iter(|| StoreSession::open(&path)));
    group.bench_function("validate_fields", |b| {
        b.iter(|| {
            let valid = |(blob, n): &(Vec<u8>, usize)| validate_field(blob, *n, "field").is_ok();
            blobs.iter().filter(|blob| valid(blob)).count()
        })
    });
    group.bench_function("decode_fields", |b| {
        b.iter(|| {
            let decoded = |(blob, n): &(Vec<u8>, usize)| decode_field(blob, *n, "field").is_ok();
            blobs.iter().filter(|blob| decoded(blob)).count()
        })
    });
    group.finish();

    let mut group = c.benchmark_group("pin_footprint");
    for (label, pql) in [
        ("mixed_resolution_pair", "between gas-prices and taxi"),
        ("same_resolution_pair", "between weather and taxi"),
        ("sweep", "between taxi and *"),
    ] {
        let query = [parse_query(pql).expect("valid PQL")];
        group.bench_function(label, |b| {
            b.iter(|| {
                let lazy = LazyIndex::open(&path).expect("store opens");
                lazy.pin_for(&query).map(|pinned| pinned.len())
            })
        });
    }
    group.finish();
    let _ = std::fs::remove_file(&path);
}

fn bench_dispatch(c: &mut Criterion) {
    // A unit-sized task: the intersection and two rotations of a city-level
    // hourly year (8,760 steps) — what one 1-D unit task of the urban
    // queries (`permutations = 2`) does.
    let (left, right) = (sparse_features(8_760, 0), sparse_features(8_760, 3));
    let (left, right) = (FeatureWindow::whole(&left), FeatureWindow::whole(&right));
    let task = |i: usize| {
        let mut counts = SignCounts::default();
        for pass in 0..3 {
            counts += left.rotated_sign_counts(&right, (pass * 2_917 + i) % 8_760);
        }
        counts
    };
    let mut group = c.benchmark_group("dispatch");
    for n_tasks in [17usize, 287, 858] {
        group.bench_with_input(BenchmarkId::new("inline", n_tasks), &n_tasks, |b, &n| {
            b.iter(|| run_chunked_tasks(1, n, 1, task))
        });
        // Sixteen chunks, as a weighted dispatch cuts for two workers.
        group.bench_with_input(
            BenchmarkId::new("two_workers", n_tasks),
            &n_tasks,
            |b, &n| b.iter(|| run_chunked_tasks(2, n, n.div_ceil(16), task)),
        );
    }
    group.finish();
}

fn bench_render(c: &mut Criterion) {
    let datasets = ["taxi", "collisions", "complaints-311", "calls-911"];
    let functions = [
        "density",
        "unique(medallion)",
        "avg(fare)",
        "avg(trip-miles)",
    ];
    let spatial = [SpatialResolution::Neighborhood, SpatialResolution::Zip];
    let function = |k: usize| FunctionRef {
        dataset: datasets[k % datasets.len()].into(),
        function: functions[k / datasets.len() % functions.len()].into(),
    };
    let answer: Vec<Relationship> = (0..434usize)
        .map(|k| Relationship {
            left: function(k),
            right: function(k * 7 + 1),
            resolution: Resolution::new(spatial[k % 2], TemporalResolution::Hour),
            class: FeatureClass::ALL[k / 2 % 2],
            measures: RelationshipMeasures {
                n_pos: 3 * k + 1,
                n_neg: k,
                n_left: 9 * k + 40,
                n_right: 11 * k + 7,
                score: (2 * k + 1) as f64 / (4 * k + 1) as f64,
                strength: 1.0 / (k + 3) as f64,
            },
            p_value: (k % 61 + 1) as f64 / 61.0,
            significant: k % 61 < 3,
        })
        .collect();
    let render = || {
        let mut out = String::new();
        write_json_array(&mut out, &answer).expect("relationships serialize");
        out
    };
    let mut group = c.benchmark_group("render");
    group.throughput(Throughput::Bytes(render().len() as u64));
    group.bench_function("to_string_434_relationships", |b| b.iter(render));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_index_vs_scan, bench_restricted_vs_naive_mc, bench_threshold_strategies,
        bench_checksum, bench_field_codec, bench_bitvec_codec, bench_read_path, bench_dispatch,
        bench_render
}
criterion_main!(benches);
