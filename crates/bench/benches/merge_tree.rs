//! Criterion micro-benchmark behind Figure 7: merge-tree construction time
//! vs domain size, for 1-D (city) and 3-D (neighborhood) domains, on a
//! dense taxi-like field and on a sparse count field whose values are
//! ≈ 85% `+0.0`, like the urban corpus's count functions. The `_pairs`
//! ids time what the index build runs instead of the two trees:
//! `persistence_pairs`, which on the sparse field takes the `+0.0`
//! plateau short-cuts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use polygamy_topology::{persistence_pairs, DomainGraph, MergeTree};

fn taxi_like(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let hod = (i % 24) as f64;
            40.0 * (0.2 + (-((hod - 19.0) / 3.5).powi(2)).exp())
                + ((i as u64).wrapping_mul(0x9E37_79B9) % 997) as f64 / 100.0
        })
        .collect()
}

/// A sparse count field: ≈ 85% of the cells empty (`+0.0`, as
/// `MissingPolicy::Zero` writes them), the rest small counts that peak in
/// the evening — the shape of a zip-by-hour density.
fn sparse_counts(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let draw = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            if draw % 100 < 85 {
                0.0
            } else {
                let hod = (i % 24) as f64;
                (1.0 + 4.0 * (-((hod - 19.0) / 3.5).powi(2)).exp() + (draw % 3) as f64).round()
            }
        })
        .collect()
}

fn bench_merge_tree(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge_tree_build");
    for &steps in &[10_000usize, 40_000, 160_000] {
        // 1-D time series (city resolution).
        let g1 = DomainGraph::time_series(steps);
        let f1 = taxi_like(steps);
        group.throughput(Throughput::Elements(g1.edge_count() as u64));
        group.bench_with_input(BenchmarkId::new("city_1d", steps), &steps, |b, _| {
            b.iter(|| MergeTree::join(&g1, &f1))
        });
        group.bench_with_input(BenchmarkId::new("city_1d_both", steps), &steps, |b, _| {
            b.iter(|| MergeTree::both(&g1, &f1))
        });
        group.bench_with_input(BenchmarkId::new("city_1d_pairs", steps), &steps, |b, _| {
            b.iter(|| persistence_pairs(&g1, &f1))
        });
        // 3-D neighborhood grid (25 regions).
        let g2 = DomainGraph::grid(5, 5, steps / 25);
        let f2 = taxi_like(g2.vertex_count());
        group.throughput(Throughput::Elements(g2.edge_count() as u64));
        group.bench_with_input(
            BenchmarkId::new("neighborhood_3d", steps),
            &steps,
            |b, _| b.iter(|| MergeTree::join(&g2, &f2)),
        );
        group.bench_with_input(
            BenchmarkId::new("neighborhood_3d_both", steps),
            &steps,
            |b, _| b.iter(|| MergeTree::both(&g2, &f2)),
        );
        // The same grid over a sparse count field: the zero run is spliced
        // into the sweep order, only the nonzero counts are sorted.
        let f3 = sparse_counts(g2.vertex_count());
        group.bench_with_input(
            BenchmarkId::new("neighborhood_3d_sparse_both", steps),
            &steps,
            |b, _| b.iter(|| MergeTree::both(&g2, &f3)),
        );
        group.bench_with_input(
            BenchmarkId::new("neighborhood_3d_sparse_pairs", steps),
            &steps,
            |b, _| b.iter(|| persistence_pairs(&g2, &f3)),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_merge_tree
}
criterion_main!(benches);
