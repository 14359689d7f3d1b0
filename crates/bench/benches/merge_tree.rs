//! Criterion micro-benchmark behind Figure 7: merge-tree construction time
//! vs domain size, for 1-D (city) and 3-D (neighborhood) domains.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use polygamy_topology::{DomainGraph, MergeTree};

fn taxi_like(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let hod = (i % 24) as f64;
            40.0 * (0.2 + (-((hod - 19.0) / 3.5).powi(2)).exp())
                + ((i as u64).wrapping_mul(0x9E37_79B9) % 997) as f64 / 100.0
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
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_merge_tree
}
criterion_main!(benches);
