//! Criterion micro-benchmark behind Figure 9: relationship evaluation and
//! the restricted Monte Carlo significance test (which the paper reports
//! as >90% of query time).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use polygamy_core::relationship::evaluate_features;
use polygamy_core::significance::{permutation_p_value, significance_test, PermutationScheme};
use polygamy_stats::permutation::MonteCarlo;
use polygamy_topology::{BitVec, FeatureSet, FeatureWindow, RowWindows};

fn sparse_features(n: usize, every: usize, offset: usize) -> FeatureSet {
    let mut pos = BitVec::zeros(n);
    let mut neg = BitVec::zeros(n);
    for i in (offset..n).step_by(every) {
        pos.set(i);
    }
    for i in (offset + every / 2..n).step_by(every * 3) {
        neg.set(i);
    }
    FeatureSet { pos, neg }
}

fn bench_relationship(c: &mut Criterion) {
    let n = 17_520; // two years of hourly steps at city scale
    let a = sparse_features(n, 37, 0);
    let b = sparse_features(n, 37, 3);

    c.bench_function("evaluate_features_17k", |bch| {
        bch.iter(|| evaluate_features(&a, &b))
    });

    let mut group = c.benchmark_group("significance_test");
    let observed = evaluate_features(&a, &b).score;
    for &perms in &[100usize, 1_000] {
        let mc = MonteCarlo {
            permutations: perms,
            ..MonteCarlo::default()
        };
        group.bench_with_input(BenchmarkId::new("temporal", perms), &perms, |bch, _| {
            bch.iter(|| {
                significance_test(
                    &a,
                    &b,
                    &[vec![]],
                    n,
                    observed,
                    &mc,
                    PermutationScheme::Paper,
                    7,
                )
            })
        });
    }
    group.finish();
}

/// Positive features at about one step in `every`, negative ones at as
/// many others, where a SplitMix64 hash of (step, `salt`) picks them: two
/// salts give two independent feature sets.
fn scattered_features(n: usize, every: u64, salt: u64) -> FeatureSet {
    let (mut pos, mut neg) = (BitVec::zeros(n), BitVec::zeros(n));
    for i in 0..n {
        let mut z = ((i as u64) ^ (salt << 32)).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        match (z ^ (z >> 31)) % every {
            0 => pos.set(i),
            1 => neg.set(i),
            _ => {}
        }
    }
    FeatureSet { pos, neg }
}

/// One pair's Monte Carlo loop at |m| = 1,000, run to the end (what
/// `include insignificant` does) and stopped once the pair cannot be
/// significant (the default clause). The null pair — two independent
/// feature sets, p = 0.582, near a null p-value's median — stops after 60
/// draws; the planted pair — one function against itself, significant —
/// runs every draw either way.
fn bench_significance_stop(c: &mut Criterion) {
    let n = 8_760; // a year of hourly steps at city scale
    let left = scattered_features(n, 20, 1);
    let null = scattered_features(n, 20, 4);
    let mc = MonteCarlo::default();
    let mut group = c.benchmark_group("significance_stop");
    for (pair, right) in [("null", &null), ("planted", &left)] {
        let observed = evaluate_features(&left, right).score;
        let (lr, rr) = (
            RowWindows::new(&left, 1, n, 0, n),
            RowWindows::new(right, 1, n, 0, n),
        );
        for (mode, significant_only) in [("full", false), ("stopped", true)] {
            let id = BenchmarkId::new(format!("{pair}_{mode}"), mc.permutations);
            group.bench_with_input(id, &significant_only, |bch, &stop| {
                bch.iter(|| {
                    permutation_p_value(
                        lr,
                        rr,
                        &[],
                        observed,
                        &mc,
                        PermutationScheme::Paper,
                        7,
                        stop,
                    )
                })
            });
        }
    }
    group.finish();
}

/// The sign-count kernel where the executor spends *evaluate*: one
/// intersection (the sum over the region rows) and one graph-shift draw on
/// region-major feature sets, at `explore_urban`'s shape (25 regions ×
/// 8,708 hourly steps, a neighbourhood × hour pair), with both windows
/// covering whole rows (aligned: the intersection is one pass) and the
/// left one 3 steps into longer rows (every row read at its own bit
/// offset); the same at neighbourhood × month (25 rows of 12 steps) and
/// zip × day (9 rows of 363 steps), where each row is one or a few words;
/// and 1,000 1-D rotations (shifts 1 to 1,000) at 120 and 2,880 bits —
/// `serve_open`'s city × day and city × hour windows — the left window 5
/// bits into its field.
fn bench_sign_counts(c: &mut Criterion) {
    const ROTATIONS: usize = 1_000;
    let mut group = c.benchmark_group("sign_counts");
    for (shape, regions, steps) in [
        ("", 25, 8_708),
        ("nbhd_month_", 25, 12),
        ("zip_day_", 9, 363),
    ] {
        for (name, before) in [("aligned", 0), ("offset3", 3)] {
            let left = scattered_features(regions * (before + steps), 20, 1);
            let right = scattered_features(regions * steps, 20, 4);
            let (lr, rr) = (
                RowWindows::new(&left, regions, before + steps, before, steps),
                RowWindows::new(&right, regions, steps, 0, steps),
            );
            group.bench_function(format!("intersect_{shape}{name}"), |bch| {
                bch.iter(|| lr.intersect(&rr))
            });
            group.bench_function(format!("draw_{shape}{name}"), |bch| {
                bch.iter(|| {
                    (0..regions)
                        .map(|x| lr.row(x).sign_counts(&rr.row((x * 7 + 3) % regions)).n_pos)
                        .sum::<usize>()
                })
            });
        }
    }
    for bits in [120usize, 2_880] {
        let left = scattered_features(5 + bits, 20, 1);
        let right = scattered_features(bits, 20, 4);
        let (l, r) = (
            FeatureWindow::new(&left, 5, bits),
            FeatureWindow::whole(&right),
        );
        let id = BenchmarkId::new(format!("rotation_{bits}"), ROTATIONS);
        group.bench_function(id, |bch| {
            bch.iter(|| {
                (1..=ROTATIONS)
                    .map(|shift| l.rotated_sign_counts(&r, shift).n_pos)
                    .sum::<usize>()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_relationship, bench_significance_stop, bench_sign_counts
}
criterion_main!(benches);
