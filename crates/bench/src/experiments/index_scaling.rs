//! Figure 7 — merge-tree index creation and feature-query time vs input
//! size, for city (1-D) and neighborhood (3-D) domains.

use crate::{fnum, timed, Table};
use polygamy_stdata::temporal::SeasonalInterval;
use polygamy_stdata::{Resolution, ScalarField, SpatialResolution, TemporalResolution};
use polygamy_topology::{seasonal_thresholds, DomainGraph, FeatureSets, MergeTree};

fn taxi_like_series(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let hod = (i % 24) as f64;
            let diurnal = 40.0 * (0.2 + (-((hod - 19.0) / 3.5).powi(2)).exp());
            let noise = (((i as u64).wrapping_mul(seed | 1) % 997) as f64) / 997.0 * 8.0;
            diurnal + noise
        })
        .collect()
}

/// Measures index creation + feature-query time over growing domains.
pub fn run(quick: bool) -> String {
    let mut out = String::from("# Figure 7 — merge-tree index creation and feature querying\n\n");
    out.push_str(
        "Paper: both times are near-linear in the number of edges; <2 min\n\
         at 30M edges on one node. Shape check: time/edge stays flat.\n\n",
    );
    let steps_list: &[usize] = if quick {
        &[10_000, 40_000, 160_000]
    } else {
        &[10_000, 40_000, 160_000, 640_000, 2_560_000]
    };
    for (label, n_regions) in [("city (1-D)", 1usize), ("neighborhood (3-D)", 40)] {
        out.push_str(&format!("## {label}\n"));
        let mut t = Table::new(&["edges", "index (ms)", "query (ms)", "ns/edge index"]);
        // Grid-ish adjacency for the spatial case.
        let adjacency: Vec<Vec<u32>> = if n_regions == 1 {
            vec![vec![]]
        } else {
            let nx = 8;
            let mut adj = vec![Vec::new(); n_regions];
            for i in 0..n_regions {
                let (x, y) = (i % nx, i / nx);
                if x + 1 < nx && i + 1 < n_regions {
                    adj[i].push((i + 1) as u32);
                    adj[i + 1].push(i as u32);
                }
                if (y + 1) * nx + x < n_regions {
                    adj[i].push((i + nx) as u32);
                    adj[i + nx].push(i as u32);
                }
            }
            for a in &mut adj {
                a.sort_unstable();
            }
            adj
        };
        for &steps in steps_list {
            let n_steps = steps / n_regions.max(1);
            let values = taxi_like_series(n_regions * n_steps, 0x5EED);
            let res = Resolution::new(
                if n_regions == 1 {
                    SpatialResolution::City
                } else {
                    SpatialResolution::Neighborhood
                },
                TemporalResolution::Hour,
            );
            let field = ScalarField {
                resolution: res,
                n_regions,
                start_bucket: 0,
                n_steps,
                values,
            };
            let graph = DomainGraph::new(&adjacency, n_steps);
            let edges = graph.edge_count();
            // Index: join + split tree from one sort, as the pipeline builds
            // them (paper: indexing time includes both).
            let ((join, split), index_s) = timed(|| MergeTree::both(&graph, &field.values));
            // Query: thresholds + both feature classes (paper: querying
            // includes threshold computation and feature identification).
            let (_features, query_s) = timed(|| {
                let season = SeasonalInterval::for_resolution(res.temporal);
                let interval_of_step: Vec<i64> = (0..field.n_steps)
                    .map(|z| season.interval_of(field.step_start(z)))
                    .collect();
                let th = seasonal_thresholds(&join, &split, field.n_regions, &interval_of_step);
                FeatureSets::scan(&field.values, field.n_regions, &th)
            });
            t.row(&[
                edges.to_string(),
                fnum(index_s * 1e3, 1),
                fnum(query_s * 1e3, 1),
                fnum(index_s * 1e9 / edges as f64, 0),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}
