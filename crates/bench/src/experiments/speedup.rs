//! Figure 10 — speedup of the three framework components with increasing
//! cluster size (simulated as worker counts on this machine).

use crate::{fnum, timed, Table};
use polygamy_core::pipeline::{compute_scalar_functions, identify_features};
use polygamy_core::prelude::*;
use polygamy_mapreduce::Cluster;

/// Sweeps worker counts and reports per-component speedup vs 1 worker.
pub fn run(quick: bool) -> String {
    let mut out = String::from("# Figure 10 — scalability (speedup vs workers)\n\n");
    out.push_str(
        "Paper: near-linear speedup for scalar-function computation; lower\n\
         for feature identification and relationship evaluation (straggler\n\
         reducers on the high-resolution functions).\n\n",
    );
    let c = super::urban(quick);
    let host = Cluster::host().workers();
    let worker_counts: Vec<usize> = [1usize, 2, 4, 8, 16]
        .into_iter()
        .filter(|&w| w <= host.max(2))
        .collect();
    let perms = if quick { 40 } else { 120 };

    let mut base: Option<(f64, f64, f64)> = None;
    let mut t = Table::new(&[
        "workers",
        "scalar (s)",
        "features (s)",
        "query (s)",
        "speedup scalar",
        "speedup features",
        "speedup query",
    ]);
    for &w in &worker_counts {
        let cluster = Cluster::local(w);
        let config = polygamy_core::framework::Config { cluster };
        // Component 1+2 measured via the pipeline jobs directly.
        let geometry = c.geometry();
        let (fields_all, scalar_secs) = timed(|| {
            c.datasets
                .iter()
                .map(|d| compute_scalar_functions(cluster, geometry, d))
                .collect::<Vec<_>>()
        });
        let (_entries, feature_secs) = timed(|| {
            fields_all
                .into_iter()
                .enumerate()
                .map(|(di, fields)| identify_features(cluster, geometry, di, fields))
                .collect::<Vec<_>>()
        });
        // Component 3: a fixed query workload.
        let mut dp = DataPolygamy::new(geometry.clone(), config);
        for d in c.datasets.iter() {
            dp.add_dataset(d.clone());
        }
        dp.build_index();
        let query = RelationshipQuery::between(&["taxi", "weather", "collisions"], &[])
            .with_clause(
                Clause::default()
                    .permutations(perms)
                    .include_insignificant(),
            );
        let (_rels, query_secs) = timed(|| dp.query(&query).expect("query succeeds"));

        let (s0, f0, q0) = *base.get_or_insert((scalar_secs, feature_secs, query_secs));
        t.row(&[
            w.to_string(),
            fnum(scalar_secs, 2),
            fnum(feature_secs, 2),
            fnum(query_secs, 2),
            fnum(s0 / scalar_secs, 2),
            fnum(f0 / feature_secs, 2),
            fnum(q0 / query_secs, 2),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nHost parallelism: {host} cores; speedups saturate at the core count.\n"
    ));
    out
}
