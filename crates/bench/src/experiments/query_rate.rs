//! Figure 9 — relationship-evaluation rate with increasing numbers of data
//! sets, measured on the serial path (one worker) and on the flat parallel
//! executor (all host cores on one shared pool).

use crate::{fnum, timed, Table};
use polygamy_core::cache::{QueryCache, DEFAULT_QUERY_CACHE_CAPACITY};
use polygamy_core::pql::{parse_query, to_pql};
use polygamy_core::prelude::*;
use polygamy_core::run_query;
use polygamy_mapreduce::Cluster;
use std::hint::black_box;

/// Measures candidate evaluations per minute for growing corpus prefixes,
/// serial vs flat-parallel.
pub fn run(quick: bool) -> String {
    let mut out = String::from("# Figure 9 — query performance\n\n");
    out.push_str(
        "Paper: rate stabilises above ~10^4 relationships/minute and is\n\
         independent of raw data size (evaluation touches only features).\n\
         >90% of query time goes to the significance tests — which the flat\n\
         executor spreads over one shared worker pool per query. The last\n\
         column prices the PQL textual frontend: microseconds to compile\n\
         the query from its canonical text, against seconds to run it.\n\n",
    );
    let c = super::urban(quick);
    let perms = if quick { 60 } else { 200 };
    let mut t = Table::new(&[
        "#data sets",
        "#relationships evaluated",
        "serial (s)",
        "flat (s)",
        "serial rel/min",
        "flat rel/min",
        "speedup",
        "pql parse (µs)",
    ]);
    let sizes: Vec<usize> = if quick {
        vec![3, 5, 7, 9]
    } else {
        vec![2, 4, 6, 8, 9]
    };
    let mut rates = Vec::new();
    let mut speedups = Vec::new();
    for &n in &sizes {
        let mut dp = DataPolygamy::new(
            c.geometry().clone(),
            polygamy_core::framework::Config::default(),
        );
        for d in c.datasets.iter().take(n) {
            dp.add_dataset(d.clone());
        }
        dp.build_index();
        let index = dp.index().expect("index built");
        let query = RelationshipQuery::all().with_clause(
            Clause::default()
                .permutations(perms)
                .include_insignificant(),
        );
        // Same index, fresh cache per run, only the worker count differs —
        // the flat executor guarantees identical results either way.
        let run_with = |cluster: Cluster| {
            let config = polygamy_core::framework::Config { cluster };
            let cache = QueryCache::new(DEFAULT_QUERY_CACHE_CAPACITY);
            timed(|| {
                run_query(index, dp.geometry(), &config, &cache, &query).expect("query succeeds")
            })
        };
        let (serial_rels, serial_secs) = run_with(Cluster::local(1));
        let (flat_rels, flat_secs) = run_with(Cluster::host());
        assert_eq!(serial_rels, flat_rels, "executor is worker-independent");
        let serial_rate = serial_rels.len() as f64 / serial_secs * 60.0;
        let flat_rate = flat_rels.len() as f64 / flat_secs * 60.0;
        let speedup = serial_secs / flat_secs.max(1e-9);
        // Parse + plan overhead of the textual frontend: compile the same
        // query from its canonical PQL text. Amortised over repeats so the
        // number is stable at microsecond scale.
        let pql = to_pql(&query);
        let parse_repeats = 2_000u32;
        let (_, parse_total) = timed(|| {
            for _ in 0..parse_repeats {
                black_box(parse_query(black_box(&pql)).expect("canonical PQL parses"));
            }
        });
        let parse_us = parse_total * 1e6 / f64::from(parse_repeats);
        rates.push(flat_rate);
        speedups.push(speedup);
        t.row(&[
            n.to_string(),
            flat_rels.len().to_string(),
            fnum(serial_secs, 2),
            fnum(flat_secs, 2),
            fnum(serial_rate, 0),
            fnum(flat_rate, 0),
            format!("{speedup:.1}x"),
            fnum(parse_us, 2),
        ]);
    }
    out.push_str(&t.render());
    let spread = rates.iter().cloned().fold(0.0, f64::max)
        / rates
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
            .max(1e-9);
    let best = speedups.iter().cloned().fold(0.0, f64::max);
    out.push_str(&format!(
        "\nRate spread (max/min, flat): {:.1}x — the paper's curve flattens\n\
         once enough pairs amortise fixed costs. Best flat-over-serial\n\
         speedup: {:.1}x on {} host cores (identical results at every\n\
         worker count).\n",
        spread,
        best,
        Cluster::host().workers(),
    ));
    out
}
