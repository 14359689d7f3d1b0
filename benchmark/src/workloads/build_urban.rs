//! `build_urban` — the write path.
//!
//! One pass = register the urban data sets → `build_index` →
//! `Store::save` (the primary operation: raw data to a durable store),
//! then `Store::upsert_dataset("collisions")` (the secondary operation).
//! Merge trees over the large spatial domains are ~90% of the index
//! build and the query executor does nothing, so topology, stdata and
//! store-write work shows here and only here.

use super::{reference_answer, Ctx, Inputs, Measured, Workload};
use crate::calibration::timed_at_reference;
use crate::clock;
use crate::corpus::{build_and_save, config, generate_urban, Built, Corpus, WORKERS};
use crate::metrics::LayerMetrics;
use crate::probes;
use crate::spans::{Tracer, PRIMARY, SECONDARY};
use crate::stats::median;
use polygamy_core::parse_query;
use polygamy_stdata::Dataset;
use polygamy_store::{shard_store, LoadFilter, SourceBackend, Store, StoreSession};
use std::path::PathBuf;

/// The data set the secondary operation re-indexes in place.
const UPSERT_TARGET: &str = "collisions";

pub struct BuildUrban {
    corpus: Corpus,
    inputs: Inputs,
    path: PathBuf,
    /// PQL of the one query each check compares store against memory.
    check_query: String,
    next_op: u64,
    /// The most recent pass's build (probes replay its index).
    last_built: Option<Built>,
}

impl BuildUrban {
    pub fn setup(ctx: &Ctx) -> Result<Self, String> {
        // Set-up here is only the corpus generation: the build itself is
        // the measured operation.
        let mut times = Vec::new();
        let mut corpus = None;
        for _ in 0..ctx.scale.generate_reps.max(1) {
            let (c, secs) = timed_at_reference(|| {
                ctx.tracer
                    .span("datagen.generate", || generate_urban(&ctx.scale, ctx.seed))
            });
            times.push(secs);
            corpus = Some(c);
        }
        let corpus = corpus.expect("at least one generation ran");
        let names = corpus.names();
        if !names.iter().any(|n| n == UPSERT_TARGET) || names.len() < 2 {
            return Err(format!("urban corpus lacks `{UPSERT_TARGET}`"));
        }
        let other = names
            .iter()
            .find(|n| *n != UPSERT_TARGET)
            .expect("two data sets");
        Ok(Self {
            check_query: format!(
                "between {other} and {UPSERT_TARGET} where permutations = {} and include insignificant",
                ctx.scale.urban_permutations
            ),
            inputs: Inputs {
                setup_s: median(&times),
                // Filled by the first pass: the store does not exist yet.
                store_bytes: 0,
                input_bytes: corpus.input_bytes(),
            },
            corpus,
            path: ctx.dir.join("build_urban.plst"),
            next_op: 1,
            last_built: None,
        })
    }

    fn upsert_dataset(&self) -> &Dataset {
        self.corpus
            .datasets
            .iter()
            .find(|d| d.meta.name == UPSERT_TARGET)
            .expect("checked in setup")
    }

    /// The store at `self.path` must be wholly readable, hold
    /// `n_segments` verified segments, and answer the check query exactly
    /// as the in-memory index does.
    fn store_is_sound(&self, tracer: &Tracer, built: &Built, n_segments: usize) -> bool {
        let run = || -> Result<bool, String> {
            let session = StoreSession::open_lazy_with(
                &self.path,
                config(WORKERS),
                &LoadFilter::all(),
                SourceBackend::default(),
            )
            .map_err(|e| e.to_string())?;
            let lazy = session.lazy_index().ok_or("monolithic store expected")?;
            let verified = tracer
                .span("store.verify_all", || lazy.verify_all())
                .map_err(|e| e.to_string())?;
            let query = parse_query(&self.check_query).map_err(|e| e.to_string())?;
            let stored = session.query(&query).map_err(|e| e.to_string())?;
            let expected = reference_answer(&built.dp, &self.check_query)?;
            Ok(verified == n_segments && stored == expected)
        };
        run().unwrap_or(false)
    }
}

impl Workload for BuildUrban {
    fn inputs(&self) -> &Inputs {
        &self.inputs
    }

    fn pass(&mut self, tracer: &Tracer, m: &mut Measured) -> Result<(), String> {
        let op = self.next_op;
        self.next_op += 2;
        // One index in memory at a time: the previous pass's goes first.
        self.last_built = None;

        let (built, build_s) = clock::timed(|| {
            tracer.op(PRIMARY, op, || {
                build_and_save(tracer, &self.corpus, &self.path)
            })
        });
        let built = built?;
        m.primary_sample(0, build_s * 1e3);
        m.busy_s.push(build_s);
        m.calibrate();
        self.inputs.store_bytes = built.store_bytes;
        let n_segments = built.dp.index().map_err(|e| e.to_string())?.functions.len();
        m.check(self.store_is_sound(tracer, &built, n_segments));

        m.calibrate();
        let (upserted, upsert_s) = clock::timed(|| {
            tracer.op(SECONDARY, op + 1, || {
                tracer.span("store.upsert_dataset", || {
                    Store::upsert_dataset(&self.path, self.upsert_dataset(), &config(WORKERS))
                })
            })
        });
        m.secondary_sample(0, upsert_s * 1e3);
        m.calibrate();
        // Re-indexing the same data must reproduce the same store.
        let same_size = upserted
            .and_then(|s| s.file_bytes())
            .is_ok_and(|bytes| bytes == built.store_bytes);
        m.check(same_size && self.store_is_sound(tracer, &built, n_segments));
        self.last_built = Some(built);
        Ok(())
    }

    fn probes(
        &mut self,
        ctx: &Ctx,
        _traced: &Measured,
        layer: &mut LayerMetrics,
    ) -> Result<(), String> {
        let tracer = &ctx.tracer;
        let built = self.last_built.as_ref().ok_or("no pass ran")?;
        probes::setup_metrics(tracer, built, layer);
        probes::topology_replay(&built.dp, layer)?;
        // The upsert re-indexes one data set and copies the rest: taking
        // that data set's index time out leaves the copy + rewrite.
        let reindex_s = built
            .report
            .per_dataset
            .iter()
            .find(|d| d.name == UPSERT_TARGET)
            .map_or(0.0, |d| d.scalar_secs + d.feature_secs);
        let upsert_s = median(&tracer.durations_ms("store.upsert_dataset")) / 1e3;
        layer.set("store.upsert_copy_s", (upsert_s - reindex_s).max(0.0));
        layer.set(
            "store.verify_all_ms",
            median(&tracer.durations_ms("store.verify_all")),
        );

        let catalog = ctx.dir.join("build_urban.sharded.plst");
        let mut shard_s = Vec::new();
        for _ in 0..3 {
            let (result, secs) = clock::timed(|| shard_store(&self.path, &catalog, 3));
            result.map_err(|e| e.to_string())?;
            shard_s.push(secs);
        }
        layer.set("store.shard_s", median(&shard_s));
        Ok(())
    }
}
