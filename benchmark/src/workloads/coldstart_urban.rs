//! `coldstart_urban` — the read path, used the opposite way to
//! `build_urban`.
//!
//! Primary operation: a **fresh** lazy session answers its first query
//! (`open_lazy` → fault → checksum → decode → evaluate), for each pair
//! `<first data set> × X`. The first pair reads tens of MB against well
//! under a millisecond of evaluation, so open → fault → checksum →
//! decode is ~99% of the operation and the permutation loop ~0.
//! Secondary operation: one eager open of the whole store.
//!
//! The store was written moments earlier, so reads come from the OS page
//! cache: these are the sandbox's latencies, not a device's. One untimed
//! warm-up open precedes the measured window.

use super::{corrupt_segment, pql_op, ratio, reference_answer, Ctx, Inputs, Measured, Workload};
use crate::clock;
use crate::corpus::{config, generate_urban, setup_store, Setup, WORKERS};
use crate::metrics::LayerMetrics;
use crate::probes;
use crate::spans::{Tracer, PRIMARY, SECONDARY};
use crate::stats::median;
use polygamy_core::{parse_query, Relationship};
use polygamy_store::{shard_store, LoadFilter, SourceBackend, StoreSession};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

pub struct ColdstartUrban {
    setup: Setup,
    inputs: Inputs,
    path: PathBuf,
    /// The cold queries, in seeded order, with their reference answers.
    ops: Vec<(String, Vec<Relationship>)>,
    n_functions: usize,
    next_op: u64,
}

fn open_lazy(path: &Path) -> Result<StoreSession, String> {
    StoreSession::open_lazy_with(
        path,
        config(WORKERS),
        &LoadFilter::all(),
        SourceBackend::default(),
    )
    .map_err(|e| e.to_string())
}

impl ColdstartUrban {
    pub fn setup(ctx: &Ctx) -> Result<Self, String> {
        let path = ctx.dir.join("coldstart_urban.plst");
        let setup = setup_store(
            &ctx.tracer,
            || generate_urban(&ctx.scale, ctx.seed),
            &path,
            ctx.scale.urban_setup_reps,
        )?;
        let names = setup.corpus.names();
        let mut pql: Vec<String> = names[1..]
            .iter()
            .map(|other| {
                format!(
                    "between {} and {other} where permutations = {} and include insignificant",
                    names[0], ctx.scale.urban_permutations
                )
            })
            .collect();
        pql.shuffle(&mut SmallRng::seed_from_u64(ctx.seed));
        let ops = pql
            .into_iter()
            .map(|src| reference_answer(&setup.built.dp, &src).map(|r| (src, r)))
            .collect::<Result<Vec<_>, _>>()?;
        // The first open after a write is several times slower than the
        // steady state; keep it out of the samples.
        drop(StoreSession::open_with(
            &path,
            config(WORKERS),
            &LoadFilter::all(),
        ));
        if ctx.corrupt_store {
            corrupt_segment(&path)?;
        }
        Ok(Self {
            inputs: Inputs::of(&setup),
            n_functions: setup
                .built
                .dp
                .index()
                .map_err(|e| e.to_string())?
                .functions
                .len(),
            setup,
            path,
            ops,
            next_op: 1,
        })
    }

    /// One cold operation against the store at `path`.
    fn cold_op(
        tracer: &Tracer,
        path: &Path,
        src: &str,
    ) -> Result<(Vec<Relationship>, String), String> {
        let session = tracer.span("store.open_lazy", || open_lazy(path))?;
        if tracer.is_enabled() {
            // Isolates the page-in from the evaluation: `query` pins the
            // same segments again, from the segment cache.
            let query = parse_query(src).map_err(|e| e.to_string())?;
            let lazy = session.lazy_index().ok_or("lazy session expected")?;
            tracer
                .span("store.pin_for", || {
                    lazy.pin_for(std::slice::from_ref(&query))
                })
                .map_err(|e| e.to_string())?;
        }
        pql_op(tracer, &session, src)
    }

    /// Median seconds of one pass of cold operations over `path`.
    fn cold_pass_seconds(&self, path: &Path, passes: usize) -> Result<f64, String> {
        let off = Tracer::disabled();
        let mut times = Vec::new();
        for _ in 0..passes {
            let t0 = clock::now();
            for (src, _) in &self.ops {
                Self::cold_op(&off, path, src)?;
            }
            times.push(clock::secs_since(t0));
        }
        Ok(median(&times))
    }
}

impl Workload for ColdstartUrban {
    fn inputs(&self) -> &Inputs {
        &self.inputs
    }

    fn pass(&mut self, tracer: &Tracer, m: &mut Measured) -> Result<(), String> {
        let before = polygamy_obs::global().snapshot();
        let mut busy = 0.0;
        for (k, (src, expected)) in self.ops.iter().enumerate() {
            let (answer, secs) = clock::timed(|| {
                tracer.op(PRIMARY, self.next_op, || {
                    Self::cold_op(tracer, &self.path, src)
                })
            });
            self.next_op += 1;
            m.primary_sample(k, secs * 1e3);
            busy += secs;
            m.check(answer.is_ok_and(|(rels, _)| rels == *expected));
            m.calibrate();
        }
        m.busy_s.push(busy);
        m.add_counters(&before, &polygamy_obs::global().snapshot());

        let (session, secs) = clock::timed(|| {
            tracer.op(SECONDARY, self.next_op, || {
                tracer.span("store.open_eager", || {
                    StoreSession::open_with(&self.path, config(WORKERS), &LoadFilter::all())
                })
            })
        });
        self.next_op += 1;
        m.secondary_sample(0, secs * 1e3);
        m.check(session.is_ok_and(|s| {
            s.index()
                .is_some_and(|i| i.functions.len() == self.n_functions)
        }));
        Ok(())
    }

    fn probes(
        &mut self,
        ctx: &Ctx,
        traced: &Measured,
        layer: &mut LayerMetrics,
    ) -> Result<(), String> {
        let tracer = &ctx.tracer;
        probes::setup_metrics(tracer, &self.setup.built, layer);

        layer.set(
            "store.open_lazy_ms",
            median(&tracer.durations_ms("store.open_lazy")),
        );
        let pins = tracer.durations_ms("store.pin_for");
        layer.set("store.pin_ms", median(&pins));
        let fetched = traced.counter(polygamy_obs::names::STORE_BYTES_FETCHED) as f64;
        let cold_ops = (traced.primary.len() * traced.busy_s.len()) as f64;
        layer.set("store.bytes_per_cold_query", ratio(fetched, cold_ops));
        layer.set(
            "store.fault_mb_per_s",
            ratio(fetched / 1e6, pins.iter().sum::<f64>() / 1e3),
        );

        let session = open_lazy(&self.path)?;
        let lazy = session.lazy_index().ok_or("lazy session expected")?;
        let (verified, secs) = clock::timed(|| lazy.verify_all());
        verified.map_err(|e| e.to_string())?;
        layer.set("store.verify_all_ms", secs * 1e3);

        // The same cold passes over a 3-shard catalog of the same store.
        let catalog = ctx.dir.join("coldstart_urban.sharded.plst");
        let (sharded, secs) = clock::timed(|| shard_store(&self.path, &catalog, 3));
        sharded.map_err(|e| e.to_string())?;
        layer.set("store.shard_s", secs);
        let monolith = self.cold_pass_seconds(&self.path, 3)?;
        let sharded = self.cold_pass_seconds(&catalog, 3)?;
        layer.set("store.sharded_over_monolith", ratio(sharded, monolith));
        Ok(())
    }
}
