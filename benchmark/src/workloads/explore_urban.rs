//! `explore_urban` — the executor on few, huge unit tasks.
//!
//! Primary operation: one never-seen single-pair PQL query (`between A
//! and B where permutations = N and include insignificant`) on a warm
//! eager session, for all 28 pairs of the eight spatial, hourly urban
//! data sets, one closed-loop caller; every pass starts on a fresh
//! session, so the query cache is cold. (`gas-prices`, the first data
//! set — weekly, city-wide, two functions — is left to
//! `coldstart_urban`: its 8 pairs take 0.3 ms each, and with them in the
//! list the median operation sat on the edge of a 2× step in the cost
//! distribution and moved 18–20% from seed to seed.) Spatial graph-shift permutations over neighbourhood × hour
//! domains make `evaluate` ~100% of the wall time — this is the workload
//! on which a permutation-loop rewrite must show. Secondary operation:
//! the same query asked again (a query-cache hit).

use super::{corrupt_segment, pql_op, reference_answer, Ctx, Inputs, Measured, Workload};
use crate::clock;
use crate::corpus::{config, generate_urban, setup_store, Setup, WORKERS};
use crate::metrics::LayerMetrics;
use crate::probes;
use crate::spans::{Tracer, PRIMARY, SECONDARY};
use crate::stats::median;
use polygamy_core::Relationship;
use polygamy_store::{LoadFilter, StoreSession};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::PathBuf;

pub struct ExploreUrban {
    setup: Setup,
    inputs: Inputs,
    path: PathBuf,
    /// Every pair query, in seeded order, with its reference answer.
    ops: Vec<(String, Vec<Relationship>)>,
    next_op: u64,
    /// Rendered bytes of one pass's answers (a count: repeats exactly).
    response_bytes: usize,
    /// Relationships one pass returns.
    relationships: usize,
}

impl ExploreUrban {
    pub fn setup(ctx: &Ctx) -> Result<Self, String> {
        let path = ctx.dir.join("explore_urban.plst");
        let setup = setup_store(
            &ctx.tracer,
            || generate_urban(&ctx.scale, ctx.seed),
            &path,
            ctx.scale.urban_setup_reps,
        )?;
        let names = &setup.corpus.names()[1..];
        let mut pql = Vec::new();
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                pql.push(format!(
                    "between {a} and {b} where permutations = {} and include insignificant",
                    ctx.scale.urban_permutations
                ));
            }
        }
        pql.shuffle(&mut SmallRng::seed_from_u64(ctx.seed));
        let ops = pql
            .into_iter()
            .map(|src| reference_answer(&setup.built.dp, &src).map(|r| (src, r)))
            .collect::<Result<Vec<_>, _>>()?;
        if ctx.corrupt_store {
            corrupt_segment(&path)?;
        }
        Ok(Self {
            inputs: Inputs::of(&setup),
            relationships: ops.iter().map(|(_, r)| r.len()).sum(),
            setup,
            path,
            ops,
            next_op: 1,
            response_bytes: 0,
        })
    }
}

impl Workload for ExploreUrban {
    fn inputs(&self) -> &Inputs {
        &self.inputs
    }

    fn pass(&mut self, tracer: &Tracer, m: &mut Measured) -> Result<(), String> {
        // A fresh session per pass: cold query cache, warm index.
        let session = match StoreSession::open_with(&self.path, config(WORKERS), &LoadFilter::all())
        {
            Ok(session) => session,
            Err(_) => {
                // An unreadable store fails every operation of the pass.
                for _ in 0..2 * self.ops.len() {
                    m.check(false);
                }
                m.busy_s.push(0.0);
                return Ok(());
            }
        };
        let before = polygamy_obs::global().snapshot();
        let mut busy = 0.0;
        let mut response_bytes = 0;
        for (k, (src, expected)) in self.ops.iter().enumerate() {
            let (answer, secs) =
                clock::timed(|| tracer.op(PRIMARY, self.next_op, || pql_op(tracer, &session, src)));
            self.next_op += 1;
            m.primary_sample(k, secs * 1e3);
            busy += secs;
            m.check(answer.is_ok_and(|(rels, json)| {
                response_bytes += json.len();
                rels == *expected
            }));
            m.calibrate();
        }
        m.busy_s.push(busy);
        m.add_counters(&before, &polygamy_obs::global().snapshot());
        self.response_bytes = response_bytes;

        for (k, (src, expected)) in self.ops.iter().enumerate() {
            let (answer, secs) = clock::timed(|| {
                tracer.op(SECONDARY, self.next_op, || pql_op(tracer, &session, src))
            });
            self.next_op += 1;
            m.secondary_sample(k, secs * 1e3);
            m.check(answer.is_ok_and(|(rels, _)| rels == *expected));
            m.calibrate();
        }
        Ok(())
    }

    fn probes(
        &mut self,
        ctx: &Ctx,
        _traced: &Measured,
        layer: &mut LayerMetrics,
    ) -> Result<(), String> {
        let tracer = &ctx.tracer;
        let dp = &self.setup.built.dp;
        probes::setup_metrics(tracer, &self.setup.built, layer);
        layer.set("executor.relationships", self.relationships as f64);
        layer.set("pql_exec.response_bytes", self.response_bytes as f64);
        // Secondary operations are the only cache hits this workload has.
        layer.set(
            "cache.hit_query_us",
            median(&tracer.durations_ms(SECONDARY)) * 1e3,
        );

        let sample: Vec<String> = self
            .ops
            .iter()
            .step_by(4)
            .map(|(src, _)| src.clone())
            .collect();
        probes::executor_probes(dp, &sample, layer)?;
        probes::significance_probes(dp, true, layer)?;
        probes::dispatch_probe(layer);
        Ok(())
    }
}
