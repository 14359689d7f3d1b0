//! The four workloads and the runner that measures them.
//!
//! Every workload is a fixed, seeded list of operations. The measured
//! phase runs **whole passes** over that list until `--seconds` have
//! elapsed, so every pass sees the same mix and a slower machine only
//! gets fewer passes, never a different distribution. Each operation's
//! latency is its **median across passes**; percentiles are then taken
//! across the list's operations. The sandbox's CPU speed comes and goes
//! in bursts of seconds, so the workloads are sized for many short
//! passes (10 to 55 in 15 s) rather than a few long ones: with three
//! passes per run no statistic repeated to better than ±20%
//! (`benchmark/README.md` has the measurements).
//!
//! The caller is closed-loop: the next operation starts only when the
//! previous one has completed.

mod build_urban;
mod coldstart_urban;
mod explore_urban;
mod serve_open;

use crate::calibration;
use crate::clock;
use crate::corpus::Scale;
use crate::metrics::{with_units, LayerMetrics, MetricValue, END_TO_END};
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use polygamy_obs::{names, MetricsSnapshot};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Everything a run is parameterised by.
pub struct Ctx {
    /// `--seed`: corpus seed and query-mix seed.
    pub seed: u64,
    /// `--seconds`: length of the measured phase.
    pub seconds: f64,
    /// `--trace`: per-layer run.
    pub trace: bool,
    /// `--scale`.
    pub scale: Scale,
    /// Scratch directory for store files (inside the checkout).
    pub dir: PathBuf,
    /// Test hook: flip one byte of a stored segment after set-up, so the
    /// smoke test can prove the correctness checks are able to fail.
    pub corrupt_store: bool,
    /// The run's span recorder (enabled on traced runs only).
    pub tracer: Tracer,
}

/// Samples of one measured window.
#[derive(Debug, Default)]
pub struct Measured {
    /// `primary[k]` = latencies (ms) of operation `k`, one per pass.
    pub primary: Vec<Vec<f64>>,
    /// The same for the secondary operations.
    pub secondary: Vec<Vec<f64>>,
    /// Per pass: seconds the caller was busy with the primary list (first
    /// send to last response when a probe uses two connections).
    pub busy_s: Vec<f64>,
    /// Operations attempted, primary and secondary.
    pub attempted: u64,
    /// Operations that errored, were refused, or returned a wrong result.
    pub failed: u64,
    /// Registry counter deltas accumulated over the primary lists.
    pub counters: BTreeMap<String, u64>,
    /// `calibration_ms[p]` = reference-kernel samples taken during pass
    /// `p` (see [`crate::calibration`]).
    pub calibration_ms: Vec<Vec<f64>>,
    /// The pass in progress's sampler.
    sampler: Option<calibration::Sampler>,
}

impl Measured {
    /// Records one primary sample for operation `k`.
    pub fn primary_sample(&mut self, k: usize, ms: f64) {
        push_sample(&mut self.primary, k, ms);
    }

    /// Records one sample for secondary operation `k`.
    pub fn secondary_sample(&mut self, k: usize, ms: f64) {
        push_sample(&mut self.secondary, k, ms);
    }

    /// Opens a pass: kernel sampling starts.
    fn begin_pass(&mut self) {
        self.sampler = Some(calibration::Sampler::start());
    }

    /// Closes the pass, keeping its kernel samples.
    fn end_pass(&mut self) {
        if let Some(sampler) = self.sampler.take() {
            self.calibration_ms.push(sampler.finish());
        }
    }

    /// Called by a workload between operations (see
    /// [`calibration::Sampler::tick`]).
    pub fn calibrate(&mut self) {
        if let Some(sampler) = &mut self.sampler {
            sampler.tick();
        }
    }

    /// Adds kernel samples a caller thread took during this pass.
    fn add_calibration(&mut self, samples: Vec<f64>) {
        if let Some(sampler) = &mut self.sampler {
            sampler.absorb(samples);
        }
    }

    /// Per pass, the factor that turns wall time into reference time.
    pub fn reference_factors(&self) -> Vec<f64> {
        self.calibration_ms
            .iter()
            .map(|samples| ratio(calibration::REFERENCE_MS, median(samples)))
            .collect()
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds the counter movement between two registry snapshots.
    pub fn add_counters(&mut self, before: &MetricsSnapshot, after: &MetricsSnapshot) {
        for (name, &v) in &after.counters {
            let delta = v.saturating_sub(before.counter(name));
            if delta > 0 {
                *self.counters.entry(name.clone()).or_default() += delta;
            }
        }
    }

    /// An accumulated counter delta (0 when it never moved).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Median busy seconds of a pass.
    pub fn median_busy_s(&self) -> f64 {
        median(&self.busy_s)
    }

    /// Total seconds the callers were busy over all passes.
    pub fn busy_total_s(&self) -> f64 {
        self.busy_s.iter().sum()
    }

    /// Nanoseconds the executor spent in its four stages.
    pub fn stage_ns(&self) -> u64 {
        [
            names::CORE_STAGE_PLAN_NS,
            names::CORE_STAGE_EXPAND_NS,
            names::CORE_STAGE_EVALUATE_NS,
            names::CORE_STAGE_ASSEMBLE_NS,
        ]
        .iter()
        .map(|n| self.counter(n))
        .sum()
    }
}

fn push_sample(samples: &mut Vec<Vec<f64>>, k: usize, ms: f64) {
    if samples.len() <= k {
        samples.resize_with(k + 1, Vec::new);
    }
    samples[k].push(ms);
}

/// Each operation's median latency across passes, every sample first
/// scaled by its pass's factor (`samples[k][p] × factors[p]`).
fn median_per_op(samples: &[Vec<f64>], factors: &[f64]) -> Vec<f64> {
    samples
        .iter()
        .map(|per_pass| {
            let scaled: Vec<f64> = per_pass.iter().zip(factors).map(|(ms, f)| ms * f).collect();
            median(&scaled)
        })
        .collect()
}

/// Fixed facts about a workload's inputs, known once set-up is done.
pub struct Inputs {
    /// Median seconds of one set-up.
    pub setup_s: f64,
    /// Store file size.
    pub store_bytes: u64,
    /// Raw input size.
    pub input_bytes: u64,
}

impl Inputs {
    /// The inputs a read workload's set-up produced.
    fn of(setup: &crate::corpus::Setup) -> Self {
        Self {
            setup_s: setup.setup_s,
            store_bytes: setup.built.store_bytes,
            input_bytes: setup.corpus.input_bytes(),
        }
    }
}

/// A workload after set-up.
pub trait Workload {
    /// Set-up time and corpus sizes.
    fn inputs(&self) -> &Inputs;
    /// One whole pass over the operation list, timing and checking each
    /// operation. Spans go to `tracer` (disabled on end-to-end passes).
    fn pass(&mut self, tracer: &Tracer, m: &mut Measured) -> Result<(), String>;
    /// Layer-isolating probes and workload-specific layer metrics;
    /// traced runs only. `traced` is the traced window's samples.
    fn probes(
        &mut self,
        ctx: &Ctx,
        traced: &Measured,
        layer: &mut LayerMetrics,
    ) -> Result<(), String>;
}

/// What a run produced.
pub struct Outcome {
    /// Operations attempted over every window.
    pub attempted: u64,
    /// Operations failed over every window.
    pub failed: u64,
    /// End-to-end metrics (from the untraced window).
    pub end_to_end: BTreeMap<String, MetricValue>,
    /// Per-layer metrics (traced runs).
    pub per_layer: Option<BTreeMap<String, MetricValue>>,
    /// Sample counts behind the reported statistics.
    pub samples: BTreeMap<String, u64>,
    /// The untraced window's raw samples.
    pub untraced: Measured,
}

/// Runs whole passes until `seconds` have elapsed (at least one).
fn run_window(
    seconds: f64,
    tracer: &Tracer,
    workload: &mut dyn Workload,
) -> Result<Measured, String> {
    let mut m = Measured::default();
    let t0 = clock::now();
    loop {
        m.begin_pass();
        workload.pass(tracer, &mut m)?;
        m.end_pass();
        if clock::secs_since(t0) >= seconds {
            return Ok(m);
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sets up `name`, measures it, and derives its metrics.
pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    let mut workload: Box<dyn Workload> = match name {
        "build_urban" => Box::new(build_urban::BuildUrban::setup(ctx)?),
        "coldstart_urban" => Box::new(coldstart_urban::ColdstartUrban::setup(ctx)?),
        "explore_urban" => Box::new(explore_urban::ExploreUrban::setup(ctx)?),
        "serve_open" => Box::new(serve_open::ServeOpen::setup(ctx)?),
        other => return Err(format!("unknown workload `{other}`")),
    };

    // End-to-end numbers always come from a window with tracing off. A
    // traced run splits `--seconds` between that window and a traced one,
    // so the ratio of the two prices the tracing itself.
    let window = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let untraced = run_window(window, &Tracer::disabled(), workload.as_mut())?;
    let inputs = workload.inputs();
    let factors = untraced.reference_factors();
    let per_op = median_per_op(&untraced.primary, &factors);
    let end_to_end = with_units(END_TO_END, |metric| match metric {
        "setup_s" => inputs.setup_s,
        "op_p50_ms" => percentile(&per_op, 50.0),
        "op_p90_ms" => percentile(&per_op, 90.0),
        // One closed-loop caller: a pass's busy time is the sum of its
        // latencies, so the rate follows from the per-operation estimates.
        "ops_per_s" => ratio(per_op.len() as f64, per_op.iter().sum::<f64>() / 1e3),
        "second_op_p50_ms" => median(&median_per_op(&untraced.secondary, &factors)),
        "peak_rss_mb" => peak_rss_mb(),
        "store_bytes_per_input_byte" => inputs.store_bytes as f64 / inputs.input_bytes as f64,
        other => unreachable!("`{other}` is in END_TO_END but not computed"),
    });
    let mut samples = BTreeMap::new();
    samples.insert("distinct_ops".to_string(), untraced.primary.len() as u64);
    samples.insert("passes".to_string(), untraced.busy_s.len() as u64);
    samples.insert(
        "distinct_second_ops".to_string(),
        untraced.secondary.len() as u64,
    );

    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed;
    let per_layer = if ctx.trace {
        let traced = run_window(window, &ctx.tracer, workload.as_mut())?;
        attempted += traced.attempted;
        failed += traced.failed;
        samples.insert("traced_passes".to_string(), traced.busy_s.len() as u64);
        let mut layer = LayerMetrics::default();
        layer.set(
            "bench.trace_overhead_ratio",
            ratio(traced.median_busy_s(), untraced.median_busy_s()),
        );
        let kernel_ms: Vec<f64> = traced.calibration_ms.iter().flatten().copied().collect();
        layer.set("bench.calibration_ms", median(&kernel_ms));
        shared_layer_metrics(&ctx.tracer, &traced, &mut layer);
        workload.probes(ctx, &traced, &mut layer)?;
        Some(layer.to_metrics())
    } else {
        None
    };
    Ok(Outcome {
        attempted,
        failed,
        end_to_end,
        per_layer,
        samples,
        untraced,
    })
}

/// `a / b`, or 0 when `b` is 0.
pub(crate) fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The layer metrics every workload derives the same way: registry
/// counter deltas over the traced primary lists, and the split of the
/// callers' busy time among the layers.
fn shared_layer_metrics(tracer: &Tracer, traced: &Measured, layer: &mut LayerMetrics) {
    let c = |name: &str| traced.counter(name) as f64;
    layer.set("store.bytes_fetched", c(names::STORE_BYTES_FETCHED));
    layer.set("store.segment_faults", c(names::STORE_SEGMENT_FAULTS));
    layer.set(
        "store.segment_cache_hits",
        c(names::STORE_SEGMENT_CACHE_HITS),
    );
    layer.set("store.segment_evictions", c(names::STORE_SEGMENT_EVICTIONS));
    layer.set(
        "store.checksum_verifications",
        c(names::STORE_CHECKSUM_VERIFICATIONS),
    );
    layer.set("store.checksum_failures", c(names::STORE_CHECKSUM_FAILURES));

    layer.set("executor.plan_ms", c(names::CORE_STAGE_PLAN_NS) / 1e6);
    layer.set("executor.expand_ms", c(names::CORE_STAGE_EXPAND_NS) / 1e6);
    layer.set(
        "executor.evaluate_ms",
        c(names::CORE_STAGE_EVALUATE_NS) / 1e6,
    );
    layer.set(
        "executor.assemble_ms",
        c(names::CORE_STAGE_ASSEMBLE_NS) / 1e6,
    );
    layer.set("executor.tasks", c(names::CORE_TASKS_EXPANDED));
    layer.set(
        "executor.tasks_per_query",
        ratio(c(names::CORE_TASKS_EXPANDED), c(names::CORE_QUERIES)),
    );
    let busy = traced.busy_total_s();
    layer.set(
        "executor.evaluate_share",
        ratio(c(names::CORE_STAGE_EVALUATE_NS) / 1e9, busy),
    );

    let hits = c(names::CORE_QUERY_CACHE_HITS);
    let misses = c(names::CORE_QUERY_CACHE_MISSES);
    layer.set("cache.query_hits", hits);
    layer.set("cache.query_misses", misses);
    layer.set("cache.hit_ratio", ratio(hits, hits + misses));

    layer.set(
        "pql.parse_us",
        median(&tracer.durations_ms("pql.parse")) * 1e3,
    );
    layer.set(
        "pql_exec.render_us",
        median(&tracer.durations_ms("pql_exec.render")) * 1e3,
    );

    // Where the callers' busy time went. Executor time is what the
    // program's own stage counters say; it runs inside the store
    // session's `query` span, so it is taken out of the store's share.
    let executor_s = traced.stage_ns() as f64 / 1e9;
    let pipeline_s = tracer.primary_seconds_under("pipeline.");
    let store_s = (tracer.primary_seconds_under("store.") - executor_s).max(0.0);
    let pql_s = tracer.primary_seconds_under("pql");
    let shares = [
        ("trace.share_pipeline", ratio(pipeline_s, busy)),
        ("trace.share_store", ratio(store_s, busy)),
        ("trace.share_executor", ratio(executor_s, busy)),
        ("trace.share_pql", ratio(pql_s, busy)),
    ];
    let mut rest = 1.0;
    for (name, share) in shares {
        layer.set(name, share);
        rest -= share;
    }
    layer.set("trace.share_other", rest.max(0.0));
}

/// One PQL query against a store session, the way `execute_pql_query`
/// followed by `PqlOutcome::to_json` runs it — parse, evaluate, render —
/// with a span around each call. Returns the relationships and the
/// rendered JSON line.
pub(crate) fn pql_op(
    tracer: &Tracer,
    session: &polygamy_store::StoreSession,
    src: &str,
) -> Result<(Vec<polygamy_core::Relationship>, String), String> {
    let query = tracer
        .span("pql.parse", || polygamy_core::parse_query(src))
        .map_err(|e| e.to_string())?;
    let relationships = tracer
        .span("store.session_query", || session.query(&query))
        .map_err(|e| e.to_string())?;
    let outcome = polygamy_store::PqlOutcome {
        query,
        relationships,
        trace: None,
    };
    let json = tracer.span("pql_exec.render", || outcome.to_json());
    Ok((outcome.relationships, json))
}

/// The reference answer to `src`: evaluated on the in-memory index at
/// one worker with a fresh cache — a path that shares neither the store
/// nor the parallel schedule with the operation it checks. Computed
/// in-run, never pinned, so a legitimate change to the statistics moves
/// both sides together.
pub(crate) fn reference_answer(
    dp: &polygamy_core::DataPolygamy,
    src: &str,
) -> Result<Vec<polygamy_core::Relationship>, String> {
    let query = polygamy_core::parse_query(src).map_err(|e| e.to_string())?;
    polygamy_core::run_query(
        dp.index().map_err(|e| e.to_string())?,
        dp.geometry(),
        &crate::corpus::config(1),
        &crate::corpus::fresh_cache(),
        &query,
    )
    .map_err(|e| e.to_string())
}

/// Flips one byte in the middle of the store's first segment (the
/// `--corrupt-store` test hook). That segment belongs to the first data
/// set, which every read workload's first operations touch.
pub(crate) fn corrupt_segment(path: &std::path::Path) -> Result<(), String> {
    let store = polygamy_store::Store::open(path).map_err(|e| e.to_string())?;
    let loc = store
        .manifest()
        .segments
        .first()
        .ok_or("no segment to corrupt")?
        .loc;
    drop(store);
    let mut bytes = std::fs::read(path).map_err(|e| e.to_string())?;
    let at = usize::try_from(loc.offset + loc.len / 2).map_err(|e| e.to_string())?;
    bytes[at] ^= 0xFF;
    std::fs::write(path, bytes).map_err(|e| e.to_string())
}
