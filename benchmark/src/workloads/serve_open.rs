//! `serve_open` — the executor used the other way: many tiny 1-D tasks,
//! behind the network daemon.
//!
//! An in-process `polygamy_serve::Server` over a **lazy** session on the
//! open-corpus store (1,323 segments > the 1,024-entry segment LRU) and
//! one closed-loop `Client`. Primary operation: one request, send → full
//! response. (Two concurrent clients were measured first: a request's
//! latency then depends on what the other client happens to have in the
//! dispatcher, which differs from pass to pass, and its run-to-run spread
//! was 28–50% against 10–13% with one. The two-connection configuration
//! is kept as a per-layer probe.) The seeded list mixes, per caller,
//!
//! * 65% never-seen pair queries (the planted pairs always among them),
//!   stratified by the pair's native temporal resolutions so every seed
//!   has the same cost mix and only *which* data sets differ;
//! * 30% exact repeats of one of the same caller's earlier pair requests
//!   (query-cache hits: parse → queue → render → wire only);
//! * 5% one-to-all sweeps `between X and * where class = extreme`, each
//!   touching every segment (segment-cache evictions).
//!
//! Hundreds of microsecond-scale temporal-rotation tasks per pair and one
//! pool dispatch per small batch: per-task, per-dispatch, coalescing,
//! cache and wire costs show here and are invisible on `explore_urban`.
//! Secondary operation: the round trip of a request whose answer is
//! already cached.

use super::{corrupt_segment, ratio, Ctx, Inputs, Measured, Workload};
use crate::calibration::Sampler;
use crate::clock;
use crate::corpus::{config, generate_open, setup_store, Corpus, Setup, WORKERS};
use crate::metrics::LayerMetrics;
use crate::probes;
use crate::spans::{Tracer, PRIMARY, SECONDARY};
use crate::stats::median;
use polygamy_obs::names;
use polygamy_serve::{Client, Response, ServeOptions, Server};
use polygamy_store::{execute_pql_query, LoadFilter, SourceBackend, StoreSession};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// The request mix is written as two callers' lists, so that the same
/// requests can be sent over one connection (interleaved — the measured
/// configuration) or over two concurrent ones (the coalescing probe).
const CLIENTS: usize = 2;

pub struct ServeOpen {
    setup: Setup,
    inputs: Inputs,
    path: PathBuf,
    /// Per client, its requests in sending order.
    lists: Vec<Vec<String>>,
    /// Byte-exact expected responses of the checked requests.
    expected: BTreeMap<String, String>,
    /// Requests whose answers are cached once the lists have run.
    hot: Vec<String>,
    next_op: u64,
    drain_ms: Vec<f64>,
    response_bytes: usize,
}

/// What one client observed for one request.
struct Reply {
    ms: f64,
    /// The response text, or `None` for an error frame or a broken
    /// connection.
    text: Option<String>,
}

fn send(tracer: &Tracer, client: &mut Client, pql: &str) -> Reply {
    let (response, secs) = clock::timed(|| tracer.span("serve.request", || client.request(pql)));
    Reply {
        ms: secs * 1e3,
        text: match response {
            Ok(Response::Results(text)) => Some(text),
            Ok(Response::Error(_)) | Err(_) => None,
        },
    }
}

/// True for the one-to-all sweep requests.
fn is_sweep(pql: &str) -> bool {
    pql.contains(" and * ")
}

/// Builds the two request lists for `seed`.
fn request_lists(
    corpus: &Corpus,
    per_client: usize,
    permutations: usize,
    seed: u64,
) -> Vec<Vec<String>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let names = corpus.names();
    let n_repeats = per_client * 3 / 10;
    let n_sweeps = (per_client / 20).max(1);
    let n_new = CLIENTS * (per_client - n_repeats - n_sweeps);

    // Every pair, grouped by the two data sets' native temporal
    // resolutions: pairs of one group cost about the same.
    let mut strata: BTreeMap<(u8, u8), Vec<(usize, usize)>> = BTreeMap::new();
    let class = |i: usize| corpus.datasets[i].meta.temporal_resolution.code();
    for a in 0..names.len() {
        for b in a + 1..names.len() {
            let key = (class(a).min(class(b)), class(a).max(class(b)));
            strata.entry(key).or_default().push((a, b));
        }
    }
    let total: usize = strata.values().map(Vec::len).sum();
    let n_new = n_new.min(total);
    // Planted pairs first, then each stratum up to its proportional
    // quota, then (rounding) whatever is still missing from the front.
    let mut chosen: Vec<(usize, usize)> = corpus.planted.clone();
    chosen.truncate(n_new);
    let mut spare = Vec::new();
    for pairs in strata.values_mut() {
        pairs.shuffle(&mut rng);
        let quota = n_new * pairs.len() / total;
        let planted_here = pairs.iter().filter(|p| chosen.contains(p)).count();
        let mut fresh = pairs
            .iter()
            .filter(|p| !corpus.planted.contains(p))
            .copied();
        chosen.extend(fresh.by_ref().take(quota.saturating_sub(planted_here)));
        spare.extend(fresh);
    }
    let missing = n_new.saturating_sub(chosen.len());
    chosen.extend(spare.into_iter().take(missing));
    chosen.truncate(n_new);
    chosen.shuffle(&mut rng);

    let pair_pql = |(a, b): (usize, usize)| {
        format!(
            "between {} and {} where permutations = {permutations}",
            names[a], names[b]
        )
    };
    let mut sweep_of: Vec<usize> = (0..names.len()).collect();
    sweep_of.shuffle(&mut rng);
    let mut sweeps = sweep_of.into_iter().map(|x| {
        format!(
            "between {} and * where class = extreme and permutations = {permutations}",
            names[x]
        )
    });

    (0..CLIENTS)
        .map(|c| {
            let mut pairs: Vec<String> = chosen
                .iter()
                .skip(c)
                .step_by(CLIENTS)
                .map(|&p| pair_pql(p))
                .collect();
            // The first request is a pair query, so every repeat has an
            // earlier pair request of its own client to copy.
            let first = pairs.pop();
            let mut base: Vec<String> = pairs;
            base.extend(sweeps.by_ref().take(n_sweeps));
            base.shuffle(&mut rng);
            let len = 1 + base.len() + n_repeats;
            let mut repeat_at: Vec<usize> = (1..len).collect();
            repeat_at.shuffle(&mut rng);
            repeat_at.truncate(n_repeats);
            let mut base = first.into_iter().chain(base);
            let mut list: Vec<String> = Vec::with_capacity(len);
            for slot in 0..len {
                if repeat_at.contains(&slot) {
                    let earlier: Vec<&String> = list.iter().filter(|q| !is_sweep(q)).collect();
                    list.push(earlier[rng.gen_range(0..earlier.len())].clone());
                } else {
                    list.extend(base.next());
                }
            }
            list
        })
        .collect()
}

impl ServeOpen {
    pub fn setup(ctx: &Ctx) -> Result<Self, String> {
        let path = ctx.dir.join("serve_open.plst");
        let setup = setup_store(
            &ctx.tracer,
            || generate_open(&ctx.scale, ctx.seed),
            &path,
            ctx.scale.open_setup_reps,
        )?;
        let lists = request_lists(
            &setup.corpus,
            ctx.scale.serve_requests_per_client,
            ctx.scale.serve_permutations,
            ctx.seed,
        );

        // The reference side: a separate eager session at one worker,
        // asked directly — no daemon, no lazy faults, no coalescing.
        // Checked byte-for-byte: every 10th request (in the interleaved
        // order the clients send them) and every planted pair.
        let reference = StoreSession::open_with(&path, config(1), &LoadFilter::all())
            .map_err(|e| e.to_string())?;
        let names = setup.corpus.names();
        let planted: Vec<String> = setup
            .corpus
            .planted
            .iter()
            .map(|&(a, b)| format!("between {} and {} where", names[a], names[b]))
            .collect();
        let mut expected = BTreeMap::new();
        let mut recalled = 0;
        for (c, list) in lists.iter().enumerate() {
            for (i, pql) in list.iter().enumerate() {
                let is_planted = planted.iter().any(|p| pql.starts_with(p));
                let sampled = (i * CLIENTS + c) % 10 == 0;
                if !(sampled || is_planted) || expected.contains_key(pql) {
                    continue;
                }
                let outcome = execute_pql_query(&reference, pql).map_err(|e| e.to_string())?;
                recalled += usize::from(is_planted && !outcome.relationships.is_empty());
                expected.insert(pql.clone(), outcome.to_json());
            }
        }
        eprintln!(
            "serve_open: {} of {} planted pairs have a significant relationship; {} responses checked byte-for-byte",
            recalled,
            planted.len(),
            expected.len()
        );
        let mut hot: Vec<String> = Vec::new();
        for pql in lists[0].iter().filter(|q| !is_sweep(q)) {
            if !hot.contains(pql) {
                hot.push(pql.clone());
            }
        }
        if ctx.corrupt_store {
            corrupt_segment(&path)?;
        }
        Ok(Self {
            inputs: Inputs::of(&setup),
            setup,
            path,
            lists,
            expected,
            hot,
            next_op: 1,
            drain_ms: Vec::new(),
            response_bytes: 0,
        })
    }

    fn is_right(&self, pql: &str, reply: &Reply) -> bool {
        match (&reply.text, self.expected.get(pql)) {
            (None, _) => false,
            (Some(text), Some(expected)) => text == expected,
            (Some(_), None) => true,
        }
    }

    /// The requests as `(operation index, PQL)`, dealt to `connections`
    /// connections. Operation `2i + c` is caller `c`'s `i`-th request;
    /// each connection sends its share in ascending operation order, so
    /// one connection interleaves the two callers and two connections
    /// send one caller's list each.
    fn schedules(&self, connections: usize) -> Vec<Vec<(usize, &str)>> {
        let mut schedules = vec![Vec::new(); connections];
        for i in 0..self.lists[0].len() {
            for (c, list) in self.lists.iter().enumerate() {
                schedules[c % connections].push((i * CLIENTS + c, list[i].as_str()));
            }
        }
        schedules
    }

    /// One pass against a fresh daemon over a fresh lazy session, the
    /// requests sent over `connections` concurrent closed-loop
    /// connections.
    fn drive(
        &mut self,
        tracer: &Tracer,
        connections: usize,
        coalesce: bool,
        m: &mut Measured,
    ) -> Result<(), String> {
        let session = StoreSession::open_lazy_with(
            &self.path,
            config(WORKERS),
            &LoadFilter::all(),
            SourceBackend::default(),
        )
        .map_err(|e| e.to_string())?;
        let options = ServeOptions {
            coalesce,
            ..ServeOptions::default()
        };
        let server =
            Server::bind("127.0.0.1:0", Arc::new(session), options).map_err(|e| e.to_string())?;
        let addr = server.local_addr();
        let schedules = self.schedules(connections);
        let n_ops = CLIENTS * self.lists[0].len();
        let op_base = self.next_op;

        let before = polygamy_obs::global().snapshot();
        let start_line = Barrier::new(connections);
        type ClientRun = Result<(Client, Vec<Reply>, Vec<f64>, Instant, Instant), String>;
        let runs: Vec<ClientRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = schedules
                .iter()
                .map(|schedule| {
                    let start_line = &start_line;
                    scope.spawn(move || -> ClientRun {
                        let connected = Client::connect(addr).map_err(|e| e.to_string());
                        // Every caller reaches the line even if one failed
                        // to connect, so none waits forever.
                        start_line.wait();
                        let mut client = connected?;
                        let started = clock::now();
                        // A lone caller also keeps the reference clock
                        // between its requests.
                        let mut sampler = (connections == 1).then(Sampler::start);
                        let replies = schedule
                            .iter()
                            .map(|&(k, pql)| {
                                let reply = tracer.op(PRIMARY, op_base + k as u64, || {
                                    send(tracer, &mut client, pql)
                                });
                                if let Some(sampler) = &mut sampler {
                                    sampler.tick();
                                }
                                reply
                            })
                            .collect();
                        let ended = clock::now();
                        let kernel_ms = sampler.map_or(Vec::new(), Sampler::finish);
                        Ok((client, replies, kernel_ms, started, ended))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".into()))
                })
                .collect()
        });
        m.add_counters(&before, &polygamy_obs::global().snapshot());

        let mut clients = Vec::new();
        let mut window: Option<(Instant, Instant)> = None;
        let (mut response_bytes, mut busy_ms) = (0, 0.0);
        for (schedule, run) in schedules.iter().zip(runs) {
            match run {
                Ok((client, replies, kernel_ms, started, ended)) => {
                    m.add_calibration(kernel_ms);
                    for (&(k, pql), reply) in schedule.iter().zip(&replies) {
                        m.primary_sample(k, reply.ms);
                        busy_ms += reply.ms;
                        m.check(self.is_right(pql, reply));
                        response_bytes += reply.text.as_ref().map_or(0, String::len);
                    }
                    window = Some(
                        window.map_or((started, ended), |(s, e)| (s.min(started), e.max(ended))),
                    );
                    clients.push(client);
                }
                // A caller that never connected fails its whole share.
                Err(_) => schedule.iter().for_each(|_| m.check(false)),
            }
        }
        // One caller: busy time is the sum of its latencies (the kernel
        // samples in between are not the program's time). Two: first send
        // to last response.
        m.busy_s.push(if connections == 1 {
            busy_ms / 1e3
        } else {
            window.map_or(0.0, |(s, e)| e.duration_since(s).as_secs_f64())
        });

        // Secondary operation: every answer below is in the query cache.
        let mut hot_replies = Vec::new();
        if let Some(client) = clients.first_mut() {
            for (i, pql) in self.hot.iter().enumerate() {
                let op = op_base + (n_ops + i) as u64;
                hot_replies.push(tracer.op(SECONDARY, op, || send(tracer, client, pql)));
            }
        }
        for (i, (pql, reply)) in self.hot.iter().zip(&hot_replies).enumerate() {
            m.secondary_sample(i, reply.ms);
            m.check(self.is_right(pql, reply));
        }
        drop(clients);
        let ((), drain_s) = clock::timed(|| {
            server.shutdown();
            server.wait();
        });
        self.next_op += (n_ops + self.hot.len()) as u64;
        self.response_bytes = response_bytes;
        self.drain_ms.push(drain_s * 1e3);
        Ok(())
    }
}

impl Workload for ServeOpen {
    fn inputs(&self) -> &Inputs {
        &self.inputs
    }

    fn pass(&mut self, tracer: &Tracer, m: &mut Measured) -> Result<(), String> {
        self.drive(tracer, 1, true, m)
    }

    fn probes(
        &mut self,
        ctx: &Ctx,
        traced: &Measured,
        layer: &mut LayerMetrics,
    ) -> Result<(), String> {
        let tracer = &ctx.tracer;
        probes::setup_metrics(tracer, &self.setup.built, layer);
        layer.set("pql_exec.response_bytes", self.response_bytes as f64);
        layer.set(
            "serve.hot_roundtrip_us",
            median(&tracer.durations_ms(SECONDARY)) * 1e3,
        );
        let c = |name: &str| traced.counter(name) as f64;
        layer.set("serve.requests", c(names::SERVE_REQUESTS));
        layer.set("serve.batches", c(names::SERVE_BATCHES));
        layer.set(
            "serve.errors",
            traced
                .counters
                .iter()
                .filter(|(name, _)| name.starts_with(names::SERVE_ERRORS_PREFIX))
                .map(|(_, &v)| v as f64)
                .sum(),
        );
        layer.set("serve.drain_ms", median(&self.drain_ms));

        // The same requests over two concurrent connections, coalesced
        // and not: does concurrency pay, and does coalescing?
        let off = Tracer::disabled();
        let (mut coalesced, mut serial) = (Measured::default(), Measured::default());
        for _ in 0..2 {
            self.drive(&off, CLIENTS, true, &mut coalesced)?;
            self.drive(&off, CLIENTS, false, &mut serial)?;
        }
        layer.set(
            "serve.mean_batch",
            ratio(
                coalesced.counter(names::SERVE_QUERIES) as f64,
                coalesced.counter(names::SERVE_BATCHES) as f64,
            ),
        );
        layer.set(
            "serve.coalesced_over_serial_qps",
            ratio(serial.median_busy_s(), coalesced.median_busy_s()),
        );
        layer.set(
            "serve.two_connections_over_one_qps",
            ratio(traced.median_busy_s(), coalesced.median_busy_s()),
        );

        let dp = &self.setup.built.dp;
        let sample: Vec<String> = self.hot.iter().step_by(3).cloned().collect();
        probes::executor_probes(dp, &sample, layer)?;
        probes::significance_probes(dp, false, layer)?;
        probes::dispatch_probe(layer);
        Ok(())
    }
}
