//! Load generator for the `polygamy-serve` network daemon.
//!
//! ```text
//! loadgen --addr HOST:PORT --file <queries.pql> [--clients N] [--requests N] [--print] [--metrics]
//! loadgen --addr HOST:PORT --metrics
//! loadgen --addr HOST:PORT --shutdown
//! ```
//!
//! Every client opens its own connection and sends the whole batch file
//! as one request, `--requests` times (default 1), concurrently, so the
//! daemon merges the requests into shared batches. All responses are asserted byte-identical across clients
//! and repeats (the determinism guarantee of `docs/serving.md` §8); with
//! `--print`, exactly one copy of the response JSONL goes to stdout, so
//! CI can `diff` it against the offline
//! `polygamy-store query --json --file` output. `--shutdown` sends the
//! `S` frame and waits for the drain acknowledgement.
//!
//! Every request's round-trip latency lands in a registry histogram with
//! the same pinned bucket boundaries the daemon uses
//! (`polygamy_obs::LATENCY_BUCKETS_US`), and the report prints p50/p95/p99
//! upper bounds from it. `--metrics` sends the `M` frame
//! (`docs/serving.md` §10) after the drive and cross-checks the daemon's
//! own counters against the traffic this run sent: `serve.queries` must
//! cover it, and the batch-size histogram's sum must equal `serve.queries`
//! — the reconciliation CI relies on, so it is only meaningful against a
//! dedicated, otherwise-idle daemon. Given without `--file`, `--metrics`
//! just fetches the snapshot and prints its JSON to stdout.

#[path = "../../../serve/src/cli_args.rs"]
mod cli_args;

use cli_args::Args;
use polygamy_obs::{names, Histogram, LATENCY_BUCKETS_US};
use polygamy_serve::{Client, Response};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = run(&args);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("loadgen: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> String {
    "usage:\n\
     \x20 loadgen --addr HOST:PORT --file <queries.pql> [--clients N] [--requests N] [--print] [--metrics]\n\
     \x20 loadgen --addr HOST:PORT --metrics\n\
     \x20 loadgen --addr HOST:PORT --shutdown"
        .into()
}

fn run(args: &[String]) -> Result<(), String> {
    let args = Args::parse(
        "",
        args,
        &["--print", "--metrics", "--shutdown"],
        &["--addr", "--file", "--clients", "--requests"],
    )?;
    if let Some(stray) = args.positionals().first() {
        return Err(format!("unexpected argument {stray}\n{}", usage()));
    }
    let clients: usize = args
        .parsed("--clients", "a positive integer", |&n| n > 0)?
        .unwrap_or(4);
    let requests: usize = args
        .parsed("--requests", "a positive integer", |&n| n > 0)?
        .unwrap_or(1);
    let addr = args.value("--addr").ok_or_else(usage)?;
    if args.has("--shutdown") {
        let client =
            Client::connect_retry(addr, Duration::from_secs(10)).map_err(|e| e.to_string())?;
        client.shutdown_server().map_err(|e| e.to_string())?;
        eprintln!("loadgen: server acknowledged drain");
        return Ok(());
    }
    let metrics = args.has("--metrics");
    let file = match args.value("--file") {
        Some(f) => f,
        // A bare metrics probe: fetch the snapshot and print its JSON.
        None if metrics => {
            let snap = fetch_metrics(addr)?;
            println!("{}", snap.to_json());
            return Ok(());
        }
        None => return Err(usage()),
    };
    let batch = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    drive_and_report(
        addr,
        &batch,
        clients,
        requests,
        args.has("--print"),
        metrics,
    )
}

/// Connects (with retry) and fetches one `M`-frame snapshot.
fn fetch_metrics(addr: &str) -> Result<polygamy_obs::MetricsSnapshot, String> {
    let mut client =
        Client::connect_retry(addr, Duration::from_secs(10)).map_err(|e| e.to_string())?;
    client.metrics().map_err(|e| e.to_string())
}

/// Drives a running daemon: `clients` connections, each sending the whole
/// batch `requests` times; returns all responses.
fn drive(addr: &str, batch: &str, clients: usize, requests: usize) -> Result<Vec<String>, String> {
    // One process-wide latency histogram, the same pinned buckets the
    // daemon uses, so client-observed and server-observed distributions
    // are directly comparable.
    let latency: Arc<Histogram> =
        polygamy_obs::global().histogram(names::LOADGEN_LATENCY_US, LATENCY_BUCKETS_US);
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let addr = addr.to_string();
            let batch = batch.to_string();
            let latency = Arc::clone(&latency);
            std::thread::spawn(move || -> Result<Vec<String>, String> {
                // Retry the connect: CI starts the daemon and the load in
                // the same breath.
                let mut client = Client::connect_retry(addr.as_str(), Duration::from_secs(10))
                    .map_err(|e| e.to_string())?;
                let mut out = Vec::with_capacity(requests);
                for _ in 0..requests {
                    let t0 = Instant::now();
                    let response = client.request(&batch).map_err(|e| e.to_string())?;
                    latency.record(t0.elapsed().as_micros() as u64);
                    match response {
                        Response::Results(json) => out.push(json),
                        Response::Error(e) => {
                            return Err(format!("server error: {}: {}", e.error, e.message))
                        }
                    }
                }
                Ok(out)
            })
        })
        .collect();
    let mut all = Vec::new();
    for h in handles {
        all.extend(h.join().map_err(|_| "client thread panicked")??);
    }
    Ok(all)
}

fn drive_and_report(
    addr: &str,
    batch: &str,
    clients: usize,
    requests: usize,
    print: bool,
    metrics: bool,
) -> Result<(), String> {
    let t0 = Instant::now();
    let responses = drive(addr, batch, clients, requests)?;
    let elapsed = t0.elapsed().as_secs_f64();
    let reference = responses.first().ok_or("no responses")?;
    // Determinism across clients, connections and batch composition: every
    // response to the same request must be the same bytes.
    for (i, r) in responses.iter().enumerate() {
        if r != reference {
            return Err(format!(
                "response {i} differs from response 0 — serving is not deterministic"
            ));
        }
    }
    let queries_per_request = batch
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .count();
    let total_queries = (responses.len() * queries_per_request) as u64;
    eprintln!(
        "loadgen: {} request(s) x {queries_per_request} query(ies) over {clients} client(s) \
         in {elapsed:.2}s — {:.1} served queries/sec, all responses byte-identical",
        responses.len(),
        total_queries as f64 / elapsed.max(1e-9)
    );
    report_latency();
    if print {
        println!("{reference}");
    }
    if metrics {
        reconcile_metrics(addr, total_queries)?;
    }
    Ok(())
}

/// Prints client-observed request-latency percentiles from the registry
/// histogram `drive` filled. Percentiles are bucket upper bounds — the
/// histogram is fixed-bucket, so "p99 ≤ X" is the honest phrasing.
fn report_latency() {
    let snap = polygamy_obs::global().snapshot();
    let Some(h) = snap.histogram(names::LOADGEN_LATENCY_US) else {
        return;
    };
    let pct = |q: f64| match h.quantile(q) {
        Some(us) => format!("{us}µs"),
        None => "-".into(),
    };
    eprintln!(
        "loadgen: request latency over {} sample(s): p50 ≤ {}, p95 ≤ {}, p99 ≤ {}",
        h.count(),
        pct(0.50),
        pct(0.95),
        pct(0.99)
    );
}

/// Fetches the daemon's `M`-frame snapshot and reconciles it with the
/// traffic this run sent. Only meaningful against a dedicated daemon with
/// no other traffic — exactly the CI topology.
fn reconcile_metrics(addr: &str, sent_queries: u64) -> Result<(), String> {
    let snap = fetch_metrics(addr)?;
    let served = snap.counter(names::SERVE_QUERIES);
    let requests = snap.counter(names::SERVE_REQUESTS);
    if served == 0 || requests == 0 {
        return Err(format!(
            "metrics: daemon reports {requests} request(s) / {served} query(ies) — \
             counters should be non-zero after a drive"
        ));
    }
    if served < sent_queries {
        return Err(format!(
            "metrics: daemon counted {served} query(ies), this run sent {sent_queries}"
        ));
    }
    let sizes = snap
        .histogram("serve.batch_size")
        .ok_or("metrics: snapshot has no serve.batch_size histogram")?;
    // Every admitted query is dispatched exactly once on the error-free
    // path, so the histogram's sum reconciles with the query counter.
    if sizes.sum != served {
        return Err(format!(
            "metrics: batch-size histogram dispatched {} query(ies), \
             serve.queries says {served} — counters do not reconcile",
            sizes.sum
        ));
    }
    if sizes.count() != snap.counter(names::SERVE_BATCHES) {
        return Err(format!(
            "metrics: batch-size histogram holds {} observation(s), \
             serve.batches says {} — counters do not reconcile",
            sizes.count(),
            snap.counter(names::SERVE_BATCHES)
        ));
    }
    eprintln!(
        "loadgen: daemon metrics reconcile — {requests} request(s), {served} query(ies), \
         {} dispatch(es), mean batch {:.2}",
        sizes.count(),
        sizes.mean()
    );
    Ok(())
}
