//! The `polygamy-store` command line: build, inspect, query and serve
//! store files.
//!
//! ```text
//! polygamy-store build <path> [--quick] [--years N] [--scale S] [--shards N]
//! polygamy-store shard <monolith.plst> <out.plst> [--shards N]
//! polygamy-store merge <catalog.plst> <out.plst>
//! polygamy-store inspect <path> [--verify]
//! polygamy-store query <path> --pql "<query>" [--json] [--trace] [--lazy]
//! polygamy-store query <path> --file <queries.pql> [--json] [--trace] [--lazy]
//! polygamy-store repl <path> [--lazy]
//! polygamy-store serve <path> [--addr HOST:PORT] [--max-inflight N]
//!                [--read-timeout-ms N] [--max-frame-bytes N]
//!                [--metrics-jsonl <path>] [--lazy]
//! ```
//!
//! A `--flag` the subcommand does not list above, or a value flag with no
//! value after it, is an error naming the flag (exit 1) before any work
//! starts.
//!
//! `build` indexes the synthetic urban corpus from `polygamy_datagen` and
//! writes it as a store — with `--shards N` a *sharded* store: one
//! self-contained shard file per partition plus a shard catalog at the
//! given path, the same bytes `build` then `shard` writes. `shard`
//! migrates an existing monolithic store into a sharded layout and
//! `merge` reassembles a sharded store into one file; both copy geometry
//! and segment bytes verbatim, so `shard` → `merge` reproduces the
//! original monolith byte-for-byte. Every other subcommand auto-detects
//! which kind of file it was given.
//!
//! `inspect` prints, per store file, the header, catalog (hot vs field
//! bytes per data set) and segment directory without decoding any
//! segment, and decodes the geometry into one `geometry:` line (its size
//! and each partition's region and vertex counts). A shard catalog first
//! prints its routing — each data set's shard and each shard file's
//! availability — and then that block for every available shard file.
//! `--verify` additionally reads every blob, hot and field, of every file
//! and checks its checksum, failing on the first unavailable shard file;
//! under it a geometry that does not decode fails the command. `query`
//! opens a serving session and evaluates PQL (see `docs/pql.md`): `--pql`
//! takes one query — collections *and* clause in one string — and `--file`
//! a batch file (one query per line, `#` comments) that runs through
//! `StoreSession::query_many`, every query's candidate evaluations on one
//! shared worker pool instead of paying session and pool startup per
//! query.
//!
//! `--json` switches the query report from the human-readable lines to the
//! canonical one-JSON-object-per-query rendering defined in
//! `docs/serving.md` §5 — byte-identical to what the network daemon
//! returns for the same queries, so offline and served output diff clean.
//!
//! `--lazy` opens the session demand-paged: segments are read (and their
//! checksums verified) only when a query touches them — scalar field
//! blobs only for data sets a `thresholds` clause names — so open cost is
//! O(header + manifest + geometry) regardless of corpus size. Results are
//! byte-identical to the default eager mode.
//!
//! `repl` serves parsed PQL queries interactively from one long-lived
//! session: parse errors print caret diagnostics and leave the session
//! running.
//!
//! `--trace` (and the PQL `explain` prefix in the REPL) installs a trace
//! collector around execution and prints the per-stage span timings and
//! counters (`docs/observability.md`); the trace goes to stderr (or a
//! separate `trace:` line in the REPL), so the query output itself stays
//! byte-identical to an untraced run.
//!
//! `serve` runs the long-lived network daemon from `polygamy_serve`: PQL
//! in, canonical JSON out, concurrent requests coalesced into one flat
//! `query_many` dispatch, led by one of the requesting connections. The wire protocol, limits and shutdown
//! semantics are specified in `docs/serving.md`; the daemon exits after a
//! client sends the shutdown frame (e.g. `loadgen --shutdown`).
//! `--metrics-jsonl <path>` appends a registry-snapshot JSON line per
//! second (and a final one at drain) for unattended runs; clients can
//! also poll the `M` metrics frame at any time.

#[path = "../cli_args.rs"]
mod cli_args;

use cli_args::Args;
use polygamy_core::pql::{parse_query_maybe_explain, to_pql};
use polygamy_core::prelude::*;
use polygamy_core::DataPolygamy;
use polygamy_datagen::{urban_collection, UrbanConfig};
use polygamy_obs::names;
use polygamy_serve::{ServeOptions, Server};
use polygamy_store::{
    execute_pql_batch, execute_pql_batch_traced, execute_pql_query, execute_pql_query_traced,
    is_sharded, merge_shards, shard_store, LazyIndex, PqlServeError, ShardCatalog, Store,
    StoreSession, SHARD_CATALOG_VERSION, VERSION,
};
use std::io::{BufRead, IsTerminal, Write};
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Writes one line to standard output through [`emit`], returning its
/// error from the enclosing function.
macro_rules! outln {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))?
    };
}

/// Every line the CLI prints goes through here. A reader that stops
/// early (`inspect --verify | head -3`) closes the pipe, and the write
/// after that fails with `BrokenPipe`: that is the end of output, not an
/// error — later lines are dropped and the command runs to its end, so a
/// `build` still writes its store and `serve` keeps serving. Any other
/// write failure is the command's error.
fn emit(text: std::fmt::Arguments<'_>) -> Result<(), String> {
    static CLOSED: AtomicBool = AtomicBool::new(false);
    // ordering: Relaxed — the flag only drops output; nothing else is
    // published through it.
    if CLOSED.load(Ordering::Relaxed) {
        return Ok(());
    }
    match std::io::stdout().lock().write_fmt(text) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
            // ordering: Relaxed — as above.
            CLOSED.store(true, Ordering::Relaxed);
            Ok(())
        }
        written => written.map_err(|e| format!("cannot write to standard output: {e}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("build") => cmd_build(&args[1..]),
        Some("shard") => cmd_shard(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("repl") => cmd_repl(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        _ => {
            eprintln!(
                "usage: polygamy-store <build|shard|merge|inspect|query|repl|serve> <path> [args]\n\
                 \x20 build <path> [--quick] [--years N] [--scale S] [--shards N]\n\
                 \x20 shard <monolith.plst> <out.plst> [--shards N]\n\
                 \x20 merge <catalog.plst> <out.plst>\n\
                 \x20 inspect <path> [--verify]\n\
                 \x20 query <path> --pql \"between taxi and * where score >= 0.6\" \
                 [--json] [--trace] [--lazy]\n\
                 \x20 query <path> --file <queries.pql> [--json] [--trace] [--lazy]\n\
                 \x20 repl <path> [--lazy]\n\
                 \x20 serve <path> [--addr HOST:PORT] [--max-inflight N] \
                 [--read-timeout-ms N] [--max-frame-bytes N] \
                 [--metrics-jsonl <path>] [--lazy]"
            );
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("polygamy-store: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_build(args: &[String]) -> Result<(), String> {
    let args = Args::parse(
        "build",
        args,
        &["--quick"],
        &["--years", "--scale", "--shards"],
    )?;
    let path = *args.positionals().first().ok_or("build: missing <path>")?;
    let quick = args.has("--quick");
    let years: usize = args
        .parsed("--years", "an integer", |_| true)?
        .unwrap_or(if quick { 1 } else { 2 });
    let scale: f64 = args
        .parsed("--scale", "a number", |_| true)?
        .unwrap_or(if quick { 0.02 } else { 0.2 });
    let n_shards: Option<usize> = args.parsed("--shards", "a positive integer", |&n| n > 0)?;
    let collection = urban_collection(UrbanConfig {
        n_years: years,
        scale,
        extra_weather_attrs: if quick { 0 } else { 8 },
        ..UrbanConfig::default()
    });
    let config = if quick {
        Config::fast_test()
    } else {
        Config::default()
    };
    let mut dp = DataPolygamy::new(collection.geometry().clone(), config);
    for d in &collection.datasets {
        dp.add_dataset(d.clone());
    }
    let report = dp.build_index();
    outln!(
        "indexed {} data sets in {:.2}s",
        report.per_dataset.len(),
        report.total_secs
    );
    // Where the time went, from the registry (docs/observability.md).
    let count = |name| polygamy_obs::global().counter(name).get();
    let ms = |name| count(name) as f64 / 1e6;
    outln!(
        "  stages: scalar {:.0} ms wall, {} record(s) located; trees {:.0} ms, thresholds {:.0} ms, \
         features {:.0} ms of worker time over {} field(s) ({} plateau swept), {} of {} vertices \
         defined, {} of them in the +0.0 run",
        ms(names::INDEX_STAGE_SCALAR_NS),
        count(names::INDEX_RECORDS_LOCATED),
        ms(names::INDEX_STAGE_TREES_NS),
        ms(names::INDEX_STAGE_THRESHOLDS_NS),
        ms(names::INDEX_STAGE_FEATURES_NS),
        count(names::INDEX_FIELDS),
        count(names::INDEX_FIELDS_PLATEAU_SWEPT),
        count(names::INDEX_VERTICES_DEFINED),
        count(names::INDEX_VERTICES),
        count(names::INDEX_VERTICES_ZERO_RUN),
    );
    let index = dp.index().map_err(|e| e.to_string())?;
    if let Some(n_shards) = n_shards {
        // A sharded build is a monolith build and a migration: the
        // monolith is saved beside the target, sharded, and removed.
        let monolith = format!("{path}.monolith.tmp");
        Store::save(&monolith, dp.geometry(), index).map_err(|e| e.to_string())?;
        let sharded = shard_store(&monolith, path, n_shards).map_err(|e| e.to_string());
        std::fs::remove_file(&monolith)
            .map_err(|e| format!("build: cannot remove {monolith}: {e}"))?;
        print_shard_summary(path, &sharded?)?;
    } else {
        let store = Store::save(path, dp.geometry(), index).map_err(|e| e.to_string())?;
        outln!(
            "wrote {path}: {} bytes, {} segments",
            store.file_bytes().map_err(|e| e.to_string())?,
            store.manifest().segments.len()
        );
    }
    let ratio = |raw, stored| {
        let (raw, stored) = (count(raw), count(stored));
        format!(
            "{raw} → {stored} bytes (÷{:.1})",
            raw as f64 / stored.max(1) as f64
        )
    };
    outln!(
        "  save: encode {:.0} ms, write {:.0} ms, hot {}, fields {}",
        ms(names::STORE_SAVE_ENCODE_NS),
        ms(names::STORE_SAVE_WRITE_NS),
        ratio(
            names::STORE_SAVE_HOT_RAW_BYTES,
            names::STORE_SAVE_HOT_STORED_BYTES
        ),
        ratio(
            names::STORE_SAVE_FIELD_RAW_BYTES,
            names::STORE_SAVE_FIELD_STORED_BYTES
        ),
    );
    Ok(())
}

/// One line per shard file: name, size and owned data sets. Shared by
/// `build --shards` and `shard`, which produce identical layouts.
fn print_shard_summary(catalog_path: &str, catalog: &ShardCatalog) -> Result<(), String> {
    outln!(
        "wrote shard catalog {catalog_path}: {} data set(s) over {} shard(s)",
        catalog.datasets.len(),
        catalog.n_shards()
    );
    for shard in 0..catalog.n_shards() {
        let file = catalog.shard_path(Path::new(catalog_path), shard);
        let bytes = std::fs::metadata(&file).map_err(|e| e.to_string())?.len();
        let owned = owned_names(catalog, shard);
        outln!(
            "  shard {shard}: {} ({bytes} bytes) — {owned}",
            file.display()
        );
    }
    Ok(())
}

/// The data sets shard `shard` owns, for the shard summary and `inspect`.
fn owned_names(catalog: &ShardCatalog, shard: usize) -> String {
    let owned: Vec<&str> = (catalog.datasets_of_shard(shard).into_iter())
        .map(|di| catalog.datasets[di].meta.name.as_str())
        .collect();
    if owned.is_empty() {
        return "no data sets".to_string();
    }
    owned.join(", ")
}

/// `shard <monolith> <out> [--shards N]`: migrate a monolithic store into
/// a sharded layout, copying geometry and segment bytes verbatim.
fn cmd_shard(args: &[String]) -> Result<(), String> {
    let args = Args::parse("shard", args, &[], &["--shards"])?;
    let &[monolith, out, ..] = args.positionals() else {
        return Err("shard: expects <monolith.plst> <out.plst>".into());
    };
    let n_shards: usize = args
        .parsed("--shards", "a positive integer", |&n| n > 0)?
        .unwrap_or(2);
    if is_sharded(monolith).map_err(|e| e.to_string())? {
        return Err(format!(
            "shard: {monolith} is already a shard catalog; merge it first"
        ));
    }
    let catalog = shard_store(monolith, out, n_shards).map_err(|e| e.to_string())?;
    print_shard_summary(out, &catalog)?;
    Ok(())
}

/// `merge <catalog> <out>`: reassemble a sharded store into one monolith.
/// Byte-for-byte inverse of `shard`.
fn cmd_merge(args: &[String]) -> Result<(), String> {
    let args = Args::parse("merge", args, &[], &[])?;
    let &[catalog_path, out, ..] = args.positionals() else {
        return Err("merge: expects <catalog.plst> <out.plst>".into());
    };
    if !is_sharded(catalog_path).map_err(|e| e.to_string())? {
        return Err(format!("merge: {catalog_path} is not a shard catalog"));
    }
    let store = merge_shards(catalog_path, out).map_err(|e| e.to_string())?;
    outln!(
        "wrote {out}: {} bytes, {} segments",
        store.file_bytes().map_err(|e| e.to_string())?,
        store.manifest().segments.len()
    );
    Ok(())
}

/// `inspect <path>`: one body for either kind of path, over the same
/// degraded open the serving path uses. A shard catalog first prints its
/// routing — the catalog line, each data set's shard, each shard file's
/// availability — and then every available file gets the block a
/// monolith, its own one file, prints alone.
fn cmd_inspect(args: &[String]) -> Result<(), String> {
    let args = Args::parse("inspect", args, &["--verify"], &[])?;
    let path = *args
        .positionals()
        .first()
        .ok_or("inspect: missing <path>")?;
    let verify = args.has("--verify");
    let lazy = LazyIndex::open(path).map_err(|e| e.to_string())?;
    let catalog = lazy.shard_catalog();
    // A monolith is its own one file; a catalog's files lie beside it.
    let sharded = lazy
        .shard_file(0)
        .map_or(true, |store| store.path() != Path::new(path));
    if sharded {
        print_routing(path, &lazy)?;
    }
    for shard in 0..catalog.n_shards() {
        if let Ok(store) = lazy.shard_file(shard) {
            print_file(store, verify)?;
        }
    }
    if verify {
        let checked = lazy.verify_all().map_err(|e| e.to_string())?;
        let across = sharded.then(|| format!(" across {} shard(s)", catalog.n_shards()));
        outln!(
            "verify: geometry + {checked} segment(s) OK{} ({} bytes read)",
            across.unwrap_or_default(),
            lazy.bytes_fetched()
        );
    }
    // This process's registry view: how many bytes inspection itself
    // fetched, and any cache/fault traffic a --verify pass generated.
    let snap = polygamy_obs::global().snapshot();
    outln!(
        "registry: {} byte(s) fetched, {} segment fault(s), {} segment cache hit(s), \
         {} eviction(s), {} checksum verification(s) ({} failed)",
        snap.counter(names::STORE_BYTES_FETCHED),
        snap.counter(names::STORE_SEGMENT_FAULTS),
        snap.counter(names::STORE_SEGMENT_CACHE_HITS),
        snap.counter(names::STORE_SEGMENT_EVICTIONS),
        snap.counter(names::STORE_CHECKSUM_VERIFICATIONS),
        snap.counter(names::STORE_CHECKSUM_FAILURES),
    );
    Ok(())
}

/// `inspect`'s routing lines for a shard catalog: its format and size,
/// each data set's shard, and each shard file's availability as the
/// degraded open recorded it.
fn print_routing(path: &str, lazy: &LazyIndex) -> Result<(), String> {
    let catalog = lazy.shard_catalog();
    outln!(
        "shard catalog {path}: format {SHARD_CATALOG_VERSION}, shard files store format {VERSION}, \
         {} data set(s) over {} shard(s)",
        catalog.datasets.len(),
        catalog.n_shards()
    );
    outln!("catalog ({} data sets):", catalog.datasets.len());
    for (di, d) in catalog.datasets.iter().enumerate() {
        outln!(
            "  [{di}] {:<14} shard {:>2}, {:>9} records, {:>6} specs",
            d.meta.name,
            catalog.shard_of[di],
            d.n_records,
            d.n_specs,
        );
    }
    outln!("shards ({}):", catalog.n_shards());
    for shard in 0..catalog.n_shards() {
        let status = match lazy.shard_file(shard) {
            Ok(store) => format!(
                "available ({} bytes)",
                store.file_bytes().map_err(|e| e.to_string())?
            ),
            Err(reason) => format!("UNAVAILABLE — {reason}"),
        };
        outln!(
            "  shard {shard}: {} — {status} — {}",
            catalog.shard_path(Path::new(path), shard).display(),
            owned_names(catalog, shard)
        );
    }
    Ok(())
}

/// `inspect`'s block for one store file: header, catalog (hot vs field
/// bytes per data set), segment directory and geometry, without decoding
/// any segment.
fn print_file(store: &Store, verify: bool) -> Result<(), String> {
    let header = store.header();
    let manifest = store.manifest();
    outln!(
        "store {}: format {}, {} bytes on disk",
        store.path().display(),
        header.version,
        store.file_bytes().map_err(|e| e.to_string())?
    );
    outln!(
        "manifest: offset {} len {} sum {:#018x}",
        header.manifest_offset,
        header.manifest_len,
        header.manifest_checksum
    );
    outln!("catalog ({} data sets):", manifest.datasets.len());
    let (mut hot_total, mut field_total) = (0u64, 0u64);
    for (di, d) in manifest.datasets.iter().enumerate() {
        let field = manifest.dataset_field_bytes(di);
        let hot = manifest.dataset_disk_bytes(di) - field;
        hot_total += hot;
        field_total += field;
        outln!(
            "  [{di}] {:<14} {:>9} records, {:>6} specs, {hot:>10} hot bytes, {field:>10} field bytes",
            d.meta.name, d.n_records, d.n_specs,
        );
    }
    outln!("segments ({}):", manifest.segments.len());
    for s in &manifest.segments {
        let field = match s.field {
            Some(f) => format!("field offset {:>10} len {:>9}", f.offset, f.len),
            None => "no field".to_string(),
        };
        outln!(
            "  {:<14} {:<14} {:<22} hot offset {:>10} len {:>9} sum {:#018x}, {field}",
            manifest.datasets[s.dataset_index].meta.name,
            s.function,
            s.resolution.label(),
            s.loc.offset,
            s.loc.len,
            s.loc.checksum,
        );
    }
    outln!(
        "segment payload: {hot_total} hot + {field_total} field bytes across {} segment(s), \
         geometry {} bytes",
        manifest.segments.len(),
        manifest.geometry.len
    );
    print_geometry(store, verify)
}

/// `inspect`'s `geometry:` line, decoded from `store`'s geometry blob: the
/// blob's size and each partition's region and vertex counts. A blob that
/// does not decode says so — and fails the command under `--verify`, as a
/// bad segment does.
fn print_geometry(store: &Store, verify: bool) -> Result<(), String> {
    let bytes = store.manifest().geometry.len;
    let geometry = match store.load_geometry() {
        Ok(geometry) => geometry,
        Err(e) if verify => return Err(format!("geometry: {e}")),
        Err(e) => {
            outln!("geometry: {bytes} bytes, not decodable: {e}");
            return Ok(());
        }
    };
    let partitions = [
        ("zip", geometry.zip.as_ref()),
        ("neighborhood", geometry.neighborhood.as_ref()),
        ("city", Some(&geometry.city)),
    ];
    let described: Vec<String> = (partitions.iter())
        .map(|(name, partition)| match partition {
            Some(p) => {
                let vertices: usize = p.polygons.iter().map(|q| q.ring.len()).sum();
                format!("{name} {} region(s) / {vertices} vertices", p.len())
            }
            None => format!("{name} none"),
        })
        .collect();
    outln!("geometry: {bytes} bytes, {}", described.join(", "));
    Ok(())
}

/// The session open mode requested by `--lazy`.
fn open_session(path: &str, args: &Args) -> Result<StoreSession, String> {
    if args.has("--lazy") {
        StoreSession::open_lazy(path)
    } else {
        StoreSession::open(path)
    }
    .map_err(|e| e.to_string())
}

/// Parse errors render their caret diagnostic; execution errors print as
/// one line.
fn render_pql_error(e: PqlServeError, src: &str) -> String {
    match e {
        PqlServeError::Parse(e) => e.render(src),
        PqlServeError::Execute(e) => e.to_string(),
    }
}

/// `query`: `--pql` xor `--file` names the PQL source text, which runs
/// through the shared execute-and-render helper
/// (`polygamy_store::pql_exec`) the REPL and the network daemon use, so
/// every path renders identical output.
fn cmd_query(args: &[String]) -> Result<(), String> {
    let args = Args::parse(
        "query",
        args,
        &["--json", "--trace", "--lazy"],
        &["--pql", "--file"],
    )?;
    let (&path, extra) = args
        .positionals()
        .split_first()
        .ok_or("query: missing <path>")?;
    if let Some(arg) = extra.first() {
        return Err(format!(
            "query: unexpected argument {arg}; name data sets in the query text \
             (--pql / --file, see docs/pql.md)"
        ));
    }
    let pql = args.value("--pql");
    let src: String = match (pql, args.value("--file")) {
        (Some(_), Some(_)) => return Err("query: --pql and --file are mutually exclusive".into()),
        (Some(text), None) => text.to_string(),
        (None, Some(p)) => {
            std::fs::read_to_string(p).map_err(|e| format!("query: cannot read {p}: {e}"))?
        }
        (None, None) => {
            return Err("query: expects --pql \"<query>\" or --file <queries.pql>".into())
        }
    };

    let session = open_session(path, &args)?;
    // `--pql` is one query (newlines allowed inside it); `--file` is a
    // line-per-query batch on one shared worker pool.
    let traced = args.has("--trace");
    let outcomes = if pql.is_some() {
        let run = if traced {
            execute_pql_query_traced
        } else {
            execute_pql_query
        };
        run(&session, &src).map(|o| vec![o])
    } else {
        let run = if traced {
            execute_pql_batch_traced
        } else {
            execute_pql_batch
        };
        run(&session, &src)
    }
    .map_err(|e| render_pql_error(e, &src))?;
    if outcomes.is_empty() {
        return Err("query: the batch file contains no queries".into());
    }
    let json = args.has("--json");
    for outcome in &outcomes {
        if json {
            outln!("{}", outcome.to_json());
        } else {
            outln!("{}", outcome.render_text());
        }
    }
    // A traced batch shares one whole-batch trace; print it once, on
    // stderr, so stdout stays byte-identical to the untraced run.
    if let Some(t) = outcomes.first().and_then(|o| o.trace.as_ref()) {
        eprintln!("trace: {}", t.to_json());
    }
    Ok(())
}

/// `repl <path>`: an interactive PQL loop over one long-lived serving
/// session — open the store once, then parse and serve a query per line.
/// Parse errors render caret diagnostics and keep the session alive.
fn cmd_repl(args: &[String]) -> Result<(), String> {
    let args = Args::parse("repl", args, &["--lazy"], &[])?;
    let path = *args.positionals().first().ok_or("repl: missing <path>")?;
    let session = open_session(path, &args)?;
    let interactive = std::io::stdin().is_terminal();
    if interactive {
        outln!(
            "polygamy-store repl — {} data set(s) {} from {path}: {}",
            session.catalog().len(),
            if session.is_lazy() {
                "served lazily"
            } else {
                "loaded"
            },
            (session.catalog().iter())
                .map(|d| d.meta.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
        outln!("type a PQL query, or :help / :quit");
    }
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        if interactive {
            emit(format_args!("pql> "))?;
            std::io::stdout().flush().map_err(|e| e.to_string())?;
        }
        line.clear();
        let read = stdin
            .lock()
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        if read == 0 {
            break; // EOF
        }
        let input = line.trim();
        if input.is_empty() || input.starts_with('#') {
            continue;
        }
        match input {
            ":quit" | ":q" | ":exit" => break,
            ":help" | ":h" => {
                outln!(
                    "PQL: between <collection> and <collection> [where <predicates>]\n\
                     \x20 e.g. between taxi, weather and * where score >= 0.6 and \
                     class = salient\n\
                     \x20 prefix with `explain` to append a trace report \
                     (results are unchanged)\n\
                     \x20 see docs/pql.md for the full grammar\n\
                     commands: :datasets  list served data sets\n\
                     \x20         :help      this text\n\
                     \x20         :quit      exit"
                );
            }
            ":datasets" => {
                for d in session.catalog() {
                    outln!("{}", d.meta.name);
                }
            }
            _ => repl_eval(&session, input)?,
        }
    }
    Ok(())
}

/// Parses and serves one REPL line through the shared helper; failures
/// print and return. A leading `explain` runs the query with a trace
/// collector installed and appends the trace report — the results
/// themselves are byte-identical to the plain run.
fn repl_eval(session: &StoreSession, src: &str) -> Result<(), String> {
    let (query, explain) = match parse_query_maybe_explain(src) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{}", e.render(src));
            return Ok(());
        }
    };
    // Re-execute from the canonical rendering: `parse(print(q)) == q`,
    // and the explain prefix never reaches the execution path.
    let canonical = to_pql(&query);
    let result = if explain {
        execute_pql_query_traced(session, &canonical)
    } else {
        execute_pql_query(session, &canonical)
    };
    match result {
        Ok(outcome) => {
            outln!("{}", outcome.render_text());
            if let Some(t) = &outcome.trace {
                outln!("trace: {}", t.to_json());
            }
        }
        Err(PqlServeError::Parse(e)) => eprintln!("{}", e.render(&canonical)),
        Err(PqlServeError::Execute(e)) => eprintln!("polygamy-store: {e}"),
    }
    Ok(())
}

/// `serve <path>`: the long-running network daemon (`docs/serving.md`).
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let args = Args::parse(
        "serve",
        args,
        &["--lazy"],
        &[
            "--addr",
            "--max-inflight",
            "--read-timeout-ms",
            "--max-frame-bytes",
            "--metrics-jsonl",
        ],
    )?;
    let path = *args.positionals().first().ok_or("serve: missing <path>")?;
    let addr = args.value("--addr").unwrap_or("127.0.0.1:7461");
    let mut opts = ServeOptions::default();
    if let Some(n) = args.parsed("--max-inflight", "a positive integer", |&n: &usize| n > 0)? {
        opts.max_inflight = n;
    }
    if let Some(ms) = args.parsed("--read-timeout-ms", "a positive integer", |&n: &u64| n > 0)? {
        opts.read_timeout = Duration::from_millis(ms);
    }
    if let Some(n) = args.parsed("--max-frame-bytes", "a positive integer", |&n: &u32| n > 0)? {
        opts.max_frame_bytes = n;
    }
    if let Some(v) = args.value("--metrics-jsonl") {
        opts.metrics_jsonl = Some(std::path::PathBuf::from(v));
    }
    let session = Arc::new(open_session(path, &args)?);
    let server = Server::bind(addr, Arc::clone(&session), opts.clone())
        .map_err(|e| format!("serve: {e}"))?;
    outln!(
        "polygamy-serve: serving {} data set(s) from {path} on {} \
         (max-inflight {}, read timeout {:?})",
        session.catalog().len(),
        server.local_addr(),
        opts.max_inflight,
        opts.read_timeout,
    );
    std::io::stdout().flush().ok();
    let stats = server.wait();
    outln!(
        "polygamy-serve: drained — {} request(s), {} query(ies) in {} dispatch(es), \
         largest {} (mean {:.2} queries/dispatch)",
        stats.requests,
        stats.queries,
        stats.batches,
        stats.max_batch,
        stats.mean_batch(),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    /// `build`'s flag set, as `cmd_build` declares it.
    fn parse_build(args: &[String]) -> Result<Args<'_>, String> {
        Args::parse(
            "build",
            args,
            &["--quick"],
            &["--years", "--scale", "--shards"],
        )
    }

    #[test]
    fn args_split_positionals_switches_and_values() {
        let raw = strings(&["out.plst", "--quick", "--scale", "-0.5", "--shards", "3"]);
        let args = parse_build(&raw).unwrap();
        assert_eq!(args.positionals(), ["out.plst"]);
        assert!(args.has("--quick") && !args.has("--verify"));
        assert_eq!(args.value("--scale"), Some("-0.5"));
        assert_eq!(args.value("--years"), None);
        assert_eq!(
            args.parsed("--shards", "a positive integer", |&n: &usize| n > 0),
            Ok(Some(3))
        );
        assert_eq!(
            args.parsed("--scale", "a positive number", |&s: &f64| s > 0.0),
            Err("build: --scale expects a positive number".into())
        );
    }

    #[test]
    fn args_missing_value_is_an_error_naming_the_flag() {
        let raw = strings(&["x.plst", "--quick", "--shards"]);
        assert_eq!(
            parse_build(&raw).err(),
            Some("build: --shards expects a value".into())
        );
    }

    #[test]
    fn args_unknown_flag_is_an_error_naming_the_flag() {
        let raw = strings(&["x.plst", "--permutation", "60"]);
        assert_eq!(
            parse_build(&raw).err(),
            Some("build: unknown flag --permutation".into())
        );
        // No command prefix when the caller adds its own.
        assert_eq!(
            Args::parse("", &raw, &[], &[]).err(),
            Some("unknown flag --permutation".into())
        );
    }

    #[test]
    fn args_value_that_looks_like_a_flag_is_not_consumed() {
        let raw = strings(&["x.plst", "--shards", "--quick"]);
        assert_eq!(
            parse_build(&raw).err(),
            Some("build: --shards expects a value".into())
        );
    }
}
