//! The `run` subcommand: one workload, one process, one result.

use crate::clock;
use crate::corpus::Scale;
use crate::metrics::{RunResult, Summary, WORKLOADS};
use crate::spans::Tracer;
use crate::workloads::{self, Ctx};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Parsed `run` arguments.
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    out_dir: PathBuf,
    corrupt_store: bool,
}

/// Where results, traces and scratch stores go unless `--out-dir` says
/// otherwise: `benchmark/out/`, inside the checkout this binary was
/// built from.
fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn parse(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: String::new(),
        seed: 0,
        seconds: 15.0,
        trace: false,
        scale: Scale::FULL,
        out_dir: default_out_dir(),
        corrupt_store: false,
    };
    let mut seed_given = false;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value("a workload name")?,
            "--seed" => {
                let text = value("an unsigned integer")?;
                parsed.seed = text
                    .parse()
                    .map_err(|_| format!("--seed `{text}` is not an unsigned integer"))?;
                seed_given = true;
            }
            "--seconds" => {
                let text = value("a number of seconds")?;
                parsed.seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds `{text}` is not a positive number"))?;
            }
            // `--trace`, `--trace 0` and `--trace 1` are all accepted.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--scale" => {
                let name = value("full or smoke")?;
                parsed.scale =
                    Scale::by_name(&name).ok_or_else(|| format!("unknown scale `{name}`"))?;
            }
            "--out-dir" => parsed.out_dir = PathBuf::from(value("a directory")?),
            "--corrupt-store" => parsed.corrupt_store = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !seed_given {
        return Err("--seed is required".into());
    }
    if parsed.corrupt_store && parsed.workload == "build_urban" {
        return Err(
            "--corrupt-store needs a workload that reads a store it did not just write".into(),
        );
    }
    Ok(parsed)
}

/// First line of a command's standard output, or `unknown`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Entry point of `polygamy-benchmark run`.
pub fn main(args: &[String]) -> Result<(), String> {
    let args = parse(args)?;
    let started = clock::now();
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let scratch = args
        .out_dir
        .join(format!("tmp-{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: args.scale,
        dir: scratch.clone(),
        corrupt_store: args.corrupt_store,
        tracer: if args.trace {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        },
    };
    let outcome = workloads::run(&args.workload, &ctx);
    let _ = std::fs::remove_dir_all(&scratch);
    let outcome = outcome?;

    let summary = Summary {
        correct: outcome.failed == 0,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: outcome
            .per_layer
            .clone()
            .unwrap_or_else(|| outcome.end_to_end.clone()),
    };
    let result = RunResult {
        workload: args.workload.clone(),
        seed: args.seed,
        scale: args.scale.name.into(),
        trace: args.trace,
        seconds: args.seconds,
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        rustc: first_line_of("rustc", &["--version"]),
        commit: first_line_of("git", &["rev-parse", "--short", "HEAD"]),
        wall_s: clock::secs_since(started),
        samples: outcome.samples,
        calibration_ms: outcome.untraced.calibration_ms,
        pass_busy_s: outcome.untraced.busy_s,
        primary_ms: outcome.untraced.primary,
        secondary_ms: outcome.untraced.secondary,
        summary: summary.clone(),
        end_to_end: outcome.end_to_end,
    };

    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let result_path = args.out_dir.join(format!("result-{tag}.json"));
    let json = serde_json::to_string(&result).map_err(|e| e.to_string())?;
    std::fs::write(&result_path, json + "\n")
        .map_err(|e| format!("cannot write {}: {e}", result_path.display()))?;
    if args.trace {
        let trace_path = args.out_dir.join(format!("trace-{}.json", args.workload));
        ctx.tracer
            .write_json(&trace_path)
            .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
        println!("# self time by span (ms)");
        for (name, ms) in ctx.tracer.self_ms_by_name() {
            println!("#   {name:<28} {ms:>12.3}");
        }
    }

    println!(
        "# {} seed={} scale={} trace={} wall={:.1}s samples={:?}",
        result.workload,
        result.seed,
        result.scale,
        u8::from(result.trace),
        result.wall_s,
        result.samples
    );
    if args.trace {
        for (name, m) in &result.end_to_end {
            println!("# (untraced half) {name} = {} {}", m.value, m.unit);
        }
    }
    for (name, m) in &summary.metrics {
        println!("{name} = {} {}", m.value, m.unit);
    }
    println!(
        "attempted = {} failed = {} ({})",
        summary.attempted,
        summary.failed,
        if summary.correct { "correct" } else { "WRONG" }
    );
    // The contract line: last on stdout, exactly four keys.
    println!(
        "{}",
        serde_json::to_string(&summary).map_err(|e| e.to_string())?
    );
    Ok(())
}
