//! Every workload at smoke scale, through the real binary: the printed
//! result parses back through the schema, names exactly the metrics
//! `BENCHMARK.json` promises, passes its own correctness checks — and an
//! injected fault proves those checks are able to fail.

use polygamy_benchmark::compare::{read_benchmark_json, BenchmarkJson};
use polygamy_benchmark::metrics::{RunResult, Summary, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::Command;

fn contract() -> BenchmarkJson {
    read_benchmark_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
        .expect("BENCHMARK.json parses")
}

/// Runs the benchmark binary at smoke scale; returns the parsed last
/// stdout line and the out-dir.
fn run(workload: &str, trace: bool, extra: &[&str]) -> (Summary, PathBuf) {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{workload}-{}{}",
        u8::from(trace),
        extra.concat()
    ));
    let output = Command::new(env!("CARGO_BIN_EXE_polygamy-benchmark"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", "smoke", "--out-dir"])
        .arg(&out_dir)
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    assert!(
        output.status.success(),
        "{workload} exited with {}:\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let summary = serde_json::from_str(last).unwrap_or_else(|e| panic!("`{last}`: {e}"));
    (summary, out_dir)
}

/// The metric names and units of a summary, sorted by name.
fn reported(summary: &Summary) -> Vec<(String, String)> {
    summary
        .metrics
        .iter()
        .map(|(name, m)| (name.clone(), m.unit.clone()))
        .collect()
}

fn sorted(mut pairs: Vec<(String, String)>) -> Vec<(String, String)> {
    pairs.sort();
    pairs
}

fn check_workload(workload: &str) {
    let contract = contract();

    let (summary, out_dir) = run(workload, false, &[]);
    let promised = contract
        .end_to_end
        .iter()
        .map(|e| (e.name.clone(), e.unit.clone()))
        .collect();
    assert_eq!(
        reported(&summary),
        sorted(promised),
        "{workload} end-to-end"
    );
    assert!(summary.correct && summary.failed == 0 && summary.attempted >= 1);
    for (name, m) in &summary.metrics {
        assert!(
            m.value > 0.0,
            "{workload}: {name} = {} must never be 0",
            m.value
        );
    }
    let text =
        std::fs::read_to_string(out_dir.join(format!("result-{workload}-seed7-trace0.json")))
            .expect("result file written");
    let result: RunResult = serde_json::from_str(&text).expect("result file parses");
    assert_eq!((result.workload.as_str(), result.seed), (workload, 7));
    assert_eq!(result.summary, summary);
    assert!(result.nproc >= 1 && result.wall_s > 0.0 && !result.rustc.is_empty());
    assert!(result.samples["passes"] >= 1 && result.samples["distinct_ops"] >= 1);

    let (summary, out_dir) = run(workload, true, &[]);
    let promised = contract
        .per_layer
        .iter()
        .map(|e| (e.name.clone(), e.unit.clone()))
        .collect();
    assert_eq!(reported(&summary), sorted(promised), "{workload} per-layer");
    assert!(summary.correct && summary.failed == 0);
    assert!(summary.metrics["bench.trace_overhead_ratio"].value > 0.0);
    let trace = std::fs::read_to_string(out_dir.join(format!("trace-{workload}.json")))
        .expect("trace file written");
    assert!(trace.contains("\"name\":\"op\"") && trace.contains("\"parent\":"));
}

#[test]
fn build_urban_reports_the_contract() {
    check_workload("build_urban");
}

#[test]
fn coldstart_urban_reports_the_contract() {
    check_workload("coldstart_urban");
}

#[test]
fn explore_urban_reports_the_contract() {
    check_workload("explore_urban");
}

#[test]
fn serve_open_reports_the_contract() {
    check_workload("serve_open");
}

#[test]
fn a_corrupted_store_byte_is_counted_as_failures() {
    let (summary, _) = run("coldstart_urban", false, &["--corrupt-store"]);
    assert!(!summary.correct);
    assert!(summary.failed > 0 && summary.failed <= summary.attempted);
}

#[test]
fn the_catalogue_matches_benchmark_json() {
    let contract = contract();
    let names = |specs: &[(&str, &str)]| -> Vec<(String, String)> {
        specs
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    let end_to_end: Vec<_> = contract
        .end_to_end
        .iter()
        .map(|e| (e.name.clone(), e.unit.clone()))
        .collect();
    let per_layer: Vec<_> = contract
        .per_layer
        .iter()
        .map(|e| (e.name.clone(), e.unit.clone()))
        .collect();
    assert_eq!(end_to_end, names(END_TO_END));
    assert_eq!(per_layer, names(PER_LAYER));
    let workloads: Vec<&str> = contract.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(workloads, WORKLOADS);
    assert!(contract.end_to_end.iter().all(|e| e.bound > 0.0
        && e.bound <= 0.25
        && ["lower", "higher"].contains(&e.better.as_str())));
    assert!(contract
        .end_to_end
        .iter()
        .any(|e| e.name == "setup_s" && e.unit == "s" && e.better == "lower"));
    assert_eq!(contract.paths, ["benchmark"]);
}
