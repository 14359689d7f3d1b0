//! The `compare` subcommand: judge two sets of result files against the
//! bounds `BENCHMARK.json` fixes.
//!
//! `compare <dirA> <dirB>` treats `dirA` as the parent and `dirB` as the
//! change (or as two sets of runs of the same code, to check that the
//! benchmark repeats). For every (workload, end-to-end metric) it prints
//! both medians and quartiles, the bound, and one of
//!
//! * `within` — B's median is no worse than A's by more than the bound;
//! * `worse` — it is;
//! * `unresolved` — the run-to-run spread (quartile distance ÷ median)
//!   of either side is wider than the bound, so the medians decide
//!   nothing — unless every run of B reads better than every run of A.

use crate::metrics::RunResult;
use crate::stats::quartiles;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// `BENCHMARK.json`, as the driver contract lays it out.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkJson {
    /// The program and its arguments.
    pub command: Vec<String>,
    /// Directories that hold the benchmark.
    pub paths: Vec<String>,
    /// How long one run measures.
    pub run_seconds: u64,
    /// The workloads and why each exists.
    pub workloads: Vec<WorkloadEntry>,
    /// End-to-end metrics, with direction and regression bound.
    pub end_to_end: Vec<EndToEndEntry>,
    /// Per-layer metrics, with direction.
    pub per_layer: Vec<PerLayerEntry>,
}

/// One `workloads` entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadEntry {
    /// Workload name.
    pub name: String,
    /// One line on why it was chosen.
    pub why: String,
}

/// One `end_to_end` entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EndToEndEntry {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// One `per_layer` entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerLayerEntry {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
}

/// Reads and parses a `BENCHMARK.json`.
pub fn read_benchmark_json(path: &Path) -> Result<BenchmarkJson, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{} is malformed: {e}", path.display()))
}

/// The verdict on one (workload, metric) pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Within,
    /// Worse than the bound allows.
    Worse,
    /// Spread wider than the bound: the medians decide nothing.
    Unresolved,
}

/// Judges the runs `b` against the runs `a` of one metric.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (a_q1, a_med, a_q3) = quartiles(a);
    let (b_q1, b_med, b_q3) = quartiles(b);
    let spread = |q1: f64, med: f64, q3: f64| {
        if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        }
    };
    // Orient so that larger = worse.
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let all_better = a.iter().all(|&x| b.iter().all(|&y| sign * y < sign * x));
    if spread(a_q1, a_med, a_q3).max(spread(b_q1, b_med, b_q3)) > bound && !all_better {
        return Verdict::Unresolved;
    }
    let worse_by = if a_med != 0.0 {
        sign * (b_med - a_med) / a_med.abs()
    } else {
        0.0
    };
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

/// `samples[workload][metric]` = that metric's value in every untraced
/// result file under `dir`.
fn read_results(dir: &Path) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("result-") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    let mut samples: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for file in files {
        let text = std::fs::read_to_string(&file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let result: RunResult = serde_json::from_str(&text)
            .map_err(|e| format!("{} is not a result file: {e}", file.display()))?;
        if result.trace {
            continue;
        }
        let by_metric = samples.entry(result.workload).or_default();
        for (name, metric) in result.end_to_end {
            by_metric.entry(name).or_default().push(metric.value);
        }
    }
    Ok(samples)
}

/// Entry point of `polygamy-benchmark compare`.
pub fn main(args: &[String]) -> Result<(), String> {
    let mut dirs = Vec::new();
    let mut benchmark_json = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--benchmark-json" {
            benchmark_json = PathBuf::from(it.next().ok_or("--benchmark-json needs a path")?);
        } else {
            dirs.push(PathBuf::from(arg));
        }
    }
    let [dir_a, dir_b] = dirs.as_slice() else {
        return Err("compare needs exactly two directories".into());
    };
    let contract = read_benchmark_json(&benchmark_json)?;
    let (a, b) = (read_results(dir_a)?, read_results(dir_b)?);

    println!(
        "{:<16} {:<27} {:>36} {:>36} {:>6}  verdict",
        "workload", "metric", "A: q1 / median / q3 (n)", "B: q1 / median / q3 (n)", "bound"
    );
    let mut worse = 0;
    for (workload, metrics_a) in &a {
        for entry in &contract.end_to_end {
            let (Some(runs_a), Some(runs_b)) = (
                metrics_a.get(&entry.name),
                b.get(workload).and_then(|m| m.get(&entry.name)),
            ) else {
                continue;
            };
            let verdict = judge(runs_a, runs_b, entry.better == "lower", entry.bound);
            worse += usize::from(verdict == Verdict::Worse);
            let show = |runs: &[f64]| {
                let (q1, med, q3) = quartiles(runs);
                format!("{q1:.4} / {med:.4} / {q3:.4} ({})", runs.len())
            };
            println!(
                "{workload:<16} {:<27} {:>36} {:>36} {:>6}  {}",
                entry.name,
                show(runs_a),
                show(runs_b),
                entry.bound,
                match verdict {
                    Verdict::Within => "within",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    if worse > 0 {
        return Err(format!("{worse} metric(s) worse than their bound"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [100.0, 101.0, 99.0, 100.5];
        // 3% slower at a 10% bound.
        assert_eq!(
            judge(&a, &[103.0, 104.0, 102.0, 103.5], true, 0.1),
            Verdict::Within
        );
        // 20% slower.
        assert_eq!(
            judge(&a, &[120.0, 121.0, 119.0, 120.5], true, 0.1),
            Verdict::Worse
        );
        // Higher-is-better: 20% less throughput is worse, 20% more is not.
        assert_eq!(
            judge(&a, &[80.0, 81.0, 79.0, 80.5], false, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &[120.0, 121.0, 119.0, 120.5], false, 0.1),
            Verdict::Within
        );
        // Spread wider than the bound decides nothing…
        let noisy = [80.0, 100.0, 120.0, 140.0];
        assert_eq!(
            judge(&noisy, &[90.0, 110.0, 130.0, 150.0], true, 0.1),
            Verdict::Unresolved
        );
        // …unless every run of B beats every run of A.
        assert_eq!(
            judge(&noisy, &[40.0, 50.0, 60.0, 70.0], true, 0.1),
            Verdict::Within
        );
    }
}
