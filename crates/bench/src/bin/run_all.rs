//! Runs the experiment harnesses: `run_all` runs every one in sequence and
//! writes the combined report to `experiments_output.md` (and stdout);
//! `run_all <name>…` runs just the named ones, to stdout only. Pass
//! `--quick` to shrink workloads.

use polygamy_bench::experiments;
use std::io::Write;

type Harness = fn(bool) -> String;

const HARNESSES: [(&str, Harness); 15] = [
    ("fig01_motivation", experiments::motivation::run),
    ("table01_collection", experiments::collection::run),
    ("fig03_resolutions", experiments::resolutions::run),
    ("fig04_join_tree", experiments::join_tree::run),
    ("fig05_persistence", experiments::persistence::run),
    ("fig07_index_scaling", experiments::index_scaling::run),
    (
        "fig08_indexing_pipeline",
        experiments::indexing_pipeline::run,
    ),
    ("fig09_query_rate", experiments::query_rate::run),
    ("fig10_speedup", experiments::speedup::run),
    ("fig11_pruning", experiments::pruning::run),
    ("fig12_robustness", experiments::robustness::run),
    ("exp_correctness", experiments::correctness::run),
    ("exp_relationships", experiments::relationships::run),
    ("exp_baselines", experiments::baselines::run),
    ("exp_space_overhead", experiments::space::run),
];

fn main() {
    let quick = polygamy_bench::quick_mode();
    let wanted: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with("--"))
        .collect();
    if let Some(unknown) = wanted
        .iter()
        .find(|w| HARNESSES.iter().all(|(name, _)| name != w))
    {
        let valid: Vec<&str> = HARNESSES.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "run_all: unknown experiment `{unknown}`; valid names: {}",
            valid.join(", ")
        );
        std::process::exit(2);
    }
    let mut combined = String::new();
    for (name, run) in HARNESSES {
        if !wanted.is_empty() && !wanted.iter().any(|w| w == name) {
            continue;
        }
        eprintln!(">>> {name}");
        let (report, secs) = polygamy_bench::timed(|| run(quick));
        combined.push_str(&report);
        combined.push_str(&format!("\n_(harness {name} took {secs:.1}s)_\n\n---\n\n"));
    }
    print!("{combined}");
    // Only a full run is the committed report; a named subset must not
    // overwrite it.
    if wanted.is_empty() {
        let path = "experiments_output.md";
        if let Ok(mut f) = std::fs::File::create(path) {
            let _ = f.write_all(combined.as_bytes());
            eprintln!(">>> wrote {path}");
        }
    }
}
