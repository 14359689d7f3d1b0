//! `polygamy-benchmark run …` / `polygamy-benchmark compare …` — see the
//! crate documentation of `polygamy_benchmark`.

use std::process::ExitCode;

const USAGE: &str = "usage:
  polygamy-benchmark run --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]]
                         [--scale full|smoke] [--out-dir <dir>] [--corrupt-store]
  polygamy-benchmark compare <dirA> <dirB> [--benchmark-json <path>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => polygamy_benchmark::run::main(&args[1..]),
        Some("compare") => polygamy_benchmark::compare::main(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("polygamy-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
