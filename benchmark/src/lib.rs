//! # polygamy-benchmark — the repository's benchmark
//!
//! One command measures one workload in one process and prints every
//! metric by name with its unit:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     run --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! * inputs come from `--seed` alone ([`corpus`]);
//! * the program runs at a **fixed** two workers and at most two client
//!   connections ([`corpus::WORKERS`]);
//! * every timed operation is checked against a reference computed
//!   in-run on a different path ([`workloads`]);
//! * end-to-end metrics are measured with tracing off; `--trace 1`
//!   repeats the workload with a span around every call the harness makes
//!   into a layer ([`spans`]), adds layer-isolating probes ([`probes`]),
//!   and reports the per-layer metrics ([`metrics::PER_LAYER`]);
//! * `compare <dirA> <dirB>` judges two sets of result files against the
//!   bounds in `BENCHMARK.json` ([`compare`]).
//!
//! `benchmark/README.md` is the glossary: what each metric means on each
//! workload, why the four workloads exist, and which layer should move
//! which number.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod clock;
pub mod compare;
pub mod corpus;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
