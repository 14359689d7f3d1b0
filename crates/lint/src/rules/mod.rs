//! The rule engine: every invariant the linter enforces, as one trait.
//!
//! Three families (see `docs/linting.md` for the full catalogue with
//! rationale):
//!
//! * **determinism** — [`determinism::DefaultHasherRule`],
//!   [`determinism::UnsortedIterationRule`],
//!   [`determinism::FloatPartialCmpRule`], [`determinism::WallClockRule`]:
//!   the byte-identical-output guarantee, pinned at the source level.
//! * **unsafe hygiene** — [`unsafe_hygiene::UndocumentedUnsafeRule`],
//!   [`unsafe_hygiene::MissingForbidUnsafeRule`],
//!   [`ordering::AtomicOrderingRule`]: every `unsafe` carries a
//!   `// SAFETY:` argument, crates without unsafe forbid it outright,
//!   and non-Relaxed atomic orderings outside `crates/obs` document
//!   their contract.
//! * **spec/code drift** — [`drift::WireTagDriftRule`],
//!   [`drift::MetricDriftRule`], [`drift::PqlKeywordDriftRule`]: the
//!   normative tables in `docs/` and the constants in the code are
//!   diffed in both directions.

use crate::diag::Finding;
use crate::Workspace;

pub mod determinism;
pub mod drift;
pub mod ordering;
pub mod unsafe_hygiene;

/// One lint rule: a name, catalogue prose, and a check pass.
pub trait Rule {
    /// Kebab-case rule name (what `allow(…)` comments reference).
    fn name(&self) -> &'static str;
    /// One-line summary for `--list-rules`.
    fn summary(&self) -> &'static str;
    /// Long-form rationale for `--explain <rule>`.
    fn explain(&self) -> &'static str;
    /// Scans the workspace, appending findings.
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>);
}

/// Every rule, in catalogue order.
pub fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(determinism::DefaultHasherRule),
        Box::new(determinism::UnsortedIterationRule),
        Box::new(determinism::FloatPartialCmpRule),
        Box::new(determinism::WallClockRule),
        Box::new(unsafe_hygiene::UndocumentedUnsafeRule),
        Box::new(unsafe_hygiene::MissingForbidUnsafeRule),
        Box::new(ordering::AtomicOrderingRule),
        Box::new(drift::WireTagDriftRule),
        Box::new(drift::MetricDriftRule),
        Box::new(drift::PqlKeywordDriftRule),
    ]
}

/// The names of [`all`] rules (the valid targets of an allow comment).
pub fn names() -> Vec<&'static str> {
    all().iter().map(|r| r.name()).collect()
}

/// Files on the **result path**: everything between query admission and
/// the canonical output bytes. Iterating a `HashMap`/`HashSet` here in
/// storage order could leak hash-seed nondeterminism straight into
/// served responses, so the `unsorted-iteration` rule watches exactly
/// these prefixes.
pub const RESULT_PATH: &[&str] = &[
    "crates/core/src/executor.rs",
    "crates/core/src/relationship.rs",
    "crates/core/src/pql/",
    "crates/store/src/pql_exec.rs",
    "crates/serve/src/protocol.rs",
    "crates/serve/src/coalesce.rs",
];

/// Modules allowed to read wall clocks (`Instant::now` / `SystemTime`):
/// benchmarking, observability (whose `stage` timers every other crate
/// uses), the daemon's timeout machinery and the framework's build report.
/// Everything else computes pure functions of its input and must not
/// observe time — the determinism matrix proves clock reads never steer
/// results, and this list keeps new ones from creeping in elsewhere.
pub const WALL_CLOCK_ALLOWED: &[&str] = &[
    "crates/bench/",
    "crates/obs/",
    "crates/serve/src/server.rs",
    "crates/serve/src/client.rs",
    "crates/core/src/framework.rs",
];

/// Crates exempt from the `atomic-ordering` justification requirement:
/// `crates/obs` is the one place whose whole module contract documents
/// its (Relaxed) memory-ordering discipline.
pub const ORDERING_EXEMPT: &[&str] = &["crates/obs/"];

/// True when `path` falls under any prefix in `list`.
pub(crate) fn path_in(path: &str, list: &[&str]) -> bool {
    list.iter().any(|p| path.starts_with(p))
}

/// True for integration-test and bench trees, which determinism rules
/// exempt (a test may read the clock; the product may not).
pub(crate) fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/") || path.contains("/benches/")
}
