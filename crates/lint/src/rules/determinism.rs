//! Rule family 1: determinism.
//!
//! The system's headline guarantee is byte-identical output across
//! worker counts, session modes and serving paths. The runtime
//! determinism matrix proves it holds *today*; these rules keep the
//! bug classes that have already been purged (PR 4's unstable
//! `DefaultHasher` seeds foremost) from being statically reintroduced.

use super::{is_test_path, path_in, Rule, RESULT_PATH, WALL_CLOCK_ALLOWED};
use crate::diag::Finding;
use crate::scan::{Scanned, TokenKind};
use crate::Workspace;
use std::collections::BTreeSet;

fn finding_at(
    src: &Scanned,
    offset: usize,
    width: usize,
    rule: &'static str,
    message: String,
    help: &str,
) -> Finding {
    let (line, col) = src.line_col(offset);
    Finding {
        rule,
        path: src.file.path.clone(),
        line,
        col,
        width,
        message,
        help: help.into(),
    }
}

/// Forbids `DefaultHasher` / `RandomState` anywhere in the workspace.
pub struct DefaultHasherRule;

impl Rule for DefaultHasherRule {
    fn name(&self) -> &'static str {
        "default-hasher"
    }
    fn summary(&self) -> &'static str {
        "forbid DefaultHasher/RandomState (hash output unstable across toolchains)"
    }
    fn explain(&self) -> &'static str {
        "std's DefaultHasher and RandomState are documented to change between Rust \
releases (and RandomState is seeded per-process). PR 4 removed exactly this bug: \
Monte Carlo permutation seeds derived from DefaultHasher flipped significance \
verdicts between toolchains. Derive stable values with the explicit FNV-1a \
hasher already in core/src/cache.rs instead. This rule \
fires on every occurrence, tests included — a test that depends on an unstable \
hash is a flake waiting to happen."
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for src in &ws.sources {
            for t in &src.tokens {
                if t.kind != TokenKind::Ident {
                    continue;
                }
                let name = src.text(t);
                if name == "DefaultHasher" || name == "RandomState" {
                    out.push(finding_at(
                        src,
                        t.start,
                        name.len(),
                        self.name(),
                        format!("`{name}` hashes are not stable across toolchains or processes"),
                        "use the pinned FNV-1a hasher (see core/src/cache.rs) for anything \
                         that can reach seeds, cache keys or output",
                    ));
                }
            }
        }
    }
}

/// Methods whose call on a hash container iterates it in storage order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

/// Flags iteration over `HashMap`/`HashSet` values in result-path files.
pub struct UnsortedIterationRule;

impl UnsortedIterationRule {
    /// Identifiers declared (or assigned) with a hash-container type in
    /// this file — the receiver set the iteration scan matches against.
    fn hash_idents(src: &Scanned) -> BTreeSet<String> {
        let mut set = BTreeSet::new();
        let toks = &src.tokens;
        for i in 0..toks.len() {
            let Some(name) = src.ident(i) else { continue };
            // `name: [&][mut] Hash{Map,Set}<…>` — let bindings, struct
            // fields and fn params alike. Exclude `::` path segments.
            if src.is_punct(i + 1, ':') && !src.is_punct(i + 2, ':') {
                let mut j = i + 2;
                while src.is_punct(j, '&')
                    || src.ident(j) == Some("mut")
                    || toks.get(j).is_some_and(|t| t.kind == TokenKind::Lifetime)
                {
                    j += 1;
                }
                if matches!(src.ident(j), Some("HashMap" | "HashSet")) {
                    set.insert(name.to_string());
                }
            }
            // `name = Hash{Map,Set}::…` — assignment from a constructor.
            if src.is_punct(i + 1, '=')
                && !src.is_punct(i + 2, '=')
                && matches!(src.ident(i + 2), Some("HashMap" | "HashSet"))
            {
                set.insert(name.to_string());
            }
        }
        set
    }
}

impl Rule for UnsortedIterationRule {
    fn name(&self) -> &'static str {
        "unsorted-iteration"
    }
    fn summary(&self) -> &'static str {
        "flag HashMap/HashSet iteration in result-path files (storage order leaks)"
    }
    fn explain(&self) -> &'static str {
        "HashMap/HashSet iteration order depends on the hash seed and insertion \
history. On the result path (core executor/relationship/pql, store pql_exec, \
serve protocol/coalesce) that order can reach the output bytes, breaking the \
byte-identity guarantee. Iterate a sorted copy (collect + sort, or a BTree \
container) instead. Lookups, inserts and membership tests are fine — only \
iteration is flagged. If an iteration is provably order-insensitive (e.g. it \
feeds a commutative fold), suppress with an allow comment saying why."
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for src in &ws.sources {
            if !path_in(&src.file.path, RESULT_PATH) || is_test_path(&src.file.path) {
                continue;
            }
            let hashy = Self::hash_idents(src);
            if hashy.is_empty() {
                continue;
            }
            let toks = &src.tokens;
            for i in 0..toks.len() {
                if src.in_test_block(i) {
                    continue;
                }
                let Some(name) = src.ident(i) else { continue };
                // `x.iter()` and friends.
                if hashy.contains(name)
                    && src.is_punct(i + 1, '.')
                    && src.ident(i + 2).is_some_and(|m| ITER_METHODS.contains(&m))
                    && src.is_punct(i + 3, '(')
                {
                    let method = src.ident(i + 2).unwrap_or_default().to_string();
                    out.push(finding_at(
                        src,
                        toks[i].start,
                        name.len() + 1 + method.len(),
                        self.name(),
                        format!(
                            "`{name}.{method}()` iterates a hash container in storage order \
                             on the result path"
                        ),
                        "collect into a Vec and sort by a stable key, or use a BTreeMap/BTreeSet",
                    ));
                }
                // `for … in [&][mut] x {`.
                if name == "for" {
                    let limit = (i + 8).min(toks.len());
                    let Some(j) = (i + 1..limit).find(|&j| src.ident(j) == Some("in")) else {
                        continue;
                    };
                    let mut k = j + 1;
                    while src.is_punct(k, '&') || src.ident(k) == Some("mut") {
                        k += 1;
                    }
                    if let Some(target) = src.ident(k) {
                        if hashy.contains(target) && src.is_punct(k + 1, '{') {
                            out.push(finding_at(
                                src,
                                toks[k].start,
                                target.len(),
                                self.name(),
                                format!(
                                    "`for … in {target}` iterates a hash container in storage \
                                     order on the result path"
                                ),
                                "collect into a Vec and sort by a stable key, or use a \
                                 BTreeMap/BTreeSet",
                            ));
                        }
                    }
                }
            }
        }
    }
}

/// Forbids `partial_cmp(…).unwrap()` / `.expect(…)` — require `total_cmp`.
pub struct FloatPartialCmpRule;

impl Rule for FloatPartialCmpRule {
    fn name(&self) -> &'static str {
        "float-partial-cmp"
    }
    fn summary(&self) -> &'static str {
        "forbid partial_cmp().unwrap()/expect() on floats — use total_cmp"
    }
    fn explain(&self) -> &'static str {
        "partial_cmp on floats returns None for NaN, so the trailing unwrap/expect is \
a latent panic wired to data content — and sorting callbacks that panic can \
abort mid-sort. f64::total_cmp is total, panic-free, and gives one deterministic \
order for every input including NaN and signed zero (the result sort in \
core/src/relationship.rs already relies on it). Replace \
`a.partial_cmp(&b).unwrap()` with `a.total_cmp(&b)`; for tuples, compare fields \
explicitly with `.cmp()`/`.total_cmp()` chained via `.then()`."
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for src in &ws.sources {
            if is_test_path(&src.file.path) {
                continue;
            }
            let toks = &src.tokens;
            for i in 0..toks.len() {
                if src.in_test_block(i) || src.ident(i) != Some("partial_cmp") {
                    continue;
                }
                if !src.is_punct(i + 1, '(') {
                    continue;
                }
                // Step over the balanced argument list.
                let mut depth = 0usize;
                let mut j = i + 1;
                while j < toks.len() {
                    if src.is_punct(j, '(') {
                        depth += 1;
                    } else if src.is_punct(j, ')') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                if src.is_punct(j + 1, '.') && matches!(src.ident(j + 2), Some("unwrap" | "expect"))
                {
                    out.push(finding_at(
                        src,
                        toks[i].start,
                        "partial_cmp".len(),
                        self.name(),
                        format!(
                            "`partial_cmp(…).{}()` panics on NaN and orders floats partially",
                            src.ident(j + 2).unwrap_or_default()
                        ),
                        "use f64::total_cmp (NaN-safe, total, deterministic)",
                    ));
                }
            }
        }
    }
}

/// Restricts wall-clock reads to the allowlisted timing/obs modules.
pub struct WallClockRule;

impl Rule for WallClockRule {
    fn name(&self) -> &'static str {
        "wall-clock"
    }
    fn summary(&self) -> &'static str {
        "restrict Instant::now/SystemTime to allowlisted timing/obs modules"
    }
    fn explain(&self) -> &'static str {
        "Query evaluation is a pure function of (index bytes, clause, seeds); a clock \
read anywhere else is either dead weight or a determinism leak in the making. \
Instant::now and SystemTime are allowed only in the modules that measure or \
enforce time by design: crates/bench, crates/obs (whose `stage` guards time \
every instrumented stage elsewhere), the daemon's timeout/drain machinery \
(serve server/client) and the framework's build report. Code elsewhere that \
genuinely needs a timestamp should take it as a parameter from an allowlisted \
caller, or carry an allow comment explaining why the read cannot steer results."
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for src in &ws.sources {
            let path = &src.file.path;
            if path_in(path, WALL_CLOCK_ALLOWED) || is_test_path(path) {
                continue;
            }
            let toks = &src.tokens;
            for (i, tok) in toks.iter().enumerate() {
                if src.in_test_block(i) {
                    continue;
                }
                match src.ident(i) {
                    Some("Instant")
                        if src.is_punct(i + 1, ':')
                            && src.is_punct(i + 2, ':')
                            && src.ident(i + 3) == Some("now") =>
                    {
                        out.push(finding_at(
                            src,
                            tok.start,
                            "Instant::now".len(),
                            self.name(),
                            "`Instant::now()` outside the timing/obs allowlist".into(),
                            "move the measurement into an allowlisted module, or pass the \
                             timestamp in from one",
                        ));
                    }
                    Some("SystemTime") => {
                        out.push(finding_at(
                            src,
                            tok.start,
                            "SystemTime".len(),
                            self.name(),
                            "`SystemTime` outside the timing/obs allowlist".into(),
                            "move the measurement into an allowlisted module, or pass the \
                             timestamp in from one",
                        ));
                    }
                    _ => {}
                }
            }
        }
    }
}
