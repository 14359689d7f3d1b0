//! polygamy-lint — project-specific static analysis for the Data
//! Polygamy workspace.
//!
//! `cargo build` proves the code compiles; the determinism matrix
//! proves today's binaries agree byte-for-byte. Neither stops the
//! *next* change from reintroducing a bug class this project has
//! already paid for once — an unstable hash seed, an undocumented
//! `unsafe`, a wire tag the spec never heard of. This crate pins those
//! invariants at the source level, as a third kind of check between
//! the compiler and the test suite.
//!
//! Design constraints, in order:
//!
//! 1. **Zero dependencies.** No rustc internals, no crates.io. The
//!    analyzer is a hand-rolled token scanner ([`scan`]) in the same
//!    style as the PQL lexer — it understands strings, comments and
//!    identifiers, and nothing more. Rules match token patterns, so a
//!    forbidden name inside a string literal or comment never fires.
//! 2. **Every finding is actionable.** A rule fires with a caret
//!    diagnostic ([`diag`]) naming the fix, or it does not exist. The
//!    escape hatch is a reasoned suppression
//!    (`// lint: allow(rule, reason = "…")`, [`suppress`]) — and
//!    reasons are mandatory, checked by the linter itself.
//! 3. **Specs are code.** The serving, observability and PQL documents
//!    in `docs/` are normative; [`rules::drift`] diffs them against the
//!    constants in the code in both directions, so documentation rot is
//!    a build failure, not a surprise.
//!
//! The binary (`polygamy-lint`) wires this into CI: `--check` exits
//! non-zero on any finding. See `docs/linting.md` for the rule
//! catalogue and `--explain <rule>` for any single rule's rationale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod rules;
pub mod scan;
pub mod suppress;

use diag::Finding;
use scan::{Scanned, SourceFile};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

/// Everything the rules look at: scanned Rust sources plus the raw
/// normative documents. Paths are repo-relative with forward slashes;
/// fixtures build virtual workspaces by declaring whatever paths they
/// need.
pub struct Workspace {
    /// Every Rust source, scanned, sorted by path.
    pub sources: Vec<Scanned>,
    /// Every markdown document, raw, sorted by path.
    pub docs: Vec<SourceFile>,
}

/// Directory prefixes the walker never descends into: build output,
/// version control, the dependency shims (vendored stand-ins, not
/// project code), and the linter's own fixture corpus (which exists to
/// violate the rules).
const SKIP_PREFIXES: &[&str] = &[
    "target",
    ".git",
    "crates/shims",
    "crates/lint/tests/fixtures",
    // The same corpus when the root is `crates/lint` itself (the
    // self-check test lints the linter's own package directory).
    "tests/fixtures",
];

impl Workspace {
    /// Builds a workspace from in-memory files (the fixture path).
    pub fn from_sources(sources: Vec<SourceFile>, docs: Vec<SourceFile>) -> Self {
        let mut sources: Vec<Scanned> = sources.into_iter().map(Scanned::new).collect();
        sources.sort_by(|a, b| a.file.path.cmp(&b.file.path));
        let mut docs = docs;
        docs.sort_by(|a, b| a.path.cmp(&b.path));
        Self { sources, docs }
    }

    /// Walks `root`, scanning every `.rs` file and collecting every
    /// `.md` file, except under `SKIP_PREFIXES`. Files that are not
    /// valid UTF-8 are skipped (the scanner is byte-offset based but
    /// rules slice text).
    pub fn load(root: &Path) -> io::Result<Self> {
        let mut sources = Vec::new();
        let mut docs = Vec::new();
        let mut stack = vec![root.to_path_buf()];
        while let Some(dir) = stack.pop() {
            let mut entries: Vec<_> = fs::read_dir(&dir)?.collect::<Result<_, _>>()?;
            entries.sort_by_key(|e| e.file_name());
            for entry in entries {
                let path = entry.path();
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                if SKIP_PREFIXES
                    .iter()
                    .any(|p| rel == *p || rel.starts_with(&format!("{p}/")))
                {
                    continue;
                }
                let ty = entry.file_type()?;
                if ty.is_dir() {
                    stack.push(path);
                } else if ty.is_file() {
                    let ext = path.extension().and_then(|e| e.to_str());
                    if !matches!(ext, Some("rs" | "md")) {
                        continue;
                    }
                    let Ok(text) = fs::read_to_string(&path) else {
                        continue;
                    };
                    let file = SourceFile { path: rel, text };
                    if ext == Some("rs") {
                        sources.push(Scanned::new(file));
                    } else {
                        docs.push(file);
                    }
                }
            }
        }
        sources.sort_by(|a, b| a.file.path.cmp(&b.file.path));
        docs.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(Self { sources, docs })
    }

    /// The scanned source at exactly `path`, if present.
    pub fn source_at(&self, path: &str) -> Option<&Scanned> {
        self.sources.iter().find(|s| s.file.path == path)
    }

    /// The document at exactly `path`, if present.
    pub fn doc_at(&self, path: &str) -> Option<&SourceFile> {
        self.docs.iter().find(|d| d.path == path)
    }
}

/// Runs every rule over the workspace, applies the per-file allow
/// comments, and returns the surviving findings in render order
/// (grouped by path, top to bottom).
pub fn lint(ws: &Workspace) -> Vec<Finding> {
    let mut raw = Vec::new();
    for rule in rules::all() {
        rule.check(ws, &mut raw);
    }
    let known = rules::names();
    let mut by_path: BTreeMap<&str, Vec<Finding>> = BTreeMap::new();
    for f in raw {
        // Keys borrow from the workspace, not the finding being moved.
        let key = ws
            .source_at(&f.path)
            .map(|s| s.file.path.as_str())
            .or_else(|| ws.doc_at(&f.path).map(|d| d.path.as_str()))
            .unwrap_or("");
        by_path.entry(key).or_default().push(f);
    }
    let mut out = Vec::new();
    // Every source file runs the allow pass — a file with allows but no
    // findings still owes unused-allow findings.
    for src in &ws.sources {
        let findings = by_path.remove(src.file.path.as_str()).unwrap_or_default();
        suppress::apply_allows(src, findings, &known, &mut out);
    }
    // Doc-anchored (and missing-file) findings pass through unsuppressed:
    // markdown has no allow comments.
    for (_, findings) in by_path {
        out.extend(findings);
    }
    out.sort_by_key(|f| f.sort_key());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs(path: &str, text: &str) -> SourceFile {
        SourceFile {
            path: path.into(),
            text: text.into(),
        }
    }

    #[test]
    fn unused_allow_fires_in_finding_free_files() {
        let ws = Workspace::from_sources(
            vec![rs(
                "crates/x/src/lib.rs",
                "#![forbid(unsafe_code)]\n// lint: allow(wall-clock, reason = \"obsolete\")\nfn f() {}\n",
            )],
            vec![],
        );
        let findings = lint(&ws);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "unused-allow");
    }

    #[test]
    fn findings_come_out_sorted() {
        let ws = Workspace::from_sources(
            vec![
                rs(
                    "crates/b/src/lib.rs",
                    "#![forbid(unsafe_code)]\nuse std::collections::hash_map::DefaultHasher;\n",
                ),
                rs(
                    "crates/a/src/lib.rs",
                    "#![forbid(unsafe_code)]\nuse std::collections::hash_map::DefaultHasher;\n",
                ),
            ],
            vec![],
        );
        let findings = lint(&ws);
        let paths: Vec<&str> = findings.iter().map(|f| f.path.as_str()).collect();
        let mut sorted = paths.clone();
        sorted.sort();
        assert_eq!(paths, sorted);
        assert!(findings.iter().all(|f| f.rule == "default-hasher"));
    }

    #[test]
    fn unsafe_under_tests_does_not_exempt_a_library_from_forbidding_it() {
        let ws = Workspace::from_sources(
            vec![
                rs("crates/x/src/lib.rs", "pub fn f() {}\n"),
                rs(
                    "crates/x/tests/alloc.rs",
                    "struct A;\n// SAFETY: forwards to the system allocator unchanged.\n\
                     unsafe impl Sync for A {}\n",
                ),
            ],
            vec![],
        );
        let findings = lint(&ws);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "missing-forbid-unsafe");
        assert_eq!(findings[0].path, "crates/x/src/lib.rs");
    }
}
