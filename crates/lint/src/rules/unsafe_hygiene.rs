//! Rule family 2: unsafe hygiene.
//!
//! No library or binary in the workspace contains unsafe code; the only
//! `unsafe` left is in test-only counting allocators. These rules keep it
//! that way: every `unsafe` must argue its soundness in a `// SAFETY:`
//! comment, and a crate whose `src/` has no unsafe at all must say so
//! with `#![forbid(unsafe_code)]` so the next unsafe block is a compile
//! error, not a review discussion.

use super::Rule;
use crate::diag::Finding;
use crate::scan::Scanned;
use crate::Workspace;
use std::collections::BTreeMap;

/// How many lines above an `unsafe` token a `// SAFETY:` comment may
/// end and still count as documenting it.
const SAFETY_WINDOW: usize = 3;

/// Every `unsafe` block/fn/impl must carry a nearby `// SAFETY:` comment.
pub struct UndocumentedUnsafeRule;

impl Rule for UndocumentedUnsafeRule {
    fn name(&self) -> &'static str {
        "undocumented-unsafe"
    }
    fn summary(&self) -> &'static str {
        "every `unsafe` must have a `// SAFETY:` comment within 3 lines above"
    }
    fn explain(&self) -> &'static str {
        "An unsafe block is a proof obligation discharged by the author and re-checked \
by every future reader; the `// SAFETY:` comment is where that proof lives. The \
rule accepts a comment containing `SAFETY:` on the same line as the `unsafe` \
token or ending within the 3 lines above it (attributes in between are fine). \
It applies everywhere, tests included — test unsafety needs the same argument."
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for src in &ws.sources {
            for t in &src.tokens {
                if src.text(t) != "unsafe" {
                    continue;
                }
                let (line, col) = src.line_col(t.start);
                if src.comment_near(line, SAFETY_WINDOW, "SAFETY:") {
                    continue;
                }
                out.push(Finding {
                    rule: self.name(),
                    path: src.file.path.clone(),
                    line,
                    col,
                    width: "unsafe".len(),
                    message: "`unsafe` without a `// SAFETY:` comment".into(),
                    help: "state the soundness argument in a `// SAFETY:` comment directly \
                           above"
                        .into(),
                });
            }
        }
    }
}

/// Crates containing no unsafe code must declare `#![forbid(unsafe_code)]`.
pub struct MissingForbidUnsafeRule;

impl MissingForbidUnsafeRule {
    /// The crate whose `src/` tree holds a repo-relative path:
    /// `crates/<name>` for `crates/<name>/src/…`, the root facade package
    /// (`""`) for `src/…`. `None` for tests, examples, benches and
    /// anything else — a `#![forbid]` in lib.rs never covers those, so
    /// their `unsafe` cannot excuse a library from declaring it.
    fn crate_of_src(path: &str) -> Option<String> {
        if let Some(rest) = path.strip_prefix("crates/") {
            let (name, inner) = rest.split_once('/')?;
            return inner.starts_with("src/").then(|| format!("crates/{name}"));
        }
        path.starts_with("src/").then(String::new)
    }

    /// True when the token stream contains `#![forbid(unsafe_code)]`.
    fn has_forbid(src: &Scanned) -> bool {
        let t = |i: usize| src.tokens.get(i).map(|t| src.text(t));
        (0..src.tokens.len()).any(|i| {
            t(i) == Some("#")
                && t(i + 1) == Some("!")
                && t(i + 2) == Some("[")
                && t(i + 3) == Some("forbid")
                && t(i + 4) == Some("(")
                && t(i + 5) == Some("unsafe_code")
                && t(i + 6) == Some(")")
                && t(i + 7) == Some("]")
        })
    }
}

impl Rule for MissingForbidUnsafeRule {
    fn name(&self) -> &'static str {
        "missing-forbid-unsafe"
    }
    fn summary(&self) -> &'static str {
        "crates with zero unsafe must declare #![forbid(unsafe_code)]"
    }
    fn explain(&self) -> &'static str {
        "A crate that contains no unsafe code should make that a compiler-enforced \
invariant: with #![forbid(unsafe_code)] in lib.rs, the next unsafe block fails \
to build instead of slipping through review. The rule groups the files under \
each crate's `src/` (lib and bins), checks them for `unsafe` tokens, and \
requires the attribute in lib.rs when none are found. Tests, examples and \
benches are not consulted: the attribute never covers them, so a counting \
allocator under `tests/` does not exempt its crate. Crates whose `src/` does \
use unsafe (today: none) are exempt — their obligation is undocumented-unsafe \
instead."
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let mut groups: BTreeMap<String, Vec<&Scanned>> = BTreeMap::new();
        for src in &ws.sources {
            if let Some(key) = Self::crate_of_src(&src.file.path) {
                groups.entry(key).or_default().push(src);
            }
        }
        for (key, files) in groups {
            let any_unsafe = files
                .iter()
                .any(|s| s.tokens.iter().any(|t| s.text(t) == "unsafe"));
            if any_unsafe {
                continue;
            }
            let lib_path = if key.is_empty() {
                "src/lib.rs".to_string()
            } else {
                format!("{key}/src/lib.rs")
            };
            let Some(lib) = files.iter().find(|s| s.file.path == lib_path) else {
                continue;
            };
            if !Self::has_forbid(lib) {
                out.push(Finding {
                    rule: self.name(),
                    path: lib.file.path.clone(),
                    line: 1,
                    col: 1,
                    width: 1,
                    message: format!(
                        "crate `{}` contains no unsafe code but does not forbid it",
                        if key.is_empty() { "<root>" } else { &key }
                    ),
                    help: "add `#![forbid(unsafe_code)]` to the crate root".into(),
                });
            }
        }
    }
}
