//! Findings and their two renderings: caret diagnostics and JSON lines.
//!
//! The caret format follows the PQL error renderer (`core/src/pql/
//! error.rs`): a `path:line:col` header, the echoed source line with a
//! line-number gutter, a caret underline, and a `help:` footer naming
//! the fix. The JSON rendering is one object per finding on one line,
//! machine-readable for editors and CI annotators.

use crate::scan::Scanned;
use polygamy_json::write_str;
use std::fmt::Write as _;

/// One rule violation, anchored to a file position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired (its kebab-case name).
    pub rule: &'static str,
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line of the anchor.
    pub line: usize,
    /// 1-based column of the anchor.
    pub col: usize,
    /// Caret width in characters (minimum 1 when rendered).
    pub width: usize,
    /// What is wrong, in one sentence.
    pub message: String,
    /// How to fix it (rendered as the `help:` footer).
    pub help: String,
}

impl Finding {
    /// Sort key: findings print grouped by file, top to bottom.
    pub fn sort_key(&self) -> (String, usize, usize, &'static str) {
        (self.path.clone(), self.line, self.col, self.rule)
    }

    /// Renders the caret diagnostic against the scanned source the
    /// finding came from (`None` when the source is not at hand — e.g. a
    /// finding against a missing file — which renders header-only).
    pub fn render(&self, source: Option<&Scanned>) -> String {
        let header = format!(
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.message
        );
        let Some(src) = source else {
            return format!("{header}\n  = help: {}", self.help);
        };
        // Tabs would misalign the caret line; expand them the way the
        // PQL renderer does.
        let raw = if self.line <= src.line_count() {
            src.line_text(self.line)
        } else {
            ""
        };
        let line = raw.replace('\t', "    ");
        let before: String = raw
            .chars()
            .take(self.col.saturating_sub(1))
            .collect::<String>()
            .replace('\t', "    ");
        let indent = before.chars().count();
        let carets = "^".repeat(self.width.max(1));
        let gutter = self.line.to_string().len();
        format!(
            "{header}\n{pad} |\n{line_no:>gutter$} | {line}\n{pad} | {space}{carets}\n{pad} = help: {help}",
            pad = " ".repeat(gutter),
            line_no = self.line,
            space = " ".repeat(indent),
            help = self.help,
        )
    }

    /// Renders the finding as one JSON object (one line, stable key
    /// order) for `--json` consumers.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"rule\":");
        write_str(&mut out, self.rule);
        out.push_str(",\"path\":");
        write_str(&mut out, &self.path);
        let _ = write!(
            out,
            ",\"line\":{},\"col\":{},\"message\":",
            self.line, self.col
        );
        write_str(&mut out, &self.message);
        out.push_str(",\"help\":");
        write_str(&mut out, &self.help);
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;

    fn finding() -> Finding {
        Finding {
            rule: "default-hasher",
            path: "crates/x/src/lib.rs".into(),
            line: 2,
            col: 13,
            width: 13,
            message: "`DefaultHasher` is unstable across toolchains".into(),
            help: "derive seeds with the pinned FNV-1a hasher".into(),
        }
    }

    #[test]
    fn caret_lands_under_the_token() {
        let src = Scanned::new(SourceFile {
            path: "crates/x/src/lib.rs".into(),
            text: "fn f() {\n    let h = DefaultHasher::new();\n}".into(),
        });
        let text = finding().render(Some(&src));
        let lines: Vec<&str> = text.lines().collect();
        let echoed = lines[2];
        let caret_line = lines[3];
        assert_eq!(
            caret_line.find('^').unwrap(),
            echoed.find("DefaultHasher").unwrap(),
            "{text}"
        );
        assert!(text.contains("= help:"), "{text}");
    }

    #[test]
    fn missing_source_renders_header_only() {
        let text = finding().render(None);
        assert!(text.starts_with("crates/x/src/lib.rs:2:13: [default-hasher]"));
        assert!(!text.contains('^'));
    }

    #[test]
    fn json_escapes_quotes() {
        let mut f = finding();
        f.message = "tag `\"Q\"` drifted".into();
        let json = f.to_json();
        assert!(json.contains("\\\"Q\\\""), "{json}");
        assert!(json.starts_with("{\"rule\":\"default-hasher\""));
    }
}
