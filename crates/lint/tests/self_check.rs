//! Self-check: the linter must run clean on its own source, and on the
//! whole workspace. The second test is the in-suite twin of the CI
//! `polygamy-lint --check` leg — a rule change that trips any shipped
//! file fails `cargo test` before it ever reaches CI.

use polygamy_lint::{lint, Workspace};
use std::path::Path;

fn render_all(ws: &Workspace) -> String {
    lint(ws)
        .iter()
        .map(|f| format!("{}:{}:{} [{}] {}", f.path, f.line, f.col, f.rule, f.message))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn the_linter_lints_itself_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ws = Workspace::load(root).expect("load crates/lint");
    assert!(
        ws.sources.iter().any(|s| s.file.path == "src/lib.rs"),
        "walker must see the crate's own sources"
    );
    let rendered = render_all(&ws);
    assert!(
        rendered.is_empty(),
        "polygamy-lint is not clean on itself:\n{rendered}"
    );
}

/// Every path list a rule consults names something that exists: an entry
/// for a deleted or renamed file exempts nothing and hides the rule's
/// real reach.
#[test]
fn every_path_list_entry_exists() {
    use polygamy_lint::rules::{ORDERING_EXEMPT, RESULT_PATH, WALL_CLOCK_ALLOWED};
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let lists = [
        ("RESULT_PATH", RESULT_PATH),
        ("WALL_CLOCK_ALLOWED", WALL_CLOCK_ALLOWED),
        ("ORDERING_EXEMPT", ORDERING_EXEMPT),
    ];
    for (list, entries) in lists {
        for entry in entries {
            let path = root.join(entry);
            let exists = match entry.strip_suffix('/') {
                Some(_) => path.is_dir(),
                None => path.is_file(),
            };
            assert!(exists, "{list} names `{entry}`, which does not exist");
        }
    }
}

#[test]
fn the_whole_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let ws = Workspace::load(&root).expect("load workspace");
    assert!(
        ws.sources.len() > 100,
        "workspace walk looks truncated: {} sources",
        ws.sources.len()
    );
    assert!(
        ws.doc_at("docs/serving.md").is_some() && ws.doc_at("docs/pql.md").is_some(),
        "normative specs must be in the walk"
    );
    let rendered = render_all(&ws);
    assert!(
        rendered.is_empty(),
        "workspace has lint findings:\n{rendered}"
    );
}
