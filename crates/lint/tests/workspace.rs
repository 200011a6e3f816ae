//! Workspace-level integration: the real tree lints clean against the
//! checked-in lint.toml, and the allowlist parser enforces its policy.

use cohesion_lint::{config, find_workspace_root, lint_workspace};
use std::path::Path;

fn workspace_root() -> std::path::PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint")
}

#[test]
fn the_workspace_is_clean() {
    let report = lint_workspace(&workspace_root()).expect("lint run");
    assert!(
        report.is_clean(),
        "violations in the tree:\n{}",
        report.render_text()
    );
    assert!(
        report.stale_allows.is_empty(),
        "stale lint.toml entries:\n{}",
        report.render_text()
    );
    // Sanity: the walk actually visited the tree (10 crates + this one).
    assert!(report.files_scanned > 100, "{}", report.files_scanned);
}

#[test]
fn json_rendering_is_well_formed_enough_to_grep() {
    let report = lint_workspace(&workspace_root()).expect("lint run");
    let json = report.render_json();
    assert!(json.starts_with("{\"files_scanned\":"));
    assert!(json.contains("\"violations\":[]"));
    assert!(json.trim_end().ends_with('}'));
}

// --- lint.toml policy -----------------------------------------------------

#[test]
fn allowlist_accepts_a_justified_entry() {
    let entries = config::parse(
        r#"
# comment
[[allow]]
rule = "D2"
path = "crates/bench/src/lookbench.rs"
justification = "benchmark harness: the wall clock is its output"
"#,
    )
    .expect("valid allowlist");
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].rule, "D2");
    assert_eq!(entries[0].path, "crates/bench/src/lookbench.rs");
}

#[test]
fn allowlist_rejects_missing_justification() {
    let err = config::parse("[[allow]]\nrule = \"D2\"\npath = \"x.rs\"\n").unwrap_err();
    assert!(err.contains("justification"), "{err}");
}

#[test]
fn allowlist_rejects_token_justifications() {
    let err =
        config::parse("[[allow]]\nrule = \"D2\"\npath = \"x.rs\"\njustification = \"perf\"\n")
            .unwrap_err();
    assert!(err.contains("justification"), "{err}");
}

#[test]
fn allowlist_rejects_unknown_rules() {
    let err = config::parse(
        "[[allow]]\nrule = \"D9\"\npath = \"x.rs\"\njustification = \"a perfectly fine reason here\"\n",
    )
    .unwrap_err();
    assert!(err.contains("unknown rule"), "{err}");
}

#[test]
fn allowlist_rejects_keys_outside_an_entry() {
    let err = config::parse("rule = \"D2\"\n").unwrap_err();
    assert!(err.contains("outside"), "{err}");
}

#[test]
fn allowlist_rejects_unquoted_values() {
    let err = config::parse("[[allow]]\nrule = D2\n").unwrap_err();
    assert!(err.contains("double-quoted"), "{err}");
}
