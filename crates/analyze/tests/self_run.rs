//! The self-run gate, as a plain test: the analyzer over the real
//! workspace with the real checked-in policy must report zero findings.
//! This is the same run CI's `analyze` job performs with `--deny-all`;
//! having it in `cargo test` means a violation fails tier-1 locally
//! before CI ever sees it.

use std::path::Path;

use qarith_analyze::{analyze_files, config, dead_lock_patterns, workspace_files};

#[test]
fn workspace_is_clean_under_the_checked_in_policy() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = std::fs::read_to_string(root.join("analyze.toml")).expect("checked-in analyze.toml");
    let cfg = config::parse(&text).expect("checked-in analyze.toml parses");
    let stale = cfg.stale_scope_entries(&root);
    assert!(stale.is_empty(), "analyze.toml scopes name missing paths: {stale:?}");
    let files = workspace_files(&root).expect("workspace walk");
    assert!(files.len() > 50, "walk found {} files — scope regressed?", files.len());
    let dead = dead_lock_patterns(&files, &cfg).expect("workspace readable");
    assert!(dead.is_empty(), "analyze.toml lock patterns match no call: {dead:?}");
    let found = analyze_files(&root, &files, &cfg).expect("workspace readable");
    assert!(
        found.is_empty(),
        "the workspace must stay clean under analyze.toml; fix the code or add a reviewed \
         pragma:\n{}",
        found.iter().map(qarith_analyze::Finding::render).collect::<Vec<_>>().join("\n")
    );
}
