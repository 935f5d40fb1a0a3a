//! Corpus tests: every lint has a seeded-bad fixture that must produce
//! *exactly* its expected finding, and a clean fixture that must
//! produce none. The fixtures live under `tests/corpus/` (a
//! subdirectory, so cargo never compiles them as tests) and are
//! analyzed with the corpus-local `analyze.toml`, whose scoping mirrors
//! the real policy: `pinned/` is bit-pinned, `request/` is the request
//! path, and the lock hierarchy has the workspace's four classes.
//!
//! The CLI is exercised too: `--deny-all` must exit non-zero on every
//! seeded-bad fixture and zero on the clean ones — the exact contract
//! the CI gate relies on.

use std::path::{Path, PathBuf};
use std::process::Command;

use qarith_analyze::{analyze_files, config, Config};

fn corpus_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn corpus_config() -> Config {
    let text = std::fs::read_to_string(corpus_root().join("analyze.toml"))
        .expect("corpus analyze.toml exists");
    config::parse(&text).expect("corpus analyze.toml parses")
}

/// Every seeded-bad fixture with the single lint it must trigger.
const SEEDED_BAD: [(&str, &str); 9] = [
    ("pinned/hash_iteration.rs", "hash-iteration"),
    ("pinned/nondet_source.rs", "nondet-source"),
    ("pinned/trace_flow.rs", "trace-flow"),
    ("request/panic_unwrap.rs", "panic-unwrap"),
    ("request/panic_expect.rs", "panic-expect"),
    ("request/panic_macro.rs", "panic-macro"),
    ("request/panic_index.rs", "panic-index"),
    ("locks/lock_order.rs", "lock-order"),
    ("locks/lock_wait.rs", "lock-wait"),
];

const CLEAN: [&str; 3] = ["pinned/clean.rs", "request/clean.rs", "locks/clean.rs"];

#[test]
fn each_seeded_fixture_produces_exactly_its_finding() {
    let root = corpus_root();
    let cfg = corpus_config();
    for (fixture, lint) in SEEDED_BAD {
        let found = analyze_files(&root, &[root.join(fixture)], &cfg).expect("fixture readable");
        assert_eq!(found.len(), 1, "{fixture}: expected exactly one finding, got {found:?}");
        assert_eq!(found[0].lint, lint, "{fixture}: {found:?}");
        assert_eq!(found[0].file, fixture, "findings report corpus-relative paths");
        assert!(found[0].line > 0);
    }
}

#[test]
fn reentry_and_pragma_fixtures() {
    // Separate from the table only because their lints live outside the
    // (fixture ↔ lint) pattern above: lock-reentry needs `drop` in the
    // same body, and the pragma fixture is scope-independent.
    let root = corpus_root();
    let cfg = corpus_config();
    for (fixture, lint) in
        [("locks/lock_reentry.rs", "lock-reentry"), ("pragma/malformed.rs", "pragma")]
    {
        let found = analyze_files(&root, &[root.join(fixture)], &cfg).expect("fixture readable");
        assert_eq!(found.len(), 1, "{fixture}: {found:?}");
        assert_eq!(found[0].lint, lint, "{fixture}: {found:?}");
    }
}

#[test]
fn clean_fixtures_produce_no_findings() {
    let root = corpus_root();
    let cfg = corpus_config();
    for fixture in CLEAN {
        let found = analyze_files(&root, &[root.join(fixture)], &cfg).expect("fixture readable");
        assert!(found.is_empty(), "{fixture}: {found:?}");
    }
}

fn run_cli(files: &[&str], deny_all: bool) -> std::process::Output {
    let root = corpus_root();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_qarith-analyze"));
    cmd.arg("--root").arg(&root);
    cmd.arg("--config").arg(root.join("analyze.toml"));
    if deny_all {
        cmd.arg("--deny-all");
    }
    for f in files {
        cmd.arg(root.join(f));
    }
    cmd.output().expect("qarith-analyze runs")
}

#[test]
fn deny_all_exits_nonzero_on_every_seeded_fixture() {
    for (fixture, lint) in SEEDED_BAD {
        let out = run_cli(&[fixture], true);
        assert_eq!(out.status.code(), Some(1), "{fixture}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(&format!("[{lint}]")), "{fixture}: {stdout}");
    }
}

#[test]
fn deny_all_exits_zero_on_clean_fixtures() {
    let out = run_cli(&CLEAN, true);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 finding(s)"), "{stdout}");
}

#[test]
fn without_deny_all_findings_report_but_exit_zero() {
    let out = run_cli(&["request/panic_unwrap.rs"], false);
    assert_eq!(out.status.code(), Some(0), "report-only mode never gates: {out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("[panic-unwrap]"));
}

#[test]
fn a_scope_entry_naming_nothing_is_a_config_error() {
    let root = corpus_root();
    let text = std::fs::read_to_string(root.join("analyze.toml")).expect("corpus config");
    let stale = text.replace(
        r#"request_path = ["request"]"#,
        r#"request_path = ["request", "request/moved.rs"]"#,
    );
    assert_ne!(stale, text, "the corpus config declares `request_path = [\"request\"]`");
    let config_path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("stale_scope_analyze.toml");
    std::fs::write(&config_path, stale).expect("config written");
    let out = Command::new(env!("CARGO_BIN_EXE_qarith-analyze"))
        .arg("--root")
        .arg(&root)
        .arg("--config")
        .arg(&config_path)
        .arg("--deny-all")
        .arg(root.join("request/clean.rs"))
        .output()
        .expect("qarith-analyze runs");
    std::fs::remove_file(&config_path).ok();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("request_path: request/moved.rs"), "{stderr}");
}

#[test]
fn json_export_lists_every_finding() {
    let root = corpus_root();
    let json_path = root.join("../corpus_findings.json");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_qarith-analyze"));
    cmd.arg("--root").arg(&root);
    cmd.arg("--config").arg(root.join("analyze.toml"));
    cmd.arg("--json").arg(&json_path);
    for (fixture, _) in SEEDED_BAD {
        cmd.arg(root.join(fixture));
    }
    let out = cmd.output().expect("qarith-analyze runs");
    assert!(out.status.success(), "{out:?}");
    let doc = std::fs::read_to_string(&json_path).expect("JSON written");
    std::fs::remove_file(&json_path).ok();
    assert!(doc.contains("\"schema\": \"qarith-analyze-findings\""), "{doc}");
    for (_, lint) in SEEDED_BAD {
        assert!(doc.contains(&format!("\"{lint}\"")), "missing {lint} in {doc}");
    }
}
