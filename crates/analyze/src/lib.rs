//! # qarith-analyze — CI-gated static invariant checker
//!
//! The workspace's headline guarantees — bit-identical ν across
//! sequential/batch/concurrent routes, cost-only cache eviction, a
//! deadlock-free serving layer — are enforced at runtime by tests that
//! sample a handful of schedules. This crate is the *static* half: a
//! dependency-free analyzer (a small Rust lexer plus a token-stream
//! scanner — no `syn`, no crates.io, in the house style of the JSON
//! kernel it reuses from `qarith_bench::json`) that walks every
//! `crates/*/src` and `src/` file and mechanically rejects code that
//! could break those guarantees *before* it merges:
//!
//! * **determinism** ([`lints::determinism`]) — bit-pinned modules
//!   must not iterate hash collections into output or keys, nor read
//!   clocks, environment, or entropy;
//! * **lock discipline** ([`lints::locks`]) — guard acquisitions must
//!   respect the hierarchy declared in `analyze.toml`, never hold a
//!   foreign guard across a condvar wait, never re-enter the service
//!   under a lock;
//! * **panic safety** ([`lints::panics`]) — no `unwrap`/`expect`/
//!   `panic!`/indexing in the serve request path;
//! * **trace flow** ([`lints::trace`]) — bit-pinned modules must not
//!   read timing back out of the tracer; observability data never
//!   flows into measurement inputs.
//!
//! Policy (which paths are bit-pinned, the lock hierarchy, the request
//! path) lives in the checked-in [`analyze.toml`](crate::config);
//! justified exceptions live next to the code as
//! `// analyze: allow(<lint>, reason = "...")` pragmas whose reasons
//! are reviewed like code. Findings are emitted as `file:line` human
//! diagnostics plus a machine-readable JSON document; CI runs
//! `qarith-analyze --deny-all` as a required gate and uploads the
//! JSON as an artifact.
//!
//! Layering: a development-time tool at the very top of the workspace,
//! beside `qarith-bench` (whose JSON kernel it reuses); nothing
//! depends on it and it depends on nothing else.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod findings;
pub mod lexer;
pub mod lints;
pub mod scan;

use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};

pub use config::Config;
pub use findings::Finding;

/// Is `file` (workspace-relative, `/`-separated) under one of the
/// configured path `prefixes`? A prefix matches the file itself or any
/// file below it as a directory.
pub fn in_scope(file: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| {
        let p = p.trim_end_matches('/');
        file == p || file.strip_prefix(p).is_some_and(|rest| rest.starts_with('/'))
    })
}

/// Analyzes one source file's text. `rel_path` is the
/// workspace-relative `/`-separated path used for scoping and
/// diagnostics. Returns findings sorted and deduplicated, with pragma
/// suppression applied.
pub fn analyze_source(rel_path: &str, source: &str, config: &Config) -> Vec<Finding> {
    analyze(rel_path, source, false, config)
}

/// [`analyze_source`], for a file that is either shipped or, with
/// `test_only`, compiled only into tests (see `test_only_files`): a
/// test-only file is test code throughout, so only its pragmas are
/// checked, as for an inline `#[cfg(test)]` module.
fn analyze(rel_path: &str, source: &str, test_only: bool, config: &Config) -> Vec<Finding> {
    let lexed = lexer::lex(source);
    let tokens = if test_only { Vec::new() } else { scan::strip_tests(&lexed.tokens) };
    let mut findings = Vec::new();

    // Malformed pragmas are findings themselves (and can never
    // suppress anything).
    for pragma in &lexed.pragmas {
        if let Some(what) = &pragma.malformed {
            findings.push(Finding {
                lint: "pragma",
                file: rel_path.to_string(),
                line: pragma.line,
                message: format!("malformed analyze pragma: {what}"),
            });
        }
    }

    if in_scope(rel_path, &config.bit_pinned) {
        let clock_allowed = in_scope(rel_path, &config.clock_allowed);
        lints::determinism::check(rel_path, &tokens, clock_allowed, &mut findings);
        if !clock_allowed {
            lints::trace::check(rel_path, &tokens, config, &mut findings);
        }
    }
    if in_scope(rel_path, &config.request_path) {
        lints::panics::check(rel_path, &tokens, &mut findings);
    }
    lints::locks::check(rel_path, &tokens, config, &mut findings);

    // Pragma suppression: a well-formed pragma allows its lint on its
    // own line, and on the next line when it stands alone.
    findings.retain(|f| {
        f.lint == "pragma"
            || !lexed.pragmas.iter().any(|p| {
                p.malformed.is_none()
                    && p.lint == f.lint
                    && (p.line == f.line || (p.standalone && p.line + 1 == f.line))
            })
    });

    findings::sort(&mut findings);
    // Nested functions are scanned both standalone and inside their
    // parent, so identical findings can repeat.
    findings.dedup();
    findings
}

/// The set of files the analyzer covers: every `.rs` under the root
/// `src/` and under each `crates/*/src/`, sorted for deterministic
/// reports. Tests, examples, benches, and `vendor/` are out of scope —
/// the lints police shipped behavior.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> =
            std::fs::read_dir(&crates)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        members.sort();
        for member in members {
            let src = member.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The files among `files` that only test builds compile: every
/// declaration of such a file in `files` is test code — a
/// `#[cfg(test)] mod name;`, or any `mod name;` in a file that is
/// itself test-only. The lints skip them, as they skip inline
/// `#[cfg(test)]` items. A file that no file in `files` declares (a
/// crate root, or a file named alone on the command line) is shipped.
fn test_only_files(files: &[PathBuf]) -> io::Result<HashSet<PathBuf>> {
    let known: HashSet<&PathBuf> = files.iter().collect();
    // Declared file → (declaring file, declared as test code?).
    let mut declared: HashMap<&PathBuf, Vec<(&PathBuf, bool)>> = HashMap::new();
    for file in files {
        let tokens = lexer::lex(&std::fs::read_to_string(file)?).tokens;
        let shipped = scan::module_declarations(&scan::strip_tests(&tokens));
        for name in scan::module_declarations(&tokens) {
            let test = !shipped.contains(&name);
            for path in module_paths(file, &name) {
                if let Some(&child) = known.get(&path) {
                    declared.entry(child).or_default().push((file, test));
                }
            }
        }
    }
    let mut test_only: HashSet<PathBuf> = HashSet::new();
    loop {
        let before = test_only.len();
        for (child, parents) in &declared {
            if parents.iter().all(|(parent, test)| *test || test_only.contains(*parent)) {
                test_only.insert((*child).clone());
            }
        }
        if test_only.len() == before {
            return Ok(test_only);
        }
    }
}

/// The two files `mod name;` in `parent` can name: `name.rs` or
/// `name/mod.rs`, in the parent's own directory for a crate root or
/// `mod.rs`, else in the directory named after the parent.
fn module_paths(parent: &Path, name: &str) -> [PathBuf; 2] {
    let dir = parent.parent().unwrap_or(Path::new(""));
    let stem = parent.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    let dir =
        if matches!(stem, "lib" | "main" | "mod") { dir.to_path_buf() } else { dir.join(stem) };
    [dir.join(format!("{name}.rs")), dir.join(name).join("mod.rs")]
}

/// Every `acquire` pattern of a `[[lock.class]]` and `wait` pattern of a
/// `[[lock.condvar]]` in `config` that no call in `files` (test code
/// excluded, as for the lints) matches. A dead pattern — the call it
/// was written for was renamed or removed — declares a lock the
/// hierarchy no longer checks.
pub fn dead_lock_patterns(files: &[PathBuf], config: &Config) -> io::Result<Vec<String>> {
    let mut patterns: Vec<String> = config
        .classes
        .iter()
        .flat_map(|class| class.acquire.iter())
        .chain(config.condvars.iter().flat_map(|rule| rule.wait.iter()))
        .cloned()
        .collect();
    let test_only = test_only_files(files)?;
    for file in files.iter().filter(|f| !test_only.contains(*f)) {
        let source = std::fs::read_to_string(file)?;
        lints::locks::retain_unmatched(
            &scan::strip_tests(&lexer::lex(&source).tokens),
            &mut patterns,
        );
    }
    Ok(patterns)
}

/// Analyzes a list of files on disk against `config`, reporting paths
/// relative to `root`. A file that the list declares only by
/// `#[cfg(test)] mod name;` (or only from such files) is test code.
pub fn analyze_files(root: &Path, files: &[PathBuf], config: &Config) -> io::Result<Vec<Finding>> {
    let test_only = test_only_files(files)?;
    let mut findings = Vec::new();
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(file);
        let rel = rel.to_string_lossy().replace('\\', "/");
        let source = std::fs::read_to_string(file)?;
        findings.extend(analyze(&rel, &source, test_only.contains(file), config));
    }
    findings::sort(&mut findings);
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config() -> Config {
        config::parse(
            r#"
[determinism]
bit_pinned = ["crates/core/src"]
clock_allowed = ["crates/core/src/report.rs"]

[panic]
request_path = ["crates/serve/src/service.rs"]

[[lock.class]]
name = "A"
acquire = ["a.lock"]
"#,
        )
        .unwrap()
    }

    #[test]
    fn scoping_is_prefix_with_boundaries() {
        let prefixes = vec!["crates/core/src".to_string(), "src/lib.rs".to_string()];
        assert!(in_scope("crates/core/src/lib.rs", &prefixes));
        assert!(in_scope("crates/core/src/exact/order.rs", &prefixes));
        assert!(in_scope("src/lib.rs", &prefixes));
        assert!(!in_scope("crates/core/srcx/lib.rs", &prefixes));
        assert!(!in_scope("crates/serve/src/lib.rs", &prefixes));
    }

    #[test]
    fn lints_respect_their_scopes() {
        let src = "fn f(m: &HashMap<u8, u8>) { for x in m.keys() { emit(x); } x.unwrap(); }";
        let config = test_config();
        let pinned = analyze_source("crates/core/src/lib.rs", src, &config);
        assert_eq!(pinned.len(), 1, "{pinned:?}");
        assert_eq!(pinned[0].lint, "hash-iteration");
        let serve = analyze_source("crates/serve/src/service.rs", src, &config);
        assert_eq!(serve.len(), 1, "{serve:?}");
        assert_eq!(serve[0].lint, "panic-unwrap");
        assert!(analyze_source("crates/sql/src/lib.rs", src, &config).is_empty());
    }

    #[test]
    fn pragmas_suppress_same_and_next_line() {
        let config = test_config();
        let trailing = "fn f(x: Option<u8>) { x.unwrap(); } \
                        // analyze: allow(panic-unwrap, reason = \"checked above\")";
        assert!(analyze_source("crates/serve/src/service.rs", trailing, &config).is_empty());
        let standalone = "// analyze: allow(panic-unwrap, reason = \"checked above\")\n\
                          fn f(x: Option<u8>) { x.unwrap(); }";
        assert!(analyze_source("crates/serve/src/service.rs", standalone, &config).is_empty());
        let wrong_lint = "// analyze: allow(panic-expect, reason = \"oops\")\n\
                          fn f(x: Option<u8>) { x.unwrap(); }";
        assert_eq!(analyze_source("crates/serve/src/service.rs", wrong_lint, &config).len(), 1);
    }

    #[test]
    fn malformed_pragma_is_a_finding_everywhere() {
        let config = test_config();
        let src = "// analyze: allow(panic-unwrap, reason = \"\")\nfn f() {}";
        let out = analyze_source("crates/sql/src/lib.rs", src, &config);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].lint, "pragma");
    }

    #[test]
    fn trace_read_back_is_flagged_only_outside_clock_allowed() {
        let config = config::parse(
            r#"
[determinism]
bit_pinned = ["crates/core/src", "crates/trace/src"]
clock_allowed = ["crates/trace/src"]

[trace]
read_back = ["latency_stats"]

[[lock.class]]
name = "A"
acquire = ["a.lock"]
"#,
        )
        .unwrap();
        let src = "fn f(&self) { let s = self.tracer.latency_stats(); }";
        let pinned = analyze_source("crates/core/src/pipeline.rs", src, &config);
        assert_eq!(pinned.len(), 1, "{pinned:?}");
        assert_eq!(pinned[0].lint, "trace-flow");
        // The tracer's own (clock_allowed) sources read themselves back
        // by definition; out-of-scope crates are free to observe.
        assert!(analyze_source("crates/trace/src/span.rs", src, &config).is_empty());
        assert!(analyze_source("crates/serve/src/service.rs", src, &config).is_empty());
    }

    #[test]
    fn clock_allowed_path_skips_sources_only() {
        let config = test_config();
        let src = "fn f() { let t = Instant::now(); }";
        assert!(analyze_source("crates/core/src/report.rs", src, &config).is_empty());
        assert_eq!(analyze_source("crates/core/src/fpras.rs", src, &config).len(), 1);
    }
}
