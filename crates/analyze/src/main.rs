//! `qarith-analyze` — the CLI over the static invariant checker.
//!
//! ```text
//! qarith-analyze [--root DIR] [--config FILE] [--json FILE] [--deny-all] [FILE...]
//! ```
//!
//! With no positional files, walks every `crates/*/src` and `src/`
//! file under the workspace root. Findings print as `file:line:
//! [lint] message` diagnostics; `--json` additionally writes the
//! machine-readable document CI uploads as an artifact. `--deny-all`
//! (the CI mode) exits non-zero when any finding remains after pragma
//! suppression. A configuration error, including a scope entry that
//! names no file or directory under the root, exits 2.

use std::path::PathBuf;
use std::process::ExitCode;

use qarith_analyze::{analyze_files, config, findings, workspace_files};

struct Args {
    root: PathBuf,
    config: Option<PathBuf>,
    json: Option<PathBuf>,
    deny_all: bool,
    files: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { root: default_root(), config: None, json: None, deny_all: false, files: Vec::new() };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => args.root = take(&mut it, "--root")?.into(),
            "--config" => args.config = Some(take(&mut it, "--config")?.into()),
            "--json" => args.json = Some(take(&mut it, "--json")?.into()),
            "--deny-all" => args.deny_all = true,
            "--help" | "-h" => {
                println!(
                    "usage: qarith-analyze [--root DIR] [--config FILE] [--json FILE] \
                     [--deny-all] [FILE...]"
                );
                std::process::exit(0);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            file => args.files.push(file.into()),
        }
    }
    Ok(args)
}

fn take(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// The workspace root: the manifest dir's grandparent (this crate
/// lives at `crates/analyze`), overridable with `--root` for corpus
/// runs.
fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().and_then(std::path::Path::parent).map_or(manifest.clone(), PathBuf::from)
}

fn run() -> Result<usize, String> {
    let args = parse_args()?;
    let config_path = args.config.clone().unwrap_or_else(|| args.root.join("analyze.toml"));
    let config_text = std::fs::read_to_string(&config_path)
        .map_err(|e| format!("reading {}: {e}", config_path.display()))?;
    let config = config::parse(&config_text).map_err(|e| e.to_string())?;
    let stale = config.stale_scope_entries(&args.root);
    if !stale.is_empty() {
        return Err(format!(
            "{}: scope entries name no file or directory under {}: {}",
            config_path.display(),
            args.root.display(),
            stale.join(", ")
        ));
    }

    let files = if args.files.is_empty() {
        workspace_files(&args.root).map_err(|e| format!("walking {}: {e}", args.root.display()))?
    } else {
        args.files.clone()
    };
    let found =
        analyze_files(&args.root, &files, &config).map_err(|e| format!("analyzing: {e}"))?;

    for finding in &found {
        println!("{}", finding.render());
    }
    println!(
        "qarith-analyze: {} file(s), {} finding(s){}",
        files.len(),
        found.len(),
        if args.deny_all { " [deny-all]" } else { "" }
    );

    if let Some(json_path) = &args.json {
        let doc = findings::to_json(&found);
        std::fs::write(json_path, doc.pretty())
            .map_err(|e| format!("writing {}: {e}", json_path.display()))?;
    }

    Ok(if args.deny_all { found.len() } else { 0 })
}

fn main() -> ExitCode {
    match run() {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("qarith-analyze: error: {message}");
            ExitCode::from(2)
        }
    }
}
