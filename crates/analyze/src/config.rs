//! `analyze.toml`: the checked-in configuration of the analyzer.
//!
//! The file declares *policy* — which modules are bit-pinned, what the
//! lock hierarchy is, which files form the serve request path — while
//! the lint *mechanics* live in code. Policy belongs in review-able
//! data: adding a crate to the bit-pinned set or a class to the lock
//! hierarchy is a one-line diff that CI immediately enforces.
//!
//! The parser is a deliberately small TOML subset (same philosophy as
//! the JSON kernel in `qarith_bench::json`): tables `[a]` / `[a.b]`,
//! arrays-of-tables `[[a.b]]`, and `key = value` where a value is a
//! basic string or a (possibly multi-line) array of basic strings.
//! Unknown sections or keys are hard errors — a typo in a policy file
//! must fail the build, not silently relax it.

use std::fmt;
use std::path::Path;

/// One class in the declared lock hierarchy. Classes are ranked by
/// declaration order: a guard of class *i* may be acquired while
/// holding guards of classes `< i` only.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LockClass {
    /// Human name, used in diagnostics (`AdmissionGate`).
    pub name: String,
    /// Receiver-chain suffix patterns that acquire this class, as
    /// dotted paths whose last segment is the guard method
    /// (`"plans.read"`, `"shard_of.lock"`).
    pub acquire: Vec<String>,
}

/// Associates a condvar-wait receiver pattern with the lock class of
/// the mutex it releases, so waiting with *only* that class held is
/// legal while holding anything else across the wait is flagged.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CondvarRule {
    /// Receiver-chain suffix patterns ending in `wait`
    /// (`"released.wait"`).
    pub wait: Vec<String>,
    /// Name of the [`LockClass`] whose guard the wait releases.
    pub class: String,
}

/// The parsed `analyze.toml`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Config {
    /// Path prefixes (relative to the workspace root, `/`-separated)
    /// whose files must be deterministic: no hash-order iteration, no
    /// ambient clocks/environment.
    pub bit_pinned: Vec<String>,
    /// Path prefixes exempt from the clock/env lint even when
    /// bit-pinned (declared timing/config sites).
    pub clock_allowed: Vec<String>,
    /// Path prefixes forming the serve request path, where panicking
    /// constructs require a pragma.
    pub request_path: Vec<String>,
    /// The lock hierarchy, outermost first.
    pub classes: Vec<LockClass>,
    /// Condvar-wait associations.
    pub condvars: Vec<CondvarRule>,
    /// Function names that must never be called while holding any
    /// hierarchy guard (service re-entry points).
    pub no_reentry: Vec<String>,
    /// Method names that read timing back out of the tracer
    /// (`latency_stats`, `quantile`, …). Calling one inside a
    /// bit-pinned file (outside `clock_allowed`) is a `trace-flow`
    /// finding: observability data must never feed measurement inputs.
    pub trace_read_back: Vec<String>,
}

impl Config {
    /// Rank of the class a receiver chain acquires, with the matched
    /// class, if any pattern matches.
    pub fn class_of_chain(&self, chain: &[String]) -> Option<(usize, &LockClass)> {
        self.classes
            .iter()
            .enumerate()
            .find(|(_, c)| c.acquire.iter().any(|p| chain_matches(chain, p)))
    }

    /// The condvar rule a `.wait(..)` receiver chain matches, if any.
    pub fn condvar_of_chain(&self, chain: &[String]) -> Option<&CondvarRule> {
        self.condvars.iter().find(|r| r.wait.iter().any(|p| chain_matches(chain, p)))
    }

    /// Every `bit_pinned`, `clock_allowed` or `request_path` entry that
    /// names no file or directory under `root`, as `key: entry`. A
    /// stale entry (a module that moved) matches nothing, so its lint
    /// would silently stop covering the code it was written for.
    pub fn stale_scope_entries(&self, root: &Path) -> Vec<String> {
        let scopes = [
            ("bit_pinned", &self.bit_pinned),
            ("clock_allowed", &self.clock_allowed),
            ("request_path", &self.request_path),
        ];
        scopes
            .into_iter()
            .flat_map(|(key, entries)| entries.iter().map(move |entry| (key, entry)))
            .filter(|(_, entry)| !root.join(entry).exists())
            .map(|(key, entry)| format!("{key}: {entry}"))
            .collect()
    }
}

/// Does `chain` (receiver idents, outermost first) end with the dotted
/// `pattern`? A leading `self` in the chain is ignored so patterns
/// read naturally (`"plans.read"` matches `self.plans.read`).
pub fn chain_matches(chain: &[String], pattern: &str) -> bool {
    let segments: Vec<&str> = pattern.split('.').collect();
    if segments.len() > chain.len() {
        return false;
    }
    chain[chain.len() - segments.len()..].iter().map(String::as_str).eq(segments)
}

/// A configuration-file error with its 1-based line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// What went wrong.
    pub message: String,
    /// 1-based line in `analyze.toml`.
    pub line: usize,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "analyze.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Parses the configuration text.
pub fn parse(text: &str) -> Result<Config, ConfigError> {
    let mut config = Config::default();
    let mut section = String::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let line_no = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let err = |message: String| ConfigError { message, line: line_no };
        if let Some(name) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
            match name.trim() {
                "lock.class" => config.classes.push(LockClass::default()),
                "lock.condvar" => config.condvars.push(CondvarRule::default()),
                other => return Err(err(format!("unknown array-of-tables `[[{other}]]`"))),
            }
            section = name.trim().to_string();
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            match name.trim() {
                "determinism" | "panic" | "lock" | "trace" => section = name.trim().to_string(),
                other => return Err(err(format!("unknown section `[{other}]`"))),
            }
            continue;
        }
        let Some((key, first_value_part)) = line.split_once('=') else {
            return Err(err(format!("expected `key = value`, got `{line}`")));
        };
        let key = key.trim();
        // Accumulate multi-line arrays until brackets balance outside
        // strings.
        let mut value_text = first_value_part.trim().to_string();
        while !brackets_balanced(&value_text) {
            let Some((_, next)) = lines.next() else {
                return Err(err(format!("unterminated array value for `{key}`")));
            };
            value_text.push(' ');
            value_text.push_str(strip_comment(next).trim());
        }
        let value = parse_value(&value_text).map_err(|m| err(format!("key `{key}`: {m}")))?;
        assign(&mut config, &section, key, value).map_err(err)?;
    }
    if config.classes.is_empty() {
        return Err(ConfigError {
            message: "no [[lock.class]] entries: the lock hierarchy must be declared".into(),
            line: 1,
        });
    }
    for rule in &config.condvars {
        if !config.classes.iter().any(|c| c.name == rule.class) {
            return Err(ConfigError {
                message: format!("[[lock.condvar]] names unknown class `{}`", rule.class),
                line: 1,
            });
        }
    }
    Ok(config)
}

/// A parsed value: a string or an array of strings.
enum Value {
    Str(String),
    Arr(Vec<String>),
}

fn assign(config: &mut Config, section: &str, key: &str, value: Value) -> Result<(), String> {
    let arr = |v: Value| match v {
        Value::Arr(items) => Ok(items),
        Value::Str(_) => Err("expected an array of strings".to_string()),
    };
    let string = |v: Value| match v {
        Value::Str(s) => Ok(s),
        Value::Arr(_) => Err("expected a string".to_string()),
    };
    match (section, key) {
        ("determinism", "bit_pinned") => config.bit_pinned = arr(value)?,
        ("determinism", "clock_allowed") => config.clock_allowed = arr(value)?,
        ("panic", "request_path") => config.request_path = arr(value)?,
        ("lock", "no_reentry") => config.no_reentry = arr(value)?,
        ("trace", "read_back") => config.trace_read_back = arr(value)?,
        ("lock.class", "name") => {
            let class = config.classes.last_mut().ok_or("no open [[lock.class]]")?;
            class.name = string(value)?;
        }
        ("lock.class", "acquire") => {
            let class = config.classes.last_mut().ok_or("no open [[lock.class]]")?;
            class.acquire = arr(value)?;
        }
        ("lock.condvar", "wait") => {
            let rule = config.condvars.last_mut().ok_or("no open [[lock.condvar]]")?;
            rule.wait = arr(value)?;
        }
        ("lock.condvar", "class") => {
            let rule = config.condvars.last_mut().ok_or("no open [[lock.condvar]]")?;
            rule.class = string(value)?;
        }
        (s, k) => return Err(format!("unknown key `{k}` in section `[{s}]`")),
    }
    Ok(())
}

/// Removes a `#` comment, respecting basic strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_string => escaped = !escaped,
            '"' if !escaped => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => escaped = false,
        }
    }
    line
}

fn brackets_balanced(text: &str) -> bool {
    let mut depth = 0i64;
    let mut in_string = false;
    let mut escaped = false;
    for c in text.chars() {
        match c {
            '\\' if in_string => escaped = !escaped,
            '"' if !escaped => in_string = !in_string,
            '[' if !in_string => depth += 1,
            ']' if !in_string => depth -= 1,
            _ => escaped = false,
        }
    }
    depth == 0
}

fn parse_value(text: &str) -> Result<Value, String> {
    let text = text.trim();
    if let Some(inner) = text.strip_prefix('[') {
        let inner = inner.strip_suffix(']').ok_or("unterminated array")?;
        let mut items = Vec::new();
        let mut rest = inner.trim();
        while !rest.is_empty() {
            let (item, after) = parse_string(rest)?;
            items.push(item);
            rest = after.trim_start();
            match rest.strip_prefix(',') {
                Some(after_comma) => rest = after_comma.trim_start(),
                None if rest.is_empty() => break,
                None => return Err(format!("expected `,` between array items near `{rest}`")),
            }
        }
        return Ok(Value::Arr(items));
    }
    let (s, after) = parse_string(text)?;
    if !after.trim().is_empty() {
        return Err(format!("trailing characters after string: `{after}`"));
    }
    Ok(Value::Str(s))
}

/// Parses one basic string at the start of `text`; returns it and the
/// remainder.
fn parse_string(text: &str) -> Result<(String, &str), String> {
    let rest = text.strip_prefix('"').ok_or_else(|| format!("expected a string at `{text}`"))?;
    let mut out = String::new();
    let mut chars = rest.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &rest[i + 1..])),
            '\\' => match chars.next() {
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, other)) => return Err(format!("unsupported escape `\\{other}`")),
                None => return Err("dangling escape".into()),
            },
            c => out.push(c),
        }
    }
    Err("unterminated string".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# policy file
[determinism]
bit_pinned = [
    "crates/core/src",      # sampling routes
    "crates/datagen/src",
]
clock_allowed = ["crates/core/src/report.rs"]

[panic]
request_path = ["crates/serve/src/service.rs"]

[lock]
no_reentry = ["query", "execute_plan"]

[trace]
read_back = ["latency_stats", "quantile"]

[[lock.class]]
name = "AdmissionGate"
acquire = ["in_flight.lock"]

[[lock.class]]
name = "PlanCache"
acquire = ["plans.read", "plans.write"]

[[lock.condvar]]
wait = ["released.wait"]
class = "AdmissionGate"
"#;

    #[test]
    fn parses_the_full_shape() {
        let config = parse(SAMPLE).expect("sample parses");
        assert_eq!(config.bit_pinned, ["crates/core/src", "crates/datagen/src"]);
        assert_eq!(config.clock_allowed, ["crates/core/src/report.rs"]);
        assert_eq!(config.request_path, ["crates/serve/src/service.rs"]);
        assert_eq!(config.no_reentry, ["query", "execute_plan"]);
        assert_eq!(config.trace_read_back, ["latency_stats", "quantile"]);
        assert_eq!(config.classes.len(), 2);
        assert_eq!(config.classes[1].acquire, ["plans.read", "plans.write"]);
        assert_eq!(config.condvars[0].class, "AdmissionGate");
    }

    #[test]
    fn hierarchy_rank_is_declaration_order() {
        let config = parse(SAMPLE).unwrap();
        let chain = |parts: &[&str]| parts.iter().map(ToString::to_string).collect::<Vec<_>>();
        let (rank, class) = config.class_of_chain(&chain(&["self", "plans", "write"])).unwrap();
        assert_eq!((rank, class.name.as_str()), (1, "PlanCache"));
        let (rank, _) = config.class_of_chain(&chain(&["self", "in_flight", "lock"])).unwrap();
        assert_eq!(rank, 0);
        assert!(config.class_of_chain(&chain(&["self", "data", "lock"])).is_none());
        assert!(config.condvar_of_chain(&chain(&["self", "released", "wait"])).is_some());
    }

    #[test]
    fn chain_matching_requires_full_segments() {
        let chain = |parts: &[&str]| parts.iter().map(ToString::to_string).collect::<Vec<_>>();
        assert!(chain_matches(&chain(&["self", "plans", "read"]), "plans.read"));
        assert!(chain_matches(&chain(&["plans", "read"]), "plans.read"));
        assert!(!chain_matches(&chain(&["replans", "read"]), "plans.read"));
        assert!(!chain_matches(&chain(&["read"]), "plans.read"));
    }

    #[test]
    fn rejects_unknown_sections_and_keys() {
        assert!(parse("[nope]\n").is_err());
        assert!(parse("[determinism]\nbogus = [\"x\"]\n[[lock.class]]\nname=\"A\"").is_err());
        assert!(parse("[determinism]\nbit_pinned = \"not-an-array\"").is_err());
    }

    #[test]
    fn requires_a_declared_hierarchy_and_known_condvar_classes() {
        assert!(parse("[determinism]\nbit_pinned = []\n").is_err());
        let bad = "[[lock.class]]\nname = \"A\"\nacquire = [\"a.lock\"]\n\
                   [[lock.condvar]]\nwait = [\"w.wait\"]\nclass = \"Ghost\"\n";
        assert!(parse(bad).is_err());
    }

    #[test]
    fn comments_and_strings_interact() {
        let config = parse(
            "[determinism]\nbit_pinned = [\"a#b\"] # trailing\n[[lock.class]]\n\
             name = \"C\"\nacquire = [\"c.lock\"]\n",
        )
        .unwrap();
        assert_eq!(config.bit_pinned, ["a#b"]);
    }
}
