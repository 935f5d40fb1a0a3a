//! Lock-discipline lints against the declared hierarchy.
//!
//! `analyze.toml` declares the workspace's lock classes in outermost-
//! first order (`AdmissionGate → PlanCache → NuCacheDeltaIndex →
//! NuCache shard`, among others). Within one function body, this pass
//! tracks which guards are held and flags:
//!
//! * **`lock-order`** — acquiring a guard whose class rank is ≤ the
//!   rank of any guard already held (equal rank included: two guards
//!   of one class have no defined order, which is the classic
//!   symmetric-deadlock shape);
//! * **`lock-wait`** — a condvar `wait` while holding any guard other
//!   than the one the condvar releases (the foreign guard stays locked
//!   for the whole sleep: a deadlock if the waker needs it);
//! * **`lock-reentry`** — calling a declared service entry point
//!   (`no_reentry` in the config) while holding any guard.
//!
//! **Lexical guard-lifetime model.** A guard bound by `let` lives to
//! the end of its enclosing block, or to an explicit `drop(name)`. A
//! guard acquired in an `if`/`while`/`match` head lives through the
//! attached block (matching Rust's temporary-scope extension for
//! scrutinees in edition 2021). An unbound guard (a statement-level
//! temporary) lives to the end of its statement. This over-approximates
//! plain-`if` condition temporaries — the conservative direction: it
//! can only flag an order that *looks* violating, never miss one the
//! model sees, and a justified false positive carries a pragma.

use crate::config::Config;
use crate::findings::Finding;
use crate::lexer::{Tok, Token};
use crate::scan::{functions, is_call, receiver_chain};

/// Guard-acquiring method names.
const ACQUIRE_METHODS: [&str; 3] = ["lock", "read", "write"];

/// Condvar wait method names.
const WAIT_METHODS: [&str; 3] = ["wait", "wait_timeout", "wait_while"];

/// One tracked guard.
struct Held {
    rank: usize,
    class: String,
    binding: Option<String>,
    /// Brace depth (relative to the function body) the guard's scope
    /// belongs to; the guard dies when the scan leaves that depth.
    depth: i64,
    /// Statement-level temporary: dies at the next top-level `;`.
    temp: bool,
    line: u32,
}

/// Runs the lock lints over one file (any file — lock discipline is
/// not scoped to a module list; the patterns in the config decide what
/// counts as a guard).
pub fn check(file: &str, tokens: &[Token], config: &Config, out: &mut Vec<Finding>) {
    for body in functions(tokens) {
        check_body(file, &tokens[body.start..body.end], config, out);
    }
}

fn check_body(file: &str, tokens: &[Token], config: &Config, out: &mut Vec<Finding>) {
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0i64;
    let mut paren = 0i64;
    let mut i = 0usize;
    while i < tokens.len() {
        match &tokens[i].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                held.retain(|g| g.depth <= depth);
            }
            Tok::Punct('(') | Tok::Punct('[') => paren += 1,
            Tok::Punct(')') | Tok::Punct(']') => paren -= 1,
            Tok::Punct(';') if paren == 0 => held.retain(|g| !g.temp),
            Tok::Ident(word) => {
                if word == "drop" && is_call(tokens, i) {
                    if let Some(Tok::Ident(arg)) = tokens.get(i + 2).map(|t| &t.tok) {
                        if matches!(tokens.get(i + 3).map(|t| &t.tok), Some(Tok::Punct(')'))) {
                            held.retain(|g| g.binding.as_deref() != Some(arg.as_str()));
                        }
                    }
                } else if ACQUIRE_METHODS.contains(&word.as_str())
                    && is_call(tokens, i)
                    && i > 0
                    && tokens[i - 1].tok == Tok::Punct('.')
                {
                    let chain = receiver_chain(tokens, i);
                    if let Some((rank, class)) = config.class_of_chain(&chain) {
                        for g in &held {
                            if g.rank >= rank {
                                out.push(Finding {
                                    lint: "lock-order",
                                    file: file.to_string(),
                                    line: tokens[i].line,
                                    message: format!(
                                        "acquiring `{}` (rank {rank}) while holding `{}` \
                                         (rank {}, acquired line {}) violates the declared \
                                         hierarchy",
                                        class.name, g.class, g.rank, g.line
                                    ),
                                });
                            }
                        }
                        let scope = statement_scope(tokens, i, depth);
                        held.push(Held {
                            rank,
                            class: class.name.clone(),
                            binding: scope.binding,
                            depth: scope.depth,
                            temp: scope.temp,
                            line: tokens[i].line,
                        });
                    }
                } else if WAIT_METHODS.contains(&word.as_str())
                    && is_call(tokens, i)
                    && i > 0
                    && tokens[i - 1].tok == Tok::Punct('.')
                {
                    let chain = receiver_chain(tokens, i);
                    match config.condvar_of_chain(&chain) {
                        Some(rule) => {
                            for g in held.iter().filter(|g| g.class != rule.class) {
                                out.push(Finding {
                                    lint: "lock-wait",
                                    file: file.to_string(),
                                    line: tokens[i].line,
                                    message: format!(
                                        "waiting on condvar of `{}` while holding foreign \
                                         guard `{}` (acquired line {}); the guard stays \
                                         locked for the whole sleep",
                                        rule.class, g.class, g.line
                                    ),
                                });
                            }
                        }
                        None if !held.is_empty() => {
                            let g = &held[0];
                            out.push(Finding {
                                lint: "lock-wait",
                                file: file.to_string(),
                                line: tokens[i].line,
                                message: format!(
                                    "`.{word}()` on an undeclared condvar while holding \
                                     `{}` (acquired line {}); declare the condvar in \
                                     analyze.toml or release the guard first",
                                    g.class, g.line
                                ),
                            });
                        }
                        None => {}
                    }
                } else if config.no_reentry.iter().any(|n| n == word)
                    && is_call(tokens, i)
                    && !held.is_empty()
                {
                    let g = &held[0];
                    out.push(Finding {
                        lint: "lock-reentry",
                        file: file.to_string(),
                        line: tokens[i].line,
                        message: format!(
                            "calling service entry point `{word}` while holding `{}` \
                             (acquired line {}); entry points may block on the full \
                             hierarchy",
                            g.class, g.line
                        ),
                    });
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// How long the guard acquired inside the statement containing token
/// `at` lives, per the lexical model in the module docs.
struct Scope {
    binding: Option<String>,
    depth: i64,
    temp: bool,
}

fn statement_scope(tokens: &[Token], at: usize, depth: i64) -> Scope {
    // Walk back to the start of the statement: just past the previous
    // `;`, `{`, or `}` at any level (good enough — expressions rarely
    // embed those outside blocks).
    let mut start = 0usize;
    for j in (0..at).rev() {
        if matches!(tokens[j].tok, Tok::Punct(';' | '{' | '}')) {
            start = j + 1;
            break;
        }
    }
    let word_at = |k: usize| match tokens.get(k).map(|t| &t.tok) {
        Some(Tok::Ident(w)) => Some(w.as_str()),
        _ => None,
    };
    let mut k = start;
    // `if let` / `while let` / `match` heads: the guard lives through
    // the attached block.
    if matches!(word_at(k), Some("if" | "while" | "match")) {
        return Scope { binding: None, depth: depth + 1, temp: false };
    }
    if word_at(k) == Some("let") {
        k += 1;
        if word_at(k) == Some("mut") {
            k += 1;
        }
        let binding = word_at(k).map(ToString::to_string);
        return Scope { binding, depth, temp: false };
    }
    Scope { binding: None, depth, temp: true }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config;
    use crate::lexer::lex;

    fn test_config() -> Config {
        config::parse(
            r#"
[lock]
no_reentry = ["query", "execute_plan"]

[[lock.class]]
name = "Gate"
acquire = ["in_flight.lock"]

[[lock.class]]
name = "Plans"
acquire = ["plans.read", "plans.write"]

[[lock.class]]
name = "Shard"
acquire = ["shard.lock", "shard_of.lock"]

[[lock.condvar]]
wait = ["released.wait"]
class = "Gate"
"#,
        )
        .expect("test config parses")
    }

    fn run(src: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        check("f.rs", &lex(src).tokens, &test_config(), &mut out);
        out
    }

    #[test]
    fn flags_out_of_order_acquisition() {
        let src = "fn f(&self) { let s = self.shard_of(k).lock(); \
                   let p = self.plans.write(); }";
        let out = run(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].lint, "lock-order");
        assert!(out[0].message.contains("Plans") && out[0].message.contains("Shard"));
    }

    #[test]
    fn in_order_acquisition_is_clean() {
        let src = "fn f(&self) { let p = self.plans.read(); \
                   let s = self.shard_of(k).lock(); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn equal_rank_double_acquire_is_flagged() {
        let src = "fn f(&self) { let a = left.shard.lock(); let b = right.shard.lock(); }";
        let out = run(src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].lint, "lock-order");
    }

    #[test]
    fn drop_releases_a_binding() {
        let src = "fn f(&self) { let s = self.shard_of(k).lock(); drop(s); \
                   let p = self.plans.write(); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn block_scope_releases_guards() {
        let src = "fn f(&self) { for shard in &self.shards { let g = shard.lock(); use_it(&g); } \
                   let p = self.plans.write(); }";
        assert!(run(src).is_empty(), "per-iteration guards die at the block close");
    }

    #[test]
    fn statement_temporaries_die_at_semicolon() {
        let src = "fn f(&self) { *shard.lock() = Default::default(); \
                   let p = self.plans.write(); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn if_let_guard_lives_through_the_block_only() {
        let src = "fn f(&self) { if let Some(e) = self.plans.read().get(k) { return e; } \
                   let w = self.plans.write(); }";
        assert!(run(src).is_empty(), "read guard dies with the if-let block");
    }

    #[test]
    fn waiting_with_own_class_is_fine_foreign_is_not() {
        let own = "fn f(&self) { let mut g = self.in_flight.lock(); \
                   while full { g = self.released.wait(g); } }";
        assert!(run(own).is_empty());
        let foreign = "fn f(&self) { let p = self.plans.read(); \
                       let g = self.in_flight.lock(); self.released.wait(g); }";
        let out = run(foreign);
        assert!(out.iter().any(|f| f.lint == "lock-wait"), "{out:?}");
    }

    #[test]
    fn undeclared_wait_while_holding_is_flagged() {
        let src = "fn f(&self) { let p = self.plans.read(); other.cv.wait(p); }";
        let out = run(src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].lint, "lock-wait");
    }

    #[test]
    fn reentry_under_any_guard_is_flagged() {
        let src = "fn f(&self) { let s = self.shard_of(k).lock(); self.query(sql); }";
        let out = run(src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].lint, "lock-reentry");
        let clean =
            "fn f(&self) { let plan = self.plan_for(sql); let s = self.shard_of(k).lock(); }";
        assert!(run(clean).is_empty());
    }

    #[test]
    fn unrelated_locks_are_ignored() {
        let src = "fn f(&self) { let g = self.other_mutex.lock(); let h = file.lock(); }";
        assert!(run(src).is_empty(), "only configured classes are tracked");
    }
}
