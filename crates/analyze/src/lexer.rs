//! A minimal Rust lexer: just enough tokens to scan items, paths, and
//! call expressions.
//!
//! The analyzer deliberately does not parse Rust — it scans token
//! streams with a handful of lexical conventions (receiver chains,
//! balanced delimiters, statement boundaries). That keeps the tool
//! dependency-free (no `syn`, no crates.io) in the same house style as
//! the hand-rolled JSON kernel in `qarith_bench::json`, at the cost of
//! being an approximation: the lint passes in [`crate::lints`] document
//! where they are lexical rather than semantic.
//!
//! The lexer also extracts **pragmas** — `// analyze: allow(<lint>,
//! reason = "...")` comments — which are the only sanctioned way to
//! silence a finding in checked code (see [`Pragma`]).

/// One token. Comments and whitespace are consumed by the lexer (line
/// comments may surface as [`Pragma`]s); everything else is kept.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword (`fn`, `HashMap`, `unwrap`, …).
    Ident(String),
    /// A lifetime (`'a`). Kept distinct so `'a` is never confused with
    /// a char literal.
    Lifetime,
    /// A numeric literal (content irrelevant to every lint).
    Num,
    /// A string literal: `"…"`, `r"…"`, `r#"…"#`, or byte variants.
    Str,
    /// A char or byte-char literal.
    Char,
    /// A single punctuation character (`.`, `(`, `:`, …). Multi-char
    /// operators appear as consecutive tokens (`::` is `:` `:`).
    Punct(char),
}

/// A token with the 1-based source line it starts on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// 1-based line number.
    pub line: u32,
}

/// An `// analyze: allow(<lint>, reason = "...")` pragma.
///
/// A pragma suppresses findings of lint `<lint>` on its own line
/// (trailing-comment form) and, when it is the only thing on its line
/// (standalone form), on the next line as well. The reason is
/// mandatory and must be non-empty: a pragma is a reviewed exception,
/// and the reason is what gets reviewed. Malformed pragmas — wrong
/// grammar, unknown shape, or an empty reason — are themselves
/// findings (`pragma`), so a typo can never silently disable a lint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pragma {
    /// 1-based line the pragma comment starts on.
    pub line: u32,
    /// The lint id being allowed.
    pub lint: String,
    /// The documented reason (non-empty in a well-formed pragma).
    pub reason: String,
    /// `true` when the comment is the first thing on its line, making
    /// it apply to the following line.
    pub standalone: bool,
    /// `Some(message)` when the pragma failed to parse.
    pub malformed: Option<String>,
}

/// The lexed form of one source file.
#[derive(Clone, Debug, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub tokens: Vec<Token>,
    /// Pragmas in source order.
    pub pragmas: Vec<Pragma>,
}

/// Lexes one Rust source file. Invalid constructs (an unterminated
/// string, say) end the token stream early rather than erroring: the
/// analyzer runs over checked-in code that rustc already accepted, so
/// graceful degradation beats a second error channel.
pub fn lex(source: &str) -> Lexed {
    let bytes = source.as_bytes();
    let mut out = Lexed::default();
    let mut pos = 0usize;
    let mut line: u32 = 1;
    // Whether a token has already been emitted on the current line
    // (decides the standalone flag of a pragma comment).
    let mut token_on_line = false;

    while pos < bytes.len() {
        let b = bytes[pos];
        match b {
            b'\n' => {
                line += 1;
                token_on_line = false;
                pos += 1;
            }
            b' ' | b'\t' | b'\r' => pos += 1,
            b'/' if bytes.get(pos + 1) == Some(&b'/') => {
                let end = memchr_newline(bytes, pos);
                let text = &source[pos..end];
                if let Some(pragma) = parse_pragma(text, line, !token_on_line) {
                    out.pragmas.push(pragma);
                }
                pos = end;
            }
            b'/' if bytes.get(pos + 1) == Some(&b'*') => {
                pos = skip_block_comment(bytes, pos, &mut line);
            }
            b'"' => {
                out.tokens.push(Token { tok: Tok::Str, line });
                token_on_line = true;
                pos = skip_string(bytes, pos + 1, &mut line);
            }
            b'\'' => {
                let (tok, next) = char_or_lifetime(bytes, pos, &mut line);
                out.tokens.push(Token { tok, line });
                token_on_line = true;
                pos = next;
            }
            b'0'..=b'9' => {
                out.tokens.push(Token { tok: Tok::Num, line });
                token_on_line = true;
                pos = skip_number(bytes, pos);
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = pos;
                while pos < bytes.len() && is_ident_continue(bytes[pos]) {
                    pos += 1;
                }
                let word = &source[start..pos];
                // Raw / byte string or byte char prefixes.
                if matches!(word, "r" | "b" | "br" | "rb")
                    && matches!(bytes.get(pos), Some(b'"' | b'#'))
                {
                    if let Some(next) = skip_raw_string(bytes, pos, &mut line) {
                        out.tokens.push(Token { tok: Tok::Str, line });
                        token_on_line = true;
                        pos = next;
                        continue;
                    }
                }
                if word == "b" && bytes.get(pos) == Some(&b'\'') {
                    let (_, next) = char_or_lifetime(bytes, pos, &mut line);
                    out.tokens.push(Token { tok: Tok::Char, line });
                    token_on_line = true;
                    pos = next;
                    continue;
                }
                out.tokens.push(Token { tok: Tok::Ident(word.to_string()), line });
                token_on_line = true;
            }
            _ => {
                // Multi-byte UTF-8 leading bytes land here too; emit
                // them as opaque punctuation so positions stay aligned.
                let c = source[pos..].chars().next().unwrap_or('\u{fffd}');
                out.tokens.push(Token { tok: Tok::Punct(c), line });
                token_on_line = true;
                pos += c.len_utf8();
            }
        }
    }
    out
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn memchr_newline(bytes: &[u8], from: usize) -> usize {
    bytes[from..].iter().position(|&b| b == b'\n').map_or(bytes.len(), |i| from + i)
}

fn skip_block_comment(bytes: &[u8], mut pos: usize, line: &mut u32) -> usize {
    pos += 2;
    let mut depth = 1usize;
    while pos < bytes.len() && depth > 0 {
        match bytes[pos] {
            b'\n' => {
                *line += 1;
                pos += 1;
            }
            b'/' if bytes.get(pos + 1) == Some(&b'*') => {
                depth += 1;
                pos += 2;
            }
            b'*' if bytes.get(pos + 1) == Some(&b'/') => {
                depth -= 1;
                pos += 2;
            }
            _ => pos += 1,
        }
    }
    pos
}

fn skip_string(bytes: &[u8], mut pos: usize, line: &mut u32) -> usize {
    while pos < bytes.len() {
        match bytes[pos] {
            b'"' => return pos + 1,
            b'\\' => pos += 2,
            b'\n' => {
                *line += 1;
                pos += 1;
            }
            _ => pos += 1,
        }
    }
    pos
}

/// `pos` is at the first `#` or `"` after an `r`/`br` prefix. Returns
/// `None` when this is not actually a raw string (e.g. `r#foo` raw
/// identifiers).
fn skip_raw_string(bytes: &[u8], mut pos: usize, line: &mut u32) -> Option<usize> {
    let mut hashes = 0usize;
    while bytes.get(pos) == Some(&b'#') {
        hashes += 1;
        pos += 1;
    }
    if bytes.get(pos) != Some(&b'"') {
        return None;
    }
    pos += 1;
    while pos < bytes.len() {
        if bytes[pos] == b'\n' {
            *line += 1;
        }
        if bytes[pos] == b'"' {
            let after = pos + 1;
            if bytes[after..].iter().take(hashes).filter(|&&b| b == b'#').count() == hashes {
                return Some(after + hashes);
            }
        }
        pos += 1;
    }
    Some(pos)
}

fn skip_number(bytes: &[u8], mut pos: usize) -> usize {
    while pos < bytes.len() {
        match bytes[pos] {
            b'0'..=b'9' | b'a'..=b'z' | b'A'..=b'Z' | b'_' => pos += 1,
            // A dot continues the number only when followed by a digit
            // (so `0..n` and `1.max(2)` lex as separate tokens).
            b'.' if matches!(bytes.get(pos + 1), Some(b'0'..=b'9')) => pos += 1,
            _ => break,
        }
    }
    pos
}

/// `pos` is at a `'`. Distinguishes char literals from lifetimes.
fn char_or_lifetime(bytes: &[u8], pos: usize, line: &mut u32) -> (Tok, usize) {
    let mut p = pos + 1;
    match bytes.get(p) {
        Some(b'\\') => {
            // Escaped char literal: consume to the closing quote.
            p += 2;
            while p < bytes.len() && bytes[p] != b'\'' {
                if bytes[p] == b'\n' {
                    *line += 1;
                }
                p += 1;
            }
            (Tok::Char, (p + 1).min(bytes.len()))
        }
        Some(&c) if is_ident_continue(c) => {
            // `'a'` is a char; `'a` (no closing quote after one ident
            // char run) is a lifetime.
            let mut q = p;
            while q < bytes.len() && is_ident_continue(bytes[q]) {
                q += 1;
            }
            if bytes.get(q) == Some(&b'\'') && q == p + 1 {
                (Tok::Char, q + 1)
            } else if bytes.get(q) == Some(&b'\'') && q > p + 1 {
                // `'abc'` is not valid Rust; treat as char and move on.
                (Tok::Char, q + 1)
            } else {
                (Tok::Lifetime, q)
            }
        }
        Some(&c) => {
            // `'('` or `'é'` style single-char literal: step over the
            // whole character, so the scan stays on a char boundary.
            let end = p + utf8_len(c);
            let close = if bytes.get(end) == Some(&b'\'') { end + 1 } else { end };
            (Tok::Char, close)
        }
        None => (Tok::Char, p),
    }
}

/// The length of the UTF-8 character whose first byte is `lead`.
fn utf8_len(lead: u8) -> usize {
    match lead {
        0xF0..=0xFF => 4,
        0xE0..=0xEF => 3,
        0xC0..=0xDF => 2,
        _ => 1,
    }
}

/// Parses a line comment into a pragma, if it mentions `analyze:` at
/// all. Comments that never say `analyze:` return `None`; comments
/// that do but fail the grammar return a malformed pragma (which the
/// driver turns into a `pragma` finding).
fn parse_pragma(comment: &str, line: u32, standalone: bool) -> Option<Pragma> {
    let body = comment.trim_start_matches('/').trim();
    let rest = body.strip_prefix("analyze:")?.trim();
    let malformed = |msg: &str| {
        Some(Pragma {
            line,
            lint: String::new(),
            reason: String::new(),
            standalone,
            malformed: Some(msg.to_string()),
        })
    };
    let Some(args) = rest.strip_prefix("allow(").and_then(|r| r.strip_suffix(')')) else {
        return malformed("expected `analyze: allow(<lint>, reason = \"...\")`");
    };
    let Some((lint, reason_part)) = args.split_once(',') else {
        return malformed("missing `, reason = \"...\"`");
    };
    let lint = lint.trim();
    if lint.is_empty() || !lint.chars().all(|c| c.is_ascii_alphanumeric() || c == '-') {
        return malformed("lint id must be a kebab-case name");
    }
    let Some(reason) = reason_part
        .trim()
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('='))
        .map(str::trim)
        .and_then(|r| r.strip_prefix('"'))
        .and_then(|r| r.strip_suffix('"'))
    else {
        return malformed("expected `reason = \"...\"`");
    };
    if reason.trim().is_empty() {
        return malformed("reason must be non-empty");
    }
    Some(Pragma {
        line,
        lint: lint.to_string(),
        reason: reason.to_string(),
        standalone,
        malformed: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn lexes_idents_paths_and_calls() {
        let lexed = lex("fn f() { self.map.lock().unwrap(); }");
        let words = ["fn", "f", "self", "map", "lock", "unwrap"];
        assert_eq!(idents("fn f() { self.map.lock().unwrap(); }"), words);
        assert_eq!(lexed.tokens[0].line, 1);
    }

    #[test]
    fn strings_chars_lifetimes_do_not_leak_tokens() {
        let src = r##"let s = "ha { } .lock()"; let r = r#"raw "x" ] "#; let c = '}'; let e = '\n';
fn g<'a>(x: &'a str) {}"##;
        let words = idents(src);
        assert!(!words.contains(&"lock".to_string()));
        assert!(words.contains(&"g".to_string()));
        // The lifetime 'a must not swallow `(x` as a char literal.
        assert!(words.contains(&"x".to_string()));
        // A non-ASCII char literal is one token, and what follows lexes.
        assert_eq!(idents("let c = 'é'; let d = '→'; after()"), ["let", "c", "let", "d", "after"]);
    }

    #[test]
    fn comments_are_skipped_and_lines_counted() {
        let src = "// top\n/* block\nstill block */ fn after() {}\n";
        let lexed = lex(src);
        assert_eq!(lexed.tokens[0].tok, Tok::Ident("fn".into()));
        assert_eq!(lexed.tokens[0].line, 3);
    }

    #[test]
    fn pragma_well_formed() {
        let src =
            "x();\n// analyze: allow(panic-unwrap, reason = \"bounded by construction\")\ny();";
        let lexed = lex(src);
        assert_eq!(lexed.pragmas.len(), 1);
        let p = &lexed.pragmas[0];
        assert_eq!(p.lint, "panic-unwrap");
        assert_eq!(p.reason, "bounded by construction");
        assert!(p.standalone);
        assert!(p.malformed.is_none());
        assert_eq!(p.line, 2);
    }

    #[test]
    fn pragma_trailing_is_not_standalone() {
        let src = "x(); // analyze: allow(lock-order, reason = \"test harness\")";
        let lexed = lex(src);
        assert!(!lexed.pragmas[0].standalone);
    }

    #[test]
    fn pragma_malformed_variants() {
        for bad in [
            "// analyze: allow(panic-unwrap)",
            "// analyze: allow(panic-unwrap, reason = \"\")",
            "// analyze: allow(panic-unwrap, reason = \"  \")",
            "// analyze: deny(panic-unwrap, reason = \"x\")",
            "// analyze: allow(bad name!, reason = \"x\")",
        ] {
            let lexed = lex(bad);
            assert_eq!(lexed.pragmas.len(), 1, "{bad}");
            assert!(lexed.pragmas[0].malformed.is_some(), "{bad}");
        }
        // A comment that never says `analyze:` is not a pragma at all.
        assert!(lex("// allow(whatever)").pragmas.is_empty());
    }

    #[test]
    fn numbers_and_ranges() {
        let words = idents("for i in 0..n { a[i] = 1.5e3; h % 2u64 }");
        assert_eq!(words, ["for", "i", "in", "n", "a", "i", "h"]);
    }
}
