//! Shared token-stream scanning utilities for the lint passes.

use crate::lexer::{Tok, Token};

/// Returns the token stream with test-only code removed: bodies of
/// `#[cfg(test)]` items (modules, usually) and `#[test]` functions.
/// The lints police shipped behavior; tests are free to `unwrap()` and
/// iterate however they like.
pub fn strip_tests(tokens: &[Token]) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].tok == Tok::Punct('#')
            && matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('[')))
        {
            let Some(close) = matching(tokens, i + 1, '[', ']') else {
                out.extend_from_slice(&tokens[i..]);
                break;
            };
            let attr_idents: Vec<&str> = tokens[i + 2..close]
                .iter()
                .filter_map(|t| match &t.tok {
                    Tok::Ident(s) => Some(s.as_str()),
                    _ => None,
                })
                .collect();
            let is_test_attr = attr_idents == ["test"] || attr_idents == ["cfg", "test"];
            if is_test_attr {
                // Skip this attribute, any further attributes, and the
                // item they decorate (to its `;` or balanced `{ }`).
                i = skip_item(tokens, close + 1);
                continue;
            }
            // A non-test attribute: copy it through verbatim.
            out.extend_from_slice(&tokens[i..=close]);
            i = close + 1;
            continue;
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

/// The names of the out-of-line modules a token stream declares
/// (`mod name;`, whatever its attributes and visibility), in order.
/// Inline modules (`mod name { … }`) declare no other file and are not
/// listed. Run on [`strip_tests`] output, it lists the declarations a
/// non-test build compiles.
pub fn module_declarations(tokens: &[Token]) -> Vec<String> {
    tokens
        .windows(3)
        .filter_map(|w| match (&w[0].tok, &w[1].tok, &w[2].tok) {
            (Tok::Ident(kw), Tok::Ident(name), Tok::Punct(';')) if kw == "mod" => {
                Some(name.clone())
            }
            _ => None,
        })
        .collect()
}

/// Skips further attributes and then one item starting at `i`,
/// returning the index just past it.
fn skip_item(tokens: &[Token], mut i: usize) -> usize {
    // Further attributes on the same item.
    while i < tokens.len()
        && tokens[i].tok == Tok::Punct('#')
        && matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('[')))
    {
        match matching(tokens, i + 1, '[', ']') {
            Some(c) => i = c + 1,
            None => return tokens.len(),
        }
    }
    // The item ends at the first `;` or the close of the first `{ }`
    // at nesting depth zero relative to here.
    let mut depth = 0i64;
    while i < tokens.len() {
        match tokens[i].tok {
            Tok::Punct(';') if depth == 0 => return i + 1,
            Tok::Punct('{') => {
                let close = matching(tokens, i, '{', '}').unwrap_or(tokens.len() - 1);
                return close + 1;
            }
            Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Index of the delimiter matching `open` at `tokens[at]`.
pub fn matching(tokens: &[Token], at: usize, open: char, close: char) -> Option<usize> {
    debug_assert_eq!(tokens[at].tok, Tok::Punct(open));
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(at) {
        match t.tok {
            Tok::Punct(c) if c == open => depth += 1,
            Tok::Punct(c) if c == close => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// A function item located in a token stream: its name and the token
/// range of its body (inside the braces, exclusive of them).
#[derive(Clone, Debug)]
pub struct FnBody {
    /// The function's name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Start token index of the body (just past `{`).
    pub start: usize,
    /// End token index of the body (the `}` itself).
    pub end: usize,
}

/// Finds every `fn` item (including nested ones) and its body range.
/// Signature scanning tracks angle brackets so `-> Result<X, Y>` never
/// confuses the search for the body's opening brace.
pub fn functions(tokens: &[Token]) -> Vec<FnBody> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if let Tok::Ident(kw) = &tokens[i].tok {
            if kw == "fn" {
                if let Some(Tok::Ident(name)) = tokens.get(i + 1).map(|t| &t.tok) {
                    if let Some(open) = body_open(tokens, i + 2) {
                        if let Some(close) = matching(tokens, open, '{', '}') {
                            out.push(FnBody {
                                name: name.clone(),
                                line: tokens[i].line,
                                start: open + 1,
                                end: close,
                            });
                        }
                    }
                }
            }
        }
        i += 1;
    }
    out
}

/// Scans a signature from just past the function name to the opening
/// `{` of its body, or `None` for a bodyless declaration (trait
/// methods end at `;`).
fn body_open(tokens: &[Token], mut i: usize) -> Option<usize> {
    let mut angle = 0i64;
    let mut paren = 0i64;
    while i < tokens.len() {
        match tokens[i].tok {
            Tok::Punct('<') => angle += 1,
            // `->` must not count its `>` as closing an angle bracket.
            Tok::Punct('>') if i > 0 && tokens[i - 1].tok == Tok::Punct('-') => {}
            Tok::Punct('>') => angle -= 1,
            Tok::Punct('(') | Tok::Punct('[') => paren += 1,
            Tok::Punct(')') | Tok::Punct(']') => paren -= 1,
            Tok::Punct('{') if angle <= 0 && paren == 0 => return Some(i),
            Tok::Punct(';') if angle <= 0 && paren == 0 => return None,
            _ => {}
        }
        i += 1;
    }
    None
}

/// Reconstructs the receiver chain of a method call whose method-name
/// ident sits at `tokens[at]`: the dotted identifiers to its left,
/// skipping over call-argument parentheses, index brackets, and `?`.
/// For `self.shard_of(key).lock()` with `at` on `lock`, the chain is
/// `["self", "shard_of", "lock"]`.
pub fn receiver_chain(tokens: &[Token], at: usize) -> Vec<String> {
    let mut chain = vec![match &tokens[at].tok {
        Tok::Ident(s) => s.clone(),
        _ => return Vec::new(),
    }];
    let mut i = at;
    loop {
        // Expect a `.` immediately left of the current chain element.
        if i == 0 || tokens[i - 1].tok != Tok::Punct('.') {
            break;
        }
        let mut j = i - 2; // candidate position left of the dot
        loop {
            match tokens.get(j).map(|t| &t.tok) {
                Some(Tok::Punct(')')) => match matching_back(tokens, j, '(', ')') {
                    Some(open) if open > 0 => j = open - 1,
                    _ => return chain_reversed(chain),
                },
                Some(Tok::Punct(']')) => match matching_back(tokens, j, '[', ']') {
                    Some(open) if open > 0 => j = open - 1,
                    _ => return chain_reversed(chain),
                },
                Some(Tok::Punct('?')) if j > 0 => j -= 1,
                Some(Tok::Ident(s)) => {
                    chain.push(s.clone());
                    i = j;
                    break;
                }
                _ => return chain_reversed(chain),
            }
        }
        if i == 0 {
            break;
        }
    }
    chain_reversed(chain)
}

fn chain_reversed(mut chain: Vec<String>) -> Vec<String> {
    chain.reverse();
    chain
}

/// Index of the `open` delimiter matching the `close` at `tokens[at]`,
/// scanning backwards.
fn matching_back(tokens: &[Token], at: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    for i in (0..=at).rev() {
        match tokens[i].tok {
            Tok::Punct(c) if c == close => depth += 1,
            Tok::Punct(c) if c == open => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Is the ident at `at` the method of a call, i.e. followed by `(`
/// (possibly via `::<…>` turbofish)?
pub fn is_call(tokens: &[Token], at: usize) -> bool {
    match tokens.get(at + 1).map(|t| &t.tok) {
        Some(Tok::Punct('(')) => true,
        Some(Tok::Punct(':'))
            if matches!(tokens.get(at + 2).map(|t| &t.tok), Some(Tok::Punct(':')))
                && matches!(tokens.get(at + 3).map(|t| &t.tok), Some(Tok::Punct('<'))) =>
        {
            // `collect::<Vec<_>>()` — find the matching `>` then `(`.
            let mut depth = 0i64;
            let mut i = at + 3;
            while i < tokens.len() {
                match tokens[i].tok {
                    Tok::Punct('<') => depth += 1,
                    Tok::Punct('>') => {
                        depth -= 1;
                        if depth == 0 {
                            return matches!(
                                tokens.get(i + 1).map(|t| &t.tok),
                                Some(Tok::Punct('('))
                            );
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            false
        }
        _ => false,
    }
}

/// Keywords that can directly precede `[` without forming an index
/// expression (`&mut [T]`, `let [a, b] = …`, `for x in [1, 2]`…).
pub fn is_keyword(word: &str) -> bool {
    matches!(
        word,
        "as" | "break"
            | "const"
            | "continue"
            | "crate"
            | "dyn"
            | "else"
            | "enum"
            | "extern"
            | "false"
            | "fn"
            | "for"
            | "if"
            | "impl"
            | "in"
            | "let"
            | "loop"
            | "match"
            | "mod"
            | "move"
            | "mut"
            | "pub"
            | "ref"
            | "return"
            | "static"
            | "struct"
            | "trait"
            | "true"
            | "type"
            | "unsafe"
            | "use"
            | "where"
            | "while"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn words(tokens: &[Token]) -> Vec<&str> {
        tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Ident(s) => Some(s.as_str()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strips_cfg_test_modules_and_test_fns() {
        let src = "fn keep() {}\n#[cfg(test)]\nmod tests { fn gone() { x.unwrap(); } }\n\
                   #[test]\nfn also_gone() { y.unwrap(); }\nfn keep2() {}";
        let stripped = strip_tests(&lex(src).tokens);
        let w = words(&stripped);
        assert!(w.contains(&"keep") && w.contains(&"keep2"));
        assert!(!w.contains(&"gone") && !w.contains(&"also_gone") && !w.contains(&"unwrap"));
    }

    #[test]
    fn module_declarations_list_out_of_line_modules_only() {
        let src = "mod a;\npub(crate) mod b;\n#[cfg(test)]\nmod c;\nmod inline { fn f() {} }";
        let tokens = lex(src).tokens;
        assert_eq!(module_declarations(&tokens), ["a", "b", "c"]);
        assert_eq!(module_declarations(&strip_tests(&tokens)), ["a", "b"]);
    }

    #[test]
    fn cfg_not_test_is_kept() {
        let src = "#[cfg(not(test))]\nfn kept() {}";
        let stripped = strip_tests(&lex(src).tokens);
        assert!(words(&stripped).contains(&"kept"));
    }

    #[test]
    fn derive_attributes_pass_through() {
        let src = "#[derive(Clone, Debug)]\nstruct S { x: u32 }";
        let stripped = strip_tests(&lex(src).tokens);
        assert!(words(&stripped).contains(&"derive"));
        assert!(words(&stripped).contains(&"S"));
    }

    #[test]
    fn finds_functions_with_generic_signatures() {
        let src = "impl S { fn plain(&self) -> Result<Vec<u8>, Error<'static>> { body() } }\n\
                   fn free<T: Into<String>>(x: T) where T: Clone { other() }\n\
                   trait T { fn decl(&self); }";
        let tokens = lex(src).tokens;
        let fns = functions(&tokens);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["plain", "free"], "bodyless decl excluded");
        let body = &tokens[fns[0].start..fns[0].end];
        assert_eq!(words(body), ["body"]);
    }

    #[test]
    fn receiver_chains_skip_call_args_and_try() {
        let src = "let g = self.shard_of(group_key).lock(); map.read()?.get(k); x[0].lock();";
        let tokens = lex(src).tokens;
        let chain_at = |name: &str| {
            let at = tokens
                .iter()
                .position(|t| t.tok == Tok::Ident(name.into()))
                .expect("method present");
            receiver_chain(&tokens, at)
        };
        assert_eq!(chain_at("lock"), ["self", "shard_of", "lock"]);
        assert_eq!(chain_at("get"), ["map", "read", "get"]);
        let last_lock = tokens
            .iter()
            .enumerate()
            .rev()
            .find(|(_, t)| t.tok == Tok::Ident("lock".into()))
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(receiver_chain(&tokens, last_lock), ["x", "lock"]);
    }

    #[test]
    fn call_detection_handles_turbofish() {
        let tokens = lex("v.collect::<Vec<_>>(); just.field").tokens;
        let collect = tokens.iter().position(|t| t.tok == Tok::Ident("collect".into())).unwrap();
        assert!(is_call(&tokens, collect));
        let field = tokens.iter().position(|t| t.tok == Tok::Ident("field".into())).unwrap();
        assert!(!is_call(&tokens, field));
    }
}
