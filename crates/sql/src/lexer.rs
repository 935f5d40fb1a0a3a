use std::fmt;

use crate::error::SqlError;

/// SQL tokens.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword (uppercased).
    Keyword(Keyword),
    /// Identifier (original case preserved).
    Ident(String),
    /// Numeric literal (unparsed text; exact parsing happens at lowering).
    Number(String),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    Str(String),
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `.`
    Dot,
    /// `*` (multiplication or SELECT star)
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Recognized keywords.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keyword {
    Select,
    From,
    Where,
    And,
    Or,
    Not,
    Limit,
    As,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Keyword(k) => write!(f, "{k:?}"),
            Token::Ident(s) => write!(f, "identifier {s}"),
            Token::Number(s) => write!(f, "number {s}"),
            Token::Str(s) => write!(f, "string '{s}'"),
            other => write!(f, "{other:?}"),
        }
    }
}

/// A token plus its source offset (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    pub token: Token,
    pub position: usize,
}

/// Tokenizes SQL text.
///
/// Every token but a quoted literal is ASCII, so the scan steps over
/// bytes and reads them through `get`; a literal is sliced whole
/// between its quotes, so non-ASCII text inside it stays intact.
pub fn lex(input: &str) -> Result<Vec<Spanned>, SqlError> {
    let bytes = input.as_bytes();
    let at = |j: usize| bytes.get(j).copied();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(b) = at(i) {
        let (token, next) = match b {
            b if char::from(b).is_whitespace() => {
                i += 1;
                continue;
            }
            // SQL comments: `-- …` up to the end of the line.
            b'-' if at(i + 1) == Some(b'-') => {
                i += input.get(i..).and_then(|rest| rest.find('\n')).unwrap_or(bytes.len() - i);
                continue;
            }
            b',' => (Token::Comma, i + 1),
            b'(' => (Token::LParen, i + 1),
            b')' => (Token::RParen, i + 1),
            // A dot starting a number (.5) vs a qualifier dot.
            b'.' if at(i + 1).is_some_and(|c| c.is_ascii_digit()) => lex_number(input, i),
            b'.' => (Token::Dot, i + 1),
            b'*' => (Token::Star, i + 1),
            b'+' => (Token::Plus, i + 1),
            b'-' => (Token::Minus, i + 1),
            b'/' => (Token::Slash, i + 1),
            b'=' => (Token::Eq, i + 1),
            b'!' if at(i + 1) == Some(b'=') => (Token::Ne, i + 2),
            b'<' => match at(i + 1) {
                Some(b'=') => (Token::Le, i + 2),
                Some(b'>') => (Token::Ne, i + 2),
                _ => (Token::Lt, i + 1),
            },
            b'>' if at(i + 1) == Some(b'=') => (Token::Ge, i + 2),
            b'>' => (Token::Gt, i + 1),
            b'\'' => lex_string(input, i)?,
            b if b.is_ascii_digit() => lex_number(input, i),
            b if b.is_ascii_alphabetic() || b == b'_' => lex_word(input, i),
            _ => {
                // `i` is on a character boundary: every token before it
                // ended on an ASCII byte or a closing quote.
                let found = input.get(i..).and_then(|rest| rest.chars().next());
                return Err(SqlError::Lex {
                    position: i,
                    found: found.unwrap_or(char::REPLACEMENT_CHARACTER),
                });
            }
        };
        out.push(Spanned { token, position: i });
        i = next;
    }
    Ok(out)
}

/// The single-quoted literal whose opening quote is at `start`: the
/// text between the quotes with each `''` unescaped to `'`, and the
/// offset just past the closing quote.
fn lex_string(input: &str, start: usize) -> Result<(Token, usize), SqlError> {
    let mut text = String::new();
    let mut from = start + 1;
    loop {
        let rest = input.get(from..).unwrap_or_default();
        let Some((piece, after)) = rest.split_once('\'') else {
            return Err(SqlError::Lex { position: start, found: '\'' });
        };
        text.push_str(piece);
        let quote = from + piece.len();
        if !after.starts_with('\'') {
            return Ok((Token::Str(text), quote + 1));
        }
        text.push('\'');
        from = quote + 2;
    }
}

fn lex_number(input: &str, start: usize) -> (Token, usize) {
    let bytes = input.as_bytes();
    let digit = |j: usize| bytes.get(j).is_some_and(u8::is_ascii_digit);
    let mut j = start;
    let mut seen_dot = false;
    loop {
        if digit(j) {
            j += 1;
        } else if !seen_dot && bytes.get(j) == Some(&b'.') && digit(j + 1) {
            // Only treat the dot as part of the number if a digit follows
            // (so `25.foo` lexes as 25, '.', foo).
            seen_dot = true;
            j += 1;
        } else {
            break;
        }
    }
    (Token::Number(input.get(start..j).unwrap_or_default().to_string()), j)
}

/// A keyword or an identifier: ASCII letters, digits and `_`.
fn lex_word(input: &str, start: usize) -> (Token, usize) {
    let rest = input.get(start..).unwrap_or_default();
    let len = rest.bytes().take_while(|b| b.is_ascii_alphanumeric() || *b == b'_').count();
    let word = rest.get(..len).unwrap_or_default();
    let token = match word.to_ascii_uppercase().as_str() {
        "SELECT" => Token::Keyword(Keyword::Select),
        "FROM" => Token::Keyword(Keyword::From),
        "WHERE" => Token::Keyword(Keyword::Where),
        "AND" => Token::Keyword(Keyword::And),
        "OR" => Token::Keyword(Keyword::Or),
        "NOT" => Token::Keyword(Keyword::Not),
        "LIMIT" => Token::Keyword(Keyword::Limit),
        "AS" => Token::Keyword(Keyword::As),
        _ => Token::Ident(word.to_string()),
    };
    (token, start + len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<Token> {
        lex(s).unwrap().into_iter().map(|t| t.token).collect()
    }

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(
            toks("select FROM Where aNd"),
            vec![
                Token::Keyword(Keyword::Select),
                Token::Keyword(Keyword::From),
                Token::Keyword(Keyword::Where),
                Token::Keyword(Keyword::And),
            ]
        );
    }

    #[test]
    fn qualified_names_and_numbers() {
        assert_eq!(
            toks("P.rrp * 0.5 <= 25"),
            vec![
                Token::Ident("P".into()),
                Token::Dot,
                Token::Ident("rrp".into()),
                Token::Star,
                Token::Number("0.5".into()),
                Token::Le,
                Token::Number("25".into()),
            ]
        );
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            toks("= <> != < <= > >="),
            vec![Token::Eq, Token::Ne, Token::Ne, Token::Lt, Token::Le, Token::Gt, Token::Ge]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(toks("'abc'"), vec![Token::Str("abc".into())]);
        assert_eq!(toks("'it''s'"), vec![Token::Str("it's".into())]);
        assert_eq!(toks("''''"), vec![Token::Str("'".into())]);
        assert_eq!(toks("''"), vec![Token::Str(String::new())]);
        assert!(lex("'unterminated").is_err());
        assert_eq!(toks("'ends in a quote'''"), vec![Token::Str("ends in a quote'".into())]);
        assert!(lex("'ends in an escape''").is_err());
    }

    #[test]
    fn non_ascii_literals_stay_whole() {
        assert_eq!(toks("'café'"), vec![Token::Str("café".into())]);
        assert_eq!(
            toks("'l''été' = x"),
            vec![Token::Str("l'été".into()), Token::Eq, Token::Ident("x".into())]
        );
        let positions: Vec<usize> = lex("'日本' , y").unwrap().iter().map(|t| t.position).collect();
        assert_eq!(positions, [0, 9, 11], "positions are byte offsets");
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("SELECT -- comment here\n x"),
            vec![Token::Keyword(Keyword::Select), Token::Ident("x".into())]
        );
    }

    #[test]
    fn leading_dot_number() {
        assert_eq!(toks(".5"), vec![Token::Number(".5".into())]);
    }

    #[test]
    fn bad_character() {
        assert!(matches!(lex("a # b"), Err(SqlError::Lex { found: '#', .. })));
        assert_eq!(lex("a ! b"), Err(SqlError::Lex { position: 2, found: '!' }));
        // The character as written, not its first byte read as Latin-1.
        assert_eq!(lex("café"), Err(SqlError::Lex { position: 3, found: 'é' }));
        assert_eq!(lex("x = 1 → 2"), Err(SqlError::Lex { position: 6, found: '→' }));
    }
}
