use qarith_query::CompareOp;

use crate::ast::{ColumnRef, SelectStatement, SqlExpr, SqlPredicate, TableRef};
use crate::error::SqlError;
use crate::lexer::{lex, Keyword, Spanned, Token};

/// The most levels a `WHERE` predicate may nest: each parenthesis,
/// `NOT`, unary minus and binary operator is one level above its
/// operands, and a chain such as `a + b + c` or `p AND q AND r` nests
/// one level per operator (it parses left-deep). Parsing, lowering,
/// fingerprinting and dropping a statement each recurse once per level,
/// so this bound, not the text's length, fixes how much stack a request
/// takes; a statement past it is a [`SqlError::Parse`], found before the
/// parser recurses past the bound.
pub const MAX_DEPTH: usize = 64;

/// What a statement past [`MAX_DEPTH`] gets as its parse error.
const TOO_DEEP: &str = "a predicate nested at most 64 levels deep";

/// Parses one `SELECT` statement.
pub fn parse_select(input: &str) -> Result<SelectStatement, SqlError> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0, depth: 0 };
    let stmt = p.select()?;
    p.expect_eof()?;
    Ok(stmt)
}

/// A parsed predicate or expression and its height in levels (see
/// [`MAX_DEPTH`]); a column or literal has height 0.
type Parsed<T> = Result<(T, usize), SqlError>;

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    /// Parentheses, `NOT`s and unary minuses around the current token:
    /// levels the statement has already nested, so its height is at
    /// least this.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn position(&self) -> usize {
        self.tokens.get(self.pos).or_else(|| self.tokens.last()).map_or(0, |s| s.position)
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|s| s.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, expected: &'static str) -> SqlError {
        SqlError::Parse {
            position: self.position(),
            expected,
            found: self.peek().map_or("end of input".to_string(), ToString::to_string),
        }
    }

    fn expect_keyword(&mut self, k: Keyword, what: &'static str) -> Result<(), SqlError> {
        match self.peek() {
            Some(Token::Keyword(found)) if *found == k => {
                self.advance();
                Ok(())
            }
            _ => Err(self.err(what)),
        }
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_eof(&self) -> Result<(), SqlError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(self.err("end of statement"))
        }
    }

    /// The height of a node one level above operands at most `height`
    /// high, or the depth error past [`MAX_DEPTH`].
    fn level(&self, height: usize) -> Result<usize, SqlError> {
        if height < MAX_DEPTH {
            Ok(height + 1)
        } else {
            Err(self.err(TOO_DEEP))
        }
    }

    /// Parses with `inner` one nesting level deeper (inside a
    /// parenthesis, `NOT` or unary minus), failing instead of recursing
    /// past [`MAX_DEPTH`].
    fn nested<T>(&mut self, inner: impl FnOnce(&mut Parser) -> Parsed<T>) -> Parsed<T> {
        self.depth = self.level(self.depth)?;
        let parsed = inner(self);
        self.depth -= 1;
        let (node, height) = parsed?;
        Ok((node, self.level(height)?))
    }

    fn ident(&mut self, what: &'static str) -> Result<String, SqlError> {
        match self.peek() {
            Some(Token::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.err(what)),
        }
    }

    fn select(&mut self) -> Result<SelectStatement, SqlError> {
        self.expect_keyword(Keyword::Select, "SELECT")?;
        let (star, columns) = if self.eat(&Token::Star) {
            (true, Vec::new())
        } else {
            let mut columns = vec![self.column_ref()?];
            while self.eat(&Token::Comma) {
                columns.push(self.column_ref()?);
            }
            (false, columns)
        };
        self.expect_keyword(Keyword::From, "FROM")?;
        let mut tables = vec![self.table_ref()?];
        while self.eat(&Token::Comma) {
            tables.push(self.table_ref()?);
        }
        let predicate = if matches!(self.peek(), Some(Token::Keyword(Keyword::Where))) {
            self.advance();
            Some(self.predicate()?.0)
        } else {
            None
        };
        let limit = if matches!(self.peek(), Some(Token::Keyword(Keyword::Limit))) {
            self.advance();
            match self.advance() {
                Some(Token::Number(n)) => {
                    Some(n.parse::<usize>().map_err(|_| self.err("an integer LIMIT"))?)
                }
                _ => return Err(self.err("an integer LIMIT")),
            }
        } else {
            None
        };
        Ok(SelectStatement { star, columns, tables, predicate, limit })
    }

    fn column_ref(&mut self) -> Result<ColumnRef, SqlError> {
        let first = self.ident("a column reference")?;
        if self.eat(&Token::Dot) {
            let column = self.ident("a column name after '.'")?;
            Ok(ColumnRef { table: Some(first), column })
        } else {
            Ok(ColumnRef { table: None, column: first })
        }
    }

    fn table_ref(&mut self) -> Result<TableRef, SqlError> {
        let table = self.ident("a table name")?;
        // Optional `AS` keyword, optional alias.
        if matches!(self.peek(), Some(Token::Keyword(Keyword::As))) {
            self.advance();
            let alias = self.ident("an alias after AS")?;
            return Ok(TableRef { table, alias });
        }
        if let Some(Token::Ident(_)) = self.peek() {
            let alias = self.ident("an alias")?;
            return Ok(TableRef { table, alias });
        }
        Ok(TableRef { alias: table.clone(), table })
    }

    // predicate := conjunct (OR conjunct)*
    fn predicate(&mut self) -> Parsed<SqlPredicate> {
        let (mut lhs, mut height) = self.conjunct()?;
        while matches!(self.peek(), Some(Token::Keyword(Keyword::Or))) {
            self.advance();
            let (rhs, h) = self.conjunct()?;
            height = self.level(height.max(h))?;
            lhs = SqlPredicate::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, height))
    }

    // conjunct := factor (AND factor)*
    fn conjunct(&mut self) -> Parsed<SqlPredicate> {
        let (mut lhs, mut height) = self.factor()?;
        while matches!(self.peek(), Some(Token::Keyword(Keyword::And))) {
            self.advance();
            let (rhs, h) = self.factor()?;
            height = self.level(height.max(h))?;
            lhs = SqlPredicate::And(Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, height))
    }

    // factor := NOT factor | comparison
    // A parenthesis here is ambiguous: it may open a nested predicate or
    // an arithmetic expression. We try the predicate reading first and
    // backtrack (the token stream is already materialized, so this is
    // cheap).
    fn factor(&mut self) -> Parsed<SqlPredicate> {
        if matches!(self.peek(), Some(Token::Keyword(Keyword::Not))) {
            self.advance();
            let (inner, height) = self.nested(Parser::factor)?;
            return Ok((SqlPredicate::Not(Box::new(inner)), height));
        }
        if self.peek() == Some(&Token::LParen) {
            let mark = self.pos;
            self.advance();
            match self.nested(Parser::predicate) {
                // Nested predicate … unless a comparison operator follows,
                // in which case the parens wrapped an arithmetic
                // expression like `(a + b) < c`.
                Ok(inner) if self.eat(&Token::RParen) && self.compare_op().is_none() => {
                    return Ok(inner)
                }
                // The expression reading nests the same parentheses and
                // chains, so it could only fail too.
                Err(e @ SqlError::Parse { expected: TOO_DEEP, .. }) => return Err(e),
                _ => {}
            }
            self.pos = mark; // backtrack: parse as comparison
        }
        self.comparison()
    }

    fn compare_op(&self) -> Option<CompareOp> {
        Some(match self.peek()? {
            Token::Eq => CompareOp::Eq,
            Token::Ne => CompareOp::Ne,
            Token::Lt => CompareOp::Lt,
            Token::Le => CompareOp::Le,
            Token::Gt => CompareOp::Gt,
            Token::Ge => CompareOp::Ge,
            _ => return None,
        })
    }

    fn comparison(&mut self) -> Parsed<SqlPredicate> {
        let (lhs, lhs_height) = self.expr()?;
        let Some(op) = self.compare_op() else {
            return Err(self.err("a comparison operator"));
        };
        self.advance();
        let (rhs, rhs_height) = self.expr()?;
        Ok((SqlPredicate::Compare(lhs, op, rhs), lhs_height.max(rhs_height)))
    }

    // expr := term ((+|-) term)*
    fn expr(&mut self) -> Parsed<SqlExpr> {
        let (mut lhs, mut height) = self.term()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => SqlExpr::Add,
                Some(Token::Minus) => SqlExpr::Sub,
                _ => return Ok((lhs, height)),
            };
            self.advance();
            let (rhs, h) = self.term()?;
            height = self.level(height.max(h))?;
            lhs = op(Box::new(lhs), Box::new(rhs));
        }
    }

    // term := unary ((*|/) unary)*
    fn term(&mut self) -> Parsed<SqlExpr> {
        let (mut lhs, mut height) = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => SqlExpr::Mul,
                Some(Token::Slash) => SqlExpr::Div,
                _ => return Ok((lhs, height)),
            };
            self.advance();
            let (rhs, h) = self.unary()?;
            height = self.level(height.max(h))?;
            lhs = op(Box::new(lhs), Box::new(rhs));
        }
    }

    // unary := - unary | atom
    fn unary(&mut self) -> Parsed<SqlExpr> {
        if self.eat(&Token::Minus) {
            let (inner, height) = self.nested(Parser::unary)?;
            return Ok((SqlExpr::Neg(Box::new(inner)), height));
        }
        self.atom()
    }

    // atom := number | string | column | ( expr )
    fn atom(&mut self) -> Parsed<SqlExpr> {
        let leaf = match self.peek() {
            Some(Token::Number(n)) => {
                let n = n.clone();
                self.pos += 1;
                SqlExpr::Number(n)
            }
            Some(Token::Str(s)) => {
                let s = s.clone();
                self.pos += 1;
                SqlExpr::Str(s)
            }
            Some(Token::Ident(_)) => SqlExpr::Column(self.column_ref()?),
            Some(Token::LParen) => {
                self.advance();
                let inner = self.nested(Parser::expr)?;
                if !self.eat(&Token::RParen) {
                    return Err(self.err("a closing ')'"));
                }
                return Ok(inner);
            }
            _ => return Err(self.err("an expression")),
        };
        Ok((leaf, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_query_competitive_advantage() {
        let stmt = parse_select(
            "SELECT P.seg FROM Products P, Market M \
             WHERE P.seg = M.seg AND P.rrp * P.dis <= M.rrp * M.dis LIMIT 25",
        )
        .unwrap();
        assert_eq!(stmt.columns.len(), 1);
        assert_eq!(stmt.columns[0].to_string(), "P.seg");
        assert_eq!(stmt.tables.len(), 2);
        assert_eq!(stmt.tables[0], TableRef { table: "Products".into(), alias: "P".into() });
        assert_eq!(stmt.limit, Some(25));
        match stmt.predicate.unwrap() {
            SqlPredicate::And(l, r) => {
                assert!(matches!(*l, SqlPredicate::Compare(_, CompareOp::Eq, _)));
                assert!(matches!(*r, SqlPredicate::Compare(_, CompareOp::Le, _)));
            }
            other => panic!("expected AND, got {other:?}"),
        }
    }

    #[test]
    fn string_literals_round_trip() {
        for (written, value) in [("'café'", "café"), ("'it''s'", "it's")] {
            let stmt = parse_select(&format!("SELECT M.rrp FROM Market M WHERE M.seg = {written}"))
                .unwrap();
            match stmt.predicate.unwrap() {
                SqlPredicate::Compare(_, CompareOp::Eq, SqlExpr::Str(s)) => assert_eq!(s, value),
                other => panic!("expected a string comparison, got {other:?}"),
            }
        }
    }

    #[test]
    fn division_and_parens() {
        let stmt = parse_select(
            "SELECT P.id FROM Products P \
             WHERE P.rrp * P.dis * (O.q / O.dis) <= 0.5 * M.rrp",
        )
        .unwrap();
        match stmt.predicate.unwrap() {
            SqlPredicate::Compare(lhs, CompareOp::Le, _) => {
                // ((P.rrp * P.dis) * (O.q / O.dis))
                match lhs {
                    SqlExpr::Mul(_, rhs) => {
                        assert!(matches!(*rhs, SqlExpr::Div(_, _)));
                    }
                    other => panic!("expected Mul, got {other:?}"),
                }
            }
            other => panic!("expected comparison, got {other:?}"),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        let stmt = parse_select("SELECT x FROM T WHERE a + b * c < 10").unwrap();
        match stmt.predicate.unwrap() {
            SqlPredicate::Compare(SqlExpr::Add(_, rhs), _, _) => {
                assert!(matches!(*rhs, SqlExpr::Mul(_, _)));
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn boolean_structure_or_and_not() {
        let stmt = parse_select("SELECT x FROM T WHERE NOT a = 1 AND b = 2 OR c = 3").unwrap();
        // Parsed as ((NOT a=1) AND b=2) OR c=3.
        match stmt.predicate.unwrap() {
            SqlPredicate::Or(l, _) => match *l {
                SqlPredicate::And(l2, _) => assert!(matches!(*l2, SqlPredicate::Not(_))),
                other => panic!("expected AND, got {other:?}"),
            },
            other => panic!("expected OR, got {other:?}"),
        }
    }

    #[test]
    fn parenthesized_predicate_vs_expression() {
        // Parens around a predicate…
        let a = parse_select("SELECT x FROM T WHERE (a = 1 OR b = 2) AND c = 3").unwrap();
        assert!(matches!(a.predicate.unwrap(), SqlPredicate::And(_, _)));
        // …and parens around an arithmetic expression.
        let b = parse_select("SELECT x FROM T WHERE (a + b) < c").unwrap();
        assert!(matches!(
            b.predicate.unwrap(),
            SqlPredicate::Compare(SqlExpr::Add(_, _), CompareOp::Lt, _)
        ));
    }

    #[test]
    fn string_literals_and_negation() {
        let stmt = parse_select("SELECT x FROM T WHERE seg = 'toys' AND p < -5").unwrap();
        match stmt.predicate.unwrap() {
            SqlPredicate::And(l, r) => {
                assert!(matches!(*l, SqlPredicate::Compare(_, CompareOp::Eq, SqlExpr::Str(_))));
                assert!(matches!(*r, SqlPredicate::Compare(_, CompareOp::Lt, SqlExpr::Neg(_))));
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn errors_are_located() {
        assert!(matches!(
            parse_select("SELECT FROM T"),
            Err(SqlError::Parse { expected: "a column reference", .. })
        ));
        assert!(matches!(
            parse_select("SELECT x FROM T WHERE a <"),
            Err(SqlError::Parse { expected: "an expression", .. })
        ));
        assert!(matches!(
            parse_select("SELECT x FROM T LIMIT x"),
            Err(SqlError::Parse { expected: "an integer LIMIT", .. })
        ));
        assert!(parse_select("SELECT x FROM T extra garbage, here").is_err());
    }

    /// A predicate nested `n` levels deep by each construct the depth
    /// bound counts.
    fn nested(construct: &str, n: usize) -> String {
        let predicate = match construct {
            "(" => format!("{}a = 1{}", "(".repeat(n), ")".repeat(n)),
            "(expr)" => format!("a < {}b{}", "(".repeat(n), ")".repeat(n)),
            "NOT" => format!("{}a = 1", "NOT ".repeat(n)),
            "-" => format!("a < {}b", "- ".repeat(n)),
            "+" => format!("a{} < 1", " + b".repeat(n)),
            "*" => format!("a{} < 1", " * b".repeat(n)),
            "AND" => format!("a = 1{}", " AND a = 1".repeat(n)),
            "OR" => format!("a = 1{}", " OR a = 1".repeat(n)),
            other => panic!("no construct {other}"),
        };
        format!("SELECT x FROM T WHERE {predicate}")
    }

    fn too_deep(parsed: Result<SelectStatement, SqlError>) -> bool {
        matches!(parsed, Err(SqlError::Parse { expected: TOO_DEEP, .. }))
    }

    /// Every construct parses at `MAX_DEPTH` levels and is the depth
    /// error one level past it, and thousands of levels fail the same
    /// way without exhausting the test thread's stack.
    #[test]
    fn each_construct_nests_to_the_bound_and_no_further() {
        assert!(TOO_DEEP.contains(&format!(" {MAX_DEPTH} ")), "the message names the bound");
        for construct in ["(", "(expr)", "NOT", "-", "+", "*", "AND", "OR"] {
            let at_bound = parse_select(&nested(construct, MAX_DEPTH));
            assert!(at_bound.is_ok(), "{construct}: {at_bound:?}");
            for n in [MAX_DEPTH + 1, 3_000, 10_000] {
                assert!(too_deep(parse_select(&nested(construct, n))), "{construct} × {n}");
            }
        }
    }

    /// Levels add up across constructs: a chain over a nested first
    /// operand sits on top of that operand, so 32 parentheses and 32
    /// operators fit and a 33rd operator does not, however the chain
    /// tree leans.
    #[test]
    fn levels_add_up_across_constructs() {
        let sql = |parens: usize, ops: usize| {
            let first = format!("{}a{}", "(".repeat(parens), ")".repeat(parens));
            format!("SELECT x FROM T WHERE {first}{} < 1", " + b".repeat(ops))
        };
        assert!(parse_select(&sql(32, 32)).is_ok());
        assert!(too_deep(parse_select(&sql(32, 33))));
        assert!(too_deep(parse_select(&sql(33, 32))));
        let mixed = |n: usize| format!("SELECT x FROM T WHERE {}a < b", "NOT (".repeat(n));
        assert!(too_deep(parse_select(&(mixed(33) + &")".repeat(33)))));
        assert!(parse_select(&(mixed(32) + &")".repeat(32))).is_ok());
    }

    #[test]
    fn as_keyword_alias() {
        let stmt = parse_select("SELECT x FROM Products AS P").unwrap();
        assert_eq!(stmt.tables[0].alias, "P");
    }
}
