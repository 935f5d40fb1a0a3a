use qarith_query::CompareOp;

use crate::ast::{ColumnRef, SelectStatement, SqlExpr, SqlPredicate, TableRef};
use crate::error::SqlError;
use crate::lexer::{lex, Keyword, Spanned, Token};

/// Parses one `SELECT` statement.
pub fn parse_select(input: &str) -> Result<SelectStatement, SqlError> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.select()?;
    p.expect_eof()?;
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
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
            Some(self.predicate()?)
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
    fn predicate(&mut self) -> Result<SqlPredicate, SqlError> {
        let mut lhs = self.conjunct()?;
        while matches!(self.peek(), Some(Token::Keyword(Keyword::Or))) {
            self.advance();
            let rhs = self.conjunct()?;
            lhs = SqlPredicate::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    // conjunct := factor (AND factor)*
    fn conjunct(&mut self) -> Result<SqlPredicate, SqlError> {
        let mut lhs = self.factor()?;
        while matches!(self.peek(), Some(Token::Keyword(Keyword::And))) {
            self.advance();
            let rhs = self.factor()?;
            lhs = SqlPredicate::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    // factor := NOT factor | comparison
    // A parenthesis here is ambiguous: it may open a nested predicate or
    // an arithmetic expression. We try the predicate reading first and
    // backtrack (the token stream is already materialized, so this is
    // cheap).
    fn factor(&mut self) -> Result<SqlPredicate, SqlError> {
        if matches!(self.peek(), Some(Token::Keyword(Keyword::Not))) {
            self.advance();
            return Ok(SqlPredicate::Not(Box::new(self.factor()?)));
        }
        if self.peek() == Some(&Token::LParen) {
            let mark = self.pos;
            self.advance();
            if let Ok(inner) = self.predicate() {
                if self.eat(&Token::RParen) {
                    // Nested predicate … unless a comparison operator
                    // follows, in which case the parens wrapped an
                    // arithmetic expression like `(a + b) < c`.
                    if !matches!(
                        self.peek(),
                        Some(Token::Eq | Token::Ne | Token::Lt | Token::Le | Token::Gt | Token::Ge)
                    ) {
                        return Ok(inner);
                    }
                }
            }
            self.pos = mark; // backtrack: parse as comparison
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<SqlPredicate, SqlError> {
        let lhs = self.expr()?;
        let op = match self.peek() {
            Some(Token::Eq) => CompareOp::Eq,
            Some(Token::Ne) => CompareOp::Ne,
            Some(Token::Lt) => CompareOp::Lt,
            Some(Token::Le) => CompareOp::Le,
            Some(Token::Gt) => CompareOp::Gt,
            Some(Token::Ge) => CompareOp::Ge,
            _ => return Err(self.err("a comparison operator")),
        };
        self.advance();
        let rhs = self.expr()?;
        Ok(SqlPredicate::Compare(lhs, op, rhs))
    }

    // expr := term ((+|-) term)*
    fn expr(&mut self) -> Result<SqlExpr, SqlError> {
        let mut lhs = self.term()?;
        loop {
            match self.peek() {
                Some(Token::Plus) => {
                    self.advance();
                    lhs = SqlExpr::Add(Box::new(lhs), Box::new(self.term()?));
                }
                Some(Token::Minus) => {
                    self.advance();
                    lhs = SqlExpr::Sub(Box::new(lhs), Box::new(self.term()?));
                }
                _ => return Ok(lhs),
            }
        }
    }

    // term := unary ((*|/) unary)*
    fn term(&mut self) -> Result<SqlExpr, SqlError> {
        let mut lhs = self.unary()?;
        loop {
            match self.peek() {
                Some(Token::Star) => {
                    self.advance();
                    lhs = SqlExpr::Mul(Box::new(lhs), Box::new(self.unary()?));
                }
                Some(Token::Slash) => {
                    self.advance();
                    lhs = SqlExpr::Div(Box::new(lhs), Box::new(self.unary()?));
                }
                _ => return Ok(lhs),
            }
        }
    }

    // unary := - unary | atom
    fn unary(&mut self) -> Result<SqlExpr, SqlError> {
        if self.eat(&Token::Minus) {
            return Ok(SqlExpr::Neg(Box::new(self.unary()?)));
        }
        self.atom()
    }

    // atom := number | string | column | ( expr )
    fn atom(&mut self) -> Result<SqlExpr, SqlError> {
        match self.peek() {
            Some(Token::Number(n)) => {
                let n = n.clone();
                self.pos += 1;
                Ok(SqlExpr::Number(n))
            }
            Some(Token::Str(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(SqlExpr::Str(s))
            }
            Some(Token::Ident(_)) => Ok(SqlExpr::Column(self.column_ref()?)),
            Some(Token::LParen) => {
                self.advance();
                let inner = self.expr()?;
                if !self.eat(&Token::RParen) {
                    return Err(self.err("a closing ')'"));
                }
                Ok(inner)
            }
            _ => Err(self.err("an expression")),
        }
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

    #[test]
    fn as_keyword_alias() {
        let stmt = parse_select("SELECT x FROM Products AS P").unwrap();
        assert_eq!(stmt.tables[0].alias, "P");
    }
}
