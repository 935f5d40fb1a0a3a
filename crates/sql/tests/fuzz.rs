//! Fuzzing the SQL request path: generated token sequences go through
//! [`qarith_sql::parse_select`], [`qarith_sql::fingerprint::fingerprint`]
//! and [`qarith_sql::lower`] against the sales workload's catalog, the
//! three steps a served query's text takes. Whatever the text, each
//! step returns; failures are [`qarith_sql::SqlError`]s, never a panic
//! or a stack overflow.

use std::sync::OnceLock;

use proptest::prelude::*;
use qarith_datagen::sales::sales_database;
use qarith_datagen::WorkloadScale;
use qarith_types::Catalog;

/// What the generator draws from: every keyword, the sales tables with
/// aliases and columns (qualified and bare), numbers, quoted strings
/// (one unterminated), every operator and punctuation mark, both
/// parentheses, and a comment.
const TOKENS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "AS", "LIMIT", "select", "Products", "Orders",
    "Market", "P", "O", "M", "Nowhere", "P.id", "P.seg", "P.rrp", "P.dis", "O.id", "O.pr", "O.q",
    "O.dis", "M.seg", "M.rrp", "M.dis", "Q.rrp", "rrp", "seg", "0", "1", "25", "0.8", ".5", "1e3",
    "'toys'", "'it''s'", "'café'", "'", "=", "<>", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/",
    "(", ")", ",", ".", ";", "--", "\n", "é",
];

/// A statement head that reaches the `WHERE` predicate, so generated
/// tails exercise the predicate grammar and lowering, not only the
/// head's first error.
const HEAD: &str = "SELECT P.id, M.seg FROM Products P, Market M WHERE";

fn catalog() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| sales_database(&WorkloadScale::Tiny.params(), 1).catalog())
}

fn text(tokens: &[usize]) -> String {
    let words: Vec<&str> = tokens.iter().map(|&t| TOKENS[t]).collect();
    words.join(" ")
}

/// Runs one text through every step of the request path. A statement
/// that parses has a non-empty fingerprint, the same one its text maps
/// to.
fn serve_text(sql: &str) -> Result<(), TestCaseError> {
    let Ok(stmt) = qarith_sql::parse_select(sql) else { return Ok(()) };
    let fingerprint = qarith_sql::fingerprint::fingerprint(&stmt);
    prop_assert!(!fingerprint.is_empty());
    prop_assert_eq!(qarith_sql::sql_fingerprint(sql).ok(), Some(fingerprint));
    let _ = qarith_sql::lower(&stmt, catalog());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Short token sequences, half of them behind a valid head.
    #[test]
    fn token_sequences_never_panic(
        tokens in prop::collection::vec(0..TOKENS.len(), 0..48),
        headed in 0..2u8,
    ) {
        let tail = text(&tokens);
        let sql = if headed == 1 { format!("{HEAD} {tail}") } else { tail };
        serve_text(&sql)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A run of one token, up to 10,000 long, between two short
    /// sequences behind a valid head: runs of `(`, `NOT`, `-` or an
    /// operator are what would nest the parser, and the trees after it,
    /// without bound.
    #[test]
    fn long_runs_of_one_token_never_panic(
        before in prop::collection::vec(0..TOKENS.len(), 0..8),
        token in 0..TOKENS.len(),
        run in 1..10_001usize,
        after in prop::collection::vec(0..TOKENS.len(), 0..8),
    ) {
        let run = vec![TOKENS[token]; run].join(" ");
        serve_text(&format!("{HEAD} {} {run} {}", text(&before), text(&after)))?;
    }

    /// Well-formed nests and chains up to 10,000 deep — a `+` chain, an
    /// `AND` chain, parentheses around a comparison, unary minus — and a
    /// numeric literal up to 10,000 digits long.
    #[test]
    fn deep_well_formed_predicates_never_panic(shape in 0..5u8, n in 1..10_001usize) {
        let predicate = match shape {
            0 => format!("P.rrp{} > 1", " + P.dis".repeat(n)),
            1 => format!("P.rrp > 1{}", " AND P.dis < 2".repeat(n)),
            2 => format!("{}P.rrp > 1{}", "(".repeat(n), ")".repeat(n)),
            3 => format!("P.rrp > {}1", "- ".repeat(n)),
            _ => format!("P.rrp > {}", "9".repeat(n)),
        };
        serve_text(&format!("{HEAD} {predicate}"))?;
    }
}
