//! A SQL front end for the §9 decision-support workloads.
//!
//! Layering: above `qarith-query`/`qarith-engine`, below
//! `qarith-serve` (whose plan cache is keyed by this crate's
//! normalized [`fingerprint`]s) and the bench drivers.
//!
//! The paper's experiments issue `SELECT … FROM … WHERE … LIMIT n`
//! queries against Postgres; this crate provides the equivalent surface
//! for the qarith engine: a hand-written lexer and recursive-descent
//! parser for that subset, lowered onto the validated FO(+,·,<) AST of
//! [`qarith_query`].
//!
//! Supported grammar (case-insensitive keywords):
//!
//! ```sql
//! SELECT col [, col …]            -- qualified (P.seg) or bare names
//! FROM table [alias] [, table [alias] …]
//! [WHERE predicate]               -- AND/OR/NOT, parentheses,
//!                                 -- =, <>, !=, <, <=, >, >= between
//!                                 -- arithmetic expressions (+ - * /)
//!                                 -- over columns and literals
//! [LIMIT n]
//! ```
//!
//! Lowering notes:
//!
//! * every `(alias, column)` pair becomes a typed variable; selected
//!   columns form the query head, the rest are existentially quantified —
//!   the standard SELECT-FROM-WHERE ⇒ CQ translation;
//! * base-sort comparisons support `=`/`<>` only (the base domain is
//!   unordered in the model);
//! * division is eliminated by cross-multiplication
//!   (`a/b ≤ c  ⇝  a ≤ c·b`), following the paper's remark that `−` and
//!   `÷` are definable from the atomic comparisons. This assumes positive
//!   denominators — true of the paper's workloads (quantities and
//!   discounts), and documented here because a negative denominator would
//!   flip the inequality.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod error;
pub mod fingerprint;
mod lexer;
mod lower;
mod parser;

pub use ast::{SelectStatement, SqlExpr, SqlPredicate, TableRef};
pub use error::SqlError;
pub use fingerprint::sql_fingerprint;
pub use lower::{lower, LoweredQuery};
pub use parser::{parse_select, MAX_DEPTH};

use qarith_query::Query;
use qarith_types::Catalog;

/// One-stop entry point: parse SQL text and lower it against a catalog.
pub fn compile(sql: &str, catalog: &Catalog) -> Result<LoweredQuery, SqlError> {
    let stmt = parse_select(sql)?;
    lower(&stmt, catalog)
}

/// Like [`compile`], returning only the query (dropping the LIMIT).
pub fn compile_query(sql: &str, catalog: &Catalog) -> Result<Query, SqlError> {
    Ok(compile(sql, catalog)?.query)
}
