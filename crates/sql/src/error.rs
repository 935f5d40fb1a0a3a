use std::fmt;

use qarith_query::QueryError;

/// Errors from SQL parsing and lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqlError {
    /// Lexical error: an unexpected character.
    Lex {
        /// Byte offset in the input.
        position: usize,
        /// The offending character.
        found: char,
    },
    /// Parse error: unexpected token.
    Parse {
        /// Byte offset in the input.
        position: usize,
        /// What the parser expected.
        expected: &'static str,
        /// What it found (display form).
        found: String,
    },
    /// A column reference could not be resolved.
    UnknownColumn {
        /// The reference as written.
        reference: String,
    },
    /// A bare column name matches several tables in scope.
    AmbiguousColumn {
        /// The bare name.
        name: String,
    },
    /// A table alias was used twice.
    DuplicateAlias {
        /// The alias.
        alias: String,
    },
    /// An unknown table in FROM.
    UnknownTable {
        /// The table name.
        table: String,
    },
    /// Operation not supported on the base sort (e.g. `<` on strings).
    BaseSortComparison {
        /// The operator as written.
        op: String,
    },
    /// A string literal was used in a numerical context or vice versa.
    SortMismatch {
        /// Description of the offending expression.
        context: String,
    },
    /// Query validation (against the catalog) failed after lowering.
    Query(QueryError),
    /// The statement lowers, but uses a construct the serving layer
    /// does not answer: it serves conjunctive queries, so a `NOT` or an
    /// `OR` in `WHERE` is refused.
    Unsupported {
        /// The construct, as the conjunctive-query executor names it
        /// (`"negation"`, `"disjunction"`).
        construct: &'static str,
    },
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Lex { position, found } => {
                write!(f, "unexpected character {found:?} at byte {position}")
            }
            SqlError::Parse { position, expected, found } => {
                write!(f, "expected {expected} at byte {position}, found {found}")
            }
            SqlError::UnknownColumn { reference } => {
                write!(f, "unknown column reference {reference}")
            }
            SqlError::AmbiguousColumn { name } => {
                write!(f, "column {name} is ambiguous; qualify it with a table alias")
            }
            SqlError::DuplicateAlias { alias } => write!(f, "duplicate table alias {alias}"),
            SqlError::UnknownTable { table } => write!(f, "unknown table {table}"),
            SqlError::BaseSortComparison { op } => {
                write!(f, "operator {op} is not defined on base-sort (non-numerical) columns")
            }
            SqlError::SortMismatch { context } => {
                write!(f, "sort mismatch in {context}")
            }
            SqlError::Query(e) => write!(f, "query validation failed: {e}"),
            SqlError::Unsupported { construct } => {
                write!(
                    f,
                    "unsupported construct: {construct} (only conjunctive queries are served)"
                )
            }
        }
    }
}

impl std::error::Error for SqlError {}

impl From<QueryError> for SqlError {
    fn from(e: QueryError) -> Self {
        SqlError::Query(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        let e = SqlError::Parse { position: 10, expected: "FROM", found: "WHERE".into() };
        assert!(e.to_string().contains("FROM"));
        assert!(e.to_string().contains("WHERE"));
        let e = SqlError::AmbiguousColumn { name: "seg".into() };
        assert!(e.to_string().contains("seg"));
    }
}
