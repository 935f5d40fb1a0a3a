use std::fmt;

use qarith_constraints::FormulaError;
use qarith_numeric::NumericError;
use qarith_types::Sort;

/// Errors produced during evaluation and grounding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A query references a relation the database does not store.
    UnknownRelation {
        /// Missing relation name.
        relation: String,
    },
    /// A variable occurrence had no binding (only reachable with queries
    /// that bypassed validation).
    UnboundVariable {
        /// The variable.
        var: String,
    },
    /// Naive evaluation hit an order/arithmetic comparison whose operands
    /// involve nulls. Such comparisons have no naive semantics — this is
    /// exactly why the paper introduces the measure μ; callers should use
    /// the grounding + measure pipeline instead.
    NullComparison {
        /// Display form of the offending comparison.
        comparison: String,
    },
    /// The candidate tuple does not match the query head's arity.
    CandidateArity {
        /// Declared number of free variables.
        expected: usize,
        /// Candidate width.
        actual: usize,
    },
    /// The candidate tuple's value sorts do not match the query head.
    CandidateSort {
        /// Position in the head.
        position: usize,
        /// Declared sort.
        expected: Sort,
    },
    /// The CQ executor was handed a query outside the ∃,∧-fragment.
    NotConjunctive {
        /// The connective that broke conjunctivity.
        construct: &'static str,
    },
    /// A relation's column index could not be built: the relation has
    /// more rows than `u32` row ids address, or no such column.
    Unindexable {
        /// The relation.
        relation: String,
        /// The column a join wanted to probe.
        column: usize,
    },
    /// Exact arithmetic overflowed.
    Numeric(NumericError),
    /// Formula manipulation failed (e.g. DNF blowup in the CQ path).
    Formula(FormulaError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownRelation { relation } => {
                write!(f, "database has no relation {relation}")
            }
            EngineError::UnboundVariable { var } => write!(f, "unbound variable {var}"),
            EngineError::NullComparison { comparison } => write!(
                f,
                "naive evaluation cannot decide {comparison} (operands involve nulls); \
                 use the certainty-measure pipeline"
            ),
            EngineError::CandidateArity { expected, actual } => {
                write!(f, "candidate has width {actual}, query head has {expected}")
            }
            EngineError::CandidateSort { position, expected } => {
                write!(f, "candidate component {position} should have sort {expected}")
            }
            EngineError::NotConjunctive { construct } => write!(
                f,
                "the conjunctive-query executor cannot handle {construct}; \
                 use the generic grounding path"
            ),
            EngineError::Unindexable { relation, column } => {
                write!(f, "cannot index column {column} of relation {relation}")
            }
            EngineError::Numeric(e) => write!(f, "numeric error: {e}"),
            EngineError::Formula(e) => write!(f, "formula error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<NumericError> for EngineError {
    fn from(e: NumericError) -> Self {
        EngineError::Numeric(e)
    }
}

impl From<FormulaError> for EngineError {
    fn from(e: FormulaError) -> Self {
        EngineError::Formula(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_messages() {
        let e: EngineError = NumericError::DivisionByZero.into();
        assert!(e.to_string().contains("division by zero"));
        let e = EngineError::NullComparison { comparison: "⊤1 < 3".into() };
        assert!(e.to_string().contains("⊤1 < 3"));
    }
}
