use std::collections::HashMap;
use std::fmt;

use qarith_types::{Catalog, Sort};

use crate::error::QueryError;
use crate::formula::{Arg, Formula, TypedVar};
use crate::fragment::Fragment;
use crate::term::{BaseTerm, Ident, NumTerm};

/// A validated query: a head of declared free variables and an FO(+,·,<)
/// body, checked against a catalog.
///
/// Validation enforces: every relation atom matches its schema (name,
/// arity, per-column sorts); every variable occurrence is in scope and at
/// the sort of its binding; quantifiers never shadow. The query's
/// [`Fragment`] is computed once at construction.
#[derive(Clone)]
pub struct Query {
    free: Vec<TypedVar>,
    body: Formula,
    fragment: Fragment,
}

impl Query {
    /// Validates and builds a query.
    pub fn new(free: Vec<TypedVar>, body: Formula, catalog: &Catalog) -> Result<Query, QueryError> {
        let mut scope: HashMap<Ident, Sort> = HashMap::new();
        for v in &free {
            if scope.insert(v.name.clone(), v.sort).is_some() {
                return Err(QueryError::DuplicateBinding { var: v.name.to_string() });
            }
        }
        Self::check(&body, catalog, &mut scope)?;
        let fragment = Fragment::classify(&body);
        Ok(Query { free, body, fragment })
    }

    /// A Boolean (closed) query.
    pub fn boolean(body: Formula, catalog: &Catalog) -> Result<Query, QueryError> {
        Query::new(Vec::new(), body, catalog)
    }

    /// The declared free variables (the query head).
    pub fn free_vars(&self) -> &[TypedVar] {
        &self.free
    }

    /// The body formula.
    pub fn body(&self) -> &Formula {
        &self.body
    }

    /// The syntactic fragment (drives algorithm selection).
    pub fn fragment(&self) -> Fragment {
        self.fragment
    }

    /// Output arity.
    pub fn arity(&self) -> usize {
        self.free.len()
    }

    /// `true` iff the query has no free variables.
    pub fn is_boolean(&self) -> bool {
        self.free.is_empty()
    }

    fn check(
        f: &Formula,
        catalog: &Catalog,
        scope: &mut HashMap<Ident, Sort>,
    ) -> Result<(), QueryError> {
        match f {
            Formula::True | Formula::False => Ok(()),
            Formula::Rel { relation, args } => {
                let schema = catalog.get(relation).ok_or_else(|| QueryError::UnknownRelation {
                    relation: relation.to_string(),
                })?;
                if args.len() != schema.arity() {
                    return Err(QueryError::ArityMismatch {
                        relation: relation.to_string(),
                        expected: schema.arity(),
                        actual: args.len(),
                    });
                }
                for (i, (arg, column)) in args.iter().zip(schema.columns()).enumerate() {
                    let expected = column.sort();
                    if arg.sort() != expected {
                        return Err(QueryError::ArgSortMismatch {
                            relation: relation.to_string(),
                            column: i,
                            expected,
                            actual: arg.sort(),
                        });
                    }
                    match arg {
                        Arg::Base(t) => Self::check_base_term(t, scope)?,
                        Arg::Num(t) => Self::check_num_term(t, scope)?,
                    }
                }
                Ok(())
            }
            Formula::BaseEq(l, r) => {
                Self::check_base_term(l, scope)?;
                Self::check_base_term(r, scope)
            }
            Formula::Cmp(l, _, r) => {
                Self::check_num_term(l, scope)?;
                Self::check_num_term(r, scope)
            }
            Formula::Not(inner) => Self::check(inner, catalog, scope),
            Formula::And(parts) | Formula::Or(parts) => {
                for p in parts {
                    Self::check(p, catalog, scope)?;
                }
                Ok(())
            }
            Formula::Exists(vars, body) | Formula::Forall(vars, body) => {
                for v in vars {
                    if scope.insert(v.name.clone(), v.sort).is_some() {
                        return Err(QueryError::DuplicateBinding { var: v.name.to_string() });
                    }
                }
                let result = Self::check(body, catalog, scope);
                for v in vars {
                    scope.remove(&v.name);
                }
                result
            }
        }
    }

    fn check_base_term(t: &BaseTerm, scope: &HashMap<Ident, Sort>) -> Result<(), QueryError> {
        if let BaseTerm::Var(x) = t {
            Self::check_var(x, Sort::Base, scope)?;
        }
        Ok(())
    }

    fn check_num_term(t: &NumTerm, scope: &HashMap<Ident, Sort>) -> Result<(), QueryError> {
        let mut err = None;
        t.visit_vars(&mut |x| {
            if err.is_none() {
                err = Self::check_var(x, Sort::Num, scope).err();
            }
        });
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn check_var(x: &Ident, used: Sort, scope: &HashMap<Ident, Sort>) -> Result<(), QueryError> {
        match scope.get(x) {
            None => Err(QueryError::UnboundVariable { var: x.to_string() }),
            Some(&bound) if bound != used => {
                Err(QueryError::SortConflict { var: x.to_string(), bound, used })
            }
            Some(_) => Ok(()),
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q(")?;
        for (i, v) in self.free.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ") = {}", self.body)
    }
}

impl fmt::Debug for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::CompareOp;
    use qarith_types::{Column, RelationSchema};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add(
            RelationSchema::new("R", vec![Column::base("a"), Column::num("x"), Column::num("y")])
                .unwrap(),
        )
        .unwrap();
        cat
    }

    fn rel_axy() -> Formula {
        Formula::rel(
            "R",
            vec![
                Arg::Base(BaseTerm::var("a")),
                Arg::Num(NumTerm::var("x")),
                Arg::Num(NumTerm::var("y")),
            ],
        )
    }

    #[test]
    fn valid_query() {
        let q = Query::new(
            vec![TypedVar::base("a")],
            Formula::exists(
                vec![TypedVar::num("x"), TypedVar::num("y")],
                Formula::and(vec![
                    rel_axy(),
                    Formula::cmp(NumTerm::var("x"), CompareOp::Lt, NumTerm::var("y")),
                ]),
            ),
            &catalog(),
        )
        .unwrap();
        assert_eq!(q.arity(), 1);
        assert!(!q.is_boolean());
        assert!(q.fragment().conjunctive);
    }

    #[test]
    fn unknown_relation() {
        let e = Query::boolean(Formula::rel("S", vec![]), &catalog());
        assert!(matches!(e, Err(QueryError::UnknownRelation { .. })));
    }

    #[test]
    fn arity_mismatch() {
        let e = Query::boolean(
            Formula::exists(
                vec![TypedVar::base("a")],
                Formula::rel("R", vec![Arg::Base(BaseTerm::var("a"))]),
            ),
            &catalog(),
        );
        assert!(matches!(e, Err(QueryError::ArityMismatch { expected: 3, actual: 1, .. })));
    }

    #[test]
    fn arg_sort_mismatch() {
        let e = Query::boolean(
            Formula::exists(
                vec![TypedVar::base("a"), TypedVar::base("b"), TypedVar::num("y")],
                Formula::rel(
                    "R",
                    vec![
                        Arg::Base(BaseTerm::var("a")),
                        Arg::Base(BaseTerm::var("b")), // column 1 is num
                        Arg::Num(NumTerm::var("y")),
                    ],
                ),
            ),
            &catalog(),
        );
        assert!(matches!(e, Err(QueryError::ArgSortMismatch { column: 1, .. })));
    }

    #[test]
    fn unbound_variable() {
        let e = Query::boolean(
            Formula::cmp(NumTerm::var("x"), CompareOp::Lt, NumTerm::int(0)),
            &catalog(),
        );
        assert!(matches!(e, Err(QueryError::UnboundVariable { .. })));
    }

    #[test]
    fn sort_conflict() {
        // x bound as base, used as num.
        let e = Query::new(
            vec![TypedVar::base("x")],
            Formula::cmp(NumTerm::var("x"), CompareOp::Lt, NumTerm::int(0)),
            &catalog(),
        );
        assert!(matches!(e, Err(QueryError::SortConflict { .. })));
    }

    #[test]
    fn shadowing_rejected() {
        let e = Query::new(
            vec![TypedVar::num("x")],
            Formula::exists(
                vec![TypedVar::num("x")],
                Formula::cmp(NumTerm::var("x"), CompareOp::Lt, NumTerm::int(0)),
            ),
            &catalog(),
        );
        assert!(matches!(e, Err(QueryError::DuplicateBinding { .. })));
    }

    #[test]
    fn scope_is_restored_after_quantifier() {
        // ∃x (x<0) ∧ x<0 — the second x is unbound.
        let e = Query::boolean(
            Formula::and(vec![
                Formula::exists(
                    vec![TypedVar::num("x")],
                    Formula::cmp(NumTerm::var("x"), CompareOp::Lt, NumTerm::int(0)),
                ),
                Formula::cmp(NumTerm::var("x"), CompareOp::Lt, NumTerm::int(0)),
            ]),
            &catalog(),
        );
        assert!(matches!(e, Err(QueryError::UnboundVariable { .. })));
    }

    #[test]
    fn display() {
        let q = Query::new(
            vec![TypedVar::base("a")],
            Formula::exists(vec![TypedVar::num("x"), TypedVar::num("y")], rel_axy()),
            &catalog(),
        )
        .unwrap();
        assert_eq!(q.to_string(), "q(a:base) = ∃x:num,y:num R(a, x, y)");
    }
}
