use qarith_engine::cq::CqOptions;
use qarith_numeric::Rational;
use qarith_query::{Arg, BaseTerm, CompareOp, Formula, NumTerm, Query, TypedVar};
use qarith_types::{Catalog, RelationSchema, Sort};

use crate::ast::{ColumnRef, SelectStatement, SqlExpr, SqlPredicate};
use crate::error::SqlError;

/// The result of lowering: a validated query plus the statement's LIMIT
/// (which belongs to execution, not to query semantics).
#[derive(Debug, Clone)]
pub struct LoweredQuery {
    /// The validated FO query (a CQ when the WHERE clause is a
    /// conjunction of comparisons, as in the paper's workloads).
    pub query: Query,
    /// The `LIMIT n`, if present.
    pub limit: Option<usize>,
}

impl LoweredQuery {
    /// Execution options carrying this statement's `LIMIT` into the CQ
    /// executor (candidate-counting semantics, via
    /// [`CqOptions::for_limit`]). This is the one place a lowered
    /// statement's limit crosses from parsing into execution.
    pub fn cq_options(&self) -> CqOptions {
        CqOptions::for_limit(self.limit)
    }
}

/// Lowers a parsed statement against a catalog.
pub fn lower(stmt: &SelectStatement, catalog: &Catalog) -> Result<LoweredQuery, SqlError> {
    let scope = Scope::build(stmt, catalog)?;

    // Head: selected columns, in order (`*` expands to every column of
    // every FROM item, in declaration order).
    let mut head = Vec::with_capacity(stmt.columns.len());
    if stmt.star {
        for (alias, schema) in &scope.tables {
            for c in schema.columns() {
                head.push(TypedVar {
                    name: format!("{alias}.{}", c.name()).into(),
                    sort: c.sort(),
                });
            }
        }
    } else {
        for col in &stmt.columns {
            let (name, sort) = scope.resolve(col)?;
            head.push(TypedVar { name: name.into(), sort });
        }
    }

    // Relation atoms: one per FROM item, args are the per-column vars.
    let mut conjuncts = Vec::new();
    for (alias, schema) in &scope.tables {
        let args = schema
            .columns()
            .iter()
            .map(|c| {
                let name = format!("{alias}.{}", c.name());
                match c.sort() {
                    Sort::Base => Arg::Base(BaseTerm::Var(name.into())),
                    Sort::Num => Arg::Num(NumTerm::Var(name.into())),
                }
            })
            .collect();
        conjuncts.push(Formula::rel(schema.name(), args));
    }

    if let Some(pred) = &stmt.predicate {
        conjuncts.push(lower_predicate(pred, &scope)?);
    }

    // Existential closure over all non-head variables.
    let head_names: Vec<&str> = head.iter().map(|v| v.name.as_ref()).collect();
    let mut binders = Vec::new();
    for (alias, schema) in &scope.tables {
        for c in schema.columns() {
            let name = format!("{alias}.{}", c.name());
            if !head_names.contains(&name.as_str()) {
                binders.push(TypedVar { name: name.into(), sort: c.sort() });
            }
        }
    }

    let body = Formula::exists(binders, Formula::and(conjuncts));
    let query = Query::new(head, body, catalog)?;
    Ok(LoweredQuery { query, limit: stmt.limit })
}

/// Name-resolution scope: the FROM items.
struct Scope {
    tables: Vec<(String, RelationSchema)>,
}

impl Scope {
    fn build(stmt: &SelectStatement, catalog: &Catalog) -> Result<Scope, SqlError> {
        let mut tables = Vec::with_capacity(stmt.tables.len());
        for t in &stmt.tables {
            if tables.iter().any(|(a, _)| *a == t.alias) {
                return Err(SqlError::DuplicateAlias { alias: t.alias.clone() });
            }
            let schema = catalog
                .get(&t.table)
                .ok_or_else(|| SqlError::UnknownTable { table: t.table.clone() })?;
            tables.push((t.alias.clone(), schema.clone()));
        }
        Ok(Scope { tables })
    }

    /// Resolves a column reference to its variable name and sort.
    fn resolve(&self, col: &ColumnRef) -> Result<(String, Sort), SqlError> {
        match &col.table {
            Some(alias) => {
                let (_, schema) = self
                    .tables
                    .iter()
                    .find(|(a, _)| a == alias)
                    .ok_or_else(|| SqlError::UnknownColumn { reference: col.to_string() })?;
                let sort = schema
                    .column_index(&col.column)
                    .and_then(|idx| schema.sort_of(idx))
                    .ok_or_else(|| SqlError::UnknownColumn { reference: col.to_string() })?;
                Ok((format!("{alias}.{}", col.column), sort))
            }
            None => {
                let mut hit: Option<(String, Sort)> = None;
                for (alias, schema) in &self.tables {
                    if let Some(sort) =
                        schema.column_index(&col.column).and_then(|idx| schema.sort_of(idx))
                    {
                        if hit.is_some() {
                            return Err(SqlError::AmbiguousColumn { name: col.column.clone() });
                        }
                        hit = Some((format!("{alias}.{}", col.column), sort));
                    }
                }
                hit.ok_or_else(|| SqlError::UnknownColumn { reference: col.to_string() })
            }
        }
    }
}

/// A rational expression `num/den` over numerical terms (`den = None`
/// means 1). Division is carried symbolically and eliminated by
/// cross-multiplication at the comparison.
struct Frac {
    num: NumTerm,
    den: Option<NumTerm>,
}

impl Frac {
    fn whole(t: NumTerm) -> Frac {
        Frac { num: t, den: None }
    }

    fn mul_den(a: Option<NumTerm>, b: Option<NumTerm>) -> Option<NumTerm> {
        match (a, b) {
            (None, d) | (d, None) => d,
            (Some(x), Some(y)) => Some(x.mul(y)),
        }
    }

    fn scaled_num(&self, other_den: &Option<NumTerm>) -> NumTerm {
        match other_den {
            None => self.num.clone(),
            Some(d) => self.num.clone().mul(d.clone()),
        }
    }

    fn add(self, rhs: Frac, subtract: bool) -> Frac {
        let l = self.scaled_num(&rhs.den);
        let r = rhs.scaled_num(&self.den);
        let num = if subtract { l.sub(r) } else { l.add(r) };
        Frac { num, den: Frac::mul_den(self.den, rhs.den) }
    }

    fn mul(self, rhs: Frac) -> Frac {
        Frac { num: self.num.mul(rhs.num), den: Frac::mul_den(self.den, rhs.den) }
    }

    fn div(self, rhs: Frac) -> Frac {
        // (a/b) / (c/d) = a·d / (b·c).
        let num = match rhs.den {
            None => self.num,
            Some(d) => self.num.mul(d),
        };
        let den = match self.den {
            None => rhs.num,
            Some(b) => b.mul(rhs.num),
        };
        Frac { num, den: Some(den) }
    }

    fn neg(self) -> Frac {
        Frac { num: self.num.neg(), den: self.den }
    }
}

enum Typed {
    Base(BaseTerm),
    Num(Frac),
}

fn lower_expr(e: &SqlExpr, scope: &Scope) -> Result<Typed, SqlError> {
    Ok(match e {
        SqlExpr::Column(c) => {
            let (name, sort) = scope.resolve(c)?;
            match sort {
                Sort::Base => Typed::Base(BaseTerm::Var(name.into())),
                Sort::Num => Typed::Num(Frac::whole(NumTerm::Var(name.into()))),
            }
        }
        SqlExpr::Number(text) => {
            let r = Rational::parse_decimal(text).map_err(|_| SqlError::SortMismatch {
                context: format!("numeric literal {text}"),
            })?;
            Typed::Num(Frac::whole(NumTerm::Const(r)))
        }
        SqlExpr::Str(s) => Typed::Base(BaseTerm::str(s)),
        SqlExpr::Add(a, b) => Typed::Num(num(a, scope)?.add(num(b, scope)?, false)),
        SqlExpr::Sub(a, b) => Typed::Num(num(a, scope)?.add(num(b, scope)?, true)),
        SqlExpr::Mul(a, b) => Typed::Num(num(a, scope)?.mul(num(b, scope)?)),
        SqlExpr::Div(a, b) => Typed::Num(num(a, scope)?.div(num(b, scope)?)),
        SqlExpr::Neg(a) => Typed::Num(num(a, scope)?.neg()),
    })
}

fn num(e: &SqlExpr, scope: &Scope) -> Result<Frac, SqlError> {
    match lower_expr(e, scope)? {
        Typed::Num(f) => Ok(f),
        Typed::Base(t) => Err(SqlError::SortMismatch {
            context: format!("arithmetic over base-sort operand {t}"),
        }),
    }
}

fn lower_predicate(p: &SqlPredicate, scope: &Scope) -> Result<Formula, SqlError> {
    Ok(match p {
        SqlPredicate::And(l, r) => {
            Formula::and(vec![lower_predicate(l, scope)?, lower_predicate(r, scope)?])
        }
        SqlPredicate::Or(l, r) => {
            Formula::or(vec![lower_predicate(l, scope)?, lower_predicate(r, scope)?])
        }
        SqlPredicate::Not(inner) => Formula::not(lower_predicate(inner, scope)?),
        SqlPredicate::Compare(l, op, r) => {
            let lt = lower_expr(l, scope)?;
            let rt = lower_expr(r, scope)?;
            match (lt, rt) {
                (Typed::Num(a), Typed::Num(b)) => {
                    // Cross-multiply: a.num/a.den ⋈ b.num/b.den becomes
                    // a.num·b.den ⋈ b.num·a.den (positive denominators
                    // assumed — see crate docs).
                    let lhs = a.scaled_num(&b.den);
                    let rhs = b.scaled_num(&a.den);
                    Formula::cmp(lhs, *op, rhs)
                }
                (Typed::Base(a), Typed::Base(b)) => base_compare(a, *op, b)?,
                (Typed::Base(a), Typed::Num(b)) | (Typed::Num(b), Typed::Base(a)) => {
                    // Allow `base_col = 42` for integer base constants.
                    match &b.num {
                        NumTerm::Const(r) if b.den.is_none() && r.is_integer() => {
                            base_compare(a, *op, BaseTerm::int(r.numer() as i64))?
                        }
                        _ => {
                            return Err(SqlError::SortMismatch {
                                context: format!("comparison of {a} with a numerical expression"),
                            })
                        }
                    }
                }
            }
        }
    })
}

fn base_compare(l: BaseTerm, op: CompareOp, r: BaseTerm) -> Result<Formula, SqlError> {
    match op {
        CompareOp::Eq => Ok(Formula::base_eq(l, r)),
        CompareOp::Ne => Ok(Formula::not(Formula::base_eq(l, r))),
        other => Err(SqlError::BaseSortComparison { op: other.to_string() }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;
    use qarith_query::{ArithLevel, Formula as F};
    use qarith_types::Column;

    fn sales_catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add(
            RelationSchema::new(
                "Products",
                vec![
                    Column::base("id"),
                    Column::base("seg"),
                    Column::num("rrp"),
                    Column::num("dis"),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        cat.add(
            RelationSchema::new(
                "Orders",
                vec![Column::base("id"), Column::base("pr"), Column::num("q"), Column::num("dis")],
            )
            .unwrap(),
        )
        .unwrap();
        cat.add(
            RelationSchema::new(
                "Market",
                vec![Column::base("seg"), Column::num("rrp"), Column::num("dis")],
            )
            .unwrap(),
        )
        .unwrap();
        cat
    }

    fn compile(sql: &str) -> LoweredQuery {
        let stmt = parse_select(sql).unwrap();
        lower(&stmt, &sales_catalog()).unwrap()
    }

    #[test]
    fn competitive_advantage_lowers_to_cq_linear_free() {
        let lowered = compile(
            "SELECT P.seg FROM Products P, Market M \
             WHERE P.seg = M.seg AND P.rrp * P.dis <= M.rrp * M.dis LIMIT 25",
        );
        assert_eq!(lowered.limit, Some(25));
        let q = &lowered.query;
        assert_eq!(q.arity(), 1);
        let frag = q.fragment();
        assert!(frag.conjunctive);
        // rrp·dis is a product of two variables: degree 2.
        assert_eq!(frag.arith, ArithLevel::Poly);
    }

    #[test]
    fn cq_options_carry_the_limit() {
        let lowered = compile("SELECT P.seg FROM Products P LIMIT 7");
        let opts = lowered.cq_options();
        assert_eq!(opts.limit, Some(7));
        assert!(opts.count_candidates, "statement LIMIT counts distinct candidates");
        assert!(!opts.exhaustive);
        let unlimited = compile("SELECT P.seg FROM Products P");
        let opts = unlimited.cq_options();
        assert_eq!(opts.limit, None);
        assert!(opts.exhaustive, "no LIMIT scans everything");
    }

    #[test]
    fn division_is_cross_multiplied() {
        let lowered = compile("SELECT O.id FROM Orders O WHERE O.q / O.dis <= 2");
        // Expect body to contain Cmp(q, ≤, 2·dis) — i.e. no division in
        // the lowered term and the divisor moved across.
        fn find_cmp(f: &F) -> Option<(NumTerm, CompareOp, NumTerm)> {
            match f {
                F::Cmp(l, op, r) => Some((l.clone(), *op, r.clone())),
                F::And(ps) | F::Or(ps) => ps.iter().find_map(find_cmp),
                F::Exists(_, b) | F::Forall(_, b) => find_cmp(b),
                F::Not(b) => find_cmp(b),
                _ => None,
            }
        }
        let (l, op, r) = find_cmp(lowered.query.body()).expect("comparison present");
        assert_eq!(op, CompareOp::Le);
        assert_eq!(l, NumTerm::Var("O.q".into()));
        assert_eq!(r, NumTerm::Const(Rational::from_int(2)).mul(NumTerm::Var("O.dis".into())));
    }

    #[test]
    fn bare_columns_resolve_uniquely() {
        let lowered = compile("SELECT q FROM Orders O WHERE q > 5");
        assert_eq!(lowered.query.arity(), 1);
    }

    #[test]
    fn ambiguous_bare_column_rejected() {
        let stmt = parse_select("SELECT id FROM Products P, Orders O WHERE P.id = O.pr").unwrap();
        assert!(matches!(lower(&stmt, &sales_catalog()), Err(SqlError::AmbiguousColumn { .. })));
        // `dis` is in all three tables too.
        let stmt = parse_select("SELECT P.id FROM Products P, Orders O WHERE dis > 0").unwrap();
        assert!(matches!(lower(&stmt, &sales_catalog()), Err(SqlError::AmbiguousColumn { .. })));
    }

    #[test]
    fn unknown_names_rejected() {
        let stmt = parse_select("SELECT x FROM Nope").unwrap();
        assert!(matches!(lower(&stmt, &sales_catalog()), Err(SqlError::UnknownTable { .. })));
        let stmt = parse_select("SELECT P.nope FROM Products P").unwrap();
        assert!(matches!(lower(&stmt, &sales_catalog()), Err(SqlError::UnknownColumn { .. })));
    }

    #[test]
    fn base_sort_rules() {
        // Equality on base columns is fine; order is not.
        assert!(matches!(
            lower(
                &parse_select("SELECT P.id FROM Products P WHERE P.seg < 'toys'").unwrap(),
                &sales_catalog()
            ),
            Err(SqlError::BaseSortComparison { .. })
        ));
        // String equality works.
        let ok = compile("SELECT P.id FROM Products P WHERE P.seg = 'toys'");
        assert_eq!(ok.query.arity(), 1);
        // Arithmetic over a base column is rejected.
        assert!(matches!(
            lower(
                &parse_select("SELECT P.id FROM Products P WHERE P.seg + 1 < 2").unwrap(),
                &sales_catalog()
            ),
            Err(SqlError::SortMismatch { .. })
        ));
    }

    #[test]
    fn integer_literal_against_base_column() {
        let ok = compile("SELECT P.seg FROM Products P WHERE P.id = 42");
        assert_eq!(ok.query.arity(), 1);
        // Non-integer against base column: mismatch.
        assert!(matches!(
            lower(
                &parse_select("SELECT P.seg FROM Products P WHERE P.id = 4.5").unwrap(),
                &sales_catalog()
            ),
            Err(SqlError::SortMismatch { .. })
        ));
    }

    #[test]
    fn duplicate_alias_rejected() {
        let stmt = parse_select("SELECT P.id FROM Products P, Orders P").unwrap();
        assert!(matches!(lower(&stmt, &sales_catalog()), Err(SqlError::DuplicateAlias { .. })));
    }

    #[test]
    fn select_star_expands_all_columns() {
        let lowered = compile("SELECT * FROM Market WHERE Market.rrp > 10");
        // Market(seg, rrp, dis): head arity 3, in declaration order.
        assert_eq!(lowered.query.arity(), 3);
        let names: Vec<&str> = lowered.query.free_vars().iter().map(|v| v.name.as_ref()).collect();
        assert_eq!(names, vec!["Market.seg", "Market.rrp", "Market.dis"]);
        // Star over a join: all columns of all tables.
        let lowered = compile("SELECT * FROM Products P, Market M WHERE P.seg = M.seg");
        assert_eq!(lowered.query.arity(), 4 + 3);
    }

    #[test]
    fn or_and_not_lower_to_fo() {
        let lowered = compile("SELECT P.id FROM Products P WHERE NOT (P.rrp < 5 OR P.rrp > 50)");
        assert!(!lowered.query.fragment().conjunctive);
    }
}
