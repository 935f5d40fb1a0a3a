use std::collections::BTreeSet;

use qarith_query::{Arg, Formula, NumTerm, Query};
use qarith_types::{Database, Value};

/// The active domain over which quantifiers range (§3 semantics: "a
/// witness is found among elements of `C_base(D)` / `C_num(D)`", extended
/// with the constants of the query and of the candidate tuple, and — for
/// grounding per Proposition 5.3 — with the numerical *nulls* of `D`).
///
/// Both domains are kept as ordered, deduplicated vectors of [`Value`]s so
/// that evaluation is deterministic.
#[derive(Clone, Debug)]
pub struct ActiveDomain {
    base: Vec<Value>,
    num: Vec<Value>,
}

impl ActiveDomain {
    /// Collects the active domain of `db` extended with the constants
    /// mentioned by `query` and the values of `extra` (typically the
    /// candidate tuple).
    pub fn collect(db: &Database, query: &Query, extra: &[Value]) -> ActiveDomain {
        let mut base: BTreeSet<Value> = BTreeSet::new();
        let mut num: BTreeSet<Value> = BTreeSet::new();

        for (_, tuple) in db.iter_tuples() {
            for v in tuple.values() {
                match v {
                    Value::Base(_) | Value::BaseNull(_) => {
                        base.insert(v.clone());
                    }
                    Value::Num(_) | Value::NumNull(_) => {
                        num.insert(v.clone());
                    }
                }
            }
        }

        Self::collect_query_constants(query.body(), &mut base, &mut num);

        for v in extra {
            match v {
                Value::Base(_) | Value::BaseNull(_) => {
                    base.insert(v.clone());
                }
                Value::Num(_) | Value::NumNull(_) => {
                    num.insert(v.clone());
                }
            }
        }

        ActiveDomain { base: base.into_iter().collect(), num: num.into_iter().collect() }
    }

    fn collect_query_constants(f: &Formula, base: &mut BTreeSet<Value>, num: &mut BTreeSet<Value>) {
        let mut add_num_term = |t: &NumTerm| {
            // Collect constants from terms recursively.
            fn walk(t: &NumTerm, num: &mut BTreeSet<Value>) {
                match t {
                    NumTerm::Const(r) => {
                        num.insert(Value::Num(*r));
                    }
                    NumTerm::Var(_) => {}
                    NumTerm::Add(a, b) | NumTerm::Sub(a, b) | NumTerm::Mul(a, b) => {
                        walk(a, num);
                        walk(b, num);
                    }
                    NumTerm::Neg(a) => walk(a, num),
                }
            }
            walk(t, num);
        };
        match f {
            Formula::True | Formula::False => {}
            Formula::Rel { args, .. } => {
                for a in args {
                    match a {
                        Arg::Base(qarith_query::BaseTerm::Const(c)) => {
                            base.insert(Value::Base(c.clone()));
                        }
                        Arg::Base(_) => {}
                        Arg::Num(t) => add_num_term(t),
                    }
                }
            }
            Formula::BaseEq(l, r) => {
                for t in [l, r] {
                    if let qarith_query::BaseTerm::Const(c) = t {
                        base.insert(Value::Base(c.clone()));
                    }
                }
            }
            Formula::Cmp(l, _, r) => {
                add_num_term(l);
                add_num_term(r);
            }
            Formula::Not(inner) => Self::collect_query_constants(inner, base, num),
            Formula::And(parts) | Formula::Or(parts) => {
                for p in parts {
                    Self::collect_query_constants(p, base, num);
                }
            }
            Formula::Exists(_, body) | Formula::Forall(_, body) => {
                Self::collect_query_constants(body, base, num);
            }
        }
    }

    /// Base-sort domain elements (constants and base nulls).
    pub fn base(&self) -> &[Value] {
        &self.base
    }

    /// Numerical domain elements (constants and numerical nulls).
    pub fn num(&self) -> &[Value] {
        &self.num
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qarith_query::{CompareOp, TypedVar};
    use qarith_types::{Column, Relation, RelationSchema};

    fn small_db() -> Database {
        let mut db = Database::new();
        let schema = RelationSchema::new("R", vec![Column::base("a"), Column::num("x")]).unwrap();
        let mut r = Relation::empty(schema);
        r.insert_values(vec![Value::str("u"), Value::num(3)]).unwrap();
        r.insert_values(vec![
            Value::BaseNull(qarith_types::BaseNullId(0)),
            Value::NumNull(qarith_types::NumNullId(0)),
        ])
        .unwrap();
        db.add_relation(r).unwrap();
        db
    }

    #[test]
    fn domain_includes_db_values_query_constants_and_extras() {
        let db = small_db();
        let q = Query::new(
            vec![TypedVar::num("y")],
            Formula::cmp(NumTerm::var("y"), CompareOp::Lt, NumTerm::decimal("2.5")),
            &db.catalog(),
        )
        .unwrap();
        let dom = ActiveDomain::collect(&db, &q, &[Value::num(99)]);
        assert!(dom.base().contains(&Value::str("u")));
        assert!(dom.base().contains(&Value::BaseNull(qarith_types::BaseNullId(0))));
        assert!(dom.num().contains(&Value::num(3)));
        assert!(dom.num().contains(&Value::NumNull(qarith_types::NumNullId(0))));
        assert!(dom.num().contains(&Value::decimal("2.5").unwrap()));
        assert!(dom.num().contains(&Value::num(99)));
        assert_eq!(dom.base().len(), 2);
        assert_eq!(dom.num().len(), 4);
    }

    #[test]
    fn domains_are_deduplicated_and_sorted() {
        let db = small_db();
        let q = Query::boolean(
            Formula::cmp(NumTerm::int(3), CompareOp::Eq, NumTerm::int(3)),
            &db.catalog(),
        )
        .unwrap();
        let dom = ActiveDomain::collect(&db, &q, &[Value::num(3), Value::num(3)]);
        let count = dom.num().iter().filter(|v| **v == Value::num(3)).count();
        assert_eq!(count, 1);
    }
}
