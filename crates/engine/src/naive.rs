//! Naive (active-domain) evaluation of FO(+,·,<) queries.
//!
//! Marked nulls are treated as *fresh distinct constants* — the "naive
//! evaluation" of §2 of the paper, which on complete databases coincides
//! with ordinary evaluation. For generic queries (no interpreted numerical
//! operations) the zero-one law says naive answers are exactly the tuples
//! with μ = 1, so this module doubles as the fast path of the measure
//! pipeline and as the test oracle for grounding (evaluate on `v(D)` for
//! concrete valuations `v` and compare with `φ(v(z̄))`).
//!
//! Comparisons (`<`, `≤`, …) whose operands are not fully determined by
//! constants have no naive semantics and raise
//! [`EngineError::NullComparison`]; equalities between *atomic* values
//! (constants or nulls) follow the fresh-constant reading.

use qarith_constraints::Polynomial;
use qarith_numeric::Rational;
use qarith_query::{Arg, CompareOp, Formula, Query, TypedVar};
use qarith_types::{Database, NumNullId, Relation, Sort, Tuple, Value};

use crate::domain::ActiveDomain;
use crate::env::{base_term_value, null_var, term_to_polynomial, Bound, Env};
use crate::error::EngineError;

/// The result of reading a numerical polynomial as a naive value.
enum AtomicNum {
    /// A determined rational.
    Const(Rational),
    /// Exactly the null `⊤_i` (the polynomial `z_i`).
    Null(NumNullId),
    /// Anything else (arithmetic over nulls) — no naive semantics.
    Symbolic,
}

fn classify(p: &Polynomial) -> AtomicNum {
    if let Some(c) = p.as_constant() {
        return AtomicNum::Const(c);
    }
    // Is p exactly one variable with coefficient 1?
    let mut terms = p.terms();
    if let (Some((m, c)), None) = (terms.next(), terms.next()) {
        if *c == Rational::ONE && m.degree() == 1 {
            let (v, _) = m.factors()[0];
            return AtomicNum::Null(NumNullId(v.0));
        }
    }
    AtomicNum::Symbolic
}

/// Naive equality between two numerical polynomials: decided when both are
/// constants or both are atomic (fresh-constant semantics for nulls);
/// errors otherwise.
fn naive_num_eq(
    p: &Polynomial,
    q: &Polynomial,
    display: impl Fn() -> String,
) -> Result<bool, EngineError> {
    match (classify(p), classify(q)) {
        (AtomicNum::Const(a), AtomicNum::Const(b)) => Ok(a == b),
        (AtomicNum::Null(a), AtomicNum::Null(b)) => Ok(a == b),
        (AtomicNum::Const(_), AtomicNum::Null(_)) | (AtomicNum::Null(_), AtomicNum::Const(_)) => {
            Ok(false)
        }
        _ => {
            if p == q {
                // Structurally identical symbolic terms are equal under
                // every interpretation.
                Ok(true)
            } else {
                Err(EngineError::NullComparison { comparison: display() })
            }
        }
    }
}

/// Evaluates the body of a (validated) query under an environment.
pub fn holds(
    f: &Formula,
    db: &Database,
    dom: &ActiveDomain,
    env: &mut Env,
) -> Result<bool, EngineError> {
    match f {
        Formula::True => Ok(true),
        Formula::False => Ok(false),
        Formula::Rel { relation, args } => {
            let rel = db
                .relation(relation)
                .ok_or_else(|| EngineError::UnknownRelation { relation: relation.to_string() })?;
            rel_match(rel, args, env)
        }
        Formula::BaseEq(l, r) => Ok(base_term_value(l, env)? == base_term_value(r, env)?),
        Formula::Cmp(l, op, r) => {
            let pl = term_to_polynomial(l, env)?;
            let pr = term_to_polynomial(r, env)?;
            let display = || format!("{pl} {op} {pr}");
            match op {
                CompareOp::Eq => naive_num_eq(&pl, &pr, display),
                CompareOp::Ne => naive_num_eq(&pl, &pr, display).map(|b| !b),
                _ => match (classify(&pl), classify(&pr)) {
                    (AtomicNum::Const(a), AtomicNum::Const(b)) => Ok(op.holds(&a, &b)),
                    _ => Err(EngineError::NullComparison { comparison: display() }),
                },
            }
        }
        Formula::Not(inner) => Ok(!holds(inner, db, dom, env)?),
        Formula::And(parts) => {
            for p in parts {
                if !holds(p, db, dom, env)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Formula::Or(parts) => {
            for p in parts {
                if holds(p, db, dom, env)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Formula::Exists(vars, body) => quantify(vars, body, db, dom, env, false),
        Formula::Forall(vars, body) => quantify(vars, body, db, dom, env, true),
    }
}

fn quantify(
    vars: &[TypedVar],
    body: &Formula,
    db: &Database,
    dom: &ActiveDomain,
    env: &mut Env,
    universal: bool,
) -> Result<bool, EngineError> {
    match vars.split_first() {
        None => holds(body, db, dom, env),
        Some((v, rest)) => {
            let domain: &[Value] = match v.sort {
                Sort::Base => dom.base(),
                Sort::Num => dom.num(),
            };
            for value in domain {
                env.insert(v.name.clone(), Bound::from_value(value));
                let sub = quantify(rest, body, db, dom, env, universal)?;
                env.remove(&v.name);
                if sub != universal {
                    // ∃: a witness suffices; ∀: a counterexample refutes.
                    return Ok(!universal);
                }
            }
            Ok(universal)
        }
    }
}

fn rel_match(rel: &Relation, args: &[Arg], env: &Env) -> Result<bool, EngineError> {
    // Pre-evaluate the arguments once.
    enum Evaled {
        Base(Value),
        Num(Polynomial),
    }
    let mut evaled = Vec::with_capacity(args.len());
    for a in args {
        evaled.push(match a {
            Arg::Base(t) => Evaled::Base(base_term_value(t, env)?),
            Arg::Num(t) => Evaled::Num(term_to_polynomial(t, env)?),
        });
    }
    'tuples: for t in rel.tuples() {
        for (e, cell) in evaled.iter().zip(t.values()) {
            let matched = match e {
                Evaled::Base(v) => v == cell,
                Evaled::Num(p) => {
                    let pv = match cell {
                        Value::Num(r) => Polynomial::constant(*r),
                        Value::NumNull(id) => Polynomial::var(null_var(*id)),
                        other => panic!("sort-checked column holds {other}"),
                    };
                    naive_num_eq(p, &pv, || format!("{p} = {pv}"))?
                }
            };
            if !matched {
                continue 'tuples;
            }
        }
        return Ok(true);
    }
    Ok(false)
}

/// Naive answers of `query` on `db`: every assignment of active-domain
/// values to the free variables that satisfies the body. For a Boolean
/// query the result is either `[()]` (true) or `[]` (false).
pub fn evaluate(query: &Query, db: &Database) -> Result<Vec<Tuple>, EngineError> {
    let dom = ActiveDomain::collect(db, query, &[]);
    let mut env = Env::new();
    let mut out = Vec::new();
    enumerate_free(query.free_vars(), query, db, &dom, &mut env, &mut Vec::new(), &mut out)?;
    Ok(out)
}

fn enumerate_free(
    vars: &[TypedVar],
    query: &Query,
    db: &Database,
    dom: &ActiveDomain,
    env: &mut Env,
    prefix: &mut Vec<Value>,
    out: &mut Vec<Tuple>,
) -> Result<(), EngineError> {
    match vars.split_first() {
        None => {
            if holds(query.body(), db, dom, env)? {
                out.push(Tuple::new(prefix.clone()));
            }
            Ok(())
        }
        Some((v, rest)) => {
            let domain: &[Value] = match v.sort {
                Sort::Base => dom.base(),
                Sort::Num => dom.num(),
            };
            for value in domain {
                env.insert(v.name.clone(), Bound::from_value(value));
                prefix.push(value.clone());
                enumerate_free(rest, query, db, dom, env, prefix, out)?;
                prefix.pop();
                env.remove(&v.name);
            }
            Ok(())
        }
    }
}

/// Checks whether a specific candidate tuple is a naive answer:
/// binds the free variables to the candidate's values and evaluates.
pub fn holds_for_candidate(
    query: &Query,
    db: &Database,
    candidate: &Tuple,
) -> Result<bool, EngineError> {
    if candidate.arity() != query.arity() {
        return Err(EngineError::CandidateArity {
            expected: query.arity(),
            actual: candidate.arity(),
        });
    }
    let mut env = Env::new();
    for (i, (v, value)) in query.free_vars().iter().zip(candidate.values()).enumerate() {
        if value.sort() != v.sort {
            return Err(EngineError::CandidateSort { position: i, expected: v.sort });
        }
        env.insert(v.name.clone(), Bound::from_value(value));
    }
    let dom = ActiveDomain::collect(db, query, candidate.values());
    holds(query.body(), db, &dom, &mut env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qarith_query::{BaseTerm, NumTerm};
    use qarith_types::{BaseNullId, Column, RelationSchema};

    fn db_r(tuples: Vec<Vec<Value>>) -> Database {
        let mut db = Database::new();
        let schema = RelationSchema::new("R", vec![Column::base("a"), Column::num("x")]).unwrap();
        let mut r = Relation::empty(schema);
        for t in tuples {
            r.insert_values(t).unwrap();
        }
        db.add_relation(r).unwrap();
        db
    }

    fn q_select_all(db: &Database) -> Query {
        Query::new(
            vec![TypedVar::base("a"), TypedVar::num("x")],
            Formula::rel("R", vec![Arg::Base(BaseTerm::var("a")), Arg::Num(NumTerm::var("x"))]),
            &db.catalog(),
        )
        .unwrap()
    }

    #[test]
    fn identity_query_returns_tuples_with_nulls() {
        // §2: on R = {(1, ⊥)}, returning R yields (1, ⊥) (Lipski
        // semantics), not ∅.
        let db = db_r(vec![vec![Value::int(1), Value::NumNull(NumNullId(0))]]);
        let q = q_select_all(&db);
        let answers = evaluate(&q, &db).unwrap();
        assert_eq!(answers, vec![Tuple::new(vec![Value::int(1), Value::NumNull(NumNullId(0))])]);
    }

    #[test]
    fn selection_with_comparison_on_constants() {
        let db =
            db_r(vec![vec![Value::int(1), Value::num(5)], vec![Value::int(2), Value::num(15)]]);
        let q = Query::new(
            vec![TypedVar::base("a")],
            Formula::exists(
                vec![TypedVar::num("x")],
                Formula::and(vec![
                    Formula::rel(
                        "R",
                        vec![Arg::Base(BaseTerm::var("a")), Arg::Num(NumTerm::var("x"))],
                    ),
                    Formula::cmp(NumTerm::var("x"), CompareOp::Gt, NumTerm::int(10)),
                ]),
            ),
            &db.catalog(),
        )
        .unwrap();
        let answers = evaluate(&q, &db).unwrap();
        assert_eq!(answers, vec![Tuple::new(vec![Value::int(2)])]);
    }

    #[test]
    fn comparison_on_null_errors() {
        let db = db_r(vec![vec![Value::int(1), Value::NumNull(NumNullId(0))]]);
        let q = Query::new(
            vec![TypedVar::base("a")],
            Formula::exists(
                vec![TypedVar::num("x")],
                Formula::and(vec![
                    Formula::rel(
                        "R",
                        vec![Arg::Base(BaseTerm::var("a")), Arg::Num(NumTerm::var("x"))],
                    ),
                    Formula::cmp(NumTerm::var("x"), CompareOp::Gt, NumTerm::int(10)),
                ]),
            ),
            &db.catalog(),
        )
        .unwrap();
        assert!(matches!(evaluate(&q, &db), Err(EngineError::NullComparison { .. })));
    }

    #[test]
    fn null_equality_follows_fresh_constant_semantics() {
        // R = {(1, ⊤0), (2, ⊤0), (3, ⊤1)}; q(a,b) = ∃x R(a,x) ∧ R(b,x) ∧ ¬a=b
        let db = db_r(vec![
            vec![Value::int(1), Value::NumNull(NumNullId(0))],
            vec![Value::int(2), Value::NumNull(NumNullId(0))],
            vec![Value::int(3), Value::NumNull(NumNullId(1))],
        ]);
        let q = Query::new(
            vec![TypedVar::base("a"), TypedVar::base("b")],
            Formula::exists(
                vec![TypedVar::num("x")],
                Formula::and(vec![
                    Formula::rel(
                        "R",
                        vec![Arg::Base(BaseTerm::var("a")), Arg::Num(NumTerm::var("x"))],
                    ),
                    Formula::rel(
                        "R",
                        vec![Arg::Base(BaseTerm::var("b")), Arg::Num(NumTerm::var("x"))],
                    ),
                    Formula::not(Formula::base_eq(BaseTerm::var("a"), BaseTerm::var("b"))),
                ]),
            ),
            &db.catalog(),
        )
        .unwrap();
        let mut answers = evaluate(&q, &db).unwrap();
        answers.sort();
        // Only ids 1 and 2 share the same null ⊤0; ⊤1 matches nothing else.
        assert_eq!(
            answers,
            vec![
                Tuple::new(vec![Value::int(1), Value::int(2)]),
                Tuple::new(vec![Value::int(2), Value::int(1)]),
            ]
        );
    }

    #[test]
    fn universal_quantification() {
        // ∀x:num R("all", x)? On a db where "all" pairs with every num value.
        let db = db_r(vec![
            vec![Value::str("all"), Value::num(1)],
            vec![Value::str("all"), Value::num(2)],
            vec![Value::str("some"), Value::num(1)],
        ]);
        let q_all = Query::boolean(
            Formula::forall(
                vec![TypedVar::num("x")],
                Formula::rel(
                    "R",
                    vec![Arg::Base(BaseTerm::str("all")), Arg::Num(NumTerm::var("x"))],
                ),
            ),
            &db.catalog(),
        )
        .unwrap();
        assert_eq!(evaluate(&q_all, &db).unwrap().len(), 1);
        let q_some = Query::boolean(
            Formula::forall(
                vec![TypedVar::num("x")],
                Formula::rel(
                    "R",
                    vec![Arg::Base(BaseTerm::str("some")), Arg::Num(NumTerm::var("x"))],
                ),
            ),
            &db.catalog(),
        )
        .unwrap();
        assert!(evaluate(&q_some, &db).unwrap().is_empty());
    }

    #[test]
    fn candidate_check_matches_enumeration() {
        let db = db_r(vec![
            vec![Value::int(1), Value::num(5)],
            vec![Value::BaseNull(BaseNullId(0)), Value::num(7)],
        ]);
        let q = q_select_all(&db);
        let answers = evaluate(&q, &db).unwrap();
        for t in &answers {
            assert!(holds_for_candidate(&q, &db, t).unwrap());
        }
        let non_answer = Tuple::new(vec![Value::int(1), Value::num(7)]);
        assert!(!holds_for_candidate(&q, &db, &non_answer).unwrap());
        // Base null in a candidate works (fresh-constant semantics).
        let null_answer = Tuple::new(vec![Value::BaseNull(BaseNullId(0)), Value::num(7)]);
        assert!(holds_for_candidate(&q, &db, &null_answer).unwrap());
    }

    #[test]
    fn candidate_shape_is_checked() {
        let db = db_r(vec![vec![Value::int(1), Value::num(5)]]);
        let q = q_select_all(&db);
        assert!(matches!(
            holds_for_candidate(&q, &db, &Tuple::new(vec![Value::int(1)])),
            Err(EngineError::CandidateArity { .. })
        ));
        assert!(matches!(
            holds_for_candidate(&q, &db, &Tuple::new(vec![Value::num(1), Value::num(5)])),
            Err(EngineError::CandidateSort { position: 0, .. })
        ));
    }

    #[test]
    fn arithmetic_on_complete_data_works() {
        // x·x > 20 with x from data.
        let db = db_r(vec![vec![Value::int(1), Value::num(4)], vec![Value::int(2), Value::num(5)]]);
        let q = Query::new(
            vec![TypedVar::base("a")],
            Formula::exists(
                vec![TypedVar::num("x")],
                Formula::and(vec![
                    Formula::rel(
                        "R",
                        vec![Arg::Base(BaseTerm::var("a")), Arg::Num(NumTerm::var("x"))],
                    ),
                    Formula::cmp(
                        NumTerm::var("x").mul(NumTerm::var("x")),
                        CompareOp::Gt,
                        NumTerm::int(20),
                    ),
                ]),
            ),
            &db.catalog(),
        )
        .unwrap();
        assert_eq!(evaluate(&q, &db).unwrap(), vec![Tuple::new(vec![Value::int(2)])]);
    }
}
