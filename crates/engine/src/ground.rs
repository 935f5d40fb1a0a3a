//! The grounding translation of Proposition 5.3.
//!
//! Given a query `q(x̄,ȳ)`, a database `D`, and a candidate tuple `(a,s)`,
//! [`ground`] constructs a quantifier-free formula `φ(z̄)` over
//! ⟨ℝ,+,·,<⟩ — with one variable `z_i` per numerical null `⊤_i` of `D` —
//! such that for every assignment `z̄ ↦ v̄` of reals:
//!
//! > `ℝ ⊨ φ(v̄)`  iff  `v_z(a,s) ∈ q(v_z(D))`,
//!
//! where `v_z` interprets `⊤_i` as `v_i`. Then `μ(q, D, (a,s)) = ν(φ)`
//! (Theorem 5.4), and the measure machinery takes over.
//!
//! The construction follows the paper literally:
//!
//! * base nulls are *fresh distinct constants* (Proposition 5.2's
//!   bijective valuation) — marked-null value equality already implements
//!   this, so no database rewriting is required;
//! * quantifiers over base variables become finite connectives over the
//!   base active domain; quantifiers over numerical variables become
//!   finite connectives over `C_num(D) ∪ N_num(D)` (plus query/candidate
//!   constants);
//! * a relation atom `R(c̄, ū)` becomes the disjunction, over the tuples
//!   of `R^D`, of conjunctions of coordinate-wise equalities (base
//!   equalities are decided eagerly; numerical ones become polynomial
//!   atoms);
//! * numerical comparisons `t ⋈ t′` become polynomial atoms
//!   `p_t − p_{t′} ⋈ 0`.
//!
//! The output size is polynomial in `|D|` for a fixed query — but
//! exponential in the number of quantifiers (data complexity is the
//! paper's yardstick, and the query is fixed there). The conjunctive
//! executor in [`crate::cq`] avoids the expansion for CQs.

use qarith_constraints::{Atom, ConstraintOp, Polynomial, QfFormula};
use qarith_query::{Arg, CompareOp, Formula, Query, TypedVar};
use qarith_types::{Database, Sort, Tuple, Value};

use crate::domain::ActiveDomain;
use crate::env::{base_term_value, null_var, term_to_polynomial, Bound, Env};
use crate::error::EngineError;

/// Maps the query-language comparison to the constraint-language operator.
pub fn constraint_op(op: CompareOp) -> ConstraintOp {
    match op {
        CompareOp::Lt => ConstraintOp::Lt,
        CompareOp::Le => ConstraintOp::Le,
        CompareOp::Eq => ConstraintOp::Eq,
        CompareOp::Ne => ConstraintOp::Ne,
        CompareOp::Gt => ConstraintOp::Gt,
        CompareOp::Ge => ConstraintOp::Ge,
    }
}

/// Grounds `query` on `db` for `candidate`, producing `φ(z̄)`.
///
/// The candidate must match the query head in arity and sorts; its base
/// components may be constants or base nulls of `D`, its numerical
/// components rationals or numerical nulls of `D` (the paper's tuples
/// "over `C(D) ∪ N(D)`").
pub fn ground(query: &Query, db: &Database, candidate: &Tuple) -> Result<QfFormula, EngineError> {
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
    translate(query.body(), db, &dom, &mut env)
}

fn translate(
    f: &Formula,
    db: &Database,
    dom: &ActiveDomain,
    env: &mut Env,
) -> Result<QfFormula, EngineError> {
    Ok(match f {
        Formula::True => QfFormula::True,
        Formula::False => QfFormula::False,
        Formula::BaseEq(l, r) => {
            // Base equality is crisp under the fresh-constant reading of
            // base nulls: decide now.
            if base_term_value(l, env)? == base_term_value(r, env)? {
                QfFormula::True
            } else {
                QfFormula::False
            }
        }
        Formula::Cmp(l, op, r) => {
            let p = term_to_polynomial(l, env)?.checked_sub(&term_to_polynomial(r, env)?)?;
            QfFormula::atom(Atom::new(p, constraint_op(*op)))
        }
        Formula::Rel { relation, args } => {
            let rel = db
                .relation(relation)
                .ok_or_else(|| EngineError::UnknownRelation { relation: relation.to_string() })?;
            // Pre-evaluate arguments.
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
            let mut disjuncts = Vec::new();
            'tuples: for t in rel.tuples() {
                let mut conj = Vec::new();
                for (e, cell) in evaled.iter().zip(t.values()) {
                    match e {
                        Evaled::Base(v) => {
                            if v != cell {
                                continue 'tuples; // this tuple cannot match
                            }
                        }
                        Evaled::Num(p) => {
                            let pv = cell_poly(cell);
                            let diff = p.checked_sub(&pv)?;
                            match diff.as_constant() {
                                Some(c) if c.is_zero() => {}
                                Some(_) => continue 'tuples,
                                None => {
                                    conj.push(QfFormula::atom(Atom::new(diff, ConstraintOp::Eq)));
                                }
                            }
                        }
                    }
                }
                disjuncts.push(QfFormula::and(conj));
            }
            QfFormula::or(disjuncts)
        }
        Formula::Not(inner) => translate(inner, db, dom, env)?.negated(),
        Formula::And(parts) => {
            let mut out = Vec::with_capacity(parts.len());
            for p in parts {
                let g = translate(p, db, dom, env)?;
                if g == QfFormula::False {
                    return Ok(QfFormula::False);
                }
                out.push(g);
            }
            QfFormula::and(out)
        }
        Formula::Or(parts) => {
            let mut out = Vec::with_capacity(parts.len());
            for p in parts {
                let g = translate(p, db, dom, env)?;
                if g == QfFormula::True {
                    return Ok(QfFormula::True);
                }
                out.push(g);
            }
            QfFormula::or(out)
        }
        Formula::Exists(vars, body) => expand(vars, body, db, dom, env, false)?,
        Formula::Forall(vars, body) => expand(vars, body, db, dom, env, true)?,
    })
}

fn expand(
    vars: &[TypedVar],
    body: &Formula,
    db: &Database,
    dom: &ActiveDomain,
    env: &mut Env,
    universal: bool,
) -> Result<QfFormula, EngineError> {
    match vars.split_first() {
        None => translate(body, db, dom, env),
        Some((v, rest)) => {
            let domain: &[Value] = match v.sort {
                Sort::Base => dom.base(),
                Sort::Num => dom.num(),
            };
            let mut parts = Vec::with_capacity(domain.len());
            for value in domain {
                env.insert(v.name.clone(), Bound::from_value(value));
                let sub = expand(rest, body, db, dom, env, universal)?;
                env.remove(&v.name);
                // Early exit on absorbing elements.
                if universal && sub == QfFormula::False {
                    return Ok(QfFormula::False);
                }
                if !universal && sub == QfFormula::True {
                    return Ok(QfFormula::True);
                }
                parts.push(sub);
            }
            Ok(if universal { QfFormula::and(parts) } else { QfFormula::or(parts) })
        }
    }
}

/// A numerical cell as a polynomial: `c` ↦ the constant `c`, `⊤_i` ↦ `z_i`.
fn cell_poly(cell: &Value) -> Polynomial {
    match cell {
        Value::Num(r) => Polynomial::constant(*r),
        Value::NumNull(id) => Polynomial::var(null_var(*id)),
        other => panic!("sort-checked numerical column holds {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qarith_numeric::Rational;
    use qarith_query::{BaseTerm, NumTerm};
    use qarith_types::{BaseNullId, Column, NumNullId, Relation, RelationSchema};

    /// R(a: base, x: num) with the given rows.
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

    #[test]
    fn boolean_query_with_one_null() {
        // q = ∃x R("k", x) ∧ x > 5, D = {R("k", ⊤0)} ⇒ φ = z0 − 5 > 0.
        let db = db_r(vec![vec![Value::str("k"), Value::NumNull(NumNullId(0))]]);
        let q = Query::boolean(
            Formula::exists(
                vec![TypedVar::num("x")],
                Formula::and(vec![
                    Formula::rel(
                        "R",
                        vec![Arg::Base(BaseTerm::str("k")), Arg::Num(NumTerm::var("x"))],
                    ),
                    Formula::cmp(NumTerm::var("x"), CompareOp::Gt, NumTerm::int(5)),
                ]),
            ),
            &db.catalog(),
        )
        .unwrap();
        let phi = ground(&q, &db, &Tuple::new(vec![])).unwrap();
        // φ must hold exactly for z0 > 5.
        assert!(phi.eval_f64(&[6.0]));
        assert!(!phi.eval_f64(&[4.0]));
        assert!(!phi.eval_f64(&[5.0]));
    }

    #[test]
    fn grounding_agrees_with_evaluation_under_valuations() {
        // Cross-check Prop 5.3: ℝ ⊨ φ(v̄) iff v(a,s) ∈ q(v(D)).
        let db = db_r(vec![
            vec![Value::str("k"), Value::NumNull(NumNullId(0))],
            vec![Value::str("k"), Value::num(7)],
            vec![Value::str("m"), Value::NumNull(NumNullId(1))],
        ]);
        // q(a) = ∃x,y R(a,x) ∧ R(a,y) ∧ x < y  (needs two distinct rows per a
        // or a null interpretable two ways — exercises equality + order).
        let q = Query::new(
            vec![TypedVar::base("a")],
            Formula::exists(
                vec![TypedVar::num("x"), TypedVar::num("y")],
                Formula::and(vec![
                    Formula::rel(
                        "R",
                        vec![Arg::Base(BaseTerm::var("a")), Arg::Num(NumTerm::var("x"))],
                    ),
                    Formula::rel(
                        "R",
                        vec![Arg::Base(BaseTerm::var("a")), Arg::Num(NumTerm::var("y"))],
                    ),
                    Formula::cmp(NumTerm::var("x"), CompareOp::Lt, NumTerm::var("y")),
                ]),
            ),
            &db.catalog(),
        )
        .unwrap();
        let candidate = Tuple::new(vec![Value::str("k")]);
        let phi = ground(&q, &db, &candidate).unwrap();

        for (v0, v1) in [(3i64, 0i64), (7, 0), (9, 0), (7, 7), (0, 5)] {
            // Evaluate φ at (v0, v1).
            let sat = phi.eval_rational(&[Rational::from_int(v0), Rational::from_int(v1)]).unwrap();
            // Evaluate q on v(D) with the valuation ⊤0 ↦ v0, ⊤1 ↦ v1.
            let val = qarith_types::Valuation::new()
                .with_num(NumNullId(0), v0)
                .with_num(NumNullId(1), v1);
            let vdb = db.complete(&val).unwrap();
            let naive_sat = crate::naive::holds_for_candidate(&q, &vdb, &candidate).unwrap();
            assert_eq!(sat, naive_sat, "valuation ⊤0={v0}, ⊤1={v1}");
        }
    }

    #[test]
    fn base_nulls_are_fresh_constants() {
        // Excluded(⊥0): q = ∃i Excluded(i) ∧ ¬(i = "id2"): true because
        // ⊥0 is a fresh constant ≠ "id2" under the bijective valuation.
        let mut db = Database::new();
        let schema = RelationSchema::new("Excluded", vec![Column::base("id")]).unwrap();
        let mut r = Relation::empty(schema);
        r.insert_values(vec![Value::BaseNull(BaseNullId(0))]).unwrap();
        db.add_relation(r).unwrap();
        let q = Query::boolean(
            Formula::exists(
                vec![TypedVar::base("i")],
                Formula::and(vec![
                    Formula::rel("Excluded", vec![Arg::Base(BaseTerm::var("i"))]),
                    Formula::not(Formula::base_eq(BaseTerm::var("i"), BaseTerm::str("id2"))),
                ]),
            ),
            &db.catalog(),
        )
        .unwrap();
        let phi = ground(&q, &db, &Tuple::new(vec![])).unwrap();
        assert_eq!(phi, QfFormula::True);
    }

    #[test]
    fn universal_quantifier_expands_to_conjunction() {
        // ∀x:num (R("k",x) → x ≥ 0) on D = {R("k",⊤0), R("k",3), R("m",-1)}.
        // Numerical domain = {⊤0, 3, −1, 0}; the atom only matches "k" rows,
        // so φ ⇔ (z0 ≥ 0) (3 ≥ 0 folds to true; −1 and 0 don't join "k"
        // unless equal to a cell: −1 matches no "k" row ⇒ antecedent false).
        let db = db_r(vec![
            vec![Value::str("k"), Value::NumNull(NumNullId(0))],
            vec![Value::str("k"), Value::num(3)],
            vec![Value::str("m"), Value::num(-1)],
        ]);
        let q = Query::boolean(
            Formula::forall(
                vec![TypedVar::num("x")],
                Formula::implies(
                    Formula::rel(
                        "R",
                        vec![Arg::Base(BaseTerm::str("k")), Arg::Num(NumTerm::var("x"))],
                    ),
                    Formula::cmp(NumTerm::var("x"), CompareOp::Ge, NumTerm::int(0)),
                ),
            ),
            &db.catalog(),
        )
        .unwrap();
        let phi = ground(&q, &db, &Tuple::new(vec![])).unwrap();
        assert!(phi.eval_f64(&[5.0]));
        assert!(phi.eval_f64(&[0.0]));
        // z0 = −1: the "k" row (⊤0) violates x ≥ 0.
        assert!(!phi.eval_f64(&[-1.0]));
    }

    #[test]
    fn candidate_with_numerical_null() {
        // q(y) = R("k", y); candidate s = ⊤0. φ must be satisfied by every
        // z0 (the row R("k",⊤0) matches with y = ⊤0 for any value of ⊤0) —
        // μ = 1: this is a certain answer in the Lipski sense.
        let db = db_r(vec![vec![Value::str("k"), Value::NumNull(NumNullId(0))]]);
        let q = Query::new(
            vec![TypedVar::num("y")],
            Formula::rel("R", vec![Arg::Base(BaseTerm::str("k")), Arg::Num(NumTerm::var("y"))]),
            &db.catalog(),
        )
        .unwrap();
        let phi = ground(&q, &db, &Tuple::new(vec![Value::NumNull(NumNullId(0))])).unwrap();
        assert_eq!(phi, QfFormula::True);
        // Whereas the candidate 5 is satisfied only when z0 = 5.
        let phi5 = ground(&q, &db, &Tuple::new(vec![Value::num(5)])).unwrap();
        assert!(phi5.eval_f64(&[5.0]));
        assert!(!phi5.eval_f64(&[4.0]));
    }

    #[test]
    fn intro_example_constraint_shape() {
        // The paper's intro example grounds to
        // (z1 ≥ 0) ∧ (z0 ≥ 8) ∧ (0.7·z1 ≥ z0) modulo trivially-true parts,
        // using ⊤0 = competition price ⊥, ⊤1 = rrp ⊥′.
        let db = qarith_types::Database::new();
        // Build the intro database inline (Products/Competition/Excluded).
        let mut db = db;
        let products = RelationSchema::new(
            "Products",
            vec![Column::base("id"), Column::base("seg"), Column::num("rrp"), Column::num("dis")],
        )
        .unwrap();
        let mut p = Relation::empty(products);
        p.insert_values(vec![
            Value::str("id1"),
            Value::str("s"),
            Value::num(10),
            Value::decimal("0.8").unwrap(),
        ])
        .unwrap();
        p.insert_values(vec![
            Value::str("id2"),
            Value::str("s"),
            Value::NumNull(NumNullId(1)),
            Value::decimal("0.7").unwrap(),
        ])
        .unwrap();
        db.add_relation(p).unwrap();
        let competition = RelationSchema::new(
            "Competition",
            vec![Column::base("id"), Column::base("seg"), Column::num("p")],
        )
        .unwrap();
        let mut c = Relation::empty(competition);
        c.insert_values(vec![Value::str("c"), Value::str("s"), Value::NumNull(NumNullId(0))])
            .unwrap();
        db.add_relation(c).unwrap();
        let excluded =
            RelationSchema::new("Excluded", vec![Column::base("id"), Column::base("seg")]).unwrap();
        let mut e = Relation::empty(excluded);
        e.insert_values(vec![Value::BaseNull(BaseNullId(0)), Value::str("s")]).unwrap();
        db.add_relation(e).unwrap();

        // q(s) = ∀i,r,d,i′,p (P(i,s,r,d) ∧ ¬E(i,s) ∧ C(i′,s,p)) →
        //          ((r·d ≤ p) ∧ r ≥ 0 ∧ d ≥ 0 ∧ p ≥ 0)
        //
        // as written in the paper's introduction.  Grounding yields
        // z0 ≥ 8 (from id1), z1 ≥ 0 and 0.7·z1 ≤ z0 (from id2), z0 ≥ 0 —
        // where z0 = ⊤0 (competition price ⊥) and z1 = ⊤1 (rrp ⊥′).
        // (The paper's displayed constraint (1) flips the sign of the
        // third atom relative to its own query; see EXPERIMENTS.md V1 for
        // how we reproduce both readings.)
        let body = Formula::forall(
            vec![
                TypedVar::base("i"),
                TypedVar::num("r"),
                TypedVar::num("d"),
                TypedVar::base("ip"),
                TypedVar::num("p"),
            ],
            Formula::implies(
                Formula::and(vec![
                    Formula::rel(
                        "Products",
                        vec![
                            Arg::Base(BaseTerm::var("i")),
                            Arg::Base(BaseTerm::var("s")),
                            Arg::Num(NumTerm::var("r")),
                            Arg::Num(NumTerm::var("d")),
                        ],
                    ),
                    Formula::not(Formula::rel(
                        "Excluded",
                        vec![Arg::Base(BaseTerm::var("i")), Arg::Base(BaseTerm::var("s"))],
                    )),
                    Formula::rel(
                        "Competition",
                        vec![
                            Arg::Base(BaseTerm::var("ip")),
                            Arg::Base(BaseTerm::var("s")),
                            Arg::Num(NumTerm::var("p")),
                        ],
                    ),
                ]),
                Formula::and(vec![
                    Formula::cmp(
                        NumTerm::var("r").mul(NumTerm::var("d")),
                        CompareOp::Le,
                        NumTerm::var("p"),
                    ),
                    Formula::cmp(NumTerm::var("r"), CompareOp::Ge, NumTerm::int(0)),
                    Formula::cmp(NumTerm::var("d"), CompareOp::Ge, NumTerm::int(0)),
                    Formula::cmp(NumTerm::var("p"), CompareOp::Ge, NumTerm::int(0)),
                ]),
            ),
        );
        let q = Query::new(vec![TypedVar::base("s")], body, &db.catalog()).unwrap();
        let phi = ground(&q, &db, &Tuple::new(vec![Value::str("s")])).unwrap();

        // Expected region: z0 ≥ 8 ∧ z1 ≥ 0 ∧ 0.7·z1 ≤ z0.
        let inside = [[9.0f64, 2.0], [8.0, 0.0], [100.0, 100.0]];
        let outside = [[7.0f64, 2.0], [9.0, -1.0], [9.0, 20.0], [-1.0, 5.0]];
        for pt in inside {
            assert!(phi.eval_f64(&pt), "should satisfy at {pt:?}");
        }
        for pt in outside {
            assert!(!phi.eval_f64(&pt), "should fail at {pt:?}");
        }
    }
}
