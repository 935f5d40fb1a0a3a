//! Golden digest of the candidate join.
//!
//! One FNV-1a digest covers everything [`cq::execute_recorded`] returns
//! on a fixed corpus: each candidate's tuple, formula (`Debug`),
//! derivation count, `certain` and `truncated` flags, the read
//! footprint (`Debug`), and the error of every run that fails. The
//! corpus:
//!
//! * the ten family templates on the tiny and small sales databases, at
//!   their own literals and at eight seeded redraws of each literal
//!   (times a factor in [0.5, 1.5)), under `LIMIT 25` and exhaustive
//!   options;
//! * a seeded corpus of random conjunctive queries, with `+ − ×`
//!   filters and decimal constants, over random databases holding base
//!   and numerical nulls, under exhaustive, candidate-`LIMIT`,
//!   row-`LIMIT` and derivation-capped options.
//!
//! A change to how the join visits rows, binds variables, decides
//! filters or builds residual formulas moves the digest. The rows the
//! join matched are summed beside it, so the work counter is pinned on
//! the same corpus.

use std::fmt::Write as _;

use qarith::datagen::sales::sales_database;
use qarith::engine::cq::{self, CqOptions};
use qarith::numeric::Fnv1a64;
use qarith::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The digest of the whole corpus.
const GOLDEN_DIGEST: u64 = 0x036c_d604_e733_7e2c;

/// The rows the join matched over the whole corpus (runs that fail
/// count none).
const GOLDEN_JOIN_ROWS: u64 = 172_499;

/// Folds one run of `query` into `digest`, returning the rows its join
/// matched.
fn absorb(digest: &mut Fnv1a64, query: &Query, db: &Database, opts: &CqOptions) -> u64 {
    match cq::execute_recorded(query, db, opts) {
        Ok((candidates, footprint, rows)) => {
            for c in &candidates {
                write!(
                    digest,
                    "{:?}|{:?}|{}|{}|{};",
                    c.tuple, c.formula, c.derivations, c.certain, c.truncated
                )
                .unwrap();
            }
            write!(digest, "{footprint:?}#").unwrap();
            rows
        }
        Err(e) => {
            write!(digest, "error {e:?}#").unwrap();
            0
        }
    }
}

/// `sql` with every numeric literal before `LIMIT` multiplied by a
/// seeded factor `n / 10^6`, `n` in `[10^6 / 2, 3 · 10^6 / 2)`, written
/// exactly.
fn redraw(sql: &str, rng: &mut StdRng) -> String {
    let (body, limit) = sql.split_at(sql.find(" LIMIT ").unwrap_or(sql.len()));
    let bytes = body.as_bytes();
    let mut out = String::new();
    let mut i = 0;
    while i < bytes.len() {
        let in_word =
            i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || b"_.".contains(&bytes[i - 1]));
        if !bytes[i].is_ascii_digit() || in_word {
            out.push(char::from(bytes[i]));
            i += 1;
            continue;
        }
        let end = i + bytes[i..].iter().take_while(|c| c.is_ascii_digit() || **c == b'.').count();
        let (int, frac) = body[i..end].split_once('.').unwrap_or((&body[i..end], ""));
        let mantissa: u128 = format!("{int}{frac}").parse().unwrap();
        let value = mantissa * u128::from(rng.gen_range(500_000u64..1_500_000));
        let digits = frac.len() as u32 + 6;
        let unit = 10u128.pow(digits);
        write!(out, "{}.{:0width$}", value / unit, value % unit, width = digits as usize).unwrap();
        i = end;
    }
    out.push_str(limit);
    out
}

/// The family templates on one sales database.
fn sales_corpus(digest: &mut Fnv1a64, scale: WorkloadScale) -> u64 {
    let db = sales_database(&scale.params(), 2020);
    let catalog = db.catalog();
    let mut rng = StdRng::seed_from_u64(0x601D);
    let mut rows = 0;
    for family in QueryFamily::all() {
        for query in family.queries() {
            let mut variants = vec![query.sql.clone()];
            variants.extend((0..8).map(|_| redraw(&query.sql, &mut rng)));
            variants.dedup();
            for sql in &variants {
                let lowered = qarith::sql::compile(sql, &catalog).unwrap();
                for opts in [CqOptions::for_limit(Some(25)), CqOptions::default()] {
                    rows += absorb(digest, &lowered.query, &db, &opts);
                }
            }
        }
    }
    rows
}

/// `10^20`: the product of two overflows `i128`.
fn big() -> Rational {
    Rational::from_int(10).checked_pow(20).unwrap()
}

/// A decimal constant: tenths in [-30, 30], or rarely [`big`].
fn decimal(rng: &mut StdRng) -> Rational {
    if rng.gen_bool(0.05) {
        return big();
    }
    Rational::new(rng.gen_range(-300i128..=300), 10)
}

fn base_value(rng: &mut StdRng, nulls: &mut u32) -> Value {
    match rng.gen_range(0..6) {
        0 => {
            *nulls += 1;
            Value::BaseNull(BaseNullId(*nulls % 3))
        }
        1 => Value::str("k"),
        n => Value::int(n as i64 - 2),
    }
}

fn num_value(rng: &mut StdRng, nulls: &mut u32) -> Value {
    if rng.gen_bool(0.3) {
        *nulls += 1;
        Value::NumNull(NumNullId(*nulls))
    } else {
        Value::Num(Rational::new(rng.gen_range(-40i128..=40), 4))
    }
}

/// `R(a, b, x, y)`, `S(b, z)` and `T(a, w)` with a few rows each.
fn random_db(rng: &mut StdRng) -> Database {
    let mut db = Database::new();
    let (mut base_nulls, mut num_nulls) = (0, 0);
    let shapes: [(&str, &[Sort]); 3] = [
        ("R", &[Sort::Base, Sort::Base, Sort::Num, Sort::Num]),
        ("S", &[Sort::Base, Sort::Num]),
        ("T", &[Sort::Base, Sort::Num]),
    ];
    for (name, sorts) in shapes {
        let columns = sorts
            .iter()
            .enumerate()
            .map(|(i, sort)| match sort {
                Sort::Base => Column::base(&format!("c{i}")),
                Sort::Num => Column::num(&format!("c{i}")),
            })
            .collect();
        let mut relation = Relation::empty(RelationSchema::new(name, columns).unwrap());
        for _ in 0..rng.gen_range(0..9) {
            let row = sorts
                .iter()
                .map(|sort| match sort {
                    Sort::Base => base_value(rng, &mut base_nulls),
                    Sort::Num => num_value(rng, &mut num_nulls),
                })
                .collect();
            relation.insert_values(row).unwrap();
        }
        db.add_relation(relation).unwrap();
    }
    db
}

/// A `+ − ×` term over `vars` and decimal constants.
fn term(rng: &mut StdRng, vars: &[String], depth: u32) -> NumTerm {
    let leaf = depth == 0 || rng.gen_bool(0.4);
    if leaf {
        return match vars.len() {
            n if n > 0 && rng.gen_bool(0.7) => NumTerm::var(&vars[rng.gen_range(0..n)]),
            _ => NumTerm::Const(decimal(rng)),
        };
    }
    let (l, r) = (term(rng, vars, depth - 1), term(rng, vars, depth - 1));
    match rng.gen_range(0..4) {
        0 => l.add(r),
        1 => l.sub(r),
        2 => l.mul(r),
        _ => l.neg(),
    }
}

/// A random conjunctive query over [`random_db`]'s relations: shared
/// base variables join, repeated numerical variables and arithmetic
/// arguments constrain, filters compare terms, and a filter may name a
/// variable no atom binds (enumerated over the active domain).
fn random_query(rng: &mut StdRng, catalog: &Catalog) -> Query {
    let arities: [(&str, &[Sort]); 3] = [
        ("R", &[Sort::Base, Sort::Base, Sort::Num, Sort::Num]),
        ("S", &[Sort::Base, Sort::Num]),
        ("T", &[Sort::Base, Sort::Num]),
    ];
    let mut base_vars: Vec<String> = Vec::new();
    let mut num_vars: Vec<String> = Vec::new();
    let mut parts = Vec::new();
    for _ in 0..rng.gen_range(1..4) {
        let (name, sorts) = arities[rng.gen_range(0..arities.len())];
        let mut args = Vec::new();
        for sort in sorts {
            args.push(match sort {
                Sort::Base => {
                    if rng.gen_bool(0.15) {
                        Arg::Base(if rng.gen_bool(0.5) {
                            BaseTerm::str("k")
                        } else {
                            BaseTerm::int(1)
                        })
                    } else {
                        let v = format!("a{}", rng.gen_range(0..3));
                        if !base_vars.contains(&v) {
                            base_vars.push(v.clone());
                        }
                        Arg::Base(BaseTerm::var(&v))
                    }
                }
                Sort::Num => match rng.gen_range(0..10) {
                    0 if !num_vars.is_empty() => {
                        Arg::Num(NumTerm::var(&num_vars[rng.gen_range(0..num_vars.len())]))
                    }
                    1 => Arg::Num(NumTerm::Const(Rational::new(rng.gen_range(-40i128..=40), 4))),
                    2 if !num_vars.is_empty() => Arg::Num(term(rng, &num_vars, 1)),
                    _ => {
                        let v = format!("x{}", num_vars.len());
                        num_vars.push(v.clone());
                        Arg::Num(NumTerm::var(&v))
                    }
                },
            });
        }
        parts.push(Formula::rel(name, args));
    }
    if rng.gen_bool(0.1) {
        num_vars.push("u".to_string());
    }
    for _ in 0..rng.gen_range(0..4) {
        let op = [CompareOp::Lt, CompareOp::Le, CompareOp::Eq, CompareOp::Gt, CompareOp::Ge]
            [rng.gen_range(0..5usize)];
        let mut lhs = term(rng, &num_vars, 2);
        if rng.gen_bool(0.05) {
            lhs = lhs.mul(NumTerm::Const(big())).mul(NumTerm::Const(big()));
        }
        parts.push(Formula::cmp(lhs, op, term(rng, &num_vars, 2)));
    }
    if base_vars.len() > 1 && rng.gen_bool(0.2) {
        parts.push(Formula::base_eq(BaseTerm::var(&base_vars[0]), BaseTerm::var(&base_vars[1])));
    }
    if !base_vars.is_empty() && rng.gen_bool(0.1) {
        parts.push(Formula::base_eq(BaseTerm::var(&base_vars[0]), BaseTerm::int(1)));
    }
    let (mut free, mut bound) = (Vec::new(), Vec::new());
    for v in &base_vars {
        (if rng.gen_bool(0.5) { &mut free } else { &mut bound }).push(TypedVar::base(v));
    }
    for v in &num_vars {
        (if rng.gen_bool(0.3) { &mut free } else { &mut bound }).push(TypedVar::num(v));
    }
    Query::new(free, Formula::exists(bound, Formula::and(parts)), catalog).unwrap()
}

fn random_corpus(digest: &mut Fnv1a64) -> u64 {
    let mut rng = StdRng::seed_from_u64(0x10_1A);
    let mut rows = 0;
    for _ in 0..40 {
        let db = random_db(&mut rng);
        let catalog = db.catalog();
        for _ in 0..25 {
            let query = random_query(&mut rng, &catalog);
            for opts in [
                CqOptions::default(),
                CqOptions::for_limit(Some(3)),
                CqOptions::with_limit(2),
                CqOptions { max_derivations_per_candidate: 2, ..CqOptions::default() },
            ] {
                rows += absorb(digest, &query, &db, &opts);
            }
        }
    }
    rows
}

#[test]
fn the_join_returns_what_it_always_returned() {
    let mut digest = Fnv1a64::new();
    let rows = sales_corpus(&mut digest, WorkloadScale::Tiny)
        + sales_corpus(&mut digest, WorkloadScale::Small)
        + random_corpus(&mut digest);
    assert_eq!(digest.finish(), GOLDEN_DIGEST, "digest {:#018x}", digest.finish());
    assert_eq!(rows, GOLDEN_JOIN_ROWS);
}

/// The error of `R(x) ∧ lhs ≥ rhs` on the one-row database `R = {1}`.
fn constant_filter_error(lhs: NumTerm, rhs: NumTerm) -> String {
    let mut db = Database::new();
    let mut r = Relation::empty(RelationSchema::new("R", vec![Column::num("x")]).unwrap());
    r.insert_values(vec![Value::num(1)]).unwrap();
    db.add_relation(r).unwrap();
    let query = Query::boolean(
        Formula::exists(
            vec![TypedVar::num("x")],
            Formula::and(vec![
                Formula::rel("R", vec![Arg::Num(NumTerm::var("x"))]),
                Formula::cmp(lhs, CompareOp::Ge, rhs),
            ]),
        ),
        &db.catalog(),
    )
    .unwrap();
    let err = cq::execute_recorded(&query, &db, &CqOptions::default()).unwrap_err();
    format!("{err:?}")
}

/// Constant filters that overflow `i128` fail the run with the error
/// of the first checked operation that overflows: the product
/// `x · 10^20 · 10^20`, and the subtraction `lhs − rhs` that decides
/// `10^38 · x ≥ −10^38`.
#[test]
fn a_constant_filter_that_overflows_fails_the_run() {
    let e = |n: u32| NumTerm::Const(Rational::from_int(10).checked_pow(n).unwrap());
    assert_eq!(
        constant_filter_error(NumTerm::var("x").mul(e(20)).mul(e(20)), NumTerm::int(1)),
        r#"Numeric(Overflow { op: "mul" })"#
    );
    assert_eq!(
        constant_filter_error(NumTerm::var("x").mul(e(38)), e(38).neg()),
        r#"Numeric(Overflow { op: "add" })"#
    );
}
