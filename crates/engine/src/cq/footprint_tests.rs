//! Read footprints: one unit test per invalidation rule, each on a
//! write that fires that rule alone, and a randomized soundness check
//! against re-running the join on the written database.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::*;
use qarith_types::{BaseNullId, Column, NumNullId, Relation, RelationSchema, WriteBatch};

/// R(a: base, x: num) and S(b: base, y: num) with the given rows.
fn db(r: &[(Value, Value)], s: &[(Value, Value)]) -> Database {
    let mut db = Database::new();
    for (name, cols, rows) in [("R", ["a", "x"], r), ("S", ["b", "y"], s)] {
        let schema =
            RelationSchema::new(name, vec![Column::base(cols[0]), Column::num(cols[1])]).unwrap();
        let mut rel = Relation::empty(schema);
        for (key, num) in rows {
            rel.insert_values(vec![key.clone(), num.clone()]).unwrap();
        }
        db.add_relation(rel).unwrap();
    }
    db
}

fn row(key: i64, num: i64) -> (Value, Value) {
    (Value::int(key), Value::num(num))
}

fn atom(relation: &str, key: BaseTerm, num: &str) -> Formula {
    Formula::rel(relation, vec![Arg::Base(key), Arg::Num(NumTerm::var(num))])
}

/// The four query shapes the rules are about, over R and S.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// q(a) = ∃x R(a, x) ∧ x > 0: a scan that `LIMIT` can cut.
    Scan,
    /// q(a) = ∃x,b,y R(a, x) ∧ S(b, y) ∧ a = b ∧ x < y: a keyed join
    /// whose order is a size comparison.
    Join,
    /// q(a) = ∃x,y R(a, x) ∧ R(a, y) ∧ x > y: a self-join.
    SelfJoin,
    /// q(x) = R(k, x): a constant-key probe.
    Constant(i64),
    /// q(a, b) = ∃x,y R(a, x) ∧ S(b, y) ∧ x < y: a cross product, which
    /// scans S once per row of R.
    Cross,
}

fn query(shape: Shape, db: &Database) -> Query {
    let (head, binders, body) = match shape {
        Shape::Scan => (
            vec![TypedVar::base("a")],
            vec![TypedVar::num("x")],
            vec![
                atom("R", BaseTerm::var("a"), "x"),
                Formula::cmp(NumTerm::var("x"), CompareOp::Gt, NumTerm::int(0)),
            ],
        ),
        Shape::Join => (
            vec![TypedVar::base("a")],
            vec![TypedVar::num("x"), TypedVar::base("b"), TypedVar::num("y")],
            vec![
                atom("R", BaseTerm::var("a"), "x"),
                atom("S", BaseTerm::var("b"), "y"),
                Formula::base_eq(BaseTerm::var("a"), BaseTerm::var("b")),
                Formula::cmp(NumTerm::var("x"), CompareOp::Lt, NumTerm::var("y")),
            ],
        ),
        Shape::SelfJoin => (
            vec![TypedVar::base("a")],
            vec![TypedVar::num("x"), TypedVar::num("y")],
            vec![
                atom("R", BaseTerm::var("a"), "x"),
                atom("R", BaseTerm::var("a"), "y"),
                Formula::cmp(NumTerm::var("x"), CompareOp::Gt, NumTerm::var("y")),
            ],
        ),
        Shape::Constant(k) => {
            (vec![TypedVar::num("x")], vec![], vec![atom("R", BaseTerm::int(k), "x")])
        }
        Shape::Cross => (
            vec![TypedVar::base("a"), TypedVar::base("b")],
            vec![TypedVar::num("x"), TypedVar::num("y")],
            vec![
                atom("R", BaseTerm::var("a"), "x"),
                atom("S", BaseTerm::var("b"), "y"),
                Formula::cmp(NumTerm::var("x"), CompareOp::Lt, NumTerm::var("y")),
            ],
        ),
    };
    Query::new(head, Formula::exists(binders, Formula::and(body)), &db.catalog()).unwrap()
}

/// Everything `execute` reports, candidate by candidate.
fn summary(answers: &[CandidateAnswer]) -> Vec<(Tuple, QfFormula, usize, bool, bool)> {
    answers
        .iter()
        .map(|a| (a.tuple.clone(), (*a.formula).clone(), a.derivations, a.certain, a.truncated))
        .collect()
}

/// The rules `footprint` fires for `ops` applied to `before`, in the
/// order (a)–(e), plus the written database.
fn fired(footprint: &ReadFootprint, before: &Database, ops: &[WriteOp]) -> ([bool; 5], Database) {
    let mut after = before.clone();
    after.apply_batch(&WriteBatch::of(ops.to_vec())).unwrap();
    let delta = WriteDelta::new(before, &after, ops);
    let rules = [
        footprint.scanned_row_changed(&delta),
        footprint.scanned_end_moved(&delta),
        footprint.probed_key_written(&delta),
        footprint.size_order_flipped(&delta),
        footprint.whole_read_changed(&delta),
    ];
    assert_eq!(footprint.affected_by(&delta), rules.contains(&true));
    (rules, after)
}

fn insert(relation: &str, (key, num): (Value, Value)) -> WriteOp {
    WriteOp::Insert { relation: relation.into(), values: vec![key, num] }
}

fn delete(relation: &str, (key, num): (Value, Value)) -> WriteOp {
    WriteOp::Delete { relation: relation.into(), values: vec![key, num] }
}

/// Runs `shape` on `before` under a candidate `LIMIT`, asserts that
/// `ops` fire exactly `rule` ((a) = 0 … (e) = 4), and that the answer
/// on the written database does change, so the rule was needed.
fn assert_fires_alone(shape: Shape, limit: usize, before: &Database, ops: &[WriteOp], rule: usize) {
    let q = query(shape, before);
    let opts = CqOptions::with_candidate_limit(limit);
    let (kept, footprint, _) = execute_recorded(&q, before, &opts).unwrap();
    let (rules, after) = fired(&footprint, before, ops);
    let mut want = [false; 5];
    want[rule] = true;
    assert_eq!(rules, want, "{shape:?}: {footprint:?}");
    let (rerun, rerecorded, _) = execute_recorded(&q, &after, &opts).unwrap();
    assert!(
        summary(&rerun) != summary(&kept) || rerecorded != footprint,
        "{shape:?}: the write changed nothing the join read"
    );
}

#[test]
fn rule_a_a_removed_row_inside_the_scanned_prefix() {
    // LIMIT 2 stops the scan after rows 0 and 1; deleting row 0 moves
    // row 2 into the prefix.
    let before = db(&[row(1, 5), row(2, 6), row(3, 7), row(4, 8)], &[]);
    assert_fires_alone(Shape::Scan, 2, &before, &[delete("R", row(1, 5))], 0);
}

#[test]
fn rule_b_an_append_to_a_relation_scanned_to_its_end() {
    // Two of the three rows qualify, so LIMIT 5 reads R to its end; an
    // appended qualifying row is one more candidate.
    let before = db(&[row(1, 5), row(2, -1), row(3, 7)], &[]);
    assert_fires_alone(Shape::Scan, 5, &before, &[insert("R", row(9, 9))], 1);
}

#[test]
fn rule_c_an_insert_carrying_a_probed_key() {
    // The constant key probes R.a = 2 and reads no scan; the insert
    // adds a derivation under that key.
    let before = db(&[row(1, 5), row(2, 6), row(3, 7)], &[]);
    assert_fires_alone(Shape::Constant(2), 5, &before, &[insert("R", row(2, 8))], 2);
}

#[test]
fn rule_d_a_size_comparison_that_flips() {
    // R (3 rows) is smaller than S (4), so R is scanned first and S
    // probed on `a`. The scan stops at R's first row (LIMIT 1), so
    // R's appends miss it, but two of them make R the larger relation:
    // S would be scanned first.
    let before =
        db(&[row(1, 0), row(2, 0), row(3, 0)], &[row(1, 5), row(7, 5), row(8, 5), row(9, 5)]);
    assert_fires_alone(
        Shape::Join,
        1,
        &before,
        &[insert("R", row(5, 0)), insert("R", row(6, 0))],
        3,
    );
}

#[test]
fn rule_e_a_change_to_a_relation_read_whole() {
    // The cross product scans S below R's first row, so any change to
    // S counts; this one removes the first pair.
    let before = db(&[row(1, 0), row(2, 0)], &[row(5, 5), row(6, 6), row(7, 7)]);
    assert_fires_alone(Shape::Cross, 1, &before, &[delete("S", row(5, 5))], 4);
}

#[test]
fn active_domain_enumeration_reads_every_relation_whole() {
    // ∃y (y < 3): y has no relation atom, so it ranges over the active
    // domain, which every relation feeds.
    let before = db(&[row(1, 5)], &[row(2, 9)]);
    let q = Query::boolean(
        Formula::exists(
            vec![TypedVar::num("y")],
            Formula::cmp(NumTerm::var("y"), CompareOp::Lt, NumTerm::int(3)),
        ),
        &before.catalog(),
    )
    .unwrap();
    let (_, footprint, _) = execute_recorded(&q, &before, &CqOptions::default()).unwrap();
    for relation in ["R", "S"] {
        let (rules, _) = fired(&footprint, &before, &[insert(relation, row(4, 1))]);
        assert_eq!(rules, [false, false, false, false, true], "{relation}");
    }
}

#[test]
fn writes_that_miss_the_footprint_keep_it() {
    // Self-join over R, cut after the first candidate: appends and a
    // delete past the prefix, under keys nobody probed, leave it.
    let before = db(&[row(1, 5), row(1, 2), row(2, 6), row(3, 1), row(4, 4)], &[row(1, 1)]);
    let q = query(Shape::SelfJoin, &before);
    let opts = CqOptions::with_candidate_limit(1);
    let (kept, footprint, _) = execute_recorded(&q, &before, &opts).unwrap();
    let ops = [delete("R", row(4, 4)), insert("R", row(9, 9)), insert("S", row(1, 0))];
    let (rules, after) = fired(&footprint, &before, &ops);
    assert_eq!(rules, [false; 5]);
    let (rerun, rerecorded, _) = execute_recorded(&q, &after, &opts).unwrap();
    assert_eq!(summary(&rerun), summary(&kept));
    assert_eq!(rerecorded, footprint);
    // A no-op batch changes no relation, so nothing fires.
    let (rules, _) = fired(&footprint, &before, &[insert("R", row(1, 5))]);
    assert_eq!(rules, [false; 5]);
}

/// A base key: a small constant, or one of two base nulls.
fn key(rng: &mut StdRng) -> Value {
    if rng.gen_bool(0.8) {
        Value::int(rng.gen_range(0..4))
    } else {
        Value::BaseNull(BaseNullId(rng.gen_range(0..2)))
    }
}

/// A numerical cell: a small constant, or one of four numerical nulls.
fn num(rng: &mut StdRng) -> Value {
    if rng.gen_bool(0.7) {
        Value::num(rng.gen_range(-3..5))
    } else {
        Value::NumNull(NumNullId(rng.gen_range(0..4)))
    }
}

fn rows(rng: &mut StdRng) -> Vec<(Value, Value)> {
    (0..rng.gen_range(0..9)).map(|_| (key(rng), num(rng))).collect()
}

/// A tuple of `relation`: half the time one it holds, so deletes and
/// updates hit.
fn tuple(rng: &mut StdRng, db: &Database, relation: &str) -> Vec<Value> {
    let held = db.relation(relation).map_or(&[][..], Relation::tuples);
    if !held.is_empty() && rng.gen_bool(0.5) {
        held[rng.gen_range(0..held.len())].values().to_vec()
    } else {
        vec![key(rng), num(rng)]
    }
}

fn batch(rng: &mut StdRng, db: &Database) -> Vec<WriteOp> {
    (0..rng.gen_range(1..4))
        .map(|_| {
            let relation = if rng.gen_bool(0.5) { "R" } else { "S" };
            match rng.gen_range(0..3) {
                0 => {
                    WriteOp::Insert { relation: relation.into(), values: tuple(rng, db, relation) }
                }
                1 => {
                    WriteOp::Delete { relation: relation.into(), values: tuple(rng, db, relation) }
                }
                _ => WriteOp::Update {
                    relation: relation.into(),
                    old: tuple(rng, db, relation),
                    new: tuple(rng, db, relation),
                },
            }
        })
        .collect()
}

/// Soundness: on random two-relation databases with base and numerical
/// nulls, random `LIMIT` queries of every shape, and random batches,
/// whenever the footprint says a batch misses it, re-running the join
/// on the written database returns the kept candidates field for field
/// (tuple, formula, derivations, certain, truncated) and records the
/// same footprint, which is what lets a kept plan be checked again
/// against the next batch. A footprint is kept across a whole sequence
/// of batches, as the plan cache keeps it. Both outcomes must occur
/// often for every shape.
#[test]
fn a_footprint_the_batch_misses_keeps_exact_candidates() {
    let mut rng = StdRng::seed_from_u64(0x0F00_7917);
    let mut kept_and_dropped = [[0usize; 2]; 5];
    for case in 0..300 {
        let shape = match case % 5 {
            0 => Shape::Scan,
            1 => Shape::Join,
            2 => Shape::SelfJoin,
            3 => Shape::Constant(rng.gen_range(0..4)),
            _ => Shape::Cross,
        };
        let limit = rng.gen_range(1..4);
        let opts = if rng.gen_bool(0.75) {
            CqOptions::with_candidate_limit(limit)
        } else {
            CqOptions::with_limit(limit)
        };
        let mut current = db(&rows(&mut rng), &rows(&mut rng));
        let q = query(shape, &current);
        let (mut kept, mut footprint, _) = execute_recorded(&q, &current, &opts).unwrap();
        for _ in 0..4 {
            let ops = batch(&mut rng, &current);
            let (rules, after) = fired(&footprint, &current, &ops);
            let (rerun, rerecorded, _) = execute_recorded(&q, &after, &opts).unwrap();
            if rules.contains(&true) {
                kept_and_dropped[case % 5][1] += 1;
                (kept, footprint) = (rerun, rerecorded);
            } else {
                kept_and_dropped[case % 5][0] += 1;
                assert_eq!(summary(&rerun), summary(&kept), "case {case}, {shape:?}, {ops:?}");
                assert_eq!(rerecorded, footprint, "case {case}, {shape:?}, {ops:?}");
            }
            current = after;
        }
    }
    for (shape, [kept, dropped]) in kept_and_dropped.iter().enumerate() {
        assert!(*kept >= 20 && *dropped >= 20, "shape {shape}: kept {kept}, dropped {dropped}");
    }
}
