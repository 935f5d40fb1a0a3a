//! Copy-on-write storage and the resumable digest.
//!
//! * resumed = full — over random batch sequences (inserts, deletes
//!   and updates at any position, duplicate-insert and absent-delete
//!   no-ops, batches rolled back by a type error), the digest resumed
//!   from the previous epoch equals the full digest at every epoch;
//! * isolation — a clone taken before a batch keeps its rows and its
//!   digest, and relations the batch did not change stay shared
//!   (`Arc::ptr_eq`) with it;
//! * work — exact counts of the rows a resumed digest re-reads;
//! * indexes — an epoch shares the built column indexes of every
//!   relation it shares, and a changed relation gets a fresh one while
//!   the old epoch keeps its own;
//! * an update of a tuple onto itself changes nothing: no copy, no
//!   digest change, the row keeps its place.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use qarith_types::{
    database_digest, Column, ColumnIndex, Database, DatabaseDigest, NumNullId, Relation,
    RelationSchema, Value, WriteBatch, WriteOp, DIGEST_SPAN,
};

/// Three relations in the sales database's order, each several digest
/// spans long except the last, so resumes start mid-relation.
const SIZES: [(&str, usize); 3] = [("Products", 150), ("Orders", 200), ("Market", 40)];

/// Row `i` of a relation: a key and a number that is a marked null on
/// every fifth row. Ops name rows by index, so deletes and updates of
/// resident rows and duplicate inserts are all likely.
fn row(i: usize) -> Vec<Value> {
    let x = if i % 5 == 0 { Value::NumNull(NumNullId(i as u32)) } else { Value::num(i as i64 % 7) };
    vec![Value::int(i as i64), x]
}

fn database() -> Database {
    let mut db = Database::new();
    for (name, rows) in SIZES {
        let schema = RelationSchema::new(name, vec![Column::base("k"), Column::num("x")]).unwrap();
        let mut relation = Relation::empty(schema);
        for i in 0..rows {
            relation.insert_values(row(i)).unwrap();
        }
        db.add_relation(relation).unwrap();
    }
    db
}

/// A relation name, or (rarely) one the database does not declare.
fn relation_name() -> impl Strategy<Value = String> {
    prop_oneof![
        (0usize..3).prop_map(|r| SIZES[r].0.to_string()),
        (0usize..3).prop_map(|r| SIZES[r].0.to_string()),
        (0usize..3).prop_map(|r| SIZES[r].0.to_string()),
        Just("Nope".to_string()),
    ]
}

/// A row index: resident rows of every relation, and fresh ones past
/// the largest.
fn index() -> impl Strategy<Value = usize> {
    0usize..240
}

fn write_op() -> impl Strategy<Value = WriteOp> {
    prop_oneof![
        (relation_name(), index())
            .prop_map(|(relation, i)| WriteOp::Insert { relation, values: row(i) }),
        (relation_name(), index())
            .prop_map(|(relation, i)| WriteOp::Delete { relation, values: row(i) }),
        (relation_name(), index(), index()).prop_map(|(relation, i, j)| WriteOp::Update {
            relation,
            old: row(i),
            new: row(j)
        }),
        // A sort error: a number in the base column.
        (relation_name(), index()).prop_map(|(relation, i)| WriteOp::Insert {
            relation,
            values: vec![Value::num(i as i64), Value::num(0)]
        }),
    ]
}

fn batches() -> impl Strategy<Value = Vec<Vec<WriteOp>>> {
    prop::collection::vec(prop::collection::vec(write_op(), 1..6), 1..10)
}

/// Every row of every relation, by value.
fn contents(db: &Database) -> Vec<Vec<Vec<Value>>> {
    db.relations()
        .iter()
        .map(|r| r.tuples().iter().map(|t| t.values().to_vec()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// At every epoch of a random batch sequence, the digest resumed
    /// from the previous epoch's saved states equals the full digest,
    /// and re-reads no more rows than the full digest does.
    #[test]
    fn resumed_digest_equals_full_digest_at_every_epoch(batches in batches()) {
        let mut db = database();
        let mut saved = DatabaseDigest::compute(&db, None);
        prop_assert_eq!(saved.value(), database_digest(&db));
        for ops in batches {
            let mut next = db.clone();
            let outcome = next.apply_batch(&WriteBatch::of(ops));
            let resumed = DatabaseDigest::compute(&next, Some((&db, &saved)));
            prop_assert_eq!(resumed.value(), database_digest(&next));
            prop_assert!(resumed.rows_read() <= next.stats().tuples);
            if outcome.is_err() {
                prop_assert_eq!(resumed.value(), saved.value(), "a rolled-back batch changes nothing");
                prop_assert_eq!(resumed.rows_read(), 0);
            }
            db = next;
            saved = resumed;
        }
    }

    /// A clone taken before a batch keeps its rows and its digest, and
    /// shares every relation the batch did not change.
    #[test]
    fn a_clone_taken_before_a_batch_is_unaffected(batches in batches()) {
        let mut db = database();
        for ops in batches {
            let before = db.clone();
            let (rows, digest) = (contents(&before), database_digest(&before));
            let named: BTreeSet<String> = ops.iter().map(|op| op.relation().to_string()).collect();
            let outcome = db.apply_batch(&WriteBatch::of(ops));
            prop_assert_eq!(contents(&before), rows);
            prop_assert_eq!(database_digest(&before), digest);
            for (old, new) in before.relations().iter().zip(db.relations()) {
                if outcome.is_err() || !named.contains(old.schema().name()) {
                    prop_assert!(
                        Arc::ptr_eq(old, new),
                        "{} was copied by a batch that left it alone",
                        old.schema().name()
                    );
                }
            }
            if outcome.is_err() {
                prop_assert_eq!(contents(&db), contents(&before), "a failed batch rolls back");
            }
        }
    }
}

/// Digests `next` resumed from `db`, asserting it equals the full one.
fn resume(db: &Database, next: &Database) -> DatabaseDigest {
    let resumed = DatabaseDigest::compute(next, Some((db, &DatabaseDigest::compute(db, None))));
    assert_eq!(resumed.value(), database_digest(next));
    resumed
}

#[test]
fn appending_to_the_last_relation_rereads_at_most_one_span_plus_the_new_rows() {
    let db = database();
    for appended in [1, 3, DIGEST_SPAN + 5] {
        let mut next = db.clone();
        let mut batch = WriteBatch::new();
        for i in 0..appended {
            batch.insert("Market", row(1_000 + i));
        }
        next.apply_batch(&batch).unwrap();
        let old_len = db.relation("Market").unwrap().len();
        let resumed = resume(&db, &next);
        assert_eq!(resumed.rows_read(), old_len % DIGEST_SPAN + appended);
        assert!(resumed.rows_read() < DIGEST_SPAN + appended);
    }
}

#[test]
fn a_change_in_the_middle_rereads_from_the_span_before_it_to_the_end() {
    let db = database();
    let mut next = db.clone();
    let mut batch = WriteBatch::new();
    batch.delete("Orders", row(130));
    next.apply_batch(&batch).unwrap();
    // From the state saved before row 128 to the end of Orders, then
    // all of Market; Products is never read.
    let orders = next.relation("Orders").unwrap().len();
    let expected = (orders - 128) + SIZES[2].1;
    assert_eq!(resume(&db, &next).rows_read(), expected);
}

#[test]
fn no_op_and_failed_batches_copy_nothing() {
    let db = database();
    let mut next = db.clone();
    let mut noops = WriteBatch::new();
    noops.insert("Orders", row(1)).delete("Products", row(999)).update("Market", row(999), row(1));
    let summary = next.apply_batch(&noops).unwrap();
    assert_eq!((summary.applied, summary.noops), (0, 3));
    let mut failing = WriteBatch::new();
    failing.insert("Orders", row(777)).insert("Orders", vec![Value::int(1)]);
    assert!(next.apply_batch(&failing).is_err());
    for (old, new) in db.relations().iter().zip(next.relations()) {
        assert!(Arc::ptr_eq(old, new), "{} was copied", old.schema().name());
    }
    assert_eq!(resume(&db, &next).rows_read(), 0);
}

/// The built index of `name`'s key column.
fn key_index<'db>(db: &'db Database, name: &str) -> &'db ColumnIndex {
    db.relation(name).unwrap().column_index(0).unwrap()
}

#[test]
fn epochs_share_the_indexes_of_the_relations_they_share() {
    let db = database();
    let built = ["Products", "Orders", "Market"].map(|name| key_index(&db, name));

    // A Market write: the next epoch shares the built Products and
    // Orders indexes, and Market's is built afresh.
    let mut next = db.clone();
    let mut batch = WriteBatch::new();
    batch.insert("Market", row(1_000));
    next.apply_batch(&batch).unwrap();
    assert!(std::ptr::eq(key_index(&next, "Products"), built[0]));
    assert!(std::ptr::eq(key_index(&next, "Orders"), built[1]));
    assert!(!std::ptr::eq(key_index(&next, "Market"), built[2]));
    assert_eq!(key_index(&next, "Market").rows(&Value::int(1_000)), [SIZES[2].1 as u32]);

    // An Orders write: the new epoch indexes its own rows, and the
    // epoch before it keeps the index it had, over its own rows.
    let mut later = next.clone();
    let mut batch = WriteBatch::new();
    batch.delete("Orders", row(130));
    later.apply_batch(&batch).unwrap();
    assert!(std::ptr::eq(key_index(&next, "Orders"), built[1]));
    assert!(!std::ptr::eq(key_index(&later, "Orders"), built[1]));
    assert!(std::ptr::eq(key_index(&later, "Products"), built[0]));
    assert_eq!(key_index(&next, "Orders").rows(&Value::int(131)), [131]);
    assert_eq!(key_index(&later, "Orders").rows(&Value::int(131)), [130]);
    assert!(key_index(&later, "Orders").rows(&Value::int(130)).is_empty());
}

#[test]
fn an_update_onto_itself_is_a_no_op_that_copies_nothing() {
    let db = database();
    let mut next = db.clone();
    let mut batch = WriteBatch::new();
    batch.update("Orders", row(3), row(3));
    let summary = next.apply_batch(&batch).unwrap();
    assert_eq!((summary.applied, summary.noops), (0, 1));
    assert_eq!(database_digest(&next), database_digest(&db));
    assert_eq!(contents(&next), contents(&db), "the row keeps its place");
    for (old, new) in db.relations().iter().zip(next.relations()) {
        assert!(Arc::ptr_eq(old, new), "{} was copied", old.schema().name());
    }
}
