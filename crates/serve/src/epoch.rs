//! Epoch-versioned snapshots of a live database.
//!
//! The serving stack's bit-pinning contract says every answer is a
//! deterministic function of (database contents, options fingerprint).
//! A *mutable* database keeps that contract by versioning it: each
//! committed [`WriteBatch`](qarith_types::WriteBatch) publishes a fresh
//! immutable [`Snapshot`] — epoch number, `Arc<Database>`, and a
//! content digest — and readers pin whichever snapshot was current when
//! their request started. Writers build epoch N+1 off to the side and
//! swap one pointer; no reader ever observes a torn database, and
//! bit-pinning holds *per epoch* (the digest names which contents an
//! answer was computed against).
//!
//! Building epoch N+1 costs what the batch touches. The writer's
//! database is a clone of epoch N's, which shares every relation
//! (copy-on-write, see [`Database`]), so the batch copies only the
//! relations it changes; and [`Snapshot::next`] resumes epoch N's
//! saved digest states ([`DatabaseDigest`]) from the first changed
//! row, comparing rows by identity while epoch N is still alive.

use std::sync::Arc;

use qarith_types::{Database, DatabaseDigest};

/// One published epoch: an immutable database plus its identity.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Monotone epoch number (0 is the load-time database).
    pub epoch: u64,
    /// The database as of this epoch. Shared, never mutated: the next
    /// epoch clones and replaces it.
    pub db: Arc<Database>,
    /// Content digest of `db` ([`qarith_types::database_digest`]) —
    /// the bit-pinning identity carried on replies and checked by the
    /// torture tests.
    pub digest: u64,
    /// The saved digest states of `db`, which the next epoch's digest
    /// resumes from.
    digest_states: DatabaseDigest,
}

impl Snapshot {
    /// Epoch 0 over a freshly loaded database.
    pub fn initial(db: Database) -> Snapshot {
        let digest_states = DatabaseDigest::compute(&db, None);
        let digest = digest_states.value();
        Snapshot { epoch: 0, db: Arc::new(db), digest, digest_states }
    }

    /// The successor snapshot: `db` is the already-mutated database.
    /// The digest resumes from this snapshot's saved states wherever
    /// `db` still shares this snapshot's rows, so a `db` cloned from
    /// `self.db` and then mutated re-reads only the rows from its first
    /// change on.
    pub fn next(&self, db: Database) -> Snapshot {
        let digest_states = DatabaseDigest::compute(&db, Some((&self.db, &self.digest_states)));
        let digest = digest_states.value();
        Snapshot { epoch: self.epoch + 1, db: Arc::new(db), digest, digest_states }
    }
}

/// What one committed [`WriteBatch`](qarith_types::WriteBatch) did —
/// the new epoch's identity plus the plans it dropped, surfaced on the
/// wire as the `qarith-write/1` ack frame. A write drops no ν-cache
/// entry: entries are keyed by canonical formula, which no write can
/// make wrong (see [`qarith_core::nucache`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriteOutcome {
    /// The epoch the batch published.
    pub epoch: u64,
    /// Content digest of the published database.
    pub db_digest: u64,
    /// Ops that changed the database.
    pub applied: u64,
    /// Well-typed no-op ops (duplicate insert, absent delete/update,
    /// update of a tuple onto itself).
    pub noops: u64,
    /// Always 0, since a write drops no ν-cache key. It stays only
    /// because the repository benchmark (`perfbench/`) still reads it;
    /// the benchmark change that retires its
    /// `serve.invalidated_keys_per_write` metric deletes it.
    pub invalidated_keys: u64,
    /// Cached plans the batch dropped: those whose read footprint it
    /// affected (see `qarith_engine::cq::ReadFootprint`), and those not
    /// checked through the epoch before it.
    pub plans_invalidated: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use qarith_types::{database_digest, Column, Relation, RelationSchema, Value, WriteBatch};

    fn db() -> Database {
        let mut db = Database::new();
        let schema = RelationSchema::new("R", vec![Column::base("a"), Column::num("x")]).unwrap();
        let mut r = Relation::empty(schema);
        r.insert_values(vec![Value::int(1), Value::num(10)]).unwrap();
        db.add_relation(r).unwrap();
        let s = RelationSchema::new("S", vec![Column::base("b")]).unwrap();
        db.add_relation(Relation::empty(s)).unwrap();
        db
    }

    #[test]
    fn initial_snapshot_pins_contents() {
        let snap = Snapshot::initial(db());
        assert_eq!(snap.epoch, 0);
        assert_eq!(snap.digest, database_digest(&snap.db));
    }

    #[test]
    fn next_moves_the_epoch_and_the_digest() {
        let snap = Snapshot::initial(db());
        let mut mutated = (*snap.db).clone();
        let mut batch = WriteBatch::new();
        batch.insert("R", vec![Value::int(2), Value::num(20)]);
        mutated.apply_batch(&batch).unwrap();
        let next = snap.next(mutated);
        assert_eq!(next.epoch, 1);
        assert_ne!(next.digest, snap.digest, "contents changed, digest must move");
        assert_eq!(next.digest, database_digest(&next.db), "the resumed digest is the full one");
    }

    #[test]
    fn digest_depends_on_contents_not_history() {
        // Insert-then-delete returns to the original contents, so the
        // digest returns too (digests name states, not histories).
        let original = db();
        let mut mutated = original.clone();
        let mut batch = WriteBatch::new();
        batch.insert("R", vec![Value::int(9), Value::num(9)]);
        mutated.apply_batch(&batch).unwrap();
        assert_ne!(database_digest(&mutated), database_digest(&original));
        let mut undo = WriteBatch::new();
        undo.delete("R", vec![Value::int(9), Value::num(9)]);
        mutated.apply_batch(&undo).unwrap();
        assert_eq!(database_digest(&mutated), database_digest(&original));
    }
}
