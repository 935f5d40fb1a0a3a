//! Tuple-level mutations of an incomplete database.
//!
//! A [`WriteOp`] is one `INSERT`/`DELETE`/`UPDATE` of a single tuple
//! (values may introduce fresh marked nulls — the write path is how an
//! incomplete database *stays* incomplete as it evolves); a
//! [`WriteBatch`] is an ordered sequence applied atomically by
//! [`Database::apply_batch`]. Semantics are the set semantics of §2:
//! inserting a present tuple and deleting an absent one are no-ops
//! (counted, not errored — idempotent writes keep replay and
//! generation simple), and an `UPDATE` whose `old` tuple is absent
//! inserts nothing. An `UPDATE` whose `new` tuple equals its `old` one
//! is a no-op too: it leaves the relation as it was, row order
//! included.
//! Any other `UPDATE` whose `old` tuple is present counts as applied,
//! even when `new` was already present: removing `old` alone changed
//! the relation.
//!
//! Schemas are immutable: a write may only touch relations the
//! database already declares (there is no DDL), so the catalog — and
//! with it every compiled query template — survives any batch.

use crate::database::Database;
use crate::error::TypeError;
use crate::tuple::Tuple;
use crate::value::Value;

/// One tuple-level mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WriteOp {
    /// Insert a tuple (set semantics: a duplicate is a counted no-op).
    Insert {
        /// Target relation name.
        relation: String,
        /// The tuple's values, one per column.
        values: Vec<Value>,
    },
    /// Delete a tuple (deleting an absent tuple is a counted no-op).
    Delete {
        /// Target relation name.
        relation: String,
        /// The tuple's values, one per column.
        values: Vec<Value>,
    },
    /// Replace `old` by `new` — a delete followed by an insert, with
    /// the insert skipped when `old` was absent. Replacing a tuple by
    /// itself is a no-op: the row keeps its place.
    Update {
        /// Target relation name.
        relation: String,
        /// The tuple to remove.
        old: Vec<Value>,
        /// The tuple to insert in its place.
        new: Vec<Value>,
    },
}

impl WriteOp {
    /// The relation this op targets.
    pub fn relation(&self) -> &str {
        match self {
            WriteOp::Insert { relation, .. }
            | WriteOp::Delete { relation, .. }
            | WriteOp::Update { relation, .. } => relation,
        }
    }
}

/// An ordered sequence of mutations applied as one unit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WriteBatch {
    /// The ops, applied in order.
    pub ops: Vec<WriteOp>,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> WriteBatch {
        WriteBatch::default()
    }

    /// A batch of the given ops.
    pub fn of(ops: Vec<WriteOp>) -> WriteBatch {
        WriteBatch { ops }
    }

    /// Convenience: push an insert.
    pub fn insert(&mut self, relation: &str, values: Vec<Value>) -> &mut WriteBatch {
        self.ops.push(WriteOp::Insert { relation: relation.to_string(), values });
        self
    }

    /// Convenience: push a delete.
    pub fn delete(&mut self, relation: &str, values: Vec<Value>) -> &mut WriteBatch {
        self.ops.push(WriteOp::Delete { relation: relation.to_string(), values });
        self
    }

    /// Convenience: push an update.
    pub fn update(&mut self, relation: &str, old: Vec<Value>, new: Vec<Value>) -> &mut WriteBatch {
        self.ops.push(WriteOp::Update { relation: relation.to_string(), old, new });
        self
    }
}

/// What applying a batch did: op counts by effect, for the serving
/// layer's counters (an op that type-checked but changed nothing is
/// `noops`, not an error).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriteSummary {
    /// Ops that changed the database.
    pub applied: usize,
    /// Ops that were well-typed no-ops (duplicate insert, absent
    /// delete/update, update of a tuple onto itself).
    pub noops: usize,
}

impl Database {
    /// Applies one mutation. Type checking happens before any change,
    /// so an `Err` leaves the database untouched; the `Ok` bool says
    /// whether anything changed. The target relation is copied (if
    /// shared, see [`Database::relation_mut`]) only when the op does
    /// change it: a failing or no-op write leaves it shared.
    pub fn apply_write(&mut self, op: &WriteOp) -> Result<bool, TypeError> {
        let name = op.relation();
        let unknown = || TypeError::UnknownRelation { relation: name.to_string() };
        let current = self.relation(name).ok_or_else(unknown)?;
        match op {
            WriteOp::Insert { values, .. } => {
                let tuple = Tuple::new(values.clone());
                current.check_tuple(&tuple)?;
                if current.contains(&tuple) {
                    return Ok(false);
                }
                self.relation_mut(name).ok_or_else(unknown)?.insert(tuple)
            }
            WriteOp::Delete { values, .. } => {
                let tuple = Tuple::new(values.clone());
                if !current.contains(&tuple) {
                    return Ok(false);
                }
                Ok(self.relation_mut(name).ok_or_else(unknown)?.remove(&tuple))
            }
            WriteOp::Update { old, new, .. } => {
                // Check the replacement first: a sort error must not
                // leave the old tuple half-deleted.
                let new = Tuple::new(new.clone());
                current.check_tuple(&new)?;
                let old = Tuple::new(old.clone());
                if old == new || !current.contains(&old) {
                    return Ok(false);
                }
                let relation = self.relation_mut(name).ok_or_else(unknown)?;
                relation.remove(&old);
                relation.insert(new)?;
                Ok(true)
            }
        }
    }

    /// Applies a batch in order, atomically: the first error rolls the
    /// whole batch back (the database is restored to its pre-batch
    /// state), so callers never observe a partially-applied batch.
    ///
    /// The rollback copy is a [`Database::clone`], which shares every
    /// relation; each relation the batch changes is then copied once,
    /// on its first change, and the others stay shared.
    pub fn apply_batch(&mut self, batch: &WriteBatch) -> Result<WriteSummary, TypeError> {
        let before = self.clone();
        let mut summary = WriteSummary::default();
        for op in &batch.ops {
            match self.apply_write(op) {
                Ok(true) => summary.applied += 1,
                Ok(false) => summary.noops += 1,
                Err(e) => {
                    *self = before;
                    return Err(e);
                }
            }
        }
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;
    use crate::schema::{Column, RelationSchema};
    use crate::value::NumNullId;

    fn db() -> Database {
        let mut db = Database::new();
        let schema = RelationSchema::new("R", vec![Column::base("a"), Column::num("x")]).unwrap();
        let mut r = Relation::empty(schema);
        r.insert_values(vec![Value::int(1), Value::num(10)]).unwrap();
        r.insert_values(vec![Value::int(2), Value::NumNull(NumNullId(0))]).unwrap();
        db.add_relation(r).unwrap();
        db
    }

    #[test]
    fn insert_delete_update_roundtrip() {
        let mut d = db();
        let mut batch = WriteBatch::new();
        batch
            .insert("R", vec![Value::int(3), Value::NumNull(NumNullId(7))])
            .delete("R", vec![Value::int(1), Value::num(10)])
            .update(
                "R",
                vec![Value::int(2), Value::NumNull(NumNullId(0))],
                vec![Value::int(2), Value::num(5)],
            );
        let summary = d.apply_batch(&batch).unwrap();
        assert_eq!(summary, WriteSummary { applied: 3, noops: 0 });
        let r = d.relation("R").unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.contains(&Tuple::new(vec![Value::int(3), Value::NumNull(NumNullId(7))])));
        assert!(r.contains(&Tuple::new(vec![Value::int(2), Value::num(5)])));
    }

    #[test]
    fn noops_are_counted_not_errored() {
        let mut d = db();
        let mut batch = WriteBatch::new();
        batch
            .insert("R", vec![Value::int(1), Value::num(10)]) // duplicate
            .delete("R", vec![Value::int(9), Value::num(9)]) // absent
            .update("R", vec![Value::int(9), Value::num(9)], vec![Value::int(9), Value::num(8)]);
        let summary = d.apply_batch(&batch).unwrap();
        assert_eq!(summary, WriteSummary { applied: 0, noops: 3 });
        assert_eq!(d.relation("R").unwrap().len(), 2);
    }

    #[test]
    fn errors_roll_the_batch_back() {
        let mut d = db();
        let mut batch = WriteBatch::new();
        batch
            .insert("R", vec![Value::int(3), Value::num(3)]) // would apply
            .insert("Nope", vec![Value::int(1)]); // unknown relation
        let err = d.apply_batch(&batch).unwrap_err();
        assert!(matches!(err, TypeError::UnknownRelation { .. }));
        assert_eq!(d.relation("R").unwrap().len(), 2, "first op rolled back");

        let mut bad_sort = WriteBatch::new();
        bad_sort.update(
            "R",
            vec![Value::int(1), Value::num(10)],
            vec![Value::num(1), Value::num(10)], // base column gets a num
        );
        assert!(d.apply_batch(&bad_sort).is_err());
        assert!(
            d.relation("R").unwrap().contains(&Tuple::new(vec![Value::int(1), Value::num(10)])),
            "update type errors leave the old tuple in place"
        );
    }

    #[test]
    fn remove_preserves_insertion_order_of_survivors() {
        let mut d = db();
        d.relation_mut("R").unwrap().insert_values(vec![Value::int(3), Value::num(3)]).unwrap();
        d.apply_write(&WriteOp::Delete {
            relation: "R".into(),
            values: vec![Value::int(2), Value::NumNull(NumNullId(0))],
        })
        .unwrap();
        let shown: Vec<String> =
            d.relation("R").unwrap().tuples().iter().map(|t| t.values()[0].to_string()).collect();
        assert_eq!(shown, ["1", "3"], "survivors keep their relative order");
    }
}
