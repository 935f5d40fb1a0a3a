use std::collections::hash_map::RandomState;
use std::collections::HashSet;
use std::fmt;
use std::hash::BuildHasher;
use std::sync::OnceLock;

use crate::error::TypeError;
use crate::schema::RelationSchema;
use crate::tuple::Tuple;
use crate::value::Value;

/// A typed relation instance: a schema plus a set of tuples.
///
/// Tuples are kept in insertion order (deterministic evaluation and
/// benchmarks) with a hash set alongside for set semantics — the model of
/// §2 interprets relations as finite *sets*. The list and the set hold
/// clones of one shared [`Tuple`] per row, so a row is stored once and
/// cloning a relation copies no values.
///
/// Each column has one lazily built [`ColumnIndex`]
/// ([`Relation::column_index`]). An index describes exactly the rows it
/// was built from: [`Relation::insert`] and [`Relation::remove`], the
/// only mutators, drop every built index when they change the rows. So
/// every reader of one relation version, such as the plan builds of
/// every epoch that shares an `Arc<Relation>`, shares its indexes.
pub struct Relation {
    schema: RelationSchema,
    tuples: Vec<Tuple>,
    seen: HashSet<Tuple>,
    indexes: Box<[OnceLock<ColumnIndex>]>,
}

/// One empty index slot per column.
fn unbuilt_indexes(arity: usize) -> Box<[OnceLock<ColumnIndex>]> {
    (0..arity).map(|_| OnceLock::new()).collect()
}

impl Relation {
    /// An empty relation with the given schema.
    pub fn empty(schema: RelationSchema) -> Relation {
        let indexes = unbuilt_indexes(schema.arity());
        Relation { schema, tuples: Vec::new(), seen: HashSet::new(), indexes }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` iff the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The tuples in insertion order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Type-checks and inserts a tuple. Duplicates are silently ignored
    /// (set semantics). Returns whether the tuple was new.
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool, TypeError> {
        self.check(&tuple)?;
        if self.seen.contains(&tuple) {
            return Ok(false);
        }
        self.seen.insert(tuple.clone());
        self.tuples.push(tuple);
        self.drop_indexes();
        Ok(true)
    }

    /// Inserts from a vector of values.
    pub fn insert_values(&mut self, values: Vec<Value>) -> Result<bool, TypeError> {
        self.insert(Tuple::new(values))
    }

    /// Membership test.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.seen.contains(tuple)
    }

    /// Removes a tuple, preserving the relative insertion order of the
    /// survivors (digests hash tuples in stored order, so removal must
    /// not shuffle). Returns whether the tuple was present.
    pub fn remove(&mut self, tuple: &Tuple) -> bool {
        if !self.seen.remove(tuple) {
            return false;
        }
        self.tuples.retain(|t| t != tuple);
        self.drop_indexes();
        true
    }

    /// The index of column `column` over the current rows, built on
    /// first use. Concurrent first uses build it once: the others wait
    /// for that build and share it. `None` if the relation has no such
    /// column or more rows than `u32` row ids address.
    pub fn column_index(&self, column: usize) -> Option<&ColumnIndex> {
        let slot = self.indexes.get(column)?;
        let rows = u32::try_from(self.tuples.len()).ok()?;
        Some(slot.get_or_init(|| ColumnIndex::build(&self.tuples, column, rows)))
    }

    fn drop_indexes(&mut self) {
        for slot in &mut *self.indexes {
            slot.take();
        }
    }

    /// Type-checks a tuple against the schema without storing it (the
    /// write path validates replacements before mutating).
    pub fn check_tuple(&self, tuple: &Tuple) -> Result<(), TypeError> {
        self.check(tuple)
    }

    fn check(&self, tuple: &Tuple) -> Result<(), TypeError> {
        if tuple.arity() != self.schema.arity() {
            return Err(TypeError::ArityMismatch {
                relation: self.schema.name().to_string(),
                expected: self.schema.arity(),
                actual: tuple.arity(),
            });
        }
        for (i, (v, column)) in tuple.values().iter().zip(self.schema.columns()).enumerate() {
            let expected = column.sort();
            if v.sort() != expected {
                return Err(TypeError::SortMismatch {
                    relation: self.schema.name().to_string(),
                    column: i,
                    expected,
                    actual: v.sort(),
                });
            }
        }
        Ok(())
    }
}

impl Clone for Relation {
    /// Copies the rows but none of the built indexes: the copy a write
    /// makes (see `Database::relation_mut`) is about to change, which
    /// would drop them anyway.
    fn clone(&self) -> Relation {
        Relation {
            schema: self.schema.clone(),
            tuples: self.tuples.clone(),
            seen: self.seen.clone(),
            indexes: unbuilt_indexes(self.schema.arity()),
        }
    }
}

/// The rows of one column grouped by a keyed hash of their value.
///
/// Row ids are sorted by `(hash, row)` and stored as two arrays: 12
/// bytes a row in two allocations, however many distinct values the
/// column holds. [`ColumnIndex::rows`] returns the rows whose value
/// hashes like the probe: every row holding the value, in ascending
/// row order, plus any row whose different value collides with it.
/// Callers re-check the value. The hash is keyed per index
/// ([`RandomState`]), because the values come from client writes.
pub struct ColumnIndex {
    state: RandomState,
    hashes: Box<[u64]>,
    rows: Box<[u32]>,
}

impl ColumnIndex {
    /// Indexes column `column` of `tuples`, which number `rows`.
    fn build(tuples: &[Tuple], column: usize, rows: u32) -> ColumnIndex {
        let state = RandomState::new();
        let mut pairs = Vec::with_capacity(tuples.len());
        pairs.extend(
            (0..rows)
                .zip(tuples)
                .filter_map(|(row, t)| t.values().get(column).map(|v| (state.hash_one(v), row))),
        );
        pairs.sort_unstable();
        let mut hashes = Vec::with_capacity(pairs.len());
        let mut rows = Vec::with_capacity(pairs.len());
        for (hash, row) in pairs {
            hashes.push(hash);
            rows.push(row);
        }
        ColumnIndex { state, hashes: hashes.into_boxed_slice(), rows: rows.into_boxed_slice() }
    }

    /// A superset of the rows whose value in this column is `value`,
    /// ascending.
    pub fn rows(&self, value: &Value) -> &[u32] {
        let hash = self.state.hash_one(value);
        let start = self.hashes.partition_point(|&h| h < hash);
        let end = self.hashes.partition_point(|&h| h <= hash);
        self.rows.get(start..end).unwrap_or_default()
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{} tuples]", self.schema.name(), self.tuples.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::{BaseNullId, NumNullId, Value};

    fn r_schema() -> RelationSchema {
        RelationSchema::new("R", vec![Column::base("a"), Column::num("x")]).unwrap()
    }

    #[test]
    fn insertion_and_set_semantics() {
        let mut r = Relation::empty(r_schema());
        assert!(r.insert_values(vec![Value::int(1), Value::num(2)]).unwrap());
        assert!(!r.insert_values(vec![Value::int(1), Value::num(2)]).unwrap());
        assert!(r.insert_values(vec![Value::int(1), Value::num(3)]).unwrap());
        assert_eq!(r.len(), 2);
        assert!(r.contains(&Tuple::new(vec![Value::int(1), Value::num(2)])));
    }

    #[test]
    fn nulls_allowed_in_matching_sort() {
        let mut r = Relation::empty(r_schema());
        assert!(r.insert_values(vec![Value::int(1), Value::NumNull(NumNullId(0))]).unwrap());
    }

    #[test]
    fn arity_checked() {
        let mut r = Relation::empty(r_schema());
        let e = r.insert_values(vec![Value::int(1)]);
        assert!(matches!(e, Err(TypeError::ArityMismatch { .. })));
    }

    /// The rows `column_index` returns for `value` that really hold it.
    fn matching(r: &Relation, column: usize, value: &Value) -> Vec<u32> {
        let rows = r.column_index(column).unwrap().rows(value);
        assert!(rows.windows(2).all(|w| w[0] < w[1]), "ascending: {rows:?}");
        rows.iter()
            .copied()
            .filter(|&i| r.tuples()[i as usize].get(column) == Some(value))
            .collect()
    }

    #[test]
    fn column_index_finds_every_row_and_follows_every_change() {
        let mut r = Relation::empty(r_schema());
        for (a, x) in [(1, 10), (2, 20), (1, 30), (3, 40), (2, 50)] {
            r.insert_values(vec![Value::int(a), Value::num(x)]).unwrap();
        }
        r.insert_values(vec![Value::BaseNull(BaseNullId(0)), Value::num(60)]).unwrap();
        assert_eq!(matching(&r, 0, &Value::int(1)), [0, 2]);
        assert_eq!(matching(&r, 0, &Value::int(2)), [1, 4]);
        assert_eq!(matching(&r, 0, &Value::BaseNull(BaseNullId(0))), [5]);
        assert_eq!(matching(&r, 0, &Value::BaseNull(BaseNullId(1))), [0u32; 0]);
        assert_eq!(matching(&r, 1, &Value::num(30)), [2]);
        assert!(r.column_index(2).is_none(), "no such column");

        // An append and a removal mid-relation both drop the built
        // index, which is rebuilt over the new row ids.
        r.insert_values(vec![Value::int(1), Value::num(70)]).unwrap();
        assert_eq!(matching(&r, 0, &Value::int(1)), [0, 2, 6]);
        assert!(r.remove(&Tuple::new(vec![Value::int(2), Value::num(20)])));
        assert_eq!(matching(&r, 0, &Value::int(1)), [0, 1, 5]);
        assert_eq!(matching(&r, 0, &Value::int(2)), [3]);

        // A no-op keeps the built index; a clone starts without one.
        let built: *const ColumnIndex = r.column_index(0).unwrap();
        assert!(!r.insert_values(vec![Value::int(1), Value::num(10)]).unwrap());
        assert!(!r.remove(&Tuple::new(vec![Value::int(9), Value::num(9)])));
        assert!(std::ptr::eq(r.column_index(0).unwrap(), built));
        let copy = r.clone();
        assert!(!std::ptr::eq(copy.column_index(0).unwrap(), built));
        assert_eq!(matching(&copy, 0, &Value::int(1)), [0, 1, 5]);
    }

    #[test]
    fn sorts_checked() {
        let mut r = Relation::empty(r_schema());
        let e = r.insert_values(vec![Value::num(1), Value::num(2)]);
        assert!(matches!(e, Err(TypeError::SortMismatch { column: 0, .. })));
        let e = r.insert_values(vec![Value::int(1), Value::int(2)]);
        assert!(matches!(e, Err(TypeError::SortMismatch { column: 1, .. })));
    }
}
