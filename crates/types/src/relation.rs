use std::collections::HashSet;
use std::fmt;

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
#[derive(Clone)]
pub struct Relation {
    schema: RelationSchema,
    tuples: Vec<Tuple>,
    seen: HashSet<Tuple>,
}

impl Relation {
    /// An empty relation with the given schema.
    pub fn empty(schema: RelationSchema) -> Relation {
        Relation { schema, tuples: Vec::new(), seen: HashSet::new() }
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
        true
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
        for (i, v) in tuple.values().iter().enumerate() {
            let expected = self.schema.sort_of(i);
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

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{} tuples]", self.schema.name(), self.tuples.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::{NumNullId, Value};

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

    #[test]
    fn sorts_checked() {
        let mut r = Relation::empty(r_schema());
        let e = r.insert_values(vec![Value::num(1), Value::num(2)]);
        assert!(matches!(e, Err(TypeError::SortMismatch { column: 0, .. })));
        let e = r.insert_values(vec![Value::int(1), Value::int(2)]);
        assert!(matches!(e, Err(TypeError::SortMismatch { column: 1, .. })));
    }
}
