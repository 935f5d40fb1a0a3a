use std::fmt;
use std::sync::Arc;

use crate::value::Value;

/// A database tuple: a fixed-width sequence of [`Value`]s.
///
/// Tuples are immutable once built and stored as a shared slice
/// (`Arc<[Value]>`): two words wide, which matters when relations hold
/// hundreds of thousands of them, and a clone is a reference-count
/// bump rather than a copy. A relation's row list and its set index
/// therefore share one allocation per row, and a relation copied for
/// a write shares every row it does not change with the original,
/// which is how [`DatabaseDigest`](crate::DatabaseDigest) finds the
/// rows a write left alone.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl Tuple {
    /// Builds a tuple from values.
    pub fn new(values: impl Into<Arc<[Value]>>) -> Tuple {
        Tuple { values: values.into() }
    }

    /// `true` iff both tuples are clones of one built tuple (pointer
    /// identity, not value equality). Identity implies equality; the
    /// converse fails for tuples built separately from equal values.
    pub(crate) fn same_row(a: &Tuple, b: &Tuple) -> bool {
        Arc::ptr_eq(&a.values, &b.values)
    }

    /// Width of the tuple.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The `i`-th value (`None` past the last one).
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.values.get(i)
    }

    /// `true` iff any component is a null.
    pub fn has_nulls(&self) -> bool {
        self.values.iter().any(Value::is_null)
    }

    /// A new tuple with each value transformed by `f`.
    pub fn map(&self, f: impl FnMut(&Value) -> Value) -> Tuple {
        Tuple { values: self.values.iter().map(f).collect() }
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{NumNullId, Value};

    #[test]
    fn basics() {
        let t = Tuple::new(vec![Value::int(1), Value::str("a"), Value::num(3)]);
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(0), Some(&Value::int(1)));
        assert_eq!(t.get(3), None);
        assert!(!t.has_nulls());
        let n = Tuple::new(vec![Value::NumNull(NumNullId(0))]);
        assert!(n.has_nulls());
    }

    #[test]
    fn map_transforms() {
        let t = Tuple::new(vec![Value::num(1), Value::num(2)]);
        let doubled = t.map(|v| match v {
            Value::Num(r) => Value::Num(*r + *r),
            other => other.clone(),
        });
        assert_eq!(doubled, Tuple::new(vec![Value::num(2), Value::num(4)]));
    }

    #[test]
    fn display() {
        let t = Tuple::new(vec![Value::int(1), Value::str("x")]);
        assert_eq!(t.to_string(), "(1, \"x\")");
    }
}
