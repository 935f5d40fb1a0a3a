use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use qarith_numeric::Rational;

use crate::error::TypeError;
use crate::relation::Relation;
use crate::schema::Catalog;
use crate::tuple::Tuple;
use crate::valuation::Valuation;
use crate::value::{BaseNullId, BaseValue, NumNullId, Value};

/// An incomplete database: a set of typed relations over constants and
/// marked nulls.
///
/// Relations are shared copy-on-write: a clone costs one pointer per
/// relation, and [`Database::relation_mut`] copies a relation only while
/// another database still shares it. Mutating a clone therefore copies
/// exactly the relations it writes to, and the ones it leaves alone
/// stay shared with the original (`Arc::ptr_eq` on
/// [`Database::relations`]).
#[derive(Clone, Default)]
pub struct Database {
    relations: Vec<Arc<Relation>>,
    by_name: HashMap<String, usize>,
}

/// Summary statistics (used by benchmarks and examples to describe
/// workloads the way §9 of the paper does).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatabaseStats {
    /// Total number of tuples across relations.
    pub tuples: usize,
    /// Number of distinct base nulls.
    pub base_nulls: usize,
    /// Number of distinct numerical nulls.
    pub num_nulls: usize,
    /// Number of relations.
    pub relations: usize,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Adds a relation; its schema name must be fresh.
    pub fn add_relation(&mut self, relation: Relation) -> Result<(), TypeError> {
        let name = relation.schema().name().to_string();
        if self.by_name.contains_key(&name) {
            return Err(TypeError::DuplicateRelation { relation: name });
        }
        self.by_name.insert(name, self.relations.len());
        self.relations.push(Arc::new(relation));
        Ok(())
    }

    /// Looks up a relation by name.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.by_name.get(name).map(|&i| &*self.relations[i])
    }

    /// Mutable lookup. Copies the relation first if another database
    /// shares it (copy-on-write), so the sharer never sees the change.
    pub fn relation_mut(&mut self, name: &str) -> Option<&mut Relation> {
        self.by_name.get(name).copied().map(move |i| Arc::make_mut(&mut self.relations[i]))
    }

    /// All relations, in the order they were added.
    pub fn relations(&self) -> &[Arc<Relation>] {
        &self.relations
    }

    /// The catalog induced by the stored relations.
    pub fn catalog(&self) -> Catalog {
        let mut cat = Catalog::new();
        for r in &self.relations {
            cat.add(r.schema().clone()).expect("relation names are unique");
        }
        cat
    }

    /// All base nulls occurring in the database — `N_base(D)`.
    pub fn base_nulls(&self) -> BTreeSet<BaseNullId> {
        let mut out = BTreeSet::new();
        self.visit_values(|v| {
            if let Value::BaseNull(id) = v {
                out.insert(*id);
            }
        });
        out
    }

    /// All numerical nulls occurring in the database — `N_num(D)`.
    pub fn num_nulls(&self) -> BTreeSet<NumNullId> {
        let mut out = BTreeSet::new();
        self.visit_values(|v| {
            if let Value::NumNull(id) = v {
                out.insert(*id);
            }
        });
        out
    }

    /// All base constants occurring in the database — `C_base(D)`.
    pub fn base_constants(&self) -> BTreeSet<BaseValue> {
        let mut out = BTreeSet::new();
        self.visit_values(|v| {
            if let Value::Base(b) = v {
                out.insert(b.clone());
            }
        });
        out
    }

    /// All numerical constants occurring in the database — `C_num(D)`.
    pub fn num_constants(&self) -> BTreeSet<Rational> {
        let mut out = BTreeSet::new();
        self.visit_values(|v| {
            if let Value::Num(r) = v {
                out.insert(*r);
            }
        });
        out
    }

    /// Applies a (possibly partial) valuation to every stored tuple.
    pub fn apply(&self, v: &Valuation) -> Database {
        let mut out = Database::new();
        for r in &self.relations {
            let mut nr = Relation::empty(r.schema().clone());
            for t in r.tuples() {
                nr.insert(v.apply_tuple(t)).expect("valuation preserves sorts");
            }
            out.add_relation(nr).expect("names preserved");
        }
        out
    }

    /// Applies a valuation and checks the result is complete (no nulls
    /// remain) — `v(D)` for a full valuation.
    pub fn complete(&self, v: &Valuation) -> Result<Database, TypeError> {
        let out = self.apply(v);
        let mut leftover: Option<String> = None;
        out.visit_values(|val| {
            if leftover.is_none() && val.is_null() {
                leftover = Some(val.to_string());
            }
        });
        match leftover {
            Some(null) => Err(TypeError::IncompleteValuation { null }),
            None => Ok(out),
        }
    }

    /// A *bijective base valuation* in the sense of Proposition 5.2: every
    /// base null is sent to a fresh string constant outside `C_base(D)`,
    /// injectively. Numerical nulls are left untouched.
    ///
    /// Evaluating a query on `apply(bijective)` treats base nulls as fresh
    /// distinct constants — the base-sort part of naive evaluation.
    pub fn bijective_base_valuation(&self) -> Valuation {
        let taken: HashSet<BaseValue> = self.base_constants().into_iter().collect();
        let mut v = Valuation::new();
        for id in self.base_nulls() {
            // `⟨⊥i⟩` is virtually collision-free; suffix until fresh to be
            // safe against adversarial data.
            let mut name = format!("⟨⊥{}⟩", id.0);
            while taken.contains(&BaseValue::str(&name)) {
                name.push('\'');
            }
            v.set_base(id, BaseValue::str(&name));
        }
        v
    }

    /// Summary statistics.
    pub fn stats(&self) -> DatabaseStats {
        DatabaseStats {
            tuples: self.relations.iter().map(|r| r.len()).sum(),
            base_nulls: self.base_nulls().len(),
            num_nulls: self.num_nulls().len(),
            relations: self.relations.len(),
        }
    }

    fn visit_values(&self, mut f: impl FnMut(&Value)) {
        for r in &self.relations {
            for t in r.tuples() {
                for v in t.values() {
                    f(v);
                }
            }
        }
    }

    /// Convenience: iterate `(relation name, tuple)` pairs.
    pub fn iter_tuples(&self) -> impl Iterator<Item = (&str, &Tuple)> {
        self.relations.iter().flat_map(|r| r.tuples().iter().map(move |t| (r.schema().name(), t)))
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        write!(
            f,
            "Database[{} relations, {} tuples, {} base nulls, {} num nulls]",
            s.relations, s.tuples, s.base_nulls, s.num_nulls
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, RelationSchema};

    /// The intro example of the paper: Products / Competition / Excluded
    /// with nulls ⊤0 (price), ⊤1 (rrp), ⊥0 (excluded id).
    pub fn intro_example() -> Database {
        let mut db = Database::new();

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
            Value::decimal("0.8"),
        ])
        .unwrap();
        p.insert_values(vec![
            Value::str("id2"),
            Value::str("s"),
            Value::NumNull(NumNullId(1)),
            Value::decimal("0.7"),
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

        db
    }

    #[test]
    fn null_and_constant_harvest() {
        let db = intro_example();
        assert_eq!(db.base_nulls().into_iter().collect::<Vec<_>>(), vec![BaseNullId(0)]);
        assert_eq!(
            db.num_nulls().into_iter().collect::<Vec<_>>(),
            vec![NumNullId(0), NumNullId(1)]
        );
        assert!(db.base_constants().contains(&BaseValue::str("id1")));
        assert!(db.num_constants().contains(&Rational::new(7, 10)));
        let s = db.stats();
        assert_eq!(s.tuples, 4);
        assert_eq!(s.base_nulls, 1);
        assert_eq!(s.num_nulls, 2);
        assert_eq!(s.relations, 3);
    }

    #[test]
    fn duplicate_relation_names_rejected() {
        let mut db = intro_example();
        let dup =
            Relation::empty(RelationSchema::new("Products", vec![Column::base("id")]).unwrap());
        assert!(matches!(db.add_relation(dup), Err(TypeError::DuplicateRelation { .. })));
    }

    #[test]
    fn complete_requires_all_nulls_mapped() {
        let db = intro_example();
        let partial = Valuation::new().with_num(NumNullId(0), 5);
        assert!(matches!(db.complete(&partial), Err(TypeError::IncompleteValuation { .. })));

        let full = Valuation::new()
            .with_num(NumNullId(0), 12)
            .with_num(NumNullId(1), 9)
            .with_base(BaseNullId(0), "id9");
        let complete = db.complete(&full).unwrap();
        assert_eq!(complete.stats().base_nulls, 0);
        assert_eq!(complete.stats().num_nulls, 0);
        // Tuples got rewritten.
        let c = complete.relation("Competition").unwrap();
        assert_eq!(c.tuples()[0].get(2), &Value::num(12));
    }

    #[test]
    fn bijective_valuation_is_bijective_and_fresh() {
        let db = intro_example();
        let v = db.bijective_base_valuation();
        let forbidden: HashSet<BaseValue> = db.base_constants().into_iter().collect();
        assert!(v.is_bijective_base(&forbidden));
        // It maps exactly the base nulls of D.
        assert_eq!(v.base_assignments().count(), 1);
    }

    #[test]
    fn apply_is_partial_and_nondestructive() {
        let db = intro_example();
        let v = Valuation::new().with_num(NumNullId(0), 42);
        let applied = db.apply(&v);
        assert_eq!(applied.stats().num_nulls, 1); // ⊤1 remains
        assert_eq!(db.stats().num_nulls, 2); // original untouched
    }

    #[test]
    fn iter_tuples_covers_everything() {
        let db = intro_example();
        assert_eq!(db.iter_tuples().count(), 4);
        assert!(db.iter_tuples().any(|(r, _)| r == "Excluded"));
    }
}
