use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::error::TypeError;

/// The two attribute sorts of the data model (§3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Sort {
    /// The uninterpreted base type (`base`).
    Base,
    /// The numerical type (`num`), a subset of ℝ.
    Num,
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sort::Base => write!(f, "base"),
            Sort::Num => write!(f, "num"),
        }
    }
}

/// A named, sorted column.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Column {
    name: String,
    sort: Sort,
}

impl Column {
    /// A base-sort column.
    pub fn base(name: &str) -> Column {
        Column { name: name.to_string(), sort: Sort::Base }
    }

    /// A numerical-sort column.
    pub fn num(name: &str) -> Column {
        Column { name: name.to_string(), sort: Sort::Num }
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Column sort.
    pub fn sort(&self) -> Sort {
        self.sort
    }
}

/// The schema of one relation: a name and a list of typed columns.
///
/// The paper writes `R(baseᵏ numᵐ)`; we allow base and numerical columns
/// to be interspersed (as the paper notes real DDL does — the `baseᵏnumᵐ`
/// layout is only a notational convenience there).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RelationSchema {
    name: String,
    columns: Arc<[Column]>,
    by_name: HashMap<String, usize>,
}

impl RelationSchema {
    /// Creates a schema; column names must be distinct.
    pub fn new(name: &str, columns: Vec<Column>) -> Result<RelationSchema, TypeError> {
        let mut by_name = HashMap::with_capacity(columns.len());
        for (i, c) in columns.iter().enumerate() {
            if by_name.insert(c.name.clone(), i).is_some() {
                return Err(TypeError::DuplicateColumn {
                    relation: name.to_string(),
                    column: c.name.clone(),
                });
            }
        }
        Ok(RelationSchema { name: name.to_string(), columns: columns.into(), by_name })
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The columns in declaration order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Sort of the `i`-th column (`None` past the last column).
    pub fn sort_of(&self, i: usize) -> Option<Sort> {
        self.columns.get(i).map(Column::sort)
    }

    /// Number of base-sort columns.
    pub fn base_arity(&self) -> usize {
        self.columns.iter().filter(|c| c.sort() == Sort::Base).count()
    }

    /// Number of numerical-sort columns.
    pub fn num_arity(&self) -> usize {
        self.columns.iter().filter(|c| c.sort() == Sort::Num).count()
    }
}

impl fmt::Display for RelationSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", c.name(), c.sort())?;
        }
        write!(f, ")")
    }
}

/// A database schema: a collection of relation schemas.
#[derive(Clone, Default, Debug)]
pub struct Catalog {
    relations: Vec<RelationSchema>,
    by_name: HashMap<String, usize>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// A catalog over `relations`, with `by_name` mapping each relation's
    /// name to its position. The caller guarantees the names are unique
    /// and the positions in bounds, as a [`crate::Database`]'s own
    /// index does.
    pub(crate) fn indexed(
        relations: Vec<RelationSchema>,
        by_name: HashMap<String, usize>,
    ) -> Catalog {
        Catalog { relations, by_name }
    }

    /// Adds a relation schema; names must be unique.
    pub fn add(&mut self, schema: RelationSchema) -> Result<(), TypeError> {
        if self.by_name.contains_key(schema.name()) {
            return Err(TypeError::DuplicateRelation { relation: schema.name().to_string() });
        }
        self.by_name.insert(schema.name().to_string(), self.relations.len());
        self.relations.push(schema);
        Ok(())
    }

    /// Looks up a relation schema by name.
    pub fn get(&self, name: &str) -> Option<&RelationSchema> {
        self.by_name.get(name).and_then(|&i| self.relations.get(i))
    }

    /// All relation schemas.
    pub fn relations(&self) -> &[RelationSchema] {
        &self.relations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sales_products() -> RelationSchema {
        RelationSchema::new(
            "Products",
            vec![Column::base("id"), Column::base("seg"), Column::num("rrp"), Column::num("dis")],
        )
        .unwrap()
    }

    #[test]
    fn schema_basics() {
        let s = sales_products();
        assert_eq!(s.arity(), 4);
        assert_eq!(s.base_arity(), 2);
        assert_eq!(s.num_arity(), 2);
        assert_eq!(s.column_index("rrp"), Some(2));
        assert_eq!(s.column_index("nope"), None);
        assert_eq!(s.sort_of(0), Some(Sort::Base));
        assert_eq!(s.sort_of(3), Some(Sort::Num));
        assert_eq!(s.sort_of(4), None);
    }

    #[test]
    fn duplicate_columns_rejected() {
        let r = RelationSchema::new("R", vec![Column::base("a"), Column::num("a")]);
        assert!(matches!(r, Err(TypeError::DuplicateColumn { .. })));
    }

    #[test]
    fn display() {
        assert_eq!(
            sales_products().to_string(),
            "Products(id: base, seg: base, rrp: num, dis: num)"
        );
    }

    #[test]
    fn catalog_lookup_and_duplicates() {
        let mut cat = Catalog::new();
        cat.add(sales_products()).unwrap();
        assert!(cat.get("Products").is_some());
        assert!(cat.get("Orders").is_none());
        assert!(matches!(cat.add(sales_products()), Err(TypeError::DuplicateRelation { .. })));
        assert_eq!(cat.relations().len(), 1);
    }
}
