use qarith_numeric::Rational;
use qarith_types::{
    BaseNullId, Column, Database, NumNullId, Relation, RelationSchema, Sort, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Value generator for one column.
#[derive(Clone, Debug)]
pub enum ColumnGen {
    /// Sequential base-sort integers starting at `start` (surrogate keys).
    SerialInt {
        /// First value.
        start: i64,
    },
    /// Uniform base-sort integer in `[lo, hi)` — e.g. foreign keys into a
    /// serial column.
    IntUniform {
        /// Inclusive lower bound.
        lo: i64,
        /// Exclusive upper bound.
        hi: i64,
    },
    /// Base-sort string drawn uniformly from `prefix0 … prefix{count−1}`
    /// (categorical columns such as market segments).
    StrPool {
        /// Common prefix.
        prefix: String,
        /// Pool size.
        count: usize,
    },
    /// Sequential base-sort strings `prefix0, prefix1, …` (unique keys
    /// such as one market row per segment).
    StrSerial {
        /// Common prefix.
        prefix: String,
    },
    /// Numerical decimal uniform in `[lo, hi]`, rounded to `scale`
    /// fractional digits (exact rationals with denominator `10^scale`).
    NumDecimal {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
        /// Fractional digits.
        scale: u32,
    },
    /// Numerical integer uniform in `[lo, hi)`.
    NumInt {
        /// Inclusive lower bound.
        lo: i64,
        /// Exclusive upper bound.
        hi: i64,
    },
}

impl ColumnGen {
    fn sort(&self) -> Sort {
        match self {
            ColumnGen::SerialInt { .. }
            | ColumnGen::IntUniform { .. }
            | ColumnGen::StrPool { .. }
            | ColumnGen::StrSerial { .. } => Sort::Base,
            ColumnGen::NumDecimal { .. } | ColumnGen::NumInt { .. } => Sort::Num,
        }
    }
}

/// One column: name, generator, and null probability.
#[derive(Clone, Debug)]
pub struct ColumnSpec {
    /// Column name.
    pub name: String,
    /// Value generator (determines the sort).
    pub gen: ColumnGen,
    /// Probability that a cell is a fresh marked null instead of a value.
    pub null_rate: f64,
}

impl ColumnSpec {
    /// A never-null column.
    pub fn new(name: &str, gen: ColumnGen) -> ColumnSpec {
        ColumnSpec { name: name.to_string(), gen, null_rate: 0.0 }
    }

    /// A column with the given null probability.
    pub fn nullable(name: &str, gen: ColumnGen, null_rate: f64) -> ColumnSpec {
        ColumnSpec { name: name.to_string(), gen, null_rate }
    }
}

/// One table: name, columns, cardinality.
#[derive(Clone, Debug)]
pub struct TableSpec {
    /// Relation name.
    pub name: String,
    /// Columns.
    pub columns: Vec<ColumnSpec>,
    /// Number of rows to generate.
    pub rows: usize,
}

/// The generator: a seeded RNG plus global null-id allocators (marked
/// nulls are unique across the whole database, as in the model).
pub struct Generator {
    rng: StdRng,
    next_base_null: u32,
    next_num_null: u32,
}

impl Generator {
    /// A generator with the given seed. Equal seeds produce equal
    /// databases.
    pub fn new(seed: u64) -> Generator {
        Generator { rng: StdRng::seed_from_u64(seed), next_base_null: 0, next_num_null: 0 }
    }

    /// Number of numerical nulls allocated so far.
    pub fn num_nulls_allocated(&self) -> u32 {
        self.next_num_null
    }

    /// Generates a full database from table specs.
    pub fn database(&mut self, specs: &[TableSpec]) -> Database {
        let mut db = Database::new();
        for spec in specs {
            let rel = self.table(spec);
            db.add_relation(rel).expect("unique table names in specs");
        }
        db
    }

    /// Generates one relation.
    pub fn table(&mut self, spec: &TableSpec) -> Relation {
        let columns: Vec<Column> = spec
            .columns
            .iter()
            .map(|c| match c.gen.sort() {
                Sort::Base => Column::base(&c.name),
                Sort::Num => Column::num(&c.name),
            })
            .collect();
        let schema = RelationSchema::new(&spec.name, columns).expect("unique column names");
        let mut rel = Relation::empty(schema);
        for row in 0..spec.rows {
            let values: Vec<Value> = spec.columns.iter().map(|c| self.cell(c, row)).collect();
            rel.insert(qarith_types::Tuple::new(values)).expect("generated tuples type-check");
        }
        rel
    }

    fn cell(&mut self, spec: &ColumnSpec, row: usize) -> Value {
        if spec.null_rate > 0.0 && self.rng.gen::<f64>() < spec.null_rate {
            return match spec.gen.sort() {
                Sort::Base => {
                    let id = BaseNullId(self.next_base_null);
                    self.next_base_null += 1;
                    Value::BaseNull(id)
                }
                Sort::Num => {
                    let id = NumNullId(self.next_num_null);
                    self.next_num_null += 1;
                    Value::NumNull(id)
                }
            };
        }
        match &spec.gen {
            ColumnGen::SerialInt { start } => Value::int(start + row as i64),
            ColumnGen::IntUniform { lo, hi } => Value::int(self.rng.gen_range(*lo..*hi)),
            ColumnGen::StrPool { prefix, count } => {
                let k = self.rng.gen_range(0..*count);
                Value::str(&format!("{prefix}{k}"))
            }
            ColumnGen::StrSerial { prefix } => Value::str(&format!("{prefix}{row}")),
            ColumnGen::NumDecimal { lo, hi, scale } => {
                let pow = 10i128.pow(*scale);
                let x: f64 = self.rng.gen_range(*lo..=*hi);
                let scaled = (x * pow as f64).round() as i128;
                Value::Num(Rational::new(scaled, pow))
            }
            ColumnGen::NumInt { lo, hi } => {
                Value::Num(Rational::from_int(self.rng.gen_range(*lo..*hi)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TableSpec {
        TableSpec {
            name: "T".into(),
            columns: vec![
                ColumnSpec::new("id", ColumnGen::SerialInt { start: 0 }),
                ColumnSpec::new("seg", ColumnGen::StrPool { prefix: "s".into(), count: 3 }),
                ColumnSpec::nullable(
                    "price",
                    ColumnGen::NumDecimal { lo: 1.0, hi: 10.0, scale: 2 },
                    0.3,
                ),
            ],
            rows: 200,
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = Generator::new(7).table(&spec());
        let b = Generator::new(7).table(&spec());
        assert_eq!(a.tuples(), b.tuples());
        let c = Generator::new(8).table(&spec());
        assert_ne!(a.tuples(), c.tuples());
    }

    #[test]
    fn serial_columns_are_sequential() {
        let rel = Generator::new(1).table(&spec());
        for (i, t) in rel.tuples().iter().enumerate() {
            assert_eq!(t.get(0), Some(&Value::int(i as i64)));
        }
    }

    #[test]
    fn null_rate_is_respected_and_ids_unique() {
        let rel = Generator::new(2).table(&spec());
        let nulls: Vec<_> = rel
            .tuples()
            .iter()
            .filter_map(|t| match &t.values()[2] {
                Value::NumNull(id) => Some(*id),
                _ => None,
            })
            .collect();
        // ~30% of 200 ± noise.
        assert!(nulls.len() > 30 && nulls.len() < 90, "null count {}", nulls.len());
        let mut dedup = nulls.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), nulls.len(), "null ids must be unique");
    }

    #[test]
    fn decimals_have_bounded_denominator() {
        let rel = Generator::new(3).table(&spec());
        for t in rel.tuples() {
            if let Value::Num(r) = &t.values()[2] {
                assert!(r.denom() <= 100, "scale-2 decimal, got {r}");
                assert!(*r >= Rational::from_int(1) && *r <= Rational::from_int(10));
            }
        }
    }

    #[test]
    fn database_generation_spans_tables() {
        let mut g = Generator::new(4);
        let db = g.database(&[
            spec(),
            TableSpec {
                name: "U".into(),
                columns: vec![ColumnSpec::new("k", ColumnGen::StrSerial { prefix: "k".into() })],
                rows: 10,
            },
        ]);
        assert_eq!(db.relations().len(), 2);
        assert_eq!(db.relation("U").unwrap().len(), 10);
        // StrSerial yields unique keys.
        assert_eq!(db.relation("U").unwrap().tuples()[3].get(0), Some(&Value::str("k3")));
    }

    #[test]
    fn pool_strings_stay_in_pool() {
        let rel = Generator::new(5).table(&spec());
        for t in rel.tuples() {
            if let Value::Base(b) = &t.values()[1] {
                let s = format!("{b}");
                assert!(s == "\"s0\"" || s == "\"s1\"" || s == "\"s2\"", "unexpected segment {s}");
            }
        }
    }
}
