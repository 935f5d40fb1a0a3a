//! The §9 sales database and decision-support queries.
//!
//! Schema (verbatim from the paper):
//!
//! * `Products(id, seg, rrp, dis)` — product ids, market segment,
//!   recommended retail price, intended discount;
//! * `Orders(id, pr, q, dis)` — possible future orders: product id,
//!   quantity, extra discount (final discount is `dis/q`);
//! * `Market(seg, rrp, dis)` — best competing product per segment.
//!
//! The paper's printed SQL contains obvious typos (`M.id` for a relation
//! declared without an `id` column; a missing operator in the third
//! query). The constants below are the minimal faithful reconstructions;
//! EXPERIMENTS.md documents each deviation.

use qarith_types::{Catalog, Column, Database, RelationSchema};

use crate::generator::{ColumnGen, ColumnSpec, Generator, TableSpec};

/// Scale knobs for the sales database.
#[derive(Clone, Debug)]
pub struct SalesScale {
    /// Rows in `Products`.
    pub products: usize,
    /// Rows in `Orders`.
    pub orders: usize,
    /// Rows in `Market` (one per segment).
    pub markets: usize,
    /// Number of distinct segments used by `Products`.
    pub segments: usize,
    /// Null probability for each numerical column of `Products`/`Orders`.
    pub null_rate: f64,
    /// Null probability for the numerical columns of `Market`. The
    /// paper's narrative has competition data "populated by an
    /// (automated) web extraction algorithm, leading to a high chance of
    /// incomplete data", so this defaults higher than `null_rate`.
    pub market_null_rate: f64,
}

impl SalesScale {
    /// The paper's scale: "about 200K tuples, with null values".
    pub fn paper() -> SalesScale {
        SalesScale {
            products: 100_000,
            orders: 99_000,
            markets: 1_000,
            segments: 1_000,
            null_rate: 0.02,
            market_null_rate: 0.25,
        }
    }

    /// A laptop-friendly scale for examples (~2K tuples).
    pub fn small() -> SalesScale {
        SalesScale {
            products: 1_000,
            orders: 900,
            markets: 100,
            segments: 100,
            null_rate: 0.05,
            market_null_rate: 0.25,
        }
    }

    /// A CI-friendly intermediate scale (~20K tuples) between
    /// [`SalesScale::small`] and the paper's 200K: large enough that
    /// dedup/cache effects dominate noise, small enough for a perf job.
    pub fn medium() -> SalesScale {
        SalesScale {
            products: 10_000,
            orders: 9_500,
            markets: 500,
            segments: 500,
            null_rate: 0.03,
            market_null_rate: 0.25,
        }
    }

    /// A test scale (~200 tuples, higher null rate to exercise nulls).
    pub fn tiny() -> SalesScale {
        SalesScale {
            products: 100,
            orders: 80,
            markets: 20,
            segments: 20,
            null_rate: 0.1,
            market_null_rate: 0.3,
        }
    }

    /// Total rows.
    pub fn total_rows(&self) -> usize {
        self.products + self.orders + self.markets
    }
}

/// The sales catalog (schemas only).
pub fn sales_catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.add(
        RelationSchema::new(
            "Products",
            vec![Column::base("id"), Column::base("seg"), Column::num("rrp"), Column::num("dis")],
        )
        .unwrap(),
    )
    .unwrap();
    cat.add(
        RelationSchema::new(
            "Orders",
            vec![Column::base("id"), Column::base("pr"), Column::num("q"), Column::num("dis")],
        )
        .unwrap(),
    )
    .unwrap();
    cat.add(
        RelationSchema::new(
            "Market",
            vec![Column::base("seg"), Column::num("rrp"), Column::num("dis")],
        )
        .unwrap(),
    )
    .unwrap();
    cat
}

/// Generates the sales database at a given scale, deterministically.
pub fn sales_database(scale: &SalesScale, seed: u64) -> Database {
    let nr = scale.null_rate;
    let mnr = scale.market_null_rate;
    let specs = [
        TableSpec {
            name: "Products".into(),
            columns: vec![
                ColumnSpec::new("id", ColumnGen::SerialInt { start: 0 }),
                ColumnSpec::new(
                    "seg",
                    ColumnGen::StrPool { prefix: "seg".into(), count: scale.segments },
                ),
                ColumnSpec::nullable(
                    "rrp",
                    ColumnGen::NumDecimal { lo: 1.0, hi: 100.0, scale: 2 },
                    nr,
                ),
                ColumnSpec::nullable(
                    "dis",
                    ColumnGen::NumDecimal { lo: 0.5, hi: 0.95, scale: 2 },
                    nr,
                ),
            ],
            rows: scale.products,
        },
        TableSpec {
            name: "Orders".into(),
            columns: vec![
                ColumnSpec::new("id", ColumnGen::SerialInt { start: 0 }),
                ColumnSpec::new("pr", ColumnGen::IntUniform { lo: 0, hi: scale.products as i64 }),
                ColumnSpec::nullable("q", ColumnGen::NumInt { lo: 1, hi: 50 }, nr),
                ColumnSpec::nullable(
                    "dis",
                    ColumnGen::NumDecimal { lo: 0.05, hi: 5.0, scale: 2 },
                    nr,
                ),
            ],
            rows: scale.orders,
        },
        TableSpec {
            name: "Market".into(),
            columns: vec![
                // One market row per segment; Products draw from the same
                // segment pool, so joins on seg are selective.
                ColumnSpec::new("seg", ColumnGen::StrSerial { prefix: "seg".into() }),
                ColumnSpec::nullable(
                    "rrp",
                    ColumnGen::NumDecimal { lo: 1.0, hi: 100.0, scale: 2 },
                    mnr,
                ),
                ColumnSpec::nullable(
                    "dis",
                    ColumnGen::NumDecimal { lo: 0.5, hi: 0.95, scale: 2 },
                    mnr,
                ),
            ],
            rows: scale.markets,
        },
    ];
    Generator::new(seed).database(&specs)
}

/// §9 "Competitive Advantage": market segments where the company's
/// discounted price undercuts the competition. Verbatim from the paper.
pub const COMPETITIVE_ADVANTAGE_SQL: &str = "SELECT P.seg \
     FROM Products P, Market M \
     WHERE P.seg = M.seg AND P.rrp * P.dis <= M.rrp * M.dis \
     LIMIT 25";

/// §9 "Never Knowingly Undersold": products selling below half the best
/// market price. Two reconstructions of the paper's garbled print
/// (`M.id` for a relation with no `id` column): the effective price of a
/// product through one of **its** orders (`P.id = O.pr`; without this
/// join the query is trivially satisfied by whichever order anywhere in
/// the database has the deepest discount) against half the market's
/// discounted price.
pub const NEVER_UNDERSOLD_SQL: &str = "SELECT P.id \
     FROM Products P, Orders O, Market M \
     WHERE P.id = O.pr AND P.seg = M.seg \
       AND P.rrp * P.dis * (O.q / O.dis) <= 0.5 * M.rrp * M.dis \
     LIMIT 25";

/// §9 "Unfair Discount": orders whose discount is at least 60% above the
/// intended campaign discount. (The paper's print drops an operator and
/// references `M.id`; reconstructed per its prose: final order discount
/// is `dis/q`, compared against `1.6 ×` the product's intended discount,
/// with the market joined on the product's segment.)
pub const UNFAIR_DISCOUNT_SQL: &str = "SELECT O.id \
     FROM Products P, Orders O, Market M \
     WHERE P.id = O.pr AND P.seg = M.seg AND O.dis / O.q >= 1.6 * P.dis \
     LIMIT 25";

/// The three §9 queries, named.
pub fn paper_queries() -> [(&'static str, &'static str); 3] {
    [
        ("Competitive Advantage", COMPETITIVE_ADVANTAGE_SQL),
        ("Never Knowingly Undersold", NEVER_UNDERSOLD_SQL),
        ("Unfair Discount", UNFAIR_DISCOUNT_SQL),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_database_shape() {
        let scale = SalesScale::tiny();
        let db = sales_database(&scale, 42);
        let stats = db.stats();
        assert_eq!(stats.relations, 3);
        assert_eq!(stats.tuples, scale.total_rows());
        assert!(stats.num_nulls > 0, "null rate must produce numerical nulls");
        assert_eq!(stats.base_nulls, 0, "sales schema nulls are numerical only");
    }

    #[test]
    fn catalog_matches_generated_schemas() {
        let cat = sales_catalog();
        let db = sales_database(&SalesScale::tiny(), 1);
        for rel in db.relations() {
            let declared = cat.get(rel.schema().name()).expect("declared");
            assert_eq!(declared, rel.schema());
        }
    }

    #[test]
    fn deterministic() {
        let a = sales_database(&SalesScale::tiny(), 9);
        let b = sales_database(&SalesScale::tiny(), 9);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(
            a.relation("Products").unwrap().tuples(),
            b.relation("Products").unwrap().tuples()
        );
    }

    #[test]
    fn market_segments_are_unique_keys() {
        let db = sales_database(&SalesScale::tiny(), 5);
        let m = db.relation("Market").unwrap();
        let mut segs: Vec<String> = m.tuples().iter().map(|t| t.values()[0].to_string()).collect();
        let before = segs.len();
        segs.sort();
        segs.dedup();
        assert_eq!(segs.len(), before);
    }
}
