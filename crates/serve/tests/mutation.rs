//! Mutation-consistency suite: the ISSUE-10 write-path acceptance
//! tests.
//!
//! * cold-rebuild bit-identity — after *any* sequence of committed
//!   [`WriteBatch`]es (property-tested over inserts, deletes, and
//!   updates of two relations, including ones that introduce fresh
//!   nulls, under forced AFPRAS, rewritten `Auto`, and forced FPRAS),
//!   every query answer from the long-lived service, keyed and `LIMIT`
//!   joins included, is bit-identical to a fresh cold-cache service
//!   built on the final database state rebuilt from its rows (so it
//!   inherits no column index and no ν entry) — the gate on the plans a
//!   write keeps because it misses their read footprints;
//! * an update of a tuple onto itself is a no-op: it invalidates no
//!   plan and leaves the digest as it was;
//! * ν entries outlive writes — a targeted single-tuple write on the
//!   medium sales database drops exactly the plans grounded against
//!   the touched relation and no ν-cache entry; the rebuilt plans
//!   measure nothing and answer like a cold service on the new epoch,
//!   and the untouched plans still *hit* with unchanged bits;
//! * digest cross-pin — `qarith_serve::database_digest` and
//!   `qarith_datagen::database_digest` are bit-for-bit the same
//!   function (both re-export the one in `qarith-types`; this test
//!   keeps a future private copy from diverging);
//! * copy-on-write epochs — a write shares every relation it does not
//!   change with the epoch before it, leaves that epoch's rows intact,
//!   and its digest never re-reads the relations before the first one
//!   it changed.

use proptest::prelude::*;
use qarith_core::afpras::{AfprasOptions, SampleCount};
use qarith_core::{BatchOptions, MeasureOptions, MethodChoice, NuCacheConfig};
use qarith_datagen::WorkloadScale;
use qarith_serve::{database_digest, QueryResponse, QueryService, ServeConfig};
use qarith_types::{
    Column, Database, DatabaseDigest, NumNullId, Relation, RelationSchema, Valuation, Value,
    WriteBatch, WriteOp,
};

/// Forced AFPRAS under a fixed seed, so certainty bits are sensitive to
/// any pipeline difference (exact evaluators would mask stale-cache
/// bugs behind closed forms).
fn paper_options(epsilon: f64, seed: u64) -> MeasureOptions {
    MeasureOptions {
        method: MethodChoice::Afpras,
        afpras: AfprasOptions {
            epsilon,
            samples: SampleCount::Paper,
            seed,
            ..AfprasOptions::default()
        },
        batch: BatchOptions { threads: 1, dedup: true },
        ..MeasureOptions::default()
    }
}

fn serve_config(epsilon: f64) -> ServeConfig {
    ServeConfig {
        options: paper_options(epsilon, 77),
        cache: NuCacheConfig { shards: 4, budget_bytes: 64 << 20 },
        ..ServeConfig::default()
    }
}

/// The measurement regimes the cold-rebuild property runs under, one
/// per kind of ν-cache key a write must not make wrong: forced AFPRAS
/// (asymptotic keys), `Auto` with rewriting on (the exact routes, and
/// the `ra:`/`rs:` keys of rewritten groups), and forced FPRAS
/// (structural keys).
fn proptest_configs() -> [ServeConfig; 3] {
    let afpras = serve_config(0.25);
    let mut auto = afpras.clone();
    auto.options.method = MethodChoice::Auto;
    auto.options.rewrite.enabled = true;
    let mut fpras = afpras.clone();
    fpras.options.method = MethodChoice::Fpras;
    fpras.options = fpras.options.with_epsilon(0.25);
    [afpras, auto, fpras]
}

/// μ-relevant response content (`cached`/`plan_cached` are provenance,
/// not identity).
fn response_fingerprint(r: &QueryResponse) -> Vec<(String, u64, usize, usize)> {
    r.answers
        .iter()
        .map(|a| {
            (
                format!("{}", a.tuple),
                a.certainty.value.to_bits(),
                a.certainty.samples,
                a.certainty.dimension,
            )
        })
        .collect()
}

// ---------------------------------------------------------------------
// Satellite: serve/datagen digest cross-pin.
// ---------------------------------------------------------------------

#[test]
fn serve_digest_is_bit_identical_to_datagen_digest() {
    for seed in [1u64, 2020, 0xF00D] {
        let db = qarith_datagen::sales::sales_database(&WorkloadScale::Tiny.params(), seed);
        assert_eq!(
            database_digest(&db),
            qarith_datagen::database_digest(&db),
            "seed {seed}: the two digest implementations diverged"
        );
    }
}

// ---------------------------------------------------------------------
// Satellite: cold-rebuild bit-identity under arbitrary write sequences.
// ---------------------------------------------------------------------

/// The proptest database: `R` with a base key and two numerical
/// columns and `S` with a base key and one, nulls included, seven rows
/// each. The `LIMIT` queries stop after `R`'s first two rows, so a
/// write can land inside or after the prefix they read. The equal
/// sizes make the join order of `R ⋈ S` flip with one insert into `R`
/// or one delete from `S`, and `S`'s first rows join other ids than
/// `R`'s, so the flipped join returns other candidates.
fn proptest_db() -> Database {
    let null = |i| Value::NumNull(NumNullId(i));
    let mut db = Database::new();
    let schema =
        RelationSchema::new("R", vec![Column::base("id"), Column::num("x"), Column::num("y")])
            .unwrap();
    let mut r = Relation::empty(schema);
    for (id, x, y) in [
        (1, Value::num(10), Value::num(5)),
        (2, null(0), Value::num(3)),
        (3, Value::num(4), null(1)),
        (4, null(2), null(3)),
        (5, Value::num(2), Value::num(7)),
        (6, null(4), Value::num(1)),
        (7, Value::num(6), Value::num(6)),
    ] {
        r.insert_values(vec![Value::int(id), x, y]).unwrap();
    }
    db.add_relation(r).unwrap();
    let schema = RelationSchema::new("S", vec![Column::base("id"), Column::num("z")]).unwrap();
    let mut s = Relation::empty(schema);
    for (id, z) in [
        (3, Value::num(9)),
        (4, Value::num(5)),
        (1, Value::num(20)),
        (2, null(5)),
        (8, Value::num(4)),
        (2, Value::num(9)),
        (9, null(6)),
    ] {
        s.insert_values(vec![Value::int(id), z]).unwrap();
    }
    db.add_relation(s).unwrap();
    db
}

/// Queries that mix certain and uncertain candidates over `R` and `S`.
/// The first two scan `R` to its end; the third and fourth probe `R`'s
/// index on `id` (a constant key, and a self-join keyed on the id its
/// first atom bound). The last three have a `LIMIT`: a scan of `R` cut
/// after its first two rows, a keyed join of `R` and `S` whose order is
/// a size comparison of the two, and a constant-key probe of `S` that
/// an insert under its key reaches.
const PROPTEST_SQL: [&str; 7] = [
    "SELECT R.id FROM R WHERE R.x > R.y",
    "SELECT R.id FROM R WHERE R.x + R.y >= 6",
    "SELECT R.x FROM R WHERE R.id = 3",
    "SELECT A.id FROM R A, R B WHERE A.id = B.id AND A.x > B.y",
    "SELECT R.id FROM R WHERE R.x > 0 LIMIT 2",
    "SELECT R.id FROM R, S WHERE R.id = S.id AND R.x < S.z LIMIT 2",
    "SELECT S.z FROM S WHERE S.id = 2 LIMIT 3",
];

/// A numerical value: a small constant or a fresh-ish marked null. The
/// tight domains make duplicate inserts, hitting deletes, and
/// null-introducing updates all likely.
fn num_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-4i64..8).prop_map(Value::num),
        (0u32..6).prop_map(|i| Value::NumNull(NumNullId(i))),
    ]
}

/// A tuple of `R`, keyed by a small id; `S` takes its first two
/// values.
fn tuple_r() -> impl Strategy<Value = Vec<Value>> {
    ((0i64..6), num_value(), num_value()).prop_map(|(id, x, y)| vec![Value::int(id), x, y])
}

/// One generated op, on `R` or `S`. A random tuple rarely names a
/// resident one, so deletes and updates also pick a resident row by
/// position, which [`GenOp::resolve`] maps onto the database the batch
/// applies to: the position lands inside the prefix a `LIMIT` query
/// read or after it.
#[derive(Clone, Debug)]
struct GenOp {
    relation: &'static str,
    kind: u8,
    row: usize,
    tuple: Vec<Value>,
    other: Vec<Value>,
}

fn write_op() -> impl Strategy<Value = GenOp> {
    (0u8..2, 0u8..6, 0usize..8, tuple_r(), tuple_r()).prop_map(|(s, kind, row, tuple, other)| {
        let (relation, arity) = if s == 1 { ("S", 2) } else { ("R", 3) };
        let cut = |mut t: Vec<Value>| {
            t.truncate(arity);
            t
        };
        GenOp { relation, kind, row, tuple: cut(tuple), other: cut(other) }
    })
}

impl GenOp {
    /// The op against `db`: an insert (two kinds in six), a delete or an
    /// update of a random tuple (mostly no-ops when it names no resident
    /// tuple), or a delete or an update of the resident row at `row`
    /// (modulo the relation's length).
    fn resolve(&self, db: &Database) -> WriteOp {
        let relation = self.relation.to_string();
        let rows = db.relation(self.relation).expect("declared relation").tuples();
        let resident = (!rows.is_empty()).then(|| rows[self.row % rows.len()].values().to_vec());
        match (self.kind, resident) {
            (1, _) => WriteOp::Delete { relation, values: self.tuple.clone() },
            (2, _) => {
                WriteOp::Update { relation, old: self.tuple.clone(), new: self.other.clone() }
            }
            (3, Some(values)) => WriteOp::Delete { relation, values },
            (4, Some(old)) => WriteOp::Update { relation, old, new: self.tuple.clone() },
            _ => WriteOp::Insert { relation, values: self.tuple.clone() },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After every committed batch of an arbitrary sequence, the live
    /// service (with whatever plans, ν entries and column indexes its
    /// history left behind) answers bit-identically to a cold-cache
    /// service built from scratch on the current database, its
    /// relations rebuilt from their rows — and both agree on the epoch
    /// digest of a shadow copy mutated alongside. The same sequence runs
    /// under each of [`proptest_configs`].
    #[test]
    fn any_write_sequence_matches_a_cold_rebuild(
        batches in prop::collection::vec(prop::collection::vec(write_op(), 1..5), 1..4)
    ) {
        for config in proptest_configs() {
            let method = config.options.method;
            let service = QueryService::new(proptest_db(), config.clone());
            let mut shadow = proptest_db();

            // Warm the caches on epoch 0, so every later batch meets
            // resident plans and ν entries.
            for sql in PROPTEST_SQL {
                service.query(sql).expect("warmup query");
            }

            for (i, ops) in batches.iter().enumerate() {
                let batch = WriteBatch::of(ops.iter().map(|op| op.resolve(&shadow)).collect());
                let outcome = service.apply(&batch).expect("well-typed batch");
                shadow.apply_batch(&batch).expect("shadow apply");

                let epoch = (i + 1) as u64;
                prop_assert_eq!(outcome.epoch, epoch, "epochs are consecutive");
                prop_assert_eq!(
                    outcome.db_digest,
                    database_digest(&shadow),
                    "published digest names the shadow's contents"
                );
                prop_assert_eq!(service.stats().epoch, epoch);

                let rebuilt = shadow.apply(&Valuation::new()).expect("rows keep their sorts");
                let cold = QueryService::new(rebuilt, config.clone());
                for sql in PROPTEST_SQL {
                    let warm = service.query(sql).expect("warm query");
                    let fresh = cold.query(sql).expect("cold query");
                    prop_assert_eq!(
                        response_fingerprint(&warm),
                        response_fingerprint(&fresh),
                        "{:?}, batch {}: live service diverged from a cold rebuild for {}",
                        method,
                        i,
                        sql
                    );
                    prop_assert_eq!(warm.epoch, epoch);
                    prop_assert_eq!(warm.db_digest, database_digest(&shadow));
                }
            }
        }
    }
}

/// An update whose `old` tuple is present while its `new` tuple already
/// is removes `old` and inserts nothing. It changed the database, so it
/// must count as applied: a batch of only such updates would otherwise
/// invalidate no plan and keep serving `old` as a candidate.
#[test]
fn an_update_onto_a_present_tuple_invalidates_like_any_change() {
    let service = QueryService::new(proptest_db(), serve_config(0.25));
    let sql = PROPTEST_SQL[0];
    let ids = |r: &QueryResponse| -> Vec<String> {
        r.answers.iter().map(|a| a.tuple.to_string()).collect()
    };
    assert!(ids(&service.query(sql).expect("warm")).contains(&"(1)".to_string()));

    let mut batch = WriteBatch::new();
    batch.update(
        "R",
        vec![Value::int(1), Value::num(10), Value::num(5)],
        vec![Value::int(2), Value::NumNull(NumNullId(0)), Value::num(3)],
    );
    let outcome = service.apply(&batch).expect("well-typed batch");
    assert_eq!((outcome.applied, outcome.noops), (1, 0));
    assert_eq!(outcome.plans_invalidated, 1);
    let after = service.query(sql).expect("post-write query");
    assert!(!ids(&after).contains(&"(1)".to_string()), "stale candidate: {:?}", ids(&after));
}

/// Replacing a tuple by itself changes nothing under set semantics, so
/// it is a no-op: the row keeps its place in the relation, the digest
/// stays, and no plan is invalidated.
#[test]
fn an_update_onto_itself_invalidates_nothing() {
    let service = QueryService::new(proptest_db(), serve_config(0.25));
    let warm: Vec<_> = PROPTEST_SQL
        .iter()
        .map(|sql| response_fingerprint(&service.query(sql).expect("warm")))
        .collect();
    let before = service.snapshot().expect("epoch 0");

    let row = vec![Value::int(2), Value::NumNull(NumNullId(0)), Value::num(3)];
    let mut batch = WriteBatch::new();
    batch.update("R", row.clone(), row);
    let outcome = service.apply(&batch).expect("well-typed batch");
    assert_eq!((outcome.applied, outcome.noops), (0, 1));
    assert_eq!(outcome.plans_invalidated, 0);
    assert_eq!(outcome.db_digest, before.digest);

    let after = service.snapshot().expect("epoch 1");
    assert!(std::sync::Arc::ptr_eq(relation_arc(&before.db, "R"), relation_arc(&after.db, "R")));
    for (sql, reference) in PROPTEST_SQL.iter().zip(&warm) {
        let response = service.query(sql).expect("post-write query");
        assert!(response.plan_cached, "{sql}: the plan survives");
        assert_eq!(&response_fingerprint(&response), reference, "{sql}");
    }
}

// ---------------------------------------------------------------------
// ν entries outlive writes, on the medium sales database.
// ---------------------------------------------------------------------

/// Orders templates whose candidates are uncertain by construction
/// (`q` is drawn from 1..=50, so only null-`q` tuples can satisfy the
/// predicates). The sampling route groups by the *asymptotic* key, in
/// which constants and scales vanish — so the templates here are
/// distinguished by comparison operator and coefficient sign, which
/// the key provably preserves, minting one distinct ν-cache group key
/// per template.
const ORDERS_SQL: [&str; 2] = [
    // No LIMIT: the rebuilt plan must surface a tuple inserted at the
    // *end* of the relation, which a prefix cap would hide.
    "SELECT O.id FROM Orders O WHERE O.q >= 51",
    "SELECT O.id FROM Orders O WHERE O.q <= 0",
];

/// Market templates with the same shape (`rrp` is drawn from 1..100,
/// `market_null_rate` is high), grounded against an untouched relation
/// and keyed by strict comparisons so they share nothing with the
/// Orders templates.
const MARKET_SQL: [&str; 2] = [
    "SELECT M.seg FROM Market M WHERE M.rrp > 100 LIMIT 25",
    "SELECT M.seg FROM Market M WHERE M.rrp < 1 LIMIT 25",
];

#[test]
fn targeted_write_drops_its_plans_and_keeps_every_nu_entry() {
    let db = qarith_datagen::sales::sales_database(&WorkloadScale::Medium.params(), 2020);
    let service = QueryService::new(db, serve_config(0.1));

    // Warm both relation populations twice: the second pass must be
    // pure plan + ν-cache hits, and its bits are the pre-write
    // reference.
    for sql in ORDERS_SQL.iter().chain(&MARKET_SQL) {
        let first = service.query(sql).expect("warmup");
        assert!(!first.answers.is_empty(), "{sql}: nulls must produce uncertain candidates");
        assert!(
            first.answers.iter().all(|a| a.certainty.value < 1.0),
            "{sql}: candidates are uncertain by construction"
        );
    }
    let market_reference: Vec<_> = MARKET_SQL
        .iter()
        .map(|sql| response_fingerprint(&service.query(sql).expect("reference")))
        .collect();

    let before = service.cache_stats();
    assert!(before.entries >= 2, "both relations left resident ν entries: {before:?}");
    let plans_before = service.stats().plans;
    assert_eq!(plans_before, 4, "four templates, four plans");

    // The targeted write: one fresh tuple into Orders (with a fresh
    // marked null — the database stays incomplete as it evolves).
    // Fresh ids live far above anything the generator minted.
    let mut batch = WriteBatch::new();
    batch.insert(
        "Orders",
        vec![Value::int(1 << 20), Value::int(7), Value::NumNull(NumNullId(1 << 20)), Value::num(1)],
    );
    let epoch0 = service.snapshot().expect("epoch 0");
    let outcome = service.apply(&batch).expect("single-tuple insert");

    // Copy-on-write: epoch 1 copied Orders alone and shares the other
    // relations with epoch 0, which still holds its own rows.
    let epoch1 = service.snapshot().expect("epoch 1");
    for name in ["Products", "Orders", "Market"] {
        let (old, new) = (relation_arc(&epoch0.db, name), relation_arc(&epoch1.db, name));
        assert_eq!(std::sync::Arc::ptr_eq(old, new), name != "Orders", "{name}");
    }
    assert_eq!(
        epoch1.db.relation("Orders").unwrap().len(),
        epoch0.db.relation("Orders").unwrap().len() + 1
    );
    assert_eq!(epoch0.digest, database_digest(&epoch0.db), "epoch 0 is untouched");
    assert_eq!(epoch1.digest, database_digest(&epoch1.db), "the resumed digest is the full one");

    assert_eq!(outcome.epoch, 1);
    assert_eq!((outcome.applied, outcome.noops), (1, 0));
    assert_eq!(outcome.plans_invalidated, 2, "exactly the two Orders plans drop");
    assert_eq!(service.stats().plans, plans_before - 2);
    assert_eq!(service.cache_stats().entries, before.entries, "a write drops no ν entry");

    // The untouched templates still hit — same plan, same resident ν
    // entries, same bits as before the write.
    for (sql, reference) in MARKET_SQL.iter().zip(&market_reference) {
        let hits_before = service.cache_stats().hits;
        let response = service.query(sql).expect("survivor query");
        assert!(response.plan_cached, "{sql}: Market plan survives a write to Orders");
        assert_eq!(response.stats.measured, 0, "{sql}: nothing to re-measure");
        assert!(service.cache_stats().hits > hits_before, "{sql}: survivors hit the ν-cache");
        assert_eq!(&response_fingerprint(&response), reference, "{sql}: bits unchanged");
        assert_eq!(response.epoch, 1, "served against the new epoch");
    }

    // The touched templates rebuild against epoch 1 and see the new
    // tuple (its null `q` makes it one more uncertain candidate). Its
    // ground formula has the group key of a resident entry, so the
    // rebuilt plans measure nothing, and they answer bit for bit like a
    // service that never saw epoch 0.
    let cold = QueryService::new(Database::clone(&epoch1.db), serve_config(0.1));
    for sql in ORDERS_SQL {
        let response = service.query(sql).expect("rebuilt query");
        assert!(!response.plan_cached, "{sql}: Orders plans were invalidated");
        assert_eq!(response.epoch, 1);
        assert!(
            response.answers.iter().any(|a| a.tuple.to_string().contains(&(1 << 20).to_string())),
            "{sql}: the inserted tuple is a candidate now"
        );
        assert_eq!(response.stats.measured, 0, "{sql}: every group key is resident");
        let fresh = cold.query(sql).expect("cold query");
        assert_eq!(
            response_fingerprint(&response),
            response_fingerprint(&fresh),
            "{sql}: bits equal a cold service on epoch 1"
        );
    }
}

/// The shared relation handle of `db` named `name`.
fn relation_arc<'db>(db: &'db Database, name: &str) -> &'db std::sync::Arc<Relation> {
    db.relations().iter().find(|r| r.schema().name() == name).expect("declared relation")
}

// ---------------------------------------------------------------------
// Copy-on-write epochs on the sales database.
// ---------------------------------------------------------------------

/// `Market` comes last in the sales database, so a batch that writes
/// only `Market` neither copies nor re-reads `Products` or `Orders`:
/// the digest resumes at the end of `Orders` and reads `Market` alone.
#[test]
fn a_market_write_never_copies_or_rereads_products_or_orders() {
    let db = qarith_datagen::sales::sales_database(&WorkloadScale::Tiny.params(), 2020);
    let saved = DatabaseDigest::compute(&db, None);
    let market = db.relation("Market").expect("sales has Market").tuples().to_vec();
    let mut batch = WriteBatch::new();
    batch
        .update("Market", market[0].values().to_vec(), {
            let mut new = market[0].values().to_vec();
            new[1] = Value::NumNull(NumNullId(1 << 20));
            new
        })
        .delete("Market", market[1].values().to_vec());

    let mut next = db.clone();
    let summary = next.apply_batch(&batch).expect("well-typed batch");
    assert_eq!((summary.applied, summary.noops), (2, 0));
    for name in ["Products", "Orders"] {
        assert!(
            std::sync::Arc::ptr_eq(relation_arc(&db, name), relation_arc(&next, name)),
            "{name}"
        );
    }
    let resumed = DatabaseDigest::compute(&next, Some((&db, &saved)));
    assert_eq!(resumed.value(), database_digest(&next));
    assert_eq!(resumed.rows_read(), next.relation("Market").unwrap().len());

    // The same through the service: the published digest is the full
    // digest of the shadow copy.
    let service = QueryService::new(db, serve_config(0.25));
    let outcome = service.apply(&batch).expect("well-typed batch");
    assert_eq!(outcome.db_digest, database_digest(&next));
}
