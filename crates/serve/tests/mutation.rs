//! Mutation-consistency suite: the ISSUE-10 write-path acceptance
//! tests.
//!
//! * cold-rebuild bit-identity — after *any* sequence of committed
//!   [`WriteBatch`]es (property-tested over inserts, deletes, and
//!   updates, including ones that introduce fresh nulls), every query
//!   answer from the long-lived service, keyed joins included, is
//!   bit-identical to a fresh cold-cache service built on the final
//!   database state rebuilt from its rows (so it inherits no column
//!   index);
//! * an update of a tuple onto itself is a no-op: it invalidates no
//!   plan and leaves the digest as it was;
//! * invalidation selectivity — a targeted single-tuple write on the
//!   medium sales database drops exactly the ν-cache keys grounded
//!   against the touched relation, leaves survivors resident (counter-
//!   asserted), and the survivors still *hit* with unchanged bits;
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

/// The proptest database: one relation with a base key and two
/// numerical columns (nulls included), small enough that random
/// deletes/updates actually collide with resident tuples.
fn proptest_db() -> Database {
    let mut db = Database::new();
    let schema =
        RelationSchema::new("R", vec![Column::base("id"), Column::num("x"), Column::num("y")])
            .unwrap();
    let mut r = Relation::empty(schema);
    r.insert_values(vec![Value::int(1), Value::num(10), Value::num(5)]).unwrap();
    r.insert_values(vec![Value::int(2), Value::NumNull(NumNullId(0)), Value::num(3)]).unwrap();
    r.insert_values(vec![Value::int(3), Value::num(4), Value::NumNull(NumNullId(1))]).unwrap();
    r.insert_values(vec![
        Value::int(4),
        Value::NumNull(NumNullId(2)),
        Value::NumNull(NumNullId(3)),
    ])
    .unwrap();
    db.add_relation(r).unwrap();
    db
}

/// Queries that mix certain and uncertain candidates over `R`. The
/// last two probe `R`'s index on `id`: a constant key, and a self-join
/// whose second atom is keyed on the id the first one bound.
const PROPTEST_SQL: [&str; 4] = [
    "SELECT R.id FROM R WHERE R.x > R.y",
    "SELECT R.id FROM R WHERE R.x + R.y >= 6",
    "SELECT R.x FROM R WHERE R.id = 3",
    "SELECT A.id FROM R A, R B WHERE A.id = B.id AND A.x > B.y",
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

fn tuple_r() -> impl Strategy<Value = Vec<Value>> {
    ((0i64..8), num_value(), num_value()).prop_map(|(id, x, y)| vec![Value::int(id), x, y])
}

fn write_op() -> impl Strategy<Value = WriteOp> {
    prop_oneof![
        tuple_r().prop_map(|values| WriteOp::Insert { relation: "R".into(), values }),
        tuple_r().prop_map(|values| WriteOp::Delete { relation: "R".into(), values }),
        (tuple_r(), tuple_r()).prop_map(|(old, new)| WriteOp::Update {
            relation: "R".into(),
            old,
            new
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// After every committed batch of an arbitrary sequence, the live
    /// service (with whatever plan/ν-cache state and column indexes its
    /// history left behind) answers bit-identically to a cold-cache
    /// service built from scratch on the current database, its
    /// relations rebuilt from their rows — and both agree on the epoch
    /// digest of a shadow copy mutated alongside.
    #[test]
    fn any_write_sequence_matches_a_cold_rebuild(
        batches in prop::collection::vec(prop::collection::vec(write_op(), 1..5), 1..4)
    ) {
        let service = QueryService::new(proptest_db(), serve_config(0.25));
        let mut shadow = proptest_db();

        // Warm the caches on epoch 0 so later batches have something
        // to invalidate.
        for sql in PROPTEST_SQL {
            service.query(sql).expect("warmup query");
        }

        for (i, ops) in batches.iter().enumerate() {
            let batch = WriteBatch::of(ops.clone());
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

            let cold = QueryService::new(shadow.apply(&Valuation::new()), serve_config(0.25));
            for sql in PROPTEST_SQL {
                let warm = service.query(sql).expect("warm query");
                let fresh = cold.query(sql).expect("cold query");
                prop_assert_eq!(
                    response_fingerprint(&warm),
                    response_fingerprint(&fresh),
                    "batch {}: live service diverged from a cold rebuild for {}",
                    i,
                    sql
                );
                prop_assert_eq!(warm.epoch, epoch);
                prop_assert_eq!(warm.db_digest, database_digest(&shadow));
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
/// stays, and no plan or ν entry is invalidated.
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
    assert_eq!(outcome.invalidated_keys, 0);
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
// Satellite: invalidation selectivity on the medium sales database.
// ---------------------------------------------------------------------

/// Orders templates whose candidates are uncertain by construction
/// (`q` is drawn from 1..=50, so only null-`q` tuples can satisfy the
/// predicates). The sampling route groups by the *asymptotic* key, in
/// which constants and scales vanish — so the four templates here are
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
fn targeted_write_invalidates_selectively_and_survivors_still_hit() {
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
    assert_eq!(before.invalidations, 0);
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
    assert!(outcome.invalidated_keys >= 1, "Orders keys must drop: {outcome:?}");
    assert_eq!(outcome.plans_invalidated, 2, "exactly the two Orders plans drop");

    // Counter-asserted selectivity: the survivors are exactly the
    // resident entries the write did not claim, and there are some.
    let after = service.cache_stats();
    assert_eq!(after.invalidations, outcome.invalidated_keys);
    assert_eq!(after.invalidated_entries, outcome.invalidated_entries);
    assert_eq!(
        after.entries,
        before.entries - outcome.invalidated_entries,
        "invalidation dropped exactly what it counted"
    );
    assert!(after.entries > 0, "Market entries survive a write to Orders: {after:?}");
    assert_eq!(service.stats().plans, plans_before - outcome.plans_invalidated);

    // Survivors still hit — same plan, same resident ν entries, same
    // bits as before the write.
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
    // tuple (its null `q` makes it one more uncertain candidate).
    for sql in ORDERS_SQL {
        let response = service.query(sql).expect("rebuilt query");
        assert!(!response.plan_cached, "{sql}: Orders plans were invalidated");
        assert_eq!(response.epoch, 1);
        assert!(
            response.answers.iter().any(|a| a.tuple.to_string().contains(&(1 << 20).to_string())),
            "{sql}: the inserted tuple is a candidate now"
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
