//! The render slot of a cached plan: `encode_reply` renders a plan's
//! reply block once and re-sends it, and every reply it sends equals,
//! byte for byte, a fresh render of the same response (the slot
//! withheld). Checked over repeated hits, over executions of a cached
//! plan that re-measure under a tiny ν budget, and across a write that
//! keeps the plan and one that drops it.

use std::sync::Arc;

use qarith_core::NuCacheConfig;
use qarith_datagen::{QueryFamily, WorkloadScale};
use qarith_net::frame::encode_reply;
use qarith_serve::{QueryResponse, QueryService, ServeConfig};
use qarith_types::{Value, WriteBatch};

/// Candidates are the null-`q` Orders tuples only (`q` is drawn from
/// 1..=50), so an Orders insert with a large concrete `q` adds one
/// certain answer, and a Market insert is outside the plan's reads.
const ORDERS_SQL: &str = "SELECT O.id FROM Orders O WHERE O.q >= 1000";

fn service(budget_bytes: usize) -> QueryService {
    let db = qarith_datagen::sales::sales_database(&WorkloadScale::Tiny.params(), 2020);
    let config = ServeConfig {
        cache: NuCacheConfig { shards: 4, budget_bytes },
        ..ServeConfig::paper_afpras(0.1, 77)
    };
    QueryService::new(db, config)
}

/// Encodes `response` as the server does and checks the bytes against
/// a render with the slot withheld.
fn sent(response: &QueryResponse) -> String {
    let reply = encode_reply(response);
    let fresh = encode_reply(&QueryResponse { render_slot: None, ..response.clone() });
    assert_eq!(reply, fresh, "a re-sent block must equal a fresh render");
    reply
}

/// Everything after the header line.
fn body(reply: &str) -> &str {
    reply.split_once('\n').expect("a header line").1
}

#[test]
fn repeated_hits_resend_the_block_they_rendered_once() {
    let service = service(64 << 20);
    let sql: Vec<String> =
        QueryFamily::all().iter().flat_map(QueryFamily::queries).map(|q| q.sql).collect();
    let mut slotted = 0;
    for pass in 0..3 {
        for q in &sql {
            let response = service.query(q).expect("served");
            sent(&response);
            if pass > 0 {
                let slot = response.render_slot.as_ref().expect("a warm hit gets the slot");
                assert!(slot.get().is_some(), "the encode filled the slot");
                assert!(response.plan_cached && response.stats.measured == 0);
                slotted += 1;
            }
        }
    }
    assert_eq!(slotted, 2 * sql.len());
}

#[test]
fn executions_that_measure_render_fresh() {
    // ~2 KiB across 4 shards: a template's groups survive until the
    // next template's measurements evict them.
    let service = service(2 << 10);
    let sql: Vec<String> =
        QueryFamily::all().iter().flat_map(QueryFamily::queries).map(|q| q.sql).collect();
    // Build each plan, then hit it while its groups are still resident:
    // the hit that measures nothing fills the slot.
    let mut filled = Vec::new();
    for q in &sql {
        sent(&service.query(q).expect("build"));
        let hit = service.query(q).expect("hit");
        sent(&hit);
        filled.push(hit.render_slot.is_some());
    }
    // By the next pass the later templates have evicted the earlier
    // ones' groups: those hits measure again, and must not re-send the
    // block their slot holds (its answers are all flagged `c`).
    let mut remeasured = 0;
    for (q, filled) in sql.iter().zip(filled) {
        let response = service.query(q).expect("hit");
        let reply = sent(&response);
        if response.plan_cached && response.stats.measured > 0 {
            assert!(response.render_slot.is_none(), "a measuring execution renders fresh");
            assert!(reply.contains(" flags=- "), "freshly measured answers are unflagged");
            remeasured += usize::from(filled);
        }
    }
    assert!(remeasured > 0, "some plan must re-measure after its slot was filled");
}

#[test]
fn a_write_that_keeps_the_plan_keeps_its_block() {
    let service = service(64 << 20);
    service.query(ORDERS_SQL).expect("build");
    let before = service.query(ORDERS_SQL).expect("hit");
    let before_reply = sent(&before);

    let mut batch = WriteBatch::new();
    batch.insert("Market", vec![Value::str("zz-segment"), Value::num(3), Value::num(1)]);
    let outcome = service.apply(&batch).expect("market insert");
    assert_eq!(outcome.plans_invalidated, 0, "the plan reads no Market row");

    let after = service.query(ORDERS_SQL).expect("hit on the new epoch");
    let after_reply = sent(&after);
    assert_eq!(after.epoch, before.epoch + 1);
    let (old, new) = (before.render_slot.expect("slot"), after.render_slot.expect("slot"));
    assert!(Arc::ptr_eq(&old, &new), "the kept plan keeps its slot");
    assert_ne!(before_reply, after_reply, "the header names the new epoch");
    assert_eq!(body(&before_reply), body(&after_reply));
}

#[test]
fn a_write_that_drops_the_plan_starts_a_new_block() {
    let service = service(64 << 20);
    service.query(ORDERS_SQL).expect("build");
    let before = service.query(ORDERS_SQL).expect("hit");
    let before_reply = sent(&before);

    let mut batch = WriteBatch::new();
    batch.insert(
        "Orders",
        vec![Value::int(1 << 20), Value::int(7), Value::num(2000), Value::num(1)],
    );
    assert_eq!(service.apply(&batch).expect("orders insert").plans_invalidated, 1);

    let rebuilt = service.query(ORDERS_SQL).expect("rebuild");
    assert!(!rebuilt.plan_cached && rebuilt.render_slot.is_none());
    sent(&rebuilt);
    let after = service.query(ORDERS_SQL).expect("hit on the rebuilt plan");
    let after_reply = sent(&after);
    let (old, new) = (before.render_slot.expect("slot"), after.render_slot.expect("slot"));
    assert!(!Arc::ptr_eq(&old, &new), "a rebuilt plan starts an empty slot");
    assert_eq!(after.answers.len(), before.answers.len() + 1, "the inserted row is certain");
    assert_ne!(body(&before_reply), body(&after_reply));
}
