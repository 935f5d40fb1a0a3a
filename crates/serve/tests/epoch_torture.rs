//! Epoch-visibility torture: N reader threads hammer one shared
//! service while a writer publishes a stream of epochs.
//!
//! The invariants (ISSUE-10):
//!
//! * **published states only** — every response's `(epoch, db_digest)`
//!   pair is exactly one the writer published (or the load-time epoch
//!   0): a reader can never observe a torn or intermediate database;
//! * **monotone visibility** — epochs observed by one reader never go
//!   backwards (the snapshot pointer only moves forward);
//! * **post-drain convergence** — once the writer is done, every
//!   reader's next request executes against the final epoch;
//! * **bits per epoch** — every answer equals, bit for bit, the answer
//!   of a cold service on the database of the epoch the response names
//!   (rebuilt by replaying the writer's batches). One template scans
//!   `Orders` to its end, so every insert drops its plan; the other
//!   stops at `LIMIT 2`, so its plan survives the inserts, and readers
//!   race the writer's sweep that checks it through each new epoch.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use qarith_core::afpras::{AfprasOptions, SampleCount};
use qarith_core::{BatchOptions, MeasureOptions, MethodChoice};
use qarith_datagen::WorkloadScale;
use qarith_serve::{QueryResponse, QueryService, ServeConfig};
use qarith_types::{Database, NumNullId, Value, WriteBatch};

const EPOCHS: u64 = 10;
const READERS: usize = 4;
/// Reads `Orders` to its end (fewer than 25 candidates): every insert
/// drops its plan.
const SQL: &str = "SELECT O.id FROM Orders O WHERE O.q >= 51 LIMIT 25";
/// Stops after two candidates, early in `Orders`: the writer's appends
/// miss its read footprint, so its plan survives them.
const SURVIVOR_SQL: &str = "SELECT O.id FROM Orders O WHERE O.q >= 51 LIMIT 2";
const TEMPLATES: [&str; 2] = [SQL, SURVIVOR_SQL];

fn test_db() -> Database {
    qarith_datagen::sales::sales_database(&WorkloadScale::Tiny.params(), 2020)
}

fn test_service(db: Database) -> QueryService {
    let options = MeasureOptions {
        method: MethodChoice::Afpras,
        afpras: AfprasOptions {
            epsilon: 0.25,
            samples: SampleCount::Paper,
            seed: 77,
            ..AfprasOptions::default()
        },
        batch: BatchOptions { threads: 1, dedup: true },
        ..MeasureOptions::default()
    };
    QueryService::new(db, ServeConfig { options, ..ServeConfig::default() })
}

/// The answer bits of a response: tuple, certainty, samples, dimension.
type Bits = Vec<(String, u64, usize, usize)>;

fn bits(response: &QueryResponse) -> Bits {
    response
        .answers
        .iter()
        .map(|a| {
            let c = &a.certainty;
            (a.tuple.to_string(), c.value.to_bits(), c.samples, c.dimension)
        })
        .collect()
}

/// The writer's i-th batch: one fresh Orders tuple whose `q` is a
/// fresh marked null (ids far above anything the generator minted), so
/// every batch both changes the digest and adds an uncertain candidate
/// for the readers' template.
fn write_batch(i: u64) -> WriteBatch {
    let mut batch = WriteBatch::new();
    batch.insert(
        "Orders",
        vec![
            Value::int((1 << 20) + i as i64),
            Value::int(i as i64),
            Value::NumNull(NumNullId((1 << 20) + i as u32)),
            Value::num(1),
        ],
    );
    batch
}

/// Sequentially: an insert drops the plan that read `Orders` to its end
/// and keeps the `LIMIT 2` one, which answers like a cold service.
#[test]
fn the_survivor_template_keeps_its_plan_across_an_insert() {
    let service = test_service(test_db());
    for sql in TEMPLATES {
        assert!(!service.query(sql).expect("warm").answers.is_empty(), "{sql}");
    }
    let outcome = service.apply(&write_batch(0)).expect("insert");
    assert_eq!(outcome.plans_invalidated, 1, "only the plan that read Orders to its end drops");
    let kept = service.query(SURVIVOR_SQL).expect("survivor");
    assert!(kept.plan_cached, "the LIMIT 2 plan survives the append");
    let mut db = test_db();
    db.apply_batch(&write_batch(0)).expect("replay");
    let cold = test_service(db).query(SURVIVOR_SQL).expect("cold");
    assert_eq!(bits(&kept), bits(&cold));
}

#[test]
fn readers_only_ever_observe_published_epochs() {
    let service = Arc::new(test_service(test_db()));
    let epoch0 = service.snapshot().expect("initial snapshot");
    let done = AtomicBool::new(false);

    let (published, observed) = std::thread::scope(|scope| {
        let writer = scope.spawn({
            let service = service.clone();
            let done = &done;
            move || {
                let mut outcomes = Vec::new();
                for i in 0..EPOCHS {
                    outcomes.push(service.apply(&write_batch(i)).expect("committed batch"));
                    // Give readers a window to actually pin this epoch
                    // before the next one supersedes it.
                    std::thread::sleep(Duration::from_millis(15));
                }
                done.store(true, Ordering::Release);
                outcomes
            }
        });

        let readers: Vec<_> = (0..READERS)
            .map(|reader| {
                let service = service.clone();
                let done = &done;
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    let mut last_epoch = 0u64;
                    for round in 0usize.. {
                        let finished = done.load(Ordering::Acquire);
                        let template = (round + reader) % TEMPLATES.len();
                        let response =
                            service.query(TEMPLATES[template]).expect("read under write load");
                        assert!(
                            response.epoch >= last_epoch,
                            "reader {reader}: epoch went backwards \
                             ({last_epoch} then {})",
                            response.epoch
                        );
                        last_epoch = response.epoch;
                        seen.push((response.epoch, response.db_digest, template, bits(&response)));
                        if finished {
                            // This request started after the writer's
                            // final publish: post-drain convergence.
                            assert_eq!(
                                response.epoch, EPOCHS,
                                "reader {reader}: a post-drain request must see the final epoch"
                            );
                            break;
                        }
                    }
                    seen
                })
            })
            .collect();

        let published = writer.join().expect("writer");
        let observed: Vec<_> =
            readers.into_iter().flat_map(|r| r.join().expect("reader")).collect();
        (published, observed)
    });

    // Every batch applied (fresh tuples, never no-ops) and published a
    // consecutive epoch.
    let mut digest_of: HashMap<u64, u64> = HashMap::from([(0, epoch0.digest)]);
    for (i, outcome) in published.iter().enumerate() {
        assert_eq!(outcome.epoch, i as u64 + 1, "epochs are consecutive");
        assert_eq!((outcome.applied, outcome.noops), (1, 0));
        digest_of.insert(outcome.epoch, outcome.db_digest);
    }

    // The core invariant: every observed (epoch, digest) pair is a
    // published one — never a torn in-between state.
    assert!(!observed.is_empty());
    for (epoch, digest, _, _) in &observed {
        let want = digest_of
            .get(epoch)
            .unwrap_or_else(|| panic!("observed epoch {epoch} was never published"));
        assert_eq!(
            digest, want,
            "epoch {epoch}: response digest must match the published snapshot"
        );
    }

    let stats = service.stats();
    assert_eq!(stats.epoch, EPOCHS);
    assert_eq!(stats.writes, EPOCHS);
    assert_eq!(stats.write_ops, EPOCHS);

    // Bits per epoch: replay the batches, and answer each template on
    // each epoch once with a cold service.
    let mut databases = vec![test_db()];
    for i in 0..EPOCHS {
        let mut next = databases.last().expect("epoch 0").clone();
        next.apply_batch(&write_batch(i)).expect("replay");
        databases.push(next);
    }
    for (epoch, database) in databases.iter().enumerate() {
        let published = digest_of[&(epoch as u64)];
        assert_eq!(qarith_serve::database_digest(database), published, "epoch {epoch}: replay");
    }
    let mut cold: HashMap<(u64, usize), Bits> = HashMap::new();
    for (epoch, _, template, answers) in &observed {
        let database = &databases[*epoch as usize];
        let want = cold.entry((*epoch, *template)).or_insert_with(|| {
            let service = test_service(database.clone());
            bits(&service.query(TEMPLATES[*template]).expect("cold query"))
        });
        assert_eq!(
            answers, want,
            "epoch {epoch}, {}: differs from a cold service",
            TEMPLATES[*template]
        );
    }
}
