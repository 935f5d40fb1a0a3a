//! # qarith-serve — concurrent query serving over the certainty engine
//!
//! The paper's practical claim (Theorem 8.1 and the §9 experiments) is
//! that certainty measures ν for FO(+,·,<) queries are computable at
//! *interactive* speed. Interactive systems are not one-shot batch
//! jobs: they are long-lived processes serving many concurrent clients
//! whose traffic repeats a small population of query templates — the
//! certain/possible-answer APIs of Console–Libkin–Peterfreund
//! (*Querying Incomplete Numerical Data*) and the multiplexed
//! counting-style workloads of Arenas–Barceló–Monet (*Counting
//! Problems over Incomplete Databases*) both have this shape. This
//! crate is that serving layer, on top of `qarith-core`'s batch engine
//! (below `qarith-bench`, which load-tests it; above `qarith-sql` and
//! `qarith-engine`, which it drives):
//!
//! * [`QueryService`] ([`service`]) — a thread-safe, long-lived handle
//!   owning one loaded database, one [`CertaintyEngine`], and the
//!   engine's [`NuCache`]; clients submit SQL text from any number of
//!   threads.
//! * **Prepared plans** — parse → lower → ground → canonicalize/dedup
//!   → rewrite runs **once per query template**, keyed by the
//!   normalized SQL fingerprint of [`qarith_sql::fingerprint`]; repeat
//!   traffic (however it spells whitespace, keyword case, aliases, or
//!   literals) skips the whole front half and goes straight to
//!   per-group ν lookup via [`CertaintyEngine::execute_plan`].
//! * **A bounded, sharded ν-cache** — the one [`NuCache`] of
//!   `qarith-core`, sized by [`ServeConfig::cache`]: N independently
//!   locked shards with per-shard LRU eviction under a memory budget.
//!   Eviction can only cost recomputation, never change a certainty —
//!   see [`qarith_core::nucache`].
//! * **Admission control** ([`admission`]) — a max-in-flight gate, so
//!   overload degrades to queueing instead of collapse.
//! * **A live write path** ([`epoch`]) — `INSERT`/`DELETE`/`UPDATE`
//!   batches ([`qarith_types::WriteBatch`]) applied through an
//!   epoch-versioned snapshot store: writers build epoch N+1 aside
//!   while readers keep epoch N, a committed batch invalidates only
//!   the ν-cache keys and plans whose grounding touched the changed
//!   relations, and every response names the epoch digest its answers
//!   are pinned to.
//!
//! Every layer exports counters through the workspace's `as_pairs`
//! convention; `serve_bench` (crate `qarith-bench`) serializes them
//! next to p50/p95/p99 latency percentiles into the schema-v2
//! `BENCH_*.json` artifact that CI gates.
//!
//! ```
//! use qarith_serve::{QueryService, ServeConfig};
//! use qarith_types::{Column, Database, NumNullId, Relation, RelationSchema, Value};
//!
//! // A one-relation database with a single uncertain pair.
//! let mut db = Database::new();
//! let schema = RelationSchema::new(
//!     "R",
//!     vec![Column::base("id"), Column::num("x"), Column::num("y")],
//! ).unwrap();
//! let mut r = Relation::empty(schema);
//! r.insert_values(vec![
//!     Value::int(1),
//!     Value::NumNull(NumNullId(0)),
//!     Value::NumNull(NumNullId(1)),
//! ]).unwrap();
//! db.add_relation(r).unwrap();
//!
//! let service = QueryService::new(db, ServeConfig::default());
//! let first = service.query("SELECT R.id FROM R WHERE R.x > R.y").unwrap();
//! assert_eq!(first.answers[0].certainty.value, 0.5);
//! // Same template, different spelling: served from the prepared plan.
//! let again = service.query("select  r2.id  from R r2 where r2.x > r2.y").unwrap();
//! assert!(again.plan_cached);
//! assert_eq!(again.answers[0].certainty.value, 0.5);
//! ```
//!
//! [`CertaintyEngine`]: qarith_core::CertaintyEngine
//! [`CertaintyEngine::execute_plan`]: qarith_core::CertaintyEngine::execute_plan
//! [`NuCache`]: qarith_core::NuCache

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod epoch;
mod error;
pub mod service;

pub use admission::{AdmissionGate, AdmissionPermit, AdmissionStats};
pub use epoch::{Snapshot, WriteOutcome};
pub use error::ServeError;
pub use service::{QueryResponse, QueryService, ServeConfig, ServiceStats};

/// The content digest that names an epoch's database
/// ([`Snapshot::digest`], [`QueryResponse::db_digest`]). One function,
/// defined in `qarith-types` and shared with `qarith-datagen`.
pub use qarith_types::database_digest;
