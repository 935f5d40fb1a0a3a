//! The content digest of a database, resumable across writes.
//!
//! [`database_digest`] is a stable 64-bit FNV-1a digest of a database's
//! full contents: relation names, schemas, and every tuple in
//! insertion order, via their display forms. It names a database
//! state independently of process, thread and host, so generated
//! workloads and served epochs are pinned by it.
//!
//! FNV-1a is sequential, so a digest cannot be patched in place after
//! a write; but it can be *resumed*. [`DatabaseDigest`] keeps the
//! hasher state before every [`DIGEST_SPAN`]-th row of each relation.
//! The digest of a database derived from an earlier one (the next
//! epoch of a live database) restarts from the last saved state before
//! the first row that differs, and reuses the saved states of every
//! relation before it outright. [`database_digest`] is the same
//! computation with no earlier database, so the full and the resumed
//! digest cannot drift apart.

use std::fmt::{self, Write};
use std::sync::Arc;

use qarith_numeric::Fnv1a64;

use crate::database::Database;
use crate::relation::Relation;
use crate::tuple::Tuple;

/// Rows between two saved hasher states of a [`DatabaseDigest`]. A
/// resumed digest re-reads fewer than this many unchanged rows before
/// the first changed one; the saved states cost 8 bytes per span.
pub const DIGEST_SPAN: usize = 64;

/// A stable 64-bit digest of a database's full contents (relation
/// names, schemas, and every tuple in insertion order), via FNV-1a over
/// the display forms. Independent of process, thread, and host.
pub fn database_digest(db: &Database) -> u64 {
    DatabaseDigest::compute(db, None).value()
}

/// [`database_digest`] plus the saved hasher states that let the digest
/// of a later version of the database resume instead of re-reading it.
#[derive(Clone)]
pub struct DatabaseDigest {
    /// One entry per relation, in database order.
    relations: Vec<RelationDigest>,
    value: u64,
    rows_read: usize,
}

/// The saved states of one relation.
#[derive(Clone)]
struct RelationDigest {
    /// `states[k]` is the hasher before row `k * DIGEST_SPAN` (for
    /// `k = 0`, right after the relation's name and schema), for every
    /// `k` with `k * DIGEST_SPAN <= len`.
    states: Vec<Fnv1a64>,
    /// The hasher after the relation's last row.
    end: Fnv1a64,
}

impl DatabaseDigest {
    /// Digests `db`. With `previous = Some((earlier, saved))`, where
    /// `saved` was computed for `earlier`, the digest resumes from
    /// `saved` wherever `db` still holds the same rows as `earlier`;
    /// the result is the same as with `None`, which reads every row.
    ///
    /// Rows are matched by identity (pointer equality of the shared
    /// rows, see [`Tuple`]), so a database derived from `earlier` by
    /// [`Database::apply_batch`] on a clone shares every row it kept. Identity implies equal
    /// contents here because `earlier` is borrowed for the whole call:
    /// none of its rows can be freed and its memory reused by a row of
    /// `db`.
    pub fn compute(
        db: &Database,
        previous: Option<(&Database, &DatabaseDigest)>,
    ) -> DatabaseDigest {
        let mut out = DatabaseDigest {
            relations: Vec::with_capacity(db.relations().len()),
            value: 0,
            rows_read: 0,
        };
        // The earlier relations paired with their saved states. Saved
        // states stay valid only while every byte hashed so far is the
        // same in both databases, so the pairing ends at the first
        // difference.
        let mut earlier =
            previous.map(|(db, saved)| db.relations().iter().zip(saved.relations.iter()));
        let mut hasher = Fnv1a64::new();
        for relation in db.relations() {
            let digest = match earlier.as_mut().and_then(Iterator::next) {
                Some((old, saved)) if old.schema() == relation.schema() => {
                    match first_changed_row(old, relation) {
                        None => saved.clone(),
                        Some(row) => {
                            earlier = None;
                            debug_assert_eq!(saved.states.len(), old.len() / DIGEST_SPAN + 1);
                            let span = row / DIGEST_SPAN;
                            let states = &saved.states;
                            // analyze: allow(panic-index, reason = "row <= old.len(), and `saved` holds a state for every span start up to old.len()")
                            out.hash_rows(relation, states[..span].to_vec(), states[span])
                        }
                    }
                }
                _ => {
                    earlier = None;
                    out.hash_relation(relation, hasher)
                }
            };
            hasher = digest.end;
            out.relations.push(digest);
        }
        out.value = hasher.finish();
        out
    }

    /// The digest value — [`database_digest`] of the database.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// How many rows this computation hashed: every row for a full
    /// digest, and for a resumed one only the rows from the last saved
    /// state before the first change onwards.
    pub fn rows_read(&self) -> usize {
        self.rows_read
    }

    /// Hashes a relation from its header on, continuing `hasher`.
    fn hash_relation(&mut self, relation: &Relation, mut hasher: Fnv1a64) -> RelationDigest {
        let schema = relation.schema();
        hasher.update(schema.name().as_bytes());
        hasher.update(b"|");
        for col in schema.columns() {
            // `Fnv1a64::write_str` never fails.
            let _ = write!(hasher, "{}:{:?};", col.name(), col.sort());
        }
        self.hash_rows(relation, Vec::new(), hasher)
    }

    /// Hashes the rows from `states.len() * DIGEST_SPAN` on, starting
    /// from `hasher`, the state before that row, and saving a state
    /// before every [`DIGEST_SPAN`]-th row.
    fn hash_rows(
        &mut self,
        relation: &Relation,
        mut states: Vec<Fnv1a64>,
        mut hasher: Fnv1a64,
    ) -> RelationDigest {
        let from = states.len() * DIGEST_SPAN;
        states.push(hasher);
        // analyze: allow(panic-index, reason = "callers resume at a span start no later than the first changed row, which is at most the relation's length")
        let rows = &relation.tuples()[from..];
        for span in rows.chunks(DIGEST_SPAN) {
            for row in span {
                // `Fnv1a64::write_str` never fails.
                let _ = writeln!(hasher, "{row}");
            }
            if span.len() == DIGEST_SPAN {
                states.push(hasher);
            }
        }
        self.rows_read += rows.len();
        RelationDigest { states, end: hasher }
    }
}

impl fmt::Debug for DatabaseDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DatabaseDigest")
            .field("value", &format_args!("{:#018x}", self.value))
            .field("rows_read", &self.rows_read)
            .finish_non_exhaustive()
    }
}

/// The first row at which `new` may differ from `old` (`None` when
/// they hold the same rows). Rows are compared by identity: a shared
/// row is equal, a row built separately counts as changed.
fn first_changed_row(old: &Arc<Relation>, new: &Arc<Relation>) -> Option<usize> {
    if Arc::ptr_eq(old, new) {
        return None;
    }
    let (old, new) = (old.tuples(), new.tuples());
    match old.iter().zip(new).position(|(a, b)| !Tuple::same_row(a, b)) {
        Some(row) => Some(row),
        None => (old.len() != new.len()).then(|| old.len().min(new.len())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, RelationSchema};
    use crate::value::{NumNullId, Value};

    /// The display-form definition the digest is pinned to, written
    /// out with one `String` per row.
    fn reference_digest(db: &Database) -> u64 {
        let mut h = Fnv1a64::new();
        for rel in db.relations() {
            h.update(rel.schema().name().as_bytes());
            h.update(b"|");
            for col in rel.schema().columns() {
                h.update(format!("{}:{:?};", col.name(), col.sort()).as_bytes());
            }
            for t in rel.tuples() {
                h.update(format!("{t}\n").as_bytes());
            }
        }
        h.finish()
    }

    fn db(rows: i64) -> Database {
        let mut db = Database::new();
        let schema = RelationSchema::new("R", vec![Column::base("a"), Column::num("x")]).unwrap();
        let mut r = Relation::empty(schema);
        for i in 0..rows {
            let x = if i % 3 == 0 { Value::NumNull(NumNullId(i as u32)) } else { Value::num(i) };
            r.insert_values(vec![Value::str(&format!("k{i}")), x]).unwrap();
        }
        db.add_relation(r).unwrap();
        db
    }

    #[test]
    fn streaming_digest_matches_the_display_form_definition() {
        for rows in [0, 1, 63, 64, 65, 200] {
            assert_eq!(database_digest(&db(rows)), reference_digest(&db(rows)), "{rows} rows");
        }
        assert_eq!(database_digest(&Database::new()), Fnv1a64::new().finish());
    }

    #[test]
    fn saved_states_sit_at_every_span_boundary() {
        for (rows, states) in [(0, 1), (63, 1), (64, 2), (128, 3), (130, 3)] {
            let digest = DatabaseDigest::compute(&db(rows), None);
            assert_eq!(digest.relations[0].states.len(), states, "{rows} rows");
            assert_eq!(digest.rows_read(), rows as usize);
        }
    }

    #[test]
    fn an_unchanged_database_reads_no_rows() {
        let old = db(300);
        let saved = DatabaseDigest::compute(&old, None);
        let resumed = DatabaseDigest::compute(&old.clone(), Some((&old, &saved)));
        assert_eq!(resumed.value(), saved.value());
        assert_eq!(resumed.rows_read(), 0);
    }

    #[test]
    fn equal_rows_built_separately_are_reread_not_trusted() {
        // Same contents, no shared rows: the resume must fall back to
        // reading (and still agree).
        let (old, new) = (db(100), db(100));
        let saved = DatabaseDigest::compute(&old, None);
        let resumed = DatabaseDigest::compute(&new, Some((&old, &saved)));
        assert_eq!(resumed.value(), saved.value());
        assert_eq!(resumed.rows_read(), 100);
    }
}
