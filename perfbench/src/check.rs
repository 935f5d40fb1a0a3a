//! Reply identity and the accuracy reference.
//!
//! A read reply is reduced to one FNV-1a digest of its μ-relevant bits
//! — per answer, in candidate order: the tuple's display form, the ν
//! bit pattern, the sample count and the dimension — plus the epoch and
//! database digest it names. A write ack is reduced to its epoch,
//! database digest, applied and no-op counts. Two replies agree iff
//! these agree.

use std::collections::BTreeMap;

use qarith_core::afpras::{AfprasOptions, SampleCount};
use qarith_core::{AnswerWithCertainty, CertaintyEngine, MeasureOptions, MethodChoice};
use qarith_net::{Decoded, Reply, WriteAck};
use qarith_numeric::Fnv1a64;
use qarith_rewrite::RewriteOptions;
use qarith_serve::{QueryResponse, WriteOutcome};

use crate::EPSILON;

/// What one op's reply said, reduced to what the checks compare.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// A read reply.
    Read {
        /// Digest of the answers' bits, in candidate order.
        bits: u64,
        /// The epoch the answers were computed against.
        epoch: u64,
        /// The database digest of that epoch.
        db: u64,
    },
    /// A write ack.
    Write {
        /// The epoch the batch published.
        epoch: u64,
        /// The published database's digest.
        db: u64,
        /// Ops that changed the database.
        applied: u64,
        /// Well-typed no-op ops.
        noops: u64,
    },
    /// An error reply, a transport error, or an undecodable frame.
    Failed(String),
}

impl Outcome {
    /// The outcome of a decoded wire reply.
    pub fn of_decoded(decoded: &Decoded) -> Outcome {
        match decoded {
            Decoded::Reply(reply) => Outcome::of_reply(reply),
            Decoded::Write(ack) => Outcome::of_ack(ack),
            Decoded::Error { kind, message } => {
                Outcome::Failed(format!("{} error: {message}", kind.name()))
            }
        }
    }

    fn of_reply(reply: &Reply) -> Outcome {
        let mut h = Fnv1a64::new();
        for a in &reply.answers {
            absorb(&mut h, &a.tuple, a.nu_bits, a.samples, a.dimension);
        }
        match (reply.epoch, reply.db_digest) {
            (Some(epoch), Some(db)) => Outcome::Read { bits: h.finish(), epoch, db },
            _ => Outcome::Failed("reply names no epoch or database digest".to_string()),
        }
    }

    fn of_ack(ack: &WriteAck) -> Outcome {
        Outcome::Write {
            epoch: ack.epoch,
            db: ack.db_digest,
            applied: ack.applied,
            noops: ack.noops,
        }
    }

    /// The outcome of an in-process response.
    pub fn of_response(response: &QueryResponse) -> Outcome {
        let mut h = Fnv1a64::new();
        for a in &response.answers {
            let c = &a.certainty;
            absorb(
                &mut h,
                &a.tuple.to_string(),
                c.value.to_bits(),
                c.samples as u64,
                c.dimension as u64,
            );
        }
        Outcome::Read { bits: h.finish(), epoch: response.epoch, db: response.db_digest }
    }

    /// The outcome of an in-process write.
    pub fn of_write(outcome: &WriteOutcome) -> Outcome {
        Outcome::Write {
            epoch: outcome.epoch,
            db: outcome.db_digest,
            applied: outcome.applied,
            noops: outcome.noops,
        }
    }

    /// `true` unless the op failed.
    pub fn ok(&self) -> bool {
        !matches!(self, Outcome::Failed(_))
    }
}

/// One digest over a sequence of outcomes: identical across runs of one
/// seed that reach the same ops.
pub fn outcomes_digest<'a>(outcomes: impl IntoIterator<Item = &'a Outcome>) -> u64 {
    let mut h = Fnv1a64::new();
    for outcome in outcomes {
        let words = match outcome {
            Outcome::Read { bits, epoch, db } => [0, *bits, *epoch, *db, 0],
            Outcome::Write { epoch, db, applied, noops } => [1, *epoch, *db, *applied, *noops],
            Outcome::Failed(_) => [2, 0, 0, 0, 0],
        };
        for w in words {
            h.update(&w.to_le_bytes());
        }
    }
    h.finish()
}

fn absorb(h: &mut Fnv1a64, tuple: &str, nu_bits: u64, samples: u64, dimension: u64) {
    h.update(tuple.as_bytes());
    h.update(&[0]);
    for n in [nu_bits, samples, dimension] {
        h.update(&n.to_le_bytes());
    }
}

/// Checks that every read names the epoch and database digest of the
/// last write acknowledged before it on the same connection, starting
/// from `initial` (the epoch-0 identity of the reference database).
/// Returns one message per violation.
pub fn epoch_chain(outcomes: &[&Outcome], initial: (u64, u64)) -> Vec<String> {
    let mut current = initial;
    let mut problems = Vec::new();
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            Outcome::Write { epoch, db, .. } => {
                if *epoch != current.0 + 1 {
                    problems
                        .push(format!("op {i}: write published epoch {epoch} after {}", current.0));
                }
                current = (*epoch, *db);
            }
            Outcome::Read { epoch, db, .. } if (*epoch, *db) != current => problems.push(format!(
                "op {i}: read names epoch {epoch} db {db:016x}, expected {} db {:016x}",
                current.0, current.1
            )),
            _ => {}
        }
    }
    problems
}

/// The accuracy reference behind `mean_abs_err`: ν_ref for a ground
/// formula, exact wherever the rewrite pipeline routes it to an exact
/// evaluator, otherwise AFPRAS at ε/10 with a sampling seed independent
/// of the served one.
#[derive(Debug)]
pub struct AccuracyReference {
    engine: CertaintyEngine,
}

impl AccuracyReference {
    /// A reference engine whose sampling seed derives from
    /// `validation_seed`.
    pub fn new(validation_seed: u64) -> AccuracyReference {
        let options = MeasureOptions {
            method: MethodChoice::Auto,
            afpras: AfprasOptions {
                epsilon: EPSILON / 10.0,
                samples: SampleCount::Paper,
                seed: validation_seed ^ 0x0ACC_0AEF,
                ..AfprasOptions::default()
            },
            rewrite: RewriteOptions { enabled: true, ..RewriteOptions::default() },
            ..MeasureOptions::default()
        };
        AccuracyReference { engine: CertaintyEngine::new(options) }
    }

    /// Mean |ν̂ − ν_ref| over the sampled answers among `answers`
    /// (answers with an identical ground formula count once), using at
    /// most `cap` of them chosen by `validation_seed`. Returns the mean
    /// and the number of answers it covers.
    pub fn mean_abs_err(
        &self,
        answers: &[AnswerWithCertainty],
        validation_seed: u64,
        cap: usize,
    ) -> Result<(f64, usize), String> {
        // Keyed by the formula's display form: a BTreeMap keeps the
        // selection independent of hash order.
        let mut distinct: BTreeMap<String, &AnswerWithCertainty> = BTreeMap::new();
        for a in answers.iter().filter(|a| a.certainty.samples > 0) {
            distinct.entry(a.formula.to_string()).or_insert(a);
        }
        let mut chosen: Vec<(u64, &String, &AnswerWithCertainty)> = distinct
            .iter()
            .map(|(formula, a)| (seeded_rank(validation_seed, formula), formula, *a))
            .collect();
        chosen.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(b.1)));
        chosen.truncate(cap);
        if chosen.is_empty() {
            return Err("no sampled answers to check accuracy on".to_string());
        }
        let mut total = 0.0;
        for (_, formula, answer) in &chosen {
            let reference = self
                .engine
                .nu(&answer.formula)
                .map_err(|e| format!("accuracy reference failed on `{formula}`: {e}"))?;
            total += (answer.certainty.value - reference.value).abs();
        }
        Ok((total / chosen.len() as f64, chosen.len()))
    }
}

fn seeded_rank(seed: u64, text: &str) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(&seed.to_le_bytes());
    h.update(text.as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(epoch: u64, db: u64) -> Outcome {
        Outcome::Read { bits: 1, epoch, db }
    }

    fn write(epoch: u64, db: u64) -> Outcome {
        Outcome::Write { epoch, db, applied: 4, noops: 0 }
    }

    #[test]
    fn epoch_chain_follows_acknowledged_writes() {
        let ops = [read(0, 7), write(1, 8), read(1, 8), read(1, 8), write(2, 9), read(2, 9)];
        assert!(epoch_chain(&ops.iter().collect::<Vec<_>>(), (0, 7)).is_empty());
    }

    #[test]
    fn epoch_chain_flags_stale_reads_and_skipped_epochs() {
        let stale = [write(1, 8), read(0, 7)];
        assert_eq!(epoch_chain(&stale.iter().collect::<Vec<_>>(), (0, 7)).len(), 1);
        let skipped = [write(2, 9)];
        assert_eq!(epoch_chain(&skipped.iter().collect::<Vec<_>>(), (0, 7)).len(), 1);
        let wrong_db = [read(0, 6)];
        assert_eq!(epoch_chain(&wrong_db.iter().collect::<Vec<_>>(), (0, 7)).len(), 1);
    }
}
