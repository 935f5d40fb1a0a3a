//! The op sequences: what each workload sends, in which order.
//!
//! Op `k` of a workload is a function of the workload seed and `k`
//! alone, so the wire run, the reference replay and the traced replay
//! all see the same sequence however many ops a run reaches.

use std::borrow::Cow;

use qarith_datagen::mutations::{sales_mutations, MutationShape};
use qarith_datagen::QueryFamily;
use qarith_types::{Database, WriteBatch};

use crate::{mix, Workload};

/// Ops per write batch (the shape `serve_bench --mutate` replays).
pub const OPS_PER_BATCH: usize = 4;

/// Write batches each set-up daemon of `warm` and `adhoc` takes, so that
/// every workload reports a write-ack latency: the first, whose ack
/// also waits for the accept poll, and eight timed ones.
pub const PROBE_WRITES: usize = 9;

/// Decimal digits of an adhoc literal's draw: a family literal `L`
/// becomes `L · n / 10^6` for some `n` in `[10^6 / 2, 3 · 10^6 / 2)`,
/// so each template takes 10^6 distinct values.
const DRAW_DIGITS: u32 = 6;
const DRAWS: u64 = 10u64.pow(DRAW_DIGITS);

/// One request of a workload.
#[derive(Clone, Debug)]
pub enum Op<'a> {
    /// A SQL query.
    Read(Cow<'a, str>),
    /// A write batch.
    Write(&'a WriteBatch),
}

/// A family query with its numeric literals cut out: `text[0]`, then
/// each literal followed by the next piece of text.
#[derive(Debug)]
struct Template {
    text: Vec<String>,
    /// Each literal as (mantissa, decimal digits): `0.5` is (5, 1).
    literals: Vec<(u64, u32)>,
}

impl Template {
    /// Cuts the numeric literals before `LIMIT` out of `sql`.
    fn parse(sql: &str) -> Template {
        let (body, limit) = sql.split_at(sql.find(" LIMIT ").unwrap_or(sql.len()));
        let bytes = body.as_bytes();
        let (mut text, mut literals) = (Vec::new(), Vec::new());
        let (mut piece, mut i) = (0, 0);
        while i < bytes.len() {
            let in_word =
                i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || b"_.".contains(&bytes[i - 1]));
            if !bytes[i].is_ascii_digit() || in_word {
                i += 1;
                continue;
            }
            let end =
                i + bytes[i..].iter().take_while(|c| c.is_ascii_digit() || **c == b'.').count();
            let (int, frac) = body[i..end].split_once('.').unwrap_or((&body[i..end], ""));
            let mantissa: u64 =
                format!("{int}{frac}").parse().expect("a family literal is a decimal");
            assert!(mantissa > 0, "a zero literal has no distinct multiples: `{sql}`");
            literals.push((mantissa, frac.len() as u32));
            text.push(body[piece..i].to_string());
            (piece, i) = (end, end);
        }
        text.push(format!("{}{limit}", &body[piece..]));
        Template { text, literals }
    }

    /// The template with its literals multiplied by `(1/2 + draws[j] mod
    /// 10^6 / 10^6)`, each written exactly.
    fn instantiate(&self, draws: impl Iterator<Item = u64>) -> String {
        let mut sql = self.text[0].clone();
        for ((&(mantissa, digits), draw), text) in
            self.literals.iter().zip(draws).zip(&self.text[1..])
        {
            let value = u128::from(mantissa) * u128::from(DRAWS / 2 + draw % DRAWS);
            let unit = 10u128.pow(digits + DRAW_DIGITS);
            let width = (digits + DRAW_DIGITS) as usize;
            sql.push_str(&format!("{}.{:0width$}{text}", value / unit, value % unit));
        }
        sql
    }
}

/// A workload's op sequence.
#[derive(Debug)]
pub struct Stream {
    workload: Workload,
    seed: u64,
    /// The 10 SQL strings of the sales, range and division families:
    /// `warm` and `write_mix` send them round-robin, and every workload
    /// sends them in its untimed warm-up pass.
    family: Vec<String>,
    /// `adhoc`: the distinct family templates that carry literals.
    templates: Vec<Template>,
    /// `write_mix`: one batch per rotation. Otherwise: the probe.
    writes: Vec<WriteBatch>,
}

impl Stream {
    /// The sequence for `workload` under `seed`, derived from the
    /// database `netd` generates for that seed. On `write_mix` the
    /// write batches (a sequence, each applying to the database the
    /// previous ones left) are generated up front to cover `capacity`
    /// ops; past them the sequence ends.
    pub fn new(workload: Workload, seed: u64, db: &Database, capacity: usize) -> Stream {
        let family: Vec<String> =
            QueryFamily::all().iter().flat_map(QueryFamily::queries).map(|q| q.sql).collect();
        let mut templates: Vec<Template> = Vec::new();
        for sql in &family {
            let template = Template::parse(sql);
            if !template.literals.is_empty() && templates.iter().all(|t| t.text != template.text) {
                templates.push(template);
            }
        }
        let batches = match workload {
            Workload::Warm | Workload::Adhoc => PROBE_WRITES,
            Workload::WriteMix => capacity / (family.len() + 1) + 1,
        };
        let shape = MutationShape { batches, ops_per_batch: OPS_PER_BATCH };
        let writes = sales_mutations(db, seed ^ 0x3417_E5EE, shape);
        Stream { workload, seed, family, templates, writes }
    }

    /// Op `k` of the timed sequence, or `None` past its end.
    pub fn op(&self, k: usize) -> Option<Op<'_>> {
        let family = |i: usize| Op::Read(Cow::Borrowed(self.family[i].as_str()));
        match self.workload {
            Workload::Warm => Some(family(k % self.family.len())),
            Workload::Adhoc => self.adhoc_read(k).map(|sql| Op::Read(Cow::Owned(sql))),
            Workload::WriteMix => {
                let rotation = self.family.len() + 1;
                if k % rotation < self.family.len() {
                    Some(family(k % rotation))
                } else {
                    self.writes.get(k / rotation).map(Op::Write)
                }
            }
        }
    }

    /// Adhoc op `k`: the templates go round-robin, and round `k / 8`
    /// draws their literals from the seed. A template's first literal
    /// is a seeded bijection of the round, so no instantiation repeats
    /// (every fingerprint is new) for 10^6 rounds; the sequence ends
    /// there. The other literals are free seeded draws.
    fn adhoc_read(&self, k: usize) -> Option<String> {
        let (t, round) = (k % self.templates.len(), (k / self.templates.len()) as u64);
        if round >= DRAWS {
            return None;
        }
        // A step ending in 1 is coprime to 10^6.
        let step = 10 * (mix(self.seed ^ 0xAD0C, t as u64) % (DRAWS / 10)) + 1;
        let first = step * round + mix(self.seed ^ 0xAD0D, t as u64) % DRAWS;
        let per_op = mix(self.seed ^ 0xAD0E, k as u64);
        let rest = (1..).map(|j: u64| mix(per_op, j));
        Some(self.templates[t].instantiate(std::iter::once(first).chain(rest)))
    }

    /// The untimed pass run before the window: it fills the plan and ν
    /// caches for `warm` and `write_mix`.
    pub fn warmup(&self) -> &[String] {
        &self.family
    }

    /// The write batches each set-up daemon takes (`warm`, `adhoc`).
    pub fn probe(&self) -> &[WriteBatch] {
        match self.workload {
            Workload::WriteMix => &[],
            Workload::Warm | Workload::Adhoc => &self.writes,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    #[test]
    fn templates_are_the_family_queries_that_carry_literals() {
        let t = Template::parse(
            "SELECT O.id FROM Orders O WHERE O.dis / O.q >= 0.8 AND O.q >= 10 LIMIT 25",
        );
        assert_eq!(t.literals, [(8, 1), (10, 0)]);
        assert_eq!(
            t.text,
            ["SELECT O.id FROM Orders O WHERE O.dis / O.q >= ", " AND O.q >= ", " LIMIT 25"]
        );
        assert_eq!(
            t.instantiate([0, 999_999].into_iter()),
            "SELECT O.id FROM Orders O WHERE O.dis / O.q >= 0.4000000 AND O.q >= 14.999990 LIMIT 25"
        );
        // Competitive Advantage has no literal, and Unfair Discount is
        // in two families.
        let db = crate::database(Workload::Adhoc, 1);
        assert_eq!(Stream::new(Workload::Adhoc, 1, &db, 0).templates.len(), 8);
    }

    #[test]
    fn adhoc_never_repeats_a_query() {
        let db = crate::database(Workload::Adhoc, 3);
        let stream = Stream::new(Workload::Adhoc, 3, &db, 0);
        let mut seen = HashSet::new();
        for k in 0..20_000 {
            let Some(Op::Read(sql)) = stream.op(k) else { panic!("op {k} is a read") };
            assert!(seen.insert(sql.into_owned()), "op {k} repeats an earlier query");
        }
        let again = Stream::new(Workload::Adhoc, 3, &db, 0);
        assert_eq!(format!("{:?}", stream.op(12_345)), format!("{:?}", again.op(12_345)));
        assert!(stream.op(8 * DRAWS as usize).is_none());
    }
}
