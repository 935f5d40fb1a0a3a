//! Join-based executor for conjunctive queries over incomplete databases.
//!
//! For a CQ `q(x̄) = ∃ȳ (R₁ ∧ … ∧ R_k ∧ eqs ∧ cmps)` the executor
//! enumerates join homomorphisms in a greedy atom order, probing each
//! relation's shared per-column index ([`qarith_types::ColumnIndex`],
//! built once per relation version, not per query) on the first
//! base-sort column that is bound when the atom is reached (base nulls
//! join as fresh constants, per Proposition 5.2), and turns
//! every numerical condition that is not decided by constants into a
//! *residual* constraint atom over the null variables `z̄`. Each completed
//! homomorphism yields one output row: a candidate tuple plus the
//! conjunction of its residual atoms. The ground formula of a candidate is
//! the disjunction of its rows' conjunctions — exactly the
//! Proposition 5.3 formula, produced join-first instead of via
//! active-domain expansion.
//!
//! This module plays the role PostgreSQL played in the paper's §9
//! experiments: producing candidate answers and "a compact representation
//! of the formulae φ_{q,D,a,s}". [`CqOptions::limit`] mirrors the
//! `LIMIT n` clause of the paper's decision-support queries (stop after
//! `n` derivation rows); [`CqOptions::exhaustive`] instead scans all
//! derivations so that the per-candidate formula is complete (the mode
//! used when cross-checking against [`crate::ground`]).

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use qarith_constraints::{Atom, ConstraintOp, Polynomial, QfFormula};
use qarith_numeric::Rational;
use qarith_query::{Arg, BaseTerm, CompareOp, Formula, Ident, NumTerm, Query, TypedVar};
use qarith_types::{ColumnIndex, Database, Sort, Tuple, Value};

use crate::domain::ActiveDomain;
use crate::env::{base_term_value, null_var, term_to_polynomial, Bound, Env};
use crate::error::EngineError;
use crate::ground::constraint_op;

/// Execution options.
#[derive(Clone, Debug)]
pub struct CqOptions {
    /// Stop after this many derivation rows — SQL `LIMIT` semantics, as in
    /// the paper's queries (`LIMIT 25`). `None` scans everything.
    pub limit: Option<usize>,
    /// When `true`, `limit` counts *distinct candidates* instead of
    /// derivation rows. Nested-loop execution emits rows grouped by the
    /// outer relation, so row-counting LIMIT can return a single
    /// candidate 25 times; candidate-counting gives the analyst 25
    /// distinct results, which is what the paper's experiment analyzes.
    pub count_candidates: bool,
    /// When `true`, ignore `limit` while *collecting* derivations and only
    /// apply it to the number of distinct candidates, so each reported
    /// candidate carries its complete formula.
    pub exhaustive: bool,
    /// Cap on recorded derivations per candidate (guards against
    /// pathological fan-out; exceeding it sets
    /// [`CandidateAnswer::truncated`]).
    pub max_derivations_per_candidate: usize,
}

impl Default for CqOptions {
    fn default() -> Self {
        CqOptions {
            limit: None,
            count_candidates: false,
            exhaustive: true,
            max_derivations_per_candidate: 4096,
        }
    }
}

impl CqOptions {
    /// Paper-style options: `LIMIT n`, first-rows semantics.
    pub fn with_limit(n: usize) -> CqOptions {
        CqOptions { limit: Some(n), exhaustive: false, ..CqOptions::default() }
    }

    /// `LIMIT n` counting distinct candidates (see
    /// [`CqOptions::count_candidates`]).
    pub fn with_candidate_limit(n: usize) -> CqOptions {
        CqOptions {
            limit: Some(n),
            exhaustive: false,
            count_candidates: true,
            ..CqOptions::default()
        }
    }

    /// Options for an optional statement-level `LIMIT` — the one helper
    /// that carries a lowered SQL statement's limit into execution.
    /// `Some(n)` gives candidate-counting `LIMIT n` (the analyst sees `n`
    /// *distinct* results, as in the paper's §9 experiment); `None` scans
    /// exhaustively.
    pub fn for_limit(limit: Option<usize>) -> CqOptions {
        match limit {
            Some(n) => CqOptions::with_candidate_limit(n),
            None => CqOptions::default(),
        }
    }
}

/// One candidate answer with its ground formula.
#[derive(Clone, Debug)]
pub struct CandidateAnswer {
    /// The candidate tuple (values for the query head).
    pub tuple: Tuple,
    /// `φ(z̄)` — disjunction over the recorded derivations.
    ///
    /// `Arc`-shared: downstream batch plans, caches, and rehydrated
    /// answers all reference the same immutable tree instead of deep-
    /// cloning it per candidate (formula trees dominate candidate size
    /// on real workloads).
    pub formula: Arc<QfFormula>,
    /// Number of derivations recorded (0 when `certain`, whose formula
    /// collapses to `true`).
    pub derivations: usize,
    /// `true` iff some derivation had no residual constraints: the
    /// candidate is an answer under *every* valuation (μ = 1).
    pub certain: bool,
    /// `true` iff the per-candidate derivation cap was hit (the formula
    /// is then a sound under-approximation: μ(reported) ≤ μ(true)).
    pub truncated: bool,
}

/// The flattened body of a conjunctive query.
struct CqBody {
    rel_atoms: Vec<(Ident, Vec<Arg>)>,
    base_eqs: Vec<(BaseTerm, BaseTerm)>,
    cmps: Vec<(NumTerm, CompareOp, NumTerm)>,
    binders: Vec<TypedVar>,
}

fn decompose(f: &Formula, body: &mut CqBody) -> Result<(), EngineError> {
    match f {
        Formula::True => Ok(()),
        Formula::False => Err(EngineError::NotConjunctive { construct: "false" }),
        Formula::Rel { relation, args } => {
            body.rel_atoms.push((relation.clone(), args.clone()));
            Ok(())
        }
        Formula::BaseEq(l, r) => {
            body.base_eqs.push((l.clone(), r.clone()));
            Ok(())
        }
        Formula::Cmp(l, op, r) => {
            body.cmps.push((l.clone(), *op, r.clone()));
            Ok(())
        }
        Formula::And(parts) => {
            for p in parts {
                decompose(p, body)?;
            }
            Ok(())
        }
        Formula::Exists(vars, inner) => {
            body.binders.extend(vars.iter().cloned());
            decompose(inner, body)
        }
        Formula::Not(_) => Err(EngineError::NotConjunctive { construct: "negation" }),
        Formula::Or(_) => Err(EngineError::NotConjunctive { construct: "disjunction" }),
        Formula::Forall(..) => {
            Err(EngineError::NotConjunctive { construct: "universal quantification" })
        }
    }
}

/// A join-plan entry: one relation atom, the base arguments that are
/// bound when it is reached, and the relation's index on the first of
/// them.
struct PlannedAtom<'a> {
    args: Vec<Arg>,
    /// `(column, term)` for every constant base argument and every base
    /// variable an earlier atom binds. Empty for a scan.
    key: Vec<(usize, BaseTerm)>,
    tuples: &'a [Tuple],
    /// The relation's shared index on the first key column (`None` for
    /// a scan).
    index: Option<&'a ColumnIndex>,
}

/// A numerical comparison filter with its variable support, applied as
/// soon as all variables are bound. (Base equalities never reach the
/// filter stage — they are absorbed by the [`Unifier`].)
struct PlannedFilter {
    lhs: NumTerm,
    op: CompareOp,
    rhs: NumTerm,
    vars: HashSet<Ident>,
}

/// Union-find over base terms, used to turn top-level equality filters
/// (`P.seg = M.seg`) into *shared variables*, so that equi-joins probe
/// the relations' column indexes instead of filtering cross products.
/// This is what makes the 200K-tuple §9 workloads run in milliseconds:
/// without it a three-table query with equality predicates enumerates
/// the full cross product.
struct Unifier {
    map: HashMap<Ident, BaseTerm>,
}

impl Unifier {
    fn new() -> Unifier {
        Unifier { map: HashMap::new() }
    }

    /// Follows the substitution chain to the representative term.
    fn resolve(&self, t: &BaseTerm) -> BaseTerm {
        let mut cur = t.clone();
        loop {
            match &cur {
                BaseTerm::Var(x) => match self.map.get(x) {
                    Some(next) => cur = next.clone(),
                    None => return cur,
                },
                BaseTerm::Const(_) => return cur,
            }
        }
    }

    /// Merges the classes of `a` and `b`. Returns `false` if this equates
    /// two distinct constants (the query is unsatisfiable).
    fn union(&mut self, a: &BaseTerm, b: &BaseTerm) -> bool {
        let ra = self.resolve(a);
        let rb = self.resolve(b);
        if ra == rb {
            return true;
        }
        match (&ra, &rb) {
            (BaseTerm::Var(x), _) => {
                self.map.insert(x.clone(), rb);
                true
            }
            (_, BaseTerm::Var(y)) => {
                self.map.insert(y.clone(), ra);
                true
            }
            (BaseTerm::Const(_), BaseTerm::Const(_)) => false,
        }
    }
}

/// How a head (free) variable obtains its output value after
/// unification.
enum HeadBinding {
    /// Unified with a constant.
    Const(Value),
    /// Read from the environment under the canonical name.
    Var(Ident),
}

/// Executes a conjunctive query, returning candidates with ground
/// formulas, in first-derivation order.
pub fn execute(
    query: &Query,
    db: &Database,
    opts: &CqOptions,
) -> Result<Vec<CandidateAnswer>, EngineError> {
    let mut body = CqBody {
        rel_atoms: Vec::new(),
        base_eqs: Vec::new(),
        cmps: Vec::new(),
        binders: Vec::new(),
    };
    decompose(query.body(), &mut body)?;

    // Absorb top-level base equalities into shared variables. An
    // inconsistent constant equation makes the query unsatisfiable.
    let mut uni = Unifier::new();
    for (l, r) in &body.base_eqs {
        if !uni.union(l, r) {
            return Ok(Vec::new());
        }
    }
    body.base_eqs.clear();
    for (_, args) in &mut body.rel_atoms {
        for a in args.iter_mut() {
            if let Arg::Base(t) = a {
                *a = Arg::Base(uni.resolve(t));
            }
        }
    }

    let plan = plan_join(&body, db)?;

    let mut filters: Vec<PlannedFilter> = Vec::new();
    for (l, op, r) in &body.cmps {
        let mut vars = HashSet::new();
        l.visit_vars(&mut |x| {
            vars.insert(x.clone());
        });
        r.visit_vars(&mut |x| {
            vars.insert(x.clone());
        });
        filters.push(PlannedFilter { lhs: l.clone(), op: *op, rhs: r.clone(), vars });
    }

    // Head bindings resolve through the unifier.
    let head: Vec<HeadBinding> = query
        .free_vars()
        .iter()
        .map(|v| match v.sort {
            Sort::Base => match uni.resolve(&BaseTerm::Var(v.name.clone())) {
                BaseTerm::Const(c) => HeadBinding::Const(Value::Base(c)),
                BaseTerm::Var(x) => HeadBinding::Var(x),
            },
            Sort::Num => HeadBinding::Var(v.name.clone()),
        })
        .collect();

    // Variables not covered by any relation atom fall back to
    // active-domain enumeration (rare; needed for completeness). After
    // unification only canonical representatives need enumeration.
    let covered = covered_vars(&plan);
    let mut seen_uncovered: HashSet<Ident> = HashSet::new();
    let mut uncovered: Vec<TypedVar> = Vec::new();
    for v in query.free_vars().iter().chain(body.binders.iter()) {
        match v.sort {
            Sort::Base => match uni.resolve(&BaseTerm::Var(v.name.clone())) {
                BaseTerm::Const(_) => {}
                BaseTerm::Var(c) => {
                    if !covered.contains(&c) && seen_uncovered.insert(c.clone()) {
                        uncovered.push(TypedVar { name: c, sort: Sort::Base });
                    }
                }
            },
            Sort::Num => {
                if !covered.contains(&v.name) && seen_uncovered.insert(v.name.clone()) {
                    uncovered.push(v.clone());
                }
            }
        }
    }
    let dom = if uncovered.is_empty() { None } else { Some(ActiveDomain::collect(db, query, &[])) };
    // Each uncovered variable with the active-domain values of its sort.
    let uncovered: Vec<(Ident, &[Value])> = match &dom {
        None => Vec::new(),
        Some(dom) => uncovered
            .into_iter()
            .map(|v| {
                let values = match v.sort {
                    Sort::Base => dom.base(),
                    Sort::Num => dom.num(),
                };
                (v.name, values)
            })
            .collect(),
    };

    let mut exec = Executor {
        plan: &plan,
        filters: &filters,
        applied: vec![false; filters.len()],
        head: &head,
        uncovered: &uncovered,
        opts,
        env: Env::new(),
        residuals: Vec::new(),
        rows_emitted: 0,
        order: Vec::new(),
        candidates: HashMap::new(),
        done: false,
    };
    exec.join(0)?;

    let Executor { order, mut candidates, .. } = exec;
    let mut out = Vec::with_capacity(order.len());
    for key in order {
        if let Some(max) = opts.limit {
            if out.len() >= max {
                break;
            }
        }
        // Every key in `order` was recorded with its state.
        let Some(state) = candidates.remove(&key) else { continue };
        let certain = state.certain;
        let derivations = state.disjuncts.len();
        let formula =
            Arc::new(if certain { QfFormula::True } else { QfFormula::or(state.disjuncts) });
        out.push(CandidateAnswer {
            tuple: key,
            formula,
            derivations,
            certain,
            truncated: state.truncated,
        });
    }
    Ok(out)
}

fn plan_join<'a>(body: &CqBody, db: &'a Database) -> Result<Vec<PlannedAtom<'a>>, EngineError> {
    let mut remaining: Vec<(Ident, Vec<Arg>)> = body.rel_atoms.clone();
    let mut bound: HashSet<Ident> = HashSet::new();
    let mut plan = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        // Greedy: the atom with the most bound base arguments, ties broken
        // by smaller relation.
        let mut best = 0usize;
        let mut best_score: Option<(usize, usize)> = None;
        for (i, (rel, args)) in remaining.iter().enumerate() {
            let relation = db
                .relation(rel)
                .ok_or_else(|| EngineError::UnknownRelation { relation: rel.to_string() })?;
            let keys = args
                .iter()
                .filter(|a| match a {
                    Arg::Base(BaseTerm::Const(_)) => true,
                    Arg::Base(BaseTerm::Var(x)) => bound.contains(x),
                    Arg::Num(_) => false,
                })
                .count();
            let candidate_score = (keys, relation.len());
            let better = match best_score {
                None => true,
                Some((bk, bl)) => keys > bk || (keys == bk && relation.len() < bl),
            };
            if better {
                best_score = Some(candidate_score);
                best = i;
            }
        }
        let (rel, args) = remaining.remove(best);
        let relation = db
            .relation(&rel)
            .ok_or_else(|| EngineError::UnknownRelation { relation: rel.to_string() })?;
        let key: Vec<(usize, BaseTerm)> = args
            .iter()
            .enumerate()
            .filter_map(|(i, a)| match a {
                Arg::Base(t @ BaseTerm::Const(_)) => Some((i, t.clone())),
                Arg::Base(t @ BaseTerm::Var(x)) if bound.contains(x) => Some((i, t.clone())),
                Arg::Base(BaseTerm::Var(_)) | Arg::Num(_) => None,
            })
            .collect();
        let index = key
            .first()
            .map(|&(column, _)| {
                let unindexable = || EngineError::Unindexable { relation: rel.to_string(), column };
                relation.column_index(column).ok_or_else(unindexable)
            })
            .transpose()?;

        for a in &args {
            match a {
                Arg::Base(BaseTerm::Var(x)) => {
                    bound.insert(x.clone());
                }
                Arg::Num(t) => t.visit_vars(&mut |x| {
                    bound.insert(x.clone());
                }),
                _ => {}
            }
        }
        plan.push(PlannedAtom { args, key, tuples: relation.tuples(), index });
    }
    Ok(plan)
}

fn covered_vars(plan: &[PlannedAtom<'_>]) -> HashSet<Ident> {
    let mut out = HashSet::new();
    for p in plan {
        for a in &p.args {
            match a {
                Arg::Base(BaseTerm::Var(x)) => {
                    out.insert(x.clone());
                }
                // Only *bare* numerical variables get bound by matching a
                // relation column; arithmetic inside a relation argument
                // constrains, it does not bind.
                Arg::Num(NumTerm::Var(x)) => {
                    out.insert(x.clone());
                }
                _ => {}
            }
        }
    }
    out
}

/// Per-candidate accumulation.
struct CandidateState {
    disjuncts: Vec<QfFormula>,
    seen: HashSet<QfFormula>,
    certain: bool,
    truncated: bool,
}

struct Executor<'a> {
    plan: &'a [PlannedAtom<'a>],
    filters: &'a [PlannedFilter],
    applied: Vec<bool>,
    head: &'a [HeadBinding],
    uncovered: &'a [(Ident, &'a [Value])],
    opts: &'a CqOptions,
    env: Env,
    residuals: Vec<Atom>,
    rows_emitted: usize,
    order: Vec<Tuple>,
    candidates: HashMap<Tuple, CandidateState>,
    done: bool,
}

impl<'a> Executor<'a> {
    fn join(&mut self, depth: usize) -> Result<(), EngineError> {
        if self.done {
            return Ok(());
        }
        let plan = self.plan;
        let Some(atom) = plan.get(depth) else {
            return self.enumerate_uncovered(0);
        };
        let Some(index) = atom.index else {
            for tuple in atom.tuples {
                if self.done {
                    break;
                }
                self.try_tuple(depth, atom, tuple)?;
            }
            return Ok(());
        };
        let mut key = Vec::with_capacity(atom.key.len());
        for (column, term) in &atom.key {
            key.push((*column, base_term_value(term, &self.env)?));
        }
        let Some((_, first)) = key.first() else { return Ok(()) };
        // `rows` also lists rows whose value only shares `first`'s hash,
        // and it checks no other key column. Keeping the rows that
        // match the whole key visits exactly the rows, in the order, of
        // a scan filtered by the key.
        for &row in index.rows(first) {
            if self.done {
                break;
            }
            let Some(tuple) = atom.tuples.get(row as usize) else { continue };
            if key.iter().all(|(column, value)| tuple.values().get(*column) == Some(value)) {
                self.try_tuple(depth, atom, tuple)?;
            }
        }
        Ok(())
    }

    fn try_tuple(
        &mut self,
        depth: usize,
        atom: &PlannedAtom<'_>,
        tuple: &Tuple,
    ) -> Result<(), EngineError> {
        let mut bound_here: Vec<Ident> = Vec::new();
        let residual_mark = self.residuals.len();
        let mut applied_here: Vec<usize> = Vec::new();
        let mut ok = true;

        for (arg, cell) in atom.args.iter().zip(tuple.values()) {
            match arg {
                Arg::Base(BaseTerm::Const(v)) => {
                    if Value::Base(v.clone()) != *cell {
                        ok = false;
                        break;
                    }
                }
                Arg::Base(BaseTerm::Var(x)) => match self.env.get(x) {
                    Some(Bound::Base(v)) if v == cell => {}
                    // A different value, or a numerical binding, which
                    // no base cell equals.
                    Some(_) => {
                        ok = false;
                        break;
                    }
                    None => {
                        self.env.insert(x.clone(), Bound::Base(cell.clone()));
                        bound_here.push(x.clone());
                    }
                },
                Arg::Num(t) => {
                    // A base cell in a numerical column equals no term.
                    let Some(pv) = num_cell(cell) else {
                        ok = false;
                        break;
                    };
                    if let NumTerm::Var(x) = t {
                        if !self.env.contains_key(x) {
                            self.env.insert(x.clone(), Bound::Num(pv));
                            bound_here.push(x.clone());
                            continue;
                        }
                    }
                    let p = term_to_polynomial(t, &self.env)?;
                    let diff = p.checked_sub(&pv)?;
                    match diff.as_constant() {
                        Some(c) if c.is_zero() => {}
                        Some(_) => {
                            ok = false;
                            break;
                        }
                        None => self.residuals.push(Atom::new(diff, ConstraintOp::Eq)),
                    }
                }
            }
        }

        if ok {
            ok = self.apply_ready_filters(&mut applied_here)?;
        }
        if ok {
            self.join(depth + 1)?;
        }

        // Backtrack.
        self.residuals.truncate(residual_mark);
        self.unapply(applied_here);
        for x in bound_here {
            self.env.remove(&x);
        }
        Ok(())
    }

    /// Applies every not-yet-applied filter whose variables are all bound.
    /// Returns `false` if a filter is definitely violated. Residual atoms
    /// are pushed; `applied_here` records indices for backtracking.
    fn apply_ready_filters(&mut self, applied_here: &mut Vec<usize>) -> Result<bool, EngineError> {
        let filters = self.filters;
        for (i, (pf, applied)) in filters.iter().zip(self.applied.iter_mut()).enumerate() {
            if *applied || !pf.vars.iter().all(|x| self.env.contains_key(x)) {
                continue;
            }
            let p = term_to_polynomial(&pf.lhs, &self.env)?
                .checked_sub(&term_to_polynomial(&pf.rhs, &self.env)?)?;
            let a = Atom::new(p, constraint_op(pf.op));
            match a.as_constant() {
                Some(true) => {}
                Some(false) => return Ok(false),
                None => self.residuals.push(a),
            }
            *applied = true;
            applied_here.push(i);
        }
        Ok(true)
    }

    /// Marks the filters `apply_ready_filters` applied as pending again.
    fn unapply(&mut self, applied_here: Vec<usize>) {
        for i in applied_here {
            if let Some(applied) = self.applied.get_mut(i) {
                *applied = false;
            }
        }
    }

    fn enumerate_uncovered(&mut self, i: usize) -> Result<(), EngineError> {
        let uncovered = self.uncovered;
        let Some((name, values)) = uncovered.get(i) else {
            // All filters must be applied now (all variables bound).
            let mut applied_here = Vec::new();
            let residual_mark = self.residuals.len();
            let ok = self.apply_ready_filters(&mut applied_here)?;
            if ok {
                self.emit_row()?;
            }
            self.residuals.truncate(residual_mark);
            self.unapply(applied_here);
            return Ok(());
        };
        for value in *values {
            if self.done {
                break;
            }
            self.env.insert(name.clone(), Bound::from_value(value));
            self.enumerate_uncovered(i + 1)?;
            self.env.remove(name);
        }
        Ok(())
    }

    fn emit_row(&mut self) -> Result<(), EngineError> {
        // Build the candidate tuple.
        let mut values = Vec::with_capacity(self.head.len());
        for hb in self.head {
            let value = match hb {
                HeadBinding::Const(v) => v.clone(),
                HeadBinding::Var(name) => match self.env.get(name) {
                    Some(Bound::Base(val)) => val.clone(),
                    Some(Bound::Num(p)) => poly_to_value(p).ok_or_else(|| {
                        EngineError::NullComparison { comparison: format!("head value {p}") }
                    })?,
                    None => return Err(EngineError::UnboundVariable { var: name.to_string() }),
                },
            };
            values.push(value);
        }
        let tuple = Tuple::new(values);

        let conj = QfFormula::and(self.residuals.iter().cloned().map(QfFormula::atom));
        let state = match self.candidates.entry(tuple.clone()) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                self.order.push(tuple);
                e.insert(CandidateState {
                    disjuncts: Vec::new(),
                    seen: HashSet::new(),
                    certain: false,
                    truncated: false,
                })
            }
        };
        if conj == QfFormula::True {
            state.certain = true;
        } else if !state.certain {
            if state.disjuncts.len() >= self.opts.max_derivations_per_candidate {
                state.truncated = true;
            } else if state.seen.insert(conj.clone()) {
                state.disjuncts.push(conj);
            }
        }

        self.rows_emitted += 1;
        if !self.opts.exhaustive {
            if let Some(limit) = self.opts.limit {
                let reached = if self.opts.count_candidates {
                    self.order.len() >= limit
                } else {
                    self.rows_emitted >= limit
                };
                if reached {
                    self.done = true;
                }
            }
        }
        Ok(())
    }
}

/// The symbolic form of a numerical cell (`None` for a base value).
fn num_cell(cell: &Value) -> Option<Polynomial> {
    match cell {
        Value::Num(r) => Some(Polynomial::constant(*r)),
        Value::NumNull(id) => Some(Polynomial::var(null_var(*id))),
        Value::Base(_) | Value::BaseNull(_) => None,
    }
}

/// Converts a head polynomial back into a value: constants and single null
/// variables only (free variables are bound via relation columns or domain
/// enumeration, so this always succeeds for validated queries).
fn poly_to_value(p: &Polynomial) -> Option<Value> {
    if let Some(c) = p.as_constant() {
        return Some(Value::Num(c));
    }
    let mut terms = p.terms();
    if let (Some((m, c)), None) = (terms.next(), terms.next()) {
        if *c == Rational::ONE && m.degree() == 1 {
            let &(v, _) = m.factors().first()?;
            return Some(Value::NumNull(qarith_types::NumNullId(v.0)));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use qarith_numeric::Rational;
    use qarith_types::{Column, NumNullId, Relation, RelationSchema};

    fn sales_db() -> Database {
        let mut db = Database::new();
        let products = RelationSchema::new(
            "Products",
            vec![Column::base("id"), Column::base("seg"), Column::num("rrp"), Column::num("dis")],
        )
        .unwrap();
        let mut p = Relation::empty(products);
        p.insert_values(vec![
            Value::int(1),
            Value::str("toys"),
            Value::num(10),
            Value::decimal("0.8"),
        ])
        .unwrap();
        p.insert_values(vec![
            Value::int(2),
            Value::str("toys"),
            Value::NumNull(NumNullId(0)),
            Value::decimal("0.7"),
        ])
        .unwrap();
        p.insert_values(vec![
            Value::int(3),
            Value::str("games"),
            Value::num(30),
            Value::decimal("0.9"),
        ])
        .unwrap();
        db.add_relation(p).unwrap();

        let market = RelationSchema::new(
            "Market",
            vec![Column::base("seg"), Column::num("rrp"), Column::num("dis")],
        )
        .unwrap();
        let mut m = Relation::empty(market);
        m.insert_values(vec![Value::str("toys"), Value::num(9), Value::num(1)]).unwrap();
        m.insert_values(vec![Value::str("games"), Value::NumNull(NumNullId(1)), Value::num(1)])
            .unwrap();
        db.add_relation(m).unwrap();
        db
    }

    /// The "Competitive Advantage" shape: segments where our discounted
    /// price undercuts the market.
    fn advantage_query(db: &Database) -> Query {
        Query::new(
            vec![TypedVar::base("seg")],
            Formula::exists(
                vec![
                    TypedVar::base("id"),
                    TypedVar::num("rrp"),
                    TypedVar::num("dis"),
                    TypedVar::num("mrrp"),
                    TypedVar::num("mdis"),
                ],
                Formula::and(vec![
                    Formula::rel(
                        "Products",
                        vec![
                            Arg::Base(BaseTerm::var("id")),
                            Arg::Base(BaseTerm::var("seg")),
                            Arg::Num(NumTerm::var("rrp")),
                            Arg::Num(NumTerm::var("dis")),
                        ],
                    ),
                    Formula::rel(
                        "Market",
                        vec![
                            Arg::Base(BaseTerm::var("seg")),
                            Arg::Num(NumTerm::var("mrrp")),
                            Arg::Num(NumTerm::var("mdis")),
                        ],
                    ),
                    Formula::cmp(
                        NumTerm::var("rrp").mul(NumTerm::var("dis")),
                        CompareOp::Le,
                        NumTerm::var("mrrp").mul(NumTerm::var("mdis")),
                    ),
                ]),
            ),
            &db.catalog(),
        )
        .unwrap()
    }

    #[test]
    fn residual_constraints_and_certainty() {
        let db = sales_db();
        let q = advantage_query(&db);
        let answers = execute(&q, &db, &CqOptions::default()).unwrap();
        assert_eq!(answers.len(), 2);

        // "toys": product 1 gives 10·0.8 = 8 ≤ 9·1 = 9 with no nulls —
        // certain. (Product 2 contributes a null-dependent derivation, but
        // one certain derivation suffices.)
        let toys = answers.iter().find(|a| a.tuple.get(0) == &Value::str("toys")).unwrap();
        assert!(toys.certain, "toys should be certain");
        assert_eq!(*toys.formula, QfFormula::True);

        // "games": 30·0.9 = 27 ≤ z1·1 — a genuine residual constraint.
        let games = answers.iter().find(|a| a.tuple.get(0) == &Value::str("games")).unwrap();
        assert!(!games.certain);
        assert_eq!(games.derivations, 1);
        // z1 ≥ 27 ⇒ satisfied at 30, violated at 20. The formula is over
        // Var(1) (null ⊤1), so index 1 of the point vector matters.
        assert!(games.formula.eval_f64(&[0.0, 30.0]));
        assert!(!games.formula.eval_f64(&[0.0, 20.0]));
    }

    #[test]
    fn cq_matches_ground_on_every_candidate() {
        let db = sales_db();
        let q = advantage_query(&db);
        let answers = execute(&q, &db, &CqOptions::default()).unwrap();
        for ans in &answers {
            let phi = crate::ground::ground(&q, &db, &ans.tuple).unwrap();
            // Compare semantics at a grid of valuations of (z0, z1).
            for z0 in [-5.0, 0.0, 8.0, 12.0, 27.0, 30.0] {
                for z1 in [-5.0, 0.0, 20.0, 27.0, 30.0] {
                    let pt = [z0, z1];
                    assert_eq!(
                        ans.formula.eval_f64(&pt),
                        phi.eval_f64(&pt),
                        "candidate {:?} at {pt:?}",
                        ans.tuple
                    );
                }
            }
        }
    }

    #[test]
    fn limit_semantics_stop_early() {
        let db = sales_db();
        let q = advantage_query(&db);
        let answers = execute(&q, &db, &CqOptions::with_limit(1)).unwrap();
        assert_eq!(answers.len(), 1);
    }

    #[test]
    fn non_conjunctive_rejected() {
        let db = sales_db();
        let q = Query::boolean(
            Formula::not(Formula::rel(
                "Market",
                vec![
                    Arg::Base(BaseTerm::str("toys")),
                    Arg::Num(NumTerm::int(1)),
                    Arg::Num(NumTerm::int(1)),
                ],
            )),
            &db.catalog(),
        )
        .unwrap();
        assert!(matches!(
            execute(&q, &db, &CqOptions::default()),
            Err(EngineError::NotConjunctive { .. })
        ));
    }

    #[test]
    fn repeated_variable_joins_within_atom() {
        // R(a, x, x): the second x occurrence becomes an equality residual
        // when cells differ symbolically, or a crisp check on constants.
        let mut db = Database::new();
        let schema =
            RelationSchema::new("R", vec![Column::base("a"), Column::num("x"), Column::num("y")])
                .unwrap();
        let mut r = Relation::empty(schema);
        r.insert_values(vec![Value::int(1), Value::num(3), Value::num(3)]).unwrap();
        r.insert_values(vec![Value::int(2), Value::num(3), Value::num(4)]).unwrap();
        r.insert_values(vec![Value::int(3), Value::num(5), Value::NumNull(NumNullId(0))]).unwrap();
        db.add_relation(r).unwrap();
        let q = Query::new(
            vec![TypedVar::base("a")],
            Formula::exists(
                vec![TypedVar::num("x")],
                Formula::rel(
                    "R",
                    vec![
                        Arg::Base(BaseTerm::var("a")),
                        Arg::Num(NumTerm::var("x")),
                        Arg::Num(NumTerm::var("x")),
                    ],
                ),
            ),
            &db.catalog(),
        )
        .unwrap();
        let answers = execute(&q, &db, &CqOptions::default()).unwrap();
        // Tuple 1: 3 = 3 certain. Tuple 2: 3 ≠ 4 pruned. Tuple 3: residual
        // 5 = ⊤0.
        assert_eq!(answers.len(), 2);
        let a1 = answers.iter().find(|a| a.tuple.get(0) == &Value::int(1)).unwrap();
        assert!(a1.certain);
        let a3 = answers.iter().find(|a| a.tuple.get(0) == &Value::int(3)).unwrap();
        assert!(!a3.certain);
        assert!(a3.formula.eval_f64(&[5.0]));
        assert!(!a3.formula.eval_f64(&[4.0]));
    }

    #[test]
    fn head_nulls_surface_in_candidates() {
        // q(x) = ∃a R(a, x): the null ⊤0 appears as a candidate value.
        let mut db = Database::new();
        let schema = RelationSchema::new("R", vec![Column::base("a"), Column::num("x")]).unwrap();
        let mut r = Relation::empty(schema);
        r.insert_values(vec![Value::int(1), Value::NumNull(NumNullId(0))]).unwrap();
        r.insert_values(vec![Value::int(2), Value::num(9)]).unwrap();
        db.add_relation(r).unwrap();
        let q = Query::new(
            vec![TypedVar::num("x")],
            Formula::exists(
                vec![TypedVar::base("a")],
                Formula::rel("R", vec![Arg::Base(BaseTerm::var("a")), Arg::Num(NumTerm::var("x"))]),
            ),
            &db.catalog(),
        )
        .unwrap();
        let answers = execute(&q, &db, &CqOptions::default()).unwrap();
        let tuples: Vec<&Value> = answers.iter().map(|a| a.tuple.get(0)).collect();
        assert!(tuples.contains(&&Value::NumNull(NumNullId(0))));
        assert!(tuples.contains(&&Value::num(9)));
        assert!(answers.iter().all(|a| a.certain));
    }

    #[test]
    fn uncovered_variable_enumerates_domain() {
        // q() = ∃x:num R(1, x) ∧ y < x with y not in any relation atom …
        // Actually bind y through nothing: ∃y (y < 3). y ranges over the
        // numerical active domain {3, 9}; 3 < 3 fails, 9 < 3 fails … then
        // the answer is empty. With ∃y (y < 9): y = 3 works — certain.
        let mut db = Database::new();
        let schema = RelationSchema::new("R", vec![Column::num("x")]).unwrap();
        let mut r = Relation::empty(schema);
        r.insert_values(vec![Value::num(3)]).unwrap();
        r.insert_values(vec![Value::num(9)]).unwrap();
        db.add_relation(r).unwrap();
        let mk = |bound: i64| {
            Query::boolean(
                Formula::exists(
                    vec![TypedVar::num("y")],
                    Formula::cmp(NumTerm::var("y"), CompareOp::Lt, NumTerm::int(bound)),
                ),
                &db.catalog(),
            )
            .unwrap()
        };
        let sat = execute(&mk(9), &db, &CqOptions::default()).unwrap();
        assert_eq!(sat.len(), 1);
        assert!(sat[0].certain);
        let unsat = execute(&mk(3), &db, &CqOptions::default()).unwrap();
        assert!(unsat.is_empty());
    }

    #[test]
    fn derivation_cap_marks_truncation() {
        // Many derivations for one candidate: R has n rows ⇒ n disjuncts.
        let mut db = Database::new();
        let schema = RelationSchema::new("R", vec![Column::num("x")]).unwrap();
        let mut r = Relation::empty(schema);
        for i in 0..10 {
            r.insert_values(vec![Value::NumNull(NumNullId(i))]).unwrap();
        }
        db.add_relation(r).unwrap();
        let q = Query::boolean(
            Formula::exists(
                vec![TypedVar::num("x")],
                Formula::and(vec![
                    Formula::rel("R", vec![Arg::Num(NumTerm::var("x"))]),
                    Formula::cmp(NumTerm::var("x"), CompareOp::Gt, NumTerm::int(0)),
                ]),
            ),
            &db.catalog(),
        )
        .unwrap();
        let opts = CqOptions { max_derivations_per_candidate: 3, ..CqOptions::default() };
        let answers = execute(&q, &db, &opts).unwrap();
        assert_eq!(answers.len(), 1);
        assert!(answers[0].truncated);
        assert_eq!(answers[0].derivations, 3);

        let full = execute(&q, &db, &CqOptions::default()).unwrap();
        assert!(!full[0].truncated);
        assert_eq!(full[0].derivations, 10);
    }

    #[test]
    fn constant_rational_check() {
        // Rational arithmetic in filters: 0.7 · 10 = 7 exactly.
        let db = sales_db();
        let q = Query::boolean(
            Formula::cmp(
                NumTerm::decimal("0.7").mul(NumTerm::int(10)),
                CompareOp::Eq,
                NumTerm::int(7),
            ),
            &db.catalog(),
        )
        .unwrap();
        let answers = execute(&q, &db, &CqOptions::default()).unwrap();
        assert_eq!(answers.len(), 1);
        assert!(answers[0].certain);
        assert_eq!(answers[0].tuple, Tuple::new(vec![]));
        let _ = Rational::ONE; // silence unused import in some cfgs
    }
}

#[cfg(test)]
mod unification_tests {
    use super::*;
    use qarith_types::{Column, NumNullId, Relation, RelationSchema};

    /// R(a: base, x: num), S(b: base, y: num), joined by the *filter*
    /// a = b (distinct variables) — the shape the SQL lowering produces.
    fn two_table_db() -> Database {
        let mut db = Database::new();
        let r = RelationSchema::new("R", vec![Column::base("a"), Column::num("x")]).unwrap();
        let mut rel = Relation::empty(r);
        rel.insert_values(vec![Value::int(1), Value::num(10)]).unwrap();
        rel.insert_values(vec![Value::int(2), Value::NumNull(NumNullId(0))]).unwrap();
        rel.insert_values(vec![Value::int(3), Value::num(30)]).unwrap();
        db.add_relation(rel).unwrap();
        let s = RelationSchema::new("S", vec![Column::base("b"), Column::num("y")]).unwrap();
        let mut rel = Relation::empty(s);
        rel.insert_values(vec![Value::int(1), Value::num(5)]).unwrap();
        rel.insert_values(vec![Value::int(2), Value::num(7)]).unwrap();
        db.add_relation(rel).unwrap();
        db
    }

    fn equi_join_query(db: &Database) -> Query {
        // q(a) = ∃x,b,y R(a,x) ∧ S(b,y) ∧ a = b ∧ x > y.
        Query::new(
            vec![TypedVar::base("a")],
            Formula::exists(
                vec![TypedVar::num("x"), TypedVar::base("b"), TypedVar::num("y")],
                Formula::and(vec![
                    Formula::rel(
                        "R",
                        vec![Arg::Base(BaseTerm::var("a")), Arg::Num(NumTerm::var("x"))],
                    ),
                    Formula::rel(
                        "S",
                        vec![Arg::Base(BaseTerm::var("b")), Arg::Num(NumTerm::var("y"))],
                    ),
                    Formula::base_eq(BaseTerm::var("a"), BaseTerm::var("b")),
                    Formula::cmp(NumTerm::var("x"), CompareOp::Gt, NumTerm::var("y")),
                ]),
            ),
            &db.catalog(),
        )
        .unwrap()
    }

    #[test]
    fn equality_filters_become_join_keys() {
        let db = two_table_db();
        let q = equi_join_query(&db);
        let answers = execute(&q, &db, &CqOptions::default()).unwrap();
        // a=1: 10 > 5 certain. a=2: ⊤0 > 7 residual. a=3: no S row.
        assert_eq!(answers.len(), 2);
        let a1 = answers.iter().find(|a| a.tuple.get(0) == &Value::int(1)).unwrap();
        assert!(a1.certain);
        let a2 = answers.iter().find(|a| a.tuple.get(0) == &Value::int(2)).unwrap();
        assert!(!a2.certain);
        assert!(a2.formula.eval_f64(&[8.0]));
        assert!(!a2.formula.eval_f64(&[6.0]));
    }

    #[test]
    fn unified_head_variable_resolves_through_alias() {
        // Head selects b, which is unified with a: output must carry the
        // value bound through R's column.
        let db = two_table_db();
        let q = Query::new(
            vec![TypedVar::base("b")],
            Formula::exists(
                vec![TypedVar::num("x"), TypedVar::base("a"), TypedVar::num("y")],
                Formula::and(vec![
                    Formula::rel(
                        "R",
                        vec![Arg::Base(BaseTerm::var("a")), Arg::Num(NumTerm::var("x"))],
                    ),
                    Formula::rel(
                        "S",
                        vec![Arg::Base(BaseTerm::var("b")), Arg::Num(NumTerm::var("y"))],
                    ),
                    Formula::base_eq(BaseTerm::var("a"), BaseTerm::var("b")),
                ]),
            ),
            &db.catalog(),
        )
        .unwrap();
        let mut got: Vec<Value> = execute(&q, &db, &CqOptions::default())
            .unwrap()
            .into_iter()
            .map(|a| a.tuple.get(0).clone())
            .collect();
        got.sort();
        assert_eq!(got, vec![Value::int(1), Value::int(2)]);
    }

    #[test]
    fn unification_with_constants() {
        // a = 2 pins the variable; the candidate carries the constant.
        let db = two_table_db();
        let q = Query::new(
            vec![TypedVar::base("a")],
            Formula::exists(
                vec![TypedVar::num("x")],
                Formula::and(vec![
                    Formula::rel(
                        "R",
                        vec![Arg::Base(BaseTerm::var("a")), Arg::Num(NumTerm::var("x"))],
                    ),
                    Formula::base_eq(BaseTerm::var("a"), BaseTerm::int(2)),
                ]),
            ),
            &db.catalog(),
        )
        .unwrap();
        let answers = execute(&q, &db, &CqOptions::default()).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].tuple.get(0), &Value::int(2));
    }

    #[test]
    fn contradictory_constant_equalities_yield_nothing() {
        let db = two_table_db();
        let q = Query::boolean(Formula::base_eq(BaseTerm::int(1), BaseTerm::int(2)), &db.catalog())
            .unwrap();
        assert!(execute(&q, &db, &CqOptions::default()).unwrap().is_empty());
        // And a consistent constant equality is a no-op.
        let q = Query::boolean(Formula::base_eq(BaseTerm::int(1), BaseTerm::int(1)), &db.catalog())
            .unwrap();
        assert_eq!(execute(&q, &db, &CqOptions::default()).unwrap().len(), 1);
    }

    #[test]
    fn candidate_counting_limit() {
        let db = two_table_db();
        let q = equi_join_query(&db);
        let one = execute(&q, &db, &CqOptions::with_candidate_limit(1)).unwrap();
        assert_eq!(one.len(), 1);
        let many = execute(&q, &db, &CqOptions::with_candidate_limit(10)).unwrap();
        assert_eq!(many.len(), 2, "limit above candidate count returns all");
    }
}

#[cfg(test)]
mod index_tests {
    use super::*;
    use qarith_types::{BaseNullId, Column, NumNullId, Relation, RelationSchema, Valuation};

    fn base_null(i: u32) -> Value {
        Value::BaseNull(BaseNullId(i))
    }

    fn num_null(i: u32) -> Value {
        Value::NumNull(NumNullId(i))
    }

    /// R and S over (a: base, c: base, x: num). R is the smaller, so
    /// the planner reaches it first and probes S on the bound `a`, with
    /// the constant on `c` as a second key column. Base nulls sit in
    /// the join column on both sides.
    fn keyed_db() -> Database {
        let mut db = Database::new();
        let rows = |name: &str, rows: Vec<[Value; 3]>| {
            let schema = RelationSchema::new(
                name,
                vec![Column::base("a"), Column::base("c"), Column::num("x")],
            )
            .unwrap();
            let mut r = Relation::empty(schema);
            for row in rows {
                r.insert_values(row.to_vec()).unwrap();
            }
            r
        };
        let k = || Value::str("k");
        let j = || Value::str("j");
        db.add_relation(rows(
            "R",
            vec![
                [Value::int(1), k(), num_null(0)],
                [Value::int(2), k(), Value::num(5)],
                [base_null(0), k(), num_null(1)],
                [Value::int(3), j(), Value::num(1)],
            ],
        ))
        .unwrap();
        db.add_relation(rows(
            "S",
            vec![
                [Value::int(1), k(), Value::num(10)],
                [Value::int(1), j(), num_null(2)],
                [Value::int(2), k(), num_null(3)],
                [base_null(0), k(), Value::num(7)],
                [base_null(1), k(), Value::num(8)],
                [Value::int(2), j(), Value::num(0)],
                [Value::int(1), k(), num_null(4)],
            ],
        ))
        .unwrap();
        db
    }

    /// q(a) = ∃x,y R(a, "k", x) ∧ S(a, "k", y) ∧ x < y.
    fn keyed_query(db: &Database) -> Query {
        let atom = |name: &str, x: &str| {
            Formula::rel(
                name,
                vec![
                    Arg::Base(BaseTerm::var("a")),
                    Arg::Base(BaseTerm::str("k")),
                    Arg::Num(NumTerm::var(x)),
                ],
            )
        };
        Query::new(
            vec![TypedVar::base("a")],
            Formula::exists(
                vec![TypedVar::num("x"), TypedVar::num("y")],
                Formula::and(vec![
                    atom("R", "x"),
                    atom("S", "y"),
                    Formula::cmp(NumTerm::var("x"), CompareOp::Lt, NumTerm::var("y")),
                ]),
            ),
            &db.catalog(),
        )
        .unwrap()
    }

    /// Everything `execute` reports, candidate by candidate.
    fn summary(answers: &[CandidateAnswer]) -> Vec<(Tuple, QfFormula, usize, bool, bool)> {
        answers
            .iter()
            .map(|a| (a.tuple.clone(), (*a.formula).clone(), a.derivations, a.certain, a.truncated))
            .collect()
    }

    /// Runs `query` on `db`, asserting the result equals the result on
    /// a copy rebuilt from its rows (which holds no built index), under
    /// exhaustive and row-`LIMIT` options. Returns the derivation count
    /// of each candidate.
    fn run_against_rebuilt(query: &Query, db: &Database) -> Vec<(Value, usize)> {
        let rebuilt = db.apply(&Valuation::new());
        for opts in [CqOptions::default(), CqOptions::with_limit(2)] {
            let got = summary(&execute(query, db, &opts).unwrap());
            assert_eq!(got, summary(&execute(query, &rebuilt, &opts).unwrap()), "{opts:?}");
        }
        execute(query, db, &CqOptions::default())
            .unwrap()
            .iter()
            .map(|a| (a.tuple.get(0).clone(), a.derivations))
            .collect()
    }

    #[test]
    fn indexed_joins_match_a_rebuilt_database_through_in_place_changes() {
        let mut db = keyed_db();
        let q = keyed_query(&db);
        // A constant plus a bound variable as S's key; ⊥0 joins ⊥0
        // alone, and ⊥1 nothing.
        assert_eq!(
            run_against_rebuilt(&q, &db),
            [(Value::int(1), 2), (Value::int(2), 1), (base_null(0), 1)]
        );

        // An append after S's index was built: 2 gains a derivation.
        let s = db.relation_mut("S").unwrap();
        s.insert_values(vec![Value::int(2), Value::str("k"), num_null(5)]).unwrap();
        assert_eq!(
            run_against_rebuilt(&q, &db),
            [(Value::int(1), 2), (Value::int(2), 2), (base_null(0), 1)]
        );

        // A removal in the middle shifts every later row id.
        let s = db.relation_mut("S").unwrap();
        assert!(s.remove(&Tuple::new(vec![Value::int(1), Value::str("j"), num_null(2)])));
        assert_eq!(
            run_against_rebuilt(&q, &db),
            [(Value::int(1), 2), (Value::int(2), 2), (base_null(0), 1)]
        );

        // And one that removes a derivation.
        let s = db.relation_mut("S").unwrap();
        assert!(s.remove(&Tuple::new(vec![Value::int(1), Value::str("k"), Value::num(10)])));
        assert_eq!(
            run_against_rebuilt(&q, &db),
            [(Value::int(1), 1), (Value::int(2), 2), (base_null(0), 1)]
        );
    }
}
