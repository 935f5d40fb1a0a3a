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
//!
//! # The compiled join
//!
//! The join is compiled once per run, right after the atom order is
//! chosen, so the per-row loop does no name lookups and, on constants,
//! no polynomial arithmetic:
//!
//! * every variable is numbered into a *slot*, which holds a reference
//!   to the cell (or active-domain value) bound to it;
//! * the atom order is fixed, so whether an argument binds its slot or
//!   checks it is decided at plan time: a variable's first occurrence
//!   binds, every later one checks. A key column needs no check, since
//!   the probe returns only rows that hold the whole key;
//! * each filter is attached to the depth that binds its last variable,
//!   or to the leaf after active-domain enumeration. A slot is read only
//!   where the plan has bound it, so backtracking unbinds nothing.
//!
//! A filter, and a numerical argument checked against its cell, is
//! decided first on a fast path: `lhs − rhs` on unreduced `i128`
//! fractions, with checked operations and no gcd, which yields the sign
//! or declines, on a null cell and on any overflow. Where it declines,
//! the reduced evaluation runs, and it is the reference. There a
//! numerical value stays a [`Rational`] while only constant cells and
//! constants made it, and becomes the [`Polynomial`] over the null
//! variables once a null enters. On constants each `+ − ×` performs the
//! same checked rational operation, in the same order, that polynomial
//! arithmetic performs on constant polynomials (none when an operand is
//! zero, the polynomial with no terms), so a constant filter is decided
//! by the same sign, overflows with the same error, and only a filter
//! that touches a null builds its residual atom. Every intermediate the
//! reduced evaluation forms is at most its unreduced counterpart in
//! magnitude, so a sign the fast path returns is the reduced sign, and
//! every overflow is still reported by the reduced evaluation (the
//! argument is on the private `Frac` type). The join therefore
//! returns the candidates, formulas, derivation counts, footprints and
//! errors that evaluating every term with `term_to_polynomial` (as
//! [`crate::ground`] does) would give; `tests/join_golden.rs` pins them.
//!
//! # Read footprints
//!
//! [`execute_recorded`] also returns what the run read of its database,
//! as a [`ReadFootprint`], so that a cached result can outlive the
//! writes that miss it. The join records, as it runs:
//!
//! * the first atom's scan: how many rows it visited, and whether it
//!   reached the relation's end (a `LIMIT` cuts it short);
//! * the `(relation, column, value)` key of every index probe;
//! * the outcome of every relation-size comparison the greedy join
//!   order consulted;
//! * a relation read whole, for a scan below the first atom and for
//!   active-domain enumeration (every relation then).
//!
//! [`ReadFootprint::affected_by`] then answers one question about a
//! write batch ([`WriteDelta`]): could it change the candidates? The
//! executor's output is a deterministic function of the rows it visits,
//! in the order it visits them. A batch that leaves the visited scan
//! prefix in place, touches no probed key, flips no size comparison and
//! changes no relation read whole leaves every visited row in place and
//! in order, so re-running the query returns the same candidates,
//! formulas and derivation counts, and records the same footprint.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault};
use std::sync::Arc;

use qarith_constraints::{Atom, ConstraintOp, Polynomial, QfFormula};
use qarith_numeric::Rational;
use qarith_query::{Arg, BaseTerm, CompareOp, Formula, Ident, NumTerm, Query, TypedVar};
use qarith_types::{
    first_changed_row, ColumnIndex, Database, Relation, Sort, Tuple, Value, WriteOp,
};

use crate::domain::ActiveDomain;
use crate::env::null_var;
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
    relation: Ident,
    args: Vec<Arg>,
    /// `(column, term)` for every constant base argument and every base
    /// variable an earlier atom binds. Empty for a scan.
    key: Vec<(usize, BaseTerm)>,
    tuples: &'a [Tuple],
    /// The relation's shared index on the first key column (`None` for
    /// a scan).
    index: Option<&'a ColumnIndex>,
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

/// Executes a conjunctive query, returning candidates with ground
/// formulas, in first-derivation order.
pub fn execute(
    query: &Query,
    db: &Database,
    opts: &CqOptions,
) -> Result<Vec<CandidateAnswer>, EngineError> {
    execute_recorded(query, db, opts).map(|(candidates, _, _)| candidates)
}

/// [`execute`], also returning what the run read of `db` (see the
/// module docs, "Read footprints"): the candidates stay exact on every
/// later version of `db` that the footprint is not
/// [affected by](ReadFootprint::affected_by). The third value counts
/// the rows the join matched against its atoms: every row a scan
/// visits, and every row an index probe returns that holds the whole
/// key, at every depth.
pub fn execute_recorded(
    query: &Query,
    db: &Database,
    opts: &CqOptions,
) -> Result<(Vec<CandidateAnswer>, ReadFootprint, u64), EngineError> {
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
            // Unsatisfiable whatever the data: nothing was read.
            return Ok((Vec::new(), ReadFootprint::default(), 0));
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

    let mut sizes = Vec::new();
    let plan = plan_join(&body, db, &mut sizes)?;

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

    let join = CompiledJoin::new(query, &uni, plan, &body.cmps, &uncovered);
    let mut exec = Executor {
        join: &join,
        opts,
        slots: vec![None; join.names.len()],
        residuals: Vec::new(),
        rows_emitted: 0,
        order: Vec::new(),
        candidates: HashMap::new(),
        done: false,
        scanned: 0,
        probes: Vec::new(),
        rows: 0,
    };
    exec.join(0)?;

    let Executor { order, mut candidates, done, scanned, probes, rows, .. } = exec;
    let footprint =
        ReadFootprint::new(&join.steps, db, !uncovered.is_empty(), (scanned, !done), probes, sizes);
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
    Ok((out, footprint, rows))
}

/// Orders the relation atoms greedily (see the module docs), recording
/// in `sizes` the outcome of every relation-size comparison it
/// consults.
fn plan_join<'a>(
    body: &CqBody,
    db: &'a Database,
    sizes: &mut Vec<SizeOrder>,
) -> Result<Vec<PlannedAtom<'a>>, EngineError> {
    let mut remaining: Vec<(Ident, Vec<Arg>)> = body.rel_atoms.clone();
    let mut bound: HashSet<Ident> = HashSet::new();
    let mut plan = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        // Greedy: the atom with the most bound base arguments, ties broken
        // by smaller relation.
        let mut best = 0usize;
        let mut best_score: Option<(usize, usize, &Ident)> = None;
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
            let better = match best_score {
                None => true,
                Some((bk, bl, best_rel)) => {
                    if keys == bk && rel != best_rel {
                        let less = relation.len() < bl;
                        sizes.push(SizeOrder { left: rel.clone(), right: best_rel.clone(), less });
                    }
                    keys > bk || (keys == bk && relation.len() < bl)
                }
            };
            if better {
                best_score = Some((keys, relation.len(), rel));
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
        plan.push(PlannedAtom { relation: rel, args, key, tuples: relation.tuples(), index });
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

/// A numerical term over slots, compiled from a [`NumTerm`].
enum Term {
    Const(Rational),
    Slot(usize),
    Add(Box<Term>, Box<Term>),
    Sub(Box<Term>, Box<Term>),
    Mul(Box<Term>, Box<Term>),
    Neg(Box<Term>),
}

/// How one argument of an atom meets its cell, decided at plan time:
/// the atom order is fixed, so a variable's first occurrence binds its
/// slot and every later one checks it.
enum ArgStep {
    /// A base variable's first occurrence: bind the cell.
    Bind(usize),
    /// A numerical variable's first occurrence: bind the cell, which
    /// must be numerical.
    BindNum(usize),
    /// A base variable bound earlier in the atom: the cell must equal
    /// its binding.
    Same(usize),
    /// Any other numerical argument: the cell must be numerical and
    /// equal the term, or leave the residual equality.
    Equal(Term),
}

/// Where a key column's or a head variable's value comes from.
enum Source {
    /// A constant (for a head variable, one it was unified with).
    Const(Value),
    /// The slot's binding.
    Slot(usize),
}

/// A numerical comparison filter, `lhs op rhs`.
struct Filter {
    lhs: Term,
    op: ConstraintOp,
    rhs: Term,
}

/// One depth of the compiled join: a planned atom with its arguments
/// and filters compiled.
struct Step<'a> {
    relation: Ident,
    tuples: &'a [Tuple],
    /// The relation's shared index on the first key column (`None` for
    /// a scan).
    index: Option<&'a ColumnIndex>,
    /// Every key column of the planned atom with its value. Empty for a
    /// scan.
    key: Vec<(usize, Source)>,
    /// The arguments the key does not decide, in column order.
    args: Vec<(usize, ArgStep)>,
    /// The filters whose last variable this depth binds, in query
    /// order.
    filters: Vec<Filter>,
}

/// A query's join compiled once after [`plan_join`]: every variable
/// numbered into a slot, every argument a bind or a check, and every
/// filter attached to the depth that binds its last variable, or to
/// the enumeration leaf.
struct CompiledJoin<'a> {
    steps: Vec<Step<'a>>,
    /// The uncovered variables' slots with their active-domain values,
    /// enumerated after the last atom.
    uncovered: Vec<(usize, &'a [Value])>,
    /// The filters whose last variable the enumeration binds.
    leaf_filters: Vec<Filter>,
    head: Vec<Source>,
    /// Each slot's variable.
    names: Vec<Ident>,
}

impl<'a> CompiledJoin<'a> {
    fn new(
        query: &Query,
        uni: &Unifier,
        plan: Vec<PlannedAtom<'a>>,
        cmps: &[(NumTerm, CompareOp, NumTerm)],
        uncovered: &[(Ident, &'a [Value])],
    ) -> CompiledJoin<'a> {
        let mut slots = Slots::default();
        let mut pending: Vec<(Vec<usize>, Filter)> = cmps
            .iter()
            .map(|(l, op, r)| {
                let mut vars = Vec::new();
                let lhs = slots.term(l, &mut vars);
                let rhs = slots.term(r, &mut vars);
                (vars, Filter { lhs, op: constraint_op(*op), rhs })
            })
            .collect();
        let mut steps = Vec::with_capacity(plan.len());
        for atom in plan {
            let key: Vec<(usize, Source)> = atom
                .key
                .iter()
                .map(|(column, term)| {
                    let value = match term {
                        BaseTerm::Const(c) => Source::Const(Value::Base(c.clone())),
                        BaseTerm::Var(x) => Source::Slot(slots.slot(x)),
                    };
                    (*column, value)
                })
                .collect();
            let mut args = Vec::new();
            for (column, arg) in atom.args.iter().enumerate() {
                // A probed row holds every key column's value, and every
                // constant base argument is a key column.
                if key.iter().any(|(c, _)| *c == column) {
                    continue;
                }
                let step = match arg {
                    Arg::Base(BaseTerm::Const(_)) => continue,
                    Arg::Base(BaseTerm::Var(x)) => {
                        let slot = slots.slot(x);
                        if slots.bind(slot) {
                            ArgStep::Bind(slot)
                        } else {
                            ArgStep::Same(slot)
                        }
                    }
                    Arg::Num(NumTerm::Var(x)) if !slots.is_bound(x) => {
                        ArgStep::BindNum(slots.bind_var(x))
                    }
                    Arg::Num(t) => ArgStep::Equal(slots.term(t, &mut Vec::new())),
                };
                args.push((column, step));
            }
            let filters = slots.ready(&mut pending);
            let PlannedAtom { relation, tuples, index, .. } = atom;
            steps.push(Step { relation, tuples, index, key, args, filters });
        }
        let uncovered = uncovered.iter().map(|(x, values)| (slots.bind_var(x), *values)).collect();
        // A filter over a variable nothing binds is never decided.
        let leaf_filters = slots.ready(&mut pending);
        let head = query
            .free_vars()
            .iter()
            .map(|v| match v.sort {
                Sort::Base => match uni.resolve(&BaseTerm::Var(v.name.clone())) {
                    BaseTerm::Const(c) => Source::Const(Value::Base(c)),
                    BaseTerm::Var(x) => Source::Slot(slots.slot(&x)),
                },
                Sort::Num => Source::Slot(slots.slot(&v.name)),
            })
            .collect();
        CompiledJoin { steps, uncovered, leaf_filters, head, names: slots.names }
    }
}

/// Numbers a query's variables into slots while its join is compiled,
/// tracking which are bound at the point compiled so far.
#[derive(Default)]
struct Slots {
    index: HashMap<Ident, usize>,
    names: Vec<Ident>,
    bound: Vec<bool>,
}

impl Slots {
    /// The slot of `x`, numbered on first sight.
    fn slot(&mut self, x: &Ident) -> usize {
        if let Some(&slot) = self.index.get(x) {
            return slot;
        }
        let slot = self.names.len();
        self.index.insert(x.clone(), slot);
        self.names.push(x.clone());
        self.bound.push(false);
        slot
    }

    /// Marks `slot` bound; `true` iff it was not bound before.
    fn bind(&mut self, slot: usize) -> bool {
        self.bound.get_mut(slot).is_some_and(|bound| !std::mem::replace(bound, true))
    }

    /// Marks the slot of `x` bound and returns it.
    fn bind_var(&mut self, x: &Ident) -> usize {
        let slot = self.slot(x);
        self.bind(slot);
        slot
    }

    fn is_bound(&self, x: &Ident) -> bool {
        self.index.get(x).is_some_and(|&slot| self.bound.get(slot) == Some(&true))
    }

    /// Compiles `t`, pushing the slot of each variable it names to
    /// `vars`.
    fn term(&mut self, t: &NumTerm, vars: &mut Vec<usize>) -> Term {
        let mut term = |t: &NumTerm| Box::new(self.term(t, vars));
        match t {
            NumTerm::Const(r) => Term::Const(*r),
            NumTerm::Var(x) => {
                let slot = self.slot(x);
                vars.push(slot);
                Term::Slot(slot)
            }
            NumTerm::Add(a, b) => Term::Add(term(a), term(b)),
            NumTerm::Sub(a, b) => Term::Sub(term(a), term(b)),
            NumTerm::Mul(a, b) => Term::Mul(term(a), term(b)),
            NumTerm::Neg(a) => Term::Neg(term(a)),
        }
    }

    /// Takes the pending filters whose variables are all bound, in
    /// order.
    fn ready(&self, pending: &mut Vec<(Vec<usize>, Filter)>) -> Vec<Filter> {
        let (ready, rest): (Vec<_>, Vec<_>) = std::mem::take(pending)
            .into_iter()
            .partition(|(vars, _)| vars.iter().all(|&slot| self.bound.get(slot) == Some(&true)));
        *pending = rest;
        ready.into_iter().map(|(_, filter)| filter).collect()
    }
}

/// A null-free value on the join's fast path: `num/den` with `den > 0`
/// and `num ≠ i128::MIN`, never reduced. Every operation is checked and
/// returns `None` on overflow or an `i128::MIN` numerator, and then the
/// filter falls back to the reduced evaluation ([`Num`]), which decides
/// it or returns its error.
///
/// Why a sign the fast path returns is the reduced evaluation's sign,
/// and why that evaluation then cannot fail:
///
/// * an unreduced pair is an integer multiple of the reduced one: if
///   `n/d = a/b` with `d, b > 0` and `gcd(a, b) = 1`, then `b | d`, so
///   `(n, d) = k·(a, b)` for an integer `k ≥ 1`;
/// * the reduced evaluation forms each product, sum and denominator of
///   [`Rational::checked_add`] and [`Rational::checked_mul`] from the
///   reduced operands, divided by gcds (cross-reduction) and before
///   `checked_new` divides again, so each is its unreduced counterpart
///   here divided by a positive integer: same sign, at most the same
///   magnitude. A difference `l − r` forms `l + (−r)` on both paths,
///   and the zero shortcuts of [`Num`] form nothing;
/// * so if no unreduced intermediate overflows, no reduced one does.
///   `checked_new` refuses an `i128::MIN` numerator, and a reduced
///   numerator can only be `i128::MIN` where its unreduced counterpart
///   is, which the fast path refuses too. Both evaluations then reach
///   the same value, so the same sign.
///
/// A null cell, an unbound or base slot and every overflow decline, so
/// the reduced evaluation stays the only path for a filter that touches
/// a null and the one that produces every error.
#[derive(Clone, Copy)]
struct Frac {
    num: i128,
    den: i128,
}

impl Frac {
    /// A constant cell's value (`None` for a null or base cell).
    fn of(cell: &Value) -> Option<Frac> {
        match cell {
            Value::Num(r) => Some(Frac::from(r)),
            Value::NumNull(_) | Value::Base(_) | Value::BaseNull(_) => None,
        }
    }

    fn new(num: i128, den: i128) -> Option<Frac> {
        (num != i128::MIN).then_some(Frac { num, den })
    }

    fn plus(self, rhs: Frac) -> Option<Frac> {
        let num = self.num.checked_mul(rhs.den)?.checked_add(rhs.num.checked_mul(self.den)?)?;
        Frac::new(num, self.den.checked_mul(rhs.den)?)
    }

    fn minus(self, rhs: Frac) -> Option<Frac> {
        self.plus(rhs.negated())
    }

    fn times(self, rhs: Frac) -> Option<Frac> {
        Frac::new(self.num.checked_mul(rhs.num)?, self.den.checked_mul(rhs.den)?)
    }

    /// Total: `num` is never `i128::MIN`.
    fn negated(self) -> Frac {
        Frac { num: -self.num, den: self.den }
    }

    fn signum(self) -> i32 {
        self.num.signum() as i32
    }
}

impl From<&Rational> for Frac {
    fn from(r: &Rational) -> Frac {
        Frac { num: r.numer(), den: r.denom() }
    }
}

/// A numerical value in the join's reduced evaluation: a rational while
/// only constants made it, the polynomial over the null variables once
/// a null enters. A filter or argument check runs it where the fast
/// path ([`Frac`]) declines: on a null, and on a constant value whose
/// unreduced form overflows. It is the reference: on constants each
/// operation performs exactly the checked rational operation that
/// polynomial arithmetic performs on constant polynomials (none when an
/// operand is zero, the polynomial with no terms), so a value's
/// polynomial form, and every overflow, is the one
/// [`crate::env::term_to_polynomial`] produces.
enum Num {
    Const(Rational),
    Poly(Polynomial),
}

impl Num {
    /// A cell's value (`None` for a base cell).
    fn of(cell: &Value) -> Option<Num> {
        match cell {
            Value::Num(r) => Some(Num::Const(*r)),
            Value::NumNull(id) => Some(Num::Poly(Polynomial::var(null_var(*id)))),
            Value::Base(_) | Value::BaseNull(_) => None,
        }
    }

    fn into_poly(self) -> Polynomial {
        match self {
            Num::Const(c) => Polynomial::constant(c),
            Num::Poly(p) => p,
        }
    }

    fn plus(self, rhs: Num) -> Result<Num, EngineError> {
        Ok(match (self, rhs) {
            (Num::Const(a), Num::Const(b)) if a.is_zero() => Num::Const(b),
            (Num::Const(a), Num::Const(b)) if b.is_zero() => Num::Const(a),
            (Num::Const(a), Num::Const(b)) => Num::Const(a.checked_add(&b)?),
            (a, b) => Num::Poly(a.into_poly().checked_add(&b.into_poly())?),
        })
    }

    fn minus(self, rhs: Num) -> Result<Num, EngineError> {
        Ok(match (self, rhs) {
            (Num::Const(a), Num::Const(b)) if b.is_zero() => Num::Const(a),
            (Num::Const(a), Num::Const(b)) if a.is_zero() => Num::Const(-b),
            (Num::Const(a), Num::Const(b)) => Num::Const(a.checked_sub(&b)?),
            (a, b) => Num::Poly(a.into_poly().checked_sub(&b.into_poly())?),
        })
    }

    fn times(self, rhs: Num) -> Result<Num, EngineError> {
        Ok(match (self, rhs) {
            (Num::Const(a), Num::Const(b)) if a.is_zero() || b.is_zero() => {
                Num::Const(Rational::ZERO)
            }
            (Num::Const(a), Num::Const(b)) => Num::Const(a.checked_mul(&b)?),
            (a, b) => Num::Poly(a.into_poly().checked_mul(&b.into_poly())?),
        })
    }

    fn negated(self) -> Num {
        match self {
            Num::Const(a) => Num::Const(-a),
            Num::Poly(p) => Num::Poly(p.negated()),
        }
    }
}

/// Per-candidate accumulation.
struct CandidateState {
    disjuncts: Vec<QfFormula>,
    seen: HashSet<QfFormula>,
    certain: bool,
    truncated: bool,
}

struct Executor<'a> {
    join: &'a CompiledJoin<'a>,
    opts: &'a CqOptions,
    /// Each slot's binding: a cell of a visited row, or an enumerated
    /// active-domain value. A slot is only read where the compiled
    /// join has bound it, so backtracking leaves bindings in place.
    slots: Vec<Option<&'a Value>>,
    residuals: Vec<Atom>,
    rows_emitted: usize,
    order: Vec<Tuple>,
    candidates: HashMap<Tuple, CandidateState>,
    done: bool,
    /// Rows the first atom's scan has visited.
    scanned: usize,
    /// `(depth, hash of the probed value)` of every index probe.
    probes: Vec<(usize, u64)>,
    /// Rows handed to `try_tuple`.
    rows: u64,
}

impl<'a> Executor<'a> {
    fn join(&mut self, depth: usize) -> Result<(), EngineError> {
        if self.done {
            return Ok(());
        }
        let join = self.join;
        let Some(step) = join.steps.get(depth) else {
            return self.enumerate_uncovered(0);
        };
        let Some(index) = step.index else {
            for tuple in step.tuples {
                if self.done {
                    break;
                }
                if depth == 0 {
                    self.scanned += 1;
                }
                self.rows += 1;
                self.try_tuple(depth, step, tuple)?;
            }
            return Ok(());
        };
        let Some((_, first)) = step.key.first() else { return Ok(()) };
        let first = self.value(first)?;
        self.probes.push((depth, key_hash(first)));
        // `rows` also lists rows whose value only shares `first`'s hash,
        // and it checks no other key column. Keeping the rows that
        // match the whole key visits exactly the rows, in the order, of
        // a scan filtered by the key.
        for &row in index.rows(first) {
            if self.done {
                break;
            }
            let Some(tuple) = step.tuples.get(row as usize) else { continue };
            if self.holds_key(step, tuple)? {
                self.rows += 1;
                self.try_tuple(depth, step, tuple)?;
            }
        }
        Ok(())
    }

    fn try_tuple(
        &mut self,
        depth: usize,
        step: &'a Step<'a>,
        tuple: &'a Tuple,
    ) -> Result<(), EngineError> {
        let residual_mark = self.residuals.len();
        if self.match_args(step, tuple)? && self.decide(&step.filters)? {
            self.join(depth + 1)?;
        }
        self.residuals.truncate(residual_mark);
        Ok(())
    }

    fn holds_key(&self, step: &'a Step<'a>, tuple: &Tuple) -> Result<bool, EngineError> {
        for (column, key) in &step.key {
            if tuple.values().get(*column) != Some(self.value(key)?) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Binds and checks the row's cells against the arguments the key
    /// did not decide. `false` if the row does not extend the bindings;
    /// a numerical argument that a null leaves open pushes its residual
    /// equality.
    fn match_args(&mut self, step: &'a Step<'a>, tuple: &'a Tuple) -> Result<bool, EngineError> {
        let cells = tuple.values();
        for (column, arg) in &step.args {
            let Some(cell) = cells.get(*column) else { continue };
            match arg {
                ArgStep::Bind(slot) => self.bind(*slot, cell),
                ArgStep::BindNum(slot) => {
                    // A base cell in a numerical column equals no term.
                    if !matches!(cell, Value::Num(_) | Value::NumNull(_)) {
                        return Ok(false);
                    }
                    self.bind(*slot, cell);
                }
                ArgStep::Same(slot) => {
                    if self.slot(*slot)? != cell {
                        return Ok(false);
                    }
                }
                ArgStep::Equal(term) => {
                    let fast = self.frac(term).and_then(|t| t.minus(Frac::of(cell)?));
                    if let Some(difference) = fast {
                        if difference.signum() != 0 {
                            return Ok(false);
                        }
                        continue;
                    }
                    let Some(value) = Num::of(cell) else { return Ok(false) };
                    match self.eval(term)?.minus(value)? {
                        Num::Const(c) if c.is_zero() => {}
                        Num::Const(_) => return Ok(false),
                        Num::Poly(p) => match p.as_constant() {
                            Some(c) if c.is_zero() => {}
                            Some(_) => return Ok(false),
                            None => self.residuals.push(Atom::new(p, ConstraintOp::Eq)),
                        },
                    }
                }
            }
        }
        Ok(true)
    }

    /// Decides `filters` in order on the current bindings. Returns
    /// `false` at the first that is violated; residual atoms are pushed.
    fn decide(&mut self, filters: &'a [Filter]) -> Result<bool, EngineError> {
        for filter in filters {
            if let Some(sign) = self.fast_sign(&filter.lhs, &filter.rhs) {
                if !filter.op.holds(sign) {
                    return Ok(false);
                }
                continue;
            }
            match self.eval(&filter.lhs)?.minus(self.eval(&filter.rhs)?)? {
                Num::Const(c) => {
                    if !filter.op.holds(c.signum()) {
                        return Ok(false);
                    }
                }
                Num::Poly(p) => {
                    let atom = Atom::new(p, filter.op);
                    match atom.as_constant() {
                        Some(true) => {}
                        Some(false) => return Ok(false),
                        None => self.residuals.push(atom),
                    }
                }
            }
        }
        Ok(true)
    }

    /// The sign of `lhs − rhs` on the fast path (see [`Frac`]); `None`
    /// where it declines.
    fn fast_sign(&self, lhs: &Term, rhs: &Term) -> Option<i32> {
        Some(self.frac(lhs)?.minus(self.frac(rhs)?)?.signum())
    }

    /// `term`'s unreduced value, `None` where the fast path declines.
    fn frac(&self, term: &Term) -> Option<Frac> {
        match term {
            Term::Const(r) => Some(Frac::from(r)),
            Term::Slot(slot) => Frac::of(self.slots.get(*slot).copied().flatten()?),
            Term::Add(a, b) => self.frac(a)?.plus(self.frac(b)?),
            Term::Sub(a, b) => self.frac(a)?.minus(self.frac(b)?),
            Term::Mul(a, b) => self.frac(a)?.times(self.frac(b)?),
            Term::Neg(a) => Some(self.frac(a)?.negated()),
        }
    }

    fn eval(&self, term: &Term) -> Result<Num, EngineError> {
        Ok(match term {
            Term::Const(r) => Num::Const(*r),
            Term::Slot(slot) => Num::of(self.slot(*slot)?).ok_or_else(|| self.unbound(*slot))?,
            Term::Add(a, b) => self.eval(a)?.plus(self.eval(b)?)?,
            Term::Sub(a, b) => self.eval(a)?.minus(self.eval(b)?)?,
            Term::Mul(a, b) => self.eval(a)?.times(self.eval(b)?)?,
            Term::Neg(a) => self.eval(a)?.negated(),
        })
    }

    fn bind(&mut self, slot: usize, value: &'a Value) {
        if let Some(binding) = self.slots.get_mut(slot) {
            *binding = Some(value);
        }
    }

    fn slot(&self, slot: usize) -> Result<&'a Value, EngineError> {
        self.slots.get(slot).copied().flatten().ok_or_else(|| self.unbound(slot))
    }

    fn unbound(&self, slot: usize) -> EngineError {
        let var = self.join.names.get(slot).map_or_else(String::new, ToString::to_string);
        EngineError::UnboundVariable { var }
    }

    fn value(&self, source: &'a Source) -> Result<&'a Value, EngineError> {
        match source {
            Source::Const(value) => Ok(value),
            Source::Slot(slot) => self.slot(*slot),
        }
    }

    fn enumerate_uncovered(&mut self, i: usize) -> Result<(), EngineError> {
        let join = self.join;
        let Some(&(slot, values)) = join.uncovered.get(i) else {
            let residual_mark = self.residuals.len();
            if self.decide(&join.leaf_filters)? {
                self.emit_row()?;
            }
            self.residuals.truncate(residual_mark);
            return Ok(());
        };
        for value in values {
            if self.done {
                break;
            }
            self.bind(slot, value);
            self.enumerate_uncovered(i + 1)?;
        }
        Ok(())
    }

    fn emit_row(&mut self) -> Result<(), EngineError> {
        // Build the candidate tuple.
        let join = self.join;
        let mut values = Vec::with_capacity(join.head.len());
        for source in &join.head {
            values.push(self.value(source)?.clone());
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

/// The hash a [`ReadFootprint`] keeps of a probed value. Fixed, not
/// keyed: a collision can only make a footprint report a write that
/// misses it as affecting it, and any writer can force that anyway by
/// writing a visited row.
fn key_hash(value: &Value) -> u64 {
    BuildHasherDefault::<DefaultHasher>::default().hash_one(value)
}

/// What one [`execute_recorded`] run read of its database (see the
/// module docs, "Read footprints").
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReadFootprint {
    /// The first atom's scan, when the first atom is scanned.
    scan: Option<ScanRead>,
    /// The probed keys, per `(relation, column)`.
    probes: Box<[ProbedColumn]>,
    /// Every relation-size comparison the join order consulted.
    sizes: Box<[SizeOrder]>,
    /// The relations read whole, sorted.
    whole: Box<[Ident]>,
}

/// The first atom's scan.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ScanRead {
    relation: Ident,
    /// Rows visited, from the first on.
    rows: usize,
    /// `true` iff the scan was not cut short, so a row appended at the
    /// end would have been visited too.
    to_end: bool,
}

/// The values probed in one column of one relation.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ProbedColumn {
    relation: Ident,
    column: usize,
    /// [`key_hash`] of each probed value, sorted and deduplicated.
    keys: Box<[u64]>,
}

/// One relation-size comparison of the greedy join order: whether
/// `left` had fewer rows than `right`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct SizeOrder {
    left: Ident,
    right: Ident,
    less: bool,
}

impl ReadFootprint {
    /// Compacts one run's reads. `scan` is the first atom's visited row
    /// count and whether the scan ran to the end; `probes` holds
    /// `(depth, key hash)` per index probe.
    fn new(
        steps: &[Step<'_>],
        db: &Database,
        enumerated: bool,
        scan: (usize, bool),
        probes: Vec<(usize, u64)>,
        sizes: Vec<SizeOrder>,
    ) -> ReadFootprint {
        let scan = steps.first().filter(|atom| atom.index.is_none()).map(|atom| ScanRead {
            relation: atom.relation.clone(),
            rows: scan.0,
            to_end: scan.1,
        });
        // Active-domain enumeration reads every relation; a scan below
        // the first atom reads its relation once per outer binding.
        let mut whole: Vec<Ident> = if enumerated {
            db.relations().iter().map(|r| Ident::from(r.schema().name())).collect()
        } else {
            steps
                .iter()
                .skip(1)
                .filter(|atom| atom.index.is_none())
                .map(|atom| atom.relation.clone())
                .collect()
        };
        whole.sort_unstable();
        whole.dedup();

        // Each probing depth's keys go to its (relation, column); a
        // self-join may probe one column from two depths.
        let mut probes = probes;
        probes.sort_unstable();
        probes.dedup();
        let mut by_column: BTreeMap<(Ident, usize), Vec<u64>> = BTreeMap::new();
        for (depth, atom) in steps.iter().enumerate() {
            let Some(&(column, _)) = atom.key.first() else { continue };
            let from = probes.partition_point(|&(d, _)| d < depth);
            let to = probes.partition_point(|&(d, _)| d <= depth);
            let keys = probes.get(from..to).unwrap_or_default().iter().map(|&(_, hash)| hash);
            by_column.entry((atom.relation.clone(), column)).or_default().extend(keys);
        }
        let probes = by_column
            .into_iter()
            .map(|((relation, column), mut keys)| {
                keys.sort_unstable();
                keys.dedup();
                ProbedColumn { relation, column, keys: keys.into() }
            })
            .collect();
        ReadFootprint { scan, probes, sizes: sizes.into_boxed_slice(), whole: whole.into() }
    }

    /// Whether the batch described by `delta` could change what the
    /// recorded run returned. `false` means every row the run visited is
    /// still there, in the same order, and every join-order decision
    /// comes out the same, so re-running it on the written database
    /// returns the same candidates and records this same footprint.
    /// It is `true` iff one of these holds:
    ///
    /// * (a) a row the first atom's scan visited changed;
    /// * (b) the scan reached the relation's end and the relation
    ///   changed at all (an append included);
    /// * (c) an op of the batch inserts or removes a tuple holding a
    ///   probed value in a probed column of a relation that changed
    ///   (an `UPDATE` removes its old tuple and appends its new one);
    /// * (d) a recorded relation-size comparison comes out the other way;
    /// * (e) a relation read whole changed.
    pub fn affected_by(&self, delta: &WriteDelta<'_>) -> bool {
        self.whole_read_changed(delta)
            || self.scanned_row_changed(delta)
            || self.scanned_end_moved(delta)
            || self.size_order_flipped(delta)
            || self.probed_key_written(delta)
    }

    /// Rule (a): a row before the end of the scanned prefix changed.
    fn scanned_row_changed(&self, delta: &WriteDelta<'_>) -> bool {
        self.scan.as_ref().is_some_and(|scan| {
            delta.first_changed(&scan.relation).is_some_and(|row| row < scan.rows)
        })
    }

    /// Rule (b): the scan reached the end of a relation that changed.
    fn scanned_end_moved(&self, delta: &WriteDelta<'_>) -> bool {
        self.scan
            .as_ref()
            .is_some_and(|scan| scan.to_end && delta.first_changed(&scan.relation).is_some())
    }

    /// Rule (c): a tuple the batch inserts or removes holds a probed
    /// value in a probed column of a relation that changed.
    fn probed_key_written(&self, delta: &WriteDelta<'_>) -> bool {
        self.probes.iter().any(|probed| {
            delta.first_changed(&probed.relation).is_some()
                && delta.tuples(&probed.relation).any(|values| {
                    values
                        .get(probed.column)
                        .is_some_and(|value| probed.keys.binary_search(&key_hash(value)).is_ok())
                })
        })
    }

    /// Rule (d): a recorded size comparison comes out the other way.
    fn size_order_flipped(&self, delta: &WriteDelta<'_>) -> bool {
        self.sizes.iter().any(|s| (delta.len(&s.left) < delta.len(&s.right)) != s.less)
    }

    /// Rule (e): a relation read whole changed.
    fn whole_read_changed(&self, delta: &WriteDelta<'_>) -> bool {
        self.whole.iter().any(|relation| delta.first_changed(relation).is_some())
    }
}

/// What one write batch changed: the pre-batch and post-batch database
/// and the batch's ops, with the first changed row of each changed
/// relation worked out once ([`first_changed_row`]), so that every
/// [`ReadFootprint`] checked against the batch shares it.
#[derive(Debug)]
pub struct WriteDelta<'a> {
    after: &'a Database,
    ops: &'a [WriteOp],
    /// Each relation whose rows changed, with its first changed row.
    changed: Vec<(&'a str, usize)>,
}

impl<'a> WriteDelta<'a> {
    /// The delta of `ops`, which turned `before` into `after` (a write
    /// changes rows, never the relations a database declares). Rows are
    /// compared by identity, so `after` should be a copy-on-write clone
    /// of `before` that the ops were applied to: a relation rebuilt
    /// with equal rows counts as changed from its first row.
    pub fn new(before: &'a Database, after: &'a Database, ops: &'a [WriteOp]) -> WriteDelta<'a> {
        let changed = after
            .relations()
            .iter()
            .filter_map(|new| {
                let name = new.schema().name();
                let row = match before.relation(name) {
                    Some(old) => first_changed_row(old, new)?,
                    None => 0,
                };
                Some((name, row))
            })
            .collect();
        WriteDelta { after, ops, changed }
    }

    /// The first changed row of `relation` (`None` if it did not
    /// change).
    fn first_changed(&self, relation: &str) -> Option<usize> {
        self.changed.iter().find(|(name, _)| *name == relation).map(|&(_, row)| row)
    }

    /// The post-batch row count of `relation`.
    fn len(&self, relation: &str) -> usize {
        self.after.relation(relation).map_or(0, Relation::len)
    }

    /// Every tuple an op of the batch inserts into or removes from
    /// `relation`, whether or not the op changed anything.
    fn tuples<'s>(&'s self, relation: &'s str) -> impl Iterator<Item = &'a [Value]> + 's {
        self.ops.iter().filter(move |op| op.relation() == relation).flat_map(|op| {
            let (first, second): (&'a [Value], Option<&'a [Value]>) = match op {
                WriteOp::Insert { values, .. } | WriteOp::Delete { values, .. } => (values, None),
                WriteOp::Update { old, new, .. } => (old, Some(new)),
            };
            std::iter::once(first).chain(second)
        })
    }
}

#[cfg(test)]
mod footprint_tests;

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
            Value::decimal("0.8").unwrap(),
        ])
        .unwrap();
        p.insert_values(vec![
            Value::int(2),
            Value::str("toys"),
            Value::NumNull(NumNullId(0)),
            Value::decimal("0.7").unwrap(),
        ])
        .unwrap();
        p.insert_values(vec![
            Value::int(3),
            Value::str("games"),
            Value::num(30),
            Value::decimal("0.9").unwrap(),
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
        let toys = answers.iter().find(|a| a.tuple.get(0) == Some(&Value::str("toys"))).unwrap();
        assert!(toys.certain, "toys should be certain");
        assert_eq!(*toys.formula, QfFormula::True);

        // "games": 30·0.9 = 27 ≤ z1·1 — a genuine residual constraint.
        let games = answers.iter().find(|a| a.tuple.get(0) == Some(&Value::str("games"))).unwrap();
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
        let a1 = answers.iter().find(|a| a.tuple.get(0) == Some(&Value::int(1))).unwrap();
        assert!(a1.certain);
        let a3 = answers.iter().find(|a| a.tuple.get(0) == Some(&Value::int(3))).unwrap();
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
        let tuples: Vec<&Value> = answers.iter().map(|a| &a.tuple.values()[0]).collect();
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
        let a1 = answers.iter().find(|a| a.tuple.get(0) == Some(&Value::int(1))).unwrap();
        assert!(a1.certain);
        let a2 = answers.iter().find(|a| a.tuple.get(0) == Some(&Value::int(2))).unwrap();
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
            .map(|a| a.tuple.values()[0].clone())
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
        assert_eq!(answers[0].tuple.get(0), Some(&Value::int(2)));
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
        let rebuilt = db.apply(&Valuation::new()).unwrap();
        for opts in [CqOptions::default(), CqOptions::with_limit(2)] {
            let got = summary(&execute(query, db, &opts).unwrap());
            assert_eq!(got, summary(&execute(query, &rebuilt, &opts).unwrap()), "{opts:?}");
        }
        execute(query, db, &CqOptions::default())
            .unwrap()
            .iter()
            .map(|a| (a.tuple.values()[0].clone(), a.derivations))
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

/// The join's fast path ([`Frac`]) against its reduced evaluation
/// ([`Num`]), on null-free filters.
#[cfg(test)]
mod fast_path {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Slots `x0 … x2`, each bound to a constant cell.
    const SLOTS: usize = 3;

    /// `lhs − rhs` decided both ways, with slot `xi` bound to
    /// `cells[i]`: the fast path's sign, and the reduced evaluation's
    /// sign or error.
    fn both(
        lhs: &NumTerm,
        rhs: &NumTerm,
        cells: &[Value],
    ) -> (Option<i32>, Result<i32, EngineError>) {
        let mut slots = Slots::default();
        for i in 0..cells.len() {
            slots.bind_var(&Ident::from(format!("x{i}")));
        }
        let (lhs, rhs) = (slots.term(lhs, &mut Vec::new()), slots.term(rhs, &mut Vec::new()));
        let join = CompiledJoin {
            steps: Vec::new(),
            uncovered: Vec::new(),
            leaf_filters: Vec::new(),
            head: Vec::new(),
            names: slots.names,
        };
        let opts = CqOptions::default();
        let exec = Executor {
            join: &join,
            opts: &opts,
            slots: cells.iter().map(Some).collect(),
            residuals: Vec::new(),
            rows_emitted: 0,
            order: Vec::new(),
            candidates: HashMap::new(),
            done: false,
            scanned: 0,
            probes: Vec::new(),
            rows: 0,
        };
        let reduced = exec.eval(&lhs).and_then(|l| l.minus(exec.eval(&rhs)?)).map(|d| match d {
            Num::Const(c) => c.signum(),
            Num::Poly(p) => panic!("a null-free filter reduced to the polynomial {p:?}"),
        });
        (exec.fast_sign(&lhs, &rhs), reduced)
    }

    /// A component's magnitude: a small decimal's digits, a power of ten
    /// up to 10^38, or a value within a few units of `i128::MAX`.
    fn magnitude() -> impl Strategy<Value = i128> {
        prop_oneof![
            0i128..=1_000,
            0i128..=1_000_000,
            (0u32..=38).prop_map(|k| 10i128.pow(k)),
            (0i128..=4).prop_map(|j| i128::MAX - j),
        ]
    }

    fn rational() -> impl Strategy<Value = Rational> {
        let den = prop_oneof![Just(1i128), magnitude().prop_map(|d| d.max(1))];
        (magnitude(), 0u8..2, den).prop_map(|(num, negative, den)| {
            let num = if negative == 1 { -num } else { num };
            Rational::checked_new(num, den).expect("|num| <= i128::MAX and den >= 1")
        })
    }

    /// `+ − × neg` trees of depth at most 4 over constants and slots.
    fn term() -> BoxedStrategy<NumTerm> {
        let leaf = prop_oneof![
            rational().prop_map(NumTerm::Const),
            (0..SLOTS).prop_map(|i| NumTerm::var(&format!("x{i}"))),
        ];
        leaf.prop_recursive(4, 32, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| NumTerm::Add(Box::new(a), Box::new(b))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| NumTerm::Sub(Box::new(a), Box::new(b))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| NumTerm::Mul(Box::new(a), Box::new(b))),
                inner.prop_map(|a| NumTerm::Neg(Box::new(a))),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// A sign the fast path returns is the reduced evaluation's,
        /// and wherever the reduced evaluation fails (an overflow, at
        /// the `i128` edge), the fast path declines.
        #[test]
        fn a_fast_sign_is_the_reduced_sign(
            lhs in term(),
            rhs in term(),
            cells in prop::collection::vec(rational(), SLOTS),
        ) {
            let cells: Vec<Value> = cells.into_iter().map(Value::Num).collect();
            match both(&lhs, &rhs, &cells) {
                (Some(fast), Ok(reduced)) => prop_assert_eq!(
                    fast, reduced, "{:?} - {:?} over {:?}", lhs, rhs, cells
                ),
                (Some(fast), Err(e)) => prop_assert!(
                    false,
                    "fast sign {} where the reduced evaluation fails with {:?}: {:?} - {:?} over {:?}",
                    fast, e, lhs, rhs, cells
                ),
                (None, _) => {}
            }
        }
    }

    /// A random tree with exactly `leaves` leaves, each a slot or a
    /// constant whose components are at most 10^9 in magnitude, any node
    /// possibly negated.
    fn small_tree(rng: &mut StdRng, leaves: usize) -> NumTerm {
        const BOUND: i128 = 1_000_000_000;
        let tree = if leaves == 1 {
            if rng.gen_bool(0.5) {
                NumTerm::var(&format!("x{}", rng.gen_range(0..SLOTS)))
            } else {
                NumTerm::Const(small_rational(rng, BOUND))
            }
        } else {
            let left = rng.gen_range(1..leaves);
            let (a, b) =
                (Box::new(small_tree(rng, left)), Box::new(small_tree(rng, leaves - left)));
            match rng.gen_range(0..3) {
                0 => NumTerm::Add(a, b),
                1 => NumTerm::Sub(a, b),
                _ => NumTerm::Mul(a, b),
            }
        };
        if rng.gen_bool(0.25) {
            NumTerm::Neg(Box::new(tree))
        } else {
            tree
        }
    }

    /// A rational whose numerator and denominator are at most `bound` in
    /// magnitude, at the bound often.
    fn small_rational(rng: &mut StdRng, bound: i128) -> Rational {
        let component = |rng: &mut StdRng| match rng.gen_range(0..4) {
            0 => bound,
            1 => bound - 1,
            2 => 1,
            _ => rng.gen_range(1..=bound),
        };
        let num = if rng.gen_bool(0.1) { 0 } else { component(rng) };
        let num = if rng.gen_bool(0.5) { -num } else { num };
        Rational::new(num, component(rng))
    }

    /// The fast path is not one that declines everything: it decides
    /// every filter over at most four leaves (both sides together, so at
    /// most three levels below the comparison) whose components are at
    /// most 10^9 in magnitude. The final numerator is then a sum of at
    /// most four products of four components, at most 4·10^36, and the
    /// denominator at most 10^36, both inside `i128` (about 1.7·10^38).
    #[test]
    fn the_fast_path_decides_every_filter_over_database_scale_values() {
        let mut rng = StdRng::seed_from_u64(0x5eed_f7ac);
        for case in 0..20_000 {
            let cells: Vec<Value> =
                (0..SLOTS).map(|_| Value::Num(small_rational(&mut rng, 1_000_000_000))).collect();
            let total = rng.gen_range(2..=4);
            let left = rng.gen_range(1..total);
            let lhs = small_tree(&mut rng, left);
            let rhs = small_tree(&mut rng, total - left);
            let (fast, reduced) = both(&lhs, &rhs, &cells);
            assert!(fast.is_some(), "case {case}: declined {lhs:?} - {rhs:?} over {cells:?}");
            assert_eq!(fast, reduced.ok(), "case {case}: {lhs:?} - {rhs:?} over {cells:?}");
        }
    }

    /// The overflow `join_golden` pins: `10^38·x ≥ −10^38` at `x = 1`
    /// overflows only in the final subtraction, so the fast path must
    /// form it (and its denominator product) and decline.
    #[test]
    fn an_overflow_in_the_final_subtraction_declines() {
        let e38 = NumTerm::Const(Rational::from_int(10).checked_pow(38).expect("fits"));
        let lhs = NumTerm::var("x0").mul(e38.clone());
        let (fast, reduced) = both(&lhs, &e38.neg(), &[Value::num(1)]);
        assert_eq!(fast, None);
        assert_eq!(
            format!("{:?}", reduced.expect_err("overflows")),
            r#"Numeric(Overflow { op: "add" })"#
        );
    }
}
