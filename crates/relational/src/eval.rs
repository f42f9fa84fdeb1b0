//! Query evaluation: a hash-join pipeline over bag relations, driven from
//! the source occurrence whose rows the caller holds.
//!
//! Evaluation takes the base relations from a [`StateProvider`], so the
//! same code path computes a view at the current source state, at an MVCC
//! as-of snapshot, or over an [`Overlay`](crate::database::Overlay).
//!
//! [`eval_join_with`] is the one join. It starts at a given occurrence
//! from given rows (a delta, Strobe's substituted tuple, or — for a full
//! evaluation — occurrence 0's whole relation) and reaches every further
//! occurrence through its equi-join conjuncts, in the order the core's
//! `JoinPlan` for that start fixes. At each step it probes the
//! provider's [`JoinIndex`] on exactly that step's columns when the
//! provider lends one; otherwise it hashes the fetched relation, as every
//! step did before indexes existed. A delta query against indexed current
//! state therefore costs O(|Δ| × fan-out), not O(|R|).

use crate::database::StateProvider;
use crate::delta::Delta;
use crate::expr::{CmpOp, Expr, ExprError};
use crate::index::{key_of, JoinIndex};
use crate::relation::{FoldHasher, Relation};
use crate::schema::{RelationName, SchemaError};
use crate::tuple::Tuple;
use crate::value::Value;
use crate::viewdef::{conjuncts, AggFunc, SpjCore, ViewDef};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;

#[cfg(test)]
pub(crate) mod reference {
    use crate::eval::EvalError;
    use crate::expr::{CmpOp, Expr};
    use crate::relation::Relation;
    use crate::tuple::Tuple;
    use crate::value::Value;
    use crate::viewdef::{conjuncts, SpjCore};
    use std::collections::HashMap;
    include!("eval/reference.rs");
}

#[cfg(test)]
mod equivalence;

/// Errors raised during evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    MissingRelation(RelationName),
    Schema(SchemaError),
    Expr(ExprError),
    /// Supplied relation count does not match the view's source list.
    SourceCountMismatch {
        expected: usize,
        actual: usize,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::MissingRelation(n) => write!(f, "missing relation `{n}`"),
            EvalError::Schema(e) => write!(f, "schema error: {e}"),
            EvalError::Expr(e) => write!(f, "expression error: {e}"),
            EvalError::SourceCountMismatch { expected, actual } => {
                write!(f, "expected {expected} source relations, got {actual}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

impl From<SchemaError> for EvalError {
    fn from(e: SchemaError) -> Self {
        EvalError::Schema(e)
    }
}

impl From<ExprError> for EvalError {
    fn from(e: ExprError) -> Self {
        EvalError::Expr(e)
    }
}

/// Where a join reads one (non-starting) source occurrence from.
#[derive(Clone, Copy)]
pub enum JoinInput<'a> {
    /// Explicit rows: hashed on the step's columns for this call.
    Rows(&'a Relation),
    /// The occurrence's relation as a provider serves it: probed through
    /// the provider's index on the step's columns when it lends one,
    /// else fetched and hashed.
    State(&'a dyn StateProvider),
}

/// One conjunct of a core's predicate, by what it reads.
enum Conjunct<'e> {
    /// Columns of one occurrence only (none: a constant).
    Local(Option<usize>, &'e Expr),
    /// `Col(i) = Col(j)` across two occurrences: a join key.
    Equi((usize, usize), (usize, usize)),
    /// Anything else over several occurrences, with the set it reads.
    Residual(Vec<usize>, &'e Expr),
}

/// How [`eval_join_with`] evaluates a core from one starting occurrence.
/// Derived from the definition alone and built once with it (one per
/// occurrence, held by the [`SpjCore`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct JoinPlan {
    /// Conjuncts reading only the start occurrence, over its own
    /// positions — also the ref \[7\] relevance test for that occurrence.
    start_filter: Vec<Expr>,
    /// The remaining occurrences in visiting order.
    steps: Vec<JoinStep>,
    /// Conjuncts checked on the assembled join tuple: constants, and
    /// residuals first bound at the last step.
    emit_filter: Vec<Expr>,
    /// Visit position of each occurrence (the start is at 0).
    pos_of: Vec<usize>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct JoinStep {
    occ: usize,
    /// Key columns of `occ`, over its own positions: the index this step
    /// probes. Empty for a cross product.
    cols: Vec<usize>,
    /// Where each key value comes from: (visit position, position within
    /// that occurrence), aligned with `cols`.
    probe: Vec<(usize, usize)>,
    /// Conjuncts reading only `occ`, over its own positions.
    filter: Vec<Expr>,
    /// Conjuncts over several occurrences first fully bound here, over
    /// join-schema positions (empty at the last step: see `emit_filter`).
    residual: Vec<Expr>,
}

impl JoinPlan {
    /// Visit `start` first, then repeatedly the lowest-numbered unvisited
    /// occurrence an equi conjunct ties to the visited ones (the lowest
    /// unvisited one when none is tied: a cross product). From occurrence
    /// 0 over a chain this is the left-deep order `0, 1, …, n−1`.
    pub(crate) fn new(core: &SpjCore, start: usize) -> Self {
        let n = core.sources.len();
        let occ_of = |c: usize| core.offsets.partition_point(|&o| o <= c) - 1;
        let local = |k: usize, e: &Expr| {
            let range = core.occurrence_range(k);
            e.remap_columns(&|c| range.contains(&c).then(|| c - range.start))
                .expect("columns checked local")
        };
        let classified: Vec<Conjunct<'_>> = conjuncts(&core.predicate)
            .into_iter()
            .map(|e| {
                let mut occs: Vec<usize> = e.columns().into_iter().map(occ_of).collect();
                occs.dedup();
                if let Expr::Cmp(CmpOp::Eq, a, b) = e {
                    if let (Expr::Col(i), Expr::Col(j)) = (a.as_ref(), b.as_ref()) {
                        let (oi, oj) = (occ_of(*i), occ_of(*j));
                        if oi != oj {
                            let at = |c: usize, o: usize| (o, c - core.offsets[o]);
                            return Conjunct::Equi(at(*i, oi), at(*j, oj));
                        }
                    }
                }
                match occs.as_slice() {
                    [] => Conjunct::Local(None, e),
                    [k] => Conjunct::Local(Some(*k), e),
                    _ => Conjunct::Residual(occs, e),
                }
            })
            .collect();

        let mut pos_of = vec![usize::MAX; n];
        pos_of[start] = 0;
        let mut visited = 1;
        let mut steps = Vec::with_capacity(n - 1);
        let mut emit_filter = Vec::new();
        let ties = |m: usize, pos_of: &[usize]| {
            classified.iter().any(|c| match c {
                Conjunct::Equi((a, _), (b, _)) => {
                    (*a == m && pos_of[*b] != usize::MAX) || (*b == m && pos_of[*a] != usize::MAX)
                }
                _ => false,
            })
        };
        while visited < n {
            let unvisited = || (0..n).filter(|&m| pos_of[m] == usize::MAX);
            let occ = unvisited()
                .find(|&m| ties(m, &pos_of))
                .or_else(|| unvisited().next())
                .expect("an occurrence is left");
            let mut keys: Vec<(usize, (usize, usize))> = Vec::new();
            for c in &classified {
                if let Conjunct::Equi(a, b) = c {
                    for (here, there) in [(a, b), (b, a)] {
                        if here.0 == occ && pos_of[there.0] != usize::MAX {
                            keys.push((here.1, (pos_of[there.0], there.1)));
                        }
                    }
                }
            }
            keys.sort_unstable();
            pos_of[occ] = visited;
            visited += 1;
            let residual: Vec<Expr> = classified
                .iter()
                .filter_map(|c| match c {
                    Conjunct::Residual(occs, e)
                        if occs.contains(&occ) && occs.iter().all(|&o| pos_of[o] != usize::MAX) =>
                    {
                        Some((*e).clone())
                    }
                    _ => None,
                })
                .collect();
            let residual = if visited == n {
                emit_filter.extend(residual);
                Vec::new()
            } else {
                residual
            };
            steps.push(JoinStep {
                occ,
                cols: keys.iter().map(|(c, _)| *c).collect(),
                probe: keys.iter().map(|(_, p)| *p).collect(),
                filter: classified
                    .iter()
                    .filter_map(|c| match c {
                        Conjunct::Local(Some(k), e) if *k == occ => Some(local(occ, e)),
                        _ => None,
                    })
                    .collect(),
                residual,
            });
        }
        let mut start_filter = Vec::new();
        for c in &classified {
            match c {
                Conjunct::Local(Some(k), e) if *k == start => start_filter.push(local(start, e)),
                Conjunct::Local(None, e) => emit_filter.push((*e).clone()),
                _ => {}
            }
        }
        JoinPlan {
            start_filter,
            steps,
            emit_filter,
            pos_of,
        }
    }

    /// Can `t`, placed at the start occurrence, pass that occurrence's own
    /// conjuncts? (An evaluation error counts as no.)
    pub(crate) fn accepts(&self, t: &Tuple) -> bool {
        self.start_filter
            .iter()
            .all(|e| matches!(e.matches(t), Ok(true)))
    }

    /// (occurrence, key columns) of every step that probes by key.
    pub(crate) fn probed(&self) -> impl Iterator<Item = (usize, &[usize])> {
        self.steps
            .iter()
            .filter(|s| !s.cols.is_empty())
            .map(|s| (s.occ, s.cols.as_slice()))
    }
}

type Table<'a> = HashMap<Vec<Value>, Vec<(&'a Tuple, u64)>, BuildHasherDefault<FoldHasher>>;

/// What one step of a join probes.
enum Probe<'a> {
    Index(&'a JoinIndex),
    /// The occurrence's rows hashed on the step's columns for this call.
    Table(Table<'a>),
}

impl<'a> Probe<'a> {
    fn table(rel: &'a Relation, cols: &[usize]) -> Self {
        let mut table = Table::default();
        for (t, n) in rel.iter_counted() {
            let key = key_of(t, cols);
            match table.get_mut(key.as_ref()) {
                Some(bucket) => bucket.push((t, n)),
                None => {
                    table.insert(key.into_owned(), vec![(t, n)]);
                }
            }
        }
        Probe::Table(table)
    }

    fn for_each(
        &self,
        key: &[Value],
        mut f: impl FnMut(&'a Tuple, u64) -> Result<(), EvalError>,
    ) -> Result<(), EvalError> {
        match self {
            Probe::Index(ix) => {
                let ix: &'a JoinIndex = ix;
                ix.get(key).try_for_each(|(t, n)| f(t, n))
            }
            Probe::Table(table) => table
                .get(key)
                .map_or(&[][..], Vec::as_slice)
                .iter()
                .try_for_each(|&(t, n)| f(t, n)),
        }
    }
}

/// What a step reads before any probing: a lent index or fetched rows.
enum Side<'a> {
    Indexed(&'a JoinIndex),
    Scan(Cow<'a, Relation>),
}

/// The one join. Starting at occurrence `start` from the rows `seed`
/// (each must fit that occurrence's schema), reach every other
/// occurrence `m` — read from `input(m)` — as the core's plan for `start`
/// orders them, and hand every pre-projection join tuple (qualified
/// [`SpjCore::join_schema`] layout) with its multiplicity to `emit`.
///
/// Every occurrence but the start is probed by key: through the provider's
/// index on exactly the step's columns where [`JoinInput::State`] lends one,
/// through a hash table built here otherwise. A `Null` key value never
/// matches.
pub fn eval_join_with<'s, 'a>(
    core: &SpjCore,
    start: usize,
    seed: impl IntoIterator<Item = (&'s Tuple, u64)>,
    input: impl Fn(usize) -> JoinInput<'a>,
    mut emit: impl FnMut(Tuple, u64) -> Result<(), EvalError>,
) -> Result<(), EvalError> {
    let plan = core.plan(start).ok_or(SchemaError::PositionOutOfRange {
        position: start,
        arity: core.sources.len(),
    })?;
    // Bound rows, flattened: one tuple per visited occurrence, in visit
    // order, then the row's multiplicity in `mults`.
    let arity = core.occurrence_schema(start).arity();
    let mut rows: Vec<&Tuple> = Vec::new();
    let mut mults: Vec<u64> = Vec::new();
    for (t, n) in seed {
        if t.arity() != arity {
            return Err(SchemaError::ArityMismatch {
                expected: arity,
                actual: t.arity(),
            }
            .into());
        }
        if passes_all(&plan.start_filter, t)? {
            rows.push(t);
            mults.push(n);
        }
    }
    // Nothing to join (an empty delta part): touch no other occurrence —
    // at a historical state, fetching one means reconstructing it.
    if rows.is_empty() {
        return Ok(());
    }

    let sides: Vec<Side<'a>> = plan
        .steps
        .iter()
        .map(|step| {
            let name = &core.sources[step.occ];
            match input(step.occ) {
                JoinInput::Rows(rel) => Ok(Side::Scan(Cow::Borrowed(rel))),
                JoinInput::State(p) => match p.index(name, &step.cols) {
                    Some(ix) if !step.cols.is_empty() => Ok(Side::Indexed(ix)),
                    _ => p
                        .fetch(name)
                        .map(Side::Scan)
                        .ok_or_else(|| EvalError::MissingRelation(name.clone())),
                },
            }
        })
        .collect::<Result<_, _>>()?;
    let probes: Vec<Probe<'_>> = sides
        .iter()
        .zip(&plan.steps)
        .map(|(side, step)| match side {
            Side::Indexed(ix) => Probe::Index(ix),
            Side::Scan(rel) => Probe::table(rel, &step.cols),
        })
        .collect();

    let mut key_buf: Vec<Value> = Vec::new();
    for (width, (step, probe)) in (1..).zip(plan.steps.iter().zip(&probes)) {
        let mut next_rows = Vec::with_capacity(rows.len() + rows.len() / width);
        let mut next_mults = Vec::with_capacity(mults.len());
        for (row, &m) in rows.chunks_exact(width).zip(&mults) {
            let key: &[Value] = match step.probe.as_slice() {
                [(p, c)] => std::slice::from_ref(row[*p].get(*c)),
                probe => {
                    key_buf.clear();
                    key_buf.extend(probe.iter().map(|&(p, c)| row[p].get(c).clone()));
                    &key_buf
                }
            };
            // Null join keys never match (SQL semantics).
            if key.iter().any(Value::is_null) {
                continue;
            }
            probe.for_each(key, |t, n| {
                if !passes_all(&step.filter, t)? {
                    return Ok(());
                }
                if !step.residual.is_empty() {
                    let mut parts = row.to_vec();
                    parts.push(t);
                    if !passes_all(&step.residual, &assemble(core, plan, &parts))? {
                        return Ok(());
                    }
                }
                next_rows.extend_from_slice(row);
                next_rows.push(t);
                next_mults.push(m * n);
                Ok(())
            })?;
        }
        rows = next_rows;
        mults = next_mults;
    }

    for (row, &m) in rows.chunks_exact(plan.steps.len() + 1).zip(&mults) {
        let t = assemble(core, plan, row);
        if passes_all(&plan.emit_filter, &t)? {
            emit(t, m)?;
        }
    }
    Ok(())
}

/// The join tuple of `parts` (one tuple per visited occurrence, in visit
/// order), in occurrence order; occurrences not visited yet read as
/// `Null`, which no conjunct bound so far looks at.
fn assemble(core: &SpjCore, plan: &JoinPlan, parts: &[&Tuple]) -> Tuple {
    if let [only] = parts {
        if core.sources.len() == 1 {
            return (*only).clone();
        }
    }
    let mut vals = Vec::with_capacity(core.join_schema.arity());
    for (occ, &pos) in plan.pos_of.iter().enumerate() {
        match parts.get(pos) {
            Some(t) => vals.extend_from_slice(t.values()),
            None => vals.extend(core.occurrence_range(occ).map(|_| Value::Null)),
        }
    }
    Tuple::new(vals)
}

/// Evaluate a full view definition (SPJ core plus optional aggregation).
pub fn eval_view(def: &ViewDef, provider: &dyn StateProvider) -> Result<Relation, EvalError> {
    let core = eval_core(&def.core, provider)?;
    if def.is_aggregate() {
        aggregate(def, &core)
    } else {
        Ok(core)
    }
}

/// Evaluate just the SPJ core against a provider: a join from occurrence
/// 0's whole relation, borrowed where the provider allows it.
pub fn eval_core(core: &SpjCore, provider: &dyn StateProvider) -> Result<Relation, EvalError> {
    let first = &core.sources[0];
    let first = provider
        .fetch(first)
        .ok_or_else(|| EvalError::MissingRelation(first.clone()))?;
    let mut out = Relation::shared(core.output_schema.clone());
    eval_join_with(
        core,
        0,
        first.iter_counted(),
        |_| JoinInput::State(provider),
        |t, n| Ok(out.insert_n(project_tuple(core, t)?, n)?),
    )?;
    Ok(out)
}

/// [`eval_join_with`] collected into a relation over the qualified
/// [`SpjCore::join_schema`] — the level Strobe-style view managers keep
/// their mirror at, so that base-tuple deletes can be applied by segment
/// matching without re-querying the sources.
pub fn eval_join<'s, 'a>(
    core: &SpjCore,
    start: usize,
    seed: impl IntoIterator<Item = (&'s Tuple, u64)>,
    input: impl Fn(usize) -> JoinInput<'a>,
) -> Result<Relation, EvalError> {
    let mut out = Relation::shared(core.join_schema.clone());
    eval_join_with(core, start, seed, input, |t, n| Ok(out.insert_n(t, n)?))?;
    Ok(out)
}

/// A join-level tuple under the core's projection (itself when the
/// projection is the identity).
pub fn project_tuple(core: &SpjCore, t: Tuple) -> Result<Tuple, EvalError> {
    if core.projection.is_empty() {
        return Ok(t);
    }
    let vals: Vec<Value> = core
        .projection
        .iter()
        .map(|e| e.eval(&t))
        .collect::<Result<_, _>>()?;
    Ok(Tuple::new(vals))
}

/// Apply the core's projection to a join-level delta. Projection is linear
/// over bags, so net multiplicities push through directly.
pub fn project_delta(core: &SpjCore, join_delta: &Delta) -> Result<Delta, EvalError> {
    let mut out = Delta::new();
    for (t, n) in join_delta.iter() {
        out.add(project_tuple(core, t.clone())?, n);
    }
    Ok(out)
}

fn passes_all(preds: &[Expr], t: &Tuple) -> Result<bool, EvalError> {
    for p in preds {
        if !p.matches(t)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Compute the aggregate layer of `def` over an already-evaluated core
/// relation.
pub fn aggregate(def: &ViewDef, core: &Relation) -> Result<Relation, EvalError> {
    let mut groups: HashMap<Vec<Value>, Vec<(&Tuple, u64)>> = HashMap::new();
    for (t, n) in core.iter_counted() {
        let key: Vec<Value> = def
            .group_by
            .iter()
            .map(|g| g.eval(t))
            .collect::<Result<_, _>>()?;
        groups.entry(key).or_default().push((t, n));
    }

    let mut out = Relation::shared(def.schema.clone());
    for (key, rows) in groups {
        let mut vals: Vec<Value> = key;
        for agg in &def.aggregates {
            vals.push(eval_aggregate(agg.func, &agg.input, &rows)?);
        }
        out.insert(Tuple::new(vals))?;
    }
    Ok(out)
}

fn eval_aggregate(func: AggFunc, input: &Expr, rows: &[(&Tuple, u64)]) -> Result<Value, EvalError> {
    match func {
        AggFunc::Count => {
            let n: u64 = rows.iter().map(|(_, n)| n).sum();
            Ok(Value::Int(n as i64))
        }
        AggFunc::Sum => {
            let mut int_sum: i64 = 0;
            let mut float_sum: f64 = 0.0;
            let mut any_float = false;
            let mut any = false;
            for (t, n) in rows {
                let v = input.eval(t)?;
                if v.is_null() {
                    continue;
                }
                any = true;
                match v {
                    Value::Int(i) => int_sum = int_sum.wrapping_add(i.wrapping_mul(*n as i64)),
                    Value::Float(f) => {
                        any_float = true;
                        float_sum += f * (*n as f64);
                    }
                    _ => return Err(EvalError::Expr(ExprError::NotNumeric)),
                }
            }
            if !any {
                Ok(Value::Null)
            } else if any_float {
                Ok(Value::Float(float_sum + int_sum as f64))
            } else {
                Ok(Value::Int(int_sum))
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let mut best: Option<Value> = None;
            for (t, _) in rows {
                let v = input.eval(t)?;
                if v.is_null() {
                    continue;
                }
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let keep_new = match func {
                            AggFunc::Min => v < b,
                            _ => v > b,
                        };
                        if keep_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.unwrap_or(Value::Null))
        }
        AggFunc::Avg => {
            let mut sum = 0.0;
            let mut count = 0u64;
            for (t, n) in rows {
                let v = input.eval(t)?;
                if v.is_null() {
                    continue;
                }
                let f = v.as_f64().ok_or(EvalError::Expr(ExprError::NotNumeric))?;
                sum += f * (*n as f64);
                count += n;
            }
            if count == 0 {
                Ok(Value::Null)
            } else {
                Ok(Value::Float(sum / count as f64))
            }
        }
    }
}

/// Convenience: the delta that turns `old` into `new`.
pub fn diff(old: &Relation, new: &Relation) -> Delta {
    let mut d = Delta::new();
    for (t, n) in new.iter_counted() {
        let delta = n as i64 - old.multiplicity(t) as i64;
        d.add(t.clone(), delta);
    }
    for (t, n) in old.iter_counted() {
        if !new.contains(t) {
            d.add(t.clone(), -(n as i64));
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::database::Database;
    use crate::schema::Schema;
    use crate::tuple;

    fn setup() -> (Catalog, Database) {
        let cat = Catalog::new()
            .with("R", Schema::ints(&["a", "b"]))
            .with("S", Schema::ints(&["b", "c"]))
            .with("T", Schema::ints(&["c", "d"]));
        let db = Database::from_catalog(&cat);
        (cat, db)
    }

    fn insert(db: &mut Database, rel: &str, rows: &[(i64, i64)]) {
        for &(x, y) in rows {
            db.relation_mut(&rel.into())
                .unwrap()
                .insert(tuple![x, y])
                .unwrap();
        }
    }

    #[test]
    fn paper_example1_join() {
        // V1 = R ⋈ S with R=[1,2], S=[2,3] → [1,2,3] projected (a,b,c)
        let (cat, mut db) = setup();
        insert(&mut db, "R", &[(1, 2)]);
        insert(&mut db, "S", &[(2, 3)]);
        let v1 = ViewDef::builder("V1")
            .from("R")
            .from("S")
            .join_on("R.b", "S.b")
            .project(["R.a", "R.b", "S.c"])
            .build(&cat)
            .unwrap();
        let out = eval_view(&v1, &db).unwrap();
        assert_eq!(out.to_tuples(), vec![tuple![1, 2, 3]]);
    }

    #[test]
    fn three_way_join_chain() {
        // V2 = S ⋈ T ⋈ ... chain on c
        let (cat, mut db) = setup();
        insert(&mut db, "R", &[(1, 2), (7, 8)]);
        insert(&mut db, "S", &[(2, 3), (8, 9)]);
        insert(&mut db, "T", &[(3, 4)]);
        let v = ViewDef::builder("V")
            .from("R")
            .from("S")
            .from("T")
            .join_on("R.b", "S.b")
            .join_on("S.c", "T.c")
            .project(["R.a", "R.b", "S.c", "T.d"])
            .build(&cat)
            .unwrap();
        let out = eval_view(&v, &db).unwrap();
        assert_eq!(out.to_tuples(), vec![tuple![1, 2, 3, 4]]);
    }

    #[test]
    fn bag_multiplicities_multiply_through_join() {
        let (cat, mut db) = setup();
        insert(&mut db, "R", &[(1, 2), (1, 2)]); // two copies
        insert(&mut db, "S", &[(2, 3), (2, 3), (2, 3)]); // three copies
        let v = ViewDef::builder("V")
            .from("R")
            .from("S")
            .join_on("R.b", "S.b")
            .project(["R.a"])
            .build(&cat)
            .unwrap();
        let out = eval_view(&v, &db).unwrap();
        assert_eq!(out.multiplicity(&tuple![1]), 6);
    }

    #[test]
    fn selection_filters() {
        let (cat, mut db) = setup();
        insert(&mut db, "R", &[(1, 2), (5, 2), (9, 2)]);
        let v = ViewDef::builder("V")
            .from("R")
            .filter(Expr::gt(Expr::named("R.a"), Expr::value(4)))
            .build(&cat)
            .unwrap();
        let out = eval_view(&v, &db).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.contains(&tuple![5, 2]));
        assert!(out.contains(&tuple![9, 2]));
    }

    #[test]
    fn non_equi_join_residual() {
        let (cat, mut db) = setup();
        insert(&mut db, "R", &[(1, 10), (1, 2)]);
        insert(&mut db, "S", &[(5, 0)]);
        // theta-join R.b > S.b
        let v = ViewDef::builder("V")
            .from("R")
            .from("S")
            .filter(Expr::gt(Expr::named("R.b"), Expr::named("S.b")))
            .project(["R.b"])
            .build(&cat)
            .unwrap();
        let out = eval_view(&v, &db).unwrap();
        assert!(out.contains(&tuple![10]));
        assert!(!out.contains(&tuple![2]));
    }

    #[test]
    fn empty_join_when_no_match() {
        let (cat, mut db) = setup();
        insert(&mut db, "R", &[(1, 2)]);
        insert(&mut db, "S", &[(9, 9)]);
        let v = ViewDef::builder("V")
            .from("R")
            .from("S")
            .join_on("R.b", "S.b")
            .build(&cat)
            .unwrap();
        assert!(eval_view(&v, &db).unwrap().is_empty());
    }

    #[test]
    fn missing_relation_errors() {
        let (cat, _) = setup();
        let db = Database::new();
        let v = ViewDef::builder("V").from("R").build(&cat).unwrap();
        assert!(matches!(
            eval_view(&v, &db),
            Err(EvalError::MissingRelation(_))
        ));
    }

    #[test]
    fn aggregate_count_sum_min_max_avg() {
        let (cat, mut db) = setup();
        insert(&mut db, "R", &[(1, 10), (1, 20), (2, 5)]);
        let v = ViewDef::builder("A")
            .from("R")
            .group_by(Expr::named("a"))
            .aggregate(AggFunc::Count, Expr::True, "n")
            .aggregate(AggFunc::Sum, Expr::named("b"), "s")
            .aggregate(AggFunc::Min, Expr::named("b"), "lo")
            .aggregate(AggFunc::Max, Expr::named("b"), "hi")
            .aggregate(AggFunc::Avg, Expr::named("b"), "mean")
            .build(&cat)
            .unwrap();
        let out = eval_view(&v, &db).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.contains(&tuple![1, 2, 30, 10, 20, 15.0]));
        assert!(out.contains(&tuple![2, 1, 5, 5, 5, 5.0]));
    }

    #[test]
    fn aggregate_counts_multiplicity() {
        let (cat, mut db) = setup();
        insert(&mut db, "R", &[(1, 10), (1, 10)]);
        let v = ViewDef::builder("A")
            .from("R")
            .group_by(Expr::named("a"))
            .aggregate(AggFunc::Count, Expr::True, "n")
            .build(&cat)
            .unwrap();
        let out = eval_view(&v, &db).unwrap();
        assert!(out.contains(&tuple![1, 2]));
    }

    #[test]
    fn diff_computes_delta() {
        let schema = Schema::ints(&["a"]);
        let mut old = Relation::new(schema.clone());
        let mut new = Relation::new(schema);
        old.insert(tuple![1]).unwrap();
        old.insert_n(tuple![2], 2).unwrap();
        new.insert(tuple![2]).unwrap();
        new.insert(tuple![3]).unwrap();
        let d = diff(&old, &new);
        assert_eq!(d.net(&tuple![1]), -1);
        assert_eq!(d.net(&tuple![2]), -1);
        assert_eq!(d.net(&tuple![3]), 1);
        let mut check = old.clone();
        d.apply_to(&mut check).unwrap();
        assert_eq!(check, new);
    }

    #[test]
    fn null_join_keys_never_match() {
        let cat = Catalog::new()
            .with("R", Schema::ints(&["a", "b"]))
            .with("S", Schema::ints(&["b", "c"]));
        let mut db = Database::from_catalog(&cat);
        db.relation_mut(&"R".into())
            .unwrap()
            .insert(crate::tuple::Tuple::new(vec![Value::Int(1), Value::Null]))
            .unwrap();
        db.relation_mut(&"S".into())
            .unwrap()
            .insert(crate::tuple::Tuple::new(vec![Value::Null, Value::Int(3)]))
            .unwrap();
        let v = ViewDef::builder("V")
            .from("R")
            .from("S")
            .join_on("R.b", "S.b")
            .build(&cat)
            .unwrap();
        assert!(eval_view(&v, &db).unwrap().is_empty());
    }

    #[test]
    fn bad_start_or_seed_arity_is_an_error() {
        let (cat, db) = setup();
        let v = ViewDef::builder("V")
            .from("R")
            .from("S")
            .build(&cat)
            .unwrap();
        let input = |_| JoinInput::State(&db);
        let t = tuple![1, 2];
        assert!(matches!(
            eval_join(&v.core, 2, [(&t, 1)], input),
            Err(EvalError::Schema(SchemaError::PositionOutOfRange { .. }))
        ));
        let short = tuple![1];
        assert!(matches!(
            eval_join(&v.core, 1, [(&short, 1)], input),
            Err(EvalError::Schema(SchemaError::ArityMismatch { .. }))
        ));
    }
}
