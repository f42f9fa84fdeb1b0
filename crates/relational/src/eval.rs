//! Query evaluation: a left-deep hash-join pipeline over bag relations.
//!
//! Evaluation takes the base relations from a [`StateProvider`], so the
//! same code path computes a view at the current source state, at an MVCC
//! as-of snapshot, or over an [`Overlay`](crate::database::Overlay) that
//! substitutes a delta for one relation (the delta rule of
//! [`maintain`](crate::maintain)).

use crate::database::StateProvider;
use crate::delta::Delta;
use crate::expr::{CmpOp, Expr, ExprError};
use crate::relation::Relation;
use crate::schema::{RelationName, SchemaError};
use crate::tuple::Tuple;
use crate::value::Value;
use crate::viewdef::{conjuncts, AggFunc, SpjCore, ViewDef};
use std::collections::HashMap;
use std::fmt;

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

/// Evaluate a full view definition (SPJ core plus optional aggregation).
pub fn eval_view(def: &ViewDef, provider: &dyn StateProvider) -> Result<Relation, EvalError> {
    let core = eval_core(&def.core, provider)?;
    if def.is_aggregate() {
        aggregate(def, &core)
    } else {
        Ok(core)
    }
}

/// Evaluate just the SPJ core against a provider. Provider state is
/// borrowed where the provider allows it — the join below only reads.
pub fn eval_core(core: &SpjCore, provider: &dyn StateProvider) -> Result<Relation, EvalError> {
    let rels: Vec<std::borrow::Cow<'_, Relation>> = core
        .sources
        .iter()
        .map(|n| {
            provider
                .fetch(n)
                .ok_or_else(|| EvalError::MissingRelation(n.clone()))
        })
        .collect::<Result<_, _>>()?;
    eval_core_with(core, &rels)
}

/// Evaluate the SPJ core with explicitly supplied relations, one per source
/// occurrence (in order). This is the entry point the delta rules use to
/// substitute a delta for one occurrence. Accepts owned or borrowed
/// relations (`Relation`, `Cow<Relation>`, …) — evaluation never mutates.
pub fn eval_core_with<R: std::borrow::Borrow<Relation>>(
    core: &SpjCore,
    rels: &[R],
) -> Result<Relation, EvalError> {
    let joined = eval_join_with(core, rels)?;
    project_relation(core, &joined)
}

/// Evaluate only the select-join part, returning *pre-projection* rows in
/// the qualified [`SpjCore::join_schema`]. Strobe-style view managers keep
/// their mirror at this level so that base-tuple deletes can be applied by
/// segment matching without re-querying the sources.
pub fn eval_join_with<R: std::borrow::Borrow<Relation>>(
    core: &SpjCore,
    rels: &[R],
) -> Result<Relation, EvalError> {
    let rels: Vec<&Relation> = rels.iter().map(std::borrow::Borrow::borrow).collect();
    if rels.len() != core.sources.len() {
        return Err(EvalError::SourceCountMismatch {
            expected: core.sources.len(),
            actual: rels.len(),
        });
    }

    // Classify predicate conjuncts by the first pipeline stage at which all
    // their columns are bound.
    let all_conjuncts = conjuncts(&core.predicate);
    let stage_end: Vec<usize> = core
        .offsets
        .iter()
        .zip(&rels)
        .map(|(off, r)| off + r.schema().arity())
        .collect();
    let stage_of = |e: &Expr| -> usize {
        let max_col = e.columns().into_iter().max().unwrap_or(0);
        stage_end
            .iter()
            .position(|&end| max_col < end)
            .unwrap_or(stage_end.len() - 1)
    };
    let mut stage_conjuncts: Vec<Vec<&Expr>> = vec![Vec::new(); rels.len()];
    for c in all_conjuncts {
        stage_conjuncts[stage_of(c)].push(c);
    }

    // Stage 0: filter the first relation.
    let mut working: Vec<(Tuple, u64)> = Vec::new();
    for (t, n) in rels[0].iter_counted() {
        if passes_all(&stage_conjuncts[0], t)? {
            working.push((t.clone(), n));
        }
    }

    // Stages 1..: hash join each subsequent relation.
    for k in 1..rels.len() {
        let off = core.offsets[k];
        let arity = rels[k].schema().arity();
        // Split stage conjuncts into equi-join keys and residual filters.
        let mut left_keys: Vec<usize> = Vec::new();
        let mut right_keys: Vec<usize> = Vec::new();
        let mut residual: Vec<&Expr> = Vec::new();
        for c in &stage_conjuncts[k] {
            if let Expr::Cmp(CmpOp::Eq, a, b) = c {
                if let (Expr::Col(i), Expr::Col(j)) = (a.as_ref(), b.as_ref()) {
                    let (lo, hi) = if i < j { (*i, *j) } else { (*j, *i) };
                    if lo < off && (off..off + arity).contains(&hi) {
                        left_keys.push(lo);
                        right_keys.push(hi - off);
                        continue;
                    }
                }
            }
            residual.push(c);
        }

        // Build side: hash the new relation on its join-key columns.
        let mut table: HashMap<Vec<Value>, Vec<(&Tuple, u64)>> = HashMap::new();
        for (t, n) in rels[k].iter_counted() {
            let key: Vec<Value> = right_keys.iter().map(|&c| t.get(c).clone()).collect();
            table.entry(key).or_default().push((t, n));
        }

        // Probe side.
        let mut next: Vec<(Tuple, u64)> = Vec::new();
        for (lt, ln) in &working {
            let key: Vec<Value> = left_keys.iter().map(|&c| lt.get(c).clone()).collect();
            // Null join keys never match (SQL semantics).
            if key.iter().any(Value::is_null) && !left_keys.is_empty() {
                continue;
            }
            if let Some(matches) = table.get(&key) {
                for (rt, rn) in matches {
                    let joined = lt.concat(rt);
                    if passes_all(&residual, &joined)? {
                        next.push((joined, ln * rn));
                    }
                }
            }
        }
        working = next;
    }

    let mut out = Relation::new(core.join_schema.clone());
    for (t, n) in working {
        out.insert_n(t, n)?;
    }
    Ok(out)
}

/// Apply the core's projection to a join-level relation.
pub fn project_relation(core: &SpjCore, joined: &Relation) -> Result<Relation, EvalError> {
    let mut out = Relation::new(core.output_schema.clone());
    if core.projection.is_empty() {
        for (t, n) in joined.iter_counted() {
            out.insert_n(t.clone(), n)?;
        }
    } else {
        for (t, n) in joined.iter_counted() {
            let vals: Vec<Value> = core
                .projection
                .iter()
                .map(|e| e.eval(t))
                .collect::<Result<_, _>>()?;
            out.insert_n(Tuple::new(vals), n)?;
        }
    }
    Ok(out)
}

/// Apply the core's projection to a join-level delta. Projection is linear
/// over bags, so net multiplicities push through directly.
pub fn project_delta(core: &SpjCore, join_delta: &Delta) -> Result<Delta, EvalError> {
    let mut out = Delta::new();
    for (t, n) in join_delta.iter() {
        let projected = if core.projection.is_empty() {
            t.clone()
        } else {
            let vals: Vec<Value> = core
                .projection
                .iter()
                .map(|e| e.eval(t))
                .collect::<Result<_, _>>()?;
            Tuple::new(vals)
        };
        out.add(projected, n);
    }
    Ok(out)
}

fn passes_all(preds: &[&Expr], t: &Tuple) -> Result<bool, EvalError> {
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
    fn source_count_mismatch() {
        let (cat, _) = setup();
        let v = ViewDef::builder("V")
            .from("R")
            .from("S")
            .build(&cat)
            .unwrap();
        let r = Relation::new(Schema::ints(&["a", "b"]));
        assert!(matches!(
            eval_core_with(&v.core, &[r]),
            Err(EvalError::SourceCountMismatch { .. })
        ));
    }
}
