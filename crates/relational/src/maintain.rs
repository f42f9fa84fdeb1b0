//! Incremental view maintenance.
//!
//! The SPJ delta rule exploits multilinearity of bag joins: for a batch of
//! base changes taking each relation from `old` to `new`,
//!
//! ```text
//! V(new) − V(old) = Σ_k  πσ( r₁ⁿᵉʷ ⋈ … ⋈ r_{k−1}ⁿᵉʷ ⋈ Δr_k ⋈ r_{k+1}ᵒˡᵈ ⋈ … ⋈ r_nᵒˡᵈ )
//! ```
//!
//! summed over source *occurrences* k (so self-joins telescope correctly).
//! The signed delta `Δr_k` is evaluated as two bag evaluations (positive
//! and negative parts). This is the counting algorithm of the paper's
//! refs \[1, 3, 5\] generalized to multi-relation batches, which is exactly
//! what a strongly consistent view manager needs to fold intertwined
//! updates into a single action list.

use crate::database::StateProvider;
use crate::delta::Delta;
use crate::eval::{aggregate, diff, eval_join_with, project_tuple, EvalError, JoinInput};
use crate::relation::Relation;
use crate::schema::RelationName;
use crate::value::Value;
use crate::viewdef::{SpjCore, ViewDef};
use std::collections::BTreeMap;

/// Compute the exact view delta for an SPJ core given the base-relation
/// deltas in `changes`, with `old` providing pre-batch states and `new`
/// providing post-batch states. Relations absent from `changes` must be
/// identical in both providers.
///
/// Each term is one join started at the changed occurrence from the
/// delta's positive or negative part, so it costs what the delta joins
/// with — O(|Δ| × fan-out) where the providers lend indexes — and each
/// joined tuple is projected straight into the output. The changed
/// relation itself is never fetched.
pub fn spj_delta(
    core: &SpjCore,
    old: &dyn StateProvider,
    new: &dyn StateProvider,
    changes: &BTreeMap<RelationName, Delta>,
) -> Result<Delta, EvalError> {
    let mut out = Delta::new();
    for (k, name) in core.sources.iter().enumerate() {
        let Some(change) = changes.get(name) else {
            continue;
        };
        let input = |m: usize| JoinInput::State(if m < k { new } else { old });
        for sign in [1, -1] {
            let part = change
                .iter()
                .filter(|&(_, n)| n.signum() == sign)
                .map(|(t, n)| (t, n.unsigned_abs()));
            eval_join_with(core, k, part, input, |t, m| {
                out.add(project_tuple(core, t)?, sign * m as i64);
                Ok(())
            })?;
        }
    }
    Ok(out)
}

/// Maintenance for an aggregate view given the old materialized *core* and
/// the core delta: recomputes only the affected groups.
///
/// Returns the view-level delta (deletes of stale group rows, inserts of
/// fresh ones).
pub fn aggregate_delta(
    def: &ViewDef,
    core_old: &Relation,
    core_delta: &Delta,
) -> Result<Delta, EvalError> {
    debug_assert!(def.is_aggregate());
    if core_delta.is_empty() {
        return Ok(Delta::new());
    }

    // Affected group keys: groups of every touched core tuple.
    let mut affected: Vec<Vec<Value>> = Vec::new();
    for (t, _) in core_delta.iter() {
        let key: Vec<Value> = def
            .group_by
            .iter()
            .map(|g| g.eval(t))
            .collect::<Result<_, _>>()?;
        affected.push(key);
    }
    affected.sort();
    affected.dedup();

    let mut core_new = core_old.clone();
    core_delta.apply_to(&mut core_new)?;

    let old_groups = aggregate(def, &restrict_to_groups(def, core_old, &affected)?)?;
    let new_groups = aggregate(def, &restrict_to_groups(def, &core_new, &affected)?)?;
    Ok(diff(&old_groups, &new_groups))
}

/// Keep only core tuples whose group key is in `keys` (sorted).
fn restrict_to_groups(
    def: &ViewDef,
    core: &Relation,
    keys: &[Vec<Value>],
) -> Result<Relation, EvalError> {
    let mut out = Relation::new(core.schema().clone());
    for (t, n) in core.iter_counted() {
        let key: Vec<Value> = def
            .group_by
            .iter()
            .map(|g| g.eval(t))
            .collect::<Result<_, _>>()?;
        if keys.binary_search(&key).is_ok() {
            out.insert_n(t.clone(), n)?;
        }
    }
    Ok(out)
}

/// Full-recompute maintenance: evaluate the view at both states and diff.
/// The fallback every view manager can use, and the reference
/// implementation the property tests compare the delta rule against.
pub fn recompute_delta(
    def: &ViewDef,
    old: &dyn StateProvider,
    new: &dyn StateProvider,
) -> Result<Delta, EvalError> {
    let before = crate::eval::eval_view(def, old)?;
    let after = crate::eval::eval_view(def, new)?;
    Ok(diff(&before, &after))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::database::Database;
    use crate::expr::Expr;
    use crate::schema::Schema;
    use crate::tuple;
    use crate::viewdef::AggFunc;

    fn catalog() -> Catalog {
        Catalog::new()
            .with("R", Schema::ints(&["a", "b"]))
            .with("S", Schema::ints(&["b", "c"]))
    }

    fn db_with(cat: &Catalog, r: &[(i64, i64)], s: &[(i64, i64)]) -> Database {
        let mut db = Database::from_catalog(cat);
        for &(x, y) in r {
            db.relation_mut(&"R".into())
                .unwrap()
                .insert(tuple![x, y])
                .unwrap();
        }
        for &(x, y) in s {
            db.relation_mut(&"S".into())
                .unwrap()
                .insert(tuple![x, y])
                .unwrap();
        }
        db
    }

    fn join_view(cat: &Catalog) -> ViewDef {
        ViewDef::builder("V")
            .from("R")
            .from("S")
            .join_on("R.b", "S.b")
            .project(["R.a", "R.b", "S.c"])
            .build(cat)
            .unwrap()
    }

    #[test]
    fn insert_delta_matches_recompute() {
        let cat = catalog();
        let old = db_with(&cat, &[(1, 2)], &[]);
        let mut new = old.clone();
        new.relation_mut(&"S".into())
            .unwrap()
            .insert(tuple![2, 3])
            .unwrap();
        let mut changes = BTreeMap::new();
        let mut d = Delta::new();
        d.insert(tuple![2, 3]);
        changes.insert("S".into(), d);

        let v = join_view(&cat);
        let inc = spj_delta(&v.core, &old, &new, &changes).unwrap();
        let re = recompute_delta(&v, &old, &new).unwrap();
        assert_eq!(inc, re);
        assert_eq!(inc.net(&tuple![1, 2, 3]), 1);
    }

    #[test]
    fn delete_delta_matches_recompute() {
        let cat = catalog();
        let old = db_with(&cat, &[(1, 2)], &[(2, 3)]);
        let mut new = old.clone();
        new.relation_mut(&"S".into()).unwrap().delete(&tuple![2, 3]);
        let mut changes = BTreeMap::new();
        let mut d = Delta::new();
        d.delete(tuple![2, 3]);
        changes.insert("S".into(), d);

        let v = join_view(&cat);
        let inc = spj_delta(&v.core, &old, &new, &changes).unwrap();
        assert_eq!(inc.net(&tuple![1, 2, 3]), -1);
        assert_eq!(inc, recompute_delta(&v, &old, &new).unwrap());
    }

    #[test]
    fn batch_delta_over_both_relations() {
        // Simultaneous changes to R and S — the intertwined-update case a
        // strongly consistent manager folds into one AL.
        let cat = catalog();
        let old = db_with(&cat, &[(1, 2)], &[(2, 3)]);
        let mut new = old.clone();
        new.relation_mut(&"R".into())
            .unwrap()
            .insert(tuple![9, 2])
            .unwrap();
        new.relation_mut(&"S".into()).unwrap().delete(&tuple![2, 3]);
        new.relation_mut(&"S".into())
            .unwrap()
            .insert(tuple![2, 7])
            .unwrap();

        let mut changes = BTreeMap::new();
        let mut dr = Delta::new();
        dr.insert(tuple![9, 2]);
        changes.insert("R".into(), dr);
        let mut ds = Delta::new();
        ds.delete(tuple![2, 3]);
        ds.insert(tuple![2, 7]);
        changes.insert("S".into(), ds);

        let v = join_view(&cat);
        let inc = spj_delta(&v.core, &old, &new, &changes).unwrap();
        assert_eq!(inc, recompute_delta(&v, &old, &new).unwrap());
    }

    #[test]
    fn self_join_telescoping() {
        let cat = catalog();
        let old = db_with(&cat, &[(1, 2), (2, 5)], &[]);
        let mut new = old.clone();
        new.relation_mut(&"R".into())
            .unwrap()
            .insert(tuple![5, 1])
            .unwrap();
        let mut changes = BTreeMap::new();
        let mut d = Delta::new();
        d.insert(tuple![5, 1]);
        changes.insert("R".into(), d);

        // V = R ⋈_{R.b = R#2.a} R
        let v = ViewDef::builder("V")
            .from("R")
            .from("R")
            .join_on("R.b", "R#2.a")
            .build(&cat)
            .unwrap();
        let inc = spj_delta(&v.core, &old, &new, &changes).unwrap();
        assert_eq!(inc, recompute_delta(&v, &old, &new).unwrap());
        // new tuple joins both ways: [2,5]⋈[5,1] and [5,1]⋈[1,2]
        assert_eq!(inc.net(&tuple![2, 5, 5, 1]), 1);
        assert_eq!(inc.net(&tuple![5, 1, 1, 2]), 1);
    }

    #[test]
    fn duplicate_preservation_under_delete() {
        // Two R derivations for the same projected tuple; deleting one base
        // tuple must decrement, not eliminate.
        let cat = catalog();
        let mut old = db_with(&cat, &[], &[(2, 3)]);
        old.relation_mut(&"R".into())
            .unwrap()
            .insert_n(tuple![1, 2], 2)
            .unwrap();
        let mut new = old.clone();
        new.relation_mut(&"R".into()).unwrap().delete(&tuple![1, 2]);
        let mut changes = BTreeMap::new();
        let mut d = Delta::new();
        d.delete(tuple![1, 2]);
        changes.insert("R".into(), d);

        let v = join_view(&cat);
        let inc = spj_delta(&v.core, &old, &new, &changes).unwrap();
        assert_eq!(inc.net(&tuple![1, 2, 3]), -1);
        let mut mat = crate::eval::eval_view(&v, &old).unwrap();
        inc.apply_to(&mut mat).unwrap();
        assert_eq!(mat.multiplicity(&tuple![1, 2, 3]), 1);
    }

    #[test]
    fn no_change_empty_delta() {
        let cat = catalog();
        let db = db_with(&cat, &[(1, 2)], &[(2, 3)]);
        let v = join_view(&cat);
        let inc = spj_delta(&v.core, &db, &db, &BTreeMap::new()).unwrap();
        assert!(inc.is_empty());
    }

    #[test]
    fn aggregate_delta_recomputes_affected_groups_only() {
        let cat = catalog();
        let v = ViewDef::builder("A")
            .from("R")
            .group_by(Expr::named("a"))
            .aggregate(AggFunc::Sum, Expr::named("b"), "s")
            .aggregate(AggFunc::Count, Expr::True, "n")
            .build(&cat)
            .unwrap();
        let old_db = db_with(&cat, &[(1, 10), (1, 20), (2, 5)], &[]);
        let core_old = crate::eval::eval_core(&v.core, &old_db).unwrap();

        let mut cd = Delta::new();
        cd.insert(tuple![1, 30]); // affects group 1 only
        let vd = aggregate_delta(&v, &core_old, &cd).unwrap();
        assert_eq!(vd.net(&tuple![1, 30, 2]), -1, "old group row removed");
        assert_eq!(vd.net(&tuple![1, 60, 3]), 1, "new group row added");
        assert_eq!(vd.net(&tuple![2, 5, 1]), 0, "untouched group untouched");
    }

    #[test]
    fn aggregate_delta_group_vanishes() {
        let cat = catalog();
        let v = ViewDef::builder("A")
            .from("R")
            .group_by(Expr::named("a"))
            .aggregate(AggFunc::Count, Expr::True, "n")
            .build(&cat)
            .unwrap();
        let old_db = db_with(&cat, &[(1, 10)], &[]);
        let core_old = crate::eval::eval_core(&v.core, &old_db).unwrap();
        let mut cd = Delta::new();
        cd.delete(tuple![1, 10]);
        let vd = aggregate_delta(&v, &core_old, &cd).unwrap();
        assert_eq!(vd.net(&tuple![1, 1]), -1);
        assert_eq!(vd.distinct_len(), 1, "no replacement row for empty group");
    }

    #[test]
    fn min_max_delete_recomputes_correctly() {
        let cat = catalog();
        let v = ViewDef::builder("A")
            .from("R")
            .group_by(Expr::named("a"))
            .aggregate(AggFunc::Max, Expr::named("b"), "hi")
            .build(&cat)
            .unwrap();
        let old_db = db_with(&cat, &[(1, 10), (1, 20)], &[]);
        let core_old = crate::eval::eval_core(&v.core, &old_db).unwrap();
        // delete the current max → must fall back to 10, which pure
        // delta-application cannot know without recomputing the group
        let mut cd = Delta::new();
        cd.delete(tuple![1, 20]);
        let vd = aggregate_delta(&v, &core_old, &cd).unwrap();
        assert_eq!(vd.net(&tuple![1, 20]), -1);
        assert_eq!(vd.net(&tuple![1, 10]), 1);
    }
}
