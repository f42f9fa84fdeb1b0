//! The delta-driven join against the left-deep reference it replaced
//! (`reference.rs`): random cores over two or three occurrences — self
//! joins, cross products, one-sided and residual filters, multi-column
//! keys, `Null` keys, multiplicities above one — evaluated over indexed
//! databases (every probe through an index) and plain ones (every probe
//! through a per-call hash table), for full evaluations, Strobe-style
//! substituted rows and multi-relation delta batches.

use super::reference::reference_join;
use super::*;
use crate::catalog::Catalog;
use crate::database::Database;
use crate::maintain::spj_delta;
use crate::schema::Schema;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

const NAMES: [&str; 3] = ["R", "S", "T"];

fn catalog() -> Catalog {
    Catalog::new()
        .with("R", Schema::ints(&["a", "b"]))
        .with("S", Schema::ints(&["b", "c"]))
        .with("T", Schema::ints(&["c", "d", "e"]))
}

/// A value from a small domain, `Null` one time in eight.
fn value(rng: &mut StdRng) -> Value {
    if rng.gen_range(0..8) == 0 {
        Value::Null
    } else {
        Value::Int(rng.gen_range(0..4))
    }
}

fn tuple(rng: &mut StdRng, arity: usize) -> Tuple {
    Tuple::new((0..arity).map(|_| value(rng)).collect())
}

/// A random core over 2–3 occurrences: equi conjuncts (some pairs keyed
/// on two columns, some occurrences left unkeyed — a cross product),
/// plus optional one-sided and residual filters.
fn core(rng: &mut StdRng, cat: &Catalog) -> Arc<SpjCore> {
    let n = rng.gen_range(2..=3usize);
    let mut b = ViewDef::builder("V");
    let mut arities = Vec::new();
    for _ in 0..n {
        let name = NAMES[rng.gen_range(0..3usize)];
        arities.push(cat.schema(&name.into()).unwrap().arity());
        b = b.from(name);
    }
    let offsets: Vec<usize> = arities
        .iter()
        .scan(0, |acc, a| {
            let at = *acc;
            *acc += a;
            Some(at)
        })
        .collect();
    let col = |rng: &mut StdRng, k: usize| Expr::col(offsets[k] + rng.gen_range(0..arities[k]));
    for k in 1..n {
        // Tie k to an earlier occurrence on one or two columns, or not.
        let keys = [0, 1, 1, 1, 2][rng.gen_range(0..5usize)];
        let j = rng.gen_range(0..k);
        for _ in 0..keys {
            b = b.filter(Expr::eq(col(rng, j), col(rng, k)));
        }
    }
    if rng.gen_bool(0.4) {
        let k = rng.gen_range(0..n);
        b = b.filter(Expr::gt(col(rng, k), Expr::value(rng.gen_range(0..3i64))));
    }
    if rng.gen_bool(0.3) {
        let (j, k) = (rng.gen_range(0..n), rng.gen_range(0..n));
        b = b.filter(Expr::le(col(rng, j), col(rng, k)));
    }
    if rng.gen_bool(0.5) {
        b = b.project_expr(col(rng, n - 1), "x");
    }
    b.build(cat).unwrap().core
}

fn database(rng: &mut StdRng, cat: &Catalog) -> Database {
    let mut db = Database::from_catalog(cat);
    for name in NAMES {
        let arity = cat.schema(&name.into()).unwrap().arity();
        let mut d = Delta::new();
        for _ in 0..rng.gen_range(0..10) {
            d.add(tuple(rng, arity), rng.gen_range(1..=2));
        }
        db.apply(&name.into(), &d).unwrap();
    }
    db
}

/// Signed changes to one or two relations; deletes usually of tuples
/// present (all copies, sometimes more), inserts of random tuples.
fn changes(rng: &mut StdRng, cat: &Catalog, db: &Database) -> BTreeMap<RelationName, Delta> {
    let mut out = BTreeMap::new();
    for name in NAMES {
        if rng.gen_bool(0.5) {
            continue;
        }
        let rel = db.relation(&name.into()).unwrap();
        let mut d = Delta::new();
        for (t, n) in rel.iter_counted() {
            if rng.gen_bool(0.3) {
                d.add(t.clone(), -(n as i64) - rng.gen_range(0..2));
            }
        }
        let arity = cat.schema(&name.into()).unwrap().arity();
        for _ in 0..rng.gen_range(0..4) {
            d.add(tuple(rng, arity), rng.gen_range(1..=2));
        }
        out.insert(name.into(), d);
    }
    out
}

/// `db` with the core's indexes registered.
fn indexed(db: &Database, core: &SpjCore) -> Database {
    let mut ix = db.clone();
    ix.index_join_columns(core);
    ix
}

fn relations<'d>(db: &'d Database, core: &SpjCore) -> Vec<&'d Relation> {
    core.sources
        .iter()
        .map(|s| db.relation(s).unwrap())
        .collect()
}

/// The delta rule, term by term, over the reference join.
fn reference_delta(
    core: &SpjCore,
    old: &Database,
    new: &Database,
    changes: &BTreeMap<RelationName, Delta>,
) -> Delta {
    let mut out = Delta::new();
    for (k, name) in core.sources.iter().enumerate() {
        let Some(change) = changes.get(name) else {
            continue;
        };
        let schema = core.occurrence_schema(k);
        for (sign, part) in [
            (1, change.inserts_relation(schema).unwrap()),
            (-1, change.deletes_relation(schema).unwrap()),
        ] {
            let mut rels: Vec<&Relation> = relations(new, core)[..k].to_vec();
            rels.push(&part);
            rels.extend_from_slice(&relations(old, core)[k + 1..]);
            let joined = reference_join(core, &rels).unwrap();
            for (t, n) in joined.iter_counted() {
                out.add(project_tuple(core, t.clone()).unwrap(), sign * n as i64);
            }
        }
    }
    out
}

/// Every index `db` keeps agrees with its relation.
fn indexes_agree(db: &Database, core: &SpjCore) -> bool {
    core.join_indexes().all(|(name, cols)| {
        db.index(name, cols)
            .is_some_and(|ix| ix.agrees_with(db.relation(name).unwrap()))
    })
}

fn check(seed: u64) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cat = catalog();
    let core = core(&mut rng, &cat);
    let old = database(&mut rng, &cat);
    let changes = changes(&mut rng, &cat, &old);
    let mut new = old.clone();
    let mut new_ix = indexed(&old, &core);
    for (name, d) in &changes {
        new.apply(name, d).unwrap();
        new_ix.apply(name, d).unwrap();
    }
    let old_ix = indexed(&old, &core);
    prop_assert!(indexes_agree(&new_ix, &core), "index drifted: {core:?}");

    // Full evaluation.
    let mut full = Relation::shared(core.output_schema.clone());
    for (t, n) in reference_join(&core, &relations(&new, &core))?.iter_counted() {
        full.insert_n(project_tuple(&core, t.clone())?, n)?;
    }
    prop_assert_eq!(&eval_core(&core, &new)?, &full);
    prop_assert_eq!(&eval_core(&core, &new_ix)?, &full);

    // Delta batches, indexed and not.
    let expected = reference_delta(&core, &old, &new, &changes);
    prop_assert_eq!(&spj_delta(&core, &old, &new, &changes)?, &expected);
    prop_assert_eq!(&spj_delta(&core, &old_ix, &new_ix, &changes)?, &expected);

    // Substituted rows at each occurrence, against the current state.
    for k in 0..core.sources.len() {
        let mut rows = Relation::shared(core.occurrence_schema(k).clone());
        for _ in 0..rng.gen_range(1..4) {
            rows.insert_n(tuple(&mut rng, rows.schema().arity()), rng.gen_range(1..=3))?;
        }
        let mut rels = relations(&new, &core);
        rels[k] = &rows;
        let expected = reference_join(&core, &rels)?;
        for db in [&new, &new_ix] {
            let got = eval_join(&core, k, rows.iter_counted(), |_| JoinInput::State(db))?;
            prop_assert_eq!(&got, &expected, "start {}", k);
        }
    }
    Ok(())
}

impl From<EvalError> for TestCaseError {
    fn from(e: EvalError) -> Self {
        TestCaseError::fail(e.to_string())
    }
}

impl From<SchemaError> for TestCaseError {
    fn from(e: SchemaError) -> Self {
        TestCaseError::fail(e.to_string())
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn delta_driven_join_equals_the_left_deep_reference(seed in 0u64..u64::MAX) {
        check(seed)?;
    }

    /// Random commit sequences — deletes to zero, reinserts, over-deletes
    /// — keep every registered index equal to one rebuilt from the rows.
    #[test]
    fn indexes_track_the_rows_through_commit_sequences(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cat = catalog();
        let core = core(&mut rng, &cat);
        let mut db = indexed(&Database::from_catalog(&cat), &core);
        for _ in 0..12 {
            let batch = changes(&mut rng, &cat, &db);
            for (name, d) in &batch {
                db.apply(name, d)?;
                // Undo half the time: every tuple back to zero, then in again.
                if rng.gen_bool(0.5) {
                    db.apply(name, &d.inverse())?;
                    db.apply(name, d)?;
                }
            }
            prop_assert!(indexes_agree(&db, &core));
        }
    }
}

/// A `Null` on either side of an equi conjunct joins nothing, through an
/// index or a per-call table alike — though the index holds the tuple.
#[test]
fn null_keys_never_match() {
    let cat = catalog();
    let core = ViewDef::builder("V")
        .from("R")
        .from("S")
        .join_on("R.b", "S.b")
        .build(&cat)
        .unwrap()
        .core;
    let null_key = Tuple::new(vec![Value::Null, Value::Int(1)]);
    let mut db = Database::from_catalog(&cat);
    db.apply(
        &"S".into(),
        &Delta::from_ops([crate::TupleOp::Insert(null_key)]),
    )
    .unwrap();
    let plain = db.clone();
    db.index_join_columns(&core);
    assert_eq!(
        db.index(&"S".into(), &[0])
            .unwrap()
            .get(&[Value::Null])
            .count(),
        1
    );
    let probe = Tuple::new(vec![Value::Int(7), Value::Null]);
    for provider in [&db, &plain] {
        let joined = eval_join(&core, 0, [(&probe, 1)], |_| JoinInput::State(provider)).unwrap();
        assert!(joined.is_empty());
    }
}

/// The plan of a chain reaches each neighbour through its own key, in
/// both directions, and registers one index per (relation, key).
#[test]
fn chain_plans_probe_by_key_from_either_end() {
    let cat = catalog();
    let core = ViewDef::builder("V")
        .from("R")
        .from("S")
        .from("T")
        .join_on("R.b", "S.b")
        .join_on("S.c", "T.c")
        .build(&cat)
        .unwrap()
        .core;
    let order = |k: usize| -> Vec<(usize, Vec<usize>)> {
        let plan = core.plan(k).unwrap();
        plan.steps.iter().map(|s| (s.occ, s.cols.clone())).collect()
    };
    assert_eq!(order(0), vec![(1, vec![0]), (2, vec![0])]);
    assert_eq!(order(1), vec![(0, vec![1]), (2, vec![0])]);
    assert_eq!(order(2), vec![(1, vec![1]), (0, vec![1])]);
    let mut pairs: Vec<(String, Vec<usize>)> = core
        .join_indexes()
        .map(|(n, c)| (n.to_string(), c.to_vec()))
        .collect();
    pairs.sort();
    pairs.dedup();
    assert_eq!(
        pairs,
        vec![
            ("R".into(), vec![1]),
            ("S".into(), vec![0]),
            ("S".into(), vec![1]),
            ("T".into(), vec![0]),
        ]
    );
}

/// Lends its database's indexes but refuses to fetch: a join over it
/// succeeds only if every probed occurrence goes through an index.
struct IndexOnly<'a>(&'a Database);

impl StateProvider for IndexOnly<'_> {
    fn fetch(&self, _: &RelationName) -> Option<Cow<'_, Relation>> {
        None
    }

    fn index(&self, name: &RelationName, cols: &[usize]) -> Option<&JoinIndex> {
        self.0.index(name, cols)
    }
}

/// Delta queries against indexed state never read a probed relation in
/// full, from any start — and a database without the index does.
#[test]
fn indexed_delta_queries_never_fetch_the_probed_relations() {
    let cat = catalog();
    let core = ViewDef::builder("V")
        .from("R")
        .from("S")
        .from("T")
        .join_on("R.b", "S.b")
        .join_on("S.c", "T.c")
        .build(&cat)
        .unwrap()
        .core;
    let mut rng = StdRng::seed_from_u64(7);
    let db = indexed(&database(&mut rng, &cat), &core);
    let only = IndexOnly(&db);
    for k in 0..3 {
        let t = Tuple::new(vec![Value::Int(1); core.occurrence_schema(k).arity()]);
        let via_index = eval_join(&core, k, [(&t, 1)], |_| JoinInput::State(&only));
        let via_rows = eval_join(&core, k, [(&t, 1)], |_| JoinInput::State(&db));
        assert_eq!(via_index.unwrap(), via_rows.unwrap(), "start {k}");
    }
    let plain = Database::from_catalog(&cat);
    let only = IndexOnly(&plain);
    let t = Tuple::new(vec![Value::Int(1); 2]);
    assert!(matches!(
        eval_join(&core, 0, [(&t, 1)], |_| JoinInput::State(&only)),
        Err(EvalError::MissingRelation(_))
    ));
}
