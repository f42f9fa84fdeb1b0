//! Property tests for the source cluster: MVCC as-of reconstruction
//! equals naive replay at every prefix, for random transaction streams
//! and any checkpoint interval.

use mvc_relational::{tuple, Database, Relation, Schema, Tuple};
use mvc_source::{GlobalSeq, SourceCluster, SourceId, WriteOp};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(usize, Tuple),
    DeleteLive(usize, usize), // relation, index into live list (mod len)
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            ((0usize..2), (0i64..5), (0i64..5)).prop_map(|(r, a, b)| Op::Insert(r, tuple![a, b])),
            ((0usize..2), (0usize..64)).prop_map(|(r, i)| Op::DeleteLive(r, i)),
        ],
        1..60,
    )
}

fn rel_name(i: usize) -> &'static str {
    ["R", "S"][i]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn asof_equals_replay(ops in ops(), checkpoint in 1usize..9) {
        let mut c = SourceCluster::new(checkpoint);
        c.create_relation(SourceId(0), "R", Schema::ints(&["a", "b"])).unwrap();
        c.create_relation(SourceId(1), "S", Schema::ints(&["b", "c"])).unwrap();
        let mut live: Vec<Vec<Tuple>> = vec![Vec::new(), Vec::new()];
        // executed transactions (may be fewer than ops: deletes on empty
        // relations are skipped)
        for op in ops {
            match op {
                Op::Insert(r, t) => {
                    if live[r].contains(&t) {
                        continue; // keep set semantics for simplicity
                    }
                    c.execute(SourceId(r as u32), vec![WriteOp::insert(rel_name(r), t.clone())])
                        .unwrap();
                    live[r].push(t);
                }
                Op::DeleteLive(r, i) => {
                    if live[r].is_empty() {
                        continue;
                    }
                    let len = live[r].len();
                    let t = live[r].remove(i % len);
                    c.execute(SourceId(r as u32), vec![WriteOp::delete(rel_name(r), t)])
                        .unwrap();
                }
            }
        }

        // replay history over an empty database, checking as-of at every
        // prefix
        let mut replay = Database::new();
        replay.insert_relation("R", Relation::new(Schema::ints(&["a", "b"])));
        replay.insert_relation("S", Relation::new(Schema::ints(&["b", "c"])));
        prop_assert!(c
            .relation_as_of(&"R".into(), GlobalSeq::INITIAL)
            .unwrap()
            .is_empty());
        for u in c.history() {
            for ch in &u.changes {
                ch.delta
                    .apply_to(&mut replay.relation_mut(&ch.relation).unwrap())
                    .unwrap();
            }
            for name in ["R", "S"] {
                prop_assert_eq!(
                    replay.relation(&name.into()).unwrap(),
                    &c.relation_as_of(&name.into(), u.seq).unwrap(),
                    "as-of mismatch at {} for {}", u.seq, name
                );
            }
        }
        // current state equals the last as-of
        for name in ["R", "S"] {
            prop_assert_eq!(
                c.relation_current(&name.into()).unwrap(),
                &c.relation_as_of(&name.into(), c.latest_seq()).unwrap()
            );
        }
    }

    /// Checkpoint interval is an implementation detail: reconstructions
    /// are identical regardless of interval.
    #[test]
    fn checkpoint_interval_invisible(ops in ops()) {
        let build = |interval: usize| {
            let mut c = SourceCluster::new(interval);
            c.create_relation(SourceId(0), "R", Schema::ints(&["a", "b"])).unwrap();
            c.create_relation(SourceId(1), "S", Schema::ints(&["b", "c"])).unwrap();
            let mut live: Vec<Vec<Tuple>> = vec![Vec::new(), Vec::new()];
            for op in &ops {
                match op {
                    Op::Insert(r, t) => {
                        if live[*r].contains(t) { continue; }
                        c.execute(SourceId(*r as u32), vec![WriteOp::insert(rel_name(*r), t.clone())]).unwrap();
                        live[*r].push(t.clone());
                    }
                    Op::DeleteLive(r, i) => {
                        if live[*r].is_empty() { continue; }
                        let len = live[*r].len();
                        let t = live[*r].remove(i % len);
                        c.execute(SourceId(*r as u32), vec![WriteOp::delete(rel_name(*r), t)]).unwrap();
                    }
                }
            }
            c
        };
        let c1 = build(1);
        let c2 = build(7);
        prop_assert_eq!(c1.latest_seq(), c2.latest_seq());
        for seq in 0..=c1.latest_seq().0 {
            for name in ["R", "S"] {
                prop_assert_eq!(
                    c1.relation_as_of(&name.into(), GlobalSeq(seq)),
                    c2.relation_as_of(&name.into(), GlobalSeq(seq))
                );
            }
        }
    }
}
