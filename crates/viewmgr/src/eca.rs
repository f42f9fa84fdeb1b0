//! The ECA-style view manager (the paper's ref \[16\], "View maintenance in
//! a warehousing environment", SIGMOD '95): **complete** maintenance over
//! sources that can only answer *current-state* queries — no MVCC — by
//! eagerly issuing one query per insert and compensating its answer for
//! every update that committed inside the query window.
//!
//! Where [`StrobeVm`](crate::strobe::StrobeVm) batches intertwined updates
//! into one AL (strong consistency), ECA disentangles them and emits one
//! AL per update, in order (completeness). The compensation logic:
//!
//! * an insert `t` into `R` queries `{t} ⋈ S@current`; the answer,
//!   computed at state `sa ≥ si`, may reflect `S`-updates in `(si, sa]`:
//!   later `S`-*inserts* are subtracted (their own queries will count
//!   those joins), later `S`-*deletes* are added back via a local join of
//!   `{t}` with the deleted tuple — provided the tuple already existed at
//!   `si` (the receipt log decides);
//! * deletes never query: the join-level mirror (exactly at state
//!   `s_{i-1}` when update `i` is emitted, because emission is in order)
//!   yields the delta by segment matching.
//!
//! Restrictions (constructor-enforced): exactly two base relations, no
//! self-joins, no aggregates, single-relation updates, set semantics —
//! the setting of the original ECA paper.

use crate::join_mirror::{fetch_sources, occurrence_schema, subtract_segment, JoinMirror};
use crate::protocol::{
    NumberedUpdate, QueryAnswer, QueryRequest, QueryToken, ViewManager, VmError, VmEvent, VmOutput,
};
use mvc_core::{ActionList, ConsistencyLevel, ViewId};
use mvc_relational::{
    eval_join_with, project_delta, Delta, Relation, RelationName, Tuple, TupleOp, ViewDef,
};
use mvc_source::GlobalSeq;
use std::collections::{BTreeMap, VecDeque};

/// One operation of a pending update.
#[derive(Debug)]
enum PendingOp {
    Insert {
        relation: RelationName,
        tuple: Tuple,
        token: QueryToken,
        answer: Option<(Relation, GlobalSeq)>,
    },
    Delete {
        relation: RelationName,
        tuple: Tuple,
    },
}

/// An update awaiting in-order emission.
#[derive(Debug)]
struct Pending {
    numbered: NumberedUpdate,
    ops: Vec<PendingOp>,
}

/// A logged receipt, for compensation decisions.
#[derive(Debug, Clone)]
struct Receipt {
    relation: RelationName,
    tuple: Tuple,
    is_delete: bool,
}

/// ECA view manager.
#[derive(Debug)]
pub struct EcaVm {
    id: ViewId,
    def: ViewDef,
    /// Join-level contents at the state of the last *emitted* AL.
    mirror: JoinMirror,
    /// Updates received, in order, awaiting emission.
    queue: VecDeque<Pending>,
    /// Receipt log for compensation (pruned below the emission frontier).
    log: BTreeMap<GlobalSeq, Vec<Receipt>>,
    next_token: u64,
    emitted: u64,
}

impl EcaVm {
    pub fn new(id: ViewId, def: ViewDef) -> Result<Self, VmError> {
        if def.is_aggregate() {
            return Err(VmError::UnsupportedView(
                id,
                "ECA manages SPJ views; use complete/self-maintaining for aggregates",
            ));
        }
        if def.core.sources.len() != 2 {
            return Err(VmError::UnsupportedView(
                id,
                "ECA supports exactly two base relations (the original setting); \
                 use the complete or self-maintaining manager for other shapes",
            ));
        }
        if def.base_relations().len() != 2 {
            return Err(VmError::UnsupportedView(
                id,
                "ECA does not support self-joins",
            ));
        }
        let mirror = JoinMirror::new(&def.core);
        Ok(EcaVm {
            id,
            def,
            mirror,
            queue: VecDeque::new(),
            log: BTreeMap::new(),
            next_token: 1,
            emitted: 0,
        })
    }

    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    fn occurrence_of(&self, rel: &RelationName) -> usize {
        self.def
            .core
            .sources
            .iter()
            .position(|s| s == rel)
            .expect("relation in view")
    }

    /// Local join of one tuple per occurrence (exact for 2-way joins).
    fn join_pair(&self, rel: &RelationName, t: &Tuple, other: &Tuple) -> Relation {
        let k = self.occurrence_of(rel);
        let mut rels = vec![
            Relation::new(occurrence_schema(&self.def.core, 0)),
            Relation::new(occurrence_schema(&self.def.core, 1)),
        ];
        rels[k].insert(t.clone()).expect("tuple fits occurrence");
        rels[1 - k]
            .insert(other.clone())
            .expect("tuple fits occurrence");
        eval_join_with(&self.def.core, &rels).expect("local pair join")
    }

    /// Emit every head-of-queue update whose answers are all in.
    fn try_emit(&mut self, out: &mut Vec<VmOutput>) -> Result<(), VmError> {
        while let Some(head) = self.queue.front() {
            let ready = head.ops.iter().all(|op| match op {
                PendingOp::Insert { answer, .. } => answer.is_some(),
                PendingOp::Delete { .. } => true,
            });
            if !ready {
                break;
            }
            let head = self.queue.pop_front().expect("checked front");
            let si = head.numbered.seq();
            let mut delta = Delta::new(); // join level
            for op in &head.ops {
                match op {
                    PendingOp::Delete { relation, tuple } => {
                        // mirror ⊕ delta is exactly the pre-op state
                        let k = self.occurrence_of(relation);
                        self.mirror.delete_segment(k, tuple, &mut delta);
                    }
                    PendingOp::Insert {
                        relation,
                        tuple,
                        answer,
                        ..
                    } => {
                        let (mut rows, sa) = answer.clone().expect("ready");
                        // Compensation window for other-relation changes:
                        // the telescoping Δ = Δr0 ⋈ r1_old + r0_new ⋈ Δr1
                        // means an occurrence-0 insert must see r1 at
                        // state si−1 (compensate [si, sa] — including the
                        // transaction's own r1 writes), while an
                        // occurrence-1 insert sees r0 at state si
                        // (compensate (si, sa] only).
                        let lower = if self.occurrence_of(relation) == 0 {
                            std::ops::Bound::Included(si)
                        } else {
                            std::ops::Bound::Excluded(si)
                        };
                        // Group window events per distinct other-relation
                        // tuple: its presence at the op's reference state
                        // is decided by its FIRST window event (a delete
                        // first ⇒ it existed before the window; an insert
                        // first ⇒ it did not). The answer's possibly-stale
                        // segment is removed wholesale and re-derived
                        // locally — order-insensitive even when a tuple is
                        // deleted and re-inserted inside the window.
                        let mut first_event: BTreeMap<Tuple, bool /*is_delete*/> = BTreeMap::new();
                        for (_, rs) in self.log.range((lower, std::ops::Bound::Included(sa))) {
                            for r in rs {
                                if &r.relation == relation {
                                    continue; // substituted occurrence: unaffected
                                }
                                first_event.entry(r.tuple.clone()).or_insert(r.is_delete);
                            }
                        }
                        for (t, was_present_at_ref) in &first_event {
                            // strip whatever the answer says about t…
                            let other_rel = self
                                .def
                                .base_relations()
                                .into_iter()
                                .find(|r| r != relation)
                                .expect("two relations");
                            subtract_segment(
                                &mut rows,
                                self.mirror.offset(self.occurrence_of(&other_rel)),
                                t,
                            );
                            // …and re-derive from the reference state.
                            if *was_present_at_ref {
                                let back = self.join_pair(relation, tuple, t);
                                for (jt, n) in back.iter_counted() {
                                    rows.insert_n(jt.clone(), n)
                                        .map_err(mvc_relational::EvalError::from)?;
                                }
                            }
                        }
                        for (jt, n) in rows.iter_counted() {
                            delta.add(jt.clone(), n as i64);
                        }
                    }
                }
            }
            self.mirror
                .apply(&delta)
                .map_err(mvc_relational::EvalError::from)?;
            let view_delta = project_delta(&self.def.core, &delta)?;
            self.emitted += 1;
            out.push(VmOutput::Action(ActionList::single(
                self.id,
                head.numbered.id,
                view_delta,
            )));
            // Prune receipts at or below the emission frontier.
            self.log = self.log.split_off(&GlobalSeq(si.0 + 1));
        }
        Ok(())
    }
}

impl ViewManager for EcaVm {
    fn id(&self) -> ViewId {
        self.id
    }

    fn def(&self) -> &ViewDef {
        &self.def
    }

    fn level(&self) -> ConsistencyLevel {
        ConsistencyLevel::Complete
    }

    fn handle(&mut self, event: VmEvent) -> Result<Vec<VmOutput>, VmError> {
        let mut out = Vec::new();
        match event {
            VmEvent::Update(u) => {
                let base = self.def.base_relations();
                let seq = u.seq();
                let mut ops = Vec::new();
                for change in &u.update.changes {
                    if !base.contains(&change.relation) {
                        continue;
                    }
                    for top in change.delta.to_ops() {
                        match top {
                            TupleOp::Insert(t) => {
                                let token = QueryToken(self.next_token);
                                self.next_token += 1;
                                let k = self.occurrence_of(&change.relation);
                                let mut rows = Relation::new(occurrence_schema(&self.def.core, k));
                                rows.insert(t.clone())
                                    .map_err(mvc_relational::EvalError::from)?;
                                out.push(VmOutput::Query {
                                    token,
                                    request: QueryRequest::JoinCurrentWith {
                                        core: self.def.core.clone(),
                                        occurrence: k,
                                        rows,
                                    },
                                });
                                self.log.entry(seq).or_default().push(Receipt {
                                    relation: change.relation.clone(),
                                    tuple: t.clone(),
                                    is_delete: false,
                                });
                                ops.push(PendingOp::Insert {
                                    relation: change.relation.clone(),
                                    tuple: t,
                                    token,
                                    answer: None,
                                });
                            }
                            TupleOp::Delete(t) => {
                                self.log.entry(seq).or_default().push(Receipt {
                                    relation: change.relation.clone(),
                                    tuple: t.clone(),
                                    is_delete: true,
                                });
                                ops.push(PendingOp::Delete {
                                    relation: change.relation.clone(),
                                    tuple: t,
                                });
                            }
                        }
                    }
                }
                // Telescoping order: occurrence-0 ops first (Δr0 ⋈ r1_old),
                // then occurrence-1 ops (r0_new ⋈ Δr1). Stable sort keeps
                // delete-before-insert order within each occurrence.
                ops.sort_by_key(|op| match op {
                    PendingOp::Insert { relation, .. } | PendingOp::Delete { relation, .. } => {
                        self.occurrence_of(relation)
                    }
                });
                self.queue.push_back(Pending { numbered: u, ops });
                self.try_emit(&mut out)?;
            }
            VmEvent::Answer { token, answer } => {
                let QueryAnswer::Rows(rows, sa) = answer else {
                    return Err(VmError::AnswerKindMismatch(token));
                };
                let slot = self
                    .queue
                    .iter_mut()
                    .flat_map(|p| p.ops.iter_mut())
                    .find_map(|op| match op {
                        PendingOp::Insert {
                            token: t, answer, ..
                        } if *t == token => Some(answer),
                        _ => None,
                    })
                    .ok_or(VmError::UnknownToken(token))?;
                *slot = Some((rows, sa));
                self.try_emit(&mut out)?;
            }
            VmEvent::Flush => {
                self.try_emit(&mut out)?;
            }
        }
        Ok(out)
    }

    fn initialize(&mut self, provider: &dyn mvc_relational::StateProvider) -> Result<(), VmError> {
        let sources = fetch_sources(&self.def.core, provider)?;
        self.mirror.load(&self.def.core, &sources)?;
        Ok(())
    }

    fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvc_core::UpdateId;
    use mvc_relational::{tuple, Schema};
    use mvc_source::{SourceCluster, SourceId, SourceUpdate, WriteOp};

    fn cluster() -> SourceCluster {
        let mut c = SourceCluster::new(4);
        c.create_relation(SourceId(0), "R", Schema::ints(&["a", "b"]))
            .unwrap();
        c.create_relation(SourceId(1), "S", Schema::ints(&["b", "c"]))
            .unwrap();
        c
    }

    fn view(c: &SourceCluster) -> ViewDef {
        ViewDef::builder("V")
            .from("R")
            .from("S")
            .join_on("R.b", "S.b")
            .project(["R.a", "R.b", "S.c"])
            .build(c.catalog())
            .unwrap()
    }

    fn numbered(u: SourceUpdate) -> NumberedUpdate {
        NumberedUpdate::from_owned(UpdateId(u.seq.0), u)
    }

    fn queries(outs: &[VmOutput]) -> Vec<(QueryToken, QueryRequest)> {
        outs.iter()
            .filter_map(|o| match o {
                VmOutput::Query { token, request } => Some((*token, request.clone())),
                _ => None,
            })
            .collect()
    }

    fn actions(outs: &[VmOutput]) -> Vec<ActionList<Delta>> {
        outs.iter()
            .filter_map(|o| match o {
                VmOutput::Action(al) => Some(al.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn rejects_unsupported_shapes() {
        let c = cluster();
        let three = {
            let mut c2 = SourceCluster::new(4);
            c2.create_relation(SourceId(0), "R", Schema::ints(&["a", "b"]))
                .unwrap();
            c2.create_relation(SourceId(1), "S", Schema::ints(&["b", "c"]))
                .unwrap();
            c2.create_relation(SourceId(2), "T", Schema::ints(&["c", "d"]))
                .unwrap();
            ViewDef::builder("W")
                .from("R")
                .from("S")
                .from("T")
                .join_on("R.b", "S.b")
                .join_on("S.c", "T.c")
                .build(c2.catalog())
                .unwrap()
        };
        assert!(matches!(
            EcaVm::new(ViewId(1), three),
            Err(VmError::UnsupportedView(..))
        ));
        let sj = ViewDef::builder("SJ")
            .from("R")
            .from("R")
            .join_on("R.b", "R#2.a")
            .build(c.catalog())
            .unwrap();
        assert!(matches!(
            EcaVm::new(ViewId(1), sj),
            Err(VmError::UnsupportedView(..))
        ));
    }

    /// The ECA anomaly scenario (ref \[16\]'s motivating example): insert
    /// R\[1,2\], then insert S\[2,3\] before the first query is answered.
    /// The uncompensated answer to Q1 contains the join; ECA must emit
    /// AL1 empty and AL2 with exactly one copy.
    #[test]
    fn eager_compensation_disentangles_per_update() {
        let mut c = cluster();
        let def = view(&c);
        let mut vm = EcaVm::new(ViewId(1), def).unwrap();

        let u1 = c
            .execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 2])])
            .unwrap();
        let o1 = vm.handle(VmEvent::Update(numbered(u1))).unwrap();
        let (t1, q1) = queries(&o1).into_iter().next().unwrap();

        // U2 commits and reaches the VM before Q1's answer.
        let u2 = c
            .execute(SourceId(1), vec![WriteOp::insert("S", tuple![2, 3])])
            .unwrap();
        let o2 = vm.handle(VmEvent::Update(numbered(u2))).unwrap();
        let (t2, q2) = queries(&o2).into_iter().next().unwrap();

        // Both answers computed now (current state has both tuples).
        let a1 = crate::protocol::answer_query(&c, &q1).unwrap();
        let a2 = crate::protocol::answer_query(&c, &q2).unwrap();
        let o = vm
            .handle(VmEvent::Answer {
                token: t1,
                answer: a1,
            })
            .unwrap();
        let als1 = actions(&o);
        assert_eq!(als1.len(), 1, "AL1 emits as soon as Q1 answered");
        assert!(
            als1[0].payload.is_empty(),
            "AL1 compensated empty (S was empty at ss1): {}",
            als1[0].payload
        );
        let o = vm
            .handle(VmEvent::Answer {
                token: t2,
                answer: a2,
            })
            .unwrap();
        let als2 = actions(&o);
        assert_eq!(als2.len(), 1);
        assert_eq!(als2[0].payload.net(&tuple![1, 2, 3]), 1);
        assert!(vm.is_idle());
        assert_eq!(vm.emitted(), 2, "one AL per update — complete");
    }

    /// Delete compensation with add-back: S\[2,3\] exists; insert R\[1,2\]
    /// (query outstanding), then delete S\[2,3\]. Q1's late answer misses
    /// the join; the add-back restores it for AL1, and AL2 removes it —
    /// per-update completeness walks through the intermediate state.
    #[test]
    fn delete_add_back_restores_intermediate_state() {
        let mut c = cluster();
        let def = view(&c);
        let mut vm = EcaVm::new(ViewId(1), def).unwrap();

        // Seed S[2,3] through the pipeline (answered immediately).
        let u0 = c
            .execute(SourceId(1), vec![WriteOp::insert("S", tuple![2, 3])])
            .unwrap();
        let o0 = vm.handle(VmEvent::Update(numbered(u0))).unwrap();
        for (tk, rq) in queries(&o0) {
            let a = crate::protocol::answer_query(&c, &rq).unwrap();
            vm.handle(VmEvent::Answer {
                token: tk,
                answer: a,
            })
            .unwrap();
        }
        assert!(vm.is_idle());

        // U1: insert R[1,2]; query NOT answered yet.
        let u1 = c
            .execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 2])])
            .unwrap();
        let o1 = vm.handle(VmEvent::Update(numbered(u1))).unwrap();
        let (t1, q1) = queries(&o1).into_iter().next().unwrap();

        // U2: delete S[2,3]; no query needed.
        let u2 = c
            .execute(SourceId(1), vec![WriteOp::delete("S", tuple![2, 3])])
            .unwrap();
        assert!(actions(&vm.handle(VmEvent::Update(numbered(u2))).unwrap()).is_empty());

        // Late answer: computed after the delete → misses the join.
        let a1 = crate::protocol::answer_query(&c, &q1).unwrap();
        let o = vm
            .handle(VmEvent::Answer {
                token: t1,
                answer: a1,
            })
            .unwrap();
        let als = actions(&o);
        assert_eq!(als.len(), 2, "AL1 and then AL2 both emit");
        assert_eq!(
            als[0].payload.net(&tuple![1, 2, 3]),
            1,
            "AL1 adds the join (it existed at ss2): {}",
            als[0].payload
        );
        assert_eq!(
            als[1].payload.net(&tuple![1, 2, 3]),
            -1,
            "AL2 removes it again"
        );
        assert!(vm.is_idle());
    }

    /// A tuple inserted AND deleted entirely within the query window must
    /// not be added back (it did not exist at si).
    #[test]
    fn no_add_back_for_tuples_born_in_window() {
        let mut c = cluster();
        let def = view(&c);
        let mut vm = EcaVm::new(ViewId(1), def).unwrap();

        let u1 = c
            .execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 2])])
            .unwrap();
        let o1 = vm.handle(VmEvent::Update(numbered(u1))).unwrap();
        let (t1, q1) = queries(&o1).into_iter().next().unwrap();

        // S[2,3] born and killed within the window.
        let u2 = c
            .execute(SourceId(1), vec![WriteOp::insert("S", tuple![2, 3])])
            .unwrap();
        let o2 = vm.handle(VmEvent::Update(numbered(u2))).unwrap();
        let (t2, q2) = queries(&o2).into_iter().next().unwrap();
        let u3 = c
            .execute(SourceId(1), vec![WriteOp::delete("S", tuple![2, 3])])
            .unwrap();
        vm.handle(VmEvent::Update(numbered(u3))).unwrap();

        let a1 = crate::protocol::answer_query(&c, &q1).unwrap();
        let a2 = crate::protocol::answer_query(&c, &q2).unwrap();
        let o = vm
            .handle(VmEvent::Answer {
                token: t1,
                answer: a1,
            })
            .unwrap();
        let als1 = actions(&o);
        assert_eq!(als1.len(), 1);
        assert!(
            als1[0].payload.is_empty(),
            "S[2,3] did not exist at ss1: {}",
            als1[0].payload
        );
        let o = vm
            .handle(VmEvent::Answer {
                token: t2,
                answer: a2,
            })
            .unwrap();
        let als = actions(&o);
        assert_eq!(als.len(), 2, "AL2 (+join) and AL3 (−join)");
        assert_eq!(als[0].payload.net(&tuple![1, 2, 3]), 1);
        assert_eq!(als[1].payload.net(&tuple![1, 2, 3]), -1);
        assert!(vm.is_idle());
    }

    #[test]
    fn emission_strictly_in_update_order() {
        let mut c = cluster();
        let def = view(&c);
        let mut vm = EcaVm::new(ViewId(1), def).unwrap();
        let u1 = c
            .execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 2])])
            .unwrap();
        let o1 = vm.handle(VmEvent::Update(numbered(u1))).unwrap();
        let (t1, q1) = queries(&o1).into_iter().next().unwrap();
        let u2 = c
            .execute(SourceId(0), vec![WriteOp::insert("R", tuple![9, 9])])
            .unwrap();
        let o2 = vm.handle(VmEvent::Update(numbered(u2))).unwrap();
        let (t2, q2) = queries(&o2).into_iter().next().unwrap();
        // Answer U2's query first: nothing may emit (order!).
        let a2 = crate::protocol::answer_query(&c, &q2).unwrap();
        assert!(actions(
            &vm.handle(VmEvent::Answer {
                token: t2,
                answer: a2
            })
            .unwrap()
        )
        .is_empty());
        // Answering U1 releases both, in order.
        let a1 = crate::protocol::answer_query(&c, &q1).unwrap();
        let als = actions(
            &vm.handle(VmEvent::Answer {
                token: t1,
                answer: a1,
            })
            .unwrap(),
        );
        assert_eq!(als.len(), 2);
        assert_eq!(als[0].last, UpdateId(1));
        assert_eq!(als[1].last, UpdateId(2));
    }
}
