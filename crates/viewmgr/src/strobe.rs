//! The Strobe-style strongly consistent view manager (the paper's ref
//! \[17\], reproduced in the form §5 relies on).
//!
//! Unlike the complete manager, Strobe queries the sources at their
//! **current** state — the realistic mode for autonomous sources without
//! MVCC support. Current-state answers may include the effects of updates
//! that committed after the one being processed (*intertwining*, §1
//! problem 3). Strobe stays correct by:
//!
//! * keeping its mirror at the **join level** (pre-projection), so base
//!   tuple deletes apply locally by segment matching, with no query;
//! * registering every update that arrives while a query is outstanding as
//!   a **compensation** against that query: on answer, contributions of
//!   later-committed inserts (which the answer may double count — the
//!   inserting update issues its own query) and of deletes (whose joins
//!   must not survive the batch) are subtracted by segment;
//! * emitting one action list only at **quiescence** (empty unanswered
//!   query set), covering the whole intertwined batch — which is exactly
//!   the batched `AL^x_j` shape the Painting Algorithm coordinates.
//!
//! Every `handle` costs what the batch it works on costs, never what the
//! mirror or the unanswered query set hold:
//!
//! * the mirror is a `JoinMirror` (`join_mirror.rs`): a base-tuple delete
//!   finds its join tuples through the per-occurrence segment index plus
//!   a scan of `pending`;
//! * compensations go once into one log per manager; a query remembers the
//!   log length at its issue and reads the suffix from there — the same
//!   entries in the same order as a private copy per query. The log is
//!   dropped whenever the UQS empties;
//! * emit walks `pending` once. **Invariant:** every mirror multiplicity
//!   is 1 (sources are sets, so a join tuple has one derivation), hence
//!   per touched tuple `new = min(max(old + net, 0), 1)` and the emitted
//!   join delta is `new − old`; nothing else in the mirror can change.
//!
//! Restrictions: SPJ views only (no aggregates — use the complete or
//! periodic manager for those) and no self-joins, refused at construction;
//! set semantics at the sources (single-copy tuples), refused at
//! [`initialize`](ViewManager::initialize) for the load state and assumed
//! of the update stream — the standard Strobe assumptions.

use crate::join_mirror::{fetch_sources, subtract_segment, JoinMirror};
use crate::protocol::{
    QueryAnswer, QueryRequest, QueryToken, ViewManager, VmError, VmEvent, VmOutput,
};
use mvc_core::{ActionList, ConsistencyLevel, UpdateId, ViewId};
use mvc_relational::{project_delta, Delta, EvalError, Relation, RelationName, Tuple, ViewDef};
use mvc_source::GlobalSeq;
use std::collections::BTreeMap;

/// A compensation entry: an update-caused change that must be subtracted
/// from the answers of the queries outstanding when it arrived.
#[derive(Debug, Clone)]
struct Compensation {
    /// Source occurrence the changed relation fills.
    occurrence: usize,
    tuple: Tuple,
    seq: GlobalSeq,
    is_delete: bool,
}

/// An outstanding Strobe insert query.
#[derive(Debug, Clone)]
struct PendingQuery {
    /// Commit seq of the update this query serves — the state the answer
    /// is *supposed* to reflect.
    as_if: GlobalSeq,
    /// Length of the compensation log when the query was issued: its
    /// compensations are `log[log_from..]`.
    log_from: usize,
}

/// Strobe view manager.
#[derive(Debug)]
pub struct StrobeVm {
    id: ViewId,
    def: ViewDef,
    /// Join-level contents as of the last emitted AL.
    mirror: JoinMirror,
    /// Join-level delta accumulated for the current batch.
    pending: Delta,
    /// Update ids covered by the current batch.
    batch_first: Option<UpdateId>,
    batch_last: UpdateId,
    /// Unanswered query set (UQS).
    uqs: BTreeMap<QueryToken, PendingQuery>,
    /// Changes received while the UQS was non-empty, in arrival order;
    /// empty whenever the UQS is.
    log: Vec<Compensation>,
    next_token: u64,
    /// Batches emitted (stats).
    emitted: u64,
}

impl StrobeVm {
    pub fn new(id: ViewId, def: ViewDef) -> Result<Self, VmError> {
        if def.is_aggregate() {
            return Err(VmError::UnsupportedView(
                id,
                "Strobe manages SPJ views; use the complete or periodic manager for aggregates",
            ));
        }
        let distinct = def.base_relations().len();
        if distinct != def.core.sources.len() {
            return Err(VmError::UnsupportedView(
                id,
                "Strobe does not support self-joins (a relation occurs twice)",
            ));
        }
        let mirror = JoinMirror::new(&def.core);
        Ok(StrobeVm {
            id,
            def,
            mirror,
            pending: Delta::new(),
            batch_first: None,
            batch_last: UpdateId::ZERO,
            uqs: BTreeMap::new(),
            log: Vec::new(),
            next_token: 1,
            emitted: 0,
        })
    }

    /// Join-level view of the last emitted state plus the pending batch
    /// (diagnostics/tests; copies the mirror).
    pub fn effective_join(&self) -> Relation {
        let mut r = self.mirror.rows().clone();
        self.pending.apply_to(&mut r).expect("pending applies");
        r
    }

    /// Count of emitted (batched) action lists.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Occurrence index of a relation in the core (unique — no self-joins).
    fn occurrence_of(&self, rel: &RelationName) -> Option<usize> {
        self.def.core.sources.iter().position(|s| s == rel)
    }

    /// Register a change against every outstanding query: one log entry,
    /// which each of them reaches through its `log_from`.
    fn compensate(&mut self, occurrence: usize, tuple: &Tuple, seq: GlobalSeq, is_delete: bool) {
        if !self.uqs.is_empty() {
            self.log.push(Compensation {
                occurrence,
                tuple: tuple.clone(),
                seq,
                is_delete,
            });
        }
    }

    fn try_emit(&mut self, out: &mut Vec<VmOutput>) -> Result<(), VmError> {
        if !self.uqs.is_empty() {
            return Ok(());
        }
        let Some(first) = self.batch_first.take() else {
            return Ok(());
        };
        let last = self.batch_last;
        // Key-based (set-semantics) apply, as in Strobe: an insert query
        // whose answer arrived before the inserting update was even seen
        // by this manager double counts a join tuple; since base relations
        // are sets, a join-level multiplicity above 1 can only be such a
        // double count, so the target state clamps every multiplicity to 1
        // (and deletes clamp at 0). Only tuples `pending` names can move.
        let mut join_delta = Delta::new();
        for (t, net) in self.pending.iter() {
            let old = self.mirror.rows().multiplicity(t) as i64;
            join_delta.add(t.clone(), (old + net).clamp(0, 1) - old);
        }
        let view_delta = project_delta(&self.def.core, &join_delta)?;
        self.mirror.apply(&join_delta).map_err(EvalError::from)?;
        self.pending = Delta::new();
        self.emitted += 1;
        out.push(VmOutput::Action(ActionList::batch(
            self.id, first, last, view_delta,
        )));
        Ok(())
    }
}

impl ViewManager for StrobeVm {
    fn id(&self) -> ViewId {
        self.id
    }

    fn def(&self) -> &ViewDef {
        &self.def
    }

    fn level(&self) -> ConsistencyLevel {
        ConsistencyLevel::Strong
    }

    fn handle(&mut self, event: VmEvent) -> Result<Vec<VmOutput>, VmError> {
        let mut out = Vec::new();
        match event {
            VmEvent::Update(u) => {
                if self.batch_first.is_none() {
                    self.batch_first = Some(u.id);
                }
                self.batch_last = u.id;
                let seq = u.seq();
                for change in &u.update.changes {
                    let Some(k) = self.occurrence_of(&change.relation) else {
                        continue;
                    };
                    for (t, n) in change.delta.iter() {
                        // Either way: first a compensation against every
                        // query already outstanding.
                        self.compensate(k, t, seq, n < 0);
                        if n > 0 {
                            // Insert: query the sources.
                            let mut rows = self.mirror.occurrence_relation(k);
                            rows.insert_n(t.clone(), n as u64)
                                .map_err(EvalError::from)?;
                            let token = QueryToken(self.next_token);
                            self.next_token += 1;
                            self.uqs.insert(
                                token,
                                PendingQuery {
                                    as_if: seq,
                                    log_from: self.log.len(),
                                },
                            );
                            out.push(VmOutput::Query {
                                token,
                                request: QueryRequest::JoinCurrentWith {
                                    core: self.def.core.clone(),
                                    occurrence: k,
                                    rows,
                                },
                            });
                        } else {
                            // Delete: local segment removal.
                            self.mirror.delete_segment(k, t, &mut self.pending);
                        }
                    }
                }
                self.try_emit(&mut out)?;
            }
            VmEvent::Answer { token, answer } => {
                let Some(pq) = self.uqs.remove(&token) else {
                    return Err(VmError::UnknownToken(token));
                };
                let QueryAnswer::Rows(mut rows, answered_at) = answer else {
                    return Err(VmError::AnswerKindMismatch(token));
                };
                for comp in &self.log[pq.log_from..] {
                    // Later inserts are double counted only when the answer
                    // actually saw them; deletes are subtracted always —
                    // their joins must not survive the batch.
                    if comp.is_delete || (comp.seq > pq.as_if && comp.seq <= answered_at) {
                        subtract_segment(
                            &mut rows,
                            self.mirror.offset(comp.occurrence),
                            &comp.tuple,
                        );
                    }
                }
                if self.uqs.is_empty() {
                    self.log.clear();
                }
                for (t, n) in rows.iter_counted() {
                    self.pending.add(t.clone(), n as i64);
                }
                self.try_emit(&mut out)?;
            }
            VmEvent::Flush => {
                self.try_emit(&mut out)?;
            }
        }
        Ok(out)
    }

    fn initialize(&mut self, provider: &dyn mvc_relational::StateProvider) -> Result<(), VmError> {
        // join-level mirror = pre-projection contents at the load state
        let sources = fetch_sources(&self.def.core, provider)?;
        if sources.iter().any(|r| r.len() != r.distinct_len() as u64) {
            return Err(VmError::UnsupportedView(
                self.id,
                "Strobe requires set semantics at the sources (a base tuple is duplicated in the load state)",
            ));
        }
        self.mirror.load(&self.def.core, &sources)?;
        Ok(())
    }

    fn is_idle(&self) -> bool {
        self.uqs.is_empty() && self.batch_first.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::NumberedUpdate;
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
        ViewDef::builder("V1")
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

    fn take_queries(outs: &[VmOutput]) -> Vec<(QueryToken, QueryRequest)> {
        outs.iter()
            .filter_map(|o| match o {
                VmOutput::Query { token, request } => Some((*token, request.clone())),
                _ => None,
            })
            .collect()
    }

    fn take_actions(outs: &[VmOutput]) -> Vec<ActionList<Delta>> {
        outs.iter()
            .filter_map(|o| match o {
                VmOutput::Action(al) => Some(al.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn rejects_aggregates_and_self_joins() {
        use mvc_relational::{AggFunc, Expr};
        let c = cluster();
        let agg = ViewDef::builder("A")
            .from("R")
            .group_by(Expr::named("a"))
            .aggregate(AggFunc::Count, Expr::True, "n")
            .build(c.catalog())
            .unwrap();
        assert!(matches!(
            StrobeVm::new(ViewId(1), agg),
            Err(VmError::UnsupportedView(..))
        ));
        let selfjoin = ViewDef::builder("SJ")
            .from("R")
            .from("R")
            .join_on("R.b", "R#2.a")
            .build(c.catalog())
            .unwrap();
        assert!(matches!(
            StrobeVm::new(ViewId(1), selfjoin),
            Err(VmError::UnsupportedView(..))
        ));
    }

    /// No intertwining: one insert, query answered immediately → one
    /// single-update AL with the right delta.
    #[test]
    fn simple_insert_round_trip() {
        let mut c = cluster();
        c.execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 2])])
            .unwrap();
        let def = view(&c);
        let mut vm = StrobeVm::new(ViewId(1), def).unwrap();
        let u = c
            .execute(SourceId(1), vec![WriteOp::insert("S", tuple![2, 3])])
            .unwrap();
        let outs = vm.handle(VmEvent::Update(numbered(u))).unwrap();
        let queries = take_queries(&outs);
        assert_eq!(queries.len(), 1);
        let (token, req) = queries.into_iter().next().unwrap();
        let answer = crate::protocol::answer_query(&c, &req).unwrap();
        let outs = vm.handle(VmEvent::Answer { token, answer }).unwrap();
        let actions = take_actions(&outs);
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].payload.net(&tuple![1, 2, 3]), 1);
        assert!(vm.is_idle());
    }

    /// The double-counting anomaly: R-insert and S-insert whose queries
    /// both see the other side. Compensation must remove the duplicate and
    /// the emitted batch AL must contain the join row exactly once.
    #[test]
    fn insert_insert_double_count_compensated() {
        let mut c = cluster();
        let def = view(&c);
        let mut vm = StrobeVm::new(ViewId(1), def).unwrap();

        // U1: insert R[1,2]; query issued but NOT answered yet.
        let u1 = c
            .execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 2])])
            .unwrap();
        let outs1 = vm.handle(VmEvent::Update(numbered(u1))).unwrap();
        let (t1, q1) = take_queries(&outs1).into_iter().next().unwrap();

        // U2 commits: insert S[2,3]; its query also issued.
        let u2 = c
            .execute(SourceId(1), vec![WriteOp::insert("S", tuple![2, 3])])
            .unwrap();
        let outs2 = vm.handle(VmEvent::Update(numbered(u2))).unwrap();
        let (t2, q2) = take_queries(&outs2).into_iter().next().unwrap();

        // Both answers computed at the current state (both tuples in).
        let a1 = crate::protocol::answer_query(&c, &q1).unwrap();
        let a2 = crate::protocol::answer_query(&c, &q2).unwrap();
        // Answer order: q1 first, then q2; emission at quiescence.
        assert!(take_actions(
            &vm.handle(VmEvent::Answer {
                token: t1,
                answer: a1
            })
            .unwrap()
        )
        .is_empty());
        let outs = vm
            .handle(VmEvent::Answer {
                token: t2,
                answer: a2,
            })
            .unwrap();
        let actions = take_actions(&outs);
        assert_eq!(actions.len(), 1, "one batched AL at quiescence");
        let al = &actions[0];
        assert!(al.is_batched());
        assert_eq!(al.first, UpdateId(1));
        assert_eq!(al.last, UpdateId(2));
        assert_eq!(
            al.payload.net(&tuple![1, 2, 3]),
            1,
            "exactly one copy despite both queries seeing the join: {}",
            al.payload
        );
    }

    /// Insert followed by delete of a joining tuple while the insert's
    /// query is outstanding: the delete's compensation must strip the
    /// stale join from the late answer.
    #[test]
    fn pending_delete_compensates_late_answer() {
        let mut c = cluster();
        // S starts with [2,3] via a pre-view transaction processed first.
        let u0 = c
            .execute(SourceId(1), vec![WriteOp::insert("S", tuple![2, 3])])
            .unwrap();
        let def = view(&c);
        let mut vm = StrobeVm::new(ViewId(1), def).unwrap();
        // Feed U0 (S insert) and answer it immediately.
        let outs = vm.handle(VmEvent::Update(numbered(u0))).unwrap();
        for (tk, rq) in take_queries(&outs) {
            let ans = crate::protocol::answer_query(&c, &rq).unwrap();
            vm.handle(VmEvent::Answer {
                token: tk,
                answer: ans,
            })
            .unwrap();
        }
        assert!(vm.is_idle());

        // U1: insert R[1,2] — query outstanding.
        let u1 = c
            .execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 2])])
            .unwrap();
        let outs1 = vm.handle(VmEvent::Update(numbered(u1))).unwrap();
        let (t1, q1) = take_queries(&outs1).into_iter().next().unwrap();

        // U2: delete S[2,3] commits and reaches the VM before the answer.
        let u2 = c
            .execute(SourceId(1), vec![WriteOp::delete("S", tuple![2, 3])])
            .unwrap();
        assert!(take_actions(&vm.handle(VmEvent::Update(numbered(u2))).unwrap()).is_empty());

        // The late answer is computed *now* — after the delete — so it is
        // already empty; compensation must keep that consistent.
        let a1 = crate::protocol::answer_query(&c, &q1).unwrap();
        let outs = vm
            .handle(VmEvent::Answer {
                token: t1,
                answer: a1,
            })
            .unwrap();
        let actions = take_actions(&outs);
        assert_eq!(actions.len(), 1);
        assert!(
            actions[0].payload.is_empty(),
            "join born and killed within the batch nets to nothing: {}",
            actions[0].payload
        );
        assert!(vm.is_idle());
    }

    /// Deletes need no query: a delete-only update emits immediately when
    /// no queries are outstanding.
    #[test]
    fn delete_only_update_emits_without_query() {
        let mut c = cluster();
        let u_r = c
            .execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 2])])
            .unwrap();
        let u_s = c
            .execute(SourceId(1), vec![WriteOp::insert("S", tuple![2, 3])])
            .unwrap();
        let def = view(&c);
        let mut vm = StrobeVm::new(ViewId(1), def).unwrap();
        for u in [u_r, u_s] {
            let outs = vm.handle(VmEvent::Update(numbered(u))).unwrap();
            for (tk, rq) in take_queries(&outs) {
                let ans = crate::protocol::answer_query(&c, &rq).unwrap();
                vm.handle(VmEvent::Answer {
                    token: tk,
                    answer: ans,
                })
                .unwrap();
            }
        }
        assert!(vm.effective_join().len() == 1);

        let u3 = c
            .execute(SourceId(0), vec![WriteOp::delete("R", tuple![1, 2])])
            .unwrap();
        let outs = vm.handle(VmEvent::Update(numbered(u3))).unwrap();
        assert!(take_queries(&outs).is_empty(), "no query for deletes");
        let actions = take_actions(&outs);
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].payload.net(&tuple![1, 2, 3]), -1);
    }

    #[test]
    fn flush_is_noop_while_queries_outstanding() {
        let mut c = cluster();
        let def = view(&c);
        let mut vm = StrobeVm::new(ViewId(1), def).unwrap();
        let u1 = c
            .execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 2])])
            .unwrap();
        vm.handle(VmEvent::Update(numbered(u1))).unwrap();
        let outs = vm.handle(VmEvent::Flush).unwrap();
        assert!(outs.is_empty(), "cannot emit with UQS non-empty");
        assert!(!vm.is_idle());
    }

    /// The load state must be a set: a duplicated base tuple would give
    /// the mirror a multiplicity of 2, which the first emit — whatever its
    /// batch — would "repair" with a `−1` the sources never made.
    #[test]
    fn initialize_refuses_a_duplicated_base_tuple() {
        let mut c = cluster();
        for _ in 0..2 {
            c.execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 2])])
                .unwrap();
        }
        c.execute(SourceId(1), vec![WriteOp::insert("S", tuple![2, 3])])
            .unwrap();
        let mut vm = StrobeVm::new(ViewId(1), view(&c)).unwrap();
        let err = vm.initialize(&c.as_of(c.latest_seq())).unwrap_err();
        assert!(
            matches!(err, VmError::UnsupportedView(ViewId(1), why) if why.contains("set semantics")),
            "{err}"
        );
        assert!(vm.effective_join().is_empty(), "nothing loaded");

        // One copy fewer and the same view loads, indexed.
        c.execute(SourceId(0), vec![WriteOp::delete("R", tuple![1, 2])])
            .unwrap();
        vm.initialize(&c.as_of(c.latest_seq())).unwrap();
        assert_eq!(vm.effective_join().to_tuples(), vec![tuple![1, 2, 2, 3]]);
        assert!(vm.mirror.index_agrees());
    }

    /// A query reads the compensation log from the offset it was issued
    /// at: a delete registered *before* it must not touch its answer, even
    /// though an older query still needs that entry.
    #[test]
    fn query_sees_exactly_the_compensations_after_it() {
        let mut c = cluster();
        c.execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 2])])
            .unwrap();
        c.execute(SourceId(1), vec![WriteOp::insert("S", tuple![2, 3])])
            .unwrap();
        let mut vm = StrobeVm::new(ViewId(1), view(&c)).unwrap();
        vm.initialize(&c.as_of(c.latest_seq())).unwrap();
        let deliver = |vm: &mut StrobeVm, c: &mut SourceCluster, s: u32, w: WriteOp| {
            let u = c.execute(SourceId(s), vec![w]).unwrap();
            take_queries(&vm.handle(VmEvent::Update(numbered(u))).unwrap())
        };

        // Q1 stays outstanding for the whole burst.
        let (t1, q1) = deliver(&mut vm, &mut c, 0, WriteOp::insert("R", tuple![9, 9]))
            .pop()
            .unwrap();
        assert!(vm.log.is_empty(), "nothing outstanding before Q1");
        // A: S[2,3] goes (registered for Q1) … B: and comes back, with Q3.
        deliver(&mut vm, &mut c, 1, WriteOp::delete("S", tuple![2, 3]));
        let (t3, q3) = deliver(&mut vm, &mut c, 1, WriteOp::insert("S", tuple![2, 3]))
            .pop()
            .unwrap();
        // C: registered for both.
        let (t4, q4) = deliver(&mut vm, &mut c, 0, WriteOp::insert("R", tuple![7, 7]))
            .pop()
            .unwrap();
        let seen = |vm: &StrobeVm, t: &QueryToken| -> Vec<(Tuple, bool)> {
            vm.log[vm.uqs[t].log_from..]
                .iter()
                .map(|comp| (comp.tuple.clone(), comp.is_delete))
                .collect()
        };
        assert_eq!(
            seen(&vm, &t1),
            vec![
                (tuple![2, 3], true),
                (tuple![2, 3], false),
                (tuple![7, 7], false)
            ]
        );
        assert_eq!(seen(&vm, &t3), vec![(tuple![7, 7], false)]);
        assert_eq!(seen(&vm, &t4), vec![]);

        // Q3's answer holds [1,2,2,3]; read from offset 0 it would lose it
        // to A and the batch would delete a join the sources still have.
        let mut actions = Vec::new();
        for (token, request) in [(t3, q3), (t4, q4), (t1, q1)] {
            assert!(!vm.log.is_empty(), "{token} still reads it");
            let answer = crate::protocol::answer_query(&c, &request).unwrap();
            let outs = vm.handle(VmEvent::Answer { token, answer }).unwrap();
            actions.extend(take_actions(&outs));
        }
        assert_eq!(actions.len(), 1);
        assert!(
            actions[0].payload.is_empty(),
            "deleted and re-inserted within the batch: {}",
            actions[0].payload
        );
        assert!(vm.effective_join().contains(&tuple![1, 2, 2, 3]));
        assert!(vm.is_idle());
        assert!(vm.log.is_empty(), "log dropped at quiescence");
    }

    /// The parent's algorithm as the executable specification of
    /// [`StrobeVm`]: a private compensation list per query, deletes that
    /// clone and scan mirror ⊕ pending, and an emit that rebuilds the whole
    /// clamped mirror and diffs it against the old one.
    struct ReferenceStrobe {
        id: ViewId,
        def: ViewDef,
        mirror: Relation,
        pending: Delta,
        batch_first: Option<UpdateId>,
        batch_last: UpdateId,
        uqs: BTreeMap<QueryToken, (GlobalSeq, Vec<Compensation>)>,
        next_token: u64,
    }

    impl ReferenceStrobe {
        fn new(id: ViewId, def: ViewDef, provider: &dyn mvc_relational::StateProvider) -> Self {
            let sources = fetch_sources(&def.core, provider).unwrap();
            ReferenceStrobe {
                id,
                mirror: mvc_relational::eval_join(&def.core, 0, sources[0].iter_counted(), |m| {
                    mvc_relational::JoinInput::Rows(&sources[m])
                })
                .unwrap(),
                def,
                pending: Delta::new(),
                batch_first: None,
                batch_last: UpdateId::ZERO,
                uqs: BTreeMap::new(),
                next_token: 1,
            }
        }

        fn effective_join(&self) -> Relation {
            let mut r = self.mirror.clone();
            self.pending.apply_to(&mut r).unwrap();
            r
        }

        fn is_idle(&self) -> bool {
            self.uqs.is_empty() && self.batch_first.is_none()
        }

        fn try_emit(&mut self, out: &mut Vec<VmOutput>) {
            if !self.uqs.is_empty() {
                return;
            }
            let Some(first) = self.batch_first.take() else {
                return;
            };
            let mut clamped = Relation::new(self.mirror.schema().clone());
            for (t, _) in self.effective_join().iter_counted() {
                clamped.insert(t.clone()).unwrap();
            }
            let join_delta = mvc_relational::diff(&self.mirror, &clamped);
            let view_delta = project_delta(&self.def.core, &join_delta).unwrap();
            self.mirror = clamped;
            self.pending = Delta::new();
            out.push(VmOutput::Action(ActionList::batch(
                self.id,
                first,
                self.batch_last,
                view_delta,
            )));
        }

        fn handle(&mut self, event: VmEvent) -> Vec<VmOutput> {
            let mut out = Vec::new();
            match event {
                VmEvent::Update(u) => {
                    self.batch_first.get_or_insert(u.id);
                    self.batch_last = u.id;
                    let seq = u.seq();
                    for change in &u.update.changes {
                        let sources = &self.def.core.sources;
                        let Some(k) = sources.iter().position(|s| *s == change.relation) else {
                            continue;
                        };
                        let lo = self.def.core.offsets[k];
                        for (t, n) in change.delta.iter() {
                            for (_, comps) in self.uqs.values_mut() {
                                comps.push(Compensation {
                                    occurrence: k,
                                    tuple: t.clone(),
                                    seq,
                                    is_delete: n < 0,
                                });
                            }
                            if n > 0 {
                                let mut rows =
                                    Relation::shared(self.def.core.occurrence_schema(k).clone());
                                rows.insert_n(t.clone(), n as u64).unwrap();
                                let token = QueryToken(self.next_token);
                                self.next_token += 1;
                                self.uqs.insert(token, (seq, Vec::new()));
                                out.push(VmOutput::Query {
                                    token,
                                    request: QueryRequest::JoinCurrentWith {
                                        core: self.def.core.clone(),
                                        occurrence: k,
                                        rows,
                                    },
                                });
                            } else {
                                for (jt, held) in self.effective_join().iter_counted() {
                                    if jt.values()[lo..lo + t.arity()] == *t.values() {
                                        self.pending.add(jt.clone(), -(held as i64));
                                    }
                                }
                            }
                        }
                    }
                }
                VmEvent::Answer { token, answer } => {
                    let (as_if, comps) = self.uqs.remove(&token).expect("known token");
                    let QueryAnswer::Rows(mut rows, answered_at) = answer else {
                        panic!("Strobe answers are rows");
                    };
                    for comp in &comps {
                        if comp.is_delete || (comp.seq > as_if && comp.seq <= answered_at) {
                            let lo = self.def.core.offsets[comp.occurrence];
                            subtract_segment(&mut rows, lo, &comp.tuple);
                        }
                    }
                    for (t, n) in rows.iter_counted() {
                        self.pending.add(t.clone(), n as i64);
                    }
                }
                VmEvent::Flush => {}
            }
            self.try_emit(&mut out);
            out
        }
    }

    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        /// `(kind, a, b, pick)` over a 3×3 key domain: writes that commit
        /// at the sources (the manager hears of them only when a later
        /// step delivers the update), deliveries, answers to an arbitrary
        /// outstanding query computed at the sources' state *now* — so
        /// out of order, late, and possibly ahead of updates the manager
        /// has not seen — and flushes.
        type Step = (u8, i64, i64, usize);

        fn steps() -> impl Strategy<Value = (Vec<Step>, Vec<Step>)> {
            let step = || (0u8..14, 0i64..3, 0i64..3, 0usize..8);
            (
                proptest::collection::vec(step(), 0..8),
                proptest::collection::vec(step(), 0..60),
            )
        }

        /// The source transaction of a write step (`None` for the other
        /// kinds): single inserts and deletes on either relation, and a
        /// two-relation global transaction.
        fn writes(cluster: &SourceCluster, (kind, a, b, pick): Step) -> Option<Vec<WriteOp>> {
            let (r, s) = (tuple![a, b], tuple![b, pick as i64 % 3]);
            let live = |rel: &str, t: &Tuple| {
                cluster
                    .relation_current(&rel.into())
                    .is_some_and(|r| r.contains(t))
            };
            // Sets at the sources: no second copy of a live tuple.
            let insert = |rel: &str, t: Tuple| (!live(rel, &t)).then(|| WriteOp::insert(rel, t));
            match kind {
                0 | 1 => Some(vec![insert("R", r)?]),
                2 | 3 => Some(vec![insert("S", s)?]),
                4 => Some(vec![WriteOp::delete("R", r)]),
                5 => Some(vec![WriteOp::delete("S", s)]),
                6 => Some(vec![
                    insert("R", r)?,
                    if live("S", &s) {
                        WriteOp::delete("S", s)
                    } else {
                        WriteOp::insert("S", s)
                    },
                ]),
                _ => None,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 384, ..ProptestConfig::default() })]

            /// Event for event, the manager and the reference emit the
            /// same outputs and hold the same state; the index mirrors the
            /// rows; the log is empty whenever the UQS is.
            #[test]
            fn incremental_manager_equals_full_rebuild_reference((load, run) in steps()) {
                let mut c = cluster();
                for step in load {
                    if let Some(w) = writes(&c, step) {
                        let _ = c.execute_global(SourceId(0), w); // absent-tuple deletes refuse
                    }
                }
                let def = view(&c);
                let mut vm = StrobeVm::new(ViewId(1), def.clone()).unwrap();
                vm.initialize(&c.as_of(c.latest_seq())).unwrap();
                let mut reference = ReferenceStrobe::new(ViewId(1), def, &c.as_of(c.latest_seq()));

                let mut undelivered = std::collections::VecDeque::new();
                let mut outstanding: Vec<(QueryToken, QueryRequest)> = Vec::new();
                for step in run {
                    let event = match step.0 {
                        0..=6 => {
                            if let Some(Ok(u)) = writes(&c, step).map(|w| c.execute_global(SourceId(0), w)) {
                                undelivered.push_back(numbered(u));
                            }
                            continue;
                        }
                        7..=9 => match undelivered.pop_front() {
                            Some(u) => VmEvent::Update(u),
                            None => continue,
                        },
                        10..=12 if !outstanding.is_empty() => {
                            let (token, request) = outstanding.remove(step.3 % outstanding.len());
                            let answer = crate::protocol::answer_query(&c, &request).unwrap();
                            VmEvent::Answer { token, answer }
                        }
                        _ => VmEvent::Flush,
                    };
                    let outs = vm.handle(event.clone()).unwrap();
                    prop_assert_eq!(&outs, &reference.handle(event));
                    outstanding.extend(take_queries(&outs));

                    prop_assert_eq!(vm.mirror.rows(), &reference.mirror);
                    prop_assert_eq!(vm.effective_join(), reference.effective_join());
                    prop_assert_eq!(vm.is_idle(), reference.is_idle());
                    prop_assert!(vm.mirror.index_agrees());
                    prop_assert_eq!(vm.mirror.rows().len(), vm.mirror.rows().distinct_len() as u64);
                    prop_assert!(!vm.uqs.is_empty() || vm.log.is_empty());
                }
            }
        }
    }
}
