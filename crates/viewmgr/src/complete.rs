//! The complete view manager: one action list per relevant source update,
//! each bringing the view to the exact source state after that update
//! (§2.2, §3.3).
//!
//! Completeness is achieved with **as-of** queries against the sources'
//! MVCC log: the delta for `Ui` is computed between `ss_{i-1}` and `ss_i`
//! regardless of how far the sources have moved on, so intertwined
//! updates cannot corrupt the answer. Updates are processed strictly one
//! at a time ("A complete view manager processes one update Uj at a
//! time"), which is exactly why it is slower than a batching manager under
//! load — the trade-off PA exists to exploit.

use crate::materialized::MaterializedView;
use crate::protocol::{
    NumberedUpdate, QueryAnswer, QueryRequest, QueryToken, ViewManager, VmError, VmEvent, VmOutput,
};
use mvc_core::{ActionList, ConsistencyLevel, ViewId};
use mvc_relational::{Delta, ViewDef};
use mvc_source::GlobalSeq;
use std::collections::VecDeque;

/// Complete view manager (one AL per update; as-of delta queries).
///
/// ```
/// use mvc_core::{UpdateId, ViewId};
/// use mvc_relational::{tuple, Schema, ViewDef};
/// use mvc_source::{SourceCluster, SourceId, WriteOp};
/// use mvc_viewmgr::protocol::{answer_query, NumberedUpdate, ViewManager, VmEvent, VmOutput};
/// use mvc_viewmgr::CompleteVm;
///
/// let mut c = SourceCluster::new(4);
/// c.create_relation(SourceId(0), "R", Schema::ints(&["a", "b"])).unwrap();
/// let def = ViewDef::builder("V").from("R").build(c.catalog()).unwrap();
/// let mut vm = CompleteVm::new(ViewId(1), def);
///
/// // A relevant update arrives: the manager asks the source an as-of
/// // delta query instead of trusting the (possibly stale) current state.
/// let u = c.execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 2])]).unwrap();
/// let mut outs = vm.handle(VmEvent::Update(NumberedUpdate::from_owned(UpdateId(1), u))).unwrap();
/// let (token, request) = match outs.pop().unwrap() {
///     VmOutput::Query { token, request } => (token, request),
///     other => panic!("expected a query, got {other:?}"),
/// };
///
/// // The answer yields exactly one action list for the merge process.
/// let answer = answer_query(&c, &request).unwrap();
/// let outs = vm.handle(VmEvent::Answer { token, answer }).unwrap();
/// assert!(matches!(outs[0], VmOutput::Action(_)));
/// assert!(vm.view().contains(&tuple![1, 2]));
/// ```
#[derive(Debug)]
pub struct CompleteVm {
    id: ViewId,
    mat: MaterializedView,
    /// Updates waiting to be processed (FIFO).
    queue: VecDeque<NumberedUpdate>,
    /// The update whose delta query is in flight.
    outstanding: Option<(QueryToken, NumberedUpdate)>,
    next_token: u64,
}

impl CompleteVm {
    pub fn new(id: ViewId, def: ViewDef) -> Self {
        CompleteVm {
            id,
            mat: MaterializedView::new(def),
            queue: VecDeque::new(),
            outstanding: None,
            next_token: 1,
        }
    }

    /// Current local copy of the view (diagnostics/tests).
    pub fn view(&self) -> &mvc_relational::Relation {
        self.mat.view()
    }

    fn issue_next(&mut self, out: &mut Vec<VmOutput>) {
        if self.outstanding.is_some() {
            return;
        }
        let Some(u) = self.queue.pop_front() else {
            return;
        };
        let def = self.mat.def();
        let changes = u.changes_for(self.mat.base_relations());
        if changes.is_empty() {
            // The update touched none of our base relations at the tuple
            // level that survives filtering — still answer with an empty
            // AL so the VUT row completes (§3.3), without a source query.
            let al = ActionList::single(self.id, u.id, Delta::new());
            out.push(VmOutput::Action(al));
            self.issue_next(out);
            return;
        }
        let token = QueryToken(self.next_token);
        self.next_token += 1;
        let request = QueryRequest::DeltaAsOf {
            core: def.core.clone(),
            old: GlobalSeq(u.seq().0 - 1),
            new: u.seq(),
            changes,
        };
        self.outstanding = Some((token, u));
        out.push(VmOutput::Query { token, request });
    }
}

impl ViewManager for CompleteVm {
    fn id(&self) -> ViewId {
        self.id
    }

    fn def(&self) -> &ViewDef {
        self.mat.def()
    }

    fn level(&self) -> ConsistencyLevel {
        ConsistencyLevel::Complete
    }

    fn handle(&mut self, event: VmEvent) -> Result<Vec<VmOutput>, VmError> {
        let mut out = Vec::new();
        match event {
            VmEvent::Update(u) => {
                self.queue.push_back(u);
                self.issue_next(&mut out);
            }
            VmEvent::Answer { token, answer } => {
                let Some((expected, u)) = self.outstanding.take() else {
                    return Err(VmError::UnknownToken(token));
                };
                if expected != token {
                    return Err(VmError::UnknownToken(token));
                }
                let QueryAnswer::Delta(core_delta) = answer else {
                    return Err(VmError::AnswerKindMismatch(token));
                };
                let view_delta = self.mat.apply_core_delta(&core_delta)?;
                out.push(VmOutput::Action(ActionList::single(
                    self.id, u.id, view_delta,
                )));
                self.issue_next(&mut out);
            }
            VmEvent::Flush => {
                // Nothing is ever withheld: every queued update emits as
                // soon as its (ordered) query answers.
            }
        }
        Ok(out)
    }

    fn initialize(&mut self, provider: &dyn mvc_relational::StateProvider) -> Result<(), VmError> {
        let core = mvc_relational::eval_core(&self.mat.def().core, provider)?;
        self.mat = MaterializedView::from_core(self.mat.def().clone(), core)?;
        Ok(())
    }

    fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.outstanding.is_none()
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

    /// Drive the VM synchronously: answer each query immediately against
    /// the cluster (zero delay).
    fn drive(vm: &mut CompleteVm, cluster: &SourceCluster, ev: VmEvent) -> Vec<ActionList<Delta>> {
        let mut actions = Vec::new();
        let mut pending = vm.handle(ev).unwrap();
        while let Some(o) = pending.pop() {
            match o {
                VmOutput::Action(al) => actions.push(al),
                VmOutput::Query { token, request } => {
                    let answer = crate::protocol::answer_query(cluster, &request).unwrap();
                    pending.extend(vm.handle(VmEvent::Answer { token, answer }).unwrap());
                }
            }
        }
        actions.sort_by_key(|a| a.last);
        actions
    }

    #[test]
    fn per_update_deltas_reach_each_state() {
        let mut c = cluster();
        let def = view(&c);
        let mut vm = CompleteVm::new(ViewId(1), def);

        let u1 = c
            .execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 2])])
            .unwrap();
        let u2 = c
            .execute(SourceId(1), vec![WriteOp::insert("S", tuple![2, 3])])
            .unwrap();

        let a1 = drive(&mut vm, &c, VmEvent::Update(numbered(u1)));
        assert_eq!(a1.len(), 1);
        assert!(a1[0].payload.is_empty(), "R alone produces no join rows");
        assert_eq!(a1[0].first, a1[0].last);

        let a2 = drive(&mut vm, &c, VmEvent::Update(numbered(u2)));
        assert_eq!(a2.len(), 1);
        assert_eq!(a2[0].payload.net(&tuple![1, 2, 3]), 1);
        assert!(vm.view().contains(&tuple![1, 2, 3]));
        assert!(vm.is_idle());
    }

    /// The crucial case: the query for U1 is answered only after U2 and U3
    /// have committed. As-of answers must be immune to the later commits.
    #[test]
    fn intertwined_updates_do_not_corrupt_asof_deltas() {
        let mut c = cluster();
        let def = view(&c);
        let mut vm = CompleteVm::new(ViewId(1), def);

        let u1 = c
            .execute(SourceId(1), vec![WriteOp::insert("S", tuple![2, 3])])
            .unwrap();
        // U1's query is *not* answered yet; meanwhile R changes twice.
        let outs = vm.handle(VmEvent::Update(numbered(u1))).unwrap();
        let (token, request) = match &outs[0] {
            VmOutput::Query { token, request } => (*token, request.clone()),
            other => panic!("expected query, got {other:?}"),
        };
        let u2 = c
            .execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 2])])
            .unwrap();
        let u3 = c
            .execute(SourceId(0), vec![WriteOp::insert("R", tuple![9, 2])])
            .unwrap();

        // Answer U1's query now (late).
        let answer = crate::protocol::answer_query(&c, &request).unwrap();
        let outs = vm.handle(VmEvent::Answer { token, answer }).unwrap();
        let al = match &outs[0] {
            VmOutput::Action(al) => al.clone(),
            other => panic!("expected action, got {other:?}"),
        };
        assert!(
            al.payload.is_empty(),
            "at ss1 R was empty; later R inserts must not leak in: {}",
            al.payload
        );

        // Processing U2 and U3 then adds exactly one row each.
        let a2 = drive(&mut vm, &c, VmEvent::Update(numbered(u2)));
        assert_eq!(a2[0].payload.net(&tuple![1, 2, 3]), 1);
        let a3 = drive(&mut vm, &c, VmEvent::Update(numbered(u3)));
        assert_eq!(a3[0].payload.net(&tuple![9, 2, 3]), 1);
    }

    #[test]
    fn updates_processed_one_at_a_time_in_order() {
        let mut c = cluster();
        let def = view(&c);
        let mut vm = CompleteVm::new(ViewId(1), def);
        let u1 = c
            .execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 2])])
            .unwrap();
        let u2 = c
            .execute(SourceId(0), vec![WriteOp::insert("R", tuple![3, 2])])
            .unwrap();
        // Deliver both updates before answering anything.
        let o1 = vm.handle(VmEvent::Update(numbered(u1))).unwrap();
        assert_eq!(o1.len(), 1, "query for U1 only");
        let o2 = vm.handle(VmEvent::Update(numbered(u2))).unwrap();
        assert!(o2.is_empty(), "U2 queued behind outstanding U1 query");
        assert!(!vm.is_idle());
    }

    #[test]
    fn unknown_token_rejected() {
        let c = cluster();
        let def = view(&c);
        let mut vm = CompleteVm::new(ViewId(1), def);
        let err = vm
            .handle(VmEvent::Answer {
                token: QueryToken(99),
                answer: QueryAnswer::Delta(Delta::new()),
            })
            .unwrap_err();
        assert!(matches!(err, VmError::UnknownToken(_)));
    }

    #[test]
    fn aggregate_view_maintained_completely() {
        use mvc_relational::{AggFunc, Expr};
        let mut c = cluster();
        let def = ViewDef::builder("A")
            .from("R")
            .group_by(Expr::named("a"))
            .aggregate(AggFunc::Count, Expr::True, "n")
            .build(c.catalog())
            .unwrap();
        let mut vm = CompleteVm::new(ViewId(2), def);
        let u1 = c
            .execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 10])])
            .unwrap();
        let u2 = c
            .execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 20])])
            .unwrap();
        drive(&mut vm, &c, VmEvent::Update(numbered(u1)));
        let a2 = drive(&mut vm, &c, VmEvent::Update(numbered(u2)));
        assert_eq!(a2[0].payload.net(&tuple![1, 1]), -1);
        assert_eq!(a2[0].payload.net(&tuple![1, 2]), 1);
        assert!(vm.view().contains(&tuple![1, 2]));
    }
}
