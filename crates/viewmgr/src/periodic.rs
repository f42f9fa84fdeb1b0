//! The periodic-refresh view manager (§6.3).
//!
//! Instead of incremental maintenance it recomputes the entire view every
//! `period` relevant updates (or on flush), using an as-of query at the
//! last covered state. "Such a view manager will appear to the MP in our
//! system as if it were an ordinary strongly consistent view manager" —
//! its action lists replace old contents with new, each moving the view
//! between consistent states in order.

use crate::materialized::MaterializedView;
use crate::protocol::{
    QueryAnswer, QueryRequest, QueryToken, ViewManager, VmError, VmEvent, VmOutput,
};
use mvc_core::{ActionList, ConsistencyLevel, UpdateId, ViewId};
use mvc_relational::ViewDef;
use mvc_source::GlobalSeq;

/// Periodic-refresh manager.
#[derive(Debug)]
pub struct PeriodicVm {
    id: ViewId,
    mat: MaterializedView,
    period: usize,
    /// Updates accumulated since the last emitted refresh.
    batch_first: Option<UpdateId>,
    batch_last: UpdateId,
    batch_seq: GlobalSeq,
    batch_len: usize,
    /// Refresh query in flight: (token, first, last).
    outstanding: Option<(QueryToken, UpdateId, UpdateId)>,
    /// Updates arriving while a refresh is in flight roll into the next one.
    next_token: u64,
}

impl PeriodicVm {
    /// Refresh every `period` relevant updates (≥ 1).
    pub fn new(id: ViewId, def: ViewDef, period: usize) -> Self {
        PeriodicVm {
            id,
            mat: MaterializedView::new(def),
            period: period.max(1),
            batch_first: None,
            batch_last: UpdateId::ZERO,
            batch_seq: GlobalSeq::INITIAL,
            batch_len: 0,
            outstanding: None,
            next_token: 1,
        }
    }

    pub fn view(&self) -> &mvc_relational::Relation {
        self.mat.view()
    }

    fn maybe_refresh(&mut self, force: bool, out: &mut Vec<VmOutput>) {
        if self.outstanding.is_some() || self.batch_first.is_none() {
            return;
        }
        if !force && self.batch_len < self.period {
            return;
        }
        let first = self.batch_first.take().expect("checked");
        let last = self.batch_last;
        let seq = self.batch_seq;
        self.batch_len = 0;
        let token = QueryToken(self.next_token);
        self.next_token += 1;
        self.outstanding = Some((token, first, last));
        out.push(VmOutput::Query {
            token,
            request: QueryRequest::EvalAsOf {
                core: self.mat.def().core.clone(),
                seq,
            },
        });
    }
}

impl ViewManager for PeriodicVm {
    fn id(&self) -> ViewId {
        self.id
    }

    fn def(&self) -> &ViewDef {
        self.mat.def()
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
                self.batch_seq = u.seq();
                self.batch_len += 1;
                self.maybe_refresh(false, &mut out);
            }
            VmEvent::Answer { token, answer } => {
                let Some((expected, first, last)) = self.outstanding.take() else {
                    return Err(VmError::UnknownToken(token));
                };
                if expected != token {
                    return Err(VmError::UnknownToken(token));
                }
                let QueryAnswer::Rows(core, _) = answer else {
                    return Err(VmError::AnswerKindMismatch(token));
                };
                let view_delta = self.mat.replace_core(core)?;
                out.push(VmOutput::Action(ActionList::batch(
                    self.id, first, last, view_delta,
                )));
                // Updates that arrived during the refresh form the next batch.
                self.maybe_refresh(self.batch_len >= self.period, &mut out);
            }
            VmEvent::Flush => {
                self.maybe_refresh(true, &mut out);
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
        self.outstanding.is_none() && self.batch_first.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::NumberedUpdate;
    use mvc_relational::{tuple, Delta, Schema};
    use mvc_source::{SourceCluster, SourceId, SourceUpdate, WriteOp};

    fn cluster() -> SourceCluster {
        let mut c = SourceCluster::new(4);
        c.create_relation(SourceId(0), "R", Schema::ints(&["a", "b"]))
            .unwrap();
        c
    }

    fn numbered(u: SourceUpdate) -> NumberedUpdate {
        NumberedUpdate::from_owned(UpdateId(u.seq.0), u)
    }

    fn drive(vm: &mut PeriodicVm, c: &SourceCluster, ev: VmEvent) -> Vec<ActionList<Delta>> {
        let mut actions = Vec::new();
        let mut pending = vm.handle(ev).unwrap();
        while let Some(o) = pending.pop() {
            match o {
                VmOutput::Action(al) => actions.push(al),
                VmOutput::Query { token, request } => {
                    let answer = crate::protocol::answer_query(c, &request).unwrap();
                    pending.extend(vm.handle(VmEvent::Answer { token, answer }).unwrap());
                }
            }
        }
        actions
    }

    #[test]
    fn refreshes_every_period() {
        let mut c = cluster();
        let def = ViewDef::builder("V").from("R").build(c.catalog()).unwrap();
        let mut vm = PeriodicVm::new(ViewId(1), def, 2);

        let u1 = c
            .execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 1])])
            .unwrap();
        let a = drive(&mut vm, &c, VmEvent::Update(numbered(u1)));
        assert!(a.is_empty(), "period not reached");
        assert!(!vm.is_idle());

        let u2 = c
            .execute(SourceId(0), vec![WriteOp::insert("R", tuple![2, 2])])
            .unwrap();
        let a = drive(&mut vm, &c, VmEvent::Update(numbered(u2)));
        assert_eq!(a.len(), 1);
        let al = &a[0];
        assert_eq!((al.first, al.last), (UpdateId(1), UpdateId(2)));
        assert_eq!(al.payload.net(&tuple![1, 1]), 1);
        assert_eq!(al.payload.net(&tuple![2, 2]), 1);
        assert!(vm.is_idle());
        assert!(vm.view().contains(&tuple![2, 2]));
    }

    #[test]
    fn flush_forces_partial_batch() {
        let mut c = cluster();
        let def = ViewDef::builder("V").from("R").build(c.catalog()).unwrap();
        let mut vm = PeriodicVm::new(ViewId(1), def, 100);
        let u1 = c
            .execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 1])])
            .unwrap();
        drive(&mut vm, &c, VmEvent::Update(numbered(u1)));
        let a = drive(&mut vm, &c, VmEvent::Flush);
        assert_eq!(a.len(), 1);
        assert!(vm.is_idle());
    }

    #[test]
    fn refresh_delta_is_replacement_diff() {
        let mut c = cluster();
        let def = ViewDef::builder("V").from("R").build(c.catalog()).unwrap();
        let mut vm = PeriodicVm::new(ViewId(1), def, 1);
        let u1 = c
            .execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 1])])
            .unwrap();
        drive(&mut vm, &c, VmEvent::Update(numbered(u1)));
        // replace [1,1] with [2,2]
        let u2 = c
            .execute(
                SourceId(0),
                vec![
                    WriteOp::delete("R", tuple![1, 1]),
                    WriteOp::insert("R", tuple![2, 2]),
                ],
            )
            .unwrap();
        let a = drive(&mut vm, &c, VmEvent::Update(numbered(u2)));
        assert_eq!(a[0].payload.net(&tuple![1, 1]), -1);
        assert_eq!(a[0].payload.net(&tuple![2, 2]), 1);
    }

    #[test]
    fn updates_during_refresh_roll_into_next_batch() {
        let mut c = cluster();
        let def = ViewDef::builder("V").from("R").build(c.catalog()).unwrap();
        let mut vm = PeriodicVm::new(ViewId(1), def, 1);
        let u1 = c
            .execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 1])])
            .unwrap();
        // issue refresh query for U1 but don't answer yet
        let outs = vm.handle(VmEvent::Update(numbered(u1))).unwrap();
        let (token, request) = match &outs[0] {
            VmOutput::Query { token, request } => (*token, request.clone()),
            o => panic!("unexpected {o:?}"),
        };
        // U2 arrives mid-refresh
        let u2 = c
            .execute(SourceId(0), vec![WriteOp::insert("R", tuple![2, 2])])
            .unwrap();
        assert!(vm.handle(VmEvent::Update(numbered(u2))).unwrap().is_empty());
        // answer U1's refresh: emits AL for U1 and immediately issues the
        // next refresh for U2
        let answer = crate::protocol::answer_query(&c, &request).unwrap();
        let outs = vm.handle(VmEvent::Answer { token, answer }).unwrap();
        let has_action = outs
            .iter()
            .any(|o| matches!(o, VmOutput::Action(al) if al.last == UpdateId(1)));
        let has_query = outs.iter().any(|o| matches!(o, VmOutput::Query { .. }));
        assert!(has_action && has_query, "{outs:?}");
    }
}
